//! Streaming single-site driver: a million-job trace in flat memory.
//!
//! [`super::simulate_site`] admits the whole input slice up front and
//! materialises a `Vec` of outcomes — O(trace) resident memory twice
//! over, before the scheduler has placed a single job. This driver takes
//! the jobs as an *iterator* (pair it with [`crate::job::LublinMix`] and
//! the trace never exists in memory at all), injects each arrival into
//! the event loop when simulation time reaches it, reports outcomes
//! through a callback as jobs depart, and retires each job's arena record
//! once its outcome is final. Memory tracks the number of *live* jobs —
//! queued, running, or awaiting a crash requeue — not the trace length;
//! [`StreamStats::peak_live_jobs`] is the witness.
//!
//! ## Equivalence to the batch driver
//!
//! For the same job sequence the per-job outcomes are bit-identical to
//! `simulate_site` (the tests zip the two). The one delicate point is
//! event order at equal timestamps: the batch driver's queue buckets are
//! FIFO, and it pushes all static calendar/fault events, then every
//! submit, before the first dynamic wake exists — so a tied bucket drains
//! as `[statics][submits][dynamics]`. The stream keeps a count of pending
//! static events per instant and injects an arrival tied with the queue
//! head exactly when no static remains at that instant: before any
//! same-time dynamic event, after every same-time static.
//!
//! ## What the stream rejects
//!
//! Dependencies, moldable shapes and advance reservations all reference
//! jobs or instants that a forward-only stream cannot resolve (a dep on a
//! job id not yet seen, a calendar pin behind the arrival front); they
//! stay batch-only and are rejected per job, with typed errors, as are
//! arrivals that go back in time.

use crate::error::SchedError;
use crate::job::SchedJob;
use crate::site::{
    validate, Departure, FaultAction, FaultEvent, FaultStats, FaultWindow, JobOutcome,
    RequeuePolicy, SchedEngine, SiteConfig, SiteState,
};
use sim_des::{EventQueue, SimTime};
use std::collections::HashMap;

/// Aggregates of one streamed run. Per-job detail goes through the
/// `on_outcome` callback (in departure order — the stream holds no
/// per-trace storage to reorder them); what remains here is O(1).
#[derive(Debug, Clone, Default)]
pub struct StreamStats {
    /// Jobs consumed from the source.
    pub n_jobs: usize,
    /// Jobs that ran to completion (no walltime kill, no exhausted
    /// crash-retry budget).
    pub completed: usize,
    /// Last departure minus first arrival; 0 for an empty trace.
    pub makespan: f64,
    /// Mean queue wait, accumulated in departure order (the batch driver
    /// sums in submission order, so the two may differ in the last ulps;
    /// per-job waits are bit-identical).
    pub mean_wait: f64,
    /// Total seconds lost to link contention.
    pub total_inflation: f64,
    /// Starts that broke a quoted reservation.
    pub head_delay_violations: usize,
    /// High-water mark of simultaneously admitted jobs (queued + running +
    /// awaiting requeue) — the flat-memory witness: for a stable queue
    /// this stays put while the trace grows without bound.
    pub peak_live_jobs: usize,
    /// Fault-pipeline counters (all zero without a fault feed).
    pub fault_stats: FaultStats,
}

enum Ev {
    /// A static calendar instant (maintenance end, quota window end,
    /// fault-window begin/end): always valid, just re-runs the scheduler.
    Tick,
    Wake(u64),
    /// Unplanned `NodeCrash` window `k` of the pre-generated plan begins.
    Crash(usize),
    /// Fail-slow `NicDegrade` window `k` begins: drain, don't kill.
    Degrade(usize),
    /// `(job, node)`: a killed job's backoff delay has elapsed.
    Requeue(usize, usize),
}

/// Per-arrival validation: the batch checks that apply to one job in
/// isolation, plus the stream's own restrictions.
fn validate_job(
    n: usize,
    j: &SchedJob,
    cfg: &SiteConfig,
    last_submit: f64,
) -> Result<(), SchedError> {
    if !j.deps.is_empty() || !j.shapes.is_empty() || j.start_at.is_some() {
        return Err(SchedError::InvalidJob {
            job: n,
            reason: "streaming runs take rigid batch jobs only (no deps, shapes, or reservations)"
                .to_string(),
        });
    }
    // One-element batch validation covers field sanity, pool width, the
    // rack-strict ceiling and windowless quota ceilings; the job index in
    // its errors is 0, so rewrite it to the stream position.
    validate(std::slice::from_ref(j), cfg).map_err(|e| match e {
        SchedError::InvalidJob { reason, .. } => SchedError::InvalidJob { job: n, reason },
        SchedError::InsufficientNodes { need, limit, .. } => SchedError::InsufficientNodes {
            job: n,
            need,
            limit,
        },
        other => other,
    })?;
    if j.submit < last_submit {
        return Err(SchedError::InvalidJob {
            job: n,
            reason: format!(
                "stream arrivals must be non-decreasing ({} after {last_submit})",
                j.submit
            ),
        });
    }
    Ok(())
}

/// Run a stream of jobs (non-decreasing submit times) through one site's
/// scheduler, invoking `on_outcome` for each job as its outcome becomes
/// final. Deterministic; per-job outcomes are bit-identical to
/// [`super::simulate_site`] on the same sequence.
pub fn simulate_site_stream<I, F>(
    jobs: I,
    cfg: &SiteConfig,
    mut on_outcome: F,
) -> Result<StreamStats, SchedError>
where
    I: IntoIterator<Item = SchedJob>,
    F: FnMut(&JobOutcome),
{
    validate(&[], cfg)?;
    let mut st = SiteState::new(
        cfg.pool.clone(),
        cfg.placement,
        cfg.discipline,
        cfg.contention,
        cfg.engine,
    );
    st.set_quotas(&cfg.quotas);
    st.apply_calendar(&cfg.calendar);
    let mut q: EventQueue<Ev> = EventQueue::new();
    // Pending static events per instant: the tie-break ledger (see the
    // module docs). Every push below pairs with a count.
    let mut statics: HashMap<SimTime, usize> = HashMap::new();
    let mut push_static = |q: &mut EventQueue<Ev>, t: f64, ev: Ev| {
        let at = SimTime::from_secs_f64(t);
        q.push(at, ev);
        *statics.entry(at).or_insert(0) += 1;
    };
    if cfg.engine == SchedEngine::SlotSet {
        for m in &cfg.calendar {
            push_static(&mut q, m.end, Ev::Tick);
        }
        for rule in &cfg.quotas {
            if let Some((_, e)) = rule.window {
                push_static(&mut q, e, Ev::Tick);
            }
        }
    }
    let mut crashes: Vec<FaultWindow> = Vec::new();
    let mut degrades: Vec<FaultWindow> = Vec::new();
    let mut requeue = RequeuePolicy::default();
    if let Some(f) = cfg.faults.as_ref().filter(|f| !f.model.is_null()) {
        st.attach_faults();
        requeue = f.requeue;
        (crashes, degrades) = f.slot_windows(cfg.pool.nodes());
        for (k, &(start, repair_end, _)) in crashes.iter().enumerate() {
            push_static(&mut q, start, Ev::Crash(k));
            push_static(&mut q, repair_end, Ev::Tick);
        }
        for (k, &(start, end, _)) in degrades.iter().enumerate() {
            push_static(&mut q, start, Ev::Degrade(k));
            push_static(&mut q, end, Ev::Tick);
        }
    }

    let mut source = jobs.into_iter();
    let mut stats = StreamStats::default();
    let mut last_submit = 0.0_f64;
    let mut first_submit = f64::INFINITY;
    let mut last_end = 0.0_f64;
    let mut wait_sum = 0.0_f64;
    // Arena ids are recycled; the input's own id rides alongside for the
    // outcome rows. Sized to peak-live, not the trace.
    let mut input_id: Vec<usize> = Vec::new();
    let fetch = |source: &mut I::IntoIter,
                 last_submit: &mut f64,
                 n: usize|
     -> Result<Option<(SimTime, SchedJob)>, SchedError> {
        match source.next() {
            Some(j) => {
                validate_job(n, &j, cfg, *last_submit)?;
                *last_submit = j.submit;
                Ok(Some((SimTime::from_secs_f64(j.submit), j)))
            }
            None => Ok(None),
        }
    };
    let mut next_arrival = fetch(&mut source, &mut last_submit, stats.n_jobs)?;

    loop {
        // Arrival-vs-queue tie-break: see the module docs.
        let inject = match (&next_arrival, q.peek_time()) {
            (Some((at, _)), Some(t)) => {
                *at < t || (*at == t && statics.get(&t).copied().unwrap_or(0) == 0)
            }
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        let now;
        if inject {
            let (at, j) = next_arrival.take().expect("checked above");
            now = at.as_secs_f64();
            st.advance(now);
            first_submit = first_submit.min(j.submit);
            let id = st.admit(&j);
            if id == input_id.len() {
                input_id.push(j.id);
            } else {
                input_id[id] = j.id;
            }
            st.submit(id);
            stats.n_jobs += 1;
            next_arrival = fetch(&mut source, &mut last_submit, stats.n_jobs)?;
        } else {
            let (t, ev) = q.pop().expect("checked above");
            now = t.as_secs_f64();
            match ev {
                Ev::Tick | Ev::Crash(_) | Ev::Degrade(_) => {
                    *statics.get_mut(&t).expect("static was counted") -= 1;
                }
                _ => {}
            }
            match ev {
                Ev::Tick => st.advance(now),
                Ev::Wake(gen) => {
                    if gen != st.wake_gen {
                        continue;
                    }
                    st.advance(now);
                }
                Ev::Crash(k) => {
                    st.advance(now);
                    let (_, repair_end, node) = crashes[k];
                    for (job, start, remaining, nodes) in st.crash_node(now, repair_end, node) {
                        st.fault_stats.kills += 1;
                        st.fault_events.push(FaultEvent {
                            t: now,
                            action: FaultAction::Kill,
                            node,
                            job: Some(job),
                        });
                        let v = st.jobs[job].view;
                        let done = (v.runtime - remaining).max(0.0);
                        let retained = requeue.checkpoint.map_or(0.0, |ck| ck.retained(done));
                        let lost = (done - retained).max(0.0);
                        st.jobs[job].fault_loss += lost;
                        st.fault_stats.work_lost_s += lost;
                        st.fault_stats.work_salvaged_s += retained;
                        st.jobs[job].kills += 1;
                        let attempt = st.jobs[job].kills;
                        if attempt > requeue.retry.max_retries {
                            // Retry budget exhausted: fails for good.
                            let o = JobOutcome {
                                id: input_id[job],
                                start,
                                end: now,
                                wait: (start - v.submit).max(0.0),
                                inflation: ((now - start) - v.runtime).max(0.0),
                                completed: false,
                                nodes,
                                requeues: attempt,
                                fault_loss_s: st.jobs[job].fault_loss,
                            };
                            last_end = last_end.max(o.end);
                            wait_sum += o.wait;
                            stats.total_inflation += o.inflation;
                            on_outcome(&o);
                            st.jobs.retire(job);
                        } else {
                            if retained > 0.0 {
                                // Checkpoint credit: the rerun owes only
                                // the un-checkpointed remainder plus the
                                // restore cost.
                                let restore = requeue.checkpoint.map_or(0.0, |ck| ck.restore_cost);
                                st.jobs[job].view.runtime =
                                    (v.runtime - retained + restore).max(crate::slot::EPS);
                            }
                            let delay = requeue.retry.delay_before(attempt);
                            q.push(SimTime::from_secs_f64(now + delay), Ev::Requeue(job, node));
                        }
                    }
                }
                Ev::Degrade(k) => {
                    st.advance(now);
                    let (_, end, node) = degrades[k];
                    st.degrade_node(now, end, node);
                }
                Ev::Requeue(job, node) => {
                    st.advance(now);
                    st.fault_stats.requeues += 1;
                    st.fault_events.push(FaultEvent {
                        t: now,
                        action: FaultAction::Requeue,
                        node,
                        job: Some(job),
                    });
                    st.queue.push_back(job);
                }
            }
        }
        for dep in st.departures(now) {
            let (job, start, end, nodes, completed) = match dep {
                Departure::Completed {
                    job,
                    start,
                    end,
                    nodes,
                } => (job, start, end, nodes, true),
                Departure::Killed {
                    job,
                    start,
                    end,
                    nodes,
                } => (job, start, end, nodes, false),
            };
            let o = JobOutcome {
                id: input_id[job],
                start,
                end,
                wait: (start - st.jobs[job].view.submit).max(0.0),
                inflation: ((end - start) - st.jobs[job].view.runtime).max(0.0),
                completed,
                nodes,
                requeues: st.jobs[job].kills,
                fault_loss_s: st.jobs[job].fault_loss,
            };
            last_end = last_end.max(o.end);
            wait_sum += o.wait;
            stats.total_inflation += o.inflation;
            if completed {
                stats.completed += 1;
            }
            on_outcome(&o);
            st.jobs.retire(job);
        }
        st.heal(now);
        st.try_start(now)?;
        st.started.clear();
        st.recompute_rates();
        st.wake_gen += 1;
        if let Some(te) = st.next_event() {
            q.push(SimTime::from_secs_f64(te.max(now)), Ev::Wake(st.wake_gen));
        }
    }
    stats.makespan = if stats.n_jobs == 0 {
        0.0
    } else {
        last_end - first_submit
    };
    stats.mean_wait = wait_sum / stats.n_jobs.max(1) as f64;
    stats.head_delay_violations = st.head_delay_violations;
    stats.peak_live_jobs = st.jobs.peak_live();
    stats.fault_stats = st.fault_stats;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{lublin_mix, JobShape};
    use crate::pool::{NodePool, PlacementPolicy};
    use crate::site::{simulate_site, Discipline, Maintenance, QuotaRule, SiteFaults};
    use sim_net::ContentionParams;

    fn cfg(nodes: usize, rack: usize, d: Discipline) -> SiteConfig {
        SiteConfig::new(
            NodePool::new(nodes, rack),
            PlacementPolicy::Packed,
            d,
            ContentionParams::NONE,
        )
    }

    /// Stream and batch must agree bit-for-bit, job by job.
    fn assert_stream_matches_batch(jobs: &[SchedJob], cfg: &SiteConfig) {
        let batch = simulate_site(jobs, cfg).expect("batch run");
        let mut by_id: Vec<Option<JobOutcome>> = vec![None; jobs.len()];
        let stats = simulate_site_stream(jobs.iter().cloned(), cfg, |o| {
            assert!(by_id[o.id].is_none(), "outcome delivered twice: {o:?}");
            by_id[o.id] = Some(o.clone());
        })
        .expect("stream run");
        assert_eq!(stats.n_jobs, jobs.len());
        for (want, got) in batch.outcomes.iter().zip(&by_id) {
            let got = got.as_ref().expect("every job departs");
            assert_eq!(want.id, got.id);
            assert_eq!(want.start.to_bits(), got.start.to_bits());
            assert_eq!(want.end.to_bits(), got.end.to_bits());
            assert_eq!(want.wait.to_bits(), got.wait.to_bits());
            assert_eq!(want.inflation.to_bits(), got.inflation.to_bits());
            assert_eq!(want.completed, got.completed);
            assert_eq!(want.nodes, got.nodes);
            assert_eq!(want.requeues, got.requeues);
            assert_eq!(want.fault_loss_s.to_bits(), got.fault_loss_s.to_bits());
        }
        assert_eq!(stats.head_delay_violations, batch.head_delay_violations);
        assert_eq!(stats.fault_stats, batch.fault_stats);
        assert_eq!(stats.makespan.to_bits(), batch.makespan.to_bits());
        assert!((stats.mean_wait - batch.mean_wait).abs() <= 1e-9 * (1.0 + batch.mean_wait));
        assert!(stats.peak_live_jobs <= jobs.len());
    }

    #[test]
    fn stream_is_bit_identical_to_batch_across_disciplines_and_engines() {
        for seed in [1_u64, 42, 0x5EED] {
            let jobs = lublin_mix(400, 16, 1.1, seed);
            for d in [
                Discipline::Fcfs,
                Discipline::Easy,
                Discipline::NaiveBackfill,
                Discipline::Conservative,
            ] {
                for engine in [SchedEngine::SlotSet, SchedEngine::LegacyFreeNode] {
                    let c = cfg(16, 8, d).with_engine(engine);
                    assert_stream_matches_batch(&jobs, &c);
                }
            }
        }
    }

    #[test]
    fn stream_matches_batch_under_contention() {
        let jobs = lublin_mix(300, 32, 1.3, 9);
        let c = SiteConfig::new(
            NodePool::new(32, 8),
            PlacementPolicy::RackAware,
            Discipline::Easy,
            ContentionParams {
                beta: 0.35,
                cap: 2.5,
            },
        );
        assert_stream_matches_batch(&jobs, &c);
    }

    #[test]
    fn stream_matches_batch_with_calendar_and_quotas() {
        let mut jobs = lublin_mix(200, 16, 1.0, 5);
        for (i, j) in jobs.iter_mut().enumerate() {
            if i % 3 == 0 {
                j.project = Some(1);
            }
        }
        let c = cfg(16, 8, Discipline::Easy)
            .with_maintenance(Maintenance {
                begin: 5_000.0,
                end: 9_000.0,
                nodes: crate::site::MaintNodes::All,
            })
            .with_quota(QuotaRule {
                project: 1,
                max_nodes: 6,
                window: Some((0.0, 50_000.0)),
            });
        assert_stream_matches_batch(&jobs, &c);
    }

    #[test]
    fn stream_matches_batch_under_crash_faults() {
        let crashy = sim_faults::FaultModel {
            name: "test-crashy",
            scale: 1.0,
            crash_per_node_hour: 2.0,
            crash_mean_secs: 60.0,
            ..sim_faults::FaultModel::none()
        };
        let jobs: Vec<SchedJob> = (0..24)
            .map(|i| {
                let mut j = SchedJob::new(i, 2, (i as f64) * 30.0, 600.0, 0.0);
                j.walltime = 1e5;
                j
            })
            .collect();
        let c =
            cfg(8, 4, Discipline::Easy).with_faults(SiteFaults::new(crashy, 7).with_mttr(300.0));
        let batch = simulate_site(&jobs, &c).expect("batch");
        assert!(batch.fault_stats.kills > 0, "model not hot enough");
        assert_stream_matches_batch(&jobs, &c);
    }

    #[test]
    fn peak_live_stays_flat_as_the_trace_grows() {
        // A drained load: the queue reaches a steady state, so quadrupling
        // the trace must not grow the high-water mark of live jobs.
        let run = |n: usize| {
            let c = cfg(32, 8, Discipline::Easy);
            simulate_site_stream(crate::job::LublinMix::new(n, 32, 0.7, 11), &c, |_| {})
                .expect("stream run")
        };
        let small = run(2_000);
        let large = run(8_000);
        assert_eq!(small.n_jobs, 2_000);
        assert_eq!(large.n_jobs, 8_000);
        assert!(
            large.peak_live_jobs <= small.peak_live_jobs * 2,
            "live set grew with trace length: {} -> {}",
            small.peak_live_jobs,
            large.peak_live_jobs
        );
        assert!(large.peak_live_jobs < 500, "{}", large.peak_live_jobs);
    }

    #[test]
    fn stream_rejects_what_it_cannot_replay() {
        let c = cfg(8, 8, Discipline::Easy);
        let dep = SchedJob::new(1, 1, 1.0, 10.0, 0.0).with_deps(&[0]);
        assert!(matches!(
            simulate_site_stream([SchedJob::new(0, 1, 0.0, 10.0, 0.0), dep], &c, |_| {}),
            Err(SchedError::InvalidJob { job: 1, .. })
        ));
        let mold = SchedJob::new(0, 1, 0.0, 10.0, 0.0).with_shapes(&[JobShape {
            nodes: 2,
            runtime: 6.0,
            walltime: 18.0,
        }]);
        assert!(matches!(
            simulate_site_stream([mold], &c, |_| {}),
            Err(SchedError::InvalidJob { job: 0, .. })
        ));
        let resv = SchedJob::new(0, 1, 0.0, 10.0, 0.0).at(100.0);
        assert!(matches!(
            simulate_site_stream([resv], &c, |_| {}),
            Err(SchedError::InvalidJob { job: 0, .. })
        ));
        let back_in_time = [
            SchedJob::new(0, 1, 50.0, 10.0, 0.0),
            SchedJob::new(1, 1, 20.0, 10.0, 0.0),
        ];
        assert!(matches!(
            simulate_site_stream(back_in_time, &c, |_| {}),
            Err(SchedError::InvalidJob { job: 1, .. })
        ));
    }
}
