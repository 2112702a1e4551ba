//! `sched-stream` and `sched-conservative`: the cluster scheduler on a
//! 32-node, rack-aware DCC partition.
//!
//! `sched-stream` streams Lublin job mixes at load 0.7 through
//! `simulate_site_stream` under FCFS, EASY and EASY with a crash-heavy
//! fault feed, and runs the contended ARRIVE-F mix at load 1.3 through
//! `simulate_burst` with and without cloud bursting. `sched-conservative`
//! runs overloaded (load 1.2) Lublin batches under conservative backfill
//! through `simulate_site`, one sweep cell per batch, fanned out over two
//! `sim_sweep` workers; one cell carries the crash feed.

use crate::harness::{host, run_rounds, Args, Fnv, Outcome, Requests, SetupTimer};
use crate::replay;
use crate::trace::Tracer;
use cloudsim::scheduler::{contended_mix, contended_sites};
use cloudsim::Capacities;
use sim_des::SimTime;
use sim_faults::FaultModel;
use sim_net::ContentionParams;
use sim_platform::presets;
use sim_sched::{
    lublin_mix, simulate_burst, simulate_site, simulate_site_stream, BurstJob, BurstPolicy,
    BurstSite, CheckpointSpec, Discipline, FaultStats, JobOutcome, LublinMix, NodePool,
    PlacementPolicy, RequeuePolicy, SchedJob, SiteConfig, SiteFaults, SiteResult,
};
use sim_sweep::{cell_seed, sweep, SweepOpts};
use std::collections::HashMap;
use std::time::Instant;

const POOL: usize = 32;
const STREAM_JOBS: usize = 2_500;
const FAULT_STREAM_JOBS: usize = 2_000;
const BURST_JOBS: usize = 1_250;
/// Jobs per conservative-backfill cell, and cells per sweep call.
const BATCH_JOBS: usize = 150;
const CELLS: usize = 64;
const SWEEP_WORKERS: usize = 2;
/// Input sets built at set-up; every round runs all of them. A set is the
/// four fault-free calls and two crash streams. Many small sets average
/// the per-input variation out of a run's figures, and keep the share of
/// crash streams hit by the head-delay defect (see `check_head_delays`;
/// about a quarter of them) steady from seed to seed.
const STREAM_SETS: usize = 16;
const CRASH_PER_SET: usize = 2;
/// Scheduler calls per stream set.
const CALLS_PER_SET: usize = 4 + CRASH_PER_SET;
/// Sweeps per conservative round.
const BATCH_SETS: usize = 2;
/// Jobs of the prefix on which streamed and batch outcomes must agree.
const PREFIX_JOBS: usize = 1_000;
/// Fault windows are generated over two weeks, which covers the makespan
/// of every stream above.
const FAULT_HORIZON_S: f64 = 14.0 * 24.0 * 3600.0;

fn site(discipline: Discipline) -> SiteConfig {
    let dcc = presets::dcc();
    SiteConfig::new(
        NodePool::partition_of(&dcc, POOL),
        PlacementPolicy::RackAware,
        discipline,
        ContentionParams::for_fabric(&dcc.topology.inter),
    )
}

/// A crash-heavy feed: the DCC preset yields drains only, so crashes are
/// raised explicitly to exercise kill, requeue and checkpoint restart.
fn crash_feed(seed: u64) -> SiteFaults {
    let model = FaultModel {
        name: "perfbench-crashy",
        scale: 1.0,
        crash_per_node_hour: 0.05,
        crash_mean_secs: 120.0,
        nic_per_node_hour: 0.05,
        nic_mean_secs: 300.0,
        nic_factor: 4.0,
        ..FaultModel::none()
    };
    SiteFaults::new(model, seed)
        .with_mttr(1200.0)
        .with_horizon(FAULT_HORIZON_S)
        .with_requeue(RequeuePolicy::default().with_checkpoint(CheckpointSpec {
            interval: 300.0,
            restore_cost: 30.0,
        }))
}

/// Output checks on one site run that hold for any seed: one outcome per
/// job, consistent times, and never more nodes busy than the pool has.
fn check_outcomes(label: &str, outs: &[JobOutcome], submits: &[f64], out: &mut Outcome) {
    out.check(outs.len() == submits.len(), || {
        format!(
            "{label}: {} outcomes for {} jobs",
            outs.len(),
            submits.len()
        )
    });
    let mut seen = vec![0u8; submits.len()];
    let mut edges = Vec::with_capacity(2 * outs.len());
    for o in outs {
        let Some(&submit) = submits.get(o.id) else {
            out.check(false, || {
                format!("{label}: outcome for unknown job {}", o.id)
            });
            continue;
        };
        seen[o.id] = seen[o.id].saturating_add(1);
        // The scheduler's clock is `SimTime`, nanoseconds rounded to
        // nearest: an arrival is handled at its submit time on that grid,
        // which can lie up to half a nanosecond before the f64 submit time
        // (the wait then clamps to 0). Start and submit are compared on
        // the clock grid.
        let ok = o.start.is_finite()
            && o.end.is_finite()
            && SimTime::from_secs_f64(o.start) >= SimTime::from_secs_f64(submit)
            && o.wait == (o.start - submit).max(0.0)
            && o.end >= o.start
            && o.nodes >= 1;
        out.check(ok, || {
            format!(
                "{label}: job {} submit {submit} start {} wait {} end {} nodes {}",
                o.id, o.start, o.wait, o.end, o.nodes
            )
        });
        edges.push((o.start, o.nodes as i64));
        edges.push((o.end, -(o.nodes as i64)));
    }
    let dup = seen.iter().position(|&n| n != 1);
    out.check(dup.is_none(), || {
        format!(
            "{label}: job {dup:?} has {} outcomes",
            seen[dup.unwrap_or(0)]
        )
    });
    // Sweep line over the run intervals; releases sort before starts at
    // equal times.
    edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut busy = 0i64;
    for (t, d) in edges {
        busy += d;
        out.check(busy <= POOL as i64, || {
            format!("{label}: {busy} nodes busy at t={t} on a {POOL}-node pool")
        });
    }
}

fn outcome_digest(outs: &[JobOutcome]) -> u64 {
    let mut h = Fnv::new();
    for o in outs {
        h.word(o.id as u64);
        h.word(o.start.to_bits());
        h.word(o.end.to_bits());
        h.word(o.nodes as u64);
        h.word(u64::from(o.completed));
        h.word(u64::from(o.requeues));
    }
    h.0
}

fn add_faults(out: &mut Outcome, f: &FaultStats) {
    out.add("faults.crashes", f.crashes as f64);
    out.add("faults.kills", f.kills as f64);
    out.add("faults.requeues", f.requeues as f64);
    out.add("faults.drains", f.drains as f64);
    out.add("faults.repairs", f.repairs as f64);
}

/// EASY and conservative backfill must never start a job later than the
/// reservation it was quoted. A known defect breaks this under a fault
/// feed: a fail-slow (NIC-degrade) drain takes a node out of placement
/// without voiding the queued quotes the way a crash does, so a quote can
/// slip. Such a scheduler call is counted as a failed operation (it shows
/// in `failed` and `success_ratio`; `count` is false on the rounds that
/// repeat it) rather than marking the run incorrect; without a fault feed
/// any violation is an incorrect output.
fn check_head_delays(
    label: &str,
    violations: usize,
    fault_feed: bool,
    count: bool,
    out: &mut Outcome,
) {
    if violations == 0 {
        return;
    }
    if fault_feed {
        if !count {
            return;
        }
        out.failed += 1;
        eprintln!("perfbench: {label}: {violations} head-delay violations under the fault feed (known defect)");
    } else {
        out.check(false, || {
            format!("{label}: {violations} head-delay violations")
        });
    }
}

/// Streamed and batch outcomes of the same prefix must be bit-identical.
fn check_prefix(
    label: &str,
    jobs: Vec<SchedJob>,
    cfg: &SiteConfig,
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    let (batch, _) = tr.timed("sched.simulate_site", || simulate_site(&jobs, cfg));
    let mut streamed: Vec<JobOutcome> = Vec::with_capacity(jobs.len());
    let (stats, _) = tr.timed("sched.simulate_site_stream", || {
        simulate_site_stream(jobs.iter().cloned(), cfg, |o| streamed.push(o.clone()))
    });
    match (batch, stats) {
        (Ok(batch), Ok(_)) => {
            streamed.sort_by_key(|o| o.id);
            let same = batch.outcomes.len() == streamed.len()
                && batch.outcomes.iter().zip(&streamed).all(|(a, b)| {
                    a.id == b.id
                        && a.start.to_bits() == b.start.to_bits()
                        && a.end.to_bits() == b.end.to_bits()
                        && a.wait.to_bits() == b.wait.to_bits()
                        && a.nodes == b.nodes
                        && a.completed == b.completed
                        && a.requeues == b.requeues
                });
            out.check(same, || {
                format!("{label}: streamed prefix outcomes differ from simulate_site")
            });
        }
        (b, s) => out.check(false, || {
            format!(
                "{label}: prefix runs failed: batch {:?}, stream {:?}",
                b.err(),
                s.err()
            )
        }),
    }
}

enum Call {
    Stream {
        label: &'static str,
        cfg: Box<SiteConfig>,
        mix: LublinMix,
        n: usize,
    },
    Burst {
        label: &'static str,
        policy: BurstPolicy,
        jobs: Vec<BurstJob>,
    },
}

struct StreamSetup {
    /// `STREAM_SETS` sets of the fault-free calls.
    sets: Vec<Vec<Call>>,
    /// `CRASH_PER_SET` crash streams per set, set-major.
    faulty: Vec<Call>,
    sites: Vec<BurstSite>,
}

fn stream_setup(seed: u64, tr: &mut Tracer) -> StreamSetup {
    StreamSetup {
        sets: (0..STREAM_SETS)
            .map(|k| stream_calls(cell_seed(seed, k as u64), tr))
            .collect(),
        faulty: (0..STREAM_SETS * CRASH_PER_SET)
            .map(|k| crash_stream(cell_seed(seed, (STREAM_SETS + k) as u64), tr))
            .collect(),
        sites: contended_sites(Capacities::default()),
    }
}

fn crash_stream(seed: u64, tr: &mut Tracer) -> Call {
    let (mix, _) = tr.timed("sched.lublin_mix", || {
        LublinMix::new(FAULT_STREAM_JOBS, POOL, 0.7, cell_seed(seed, 0))
    });
    Call::Stream {
        label: "easy+crashes",
        cfg: Box::new(site(Discipline::Easy).with_faults(crash_feed(cell_seed(seed, 1)))),
        mix,
        n: FAULT_STREAM_JOBS,
    }
}

/// A set's fault-free scheduler calls; the set ends with its crash streams.
fn stream_calls(seed: u64, tr: &mut Tracer) -> Vec<Call> {
    let s = |k: u64| cell_seed(seed, k);
    let (mixes, _) = tr.timed("sched.lublin_mix", || {
        [
            LublinMix::new(STREAM_JOBS, POOL, 0.7, s(0)),
            LublinMix::new(STREAM_JOBS, POOL, 0.7, s(1)),
        ]
    });
    let [fcfs, easy] = mixes;
    // The facade's ARRIVE-F mix is `sim_sched::lublin_burst_mix` with the
    // contended capacities, so its time belongs to the sched layer.
    let (burst_jobs, _) = tr.timed("sched.contended_mix", || {
        contended_mix(BURST_JOBS, 1.3, s(3))
    });
    vec![
        Call::Stream {
            label: "fcfs",
            cfg: Box::new(site(Discipline::Fcfs)),
            mix: fcfs,
            n: STREAM_JOBS,
        },
        Call::Stream {
            label: "easy",
            cfg: Box::new(site(Discipline::Easy)),
            mix: easy,
            n: STREAM_JOBS,
        },
        Call::Burst {
            label: "burst-hpc-only",
            policy: BurstPolicy::HpcOnly,
            jobs: burst_jobs.clone(),
        },
        Call::Burst {
            label: "burst-cloud",
            policy: BurstPolicy::CloudBurst { threshold: 0.55 },
            jobs: burst_jobs,
        },
    ]
}

/// Per-call state kept across rounds for the checks.
#[derive(Default)]
struct CallState {
    submits: Vec<f64>,
    digest: Option<u64>,
}

/// `CallState`s shaped like `StreamSetup`.
struct StreamState {
    sets: Vec<Vec<CallState>>,
    faulty: Vec<CallState>,
}

impl StreamState {
    fn new(setup: &StreamSetup) -> StreamState {
        let fresh = |calls: &[Call]| calls.iter().map(|_| CallState::default()).collect();
        StreamState {
            sets: setup.sets.iter().map(|calls| fresh(calls)).collect(),
            faulty: fresh(&setup.faulty),
        }
    }
}

#[derive(Default)]
struct StreamTally {
    stream_ns: u64,
    stream_jobs: u64,
    burst_ns: u64,
    burst_jobs: u64,
    peak_live: usize,
    hdv: usize,
    faults: FaultStats,
}

/// Stream set `set`: its fault-free calls, then its crash streams.
/// Operations are counted in round 0 only; later rounds repeat them for
/// timing.
#[allow(clippy::too_many_arguments)]
fn stream_set(
    round: usize,
    set: usize,
    setup: &StreamSetup,
    state: &mut StreamState,
    tr: &mut Tracer,
    req: &mut Requests,
    tally: &mut StreamTally,
    out: &mut Outcome,
) {
    let first = round == 0;
    let crashes = set * CRASH_PER_SET..(set + 1) * CRASH_PER_SET;
    let calls = setup.sets[set]
        .iter()
        .zip(state.sets[set].iter_mut())
        .chain(
            setup.faulty[crashes.clone()]
                .iter()
                .zip(state.faulty[crashes].iter_mut()),
        );
    for (j, (call, st)) in calls.enumerate() {
        let op = set * CALLS_PER_SET + j;
        if first {
            out.attempted += 1;
        }
        match call {
            Call::Stream { label, cfg, mix, n } => {
                let mut outs: Vec<JobOutcome> = Vec::with_capacity(*n);
                let (r, ns) = tr.timed("sched.simulate_site_stream", || {
                    simulate_site_stream(mix.clone(), cfg, |o| outs.push(o.clone()))
                });
                let stats = match r {
                    Ok(stats) => stats,
                    Err(e) => {
                        out.failed += u64::from(first);
                        out.check(false, || format!("{label}: {e}"));
                        continue;
                    }
                };
                req.record(op, ns, outs.len() as u64);
                tally.stream_ns += ns;
                tally.stream_jobs += outs.len() as u64;
                tally.peak_live = tally.peak_live.max(stats.peak_live_jobs);
                tally.hdv += stats.head_delay_violations;
                let f = &stats.fault_stats;
                tally.faults.crashes += f.crashes;
                tally.faults.kills += f.kills;
                tally.faults.requeues += f.requeues;
                tally.faults.drains += f.drains;
                tally.faults.repairs += f.repairs;
                if st.submits.is_empty() {
                    st.submits = mix.clone().map(|j| j.submit).collect();
                }
                check_outcomes(label, &outs, &st.submits, out);
                out.check(stats.n_jobs == *n, || {
                    format!("{label}: {} of {n} jobs consumed", stats.n_jobs)
                });
                check_head_delays(
                    label,
                    stats.head_delay_violations,
                    cfg.faults.is_some(),
                    first,
                    out,
                );
                let completed = outs.iter().filter(|o| o.completed).count();
                out.check(completed == stats.completed, || {
                    format!(
                        "{label}: {completed} completed outcomes, stats say {}",
                        stats.completed
                    )
                });
                let d = outcome_digest(&outs);
                match st.digest {
                    None => st.digest = Some(d),
                    Some(p) => out.check(p == d, || {
                        format!("{label}: outcomes changed between rounds")
                    }),
                }
            }
            Call::Burst {
                label,
                policy,
                jobs,
            } => {
                let (r, ns) = tr.timed("sched.simulate_burst", || {
                    simulate_burst(jobs, &setup.sites, *policy, None, None)
                });
                let stats = match r {
                    Ok(stats) => stats,
                    Err(e) => {
                        out.failed += u64::from(first);
                        out.check(false, || format!("{label}: {e}"));
                        continue;
                    }
                };
                req.record(op, ns, stats.jobs.len() as u64);
                tally.burst_ns += ns;
                tally.burst_jobs += stats.jobs.len() as u64;
                tally.hdv += stats.head_delay_violations;
                let mut seen = vec![0u8; jobs.len()];
                let mut h = Fnv::new();
                for o in &stats.jobs {
                    let ok = o.id < jobs.len()
                        && o.site < setup.sites.len()
                        && o.wait.is_finite()
                        && o.wait >= 0.0
                        && o.runtime > 0.0
                        && o.cost.is_finite()
                        && o.cost >= 0.0
                        && (*policy != BurstPolicy::HpcOnly || o.site == 0);
                    out.check(ok, || format!("{label}: outcome {o:?}"));
                    if let Some(s) = seen.get_mut(o.id) {
                        *s = s.saturating_add(1);
                    }
                    h.word(o.id as u64);
                    h.word(o.site as u64);
                    h.word(o.wait.to_bits());
                }
                out.check(seen.iter().all(|&n| n == 1), || {
                    format!("{label}: a job lacks exactly one outcome")
                });
                out.check(stats.head_delay_violations == 0, || {
                    format!(
                        "{label}: {} head-delay violations",
                        stats.head_delay_violations
                    )
                });
                match st.digest {
                    None => st.digest = Some(h.0),
                    Some(p) => out.check(p == h.0, || {
                        format!("{label}: outcomes changed between rounds")
                    }),
                }
            }
        }
    }
}

pub fn run_stream(args: &Args, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    tr.enter("run");
    let mut timer = SetupTimer::new(args.seconds);
    let setup = timer.build(tr, |tr| stream_setup(args.seed, tr));
    let mut state = StreamState::new(&setup);
    let calls = STREAM_SETS * CALLS_PER_SET;
    let mut req = Requests::new(calls, calls);
    let mut tally = StreamTally::default();
    tr.enter("bench.timed");
    let rounds = run_rounds(args.seconds, |round| {
        for set in 0..STREAM_SETS {
            stream_set(
                round, set, &setup, &mut state, tr, &mut req, &mut tally, out,
            );
            timer.maybe_rebuild(tr, |tr| stream_setup(args.seed, tr));
        }
    });
    req.rounds = rounds;
    tr.exit();
    out.setup_s = timer.finish(tr, |tr| stream_setup(args.seed, tr));
    let per_round = 1.0 / rounds as f64;
    out.set("sched.stream_s", tally.stream_ns as f64 * 1e-9 * per_round);
    out.set("sched.stream_jobs", tally.stream_jobs as f64 * per_round);
    out.set("sched.burst_s", tally.burst_ns as f64 * 1e-9 * per_round);
    out.set("sched.burst_jobs", tally.burst_jobs as f64 * per_round);
    out.set("sched.peak_live_jobs", tally.peak_live as f64);
    out.set("sched.head_delay_violations", tally.hdv as f64 * per_round);
    let f = tally.faults;
    out.set("faults.crashes", f.crashes as f64 * per_round);
    out.set("faults.kills", f.kills as f64 * per_round);
    out.set("faults.requeues", f.requeues as f64 * per_round);
    out.set("faults.drains", f.drains as f64 * per_round);
    out.set("faults.repairs", f.repairs as f64 * per_round);

    tr.enter("bench.check");
    for call in setup.sets[0].iter().chain(&setup.faulty[..1]) {
        if let Call::Stream {
            label, cfg, mix, ..
        } = call
        {
            check_prefix(label, mix.clone().take(PREFIX_JOBS).collect(), cfg, tr, out);
        }
    }
    tr.exit();

    if tr.is_on() {
        // The slot-set primitives over the EASY stream's jobs.
        if let Some(Call::Stream { mix, .. }) = setup.sets[0].get(1) {
            let jobs: Vec<SchedJob> = mix.clone().collect();
            let (ns, _) = tr.timed("sched.replay_slotset", || replay::slotset(&jobs, POOL));
            out.set("sched.slotset_ns_per_job", ns);
        }
    }
    tr.exit();

    out.requests = req;
    // 96 distinct calls: p85 keeps fourteen beyond it.
    out.tail_pct = 0.85;
    if tr.is_on() {
        let mut off = Tracer::new(false);
        let mut req = Requests::new(calls, calls);
        let mut scratch = Outcome::default();
        run_rounds(args.seconds, |round| {
            for set in 0..STREAM_SETS {
                stream_set(
                    round + 1,
                    set,
                    &setup,
                    &mut state,
                    &mut off,
                    &mut req,
                    &mut StreamTally::default(),
                    &mut scratch,
                );
            }
        });
        out.failures.extend(scratch.failures);
        out.untraced_throughput = Some(req.throughput());
    }
    Ok(())
}

struct Cell {
    jobs: Vec<SchedJob>,
    submits: Vec<f64>,
    cfg: SiteConfig,
    faulty: bool,
}

/// `BATCH_SETS` sweeps of `CELLS` cells, set-major; the first cell of each
/// sweep carries the crash feed. Every round runs all the sweeps.
fn conservative_setup(seed: u64, tr: &mut Tracer) -> Vec<Cell> {
    (0..BATCH_SETS * CELLS)
        .map(|c| {
            let s = cell_seed(seed, c as u64);
            let (jobs, _) = tr.timed("sched.lublin_mix", || lublin_mix(BATCH_JOBS, POOL, 1.2, s));
            let faulty = c % CELLS == 0;
            let mut cfg = site(Discipline::Conservative);
            if faulty {
                cfg = cfg.with_faults(crash_feed(s));
            }
            let submits = jobs.iter().map(|j| j.submit).collect();
            Cell {
                jobs,
                submits,
                cfg,
                faulty,
            }
        })
        .collect()
}

struct CellRun {
    cell: usize,
    start: Instant,
    end: Instant,
    /// The host-speed factor of the worker that ran the cell (see
    /// `harness::host`; each worker probes its own CPU).
    factor: f64,
    worker: std::thread::ThreadId,
    result: Result<SiteResult, sim_sched::SchedError>,
}

#[derive(Default)]
struct BatchTally {
    sweep_ns: u64,
    cell_ns: u64,
    jobs: u64,
    reservations: u64,
    hdv: usize,
}

/// One sweep over `cells`, the cells of sweep `set`. Operations are
/// counted in round 0 only; later rounds repeat them for timing.
#[allow(clippy::too_many_arguments)]
fn conservative_sweep(
    round: usize,
    set: usize,
    cells: &[Cell],
    digests: &mut [Option<u64>],
    tr: &mut Tracer,
    req: &mut Requests,
    tally: &mut BatchTally,
    out: &mut Outcome,
) {
    let opts = SweepOpts::default().with_threads(SWEEP_WORKERS);
    tr.enter("sweep.sweep");
    let t = Instant::now();
    let runs: Vec<CellRun> = sweep(
        cells.len(),
        &opts,
        Vec::new,
        |cell, acc: &mut Vec<CellRun>| {
            let c = &cells[cell];
            host::tick();
            let start = Instant::now();
            let result = simulate_site(&c.jobs, &c.cfg);
            let end = Instant::now();
            acc.push(CellRun {
                cell,
                start,
                end,
                factor: host::factor(),
                worker: std::thread::current().id(),
                result,
            });
        },
        |all, part| all.extend(part),
    );
    let sweep_ns = t.elapsed().as_nanos() as u64;
    let mut workers: HashMap<std::thread::ThreadId, usize> = HashMap::new();
    for r in &runs {
        let next = workers.len();
        let w = *workers.entry(r.worker).or_insert(next);
        tr.push(
            "sched.simulate_site",
            tr.ns_at(r.start),
            tr.ns_at(r.end),
            1 + w,
        );
    }
    tr.exit();

    tally.sweep_ns += sweep_ns;
    let first = round == 0;
    let mut jobs = 0u64;
    // The sweep's wall time is scaled by its workers' factors, weighted by
    // the time each cell took.
    let (mut cell_wall, mut cell_scaled) = (0.0, 0.0);
    for r in runs {
        let c = &cells[r.cell];
        let label = format!("cell {}", set * CELLS + r.cell);
        if first {
            out.attempted += 1;
        }
        let ns = r.end.saturating_duration_since(r.start).as_nanos() as u64;
        req.latency_at(set * CELLS + r.cell, ns, r.factor);
        cell_wall += ns as f64;
        cell_scaled += ns as f64 * r.factor;
        tally.cell_ns += ns;
        let res = match r.result {
            Ok(res) => res,
            Err(e) => {
                out.failed += u64::from(first);
                out.check(false, || format!("{label}: {e}"));
                continue;
            }
        };
        jobs += res.outcomes.len() as u64;
        tally.jobs += res.outcomes.len() as u64;
        tally.reservations += res.reservations.len() as u64;
        tally.hdv += res.head_delay_violations;
        if c.faulty {
            add_faults(out, &res.fault_stats);
        }
        check_outcomes(&label, &res.outcomes, &c.submits, out);
        let in_order = res.outcomes.iter().zip(&c.jobs).all(|(o, j)| o.id == j.id);
        out.check(in_order, || {
            format!("{label}: outcomes are not in input order")
        });
        check_head_delays(&label, res.head_delay_violations, c.faulty, first, out);
        if !c.faulty {
            // Conservative reservations only ever move earlier: no job
            // starts after the start it was first quoted.
            for &(job, quoted) in &res.reservations {
                let start = res.outcomes.get(job).map_or(f64::NAN, |o| o.start);
                out.check(start <= quoted + 1e-6, || {
                    format!("{label}: job {job} started at {start}, quoted {quoted}")
                });
            }
        }
        let d = outcome_digest(&res.outcomes);
        match digests[r.cell] {
            None => digests[r.cell] = Some(d),
            Some(p) => out.check(p == d, || {
                format!("{label}: outcomes changed between rounds")
            }),
        }
    }
    // The sweep is the unit of throughput: its two workers run at once.
    req.busy_at(set, sweep_ns, cell_scaled / cell_wall.max(1.0), jobs);
}

pub fn run_conservative(args: &Args, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    tr.enter("run");
    let mut timer = SetupTimer::new(args.seconds);
    let cells = timer.build(tr, |tr| conservative_setup(args.seed, tr));
    let mut digests = vec![None; cells.len()];
    let sweep_set = |round: usize,
                     set: usize,
                     digests: &mut [Option<u64>],
                     tr: &mut Tracer,
                     req: &mut Requests,
                     tally: &mut BatchTally,
                     out: &mut Outcome| {
        let range = set * CELLS..(set + 1) * CELLS;
        conservative_sweep(
            round,
            set,
            &cells[range.clone()],
            &mut digests[range],
            tr,
            req,
            tally,
            out,
        );
    };
    let mut req = Requests::new(BATCH_SETS * CELLS, BATCH_SETS);
    let mut tally = BatchTally::default();
    tr.enter("bench.timed");
    let rounds = run_rounds(args.seconds, |round| {
        for set in 0..BATCH_SETS {
            sweep_set(round, set, &mut digests, tr, &mut req, &mut tally, out);
            timer.maybe_rebuild(tr, |tr| conservative_setup(args.seed, tr));
        }
    });
    req.rounds = rounds;
    tr.exit();
    out.setup_s = timer.finish(tr, |tr| conservative_setup(args.seed, tr));
    let per_round = 1.0 / rounds as f64;
    for name in [
        "faults.crashes",
        "faults.kills",
        "faults.requeues",
        "faults.drains",
        "faults.repairs",
    ] {
        let v = out.layers.get(name).copied().unwrap_or(0.0);
        out.set(name, v * per_round);
    }
    out.set("sched.batch_s", tally.cell_ns as f64 * 1e-9 * per_round);
    out.set("sched.batch_jobs", tally.jobs as f64 * per_round);
    out.set("sched.reservations", tally.reservations as f64 * per_round);
    out.set("sched.head_delay_violations", tally.hdv as f64 * per_round);
    out.set("sweep.cells", (BATCH_SETS * CELLS) as f64);
    out.set("sweep.cell_busy_s", tally.cell_ns as f64 * 1e-9 * per_round);
    out.set(
        "sweep.worker_idle_frac",
        1.0 - tally.cell_ns as f64 / (SWEEP_WORKERS as f64 * tally.sweep_ns.max(1) as f64),
    );

    tr.enter("bench.check");
    for (label, c) in [("cell 0 (crashes)", &cells[0]), ("cell 1", &cells[1])] {
        check_prefix(label, c.jobs[..BATCH_JOBS / 2].to_vec(), &c.cfg, tr, out);
    }
    tr.exit();
    tr.exit();

    out.requests = req;
    // 128 distinct cells: p90 keeps twelve beyond it.
    out.tail_pct = 0.9;
    if tr.is_on() {
        let mut off = Tracer::new(false);
        let mut req = Requests::new(BATCH_SETS * CELLS, BATCH_SETS);
        let mut scratch = Outcome::default();
        run_rounds(args.seconds, |round| {
            for set in 0..BATCH_SETS {
                sweep_set(
                    round + 1,
                    set,
                    &mut digests,
                    &mut off,
                    &mut req,
                    &mut BatchTally::default(),
                    &mut scratch,
                );
            }
        });
        out.failures.extend(scratch.failures);
        out.untraced_throughput = Some(req.throughput());
    }
    Ok(())
}
