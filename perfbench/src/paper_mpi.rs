//! `paper-mpi`: the paper's experiment matrix on the MPI engine.
//!
//! NPB class B kernels, MetUM N320L70 and Chaste on vayu, dcc and ec2, each
//! with its own seeded `SimConfig` jitter. Every third matrix entry goes
//! through `sim_ipm::profile_run` (the Table II/III path); the rest call
//! `run_job` with `NullSink`, so the `ProfSink::enabled` gate is exercised
//! both ways. The matrix is trimmed from the paper's rank counts (see
//! NOTES.md) so that one round, the matrix under each jitter seed set,
//! takes a few seconds.

use crate::harness::{run_rounds, Args, Outcome, Requests, SetupTimer};
use crate::replay;
use crate::trace::Tracer;
use sim_advisor::sim_result_digest;
use sim_mpi::{
    run_job, CollOp, CollTopo, JobSpec, MpiKind, NullSink, ProfEvent, ProfSink, SimConfig,
    SimResult,
};
use sim_platform::{presets, ClusterSpec, Placement, Strategy};
use std::collections::HashMap;
use workloads::{Chaste, Class, Kernel, MetUm, Npb, Workload};

/// NPB rank counts: legal for every kernel (BT and SP need squares).
const NPB_NPS: [usize; 2] = [4, 16];
const METUM_NPS: [usize; 2] = [16, 32];
const CHASTE_NPS: [usize; 1] = [16];
/// Every `PROFILE_EVERY`-th matrix entry runs under the IPM profiler.
const PROFILE_EVERY: usize = 3;
/// Jitter seeds per entry; each round runs the matrix once per seed set.
/// One set keeps a round near a second, so every run gets fifteen or more
/// repeats of each entry.
const SEED_SETS: usize = 1;

struct Entry {
    label: String,
    cluster: usize,
    np: usize,
    profiled: bool,
    cfg: SimConfig,
    seeds: [u64; SEED_SETS],
    job: JobSpec,
    placement: Placement,
}

struct Setup {
    entries: Vec<Entry>,
    build_s: f64,
    place_s: f64,
}

fn matrix() -> Vec<(Box<dyn Workload>, usize)> {
    let mut m: Vec<(Box<dyn Workload>, usize)> = Vec::new();
    for k in Kernel::all() {
        for np in NPB_NPS {
            m.push((Box::new(Npb::new(k, Class::B)), np));
        }
    }
    for np in METUM_NPS {
        m.push((Box::new(MetUm::default()), np));
    }
    for np in CHASTE_NPS {
        m.push((Box::new(Chaste::default()), np));
    }
    m
}

fn setup(seed: u64, clusters: &[ClusterSpec], tr: &mut Tracer) -> Result<Setup, String> {
    let mut entries = Vec::new();
    let (mut build_ns, mut place_ns) = (0u64, 0u64);
    for (ci, c) in clusters.iter().enumerate() {
        for (w, np) in matrix() {
            // The advisor's placement policy: memory-aware packing on EC2
            // for codes that declare a footprint.
            let mem = w.memory_per_rank_bytes(np);
            let strategy = if mem > 0 && c.name == "ec2" {
                Strategy::BlockMemoryAware {
                    per_rank_bytes: mem,
                }
            } else {
                Strategy::Block
            };
            let (job, ns) = tr.timed("workloads.build", || w.build(np));
            build_ns += ns;
            let (placement, ns) = tr.timed("platform.place", || c.place(np, strategy));
            place_ns += ns;
            let placement =
                placement.map_err(|e| format!("{} np={np} on {}: {e}", w.name(), c.name))?;
            let idx = entries.len();
            entries.push(Entry {
                label: format!("{}@{}/np{np}", w.name(), c.name),
                cluster: ci,
                np,
                profiled: idx % PROFILE_EVERY == 0,
                cfg: SimConfig {
                    strategy,
                    ..SimConfig::default()
                },
                seeds: std::array::from_fn(|k| sim_sweep::cell_seed(seed, (k * 1000 + idx) as u64)),
                job,
                placement,
            });
        }
    }
    Ok(Setup {
        entries,
        build_s: build_ns as f64 * 1e-9,
        place_s: place_ns as f64 * 1e-9,
    })
}

/// Checks that hold for any seed on one fault-free run's result.
fn check_result(e: &Entry, res: &SimResult, out: &mut Outcome) {
    let elapsed = res.elapsed_secs();
    out.check(elapsed.is_finite() && elapsed > 0.0, || {
        format!("{}: elapsed {elapsed} is not finite and positive", e.label)
    });
    out.check(res.ranks.len() == e.np, || {
        format!("{}: {} rank ledgers", e.label, res.ranks.len())
    });
    for (r, t) in res.ranks.iter().enumerate() {
        let parts = t.comp + t.comm + t.io + t.fault;
        out.check(parts <= t.wall && t.wall <= res.elapsed, || {
            format!(
                "{} rank {r}: comp+comm+io+fault {parts} <= wall {} <= elapsed {} fails",
                e.label, t.wall, res.elapsed
            )
        });
    }
    let pct = res.comm_pct();
    out.check((0.0..=100.0).contains(&pct), || {
        format!("{}: comm% {pct}", e.label)
    });
    out.check(res.placement == e.placement, || {
        format!("{}: placement differs from setup", e.label)
    });
    out.check(res.restarts == 0 && res.fault_total_secs() == 0.0, || {
        format!("{}: fault activity in a fault-free run", e.label)
    });
}

/// Counts MPI calls by kind and payload; observation only.
#[derive(Default)]
struct CountingSink {
    msgs: u64,
    msg_bytes: u64,
    colls: u64,
    p2p: HashMap<u64, u64>,
    coll: HashMap<(MpiKind, u64), u64>,
}

impl ProfSink for CountingSink {
    fn on_event(&mut self, _rank: usize, ev: ProfEvent) {
        if let ProfEvent::Mpi { kind, bytes, .. } = ev {
            if kind.is_collective() {
                self.colls += 1;
                *self.coll.entry((kind, bytes)).or_insert(0) += 1;
            } else {
                self.msgs += 1;
                self.msg_bytes += bytes;
                *self.p2p.entry(bytes).or_insert(0) += 1;
            }
        }
    }
}

fn coll_op(kind: MpiKind, bytes: u64) -> Option<CollOp> {
    let bytes = bytes as usize;
    Some(match kind {
        MpiKind::Barrier => CollOp::Barrier,
        MpiKind::Bcast => CollOp::Bcast { root: 0, bytes },
        MpiKind::Reduce => CollOp::Reduce { root: 0, bytes },
        MpiKind::Allreduce => CollOp::Allreduce { bytes },
        MpiKind::Allgather => CollOp::Allgather {
            bytes_per_rank: bytes,
        },
        MpiKind::Alltoall => CollOp::Alltoall {
            bytes_per_pair: bytes,
        },
        MpiKind::Gather => CollOp::Gather {
            root: 0,
            bytes_per_rank: bytes,
        },
        MpiKind::Scatter => CollOp::Scatter {
            root: 0,
            bytes_per_rank: bytes,
        },
        MpiKind::Send | MpiKind::Recv | MpiKind::Sendrecv => return None,
    })
}

/// Tallies of the timed phase, summed over rounds.
#[derive(Default)]
struct Tally {
    run_job_ns: u64,
    run_job_ops: u64,
    profile_ns: u64,
    /// Profiled time per entry, summed over rounds.
    profile_ns_by_entry: HashMap<usize, u64>,
}

/// Run every matrix entry once with seed set `set`. Operations are
/// counted in round 0 only; later rounds repeat them for timing.
#[allow(clippy::too_many_arguments)]
fn run_matrix(
    round: usize,
    set: usize,
    entries: &mut [Entry],
    clusters: &[ClusterSpec],
    first: &mut [Option<(u64, u64)>],
    tr: &mut Tracer,
    req: &mut Requests,
    tally: &mut Tally,
    out: &mut Outcome,
) {
    let n = entries.len();
    for (i, e) in entries.iter_mut().enumerate() {
        let c = &clusters[e.cluster];
        e.cfg.seed = e.seeds[set];
        if round == 0 {
            out.attempted += 1;
        }
        let (res, ns) = if e.profiled {
            let (r, ns) = tr.timed("ipm.profile_run", || {
                sim_ipm::profile_run(&mut e.job, c, &e.cfg)
            });
            tally.profile_ns += ns;
            *tally.profile_ns_by_entry.entry(i).or_insert(0) += ns;
            let r = r.map(|(res, rep)| {
                let pct = rep.global.comm_pct();
                out.check((0.0..=100.0).contains(&pct), || {
                    format!("{}: IPM comm% {pct}", e.label)
                });
                res
            });
            (r, ns)
        } else {
            let (r, ns) = tr.timed("mpisim.run_job", || {
                run_job(&mut e.job, c, &e.cfg, &mut NullSink)
            });
            if let Ok(res) = &r {
                tally.run_job_ns += ns;
                tally.run_job_ops += res.ops_executed;
            }
            (r, ns)
        };
        match res {
            Ok(res) => {
                req.record(set * n + i, ns, res.ops_executed);
                check_result(e, &res, out);
                let d = (sim_result_digest(&res), res.ops_executed);
                match first[set * n + i] {
                    None => first[set * n + i] = Some(d),
                    Some(f) => out.check(f == d, || {
                        format!("{}: result changed between rounds", e.label)
                    }),
                }
            }
            Err(err) => {
                if round == 0 {
                    out.failed += 1;
                }
                out.check(false, || format!("{}: {err}", e.label));
            }
        }
    }
}

pub fn run(args: &Args, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let clusters = [presets::vayu(), presets::dcc(), presets::ec2()];
    tr.enter("run");
    let mut timer = SetupTimer::new(args.seconds);
    let mut s = timer.build(tr, |tr| setup(args.seed, &clusters, tr))?;
    out.set("workloads.build_s", s.build_s);
    out.set("workloads.builds", s.entries.len() as f64);
    out.set("platform.place_s", s.place_s);

    let mut first = vec![None; SEED_SETS * s.entries.len()];
    let mut req = Requests::new(SEED_SETS * s.entries.len(), SEED_SETS * s.entries.len());
    let mut tally = Tally::default();
    tr.enter("bench.timed");
    let rounds = run_rounds(args.seconds, |round| {
        for set in 0..SEED_SETS {
            run_matrix(
                round,
                set,
                &mut s.entries,
                &clusters,
                &mut first,
                tr,
                &mut req,
                &mut tally,
                out,
            );
            timer.maybe_rebuild(tr, |tr| setup(args.seed, &clusters, tr));
        }
    });
    req.rounds = rounds;
    tr.exit();
    out.setup_s = timer.finish(tr, |tr| setup(args.seed, &clusters, tr));
    let per_round = 1.0 / rounds as f64;
    out.set(
        "mpisim.run_job_s",
        tally.run_job_ns as f64 * 1e-9 * per_round,
    );
    out.set("mpisim.ops", req.work_per_round() as f64);
    out.set(
        "mpisim.ns_per_op",
        tally.run_job_ns as f64 / tally.run_job_ops.max(1) as f64,
    );
    out.set(
        "ipm.profile_run_s",
        tally.profile_ns as f64 * 1e-9 * per_round,
    );

    // Output checks: the engine's own op count, and a same-seed rerun of
    // every entry that must reproduce the timed phase's digest.
    tr.enter("bench.check");
    let mut null_ns_profiled = 0u64;
    let mut profiled_ns = 0u64;
    let mut counts: Vec<CountingSink> = Vec::new();
    for (i, e) in s.entries.iter_mut().enumerate() {
        let c = &clusters[e.cluster];
        e.cfg.seed = e.seeds[0];
        let Some((digest, ops)) = first[i] else {
            continue;
        };
        let (total, _) = tr.timed("mpisim.total_ops", || e.job.total_ops());
        out.check(total == ops, || {
            format!("{}: executed {ops} ops of {total}", e.label)
        });
        let (r, ns) = tr.timed("mpisim.run_job", || {
            run_job(&mut e.job, c, &e.cfg, &mut NullSink)
        });
        match r {
            Ok(res) => out.check(sim_result_digest(&res) == digest, || {
                format!("{}: same-seed rerun digest differs", e.label)
            }),
            Err(err) => out.check(false, || format!("{}: rerun failed: {err}", e.label)),
        }
        if e.profiled {
            null_ns_profiled += ns;
            profiled_ns += tally.profile_ns_by_entry.get(&i).copied().unwrap_or(0);
        }
        if tr.is_on() {
            let mut sink = CountingSink::default();
            let (r, _) = tr.timed("mpisim.run_job", || {
                run_job(&mut e.job, c, &e.cfg, &mut sink)
            });
            match r {
                Ok(res) => out.check(sim_result_digest(&res) == digest, || {
                    format!("{}: counting sink changed the result", e.label)
                }),
                Err(err) => out.check(false, || {
                    format!("{}: counted rerun failed: {err}", e.label)
                }),
            }
            counts.push(sink);
        }
    }
    tr.exit();
    if null_ns_profiled > 0 {
        // Profiled time per run of each entry: rounds times seed sets.
        let profiled_per_run = profiled_ns as f64 * per_round / SEED_SETS as f64;
        out.set(
            "ipm.overhead_frac",
            profiled_per_run / null_ns_profiled as f64 - 1.0,
        );
    }

    if tr.is_on() {
        let (msgs, bytes, colls) = counts.iter().fold((0, 0, 0), |(m, b, c), k| {
            (m + k.msgs, b + k.msg_bytes, c + k.colls)
        });
        out.set("mpisim.msgs", msgs as f64);
        out.set("mpisim.msg_bytes", bytes as f64);
        out.set("mpisim.colls", colls as f64);
        replays(&s.entries, &clusters, &counts, &first, tr, out);
    }
    tr.exit();

    out.requests = req;
    // 57 distinct runs: p80 keeps eleven beyond it.
    out.tail_pct = 0.8;
    if tr.is_on() {
        // Untraced repeat of the timed phase, for the tracing overhead.
        let mut off = Tracer::new(false);
        let mut req = Requests::new(SEED_SETS * s.entries.len(), SEED_SETS * s.entries.len());
        let mut scratch = Outcome::default();
        run_rounds(args.seconds, |round| {
            for set in 0..SEED_SETS {
                run_matrix(
                    round + 1,
                    set,
                    &mut s.entries,
                    &clusters,
                    &mut first,
                    &mut off,
                    &mut req,
                    &mut Tally::default(),
                    &mut scratch,
                );
            }
        });
        out.failures.extend(scratch.failures);
        out.untraced_throughput = Some(req.throughput());
    }
    Ok(())
}

/// Replay the engine's inner layers with the call mix the counting sink
/// saw: the event queue at each entry's rank count and op count, the
/// point-to-point cost functions over the message-size histogram, and the
/// collective cost model over the collective mix on each entry's layout.
fn replays(
    entries: &[Entry],
    clusters: &[ClusterSpec],
    counts: &[CountingSink],
    first: &[Option<(u64, u64)>],
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    let queue_mix: Vec<(usize, u64)> = entries
        .iter()
        .zip(first)
        .filter_map(|(e, f)| f.map(|(_, ops)| (e.np, ops)))
        .collect();
    let (ns, _) = tr.timed("des.replay_event_queue", || replay::event_queue(&queue_mix));
    out.set("des.queue_ns_per_op", ns);

    let mut p2p = Vec::new();
    let mut coll = Vec::new();
    for (e, k) in entries.iter().zip(counts) {
        let c = &clusters[e.cluster];
        let multi_node = e.placement.nodes_used() > 1;
        let fabric = if multi_node {
            &c.topology.inter
        } else {
            &c.topology.intra
        };
        let mut sizes: Vec<(u64, u64)> = k.p2p.iter().map(|(&b, &n)| (b, n)).collect();
        sizes.sort_unstable();
        p2p.extend(sizes.into_iter().map(|(b, n)| (fabric, b as usize, n)));
        let topo = CollTopo {
            inter: &c.topology.inter,
            intra: &c.topology.intra,
            np: e.np,
            ppn: e
                .placement
                .ranks_per_node
                .iter()
                .copied()
                .max()
                .unwrap_or(1),
            nodes_used: e.placement.nodes_used(),
            cpu_factor: 1.0,
        };
        let mut ops: Vec<(CollOp, u64)> = k
            .coll
            .iter()
            .filter_map(|(&(kind, b), &n)| coll_op(kind, b).map(|op| (op, n)))
            .collect();
        ops.sort_by_key(|(op, _)| format!("{op:?}"));
        coll.extend(ops.into_iter().map(|(op, n)| (topo.clone(), op, n)));
    }
    let (ns, _) = tr.timed("netsim.replay_cost", || replay::p2p_cost(&p2p));
    out.set("netsim.cost_ns_per_call", ns);
    let (ns, _) = tr.timed("mpisim.replay_coll_cost", || replay::coll_cost(&coll));
    out.set("mpisim.coll_cost_ns", ns);
}
