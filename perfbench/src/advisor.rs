//! `advisor-zipf`: one closed-loop client querying the advisor service.
//!
//! Queries are class-S NPB questions (kernel × legal rank count ×
//! platform × seed variant), drawn by a Zipf law whose rank order is a
//! seeded, stratified shuffle, so popularity is unrelated to a query's cost. The
//! verdict cache holds fewer entries than there are distinct queries, so
//! misses both insert and evict while hits are served. The service starts
//! warm from `CLDSNAP1` snapshot bytes. A fixed 1% of queries ask for a
//! rank count the kernel cannot run; they must be refused.
//!
//! Every round starts a fresh service from the snapshot and replays the
//! same query stream, so each round makes the same hits and misses and
//! every query position keeps its fastest time over the rounds.

use crate::harness::{median, quantile, run_rounds, Args, Fnv, Outcome, Requests, SetupTimer};
use crate::trace::Tracer;
use sim_advisor::{
    decode_snapshot, engine_fingerprint, AdvisorService, PlatformId, Query, Verdict, WorkloadId,
};
use sim_des::DetRng;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use workloads::{Class, Kernel};

/// Cache geometry: 8 stripes × 16 entries, fewer than the distinct queries.
const CACHE_SHARDS: usize = 8;
const SHARD_CAPACITY: usize = 16;
const MAX_NP: usize = 16;
const SEED_VARIANTS: u64 = 3;
const ZIPF_EXPONENT: f64 = 1.0;
/// Queries per round, drawn once per seed.
const STREAM_LEN: usize = 4_000;
/// Every `INVALID_EVERY`-th query asks for an illegal rank count.
const INVALID_EVERY: usize = 100;
/// Rank counts the kernels cannot run (`Kernel::valid_np` rejects them).
const INVALID: [(Kernel, u32); 4] = [
    (Kernel::Bt, 8),
    (Kernel::Sp, 2),
    (Kernel::Cg, 12),
    (Kernel::Lu, 24),
];
/// Entries in the warm-start snapshot: the hottest queries.
const WARM_ENTRIES: usize = 64;
/// Distinct answered queries re-evaluated without the cache in the checks.
const SAMPLES: usize = 48;

fn is_invalid(i: usize) -> bool {
    i % INVALID_EVERY == INVALID_EVERY / 2
}

/// Distinct valid queries in popularity order (most popular first).
///
/// The order is a seeded, stratified shuffle: the (kernel, np) classes are
/// shuffled, and rank `r` takes the next member of class `r % classes`. So
/// popularity is unrelated to a query's cost, yet every class is spread
/// evenly over the ranks, and the cost of the misses in the Zipf tail does
/// not swing with the seed.
fn ranked_universe(seed: u64) -> Vec<Query> {
    let mut rng = DetRng::new(seed, 0x21FF);
    let mut shuffle = |v: &mut Vec<Query>| {
        for i in (1..v.len()).rev() {
            v.swap(i, rng.index(i + 1));
        }
    };
    let mut classes: Vec<Vec<Query>> = Vec::new();
    for kernel in Kernel::all() {
        for np in kernel
            .paper_np_sweep()
            .into_iter()
            .filter(|&np| np <= MAX_NP)
        {
            let w = WorkloadId::Npb {
                kernel,
                class: Class::S,
            };
            let mut members = Vec::new();
            for platform in PlatformId::ALL {
                for v in 0..SEED_VARIANTS {
                    let seed = sim_sweep::cell_seed(seed, v);
                    members.push(Query::new(w, platform, np as u32).with_seed(seed));
                }
            }
            shuffle(&mut members);
            classes.push(members);
        }
    }
    let mut order: Vec<usize> = (0..classes.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.index(i + 1));
    }
    let per_class = classes[0].len();
    (0..classes.len() * per_class)
        .map(|r| classes[order[r % order.len()]][r / order.len()])
        .collect()
}

/// The round's queries. Valid queries are drawn by stratified sampling of
/// the Zipf law (draw `k` of `n` falls in the `k`-th `n`-quantile), then
/// shuffled: every rank appears as often as its probability says, to
/// within one, so the number and cost of the misses do not swing with the
/// seed's sampling luck. Every `INVALID_EVERY`-th position is an illegal
/// rank count.
fn query_stream(seed: u64, ranked: &[Query]) -> Vec<Query> {
    let mut cdf = Vec::with_capacity(ranked.len());
    let mut acc = 0.0;
    for r in 1..=ranked.len() {
        acc += 1.0 / (r as f64).powf(ZIPF_EXPONENT);
        cdf.push(acc);
    }
    let mut rng = DetRng::new(seed, 0x21F0);
    let valid_len = (0..STREAM_LEN).filter(|&i| !is_invalid(i)).count();
    let mut valid: Vec<Query> = (0..valid_len)
        .map(|k| {
            let x = (k as f64 + rng.uniform()) / valid_len as f64 * acc;
            ranked[cdf.partition_point(|&c| c < x).min(ranked.len() - 1)]
        })
        .collect();
    for i in (1..valid.len()).rev() {
        valid.swap(i, rng.index(i + 1));
    }
    let mut valid = valid.into_iter();
    (0..STREAM_LEN)
        .map(|i| {
            if is_invalid(i) {
                let (kernel, np) = INVALID[(i / INVALID_EVERY) % INVALID.len()];
                let platform = PlatformId::ALL[(i / INVALID_EVERY) % PlatformId::ALL.len()];
                Query::new(
                    WorkloadId::Npb {
                        kernel,
                        class: Class::S,
                    },
                    platform,
                    np,
                )
            } else {
                valid.next().expect("one valid draw per valid position")
            }
        })
        .collect()
}

/// Verdict fields must be finite; times, node counts and prices positive,
/// shares within their ranges. Shares are 0 for single-rank runs, and the
/// imbalance of perfectly balanced ranks comes out a rounding error below
/// 0 (-1.3e-14 for EP on 8 vayu ranks), so percentages may undershoot 0 by
/// `ROUNDING_PCT`.
fn verdict_ok(v: &Verdict) -> bool {
    const ROUNDING_PCT: f64 = 1e-9;
    let pct = |x: f64| x.is_finite() && (-ROUNDING_PCT..=100.0).contains(&x);
    v.elapsed_secs.is_finite()
        && v.elapsed_secs > 0.0
        && v.nodes >= 1
        && v.on_demand_cost.is_finite()
        && v.on_demand_cost > 0.0
        && v.spot_cost.is_finite()
        && v.spot_cost > 0.0
        && pct(v.comm_pct)
        && pct(v.io_pct)
        && pct(v.imbalance_pct)
        && v.collective_frac.is_finite()
        && (0.0..=1.0).contains(&v.collective_frac)
}

struct Setup {
    svc: AdvisorService,
    stream: Vec<Query>,
    load_s: f64,
}

fn setup(seed: u64, snapshot: &[u8], tr: &mut Tracer) -> Result<Setup, String> {
    let ((ranked, stream), _) = tr.timed("bench.query_stream", || {
        let ranked = ranked_universe(seed);
        let stream = query_stream(seed, &ranked);
        (ranked, stream)
    });
    black_box(ranked);
    let svc = AdvisorService::with_capacity(CACHE_SHARDS, SHARD_CAPACITY);
    let (loaded, ns) = tr.timed("advisor.load_snapshot_bytes", || {
        svc.load_snapshot_bytes(snapshot)
    });
    // A stripe that drew more than its share of the hottest queries kept
    // only its most recent ones, so the snapshot can hold fewer entries
    // than were evaluated; it may not be empty.
    let n = loaded.map_err(|e| format!("warm-start snapshot refused: {e}"))?;
    if n == 0 {
        return Err("warm-start snapshot is empty".to_string());
    }
    Ok(Setup {
        svc,
        stream,
        load_s: ns as f64 * 1e-9,
    })
}

/// Closed-loop client state carried across the timed phase.
#[derive(Default)]
struct Client {
    /// Sort latencies into hits and misses (reads the cache counters around
    /// every query, so traced runs only).
    classify: bool,
    panics: u64,
    hit_ns: Vec<u64>,
    miss_ns: Vec<u64>,
    samples: Vec<(Query, Verdict)>,
    /// Hits, misses and answer digest of the first round; every later
    /// round must reproduce them.
    first: Option<(u64, u64, u64)>,
}

/// One round: the whole query stream against a freshly warmed service.
/// Operations are counted in round 0 only; later rounds repeat them for
/// timing.
fn query_round(
    round: usize,
    s: &Setup,
    client: &mut Client,
    tr: &mut Tracer,
    req: &mut Requests,
    out: &mut Outcome,
) {
    let first = round == 0;
    let stats0 = s.svc.stats();
    let mut answers = Fnv::new();
    for (i, q) in s.stream.iter().enumerate() {
        let hits_before = if client.classify {
            s.svc.stats().hits
        } else {
            0
        };
        let (r, ns) = tr.timed("advisor.evaluate", || {
            catch_unwind(AssertUnwindSafe(|| s.svc.evaluate(q)))
        });
        req.record(i, ns, 1);
        if first {
            out.attempted += 1;
        }
        match r {
            Ok(Ok(v)) if !is_invalid(i) => {
                answers.word(v.content_digest());
                out.check(verdict_ok(&v), || format!("query {q:?}: verdict {v:?}"));
                if first
                    && client.samples.len() < SAMPLES
                    && client.samples.iter().all(|(p, _)| p != q)
                {
                    client.samples.push((*q, v));
                }
                if client.classify {
                    if s.svc.stats().hits > hits_before {
                        client.hit_ns.push(ns);
                    } else {
                        client.miss_ns.push(ns);
                    }
                }
            }
            Ok(Ok(v)) => out.check(false, || format!("invalid query {q:?} was answered: {v:?}")),
            Ok(Err(_)) | Err(_) if is_invalid(i) => {
                answers.word(u64::MAX);
                if first {
                    out.refused += 1;
                    client.panics += u64::from(r.is_err());
                }
            }
            Ok(Err(e)) => {
                out.failed += u64::from(first);
                out.check(false, || format!("query {q:?}: {e}"));
            }
            Err(_) => {
                out.failed += u64::from(first);
                out.check(false, || format!("query {q:?} panicked"));
            }
        }
    }
    let stats1 = s.svc.stats();
    let this = (
        stats1.hits - stats0.hits,
        stats1.misses - stats0.misses,
        answers.0,
    );
    match client.first {
        None => client.first = Some(this),
        Some(f) => out.check(f == this, || {
            format!("round {round}: (hits, misses, answers) {this:?}, round 0 gave {f:?}")
        }),
    }
}

pub fn run(args: &Args, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    tr.enter("run");
    // The warm-start snapshot stands for a cache shipped with the service:
    // it is built once from the hottest queries and not counted in set-up.
    tr.enter("bench.fixture");
    let donor = AdvisorService::with_capacity(CACHE_SHARDS, SHARD_CAPACITY);
    for q in ranked_universe(args.seed).iter().take(WARM_ENTRIES) {
        let (r, _) = tr.timed("advisor.evaluate", || donor.evaluate(q));
        r.map_err(|e| format!("warm-start query {q:?}: {e}"))?;
    }
    let snapshot = donor.snapshot_bytes();
    drop(donor);
    tr.exit();

    // Set-up is the query stream and the warm start; every round starts
    // from a fresh one, so every round is a set-up sample.
    let mut load_times = Vec::new();
    let mut build = |tr: &mut Tracer| {
        let s = setup(args.seed, &snapshot, tr);
        if let Ok(s) = &s {
            load_times.push(s.load_s);
        }
        s
    };
    let mut timer = SetupTimer::new(args.seconds);
    let mut client = Client {
        classify: tr.is_on(),
        ..Client::default()
    };
    let mut req = Requests::new(STREAM_LEN, STREAM_LEN);
    let mut last: Option<Setup> = None;
    let mut setup_err = None;
    tr.enter("bench.timed");
    let rounds = quiet_panics(|| {
        run_rounds(args.seconds, |round| match timer.build(tr, &mut build) {
            Ok(s) => {
                query_round(round, &s, &mut client, tr, &mut req, out);
                last = Some(s);
            }
            Err(e) => setup_err = Some(e),
        })
    });
    tr.exit();
    if let Some(e) = setup_err {
        return Err(e);
    }
    let s = last.ok_or("no round ran")?;
    req.rounds = rounds;
    out.setup_s = timer.finish(tr, &mut build);
    out.set("advisor.snapshot_load_s", median(&mut load_times));
    out.set("advisor.snapshot_bytes", snapshot.len() as f64);
    // Cache and program counters of the last round, which repeats the first.
    let stats = s.svc.stats();
    let prog = s.svc.program_stats();
    out.set("advisor.hits", stats.hits as f64);
    out.set("advisor.misses", stats.misses as f64);
    out.set(
        "advisor.hit_ratio",
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
    );
    out.set("advisor.evictions", stats.evictions as f64);
    out.set("advisor.collisions", stats.collisions as f64);
    out.set("advisor.programs_built", prog.built as f64);
    out.set("advisor.programs_reused", prog.reused as f64);
    out.set("workloads.builds", prog.built as f64);
    out.set("advisor.refused", out.refused as f64);
    out.set("advisor.panics", client.panics as f64);
    for (name, ns) in [
        ("advisor.hit_p50_us", &mut client.hit_ns),
        ("advisor.miss_p50_us", &mut client.miss_ns),
    ] {
        ns.sort_unstable();
        out.set(name, quantile(ns, 0.5) * 1e-3);
    }

    tr.enter("bench.check");
    for (q, v) in &client.samples {
        let (r, _) = tr.timed("advisor.evaluate_uncached", || s.svc.evaluate_uncached(q));
        match r {
            Ok(u) => out.check(u == *v && u.content_digest() == v.content_digest(), || {
                format!("query {q:?}: cached {v:?} but uncached {u:?}")
            }),
            Err(e) => out.check(false, || {
                format!("query {q:?}: uncached evaluation failed: {e}")
            }),
        }
    }
    check_snapshot_round_trip(&s.svc, tr, out);
    tr.exit();

    if tr.is_on() {
        layer_replays(&s, prog.built, tr, out);
    }
    tr.exit();

    out.requests = req;
    // 4000 distinct queries: p99 keeps forty beyond it.
    out.tail_pct = 0.99;
    if tr.is_on() {
        let mut off = Tracer::new(false);
        let mut req = Requests::new(STREAM_LEN, STREAM_LEN);
        let mut scratch = Outcome::default();
        client.classify = false;
        quiet_panics(|| {
            run_rounds(args.seconds, |round| {
                if let Ok(s) = setup(args.seed, &snapshot, &mut off) {
                    query_round(round + 1, &s, &mut client, &mut off, &mut req, &mut scratch);
                }
            })
        });
        out.failures.extend(scratch.failures);
        out.untraced_throughput = Some(req.throughput());
    }
    Ok(())
}

/// Run the client with panic messages off stderr: refused queries panic
/// inside the workload builder today, and `query_round` catches each one.
fn quiet_panics<R>(client: impl FnOnce() -> R) -> R {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = client();
    std::panic::set_hook(default_hook);
    r
}

/// The cache's snapshot must load into a fresh service and answer every
/// entry identically, from the cache, and re-serialise to the same bytes.
fn check_snapshot_round_trip(svc: &AdvisorService, tr: &mut Tracer, out: &mut Outcome) {
    let (bytes, _) = tr.timed("advisor.snapshot_bytes", || svc.snapshot_bytes());
    let entries = match decode_snapshot(&bytes, engine_fingerprint()) {
        Ok(e) => e,
        Err(e) => return out.check(false, || format!("snapshot does not decode: {e}")),
    };
    let fresh = AdvisorService::with_capacity(CACHE_SHARDS, SHARD_CAPACITY);
    let (loaded, _) = tr.timed("advisor.load_snapshot_bytes", || {
        fresh.load_snapshot_bytes(&bytes)
    });
    out.check(loaded.as_ref().ok() == Some(&entries.len()), || {
        format!("snapshot of {} entries loaded as {loaded:?}", entries.len())
    });
    for (q, v) in &entries {
        let (r, _) = tr.timed("advisor.evaluate", || fresh.evaluate(q));
        out.check(r.as_ref().ok() == Some(v), || {
            format!("query {q:?}: {v:?} before the round trip, {r:?} after")
        });
    }
    out.check(fresh.stats().misses == 0, || {
        "round-tripped snapshot missed".to_string()
    });
    out.check(fresh.snapshot_bytes() == bytes, || {
        "snapshot bytes changed in the round trip".to_string()
    });
}

/// Per-call costs of the advisor's hit path (canonical encoding and
/// content key) and of the workload builds behind its misses, timed by
/// replaying the calls over the query universe.
fn layer_replays(s: &Setup, builds: u64, tr: &mut Tracer, out: &mut Outcome) {
    const ROUNDS: usize = 200;
    let mut distinct: Vec<Query> = s.stream.iter().take(INVALID_EVERY * 10).copied().collect();
    distinct.sort_by_key(|q| q.key());
    distinct.dedup();
    distinct.retain(|q| {
        let WorkloadId::Npb { kernel, .. } = q.workload else {
            return false;
        };
        kernel.valid_np(q.np as usize)
    });
    let calls = (ROUNDS * distinct.len()).max(1) as f64;
    let (_, ns) = tr.timed("advisor.replay_encode", || {
        for _ in 0..ROUNDS {
            for q in &distinct {
                black_box(black_box(q).canonical_bytes());
            }
        }
    });
    out.set("advisor.encode_ns", ns as f64 / calls);
    let (_, ns) = tr.timed("advisor.replay_key", || {
        for _ in 0..ROUNDS {
            for q in &distinct {
                black_box(black_box(q).key());
            }
        }
    });
    out.set("advisor.key_ns", ns as f64 / calls);
    let (_, ns) = tr.timed("workloads.replay_build", || {
        for q in &distinct {
            black_box(q.workload.build(q.np as usize));
        }
    });
    out.set(
        "workloads.build_s",
        ns as f64 * 1e-9 / distinct.len().max(1) as f64 * builds as f64,
    );
}
