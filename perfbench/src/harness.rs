//! Command line, metric tables, timing helpers and the result line.

use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

/// How many times each workload builds its inputs; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 15;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub const WORKLOADS: [&str; 4] = [
    "paper-mpi",
    "sched-stream",
    "sched-conservative",
    "advisor-zipf",
];

const USAGE: &str =
    "usage: perfbench --workload <paper-mpi|sched-stream|sched-conservative|advisor-zipf> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        while let Some(flag) = it.next() {
            let val = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            let bad = || format!("bad value {val:?} for {flag}\n{USAGE}");
            match flag.as_str() {
                "--workload" => a.workload = val.clone(),
                "--seed" => a.seed = val.parse().map_err(|_| bad())?,
                "--seconds" => a.seconds = val.parse().map_err(|_| bad())?,
                "--trace" => {
                    a.trace = match val.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}\n{USAGE}")),
            }
        }
        if !WORKLOADS.contains(&a.workload.as_str()) {
            return Err(format!("unknown workload {:?}\n{USAGE}", a.workload));
        }
        if !(a.seconds.is_finite() && a.seconds > 0.0) {
            return Err(format!("--seconds must be positive\n{USAGE}"));
        }
        Ok(a)
    }
}

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them;
/// what a unit of work and a request are depends on the workload (see
/// NOTES.md).
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
];

/// Per-layer metrics: `(name, unit)`. A layer a workload never calls
/// reports 0.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("workloads.build_s", "s"),
    ("workloads.builds", "count"),
    ("workloads.self_s", "s"),
    ("platform.place_s", "s"),
    ("platform.self_s", "s"),
    ("mpisim.run_job_s", "s"),
    ("mpisim.ops", "count"),
    ("mpisim.ns_per_op", "ns"),
    ("mpisim.msgs", "count"),
    ("mpisim.msg_bytes", "B"),
    ("mpisim.colls", "count"),
    ("mpisim.coll_cost_ns", "ns"),
    ("mpisim.self_s", "s"),
    ("ipm.profile_run_s", "s"),
    ("ipm.overhead_frac", "ratio"),
    ("ipm.self_s", "s"),
    ("des.queue_ns_per_op", "ns"),
    ("des.self_s", "s"),
    ("netsim.cost_ns_per_call", "ns"),
    ("netsim.self_s", "s"),
    ("sched.stream_s", "s"),
    ("sched.batch_s", "s"),
    ("sched.burst_s", "s"),
    ("sched.stream_jobs", "count"),
    ("sched.batch_jobs", "count"),
    ("sched.burst_jobs", "count"),
    ("sched.peak_live_jobs", "count"),
    ("sched.reservations", "count"),
    ("sched.head_delay_violations", "count"),
    ("sched.slotset_ns_per_job", "ns"),
    ("sched.self_s", "s"),
    ("faults.crashes", "count"),
    ("faults.kills", "count"),
    ("faults.requeues", "count"),
    ("faults.drains", "count"),
    ("faults.repairs", "count"),
    ("sweep.cells", "count"),
    ("sweep.cell_busy_s", "s"),
    ("sweep.worker_idle_frac", "ratio"),
    ("sweep.self_s", "s"),
    ("advisor.hits", "count"),
    ("advisor.misses", "count"),
    ("advisor.hit_ratio", "ratio"),
    ("advisor.evictions", "count"),
    ("advisor.collisions", "count"),
    ("advisor.programs_built", "count"),
    ("advisor.programs_reused", "count"),
    ("advisor.hit_p50_us", "us"),
    ("advisor.miss_p50_us", "us"),
    ("advisor.encode_ns", "ns"),
    ("advisor.key_ns", "ns"),
    ("advisor.snapshot_load_s", "s"),
    ("advisor.snapshot_bytes", "B"),
    ("advisor.refused", "count"),
    ("advisor.panics", "count"),
    ("advisor.self_s", "s"),
    ("bench.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.covered_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.untraced_per_s", "1/s"),
];

/// Layers whose self time is reported as `<layer>.self_s`.
const SELF_TIME_LAYERS: [&str; 10] = [
    "workloads",
    "platform",
    "mpisim",
    "ipm",
    "des",
    "netsim",
    "sched",
    "sweep",
    "advisor",
    "bench",
];

/// The host's speed, from a fixed probe run between requests.
///
/// The host is shared, and other tenants' memory traffic slows this
/// process's memory-bound code by up to 1.6x for minutes at a time. CPU
/// time equals wall time meanwhile, so it is slower execution, not lost
/// turns, and no choice among a run's own samples can undo it. The probe is
/// the benchmark's own code, the same in every commit: it sorts 200,000
/// words (1.6 MB) and makes 20,000 binary searches in them, memory-bound
/// work like the simulators'. Each timing is scaled by `PROBE_NOMINAL_NS`
/// over the latest probe's time, that is, to a host on which the probe
/// takes 5 ms. A change to the program moves the scaled figures as it
/// moves wall time; a change in the host's speed is divided out.
pub mod host {
    use std::cell::{Cell, RefCell};
    use std::hint::black_box;
    use std::time::{Duration, Instant};

    /// The probe's time on the reference host, by definition.
    pub const PROBE_NOMINAL_NS: f64 = 5.0e6;
    /// Probe again when the latest probe is older than this; a probe
    /// costs about 2% of the run.
    const PROBE_EVERY: Duration = Duration::from_millis(300);
    const PROBE_WORDS: usize = 200_000;

    thread_local! {
        static LATEST: Cell<Option<(Instant, f64)>> = const { Cell::new(None) };
        static PROBES: Cell<(u64, f64)> = const { Cell::new((0, 0.0)) };
        /// The probe's words, allocated once so that probing adds a fixed
        /// amount to the peak resident memory.
        static WORDS: RefCell<Vec<u64>> = RefCell::new(vec![0; PROBE_WORDS]);
    }

    fn lcg(h: u64) -> u64 {
        h.wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407)
    }

    /// One probe, nanoseconds: fill the words from a fixed generator, sort
    /// them, and search them for a tenth as many generated keys.
    fn probe_ns() -> f64 {
        WORDS.with(|words| {
            let mut words = words.borrow_mut();
            let t = Instant::now();
            let mut h = 0x9E37_79B9_7F4A_7C15u64;
            for w in words.iter_mut() {
                h = lcg(h);
                *w = h;
            }
            words.sort_unstable();
            let mut found = 0usize;
            let mut k = 0x2545_F491_4F6C_DD1Du64;
            for _ in 0..PROBE_WORDS / 10 {
                k = lcg(k);
                found += usize::from(words.binary_search(&k).is_ok());
            }
            black_box(found);
            t.elapsed().as_nanos() as f64
        })
    }

    /// Probe if the latest probe is stale; call between requests.
    pub fn tick() {
        let stale = LATEST.with(|l| l.get().is_none_or(|(at, _)| at.elapsed() >= PROBE_EVERY));
        if stale {
            let ns = probe_ns();
            LATEST.with(|l| l.set(Some((Instant::now(), ns))));
            PROBES.with(|p| {
                let (n, sum) = p.get();
                p.set((n + 1, sum + ns));
            });
        }
    }

    /// Scale for a wall time measured since the latest probe.
    pub fn factor() -> f64 {
        if LATEST.with(|l| l.get()).is_none() {
            tick();
        }
        let ns = LATEST
            .with(|l| l.get())
            .map_or(PROBE_NOMINAL_NS, |(_, ns)| ns);
        PROBE_NOMINAL_NS / ns
    }

    /// `wall_ns` in reference-host nanoseconds.
    pub fn scaled(wall_ns: u64) -> f64 {
        wall_ns as f64 * factor()
    }

    /// Probes made on this thread and their mean time, nanoseconds.
    pub fn probes() -> (u64, f64) {
        let (n, sum) = PROBES.with(|p| p.get());
        (n, sum / n.max(1) as f64)
    }
}

/// Rounds a run makes at most: the per-request sample tables are sized
/// for this many up front, so that their memory does not grow with the
/// host's speed and `peak_rss_mb` does not either.
pub const MAX_ROUNDS: usize = 100;

/// Per-request samples, `MAX_ROUNDS` slots per request, written in full
/// when made.
#[derive(Default)]
struct Samples {
    slots: Vec<f32>,
    counts: Vec<u8>,
}

impl Samples {
    fn new(requests: usize) -> Samples {
        let mut s = Samples::default();
        s.grow(requests);
        s
    }

    fn grow(&mut self, requests: usize) {
        if self.counts.len() < requests {
            self.slots.resize(requests * MAX_ROUNDS, f32::NAN);
            self.counts.resize(requests, 0);
        }
    }

    fn push(&mut self, i: usize, x: f64) {
        self.grow(i + 1);
        let n = usize::from(self.counts[i]);
        if n < MAX_ROUNDS {
            self.slots[i * MAX_ROUNDS + n] = x as f32;
            self.counts[i] += 1;
        }
    }

    /// The median of each request that has samples, in request order.
    fn medians(&self) -> impl Iterator<Item = f64> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let start = i * MAX_ROUNDS;
                let mut v: Vec<f64> = self.slots[start..start + usize::from(n)]
                    .iter()
                    .map(|&x| f64::from(x))
                    .collect();
                median(&mut v)
            })
    }

    fn sorted_medians(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.medians().collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// The timed phase as one closed-loop client saw it. The client makes a
/// fixed list of distinct requests once per round, for as many rounds as
/// the run lasts. Each request's time is the median of its rounds, in
/// reference-host nanoseconds (see [`host`]); covering every request in
/// every round keeps the mix of inputs the same from run to run.
#[derive(Default)]
pub struct Requests {
    /// Scaled times of each distinct request over the rounds.
    lat_ns: Samples,
    /// Scaled times of each distinct unit of throughput (a request, or a
    /// parallel sweep of them) over the rounds, and its work.
    busy_ns: Samples,
    work: Vec<u64>,
    /// Unscaled wall times, for the record on stderr.
    wall_ns: u64,
    raw_lat_ns: Samples,
    /// Rounds made.
    pub rounds: usize,
}

impl Requests {
    /// Tables for `requests` distinct requests and `units` units of
    /// throughput.
    pub fn new(requests: usize, units: usize) -> Requests {
        Requests {
            lat_ns: Samples::new(requests),
            busy_ns: Samples::new(units),
            work: vec![0; units],
            wall_ns: 0,
            raw_lat_ns: Samples::new(requests),
            rounds: 0,
        }
    }

    /// Request `i` took `ns` of wall time and completed `work` units (MPI
    /// ops, jobs or queries; the same in every round).
    pub fn record(&mut self, i: usize, ns: u64, work: u64) {
        let factor = host::factor();
        self.latency_at(i, ns, factor);
        self.busy_at(i, ns, factor, work);
    }

    /// The latency of request `i` only, scaled by `factor`.
    pub fn latency_at(&mut self, i: usize, ns: u64, factor: f64) {
        self.lat_ns.push(i, ns as f64 * factor);
        self.raw_lat_ns.push(i, ns as f64);
    }

    /// Throughput unit `i` took `ns` of wall time, scaled by `factor`,
    /// for `work` units. This thread's host probe is rerun afterwards if it
    /// is stale, so the next request is scaled by a fresh one.
    pub fn busy_at(&mut self, i: usize, ns: u64, factor: f64, work: u64) {
        self.busy_ns.push(i, ns as f64 * factor);
        self.wall_ns += ns;
        if self.work.len() <= i {
            self.work.resize(i + 1, 0);
        }
        self.work[i] = work;
        host::tick();
    }

    /// One round's work over the summed median times of its units.
    pub fn throughput(&self) -> f64 {
        let busy: f64 = self.busy_ns.medians().sum();
        self.work_per_round() as f64 / (busy.max(1.0) * 1e-9)
    }

    /// Work over unscaled wall time, all rounds.
    pub fn wall_throughput(&self) -> f64 {
        (self.work_per_round() * self.rounds as u64) as f64 / (self.wall_ns.max(1) as f64 * 1e-9)
    }

    pub fn work_per_round(&self) -> u64 {
        self.work.iter().sum()
    }

    /// Median time of each distinct request, sorted.
    pub fn sorted_latencies(&self) -> Vec<f64> {
        self.lat_ns.sorted_medians()
    }

    /// The same, unscaled.
    pub fn sorted_wall_latencies(&self) -> Vec<f64> {
        self.raw_lat_ns.sorted_medians()
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub requests: Requests,
    /// Percentile for `latency_tail_us`: the highest that keeps at least
    /// ten samples beyond it at this workload's request count.
    pub tail_pct: f64,
    pub setup_s: f64,
    /// Distinct operations attempted, refused (invalid input turned away,
    /// by a typed error or a caught panic) and failed (valid input that
    /// errored or broke a scheduling guarantee). Counted in the first
    /// round only: later rounds repeat the same operations for timing, and
    /// their outputs must reproduce the first round's.
    pub attempted: u64,
    pub refused: u64,
    pub failed: u64,
    /// Output checks that did not hold.
    pub failures: Vec<String>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Throughput of an untraced repeat of the timed phase (traced runs).
    pub untraced_throughput: Option<f64>,
}

impl Outcome {
    /// Record a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.failures.len() < 1000 {
            self.failures.push(what());
        }
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} not in PER_LAYER"
        );
        self.layers.insert(name, v);
    }

    pub fn add(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} not in PER_LAYER"
        );
        *self.layers.entry(name).or_insert(0.0) += v;
    }

    /// Fill the trace rows from the recorded spans; the traced run's wall
    /// time is its root span, `run`.
    pub fn absorb_trace(&mut self, tracer: &Tracer) {
        let spans = tracer.spans();
        let Some(root) = spans
            .iter()
            .position(|s| s.parent.is_none() && s.name == "run")
        else {
            return;
        };
        let wall = spans[root].dur_ns() as f64 * 1e-9;
        let by_layer = tracer.self_time_by_layer();
        for layer in SELF_TIME_LAYERS {
            let name = PER_LAYER
                .iter()
                .find(|(n, _)| n.strip_suffix(".self_s") == Some(layer))
                .map(|(n, _)| *n)
                .expect("every self-time layer has a row");
            self.set(name, by_layer.get(layer).copied().unwrap_or(0.0));
        }
        let unattributed = by_layer.get("run").copied().unwrap_or(0.0);
        self.set("trace.spans", spans.len() as f64);
        self.set("trace.covered_frac", 1.0 - unattributed / wall.max(1e-12));
    }

    /// Print the result line (and a human summary on stderr).
    pub fn print(mut self, args: &Args) {
        let mut correct = self.failures.is_empty();
        for f in &self.failures {
            eprintln!("perfbench: check failed: {f}");
        }
        let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
        if args.trace {
            let traced = self.requests.throughput();
            if let Some(untraced) = self.untraced_throughput {
                self.set("trace.untraced_per_s", untraced);
                self.set("trace.overhead_frac", 1.0 - traced / untraced);
            }
            for (name, unit) in PER_LAYER {
                metrics.push((name, self.layers.get(name).copied().unwrap_or(0.0), unit));
            }
        } else {
            let lat = self.requests.sorted_latencies();
            let errors = self.refused + self.failed;
            for (name, unit) in END_TO_END {
                let v = match name {
                    "throughput_per_s" => self.requests.throughput(),
                    "latency_p50_us" => quantile_f(&lat, 0.5) * 1e-3,
                    "latency_tail_us" => quantile_f(&lat, self.tail_pct) * 1e-3,
                    "setup_s" => self.setup_s,
                    "peak_rss_mb" => peak_rss_mb(),
                    "success_ratio" => 1.0 - errors as f64 / self.attempted.max(1) as f64,
                    _ => unreachable!("unknown end-to-end metric {name}"),
                };
                metrics.push((name, v, unit));
            }
            let (probes, probe_ns) = host::probes();
            eprintln!(
                "perfbench: {} distinct requests over {} rounds ({} beyond p{}), \
                 {} attempted, {} refused, {} failed",
                lat.len(),
                self.requests.rounds,
                lat.len() - (self.tail_pct * lat.len() as f64).ceil() as usize,
                (self.tail_pct * 100.0).round(),
                self.attempted,
                self.refused,
                self.failed
            );
            let wall = self.requests.sorted_wall_latencies();
            eprintln!(
                "perfbench: {probes} host probes, mean {:.3} ms; unscaled: throughput {:.6e} /s, \
                 p50 {:.6e} us, tail {:.6e} us",
                probe_ns * 1e-6,
                self.requests.wall_throughput(),
                quantile_f(&wall, 0.5) * 1e-3,
                quantile_f(&wall, self.tail_pct) * 1e-3
            );
        }
        let mut body = String::new();
        for (i, (name, v, unit)) in metrics.iter().enumerate() {
            if !v.is_finite() {
                eprintln!("perfbench: metric {name} is not finite ({v})");
                correct = false;
            }
            let v = if v.is_finite() { *v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            body.push_str(&format!(
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.attempted.max(1),
            self.failed
        );
    }
}

/// Linear-interpolated quantile of sorted float samples.
pub fn quantile_f(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Linear-interpolated quantile of sorted samples.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
}

/// Median of float samples.
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => xs[n / 2],
        _ => 0.5 * (xs[n / 2 - 1] + xs[n / 2]),
    }
}

/// Times the workload's input builds. The first build feeds the timed
/// phase; the others are spread over the timed phase and dropped, so the
/// median samples the machine across the whole run rather than only at
/// its start (a shared host's speed can drift by tens of percent over
/// seconds).
pub struct SetupTimer {
    times: Vec<f64>,
    start: Instant,
    seconds: f64,
}

impl SetupTimer {
    pub fn new(seconds: f64) -> SetupTimer {
        SetupTimer {
            times: Vec::with_capacity(SETUP_REPEATS),
            start: Instant::now(),
            seconds,
        }
    }

    /// Build once, timed, as a `bench.setup` span.
    pub fn build<T>(&mut self, tr: &mut Tracer, build: impl FnOnce(&mut Tracer) -> T) -> T {
        tr.enter("bench.setup");
        host::tick();
        let t = Instant::now();
        let inputs = build(tr);
        self.times
            .push(host::scaled(t.elapsed().as_nanos() as u64) * 1e-9);
        tr.exit();
        if self.times.len() == 1 {
            self.start = Instant::now();
        }
        inputs
    }

    /// Build again (and drop the result) when the next build is due.
    pub fn maybe_rebuild<T>(&mut self, tr: &mut Tracer, build: impl FnOnce(&mut Tracer) -> T) {
        let due = self.times.len() as f64 * self.seconds / SETUP_REPEATS as f64;
        if self.times.len() < SETUP_REPEATS && self.start.elapsed().as_secs_f64() >= due {
            drop(self.build(tr, build));
        }
    }

    /// Make the builds not yet made; return the median build time.
    pub fn finish<T>(&mut self, tr: &mut Tracer, mut build: impl FnMut(&mut Tracer) -> T) -> f64 {
        while self.times.len() < SETUP_REPEATS {
            drop(self.build(tr, &mut build));
        }
        median(&mut self.times.clone())
    }
}

/// Rounds a run makes at least, so that every request has a fastest of
/// several repeats.
pub const MIN_ROUNDS: usize = 3;

/// Run `round` (given its index) until `seconds` of wall time have gone
/// by and at least [`MIN_ROUNDS`] rounds were made, or [`MAX_ROUNDS`]
/// were. Returns the number of rounds.
pub fn run_rounds(seconds: f64, mut round: impl FnMut(usize)) -> usize {
    let t = Instant::now();
    let mut rounds = 0;
    loop {
        round(rounds);
        rounds += 1;
        if rounds >= MAX_ROUNDS || (rounds >= MIN_ROUNDS && t.elapsed().as_secs_f64() >= seconds) {
            return rounds;
        }
    }
}

/// Peak resident memory of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over a stream of 64-bit words: the digest the benchmark uses to
/// compare repeated outputs.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}
