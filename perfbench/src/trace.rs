//! Spans recorded by the benchmark around its calls into each crate.
//!
//! A span's name is `<layer>.<call>`; the layer is the crate the call goes
//! into (`mpisim`, `sched`, `advisor`, ...) or `bench` for the benchmark's
//! own input generation and output checks. Spans live in memory and are
//! written once, at the end of a traced run, as Chrome-trace JSON in the
//! shape `sim_ipm::Trace::to_chrome_json` produces (an array of `"ph":"X"`
//! duration events, timestamps in microseconds).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// 0 for the main thread, `1 + w` for sweep worker `w`.
    pub tid: usize,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span recorder. When off it still times `timed` calls (the benchmark
/// needs their latency) but records nothing.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Open a span that encloses the spans recorded until [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            tid: 0,
        });
        self.open.push(id);
    }

    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("every exit matches an enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` as a leaf span and return its result with its duration in
    /// nanoseconds.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let a = Instant::now();
        let r = f();
        let b = Instant::now();
        let ns = b.saturating_duration_since(a).as_nanos() as u64;
        if self.on {
            let start_ns = self.ns_at(a);
            self.push(name, start_ns, start_ns + ns, 0);
        }
        (r, ns)
    }

    /// Record a span measured elsewhere (a sweep worker's cell), as a child
    /// of the innermost open span.
    pub fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64, tid: usize) {
        if self.on {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: self.open.last().copied(),
                tid,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer: each span's duration minus the part of it
    /// that its children cover (the union of their intervals, so parallel
    /// children are not counted twice against the parent).
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let covered = union_len(kids, s.start_ns, s.end_ns);
            *out.entry(s.layer()).or_insert(0.0) += (s.dur_ns() - covered) as f64 * 1e-9;
        }
        out
    }

    /// Chrome tracing JSON (array-of-events form).
    pub fn to_chrome_json(&self, process_name: &str) -> String {
        let mut out = String::from("[\n");
        let _ = write!(
            out,
            "  {{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"{process_name}\"}}}}"
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                ",\n  {{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.layer(),
                s.tid,
                s.start_ns as f64 / 1e3,
                (s.dur_ns() as f64 / 1e3).max(0.001),
            );
        }
        out.push_str("\n]\n");
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.clamp(lo, hi), b.clamp(lo, hi));
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            Span {
                name: "sweep.call",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                tid: 0,
            },
            Span {
                name: "sched.cell",
                start_ns: 10,
                end_ns: 60,
                parent: Some(0),
                tid: 1,
            },
            Span {
                name: "sched.cell",
                start_ns: 20,
                end_ns: 90,
                parent: Some(0),
                tid: 2,
            },
        ];
        let st = t.self_time_by_layer();
        assert!((st["sweep"] - 20e-9).abs() < 1e-15);
        assert!((st["sched"] - 120e-9).abs() < 1e-15);
    }
}
