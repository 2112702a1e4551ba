//! Free-node count profiles for conservative reservations.
//!
//! A profile is a base level at `now` plus a list of `(time, delta)`
//! events, prefix-summed into `(time, free-from-then-on)` breakpoints.
//! Events within [`EPS`] of a breakpoint fold into it (first time kept,
//! last level wins), so the breakpoints depend only on the *multiset* of
//! events: any two lists holding the same events give the same bytes.
//!
//! [`Profile`] builds the breakpoints once, from scratch, with one sort.
//! [`ResvProfile`] keeps the events sorted across a whole compression
//! sweep instead: each re-quote takes the job's own window out, folds the
//! prefix sum only as far as the quote can look, and puts the window back
//! at its new start — the same multiset, so the same quote, without a sort
//! or an allocation per job.

use crate::slot::{earliest_fit, earliest_fit_before, EPS};

/// Breakpoints built from a complete delta list in one (stable) sort.
/// Deltas may be negative (maintenance windows dip the profile); the
/// earliest scan handles dips.
pub(crate) struct Profile {
    /// Sorted breakpoints; `points[i].1` is the free count from
    /// `points[i].0` until the next breakpoint. `points[0].0 == now`.
    points: Vec<(f64, i64)>,
}

impl Profile {
    pub(crate) fn new(now: f64, free_now: i64, mut deltas: Vec<(f64, i64)>) -> Profile {
        deltas.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
        let mut points = Vec::with_capacity(deltas.len() + 1);
        points.push((now, free_now));
        let mut free = free_now;
        for (t, d) in deltas {
            free += d;
            match points.last_mut() {
                Some(last) if (t - last.0).abs() <= EPS => last.1 = free,
                _ => points.push((t, free)),
            }
        }
        Profile { points }
    }

    /// Earliest start at which `need` nodes stay free for `dur` seconds,
    /// or `None` when the profile never frees them. All reservations and
    /// outages end, so for validated inputs (width <= pool) the scan
    /// always lands; callers turn `None` into a typed
    /// [`SchedError`](crate::SchedError).
    pub(crate) fn earliest(&self, need: usize, dur: f64) -> Option<f64> {
        earliest_fit(&self.points, need as i64, dur)
    }
}

/// Marks an event that is out of the profile while a re-quote runs. No
/// real delta comes near it: widths are bounded by the pool.
const HIDDEN: i64 = i64::MIN;

/// A [`Profile`] kept up to date under single-event edits: the delta list
/// stays sorted, and the breakpoints are a lazily extended prefix sum of
/// it. An edit at delta index `m` only discards the breakpoints from the
/// one that could absorb delta `m` onwards; a quote folds only as far as
/// its window scan can reach.
#[derive(Debug, Default)]
pub(crate) struct ResvProfile {
    now: f64,
    base: i64,
    /// Every event, sorted by time (order among equal times is free: the
    /// breakpoints depend only on the multiset). A [`HIDDEN`] delta is
    /// not an event: the fold skips it.
    deltas: Vec<(f64, i64)>,
    /// Breakpoints of `deltas[..folded]`, exactly as [`Profile::new`]
    /// builds them. All but the last are final; the last may still absorb
    /// `deltas[folded]`, which a fold does before any scan reads it.
    points: Vec<(f64, i64)>,
    /// Index in `deltas` of the first event folded into each breakpoint
    /// (`0` for the `now` breakpoint, which may hold none).
    first: Vec<usize>,
    folded: usize,
}

impl ResvProfile {
    /// Start over at `now`: `fill` appends the events in any order and
    /// returns the free level at `now`. The only sort; the buffers are
    /// reused.
    pub(crate) fn rebuild(&mut self, now: f64, fill: impl FnOnce(&mut Vec<(f64, i64)>) -> i64) {
        self.now = now;
        self.deltas.clear();
        self.base = fill(&mut self.deltas);
        self.deltas.sort_by(|a, b| a.0.total_cmp(&b.0));
        self.unfold();
    }

    /// Hold `nodes` over `[start, start + dur)`.
    pub(crate) fn add_window(&mut self, start: f64, dur: f64, nodes: usize) {
        self.insert(start, -(nodes as i64));
        self.insert(start + dur, nodes as i64);
    }

    /// Re-quote a window added with the same arguments: the earliest
    /// start before `before` for `nodes` over `dur`, with the window itself
    /// out of the profile. On `Some`, the window is gone and the caller
    /// adds it back at its new start; on `None`, it stays where it was.
    /// The window is hidden in place while the quote runs, so a kept
    /// window — the common case — costs no shifting of the event list.
    pub(crate) fn requote(
        &mut self,
        start: f64,
        dur: f64,
        nodes: usize,
        before: f64,
    ) -> Option<f64> {
        let d = nodes as i64;
        let a = self.find(start, -d);
        self.set(a, HIDDEN);
        let b = self.find(start + dur, d);
        self.set(b, HIDDEN);
        let quote = self.earliest(nodes, dur, before);
        if quote.is_some() {
            // `b` lies after `a`: drop it first so `a` keeps its index.
            self.remove_at(b);
            self.remove_at(a);
        } else {
            self.set(a, -d);
            self.set(b, d);
        }
        quote
    }

    /// Earliest breakpoint before `before` at which `need` nodes stay free
    /// for `dur` seconds; `None` when there is none (pass
    /// `f64::INFINITY` for an unbounded quote). Identical to
    /// [`Profile::earliest`] on the same events whenever that lands before
    /// `before`.
    pub(crate) fn earliest(&mut self, need: usize, dur: f64, before: f64) -> Option<f64> {
        // A window starting before `before` never looks at a breakpoint
        // at or past `before + dur`.
        self.fold_to(before + dur);
        earliest_fit_before(&self.points, need as i64, dur, before)
    }

    fn insert(&mut self, t: f64, d: i64) {
        let m = self.deltas.partition_point(|x| x.0 <= t);
        self.deltas.insert(m, (t, d));
        self.invalidate(m);
    }

    fn remove_at(&mut self, k: usize) {
        self.deltas.remove(k);
        self.invalidate(k);
    }

    /// Index of a visible event `(t, d)`.
    fn find(&self, t: f64, d: i64) -> usize {
        let lo = self.deltas.partition_point(|x| x.0 < t);
        lo + self.deltas[lo..]
            .iter()
            .take_while(|x| x.0 == t)
            .position(|x| x.1 == d)
            .expect("the event was inserted")
    }

    /// Overwrite the delta at index `k` ([`HIDDEN`] takes it out).
    fn set(&mut self, k: usize, d: i64) {
        self.deltas[k].1 = d;
        self.invalidate(k);
    }

    /// The event list changed at index `m`: drop the breakpoint that could
    /// absorb (or lose) the event there — the one holding `deltas[m - 1]` —
    /// and everything after it. Earlier breakpoints closed before `m`.
    fn invalidate(&mut self, m: usize) {
        if m >= self.folded {
            // Only `deltas[..folded]` has been folded, and it is untouched.
            return;
        }
        let p = self.first.partition_point(|&f| f < m).saturating_sub(1);
        if p == 0 {
            self.unfold();
        } else {
            self.folded = self.first[p];
            self.points.truncate(p);
            self.first.truncate(p);
        }
    }

    /// Back to the bare `now` breakpoint, nothing folded.
    fn unfold(&mut self) {
        self.points.clear();
        self.points.push((self.now, self.base));
        self.first.clear();
        self.first.push(0);
        self.folded = 0;
    }

    /// Extend the prefix sum until every breakpoint before `limit` is
    /// complete: stop before opening one at or past `limit`.
    fn fold_to(&mut self, limit: f64) {
        while let Some(&(t, d)) = self.deltas.get(self.folded) {
            if d != HIDDEN {
                let last = self.points.last_mut().expect("the now breakpoint");
                if (t - last.0).abs() <= EPS {
                    last.1 += d;
                } else if t >= limit {
                    return;
                } else {
                    let level = last.1 + d;
                    self.points.push((t, level));
                    self.first.push(self.folded);
                }
            }
            self.folded += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_des::DetRng;

    /// A random event multiset over a few coarse instants, with jitter
    /// inside and just outside `EPS` so breakpoints fold and split, plus
    /// windows whose start carries a negative delta (dips below `base`).
    fn random_events(rng: &mut DetRng, now: f64) -> Vec<(f64, i64)> {
        let n = 1 + (rng.uniform() * 30.0) as usize;
        let mut out = Vec::with_capacity(2 * n);
        for _ in 0..n {
            let coarse = now + (rng.uniform() * 12.0).floor() * 10.0;
            let jitter = match (rng.uniform() * 4.0) as u32 {
                0 => 0.0,
                1 => 0.5 * EPS,
                2 => 0.9 * EPS,
                _ => 2.5 * EPS,
            };
            let t = coarse + jitter;
            let nodes = 1 + (rng.uniform() * 6.0) as i64;
            if rng.uniform() < 0.6 {
                let dur = 5.0 + (rng.uniform() * 6.0).floor() * 10.0;
                out.push((t, -nodes));
                out.push((t + dur, nodes));
            } else {
                out.push((t, if rng.uniform() < 0.5 { nodes } else { -nodes }));
            }
        }
        out
    }

    fn scratch(now: f64, base: i64, events: &[(f64, i64)]) -> Profile {
        Profile::new(now, base, events.to_vec())
    }

    /// The re-quote sequence of a compression sweep agrees with a
    /// from-scratch [`Profile`] on the same multiset (the window's own
    /// events out), for unbounded quotes and for quotes bounded by the
    /// job's current start, whether the window moves or stays.
    #[test]
    fn incremental_quotes_match_a_from_scratch_profile() {
        let mut rng = DetRng::new(0x0C0_15E4, 0x9E0F11E);
        let mut prof = ResvProfile::default();
        for case in 0..400 {
            let now = (rng.uniform() * 3.0).floor() * 100.0;
            let base = (rng.uniform() * 16.0) as i64;
            let mut events = random_events(&mut rng, now);
            prof.rebuild(now, |d| {
                d.extend_from_slice(&events);
                base
            });
            // A queue of windows re-quoted in order, each against all the
            // others, moving earlier when it can.
            let mut windows: Vec<(f64, f64, usize)> = (0..6)
                .map(|_| {
                    let nodes = 1 + (rng.uniform() * 8.0) as usize;
                    let dur = 1.0 + (rng.uniform() * 50.0).floor();
                    let start = now + (rng.uniform() * 120.0).floor();
                    (start, dur, nodes)
                })
                .collect();
            for &(s, dur, n) in &windows {
                prof.add_window(s, dur, n);
                events.push((s, -(n as i64)));
                events.push((s + dur, n as i64));
            }
            for (k, w) in windows.iter_mut().enumerate() {
                let (s, dur, n) = *w;
                let ctx = format!("case {case} window {k}");
                let mut others = events.clone();
                for e in [(s, -(n as i64)), (s + dur, n as i64)] {
                    let i = others.iter().position(|&x| x == e).expect("present");
                    others.swap_remove(i);
                }
                let want = scratch(now, base, &others).earliest(n, dur);
                // Unbounded: lands wherever the scratch quote does, and the
                // window goes back where it was.
                let open = prof.requote(s, dur, n, f64::INFINITY);
                assert_eq!(open, want, "{ctx}");
                if open.is_some() {
                    prof.add_window(s, dur, n);
                }
                // Bounded by the current start: only an earlier fit shows.
                let bounded = prof.requote(s, dur, n, s - EPS);
                assert_eq!(bounded, want.filter(|&t| t < s - EPS), "{ctx} bounded");
                if let Some(s2) = bounded {
                    prof.add_window(s2, dur, n);
                    events = others;
                    events.push((s2, -(n as i64)));
                    events.push((s2 + dur, n as i64));
                    *w = (s2, dur, n);
                }
            }
            // After the sweep, every quote still agrees.
            for need in [1usize, 4, 12] {
                for dur in [1.0, 25.0, 90.0] {
                    let want = scratch(now, base, &events).earliest(need, dur);
                    assert_eq!(prof.earliest(need, dur, f64::INFINITY), want, "case {case}");
                }
            }
        }
    }

    /// Hiding an event and restoring it, or taking it out and inserting
    /// it again, leaves the breakpoints exactly as they were (folded
    /// neighbours within `EPS` included); while hidden, the breakpoints
    /// are those of the multiset without it.
    #[test]
    fn hide_and_remove_round_trip() {
        let multiset = |v: &[(f64, i64)]| {
            let mut v = v.to_vec();
            v.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            v
        };
        let mut rng = DetRng::new(0x0C0_15E4, 0x2007);
        let mut prof = ResvProfile::default();
        for case in 0..200 {
            let events = random_events(&mut rng, 0.0);
            prof.rebuild(0.0, |d| {
                d.extend_from_slice(&events);
                8
            });
            prof.fold_to(f64::INFINITY);
            let (deltas, points) = (prof.deltas.clone(), prof.points.clone());
            assert_eq!(points, scratch(0.0, 8, &events).points, "case {case}");
            let pick = (rng.uniform() * events.len() as f64) as usize;
            let (t, d) = events[pick];
            let mut rest = events.clone();
            rest.swap_remove(pick);
            let k = prof.find(t, d);
            prof.set(k, HIDDEN);
            prof.fold_to(f64::INFINITY);
            assert_eq!(
                prof.points,
                scratch(0.0, 8, &rest).points,
                "case {case} hidden"
            );
            prof.set(k, d);
            prof.fold_to(f64::INFINITY);
            assert_eq!(prof.points, points, "case {case} restored");
            prof.remove_at(k);
            prof.fold_to(f64::INFINITY);
            assert_eq!(
                prof.points,
                scratch(0.0, 8, &rest).points,
                "case {case} removed"
            );
            prof.insert(t, d);
            prof.fold_to(f64::INFINITY);
            // Equal-time events may come back in another order; the
            // multiset and the breakpoints may not change.
            assert_eq!(multiset(&prof.deltas), multiset(&deltas), "case {case}");
            assert_eq!(prof.points, points, "case {case}");
        }
    }

    /// A bounded fold stops short of the far events, and a later unbounded
    /// quote picks up where it stopped.
    #[test]
    fn bounded_quotes_fold_only_what_they_scan() {
        let mut prof = ResvProfile::default();
        // 2 free now, 6 from 100, a dip to 0 over [300, 400), 8 after.
        prof.rebuild(0.0, |d| {
            d.extend_from_slice(&[(100.0, 4), (300.0, -6), (400.0, 8)]);
            2
        });
        assert_eq!(prof.earliest(4, 50.0, 100.0 - EPS), None);
        assert_eq!(prof.points.len(), 2, "folded through the window reach only");
        assert_eq!(prof.earliest(4, 50.0, 200.0), Some(100.0));
        assert_eq!(prof.earliest(4, 250.0, f64::INFINITY), Some(400.0));
        assert_eq!(prof.points.len(), 4);
    }
}
