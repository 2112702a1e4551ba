//! The slot-set core: interval algebra over time (slots) and resources
//! (proc sets), in the style of OAR's `SlotSet`/`ProcSet` scheduler
//! internals.
//!
//! A [`ProcSet`] is a compact sorted set of resource ids (nodes, in this
//! scheduler's granularity) stored as inclusive runs. A [`SlotSet`] is a
//! time-ordered list of [`Slot`]s covering `[begin, +inf)` with no gaps and
//! no overlaps; each slot carries the **hard** availability over its time
//! interval (`avail`: the exact procs free for placement) plus a **soft**
//! count of held nodes (`held`: capacity promised to reservations that have
//! not yet been pinned to specific procs). Slot *split* and *merge* are the
//! only mutation primitives — every reservation, maintenance window or
//! release is materialized by splitting the affected interval out and
//! editing its copy, never by patching times in place.
//!
//! # Invariants
//!
//! * slots are sorted by `begin` and contiguous: `slots[i].end ==
//!   slots[i+1].begin`, and `slots.last().end == +inf`;
//! * slots never overlap (immediate from contiguity);
//! * after [`SlotSet::merge`], slots are *maximal*: no two neighbours carry
//!   the same `(avail, held)` pair.
//!
//! The **effective** capacity of a slot is `avail.len() - held`. Count
//! profiles derived from the slot walk ([`SlotSet::count_points`]) feed the
//! same earliest-fit scan the legacy free-node engine used
//! ([`earliest_fit`]), which is what lets the slot-set engine reproduce its
//! schedules bit-for-bit while also expressing things the old engine could
//! not (advance reservations, maintenance calendars, per-project quotas).

/// Tolerance for event-time comparisons (seconds). Shared with the site
/// engine: covers the sub-ns residue of f64 -> `SimTime` grid rounding with
/// orders of magnitude to spare against real scheduling timescales.
pub const EPS: f64 = 1e-6;

/// A compact set of resource ids stored as sorted, disjoint, maximal
/// inclusive runs `(lo, hi)`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProcSet {
    runs: Vec<(usize, usize)>,
}

impl ProcSet {
    pub fn new() -> ProcSet {
        ProcSet { runs: Vec::new() }
    }

    /// The inclusive range `lo..=hi`.
    pub fn range(lo: usize, hi: usize) -> ProcSet {
        assert!(lo <= hi);
        ProcSet {
            runs: vec![(lo, hi)],
        }
    }

    /// Build from arbitrary (unsorted, possibly duplicated) ids.
    pub fn from_ids(ids: &[usize]) -> ProcSet {
        let mut sorted: Vec<usize> = ids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut runs: Vec<(usize, usize)> = Vec::new();
        for id in sorted {
            match runs.last_mut() {
                Some((_, hi)) if *hi + 1 == id => *hi = id,
                _ => runs.push((id, id)),
            }
        }
        ProcSet { runs }
    }

    pub fn len(&self) -> usize {
        self.runs.iter().map(|(lo, hi)| hi - lo + 1).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    pub fn contains(&self, id: usize) -> bool {
        self.runs
            .binary_search_by(|&(lo, hi)| {
                if id < lo {
                    std::cmp::Ordering::Greater
                } else if id > hi {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// The sorted inclusive runs.
    pub fn runs(&self) -> &[(usize, usize)] {
        &self.runs
    }

    /// Iterate ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.runs.iter().flat_map(|&(lo, hi)| lo..=hi)
    }

    /// The lowest `n` ids (the packed prefix). Panics if `n > len`.
    pub fn take(&self, n: usize) -> ProcSet {
        let mut out = Vec::new();
        let mut left = n;
        for &(lo, hi) in &self.runs {
            if left == 0 {
                break;
            }
            let width = (hi - lo + 1).min(left);
            out.push((lo, lo + width - 1));
            left -= width;
        }
        assert!(left == 0, "take({n}) from a {}-proc set", self.len());
        ProcSet { runs: out }
    }

    pub fn union(&self, other: &ProcSet) -> ProcSet {
        let mut merged: Vec<(usize, usize)> =
            Vec::with_capacity(self.runs.len() + other.runs.len());
        let (mut i, mut j) = (0, 0);
        while i < self.runs.len() || j < other.runs.len() {
            let next = if j >= other.runs.len()
                || (i < self.runs.len() && self.runs[i].0 <= other.runs[j].0)
            {
                i += 1;
                self.runs[i - 1]
            } else {
                j += 1;
                other.runs[j - 1]
            };
            match merged.last_mut() {
                // Adjacent or overlapping runs coalesce (maximality).
                Some((_, hi)) if next.0 <= *hi + 1 => *hi = (*hi).max(next.1),
                _ => merged.push(next),
            }
        }
        ProcSet { runs: merged }
    }

    pub fn intersect(&self, other: &ProcSet) -> ProcSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.runs.len() && j < other.runs.len() {
            let (alo, ahi) = self.runs[i];
            let (blo, bhi) = other.runs[j];
            let lo = alo.max(blo);
            let hi = ahi.min(bhi);
            if lo <= hi {
                out.push((lo, hi));
            }
            if ahi < bhi {
                i += 1;
            } else {
                j += 1;
            }
        }
        ProcSet { runs: out }
    }

    /// `self` minus `other`.
    pub fn difference(&self, other: &ProcSet) -> ProcSet {
        let mut out = Vec::new();
        let mut j = 0;
        for &(lo, hi) in &self.runs {
            let mut cur = lo;
            while j < other.runs.len() && other.runs[j].1 < cur {
                j += 1;
            }
            let mut k = j;
            while cur <= hi {
                if k >= other.runs.len() || other.runs[k].0 > hi {
                    out.push((cur, hi));
                    break;
                }
                let (blo, bhi) = other.runs[k];
                if blo > cur {
                    out.push((cur, blo - 1));
                }
                if bhi >= hi {
                    break;
                }
                cur = cur.max(bhi + 1);
                k += 1;
            }
        }
        ProcSet { runs: out }
    }
}

/// One interval of the slot walk: the hard availability (`avail`) over
/// `[begin, end)` plus a soft count of capacity promised to not-yet-placed
/// reservations (`held`). Effective capacity is `avail.len() - held`.
#[derive(Debug, Clone, PartialEq)]
pub struct Slot {
    pub begin: f64,
    pub end: f64,
    pub avail: ProcSet,
    pub held: i64,
}

impl Slot {
    /// Effective schedulable node count over this interval.
    pub fn effective(&self) -> i64 {
        self.avail.len() as i64 - self.held
    }
}

/// A time-ordered, gap-free, non-overlapping list of [`Slot`]s covering
/// `[begin, +inf)`. See the module docs for the invariants.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotSet {
    slots: Vec<Slot>,
}

impl SlotSet {
    /// A single maximal slot `[begin, +inf)` with the given availability.
    pub fn new(begin: f64, avail: ProcSet) -> SlotSet {
        SlotSet {
            slots: vec![Slot {
                begin,
                end: f64::INFINITY,
                avail,
                held: 0,
            }],
        }
    }

    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    pub fn begin(&self) -> f64 {
        self.slots[0].begin
    }

    /// Index of the slot containing `t` (clamped to the first slot for
    /// `t < begin`).
    pub fn index_at(&self, t: f64) -> usize {
        self.slots.partition_point(|s| s.begin <= t).max(1) - 1
    }

    /// Ensure a slot boundary at `t` (splitting the containing slot if
    /// needed) and return the index of the slot beginning at `t`. The
    /// fundamental mutation primitive: every window edit goes through it.
    /// `t` at or before the set's begin returns slot 0 unsplit.
    pub fn split_at(&mut self, t: f64) -> usize {
        let i = self.index_at(t);
        if t <= self.slots[i].begin {
            return i;
        }
        debug_assert!(t < self.slots[i].end);
        let mut right = self.slots[i].clone();
        right.begin = t;
        self.slots[i].end = t;
        self.slots.insert(i + 1, right);
        i + 1
    }

    /// Coalesce neighbours with identical `(avail, held)` back into
    /// maximal slots — the inverse of [`split_at`](Self::split_at).
    pub fn merge(&mut self) {
        let mut out: Vec<Slot> = Vec::with_capacity(self.slots.len());
        for s in self.slots.drain(..) {
            match out.last_mut() {
                Some(last) if last.avail == s.avail && last.held == s.held => last.end = s.end,
                _ => out.push(s),
            }
        }
        self.slots = out;
    }

    /// Indices `[i0, i1)` of the slots covering `[b, e)`, splitting the
    /// boundaries in first. `e = +inf` selects through the final slot.
    fn window_indices(&mut self, b: f64, e: f64) -> (usize, usize) {
        let i0 = self.split_at(b);
        let i1 = if e.is_finite() {
            self.split_at(e)
        } else {
            self.slots.len()
        };
        (i0, i1)
    }

    /// Remove `procs` from the hard availability over `[b, e)` (a running
    /// job's placement, a maintenance window).
    pub fn sub_window(&mut self, b: f64, e: f64, procs: &ProcSet) {
        let (i0, i1) = self.window_indices(b, e);
        for s in &mut self.slots[i0..i1] {
            s.avail = s.avail.difference(procs);
        }
    }

    /// Return `procs` to the hard availability over `[b, e)` (a release).
    pub fn add_window(&mut self, b: f64, e: f64, procs: &ProcSet) {
        let (i0, i1) = self.window_indices(b, e);
        for s in &mut self.slots[i0..i1] {
            s.avail = s.avail.union(procs);
        }
    }

    /// Soft-hold `n` nodes of capacity over `[b, e)` without pinning procs
    /// (a reservation quoted by count, not yet placed).
    pub fn hold_window(&mut self, b: f64, e: f64, n: i64) {
        let (i0, i1) = self.window_indices(b, e);
        for s in &mut self.slots[i0..i1] {
            s.held += n;
        }
    }

    /// Drop every slot ending at or before `t` (history that can no longer
    /// host a start). Keeps the covering slot of `t` as the new head.
    pub fn truncate_before(&mut self, t: f64) {
        let i = self.split_at(t);
        self.slots.drain(..i);
    }

    /// Hard availability at time `t`.
    pub fn avail_at(&self, t: f64) -> &ProcSet {
        &self.slots[self.index_at(t)].avail
    }

    /// Effective capacity at time `t`.
    pub fn effective_at(&self, t: f64) -> i64 {
        self.slots[self.index_at(t)].effective()
    }

    /// Intersection of the hard availability over every slot overlapping
    /// `[b, e)`: the procs a job placed on `[b, e)` may use.
    pub fn window_avail(&self, b: f64, e: f64) -> ProcSet {
        let i = self.index_at(b);
        let mut acc = self.slots[i].avail.clone();
        for s in &self.slots[i + 1..] {
            if s.begin >= e - EPS {
                break;
            }
            acc = acc.intersect(&s.avail);
        }
        acc
    }

    /// The effective-capacity step profile as `(time, level)` breakpoints,
    /// with breakpoints within [`EPS`] merged exactly the way the legacy
    /// free-node `Profile` merged its deltas (first time kept, last level
    /// wins) — conservative-backfill quotes fed from this reproduce the
    /// legacy engine's bit-for-bit.
    pub fn count_points(&self) -> Vec<(f64, i64)> {
        let mut pts: Vec<(f64, i64)> = Vec::with_capacity(self.slots.len());
        for s in &self.slots {
            let eff = s.effective();
            match pts.last_mut() {
                Some((t, lvl)) if (s.begin - *t).abs() <= EPS => *lvl = eff,
                _ => pts.push((s.begin, eff)),
            }
        }
        pts
    }

    /// The effective-capacity step profile with *no* EPS merging: exact
    /// slot boundaries. The EASY shadow scan uses this (the legacy EASY
    /// reservation walked unmerged release times).
    pub fn count_points_exact(&self) -> Vec<(f64, i64)> {
        self.slots
            .iter()
            .map(|s| (s.begin, s.effective()))
            .collect()
    }
}

/// Step-profile level at time `t`: the level of the last breakpoint at or
/// (within [`EPS`]) before `t`.
pub fn level_at(points: &[(f64, i64)], t: f64) -> i64 {
    let i = points.partition_point(|p| p.0 <= t + EPS).max(1) - 1;
    points[i].1
}

/// Earliest start at which `need` nodes stay available for `dur` seconds,
/// over a `(time, level)` step profile. Candidate starts are breakpoints;
/// on a violation inside the window the candidate jumps past the violating
/// breakpoint. Exactly the legacy free-node `Profile::earliest` scan;
/// returns `None` when the profile never sustains `need` for `dur` (the
/// legacy scan's unreachable arm, reachable here once maintenance windows
/// or quotas shape the horizon).
pub fn earliest_fit(points: &[(f64, i64)], need: i64, dur: f64) -> Option<f64> {
    earliest_fit_before(points, need, dur, f64::INFINITY)
}

/// [`earliest_fit`] restricted to candidate starts before `before`: the
/// scan stops at the first breakpoint at or past it. A re-quote that only
/// matters if it beats a standing start uses this to skip the rest.
pub fn earliest_fit_before(points: &[(f64, i64)], need: i64, dur: f64, before: f64) -> Option<f64> {
    let n = points.len();
    let mut i = 0;
    while i < n {
        let t = points[i].0;
        if t >= before {
            return None;
        }
        let mut j = i;
        let mut ok = true;
        while j < n && points[j].0 < t + dur - EPS {
            if points[j].1 < need {
                ok = false;
                i = j + 1;
                break;
            }
            j += 1;
        }
        if ok {
            return Some(t);
        }
    }
    None
}

/// `true` when `need` nodes stay available for `dur` seconds starting at
/// `t` (which need not be a breakpoint).
pub fn window_fits(points: &[(f64, i64)], t: f64, dur: f64, need: i64) -> bool {
    if level_at(points, t) < need {
        return false;
    }
    let start = points.partition_point(|p| p.0 <= t + EPS);
    for p in &points[start..] {
        if p.0 >= t + dur - EPS {
            break;
        }
        if p.1 < need {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn procset_algebra() {
        let a = ProcSet::range(0, 7);
        let b = ProcSet::from_ids(&[4, 5, 6, 7, 8, 9]);
        assert_eq!(a.len(), 8);
        assert_eq!(a.union(&b), ProcSet::range(0, 9));
        assert_eq!(a.intersect(&b), ProcSet::range(4, 7));
        assert_eq!(a.difference(&b), ProcSet::range(0, 3));
        assert_eq!(b.difference(&a), ProcSet::range(8, 9));
        assert!(a.contains(3) && !a.contains(8));
        assert_eq!(a.take(3), ProcSet::range(0, 2));
        let scattered = ProcSet::from_ids(&[1, 3, 5]);
        assert_eq!(scattered.runs().len(), 3);
        assert_eq!(scattered.take(2), ProcSet::from_ids(&[1, 3]));
        assert_eq!(
            scattered.iter().collect::<Vec<_>>(),
            vec![1, 3, 5],
            "iteration is ascending"
        );
    }

    #[test]
    fn split_is_boundary_stable_and_merge_restores_maximality() {
        let mut ss = SlotSet::new(0.0, ProcSet::range(0, 3));
        let i = ss.split_at(10.0);
        assert_eq!(i, 1);
        assert_eq!(ss.split_at(10.0), 1, "existing boundary is not re-split");
        assert_eq!(ss.split_at(0.0), 0, "begin is never split");
        ss.split_at(5.0);
        assert_eq!(ss.slots().len(), 3);
        // Contiguity invariant.
        for w in ss.slots().windows(2) {
            assert_eq!(w[0].end, w[1].begin);
        }
        assert_eq!(ss.slots().last().unwrap().end, f64::INFINITY);
        // Nothing was edited, so merge collapses back to one maximal slot.
        ss.merge();
        assert_eq!(ss.slots().len(), 1);
    }

    #[test]
    fn windows_edit_only_their_interval() {
        let mut ss = SlotSet::new(0.0, ProcSet::range(0, 7));
        ss.sub_window(10.0, 20.0, &ProcSet::range(0, 3));
        ss.hold_window(15.0, 30.0, 2);
        assert_eq!(ss.avail_at(5.0).len(), 8);
        assert_eq!(ss.avail_at(12.0).len(), 4);
        assert_eq!(ss.effective_at(16.0), 2); // 4 avail - 2 held
        assert_eq!(ss.effective_at(25.0), 6); // 8 avail - 2 held
        assert_eq!(ss.effective_at(35.0), 8);
        assert_eq!(ss.window_avail(5.0, 12.0), ProcSet::range(4, 7));
        assert_eq!(ss.window_avail(20.0, 40.0), ProcSet::range(0, 7));
        ss.add_window(10.0, 20.0, &ProcSet::range(0, 3));
        ss.hold_window(15.0, 30.0, -2);
        ss.merge();
        assert_eq!(ss.slots().len(), 1, "round-trip restores the free set");
        assert_eq!(ss.slots()[0].avail, ProcSet::range(0, 7));
    }

    #[test]
    fn truncate_drops_history() {
        let mut ss = SlotSet::new(0.0, ProcSet::range(0, 3));
        ss.sub_window(0.0, 10.0, &ProcSet::range(0, 1));
        ss.truncate_before(10.0);
        assert_eq!(ss.begin(), 10.0);
        assert_eq!(ss.avail_at(10.0).len(), 4);
    }

    #[test]
    fn earliest_fit_matches_the_legacy_scan_shape() {
        // free 2 now, 6 at t=100, 8 at t=250.
        let pts = vec![(0.0, 2), (100.0, 6), (250.0, 8)];
        assert_eq!(earliest_fit(&pts, 2, 50.0), Some(0.0));
        assert_eq!(earliest_fit(&pts, 4, 50.0), Some(100.0));
        assert_eq!(earliest_fit(&pts, 8, 10.0), Some(250.0));
        assert_eq!(earliest_fit(&pts, 9, 10.0), None);
        // A dip: free 8 until 100, 2 in [100, 200), 8 after.
        let dip = vec![(0.0, 8), (100.0, 2), (200.0, 8)];
        assert_eq!(earliest_fit(&dip, 4, 50.0), Some(0.0));
        assert_eq!(
            earliest_fit(&dip, 4, 150.0),
            Some(200.0),
            "window clears the dip"
        );
        assert!(window_fits(&dip, 30.0, 50.0, 4));
        assert!(!window_fits(&dip, 60.0, 50.0, 4));
        assert_eq!(level_at(&dip, 150.0), 2);
    }
}
