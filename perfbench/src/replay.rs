//! Replays of layers that cannot be timed from outside while a workload
//! runs, because the calls happen inside another crate's loop: the DES
//! event queue, the point-to-point cost functions and the collective cost
//! model inside the MPI engine, and the slot-set primitives inside the
//! scheduler. Each replay is driven by the call mix the traced run counted
//! and returns nanoseconds per call.

use sim_des::{EventQueue, SimTime};
use sim_mpi::{CollOp, CollTopo};
use sim_net::FabricParams;
use sim_sched::slot::earliest_fit;
use sim_sched::{ProcSet, SchedJob, SlotSet};
use std::hint::black_box;
use std::time::Instant;

/// Calls a replay makes at most; larger mixes are scaled down pro rata.
const BUDGET: u64 = 2_000_000;

fn scaled(count: u64, total: u64) -> u64 {
    if total <= BUDGET {
        count
    } else {
        (count * BUDGET).div_ceil(total)
    }
}

fn per_call(t: Instant, calls: u64) -> f64 {
    t.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// Pop/push pairs on an `EventQueue` holding one pending event per rank,
/// `ops` pairs per `(np, ops)` entry. Each rank is re-armed on a 1 µs grid
/// so that ranks tie the way they do after collectives.
pub fn event_queue(mix: &[(usize, u64)]) -> f64 {
    let total: u64 = mix.iter().map(|&(_, n)| n).sum();
    let mut calls = 0;
    let t = Instant::now();
    for &(np, ops) in mix {
        let n = scaled(ops, total);
        let mut q = EventQueue::with_capacity(np);
        for r in 0..np {
            q.push(SimTime((r % 4) as u64 * 1000), r);
        }
        for i in 0..n {
            let (at, r) = q.pop().expect("one event per rank stays queued");
            let step = 1000 * (1 + (r as u64).wrapping_mul(2_654_435_761).wrapping_add(i) % 4);
            q.push(SimTime(at.0 + step), r);
        }
        black_box(q.len());
        calls += n;
    }
    per_call(t, calls)
}

/// `sim_net::one_way_time` over a message-size histogram: `(fabric, bytes,
/// count)`.
pub fn p2p_cost(mix: &[(&FabricParams, usize, u64)]) -> f64 {
    let total: u64 = mix.iter().map(|&(_, _, n)| n).sum();
    let mut calls = 0;
    let mut acc = 0.0;
    let t = Instant::now();
    for &(fabric, bytes, count) in mix {
        for _ in 0..scaled(count, total) {
            acc += sim_net::one_way_time(black_box(fabric), black_box(bytes));
            calls += 1;
        }
    }
    black_box(acc);
    per_call(t, calls)
}

/// `CollTopo::cost` over a collective mix: `(layout, op, count)`.
pub fn coll_cost(mix: &[(CollTopo<'_>, CollOp, u64)]) -> f64 {
    let total: u64 = mix.iter().map(|(_, _, n)| n).sum();
    let mut calls = 0;
    let mut acc = 0.0;
    let t = Instant::now();
    for (topo, op, count) in mix {
        for _ in 0..scaled(*count, total) {
            acc += black_box(topo).cost(black_box(*op));
            calls += 1;
        }
    }
    black_box(acc);
    per_call(t, calls)
}

/// The slot-set work of placing each job of a stream on a `pool`-node
/// site: drop history before the arrival, intersect the job's window,
/// and carve it out; a job that does not fit now is carved at the
/// earliest instant the capacity profile admits it. Returns ns per job.
pub fn slotset(jobs: &[SchedJob], pool: usize) -> f64 {
    let mut ss = SlotSet::new(0.0, ProcSet::range(0, pool - 1));
    let t = Instant::now();
    for j in jobs {
        ss.truncate_before(j.submit);
        let mut begin = j.submit;
        let mut avail = ss.window_avail(begin, begin + j.walltime);
        if avail.len() < j.nodes {
            if let Some(at) = earliest_fit(&ss.count_points(), j.nodes as i64, j.walltime) {
                begin = at.max(j.submit);
                avail = ss.window_avail(begin, begin + j.walltime);
            }
        }
        if avail.len() >= j.nodes {
            ss.sub_window(begin, begin + j.walltime, &avail.take(j.nodes));
        }
    }
    black_box(ss.slots().len());
    per_call(t, jobs.len() as u64)
}
