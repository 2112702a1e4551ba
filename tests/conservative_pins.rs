//! Per-job outcome pins for conservative backfill: overloaded Lublin
//! batches on a 32-node, rack-aware DCC partition, with and without a
//! crash-only fault feed, digested over every `JobOutcome` field's bits.
//! Reservation upkeep is the costliest part of the scheduler and the one
//! most often optimised, so these pins hold its exact schedules in place
//! independently of the figure goldens.
//!
//! Regenerate after an *intentional* semantic change with:
//!     UPDATE_GOLDEN=1 cargo test --test conservative_pins -- --nocapture

use cloudsim::presets;
use cloudsim::sim_faults::FaultModel;
use cloudsim::sim_net::ContentionParams;
use cloudsim::sim_sched::{
    lublin_mix, simulate_site, CheckpointSpec, Discipline, NodePool, PlacementPolicy,
    RequeuePolicy, SiteConfig, SiteFaults, SiteResult,
};

const GOLDEN_PATH: &str = "tests/golden_conservative.txt";
const POOL: usize = 32;
const LOAD: f64 = 1.2;

/// FNV-1a, 64-bit — same digest as `tests/sched_invariants.rs`.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

/// Every field of every job's outcome, bit for bit, in input order.
fn digest(r: &SiteResult) -> u64 {
    let mut h = Fnv(0xcbf29ce484222325);
    for o in &r.outcomes {
        h.word(o.id as u64);
        h.word(o.start.to_bits());
        h.word(o.end.to_bits());
        h.word(o.wait.to_bits());
        h.word(o.inflation.to_bits());
        h.word(u64::from(o.completed));
        h.word(o.nodes as u64);
        h.word(u64::from(o.requeues));
        h.word(o.fault_loss_s.to_bits());
    }
    h.0
}

/// Fail-stop crashes only: the NIC-degrade rate is zero, so the feed
/// exercises kill, requeue and quote voiding without any drain.
fn crash_only(seed: u64) -> SiteFaults {
    let model = FaultModel {
        name: "pins-crash-only",
        scale: 1.0,
        crash_per_node_hour: 0.05,
        crash_mean_secs: 120.0,
        ..FaultModel::none()
    };
    SiteFaults::new(model, seed)
        .with_mttr(1200.0)
        .with_horizon(14.0 * 24.0 * 3600.0)
        .with_requeue(RequeuePolicy::default().with_checkpoint(CheckpointSpec {
            interval: 300.0,
            restore_cost: 30.0,
        }))
}

fn compute_pins() -> Vec<(String, u64)> {
    let dcc = presets::dcc();
    let site = SiteConfig::new(
        NodePool::partition_of(&dcc, POOL),
        PlacementPolicy::RackAware,
        Discipline::Conservative,
        ContentionParams::for_fabric(&dcc.topology.inter),
    );
    let mut out = Vec::new();
    for n in [150usize, 500] {
        for seed in [1u64, 2, 3] {
            let jobs = lublin_mix(n, POOL, LOAD, seed);
            for (feed, cfg) in [
                ("nofaults", site.clone()),
                ("crashes", site.clone().with_faults(crash_only(seed))),
            ] {
                let r = simulate_site(&jobs, &cfg).expect("pinned mixes are valid");
                assert_eq!(r.head_delay_violations, 0, "n{n} seed{seed} {feed}");
                if feed == "crashes" {
                    assert!(r.fault_stats.kills > 0, "n{n} seed{seed}: feed too cold");
                    assert_eq!(r.fault_stats.drains, 0, "n{n} seed{seed}: feed drained");
                }
                out.push((format!("conservative/n{n}/seed{seed}/{feed}"), digest(&r)));
            }
        }
    }
    out
}

#[test]
fn conservative_outcomes_match_the_per_job_pins() {
    let pins = compute_pins();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let mut s =
            String::from("# Per-job conservative-backfill outcome digests.\n# label\tdigest\n");
        for (label, d) in &pins {
            s.push_str(&format!("{label}\t{d:016x}\n"));
        }
        std::fs::write(GOLDEN_PATH, s).unwrap();
        eprintln!("golden: wrote {} entries to {GOLDEN_PATH}", pins.len());
        return;
    }
    let committed = std::fs::read_to_string(GOLDEN_PATH)
        .expect("tests/golden_conservative.txt missing — run with UPDATE_GOLDEN=1 to record");
    let want: std::collections::BTreeMap<&str, &str> = committed
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| l.split_once('\t'))
        .collect();
    assert_eq!(want.len(), pins.len(), "golden entry count drifted");
    for (label, d) in &pins {
        let w = want
            .get(label.as_str())
            .unwrap_or_else(|| panic!("no golden entry for {label}"));
        assert_eq!(
            &format!("{d:016x}"),
            w,
            "{label}: conservative schedule changed"
        );
    }
}
