//! The single-site scheduling engine: queue disciplines over
//! `sim_des::EventQueue`, with placement-aware link contention.
//!
//! # Engines
//!
//! Two engines implement every discipline. The **slot-set engine**
//! (default) schedules over a [`SlotSet`]: a time-ordered list of slots,
//! each holding the available [`ProcSet`] over its interval, with slot
//! split/merge as the only mutations. Starting a job subtracts its
//! placement from the slots over `[start, start + walltime)`; a departure
//! adds it back over the unused tail. Count profiles walked off the slot
//! list feed the same earliest-fit scan the legacy engine used, which is
//! what makes the two engines bit-identical on the classic disciplines —
//! pinned by the equivalence suite — while only the slot-set engine can
//! express advance reservations, maintenance calendars, per-project
//! quotas, job dependencies and moldable jobs. The **legacy free-node
//! engine** counts free nodes at event times; it is kept behind
//! [`SchedEngine::LegacyFreeNode`] purely as the equivalence oracle and
//! rejects the new capabilities at validation.
//!
//! # Disciplines
//!
//! * **FCFS** — strict: the queue head blocks everything behind it.
//! * **EASY backfill** (Mu'alem & Feitelson) — the head gets a reservation
//!   (*shadow time*: the earliest instant enough nodes are guaranteed free,
//!   computed from running jobs' walltimes; *extra nodes*: what's left over
//!   at the shadow). A later job may jump the queue iff it fits the free
//!   nodes now **and** either finishes (by its walltime) before the shadow
//!   or only uses extra nodes. Under that rule a backfill can never delay
//!   the head's reservation — the EASY invariant.
//! * **Conservative backfill** — every queued job holds a *persistent*
//!   reservation against the walltime profile, quoted once on arrival in
//!   FCFS order and thereafter only compressed (moved earlier when an early
//!   completion opens a feasible earlier window, holding all other
//!   reservations fixed); a job starts exactly when its reservation comes
//!   due. No job is ever delayed past its first quoted start.
//! * **NaiveBackfill** — the historically buggy rule this subsystem
//!   replaced: backfill anything that fits the *currently free* nodes,
//!   ignoring reservations. Kept (documented, non-default) as the
//!   regression foil: it demonstrably delays the head (see
//!   `tests/sched_invariants.rs`).
//!
//! # New capabilities (slot-set engine only)
//!
//! * **Maintenance calendars** ([`Maintenance`]): each window is pre-split
//!   into the slot set at setup, hard-removing its nodes; a job only starts
//!   when its whole `[now, now + walltime)` window avoids the outage.
//! * **Advance reservations** ([`SchedJob::at`]): placed like pseudo-jobs
//!   at setup — concrete nodes are selected against the window's
//!   availability and pre-split out of the slots, so batch traffic routes
//!   around them; the job then starts exactly on time.
//! * **Per-project quotas** ([`QuotaRule`]): a concurrent node cap per
//!   project (optionally only inside a time window), enforced at
//!   slot-selection time as an admission gate. Quotas can defer a quoted
//!   start; reservations bypass them.
//! * **Dependencies** ([`SchedJob::with_deps`]): a job is gated until every
//!   dependency has departed (completed *or* killed).
//! * **Moldable jobs** ([`SchedJob::with_shapes`]): on submission each
//!   candidate shape is quoted against the slot profile and the job
//!   commits, once, to the shape with the earliest estimated finish (ties:
//!   fewer nodes, then declaration order).
//!
//! # Contention
//!
//! Placements map to rack sets ([`NodePool::racks_of`]); running jobs that
//! share links ([`share_links`]) inflate each other's communication via the
//! shared [`ContentionParams`] model — the same formula the MPI engine
//! applies when given a [`sim_mpi` `Background`] — so a job's progress rate
//! is `1 / (1 - cf + cf * multiplier)`. Rates change only when the running
//! set changes; completions are re-estimated at each such point through a
//! generation-checked wake event (stale wakes are dropped).
//!
//! Reservations, by contrast, are computed from **static walltimes**, which
//! are upper bounds on actual runtime by construction (walltime >= nominal
//! runtime x the contention cap; a job that somehow exceeds its walltime is
//! killed). That independence is what keeps the EASY invariant intact even
//! though actual completion times move with the tenant mix.

use crate::arena::{JobArena, JobRec};
use crate::burst::CheckpointSpec;
use crate::error::SchedError;
use crate::job::{JobShape, SchedJob};
use crate::pool::{share_links, NodePool, PlacementPolicy};
use crate::profile::{Profile, ResvProfile};
use crate::slot::{earliest_fit, level_at, ProcSet, SlotSet, EPS};
use sim_des::{EventQueue, SimDur, SimTime};
use sim_faults::{FaultKind, FaultModel, FaultSchedule, RetryPolicy};
use sim_net::ContentionParams;
use sim_platform::{ClusterSpec, HypervisorKind};
use std::collections::VecDeque;

/// Queue discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    Fcfs,
    Easy,
    Conservative,
    /// The free-nodes-only backfill rule (head-delay bug); regression foil.
    NaiveBackfill,
}

impl Discipline {
    pub fn name(&self) -> &'static str {
        match self {
            Discipline::Fcfs => "fcfs",
            Discipline::Easy => "easy",
            Discipline::Conservative => "conservative",
            Discipline::NaiveBackfill => "naive-backfill",
        }
    }
}

/// Which scheduling core runs the discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedEngine {
    /// Interval algebra over the slot set (default; full capability set).
    #[default]
    SlotSet,
    /// The historical free-node counting core, kept as the equivalence
    /// oracle. Rejects calendars, quotas, reservations, dependencies and
    /// moldable jobs at validation.
    LegacyFreeNode,
}

impl SchedEngine {
    pub fn name(&self) -> &'static str {
        match self {
            SchedEngine::SlotSet => "slot-set",
            SchedEngine::LegacyFreeNode => "legacy-free-node",
        }
    }
}

/// Which nodes a maintenance window takes down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaintNodes {
    All,
    Rack(usize),
    Nodes(Vec<usize>),
}

/// A scheduled outage: `nodes` are unavailable over `[begin, end)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Maintenance {
    pub begin: f64,
    pub end: f64,
    pub nodes: MaintNodes,
}

/// A concurrent node cap for one project, optionally only inside a time
/// window (outside the window the project is unmetered).
#[derive(Debug, Clone, PartialEq)]
pub struct QuotaRule {
    pub project: u32,
    pub max_nodes: usize,
    pub window: Option<(f64, f64)>,
}

/// Scheduler-level recovery semantics for jobs killed by node crashes.
///
/// The backoff curve is the *engine's* [`RetryPolicy`] — one shared
/// implementation ([`RetryPolicy::delays`]), so op-level retries and
/// scheduler-level requeues can never drift apart. `max_retries` bounds
/// how many crash kills a single job survives before it is failed for
/// good; the n-th requeue re-enters the queue after
/// `retry.delay_before(n)` seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequeuePolicy {
    pub retry: RetryPolicy,
    /// Checkpoint-aware restart: a killed job resumes from its last
    /// completed `interval`-sized chunk of work (paying `restore_cost`)
    /// instead of from scratch. `None` loses the whole run.
    pub checkpoint: Option<CheckpointSpec>,
}

impl RequeuePolicy {
    pub fn with_checkpoint(mut self, ck: CheckpointSpec) -> RequeuePolicy {
        self.checkpoint = Some(ck);
        self
    }

    pub fn with_retry(mut self, retry: RetryPolicy) -> RequeuePolicy {
        self.retry = retry;
        self
    }
}

/// Node-health lifecycle driven by the unplanned-fault feed:
/// Healthy → Suspect → Draining → Healthy for fail-slow signals, and
/// Healthy → Repairing → Healthy for fail-stop crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeHealth {
    #[default]
    Healthy,
    /// A degradation signal landed on an idle node: excluded from new
    /// placements until the signal clears, nothing to drain.
    Suspect,
    /// Fail-slow while hosting work: no new placements; the running job
    /// finishes out rather than being killed.
    Draining,
    /// Crashed: down for the repair (MTTR) window.
    Repairing,
}

impl NodeHealth {
    pub fn name(&self) -> &'static str {
        match self {
            NodeHealth::Healthy => "healthy",
            NodeHealth::Suspect => "suspect",
            NodeHealth::Draining => "draining",
            NodeHealth::Repairing => "repairing",
        }
    }
}

/// Seeded unplanned-fault feed for one site (slot-set engine only).
///
/// The schedule is a pure function of `(model, pool size, horizon, seed)`
/// via [`FaultSchedule::generate`]; two runs at the same seed are
/// bit-identical, and a null model (or `scale` 0) leaves the scheduler's
/// zero-fault path untouched bit for bit. Only the fail-stop
/// `NodeCrash` and fail-slow `NicDegrade` classes act at the scheduler
/// level; steal storms, NFS brownouts, spot preemption and SDC remain
/// engine- and burst-level concerns.
#[derive(Debug, Clone)]
pub struct SiteFaults {
    pub model: FaultModel,
    pub seed: u64,
    /// Mean time to repair a crashed node, seconds: the node is carved
    /// out of slot availability for at least this long after a crash
    /// (an unscheduled maintenance window).
    pub mttr_secs: f64,
    /// Horizon over which fault windows are pre-generated, seconds.
    /// Events beyond it never fire.
    pub horizon_secs: f64,
    pub requeue: RequeuePolicy,
}

impl SiteFaults {
    /// A feed from an explicit model with default repair and requeue
    /// parameters.
    pub fn new(model: FaultModel, seed: u64) -> SiteFaults {
        SiteFaults {
            model,
            seed,
            mttr_secs: 900.0,
            horizon_secs: 24.0 * 3600.0,
            requeue: RequeuePolicy::default(),
        }
    }

    /// Platform preset: the cluster's fault model plus a platform-specific
    /// MTTR — a bare-metal HPC node waits on a hardware repair queue, a
    /// private-cloud blade on a VM restart, a public-cloud instance on a
    /// replacement boot.
    pub fn preset_for(cluster: &ClusterSpec, seed: u64) -> SiteFaults {
        let mttr = match cluster.name {
            "vayu" => 3600.0,
            "dcc" => 1200.0,
            "ec2" => 300.0,
            _ => match cluster.node.hypervisor.kind {
                HypervisorKind::BareMetal => 3600.0,
                HypervisorKind::Xen => 300.0,
                HypervisorKind::VmwareEsx | HypervisorKind::Kvm => 1200.0,
            },
        };
        SiteFaults {
            mttr_secs: mttr,
            ..SiteFaults::new(FaultModel::preset_for(cluster), seed)
        }
    }

    pub fn with_model(mut self, model: FaultModel) -> SiteFaults {
        self.model = model;
        self
    }

    pub fn with_mttr(mut self, mttr_secs: f64) -> SiteFaults {
        self.mttr_secs = mttr_secs;
        self
    }

    pub fn with_horizon(mut self, horizon_secs: f64) -> SiteFaults {
        self.horizon_secs = horizon_secs;
        self
    }

    pub fn with_requeue(mut self, requeue: RequeuePolicy) -> SiteFaults {
        self.requeue = requeue;
        self
    }

    /// The plan's windows that act on the slot timeline, in plan order:
    /// `(crashes, degrades)` as `(start, end, node)`. The plan is a pure
    /// function of (model, pool, horizon, seed), so two runs at the same
    /// seed replay the identical timeline. A crash holds its node for at
    /// least the MTTR, and its repair end is put on the `SimTime` grid the
    /// event queue runs on: the event that returns the node then fires at
    /// exactly the slot boundary that frees it. Off the grid, it could
    /// fire a fraction of a nanosecond before the boundary, while the
    /// carve still held the node, and a start quoted for the repair slid
    /// to the next event.
    pub(crate) fn slot_windows(&self, nodes: usize) -> (Vec<FaultWindow>, Vec<FaultWindow>) {
        let plan = FaultSchedule::generate(
            &self.model,
            nodes,
            SimDur::from_secs_f64(self.horizon_secs),
            self.seed,
        );
        let mut crashes = Vec::new();
        let mut degrades = Vec::new();
        for w in plan.windows() {
            let (start, end) = (w.start.as_secs_f64(), w.end.as_secs_f64());
            match w.kind {
                FaultKind::NodeCrash => {
                    let repair_end = end.max(start + self.mttr_secs);
                    let on_grid = SimTime::from_secs_f64(repair_end).as_secs_f64();
                    crashes.push((start, on_grid, w.node));
                }
                FaultKind::NicDegrade { .. } => degrades.push((start, end, w.node)),
                // Steal storms, brownouts, spot revocation and SDC act at
                // the engine/burst level, not on the slot timeline.
                _ => {}
            }
        }
        (crashes, degrades)
    }
}

/// A fault window on the slot timeline: `(start, end, node)`.
pub(crate) type FaultWindow = (f64, f64, usize);

/// What a fault did to the schedule, for IPM-style attribution rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// A node crash killed this running job.
    Kill,
    /// A killed job re-entered the queue after its backoff delay.
    Requeue,
    /// A fail-slow node was drained: its running job finishes out, but
    /// the node takes no new work until the degradation clears.
    Drain,
    /// A crashed node came back from its repair window.
    Repair,
}

impl FaultAction {
    pub fn name(&self) -> &'static str {
        match self {
            FaultAction::Kill => "KILL",
            FaultAction::Requeue => "REQUEUE",
            FaultAction::Drain => "DRAIN",
            FaultAction::Repair => "REPAIR",
        }
    }
}

/// One scheduler-visible fault event on the timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    pub t: f64,
    pub action: FaultAction,
    pub node: usize,
    /// The affected job, when the action has one (KILL/REQUEUE/DRAIN).
    pub job: Option<usize>,
}

/// Aggregate fault accounting for one site run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultStats {
    /// Crash windows that fired within the horizon.
    pub crashes: usize,
    /// Running jobs killed by crashes.
    pub kills: usize,
    /// Killed jobs that re-entered the queue.
    pub requeues: usize,
    /// Fail-slow drains of nodes hosting running work.
    pub drains: usize,
    /// Crashed nodes returned to service.
    pub repairs: usize,
    /// Nominal seconds of completed work destroyed by crash kills.
    pub work_lost_s: f64,
    /// Nominal seconds salvaged by checkpoint-aware restarts.
    pub work_salvaged_s: f64,
}

/// What the site scheduler needs to know about one job. Per-site view:
/// multi-site simulations hold one per site with site-specific runtimes,
/// and moldable jobs overwrite their view with the committed shape.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JobView {
    pub nodes: usize,
    /// Nominal (uncontended) runtime on this site.
    pub runtime: f64,
    /// Static walltime bound used for reservations and the kill timer.
    pub walltime: f64,
    pub comm_fraction: f64,
    pub submit: f64,
}

impl JobView {
    pub(crate) fn of(j: &SchedJob) -> JobView {
        JobView {
            nodes: j.nodes,
            runtime: j.runtime,
            walltime: j.walltime,
            comm_fraction: j.comm_fraction,
            submit: j.submit,
        }
    }
}

/// A job currently holding nodes.
#[derive(Debug, Clone)]
pub(crate) struct Running {
    pub job: usize,
    pub start: f64,
    pub nodes_held: Vec<usize>,
    racks: Vec<usize>,
    /// Communication weight on shared links: `comm_fraction`, or 0 for
    /// single-node jobs (no inter-node traffic).
    eff_cf: f64,
    /// Nominal seconds of work left.
    remaining: f64,
    /// Current slowdown factor (>= 1); progress rate is `1 / slowdown`.
    slowdown: f64,
    kill_at: f64,
    /// Spot revocation time, if one was drawn (multi-site only).
    pub preempt_at: Option<f64>,
}

/// Per-job result of a site simulation.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    pub id: usize,
    pub start: f64,
    pub end: f64,
    pub wait: f64,
    /// Actual minus nominal runtime: seconds lost to link contention.
    pub inflation: f64,
    /// False if the job hit its walltime and was killed, or exhausted its
    /// crash-requeue budget.
    pub completed: bool,
    /// Nodes actually held — the committed shape for moldable jobs.
    pub nodes: usize,
    /// Times the job was killed by a node crash and requeued.
    pub requeues: u32,
    /// Nominal seconds of completed work destroyed by crash kills
    /// (after checkpoint credit).
    pub fault_loss_s: f64,
}

/// Aggregate result of [`simulate_site`].
#[derive(Debug, Clone)]
pub struct SiteResult {
    /// Outcomes in input-job order.
    pub outcomes: Vec<JobOutcome>,
    pub makespan: f64,
    pub mean_wait: f64,
    pub total_inflation: f64,
    /// Jobs that started later than the reservation recorded when they
    /// first blocked at the head (EASY/conservative: must stay 0; the
    /// naive rule trips it).
    pub head_delay_violations: usize,
    /// `(job index, reserved start)` as first quoted; for invariant tests.
    pub reservations: Vec<(usize, f64)>,
    /// KILL/REQUEUE/DRAIN/REPAIR timeline, in event order. Empty without
    /// a fault feed.
    pub fault_events: Vec<FaultEvent>,
    /// Aggregate fault accounting; all-zero without a fault feed.
    pub fault_stats: FaultStats,
}

/// A pinned advance reservation: concrete nodes pre-split out of the slot
/// set over `[start, start + walltime)`, started exactly on time.
#[derive(Debug, Clone)]
struct Advance {
    job: usize,
    start: f64,
    walltime: f64,
    procs: ProcSet,
    done: bool,
}

/// State of one site's scheduler: pool + queue + running set + slot set.
pub(crate) struct SiteState {
    pub pool: NodePool,
    pub placement: PlacementPolicy,
    pub discipline: Discipline,
    pub contention: ContentionParams,
    pub engine: SchedEngine,
    pub queue: VecDeque<usize>,
    pub running: Vec<Running>,
    /// Every admitted job's record: view, project, deps, reservations
    /// (conservative `resv` is persistent — once granted it only ever
    /// moves *earlier*; recomputing from scratch at each event is not
    /// monotone and breaks the no-delay guarantee), kill counts, fault
    /// loss. ID-indexed; the streaming driver retires records as outcomes
    /// are reported so memory tracks live jobs, not trace length.
    pub(crate) jobs: JobArena,
    /// Simulation time of the last work-accounting advance.
    clock: f64,
    /// Wake-event generation; stale wakes are dropped.
    pub wake_gen: u64,
    pub head_delay_violations: usize,
    /// Jobs started this step: `(job, start, wait)`.
    pub started: Vec<(usize, f64, f64)>,
    /// Earliest future reservation-due instant (conservative only). A
    /// reservation coming due must be a simulation event: a due job that
    /// waits for the next departure instead would start *after* its quoted
    /// time, sliding its occupancy window past what every queued job's
    /// reservation assumed — which is exactly the head-delay cascade the
    /// discipline promises away.
    next_due: Option<f64>,
    /// Queue positions below this were scanned by the last backfill pass
    /// and found unstartable. Valid only while nothing frees capacity:
    /// between scans, time passing shrinks the shadow window and submits
    /// only append, so a failed candidate re-fails — the next scan may
    /// start at the watermark. Reset to 0 whenever capacity is released
    /// (departure, preemption, crash, heal). Never consulted in
    /// constrained mode, where window-fit checks slide with `now`.
    scan_watermark: usize,
    /// Whether capacity was released since the last conservative
    /// compression sweep. While clean, the profile only tightened (time
    /// advanced, reservations were added), so a fresh quote can never
    /// beat a pinned one and the O(queue²)-per-event sweep is skipped.
    resv_dirty: bool,
    /// The slot walk plus every conservative window, kept sorted across
    /// one compression pass (slot-set engine only). Reused between passes
    /// so quotes neither sort nor allocate.
    resv_profile: ResvProfile,
    /// The availability timeline (slot-set engine only).
    slots: SlotSet,
    quotas: Vec<QuotaRule>,
    /// Submitted jobs still gated on dependencies, in submission order.
    gated: Vec<usize>,
    advance: Vec<Advance>,
    /// Whether maintenance windows were pre-split into the slots. Sticky:
    /// once outages shape the timeline, window-fit checks stay on.
    calendar_applied: bool,
    /// Whether an unplanned-fault feed is attached. Gates every fault
    /// branch, so the zero-fault path stays bit-identical to the
    /// pre-fault engine.
    faults_active: bool,
    /// Per-node health; sized at [`attach_faults`](Self::attach_faults).
    health: Vec<NodeHealth>,
    /// Per-node instant until which the node is excluded from new work
    /// (crash repair end or degradation end); `0.0` = available.
    unavail_until: Vec<f64>,
    pub(crate) fault_events: Vec<FaultEvent>,
    pub(crate) fault_stats: FaultStats,
}

/// A completion or kill the caller must record.
pub(crate) enum Departure {
    Completed {
        job: usize,
        start: f64,
        end: f64,
        nodes: usize,
    },
    Killed {
        job: usize,
        start: f64,
        end: f64,
        nodes: usize,
    },
}

impl SiteState {
    pub fn new(
        pool: NodePool,
        placement: PlacementPolicy,
        discipline: Discipline,
        contention: ContentionParams,
        engine: SchedEngine,
    ) -> SiteState {
        let slots = SlotSet::new(0.0, pool.hierarchy().site());
        SiteState {
            pool,
            placement,
            discipline,
            contention,
            engine,
            queue: VecDeque::new(),
            running: Vec::new(),
            jobs: JobArena::default(),
            clock: 0.0,
            wake_gen: 0,
            head_delay_violations: 0,
            started: Vec::new(),
            next_due: None,
            scan_watermark: 0,
            resv_dirty: true,
            resv_profile: ResvProfile::default(),
            slots,
            quotas: Vec::new(),
            gated: Vec::new(),
            advance: Vec::new(),
            calendar_applied: false,
            faults_active: false,
            health: Vec::new(),
            unavail_until: Vec::new(),
            fault_events: Vec::new(),
            fault_stats: FaultStats::default(),
        }
    }

    /// Admit one job into the arena; returns its id. Batch drivers admit
    /// everything up front (ids == input indices); the streaming driver
    /// admits on arrival and retires on outcome.
    pub(crate) fn admit(&mut self, j: &SchedJob) -> usize {
        let mut rec = JobRec::new(JobView::of(j));
        rec.project = j.project;
        rec.deps = j.deps.clone();
        self.jobs.insert(rec)
    }

    /// Arm the fault branches: allocate the per-node health vectors and
    /// switch placement onto window-fit checks (a crash carve is a
    /// dynamic constraint exactly like an unscheduled maintenance
    /// window). Never called on the zero-fault path.
    pub(crate) fn attach_faults(&mut self) {
        self.faults_active = true;
        self.health = vec![NodeHealth::Healthy; self.pool.nodes()];
        self.unavail_until = vec![0.0; self.pool.nodes()];
    }

    /// Current health of `node` (Healthy when no feed is attached).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn node_health(&self, node: usize) -> NodeHealth {
        self.health.get(node).copied().unwrap_or_default()
    }

    /// Install the site's quota rules. Single-site drivers call this; the
    /// burst driver leaves them empty.
    pub(crate) fn set_quotas(&mut self, quotas: &[QuotaRule]) {
        self.quotas = quotas.to_vec();
    }

    /// Pre-split every maintenance window out of the slot set.
    pub(crate) fn apply_calendar(&mut self, calendar: &[Maintenance]) {
        self.calendar_applied = self.calendar_applied || !calendar.is_empty();
        for m in calendar {
            let procs = match &m.nodes {
                MaintNodes::All => self.pool.hierarchy().site(),
                MaintNodes::Rack(r) => self.pool.hierarchy().rack_set(*r),
                MaintNodes::Nodes(ids) => ProcSet::from_ids(ids),
            };
            self.slots.sub_window(m.begin, m.end, &procs);
        }
    }

    /// Pin an advance reservation: select concrete nodes against the
    /// window's availability and pre-split them out of the slot set.
    pub(crate) fn register_advance(
        &mut self,
        job: usize,
        start: f64,
        v: &JobView,
    ) -> Result<(), SchedError> {
        let cand = self.slots.window_avail(start, start + v.walltime);
        let picked = self
            .pool
            .hierarchy()
            .select(&cand, v.nodes, self.placement)
            .map_err(|_| SchedError::ReservationUnsatisfiable { job, at: start })?;
        let procs = ProcSet::from_ids(&picked);
        self.slots.sub_window(start, start + v.walltime, &procs);
        self.advance.push(Advance {
            job,
            start,
            walltime: v.walltime,
            procs,
            done: false,
        });
        Ok(())
    }

    /// True when something besides the running set shapes availability —
    /// the gate between the legacy-parity fast paths (instantaneous
    /// availability) and the full window-fit checks.
    fn constrained(&self) -> bool {
        !self.quotas.is_empty()
            || !self.advance.is_empty()
            || self.calendar_applied
            || self.faults_active
    }

    /// Account work done since the last advance at the current rates.
    pub fn advance(&mut self, now: f64) {
        let dt = now - self.clock;
        if dt > 0.0 {
            for r in &mut self.running {
                r.remaining -= dt / r.slowdown;
            }
        }
        self.clock = self.clock.max(now);
        if self.engine == SchedEngine::SlotSet {
            self.slots.truncate_before(self.clock);
        }
    }

    /// Queue a submitted job, or gate it on unfinished dependencies.
    /// Advance-reservation jobs never queue — the calendar starts them.
    pub(crate) fn submit(&mut self, job: usize) {
        if self.advance.iter().any(|a| a.job == job) {
            return;
        }
        if self.deps_done(job) {
            self.queue.push_back(job);
        } else {
            self.gated.push(job);
        }
    }

    fn deps_done(&self, job: usize) -> bool {
        self.jobs[job].deps.iter().all(|&d| self.jobs[d].departed)
    }

    /// Move every gated job whose dependencies have all departed into the
    /// queue, preserving submission order.
    fn release_gated(&mut self) {
        let mut i = 0;
        while i < self.gated.len() {
            let job = self.gated[i];
            if self.deps_done(job) {
                self.gated.remove(i);
                self.queue.push_back(job);
            } else {
                i += 1;
            }
        }
    }

    /// Pull out every job that has completed its work or hit its walltime
    /// by `now`. Call after `advance(now)`.
    pub fn departures(&mut self, now: f64) -> Vec<Departure> {
        let mut out = Vec::new();
        let mut i = 0;
        let mut released = false;
        while i < self.running.len() {
            let r = &self.running[i];
            if r.remaining <= EPS {
                let r = self.running.swap_remove(i);
                self.release_run(now, &r);
                released = true;
                out.push(Departure::Completed {
                    job: r.job,
                    start: r.start,
                    end: now,
                    nodes: r.nodes_held.len(),
                });
            } else if r.kill_at <= now + EPS {
                let r = self.running.swap_remove(i);
                self.release_run(now, &r);
                released = true;
                out.push(Departure::Killed {
                    job: r.job,
                    start: r.start,
                    end: now,
                    nodes: r.nodes_held.len(),
                });
            } else {
                i += 1;
            }
        }
        if released {
            self.capacity_released();
            if self.engine == SchedEngine::SlotSet {
                self.slots.merge();
            }
        }
        for d in &out {
            let job = match d {
                Departure::Completed { job, .. } | Departure::Killed { job, .. } => *job,
            };
            self.jobs[job].departed = true;
        }
        out
    }

    /// Return a departing run's nodes to the pool and to the unused tail
    /// of its slot window. A node still inside a fault exclusion (crash
    /// repair or drain window) only returns to the timeline where the
    /// exclusion ends — re-adding it from `now` would undo the carve.
    fn release_run(&mut self, now: f64, r: &Running) {
        self.pool.release(&r.nodes_held);
        if self.engine == SchedEngine::SlotSet && now < r.kill_at {
            if self.faults_active {
                let mut plain: Vec<usize> = Vec::new();
                for &n in &r.nodes_held {
                    let until = self.unavail_until[n];
                    if until > now + EPS {
                        if until < r.kill_at - EPS {
                            self.slots
                                .add_window(until, r.kill_at, &ProcSet::from_ids(&[n]));
                        }
                    } else {
                        plain.push(n);
                    }
                }
                if !plain.is_empty() {
                    self.slots
                        .add_window(now, r.kill_at, &ProcSet::from_ids(&plain));
                }
            } else {
                self.slots
                    .add_window(now, r.kill_at, &ProcSet::from_ids(&r.nodes_held));
            }
        }
    }

    /// Recompute every running job's slowdown from the current tenant mix.
    pub fn recompute_rates(&mut self) {
        let snapshot: Vec<(Vec<usize>, f64)> = self
            .running
            .iter()
            .map(|r| (r.racks.clone(), r.eff_cf))
            .collect();
        for (i, r) in self.running.iter_mut().enumerate() {
            if r.eff_cf <= 0.0 {
                r.slowdown = 1.0;
                continue;
            }
            let sharers: f64 = snapshot
                .iter()
                .enumerate()
                .filter(|(j, (racks, cf))| *j != i && *cf > 0.0 && share_links(&r.racks, racks))
                .map(|(_, (_, cf))| *cf)
                .sum();
            let m = self.contention.multiplier(sharers);
            r.slowdown = 1.0 - r.eff_cf + r.eff_cf * m;
        }
    }

    /// Earliest future event: a running job's completion estimate at
    /// current rates, a walltime kill, a drawn preemption, or (under
    /// conservative backfilling) the next reservation coming due.
    pub fn next_event(&self) -> Option<f64> {
        let run = self
            .running
            .iter()
            .map(|r| {
                let done = self.clock + r.remaining.max(0.0) * r.slowdown;
                let t = done.min(r.kill_at);
                match r.preempt_at {
                    Some(p) => t.min(p),
                    None => t,
                }
            })
            .min_by(|a, b| a.partial_cmp(b).expect("finite event times"));
        match (run, self.next_due) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    // -- Legacy free-node primitives -------------------------------------

    /// Walltime-based release profile of the running set: `(end, nodes)`
    /// sorted by end. Static upper bounds — never moved by contention.
    fn release_profile(&self) -> Vec<(f64, usize)> {
        let mut prof: Vec<(f64, usize)> = self
            .running
            .iter()
            .map(|r| (r.kill_at, self.jobs[r.job].view.nodes))
            .collect();
        prof.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite walltimes"));
        prof
    }

    /// EASY reservation for a job needing `need` nodes: `(shadow, extra)`,
    /// or `None` when the release profile never frees enough nodes (the
    /// caller surfaces that as a typed [`SchedError`]; validation makes it
    /// unreachable for well-formed inputs).
    fn easy_reservation(&self, need: usize) -> Option<(f64, usize)> {
        let mut free = self.pool.free_count();
        debug_assert!(free < need, "head would have started");
        for (end, n) in self.release_profile() {
            free += n;
            if free >= need {
                return Some((end, free - need));
            }
        }
        None
    }

    // -- Slot-set primitives ---------------------------------------------

    /// The slot walk from `now` on in the shape the legacy `Profile`
    /// consumed: appends one delta per later slot to `deltas` and returns
    /// the base level at `now` — what makes conservative quotes on the two
    /// engines bit-identical.
    fn slot_deltas(&self, now: f64, deltas: &mut Vec<(f64, i64)>) -> i64 {
        let slots = self.slots.slots();
        let i = self.slots.index_at(now);
        let base = slots[i].effective();
        let mut level = base;
        for s in &slots[i + 1..] {
            let l = s.effective();
            deltas.push((s.begin, l - level));
            level = l;
        }
        base
    }

    /// EASY reservation off the slot walk: earliest breakpoint where the
    /// head's whole walltime window fits, plus the spare level there. On an
    /// unconstrained (monotone) profile this is exactly the legacy
    /// release-walk crossing.
    fn easy_reservation_slot(&self, now: f64, need: usize, walltime: f64) -> Option<(f64, i64)> {
        let slots = self.slots.slots();
        let i = self.slots.index_at(now);
        let mut points = Vec::with_capacity(slots.len() - i);
        points.push((now, slots[i].effective()));
        for s in &slots[i + 1..] {
            points.push((s.begin, s.effective()));
        }
        let shadow = earliest_fit(&points, need as i64, walltime)?;
        Some((shadow, level_at(&points, shadow) - need as i64))
    }

    /// The procs a job starting now may be placed on, or `None` when the
    /// placement policy cannot carve its width out of them. Unconstrained
    /// runs use the instantaneous availability (the legacy semantics);
    /// constrained runs intersect the job's whole walltime window so a
    /// start can never collide with a maintenance outage or a pinned
    /// reservation downstream.
    fn placement_fit(&self, now: f64, v: &JobView) -> Option<ProcSet> {
        let cand = if self.constrained() {
            self.slots.window_avail(now, now + v.walltime)
        } else {
            self.slots.avail_at(now).clone()
        };
        if self
            .pool
            .hierarchy()
            .feasible(&cand, v.nodes, self.placement)
        {
            Some(cand)
        } else {
            None
        }
    }

    /// Admission gate: would starting `need` more nodes for `job`'s
    /// project break an active quota rule?
    fn quota_ok(&self, now: f64, job: usize, need: usize) -> bool {
        let Some(p) = self.jobs[job].project else {
            return true;
        };
        for q in &self.quotas {
            if q.project != p {
                continue;
            }
            if let Some((b, e)) = q.window {
                if now < b - EPS || now >= e - EPS {
                    continue;
                }
            }
            let usage: usize = self
                .running
                .iter()
                .filter(|r| self.jobs[r.job].project == Some(p))
                .map(|r| r.nodes_held.len())
                .sum();
            if usage + need > q.max_nodes {
                return false;
            }
        }
        true
    }

    /// Commit a moldable job to the shape with the earliest estimated
    /// finish against the current slot profile (ties: fewer nodes, then
    /// declaration order). Called once, at submission.
    pub(crate) fn choose_shape(
        &self,
        now: f64,
        j: &SchedJob,
    ) -> Result<Option<JobShape>, SchedError> {
        if j.shapes.is_empty() {
            return Ok(None);
        }
        let mut deltas = Vec::new();
        let base = self.slot_deltas(now, &mut deltas);
        let prof = Profile::new(now, base, deltas);
        let mut best: Option<(f64, usize, JobShape)> = None;
        for shape in &j.shapes {
            let start = prof.earliest(shape.nodes, shape.walltime).ok_or(
                SchedError::InsufficientNodes {
                    job: j.id,
                    need: shape.nodes,
                    limit: self.pool.nodes(),
                },
            )?;
            let finish = start + shape.runtime;
            let better = match &best {
                None => true,
                Some((f, n, _)) => {
                    finish < f - EPS || ((finish - f).abs() <= EPS && shape.nodes < *n)
                }
            };
            if better {
                best = Some((finish, shape.nodes, *shape));
            }
        }
        Ok(best.map(|(_, _, s)| s))
    }

    /// Start every pinned advance reservation whose time has come, on
    /// exactly its pre-split nodes.
    pub(crate) fn start_due_advance(&mut self, now: f64) -> Result<(), SchedError> {
        for i in 0..self.advance.len() {
            let (job, start, walltime, done) = {
                let a = &self.advance[i];
                (a.job, a.start, a.walltime, a.done)
            };
            if done || start > now + EPS {
                continue;
            }
            let procs = self.advance[i].procs.clone();
            let v = self.jobs[job].view;
            let held = self
                .pool
                .alloc_from(v.nodes, self.placement, &procs)
                .map_err(|_| SchedError::ReservationUnsatisfiable { job, at: start })?;
            // Kill at the pre-split window's exact end, so the departure
            // hands back precisely the slots the pin took.
            self.commence(job, now, &v, held, start + walltime, true);
            self.advance[i].done = true;
        }
        Ok(())
    }

    // -- Starting jobs ----------------------------------------------------

    /// Legacy path: allocate from the whole free pool.
    fn start_job(&mut self, pos: usize, now: f64) -> Result<(), SchedError> {
        let job = self.queue.remove(pos).expect("valid queue position");
        let v = self.jobs[job].view;
        let nodes_held = self.pool.alloc(v.nodes, self.placement)?;
        self.commence(job, now, &v, nodes_held, now + v.walltime, false);
        Ok(())
    }

    /// Slot path: allocate from the window's candidate procs and split the
    /// placement out of the slots over `[now, now + walltime)`.
    fn start_job_slot(&mut self, pos: usize, now: f64, cand: &ProcSet) -> Result<(), SchedError> {
        let job = self.queue.remove(pos).expect("valid queue position");
        let v = self.jobs[job].view;
        let nodes_held = self.pool.alloc_from(v.nodes, self.placement, cand)?;
        self.commence(job, now, &v, nodes_held, now + v.walltime, false);
        Ok(())
    }

    /// Shared tail of every start: record the reservation violation, split
    /// the slots (unless the window was pre-split by a pinned reservation),
    /// and push the running record.
    fn commence(
        &mut self,
        job: usize,
        now: f64,
        v: &JobView,
        nodes_held: Vec<usize>,
        kill_at: f64,
        presplit: bool,
    ) {
        if self.engine == SchedEngine::SlotSet && !presplit {
            self.slots
                .sub_window(now, kill_at, &ProcSet::from_ids(&nodes_held));
        }
        if let Some(promised) = self.jobs[job].reserved {
            if now > promised + EPS {
                self.head_delay_violations += 1;
            }
        }
        let racks = self.pool.racks_of(&nodes_held);
        let eff_cf = if nodes_held.len() > 1 {
            v.comm_fraction
        } else {
            0.0
        };
        self.running.push(Running {
            job,
            start: now,
            racks,
            eff_cf,
            remaining: v.runtime,
            slowdown: 1.0,
            kill_at,
            preempt_at: None,
            nodes_held,
        });
        // Clamp away the sub-ns residue of f64 -> SimTime rounding.
        let wait = (now - v.submit).max(0.0);
        self.started.push((job, now, wait));
    }

    /// Start every job the discipline allows at `now`. Starts are recorded
    /// in `self.started`; the caller recomputes rates afterwards.
    pub fn try_start(&mut self, now: f64) -> Result<(), SchedError> {
        self.release_gated();
        match (self.engine, self.discipline) {
            (SchedEngine::LegacyFreeNode, Discipline::Fcfs) => self.try_start_fcfs(now),
            (SchedEngine::LegacyFreeNode, Discipline::Easy) => self.try_start_backfill(now, true),
            (SchedEngine::LegacyFreeNode, Discipline::NaiveBackfill) => {
                self.try_start_backfill(now, false)
            }
            (SchedEngine::LegacyFreeNode, Discipline::Conservative) => {
                self.try_start_conservative(now)
            }
            (SchedEngine::SlotSet, Discipline::Fcfs) => self.try_start_fcfs_slot(now),
            (SchedEngine::SlotSet, Discipline::Easy) => self.try_start_backfill_slot(now, true),
            (SchedEngine::SlotSet, Discipline::NaiveBackfill) => {
                self.try_start_backfill_slot(now, false)
            }
            (SchedEngine::SlotSet, Discipline::Conservative) => {
                self.try_start_conservative_slot(now)
            }
        }
    }

    fn try_start_fcfs(&mut self, now: f64) -> Result<(), SchedError> {
        while let Some(&head) = self.queue.front() {
            if self.jobs[head].view.nodes > self.pool.free_count() {
                break;
            }
            self.start_job(0, now)?;
        }
        Ok(())
    }

    /// EASY (`respect_shadow`) and the naive foil (`!respect_shadow`) share
    /// a skeleton: start the head while it fits; otherwise reserve for the
    /// head and scan the rest of the queue for backfills — one pass, with
    /// starts taken in place. A start only removes capacity (free nodes
    /// shrink, `extra` shrinks or holds, the shadow holds: a window-fit
    /// start completes before it, an extra-fit start leaves the level at
    /// the shadow at or above the head's need), so every candidate that
    /// already failed re-fails and the historical restart-from-the-front
    /// rescan visits no new starts — this is the same schedule without the
    /// O(queue²) re-walk.
    fn try_start_backfill(&mut self, now: f64, respect_shadow: bool) -> Result<(), SchedError> {
        if self.backfill_fast_path() {
            return Ok(());
        }
        // Start the head while it fits.
        while let Some(&head) = self.queue.front() {
            if self.jobs[head].view.nodes > self.pool.free_count() {
                break;
            }
            self.start_job(0, now)?;
            self.scan_watermark = 0;
        }
        let Some(&head) = self.queue.front() else {
            self.scan_watermark = 0;
            return Ok(());
        };
        // Head blocked: quote (and pin) its reservation.
        let head_nodes = self.jobs[head].view.nodes;
        let quote = |st: &SiteState| {
            st.easy_reservation(head_nodes)
                .ok_or(SchedError::InsufficientNodes {
                    job: head,
                    need: head_nodes,
                    limit: st.pool.nodes(),
                })
        };
        let (mut shadow, mut extra) = quote(self)?;
        if self.jobs[head].reserved.is_none() {
            self.jobs[head].reserved = Some(shadow);
        }
        let mut pos = self.scan_watermark.max(1);
        while pos < self.queue.len() {
            let cand = self.queue[pos];
            let v = self.jobs[cand].view;
            if v.nodes > self.pool.free_count() {
                pos += 1;
                continue;
            }
            let fits_window = now + v.walltime <= shadow + EPS;
            let fits_extra = v.nodes <= extra;
            if respect_shadow && !fits_window && !fits_extra {
                pos += 1;
                continue;
            }
            self.start_job(pos, now)?;
            // The removal shifted the next candidate into `pos`; requote
            // against the new release profile (a start that consumed
            // extra nodes shrinks the recomputed extra automatically: its
            // walltime now sits in the profile past the shadow).
            (shadow, extra) = quote(self)?;
        }
        self.scan_watermark = self.queue.len();
        Ok(())
    }

    /// True when the last backfill scan covered the whole queue, nothing
    /// has released capacity since, and the blocked head already holds its
    /// pinned quote — every check would come out the same, so the pass is
    /// skipped outright. Only sound unconstrained: window-fit placement
    /// and quota windows move with `now` even without a release.
    fn backfill_fast_path(&self) -> bool {
        !self.constrained()
            && self.scan_watermark >= self.queue.len()
            && match self.queue.front() {
                Some(&head) => self.jobs[head].reserved.is_some(),
                None => true,
            }
    }

    /// Conservative backfilling with *persistent* reservations. A fresh
    /// quote is computed only once, on arrival, against the running set
    /// plus every existing reservation; after that the reservation may
    /// only be *compressed* — moved earlier when, holding all other
    /// reservations fixed, an earlier window is feasible. Re-quoting the
    /// whole queue from scratch at each event (the obvious implementation)
    /// silently breaks the no-delay guarantee: an early completion lets a
    /// predecessor re-pack earlier, and the re-flowed greedy profile can
    /// push a later job's window past its first quote.
    fn try_start_conservative(&mut self, now: f64) -> Result<(), SchedError> {
        self.next_due = None;
        let mut compress = self.resv_dirty;
        let mut any_start = false;
        loop {
            // Quote new arrivals in FCFS order, each against the running
            // set plus every reservation granted so far.
            for pos in 0..self.queue.len() {
                let job = self.queue[pos];
                if self.jobs[job].resv.is_some() {
                    continue;
                }
                let s = self.conservative_earliest(now, job)?;
                self.jobs[job].resv = Some(s);
                if self.jobs[job].reserved.is_none() {
                    self.jobs[job].reserved = Some(s);
                }
            }
            // Compression sweep: each job may move earlier while all
            // other reservations stay fixed, so the mutual feasibility of
            // the window set is preserved and no window ever moves later.
            // Skipped while no capacity has been released since the last
            // sweep: the profile only tightened (time advanced, quotes
            // were added), so no fresh quote can beat a pinned one.
            if compress {
                for pos in 0..self.queue.len() {
                    let job = self.queue[pos];
                    let s = self.conservative_earliest(now, job)?;
                    if s < self.jobs[job].resv.expect("quoted above") - EPS {
                        self.jobs[job].resv = Some(s);
                    }
                }
            }
            // Start the first job whose reservation has come due. Starting
            // occupies exactly the reserved window, so the remaining set
            // stays feasible; loop in case the compaction cascades.
            let due = (0..self.queue.len()).find(|&pos| {
                let job = self.queue[pos];
                self.jobs[job].resv.expect("quoted above") <= now + EPS
                    && self.jobs[job].view.nodes <= self.pool.free_count()
            });
            match due {
                Some(pos) => {
                    self.jobs[self.queue[pos]].resv = None;
                    self.start_job(pos, now)?;
                    // A start replaces a reservation window with real
                    // occupancy; keep the historical sweep-after-start.
                    compress = true;
                    any_start = true;
                }
                None => break,
            }
        }
        // A due start can shift a breakpoint by a sub-EPS residue (the
        // quote may sit up to EPS past `now`); leave the flag dirty so
        // the next event sweeps once more. Starts are rare, so the skip
        // still removes the O(queue²) cost from the common event.
        self.resv_dirty = any_start;
        // A reservation coming due must be a simulation event: a due job
        // that waited for the next departure would start after its quoted
        // time, sliding its occupancy past what every other window assumed.
        self.next_due = self
            .queue
            .iter()
            .filter_map(|&j| self.jobs[j].resv)
            .filter(|&s| s > now + EPS)
            .min_by(|a, b| a.partial_cmp(b).expect("finite reservations"));
        Ok(())
    }

    /// Earliest feasible start for `job` against the running set's walltime
    /// profile plus every *other* queued job's current reservation window.
    fn conservative_earliest(&self, now: f64, job: usize) -> Result<f64, SchedError> {
        let mut deltas: Vec<(f64, i64)> = self
            .release_profile()
            .into_iter()
            .map(|(t, n)| (t, n as i64))
            .collect();
        self.push_resv_deltas(now, Some(job), &mut deltas);
        let prof = Profile::new(now, self.pool.free_count() as i64, deltas);
        let v = self.jobs[job].view;
        prof.earliest(v.nodes, v.walltime)
            .ok_or(SchedError::InsufficientNodes {
                job,
                need: v.nodes,
                limit: self.pool.nodes(),
            })
    }

    /// Append every queued job's current reservation window, except
    /// `skip`'s, to a profile's delta list. Batched: the [`Profile`] is
    /// built (and its deltas sorted) exactly once per quote — the
    /// historical reserve-and-rebuild per window produced the identical
    /// final breakpoints from the same delta list, minus O(queue) redundant
    /// intermediate sorts nobody read.
    fn push_resv_deltas(&self, now: f64, skip: Option<usize>, deltas: &mut Vec<(f64, i64)>) {
        for &other in &self.queue {
            if Some(other) == skip {
                continue;
            }
            if let Some(s) = self.jobs[other].resv {
                let ov = self.jobs[other].view;
                let start = s.max(now);
                deltas.push((start, -(ov.nodes as i64)));
                deltas.push((start + ov.walltime, ov.nodes as i64));
            }
        }
    }

    // -- Slot-set disciplines --------------------------------------------

    fn try_start_fcfs_slot(&mut self, now: f64) -> Result<(), SchedError> {
        while let Some(&head) = self.queue.front() {
            let v = self.jobs[head].view;
            let Some(cand) = self.placement_fit(now, &v) else {
                break;
            };
            if !self.quota_ok(now, head, v.nodes) {
                break;
            }
            self.start_job_slot(0, now, &cand)?;
        }
        Ok(())
    }

    /// Unconstrained slot-set backfill: the same single-pass scan as the
    /// legacy skeleton (availability is instantaneous and monotone under
    /// starts, so in-place continuation and the cross-event watermark are
    /// bit-identical to the restart-scan). Constrained runs take the
    /// windowed re-scan below.
    fn try_start_backfill_slot(
        &mut self,
        now: f64,
        respect_shadow: bool,
    ) -> Result<(), SchedError> {
        if self.constrained() {
            return self.try_start_backfill_slot_windowed(now, respect_shadow);
        }
        if self.backfill_fast_path() {
            return Ok(());
        }
        // Start the head while it fits.
        loop {
            let Some(&head) = self.queue.front() else {
                self.scan_watermark = 0;
                return Ok(());
            };
            let hv = self.jobs[head].view;
            match self.placement_fit(now, &hv) {
                Some(cand) => {
                    self.start_job_slot(0, now, &cand)?;
                    self.scan_watermark = 0;
                }
                None => break,
            }
        }
        let head = *self.queue.front().expect("checked above");
        let hv = self.jobs[head].view;
        // Head blocked: quote (and pin) its reservation. Unconstrained,
        // a placement miss is the only block, so the pin is unconditional
        // (cf. the quota-blocked case in the windowed scan).
        let quote = |st: &SiteState| {
            st.easy_reservation_slot(now, hv.nodes, hv.walltime).ok_or(
                SchedError::InsufficientNodes {
                    job: head,
                    need: hv.nodes,
                    limit: st.pool.nodes(),
                },
            )
        };
        let (mut shadow, mut extra) = quote(self)?;
        if self.jobs[head].reserved.is_none() {
            self.jobs[head].reserved = Some(shadow);
        }
        // Width against the instantaneous free set bounds every placement:
        // no policy can carve `nodes` out of fewer procs. Checking it (and
        // the pure window tests) before the feasibility walk is
        // outcome-neutral — all checks must pass to start.
        let mut free_len = self.slots.avail_at(now).len();
        let mut pos = self.scan_watermark.max(1);
        while pos < self.queue.len() {
            let cand_job = self.queue[pos];
            let v = self.jobs[cand_job].view;
            if v.nodes > free_len {
                pos += 1;
                continue;
            }
            let fits_window = now + v.walltime <= shadow + EPS;
            let fits_extra = v.nodes as i64 <= extra;
            if respect_shadow && !fits_window && !fits_extra {
                pos += 1;
                continue;
            }
            let Some(cand) = self.placement_fit(now, &v) else {
                pos += 1;
                continue;
            };
            self.start_job_slot(pos, now, &cand)?;
            (shadow, extra) = quote(self)?;
            free_len = self.slots.avail_at(now).len();
        }
        self.scan_watermark = self.queue.len();
        Ok(())
    }

    /// Constrained (quota / calendar / advance / fault) backfill: every
    /// check is a window fit that slides with `now`, so each pass re-scans
    /// from the front and nothing is cached across events.
    fn try_start_backfill_slot_windowed(
        &mut self,
        now: f64,
        respect_shadow: bool,
    ) -> Result<(), SchedError> {
        'sched: loop {
            let Some(&head) = self.queue.front() else {
                return Ok(());
            };
            let hv = self.jobs[head].view;
            let head_fit = self.placement_fit(now, &hv);
            if let Some(cand) = &head_fit {
                if self.quota_ok(now, head, hv.nodes) {
                    let cand = cand.clone();
                    self.start_job_slot(0, now, &cand)?;
                    continue;
                }
            }
            // Head blocked: quote its reservation. Only a capacity block
            // pins a promise — an admission (quota) block is not the
            // scheduler's to promise around, and the quote below still
            // bounds what may backfill safely.
            let (shadow, extra) = self
                .easy_reservation_slot(now, hv.nodes, hv.walltime)
                .ok_or(SchedError::InsufficientNodes {
                    job: head,
                    need: hv.nodes,
                    limit: self.pool.nodes(),
                })?;
            if head_fit.is_none() && self.jobs[head].reserved.is_none() {
                self.jobs[head].reserved = Some(shadow);
            }
            for pos in 1..self.queue.len() {
                let cand_job = self.queue[pos];
                let v = self.jobs[cand_job].view;
                let Some(cand) = self.placement_fit(now, &v) else {
                    continue;
                };
                if !self.quota_ok(now, cand_job, v.nodes) {
                    continue;
                }
                let fits_window = now + v.walltime <= shadow + EPS;
                let fits_extra = v.nodes as i64 <= extra;
                if respect_shadow && !fits_window && !fits_extra {
                    continue;
                }
                self.start_job_slot(pos, now, &cand)?;
                continue 'sched;
            }
            return Ok(());
        }
    }

    /// [`Self::try_start_conservative`] over the slot walk, with the same
    /// quotes, compression and starts. Each pass sorts one
    /// [`ResvProfile`] — the slot walk plus every standing window — and
    /// each quote edits it in place: the job's own window comes out, the
    /// quote runs, the window goes back at its new or kept start. The
    /// profile a quote sees holds exactly the events of the legacy
    /// engine's from-scratch [`Profile`], so the quotes are bit-identical
    /// to its quotes, with no sort or allocation per quote.
    fn try_start_conservative_slot(&mut self, now: f64) -> Result<(), SchedError> {
        self.next_due = None;
        let mut compress = self.resv_dirty;
        let mut any_start = false;
        let mut prof = std::mem::take(&mut self.resv_profile);
        loop {
            let arrivals = self.queue.iter().any(|&j| self.jobs[j].resv.is_none());
            if arrivals || compress {
                prof.rebuild(now, |deltas| {
                    let base = self.slot_deltas(now, deltas);
                    self.push_resv_deltas(now, None, deltas);
                    base
                });
            }
            // Quote new arrivals in FCFS order against the slot walk plus
            // every window granted so far.
            for pos in 0..self.queue.len() {
                let job = self.queue[pos];
                if self.jobs[job].resv.is_some() {
                    continue;
                }
                let v = self.jobs[job].view;
                let s = prof.earliest(v.nodes, v.walltime, f64::INFINITY).ok_or(
                    SchedError::InsufficientNodes {
                        job,
                        need: v.nodes,
                        limit: self.pool.nodes(),
                    },
                )?;
                prof.add_window(s.max(now), v.walltime, v.nodes);
                self.jobs[job].resv = Some(s);
                if self.jobs[job].reserved.is_none() {
                    self.jobs[job].reserved = Some(s);
                }
            }
            // Same release-gated compression as the legacy loop; a degrade
            // only *restricts* the slot timeline, so it cannot open an
            // earlier window either. Only a start before the standing
            // `resv - EPS` moves a window, so the quote stops looking there.
            if compress {
                for pos in 0..self.queue.len() {
                    let job = self.queue[pos];
                    let v = self.jobs[job].view;
                    let resv = self.jobs[job].resv.expect("quoted above");
                    let moved = prof.requote(resv.max(now), v.walltime, v.nodes, resv - EPS);
                    if let Some(s) = moved {
                        prof.add_window(s.max(now), v.walltime, v.nodes);
                        self.jobs[job].resv = Some(s);
                    }
                }
            }
            // A due job must also clear the admission gate and the window
            // fit; one that does not stays queued (quotas may defer a
            // quoted start — admission control trumps the quote).
            let due = (0..self.queue.len()).find(|&pos| {
                let job = self.queue[pos];
                self.jobs[job].resv.expect("quoted above") <= now + EPS
                    && self.quota_ok(now, job, self.jobs[job].view.nodes)
                    && self.placement_fit(now, &self.jobs[job].view).is_some()
            });
            match due {
                Some(pos) => {
                    let job = self.queue[pos];
                    self.jobs[job].resv = None;
                    let cand = self
                        .placement_fit(now, &self.jobs[job].view)
                        .expect("checked in the due scan");
                    self.start_job_slot(pos, now, &cand)?;
                    // The start changed the slot walk: the next pass
                    // rebuilds the profile. One compression pass is not a
                    // fixed point, so the sweep after a start stays.
                    compress = true;
                    any_start = true;
                }
                None => break,
            }
        }
        self.resv_profile = prof;
        self.resv_dirty = any_start;
        self.next_due = self
            .queue
            .iter()
            .filter_map(|&j| self.jobs[j].resv)
            .filter(|&s| s > now + EPS)
            .min_by(|a, b| a.partial_cmp(b).expect("finite reservations"));
        Ok(())
    }

    // -- Preemption (multi-site) -----------------------------------------

    /// Pull out every running job whose drawn preemption time has come:
    /// `(job, start, nominal seconds of work still unfinished)`. The nodes
    /// are released; the in-flight run is lost. Call after `advance(now)`.
    pub fn take_preempted(&mut self, now: f64) -> Vec<(usize, f64, f64)> {
        let mut out = Vec::new();
        let mut i = 0;
        let mut released = false;
        while i < self.running.len() {
            if self.running[i].preempt_at.is_some_and(|p| p <= now + EPS) {
                let r = self.running.swap_remove(i);
                self.release_run(now, &r);
                released = true;
                // A revoked job requeues as a fresh arrival: the promise it
                // was quoted before it started (and ran!) is void.
                self.jobs[r.job].reserved = None;
                self.jobs[r.job].resv = None;
                out.push((r.job, r.start, r.remaining.max(0.0)));
            } else {
                i += 1;
            }
        }
        if released {
            self.capacity_released();
            if self.engine == SchedEngine::SlotSet {
                self.slots.merge();
            }
        }
        out
    }

    /// Capacity came back (departure, preemption, crash kill, heal): every
    /// cached "nothing fits" verdict is void.
    fn capacity_released(&mut self) {
        self.scan_watermark = 0;
        self.resv_dirty = true;
    }

    // -- Unplanned faults (slot-set engine only) --------------------------

    /// An unplanned `NodeCrash` at `now`: carve the node out of slot
    /// availability until `repair_end` (a dynamic pre-split, like
    /// maintenance but unscheduled), kill whatever was running on it, and
    /// void every queued job's quote — the capacity the quotes were
    /// computed against no longer exists. Returns the killed runs as
    /// `(job, start, nominal seconds unfinished, nodes held)`.
    pub(crate) fn crash_node(
        &mut self,
        now: f64,
        repair_end: f64,
        node: usize,
    ) -> Vec<(usize, f64, f64, usize)> {
        debug_assert!(self.faults_active && self.engine == SchedEngine::SlotSet);
        self.capacity_released();
        self.fault_stats.crashes += 1;
        self.slots
            .sub_window(now, repair_end, &ProcSet::from_ids(&[node]));
        self.unavail_until[node] = self.unavail_until[node].max(repair_end);
        self.health[node] = NodeHealth::Repairing;
        let mut out = Vec::new();
        let mut i = 0;
        let mut released = false;
        while i < self.running.len() {
            if self.running[i].nodes_held.contains(&node) {
                let r = self.running.swap_remove(i);
                self.release_run(now, &r);
                released = true;
                out.push((r.job, r.start, r.remaining.max(0.0), r.nodes_held.len()));
            } else {
                i += 1;
            }
        }
        if released {
            self.slots.merge();
        }
        self.void_queued_quotes();
        for &(j, ..) in &out {
            self.jobs[j].reserved = None;
            self.jobs[j].resv = None;
        }
        out
    }

    /// Void every queued job's quote after a fault shrank the timeline: a
    /// promise computed against capacity that no longer exists is not a
    /// promise the scheduler broke, and a stale conservative reservation
    /// would pin the re-quote loop to a window that may no longer exist.
    /// The next pass quotes the queue afresh, in FCFS order.
    fn void_queued_quotes(&mut self) {
        for k in 0..self.queue.len() {
            let j = self.queue[k];
            self.jobs[j].reserved = None;
            self.jobs[j].resv = None;
        }
    }

    /// A fail-slow signal (`NicDegrade`) on `node` lasting until `end`:
    /// the node is excluded from new placements and marked Suspect; when
    /// it hosts running work it escalates to Draining — the job finishes
    /// out rather than being killed. A node already down for repair stays
    /// Repairing (the crash dominates), but the exclusion still extends.
    /// Either way the exclusion can push back capacity that queued quotes
    /// counted on, so they are voided as a crash voids them.
    pub(crate) fn degrade_node(&mut self, now: f64, end: f64, node: usize) {
        debug_assert!(self.faults_active && self.engine == SchedEngine::SlotSet);
        self.slots.sub_window(now, end, &ProcSet::from_ids(&[node]));
        self.unavail_until[node] = self.unavail_until[node].max(end);
        self.void_queued_quotes();
        if self.health[node] == NodeHealth::Repairing {
            return;
        }
        let hosted = self
            .running
            .iter()
            .find(|r| r.nodes_held.contains(&node))
            .map(|r| r.job);
        match hosted {
            Some(job) => {
                self.health[node] = NodeHealth::Draining;
                self.fault_stats.drains += 1;
                self.fault_events.push(FaultEvent {
                    t: now,
                    action: FaultAction::Drain,
                    node,
                    job: Some(job),
                });
            }
            None => self.health[node] = NodeHealth::Suspect,
        }
    }

    /// Return every node whose exclusion has expired to Healthy. Crash
    /// repairs get a REPAIR attribution row; fail-slow nodes recover
    /// silently (nothing was killed, nothing to attribute).
    pub(crate) fn heal(&mut self, now: f64) {
        if !self.faults_active {
            return;
        }
        for n in 0..self.health.len() {
            if self.health[n] != NodeHealth::Healthy && self.unavail_until[n] <= now + EPS {
                self.capacity_released();
                if self.health[n] == NodeHealth::Repairing {
                    self.fault_stats.repairs += 1;
                    self.fault_events.push(FaultEvent {
                        t: now,
                        action: FaultAction::Repair,
                        node: n,
                        job: None,
                    });
                }
                self.health[n] = NodeHealth::Healthy;
                self.unavail_until[n] = 0.0;
            }
        }
    }

    /// Arm the spot-revocation timer on a just-started job.
    pub fn set_preempt_at(&mut self, job: usize, at: f64) {
        if let Some(r) = self.running.iter_mut().find(|r| r.job == job) {
            r.preempt_at = Some(at);
        }
    }

    /// First-quoted reservations, for invariant checks.
    pub fn reservations(&self) -> Vec<(usize, f64)> {
        self.jobs
            .iter()
            .filter_map(|(j, r)| r.reserved.map(|t| (j, t)))
            .collect()
    }
}

/// Configuration of a single-site simulation.
#[derive(Debug, Clone)]
pub struct SiteConfig {
    pub pool: NodePool,
    pub placement: PlacementPolicy,
    pub discipline: Discipline,
    pub contention: ContentionParams,
    pub engine: SchedEngine,
    pub calendar: Vec<Maintenance>,
    pub quotas: Vec<QuotaRule>,
    /// Seeded unplanned-fault feed; `None` (the default) keeps the
    /// zero-fault path bit-identical to the pre-fault engine.
    pub faults: Option<SiteFaults>,
}

impl SiteConfig {
    pub fn new(
        pool: NodePool,
        placement: PlacementPolicy,
        discipline: Discipline,
        contention: ContentionParams,
    ) -> SiteConfig {
        SiteConfig {
            pool,
            placement,
            discipline,
            contention,
            engine: SchedEngine::default(),
            calendar: Vec::new(),
            quotas: Vec::new(),
            faults: None,
        }
    }

    pub fn with_engine(mut self, engine: SchedEngine) -> SiteConfig {
        self.engine = engine;
        self
    }

    pub fn with_maintenance(mut self, m: Maintenance) -> SiteConfig {
        self.calendar.push(m);
        self
    }

    pub fn with_quota(mut self, q: QuotaRule) -> SiteConfig {
        self.quotas.push(q);
        self
    }

    pub fn with_faults(mut self, f: SiteFaults) -> SiteConfig {
        self.faults = Some(f);
        self
    }
}

pub(crate) fn validate(jobs: &[SchedJob], cfg: &SiteConfig) -> Result<(), SchedError> {
    use std::cmp::Ordering;
    // Windows must strictly increase; `partial_cmp` keeps NaN rejected.
    let increases = |a: f64, b: f64| a.partial_cmp(&b) == Some(Ordering::Less);
    let pool_nodes = cfg.pool.nodes();
    let legacy = cfg.engine == SchedEngine::LegacyFreeNode;
    for m in &cfg.calendar {
        if !increases(m.begin, m.end) || m.begin < 0.0 {
            return Err(SchedError::InvalidConfig {
                reason: format!("maintenance window [{}, {}) is inverted", m.begin, m.end),
            });
        }
        match &m.nodes {
            MaintNodes::Rack(r) if *r >= cfg.pool.n_racks() => {
                return Err(SchedError::InvalidConfig {
                    reason: format!("maintenance names rack {r} of {}", cfg.pool.n_racks()),
                })
            }
            MaintNodes::Nodes(ids) if ids.iter().any(|&n| n >= pool_nodes) => {
                return Err(SchedError::InvalidConfig {
                    reason: "maintenance names a node outside the pool".to_string(),
                })
            }
            _ => {}
        }
    }
    for q in &cfg.quotas {
        if q.max_nodes == 0 {
            return Err(SchedError::InvalidConfig {
                reason: format!("zero-node quota for project {}", q.project),
            });
        }
        if let Some((b, e)) = q.window {
            if !increases(b, e) {
                return Err(SchedError::InvalidConfig {
                    reason: format!("quota window [{b}, {e}) is inverted"),
                });
            }
        }
    }
    if legacy && !cfg.calendar.is_empty() {
        return Err(SchedError::LegacyEngineUnsupported {
            feature: "maintenance calendars",
        });
    }
    if legacy && !cfg.quotas.is_empty() {
        return Err(SchedError::LegacyEngineUnsupported {
            feature: "per-project quotas",
        });
    }
    if let Some(f) = &cfg.faults {
        if !f.model.is_null() {
            if legacy {
                return Err(SchedError::LegacyEngineUnsupported {
                    feature: "fault injection",
                });
            }
            if !f.mttr_secs.is_finite() || f.mttr_secs < 0.0 {
                return Err(SchedError::InvalidConfig {
                    reason: format!("fault MTTR {} is not a finite duration", f.mttr_secs),
                });
            }
            if !f.horizon_secs.is_finite() || f.horizon_secs <= 0.0 {
                return Err(SchedError::InvalidConfig {
                    reason: format!(
                        "fault horizon {} is not a positive duration",
                        f.horizon_secs
                    ),
                });
            }
        }
    }
    for (i, j) in jobs.iter().enumerate() {
        if legacy {
            if !j.deps.is_empty() {
                return Err(SchedError::LegacyEngineUnsupported {
                    feature: "job dependencies",
                });
            }
            if !j.shapes.is_empty() {
                return Err(SchedError::LegacyEngineUnsupported {
                    feature: "moldable jobs",
                });
            }
            if j.start_at.is_some() {
                return Err(SchedError::LegacyEngineUnsupported {
                    feature: "advance reservations",
                });
            }
        }
        // Field sanity for the rigid view: every downstream `expect` on
        // finite event times, walltimes and reservations leans on these
        // rejections — a NaN or infinite time entering the event queue
        // would otherwise panic deep inside a discipline.
        if !j.runtime.is_finite() || j.runtime <= 0.0 {
            return Err(SchedError::InvalidJob {
                job: i,
                reason: format!("runtime {} is not a positive finite duration", j.runtime),
            });
        }
        if !j.walltime.is_finite() || j.walltime <= 0.0 {
            return Err(SchedError::InvalidJob {
                job: i,
                reason: format!("walltime {} is not a positive finite duration", j.walltime),
            });
        }
        if !j.submit.is_finite() || j.submit < 0.0 {
            return Err(SchedError::InvalidJob {
                job: i,
                reason: format!("submit time {} is not finite and non-negative", j.submit),
            });
        }
        if !j.comm_fraction.is_finite() || !(0.0..=1.0).contains(&j.comm_fraction) {
            return Err(SchedError::InvalidJob {
                job: i,
                reason: format!("communication fraction {} outside [0, 1]", j.comm_fraction),
            });
        }
        let widths: Vec<usize> = if j.shapes.is_empty() {
            vec![j.nodes]
        } else {
            j.shapes.iter().map(|s| s.nodes).collect()
        };
        for &w in &widths {
            if w == 0 {
                return Err(SchedError::InvalidJob {
                    job: i,
                    reason: "zero-node shape".to_string(),
                });
            }
            if w > pool_nodes {
                return Err(SchedError::InsufficientNodes {
                    job: i,
                    need: w,
                    limit: pool_nodes,
                });
            }
            // RackStrict can never place a job wider than one rack.
            if cfg.placement == PlacementPolicy::RackStrict && w > cfg.pool.hierarchy().rack_size()
            {
                return Err(SchedError::InsufficientNodes {
                    job: i,
                    need: w,
                    limit: cfg.pool.hierarchy().rack_size(),
                });
            }
            // A windowless quota is a hard ceiling.
            if let Some(p) = j.project {
                for q in &cfg.quotas {
                    if q.project == p && q.window.is_none() && w > q.max_nodes {
                        return Err(SchedError::InsufficientNodes {
                            job: i,
                            need: w,
                            limit: q.max_nodes,
                        });
                    }
                }
            }
        }
        for s in &j.shapes {
            if !s.runtime.is_finite()
                || !s.walltime.is_finite()
                || !increases(0.0, s.runtime)
                || s.walltime < s.runtime
            {
                return Err(SchedError::InvalidJob {
                    job: i,
                    reason: "shape with non-finite or non-positive runtime, or walltime < runtime"
                        .to_string(),
                });
            }
        }
        if j.deps.iter().any(|&d| d >= jobs.len()) {
            return Err(SchedError::InvalidJob {
                job: i,
                reason: "dependency on an unknown job".to_string(),
            });
        }
        if let Some(t) = j.start_at {
            if !t.is_finite() {
                return Err(SchedError::InvalidJob {
                    job: i,
                    reason: format!("reservation start {t} is not finite"),
                });
            }
            if t < j.submit - EPS {
                return Err(SchedError::InvalidJob {
                    job: i,
                    reason: "reservation before submission".to_string(),
                });
            }
            if !j.deps.is_empty() || !j.shapes.is_empty() {
                return Err(SchedError::InvalidJob {
                    job: i,
                    reason: "advance reservations cannot be dependent or moldable".to_string(),
                });
            }
        }
    }
    // Dependency edges must form a DAG (a cycle waits on itself forever).
    let mut color = vec![0u8; jobs.len()]; // 0 white, 1 grey, 2 black
    fn dfs(v: usize, jobs: &[SchedJob], color: &mut [u8]) -> Result<(), SchedError> {
        color[v] = 1;
        for &d in &jobs[v].deps {
            match color[d] {
                1 => return Err(SchedError::DependencyCycle { job: d }),
                0 => dfs(d, jobs, color)?,
                _ => {}
            }
        }
        color[v] = 2;
        Ok(())
    }
    for v in 0..jobs.len() {
        if color[v] == 0 {
            dfs(v, jobs, &mut color)?;
        }
    }
    Ok(())
}

/// Run a job stream through one site's scheduler. Deterministic. Errors
/// are typed: fragmentation under a strict placement on the legacy engine,
/// unsatisfiable reservations, invalid configs — never a panic.
pub fn simulate_site(jobs: &[SchedJob], cfg: &SiteConfig) -> Result<SiteResult, SchedError> {
    #[derive(Clone, Copy)]
    enum Ev {
        Submit(usize),
        /// A static calendar instant (maintenance end, quota window end,
        /// reservation start, fault-window end): always valid, just
        /// re-runs the scheduler.
        Tick,
        Wake(u64),
        /// Unplanned `NodeCrash` window `k` of the pre-generated plan
        /// begins: kill co-located work, carve out the repair window.
        Crash(usize),
        /// Fail-slow `NicDegrade` window `k` begins: drain, don't kill.
        Degrade(usize),
        /// `(job, node)`: a killed job's backoff delay has elapsed.
        Requeue(usize, usize),
    }
    validate(jobs, cfg)?;
    let mut st = SiteState::new(
        cfg.pool.clone(),
        cfg.placement,
        cfg.discipline,
        cfg.contention,
        cfg.engine,
    );
    for j in jobs {
        st.admit(j);
    }
    st.set_quotas(&cfg.quotas);
    st.apply_calendar(&cfg.calendar);
    let mut q: EventQueue<Ev> = EventQueue::new();
    // Static wake-ups: only instants that can *enable* a start need an
    // event (window begins merely restrict, and are enforced inline).
    if cfg.engine == SchedEngine::SlotSet {
        for m in &cfg.calendar {
            q.push(SimTime::from_secs_f64(m.end), Ev::Tick);
        }
        for rule in &cfg.quotas {
            if let Some((_, e)) = rule.window {
                q.push(SimTime::from_secs_f64(e), Ev::Tick);
            }
        }
    }
    // Pre-generate the unplanned-fault plan. A null model leaves
    // `faults_active` off and every fault branch below dead — the
    // zero-fault path is the old path bit for bit.
    let mut crashes: Vec<FaultWindow> = Vec::new();
    let mut degrades: Vec<FaultWindow> = Vec::new();
    let mut requeue = RequeuePolicy::default();
    if let Some(f) = cfg.faults.as_ref().filter(|f| !f.model.is_null()) {
        st.attach_faults();
        requeue = f.requeue;
        (crashes, degrades) = f.slot_windows(cfg.pool.nodes());
        for (k, &(start, repair_end, _)) in crashes.iter().enumerate() {
            q.push(SimTime::from_secs_f64(start), Ev::Crash(k));
            q.push(SimTime::from_secs_f64(repair_end), Ev::Tick);
        }
        for (k, &(start, end, _)) in degrades.iter().enumerate() {
            q.push(SimTime::from_secs_f64(start), Ev::Degrade(k));
            q.push(SimTime::from_secs_f64(end), Ev::Tick);
        }
    }
    for (i, j) in jobs.iter().enumerate() {
        if let Some(start) = j.start_at {
            let v = st.jobs[i].view;
            st.register_advance(i, start, &v)?;
            q.push(SimTime::from_secs_f64(start), Ev::Tick);
        }
        q.push(SimTime::from_secs_f64(j.submit), Ev::Submit(i));
    }
    let mut out: Vec<Option<JobOutcome>> = vec![None; jobs.len()];
    while let Some((t, ev)) = q.pop() {
        let now = t.as_secs_f64();
        match ev {
            Ev::Submit(i) => {
                st.advance(now);
                if let Some(shape) = st.choose_shape(now, &jobs[i])? {
                    st.jobs[i].view.nodes = shape.nodes;
                    st.jobs[i].view.runtime = shape.runtime;
                    st.jobs[i].view.walltime = shape.walltime;
                }
                st.submit(i);
            }
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
                        // Retry budget exhausted: the job fails for good.
                        st.jobs[job].departed = true;
                        out[job] = Some(JobOutcome {
                            id: jobs[job].id,
                            start,
                            end: now,
                            wait: (start - v.submit).max(0.0),
                            inflation: ((now - start) - v.runtime).max(0.0),
                            completed: false,
                            nodes,
                            requeues: attempt,
                            fault_loss_s: st.jobs[job].fault_loss,
                        });
                    } else {
                        if retained > 0.0 {
                            // Checkpoint credit: the rerun owes only the
                            // un-checkpointed remainder plus the restore
                            // cost. The walltime is a static upper bound
                            // and never shrinks with it.
                            let restore = requeue.checkpoint.map_or(0.0, |ck| ck.restore_cost);
                            st.jobs[job].view.runtime = (v.runtime - retained + restore).max(EPS);
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
                // Deps were already satisfied when the job first started;
                // it re-enters the queue as a fresh arrival at the tail.
                st.queue.push_back(job);
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
            out[job] = Some(JobOutcome {
                id: jobs[job].id,
                start,
                end,
                wait: (start - st.jobs[job].view.submit).max(0.0),
                inflation: ((end - start) - st.jobs[job].view.runtime).max(0.0),
                completed,
                nodes,
                requeues: st.jobs[job].kills,
                fault_loss_s: st.jobs[job].fault_loss,
            });
        }
        st.heal(now);
        st.start_due_advance(now)?;
        st.try_start(now)?;
        st.started.clear();
        st.recompute_rates();
        st.wake_gen += 1;
        if let Some(te) = st.next_event() {
            q.push(SimTime::from_secs_f64(te.max(now)), Ev::Wake(st.wake_gen));
        }
    }
    let outcomes: Vec<JobOutcome> = out
        .into_iter()
        .map(|o| o.expect("every job departs"))
        .collect();
    let n = outcomes.len().max(1) as f64;
    let first_submit = jobs.iter().map(|j| j.submit).fold(f64::INFINITY, f64::min);
    let last_end = outcomes.iter().map(|o| o.end).fold(0.0, f64::max);
    Ok(SiteResult {
        makespan: if outcomes.is_empty() {
            0.0
        } else {
            last_end - first_submit
        },
        mean_wait: outcomes.iter().map(|o| o.wait).sum::<f64>() / n,
        total_inflation: outcomes.iter().map(|o| o.inflation).sum(),
        head_delay_violations: st.head_delay_violations,
        reservations: st.reservations(),
        fault_events: std::mem::take(&mut st.fault_events),
        fault_stats: st.fault_stats,
        outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(nodes: usize, rack: usize, d: Discipline) -> SiteConfig {
        SiteConfig::new(
            NodePool::new(nodes, rack),
            PlacementPolicy::Packed,
            d,
            ContentionParams::NONE,
        )
    }

    /// The canonical head-delay scenario: J0 holds 6/8 nodes until t=100;
    /// J1 (head) needs all 8; J2 is a 2-node, 150 s job.
    fn head_delay_jobs() -> Vec<SchedJob> {
        let mut j0 = SchedJob::new(0, 6, 0.0, 100.0, 0.0);
        j0.walltime = 100.0;
        let mut j1 = SchedJob::new(1, 8, 1.0, 50.0, 0.0);
        j1.walltime = 50.0;
        let mut j2 = SchedJob::new(2, 2, 2.0, 150.0, 0.0);
        j2.walltime = 150.0;
        vec![j0, j1, j2]
    }

    #[test]
    fn easy_rejects_head_delaying_backfill() {
        let r = simulate_site(&head_delay_jobs(), &cfg(8, 8, Discipline::Easy)).unwrap();
        // J2 must not backfill (ends at 152 > shadow 100, uses head nodes):
        // head starts exactly at the shadow.
        assert!((r.outcomes[1].start - 100.0).abs() < 1e-6, "{r:?}");
        assert_eq!(r.head_delay_violations, 0);
        // J2 runs after the head.
        assert!(r.outcomes[2].start >= 150.0 - 1e-6);
    }

    #[test]
    fn naive_backfill_delays_the_head() {
        let r = simulate_site(&head_delay_jobs(), &cfg(8, 8, Discipline::NaiveBackfill)).unwrap();
        // The naive rule starts J2 at t=2 on free nodes; the head can then
        // only start when J2 ends at t=152.
        assert!((r.outcomes[2].start - 2.0).abs() < 1e-6, "{r:?}");
        assert!((r.outcomes[1].start - 152.0).abs() < 1e-6, "{r:?}");
        assert_eq!(r.head_delay_violations, 1);
    }

    #[test]
    fn easy_backfills_within_the_shadow_window() {
        let mut jobs = head_delay_jobs();
        // A 2-node job short enough to finish before the shadow.
        jobs[2].runtime = 50.0;
        jobs[2].walltime = 50.0;
        let r = simulate_site(&jobs, &cfg(8, 8, Discipline::Easy)).unwrap();
        assert!((r.outcomes[2].start - 2.0).abs() < 1e-6, "{r:?}");
        assert!((r.outcomes[1].start - 100.0).abs() < 1e-6, "{r:?}");
        assert_eq!(r.head_delay_violations, 0);
    }

    #[test]
    fn conservative_honours_every_reservation() {
        let r = simulate_site(&head_delay_jobs(), &cfg(8, 8, Discipline::Conservative)).unwrap();
        assert_eq!(r.head_delay_violations, 0);
        // Conservative reserves J2 behind both: starts at 150.
        assert!((r.outcomes[1].start - 100.0).abs() < 1e-6, "{r:?}");
        assert!((r.outcomes[2].start - 150.0).abs() < 1e-6, "{r:?}");
    }

    #[test]
    fn fcfs_blocks_behind_the_head() {
        let r = simulate_site(&head_delay_jobs(), &cfg(8, 8, Discipline::Fcfs)).unwrap();
        assert!((r.outcomes[1].start - 100.0).abs() < 1e-6);
        assert!((r.outcomes[2].start - 150.0).abs() < 1e-6);
    }

    #[test]
    fn contention_inflates_colocated_comm_jobs() {
        // Two 2-node comm-heavy jobs in the same rack of a GigE-class
        // fabric: each sees the other as a sharer.
        let contention = ContentionParams {
            beta: 0.5,
            cap: 2.5,
        };
        let mk = |id, submit| {
            let mut j = SchedJob::new(id, 2, submit, 100.0, 0.8);
            j.walltime = 300.0;
            j
        };
        let cfg = SiteConfig::new(
            NodePool::new(4, 4),
            PlacementPolicy::Packed,
            Discipline::Fcfs,
            contention,
        );
        let r = simulate_site(&[mk(0, 0.0), mk(1, 0.0)], &cfg).unwrap();
        // Each job: slowdown = 1 - 0.8 + 0.8 * (1 + 0.5 * 0.8) = 1.32
        // while both run; the first to finish then runs uncontended — but
        // they're symmetric, so both finish at 132.
        for o in &r.outcomes {
            assert!(o.completed);
            assert!((o.inflation - 32.0).abs() < 0.5, "{o:?}");
        }
        // Solo control: no inflation.
        let solo = simulate_site(&[mk(0, 0.0)], &cfg).unwrap();
        assert!(solo.outcomes[0].inflation < 1e-6);
    }

    #[test]
    fn rack_aware_placement_avoids_cross_job_contention() {
        // Two 2-node jobs on a 2-rack pool: rack-aware puts them in
        // different racks (no shared links); scattered forces both across
        // the spine.
        let contention = ContentionParams {
            beta: 0.5,
            cap: 2.5,
        };
        let mk = |id| {
            let mut j = SchedJob::new(id, 2, 0.0, 100.0, 0.8);
            j.walltime = 300.0;
            j
        };
        let run = |placement| {
            let cfg = SiteConfig::new(NodePool::new(8, 4), placement, Discipline::Fcfs, contention);
            simulate_site(&[mk(0), mk(1)], &cfg)
                .unwrap()
                .total_inflation
        };
        // Packed best-fits both into rack 0 -> leaf contention.
        assert!(run(PlacementPolicy::Packed) > 10.0);
        assert!(run(PlacementPolicy::Scattered) > 10.0);
        assert!(run(PlacementPolicy::RackAware) < 1e-6);
    }

    #[test]
    fn walltime_overrun_kills_the_job() {
        let mut j = SchedJob::new(0, 2, 0.0, 100.0, 0.9);
        j.walltime = 100.0; // no headroom at all
        let mut rival = SchedJob::new(1, 2, 0.0, 100.0, 0.9);
        rival.walltime = 400.0;
        let cfg = SiteConfig::new(
            NodePool::new(4, 4),
            PlacementPolicy::Packed,
            Discipline::Fcfs,
            ContentionParams {
                beta: 0.5,
                cap: 2.5,
            },
        );
        let r = simulate_site(&[j, rival], &cfg).unwrap();
        assert!(!r.outcomes[0].completed, "{r:?}");
        assert!((r.outcomes[0].end - 100.0).abs() < 1e-6);
        assert!(r.outcomes[1].completed);
    }

    #[test]
    fn backfill_beats_fcfs_on_mean_wait() {
        let jobs = crate::job::lublin_mix(120, 16, 1.4, 42);
        let fcfs = simulate_site(&jobs, &cfg(16, 16, Discipline::Fcfs)).unwrap();
        let easy = simulate_site(&jobs, &cfg(16, 16, Discipline::Easy)).unwrap();
        assert!(easy.head_delay_violations == 0);
        assert!(
            easy.mean_wait <= fcfs.mean_wait,
            "easy {} vs fcfs {}",
            easy.mean_wait,
            fcfs.mean_wait
        );
        assert!(easy.makespan <= fcfs.makespan + 1e-6);
    }

    // -- Engine equivalence and the new capabilities ----------------------

    #[test]
    fn slot_engine_matches_the_legacy_oracle_on_a_seeded_mix() {
        let jobs = crate::job::lublin_mix(80, 16, 1.2, 7);
        for d in [
            Discipline::Fcfs,
            Discipline::Easy,
            Discipline::Conservative,
            Discipline::NaiveBackfill,
        ] {
            let slot = simulate_site(&jobs, &cfg(16, 4, d)).unwrap();
            let legacy = simulate_site(
                &jobs,
                &cfg(16, 4, d).with_engine(SchedEngine::LegacyFreeNode),
            )
            .unwrap();
            assert_eq!(slot.head_delay_violations, legacy.head_delay_violations);
            for (a, b) in slot.outcomes.iter().zip(&legacy.outcomes) {
                assert_eq!(a.start, b.start, "{} job {}", d.name(), a.id);
                assert_eq!(a.end, b.end, "{} job {}", d.name(), a.id);
                assert_eq!(a.nodes, b.nodes);
            }
        }
    }

    #[test]
    fn maintenance_window_forces_a_wait() {
        // All four nodes down over [10, 20): a job submitted at 5 whose
        // walltime crosses the outage must hold until the window clears.
        let mut j = SchedJob::new(0, 4, 5.0, 8.0, 0.0);
        j.walltime = 8.0;
        let c = cfg(4, 4, Discipline::Easy).with_maintenance(Maintenance {
            begin: 10.0,
            end: 20.0,
            nodes: MaintNodes::All,
        });
        let r = simulate_site(&[j], &c).unwrap();
        assert!((r.outcomes[0].start - 20.0).abs() < 1e-6, "{r:?}");
        assert!(r.outcomes[0].completed);
    }

    #[test]
    fn quota_caps_concurrent_project_nodes() {
        // Four 2-node jobs billed to project 0 with a 4-node cap: two run,
        // two wait for the first pair to depart.
        let jobs: Vec<SchedJob> = (0..4)
            .map(|i| {
                let mut j = SchedJob::new(i, 2, 0.0, 100.0, 0.0).with_project(0);
                j.walltime = 100.0;
                j
            })
            .collect();
        let c = cfg(8, 8, Discipline::Fcfs).with_quota(QuotaRule {
            project: 0,
            max_nodes: 4,
            window: None,
        });
        let r = simulate_site(&jobs, &c).unwrap();
        let early = r.outcomes.iter().filter(|o| o.start < 1e-6).count();
        assert_eq!(early, 2, "{r:?}");
        for o in &r.outcomes[2..] {
            assert!(o.start >= 100.0 - 1e-6, "{o:?}");
        }
    }

    #[test]
    fn dependency_gates_until_the_dep_departs() {
        let mut j0 = SchedJob::new(0, 2, 0.0, 100.0, 0.0);
        j0.walltime = 100.0;
        let j1 = SchedJob::new(1, 2, 0.0, 50.0, 0.0).with_deps(&[0]);
        let r = simulate_site(&[j0, j1], &cfg(8, 8, Discipline::Easy)).unwrap();
        assert!((r.outcomes[1].start - 100.0).abs() < 1e-6, "{r:?}");
        let cyclic = vec![
            SchedJob::new(0, 1, 0.0, 10.0, 0.0).with_deps(&[1]),
            SchedJob::new(1, 1, 0.0, 10.0, 0.0).with_deps(&[0]),
        ];
        assert!(matches!(
            simulate_site(&cyclic, &cfg(8, 8, Discipline::Easy)),
            Err(SchedError::DependencyCycle { .. })
        ));
    }

    #[test]
    fn moldable_job_commits_to_the_earliest_finishing_shape() {
        let j = SchedJob::new(0, 4, 0.0, 100.0, 0.0).with_shapes(&[
            JobShape {
                nodes: 4,
                runtime: 100.0,
                walltime: 100.0,
            },
            JobShape {
                nodes: 8,
                runtime: 60.0,
                walltime: 60.0,
            },
        ]);
        let r = simulate_site(&[j], &cfg(8, 8, Discipline::Easy)).unwrap();
        assert_eq!(r.outcomes[0].nodes, 8, "{r:?}");
        assert!((r.outcomes[0].end - 60.0).abs() < 1e-6);
        // With half the pool held, the wide shape queues behind a long
        // walltime while the narrow one starts immediately — narrow wins.
        let mut blocker = SchedJob::new(0, 4, 0.0, 500.0, 0.0);
        blocker.walltime = 500.0;
        let mold = SchedJob::new(1, 4, 1.0, 100.0, 0.0).with_shapes(&[
            JobShape {
                nodes: 4,
                runtime: 100.0,
                walltime: 100.0,
            },
            JobShape {
                nodes: 8,
                runtime: 60.0,
                walltime: 60.0,
            },
        ]);
        let r = simulate_site(&[blocker, mold], &cfg(8, 8, Discipline::Easy)).unwrap();
        assert_eq!(r.outcomes[1].nodes, 4, "{r:?}");
        assert!(r.outcomes[1].start < 2.0);
    }

    #[test]
    fn advance_reservation_starts_exactly_on_time() {
        // A 4-node reservation at t=500 pins nodes; a 4-node batch job
        // routes around the pin and runs immediately.
        let mut resv = SchedJob::new(0, 4, 0.0, 200.0, 0.0).at(500.0);
        resv.walltime = 200.0;
        let mut batch = SchedJob::new(1, 4, 0.0, 1000.0, 0.0);
        batch.walltime = 1000.0;
        let r = simulate_site(&[resv, batch], &cfg(8, 8, Discipline::Easy)).unwrap();
        assert!((r.outcomes[0].start - 500.0).abs() < 1e-6, "{r:?}");
        assert!(r.outcomes[1].start < 1e-6, "{r:?}");
        assert!(r.outcomes[0].completed && r.outcomes[1].completed);
    }

    #[test]
    fn legacy_engine_rejects_the_new_capabilities() {
        let dep = vec![
            SchedJob::new(0, 1, 0.0, 10.0, 0.0),
            SchedJob::new(1, 1, 0.0, 10.0, 0.0).with_deps(&[0]),
        ];
        let legacy = cfg(8, 8, Discipline::Easy).with_engine(SchedEngine::LegacyFreeNode);
        assert!(matches!(
            simulate_site(&dep, &legacy),
            Err(SchedError::LegacyEngineUnsupported {
                feature: "job dependencies"
            })
        ));
        let quota_cfg = cfg(8, 8, Discipline::Easy)
            .with_engine(SchedEngine::LegacyFreeNode)
            .with_quota(QuotaRule {
                project: 0,
                max_nodes: 4,
                window: None,
            });
        assert!(matches!(
            simulate_site(&[SchedJob::new(0, 1, 0.0, 10.0, 0.0)], &quota_cfg),
            Err(SchedError::LegacyEngineUnsupported { .. })
        ));
    }

    // -- Unplanned faults -------------------------------------------------

    /// A fail-stop-only model hot enough that an hour-long batch on a
    /// small pool is guaranteed several crash windows.
    fn crashy_model() -> sim_faults::FaultModel {
        sim_faults::FaultModel {
            name: "test-crashy",
            scale: 1.0,
            crash_per_node_hour: 2.0,
            crash_mean_secs: 60.0,
            ..sim_faults::FaultModel::none()
        }
    }

    fn fault_jobs(n: usize) -> Vec<SchedJob> {
        (0..n)
            .map(|i| {
                let mut j = SchedJob::new(i, 2, (i as f64) * 30.0, 600.0, 0.0);
                j.walltime = 1e5; // generous: only crashes can kill
                j
            })
            .collect()
    }

    #[test]
    fn null_fault_model_is_bitwise_inert() {
        let jobs = head_delay_jobs();
        let base = simulate_site(&jobs, &cfg(8, 8, Discipline::Easy)).unwrap();
        let nulled = cfg(8, 8, Discipline::Easy)
            .with_faults(SiteFaults::new(sim_faults::FaultModel::none(), 42));
        let r = simulate_site(&jobs, &nulled).unwrap();
        for (a, b) in base.outcomes.iter().zip(&r.outcomes) {
            assert_eq!(a.start.to_bits(), b.start.to_bits());
            assert_eq!(a.end.to_bits(), b.end.to_bits());
            assert_eq!(a.wait.to_bits(), b.wait.to_bits());
        }
        assert!(r.fault_events.is_empty());
        assert_eq!(r.fault_stats, FaultStats::default());
    }

    #[test]
    fn fault_runs_are_bit_identical_per_seed() {
        let jobs = fault_jobs(12);
        let mk = || {
            cfg(8, 4, Discipline::Easy)
                .with_faults(SiteFaults::new(crashy_model(), 7).with_mttr(300.0))
        };
        let a = simulate_site(&jobs, &mk()).unwrap();
        let b = simulate_site(&jobs, &mk()).unwrap();
        assert!(a.fault_stats.crashes > 0, "model not hot enough: {a:?}");
        assert_eq!(a.fault_stats, b.fault_stats);
        assert_eq!(a.fault_events, b.fault_events);
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.start.to_bits(), y.start.to_bits());
            assert_eq!(x.end.to_bits(), y.end.to_bits());
        }
    }

    #[test]
    fn crash_kills_requeue_and_eventually_finish() {
        let jobs = fault_jobs(8);
        let f = SiteFaults::new(crashy_model(), 3).with_mttr(120.0);
        let r = simulate_site(&jobs, &cfg(8, 4, Discipline::Easy).with_faults(f)).unwrap();
        assert!(r.fault_stats.kills > 0, "{:?}", r.fault_stats);
        // Every kill is either requeued or a terminal failure.
        let failed = r
            .outcomes
            .iter()
            .filter(|o| !o.completed && o.requeues > 0)
            .count();
        assert_eq!(r.fault_stats.requeues + failed, r.fault_stats.kills);
        // Attribution rows match the counters.
        let count = |a: FaultAction| r.fault_events.iter().filter(|e| e.action == a).count();
        assert_eq!(count(FaultAction::Kill), r.fault_stats.kills);
        assert_eq!(count(FaultAction::Requeue), r.fault_stats.requeues);
        assert_eq!(count(FaultAction::Repair), r.fault_stats.repairs);
        assert!(r.fault_stats.repairs <= r.fault_stats.crashes);
        // With a 16-retry default budget everything still completes.
        assert!(r.outcomes.iter().all(|o| o.completed), "{:?}", r.outcomes);
        assert!(r.outcomes.iter().any(|o| o.requeues > 0));
        assert!(r.fault_stats.work_lost_s > 0.0);
    }

    #[test]
    fn zero_retry_budget_fails_killed_jobs_for_good() {
        let jobs = fault_jobs(8);
        let retry = sim_faults::RetryPolicy {
            max_retries: 0,
            ..Default::default()
        };
        let f = SiteFaults::new(crashy_model(), 3)
            .with_mttr(120.0)
            .with_requeue(RequeuePolicy::default().with_retry(retry));
        let r = simulate_site(&jobs, &cfg(8, 4, Discipline::Easy).with_faults(f)).unwrap();
        assert!(r.fault_stats.kills > 0);
        assert_eq!(r.fault_stats.requeues, 0);
        for o in &r.outcomes {
            if o.requeues > 0 {
                assert!(!o.completed, "{o:?}");
                assert_eq!(o.requeues, 1);
            }
        }
    }

    #[test]
    fn checkpoints_salvage_work_lost_to_crashes() {
        let jobs = fault_jobs(8);
        let mk = |ck: Option<CheckpointSpec>| {
            let rq = RequeuePolicy {
                checkpoint: ck,
                ..Default::default()
            };
            let f = SiteFaults::new(crashy_model(), 5)
                .with_mttr(120.0)
                .with_requeue(rq);
            simulate_site(&jobs, &cfg(8, 4, Discipline::Easy).with_faults(f)).unwrap()
        };
        let plain = mk(None);
        assert!(plain.fault_stats.kills > 0);
        assert_eq!(plain.fault_stats.work_salvaged_s, 0.0);
        let ck = mk(Some(CheckpointSpec {
            interval: 30.0,
            restore_cost: 5.0,
        }));
        assert!(ck.fault_stats.work_salvaged_s > 0.0, "{:?}", ck.fault_stats);
    }

    #[test]
    fn degrade_drains_rather_than_kills() {
        let nic_model = sim_faults::FaultModel {
            name: "test-nicky",
            scale: 1.0,
            nic_per_node_hour: 2.0,
            nic_mean_secs: 300.0,
            nic_factor: 4.0,
            ..sim_faults::FaultModel::none()
        };
        let jobs = fault_jobs(8);
        let f = SiteFaults::new(nic_model, 11);
        let r = simulate_site(&jobs, &cfg(8, 4, Discipline::Easy).with_faults(f)).unwrap();
        // Fail-slow never kills; jobs all finish, some drains attributed.
        assert_eq!(r.fault_stats.kills, 0);
        assert_eq!(r.fault_stats.crashes, 0);
        assert!(r.outcomes.iter().all(|o| o.completed));
        assert!(r.fault_stats.drains > 0, "{:?}", r.fault_stats);
        assert!(r
            .fault_events
            .iter()
            .all(|e| e.action == FaultAction::Drain));
    }

    /// A drain that lands after the head was quoted pushes its window past
    /// the quote; the quote is voided and re-quoted against the drained
    /// timeline, so the late start is not a broken promise. Scripted:
    /// J0 holds 2 of 4 nodes until t=100; J1 (head, all 4 nodes) is quoted
    /// t=100 at t=1; idle node 3 drains over [50, 300).
    #[test]
    fn drain_voids_quotes_under_easy_and_conservative() {
        for d in [Discipline::Easy, Discipline::Conservative] {
            let mut st = SiteState::new(
                NodePool::new(4, 4),
                PlacementPolicy::Packed,
                d,
                ContentionParams::NONE,
                SchedEngine::SlotSet,
            );
            st.attach_faults();
            let mut j0 = SchedJob::new(0, 2, 0.0, 100.0, 0.0);
            j0.walltime = 100.0;
            let mut j1 = SchedJob::new(1, 4, 1.0, 50.0, 0.0);
            j1.walltime = 50.0;
            st.admit(&j0);
            st.admit(&j1);
            let step = |st: &mut SiteState, now: f64, ev: &dyn Fn(&mut SiteState)| {
                st.advance(now);
                ev(st);
                st.departures(now);
                st.heal(now);
                st.try_start(now).unwrap();
                st.started.clear();
            };
            step(&mut st, 0.0, &|st| st.submit(0));
            step(&mut st, 1.0, &|st| st.submit(1));
            assert_eq!(st.jobs[1].reserved, Some(100.0), "{}", d.name());
            step(&mut st, 50.0, &|st| st.degrade_node(50.0, 300.0, 3));
            assert_eq!(st.jobs[1].reserved, Some(300.0), "{}", d.name());
            step(&mut st, 100.0, &|_| {});
            assert!(st.running.iter().all(|r| r.job != 1), "{}", d.name());
            step(&mut st, 300.0, &|_| {});
            assert!(st.running.iter().any(|r| r.job == 1 && r.start == 300.0));
            assert_eq!(st.head_delay_violations, 0, "{}", d.name());
        }
    }

    /// Repair ends land on the event clock's grid, so the Tick that frees
    /// a node fires exactly at its slot boundary; an MTTR that puts the
    /// raw end off the grid must not leak into the timeline.
    #[test]
    fn crash_repair_ends_lie_on_the_event_clock() {
        let f = SiteFaults::new(crashy_model(), 3).with_mttr(1_200.000_000_000_3);
        let (crashes, _) = f.slot_windows(8);
        assert!(!crashes.is_empty());
        for (start, end, _) in crashes {
            assert!(end > start + 1200.0 - 1e-9, "{start} {end}");
            assert_eq!(SimTime::from_secs_f64(end).as_secs_f64(), end);
        }
    }

    #[test]
    fn node_health_lifecycle_transitions() {
        let mut st = SiteState::new(
            NodePool::new(4, 4),
            PlacementPolicy::Packed,
            Discipline::Easy,
            ContentionParams::NONE,
            SchedEngine::SlotSet,
        );
        st.attach_faults();
        assert_eq!(st.node_health(0), NodeHealth::Healthy);
        // Degrade an idle node: Suspect, then Healthy once it expires.
        st.degrade_node(0.0, 50.0, 1);
        assert_eq!(st.node_health(1), NodeHealth::Suspect);
        st.heal(49.0);
        assert_eq!(st.node_health(1), NodeHealth::Suspect);
        st.heal(50.0);
        assert_eq!(st.node_health(1), NodeHealth::Healthy);
        // Crash: Repairing until the repair window ends; a degrade signal
        // during repair does not demote the state.
        st.crash_node(60.0, 200.0, 2);
        assert_eq!(st.node_health(2), NodeHealth::Repairing);
        st.degrade_node(70.0, 100.0, 2);
        assert_eq!(st.node_health(2), NodeHealth::Repairing);
        st.heal(200.0);
        assert_eq!(st.node_health(2), NodeHealth::Healthy);
        assert_eq!(st.fault_stats.crashes, 1);
        assert_eq!(st.fault_stats.repairs, 1);
    }

    #[test]
    fn faults_on_legacy_engine_are_rejected() {
        let c = cfg(8, 8, Discipline::Easy)
            .with_engine(SchedEngine::LegacyFreeNode)
            .with_faults(SiteFaults::new(crashy_model(), 1));
        assert!(matches!(
            simulate_site(&fault_jobs(2), &c),
            Err(SchedError::LegacyEngineUnsupported {
                feature: "fault injection"
            })
        ));
    }
}
