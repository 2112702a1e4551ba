//! The canonical query type and its content address.
//!
//! A [`Query`] is everything that determines a simulation outcome:
//! workload × platform × rank count × placement policy × noise seed. Two
//! queries that encode to the same bytes *are* the same question, so the
//! cache is keyed on a hash of a **canonical byte encoding** — fixed tag
//! bytes plus little-endian fields, no `serde`, no platform-dependent
//! layout. The encoding is versioned ([`QUERY_ENCODING_VERSION`]) and
//! decodable, which is what lets snapshots ship query records verbatim.
//!
//! The content address is 128 bits: an FNV-1a 64 stream hash and an
//! independent splitmix64-chained hash over the same bytes. Either half
//! colliding is plausible at fleet scale (birthday bound ~2^32); both
//! halves colliding at once is not. On top of that the cache stores the
//! decoded [`Query`] in every entry and compares it on lookup, so even a
//! full 128-bit collision degrades to a miss, never to a wrong answer.

use crate::error::AdvisorError;
use sim_des::splitmix64;
use sim_platform::{presets, ClusterSpec, Strategy};
use sim_sweep::fnv64;
use workloads::{Chaste, Class, Kernel, MetUm, Npb, Workload};

/// Bumped whenever the canonical byte encoding changes shape. Baked into
/// every encoding (and therefore every content hash and snapshot record):
/// old snapshots simply fail to match.
pub const QUERY_ENCODING_VERSION: u8 = 1;

/// The seed queries default to — the same base seed
/// `cloudsim::Experiment` uses, so a default-seed query reproduces the
/// legacy `advise()` numbers bit for bit.
pub const DEFAULT_QUERY_SEED: u64 = 0x5EED_0000;

/// Which workload a query asks about, in canonical (buildable) form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadId {
    /// A NAS Parallel Benchmark kernel at a problem class.
    Npb { kernel: Kernel, class: Class },
    /// The MetUM atmosphere benchmark at a timestep count.
    MetUm { timesteps: u32 },
    /// The Chaste cardiac benchmark.
    Chaste { timesteps: u32, cg_iters: u32 },
}

impl From<workloads::WorkloadDesc> for WorkloadId {
    fn from(d: workloads::WorkloadDesc) -> WorkloadId {
        match d {
            workloads::WorkloadDesc::Npb { kernel, class } => WorkloadId::Npb { kernel, class },
            workloads::WorkloadDesc::MetUm { timesteps } => WorkloadId::MetUm { timesteps },
            workloads::WorkloadDesc::Chaste {
                timesteps,
                cg_iters,
            } => WorkloadId::Chaste {
                timesteps,
                cg_iters,
            },
        }
    }
}

impl WorkloadId {
    /// Build the op programs for `np` ranks.
    pub fn build(&self, np: usize) -> sim_mpi::JobSpec {
        match *self {
            WorkloadId::Npb { kernel, class } => Npb::new(kernel, class).build(np),
            WorkloadId::MetUm { timesteps } => MetUm {
                timesteps: timesteps as usize,
            }
            .build(np),
            WorkloadId::Chaste {
                timesteps,
                cg_iters,
            } => Chaste {
                timesteps: timesteps as usize,
                cg_iters: cg_iters as usize,
            }
            .build(np),
        }
    }

    /// Resident memory per rank (drives memory-aware placement on EC2).
    pub fn memory_per_rank_bytes(&self, np: usize) -> u64 {
        match *self {
            WorkloadId::Npb { kernel, class } => Npb::new(kernel, class).memory_per_rank_bytes(np),
            WorkloadId::MetUm { timesteps } => MetUm {
                timesteps: timesteps as usize,
            }
            .memory_per_rank_bytes(np),
            WorkloadId::Chaste {
                timesteps,
                cg_iters,
            } => Chaste {
                timesteps: timesteps as usize,
                cg_iters: cg_iters as usize,
            }
            .memory_per_rank_bytes(np),
        }
    }

    /// Whether the workload's builder can lay out `np` ranks: NPB kernels
    /// need their legal process counts (powers of two; perfect squares
    /// for BT/SP), MetUM and Chaste factor any positive count.
    pub fn valid_np(&self, np: usize) -> bool {
        match *self {
            WorkloadId::Npb { kernel, .. } => kernel.valid_np(np),
            WorkloadId::MetUm { .. } | WorkloadId::Chaste { .. } => np >= 1,
        }
    }

    /// Report name ("cg.A", "metum.n320l70.18steps", ...).
    pub fn name(&self) -> String {
        match *self {
            WorkloadId::Npb { kernel, class } => Npb::new(kernel, class).name(),
            WorkloadId::MetUm { timesteps } => MetUm {
                timesteps: timesteps as usize,
            }
            .name(),
            WorkloadId::Chaste {
                timesteps,
                cg_iters,
            } => Chaste {
                timesteps: timesteps as usize,
                cg_iters: cg_iters as usize,
            }
            .name(),
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            WorkloadId::Npb { kernel, class } => {
                out.push(0x01);
                out.push(kernel_tag(kernel));
                out.push(class_tag(class));
            }
            WorkloadId::MetUm { timesteps } => {
                out.push(0x02);
                out.extend_from_slice(&timesteps.to_le_bytes());
            }
            WorkloadId::Chaste {
                timesteps,
                cg_iters,
            } => {
                out.push(0x03);
                out.extend_from_slice(&timesteps.to_le_bytes());
                out.extend_from_slice(&cg_iters.to_le_bytes());
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<WorkloadId, AdvisorError> {
        match r.u8()? {
            0x01 => Ok(WorkloadId::Npb {
                kernel: kernel_from_tag(r.u8()?)?,
                class: class_from_tag(r.u8()?)?,
            }),
            0x02 => Ok(WorkloadId::MetUm {
                timesteps: r.u32()?,
            }),
            0x03 => Ok(WorkloadId::Chaste {
                timesteps: r.u32()?,
                cg_iters: r.u32()?,
            }),
            t => Err(AdvisorError::SnapshotCorrupt(format!(
                "unknown workload tag {t:#x}"
            ))),
        }
    }
}

/// Explicit tag tables: the canonical encoding must not shift if someone
/// reorders the upstream enums.
fn kernel_tag(k: Kernel) -> u8 {
    match k {
        Kernel::Bt => 0,
        Kernel::Cg => 1,
        Kernel::Ep => 2,
        Kernel::Ft => 3,
        Kernel::Is => 4,
        Kernel::Lu => 5,
        Kernel::Mg => 6,
        Kernel::Sp => 7,
    }
}

fn kernel_from_tag(t: u8) -> Result<Kernel, AdvisorError> {
    Ok(match t {
        0 => Kernel::Bt,
        1 => Kernel::Cg,
        2 => Kernel::Ep,
        3 => Kernel::Ft,
        4 => Kernel::Is,
        5 => Kernel::Lu,
        6 => Kernel::Mg,
        7 => Kernel::Sp,
        _ => {
            return Err(AdvisorError::SnapshotCorrupt(format!(
                "unknown kernel tag {t}"
            )))
        }
    })
}

fn class_tag(c: Class) -> u8 {
    match c {
        Class::S => 0,
        Class::W => 1,
        Class::A => 2,
        Class::B => 3,
        Class::C => 4,
    }
}

fn class_from_tag(t: u8) -> Result<Class, AdvisorError> {
    Ok(match t {
        0 => Class::S,
        1 => Class::W,
        2 => Class::A,
        3 => Class::B,
        4 => Class::C,
        _ => {
            return Err(AdvisorError::SnapshotCorrupt(format!(
                "unknown class tag {t}"
            )))
        }
    })
}

/// The three platforms of the study (paper Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlatformId {
    /// Vayu — the NCI supercomputer.
    Vayu,
    /// DCC — the private cloud.
    Dcc,
    /// EC2 — the public cloud (cc1.4xlarge cluster instances).
    Ec2,
}

impl PlatformId {
    /// All platforms, in the canonical report order.
    pub const ALL: [PlatformId; 3] = [PlatformId::Vayu, PlatformId::Dcc, PlatformId::Ec2];

    /// The platform's `ClusterSpec`.
    pub fn cluster(&self) -> ClusterSpec {
        match self {
            PlatformId::Vayu => presets::vayu(),
            PlatformId::Dcc => presets::dcc(),
            PlatformId::Ec2 => presets::ec2(),
        }
    }

    /// Short report name.
    pub fn name(&self) -> &'static str {
        match self {
            PlatformId::Vayu => "vayu",
            PlatformId::Dcc => "dcc",
            PlatformId::Ec2 => "ec2",
        }
    }

    fn tag(&self) -> u8 {
        match self {
            PlatformId::Vayu => 0,
            PlatformId::Dcc => 1,
            PlatformId::Ec2 => 2,
        }
    }

    fn from_tag(t: u8) -> Result<PlatformId, AdvisorError> {
        Ok(match t {
            0 => PlatformId::Vayu,
            1 => PlatformId::Dcc,
            2 => PlatformId::Ec2,
            _ => {
                return Err(AdvisorError::SnapshotCorrupt(format!(
                    "unknown platform tag {t}"
                )))
            }
        })
    }
}

/// How ranks are placed for the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryPolicy {
    /// The legacy `advise()` policy: memory-aware block packing on EC2
    /// when the workload declares a footprint, plain block otherwise.
    Auto,
    /// Plain block packing everywhere.
    Block,
    /// Spread over exactly `nodes` nodes (the paper's "EC2-4" runs).
    Spread { nodes: u32 },
}

impl QueryPolicy {
    /// Resolve to the engine's placement strategy for a concrete
    /// workload/platform/np.
    pub fn strategy(&self, workload: &WorkloadId, platform: PlatformId, np: usize) -> Strategy {
        match *self {
            QueryPolicy::Auto => {
                let mem = workload.memory_per_rank_bytes(np);
                if mem > 0 && platform == PlatformId::Ec2 {
                    Strategy::BlockMemoryAware {
                        per_rank_bytes: mem,
                    }
                } else {
                    Strategy::Block
                }
            }
            QueryPolicy::Block => Strategy::Block,
            QueryPolicy::Spread { nodes } => Strategy::Spread {
                nodes: nodes as usize,
            },
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            QueryPolicy::Auto => out.push(0x00),
            QueryPolicy::Block => out.push(0x01),
            QueryPolicy::Spread { nodes } => {
                out.push(0x02);
                out.extend_from_slice(&nodes.to_le_bytes());
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<QueryPolicy, AdvisorError> {
        match r.u8()? {
            0x00 => Ok(QueryPolicy::Auto),
            0x01 => Ok(QueryPolicy::Block),
            0x02 => Ok(QueryPolicy::Spread { nodes: r.u32()? }),
            t => Err(AdvisorError::SnapshotCorrupt(format!(
                "unknown policy tag {t:#x}"
            ))),
        }
    }
}

/// One capacity-planning question: workload × platform × ranks × policy ×
/// seed. Everything else about a simulation is derived from these five.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Query {
    pub workload: WorkloadId,
    pub platform: PlatformId,
    pub np: u32,
    pub policy: QueryPolicy,
    pub seed: u64,
}

/// The 128-bit content address of a query's canonical encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryKey(pub u128);

impl QueryKey {
    /// The 64 bits the cache uses for shard selection.
    pub fn shard_bits(&self) -> u64 {
        (self.0 >> 64) as u64
    }
}

impl Query {
    /// A query with the legacy advisor's defaults (auto policy, the
    /// `Experiment` base seed).
    pub fn new(workload: WorkloadId, platform: PlatformId, np: u32) -> Query {
        Query {
            workload,
            platform,
            np,
            policy: QueryPolicy::Auto,
            seed: DEFAULT_QUERY_SEED,
        }
    }

    pub fn with_policy(mut self, policy: QueryPolicy) -> Query {
        self.policy = policy;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Query {
        self.seed = seed;
        self
    }

    /// Cheap structural validation; full program validation happens in the
    /// engine on first build.
    pub fn validate(&self) -> Result<(), AdvisorError> {
        if self.np == 0 {
            return Err(AdvisorError::InvalidQuery("np must be >= 1".into()));
        }
        if !self.workload.valid_np(self.np as usize) {
            return Err(AdvisorError::InvalidQuery(format!(
                "np: {} does not run on {} ranks",
                self.workload.name(),
                self.np
            )));
        }
        if let QueryPolicy::Spread { nodes: 0 } = self.policy {
            return Err(AdvisorError::InvalidQuery(
                "Spread policy needs >= 1 node".into(),
            ));
        }
        Ok(())
    }

    /// The canonical byte encoding: version, workload, platform, np,
    /// policy, seed — fixed tags, little-endian fields.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        out.push(QUERY_ENCODING_VERSION);
        self.workload.encode(&mut out);
        out.push(self.platform.tag());
        out.extend_from_slice(&self.np.to_le_bytes());
        self.policy.encode(&mut out);
        out.extend_from_slice(&self.seed.to_le_bytes());
        out
    }

    /// Decode a canonical encoding (snapshot records). Rejects trailing
    /// garbage: a record is exactly one query.
    pub fn decode_canonical(bytes: &[u8]) -> Result<Query, AdvisorError> {
        let mut r = Reader { bytes, pos: 0 };
        let ver = r.u8()?;
        if ver != QUERY_ENCODING_VERSION {
            return Err(AdvisorError::SnapshotCorrupt(format!(
                "query encoding version {ver} (expected {QUERY_ENCODING_VERSION})"
            )));
        }
        let workload = WorkloadId::decode(&mut r)?;
        let platform = PlatformId::from_tag(r.u8()?)?;
        let np = r.u32()?;
        let policy = QueryPolicy::decode(&mut r)?;
        let seed = r.u64()?;
        if r.pos != bytes.len() {
            return Err(AdvisorError::SnapshotCorrupt(format!(
                "{} trailing bytes after query record",
                bytes.len() - r.pos
            )));
        }
        Ok(Query {
            workload,
            platform,
            np,
            policy,
            seed,
        })
    }

    /// The content address: two independent 64-bit hashes of the
    /// canonical bytes (FNV-1a and a splitmix64 chain).
    pub fn key(&self) -> QueryKey {
        let bytes = self.canonical_bytes();
        let fnv = fnv64(&bytes);
        let mut mix = 0x9E37_79B9_7F4A_7C15u64;
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            word[7] ^= chunk.len() as u8; // length-bind the final partial word
            mix = splitmix64(mix ^ u64::from_le_bytes(word));
        }
        QueryKey(((fnv as u128) << 64) | mix as u128)
    }
}

/// Minimal cursor over a byte slice with typed reads.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], AdvisorError> {
        if self.pos + n > self.bytes.len() {
            return Err(AdvisorError::SnapshotCorrupt(format!(
                "truncated record: wanted {n} bytes at offset {}",
                self.pos
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, AdvisorError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, AdvisorError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, AdvisorError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }
}

/// Every NPB kernel × class combination plus the two applications —
/// convenient fleet-building fodder for tests, benches and examples.
pub fn all_workloads() -> Vec<WorkloadId> {
    let mut ids = Vec::new();
    for kernel in [
        Kernel::Bt,
        Kernel::Cg,
        Kernel::Ep,
        Kernel::Ft,
        Kernel::Is,
        Kernel::Lu,
        Kernel::Mg,
        Kernel::Sp,
    ] {
        for class in [Class::S, Class::W, Class::A, Class::B, Class::C] {
            ids.push(WorkloadId::Npb { kernel, class });
        }
    }
    ids.push(WorkloadId::MetUm { timesteps: 18 });
    ids.push(WorkloadId::Chaste {
        timesteps: 250,
        cg_iters: 30,
    });
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Query {
        Query::new(
            WorkloadId::Npb {
                kernel: Kernel::Cg,
                class: Class::A,
            },
            PlatformId::Ec2,
            32,
        )
    }

    #[test]
    fn encoding_round_trips() {
        let queries = [
            sample(),
            sample().with_seed(77).with_policy(QueryPolicy::Block),
            Query::new(WorkloadId::MetUm { timesteps: 18 }, PlatformId::Vayu, 64)
                .with_policy(QueryPolicy::Spread { nodes: 4 }),
            Query::new(
                WorkloadId::Chaste {
                    timesteps: 250,
                    cg_iters: 30,
                },
                PlatformId::Dcc,
                8,
            ),
        ];
        for q in queries {
            let bytes = q.canonical_bytes();
            let back = Query::decode_canonical(&bytes).unwrap();
            assert_eq!(q, back);
            assert_eq!(q.key(), back.key());
        }
    }

    #[test]
    fn decode_rejects_trailing_and_truncated() {
        let mut bytes = sample().canonical_bytes();
        bytes.push(0);
        assert!(matches!(
            Query::decode_canonical(&bytes),
            Err(AdvisorError::SnapshotCorrupt(_))
        ));
        let bytes = sample().canonical_bytes();
        assert!(matches!(
            Query::decode_canonical(&bytes[..bytes.len() - 1]),
            Err(AdvisorError::SnapshotCorrupt(_))
        ));
    }

    #[test]
    fn every_field_changes_the_key() {
        let base = sample();
        let variants = [
            base.with_seed(1),
            base.with_policy(QueryPolicy::Block),
            Query { np: 33, ..base },
            Query {
                platform: PlatformId::Dcc,
                ..base
            },
            Query {
                workload: WorkloadId::Npb {
                    kernel: Kernel::Mg,
                    class: Class::A,
                },
                ..base
            },
        ];
        for v in variants {
            assert_ne!(base.key(), v.key(), "{v:?}");
        }
    }

    #[test]
    fn validate_catches_degenerate_queries() {
        let mut q = sample();
        q.np = 0;
        assert!(matches!(q.validate(), Err(AdvisorError::InvalidQuery(_))));
        let q = sample().with_policy(QueryPolicy::Spread { nodes: 0 });
        assert!(matches!(q.validate(), Err(AdvisorError::InvalidQuery(_))));
        assert!(sample().validate().is_ok());
    }

    #[test]
    fn validate_rejects_rank_counts_the_kernel_cannot_run() {
        // (kernel, illegal np, a legal neighbour)
        for (kernel, np, legal) in [
            (Kernel::Bt, 8, 9),
            (Kernel::Sp, 2, 4),
            (Kernel::Cg, 12, 16),
            (Kernel::Lu, 24, 32),
        ] {
            let q = Query::new(
                WorkloadId::Npb {
                    kernel,
                    class: Class::S,
                },
                PlatformId::Vayu,
                np,
            );
            assert!(
                matches!(q.validate(), Err(AdvisorError::InvalidQuery(_))),
                "{} np={np}",
                kernel.name()
            );
            let q = Query { np: legal, ..q };
            assert!(q.validate().is_ok(), "{} np={legal}", kernel.name());
        }
        // MetUM and Chaste factor any positive rank count.
        let metum = Query::new(WorkloadId::MetUm { timesteps: 2 }, PlatformId::Dcc, 24);
        assert!(metum.validate().is_ok());
    }

    #[test]
    fn tag_tables_round_trip() {
        for k in [
            Kernel::Bt,
            Kernel::Cg,
            Kernel::Ep,
            Kernel::Ft,
            Kernel::Is,
            Kernel::Lu,
            Kernel::Mg,
            Kernel::Sp,
        ] {
            assert_eq!(kernel_from_tag(kernel_tag(k)).unwrap(), k);
        }
        for c in [Class::S, Class::W, Class::A, Class::B, Class::C] {
            assert_eq!(class_from_tag(class_tag(c)).unwrap(), c);
        }
        for p in PlatformId::ALL {
            assert_eq!(PlatformId::from_tag(p.tag()).unwrap(), p);
        }
    }
}
