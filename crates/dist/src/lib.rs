//! # hana-dist
//!
//! The scale-out layer of the platform (§2/§4: "from relational OLAP
//! database to big data infrastructure"): N in-process **nodes**, each
//! owning a hash- or range-partitioned fragment of a column table and
//! driving its local morsels on its own `hana-exec` pool, connected to
//! the coordinator by bounded [`Link`]s that model a network hop —
//! per-link row/byte accounting, deadlines, and injectable faults so the
//! federation retry/deadline machinery of `hana-sda` applies to
//! shuffles exactly as it does to remote sources.
//!
//! On top of the links sit the three classic exchange operators
//! ([`repartition`], [`broadcast`], [`gather`]), each reported as an
//! `exchange[…]` span with rows/bytes shuffled, plus partition pruning
//! ([`PartitionSpec::prune`]) counted via
//! `hana_dist_partitions_{scanned,pruned}_total`.
//!
//! The query side lives in `hana-query` (`PlanOp::DistScan`,
//! partition-wise partial aggregation, broadcast-build distributed hash
//! join); DDL/DML routing lives in `hana-core`.

mod exchange;
mod link;
mod node;
mod partition;
mod table;

pub use exchange::{broadcast, gather, repartition, transfer_accounted};
pub use link::{FaultPlan, Link, LinkStats, DEFAULT_CHUNK_ROWS};
pub use node::{DistNode, NodeHits};
pub use partition::PartitionSpec;
pub use table::{DistTable, NodeParts, PruneOutcome};

/// SplitMix64 — the deterministic pseudo-random primitive behind the
/// link fault schedules (same generator the `hana-sda` chaos adapter
/// uses, so seeded runs line up across layers).
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a random word onto `[0, 1)`.
pub(crate) fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 / (1u64 << 53) as f64
}
