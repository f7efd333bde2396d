//! # hana-exec
//!
//! Morsel-driven parallel execution engine — the "job executor" layer
//! of the platform. Scans and aggregations are sliced into cache-sized
//! [`Morsel`]s of row ids and scheduled on a fixed [`WorkerPool`] with
//! per-worker work-stealing deques; multi-stage pipelines run as a
//! dependency-ordered [`TaskGraph`]; per-query and per-pool counters
//! are exposed as plain snapshot structs via [`MetricsRegistry`].
//!
//! ```
//! use hana_exec::{ExecConfig, ExecContext};
//!
//! let ctx = ExecContext::new(ExecConfig::default().with_workers(4));
//! let query = ctx.begin_query("demo");
//! let morsels = ctx.morsels(1_000_000);
//! query.metrics().add_morsels(morsels.len() as u64);
//! let partial_sums = ctx.scatter(morsels, |m| (m.start..m.end).map(|i| i as u64).sum::<u64>());
//! let total: u64 = partial_sums.into_iter().sum();
//! assert_eq!(total, 1_000_000u64 * 999_999 / 2);
//! ```

mod admission;
mod config;
mod context;
mod graph;
mod metrics;
mod morsel;
mod pool;

pub use admission::{controller_of, AdmissionController, AdmissionPermit, ClassConfig, Rejection};
pub use config::{ExecConfig, DEFAULT_MORSEL_ROWS};
pub use context::ExecContext;
pub use graph::{GraphError, TaskGraph, TaskId};
pub use metrics::{
    current_query_metrics, MetricsRegistry, QueryGuard, QueryMetrics, QueryMetricsSnapshot,
};
pub use morsel::{align_morsel_rows, morsels, Morsel};
pub use pool::{PoolMetricsSnapshot, WorkerPool};
