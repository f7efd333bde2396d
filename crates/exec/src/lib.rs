//! # hana-exec
//!
//! Morsel-driven parallel execution engine — the "job executor" layer
//! of the platform. Scans and aggregations are sliced into cache-sized
//! [`Morsel`]s of row ids and handed to [`ExecContext::scatter`], one
//! fork-join over a fixed [`WorkerPool`] and the only place that
//! decides whether work runs serially or in parallel; statements queue
//! for the pool through the [`AdmissionController`]. Throughput and
//! utilization are reported into `hana-obs`.
//!
//! ```
//! use hana_exec::{ExecConfig, ExecContext};
//!
//! let ctx = ExecContext::new(ExecConfig::default().with_workers(4));
//! let morsels = ctx.morsels(1_000_000);
//! let partial_sums = ctx.scatter(morsels, |m| (m.start..m.end).map(|i| i as u64).sum::<u64>());
//! let total: u64 = partial_sums.into_iter().sum();
//! assert_eq!(total, 1_000_000u64 * 999_999 / 2);
//! ```

mod admission;
mod config;
mod context;
mod morsel;
mod pool;

pub use admission::{controller_of, AdmissionController, AdmissionPermit, ClassConfig, Rejection};
pub use config::{ExecConfig, DEFAULT_MORSEL_ROWS};
pub use context::ExecContext;
pub use morsel::{align_morsel_rows, morsels, Morsel};
pub use pool::{PoolMetricsSnapshot, WorkerPool};
