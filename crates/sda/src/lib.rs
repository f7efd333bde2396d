//! # hana-sda
//!
//! **Smart Data Access** — the capability-based adapter framework of
//! §4.2–4.4: remote sources with capability property files, virtual
//! tables and virtual functions, predicate-pushdown lowering, and the
//! **remote materialization** cache that rewrites repeated federated
//! queries to read a CTAS-materialized temp table at the remote source
//! instead of re-running its MapReduce DAG.
//!
//! Adapters provided: `hiveodbc` (Hive over simulated ODBC), `hadoop`
//! (raw MR driver-class invocation), `iq` (the extended storage).
//!
//! ## Federation resilience
//!
//! Remote sources are slower and flakier than the in-memory core, so
//! the federation boundary carries the resilience machinery: every
//! remote call threads a [`RemoteContext`] (snapshot cid + deadline
//! budget + retry override + attempt trace), `execute_remote` retries
//! retryable errors with seeded-jitter exponential backoff
//! ([`RetryPolicy`]), a per-source three-state [`CircuitBreaker`]
//! fails fast while a source is down, and queries degrade to a
//! stale-but-bounded local copy ([`CacheOutcome::StaleFallback`])
//! instead of erroring when one is available. [`ChaosAdapter`] injects
//! deterministic seeded faults around any adapter for testing.

mod adapter;
mod breaker;
mod cache;
mod capability;
mod context;
mod fault;
mod pushdown;
mod registry;
mod retry;

pub use adapter::{
    HadoopMrAdapter, HiveOdbcAdapter, IqAdapter, RemoteStats, SdaAdapter, ODBC_ROWS,
};
pub use breaker::{BreakerConfig, BreakerState, BreakerStats, CircuitBreaker};
pub use cache::{CacheOutcome, RemoteCache, RemoteCacheConfig};
pub use capability::CapabilitySet;
pub use context::{AttemptRecord, RemoteContext};
pub use fault::{ChaosAdapter, ChaosConfig};
pub use pushdown::{expr_to_column_predicate, literal, lower_conjunct, split_pushdown};
pub use registry::{RemoteSource, RemoteSourceStats, SdaRegistry, VirtualFunction, VirtualTable};
pub use retry::{run_with_retry, RetryPolicy};
