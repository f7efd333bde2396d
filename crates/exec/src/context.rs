//! The execution context: configuration + worker pool + metrics.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use hana_obs::{Counter, Histogram};

use crate::config::ExecConfig;
use crate::metrics::{MetricsRegistry, QueryGuard};
use crate::morsel::{morsels, Morsel};
use crate::pool::{PoolMetricsSnapshot, WorkerPool};

static GLOBAL: OnceLock<Arc<ExecContext>> = OnceLock::new();

/// One execution engine instance: a [`WorkerPool`], the [`ExecConfig`]
/// it was built from, and a [`MetricsRegistry`] for per-query counters.
///
/// Components normally share the process-wide [`ExecContext::global`]
/// (configured from the environment); tests build private contexts with
/// [`ExecContext::new`] to pin worker counts.
///
/// Besides the per-query [`MetricsRegistry`], every context reports
/// pool-level throughput into the global `hana-obs` registry:
/// `hana_exec_morsels_total`, `hana_exec_tasks_total`,
/// `hana_exec_scatters_total`, the `hana_exec_scatter_ns` latency
/// histogram, and the `hana_exec_pool_utilization_permille` /
/// `hana_exec_pool_queue_depth` gauges (refreshed on every scatter and
/// by [`ExecContext::pool_metrics`]).
pub struct ExecContext {
    config: ExecConfig,
    pool: Arc<WorkerPool>,
    registry: MetricsRegistry,
    obs_morsels: Arc<Counter>,
    obs_tasks: Arc<Counter>,
    obs_scatters: Arc<Counter>,
    obs_scatter_ns: Arc<Histogram>,
}

impl ExecContext {
    /// Build a context (and start its worker pool) from a config.
    pub fn new(config: ExecConfig) -> Arc<ExecContext> {
        let obs = hana_obs::registry();
        obs.gauge("hana_exec_workers").set(config.workers as i64);
        Arc::new(ExecContext {
            pool: WorkerPool::new(config.workers),
            registry: MetricsRegistry::new(),
            config,
            obs_morsels: obs.counter("hana_exec_morsels_total"),
            obs_tasks: obs.counter("hana_exec_tasks_total"),
            obs_scatters: obs.counter("hana_exec_scatters_total"),
            obs_scatter_ns: obs.histogram("hana_exec_scatter_ns"),
        })
    }

    /// The process-wide context, created on first use from
    /// [`ExecConfig::default`].
    pub fn global() -> &'static Arc<ExecContext> {
        GLOBAL.get_or_init(|| ExecContext::new(ExecConfig::default()))
    }

    /// The configuration this context was built with.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// The worker pool.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// The per-query metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Begin tracking a named query (see [`MetricsRegistry::begin_query`]).
    pub fn begin_query(&self, name: &str) -> QueryGuard {
        self.registry.begin_query(name)
    }

    /// Slice `[0, total_rows)` into morsels of the configured size.
    pub fn morsels(&self, total_rows: usize) -> Vec<Morsel> {
        let ms = morsels(total_rows, self.config.morsel_rows);
        self.obs_morsels.add(ms.len() as u64);
        ms
    }

    /// Fork-join over items on the pool (see [`WorkerPool::scatter`]).
    ///
    /// With a single worker (or a single item) there is nothing to
    /// overlap, so the items run inline on the calling thread — same
    /// results, same counters, none of the queue/wake overhead that
    /// made 1-worker "parallel" scans slower than serial ones.
    pub fn scatter<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        self.obs_tasks.add(items.len() as u64);
        self.obs_scatters.inc();
        let started = Instant::now();
        let out = if self.config.workers <= 1 || items.len() <= 1 {
            items.into_iter().map(f).collect()
        } else {
            self.pool.scatter(items, f)
        };
        self.obs_scatter_ns
            .record(started.elapsed().as_nanos() as u64);
        self.publish_pool_gauges();
        out
    }

    /// Pool utilization/load counters (also refreshes the pool gauges
    /// in the global `hana-obs` registry).
    pub fn pool_metrics(&self) -> PoolMetricsSnapshot {
        self.publish_pool_gauges()
    }

    fn publish_pool_gauges(&self) -> PoolMetricsSnapshot {
        let m = self.pool.metrics_snapshot();
        let obs = hana_obs::registry();
        obs.gauge("hana_exec_pool_utilization_permille")
            .set((m.utilization * 1000.0) as i64);
        obs.gauge("hana_exec_pool_queue_depth")
            .set(m.queue_depth as i64);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_runs_scatter_with_metrics() {
        let ctx = ExecContext::new(ExecConfig::default().with_workers(2).with_morsel_rows(64));
        let guard = ctx.begin_query("sum");
        let ms = ctx.morsels(1000);
        guard.metrics().add_morsels(ms.len() as u64);
        let parts = ctx.scatter(ms, |m| (m.start..m.end).sum::<usize>());
        drop(guard);
        assert_eq!(parts.iter().sum::<usize>(), (0..1000).sum::<usize>());
        let snap = ctx.metrics().snapshot("sum").unwrap();
        assert_eq!(snap.morsels, 16);
        assert!(snap.wall_nanos > 0);
    }

    #[test]
    fn global_context_is_singleton() {
        let a = Arc::as_ptr(ExecContext::global());
        let b = Arc::as_ptr(ExecContext::global());
        assert_eq!(a, b);
        assert!(ExecContext::global().config().workers >= 1);
    }
}
