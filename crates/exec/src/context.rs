//! The execution context: configuration + worker pool.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use hana_obs::{Counter, Gauge, Histogram};

use crate::config::ExecConfig;
use crate::morsel::{morsels, Morsel};
use crate::pool::{PoolMetricsSnapshot, WorkerPool};

static GLOBAL: OnceLock<Arc<ExecContext>> = OnceLock::new();

/// One execution engine instance: a [`WorkerPool`] and the
/// [`ExecConfig`] it was built from.
///
/// Components normally share the process-wide [`ExecContext::global`];
/// tests build private contexts with [`ExecContext::new`] to pin worker
/// counts and morsel sizes.
///
/// Every context reports its throughput into the global `hana-obs`
/// registry:
/// `hana_exec_morsels_total`, `hana_exec_tasks_total`,
/// `hana_exec_scatters_total`, the `hana_exec_scatter_ns` latency
/// histogram, and the `hana_exec_pool_utilization_permille` /
/// `hana_exec_pool_queue_depth` gauges (refreshed on every scatter and
/// by [`ExecContext::pool_metrics`]).
pub struct ExecContext {
    config: ExecConfig,
    pool: Arc<WorkerPool>,
    obs_morsels: Arc<Counter>,
    obs_tasks: Arc<Counter>,
    obs_scatters: Arc<Counter>,
    obs_scatter_ns: Arc<Histogram>,
    obs_utilization: Arc<Gauge>,
    obs_queue_depth: Arc<Gauge>,
}

impl ExecContext {
    /// Build a context (and start its worker pool) from a config.
    pub fn new(config: ExecConfig) -> Arc<ExecContext> {
        let obs = hana_obs::registry();
        obs.gauge("hana_exec_workers").set(config.workers as i64);
        Arc::new(ExecContext {
            pool: WorkerPool::new(config.workers),
            config,
            obs_morsels: obs.counter("hana_exec_morsels_total"),
            obs_tasks: obs.counter("hana_exec_tasks_total"),
            obs_scatters: obs.counter("hana_exec_scatters_total"),
            obs_scatter_ns: obs.histogram("hana_exec_scatter_ns"),
            obs_utilization: obs.gauge("hana_exec_pool_utilization_permille"),
            obs_queue_depth: obs.gauge("hana_exec_pool_queue_depth"),
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

    /// Slice `[0, total_rows)` into morsels of the configured size.
    pub fn morsels(&self, total_rows: usize) -> Vec<Morsel> {
        let ms = morsels(total_rows, self.config.morsel_rows);
        self.obs_morsels.add(ms.len() as u64);
        ms
    }

    /// Fork-join over items (see [`WorkerPool::scatter`]) — and the one
    /// place the engine decides between serial and parallel execution:
    /// callers slice their work into morsels and hand all of them over,
    /// however few. With a single worker or a single item there is
    /// nothing to overlap, so the items run inline on the calling
    /// thread — same results, same counters, no queue or wake-up.
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
        self.obs_utilization.set((m.utilization * 1000.0) as i64);
        self.obs_queue_depth.set(m.queue_depth as i64);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_over_morsels_is_the_same_serial_or_parallel() {
        let expected = (0..1000).sum::<usize>();
        for (workers, morsel_rows) in [(1, 64), (2, 64), (4, 128), (4, 65_536)] {
            let ctx = ExecContext::new(
                ExecConfig::default()
                    .with_workers(workers)
                    .with_morsel_rows(morsel_rows),
            );
            let ms = ctx.morsels(1000);
            assert_eq!(ms.len(), 1000usize.div_ceil(morsel_rows));
            let parts = ctx.scatter(ms, |m| (m.start..m.end).sum::<usize>());
            assert_eq!(parts.iter().sum::<usize>(), expected);
        }
    }

    #[test]
    fn global_context_is_singleton() {
        let a = Arc::as_ptr(ExecContext::global());
        let b = Arc::as_ptr(ExecContext::global());
        assert_eq!(a, b);
        assert!(ExecContext::global().config().workers >= 1);
    }
}
