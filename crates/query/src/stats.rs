//! Plan-time statistics access.
//!
//! [`StatsProvider`] is the planner's read-side view of the persisted
//! column statistics of `hana-columnar`: the catalog layer (`hana-core`)
//! implements it over its versioned stats registry, tests use
//! [`MemoryStatsProvider`], and [`NoStats`] is the default when no
//! provider is wired in (every predicate is then priced at its default
//! selectivity over the live row count).

use std::collections::HashMap;
use std::sync::Arc;

use hana_columnar::TableStatistics;
use parking_lot::RwLock;

/// Read-side access to persisted table statistics.
pub trait StatsProvider: Send + Sync {
    /// Table-level statistics, if a synopsis has been collected.
    fn table_stats(&self, table: &str) -> Option<Arc<TableStatistics>>;

    /// Per-partition statistics of a distributed table, in node order.
    fn partition_stats(&self, table: &str) -> Option<Arc<Vec<TableStatistics>>> {
        let _ = table;
        None
    }
}

/// The empty provider: every lookup misses, predicates are priced at
/// their default selectivities.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoStats;

impl StatsProvider for NoStats {
    fn table_stats(&self, _table: &str) -> Option<Arc<TableStatistics>> {
        None
    }
}

/// The shared default instance [`crate::PlannerContext::new`] points at.
pub static NO_STATS: NoStats = NoStats;

/// An in-memory provider for tests and benches.
#[derive(Default)]
pub struct MemoryStatsProvider {
    tables: RwLock<HashMap<String, Arc<TableStatistics>>>,
    partitions: RwLock<HashMap<String, Arc<Vec<TableStatistics>>>>,
}

impl MemoryStatsProvider {
    /// An empty provider.
    pub fn new() -> MemoryStatsProvider {
        MemoryStatsProvider::default()
    }

    /// Store (or replace) a table's synopsis.
    pub fn put(&self, stats: TableStatistics) {
        self.tables
            .write()
            .insert(stats.table.to_ascii_lowercase(), Arc::new(stats));
    }

    /// Store (or replace) a distributed table's per-partition synopses
    /// alongside their merged table-level view.
    pub fn put_partitions(&self, table: &str, parts: Vec<TableStatistics>) {
        let merged = TableStatistics::merge(table, &parts);
        self.partitions
            .write()
            .insert(table.to_ascii_lowercase(), Arc::new(parts));
        self.put(merged);
    }

    /// Drop a table's statistics.
    pub fn remove(&self, table: &str) {
        let key = table.to_ascii_lowercase();
        self.tables.write().remove(&key);
        self.partitions.write().remove(&key);
    }
}

impl StatsProvider for MemoryStatsProvider {
    fn table_stats(&self, table: &str) -> Option<Arc<TableStatistics>> {
        self.tables.read().get(&table.to_ascii_lowercase()).cloned()
    }

    fn partition_stats(&self, table: &str) -> Option<Arc<Vec<TableStatistics>>> {
        self.partitions
            .read()
            .get(&table.to_ascii_lowercase())
            .cloned()
    }
}
