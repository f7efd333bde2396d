//! The platform catalog: the single point of access for name
//! resolution across every storage location of Figure 1.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use hana_columnar::TableStatistics;
use hana_iq::IqEngine;
use hana_query::{Catalog, StatsProvider, TableFunction, TableSource};
use hana_sda::SdaRegistry;
use hana_types::{HanaError, Result};

/// Persisted statistics of one table: the merged table-level synopsis
/// plus, for distributed tables, the per-partition synopses in node
/// order. `version` records the catalog version at collection time so
/// staleness is observable.
#[derive(Clone)]
pub struct StatsEntry {
    /// Merged table-level synopsis.
    pub table: Arc<TableStatistics>,
    /// Per-partition synopses (distributed tables only).
    pub partitions: Option<Arc<Vec<TableStatistics>>>,
    /// Catalog version when collected.
    pub version: u64,
}

/// Catalog metadata per table (beyond what the query layer needs).
#[derive(Debug, Clone, PartialEq)]
pub enum TableKindInfo {
    /// In-memory column table.
    Column,
    /// In-memory row table.
    Row,
    /// Fully in the extended storage.
    Extended,
    /// Hybrid: hot in memory, cold extended; aged by the flag column.
    Hybrid {
        /// The dedicated aging flag column.
        aging_column: String,
        /// The cold partition's IQ table.
        cold_table: String,
    },
    /// Virtual table at a remote source.
    Virtual,
    /// Partitioned across the in-process node landscape.
    Distributed {
        /// The `PARTITION BY` clause, kept for backup/restore DDL.
        partition: hana_sql::PartitionBy,
    },
}

/// One catalog entry.
#[derive(Clone)]
pub struct TableEntry {
    /// Where the data lives.
    pub source: TableSource,
    /// Kind metadata.
    pub kind: TableKindInfo,
}

/// The platform catalog.
pub struct PlatformCatalog {
    tables: RwLock<HashMap<String, TableEntry>>,
    functions: RwLock<HashMap<String, Arc<dyn TableFunction>>>,
    sda: SdaRegistry,
    iq_engines: RwLock<HashMap<String, Arc<IqEngine>>>,
    /// Persisted column statistics, keyed like `tables`. Refreshed at
    /// delta-merge and bulk-load time; dropped with the table.
    stats: RwLock<HashMap<String, StatsEntry>>,
    /// Monotonic version, bumped on every metadata change (DDL, function
    /// registration, delta merges). Cached plans are keyed on it: a plan
    /// compiled under version N is stale once the version moves past N.
    version: AtomicU64,
}

impl PlatformCatalog {
    /// An empty catalog.
    pub fn new() -> PlatformCatalog {
        PlatformCatalog {
            tables: RwLock::new(HashMap::new()),
            functions: RwLock::new(HashMap::new()),
            sda: SdaRegistry::new(),
            iq_engines: RwLock::new(HashMap::new()),
            stats: RwLock::new(HashMap::new()),
            version: AtomicU64::new(0),
        }
    }

    /// Current catalog version. Plans compiled under an older version
    /// must be recompiled.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Bump the catalog version. Called internally on every metadata
    /// mutation, and by the platform for changes the catalog cannot see
    /// itself (e.g. a delta merge rewriting a table's main fragment).
    pub fn bump_version(&self) -> u64 {
        self.version.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Register an IQ engine under an SDA source name (the "shielded"
    /// internal extended storage).
    pub fn register_iq_engine(&self, source: &str, engine: Arc<IqEngine>) {
        self.iq_engines
            .write()
            .insert(source.to_ascii_lowercase(), engine);
    }

    /// Add a table entry; errors on duplicates.
    pub fn add_table(&self, name: &str, entry: TableEntry) -> Result<()> {
        let key = name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        if tables.contains_key(&key) {
            return Err(HanaError::Catalog(format!("table '{name}' already exists")));
        }
        tables.insert(key, entry);
        drop(tables);
        self.bump_version();
        Ok(())
    }

    /// Remove and return a table entry. The table's persisted
    /// statistics are dropped with it.
    pub fn remove_table(&self, name: &str) -> Result<TableEntry> {
        let key = name.to_ascii_lowercase();
        let removed = self
            .tables
            .write()
            .remove(&key)
            .ok_or_else(|| HanaError::Catalog(format!("unknown table '{name}'")))?;
        self.stats.write().remove(&key);
        self.bump_version();
        Ok(removed)
    }

    /// Look up a table entry.
    pub fn table(&self, name: &str) -> Result<TableEntry> {
        self.tables
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| HanaError::Catalog(format!("unknown table '{name}'")))
    }

    /// Whether a table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.read().contains_key(&name.to_ascii_lowercase())
    }

    /// All table names with their kind labels.
    pub fn list_tables(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = self
            .tables
            .read()
            .iter()
            .map(|(n, e)| {
                let kind = match &e.kind {
                    TableKindInfo::Column => "COLUMN",
                    TableKindInfo::Row => "ROW",
                    TableKindInfo::Extended => "EXTENDED",
                    TableKindInfo::Hybrid { .. } => "HYBRID",
                    TableKindInfo::Virtual => "VIRTUAL",
                    TableKindInfo::Distributed { .. } => "DISTRIBUTED",
                };
                (n.clone(), kind.to_string())
            })
            .collect();
        out.sort();
        out
    }

    /// Register a table function (virtual function, ESP window).
    pub fn add_function(&self, name: &str, f: Arc<dyn TableFunction>) {
        self.functions.write().insert(name.to_ascii_lowercase(), f);
        self.bump_version();
    }

    // ---- persisted statistics ----

    /// Persist a table's statistics (table-level synopsis plus optional
    /// per-partition synopses). Bumps the catalog version so cached
    /// plans compiled with the old estimates are invalidated.
    pub fn put_statistics(
        &self,
        name: &str,
        table: TableStatistics,
        partitions: Option<Vec<TableStatistics>>,
    ) {
        let key = name.to_ascii_lowercase();
        let entry = StatsEntry {
            table: Arc::new(table),
            partitions: partitions.map(Arc::new),
            version: self.version(),
        };
        self.stats.write().insert(key, entry);
        self.bump_version();
    }

    /// The persisted statistics entry of a table, if collected.
    pub fn statistics(&self, name: &str) -> Option<StatsEntry> {
        self.stats.read().get(&name.to_ascii_lowercase()).cloned()
    }
}

impl StatsProvider for PlatformCatalog {
    fn table_stats(&self, table: &str) -> Option<Arc<TableStatistics>> {
        Some(Arc::clone(&self.statistics(table)?.table))
    }

    fn partition_stats(&self, table: &str) -> Option<Arc<Vec<TableStatistics>>> {
        self.statistics(table)?.partitions.clone()
    }
}

impl Default for PlatformCatalog {
    fn default() -> Self {
        PlatformCatalog::new()
    }
}

impl Catalog for PlatformCatalog {
    fn resolve_table(&self, name: &str) -> Result<TableSource> {
        Ok(self.table(name)?.source)
    }

    fn resolve_function(&self, name: &str) -> Result<Arc<dyn TableFunction>> {
        self.functions
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| HanaError::Catalog(format!("unknown table function '{name}'")))
    }

    fn sda(&self) -> &SdaRegistry {
        &self.sda
    }

    fn iq_engine(&self, source: &str) -> Result<Arc<IqEngine>> {
        self.iq_engines
            .read()
            .get(&source.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| HanaError::Catalog(format!("no IQ engine behind source '{source}'")))
    }

    fn stats(&self) -> &dyn StatsProvider {
        self
    }
}
