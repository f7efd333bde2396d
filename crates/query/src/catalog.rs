//! The catalog abstraction the planner compiles against.
//!
//! The platform (in `hana-core`) owns the real catalog; the query crate
//! only needs to resolve a name to one of the storage locations of
//! Figure 1: local column/row tables, extended (IQ) tables, hybrid
//! tables spanning both, virtual tables at a remote source, or table
//! functions (virtual MR functions, ESP windows).

use std::sync::Arc;

use parking_lot::RwLock;

use hana_columnar::ColumnTable;
use hana_iq::IqEngine;
use hana_rowstore::RowTable;
use hana_sda::SdaRegistry;
use hana_types::{HanaError, Result, ResultSet, Schema, Value};

/// A table-valued function (virtual MR function, ESP window, …).
pub trait TableFunction: Send + Sync {
    /// The function's output schema.
    fn schema(&self) -> Schema;
    /// Produce the rows.
    fn invoke(&self, args: &[Value]) -> Result<ResultSet>;
}

/// Where a resolved table lives.
#[derive(Clone)]
pub enum TableSource {
    /// In-memory column table.
    Column(Arc<RwLock<ColumnTable>>),
    /// In-memory row table.
    Row(Arc<RwLock<RowTable>>),
    /// Table fully in the extended storage, reached through the named
    /// SDA source (the shielded internal IQ instance).
    Extended {
        /// SDA source name of the IQ instance.
        source: String,
        /// Table name inside the IQ engine.
        remote_table: String,
        /// Schema.
        schema: Schema,
    },
    /// Hybrid table: hot partition in memory, cold partition in IQ.
    Hybrid {
        /// Hot (in-memory) partition.
        hot: Arc<RwLock<ColumnTable>>,
        /// SDA source name of the IQ instance.
        source: String,
        /// Cold partition's table name inside IQ.
        cold_table: String,
        /// The dedicated aging-flag column (§3.1).
        aging_column: String,
    },
    /// Virtual table at an external remote source (Hive, …).
    Virtual {
        /// SDA source name.
        source: String,
        /// Remote table name.
        remote_table: String,
        /// Imported schema.
        schema: Schema,
    },
    /// Partitioned table scaled out across the in-process node
    /// landscape; scans prune partitions and gather over links.
    Distributed(Arc<hana_dist::DistTable>),
}

impl TableSource {
    /// The source's schema.
    pub fn schema(&self) -> Schema {
        match self {
            TableSource::Column(t) => t.read().schema().clone(),
            TableSource::Row(t) => t.read().schema().clone(),
            TableSource::Extended { schema, .. } | TableSource::Virtual { schema, .. } => {
                schema.clone()
            }
            TableSource::Hybrid { hot, .. } => hot.read().schema().clone(),
            TableSource::Distributed(t) => t.schema().clone(),
        }
    }

    /// The remote source name, when the data is (partly) remote.
    pub fn remote_source(&self) -> Option<&str> {
        match self {
            TableSource::Extended { source, .. }
            | TableSource::Hybrid { source, .. }
            | TableSource::Virtual { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Name resolution + access to the SDA registry and the engines.
pub trait Catalog: Send + Sync {
    /// Resolve a table name.
    fn resolve_table(&self, name: &str) -> Result<TableSource>;

    /// Resolve a table function by name.
    fn resolve_function(&self, name: &str) -> Result<Arc<dyn TableFunction>> {
        Err(HanaError::Catalog(format!(
            "unknown table function '{name}'"
        )))
    }

    /// The SDA registry (remote execution + cache).
    fn sda(&self) -> &SdaRegistry;

    /// The IQ engine behind an internal extended-storage source, for
    /// operations SDA does not expose (direct load, admin).
    fn iq_engine(&self, source: &str) -> Result<Arc<IqEngine>>;

    /// Persisted statistics the planner consults for this catalog.
    /// Defaults to the empty provider (every predicate is priced at its
    /// default selectivity); the platform catalog overrides this with
    /// its versioned stats registry.
    fn stats(&self) -> &dyn crate::stats::StatsProvider {
        &crate::stats::NO_STATS
    }
}
