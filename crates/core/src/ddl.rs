//! Table and index DDL: creating a table in whichever store(s) its
//! definition names, dropping it again, and the index lookups the SQL
//! layer needs.

use std::sync::Arc;

use parking_lot::RwLock;

use hana_columnar::ColumnTable;
use hana_query::TableSource;
use hana_rowstore::RowTable;
use hana_sql::{ColumnSpec, CreateTable, PartitionBy, TableKind};
use hana_types::{ColumnDef, DataType, HanaError, Result, Schema};

use crate::catalog::{TableEntry, TableKindInfo};
use crate::platform::{HanaPlatform, INTERNAL_IQ_SOURCE};

impl HanaPlatform {
    pub(crate) fn create_table(&self, ct: CreateTable) -> Result<()> {
        let schema = schema_from_specs(&ct.columns)?;
        let column = |schema| Arc::new(RwLock::new(ColumnTable::new(&ct.name, schema)));
        let (source, kind) = match (&ct.partition, &ct.extended) {
            (Some(p), extended) => {
                // Partitioned scale-out table: fragments on the in-process
                // node landscape, one per partition.
                if extended.is_some() {
                    return Err(HanaError::Unsupported(
                        "PARTITION BY cannot be combined with extended storage".into(),
                    ));
                }
                if ct.kind != TableKind::Column {
                    return Err(HanaError::Unsupported(
                        "PARTITION BY is supported on column tables only".into(),
                    ));
                }
                let dt = hana_dist::DistTable::new(&ct.name, schema, partition_spec(p))?;
                if let Some(base) = self.tm.wal().dir() {
                    // Durable platform: give every partition its own log
                    // under the coordinator's directory so scale-out loads
                    // are durable per partition.
                    let pdir = base.join("dist").join(ct.name.to_ascii_lowercase());
                    dt.attach_wal(&pdir)?;
                }
                let kind = TableKindInfo::Distributed {
                    partition: p.clone(),
                };
                (TableSource::Distributed(Arc::new(dt)), kind)
            }
            (None, None) => match ct.kind {
                TableKind::Column => (TableSource::Column(column(schema)), TableKindInfo::Column),
                TableKind::Row => {
                    let pk = ct.columns.iter().find(|c| c.primary_key);
                    let table = RowTable::new(&ct.name, schema, pk.map(|c| c.name.as_str()))?;
                    let source = TableSource::Row(Arc::new(RwLock::new(table)));
                    (source, TableKindInfo::Row)
                }
            },
            (None, Some(ext)) if !ext.hybrid => {
                // Whole table in the extended store (§3.1 scenario 1).
                self.iq.create_table(&ct.name, schema.clone())?;
                let source = TableSource::Extended {
                    source: INTERNAL_IQ_SOURCE.into(),
                    remote_table: ct.name.to_ascii_lowercase(),
                    schema,
                };
                (source, TableKindInfo::Extended)
            }
            (None, Some(ext)) => {
                // Hybrid table (§3.1 scenario 2): hot in-memory
                // partition + cold IQ partition, aged by the flag column.
                let aging = ext.aging_column.clone().ok_or_else(|| {
                    HanaError::Parse("hybrid tables need AGING ON <flag column>".into())
                })?;
                let idx = schema.require(&aging)?;
                if schema.column(idx).data_type != DataType::Bool {
                    return Err(HanaError::Catalog(format!(
                        "aging column '{aging}' must be BOOLEAN"
                    )));
                }
                let cold_table = format!("{}__cold", ct.name.to_ascii_lowercase());
                self.iq.create_table(&cold_table, schema.clone())?;
                let source = TableSource::Hybrid {
                    hot: column(schema),
                    source: INTERNAL_IQ_SOURCE.into(),
                    cold_table: cold_table.clone(),
                    aging_column: aging.clone(),
                };
                let kind = TableKindInfo::Hybrid {
                    aging_column: aging,
                    cold_table,
                };
                (source, kind)
            }
        };
        self.catalog
            .add_table(&ct.name, TableEntry { source, kind })
    }

    pub(crate) fn drop_table(&self, name: &str) -> Result<()> {
        let entry = self.catalog.remove_table(name)?;
        if let TableSource::Distributed(dt) = &entry.source {
            if let Some(wals) = dt.partition_wals() {
                // The table is gone; its partition logs are dead weight.
                let dir = wals.dir().to_path_buf();
                drop(wals);
                if let Err(e) = std::fs::remove_dir_all(&dir) {
                    hana_obs::warn(format!(
                        "could not remove partition logs at {}: {e}",
                        dir.display()
                    ));
                }
            }
        }
        match entry.kind {
            TableKindInfo::Extended => self.iq.drop_table(name)?,
            TableKindInfo::Hybrid { cold_table, .. } => self.iq.drop_table(&cold_table)?,
            _ => {}
        }
        Ok(())
    }

    /// Resolve which table owns an index named without an `ON` clause.
    pub(crate) fn find_index_owner(&self, index: &str) -> Result<String> {
        for (name, _) in self.catalog.list_tables() {
            let Ok(entry) = self.catalog.table(&name) else {
                continue;
            };
            if indexed_fragment(&entry.source).is_some_and(|t| t.read().index(index).is_some()) {
                return Ok(name);
            }
        }
        Err(HanaError::Catalog(format!("unknown index '{index}'")))
    }
}

/// The column fragment a table's secondary indexes live on: the table
/// itself, or the hot partition of a hybrid table.
pub(crate) fn indexed_fragment(source: &TableSource) -> Option<&Arc<RwLock<ColumnTable>>> {
    match source {
        TableSource::Column(t) | TableSource::Hybrid { hot: t, .. } => Some(t),
        _ => None,
    }
}

/// Translate the parsed `PARTITION BY` clause into a runtime spec.
fn partition_spec(p: &PartitionBy) -> hana_dist::PartitionSpec {
    match p {
        PartitionBy::Hash { column, partitions } => hana_dist::PartitionSpec::Hash {
            column: column.clone(),
            partitions: *partitions,
        },
        PartitionBy::Range {
            column,
            split_points,
        } => hana_dist::PartitionSpec::Range {
            column: column.clone(),
            split_points: split_points.clone(),
        },
    }
}

fn schema_from_specs(specs: &[ColumnSpec]) -> Result<Schema> {
    let cols: Vec<ColumnDef> = specs
        .iter()
        .map(|c| {
            Ok(ColumnDef {
                name: c.name.clone(),
                data_type: DataType::parse_sql(&c.type_name)?,
                nullable: !c.not_null && !c.primary_key,
            })
        })
        .collect::<Result<_>>()?;
    Schema::new(cols)
}
