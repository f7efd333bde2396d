//! # hana-rowstore
//!
//! The in-memory **row store** of the platform. Per §3.1 of the paper,
//! "row-oriented storage in main memory is used for extremely high update
//! frequencies on smaller data sets and the execution of point queries" —
//! catalog-style tables, session state, small dimension tables.
//!
//! Rows are stored contiguously with MVCC version stamps and an optional
//! primary-key index (a `BTreeMap` keeping all versions per key), so point
//! lookups are `O(log n)` and updates append new versions instead of
//! rewriting dictionary-encoded columns.

use std::collections::BTreeMap;

use hana_txn::Snapshot;
use hana_types::{HanaError, Result, Row, Schema, Value};

/// Sentinel commit ID meaning "not deleted".
const NEVER: u64 = u64::MAX;

/// One stored row version.
#[derive(Debug, Clone)]
struct VersionedRow {
    values: Row,
    created: u64,
    deleted: u64,
}

/// An MVCC row table with optional primary-key index.
#[derive(Debug, Clone)]
pub struct RowTable {
    name: String,
    schema: Schema,
    pk_col: Option<usize>,
    rows: Vec<VersionedRow>,
    /// All version slots per key value (old versions are kept for
    /// snapshot reads; visibility filters at query time).
    pk_index: BTreeMap<Value, Vec<usize>>,
}

impl RowTable {
    /// Create a table; `primary_key` names the indexed column, if any.
    pub fn new(name: &str, schema: Schema, primary_key: Option<&str>) -> Result<RowTable> {
        let pk_col = match primary_key {
            Some(col) => Some(schema.require(col)?),
            None => None,
        };
        Ok(RowTable {
            name: name.to_string(),
            schema,
            pk_col,
            rows: Vec::new(),
            pk_index: BTreeMap::new(),
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total stored versions (including dead ones).
    pub fn version_count(&self) -> usize {
        self.rows.len()
    }

    /// Insert a row committed at `cid`; enforces primary-key uniqueness
    /// among versions visible at `cid`.
    pub fn insert(&mut self, row: &[Value], cid: u64) -> Result<usize> {
        self.schema.check_row(row)?;
        if let Some(pk) = self.pk_col {
            let key = &row[pk];
            if key.is_null() {
                return Err(HanaError::Storage(format!(
                    "primary key of '{}' must not be NULL",
                    self.name
                )));
            }
            let snap = Snapshot::at(cid);
            if let Some(slots) = self.pk_index.get(key) {
                if slots
                    .iter()
                    .any(|&s| snap.visible(self.rows[s].created, self.rows[s].deleted))
                {
                    return Err(HanaError::Storage(format!(
                        "duplicate primary key {key} in '{}'",
                        self.name
                    )));
                }
            }
        }
        let slot = self.rows.len();
        self.rows.push(VersionedRow {
            values: Row::from_values(row.iter().cloned()),
            created: cid,
            deleted: NEVER,
        });
        if let Some(pk) = self.pk_col {
            self.pk_index.entry(row[pk].clone()).or_default().push(slot);
        }
        Ok(slot)
    }

    /// Mark the version in `slot` deleted as of `cid`.
    pub fn delete_slot(&mut self, slot: usize, cid: u64) -> Result<()> {
        let row = self
            .rows
            .get_mut(slot)
            .ok_or_else(|| HanaError::Storage(format!("slot {slot} out of range")))?;
        if row.deleted != NEVER {
            return Err(HanaError::Storage(format!("slot {slot} already deleted")));
        }
        row.deleted = cid;
        Ok(())
    }

    /// Delete the row with primary key `key` visible at `cid`.
    /// Returns whether a row was deleted.
    pub fn delete_by_key(&mut self, key: &Value, cid: u64) -> Result<bool> {
        let slot = self.visible_slot(key, Snapshot::at(cid));
        match slot {
            Some(s) => {
                self.delete_slot(s, cid)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Update the row with primary key `key`: the old version dies at
    /// `cid`, a new one is born at `cid` (version-chain update).
    pub fn update_by_key(&mut self, key: &Value, new_row: &[Value], cid: u64) -> Result<bool> {
        self.schema.check_row(new_row)?;
        let Some(slot) = self.visible_slot(key, Snapshot::at(cid)) else {
            return Ok(false);
        };
        self.delete_slot(slot, cid)?;
        self.insert(new_row, cid)?;
        Ok(true)
    }

    fn visible_slot(&self, key: &Value, snap: Snapshot) -> Option<usize> {
        let pk = self.pk_col?;
        debug_assert!(pk < self.schema.len());
        self.pk_index.get(key).and_then(|slots| {
            slots
                .iter()
                .copied()
                .find(|&s| snap.visible(self.rows[s].created, self.rows[s].deleted))
        })
    }

    /// Point lookup by primary key under `snapshot`.
    pub fn get(&self, key: &Value, snapshot: Snapshot) -> Option<Row> {
        self.visible_slot(key, snapshot)
            .map(|s| self.rows[s].values.clone())
    }

    /// All rows visible under `snapshot`, in insertion order.
    pub fn scan(&self, snapshot: Snapshot) -> Vec<Row> {
        self.rows
            .iter()
            .filter(|r| snapshot.visible(r.created, r.deleted))
            .map(|r| r.values.clone())
            .collect()
    }

    /// Number of rows visible under `snapshot`.
    pub fn len(&self, snapshot: Snapshot) -> usize {
        self.rows
            .iter()
            .filter(|r| snapshot.visible(r.created, r.deleted))
            .count()
    }

    /// Whether no rows are visible under `snapshot`.
    pub fn is_empty(&self, snapshot: Snapshot) -> bool {
        self.len(snapshot) == 0
    }

    /// Index of the primary-key column, if any.
    pub fn pk_column(&self) -> Option<usize> {
        self.pk_col
    }

    /// Slots of visible rows matching `pred` (for buffered DML: resolve
    /// at statement time, delete at commit time).
    pub fn slots_matching(&self, snapshot: Snapshot, pred: impl Fn(&Row) -> bool) -> Vec<usize> {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, r)| snapshot.visible(r.created, r.deleted))
            .filter(|(_, r)| pred(&r.values))
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether `slot` exists and no commit has deleted it.
    pub fn is_live(&self, slot: usize) -> bool {
        self.rows.get(slot).is_some_and(|r| r.deleted == NEVER)
    }

    /// The values stored in `slot` (regardless of visibility).
    pub fn slot_values(&self, slot: usize) -> Option<&Row> {
        self.rows.get(slot).map(|r| &r.values)
    }

    /// Drop versions deleted before `horizon` (no snapshot older than
    /// `horizon` exists anymore). Rebuilds the index.
    pub fn vacuum(&mut self, horizon: u64) {
        self.rows.retain(|r| r.deleted > horizon);
        self.pk_index.clear();
        if let Some(pk) = self.pk_col {
            for (slot, r) in self.rows.iter().enumerate() {
                self.pk_index
                    .entry(r.values[pk].clone())
                    .or_default()
                    .push(slot);
            }
        }
    }

    /// Approximate heap footprint in bytes (for the hot/cold placement
    /// decisions in `hana-core`).
    pub fn payload_bytes(&self) -> usize {
        self.rows
            .iter()
            .map(|r| {
                16 + r
                    .values
                    .values()
                    .iter()
                    .map(Value::storage_bytes)
                    .sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hana_types::DataType;

    fn table() -> RowTable {
        RowTable::new(
            "accounts",
            Schema::of(&[("id", DataType::Int), ("balance", DataType::Double)]),
            Some("id"),
        )
        .unwrap()
    }

    #[test]
    fn point_lookup_under_snapshots() {
        let mut t = table();
        t.insert(&[Value::Int(1), Value::Double(100.0)], 10)
            .unwrap();
        assert!(t.get(&Value::Int(1), Snapshot::at(9)).is_none());
        let row = t.get(&Value::Int(1), Snapshot::at(10)).unwrap();
        assert_eq!(row[1], Value::Double(100.0));
    }

    #[test]
    fn duplicate_pk_rejected_null_pk_rejected() {
        let mut t = table();
        t.insert(&[Value::Int(1), Value::Double(1.0)], 1).unwrap();
        assert!(t.insert(&[Value::Int(1), Value::Double(2.0)], 2).is_err());
        assert!(t.insert(&[Value::Null, Value::Double(2.0)], 2).is_err());
        // After deleting, the key can be reused.
        assert!(t.delete_by_key(&Value::Int(1), 3).unwrap());
        t.insert(&[Value::Int(1), Value::Double(3.0)], 4).unwrap();
    }

    #[test]
    fn update_creates_version_chain() {
        let mut t = table();
        t.insert(&[Value::Int(7), Value::Double(50.0)], 10).unwrap();
        assert!(t
            .update_by_key(&Value::Int(7), &[Value::Int(7), Value::Double(75.0)], 20)
            .unwrap());
        // Old snapshot still sees the old balance; new one sees the update.
        assert_eq!(
            t.get(&Value::Int(7), Snapshot::at(15)).unwrap()[1],
            Value::Double(50.0)
        );
        assert_eq!(
            t.get(&Value::Int(7), Snapshot::at(20)).unwrap()[1],
            Value::Double(75.0)
        );
        assert_eq!(t.version_count(), 2);
        assert!(!t
            .update_by_key(&Value::Int(99), &[Value::Int(99), Value::Null], 21)
            .unwrap());
    }

    #[test]
    fn scan_and_filter() {
        let mut t = table();
        for i in 0..10i64 {
            t.insert(&[Value::Int(i), Value::Double(i as f64 * 10.0)], 1)
                .unwrap();
        }
        t.delete_by_key(&Value::Int(5), 2).unwrap();
        let snap = Snapshot::at(2);
        assert_eq!(t.len(snap), 9);
        let rich = t.slots_matching(snap, |r| r[1] >= Value::Double(70.0));
        assert_eq!(rich.len(), 3);
        assert_eq!(t.scan(Snapshot::at(1)).len(), 10);
    }

    #[test]
    fn vacuum_drops_dead_versions_and_keeps_lookups_working() {
        let mut t = table();
        t.insert(&[Value::Int(1), Value::Double(1.0)], 1).unwrap();
        t.update_by_key(&Value::Int(1), &[Value::Int(1), Value::Double(2.0)], 2)
            .unwrap();
        t.update_by_key(&Value::Int(1), &[Value::Int(1), Value::Double(3.0)], 3)
            .unwrap();
        assert_eq!(t.version_count(), 3);
        t.vacuum(3);
        assert_eq!(t.version_count(), 1);
        assert_eq!(
            t.get(&Value::Int(1), Snapshot::at(3)).unwrap()[1],
            Value::Double(3.0)
        );
    }

    #[test]
    fn table_without_pk_scans_only() {
        let mut t = RowTable::new("log", Schema::of(&[("msg", DataType::Varchar)]), None).unwrap();
        t.insert(&[Value::from("a")], 1).unwrap();
        t.insert(&[Value::from("a")], 1).unwrap(); // duplicates fine
        assert_eq!(t.scan(Snapshot::at(1)).len(), 2);
        assert!(t.get(&Value::from("a"), Snapshot::at(1)).is_none());
    }
}
