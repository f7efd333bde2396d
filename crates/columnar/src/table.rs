//! The in-memory column table: per-column main + delta fragments with
//! MVCC row-version metadata and delta merge.

use hana_exec::{ExecContext, Morsel};
use hana_types::{HanaError, Result, Row, Schema, Value};

use crate::bitmap::RowIdBitmap;
use crate::column::{DeltaColumn, MainColumn};
use crate::index::{IndexDef, SecondaryIndex};
use crate::predicate::ColumnPredicate;

/// Commit ID sentinel meaning "never" (row not deleted).
pub const NEVER: u64 = u64::MAX;

/// Per-row MVCC metadata.
///
/// The platform applies write-sets at commit time (see `hana-txn`), so a
/// row's `created`/`deleted` fields always hold *commit* IDs — a snapshot
/// at commit ID `s` sees a row iff `created <= s < deleted`.
#[derive(Debug, Clone, Default)]
pub struct RowVersions {
    created: Vec<u64>,
    deleted: Vec<u64>,
}

impl RowVersions {
    /// Record a newly inserted row.
    pub fn push(&mut self, created_cid: u64) {
        self.created.push(created_cid);
        self.deleted.push(NEVER);
    }

    /// Mark `row` deleted as of `cid`. Errors if already deleted.
    pub fn delete(&mut self, row: usize, cid: u64) -> Result<()> {
        if row >= self.deleted.len() {
            return Err(HanaError::Storage(format!("row {row} out of range")));
        }
        if self.deleted[row] != NEVER {
            return Err(HanaError::Storage(format!("row {row} already deleted")));
        }
        self.deleted[row] = cid;
        Ok(())
    }

    /// Visibility of `row` under snapshot `cid`.
    pub fn visible(&self, row: usize, cid: u64) -> bool {
        self.created[row] <= cid && self.deleted[row] > cid
    }

    /// Number of rows ever inserted.
    pub fn len(&self) -> usize {
        self.created.len()
    }

    /// Whether no rows were ever inserted.
    pub fn is_empty(&self) -> bool {
        self.created.is_empty()
    }
}

/// Per-column pair of fragments.
#[derive(Debug, Clone)]
struct ColumnPair {
    main: MainColumn,
    delta: DeltaColumn,
}

/// A dictionary-encoded, MVCC-versioned, delta/main column table — the
/// "regular in-memory column table" of §3.1.
///
/// Row IDs are stable positions: `0..main_rows` live in the main
/// fragments, the rest in the deltas. A delta merge moves delta rows into
/// main *without* changing row IDs.
#[derive(Debug, Clone)]
pub struct ColumnTable {
    name: String,
    schema: Schema,
    columns: Vec<ColumnPair>,
    versions: RowVersions,
    main_rows: usize,
    merges: u64,
    indexes: Vec<SecondaryIndex>,
}

impl ColumnTable {
    /// Create an empty table.
    pub fn new(name: &str, schema: Schema) -> ColumnTable {
        let columns = (0..schema.len())
            .map(|_| ColumnPair {
                main: MainColumn::empty(),
                delta: DeltaColumn::new(),
            })
            .collect();
        ColumnTable {
            name: name.to_string(),
            schema,
            columns,
            versions: RowVersions::default(),
            main_rows: 0,
            merges: 0,
            indexes: Vec::new(),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total number of row slots (including deleted rows).
    pub fn row_count(&self) -> usize {
        self.versions.len()
    }

    /// Rows currently in the delta fragments.
    pub fn delta_rows(&self) -> usize {
        self.versions.len() - self.main_rows
    }

    /// Rows living in the main fragments (row IDs `0..main_rows()`).
    pub fn main_rows(&self) -> usize {
        self.main_rows
    }

    /// The main fragment of column `col` (late-materialization path:
    /// lets the executor work directly on dictionary vids).
    pub fn main_column(&self, col: usize) -> &MainColumn {
        &self.columns[col].main
    }

    /// The delta fragment of column `col`.
    pub fn delta_column(&self, col: usize) -> &DeltaColumn {
        &self.columns[col].delta
    }

    /// How many delta merges have run.
    pub fn merge_count(&self) -> u64 {
        self.merges
    }

    /// Insert a row with the given commit ID; returns its row ID.
    pub fn insert(&mut self, row: &[Value], cid: u64) -> Result<usize> {
        self.schema.check_row(row)?;
        for (pair, v) in self.columns.iter_mut().zip(row) {
            pair.delta.append(v);
        }
        self.versions.push(cid);
        let row_id = self.versions.len() - 1;
        // Routed DML maintenance: every secondary index absorbs the new
        // row on its ordered delta side. Deletes need no maintenance —
        // seeks re-check MVCC visibility per hit.
        for ix in &mut self.indexes {
            let key = ix.key_of(row);
            ix.append(key, row_id);
        }
        Ok(row_id)
    }

    /// Mark a row deleted as of `cid`.
    pub fn delete(&mut self, row: usize, cid: u64) -> Result<()> {
        self.versions.delete(row, cid)
    }

    /// Whether `row` exists and no commit has deleted it.
    pub fn is_live(&self, row: usize) -> bool {
        self.versions.deleted.get(row) == Some(&NEVER)
    }

    /// The value at (`row`, `col`), ignoring visibility.
    pub fn value(&self, row: usize, col: usize) -> Value {
        let pair = &self.columns[col];
        if row < self.main_rows {
            pair.main.get(row)
        } else {
            pair.delta.get(row - self.main_rows)
        }
    }

    /// Bitmap of rows visible under snapshot `cid`.
    pub fn visible(&self, cid: u64) -> RowIdBitmap {
        let mut b = RowIdBitmap::new(self.versions.len());
        for row in 0..self.versions.len() {
            if self.versions.visible(row, cid) {
                b.set(row);
            }
        }
        b
    }

    /// The table's one scan: rows visible under snapshot `cid` that
    /// satisfy every predicate of `preds` (none = all visible rows).
    ///
    /// The row domain is sliced into `exec`'s morsels; each morsel
    /// intersects the predicates' range scans over its slice of the
    /// main and delta fragments in a bitmap of its own length, then
    /// checks visibility once, for the surviving rows only. Morsel
    /// boundaries are 64-row aligned, so the per-morsel bitmaps join
    /// word by word, and the result does not depend on the morsel size
    /// or on whether [`ExecContext::scatter`] ran the morsels on the
    /// pool or inline — a table of one morsel is the serial scan.
    pub fn scan_all(
        &self,
        exec: &ExecContext,
        preds: &[(usize, ColumnPredicate)],
        cid: u64,
    ) -> Result<RowIdBitmap> {
        if let Some((col, _)) = preds.iter().find(|(col, _)| *col >= self.columns.len()) {
            return Err(HanaError::Storage(format!(
                "column index {col} out of range for '{}'",
                self.name
            )));
        }
        let parts = exec.scatter(exec.morsels(self.versions.len()), |m| {
            let mut acc = RowIdBitmap::all_set(m.len());
            for (col, pred) in preds {
                let mut hits = RowIdBitmap::new(m.len());
                self.scan_morsel(*col, pred, m, &mut hits);
                acc.and(&hits);
            }
            acc.retain(|row| self.versions.visible(m.start + row, cid));
            acc
        });
        Ok(RowIdBitmap::concat(parts))
    }

    /// Scan one column within table rows `[m.start, m.end)`, over the
    /// main and delta portions of the range; row `m.start + i` sets bit
    /// `i` of `out`.
    fn scan_morsel(&self, col: usize, pred: &ColumnPredicate, m: Morsel, out: &mut RowIdBitmap) {
        let pair = &self.columns[col];
        let main_end = m.end.min(self.main_rows);
        if m.start < main_end {
            pair.main.scan_range_into(pred, out, 0, m.start, main_end);
        }
        if m.end > self.main_rows {
            let first = m.start.max(self.main_rows);
            pair.delta.scan_range_into(
                pred,
                out,
                first - m.start,
                first - self.main_rows,
                m.end - self.main_rows,
            );
        }
    }

    /// Materialize the given rows, projected to `projection` columns
    /// (empty projection = all columns).
    pub fn collect_rows(&self, rows: &RowIdBitmap, projection: &[usize]) -> Vec<Row> {
        let proj: Vec<usize> = if projection.is_empty() {
            (0..self.schema.len()).collect()
        } else {
            projection.to_vec()
        };
        rows.iter()
            .map(|row| Row::from_values(proj.iter().map(|&c| self.value(row, c))))
            .collect()
    }

    /// All rows visible under `cid` (convenience for full-table reads).
    pub fn snapshot_rows(&self, cid: u64) -> Vec<Row> {
        self.collect_rows(&self.visible(cid), &[])
    }

    /// Merge the delta fragments into the main fragments, re-encoding the
    /// columns. Row IDs are preserved; the delta becomes empty.
    ///
    /// Merge durations are recorded in the global observability
    /// registry (`hana_columnar_delta_merge_ns` histogram and
    /// `hana_columnar_delta_merges_total` / `..._rows_total` counters).
    pub fn merge_delta(&mut self) {
        if self.delta_rows() == 0 {
            return;
        }
        let merged_rows = self.delta_rows() as u64;
        let started = std::time::Instant::now();
        for pair in &mut self.columns {
            let mut values = pair.main.materialize();
            values.extend(pair.delta.materialize());
            pair.main = MainColumn::build(&values);
            pair.delta.clear();
        }
        self.main_rows = self.versions.len();
        self.merges += 1;
        self.rebuild_indexes();
        let obs = hana_obs::registry();
        obs.histogram("hana_columnar_delta_merge_ns")
            .record(started.elapsed().as_nanos() as u64);
        obs.counter("hana_columnar_delta_merges_total").inc();
        obs.counter("hana_columnar_delta_merge_rows_total")
            .add(merged_rows);
    }

    /// Approximate heap footprint in bytes.
    pub fn payload_bytes(&self) -> usize {
        self.columns
            .iter()
            .map(|p| p.main.payload_bytes() + p.delta.payload_bytes())
            .sum::<usize>()
            + self.versions.len() * 16
    }

    /// Per-column statistics for the optimizer: (distinct, min, max).
    pub fn column_stats(&self, col: usize) -> (usize, Option<Value>, Option<Value>) {
        let pair = &self.columns[col];
        let main_dict = pair.main.dictionary();
        let mut distinct = main_dict.len();
        let mut min = main_dict.min().cloned();
        let mut max = main_dict.max().cloned();
        for v in pair.delta.dictionary().values() {
            if main_dict.lookup(v).is_none() {
                distinct += 1;
            }
            if min.as_ref().is_none_or(|m| v < m) {
                min = Some(v.clone());
            }
            if max.as_ref().is_none_or(|m| v > m) {
                max = Some(v.clone());
            }
        }
        (distinct, min, max)
    }

    /// Sorted `(value, frequency)` pairs of a column across main and
    /// delta (nulls excluded) — the input of
    /// [`ColumnStats::from_frequencies`](crate::ColumnStats::from_frequencies)
    /// when a synopsis is collected.
    pub fn value_frequencies(&self, col: usize) -> Vec<(Value, u64)> {
        let mut freq: std::collections::BTreeMap<Value, u64> = std::collections::BTreeMap::new();
        for row in 0..self.row_count() {
            let v = self.value(row, col);
            if !v.is_null() {
                *freq.entry(v).or_insert(0) += 1;
            }
        }
        freq.into_iter().collect()
    }

    // ---- secondary indexes ----

    /// Create a secondary index over `columns` (key order). The index
    /// is built from the table's current rows (main and delta) and kept
    /// maintained by [`ColumnTable::insert`] and
    /// [`ColumnTable::merge_delta`] from then on.
    pub fn create_index(&mut self, name: &str, columns: &[String]) -> Result<()> {
        let name = name.to_ascii_lowercase();
        if columns.is_empty() {
            return Err(HanaError::Catalog(format!(
                "index '{name}' needs at least one column"
            )));
        }
        if self.indexes.iter().any(|ix| ix.def().name == name) {
            return Err(HanaError::Catalog(format!(
                "index '{name}' already exists on '{}'",
                self.name
            )));
        }
        let mut cols = Vec::with_capacity(columns.len());
        let mut lowered = Vec::with_capacity(columns.len());
        for c in columns {
            let c = c.to_ascii_lowercase();
            cols.push(self.schema.require(&c)?);
            lowered.push(c);
        }
        let mut ix = SecondaryIndex::new(
            IndexDef {
                name,
                columns: lowered,
            },
            cols,
        );
        ix.rebuild(self.index_entries(&ix));
        self.indexes.push(ix);
        Ok(())
    }

    /// Drop a secondary index by name.
    pub fn drop_index(&mut self, name: &str) -> Result<()> {
        let name = name.to_ascii_lowercase();
        let before = self.indexes.len();
        self.indexes.retain(|ix| ix.def().name != name);
        if self.indexes.len() == before {
            return Err(HanaError::Catalog(format!(
                "no index '{name}' on '{}'",
                self.name
            )));
        }
        Ok(())
    }

    /// The table's secondary indexes.
    pub fn indexes(&self) -> &[SecondaryIndex] {
        &self.indexes
    }

    /// Index definitions (for the planner and catalog persistence).
    pub fn index_defs(&self) -> Vec<IndexDef> {
        self.indexes.iter().map(|ix| ix.def().clone()).collect()
    }

    /// Look up an index by name.
    pub fn index(&self, name: &str) -> Option<&SecondaryIndex> {
        let name = name.to_ascii_lowercase();
        self.indexes.iter().find(|ix| ix.def().name == name)
    }

    /// Seek an index: rows matching the equality `prefix` (plus an
    /// optional range predicate on the next indexed column), masked by
    /// snapshot visibility. Only the hit rows are visibility-checked —
    /// a point seek never touches the full row domain.
    pub fn index_seek(
        &self,
        index: &str,
        prefix: &[Value],
        range: Option<&ColumnPredicate>,
        cid: u64,
    ) -> Result<RowIdBitmap> {
        let ix = self
            .index(index)
            .ok_or_else(|| HanaError::Catalog(format!("no index '{index}' on '{}'", self.name)))?;
        let mut out = RowIdBitmap::new(self.versions.len());
        for row in ix.seek(prefix, range) {
            if self.versions.visible(row, cid) {
                out.set(row);
            }
        }
        Ok(out)
    }

    /// `(key, row id)` pairs for every current row of `ix`'s columns.
    fn index_entries(&self, ix: &SecondaryIndex) -> Vec<(Vec<Value>, usize)> {
        (0..self.versions.len())
            .map(|row| {
                let key = ix
                    .columns()
                    .iter()
                    .map(|&c| self.value(row, c))
                    .collect::<Vec<_>>();
                (key, row)
            })
            .collect()
    }

    /// Rebuild every index's sorted main side (delta-merge barrier).
    fn rebuild_indexes(&mut self) {
        let mut indexes = std::mem::take(&mut self.indexes);
        for ix in &mut indexes {
            let entries = self.index_entries(ix);
            ix.rebuild(entries);
        }
        self.indexes = indexes;
    }

    /// Sorted distinct values of a column (dictionary view).
    pub fn distinct_values(&self, col: usize) -> Vec<Value> {
        let pair = &self.columns[col];
        let mut vals: Vec<Value> = pair.main.dictionary().values().to_vec();
        vals.extend(pair.delta.dictionary().values().iter().cloned());
        vals.sort_unstable();
        vals.dedup();
        vals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hana_types::DataType;

    /// Single-predicate scan on the process-wide context.
    fn scan(t: &ColumnTable, col: usize, pred: ColumnPredicate, cid: u64) -> Vec<usize> {
        t.scan_all(ExecContext::global(), &[(col, pred)], cid)
            .unwrap()
            .iter()
            .collect()
    }

    fn table() -> ColumnTable {
        ColumnTable::new(
            "t",
            Schema::of(&[("id", DataType::Int), ("tag", DataType::Varchar)]),
        )
    }

    #[test]
    fn insert_scan_visibility() {
        let mut t = table();
        t.insert(&[Value::Int(1), Value::from("a")], 10).unwrap();
        t.insert(&[Value::Int(2), Value::from("b")], 20).unwrap();
        // Snapshot at cid 15 sees only the first row.
        assert_eq!(t.visible(15).count(), 1);
        assert_eq!(t.visible(20).count(), 2);
        assert_eq!(scan(&t, 0, ColumnPredicate::Ge(Value::Int(1)), 15), vec![0]);
        assert!(t
            .scan_all(ExecContext::global(), &[(2, ColumnPredicate::IsNull)], 15)
            .is_err());
    }

    #[test]
    fn delete_hides_row_from_later_snapshots() {
        let mut t = table();
        let r = t.insert(&[Value::Int(1), Value::from("a")], 10).unwrap();
        t.delete(r, 30).unwrap();
        assert!(t.versions.visible(r, 29));
        assert!(!t.versions.visible(r, 30));
        assert_eq!(t.snapshot_rows(25).len(), 1);
        assert_eq!(t.snapshot_rows(30).len(), 0);
        assert!(t.delete(r, 40).is_err(), "double delete must fail");
    }

    #[test]
    fn merge_preserves_row_ids_and_results() {
        let mut t = table();
        for i in 0..100i64 {
            t.insert(&[Value::Int(i), Value::from(format!("v{}", i % 7))], 5)
                .unwrap();
        }
        let between = ColumnPredicate::Between(Value::Int(10), Value::Int(20));
        let before = scan(&t, 0, between.clone(), 5);
        assert_eq!(t.delta_rows(), 100);
        t.merge_delta();
        assert_eq!(t.delta_rows(), 0);
        assert_eq!(t.merge_count(), 1);
        let after = scan(&t, 0, between, 5);
        assert_eq!(before, after);
        assert_eq!(t.value(42, 0), Value::Int(42));
        // Inserts continue to work after a merge.
        t.insert(&[Value::Int(100), Value::from("x")], 6).unwrap();
        assert_eq!(t.value(100, 0), Value::Int(100));
        assert_eq!(t.delta_rows(), 1);
    }

    #[test]
    fn merge_usually_shrinks_memory() {
        let mut t = table();
        for i in 0..5000i64 {
            t.insert(
                &[Value::Int(i % 50), Value::from(format!("tag{}", i % 10))],
                1,
            )
            .unwrap();
        }
        let before = t.payload_bytes();
        t.merge_delta();
        let after = t.payload_bytes();
        assert!(after < before, "merge should compress: {after} !< {before}");
    }

    #[test]
    fn scan_all_intersects() {
        let mut t = table();
        for i in 0..10i64 {
            t.insert(
                &[
                    Value::Int(i),
                    Value::from(if i % 2 == 0 { "even" } else { "odd" }),
                ],
                1,
            )
            .unwrap();
        }
        let hits = t
            .scan_all(
                ExecContext::global(),
                &[
                    (0, ColumnPredicate::Ge(Value::Int(4))),
                    (1, ColumnPredicate::Eq(Value::from("even"))),
                ],
                1,
            )
            .unwrap();
        assert_eq!(hits.iter().collect::<Vec<_>>(), vec![4, 6, 8]);
    }

    #[test]
    fn stats_track_main_and_delta() {
        let mut t = table();
        t.insert(&[Value::Int(5), Value::from("a")], 1).unwrap();
        t.merge_delta();
        t.insert(&[Value::Int(9), Value::from("b")], 1).unwrap();
        let (distinct, min, max) = t.column_stats(0);
        assert_eq!(distinct, 2);
        assert_eq!(min, Some(Value::Int(5)));
        assert_eq!(max, Some(Value::Int(9)));
        assert_eq!(t.distinct_values(0), vec![Value::Int(5), Value::Int(9)]);
    }

    #[test]
    fn index_seek_tracks_dml_and_merge() {
        let mut t = table();
        for i in 0..50i64 {
            t.insert(&[Value::Int(i % 10), Value::from(format!("v{i}"))], 1)
                .unwrap();
        }
        t.create_index("ix_id", &["id".into()]).unwrap();
        assert!(
            t.create_index("ix_id", &["tag".into()]).is_err(),
            "duplicate index name"
        );
        let seek = |t: &ColumnTable, v: i64, cid: u64| {
            t.index_seek("ix_id", &[Value::Int(v)], None, cid)
                .unwrap()
                .iter()
                .collect::<Vec<_>>()
        };
        let scan =
            |t: &ColumnTable, v: i64, cid: u64| scan(t, 0, ColumnPredicate::Eq(Value::Int(v)), cid);
        assert_eq!(seek(&t, 3, 1), scan(&t, 3, 1));
        // Post-DML: inserts land on the index delta, deletes vanish via
        // visibility.
        t.insert(&[Value::Int(3), Value::from("new")], 2).unwrap();
        t.delete(3, 2).unwrap();
        assert_eq!(seek(&t, 3, 2), scan(&t, 3, 2));
        // Post-merge: rebuilt main side, empty delta, same answers.
        t.merge_delta();
        assert_eq!(seek(&t, 3, 2), scan(&t, 3, 2));
        assert_eq!(t.index("ix_id").unwrap().entry_count(), 51);
        t.drop_index("ix_id").unwrap();
        assert!(t.index_seek("ix_id", &[Value::Int(3)], None, 2).is_err());
        assert!(t.drop_index("ix_id").is_err());
    }

    #[test]
    fn schema_violations_rejected() {
        let mut t = table();
        assert!(t.insert(&[Value::Int(1)], 1).is_err());
        assert!(t
            .insert(&[Value::from("nope"), Value::from("a")], 1)
            .is_err());
        assert_eq!(t.row_count(), 0);
    }
}
