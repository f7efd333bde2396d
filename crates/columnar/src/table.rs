//! The in-memory column table: per-column main + delta fragments with
//! MVCC row-version metadata and delta merge.

use hana_exec::{ExecContext, Morsel};
use hana_types::{HanaError, Result, Row, Schema, Value};

use crate::bitmap::RowIdBitmap;
use crate::column::{DeltaColumn, MainColumn};
use crate::index::{IndexDef, SecondaryIndex};
use crate::predicate::{ColumnPredicate, VidMatch};

/// Commit ID sentinel meaning "never" (row not deleted).
pub const NEVER: u64 = u64::MAX;

/// Per-row MVCC metadata, summarised per 64-row word.
///
/// The platform applies write-sets at commit time (see `hana-txn`), so a
/// row's `created`/`deleted` fields always hold *commit* IDs — a snapshot
/// at commit ID `s` sees a row iff `created <= s < deleted`. For each
/// word of 64 rows (rows `64 * w ..`) it also keeps the largest
/// `created` and the smallest `deleted`, which [`RowVersions::push_rows`]
/// and [`RowVersions::delete`], its only mutators, maintain: a snapshot
/// with `max_created <= s < min_deleted` sees every row of the word.
#[derive(Debug, Clone, Default)]
pub struct RowVersions {
    created: Vec<u64>,
    deleted: Vec<u64>,
    max_created: Vec<u64>,
    min_deleted: Vec<u64>,
}

impl RowVersions {
    /// Record `n` rows inserted under `created_cid`, at once.
    pub fn push_rows(&mut self, created_cid: u64, n: usize) {
        let first = self.created.len();
        if n == 0 {
            return;
        }
        self.created.resize(first + n, created_cid);
        self.deleted.resize(first + n, NEVER);
        // A partly filled last word takes the new rows in too; the
        // words after it are theirs alone.
        if !first.is_multiple_of(64) {
            let max = &mut self.max_created[first / 64];
            *max = (*max).max(created_cid);
        }
        let words = (first + n).div_ceil(64);
        self.max_created.resize(words, created_cid);
        self.min_deleted.resize(words, NEVER);
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
        let min = &mut self.min_deleted[row / 64];
        *min = (*min).min(cid);
        Ok(())
    }

    /// Visibility of `row` under snapshot `cid`.
    pub fn visible(&self, row: usize, cid: u64) -> bool {
        self.created[row] <= cid && self.deleted[row] > cid
    }

    /// Of the rows of word `w` whose bits `rows` holds (bit `j` for row
    /// `64 * w + j`), those visible under snapshot `cid`. The word's
    /// summary decides all 64 at once unless it holds a row created
    /// after `cid` or deleted at or before it; only then are its rows
    /// checked one by one.
    #[inline]
    pub(crate) fn visible_in_word(&self, w: usize, rows: u64, cid: u64) -> u64 {
        if self.max_created[w] <= cid && cid < self.min_deleted[w] {
            return rows;
        }
        let mut visible = 0;
        let mut rest = rows;
        while rest != 0 {
            let j = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            visible |= (self.visible(64 * w + j, cid) as u64) << j;
        }
        visible
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

/// Rows checked against a schema and encoded for one
/// [`ColumnTable::append`], in the delta's own shape: per column, a
/// dictionary of the distinct values the rows hold plus one vid per
/// row.
#[derive(Debug, Clone, Default)]
pub struct InsertBatch {
    columns: Vec<DeltaColumn>,
    rows: usize,
}

impl InsertBatch {
    /// Check each of `rows` against `schema` once — arity, NOT NULL and
    /// type, with [`Schema::check_row`]'s errors — and encode it. The
    /// rows are read by reference: each distinct value is cloned into
    /// its column's dictionary, and nothing else is copied.
    pub fn encode<'a>(
        schema: &Schema,
        rows: impl IntoIterator<Item = &'a [Value]>,
    ) -> Result<InsertBatch> {
        let rows = rows.into_iter();
        let hint = rows.size_hint().0;
        let mut columns: Vec<DeltaColumn> = (0..schema.len())
            .map(|_| DeltaColumn::with_capacity(hint))
            .collect();
        let mut n = 0;
        for row in rows {
            schema.check_row(row)?;
            for (col, v) in columns.iter_mut().zip(row) {
                col.append(v);
            }
            n += 1;
        }
        Ok(InsertBatch { columns, rows: n })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the batch holds no row.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }
}

/// Per-column pair of fragments.
#[derive(Debug, Clone)]
struct ColumnPair {
    main: MainColumn,
    delta: DeltaColumn,
}

/// A pushed-down predicate of one scan, compiled against its column's
/// main and delta dictionaries.
struct CompiledPredicate {
    col: usize,
    main: VidMatch,
    delta: VidMatch,
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

    /// Insert a row with the given commit ID; returns its row ID. The
    /// row is appended as a batch of one.
    pub fn insert(&mut self, row: &[Value], cid: u64) -> Result<usize> {
        let batch = InsertBatch::encode(&self.schema, [row])?;
        self.append(batch, cid)
    }

    /// Append `batch`'s rows, visible from commit ID `cid` on; returns
    /// the first new row's id. Each column's delta absorbs the batch's
    /// dictionary, one lookup per distinct value, and remaps its vids
    /// (an empty delta becomes the batch's column); the rows' versions
    /// are pushed at once.
    pub fn append(&mut self, batch: InsertBatch, cid: u64) -> Result<usize> {
        if batch.columns.len() != self.columns.len() {
            return Err(HanaError::Storage(format!(
                "a batch of {} columns cannot append to '{}' of {}",
                batch.columns.len(),
                self.name,
                self.columns.len()
            )));
        }
        let first = self.versions.len();
        for (pair, column) in self.columns.iter_mut().zip(batch.columns) {
            pair.delta.extend(column);
        }
        self.versions.push_rows(cid, batch.rows);
        // Routed DML maintenance: every secondary index absorbs the new
        // rows on its ordered delta side. Deletes need no maintenance —
        // seeks re-check MVCC visibility per hit.
        let (columns, main_rows) = (&self.columns, self.main_rows);
        for ix in &mut self.indexes {
            for row in first..first + batch.rows {
                let key = ix.columns().iter();
                let key = key
                    .map(|&c| columns[c].delta.get(row - main_rows))
                    .collect();
                ix.append(key, row);
            }
        }
        Ok(first)
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
        let mut b = RowIdBitmap::all_set(self.versions.len());
        self.keep_visible(&mut b, 0, cid);
        b
    }

    /// Clear the bits of `rows` (bit `i` for row `first + i`, `first` a
    /// multiple of 64) whose row `cid` cannot see, a word at a time.
    fn keep_visible(&self, rows: &mut RowIdBitmap, first: usize, cid: u64) {
        debug_assert_eq!(first % 64, 0);
        for (i, word) in rows.words_mut().iter_mut().enumerate() {
            if *word != 0 {
                *word = self.versions.visible_in_word(first / 64 + i, *word, cid);
            }
        }
    }

    /// The table's one scan: rows visible under snapshot `cid` that
    /// satisfy every predicate of `preds` (none = all visible rows), as
    /// one bitmap — [`ColumnTable::scan_morsels`] with its morsels'
    /// bitmaps joined word by word. The result does not depend on the
    /// morsel size or on whether [`ExecContext::scatter`] ran the
    /// morsels on the pool or inline — a table of one morsel is the
    /// serial scan.
    pub fn scan_all(
        &self,
        exec: &ExecContext,
        preds: &[(usize, ColumnPredicate)],
        cid: u64,
    ) -> Result<RowIdBitmap> {
        let parts = self.scan_morsels(exec, preds, cid, |_, hits| hits)?;
        Ok(RowIdBitmap::concat(parts))
    }

    /// The table's one scan, morsel by morsel: each predicate is
    /// compiled once against its column's main and delta dictionaries,
    /// the row domain is sliced into `exec`'s morsels (64-row aligned),
    /// and one task per morsel intersects the predicates' range scans
    /// over its slice of the main and delta fragments in a bitmap of its
    /// own length (bit `i` for row `m.start + i`), keeps the rows `cid`
    /// sees a word at a time (`RowVersions::visible_in_word`), and hands
    /// the morsel and its bitmap to `f` on the same task. `f`'s results
    /// come back in morsel order.
    pub fn scan_morsels<T: Send>(
        &self,
        exec: &ExecContext,
        preds: &[(usize, ColumnPredicate)],
        cid: u64,
        f: impl Fn(Morsel, RowIdBitmap) -> T + Sync,
    ) -> Result<Vec<T>> {
        if let Some((col, _)) = preds.iter().find(|(col, _)| *col >= self.columns.len()) {
            return Err(HanaError::Storage(format!(
                "column index {col} out of range for '{}'",
                self.name
            )));
        }
        let compiled: Vec<CompiledPredicate> = preds
            .iter()
            .map(|(col, pred)| {
                let pair = &self.columns[*col];
                CompiledPredicate {
                    col: *col,
                    main: pred.compile_ordered(pair.main.dictionary()),
                    delta: pred.compile_delta(pair.delta.dictionary()),
                }
            })
            .collect();
        Ok(exec.scatter(exec.morsels(self.versions.len()), |m| {
            f(m, self.morsel_hits(m, &compiled, cid))
        }))
    }

    /// The hits of one morsel of [`ColumnTable::scan_morsels`].
    fn morsel_hits(&self, m: Morsel, preds: &[CompiledPredicate], cid: u64) -> RowIdBitmap {
        let scan = |pred: &CompiledPredicate| {
            let mut hits = RowIdBitmap::new(m.len());
            self.scan_morsel(pred, m, &mut hits);
            hits
        };
        let mut acc = match preds.split_first() {
            None => RowIdBitmap::all_set(m.len()),
            Some((first, rest)) => {
                let mut acc = scan(first);
                rest.iter().for_each(|p| acc.and(&scan(p)));
                acc
            }
        };
        self.keep_visible(&mut acc, m.start, cid);
        acc
    }

    /// Scan one column within table rows `[m.start, m.end)`, over the
    /// main and delta portions of the range; row `m.start + i` sets bit
    /// `i` of `out`.
    fn scan_morsel(&self, pred: &CompiledPredicate, m: Morsel, out: &mut RowIdBitmap) {
        let pair = &self.columns[pred.col];
        let main_end = m.end.min(self.main_rows);
        if m.start < main_end {
            pair.main
                .scan_range_into(&pred.main, out, 0, m.start, main_end);
        }
        if m.end > self.main_rows {
            let first = m.start.max(self.main_rows);
            pair.delta.scan_range_into(
                &pred.delta,
                out,
                first - m.start,
                first - self.main_rows,
                m.end - self.main_rows,
            );
        }
    }

    /// Materialize the given rows, projected to `projection` columns
    /// (empty projection = all columns).
    pub fn collect_rows(
        &self,
        rows: impl IntoIterator<Item = usize>,
        projection: &[usize],
    ) -> Vec<Row> {
        let proj: Vec<usize> = if projection.is_empty() {
            (0..self.schema.len()).collect()
        } else {
            projection.to_vec()
        };
        rows.into_iter()
            .map(|row| Row::from_values(proj.iter().map(|&c| self.value(row, c))))
            .collect()
    }

    /// All rows visible under `cid` (convenience for full-table reads).
    pub fn snapshot_rows(&self, cid: u64) -> Vec<Row> {
        self.collect_rows(self.visible(cid).iter(), &[])
    }

    /// Merge the delta fragments into the main fragments
    /// (`MainColumn::merge`: each column's dictionaries merge once and
    /// its row vids are remapped), then rebuild the indexes' main sides.
    /// Row IDs are preserved; the delta becomes empty. Traced as the
    /// phases `merge_columns` and `rebuild_indexes`.
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
        let span = hana_obs::span("merge_columns");
        let mut entries_added = 0;
        for pair in &mut self.columns {
            let main = pair.main.merge(&pair.delta);
            entries_added += main.dictionary().len() - pair.main.dictionary().len();
            pair.main = main;
            pair.delta = DeltaColumn::new();
        }
        self.main_rows = self.versions.len();
        self.merges += 1;
        span.attr("rows", self.main_rows as u64);
        span.attr("delta_rows", merged_rows);
        span.attr("entries_added", entries_added as u64);
        let span = span.next("rebuild_indexes");
        self.rebuild_indexes();
        drop(span);
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
    ///
    /// Rows are counted per vid, and each dictionary entry read once:
    /// the main fragment's in dictionary (value) order, the delta's
    /// sorted, the two merged with a value in both counted once.
    pub fn value_frequencies(&self, col: usize) -> Vec<(Value, u64)> {
        let pair = &self.columns[col];
        let counted = |values: &[Value], counts: Vec<u64>| -> Vec<(Value, u64)> {
            let each = values.iter().zip(&counts[1..]).filter(|(_, &n)| n > 0);
            each.map(|(v, &n)| (v.clone(), n)).collect()
        };
        let main_values = pair.main.dictionary().values();
        let mut counts = vec![0u64; main_values.len() + 1];
        pair.main
            .codec()
            .for_each(|_, vid| counts[vid as usize] += 1);
        let main = counted(main_values, counts);
        let delta_values = pair.delta.dictionary().values();
        let mut counts = vec![0u64; delta_values.len() + 1];
        pair.delta
            .vids()
            .iter()
            .for_each(|&vid| counts[vid as usize] += 1);
        let mut delta = counted(delta_values, counts);
        delta.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        // Merge by value; a value in both keeps the main fragment's.
        let mut out = Vec::with_capacity(main.len() + delta.len());
        let mut delta = delta.into_iter().peekable();
        for (v, n) in main {
            while let Some(d) = delta.next_if(|(d, _)| *d < v) {
                out.push(d);
            }
            let same = delta.next_if(|(d, _)| *d == v).map_or(0, |(_, m)| m);
            out.push((v, n + same));
        }
        out.extend(delta);
        out
    }

    // ---- secondary indexes ----

    /// Create a secondary index over `columns` (key order). The index
    /// is built from the table's current rows (main and delta) and kept
    /// maintained by [`ColumnTable::append`] and
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
        ix.rebuild(self.index_keys(&ix));
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

    /// Look up an index by name (names are stored lower-cased).
    pub fn index(&self, name: &str) -> Option<&SecondaryIndex> {
        self.indexes
            .iter()
            .find(|ix| ix.def().name.eq_ignore_ascii_case(name))
    }

    /// Seek an index: the ids of the rows matching the equality
    /// `prefix` (plus an optional range predicate on the next indexed
    /// column) that are visible under `cid`, ascending and each once —
    /// the order a scan returns them in. Only the hit rows are
    /// visibility-checked and nothing is sized by the table: a point
    /// seek costs its hits, not the row domain.
    pub fn index_seek(
        &self,
        index: &str,
        prefix: &[Value],
        range: Option<&ColumnPredicate>,
        cid: u64,
    ) -> Result<Vec<u32>> {
        let ix = self
            .index(index)
            .ok_or_else(|| HanaError::Catalog(format!("no index '{index}' on '{}'", self.name)))?;
        let mut hits = ix.seek(prefix, range);
        hits.retain(|&row| self.versions.visible(row as usize, cid));
        // Key order is row order for one key (main ids, then the later
        // delta ids); a range over several keys interleaves them.
        hits.sort_unstable();
        Ok(hits)
    }

    /// Every current row's key of `ix`'s columns, row-major in row-id
    /// order.
    fn index_keys(&self, ix: &SecondaryIndex) -> Vec<Value> {
        let cols = ix.columns();
        let mut keys = Vec::with_capacity(self.versions.len() * cols.len());
        for row in 0..self.versions.len() {
            keys.extend(cols.iter().map(|&c| self.value(row, c)));
        }
        keys
    }

    /// Rebuild every index's sorted main side (delta-merge barrier).
    fn rebuild_indexes(&mut self) {
        let mut indexes = std::mem::take(&mut self.indexes);
        for ix in &mut indexes {
            ix.rebuild(self.index_keys(ix));
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
                .into_iter()
                .map(|r| r as usize)
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
    fn index_seek_returns_ascending_visible_ids_like_the_scan() {
        let mut t = table();
        let tags = ["d", "a", "c", "e", "b"];
        let insert = |t: &mut ColumnTable, i: i64| {
            let tag = tags[(i % 5) as usize];
            t.insert(&[Value::Int(i % 2), Value::from(tag)], 1).unwrap();
        };
        for i in 0..60 {
            insert(&mut t, i);
        }
        t.create_index("ix_id_tag", &["id".into(), "tag".into()])
            .unwrap();
        t.merge_delta();
        for i in 60..90 {
            insert(&mut t, i);
        }
        for row in [5, 9, 27, 65, 69] {
            t.delete(row, 2).unwrap();
        }
        let prefix = [Value::Int(1)];
        let range = ColumnPredicate::Between(Value::from("b"), Value::from("d"));
        // Key order interleaves the row ids, in main and in delta.
        let raw = t.index("ix_id_tag").unwrap().seek(&prefix, Some(&range));
        assert!(!raw.is_sorted(), "{raw:?}");
        assert!(raw.iter().any(|&r| r >= 60) && raw.iter().any(|&r| r < 60));

        let hits = t.index_seek("ix_id_tag", &prefix, Some(&range), 2).unwrap();
        assert!(hits.windows(2).all(|w| w[0] < w[1]), "{hits:?}");
        let scanned = t
            .scan_all(
                ExecContext::global(),
                &[(0, ColumnPredicate::Eq(Value::Int(1))), (1, range)],
                2,
            )
            .unwrap();
        let hits: Vec<usize> = hits.into_iter().map(|r| r as usize).collect();
        assert_eq!(hits, scanned.iter().collect::<Vec<_>>());
        assert!(hits.iter().all(|&r| ![5, 9, 27, 65, 69].contains(&r)));
    }

    #[test]
    fn value_frequencies_count_main_and_delta_rows_like_a_row_scan() {
        let mut t = table();
        let tag = |i: i64| match i % 7 {
            0 => Value::Null,
            k => Value::from(format!("t{}", (k * i) % 9)),
        };
        for i in 0..300 {
            t.insert(&[Value::Int(i % 13), tag(i)], 1).unwrap();
        }
        t.merge_delta();
        for i in 300..420 {
            t.insert(&[Value::Int(i % 17), tag(i)], 1).unwrap();
        }
        t.delete(7, 2).unwrap();
        for col in 0..2 {
            let mut want: std::collections::BTreeMap<Value, u64> = Default::default();
            for row in 0..t.row_count() {
                let v = t.value(row, col);
                if !v.is_null() {
                    *want.entry(v).or_insert(0) += 1;
                }
            }
            let want: Vec<(Value, u64)> = want.into_iter().collect();
            assert_eq!(t.value_frequencies(col), want, "column {col}");
        }
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
