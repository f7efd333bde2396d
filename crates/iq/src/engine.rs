//! The extended-storage engine ("HANA IQ").
//!
//! The engine is "completely shielded by the SAP HANA environment" (§3.1):
//! the only callers are the platform's federated query processor (via
//! [`IqEngine::execute`]), the transaction coordinator (via the
//! [`TwoPhaseParticipant`] impl) and the direct-load path. It supports
//! failure injection so the integration tests can reproduce the paper's
//! error semantics — "in case of an error of the extended system, every
//! access … will be aborted".

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use hana_columnar::{ColumnPredicate, BLOCK_ROWS};
use hana_txn::{TwoPhaseParticipant, Vote};
use hana_types::{AggFunc, ColumnDef, DataType, HanaError, Result, ResultSet, Row, Schema, Value};

use crate::cache::BufferCache;
use crate::page::PageFile;
use crate::plan::IqPlan;
use crate::store::{Chunk, IqTable};

/// Buffered (pre-prepare) writes of one transaction.
enum PendingOp {
    Insert { table: String, rows: Vec<Row> },
    Delete { table: String, rows: Vec<usize> },
}

/// Prepared-but-uncommitted state of one transaction.
enum StagedOp {
    Insert { table: String, chunks: Vec<Chunk> },
    Delete { table: String, rows: Vec<usize> },
}

/// Scan/prune statistics (read by tests and the ablation benches).
#[derive(Debug, Default)]
pub struct ScanStats {
    /// Chunks whose pages were actually visited.
    pub chunks_scanned: AtomicU64,
    /// Chunks skipped by zone maps.
    pub chunks_pruned: AtomicU64,
    /// Equality predicates answered from a bitmap index.
    pub bitmap_index_hits: AtomicU64,
    /// Sub-chunk blocks whose values were predicate-evaluated.
    pub blocks_scanned: AtomicU64,
    /// Sub-chunk blocks skipped by block-level zone maps.
    pub blocks_skipped: AtomicU64,
}

/// The disk-based extended storage engine.
pub struct IqEngine {
    name: String,
    cache: Arc<BufferCache>,
    tables: RwLock<HashMap<String, IqTable>>,
    pending: Mutex<HashMap<u64, Vec<PendingOp>>>,
    staged: Mutex<HashMap<u64, Vec<StagedOp>>>,
    failing: AtomicBool,
    temp_counter: AtomicU64,
    /// Scan statistics.
    pub stats: ScanStats,
}

impl IqEngine {
    /// Create an engine backed by a fresh temporary page file with a
    /// buffer cache of `cache_pages` pages.
    pub fn new(name: &str, cache_pages: usize) -> Result<IqEngine> {
        let file = Arc::new(PageFile::temp(name)?);
        Ok(IqEngine {
            name: name.to_string(),
            cache: Arc::new(BufferCache::new(file, cache_pages)),
            tables: RwLock::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
            staged: Mutex::new(HashMap::new()),
            failing: AtomicBool::new(false),
            temp_counter: AtomicU64::new(0),
            stats: ScanStats::default(),
        })
    }

    /// The engine's participant name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The buffer cache (exposed for I/O accounting in benches).
    pub fn cache(&self) -> &Arc<BufferCache> {
        &self.cache
    }

    /// Inject or clear a simulated outage of the extended store.
    pub fn set_failing(&self, failing: bool) {
        self.failing.store(failing, Ordering::SeqCst);
    }

    fn check_up(&self) -> Result<()> {
        if self.failing.load(Ordering::SeqCst) {
            // Retryable: an extended-store outage is transient by
            // definition — the federation layer may retry or degrade.
            Err(HanaError::remote_unavailable(format!(
                "extended storage '{}' is unavailable",
                self.name
            )))
        } else {
            Ok(())
        }
    }

    fn key(name: &str) -> String {
        name.to_ascii_lowercase()
    }

    /// Create a table.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<()> {
        self.check_up()?;
        let mut tables = self.tables.write();
        let key = Self::key(name);
        if tables.contains_key(&key) {
            return Err(HanaError::Catalog(format!(
                "extended table '{name}' already exists"
            )));
        }
        tables.insert(key.clone(), IqTable::new(&key, schema));
        Ok(())
    }

    /// Drop a table, freeing its pages.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        self.check_up()?;
        let table = self
            .tables
            .write()
            .remove(&Self::key(name))
            .ok_or_else(|| HanaError::Catalog(format!("unknown extended table '{name}'")))?;
        for chunk in &table.chunks {
            chunk.free(&self.cache);
        }
        Ok(())
    }

    /// Whether a table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.read().contains_key(&Self::key(name))
    }

    /// Schema of a table.
    pub fn table_schema(&self, name: &str) -> Result<Schema> {
        self.tables
            .read()
            .get(&Self::key(name))
            .map(|t| t.schema.clone())
            .ok_or_else(|| HanaError::Catalog(format!("unknown extended table '{name}'")))
    }

    /// Rows visible in `name` under snapshot `cid`.
    pub fn row_count(&self, name: &str, cid: u64) -> Result<usize> {
        self.check_up()?;
        self.tables
            .read()
            .get(&Self::key(name))
            .map(|t| t.visible_rows(cid))
            .ok_or_else(|| HanaError::Catalog(format!("unknown extended table '{name}'")))
    }

    /// **Direct load**: bulk-load rows straight into the extended store
    /// "without taking a detour via the in-memory store" (§3.1), visible
    /// from `cid`.
    pub fn direct_load(&self, name: &str, rows: &[Row], cid: u64) -> Result<()> {
        self.check_up()?;
        let mut tables = self.tables.write();
        let table = tables
            .get_mut(&Self::key(name))
            .ok_or_else(|| HanaError::Catalog(format!("unknown extended table '{name}'")))?;
        for row in rows {
            table.schema.check_row(row.values())?;
        }
        table.append_rows(&self.cache, rows, cid)
    }

    /// Create a temporary table from materialized rows (semijoin /
    /// table-relocation support). Returns its generated name.
    pub fn create_temp_table(&self, schema: Schema, rows: &[Row], cid: u64) -> Result<String> {
        self.check_up()?;
        let name = format!("#tmp_{}", self.temp_counter.fetch_add(1, Ordering::Relaxed));
        self.create_table(&name, schema)?;
        self.direct_load(&name, rows, cid)?;
        Ok(name)
    }

    // ---- transactional writes (buffered until 2PC) ----

    /// Buffer inserts for transaction `tid`.
    pub fn buffer_insert(&self, tid: u64, table: &str, rows: Vec<Row>) -> Result<()> {
        self.check_up()?;
        let schema = self.table_schema(table)?;
        for row in &rows {
            schema.check_row(row.values())?;
        }
        self.pending
            .lock()
            .entry(tid)
            .or_default()
            .push(PendingOp::Insert {
                table: Self::key(table),
                rows,
            });
        Ok(())
    }

    /// Buffer for transaction `tid` the deletion of the rows of `table`
    /// that `predicates` select under `snapshot_cid` and `keep` accepts
    /// (it sees each candidate's image once, in row order; `None`
    /// accepts every candidate and reads no image). Returns how many
    /// rows were buffered, and the images `keep` accepted.
    pub fn buffer_delete(
        &self,
        tid: u64,
        table: &str,
        predicates: &[(String, ColumnPredicate)],
        snapshot_cid: u64,
        mut keep: Option<&mut dyn FnMut(&Row) -> bool>,
    ) -> Result<(usize, Vec<Row>)> {
        self.check_up()?;
        let tables = self.tables.read();
        let t = tables
            .get(&Self::key(table))
            .ok_or_else(|| HanaError::Catalog(format!("unknown extended table '{table}'")))?;
        let preds = resolve_predicates(&t.schema, predicates)?;
        let all: Vec<usize> = (0..t.schema.len()).collect();
        let (mut ids, mut images) = (Vec::new(), Vec::new());
        for chunk in t.chunks.iter().filter(|c| c.created_cid <= snapshot_cid) {
            let hits = self.scan_chunk(t, chunk, &preds, snapshot_cid)?;
            let Some(keep) = keep.as_mut() else {
                ids.extend(hits.into_iter().map(|local| chunk.base_row + local));
                continue;
            };
            let rows = self.project(chunk, &hits, &all)?;
            for (local, row) in hits.into_iter().zip(rows) {
                if keep(&row) {
                    ids.push(chunk.base_row + local);
                    images.push(row);
                }
            }
        }
        let n = ids.len();
        self.pending
            .lock()
            .entry(tid)
            .or_default()
            .push(PendingOp::Delete {
                table: Self::key(table),
                rows: ids,
            });
        Ok((n, images))
    }

    /// Chunk-local matching row positions (visibility included).
    fn scan_chunk(
        &self,
        table: &IqTable,
        chunk: &Chunk,
        preds: &[(usize, ColumnPredicate)],
        cid: u64,
    ) -> Result<Vec<usize>> {
        // Zone-map pruning.
        for (col, pred) in preds {
            if !chunk.zones[*col].may_match(pred) {
                self.stats.chunks_pruned.fetch_add(1, Ordering::Relaxed);
                return Ok(Vec::new());
            }
        }
        self.stats.chunks_scanned.fetch_add(1, Ordering::Relaxed);

        // Block-level pruning: a chunk that survives its zone map may
        // still have whole [`BLOCK_ROWS`]-row blocks no predicate can
        // match; those blocks skip predicate evaluation, and if none
        // survive the chunk's data pages are never read.
        let nblocks = chunk.rows.div_ceil(BLOCK_ROWS).max(1);
        let mut block_ok = vec![true; nblocks];
        for (col, pred) in preds {
            for (b, ok) in block_ok.iter_mut().enumerate() {
                if *ok && !chunk.block_zones[*col][b].may_match(pred) {
                    *ok = false;
                }
            }
        }
        let live = block_ok.iter().filter(|&&ok| ok).count() as u64;
        self.stats.blocks_scanned.fetch_add(live, Ordering::Relaxed);
        self.stats
            .blocks_skipped
            .fetch_add(nblocks as u64 - live, Ordering::Relaxed);
        let obs = hana_obs::registry();
        if live > 0 {
            obs.counter("hana_iq_blocks_scanned_total").add(live);
        }
        if nblocks as u64 > live {
            obs.counter("hana_iq_blocks_skipped_total")
                .add(nblocks as u64 - live);
        }
        if live == 0 {
            return Ok(Vec::new());
        }

        let mut candidates: Option<Vec<bool>> = None;
        for (col, pred) in preds {
            // Equality over an indexed column: use the bitmap index and
            // skip the data pages for this predicate.
            let from_index = match (pred, &chunk.bitmap_index[*col]) {
                (ColumnPredicate::Eq(v), Some(index)) => {
                    self.stats.bitmap_index_hits.fetch_add(1, Ordering::Relaxed);
                    let mut mask = vec![false; chunk.rows];
                    if let Some(b) = index.get(v) {
                        for r in b.iter() {
                            mask[r] = true;
                        }
                    }
                    Some(mask)
                }
                _ => None,
            };
            let mask = match from_index {
                Some(m) => m,
                None => {
                    let values = chunk.read_column(&self.cache, *col)?;
                    let mut mask = vec![false; chunk.rows];
                    for (b, &ok) in block_ok.iter().enumerate() {
                        if !ok {
                            continue;
                        }
                        let start = b * BLOCK_ROWS;
                        let end = ((b + 1) * BLOCK_ROWS).min(chunk.rows);
                        for (m, v) in mask[start..end].iter_mut().zip(&values[start..end]) {
                            *m = pred.matches(v);
                        }
                    }
                    mask
                }
            };
            candidates = Some(match candidates {
                None => mask,
                Some(prev) => prev.into_iter().zip(mask).map(|(a, b)| a && b).collect(),
            });
        }
        let mask = candidates.unwrap_or_else(|| vec![true; chunk.rows]);
        Ok(mask
            .into_iter()
            .enumerate()
            .filter(|&(local, m)| m && table.row_visible(chunk.base_row + local, chunk, cid))
            .map(|(local, _)| local)
            .collect())
    }

    /// Scan and project one chunk (filter + visibility + row build).
    fn scan_chunk_rows(
        &self,
        table: &IqTable,
        chunk: &Chunk,
        preds: &[(usize, ColumnPredicate)],
        proj_cols: &[usize],
        cid: u64,
    ) -> Result<Vec<Row>> {
        let hits = self.scan_chunk(table, chunk, preds, cid)?;
        self.project(chunk, &hits, proj_cols)
    }

    /// The `proj_cols` of the chunk-local rows `hits`.
    fn project(&self, chunk: &Chunk, hits: &[usize], proj_cols: &[usize]) -> Result<Vec<Row>> {
        if hits.is_empty() {
            return Ok(Vec::new());
        }
        let cols: Vec<Vec<Value>> = proj_cols
            .iter()
            .map(|&c| chunk.read_column(&self.cache, c))
            .collect::<Result<_>>()?;
        Ok(hits
            .iter()
            .map(|&local| Row::from_values(cols.iter().map(|c| c[local].clone())))
            .collect())
    }

    /// Scan a table, returning the projected schema and rows.
    ///
    /// The chunks are scattered over the global execution pool (the
    /// buffer cache is internally synchronized); results are
    /// concatenated in chunk order, so the output is identical to a
    /// serial scan.
    pub fn scan(
        &self,
        table: &str,
        predicates: &[(String, ColumnPredicate)],
        projection: Option<&[String]>,
        cid: u64,
    ) -> Result<ResultSet> {
        self.check_up()?;
        let span = hana_obs::span("iq_scan");
        let (hits_before, misses_before) = self.cache.stats();
        let tables = self.tables.read();
        let t = tables
            .get(&Self::key(table))
            .ok_or_else(|| HanaError::Catalog(format!("unknown extended table '{table}'")))?;
        let preds = resolve_predicates(&t.schema, predicates)?;
        let (proj_cols, out_schema) = projected(&t.schema, projection)?;
        let visible_chunks: Vec<&Chunk> =
            t.chunks.iter().filter(|c| c.created_cid <= cid).collect();
        let per_chunk = hana_exec::ExecContext::global().scatter(visible_chunks, |chunk| {
            self.scan_chunk_rows(t, chunk, &preds, &proj_cols, cid)
        });
        let mut rows = Vec::new();
        for chunk_rows in per_chunk {
            rows.extend(chunk_rows?);
        }
        let (hits_after, misses_after) = self.cache.stats();
        span.set_rows(rows.len() as u64);
        span.attr("cache_hits", hits_after - hits_before);
        span.attr("pages_read", misses_after - misses_before);
        Ok(ResultSet::new(out_schema, rows))
    }

    /// Execute a shipped sub-plan (§3.1 "function shipping to the
    /// extended storage").
    pub fn execute(&self, plan: &IqPlan, cid: u64) -> Result<ResultSet> {
        self.check_up()?;
        match plan {
            IqPlan::Scan {
                table,
                predicates,
                projection,
            } => self.scan(table, predicates, projection.as_deref(), cid),
            IqPlan::Join {
                left,
                right,
                left_col,
                right_col,
            } => {
                let l = self.execute(left, cid)?;
                let r = self.execute(right, cid)?;
                let lc = l.schema.require(left_col)?;
                let rc = r.schema.require(right_col)?;
                let schema = joined(&l.schema, &r.schema)?;
                let mut build: HashMap<Value, Vec<usize>> = HashMap::new();
                for (i, row) in l.rows.iter().enumerate() {
                    if !row[lc].is_null() {
                        build.entry(row[lc].clone()).or_default().push(i);
                    }
                }
                let mut rows = Vec::new();
                for rrow in &r.rows {
                    if let Some(matches) = build.get(&rrow[rc]) {
                        for &i in matches {
                            rows.push(l.rows[i].clone().concat(rrow.clone()));
                        }
                    }
                }
                Ok(ResultSet::new(schema, rows))
            }
            IqPlan::Aggregate {
                input,
                group_by,
                aggregates,
            } => {
                let inp = self.execute(input, cid)?;
                aggregate_rows(&inp, group_by, aggregates)
            }
        }
    }

    /// The schema of the rows [`IqEngine::execute`] returns for `plan`,
    /// found without running it: what a driver resolves the epilogue it
    /// applies to them against.
    pub fn output_schema(&self, plan: &IqPlan) -> Result<Schema> {
        match plan {
            IqPlan::Scan {
                table, projection, ..
            } => Ok(projected(&self.table_schema(table)?, projection.as_deref())?.1),
            IqPlan::Join { left, right, .. } => {
                joined(&self.output_schema(left)?, &self.output_schema(right)?)
            }
            IqPlan::Aggregate {
                input,
                group_by,
                aggregates,
            } => aggregate_schema(&self.output_schema(input)?, group_by, aggregates),
        }
    }

    /// Column `(distinct_estimate, min, max)` over visible chunks —
    /// feeds the federated optimizer's cost model.
    pub fn column_range(
        &self,
        table: &str,
        column: &str,
    ) -> Result<(Option<Value>, Option<Value>)> {
        let tables = self.tables.read();
        let t = tables
            .get(&Self::key(table))
            .ok_or_else(|| HanaError::Catalog(format!("unknown extended table '{table}'")))?;
        let col = t.schema.require(column)?;
        let mut min = None;
        let mut max = None;
        for chunk in &t.chunks {
            let z = &chunk.zones[col];
            if let Some(m) = &z.min {
                if min.as_ref().is_none_or(|x| m < x) {
                    min = Some(m.clone());
                }
            }
            if let Some(m) = &z.max {
                if max.as_ref().is_none_or(|x| m > x) {
                    max = Some(m.clone());
                }
            }
        }
        Ok((min, max))
    }

    /// Exact distinct-count of a column over all chunks (deleted rows
    /// included — the count is an optimizer synopsis, not a result).
    pub fn column_distinct(&self, table: &str, column: &str) -> Result<u64> {
        let tables = self.tables.read();
        let t = tables
            .get(&Self::key(table))
            .ok_or_else(|| HanaError::Catalog(format!("unknown extended table '{table}'")))?;
        let col = t.schema.require(column)?;
        let mut seen = std::collections::BTreeSet::new();
        for chunk in &t.chunks {
            for v in chunk.read_column(&self.cache, col)? {
                if !v.is_null() {
                    seen.insert(v);
                }
            }
        }
        Ok(seen.len() as u64)
    }
}

/// The positions of the `projection` columns of `schema` (`None`: all of
/// them), and the schema they form.
fn projected(schema: &Schema, projection: Option<&[String]>) -> Result<(Vec<usize>, Schema)> {
    let cols: Vec<usize> = match projection {
        None => (0..schema.len()).collect(),
        Some(names) => names
            .iter()
            .map(|n| schema.require(n))
            .collect::<Result<_>>()?,
    };
    let out = Schema::new(cols.iter().map(|&c| schema.column(c).clone()).collect())?;
    Ok((cols, out))
}

/// The schema of a join's rows: the left columns then the right ones,
/// qualified `l.` / `r.` when a name would repeat.
fn joined(l: &Schema, r: &Schema) -> Result<Schema> {
    l.join(r)
        .or_else(|_| l.qualified("l").join(&r.qualified("r")))
}

/// The schema of an aggregation's rows over rows of `input`, named by
/// the platform's shared convention: a group column `_gN` of its input
/// column's type, then an aggregate `_aN` (a count a BIGINT, any other
/// a DOUBLE).
fn aggregate_schema(
    input: &Schema,
    group_by: &[String],
    aggregates: &[(AggFunc, Option<String>)],
) -> Result<Schema> {
    let mut out_cols = Vec::with_capacity(group_by.len() + aggregates.len());
    for (i, g) in group_by.iter().enumerate() {
        let name = format!("_g{i}");
        out_cols.push(ColumnDef {
            name,
            ..input.column(input.require(g)?).clone()
        });
    }
    for (i, (f, _)) in aggregates.iter().enumerate() {
        let dt = match f {
            AggFunc::Count | AggFunc::CountStar => DataType::BigInt,
            _ => DataType::Double,
        };
        out_cols.push(ColumnDef::new(&format!("_a{i}"), dt));
    }
    Schema::new(out_cols)
}

/// Resolve predicate column names to indices.
fn resolve_predicates(
    schema: &Schema,
    predicates: &[(String, ColumnPredicate)],
) -> Result<Vec<(usize, ColumnPredicate)>> {
    predicates
        .iter()
        .map(|(name, p)| schema.require(name).map(|i| (i, p.clone())))
        .collect()
}

/// Hash aggregation of the rows of `input` ([`aggregate_schema`]).
pub fn aggregate_rows(
    input: &ResultSet,
    group_by: &[String],
    aggregates: &[(AggFunc, Option<String>)],
) -> Result<ResultSet> {
    let group_idx: Vec<usize> = group_by
        .iter()
        .map(|g| input.schema.require(g))
        .collect::<Result<_>>()?;
    let agg_idx: Vec<(AggFunc, Option<usize>)> = aggregates
        .iter()
        .map(|(f, col)| {
            Ok((
                *f,
                match col {
                    Some(c) => Some(input.schema.require(c)?),
                    None => None,
                },
            ))
        })
        .collect::<Result<_>>()?;
    let out_schema = aggregate_schema(&input.schema, group_by, aggregates)?;

    let mut groups: HashMap<Vec<Value>, Vec<hana_types::Accumulator>> = HashMap::new();
    for row in &input.rows {
        let key: Vec<Value> = group_idx.iter().map(|&i| row[i].clone()).collect();
        let accs = groups
            .entry(key)
            .or_insert_with(|| agg_idx.iter().map(|(f, _)| f.accumulator()).collect());
        for (acc, (_, col)) in accs.iter_mut().zip(&agg_idx) {
            match col {
                Some(c) => acc.add(&row[*c]),
                None => acc.add(&Value::Null), // CountStar ignores input
            }
        }
    }
    // Global aggregation over empty input still yields one row.
    if groups.is_empty() && group_idx.is_empty() {
        groups.insert(
            Vec::new(),
            agg_idx.iter().map(|(f, _)| f.accumulator()).collect(),
        );
    }
    let mut rows: Vec<Row> = groups
        .into_iter()
        .map(|(mut key, accs)| {
            key.extend(accs.iter().map(|a| a.finish()));
            Row::from_values(key)
        })
        .collect();
    // Deterministic output order for tests.
    rows.sort();
    Ok(ResultSet::new(out_schema, rows))
}

impl TwoPhaseParticipant for IqEngine {
    fn name(&self) -> &str {
        &self.name
    }

    /// Phase 1: serialize buffered inserts to disk pages (durable but
    /// invisible) and move the transaction to the staged state.
    fn prepare(&self, tid: u64) -> Result<Vote> {
        self.check_up()?;
        let Some(ops) = self.pending.lock().remove(&tid) else {
            return Ok(Vote::ReadOnly);
        };
        if ops.is_empty() {
            return Ok(Vote::ReadOnly);
        }
        let mut staged = Vec::with_capacity(ops.len());
        for op in ops {
            match op {
                PendingOp::Insert { table, rows } => {
                    let schema = self.table_schema(&table)?;
                    let mut chunks = Vec::new();
                    for group in rows.chunks(crate::store::ROWS_PER_CHUNK) {
                        chunks.push(Chunk::build(&self.cache, &schema, group, 0, u64::MAX)?);
                    }
                    staged.push(StagedOp::Insert { table, chunks });
                }
                PendingOp::Delete { table, rows } => {
                    staged.push(StagedOp::Delete { table, rows });
                }
            }
        }
        self.staged.lock().insert(tid, staged);
        Ok(Vote::Prepared)
    }

    /// Phase 2: publish staged chunks/deletes under `cid`.
    fn commit(&self, tid: u64, cid: u64) -> Result<()> {
        self.check_up()?;
        let Some(ops) = self.staged.lock().remove(&tid) else {
            return Ok(());
        };
        let mut tables = self.tables.write();
        for op in ops {
            match op {
                StagedOp::Insert { table, chunks } => {
                    if let Some(t) = tables.get_mut(&table) {
                        t.attach_chunks(chunks, cid);
                    }
                }
                StagedOp::Delete { table, rows } => {
                    if let Some(t) = tables.get_mut(&table) {
                        for r in rows {
                            t.deleted.entry(r).or_insert(cid);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Roll back: drop buffered ops and free staged pages.
    fn abort(&self, tid: u64) -> Result<()> {
        self.pending.lock().remove(&tid);
        if let Some(ops) = self.staged.lock().remove(&tid) {
            for op in ops {
                if let StagedOp::Insert { chunks, .. } = op {
                    for chunk in chunks {
                        chunk.free(&self.cache);
                    }
                }
            }
        }
        Ok(())
    }
}
