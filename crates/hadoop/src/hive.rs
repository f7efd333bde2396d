//! Hive: a SQL layer compiling to MapReduce DAGs.
//!
//! Mirrors the architecture the paper integrates with (§4.2–4.4):
//!
//! * a **MetaStore** mapping tables to HDFS directories, schemas and
//!   statistics (row count, file count) — the statistics SDA reads for
//!   federated cost estimation;
//! * a compiler that turns a `SELECT` into a **DAG of MR jobs**: one
//!   map-only scan job per source, one repartition-join job per join,
//!   a map-only residual-filter job for conjuncts that span sources and
//!   one aggregation job for GROUP BY. The compiler does what Hive's
//!   optimiser does before a job is launched — predicate push-down into
//!   the table scan, column pruning, map-side aggregation — and binds
//!   every expression to its stage's schema, so an unknown column fails
//!   the statement, not a row;
//! * Hive's **fetch-task** fast path: a bare `SELECT *` (no predicates,
//!   joins or aggregates) reads HDFS directly with no MR job at all —
//!   this is exactly why the remote materialization of §4.4 pays off;
//! * a **two-phase CTAS** (`CREATE TABLE AS SELECT`), matching the
//!   implementation detail the paper blames for materialization overhead.
//!
//! HAVING, final projection, DISTINCT and ORDER BY are applied by the
//! driver after the last job, as Hive's plan driver does for small final
//! result sets.
//!
//! Tables and the intermediates between scan, join and filter jobs are
//! Hive text files (`^A`-separated fields, `\N` for NULL) that a map
//! task decodes lazily: it splits a line into field slices and parses
//! only the fields its expressions read. Partial aggregates travel
//! typed, through [`hana_types::encode_row`]. A line that does not
//! decode, or an expression that cannot be evaluated, fails the job.

use std::collections::{HashMap, HashSet};
use std::str::Lines;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use hana_sql::finish::{aggregate_output_schema, collect_aggregates, finish_query};
use hana_sql::{
    evaluate, evaluate_predicate, parse_statement, resolve_column, BinOp, Expr, JoinKind, Query,
    Statement, TableRef,
};
use hana_types::{
    decode_values, encode_row, Accumulator, AggFunc, DataType, HanaError, Result, ResultSet, Row,
    Schema, Value,
};

use crate::mapreduce::{JobSpec, Mapper, MrCluster, Reducer, KV};

/// Hive's default field separator (^A).
pub const FIELD_SEP: char = '\u{1}';
/// How the text format spells NULL.
const NULL_FIELD: &str = "\\N";

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
            // What the text format cannot hold must not get in.
            let unreadable = |s: &str| s == NULL_FIELD || s.contains([FIELD_SEP, '\n', '\r']);
            if let Some(s) = row
                .values()
                .iter()
                .filter_map(Value::as_str)
                .find(|s| unreadable(s))
            {
                return Err(HanaError::Unsupported(format!(
                    "hive text format cannot hold the string {s:?}"
                )));
            }
        }
        let file = format!("{}/data-{:05}", table.location, table.file_count);
        let lines: Vec<String> = rows.iter().map(to_line).collect();
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
        // Compile first: an unknown column or an unsupported join fails
        // the statement before its first job is launched.
        let plan = self.compile(q)?;
        let (rows, schema) = self.run(plan)?;
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
        let Some(table) = self
            .metastore
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
        else {
            return Ok(None);
        };
        let files = self.cluster.hdfs().list(&table.location);
        let rows = self.read_rows(&files, |line| parse_row(line, &table.schema))?;
        let (rows, schema) = finish_query(rows, &table.schema, q)?;
        Ok(Some(ResultSet::new(schema, rows)))
    }

    /// Decode every line of `files` on the driver.
    fn read_rows(
        &self,
        files: &[String],
        decode: impl Fn(&str) -> Result<Row>,
    ) -> Result<Vec<Row>> {
        let mut rows = Vec::new();
        for file in files {
            let text = self.cluster.hdfs().read_text(file)?;
            for line in text.lines() {
                rows.push(decode(line)?);
            }
        }
        Ok(rows)
    }

    // ---- the compiler: statement -> jobs, no job launched ----

    fn compile(&self, q: &Query) -> Result<Plan> {
        let from = q
            .from
            .as_ref()
            .ok_or_else(|| HanaError::Plan("query without FROM".into()))?;
        let mut bindings = vec![self.bind_table(from)?];
        for j in &q.joins {
            if j.kind != JoinKind::Inner {
                return Err(HanaError::Unsupported(
                    "hive compiler supports inner joins only".into(),
                ));
            }
            bindings.push(self.bind_table(&j.table)?);
        }

        // Predicate push-down: a WHERE conjunct over one source moves
        // into that source's table scan, the rest wait for the joins.
        let mut pushed: Vec<Vec<Expr>> = vec![Vec::new(); bindings.len()];
        let mut residual: Vec<Expr> = Vec::new();
        for c in q.filter.iter().flat_map(Expr::conjuncts) {
            match single_source_of(c, &bindings) {
                Some(i) => pushed[i].push(c.clone()),
                None => residual.push(c.clone()),
            }
        }

        // Column pruning: a scan emits the columns some later operator
        // names. Its own predicate is evaluated before the cut.
        let later = q.select.iter().map(|s| &s.expr);
        let later = later.chain(q.joins.iter().map(|j| &j.on));
        let later = later.chain(&residual).chain(&q.group_by).chain(&q.having);
        let later = later.chain(q.order_by.iter().map(|(e, _)| e));
        let keep = named_columns(q, later, &bindings);

        // Stage 1: one filtered, pruned scan job per source.
        let mut scans = Vec::with_capacity(bindings.len());
        let mut schemas = Vec::with_capacity(bindings.len());
        for ((b, preds), keep) in bindings.iter().zip(pushed).zip(keep) {
            let full = b.table.schema.qualified(&b.name);
            let pred = preds.into_iter().reduce(Expr::and);
            let cols = keep.iter().map(|&i| full.column(i).clone()).collect();
            scans.push(Scan {
                name: format!("scan {} as {}", b.table.name, b.name),
                tmp: format!("scan-{}", b.name),
                inputs: self.cluster.hdfs().list(&b.table.location),
                mapper: Arc::new(FilterMapper {
                    arity: full.len(),
                    pred: pred.map(|p| BoundExprs::bind(&full, vec![p])).transpose()?,
                    keep: (keep.len() < full.len()).then_some(keep),
                }),
            });
            schemas.push(Schema::new(cols)?);
        }

        // Stage 2: pairwise repartition joins, left-deep.
        let mut schemas = schemas.into_iter();
        let mut schema = schemas.next().expect("FROM binds one table");
        let mut joins = Vec::with_capacity(q.joins.len());
        for (j, right) in q.joins.iter().zip(schemas) {
            // `true` (comma join) means residuals carry the condition —
            // not supported here, require an explicit ON.
            let (lk, rk) = equi_keys(&j.on, &schema, &right)?;
            joins.push(Join {
                left: (lk, schema.column(lk).data_type),
                right: (rk, right.column(rk).data_type),
            });
            schema = schema.join(&right)?;
        }

        // Stage 3: residual filter job (conditions spanning sources).
        let residual = match residual.into_iter().reduce(Expr::and) {
            Some(p) => Some(Arc::new(FilterMapper {
                arity: schema.len(),
                pred: Some(BoundExprs::bind(&schema, vec![p])?),
                keep: None,
            })),
            None => None,
        };

        // Stage 4: aggregation job if needed.
        let aggs = collect_aggregates(q);
        let agg = if q.group_by.is_empty() && aggs.is_empty() {
            None
        } else {
            // Output schema: `_g0.._gN` then `_a0.._aM` (shared convention).
            let out_schema = aggregate_output_schema(q, &schema)?;
            let (funcs, args): (Vec<AggFunc>, Vec<Option<Expr>>) = aggs.into_iter().unzip();
            // Bound together, group keys first, each distinct expression
            // once (Q1 sums and averages the same column); COUNT(*)
            // reads nothing.
            let mut exprs = q.group_by.clone();
            let mut place = |e: Expr| {
                exprs.iter().position(|x| *x == e).unwrap_or_else(|| {
                    exprs.push(e);
                    exprs.len() - 1
                })
            };
            let arg_of = args.into_iter().map(|a| a.map(&mut place)).collect();
            Some(Agg {
                mapper: Arc::new(AggMapper {
                    arity: schema.len(),
                    exprs: BoundExprs::bind(&schema, exprs)?,
                    group_keys: q.group_by.len(),
                    arg_of,
                    funcs,
                }),
                schema: out_schema,
            })
        };
        Ok(Plan {
            scans,
            joins,
            residual,
            agg,
            schema,
        })
    }

    fn bind_table(&self, t: &TableRef) -> Result<Binding> {
        let TableRef::Named { name, alias } = t else {
            return Err(HanaError::Unsupported(format!(
                "hive FROM supports named tables only, got {t:?}"
            )));
        };
        let table = self
            .metastore
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned();
        Ok(Binding {
            name: alias.clone().unwrap_or_else(|| name.clone()),
            table: table
                .ok_or_else(|| HanaError::Catalog(format!("unknown hive table '{name}'")))?,
        })
    }

    // ---- the driver: launch the jobs of a plan in DAG order ----

    fn run(&self, plan: Plan) -> Result<(Vec<Row>, Schema)> {
        let mut scanned = Vec::with_capacity(plan.scans.len());
        for s in plan.scans {
            scanned.push(self.map_only(s.name, &s.tmp, s.inputs, s.mapper)?);
        }
        let mut scanned = scanned.into_iter();
        let mut files = scanned.next().expect("FROM binds one table");
        for ((idx, join), right) in plan.joins.into_iter().enumerate().zip(scanned) {
            files = self.join_stage(files, right, join, idx)?;
        }
        if let Some(filter) = plan.residual {
            files = self.map_only("residual-filter".into(), "filter", files, filter)?;
        }
        match plan.agg {
            Some(agg) => Ok((self.aggregate_stage(files, &agg)?, agg.schema)),
            None => {
                let rows = self.read_rows(&files, |line| parse_row(line, &plan.schema))?;
                Ok((rows, plan.schema))
            }
        }
    }

    fn tmp_dir(&self, stage: &str) -> String {
        format!(
            "/tmp/hive/{stage}-{}",
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        )
    }

    /// A map-only job over `inputs` (a table scan or the residual
    /// filter); returns its output files. No input, no job.
    fn map_only(
        &self,
        name: String,
        tmp: &str,
        inputs: Vec<String>,
        mapper: Arc<FilterMapper>,
    ) -> Result<Vec<String>> {
        if inputs.is_empty() {
            return Ok(inputs);
        }
        let output_dir = self.tmp_dir(tmp);
        let spec = JobSpec {
            name,
            inputs,
            output_dir,
            num_reducers: 0,
        };
        self.cluster.run_job(&spec, mapper, None)?;
        Ok(self.cluster.hdfs().list(&spec.output_dir))
    }

    /// Repartition join: both inputs are mapped to (key, tagged line),
    /// the reducer emits concatenated matches.
    fn join_stage(
        &self,
        left: Vec<String>,
        right: Vec<String>,
        join: Join,
        join_idx: usize,
    ) -> Result<Vec<String>> {
        if left.is_empty() && right.is_empty() {
            return Ok(left);
        }
        let mapper = JoinMapper {
            left_files: left.iter().cloned().collect(),
            join,
        };
        let spec = JobSpec {
            name: format!("repartition-join-{join_idx}"),
            inputs: left.into_iter().chain(right).collect(),
            output_dir: self.tmp_dir(&format!("join-{join_idx}")),
            num_reducers: 3,
        };
        self.cluster
            .run_job(&spec, Arc::new(mapper), Some(Arc::new(JoinReducer)))?;
        Ok(self.cluster.hdfs().list(&spec.output_dir))
    }

    /// Group-by MR job: each map task aggregates its split and ships one
    /// partial state per group, the reducers merge and finish them.
    fn aggregate_stage(&self, inputs: Vec<String>, agg: &Agg) -> Result<Vec<Row>> {
        let funcs = &agg.mapper.funcs;
        let global = agg.mapper.group_keys == 0;
        // What every aggregate is over no rows; a global aggregate over
        // nothing is one such row, a grouped one none.
        let empty = || {
            let finished = funcs.iter().map(|f| f.accumulator().finish());
            vec![Row::from_values(finished)]
        };
        if inputs.is_empty() {
            return Ok(if global { empty() } else { Vec::new() });
        }
        let spec = JobSpec {
            name: "group-by".into(),
            inputs,
            output_dir: self.tmp_dir("agg"),
            num_reducers: if global { 1 } else { 3 },
        };
        let reducer = AggReducer(funcs.clone());
        let mapper: Arc<AggMapper> = Arc::clone(&agg.mapper);
        self.cluster
            .run_job(&spec, mapper, Some(Arc::new(reducer)))?;

        let files = self.cluster.hdfs().list(&spec.output_dir);
        let rows = self.read_rows(&files, |line| {
            let values = decode_values(line)?;
            if values.len() != agg.schema.len() {
                return Err(corrupt(line, values.len(), agg.schema.len()));
            }
            Ok(Row(values))
        })?;
        // No row survived the earlier stages: no group reached a reducer.
        Ok(if rows.is_empty() && global {
            empty()
        } else {
            rows
        })
    }
}

/// One FROM / JOIN entry: the name the statement calls it and its
/// MetaStore entry as of compile time.
struct Binding {
    name: String,
    table: HiveTable,
}

/// A compiled statement: the jobs of its DAG, ready to launch.
struct Plan {
    /// One map-only scan per binding, in FROM / JOIN order.
    scans: Vec<Scan>,
    /// One repartition join per JOIN clause.
    joins: Vec<Join>,
    /// The map-only filter for conjuncts that span sources.
    residual: Option<Arc<FilterMapper>>,
    agg: Option<Agg>,
    /// Schema of the text lines the last of the stages above leaves.
    schema: Schema,
}

struct Scan {
    /// Job name.
    name: String,
    /// Stem of the output directory.
    tmp: String,
    /// The table's data files.
    inputs: Vec<String>,
    mapper: Arc<FilterMapper>,
}

/// `(field, type)` of the equi-join key in the left and right input.
struct Join {
    left: (usize, DataType),
    right: (usize, DataType),
}

struct Agg {
    mapper: Arc<AggMapper>,
    /// `_g0.._gN, _a0.._aM`.
    schema: Schema,
}

/// Expressions of one stage resolved against the schema of its input
/// lines: every column reference is resolved once, at compile time —
/// an unknown or ambiguous one is an error there, not a row dropped at
/// run time — to its position among `fields`, the only fields a map
/// task decodes (Hive's LazySimpleSerDe).
struct BoundExprs {
    exprs: Vec<Expr>,
    /// Input field and type of each decoded position.
    fields: Vec<(usize, DataType)>,
}

impl BoundExprs {
    fn bind(input: &Schema, exprs: Vec<Expr>) -> Result<BoundExprs> {
        let resolved = exprs.iter().map(|e| e.resolve(input, &[]));
        let mut exprs = resolved.collect::<Result<Vec<Expr>>>()?;
        let mut read = vec![false; input.len()];
        for e in &exprs {
            e.walk(&mut |n| {
                if let Expr::Field(i) = n {
                    read[*i] = true;
                }
            });
        }
        // Input field -> decoded position.
        let mut position = vec![0; input.len()];
        let mut fields = Vec::new();
        for (i, c) in input.columns().iter().enumerate().filter(|(i, _)| read[*i]) {
            position[i] = fields.len();
            fields.push((i, c.data_type));
        }
        for e in &mut exprs {
            e.walk_mut(&mut |n| {
                if let Expr::Field(i) = n {
                    *i = position[*i];
                }
            });
        }
        Ok(BoundExprs { exprs, fields })
    }

    /// Decode the fields the expressions read into `row`.
    fn decode(&self, fields: &[&str], row: &mut Row) -> Result<()> {
        row.0.clear();
        for &(i, ty) in &self.fields {
            row.0.push(parse_field(fields[i], ty)?);
        }
        Ok(())
    }
}

/// Split `line` into `fields`; a line of another arity is corrupt.
fn split_fields<'a>(line: &'a str, arity: usize, fields: &mut Vec<&'a str>) -> Result<()> {
    fields.clear();
    // A byte loop: `str::split` pays a searcher set-up per short field.
    let mut start = 0;
    for (i, &b) in line.as_bytes().iter().enumerate() {
        if b == FIELD_SEP as u8 {
            fields.push(&line[start..i]);
            start = i + 1;
        }
    }
    fields.push(&line[start..]);
    if fields.len() == arity {
        Ok(())
    } else {
        Err(corrupt(line, fields.len(), arity))
    }
}

fn corrupt(line: &str, found: usize, expected: usize) -> HanaError {
    HanaError::Execution(format!(
        "line has {found} fields, schema {expected} columns: '{line}'"
    ))
}

/// The table-scan and residual-filter operator: keep the lines that
/// satisfy `pred`, cut to the fields `keep`.
struct FilterMapper {
    arity: usize,
    /// One predicate; `None` keeps every line.
    pred: Option<BoundExprs>,
    /// Fields of a surviving line to emit; `None` emits the line.
    keep: Option<Vec<usize>>,
}

impl Mapper for FilterMapper {
    fn map_split(&self, _path: &str, lines: Lines<'_>, out: &mut Vec<KV>) -> Result<()> {
        let mut fields = Vec::with_capacity(self.arity);
        let mut row = Row::new();
        for line in lines {
            split_fields(line, self.arity, &mut fields)?;
            if let Some(pred) = &self.pred {
                pred.decode(&fields, &mut row)?;
                if !evaluate_predicate(&pred.exprs[0], &row)? {
                    continue;
                }
            }
            let cut = match &self.keep {
                None => line.to_string(),
                Some(keep) => {
                    let mut cut = String::with_capacity(line.len());
                    for (n, &i) in keep.iter().enumerate() {
                        if n > 0 {
                            cut.push(FIELD_SEP);
                        }
                        cut.push_str(fields[i]);
                    }
                    cut
                }
            };
            out.push((String::new(), cut));
        }
        Ok(())
    }
}

/// The map side of a repartition join: decodes the key field only and
/// ships the line as it is, tagged with its side. NULL keys join nothing.
struct JoinMapper {
    left_files: HashSet<String>,
    join: Join,
}

impl Mapper for JoinMapper {
    fn map_split(&self, path: &str, lines: Lines<'_>, out: &mut Vec<KV>) -> Result<()> {
        let (tag, (field, ty)) = match self.left_files.contains(path) {
            true => ('L', self.join.left),
            false => ('R', self.join.right),
        };
        for line in lines {
            let key = line.split(FIELD_SEP).nth(field).ok_or_else(|| {
                HanaError::Execution(format!("line has no field {field} to join on: '{line}'"))
            })?;
            let key = parse_field(key, ty)?;
            if !key.is_null() {
                let mut tagged = String::with_capacity(1 + line.len());
                tagged.push(tag);
                tagged.push_str(line);
                out.push((key.to_string(), tagged));
            }
        }
        Ok(())
    }
}

/// The reduce side of a repartition join: left lines × right lines of
/// one key.
struct JoinReducer;

impl Reducer for JoinReducer {
    fn reduce(&self, _key: &str, values: &[String], out: &mut Vec<String>) {
        let side = |tag| values.iter().filter_map(move |v| v.strip_prefix(tag));
        for l in side('L') {
            for r in side('R') {
                out.push(format!("{l}{FIELD_SEP}{r}"));
            }
        }
    }
}

/// The map side of GROUP BY: a hash table of accumulators per split
/// (Hive's map-side aggregation), shipped as one `(group key, partial
/// states)` pair per group, both through `hana_types::encode_row` —
/// values keep their types from here to the driver.
struct AggMapper {
    arity: usize,
    /// The group-by expressions, then the aggregate arguments.
    exprs: BoundExprs,
    group_keys: usize,
    /// Per aggregate, where its argument is in `exprs` (`COUNT(*)` has
    /// none).
    arg_of: Vec<Option<usize>>,
    funcs: Vec<AggFunc>,
}

impl Mapper for AggMapper {
    fn map_split(&self, _path: &str, lines: Lines<'_>, out: &mut Vec<KV>) -> Result<()> {
        let mut groups: HashMap<Vec<Value>, Vec<Accumulator>> = HashMap::new();
        let mut fields = Vec::with_capacity(self.arity);
        let mut row = Row::new();
        for line in lines {
            split_fields(line, self.arity, &mut fields)?;
            self.exprs.decode(&fields, &mut row)?;
            let exprs = &self.exprs.exprs;
            let key = exprs[..self.group_keys].iter().map(|g| evaluate(g, &row));
            let accs = groups
                .entry(key.collect::<Result<_>>()?)
                .or_insert_with(|| self.funcs.iter().map(AggFunc::accumulator).collect());
            for (acc, arg) in accs.iter_mut().zip(&self.arg_of) {
                match arg {
                    Some(i) => acc.add(&evaluate(&exprs[*i], &row)?),
                    None => acc.add(&Value::Null), // COUNT(*) counts the row
                }
            }
        }
        for (key, accs) in groups {
            let states: Vec<Value> = accs.iter().flat_map(Accumulator::state).collect();
            out.push((encode_row(&key), encode_row(&states)));
        }
        Ok(())
    }
}

/// The reduce side of GROUP BY: merges the partial states of one group
/// and writes the group key and the finished aggregates as one
/// `encode_row` line.
struct AggReducer(Vec<AggFunc>);

impl Reducer for AggReducer {
    fn reduce(&self, key: &str, values: &[String], out: &mut Vec<String>) {
        const MAP_WROTE_IT: &str = "the map tasks of this job encoded it";
        let mut accs: Vec<Accumulator> = self.0.iter().map(AggFunc::accumulator).collect();
        for v in values {
            let states = decode_values(v).expect(MAP_WROTE_IT);
            for ((acc, f), state) in accs.iter_mut().zip(&self.0).zip(states.chunks(5)) {
                acc.merge(&f.accumulator_from_state(state).expect(MAP_WROTE_IT));
            }
        }
        let mut row = decode_values(key).expect(MAP_WROTE_IT);
        row.extend(accs.iter().map(Accumulator::finish));
        out.push(encode_row(&row));
    }
}

/// Render a row as one line of a Hive text file: `^A`-separated fields,
/// `\N` for NULL, every other value as [`parse_field`] reads it back.
fn to_line(row: &Row) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, v) in row.values().iter().enumerate() {
        if i > 0 {
            out.push(FIELD_SEP);
        }
        // Writing into a String cannot fail.
        let _ = match v {
            Value::Null => write!(out, "{NULL_FIELD}"),
            // `Display` says `ts:5`, `parse_typed` reads `5`.
            Value::Timestamp(t) => write!(out, "{t}"),
            other => write!(out, "{other}"),
        };
    }
    out
}

/// Decode one field. Only `\N` is NULL in a VARCHAR column: `''` and
/// `'null'` are strings.
fn parse_field(field: &str, ty: DataType) -> Result<Value> {
    match ty {
        _ if field == NULL_FIELD => Ok(Value::Null),
        DataType::Varchar => Ok(Value::Varchar(field.to_string())),
        _ => Value::parse_typed(field, ty),
    }
}

/// Parse a ^A-separated line against a schema.
pub fn parse_row(line: &str, schema: &Schema) -> Result<Row> {
    let mut fields = Vec::with_capacity(schema.len());
    split_fields(line, schema.len(), &mut fields)?;
    let decoded = fields.iter().zip(schema.columns());
    let decoded = decoded.map(|(f, c)| parse_field(f, c.data_type));
    decoded.collect::<Result<Vec<Value>>>().map(Row)
}

/// Per binding, the (ascending) columns that `exprs` name; every column
/// when the statement has no select list. A reference marks the binding
/// its qualifier names; an unqualified one — or one whose qualifier is
/// no binding with that column — marks every binding with a column of
/// that name, so that what was ambiguous over the full schemas still is
/// over the pruned ones. A binding nothing names (`COUNT(*)`) keeps its
/// first column: a line needs a field.
fn named_columns<'a>(
    q: &Query,
    exprs: impl Iterator<Item = &'a Expr>,
    bindings: &[Binding],
) -> Vec<Vec<usize>> {
    let arity = |b: &Binding| b.table.schema.len();
    if q.select.is_empty() || q.select.iter().any(|s| matches!(s.expr, Expr::Wildcard)) {
        return bindings.iter().map(|b| (0..arity(b)).collect()).collect();
    }
    let mut named: Vec<Vec<bool>> = bindings.iter().map(|b| vec![false; arity(b)]).collect();
    for (qualifier, name) in exprs.flat_map(Expr::columns) {
        let hits = bindings.iter().enumerate();
        let hits = hits.filter_map(|(b, binding)| Some((b, binding.table.schema.index_of(name)?)));
        let hits: Vec<(usize, usize)> = hits.collect();
        let owner = hits
            .iter()
            .find(|(b, _)| Some(&bindings[*b].name) == qualifier.as_ref());
        for &(b, i) in owner.map_or(&hits[..], std::slice::from_ref) {
            named[b][i] = true;
        }
    }
    let kept = named.into_iter().map(|named| {
        let kept: Vec<usize> = (0..named.len()).filter(|&i| named[i]).collect();
        if kept.is_empty() {
            vec![0]
        } else {
            kept
        }
    });
    kept.collect()
}

/// If every column of `e` resolves inside a single binding's table, the
/// binding index; `None` otherwise.
fn single_source_of(e: &Expr, bindings: &[Binding]) -> Option<usize> {
    let mut source: Option<usize> = None;
    for (q, _) in e.columns() {
        let idx = match q {
            Some(q) => bindings.iter().position(|b| b.name == *q)?,
            // Unqualified: attribute by TPC-H style prefix match is
            // unsafe; instead assume it belongs to whichever single
            // binding — only valid when there is exactly one.
            None if bindings.len() == 1 => 0,
            None => return None,
        };
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
