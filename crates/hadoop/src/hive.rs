//! Hive: a SQL layer compiling to MapReduce DAGs.
//!
//! Mirrors the architecture the paper integrates with (§4.2–4.4):
//!
//! * a **MetaStore** mapping tables to HDFS directories, schemas and
//!   statistics (row count, file count) — the statistics SDA reads for
//!   federated cost estimation;
//! * a compiler that turns a `SELECT` into the **DAG of MR jobs** Hive's
//!   own compiler builds: one repartition-join job per join and one
//!   aggregation job for GROUP BY. A table scan is no job of its own:
//!   its pushed predicate and column cut run in the map function of the
//!   first job that reads the table (Hive's TableScan → Filter → Select
//!   → ReduceSink inside one map task), and conjuncts that span sources
//!   are evaluated in the last join's reducer, where the joined row is
//!   formed. Only a statement with neither a join nor a GROUP BY runs a
//!   map-only scan job. The compiler does what Hive's optimiser does
//!   before a job is launched — predicate push-down, column pruning,
//!   map-side aggregation — and binds every expression to its stage's
//!   schema, the driver's epilogue included, so an unknown column fails
//!   the statement before its first job, not a row;
//! * Hive's **fetch-task** fast path: a bare `SELECT *` (no predicates,
//!   joins or aggregates) reads HDFS directly with no MR job at all —
//!   this is exactly why the remote materialization of §4.4 pays off;
//! * a **two-phase CTAS** (`CREATE TABLE AS SELECT`), matching the
//!   implementation detail the paper blames for materialization overhead.
//!
//! HAVING, final projection, DISTINCT and ORDER BY are applied by the
//! driver after the last job, as Hive's plan driver does for small final
//! result sets: the compiled plan's [`Epilogue`].
//!
//! Tables are Hive text files (`^A`-separated fields, `\N` for NULL),
//! read by one record reader, [`read_fields`], which finds line and
//! field boundaries in a single pass and slices only the fields its
//! caller reads (a scan: those of its predicate and its cut), while
//! still counting every line's fields. As in Hive's vectorized readers,
//! a field is decoded at most once, straight into the typed column the
//! batch layer evaluates: a VARCHAR field into a split-local dictionary
//! (whose groups merge by value), INT, DOUBLE and DATE into typed
//! vectors. A map task filters ([`select`]) or groups ([`group_batch`])
//! that batch.
//!
//! Text stays at the tables (and the fetch task). What a scan emits
//! leaves its map task as fixed-width records (`record.rs`, Hive's
//! BinarySortable keys and LazyBinary rows): a join mapper ships the key
//! and the cut row, a group-by mapper the group key and its partial
//! states. A join's reducer writes each joined row as the two sides'
//! record bytes one after the other, and runs the spanning conjuncts
//! over columns decoded from them; a group-by's reducer merges partial
//! states read as values, not text. Those records are also the files
//! between jobs — one a line, so they split by block as text does — and
//! what a statement's final read decodes straight into batch columns
//! after the last job. Each statement's jobs write under one scratch directory, deleted
//! when the statement ends, however it ends. A line or record that does
//! not decode, or an expression that cannot be evaluated, fails the job.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use hana_sql::batch::{group_batch, select, AggCall, Batch, Column, Dictionary, Groups};
use hana_sql::block::{QueryBlock, SchemaLookup};
use hana_sql::finish::{aggregate_output_schema, collect_aggregates, Epilogue};
use hana_sql::{equi_keys, parse_statement, Expr, JoinKind, Query, Statement, TableRef};
use hana_types::{
    Accumulator, AggFunc, DataType, Date, FxHashMap, HanaError, Result, ResultSet, Row, Schema,
    Value,
};

use crate::hdfs::Hdfs;
use crate::mapreduce::{JobSpec, MapOutput, Mapper, MrCluster, ReduceOutput, Reducer};
use crate::record::{self, Field, Fields};

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
    statements: AtomicU64,
}

/// The MetaStore, as a statement's FROM clause reads it: a table's
/// entry as of compile time.
impl SchemaLookup for Hive {
    type Handle = HiveTable;

    fn table(&self, name: &str) -> Result<(HiveTable, Schema)> {
        let ms = self.metastore.read();
        let table = ms.get(&name.to_ascii_lowercase());
        let table =
            table.ok_or_else(|| HanaError::Catalog(format!("unknown hive table '{name}'")))?;
        Ok((table.clone(), table.schema.clone()))
    }
}

impl Hive {
    /// A Hive instance over an MR cluster; tables live in `/warehouse`.
    pub fn new(cluster: Arc<MrCluster>) -> Hive {
        Hive {
            cluster,
            metastore: RwLock::new(HashMap::new()),
            tick: AtomicU64::new(1),
            statements: AtomicU64::new(0),
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
        Ok(self.table(name)?.1)
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
        self.run(self.compile(q)?)
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
        let Ok((table, _)) = self.table(name) else {
            return Ok(None);
        };
        let epilogue = Epilogue::new(&table.schema, q, &[])?;
        let files = self.cluster.hdfs().list(&table.location);
        let batch = read_batch(self.cluster.hdfs(), &files, &table.schema)?;
        Ok(Some(epilogue.apply(batch, &[])?))
    }

    // ---- the compiler: statement -> jobs, no job launched ----

    fn compile(&self, q: &Query) -> Result<Plan> {
        if q.joins.iter().any(|j| j.kind != JoinKind::Inner) {
            return Err(HanaError::Unsupported(
                "hive compiler supports inner joins only".into(),
            ));
        }
        let block = QueryBlock::analyse(q, self)?;

        // One filtered, pruned scan per source, run by the map function
        // of the first job that reads the source. Predicate push-down: a
        // WHERE conjunct over one source runs in that source's scan, the
        // rest wait for the joins — with no join, the whole WHERE runs in
        // the one scan. Column pruning: a scan emits the columns some
        // later operator names; its own predicate runs before the cut.
        let mut sources = Vec::with_capacity(block.bindings.len());
        let mut schemas = Vec::with_capacity(block.bindings.len());
        for b in &block.bindings {
            let pred = match q.joins.is_empty() {
                true => q.filter.clone(),
                false => b.preds.iter().cloned().reduce(Expr::and),
            };
            let pred = pred
                .map(|p| BoundExprs::bind(&b.schema, vec![p]))
                .transpose()?;
            let keep = b.emitted();
            let cut = Schema::new(keep.iter().map(|&i| b.schema.column(i).clone()).collect())?;
            let types = cut.columns().iter().map(|c| c.data_type).collect();
            schemas.push(cut);
            sources.push(Input {
                name: format!("{} as {}", b.handle.name, b.name),
                files: self.cluster.hdfs().list(&b.handle.location),
                source: Source::Table(Scan::new(b.schema.len(), keep, types, pred)),
            });
        }

        // Pairwise repartition joins, left-deep.
        let mut schemas = schemas.into_iter();
        let mut schema = schemas.next().expect("FROM binds one table");
        let mut joins = Vec::with_capacity(q.joins.len());
        for (j, right) in q.joins.iter().zip(schemas) {
            // `true` (comma join) means residuals carry the condition —
            // not supported here, require an explicit ON.
            let (lk, rk) = equi_keys(&j.on, &schema, &right).ok_or_else(|| {
                HanaError::Unsupported(format!(
                    "hive joins require a simple equi-join ON clause, got {:?}",
                    j.on
                ))
            })?;
            let (lk, rk) = (lk.at, rk.at);
            joins.push(Join {
                left: (lk, schema.column(lk).data_type),
                right: (rk, right.column(rk).data_type),
            });
            schema = schema.join(&right)?;
        }

        // Conditions spanning sources, over the joined row.
        let residual = block.residual.into_iter().reduce(Expr::and);
        let residual = residual
            .filter(|_| !q.joins.is_empty())
            .map(|p| BoundExprs::bind(&schema, vec![p]))
            .transpose()?;

        // The aggregation job, if needed.
        let aggs = collect_aggregates(q);
        let agg = if q.group_by.is_empty() && aggs.is_empty() {
            None
        } else {
            // Output schema: `_g0.._gN` then `_a0.._aM` (shared convention).
            let out_schema = aggregate_output_schema(q, &schema)?;
            // Bound together, group keys first, so that the fields they
            // read are decoded once; COUNT(*) reads nothing.
            let args = aggs.iter().filter_map(|(_, arg)| arg.as_ref());
            let exprs = q.group_by.iter().chain(args).cloned().collect();
            let BoundExprs { mut exprs, fields } = BoundExprs::bind(&schema, exprs)?;
            let mut args = exprs.split_off(q.group_by.len()).into_iter();
            let mut bound = |_| args.next().expect("one bound expression per argument");
            let aggs = aggs.into_iter().map(|(f, arg)| (f, arg.map(&mut bound)));
            Some(Agg {
                fields,
                keys: exprs,
                aggs: aggs.collect(),
                schema: out_schema,
            })
        };
        // The driver's epilogue, over the rows the last job leaves.
        let last = agg.as_ref().map_or(&schema, |a| &a.schema);
        let epilogue = Epilogue::new(last, q, &[])?;
        Ok(Plan {
            sources,
            joins,
            residual,
            agg,
            schema,
            epilogue,
        })
    }

    // ---- the driver: launch the jobs of a plan in DAG order ----

    fn run(&self, plan: Plan) -> Result<ResultSet> {
        let Plan {
            sources,
            joins,
            mut residual,
            agg,
            schema,
            epilogue,
        } = plan;
        let scratch = Scratch {
            hdfs: self.cluster.hdfs(),
            dir: format!(
                "/tmp/hive/stmt-{}",
                self.statements.fetch_add(1, Ordering::Relaxed)
            ),
        };
        let last = joins.len();
        let mut sources = sources.into_iter();
        let mut input = sources.next().expect("FROM binds one table");
        for ((idx, join), right) in joins.into_iter().enumerate().zip(sources) {
            // Hive's Filter after the last Join, where the row it reads
            // is formed.
            let residual = if idx + 1 == last {
                residual.take()
            } else {
                None
            };
            input = self.join_stage(&scratch, input, right, join, residual, idx)?;
        }
        let batch = match agg {
            Some(agg) => self.aggregate_stage(&scratch, input, agg)?,
            None => {
                let files = match last {
                    0 => self.map_only(&scratch, input)?,
                    _ => input.files,
                };
                read_output(self.cluster.hdfs(), &files, &schema)?
            }
        };
        epilogue.apply(batch, &[])
    }

    /// The map-only job of a statement with neither a join nor a GROUP
    /// BY: the scan alone. Returns its output files; no input, no job.
    fn map_only(&self, scratch: &Scratch, input: Input) -> Result<Vec<String>> {
        let Source::Table(scan) = input.source else {
            unreachable!("a statement's first input is a table")
        };
        if input.files.is_empty() {
            return Ok(input.files);
        }
        let spec = JobSpec {
            name: format!("scan {}", input.name),
            inputs: input.files,
            output_dir: scratch.dir("scan"),
            num_reducers: 0,
        };
        self.cluster.run_job(&spec, Arc::new(scan), None)?;
        Ok(self.cluster.hdfs().list(&spec.output_dir))
    }

    /// Repartition join: each map task reads the side it was scheduled
    /// for and ships `(key, tagged row)`; the reducers write the
    /// concatenated matches that `residual` keeps.
    fn join_stage(
        &self,
        scratch: &Scratch,
        left: Input,
        right: Input,
        join: Join,
        residual: Option<BoundExprs>,
        join_idx: usize,
    ) -> Result<Input> {
        let name = format!("repartition-join-{join_idx}");
        let left_width = left.source.width();
        let arity = left_width + right.source.width();
        let joined = |files| Input {
            name: name.clone(),
            files,
            source: Source::Records(arity),
        };
        if left.files.is_empty() && right.files.is_empty() {
            return Ok(joined(Vec::new()));
        }
        let mapper = JoinMapper {
            left_inputs: left.files.len(),
            as_double: join.left.1 == DataType::Double || join.right.1 == DataType::Double,
            sides: [(left.source, join.left.0), (right.source, join.right.0)],
        };
        let reducer = JoinReducer {
            residual,
            left_width,
        };
        let spec = JobSpec {
            name: name.clone(),
            inputs: left.files.into_iter().chain(right.files).collect(),
            output_dir: scratch.dir(&format!("join-{join_idx}")),
            num_reducers: 3,
        };
        self.cluster
            .run_job(&spec, Arc::new(mapper), Some(Arc::new(reducer)))?;
        Ok(joined(self.cluster.hdfs().list(&spec.output_dir)))
    }

    /// Group-by MR job: each map task reads its input, aggregates what
    /// survives and ships one partial state per group; the reducers
    /// merge and finish them.
    fn aggregate_stage(&self, scratch: &Scratch, input: Input, agg: Agg) -> Result<Batch> {
        let funcs: Vec<AggFunc> = agg.aggs.iter().map(|(f, _)| *f).collect();
        // When no group reaches a reducer: the group-by's answer to no
        // rows (a global aggregate's one row, a grouped one's none).
        let nothing = Groups::from_items(&agg.aggs, Vec::new()).finish(agg.keys.len(), &agg.aggs);
        if input.files.is_empty() {
            return Ok(nothing);
        }
        let schema = agg.schema.clone();
        let spec = JobSpec {
            name: "group-by".into(),
            inputs: input.files,
            output_dir: scratch.dir("agg"),
            num_reducers: if agg.keys.is_empty() { 1 } else { 3 },
        };
        let mapper = AggMapper {
            source: input.source,
            agg,
        };
        let reducer = AggReducer(funcs);
        self.cluster
            .run_job(&spec, Arc::new(mapper), Some(Arc::new(reducer)))?;
        let files = self.cluster.hdfs().list(&spec.output_dir);
        let b = read_output(self.cluster.hdfs(), &files, &schema)?;
        Ok(if b.len == 0 { nothing } else { b })
    }
}

/// One statement's scratch directory under `/tmp/hive` (Hive's
/// `hive.exec.scratchdir`): each of its jobs writes a directory of its
/// stage beneath it, and it is deleted when the statement ends, on
/// success or on error.
struct Scratch<'h> {
    hdfs: &'h Hdfs,
    dir: String,
}

impl Scratch<'_> {
    /// The output directory of the statement's job of `stage`.
    fn dir(&self, stage: &str) -> String {
        format!("{}/{stage}", self.dir)
    }
}

impl Drop for Scratch<'_> {
    fn drop(&mut self) {
        self.hdfs.delete_dir(&self.dir);
    }
}

/// A compiled statement: the jobs of its DAG, ready to launch.
struct Plan {
    /// One input per binding, in FROM / JOIN order: the table's files
    /// and the scan the first job that reads them runs.
    sources: Vec<Input>,
    /// One repartition join per JOIN clause.
    joins: Vec<Join>,
    /// The conjuncts that span sources, over the joined row; the last
    /// join's reducer evaluates them.
    residual: Option<BoundExprs>,
    agg: Option<Agg>,
    /// Schema of the rows the scans and joins leave.
    schema: Schema,
    /// HAVING, the select list, DISTINCT, ORDER BY and LIMIT, over the
    /// rows the last job leaves.
    epilogue: Epilogue,
}

/// What a job reads: files, and how its map function reads them.
struct Input {
    /// `<table> as <binding>`, or the job that wrote the files.
    name: String,
    files: Vec<String>,
    source: Source,
}

/// How a map function reads the lines of an input.
enum Source {
    /// A table's text, through the scan a later operator needs of it.
    Table(Scan),
    /// An earlier job's records of this many fields.
    Records(usize),
}

impl Source {
    /// Fields of a row it reads.
    fn width(&self) -> usize {
        match self {
            Source::Table(scan) => scan.width(),
            Source::Records(arity) => *arity,
        }
    }
}

/// `(field, type)` of the equi-join key among the fields the scan of
/// the left and of the right input emits.
struct Join {
    left: (usize, DataType),
    right: (usize, DataType),
}

/// A GROUP BY or global aggregate, bound to the rows it reads.
struct Agg {
    /// Per field of a line, its type if an expression reads it.
    fields: Vec<Option<DataType>>,
    /// The group-by expressions.
    keys: Vec<Expr>,
    /// The aggregate calls (`COUNT(*)` has no argument).
    aggs: Vec<AggCall>,
    /// `_g0.._gN, _a0.._aM`.
    schema: Schema,
}

/// Expressions of one stage resolved against the schema of its input
/// lines: every column reference is resolved once, at compile time —
/// an unknown or ambiguous one is an error there, not a row dropped at
/// run time — to its field of the line, and only the fields they read
/// are decoded (Hive's LazySimpleSerDe).
struct BoundExprs {
    exprs: Vec<Expr>,
    /// Per field of a line, its type if an expression reads it.
    fields: Vec<Option<DataType>>,
}

impl BoundExprs {
    fn bind(input: &Schema, exprs: Vec<Expr>) -> Result<BoundExprs> {
        let resolved = exprs.iter().map(|e| e.resolve(input, &[]));
        let exprs = resolved.collect::<Result<Vec<Expr>>>()?;
        let mut fields = vec![None; input.len()];
        for e in &exprs {
            e.walk(&mut |n| {
                if let Expr::Field(i) = n {
                    fields[*i] = Some(input.column(*i).data_type);
                }
            });
        }
        Ok(BoundExprs { exprs, fields })
    }

    /// The same expressions over lines cut to the fields `read`
    /// (ascending), which hold every field they read.
    fn over(mut self, read: &[usize]) -> BoundExprs {
        let slot = |i: &usize| {
            read.binary_search(i)
                .expect("the cut holds every field read")
        };
        for e in &mut self.exprs {
            e.walk_mut(&mut |n| {
                if let Expr::Field(i) = n {
                    *i = slot(i);
                }
            });
        }
        self.fields = read.iter().map(|&i| self.fields[i]).collect();
        self
    }
}

/// `n` lines as the batch a stage's expressions run over: per entry of
/// `types` (as [`BoundExprs`] has them), a column of that type holding
/// `field(entry, line)` of each line, or NULL where it is `None`. A
/// field that does not parse fails the batch with [`parse_field`]'s
/// error — of the first such line, and of its first such field.
fn decode<'a>(
    types: &[Option<DataType>],
    n: usize,
    field: impl Fn(usize, usize) -> &'a str,
) -> Result<Batch> {
    let mut columns = Vec::with_capacity(types.len());
    let mut first_error: Option<(usize, HanaError)> = None;
    for (i, ty) in types.iter().enumerate() {
        let column = match ty {
            Some(ty) => decode_column(*ty, (0..n).map(|j| field(i, j))),
            None => Ok(Column::Const(Value::Null, n)),
        };
        match column {
            Ok(c) => columns.push(c),
            Err((line, e)) if first_error.as_ref().is_none_or(|(l, _)| line < *l) => {
                first_error = Some((line, e));
            }
            Err(_) => {}
        }
    }
    match first_error {
        Some((_, e)) => Err(e),
        None => Ok(Batch::new(columns, n)),
    }
}

/// One field of every line as a column of `ty`, each field read as
/// [`parse_field`] reads it: VARCHAR as vids into a dictionary of its
/// distinct values, INT, DOUBLE and DATE as typed vectors until the
/// first NULL, any other type as values. A field that does not parse
/// stops the column with its line and error.
fn decode_column<'a>(ty: DataType, fields: impl Iterator<Item = &'a str>) -> Decoded {
    // `parse_typed`'s own parsers, without its NULL test.
    let (int, double) = (|f: &str| f.parse().ok(), |f: &str| f.parse().ok());
    let date = |f: &str| Date::parse(f).ok();
    match ty {
        DataType::Varchar => Ok(dictionary(fields)),
        DataType::Int | DataType::BigInt => typed(ty, fields, int, Column::Int, Value::Int),
        DataType::Double => typed(ty, fields, double, Column::Double, Value::Double),
        DataType::Date => typed(ty, fields, date, Column::Date, Value::Date),
        _ => values(ty, fields.enumerate(), Vec::new()),
    }
}

/// A decoded column, or the line of the first field that does not
/// parse and its error.
type Decoded = std::result::Result<Column, (usize, HanaError)>;

/// VARCHAR fields as a split-local dictionary column: one `String` per
/// distinct value, `\N` as vid 0 (NULL in every dictionary).
fn dictionary<'a>(fields: impl Iterator<Item = &'a str>) -> Column {
    let mut vids: FxHashMap<&str, u32> = FxHashMap::default();
    let mut distinct = Vec::new();
    let mut vid = |f: &'a str| {
        let next = distinct.len() as u32 + 1;
        let v = *vids.entry(f).or_insert(next);
        if v == next {
            distinct.push(Value::Varchar(f.to_string()));
        }
        v
    };
    let column = fields.map(|f| if f == NULL_FIELD { 0 } else { vid(f) });
    let column = column.collect();
    Column::Dict(Dictionary::Local(distinct.into()), column)
}

/// Fields `parse` reads as `T` — text [`Value::parse_typed`] reads as
/// `value(T)`, and no NULL — as the typed vector `column`. From the
/// first field it does not read, a NULL or an error, the column is
/// values.
fn typed<'a, T>(
    ty: DataType,
    fields: impl Iterator<Item = &'a str>,
    parse: impl Fn(&str) -> Option<T>,
    column: fn(Vec<T>) -> Column,
    value: fn(T) -> Value,
) -> Decoded {
    let mut fields = fields.enumerate();
    let mut out = Vec::with_capacity(fields.size_hint().0);
    for (j, f) in &mut fields {
        match parse(f) {
            Some(x) => out.push(x),
            None => {
                let rest = std::iter::once((j, f)).chain(fields);
                return values(ty, rest, out.into_iter().map(value).collect());
            }
        }
    }
    Ok(column(out))
}

/// `done` followed by `fields` read by [`parse_field`], as values.
fn values<'a>(
    ty: DataType,
    fields: impl Iterator<Item = (usize, &'a str)>,
    mut done: Vec<Value>,
) -> Decoded {
    for (j, f) in fields {
        done.push(parse_field(f, ty).map_err(|e| (j, e))?);
    }
    Ok(Column::Values(done))
}

// ---- the record reader ----

/// [`FIELD_SEP`] as the byte it is encoded to.
const SEP: u8 = FIELD_SEP as u8;
/// `0x01` in each byte lane of a word.
const LANES: u64 = 0x0101_0101_0101_0101;
/// The low seven bits of each byte lane.
const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;

/// The high bit of each zero byte of `w`, and no other bit: adding
/// `0x7f` to a lane's low seven bits carries into the lane's high bit
/// unless they are zero, and never into the next lane.
#[inline]
fn zero_lanes(w: u64) -> u64 {
    !((w & LOW7).wrapping_add(LOW7) | w | LOW7)
}

/// [`read_fields`] with every field wanted.
pub fn read_records<'a>(
    split: &'a str,
    arity: usize,
    record: impl FnMut(&'a str, &[&'a str]) -> Result<()>,
) -> Result<u64> {
    read_fields(split, arity, &(0..arity).collect::<Vec<_>>(), record)
}

/// Hive's record reader: calls `record(line, fields)` for each line of
/// `split` in order — the lines `str::lines` yields — with the fields at
/// positions `wanted` (ascending, below `arity`) of the line cut at every
/// `^A` as `split('\u{1}')` cuts it, and returns how many lines there
/// were. One pass finds line and field boundaries together, testing
/// eight bytes per step for `^A` and `\n`; neither byte occurs inside a
/// multi-byte UTF-8 character, so every boundary is a character
/// boundary. Only wanted fields are sliced — a step of separators that
/// ends and starts none is counted, not visited — but every field of
/// every line is counted: a line with other than `arity` fields is
/// corrupt, whichever fields are wanted; it, or an error from `record`,
/// ends the read with that error.
pub fn read_fields<'a>(
    split: &'a str,
    arity: usize,
    wanted: &[usize],
    mut record: impl FnMut(&'a str, &[&'a str]) -> Result<()>,
) -> Result<u64> {
    assert!(
        wanted.windows(2).all(|w| w[0] < w[1]) && wanted.last().is_none_or(|&f| f < arity),
        "wanted fields ascend below the arity"
    );
    let mut next = vec![usize::MAX; arity + 1];
    for f in (0..arity).rev() {
        next[f] = match wanted.binary_search(&f) {
            Ok(_) => f,
            Err(_) => next[f + 1],
        };
    }
    let mut at = Cursor {
        split,
        arity,
        next,
        fields: Vec::with_capacity(wanted.len()),
        line_start: 0,
        field_start: 0,
        field: 0,
        records: 0,
    };
    let bytes = split.as_bytes();
    let mut words = bytes.chunks_exact(8);
    let mut base = 0;
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk"));
        let seps = zero_lanes(w ^ LANES);
        let breaks = zero_lanes(w ^ (LANES * u64::from(b'\n')));
        let n = seps.count_ones() as usize;
        if breaks == 0 && at.next_wanted() > at.field + n {
            at.field += n;
        } else {
            let mut hits = seps | breaks;
            while hits != 0 {
                let hit = base + hits.trailing_zeros() as usize / 8;
                match seps & hits & hits.wrapping_neg() {
                    0 => at.line_break(hit, &mut record)?,
                    _ => at.separator(hit),
                }
                hits &= hits - 1;
            }
        }
        base += 8;
    }
    for (i, &b) in words.remainder().iter().enumerate() {
        match b {
            SEP => at.separator(base + i),
            b'\n' => at.line_break(base + i, &mut record)?,
            _ => {}
        }
    }
    // A last line without a line break.
    if at.line_start < bytes.len() {
        at.end_line(bytes.len(), &mut record)?;
    }
    Ok(at.records)
}

/// Where [`read_fields`] is in its split.
struct Cursor<'a> {
    split: &'a str,
    arity: usize,
    /// Per field of a line, the first wanted field at or after it
    /// (`usize::MAX` for none), and `usize::MAX` past the last field.
    next: Vec<usize>,
    /// The wanted fields of the current line, so far.
    fields: Vec<&'a str>,
    line_start: usize,
    field_start: usize,
    /// The current field of the current line.
    field: usize,
    /// Lines read.
    records: u64,
}

impl<'a> Cursor<'a> {
    /// The first wanted field at or after the current one.
    #[inline]
    fn next_wanted(&self) -> usize {
        self.next.get(self.field).copied().unwrap_or(usize::MAX)
    }

    /// Close the current field at byte `end`.
    #[inline]
    fn close_field(&mut self, end: usize) {
        if self.next_wanted() == self.field {
            self.fields.push(&self.split[self.field_start..end]);
        }
    }

    /// A `^A` at `at`.
    #[inline]
    fn separator(&mut self, at: usize) {
        self.close_field(at);
        self.field += 1;
        self.field_start = at + 1;
    }

    /// A `\n` at `at`; `\r\n` ends a line too, as it does for
    /// `str::lines`.
    fn line_break(
        &mut self,
        at: usize,
        record: &mut impl FnMut(&'a str, &[&'a str]) -> Result<()>,
    ) -> Result<()> {
        let cr = at > self.line_start && self.split.as_bytes()[at - 1] == b'\r';
        self.end_line(at - usize::from(cr), record)?;
        (self.line_start, self.field_start) = (at + 1, at + 1);
        Ok(())
    }

    /// The current line ends at byte `end`.
    fn end_line(
        &mut self,
        end: usize,
        record: &mut impl FnMut(&'a str, &[&'a str]) -> Result<()>,
    ) -> Result<()> {
        self.close_field(end);
        let line = &self.split[self.line_start..end];
        if self.field + 1 != self.arity {
            return Err(corrupt(line, self.field + 1, self.arity));
        }
        record(line, &self.fields)?;
        self.fields.clear();
        self.field = 0;
        self.records += 1;
        Ok(())
    }
}

fn corrupt(line: &str, found: usize, expected: usize) -> HanaError {
    HanaError::Execution(format!(
        "line has {found} fields, schema {expected} columns: '{line}'"
    ))
}

/// The records of a split or file, one a line: cut at `\n` only, since a
/// record may end in a carriage return (a string's last byte), which
/// `str::lines` would strip.
fn records(text: &str) -> impl Iterator<Item = &str> {
    text.split_terminator('\n')
}

/// Every record a statement's last job wrote into `files`, decoded
/// once, as one batch of a column per field of `schema`.
fn read_output(hdfs: &Hdfs, files: &[String], schema: &Schema) -> Result<Batch> {
    let texts = files.iter().map(|f| hdfs.read_text(f));
    let texts = texts.collect::<Result<Vec<String>>>()?;
    let types: Vec<_> = schema.columns().iter().map(|c| Some(c.data_type)).collect();
    record::decode(texts.iter().flat_map(|t| records(t)), &types)
}

/// Every line of the text files of a table, as one batch of a column
/// per field of `schema`: what the fetch task reads, and a virtual
/// function's output.
pub(crate) fn read_batch(hdfs: &Hdfs, files: &[String], schema: &Schema) -> Result<Batch> {
    let texts = files.iter().map(|f| hdfs.read_text(f));
    let texts = texts.collect::<Result<Vec<String>>>()?;
    let arity = schema.len();
    let (mut fields, mut lines) = (Vec::new(), 0);
    for text in &texts {
        lines += read_records(text, arity, |_, f| {
            fields.extend_from_slice(f);
            Ok(())
        })? as usize;
    }
    let types: Vec<_> = schema.columns().iter().map(|c| Some(c.data_type)).collect();
    decode(&types, lines, |i, j| fields[j * arity + i])
}

// ---- the operators inside the jobs ----

/// Hive's TableScan → Filter → Select over the lines of one table: keep
/// the lines that satisfy the predicate, cut to the fields a later
/// operator names. It runs in the map function of the job that reads the
/// table.
struct Scan {
    /// Fields of an input line.
    arity: usize,
    /// The fields of a line the reader slices, ascending: those the
    /// predicate reads and those the scan emits.
    read: Vec<usize>,
    /// The conjuncts pushed into the scan, over the sliced fields;
    /// `None` keeps every line.
    pred: Option<BoundExprs>,
    /// Per field the scan emits, its position among the sliced ones.
    cut: Vec<usize>,
    /// Per field the scan emits, its type.
    types: Vec<DataType>,
}

impl Scan {
    /// The scan of lines of `arity` fields that keeps the lines `pred`
    /// (over the whole line) holds on and emits their fields `keep`
    /// (ascending), of `types`.
    fn new(arity: usize, keep: Vec<usize>, types: Vec<DataType>, pred: Option<BoundExprs>) -> Scan {
        let mut read = keep.clone();
        if let Some(p) = &pred {
            let fields = p.fields.iter().enumerate();
            read.extend(fields.filter_map(|(i, ty)| ty.map(|_| i)));
        }
        read.sort_unstable();
        read.dedup();
        let slot = |i: &usize| {
            read.binary_search(i)
                .expect("the scan slices what it emits")
        };
        let cut = keep.iter().map(slot).collect();
        Scan {
            arity,
            pred: pred.map(|p| p.over(&read)),
            read,
            cut,
            types,
        }
    }

    /// Fields of an emitted line.
    fn width(&self) -> usize {
        self.cut.len()
    }

    /// The lines of `split` the predicate keeps, with the fields it
    /// sliced and the columns it decoded. The predicate runs once per
    /// split, over the split's batch.
    fn run<'s, 'a>(&'s self, split: &'a str) -> Result<Scanned<'s, 'a>> {
        let mut fields: Vec<&'a str> = Vec::new();
        let lines = read_fields(split, self.arity, &self.read, |_, f| {
            fields.extend_from_slice(f);
            Ok(())
        })?;
        let stride = self.read.len();
        let mut decoded = vec![None; stride];
        let kept = match &self.pred {
            None => (0..lines as u32).collect(),
            Some(pred) => {
                let b = decode(&pred.fields, lines as usize, |i, j| fields[j * stride + i])?;
                let kept = select(&pred.exprs[0], &b, &b.sel, &[])?;
                let read = b.columns.into_iter().zip(&pred.fields);
                for (d, (c, ty)) in decoded.iter_mut().zip(read) {
                    *d = ty.map(|_| c);
                }
                kept
            }
        };
        Ok(Scanned {
            scan: self,
            lines,
            fields,
            decoded,
            kept,
        })
    }
}

/// One split after its scan's predicate.
struct Scanned<'s, 'a> {
    scan: &'s Scan,
    /// Lines in the split.
    lines: u64,
    /// The sliced fields of every line, `scan.read.len()` to a line.
    fields: Vec<&'a str>,
    /// Per sliced field, its column over every line if the predicate
    /// decoded it and no batch has taken it since.
    decoded: Vec<Option<Column>>,
    /// The lines the predicate keeps, ascending.
    kept: Vec<u32>,
}

impl<'a> Scanned<'_, 'a> {
    /// The kept lines with every emitted field but the VARCHAR ones
    /// decoded: the columns their records are written from
    /// ([`Scanned::put`]). A VARCHAR field is copied from its text.
    fn emitted(&mut self) -> Result<Batch> {
        let types = self.scan.types.iter();
        let types: Vec<_> = types
            .map(|&t| (t != DataType::Varchar).then_some(t))
            .collect();
        self.batch(&types)
    }

    /// Emitted VARCHAR field `i` of kept line `j`: its text, or `None`
    /// for NULL.
    fn text(&self, i: usize, j: usize) -> Option<&'a str> {
        let f = self.fields[self.kept[j] as usize * self.scan.read.len() + self.scan.cut[i]];
        (f != NULL_FIELD).then_some(f)
    }

    /// Whether emitted field `i` of kept line `j` is NULL; `b` is what
    /// [`Scanned::emitted`] returned.
    fn is_null(&self, b: &Batch, i: usize, j: usize) -> bool {
        match self.scan.types[i] {
            DataType::Varchar => self.text(i, j).is_none(),
            _ => b.columns[i].is_null(j),
        }
    }

    /// Append emitted field `i` of kept line `j` to a record: as a key
    /// field ([`record::put_key`]) when `key` says whether an integer
    /// meets a DOUBLE, as a value when it is `None`.
    fn put(&self, b: &Batch, i: usize, j: usize, key: Option<bool>, rec: &mut String) {
        match (self.scan.types[i], key) {
            (DataType::Varchar, _) => match self.text(i, j) {
                Some(s) => record::put_str(rec, s),
                None => record::put(rec, &Value::Null),
            },
            (_, Some(as_double)) => record::put_key(rec, &b.columns[i].get(j), as_double),
            (_, None) => record::put(rec, &b.columns[i].get(j)),
        }
    }

    /// Append every emitted field of kept line `j` to a record.
    fn put_row(&self, b: &Batch, j: usize, rec: &mut String) {
        (0..self.scan.types.len()).for_each(|i| self.put(b, i, j, None, rec));
    }

    /// The kept lines as the batch of a stage whose expressions read the
    /// emitted fields `types` ([`decode`]); a field the predicate decoded
    /// is not decoded again.
    fn batch(&mut self, types: &[Option<DataType>]) -> Result<Batch> {
        let Scanned {
            scan,
            lines,
            fields,
            decoded,
            kept,
        } = self;
        let reused = types.iter().zip(&scan.cut);
        let reused = reused.map(|(ty, &i)| ty.and_then(|_| decoded[i].take()));
        let reused: Vec<Option<Column>> = reused.collect();
        let rest = types.iter().zip(&reused);
        let rest: Vec<_> = rest.map(|(ty, r)| ty.filter(|_| r.is_none())).collect();
        let stride = scan.read.len();
        let field = |i: usize, j: usize| fields[kept[j] as usize * stride + scan.cut[i]];
        let mut b = decode(&rest, kept.len(), field)?;
        for (c, r) in b.columns.iter_mut().zip(reused) {
            if let Some(r) = r {
                *c = if kept.len() as u64 == *lines {
                    r
                } else {
                    r.gather(kept)
                };
            }
        }
        Ok(b)
    }
}

/// The map-only job: the scan alone, writing the rows it cuts as
/// records.
impl Mapper for Scan {
    fn map_split(&self, _: usize, _: &str, split: &str, out: &mut MapOutput) -> Result<u64> {
        let mut scanned = self.run(split)?;
        let b = scanned.emitted()?;
        for j in 0..b.len {
            out.emit_with(|_| {}, |rec| scanned.put_row(&b, j, rec));
        }
        Ok(scanned.lines)
    }
}

/// The map side of a repartition join: reads the row of its side — a
/// table's through its scan, an earlier job's as the record it is — and
/// ships it tagged with its side under its key. NULL keys join nothing.
struct JoinMapper {
    /// How the left and the right input is read, and the position of
    /// the key among the fields of its rows.
    sides: [(Source, usize); 2],
    /// How many of `JobSpec::inputs` are the left side's, which come
    /// first: a task's side is the input it was scheduled for, never its
    /// file — `FROM t a JOIN t b` lists t's files on both sides (Hadoop's
    /// `MultipleInputs`).
    left_inputs: usize,
    /// One side's key is a DOUBLE: an INT key meets it as a double.
    as_double: bool,
}

impl Mapper for JoinMapper {
    fn map_split(&self, input: usize, _: &str, split: &str, out: &mut MapOutput) -> Result<u64> {
        let (tag, (source, field)) = match input < self.left_inputs {
            true => ('L', &self.sides[0]),
            false => ('R', &self.sides[1]),
        };
        let as_double = self.as_double;
        match source {
            Source::Table(scan) => {
                let mut scanned = scan.run(split)?;
                let b = scanned.emitted()?;
                for j in (0..b.len).filter(|&j| !scanned.is_null(&b, *field, j)) {
                    out.emit_with(
                        |k| scanned.put(&b, *field, j, Some(as_double), k),
                        |v| {
                            v.push(tag);
                            scanned.put_row(&b, j, v);
                        },
                    );
                }
                Ok(scanned.lines)
            }
            Source::Records(arity) => {
                let mut n = 0;
                for rec in records(split) {
                    n += 1;
                    let mut fields = Fields::new(rec);
                    (0..*field).try_for_each(|_| fields.skip())?;
                    let key = fields.next()?;
                    (field + 1..*arity).try_for_each(|_| fields.skip())?;
                    fields.end()?;
                    if !matches!(key, Field::Null) {
                        out.emit_with(
                            |k| record::put_key(k, &key.value(), as_double),
                            |v| {
                                v.push(tag);
                                v.push_str(rec);
                            },
                        );
                    }
                }
                Ok(n)
            }
        }
    }
}

/// The reduce side of a repartition join: left rows × right rows of one
/// key, those the residual predicate keeps, each written as the left
/// record's bytes and then the right one's.
struct JoinReducer {
    /// The conjuncts that span sources, over the joined row — Hive's
    /// Filter after Join; only the last join has them.
    residual: Option<BoundExprs>,
    /// Fields of a left row.
    left_width: usize,
}

impl Reducer for JoinReducer {
    fn reduce(&self, _key: &str, values: &[&str], out: &mut ReduceOutput) -> Result<()> {
        let side = |tag| values.iter().filter_map(move |v| v.strip_prefix(tag));
        let joined = |out: &mut ReduceOutput, a: &str, b: &str| {
            out.push_with(|row| {
                row.push_str(a);
                row.push_str(b);
            })
        };
        let Some(pred) = &self.residual else {
            for a in side('L') {
                side('R').for_each(|b| joined(out, a, b));
            }
            return Ok(());
        };
        // Once over every joined row of the key: each side's fields it
        // reads decoded once per row of that side.
        let (left, right): (Vec<&str>, Vec<&str>) = (side('L').collect(), side('R').collect());
        let pairs =
            (0..left.len() as u32).flat_map(|l| (0..right.len() as u32).map(move |r| (l, r)));
        let (l, r): (Vec<u32>, Vec<u32>) = pairs.unzip();
        let (left_types, right_types) = pred.fields.split_at(self.left_width);
        let lb = record::decode(left.iter().copied(), left_types)?;
        let rb = record::decode(right.iter().copied(), right_types)?;
        let b = Batch::new(lb.gather(&l).chain(rb.gather(&r)).collect(), l.len());
        for j in select(&pred.exprs[0], &b, &b.sel, &[])? {
            joined(
                out,
                left[l[j as usize] as usize],
                right[r[j as usize] as usize],
            );
        }
        Ok(())
    }
}

/// The map side of GROUP BY: reads its input's rows — a table's through
/// its scan, an earlier job's records — groups them a split at a time
/// (Hive's map-side aggregation, through the group-by every engine
/// shares) and ships one `(group key, partial states)` pair per group,
/// both as records: values keep their types from here to the epilogue.
struct AggMapper {
    source: Source,
    agg: Agg,
}

impl Mapper for AggMapper {
    fn map_split(&self, _: usize, _: &str, split: &str, out: &mut MapOutput) -> Result<u64> {
        let agg = &self.agg;
        let (lines, b) = match &self.source {
            Source::Table(scan) => {
                let mut scanned = scan.run(split)?;
                (scanned.lines, scanned.batch(&agg.fields)?)
            }
            Source::Records(_) => {
                let b = record::decode(records(split), &agg.fields)?;
                (b.len as u64, b)
            }
        };
        let (groups, _) = group_batch(&b, &agg.keys, &agg.aggs, &[])?;
        for (key, accs) in groups.into_items() {
            out.emit_with(
                |k| key.iter().for_each(|v| record::put_key(k, v, false)),
                |v| {
                    let states = accs.iter().flat_map(Accumulator::state);
                    states.for_each(|s| record::put(v, &s));
                },
            );
        }
        Ok(lines)
    }
}

/// The reduce side of GROUP BY: merges the partial states of one group
/// and writes the group key's record bytes and then the finished
/// aggregates.
struct AggReducer(Vec<AggFunc>);

impl Reducer for AggReducer {
    fn reduce(&self, key: &str, values: &[&str], out: &mut ReduceOutput) -> Result<()> {
        let mut accs: Vec<Accumulator> = self.0.iter().map(AggFunc::accumulator).collect();
        for v in values {
            let states = record::values(v, 5 * self.0.len())?;
            for ((acc, f), state) in accs.iter_mut().zip(&self.0).zip(states.chunks(5)) {
                acc.merge(&f.accumulator_from_state(state)?);
            }
        }
        out.push_with(|row| {
            row.push_str(key);
            accs.iter().for_each(|acc| record::put(row, &acc.finish()));
        });
        Ok(())
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

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// Fields of every type: values, the NULL spellings, text that does
    /// not parse, and numbers and dates in their odd corners.
    const POOL: &[&str] = &[
        "\\N",
        "",
        "null",
        "NULL",
        "0",
        "-7",
        "+5",
        "42",
        "9223372036854775808",
        "NaN",
        "-0.0",
        "0.0",
        "1.5e3",
        "inf",
        "1995-06-17",
        "1994-1-2",
        "1995-02-30",
        "true",
        "f",
        "abc",
        " 1",
    ];

    const TYPES: [DataType; 7] = [
        DataType::Bool,
        DataType::Int,
        DataType::BigInt,
        DataType::Double,
        DataType::Varchar,
        DataType::Date,
        DataType::Timestamp,
    ];

    /// `decode` of the lines `rows` against `types` equals `parse_field`
    /// read a line at a time, in line order: the same values — `Debug`
    /// tells `-0.0` from `0.0` — or the error of the first field that
    /// does not parse. A column of a typed kind with no NULL is a typed
    /// vector, and a VARCHAR column a dictionary.
    fn decodes_as_parse_field(types: &[DataType], rows: &[Vec<&str>]) {
        let oracle: Result<Vec<Vec<Value>>> = rows
            .iter()
            .map(|row| {
                let fields = row.iter().zip(types);
                fields.map(|(f, ty)| parse_field(f, *ty)).collect()
            })
            .collect();
        let wanted: Vec<Option<DataType>> = types.iter().copied().map(Some).collect();
        let decoded = decode(&wanted, rows.len(), |i, j| rows[j][i]);
        let (oracle, b) = match (oracle, decoded) {
            (Ok(oracle), Ok(b)) => (oracle, b),
            (Err(want), Err(got)) => {
                assert_eq!(got.message(), want.message(), "{types:?} {rows:?}");
                return;
            }
            (want, got) => panic!("{types:?} {rows:?}: oracle {want:?}, decode {got:?}"),
        };
        for (i, (col, ty)) in b.columns.iter().zip(types).enumerate() {
            let values: Vec<Value> = (0..rows.len()).map(|j| col.get(j).into_owned()).collect();
            let want: Vec<Value> = oracle.iter().map(|row| row[i].clone()).collect();
            assert_eq!(format!("{values:?}"), format!("{want:?}"), "{ty:?}");
            let nulls = want.iter().any(Value::is_null);
            let kind_ok = match (ty, col) {
                (DataType::Varchar, Column::Dict(Dictionary::Local(_), _)) => true,
                (DataType::Int | DataType::BigInt, Column::Int(_)) => !nulls,
                (DataType::Double, Column::Double(_)) => !nulls,
                (DataType::Date, Column::Date(_)) => !nulls,
                (DataType::Varchar, _) => false,
                (_, Column::Values(_)) => {
                    nulls
                        || !matches!(
                            ty,
                            DataType::Int | DataType::BigInt | DataType::Double | DataType::Date
                        )
                }
                _ => false,
            };
            assert!(kind_ok || rows.is_empty(), "{ty:?} decoded as {col:?}");
        }
    }

    /// An unqualified column that only the right table has places its
    /// conjunct in the right table's scan, which reads the column and
    /// cuts it: nothing after the join names it.
    #[test]
    fn an_unqualified_conjunct_filters_the_scan_of_its_one_table() {
        let hdfs = Arc::new(Hdfs::new(1));
        let hive = Hive::new(Arc::new(MrCluster::new(hdfs, Default::default())));
        let int2 = |a, b| Schema::of(&[(a, DataType::Int), (b, DataType::Int)]);
        hive.create_table("a", int2("ka", "va")).unwrap();
        hive.create_table("c", int2("kc", "cw")).unwrap();
        let sql = "SELECT va FROM a JOIN c ON a.ka = c.kc WHERE cw = 3";
        let Statement::Query(q) = parse_statement(sql).unwrap() else {
            unreachable!("a query")
        };
        let plan = hive.compile(&q).unwrap();
        let scan = |i: usize| match &plan.sources[i].source {
            Source::Table(scan) => (scan.pred.is_some(), scan.read.clone(), scan.width()),
            Source::Records(_) => unreachable!("a binding's input is its table"),
        };
        assert_eq!(scan(0), (false, vec![0, 1], 2));
        assert_eq!(scan(1), (true, vec![0, 1], 1));
        assert!(plan.residual.is_none());
    }

    #[test]
    fn corner_columns_decode_as_parse_field() {
        let columns: &[&[&str]] = &[
            // A NULL on the first line, on the last line, all NULL.
            &["\\N", "1", "2"],
            &["1", "2", "\\N"],
            &["\\N", "\\N"],
            &["", "null", "NULL"],
            // A value that does not parse after a NULL, and before one.
            &["1", "\\N", "abc", "2"],
            &["abc", "\\N"],
            &["NaN", "-0.0", "0.0", "inf"],
            &["1995-06-17", "1994-1-2", "\\N", "1995-02-30"],
            &[],
        ];
        for ty in TYPES {
            for col in columns {
                let rows: Vec<Vec<&str>> = col.iter().map(|f| vec![*f]).collect();
                decodes_as_parse_field(&[ty], &rows);
            }
        }
        // Two columns: the error is the first line's, not the first
        // column's.
        let rows = vec![vec!["1", "2"], vec!["3", "x"], vec!["y", "4"]];
        decodes_as_parse_field(&[DataType::Int, DataType::Int], &rows);
        let err = decode(&[Some(DataType::Int); 2], 3, |i, j| rows[j][i]).unwrap_err();
        assert_eq!(err.message(), "cannot parse 'x' as INTEGER");
    }

    proptest! {
        /// Random tables of one to three columns of any type over fields
        /// drawn from the pool.
        #[test]
        fn typed_decode_equals_parse_field(
            types in prop::collection::vec(0..TYPES.len(), 1..4),
            rows in prop::collection::vec(prop::collection::vec(0..POOL.len(), 3), 0..12),
        ) {
            let types: Vec<DataType> = types.iter().map(|&t| TYPES[t]).collect();
            let rows: Vec<Vec<&str>> = rows
                .iter()
                .map(|r| r[..types.len()].iter().map(|&f| POOL[f]).collect())
                .collect();
            decodes_as_parse_field(&types, &rows);
        }

        /// Columns of mostly well-formed values, so that typed vectors
        /// and dictionaries of several entries form before the odd field.
        #[test]
        fn mostly_valid_columns_decode_as_parse_field(
            ty in 0..TYPES.len(),
            fields in prop::collection::vec(0usize..100, 0..20),
        ) {
            const VALID: [&str; 8] = ["1", "-2", "30", "4.5", "1995-06-17", "2001-12-31", "t", "abc"];
            let field = |i: usize| if i < 90 { VALID[i % VALID.len()] } else { POOL[i % POOL.len()] };
            let rows: Vec<Vec<&str>> = fields.iter().map(|&i| vec![field(i)]).collect();
            decodes_as_parse_field(&[TYPES[ty]], &rows);
        }
    }
}
