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
//! Tables and the intermediates between jobs are Hive text files
//! (`^A`-separated fields, `\N` for NULL). Every reader of them — each
//! map function, the driver's final read, the fetch task — goes through
//! one record reader, [`read_records`], which finds line and field
//! boundaries in a single pass. As in Hive's vectorized operators,
//! expressions run over column batches: a map task decodes the fields
//! they read a split at a time and filters ([`select`]) or groups
//! ([`group_batch`]) the batch, and a join's reducer runs the spanning
//! conjuncts over one key's joined lines at once. Join keys and partial
//! aggregates travel typed, through [`hana_types::encode_row`]. A line
//! that does not decode, or an expression that cannot be evaluated,
//! fails the job.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use hana_sql::batch::{group_batch, select, AggCall, Batch, Column, Groups};
use hana_sql::finish::{aggregate_output_schema, collect_aggregates, Epilogue};
use hana_sql::{equi_keys, parse_statement, Expr, JoinKind, Query, Statement, TableRef};
use hana_types::{
    decode_values, encode_row, Accumulator, AggFunc, DataType, HanaError, Result, ResultSet, Row,
    Schema, Value,
};

use crate::hdfs::Hdfs;
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
        let Some(table) = self
            .metastore
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
        else {
            return Ok(None);
        };
        let schema = &table.schema;
        let epilogue = Epilogue::new(schema, q, &[])?;
        let files = self.cluster.hdfs().list(&table.location);
        let rows = read_rows(self.cluster.hdfs(), &files, schema.len(), |fields| {
            decode_fields(fields, schema)
        })?;
        Ok(Some(
            epilogue.apply(Batch::from_rows(rows, schema.len()), &[])?,
        ))
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

        // One filtered, pruned scan per source, run by the map function
        // of the first job that reads the source.
        let mut sources = Vec::with_capacity(bindings.len());
        let mut schemas = Vec::with_capacity(bindings.len());
        for ((b, preds), keep) in bindings.iter().zip(pushed).zip(keep) {
            let full = b.table.schema.qualified(&b.name);
            let pred = preds.into_iter().reduce(Expr::and);
            let cols = keep.iter().map(|&i| full.column(i).clone()).collect();
            sources.push(Input {
                name: format!("{} as {}", b.table.name, b.name),
                files: self.cluster.hdfs().list(&b.table.location),
                scan: Scan {
                    arity: full.len(),
                    pred: pred.map(|p| BoundExprs::bind(&full, vec![p])).transpose()?,
                    keep: (keep.len() < full.len()).then_some(keep),
                },
            });
            schemas.push(Schema::new(cols)?);
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
        let residual = residual.into_iter().reduce(Expr::and);
        let residual = residual
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

    fn run(&self, plan: Plan) -> Result<ResultSet> {
        let Plan {
            sources,
            joins,
            mut residual,
            agg,
            schema,
            epilogue,
        } = plan;
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
            input = self.join_stage(input, right, join, residual, idx)?;
        }
        let rows = match agg {
            Some(agg) => self.aggregate_stage(input, agg)?,
            None => {
                let files = match last {
                    0 => self.map_only(input)?,
                    _ => input.files,
                };
                let rows = read_rows(self.cluster.hdfs(), &files, schema.len(), |fields| {
                    decode_fields(fields, &schema)
                })?;
                Batch::from_rows(rows, schema.len())
            }
        };
        epilogue.apply(rows, &[])
    }

    fn tmp_dir(&self, stage: &str) -> String {
        format!(
            "/tmp/hive/{stage}-{}",
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        )
    }

    /// The map-only job of a statement with neither a join nor a GROUP
    /// BY: the scan alone. Returns its output files; no input, no job.
    fn map_only(&self, input: Input) -> Result<Vec<String>> {
        if input.files.is_empty() {
            return Ok(input.files);
        }
        let spec = JobSpec {
            name: format!("scan {}", input.name),
            inputs: input.files,
            output_dir: self.tmp_dir("scan"),
            num_reducers: 0,
        };
        self.cluster.run_job(&spec, Arc::new(input.scan), None)?;
        Ok(self.cluster.hdfs().list(&spec.output_dir))
    }

    /// Repartition join: each map task runs the scan of the side it was
    /// scheduled for and ships `(key, tagged cut line)`; the reducers
    /// emit the concatenated matches that `residual` keeps.
    fn join_stage(
        &self,
        left: Input,
        right: Input,
        join: Join,
        residual: Option<BoundExprs>,
        join_idx: usize,
    ) -> Result<Input> {
        let name = format!("repartition-join-{join_idx}");
        let arity = left.scan.width() + right.scan.width();
        let joined = |files| Input {
            name: name.clone(),
            files,
            scan: Scan::identity(arity),
        };
        if left.files.is_empty() && right.files.is_empty() {
            return Ok(joined(Vec::new()));
        }
        let mapper = JoinMapper {
            left_inputs: left.files.len(),
            as_double: join.left.1 == DataType::Double || join.right.1 == DataType::Double,
            sides: [(left.scan, join.left), (right.scan, join.right)],
        };
        let reducer = Arc::new(JoinReducer {
            residual,
            arity,
            failed: Mutex::new(None),
        });
        let spec = JobSpec {
            name: name.clone(),
            inputs: left.files.into_iter().chain(right.files).collect(),
            output_dir: self.tmp_dir(&format!("join-{join_idx}")),
            num_reducers: 3,
        };
        let reduce: Arc<dyn Reducer> = reducer.clone();
        self.cluster
            .run_job(&spec, Arc::new(mapper), Some(reduce))?;
        if let Some(e) = reducer.failed.lock().take() {
            return Err(e);
        }
        Ok(joined(self.cluster.hdfs().list(&spec.output_dir)))
    }

    /// Group-by MR job: each map task runs the scan of its input,
    /// aggregates what survives and ships one partial state per group;
    /// the reducers merge and finish them.
    fn aggregate_stage(&self, input: Input, agg: Agg) -> Result<Batch> {
        let funcs: Vec<AggFunc> = agg.aggs.iter().map(|(f, _)| *f).collect();
        let width = agg.schema.len();
        // When no group reaches a reducer: the group-by's answer to no
        // rows (a global aggregate's one row, a grouped one's none).
        let nothing = Groups::from_items(&agg.aggs, Vec::new()).finish(agg.keys.len(), &agg.aggs);
        if input.files.is_empty() {
            return Ok(nothing);
        }
        let spec = JobSpec {
            name: "group-by".into(),
            inputs: input.files,
            output_dir: self.tmp_dir("agg"),
            num_reducers: if agg.keys.is_empty() { 1 } else { 3 },
        };
        let mapper = AggMapper {
            scan: input.scan,
            agg,
        };
        let reducer = AggReducer(funcs);
        self.cluster
            .run_job(&spec, Arc::new(mapper), Some(Arc::new(reducer)))?;

        // An output line is one `encode_row`, which escapes `^A`: one
        // field.
        let files = self.cluster.hdfs().list(&spec.output_dir);
        let rows = read_rows(self.cluster.hdfs(), &files, 1, |fields| {
            let values = decode_values(fields[0])?;
            if values.len() != width {
                return Err(corrupt(fields[0], values.len(), width));
            }
            Ok(Row(values))
        })?;
        Ok(match rows.is_empty() {
            true => nothing,
            false => Batch::from_rows(rows, width),
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

/// What a job reads: files, and the scan its map function runs over
/// their lines before anything else.
struct Input {
    /// `<table> as <binding>`, or the job that wrote the files.
    name: String,
    files: Vec<String>,
    scan: Scan,
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
}

/// `lines` as the batch a stage's expressions run over: a column per
/// field they read (`fields`, as [`BoundExprs`] has them), decoded a
/// column at a time; NULL for a field none reads.
fn decode(fields: &[Option<DataType>], lines: &[&[&str]]) -> Result<Batch> {
    let column = |(i, ty): (usize, &Option<DataType>)| match ty {
        Some(ty) => {
            let values = lines.iter().map(|line| parse_field(line[i], *ty));
            Ok(Column::from_values(values.collect::<Result<_>>()?))
        }
        None => Ok(Column::Const(Value::Null, lines.len())),
    };
    let columns = fields.iter().enumerate().map(column);
    Ok(Batch::new(columns.collect::<Result<_>>()?, lines.len()))
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

/// Hive's record reader: calls `record(line, fields)` for each line of
/// `split` in order — the lines `str::lines` yields, each cut at every
/// `^A` as `split('\u{1}')` cuts it — and returns how many lines there
/// were. One pass finds line and field boundaries together, testing
/// eight bytes per step for `^A` and `\n`; neither byte occurs inside a
/// multi-byte UTF-8 character, so every boundary is a character
/// boundary. A line with other than `arity` fields is corrupt; it, or
/// an error from `record`, ends the read with that error.
pub fn read_records<'a>(
    split: &'a str,
    arity: usize,
    mut record: impl FnMut(&'a str, &[&'a str]) -> Result<()>,
) -> Result<u64> {
    let bytes = split.as_bytes();
    let mut fields = Vec::with_capacity(arity);
    let (mut line_start, mut field_start, mut records) = (0, 0, 0);
    // A `^A` or `\n` at `at`, or the end of the split.
    let mut boundary = |at: usize| {
        let end = match bytes.get(at) {
            Some(&SEP) => {
                fields.push(&split[field_start..at]);
                field_start = at + 1;
                return Ok(());
            }
            // `\r\n` ends a line too, as it does for `str::lines`.
            Some(_) if at > line_start && bytes[at - 1] == b'\r' => at - 1,
            Some(_) => at,
            // A last line without a line break.
            None if at > line_start => at,
            None => return Ok(()),
        };
        fields.push(&split[field_start..end]);
        let line = &split[line_start..end];
        if fields.len() != arity {
            return Err(corrupt(line, fields.len(), arity));
        }
        record(line, &fields)?;
        fields.clear();
        records += 1;
        (line_start, field_start) = (at + 1, at + 1);
        Ok(())
    };
    let mut words = bytes.chunks_exact(8);
    let mut base = 0;
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk"));
        let mut hits = zero_lanes(w ^ LANES) | zero_lanes(w ^ (LANES * u64::from(b'\n')));
        while hits != 0 {
            boundary(base + hits.trailing_zeros() as usize / 8)?;
            hits &= hits - 1;
        }
        base += 8;
    }
    for (i, &b) in words.remainder().iter().enumerate() {
        if b == SEP || b == b'\n' {
            boundary(base + i)?;
        }
    }
    boundary(bytes.len())?;
    Ok(records)
}

/// The fields of `line`, one line without its line break. The reader
/// finds no line in the empty text; as one line, it is one empty field.
fn line_fields(line: &str, arity: usize) -> Result<Vec<&str>> {
    let mut fields = Vec::with_capacity(arity);
    let lines = read_records(line, arity, |_, f| {
        fields.extend_from_slice(f);
        Ok(())
    })?;
    match lines {
        1 => Ok(fields),
        0 if arity == 1 => Ok(vec![line]),
        0 => Err(corrupt(line, 1, arity)),
        n => Err(HanaError::Execution(format!(
            "one line expected, found {n}: '{line}'"
        ))),
    }
}

fn corrupt(line: &str, found: usize, expected: usize) -> HanaError {
    HanaError::Execution(format!(
        "line has {found} fields, schema {expected} columns: '{line}'"
    ))
}

/// Decode every line of `files` on the driver.
pub(crate) fn read_rows(
    hdfs: &Hdfs,
    files: &[String],
    arity: usize,
    decode: impl Fn(&[&str]) -> Result<Row>,
) -> Result<Vec<Row>> {
    let mut rows = Vec::new();
    for file in files {
        let text = hdfs.read_text(file)?;
        read_records(&text, arity, |_, fields| {
            rows.push(decode(fields)?);
            Ok(())
        })?;
    }
    Ok(rows)
}

/// `fields` as one line of Hive text, after `prefix`.
fn text_line(prefix: &str, fields: &[&str]) -> String {
    let len = fields.iter().map(|f| f.len() + 1).sum::<usize>();
    let mut line = String::with_capacity(prefix.len() + len);
    line.push_str(prefix);
    for (i, f) in fields.iter().enumerate() {
        if i > 0 {
            line.push(FIELD_SEP);
        }
        line.push_str(f);
    }
    line
}

// ---- the operators inside the jobs ----

/// Hive's TableScan → Filter → Select over the lines of one input: keep
/// the lines that satisfy `pred`, cut to the fields `keep`. It runs in
/// the map function of the job that reads the input; over the output of
/// an earlier job it is the identity.
struct Scan {
    /// Fields of an input line.
    arity: usize,
    /// The conjuncts pushed into the scan; `None` keeps every line.
    pred: Option<BoundExprs>,
    /// Fields of a surviving line to emit; `None` emits them all.
    keep: Option<Vec<usize>>,
}

impl Scan {
    /// Lines of `arity` fields, read as they are.
    fn identity(arity: usize) -> Scan {
        Scan {
            arity,
            pred: None,
            keep: None,
        }
    }

    /// Fields of an emitted line.
    fn width(&self) -> usize {
        self.keep.as_ref().map_or(self.arity, Vec::len)
    }

    /// How many lines `split` holds, and the cut fields of those that
    /// satisfy the predicate, in order, [`Scan::width`] to a line. The
    /// predicate runs once per split, over the split's batch.
    fn run<'a>(&self, split: &'a str) -> Result<(u64, Vec<&'a str>)> {
        let mut fields: Vec<&'a str> = Vec::new();
        let read = read_records(split, self.arity, |_, f| {
            fields.extend_from_slice(f);
            Ok(())
        })?;
        let lines: Vec<&[&str]> = fields.chunks_exact(self.arity).collect();
        let kept = match &self.pred {
            None => (0..lines.len() as u32).collect(),
            Some(pred) => {
                let b = decode(&pred.fields, &lines)?;
                select(&pred.exprs[0], &b, &b.sel, &[])?
            }
        };
        let mut cut = Vec::with_capacity(kept.len() * self.width());
        for j in kept {
            let line = lines[j as usize];
            match &self.keep {
                None => cut.extend_from_slice(line),
                Some(keep) => cut.extend(keep.iter().map(|&i| line[i])),
            }
        }
        Ok((read, cut))
    }
}

/// The map-only job: the scan alone, writing the lines it cuts.
impl Mapper for Scan {
    fn map_split(&self, _: usize, _: &str, split: &str, out: &mut Vec<KV>) -> Result<u64> {
        let (read, cut) = self.run(split)?;
        let lines = cut.chunks_exact(self.width());
        out.extend(lines.map(|line| (String::new(), text_line("", line))));
        Ok(read)
    }
}

/// The map side of a repartition join: runs the scan of its side,
/// decodes the key field only and ships the cut line tagged with its
/// side. NULL keys join nothing.
struct JoinMapper {
    /// The scan of the left and of the right input, and the position
    /// and type of the key among the fields it emits.
    sides: [(Scan, (usize, DataType)); 2],
    /// How many of `JobSpec::inputs` are the left side's, which come
    /// first: a task's side is the input it was scheduled for, never its
    /// file — `FROM t a JOIN t b` lists t's files on both sides (Hadoop's
    /// `MultipleInputs`).
    left_inputs: usize,
    /// One side's key is a DOUBLE: an INT key meets it as a double.
    as_double: bool,
}

impl Mapper for JoinMapper {
    fn map_split(&self, input: usize, _: &str, split: &str, out: &mut Vec<KV>) -> Result<u64> {
        let (tag, (scan, (field, ty))) = match input < self.left_inputs {
            true => ("L", &self.sides[0]),
            false => ("R", &self.sides[1]),
        };
        let (read, cut) = scan.run(split)?;
        for line in cut.chunks_exact(scan.width()) {
            let key = parse_field(line[*field], *ty)?;
            if !key.is_null() {
                out.push((join_key(key, self.as_double), text_line(tag, line)));
            }
        }
        Ok(read)
    }
}

/// The shuffle key of a join key: two are equal exactly when the values
/// are (`Value`'s equality, which the local hash join uses), so INT `1`
/// meets DOUBLE `1.0` and `-0.0` meets `0.0`. With `as_double` an
/// integer ships as the double it equals; without, integers stay exact.
fn join_key(key: Value, as_double: bool) -> String {
    let key = match key {
        Value::Int(i) if as_double => Value::Double(i as f64),
        // A float pattern matches by `==`: `-0.0` too.
        Value::Double(0.0) => Value::Double(0.0),
        key => key,
    };
    encode_row(&[key])
}

/// The reduce side of a repartition join: left lines × right lines of
/// one key, those the residual predicate keeps.
struct JoinReducer {
    /// The conjuncts that span sources, over the joined line — Hive's
    /// Filter after Join; only the last join has them.
    residual: Option<BoundExprs>,
    /// Fields of a joined line.
    arity: usize,
    /// The first residual predicate that failed to evaluate: a reduce
    /// function cannot fail its job, so the driver fails the statement
    /// once the job is done.
    failed: Mutex<Option<HanaError>>,
}

impl JoinReducer {
    /// The joined lines of one key the residual predicate keeps, or
    /// `None` for all: it runs once over all of them.
    fn kept(&self, joined: &[String]) -> Result<Option<Vec<u32>>> {
        let Some(pred) = &self.residual else {
            return Ok(None);
        };
        let fields = joined.iter().map(|line| line_fields(line, self.arity));
        let fields = fields.collect::<Result<Vec<_>>>()?;
        let lines: Vec<&[&str]> = fields.iter().map(Vec::as_slice).collect();
        let b = decode(&pred.fields, &lines)?;
        Ok(Some(select(&pred.exprs[0], &b, &b.sel, &[])?))
    }
}

impl Reducer for JoinReducer {
    fn reduce(&self, _key: &str, values: &[String], out: &mut Vec<String>) {
        let side = |tag| values.iter().filter_map(move |v| v.strip_prefix(tag));
        let joined = side('L').flat_map(|l| side('R').map(move |r| format!("{l}{FIELD_SEP}{r}")));
        let mut joined: Vec<String> = joined.collect();
        match self.kept(&joined) {
            Ok(None) => out.append(&mut joined),
            Ok(Some(kept)) => {
                out.extend(
                    kept.iter()
                        .map(|&j| std::mem::take(&mut joined[j as usize])),
                );
            }
            Err(e) => {
                self.failed.lock().get_or_insert(e);
            }
        }
    }
}

/// The map side of GROUP BY: runs the scan of its input, groups what
/// survives a split at a time (Hive's map-side aggregation, through the
/// group-by every engine shares) and ships one `(group key, partial
/// states)` pair per group, both through `hana_types::encode_row` —
/// values keep their types from here to the driver.
struct AggMapper {
    scan: Scan,
    agg: Agg,
}

impl Mapper for AggMapper {
    fn map_split(&self, _: usize, _: &str, split: &str, out: &mut Vec<KV>) -> Result<u64> {
        let agg = &self.agg;
        let (read, cut) = self.scan.run(split)?;
        let lines: Vec<&[&str]> = cut.chunks_exact(self.scan.width()).collect();
        let (groups, _) = group_batch(&decode(&agg.fields, &lines)?, &agg.keys, &agg.aggs, &[])?;
        for (key, accs) in groups.into_items() {
            let states: Vec<Value> = accs.iter().flat_map(Accumulator::state).collect();
            out.push((encode_row(&key), encode_row(&states)));
        }
        Ok(read)
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

/// Decode the fields of a line against `schema`.
pub(crate) fn decode_fields(fields: &[&str], schema: &Schema) -> Result<Row> {
    let decoded = fields.iter().zip(schema.columns());
    let decoded = decoded.map(|(f, c)| parse_field(f, c.data_type));
    decoded.collect::<Result<Vec<Value>>>().map(Row)
}

/// Parse one ^A-separated line, without its line break, against a
/// schema.
pub fn parse_row(line: &str, schema: &Schema) -> Result<Row> {
    decode_fields(&line_fields(line, schema.len())?, schema)
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

/// The binding whose scan a WHERE conjunct can run in: the one every
/// column of `e` resolves in — any conjunct, when there is one binding
/// — or `None`, for a conjunct the joins must wait for.
fn single_source_of(e: &Expr, bindings: &[Binding]) -> Option<usize> {
    if bindings.len() == 1 {
        return Some(0);
    }
    let mut source: Option<usize> = None;
    for (q, _) in e.columns() {
        // Unqualified: attribution by TPC-H style prefix match is
        // unsafe, so it waits for the joins.
        let idx = bindings.iter().position(|b| Some(&b.name) == q.as_ref())?;
        match source {
            None => source = Some(idx),
            Some(s) if s == idx => {}
            _ => return None,
        }
    }
    source
}
