//! The Smart Data Access adapter trait and concrete adapters.
//!
//! "The communication to remote resources is realized by adapters which
//! are usually specific to the data source" (§4.2). Each adapter exposes
//! its capability set, the remote schemas and statistics, executes
//! shipped sub-queries, and (where supported) materializes results
//! remotely via CTAS.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hana_columnar::ColumnPredicate;
use hana_hadoop::{Hive, MrFunctionRegistry};
use hana_iq::{IqEngine, IqPlan};
use hana_sql::finish::{collect_aggregates, finish_query};
use hana_sql::{BinOp, Expr, JoinKind, Query, TableRef};
use hana_types::{AggFunc, HanaError, Result, ResultSet, Row, Schema};

use crate::capability::CapabilitySet;
use crate::context::RemoteContext;
use crate::pushdown::split_pushdown;

/// MetaStore-style statistics of a remote table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RemoteStats {
    /// Row count.
    pub row_count: u64,
    /// Data file count.
    pub file_count: u64,
    /// Logical modification tick of the remote source.
    pub last_modified: u64,
}

/// One SDA adapter instance, bound to a concrete remote system.
pub trait SdaAdapter: Send + Sync {
    /// Adapter type name (e.g. `hiveodbc`, `hadoop`, `iq`).
    fn adapter_name(&self) -> &'static str;

    /// Host identification (part of the remote-cache hash key).
    fn host(&self) -> &str;

    /// The adapter's capability description.
    fn capabilities(&self) -> CapabilitySet;

    /// Schema of a remote table.
    fn remote_schema(&self, table: &str) -> Result<Schema>;

    /// Statistics of a remote table (for federated cost estimation).
    fn table_stats(&self, table: &str) -> Result<RemoteStats>;

    /// Execute a shipped sub-query under `ctx`. The context carries the
    /// snapshot cid (ignored by sources without transactional
    /// capabilities, like Hive) plus the call's deadline budget —
    /// adapters should honour [`RemoteContext::check_deadline`] at
    /// natural cancellation points so an over-budget federated query
    /// aborts instead of hanging.
    fn execute(&self, q: &Query, ctx: &RemoteContext) -> Result<ResultSet>;

    /// Materialize a query's result into remote table `target`
    /// (CTAS). Returns rows written. Default: unsupported.
    fn ctas(&self, target: &str, q: &Query) -> Result<u64> {
        let _ = (target, q);
        Err(HanaError::Unsupported(format!(
            "adapter '{}' does not support remote materialization",
            self.adapter_name()
        )))
    }

    /// Drop a remote (temp) table. Default: unsupported.
    fn drop_remote_table(&self, name: &str) -> Result<()> {
        Err(HanaError::Unsupported(format!(
            "adapter '{}' cannot drop remote table '{name}'",
            self.adapter_name()
        )))
    }

    /// The remote source's logical clock (cache validity checks).
    fn current_tick(&self) -> u64 {
        0
    }

    /// Invoke a registered remote function (virtual functions, §4.3).
    fn invoke_function(&self, configuration: &str) -> Result<ResultSet> {
        let _ = configuration;
        Err(HanaError::Unsupported(format!(
            "adapter '{}' does not support virtual functions",
            self.adapter_name()
        )))
    }

    /// Ship rows into a remote temp table (semi-join reduction / table
    /// relocation). Returns the temp table name. Default: unsupported.
    fn create_temp_table(
        &self,
        schema: Schema,
        rows: &[Row],
        ctx: &RemoteContext,
    ) -> Result<String> {
        let _ = (schema, rows, ctx);
        Err(HanaError::Unsupported(format!(
            "adapter '{}' cannot receive shipped rows",
            self.adapter_name()
        )))
    }

    /// Source-side selectivity estimate for one column predicate, if the
    /// source maintains statistics for it (§3.1: histograms "on the
    /// extended storage"). `None` falls back to default selectivities.
    fn estimate_selectivity(
        &self,
        table: &str,
        column: &str,
        pred: &ColumnPredicate,
    ) -> Option<f64> {
        let _ = (table, column, pred);
        None
    }

    /// Distinct-count of a remote column, if the source maintains one.
    /// Feeds the join-key synopsis of the federated cost model
    /// (`JoinSituation::remote_key_ndv`); `None` leaves it unknown.
    fn column_distinct(&self, table: &str, column: &str) -> Option<u64> {
        let _ = (table, column);
        None
    }
}

// ---------------------------------------------------------------- hive

/// Names of shipped temp tables: drawn, not read off the clock, so
/// concurrent relocations — through any adapter over one Hive — never
/// pick the same one.
static TEMP_TABLES: AtomicU64 = AtomicU64::new(0);

/// The `hiveodbc` adapter: ships HiveQL over a simulated ODBC
/// connection (§4.2, Figure 10).
///
/// The configuration may carry `row_cost_us=<n>` to model the per-row
/// ODBC transfer cost of fetching results back into HANA — the paper's
/// mixed queries show lower materialization benefit precisely because
/// "the results fetched from the remote source are joined with local
/// tables in HANA", and that fetch is not free. The cost is charged to
/// the Hive cluster's modelled time (`MrCluster::modelled`), beside the
/// job start-up costs it trades against; nothing sleeps.
pub struct HiveOdbcAdapter {
    hive: Arc<Hive>,
    dsn: String,
    row_cost_us: u64,
}

impl HiveOdbcAdapter {
    /// Connect to `hive` with the DSN from the remote-source
    /// configuration (e.g. `DSN=hive1;row_cost_us=50`).
    pub fn new(hive: Arc<Hive>, configuration: &str) -> HiveOdbcAdapter {
        let get = |key: &str| {
            configuration
                .split(';')
                .find_map(|kv| kv.trim().strip_prefix(key))
                .map(str::to_string)
        };
        let dsn = get("DSN=").unwrap_or_else(|| "hive".into());
        let row_cost_us: u64 = get("row_cost_us=")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        HiveOdbcAdapter {
            hive,
            dsn,
            row_cost_us,
        }
    }

    /// The wrapped Hive engine.
    pub fn hive(&self) -> &Arc<Hive> {
        &self.hive
    }

    fn charge_transfer(&self, rows: usize) {
        let micros = self.row_cost_us.saturating_mul(rows as u64);
        self.hive
            .cluster()
            .charge(std::time::Duration::from_micros(micros));
    }
}

impl SdaAdapter for HiveOdbcAdapter {
    fn adapter_name(&self) -> &'static str {
        "hiveodbc"
    }

    fn host(&self) -> &str {
        &self.dsn
    }

    fn capabilities(&self) -> CapabilitySet {
        CapabilitySet::hive()
    }

    fn remote_schema(&self, table: &str) -> Result<Schema> {
        self.hive.table_schema(table)
    }

    fn table_stats(&self, table: &str) -> Result<RemoteStats> {
        let s = self.hive.table_stats(table)?;
        Ok(RemoteStats {
            row_count: s.row_count,
            file_count: s.file_count,
            last_modified: s.last_modified,
        })
    }

    fn execute(&self, q: &Query, ctx: &RemoteContext) -> Result<ResultSet> {
        ctx.check_deadline("hive query submission")?;
        let rs = self.hive.execute_query(q)?;
        self.charge_transfer(rs.len());
        ctx.check_deadline("hive result transfer")?;
        Ok(rs)
    }

    fn ctas(&self, target: &str, q: &Query) -> Result<u64> {
        // The materialized result stays at the remote source: no
        // transfer cost beyond the job itself (§4.4).
        Ok(self.hive.create_table_as_select(target, q)?.rows)
    }

    fn drop_remote_table(&self, name: &str) -> Result<()> {
        self.hive.drop_table(name)
    }

    fn current_tick(&self) -> u64 {
        self.hive.current_tick()
    }

    fn create_temp_table(
        &self,
        schema: Schema,
        rows: &[Row],
        ctx: &RemoteContext,
    ) -> Result<String> {
        ctx.check_deadline("hive temp-table shipping")?;
        let name = format!(
            "tmp_shipped_{}",
            TEMP_TABLES.fetch_add(1, Ordering::Relaxed)
        );
        self.hive.create_table(&name, schema)?;
        // A row the text format refuses leaves no half-shipped table.
        if let Err(e) = self.hive.load(&name, rows) {
            let _ = self.hive.drop_table(&name);
            return Err(e);
        }
        Ok(name)
    }
}

// -------------------------------------------------------------- hadoop

/// The raw `hadoop` adapter: invokes registered MR driver classes via
/// WebHDFS/WebHCat-style configuration (§4.3, Figure 11).
pub struct HadoopMrAdapter {
    registry: Arc<MrFunctionRegistry>,
    host: String,
}

impl HadoopMrAdapter {
    /// Bind to a function registry; configuration carries the
    /// `webhdfs=…;webhcatalog=…` endpoints (kept as host label).
    pub fn new(registry: Arc<MrFunctionRegistry>, configuration: &str) -> HadoopMrAdapter {
        let host = configuration
            .split(';')
            .find_map(|kv| kv.trim().strip_prefix("webhdfs="))
            .unwrap_or("hadoop")
            .to_string();
        HadoopMrAdapter { registry, host }
    }
}

impl SdaAdapter for HadoopMrAdapter {
    fn adapter_name(&self) -> &'static str {
        "hadoop"
    }

    fn host(&self) -> &str {
        &self.host
    }

    fn capabilities(&self) -> CapabilitySet {
        CapabilitySet::hadoop_mr()
    }

    fn remote_schema(&self, table: &str) -> Result<Schema> {
        Err(HanaError::Unsupported(format!(
            "the hadoop adapter exposes functions, not tables ('{table}')"
        )))
    }

    fn table_stats(&self, _table: &str) -> Result<RemoteStats> {
        Ok(RemoteStats::default())
    }

    fn execute(&self, q: &Query, _ctx: &RemoteContext) -> Result<ResultSet> {
        Err(HanaError::Unsupported(format!(
            "the hadoop adapter cannot execute SQL ('{q}')"
        )))
    }

    fn invoke_function(&self, configuration: &str) -> Result<ResultSet> {
        // Parse `hana.mapred.driver.class = com.x.Y;` from the virtual
        // function's CONFIGURATION string.
        let driver = configuration
            .split(';')
            .filter_map(|kv| kv.split_once('='))
            .find(|(k, _)| k.trim() == "hana.mapred.driver.class")
            .map(|(_, v)| v.trim().to_string())
            .ok_or_else(|| {
                HanaError::Config(
                    "virtual function configuration lacks hana.mapred.driver.class".into(),
                )
            })?;
        self.registry.invoke(&driver)
    }
}

// ------------------------------------------------------------------ iq

/// The extended-storage adapter: compiles shipped sub-queries into
/// [`IqPlan`]s executed by the IQ engine (§3.1 "Query Processing").
pub struct IqAdapter {
    engine: Arc<IqEngine>,
}

impl IqAdapter {
    /// Wrap an IQ engine.
    pub fn new(engine: Arc<IqEngine>) -> IqAdapter {
        IqAdapter { engine }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &Arc<IqEngine> {
        &self.engine
    }

    /// Compile the scan/join/aggregate part of `q` into an [`IqPlan`].
    /// Residual predicates or unsupported shapes are an error — the
    /// federated optimizer must not ship such queries here.
    pub fn compile(&self, q: &Query) -> Result<IqPlan> {
        let from = q
            .from
            .as_ref()
            .ok_or_else(|| HanaError::Plan("query without FROM".into()))?;
        let (first_binding, first_table) = named(from)?;

        // Partition WHERE into per-binding pushdowns.
        let mut bindings = vec![(first_binding.clone(), first_table.clone())];
        for j in &q.joins {
            if j.kind != JoinKind::Inner {
                return Err(HanaError::Unsupported(
                    "IQ plan compiler supports inner joins only".into(),
                ));
            }
            bindings.push(named(&j.table)?);
        }
        let (pushed, residual) = match &q.filter {
            Some(f) => split_pushdown(f),
            None => (Vec::new(), Vec::new()),
        };
        if !residual.is_empty() {
            return Err(HanaError::Unsupported(format!(
                "predicates not pushable to IQ: {residual:?}"
            )));
        }
        // Attribute each predicate to the binding whose schema has it.
        let mut per: Vec<Vec<(String, ColumnPredicate)>> = vec![Vec::new(); bindings.len()];
        'pred: for (col, p) in pushed {
            for (i, (_, table)) in bindings.iter().enumerate() {
                if self.engine.table_schema(table)?.index_of(&col).is_some() {
                    per[i].push((col, p));
                    continue 'pred;
                }
            }
            return Err(HanaError::Plan(format!(
                "predicate column '{col}' not found in any shipped table"
            )));
        }

        let mut plan = IqPlan::scan_where(&first_table, per[0].clone());
        for (i, j) in q.joins.iter().enumerate() {
            let (lk, rk) = equi_columns(&j.on)?;
            plan = IqPlan::Join {
                left: Box::new(plan),
                right: Box::new(IqPlan::scan_where(&bindings[i + 1].1, per[i + 1].clone())),
                left_col: lk,
                right_col: rk,
            };
        }

        // Aggregation: group-by columns and aggregate args must be plain
        // columns for pushdown.
        let aggs = collect_aggregates(q);
        if !q.group_by.is_empty() || !aggs.is_empty() {
            let group_by: Vec<String> = q
                .group_by
                .iter()
                .map(|g| match g {
                    Expr::Column { name, .. } => Ok(name.clone()),
                    other => Err(HanaError::Unsupported(format!(
                        "IQ group-by supports plain columns, got {other}"
                    ))),
                })
                .collect::<Result<_>>()?;
            let aggregates: Vec<(AggFunc, Option<String>)> = aggs
                .iter()
                .map(|(f, arg)| match arg {
                    None => Ok((*f, None)),
                    Some(Expr::Column { name, .. }) => Ok((*f, Some(name.clone()))),
                    Some(other) => Err(HanaError::Unsupported(format!(
                        "IQ aggregates support plain columns, got {other}"
                    ))),
                })
                .collect::<Result<_>>()?;
            plan = IqPlan::Aggregate {
                input: Box::new(plan),
                group_by,
                aggregates,
            };
        }
        Ok(plan)
    }
}

fn named(t: &TableRef) -> Result<(String, String)> {
    match t {
        TableRef::Named { name, alias } => {
            Ok((alias.clone().unwrap_or_else(|| name.clone()), name.clone()))
        }
        other => Err(HanaError::Unsupported(format!(
            "IQ FROM supports named tables only, got {other}"
        ))),
    }
}

fn equi_columns(on: &Expr) -> Result<(String, String)> {
    if let Expr::Binary {
        left,
        op: BinOp::Eq,
        right,
    } = on
    {
        if let (Expr::Column { name: l, .. }, Expr::Column { name: r, .. }) =
            (left.as_ref(), right.as_ref())
        {
            return Ok((l.clone(), r.clone()));
        }
    }
    Err(HanaError::Unsupported(format!(
        "IQ joins need a simple equi-join ON clause, got {on}"
    )))
}

impl SdaAdapter for IqAdapter {
    fn adapter_name(&self) -> &'static str {
        "iq"
    }

    fn host(&self) -> &str {
        self.engine.name()
    }

    fn capabilities(&self) -> CapabilitySet {
        CapabilitySet::iq()
    }

    fn remote_schema(&self, table: &str) -> Result<Schema> {
        self.engine.table_schema(table)
    }

    fn table_stats(&self, table: &str) -> Result<RemoteStats> {
        Ok(RemoteStats {
            row_count: self.engine.row_count(table, u64::MAX - 1)? as u64,
            file_count: 1,
            last_modified: 0,
        })
    }

    fn execute(&self, q: &Query, ctx: &RemoteContext) -> Result<ResultSet> {
        ctx.check_deadline("IQ plan compilation")?;
        let plan = self.compile(q)?;
        let rs = self.engine.execute(&plan, ctx.cid())?;
        // The aggregate stage (if any) produced positional columns named
        // by the engine; rename to the shared `_g/_a` convention before
        // the driver epilogue.
        let aggs = collect_aggregates(q);
        let rs = if !q.group_by.is_empty() || !aggs.is_empty() {
            rename_positional(rs, q.group_by.len())?
        } else {
            rs
        };
        let (rows, schema) = finish_query(rs.rows, &rs.schema, q)?;
        Ok(ResultSet::new(schema, rows))
    }

    fn create_temp_table(
        &self,
        schema: Schema,
        rows: &[Row],
        ctx: &RemoteContext,
    ) -> Result<String> {
        ctx.check_deadline("IQ temp-table shipping")?;
        self.engine.create_temp_table(schema, rows, ctx.cid())
    }

    fn drop_remote_table(&self, name: &str) -> Result<()> {
        self.engine.drop_table(name)
    }

    /// Range-based estimation from the engine's zone-map metadata: a
    /// numeric predicate's selectivity is interpolated over the column's
    /// min/max span.
    fn estimate_selectivity(
        &self,
        table: &str,
        column: &str,
        pred: &ColumnPredicate,
    ) -> Option<f64> {
        let (min, max) = self.engine.column_range(table, column).ok()?;
        let (lo, hi) = (min?.as_f64()?, max?.as_f64()?);
        if hi <= lo {
            return None;
        }
        let span = hi - lo;
        let frac = |v: &hana_types::Value| v.as_f64().map(|x| ((x - lo) / span).clamp(0.0, 1.0));
        match pred {
            ColumnPredicate::Lt(v) | ColumnPredicate::Le(v) => frac(v),
            ColumnPredicate::Gt(v) | ColumnPredicate::Ge(v) => frac(v).map(|f| 1.0 - f),
            ColumnPredicate::Between(a, b) => Some((frac(b)? - frac(a)?).clamp(0.0, 1.0)),
            ColumnPredicate::Eq(_) => {
                let rows = self.engine.row_count(table, u64::MAX - 1).ok()? as f64;
                Some((1.0 / rows.max(1.0)).min(1.0))
            }
            _ => None,
        }
    }

    /// Exact distinct-count from the IQ store.
    fn column_distinct(&self, table: &str, column: &str) -> Option<u64> {
        self.engine.column_distinct(table, column).ok()
    }
}

/// Rename an aggregate result's columns to `_g0.._gN, _a0.._aM`.
fn rename_positional(rs: ResultSet, groups: usize) -> Result<ResultSet> {
    let cols = rs
        .schema
        .columns()
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let name = if i < groups {
                format!("_g{i}")
            } else {
                format!("_a{}", i - groups)
            };
            hana_types::ColumnDef {
                name,
                data_type: c.data_type,
                nullable: c.nullable,
            }
        })
        .collect();
    Ok(ResultSet::new(Schema::new(cols)?, rs.rows))
}
