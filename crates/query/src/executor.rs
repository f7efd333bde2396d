//! The plan executor.

use hana_columnar::{ColumnPredicate, ColumnTable, RowIdBitmap, BLOCK_ROWS};
use hana_exec::ExecContext;
use hana_rowstore::RowTable;
use hana_sda::{RemoteContext, RetryPolicy};
use hana_sql::finish::finish_shape;
use hana_sql::{evaluate, evaluate_predicate, resolve_column, Expr, JoinKind, Query, TableRef};
use hana_types::{Accumulator, AggFunc, HanaError, Result, ResultSet, Row, Schema, Value};

use crate::catalog::{Catalog, TableSource};
use crate::hash::{FxBuildHasher, FxHashMap};
use crate::plan::{
    bind_predicate, bind_predicates, DistJoinStrategy, PlanNode, PlanOp, PlanPredicate,
};

/// What one run of a plan reads besides the plan: where it executes,
/// the snapshot it sees, and the values behind the plan's slots. A plan
/// is compiled once per statement shape; the values are resolved where
/// they are consumed — a leaf binds its predicates, an operator over
/// expressions resolves them (names to positions, slots to literals)
/// before its first row, a shipped sub-query is bound to literals
/// before it leaves.
#[derive(Clone, Copy)]
pub(crate) struct Run<'a> {
    pub exec: &'a ExecContext,
    pub catalog: &'a dyn Catalog,
    pub cid: u64,
    pub values: &'a [Value],
}

/// `build_side` attribute of a `hash_join` span: the table went over
/// the left input.
pub const BUILD_LEFT: u64 = 0;
/// `build_side` attribute of a `hash_join` span: the table went over
/// the right input.
pub const BUILD_RIGHT: u64 = 1;

/// A group table: accumulator states keyed by the group-by values.
type Groups = FxHashMap<Vec<Value>, Vec<Accumulator>>;

/// An aggregate call and its argument (`COUNT(*)` has none).
type AggCall = (AggFunc, Option<Expr>);

/// Execute a SQL query against the catalog under snapshot `cid`, using
/// the process-wide [`ExecContext`] for parallel operators.
pub fn execute_query(q: &Query, catalog: &dyn Catalog, cid: u64) -> Result<ResultSet> {
    execute_query_with(ExecContext::global(), q, catalog, cid)
}

/// Execute a SQL query with an explicit execution context (tests pin
/// worker counts this way).
pub fn execute_query_with(
    exec: &ExecContext,
    q: &Query,
    catalog: &dyn Catalog,
    cid: u64,
) -> Result<ResultSet> {
    let plan = {
        let _span = hana_obs::span("plan");
        crate::PlannerContext::new(catalog).planner().plan(q)?
    };
    execute_plan_with(exec, &plan, catalog, cid)
}

/// Render the plan for a query (EXPLAIN).
pub fn explain_query(q: &Query, catalog: &dyn Catalog, cid: u64) -> Result<String> {
    let _ = cid;
    let plan = crate::PlannerContext::new(catalog).planner().plan(q)?;
    Ok(plan.explain())
}

/// Execute a physical plan using the process-wide [`ExecContext`].
pub fn execute_plan(plan: &PlanNode, catalog: &dyn Catalog, cid: u64) -> Result<ResultSet> {
    execute_plan_with(ExecContext::global(), plan, catalog, cid)
}

/// Operator name a plan node reports its span under.
pub(crate) fn span_name(op: &PlanOp) -> String {
    match op {
        PlanOp::ColumnScan { table, .. } => format!("column_scan[{table}]"),
        PlanOp::IndexSeek { table, index, .. } => format!("index_seek[{table}.{index}]"),
        PlanOp::RowScan { table, .. } => format!("row_scan[{table}]"),
        PlanOp::DistScan { table, .. } => format!("dist_scan[{table}]"),
        PlanOp::HybridScan { table, .. } => format!("hybrid_scan[{table}]"),
        PlanOp::RemoteQuery { source, .. } => format!("remote_query[{source}]"),
        PlanOp::FunctionScan { function, .. } => format!("function_scan[{function}]"),
        PlanOp::HashJoin { .. } => "hash_join".into(),
        PlanOp::NestedLoopJoin { .. } => "nested_loop_join".into(),
        PlanOp::SemiJoin { source, .. } => format!("semi_join[{source}]"),
        PlanOp::RelocateJoin { source, .. } => format!("relocate_join[{source}]"),
        PlanOp::Filter { .. } => "filter".into(),
        PlanOp::Aggregate { group_by, .. } => {
            if group_by.is_empty() {
                "aggregate".into()
            } else {
                "group_by".into()
            }
        }
        PlanOp::Finish { .. } => "finish".into(),
    }
}

/// Execute a physical plan with an explicit execution context: the
/// zero-value call of [`execute_plan_bound`].
pub fn execute_plan_with(
    exec: &ExecContext,
    plan: &PlanNode,
    catalog: &dyn Catalog,
    cid: u64,
) -> Result<ResultSet> {
    execute_plan_bound(exec, plan, &[], catalog, cid)
}

/// Execute a physical plan whose slots read `values`.
///
/// Every operator runs under an observability span named after the
/// plan node (`column_scan[t]`, `group_by`, `hash_join`, …) carrying
/// output rows/bytes — [`hana_obs::Tracer::profile`] turns the spans of
/// one query into an `EXPLAIN ANALYZE`-style tree. Without an installed
/// tracer the spans are inert.
pub fn execute_plan_bound(
    exec: &ExecContext,
    plan: &PlanNode,
    values: &[Value],
    catalog: &dyn Catalog,
    cid: u64,
) -> Result<ResultSet> {
    let run = Run {
        exec,
        catalog,
        cid,
        values,
    };
    run_node(&run, plan)
}

fn run_node(run: &Run, plan: &PlanNode) -> Result<ResultSet> {
    let span = hana_obs::span(&span_name(&plan.op));
    let rs = run_operator(run, plan, &span)?;
    span.set_rows(rs.rows.len() as u64);
    span.set_bytes(rs.approx_bytes());
    Ok(rs)
}

fn run_operator(run: &Run, plan: &PlanNode, span: &hana_obs::Span) -> Result<ResultSet> {
    let &Run {
        exec,
        catalog,
        cid,
        values,
    } = run;
    match &plan.op {
        PlanOp::ColumnScan { table, .. } | PlanOp::IndexSeek { table, .. } => {
            let TableSource::Column(t) = catalog.resolve_table(table)? else {
                return Err(HanaError::Plan(format!("'{table}' is not a column table")));
            };
            let t = t.read();
            let hits = column_leaf_hits(run, &t, &plan.op, span)?;
            let projection = leaf_projection(&plan.schema, t.schema())?;
            span.attr("columns", projection.len() as u64);
            span.attr("table_columns", t.schema().len() as u64);
            Ok(ResultSet::new(
                plan.schema.clone(),
                t.collect_rows(&hits, &projection),
            ))
        }
        PlanOp::RowScan { table, preds, .. } => {
            let TableSource::Row(t) = catalog.resolve_table(table)? else {
                return Err(HanaError::Plan(format!("'{table}' is not a row table")));
            };
            let (_, rows) = row_leaf_hits(&t.read(), &bind_predicates(preds, values)?, cid)?;
            Ok(ResultSet::new(plan.schema.clone(), rows))
        }
        PlanOp::DistScan { table, preds, .. } => {
            let TableSource::Distributed(t) = catalog.resolve_table(table)? else {
                return Err(HanaError::Plan(format!(
                    "'{table}' is not a distributed table"
                )));
            };
            let ctx = RemoteContext::snapshot(cid);
            let policy = RetryPolicy::default();
            let (outcome, parts) = t.scan_partitions(&bind_predicates(preds, values)?, cid)?;
            span.attr("partitions_scanned", outcome.scanned);
            span.attr("partitions_pruned", outcome.pruned);
            let rows = hana_dist::gather(&t, &ctx, &policy, parts)?;
            Ok(ResultSet::new(plan.schema.clone(), rows))
        }
        PlanOp::HybridScan { table, preds, .. } => {
            let TableSource::Hybrid {
                hot,
                source,
                cold_table,
                ..
            } = catalog.resolve_table(table)?
            else {
                return Err(HanaError::Plan(format!("'{table}' is not a hybrid table")));
            };
            // Hot partition: local column scan.
            let hot = hot.read();
            let hits = column_leaf_hits(run, &hot, &plan.op, span)?;
            let mut rows = hot.collect_rows(&hits, &[]);
            // Cold partition: pushdown scan at the extended store.
            let iq = catalog.iq_engine(&source)?;
            let named = bind_predicates(preds, values)?;
            let cold = iq.scan(&cold_table, &named, None, cid)?;
            rows.extend(cold.rows);
            Ok(ResultSet::new(plan.schema.clone(), rows))
        }
        PlanOp::RemoteQuery { source, query, .. } => {
            // The remote source, its cache key and the HiveQL text know
            // nothing of slots: what leaves is the statement written
            // with literals.
            let bound;
            let query = if values.is_empty() {
                query
            } else {
                bound = query.bind(values)?;
                &bound
            };
            let (rs, _) =
                catalog
                    .sda()
                    .execute_remote(source, query, &RemoteContext::snapshot(cid))?;
            // Positional alignment: trust the planner's schema when the
            // arity matches (names may differ between engines).
            if rs.schema.len() == plan.schema.len() {
                Ok(ResultSet::new(plan.schema.clone(), rs.rows))
            } else {
                Ok(rs)
            }
        }
        PlanOp::FunctionScan { function, args, .. } => {
            let f = catalog.resolve_function(function)?;
            let empty = Schema::default();
            let arg_vals: Vec<Value> = args
                .iter()
                .map(|a| evaluate(&a.resolve(&empty, values)?, &Row::new()))
                .collect::<Result<_>>()?;
            let rs = f.invoke(&arg_vals)?;
            if rs.schema.len() == plan.schema.len() {
                Ok(ResultSet::new(plan.schema.clone(), rs.rows))
            } else {
                Ok(rs)
            }
        }
        PlanOp::HashJoin {
            left,
            right,
            left_key,
            right_key,
            kind,
            dist,
        } => {
            // Distributed fast path, when the planner chose it: the
            // probe side is a partitioned scan and the build side is
            // estimated small, so broadcast the build rows to the
            // surviving nodes and join fragment-locally, shipping only
            // join results.
            if let (DistJoinStrategy::Broadcast, PlanOp::DistScan { .. }) = (dist, &left.op) {
                let r = run_node(run, right)?;
                span.attr("broadcast_join", 1);
                return dist_broadcast_join(run, plan, &r, span);
            }
            let l = run_node(run, left)?;
            let r = run_node(run, right)?;
            hash_join(l, r, left_key, right_key, *kind, &plan.schema, span)
        }
        PlanOp::NestedLoopJoin { left, right, on } => {
            let on = on.resolve(&plan.schema, values)?;
            let l = run_node(run, left)?;
            let r = run_node(run, right)?;
            let mut rows = Vec::new();
            for lr in &l.rows {
                for rr in &r.rows {
                    let joined = lr.clone().concat(rr.clone());
                    if evaluate_predicate(&on, &joined)? {
                        rows.push(joined);
                    }
                }
            }
            Ok(ResultSet::new(plan.schema.clone(), rows))
        }
        PlanOp::SemiJoin {
            local,
            local_key,
            source,
            remote_table,
            remote_preds,
            remote_key,
            remote_binding,
        } => {
            let l = run_node(run, local)?;
            // Distinct non-null local join keys.
            let ki = resolve_key(&l.schema, local_key)?;
            let mut keys: Vec<Value> = l
                .rows
                .iter()
                .map(|r| r[ki].clone())
                .filter(|v| !v.is_null())
                .collect();
            keys.sort();
            keys.dedup();
            if keys.is_empty() {
                return Ok(ResultSet::empty(plan.schema.clone()));
            }
            // Remote reduction: the IN-clause variant of §3.1.
            let in_pred = Expr::InList {
                expr: Box::new(col_expr(remote_key)),
                list: keys.into_iter().map(Expr::Literal).collect(),
                negated: false,
            };
            let filter = bound_exprs(remote_preds, values)?
                .into_iter()
                .fold(in_pred, |acc, p| acc.and(p));
            let sub = Query {
                from: Some(TableRef::Named {
                    name: remote_table.clone(),
                    alias: Some(remote_binding.clone()),
                }),
                filter: Some(filter),
                ..Query::default()
            };
            let (reduced, _) =
                catalog
                    .sda()
                    .execute_remote(source, &sub, &RemoteContext::snapshot(cid))?;
            hash_join(
                l,
                reduced,
                local_key,
                remote_key,
                JoinKind::Inner,
                &plan.schema,
                span,
            )
        }
        PlanOp::RelocateJoin {
            local,
            local_key,
            source,
            remote_table,
            remote_preds,
            remote_key,
            remote_binding,
        } => {
            let l = run_node(run, local)?;
            // Ship the local rows with bare column names.
            let bare: Vec<hana_types::ColumnDef> = l
                .schema
                .columns()
                .iter()
                .map(|c| hana_types::ColumnDef {
                    name: unqualified(&c.name).to_string(),
                    data_type: c.data_type,
                    nullable: true,
                })
                .collect();
            let ship_schema = Schema::new(bare)?;
            let rctx = RemoteContext::snapshot(cid);
            let adapter = catalog.sda().source(source)?.adapter;
            let temp = adapter.create_temp_table(ship_schema, &l.rows, &rctx)?;
            let bare_key = unqualified(local_key);
            let sub = Query {
                from: Some(TableRef::Named {
                    name: temp.clone(),
                    alias: None,
                }),
                joins: vec![hana_sql::JoinClause {
                    kind: JoinKind::Inner,
                    table: TableRef::Named {
                        name: remote_table.clone(),
                        alias: Some(remote_binding.clone()),
                    },
                    on: Expr::Binary {
                        left: Box::new(Expr::col(bare_key)),
                        op: hana_sql::BinOp::Eq,
                        right: Box::new(col_expr(remote_key)),
                    },
                }],
                filter: bound_exprs(remote_preds, values)?
                    .into_iter()
                    .reduce(|a, b| a.and(b)),
                ..Query::default()
            };
            let (rs, _) = catalog.sda().execute_remote(source, &sub, &rctx)?;
            let _ = adapter.drop_remote_table(&temp);
            // Positional alignment: temp columns then remote columns.
            if rs.schema.len() == plan.schema.len() {
                Ok(ResultSet::new(plan.schema.clone(), rs.rows))
            } else {
                Err(HanaError::Plan(format!(
                    "relocated join returned {} columns, expected {}",
                    rs.schema.len(),
                    plan.schema.len()
                )))
            }
        }
        PlanOp::Filter { input, pred } => {
            let inp = run_node(run, input)?;
            let pred = pred.resolve(&inp.schema, values)?;
            let mut rows = Vec::with_capacity(inp.rows.len());
            for r in inp.rows {
                if evaluate_predicate(&pred, &r)? {
                    rows.push(r);
                }
            }
            Ok(ResultSet::new(plan.schema.clone(), rows))
        }
        PlanOp::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            // Distributed fast path: aggregate each partition on its
            // node and ship only the partial aggregate states — the
            // shuffle carries groups, not rows.
            if let Some(rs) =
                try_distributed_group_by(run, &plan.schema, input, group_by, aggs, span)?
            {
                return Ok(rs);
            }
            // Late-materialization fast path: group-by over a single
            // dictionary-encoded column keys accumulators on packed
            // vids and decodes each distinct group's value once.
            if let Some(rs) = try_fused_group_by(run, &plan.schema, input, group_by, aggs, span)? {
                return Ok(rs);
            }
            let inp = run_node(run, input)?;
            let (group_by, aggs) = resolve_aggregate(group_by, aggs, &inp.schema, values)?;
            // Aggregate morsel-sized row chunks into partial group
            // tables and merge the accumulators (partial aggregation,
            // MapReduce-combiner style).
            let morsels = exec.morsels(inp.rows.len()).into_iter();
            let chunks: Vec<&[Row]> = morsels.map(|m| &inp.rows[m.start..m.end]).collect();
            span.set_workers(exec.config().workers as u64);
            span.attr("partials", chunks.len() as u64);
            let mut groups = Groups::default();
            for partial in exec.scatter(chunks, |rows| aggregate_chunk(rows, &group_by, &aggs)) {
                merge_groups(&mut groups, partial?);
            }
            Ok(finish_groups(groups, &group_by, &aggs, &plan.schema))
        }
        PlanOp::Finish { input, query } => {
            let inp = run_node(run, input)?;
            // When the child already satisfied the whole query remotely,
            // the planner does not emit Finish; here the epilogue runs.
            let (rows, schema) = finish_shape(inp.rows, &inp.schema, query, values)?;
            Ok(ResultSet::new(schema, rows))
        }
    }
}

/// The table columns a column-table leaf materialises, in output
/// order: the planner prunes the leaf's schema to the columns the query
/// names (`binding.column`), and this maps them back to table positions.
fn leaf_projection(leaf: &Schema, table: &Schema) -> Result<Vec<usize>> {
    let cols = leaf.columns().iter();
    cols.map(|c| table.require(unqualified(&c.name))).collect()
}

/// A possibly binding-qualified column name without its qualifier.
fn unqualified(name: &str) -> &str {
    name.rsplit('.').next().unwrap_or(name)
}

/// Pushed-down predicates as a fragment evaluates them: columns
/// resolved against its schema, slots read from `values`.
fn resolve_preds(
    schema: &Schema,
    preds: &[PlanPredicate],
    values: &[Value],
) -> Result<Vec<(usize, ColumnPredicate)>> {
    let resolve = |(c, p): &PlanPredicate| Ok((schema.require(c)?, bind_predicate(p, values)?));
    preds.iter().map(resolve).collect()
}

/// `exprs` with their slots bound.
fn bound_exprs(exprs: &[Expr], values: &[Value]) -> Result<Vec<Expr>> {
    let bind = |e: &Expr| Ok(e.bound(values)?.into_owned());
    exprs.iter().map(bind).collect()
}

/// The row ids a column-fragment leaf selects in `t` under `cid`,
/// before any row is materialized: the pushed-down predicates of a
/// `ColumnScan` (or the hot side of a `HybridScan`) through the table's
/// morsel scan (`ColumnTable::scan_all`), or an `IndexSeek`'s ordered
/// seek. SELECT materializes these hits, the
/// fused group-by aggregates over them, and UPDATE/DELETE take them as
/// their victims ([`crate::locate_rows`]).
pub(crate) fn column_leaf_hits(
    run: &Run,
    t: &ColumnTable,
    op: &PlanOp,
    span: &hana_obs::Span,
) -> Result<RowIdBitmap> {
    let &Run {
        exec, cid, values, ..
    } = run;
    span.attr("input_rows", t.row_count() as u64);
    match op {
        PlanOp::ColumnScan { preds, .. } | PlanOp::HybridScan { preds, .. } => {
            let resolved = resolve_preds(t.schema(), preds, values)?;
            span.set_workers(exec.config().workers as u64);
            t.scan_all(exec, &resolved, cid)
        }
        PlanOp::IndexSeek {
            index,
            prefix,
            range,
            residual,
            ..
        } => {
            let prefix_vals: Vec<Value> = prefix
                .iter()
                .map(|(_, o)| o.resolve(values).cloned())
                .collect::<Result<_>>()?;
            let range = range.as_ref().map(|(_, p)| bind_predicate(p, values));
            let mut hits = t.index_seek(index, &prefix_vals, range.transpose()?.as_ref(), cid)?;
            span.attr("seek_hits", hits.count() as u64);
            // Residual predicates the index key does not cover are
            // re-checked per hit — seek output stays bit-identical to
            // the equivalent scan.
            if !residual.is_empty() {
                let resolved = resolve_preds(t.schema(), residual, values)?;
                hits.retain(|row| resolved.iter().all(|(i, p)| p.matches(&t.value(row, *i))));
            }
            Ok(hits)
        }
        _ => Err(HanaError::Plan(
            "only column-fragment leaves select row ids".into(),
        )),
    }
}

/// The slots of a row table a `RowScan` leaf selects under `cid`, and
/// the rows stored in them.
pub(crate) fn row_leaf_hits(
    t: &RowTable,
    preds: &[(String, ColumnPredicate)],
    cid: u64,
) -> Result<(Vec<usize>, Vec<Row>)> {
    let resolved: Vec<(usize, &ColumnPredicate)> = preds
        .iter()
        .map(|(c, p)| Ok((t.schema().require(c)?, p)))
        .collect::<Result<_>>()?;
    let slots = t.slots_matching(hana_txn::Snapshot::at(cid), |row| {
        resolved.iter().all(|(i, p)| p.matches(&row[*i]))
    });
    let rows = slots
        .iter()
        .map(|&slot| t.slot_values(slot).expect("slot just matched").clone())
        .collect();
    Ok((slots, rows))
}

/// A group-by's keys and aggregate arguments resolved over rows of
/// `schema`, their slots reading `values`.
fn resolve_aggregate(
    group_by: &[Expr],
    aggs: &[AggCall],
    schema: &Schema,
    values: &[Value],
) -> Result<(Vec<Expr>, Vec<AggCall>)> {
    let resolve = |e: &Expr| e.resolve(schema, values);
    let arg = |(f, arg): &AggCall| Ok((*f, arg.as_ref().map(resolve).transpose()?));
    let keys = group_by.iter().map(resolve).collect::<Result<_>>()?;
    Ok((keys, aggs.iter().map(arg).collect::<Result<_>>()?))
}

/// Feed one row into a group's accumulators.
fn accumulate_row(accs: &mut [Accumulator], aggs: &[AggCall], r: &Row) -> Result<()> {
    for (acc, (_, arg)) in accs.iter_mut().zip(aggs) {
        match arg {
            Some(e) => acc.add(&evaluate(e, r)?),
            None => acc.add(&Value::Null), // COUNT(*)
        }
    }
    Ok(())
}

/// Fold a partial group table into `into`, merging the accumulators of
/// groups both hold.
fn merge_groups(
    into: &mut Groups,
    partial: impl IntoIterator<Item = (Vec<Value>, Vec<Accumulator>)>,
) {
    for (key, accs) in partial {
        match into.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                for (into, from) in e.get_mut().iter_mut().zip(&accs) {
                    into.merge(from);
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(accs);
            }
        }
    }
}

/// Turn a merged group table into the operator's sorted result: one
/// row per group, group values then finished aggregates. A global
/// aggregate (no GROUP BY) over no rows still yields its one row.
fn finish_groups(
    mut groups: Groups,
    group_by: &[Expr],
    aggs: &[AggCall],
    out_schema: &Schema,
) -> ResultSet {
    if groups.is_empty() && group_by.is_empty() {
        groups.insert(
            Vec::new(),
            aggs.iter().map(|(f, _)| f.accumulator()).collect(),
        );
    }
    let mut rows: Vec<Row> = groups
        .into_iter()
        .map(|(mut key, accs)| {
            key.extend(accs.iter().map(|a| a.finish()));
            Row(key)
        })
        .collect();
    rows.sort();
    ResultSet::new(out_schema.clone(), rows)
}

/// Group-and-accumulate one chunk of rows into a partial hash table.
///
/// The table is FxHash-keyed and probed with a reused scratch key
/// (`Vec<Value>: Borrow<[Value]>`), so the per-row hot path does one
/// lookup and zero allocations; the key is only cloned into the table
/// once per distinct group.
fn aggregate_chunk(rows: &[Row], group_by: &[Expr], aggs: &[AggCall]) -> Result<Groups> {
    let mut groups = Groups::default();
    let mut key: Vec<Value> = Vec::with_capacity(group_by.len());
    for r in rows {
        key.clear();
        for g in group_by {
            key.push(evaluate(g, r)?);
        }
        if let Some(accs) = groups.get_mut(key.as_slice()) {
            accumulate_row(accs, aggs, r)?;
        } else {
            let mut accs: Vec<Accumulator> = aggs.iter().map(|(f, _)| f.accumulator()).collect();
            accumulate_row(&mut accs, aggs, r)?;
            groups.insert(key.clone(), accs);
        }
    }
    Ok(groups)
}

/// Fused, late-materializing group-by: `GROUP BY c` directly over a
/// column-table scan, where every aggregate argument is a plain column.
///
/// Instead of materializing each hit row and hashing a `Vec<Value>`
/// key per row, the group key stays a packed dictionary vid all the way
/// through accumulation: main-fragment vids are bulk-decoded one
/// [`BLOCK_ROWS`] block at a time, accumulators live in dense
/// per-fragment tables indexed by vid, and group `Value`s are decoded
/// once per *distinct group* at finish (then main/delta groups merge by
/// value). Returns `Ok(None)` when the plan shape does not fit, and the
/// caller falls back to the generic row-at-a-time aggregation.
fn try_fused_group_by(
    run: &Run,
    out_schema: &Schema,
    input: &PlanNode,
    group_by: &[Expr],
    aggs: &[AggCall],
    span: &hana_obs::Span,
) -> Result<Option<ResultSet>> {
    let PlanOp::ColumnScan { table, .. } = &input.op else {
        return Ok(None);
    };
    let [group] = group_by else {
        return Ok(None);
    };
    let Ok(TableSource::Column(t)) = run.catalog.resolve_table(table) else {
        return Ok(None);
    };
    let t = t.read();
    // The leaf's schema is pruned to the columns the query names:
    // resolve against it, then map to the table's own positions.
    let projection = leaf_projection(&input.schema, t.schema())?;
    let table_col = |e: &Expr| -> Result<Option<usize>> {
        match e.resolve(&input.schema, run.values)? {
            Expr::Field(i) => Ok(Some(projection[i])),
            _ => Ok(None),
        }
    };
    let Some(group_col) = table_col(group)? else {
        return Ok(None);
    };
    let mut agg_cols: Vec<Option<usize>> = Vec::with_capacity(aggs.len());
    for (_, arg) in aggs {
        match arg {
            None => agg_cols.push(None), // COUNT(*)
            Some(e) => match table_col(e)? {
                Some(c) => agg_cols.push(Some(c)),
                None => return Ok(None),
            },
        }
    }
    span.attr("fused", 1);

    // The scan itself, reported under its usual operator span so
    // profiles keep the query -> group_by -> column_scan[t] shape.
    let scan_span = hana_obs::span(&span_name(&input.op));
    let hits = column_leaf_hits(run, &t, &input.op, &scan_span)?;
    scan_span.set_rows(hits.count() as u64);
    drop(scan_span);

    // Dense vid-indexed accumulator tables, one per fragment (slot 0 is
    // the NULL group).
    let main_rows = t.main_rows();
    let mcol = t.main_column(group_col);
    let codec = mcol.codec();
    let main_dict = mcol.dictionary();
    let dcol = t.delta_column(group_col);
    let delta_dict = dcol.dictionary();
    let delta_vids = dcol.vids();
    let mut main_groups: Vec<Option<Vec<Accumulator>>> = vec![None; main_dict.len() + 1];
    let mut delta_groups: Vec<Option<Vec<Accumulator>>> = vec![None; delta_dict.len() + 1];

    let mut block_buf = [0u32; BLOCK_ROWS];
    let mut cur_block = usize::MAX;
    for row in hits.iter() {
        let (fragment, vid) = if row < main_rows {
            let block = row / BLOCK_ROWS;
            if block != cur_block {
                codec.unpack_block(block, &mut block_buf);
                cur_block = block;
            }
            (&mut main_groups, block_buf[row % BLOCK_ROWS])
        } else {
            (&mut delta_groups, delta_vids[row - main_rows])
        };
        let accs = fragment[vid as usize]
            .get_or_insert_with(|| aggs.iter().map(|(f, _)| f.accumulator()).collect());
        for (acc, col) in accs.iter_mut().zip(&agg_cols) {
            match col {
                Some(c) => acc.add(&t.value(row, *c)),
                None => acc.add(&Value::Null), // COUNT(*)
            }
        }
    }

    // Materialize each distinct group once; main and delta fragments
    // dictionary-encode independently, so merge by decoded value.
    let mut groups = Groups::default();
    let main = main_groups.into_iter().enumerate();
    merge_groups(
        &mut groups,
        main.filter_map(|(vid, accs)| Some((vec![main_dict.decode(vid as u32)], accs?))),
    );
    let delta = delta_groups.into_iter().enumerate();
    merge_groups(
        &mut groups,
        delta.filter_map(|(vid, accs)| Some((vec![delta_dict.decode(vid as u32)], accs?))),
    );
    Ok(Some(finish_groups(groups, group_by, aggs, out_schema)))
}

/// Partition-wise partial aggregation over a distributed scan.
///
/// Each node aggregates its fragment locally; only the partial
/// accumulator states cross the links (under an
/// `exchange[partial_agg]` span and the `hana_dist_rows_shuffled_total`
/// counter, where "rows" are groups). The coordinator merges the
/// partials and finishes — byte-identical to gathering all rows first
/// because accumulator merge is the same algebra the parallel
/// aggregation path already relies on. Returns `Ok(None)` when the
/// input is not a distributed scan.
fn try_distributed_group_by(
    run: &Run,
    out_schema: &Schema,
    input: &PlanNode,
    group_by: &[Expr],
    aggs: &[AggCall],
    span: &hana_obs::Span,
) -> Result<Option<ResultSet>> {
    let PlanOp::DistScan { table, preds, .. } = &input.op else {
        return Ok(None);
    };
    let Ok(TableSource::Distributed(t)) = run.catalog.resolve_table(table) else {
        return Ok(None);
    };
    let (group_by, aggs) = resolve_aggregate(group_by, aggs, &input.schema, run.values)?;
    let cid = run.cid;
    span.attr("distributed", 1);
    let ctx = RemoteContext::snapshot(cid);
    let policy = RetryPolicy::default();

    // The scan itself, reported under its usual operator span so
    // profiles keep the query -> group_by -> dist_scan[t] shape.
    let scan_span = hana_obs::span(&span_name(&input.op));
    let (outcome, parts) = t.scan_partitions(&bind_predicates(preds, run.values)?, cid)?;
    scan_span.attr("partitions_scanned", outcome.scanned);
    scan_span.attr("partitions_pruned", outcome.pruned);
    scan_span.set_rows(parts.iter().map(|(_, r)| r.len() as u64).sum());
    drop(scan_span);

    let xspan = hana_obs::span("exchange[partial_agg]");
    xspan.attr("nodes", parts.len() as u64);
    let mut merged = Groups::default();
    let mut shipped_groups = 0u64;
    let mut shipped_bytes = 0u64;
    for (node, rows) in parts {
        let partial = aggregate_chunk(&rows, &group_by, &aggs)?;
        let items: Vec<(Vec<Value>, Vec<Accumulator>)> = partial.into_iter().collect();
        let (delivered, bytes) = hana_dist::transfer_accounted(
            t.link(node),
            &ctx,
            &policy,
            &format!("partial_agg[{}#p{node}]", t.name()),
            items,
            |(key, accs)| {
                key.iter().map(|v| v.storage_bytes() as u64).sum::<u64>() + 16 * accs.len() as u64
            },
        )?;
        shipped_groups += delivered.len() as u64;
        shipped_bytes += bytes;
        merge_groups(&mut merged, delivered);
    }
    xspan.set_rows(shipped_groups);
    xspan.set_bytes(shipped_bytes);
    drop(xspan);

    Ok(Some(finish_groups(merged, &group_by, &aggs, out_schema)))
}

/// Broadcast-build distributed hash join of `join`, whose probe side is
/// a partitioned scan and whose build side ran into `r`: replicate the
/// build rows to every surviving node of the probe side, join each
/// fragment locally, gather only the join results.
fn dist_broadcast_join(
    run: &Run,
    join: &PlanNode,
    r: &ResultSet,
    span: &hana_obs::Span,
) -> Result<ResultSet> {
    let PlanOp::HashJoin {
        left,
        left_key,
        right_key,
        kind,
        ..
    } = &join.op
    else {
        return Err(HanaError::Plan("a broadcast join is a hash join".into()));
    };
    let PlanOp::DistScan { table, preds, .. } = &left.op else {
        return Err(HanaError::Plan(
            "a broadcast join probes a dist_scan".into(),
        ));
    };
    let TableSource::Distributed(dt) = run.catalog.resolve_table(table)? else {
        return Err(HanaError::Plan(format!(
            "'{table}' is not a distributed table"
        )));
    };
    let cid = run.cid;
    let ctx = RemoteContext::snapshot(cid);
    let policy = RetryPolicy::default();
    let (outcome, parts) = dt.scan_partitions(&bind_predicates(preds, run.values)?, cid)?;
    span.attr("partitions_scanned", outcome.scanned);
    span.attr("partitions_pruned", outcome.pruned);
    let targets: Vec<usize> = parts.iter().map(|(n, _)| *n).collect();
    let copies = hana_dist::broadcast(&dt, &ctx, &policy, &r.rows, &targets)?;
    let mut joined_parts = Vec::with_capacity(parts.len());
    for ((node, rows), (_, build)) in parts.into_iter().zip(copies) {
        let l = ResultSet::new(left.schema.clone(), rows);
        let b = ResultSet::new(r.schema.clone(), build);
        // Each fragment-local join reports its own build and probe rows.
        let local = hana_obs::span(&format!("hash_join[{}#p{node}]", dt.name()));
        let out = hash_join(l, b, left_key, right_key, *kind, &join.schema, &local)?;
        local.set_rows(out.rows.len() as u64);
        joined_parts.push((node, out.rows));
    }
    let rows = hana_dist::gather(&dt, &ctx, &policy, joined_parts)?;
    Ok(ResultSet::new(join.schema.clone(), rows))
}

/// Build a column expression from a possibly qualified key name.
fn col_expr(key: &str) -> Expr {
    match key.split_once('.') {
        Some((q, n)) => Expr::Column {
            qualifier: Some(q.to_string()),
            name: n.to_string(),
        },
        None => Expr::col(key),
    }
}

fn resolve_key(schema: &Schema, key: &str) -> Result<usize> {
    let (q, n) = match key.split_once('.') {
        Some((q, n)) => (Some(q), n),
        None => (None, key),
    };
    resolve_column(schema, q, n)
}

/// Equi-join `l` and `r` into `left ++ right` rows.
///
/// The hash table goes over whichever input actually has fewer rows
/// (a `LeftOuter` join always builds right, so unmatched left rows fall
/// out of the probe). It is one `key -> first build row` map plus a
/// `next` chain threaded in build-row order, so there is no per-key
/// allocation, and output order is a function of the two inputs alone:
/// probe order, then build order. The probe side is consumed — a probe
/// row moves into its last match, only earlier matches clone it.
/// The span reports `build_rows`, `probe_rows` and `build_side`
/// ([`BUILD_LEFT`] / [`BUILD_RIGHT`]).
fn hash_join(
    l: ResultSet,
    r: ResultSet,
    left_key: &str,
    right_key: &str,
    kind: JoinKind,
    out_schema: &Schema,
    span: &hana_obs::Span,
) -> Result<ResultSet> {
    let li = resolve_key(&l.schema, left_key)?;
    let ri = resolve_key(&r.schema, right_key)?;
    let build_left = kind == JoinKind::Inner && l.rows.len() < r.rows.len();
    let (build, bi, probe, pi) = if build_left {
        (l.rows, li, r.rows, ri)
    } else {
        (r.rows, ri, l.rows, li)
    };
    span.attr("build_rows", build.len() as u64);
    span.attr("probe_rows", probe.len() as u64);
    span.attr(
        "build_side",
        if build_left { BUILD_LEFT } else { BUILD_RIGHT },
    );

    const END: usize = usize::MAX;
    let mut heads: FxHashMap<&Value, usize> =
        FxHashMap::with_capacity_and_hasher(build.len(), FxBuildHasher::default());
    let mut next = vec![END; build.len()];
    for (i, row) in build.iter().enumerate().rev() {
        if !row[bi].is_null() {
            next[i] = heads.insert(&row[bi], i).unwrap_or(END);
        }
    }
    let width = out_schema.len();
    let emit = |mut p: Vec<Value>, b: &Row| {
        if build_left {
            let mut vals = Vec::with_capacity(width);
            vals.extend_from_slice(b.values());
            vals.append(&mut p);
            Row(vals)
        } else {
            p.reserve_exact(b.len());
            p.extend_from_slice(b.values());
            Row(p)
        }
    };
    let mut rows = Vec::with_capacity(probe.len());
    for Row(mut p) in probe {
        let mut m = heads.get(&p[pi]).copied().unwrap_or(END);
        if m == END {
            if kind == JoinKind::LeftOuter {
                p.resize(width, Value::Null);
                rows.push(Row(p));
            }
            continue;
        }
        // Every match but the last clones the probe row; the last takes it.
        while next[m] != END {
            rows.push(emit(p.clone(), &build[m]));
            m = next[m];
        }
        rows.push(emit(p, &build[m]));
    }
    Ok(ResultSet::new(out_schema.clone(), rows))
}
