//! The plan executor.
//!
//! Operators hand each other [`Batches`]; rows are built once, by
//! `Finish` or at the result boundary of a plan without one.

use hana_columnar::{ColumnPredicate, ColumnTable, RowIdBitmap};
use hana_exec::ExecContext;
use hana_rowstore::RowTable;
use hana_sda::{RemoteContext, RetryPolicy};
use hana_sql::finish::finish_shape;
use hana_sql::{Expr, JoinKind, Query, TableRef};
use hana_types::{HanaError, Result, ResultSet, Row, Schema, Value};

use crate::aggregate::{group_batch, AggCall, Groups};
use crate::batch::{Batch, Batches, Column};
use crate::catalog::{Catalog, TableSource};
use crate::eval::{eval_batch, select};
use crate::join::{hash_join, resolve_key, EquiJoin};
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
/// tracer the spans are inert and cost neither their name nor their
/// byte count.
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
    let PlanOp::Finish { input, query } = &plan.op else {
        return Ok(run_node(&run, plan)?.into_result_set());
    };
    // The epilogue runs over rows: they are built here, once.
    let span = hana_obs::span("finish");
    let inp = run_node(&run, input)?.into_result_set();
    let (rows, schema) = finish_shape(inp.rows, &inp.schema, query, values)?;
    let rs = ResultSet::new(schema, rows);
    span.set_rows(rs.rows.len() as u64);
    span.set_bytes_with(|| rs.approx_bytes());
    Ok(rs)
}

fn run_node(run: &Run, plan: &PlanNode) -> Result<Batches> {
    let span = hana_obs::span_with(|| span_name(&plan.op));
    let out = run_operator(run, plan, &span)?;
    span.set_rows(out.rows() as u64);
    span.set_bytes_with(|| out.approx_bytes());
    Ok(out)
}

/// `rows` under the plan's schema when the arity matches (names may
/// differ between engines), under their own otherwise.
fn aligned(plan: &PlanNode, rs: ResultSet) -> Batches {
    match rs.schema.len() == plan.schema.len() {
        true => Batches::from_rows(plan.schema.clone(), rs.rows),
        false => Batches::from_rows(rs.schema, rs.rows),
    }
}

fn run_operator(run: &Run, plan: &PlanNode, span: &hana_obs::Span) -> Result<Batches> {
    let &Run {
        exec,
        catalog,
        cid,
        values,
    } = run;
    let batches = |batches| Batches {
        schema: plan.schema.clone(),
        batches,
    };
    match &plan.op {
        PlanOp::ColumnScan { table, .. } | PlanOp::IndexSeek { table, .. } => {
            let TableSource::Column(t) = catalog.resolve_table(table)? else {
                return Err(HanaError::Plan(format!("'{table}' is not a column table")));
            };
            let t = t.read();
            let projection = leaf_projection(&plan.schema, t.schema())?;
            span.attr("columns", projection.len() as u64);
            span.attr("table_columns", t.schema().len() as u64);
            Ok(batches(column_leaf(run, &t, &plan.op, &projection, span)?))
        }
        PlanOp::RowScan { table, preds, .. } => {
            let TableSource::Row(t) = catalog.resolve_table(table)? else {
                return Err(HanaError::Plan(format!("'{table}' is not a row table")));
            };
            let (_, rows) = row_leaf_hits(&t.read(), &bind_predicates(preds, values)?, cid)?;
            Ok(Batches::from_rows(plan.schema.clone(), rows))
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
            Ok(Batches::from_rows(plan.schema.clone(), rows))
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
            let every: Vec<usize> = (0..hot.schema().len()).collect();
            let mut parts = column_leaf(run, &hot, &plan.op, &every, span)?;
            // Cold partition: pushdown scan at the extended store.
            let iq = catalog.iq_engine(&source)?;
            let named = bind_predicates(preds, values)?;
            let cold = iq.scan(&cold_table, &named, None, cid)?;
            parts.push(Batch::from_rows(cold.rows, every.len()));
            Ok(batches(parts))
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
            Ok(aligned(plan, rs))
        }
        PlanOp::FunctionScan { function, args, .. } => {
            let f = catalog.resolve_function(function)?;
            // Arguments are literals: computed over one row of nothing.
            let one = Batch::new(Vec::new(), 1);
            let arg = |a: &Expr| {
                Ok(
                    eval_batch(&a.resolve(&Schema::default(), values)?, &one, &[0])?
                        .get(0)
                        .into_owned(),
                )
            };
            let arg_vals: Vec<Value> = args.iter().map(arg).collect::<Result<_>>()?;
            Ok(aligned(plan, f.invoke(&arg_vals)?))
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
                return dist_broadcast_join(run, plan, r, span);
            }
            let l = run_node(run, left)?;
            let r = run_node(run, right)?;
            let on = EquiJoin {
                left_key,
                right_key,
                kind: *kind,
            };
            hash_join(exec, l, r, on, &plan.schema, span)
        }
        PlanOp::NestedLoopJoin { left, right, on } => {
            let on = on.resolve(&plan.schema, values)?;
            let l = run_node(run, left)?;
            let r = run_node(run, right)?.concat();
            // Left rows in chunks whose pairs with every right row fill
            // about one morsel; pairs in left-then-right order.
            let chunk = (exec.config().morsel_rows / r.len.max(1)).max(1);
            let mut out = Vec::new();
            for b in l.batches {
                for rows in b.sel.chunks(chunk) {
                    let li = rows.iter().flat_map(|&i| std::iter::repeat_n(i, r.len));
                    let li: Vec<u32> = li.collect();
                    let ri: Vec<u32> = rows.iter().flat_map(|_| 0..r.len as u32).collect();
                    let columns = b.gather(&li).chain(r.gather(&ri)).collect();
                    let mut pairs = Batch::new(columns, li.len());
                    pairs.sel = select(&on, &pairs, &pairs.sel)?;
                    out.push(pairs);
                }
            }
            Ok(batches(out))
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
            let mut keys: Vec<Value> = Vec::new();
            for b in &l.batches {
                let col = b.column(ki, &b.sel);
                keys.extend(
                    (0..col.len())
                        .map(|j| col.get(j))
                        .filter(|v| !v.is_null())
                        .map(|v| v.into_owned()),
                );
            }
            keys.sort();
            keys.dedup();
            if keys.is_empty() {
                return Ok(batches(Vec::new()));
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
            let on = EquiJoin {
                left_key: local_key,
                right_key: remote_key,
                kind: JoinKind::Inner,
            };
            let reduced = Batches::from_rows(reduced.schema, reduced.rows);
            hash_join(exec, l, reduced, on, &plan.schema, span)
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
            let filter = bound_exprs(remote_preds, values)?
                .into_iter()
                .reduce(|a, b| a.and(b));
            let rctx = RemoteContext::snapshot(cid);
            let adapter = catalog.sda().source(source)?.adapter;
            let rows = l.into_result_set().rows;
            let temp = adapter.create_temp_table(ship_schema, &rows, &rctx)?;
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
                        left: Box::new(Expr::col(unqualified(local_key))),
                        op: hana_sql::BinOp::Eq,
                        right: Box::new(col_expr(remote_key)),
                    },
                }],
                filter,
                ..Query::default()
            };
            // The temp table goes whether or not the remote join worked.
            let joined = catalog.sda().execute_remote(source, &sub, &rctx);
            let _ = adapter.drop_remote_table(&temp);
            let (rs, _) = joined?;
            // Positional alignment: temp columns then remote columns.
            if rs.schema.len() == plan.schema.len() {
                Ok(Batches::from_rows(plan.schema.clone(), rs.rows))
            } else {
                Err(HanaError::Plan(format!(
                    "relocated join returned {} columns, expected {}",
                    rs.schema.len(),
                    plan.schema.len()
                )))
            }
        }
        PlanOp::Filter { input, pred } => {
            let mut inp = run_node(run, input)?;
            let pred = pred.resolve(&inp.schema, values)?;
            for b in &mut inp.batches {
                b.sel = select(&pred, b, &b.sel)?;
            }
            Ok(batches(inp.batches))
        }
        PlanOp::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let groups = match &input.op {
                PlanOp::DistScan { .. } => dist_group_by(run, input, group_by, aggs, span)?,
                _ => {
                    let inp = run_node(run, input)?;
                    let (keys, aggs) = resolve_aggregate(group_by, aggs, &inp.schema, values)?;
                    // One partial group table per batch (morsel, main or
                    // delta), merged by key.
                    span.set_workers(exec.config().workers as u64);
                    span.attr("partials", inp.batches.len() as u64);
                    let parts = exec.scatter(inp.batches.iter().collect(), |b| {
                        group_batch(b, &keys, &aggs)
                    });
                    let parts = parts.into_iter().collect::<Result<Vec<_>>>()?;
                    let vid_keys = parts.iter().map(|(_, v)| *v).min().unwrap_or(0);
                    span.attr("vid_keys", vid_keys as u64);
                    Groups::merge(&aggs, parts.into_iter().map(|(g, _)| g).collect())
                }
            };
            Ok(batches(vec![groups.finish(group_by.len(), aggs)]))
        }
        PlanOp::Finish { .. } => Err(HanaError::Plan(
            "Finish is the root of a plan, never an operator's input".into(),
        )),
    }
}

/// A column-table leaf's rows in play, one batch per morsel of hits
/// and fragment: the hits of [`column_leaf_hits`] with the
/// `projection` columns read as vids, main rows block by block, delta
/// rows decoded.
fn column_leaf(
    run: &Run,
    t: &ColumnTable,
    op: &PlanOp,
    projection: &[usize],
    span: &hana_obs::Span,
) -> Result<Vec<Batch>> {
    let hits: Vec<u32> = column_leaf_hits(run, t, op, span)?
        .iter()
        .map(|r| r as u32)
        .collect();
    let main_rows = t.main_rows() as u32;
    let (main, delta) = hits.split_at(hits.partition_point(|&r| r < main_rows));
    let morsel = run.exec.config().morsel_rows.max(1);
    let pieces: Vec<&[u32]> = main.chunks(morsel).chain(delta.chunks(morsel)).collect();
    let batch = |rows: &[u32]| {
        let columns = match rows[0] < main_rows {
            true => (projection.iter())
                .map(|&c| Column::main(t.main_column(c), rows))
                .collect(),
            false => {
                let local: Vec<u32> = rows.iter().map(|&r| r - main_rows).collect();
                (projection.iter())
                    .map(|&c| Column::delta(t.delta_column(c), &local))
                    .collect()
            }
        };
        Batch::new(columns, rows.len())
    };
    // A point read is one piece: nothing to fork.
    Ok(match pieces.len() {
        0 | 1 => pieces.into_iter().map(batch).collect(),
        _ => run.exec.scatter(pieces, batch),
    })
}

/// Aggregate over a distributed scan: each node groups its fragment
/// with the same operator and only the accumulator states cross the
/// links (under an `exchange[partial_agg]` span and the
/// `hana_dist_rows_shuffled_total` counter, where "rows" are groups);
/// the coordinator merges them — the algebra every group-by's partials
/// already rely on.
fn dist_group_by(
    run: &Run,
    input: &PlanNode,
    group_by: &[Expr],
    aggs: &[AggCall],
    span: &hana_obs::Span,
) -> Result<Groups> {
    let PlanOp::DistScan { table, preds, .. } = &input.op else {
        return Err(HanaError::Plan(
            "a distributed group-by reads a dist_scan".into(),
        ));
    };
    let TableSource::Distributed(t) = run.catalog.resolve_table(table)? else {
        return Err(HanaError::Plan(format!(
            "'{table}' is not a distributed table"
        )));
    };
    let (keys, aggs) = resolve_aggregate(group_by, aggs, &input.schema, run.values)?;
    let cid = run.cid;
    span.attr("distributed", 1);
    let ctx = RemoteContext::snapshot(cid);
    let policy = RetryPolicy::default();

    // The scan itself, reported under its usual operator span so
    // profiles keep the query -> group_by -> dist_scan[t] shape.
    let scan_span = hana_obs::span_with(|| span_name(&input.op));
    let (outcome, parts) = t.scan_partitions(&bind_predicates(preds, run.values)?, cid)?;
    scan_span.attr("partitions_scanned", outcome.scanned);
    scan_span.attr("partitions_pruned", outcome.pruned);
    scan_span.set_rows(parts.iter().map(|(_, r)| r.len() as u64).sum());
    drop(scan_span);

    let xspan = hana_obs::span("exchange[partial_agg]");
    xspan.attr("nodes", parts.len() as u64);
    let mut shipped = Vec::with_capacity(parts.len());
    let mut shipped_bytes = 0u64;
    for (node, rows) in parts {
        let (partial, _) = group_batch(&Batch::from_rows(rows, input.schema.len()), &keys, &aggs)?;
        let (delivered, bytes) = hana_dist::transfer_accounted(
            t.link(node),
            &ctx,
            &policy,
            &format!("partial_agg[{}#p{node}]", t.name()),
            partial.into_items(),
            |(key, accs)| {
                key.iter().map(|v| v.storage_bytes() as u64).sum::<u64>() + 16 * accs.len() as u64
            },
        )?;
        shipped_bytes += bytes;
        shipped.push(Groups::from_items(&aggs, delivered));
    }
    xspan.set_rows(shipped.iter().map(|g| g.len() as u64).sum());
    xspan.set_bytes(shipped_bytes);
    Ok(Groups::merge(&aggs, shipped))
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
/// before any value is read: the pushed-down predicates of a
/// `ColumnScan` (or the hot side of a `HybridScan`) through the table's
/// morsel scan (`ColumnTable::scan_all`), or an `IndexSeek`'s ordered
/// seek. SELECT reads these hits as batches, and UPDATE/DELETE take
/// them as their victims ([`crate::locate_rows`]).
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
            if span.is_recording() {
                span.attr("seek_hits", hits.count() as u64);
            }
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

/// Broadcast-build distributed hash join of `join`, whose probe side is
/// a partitioned scan and whose build side ran into `r`: replicate the
/// build rows to every surviving node of the probe side, join each
/// fragment locally, gather only the join results.
fn dist_broadcast_join(
    run: &Run,
    join: &PlanNode,
    r: Batches,
    span: &hana_obs::Span,
) -> Result<Batches> {
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
    let build_schema = r.schema.clone();
    let copies = hana_dist::broadcast(&dt, &ctx, &policy, &r.into_result_set().rows, &targets)?;
    let mut joined_parts = Vec::with_capacity(parts.len());
    for ((node, rows), (_, build)) in parts.into_iter().zip(copies) {
        let l = Batches::from_rows(left.schema.clone(), rows);
        let b = Batches::from_rows(build_schema.clone(), build);
        // Each fragment-local join reports its own build and probe rows.
        let local = hana_obs::span_with(|| format!("hash_join[{}#p{node}]", dt.name()));
        let on = EquiJoin {
            left_key,
            right_key,
            kind: *kind,
        };
        let out = hash_join(run.exec, l, b, on, &join.schema, &local)?;
        local.set_rows(out.rows() as u64);
        joined_parts.push((node, out.into_result_set().rows));
    }
    let rows = hana_dist::gather(&dt, &ctx, &policy, joined_parts)?;
    Ok(Batches::from_rows(join.schema.clone(), rows))
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
