//! Locating rows for UPDATE/DELETE with the SELECT access path.

use hana_exec::ExecContext;
use hana_sql::batch::{select, Batch};
use hana_sql::{Expr, Query, TableRef};
use hana_types::{HanaError, Result, Row};

use crate::catalog::{Catalog, TableSource};
use crate::executor::{column_leaf_hits, row_leaf_hits, span_name, Run};
use crate::plan::{bind_predicates, PlanOp};

/// The rows of one local fragment a filter selects.
pub struct Located {
    /// The fragment the rows live in: the node of a distributed table,
    /// `0` for every single-fragment table (hybrid: the hot partition).
    pub fragment: usize,
    /// Fragment-local row ids (row tables: slots).
    pub ids: Vec<usize>,
    /// The rows, in `ids` order.
    pub rows: Vec<Row>,
}

/// The locally stored rows `SELECT * FROM table WHERE filter` returns
/// under snapshot `cid`, with the ids they are stored under.
///
/// The query is planned like any other, so the leaf is the access path
/// SELECT would use — pushed-down predicates through the scan kernels,
/// an index seek when the planner finds one, partition pruning on a
/// distributed table — and reports under the same operator span
/// (`index_seek[t.ix]`, `dist_scan[t]`, …) plus a `candidate_rows`
/// attribute: the rows the leaf handed back, which are the only rows
/// the filter's non-lowerable conjuncts are evaluated on. Tables
/// without locally stored rows (extended, virtual) are a plan error;
/// the cold partition of a hybrid table is not located.
pub fn locate_rows(
    exec: &ExecContext,
    catalog: &dyn Catalog,
    table: &str,
    filter: Option<&Expr>,
    cid: u64,
) -> Result<Vec<Located>> {
    let query = Query {
        from: Some(TableRef::Named {
            name: table.to_string(),
            alias: None,
        }),
        filter: filter.cloned(),
        ..Query::default()
    };
    // The statement is planned as written: no slots, no values.
    let plan = crate::PlannerContext::new(catalog).planner().plan(&query)?;
    let run = Run {
        exec,
        catalog,
        cid,
        values: &[],
    };
    // Finish → Filter* → leaf.
    let mut node = match &plan.op {
        PlanOp::Finish { input, .. } => input.as_ref(),
        _ => &plan,
    };
    // The residual predicates, resolved over the leaf's (whole) rows.
    let mut residual = Vec::new();
    while let PlanOp::Filter { input, pred } = &node.op {
        residual.push(pred);
        node = input;
    }
    let span = hana_obs::span(&span_name(&node.op));
    let mut located = match (&node.op, catalog.resolve_table(table)?) {
        (PlanOp::ColumnScan { .. } | PlanOp::IndexSeek { .. }, TableSource::Column(t))
        | (PlanOp::HybridScan { .. }, TableSource::Hybrid { hot: t, .. }) => {
            let t = t.read();
            let ids: Vec<usize> = (column_leaf_hits(&run, &t, &node.op, &span)?.into_iter())
                .map(|r| r as usize)
                .collect();
            vec![Located {
                fragment: 0,
                rows: t.collect_rows(ids.iter().copied(), &[]),
                ids,
            }]
        }
        (PlanOp::RowScan { preds, .. }, TableSource::Row(t)) => {
            let (ids, rows) = row_leaf_hits(&t.read(), preds, &[], cid)?;
            vec![Located {
                fragment: 0,
                ids,
                rows,
            }]
        }
        (PlanOp::DistScan { preds, .. }, TableSource::Distributed(t)) => {
            let (outcome, hits) = t.locate_partitions(&bind_predicates(preds, &[])?, cid)?;
            span.attr("partitions_scanned", outcome.scanned);
            span.attr("partitions_pruned", outcome.pruned);
            hits.into_iter()
                .map(|h| Located {
                    fragment: h.node,
                    ids: h.ids,
                    rows: h.rows,
                })
                .collect()
        }
        _ => {
            return Err(HanaError::Plan(format!(
                "'{table}' has no locally stored rows to locate"
            )))
        }
    };
    let candidates: usize = located.iter().map(|l| l.ids.len()).sum();
    span.attr("candidate_rows", candidates as u64);
    if !residual.is_empty() {
        for l in &mut located {
            // The candidates as one batch, narrowed conjunct by conjunct.
            let mut b = Batch::from_rows(std::mem::take(&mut l.rows), node.schema.len());
            for pred in &residual {
                b.sel = select(pred, &b, &b.sel, &[])?;
            }
            l.ids = b.sel.iter().map(|&j| l.ids[j as usize]).collect();
            b.push_rows(&mut l.rows);
        }
    }
    span.set_rows(located.iter().map(|l| l.ids.len() as u64).sum());
    Ok(located)
}
