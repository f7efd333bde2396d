//! The federated, cost-based planner.
//!
//! Implements the placement logic of §3.1 and §4.2:
//!
//! 1. **Whole-query shipping** — if every source lives at one remote
//!    source whose capabilities cover the query shape, the entire query
//!    is pushed below the distributed exchange operator (the Figure 12
//!    plan), letting the remote cache of §4.4 apply.
//! 2. **Remote-prefix shipping** — otherwise, the maximal prefix of the
//!    left-deep join chain that lives at one source is shipped as a
//!    sub-query ("parts of a query may even be shipped to Hive"); its
//!    result joins with local tables in HANA (the Figure 13 situation
//!    for queries mixing federated and local tables).
//! 3. **Strategy selection** — each remaining remote table entering a
//!    join is accessed via the cheapest of *remote scan*, *semijoin* and
//!    *table relocation* (§3.1, Figure 7); hybrid tables always use the
//!    *union plan* at scan level.
//!
//! Planning is a pure function of the catalog and its synopses: scans
//! are priced as live row count × per-column selectivity (from the
//! [`StatsProvider`](crate::StatsProvider)'s synopsis where one covers
//! the column, the predicate's default selectivity where none does),
//! equi-joins from key distinct-counts (containment assumption), and
//! distributed joins pick broadcast-vs-repartition from those estimates
//! at plan time. Table data is never read, and no setting outside the
//! [`PlannerContext`] is consulted. Every estimate carries an
//! [`EstSource`] marker: `stats` when a synopsis backed it,
//! `heuristic` when only row counts and default selectivities did.
//!
//! What is planned is a statement *shape* and the values it runs with
//! ([`Planner::plan_with`]): wherever a decision reads a predicate
//! operand it reads the value behind it — a literal of the statement or
//! the slot's entry in the value vector — so a shape plans exactly as
//! the statement written with those literals would. The plan it emits
//! keeps the slots ([`Operand`]), is correct for every value vector of
//! the shape, and [`Planner::drift`] says when one is far enough from
//! the one it was priced for to deserve its own.
//!
//! The plan is also where names are resolved, once: every expression,
//! join key and leaf projection it emits reads positions in the rows of
//! its input, so a run of a cached plan looks no name up (see
//! [`PlanNode`]).

use hana_columnar::{ColumnPredicate, ColumnTable, TableStatistics};
use hana_sql::finish::{
    aggregate_output_schema, collect_aggregates, infer_type, output_names, Epilogue,
};
use hana_sql::{equi_keys, EquiKey, Expr, JoinKind, Query, SelectItem, TableRef};
use hana_types::{ColumnDef, HanaError, Result, Schema, Value};

use crate::catalog::TableSource;
use crate::context::PlannerContext;
use crate::cost::{CostModel, JoinSituation};
use crate::estimator;
use crate::plan::{
    bind_predicates, DistJoinStrategy, EstSource, FederationStrategy, Operand, PlanNode, PlanOp,
    PlanPredicate,
};

/// The planner.
pub struct Planner<'a> {
    ctx: PlannerContext<'a>,
    /// The values the statement being planned runs with.
    values: &'a [Value],
}

/// One resolved FROM/JOIN binding.
struct Binding {
    name: String,
    table: String,
    source: BindingKind,
    /// Schema qualified with the binding name.
    schema: Schema,
    /// The position in the source's columns of each `schema` column.
    projection: Vec<usize>,
    /// Conjuncts assigned to this binding.
    preds: Vec<Expr>,
    /// The conjuncts that lower to column predicates, as the plan keeps
    /// them...
    lowered: Vec<PlanPredicate>,
    /// ...and with their slots read: what estimates are made from.
    bound: Vec<(String, ColumnPredicate)>,
}

enum BindingKind {
    Table(TableSource),
    Function { function: String, args: Vec<Expr> },
}

/// An equi-join of the plan so far with one more binding: the key
/// positions, and each key's distinct count where a synopsis knows it.
struct JoinStep {
    left_key: usize,
    right_key: usize,
    kind: JoinKind,
    left_ndv: Option<f64>,
    right_ndv: Option<f64>,
}

impl<'a> Planner<'a> {
    /// Build the planner from a fully assembled context.
    pub fn with_context(ctx: PlannerContext<'a>) -> Planner<'a> {
        Planner { ctx, values: &[] }
    }

    /// Compile a query into a physical plan.
    pub fn plan(&self, q: &Query) -> Result<PlanNode> {
        self.plan_with(q, &[])
    }

    /// Compile a query shape into a physical plan, priced for `values`
    /// and correct for every value vector of the shape.
    pub fn plan_with<'b>(&'b self, q: &Query, values: &'b [Value]) -> Result<PlanNode> {
        hana_sql::probe::note(hana_sql::probe::Work::Plan);
        let run = Planner {
            ctx: self.ctx,
            values,
        };
        run.plan_shape(q)
    }

    fn plan_shape(&self, q: &Query) -> Result<PlanNode> {
        let mut bindings = self.resolve_bindings(q)?;
        prune_unreferenced(q, &mut bindings);

        // Partition WHERE conjuncts: per-binding vs residual.
        let mut residual: Vec<Expr> = Vec::new();
        if let Some(f) = &q.filter {
            for c in f.conjuncts() {
                match self.owning_binding(&bindings, c) {
                    Some(i) => bindings[i].preds.push(c.clone()),
                    None => residual.push(c.clone()),
                }
            }
        }
        for b in &mut bindings {
            b.lowered = b.preds.iter().filter_map(crate::pushdown_expr).collect();
            b.bound = bind_predicates(&b.lowered, self.values)?;
        }

        // 1. Whole-query shipping.
        if let Some(node) = self.try_whole_ship(q, &bindings)? {
            return Ok(node);
        }

        // 2. Left-deep chain with remote-prefix shipping; purely local
        //    multi-joins with full statistics coverage instead go
        //    through the greedy cost-based join ordering.
        let prefix_len = self.remote_prefix_len(q, &bindings);
        let greedy = if prefix_len < 2 {
            self.try_greedy_fold(q, &bindings, &mut residual)?
        } else {
            None
        };
        let mut acc = match greedy {
            Some(node) => node,
            None => {
                let mut acc = if prefix_len >= 2 {
                    self.ship_prefix(q, &bindings, prefix_len)?
                } else {
                    self.leaf(&bindings[0], &q.hints)?
                };
                let consumed = if prefix_len >= 2 { prefix_len } else { 1 };

                // 3. Fold remaining joins in syntactic order.
                for (idx, join) in q.joins.iter().enumerate().skip(consumed.saturating_sub(1)) {
                    let b = &bindings[idx + 1];
                    let keys = equi_keys(&join.on, &acc.schema, &b.schema);
                    match (&b.source, keys) {
                        // Remote single table with an equi join:
                        // strategy choice.
                        (BindingKind::Table(ts), Some((lk, rk)))
                            if ts.remote_source().is_some()
                                && !matches!(ts, TableSource::Hybrid { .. })
                                && join.kind == JoinKind::Inner =>
                        {
                            let on = self.equi_join(&bindings, lk, rk, join.kind);
                            acc = self.plan_remote_join(acc, b, ts, on, &q.hints)?;
                        }
                        (_, Some((lk, rk))) => {
                            let on = self.equi_join(&bindings, lk, rk, join.kind);
                            let right = self.leaf(b, &q.hints)?;
                            acc = self.join_node(acc, right, on)?;
                        }
                        (_, None) => {
                            let right = self.leaf(b, &q.hints)?;
                            acc = nested_loop_node(acc, right, &join.on)?;
                        }
                    }
                }
                acc
            }
        };

        // 4. Residual filter.
        for pred in residual {
            let est = acc.est_rows * 0.5;
            let schema = acc.schema.clone();
            let est_source = acc.est_source;
            acc = PlanNode {
                op: PlanOp::Filter {
                    pred: pred.positional(&acc.schema)?,
                    input: Box::new(acc),
                },
                schema,
                est_rows: est.max(1.0),
                est_source,
            };
        }

        // 5. Aggregation.
        let aggs = collect_aggregates(q);
        if !q.group_by.is_empty() || !aggs.is_empty() {
            let schema = aggregate_output_schema(q, &acc.schema)?;
            let est = if q.group_by.is_empty() {
                1.0
            } else {
                (acc.est_rows / 10.0).max(1.0)
            };
            let est_source = acc.est_source;
            let at = |e: &Expr| e.positional(&acc.schema);
            let group_by = q.group_by.iter().map(at).collect::<Result<_>>()?;
            let arg = |(f, a): &(_, Option<Expr>)| Ok((*f, a.as_ref().map(at).transpose()?));
            let aggs = aggs.iter().map(arg).collect::<Result<_>>()?;
            acc = PlanNode {
                op: PlanOp::Aggregate {
                    input: Box::new(acc),
                    group_by,
                    aggs,
                },
                schema,
                est_rows: est,
                est_source,
            };
        }

        // 6. Epilogue.
        let est = q.limit.map(|n| n as f64).unwrap_or(acc.est_rows);
        let epilogue = Epilogue::new(&acc.schema, q, self.values)?;
        let schema = epilogue.schema().clone();
        let est_source = acc.est_source;
        Ok(PlanNode {
            op: PlanOp::Finish {
                input: Box::new(acc),
                epilogue,
            },
            schema,
            est_rows: est,
            est_source,
        })
    }

    // ---- greedy join ordering ----

    /// Statistics-driven greedy join ordering for purely local inner
    /// multi-joins (3+ tables). Starts from the smallest estimated
    /// binding and repeatedly joins the candidate with the cheapest
    /// estimated output, using key distinct-counts under the containment
    /// assumption. Join conditions left over after all bindings are
    /// placed (cycle edges) become residual filters.
    ///
    /// Returns `None` — leaving the syntactic left-deep order intact —
    /// unless every binding is a local table with a persisted synopsis;
    /// without full coverage a partial reorder would mix stats-backed
    /// and guessed cardinalities and could easily be worse than the
    /// user's written order.
    fn try_greedy_fold(
        &self,
        q: &Query,
        bindings: &[Binding],
        residual: &mut Vec<Expr>,
    ) -> Result<Option<PlanNode>> {
        // `SELECT *` exposes the join column order directly: do not
        // reorder.
        if bindings.len() < 3
            || selects_star(q)
            || q.joins.iter().any(|j| j.kind != JoinKind::Inner)
        {
            return Ok(None);
        }
        for b in bindings {
            match &b.source {
                BindingKind::Table(ts) if ts.remote_source().is_none() => {}
                _ => return Ok(None),
            }
        }
        let ests: Vec<(f64, EstSource)> =
            bindings.iter().map(|b| self.binding_estimate(b)).collect();
        if ests.iter().any(|(_, s)| *s != EstSource::Stats) {
            return Ok(None);
        }

        let start = (0..bindings.len())
            .min_by(|&a, &b| ests[a].0.total_cmp(&ests[b].0))
            .expect("at least three bindings");
        let mut acc = self.leaf(&bindings[start], &q.hints)?;
        let mut used_bindings = vec![false; bindings.len()];
        used_bindings[start] = true;
        let mut used_joins = vec![false; q.joins.len()];
        for _ in 1..bindings.len() {
            // Cheapest (join condition, unplaced binding) pair whose
            // equi keys straddle the accumulated side and the candidate.
            let mut best: Option<(usize, usize, EquiKey, EquiKey, f64)> = None;
            for (ji, j) in q.joins.iter().enumerate() {
                if used_joins[ji] {
                    continue;
                }
                for (bi, b) in bindings.iter().enumerate() {
                    if used_bindings[bi] {
                        continue;
                    }
                    let Some((lk, rk)) = equi_keys(&j.on, &acc.schema, &b.schema) else {
                        continue;
                    };
                    let lndv = self.key_ndv_of(bindings, lk);
                    let rndv = self.key_ndv_of(bindings, rk);
                    let est = estimator::join_out(acc.est_rows, ests[bi].0, lndv, rndv);
                    if best.as_ref().is_none_or(|(.., e)| est < *e) {
                        best = Some((ji, bi, lk, rk, est));
                    }
                }
            }
            // No joinable candidate (cross product or non-equi join in
            // the middle): fall back to the syntactic order.
            let Some((ji, bi, lk, rk, _)) = best else {
                return Ok(None);
            };
            used_joins[ji] = true;
            used_bindings[bi] = true;
            let on = self.equi_join(bindings, lk, rk, JoinKind::Inner);
            let right = self.leaf(&bindings[bi], &q.hints)?;
            acc = self.join_node(acc, right, on)?;
        }
        for (ji, j) in q.joins.iter().enumerate() {
            if !used_joins[ji] {
                residual.push(j.on.clone());
            }
        }
        Ok(Some(acc))
    }

    // ---- binding resolution ----

    fn resolve_bindings(&self, q: &Query) -> Result<Vec<Binding>> {
        let from = q
            .from
            .as_ref()
            .ok_or_else(|| HanaError::Plan("query without FROM clause".into()))?;
        let mut bindings = vec![self.resolve_ref(from)?];
        for j in &q.joins {
            bindings.push(self.resolve_ref(&j.table)?);
        }
        Ok(bindings)
    }

    fn resolve_ref(&self, t: &TableRef) -> Result<Binding> {
        match t {
            TableRef::Named { name, alias } => {
                let source = self.ctx.catalog.resolve_table(name)?;
                let binding = alias.clone().unwrap_or_else(|| name.clone());
                let schema = source.schema().qualified(&binding);
                Ok(Binding {
                    name: binding,
                    table: name.clone(),
                    source: BindingKind::Table(source),
                    projection: (0..schema.len()).collect(),
                    schema,
                    preds: Vec::new(),
                    lowered: Vec::new(),
                    bound: Vec::new(),
                })
            }
            TableRef::Function { name, args, alias } => {
                let f = self.ctx.catalog.resolve_function(name)?;
                let binding = alias.clone().unwrap_or_else(|| name.clone());
                let schema = f.schema().qualified(&binding);
                // Arguments are literals and slots: they name no column.
                let none = Schema::default();
                let args = args.iter().map(|a| a.positional(&none));
                Ok(Binding {
                    name: binding,
                    table: name.clone(),
                    source: BindingKind::Function {
                        function: name.clone(),
                        args: args.collect::<Result<_>>()?,
                    },
                    projection: (0..schema.len()).collect(),
                    schema,
                    preds: Vec::new(),
                    lowered: Vec::new(),
                    bound: Vec::new(),
                })
            }
            TableRef::Subquery { .. } => Err(HanaError::Unsupported(
                "derived tables are not supported by the federated planner yet".into(),
            )),
        }
    }

    /// The unique binding that owns every column of `e`, if any.
    fn owning_binding(&self, bindings: &[Binding], e: &Expr) -> Option<usize> {
        let cols = e.columns();
        if cols.is_empty() {
            return None;
        }
        let mut owner = None;
        for (q, name) in cols {
            let (idx, _) = binding_of_column(bindings, q.as_deref(), name)?;
            match owner {
                None => owner = Some(idx),
                Some(o) if o == idx => {}
                _ => return None,
            }
        }
        owner
    }

    // ---- whole-query shipping ----

    fn try_whole_ship(&self, q: &Query, bindings: &[Binding]) -> Result<Option<PlanNode>> {
        let mut source: Option<&str> = None;
        for b in bindings {
            let BindingKind::Table(ts) = &b.source else {
                return Ok(None);
            };
            if matches!(ts, TableSource::Hybrid { .. }) {
                return Ok(None);
            }
            match (source, ts.remote_source()) {
                (_, None) => return Ok(None),
                (None, Some(s)) => source = Some(s),
                (Some(a), Some(b)) if a == b => {}
                _ => return Ok(None),
            }
        }
        let Some(source) = source else {
            return Ok(None);
        };
        let caps = self
            .ctx
            .catalog
            .sda()
            .source(source)?
            .adapter
            .capabilities();
        if !caps.supports_query(q) {
            return Ok(None);
        }
        // Rewrite local virtual-table names to their remote names,
        // keeping the binding names as aliases.
        let mut shipped = q.clone();
        shipped.from = Some(TableRef::Named {
            name: bindings[0].remote_table_name(),
            alias: Some(bindings[0].name.clone()),
        });
        for (i, j) in shipped.joins.iter_mut().enumerate() {
            j.table = TableRef::Named {
                name: bindings[i + 1].remote_table_name(),
                alias: Some(bindings[i + 1].name.clone()),
            };
        }
        // Estimate: first table after filters (rough but monotone).
        let (est, _) = self.binding_estimate(&bindings[0]);
        // Named as the epilogue names the output (a run whose slots
        // name a column renames it), typed over the joined bindings.
        let joined = join_schemas(bindings);
        let schema = match q.select.is_empty() {
            true => joined,
            false => {
                let names = output_names(&q.select, self.values)?;
                let mut columns = Vec::with_capacity(names.len());
                for (name, item) in names.iter().zip(&q.select) {
                    let e = item.expr.bound(self.values)?;
                    columns.push(ColumnDef::new(name, infer_type(&e, &joined)));
                }
                Schema::new(columns)?
            }
        };
        Ok(Some(PlanNode {
            op: PlanOp::RemoteQuery {
                source: source.to_string(),
                query: shipped,
                label: "whole query".into(),
            },
            schema,
            est_rows: est,
            est_source: EstSource::Heuristic,
        }))
    }

    /// Length of the initial run of bindings on one shared remote
    /// source whose joins are source-internal equi joins.
    fn remote_prefix_len(&self, q: &Query, bindings: &[Binding]) -> usize {
        let first_source = match &bindings[0].source {
            BindingKind::Table(ts) => match ts.remote_source() {
                Some(s) if !matches!(ts, TableSource::Hybrid { .. }) => s.to_string(),
                _ => return 0,
            },
            _ => return 0,
        };
        let caps = match self.ctx.catalog.sda().source(&first_source) {
            Ok(s) => s.adapter.capabilities(),
            Err(_) => return 0,
        };
        if !caps.cap_joins {
            return 1;
        }
        let mut len = 1;
        for (i, j) in q.joins.iter().enumerate() {
            let b = &bindings[i + 1];
            let same_source = matches!(&b.source, BindingKind::Table(ts)
                if ts.remote_source() == Some(first_source.as_str())
                    && !matches!(ts, TableSource::Hybrid { .. }));
            if !same_source || j.kind != JoinKind::Inner {
                break;
            }
            // The ON must resolve entirely within the prefix.
            let prefix_schema = join_schemas(&bindings[..=i + 1]);
            if equi_keys(&j.on, &prefix_schema, &prefix_schema).is_none() {
                break;
            }
            len = i + 2;
        }
        len
    }

    /// Build the shipped prefix sub-query and its plan node.
    fn ship_prefix(&self, q: &Query, bindings: &[Binding], len: usize) -> Result<PlanNode> {
        let source = match &bindings[0].source {
            BindingKind::Table(ts) => ts.remote_source().expect("checked").to_string(),
            _ => unreachable!("prefix starts with a table"),
        };
        // Needed columns: every column of the query owned by a prefix
        // binding (dedup by output name), named as its binding names it.
        let mut needed: Vec<(Option<String>, String, &ColumnDef)> = Vec::new();
        for (qual, name) in query_exprs(q).flat_map(Expr::columns) {
            if let Some((i, c)) = binding_of_column(bindings, qual.as_deref(), name) {
                if i < len && !needed.iter().any(|(_, n, _)| n == name) {
                    needed.push((qual.clone(), name.to_string(), bindings[i].schema.column(c)));
                }
            }
        }

        let remote_table_name = |b: &Binding| b.remote_table_name();
        let sub = Query {
            select: needed
                .iter()
                .map(|(qual, name, _)| SelectItem {
                    expr: Expr::Column {
                        qualifier: qual.clone(),
                        name: name.clone(),
                    },
                    alias: None,
                })
                .collect(),
            from: Some(TableRef::Named {
                name: remote_table_name(&bindings[0]),
                alias: Some(bindings[0].name.clone()),
            }),
            joins: q.joins[..len - 1]
                .iter()
                .enumerate()
                .map(|(i, j)| hana_sql::JoinClause {
                    kind: j.kind,
                    table: TableRef::Named {
                        name: remote_table_name(&bindings[i + 1]),
                        alias: Some(bindings[i + 1].name.clone()),
                    },
                    on: j.on.clone(),
                })
                .collect(),
            filter: bindings[..len]
                .iter()
                .flat_map(|b| b.preds.iter().cloned())
                .reduce(|a, b| a.and(b)),
            hints: q.hints.clone(),
            ..Query::default()
        };
        let cols = needed
            .iter()
            .map(|(.., c)| ColumnDef::new(&c.name, c.data_type));
        let est = bindings[..len]
            .iter()
            .map(|b| self.binding_estimate(b).0)
            .fold(f64::MAX, f64::min)
            .max(1.0);
        Ok(PlanNode {
            op: PlanOp::RemoteQuery {
                source,
                query: sub,
                label: "remote prefix".into(),
            },
            schema: Schema::new(cols.collect())?,
            est_rows: est,
            est_source: EstSource::Heuristic,
        })
    }

    // ---- leaves ----

    fn leaf(&self, b: &Binding, hints: &[String]) -> Result<PlanNode> {
        let (est, est_source) = self.binding_estimate(b);
        let lowered = b.lowered.clone();
        let node = match &b.source {
            BindingKind::Function { function, args } => PlanNode {
                op: PlanOp::FunctionScan {
                    binding: b.name.clone(),
                    function: function.clone(),
                    args: args.clone(),
                },
                schema: b.schema.clone(),
                est_rows: est,
                est_source,
            },
            BindingKind::Table(ts) => match ts {
                TableSource::Column(t) => {
                    match self.try_index_seek(b, &t.read(), est, est_source) {
                        Some(node) => node,
                        None => PlanNode {
                            op: PlanOp::ColumnScan {
                                binding: b.name.clone(),
                                table: b.table.clone(),
                                preds: lowered,
                                projection: b.projection.clone(),
                            },
                            schema: b.schema.clone(),
                            est_rows: est,
                            est_source,
                        },
                    }
                }
                TableSource::Row(_) => PlanNode {
                    op: PlanOp::RowScan {
                        binding: b.name.clone(),
                        table: b.table.clone(),
                        preds: lowered,
                    },
                    schema: b.schema.clone(),
                    est_rows: est,
                    est_source,
                },
                TableSource::Distributed(_) => PlanNode {
                    op: PlanOp::DistScan {
                        binding: b.name.clone(),
                        table: b.table.clone(),
                        preds: lowered,
                    },
                    schema: b.schema.clone(),
                    est_rows: est,
                    est_source,
                },
                TableSource::Hybrid { .. } => PlanNode {
                    op: PlanOp::HybridScan {
                        binding: b.name.clone(),
                        table: b.table.clone(),
                        preds: lowered,
                    },
                    schema: b.schema.clone(),
                    est_rows: est,
                    est_source,
                },
                TableSource::Extended { source, schema, .. }
                | TableSource::Virtual { source, schema, .. } => {
                    // A single remote table accessed without a join
                    // strategy: ship a remote scan sub-query. The
                    // remote side evaluates full SQL, so *every*
                    // binding predicate ships — no local re-check.
                    // The columns `prune_unreferenced` left are the
                    // select list (`*` when it left them all).
                    let pruned = b.schema.len() < schema.len();
                    let shipped = b.projection.iter().filter(|_| pruned);
                    let sub = Query {
                        select: shipped
                            .map(|&i| SelectItem {
                                expr: Expr::Column {
                                    qualifier: Some(b.name.clone()),
                                    name: schema.column(i).name.clone(),
                                },
                                alias: None,
                            })
                            .collect(),
                        from: Some(TableRef::Named {
                            name: b.remote_table_name(),
                            alias: Some(b.name.clone()),
                        }),
                        filter: b.preds.iter().cloned().reduce(|a, c| a.and(c)),
                        hints: hints.to_vec(),
                        ..Query::default()
                    };
                    return Ok(PlanNode {
                        op: PlanOp::RemoteQuery {
                            source: source.clone(),
                            query: sub,
                            label: "remote scan".into(),
                        },
                        schema: b.schema.clone(),
                        est_rows: est,
                        est_source,
                    });
                }
            },
        };
        // Predicates assigned to this binding that the storage layer
        // cannot evaluate (arithmetic, functions, OR trees — anything
        // `pushdown_expr` refuses) re-apply as Filter operators above
        // the leaf; dropping them would change results.
        wrap_unlowerable(node, &b.preds)
    }

    /// Try to turn a column-table leaf into a secondary-index seek.
    ///
    /// Across the table's indexes, the candidate consuming the longest
    /// equality prefix (ties broken by carrying a range on the next key
    /// column) wins. Pure-range seeks on the leading column are only
    /// worth it when the estimated selected fraction stays at or below
    /// 1/4 — beyond that, the ordered walk touches enough of the key
    /// space that the vectorized full scan is the better skip-scan.
    /// The seek returns exactly the rows the scan would, so it carries
    /// the binding's scan estimate (`est`, `est_source`).
    fn try_index_seek(
        &self,
        b: &Binding,
        table: &ColumnTable,
        est: f64,
        est_source: EstSource,
    ) -> Option<PlanNode> {
        struct Candidate<'ix> {
            ix: &'ix hana_columnar::SecondaryIndex,
            prefix: Vec<(String, Operand)>,
            /// Position in `lowered` of the range predicate.
            range: Option<usize>,
            used: Vec<bool>,
        }
        let lowered = &b.lowered;
        if lowered.is_empty() {
            return None;
        }
        let mut best: Option<Candidate> = None;
        for ix in table.indexes() {
            let cols = &ix.def().columns;
            let mut used = vec![false; lowered.len()];
            let mut prefix: Vec<(String, Operand)> = Vec::new();
            for col in cols {
                let eq = lowered.iter().enumerate().find_map(|(i, (c, p))| match p {
                    ColumnPredicate::Eq(v) if !used[i] && c == col => Some((i, v.clone())),
                    _ => None,
                });
                let Some((i, v)) = eq else { break };
                used[i] = true;
                prefix.push((col.clone(), v));
            }
            let mut range = None;
            if prefix.len() < cols.len() {
                let next = &cols[prefix.len()];
                let hit = lowered.iter().enumerate().find(|(i, (c, p))| {
                    !used[*i]
                        && c == next
                        && matches!(
                            p,
                            ColumnPredicate::Lt(_)
                                | ColumnPredicate::Le(_)
                                | ColumnPredicate::Gt(_)
                                | ColumnPredicate::Ge(_)
                                | ColumnPredicate::Between(_, _)
                        )
                });
                if let Some((i, _)) = hit {
                    used[i] = true;
                    range = Some(i);
                }
            }
            if prefix.is_empty() && range.is_none() {
                continue;
            }
            let better = best.as_ref().is_none_or(|cur| {
                (prefix.len(), range.is_some()) > (cur.prefix.len(), cur.range.is_some())
            });
            if better {
                best = Some(Candidate {
                    ix,
                    prefix,
                    range,
                    used,
                });
            }
        }
        let cand = best?;
        if cand.prefix.is_empty() {
            let stats = self.ctx.stats.table_stats(&b.table);
            let fraction = cand.range.map_or(1.0, |i| {
                let (col, p) = &b.bound[i];
                estimator::selectivity(stats.as_deref(), col, p)
            });
            if fraction > 0.25 {
                return None;
            }
        }
        let residual: Vec<PlanPredicate> = lowered
            .iter()
            .enumerate()
            .filter(|(i, _)| !cand.used[*i])
            .map(|(_, x)| x.clone())
            .collect();
        Some(PlanNode {
            op: PlanOp::IndexSeek {
                binding: b.name.clone(),
                table: b.table.clone(),
                index: cand.ix.def().name.clone(),
                prefix: cand.prefix,
                range: cand.range.map(|i| lowered[i].clone()),
                residual,
                projection: b.projection.clone(),
            },
            schema: b.schema.clone(),
            est_rows: est,
            est_source,
        })
    }

    // ---- remote join strategies ----

    fn plan_remote_join(
        &self,
        acc: PlanNode,
        b: &Binding,
        ts: &TableSource,
        mut on: JoinStep,
        hints: &[String],
    ) -> Result<PlanNode> {
        // The key among the remote table's columns.
        let remote_key = b.projection[on.right_key];
        let source = ts.remote_source().expect("remote binding").to_string();
        let adapter = self.ctx.catalog.sda().source(&source)?.adapter;
        let caps = adapter.capabilities();
        let remote_table = b.remote_table_name();
        let (remote_total, remote_known) = match self.remote_rows_opt(&source, &remote_table) {
            Some(n) => (n, true),
            None => (10_000.0, false),
        };
        let sel: f64 = b
            .bound
            .iter()
            .map(|(col, p)| {
                adapter
                    .estimate_selectivity(&remote_table, col, p)
                    .unwrap_or_else(|| p.default_selectivity())
            })
            .product();
        let remote_filtered = (remote_total * sel).max(1.0);
        // Key synopses: local side from the persisted statistics, remote
        // side from the source's own metadata, when either exists.
        let local_key_ndv = on.left_ndv;
        let remote_key_ndv = adapter
            .column_distinct(&remote_table, &ts.schema().column(remote_key).name)
            .map(|n| n as f64);
        let join_out =
            estimator::join_out(acc.est_rows, remote_filtered, local_key_ndv, remote_key_ndv);
        // A semijoin or a relocated join fetches every remote column
        // (`SELECT *` built at execution time); only a remote-scan leaf
        // ships the pruned select list.
        let full = ts.schema().qualified(&b.name);
        let situation = JoinSituation {
            local_rows: acc.est_rows,
            remote_total,
            remote_filtered,
            join_out,
            local_width: self.node_width(&acc),
            remote_width: full.len() as f64,
            local_key_ndv: local_key_ndv.unwrap_or(0.0),
            remote_key_ndv: remote_key_ndv.unwrap_or(0.0),
        };
        let est_source = if acc.est_source == EstSource::Stats && remote_known {
            EstSource::Stats
        } else {
            EstSource::Heuristic
        };
        let mut options = vec![FederationStrategy::RemoteScan];
        if caps.cap_semi_join {
            options.push(FederationStrategy::SemiJoin);
        }
        if caps.cap_joins {
            options.push(FederationStrategy::TableRelocation);
        }
        let (strategy, _) = CostModel::default().pick(&options, &situation);
        let schema = acc.schema.join(&full)?;
        let est = situation.join_out;
        match strategy {
            FederationStrategy::RemoteScan => {
                let right = self.leaf(b, hints)?;
                on.right_ndv = remote_key_ndv;
                let mut node = self.join_node(acc, right, on)?;
                // The strategy decision already priced this join with
                // the adapter-estimated remote cardinality; keep it.
                node.est_rows = est;
                node.est_source = est_source;
                Ok(node)
            }
            FederationStrategy::SemiJoin => Ok(PlanNode {
                op: PlanOp::SemiJoin {
                    local: Box::new(acc),
                    local_key: on.left_key,
                    source,
                    remote_table: b.remote_table_name(),
                    remote_preds: b.preds.clone(),
                    remote_key,
                    remote_binding: b.name.clone(),
                },
                schema,
                est_rows: est,
                est_source,
            }),
            FederationStrategy::TableRelocation => Ok(PlanNode {
                op: PlanOp::RelocateJoin {
                    local: Box::new(acc),
                    local_key: on.left_key,
                    source,
                    remote_table: b.remote_table_name(),
                    remote_preds: b.preds.clone(),
                    remote_key,
                    remote_binding: b.name.clone(),
                },
                schema,
                est_rows: est,
                est_source,
            }),
            FederationStrategy::UnionPlan => unreachable!("not offered here"),
        }
    }

    // ---- estimation ----

    /// Estimated rows of a binding after its pushed-down predicates,
    /// with the provenance of the estimate: live row count × one
    /// selectivity per predicate (see [`estimator::scan_estimate`]).
    fn binding_estimate(&self, b: &Binding) -> (f64, EstSource) {
        match &b.source {
            BindingKind::Function { .. } => (100.0, EstSource::Heuristic),
            BindingKind::Table(ts) => self.table_estimate(ts, &b.table, &b.bound),
        }
    }

    /// Estimated rows of `table` under the pushed-down predicates
    /// `lowered`, and where the estimate came from.
    fn table_estimate(
        &self,
        ts: &TableSource,
        table: &str,
        lowered: &[(String, ColumnPredicate)],
    ) -> (f64, EstSource) {
        let local = |live_rows: usize| {
            let stats = self.ctx.stats.table_stats(table);
            (
                estimator::scan_estimate(live_rows as f64, stats.as_deref(), lowered),
                provenance(stats.as_deref()),
            )
        };
        match ts {
            TableSource::Column(t) => local(t.read().row_count()),
            TableSource::Row(t) => local(t.read().version_count()),
            TableSource::Distributed(t) => {
                // Pruned partitions contribute nothing; each
                // surviving one is priced from its own live rows and
                // synopsis (the table-level one where the provider
                // keeps no per-partition synopses), so skewed data
                // is not averaged away.
                let mask = prune_mask(t, lowered);
                let parts = self.ctx.stats.partition_stats(table);
                let whole = match parts {
                    Some(_) => None,
                    None => self.ctx.stats.table_stats(table),
                };
                let synopsis = |node: usize| -> Option<&TableStatistics> {
                    match &parts {
                        Some(p) => p.get(node),
                        None => whole.as_deref(),
                    }
                };
                let est: f64 = t
                    .nodes()
                    .iter()
                    .enumerate()
                    .filter(|(node, _)| mask[*node])
                    .map(|(node, n)| {
                        estimator::scan_estimate(n.row_count() as f64, synopsis(node), lowered)
                    })
                    .sum();
                (est.max(1.0), provenance(synopsis(0)))
            }
            TableSource::Hybrid {
                hot,
                source,
                cold_table,
                ..
            } => {
                let hot_rows = hot.read().row_count() as f64;
                let cold_rows = self.remote_rows(source, cold_table);
                let sel: f64 = lowered
                    .iter()
                    .map(|(_, p)| p.default_selectivity())
                    .product();
                ((hot_rows + cold_rows) * sel, EstSource::Heuristic)
            }
            TableSource::Extended {
                source,
                remote_table,
                ..
            }
            | TableSource::Virtual {
                source,
                remote_table,
                ..
            } => {
                let total = self.remote_rows(source, remote_table);
                let sel: f64 = lowered
                    .iter()
                    .map(|(_, p)| p.default_selectivity())
                    .product();
                ((total * sel).max(1.0), EstSource::Heuristic)
            }
        }
    }

    /// Whether `plan` — compiled for another value vector of its shape —
    /// is still priced right for this one.
    ///
    /// Only a leaf holding a slot in a *non-equality* predicate can be
    /// far off: a range is as wide as its bounds say, while an equality
    /// or `IN` slot selects a value's share of the column whatever the
    /// value (so a plan of nothing but those, every OLTP point read, is
    /// never re-priced). Each such leaf is re-estimated from the synopsis
    /// with `values`; when one lands more than 10× away from the
    /// estimate the plan carries, the answer is `Some` of the leaves'
    /// magnitude classes (`⌊log10 rows⌋`, joined by `,`), under which
    /// the caller keeps a second plan for bindings of that size.
    pub fn drift(&self, plan: &PlanNode, values: &[Value]) -> Option<String> {
        let mut classes = Vec::new();
        let mut far = false;
        self.leaf_drift(plan, values, &mut classes, &mut far);
        far.then(|| classes.join(","))
    }

    fn leaf_drift(
        &self,
        node: &PlanNode,
        values: &[Value],
        classes: &mut Vec<String>,
        far: &mut bool,
    ) {
        let ranged = |(_, p): &PlanPredicate| {
            let slot = |o: &Operand| matches!(o, Operand::Slot(_));
            match p {
                ColumnPredicate::Ne(o)
                | ColumnPredicate::Lt(o)
                | ColumnPredicate::Le(o)
                | ColumnPredicate::Gt(o)
                | ColumnPredicate::Ge(o) => slot(o),
                ColumnPredicate::Between(lo, hi) => slot(lo) || slot(hi),
                _ => false,
            }
        };
        let (table, preds): (&str, Vec<PlanPredicate>) = match &node.op {
            PlanOp::ColumnScan { table, preds, .. }
            | PlanOp::RowScan { table, preds, .. }
            | PlanOp::DistScan { table, preds, .. }
            | PlanOp::HybridScan { table, preds, .. } => {
                if !preds.iter().any(ranged) {
                    return;
                }
                (table, preds.clone())
            }
            PlanOp::IndexSeek {
                table,
                prefix,
                range,
                residual,
                ..
            } => {
                if !range.iter().chain(residual).any(ranged) {
                    return;
                }
                let prefix = prefix.iter().cloned();
                let eq = prefix.map(|(col, o)| (col, ColumnPredicate::Eq(o)));
                let rest = range.iter().chain(residual).cloned();
                (table, eq.chain(rest).collect())
            }
            PlanOp::HashJoin { left, right, .. } | PlanOp::NestedLoopJoin { left, right, .. } => {
                self.leaf_drift(left, values, classes, far);
                return self.leaf_drift(right, values, classes, far);
            }
            PlanOp::SemiJoin { local: input, .. }
            | PlanOp::RelocateJoin { local: input, .. }
            | PlanOp::Filter { input, .. }
            | PlanOp::Aggregate { input, .. }
            | PlanOp::Finish { input, .. } => return self.leaf_drift(input, values, classes, far),
            // Priced from default selectivities, whatever the values.
            PlanOp::RemoteQuery { .. } | PlanOp::FunctionScan { .. } => return,
        };
        let (Ok(ts), Ok(bound)) = (
            self.ctx.catalog.resolve_table(table),
            bind_predicates(&preds, values),
        ) else {
            return;
        };
        let (now, _) = self.table_estimate(&ts, table, &bound);
        let (now, then) = (now.max(1.0), node.est_rows.max(1.0));
        *far |= now > then * 10.0 || then > now * 10.0;
        classes.push(format!("{}", now.log10().floor()));
    }

    /// Distinct-count of a join key from the persisted synopsis of its
    /// owning binding's table.
    fn key_ndv_of(&self, bindings: &[Binding], key: EquiKey) -> Option<f64> {
        let (idx, _) = binding_of_column(bindings, key.qualifier, key.name)?;
        let stats = self.ctx.stats.table_stats(&bindings[idx].table)?;
        estimator::key_ndv(&stats, key.name)
    }

    /// Width of a plan node in column-equivalents: average row bytes
    /// from the synopsis (8-byte units) when the node scans a
    /// stats-backed table, else its column count.
    fn node_width(&self, node: &PlanNode) -> f64 {
        if let PlanOp::ColumnScan { table, .. }
        | PlanOp::RowScan { table, .. }
        | PlanOp::DistScan { table, .. } = &node.op
        {
            if let Some(s) = self.ctx.stats.table_stats(table) {
                return (s.row_bytes() / 8.0).max(1.0);
            }
        }
        node.schema.len() as f64
    }

    /// Decide broadcast-vs-repartition for a hash join whose probe side
    /// is a distributed scan, from the two sides' estimates. Broadcasting
    /// ships the build side to every surviving partition; gathering (the
    /// repartition fallback, and what a purely local join does anyway)
    /// ships the probe rows to the coordinator instead.
    fn dist_join_strategy(&self, left: &PlanNode, right: &PlanNode) -> DistJoinStrategy {
        let PlanOp::DistScan { table, preds, .. } = &left.op else {
            return DistJoinStrategy::Repartition;
        };
        let Ok(TableSource::Distributed(t)) = self.ctx.catalog.resolve_table(table) else {
            return DistJoinStrategy::Repartition;
        };
        // Priced for this run's values; either exchange is correct for
        // any others.
        let Ok(preds) = bind_predicates(preds, self.values) else {
            return DistJoinStrategy::Repartition;
        };
        let mask = prune_mask(&t, &preds);
        let surviving = mask.iter().filter(|&&k| k).count().max(1) as f64;
        if right.est_rows * surviving <= left.est_rows {
            DistJoinStrategy::Broadcast
        } else {
            DistJoinStrategy::Repartition
        }
    }

    /// `left_key = right_key` with each key's distinct count from the
    /// persisted synopses.
    fn equi_join(
        &self,
        bindings: &[Binding],
        left_key: EquiKey,
        right_key: EquiKey,
        kind: JoinKind,
    ) -> JoinStep {
        JoinStep {
            left_ndv: self.key_ndv_of(bindings, left_key),
            right_ndv: self.key_ndv_of(bindings, right_key),
            left_key: left_key.at,
            right_key: right_key.at,
            kind,
        }
    }

    /// An ndv-aware hash-join node. With a key synopsis on either side
    /// the output is priced under the containment assumption and keeps
    /// the `stats` provenance; otherwise the legacy `min(|L|, |R|)`
    /// heuristic applies.
    fn join_node(&self, left: PlanNode, right: PlanNode, on: JoinStep) -> Result<PlanNode> {
        let JoinStep {
            left_key,
            right_key,
            kind,
            left_ndv,
            right_ndv,
        } = on;
        let schema = left.schema.join(&right.schema)?;
        let (est, est_source) = if left_ndv.is_some() || right_ndv.is_some() {
            (
                estimator::join_out(left.est_rows, right.est_rows, left_ndv, right_ndv),
                left.est_source.and(right.est_source),
            )
        } else {
            (
                left.est_rows.min(right.est_rows).max(1.0),
                EstSource::Heuristic,
            )
        };
        let dist = self.dist_join_strategy(&left, &right);
        Ok(PlanNode {
            op: PlanOp::HashJoin {
                left: Box::new(left),
                right: Box::new(right),
                left_key,
                right_key,
                kind,
                dist,
            },
            schema,
            est_rows: est,
            est_source,
        })
    }

    fn remote_rows_opt(&self, source: &str, table: &str) -> Option<f64> {
        self.ctx
            .catalog
            .sda()
            .source(source)
            .ok()
            .and_then(|s| s.adapter.table_stats(table).ok())
            .map(|s| s.row_count as f64)
    }

    fn remote_rows(&self, source: &str, table: &str) -> f64 {
        self.remote_rows_opt(source, table).unwrap_or(10_000.0)
    }
}

/// `stats` when a synopsis backed the estimate, `heuristic` otherwise.
fn provenance(stats: Option<&TableStatistics>) -> EstSource {
    match stats {
        Some(_) => EstSource::Stats,
        None => EstSource::Heuristic,
    }
}

/// Partition-prune mask of a distributed table under lowered predicates
/// (`true` = the partition may contain matching rows).
fn prune_mask(
    t: &hana_dist::DistTable,
    preds: &[(String, hana_columnar::ColumnPredicate)],
) -> Vec<bool> {
    let mut mask = vec![true; t.node_count()];
    for (col, pred) in preds {
        if col == t.spec().column() {
            if let Some(c) = t.spec().prune(pred) {
                for (m, keep) in mask.iter_mut().zip(&c) {
                    *m &= *keep;
                }
            }
        }
    }
    mask
}

impl Binding {
    /// The table name to use in a shipped sub-query (the *remote* name
    /// for virtual/extended tables).
    fn remote_table_name(&self) -> String {
        match &self.source {
            BindingKind::Table(TableSource::Virtual { remote_table, .. })
            | BindingKind::Table(TableSource::Extended { remote_table, .. }) => {
                remote_table.clone()
            }
            _ => self.table.clone(),
        }
    }
}

/// Wrap a local leaf in Filter operators for every binding predicate
/// that did not lower to a [`ColumnPredicate`].
fn wrap_unlowerable(mut node: PlanNode, preds: &[Expr]) -> Result<PlanNode> {
    for pred in preds {
        if crate::pushdown_expr(pred).is_some() {
            continue;
        }
        let schema = node.schema.clone();
        let est = (node.est_rows * 0.5).max(1.0);
        let est_source = node.est_source;
        node = PlanNode {
            op: PlanOp::Filter {
                pred: pred.positional(&node.schema)?,
                input: Box::new(node),
            },
            schema,
            est_rows: est,
            est_source,
        };
    }
    Ok(node)
}

/// `SELECT *`: an empty or wildcard select list names every column.
fn selects_star(q: &Query) -> bool {
    q.select.is_empty() || q.select.iter().any(|s| matches!(s.expr, Expr::Wildcard))
}

/// Every expression of the query that can name a column.
fn query_exprs(q: &Query) -> impl Iterator<Item = &Expr> {
    let select = q.select.iter().map(|s| &s.expr);
    let on = q.joins.iter().map(|j| &j.on);
    let order = q.order_by.iter().map(|(e, _)| e);
    select
        .chain(on)
        .chain(&q.filter)
        .chain(&q.group_by)
        .chain(&q.having)
        .chain(order)
}

/// Prune the schema of every local column-table binding and of every
/// virtual or extended-storage binding to the columns the query names,
/// so that a local leaf decodes and clones only those and a remote-scan
/// leaf ships them as its select list (`SELECT *` keeps all; a binding
/// nothing names, as under `COUNT(*)`, keeps its first column — a row
/// needs one).
///
/// A reference marks the binding its qualifier names; an unqualified
/// one, or one whose qualifier is no binding of that column (which
/// `resolve_column` then suffix-matches), marks every binding with a
/// column of that name — so what resolved, or was ambiguous, over the
/// full schemas still is over the pruned ones.
fn prune_unreferenced(q: &Query, bindings: &mut [Binding]) {
    if selects_star(q) {
        return;
    }
    let mut keep: Vec<Vec<bool>> = bindings
        .iter()
        .map(|b| vec![false; b.schema.len()])
        .collect();
    // One scratch key and hit list for the whole walk: this runs per
    // planned statement, point lookups included.
    let (mut key, mut hits) = (String::new(), Vec::new());
    let mut mark = |e: &Expr| {
        let Expr::Column { qualifier, name } = e else {
            return;
        };
        // (binding, column) of every binding with a column of that name.
        hits.clear();
        for (bi, b) in bindings.iter().enumerate() {
            key.clear();
            key.extend([b.name.as_str(), ".", name.as_str()]);
            if let Some(i) = b.schema.index_of(&key) {
                hits.push((bi, i));
            }
        }
        let owner = hits
            .iter()
            .find(|(bi, _)| Some(&bindings[*bi].name) == qualifier.as_ref());
        for &(bi, i) in owner.map_or(&hits[..], std::slice::from_ref) {
            keep[bi][i] = true;
        }
    };
    query_exprs(q).for_each(|e| e.walk(&mut mark));
    for (b, mut keep) in bindings.iter_mut().zip(keep) {
        let prunable = matches!(
            b.source,
            BindingKind::Table(
                TableSource::Column(_) | TableSource::Virtual { .. } | TableSource::Extended { .. }
            )
        );
        if !prunable {
            continue;
        }
        if !keep.contains(&false) {
            continue;
        }
        if !keep.contains(&true) {
            keep[0] = true;
        }
        let kept = |i: &usize| keep[*i];
        b.projection = (0..keep.len()).filter(kept).collect();
        let cols = b.projection.iter().map(|&i| b.schema.column(i).clone());
        b.schema = Schema::new(cols.collect()).expect("subset of a valid schema");
    }
}

/// Which binding owns column `(qualifier, name)`, and at which position
/// of its schema? `None` if ambiguous or unknown.
fn binding_of_column(
    bindings: &[Binding],
    qualifier: Option<&str>,
    name: &str,
) -> Option<(usize, usize)> {
    let mut found = None;
    for (i, b) in bindings.iter().enumerate() {
        if qualifier.is_some_and(|q| q != b.name) {
            continue;
        }
        if let Some(c) = b.schema.index_of(&format!("{}.{name}", b.name)) {
            if found.is_some() {
                return None; // ambiguous
            }
            found = Some((i, c));
        }
    }
    found
}

fn join_schemas(bindings: &[Binding]) -> Schema {
    let mut schema = Schema::default();
    for b in bindings {
        schema = schema.join(&b.schema).unwrap_or_else(|_| schema.clone());
    }
    schema
}

fn nested_loop_node(left: PlanNode, right: PlanNode, on: &Expr) -> Result<PlanNode> {
    let schema = left.schema.join(&right.schema)?;
    let est = (left.est_rows * right.est_rows * 0.1).max(1.0);
    Ok(PlanNode {
        op: PlanOp::NestedLoopJoin {
            left: Box::new(left),
            right: Box::new(right),
            on: on.positional(&schema)?,
        },
        schema,
        est_rows: est,
        est_source: EstSource::Heuristic,
    })
}
