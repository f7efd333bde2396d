//! Physical plans and EXPLAIN rendering.

use hana_columnar::ColumnPredicate;
use hana_sql::probe::{note, Work};
use hana_sql::{Expr, JoinKind, Query};
use hana_types::{AggFunc, HanaError, Result, Schema, Value};

/// A predicate operand in a plan: a literal of the statement, or a slot
/// of the value vector the statement runs with. A plan is compiled once
/// per statement *shape*; what differs between two statements of one
/// shape is only what their slots hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Operand {
    /// A value written in the statement.
    Lit(Value),
    /// `values[i]` of the run.
    Slot(usize),
}

impl Operand {
    /// The value behind the operand under `values`.
    pub fn resolve<'a>(&'a self, values: &'a [Value]) -> Result<&'a Value> {
        match self {
            Operand::Lit(v) => Ok(v),
            Operand::Slot(i) => values
                .get(*i)
                .ok_or_else(|| HanaError::Plan(format!("no value bound for parameter {}", i + 1))),
        }
    }
}

/// A pushed-down predicate as a plan holds it: `(column, predicate)`
/// over [`Operand`]s.
pub type PlanPredicate = (String, ColumnPredicate<Operand>);

/// The predicates of a leaf with their slots read from `values` — what
/// the storage layer evaluates, and what the estimator prices.
pub fn bind_predicates(
    preds: &[PlanPredicate],
    values: &[Value],
) -> Result<Vec<(String, ColumnPredicate)>> {
    let bind = |(col, p): &PlanPredicate| Ok((col.clone(), bind_predicate(p, values)?));
    preds.iter().map(bind).collect()
}

/// One predicate with its slots read from `values`.
pub(crate) fn bind_predicate(
    p: &ColumnPredicate<Operand>,
    values: &[Value],
) -> Result<ColumnPredicate> {
    p.try_map(|o| o.resolve(values).cloned())
}

/// A physical plan node with its output schema and cardinality estimate.
#[derive(Debug)]
pub struct PlanNode {
    /// The operator.
    pub op: PlanOp,
    /// Output schema (column names qualified by binding where needed).
    pub schema: Schema,
    /// Estimated output rows.
    pub est_rows: f64,
    /// Where the estimate came from (EXPLAIN shows the marker).
    pub est_source: EstSource,
}

// Cloning a plan is work a plan-cache hit must not do: tallied, so a
// test can assert it (see `hana_sql::probe`).
impl Clone for PlanNode {
    fn clone(&self) -> PlanNode {
        note(Work::PlanClone);
        PlanNode {
            op: self.op.clone(),
            schema: self.schema.clone(),
            est_rows: self.est_rows,
            est_source: self.est_source,
        }
    }
}

/// Provenance of a cardinality estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EstSource {
    /// Derived from persisted column statistics.
    Stats,
    /// No synopsis covered the input: row counts and default
    /// selectivities only.
    #[default]
    Heuristic,
}

impl EstSource {
    /// The marker EXPLAIN appends to each estimate.
    pub fn marker(&self) -> &'static str {
        match self {
            EstSource::Stats => "stats",
            EstSource::Heuristic => "heuristic",
        }
    }

    /// `Stats` only if both inputs are stats-backed.
    pub fn and(self, other: EstSource) -> EstSource {
        if self == EstSource::Stats && other == EstSource::Stats {
            EstSource::Stats
        } else {
            EstSource::Heuristic
        }
    }
}

/// How a hash join above a distributed probe side moves data — decided
/// at plan time from the two sides' estimated rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistJoinStrategy {
    /// Replicate the build rows to every surviving node; join
    /// fragment-locally, ship only results.
    Broadcast,
    /// Gather the probe side to the coordinator (repartition-style
    /// shuffle) and join there.
    Repartition,
}

impl DistJoinStrategy {
    /// Display name used in EXPLAIN.
    pub fn name(&self) -> &'static str {
        match self {
            DistJoinStrategy::Broadcast => "broadcast",
            DistJoinStrategy::Repartition => "repartition",
        }
    }
}

/// Federation strategy chosen for a remote join input (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FederationStrategy {
    /// Pull the (filtered) remote table and join locally.
    RemoteScan,
    /// Ship local join keys; the remote filters and returns the
    /// reduced table.
    SemiJoin,
    /// Ship the local rows; the remote executes the join.
    TableRelocation,
    /// Hybrid table: local hot partition unioned with remote cold.
    UnionPlan,
}

impl FederationStrategy {
    /// Display name used in EXPLAIN and the benches.
    pub fn name(&self) -> &'static str {
        match self {
            FederationStrategy::RemoteScan => "Remote Scan",
            FederationStrategy::SemiJoin => "Semijoin",
            FederationStrategy::TableRelocation => "Table Relocation",
            FederationStrategy::UnionPlan => "Union Plan",
        }
    }
}

/// Physical operators.
#[derive(Debug, Clone)]
pub enum PlanOp {
    /// Scan of a local column table.
    ColumnScan {
        /// Binding name in the query.
        binding: String,
        /// Catalog table name.
        table: String,
        /// Pushed-down predicates.
        preds: Vec<PlanPredicate>,
    },
    /// Ordered seek on a secondary index of a column table: an equality
    /// prefix over the leading indexed columns, an optional range on the
    /// next one, and residual predicates re-checked per hit.
    IndexSeek {
        /// Binding name in the query.
        binding: String,
        /// Catalog table name.
        table: String,
        /// Index name.
        index: String,
        /// Equality prefix `(column, value)` in key order.
        prefix: Vec<(String, Operand)>,
        /// Range predicate on the key column after the prefix.
        range: Option<PlanPredicate>,
        /// Pushed-down predicates the index does not consume.
        residual: Vec<PlanPredicate>,
    },
    /// Scan of a local row table.
    RowScan {
        /// Binding name in the query.
        binding: String,
        /// Catalog table name.
        table: String,
        /// Pushed-down predicates.
        preds: Vec<PlanPredicate>,
    },
    /// Scan of a distributed (partitioned) table: prune partitions by
    /// the pushed-down predicates, scan the surviving fragments on their
    /// nodes, gather to the coordinator over the links.
    DistScan {
        /// Binding name in the query.
        binding: String,
        /// Catalog table name.
        table: String,
        /// Pushed-down predicates.
        preds: Vec<PlanPredicate>,
    },
    /// Hybrid table scan: hot partition locally, cold partition at the
    /// extended store, unioned (the §3.1 "Union Plan" at scan level).
    HybridScan {
        /// Binding name in the query.
        binding: String,
        /// Catalog table name.
        table: String,
        /// Pushed-down predicates (applied to both partitions).
        preds: Vec<PlanPredicate>,
    },
    /// A shipped sub-query executed at a remote source (below the
    /// distributed exchange operator), via SDA with the remote cache.
    RemoteQuery {
        /// SDA source name.
        source: String,
        /// The shipped query.
        query: Query,
        /// Human-readable role ("whole query", "remote prefix",
        /// "remote scan").
        label: String,
    },
    /// Table-function invocation (virtual MR function, ESP window).
    FunctionScan {
        /// Binding name.
        binding: String,
        /// Function name.
        function: String,
        /// Arguments (must be literal-foldable).
        args: Vec<Expr>,
    },
    /// In-memory hash join (equi).
    HashJoin {
        /// Build side.
        left: Box<PlanNode>,
        /// Probe side.
        right: Box<PlanNode>,
        /// Join key column in the left schema.
        left_key: String,
        /// Join key column in the right schema.
        right_key: String,
        /// Join kind.
        kind: JoinKind,
        /// Exchange strategy when the probe side is distributed
        /// (ignored for purely local joins).
        dist: DistJoinStrategy,
    },
    /// Nested-loop join with an arbitrary ON condition (fallback).
    NestedLoopJoin {
        /// Left input.
        left: Box<PlanNode>,
        /// Right input.
        right: Box<PlanNode>,
        /// ON condition (`true` = cross join).
        on: Expr,
    },
    /// Semi-join reduction: execute `local`, ship its distinct join
    /// keys to the remote source as a temp table, join there to reduce
    /// the remote table, then hash-join locally.
    SemiJoin {
        /// Local input (already planned).
        local: Box<PlanNode>,
        /// Join key in the local schema.
        local_key: String,
        /// SDA source of the remote side.
        source: String,
        /// Remote table.
        remote_table: String,
        /// Predicates pushed to the remote side (as SQL expressions).
        remote_preds: Vec<Expr>,
        /// Join key in the remote table.
        remote_key: String,
        /// Remote binding name (for schema qualification).
        remote_binding: String,
    },
    /// Table relocation: ship the local rows to the remote source and
    /// execute the join there.
    RelocateJoin {
        /// Local input (already planned).
        local: Box<PlanNode>,
        /// Join key in the local schema.
        local_key: String,
        /// SDA source of the remote side.
        source: String,
        /// Remote table.
        remote_table: String,
        /// Predicates pushed to the remote side (as SQL expressions).
        remote_preds: Vec<Expr>,
        /// Join key in the remote table.
        remote_key: String,
        /// Remote binding name.
        remote_binding: String,
    },
    /// Residual filter.
    Filter {
        /// Input.
        input: Box<PlanNode>,
        /// Predicate.
        pred: Expr,
    },
    /// Hash aggregation producing `_g0.._gN, _a0.._aM`.
    Aggregate {
        /// Input.
        input: Box<PlanNode>,
        /// Group-by expressions.
        group_by: Vec<Expr>,
        /// Aggregates (canonical order).
        aggs: Vec<(AggFunc, Option<Expr>)>,
    },
    /// Driver epilogue: HAVING, final projection, DISTINCT, ORDER BY,
    /// LIMIT — applied from the original query.
    Finish {
        /// Input.
        input: Box<PlanNode>,
        /// The original query.
        query: Query,
    },
}

/// `e` as EXPLAIN prints it: bound where `values` cover its slots.
fn shown<'e>(e: &'e Expr, values: &[Value]) -> std::borrow::Cow<'e, Expr> {
    e.bound(values).unwrap_or(std::borrow::Cow::Borrowed(e))
}

impl PlanNode {
    /// Render the plan tree as indented text (the Figure 12/13 style).
    pub fn explain(&self) -> String {
        self.explain_bound(&[])
    }

    /// [`PlanNode::explain`] of a plan compiled for a statement shape:
    /// the expressions it prints read their slots from `values`, so the
    /// text is the one the statement written with literals explains to.
    pub fn explain_bound(&self, values: &[Value]) -> String {
        let mut out = String::new();
        self.render(0, values, &mut out);
        out
    }

    fn est_label(&self) -> String {
        format!(
            "est {:.0} rows [{}]",
            self.est_rows,
            self.est_source.marker()
        )
    }

    fn line(indent: usize, out: &mut String, text: &str) {
        out.push_str(&"  ".repeat(indent));
        out.push_str(text);
        out.push('\n');
    }

    fn render(&self, indent: usize, values: &[Value], out: &mut String) {
        match &self.op {
            PlanOp::ColumnScan {
                binding,
                table,
                preds,
            } => Self::line(
                indent,
                out,
                &format!(
                    "Column Scan {table} [{binding}] ({} preds, {})",
                    preds.len(),
                    self.est_label()
                ),
            ),
            PlanOp::IndexSeek {
                binding,
                table,
                index,
                prefix,
                range,
                residual,
            } => {
                let range_text = match range {
                    Some((col, _)) => format!(", range on {col}"),
                    None => String::new(),
                };
                Self::line(
                    indent,
                    out,
                    &format!(
                        "Index Seek {table}.{index} [{binding}] \
                         (prefix {} cols{range_text}, {} residual preds, {})",
                        prefix.len(),
                        residual.len(),
                        self.est_label()
                    ),
                );
            }
            PlanOp::RowScan {
                binding,
                table,
                preds,
            } => Self::line(
                indent,
                out,
                &format!(
                    "Row Scan {table} [{binding}] ({} preds, {})",
                    preds.len(),
                    self.est_label()
                ),
            ),
            PlanOp::DistScan {
                binding,
                table,
                preds,
            } => Self::line(
                indent,
                out,
                &format!(
                    "Dist Scan {table} [{binding}] ({} preds, partition pruning + gather, {})",
                    preds.len(),
                    self.est_label()
                ),
            ),
            PlanOp::HybridScan {
                binding, table, ..
            } => Self::line(
                indent,
                out,
                &format!(
                    "Union Plan: Hybrid Scan {table} [{binding}] (hot in-memory + cold extended, {})",
                    self.est_label()
                ),
            ),
            PlanOp::RemoteQuery {
                source,
                query,
                label,
            } => {
                Self::line(
                    indent,
                    out,
                    &format!(
                        "Remote Row Scan [{label}] @ {source} ({})",
                        self.est_label()
                    ),
                );
                let bound = query.bind(values);
                let shipped = bound.as_ref().unwrap_or(query);
                Self::line(indent + 1, out, &format!("Shipped: {shipped}"));
            }
            PlanOp::FunctionScan {
                binding, function, ..
            } => Self::line(
                indent,
                out,
                &format!("Table Function {function}() [{binding}]"),
            ),
            PlanOp::HashJoin {
                left,
                right,
                left_key,
                right_key,
                kind,
                dist,
            } => {
                let k = match kind {
                    JoinKind::Inner => "Inner",
                    JoinKind::LeftOuter => "Left Outer",
                };
                // The exchange choice only matters over a distributed
                // probe side; purely local joins stay silent.
                let xch = if matches!(left.op, PlanOp::DistScan { .. }) {
                    format!(", exchange: {}", dist.name())
                } else {
                    String::new()
                };
                Self::line(
                    indent,
                    out,
                    &format!(
                        "Hash Join ({k}) ON {left_key} = {right_key}{xch} ({})",
                        self.est_label()
                    ),
                );
                left.render(indent + 1, values, out);
                right.render(indent + 1, values, out);
            }
            PlanOp::NestedLoopJoin { left, right, on } => {
                Self::line(
                    indent,
                    out,
                    &format!(
                        "Nested Loop Join ON {} ({})",
                        shown(on, values),
                        self.est_label()
                    ),
                );
                left.render(indent + 1, values, out);
                right.render(indent + 1, values, out);
            }
            PlanOp::SemiJoin {
                local,
                local_key,
                source,
                remote_table,
                remote_key,
                ..
            } => {
                Self::line(
                    indent,
                    out,
                    &format!(
                        "Semijoin: ship {local_key} keys -> {source}.{remote_table}.{remote_key} ({})",
                        self.est_label()
                    ),
                );
                local.render(indent + 1, values, out);
            }
            PlanOp::RelocateJoin {
                local,
                source,
                remote_table,
                ..
            } => {
                Self::line(
                    indent,
                    out,
                    &format!(
                        "Table Relocation: ship local rows -> join @ {source}.{remote_table} ({})",
                        self.est_label()
                    ),
                );
                local.render(indent + 1, values, out);
            }
            PlanOp::Filter { input, pred } => {
                Self::line(
                    indent,
                    out,
                    &format!("Filter {} ({})", shown(pred, values), self.est_label()),
                );
                input.render(indent + 1, values, out);
            }
            PlanOp::Aggregate {
                input, group_by, aggs,
            } => {
                Self::line(
                    indent,
                    out,
                    &format!(
                        "Hash Aggregate ({} groups, {} aggs, {})",
                        group_by.len(),
                        aggs.len(),
                        self.est_label()
                    ),
                );
                input.render(indent + 1, values, out);
            }
            PlanOp::Finish { input, .. } => {
                Self::line(indent, out, "Project / Order / Limit");
                input.render(indent + 1, values, out);
            }
        }
    }

    /// The federation strategies used anywhere in the tree (tests).
    pub fn strategies(&self) -> Vec<FederationStrategy> {
        let mut out = Vec::new();
        self.collect_strategies(&mut out);
        out
    }

    fn collect_strategies(&self, out: &mut Vec<FederationStrategy>) {
        match &self.op {
            PlanOp::RemoteQuery { .. } => out.push(FederationStrategy::RemoteScan),
            PlanOp::HybridScan { .. } => out.push(FederationStrategy::UnionPlan),
            PlanOp::SemiJoin { local, .. } => {
                out.push(FederationStrategy::SemiJoin);
                local.collect_strategies(out);
            }
            PlanOp::RelocateJoin { local, .. } => {
                out.push(FederationStrategy::TableRelocation);
                local.collect_strategies(out);
            }
            PlanOp::HashJoin { left, right, .. } => {
                left.collect_strategies(out);
                right.collect_strategies(out);
            }
            PlanOp::NestedLoopJoin { left, right, .. } => {
                left.collect_strategies(out);
                right.collect_strategies(out);
            }
            PlanOp::Filter { input, .. }
            | PlanOp::Aggregate { input, .. }
            | PlanOp::Finish { input, .. } => input.collect_strategies(out),
            _ => {}
        }
    }
}
