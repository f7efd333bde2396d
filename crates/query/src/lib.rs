//! # hana-query
//!
//! The federated query processor of the platform (§3.1 "Query
//! Processing" + §4.2): a cost-based planner over persisted column
//! synopses, placement analysis over local / extended / remote
//! sources, the four federation strategies of the paper (remote scan,
//! semijoin, table relocation, union plan), whole-query and
//! remote-prefix shipping below the distributed exchange operator, and an
//! executor whose operators hand each other column batches (hash joins,
//! hash aggregation) and build rows once, at the result.
//!
//! The entry points are [`execute_query`] and [`explain_query`]; the
//! platform facade (`hana-core`) implements [`Catalog`] and routes SQL
//! here.

mod aggregate;
mod batch;
mod catalog;
mod context;
mod cost;
mod estimator;
mod eval;
mod executor;
mod join;
mod locate;
mod plan;
mod planner;
mod stats;

pub use catalog::{Catalog, TableFunction, TableSource};
pub use context::PlannerContext;
pub use cost::{CostModel, JoinSituation};
pub use executor::{
    execute_plan, execute_plan_bound, execute_plan_with, execute_query, execute_query_with,
    explain_query,
};
pub use hana_types::{FxBuildHasher, FxHashMap, FxHasher};
pub use join::{BUILD_LEFT, BUILD_RIGHT};
pub use locate::{locate_rows, Located};
pub use plan::{
    bind_predicates, DistJoinStrategy, EstSource, FederationStrategy, Operand, PlanNode, PlanOp,
    PlanPredicate,
};
pub use planner::Planner;
pub use stats::{MemoryStatsProvider, NoStats, StatsProvider, NO_STATS};

/// Lower a conjunct into a pushable column predicate whose operands
/// are literals or slots (SDA's lowering, so the planner and the remote
/// adapters share one definition of what is pushable).
pub fn pushdown_expr(e: &hana_sql::Expr) -> Option<PlanPredicate> {
    hana_sda::lower_conjunct(e, &|operand| match operand {
        hana_sql::Expr::Parameter(i) => Some(Operand::Slot(*i)),
        literal => hana_sda::literal(literal).map(Operand::Lit),
    })
}
