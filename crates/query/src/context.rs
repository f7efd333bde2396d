//! The planner's injection point.
//!
//! [`PlannerContext`] bundles everything a planning run depends on —
//! catalog and statistics — into one value. A plan is a pure
//! function of it: nothing is read from the process environment or
//! from thread-local state.

use crate::catalog::Catalog;
use crate::planner::Planner;
use crate::stats::StatsProvider;

/// Everything one planning run depends on.
#[derive(Clone, Copy)]
pub struct PlannerContext<'a> {
    /// Table/function resolution.
    pub catalog: &'a dyn Catalog,
    /// Persisted statistics (defaults to [`crate::NoStats`]).
    pub stats: &'a dyn StatsProvider,
}

impl<'a> PlannerContext<'a> {
    /// A context over `catalog` with the catalog's own statistics
    /// provider ([`Catalog::stats`], the empty provider unless
    /// overridden).
    pub fn new(catalog: &'a dyn Catalog) -> PlannerContext<'a> {
        PlannerContext {
            catalog,
            stats: catalog.stats(),
        }
    }

    /// Use persisted statistics from `stats`.
    pub fn with_stats(mut self, stats: &'a dyn StatsProvider) -> PlannerContext<'a> {
        self.stats = stats;
        self
    }

    /// Build the planner.
    pub fn planner(self) -> Planner<'a> {
        Planner::with_context(self)
    }
}
