//! A per-thread tally of the statement work a plan-cache hit must not
//! do. The functions that do such work call [`note`]; a test reads
//! [`counts`] before and after a statement and asserts on the
//! difference. Nothing in the engine reads it.

use std::cell::Cell;

/// The kinds of work tallied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Work {
    /// `Statement::bind_params`: a deep copy of the AST.
    Bind,
    /// `Statement::to_sql_text` or `Query::to_string`.
    Render,
    /// One planner run.
    Plan,
    /// One `PlanNode` cloned.
    PlanClone,
}

thread_local! {
    static COUNTS: Cell<[u64; 4]> = const { Cell::new([0; 4]) };
}

/// Record one unit of `work` on this thread.
pub fn note(work: Work) {
    COUNTS.with(|c| {
        let mut counts = c.get();
        counts[work as usize] += 1;
        c.set(counts);
    });
}

/// This thread's tally so far, indexed by `Work as usize`.
pub fn counts() -> [u64; 4] {
    COUNTS.with(Cell::get)
}
