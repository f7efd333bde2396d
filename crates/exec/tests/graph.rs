//! `TaskGraph` scheduling regressions.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hana_exec::{TaskGraph, WorkerPool};

#[test]
fn dependent_released_during_scheduling_runs_once() {
    // `root` finishes, and releases `late`, while the caller is still
    // handing the filler roots to the pool; `late` sits after them, so a
    // scheduling loop that re-read the live counters would find it at
    // zero and schedule it a second time ("graph task scheduled twice").
    let pool = WorkerPool::new(4);
    let runs = Arc::new(AtomicUsize::new(0));
    let mut g = TaskGraph::new();
    let root = g.add_task("root", || ());
    for _ in 0..20_000 {
        g.add_task("filler", || ());
    }
    let late = {
        let runs = Arc::clone(&runs);
        g.add_task("late", move || {
            runs.fetch_add(1, Ordering::Relaxed);
        })
    };
    g.add_dependency(root, late);
    g.run_to_completion(&pool).unwrap();
    assert_eq!(runs.load(Ordering::Relaxed), 1);
}
