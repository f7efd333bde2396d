//! Dependency-ordered task graphs.
//!
//! A [`TaskGraph`] holds named tasks plus happens-before edges and runs
//! them on a [`WorkerPool`]: a task is enqueued the moment its last
//! dependency finishes, so independent pipeline stages overlap freely.
//! [`TaskGraph::run_to_completion`] blocks until the whole graph has
//! executed.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::pool::WorkerPool;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Handle to a task added to a [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskId(usize);

/// Errors from running a task graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The dependency edges contain a cycle; nothing was run.
    Cycle,
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::Cycle => write!(f, "task graph contains a dependency cycle"),
        }
    }
}

impl std::error::Error for GraphError {}

struct Node {
    label: String,
    job: Option<Job>,
    dependents: Vec<usize>,
    deps: usize,
}

/// A DAG of tasks with explicit dependency edges.
#[derive(Default)]
pub struct TaskGraph {
    nodes: Vec<Node>,
}

impl TaskGraph {
    /// An empty graph.
    pub fn new() -> TaskGraph {
        TaskGraph::default()
    }

    /// Add a task with no dependencies yet.
    pub fn add_task(
        &mut self,
        label: impl Into<String>,
        job: impl FnOnce() + Send + 'static,
    ) -> TaskId {
        let id = self.nodes.len();
        self.nodes.push(Node {
            label: label.into(),
            job: Some(Box::new(job)),
            dependents: Vec::new(),
            deps: 0,
        });
        TaskId(id)
    }

    /// Add a task that runs only after all of `after`.
    pub fn add_task_after(
        &mut self,
        label: impl Into<String>,
        after: &[TaskId],
        job: impl FnOnce() + Send + 'static,
    ) -> TaskId {
        let id = self.add_task(label, job);
        for &dep in after {
            self.add_dependency(dep, id);
        }
        id
    }

    /// Record that `after` must not start before `before` finished.
    pub fn add_dependency(&mut self, before: TaskId, after: TaskId) {
        assert!(before.0 < self.nodes.len() && after.0 < self.nodes.len());
        assert_ne!(before.0, after.0, "task cannot depend on itself");
        self.nodes[before.0].dependents.push(after.0);
        self.nodes[after.0].deps += 1;
    }

    /// Number of tasks in the graph.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Label of a task (for diagnostics).
    pub fn label(&self, id: TaskId) -> &str {
        &self.nodes[id.0].label
    }

    fn has_cycle(&self) -> bool {
        // Kahn's algorithm: if topological order misses nodes, a cycle
        // exists.
        let mut indeg: Vec<usize> = self.nodes.iter().map(|n| n.deps).collect();
        let mut ready: Vec<usize> = indeg
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d == 0)
            .map(|(i, _)| i)
            .collect();
        let mut seen = 0;
        while let Some(i) = ready.pop() {
            seen += 1;
            for &d in &self.nodes[i].dependents {
                indeg[d] -= 1;
                if indeg[d] == 0 {
                    ready.push(d);
                }
            }
        }
        seen < self.nodes.len()
    }

    /// Run every task on the pool in dependency order and block until
    /// all finished. Task panics do not cancel downstream tasks; the
    /// first panic is re-raised here once the graph has drained.
    pub fn run_to_completion(mut self, pool: &Arc<WorkerPool>) -> Result<(), GraphError> {
        if self.nodes.is_empty() {
            return Ok(());
        }
        if self.has_cycle() {
            return Err(GraphError::Cycle);
        }

        struct GraphState {
            jobs: Vec<Mutex<Option<Job>>>,
            dependents: Vec<Vec<usize>>,
            deps: Vec<AtomicUsize>,
            remaining: Mutex<usize>,
            done: Condvar,
            panic: Mutex<Option<Box<dyn Any + Send>>>,
        }

        fn schedule(state: Arc<GraphState>, pool: Arc<WorkerPool>, idx: usize) {
            let job = state.jobs[idx]
                .lock()
                .unwrap()
                .take()
                .expect("graph task scheduled twice");
            let st = Arc::clone(&state);
            let p = Arc::clone(&pool);
            pool.spawn(move || {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
                    let mut slot = st.panic.lock().unwrap();
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
                for &dep in &st.dependents[idx] {
                    if st.deps[dep].fetch_sub(1, Ordering::AcqRel) == 1 {
                        schedule(Arc::clone(&st), Arc::clone(&p), dep);
                    }
                }
                let mut remaining = st.remaining.lock().unwrap();
                *remaining -= 1;
                if *remaining == 0 {
                    st.done.notify_all();
                }
            });
        }

        let n = self.nodes.len();
        let mut jobs = Vec::with_capacity(n);
        let mut dependents = Vec::with_capacity(n);
        let mut deps = Vec::with_capacity(n);
        for node in &mut self.nodes {
            jobs.push(Mutex::new(node.job.take()));
            dependents.push(std::mem::take(&mut node.dependents));
            deps.push(AtomicUsize::new(node.deps));
        }
        let roots: Vec<usize> = (0..n).filter(|&i| self.nodes[i].deps == 0).collect();
        let state = Arc::new(GraphState {
            jobs,
            dependents,
            deps,
            remaining: Mutex::new(n),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });

        // The roots are fixed before anything runs: a running task
        // drives its dependents' counters to zero and schedules them
        // itself, so re-reading the counters here would schedule such a
        // task a second time.
        for idx in roots {
            schedule(Arc::clone(&state), Arc::clone(pool), idx);
        }

        let mut remaining = state.remaining.lock().unwrap();
        while *remaining > 0 {
            remaining = state.done.wait(remaining).unwrap();
        }
        drop(remaining);

        if let Some(payload) = state.panic.lock().unwrap().take() {
            resume_unwind(payload);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_in_dependency_order() {
        let pool = WorkerPool::new(4);
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut g = TaskGraph::new();
        let push = |tag: &'static str, order: &Arc<Mutex<Vec<&'static str>>>| {
            let order = Arc::clone(order);
            move || order.lock().unwrap().push(tag)
        };
        let scan = g.add_task("scan", push("scan", &order));
        let filter = g.add_task_after("filter", &[scan], push("filter", &order));
        let agg = g.add_task_after("agg", &[filter], push("agg", &order));
        let emit = g.add_task_after("emit", &[agg], push("emit", &order));
        assert_eq!(g.label(emit), "emit");
        g.run_to_completion(&pool).unwrap();
        assert_eq!(
            *order.lock().unwrap(),
            vec!["scan", "filter", "agg", "emit"]
        );
    }

    #[test]
    fn diamond_joins_before_sink() {
        let pool = WorkerPool::new(4);
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut g = TaskGraph::new();
        let tag = |t: &'static str| {
            let order = Arc::clone(&order);
            move || order.lock().unwrap().push(t)
        };
        let src = g.add_task("src", tag("src"));
        let left = g.add_task_after("left", &[src], tag("left"));
        let right = g.add_task_after("right", &[src], tag("right"));
        g.add_task_after("sink", &[left, right], tag("sink"));
        g.run_to_completion(&pool).unwrap();
        let order = order.lock().unwrap();
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], "src");
        assert_eq!(order[3], "sink");
    }

    #[test]
    fn cycle_is_rejected() {
        let pool = WorkerPool::new(1);
        let mut g = TaskGraph::new();
        let a = g.add_task("a", || ());
        let b = g.add_task("b", || ());
        g.add_dependency(a, b);
        g.add_dependency(b, a);
        assert_eq!(g.run_to_completion(&pool), Err(GraphError::Cycle));
    }

    #[test]
    fn panic_in_task_is_reraised() {
        let pool = WorkerPool::new(2);
        let mut g = TaskGraph::new();
        g.add_task("bad", || panic!("task failed"));
        let result = catch_unwind(AssertUnwindSafe(|| g.run_to_completion(&pool)));
        assert!(result.is_err());
    }

    #[test]
    fn empty_graph_is_ok() {
        let pool = WorkerPool::new(1);
        assert!(TaskGraph::new().run_to_completion(&pool).is_ok());
    }
}
