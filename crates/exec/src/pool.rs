//! Fixed worker pool with one shared job queue and one primitive.
//!
//! [`WorkerPool::scatter`] is the fork-join used by parallel scans and
//! aggregations: it fans a `Vec` of items out as one task per item,
//! blocks the calling thread until every task finished, and re-raises
//! the first task panic in the caller. Because the caller provably
//! outlives all tasks, `scatter` accepts borrowing (non-`'static`)
//! items and closures.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Lock one of the pool's mutexes. Jobs and `scatter` closures run with
/// none of them held, so none can be poisoned.
fn held<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("no task code runs under the pool's locks")
}

static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Id of the pool the current thread is a worker of (0 = none).
    static CURRENT_POOL: Cell<u64> = const { Cell::new(0) };
}

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    pool_id: u64,
    queue: Mutex<Queue>,
    wake: Condvar,
    tasks: AtomicU64,
    busy_nanos: AtomicU64,
}

fn worker_loop(shared: Arc<Shared>) {
    CURRENT_POOL.with(|c| c.set(shared.pool_id));
    let mut queue = held(&shared.queue);
    loop {
        if let Some(job) = queue.jobs.pop_front() {
            drop(queue);
            let started = Instant::now();
            // A panicking job must not kill the worker; `scatter` wraps
            // jobs in its own catch and re-raises in the caller.
            let _ = catch_unwind(AssertUnwindSafe(job));
            shared
                .busy_nanos
                .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
            shared.tasks.fetch_add(1, Ordering::Relaxed);
            queue = held(&shared.queue);
        } else if queue.shutdown {
            break;
        } else {
            queue = shared
                .wake
                .wait(queue)
                .expect("no task code runs under the pool's locks");
        }
    }
}

/// Utilization and load counters of a pool, as a plain snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolMetricsSnapshot {
    /// Number of worker threads.
    pub workers: usize,
    /// Total tasks executed since pool start.
    pub tasks_executed: u64,
    /// Tasks currently queued.
    pub queue_depth: usize,
    /// Sum of per-worker time spent running tasks, in nanoseconds.
    pub busy_nanos: u64,
    /// Wall-clock nanoseconds since pool start.
    pub wall_nanos: u64,
    /// `busy / (wall * workers)` — mean fraction of worker time spent
    /// running tasks, in `[0, 1]`.
    pub utilization: f64,
}

/// A fixed set of worker threads draining one shared FIFO job queue.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    started: Instant,
    workers: usize,
}

impl WorkerPool {
    /// Start a pool with `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Arc<WorkerPool> {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            pool_id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            queue: Mutex::new(Queue::default()),
            wake: Condvar::new(),
            tasks: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hana-exec-{id}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Arc::new(WorkerPool {
            shared,
            handles: Mutex::new(handles),
            started: Instant::now(),
            workers,
        })
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Whether the calling thread is one of this pool's workers.
    pub fn on_worker_thread(&self) -> bool {
        CURRENT_POOL.with(Cell::get) == self.shared.pool_id
    }

    /// Fork-join: run `f` over every item on the pool, blocking until
    /// all tasks complete, and return the results in item order. The
    /// first task panic is re-raised here after all tasks finish.
    ///
    /// Called from one of this pool's own worker threads, the items run
    /// inline on the caller instead (blocking a worker on its own pool
    /// could deadlock a fully busy pool).
    pub fn scatter<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        if self.on_worker_thread() {
            return items.into_iter().map(f).collect();
        }

        struct ScatterState<T> {
            results: Mutex<Vec<Option<T>>>,
            remaining: Mutex<usize>,
            done: Condvar,
            panic: Mutex<Option<Box<dyn Any + Send>>>,
        }

        let n = items.len();
        let state = Arc::new(ScatterState::<T> {
            results: Mutex::new((0..n).map(|_| None).collect()),
            remaining: Mutex::new(n),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });

        let f = &f;
        let jobs: Vec<Job> = items
            .into_iter()
            .enumerate()
            .map(|(idx, item)| {
                let state = Arc::clone(&state);
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    match catch_unwind(AssertUnwindSafe(|| f(item))) {
                        Ok(value) => held(&state.results)[idx] = Some(value),
                        Err(payload) => {
                            let mut slot = held(&state.panic);
                            if slot.is_none() {
                                *slot = Some(payload);
                            }
                        }
                    }
                    let mut remaining = held(&state.remaining);
                    *remaining -= 1;
                    if *remaining == 0 {
                        state.done.notify_all();
                    }
                });
                // SAFETY: this thread blocks below until `remaining`
                // hits zero, i.e. until every job (and its borrows of
                // `f` and the items) has finished — the scoped-thread
                // pattern. The panic path also waits for all jobs
                // before re-raising.
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) }
            })
            .collect();
        held(&self.shared.queue).jobs.extend(jobs);
        self.shared.wake.notify_all();

        let mut remaining = held(&state.remaining);
        while *remaining > 0 {
            remaining = state
                .done
                .wait(remaining)
                .expect("no task code runs under the pool's locks");
        }
        drop(remaining);

        if let Some(payload) = held(&state.panic).take() {
            resume_unwind(payload);
        }
        let mut results = held(&state.results);
        results
            .iter_mut()
            .map(|slot| slot.take().expect("scatter task completed without result"))
            .collect()
    }

    /// Current utilization/load counters.
    pub fn metrics_snapshot(&self) -> PoolMetricsSnapshot {
        let busy_nanos = self.shared.busy_nanos.load(Ordering::Relaxed);
        let wall_nanos = self.started.elapsed().as_nanos() as u64;
        let capacity = (wall_nanos as f64) * (self.workers as f64);
        PoolMetricsSnapshot {
            workers: self.workers,
            tasks_executed: self.shared.tasks.load(Ordering::Relaxed),
            queue_depth: held(&self.shared.queue).jobs.len(),
            busy_nanos,
            wall_nanos,
            utilization: if capacity > 0.0 {
                (busy_nanos as f64 / capacity).min(1.0)
            } else {
                0.0
            },
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        if let Ok(mut queue) = self.shared.queue.lock() {
            queue.shutdown = true;
        }
        self.shared.wake.notify_all();
        if let Ok(mut handles) = self.handles.lock() {
            for handle in handles.drain(..) {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn scatter_returns_results_in_order() {
        let pool = WorkerPool::new(4);
        let doubled = pool.scatter((0..100).collect(), |i: usize| i * 2);
        assert_eq!(doubled, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(pool.scatter(Vec::new(), |i: usize| i), Vec::<usize>::new());
    }

    #[test]
    fn scatter_borrows_caller_data() {
        let pool = WorkerPool::new(3);
        let data: Vec<u64> = (0..1000).collect();
        let chunks: Vec<&[u64]> = data.chunks(64).collect();
        let sums = pool.scatter(chunks, |c| c.iter().sum::<u64>());
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn scatter_propagates_panic() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scatter(vec![1, 2, 3], |i| {
                if i == 2 {
                    panic!("boom");
                }
                i
            })
        }));
        assert!(result.is_err());
        // Pool is still usable after a task panic.
        assert_eq!(pool.scatter(vec![5], |i| i + 1), vec![6]);
    }

    #[test]
    fn nested_scatter_runs_inline_on_the_worker() {
        // One worker: an inner scatter that queued its items behind the
        // outer task it is called from would never finish.
        let pool = WorkerPool::new(1);
        let sums = pool.scatter(vec![10usize, 20], |base| {
            assert!(pool.on_worker_thread());
            let inner = pool.scatter((0..4).collect(), |i: usize| {
                assert!(pool.on_worker_thread());
                base + i
            });
            inner.iter().sum::<usize>()
        });
        assert_eq!(sums, vec![46, 86]);
        assert!(!pool.on_worker_thread());
    }

    #[test]
    fn metrics_count_tasks() {
        let pool = WorkerPool::new(4);
        pool.scatter((0..64).collect(), |i: usize| i);
        // Worker stats are bumped after the job body returns, so give
        // the workers a moment to finish accounting the last tasks.
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.metrics_snapshot().tasks_executed < 64 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        let m = pool.metrics_snapshot();
        assert_eq!(m.workers, 4);
        assert_eq!(m.tasks_executed, 64);
        assert_eq!(m.queue_depth, 0);
        assert!(m.utilization >= 0.0 && m.utilization <= 1.0);
    }
}
