//! Fixed worker pool with one shared queue and one primitive.
//!
//! [`WorkerPool::scatter`] is the fork-join used by parallel scans and
//! aggregations. Its items are claimed through one atomic cursor: the
//! calling thread starts claiming at once, and at most one helper per
//! worker joins it from the queue. The caller blocks only for items a
//! helper has already claimed, re-raises the first item panic after
//! they all finished, and returns the results in item order. Because
//! the caller outlives every claimed item, `scatter` accepts borrowing
//! (non-`'static`) items and closures.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Lock one of the pool's mutexes. Items run with none of them held,
/// so none can be poisoned.
fn held<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("no item runs under the pool's locks")
}

#[derive(Default)]
struct Queue {
    /// One entry per helper job: the scatter it helps.
    jobs: VecDeque<Arc<Fork>>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    wake: Condvar,
    tasks: AtomicU64,
    busy_nanos: AtomicU64,
}

fn worker_loop(shared: Arc<Shared>) {
    let mut queue = held(&shared.queue);
    loop {
        if let Some(fork) = queue.jobs.pop_front() {
            drop(queue);
            fork.drain(&shared);
            queue = held(&shared.queue);
        } else if queue.shutdown {
            break;
        } else {
            queue = shared
                .wake
                .wait(queue)
                .expect("no item runs under the pool's locks");
        }
    }
}

/// One scatter as its runners share it: the claim cursor over its
/// items, the count of finished items, and an erased pointer to the
/// caller's [`Work`] with the function that runs one of its items.
struct Fork {
    len: usize,
    next: AtomicUsize,
    finished: AtomicUsize,
    lock: Mutex<()>,
    all_done: Condvar,
    work: *const (),
    run_item: unsafe fn(*const (), usize),
}

// SAFETY: `work` is dereferenced only through `run_item`, for an item
// claimed from `next`, and `scatter` does not return while a claimed
// item runs. What it points to holds `Send` items and results and a
// `Sync` closure (`scatter`'s bounds), so any runner may use it.
unsafe impl Send for Fork {}
// SAFETY: as for `Send`; every other field is a lock or an atomic.
unsafe impl Sync for Fork {}

impl Fork {
    /// Claim and run items until the cursor runs out, booking them in
    /// the pool's counters. A runner that claims nothing touches
    /// nothing the scatter's caller borrowed.
    fn drain(&self, stats: &Shared) {
        let started = Instant::now();
        let mut ran = 0;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                break;
            }
            // SAFETY: this runner claimed `i`, so it alone moves item
            // `i` out and writes slot `i`; `scatter` does not return
            // before `finished` counts it, so `work` is still alive.
            unsafe { (self.run_item)(self.work, i) };
            ran += 1;
            if self.finished.fetch_add(1, Ordering::Release) + 1 == self.len {
                let _guard = held(&self.lock);
                self.all_done.notify_all();
            }
        }
        if ran > 0 {
            stats.tasks.fetch_add(ran, Ordering::Relaxed);
            stats
                .busy_nanos
                .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Block until every item has finished (the caller has drained the
    /// cursor, so the rest are running on helpers).
    fn wait(&self) {
        let mut guard = held(&self.lock);
        while self.finished.load(Ordering::Acquire) < self.len {
            guard = self
                .all_done
                .wait(guard)
                .expect("no item runs under the pool's locks");
        }
    }
}

/// The caller's side of one scatter, reached by its runners through
/// [`Fork::work`]: the items (each moved out by the runner that claims
/// it), one result slot per item, the closure and the first panic.
struct Work<'a, I, T, F> {
    items: *const I,
    results: *mut Option<T>,
    f: &'a F,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<I, T, F: Fn(I) -> T> Work<'_, I, T, F> {
    /// Run item `i` into slot `i`, keeping its panic if it is the first.
    ///
    /// # Safety
    ///
    /// `work` points to a live `Work` of these types, and the calling
    /// runner claimed `i`: no other runner touches item `i` or slot `i`.
    unsafe fn run(work: *const (), i: usize) {
        // SAFETY: see the function's contract.
        let work = unsafe { &*work.cast::<Self>() };
        // SAFETY: item `i` is initialized and read exactly once, by its
        // claimer (`scatter` no longer drops it).
        let item = unsafe { work.items.add(i).read() };
        match catch_unwind(AssertUnwindSafe(|| (work.f)(item))) {
            // SAFETY: slot `i` is in bounds and written only here; it
            // holds `None`, so nothing is leaked by not dropping it.
            Ok(value) => unsafe { work.results.add(i).write(Some(value)) },
            Err(payload) => {
                held(&work.panic).get_or_insert(payload);
            }
        }
    }
}

/// Utilization and load counters of a pool, as a plain snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolMetricsSnapshot {
    /// Number of worker threads.
    pub workers: usize,
    /// Scatter items run since pool start, by workers and callers alike.
    pub tasks_executed: u64,
    /// Helper jobs currently queued.
    pub queue_depth: usize,
    /// Sum of the time runners (workers and callers) spent claiming and
    /// running items since pool start, in nanoseconds.
    pub busy_nanos: u64,
    /// Wall-clock nanoseconds since pool start.
    pub wall_nanos: u64,
    /// `busy / (wall * workers)` over the interval since the previous
    /// snapshot (since pool start for the first), capped at 1 — mean
    /// fraction of worker time spent running items in it, callers'
    /// share included.
    pub utilization: f64,
}

/// A fixed set of worker threads draining one shared FIFO queue of
/// helper jobs.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    started: Instant,
    workers: usize,
    /// `(busy_nanos, wall_nanos)` of the previous snapshot.
    last: Mutex<(u64, u64)>,
}

impl WorkerPool {
    /// Start a pool with `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Arc<WorkerPool> {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
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
            last: Mutex::new((0, 0)),
        })
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Fork-join: run `f` over every item and return the results in
    /// item order. The calling thread claims items from the start; up
    /// to `min(n - 1, workers)` helper jobs queued on the pool claim
    /// from the same cursor. The caller then waits only for the items
    /// helpers claimed, and re-raises the first item panic once all
    /// have finished. Called from inside an item (a nested scatter), it
    /// cannot deadlock: its caller runs every item no helper takes.
    pub fn scatter<I, T, F>(&self, mut items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let len = items.len();
        let mut results: Vec<Option<T>> = (0..len).map(|_| None).collect();
        let work = Work {
            items: items.as_ptr(),
            results: results.as_mut_ptr(),
            f: &f,
            panic: Mutex::new(None),
        };
        // SAFETY: from here on each item is moved out by the runner that
        // claims it, and this thread drains the cursor before it returns,
        // so every item is read exactly once; `items` only frees its
        // buffer, after all runners are done with it.
        unsafe { items.set_len(0) };
        let fork = Arc::new(Fork {
            len,
            next: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            lock: Mutex::new(()),
            all_done: Condvar::new(),
            work: std::ptr::from_ref(&work).cast(),
            run_item: Work::<I, T, F>::run,
        });
        let helpers = len.saturating_sub(1).min(self.workers);
        if helpers > 0 {
            held(&self.shared.queue)
                .jobs
                .extend(std::iter::repeat_n(&fork, helpers).cloned());
            for _ in 0..helpers {
                self.shared.wake.notify_one();
            }
        }
        fork.drain(&self.shared);
        if helpers > 0 {
            // The cursor has run out: a helper still queued would claim
            // nothing.
            held(&self.shared.queue)
                .jobs
                .retain(|queued| !Arc::ptr_eq(queued, &fork));
            fork.wait();
        }

        if let Some(payload) = held(&work.panic).take() {
            resume_unwind(payload);
        }
        results
            .into_iter()
            .map(|slot| slot.expect("every claimed item filled its slot"))
            .collect()
    }

    /// Current load counters, and the utilization since the previous
    /// snapshot.
    pub fn metrics_snapshot(&self) -> PoolMetricsSnapshot {
        let busy_nanos = self.shared.busy_nanos.load(Ordering::Relaxed);
        let wall_nanos = self.started.elapsed().as_nanos() as u64;
        let (busy_then, wall_then) =
            std::mem::replace(&mut *held(&self.last), (busy_nanos, wall_nanos));
        let capacity = (wall_nanos.saturating_sub(wall_then) as f64) * (self.workers as f64);
        let busy = busy_nanos.saturating_sub(busy_then) as f64;
        PoolMetricsSnapshot {
            workers: self.workers,
            tasks_executed: self.shared.tasks.load(Ordering::Relaxed),
            queue_depth: held(&self.shared.queue).jobs.len(),
            busy_nanos,
            wall_nanos,
            utilization: if capacity > 0.0 {
                (busy / capacity).min(1.0)
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
    use std::sync::mpsc;
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
        let ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scatter(vec![1, 2, 3], |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 2 {
                    panic!("boom");
                }
                i
            })
        }));
        assert!(result.is_err());
        // Every item ran before the panic was re-raised.
        assert_eq!(ran.load(Ordering::Relaxed), 3);
        // Pool is still usable after a task panic.
        assert_eq!(pool.scatter(vec![5], |i| i + 1), vec![6]);
    }

    #[test]
    fn nested_scatter_runs_inline_on_the_worker() {
        // One worker: an inner scatter that waited for a helper queued
        // behind the outer item it is called from would never finish.
        let pool = WorkerPool::new(1);
        let sums = pool.scatter(vec![10usize, 20], |base| {
            let inner = pool.scatter((0..4).collect(), |i: usize| base + i);
            inner.iter().sum::<usize>()
        });
        assert_eq!(sums, vec![46, 86]);
    }

    #[test]
    fn a_scatter_finishes_on_its_caller_while_every_worker_is_busy() {
        let hold = Duration::from_secs(10);
        let pool = WorkerPool::new(1);
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..2).map(|_| mpsc::channel::<()>()).unzip();
        let waiting = Arc::new(AtomicUsize::new(0));
        let held_items = {
            let (pool, waiting) = (Arc::clone(&pool), Arc::clone(&waiting));
            std::thread::spawn(move || {
                pool.scatter(receivers, |rx| {
                    waiting.fetch_add(1, Ordering::SeqCst);
                    rx.recv_timeout(hold).is_ok()
                })
            })
        };
        // Both held items are running: one on the spawning thread, one
        // on the only worker.
        let deadline = Instant::now() + Duration::from_secs(5);
        while waiting.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }

        let started = Instant::now();
        let doubled = pool.scatter((0..4).collect(), |i: usize| i * 2);
        let took = started.elapsed();
        for tx in senders {
            let _ = tx.send(());
        }
        assert_eq!(doubled, vec![0, 2, 4, 6]);
        assert!(
            took < hold / 4,
            "a scatter waited {took:?} for a busy worker"
        );
        assert_eq!(
            held_items.join().unwrap(),
            vec![true, true],
            "released by the signal"
        );
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

    #[test]
    fn utilization_covers_the_interval_since_the_previous_snapshot() {
        let pool = WorkerPool::new(2);
        std::thread::sleep(Duration::from_millis(50));
        pool.metrics_snapshot();
        pool.scatter((0..4).collect(), |_: usize| {
            std::thread::sleep(Duration::from_millis(25))
        });
        // Helpers account their time just after their last item.
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.shared.tasks.load(Ordering::Relaxed) < 4 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(5));
        let busy = pool.metrics_snapshot();
        std::thread::sleep(Duration::from_millis(50));
        let idle = pool.metrics_snapshot();
        assert!(busy.utilization > 0.0, "{busy:?}");
        assert_eq!(idle.utilization, 0.0, "nothing ran since the last snapshot");
        assert_eq!(
            idle.busy_nanos, busy.busy_nanos,
            "busy time stays cumulative"
        );
        assert!(idle.wall_nanos > busy.wall_nanos);
    }
}
