//! Admission control: one workload class's slot pool.
//!
//! The session layer classifies each statement into a workload class
//! (OLTP point lookups and DML, OLAP scans and aggregates) and asks that
//! class's [`AdmissionController`] for a slot before touching the pool.
//! A controller has a concurrency limit, a bounded FIFO wait queue and a
//! queue timeout, behind a mutex and condition variable of its own:
//! pools share no slot and no lock, so one class's load never delays
//! another class's statements. Within a pool admission is
//! work-conserving and FIFO — a slot never idles while a statement
//! waits, and waiters are admitted in arrival order.
//!
//! Rejections are immediate (`QueueFull`) or timed (`Timeout`); the
//! caller maps them onto its error taxonomy (the platform uses the
//! retryable `overloaded` kind — backing off and resubmitting is the
//! intended client response). A pool's `hana_admission_*_<class>`
//! instruments are resolved when it is built.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use hana_obs::{Counter, Gauge, Histogram};

/// The limits of one workload class.
#[derive(Debug, Clone)]
pub struct ClassConfig {
    /// Statements of this class running at once, at most.
    pub max_concurrent: usize,
    /// Statements allowed to wait for a slot; arrivals beyond this are
    /// rejected with [`Rejection::QueueFull`].
    pub max_queue: usize,
    /// How long a statement may wait before [`Rejection::Timeout`].
    pub queue_timeout: Duration,
}

impl ClassConfig {
    /// A class with the given concurrency limit, a queue of the same
    /// size and a one-second timeout.
    pub fn new(max_concurrent: usize) -> ClassConfig {
        ClassConfig {
            max_concurrent: max_concurrent.max(1),
            max_queue: max_concurrent.max(1),
            queue_timeout: Duration::from_secs(1),
        }
    }

    /// Set the queue bound.
    pub fn with_queue(mut self, max_queue: usize) -> ClassConfig {
        self.max_queue = max_queue;
        self
    }

    /// Set the queue timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> ClassConfig {
        self.queue_timeout = timeout;
        self
    }
}

/// Why a statement was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// The class is at capacity and its wait queue is full.
    QueueFull {
        /// The class that rejected the statement.
        class: &'static str,
        /// The configured queue bound that was hit.
        max_queue: usize,
    },
    /// The statement waited the full queue timeout without a slot.
    Timeout {
        /// The class that rejected the statement.
        class: &'static str,
        /// How long the statement waited.
        waited: Duration,
    },
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::QueueFull { class, max_queue } => write!(
                f,
                "workload class '{class}' at capacity and its queue of {max_queue} is full"
            ),
            Rejection::Timeout { class, waited } => write!(
                f,
                "statement waited {waited:?} for a '{class}' slot without being admitted"
            ),
        }
    }
}

/// A pool's instruments in the global `hana-obs` registry:
/// `hana_admission_{running,peak_running,queued}_<class>` gauges,
/// `hana_admission_{admitted,queued,rejected,timeout}_total_<class>`
/// counters and the `hana_admission_wait_ns_<class>` histogram.
struct Instruments {
    running: Arc<Gauge>,
    peak_running: Arc<Gauge>,
    queued: Arc<Gauge>,
    admitted_total: Arc<Counter>,
    queued_total: Arc<Counter>,
    rejected_total: Arc<Counter>,
    timeout_total: Arc<Counter>,
    wait_ns: Arc<Histogram>,
}

impl Instruments {
    fn of(class: &str) -> Instruments {
        let obs = hana_obs::registry();
        let name = |metric: &str| format!("hana_admission_{metric}_{class}");
        Instruments {
            running: obs.gauge(&name("running")),
            peak_running: obs.gauge(&name("peak_running")),
            queued: obs.gauge(&name("queued")),
            admitted_total: obs.counter(&name("admitted_total")),
            queued_total: obs.counter(&name("queued_total")),
            rejected_total: obs.counter(&name("rejected_total")),
            timeout_total: obs.counter(&name("timeout_total")),
            wait_ns: obs.histogram(&name("wait_ns")),
        }
    }
}

struct Slots {
    running: usize,
    /// Peak of `running` since construction (proof, in tests and
    /// benches, that the limit actually bound the concurrency).
    peak_running: usize,
    /// Tickets of waiting statements in arrival order. Only the front
    /// ticket may take a freed slot, so arrival order holds.
    queue: VecDeque<u64>,
    next_ticket: u64,
}

/// One workload class's slots: a concurrency limit with a bounded FIFO
/// wait queue and a queue timeout.
pub struct AdmissionController {
    class: &'static str,
    cfg: ClassConfig,
    slots: Mutex<Slots>,
    /// Signalled when the front waiter may be able to take a slot.
    admissible: Condvar,
    obs: Instruments,
}

impl AdmissionController {
    /// The pool of workload class `class` (its metric label) with the
    /// given limits.
    pub fn new(class: &'static str, cfg: ClassConfig) -> AdmissionController {
        AdmissionController {
            class,
            cfg,
            slots: Mutex::new(Slots {
                running: 0,
                peak_running: 0,
                queue: VecDeque::new(),
                next_ticket: 0,
            }),
            admissible: Condvar::new(),
            obs: Instruments::of(class),
        }
    }

    /// Block until a slot frees up (or the queue timeout elapses) and
    /// return a permit that holds the slot until dropped.
    pub fn admit(&self) -> Result<AdmissionPermit<'_>, Rejection> {
        let start = Instant::now();
        let mut slots = self.lock();
        // A new arrival never overtakes a queued statement.
        if slots.queue.is_empty() && slots.running < self.cfg.max_concurrent {
            self.grant(&mut slots);
            return Ok(self.permit(start));
        }
        if slots.queue.len() >= self.cfg.max_queue {
            drop(slots);
            self.obs.rejected_total.inc();
            return Err(Rejection::QueueFull {
                class: self.class,
                max_queue: self.cfg.max_queue,
            });
        }
        let ticket = slots.next_ticket;
        slots.next_ticket += 1;
        slots.queue.push_back(ticket);
        self.obs.queued.set(slots.queue.len() as i64);
        self.obs.queued_total.inc();

        let deadline = start + self.cfg.queue_timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                slots.queue.retain(|&t| t != ticket);
                self.obs.queued.set(slots.queue.len() as i64);
                // We could not be admitted (no slot, or not at the
                // front), so our leaving makes no one else admissible.
                drop(slots);
                self.obs.timeout_total.inc();
                return Err(Rejection::Timeout {
                    class: self.class,
                    waited: start.elapsed(),
                });
            }
            slots = self
                .admissible
                .wait_timeout(slots, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            if slots.queue.front() == Some(&ticket) && slots.running < self.cfg.max_concurrent {
                slots.queue.pop_front();
                self.obs.queued.set(slots.queue.len() as i64);
                self.grant(&mut slots);
                // Two releases may have woken us together: the next
                // waiter may take the other slot.
                self.unlock(slots);
                self.obs.wait_ns.record(start.elapsed().as_nanos() as u64);
                return Ok(self.permit(start));
            }
        }
    }

    /// Take a slot.
    fn grant(&self, slots: &mut Slots) {
        slots.running += 1;
        self.obs.running.set(slots.running as i64);
        if slots.running > slots.peak_running {
            slots.peak_running = slots.running;
            self.obs.peak_running.set(slots.peak_running as i64);
        }
        self.obs.admitted_total.inc();
    }

    /// The slots. Every update under the lock is a single step that
    /// leaves them valid, so a guard poisoned by a panicking holder is
    /// recovered rather than propagated (a permit releases in `Drop`).
    fn lock(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn permit(&self, start: Instant) -> AdmissionPermit<'_> {
        AdmissionPermit {
            pool: self,
            admitted_after: start.elapsed(),
        }
    }

    /// Release the lock, waking the waiters only when the front one
    /// could take a slot now.
    fn unlock(&self, slots: MutexGuard<'_, Slots>) {
        let wake = !slots.queue.is_empty() && slots.running < self.cfg.max_concurrent;
        drop(slots);
        if wake {
            self.admissible.notify_all();
        }
    }

    /// `(running, queued, peak_running)`, for tests and observability
    /// refreshes.
    pub fn class_stats(&self) -> (usize, usize, usize) {
        let slots = self.lock();
        (slots.running, slots.queue.len(), slots.peak_running)
    }
}

/// Holds one admitted slot; dropping releases it and wakes waiters.
pub struct AdmissionPermit<'a> {
    pool: &'a AdmissionController,
    admitted_after: Duration,
}

impl AdmissionPermit<'_> {
    /// How long the statement waited before admission.
    pub fn admitted_after(&self) -> Duration {
        self.admitted_after
    }
}

impl std::fmt::Debug for AdmissionPermit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionPermit")
            .field("class", &self.pool.class)
            .field("admitted_after", &self.admitted_after)
            .finish()
    }
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let mut slots = self.pool.lock();
        slots.running -= 1;
        self.pool.obs.running.set(slots.running as i64);
        self.pool.unlock(slots);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn admits_within_limit_and_rejects_when_queue_full() {
        let ctl = AdmissionController::new("olap", ClassConfig::new(1).with_queue(0));
        let p = ctl.admit().unwrap();
        assert_eq!(ctl.class_stats(), (1, 0, 1));
        let err = ctl.admit().unwrap_err();
        assert!(matches!(err, Rejection::QueueFull { max_queue: 0, .. }));
        drop(p);
        assert_eq!(ctl.class_stats(), (0, 0, 1));
        let _p2 = ctl.admit().unwrap();
    }

    #[test]
    fn queue_timeout_rejects_after_waiting() {
        let ctl = AdmissionController::new(
            "olap",
            ClassConfig::new(1)
                .with_queue(4)
                .with_timeout(Duration::from_millis(20)),
        );
        let _held = ctl.admit().unwrap();
        let start = Instant::now();
        let err = ctl.admit().unwrap_err();
        assert!(matches!(err, Rejection::Timeout { .. }));
        assert!(start.elapsed() >= Duration::from_millis(20));
        // The withdrawn ticket must not strand the queue.
        assert_eq!(ctl.class_stats(), (1, 0, 1));
    }

    #[test]
    fn concurrency_is_bounded_under_contention() {
        let ctl = Arc::new(AdmissionController::new(
            "olap",
            ClassConfig::new(2)
                .with_queue(64)
                .with_timeout(Duration::from_secs(10)),
        ));
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let (ctl, running, peak) =
                    (Arc::clone(&ctl), Arc::clone(&running), Arc::clone(&peak));
                std::thread::spawn(move || {
                    let _p = ctl.admit().unwrap();
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(2));
                    running.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "observed {} concurrent, limit is 2",
            peak.load(Ordering::SeqCst)
        );
        assert_eq!(ctl.class_stats().2, 2, "peak gauge");
    }

    #[test]
    fn two_slots_freed_together_admit_two_waiters() {
        let timeout = Duration::from_secs(5);
        let ctl = Arc::new(AdmissionController::new(
            "olap",
            ClassConfig::new(2).with_timeout(timeout),
        ));
        // Waiters woken together race for the lock; repeat so that a
        // slot left idle by that race would show.
        for _round in 0..20 {
            let held = [ctl.admit().unwrap(), ctl.admit().unwrap()];
            // Counts the waiters admitted: the pool's active count also
            // includes the held permits not yet dropped.
            let admitted = Arc::new(AtomicUsize::new(0));
            let waiters: Vec<_> = (0..2)
                .map(|i| {
                    let (waiter_ctl, admitted) = (Arc::clone(&ctl), Arc::clone(&admitted));
                    let h = std::thread::spawn(move || {
                        let permit = waiter_ctl.admit().unwrap();
                        admitted.fetch_add(1, Ordering::SeqCst);
                        // Hold the slot until both waiters are in (or
                        // the other one has timed out).
                        let until = Instant::now() + timeout * 2;
                        while admitted.load(Ordering::SeqCst) < 2 && Instant::now() < until {
                            std::thread::yield_now();
                        }
                        permit.admitted_after()
                    });
                    while ctl.class_stats().1 != i + 1 {
                        std::thread::yield_now();
                    }
                    h
                })
                .collect();
            drop(held);
            for h in waiters {
                assert!(h.join().unwrap() < timeout);
            }
        }
        assert_eq!(ctl.class_stats(), (0, 0, 2));
    }
}
