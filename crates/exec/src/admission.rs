//! Workload-class admission control for the execution pool.
//!
//! The session layer classifies each statement into a workload class
//! (OLTP point lookups, OLAP scans/aggregates, …) and asks the
//! [`AdmissionController`] for a slot before touching the pool. Each
//! class has a concurrency limit, a bounded FIFO wait queue and a
//! priority; a shared total limit (optional) caps the classes
//! together. Admission is strictly work-conserving: a slot is never
//! left idle while an admissible waiter exists, and among admissible
//! waiters contending for shared headroom, higher-priority classes are
//! served first.
//!
//! Rejections are immediate (`QueueFull`) or timed (`Timeout`); the
//! caller maps them onto its error taxonomy (the platform uses the
//! retryable `overloaded` kind — backing off and resubmitting is the
//! intended client response).

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Configuration of one workload class.
#[derive(Debug, Clone)]
pub struct ClassConfig {
    /// Class name; becomes the `{class}` label on the admission
    /// metrics (`hana_admission_running_{class}`, …).
    pub name: String,
    /// Statements of this class running at once, at most.
    pub max_concurrent: usize,
    /// Statements allowed to wait for a slot; arrivals beyond this are
    /// rejected with [`Rejection::QueueFull`].
    pub max_queue: usize,
    /// How long a statement may wait before [`Rejection::Timeout`].
    pub queue_timeout: Duration,
    /// Larger wins when classes contend for shared headroom.
    pub priority: u8,
}

impl ClassConfig {
    /// A class with the given name and concurrency limit, a queue of
    /// the same size, a one-second timeout and priority 0.
    pub fn new(name: &str, max_concurrent: usize) -> ClassConfig {
        ClassConfig {
            name: name.to_string(),
            max_concurrent: max_concurrent.max(1),
            max_queue: max_concurrent.max(1),
            queue_timeout: Duration::from_secs(1),
            priority: 0,
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

    /// Set the priority (larger wins).
    pub fn with_priority(mut self, priority: u8) -> ClassConfig {
        self.priority = priority;
        self
    }
}

/// Why a statement was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// The class is at capacity and its wait queue is full.
    QueueFull {
        /// The class that rejected the statement.
        class: String,
        /// The configured queue bound that was hit.
        max_queue: usize,
    },
    /// The statement waited the full queue timeout without a slot.
    Timeout {
        /// The class that rejected the statement.
        class: String,
        /// How long the statement waited.
        waited: Duration,
    },
    /// The class name is not configured.
    UnknownClass(String),
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
            Rejection::UnknownClass(c) => write!(f, "unknown workload class '{c}'"),
        }
    }
}

struct ClassState {
    cfg: ClassConfig,
    running: usize,
    /// Peak of `running` since construction (proof, in tests and
    /// benches, that the limit actually bound the concurrency).
    peak_running: usize,
    /// Tickets of waiting statements, FIFO. A waiter is admitted only
    /// when its ticket is at the front, so arrival order holds within
    /// a class.
    queue: Vec<u64>,
}

struct ControllerState {
    classes: Vec<ClassState>,
    total_running: usize,
    next_ticket: u64,
}

/// Per-class concurrency limits with bounded, prioritized wait queues.
pub struct AdmissionController {
    state: Mutex<ControllerState>,
    cv: Condvar,
    /// Shared cap across all classes (`None` = per-class limits only).
    total_limit: Option<usize>,
}

impl AdmissionController {
    /// A controller over the given classes. `total_limit`, when set,
    /// caps the sum of running statements across classes.
    pub fn new(classes: Vec<ClassConfig>, total_limit: Option<usize>) -> AdmissionController {
        AdmissionController {
            state: Mutex::new(ControllerState {
                classes: classes
                    .into_iter()
                    .map(|cfg| ClassState {
                        cfg,
                        running: 0,
                        peak_running: 0,
                        queue: Vec::new(),
                    })
                    .collect(),
                total_running: 0,
                next_ticket: 0,
            }),
            cv: Condvar::new(),
            total_limit,
        }
    }

    /// Block until a slot for `class` frees up (or the class's queue
    /// timeout elapses) and return a permit that holds the slot until
    /// dropped.
    pub fn admit(&self, class: &str) -> Result<AdmissionPermit<'_>, Rejection> {
        let obs = hana_obs::registry();
        let start = Instant::now();
        let mut st = self.state.lock().unwrap();
        let idx = st
            .classes
            .iter()
            .position(|c| c.cfg.name == class)
            .ok_or_else(|| Rejection::UnknownClass(class.to_string()))?;

        if self.admissible(&st, idx, None) {
            let stats = self.grant(&mut st, idx);
            drop(st);
            return Ok(self.permit(idx, class, start, stats, obs));
        }

        // Must wait: reject immediately when the queue is full.
        if st.classes[idx].queue.len() >= st.classes[idx].cfg.max_queue {
            obs.counter(&format!("hana_admission_rejected_total_{class}"))
                .inc();
            return Err(Rejection::QueueFull {
                class: class.to_string(),
                max_queue: st.classes[idx].cfg.max_queue,
            });
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.classes[idx].queue.push(ticket);
        obs.gauge(&format!("hana_admission_queued_{class}"))
            .set(st.classes[idx].queue.len() as i64);
        obs.counter(&format!("hana_admission_queued_total_{class}"))
            .inc();

        let timeout = st.classes[idx].cfg.queue_timeout;
        let deadline = start + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                // Give up: withdraw the ticket and wake others (our
                // departure may unblock a lower-priority waiter).
                let pos = st.classes[idx].queue.iter().position(|&t| t == ticket);
                if let Some(pos) = pos {
                    st.classes[idx].queue.remove(pos);
                }
                obs.gauge(&format!("hana_admission_queued_{class}"))
                    .set(st.classes[idx].queue.len() as i64);
                obs.counter(&format!("hana_admission_timeout_total_{class}"))
                    .inc();
                self.cv.notify_all();
                return Err(Rejection::Timeout {
                    class: class.to_string(),
                    waited: start.elapsed(),
                });
            }
            let (guard, _res) = self.cv.wait_timeout(st, deadline - now).unwrap();
            st = guard;
            if st.classes[idx].queue.first() == Some(&ticket)
                && self.admissible(&st, idx, Some(ticket))
            {
                st.classes[idx].queue.remove(0);
                obs.gauge(&format!("hana_admission_queued_{class}"))
                    .set(st.classes[idx].queue.len() as i64);
                let stats = self.grant(&mut st, idx);
                drop(st);
                obs.histogram(&format!("hana_admission_wait_ns_{class}"))
                    .record(start.elapsed().as_nanos() as u64);
                return Ok(self.permit(idx, class, start, stats, obs));
            }
        }
    }

    /// Whether a statement of class `idx` could start right now.
    ///
    /// Three conditions: class headroom; FIFO order (an already-queued
    /// waiter ahead of us wins — `ticket` is our own queue entry, if
    /// any); and, when a shared total limit applies, no higher-priority
    /// class with headroom has waiters that the remaining shared slots
    /// should serve first.
    fn admissible(&self, st: &ControllerState, idx: usize, ticket: Option<u64>) -> bool {
        let class = &st.classes[idx];
        if class.running >= class.cfg.max_concurrent {
            return false;
        }
        match ticket {
            // A new arrival must not overtake queued statements.
            None if !class.queue.is_empty() => return false,
            // A queued statement is only considered at the front.
            Some(t) if class.queue.first() != Some(&t) => return false,
            _ => {}
        }
        if let Some(total) = self.total_limit {
            let available = total.saturating_sub(st.total_running);
            if available == 0 {
                return false;
            }
            // Reserve shared slots for higher-priority waiters that
            // could use them.
            let higher_demand: usize = st
                .classes
                .iter()
                .filter(|c| c.cfg.priority > class.cfg.priority)
                .map(|c| {
                    c.queue
                        .len()
                        .min(c.cfg.max_concurrent.saturating_sub(c.running))
                })
                .sum();
            if available <= higher_demand {
                return false;
            }
        }
        true
    }

    /// Take a slot; returns `(running, peak_running)` after the grant
    /// so callers can publish gauges outside the lock.
    fn grant(&self, st: &mut ControllerState, idx: usize) -> (usize, usize) {
        st.classes[idx].running += 1;
        st.total_running += 1;
        if st.classes[idx].running > st.classes[idx].peak_running {
            st.classes[idx].peak_running = st.classes[idx].running;
        }
        (st.classes[idx].running, st.classes[idx].peak_running)
    }

    /// Build the permit and publish admission metrics. Must be called
    /// WITHOUT the state lock held.
    fn permit<'a>(
        &'a self,
        idx: usize,
        class: &str,
        start: Instant,
        (running, peak): (usize, usize),
        obs: &hana_obs::Registry,
    ) -> AdmissionPermit<'a> {
        obs.gauge(&format!("hana_admission_running_{class}"))
            .set(running as i64);
        obs.gauge(&format!("hana_admission_peak_running_{class}"))
            .set(peak as i64);
        obs.counter(&format!("hana_admission_admitted_total_{class}"))
            .inc();
        AdmissionPermit {
            controller: self,
            idx,
            class: class.to_string(),
            admitted_after: start.elapsed(),
        }
    }

    /// `(running, queued, peak_running)` for a class, for tests and
    /// observability refreshes.
    pub fn class_stats(&self, class: &str) -> Option<(usize, usize, usize)> {
        let st = self.state.lock().unwrap();
        st.classes
            .iter()
            .find(|c| c.cfg.name == class)
            .map(|c| (c.running, c.queue.len(), c.peak_running))
    }

    /// Total statements currently running across all classes.
    pub fn total_running(&self) -> usize {
        self.state.lock().unwrap().total_running
    }
}

/// Holds one admitted slot; dropping releases it and wakes waiters.
pub struct AdmissionPermit<'a> {
    controller: &'a AdmissionController,
    idx: usize,
    class: String,
    admitted_after: Duration,
}

impl AdmissionPermit<'_> {
    /// How long the statement waited before admission.
    pub fn admitted_after(&self) -> Duration {
        self.admitted_after
    }

    /// The class this permit belongs to.
    pub fn class(&self) -> &str {
        &self.class
    }
}

impl std::fmt::Debug for AdmissionPermit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionPermit")
            .field("class", &self.class)
            .field("admitted_after", &self.admitted_after)
            .finish()
    }
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let mut st = self.controller.state.lock().unwrap();
        st.classes[self.idx].running -= 1;
        st.total_running -= 1;
        hana_obs::registry()
            .gauge(&format!("hana_admission_running_{}", self.class))
            .set(st.classes[self.idx].running as i64);
        drop(st);
        self.controller.cv.notify_all();
    }
}

/// Build a controller from `(name, limit)` pairs with default queues,
/// timeouts and priorities — test/bench convenience.
pub fn controller_of(pairs: &[(&str, usize)]) -> AdmissionController {
    AdmissionController::new(
        pairs.iter().map(|(n, l)| ClassConfig::new(n, *l)).collect(),
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn admits_within_limit_and_rejects_when_queue_full() {
        let ctl = AdmissionController::new(vec![ClassConfig::new("olap", 1).with_queue(0)], None);
        let p = ctl.admit("olap").unwrap();
        assert_eq!(ctl.class_stats("olap"), Some((1, 0, 1)));
        let err = ctl.admit("olap").unwrap_err();
        assert!(matches!(err, Rejection::QueueFull { max_queue: 0, .. }));
        drop(p);
        assert_eq!(ctl.class_stats("olap"), Some((0, 0, 1)));
        let _p2 = ctl.admit("olap").unwrap();
    }

    #[test]
    fn queue_timeout_rejects_after_waiting() {
        let ctl = AdmissionController::new(
            vec![ClassConfig::new("olap", 1)
                .with_queue(4)
                .with_timeout(Duration::from_millis(20))],
            None,
        );
        let _held = ctl.admit("olap").unwrap();
        let start = Instant::now();
        let err = ctl.admit("olap").unwrap_err();
        assert!(matches!(err, Rejection::Timeout { .. }));
        assert!(start.elapsed() >= Duration::from_millis(20));
        // The withdrawn ticket must not strand the queue.
        assert_eq!(ctl.class_stats("olap"), Some((1, 0, 1)));
    }

    #[test]
    fn unknown_class_is_rejected() {
        let ctl = controller_of(&[("oltp", 4)]);
        assert!(matches!(ctl.admit("nope"), Err(Rejection::UnknownClass(_))));
    }

    #[test]
    fn concurrency_is_bounded_under_contention() {
        let ctl = Arc::new(AdmissionController::new(
            vec![ClassConfig::new("olap", 2)
                .with_queue(64)
                .with_timeout(Duration::from_secs(10))],
            None,
        ));
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let (ctl, running, peak) =
                    (Arc::clone(&ctl), Arc::clone(&running), Arc::clone(&peak));
                std::thread::spawn(move || {
                    let _p = ctl.admit("olap").unwrap();
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
        assert_eq!(ctl.class_stats("olap").unwrap().2, 2, "peak gauge");
    }

    #[test]
    fn shared_total_limit_prefers_higher_priority() {
        // One shared slot; oltp outranks olap. Hold the slot via olap,
        // queue one waiter of each class, then release: the oltp waiter
        // must win the freed slot.
        let ctl = Arc::new(AdmissionController::new(
            vec![
                ClassConfig::new("oltp", 4)
                    .with_queue(8)
                    .with_timeout(Duration::from_secs(5))
                    .with_priority(10),
                ClassConfig::new("olap", 4)
                    .with_queue(8)
                    .with_timeout(Duration::from_secs(5))
                    .with_priority(1),
            ],
            Some(1),
        ));
        let held = ctl.admit("olap").unwrap();

        let order = Arc::new(Mutex::new(Vec::new()));
        let spawn = |class: &'static str| {
            let (ctl, order) = (Arc::clone(&ctl), Arc::clone(&order));
            std::thread::spawn(move || {
                let _p = ctl.admit(class).unwrap();
                order.lock().unwrap().push(class);
                std::thread::sleep(Duration::from_millis(5));
            })
        };
        let h_olap = spawn("olap");
        // Ensure the olap waiter queues first, then add the oltp waiter.
        while ctl.class_stats("olap").unwrap().1 == 0 {
            std::thread::yield_now();
        }
        let h_oltp = spawn("oltp");
        while ctl.class_stats("oltp").unwrap().1 == 0 {
            std::thread::yield_now();
        }

        drop(held);
        h_oltp.join().unwrap();
        h_olap.join().unwrap();
        assert_eq!(
            *order.lock().unwrap(),
            vec!["oltp", "olap"],
            "higher priority takes the freed shared slot despite queuing later"
        );
    }
}
