//! Group commit: a committer thread batches concurrent durable-append
//! requests into one write + one fsync.
//!
//! Appenders enqueue framed bytes under the queue lock (preserving
//! append order); callers that need durability also enqueue a waiter
//! and block on it. The committer drains the queue, sleeps out the
//! batching window (`WalConfig::group_commit_window`) so
//! stragglers can join, writes the whole batch once and fsyncs once —
//! then wakes every waiter in the batch. A write/fsync failure fails
//! the whole batch and poisons the log: no later append can succeed,
//! because its ordering prefix was lost.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use hana_types::{HanaError, Result};

use super::segment::LogWriter;

/// One blocked durable append.
pub(crate) struct Waiter {
    done: Mutex<Option<std::result::Result<(), String>>>,
    cond: Condvar,
}

impl Waiter {
    fn new() -> Arc<Waiter> {
        Arc::new(Waiter {
            done: Mutex::new(None),
            cond: Condvar::new(),
        })
    }

    fn complete(&self, result: std::result::Result<(), String>) {
        *self.done.lock().expect("waiter lock") = Some(result);
        self.cond.notify_all();
    }

    fn wait(&self) -> Result<()> {
        let mut done = self.done.lock().expect("waiter lock");
        while done.is_none() {
            done = self.cond.wait(done).expect("waiter lock");
        }
        done.take().expect("checked above").map_err(HanaError::Io)
    }
}

/// A handle to one durable append: created at enqueue time (fixing the
/// record's position in the log), redeemed with [`DurableTicket::wait`]
/// once the caller is ready to block for the fsync.
pub struct DurableTicket(pub(crate) TicketInner);

pub(crate) enum TicketInner {
    /// Already decided (in-memory logs, per-commit mode, poisoned log).
    Ready(std::result::Result<(), String>),
    /// Waiting on the group committer.
    Pending(Arc<Waiter>),
}

impl DurableTicket {
    /// Block until the record is durable (or the log failed).
    pub fn wait(self) -> Result<()> {
        match self.0 {
            TicketInner::Ready(r) => r.map_err(HanaError::Io),
            TicketInner::Pending(w) => w.wait(),
        }
    }
}

struct QueueState {
    buf: Vec<u8>,
    waiters: Vec<Arc<Waiter>>,
    closed: bool,
    poisoned: Option<String>,
}

struct Shared {
    state: Mutex<QueueState>,
    cond: Condvar,
}

/// The group-commit engine: shared queue + committer thread.
pub(crate) struct GroupCommitter {
    shared: Arc<Shared>,
    seq: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl GroupCommitter {
    /// Spawn the committer thread over `writer`.
    pub(crate) fn spawn(mut writer: LogWriter, window: Duration) -> GroupCommitter {
        let seq = writer.seq_handle();
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                buf: Vec::new(),
                waiters: Vec::new(),
                closed: false,
                poisoned: None,
            }),
            cond: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("hana-wal-committer".into())
            .spawn(move || committer_loop(&thread_shared, &mut writer, window))
            .expect("spawn WAL committer");
        GroupCommitter {
            shared,
            seq,
            handle: Some(handle),
        }
    }

    /// Sequence number of the writer's active segment.
    pub(crate) fn active_seq(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    /// Enqueue framed bytes; `durable` also enqueues a waiter whose
    /// ticket resolves when the batch containing these bytes is synced.
    pub(crate) fn enqueue(&self, bytes: &[u8], durable: bool) -> DurableTicket {
        let mut st = self.shared.state.lock().expect("WAL queue lock");
        if let Some(why) = &st.poisoned {
            return DurableTicket(TicketInner::Ready(Err(why.clone())));
        }
        st.buf.extend_from_slice(bytes);
        let ticket = if durable {
            let w = Waiter::new();
            st.waiters.push(Arc::clone(&w));
            DurableTicket(TicketInner::Pending(w))
        } else {
            DurableTicket(TicketInner::Ready(Ok(())))
        };
        drop(st);
        self.shared.cond.notify_all();
        ticket
    }

    /// Durable barrier: everything enqueued before this call is on disk
    /// when it returns.
    pub(crate) fn sync(&self) -> Result<()> {
        self.enqueue(&[], true).wait()
    }

    /// Whether the log failed a write/fsync and refuses new appends.
    pub(crate) fn poisoned(&self) -> Option<String> {
        self.shared
            .state
            .lock()
            .expect("WAL queue lock")
            .poisoned
            .clone()
    }
}

impl Drop for GroupCommitter {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("WAL queue lock");
            st.closed = true;
        }
        self.shared.cond.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn committer_loop(shared: &Shared, writer: &mut LogWriter, window: Duration) {
    let reg = hana_obs::registry();
    loop {
        // Wait for work (or shutdown).
        {
            let mut st = shared.state.lock().expect("WAL queue lock");
            while st.buf.is_empty() && st.waiters.is_empty() && !st.closed {
                st = shared.cond.wait(st).expect("WAL queue lock");
            }
            if st.buf.is_empty() && st.waiters.is_empty() && st.closed {
                return;
            }
        }
        // Batching window: let concurrent committers pile into this
        // batch before paying for the fsync. The lock is *not* held.
        if !window.is_zero() {
            std::thread::sleep(window);
        }
        // Drain the batch.
        let (bytes, waiters) = {
            let mut st = shared.state.lock().expect("WAL queue lock");
            (std::mem::take(&mut st.buf), std::mem::take(&mut st.waiters))
        };
        // One write, one fsync for the whole batch; durability is only
        // needed when someone is waiting on it.
        let result = writer.write_batch(&bytes).and_then(|()| {
            if waiters.is_empty() {
                Ok(())
            } else {
                writer.sync()
            }
        });
        match result {
            Ok(()) => {
                if !waiters.is_empty() {
                    reg.counter("hana_wal_group_commits_total").inc();
                    reg.histogram("hana_wal_group_commit_txns")
                        .record(waiters.len() as u64);
                }
                for w in waiters {
                    w.complete(Ok(()));
                }
            }
            Err(e) => {
                // The batch is lost: fail its waiters and poison the
                // log — later records would be durable without their
                // prefix, breaking committed-prefix recovery.
                let why = format!("WAL append lost: {e}");
                {
                    let mut st = shared.state.lock().expect("WAL queue lock");
                    st.poisoned = Some(why.clone());
                    st.buf.clear();
                    for w in st.waiters.drain(..) {
                        w.complete(Err(why.clone()));
                    }
                }
                hana_obs::warn(why.clone());
                for w in waiters {
                    w.complete(Err(why.clone()));
                }
            }
        }
    }
}
