//! Group commit without a window or a thread: the committing thread
//! leads the flush.
//!
//! Appenders add framed bytes to one shared buffer under the queue lock
//! (which fixes the log order). A durable append gets a ticket naming
//! the queue position its bytes end at. Redeeming it either finds those
//! bytes already synced, or — when no flush is running — makes the
//! caller the leader: it takes the whole buffer, drops the queue lock,
//! writes and fsyncs it once under the writer lock, publishes how far
//! the log is synced and wakes everyone. A caller that finds a flush
//! running waits for it and checks again, so the next group is whatever
//! arrived during that fsync: batching happens under load, and a lone
//! committer never waits for company. A failed write or fsync poisons
//! the log: every ticket in or after that flush fails, because its
//! ordering prefix was lost.

use std::sync::{Arc, Condvar, Mutex};

use hana_obs::{Counter, Histogram};
use hana_types::{HanaError, Result};

use super::frame::encode_frame;
use super::segment::LogWriter;

/// A handle to one durable append: created at enqueue time (fixing the
/// record's position in the log), redeemed with [`DurableTicket::wait`]
/// once the caller is ready to block for the fsync.
pub struct DurableTicket(pub(crate) TicketInner);

pub(crate) enum TicketInner {
    /// Already decided (in-memory logs, non-durable appends, poisoned log).
    Ready(std::result::Result<(), String>),
    /// Durable once `log` is synced through queue position `end`.
    Pending { log: Arc<GroupLog>, end: u64 },
}

impl DurableTicket {
    /// Block until the record is durable (or the log failed), leading
    /// the flush when none is running.
    pub fn wait(self) -> Result<()> {
        match self.0 {
            TicketInner::Ready(r) => r.map_err(HanaError::Io),
            TicketInner::Pending { log, end } => log.wait_synced(end),
        }
    }
}

struct Queue {
    /// Framed bytes not yet taken by a leader.
    buf: Vec<u8>,
    /// Queue position past the last enqueued byte.
    enqueued: u64,
    /// Queue position through which the log is on disk.
    synced: u64,
    /// Durable tickets (and syncs) whose bytes are in `buf`.
    tickets: u64,
    /// A leader is writing and syncing a taken buffer.
    flushing: bool,
    poisoned: Option<String>,
}

/// The durable log's shared state: the append queue and the writer.
pub(crate) struct GroupLog {
    queue: Mutex<Queue>,
    /// Signalled whenever a flush ends.
    flushed: Condvar,
    writer: Mutex<LogWriter>,
    groups: GroupInstruments,
}

/// `hana_wal_group_commits_total` and `hana_wal_group_commit_txns`.
struct GroupInstruments {
    commits: Arc<Counter>,
    txns: Arc<Histogram>,
}

impl GroupLog {
    pub(crate) fn new(writer: LogWriter) -> Arc<GroupLog> {
        Arc::new(GroupLog {
            queue: Mutex::new(Queue {
                buf: Vec::new(),
                enqueued: 0,
                synced: 0,
                tickets: 0,
                flushing: false,
                poisoned: None,
            }),
            flushed: Condvar::new(),
            writer: Mutex::new(writer),
            groups: GroupInstruments {
                commits: hana_obs::registry().counter("hana_wal_group_commits_total"),
                txns: hana_obs::registry().histogram("hana_wal_group_commit_txns"),
            },
        })
    }

    /// Run `f` on the writer, holding its lock: no flush writes while
    /// it runs, so the files end on a whole frame.
    pub(crate) fn with_writer<T>(&self, f: impl FnOnce(&mut LogWriter) -> T) -> T {
        f(&mut self.writer.lock().expect("WAL writer lock"))
    }

    /// Frame `payload` onto the buffer. Returns a ticket that, for
    /// `durable`, resolves once the flush holding the frame is synced;
    /// a poisoned log enqueues nothing and says why.
    pub(crate) fn enqueue(
        self: &Arc<Self>,
        payload: &[u8],
        durable: bool,
    ) -> std::result::Result<DurableTicket, String> {
        let mut q = self.queue.lock().expect("WAL queue lock");
        if let Some(why) = &q.poisoned {
            return Err(why.clone());
        }
        let before = q.buf.len();
        encode_frame(payload, &mut q.buf);
        q.enqueued += (q.buf.len() - before) as u64;
        if !durable {
            return Ok(DurableTicket(TicketInner::Ready(Ok(()))));
        }
        q.tickets += 1;
        Ok(DurableTicket(TicketInner::Pending {
            log: Arc::clone(self),
            end: q.enqueued,
        }))
    }

    /// Durable barrier: everything enqueued before this call is on disk
    /// when it returns.
    pub(crate) fn sync(&self) -> Result<()> {
        let end = {
            let mut q = self.queue.lock().expect("WAL queue lock");
            // Bytes already taken ride the running flush, which counted
            // its own tickets.
            if !q.buf.is_empty() {
                q.tickets += 1;
            }
            q.enqueued
        };
        self.wait_synced(end)
    }

    /// Whether the log failed a write/fsync and refuses new appends.
    pub(crate) fn poisoned(&self) -> Option<String> {
        self.queue.lock().expect("WAL queue lock").poisoned.clone()
    }

    /// Block until the log is synced through `end`, leading a flush
    /// whenever none is running.
    fn wait_synced(&self, end: u64) -> Result<()> {
        let mut q = self.queue.lock().expect("WAL queue lock");
        loop {
            if q.synced >= end {
                return Ok(());
            }
            if let Some(why) = &q.poisoned {
                return Err(HanaError::Io(why.clone()));
            }
            if q.flushing {
                q = self.flushed.wait(q).expect("WAL queue lock");
                continue;
            }
            // Lead: everything enqueued so far goes out in this flush.
            q.flushing = true;
            let mut bytes = std::mem::take(&mut q.buf);
            let flush_end = q.enqueued;
            let txns = std::mem::take(&mut q.tickets);
            drop(q);
            let result = {
                let mut writer = self.writer.lock().expect("WAL writer lock");
                flush(&mut writer, &self.groups, &bytes, txns)
            };
            q = self.queue.lock().expect("WAL queue lock");
            q.flushing = false;
            match result {
                Ok(()) => {
                    q.synced = flush_end;
                    // Hand the allocation back for the next group.
                    if q.buf.is_empty() {
                        bytes.clear();
                        q.buf = bytes;
                    }
                }
                Err(e) => {
                    // Later records would be durable without their
                    // prefix, breaking committed-prefix recovery.
                    let why = format!("WAL append lost: {e}");
                    hana_obs::warn(why.clone());
                    q.poisoned = Some(why);
                    q.buf.clear();
                }
            }
            self.flushed.notify_all();
        }
    }
}

/// One write and one fsync for a taken buffer of `txns` tickets.
fn flush(writer: &mut LogWriter, groups: &GroupInstruments, bytes: &[u8], txns: u64) -> Result<()> {
    let span = hana_obs::span("fsync");
    span.attr("txns", txns);
    span.set_bytes(bytes.len() as u64);
    writer.write_batch(bytes)?;
    writer.sync()?;
    groups.commits.inc();
    groups.txns.record(txns);
    Ok(())
}

impl Drop for GroupLog {
    /// The last handle (the log or an unredeemed ticket) writes and
    /// syncs whatever non-durable appends are still buffered. A lock
    /// poisoned by a panic mid-flush leaves the log as it is.
    fn drop(&mut self) {
        let (Ok(q), Ok(writer)) = (self.queue.get_mut(), self.writer.get_mut()) else {
            return;
        };
        if q.poisoned.is_some() || q.buf.is_empty() {
            return;
        }
        if let Err(e) = flush(writer, &self.groups, &q.buf, q.tickets) {
            hana_obs::warn(format!("WAL append lost at close: {e}"));
        }
    }
}
