//! The transaction manager / two-phase-commit coordinator.
//!
//! SAP HANA "coordinates the transaction, e.g. generating the transaction
//! IDs and commit IDs to integrate extended storage", and uses "the
//! improved two-phase commit protocol described in \[14\]" (§3.1). The
//! improvements modelled here, following Lee et al. (ICDE 2013):
//!
//! * **early commit acknowledgment** — the client is acknowledged as soon
//!   as the coordinator's commit record is durable; participant
//!   notifications happen after the ack (observable via
//!   [`CommitReceipt::post_ack_notifications`]);
//! * **read-only optimization** — participants voting
//!   [`Vote::ReadOnly`](crate::Vote::ReadOnly) skip phase 2 entirely;
//! * **in-doubt handling** — transactions that prepared but whose
//!   coordinator outcome is unknown after a crash are listed as in-doubt
//!   and can be manually aborted, exactly as the paper describes for a
//!   failed extended store.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use hana_types::{HanaError, Result};

use crate::participant::{TwoPhaseParticipant, Vote};
use crate::snapshot::Snapshot;
use crate::wal::{LogRecord, RecoveryReport, Wal};

/// A handle to a running transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnHandle {
    /// Transaction ID.
    pub tid: u64,
    /// The snapshot the transaction reads under.
    pub snapshot: Snapshot,
}

/// What [`TransactionManager::commit`] returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitReceipt {
    /// The commit ID assigned to the transaction.
    pub cid: u64,
    /// Participants notified *after* the commit point (phase 2) — with the
    /// early-ack optimization these run after the client could already
    /// have been acknowledged.
    pub post_ack_notifications: Vec<String>,
    /// Participants that skipped phase 2 thanks to the read-only vote.
    pub read_only_skipped: Vec<String>,
}

/// Where a checkpoint cuts the committed history
/// ([`TransactionManager::checkpoint_cut`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointCut {
    /// Every commit up to and including this CID has applied.
    pub cid: u64,
    /// The log segment active at the cut, when no transaction was: the
    /// segments below it hold no record of a commit above `cid`.
    prune_below: Option<u64>,
}

/// Central coordinator: allocates TIDs and CIDs, drives 2PC, owns the WAL.
pub struct TransactionManager {
    next_tid: AtomicU64,
    last_cid: AtomicU64,
    wal: Arc<Wal>,
    /// Serializes the commit point: CID assignment and the enqueue of
    /// the commit record happen under this lock, so commit records land
    /// in the log in CID order and any log prefix recovers to a
    /// contiguous committed prefix. The durability wait happens
    /// *outside* the lock — that is what lets a committer that finds a
    /// flush running join the next one, so concurrent commits share an
    /// fsync.
    commit_order: Mutex<()>,
    /// Held shared by every commit from CID assignment until its
    /// participants have applied;
    /// [`checkpoint_cut`](Self::checkpoint_cut) takes it exclusively to
    /// read a CID none of whose predecessors is still in flight.
    apply_gate: RwLock<()>,
    /// Transactions from `begin` until their CID is assigned (or they
    /// abort): the ones whose log records a checkpoint must not prune.
    active: Mutex<HashMap<u64, Snapshot>>,
    in_doubt: Mutex<Vec<(u64, Vec<String>)>>,
}

impl TransactionManager {
    /// A manager with a volatile WAL, which has nothing to resume from.
    pub fn new() -> TransactionManager {
        TransactionManager::recovered(Arc::new(Wal::in_memory()), &RecoveryReport::default())
    }

    /// A manager sharing `wal` (the platform holds a handle for data
    /// logging and checkpoints), resuming after `report` — what
    /// [`Wal::recover`] (or [`Wal::recover_records`]) returned for it,
    /// so a caller that replays the log reads it once.
    pub fn recovered(wal: Arc<Wal>, report: &RecoveryReport) -> TransactionManager {
        // Resume CIDs after the highest committed CID (checkpoint
        // included) and TIDs after the highest TID ever allocated — a
        // reused TID would merge two distinct transactions at replay.
        let ckpt_tid = wal.latest_checkpoint().map(|c| c.max_tid).unwrap_or(0);
        let max_tid = report.max_tid().max(ckpt_tid);
        TransactionManager {
            next_tid: AtomicU64::new(max_tid + 1),
            last_cid: AtomicU64::new(report.max_committed_cid()),
            wal,
            commit_order: Mutex::new(()),
            apply_gate: RwLock::new(()),
            active: Mutex::new(HashMap::new()),
            in_doubt: Mutex::new(Vec::new()),
        }
    }

    /// The shared write-ahead log.
    pub fn wal(&self) -> &Arc<Wal> {
        &self.wal
    }

    /// Begin a transaction; its snapshot sees everything committed so far.
    pub fn begin(&self) -> TxnHandle {
        let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
        let snapshot = Snapshot::at(self.last_cid.load(Ordering::SeqCst));
        // Active before its first record, so no checkpoint prunes it.
        self.active.lock().insert(tid, snapshot);
        // A Begin record is bookkeeping, not a commit point: losing it
        // only costs diagnostics, so a failed log is surfaced as a
        // warning here and as a hard error at the commit point.
        if let Err(e) = self.wal.append(LogRecord::Begin { tid }) {
            hana_obs::warn(format!("WAL Begin append failed for txn {tid}: {e}"));
        }
        TxnHandle { tid, snapshot }
    }

    /// The snapshot an auto-commit read should use right now.
    pub fn current_snapshot(&self) -> Snapshot {
        Snapshot::at(self.last_cid.load(Ordering::SeqCst))
    }

    /// The most recently assigned commit ID.
    pub fn last_commit_id(&self) -> u64 {
        self.last_cid.load(Ordering::SeqCst)
    }

    /// Cut for a checkpoint at a commit ID whose every predecessor
    /// (itself included) has been applied by its participants.
    /// [`last_commit_id`](Self::last_commit_id) runs ahead of it while a
    /// commit sits between CID assignment and phase 2: a snapshot cut
    /// there would record the CID as covered without its rows, and
    /// recovery would then skip the log records that carry them. Waits
    /// for in-flight commits to finish applying; commits arriving
    /// meanwhile queue behind the cut, which holds the gate only to read
    /// the counter and, when no transaction is active, the log's active
    /// segment: every record of a later commit lands in it or after it.
    pub fn checkpoint_cut(&self) -> CheckpointCut {
        let _quiesced = self.apply_gate.write();
        // The segment first: a transaction that begins after the idle
        // check appends only after it.
        let segment = self.wal.active_segment();
        let idle = self.active.lock().is_empty();
        CheckpointCut {
            cid: self.last_cid.load(Ordering::SeqCst),
            prune_below: idle.then_some(segment),
        }
    }

    /// Append a logical redo record for `tid`. The record is not
    /// individually fsynced — it becomes durable with (and strictly
    /// before) the transaction's commit record, which is all redo needs.
    /// `payload` runs only when the log stores the record: a volatile
    /// log builds no payload.
    pub fn log_data(&self, tid: u64, engine: &str, payload: impl FnOnce() -> String) -> Result<()> {
        self.wal.append_with(|| LogRecord::Data {
            tid,
            engine: engine.to_string(),
            payload: payload(),
        })
    }

    /// Redo: apply writes the log already holds, and log nothing.
    /// `buffer` stages them with every participant under a fresh TID;
    /// each participant then prepares and — unless it voted read-only —
    /// commits them under a fresh CID, which is returned. No record is
    /// appended and no snapshot is registered. On a failure every
    /// participant is rolled back, as a no-vote would roll it back.
    pub fn redo(
        &self,
        participants: &[Arc<dyn TwoPhaseParticipant>],
        buffer: impl FnOnce(u64) -> Result<()>,
    ) -> Result<u64> {
        let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
        let prepared = buffer(tid).and_then(|()| {
            participants
                .iter()
                .map(|p| Ok((p, p.prepare(tid)?)))
                .collect::<Result<Vec<_>>>()
        });
        let votes = match prepared {
            Ok(votes) => votes,
            Err(e) => {
                for p in participants {
                    let _ = p.abort(tid);
                }
                return Err(e);
            }
        };
        // As in `commit`: no checkpoint cut between the CID and the apply.
        let _applying = self.apply_gate.read();
        let cid = self.last_cid.fetch_add(1, Ordering::SeqCst) + 1;
        for (p, vote) in votes {
            if vote == Vote::Prepared {
                p.commit(tid, cid)?;
            }
        }
        Ok(cid)
    }

    /// Durably checkpoint `payload`, an opaque engine snapshot covering
    /// every commit up to and including `cut.cid` (the caller took the
    /// cut before capturing the snapshot, so every covered commit's rows
    /// are in it). The log segments sealed before the cut are pruned
    /// when no transaction was active at it.
    pub fn checkpoint(&self, cut: &CheckpointCut, payload: &[u8]) -> Result<()> {
        let max_tid = self.next_tid.load(Ordering::SeqCst).saturating_sub(1);
        self.wal
            .checkpoint(cut.cid, max_tid, payload, cut.prune_below)
    }

    /// Commit `txn` across `participants` with the improved 2PC.
    ///
    /// On any prepare failure every participant is rolled back and the
    /// whole transaction aborts — matching §3.1: "if that access is part
    /// of a transaction that also touches in-memory column tables in SAP
    /// HANA, the entire transaction will be aborted."
    pub fn commit(
        &self,
        txn: TxnHandle,
        participants: &[Arc<dyn TwoPhaseParticipant>],
    ) -> Result<CommitReceipt> {
        if !self.active.lock().contains_key(&txn.tid) {
            return Err(HanaError::Transaction(format!(
                "transaction {} is not active",
                txn.tid
            )));
        }

        // Phase 1: prepare everyone, logging each yes-vote.
        let mut votes: Vec<(String, Vote)> = Vec::with_capacity(participants.len());
        for p in participants {
            match p.prepare(txn.tid) {
                Ok(vote) => {
                    if vote == Vote::Prepared {
                        self.wal.append(LogRecord::Prepare {
                            tid: txn.tid,
                            participant: p.name().to_string(),
                        })?;
                    }
                    votes.push((p.name().to_string(), vote));
                }
                Err(e) => {
                    // A no-vote aborts every participant (including the
                    // one that failed, to release its resources).
                    for q in participants {
                        let _ = q.abort(txn.tid);
                    }
                    self.active.lock().remove(&txn.tid);
                    self.wal.append(LogRecord::Abort { tid: txn.tid })?;
                    return Err(HanaError::Transaction(format!(
                        "participant '{}' failed to prepare: {e}",
                        p.name()
                    )));
                }
            }
        }

        // Commit point: assign the CID and enqueue the commit record
        // under the ordering lock (so records hit the log in CID order),
        // then wait for durability *outside* it — this thread leads the
        // flush if none is running, else it waits for the running one,
        // and the commits queued meanwhile share the next. The apply
        // gate is held (shared) until phase 2 is done, so a checkpoint
        // cut never lands between this CID becoming visible and its
        // rows applying; the transaction stays active until its CID is
        // assigned under it, so a cut either covers it or saw it active.
        let _applying = self.apply_gate.read();
        let (cid, ticket) = {
            let _order = self.commit_order.lock();
            let cid = self.last_cid.fetch_add(1, Ordering::SeqCst) + 1;
            let ticket = self
                .wal
                .submit_durable(LogRecord::Commit { tid: txn.tid, cid });
            (cid, ticket)
        };
        self.active.lock().remove(&txn.tid);
        let durable = {
            let _wait = hana_obs::span("commit_wait");
            ticket.wait()
        };
        if let Err(e) = durable {
            // The commit record never became durable: the transaction
            // did not happen. Roll everyone back.
            for q in participants {
                let _ = q.abort(txn.tid);
            }
            let _ = self.wal.append(LogRecord::Abort { tid: txn.tid });
            return Err(HanaError::Transaction(format!(
                "commit record for transaction {} was not durable: {e}",
                txn.tid
            )));
        }

        // ---- client acknowledgment happens here (early ack) ----

        // Phase 2 (post-ack): notify writers; read-only voters skip it.
        let mut notified = Vec::new();
        let mut skipped = Vec::new();
        for p in participants {
            let vote = votes
                .iter()
                .find(|(n, _)| n == p.name())
                .map(|&(_, v)| v)
                .unwrap_or(Vote::Prepared);
            if vote == Vote::ReadOnly {
                skipped.push(p.name().to_string());
                continue;
            }
            // The decision is durable: a notification failure leaves the
            // participant in-doubt rather than undoing the commit.
            match p.commit(txn.tid, cid) {
                Ok(()) => notified.push(p.name().to_string()),
                Err(_) => self
                    .in_doubt
                    .lock()
                    .push((txn.tid, vec![p.name().to_string()])),
            }
        }

        Ok(CommitReceipt {
            cid,
            post_ack_notifications: notified,
            read_only_skipped: skipped,
        })
    }

    /// Roll back `txn` on every participant.
    pub fn abort(
        &self,
        txn: TxnHandle,
        participants: &[Arc<dyn TwoPhaseParticipant>],
    ) -> Result<()> {
        if self.active.lock().remove(&txn.tid).is_none() {
            return Err(HanaError::Transaction(format!(
                "transaction {} is not active",
                txn.tid
            )));
        }
        for p in participants {
            let _ = p.abort(txn.tid);
        }
        self.wal.append(LogRecord::Abort { tid: txn.tid })
    }

    /// Replay the WAL and surface in-doubt transactions (crash recovery
    /// is "recovered jointly" for HANA and the extended store, §3.1).
    pub fn recover(&self) -> Result<RecoveryReport> {
        let report = self.wal.recover()?;
        *self.in_doubt.lock() = report.in_doubt.clone();
        Ok(report)
    }

    /// Currently known in-doubt transactions.
    pub fn in_doubt(&self) -> Vec<(u64, Vec<String>)> {
        self.in_doubt.lock().clone()
    }

    /// Manually abort an in-doubt transaction ("clients will have the
    /// ability to manually abort these in-doubt transactions").
    pub fn abort_in_doubt(
        &self,
        tid: u64,
        participants: &[Arc<dyn TwoPhaseParticipant>],
    ) -> Result<()> {
        let mut in_doubt = self.in_doubt.lock();
        let pos = in_doubt
            .iter()
            .position(|(t, _)| *t == tid)
            .ok_or_else(|| HanaError::Transaction(format!("transaction {tid} is not in-doubt")))?;
        in_doubt.remove(pos);
        drop(in_doubt);
        for p in participants {
            let _ = p.abort(tid);
        }
        self.wal.append(LogRecord::Abort { tid })
    }

    /// Number of active (begun, not yet finished) transactions.
    pub fn active_count(&self) -> usize {
        self.active.lock().len()
    }
}

impl Default for TransactionManager {
    fn default() -> Self {
        TransactionManager::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// Scriptable participant for failure injection.
    #[derive(Default)]
    struct Mock {
        name: String,
        fail_prepare: AtomicBool,
        fail_commit: AtomicBool,
        read_only: AtomicBool,
        prepared: Mutex<Vec<u64>>,
        committed: Mutex<Vec<(u64, u64)>>,
        aborted: Mutex<Vec<u64>>,
    }

    impl Mock {
        fn named(name: &str) -> Arc<Mock> {
            Arc::new(Mock {
                name: name.to_string(),
                ..Mock::default()
            })
        }
    }

    impl TwoPhaseParticipant for Mock {
        fn name(&self) -> &str {
            &self.name
        }
        fn prepare(&self, tid: u64) -> Result<Vote> {
            if self.fail_prepare.load(Ordering::SeqCst) {
                return Err(HanaError::remote_unavailable("extended store down"));
            }
            self.prepared.lock().push(tid);
            Ok(if self.read_only.load(Ordering::SeqCst) {
                Vote::ReadOnly
            } else {
                Vote::Prepared
            })
        }
        fn commit(&self, tid: u64, cid: u64) -> Result<()> {
            if self.fail_commit.load(Ordering::SeqCst) {
                return Err(HanaError::remote_unavailable("lost connection"));
            }
            self.committed.lock().push((tid, cid));
            Ok(())
        }
        fn abort(&self, tid: u64) -> Result<()> {
            self.aborted.lock().push(tid);
            Ok(())
        }
    }

    /// A manager over the segment directory `dir`, resuming after what
    /// the log holds.
    fn durable(dir: &std::path::Path) -> TransactionManager {
        let wal = Arc::new(Wal::open_dir(dir).unwrap());
        let report = wal.recover().unwrap();
        TransactionManager::recovered(wal, &report)
    }

    fn parts(ms: &[&Arc<Mock>]) -> Vec<Arc<dyn TwoPhaseParticipant>> {
        ms.iter()
            .map(|m| Arc::clone(*m) as Arc<dyn TwoPhaseParticipant>)
            .collect()
    }

    #[test]
    fn successful_commit_assigns_increasing_cids() {
        let tm = TransactionManager::new();
        let hana = Mock::named("hana");
        let iq = Mock::named("iq");
        let t1 = tm.begin();
        let r1 = tm.commit(t1, &parts(&[&hana, &iq])).unwrap();
        let t2 = tm.begin();
        let r2 = tm.commit(t2, &parts(&[&hana])).unwrap();
        assert!(r2.cid > r1.cid);
        assert_eq!(hana.committed.lock().len(), 2);
        assert_eq!(iq.committed.lock().len(), 1);
        assert_eq!(tm.active_count(), 0);
        assert_eq!(tm.last_commit_id(), r2.cid);
    }

    #[test]
    fn snapshot_excludes_later_commits() {
        let tm = TransactionManager::new();
        let hana = Mock::named("hana");
        let t1 = tm.begin();
        let reader = tm.begin(); // starts before t1 commits
        let r1 = tm.commit(t1, &parts(&[&hana])).unwrap();
        assert!(!reader.snapshot.sees(r1.cid));
        let later = tm.begin();
        assert!(later.snapshot.sees(r1.cid));
    }

    #[test]
    fn prepare_failure_aborts_everything() {
        let tm = TransactionManager::new();
        let hana = Mock::named("hana");
        let iq = Mock::named("iq");
        iq.fail_prepare.store(true, Ordering::SeqCst);
        let t = tm.begin();
        let err = tm.commit(t, &parts(&[&hana, &iq])).unwrap_err();
        assert_eq!(err.kind(), "transaction");
        // Both participants were rolled back, nobody committed.
        assert_eq!(hana.aborted.lock().len(), 1);
        assert_eq!(iq.aborted.lock().len(), 1);
        assert!(hana.committed.lock().is_empty());
        // The CID was never consumed.
        assert_eq!(tm.last_commit_id(), 0);
    }

    #[test]
    fn read_only_participants_skip_phase_two() {
        let tm = TransactionManager::new();
        let writer = Mock::named("hana");
        let reader = Mock::named("iq");
        reader.read_only.store(true, Ordering::SeqCst);
        let t = tm.begin();
        let receipt = tm.commit(t, &parts(&[&writer, &reader])).unwrap();
        assert_eq!(receipt.read_only_skipped, vec!["iq".to_string()]);
        assert_eq!(receipt.post_ack_notifications, vec!["hana".to_string()]);
        assert!(reader.committed.lock().is_empty());
    }

    #[test]
    fn commit_notification_failure_leaves_in_doubt_not_undone() {
        let tm = TransactionManager::new();
        let hana = Mock::named("hana");
        let iq = Mock::named("iq");
        iq.fail_commit.store(true, Ordering::SeqCst);
        let t = tm.begin();
        let tid = t.tid;
        // The decision was durable, so commit still succeeds (early ack).
        let receipt = tm.commit(t, &parts(&[&hana, &iq])).unwrap();
        assert_eq!(receipt.post_ack_notifications, vec!["hana".to_string()]);
        let in_doubt = tm.in_doubt();
        assert_eq!(in_doubt.len(), 1);
        assert_eq!(in_doubt[0].0, tid);
        // Manual resolution clears the list.
        tm.abort_in_doubt(tid, &parts(&[&iq])).unwrap();
        assert!(tm.in_doubt().is_empty());
        assert_eq!(iq.aborted.lock().as_slice(), &[tid]);
        assert!(tm.abort_in_doubt(tid, &[]).is_err());
    }

    /// A checkpoint cut requested while a commit sits between CID
    /// assignment and phase 2 must wait for the apply. Phase 2 itself
    /// requests the cut, so the interleaving is forced rather than
    /// hoped for: the CID is already visible, the cut stays pending, and
    /// it completes — at that CID — only once the apply has returned.
    #[test]
    fn checkpoint_cut_waits_for_in_flight_phase_two() {
        struct CutDuringApply {
            tm: Arc<TransactionManager>,
            request_cut: std::sync::mpsc::Sender<()>,
            cut_done: Mutex<std::sync::mpsc::Receiver<()>>,
        }
        impl TwoPhaseParticipant for CutDuringApply {
            fn name(&self) -> &str {
                "hana"
            }
            fn prepare(&self, _tid: u64) -> Result<Vote> {
                Ok(Vote::Prepared)
            }
            fn commit(&self, _tid: u64, cid: u64) -> Result<()> {
                assert_eq!(self.tm.last_commit_id(), cid, "CID visible before apply");
                self.request_cut.send(()).unwrap();
                assert!(
                    self.cut_done
                        .lock()
                        .recv_timeout(std::time::Duration::from_millis(100))
                        .is_err(),
                    "checkpoint cut completed while the commit was still applying"
                );
                Ok(())
            }
            fn abort(&self, _tid: u64) -> Result<()> {
                Ok(())
            }
        }

        let tm = Arc::new(TransactionManager::new());
        let (request_cut, cut_requested) = std::sync::mpsc::channel();
        let (done, cut_done) = std::sync::mpsc::channel();
        let p = Arc::new(CutDuringApply {
            tm: Arc::clone(&tm),
            request_cut,
            cut_done: Mutex::new(cut_done),
        });
        std::thread::scope(|s| {
            // The cut runs on a thread of its own, asked for in phase 2.
            let cutter = Arc::clone(&tm);
            let cut = s.spawn(move || {
                cut_requested.recv().unwrap();
                let cid = cutter.checkpoint_cut().cid;
                let _ = done.send(());
                cid
            });
            let t = tm.begin();
            let receipt = tm
                .commit(t, &[Arc::clone(&p) as Arc<dyn TwoPhaseParticipant>])
                .unwrap();
            assert_eq!(cut.join().unwrap(), receipt.cid);
            assert_eq!(tm.checkpoint_cut().cid, receipt.cid, "idle: cut = last cid");
        });
    }

    /// The fsync runs on the committing thread, so a traced commit
    /// shows it as a child of its wait.
    #[test]
    fn a_lone_durable_commit_records_its_fsync_under_commit_wait() {
        let dir = std::env::temp_dir().join(format!("hana-txn-span-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tm = durable(&dir);
        let tracer = hana_obs::Tracer::new();
        {
            let _g = tracer.install();
            let t = tm.begin();
            tm.commit(t, &[]).unwrap();
        }
        let spans = tracer.spans();
        let wait = spans.iter().find(|s| s.name == "commit_wait").unwrap();
        let fsyncs: Vec<_> = spans.iter().filter(|s| s.name == "fsync").collect();
        assert_eq!(fsyncs.len(), 1, "{spans:?}");
        assert_eq!(fsyncs[0].parent, Some(wait.id));
        assert!(fsyncs[0].attrs.contains(&("txns".to_string(), 1)));
        assert!(fsyncs[0].bytes.is_some_and(|b| b > 0));
        drop(tm);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A cut prunes only the segments sealed before it, and nothing
    /// while a transaction is active — until its CID is assigned.
    #[test]
    fn a_cut_prunes_only_when_no_transaction_is_active() {
        let dir = std::env::temp_dir().join(format!("hana-txn-cut-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = crate::WalConfig {
            segment_bytes: 16,
            ..crate::WalConfig::default()
        };
        let wal = Arc::new(Wal::open_dir_with(&dir, config).unwrap());
        let tm = TransactionManager::recovered(Arc::clone(&wal), &RecoveryReport::default());
        let open = tm.begin();
        for _ in 0..3 {
            let t = tm.begin();
            tm.commit(t, &[]).unwrap();
        }
        assert_eq!(tm.checkpoint_cut().prune_below, None, "{open:?} is active");
        let held = Mock::named("hana");
        held.fail_prepare.store(true, Ordering::SeqCst);
        assert!(tm.commit(open, &parts(&[&held])).is_err());
        let cut = tm.checkpoint_cut();
        assert_eq!(cut.prune_below, Some(wal.active_segment()));
        tm.checkpoint(&cut, b"snapshot").unwrap();
        // The segment active at the cut survives; the ones before it go.
        let first = wal.segment_paths()[0].clone();
        let kept = format!("wal-{:06}.seg", cut.prune_below.unwrap());
        assert!(first.ends_with(kept) && !first.ends_with("wal-000001.seg"));
        assert_eq!(wal.redo_floor().unwrap(), cut.cid);
        drop((tm, wal));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Redo applies under a fresh TID and CID and appends nothing to
    /// the log; a no-vote rolls every participant back.
    #[test]
    fn redo_commits_under_a_fresh_cid_and_logs_nothing() {
        let dir = std::env::temp_dir().join(format!("hana-txn-redo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tm = durable(&dir);
        let hana = Mock::named("hana");
        let iq = Mock::named("iq");
        iq.read_only.store(true, Ordering::SeqCst);
        let mut staged = 0;
        let cid = tm
            .redo(&parts(&[&hana, &iq]), |tid| {
                staged = tid;
                Ok(())
            })
            .unwrap();
        assert_eq!((cid, tm.last_commit_id()), (1, 1));
        assert_eq!(hana.committed.lock().as_slice(), &[(staged, 1)]);
        assert!(
            iq.committed.lock().is_empty(),
            "a read-only vote skips phase 2"
        );
        assert!(tm.wal().records().unwrap().is_empty(), "redo logs nothing");
        assert_eq!(tm.active_count(), 0);

        iq.fail_prepare.store(true, Ordering::SeqCst);
        assert!(tm.redo(&parts(&[&hana, &iq]), |_| Ok(())).is_err());
        assert_eq!(hana.aborted.lock().len(), 1);
        assert_eq!(tm.last_commit_id(), 1, "no CID for a failed redo");
        drop(tm);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explicit_abort_rolls_back() {
        let tm = TransactionManager::new();
        let hana = Mock::named("hana");
        let t = tm.begin();
        tm.abort(t, &parts(&[&hana])).unwrap();
        assert_eq!(hana.aborted.lock().len(), 1);
        assert!(tm.commit(t, &parts(&[&hana])).is_err(), "already finished");
    }

    #[test]
    fn crash_recovery_surfaces_in_doubt() {
        // Simulate a crash between prepare and commit by building the WAL
        // by hand, then recovering a fresh manager over it.
        let dir = std::env::temp_dir().join(format!("hana-txn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let wal = Wal::open_dir(&dir).unwrap();
            wal.append(LogRecord::Begin { tid: 1 }).unwrap();
            wal.append(LogRecord::Prepare {
                tid: 1,
                participant: "iq".into(),
            })
            .unwrap();
            wal.append(LogRecord::Begin { tid: 2 }).unwrap();
            wal.append(LogRecord::Commit { tid: 2, cid: 7 }).unwrap();
        }
        let tm = durable(&dir);
        let report = tm.recover().unwrap();
        assert_eq!(report.committed, vec![(2, 7)]);
        assert_eq!(tm.in_doubt(), vec![(1, vec!["iq".to_string()])]);
        // New CIDs continue after the recovered maximum, and TIDs resume
        // past every TID in the log (a reused TID would merge two
        // distinct transactions at replay).
        let t = tm.begin();
        assert!(t.tid > 2);
        let r = tm.commit(t, &[]).unwrap();
        assert!(r.cid > 7);
        drop(tm);
        std::fs::remove_dir_all(&dir).ok();
    }
}
