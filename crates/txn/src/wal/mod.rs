//! Write-ahead log with group commit, checkpoints and point-in-time
//! recovery.
//!
//! The log records transaction lifecycle events as CRC-framed records in
//! rolling segment files (see [`frame`] and [`segment`]). Durable
//! appends share flushes ([`group`]): the committing thread that finds
//! no flush running writes and fsyncs everything queued so far, for
//! every ticket behind it. Checkpoints ([`checkpoint`])
//! snapshot engine state so recovery replays only the log suffix.
//!
//! Replaying a (possibly torn) log classifies every transaction as
//! committed, aborted or **in-doubt** — the state §3.1 of the paper
//! describes for transactions that had touched the extended store when a
//! crash hit between prepare and commit. The reader tolerates a torn
//! tail (crash mid-append) on the last segment by truncating it; damage
//! anywhere else is corruption and fails the open.
//!
//! The files are the log's only copy of its records: a read of a live
//! log flushes what was appended and reads the segments back, and a
//! volatile log counts its appends and stores nothing.

mod checkpoint;
mod frame;
mod group;
mod segment;

pub use group::DurableTicket;

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use hana_obs::Counter;
use hana_types::{HanaError, Result};

use self::group::{GroupLog, TicketInner};
use self::segment::{LoadedPayload, LogWriter, DEFAULT_SEGMENT_BYTES};

/// One log record. `cid` values order commits for point-in-time recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// Transaction `tid` started.
    Begin { tid: u64 },
    /// A logical redo record (engine, table, operation payload).
    Data {
        /// Transaction writing the data.
        tid: u64,
        /// Target engine ("hana" or an extended-storage name).
        engine: String,
        /// Serialized logical operation.
        payload: String,
    },
    /// Participant `participant` voted yes for `tid` (phase 1).
    Prepare { tid: u64, participant: String },
    /// Coordinator committed `tid` with commit ID `cid`. This record is
    /// the commit point: once durable, the transaction wins any crash.
    Commit { tid: u64, cid: u64 },
    /// Transaction `tid` rolled back.
    Abort { tid: u64 },
    /// A checkpoint snapshot covering every commit `<= cid` was made
    /// durable; recovery restores it and replays only later commits.
    Checkpoint { cid: u64 },
}

impl LogRecord {
    /// The transaction this record belongs to (0 for checkpoints).
    pub fn tid(&self) -> u64 {
        match self {
            LogRecord::Begin { tid }
            | LogRecord::Data { tid, .. }
            | LogRecord::Prepare { tid, .. }
            | LogRecord::Commit { tid, .. }
            | LogRecord::Abort { tid } => *tid,
            LogRecord::Checkpoint { .. } => 0,
        }
    }

    fn serialize(&self) -> String {
        match self {
            LogRecord::Begin { tid } => format!("B\t{tid}"),
            LogRecord::Data {
                tid,
                engine,
                payload,
            } => format!("D\t{tid}\t{engine}\t{payload}"),
            LogRecord::Prepare { tid, participant } => format!("P\t{tid}\t{participant}"),
            LogRecord::Commit { tid, cid } => format!("C\t{tid}\t{cid}"),
            LogRecord::Abort { tid } => format!("A\t{tid}"),
            LogRecord::Checkpoint { cid } => format!("K\t0\t{cid}"),
        }
    }

    fn deserialize(line: &str) -> Result<LogRecord> {
        let mut parts = line.splitn(4, '\t');
        let bad = || HanaError::Io(format!("corrupt WAL record: '{line}'"));
        let kind = parts.next().ok_or_else(bad)?;
        let tid: u64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        Ok(match kind {
            "B" => LogRecord::Begin { tid },
            "D" => LogRecord::Data {
                tid,
                engine: parts.next().ok_or_else(bad)?.to_string(),
                payload: parts.next().ok_or_else(bad)?.to_string(),
            },
            "P" => LogRecord::Prepare {
                tid,
                participant: parts.next().ok_or_else(bad)?.to_string(),
            },
            "C" => LogRecord::Commit {
                tid,
                cid: parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?,
            },
            "A" => LogRecord::Abort { tid },
            "K" => LogRecord::Checkpoint {
                cid: parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?,
            },
            _ => return Err(bad()),
        })
    }
}

impl fmt::Display for LogRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.serialize())
    }
}

/// Durability configuration, fixed when the log is opened.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Size at which the active segment rolls over.
    pub segment_bytes: u64,
    /// Injected failure point for crash testing: after this many
    /// successful fsyncs the writer fails permanently, dropping the
    /// in-flight batch. `None` in production.
    pub fsyncs_until_fail: Option<u64>,
}

impl Default for WalConfig {
    fn default() -> WalConfig {
        WalConfig {
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            fsyncs_until_fail: None,
        }
    }
}

/// A loaded checkpoint snapshot, as handed back to the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalCheckpoint {
    /// Every commit `<= cid` is covered by the snapshot.
    pub cid: u64,
    /// Highest transaction ID allocated when the snapshot was taken.
    pub max_tid: u64,
    /// Opaque engine snapshot bytes.
    pub payload: Vec<u8>,
}

enum Backend {
    /// No file: appends are counted and dropped.
    Volatile,
    /// Segment files, flushed by whichever committer leads.
    Durable { log: Arc<GroupLog>, dir: PathBuf },
}

/// The write-ahead log. Shared by reference: all methods take `&self`.
pub struct Wal {
    backend: Backend,
    latest_checkpoint: Mutex<Option<WalCheckpoint>>,
    truncated_bytes: u64,
    /// `hana_wal_appends_total`.
    appends: Arc<Counter>,
}

impl fmt::Debug for Wal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Wal")
            .field("volatile", &self.is_volatile())
            .field("truncated_bytes", &self.truncated_bytes)
            .finish()
    }
}

impl Default for Wal {
    fn default() -> Wal {
        Wal::in_memory()
    }
}

/// Decode one frame's payload.
fn decode(payload: &[u8]) -> Result<LogRecord> {
    let text =
        std::str::from_utf8(payload).map_err(|_| HanaError::Io("non-UTF-8 WAL record".into()))?;
    LogRecord::deserialize(text)
}

impl Wal {
    /// A volatile log (unit tests, throwaway instances): it counts its
    /// appends and stores nothing, so [`Wal::records`] is always empty.
    pub fn in_memory() -> Wal {
        Wal::with_backend(Backend::Volatile, None, 0)
    }

    fn with_backend(backend: Backend, latest: Option<WalCheckpoint>, truncated_bytes: u64) -> Wal {
        Wal {
            backend,
            latest_checkpoint: Mutex::new(latest),
            truncated_bytes,
            appends: hana_obs::registry().counter("hana_wal_appends_total"),
        }
    }

    /// A durable segmented log in directory `dir`, with the default
    /// configuration.
    pub fn open_dir(dir: &Path) -> Result<Wal> {
        Wal::open_dir_with(dir, WalConfig::default())
    }

    /// A durable segmented log in directory `dir` with explicit config.
    pub fn open_dir_with(dir: &Path, config: WalConfig) -> Result<Wal> {
        Ok(Wal::open(dir, config)?.0)
    }

    /// [`Wal::open_dir_with`], returning with the log the records it
    /// holds and their classification ([`Wal::recover`]): the one read
    /// of the segments that repairs a torn tail and bounds the
    /// checkpoint also hands recovery what it redoes. The log keeps no
    /// copy of them.
    pub fn open_dir_recovered(
        dir: &Path,
        config: WalConfig,
    ) -> Result<(Wal, Vec<LogRecord>, RecoveryReport)> {
        let start = Instant::now();
        let (wal, payloads) = Wal::open(dir, config)?;
        let records = payloads
            .iter()
            .map(|p| decode(&p.payload))
            .collect::<Result<Vec<_>>>()?;
        let report = wal.classify(&records, u64::MAX, start);
        Ok((wal, records, report))
    }

    /// Open the log in `dir`, repairing a torn tail; returns the log
    /// and the frames the repairing read found.
    fn open(dir: &Path, config: WalConfig) -> Result<(Wal, Vec<LoadedPayload>)> {
        std::fs::create_dir_all(dir)?;
        let loaded = segment::load(dir, true)?;
        // A checkpoint sidecar is only trusted once the log itself shows
        // commits (or a checkpoint record) reaching its CID — guards a
        // sidecar that outlived a truncated log tail.
        let mut cid_limit = 0;
        for p in &loaded.payloads {
            // Only commit and checkpoint records carry a CID.
            if !(p.payload.starts_with(b"C\t") || p.payload.starts_with(b"K\t")) {
                continue;
            }
            if let LogRecord::Commit { cid, .. } | LogRecord::Checkpoint { cid } =
                decode(&p.payload)?
            {
                cid_limit = cid_limit.max(cid);
            }
        }
        let latest = checkpoint::load_latest(dir, cid_limit).map(|c| WalCheckpoint {
            cid: c.cid,
            max_tid: c.max_tid,
            payload: c.payload,
        });
        let writer = LogWriter::open(
            dir.to_path_buf(),
            loaded.last_seq,
            config.segment_bytes,
            config.fsyncs_until_fail,
        )?;
        let log = GroupLog::new(writer);
        let dir = dir.to_path_buf();
        let wal = Wal::with_backend(
            Backend::Durable { log, dir },
            latest,
            loaded.truncated_bytes,
        );
        Ok((wal, loaded.payloads))
    }

    /// Whether the log stores nothing ([`Wal::in_memory`]).
    pub fn is_volatile(&self) -> bool {
        matches!(self.backend, Backend::Volatile)
    }

    /// The segment directory of a durable log.
    pub fn dir(&self) -> Option<PathBuf> {
        match &self.backend {
            Backend::Durable { dir, .. } => Some(dir.clone()),
            Backend::Volatile => None,
        }
    }

    /// Bytes dropped from a torn tail at open time (0 for a clean log).
    pub fn truncated_bytes(&self) -> u64 {
        self.truncated_bytes
    }

    /// Segment files in replay order (empty for in-memory logs).
    pub fn segment_paths(&self) -> Vec<PathBuf> {
        let Backend::Durable { dir, .. } = &self.backend else {
            return Vec::new();
        };
        let segments = segment::segments(dir).unwrap_or_default();
        segments.into_iter().map(|(_, path)| path).collect()
    }

    /// Every frame in the log's files, oldest first, with its end offset
    /// counted since open (pruned segments included). Flushes what was
    /// appended first and reads under the writer lock, so the read holds
    /// every record appended before the call and never a half-written
    /// frame.
    fn frames(&self) -> Result<Vec<LoadedPayload>> {
        let Backend::Durable { log, dir } = &self.backend else {
            return Ok(Vec::new());
        };
        log.sync()?;
        log.with_writer(|w| {
            let mut frames = segment::load(dir, false)?.payloads;
            for f in &mut frames {
                f.end_offset += w.pruned_bytes();
            }
            Ok(frames)
        })
    }

    /// Cumulative end offset since open of each record's frame, parallel
    /// to [`Wal::records`] — crash harnesses truncate copies of the log
    /// at these (and every other) byte positions. The bytes of pruned
    /// segments still count, so the last offset is the bytes appended
    /// since open. A read failure is reported through `obs::warn` and
    /// yields an empty list.
    pub fn record_end_offsets(&self) -> Vec<u64> {
        match self.frames() {
            Ok(frames) => frames.iter().map(|f| f.end_offset).collect(),
            Err(e) => {
                hana_obs::warn(format!("WAL read-back failed: {e}"));
                Vec::new()
            }
        }
    }

    /// Why the log refuses appends, if a write/fsync failed.
    pub fn poisoned(&self) -> Option<String> {
        match &self.backend {
            Backend::Volatile => None,
            Backend::Durable { log, .. } => log.poisoned(),
        }
    }

    /// Enqueue `rec` for append without waiting for durability. The
    /// record reaches the file with the next flush, [`Wal::sync`] or
    /// drop of the log.
    pub fn append(&self, rec: LogRecord) -> Result<()> {
        self.submit(|| rec, false).wait()
    }

    /// [`Wal::append`] of the record `rec` builds, which runs only when
    /// the log stores it: a volatile log builds nothing.
    pub fn append_with(&self, rec: impl FnOnce() -> LogRecord) -> Result<()> {
        self.submit(rec, false).wait()
    }

    /// Enqueue `rec` and return a ticket that resolves once the record
    /// is on disk. The record's position in the log is fixed *now* (by
    /// append order); the caller blocks on the ticket when ready —
    /// that split is what lets concurrent committers share one fsync.
    pub fn submit_durable(&self, rec: LogRecord) -> DurableTicket {
        self.submit(|| rec, true)
    }

    /// Append `rec` and wait for it to be durable.
    pub fn append_durable(&self, rec: LogRecord) -> Result<()> {
        self.submit(|| rec, true).wait()
    }

    fn submit(&self, rec: impl FnOnce() -> LogRecord, durable: bool) -> DurableTicket {
        self.appends.inc();
        let Backend::Durable { log, .. } = &self.backend else {
            return DurableTicket(TicketInner::Ready(Ok(())));
        };
        // The queue lock inside `enqueue` fixes the record's position.
        log.enqueue(rec().serialize().as_bytes(), durable)
            .unwrap_or_else(|why| DurableTicket(TicketInner::Ready(Err(why))))
    }

    /// Durable barrier: every record appended before this call is on
    /// disk when it returns.
    pub fn sync(&self) -> Result<()> {
        match &self.backend {
            Backend::Volatile => Ok(()),
            Backend::Durable { log, .. } => log.sync(),
        }
    }

    /// All records in the log's files, oldest first (after a pruning
    /// checkpoint: those of the surviving segments), read back from
    /// them: every record appended before the call is included. A
    /// volatile log has none.
    pub fn records(&self) -> Result<Vec<LogRecord>> {
        self.frames()?.iter().map(|f| decode(&f.payload)).collect()
    }

    /// Classify every transaction seen in the log.
    pub fn recover(&self) -> Result<RecoveryReport> {
        Ok(self.recover_records(u64::MAX)?.1)
    }

    /// The log's records and their classification up to `upto_cid`
    /// (point-in-time recovery: only commits with `cid <= upto_cid`
    /// count as committed, later ones as aborted), read once.
    pub fn recover_records(&self, upto_cid: u64) -> Result<(Vec<LogRecord>, RecoveryReport)> {
        let start = Instant::now();
        let records = self.records()?;
        let report = self.classify(&records, upto_cid, start);
        Ok((records, report))
    }

    /// Classify `records` (read since `start`) up to `upto_cid`, from
    /// the latest checkpoint on.
    fn classify(&self, records: &[LogRecord], upto_cid: u64, start: Instant) -> RecoveryReport {
        let mut report = RecoveryReport::from_records(records, upto_cid);
        if let Some(ckpt) = self.latest_checkpoint.lock().as_ref() {
            if ckpt.cid <= upto_cid {
                report.checkpoint_cid = ckpt.cid;
            }
        }
        let reg = hana_obs::registry();
        reg.counter("hana_wal_recoveries_total").inc();
        reg.histogram("hana_wal_recovery_replay_ns")
            .record(start.elapsed().as_nanos() as u64);
        report
    }

    /// The newest usable checkpoint snapshot, if any.
    pub fn latest_checkpoint(&self) -> Option<WalCheckpoint> {
        self.latest_checkpoint.lock().clone()
    }

    /// The segment appends go to now (0 for a volatile log). Every
    /// segment below it was sealed before the call: the ones a
    /// checkpoint cut taken now may prune ([`Wal::checkpoint`]).
    pub fn active_segment(&self) -> u64 {
        match &self.backend {
            Backend::Volatile => 0,
            Backend::Durable { log, .. } => log.with_writer(|w| w.active_seq()),
        }
    }

    /// The oldest commit ID a redo of this log can start from: 0 while
    /// no checkpoint has pruned it (segment 1 is still there), else its
    /// latest checkpoint's, as a pruned log holds every record of the
    /// commits above that and not all of those at or below it. A
    /// pruned log whose checkpoint cannot be read has no start.
    pub fn redo_floor(&self) -> Result<u64> {
        let Backend::Durable { dir, .. } = &self.backend else {
            return Ok(0);
        };
        if segment::segments(dir)?
            .first()
            .is_none_or(|&(seq, _)| seq <= 1)
        {
            return Ok(0);
        }
        self.latest_checkpoint().map(|c| c.cid).ok_or_else(|| {
            HanaError::Io(format!(
                "a checkpoint pruned the log in {} and none of its snapshots can be read",
                dir.display()
            ))
        })
    }

    /// Durably record a checkpoint: `payload` (an opaque engine
    /// snapshot covering every commit `<= cid`) is written to a sidecar
    /// file, then a [`LogRecord::Checkpoint`] marks the log. A volatile
    /// log keeps nothing. With `prune_below`, the segments below that
    /// sequence are deleted, and every older sidecar before them; the
    /// caller passes the [`active_segment`](Self::active_segment) it
    /// read at its cut, and only when no transaction was active then,
    /// so that every record of every commit above `cid` survives.
    /// Covered commits left in the surviving segments stay; replay
    /// skips them by CID. A checkpoint that deletes no segment keeps
    /// its own sidecar and the one before it, a fallback whose suffix
    /// the log still holds, and deletes the rest. A pruned log whose one
    /// sidecar is damaged does not open
    /// ([`redo_floor`](Self::redo_floor)).
    pub fn checkpoint(
        &self,
        cid: u64,
        max_tid: u64,
        payload: &[u8],
        prune_below: Option<u64>,
    ) -> Result<()> {
        let Backend::Durable { log, dir } = &self.backend else {
            return Ok(());
        };
        let seq = checkpoint::max_seq(dir) + 1;
        checkpoint::write(dir, seq, cid, max_tid, payload)?;
        self.append_durable(LogRecord::Checkpoint { cid })?;
        *self.latest_checkpoint.lock() = Some(WalCheckpoint {
            cid,
            max_tid,
            payload: payload.to_vec(),
        });
        // The checkpoint is durable either way; a segment or sidecar
        // that could not be deleted is only dead weight.
        let mut pruned = false;
        if let Some(below) = prune_below {
            // The older sidecars go before the first segment does:
            // recovering from one of them would need it.
            let older = || {
                pruned = true;
                checkpoint::remove_older(dir, seq)
            };
            if let Err(e) = log.with_writer(|w| w.prune_below(below, older)) {
                hana_obs::warn(format!("WAL segment pruning failed: {e}"));
            }
        }
        if !pruned {
            if let Err(e) = checkpoint::remove_older(dir, seq - 1) {
                hana_obs::warn(format!("WAL sidecar removal failed: {e}"));
            }
        }
        Ok(())
    }
}

/// The outcome of replaying the log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Transactions with a durable commit record, `(tid, cid)`,
    /// ascending by commit ID.
    pub committed: Vec<(u64, u64)>,
    /// Transactions aborted explicitly, or implicitly because they never
    /// reached prepare, or rolled back by point-in-time recovery.
    pub aborted: Vec<u64>,
    /// Transactions that prepared (at least one participant voted yes)
    /// but have neither commit nor abort record — §3.1's "in-doubt"
    /// transactions, with the participants that prepared.
    pub in_doubt: Vec<(u64, Vec<String>)>,
    /// CID of the checkpoint snapshot recovery starts from (0 = none):
    /// commits at or below it are already in the snapshot; only later
    /// commits in `committed` need replaying.
    pub checkpoint_cid: u64,
}

impl RecoveryReport {
    fn from_records(records: &[LogRecord], upto_cid: u64) -> RecoveryReport {
        use std::collections::BTreeMap;
        #[derive(Default)]
        struct St {
            prepared: Vec<String>,
            committed: Option<u64>,
            aborted: bool,
        }
        let mut txns: BTreeMap<u64, St> = BTreeMap::new();
        for rec in records {
            if let LogRecord::Checkpoint { .. } = rec {
                continue;
            }
            let st = txns.entry(rec.tid()).or_default();
            match rec {
                LogRecord::Prepare { participant, .. } => {
                    st.prepared.push(participant.clone());
                }
                LogRecord::Commit { cid, .. } => st.committed = Some(*cid),
                LogRecord::Abort { .. } => st.aborted = true,
                LogRecord::Begin { .. } | LogRecord::Data { .. } | LogRecord::Checkpoint { .. } => {
                }
            }
        }
        let mut report = RecoveryReport::default();
        for (tid, st) in txns {
            match (st.committed, st.aborted) {
                (Some(cid), _) if cid <= upto_cid => report.committed.push((tid, cid)),
                (Some(_), _) => report.aborted.push(tid), // past the PIT target
                (None, true) => report.aborted.push(tid),
                (None, false) if !st.prepared.is_empty() => {
                    report.in_doubt.push((tid, st.prepared));
                }
                (None, false) => report.aborted.push(tid),
            }
        }
        report.committed.sort_by_key(|&(_, cid)| cid);
        report
    }

    /// Highest committed CID visible to this recovery (checkpoint
    /// included).
    pub fn max_committed_cid(&self) -> u64 {
        self.committed
            .last()
            .map(|&(_, cid)| cid)
            .unwrap_or(0)
            .max(self.checkpoint_cid)
    }

    /// Highest transaction ID seen in the log records.
    pub(crate) fn max_tid(&self) -> u64 {
        self.committed
            .iter()
            .map(|&(tid, _)| tid)
            .chain(self.aborted.iter().copied())
            .chain(self.in_doubt.iter().map(|&(tid, _)| tid))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hana-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn record_text_round_trips() {
        let recs = [
            LogRecord::Begin { tid: 3 },
            LogRecord::Data {
                tid: 3,
                engine: "hana".into(),
                payload: "INSERT\nWITH NEWLINE, 'C:\\new' AND\tTAB".into(),
            },
            LogRecord::Prepare {
                tid: 3,
                participant: "iq".into(),
            },
            LogRecord::Commit { tid: 3, cid: 9 },
            LogRecord::Abort { tid: 4 },
            LogRecord::Checkpoint { cid: 9 },
        ];
        for rec in recs {
            assert_eq!(LogRecord::deserialize(&rec.serialize()).unwrap(), rec);
        }
    }

    #[test]
    fn dir_log_survives_reopen() {
        let dir = tmp_dir("reopen");
        {
            let wal = Wal::open_dir(&dir).unwrap();
            wal.append(LogRecord::Begin { tid: 1 }).unwrap();
            wal.append_durable(LogRecord::Commit { tid: 1, cid: 1 })
                .unwrap();
        }
        let wal = Wal::open_dir(&dir).unwrap();
        assert_eq!(wal.records().unwrap().len(), 2);
        assert_eq!(wal.recover().unwrap().committed, vec![(1, 1)]);
        assert_eq!(wal.truncated_bytes(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_dir_recovered_hands_back_the_records_its_repair_read() {
        let dir = tmp_dir("recovered");
        {
            let wal = Wal::open_dir(&dir).unwrap();
            wal.append(LogRecord::Begin { tid: 1 }).unwrap();
            wal.append_durable(LogRecord::Commit { tid: 1, cid: 1 })
                .unwrap();
            wal.append(LogRecord::Begin { tid: 2 }).unwrap();
        }
        let (wal, records, report) = Wal::open_dir_recovered(&dir, WalConfig::default()).unwrap();
        assert_eq!(records, wal.records().unwrap());
        assert_eq!(records.len(), 3);
        assert_eq!(report, wal.recover().unwrap());
        assert_eq!(report.committed, vec![(1, 1)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn appends_without_a_sync_reach_disk_at_drop() {
        let dir = tmp_dir("drop");
        {
            let wal = Wal::open_dir(&dir).unwrap();
            wal.append(LogRecord::Begin { tid: 1 }).unwrap();
        }
        let wal = Wal::open_dir(&dir).unwrap();
        assert_eq!(wal.records().unwrap(), vec![LogRecord::Begin { tid: 1 }]);
        assert_eq!(wal.truncated_bytes(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segments_roll_at_threshold() {
        let dir = tmp_dir("roll");
        let cfg = WalConfig {
            segment_bytes: 64,
            ..WalConfig::default()
        };
        {
            let wal = Wal::open_dir_with(&dir, cfg.clone()).unwrap();
            for tid in 1..=20 {
                wal.append(LogRecord::Begin { tid }).unwrap();
                wal.append_durable(LogRecord::Commit { tid, cid: tid })
                    .unwrap();
            }
        }
        let wal = Wal::open_dir_with(&dir, cfg).unwrap();
        assert!(wal.segment_paths().len() > 1, "log should have rolled");
        assert_eq!(wal.recover().unwrap().committed.len(), 20);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_restores_and_prunes() {
        let dir = tmp_dir("ckpt");
        let cfg = WalConfig {
            segment_bytes: 64,
            ..WalConfig::default()
        };
        {
            let wal = Wal::open_dir_with(&dir, cfg.clone()).unwrap();
            for tid in 1..=10 {
                wal.append(LogRecord::Begin { tid }).unwrap();
                wal.append_durable(LogRecord::Commit { tid, cid: tid })
                    .unwrap();
            }
            wal.checkpoint(10, 10, b"engine snapshot", Some(wal.active_segment()))
                .unwrap();
            assert!(wal.segment_paths().len() <= 1, "pruned to active segment");
            wal.append(LogRecord::Begin { tid: 11 }).unwrap();
            wal.append_durable(LogRecord::Commit { tid: 11, cid: 11 })
                .unwrap();
        }
        let wal = Wal::open_dir_with(&dir, cfg).unwrap();
        let ckpt = wal.latest_checkpoint().expect("checkpoint survives reopen");
        assert_eq!(ckpt.cid, 10);
        assert_eq!(ckpt.payload, b"engine snapshot");
        let report = wal.recover().unwrap();
        assert_eq!(report.checkpoint_cid, 10);
        // Replay needs only the suffix past the checkpoint; commits the
        // snapshot covers are filtered out by CID, whether or not their
        // records survived in the (unpruned) active segment.
        let to_replay: Vec<_> = report
            .committed
            .iter()
            .filter(|&&(_, cid)| cid > report.checkpoint_cid)
            .collect();
        assert_eq!(to_replay, vec![&(11, 11)]);
        assert_eq!(report.max_committed_cid(), 11);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn only_a_checkpoint_that_deletes_a_segment_deletes_the_older_sidecars() {
        let dir = tmp_dir("ckpt-sidecars");
        let cfg = WalConfig {
            segment_bytes: 64,
            ..WalConfig::default()
        };
        let wal = Wal::open_dir_with(&dir, cfg).unwrap();
        let commit = |tid| {
            wal.append(LogRecord::Begin { tid }).unwrap();
            wal.append_durable(LogRecord::Commit { tid, cid: tid })
                .unwrap();
        };
        let sidecars = || {
            let list = checkpoint::list(&dir);
            list.into_iter().map(|(seq, _)| seq).collect::<Vec<_>>()
        };
        commit(1);
        wal.checkpoint(1, 1, b"one", None).unwrap();
        // Nothing below the active segment to delete: both stay.
        wal.checkpoint(1, 1, b"two", Some(1)).unwrap();
        assert_eq!(sidecars(), [2, 1]);
        // A third that deletes no segment keeps itself and the one
        // before it.
        wal.checkpoint(1, 1, b"three", None).unwrap();
        assert_eq!(sidecars(), [3, 2]);
        for tid in 2..=6 {
            commit(tid);
        }
        wal.checkpoint(6, 6, b"four", Some(wal.active_segment()))
            .unwrap();
        assert_eq!(sidecars(), [4]);
        drop(wal);
        let wal = Wal::open_dir(&dir).unwrap();
        assert_eq!(wal.latest_checkpoint().unwrap().payload, b"four");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_ahead_of_log_is_rejected() {
        let dir = tmp_dir("ckpt-ahead");
        {
            let wal = Wal::open_dir(&dir).unwrap();
            wal.append_durable(LogRecord::Commit { tid: 1, cid: 1 })
                .unwrap();
        }
        // A sidecar claiming CID 99 with no log evidence must be ignored.
        checkpoint::write(&dir, 7, 99, 99, b"from the future").unwrap();
        let wal = Wal::open_dir(&dir).unwrap();
        assert!(wal.latest_checkpoint().is_none());
        assert_eq!(wal.recover().unwrap().checkpoint_cid, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_fsync_failure_poisons_the_log() {
        let dir = tmp_dir("poison");
        let cfg = WalConfig {
            fsyncs_until_fail: Some(1),
            ..WalConfig::default()
        };
        let wal = Wal::open_dir_with(&dir, cfg).unwrap();
        wal.append_durable(LogRecord::Commit { tid: 1, cid: 1 })
            .unwrap();
        let err = wal
            .append_durable(LogRecord::Commit { tid: 2, cid: 2 })
            .unwrap_err();
        assert_eq!(err.kind(), "io");
        assert!(wal.poisoned().is_some());
        // Every later append fails fast: the prefix is gone.
        assert!(wal.append(LogRecord::Begin { tid: 3 }).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_flush_acknowledges_none_of_its_tickets() {
        let dir = tmp_dir("failed-flush");
        let cfg = WalConfig {
            fsyncs_until_fail: Some(1),
            ..WalConfig::default()
        };
        {
            let wal = Wal::open_dir_with(&dir, cfg).unwrap();
            wal.append_durable(LogRecord::Commit { tid: 1, cid: 1 })
                .unwrap();
            // Both threads submit before either waits, so their tickets
            // share the next flush, which fails.
            let both = std::sync::Barrier::new(2);
            let results: Vec<Result<()>> = std::thread::scope(|s| {
                let waits: Vec<_> = (2..=3u64)
                    .map(|tid| {
                        let (wal, both) = (&wal, &both);
                        s.spawn(move || {
                            let ticket = wal.submit_durable(LogRecord::Commit { tid, cid: tid });
                            both.wait();
                            ticket.wait()
                        })
                    })
                    .collect();
                waits.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert!(results.iter().all(|r| r.is_err()), "{results:?}");
            // A later submit fails at once, without a flush.
            let late = wal.submit_durable(LogRecord::Commit { tid: 4, cid: 4 });
            assert!(matches!(late.0, TicketInner::Ready(Err(_))));
        }
        let wal = Wal::open_dir(&dir).unwrap();
        assert_eq!(wal.recover().unwrap().committed, vec![(1, 1)]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
