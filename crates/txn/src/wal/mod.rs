//! Write-ahead log with group commit, checkpoints and point-in-time
//! recovery.
//!
//! The log records transaction lifecycle events as CRC-framed records in
//! rolling segment files (see [`frame`] and [`segment`]). Durable
//! appends go through a group committer ([`group`]) that batches
//! concurrent commit points into one fsync. Checkpoints ([`checkpoint`])
//! snapshot engine state so recovery replays only the log suffix.
//!
//! Replaying a (possibly torn) log classifies every transaction as
//! committed, aborted or **in-doubt** — the state §3.1 of the paper
//! describes for transactions that had touched the extended store when a
//! crash hit between prepare and commit. The reader tolerates a torn
//! tail (crash mid-append) on the last segment by truncating it; damage
//! anywhere else is corruption and fails the open.

mod checkpoint;
mod frame;
mod group;
mod segment;

pub use group::DurableTicket;

use std::fmt;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use hana_types::{HanaError, Result};

use self::frame::encode_frame;
use self::group::{GroupCommitter, TicketInner};
use self::segment::{LogWriter, Storage, DEFAULT_SEGMENT_BYTES};

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
    /// Group-commit batching window. Zero disables the committer thread:
    /// every durable append pays its own write + fsync.
    pub group_commit_window: Duration,
    /// Size at which the active segment rolls over (directory mode).
    pub segment_bytes: u64,
    /// Injected failure point for crash testing: after this many
    /// successful fsyncs the writer fails permanently, dropping the
    /// in-flight batch. `None` in production.
    pub fsyncs_until_fail: Option<u64>,
}

impl Default for WalConfig {
    fn default() -> WalConfig {
        WalConfig {
            group_commit_window: Duration::from_micros(200),
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
    /// No file: records live only in memory (unit tests).
    Volatile,
    /// Committer thread batching appends into shared fsyncs.
    Grouped(GroupCommitter),
    /// Per-commit fsync: each durable append pays its own sync.
    Direct(Mutex<DirectState>),
}

struct DirectState {
    writer: LogWriter,
    poisoned: Option<String>,
}

struct AppendState {
    records: Vec<LogRecord>,
    /// Cumulative end offset (across segments) of each record's frame,
    /// parallel to `records` — the crash-point harness keys truncation
    /// points on these.
    end_offsets: Vec<u64>,
    next_offset: u64,
}

/// The write-ahead log. Shared by reference: all methods take `&self`.
pub struct Wal {
    state: Mutex<AppendState>,
    backend: Backend,
    storage: Option<Storage>,
    checkpoint_dir: Option<PathBuf>,
    latest_checkpoint: Mutex<Option<WalCheckpoint>>,
    truncated_bytes: u64,
    config: WalConfig,
    /// Passive mode: appends become no-ops. Engaged only while recovery
    /// replays already-logged statements through the normal write path,
    /// so replay does not re-log (and thus double-apply on the *next*
    /// recovery) what the log already contains.
    passive: std::sync::atomic::AtomicBool,
}

impl fmt::Debug for Wal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Wal")
            .field("records", &self.state.lock().records.len())
            .field("truncated_bytes", &self.truncated_bytes)
            .finish()
    }
}

impl Default for Wal {
    fn default() -> Wal {
        Wal::in_memory()
    }
}

impl Wal {
    /// A volatile, in-memory log (unit tests, throwaway instances).
    pub fn in_memory() -> Wal {
        Wal {
            state: Mutex::new(AppendState {
                records: Vec::new(),
                end_offsets: Vec::new(),
                next_offset: 0,
            }),
            backend: Backend::Volatile,
            storage: None,
            checkpoint_dir: None,
            latest_checkpoint: Mutex::new(None),
            truncated_bytes: 0,
            config: WalConfig::default(),
            passive: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// A durable log appended to the single file `path` (created if
    /// missing, never rolled). Existing records are loaded so recovery
    /// can run over them; a torn final record is truncated away with a
    /// warning rather than failing the open.
    pub fn with_file(path: &Path) -> Result<Wal> {
        Wal::open_storage(
            Storage::SingleFile(path.to_path_buf()),
            WalConfig::default(),
        )
    }

    /// A durable segmented log in directory `dir`, with the default
    /// configuration.
    pub fn open_dir(dir: &Path) -> Result<Wal> {
        Wal::open_dir_with(dir, WalConfig::default())
    }

    /// A durable segmented log in directory `dir` with explicit config.
    pub fn open_dir_with(dir: &Path, config: WalConfig) -> Result<Wal> {
        Wal::open_storage(Storage::Dir(dir.to_path_buf()), config)
    }

    fn open_storage(storage: Storage, config: WalConfig) -> Result<Wal> {
        if let Storage::Dir(dir) = &storage {
            std::fs::create_dir_all(dir)?;
        }
        let loaded = segment::load(&storage, true)?;
        let mut records = Vec::with_capacity(loaded.payloads.len());
        let mut end_offsets = Vec::with_capacity(loaded.payloads.len());
        let mut next_offset = 0u64;
        for p in &loaded.payloads {
            let text = std::str::from_utf8(&p.payload)
                .map_err(|_| HanaError::Io("non-UTF-8 WAL record".into()))?;
            records.push(LogRecord::deserialize(text)?);
            end_offsets.push(p.end_offset);
            next_offset = p.end_offset;
        }
        // A checkpoint sidecar is only trusted once the log itself shows
        // commits (or a checkpoint record) reaching its CID — guards a
        // sidecar that outlived a truncated log tail.
        let cid_limit = records
            .iter()
            .filter_map(|r| match r {
                LogRecord::Commit { cid, .. } | LogRecord::Checkpoint { cid } => Some(*cid),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let (checkpoint_dir, latest) = match &storage {
            Storage::Dir(dir) => (
                Some(dir.clone()),
                checkpoint::load_latest(dir, cid_limit).map(|c| WalCheckpoint {
                    cid: c.cid,
                    max_tid: c.max_tid,
                    payload: c.payload,
                }),
            ),
            Storage::SingleFile(_) => (None, None),
        };
        let writer = LogWriter::open(
            storage.clone(),
            loaded.last_seq,
            config.segment_bytes,
            config.fsyncs_until_fail,
        )?;
        let backend = if config.group_commit_window.is_zero() {
            Backend::Direct(Mutex::new(DirectState {
                writer,
                poisoned: None,
            }))
        } else {
            Backend::Grouped(GroupCommitter::spawn(writer, config.group_commit_window))
        };
        Ok(Wal {
            state: Mutex::new(AppendState {
                records,
                end_offsets,
                next_offset,
            }),
            backend,
            storage: Some(storage),
            checkpoint_dir,
            latest_checkpoint: Mutex::new(latest),
            truncated_bytes: loaded.truncated_bytes,
            config,
            passive: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// Engage/disengage passive mode (recovery replay only): while
    /// passive, every append is dropped. See the field docs.
    pub fn set_passive(&self, on: bool) {
        self.passive.store(on, std::sync::atomic::Ordering::SeqCst);
    }

    /// Whether the log is in passive (recovery replay) mode.
    pub fn passive(&self) -> bool {
        self.passive.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// The segment directory for directory-backed logs.
    pub fn dir(&self) -> Option<PathBuf> {
        match &self.storage {
            Some(Storage::Dir(d)) => Some(d.clone()),
            _ => None,
        }
    }

    /// Whether this log persists to a segment directory (and therefore
    /// supports checkpoint sidecars and segment pruning).
    pub fn is_durable_dir(&self) -> bool {
        self.checkpoint_dir.is_some()
    }

    /// Bytes dropped from a torn tail at open time (0 for a clean log).
    pub fn truncated_bytes(&self) -> u64 {
        self.truncated_bytes
    }

    /// The active configuration.
    pub fn config(&self) -> &WalConfig {
        &self.config
    }

    /// Segment files in replay order (empty for in-memory logs).
    pub fn segment_paths(&self) -> Vec<PathBuf> {
        self.storage
            .as_ref()
            .and_then(|s| s.segment_paths().ok())
            .unwrap_or_default()
    }

    /// Cumulative end offset of each record's frame, parallel to
    /// [`Wal::records`] — crash harnesses truncate copies of the log at
    /// these (and every other) byte positions.
    pub fn record_end_offsets(&self) -> Vec<u64> {
        self.state.lock().end_offsets.clone()
    }

    /// Why the log refuses appends, if a write/fsync failed.
    pub fn poisoned(&self) -> Option<String> {
        match &self.backend {
            Backend::Volatile => None,
            Backend::Grouped(g) => g.poisoned(),
            Backend::Direct(d) => d.lock().poisoned.clone(),
        }
    }

    /// Enqueue `rec` for append without waiting for durability. The
    /// record is durable no later than the next synced batch.
    pub fn append(&self, rec: LogRecord) -> Result<()> {
        self.submit(rec, false).wait()
    }

    /// Enqueue `rec` and return a ticket that resolves once the record
    /// is on disk. The record's position in the log is fixed *now* (by
    /// append order); the caller blocks on the ticket when ready —
    /// that split is what lets the group committer share fsyncs.
    pub fn submit_durable(&self, rec: LogRecord) -> DurableTicket {
        self.submit(rec, true)
    }

    /// Append `rec` and wait for it to be durable.
    pub fn append_durable(&self, rec: LogRecord) -> Result<()> {
        self.submit(rec, true).wait()
    }

    fn submit(&self, rec: LogRecord, durable: bool) -> DurableTicket {
        if self.passive() {
            return DurableTicket(TicketInner::Ready(Ok(())));
        }
        hana_obs::registry().counter("hana_wal_appends_total").inc();
        // The state lock spans mirror push + backend enqueue so the
        // in-memory record order always matches the on-disk byte order.
        let mut st = self.state.lock();
        let ticket = match &self.backend {
            Backend::Volatile => DurableTicket(TicketInner::Ready(Ok(()))),
            Backend::Grouped(g) => {
                let mut framed = Vec::new();
                encode_frame(rec.serialize().as_bytes(), &mut framed);
                let t = g.enqueue(&framed, durable);
                if matches!(&t.0, TicketInner::Ready(Err(_))) {
                    return t; // poisoned: nothing was enqueued
                }
                st.next_offset += framed.len() as u64;
                let off = st.next_offset;
                st.end_offsets.push(off);
                t
            }
            Backend::Direct(d) => {
                let mut framed = Vec::new();
                encode_frame(rec.serialize().as_bytes(), &mut framed);
                let mut ds = d.lock();
                if let Some(why) = &ds.poisoned {
                    return DurableTicket(TicketInner::Ready(Err(why.clone())));
                }
                let result = ds.writer.write_batch(&framed).and_then(|()| {
                    if durable {
                        ds.writer.sync()
                    } else {
                        Ok(())
                    }
                });
                match result {
                    Ok(()) => {
                        st.next_offset += framed.len() as u64;
                        let off = st.next_offset;
                        st.end_offsets.push(off);
                        DurableTicket(TicketInner::Ready(Ok(())))
                    }
                    Err(e) => {
                        let why = format!("WAL append lost: {e}");
                        ds.poisoned = Some(why.clone());
                        hana_obs::warn(why.clone());
                        return DurableTicket(TicketInner::Ready(Err(why)));
                    }
                }
            }
        };
        st.records.push(rec);
        ticket
    }

    /// Durable barrier: every record appended before this call is on
    /// disk when it returns.
    pub fn sync(&self) -> Result<()> {
        match &self.backend {
            Backend::Volatile => Ok(()),
            Backend::Grouped(g) => g.sync(),
            Backend::Direct(d) => {
                let mut ds = d.lock();
                if let Some(why) = &ds.poisoned {
                    return Err(HanaError::Io(why.clone()));
                }
                ds.writer.sync()
            }
        }
    }

    /// All records, oldest first (after a pruning checkpoint: the
    /// surviving suffix).
    pub fn records(&self) -> Vec<LogRecord> {
        self.state.lock().records.clone()
    }

    /// Classify every transaction seen in the log.
    pub fn recover(&self) -> RecoveryReport {
        self.recover_to(u64::MAX)
    }

    /// Point-in-time recovery: only commits with `cid <= upto_cid` count
    /// as committed; later commits are rolled back (treated as aborted).
    pub fn recover_to(&self, upto_cid: u64) -> RecoveryReport {
        let start = Instant::now();
        let mut report = RecoveryReport::from_records(&self.state.lock().records, upto_cid);
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

    /// Durably record a checkpoint: `payload` (an opaque engine
    /// snapshot covering every commit `<= cid`) is written to a sidecar
    /// file, then a [`LogRecord::Checkpoint`] marks the log. With
    /// `prune`, sealed segments older than the active one are deleted —
    /// callers must only ask for that when no transaction is active, as
    /// pruned records are gone from [`Wal::records`] too.
    pub fn checkpoint(&self, cid: u64, max_tid: u64, payload: &[u8], prune: bool) -> Result<()> {
        if let Some(dir) = &self.checkpoint_dir {
            let seq = checkpoint::max_seq(dir) + 1;
            checkpoint::write(dir, seq, cid, max_tid, payload)?;
        }
        self.append_durable(LogRecord::Checkpoint { cid })?;
        *self.latest_checkpoint.lock() = Some(WalCheckpoint {
            cid,
            max_tid,
            payload: payload.to_vec(),
        });
        if prune {
            self.prune_to_active_segment(cid);
        }
        Ok(())
    }

    /// Delete sealed segments (everything but the active one) and drop
    /// the in-memory mirror of records the checkpoint covers.
    fn prune_to_active_segment(&self, ckpt_cid: u64) {
        let Some(Storage::Dir(dir)) = &self.storage else {
            return;
        };
        let active_seq = match &self.backend {
            Backend::Grouped(g) => g.active_seq(),
            Backend::Direct(d) => d.lock().writer.active_seq(),
            Backend::Volatile => return,
        };
        let mut pruned = 0u64;
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy().to_string();
                if let Some(seq) = name
                    .strip_prefix("wal-")
                    .and_then(|s| s.strip_suffix(".seg"))
                    .and_then(|s| s.parse::<u64>().ok())
                {
                    if seq < active_seq && std::fs::remove_file(entry.path()).is_ok() {
                        pruned += 1;
                    }
                }
            }
        }
        if pruned > 0 {
            segment::sync_dir(dir);
            hana_obs::registry()
                .counter("hana_wal_segments_pruned_total")
                .add(pruned);
        }
        // Keep only records the checkpoint does not cover: finished
        // transactions at or below the checkpoint CID are snapshot state.
        let mut st = self.state.lock();
        let report = RecoveryReport::from_records(&st.records, u64::MAX);
        let covered: std::collections::HashSet<u64> = report
            .committed
            .iter()
            .filter(|&&(_, cid)| cid <= ckpt_cid)
            .map(|&(tid, _)| tid)
            .collect();
        let keep: Vec<LogRecord> = st
            .records
            .iter()
            .filter(|r| match r {
                LogRecord::Checkpoint { cid } => *cid >= ckpt_cid,
                rec => !covered.contains(&rec.tid()),
            })
            .cloned()
            .collect();
        st.records = keep;
        st.end_offsets.clear();
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
        assert_eq!(wal.records().len(), 2);
        assert_eq!(wal.recover().committed, vec![(1, 1)]);
        assert_eq!(wal.truncated_bytes(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn per_commit_mode_works_too() {
        let dir = tmp_dir("direct");
        let cfg = WalConfig {
            group_commit_window: Duration::ZERO,
            ..WalConfig::default()
        };
        {
            let wal = Wal::open_dir_with(&dir, cfg.clone()).unwrap();
            wal.append(LogRecord::Begin { tid: 1 }).unwrap();
            wal.append_durable(LogRecord::Commit { tid: 1, cid: 1 })
                .unwrap();
        }
        let wal = Wal::open_dir_with(&dir, cfg).unwrap();
        assert_eq!(wal.recover().committed, vec![(1, 1)]);
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
        assert_eq!(wal.recover().committed.len(), 20);
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
            wal.checkpoint(10, 10, b"engine snapshot", true).unwrap();
            assert!(wal.segment_paths().len() <= 1, "pruned to active segment");
            wal.append(LogRecord::Begin { tid: 11 }).unwrap();
            wal.append_durable(LogRecord::Commit { tid: 11, cid: 11 })
                .unwrap();
        }
        let wal = Wal::open_dir_with(&dir, cfg).unwrap();
        let ckpt = wal.latest_checkpoint().expect("checkpoint survives reopen");
        assert_eq!(ckpt.cid, 10);
        assert_eq!(ckpt.payload, b"engine snapshot");
        let report = wal.recover();
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
        assert_eq!(wal.recover().checkpoint_cid, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_fsync_failure_poisons_the_log() {
        let dir = tmp_dir("poison");
        let cfg = WalConfig {
            group_commit_window: Duration::ZERO,
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
}
