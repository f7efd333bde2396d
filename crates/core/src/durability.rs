//! Coordinated backup and recovery (§3.1, §5): the consistent
//! [`Backup`] across the in-memory and extended stores, restore, and the
//! one recovery routine behind open, point-in-time recovery and
//! roll-forward.
//!
//! A backup — and a checkpoint, which is a backup in the WAL's
//! checkpoint sidecar — is written in the log's own typed records
//! ([`crate::redo`]), separated by `\u{1d}` (the row codec escapes it
//! inside values):
//!
//! ```text
//! epoch  <pipeline> <epoch>                 -- one per ingest-ledger entry
//! ddl    <the table's CREATE text>          -- then, per table:
//! insert <table> local|extended  <rows>     --   its live rows, per side
//! ddl    CREATE INDEX <ix> ON <table> (..)  --   one per secondary index
//! ```
//!
//! A restore — the checkpoint's at open, or [`HanaPlatform::restore`] —
//! creates the tables, redoes their rows as one transaction through the
//! redo routine (so it logs nothing either), then builds the indexes
//! over the loaded rows.

use std::path::Path;

use hana_query::TableSource;
use hana_sql::{parse_statement, Statement};
use hana_txn::{CheckpointCut, LogRecord, RecoveryReport, Wal};
use hana_types::{HanaError, Result, Value};

use crate::ddl::indexed_fragment;
use crate::platform::HanaPlatform;
use crate::redo::{ddl_payload, decode_head, epoch_payload, rows_payload, RowOp, Side};
use crate::security::{Privilege, Session};

const REC_SEP: char = '\u{1d}';

/// What recovery says about a record no reader exists for any more (the
/// rows inside are in the lossy text format, the record is SQL, a bulk
/// record's rows are in per-partition logs, or the checkpoint is in a
/// format of its own).
pub(crate) fn older_format(what: &str) -> HanaError {
    HanaError::Io(format!(
        "{what} was written by an older durable format this build cannot read; \
         start from an empty data directory"
    ))
}

/// A logical, transactionally consistent backup spanning the in-memory
/// store and the extended storage (§3.1: "consistent backup and recovery
/// of both engines"): the tables, their rows and indexes and the
/// streaming-ingest ledger as of one snapshot, in the log's records.
#[derive(Clone)]
pub struct Backup {
    /// The snapshot commit ID everything was captured under.
    pub cid: u64,
    payload: String,
}

impl HanaPlatform {
    /// The one recovery routine: bring a platform that holds every
    /// commit up to `held` (0, or the CID of a backup it restored) to
    /// the end of `records`, the log `wal` holds, as `report`
    /// classified them (up to a point in time). It starts from the
    /// log's own checkpoint when that is newer than `held` and inside
    /// the classification (`report.checkpoint_cid`), else from `held`;
    /// a start below [`Wal::redo_floor`], whose records a checkpoint
    /// may have pruned, is refused before anything applies. From the
    /// start it redoes the committed suffix. Traced as `restore` (the
    /// checkpoint's, when it starts from one) and `redo`. Returns the
    /// number of redone transactions.
    pub(crate) fn recover_log(
        &self,
        wal: &Wal,
        records: Vec<LogRecord>,
        report: &RecoveryReport,
        held: u64,
    ) -> Result<usize> {
        let checkpoint = wal
            .latest_checkpoint()
            .filter(|c| c.cid > held && c.cid == report.checkpoint_cid);
        let start = checkpoint.as_ref().map_or(held, |c| c.cid);
        let floor = wal.redo_floor()?;
        if start < floor {
            return Err(HanaError::Unsupported(format!(
                "a checkpoint pruned the log: redo cannot start at CID {start}, \
                 the oldest CID it can start from is {floor}"
            )));
        }
        if let Some(c) = checkpoint {
            let _restore = hana_obs::span("restore");
            let payload =
                std::str::from_utf8(&c.payload).map_err(|_| older_format("checkpoint"))?;
            self.apply_backup(payload)?;
        }
        let _redo = hana_obs::span("redo");
        self.redo_log(records, report, start)
    }

    /// Take a consistent logical backup across the in-memory store and
    /// the extended storage (one snapshot CID for both).
    pub fn backup(&self, session: &Session) -> Result<Backup> {
        self.security.check(session, Privilege::Operate)?;
        Ok(self.snapshot_backup()?.0)
    }

    /// Durably checkpoint the platform: capture a transactionally
    /// consistent snapshot of every table, write it as the WAL's
    /// checkpoint sidecar and prune the log segments sealed before the
    /// cut, so the next recovery restores the snapshot and replays only
    /// the log suffix. Returns the snapshot commit ID. A volatile log
    /// keeps no checkpoint.
    pub fn write_checkpoint(&self) -> Result<u64> {
        let (backup, cut) = self.snapshot_backup()?;
        self.tm.checkpoint(&cut, backup.payload.as_bytes())?;
        Ok(cut.cid)
    }

    /// Checkpoint barrier: merge-delta and bulk load call this.
    /// A no-op on non-durable platforms; a checkpoint failure is
    /// surfaced as a warning, never as a failure of the statement that
    /// triggered it (the log alone still recovers).
    pub(crate) fn maybe_checkpoint(&self) {
        if self.tm.wal().is_volatile() {
            return;
        }
        if let Err(e) = self.write_checkpoint() {
            hana_obs::warn(format!("checkpoint barrier failed: {e}"));
        }
    }

    /// A backup at a [`CheckpointCut`], and the cut.
    fn snapshot_backup(&self) -> Result<(Backup, CheckpointCut)> {
        // Epoch fence (see `IngestLedger`): no ingest epoch can commit
        // between reading the snapshot cid and reading the ledger, so
        // the captured table rows and ledger agree on exactly which
        // epochs are inside the snapshot. Without this, a checkpoint
        // cut racing an epoch commit could snapshot the rows but not
        // the ledger entry (replay double-applies) or vice versa
        // (replay loses the epoch). The rows are read at the cut's
        // snapshot, so the fence need not cover reading them.
        let (cut, epochs) = {
            let _fence = self.ingest.fence();
            (self.tm.checkpoint_cut(), self.ingest.entries())
        };
        let cid = cut.cid;
        let mut payload = String::new();
        let mut push = |record: String| {
            if !payload.is_empty() {
                payload.push(REC_SEP);
            }
            payload.push_str(&record);
        };
        for (pipeline, epoch) in epochs {
            push(epoch_payload(&pipeline, epoch));
        }
        for (name, _) in self.catalog.list_tables() {
            let entry = self.catalog.table(&name)?;
            let (local, extended) = match &entry.source {
                TableSource::Column(t) => (t.read().snapshot_rows(cid), Vec::new()),
                TableSource::Row(t) => (t.read().scan(hana_txn::Snapshot::at(cid)), Vec::new()),
                TableSource::Extended { remote_table, .. } => {
                    (Vec::new(), self.iq.scan(remote_table, &[], None, cid)?.rows)
                }
                TableSource::Hybrid {
                    hot, cold_table, ..
                } => (
                    hot.read().snapshot_rows(cid),
                    self.iq.scan(cold_table, &[], None, cid)?.rows,
                ),
                TableSource::Distributed(dt) => (dt.snapshot_rows(cid), Vec::new()),
                TableSource::Virtual { .. } => continue, // remote data
            };
            push(ddl_payload(&entry.ddl));
            for (side, rows) in [(Side::Local, local), (Side::Extended, extended)] {
                if !rows.is_empty() {
                    push(rows_payload(RowOp::Insert, &name, side, &rows));
                }
            }
            if let Some(t) = indexed_fragment(&entry.source) {
                for ix in t.read().index_defs() {
                    let columns = ix.columns.iter().map(|c| quoted(c));
                    let columns = columns.collect::<Vec<_>>().join(", ");
                    let (ix, table) = (quoted(&ix.name), quoted(&name));
                    push(ddl_payload(&format!(
                        "CREATE INDEX {ix} ON {table} ({columns})"
                    )));
                }
            }
        }
        Ok((Backup { cid, payload }, cut))
    }

    /// Restore a backup: captured tables are dropped, recreated and
    /// reloaded (in-memory and extended partitions together) through
    /// the redo routine, which logs nothing — so a durable platform
    /// checkpoints the restored state before this returns.
    pub fn restore(&self, session: &Session, backup: &Backup) -> Result<()> {
        self.security.check(session, Privilege::Operate)?;
        self.apply_backup(&backup.payload)?;
        self.checkpoint_redone()
    }

    /// Checkpoint what restore or roll-forward applied, on a durable
    /// platform; its failure is the caller's, as the state is not yet
    /// recoverable.
    fn checkpoint_redone(&self) -> Result<()> {
        if !self.tm.wal().is_volatile() {
            self.write_checkpoint()?;
        }
        Ok(())
    }

    /// Apply a backup's records: note its ledger entries, create its
    /// tables (replacing a live table of the same name), redo all its
    /// rows as one transaction, then build its indexes over them and
    /// refresh the tables' statistics. Traced as the phases `tables`,
    /// `rows`, `indexes` and `statistics`.
    fn apply_backup(&self, payload: &str) -> Result<()> {
        let phase = hana_obs::span("tables");
        let (mut tables, mut rows, mut indexes) = (Vec::new(), Vec::new(), Vec::new());
        let corrupt = |head: &[Value]| HanaError::Io(format!("corrupt checkpoint record {head:?}"));
        for record in payload.split(REC_SEP).filter(|r| !r.is_empty()) {
            let (head, images) = decode_head(record, "checkpoint")?;
            match head.as_slice() {
                [Value::Varchar(kind), Value::Varchar(pipeline), Value::Int(epoch)]
                    if kind == "epoch" =>
                {
                    let epoch = u64::try_from(*epoch).map_err(|_| corrupt(&head))?;
                    self.ingest.note(pipeline, epoch);
                }
                [Value::Varchar(kind), Value::Varchar(text)] if kind == "ddl" => {
                    match parse_statement(text)? {
                        Statement::CreateTable(ct) => {
                            if self.catalog.has_table(&ct.name) {
                                self.drop_table(&ct.name)?;
                            }
                            tables.push(ct.name.clone());
                            self.apply_ddl(Statement::CreateTable(ct), text)?;
                        }
                        index @ Statement::CreateIndex { .. } => {
                            indexes.push((index, text.clone()))
                        }
                        _ => return Err(corrupt(&head)),
                    }
                }
                [Value::Varchar(kind), ..] if kind == "insert" => {
                    rows.push(self.decode_redo(&head, images)?)
                }
                _ => return Err(corrupt(&head)),
            }
        }
        let phase = phase.next("rows");
        self.redo_txn(rows)?;
        let phase = phase.next("indexes");
        for (index, text) in indexes {
            self.apply_ddl(index, &text)?;
        }
        let _phase = phase.next("statistics");
        for table in tables {
            self.refresh_statistics(&table)?;
        }
        Ok(())
    }

    /// Rebuild a platform from the log in the segment directory `dir`
    /// as of `upto_cid` (`None` = everything) — logical point-in-time
    /// recovery through the one recovery routine (`recover_log`): from the
    /// log's checkpoint when the target is at or past it, else from the
    /// log's start, which a pruned log refuses. Returns the volatile
    /// platform and the number of redone transactions.
    pub fn recover_replay(dir: &Path, upto_cid: Option<u64>) -> Result<(HanaPlatform, usize)> {
        let wal = Wal::open_dir(dir)?;
        let (records, report) = wal.recover_records(upto_cid.unwrap_or(u64::MAX))?;
        let platform = HanaPlatform::new_in_memory();
        let redone = platform.recover_log(&wal, records, &report, 0)?;
        Ok((platform, redone))
    }

    /// Roll the platform forward from a restored [`Backup`] at
    /// `after_cid` through the committed transactions of `wal`, via the
    /// one recovery routine (`recover_log`): when `wal`'s checkpoint is
    /// newer than `after_cid` it is restored first, as the log may
    /// have been pruned through it. The records are read back from the
    /// log's files once, after flushing what was appended, so a live
    /// log redoes everything logged before the call; a volatile log
    /// has nothing to redo. Redo logs nothing, so a durable platform
    /// checkpoints the redone state before this returns. Returns the
    /// number of redone transactions.
    pub fn replay_wal_after(&self, session: &Session, wal: &Wal, after_cid: u64) -> Result<usize> {
        self.security.check(session, Privilege::Operate)?;
        let (records, report) = wal.recover_records(u64::MAX)?;
        let redone = self.recover_log(wal, records, &report, after_cid)?;
        self.checkpoint_redone()?;
        Ok(redone)
    }
}

/// `name` as a quoted SQL identifier.
fn quoted(name: &str) -> String {
    format!("\"{}\"", name.replace('"', "\"\""))
}
