//! Coordinated backup and recovery (§3.1, §5): the consistent
//! [`Backup`] across the in-memory and extended stores, its checkpoint
//! codec, restore, and the one recovery routine behind open,
//! point-in-time recovery and roll-forward (the records and the redo
//! routine are in [`crate::redo`]).
//!
//! A checkpoint is a [`Backup`] serialized to bytes for the WAL's
//! checkpoint sidecar: a flat text record stream in which `\u{1d}`
//! separates records and `\u{1}` fields within a record; row lists are
//! written by the durable row codec ([`hana_types::encode_rows`]),
//! which escapes both. Layout:
//!
//! ```text
//! HANACKPT2
//! <cid>
//! E <pipeline> <epoch>        -- one per ingest-ledger entry
//! T <name> <kind...>          -- one per table
//! C <name> <sql type> <n|y>   -- one per column of the last T
//! I <name> <cols...>          -- one per secondary index of the last T
//! R <rows...>                 -- hot/in-memory rows of the last T
//! X <rows...>                 -- cold (extended) rows of the last T
//! ```
//!
//! A restore — the checkpoint's at open, or [`HanaPlatform::restore`] —
//! creates the tables and applies their rows through the redo routine,
//! so it logs nothing either.

use std::path::Path;

use hana_columnar::IndexDef;
use hana_query::TableSource;
use hana_sql::{ColumnSpec, CreateTable, PartitionBy, TableKind};
use hana_txn::{CheckpointCut, LogRecord, RecoveryReport, Wal};
use hana_types::{
    decode_row, decode_rows, encode_row, encode_rows, ColumnDef, DataType, HanaError, Result, Row,
    Schema,
};

use crate::catalog::TableKindInfo;
use crate::ddl::indexed_fragment;
use crate::platform::HanaPlatform;
use crate::redo::{Redo, RowOp, Side};
use crate::security::{Privilege, Session};

const REC_SEP: char = '\u{1d}';
const FIELD_SEP: char = '\u{1}';

const MAGIC: &str = "HANACKPT2";

/// What recovery says about a record no reader exists for any more (the
/// rows inside are in the lossy text format, or the record is SQL).
pub(crate) fn older_format(what: &str) -> HanaError {
    HanaError::Io(format!(
        "{what} was written by an older durable format this build cannot read; \
         start from an empty data directory"
    ))
}

/// A logical, transactionally consistent backup spanning the in-memory
/// store and the extended storage (§3.1: "consistent backup and recovery
/// of both engines").
#[derive(Clone)]
pub struct Backup {
    /// The snapshot commit ID everything was captured under.
    pub cid: u64,
    pub(crate) entries: Vec<BackupEntry>,
    /// Streaming-ingest ledger at the snapshot cut: `(pipeline,
    /// highest committed epoch)` — restoring it keeps epoch dedup
    /// working after the log prefix holding those epochs is pruned.
    pub(crate) ingest_epochs: Vec<(String, u64)>,
}

#[derive(Clone)]
pub(crate) struct BackupEntry {
    pub(crate) name: String,
    pub(crate) kind: TableKindInfo,
    pub(crate) schema: Schema,
    pub(crate) rows: Vec<Row>,
    pub(crate) cold_rows: Vec<Row>,
    /// Secondary index definitions (checkpoints prune the log, so
    /// CREATE INDEX records cannot be relied on surviving replay).
    pub(crate) indexes: Vec<IndexDef>,
}

impl Backup {
    /// Number of captured tables.
    pub fn table_count(&self) -> usize {
        self.entries.len()
    }

    /// Total captured rows.
    pub fn row_count(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.rows.len() + e.cold_rows.len())
            .sum()
    }
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
    /// start it redoes the committed suffix. Returns the number of
    /// redone transactions.
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
            self.apply_backup(decode_backup(&c.payload)?)?;
        }
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
        self.tm.checkpoint(&cut, &encode_backup(&backup))?;
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
        // (replay loses the epoch).
        let _fence = self.ingest.fence();
        // Cut at a commit ID whose predecessors have all applied: a
        // commit still between CID assignment and phase 2 would be
        // recorded as covered without its rows.
        let cut = self.tm.checkpoint_cut();
        let cid = cut.cid;
        let mut entries = Vec::new();
        for (name, _) in self.catalog.list_tables() {
            let entry = self.catalog.table(&name)?;
            let schema = entry.source.schema();
            let (rows, cold_rows) = match &entry.source {
                TableSource::Column(t) => (t.read().snapshot_rows(cid), Vec::new()),
                TableSource::Row(t) => (t.read().scan(hana_txn::Snapshot::at(cid)), Vec::new()),
                TableSource::Extended { remote_table, .. } => {
                    (self.iq.scan(remote_table, &[], None, cid)?.rows, Vec::new())
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
            let indexes = indexed_fragment(&entry.source)
                .map(|t| t.read().index_defs())
                .unwrap_or_default();
            entries.push(BackupEntry {
                name,
                kind: entry.kind.clone(),
                schema,
                rows,
                cold_rows,
                indexes,
            });
        }
        let backup = Backup {
            cid,
            entries,
            ingest_epochs: self.ingest.entries(),
        };
        Ok((backup, cut))
    }

    /// Restore a backup: captured tables are dropped, recreated and
    /// reloaded (in-memory and extended partitions together) through
    /// the redo routine, which logs nothing — so a durable platform
    /// checkpoints the restored state before this returns.
    pub fn restore(&self, session: &Session, backup: &Backup) -> Result<()> {
        self.security.check(session, Privilege::Operate)?;
        self.apply_backup(backup.clone())?;
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

    /// Recreate the tables of `backup` and apply its rows as one redone
    /// transaction; then build its indexes over them and refresh the
    /// tables' statistics.
    fn apply_backup(&self, mut backup: Backup) -> Result<()> {
        // Ledger first: any epoch captured in the snapshot must dedup
        // if the log suffix (or a producer) re-delivers it.
        for (pipeline, epoch) in &backup.ingest_epochs {
            self.ingest.note(pipeline, *epoch);
        }
        let mut rows = Vec::new();
        for e in &backup.entries {
            if self.catalog.has_table(&e.name) {
                self.drop_table(&e.name)?;
            }
            self.create_table(create_spec(e))?;
        }
        for e in &mut backup.entries {
            let sides = [
                (Side::Local, &mut e.rows),
                (Side::Extended, &mut e.cold_rows),
            ];
            for (side, images) in sides {
                if !images.is_empty() {
                    rows.push(Redo::Rows {
                        op: RowOp::Insert,
                        table: e.name.clone(),
                        side,
                        rows: std::mem::take(images),
                    });
                }
            }
        }
        self.redo_txn(rows)?;
        for e in &backup.entries {
            if !e.indexes.is_empty() {
                let entry = self.catalog.table(&e.name)?;
                if let Some(t) = indexed_fragment(&entry.source) {
                    for ix in &e.indexes {
                        t.write().create_index(&ix.name, &ix.columns)?;
                    }
                }
            }
            self.refresh_statistics(&e.name)?;
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

/// The `CREATE TABLE` a backup entry's table was made with.
fn create_spec(e: &BackupEntry) -> CreateTable {
    let columns: Vec<ColumnSpec> = e
        .schema
        .columns()
        .iter()
        .map(|c| ColumnSpec {
            name: c.name.clone(),
            type_name: c.data_type.sql_name().to_string(),
            not_null: !c.nullable,
            primary_key: false,
        })
        .collect();
    let ext = |hybrid, aging_column| {
        Some(hana_sql::ExtendedSpec {
            hybrid,
            aging_column,
        })
    };
    let (kind, extended, partition) = match &e.kind {
        TableKindInfo::Column | TableKindInfo::Virtual => (TableKind::Column, None, None),
        TableKindInfo::Row => (TableKind::Row, None, None),
        TableKindInfo::Extended => (TableKind::Column, ext(false, None), None),
        TableKindInfo::Hybrid { aging_column, .. } => (
            TableKind::Column,
            ext(true, Some(aging_column.clone())),
            None,
        ),
        TableKindInfo::Distributed { partition } => {
            (TableKind::Column, None, Some(partition.clone()))
        }
    };
    CreateTable {
        name: e.name.clone(),
        kind,
        columns,
        extended,
        partition,
    }
}

/// Append one `tag field*` record.
fn push_record<S: AsRef<str>>(out: &mut String, tag: char, fields: impl IntoIterator<Item = S>) {
    out.push(REC_SEP);
    out.push(tag);
    for f in fields {
        out.push(FIELD_SEP);
        out.push_str(f.as_ref());
    }
}

fn kind_fields(kind: &TableKindInfo) -> Vec<String> {
    let fields: Vec<&str> = match kind {
        TableKindInfo::Column => vec!["column"],
        TableKindInfo::Row => vec!["row"],
        TableKindInfo::Extended => vec!["extended"],
        TableKindInfo::Virtual => vec!["virtual"],
        TableKindInfo::Hybrid {
            aging_column,
            cold_table,
        } => vec!["hybrid", aging_column, cold_table],
        TableKindInfo::Distributed { partition } => match partition {
            PartitionBy::Hash { column, partitions } => {
                return vec!["hash".into(), column.clone(), partitions.to_string()]
            }
            PartitionBy::Range {
                column,
                split_points,
            } => {
                let points = split_points
                    .iter()
                    .map(|v| encode_row(std::slice::from_ref(v)));
                return ["range".into(), column.clone()]
                    .into_iter()
                    .chain(points)
                    .collect();
            }
        },
    };
    fields.into_iter().map(str::to_string).collect()
}

/// Serialize a backup into checkpoint payload bytes.
pub(crate) fn encode_backup(backup: &Backup) -> Vec<u8> {
    let mut out = format!("{MAGIC}{REC_SEP}{}", backup.cid);
    for (pipeline, epoch) in &backup.ingest_epochs {
        push_record(&mut out, 'E', [pipeline, &epoch.to_string()]);
    }
    for e in &backup.entries {
        let table = std::iter::once(e.name.clone()).chain(kind_fields(&e.kind));
        push_record(&mut out, 'T', table);
        for c in e.schema.columns() {
            let nullable = if c.nullable { "y" } else { "n" };
            push_record(&mut out, 'C', [&c.name, c.data_type.sql_name(), nullable]);
        }
        for ix in &e.indexes {
            push_record(&mut out, 'I', std::iter::once(&ix.name).chain(&ix.columns));
        }
        push_record(&mut out, 'R', [encode_rows(&e.rows)]);
        push_record(&mut out, 'X', [encode_rows(&e.cold_rows)]);
    }
    out.into_bytes()
}

fn bad(what: &str) -> HanaError {
    HanaError::Io(format!("corrupt checkpoint snapshot: {what}"))
}

fn decode_kind(
    fields: &[&str],
    key_type: impl Fn(&str) -> Result<DataType>,
) -> Result<TableKindInfo> {
    match fields {
        ["column"] => Ok(TableKindInfo::Column),
        ["row"] => Ok(TableKindInfo::Row),
        ["extended"] => Ok(TableKindInfo::Extended),
        ["virtual"] => Ok(TableKindInfo::Virtual),
        ["hybrid", aging, cold] => Ok(TableKindInfo::Hybrid {
            aging_column: (*aging).to_string(),
            cold_table: (*cold).to_string(),
        }),
        ["hash", column, n] => Ok(TableKindInfo::Distributed {
            partition: PartitionBy::Hash {
                column: (*column).to_string(),
                partitions: n.parse().map_err(|_| bad("hash partition count"))?,
            },
        }),
        ["range", column, points @ ..] => {
            let key = Schema::new(vec![ColumnDef::new(column, key_type(column)?)])?;
            Ok(TableKindInfo::Distributed {
                partition: PartitionBy::Range {
                    column: (*column).to_string(),
                    split_points: points
                        .iter()
                        .map(|p| Ok(decode_row(p, &key)?.0.remove(0)))
                        .collect::<Result<_>>()?,
                },
            })
        }
        _ => Err(bad("unknown table kind")),
    }
}

/// Parse checkpoint payload bytes back into a [`Backup`].
pub(crate) fn decode_backup(payload: &[u8]) -> Result<Backup> {
    let text = std::str::from_utf8(payload).map_err(|_| bad("not UTF-8"))?;
    let mut records = text.split(REC_SEP);
    match records.next() {
        Some(MAGIC) => {}
        Some(m) if m.starts_with("HANACKPT") => return Err(older_format("checkpoint")),
        _ => return Err(bad("bad magic")),
    }
    let cid: u64 = records
        .next()
        .ok_or_else(|| bad("missing cid"))?
        .parse()
        .map_err(|_| bad("bad cid"))?;
    // First pass collects the raw pieces; kinds that need the schema
    // (range split points) are resolved once the columns are known.
    struct Pending {
        name: String,
        kind_fields: Vec<String>,
        columns: Vec<ColumnDef>,
        indexes: Vec<IndexDef>,
        rows_text: String,
        cold_text: String,
    }
    let mut pending: Vec<Pending> = Vec::new();
    let mut ingest_epochs: Vec<(String, u64)> = Vec::new();
    let orphan = || bad("record before its table");
    for rec in records {
        let (tag, rest) = rec.split_once(FIELD_SEP).ok_or_else(|| bad("bad record"))?;
        match tag {
            "E" => {
                let (pipeline, epoch) = rest
                    .split_once(FIELD_SEP)
                    .ok_or_else(|| bad("bad ledger record"))?;
                ingest_epochs.push((
                    pipeline.to_string(),
                    epoch.parse().map_err(|_| bad("bad ledger epoch"))?,
                ));
            }
            "T" => {
                let mut fields = rest.split(FIELD_SEP);
                let name = fields.next().ok_or_else(|| bad("missing name"))?;
                pending.push(Pending {
                    name: name.to_string(),
                    kind_fields: fields.map(str::to_string).collect(),
                    columns: Vec::new(),
                    indexes: Vec::new(),
                    rows_text: String::new(),
                    cold_text: String::new(),
                });
            }
            "C" => {
                let cur = pending.last_mut().ok_or_else(orphan)?;
                let f: Vec<&str> = rest.split(FIELD_SEP).collect();
                let [name, ty, nullable] = f[..] else {
                    return Err(bad("bad column record"));
                };
                cur.columns.push(ColumnDef {
                    name: name.to_string(),
                    data_type: DataType::parse_sql(ty)?,
                    nullable: nullable == "y",
                });
            }
            "I" => {
                let cur = pending.last_mut().ok_or_else(orphan)?;
                let mut fields = rest.split(FIELD_SEP);
                let name = fields.next().ok_or_else(|| bad("missing index name"))?;
                let columns: Vec<String> = fields.map(str::to_string).collect();
                if columns.is_empty() {
                    return Err(bad("index without columns"));
                }
                cur.indexes.push(IndexDef {
                    name: name.to_string(),
                    columns,
                });
            }
            "R" => pending.last_mut().ok_or_else(orphan)?.rows_text = rest.to_string(),
            "X" => pending.last_mut().ok_or_else(orphan)?.cold_text = rest.to_string(),
            _ => return Err(bad("unknown record tag")),
        }
    }
    let mut entries = Vec::with_capacity(pending.len());
    for p in pending {
        let schema = Schema::new(p.columns)?;
        let kind_fields: Vec<&str> = p.kind_fields.iter().map(String::as_str).collect();
        let kind = decode_kind(&kind_fields, |col| {
            Ok(schema.column(schema.require(col)?).data_type)
        })?;
        let rows = decode_rows(&p.rows_text, &schema)?;
        let cold_rows = decode_rows(&p.cold_text, &schema)?;
        entries.push(BackupEntry {
            name: p.name,
            kind,
            schema,
            rows,
            cold_rows,
            indexes: p.indexes,
        });
    }
    Ok(Backup {
        cid,
        entries,
        ingest_epochs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hana_types::Value;

    #[test]
    fn backup_round_trips_through_the_codec() {
        let schema = Schema::of(&[("k", DataType::Int), ("s", DataType::Varchar)]);
        let backup = Backup {
            cid: 42,
            entries: vec![
                BackupEntry {
                    name: "plain".into(),
                    kind: TableKindInfo::Column,
                    schema: schema.clone(),
                    rows: vec![
                        Row(vec![Value::Int(1), Value::Varchar("a b".into())]),
                        Row(vec![Value::Int(2), Value::Null]),
                    ],
                    cold_rows: Vec::new(),
                    indexes: vec![IndexDef {
                        name: "ix_ks".into(),
                        columns: vec!["k".into(), "s".into()],
                    }],
                },
                BackupEntry {
                    name: "parts".into(),
                    kind: TableKindInfo::Distributed {
                        partition: PartitionBy::Range {
                            column: "k".into(),
                            split_points: vec![Value::Int(10), Value::Int(20)],
                        },
                    },
                    schema,
                    rows: Vec::new(),
                    cold_rows: Vec::new(),
                    indexes: Vec::new(),
                },
            ],
            ingest_epochs: vec![("feed".into(), 12), ("other".into(), 3)],
        };
        let decoded = decode_backup(&encode_backup(&backup)).unwrap();
        assert_eq!(decoded.cid, 42);
        assert_eq!(decoded.ingest_epochs, backup.ingest_epochs);
        assert_eq!(decoded.entries.len(), 2);
        assert_eq!(decoded.entries[0].rows, backup.entries[0].rows);
        assert_eq!(decoded.entries[0].kind, backup.entries[0].kind);
        assert_eq!(decoded.entries[0].indexes, backup.entries[0].indexes);
        assert_eq!(decoded.entries[1].kind, backup.entries[1].kind);
        assert!(decoded.entries[1].indexes.is_empty());
    }

    #[test]
    fn damaged_payload_is_an_error_not_a_panic() {
        assert!(decode_backup(b"garbage").is_err());
        assert!(decode_backup(&[0xFF, 0xFE]).is_err());
    }
}
