//! Per-partition write-ahead logs with coordinated recovery.
//!
//! Each node of a distributed table gets its own segmented WAL
//! (`<dir>/part-NNN/`), holding full row images of the inserts routed to
//! that partition. Durability is **coordinated** with the transaction
//! coordinator's log:
//!
//! 1. routed rows are appended to their home partition's log;
//! 2. every touched partition log is fsynced (`sync`) *before* the
//!    coordinator makes its commit record durable — so a commit record
//!    in the coordinator log proves the partition redo is on disk;
//! 3. after the commit point, a `Commit` marker is appended to the
//!    partition logs without its own fsync (pure bookkeeping — the
//!    coordinator log is the source of truth for outcomes).
//!
//! Recovery therefore replays a partition log's `Data` records only for
//! transactions the *coordinator* log committed: a partition record
//! whose coordinator commit never became durable is ignored, and a
//! partition tail torn mid-append can only affect transactions whose
//! commit record cannot exist either.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use hana_txn::{LogRecord, Wal};
use hana_types::{decode_row, encode_row, Result, Row};

use crate::table::DistTable;

/// One WAL per node of a distributed table.
pub struct PartitionWals {
    dir: PathBuf,
    wals: Vec<Arc<Wal>>,
}

impl PartitionWals {
    /// Open (or create) one log per partition under `dir`.
    pub fn open(dir: &Path, partitions: usize) -> Result<PartitionWals> {
        let mut wals = Vec::with_capacity(partitions);
        for p in 0..partitions {
            wals.push(Arc::new(Wal::open_dir(&dir.join(format!("part-{p:03}")))?));
        }
        Ok(PartitionWals {
            dir: dir.to_path_buf(),
            wals,
        })
    }

    /// Root directory of the partition logs.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The per-partition logs, index = partition number.
    pub fn wals(&self) -> &[Arc<Wal>] {
        &self.wals
    }
}

impl DistTable {
    /// Attach per-partition WALs under `dir` (one subdirectory per
    /// node). Idempotent for the same directory.
    pub fn attach_wal(&self, dir: &Path) -> Result<()> {
        let mut slot = self.wal_slot().write();
        if slot.is_none() {
            *slot = Some(Arc::new(PartitionWals::open(dir, self.node_count())?));
        }
        Ok(())
    }

    /// The attached partition logs, if any.
    pub fn partition_wals(&self) -> Option<Arc<PartitionWals>> {
        self.wal_slot().read().clone()
    }

    /// Log the routed row images of `tid` — `buckets[node]`, as the
    /// repartition exchange delivered them — to their home partitions'
    /// WALs and make those logs durable. Called *before* the
    /// coordinator's commit record, so a durable commit implies durable
    /// partition redo. Returns `false`, logging nothing, when no WAL is
    /// attached.
    pub fn log_buckets(&self, tid: u64, buckets: &[Vec<Row>]) -> Result<bool> {
        let Some(wals) = self.partition_wals() else {
            return Ok(false);
        };
        for (wal, bucket) in wals.wals.iter().zip(buckets) {
            for row in bucket {
                wal.append(LogRecord::Data {
                    tid,
                    engine: "dist".into(),
                    payload: encode_row(row.values()),
                })?;
            }
            wal.sync()?;
        }
        Ok(true)
    }

    /// Post-commit bookkeeping: mark `tid` committed in every partition
    /// log (not individually fsynced — the coordinator log decides).
    pub fn log_commit(&self, tid: u64, cid: u64) {
        if let Some(wals) = self.partition_wals() {
            for w in &wals.wals {
                if let Err(e) = w.append(LogRecord::Commit { tid, cid }) {
                    hana_obs::warn(format!(
                        "partition WAL commit marker for txn {tid} lost: {e}"
                    ));
                }
            }
        }
    }

    /// The partition-logged row images of coordinator-committed
    /// transaction `tid`, in node order — recovery re-applies them
    /// through the platform's bulk write path.
    pub fn redo_rows(&self, tid: u64) -> Result<Vec<Row>> {
        let Some(wals) = self.partition_wals() else {
            return Ok(Vec::new());
        };
        let mut rows = Vec::new();
        for wal in &wals.wals {
            for rec in wal.records() {
                match rec {
                    LogRecord::Data {
                        tid: t, payload, ..
                    } if t == tid => rows.push(decode_row(&payload, self.schema())?),
                    _ => {}
                }
            }
        }
        hana_obs::registry()
            .counter("hana_dist_partition_redo_rows_total")
            .add(rows.len() as u64);
        Ok(rows)
    }
}
