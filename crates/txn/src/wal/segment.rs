//! Segmented log storage: `wal-NNNNNN.seg` files in a directory (or a
//! single fixed file in legacy mode), a torn-tail-tolerant loader and
//! the append/fsync writer a flush leader drives.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use hana_types::{HanaError, Result};

use super::frame::{decode_frame, FrameOutcome};

/// Default size at which the active segment rolls over.
pub(crate) const DEFAULT_SEGMENT_BYTES: u64 = 4 << 20;

/// File name of segment `seq`.
pub(crate) fn segment_name(seq: u64) -> String {
    format!("wal-{seq:06}.seg")
}

/// Where the log's bytes live.
#[derive(Debug, Clone)]
pub(crate) enum Storage {
    /// One fixed file, never rolled (the legacy `Wal::with_file` shape).
    SingleFile(PathBuf),
    /// A directory of rolling segments.
    Dir(PathBuf),
}

impl Storage {
    /// Segment files in replay order.
    pub(crate) fn segment_paths(&self) -> Result<Vec<PathBuf>> {
        match self {
            Storage::SingleFile(p) => Ok(if p.exists() {
                vec![p.clone()]
            } else {
                Vec::new()
            }),
            Storage::Dir(dir) => {
                let mut seqs: Vec<u64> = Vec::new();
                if dir.exists() {
                    for entry in fs::read_dir(dir)? {
                        let name = entry?.file_name();
                        let name = name.to_string_lossy();
                        if let Some(seq) = name
                            .strip_prefix("wal-")
                            .and_then(|s| s.strip_suffix(".seg"))
                            .and_then(|s| s.parse::<u64>().ok())
                        {
                            seqs.push(seq);
                        }
                    }
                }
                seqs.sort_unstable();
                Ok(seqs.iter().map(|&s| dir.join(segment_name(s))).collect())
            }
        }
    }
}

/// One decoded payload and where its frame ends (cumulative byte offset
/// across all segments, in replay order) — the crash-point harness keys
/// its committed-prefix assertions on these offsets.
pub(crate) struct LoadedPayload {
    /// The frame's payload bytes.
    pub payload: Vec<u8>,
    /// Cumulative end offset of the frame across the whole log.
    pub end_offset: u64,
}

/// The result of loading a log from disk.
pub(crate) struct LoadedLog {
    /// Every checksum-valid payload, in append order.
    pub payloads: Vec<LoadedPayload>,
    /// Bytes dropped from a torn tail (0 for a cleanly ended log).
    pub truncated_bytes: u64,
    /// Highest segment sequence number present (0 when empty).
    pub last_seq: u64,
}

/// Load all segments, tolerating a torn tail on the *last* one: the
/// damaged suffix is truncated away (crash mid-append) and reported via
/// `obs::warn`. Damage anywhere else is real corruption and errors.
pub(crate) fn load(storage: &Storage, repair: bool) -> Result<LoadedLog> {
    let paths = storage.segment_paths()?;
    let mut payloads = Vec::new();
    let mut truncated = 0u64;
    let mut base = 0u64;
    let last = paths.len().saturating_sub(1);
    for (i, path) in paths.iter().enumerate() {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        let mut off = 0usize;
        loop {
            if off == bytes.len() {
                break;
            }
            match decode_frame(&bytes[off..]) {
                FrameOutcome::Complete { payload, consumed } => {
                    payloads.push(LoadedPayload {
                        payload: payload.to_vec(),
                        end_offset: base + (off + consumed) as u64,
                    });
                    off += consumed;
                }
                FrameOutcome::Torn | FrameOutcome::Corrupt if i == last => {
                    // A crash can only tear the tail of the active
                    // segment: drop the damaged suffix and carry on.
                    let lost = (bytes.len() - off) as u64;
                    truncated += lost;
                    hana_obs::warn(format!(
                        "WAL torn tail: truncating {lost} trailing byte(s) of {} \
                         (crash mid-append); committed prefix is intact",
                        path.display()
                    ));
                    if repair {
                        let f = OpenOptions::new().write(true).open(path)?;
                        f.set_len(off as u64)?;
                        f.sync_data()?;
                    }
                    break;
                }
                _ => {
                    return Err(HanaError::Io(format!(
                        "corrupt WAL frame at byte {off} of non-final segment {}",
                        path.display()
                    )));
                }
            }
        }
        base += off as u64;
    }
    let last_seq = match storage {
        Storage::SingleFile(_) => 0,
        Storage::Dir(dir) => paths
            .iter()
            .filter_map(|p| {
                p.strip_prefix(dir)
                    .ok()
                    .and_then(|n| n.to_str())
                    .and_then(|n| n.strip_prefix("wal-"))
                    .and_then(|n| n.strip_suffix(".seg"))
                    .and_then(|n| n.parse::<u64>().ok())
            })
            .max()
            .unwrap_or(0),
    };
    Ok(LoadedLog {
        payloads,
        truncated_bytes: truncated,
        last_seq,
    })
}

/// The append side: owns the active segment file, rolls it at the size
/// threshold (directory mode), fsyncs on demand and hosts the injected
/// fsync-failure point the crash harness drives.
pub(crate) struct LogWriter {
    storage: Storage,
    active: File,
    active_seq: u64,
    active_len: u64,
    segment_bytes: u64,
    /// Injected failure: after this many successful syncs, every write
    /// and sync fails (the batch is dropped, modelling a lost fsync).
    fsyncs_until_fail: Option<u64>,
}

impl LogWriter {
    /// Open (append mode) the active segment of `storage`, creating the
    /// first one if the log is empty.
    pub(crate) fn open(
        storage: Storage,
        last_seq: u64,
        segment_bytes: u64,
        fsyncs_until_fail: Option<u64>,
    ) -> Result<LogWriter> {
        let path = match &storage {
            Storage::SingleFile(p) => p.clone(),
            Storage::Dir(dir) => {
                fs::create_dir_all(dir)?;
                dir.join(segment_name(last_seq.max(1)))
            }
        };
        let mut active = OpenOptions::new().create(true).append(true).open(&path)?;
        let active_len = active.seek(SeekFrom::End(0))?;
        Ok(LogWriter {
            active_seq: match &storage {
                Storage::SingleFile(_) => 0,
                Storage::Dir(_) => last_seq.max(1),
            },
            storage,
            active,
            active_len,
            segment_bytes,
            fsyncs_until_fail,
        })
    }

    /// Sequence number of the active segment.
    pub(crate) fn active_seq(&self) -> u64 {
        self.active_seq
    }

    /// Append one batch of already-framed bytes. Rolls to a fresh
    /// segment first when the active one is full (a batch never splits
    /// across segments, so frames never do either).
    pub(crate) fn write_batch(&mut self, bytes: &[u8]) -> Result<()> {
        if self.failed() {
            return Err(HanaError::Io("WAL writer failed (injected)".into()));
        }
        if let Storage::Dir(_) = &self.storage {
            if self.active_len >= self.segment_bytes {
                self.roll()?;
            }
        }
        self.active.write_all(bytes)?;
        self.active_len += bytes.len() as u64;
        Ok(())
    }

    /// Make everything appended so far durable. Records fsync count and
    /// latency in the global registry.
    pub(crate) fn sync(&mut self) -> Result<()> {
        match &mut self.fsyncs_until_fail {
            Some(0) => {
                return Err(HanaError::Io(
                    "WAL fsync failed (injected failure point)".into(),
                ))
            }
            Some(n) => *n -= 1,
            None => {}
        }
        let start = Instant::now();
        self.active.sync_data()?;
        let reg = hana_obs::registry();
        reg.counter("hana_wal_fsyncs_total").inc();
        reg.histogram("hana_wal_fsync_ns")
            .record(start.elapsed().as_nanos() as u64);
        Ok(())
    }

    fn failed(&self) -> bool {
        self.fsyncs_until_fail == Some(0)
    }

    fn roll(&mut self) -> Result<()> {
        let Storage::Dir(dir) = &self.storage else {
            return Ok(());
        };
        // Seal the full segment before switching so no acknowledged
        // bytes live only in its OS cache.
        self.active.sync_data()?;
        self.active_seq += 1;
        let path = dir.join(segment_name(self.active_seq));
        self.active = OpenOptions::new().create(true).append(true).open(&path)?;
        self.active_len = 0;
        sync_dir(dir);
        hana_obs::registry()
            .counter("hana_wal_segment_rolls_total")
            .inc();
        Ok(())
    }
}

/// Best-effort directory fsync (makes creates/renames durable on
/// filesystems that need it; ignored where unsupported).
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}
