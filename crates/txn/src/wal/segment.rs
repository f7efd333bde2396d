//! Segmented log storage: `wal-NNNNNN.seg` files in a directory, a
//! torn-tail-tolerant loader and the append/fsync writer a flush leader
//! drives.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use hana_obs::{Counter, Histogram};
use hana_types::{HanaError, Result};

use super::frame::{decode_frame, FrameOutcome};

/// Default size at which the active segment rolls over.
pub(crate) const DEFAULT_SEGMENT_BYTES: u64 = 4 << 20;

/// File name of segment `seq`.
pub(crate) fn segment_name(seq: u64) -> String {
    format!("wal-{seq:06}.seg")
}

/// The segment files of `dir` in replay order, with their sequence
/// numbers. The first segment of a log is 1, so a first sequence above
/// 1 means a checkpoint pruned the segments before it.
pub(crate) fn segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
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
    Ok(seqs
        .into_iter()
        .map(|s| (s, dir.join(segment_name(s))))
        .collect())
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

/// Load all segments, tolerating a torn tail on the *last* one. With
/// `repair` (at open) the damaged suffix is truncated away (crash
/// mid-append) and reported via `obs::warn`; without it (a read of a
/// live log) the read just stops there, touching and reporting nothing.
/// Damage anywhere else is real corruption and errors.
pub(crate) fn load(dir: &Path, repair: bool) -> Result<LoadedLog> {
    let segments = segments(dir)?;
    let mut payloads = Vec::new();
    let mut truncated = 0u64;
    let mut base = 0u64;
    let last = segments.len().saturating_sub(1);
    for (i, (_, path)) in segments.iter().enumerate() {
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
                    if repair {
                        let lost = (bytes.len() - off) as u64;
                        truncated += lost;
                        hana_obs::warn(format!(
                            "WAL torn tail: truncating {lost} trailing byte(s) of {} \
                             (crash mid-append); committed prefix is intact",
                            path.display()
                        ));
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
    let last_seq = segments.last().map_or(0, |&(seq, _)| seq);
    Ok(LoadedLog {
        payloads,
        truncated_bytes: truncated,
        last_seq,
    })
}

/// The append side: owns the active segment file, rolls it at the size
/// threshold, fsyncs on demand, prunes sealed segments and hosts the
/// injected fsync-failure point the crash harness drives.
pub(crate) struct LogWriter {
    dir: PathBuf,
    active: File,
    active_seq: u64,
    active_len: u64,
    segment_bytes: u64,
    /// Bytes of the segments pruned since open: a frame's end offset
    /// since open is this plus its offset in the surviving segments.
    pruned_bytes: u64,
    /// Injected failure: after this many successful syncs, every write
    /// and sync fails (the batch is dropped, modelling a lost fsync).
    fsyncs_until_fail: Option<u64>,
    /// `hana_wal_fsyncs_total` and `hana_wal_fsync_ns`.
    fsyncs: Arc<Counter>,
    fsync_ns: Arc<Histogram>,
}

impl LogWriter {
    /// Open (append mode) the active segment of `dir`, creating the
    /// first one if the log is empty.
    pub(crate) fn open(
        dir: PathBuf,
        last_seq: u64,
        segment_bytes: u64,
        fsyncs_until_fail: Option<u64>,
    ) -> Result<LogWriter> {
        fs::create_dir_all(&dir)?;
        let active_seq = last_seq.max(1);
        let path = dir.join(segment_name(active_seq));
        let mut active = OpenOptions::new().create(true).append(true).open(&path)?;
        let active_len = active.seek(SeekFrom::End(0))?;
        let obs = hana_obs::registry();
        Ok(LogWriter {
            dir,
            active,
            active_seq,
            active_len,
            segment_bytes,
            pruned_bytes: 0,
            fsyncs_until_fail,
            fsyncs: obs.counter("hana_wal_fsyncs_total"),
            fsync_ns: obs.histogram("hana_wal_fsync_ns"),
        })
    }

    /// Sequence number of the segment appends go to.
    pub(crate) fn active_seq(&self) -> u64 {
        self.active_seq
    }

    /// Bytes of the segments pruned since open.
    pub(crate) fn pruned_bytes(&self) -> u64 {
        self.pruned_bytes
    }

    /// Delete every segment below `below` (never the active one) and
    /// add their bytes to [`pruned_bytes`](Self::pruned_bytes).
    pub(crate) fn prune_below(&mut self, below: u64) -> Result<()> {
        let mut pruned = 0u64;
        for (seq, path) in segments(&self.dir)? {
            if seq >= below.min(self.active_seq) {
                continue;
            }
            let len = fs::metadata(&path)?.len();
            fs::remove_file(&path)?;
            self.pruned_bytes += len;
            pruned += 1;
        }
        if pruned > 0 {
            sync_dir(&self.dir);
            hana_obs::registry()
                .counter("hana_wal_segments_pruned_total")
                .add(pruned);
        }
        Ok(())
    }

    /// Append one batch of already-framed bytes. Rolls to a fresh
    /// segment first when the active one is full (a batch never splits
    /// across segments, so frames never do either).
    pub(crate) fn write_batch(&mut self, bytes: &[u8]) -> Result<()> {
        if self.failed() {
            return Err(HanaError::Io("WAL writer failed (injected)".into()));
        }
        if self.active_len >= self.segment_bytes {
            self.roll()?;
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
        self.fsyncs.inc();
        self.fsync_ns.record(start.elapsed().as_nanos() as u64);
        Ok(())
    }

    fn failed(&self) -> bool {
        self.fsyncs_until_fail == Some(0)
    }

    fn roll(&mut self) -> Result<()> {
        // Seal the full segment before switching so no acknowledged
        // bytes live only in its OS cache.
        self.active.sync_data()?;
        self.active_seq += 1;
        let path = self.dir.join(segment_name(self.active_seq));
        self.active = OpenOptions::new().create(true).append(true).open(&path)?;
        self.active_len = 0;
        sync_dir(&self.dir);
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
