//! Checkpoint sidecar files: `checkpoint-NNNNNN.ckpt` next to the log
//! segments. A checkpoint captures an opaque engine snapshot (the
//! platform serializes row-store + column-store state) at a commit ID,
//! so recovery restores the snapshot and replays only the log suffix.
//!
//! Write protocol: serialize into a temp file, fsync it, rename into
//! place, fsync the directory — a crash leaves either the old set of
//! checkpoints or the old set plus one complete new file, never a
//! half-written one that validates. The content is one CRC-framed blob,
//! so a damaged file is detected and skipped at load time.
//!
//! A checkpoint that prunes the log keeps only its own sidecar: an
//! older one would be a fallback whose log suffix is gone, and a
//! recovery from it would silently lose the commits in between. A
//! checkpoint that deletes no segment keeps the older sidecars, which
//! the log still covers.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use hana_types::Result;

use super::frame::{decode_frame, encode_frame, FrameOutcome};
use super::segment::sync_dir;

/// One loaded checkpoint.
pub(crate) struct CheckpointData {
    /// Commit ID the snapshot was taken at: every commit `<= cid` is in
    /// the snapshot; recovery replays only commits past it.
    pub cid: u64,
    /// Highest transaction ID allocated when the snapshot was taken
    /// (lets TID allocation resume without rescanning a pruned prefix).
    pub max_tid: u64,
    /// Opaque engine snapshot.
    pub payload: Vec<u8>,
}

fn checkpoint_name(seq: u64) -> String {
    format!("checkpoint-{seq:06}.ckpt")
}

/// List checkpoint files, newest sequence first.
pub(crate) fn list(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut found = Vec::new();
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(seq) = name
                .strip_prefix("checkpoint-")
                .and_then(|s| s.strip_suffix(".ckpt"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                found.push((seq, entry.path()));
            }
        }
    }
    found.sort_unstable_by_key(|&(seq, _)| std::cmp::Reverse(seq));
    found
}

/// Durably write checkpoint `seq`.
pub(crate) fn write(dir: &Path, seq: u64, cid: u64, max_tid: u64, payload: &[u8]) -> Result<()> {
    fs::create_dir_all(dir)?;
    let mut body = Vec::with_capacity(payload.len() + 16);
    body.extend_from_slice(&cid.to_le_bytes());
    body.extend_from_slice(&max_tid.to_le_bytes());
    body.extend_from_slice(payload);
    let mut framed = Vec::with_capacity(body.len() + 8);
    encode_frame(&body, &mut framed);
    let tmp = dir.join(format!(".checkpoint-{seq:06}.tmp"));
    {
        let mut f = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(&framed)?;
        f.sync_data()?;
    }
    fs::rename(&tmp, dir.join(checkpoint_name(seq)))?;
    sync_dir(dir);
    hana_obs::registry()
        .counter("hana_wal_checkpoints_total")
        .inc();
    Ok(())
}

/// Load the newest valid checkpoint whose `cid` is at most `cid_limit`.
///
/// The limit makes recovery robust against a sidecar that is *ahead* of
/// the surviving log (possible when a crash or a torture-test
/// truncation removes the log tail after the sidecar was written): a
/// checkpoint is only trusted once the log itself proves commits up to
/// its `cid` were durable. Damaged sidecars are skipped with a warning.
pub(crate) fn load_latest(dir: &Path, cid_limit: u64) -> Option<CheckpointData> {
    for (_seq, path) in list(dir) {
        let mut bytes = Vec::new();
        let Ok(mut f) = File::open(&path) else {
            continue;
        };
        if f.read_to_end(&mut bytes).is_err() {
            continue;
        }
        let FrameOutcome::Complete { payload, .. } = decode_frame(&bytes) else {
            hana_obs::warn(format!(
                "ignoring damaged checkpoint sidecar {}",
                path.display()
            ));
            continue;
        };
        if payload.len() < 16 {
            hana_obs::warn(format!(
                "ignoring short checkpoint sidecar {}",
                path.display()
            ));
            continue;
        }
        let cid = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
        let max_tid = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
        if cid > cid_limit {
            continue;
        }
        return Some(CheckpointData {
            cid,
            max_tid,
            payload: payload[16..].to_vec(),
        });
    }
    None
}

/// Delete every checkpoint older than `seq`: a pruning checkpoint calls
/// this before it deletes a segment, because an older snapshot is a
/// valid fallback only while the log still holds what follows it.
pub(crate) fn remove_older(dir: &Path, seq: u64) -> Result<()> {
    for (_, path) in list(dir).into_iter().filter(|&(s, _)| s < seq) {
        fs::remove_file(path)?;
    }
    sync_dir(dir);
    Ok(())
}

/// Highest checkpoint sequence on disk (0 when none).
pub(crate) fn max_seq(dir: &Path) -> u64 {
    list(dir).first().map(|&(s, _)| s).unwrap_or(0)
}
