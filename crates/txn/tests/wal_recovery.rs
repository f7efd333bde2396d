//! Torn-tail regression (always-on): a log whose last frame was cut
//! short by a crash must open cleanly — the tail is truncated away with
//! a warning, never surfaced as an open error — and the repaired
//! segment must not regrow the damage on the next append.

use std::path::{Path, PathBuf};

use hana_txn::{LogRecord, Wal, WalConfig};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hana-walrec-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Segments small enough that every transaction rolls to a new one.
fn small_segments() -> WalConfig {
    WalConfig {
        segment_bytes: 64,
        ..WalConfig::default()
    }
}

fn open_small(dir: &Path) -> Wal {
    Wal::open_dir_with(dir, small_segments()).unwrap()
}

fn write_three_txns(dir: &Path) -> u64 {
    let wal = open_small(dir);
    for tid in 1..=3 {
        wal.append(LogRecord::Begin { tid }).unwrap();
        wal.append(LogRecord::Data {
            tid,
            engine: "hana".into(),
            payload: format!("INSERT INTO t VALUES ({tid})"),
        })
        .unwrap();
        wal.append_durable(LogRecord::Commit { tid, cid: tid })
            .unwrap();
    }
    *wal.record_end_offsets().last().unwrap()
}

#[test]
fn hand_truncated_last_segment_opens_with_a_repaired_tail() {
    let dir = scratch("torn");
    let full = write_three_txns(&dir);

    // Tear the last segment mid-frame: 5 bytes into the last commit
    // record.
    let segments = open_small(&dir).segment_paths();
    assert!(segments.len() > 1, "the log should have rolled");
    let sizes: u64 = segments
        .iter()
        .map(|p| std::fs::metadata(p).unwrap().len())
        .sum();
    assert_eq!(sizes, full);
    let path = segments.last().unwrap();
    let mut data = std::fs::read(path).unwrap();
    let torn_at = data.len() - 5;
    data.truncate(torn_at);
    std::fs::write(path, &data).unwrap();

    // Opening must succeed, report the torn bytes, and recover the two
    // fully-framed transactions plus the now-uncommitted third.
    let wal = open_small(&dir);
    assert!(wal.truncated_bytes() > 0, "torn tail went unnoticed");
    let report = wal.recover().unwrap();
    assert_eq!(report.committed, vec![(1, 1), (2, 2)]);
    drop(wal);

    // The repair physically removed the tail: appending now must not
    // interleave new frames with stale half-written bytes.
    let wal = open_small(&dir);
    assert_eq!(wal.truncated_bytes(), 0, "repair did not persist");
    wal.append(LogRecord::Begin { tid: 9 }).unwrap();
    wal.append_durable(LogRecord::Commit { tid: 9, cid: 3 })
        .unwrap();
    drop(wal);

    let report = open_small(&dir).recover().unwrap();
    assert_eq!(report.committed, vec![(1, 1), (2, 2), (9, 3)]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corruption_in_a_sealed_segment_is_still_an_error() {
    let dir = scratch("midflip");
    let config = WalConfig {
        segment_bytes: 128, // force several sealed segments
        ..WalConfig::default()
    };
    {
        let wal = Wal::open_dir_with(&dir, config.clone()).unwrap();
        for tid in 1..=10 {
            wal.append(LogRecord::Begin { tid }).unwrap();
            wal.append_durable(LogRecord::Commit { tid, cid: tid })
                .unwrap();
        }
        assert!(wal.segment_paths().len() > 1);
    }
    // A crash can only tear the *active* segment's tail. A bit flip in a
    // sealed segment is silent data damage — opening must refuse rather
    // than quietly drop history.
    let first = Wal::open_dir_with(&dir, config.clone())
        .unwrap()
        .segment_paths()
        .remove(0);
    let mut data = std::fs::read(&first).unwrap();
    let mid = data.len() / 2;
    data[mid] ^= 0x40;
    std::fs::write(&first, &data).unwrap();

    assert!(Wal::open_dir_with(&dir, config).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

/// Bytes a record occupies in the log: an 8-byte frame header and its
/// text.
fn frame_bytes(rec: &LogRecord) -> u64 {
    8 + rec.to_string().len() as u64
}

/// Append three transactions per round, half their commits awaited
/// and half left as unredeemed tickets; returns what was appended.
fn interleaved_appends(wal: &Wal, rounds: u64) -> Vec<LogRecord> {
    let mut appended = Vec::new();
    for tid in 1..=rounds {
        let recs = [
            LogRecord::Begin { tid },
            LogRecord::Data {
                tid,
                engine: "hana".into(),
                payload: format!("INSERT INTO t VALUES ({tid})"),
            },
        ];
        for rec in recs {
            wal.append(rec.clone()).unwrap();
            appended.push(rec);
        }
        let commit = LogRecord::Commit { tid, cid: tid };
        let ticket = wal.submit_durable(commit.clone());
        if tid % 2 == 0 {
            ticket.wait().unwrap();
        }
        appended.push(commit);
    }
    appended
}

/// A live log reads back what a reopen reads, and its offsets count
/// every byte appended since open, pruned segments included.
#[test]
fn live_read_back_equals_reopen() {
    let dir = scratch("readback");
    let wal = open_small(&dir);
    let mut appended = interleaved_appends(&wal, 12);
    let records = wal.records().unwrap();
    let offsets = wal.record_end_offsets();
    assert_eq!(records, appended, "live records");
    drop(wal);
    let wal = open_small(&dir);
    assert_eq!(wal.records().unwrap(), records, "reopened records");
    assert_eq!(wal.record_end_offsets(), offsets, "reopened offsets");
    drop(wal);

    // On a fresh log, a pruning checkpoint leaves the last offset at
    // the bytes appended since open.
    let _ = std::fs::remove_dir_all(&dir);
    let wal = open_small(&dir);
    appended = interleaved_appends(&wal, 6);
    wal.checkpoint(6, 6, b"snapshot", Some(wal.active_segment()))
        .unwrap();
    appended.push(LogRecord::Checkpoint { cid: 6 });
    let since_open: u64 = appended.iter().map(frame_bytes).sum();
    assert_eq!(
        wal.record_end_offsets().last(),
        Some(&since_open),
        "offsets after a pruning checkpoint"
    );
    let live = wal.records().unwrap();
    assert!(appended.ends_with(&live), "survivors are a suffix");
    assert!(live.len() < appended.len(), "sealed segments were pruned");
    drop(wal);
    assert_eq!(
        open_small(&dir).records().unwrap(),
        live,
        "reopened survivors"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Reads of a log that four threads append to and commit on see a
/// prefix of the final log each time, and never a torn frame.
#[test]
fn concurrent_read_back_sees_prefixes() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    let dir = scratch("concurrent");
    let config = WalConfig {
        segment_bytes: 256,
        ..WalConfig::default()
    };
    let wal = Wal::open_dir_with(&dir, config.clone()).unwrap();
    let done = AtomicBool::new(false);
    // Writer 0 stops halfway until the reader has read once, so at
    // least one read lands mid-workload; the rest race the writers.
    let (halfway, resume) = (Barrier::new(2), Barrier::new(2));
    let reads = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            halfway.wait();
            let mut reads = vec![wal.records().unwrap()];
            resume.wait();
            while !done.load(Ordering::SeqCst) {
                reads.push(wal.records().unwrap());
            }
            reads
        });
        let writers: Vec<_> = (0..4u64)
            .map(|w| {
                let (wal, halfway, resume) = (&wal, &halfway, &resume);
                s.spawn(move || {
                    for i in 0..50 {
                        if w == 0 && i == 25 {
                            halfway.wait();
                            resume.wait();
                        }
                        let tid = w * 1000 + i + 1;
                        wal.append(LogRecord::Begin { tid }).unwrap();
                        wal.append(LogRecord::Data {
                            tid,
                            engine: "hana".into(),
                            payload: format!("INSERT INTO t VALUES ({tid})"),
                        })
                        .unwrap();
                        wal.append_durable(LogRecord::Commit { tid, cid: tid })
                            .unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        done.store(true, Ordering::SeqCst);
        reader.join().unwrap()
    });
    let last = wal.records().unwrap();
    assert_eq!(last.len(), 4 * 50 * 3);
    let mid = &reads[0];
    assert!(
        mid.len() >= 25 * 3 && mid.len() < last.len(),
        "{}",
        mid.len()
    );
    for read in &reads {
        assert!(last.starts_with(read), "a read is not a prefix of the log");
    }
    drop(wal);
    let reopened = Wal::open_dir_with(&dir, config).unwrap();
    assert_eq!(reopened.truncated_bytes(), 0);
    assert_eq!(reopened.records().unwrap(), last);
    let torn = hana_obs::registry()
        .snapshot()
        .warnings
        .into_iter()
        .filter(|w| w.contains("WAL torn tail") && w.contains(&*dir.to_string_lossy()))
        .count();
    assert_eq!(torn, 0, "a live read warned of a torn tail");
    std::fs::remove_dir_all(&dir).ok();
}
