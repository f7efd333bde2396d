//! Torn-tail regression (always-on): a log whose last frame was cut
//! short by a crash must open cleanly — the tail is truncated away with
//! a warning, never surfaced as an open error — and the repaired file
//! must not regrow the damage on the next append.

use std::path::PathBuf;

use hana_txn::{LogRecord, Wal};

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

fn write_three_txns(path: &std::path::Path) -> u64 {
    let wal = Wal::with_file(path).unwrap();
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
fn hand_truncated_single_file_log_opens_with_a_repaired_tail() {
    let dir = scratch("torn");
    let path = dir.join("wal.log");
    let full = write_three_txns(&path);

    // Tear the file mid-frame: 5 bytes into the last commit record.
    let mut data = std::fs::read(&path).unwrap();
    assert_eq!(data.len() as u64, full);
    let torn_at = data.len() - 5;
    data.truncate(torn_at);
    std::fs::write(&path, &data).unwrap();

    // Opening must succeed, report the torn bytes, and recover the two
    // fully-framed transactions plus the now-uncommitted third.
    let wal = Wal::with_file(&path).unwrap();
    assert!(wal.truncated_bytes() > 0, "torn tail went unnoticed");
    let report = wal.recover();
    assert_eq!(report.committed, vec![(1, 1), (2, 2)]);
    drop(wal);

    // The repair physically removed the tail: appending now must not
    // interleave new frames with stale half-written bytes.
    let wal = Wal::with_file(&path).unwrap();
    assert_eq!(wal.truncated_bytes(), 0, "repair did not persist");
    wal.append(LogRecord::Begin { tid: 9 }).unwrap();
    wal.append_durable(LogRecord::Commit { tid: 9, cid: 3 })
        .unwrap();
    drop(wal);

    let report = Wal::with_file(&path).unwrap().recover();
    assert_eq!(report.committed, vec![(1, 1), (2, 2), (9, 3)]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corruption_in_a_sealed_segment_is_still_an_error() {
    use hana_txn::WalConfig;

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
