//! Crash-point torture matrix for the WAL (feature `crash-torture`).
//!
//! The harness never kills a process: a "crash at byte `k`" is a copy of
//! the log directory truncated to its first `k` bytes — exactly the
//! state a power loss leaves on disk when the tail of the last write
//! never made it. Recovery over every such prefix must satisfy, for the
//! committed set `R(k)`:
//!
//! 1. **committed prefix** — `R(k)` is a contiguous CID prefix of the
//!    full history (`cid = 1, 2, …, |R(k)|`),
//! 2. **monotonicity** — `R(k) ⊆ R(k+1)`,
//! 3. **completeness** — `R(total)` is the full committed set, and
//!    every durably-acknowledged commit is in `R(k)` for every `k`
//!    past its frame,
//! 4. **idempotence** — recovering a recovered log changes nothing.
//!
//! The random-workload tests derive their stream from
//! `CRASH_TORTURE_SEED` (printed below so a CI failure is replayable).

#![cfg(feature = "crash-torture")]

use std::path::{Path, PathBuf};
use std::sync::Arc;

use hana_txn::{LogRecord, RecoveryReport, Wal, WalConfig};
use proptest::test_runner::TestRng;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hana-crash-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The torture seed: `CRASH_TORTURE_SEED` if set, else a fixed default.
/// Printed so the CI job log pins the exact run.
fn torture_rng(test: &str) -> TestRng {
    let seed = std::env::var("CRASH_TORTURE_SEED").unwrap_or_else(|_| "20260808".into());
    eprintln!("CRASH_TORTURE_SEED={seed} (test {test})");
    TestRng::deterministic(&format!("{test}-{seed}"))
}

/// Copy the log at `src` truncated to its first `bytes` bytes (counting
/// across segments in replay order). Segments past the cut simply do
/// not exist in the copy — a crash mid-segment means later segments
/// were never created.
fn truncated_copy(src: &[PathBuf], dst: &Path, mut bytes: u64) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for path in src {
        if bytes == 0 {
            break;
        }
        let data = std::fs::read(path).unwrap();
        let take = (data.len() as u64).min(bytes);
        bytes -= take;
        std::fs::write(dst.join(path.file_name().unwrap()), &data[..take as usize]).unwrap();
    }
}

fn total_bytes(paths: &[PathBuf]) -> u64 {
    paths
        .iter()
        .map(|p| std::fs::metadata(p).unwrap().len())
        .sum()
}

/// Assert the committed-prefix invariant: CIDs are exactly `1..=n`.
fn assert_contiguous_prefix(report: &RecoveryReport, at: u64) {
    let mut cids: Vec<u64> = report.committed.iter().map(|&(_, cid)| cid).collect();
    cids.sort_unstable();
    let expect: Vec<u64> = (1..=cids.len() as u64).collect();
    assert_eq!(
        cids, expect,
        "truncation at byte {at}: committed CIDs are not a contiguous prefix"
    );
}

/// Write `txns` single-record transactions, each durably committed, and
/// return the log's segment paths in replay order.
fn committed_workload(dir: &Path, config: WalConfig, txns: u64) -> Vec<PathBuf> {
    let wal = Wal::open_dir_with(dir, config).unwrap();
    for tid in 1..=txns {
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
    wal.segment_paths()
}

#[test]
fn every_byte_truncation_recovers_a_committed_prefix() {
    let dir = scratch("matrix");
    let paths = committed_workload(&dir, WalConfig::default(), 40);
    let total = total_bytes(&paths);
    let copy = scratch("matrix-copy");

    let mut prev: Vec<(u64, u64)> = Vec::new();
    for k in 0..=total {
        truncated_copy(&paths, &copy, k);
        let wal = Wal::open_dir_with(&copy, WalConfig::default()).unwrap();
        let report = wal.recover().unwrap();
        assert!(report.in_doubt.is_empty());
        assert_contiguous_prefix(&report, k);
        // Monotone: everything recovered at k-1 is still there at k.
        assert!(
            prev.iter().all(|c| report.committed.contains(c)),
            "truncation at byte {k} lost a previously recovered commit"
        );
        prev = report.committed;
    }
    // The untruncated log recovers everything.
    assert_eq!(prev.len(), 40);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&copy).ok();
}

#[test]
fn recovery_is_idempotent_at_every_truncation_point() {
    let dir = scratch("idem");
    let paths = committed_workload(&dir, WalConfig::default(), 12);
    let total = total_bytes(&paths);
    let copy = scratch("idem-copy");

    for k in 0..=total {
        truncated_copy(&paths, &copy, k);
        let first = Wal::open_dir_with(&copy, WalConfig::default())
            .unwrap()
            .recover()
            .unwrap();
        // Reopen the *repaired* copy: the torn tail was truncated away,
        // so the second recovery must see the same history, cleanly.
        let wal = Wal::open_dir_with(&copy, WalConfig::default()).unwrap();
        assert_eq!(
            wal.truncated_bytes(),
            0,
            "byte {k}: repair left a torn tail behind"
        );
        assert_eq!(
            wal.recover().unwrap().committed,
            first.committed,
            "byte {k}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&copy).ok();
}

#[test]
fn truncation_matrix_holds_across_segment_rolls() {
    let dir = scratch("segroll");
    let config = WalConfig {
        segment_bytes: 256, // force frequent rolls
        ..WalConfig::default()
    };
    let paths = committed_workload(&dir, config.clone(), 30);
    assert!(paths.len() > 1, "workload must span several segments");
    let total = total_bytes(&paths);
    let copy = scratch("segroll-copy");

    for k in 0..=total {
        truncated_copy(&paths, &copy, k);
        let wal = Wal::open_dir_with(&copy, config.clone()).unwrap();
        let report = wal.recover().unwrap();
        assert_contiguous_prefix(&report, k);
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&copy).ok();
}

#[test]
fn seeded_random_workloads_survive_random_crashes() {
    let mut rng = torture_rng("seeded_random_workloads");
    for case in 0..8 {
        let dir = scratch(&format!("rand-{case}"));
        let config = WalConfig {
            segment_bytes: 128 + rng.below(4096),
            ..WalConfig::default()
        };
        // Random mix: committed, aborted, and dangling transactions with
        // random payload sizes.
        let mut committed = Vec::new();
        {
            let wal = Wal::open_dir_with(&dir, config.clone()).unwrap();
            let mut cid = 0;
            for tid in 1..=(5 + rng.below(25)) {
                wal.append(LogRecord::Begin { tid }).unwrap();
                wal.append(LogRecord::Data {
                    tid,
                    engine: "hana".into(),
                    payload: "x".repeat(1 + rng.below(200) as usize),
                })
                .unwrap();
                match rng.below(10) {
                    0..=6 => {
                        cid += 1;
                        wal.append_durable(LogRecord::Commit { tid, cid }).unwrap();
                        committed.push((tid, cid));
                    }
                    7..=8 => wal.append(LogRecord::Abort { tid }).unwrap(),
                    _ => {} // crashed mid-flight: neither committed nor aborted
                }
            }
            wal.sync().unwrap();
        }
        let paths = Wal::open_dir_with(&dir, config.clone())
            .unwrap()
            .segment_paths();
        let total = total_bytes(&paths);
        let copy = scratch(&format!("rand-copy-{case}"));
        for _ in 0..40 {
            let k = rng.below(total + 1);
            truncated_copy(&paths, &copy, k);
            let report = Wal::open_dir_with(&copy, config.clone())
                .unwrap()
                .recover()
                .unwrap();
            assert_contiguous_prefix(&report, k);
            // Everything recovered must be a real commit from the run.
            for c in &report.committed {
                assert!(committed.contains(c), "byte {k}: phantom commit {c:?}");
            }
        }
        // The full log recovers every committed transaction.
        let full = Wal::open_dir_with(&dir, config).unwrap().recover().unwrap();
        assert_eq!(full.committed, committed);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&copy).ok();
    }
}

#[test]
fn fsync_failures_poison_but_never_lose_acked_commits() {
    let mut rng = torture_rng("fsync_failures");
    for case in 0..6 {
        let dir = scratch(&format!("fsync-{case}"));
        let config = WalConfig {
            fsyncs_until_fail: Some(rng.below(12)),
            ..WalConfig::default()
        };
        let mut acked = Vec::new();
        {
            let wal = Wal::open_dir_with(&dir, config).unwrap();
            for tid in 1..=20u64 {
                if wal.append(LogRecord::Begin { tid }).is_err() {
                    break;
                }
                let commit = LogRecord::Commit { tid, cid: tid };
                match wal.append_durable(commit) {
                    Ok(()) => acked.push((tid, tid)),
                    Err(_) => {
                        // Poisoned: every later durable append must also
                        // fail — no record may slip past a lost prefix.
                        assert!(wal.poisoned().is_some());
                        assert!(wal
                            .append_durable(LogRecord::Commit { tid: 99, cid: 99 })
                            .is_err());
                        break;
                    }
                }
            }
        }
        // Reopen without failpoints: every acknowledged commit is there.
        let report = Wal::open_dir(&dir).unwrap().recover().unwrap();
        for c in &acked {
            assert!(
                report.committed.contains(c),
                "case {case}: acked commit {c:?} lost after fsync failure"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn group_commit_batches_crash_to_a_committed_prefix() {
    let dir = scratch("group");
    let config = WalConfig::default();
    {
        let wal = Arc::new(Wal::open_dir_with(&dir, config.clone()).unwrap());
        // 8 threads × 25 txns race to lead and share flushes; every
        // ticket is awaited, so all 200 commits are durably acked.
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    for i in 0..25u64 {
                        let tid = t * 25 + i + 1;
                        wal.append(LogRecord::Begin { tid }).unwrap();
                        let ticket = wal.submit_durable(LogRecord::Commit { tid, cid: tid });
                        ticket.wait().unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
    let paths = Wal::open_dir_with(&dir, config.clone())
        .unwrap()
        .segment_paths();
    let total = total_bytes(&paths);
    assert_eq!(
        Wal::open_dir_with(&dir, config.clone())
            .unwrap()
            .recover()
            .unwrap()
            .committed
            .len(),
        200
    );
    // Crash anywhere: recovered commits are always a subset of the
    // acked 200, recovery never errors, and re-recovery is stable.
    let mut rng = torture_rng("group_commit_batches");
    let copy = scratch("group-copy");
    for _ in 0..60 {
        let k = rng.below(total + 1);
        truncated_copy(&paths, &copy, k);
        let report = Wal::open_dir_with(&copy, config.clone())
            .unwrap()
            .recover()
            .unwrap();
        for &(tid, cid) in &report.committed {
            assert_eq!(tid, cid);
            assert!(tid >= 1 && tid <= 200);
        }
        let again = Wal::open_dir_with(&copy, config.clone())
            .unwrap()
            .recover()
            .unwrap();
        assert_eq!(again.committed, report.committed);
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&copy).ok();
}
