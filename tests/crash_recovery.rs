//! E15 — crash-torture recovery at the platform level: a durable
//! platform killed at an arbitrary byte of its log must reopen to a
//! transactionally consistent committed prefix, for single-node and
//! 4-partition distributed workloads alike.
//!
//! A "crash at byte `k`" is a copy of the WAL directory with the
//! coordinator segments truncated to their first `k` bytes (checkpoint
//! sidecars and partition logs copied intact — they are written
//! atomically / synced before the coordinator's commit record). The
//! sampled matrices run everywhere; the exhaustive every-byte matrix is
//! `#[ignore]`d for the dedicated CI lane.

use std::path::{Path, PathBuf};
use std::time::Duration;

use hana_data_platform::platform::{HanaPlatform, Session};
use hana_data_platform::txn::{LogRecord, Wal, WalConfig};
use hana_data_platform::{Row, Value};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hana-e15-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Per-commit fsync keeps the on-disk layout deterministic and skips
/// the committer thread on the many reopens the matrix does.
fn direct() -> WalConfig {
    WalConfig {
        group_commit_window: Duration::ZERO,
        ..WalConfig::default()
    }
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}

/// Coordinator segment files (replay order) and their total size.
fn coordinator_segments(dir: &Path) -> (Vec<PathBuf>, u64) {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".seg"))
        })
        .collect();
    paths.sort();
    let total = paths
        .iter()
        .map(|p| std::fs::metadata(p).unwrap().len())
        .sum();
    (paths, total)
}

/// Copy the whole WAL directory, then truncate the coordinator segments
/// to their first `k` bytes.
fn crashed_copy(src: &Path, dst: &Path, mut k: u64) {
    let _ = std::fs::remove_dir_all(dst);
    copy_dir(src, dst);
    let (paths, _) = coordinator_segments(dst);
    for p in paths {
        let len = std::fs::metadata(&p).unwrap().len();
        let keep = len.min(k);
        k -= keep;
        if keep == len {
            continue;
        }
        if keep == 0 {
            std::fs::remove_file(&p).unwrap();
        } else {
            std::fs::OpenOptions::new()
                .write(true)
                .open(&p)
                .unwrap()
                .set_len(keep)
                .unwrap();
        }
    }
}

fn ints(hana: &HanaPlatform, s: &Session, sql: &str) -> Vec<i64> {
    hana.execute_sql(s, sql)
        .unwrap()
        .rows
        .iter()
        .map(|r| r.values()[0].as_i64().unwrap())
        .collect()
}

/// Single-node workload: DDL, per-statement inserts, a bulk load and a
/// merge (both checkpoint barriers), then a post-checkpoint suffix.
fn run_single_node_workload(dir: &Path) {
    let (hana, _) = HanaPlatform::open_durable_with(dir, direct()).unwrap();
    let s = hana.connect("SYSTEM", "manager").unwrap();
    hana.execute_sql(&s, "CREATE COLUMN TABLE t (v INTEGER)")
        .unwrap();
    hana.execute_sql(&s, "CREATE ROW TABLE r (k INTEGER, s VARCHAR(20))")
        .unwrap();
    for i in 1..=6 {
        hana.execute_sql(&s, &format!("INSERT INTO t VALUES ({i})"))
            .unwrap();
    }
    hana.execute_sql(&s, "INSERT INTO r VALUES (1, 'one')")
        .unwrap();
    let bulk: Vec<Row> = (7..=12)
        .map(|i| Row::from_values([Value::Int(i)]))
        .collect();
    hana.load_rows(&s, "t", &bulk).unwrap(); // checkpoint barrier
    hana.execute_sql(&s, "MERGE DELTA OF t").unwrap(); // checkpoint barrier
    for i in 13..=18 {
        hana.execute_sql(&s, &format!("INSERT INTO t VALUES ({i})"))
            .unwrap();
    }
    hana.execute_sql(&s, "UPDATE r SET s = 'uno' WHERE k = 1")
        .unwrap();
}

/// The committed-prefix invariant for the single-node workload: `t`
/// holds exactly `1..=m` for some `m`, monotone in the crash point.
fn check_single_node_matrix(src: &Path, points: impl Iterator<Item = u64>) {
    let copy = scratch("sn-copy");
    let mut prev_m = 0usize;
    let mut prev_k = 0u64;
    for k in points {
        crashed_copy(src, &copy, k);
        let (hana, _) = HanaPlatform::open_durable_with(&copy, direct()).unwrap();
        let s = hana.connect("SYSTEM", "manager").unwrap();
        let m = if hana.catalog().has_table("t") {
            let got = ints(&hana, &s, "SELECT v FROM t ORDER BY v");
            let expect: Vec<i64> = (1..=got.len() as i64).collect();
            assert_eq!(got, expect, "crash at byte {k}: not a committed prefix");
            got.len()
        } else {
            0
        };
        assert!(
            m >= prev_m,
            "crash at byte {k} recovered fewer rows ({m}) than byte {prev_k} ({prev_m})"
        );
        // Idempotence: recovering the recovered directory is a no-op.
        drop(hana);
        let (again, _) = HanaPlatform::open_durable_with(&copy, direct()).unwrap();
        let s2 = again.connect("SYSTEM", "manager").unwrap();
        if m > 0 {
            assert_eq!(
                ints(&again, &s2, "SELECT v FROM t ORDER BY v").len(),
                m,
                "crash at byte {k}: second recovery changed the state"
            );
        }
        prev_m = m;
        prev_k = k;
    }
    std::fs::remove_dir_all(&copy).ok();
}

#[test]
fn single_node_crash_matrix_sampled() {
    let dir = scratch("sn");
    run_single_node_workload(&dir);
    let (_, total) = coordinator_segments(&dir);
    let step = (total / 48).max(1);
    let points = (0..=total).step_by(step as usize).chain([total]);
    check_single_node_matrix(&dir, points);

    // The full log recovers the full state, row table included.
    let (hana, _) = HanaPlatform::open_durable_with(&dir, direct()).unwrap();
    let s = hana.connect("SYSTEM", "manager").unwrap();
    assert_eq!(ints(&hana, &s, "SELECT v FROM t ORDER BY v").len(), 18);
    let rs = hana.execute_sql(&s, "SELECT s FROM r WHERE k = 1").unwrap();
    assert_eq!(rs.scalar().unwrap(), &Value::Varchar("uno".into()));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
#[ignore = "exhaustive every-byte matrix; run via the crash-torture CI lane"]
fn single_node_crash_matrix_exhaustive() {
    let dir = scratch("sn-full");
    run_single_node_workload(&dir);
    let (_, total) = coordinator_segments(&dir);
    check_single_node_matrix(&dir, 0..=total);
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint racing in-flight commits must not record a commit ID
/// as covered before its rows have applied: recovery skips the log
/// records of covered commits, so such a cut drops an acknowledged
/// write. Committers run under group commit (every commit sits between
/// CID assignment and apply for at least the batching window) while a
/// checkpointer cuts snapshots back to back; every acknowledged insert
/// must be there after reopen.
#[test]
fn checkpoints_racing_commits_lose_no_acknowledged_write() {
    const WRITERS: i64 = 4;
    const PER_WRITER: i64 = 150;
    let dir = scratch("ckpt-race");
    {
        let (hana, _) = HanaPlatform::open_durable_with(&dir, WalConfig::default()).unwrap();
        let s = hana.connect("SYSTEM", "manager").unwrap();
        hana.execute_sql(&s, "CREATE COLUMN TABLE t (v INTEGER)")
            .unwrap();
        let writing = std::sync::atomic::AtomicI64::new(WRITERS);
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let (hana, writing) = (&hana, &writing);
                scope.spawn(move || {
                    let s = hana.connect("SYSTEM", "manager").unwrap();
                    for i in 0..PER_WRITER {
                        hana.execute_sql(&s, &format!("INSERT INTO t VALUES ({})", w * 1_000 + i))
                            .unwrap();
                    }
                    writing.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                });
            }
            scope.spawn(|| {
                while writing.load(std::sync::atomic::Ordering::SeqCst) > 0 {
                    hana.write_checkpoint().unwrap();
                }
            });
        });
    }
    let (hana, _) = HanaPlatform::open_durable_with(&dir, WalConfig::default()).unwrap();
    let s = hana.connect("SYSTEM", "manager").unwrap();
    let got = ints(&hana, &s, "SELECT v FROM t ORDER BY v");
    let lost: Vec<i64> = (0..WRITERS)
        .flat_map(|w| (0..PER_WRITER).map(move |i| w * 1_000 + i))
        .filter(|v| got.binary_search(v).is_err())
        .collect();
    assert!(
        lost.is_empty(),
        "recovery dropped acknowledged inserts {lost:?}"
    );
    assert_eq!(got.len() as i64, WRITERS * PER_WRITER, "duplicated inserts");
    std::fs::remove_dir_all(&dir).ok();
}

/// Distributed workload: a 4-partition table loaded in batches. Each
/// batch's rows go durably to the partition logs before the coordinator
/// commit; the coordinator log carries only markers.
fn run_dist_workload(dir: &Path) -> Vec<usize> {
    let (hana, _) = HanaPlatform::open_durable_with(dir, direct()).unwrap();
    let s = hana.connect("SYSTEM", "manager").unwrap();
    hana.execute_sql(
        &s,
        "CREATE COLUMN TABLE d (k INTEGER, v INTEGER) PARTITION BY HASH(k) PARTITIONS 4",
    )
    .unwrap();
    let mut counts = vec![0usize];
    let mut n = 0;
    for batch in 0..5 {
        let rows: Vec<Row> = (0..20)
            .map(|i| {
                let id = batch * 20 + i;
                Row::from_values([Value::Int(id % 13), Value::Int(id)])
            })
            .collect();
        hana.load_rows(&s, "d", &rows).unwrap();
        n += rows.len();
        counts.push(n);
    }
    counts
}

fn dist_count(copy: &Path) -> usize {
    let (hana, _) = HanaPlatform::open_durable_with(copy, direct()).unwrap();
    let s = hana.connect("SYSTEM", "manager").unwrap();
    if !hana.catalog().has_table("d") {
        return 0;
    }
    let rs = hana.execute_sql(&s, "SELECT COUNT(*) FROM d").unwrap();
    rs.scalar().unwrap().as_i64().unwrap() as usize
}

fn check_dist_matrix(src: &Path, valid_counts: &[usize], points: impl Iterator<Item = u64>) {
    let copy = scratch("dist-copy");
    let mut prev = 0usize;
    for k in points {
        crashed_copy(src, &copy, k);
        let count = dist_count(&copy);
        assert!(
            valid_counts.contains(&count),
            "crash at byte {k}: {count} rows is not a batch boundary {valid_counts:?}"
        );
        assert!(
            count >= prev,
            "crash at byte {k}: lost rows vs earlier crash point"
        );
        prev = count;
    }
    assert_eq!(prev, *valid_counts.last().unwrap());
    std::fs::remove_dir_all(&copy).ok();
}

#[test]
fn dist_crash_matrix_sampled() {
    let dir = scratch("dist");
    let counts = run_dist_workload(&dir);
    let (_, total) = coordinator_segments(&dir);
    let step = (total / 40).max(1);
    let points = (0..=total).step_by(step as usize).chain([total]);
    check_dist_matrix(&dir, &counts, points);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
#[ignore = "exhaustive every-byte matrix; run via the crash-torture CI lane"]
fn dist_crash_matrix_exhaustive() {
    let dir = scratch("dist-full");
    let counts = run_dist_workload(&dir);
    let (_, total) = coordinator_segments(&dir);
    check_dist_matrix(&dir, &counts, 0..=total);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dist_recovery_from_log_alone_redoes_partition_rows() {
    let dir = scratch("dist-nockpt");
    let counts = run_dist_workload(&dir);
    // Crash semantics allow losing the checkpoint sidecars (they are
    // only an optimization): with every sidecar gone, recovery must
    // rebuild the full state from the coordinator log's DISTLOAD
    // markers by redoing rows out of the partition logs.
    let copy = scratch("dist-nockpt-copy");
    copy_dir(&dir, &copy);
    for entry in std::fs::read_dir(&copy).unwrap() {
        let p = entry.unwrap().path();
        if p.extension().is_some_and(|e| e == "ckpt") {
            std::fs::remove_file(p).unwrap();
        }
    }
    let redo_before = hana_data_platform::obs::registry()
        .counter("hana_dist_partition_redo_rows_total")
        .get();
    assert_eq!(dist_count(&copy), *counts.last().unwrap());
    let redo_after = hana_data_platform::obs::registry()
        .counter("hana_dist_partition_redo_rows_total")
        .get();
    assert!(
        redo_after >= redo_before + *counts.last().unwrap() as u64,
        "recovery did not redo rows from the partition logs"
    );
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&copy).ok();
}

#[test]
fn torn_partition_log_tails_recover_to_the_previous_batch() {
    let dir = scratch("dist-torn");
    let counts = run_dist_workload(&dir);
    // Truncate the coordinator to just before the *last* load's commit
    // record. The sync-before-commit protocol means partition rows of
    // that load may or may not be on disk — tear their tails too.
    let copy = scratch("dist-torn-copy");
    copy_dir(&dir, &copy);
    let wal = Wal::open_dir_with(&copy, direct()).unwrap();
    let records = wal.records();
    let offsets = wal.record_end_offsets();
    drop(wal);
    let last_commit = records
        .iter()
        .rposition(|r| matches!(r, LogRecord::Commit { .. }))
        .expect("workload committed");
    let cut = offsets[last_commit - 1];
    drop(records);
    crashed_copy(&dir, &copy, cut);
    for part in 0..4 {
        let pdir = copy.join("dist").join("d").join(format!("part-{part:03}"));
        for entry in std::fs::read_dir(&pdir).unwrap() {
            let p = entry.unwrap().path();
            if p.extension().is_some_and(|e| e == "seg") {
                let len = std::fs::metadata(&p).unwrap().len();
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(&p)
                    .unwrap()
                    .set_len(len.saturating_sub(7 + part * 9))
                    .unwrap();
            }
        }
    }
    let recovered = dist_count(&copy);
    assert!(
        counts.contains(&recovered) && recovered < *counts.last().unwrap(),
        "expected a strictly earlier batch boundary, got {recovered} of {counts:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&copy).ok();
}
