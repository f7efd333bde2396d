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
    let (hana, _) = HanaPlatform::open_durable_with(dir, WalConfig::default()).unwrap();
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
        let (hana, _) = HanaPlatform::open_durable_with(&copy, WalConfig::default()).unwrap();
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
        let (again, _) = HanaPlatform::open_durable_with(&copy, WalConfig::default()).unwrap();
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
    let (hana, _) = HanaPlatform::open_durable_with(&dir, WalConfig::default()).unwrap();
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

/// `writers` threads insert `per_writer` rows each into a durable
/// platform opened with `config`, while another thread runs
/// `checkpoint` up to `checkpoints` times as long as they write; after
/// a reopen every acknowledged insert must be there, once.
fn race_checkpoints(
    config: WalConfig,
    writers: i64,
    per_writer: i64,
    checkpoints: usize,
    checkpoint: impl Fn(&HanaPlatform, &Session) + Send,
) {
    let dir = scratch("ckpt-race");
    {
        let (hana, _) = HanaPlatform::open_durable_with(&dir, config.clone()).unwrap();
        let s = hana.connect("SYSTEM", "manager").unwrap();
        hana.execute_sql(&s, "CREATE COLUMN TABLE t (v INTEGER)")
            .unwrap();
        let writing = std::sync::atomic::AtomicI64::new(writers);
        std::thread::scope(|scope| {
            for w in 0..writers {
                let (hana, writing) = (&hana, &writing);
                scope.spawn(move || {
                    let s = hana.connect("SYSTEM", "manager").unwrap();
                    for i in 0..per_writer {
                        hana.execute_sql(&s, &format!("INSERT INTO t VALUES ({})", w * 1_000 + i))
                            .unwrap();
                    }
                    writing.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                });
            }
            let (hana, s, writing) = (&hana, &s, &writing);
            scope.spawn(move || {
                for _ in 0..checkpoints {
                    if writing.load(std::sync::atomic::Ordering::SeqCst) == 0 {
                        break;
                    }
                    checkpoint(hana, s);
                }
            });
        });
    }
    let (hana, _) = HanaPlatform::open_durable_with(&dir, config).unwrap();
    let s = hana.connect("SYSTEM", "manager").unwrap();
    let got = ints(&hana, &s, "SELECT v FROM t ORDER BY v");
    let lost: Vec<i64> = (0..writers)
        .flat_map(|w| (0..per_writer).map(move |i| w * 1_000 + i))
        .filter(|v| got.binary_search(v).is_err())
        .collect();
    assert!(
        lost.is_empty(),
        "recovery dropped acknowledged inserts {lost:?}"
    );
    assert_eq!(got.len() as i64, writers * per_writer, "duplicated inserts");
    drop(hana);
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint racing in-flight commits must not record a commit ID
/// as covered before its rows have applied: recovery skips the log
/// records of covered commits, so such a cut drops an acknowledged
/// write. Nor may it prune a record of a commit it does not cover: it
/// deletes only segments sealed before its cut, and only when no
/// transaction was active at the cut. Committers run under group
/// commit while a checkpointer cuts snapshots back to back — plain
/// checkpoints over one segment, then, for ten rounds, MERGE DELTAs
/// over 256-byte segments that roll every commit or two; every
/// acknowledged insert must be there after reopen.
#[test]
fn checkpoints_racing_commits_lose_no_acknowledged_write() {
    race_checkpoints(WalConfig::default(), 4, 150, usize::MAX, |hana, _| {
        hana.write_checkpoint().unwrap();
    });
    let small = WalConfig {
        segment_bytes: 256,
        ..WalConfig::default()
    };
    for _round in 0..10 {
        race_checkpoints(small.clone(), 2, 60, 30, |hana, s| {
            hana.execute_sql(s, "MERGE DELTA OF t").unwrap();
        });
    }
}

/// Distributed workload: a 4-partition table loaded in batches. Each
/// batch's rows go durably to the partition logs before the coordinator
/// commit; the coordinator log carries only markers.
fn run_dist_workload(dir: &Path) -> Vec<usize> {
    let (hana, _) = HanaPlatform::open_durable_with(dir, WalConfig::default()).unwrap();
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
    let (hana, _) = HanaPlatform::open_durable_with(copy, WalConfig::default()).unwrap();
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
    let wal = Wal::open_dir_with(&copy, WalConfig::default()).unwrap();
    let records = wal.records().unwrap();
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

/// A flipped bit in a typed redo record is caught by its frame's
/// checksum. In the last segment, recovery stops in front of the
/// damaged frame and recovers exactly the commits ahead of it; in a
/// sealed segment, the database refuses to open. No damaged row is ever
/// applied: every reopened table is one of the states the workload
/// passed through.
#[test]
fn a_flipped_bit_in_a_typed_record_recovers_a_prefix_or_refuses_to_open() {
    use hana_data_platform::types::decode_record;
    let dir = scratch("flip");
    let config = WalConfig {
        segment_bytes: 1800,
        ..WalConfig::default()
    };
    let select = "SELECT k, s FROM t ORDER BY k, s";
    // `states[j]`: the table after the first `j` commits (no table yet
    // for `j = 0`); every statement is one auto-commit transaction.
    let mut states: Vec<Option<Vec<Row>>> = vec![None];
    {
        let (hana, _) = HanaPlatform::open_durable_with(&dir, config.clone()).unwrap();
        let s = hana.connect("SYSTEM", "manager").unwrap();
        hana.execute_sql(&s, "CREATE COLUMN TABLE t (k INTEGER, s VARCHAR(16))")
            .unwrap();
        states.push(Some(Vec::new()));
        for i in 0..32 {
            let sql = match i % 4 {
                0 | 1 => format!("INSERT INTO t VALUES ({i}, 'row {i}')"),
                2 => format!("UPDATE t SET s = 'upd {i}' WHERE k = {}", i - 2),
                _ => format!("DELETE FROM t WHERE k = {}", i - 2),
            };
            hana.execute_sql(&s, &sql).unwrap();
            states.push(Some(hana.execute_sql(&s, select).unwrap().rows));
        }
    }
    let wal = Wal::open_dir_with(&dir, config.clone()).unwrap();
    let records = wal.records().unwrap();
    let ends = wal.record_end_offsets();
    drop(wal);
    let (segments, total) = coordinator_segments(&dir);
    assert!(segments.len() > 1, "the workload spans sealed segments");
    let last_start = total - std::fs::metadata(segments.last().unwrap()).unwrap().len();

    let copy = scratch("flip-copy");
    let (mut sealed, mut last) = (0, 0);
    for (at, rec) in records.iter().enumerate() {
        let LogRecord::Data { payload, .. } = rec else {
            continue;
        };
        let (head, _) = decode_record(payload).expect("a typed record");
        let kind = head[0].to_string();
        assert!(
            ["insert", "delete", "ddl"].contains(&kind.as_str()),
            "{kind}"
        );
        // The bit: in the middle of the payload, behind the 8-byte header.
        let start = if at == 0 { 0 } else { ends[at - 1] };
        let byte = start + 8 + (ends[at] - start - 8) / 2;
        let _ = std::fs::remove_dir_all(&copy);
        copy_dir(&dir, &copy);
        let (mut file, mut offset) = (0, byte);
        let (paths, _) = coordinator_segments(&copy);
        while offset >= std::fs::metadata(&paths[file]).unwrap().len() {
            offset -= std::fs::metadata(&paths[file]).unwrap().len();
            file += 1;
        }
        let mut bytes = std::fs::read(&paths[file]).unwrap();
        bytes[offset as usize] ^= 1 << (at % 8);
        std::fs::write(&paths[file], bytes).unwrap();

        let opened = HanaPlatform::open_durable_with(&copy, config.clone());
        if start < last_start {
            sealed += 1;
            let err = opened
                .err()
                .expect("a damaged sealed segment must not open");
            assert!(err.to_string().contains("corrupt WAL frame"), "{err}");
            continue;
        }
        last += 1;
        let (hana, _) = opened.unwrap();
        let s = hana.connect("SYSTEM", "manager").unwrap();
        let got = hana
            .catalog()
            .has_table("t")
            .then(|| hana.execute_sql(&s, select).unwrap().rows);
        let commits_ahead = records[..at]
            .iter()
            .filter(|r| matches!(r, LogRecord::Commit { .. }))
            .count();
        assert_eq!(
            got, states[commits_ahead],
            "flip in record {at}: not the {commits_ahead}-commit prefix"
        );
    }
    assert!(sealed > 0 && last > 0, "sealed {sealed}, last {last}");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&copy).ok();
}
