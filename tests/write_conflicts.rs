//! Write-write conflicts resolve first-committer-wins: of two
//! transactions that update or delete the same row, the second to
//! commit aborts as a whole, nothing of it is applied, and log redo
//! does not replay it — so no acknowledged commit is ever lost and the
//! recovered database equals the live one.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use hana_data_platform::platform::{HanaPlatform, Session};
use hana_data_platform::txn::WalConfig;
use hana_data_platform::{Row, Value};

fn scratch() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hana-conflict-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn open(dir: &Path) -> (HanaPlatform, Session) {
    let config = WalConfig {
        group_commit_window: Duration::ZERO,
        ..WalConfig::default()
    };
    let (hana, _) = HanaPlatform::open_durable_with(dir, config).unwrap();
    let s = hana.connect("SYSTEM", "manager").unwrap();
    (hana, s)
}

fn rows_of(hana: &HanaPlatform, s: &Session) -> Vec<Row> {
    hana.execute_sql(s, "SELECT k, v FROM t ORDER BY k, v")
        .unwrap()
        .rows
}

fn kv(k: i64, v: i64) -> Row {
    Row::from_values([Value::Int(k), Value::Int(v)])
}

/// Two sessions BEGIN, both run `first`/`second` against row `k = 1`,
/// both COMMIT: the second COMMIT is a write-write conflict, and the
/// table — live and reopened from the log — holds only the first
/// transaction's effect.
fn second_committer_loses(kind: &str, first: &str, second: &str, expected: &[Row]) {
    let dir = scratch();
    {
        let (hana, a) = open(&dir);
        let b = hana.connect("SYSTEM", "manager").unwrap();
        hana.execute_sql(&a, &format!("CREATE {kind} TABLE t (k INTEGER, v INTEGER)"))
            .unwrap();
        hana.execute_sql(&a, "INSERT INTO t VALUES (1, 0), (2, 0)")
            .unwrap();
        hana.execute_sql(&a, "BEGIN").unwrap();
        hana.execute_sql(&b, "BEGIN").unwrap();
        hana.execute_sql(&a, first).unwrap();
        hana.execute_sql(&b, second).unwrap();
        // B also touches a row nobody contends for: the abort must take
        // it along.
        hana.execute_sql(&b, "UPDATE t SET v = 77 WHERE k = 2")
            .unwrap();
        hana.execute_sql(&a, "COMMIT").unwrap();
        let lost = hana.execute_sql(&b, "COMMIT").unwrap_err();
        assert!(
            lost.to_string().contains("write-write conflict"),
            "{kind}: {lost}"
        );
        assert_eq!(rows_of(&hana, &a), expected, "{kind}: live");
        assert!(
            hana.transaction_manager().in_doubt().is_empty(),
            "{kind}: a conflict aborts before the commit point"
        );
        // The loser's session is usable again, and sees the winner.
        hana.execute_sql(&b, "UPDATE t SET v = v + 0 WHERE k = 2")
            .unwrap();
        assert_eq!(rows_of(&hana, &b), expected, "{kind}: live, after retry");
    }
    let (hana, s) = open(&dir);
    assert_eq!(rows_of(&hana, &s), expected, "{kind}: recovered");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_updates_of_one_row_keep_the_first_commit_only() {
    for kind in ["COLUMN", "ROW"] {
        second_committer_loses(
            kind,
            "UPDATE t SET v = v + 1 WHERE k = 1",
            "UPDATE t SET v = v + 10 WHERE k = 1",
            &[kv(1, 1), kv(2, 0)],
        );
    }
}

#[test]
fn concurrent_deletes_of_one_row_keep_the_first_commit_only() {
    for kind in ["COLUMN", "ROW"] {
        second_committer_loses(
            kind,
            "DELETE FROM t WHERE k = 1",
            "DELETE FROM t WHERE k = 1",
            &[kv(2, 0)],
        );
        // An update racing a delete loses the same way.
        second_committer_loses(
            kind,
            "DELETE FROM t WHERE k = 1",
            "UPDATE t SET v = v + 10 WHERE k = 1",
            &[kv(2, 0)],
        );
    }
}

/// Threads hammer one counter with auto-commit increments, retrying on
/// conflict until each has `INCREMENTS` acknowledged: every acknowledged
/// increment is in the final value, live and after redo.
#[test]
fn contended_increments_add_up_to_the_acknowledged_commits() {
    const THREADS: usize = 4;
    const INCREMENTS: usize = 25;
    let dir = scratch();
    let acknowledged = (THREADS * INCREMENTS) as i64;
    {
        let (hana, s) = open(&dir);
        hana.execute_sql(&s, "CREATE COLUMN TABLE t (k INTEGER, v INTEGER)")
            .unwrap();
        hana.execute_sql(&s, "INSERT INTO t VALUES (1, 0)").unwrap();
        let hana = Arc::new(hana);
        let start = Arc::new(Barrier::new(THREADS));
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let (hana, start) = (Arc::clone(&hana), Arc::clone(&start));
                std::thread::spawn(move || {
                    let s = hana.connect("SYSTEM", "manager").unwrap();
                    start.wait();
                    let mut ok = 0;
                    while ok < INCREMENTS {
                        match hana.execute_sql(&s, "UPDATE t SET v = v + 1 WHERE k = 1") {
                            Ok(_) => ok += 1,
                            Err(e) => {
                                assert!(e.to_string().contains("write-write conflict"), "{e}")
                            }
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(rows_of(&hana, &s), [kv(1, acknowledged)], "live");
        assert!(hana.transaction_manager().in_doubt().is_empty());
    }
    let (hana, s) = open(&dir);
    assert_eq!(rows_of(&hana, &s), [kv(1, acknowledged)], "recovered");
    std::fs::remove_dir_all(&dir).ok();
}
