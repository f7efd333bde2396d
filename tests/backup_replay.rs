//! Satellite of E15 — backup/restore interop with WAL replay: restoring
//! a backup taken mid-workload and re-applying the log after the
//! backup's snapshot CID must yield state identical to the uninterrupted
//! execution, over random DML mixes.

use std::path::PathBuf;

use hana_data_platform::platform::{HanaPlatform, Session};
use hana_data_platform::{Row, Value};
use proptest::test_runner::TestRng;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hana-bkrep-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Strings the durable formats must carry verbatim, as SQL literals.
const NASTY: [&str; 10] = [
    "",
    "null",
    "\\N",
    "C:\\new",
    "two\nlines",
    "a\u{1}b\u{1d}c\u{1e}d\u{1f}e",
    "it''s \"quoted\"",
    "tab\there",
    "héllo ✓ 日本",
    "plain",
];

/// One random DML statement against tables `w` (column), `r` (row) and
/// `x` (column, indexed on `k` — redo locates these rows by seek).
fn random_dml(rng: &mut TestRng, i: u64) -> String {
    let nasty = NASTY[rng.below(NASTY.len() as u64) as usize];
    match rng.below(16) {
        0..=4 => format!("INSERT INTO w VALUES ({}, {})", rng.below(15), i),
        5 => format!("UPDATE w SET v = {} WHERE k = {}", 1000 + i, rng.below(15)),
        6 => format!("DELETE FROM w WHERE k = {}", rng.below(15)),
        7..=8 => format!("INSERT INTO r VALUES ({}, 'v{}')", i, rng.below(50)),
        9 => format!("UPDATE r SET s = 's{}' WHERE k > {}", i, rng.below(40)),
        10..=12 => format!(
            "INSERT INTO x VALUES ({}, '{nasty}', {}.25)",
            rng.below(12),
            rng.below(9)
        ),
        13 => format!("UPDATE x SET s = '{nasty}' WHERE k = {}", rng.below(12)),
        14 => format!(
            "UPDATE x SET k = k + 1, d = d * 2 WHERE k = {} AND d + 1 > 2",
            rng.below(12)
        ),
        _ => format!("DELETE FROM x WHERE k = {} AND s <> 'plain'", rng.below(12)),
    }
}

fn table_state(hana: &HanaPlatform, s: &Session) -> [Vec<Row>; 3] {
    [
        "SELECT k, v FROM w ORDER BY k, v",
        "SELECT k, s FROM r ORDER BY k, s",
        "SELECT k, s, d FROM x ORDER BY k, s, d",
    ]
    .map(|q| hana.execute_sql(s, q).unwrap().rows)
}

#[test]
fn restore_plus_replay_equals_uninterrupted_execution() {
    let mut rng = TestRng::deterministic("restore_plus_replay");
    for case in 0..10 {
        let dir = scratch(&format!("case-{case}"));
        let log = dir.join("wal.log");

        // Uninterrupted execution: DDL, then a random DML mix with a
        // backup captured at a random midpoint.
        let a = HanaPlatform::with_log_file(&log).unwrap();
        let sa = a.connect("SYSTEM", "manager").unwrap();
        a.execute_sql(&sa, "CREATE COLUMN TABLE w (k INTEGER, v INTEGER)")
            .unwrap();
        a.execute_sql(&sa, "CREATE ROW TABLE r (k INTEGER, s VARCHAR(20))")
            .unwrap();
        a.execute_sql(
            &sa,
            "CREATE COLUMN TABLE x (k INTEGER, s VARCHAR(20), d DOUBLE)",
        )
        .unwrap();
        a.execute_sql(&sa, "CREATE INDEX ix_x ON x (k)").unwrap();
        let seed: Vec<Row> = (0..8)
            .map(|i| Row::from_values([Value::Int(i % 5), Value::Int(i)]))
            .collect();
        a.load_rows(&sa, "w", &seed).unwrap();

        let ops = 10 + rng.below(25);
        let backup_at = rng.below(ops);
        let mut backup = None;
        for i in 0..ops {
            if i == backup_at {
                backup = Some(a.backup(&sa).unwrap());
            }
            // DML may legitimately match nothing; it must still parse.
            a.execute_sql(&sa, &random_dml(&mut rng, i)).unwrap();
        }
        let backup = backup.unwrap();
        let expected = table_state(&a, &sa);

        // Interrupted execution: a fresh platform restores the
        // mid-workload backup, then rolls the log forward past the
        // backup's snapshot CID.
        let b = HanaPlatform::new_in_memory();
        let sb = b.connect("SYSTEM", "manager").unwrap();
        b.restore(&sb, &backup).unwrap();
        b.replay_wal_after(&sb, a.transaction_manager().wal(), backup.cid)
            .unwrap();
        assert_eq!(
            table_state(&b, &sb),
            expected,
            "case {case}: restore@cid{} + replay diverged from uninterrupted run",
            backup.cid
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
