//! A refused write leaves nothing behind. Every row bound for an
//! in-memory fragment is checked against its schema once, when the
//! statement stages it (a column fragment's rows as they are encoded
//! into one batch), so a bad row refuses the whole statement before
//! anything is buffered or logged: a bulk load keeps the table's rows
//! and statistics, an ingest batch is an error before the epoch ledger
//! is read, and an UPDATE that assigns a wrong type logs nothing in the
//! transaction it fails in.

use std::path::{Path, PathBuf};

use hana_data_platform::platform::{HanaPlatform, IngestCommit, Session};
use hana_data_platform::{HanaError, Row, Value};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hana-refusals-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn open(dir: &Path) -> (HanaPlatform, Session) {
    let (hana, _) = HanaPlatform::open_durable(dir).unwrap();
    let s = hana.connect("SYSTEM", "manager").unwrap();
    (hana, s)
}

/// The records the platform's log holds.
fn log_len(hana: &HanaPlatform) -> usize {
    hana.transaction_manager().wal().records().unwrap().len()
}

fn count(hana: &HanaPlatform, s: &Session) -> Value {
    let rs = hana.execute_sql(s, "SELECT COUNT(*) FROM t").unwrap();
    rs.rows[0][0].clone()
}

/// `n` good rows of `t (k INTEGER NOT NULL, v INTEGER, s VARCHAR)`
/// from key `first` on.
fn rows(first: i64, n: i64) -> Vec<Row> {
    (first..first + n)
        .map(|k| {
            Row::from_values([
                Value::Int(k),
                Value::Int(k % 13),
                Value::from(format!("s{k}")),
            ])
        })
        .collect()
}

/// The ways a row can fail its schema, each with the error it gets.
fn bad_rows() -> [(&'static str, Row, HanaError); 3] {
    let exec = |m: &str| HanaError::Execution(m.to_string());
    [
        (
            "a wrong type",
            Row::from_values([Value::Int(1), Value::from("x"), Value::Null]),
            exec("value of type VARCHAR not assignable to column 'v' of type INTEGER"),
        ),
        (
            "a NULL into NOT NULL",
            Row::from_values([Value::Null, Value::Int(1), Value::Null]),
            exec("NULL violates NOT NULL constraint on 'k'"),
        ),
        (
            "a wrong arity",
            Row::from_values([Value::Int(1), Value::Int(1)]),
            exec("row has 2 values but schema has 3 columns"),
        ),
    ]
}

#[test]
fn a_load_with_one_bad_row_is_refused_and_changes_nothing() {
    let dir = scratch("load");
    let (hana, s) = open(&dir);
    hana.execute_sql(
        &s,
        "CREATE COLUMN TABLE t (k INTEGER NOT NULL, v INTEGER, s VARCHAR(16))",
    )
    .unwrap();
    hana.load_rows(&s, "t", &rows(0, 500)).unwrap();
    let stats = || hana.catalog().statistics("t").unwrap();
    let (before_stats, before_count, before_log) = (stats(), count(&hana, &s), log_len(&hana));
    for (what, bad, error) in bad_rows() {
        let mut load = rows(500, 10_000);
        load[7_000] = bad;
        let got = hana.load_rows(&s, "t", &load);
        assert_eq!(got, Err(error), "{what}");
        assert_eq!(
            count(&hana, &s),
            before_count,
            "{what}: the row count stays"
        );
        let after = stats();
        assert_eq!(
            *after.table, *before_stats.table,
            "{what}: the statistics stay"
        );
        assert_eq!(after.version, before_stats.version, "{what}");
        assert_eq!(
            log_len(&hana),
            before_log,
            "{what}: the log gains no record"
        );
    }
    drop(hana);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_ingest_batch_with_a_bad_row_is_an_error_not_a_duplicate() {
    let hana = HanaPlatform::new_in_memory();
    let s = hana.connect("SYSTEM", "manager").unwrap();
    hana.execute_sql(
        &s,
        "CREATE COLUMN TABLE t (k INTEGER NOT NULL, v INTEGER, s VARCHAR(16))",
    )
    .unwrap();
    let committed = hana.commit_ingest_batch(&s, "p", 5, "t", &rows(0, 100));
    assert!(matches!(committed, Ok(IngestCommit::Committed { .. })));
    for (what, bad, error) in bad_rows() {
        let mut batch = rows(100, 100);
        batch[70] = bad;
        // Epoch 3 is covered by the ledger: a good batch would be a
        // duplicate; this one is refused first.
        for epoch in [3, 6] {
            let got = hana.commit_ingest_batch(&s, "p", epoch, "t", &batch);
            assert_eq!(got, Err(error.clone()), "{what}, epoch {epoch}");
        }
    }
    assert_eq!(count(&hana, &s), Value::Int(100));
    let retried = hana.commit_ingest_batch(&s, "p", 3, "t", &rows(100, 100));
    assert_eq!(retried, Ok(IngestCommit::Deduplicated { last_epoch: 5 }));
}

#[test]
fn a_wrong_typed_update_logs_nothing_and_its_transaction_goes_on() {
    let dir = scratch("update");
    let live = {
        let (hana, s) = open(&dir);
        hana.execute_sql(
            &s,
            "CREATE COLUMN TABLE t (k INTEGER NOT NULL, v INTEGER, s VARCHAR(16))",
        )
        .unwrap();
        hana.execute_sql(&s, "INSERT INTO t VALUES (1, 10, 'a')")
            .unwrap();
        hana.execute_sql(&s, "BEGIN").unwrap();
        hana.execute_sql(&s, "INSERT INTO t VALUES (2, 20, 'b')")
            .unwrap();
        let before = log_len(&hana);
        let got = hana.execute_sql(&s, "UPDATE t SET v = 'x' WHERE k = 1");
        let refused = "value of type VARCHAR not assignable to column 'v' of type INTEGER";
        assert_eq!(got.map(drop), Err(HanaError::Execution(refused.into())));
        assert_eq!(log_len(&hana), before, "the refused UPDATE logs no record");
        hana.execute_sql(&s, "COMMIT").unwrap();
        let rs = hana.execute_sql(&s, "SELECT * FROM t ORDER BY k").unwrap();
        rs.rows
    };
    let expected = [(1, 10, "a"), (2, 20, "b")]
        .map(|(k, v, s)| Row::from_values([Value::Int(k), Value::Int(v), Value::from(s)]));
    assert_eq!(live, expected);
    let (hana, s) = open(&dir);
    let reopened = hana.execute_sql(&s, "SELECT * FROM t ORDER BY k").unwrap();
    assert_eq!(reopened.rows, live, "after a reopen");
    drop(hana);
    std::fs::remove_dir_all(&dir).ok();
}
