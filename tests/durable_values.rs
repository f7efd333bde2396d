//! Durability must not depend on `render ∘ parse` being the identity:
//! every value a table can hold comes back from a checkpoint and from
//! log redo (LOAD / INGEST / DISTLOAD payloads, partition logs, replayed
//! SQL) exactly as it went in.

use std::path::{Path, PathBuf};
use std::time::Duration;

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use hana_data_platform::platform::{HanaPlatform, Session};
use hana_data_platform::txn::WalConfig;
use hana_data_platform::{Date, Row, Value};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hana-durval-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
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
    let (hana, _) = HanaPlatform::open_durable_with(dir, config)
        .unwrap_or_else(|e| panic!("database does not open: {e}"));
    let s = hana.connect("SYSTEM", "manager").unwrap();
    (hana, s)
}

/// Remove the checkpoint sidecars (an optimization crash semantics may
/// lose) so reopening redoes the whole log.
fn drop_sidecars(dir: &Path) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let p = entry.unwrap().path();
        if p.extension().is_some_and(|e| e == "ckpt") {
            std::fs::remove_file(p).unwrap();
        }
    }
}

fn rows_of(hana: &HanaPlatform, s: &Session, table: &str) -> Vec<Row> {
    hana.execute_sql(s, &format!("SELECT * FROM {table} ORDER BY k"))
        .unwrap()
        .rows
}

#[test]
fn empty_and_null_looking_strings_survive_a_checkpoint() {
    let dir = scratch("empty");
    let expected = {
        let (hana, s) = open(&dir);
        hana.execute_sql(
            &s,
            "CREATE COLUMN TABLE t (k INTEGER, s VARCHAR(8) NOT NULL)",
        )
        .unwrap();
        hana.execute_sql(&s, "INSERT INTO t VALUES (1, ''), (2, 'null'), (3, 'NULL')")
            .unwrap();
        hana.write_checkpoint().unwrap();
        rows_of(&hana, &s, "t")
    };
    assert_eq!(
        expected[0],
        Row::from_values([Value::Int(1), Value::from("")])
    );
    let (hana, s) = open(&dir);
    assert_eq!(rows_of(&hana, &s, "t"), expected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_timestamp_column_does_not_keep_the_database_from_opening() {
    let dir = scratch("ts");
    let row = Row::from_values([Value::Int(1), Value::Timestamp(12_345)]);
    {
        let (hana, s) = open(&dir);
        hana.execute_sql(&s, "CREATE COLUMN TABLE t (k INTEGER, ts TIMESTAMP)")
            .unwrap();
        hana.load_rows(&s, "t", std::slice::from_ref(&row)).unwrap();
    }
    // From the load barrier's checkpoint, and from the LOAD record.
    let (hana, s) = open(&dir);
    assert_eq!(rows_of(&hana, &s, "t"), vec![row.clone()]);
    drop(hana);
    drop_sidecars(&dir);
    let (hana, s) = open(&dir);
    assert_eq!(rows_of(&hana, &s, "t"), vec![row]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn separator_characters_inside_strings_do_not_split_records() {
    let dir = scratch("sep");
    let rows = vec![
        Row::from_values([Value::Int(1), Value::from("a\u{1}b")]),
        Row::from_values([Value::Int(2), Value::from("\u{1d}x\u{1e}y\u{1f}")]),
    ];
    {
        let (hana, s) = open(&dir);
        hana.execute_sql(&s, "CREATE COLUMN TABLE t (k INTEGER, s VARCHAR(8))")
            .unwrap();
        hana.load_rows(&s, "t", &rows).unwrap();
    }
    let (hana, s) = open(&dir);
    assert_eq!(rows_of(&hana, &s, "t"), rows);
    drop(hana);
    drop_sidecars(&dir);
    let (hana, s) = open(&dir);
    assert_eq!(rows_of(&hana, &s, "t"), rows);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_literal_backslash_n_is_not_turned_into_a_newline_by_redo() {
    let dir = scratch("bsn");
    {
        let (hana, s) = open(&dir);
        hana.execute_sql(&s, "CREATE COLUMN TABLE t (k INTEGER, s VARCHAR(16))")
            .unwrap();
        hana.execute_sql(&s, "INSERT INTO t VALUES (1, 'C:\\new'), (2, 'two\nlines')")
            .unwrap();
    }
    let (hana, s) = open(&dir);
    assert_eq!(
        rows_of(&hana, &s, "t"),
        vec![
            Row::from_values([Value::Int(1), Value::from("C:\\new")]),
            Row::from_values([Value::Int(2), Value::from("two\nlines")]),
        ]
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_log_in_an_older_format_is_refused_by_name() {
    use hana_data_platform::txn::{LogRecord, Wal};
    let config = WalConfig {
        group_commit_window: Duration::ZERO,
        ..WalConfig::default()
    };
    let refusal = |dir: &Path| {
        let err = HanaPlatform::open_durable_with(dir, config.clone())
            .err()
            .expect("an older format must not open");
        assert!(err.to_string().contains("older durable format"), "{err}");
    };
    // The four bulk records of the previous format, committed.
    for (i, legacy) in [
        "LOAD\u{1}t\u{1}1\u{1f}a",
        "--DISTLOAD\u{1}t",
        "INGEST\u{1}feed\u{1}3\u{1}t\u{1}1\u{1f}a",
        "INGESTD\u{1}feed\u{1}3\u{1}t",
    ]
    .into_iter()
    .enumerate()
    {
        let dir = scratch(&format!("legacy{i}"));
        {
            let (hana, s) = open(&dir);
            hana.execute_sql(&s, "CREATE COLUMN TABLE t (k INTEGER, s VARCHAR(8))")
                .unwrap();
        }
        let wal = Wal::open_dir_with(&dir, config.clone()).unwrap();
        let (tid, cid) = (9_000, 9_000);
        wal.append(LogRecord::Begin { tid }).unwrap();
        wal.append(LogRecord::Data {
            tid,
            engine: "hana".into(),
            payload: legacy.into(),
        })
        .unwrap();
        wal.append(LogRecord::Commit { tid, cid }).unwrap();
        wal.sync().unwrap();
        drop(wal);
        refusal(&dir);
        std::fs::remove_dir_all(&dir).ok();
    }
    // A checkpoint with the previous magic.
    let dir = scratch("legacy-ckpt");
    let wal = Wal::open_dir_with(&dir, config.clone()).unwrap();
    wal.checkpoint(1, 1, "HANACKPT1\u{1d}1".as_bytes(), false)
        .unwrap();
    drop(wal);
    refusal(&dir);
    std::fs::remove_dir_all(&dir).ok();
}

const STRINGS: [&str; 14] = [
    "",
    "null",
    "NULL",
    "\\N",
    "a\u{1}b",
    "\u{1d}\u{1e}\u{1f}",
    "it's \"quoted\"",
    "C:\\new",
    "line\nbreak\ttab\r",
    "héllo wörld ✓ 日本語",
    "\\",
    "\\a\\d\\e\\f",
    "S",
    "N",
];

fn pick<T: Clone>(rng: &mut TestRng, pool: &[T]) -> T {
    pool[rng.below(pool.len() as u64) as usize].clone()
}

/// A row of `(k, b, i, d, s, dt, ts)` drawn from every `Value` variant's
/// edge cases, including the widened forms a column accepts (an integer
/// in a DOUBLE column, a date in a TIMESTAMP column).
fn edge_row(rng: &mut TestRng, k: i64) -> Row {
    let nullable = |rng: &mut TestRng, v: Value| if rng.below(6) == 0 { Value::Null } else { v };
    let b = Value::Bool(rng.below(2) == 0);
    let i = Value::Int(pick(rng, &[i64::MIN, -1, 0, 1, i64::MAX, 1 << 53]));
    let random = rng.next_u64() as f64 / 7.0;
    let d = pick(
        rng,
        &[
            Value::Double(-0.0),
            Value::Double(0.0),
            Value::Double(f64::MIN_POSITIVE),
            Value::Double(1e300),
            Value::Double(-1e300),
            Value::Double(f64::INFINITY),
            Value::Double(f64::NEG_INFINITY),
            Value::Double(0.1 + 0.2),
            Value::Double(random),
            Value::Int(7),
        ],
    );
    let s = Value::from(pick(rng, &STRINGS));
    let dt = Value::Date(Date(pick(rng, &[-1_000_000, -1, 0, 9_300, 3_000_000])));
    let ts = pick(
        rng,
        &[
            Value::Timestamp(i64::MIN),
            Value::Timestamp(12_345),
            Value::Timestamp(i64::MAX),
            Value::Date(Date(9_300)),
        ],
    );
    Row::from_values([
        Value::Int(k),
        nullable(rng, b),
        nullable(rng, i),
        nullable(rng, d),
        nullable(rng, s),
        nullable(rng, dt),
        nullable(rng, ts),
    ])
}

proptest! {
    /// Bulk load into a local table, a partitioned load (rows in the
    /// partition logs, a marker in the coordinator log) and a streaming
    /// ingest epoch, then reopen twice: from the checkpoint the last
    /// load barrier cut plus the log suffix, and from the log alone.
    #[test]
    fn every_value_round_trips_through_checkpoint_and_redo(seed in any::<u64>(), n in 1usize..40) {
        let mut rng = TestRng::deterministic(&format!("durable_values-{seed}"));
        let dir = scratch("prop");
        let cols = "(k INTEGER, b BOOLEAN, i BIGINT, d DOUBLE, s VARCHAR(32), dt DATE, ts TIMESTAMP)";
        let tables = ["loc", "dst", "ing"];
        let expected: Vec<Vec<Row>> = {
            let (hana, s) = open(&dir);
            hana.execute_sql(&s, &format!("CREATE COLUMN TABLE loc {cols}")).unwrap();
            hana.execute_sql(
                &s,
                &format!("CREATE COLUMN TABLE dst {cols} PARTITION BY HASH(k) PARTITIONS 3"),
            )
            .unwrap();
            hana.execute_sql(&s, &format!("CREATE COLUMN TABLE ing {cols}")).unwrap();
            for table in ["loc", "dst"] {
                let rows: Vec<Row> = (0..n).map(|k| edge_row(&mut rng, k as i64)).collect();
                hana.load_rows(&s, table, &rows).unwrap();
            }
            // After the last checkpoint barrier, so the reopen with
            // sidecars intact replays it from its INGEST record.
            let rows: Vec<Row> = (0..n).map(|k| edge_row(&mut rng, k as i64)).collect();
            hana.commit_ingest_batch(&s, "feed", 1, "ing", &rows).unwrap();
            tables.iter().map(|t| rows_of(&hana, &s, t)).collect()
        };
        for log_only in [false, true] {
            if log_only {
                drop_sidecars(&dir);
            }
            let (hana, s) = open(&dir);
            for (table, rows) in tables.iter().zip(&expected) {
                prop_assert_eq!(
                    &rows_of(&hana, &s, table),
                    rows,
                    "table {} (log only: {})", table, log_only
                );
            }
            prop_assert_eq!(hana.ingest_epoch("feed"), 1);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
