//! Durability must not depend on `render ∘ parse` being the identity:
//! every value a table can hold comes back from a checkpoint and from
//! log redo exactly as it went in. Redo applies typed records of row
//! images (inserted and deleted rows, bulk loads and ingest epochs with
//! their rows inline) and never parses logged SQL; a log holding an
//! older build's SQL, bulk markers or partition-logged loads is refused.

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use hana_data_platform::platform::{HanaPlatform, Session};
use hana_data_platform::query::TableSource;
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
    let config = WalConfig::default();
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

/// A row table's PRIMARY KEY is part of the definition a checkpoint and
/// a backup carry: after a reopen from the checkpoint, and after a
/// restore, a second row with the same key is still refused.
#[test]
fn a_row_table_keeps_its_primary_key_through_a_checkpoint() {
    let dir = scratch("pk");
    let duplicate = "INSERT INTO p VALUES (1, 3)";
    {
        let (hana, s) = open(&dir);
        hana.execute_sql(&s, "CREATE ROW TABLE p (k INTEGER PRIMARY KEY, v INTEGER)")
            .unwrap();
        hana.execute_sql(&s, "INSERT INTO p VALUES (1, 1)").unwrap();
        hana.write_checkpoint().unwrap();
    }
    let (hana, s) = open(&dir);
    assert!(hana.execute_sql(&s, duplicate).is_err(), "reopened");
    let backup = hana.backup(&s).unwrap();
    let restored = HanaPlatform::new_in_memory();
    let rs = restored.connect("SYSTEM", "manager").unwrap();
    restored.restore(&rs, &backup).unwrap();
    assert!(restored.execute_sql(&rs, duplicate).is_err(), "restored");
    let one = vec![Row::from_values([Value::Int(1), Value::Int(1)])];
    assert_eq!(rows_of(&hana, &s, "p"), one);
    assert_eq!(rows_of(&restored, &rs, "p"), one);
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
    use hana_data_platform::types::encode_record;
    let config = WalConfig::default();
    let refusal = |dir: &Path| {
        let err = HanaPlatform::open_durable_with(dir, config.clone())
            .err()
            .expect("an older format must not open");
        assert!(err.to_string().contains("older durable format"), "{err}");
    };
    // The four bulk records of the previous format and a typed `bulk`
    // record whose rows an older build kept in per-partition logs,
    // committed.
    let partition_logged = encode_record(
        &[
            Value::from("bulk"),
            Value::from("t"),
            Value::Null,
            Value::Int(0),
            Value::Bool(false),
        ],
        &[],
    );
    for (i, legacy) in [
        "LOAD\u{1}t\u{1}1\u{1f}a",
        "--DISTLOAD\u{1}t",
        "INGEST\u{1}feed\u{1}3\u{1}t\u{1}1\u{1f}a",
        "INGESTD\u{1}feed\u{1}3\u{1}t",
        &partition_logged,
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
    // Checkpoints in the two formats of their own that came before the
    // log's records, and one that is not even text.
    for (i, legacy) in [
        &b"HANACKPT1\x1d1"[..],
        b"HANACKPT2\x1d1\x1dT\x01t\x01column",
        &[0xFF, 0xFE],
    ]
    .into_iter()
    .enumerate()
    {
        let dir = scratch(&format!("legacy-ckpt{i}"));
        let wal = Wal::open_dir_with(&dir, config.clone()).unwrap();
        wal.checkpoint(1, 1, legacy, None).unwrap();
        drop(wal);
        refusal(&dir);
        std::fs::remove_dir_all(&dir).ok();
    }
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

/// The number of rows in each partition of a distributed table.
fn partition_sizes(hana: &HanaPlatform, table: &str) -> Vec<usize> {
    match hana.catalog().table(table).unwrap().source {
        TableSource::Distributed(dt) => dt.nodes().iter().map(|n| n.row_count()).collect(),
        _ => panic!("'{table}' is not distributed"),
    }
}

proptest! {
    /// Every table kind holds the same rows after a reopen from the
    /// checkpoint the last load barrier cut plus the log suffix, and
    /// after a reopen from the log alone: a bulk load into a local
    /// table, a partitioned load (its rows in the coordinator log's
    /// `bulk` record, routed home by redo), a streaming-ingest epoch (after the
    /// last barrier, so it is redone from its record), a row table
    /// with a primary key, a table in extended storage, a hybrid table
    /// aged into hot and cold rows, a range-partitioned table (each row
    /// back in its partition) and a column table whose secondary
    /// indexes are seeked again.
    #[test]
    fn every_value_round_trips_through_checkpoint_and_redo(seed in any::<u64>(), n in 1usize..40) {
        let mut rng = TestRng::deterministic(&format!("durable_values-{seed}"));
        let dir = scratch("prop");
        let cols = "(k INTEGER, b BOOLEAN, i BIGINT, d DOUBLE, s VARCHAR(32), dt DATE, ts TIMESTAMP)";
        let pk_cols = "(k INTEGER PRIMARY KEY, b BOOLEAN, i BIGINT, d DOUBLE, s VARCHAR(32), dt DATE, ts TIMESTAMP)";
        let tables = ["loc", "dst", "ing", "pk", "ext", "hyb", "rng", "idx"];
        let seek = "EXPLAIN SELECT * FROM idx WHERE k = 1";
        let (expected, ranges): (Vec<Vec<Row>>, Vec<usize>) = {
            let (hana, s) = open(&dir);
            for ddl in [
                format!("CREATE COLUMN TABLE loc {cols}"),
                format!("CREATE COLUMN TABLE dst {cols} PARTITION BY HASH(k) PARTITIONS 3"),
                format!("CREATE COLUMN TABLE ing {cols}"),
                format!("CREATE ROW TABLE pk {pk_cols}"),
                format!("CREATE COLUMN TABLE ext {cols} USING EXTENDED STORAGE"),
                format!("CREATE COLUMN TABLE hyb {cols} USING HYBRID EXTENDED STORAGE AGING ON b"),
                format!("CREATE COLUMN TABLE rng {cols} PARTITION BY RANGE(k) SPLIT AT (5, 20)"),
                format!("CREATE COLUMN TABLE idx {cols}"),
                "CREATE INDEX ix_ks ON idx (k, s)".to_string(),
                "CREATE INDEX ix_d ON idx (d)".to_string(),
            ] {
                hana.execute_sql(&s, &ddl).unwrap();
            }
            // Each load is a checkpoint barrier: the last one's snapshot
            // holds every table, aged and indexed, but not the epoch.
            for table in ["pk", "ext", "hyb", "rng", "idx", "loc", "dst"] {
                let rows: Vec<Row> = (0..n).map(|k| edge_row(&mut rng, k as i64)).collect();
                hana.load_rows(&s, table, &rows).unwrap();
                if table == "hyb" {
                    hana.run_aging(&s, "hyb").unwrap();
                }
            }
            let rows: Vec<Row> = (0..n).map(|k| edge_row(&mut rng, k as i64)).collect();
            hana.commit_ingest_batch(&s, "feed", 1, "ing", &rows).unwrap();
            let explain = format!("{:?}", hana.execute_sql(&s, seek).unwrap().rows);
            prop_assert!(explain.contains("Index Seek"), "{}", explain);
            let expected = tables.iter().map(|t| rows_of(&hana, &s, t)).collect();
            (expected, partition_sizes(&hana, "rng"))
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
            prop_assert_eq!(partition_sizes(&hana, "rng"), ranges.clone());
            let explain = format!("{:?}", hana.execute_sql(&s, seek).unwrap().rows);
            prop_assert!(explain.contains("Index Seek"), "log only: {}: {}", log_only, explain);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Aging after the last checkpoint is redone: the rows it moved are in
/// the cold partition after a reopen, and no longer in the hot one; so
/// is a later delete of a cold row.
#[test]
fn aging_after_the_last_checkpoint_is_redone() {
    let dir = scratch("aging");
    let state = |hana: &HanaPlatform, s: &Session| {
        let count = hana
            .execute_sql(s, "SELECT COUNT(*) FROM h")
            .unwrap()
            .scalar()
            .unwrap()
            .clone();
        let cold = hana.iq().row_count("h__cold", u64::MAX - 1).unwrap();
        (count, cold, rows_of(hana, s, "h"))
    };
    let aged = {
        let (hana, s) = open(&dir);
        hana.execute_sql(
            &s,
            "CREATE COLUMN TABLE h (k INTEGER, s VARCHAR(8), aged BOOLEAN) \
             USING HYBRID EXTENDED STORAGE AGING ON aged",
        )
        .unwrap();
        for k in 0..8 {
            let aged = k % 3 != 0;
            hana.execute_sql(&s, &format!("INSERT INTO h VALUES ({k}, 'v{k}', {aged})"))
                .unwrap();
        }
        hana.write_checkpoint().unwrap();
        assert_eq!(hana.run_aging(&s, "h").unwrap(), 5);
        state(&hana, &s)
    };
    assert_eq!((aged.0.clone(), aged.1), (Value::Int(8), 5), "live");
    let deleted = {
        let (hana, s) = open(&dir);
        assert_eq!(state(&hana, &s), aged, "aging, after a reopen");
        hana.execute_sql(&s, "DELETE FROM h WHERE k = 7").unwrap();
        state(&hana, &s)
    };
    assert_eq!(deleted.1, 4, "a cold row deleted, live");
    let (hana, s) = open(&dir);
    assert_eq!(state(&hana, &s), deleted, "cold delete, after a reopen");
    std::fs::remove_dir_all(&dir).ok();
}

/// A statement the extended store refuses inside an explicit
/// transaction leaves no record behind: the transaction goes on, and
/// redo applies exactly what it committed.
#[test]
fn a_refused_extended_insert_leaves_no_record_in_its_transaction() {
    let dir = scratch("refused");
    let live = {
        let (hana, s) = open(&dir);
        hana.execute_sql(&s, "CREATE TABLE x (k INTEGER) USING EXTENDED STORAGE")
            .unwrap();
        hana.execute_sql(&s, "BEGIN").unwrap();
        hana.iq().set_failing(true);
        assert!(hana.execute_sql(&s, "INSERT INTO x VALUES (1)").is_err());
        hana.iq().set_failing(false);
        hana.execute_sql(&s, "INSERT INTO x VALUES (2)").unwrap();
        hana.execute_sql(&s, "COMMIT").unwrap();
        rows_of(&hana, &s, "x")
    };
    assert_eq!(live, vec![Row::from_values([Value::Int(2)])]);
    let (hana, s) = open(&dir);
    assert_eq!(rows_of(&hana, &s, "x"), live, "after a reopen");
    std::fs::remove_dir_all(&dir).ok();
}
