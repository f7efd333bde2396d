//! Configuration is typed structs handed over at construction, never
//! the process environment: with every former `HANA_*` variable set to
//! a hostile value, plans and results are what they are without them.
//!
//! This file holds exactly one test so that mutating the (process
//! global) environment cannot race a sibling test; the variables are
//! set before the first platform — and with it the process-wide
//! execution context — is created.

use std::path::Path;

use hana_data_platform::platform::HanaPlatform;
use hana_data_platform::{Row, Value};

/// The nine variables the engine once read, each with a value that
/// would visibly change behaviour (or break it) if anything still did.
const FORMER_KNOBS: [(&str, &str); 9] = [
    ("HANA_BROADCAST_BUILD_ROW_LIMIT", "1"),
    ("HANA_COMPILED_EXPRESSIONS", "0"),
    ("HANA_EXEC_WORKERS", "97"),
    ("HANA_EXEC_MORSEL_ROWS", "7"),
    ("HANA_WAL_GROUP_COMMIT_US", "0"),
    ("HANA_WAL_SEGMENT_BYTES", "1"),
    ("HANA_INGEST_BATCH_ROWS", "minus three"),
    ("HANA_INGEST_MAX_INFLIGHT", "0"),
    ("HANA_ESP_INPUT_QUEUE_EVENTS", "1"),
];

const STATEMENTS: [&str; 5] = [
    "SELECT v FROM accounts WHERE k = 7",
    "SELECT k, v FROM accounts WHERE k * 2 + 1 < 40 ORDER BY k",
    "SELECT f.v, d.name FROM facts AS f JOIN dims AS d ON f.k = d.k ORDER BY f.v",
    "SELECT k, COUNT(*) AS n, SUM(v) AS total FROM facts GROUP BY k ORDER BY k",
    "SELECT COUNT(*) FROM facts WHERE k = 3",
];

fn segment_files(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|x| x == "seg")
        })
        .count()
}

/// Everything observable about one run of [`scenario`].
#[derive(Debug, PartialEq)]
struct Outcome {
    /// EXPLAIN text of every probe statement.
    explains: Vec<String>,
    /// Result rows of every probe statement.
    results: Vec<Vec<Row>>,
    /// Coordinator WAL segment files written.
    segments: usize,
    /// `accounts` after a reopen.
    recovered: Vec<Row>,
}

/// Build a durable platform over `dir` (indexed local table, 4-way
/// partitioned fact table, small dimension), run the probe statements,
/// then reopen it.
fn scenario(dir: &Path) -> Outcome {
    let _ = std::fs::remove_dir_all(dir);
    let (hana, _) = HanaPlatform::open_durable(dir).unwrap();
    let s = hana.connect("SYSTEM", "manager").unwrap();
    hana.execute_sql(&s, "CREATE COLUMN TABLE accounts (k INTEGER, v INTEGER)")
        .unwrap();
    for i in 0..60 {
        hana.execute_sql(&s, &format!("INSERT INTO accounts VALUES ({i}, {})", i * 3))
            .unwrap();
    }
    hana.execute_sql(&s, "CREATE INDEX ix_k ON accounts (k)")
        .unwrap();
    hana.execute_sql(
        &s,
        "CREATE COLUMN TABLE facts (k INTEGER, v INTEGER) PARTITION BY HASH(k) PARTITIONS 4",
    )
    .unwrap();
    let facts: Vec<Row> = (0..2_000)
        .map(|i| Row::from_values([Value::Int(i % 23), Value::Int(i)]))
        .collect();
    hana.load_rows(&s, "facts", &facts).unwrap();
    hana.execute_sql(&s, "CREATE COLUMN TABLE dims (k INTEGER, name VARCHAR(8))")
        .unwrap();
    for k in (0..23).step_by(2) {
        hana.execute_sql(&s, &format!("INSERT INTO dims VALUES ({k}, 'g{k}')"))
            .unwrap();
    }

    let mut explains = Vec::new();
    let mut results = Vec::new();
    for sql in STATEMENTS {
        let plan = hana.execute_sql(&s, &format!("EXPLAIN {sql}")).unwrap();
        explains.push(
            plan.rows
                .iter()
                .map(|r| r[0].to_string())
                .collect::<Vec<_>>()
                .join("\n"),
        );
        results.push(hana.execute_sql(&s, sql).unwrap().rows);
    }

    // The statements whose behaviour the two query knobs used to bend.
    let (_, profile) = hana.profile_query(&s, STATEMENTS[1]).unwrap();
    let filter = profile.find("filter").expect("non-pushable filter");
    assert_eq!(
        filter.rows,
        Some(20),
        "the filter operator runs and keeps k < 19.5:\n{}",
        profile.render()
    );
    assert!(
        explains[2].contains("exchange: broadcast"),
        "12 build rows x 4 partitions <= 2 000 probe rows:\n{}",
        explains[2]
    );

    let segments = segment_files(dir);
    drop(hana);
    let (reopened, _) = HanaPlatform::open_durable(dir).unwrap();
    let s = reopened.connect("SYSTEM", "manager").unwrap();
    let recovered = reopened
        .execute_sql(&s, "SELECT k, v FROM accounts ORDER BY k")
        .unwrap()
        .rows;
    drop(reopened);
    std::fs::remove_dir_all(dir).ok();
    Outcome {
        explains,
        results,
        segments,
        recovered,
    }
}

#[test]
fn hostile_environment_changes_no_plan_and_no_result() {
    let dir = std::env::temp_dir().join(format!("hana-no-env-knobs-{}", std::process::id()));

    for (name, value) in FORMER_KNOBS {
        std::env::set_var(name, value);
    }
    let hostile = scenario(&dir);
    assert_eq!(
        *hana_exec::ExecContext::global().config(),
        hana_exec::ExecConfig::default(),
        "the process-wide execution context is built from the typed default"
    );
    assert_eq!(
        hostile.segments, 1,
        "default 4 MiB segments: this log never rolls"
    );
    assert_eq!(hostile.recovered.len(), 60, "every insert survives");

    for (name, _) in FORMER_KNOBS {
        std::env::remove_var(name);
    }
    assert_eq!(hostile, scenario(&dir), "plans, rows, log shape, recovery");
}
