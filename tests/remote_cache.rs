//! E3/E11 — remote materialization through the whole platform stack:
//! Figure 12/13 plan behaviour, cache policies, and result equivalence.

use std::sync::Arc;
use std::time::Duration;

use hana_data_platform::hadoop::{Hdfs, Hive, MrCluster, MrConfig, MrFunctionRegistry};
use hana_data_platform::platform::HanaPlatform;
use hana_data_platform::query::Catalog as _;
use hana_data_platform::{DataType, Row, Schema, Value};

fn setup() -> (
    Arc<HanaPlatform>,
    hana_data_platform::platform::Session,
    Arc<Hive>,
) {
    let mr = Arc::new(MrCluster::new(
        Arc::new(Hdfs::new(4)),
        MrConfig {
            worker_slots: 4,
            job_startup: Duration::from_micros(500),
            task_startup: Duration::from_micros(50),
        },
    ));
    let hive = Arc::new(Hive::new(Arc::clone(&mr)));
    hive.create_table(
        "orders",
        Schema::of(&[
            ("o_id", DataType::Int),
            ("o_status", DataType::Varchar),
            ("o_total", DataType::Double),
        ]),
    )
    .unwrap();
    let rows: Vec<Row> = (0..3000)
        .map(|i| {
            Row::from_values([
                Value::Int(i),
                Value::from(if i % 2 == 0 { "OPEN" } else { "DONE" }),
                Value::Double(i as f64),
            ])
        })
        .collect();
    hive.load("orders", &rows).unwrap();

    let hana = Arc::new(HanaPlatform::new_in_memory());
    let session = hana.connect("SYSTEM", "manager").unwrap();
    hana.attach_hadoop(Arc::clone(&hive), Arc::new(MrFunctionRegistry::new(mr)));
    hana.execute_sql(
        &session,
        "CREATE REMOTE SOURCE HIVE1 ADAPTER \"hiveodbc\" CONFIGURATION 'DSN=hive1'",
    )
    .unwrap();
    hana.execute_sql(&session, "CREATE VIRTUAL TABLE orders AT hive1.d.d.orders")
        .unwrap();
    (hana, session, hive)
}

const QUERY: &str = "SELECT o_status, COUNT(*) AS n, SUM(o_total) AS total \
                     FROM orders WHERE o_total >= 100 GROUP BY o_status";

#[test]
fn figure_12_13_cache_rewrites_execution() {
    let (hana, s, hive) = setup();
    hana.set_remote_cache(true, 1_000_000);

    // Figure 12: the shipped plan contains the full query.
    let plan = hana.execute_sql(&s, &format!("EXPLAIN {QUERY}")).unwrap();
    let text: String = plan.rows.iter().map(|r| r[0].to_string() + "\n").collect();
    assert!(text.contains("whole query"), "{text}");
    assert!(text.contains("GROUP BY"), "{text}");

    // Normal execution runs the MR DAG every time.
    let baseline = hana.execute_sql(&s, QUERY).unwrap();
    let jobs_before = hive.cluster().counters().0;
    hana.execute_sql(&s, QUERY).unwrap();
    let jobs_per_run = hive.cluster().counters().0 - jobs_before;
    assert!(jobs_per_run >= 1, "normal mode re-runs the DAG");

    // Hinted: first run materializes (CTAS jobs), second hits the cache
    // with ZERO MapReduce jobs (fetch task only) — the Figure 13 plan.
    let hinted = format!("{QUERY} WITH HINT (USE_REMOTE_CACHE)");
    let first = hana.execute_sql(&s, &hinted).unwrap();
    let jobs_after_mat = hive.cluster().counters().0;
    let second = hana.execute_sql(&s, &hinted).unwrap();
    assert_eq!(
        hive.cluster().counters().0,
        jobs_after_mat,
        "cache hit must not launch MR jobs"
    );

    // Results identical in every mode.
    let key = |rs: &hana_data_platform::ResultSet| {
        let mut v: Vec<Vec<String>> = rs
            .rows
            .iter()
            .map(|r| r.values().iter().map(|x| x.to_string()).collect())
            .collect();
        v.sort();
        v
    };
    assert_eq!(key(&baseline), key(&first));
    assert_eq!(key(&baseline), key(&second));
    assert_eq!(hana.catalog().sda().cache.stats().0, 1, "exactly one hit");
}

#[test]
fn cache_policies_enforced_through_platform() {
    let (hana, s, _hive) = setup();

    // Disabled by default (the paper: "disabled by default and can be
    // controlled using the configuration parameter enable_remote_cache").
    let hinted = format!("{QUERY} WITH HINT (USE_REMOTE_CACHE)");
    hana.execute_sql(&s, &hinted).unwrap();
    assert_eq!(
        hana.catalog().sda().cache.stats(),
        (0, 0),
        "disabled = bypass"
    );

    hana.set_remote_cache(true, 1_000_000);
    // Unpredicated queries are never materialized.
    hana.execute_sql(
        &s,
        "SELECT COUNT(*) FROM orders WITH HINT (USE_REMOTE_CACHE)",
    )
    .unwrap();
    assert_eq!(
        hana.catalog().sda().cache.stats(),
        (0, 0),
        "no predicate = bypass"
    );
    // Without the hint, no caching even when enabled.
    hana.execute_sql(&s, QUERY).unwrap();
    assert_eq!(hana.catalog().sda().cache.stats(), (0, 0));
    // With hint + predicate: materialize once, then hit.
    hana.execute_sql(&s, &hinted).unwrap();
    hana.execute_sql(&s, &hinted).unwrap();
    assert_eq!(hana.catalog().sda().cache.stats(), (1, 1));
}

#[test]
fn cache_validity_refreshes_stale_results() {
    let (hana, s, hive) = setup();
    hana.set_remote_cache(true, 1); // one-tick validity
    let hinted = format!("{QUERY} WITH HINT (USE_REMOTE_CACHE)");
    let before = hana.execute_sql(&s, &hinted).unwrap();
    // Modify the Hive table twice: the remote clock advances PAST the
    // one-tick validity window (exactly one tick would still be valid).
    hive.load(
        "orders",
        &[Row::from_values([
            Value::Int(99_999),
            Value::from("OPEN"),
            Value::Double(500.0),
        ])],
    )
    .unwrap();
    hive.load(
        "orders",
        &[Row::from_values([
            Value::Int(99_998),
            Value::from("DONE"),
            Value::Double(50.0), // below the filter; only advances the clock
        ])],
    )
    .unwrap();
    let after = hana.execute_sql(&s, &hinted).unwrap();
    // The refreshed materialization reflects the new row.
    let count = |rs: &hana_data_platform::ResultSet| -> i64 {
        rs.rows.iter().map(|r| r[1].as_i64().unwrap()).sum()
    };
    assert_eq!(count(&after), count(&before) + 1, "refresh saw the new row");
}

#[test]
fn a_hive_write_makes_a_cached_result_stale() {
    let (hana, s, hive) = setup();
    hana.set_remote_cache(true, 1_000_000);
    let plain = "SELECT COUNT(*) AS n FROM orders WHERE o_total > -100000";
    let hinted = format!("{plain} WITH HINT (USE_REMOTE_CACHE)");
    let n = |sql: &str| hana.execute_sql(&s, sql).unwrap().rows[0][0].clone();
    assert_eq!(n(&hinted), Value::Int(3000), "materialized");
    assert_eq!(n(&hinted), Value::Int(3000), "a hit");
    assert_eq!(hana.catalog().sda().cache.stats(), (1, 1));
    // Well inside the validity window, but the table has changed.
    let row = Row::from_values([Value::Int(3000), Value::from("OPEN"), Value::Double(1.0)]);
    hive.load("orders", &[row]).unwrap();
    assert_eq!(n(plain), Value::Int(3001));
    assert_eq!(
        n(&hinted),
        Value::Int(3001),
        "re-materialized, not a stale hit"
    );
    assert_eq!(hana.catalog().sda().cache.stats(), (1, 2));
    assert_eq!(n(&hinted), Value::Int(3001), "and a hit again");
    assert_eq!(hana.catalog().sda().cache.stats(), (2, 2));
}
