//! Statements return the same rows whatever the execution engine's
//! worker count and morsel size: the serial-or-parallel decision is
//! `ExecContext::scatter`'s alone and never reaches a result.

use hana_data_platform::platform::HanaPlatform;
use hana_data_platform::query::execute_query_with;
use hana_data_platform::sql::{parse_statement, Statement};
use hana_data_platform::{Row, Value};
use hana_exec::{ExecConfig, ExecContext};

const QUERIES: &[&str] = &[
    // Scan leaf: no predicate, one, two, and one no row satisfies.
    "SELECT * FROM t",
    "SELECT k, s FROM t WHERE g >= 3",
    "SELECT k FROM t WHERE g BETWEEN 2 AND 5 AND s = 'odd'",
    "SELECT k FROM t WHERE g > 100",
    // Aggregation: fused single-column GROUP BY, the general path
    // (two keys; an expression key), global aggregates with and
    // without input rows.
    "SELECT g, COUNT(*), SUM(k), MIN(k), MAX(k) FROM t GROUP BY g",
    "SELECT g, s, COUNT(*), AVG(k) FROM t WHERE k >= 10 GROUP BY g, s",
    "SELECT k - g * 2, COUNT(*) FROM t GROUP BY k - g * 2",
    "SELECT COUNT(*), SUM(k) FROM t",
    "SELECT COUNT(*), SUM(k) FROM t WHERE g > 100",
];

#[test]
fn rows_do_not_depend_on_workers_or_morsel_size() {
    let hana = HanaPlatform::new_in_memory();
    let s = hana.connect("SYSTEM", "manager").unwrap();
    hana.execute_sql(
        &s,
        "CREATE COLUMN TABLE t (k INTEGER, g INTEGER, s VARCHAR(8))",
    )
    .unwrap();
    let row = |k: i64| {
        let parity = if k % 2 == 0 { "even" } else { "odd" };
        Row::from_values([Value::Int(k), Value::Int(k % 7), Value::from(parity)])
    };
    // 150 rows in main, 50 in the delta, deletions on both sides: 200
    // row slots are four 64-row morsels, the main/delta boundary falls
    // inside the third, and all of it is one default morsel.
    hana.load_rows(&s, "t", &(0..150).map(row).collect::<Vec<_>>())
        .unwrap();
    hana.execute_sql(&s, "MERGE DELTA OF t").unwrap();
    hana.load_rows(&s, "t", &(150..190).map(row).collect::<Vec<_>>())
        .unwrap();
    hana.execute_sql(
        &s,
        "DELETE FROM t WHERE k - g * 3 = 40 OR k = 63 OR k = 64 OR k = 170",
    )
    .unwrap();
    // Rows a snapshot at `before` must not see.
    let before = hana.transaction_manager().current_snapshot().cid();
    hana.load_rows(&s, "t", &(190..200).map(row).collect::<Vec<_>>())
        .unwrap();
    hana.execute_sql(&s, "DELETE FROM t WHERE k = 5").unwrap();
    let now = hana.transaction_manager().current_snapshot().cid();

    let serial = ExecContext::new(ExecConfig::default().with_workers(1));
    let parallel = ExecContext::new(ExecConfig::default().with_workers(4).with_morsel_rows(64));
    assert_eq!(serial.morsels(200).len(), 1);
    assert_eq!(parallel.morsels(200).len(), 4);
    let catalog = hana.catalog();
    for sql in QUERIES {
        let Statement::Query(q) = parse_statement(sql).unwrap() else {
            panic!("not a query: {sql}")
        };
        for cid in [before, now] {
            let one = execute_query_with(&serial, &q, catalog.as_ref(), cid).unwrap();
            let many = execute_query_with(&parallel, &q, catalog.as_ref(), cid).unwrap();
            assert_eq!(one.schema, many.schema, "{sql} @ {cid}");
            assert_eq!(one.rows, many.rows, "{sql} @ {cid}");
        }
    }
    // The snapshots differ where they should, so both were exercised.
    let count = |cid| {
        let Statement::Query(q) = parse_statement("SELECT COUNT(*) FROM t").unwrap() else {
            unreachable!()
        };
        execute_query_with(&parallel, &q, catalog.as_ref(), cid)
            .unwrap()
            .rows
    };
    assert_ne!(count(before), count(now));
}
