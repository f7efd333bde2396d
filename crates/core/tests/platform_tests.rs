//! End-to-end platform tests: SQL over every storage kind, hybrid
//! tables + aging, transactions, security, repository transport,
//! backup/restore and point-in-time recovery.

use std::sync::Arc;
use std::time::Duration;

use hana_core::{ArtifactKind, HanaPlatform, Privilege};
use hana_hadoop::{Hdfs, Hive, MrCluster, MrConfig, MrFunctionRegistry};
use hana_types::{Row, Value};

fn platform() -> (HanaPlatform, hana_core::Session) {
    let hana = HanaPlatform::new_in_memory();
    let session = hana.connect("SYSTEM", "manager").unwrap();
    (hana, session)
}

#[test]
fn column_table_crud_roundtrip() {
    let (hana, s) = platform();
    hana.execute_sql(&s, "CREATE COLUMN TABLE t (id INTEGER, name VARCHAR(20))")
        .unwrap();
    let rs = hana
        .execute_sql(&s, "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
        .unwrap();
    assert_eq!(rs.scalar().unwrap(), &Value::Int(3));
    hana.execute_sql(&s, "UPDATE t SET name = UPPER(name) WHERE id >= 2")
        .unwrap();
    hana.execute_sql(&s, "DELETE FROM t WHERE id = 1").unwrap();
    let rs = hana
        .execute_sql(
            &s,
            "SELECT name FROM t WHERE id BETWEEN 1 AND 3 ORDER BY name",
        )
        .unwrap();
    assert_eq!(rs.len(), 2);
    assert_eq!(rs.rows[0][0], Value::from("B"));
    // Column-list inserts.
    hana.execute_sql(&s, "INSERT INTO t (name, id) VALUES ('x', 9)")
        .unwrap();
    let rs = hana
        .execute_sql(&s, "SELECT id FROM t WHERE name = 'x'")
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(9));
}

#[test]
fn row_table_with_primary_key() {
    let (hana, s) = platform();
    hana.execute_sql(
        &s,
        "CREATE ROW TABLE accounts (id INTEGER PRIMARY KEY, balance DOUBLE)",
    )
    .unwrap();
    hana.execute_sql(&s, "INSERT INTO accounts VALUES (1, 100.0)")
        .unwrap();
    // Duplicate PK fails and the auto-commit transaction rolls back.
    assert!(hana
        .execute_sql(&s, "INSERT INTO accounts VALUES (1, 5.0)")
        .is_err());
    let rs = hana
        .execute_sql(&s, "SELECT COUNT(*) FROM accounts")
        .unwrap();
    assert_eq!(rs.scalar().unwrap(), &Value::Int(1));
}

#[test]
fn extended_table_lives_in_iq() {
    let (hana, s) = platform();
    hana.execute_sql(
        &s,
        "CREATE TABLE archive (id INTEGER, payload VARCHAR(50)) USING EXTENDED STORAGE",
    )
    .unwrap();
    assert!(hana.iq().has_table("archive"), "shielded IQ holds the data");
    hana.execute_sql(&s, "INSERT INTO archive VALUES (1, 'cold'), (2, 'colder')")
        .unwrap();
    let rs = hana
        .execute_sql(&s, "SELECT payload FROM archive WHERE id = 2")
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::from("colder"));
    // Direct (bulk) load bypassing the in-memory store.
    let rows: Vec<Row> = (10..1010)
        .map(|i| Row::from_values([Value::Int(i), Value::from(format!("p{i}"))]))
        .collect();
    hana.load_rows(&s, "archive", &rows).unwrap();
    let rs = hana
        .execute_sql(&s, "SELECT COUNT(*) FROM archive")
        .unwrap();
    assert_eq!(rs.scalar().unwrap(), &Value::Int(1002));
    hana.execute_sql(&s, "DROP TABLE archive").unwrap();
    assert!(!hana.iq().has_table("archive"));
}

#[test]
fn hybrid_table_with_aging() {
    let (hana, s) = platform();
    hana.execute_sql(
        &s,
        "CREATE COLUMN TABLE sales (id INTEGER, amount DOUBLE, is_cold BOOLEAN) \
         USING HYBRID EXTENDED STORAGE AGING ON is_cold",
    )
    .unwrap();
    for i in 0..100 {
        hana.execute_sql(
            &s,
            &format!(
                "INSERT INTO sales VALUES ({i}, {}.0, {})",
                i * 10,
                if i < 80 { "true" } else { "false" }
            ),
        )
        .unwrap();
    }
    // Everything starts hot.
    let rs = hana.execute_sql(&s, "SELECT COUNT(*) FROM sales").unwrap();
    assert_eq!(rs.scalar().unwrap(), &Value::Int(100));
    // Aging moves flagged rows into the cold partition.
    let moved = hana.run_aging(&s, "sales").unwrap();
    assert_eq!(moved, 80);
    assert_eq!(
        hana.iq().row_count("sales__cold", u64::MAX - 1).unwrap(),
        80
    );
    // Queries still see the whole logical table (union plan).
    let rs = hana.execute_sql(&s, "SELECT COUNT(*) FROM sales").unwrap();
    assert_eq!(rs.scalar().unwrap(), &Value::Int(100));
    let rs = hana
        .execute_sql(&s, "SELECT SUM(amount) FROM sales WHERE id < 10")
        .unwrap();
    assert_eq!(rs.scalar().unwrap(), &Value::Double(450.0));
    // Aging again is a no-op.
    assert_eq!(hana.run_aging(&s, "sales").unwrap(), 0);
}

#[test]
fn explicit_transactions_commit_and_rollback() {
    let (hana, s) = platform();
    hana.execute_sql(&s, "CREATE COLUMN TABLE t (a INTEGER)")
        .unwrap();
    hana.execute_sql(&s, "BEGIN").unwrap();
    hana.execute_sql(&s, "INSERT INTO t VALUES (1)").unwrap();
    hana.execute_sql(&s, "INSERT INTO t VALUES (2)").unwrap();
    // Not visible before commit (reads use the txn snapshot).
    let rs = hana.execute_sql(&s, "SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(rs.scalar().unwrap(), &Value::Int(0));
    hana.execute_sql(&s, "COMMIT").unwrap();
    let rs = hana.execute_sql(&s, "SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(rs.scalar().unwrap(), &Value::Int(2));

    hana.execute_sql(&s, "BEGIN").unwrap();
    hana.execute_sql(&s, "INSERT INTO t VALUES (3)").unwrap();
    hana.execute_sql(&s, "ROLLBACK").unwrap();
    let rs = hana.execute_sql(&s, "SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(rs.scalar().unwrap(), &Value::Int(2));
    assert!(hana.execute_sql(&s, "COMMIT").is_err(), "nothing open");
}

#[test]
fn distributed_transaction_spans_hot_and_cold() {
    let (hana, s) = platform();
    hana.execute_sql(&s, "CREATE COLUMN TABLE hot (a INTEGER)")
        .unwrap();
    hana.execute_sql(&s, "CREATE TABLE cold (a INTEGER) USING EXTENDED STORAGE")
        .unwrap();
    hana.execute_sql(&s, "BEGIN").unwrap();
    hana.execute_sql(&s, "INSERT INTO hot VALUES (1)").unwrap();
    hana.execute_sql(&s, "INSERT INTO cold VALUES (2)").unwrap();
    // Simulate the extended store failing before commit: the entire
    // transaction aborts (§3.1).
    hana.iq().set_failing(true);
    assert!(hana.execute_sql(&s, "COMMIT").is_err());
    hana.iq().set_failing(false);
    let rs = hana.execute_sql(&s, "SELECT COUNT(*) FROM hot").unwrap();
    assert_eq!(
        rs.scalar().unwrap(),
        &Value::Int(0),
        "local part rolled back too"
    );
    let rs = hana.execute_sql(&s, "SELECT COUNT(*) FROM cold").unwrap();
    assert_eq!(rs.scalar().unwrap(), &Value::Int(0));
}

#[test]
fn security_gates_every_entry_point() {
    let (hana, admin) = platform();
    hana.security()
        .create_user(&admin, "reader", "pw", &[Privilege::Select])
        .unwrap();
    let reader = hana.connect("reader", "pw").unwrap();
    hana.execute_sql(&admin, "CREATE COLUMN TABLE t (a INTEGER)")
        .unwrap();
    assert!(hana.execute_sql(&reader, "SELECT * FROM t").is_ok());
    assert!(hana
        .execute_sql(&reader, "INSERT INTO t VALUES (1)")
        .is_err());
    assert!(hana
        .execute_sql(&reader, "CREATE COLUMN TABLE u (a INTEGER)")
        .is_err());
    assert!(hana.backup(&reader).is_err());
    assert!(hana.run_aging(&reader, "t").is_err());
}

#[test]
fn repository_transport_dev_to_prod() {
    let (dev, dev_s) = platform();
    dev.put_artifact(
        &dev_s,
        "schema.sql",
        ArtifactKind::SqlScript,
        "CREATE COLUMN TABLE orders (id INTEGER, total DOUBLE); \
         INSERT INTO orders VALUES (1, 10.5)",
    )
    .unwrap();
    dev.put_artifact(
        &dev_s,
        "monitor.ccl",
        ArtifactKind::CclScript,
        "CREATE INPUT STREAM ticks SCHEMA (v DOUBLE); \
         CREATE OUTPUT WINDOW w AS SELECT COUNT(v) FROM ticks KEEP 10 ROWS",
    )
    .unwrap();
    let du = dev
        .export_delivery_unit(&dev_s, "app-du", &["schema.sql", "monitor.ccl"])
        .unwrap();

    let (prod, prod_s) = platform();
    prod.deploy_delivery_unit(&prod_s, &du).unwrap();
    // SQL artifact deployed: table exists with content.
    let rs = prod
        .execute_sql(&prod_s, "SELECT total FROM orders")
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::Double(10.5));
    // CCL artifact deployed: the stream accepts events.
    prod.esp()
        .send("ticks", 0, Row::from_values([Value::Double(1.0)]))
        .unwrap();
    assert_eq!(prod.esp().window_names(), vec!["w".to_string()]);
}

#[test]
fn esp_integration_forward_and_hana_join() {
    let hana = Arc::new(HanaPlatform::new_in_memory());
    let s = hana.connect("SYSTEM", "manager").unwrap();
    hana.execute_sql(
        &s,
        "CREATE COLUMN TABLE readings (cell VARCHAR(10), avg_load DOUBLE)",
    )
    .unwrap();
    hana.execute_sql(
        &s,
        "CREATE COLUMN TABLE cells (cell_id VARCHAR(10), city VARCHAR(20))",
    )
    .unwrap();
    hana.execute_sql(&s, "INSERT INTO cells VALUES ('c1', 'Walldorf')")
        .unwrap();
    hana.esp()
        .deploy(
            "CREATE INPUT STREAM events SCHEMA (cell VARCHAR(10), load DOUBLE);\n\
             CREATE OUTPUT WINDOW agg AS SELECT cell, AVG(load) AS avg_load \
             FROM events GROUP BY cell KEEP 100 ROWS",
        )
        .unwrap();
    // Use case 1: forward the window into a HANA table.
    let sink = hana.table_sink(&s, "readings").unwrap();
    hana.esp().attach_sink("agg", sink).unwrap();
    // Use case 2: push reference data into the ESP.
    hana.push_reference_to_esp(&s, "cells", "cells").unwrap();
    // Use case 3: expose the window for HANA joins.
    hana.expose_esp_window(&s, "agg").unwrap();

    for i in 0..10 {
        hana.esp()
            .send(
                "events",
                i,
                Row::from_values([Value::from("c1"), Value::Double(40.0 + i as f64)]),
            )
            .unwrap();
    }
    // HANA join: query the live window joined with a HANA table.
    let rs = hana
        .execute_sql(
            &s,
            "SELECT c.city, w.avg_load FROM agg() w JOIN cells c ON w.cell = c.cell_id",
        )
        .unwrap();
    assert_eq!(rs.len(), 1);
    assert_eq!(rs.rows[0][0], Value::from("Walldorf"));
    // Forward into the table.
    hana.esp().flush_window("agg").unwrap();
    let rs = hana
        .execute_sql(&s, "SELECT COUNT(*) FROM readings")
        .unwrap();
    assert_eq!(rs.scalar().unwrap(), &Value::Int(1));
}

#[test]
fn hadoop_federation_through_sql_ddl() {
    let (hana, s) = platform();
    let mr = Arc::new(MrCluster::new(
        Arc::new(Hdfs::new(4)),
        MrConfig {
            worker_slots: 4,
            job_startup: Duration::from_micros(300),
            task_startup: Duration::from_micros(30),
        },
    ));
    let hive = Arc::new(Hive::new(Arc::clone(&mr)));
    hive.create_table(
        "product",
        hana_types::Schema::of(&[
            ("product_name", hana_types::DataType::Varchar),
            ("brand_name", hana_types::DataType::Varchar),
        ]),
    )
    .unwrap();
    hive.load(
        "product",
        &[
            Row::from_values([Value::from("Widget"), Value::from("Acme")]),
            Row::from_values([Value::from("Gadget"), Value::from("Globex")]),
        ],
    )
    .unwrap();
    let registry = Arc::new(MrFunctionRegistry::new(mr));
    hana.attach_hadoop(Arc::clone(&hive), registry);

    // The exact §4.2 workflow.
    hana.execute_sql(
        &s,
        "CREATE REMOTE SOURCE HIVE1 ADAPTER \"hiveodbc\" CONFIGURATION 'DSN=hive1' \
         WITH CREDENTIAL TYPE 'PASSWORD' USING 'user=dfuser;password=dfpass'",
    )
    .unwrap();
    hana.execute_sql(
        &s,
        "CREATE VIRTUAL TABLE \"VIRTUAL_PRODUCT\" AT \"HIVE1\".\"dflo\".\"dflo\".\"product\"",
    )
    .unwrap();
    let rs = hana
        .execute_sql(
            &s,
            "SELECT product_name, brand_name FROM \"VIRTUAL_PRODUCT\"",
        )
        .unwrap();
    assert_eq!(rs.len(), 2);
    // Virtual tables are read-only.
    assert!(hana
        .execute_sql(&s, "INSERT INTO virtual_product VALUES ('x', 'y')")
        .is_err());
    // Unknown adapter errors.
    assert!(hana
        .execute_sql(
            &s,
            "CREATE REMOTE SOURCE T ADAPTER \"teradata\" CONFIGURATION 'x'"
        )
        .is_err());
}

#[test]
fn backup_restore_spans_engines() {
    let (hana, s) = platform();
    hana.execute_sql(&s, "CREATE COLUMN TABLE hot (a INTEGER)")
        .unwrap();
    hana.execute_sql(
        &s,
        "CREATE COLUMN TABLE mixed (a INTEGER, cold BOOLEAN) \
         USING HYBRID EXTENDED STORAGE AGING ON cold",
    )
    .unwrap();
    hana.execute_sql(&s, "INSERT INTO hot VALUES (1), (2)")
        .unwrap();
    hana.execute_sql(
        &s,
        "INSERT INTO mixed VALUES (1, true), (2, false), (3, true)",
    )
    .unwrap();
    hana.run_aging(&s, "mixed").unwrap();

    let backup = hana.backup(&s).unwrap();
    assert_eq!(backup.table_count(), 2);
    assert_eq!(backup.row_count(), 5);

    // Wreck the data, then restore.
    hana.execute_sql(&s, "DELETE FROM hot").unwrap();
    hana.execute_sql(&s, "DROP TABLE mixed").unwrap();
    hana.restore(&s, &backup).unwrap();
    let rs = hana.execute_sql(&s, "SELECT COUNT(*) FROM hot").unwrap();
    assert_eq!(rs.scalar().unwrap(), &Value::Int(2));
    let rs = hana.execute_sql(&s, "SELECT COUNT(*) FROM mixed").unwrap();
    assert_eq!(rs.scalar().unwrap(), &Value::Int(3));
    // The cold partition was restored into IQ.
    assert_eq!(hana.iq().row_count("mixed__cold", u64::MAX - 1).unwrap(), 2);
}

#[test]
fn point_in_time_recovery_replays_wal() {
    let dir = std::env::temp_dir().join(format!("hana-pitr-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let wal = dir.join("platform.wal");
    let _ = std::fs::remove_file(&wal);
    let checkpoint_cid;
    {
        let hana = HanaPlatform::with_log_file(&wal).unwrap();
        let s = hana.connect("SYSTEM", "manager").unwrap();
        hana.execute_sql(&s, "CREATE COLUMN TABLE t (a INTEGER)")
            .unwrap();
        hana.execute_sql(&s, "INSERT INTO t VALUES (1)").unwrap();
        hana.execute_sql(&s, "INSERT INTO t VALUES (2)").unwrap();
        checkpoint_cid = hana.transaction_manager().last_commit_id();
        hana.execute_sql(&s, "INSERT INTO t VALUES (3)").unwrap();
        hana.load_rows(
            &s,
            "t",
            &[
                Row::from_values([Value::Int(4)]),
                Row::from_values([Value::Int(5)]),
            ],
        )
        .unwrap();
    }
    // Full recovery sees everything.
    let (full, replayed) = HanaPlatform::recover_replay(&wal, None).unwrap();
    assert!(replayed >= 5);
    let s = full.connect("SYSTEM", "manager").unwrap();
    let rs = full.execute_sql(&s, "SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(rs.scalar().unwrap(), &Value::Int(5));
    // Point-in-time recovery stops at the checkpoint.
    let (pit, _) = HanaPlatform::recover_replay(&wal, Some(checkpoint_cid)).unwrap();
    let s = pit.connect("SYSTEM", "manager").unwrap();
    let rs = pit.execute_sql(&s, "SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(rs.scalar().unwrap(), &Value::Int(2));
    std::fs::remove_file(&wal).ok();
}

#[test]
fn secondary_indexes_survive_checkpoint_and_restart() {
    let dir = std::env::temp_dir().join(format!("hana-ixdur-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    {
        let (hana, _) = HanaPlatform::open_durable(&dir).unwrap();
        let s = hana.connect("SYSTEM", "manager").unwrap();
        hana.execute_sql(&s, "CREATE COLUMN TABLE t (k INTEGER, v VARCHAR(10))")
            .unwrap();
        hana.execute_sql(&s, "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (2, 'c')")
            .unwrap();
        hana.execute_sql(&s, "CREATE INDEX ix_k ON t (k)").unwrap();
        // A checkpoint prunes sealed log segments, so the CREATE INDEX
        // record cannot be the only place the definition lives: the
        // checkpoint snapshot must carry it too.
        hana.write_checkpoint().unwrap();
        hana.execute_sql(&s, "INSERT INTO t VALUES (2, 'd')")
            .unwrap();
    }
    let (hana, _) = HanaPlatform::open_durable(&dir).unwrap();
    let s = hana.connect("SYSTEM", "manager").unwrap();
    let entry = hana.catalog().table("t").unwrap();
    let hana_query::TableSource::Column(t) = &entry.source else {
        panic!("expected a column table");
    };
    {
        let t = t.read();
        let ix = t.index("ix_k").expect("index survived restart");
        assert_eq!(ix.def().columns, vec!["k".to_string()]);
        assert_eq!(
            ix.entry_count(),
            4,
            "post-checkpoint insert replayed into the index"
        );
    }
    let rs = hana
        .execute_sql(&s, "SELECT COUNT(*) FROM t WHERE k = 2")
        .unwrap();
    assert_eq!(rs.scalar().unwrap(), &Value::Int(3));
    // DROP INDEX resolves the owning table without an ON clause.
    hana.execute_sql(&s, "DROP INDEX ix_k").unwrap();
    let entry = hana.catalog().table("t").unwrap();
    let hana_query::TableSource::Column(t) = &entry.source else {
        panic!("expected a column table");
    };
    assert!(t.read().index("ix_k").is_none());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explain_and_landscape() {
    let (hana, s) = platform();
    hana.execute_sql(&s, "CREATE COLUMN TABLE t (a INTEGER)")
        .unwrap();
    let rs = hana
        .execute_sql(&s, "EXPLAIN SELECT a FROM t WHERE a > 1")
        .unwrap();
    let text: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    assert!(text.iter().any(|l| l.contains("Column Scan")), "{text:?}");
    let info = hana.landscape_info();
    assert!(info.contains("t:COLUMN"), "{info}");
}

#[test]
fn merge_delta_via_sql() {
    let (hana, s) = platform();
    hana.execute_sql(&s, "CREATE COLUMN TABLE t (a INTEGER)")
        .unwrap();
    for i in 0..50 {
        hana.execute_sql(&s, &format!("INSERT INTO t VALUES ({i})"))
            .unwrap();
    }
    hana.execute_sql(&s, "MERGE DELTA OF t").unwrap();
    let rs = hana.execute_sql(&s, "SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(rs.scalar().unwrap(), &Value::Int(50));
    assert!(hana.execute_sql(&s, "MERGE DELTA OF missing").is_err());
}

#[test]
fn index_seek_explain_provenance_and_results() {
    let (hana, s) = platform();
    hana.execute_sql(
        &s,
        "CREATE COLUMN TABLE orders (k INTEGER, cat VARCHAR(8), v INTEGER)",
    )
    .unwrap();
    for i in 0..200 {
        hana.execute_sql(
            &s,
            &format!(
                "INSERT INTO orders VALUES ({}, 'c{}', {})",
                i % 20,
                i % 3,
                i
            ),
        )
        .unwrap();
    }
    hana.execute_sql(&s, "CREATE INDEX ix_orders ON orders (k, cat)")
        .unwrap();

    let explain = |sql: &str| -> String {
        let rs = hana.execute_sql(&s, sql).unwrap();
        rs.rows
            .iter()
            .map(|r| r[0].to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };
    // Insert-only and never merged, so no synopsis exists: the
    // equality seek is still chosen, and the estimate is the live row
    // count times the predicates' default selectivities.
    let text = explain("EXPLAIN SELECT v FROM orders WHERE k = 5 AND cat = 'c1'");
    assert!(text.contains("Index Seek orders.ix_orders"), "{text}");
    assert!(text.contains("prefix 2 cols"), "{text}");
    assert!(text.contains("heuristic"), "{text}");
    let text = explain("EXPLAIN SELECT v FROM orders WHERE k = 5");
    assert!(
        text.contains("Index Seek orders.ix_orders") && text.contains("est 10 rows [heuristic]"),
        "200 live rows x 0.05 for an equality:\n{text}"
    );
    let text = explain("EXPLAIN SELECT v FROM orders WHERE k = 5 AND v > 100");
    assert!(
        text.contains("1 residual") && text.contains("est 3 rows [heuristic]"),
        "200 x 0.05 x 0.3 for the residual range:\n{text}"
    );

    // MERGE DELTA refreshes persisted statistics; provenance flips.
    hana.execute_sql(&s, "MERGE DELTA OF orders").unwrap();
    let text = explain("EXPLAIN SELECT v FROM orders WHERE k = 5 AND cat = 'c1'");
    assert!(text.contains("Index Seek orders.ix_orders"), "{text}");
    assert!(text.contains("stats"), "{text}");

    // Residual predicate the key does not cover is re-checked per hit.
    let text = explain("EXPLAIN SELECT v FROM orders WHERE k = 5 AND v > 100");
    assert!(text.contains("Index Seek orders.ix_orders"), "{text}");
    assert!(text.contains("1 residual"), "{text}");

    // Seek answers match the unindexed scan answers exactly.
    let rs = hana
        .execute_sql(
            &s,
            "SELECT COUNT(*), SUM(v) FROM orders WHERE k = 5 AND v > 100",
        )
        .unwrap();
    let seek_row = rs.rows[0].clone();
    hana.execute_sql(&s, "DROP INDEX ix_orders").unwrap();
    let rs = hana
        .execute_sql(
            &s,
            "SELECT COUNT(*), SUM(v) FROM orders WHERE k = 5 AND v > 100",
        )
        .unwrap();
    assert_eq!(seek_row, rs.rows[0]);
}

/// Statements whose filters run in a `Filter` operator and whose
/// projections run in `Finish` return exactly what `evaluate` and
/// `finish_query` compute over the same rows — the oracle, applied here
/// by hand.
#[test]
fn executor_agrees_with_the_evaluate_oracle() {
    let (hana, s) = platform();
    hana.execute_sql(
        &s,
        "CREATE COLUMN TABLE t (k INTEGER, v INTEGER, tag VARCHAR(8))",
    )
    .unwrap();
    for i in 0..300 {
        let tag = if i % 7 == 0 { "NULL" } else { "'x'" };
        hana.execute_sql(
            &s,
            &format!("INSERT INTO t VALUES ({i}, {}, {tag})", i % 13),
        )
        .unwrap();
    }
    // Non-pushable filters land in PlanOp::Filter; expression
    // projections land in Finish.
    let queries = [
        "SELECT k FROM t WHERE k * 2 + 1 < 50 ORDER BY k",
        "SELECT k + v, v * 3 FROM t WHERE k - v > 100 ORDER BY k + v LIMIT 20",
        "SELECT DISTINCT v FROM t WHERE tag IS NOT NULL AND (v BETWEEN 2 AND 5 OR k < 10) ORDER BY v",
        "SELECT k FROM t WHERE tag LIKE 'x%' AND k IN (1, 7, 295, 296) ORDER BY k",
        "SELECT -k, v FROM t WHERE NOT (v = 3) AND k < 25 ORDER BY k DESC",
    ];
    let all = hana.execute_sql(&s, "SELECT k, v, tag FROM t").unwrap();
    for sql in queries {
        let executed = hana.execute_sql(&s, sql).unwrap();
        let hana_sql::Statement::Query(q) = hana_sql::parse_statement(sql).unwrap() else {
            panic!("not a query: {sql}")
        };
        let filter = q.filter.as_ref().expect("every probe has a WHERE");
        let filter = filter.resolve(&all.schema, &[]).unwrap();
        let kept: Vec<Row> = all
            .rows
            .iter()
            .filter(|r| hana_sql::evaluate_predicate(&filter, r).unwrap())
            .cloned()
            .collect();
        let (rows, schema) = hana_sql::finish::finish_query(kept, &all.schema, &q).unwrap();
        assert_eq!(executed.rows, rows, "{sql}");
        assert_eq!(executed.schema.to_string(), schema.to_string(), "{sql}");
    }
}
