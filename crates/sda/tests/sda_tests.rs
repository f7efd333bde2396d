//! Integration tests: adapters, virtual tables/functions, and the
//! remote materialization cache (Figures 12/13 behaviour).

use std::sync::Arc;
use std::time::Duration;

use hana_hadoop::{Hdfs, Hive, MapOutput, MrCluster, MrConfig, MrFunction, MrFunctionRegistry};
use hana_iq::IqEngine;
use hana_sda::{
    CacheOutcome, HadoopMrAdapter, HiveOdbcAdapter, IqAdapter, RemoteCacheConfig, RemoteContext,
    SdaAdapter, SdaRegistry,
};
use hana_sql::{parse_statement, Statement};
use hana_types::{DataType, Row, Schema, Value};

fn fast_cluster() -> Arc<MrCluster> {
    let cfg = MrConfig {
        worker_slots: 4,
        job_startup: Duration::from_micros(500),
        task_startup: Duration::from_micros(50),
    };
    Arc::new(MrCluster::new(Arc::new(Hdfs::new(4)), cfg))
}

fn hive_with_data() -> Arc<Hive> {
    let hive = Arc::new(Hive::new(fast_cluster()));
    hive.create_table(
        "product",
        Schema::of(&[
            ("product_id", DataType::Int),
            ("product_name", DataType::Varchar),
            ("brand_name", DataType::Varchar),
            ("price", DataType::Double),
        ]),
    )
    .unwrap();
    let rows: Vec<Row> = (0..200)
        .map(|i| {
            Row::from_values([
                Value::Int(i),
                Value::from(format!("Product {i}")),
                Value::from(if i % 3 == 0 { "Acme" } else { "Globex" }),
                Value::Double(9.99 + i as f64),
            ])
        })
        .collect();
    hive.load("product", &rows).unwrap();
    hive
}

fn query(sql: &str) -> hana_sql::Query {
    let Statement::Query(q) = parse_statement(sql).unwrap() else {
        panic!()
    };
    q
}

#[test]
fn virtual_table_workflow_like_paper() {
    // §4.2: CREATE REMOTE SOURCE + CREATE VIRTUAL TABLE + SELECT.
    let hive = hive_with_data();
    let registry = SdaRegistry::new();
    let adapter: Arc<dyn SdaAdapter> =
        Arc::new(HiveOdbcAdapter::new(Arc::clone(&hive), "DSN=hive1"));
    registry
        .create_remote_source("HIVE1", adapter, "DSN=hive1", Some("user=dfuser"))
        .unwrap();
    registry
        .create_virtual_table("VIRTUAL_PRODUCT", "HIVE1", "product")
        .unwrap();
    let vt = registry.virtual_table("virtual_product").unwrap();
    assert_eq!(vt.remote_table, "product");
    assert_eq!(vt.schema.len(), 4);
    // Query through the source.
    let (rs, outcome) = registry
        .execute_remote(
            "hive1",
            &query("SELECT product_name, brand_name FROM product WHERE brand_name = 'Acme'"),
            &RemoteContext::snapshot(1),
        )
        .unwrap();
    assert_eq!(outcome, CacheOutcome::Bypass, "no hint, no cache");
    assert_eq!(rs.len(), 67);
    // Unknown source / duplicate registrations error.
    assert!(registry.source("nope").is_err());
    assert!(registry
        .create_virtual_table("VIRTUAL_PRODUCT", "HIVE1", "product")
        .is_err());
}

#[test]
fn remote_cache_policies() {
    let hive = hive_with_data();
    let registry = SdaRegistry::new();
    let adapter: Arc<dyn SdaAdapter> =
        Arc::new(HiveOdbcAdapter::new(Arc::clone(&hive), "DSN=hive1"));
    registry
        .create_remote_source("hive1", adapter, "DSN=hive1", None)
        .unwrap();

    let q = query(
        "SELECT product_id, price FROM product WHERE brand_name = 'Acme' \
         WITH HINT (USE_REMOTE_CACHE)",
    );

    // Disabled by default: hint alone does nothing.
    let (_, outcome) = registry
        .execute_remote("hive1", &q, &RemoteContext::snapshot(1))
        .unwrap();
    assert_eq!(outcome, CacheOutcome::Bypass);

    registry.set_cache_config(
        RemoteCacheConfig::default()
            .with_remote_cache(true)
            .with_validity(10_000),
    );

    // First execution materializes; second hits.
    let (rs1, o1) = registry
        .execute_remote("hive1", &q, &RemoteContext::snapshot(1))
        .unwrap();
    assert_eq!(o1, CacheOutcome::Materialized);
    let jobs_after_mat = hive.cluster().counters().0;
    let (rs2, o2) = registry
        .execute_remote("hive1", &q, &RemoteContext::snapshot(1))
        .unwrap();
    assert_eq!(o2, CacheOutcome::Hit);
    assert_eq!(rs1.rows.len(), rs2.rows.len());
    assert_eq!(
        hive.cluster().counters().0,
        jobs_after_mat,
        "cache hit must not run any MR job (fetch task only)"
    );
    assert_eq!(registry.cache.stats(), (1, 1));

    // Queries WITHOUT predicates are never materialized.
    let q_nopred = query("SELECT product_id FROM product WITH HINT (USE_REMOTE_CACHE)");
    let (_, o3) = registry
        .execute_remote("hive1", &q_nopred, &RemoteContext::snapshot(1))
        .unwrap();
    assert_eq!(o3, CacheOutcome::Bypass);

    // No hint -> normal execution even while enabled.
    let q_nohint = query("SELECT product_id FROM product WHERE price > 100");
    let (_, o4) = registry
        .execute_remote("hive1", &q_nohint, &RemoteContext::snapshot(1))
        .unwrap();
    assert_eq!(o4, CacheOutcome::Bypass);
}

#[test]
fn remote_cache_validity_expires() {
    let hive = hive_with_data();
    let registry = SdaRegistry::new();
    let adapter: Arc<dyn SdaAdapter> =
        Arc::new(HiveOdbcAdapter::new(Arc::clone(&hive), "DSN=hive1"));
    registry
        .create_remote_source("hive1", adapter, "DSN=hive1", None)
        .unwrap();
    registry.set_cache_config(
        RemoteCacheConfig::default()
            .with_remote_cache(true)
            .with_validity(2), // expires after 2 ticks
    );
    let q = query("SELECT product_id FROM product WHERE price > 100 WITH HINT (USE_REMOTE_CACHE)");
    let (_, o1) = registry
        .execute_remote("hive1", &q, &RemoteContext::snapshot(1))
        .unwrap();
    assert_eq!(o1, CacheOutcome::Materialized);
    // Advance the remote clock past the validity window by loading data.
    for _ in 0..4 {
        hive.load(
            "product",
            &[Row::from_values([
                Value::Int(9_000),
                Value::from("New"),
                Value::from("Acme"),
                Value::Double(500.0),
            ])],
        )
        .unwrap();
    }
    let (rs, o2) = registry
        .execute_remote("hive1", &q, &RemoteContext::snapshot(1))
        .unwrap();
    assert_eq!(o2, CacheOutcome::Refreshed, "stale entry re-materializes");
    // The refreshed copy sees the newly loaded rows.
    assert!(rs.rows.iter().any(|r| r[0] == Value::Int(9_000)));
}

#[test]
fn hadoop_adapter_invokes_driver_class() {
    let cluster = fast_cluster();
    let registry_mr = Arc::new(MrFunctionRegistry::new(Arc::clone(&cluster)));
    cluster
        .hdfs()
        .append_lines("/sensors/day1", &["P-1,95.0", "P-2,99.5"])
        .unwrap();
    let mapper = |_k: &str, line: &str, out: &mut MapOutput| {
        if let Some((id, p)) = line.split_once(',') {
            out.emit(
                "",
                hana_hadoop::output_line(&[id.to_string(), p.to_string()]),
            );
        }
    };
    registry_mr.register(
        "com.customer.hadoop.SensorMRDriver",
        MrFunction {
            inputs: vec!["/sensors".into()],
            mapper: Arc::new(mapper),
            reducer: None,
            num_reducers: 0,
            output_schema: Schema::of(&[
                ("equip_id", DataType::Varchar),
                ("pressure", DataType::Double),
            ]),
        },
    );

    let sda = SdaRegistry::new();
    let adapter: Arc<dyn SdaAdapter> = Arc::new(HadoopMrAdapter::new(
        registry_mr,
        "webhdfs=http://mrserver1:50070;webhcatalog=http://mrserver1:50111",
    ));
    sda.create_remote_source("MRSERVER", adapter, "webhdfs=http://mrserver1:50070", None)
        .unwrap();
    sda.create_virtual_function(
        "PLANT100_SENSOR_RECORDS",
        "mrserver",
        "hana.mapred.driver.class = com.customer.hadoop.SensorMRDriver; \
         hana.mapred.jobFiles = job.jar, library.jar",
        Schema::of(&[
            ("equip_id", DataType::Varchar),
            ("pressure", DataType::Double),
        ]),
    )
    .unwrap();
    let rs = sda
        .invoke_virtual_function("plant100_sensor_records")
        .unwrap();
    assert_eq!(rs.len(), 2);
    assert_eq!(rs.schema.index_of("pressure"), Some(1));
    // Missing driver class in configuration errors.
    sda.create_virtual_function(
        "BROKEN",
        "mrserver",
        "no.driver.class=here",
        Schema::of(&[("x", DataType::Int)]),
    )
    .unwrap();
    assert!(sda.invoke_virtual_function("broken").is_err());
}

#[test]
fn iq_adapter_ships_plans() {
    let iq = Arc::new(IqEngine::new("iq", 128).unwrap());
    iq.create_table(
        "sales",
        Schema::of(&[("region", DataType::Varchar), ("amount", DataType::Double)]),
    )
    .unwrap();
    let rows: Vec<Row> = (0..1000)
        .map(|i| {
            Row::from_values([
                Value::from(if i % 2 == 0 { "EMEA" } else { "APJ" }),
                Value::Double(i as f64),
            ])
        })
        .collect();
    iq.direct_load("sales", &rows, 1).unwrap();
    let adapter = IqAdapter::new(Arc::clone(&iq));
    // Shipped group-by with predicate + HAVING + ORDER BY epilogue.
    let rs = adapter
        .execute(
            &query(
                "SELECT region, SUM(amount) AS total, COUNT(*) FROM sales \
                 WHERE amount >= 500 GROUP BY region HAVING COUNT(*) > 10 \
                 ORDER BY total DESC",
            ),
            &RemoteContext::snapshot(1),
        )
        .unwrap();
    assert_eq!(rs.len(), 2);
    assert_eq!(rs.schema.index_of("total"), Some(1));
    assert!(rs.rows[0][1].as_f64().unwrap() > rs.rows[1][1].as_f64().unwrap());
    // Unsupported shapes are rejected, not silently mis-planned.
    assert!(adapter
        .execute(
            &query("SELECT region FROM sales WHERE amount + 1 = 2"),
            &RemoteContext::snapshot(1)
        )
        .is_err());
}

#[test]
fn iq_adapter_sorts_and_limits_what_the_engine_returns() {
    let iq = Arc::new(IqEngine::new("iq", 128).unwrap());
    iq.create_table(
        "sales",
        Schema::of(&[("region", DataType::Varchar), ("amount", DataType::Double)]),
    )
    .unwrap();
    let rows: Vec<Row> = (0..100)
        .map(|i| Row::from_values([Value::from("EMEA"), Value::Double(((i * 37) % 100) as f64)]))
        .collect();
    iq.direct_load("sales", &rows, 1).unwrap();
    let adapter = IqAdapter::new(Arc::clone(&iq));
    let rs = adapter
        .execute(
            &query("SELECT amount FROM sales WHERE amount < 50 ORDER BY amount DESC LIMIT 3"),
            &RemoteContext::snapshot(1),
        )
        .unwrap();
    let amounts: Vec<f64> = rs.rows.iter().map(|r| r[0].as_f64().unwrap()).collect();
    assert_eq!(amounts, [49.0, 48.0, 47.0]);
}

#[test]
fn capability_gates_shape_shipping() {
    let hive = hive_with_data();
    let adapter = HiveOdbcAdapter::new(hive, "DSN=hive1");
    let caps = adapter.capabilities();
    assert!(caps.supports_query(&query(
        "SELECT brand_name, COUNT(*) FROM product GROUP BY brand_name"
    )));
    assert!(!caps.supports_query(&query(
        "SELECT p.product_id FROM product p LEFT OUTER JOIN product q ON p.product_id = q.product_id"
    )));
    assert!(
        !caps.cap_transactions,
        "Hive has no transactional guarantees"
    );
}
