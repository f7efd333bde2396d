//! End-to-end streaming ingest: ESP events through an
//! `IngestPipeline` into a partitioned table must equal a clean bulk
//! load of the same rows — under both partitioning schemes, any
//! partition count, and injected chunk-level retries — and the
//! `CREATE STREAM SINK` SQL surface must manage pipelines end to end.

use std::sync::Arc;

use proptest::prelude::*;

use hana_data_platform::dist::FaultPlan;
use hana_data_platform::ingest::{IngestConfig, IngestRuntime};
use hana_data_platform::platform::HanaPlatform;
use hana_data_platform::query::TableSource;
use hana_data_platform::{Row, Value};

fn dist_links(hana: &HanaPlatform, table: &str) -> Vec<Arc<hana_data_platform::dist::Link>> {
    let entry = hana.catalog().table(table).unwrap();
    let TableSource::Distributed(dt) = &entry.source else {
        panic!("{table} is not distributed");
    };
    dt.links().to_vec()
}

#[test]
fn a_retried_epoch_with_malformed_rows_is_an_error_not_a_dedup() {
    let hana = HanaPlatform::new_in_memory();
    let s = hana.connect("SYSTEM", "manager").unwrap();
    hana.execute_sql(
        &s,
        "CREATE COLUMN TABLE readings (k INTEGER, v VARCHAR(16))",
    )
    .unwrap();
    let good = [Row::from_values([Value::Int(1), Value::from("a")])];
    hana.commit_ingest_batch(&s, "feed", 1, "readings", &good)
        .unwrap();
    // The schema check precedes the ledger lookup.
    let bad = [Row::from_values([Value::from("not an int"), Value::Int(2)])];
    assert!(hana
        .commit_ingest_batch(&s, "feed", 1, "readings", &bad)
        .is_err());
}

#[test]
fn create_stream_sink_sql_roundtrip() {
    let hana = Arc::new(HanaPlatform::new_in_memory());
    let s = hana.connect("SYSTEM", "manager").unwrap();
    hana.execute_sql(
        &s,
        "CREATE COLUMN TABLE readings (k INTEGER, v VARCHAR(16)) \
         PARTITION BY HASH(k) PARTITIONS 2",
    )
    .unwrap();
    hana.esp()
        .deploy("CREATE INPUT STREAM events SCHEMA (k INTEGER, v VARCHAR(16));")
        .unwrap();

    // Without a runtime installed, the statement is rejected (the SQL
    // surface exists, the driver is the ingest crate's job).
    let err = hana
        .execute_sql(&s, "CREATE STREAM SINK feed ON events INTO readings")
        .unwrap_err();
    assert!(err.to_string().contains("ingest driver"), "{err}");

    let rt = IngestRuntime::install_with(
        &hana,
        &s,
        IngestConfig::default()
            .with_batch_rows(8)
            .with_max_inflight(2),
    );
    hana.execute_sql(&s, "CREATE STREAM SINK feed ON events INTO readings")
        .unwrap();
    assert_eq!(rt.pipeline_names(), vec!["feed".to_string()]);
    // Duplicate names and missing sources are rejected.
    assert!(hana
        .execute_sql(&s, "CREATE STREAM SINK feed ON events INTO readings")
        .is_err());
    assert!(hana
        .execute_sql(&s, "CREATE STREAM SINK other ON nope INTO readings")
        .is_err());

    for i in 0..40i64 {
        hana.esp()
            .send(
                "events",
                i,
                Row::from_values([Value::Int(i), Value::from(format!("v{i}").as_str())]),
            )
            .unwrap();
    }
    rt.pipeline("feed").unwrap().flush().unwrap();
    let rs = hana
        .execute_sql(&s, "SELECT COUNT(*) FROM readings")
        .unwrap();
    assert_eq!(rs.scalar().unwrap(), &Value::Int(40));

    hana.execute_sql(&s, "DROP STREAM SINK feed").unwrap();
    assert!(rt.pipeline_names().is_empty());
    // Detached: further events flow into the void (no sink), and
    // dropping again is an error.
    assert!(hana.execute_sql(&s, "DROP STREAM SINK feed").is_err());
}

proptest! {
    /// Streamed ingest (micro-batched, epoch-numbered, chunk-retried)
    /// is byte-identical to a bulk load of the same rows, across both
    /// partitioning schemes and 1–4 partitions.
    #[test]
    fn streamed_ingest_equals_bulk_load(
        parts in 1usize..5,
        hash_scheme in any::<bool>(),
        seed in any::<u64>(),
        n in 1usize..300,
        batch in 1usize..33,
        flaky in any::<bool>(),
    ) {
        let hana = Arc::new(HanaPlatform::new_in_memory());
        let s = hana.connect("SYSTEM", "manager").unwrap();
        let clause = if hash_scheme {
            format!("PARTITION BY HASH(k) PARTITIONS {parts}")
        } else {
            let splits: Vec<String> =
                (1..parts.max(2)).map(|i| (i as i64 * 25).to_string()).collect();
            format!("PARTITION BY RANGE(k) SPLIT AT ({})", splits.join(", "))
        };
        hana.execute_sql(
            &s,
            &format!("CREATE COLUMN TABLE streamed (k INTEGER, v VARCHAR(16)) {clause}"),
        )
        .unwrap();
        hana.execute_sql(&s, "CREATE COLUMN TABLE bulk (k INTEGER, v VARCHAR(16))")
            .unwrap();
        hana.esp()
            .deploy("CREATE INPUT STREAM events SCHEMA (k INTEGER, v VARCHAR(16));")
            .unwrap();
        if flaky {
            // Chunk-level retries inside the repartition exchange must
            // not change the outcome.
            for link in dist_links(&hana, "streamed") {
                link.set_fault(Some(FaultPlan::flaky(seed, 0.3)));
            }
        }

        let mut x = seed | 1;
        let mut next = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as i64
        };
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                let k = next().rem_euclid(100);
                Row::from_values([Value::Int(k), Value::from(format!("r{i}").as_str())])
            })
            .collect();

        let rt = IngestRuntime::install_with(
            &hana,
            &s,
            IngestConfig::default().with_batch_rows(batch).with_max_inflight(2),
        );
        rt.attach("feed", "events", "streamed").unwrap();
        for (i, r) in rows.iter().enumerate() {
            hana.esp().send("events", i as i64, r.clone()).unwrap();
        }
        let stats = rt.detach("feed").unwrap(); // drains + stops
        prop_assert_eq!(stats.rows_committed, n as u64);
        // Heal the links so the verification queries are not the ones
        // fighting the fault injection.
        for link in dist_links(&hana, "streamed") {
            link.set_fault(None);
        }

        hana.load_rows(&s, "bulk", &rows).unwrap();
        let q = "SELECT k, v FROM {} ORDER BY k, v";
        let streamed = hana.execute_sql(&s, &q.replace("{}", "streamed")).unwrap();
        let bulk = hana.execute_sql(&s, &q.replace("{}", "bulk")).unwrap();
        prop_assert_eq!(&streamed.rows, &bulk.rows);
    }
}
