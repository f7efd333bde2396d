//! The Figure 8 telecom scenario, end to end:
//!
//! * sensors stream network events into the ESP;
//! * raw events are archived to HDFS for offline MapReduce analysis;
//! * the ESP prefilters/pre-aggregates and forwards health aggregates
//!   into a HANA table;
//! * an outage pattern triggers alerts;
//! * reference data (cell → city) is pushed from HANA into the ESP and
//!   enriches an alert stream (ESP join);
//! * the live window joins with HANA tables in SQL (HANA join);
//! * a MapReduce job over the archive finds the worst cells, and the
//!   archive is replayed into a development engine to verify an improved
//!   outage pattern;
//! * k-means groups cells by load profile (the PAL side).
//!
//! Run with: `cargo run --example telecom_monitoring`

use std::sync::Arc;

use hana_data_platform::esp::{parse_archive_line, Sink};
use hana_data_platform::hadoop::{
    Hdfs, JobSpec, MapOutput, MrCluster, MrConfig, ReduceOutput, Reducer,
};
use hana_data_platform::pal::kmeans;
use hana_data_platform::platform::HanaPlatform;
use hana_data_platform::{DataType, Row, Schema, Value};

fn event(cell: &str, kind: &str, load: f64) -> Row {
    Row::from_values([Value::from(cell), Value::from(kind), Value::Double(load)])
}

fn main() {
    let hana = Arc::new(HanaPlatform::new_in_memory());
    let session = hana.connect("SYSTEM", "manager").unwrap();
    let hdfs = Arc::new(Hdfs::new(4));
    let mr = MrCluster::new(Arc::clone(&hdfs), MrConfig::default());

    // ---- HANA side: reference data and the landing table ----------
    hana.execute_sql(
        &session,
        "CREATE COLUMN TABLE cells (cell_id VARCHAR(8), city VARCHAR(20))",
    )
    .unwrap();
    for (c, city) in [("c1", "Walldorf"), ("c2", "Dresden"), ("c3", "Berlin")] {
        hana.execute_sql(
            &session,
            &format!("INSERT INTO cells VALUES ('{c}', '{city}')"),
        )
        .unwrap();
    }
    hana.execute_sql(
        &session,
        "CREATE COLUMN TABLE network_health (cell VARCHAR(8), avg_load DOUBLE, events BIGINT)",
    )
    .unwrap();

    // ---- ESP deployment --------------------------------------------
    let esp = hana.esp();
    esp.deploy(
        "CREATE INPUT STREAM network_events SCHEMA \
             (cell VARCHAR(8), kind VARCHAR(10), load DOUBLE);\n\
         CREATE OUTPUT WINDOW cell_health AS \
             SELECT cell, AVG(load) AS avg_load, COUNT(*) AS events \
             FROM network_events WHERE kind = 'status' GROUP BY cell \
             KEEP 600 SECONDS",
    )
    .unwrap();
    // ESP join (use case 2): push the reference, then deploy the
    // enriched alert stream.
    hana.push_reference_to_esp(&session, "cells", "cells")
        .unwrap();
    esp.deploy(
        "CREATE OUTPUT STREAM located_alerts AS \
             SELECT e.cell, r.city, e.load FROM network_events e \
             JOIN cells r ON e.cell = r.cell_id WHERE e.load > 95",
    )
    .unwrap();
    // Adapters: archive raw events to HDFS, forward aggregates to HANA.
    esp.attach_sink(
        "network_events",
        Sink::Hdfs {
            hdfs: Arc::clone(&hdfs),
            path: "/archive/network/day1".into(),
        },
    )
    .unwrap();
    let sink = hana.table_sink(&session, "network_health").unwrap();
    esp.attach_sink("cell_health", sink).unwrap();
    // Outage pattern: overload followed by an outage within 5 seconds.
    esp.define_pattern(
        "outage",
        "network_events",
        &["load > 95", "kind = 'outage'"],
        5,
    )
    .unwrap();
    // HANA join (use case 3): expose the live window to SQL.
    hana.expose_esp_window(&session, "cell_health").unwrap();

    // ---- live traffic ----------------------------------------------
    for i in 0..3000i64 {
        let cell = format!("c{}", i % 3 + 1);
        // c3 degrades over time.
        let load = match cell.as_str() {
            "c3" => 60.0 + (i as f64 / 40.0),
            "c2" => 55.0 + (i % 7) as f64,
            _ => 35.0 + (i % 5) as f64,
        };
        esp.send(
            "network_events",
            i * 250_000,
            event(&cell, "status", load.min(99.0)),
        )
        .unwrap();
        if i == 2800 {
            esp.send(
                "network_events",
                i * 250_000 + 1,
                event("c3", "outage", 0.0),
            )
            .unwrap();
        }
    }

    // HANA join: live window + reference table in one SQL statement.
    let rs = hana
        .execute_sql(
            &session,
            "SELECT c.city, w.avg_load, w.events FROM cell_health() w \
             JOIN cells c ON w.cell = c.cell_id ORDER BY w.avg_load DESC",
        )
        .unwrap();
    println!("Live network health (window joined with HANA reference):\n{rs}\n");

    // Alerts and detected patterns.
    let matches = esp.take_alerts("outage");
    println!(
        "Outage pattern fired {} time(s); operations staff alerted.\n",
        matches.len()
    );

    // Forward the aggregate window into the HANA table.
    esp.flush_window("cell_health").unwrap();
    let rs = hana
        .execute_sql(&session, "SELECT COUNT(*) FROM network_health")
        .unwrap();
    println!(
        "Aggregates forwarded into HANA: {} row(s)\n",
        rs.scalar().unwrap()
    );

    // ---- offline analysis on the archive (Hadoop) -------------------
    struct MaxLoad;
    impl Reducer for MaxLoad {
        fn reduce(
            &self,
            key: &str,
            values: &[&str],
            out: &mut ReduceOutput,
        ) -> hana_data_platform::Result<()> {
            let max = values
                .iter()
                .filter_map(|v| v.parse::<f64>().ok())
                .fold(f64::MIN, f64::max);
            out.push(format!("{key},{max:.1}"));
            Ok(())
        }
    }
    let mapper = |_k: &str, line: &str, out: &mut MapOutput| {
        let parts: Vec<&str> = line.split(',').collect();
        if parts.len() == 3 && parts[1] == "status" {
            out.emit(parts[0], parts[2]);
        }
    };
    let stats = mr
        .run_job(
            &JobSpec {
                name: "peak-load-per-cell".into(),
                inputs: vec!["/archive/network/day1".into()],
                output_dir: "/analysis/peaks".into(),
                num_reducers: 2,
            },
            Arc::new(mapper),
            Some(Arc::new(MaxLoad)),
        )
        .unwrap();
    let mut peaks = mr.read_output("/analysis/peaks").unwrap();
    peaks.sort();
    println!(
        "MapReduce archive analysis ({} map tasks, {} records; modelled start-up {:.1}ms, \
         measured {:.1}ms): peak load per cell = {:?}\n",
        stats.map_tasks,
        stats.input_records,
        stats.modelled.as_secs_f64() * 1e3,
        stats.elapsed.as_secs_f64() * 1e3,
        peaks
    );

    // ---- replay the archive to verify an improved pattern -----------
    let dev = hana_data_platform::esp::EspEngine::new();
    dev.deploy(
        "CREATE INPUT STREAM network_events SCHEMA \
             (cell VARCHAR(8), kind VARCHAR(10), load DOUBLE)",
    )
    .unwrap();
    // The improved pattern derived from the offline analysis: sustained
    // high load (two overloads) before the outage.
    dev.define_pattern(
        "outage_v2",
        "network_events",
        &["load > 90", "load > 90", "kind = 'outage'"],
        30,
    )
    .unwrap();
    let schema = Schema::of(&[
        ("cell", DataType::Varchar),
        ("kind", DataType::Varchar),
        ("load", DataType::Double),
    ]);
    let ts = std::cell::Cell::new(0i64);
    let replayed = dev
        .replay_hdfs(&hdfs, "/archive/network/day1", "network_events", |line| {
            ts.set(ts.get() + 250_000);
            parse_archive_line(line, &schema).map(|r| (ts.get(), r))
        })
        .unwrap();
    let v2 = dev.take_alerts("outage_v2");
    println!(
        "Replayed {replayed} archived events into the development ESP; \
         improved pattern fired {} time(s) -> {}.\n",
        v2.len(),
        if v2.is_empty() {
            "needs more work"
        } else {
            "promote to production"
        }
    );

    // ---- PAL: cluster cells by load profile -------------------------
    let profiles: Vec<Vec<f64>> = peaks
        .iter()
        .filter_map(|l| l.split(',').nth(1)?.parse::<f64>().ok())
        .map(|p| vec![p])
        .collect();
    let model = kmeans(&profiles, 2, 20).unwrap();
    println!(
        "k-means over peak-load profiles: assignments {:?}, centroids {:?}",
        model.assignments, model.centroids
    );
}
