//! E8 — ESP ingest throughput for the §3.2 use cases: plain window
//! retention, prefilter + aggregate, ESP join enrichment, and pattern
//! matching (medians of 15 runs of 20 000 events).

use std::hint::black_box;

use hana_bench::median_nanos;
use hana_esp::EspEngine;
use hana_types::{DataType, ResultSet, Row, Schema, Value};

const EVENTS: usize = 20_000;

fn engine() -> EspEngine {
    let esp = EspEngine::new();
    esp.deploy(
        "CREATE INPUT STREAM events SCHEMA (cell VARCHAR(8), kind VARCHAR(8), load DOUBLE);\n\
         CREATE OUTPUT WINDOW health AS \
             SELECT cell, AVG(load) AS avg_load, COUNT(*) AS n \
             FROM events WHERE kind = 'status' GROUP BY cell KEEP 5000 ROWS",
    )
    .unwrap();
    esp
}

fn ev(i: usize) -> Row {
    Row::from_values([
        Value::from(["c1", "c2", "c3", "c4"][i % 4]),
        Value::from(if i.is_multiple_of(5) {
            "billing"
        } else {
            "status"
        }),
        Value::Double((i % 100) as f64),
    ])
}

fn main() {
    let report = |name: &str, nanos: u128| {
        println!(
            "{name:<24}: {:>8.3} ms  ({:.2} M events/s)",
            nanos as f64 / 1e6,
            EVENTS as f64 * 1e3 / nanos as f64
        );
    };

    report(
        "prefilter_window_ingest",
        median_nanos(|| {
            let esp = engine();
            for i in 0..EVENTS {
                esp.send("events", i as i64, ev(i)).unwrap();
            }
            black_box(esp.window_snapshot("health").unwrap());
        }),
    );

    let esp = engine();
    esp.register_reference(
        "cells",
        ResultSet::new(
            Schema::of(&[("cell_id", DataType::Varchar), ("city", DataType::Varchar)]),
            (0..4)
                .map(|i| {
                    Row::from_values([
                        Value::from(format!("c{}", i + 1)),
                        Value::from(format!("city-{i}")),
                    ])
                })
                .collect(),
        ),
    );
    esp.deploy(
        "CREATE OUTPUT STREAM located AS \
         SELECT e.cell, r.city, e.load FROM events e JOIN cells r ON e.cell = r.cell_id \
         WHERE e.load > 50",
    )
    .unwrap();
    report(
        "esp_join_enrichment",
        median_nanos(|| {
            for i in 0..EVENTS {
                esp.send("events", i as i64, ev(i)).unwrap();
            }
        }),
    );

    let esp = engine();
    esp.define_pattern(
        "spike",
        "events",
        &["load > 90", "load > 95", "kind = 'billing'"],
        60,
    )
    .unwrap();
    report(
        "pattern_matching",
        median_nanos(|| {
            for i in 0..EVENTS {
                esp.send("events", i as i64 * 1000, ev(i)).unwrap();
            }
            black_box(esp.take_alerts("spike"));
        }),
    );
}
