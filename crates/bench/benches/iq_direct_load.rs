//! E9 — extended storage: direct-load throughput ("Big Data scenarios
//! with high ingestion rate requirements", §3.1) and the zone-map /
//! bitmap-index pruning ablation (medians of 15 runs).

use std::hint::black_box;

use hana_bench::median_nanos;
use hana_columnar::ColumnPredicate;
use hana_iq::IqEngine;
use hana_types::{DataType, Row, Schema, Value};

const ROWS: usize = 100_000;

fn rows(n: usize) -> Vec<Row> {
    (0..n)
        .map(|i| {
            Row::from_values([
                Value::Int(i as i64),
                Value::from(["sensor", "billing", "gps"][i % 3]),
                Value::Double((i % 1_000) as f64),
            ])
        })
        .collect()
}

fn schema() -> Schema {
    Schema::of(&[
        ("id", DataType::Int),
        ("kind", DataType::Varchar),
        ("v", DataType::Double),
    ])
}

fn main() {
    let report = |name: &str, nanos: u128| println!("{name:<24}: {:>8.3} ms", nanos as f64 / 1e6);

    let data = rows(ROWS);
    report(
        "bulk_load_100k",
        median_nanos(|| {
            let iq = IqEngine::new("iq-load", 512).unwrap();
            iq.create_table("t", schema()).unwrap();
            iq.direct_load("t", &data, 1).unwrap();
        }),
    );

    let iq = IqEngine::new("iq-prune", 4096).unwrap();
    iq.create_table("t", schema()).unwrap();
    iq.direct_load("t", &data, 1).unwrap();
    let scan = |column: &str, pred: ColumnPredicate, project: &str| {
        median_nanos(|| {
            black_box(
                iq.scan(
                    "t",
                    &[(column.to_string(), pred.clone())],
                    Some(&[project.to_string()]),
                    1,
                )
                .unwrap(),
            );
        })
    };
    // Zone maps prune: the id column is load-ordered, so a narrow range
    // touches one chunk in ~25.
    report(
        "range_scan_prunable",
        scan(
            "id",
            ColumnPredicate::Between(Value::Int(1_000), Value::Int(1_100)),
            "id",
        ),
    );
    // The same selectivity on an unordered column defeats zone maps.
    report(
        "range_scan_unprunable",
        scan(
            "v",
            ColumnPredicate::Between(Value::Double(10.0), Value::Double(11.0)),
            "id",
        ),
    );
    // Equality on a 3-value column: served by the FP-style bitmap index.
    report(
        "bitmap_index_equality",
        scan("kind", ColumnPredicate::Eq(Value::from("gps")), "kind"),
    );

    let (hits, misses) = iq.cache().stats();
    let pruned = iq
        .stats
        .chunks_pruned
        .load(std::sync::atomic::Ordering::Relaxed);
    println!("buffer cache: {hits} hits / {misses} misses; chunks pruned: {pruned}");
}
