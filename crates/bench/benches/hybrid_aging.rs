//! E7 — hybrid tables: aging cost and the query-performance trade-off
//! between all-hot, hybrid (union plan) and all-cold placements
//! (medians of 15 runs).

use std::hint::black_box;

use hana_bench::median_nanos;
use hana_core::HanaPlatform;
use hana_types::{Row, Value};

const ROWS: i64 = 50_000;

fn platform_with_hybrid(aged_fraction: f64) -> (HanaPlatform, hana_core::Session) {
    let hana = HanaPlatform::new_in_memory();
    let s = hana.connect("SYSTEM", "manager").unwrap();
    hana.execute_sql(
        &s,
        "CREATE COLUMN TABLE sales (id INTEGER, year INTEGER, amount DOUBLE, aged BOOLEAN) \
         USING HYBRID EXTENDED STORAGE AGING ON aged",
    )
    .unwrap();
    let cutoff = (ROWS as f64 * aged_fraction) as i64;
    let rows: Vec<Row> = (0..ROWS)
        .map(|i| {
            Row::from_values([
                Value::Int(i),
                Value::Int(2010 + (i % 10)),
                Value::Double((i % 500) as f64),
                Value::Bool(i < cutoff),
            ])
        })
        .collect();
    hana.load_rows(&s, "sales", &rows).unwrap();
    hana.execute_sql(&s, "MERGE DELTA OF sales").unwrap();
    (hana, s)
}

fn main() {
    let report = |name: &str, nanos: u128| println!("{name:<28}: {:>8.3} ms", nanos as f64 / 1e6);

    // Load + merge + age, 80 % of the rows flagged.
    report(
        "load_and_age_80pct",
        median_nanos(|| {
            let (hana, s) = platform_with_hybrid(0.8);
            let moved = hana.run_aging(&s, "sales").unwrap();
            assert_eq!(moved as i64, ROWS * 8 / 10);
        }),
    );

    // Query cost by placement (same data, different hot/cold split).
    let q = "SELECT year, SUM(amount) FROM sales WHERE year >= 2015 GROUP BY year";
    for (label, aged) in [("all_hot", 0.0), ("mixed_50_50", 0.5), ("mostly_cold", 0.9)] {
        let (hana, s) = platform_with_hybrid(aged);
        hana.run_aging(&s, "sales").unwrap();
        report(
            &format!("aggregate_query/{label}"),
            median_nanos(|| {
                let rs = hana.execute_sql(&s, q).unwrap();
                assert_eq!(rs.len(), 5);
                black_box(rs);
            }),
        );
    }
}
