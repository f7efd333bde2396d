//! E1 / Figure 2 — the time-series storage claim: "compress the data by
//! more than a factor of 10 compared to row-oriented storage and more
//! than a factor of 3 compared to columnar storage".
//!
//! Prints the measured compression factors of the three layouts, then
//! ingest and scan throughput of the time-series engine (medians of 15
//! runs).

use std::hint::black_box;

use hana_bench::median_nanos;
use hana_columnar::{Compensation, TimeSeriesTable};

const POINTS: usize = 100_000;

/// Plateau-heavy sensor signal with occasional gaps (energy-meter style).
fn meter_value(i: usize) -> Option<f64> {
    if i.is_multiple_of(97) {
        None
    } else {
        Some(100.0 + (i / 50) as f64 * 0.5 + ((i / 200) % 3) as f64 * 0.1)
    }
}

fn build(points: usize) -> TimeSeriesTable {
    let mut t =
        TimeSeriesTable::new("meters", 0, 60_000_000, &["power"], Compensation::Linear).unwrap();
    for i in 0..points {
        t.push(&[meter_value(i)]).unwrap();
    }
    t
}

fn report_compression() {
    let t = build(POINTS);
    let (ts, row, col) = (
        t.compressed_bytes(),
        t.row_layout_bytes(),
        t.plain_columnar_bytes(),
    );
    println!("--- Figure 2 reproduction ({POINTS} sensor readings) ---");
    println!("row-oriented : {row:>10} bytes");
    println!("plain columnar: {col:>9} bytes");
    println!("time series  : {ts:>10} bytes");
    println!(
        "factors      : {:.1}x vs rows (paper >10x), {:.1}x vs columnar (paper >3x)",
        row as f64 / ts as f64,
        col as f64 / ts as f64
    );
    assert!(row as f64 / ts as f64 > 10.0);
    assert!(col as f64 / ts as f64 > 3.0);
}

fn main() {
    report_compression();

    let report = |name: &str, nanos: u128| {
        println!(
            "{name:<18}: {:>8.3} ms  ({:.1} M points/s)",
            nanos as f64 / 1e6,
            POINTS as f64 * 1e3 / nanos as f64
        );
    };
    report(
        "ingest",
        median_nanos(|| {
            black_box(build(POINTS));
        }),
    );
    let table = build(POINTS);
    report(
        "scan_compensated",
        median_nanos(|| {
            let v = table.series_values(0);
            assert_eq!(v.len(), POINTS);
            black_box(v);
        }),
    );
    report(
        "windowed_avg",
        median_nanos(|| {
            black_box(table.avg(0, 0, POINTS as i64 * 60_000_000 / 2));
        }),
    );
}
