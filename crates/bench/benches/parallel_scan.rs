//! Morsel-driven parallel scan scaling: serial `ColumnTable::scan`
//! against `par_scan` at 1, 2, 4 and 8 workers on a 1M-row table.
//!
//! Besides the criterion timings, the run emits
//! `BENCH_parallel_scan.json` at the repository root with median
//! wall-clock numbers and per-worker-count speedups.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use hana_bench::median_nanos;
use hana_columnar::{ColumnPredicate, ColumnTable};
use hana_exec::{ExecConfig, ExecContext};
use hana_types::{DataType, Schema, Value};

const ROWS: usize = 1_000_000;
const DELTA_TAIL: usize = 50_000;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A merged 1M-row main plus an unmerged delta tail, with enough
/// distinct values that the codec stays bit-packed (no degenerate RLE).
fn build_table() -> ColumnTable {
    let mut t = ColumnTable::new("t", Schema::of(&[("v", DataType::Int)]));
    for i in 0..ROWS as i64 {
        t.insert(&[Value::Int((i * 2_654_435_761) % 10_000)], 1)
            .unwrap();
    }
    t.merge_delta();
    for i in 0..DELTA_TAIL as i64 {
        t.insert(&[Value::Int(i % 10_000)], 1).unwrap();
    }
    t
}

fn pred() -> ColumnPredicate {
    ColumnPredicate::Between(Value::Int(1_000), Value::Int(3_000))
}

fn bench_parallel_scan(c: &mut Criterion) {
    let t = build_table();
    let pred = pred();
    let mut group = c.benchmark_group("parallel_scan");
    group.throughput(Throughput::Elements((ROWS + DELTA_TAIL) as u64));
    group.bench_function("serial", |b| {
        b.iter(|| t.scan(0, &pred, 5).unwrap().count())
    });
    for workers in WORKER_COUNTS {
        let exec = ExecContext::new(ExecConfig::default().with_workers(workers));
        group.bench_function(BenchmarkId::new("par", workers), |b| {
            b.iter(|| t.par_scan(&exec, 0, &pred, 5).unwrap().count())
        });
    }
    group.finish();
}

/// Direct `Instant` medians for the machine-readable summary (the
/// criterion stub reports means on stdout only).
fn emit_json() {
    let t = build_table();
    let pred = pred();
    let serial = t.scan(0, &pred, 5).unwrap();
    let serial_ns = median_nanos(|| {
        t.scan(0, &pred, 5).unwrap();
    });
    let mut entries = Vec::new();
    for workers in WORKER_COUNTS {
        let exec = ExecContext::new(ExecConfig::default().with_workers(workers));
        assert_eq!(
            t.par_scan(&exec, 0, &pred, 5).unwrap(),
            serial,
            "parallel scan diverged from serial"
        );
        let ns = median_nanos(|| {
            t.par_scan(&exec, 0, &pred, 5).unwrap();
        });
        let speedup = serial_ns as f64 / ns as f64;
        println!(
            "parallel_scan: {workers} workers {:.3} ms ({speedup:.2}x vs serial {:.3} ms)",
            ns as f64 / 1e6,
            serial_ns as f64 / 1e6,
        );
        entries.push(format!(
            "    {{\"workers\": {workers}, \"median_ns\": {ns}, \"speedup\": {speedup:.3}}}"
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"parallel_scan\",\n  \"rows\": {},\n  \
         \"serial_median_ns\": {serial_ns},\n  \"parallel\": [\n{}\n  ]\n}}\n",
        ROWS + DELTA_TAIL,
        entries.join(",\n"),
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_parallel_scan.json"
    );
    std::fs::write(path, json).expect("write BENCH_parallel_scan.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench_parallel_scan);

fn main() {
    benches();
    emit_json();
}
