//! Scale-out exchange benchmarks: partition pruning against a full
//! fan-out scan, and partial-aggregate shuffles against gathering every
//! row to the coordinator.
//!
//! Besides the criterion timings, the run emits
//! `BENCH_dist_shuffle.json` at the repository root with median
//! wall-clock numbers, speedups, and the partitions-pruned /
//! rows-shuffled counts observed through the metrics registry.

use std::collections::HashMap;

use criterion::{criterion_group, Criterion, Throughput};
use hana_bench::median_nanos;
use hana_core::{HanaPlatform, Session};
use hana_types::{Row, Value};

const ROWS: usize = 200_000;
const GROUPS: i64 = 64;
const PARTITIONS: usize = 4;

fn mix(i: usize) -> usize {
    i.wrapping_mul(2_654_435_761)
}

/// A platform with a hash-partitioned `t(k, v)` over [`PARTITIONS`]
/// nodes, `ROWS` rows, `k` drawn from [`GROUPS`] groups.
fn setup() -> (HanaPlatform, Session) {
    let hana = HanaPlatform::new_in_memory();
    let s = hana.connect("SYSTEM", "manager").unwrap();
    hana.execute_sql(
        &s,
        &format!(
            "CREATE COLUMN TABLE t (k INTEGER, v INTEGER) \
             PARTITION BY HASH(k) PARTITIONS {PARTITIONS}"
        ),
    )
    .unwrap();
    let rows: Vec<Row> = (0..ROWS)
        .map(|i| {
            Row::from_values([
                Value::Int((mix(i) as i64).rem_euclid(GROUPS)),
                Value::Int(i as i64),
            ])
        })
        .collect();
    hana.load_rows(&s, "t", &rows).unwrap();
    hana.execute_sql(&s, "MERGE DELTA OF t").unwrap();
    (hana, s)
}

// A point predicate on the partition key prunes all but one partition;
// the same shape on the non-key column must fan out to every node.
const PRUNED_Q: &str = "SELECT COUNT(*) FROM t WHERE k = 7";
const UNPRUNED_Q: &str = "SELECT COUNT(*) FROM t WHERE v >= 0";
const PARTIAL_AGG_Q: &str = "SELECT k, COUNT(*) AS n, SUM(v) AS total FROM t GROUP BY k";
const GATHER_ALL_Q: &str = "SELECT k, v FROM t";

/// The gather-all baseline: ship every row to the coordinator and
/// aggregate there — what a distributed plan without partition-wise
/// partial aggregation would do.
fn gather_all_group_by(hana: &HanaPlatform, s: &Session) -> usize {
    let rs = hana.execute_sql(s, GATHER_ALL_Q).unwrap();
    let mut acc: HashMap<Value, (i64, i64)> = HashMap::new();
    for row in &rs.rows {
        let e = acc.entry(row[0].clone()).or_insert((0, 0));
        e.0 += 1;
        if let Value::Int(v) = row[1] {
            e.1 += v;
        }
    }
    acc.len()
}

fn bench_dist_shuffle(c: &mut Criterion) {
    let (hana, s) = setup();
    let mut group = c.benchmark_group("dist_shuffle");
    group.throughput(Throughput::Elements(ROWS as u64));
    group.bench_function("scan/pruned", |b| {
        b.iter(|| hana.execute_sql(&s, PRUNED_Q).unwrap().len())
    });
    group.bench_function("scan/unpruned", |b| {
        b.iter(|| hana.execute_sql(&s, UNPRUNED_Q).unwrap().len())
    });
    group.bench_function("group_by/partial_agg", |b| {
        b.iter(|| hana.execute_sql(&s, PARTIAL_AGG_Q).unwrap().len())
    });
    group.bench_function("group_by/gather_all", |b| {
        b.iter(|| gather_all_group_by(&hana, &s))
    });
    group.finish();
}

/// Delta of a global registry counter across `f`.
fn counter_delta(name: &str, mut f: impl FnMut()) -> u64 {
    let before = hana_obs::registry().counter(name).get();
    f();
    hana_obs::registry().counter(name).get() - before
}

/// Direct `Instant` medians for the machine-readable summary (the
/// criterion stub reports means on stdout only).
fn emit_json() {
    let (hana, s) = setup();

    // Correctness anchors before timing anything.
    let pruned_rs = hana.execute_sql(&s, PRUNED_Q).unwrap();
    assert!(matches!(pruned_rs.scalar().unwrap(), Value::Int(n) if *n > 0));
    assert_eq!(
        hana.execute_sql(&s, PARTIAL_AGG_Q).unwrap().len(),
        GROUPS as usize
    );
    assert_eq!(gather_all_group_by(&hana, &s), GROUPS as usize);

    let pruned = counter_delta("hana_dist_partitions_pruned_total", || {
        hana.execute_sql(&s, PRUNED_Q).unwrap();
    });
    assert_eq!(pruned as usize, PARTITIONS - 1, "point predicate prunes");
    let pruned_ns = median_nanos(|| {
        hana.execute_sql(&s, PRUNED_Q).unwrap();
    });
    let unpruned_ns = median_nanos(|| {
        hana.execute_sql(&s, UNPRUNED_Q).unwrap();
    });
    let prune_speedup = unpruned_ns as f64 / pruned_ns as f64;
    println!(
        "dist_shuffle: pruned scan {:.3} ms ({prune_speedup:.2}x vs unpruned {:.3} ms, \
         {pruned}/{PARTITIONS} partitions pruned)",
        pruned_ns as f64 / 1e6,
        unpruned_ns as f64 / 1e6,
    );

    let partial_shuffled = counter_delta("hana_dist_rows_shuffled_total", || {
        hana.execute_sql(&s, PARTIAL_AGG_Q).unwrap();
    });
    let gather_shuffled = counter_delta("hana_dist_rows_shuffled_total", || {
        gather_all_group_by(&hana, &s);
    });
    assert!(
        partial_shuffled <= GROUPS as u64 * PARTITIONS as u64,
        "partial aggregation ships at most one state per (group, node)"
    );
    assert_eq!(gather_shuffled as usize, ROWS, "gather-all ships every row");
    let partial_ns = median_nanos(|| {
        hana.execute_sql(&s, PARTIAL_AGG_Q).unwrap();
    });
    let gather_ns = median_nanos(|| {
        gather_all_group_by(&hana, &s);
    });
    let agg_speedup = gather_ns as f64 / partial_ns as f64;
    println!(
        "dist_shuffle: partial-agg group-by {:.3} ms ({agg_speedup:.2}x vs gather-all \
         {:.3} ms; {partial_shuffled} vs {gather_shuffled} items shuffled)",
        partial_ns as f64 / 1e6,
        gather_ns as f64 / 1e6,
    );

    let json = format!(
        "{{\n  \"bench\": \"dist_shuffle\",\n  \"rows\": {ROWS},\n  \
         \"partitions\": {PARTITIONS},\n  \"groups\": {GROUPS},\n  \
         \"scan\": {{\"pruned_median_ns\": {pruned_ns}, \
         \"unpruned_median_ns\": {unpruned_ns}, \"speedup\": {prune_speedup:.3}, \
         \"partitions_pruned\": {pruned}}},\n  \
         \"group_by\": {{\"partial_agg_median_ns\": {partial_ns}, \
         \"gather_all_median_ns\": {gather_ns}, \"speedup\": {agg_speedup:.3}, \
         \"partial_rows_shuffled\": {partial_shuffled}, \
         \"gather_rows_shuffled\": {gather_shuffled}}}\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dist_shuffle.json");
    std::fs::write(path, json).expect("write BENCH_dist_shuffle.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench_dist_shuffle);

fn main() {
    benches();
    emit_json();
}
