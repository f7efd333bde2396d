//! OLTP hot-path benchmarks: what the secondary index and the
//! expression bytecode VM buy over the scan/tree-walk baselines.
//!
//! Three measurements, emitted to `BENCH_point_lookup.json`:
//!
//! 1. **Point lookup** — `WHERE k = const` on a 400 000-row merged
//!    table, through the ordered secondary index vs the full predicate
//!    column scan of an identical unindexed table.
//! 2. **Selective range** — `WHERE k BETWEEN lo AND hi` (~0.06 % of
//!    the rows) through the same index's range walk vs the full scan.
//! 3. **Compiled filter** — an arithmetic predicate + projection that
//!    column-scan pushdown cannot absorb, executed by the bytecode VM
//!    (one dispatch per opcode per 1024-row block) vs the per-row
//!    tree-walking evaluator (`hana_sql::evaluate`, applied by hand to
//!    the same scan output).
//!
//! Both tables hold identical data, so every indexed answer is checked
//! against the scan answer before timing; the EXPLAIN assertions pin
//! the plans actually being compared (Index Seek with `stats`
//! provenance vs Table Scan).

use criterion::{criterion_group, Criterion};
use hana_bench::median_nanos;
use hana_core::{HanaPlatform, Session};
use hana_sql::{evaluate, evaluate_predicate, parse_statement, Statement};
use hana_types::{Row, Value};

const ROWS: i64 = 400_000;

// `k` is unique, so the point lookup hits exactly one row.
const POINT_IX: &str = "SELECT v FROM orders WHERE k = 123457";
const POINT_SCAN: &str = "SELECT v FROM orders_heap WHERE k = 123457";
// 241 of 400 000 rows: selective enough for the planner's pure-range
// seek gate on the leading index column.
const RANGE_IX: &str = "SELECT v FROM orders WHERE k BETWEEN 60000 AND 60240";
const RANGE_SCAN: &str = "SELECT v FROM orders_heap WHERE k BETWEEN 60000 AND 60240";
// Arithmetic keeps this predicate (and the projection) off the
// column-scan pushdown path, so both run through the expression
// engine: 400k rows filtered, 40k projected.
const VM_Q: &str = "SELECT k * 2 + v FROM orders_heap WHERE k * 2 + 1 < 80001";

/// Two identical 400k-row merged tables; only `orders` is indexed.
fn setup() -> (HanaPlatform, Session) {
    let hana = HanaPlatform::new_in_memory();
    let s = hana.connect("SYSTEM", "manager").unwrap();
    let rows: Vec<Row> = (0..ROWS)
        .map(|i| Row::from_values([Value::Int(i), Value::Int(i % 1000)]))
        .collect();
    for t in ["orders", "orders_heap"] {
        hana.execute_sql(
            &s,
            &format!("CREATE COLUMN TABLE {t} (k INTEGER, v INTEGER)"),
        )
        .unwrap();
        hana.load_rows(&s, t, &rows).unwrap();
    }
    hana.execute_sql(&s, "CREATE INDEX ix_orders ON orders (k)")
        .unwrap();
    // Merge after CREATE INDEX: rebuilds the index's sorted main side
    // and persists the synopses the planner's seek estimate reads.
    for t in ["orders", "orders_heap"] {
        hana.execute_sql(&s, &format!("MERGE DELTA OF {t}"))
            .unwrap();
    }
    (hana, s)
}

fn explain(hana: &HanaPlatform, s: &Session, sql: &str) -> String {
    let rs = hana.execute_sql(s, &format!("EXPLAIN {sql}")).unwrap();
    rs.rows
        .iter()
        .map(|r| r[0].to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

fn sorted_ints(hana: &HanaPlatform, s: &Session, sql: &str) -> Vec<Value> {
    let mut vals: Vec<Value> = hana
        .execute_sql(s, sql)
        .unwrap()
        .rows
        .into_iter()
        .map(|r| r[0].clone())
        .collect();
    vals.sort();
    vals
}

/// The tree-walk baseline for [`VM_Q`]: the same full scan of
/// `orders_heap`, then its WHERE and its projection evaluated row at a
/// time by the interpreter the VM is checked against.
fn tree_walk(hana: &HanaPlatform, s: &Session) -> Vec<Value> {
    let Statement::Query(q) = parse_statement(VM_Q).unwrap() else {
        unreachable!("VM_Q is a query")
    };
    let (filter, projection) = (q.filter.as_ref().unwrap(), &q.select[0].expr);
    let scan = hana.execute_sql(s, "SELECT * FROM orders_heap").unwrap();
    scan.rows
        .iter()
        .filter(|r| evaluate_predicate(filter, &scan.schema, r).unwrap())
        .map(|r| evaluate(projection, &scan.schema, r).unwrap())
        .collect()
}

fn bench_point_lookup(c: &mut Criterion) {
    let (hana, s) = setup();
    let mut group = c.benchmark_group("point_lookup");
    group.bench_function("point/index_seek", |b| {
        b.iter(|| hana.execute_sql(&s, POINT_IX).unwrap().rows.len())
    });
    group.bench_function("point/full_scan", |b| {
        b.iter(|| hana.execute_sql(&s, POINT_SCAN).unwrap().rows.len())
    });
    group.bench_function("filter/compiled", |b| {
        b.iter(|| hana.execute_sql(&s, VM_Q).unwrap().rows.len())
    });
    group.bench_function("filter/interpreted", |b| {
        b.iter(|| tree_walk(&hana, &s).len())
    });
    group.finish();
}

fn emit_json() {
    let (hana, s) = setup();

    // Pin the plans being compared: the indexed side must seek with
    // statistics-backed estimates, the baseline side must scan.
    for q in [POINT_IX, RANGE_IX] {
        let text = explain(&hana, &s, q);
        assert!(text.contains("Index Seek orders.ix_orders"), "{text}");
        assert!(text.contains("stats"), "{text}");
    }
    for q in [POINT_SCAN, RANGE_SCAN] {
        let text = explain(&hana, &s, q);
        assert!(!text.contains("Index Seek"), "{text}");
    }
    // Identical data: indexed answers must equal scan answers.
    assert_eq!(
        sorted_ints(&hana, &s, POINT_IX),
        sorted_ints(&hana, &s, POINT_SCAN)
    );
    assert_eq!(
        sorted_ints(&hana, &s, RANGE_IX),
        sorted_ints(&hana, &s, RANGE_SCAN)
    );
    let compiled_rows = sorted_ints(&hana, &s, VM_Q);
    let mut interpreted_rows = tree_walk(&hana, &s);
    interpreted_rows.sort();
    assert_eq!(compiled_rows, interpreted_rows);
    assert_eq!(compiled_rows.len(), 40_000);

    let point_ix_ns = median_nanos(|| {
        hana.execute_sql(&s, POINT_IX).unwrap();
    });
    let point_scan_ns = median_nanos(|| {
        hana.execute_sql(&s, POINT_SCAN).unwrap();
    });
    let range_ix_ns = median_nanos(|| {
        hana.execute_sql(&s, RANGE_IX).unwrap();
    });
    let range_scan_ns = median_nanos(|| {
        hana.execute_sql(&s, RANGE_SCAN).unwrap();
    });
    let vm_ns = median_nanos(|| {
        hana.execute_sql(&s, VM_Q).unwrap();
    });
    let tree_ns = median_nanos(|| {
        tree_walk(&hana, &s);
    });

    let point_speedup = point_scan_ns as f64 / point_ix_ns as f64;
    let range_speedup = range_scan_ns as f64 / range_ix_ns as f64;
    let vm_speedup = tree_ns as f64 / vm_ns as f64;
    println!(
        "point_lookup: point seek {:.3} ms ({point_speedup:.1}x vs \
         {:.3} ms full scan of {ROWS} rows)",
        point_ix_ns as f64 / 1e6,
        point_scan_ns as f64 / 1e6,
    );
    println!(
        "point_lookup: range seek (241 rows) {:.3} ms ({range_speedup:.1}x \
         vs {:.3} ms full scan)",
        range_ix_ns as f64 / 1e6,
        range_scan_ns as f64 / 1e6,
    );
    println!(
        "point_lookup: compiled filter+projection {:.3} ms ({vm_speedup:.2}x \
         vs {:.3} ms tree-walk)",
        vm_ns as f64 / 1e6,
        tree_ns as f64 / 1e6,
    );

    let json = format!(
        "{{\n  \"bench\": \"point_lookup\",\n  \"rows\": {ROWS},\n  \
         \"point\": {{\"baseline\": \"full column scan\", \
         \"index_seek_ns\": {point_ix_ns}, \"full_scan_ns\": {point_scan_ns}, \
         \"speedup\": {point_speedup:.3}}},\n  \
         \"range\": {{\"baseline\": \"full column scan\", \"hit_rows\": 241, \
         \"index_seek_ns\": {range_ix_ns}, \"full_scan_ns\": {range_scan_ns}, \
         \"speedup\": {range_speedup:.3}}},\n  \
         \"compiled_filter\": {{\"baseline\": \"tree-walk evaluator\", \
         \"compiled_ns\": {vm_ns}, \"interpreted_ns\": {tree_ns}, \
         \"speedup\": {vm_speedup:.3}}}\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_point_lookup.json");
    std::fs::write(path, json).expect("write BENCH_point_lookup.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench_point_lookup);

fn main() {
    benches();
    emit_json();
}
