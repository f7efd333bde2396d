//! Cost-based optimizer benchmarks: what the persisted column
//! statistics buy at run time.
//!
//! Two measurements, emitted to `BENCH_optimizer_stats.json`:
//!
//! 1. **Broadcast↔repartition flip** — the same distributed join shape
//!    with a 50-row and a 40 000-row build side: the planner flips the
//!    exchange strategy, and each choice is compared against the forced
//!    alternative (the same plan with the join's `DistJoinStrategy`
//!    overwritten) to price the decision.
//! 2. **Remote-scan↔semijoin flip** — the same federated join shape
//!    with a selective and an unselective remote filter: statistics
//!    flip the SDA strategy between pulling the remote rows and
//!    shipping the local keys.
//!
//! Every strategy choice comes from the synopses collected at
//! MERGE DELTA / bulk load and the tables' live row counts.

use criterion::{criterion_group, Criterion};
use hana_bench::median_nanos;
use hana_core::{HanaPlatform, Session};
use hana_query::{
    DistJoinStrategy, FederationStrategy, PlanNode, PlanOp, PlannerContext, NO_STATS,
};
use hana_sql::{parse_statement, Statement};
use hana_types::{Row, Value};

const FACT_ROWS: usize = 120_000;
const FACT_KEYS: i64 = 300;
const PARTITIONS: usize = 4;
const TINY_ROWS: i64 = 50;
const HUGE_ROWS: i64 = 40_000;
const REMOTE_ROWS: i64 = 20_000;

const TINY_JOIN: &str = "SELECT f.v, t.v FROM facts f JOIN tiny t ON f.k = t.k";
const HUGE_JOIN: &str = "SELECT f.v, h.v FROM facts f JOIN huge h ON f.k = h.k";

fn sda_join(bound: i64) -> String {
    format!(
        "SELECT d.v, f.f_val FROM dim d JOIN fact f ON d.k = f.f_dim \
         WHERE d.k < 5 AND f.f_val < {bound}"
    )
}

/// Platform with the distributed world (`facts` over 4 nodes, `tiny`
/// and `huge` build sides) and the federated world (`dim` local,
/// `fact` in the internal IQ store) — all merged, so every table has a
/// persisted synopsis.
fn setup() -> (HanaPlatform, Session) {
    let hana = HanaPlatform::new_in_memory();
    let s = hana.connect("SYSTEM", "manager").unwrap();
    let load = |hana: &HanaPlatform, s: &Session, t: &str, rows: Vec<Row>| {
        hana.load_rows(s, t, &rows).unwrap();
        hana.execute_sql(s, &format!("MERGE DELTA OF {t}")).unwrap();
    };

    hana.execute_sql(
        &s,
        &format!(
            "CREATE COLUMN TABLE facts (k INTEGER, v INTEGER) \
             PARTITION BY HASH(k) PARTITIONS {PARTITIONS}"
        ),
    )
    .unwrap();
    load(
        &hana,
        &s,
        "facts",
        (0..FACT_ROWS)
            .map(|i| Row::from_values([Value::Int(i as i64 % FACT_KEYS), Value::Int(i as i64)]))
            .collect(),
    );

    hana.execute_sql(&s, "CREATE COLUMN TABLE tiny (k INTEGER, v INTEGER)")
        .unwrap();
    load(
        &hana,
        &s,
        "tiny",
        (0..TINY_ROWS)
            .map(|i| Row::from_values([Value::Int(i), Value::Int(i)]))
            .collect(),
    );

    hana.execute_sql(&s, "CREATE COLUMN TABLE huge (k INTEGER, v INTEGER)")
        .unwrap();
    load(
        &hana,
        &s,
        "huge",
        (0..HUGE_ROWS)
            .map(|i| Row::from_values([Value::Int(i), Value::Int(i)]))
            .collect(),
    );

    hana.execute_sql(&s, "CREATE COLUMN TABLE dim (k INTEGER, v INTEGER)")
        .unwrap();
    load(
        &hana,
        &s,
        "dim",
        (0..100)
            .map(|i| Row::from_values([Value::Int(i), Value::Int(i)]))
            .collect(),
    );

    hana.execute_sql(
        &s,
        "CREATE TABLE fact (f_dim INTEGER, f_val INTEGER) USING EXTENDED STORAGE",
    )
    .unwrap();
    // Extended-storage loads go straight to the IQ store (no delta):
    // the remote side's strategy inputs come from the source's own
    // metadata, not the catalog synopses.
    let remote_rows: Vec<Row> = (0..REMOTE_ROWS)
        .map(|i| Row::from_values([Value::Int(i % 100), Value::Int(i)]))
        .collect();
    hana.load_rows(&s, "fact", &remote_rows).unwrap();
    (hana, s)
}

fn query(sql: &str) -> hana_sql::Query {
    let Statement::Query(q) = parse_statement(sql).unwrap() else {
        panic!("not a query: {sql}")
    };
    q
}

/// Plan from the platform catalog's persisted synopses.
fn plan_with_stats(hana: &HanaPlatform, sql: &str) -> PlanNode {
    PlannerContext::new(hana.catalog().as_ref())
        .planner()
        .plan(&query(sql))
        .unwrap()
}

/// Plan with no synopsis at all: live row counts and default
/// selectivities only (what the SDA flip is compared against).
fn plan_without_stats(hana: &HanaPlatform, sql: &str) -> PlanNode {
    PlannerContext::new(hana.catalog().as_ref())
        .with_stats(&NO_STATS)
        .planner()
        .plan(&query(sql))
        .unwrap()
}

/// The exchange strategy slot of the first hash join in the tree.
fn hash_join_dist(node: &mut PlanNode) -> Option<&mut DistJoinStrategy> {
    match &mut node.op {
        PlanOp::HashJoin { dist, .. } => Some(dist),
        PlanOp::Filter { input, .. }
        | PlanOp::Aggregate { input, .. }
        | PlanOp::Finish { input, .. } => hash_join_dist(input),
        _ => None,
    }
}

/// Plan `sql`, check the planner chose `expected`, and return the plan
/// together with a copy forced onto `alternative`.
fn planned_and_forced(
    hana: &HanaPlatform,
    sql: &str,
    expected: DistJoinStrategy,
    alternative: DistJoinStrategy,
) -> (PlanNode, PlanNode) {
    let planned = plan_with_stats(hana, sql);
    let mut forced = planned.clone();
    let slot = hash_join_dist(&mut forced).expect("plan has a hash join");
    assert_eq!(*slot, expected, "{}", planned.explain());
    *slot = alternative;
    (planned, forced)
}

fn sda_strategy(plan: &PlanNode) -> &'static str {
    let strategies = plan.strategies();
    if strategies.contains(&FederationStrategy::SemiJoin) {
        "semijoin"
    } else if strategies.contains(&FederationStrategy::RemoteScan) {
        "remote-scan"
    } else {
        "other"
    }
}

fn bench_optimizer_stats(c: &mut Criterion) {
    let (hana, s) = setup();
    let mut group = c.benchmark_group("optimizer_stats");
    let tiny = plan_with_stats(&hana, TINY_JOIN);
    group.bench_function("dist_join/tiny_build_broadcast", |b| {
        b.iter(|| hana.execute_plan(&s, &tiny).unwrap().len())
    });
    let huge = plan_with_stats(&hana, HUGE_JOIN);
    group.bench_function("dist_join/huge_build_repartition", |b| {
        b.iter(|| hana.execute_plan(&s, &huge).unwrap().len())
    });
    group.finish();
}

fn emit_json() {
    let (hana, s) = setup();

    // ---- flip (a): broadcast <-> repartition ----
    use DistJoinStrategy::{Broadcast, Repartition};
    let (tiny, tiny_forced) = planned_and_forced(&hana, TINY_JOIN, Broadcast, Repartition);
    let (huge, huge_forced) = planned_and_forced(&hana, HUGE_JOIN, Repartition, Broadcast);
    let tiny_expected = (TINY_ROWS as usize) * (FACT_ROWS / FACT_KEYS as usize);
    let huge_expected = (FACT_KEYS as usize) * (FACT_ROWS / FACT_KEYS as usize);
    assert_eq!(hana.execute_plan(&s, &tiny).unwrap().len(), tiny_expected);
    assert_eq!(hana.execute_plan(&s, &huge).unwrap().len(), huge_expected);

    // Forced alternatives compute the same join.
    assert_eq!(
        hana.execute_plan(&s, &tiny_forced).unwrap().len(),
        tiny_expected
    );
    assert_eq!(
        hana.execute_plan(&s, &huge_forced).unwrap().len(),
        huge_expected
    );

    let tiny_ns = median_nanos(|| {
        hana.execute_plan(&s, &tiny).unwrap();
    });
    let tiny_forced_ns = median_nanos(|| {
        hana.execute_plan(&s, &tiny_forced).unwrap();
    });
    let huge_ns = median_nanos(|| {
        hana.execute_plan(&s, &huge).unwrap();
    });
    let huge_forced_ns = median_nanos(|| {
        hana.execute_plan(&s, &huge_forced).unwrap();
    });
    let tiny_speedup = tiny_forced_ns as f64 / tiny_ns as f64;
    let huge_speedup = huge_forced_ns as f64 / huge_ns as f64;
    println!(
        "optimizer_stats: {TINY_ROWS}-row build -> broadcast {:.3} ms \
         ({tiny_speedup:.2}x vs forced repartition {:.3} ms)",
        tiny_ns as f64 / 1e6,
        tiny_forced_ns as f64 / 1e6,
    );
    println!(
        "optimizer_stats: {HUGE_ROWS}-row build -> repartition {:.3} ms \
         ({huge_speedup:.2}x vs forced broadcast {:.3} ms)",
        huge_ns as f64 / 1e6,
        huge_forced_ns as f64 / 1e6,
    );

    // ---- flip (b): remote-scan <-> semijoin on remote selectivity ----
    let selective = plan_with_stats(&hana, &sda_join(3));
    let unselective = plan_with_stats(&hana, &sda_join(19_000));
    assert_eq!(sda_strategy(&selective), "remote-scan");
    assert_eq!(sda_strategy(&unselective), "semijoin");
    assert_eq!(hana.execute_plan(&s, &selective).unwrap().len(), 3);
    assert_eq!(hana.execute_plan(&s, &unselective).unwrap().len(), 950);
    let selective_ns = median_nanos(|| {
        hana.execute_plan(&s, &selective).unwrap();
    });
    let unselective_ns = median_nanos(|| {
        hana.execute_plan(&s, &unselective).unwrap();
    });
    let heur_selective = sda_strategy(&plan_without_stats(&hana, &sda_join(3)));
    let heur_unselective = sda_strategy(&plan_without_stats(&hana, &sda_join(19_000)));
    println!(
        "optimizer_stats: federated join f_val<3 -> remote-scan {:.3} ms, \
         f_val<19000 -> semijoin {:.3} ms (without synopses: \
         {heur_selective} / {heur_unselective})",
        selective_ns as f64 / 1e6,
        unselective_ns as f64 / 1e6,
    );

    let json = format!(
        "{{\n  \"bench\": \"optimizer_stats\",\n  \
         \"dist_join\": {{\"fact_rows\": {FACT_ROWS}, \"partitions\": {PARTITIONS}, \
         \"tiny_build_rows\": {TINY_ROWS}, \"huge_build_rows\": {HUGE_ROWS}, \
         \"tiny\": {{\"strategy\": \"broadcast\", \"median_ns\": {tiny_ns}, \
         \"forced_repartition_ns\": {tiny_forced_ns}, \"speedup\": {tiny_speedup:.3}}}, \
         \"huge\": {{\"strategy\": \"repartition\", \"median_ns\": {huge_ns}, \
         \"forced_broadcast_ns\": {huge_forced_ns}, \"speedup\": {huge_speedup:.3}}}}},\n  \
         \"sda_join\": {{\"remote_rows\": {REMOTE_ROWS}, \
         \"selective\": {{\"strategy\": \"remote-scan\", \"rows\": 3, \
         \"median_ns\": {selective_ns}}}, \
         \"unselective\": {{\"strategy\": \"semijoin\", \"rows\": 950, \
         \"median_ns\": {unselective_ns}}}, \
         \"heuristic_strategies\": [\"{heur_selective}\", \"{heur_unselective}\"]}}\n}}\n"
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_optimizer_stats.json"
    );
    std::fs::write(path, json).expect("write BENCH_optimizer_stats.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench_optimizer_stats);

fn main() {
    benches();
    emit_json();
}
