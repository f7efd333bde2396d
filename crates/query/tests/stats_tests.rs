//! Statistics-driven planning tests: estimator bounds and monotonicity
//! (proptest), greedy join ordering, the broadcast↔repartition flip on
//! distributed joins, the remote-scan↔semijoin flip on federated joins,
//! and the stats-are-advisory guarantee (a stale or absent synopsis can
//! never change results, only plans).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::RwLock;

use hana_columnar::{ColumnPredicate, ColumnStats, ColumnTable, TableStatistics};
use hana_dist::{DistTable, PartitionSpec};
use hana_iq::IqEngine;
use hana_query::{
    execute_query, Catalog, DistJoinStrategy, EstSource, FederationStrategy, MemoryStatsProvider,
    PlanNode, PlanOp, PlannerContext, StatsProvider, TableFunction, TableSource,
};
use hana_sda::{IqAdapter, SdaAdapter, SdaRegistry};
use hana_sql::{parse_statement, Statement};
use hana_types::{DataType, HanaError, Result, ResultSet, Row, Schema, Value};

use proptest::prelude::*;

/// A catalog whose planner statistics come from an owned
/// [`MemoryStatsProvider`] — the same wiring the platform catalog uses,
/// without the platform.
struct StatsCatalog {
    tables: HashMap<String, TableSource>,
    functions: HashMap<String, Arc<dyn TableFunction>>,
    sda: SdaRegistry,
    iq: Option<Arc<IqEngine>>,
    stats: MemoryStatsProvider,
}

impl StatsCatalog {
    fn new() -> StatsCatalog {
        StatsCatalog {
            tables: HashMap::new(),
            functions: HashMap::new(),
            sda: SdaRegistry::new(),
            iq: None,
            stats: MemoryStatsProvider::new(),
        }
    }
}

impl Catalog for StatsCatalog {
    fn resolve_table(&self, name: &str) -> Result<TableSource> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| HanaError::Catalog(format!("unknown table '{name}'")))
    }

    fn resolve_function(&self, name: &str) -> Result<Arc<dyn TableFunction>> {
        self.functions
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| HanaError::Catalog(format!("unknown table function '{name}'")))
    }

    fn sda(&self) -> &SdaRegistry {
        &self.sda
    }

    fn iq_engine(&self, source: &str) -> Result<Arc<IqEngine>> {
        self.iq
            .clone()
            .ok_or_else(|| HanaError::Catalog(format!("no IQ engine behind source '{source}'")))
    }

    fn stats(&self) -> &dyn StatsProvider {
        &self.stats
    }
}

fn query(sql: &str) -> hana_sql::Query {
    let Statement::Query(q) = parse_statement(sql).unwrap() else {
        panic!("not a query: {sql}")
    };
    q
}

/// A merged column table `name(k INT, v INT)` with `n` rows,
/// `k = i % modulo`.
fn column_table(name: &str, n: i64, modulo: i64) -> ColumnTable {
    let mut t = ColumnTable::new(
        name,
        Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]),
    );
    for i in 0..n {
        t.insert(&[Value::Int(i % modulo), Value::Int(i)], 1)
            .unwrap();
    }
    t.merge_delta();
    t
}

fn plan(cat: &StatsCatalog, sql: &str) -> PlanNode {
    PlannerContext::new(cat)
        .planner()
        .plan(&query(sql))
        .unwrap()
}

/// The chosen exchange strategy of the first hash join in the tree.
fn hash_join_dist(node: &PlanNode) -> Option<DistJoinStrategy> {
    match &node.op {
        PlanOp::HashJoin { dist, .. } => Some(*dist),
        PlanOp::Filter { input, .. }
        | PlanOp::Aggregate { input, .. }
        | PlanOp::Finish { input, .. } => hash_join_dist(input),
        _ => None,
    }
}

/// Table name of the deepest left-hand scan (the join order's start).
fn leftmost_leaf_table(node: &PlanNode) -> Option<&str> {
    match &node.op {
        PlanOp::HashJoin { left, .. } => leftmost_leaf_table(left),
        PlanOp::Filter { input, .. }
        | PlanOp::Aggregate { input, .. }
        | PlanOp::Finish { input, .. } => leftmost_leaf_table(input),
        PlanOp::ColumnScan { table, .. } | PlanOp::RowScan { table, .. } => Some(table),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Estimator bounds and monotonicity (proptest).
// ---------------------------------------------------------------------

proptest! {
    /// Every estimate over a random synopsis stays in `[0, row_count]`.
    #[test]
    fn estimates_stay_within_table_bounds(
        freqs in prop::collection::vec((0i64..1000, 1u64..50), 1..80),
        nulls in 0u64..50,
        buckets in 1usize..16,
        probe in -10i64..1010,
        probe2 in -10i64..1010,
    ) {
        let dedup: BTreeMap<i64, u64> = freqs.into_iter().collect();
        let sorted: Vec<(Value, u64)> =
            dedup.iter().map(|(&v, &f)| (Value::Int(v), f)).collect();
        let s = ColumnStats::from_frequencies("c", &sorted, nulls, buckets);
        let total = s.row_count as f64;
        let (lo, hi) = (probe.min(probe2), probe.max(probe2));
        let preds = [
            ColumnPredicate::Eq(Value::Int(probe)),
            ColumnPredicate::Ne(Value::Int(probe)),
            ColumnPredicate::Lt(Value::Int(probe)),
            ColumnPredicate::Le(Value::Int(probe)),
            ColumnPredicate::Gt(Value::Int(probe)),
            ColumnPredicate::Ge(Value::Int(probe)),
            ColumnPredicate::Between(Value::Int(lo), Value::Int(hi)),
            ColumnPredicate::InList((lo..=lo + 20).map(Value::Int).collect()),
            ColumnPredicate::IsNull,
            ColumnPredicate::IsNotNull,
        ];
        for pred in preds {
            let est = s.estimate(&pred);
            prop_assert!(
                (0.0..=total).contains(&est),
                "estimate {est} for {pred:?} outside [0, {total}]"
            );
        }
    }

    /// Widening a predicate never shrinks its estimate.
    #[test]
    fn estimates_monotone_under_widening(
        freqs in prop::collection::vec((0i64..1000, 1u64..50), 1..80),
        buckets in 1usize..16,
        a in -10i64..1010,
        b in -10i64..1010,
    ) {
        let dedup: BTreeMap<i64, u64> = freqs.into_iter().collect();
        let sorted: Vec<(Value, u64)> =
            dedup.iter().map(|(&v, &f)| (Value::Int(v), f)).collect();
        let s = ColumnStats::from_frequencies("c", &sorted, 0, buckets);
        let (narrow, wide) = (a.min(b), a.max(b));
        prop_assert!(
            s.estimate(&ColumnPredicate::Le(Value::Int(narrow)))
                <= s.estimate(&ColumnPredicate::Le(Value::Int(wide))) + 1e-9
        );
        prop_assert!(
            s.estimate(&ColumnPredicate::Ge(Value::Int(wide)))
                <= s.estimate(&ColumnPredicate::Ge(Value::Int(narrow))) + 1e-9
        );
        prop_assert!(
            s.estimate(&ColumnPredicate::Between(Value::Int(narrow + 1), Value::Int(wide)))
                <= s.estimate(&ColumnPredicate::Between(Value::Int(narrow), Value::Int(wide)))
                    + 1e-9
        );
        let some: Vec<Value> = (narrow..narrow + 5).map(Value::Int).collect();
        let more: Vec<Value> = (narrow..narrow + 15).map(Value::Int).collect();
        prop_assert!(
            s.estimate(&ColumnPredicate::InList(some))
                <= s.estimate(&ColumnPredicate::InList(more)) + 1e-9
        );
    }

    /// The same properties hold end-to-end through the planner: the root
    /// estimate of a stats-backed scan is bounded by the table and
    /// monotone in the range bound.
    #[test]
    fn planner_scan_estimates_bounded_and_monotone(a in -5i64..210, b in -5i64..210) {
        let mut cat = StatsCatalog::new();
        let t = column_table("t", 200, 200);
        cat.stats.put(t.collect_statistics());
        cat.tables
            .insert("t".into(), TableSource::Column(Arc::new(RwLock::new(t))));
        let (narrow, wide) = (a.min(b), a.max(b));
        let p_narrow = plan(&cat, &format!("SELECT v FROM t WHERE k <= {narrow}"));
        let p_wide = plan(&cat, &format!("SELECT v FROM t WHERE k <= {wide}"));
        for p in [&p_narrow, &p_wide] {
            prop_assert_eq!(p.est_source, EstSource::Stats);
            prop_assert!((0.0..=200.0).contains(&p.est_rows), "est {}", p.est_rows);
        }
        prop_assert!(p_narrow.est_rows <= p_wide.est_rows + 1e-9);
    }
}

/// Two bounds on one synopsis-covered column are one range, priced
/// once; bounds on two columns stay independent.
#[test]
fn two_bounds_on_one_column_are_priced_as_one_range() {
    let mut cat = StatsCatalog::new();
    // `k = v = i` for i in 0..1000: a tenth of the rows lie in [100, 200).
    let t = column_table("t", 1_000, 1_000);
    cat.stats.put(t.collect_statistics());
    cat.tables
        .insert("t".into(), TableSource::Column(Arc::new(RwLock::new(t))));
    let est = |sql: &str| plan(&cat, sql).est_rows;
    let range = est("SELECT v FROM t WHERE v >= 100 AND v < 200");
    // As independent selectivities: 0.9 x 0.2 x 1000 = 180.
    assert!((80.0..=120.0).contains(&range), "est {range}");
    assert_eq!(range, est("SELECT v FROM t WHERE v BETWEEN 100 AND 200"));
    assert_eq!(
        range,
        est("SELECT v FROM t WHERE v < 200 AND v >= 50 AND v > 100")
    );
    let one_sided = est("SELECT v FROM t WHERE v >= 100 AND v >= 500");
    assert!((450.0..=550.0).contains(&one_sided), "est {one_sided}");
    let two_columns = est("SELECT v FROM t WHERE k < 500 AND v >= 500");
    assert!((200.0..=300.0).contains(&two_columns), "est {two_columns}");
}

// ---------------------------------------------------------------------
// Greedy join ordering.
// ---------------------------------------------------------------------

/// With full statistics coverage the greedy ordering starts from the
/// smallest table regardless of the written join order; without
/// statistics the syntactic order is preserved.
#[test]
fn greedy_join_order_starts_from_smallest_table() {
    let mut cat = StatsCatalog::new();
    for (name, rows) in [("big", 5_000i64), ("mid", 500), ("small", 50)] {
        let t = column_table(name, rows, 50);
        cat.stats.put(t.collect_statistics());
        cat.tables
            .insert(name.into(), TableSource::Column(Arc::new(RwLock::new(t))));
    }
    let sql = "SELECT b.v, m.v, s.v FROM big b \
               JOIN mid m ON b.k = m.k JOIN small s ON m.k = s.k";
    let p = plan(&cat, sql);
    assert_eq!(
        leftmost_leaf_table(&p),
        Some("small"),
        "greedy order must start at the smallest synopsis:\n{}",
        p.explain()
    );
    assert_eq!(p.est_source, EstSource::Stats);
    assert!(p.explain().contains("[stats]"), "{}", p.explain());

    // Same query, no statistics: the written order stands.
    let nostats = PlannerContext::new(&cat)
        .with_stats(&hana_query::NO_STATS)
        .planner()
        .plan(&query(sql))
        .unwrap();
    assert_eq!(leftmost_leaf_table(&nostats), Some("big"));
    assert!(nostats.explain().contains("[heuristic]"));

    // Reordering is advisory: both plans produce identical rows.
    let with_stats = execute_query(&query(sql), &cat, 1).unwrap();
    assert_eq!(with_stats.len(), 5_000 * 10, "50 keys x 100 x 10 x 1");
}

// ---------------------------------------------------------------------
// Broadcast vs repartition on distributed joins.
// ---------------------------------------------------------------------

/// A distributed world: `facts` hash-partitioned over 4 nodes with
/// 20 000 rows, plus two build tables of very different sizes.
fn dist_world() -> StatsCatalog {
    let mut cat = StatsCatalog::new();
    let facts = DistTable::new(
        "facts",
        Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]),
        PartitionSpec::Hash {
            column: "k".into(),
            partitions: 4,
        },
    )
    .unwrap();
    for i in 0..20_000i64 {
        facts
            .insert(&[Value::Int(i % 100), Value::Int(i)], 1)
            .unwrap();
    }
    let parts: Vec<TableStatistics> = facts
        .nodes()
        .iter()
        .map(|n| n.table().read().collect_statistics())
        .collect();
    cat.stats.put_partitions("facts", parts);
    cat.tables
        .insert("facts".into(), TableSource::Distributed(Arc::new(facts)));

    // Tiny build side: 20 rows, keys 0..20.
    let tiny = column_table("tiny", 20, 20);
    cat.stats.put(tiny.collect_statistics());
    cat.tables.insert(
        "tiny".into(),
        TableSource::Column(Arc::new(RwLock::new(tiny))),
    );

    // Huge build side: 30 000 distinct keys (only 0..100 match).
    let huge = column_table("huge", 30_000, 30_000);
    cat.stats.put(huge.collect_statistics());
    cat.tables.insert(
        "huge".into(),
        TableSource::Column(Arc::new(RwLock::new(huge))),
    );
    cat
}

/// The planner flips broadcast→repartition as the build side grows —
/// decided at plan time from the two sides' estimated rows.
#[test]
fn dist_join_flips_broadcast_to_repartition_on_build_size() {
    let cat = dist_world();

    let small = plan(
        &cat,
        "SELECT f.v, t.v FROM facts f JOIN tiny t ON f.k = t.k",
    );
    assert_eq!(
        hash_join_dist(&small),
        Some(DistJoinStrategy::Broadcast),
        "20-row build side must broadcast:\n{}",
        small.explain()
    );
    assert!(
        small.explain().contains("exchange: broadcast"),
        "{}",
        small.explain()
    );

    let big = plan(
        &cat,
        "SELECT f.v, h.v FROM facts f JOIN huge h ON f.k = h.k",
    );
    assert_eq!(
        hash_join_dist(&big),
        Some(DistJoinStrategy::Repartition),
        "30k-row build side must repartition:\n{}",
        big.explain()
    );
    assert!(
        big.explain().contains("exchange: repartition"),
        "{}",
        big.explain()
    );

    // Without any synopsis the decision is still made at plan time,
    // from the live row counts alone (20 × 4 partitions ≤ 20 000).
    let no_synopsis = PlannerContext::new(&cat)
        .with_stats(&hana_query::NO_STATS)
        .planner()
        .plan(&query(
            "SELECT f.v, t.v FROM facts f JOIN tiny t ON f.k = t.k",
        ))
        .unwrap();
    assert_eq!(
        hash_join_dist(&no_synopsis),
        Some(DistJoinStrategy::Broadcast)
    );
    assert!(
        no_synopsis
            .explain()
            .contains("exchange: broadcast (est 20 rows [heuristic])"),
        "{}",
        no_synopsis.explain()
    );

    // Both strategies execute correctly: each tiny key matches 200 fact
    // rows; each huge key below 100 matches 200.
    let rs = execute_query(
        &query("SELECT f.v, t.v FROM facts f JOIN tiny t ON f.k = t.k"),
        &cat,
        1,
    )
    .unwrap();
    assert_eq!(rs.len(), 20 * 200);
    let rs = execute_query(
        &query("SELECT f.v, h.v FROM facts f JOIN huge h ON f.k = h.k"),
        &cat,
        1,
    )
    .unwrap();
    assert_eq!(rs.len(), 100 * 200);
}

/// A table function returning `rows` rows of `(k, label)`; nothing is
/// known about it at plan time (the planner prices it at 100 rows).
struct Labels {
    rows: i64,
}

impl TableFunction for Labels {
    fn schema(&self) -> Schema {
        Schema::of(&[("k", DataType::Int), ("label", DataType::Int)])
    }
    fn invoke(&self, _args: &[Value]) -> Result<ResultSet> {
        let rows = (0..self.rows)
            .map(|i| Row::from_values([Value::Int(i), Value::Int(i * 7)]))
            .collect();
        Ok(ResultSet::new(self.schema(), rows))
    }
}

/// A build side with no synopsis at all (a table function) still gets
/// its exchange decided at plan time and shown in EXPLAIN — broadcast
/// over the 20 000-row probe side, repartition over a 100-row one — and
/// either way the join returns exactly the rows of the same join over a
/// single-node copy of the probe table.
#[test]
fn dist_join_over_a_build_side_without_synopsis_is_planned_and_exact() {
    let mut cat = dist_world();
    cat.functions
        .insert("labels".into(), Arc::new(Labels { rows: 40 }));
    let solo = column_table("solo", 20_000, 100);
    cat.tables.insert(
        "solo".into(),
        TableSource::Column(Arc::new(RwLock::new(solo))),
    );
    let small = DistTable::new(
        "smallfacts",
        Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]),
        PartitionSpec::Hash {
            column: "k".into(),
            partitions: 4,
        },
    )
    .unwrap();
    for i in 0..100i64 {
        small.insert(&[Value::Int(i), Value::Int(i)], 1).unwrap();
    }
    cat.tables.insert(
        "smallfacts".into(),
        TableSource::Distributed(Arc::new(small)),
    );

    let sql = |probe: &str| {
        format!("SELECT f.v, l.label FROM {probe} f JOIN labels() l ON f.k = l.k ORDER BY f.v")
    };
    let broadcast = plan(&cat, &sql("facts"));
    assert!(
        broadcast.explain().contains("exchange: broadcast"),
        "100 estimated build rows x 4 partitions <= 20 000 probe rows:\n{}",
        broadcast.explain()
    );
    let repartition = plan(&cat, &sql("smallfacts"));
    assert!(
        repartition.explain().contains("exchange: repartition"),
        "100 estimated build rows x 4 partitions > 100 probe rows:\n{}",
        repartition.explain()
    );

    let dist = execute_query(&query(&sql("facts")), &cat, 1).unwrap();
    let single = execute_query(&query(&sql("solo")), &cat, 1).unwrap();
    assert_eq!(dist.len(), 40 * 200);
    assert_eq!(dist.rows, single.rows, "dist join ≡ solo join");
    let rs = execute_query(&query(&sql("smallfacts")), &cat, 1).unwrap();
    assert_eq!(rs.len(), 40, "one probe row per label key");
}

// ---------------------------------------------------------------------
// Remote-scan vs semijoin on federated joins.
// ---------------------------------------------------------------------

/// `dim` (100 rows, local, with synopsis) joining IQ table `fact`
/// (20 000 rows) — the Figure 7 shape, with the strategy inputs coming
/// from persisted local statistics and the source's own metadata.
fn sda_world() -> StatsCatalog {
    let mut cat = StatsCatalog::new();
    let dim = column_table("dim", 100, 100);
    cat.stats.put(dim.collect_statistics());
    cat.tables.insert(
        "dim".into(),
        TableSource::Column(Arc::new(RwLock::new(dim))),
    );

    let iq = Arc::new(IqEngine::new("iq-stats", 512).unwrap());
    iq.create_table(
        "fact",
        Schema::of(&[("f_dim", DataType::Int), ("f_val", DataType::Int)]),
    )
    .unwrap();
    let rows: Vec<Row> = (0..20_000i64)
        .map(|i| Row::from_values([Value::Int(i % 100), Value::Int(i)]))
        .collect();
    iq.direct_load("fact", &rows, 1).unwrap();
    let adapter: Arc<dyn SdaAdapter> = Arc::new(IqAdapter::new(Arc::clone(&iq)));
    cat.sda
        .create_remote_source("iqstore", adapter, "internal", None)
        .unwrap();
    cat.tables.insert(
        "fact".into(),
        TableSource::Extended {
            source: "iqstore".into(),
            remote_table: "fact".into(),
            schema: iq.table_schema("fact").unwrap(),
        },
    );
    cat.iq = Some(iq);
    cat
}

/// One query shape, one knob turned — the remote-side selectivity — and
/// the federation strategy flips between remote scan and semijoin.
#[test]
fn federated_join_flips_remote_scan_to_semijoin_on_remote_selectivity() {
    let cat = sda_world();
    let shape = |bound: i64| {
        format!(
            "SELECT d.v, f.f_val FROM dim d JOIN fact f ON d.k = f.f_dim \
             WHERE d.k < 5 AND f.f_val < {bound}"
        )
    };

    // Selective remote filter: pull the 3 matching rows.
    let selective = plan(&cat, &shape(3));
    assert!(
        selective
            .strategies()
            .contains(&FederationStrategy::RemoteScan),
        "selective remote side should be pulled:\n{}",
        selective.explain()
    );

    // Unselective remote filter: ship the 5 local keys instead.
    let unselective = plan(&cat, &shape(19_000));
    assert!(
        unselective
            .strategies()
            .contains(&FederationStrategy::SemiJoin),
        "unselective remote side should be reduced by semijoin:\n{}",
        unselective.explain()
    );
    // Both sides of the decision were statistics-backed.
    assert!(
        unselective.explain().contains("[stats]"),
        "{}",
        unselective.explain()
    );

    // Both strategies compute the same join, correctly.
    let rs = execute_query(&query(&shape(3)), &cat, 1).unwrap();
    assert_eq!(rs.len(), 3, "f_val 0..3 all have f_dim < 5");
    let rs = execute_query(&query(&shape(19_000)), &cat, 1).unwrap();
    assert_eq!(rs.len(), 190 * 5, "190 matches per dim key below 5");
}

// ---------------------------------------------------------------------
// Statistics are advisory.
// ---------------------------------------------------------------------

/// Wildly wrong statistics change the plan, never the answer. Row
/// counts are read live, so the only thing a synopsis can lie about is
/// selectivity.
#[test]
fn stale_statistics_never_change_results() {
    let sql = "SELECT f.v, t.v FROM facts f JOIN tiny t ON f.k = t.k WHERE f.v >= 0";
    let cat = dist_world();
    assert_eq!(
        hash_join_dist(&plan(&cat, sql)),
        Some(DistJoinStrategy::Broadcast)
    );
    let fresh = execute_query(&query(sql), &cat, 1).unwrap();

    // Fabricate partition synopses claiming every `facts.v` is
    // negative: `v >= 0` then looks like it selects nothing, the probe
    // side looks smaller than the build side, and the exchange decision
    // inverts...
    let lying: Vec<(Value, u64)> = (-20..0i64).map(|i| (Value::Int(i), 250)).collect();
    let parts = (0..4)
        .map(|_| TableStatistics {
            table: "facts".into(),
            row_count: 5_000,
            columns: vec![
                ColumnStats::from_frequencies("k", &lying, 0, 8),
                ColumnStats::from_frequencies("v", &lying, 0, 8),
            ],
        })
        .collect();
    cat.stats.put_partitions("facts", parts);
    let stale_plan = plan(&cat, sql);
    assert_eq!(
        hash_join_dist(&stale_plan),
        Some(DistJoinStrategy::Repartition),
        "the lie must flip the exchange:\n{}",
        stale_plan.explain()
    );

    // ...but the rows do not.
    let stale = execute_query(&query(sql), &cat, 1).unwrap();
    let sort = |rs: &hana_types::ResultSet| {
        let mut rows = rs.rows.clone();
        rows.sort();
        rows
    };
    assert_eq!(
        sort(&fresh),
        sort(&stale),
        "stats steered the plan, not the result"
    );

    // Dropping the synopsis entirely is just as harmless.
    cat.stats.remove("tiny");
    cat.stats.remove("facts");
    let none = execute_query(&query(sql), &cat, 1).unwrap();
    assert_eq!(sort(&fresh), sort(&none));
}

// ---------------------------------------------------------------------
// A statement shape plans as the literal statement does.
// ---------------------------------------------------------------------

/// Every flip case above, planned twice: as written, and as its shape —
/// compared literals lifted to slots — with the lifted values beside it.
/// The decisions are made from the values behind the slots, so EXPLAIN
/// is the same text both ways, and executing the shape's plan with its
/// values returns the literal statement's rows.
#[test]
fn a_lifted_shape_plans_and_answers_like_the_literal_statement() {
    let mut greedy = StatsCatalog::new();
    for (name, rows) in [("big", 5_000i64), ("mid", 500), ("small", 50)] {
        let t = column_table(name, rows, 50);
        greedy.stats.put(t.collect_statistics());
        greedy
            .tables
            .insert(name.into(), TableSource::Column(Arc::new(RwLock::new(t))));
    }
    let remote = |bound: i64| {
        format!(
            "SELECT d.v, f.f_val FROM dim d JOIN fact f ON d.k = f.f_dim \
             WHERE d.k < 5 AND f.f_val < {bound}"
        )
    };
    let cases: Vec<(StatsCatalog, Vec<String>)> = vec![
        (
            greedy,
            vec!["SELECT b.v, m.v, s.v FROM big b JOIN mid m ON b.k = m.k \
                 JOIN small s ON m.k = s.k WHERE b.v < 4000 AND s.v <> 7"
                .into()],
        ),
        (
            dist_world(),
            vec![
                "SELECT f.v, t.v FROM facts f JOIN tiny t ON f.k = t.k WHERE f.v >= 0".into(),
                "SELECT f.v, h.v FROM facts f JOIN huge h ON f.k = h.k WHERE h.v < 20000".into(),
                // Partition pruning on the hash column, at plan time and
                // again per run.
                "SELECT f.v, t.v FROM facts f JOIN tiny t ON f.k = t.k WHERE f.k = 3".into(),
                "SELECT k, COUNT(*) FROM facts WHERE k IN (1, 2, 50) AND v > 100 GROUP BY k".into(),
            ],
        ),
        (sda_world(), vec![remote(3), remote(19_000)]),
    ];
    let mut strategies = Vec::new();
    for (cat, sqls) in &cases {
        for sql in sqls {
            let literal = plan(cat, sql);
            let mut shape = query(sql);
            let (_, values) = shape.lift_literals();
            assert!(!values.is_empty(), "{sql}: nothing to lift");
            let planner = PlannerContext::new(cat).planner();
            let lifted = planner.plan_with(&shape, &values).unwrap();
            assert_eq!(lifted.explain_bound(&values), literal.explain(), "{sql}");
            strategies.extend(lifted.strategies());
            if let Some(dist) = hash_join_dist(&lifted) {
                assert_eq!(Some(dist), hash_join_dist(&literal), "{sql}");
            }
            // Priced for these values, the plan does not drift from them.
            assert_eq!(planner.drift(&lifted, &values), None, "{sql}");

            let exec = hana_exec::ExecContext::global();
            let got = hana_query::execute_plan_bound(exec, &lifted, &values, cat, 1).unwrap();
            let mut want = execute_query(&query(sql), cat, 1).unwrap().rows;
            let mut got = got.rows;
            got.sort();
            want.sort();
            assert!(!want.is_empty(), "{sql}: a vacuous comparison");
            assert_eq!(got, want, "{sql}");
        }
    }
    // Both sides of the federated flip were reached through slots.
    assert!(strategies.contains(&FederationStrategy::RemoteScan));
    assert!(strategies.contains(&FederationStrategy::SemiJoin));
}
