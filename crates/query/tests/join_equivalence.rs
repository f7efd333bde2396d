//! Property tests for the join path.
//!
//! * `hash_join` — whichever input it builds on — returns what a
//!   nested-loop oracle returns, as a multiset, over keys that collide
//!   across types (`Int(2)` = `Double(2.0)`), repeat, and are NULL; and
//!   it returns the same rows in the same order every time (the
//!   benchmark's "every execution equals the set-up pass" relies on a
//!   plan over fixed data being deterministic).
//! * A probe key read from a dictionary smaller than its rows in play
//!   is looked up once per entry, and the join still equals the
//!   nested loop row for row, in order: NULL entries, entries the build
//!   side lacks, a main and a delta dictionary, LEFT OUTER, a `Double`
//!   entry meeting an `Int` build key — and a dictionary larger than
//!   the rows in play probes per row.
//! * Leaf column pruning changes what a leaf materialises, never what a
//!   query returns: the planner's pruned plan ≡ the same plan with every
//!   leaf widened back to the full table schema.

use std::sync::Arc;

use parking_lot::RwLock;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

use hana_columnar::{ColumnPredicate, ColumnTable};
use hana_iq::IqEngine;
use hana_query::{
    execute_plan, BuildSide, Catalog, DistJoinStrategy, EstSource, Operand, PlanNode, PlanOp,
    PlannerContext, TableFunction, TableSource,
};
use hana_sda::SdaRegistry;
use hana_sql::finish::Epilogue;
use hana_sql::{parse_statement, Expr, JoinKind, Query, Statement};
use hana_types::{DataType, HanaError, Result, ResultSet, Row, Schema, Value};

/// A table function handing back fixed rows: a leaf that, unlike a
/// column table, can hold any mix of value types in one column.
struct Fixed(Schema, Vec<Row>);

impl TableFunction for Fixed {
    fn schema(&self) -> Schema {
        self.0.clone()
    }
    fn invoke(&self, _args: &[Value]) -> Result<ResultSet> {
        Ok(ResultSet::new(self.0.clone(), self.1.clone()))
    }
}

/// Two fixed inputs `l` / `r` and one column table `t`.
struct TestCatalog {
    l: Arc<Fixed>,
    r: Arc<Fixed>,
    t: Arc<RwLock<ColumnTable>>,
    sda: SdaRegistry,
}

impl Catalog for TestCatalog {
    fn resolve_table(&self, name: &str) -> Result<TableSource> {
        match name {
            "t" => Ok(TableSource::Column(Arc::clone(&self.t))),
            _ => Err(HanaError::Catalog(format!("unknown table '{name}'"))),
        }
    }
    fn resolve_function(&self, name: &str) -> Result<Arc<dyn TableFunction>> {
        match name {
            "l" => Ok(Arc::clone(&self.l) as Arc<dyn TableFunction>),
            "r" => Ok(Arc::clone(&self.r) as Arc<dyn TableFunction>),
            _ => Err(HanaError::Catalog(format!("unknown function '{name}'"))),
        }
    }
    fn sda(&self) -> &SdaRegistry {
        &self.sda
    }
    fn iq_engine(&self, source: &str) -> Result<Arc<IqEngine>> {
        Err(HanaError::Catalog(format!(
            "no IQ engine behind '{source}'"
        )))
    }
}

fn side_schema(binding: &str) -> Schema {
    Schema::of(&[
        (&format!("{binding}.k"), DataType::Int),
        (&format!("{binding}.payload"), DataType::Int),
    ])
}

fn catalog(l: Vec<Row>, r: Vec<Row>, t: ColumnTable) -> TestCatalog {
    TestCatalog {
        l: Arc::new(Fixed(side_schema("l"), l)),
        r: Arc::new(Fixed(side_schema("r"), r)),
        t: Arc::new(RwLock::new(t)),
        sda: SdaRegistry::new(),
    }
}

// ---- hash_join ≡ nested loop ----

/// Few distinct keys, so both sides repeat them: NULL, ints, the same
/// numbers as doubles (plus halves no int equals), short strings.
fn arb_key() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-1i64..4).prop_map(Value::Int),
        (-2i64..8).prop_map(|i| Value::Double(i as f64 / 2.0)),
        (0u8..3).prop_map(|i| Value::from(format!("s{i}"))),
    ]
}

fn arb_side(max: usize) -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(arb_key(), 0..max).prop_map(|keys| {
        let rows = keys.into_iter().enumerate();
        rows.map(|(i, k)| Row::from_values([k, Value::Int(i as i64)]))
            .collect()
    })
}

fn join_plan(kind: JoinKind, build: BuildSide) -> PlanNode {
    let leaf = |binding: &str| PlanNode {
        op: PlanOp::FunctionScan {
            binding: binding.into(),
            function: binding.into(),
            args: Vec::new(),
        },
        schema: side_schema(binding),
        est_rows: 1.0,
        est_source: EstSource::Heuristic,
    };
    let (l, r) = (leaf("l"), leaf("r"));
    PlanNode {
        schema: l.schema.join(&r.schema).unwrap(),
        op: PlanOp::HashJoin {
            left: Box::new(l),
            right: Box::new(r),
            left_key: 0,  // l.k
            right_key: 0, // r.k
            kind,
            build,
            dist: DistJoinStrategy::Repartition,
        },
        est_rows: 1.0,
        est_source: EstSource::Heuristic,
    }
}

fn nested_loop(l: &[Row], r: &[Row], kind: JoinKind) -> Vec<Row> {
    let mut out = Vec::new();
    for lr in l {
        let before = out.len();
        for rr in r {
            // `Value`'s own equality has NULL = NULL; SQL's does not.
            if !lr[0].is_null() && lr[0] == rr[0] {
                out.push(lr.clone().concat(rr.clone()));
            }
        }
        if out.len() == before && kind == JoinKind::LeftOuter {
            out.push(lr.clone().concat(Row(vec![Value::Null; 2])));
        }
    }
    out
}

/// Byte-level view of rows (`Value`'s equality treats `2` and `2.0`
/// alike; a join must hand back the stored one).
fn rendered(rows: &[Row]) -> Vec<String> {
    rows.iter().map(|r| format!("{r:?}")).collect()
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

proptest! {
    #[test]
    fn hash_join_equals_nested_loop_on_either_build_side(
        l in arb_side(24),
        r in arb_side(24),
        outer in any::<bool>(),
        build_left in any::<bool>(),
    ) {
        // A LEFT OUTER join always builds right.
        let (kind, build) = match (outer, build_left) {
            (true, _) => (JoinKind::LeftOuter, BuildSide::Right),
            (false, true) => (JoinKind::Inner, BuildSide::Left),
            (false, false) => (JoinKind::Inner, BuildSide::Right),
        };
        let want = nested_loop(&l, &r, kind);
        let cat = catalog(l, r, ColumnTable::new("t", Schema::of(&[("c0", DataType::Int)])));
        let plan = join_plan(kind, build);
        let first = execute_plan(&plan, &cat, 1).unwrap();
        let second = execute_plan(&plan, &cat, 1).unwrap();
        prop_assert_eq!(first.schema.len(), 4);
        prop_assert_eq!(sorted(rendered(&first.rows)), sorted(rendered(&want)));
        prop_assert_eq!(rendered(&first.rows), rendered(&second.rows));
    }
}

// ---- pruned plan ≡ unpruned plan ----

const COLUMNS: [(&str, DataType); 6] = [
    ("c0", DataType::Int),
    ("c1", DataType::Int),
    ("c2", DataType::Double),
    ("c3", DataType::Varchar),
    ("c4", DataType::Int),
    ("c5", DataType::Int),
];

fn six_column_table(rng: &mut TestRng) -> ColumnTable {
    let mut t = ColumnTable::new("t", Schema::of(&COLUMNS));
    for i in 0..40 + rng.below(40) {
        let c4 = match rng.below(4) {
            0 => Value::Null,
            _ => Value::Int(rng.below(5) as i64),
        };
        let row = [
            Value::Int(rng.below(12) as i64),
            Value::Int(rng.below(4) as i64),
            Value::Double(rng.below(20) as f64 / 4.0),
            Value::from(["ab", "b", "zz"][rng.below(3) as usize]),
            c4,
            Value::Int(i as i64),
        ];
        t.insert(&row, 1).unwrap();
        // Rows in both fragments.
        if i == 30 {
            t.merge_delta();
        }
    }
    t.create_index("ix_c0", &["c0".to_string()]).unwrap();
    t
}

/// A predicate over the columns of binding prefix `p` (`""` or `"a."`):
/// shapes the scan kernels take, shapes the index takes, and shapes only
/// the expression engine evaluates (a Filter above the leaf).
fn random_pred(rng: &mut TestRng, p: &str) -> String {
    match rng.below(7) {
        0 => format!("{p}c0 = {}", rng.below(12)),
        1 => format!("{p}c1 < {}", rng.below(4)),
        2 => format!("{p}c2 >= {}.5", rng.below(4)),
        3 => format!("{p}c3 LIKE 'a%'"),
        4 => format!("{p}c4 IS NOT NULL"),
        5 => format!("{p}c0 + {p}c1 > {}", rng.below(10)),
        _ => format!("({p}c1 = 1 OR {p}c5 < {})", rng.below(60)),
    }
}

fn random_where(rng: &mut TestRng, p: &str) -> String {
    let preds: Vec<String> = (0..rng.below(3)).map(|_| random_pred(rng, p)).collect();
    if preds.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", preds.join(" AND "))
    }
}

fn random_query(rng: &mut TestRng) -> String {
    let col = |rng: &mut TestRng| format!("c{}", rng.below(6));
    match rng.below(4) {
        // Plain projection, ordered by a column the list may not name.
        0 => {
            let items: Vec<String> = (0..1 + rng.below(3))
                .map(|_| match rng.below(4) {
                    0 => format!("c{} + c5 AS e", rng.below(2)),
                    _ => col(rng),
                })
                .collect();
            let filter = random_where(rng, "");
            format!("SELECT {} FROM t{filter} ORDER BY c5", items.join(", "))
        }
        // Grouped: the single-column shape the fused path takes, and a
        // two-column one it does not.
        1 => {
            let g = ["c1", "c3", "c4"][rng.below(3) as usize];
            let filter = random_where(rng, "");
            format!("SELECT {g}, COUNT(*) AS n, SUM(c5) AS s FROM t{filter} GROUP BY {g}")
        }
        2 => {
            let filter = random_where(rng, "");
            format!(
                "SELECT c1, c3, MIN(c2) AS lo FROM t{filter} GROUP BY c1, c3 HAVING COUNT(*) > 1"
            )
        }
        // Self join: both bindings have every column name.
        _ => {
            let filter = random_where(rng, "a.");
            format!(
                "SELECT a.{}, b.{} FROM t a JOIN t b ON a.c1 = b.c4{filter} ORDER BY a.c5, b.c5",
                col(rng),
                col(rng)
            )
        }
    }
}

/// Undo the planner's pruning: every column-table leaf hands back the
/// whole table again, and the operators above it read the same columns
/// at their new positions.
fn widen(node: &mut PlanNode, q: &Query) {
    match &mut node.op {
        PlanOp::ColumnScan {
            binding,
            projection,
            ..
        }
        | PlanOp::IndexSeek {
            binding,
            projection,
            ..
        } => {
            node.schema = Schema::of(&COLUMNS).qualified(binding);
            *projection = (0..COLUMNS.len()).collect();
        }
        PlanOp::Filter { input, pred } => {
            let before = input.schema.clone();
            widen(input, q);
            moved(pred, &before, &input.schema);
            node.schema = input.schema.clone();
        }
        PlanOp::HashJoin {
            left,
            right,
            left_key,
            right_key,
            ..
        } => {
            let (l, r) = (left.schema.clone(), right.schema.clone());
            widen(left, q);
            widen(right, q);
            *left_key = at(*left_key, &l, &left.schema);
            *right_key = at(*right_key, &r, &right.schema);
            node.schema = left.schema.join(&right.schema).unwrap();
        }
        PlanOp::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let before = input.schema.clone();
            widen(input, q);
            let args = aggs.iter_mut().filter_map(|(_, a)| a.as_mut());
            for e in group_by.iter_mut().chain(args) {
                moved(e, &before, &input.schema);
            }
        }
        PlanOp::Finish { input, epilogue } => {
            widen(input, q);
            *epilogue = Epilogue::new(&input.schema, q, &[]).unwrap();
        }
        other => panic!("unexpected operator {other:?}"),
    }
}

/// The position in `after` of column `i` of `before`.
fn at(i: usize, before: &Schema, after: &Schema) -> usize {
    after.index_of(&before.column(i).name).unwrap()
}

/// `e`, which reads rows of `before`, reading the same columns of rows
/// of `after`.
fn moved(e: &mut Expr, before: &Schema, after: &Schema) {
    e.walk_mut(&mut |n| {
        if let Expr::Field(i) = n {
            *i = at(*i, before, after);
        }
    });
}

fn leaf_widths(node: &PlanNode, out: &mut Vec<usize>) {
    match &node.op {
        PlanOp::ColumnScan { .. } | PlanOp::IndexSeek { .. } => out.push(node.schema.len()),
        PlanOp::HashJoin { left, right, .. } => {
            leaf_widths(left, out);
            leaf_widths(right, out);
        }
        PlanOp::Filter { input, .. }
        | PlanOp::Aggregate { input, .. }
        | PlanOp::Finish { input, .. } => leaf_widths(input, out),
        other => panic!("unexpected operator {other:?}"),
    }
}

proptest! {
    #[test]
    fn pruned_plan_equals_the_plan_over_all_columns(seed in any::<u64>()) {
        let mut rng = TestRng::deterministic(&format!("pruning-{seed}"));
        let cat = catalog(Vec::new(), Vec::new(), six_column_table(&mut rng));
        let sql = random_query(&mut rng);
        let Statement::Query(q) = parse_statement(&sql).unwrap() else {
            panic!("not a query: {sql}")
        };
        let pruned = PlannerContext::new(&cat).planner().plan(&q).unwrap();
        let mut full = pruned.clone();
        widen(&mut full, &q);

        let mut widths = Vec::new();
        leaf_widths(&pruned, &mut widths);
        prop_assert!(widths.iter().all(|w| (1..=6).contains(w)), "{}: {:?}", sql, widths);

        let got = execute_plan(&pruned, &cat, 1).unwrap();
        let want = execute_plan(&full, &cat, 1).unwrap();
        prop_assert_eq!(&got.schema, &want.schema, "{}", sql);
        prop_assert_eq!(rendered(&got.rows), rendered(&want.rows), "{}", sql);
    }
}

// ---- per-entry probes ≡ nested loop ----

/// `SELECT * FROM t JOIN r ON t.k = r.k` (or LEFT JOIN), built on `r`,
/// `t`'s rows in play narrowed by `t.payload < below` at the leaf and,
/// with `filter`, by a `Filter` between the leaf and the join.
fn probe_plan(kind: JoinKind, t_type: DataType, below: i64, filter: Option<&str>) -> PlanNode {
    let t_schema = Schema::of(&[("t.k", t_type), ("t.payload", DataType::Int)]);
    let mut t = PlanNode {
        op: PlanOp::ColumnScan {
            binding: "t".into(),
            table: "t".into(),
            preds: vec![(
                "payload".into(),
                ColumnPredicate::Lt(Operand::Lit(Value::Int(below))),
            )],
            projection: vec![0, 1],
        },
        schema: t_schema,
        est_rows: 1.0,
        est_source: EstSource::Heuristic,
    };
    if let Some(sql) = filter {
        let Ok(Statement::Query(q)) = parse_statement(&format!("SELECT * FROM t WHERE {sql}"))
        else {
            panic!("not a query: {sql}")
        };
        let pred = q.filter.unwrap().positional(&t.schema).unwrap();
        let schema = t.schema.clone();
        t = PlanNode {
            op: PlanOp::Filter {
                pred,
                input: Box::new(t),
            },
            schema,
            est_rows: 1.0,
            est_source: EstSource::Heuristic,
        };
    }
    let r = PlanNode {
        op: PlanOp::FunctionScan {
            binding: "r".into(),
            function: "r".into(),
            args: Vec::new(),
        },
        schema: side_schema("r"),
        est_rows: 1.0,
        est_source: EstSource::Heuristic,
    };
    PlanNode {
        schema: t.schema.join(&r.schema).unwrap(),
        op: PlanOp::HashJoin {
            left: Box::new(t),
            right: Box::new(r),
            left_key: 0,
            right_key: 0,
            kind,
            build: BuildSide::Right,
            dist: DistJoinStrategy::Repartition,
        },
        est_rows: 1.0,
        est_source: EstSource::Heuristic,
    }
}

/// A two-column table `(k, payload)` of `keys`, payload the row number:
/// the first `main` rows merged into the main fragment, the rest left
/// in the delta, whose leaf batch carries a dictionary of its own.
fn keyed_table(t_type: DataType, keys: &[Value], main: usize) -> ColumnTable {
    let schema = Schema::of(&[("k", t_type), ("payload", DataType::Int)]);
    let mut t = ColumnTable::new("t", schema);
    for (i, k) in keys.iter().enumerate() {
        t.insert(&[k.clone(), Value::Int(i as i64)], 1).unwrap();
        if i + 1 == main {
            t.merge_delta();
        }
    }
    t
}

/// Run `plan` under a tracer: its rows and its join's `probe_entries`.
fn run_traced(plan: &PlanNode, cat: &TestCatalog) -> (Vec<Row>, u64) {
    let tracer = hana_obs::Tracer::new();
    let rows = {
        let _installed = tracer.install();
        execute_plan(plan, cat, 1).unwrap().rows
    };
    let profile = tracer.profile();
    let join = profile.find("hash_join").expect("hash_join span");
    let entries = join.attrs.iter().find(|(n, _)| n == "probe_entries");
    (rows, entries.expect("probe_entries attr").1)
}

/// One per-entry case: the join of `t` (`keys`, `main` of them merged)
/// and `r` (`build` keys) equals the nested loop over `t`'s rows in
/// play, row for row in order; `per_entry` says whether the probe key's
/// entries were looked up (the dictionaries were smaller than the rows).
fn assert_probe(
    kind: JoinKind,
    t_type: DataType,
    keys: &[Value],
    main: usize,
    build: &[Value],
    below: i64,
    per_entry: bool,
) {
    let t = keyed_table(t_type, keys, main);
    let l: Vec<Row> = (keys.iter().enumerate())
        .filter(|&(i, _)| (i as i64) < below)
        .map(|(i, k)| Row::from_values([k.clone(), Value::Int(i as i64)]))
        .collect();
    let r: Vec<Row> = (build.iter().enumerate())
        .map(|(i, k)| Row::from_values([k.clone(), Value::Int(100 + i as i64)]))
        .collect();
    let want = nested_loop(&l, &r, kind);
    let cat = catalog(Vec::new(), r, t);
    let (got, entries) = run_traced(&probe_plan(kind, t_type, below, None), &cat);
    assert_eq!(rendered(&got), rendered(&want), "{kind:?} {keys:?}");
    assert_eq!(entries > 0, per_entry, "probe_entries {entries}");
}

/// Ints `0..distinct` over `n` rows, every `null_every`-th row NULL.
fn ints(n: usize, distinct: i64, null_every: usize) -> Vec<Value> {
    (0..n)
        .map(|i| match i % null_every {
            0 => Value::Null,
            _ => Value::Int((i as i64 * 7) % distinct),
        })
        .collect()
}

#[test]
fn per_entry_probes_skip_nulls_and_absent_keys_in_both_fragments() {
    // Keys 0..6 with NULLs, in a main and a delta dictionary; the build
    // side holds 1, 3, 5 (twice) and 9, which no probe row has.
    let keys = ints(300, 6, 11);
    let build = [1, 3, 5, 5, 9].map(Value::Int);
    for main in [300, 170, 0] {
        for kind in [JoinKind::Inner, JoinKind::LeftOuter] {
            assert_probe(kind, DataType::Int, &keys, main, &build, 300, true);
        }
    }
}

#[test]
fn a_double_entry_meets_an_integer_build_key() {
    // `t.k` is DOUBLE: its dictionary holds 2.0, 2.5 and -0.0; the
    // build side's integers meet 2.0 and 0.0 (-0.0 = 0).
    let keys: Vec<Value> = (0..200)
        .map(|i| match i % 4 {
            0 => Value::Double(2.0),
            1 => Value::Double(2.5),
            2 => Value::Double(-0.0),
            _ => Value::Null,
        })
        .collect();
    let build = [2, 0, 7].map(Value::Int);
    for kind in [JoinKind::Inner, JoinKind::LeftOuter] {
        assert_probe(kind, DataType::Double, &keys, 120, &build, 200, true);
    }
}

#[test]
fn a_dictionary_larger_than_the_rows_in_play_probes_per_row() {
    // 150 distinct keys, 40 rows in play: every row looks itself up.
    let keys: Vec<Value> = (0..300).map(|i| Value::Int(i % 150)).collect();
    let build: Vec<Value> = (0..20).map(|i| Value::Int(i * 3)).collect();
    for kind in [JoinKind::Inner, JoinKind::LeftOuter] {
        assert_probe(kind, DataType::Int, &keys, 300, &build, 40, false);
        // Main and delta: each dictionary is weighed against its rows.
        assert_probe(kind, DataType::Int, &keys, 20, &build, 40, false);
    }
}

// ---- key filters ≡ nested loop ----

/// A `Filter` between the probe leaf and the join: its SQL over `t`, and
/// which payloads it keeps.
type RowFilter<'a> = (&'a str, fn(i64) -> bool);

/// One key-filter case: the inner join of `t` (`keys` of `t_type`, the
/// first `main` merged, the rows with `payload < below` in play, read
/// through `filter` when given) with `r` (`build` keys), built on `r`,
/// equals the nested loop over `t`'s rows in play, row for row in order;
/// `applied` says whether `t`'s leaf applied the build keys (its
/// `key_filter` attribute). Returns the rows the leaf handed over.
fn assert_keyed(
    t_type: DataType,
    keys: &[Value],
    main: usize,
    build: &[Value],
    below: i64,
    filter: Option<RowFilter>,
    applied: bool,
) -> usize {
    let t = keyed_table(t_type, keys, main);
    let kept = |i: i64| i < below && filter.is_none_or(|(_, keep)| keep(i));
    let l: Vec<Row> = (keys.iter().enumerate())
        .filter(|&(i, _)| kept(i as i64))
        .map(|(i, k)| Row::from_values([k.clone(), Value::Int(i as i64)]))
        .collect();
    let r: Vec<Row> = (build.iter().enumerate())
        .map(|(i, k)| Row::from_values([k.clone(), Value::Int(100 + i as i64)]))
        .collect();
    let want = nested_loop(&l, &r, JoinKind::Inner);
    let cat = catalog(Vec::new(), r, t);
    let plan = probe_plan(JoinKind::Inner, t_type, below, filter.map(|(sql, _)| sql));
    let tracer = hana_obs::Tracer::new();
    let got = {
        let _installed = tracer.install();
        execute_plan(&plan, &cat, 1).unwrap().rows
    };
    assert_eq!(
        rendered(&got),
        rendered(&want),
        "{keys:?} against {build:?}"
    );
    let profile = tracer.profile();
    let leaf = profile.find("column_scan[t]").expect("leaf span");
    let key_filter = leaf.attrs.iter().find(|(n, _)| n == "key_filter");
    assert_eq!(key_filter.is_some(), applied, "{}", profile.render());
    let read = leaf.rows.expect("leaf rows") as usize;
    if applied {
        // The leaf keeps every row a build key can match, and drops some.
        let can_match = |k: &Value| build.iter().any(|b| !b.is_null() && b == k);
        let in_play =
            (keys.iter().enumerate()).filter(|&(i, k)| (i as i64) < below && can_match(k));
        assert!(read >= in_play.count(), "{}", profile.render());
        assert!(
            read < keys.len().min(below as usize),
            "{}",
            profile.render()
        );
    }
    read
}

/// Distinct ints `0..n`, one a row, in a scrambled order.
fn distinct_ints(n: i64) -> Vec<Value> {
    (0..n).map(|i| Value::Int((i * 7_919) % n)).collect()
}

#[test]
fn an_empty_or_all_null_build_side_reads_no_probe_row() {
    let keys = ints(300, 150, 11);
    for build in [vec![], vec![Value::Null; 3]] {
        for main in [300, 170, 0] {
            assert_eq!(
                assert_keyed(DataType::Int, &keys, main, &build, 300, None, true),
                0
            );
        }
    }
}

#[test]
fn build_keys_absent_from_the_probe_dictionary_read_no_probe_row() {
    let keys = distinct_ints(200);
    let build = [500, 900, -4, 1_000].map(Value::Int);
    for main in [200, 0] {
        assert_eq!(
            assert_keyed(DataType::Int, &keys, main, &build, 200, None, true),
            0
        );
    }
}

#[test]
fn listed_and_dense_build_keys_filter_main_and_delta_rows() {
    let keys = distinct_ints(400);
    // Scattered keys (an IN list), then consecutive ones (a range), in
    // the main fragment, across both, and only in the delta.
    let scattered: Vec<Value> = (0..40).map(|i| Value::Int(i * 9 + 3)).collect();
    let dense: Vec<Value> = (100..160).chain(100..110).map(Value::Int).collect();
    for build in [&scattered, &dense] {
        for main in [400, 250, 0] {
            assert_keyed(DataType::Int, &keys, main, build, 400, None, true);
        }
    }
}

#[test]
fn build_keys_above_the_cap_filter_by_their_range_unless_it_covers_the_column() {
    // 20 000 distinct probe entries: up to 5 000 build keys pass the
    // quarter, and over 4 096 only their least and greatest are kept.
    // Rows in play are cut at the leaf so the nested loop stays small.
    let keys = distinct_ints(20_000);
    let odd: Vec<Value> = (0..4_500).map(|i| Value::Int(2 * i + 1)).collect();
    assert_keyed(DataType::Int, &keys, 20_000, &odd, 400, None, true);
    let mut covering: Vec<Value> = (0..4_500).map(|i| Value::Int(2 * i)).collect();
    covering.push(Value::Int(19_999));
    assert_keyed(DataType::Int, &keys, 20_000, &covering, 400, None, false);
}

#[test]
fn build_keys_above_a_quarter_of_the_probe_dictionary_filter_nothing() {
    let keys = distinct_ints(200);
    let many: Vec<Value> = (0..51).map(|i| Value::Int(i * 3)).collect();
    let quarter: Vec<Value> = (0..50).map(|i| Value::Int(i * 3)).collect();
    assert_keyed(DataType::Int, &keys, 200, &many, 200, None, false);
    assert_keyed(DataType::Int, &keys, 200, &quarter, 200, None, true);
}

#[test]
fn integer_build_keys_meet_double_probe_keys_and_the_reverse() {
    // Halves 0.0 .. 149.5 and -0.0: an integer key meets its double,
    // and a dense integer range lets halves through for the join to drop.
    let mut halves: Vec<Value> = (0..300).map(|i| Value::Double(i as f64 / 2.0)).collect();
    halves[0] = Value::Double(-0.0);
    for build in [vec![2, 0, 7, 400], vec![10, 11, 12, 13]] {
        let build: Vec<Value> = build.into_iter().map(Value::Int).collect();
        for main in [300, 120, 0] {
            assert_keyed(DataType::Double, &halves, main, &build, 300, None, true);
        }
    }
    let keys = distinct_ints(200);
    let doubles = [2.0, 3.5, -0.0, 150.0].map(Value::Double);
    let mixed = [Value::Double(4.0), Value::Int(5), Value::Double(6.5)];
    for build in [&doubles[..], &mixed[..]] {
        for main in [200, 90, 0] {
            assert_keyed(DataType::Int, &keys, main, build, 200, None, true);
        }
    }
}

#[test]
fn a_filter_between_the_join_and_the_leaf_passes_the_build_keys_down() {
    let keys = distinct_ints(300);
    let build: Vec<Value> = (0..30).map(|i| Value::Int(i * 11)).collect();
    let filter: RowFilter = ("t.payload > 20", |i| i > 20);
    for main in [300, 100, 0] {
        assert_keyed(DataType::Int, &keys, main, &build, 300, Some(filter), true);
    }
}
