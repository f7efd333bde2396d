//! Property tests for the join path.
//!
//! * `hash_join` — whichever input it builds on — returns what a
//!   nested-loop oracle returns, as a multiset, over keys that collide
//!   across types (`Int(2)` = `Double(2.0)`), repeat, and are NULL; and
//!   it returns the same rows in the same order every time (the
//!   benchmark's "every execution equals the set-up pass" relies on a
//!   plan over fixed data being deterministic).
//! * Leaf column pruning changes what a leaf materialises, never what a
//!   query returns: the planner's pruned plan ≡ the same plan with every
//!   leaf widened back to the full table schema.

use std::sync::Arc;

use parking_lot::RwLock;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

use hana_columnar::ColumnTable;
use hana_iq::IqEngine;
use hana_query::{
    execute_plan, Catalog, DistJoinStrategy, EstSource, PlanNode, PlanOp, PlannerContext,
    TableFunction, TableSource,
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

fn join_plan(kind: JoinKind) -> PlanNode {
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
        // Independent sizes: each side is the smaller one in some cases.
        l in arb_side(24),
        r in arb_side(24),
        outer in any::<bool>(),
    ) {
        let kind = if outer { JoinKind::LeftOuter } else { JoinKind::Inner };
        let want = nested_loop(&l, &r, kind);
        let cat = catalog(l, r, ColumnTable::new("t", Schema::of(&[("c0", DataType::Int)])));
        let plan = join_plan(kind);
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
