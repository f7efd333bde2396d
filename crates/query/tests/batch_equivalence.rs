//! The batch executor against a row-at-a-time oracle.
//!
//! Plans over two column tables — main rows, delta rows and deleted
//! rows on both sides of the boundary; NULLs; Int, Double, Varchar and
//! Date columns; `Int(2)` / `Double(2.0)` and `-0.0` / `0.0` — run
//! through the executor on two execution contexts (one morsel, and
//! 64-row morsels on four workers) and through an oracle written here:
//! `hana_sql::evaluate` over `ColumnTable::snapshot_rows`, one row at a
//! time. Filters mix AND / OR / NOT / CASE / IN / BETWEEN / LIKE and
//! shapes only short-circuiting keeps from failing (`x = 0 OR 1 / x >
//! 2`); group-bys take several keys, NULL keys and expression keys;
//! joins are inner and left outer over NULL and repeated keys. Results
//! must agree as multisets (doubles within 1e-9 relative), and an error
//! must occur on the same inputs, of the same kind.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

use hana_columnar::ColumnTable;
use hana_exec::{ExecConfig, ExecContext};
use hana_iq::IqEngine;
use hana_query::{
    execute_plan_with, Catalog, DistJoinStrategy, EstSource, PlanNode, PlanOp, TableSource,
};
use hana_sda::SdaRegistry;
use hana_sql::{evaluate, evaluate_predicate, parse_statement, Expr, JoinKind, Statement};
use hana_types::{Accumulator, AggFunc, DataType, Date, HanaError, Result, Row, Schema, Value};

/// The snapshot every plan reads.
const CID: u64 = 3;

struct TestCatalog {
    a: Arc<RwLock<ColumnTable>>,
    b: Arc<RwLock<ColumnTable>>,
    sda: SdaRegistry,
}

impl Catalog for TestCatalog {
    fn resolve_table(&self, name: &str) -> Result<TableSource> {
        match name {
            "a" => Ok(TableSource::Column(Arc::clone(&self.a))),
            "b" => Ok(TableSource::Column(Arc::clone(&self.b))),
            _ => Err(HanaError::Catalog(format!("unknown table '{name}'"))),
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

/// `a.k` holds integers, `b.k` doubles: the join meets `Int(2)` with
/// `Double(2.0)`.
fn schema(key: DataType) -> Schema {
    Schema::of(&[
        ("i", DataType::Int),
        ("d", DataType::Double),
        ("s", DataType::Varchar),
        ("t", DataType::Date),
        ("k", key),
    ])
}

fn pick<T: Clone>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize].clone()
}

fn maybe_null(rng: &mut TestRng, v: Value) -> Value {
    if rng.below(7) == 0 {
        Value::Null
    } else {
        v
    }
}

fn random_row(rng: &mut TestRng, key: DataType) -> Vec<Value> {
    let i = match rng.below(12) {
        0 => 4_000_000_000, // squares overflow
        n => n as i64 - 3,
    };
    let d = pick(rng, &[0.0, -0.0, 0.5, 1.0, 2.0, 2.5, -1.5, 4.0]);
    // A double column that also stores integers.
    let d = if rng.below(5) == 0 {
        Value::Int(d as i64)
    } else {
        Value::Double(d)
    };
    let s = pick(rng, &["a", "ab", "b%", "", "x_y", "PROMO x"]);
    let t = Date::from_ymd(1995, 1 + rng.below(3) as u32, 1 + rng.below(3) as u32);
    let k = match key {
        DataType::Double => Value::Double(rng.below(8) as f64 / 2.0),
        _ => Value::Int(rng.below(5) as i64),
    };
    vec![
        maybe_null(rng, Value::Int(i)),
        maybe_null(rng, d),
        maybe_null(rng, Value::from(s)),
        maybe_null(rng, Value::Date(t)),
        maybe_null(rng, k),
    ]
}

/// Rows in main and delta, deletions on both sides of the boundary,
/// and rows a snapshot at [`CID`] does not see yet.
fn table(rng: &mut TestRng, name: &str, key: DataType) -> ColumnTable {
    let mut t = ColumnTable::new(name, schema(key));
    let main = 40 + rng.below(120) as usize;
    for _ in 0..main {
        t.insert(&random_row(rng, key), 1).unwrap();
    }
    t.merge_delta();
    for _ in 0..rng.below(80) {
        t.insert(&random_row(rng, key), 2).unwrap();
    }
    for _ in 0..rng.below(4) {
        t.insert(&random_row(rng, key), CID + 1).unwrap();
    }
    for row in 0..t.row_count() {
        if rng.below(9) == 0 {
            t.delete(row, 2).unwrap();
        }
    }
    t
}

// ---- expressions, as SQL text over binding `p` ----

fn num(rng: &mut TestRng, depth: u32, p: &str) -> String {
    if depth == 0 || rng.below(3) == 0 {
        return match rng.below(6) {
            0 | 1 => format!("{p}.i"),
            2 | 3 => format!("{p}.d"),
            4 => pick(rng, &["0", "1", "2", "-3"]).to_string(),
            _ => pick(rng, &["2.0", "-0.0", "0.5", "NULL"]).to_string(),
        };
    }
    let d = depth - 1;
    match rng.below(5) {
        0 => format!("-({})", num(rng, d, p)),
        1 => format!(
            "CASE WHEN {} THEN {} ELSE {} END",
            pred(rng, d, p),
            num(rng, d, p),
            num(rng, d, p)
        ),
        _ => {
            let op = pick(rng, &["+", "-", "*", "/"]);
            format!("({} {op} {})", num(rng, d, p), num(rng, d, p))
        }
    }
}

fn pred(rng: &mut TestRng, depth: u32, p: &str) -> String {
    let cmp = |rng: &mut TestRng| pick(rng, &["=", "<>", "<", "<=", ">", ">="]);
    if depth == 0 || rng.below(3) == 0 {
        return match rng.below(12) {
            0 => format!("{} {} {}", num(rng, 1, p), cmp(rng), num(rng, 1, p)),
            1 => format!("{p}.s {} {}", cmp(rng), pick(rng, &["'ab'", "''", "'b%'"])),
            2 => format!("{p}.t {} DATE '1995-02-02'", cmp(rng)),
            3 => format!(
                "{p}.s {}LIKE {}",
                pick(rng, &["", "NOT "]),
                pick(rng, &["'a%'", "'%\\_%'", "'_'", "'PROMO%'", "'%'"])
            ),
            4 => format!(
                "{} {}IN ({}, {})",
                num(rng, 1, p),
                pick(rng, &["", "NOT "]),
                num(rng, 0, p),
                num(rng, 0, p)
            ),
            5 => format!("{p}.s IN ('a', 'x_y', NULL)"),
            6 => format!(
                "{} {}BETWEEN {} AND {}",
                num(rng, 1, p),
                pick(rng, &["", "NOT "]),
                num(rng, 0, p),
                num(rng, 0, p)
            ),
            7 => format!("{p}.t BETWEEN DATE '1995-01-02' AND DATE '1995-02-03'"),
            8 => format!("{} IS {}NULL", num(rng, 1, p), pick(rng, &["", "NOT "])),
            // Only the short circuit keeps the division from failing.
            9 => format!("({p}.i = 0 OR 1 / {p}.i > 2)"),
            10 => format!("({p}.d <> 0 AND 3 / {p}.d < 2)"),
            // Type errors, some of them short-circuited away.
            _ => pick(
                rng,
                &[
                    format!("({p}.s + 1 > 0)"),
                    format!("NOT {p}.i"),
                    format!("({p}.i IS NULL AND NOT {p}.s)"),
                ],
            ),
        };
    }
    let d = depth - 1;
    match rng.below(4) {
        0 => format!("({} AND {})", pred(rng, d, p), pred(rng, d, p)),
        1 => format!("({} OR {})", pred(rng, d, p), pred(rng, d, p)),
        2 => format!("NOT ({})", pred(rng, d, p)),
        _ => format!(
            "CASE WHEN {} THEN {} ELSE {} END",
            pred(rng, d, p),
            pred(rng, d, p),
            pred(rng, d, p)
        ),
    }
}

/// A predicate, or now and then a value that is not one.
fn filter(rng: &mut TestRng, p: &str) -> String {
    match rng.below(15) {
        0 => num(rng, 1, p),
        _ => pred(rng, 3, p),
    }
}

fn expr(sql: &str) -> Expr {
    let text = format!("SELECT * FROM a WHERE {sql}");
    let Ok(Statement::Query(q)) = parse_statement(&text) else {
        panic!("generated SQL does not parse: {text}")
    };
    q.filter.expect("a WHERE clause")
}

// ---- plans ----

fn node(op: PlanOp, schema: Schema) -> PlanNode {
    PlanNode {
        op,
        schema,
        est_rows: 1.0,
        est_source: EstSource::Heuristic,
    }
}

fn scan(cat: &TestCatalog, name: &str) -> PlanNode {
    let t = if name == "a" { &cat.a } else { &cat.b };
    let schema = t.read().schema().qualified(name);
    let op = PlanOp::ColumnScan {
        binding: name.into(),
        table: name.into(),
        preds: Vec::new(),
    };
    node(op, schema)
}

fn filtered(input: PlanNode, pred: Expr) -> PlanNode {
    let schema = input.schema.clone();
    node(
        PlanOp::Filter {
            input: Box::new(input),
            pred,
        },
        schema,
    )
}

fn join(cat: &TestCatalog, kind: JoinKind) -> PlanNode {
    let (l, r) = (scan(cat, "a"), scan(cat, "b"));
    let schema = l.schema.join(&r.schema).unwrap();
    let op = PlanOp::HashJoin {
        left: Box::new(l),
        right: Box::new(r),
        left_key: "a.k".into(),
        right_key: "b.k".into(),
        kind,
        dist: DistJoinStrategy::Repartition,
    };
    node(op, schema)
}

type AggCall = (AggFunc, Option<Expr>);

fn aggregate(input: PlanNode, keys: Vec<Expr>, aggs: Vec<AggCall>) -> PlanNode {
    let names = (0..keys.len()).map(|i| format!("_g{i}"));
    let names = names.chain((0..aggs.len()).map(|i| format!("_a{i}")));
    let cols: Vec<(String, DataType)> = names.map(|n| (n, DataType::Varchar)).collect();
    let cols: Vec<(&str, DataType)> = cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let op = PlanOp::Aggregate {
        input: Box::new(input),
        group_by: keys,
        aggs,
    };
    node(op, Schema::of(&cols))
}

fn random_keys(rng: &mut TestRng, p: &str) -> Vec<Expr> {
    let pool = [
        format!("{p}.s"),
        format!("{p}.i"),
        format!("{p}.d"),
        format!("{p}.t"),
        format!("{p}.k"),
        format!("{p}.i + 1"),
        format!("CASE WHEN {p}.d > 1 THEN {p}.s ELSE NULL END"),
        format!("{p}.i * {p}.i"),
    ];
    (0..rng.below(4)).map(|_| expr(&pick(rng, &pool))).collect()
}

fn random_aggs(rng: &mut TestRng, p: &str) -> Vec<AggCall> {
    let mut aggs = vec![(AggFunc::CountStar, None)];
    for _ in 0..1 + rng.below(4) {
        let f = pick(
            rng,
            &[
                AggFunc::Count,
                AggFunc::Sum,
                AggFunc::Avg,
                AggFunc::Min,
                AggFunc::Max,
            ],
        );
        let arg = match f {
            AggFunc::Count | AggFunc::Min | AggFunc::Max => {
                let n = num(rng, 1, p);
                pick(rng, &[format!("{p}.s"), format!("{p}.t"), n])
            }
            _ => num(rng, 2, p),
        };
        aggs.push((f, Some(expr(&arg))));
    }
    aggs
}

// ---- the oracle ----

fn rows(cat: &TestCatalog, name: &str) -> Vec<Row> {
    let t = if name == "a" { &cat.a } else { &cat.b };
    t.read().snapshot_rows(CID)
}

fn oracle(cat: &TestCatalog, plan: &PlanNode) -> Result<Vec<Row>> {
    match &plan.op {
        PlanOp::ColumnScan { table, .. } => Ok(rows(cat, table)),
        PlanOp::Filter { input, pred } => {
            let pred = pred.resolve(&input.schema, &[])?;
            let mut kept = Vec::new();
            for r in oracle(cat, input)? {
                if evaluate_predicate(&pred, &r)? {
                    kept.push(r);
                }
            }
            Ok(kept)
        }
        PlanOp::HashJoin {
            left, right, kind, ..
        } => {
            let (l, r) = (oracle(cat, left)?, oracle(cat, right)?);
            let mut out = Vec::new();
            for lr in &l {
                let before = out.len();
                for rr in &r {
                    // SQL equality: NULL meets nothing.
                    if !lr[4].is_null() && lr[4] == rr[4] {
                        out.push(lr.clone().concat(rr.clone()));
                    }
                }
                if out.len() == before && *kind == JoinKind::LeftOuter {
                    out.push(
                        lr.clone()
                            .concat(Row(vec![Value::Null; right.schema.len()])),
                    );
                }
            }
            Ok(out)
        }
        PlanOp::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let resolve = |e: &Expr| e.resolve(&input.schema, &[]);
            let keys = group_by.iter().map(resolve).collect::<Result<Vec<_>>>()?;
            let args = aggs
                .iter()
                .map(|(_, a)| a.as_ref().map(resolve).transpose());
            let args = args.collect::<Result<Vec<_>>>()?;
            let mut order: Vec<Vec<Value>> = Vec::new();
            let mut groups: HashMap<Vec<Value>, Vec<Accumulator>> = HashMap::new();
            for r in oracle(cat, input)? {
                let key = keys
                    .iter()
                    .map(|k| evaluate(k, &r))
                    .collect::<Result<Vec<_>>>()?;
                if !groups.contains_key(&key) {
                    order.push(key.clone());
                    groups.insert(
                        key.clone(),
                        aggs.iter().map(|(f, _)| f.accumulator()).collect(),
                    );
                }
                let accs = groups.get_mut(&key).expect("just inserted");
                for (acc, arg) in accs.iter_mut().zip(&args) {
                    match arg {
                        Some(e) => acc.add(&evaluate(e, &r)?),
                        None => acc.add(&Value::Null),
                    }
                }
            }
            if order.is_empty() && keys.is_empty() {
                order.push(Vec::new());
                groups.insert(
                    Vec::new(),
                    aggs.iter().map(|(f, _)| f.accumulator()).collect(),
                );
            }
            let finished = |key: Vec<Value>| {
                let accs = &groups[&key];
                Row(key
                    .into_iter()
                    .chain(accs.iter().map(Accumulator::finish))
                    .collect())
            };
            Ok(order.into_iter().map(finished).collect())
        }
        other => panic!("the oracle does not run {other:?}"),
    }
}

// ---- comparison ----

/// A sort key under which rows that agree up to rounding sit at the
/// same position: numbers rounded, everything else as it is.
fn sort_key(row: &Row) -> String {
    let value = |v: &Value| match v {
        // `+ 0.0` folds `-0.0` into `0.0`.
        Value::Int(_) | Value::Double(_) => format!("{:.6e}", v.as_f64().expect("a number") + 0.0),
        other => format!("{other:?}"),
    };
    row.values().iter().map(value).collect::<Vec<_>>().join("|")
}

fn agree(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(_) | Value::Double(_), Value::Int(_) | Value::Double(_)) => {
            let (x, y) = (a.as_f64().unwrap(), b.as_f64().unwrap());
            x == y || (x - y).abs() <= 1e-9 * x.abs().max(y.abs())
        }
        _ => a == b,
    }
}

/// The first difference between two multisets of rows, if any.
fn difference(mut got: Vec<Row>, mut want: Vec<Row>) -> Option<String> {
    got.sort_by_cached_key(sort_key);
    want.sort_by_cached_key(sort_key);
    if got.len() != want.len() {
        return Some(format!("{} rows against {}", got.len(), want.len()));
    }
    let same = |(g, w): &(&Row, &Row)| {
        g.len() == w.len() && g.values().iter().zip(w.values()).all(|(x, y)| agree(x, y))
    };
    let first = got.iter().zip(&want).find(|pair| !same(pair));
    first.map(|(g, w)| format!("{g:?} against {w:?}"))
}

fn check(cat: &TestCatalog, plan: &PlanNode, what: &str) {
    let want = oracle(cat, plan);
    let contexts = [
        ExecContext::new(ExecConfig::default().with_workers(1)),
        ExecContext::new(ExecConfig::default().with_workers(4).with_morsel_rows(64)),
    ];
    for exec in &contexts {
        let got = execute_plan_with(exec, plan, cat, CID).map(|rs| rs.rows);
        match (&got, &want) {
            (Ok(g), Ok(w)) => {
                let diff = difference(g.clone(), w.clone());
                prop_assert!(diff.is_none(), "{what}: executor vs oracle: {diff:?}")
            }
            (Err(g), Err(w)) => prop_assert_eq!(g.kind(), w.kind(), "{}: {} vs {}", what, g, w),
            _ => panic!("{what}: executor {got:?}, oracle {want:?}"),
        }
    }
}

fn catalog(rng: &mut TestRng) -> TestCatalog {
    TestCatalog {
        a: Arc::new(RwLock::new(table(rng, "a", DataType::Int))),
        b: Arc::new(RwLock::new(table(rng, "b", DataType::Double))),
        sda: SdaRegistry::new(),
    }
}

proptest! {
    #[test]
    fn filters_match_the_row_oracle(seed in any::<u64>()) {
        let mut rng = TestRng::deterministic(&format!("filter-{seed}"));
        let cat = catalog(&mut rng);
        for _ in 0..4 {
            let sql = filter(&mut rng, "a");
            check(&cat, &filtered(scan(&cat, "a"), expr(&sql)), &sql);
        }
    }

    #[test]
    fn group_bys_match_the_row_oracle(seed in any::<u64>()) {
        let mut rng = TestRng::deterministic(&format!("group-{seed}"));
        let cat = catalog(&mut rng);
        for _ in 0..3 {
            let (keys, aggs) = (random_keys(&mut rng, "a"), random_aggs(&mut rng, "a"));
            let what = format!("GROUP BY {keys:?} {aggs:?}");
            let input = match rng.below(2) {
                0 => scan(&cat, "a"),
                _ => filtered(scan(&cat, "a"), expr(&pred(&mut rng, 2, "a"))),
            };
            check(&cat, &aggregate(input, keys, aggs), &what);
        }
    }

    #[test]
    fn joins_match_the_row_oracle(seed in any::<u64>(), outer in any::<bool>()) {
        let mut rng = TestRng::deterministic(&format!("join-{seed}"));
        let cat = catalog(&mut rng);
        let kind = if outer { JoinKind::LeftOuter } else { JoinKind::Inner };
        check(&cat, &join(&cat, kind), "join");
        let sql = format!("({} OR {})", pred(&mut rng, 2, "a"), pred(&mut rng, 2, "b"));
        check(&cat, &filtered(join(&cat, kind), expr(&sql)), &sql);
        let (keys, aggs) = (random_keys(&mut rng, "b"), random_aggs(&mut rng, "a"));
        let what = format!("join GROUP BY {keys:?} {aggs:?}");
        check(&cat, &aggregate(join(&cat, kind), keys, aggs), &what);
    }
}
