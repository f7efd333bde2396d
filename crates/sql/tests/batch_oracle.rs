//! The batch evaluator and group-by over rows handed in as rows.
//!
//! Hive's map tasks, DML's located rows and ESP windows reach
//! `eval_batch`, `select` and `group_batch` through `Batch::from_rows`,
//! not through a column table's typed leaves. Here random rows — nullable,
//! with columns that hold one type and columns that mix `Int(2)` with
//! `Double(2.0)`, `-0.0` with `0.0`, strings with numbers — become a
//! batch, and depth-3 expressions over them (shapes only short-circuiting
//! keeps from failing among them) are computed both ways: over the batch,
//! at every row and at a random selection of rows, and with
//! `hana_sql::evaluate` one row at a time. The values must be the same
//! values of the same types, and an error must occur on the same inputs,
//! of the same kind.

use std::collections::HashMap;

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use hana_sql::batch::{eval_batch, group_batch, select, AggCall, Batch};
use hana_sql::{evaluate, evaluate_predicate, parse_statement, Expr, Statement};
use hana_types::{Accumulator, AggFunc, DataType, Date, Result, Row, Schema, Value};

fn schema() -> Schema {
    Schema::of(&[
        ("i", DataType::Int),
        ("n", DataType::Double),
        ("s", DataType::Varchar),
        ("t", DataType::Date),
        ("b", DataType::Bool),
    ])
}

fn pick<T: Clone>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize].clone()
}

/// Rows whose columns are now typed and NULL-free, now nullable and of
/// mixed types: a column of one type and no NULL becomes a typed vector,
/// any other stays values.
fn rows(rng: &mut TestRng) -> Vec<Row> {
    // Per column: whether it may hold NULLs and values of other types.
    let mixed: Vec<bool> = (0..5).map(|_| rng.below(2) == 0).collect();
    let len = rng.below(40) as usize;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        let odd = |rng: &mut TestRng, c: usize| mixed[c] && rng.below(4) == 0;
        let i = match rng.below(12) {
            0 => 4_000_000_000, // squares overflow
            n => n as i64 - 3,
        };
        let i = match odd(rng, 0) {
            true => pick(rng, &[Value::Null, Value::Double(i as f64)]),
            false => Value::Int(i),
        };
        let n = pick(rng, &[0.0, -0.0, 0.5, 2.0, 2.5, -1.5, 4.0]);
        let n = match odd(rng, 1) {
            true => pick(rng, &[Value::Null, Value::Int(n as i64), Value::from("2")]),
            false => Value::Double(n),
        };
        let s = Value::from(pick(rng, &["a", "ab", "b%", "", "x_y", "PROMO x"]));
        let s = match odd(rng, 2) {
            true => pick(rng, &[Value::Null, Value::Int(1)]),
            false => s,
        };
        let t = Value::Date(Date::from_ymd(
            1995,
            1 + rng.below(3) as u32,
            1 + rng.below(3) as u32,
        ));
        let t = match odd(rng, 3) {
            true => pick(rng, &[Value::Null, Value::Int(9)]),
            false => t,
        };
        let b = match odd(rng, 4) {
            true => pick(rng, &[Value::Null, Value::Int(0)]),
            false => Value::Bool(rng.below(2) == 0),
        };
        out.push(Row::from_values([i, n, s, t, b]));
    }
    out
}

// ---- expressions, as SQL text ----

fn num(rng: &mut TestRng, depth: u32) -> String {
    if depth == 0 || rng.below(3) == 0 {
        return match rng.below(7) {
            0 | 1 => "i".into(),
            2 | 3 => "n".into(),
            4 => pick(rng, &["0", "1", "2", "-3"]).to_string(),
            5 => "?".into(),
            _ => pick(rng, &["2.0", "-0.0", "0.5", "NULL"]).to_string(),
        };
    }
    let d = depth - 1;
    match rng.below(7) {
        0 => format!("-({})", num(rng, d)),
        1 => format!(
            "CASE WHEN {} THEN {} ELSE {} END",
            pred(rng, d),
            num(rng, d),
            num(rng, d)
        ),
        2 => format!("ABS({})", num(rng, d)),
        3 => format!("COALESCE({}, {})", num(rng, d), num(rng, d)),
        _ => {
            let op = pick(rng, &["+", "-", "*", "/"]);
            format!("({} {op} {})", num(rng, d), num(rng, d))
        }
    }
}

fn pred(rng: &mut TestRng, depth: u32) -> String {
    let cmp = |rng: &mut TestRng| pick(rng, &["=", "<>", "<", "<=", ">", ">="]);
    if depth == 0 || rng.below(3) == 0 {
        return match rng.below(13) {
            0 => format!("{} {} {}", num(rng, 1), cmp(rng), num(rng, 1)),
            1 => format!("s {} {}", cmp(rng), pick(rng, &["'ab'", "''", "'b%'"])),
            2 => format!("t {} DATE '1995-02-02'", cmp(rng)),
            3 => format!(
                "s {}LIKE {}",
                pick(rng, &["", "NOT "]),
                pick(rng, &["'a%'", "'%\\_%'", "'_'", "'PROMO%'", "'%'"])
            ),
            4 => format!(
                "{} {}IN ({}, {})",
                num(rng, 1),
                pick(rng, &["", "NOT "]),
                num(rng, 0),
                num(rng, 0)
            ),
            5 => "s IN ('a', 'x_y', NULL)".into(),
            6 => format!(
                "{} {}BETWEEN {} AND {}",
                num(rng, 1),
                pick(rng, &["", "NOT "]),
                num(rng, 0),
                num(rng, 0)
            ),
            7 => format!("{} IS {}NULL", num(rng, 1), pick(rng, &["", "NOT "])),
            8 => "b".into(),
            // Only the short circuit keeps the division from failing.
            9 => "(i = 0 OR 1 / i > 2)".into(),
            10 => "(n <> 0 AND 3 / n < 2)".into(),
            11 => "CASE WHEN n = 0 THEN FALSE ELSE 1 / n > 1 END".into(),
            // Type errors, some of them short-circuited away.
            _ => pick(
                rng,
                &[
                    "(s + 1 > 0)".to_string(),
                    "NOT i".to_string(),
                    "(i IS NULL AND NOT s)".to_string(),
                    "(b OR YEAR(t) > 1994)".to_string(),
                ],
            ),
        };
    }
    let d = depth - 1;
    match rng.below(4) {
        0 => format!("({} AND {})", pred(rng, d), pred(rng, d)),
        1 => format!("({} OR {})", pred(rng, d), pred(rng, d)),
        2 => format!("NOT ({})", pred(rng, d)),
        _ => format!(
            "CASE WHEN {} THEN {} ELSE {} END",
            pred(rng, d),
            pred(rng, d),
            pred(rng, d)
        ),
    }
}

/// `sql` over rows of [`schema`], resolved: columns to positions, slots
/// kept (the batch reads them from the run's values).
fn expr(sql: &str) -> Expr {
    let text = format!("SELECT * FROM r WHERE {sql}");
    let Ok(Statement::Query(q)) = parse_statement(&text) else {
        panic!("generated SQL does not parse: {text}")
    };
    q.filter
        .expect("a WHERE clause")
        .positional(&schema())
        .unwrap()
}

/// What the slots hold: enough values for any generated expression.
fn values(rng: &mut TestRng) -> Vec<Value> {
    let each = [
        Value::Int(2),
        Value::Double(-0.0),
        Value::Null,
        Value::Int(0),
    ];
    (0..256).map(|_| pick(rng, &each)).collect()
}

/// `e` with its slots bound, as `evaluate` reads it.
fn bound(e: &Expr, values: &[Value]) -> Expr {
    e.bound(values).unwrap().into_owned()
}

/// Every row, or a random ascending selection of them.
fn selection(rng: &mut TestRng, len: usize) -> Vec<u32> {
    let all = rng.below(2) == 0;
    (0..len as u32)
        .filter(|_| all || rng.below(2) == 0)
        .collect()
}

/// The same result: equal values of the same types in the same order,
/// or errors of the same kind.
fn same<T: std::fmt::Debug>(got: Result<T>, want: Result<T>, what: &str) {
    match (got, want) {
        (Ok(g), Ok(w)) => assert_eq!(format!("{g:?}"), format!("{w:?}"), "{what}"),
        (Err(g), Err(w)) => assert_eq!(g.kind(), w.kind(), "{what}: {g} vs {w}"),
        (g, w) => panic!("{what}: batch {g:?}, row by row {w:?}"),
    }
}

// ---- the oracle ----

/// Groups in first-seen order, one row each: key values, then the
/// finished aggregates; sorted, as `Groups::finish` sorts them.
fn oracle_groups(rows: &[Row], keys: &[Expr], aggs: &[AggCall]) -> Result<Vec<Row>> {
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut groups: HashMap<Vec<Value>, Vec<Accumulator>> = HashMap::new();
    for r in rows {
        let key = keys
            .iter()
            .map(|k| evaluate(k, r))
            .collect::<Result<Vec<_>>>()?;
        if !groups.contains_key(&key) {
            order.push(key.clone());
            let fresh = aggs.iter().map(|(f, _)| f.accumulator()).collect();
            groups.insert(key.clone(), fresh);
        }
        let accs = groups.get_mut(&key).expect("just inserted");
        for (acc, (_, arg)) in accs.iter_mut().zip(aggs) {
            match arg {
                Some(e) => acc.add(&evaluate(e, r)?),
                None => acc.add(&Value::Null),
            }
        }
    }
    if order.is_empty() && keys.is_empty() {
        order.push(Vec::new());
        let fresh = aggs.iter().map(|(f, _)| f.accumulator()).collect();
        groups.insert(Vec::new(), fresh);
    }
    let finished = |key: Vec<Value>| {
        let accs = &groups[&key];
        Row(key
            .into_iter()
            .chain(accs.iter().map(Accumulator::finish))
            .collect())
    };
    let mut out: Vec<Row> = order.into_iter().map(finished).collect();
    out.sort();
    Ok(out)
}

fn random_keys(rng: &mut TestRng) -> Vec<Expr> {
    let pool = [
        "s",
        "i",
        "n",
        "t",
        "b",
        "i + 1",
        "CASE WHEN n > 1 THEN s ELSE NULL END",
        "CASE WHEN i = 0 OR 1 / i > 2 THEN 'hit' ELSE 'miss' END",
        "i * i",
    ];
    (0..rng.below(4)).map(|_| expr(pick(rng, &pool))).collect()
}

fn random_aggs(rng: &mut TestRng) -> Vec<AggCall> {
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
                let n = num(rng, 1);
                pick(rng, &["s".to_string(), "t".to_string(), n])
            }
            _ => num(rng, 2),
        };
        aggs.push((f, Some(expr(&arg))));
    }
    aggs
}

proptest! {
    #[test]
    fn expressions_over_rows_match_the_row_evaluator(seed in any::<u64>()) {
        let mut rng = TestRng::deterministic(&format!("batch-oracle-{seed}"));
        let rows = rows(&mut rng);
        let batch = Batch::from_rows(rows.clone(), schema().len());
        let values = values(&mut rng);
        for _ in 0..4 {
            let sel = selection(&mut rng, rows.len());
            let picked: Vec<&Row> = sel.iter().map(|&j| &rows[j as usize]).collect();

            let sql = num(&mut rng, 3);
            let e = expr(&sql);
            let got = eval_batch(&e, &batch, &sel, &values)
                .map(|c| (0..c.len()).map(|j| c.get(j).into_owned()).collect::<Vec<_>>());
            let want = picked.iter().map(|r| evaluate(&bound(&e, &values), r)).collect();
            same(got, want, &sql);

            let sql = pred(&mut rng, 3);
            let p = expr(&sql);
            let got = select(&p, &batch, &sel, &values);
            let keeps = |(&j, r): (&u32, &&Row)| {
                evaluate_predicate(&bound(&p, &values), r).map(|k| k.then_some(j))
            };
            let want = sel.iter().zip(&picked).map(keeps).collect::<Result<Vec<_>>>();
            same(got, want.map(|k| k.into_iter().flatten().collect()), &sql);
        }
    }

    #[test]
    fn group_bys_over_rows_match_the_row_oracle(seed in any::<u64>()) {
        let mut rng = TestRng::deterministic(&format!("group-oracle-{seed}"));
        let rows = rows(&mut rng);
        let mut batch = Batch::from_rows(rows.clone(), schema().len());
        batch.sel = selection(&mut rng, rows.len());
        let picked: Vec<Row> = batch.sel.iter().map(|&j| rows[j as usize].clone()).collect();
        let values = values(&mut rng);
        for _ in 0..3 {
            let (keys, aggs) = (random_keys(&mut rng), random_aggs(&mut rng));
            let what = format!("GROUP BY {keys:?} {aggs:?}");
            let got = group_batch(&batch, &keys, &aggs, &values).map(|(groups, _)| {
                let mut out = Vec::new();
                groups.finish(keys.len(), &aggs).push_rows(&mut out);
                out
            });
            let arg = |(f, a): &AggCall| (*f, a.as_ref().map(|e| bound(e, &values)));
            let bound_aggs: Vec<AggCall> = aggs.iter().map(arg).collect();
            same(got, oracle_groups(&picked, &keys, &bound_aggs), &what);
        }
    }
}
