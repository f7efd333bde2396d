//! Property tests: name resolution is a pass that runs once, and the
//! row evaluator reads positions only.
//!
//! The generator builds random type-disciplined expression trees
//! (arithmetic, comparisons, BETWEEN, IN, LIKE, IS NULL, three-valued
//! AND/OR/NOT, null literals) over a schema of binding-qualified names
//! (`t.a`, `u.d`, …) plus one bare column, referenced bare (`a` finds
//! `t.a` by suffix), qualified (`t.a` verbatim) and qualified over a
//! bare column (`u.e` falls back to `e`). For a random column
//! permutation π, evaluating `e.resolve(S)` on a row equals evaluating
//! `e.resolve(πS)` on the same row permuted by π — so what a resolved
//! expression reads depends on the names, not on where they sit.
//! Ambiguous and unknown references fail in `resolve`, never in
//! `evaluate`.

use hana_sql::{evaluate, BinOp, Expr, UnaryOp};
use hana_types::{ColumnDef, DataType, Row, Schema, Value};
use proptest::prelude::*;

const COLUMNS: [(&str, DataType); 5] = [
    ("t.a", DataType::Int),
    ("t.b", DataType::Int),
    ("t.c", DataType::Varchar),
    ("u.d", DataType::Bool),
    ("e", DataType::Double),
];

fn schema() -> Schema {
    Schema::of(&COLUMNS)
}

/// `schema()` with its columns in the order `perm`.
fn permuted_schema(perm: &[usize]) -> Schema {
    Schema::new(
        perm.iter()
            .map(|&i| ColumnDef::new(COLUMNS[i].0, COLUMNS[i].1))
            .collect(),
    )
    .unwrap()
}

/// A random permutation of the schema's columns.
fn arb_perm() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(any::<u64>(), COLUMNS.len()).prop_map(|keys| {
        let mut perm: Vec<usize> = (0..keys.len()).collect();
        perm.sort_by_key(|&i| keys[i]);
        perm
    })
}

/// A reference to column `name` of binding `binding`, written bare or
/// qualified.
fn arb_ref(binding: &'static str, name: &'static str) -> BoxedStrategy<Expr> {
    prop_oneof![
        Just(Expr::col(name)),
        Just(Expr::Column {
            qualifier: Some(binding.into()),
            name: name.into(),
        }),
    ]
    .boxed()
}

/// One random row: every column independently nullable.
fn arb_row() -> impl Strategy<Value = Row> {
    (
        prop_oneof![Just(None), (-4i64..5).prop_map(Some)],
        prop_oneof![Just(None), (-4i64..5).prop_map(Some)],
        prop_oneof![Just(None), (0u8..4).prop_map(Some)],
        prop_oneof![Just(None), any::<bool>().prop_map(Some)],
        prop_oneof![Just(None), (-8i64..9).prop_map(Some)],
    )
        .prop_map(|(a, b, c, d, e)| {
            Row::from_values([
                a.map(Value::Int).unwrap_or(Value::Null),
                b.map(Value::Int).unwrap_or(Value::Null),
                c.map(|i| Value::from(format!("s{i}")))
                    .unwrap_or(Value::Null),
                d.map(Value::Bool).unwrap_or(Value::Null),
                e.map(|i| Value::Double(i as f64 / 2.0))
                    .unwrap_or(Value::Null),
            ])
        })
}

/// Numeric-valued expressions (int/double columns, literals, arithmetic
/// including division, unary negation).
fn arb_num(depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        (-4i64..5).prop_map(|i| Expr::Literal(Value::Int(i))),
        (-6i64..7).prop_map(|i| Expr::Literal(Value::Double(i as f64 / 2.0))),
        Just(Expr::Literal(Value::Null)),
        arb_ref("t", "a"),
        arb_ref("t", "b"),
        arb_ref("u", "e"),
    ]
    .boxed();
    if depth == 0 {
        return leaf;
    }
    let inner = arb_num(depth - 1);
    prop_oneof![
        leaf,
        (inner.clone(), 0usize..4, inner.clone()).prop_map(|(l, op, r)| Expr::Binary {
            left: Box::new(l),
            op: [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div][op],
            right: Box::new(r),
        }),
        inner.prop_map(|x| Expr::Unary {
            op: UnaryOp::Neg,
            expr: Box::new(x),
        }),
    ]
    .boxed()
}

/// String-valued expressions (column or literal).
fn arb_str() -> BoxedStrategy<Expr> {
    prop_oneof![
        (0u8..4).prop_map(|i| Expr::Literal(Value::from(format!("s{i}")))),
        Just(Expr::Literal(Value::Null)),
        arb_ref("t", "c"),
    ]
    .boxed()
}

/// Boolean-valued expressions: comparisons over numbers and strings,
/// BETWEEN, IN lists, LIKE, IS NULL, three-valued AND/OR/NOT.
fn arb_bool(depth: u32) -> BoxedStrategy<Expr> {
    let cmp_ops = [
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
    ];
    let num = arb_num(1);
    let leaf = prop_oneof![
        arb_ref("u", "d"),
        any::<bool>().prop_map(|b| Expr::Literal(Value::Bool(b))),
        Just(Expr::Literal(Value::Null)),
        (num.clone(), 0usize..6, num.clone()).prop_map(move |(l, op, r)| Expr::Binary {
            left: Box::new(l),
            op: cmp_ops[op],
            right: Box::new(r),
        }),
        (arb_str(), 0usize..6, arb_str()).prop_map(move |(l, op, r)| Expr::Binary {
            left: Box::new(l),
            op: cmp_ops[op],
            right: Box::new(r),
        }),
        (num.clone(), num.clone(), num.clone(), any::<bool>()).prop_map(|(x, lo, hi, neg)| {
            Expr::Between {
                expr: Box::new(x),
                lo: Box::new(lo),
                hi: Box::new(hi),
                negated: neg,
            }
        }),
        (
            num.clone(),
            prop::collection::vec(num.clone(), 0..4),
            any::<bool>()
        )
            .prop_map(|(x, list, neg)| Expr::InList {
                expr: Box::new(x),
                list,
                negated: neg,
            }),
        (arb_str(), 0usize..4, any::<bool>()).prop_map(|(x, p, neg)| Expr::Like {
            expr: Box::new(x),
            pattern: ["s%", "%1", "s_", "x%"][p].to_string(),
            negated: neg,
        }),
        (num, any::<bool>()).prop_map(|(x, neg)| Expr::IsNull {
            expr: Box::new(x),
            negated: neg,
        }),
    ]
    .boxed();
    if depth == 0 {
        return leaf;
    }
    let inner = arb_bool(depth - 1);
    prop_oneof![
        leaf,
        (inner.clone(), any::<bool>(), inner.clone()).prop_map(|(l, and, r)| Expr::Binary {
            left: Box::new(l),
            op: if and { BinOp::And } else { BinOp::Or },
            right: Box::new(r),
        }),
        inner.prop_map(|x| Expr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(x),
        }),
    ]
    .boxed()
}

/// `e` over `rows` in the schema's order equals `e` over the same rows
/// permuted by `perm`, resolved against the permuted schema — value for
/// value, error for error — and no resolved expression holds a name.
fn check_permutation_invariance(e: &Expr, perm: &[usize], rows: &[Row]) {
    let here = e
        .resolve(&schema(), &[])
        .unwrap_or_else(|err| panic!("{e}: {err}"));
    let there = e.resolve(&permuted_schema(perm), &[]).unwrap();
    for resolved in [&here, &there] {
        resolved.walk(&mut |n| assert!(!matches!(n, Expr::Column { .. }), "{resolved}"));
    }
    for row in rows {
        let moved = Row(perm.iter().map(|&i| row[i].clone()).collect());
        let want = evaluate(&here, row).map_err(|err| err.to_string());
        let got = evaluate(&there, &moved).map_err(|err| err.to_string());
        assert_eq!(got, want, "{e} over {row} vs {moved}");
        if let Err(err) = want {
            assert!(!err.contains("unresolved"), "{e}: {err}");
        }
    }
}

/// Whether `e` names column `a` without a qualifier.
fn names_bare_a(e: &Expr) -> bool {
    e.columns()
        .iter()
        .any(|(qualifier, name)| qualifier.is_none() && *name == "a")
}

proptest! {
    /// Boolean predicate trees read the same values wherever their
    /// columns sit.
    #[test]
    fn predicates_read_names_not_positions(
        e in arb_bool(3),
        perm in arb_perm(),
        rows in prop::collection::vec(arb_row(), 1..50),
    ) {
        check_permutation_invariance(&e, &perm, &rows);
    }

    /// Scalar (numeric) projection trees, likewise.
    #[test]
    fn projections_read_names_not_positions(
        e in arb_num(3),
        perm in arb_perm(),
        rows in prop::collection::vec(arb_row(), 1..50),
    ) {
        check_permutation_invariance(&e, &perm, &rows);
    }

    /// With a second binding's `a` in the schema, a bare `a` is
    /// ambiguous: resolution fails exactly when the tree names one, and
    /// an unknown column fails it always.
    #[test]
    fn ambiguous_and_unknown_references_fail_in_resolve(e in arb_bool(3)) {
        let mut cols = schema().columns().to_vec();
        cols.push(ColumnDef::new("u.a", DataType::Int));
        let wider = Schema::new(cols).unwrap();
        match e.resolve(&wider, &[]) {
            Ok(_) => prop_assert!(!names_bare_a(&e), "{e} resolved over {wider}"),
            Err(err) => {
                prop_assert!(names_bare_a(&e), "{e}: {err}");
                prop_assert!(err.to_string().contains("ambiguous column 'a'"), "{err}");
            }
        }
        let unknown = e.clone().and(Expr::col("nosuch"));
        let err = unknown.resolve(&schema(), &[]).unwrap_err();
        prop_assert!(err.to_string().contains("unknown column 'nosuch'"), "{err}");
    }
}
