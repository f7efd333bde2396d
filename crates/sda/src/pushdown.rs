//! Conversion of SQL expressions into pushable column predicates.
//!
//! The extended storage and the chunk-pruning layer consume
//! [`ColumnPredicate`]s, not SQL expression trees. This module lowers the
//! pushable subset — `col <op> literal`, `BETWEEN`, `IN`, `LIKE`,
//! `IS [NOT] NULL` — and reports what could not be lowered so the caller
//! can keep a residual filter.

use hana_columnar::ColumnPredicate;
use hana_sql::{BinOp, Expr, UnaryOp};
use hana_types::Value;

/// Try to lower one conjunct to `(column_name, predicate)`.
pub fn expr_to_column_predicate(e: &Expr) -> Option<(String, ColumnPredicate)> {
    lower_conjunct(e, &literal)
}

/// Try to lower one conjunct to `(column_name, predicate)` over
/// whatever `operand` reads an operand expression as: [`literal`] for a
/// statement about to run, a literal-or-slot for a plan that will be
/// cached.
pub fn lower_conjunct<V>(
    e: &Expr,
    operand: &impl Fn(&Expr) -> Option<V>,
) -> Option<(String, ColumnPredicate<V>)> {
    match e {
        Expr::Binary { left, op, right } => {
            let (col, lit, flipped) = match (column_name(left), column_name(right)) {
                (Some(c), _) => (c, operand(right)?, false),
                (None, Some(c)) => (c, operand(left)?, true),
                (None, None) => return None,
            };
            let pred = match (op, flipped) {
                (BinOp::Eq, _) => ColumnPredicate::Eq(lit),
                (BinOp::Ne, _) => ColumnPredicate::Ne(lit),
                (BinOp::Lt, false) => ColumnPredicate::Lt(lit),
                (BinOp::Lt, true) => ColumnPredicate::Gt(lit),
                (BinOp::Le, false) => ColumnPredicate::Le(lit),
                (BinOp::Le, true) => ColumnPredicate::Ge(lit),
                (BinOp::Gt, false) => ColumnPredicate::Gt(lit),
                (BinOp::Gt, true) => ColumnPredicate::Lt(lit),
                (BinOp::Ge, false) => ColumnPredicate::Ge(lit),
                (BinOp::Ge, true) => ColumnPredicate::Le(lit),
                _ => return None,
            };
            Some((col, pred))
        }
        Expr::Between {
            expr,
            lo,
            hi,
            negated: false,
        } => {
            let col = column_name(expr)?;
            Some((col, ColumnPredicate::Between(operand(lo)?, operand(hi)?)))
        }
        Expr::InList {
            expr,
            list,
            negated: false,
        } => {
            let col = column_name(expr)?;
            let vals: Option<Vec<V>> = list.iter().map(operand).collect();
            Some((col, ColumnPredicate::InList(vals?)))
        }
        Expr::Like {
            expr,
            pattern,
            negated: false,
        } => Some((column_name(expr)?, ColumnPredicate::Like(pattern.clone()))),
        Expr::IsNull { expr, negated } => {
            let col = column_name(expr)?;
            Some((
                col,
                if *negated {
                    ColumnPredicate::IsNotNull
                } else {
                    ColumnPredicate::IsNull
                },
            ))
        }
        _ => None,
    }
}

/// Split a conjunctive filter into pushable predicates and residuals.
pub fn split_pushdown(filter: &Expr) -> (Vec<(String, ColumnPredicate)>, Vec<Expr>) {
    let mut pushed = Vec::new();
    let mut residual = Vec::new();
    for c in filter.conjuncts() {
        match expr_to_column_predicate(c) {
            Some(p) => pushed.push(p),
            None => residual.push(c.clone()),
        }
    }
    (pushed, residual)
}

fn column_name(e: &Expr) -> Option<String> {
    match e {
        Expr::Column { name, .. } => Some(name.clone()),
        _ => None,
    }
}

/// The value of a literal operand (a negated numeric literal is one).
pub fn literal(e: &Expr) -> Option<Value> {
    match e {
        Expr::Literal(v) => Some(v.clone()),
        Expr::Unary {
            op: UnaryOp::Neg,
            expr,
        } => match literal(expr)? {
            Value::Int(i) => Some(Value::Int(-i)),
            Value::Double(d) => Some(Value::Double(-d)),
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hana_sql::{parse_statement, Statement};

    fn filter(sql: &str) -> Expr {
        let Statement::Query(q) = parse_statement(&format!("SELECT * FROM t WHERE {sql}")).unwrap()
        else {
            panic!()
        };
        q.filter.unwrap()
    }

    #[test]
    fn lowers_simple_shapes() {
        let (p, r) = split_pushdown(&filter(
            "a = 1 AND b > 2.5 AND 3 <= c AND d BETWEEN 1 AND 9 \
             AND e IN (1, 2) AND f LIKE 'x%' AND g IS NULL AND h IS NOT NULL",
        ));
        assert!(r.is_empty(), "{r:?}");
        assert_eq!(p.len(), 8);
        assert_eq!(p[0], ("a".into(), ColumnPredicate::Eq(Value::Int(1))));
        assert_eq!(p[2], ("c".into(), ColumnPredicate::Ge(Value::Int(3))));
        assert_eq!(p[6], ("g".into(), ColumnPredicate::IsNull));
    }

    #[test]
    fn negative_literals() {
        let (p, r) = split_pushdown(&filter("a < -5"));
        assert!(r.is_empty());
        assert_eq!(p[0], ("a".into(), ColumnPredicate::Lt(Value::Int(-5))));
    }

    #[test]
    fn residuals_are_kept() {
        let (p, r) = split_pushdown(&filter("a = 1 AND (b = 2 OR c = 3) AND a + 1 = b"));
        assert_eq!(p.len(), 1);
        assert_eq!(r.len(), 2, "OR and column-column comparisons stay residual");
        // NOT-variants are not lowered either.
        let (p2, r2) = split_pushdown(&filter("a NOT IN (1) AND b NOT BETWEEN 1 AND 2"));
        assert!(p2.is_empty());
        assert_eq!(r2.len(), 2);
    }
}
