//! Expressions over column batches: the one runtime evaluator of every
//! engine but ESP's per-event paths.
//!
//! [`eval_batch`] computes a resolved expression (columns resolved to
//! positions, slots read from the run's values) for the rows `sel` of a
//! batch, column at a time. Int, Double and Date
//! arithmetic and comparisons run as typed loops; a predicate over a
//! dictionary column and a constant is decided once per dictionary
//! entry and mapped over the vids; every other combination loops over
//! the scalar primitives [`evaluate`](crate::evaluate) uses
//! (`Value::{add, sub, mul, div, sql_cmp, sql_like}`,
//! [`scalar_function`]), so the semantics are shared, not rewritten.
//! AND / OR, CASE, IN and the arguments of a scalar function are
//! computed only on the rows `evaluate` computes them on: an error
//! surfaces on exactly the inputs it surfaces on there.

use std::borrow::Cow;
use std::cmp::Ordering;

use hana_types::{HanaError, Result, Value};

use super::{Batch, Column, Dictionary, Numbers};
use crate::ast::{BinOp, Expr, UnaryOp};
use crate::eval::scalar_function;

/// Truth values, one byte a row: SQL's three, and "not a boolean".
const F: u8 = 0;
const T: u8 = 1;
const NULL: u8 = 2;
const NOT_BOOL: u8 = 3;

/// `e` over rows `sel` of `b`, its slots reading `values`: one value
/// per row of `sel`, in order.
pub fn eval_batch<'a>(
    e: &Expr,
    b: &'a Batch,
    sel: &[u32],
    values: &[Value],
) -> Result<Cow<'a, Column>> {
    let n = sel.len();
    if n == 0 {
        return Ok(Cow::Owned(Column::Values(Vec::new())));
    }
    let col = match e {
        Expr::Field(i) => return Ok(b.column(*i, sel)),
        Expr::Literal(v) => Column::Const(v.clone(), n),
        Expr::Unary {
            op: UnaryOp::Neg,
            expr,
        } => arith(
            BinOp::Sub,
            &Column::Const(Value::Int(0), n),
            &*eval_batch(expr, b, sel, values)?,
        )?,
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => {
            let v = eval_batch(expr, b, sel, values)?;
            let t = truth(&v);
            if let Some(j) = t.iter().position(|&x| x == NOT_BOOL) {
                let other = v.get(j);
                return Err(HanaError::Execution(format!(
                    "NOT applied to non-boolean {other}"
                )));
            }
            from_truth(t.into_iter().map(|x| [T, F, NULL][x as usize]).collect())
        }
        Expr::Binary {
            left,
            op: op @ (BinOp::And | BinOp::Or),
            right,
        } => logic(*op == BinOp::And, (left, right), b, sel, values)?,
        Expr::Binary { left, op, right } => {
            let (l, r) = (
                eval_batch(left, b, sel, values)?,
                eval_batch(right, b, sel, values)?,
            );
            match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => arith(*op, &l, &r)?,
                _ => from_truth(compare(*op, &l, &r)),
            }
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval_batch(expr, b, sel, values)?;
            in_list(&v, (list, *negated), b, sel, values)?
        }
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => {
            let v = eval_batch(expr, b, sel, values)?;
            let (lo, hi) = (
                eval_batch(lo, b, sel, values)?,
                eval_batch(hi, b, sel, values)?,
            );
            let (ge, le) = (compare(BinOp::Ge, &v, &lo), compare(BinOp::Le, &v, &hi));
            let inside = |(g, l): (&u8, &u8)| match (*g, *l) {
                (NULL, _) | (_, NULL) => NULL,
                (g, l) => ((g == T && l == T) != *negated) as u8,
            };
            from_truth(ge.iter().zip(&le).map(inside).collect())
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let like = |v: &Value| v.sql_like(pattern).map_or(NULL, |m| (m != *negated) as u8);
            from_truth(per_value(&*eval_batch(expr, b, sel, values)?, like))
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_batch(expr, b, sel, values)?;
            Column::Bool((0..n).map(|j| v.is_null(j) != *negated).collect())
        }
        Expr::Func { name, args } => {
            // Each argument is read per row, when the function reads it.
            let arg = |row: u32| {
                move |i: usize| -> Result<Value> {
                    Ok(eval_batch(&args[i], b, &[row], values)?.get(0).into_owned())
                }
            };
            let call = |&row: &u32| scalar_function(name, args.len(), arg(row));
            Column::from_values(sel.iter().map(call).collect::<Result<_>>()?)
        }
        Expr::Case { whens, else_expr } => case((whens, else_expr.as_deref()), b, sel, values)?,
        Expr::Parameter(i) => {
            let v = values.get(*i).ok_or_else(|| {
                HanaError::Plan(format!("no value bound for parameter {}", i + 1))
            })?;
            Column::Const(v.clone(), n)
        }
        Expr::Column { .. } => {
            return Err(HanaError::Plan(format!(
                "internal error: column '{e}' reached the evaluator unresolved"
            )))
        }
        Expr::Wildcard => return Err(HanaError::Plan("'*' is only valid inside COUNT(*)".into())),
    };
    Ok(Cow::Owned(col))
}

/// The rows of `sel` predicate `pred` holds on (NULL does not hold; a
/// value that is not a boolean is an error).
pub fn select(pred: &Expr, b: &Batch, sel: &[u32], values: &[Value]) -> Result<Vec<u32>> {
    let v = eval_batch(pred, b, sel, values)?;
    let t = truth(&v);
    if let Some(j) = t.iter().position(|&x| x == NOT_BOOL) {
        let other = v.get(j);
        return Err(HanaError::Execution(format!(
            "predicate evaluated to non-boolean {other}"
        )));
    }
    Ok(keep(sel, &t, |x| x == T))
}

/// The rows of `sel` whose truth value passes `f`.
fn keep(sel: &[u32], t: &[u8], f: impl Fn(u8) -> bool) -> Vec<u32> {
    let pass = |(&row, &x): (&u32, &u8)| f(x).then_some(row);
    sel.iter().zip(t).filter_map(pass).collect()
}

/// Truth values of a column.
fn truth(col: &Column) -> Vec<u8> {
    match col {
        Column::Bool(v) => v.iter().map(|&b| b as u8).collect(),
        other => per_value(other, |v| match v {
            Value::Bool(b) => *b as u8,
            Value::Null => NULL,
            _ => NOT_BOOL,
        }),
    }
}

/// A column of SQL truth values.
fn from_truth(t: Vec<u8>) -> Column {
    if t.iter().all(|&x| x <= T) {
        return Column::Bool(t.into_iter().map(|x| x == T).collect());
    }
    let value = |x| match x {
        F => Value::Bool(false),
        T => Value::Bool(true),
        _ => Value::Null,
    };
    Column::Values(t.into_iter().map(value).collect())
}

/// `f` of every value; over a dictionary column smaller than itself,
/// once per dictionary entry.
fn per_value(col: &Column, f: impl Fn(&Value) -> u8) -> Vec<u8> {
    match col {
        Column::Dict(d, vids) => per_entry(d, vids, f),
        other => (0..other.len()).map(|j| f(&other.get(j))).collect(),
    }
}

fn per_entry(d: &Dictionary, vids: &[u32], f: impl Fn(&Value) -> u8) -> Vec<u8> {
    if d.values().len() >= vids.len() {
        return vids.iter().map(|&v| f(d.value(v))).collect();
    }
    let table: Vec<u8> = (0..=d.values().len() as u32)
        .map(|v| f(d.value(v)))
        .collect();
    vids.iter().map(|&v| table[v as usize]).collect()
}

/// AND / OR with SQL's short circuit: the right side is computed only
/// on the rows the left side leaves undecided.
fn logic(
    and: bool,
    (left, right): (&Expr, &Expr),
    b: &Batch,
    sel: &[u32],
    values: &[Value],
) -> Result<Column> {
    let decided = if and { F } else { T };
    let l = truth(&*eval_batch(left, b, sel, values)?);
    let rest = keep(sel, &l, |x| x != decided);
    let mut r = truth(&*eval_batch(right, b, &rest, values)?).into_iter();
    let combine = |x: &u8| match *x {
        x if x == decided => decided,
        // A value that is not a boolean reads as unknown here.
        x => match (x.min(NULL), r.next().expect("one value a row").min(NULL)) {
            (_, y) if y == decided => decided,
            (T, T) => T,
            (F, F) => F,
            _ => NULL,
        },
    };
    Ok(from_truth(l.iter().map(combine).collect()))
}

/// The scalar primitive of an arithmetic operator.
fn scalar(op: BinOp) -> fn(&Value, &Value) -> Result<Value> {
    match op {
        BinOp::Add => Value::add,
        BinOp::Sub => Value::sub,
        BinOp::Mul => Value::mul,
        _ => Value::div,
    }
}

fn arith(op: BinOp, l: &Column, r: &Column) -> Result<Column> {
    let f = scalar(op);
    // The error a typed loop stopped at, as the scalar primitive says it.
    let failed = |j: usize| f(&l.get(j), &r.get(j)).expect_err("the typed loop failed here");
    if let (Some(a), Some(b)) = (l.numbers(), r.numbers()) {
        if let (Numbers::Int(a), Numbers::Int(b), false) = (&a, &b, op == BinOp::Div) {
            let checked = match op {
                BinOp::Add => i64::checked_add,
                BinOp::Sub => i64::checked_sub,
                _ => i64::checked_mul,
            };
            let mut out = Vec::with_capacity(a.len());
            for (j, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
                out.push(checked(x, y).ok_or_else(|| failed(j))?);
            }
            return Ok(Column::Int(out));
        }
        let (a, b) = (a.to_f64(), b.to_f64());
        let pairs = a.iter().zip(b.iter());
        return Ok(Column::Double(match op {
            BinOp::Add => pairs.map(|(x, y)| x + y).collect(),
            BinOp::Sub => pairs.map(|(x, y)| x - y).collect(),
            BinOp::Mul => pairs.map(|(x, y)| x * y).collect(),
            _ => match b.iter().position(|&y| y == 0.0) {
                Some(j) => return Err(failed(j)),
                None => pairs.map(|(x, y)| x / y).collect(),
            },
        }));
    }
    let value = |j: usize| f(&l.get(j), &r.get(j));
    Ok(Column::from_values(
        (0..l.len()).map(value).collect::<Result<_>>()?,
    ))
}

/// A comparison's truth values.
fn compare(op: BinOp, l: &Column, r: &Column) -> Vec<u8> {
    let test = |o: Ordering| match op {
        BinOp::Eq => o.is_eq(),
        BinOp::Ne => o.is_ne(),
        BinOp::Lt => o.is_lt(),
        BinOp::Le => o.is_le(),
        BinOp::Gt => o.is_gt(),
        _ => o.is_ge(),
    };
    let tri = |o: Option<Ordering>| o.map_or(NULL, |o| test(o) as u8);
    match (l, r) {
        (Column::Dict(d, vids), Column::Const(c, _)) => {
            return per_entry(d, vids, |v| tri(v.sql_cmp(c)))
        }
        (Column::Const(c, _), Column::Dict(d, vids)) => {
            return per_entry(d, vids, |v| tri(c.sql_cmp(v)))
        }
        _ => {}
    }
    fn typed<T>(
        a: &[T],
        b: &[T],
        cmp: impl Fn(&T, &T) -> Ordering,
        test: impl Fn(Ordering) -> bool,
    ) -> Vec<u8> {
        a.iter()
            .zip(b)
            .map(|(x, y)| test(cmp(x, y)) as u8)
            .collect()
    }
    let per_row = || {
        (0..l.len())
            .map(|j| tri(l.get(j).sql_cmp(&r.get(j))))
            .collect()
    };
    let (Some(a), Some(b)) = (l.numbers(), r.numbers()) else {
        return per_row();
    };
    match (a, b) {
        (Numbers::Int(a), Numbers::Int(b)) => typed(&a, &b, Ord::cmp, test),
        (Numbers::Date(a), Numbers::Date(b)) => typed(&a, &b, Ord::cmp, test),
        // A date and a number order by type: the per-row loop knows how.
        (Numbers::Date(_), _) | (_, Numbers::Date(_)) => per_row(),
        (a, b) => {
            // Doubles order as `Value` orders them (-0.0 = 0.0, NaN by bits).
            let cmp = |x: &f64, y: &f64| Value::Double(*x).cmp(&Value::Double(*y));
            typed(&a.to_f64(), &b.to_f64(), cmp, test)
        }
    }
}

/// `v IN (list)`: NULL for a NULL `v`; otherwise item after item, each
/// computed only on the rows no earlier item matched.
fn in_list(
    v: &Column,
    (list, negated): (&[Expr], bool),
    b: &Batch,
    sel: &[u32],
    values: &[Value],
) -> Result<Column> {
    let literals: Option<Vec<&Value>> = list
        .iter()
        .map(|e| match e {
            Expr::Literal(w) => Some(w),
            _ => None,
        })
        .collect();
    if let (Column::Dict(d, vids), Some(items)) = (v, &literals) {
        let member = |x: &Value| match x.is_null() {
            true => NULL,
            false => (items.iter().any(|w| x.sql_cmp(w) == Some(Ordering::Equal)) != negated) as u8,
        };
        return Ok(from_truth(per_entry(d, vids, member)));
    }
    let mut found = vec![false; sel.len()];
    let mut rest: Vec<usize> = (0..sel.len()).filter(|&j| !v.is_null(j)).collect();
    for item in list {
        if rest.is_empty() {
            break;
        }
        let rows: Vec<u32> = rest.iter().map(|&j| sel[j]).collect();
        let w = eval_batch(item, b, &rows, values)?;
        let mut k = 0;
        rest.retain(|&j| {
            let hit = v.get(j).sql_cmp(&w.get(k)) == Some(Ordering::Equal);
            k += 1;
            found[j] |= hit;
            !hit
        });
    }
    let t = (0..sel.len()).map(|j| match v.is_null(j) {
        true => NULL,
        false => (found[j] != negated) as u8,
    });
    Ok(from_truth(t.collect()))
}

/// CASE: each condition on the rows no earlier arm took, each result
/// on the rows its condition holds on.
fn case(
    (whens, else_expr): (&[(Expr, Expr)], Option<&Expr>),
    b: &Batch,
    sel: &[u32],
    values: &[Value],
) -> Result<Column> {
    let mut out = vec![Value::Null; sel.len()];
    let mut rest: Vec<usize> = (0..sel.len()).collect();
    let rows = |at: &[usize]| at.iter().map(|&j| sel[j]).collect::<Vec<u32>>();
    let mut fill = |at: &[usize], e: &Expr| -> Result<()> {
        let v = eval_batch(e, b, &rows(at), values)?;
        for (k, &j) in at.iter().enumerate() {
            out[j] = v.get(k).into_owned();
        }
        Ok(())
    };
    for (cond, then) in whens {
        if rest.is_empty() {
            break;
        }
        let t = truth(&*eval_batch(cond, b, &rows(&rest), values)?);
        let (hit, miss): (Vec<_>, Vec<_>) = rest.iter().zip(&t).partition(|(_, x)| **x == T);
        let hit: Vec<usize> = hit.into_iter().map(|(&j, _)| j).collect();
        fill(&hit, then)?;
        rest = miss.into_iter().map(|(&j, _)| j).collect();
    }
    if let (Some(e), false) = (else_expr, rest.is_empty()) {
        fill(&rest, e)?;
    }
    Ok(Column::from_values(out))
}
