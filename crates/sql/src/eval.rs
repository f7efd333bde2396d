//! Row-level expression evaluation.
//!
//! A single evaluator is shared by every engine that executes predicates
//! or scalar expressions over rows: the vectorized executor in
//! `hana-query`, the Hive compiler's map tasks in `hana-hadoop`, and the
//! CCL filters of `hana-esp`. Aggregate calls are *not* evaluated here —
//! executors replace them with pre-computed columns before calling in.
//!
//! Names are resolved once per expression per operator run, by
//! [`Expr::resolve`]; [`evaluate`] reads positions only, so an unknown
//! or ambiguous column is an error before any row is read.

use hana_types::{HanaError, Result, Row, Schema, Value};

use crate::ast::{BinOp, Expr, UnaryOp};

impl Expr {
    /// This expression as [`evaluate`] reads it over rows of `schema`:
    /// every column reference becomes its [`Expr::Field`] position and
    /// every slot the literal at its index in `values`. The first column
    /// that does not resolve, or slot without a value, is the error.
    pub fn resolve(&self, schema: &Schema, values: &[Value]) -> Result<Expr> {
        let mut resolved = self.clone();
        let mut failed = None;
        resolved.walk_mut(&mut |n| {
            let replacement = match n {
                Expr::Column { qualifier, name } => {
                    resolve_column(schema, qualifier.as_deref(), name).map(Expr::Field)
                }
                Expr::Parameter(i) => match values.get(*i) {
                    Some(v) => Ok(Expr::Literal(v.clone())),
                    None => Err(crate::bind::no_value_bound(*i)),
                },
                _ => return,
            };
            match replacement {
                Ok(e) => *n = e,
                Err(e) => {
                    failed.get_or_insert(e);
                }
            }
        });
        failed.map_or(Ok(resolved), Err)
    }
}

/// Evaluate a resolved expression ([`Expr::resolve`]) against one row.
pub fn evaluate(expr: &Expr, row: &Row) -> Result<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Field(i) => Ok(row[*i].clone()),
        Expr::Parameter(i) => Err(HanaError::Plan(format!(
            "unbound parameter ?{} — bind values before execution",
            i + 1
        ))),
        Expr::Column { .. } => Err(HanaError::Plan(format!(
            "internal error: column '{expr}' reached the evaluator unresolved"
        ))),
        Expr::Wildcard => Err(HanaError::Plan("'*' is only valid inside COUNT(*)".into())),
        Expr::Unary { op, expr } => {
            let v = evaluate(expr, row)?;
            match op {
                UnaryOp::Neg => Value::Int(0).sub(&v),
                UnaryOp::Not => match v {
                    Value::Null => Ok(Value::Null),
                    Value::Bool(b) => Ok(Value::Bool(!b)),
                    other => Err(HanaError::Execution(format!(
                        "NOT applied to non-boolean {other}"
                    ))),
                },
            }
        }
        Expr::Binary { left, op, right } => {
            let l = evaluate(left, row)?;
            match op {
                // Short-circuit three-valued logic.
                BinOp::And => match l {
                    Value::Bool(false) => Ok(Value::Bool(false)),
                    _ => {
                        let r = evaluate(right, row)?;
                        tvl_and(&l, &r)
                    }
                },
                BinOp::Or => match l {
                    Value::Bool(true) => Ok(Value::Bool(true)),
                    _ => {
                        let r = evaluate(right, row)?;
                        tvl_or(&l, &r)
                    }
                },
                _ => {
                    let r = evaluate(right, row)?;
                    apply_binop(*op, &l, &r)
                }
            }
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = evaluate(expr, row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut found = false;
            for item in list {
                let w = evaluate(item, row)?;
                if v.sql_cmp(&w) == Some(std::cmp::Ordering::Equal) {
                    found = true;
                    break;
                }
            }
            Ok(Value::Bool(found != *negated))
        }
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => {
            let v = evaluate(expr, row)?;
            let l = evaluate(lo, row)?;
            let h = evaluate(hi, row)?;
            if v.is_null() || l.is_null() || h.is_null() {
                return Ok(Value::Null);
            }
            let inside = v >= l && v <= h;
            Ok(Value::Bool(inside != *negated))
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = evaluate(expr, row)?;
            match v.sql_like(pattern) {
                None => Ok(Value::Null),
                Some(m) => Ok(Value::Bool(m != *negated)),
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = evaluate(expr, row)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Func { name, args } => scalar_function(name, args.len(), |i| evaluate(&args[i], row)),
        Expr::Case { whens, else_expr } => {
            for (cond, val) in whens {
                if evaluate(cond, row)? == Value::Bool(true) {
                    return evaluate(val, row);
                }
            }
            match else_expr {
                Some(e) => evaluate(e, row),
                None => Ok(Value::Null),
            }
        }
    }
}

/// Evaluate a resolved predicate; SQL semantics collapse NULL to false.
pub fn evaluate_predicate(expr: &Expr, row: &Row) -> Result<bool> {
    match evaluate(expr, row)? {
        Value::Bool(b) => Ok(b),
        Value::Null => Ok(false),
        other => Err(HanaError::Execution(format!(
            "predicate evaluated to non-boolean {other}"
        ))),
    }
}

/// Resolve a possibly-qualified column against a schema: `t.c` first
/// as `t.c` verbatim (join outputs use qualified column names), then
/// bare `c`, then the one column named `<binding>.c` if exactly one is.
/// Allocates only to report an error.
pub fn resolve_column(schema: &Schema, qualifier: Option<&str>, name: &str) -> Result<usize> {
    let columns = schema.columns().iter().map(|c| c.name.as_str());
    if let Some(q) = qualifier {
        let qualified = |c: &str| {
            c.len() == q.len() + 1 + name.len()
                && c.as_bytes()[q.len()] == b'.'
                && c[..q.len()].eq_ignore_ascii_case(q)
                && c[q.len() + 1..].eq_ignore_ascii_case(name)
        };
        if let Some(i) = columns.clone().position(qualified) {
            return Ok(i);
        }
    }
    if let Some(i) = schema.index_of(name) {
        return Ok(i);
    }
    let suffixed = |c: &str| {
        c.len() > name.len() && c.ends_with(name) && c.as_bytes()[c.len() - name.len() - 1] == b'.'
    };
    let mut matches = columns.enumerate().filter(|(_, c)| suffixed(c));
    match (matches.next(), matches.next()) {
        (Some((i, _)), None) => Ok(i),
        (None, _) => Err(HanaError::Plan(format!(
            "unknown column '{}{name}' in schema {schema}",
            qualifier.map(|q| format!("{q}.")).unwrap_or_default()
        ))),
        _ => Err(HanaError::Plan(format!("ambiguous column '{name}'"))),
    }
}

fn tvl_and(l: &Value, r: &Value) -> Result<Value> {
    Ok(match (l.as_bool(), r.as_bool()) {
        (Some(false), _) | (_, Some(false)) => Value::Bool(false),
        (Some(true), Some(true)) => Value::Bool(true),
        _ => Value::Null,
    })
}

fn tvl_or(l: &Value, r: &Value) -> Result<Value> {
    Ok(match (l.as_bool(), r.as_bool()) {
        (Some(true), _) | (_, Some(true)) => Value::Bool(true),
        (Some(false), Some(false)) => Value::Bool(false),
        _ => Value::Null,
    })
}

fn apply_binop(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    use std::cmp::Ordering::*;
    match op {
        BinOp::Add => l.add(r),
        BinOp::Sub => l.sub(r),
        BinOp::Mul => l.mul(r),
        BinOp::Div => l.div(r),
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let Some(ord) = l.sql_cmp(r) else {
                return Ok(Value::Null);
            };
            let b = match op {
                BinOp::Eq => ord == Equal,
                BinOp::Ne => ord != Equal,
                BinOp::Lt => ord == Less,
                BinOp::Le => ord != Greater,
                BinOp::Gt => ord == Greater,
                BinOp::Ge => ord != Less,
                _ => unreachable!(),
            };
            Ok(Value::Bool(b))
        }
        BinOp::And | BinOp::Or => unreachable!("handled by evaluate"),
    }
}

/// A scalar (non-aggregate) SQL function over `argc` arguments, each
/// read through `arg(i)` when — and only when — the function needs it:
/// `COALESCE` stops at its first non-NULL argument, `SUBSTR` reads its
/// bounds only for a string. Every evaluator calls this, so a function
/// means the same, and fails on the same inputs, everywhere.
pub fn scalar_function(
    name: &str,
    argc: usize,
    mut eval_arg: impl FnMut(usize) -> Result<Value>,
) -> Result<Value> {
    let need = |n: usize| -> Result<()> {
        if argc == n {
            Ok(())
        } else {
            Err(HanaError::Plan(format!(
                "{name} expects {n} argument(s), got {argc}"
            )))
        }
    };
    match name {
        "YEAR" => {
            need(1)?;
            Ok(match eval_arg(0)? {
                Value::Date(d) => Value::Int(d.year() as i64),
                Value::Null => Value::Null,
                other => return Err(HanaError::Execution(format!("YEAR of non-date {other}"))),
            })
        }
        "MONTH" => {
            need(1)?;
            Ok(match eval_arg(0)? {
                Value::Date(d) => Value::Int(d.month() as i64),
                Value::Null => Value::Null,
                other => return Err(HanaError::Execution(format!("MONTH of non-date {other}"))),
            })
        }
        "ADD_MONTHS" => {
            need(2)?;
            match (eval_arg(0)?, eval_arg(1)?) {
                (Value::Date(d), Value::Int(m)) => Ok(Value::Date(d.add_months(m as i32))),
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (a, b) => Err(HanaError::Execution(format!("ADD_MONTHS({a}, {b})"))),
            }
        }
        "ABS" => {
            need(1)?;
            Ok(match eval_arg(0)? {
                Value::Int(i) => Value::Int(i.abs()),
                Value::Double(d) => Value::Double(d.abs()),
                Value::Null => Value::Null,
                other => return Err(HanaError::Execution(format!("ABS of {other}"))),
            })
        }
        "UPPER" => {
            need(1)?;
            Ok(match eval_arg(0)? {
                Value::Varchar(s) => Value::Varchar(s.to_uppercase()),
                Value::Null => Value::Null,
                other => return Err(HanaError::Execution(format!("UPPER of {other}"))),
            })
        }
        "LOWER" => {
            need(1)?;
            Ok(match eval_arg(0)? {
                Value::Varchar(s) => Value::Varchar(s.to_lowercase()),
                Value::Null => Value::Null,
                other => return Err(HanaError::Execution(format!("LOWER of {other}"))),
            })
        }
        "LENGTH" => {
            need(1)?;
            Ok(match eval_arg(0)? {
                Value::Varchar(s) => Value::Int(s.chars().count() as i64),
                Value::Null => Value::Null,
                other => return Err(HanaError::Execution(format!("LENGTH of {other}"))),
            })
        }
        "SUBSTR" | "SUBSTRING" => {
            // SUBSTR(s, start[, len]) with 1-based start.
            if argc != 2 && argc != 3 {
                return Err(HanaError::Plan("SUBSTR expects 2 or 3 arguments".into()));
            }
            let s = match eval_arg(0)? {
                Value::Varchar(s) => s,
                Value::Null => return Ok(Value::Null),
                other => return Err(HanaError::Execution(format!("SUBSTR of {other}"))),
            };
            let start = eval_arg(1)?
                .as_i64()
                .ok_or_else(|| HanaError::Execution("SUBSTR start must be integer".into()))?
                .max(1) as usize;
            let chars: Vec<char> = s.chars().collect();
            let from = (start - 1).min(chars.len());
            let to = if argc == 3 {
                let len = eval_arg(2)?
                    .as_i64()
                    .ok_or_else(|| HanaError::Execution("SUBSTR len must be integer".into()))?
                    .max(0) as usize;
                (from + len).min(chars.len())
            } else {
                chars.len()
            };
            Ok(Value::Varchar(chars[from..to].iter().collect()))
        }
        "COALESCE" | "IFNULL" => {
            for i in 0..argc {
                let v = eval_arg(i)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(Value::Null)
        }
        other => Err(HanaError::Unsupported(format!(
            "unknown scalar function '{other}'"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;
    use crate::Statement;
    use hana_types::{DataType, Date};

    fn schema() -> Schema {
        Schema::of(&[
            ("id", DataType::Int),
            ("name", DataType::Varchar),
            ("ship", DataType::Date),
            ("disc", DataType::Double),
        ])
    }

    fn row() -> Row {
        Row::from_values([
            Value::Int(7),
            Value::from("PROMO BRUSHED"),
            Value::Date(Date::parse("1995-06-17").unwrap()),
            Value::Double(0.05),
        ])
    }

    /// Parse the WHERE clause of a probe query.
    fn where_expr(sql: &str) -> Expr {
        let Statement::Query(q) = parse_statement(&format!("SELECT * FROM t WHERE {sql}")).unwrap()
        else {
            panic!()
        };
        q.filter.unwrap()
    }

    fn check(pred: &str, expected: bool) {
        let e = where_expr(pred);
        assert_eq!(
            evaluate_predicate(&e.resolve(&schema(), &[]).unwrap(), &row()).unwrap(),
            expected,
            "{pred}"
        );
    }

    #[test]
    fn predicates() {
        check("id = 7", true);
        check("id <> 7", false);
        check("id + 1 >= 8", true);
        check("name LIKE 'PROMO%'", true);
        check("name NOT LIKE '%X%'", true);
        check("ship BETWEEN DATE '1995-01-01' AND DATE '1995-12-31'", true);
        check("id IN (1, 2, 7)", true);
        check("id NOT IN (1, 2)", true);
        check("disc IS NULL", false);
        check("disc IS NOT NULL", true);
        check("id = 7 AND disc < 0.01", false);
        check("id = 7 OR disc < 0.01", true);
        check("NOT id = 7", false);
    }

    #[test]
    fn three_valued_logic() {
        let s = Schema::of(&[("x", DataType::Int)]);
        let null_row = Row::from_values([Value::Null]);
        // NULL comparisons are not true.
        for pred in [
            "x = 1",
            "x <> 1",
            "x IN (1)",
            "x BETWEEN 1 AND 2",
            "x LIKE 'a'",
        ] {
            let e = where_expr(pred).resolve(&s, &[]).unwrap();
            assert!(!evaluate_predicate(&e, &null_row).unwrap(), "{pred}");
        }
        // ... but OR TRUE short-circuits.
        let e = where_expr("x = 1 OR 1 = 1").resolve(&s, &[]).unwrap();
        assert!(evaluate_predicate(&e, &null_row).unwrap());
        let e = where_expr("x = 1 AND 1 = 1").resolve(&s, &[]).unwrap();
        assert!(!evaluate_predicate(&e, &null_row).unwrap());
    }

    #[test]
    fn scalar_functions() {
        let sch = schema();
        let r = row();
        let eval = |src: &str| {
            let Statement::Query(q) = parse_statement(&format!("SELECT {src}")).unwrap() else {
                panic!()
            };
            evaluate(&q.select[0].expr.resolve(&sch, &[]).unwrap(), &r).unwrap()
        };
        assert_eq!(eval("YEAR(ship)"), Value::Int(1995));
        assert_eq!(eval("MONTH(ship)"), Value::Int(6));
        assert_eq!(eval("UPPER('ab')"), Value::from("AB"));
        assert_eq!(eval("LENGTH(name)"), Value::Int(13));
        assert_eq!(eval("SUBSTR(name, 1, 5)"), Value::from("PROMO"));
        assert_eq!(eval("SUBSTR(name, 7)"), Value::from("BRUSHED"));
        assert_eq!(eval("COALESCE(NULL, NULL, 3)"), Value::Int(3));
        assert_eq!(eval("ABS(0 - 4)"), Value::Int(4));
        assert_eq!(
            eval("ADD_MONTHS(DATE '1995-01-31', 1)"),
            Value::Date(Date::parse("1995-02-28").unwrap())
        );
        assert_eq!(
            eval("CASE WHEN 1 = 2 THEN 'a' WHEN 1 = 1 THEN 'b' ELSE 'c' END"),
            Value::from("b")
        );
        assert_eq!(eval("CASE WHEN 1 = 2 THEN 'a' END"), Value::Null);
    }

    #[test]
    fn qualified_and_suffix_resolution() {
        let s = Schema::of(&[("t.id", DataType::Int), ("u.id", DataType::Int)]);
        assert_eq!(resolve_column(&s, Some("t"), "id").unwrap(), 0);
        assert_eq!(resolve_column(&s, Some("u"), "id").unwrap(), 1);
        assert!(resolve_column(&s, None, "id").is_err(), "ambiguous");
        let s2 = Schema::of(&[("t.id", DataType::Int), ("u.other", DataType::Int)]);
        assert_eq!(resolve_column(&s2, None, "id").unwrap(), 0, "suffix match");
        assert!(resolve_column(&s2, None, "missing").is_err());
    }

    #[test]
    fn resolution_reads_positions_and_binds_slots() {
        let e = where_expr("disc < ? AND id = 7");
        let bound = e.resolve(&schema(), &[Value::Double(0.1)]).unwrap();
        assert_eq!(bound.to_string(), "((#3 < 0.1) AND (#0 = 7))");
        assert!(evaluate_predicate(&bound, &row()).unwrap());
        let err = e.resolve(&schema(), &[]).unwrap_err();
        assert!(err.to_string().contains("no value bound for parameter 1"));
    }

    #[test]
    fn errors() {
        let e = where_expr("id = 7");
        let wrong = Schema::of(&[("other", DataType::Int)]);
        let err = e.resolve(&wrong, &[]).unwrap_err();
        assert!(err.to_string().contains("unknown column 'id'"), "{err}");
        // Only a resolved expression reaches the evaluator.
        let err = evaluate(&e, &row()).unwrap_err();
        assert!(err.to_string().contains("unresolved"), "{err}");
        let Statement::Query(q) = parse_statement("SELECT NOSUCHFN(1)").unwrap() else {
            panic!()
        };
        assert!(evaluate(&q.select[0].expr, &row()).is_err());
    }
}
