//! Driver-side result finishing, shared by engines.
//!
//! After an engine has materialized the heavy part of a query (scans,
//! joins, and an aggregation stage whose output uses the positional
//! `_g0.._gN, _a0.._aM` column convention), the *driver* still has to
//! apply HAVING, evaluate the final select list, deduplicate DISTINCT,
//! sort and limit. Hive's plan driver, the extended-storage adapter and
//! the federated executor all share this code.

use hana_types::{AggFunc, ColumnDef, DataType, Result, Row, Schema, Value};

use crate::ast::{BinOp, Expr, Query};
use crate::eval::{evaluate, evaluate_predicate, resolve_column};

/// All aggregate calls in the query (select list, HAVING, ORDER BY), in
/// deterministic first-seen order. `COUNT(*)` normalizes to
/// [`AggFunc::CountStar`] with no argument.
pub fn collect_aggregates(q: &Query) -> Vec<(AggFunc, Option<Expr>)> {
    let mut out: Vec<(AggFunc, Option<Expr>)> = Vec::new();
    let mut push = |e: &Expr| {
        e.walk(&mut |n| {
            if let Some(key) = as_aggregate(n) {
                if !out.contains(&key) {
                    out.push(key);
                }
            }
        });
    };
    for item in &q.select {
        push(&item.expr);
    }
    if let Some(h) = &q.having {
        push(h);
    }
    for (e, _) in &q.order_by {
        push(e);
    }
    out
}

/// If `e` is an aggregate call, its normalized `(func, arg)` form.
pub fn as_aggregate(e: &Expr) -> Option<(AggFunc, Option<Expr>)> {
    if let Expr::Func { name, args } = e {
        if let Some(mut f) = AggFunc::parse(name) {
            let arg = match args.first() {
                Some(Expr::Wildcard) | None => {
                    f = AggFunc::CountStar;
                    None
                }
                Some(a) => Some(a.clone()),
            };
            return Some((f, arg));
        }
    }
    None
}

/// Rewrite an expression over an aggregated intermediate: aggregate
/// calls become `_aN` columns and group-by expressions become `_gN`
/// columns. `aggs` must be the canonical list from
/// [`collect_aggregates`] so positions line up.
pub fn substitute_aggregates(
    e: &Expr,
    group_by: &[Expr],
    aggs: &[(AggFunc, Option<Expr>)],
) -> Expr {
    if let Some(i) = group_by.iter().position(|g| g == e) {
        return Expr::col(&format!("_g{i}"));
    }
    if let Some(key) = as_aggregate(e) {
        if let Some(i) = aggs.iter().position(|a| *a == key) {
            return Expr::col(&format!("_a{i}"));
        }
    }
    match e {
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(substitute_aggregates(expr, group_by, aggs)),
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(substitute_aggregates(left, group_by, aggs)),
            op: *op,
            right: Box::new(substitute_aggregates(right, group_by, aggs)),
        },
        Expr::Case { whens, else_expr } => Expr::Case {
            whens: whens
                .iter()
                .map(|(c, v)| {
                    (
                        substitute_aggregates(c, group_by, aggs),
                        substitute_aggregates(v, group_by, aggs),
                    )
                })
                .collect(),
            else_expr: else_expr
                .as_ref()
                .map(|x| Box::new(substitute_aggregates(x, group_by, aggs))),
        },
        other => other.clone(),
    }
}

/// The schema an aggregation stage must produce for query `q`:
/// `_g0.._gN` (typed from the input schema) then `_a0.._aM` (a count is
/// an integer, MIN and MAX have the type of what they compare).
pub fn aggregate_output_schema(q: &Query, input: &Schema) -> Result<Schema> {
    let mut cols = Vec::new();
    for (i, g) in q.group_by.iter().enumerate() {
        cols.push(ColumnDef::new(&format!("_g{i}"), infer_type(g, input)));
    }
    for (i, (f, arg)) in collect_aggregates(q).iter().enumerate() {
        let dt = match (f, arg) {
            (AggFunc::Count | AggFunc::CountStar, _) => DataType::BigInt,
            (AggFunc::Min | AggFunc::Max, Some(arg)) => infer_type(arg, input),
            _ => DataType::Double,
        };
        cols.push(ColumnDef::new(&format!("_a{i}"), dt));
    }
    Schema::new(cols)
}

/// Apply HAVING to aggregated rows (which use the `_g`/`_a` convention).
pub fn apply_having(rows: Vec<Row>, schema: &Schema, q: &Query) -> Result<Vec<Row>> {
    having_shape(rows, schema, q, &[])
}

/// Aggregate calls are matched between clauses by equality of their
/// *shape*, so every clause is substituted first and bound second: two
/// calls that differ only in a slot stay two columns of the aggregation
/// stage whatever the slots hold.
fn having_shape(rows: Vec<Row>, schema: &Schema, q: &Query, values: &[Value]) -> Result<Vec<Row>> {
    let Some(h) = &q.having else {
        return Ok(rows);
    };
    let aggs = collect_aggregates(q);
    let pred = substitute_aggregates(h, &q.group_by, &aggs);
    let pred = pred.bound(values)?;
    let mut kept = Vec::with_capacity(rows.len());
    for r in rows {
        if evaluate_predicate(&pred, schema, &r)? {
            kept.push(r);
        }
    }
    Ok(kept)
}

/// Evaluate the final select list (over raw or aggregated rows) and
/// produce the output schema. SELECT * passes through.
pub fn project_final(rows: &[Row], schema: &Schema, q: &Query) -> Result<(Vec<Row>, Schema)> {
    project_shape(rows, schema, q, &[])
}

/// [`project_final`] of a query shape: slots of the select list read
/// `values`, and name and type the output as the literals would.
pub fn project_shape(
    rows: &[Row],
    schema: &Schema,
    q: &Query,
    values: &[Value],
) -> Result<(Vec<Row>, Schema)> {
    if q.select.is_empty() {
        return Ok((rows.to_vec(), schema.clone()));
    }
    let aggregated = !q.group_by.is_empty()
        || q.select.iter().any(|s| s.expr.contains_aggregate())
        || q.having.as_ref().is_some_and(|h| h.contains_aggregate());
    let aggs = collect_aggregates(q);
    let exprs: Vec<Expr> = q
        .select
        .iter()
        .map(|s| {
            let e = if aggregated {
                substitute_aggregates(&s.expr, &q.group_by, &aggs)
            } else {
                s.expr.clone()
            };
            Ok(e.bound(values)?.into_owned())
        })
        .collect::<Result<_>>()?;
    let mut out_cols = Vec::with_capacity(exprs.len());
    for (item, expr) in q.select.iter().zip(&exprs) {
        let name = match &item.alias {
            Some(alias) => alias.clone(),
            None => item.expr.bound(values)?.default_name(),
        };
        out_cols.push(ColumnDef::new(&name, infer_type(expr, schema)));
    }
    // De-duplicate repeated output names.
    let mut seen = std::collections::HashSet::new();
    for (i, c) in out_cols.iter_mut().enumerate() {
        if !seen.insert(c.name.clone()) {
            c.name = format!("{}_{i}", c.name);
            seen.insert(c.name.clone());
        }
    }
    let out_schema = Schema::new(out_cols)?;
    let mut out_rows = Vec::with_capacity(rows.len());
    for r in rows {
        let mut vals = Vec::with_capacity(exprs.len());
        for e in &exprs {
            vals.push(evaluate(e, schema, r)?);
        }
        out_rows.push(Row(vals));
    }
    Ok((out_rows, out_schema))
}

/// Sort rows by ORDER BY expressions evaluated against `schema`.
/// ORDER BY may reference output aliases or (for aggregated queries)
/// aggregate calls, which are substituted first by the caller if needed.
pub fn sort_rows(rows: &mut [Row], schema: &Schema, order_by: &[(Expr, bool)]) -> Result<()> {
    let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(rows.len());
    for r in rows.iter() {
        let mut keys = Vec::with_capacity(order_by.len());
        for (e, _) in order_by {
            keys.push(evaluate(e, schema, r).unwrap_or(Value::Null));
        }
        keyed.push((keys, r.clone()));
    }
    keyed.sort_by(|a, b| {
        for (i, (_, asc)) in order_by.iter().enumerate() {
            let ord = a.0[i].cmp(&b.0[i]);
            if !ord.is_eq() {
                return if *asc { ord } else { ord.reverse() };
            }
        }
        std::cmp::Ordering::Equal
    });
    for (dst, (_, src)) in rows.iter_mut().zip(keyed) {
        *dst = src;
    }
    Ok(())
}

/// Finish a query from the aggregated (or raw) intermediate: HAVING,
/// projection, DISTINCT, ORDER BY, LIMIT. The one-stop driver epilogue.
pub fn finish_query(rows: Vec<Row>, schema: &Schema, q: &Query) -> Result<(Vec<Row>, Schema)> {
    finish_shape(rows, schema, q, &[])
}

/// [`finish_query`] of a query shape, its slots reading `values`.
pub fn finish_shape(
    mut rows: Vec<Row>,
    schema: &Schema,
    q: &Query,
    values: &[Value],
) -> Result<(Vec<Row>, Schema)> {
    rows = having_shape(rows, schema, q, values)?;
    let (mut rows, out_schema) = project_shape(&rows, schema, q, values)?;
    if q.distinct {
        let mut seen = std::collections::HashSet::new();
        rows.retain(|r| seen.insert(r.clone()));
    }
    if !q.order_by.is_empty() {
        sort_rows(&mut rows, &out_schema, &bound_order(&q.order_by, values)?)?;
    }
    if let Some(n) = q.limit {
        rows.truncate(n);
    }
    Ok((rows, out_schema))
}

/// ORDER BY keys with their slots bound.
pub fn bound_order(order_by: &[(Expr, bool)], values: &[Value]) -> Result<Vec<(Expr, bool)>> {
    let key = |(e, asc): &(Expr, bool)| Ok((e.bound(values)?.into_owned(), *asc));
    order_by.iter().map(key).collect()
}

/// Best-effort static type inference for derived columns.
pub fn infer_type(e: &Expr, schema: &Schema) -> DataType {
    match e {
        Expr::Literal(v) => v.data_type().unwrap_or(DataType::Varchar),
        Expr::Column { qualifier, name } => resolve_column(schema, qualifier.as_deref(), name)
            .map(|i| schema.column(i).data_type)
            .unwrap_or(DataType::Varchar),
        Expr::Func { name, .. } => match AggFunc::parse(name) {
            Some(AggFunc::Count | AggFunc::CountStar) => DataType::BigInt,
            Some(_) => DataType::Double,
            None => match name.as_str() {
                "YEAR" | "MONTH" | "LENGTH" => DataType::BigInt,
                "UPPER" | "LOWER" | "SUBSTR" | "SUBSTRING" => DataType::Varchar,
                "ADD_MONTHS" => DataType::Date,
                _ => DataType::Varchar,
            },
        },
        Expr::Binary {
            op: BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div,
            ..
        } => DataType::Double,
        Expr::Binary { .. } => DataType::Bool,
        Expr::Unary { expr, .. } => infer_type(expr, schema),
        Expr::Case { whens, .. } => whens
            .first()
            .map(|(_, v)| infer_type(v, schema))
            .unwrap_or(DataType::Varchar),
        _ => DataType::Bool,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;
    use crate::Statement;

    fn query(sql: &str) -> Query {
        let Statement::Query(q) = parse_statement(sql).unwrap() else {
            panic!()
        };
        q
    }

    #[test]
    fn collects_aggregates_in_order() {
        let q =
            query("SELECT SUM(a), COUNT(*) FROM t GROUP BY b HAVING AVG(c) > 1 ORDER BY SUM(a)");
        let aggs = collect_aggregates(&q);
        assert_eq!(aggs.len(), 3);
        assert_eq!(aggs[0].0, AggFunc::Sum);
        assert_eq!(aggs[1].0, AggFunc::CountStar);
        assert_eq!(aggs[2].0, AggFunc::Avg);
    }

    #[test]
    fn substitution_rewrites_to_positional_columns() {
        let q = query("SELECT b, SUM(a) / COUNT(*) FROM t GROUP BY b");
        let aggs = collect_aggregates(&q);
        let rewritten = substitute_aggregates(&q.select[1].expr, &q.group_by, &aggs);
        assert_eq!(rewritten.to_string(), "(_a0 / _a1)");
        let g = substitute_aggregates(&q.select[0].expr, &q.group_by, &aggs);
        assert_eq!(g.to_string(), "_g0");
    }

    #[test]
    fn finish_query_full_epilogue() {
        use hana_types::Value;
        let q = query(
            "SELECT _g0 AS status, _a0 AS cnt FROM t GROUP BY status_placeholder \
             HAVING COUNT(*) > 1 ORDER BY cnt DESC LIMIT 1",
        );
        // Build a fake aggregated intermediate matching _g0/_a0.
        let schema = Schema::of(&[("_g0", DataType::Varchar), ("_a0", DataType::BigInt)]);
        let rows = vec![
            Row::from_values([Value::from("A"), Value::Int(5)]),
            Row::from_values([Value::from("B"), Value::Int(1)]),
            Row::from_values([Value::from("C"), Value::Int(9)]),
        ];
        // HAVING COUNT(*) needs the canonical agg list; this query's
        // collect finds CountStar, which substitutes to _a0.
        let (rows, schema) = finish_query(rows, &schema, &q).unwrap();
        assert_eq!(schema.index_of("cnt"), Some(1));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::from("C"));
    }
}
