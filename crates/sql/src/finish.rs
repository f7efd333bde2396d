//! Driver-side result finishing, shared by engines.
//!
//! After an engine has materialized the heavy part of a query (scans,
//! joins, and an aggregation stage whose output uses the positional
//! `_g0.._gN, _a0.._aM` column convention), the *driver* still has to
//! apply HAVING, evaluate the final select list, deduplicate DISTINCT,
//! sort and limit. Hive's plan driver, the extended-storage adapter and
//! the federated executor all share this code.

use hana_types::{AggFunc, ColumnDef, DataType, HanaError, Result, Row, Schema, Value};

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

/// Whether `q` runs over an aggregation stage's `_g`/`_a` rows — the
/// planner's and every engine's rule: it groups or calls an aggregate.
fn aggregated(q: &Query, aggs: &[(AggFunc, Option<Expr>)]) -> bool {
    !q.group_by.is_empty() || !aggs.is_empty()
}

/// Apply HAVING to aggregated rows (which use the `_g`/`_a` convention).
///
/// Aggregate calls are matched between clauses by equality of their
/// *shape*, so every clause is substituted first and resolved second:
/// two calls that differ only in a slot stay two columns of the
/// aggregation stage whatever the slots hold.
fn having_shape(rows: Vec<Row>, schema: &Schema, q: &Query, values: &[Value]) -> Result<Vec<Row>> {
    let Some(h) = &q.having else {
        return Ok(rows);
    };
    let aggs = collect_aggregates(q);
    let pred = substitute_aggregates(h, &q.group_by, &aggs).resolve(schema, values)?;
    let mut kept = Vec::with_capacity(rows.len());
    for r in rows {
        if evaluate_predicate(&pred, &r)? {
            kept.push(r);
        }
    }
    Ok(kept)
}

/// A select list resolved against the rows it projects (raw rows, or
/// an aggregation stage's `_g`/`_a` rows): the output schema and one
/// positional expression per output column. `SELECT *` passes rows
/// through.
pub struct Projection {
    /// `None` for `SELECT *`.
    exprs: Option<Vec<Expr>>,
    schema: Schema,
}

impl Projection {
    /// Resolve `q`'s select list over rows of `input`, its slots reading
    /// `values`; the output is named and typed as the literals would
    /// name and type it.
    pub fn new(input: &Schema, q: &Query, values: &[Value]) -> Result<Projection> {
        if q.select.is_empty() {
            return Ok(Projection {
                exprs: None,
                schema: input.clone(),
            });
        }
        let aggs = collect_aggregates(q);
        let aggregated = aggregated(q, &aggs);
        let mut exprs = Vec::with_capacity(q.select.len());
        let mut out_cols = Vec::with_capacity(q.select.len());
        for item in &q.select {
            let e = if aggregated {
                substitute_aggregates(&item.expr, &q.group_by, &aggs).resolve(input, values)?
            } else {
                item.expr.resolve(input, values)?
            };
            let name = match &item.alias {
                Some(alias) => alias.clone(),
                None => item.expr.bound(values)?.default_name(),
            };
            out_cols.push(ColumnDef::new(&name, infer_type(&e, input)));
            exprs.push(e);
        }
        // De-duplicate repeated output names.
        let mut seen = std::collections::HashSet::new();
        for (i, c) in out_cols.iter_mut().enumerate() {
            if !seen.insert(c.name.clone()) {
                c.name = format!("{}_{i}", c.name);
                seen.insert(c.name.clone());
            }
        }
        Ok(Projection {
            exprs: Some(exprs),
            schema: Schema::new(out_cols)?,
        })
    }

    /// The output schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The output row of one input row.
    pub fn project(&self, row: &Row) -> Result<Row> {
        match &self.exprs {
            None => Ok(row.clone()),
            Some(exprs) => exprs
                .iter()
                .map(|e| evaluate(e, row))
                .collect::<Result<_>>()
                .map(Row),
        }
    }
}

/// Where an ORDER BY key is read.
enum SortKey {
    /// From the output row: an output column or alias, or — under
    /// DISTINCT — the select item the key is.
    Output(Expr),
    /// From the input row while it is projected: a `_gN` / `_aN`
    /// column of an aggregated query, otherwise an input column.
    Input(Expr),
}

/// Resolve each ORDER BY key once, in this order: an output column or
/// alias (an unqualified, aggregate-free key all of whose columns the
/// output has); else the key over the input — substituted to `_gN` /
/// `_aN` columns when the query is aggregated. Under DISTINCT the rows
/// are deduplicated on their output, so such a key must be one of the
/// select items; a key that resolves nowhere is an error.
fn sort_keys(
    q: &Query,
    input: &Schema,
    projection: &Projection,
    values: &[Value],
) -> Result<Vec<(SortKey, bool)>> {
    let aggs = collect_aggregates(q);
    let over_input = |e: &Expr| match aggregated(q, &aggs) {
        true => substitute_aggregates(e, &q.group_by, &aggs).resolve(input, values),
        false => e.resolve(input, values),
    };
    let key = |(e, asc): &(Expr, bool)| {
        let unqualified = e.columns().iter().all(|(qualifier, _)| qualifier.is_none());
        if unqualified && !e.contains_aggregate() {
            if let Ok(k) = e.resolve(projection.schema(), values) {
                return Ok((SortKey::Output(k), *asc));
            }
        }
        let k = over_input(e)?;
        if !q.distinct {
            return Ok((SortKey::Input(k), *asc));
        }
        let Some(exprs) = &projection.exprs else {
            return Ok((SortKey::Output(k), *asc));
        };
        match exprs.iter().position(|s| *s == k) {
            Some(i) => Ok((SortKey::Output(Expr::Field(i)), *asc)),
            None => Err(HanaError::Plan(format!(
                "ORDER BY {e} is not in the select list of a SELECT DISTINCT"
            ))),
        }
    };
    q.order_by.iter().map(key).collect()
}

/// Finish a query from the aggregated (or raw) intermediate: HAVING,
/// projection, DISTINCT, ORDER BY, LIMIT. The one-stop driver epilogue.
pub fn finish_query(rows: Vec<Row>, schema: &Schema, q: &Query) -> Result<(Vec<Row>, Schema)> {
    finish_shape(rows, schema, q, &[])
}

/// [`finish_query`] of a query shape, its slots reading `values`. Every
/// expression is resolved before the first row.
pub fn finish_shape(
    rows: Vec<Row>,
    schema: &Schema,
    q: &Query,
    values: &[Value],
) -> Result<(Vec<Row>, Schema)> {
    let projection = Projection::new(schema, q, values)?;
    let keys = sort_keys(q, schema, &projection, values)?;
    let rows = having_shape(rows, schema, q, values)?;
    let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(rows.len());
    for input in &rows {
        let row = projection.project(input)?;
        let read = |(key, _): &(SortKey, bool)| match key {
            SortKey::Output(e) => evaluate(e, &row),
            SortKey::Input(e) => evaluate(e, input),
        };
        let key = keys.iter().map(read).collect::<Result<Vec<Value>>>()?;
        keyed.push((key, row));
    }
    if q.distinct {
        let mut seen = std::collections::HashSet::new();
        keyed.retain(|(_, r)| seen.insert(r.clone()));
    }
    if !keys.is_empty() {
        keyed.sort_by(|(a, _), (b, _)| {
            for ((_, asc), (a, b)) in keys.iter().zip(a.iter().zip(b)) {
                let ord = a.cmp(b);
                if !ord.is_eq() {
                    return if *asc { ord } else { ord.reverse() };
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    let limit = q.limit.unwrap_or(usize::MAX);
    let rows = keyed.into_iter().take(limit).map(|(_, r)| r).collect();
    Ok((rows, projection.schema))
}

/// Best-effort static type inference for derived columns.
pub fn infer_type(e: &Expr, schema: &Schema) -> DataType {
    match e {
        Expr::Literal(v) => v.data_type().unwrap_or(DataType::Varchar),
        Expr::Field(i) => schema.column(*i).data_type,
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
