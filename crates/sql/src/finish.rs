//! Driver-side result finishing, shared by engines.
//!
//! After an engine has materialized the heavy part of a query (scans,
//! joins, and an aggregation stage whose output uses the positional
//! `_g0.._gN, _a0.._aM` column convention), the *driver* still has to
//! apply HAVING, evaluate the final select list, deduplicate DISTINCT,
//! sort and limit: the query's [`Epilogue`], which every engine resolves
//! when it compiles the statement (so an unknown column is an error
//! before any row is read) and applies to a column [`Batch`] through
//! [`select`] and [`eval_batch`], building rows once, after it.

use std::borrow::Cow;
use std::collections::HashSet;

use hana_types::{AggFunc, ColumnDef, DataType, HanaError, Result, ResultSet, Schema, Value};

use crate::ast::{BinOp, Expr, Query, SelectItem};
use crate::batch::{eval_batch, select, Batch, Column};
use crate::eval::resolve_column;

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

/// The output name of each item of a select list whose slots hold
/// `values`: its alias, else the name the statement written with those
/// literals gives it; a repeated name gets its position appended. The
/// one naming rule of every engine's output.
pub fn output_names(select: &[SelectItem], values: &[Value]) -> Result<Vec<String>> {
    let mut names = Vec::with_capacity(select.len());
    let mut seen = std::collections::HashSet::new();
    for (i, item) in select.iter().enumerate() {
        let mut name = match &item.alias {
            Some(alias) => alias.clone(),
            None => item.expr.bound(values)?.default_name(),
        };
        if !seen.insert(name.clone()) {
            name = format!("{name}_{i}");
            seen.insert(name.clone());
        }
        names.push(name);
    }
    Ok(names)
}

/// `schema`, the output of select list `select`, named for a run whose
/// slots hold `values`: borrowed as it is unless a name depends on a
/// slot (an unaliased item that holds one).
pub fn named<'s>(
    schema: &'s Schema,
    select: &[SelectItem],
    values: &[Value],
) -> Result<Cow<'s, Schema>> {
    let by_slot = |s: &SelectItem| s.alias.is_none() && s.expr.has_slots();
    if select.len() != schema.len() || !select.iter().any(by_slot) {
        return Ok(Cow::Borrowed(schema));
    }
    let names = output_names(select, values)?.into_iter();
    let columns = schema.columns().iter().zip(names);
    let columns = columns.map(|(c, name)| ColumnDef::new(&name, c.data_type));
    Ok(Cow::Owned(Schema::new(columns.collect())?))
}

/// A select list resolved against the rows it projects (raw rows, or
/// an aggregation stage's `_g`/`_a` rows): the output schema and one
/// positional expression per output column. `SELECT *` passes rows
/// through.
#[derive(Debug, Clone)]
pub struct Projection {
    /// `None` for `SELECT *`.
    exprs: Option<Vec<Expr>>,
    schema: Schema,
    /// The select list, kept when an expression holds a slot: a run
    /// names the output anew.
    slotted: Option<Vec<SelectItem>>,
}

impl Projection {
    /// Resolve `q`'s select list over rows of `input`; the output is
    /// named and typed as the statement written with `values` for its
    /// slots would name and type it.
    pub fn new(input: &Schema, q: &Query, values: &[Value]) -> Result<Projection> {
        if q.select.is_empty() {
            return Ok(Projection {
                exprs: None,
                schema: input.clone(),
                slotted: None,
            });
        }
        let aggs = collect_aggregates(q);
        let aggregated = aggregated(q, &aggs);
        let mut exprs = Vec::with_capacity(q.select.len());
        for item in &q.select {
            exprs.push(match aggregated {
                true => substitute_aggregates(&item.expr, &q.group_by, &aggs).positional(input)?,
                false => item.expr.positional(input)?,
            });
        }
        let names = output_names(&q.select, values)?;
        let mut columns = Vec::with_capacity(exprs.len());
        for (name, e) in names.iter().zip(&exprs) {
            columns.push(ColumnDef::new(name, infer_type(&*e.bound(values)?, input)));
        }
        let slotted = exprs.iter().any(Expr::has_slots).then(|| q.select.clone());
        Ok(Projection {
            exprs: Some(exprs),
            schema: Schema::new(columns)?,
            slotted,
        })
    }

    /// The output schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// One positional expression per output column; `None` for
    /// `SELECT *`, which passes rows through.
    pub fn exprs(&self) -> Option<&[Expr]> {
        self.exprs.as_deref()
    }

    /// The output schema of a run whose slots hold `values`: borrowed
    /// as planned unless an output name depends on a slot.
    fn schema_for(&self, values: &[Value]) -> Result<Cow<'_, Schema>> {
        match &self.slotted {
            Some(select) => named(&self.schema, select, values),
            None => Ok(Cow::Borrowed(&self.schema)),
        }
    }
}

/// An ORDER BY key, resolved once.
#[derive(Debug, Clone)]
struct SortKey {
    expr: Expr,
    /// Read from the output row: an output column or alias, or — under
    /// DISTINCT — the select item the key is. Otherwise from the input
    /// row while it is projected: a `_gN` / `_aN` column of an
    /// aggregated query, else an input column.
    output: bool,
    asc: bool,
}

/// Resolve each ORDER BY key once, in this order: an output column or
/// alias (an unqualified, aggregate-free key all of whose columns the
/// output has); else the key over the input — substituted to `_gN` /
/// `_aN` columns when the query is aggregated. Under DISTINCT the rows
/// are deduplicated on their output, so such a key must be one of the
/// select items; a key that resolves nowhere is an error.
fn sort_keys(q: &Query, input: &Schema, projection: &Projection) -> Result<Vec<SortKey>> {
    let aggs = collect_aggregates(q);
    let over_input = |e: &Expr| match aggregated(q, &aggs) {
        true => substitute_aggregates(e, &q.group_by, &aggs).positional(input),
        false => e.positional(input),
    };
    let key = |(e, asc): &(Expr, bool)| {
        let key = |expr, output| SortKey {
            expr,
            output,
            asc: *asc,
        };
        let unqualified = e.columns().iter().all(|(qualifier, _)| qualifier.is_none());
        if unqualified && !e.contains_aggregate() {
            if let Ok(k) = e.positional(projection.schema()) {
                return Ok(key(k, true));
            }
        }
        let k = over_input(e)?;
        if !q.distinct {
            return Ok(key(k, false));
        }
        let Some(exprs) = &projection.exprs else {
            return Ok(key(k, true));
        };
        match exprs.iter().position(|s| *s == k) {
            Some(i) => Ok(key(Expr::Field(i), true)),
            None => Err(HanaError::Plan(format!(
                "ORDER BY {e} is not in the select list of a SELECT DISTINCT"
            ))),
        }
    };
    q.order_by.iter().map(key).collect()
}

/// A query's driver epilogue — HAVING, the select list, DISTINCT, ORDER
/// BY, LIMIT — resolved once over the rows it finishes, with its output
/// schema. Slots stay slots: [`Epilogue::apply`] reads them from the
/// values of a run. A plan's `Finish` holds one; Hive, the IQ adapter
/// and ESP windows build one when they compile a statement.
#[derive(Debug, Clone)]
pub struct Epilogue {
    having: Option<Expr>,
    projection: Projection,
    keys: Vec<SortKey>,
    distinct: bool,
    limit: Option<usize>,
}

impl Epilogue {
    /// Resolve `q`'s epilogue over rows of `input` (raw rows, or an
    /// aggregation stage's `_g`/`_a` rows). Aggregate calls are matched
    /// between clauses by equality of their *shape*: two calls that
    /// differ only in a slot stay two columns of the aggregation stage
    /// whatever the slots hold.
    pub fn new(input: &Schema, q: &Query, values: &[Value]) -> Result<Epilogue> {
        let projection = Projection::new(input, q, values)?;
        let keys = sort_keys(q, input, &projection)?;
        let substituted = |h| substitute_aggregates(h, &q.group_by, &collect_aggregates(q));
        let having = q.having.as_ref().map(|h| substituted(h).positional(input));
        Ok(Epilogue {
            having: having.transpose()?,
            projection,
            keys,
            distinct: q.distinct,
            limit: q.limit,
        })
    }

    /// The output schema as planned (a run renames an output column
    /// whose name depends on a slot).
    pub fn schema(&self) -> &Schema {
        self.projection.schema()
    }

    /// HAVING, projection, DISTINCT, ORDER BY and LIMIT over the rows in
    /// play of `input`, for a run whose slots hold `values`: the output
    /// rows, built here, under their schema.
    pub fn apply(&self, mut input: Batch, values: &[Value]) -> Result<ResultSet> {
        if let Some(h) = &self.having {
            input.sel = select(h, &input, &input.sel, values)?;
        }
        let projected = match &self.projection.exprs {
            None => None,
            Some(exprs) => {
                let column = |e| Ok(eval_batch(e, &input, &input.sel, values)?.into_owned());
                let columns = exprs.iter().map(column).collect::<Result<_>>()?;
                Some(Batch::new(columns, input.rows()))
            }
        };
        let output = projected.as_ref().unwrap_or(&input);
        let key = |k: &SortKey| {
            let b = if k.output { output } else { &input };
            Ok(eval_batch(&k.expr, b, &b.sel, values)?.into_owned())
        };
        let keys = self.keys.iter().map(key).collect::<Result<Vec<Column>>>()?;
        let mut rows = Vec::with_capacity(output.rows());
        projected.unwrap_or(input).push_rows(&mut rows);
        let mut order: Vec<usize> = (0..rows.len()).collect();
        if self.distinct {
            let mut seen = HashSet::new();
            order.retain(|&i| seen.insert(&rows[i]));
        }
        order.sort_by(|&a, &b| {
            for (k, col) in self.keys.iter().zip(&keys) {
                let ord = col.get(a).cmp(&col.get(b));
                if !ord.is_eq() {
                    return if k.asc { ord } else { ord.reverse() };
                }
            }
            std::cmp::Ordering::Equal
        });
        order.truncate(self.limit.unwrap_or(usize::MAX));
        let rows = order.iter().map(|&i| std::mem::take(&mut rows[i]));
        let schema = self.projection.schema_for(values)?.into_owned();
        Ok(ResultSet::new(schema, rows.collect()))
    }
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
    fn the_full_epilogue_runs_over_a_batch() {
        use hana_types::{Row, Value};
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
        let epilogue = Epilogue::new(&schema, &q, &[]).unwrap();
        let rs = epilogue.apply(Batch::from_rows(rows, 2), &[]).unwrap();
        assert_eq!(rs.schema.index_of("cnt"), Some(1));
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::from("C"));
    }
}
