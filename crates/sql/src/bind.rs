//! Positional-parameter binding for prepared statements.
//!
//! A statement parsed from text with `?` placeholders carries
//! [`Expr::Parameter`] nodes, indexed 0-based in text order. Before
//! planning or execution the session layer substitutes literals with
//! [`Statement::bind_params`]; the rewrite is a deep copy, so one parsed
//! template serves any number of executions with different values.

use hana_types::{HanaError, Result, Value};

use crate::ast::{Expr, Query, SelectItem, Statement, TableRef};

impl Statement {
    /// Number of positional parameters the statement declares (the
    /// highest `?` index + 1; placeholders are numbered contiguously by
    /// the parser).
    pub fn param_count(&self) -> usize {
        let mut max: Option<usize> = None;
        self.walk_exprs(&mut |e| {
            if let Expr::Parameter(i) = e {
                max = Some(max.map_or(*i, |m: usize| m.max(*i)));
            }
        });
        max.map_or(0, |m| m + 1)
    }

    /// Visit every expression in the statement (including inside
    /// subqueries), depth-first.
    pub fn walk_exprs<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        match self {
            Statement::Query(q) | Statement::Explain(q) => walk_query(q, f),
            Statement::Insert { rows, .. } => {
                for row in rows {
                    for e in row {
                        e.walk(f);
                    }
                }
            }
            Statement::Update {
                assignments,
                filter,
                ..
            } => {
                for (_, e) in assignments {
                    e.walk(f);
                }
                if let Some(e) = filter {
                    e.walk(f);
                }
            }
            Statement::Delete {
                filter: Some(e), ..
            } => e.walk(f),
            _ => {}
        }
    }

    /// Substitute every `?` placeholder with the literal at its index.
    /// Errors when the argument count does not match the placeholder
    /// count — a bind mismatch is a caller bug worth failing loudly on.
    pub fn bind_params(&self, params: &[Value]) -> Result<Statement> {
        let declared = self.param_count();
        if declared != params.len() {
            return Err(HanaError::Plan(format!(
                "statement declares {declared} parameter(s) but {} value(s) were bound",
                params.len()
            )));
        }
        Ok(match self {
            Statement::Query(q) => Statement::Query(bind_query(q, params)?),
            Statement::Explain(q) => Statement::Explain(bind_query(q, params)?),
            Statement::Insert {
                table,
                columns,
                rows,
            } => Statement::Insert {
                table: table.clone(),
                columns: columns.clone(),
                rows: rows
                    .iter()
                    .map(|row| row.iter().map(|e| bind_expr(e, params)).collect())
                    .collect::<Result<_>>()?,
            },
            Statement::Update {
                table,
                assignments,
                filter,
            } => Statement::Update {
                table: table.clone(),
                assignments: assignments
                    .iter()
                    .map(|(c, e)| Ok((c.clone(), bind_expr(e, params)?)))
                    .collect::<Result<_>>()?,
                filter: filter.as_ref().map(|e| bind_expr(e, params)).transpose()?,
            },
            Statement::Delete { table, filter } => Statement::Delete {
                table: table.clone(),
                filter: filter.as_ref().map(|e| bind_expr(e, params)).transpose()?,
            },
            other => other.clone(),
        })
    }
}

fn walk_query<'a>(q: &'a Query, f: &mut impl FnMut(&'a Expr)) {
    for item in &q.select {
        item.expr.walk(f);
    }
    if let Some(from) = &q.from {
        walk_table_ref(from, f);
    }
    for j in &q.joins {
        walk_table_ref(&j.table, f);
        j.on.walk(f);
    }
    if let Some(e) = &q.filter {
        e.walk(f);
    }
    for e in &q.group_by {
        e.walk(f);
    }
    if let Some(e) = &q.having {
        e.walk(f);
    }
    for (e, _) in &q.order_by {
        e.walk(f);
    }
}

fn walk_table_ref<'a>(t: &'a TableRef, f: &mut impl FnMut(&'a Expr)) {
    match t {
        TableRef::Named { .. } => {}
        TableRef::Function { args, .. } => {
            for a in args {
                a.walk(f);
            }
        }
        TableRef::Subquery { query, .. } => walk_query(query, f),
    }
}

fn bind_query(q: &Query, params: &[Value]) -> Result<Query> {
    Ok(Query {
        distinct: q.distinct,
        select: q
            .select
            .iter()
            .map(|item| {
                Ok(SelectItem {
                    expr: bind_expr(&item.expr, params)?,
                    alias: item.alias.clone(),
                })
            })
            .collect::<Result<_>>()?,
        from: q
            .from
            .as_ref()
            .map(|t| bind_table_ref(t, params))
            .transpose()?,
        joins: q
            .joins
            .iter()
            .map(|j| {
                Ok(crate::ast::JoinClause {
                    kind: j.kind,
                    table: bind_table_ref(&j.table, params)?,
                    on: bind_expr(&j.on, params)?,
                })
            })
            .collect::<Result<_>>()?,
        filter: q
            .filter
            .as_ref()
            .map(|e| bind_expr(e, params))
            .transpose()?,
        group_by: q
            .group_by
            .iter()
            .map(|e| bind_expr(e, params))
            .collect::<Result<_>>()?,
        having: q
            .having
            .as_ref()
            .map(|e| bind_expr(e, params))
            .transpose()?,
        order_by: q
            .order_by
            .iter()
            .map(|(e, asc)| Ok((bind_expr(e, params)?, *asc)))
            .collect::<Result<_>>()?,
        limit: q.limit,
        hints: q.hints.clone(),
    })
}

fn bind_table_ref(t: &TableRef, params: &[Value]) -> Result<TableRef> {
    Ok(match t {
        TableRef::Named { .. } => t.clone(),
        TableRef::Function { name, args, alias } => TableRef::Function {
            name: name.clone(),
            args: args
                .iter()
                .map(|a| bind_expr(a, params))
                .collect::<Result<_>>()?,
            alias: alias.clone(),
        },
        TableRef::Subquery { query, alias } => TableRef::Subquery {
            query: Box::new(bind_query(query, params)?),
            alias: alias.clone(),
        },
    })
}

fn bind_expr(e: &Expr, params: &[Value]) -> Result<Expr> {
    let mut bound = e.clone();
    let mut unbound = None;
    bound.walk_mut(&mut |n| {
        if let Expr::Parameter(i) = n {
            match params.get(*i) {
                Some(v) => *n = Expr::Literal(v.clone()),
                None => unbound = Some(*i),
            }
        }
    });
    match unbound {
        Some(i) => Err(HanaError::Plan(format!(
            "no value bound for parameter {}",
            i + 1
        ))),
        None => Ok(bound),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;

    #[test]
    fn counts_and_binds_query_params() {
        let stmt = parse_statement("SELECT v FROM t WHERE k = ? AND v BETWEEN ? AND ? ORDER BY v")
            .unwrap();
        assert_eq!(stmt.param_count(), 3);
        let bound = stmt
            .bind_params(&[Value::Int(7), Value::Int(1), Value::Int(9)])
            .unwrap();
        assert_eq!(bound.param_count(), 0, "no placeholders survive binding");
        let expected =
            parse_statement("SELECT v FROM t WHERE k = 7 AND v BETWEEN 1 AND 9 ORDER BY v")
                .unwrap();
        assert_eq!(bound, expected);
    }

    #[test]
    fn binds_dml_params() {
        let ins = parse_statement("INSERT INTO t (k, v) VALUES (?, ?)").unwrap();
        assert_eq!(ins.param_count(), 2);
        let bound = ins.bind_params(&[Value::Int(1), Value::from("x")]).unwrap();
        assert_eq!(
            bound,
            parse_statement("INSERT INTO t (k, v) VALUES (1, 'x')").unwrap()
        );

        let upd = parse_statement("UPDATE t SET v = ? WHERE k = ?").unwrap();
        let bound = upd.bind_params(&[Value::Int(5), Value::Int(2)]).unwrap();
        assert_eq!(
            bound,
            parse_statement("UPDATE t SET v = 5 WHERE k = 2").unwrap()
        );

        let del = parse_statement("DELETE FROM t WHERE k IN (?, ?)").unwrap();
        let bound = del.bind_params(&[Value::Int(1), Value::Int(2)]).unwrap();
        assert_eq!(
            bound,
            parse_statement("DELETE FROM t WHERE k IN (1, 2)").unwrap()
        );
    }

    #[test]
    fn binds_inside_subqueries() {
        let stmt = parse_statement(
            "SELECT x.total FROM (SELECT SUM(v) AS total FROM t WHERE k > ?) x WHERE x.total < ?",
        )
        .unwrap();
        assert_eq!(stmt.param_count(), 2);
        let bound = stmt.bind_params(&[Value::Int(3), Value::Int(100)]).unwrap();
        assert_eq!(
            bound,
            parse_statement(
                "SELECT x.total FROM (SELECT SUM(v) AS total FROM t WHERE k > 3) x \
                 WHERE x.total < 100",
            )
            .unwrap()
        );
    }

    #[test]
    fn bind_arity_mismatch_errors() {
        let stmt = parse_statement("SELECT v FROM t WHERE k = ?").unwrap();
        assert!(stmt.bind_params(&[]).is_err());
        assert!(stmt.bind_params(&[Value::Int(1), Value::Int(2)]).is_err());
        // Statements without parameters accept an empty bind.
        let plain = parse_statement("SELECT v FROM t").unwrap();
        assert_eq!(plain.bind_params(&[]).unwrap(), plain);
    }
}
