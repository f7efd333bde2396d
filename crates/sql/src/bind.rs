//! Statement shapes and their values.
//!
//! A statement parsed from text with `?` placeholders carries
//! [`Expr::Parameter`] slots, indexed 0-based in text order.
//! [`Query::lift_literals`] turns the literals a query compares columns
//! with into further slots, so that statements differing only in those
//! values share one *shape*; the planner plans the shape once and the
//! executor reads the values beside it. What cannot run on a shape —
//! DML (the WAL logs bound text) and a sub-query shipped to a remote
//! source — substitutes the values back as literals:
//! [`Statement::bind_params`], [`Query::bind`], [`Expr::bound`].

use std::borrow::Cow;

use hana_types::{HanaError, Result, Value};

use crate::ast::{BinOp, Expr, JoinClause, Query, SelectItem, Statement, TableRef, UnaryOp};

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
        crate::probe::note(crate::probe::Work::Bind);
        let declared = self.param_count();
        if declared != params.len() {
            return Err(HanaError::Plan(format!(
                "statement declares {declared} parameter(s) but {} value(s) were bound",
                params.len()
            )));
        }
        Ok(match self {
            Statement::Query(q) => Statement::Query(q.bind(params)?),
            Statement::Explain(q) => Statement::Explain(q.bind(params)?),
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

impl Query {
    /// This query with every slot replaced by the literal at its index
    /// — the form a remote source, which knows nothing of slots, is
    /// sent.
    pub fn bind(&self, values: &[Value]) -> Result<Query> {
        Ok(Query {
            distinct: self.distinct,
            select: self
                .select
                .iter()
                .map(|item| {
                    Ok(SelectItem {
                        expr: bind_expr(&item.expr, values)?,
                        alias: item.alias.clone(),
                    })
                })
                .collect::<Result<_>>()?,
            from: self
                .from
                .as_ref()
                .map(|t| bind_table_ref(t, values))
                .transpose()?,
            joins: self
                .joins
                .iter()
                .map(|j| {
                    Ok(JoinClause {
                        kind: j.kind,
                        table: bind_table_ref(&j.table, values)?,
                        on: bind_expr(&j.on, values)?,
                    })
                })
                .collect::<Result<_>>()?,
            filter: self
                .filter
                .as_ref()
                .map(|e| bind_expr(e, values))
                .transpose()?,
            group_by: self
                .group_by
                .iter()
                .map(|e| bind_expr(e, values))
                .collect::<Result<_>>()?,
            having: self
                .having
                .as_ref()
                .map(|e| bind_expr(e, values))
                .transpose()?,
            order_by: self
                .order_by
                .iter()
                .map(|(e, asc)| Ok((bind_expr(e, values)?, *asc)))
                .collect::<Result<_>>()?,
            limit: self.limit,
            hints: self.hints.clone(),
        })
    }

    /// Turn this query into its *shape*: every literal that is an
    /// operand of a comparison, `BETWEEN` or `IN` of the WHERE, ON and
    /// HAVING clauses (under any nesting of AND / OR / NOT; the parser
    /// has already made a negated numeric literal one) becomes a slot numbered after the
    /// query's own `?` placeholders, in text order. Returns how many
    /// placeholders the query declares and the lifted values: the
    /// statement's value vector is the user's parameters followed by
    /// these.
    ///
    /// Everything else stays in the shape because it is part of what
    /// the plan *is*, not of what it reads: select-list literals (they
    /// name and type output columns), `LIMIT`, `LIKE` patterns,
    /// table-function arguments, hints, and anything inside a function
    /// call or `CASE` (aggregate calls are matched by equality between
    /// the select list and the aggregation stage).
    pub fn lift_literals(&mut self) -> (usize, Vec<Value>) {
        let mut user = 0;
        walk_query(self, &mut |e| {
            if let Expr::Parameter(i) = e {
                user = user.max(i + 1);
            }
        });
        let mut lifted = Vec::new();
        let joins = self.joins.iter_mut().map(|j| &mut j.on);
        for clause in joins.chain(&mut self.filter).chain(&mut self.having) {
            lift_clause(clause, user, &mut lifted);
        }
        (user, lifted)
    }
}

fn lift_clause(e: &mut Expr, user: usize, lifted: &mut Vec<Value>) {
    let mut operand = |e: &mut Expr| {
        if let Expr::Literal(v) = e {
            let value = std::mem::replace(v, Value::Null);
            *e = Expr::Parameter(user + lifted.len());
            lifted.push(value);
        }
    };
    match e {
        Expr::Binary {
            left,
            op: BinOp::And | BinOp::Or,
            right,
        } => {
            lift_clause(left, user, lifted);
            lift_clause(right, user, lifted);
        }
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => lift_clause(expr, user, lifted),
        Expr::Binary {
            left,
            op: BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge,
            right,
        } => {
            operand(left);
            operand(right);
        }
        Expr::Between { expr, lo, hi, .. } => {
            operand(expr);
            operand(lo);
            operand(hi);
        }
        Expr::InList { expr, list, .. } => {
            operand(expr);
            list.iter_mut().for_each(operand);
        }
        _ => {}
    }
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
            query: Box::new(query.bind(params)?),
            alias: alias.clone(),
        },
    })
}

fn bind_expr(e: &Expr, values: &[Value]) -> Result<Expr> {
    e.bound(values).map(Cow::into_owned)
}

impl Expr {
    /// This expression with every slot replaced by the literal at its
    /// index; borrowed as it is when it holds no slot. For text —
    /// EXPLAIN, a shipped sub-query, an output column's name; what the
    /// row evaluator runs is [`Expr::resolve`]d instead.
    pub fn bound(&self, values: &[Value]) -> Result<Cow<'_, Expr>> {
        let mut slots = false;
        self.walk(&mut |e| slots |= matches!(e, Expr::Parameter(_)));
        if !slots {
            return Ok(Cow::Borrowed(self));
        }
        let mut bound = self.clone();
        let mut unbound = None;
        bound.walk_mut(&mut |n| {
            if let Expr::Parameter(i) = n {
                match values.get(*i) {
                    Some(v) => *n = Expr::Literal(v.clone()),
                    None => unbound = Some(*i),
                }
            }
        });
        match unbound {
            Some(i) => Err(no_value_bound(i)),
            None => Ok(Cow::Owned(bound)),
        }
    }
}

/// The error for slot `i` with no value in the statement's vector.
pub(crate) fn no_value_bound(i: usize) -> HanaError {
    HanaError::Plan(format!("no value bound for parameter {}", i + 1))
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

    fn query(sql: &str) -> Query {
        let Statement::Query(q) = parse_statement(sql).unwrap() else {
            panic!("not a query: {sql}")
        };
        q
    }

    /// The shape of `sql` as text, and the values lifted out of it.
    fn lifted(sql: &str) -> (String, Vec<Value>) {
        let mut q = query(sql);
        let (_, values) = q.lift_literals();
        (q.to_string(), values)
    }

    #[test]
    fn compared_literals_are_lifted_in_text_order_after_the_users_slots() {
        let mut q = query(
            "SELECT v FROM t JOIN u ON t.k = u.k AND u.x = 7 \
             WHERE t.a = ? AND t.b BETWEEN 1 AND ? AND t.c IN ('x', 'y') AND NOT (t.d < -2.5 OR 3 = t.e) \
             GROUP BY v HAVING COUNT(*) > 10",
        );
        let (user, values) = q.lift_literals();
        assert_eq!(user, 2);
        assert_eq!(
            values,
            vec![
                Value::Int(7),
                Value::Int(1),
                Value::from("x"),
                Value::from("y"),
                Value::Double(-2.5),
                Value::Int(3),
                Value::Int(10),
            ]
        );
        assert_eq!(
            q.to_string(),
            "SELECT v FROM t JOIN u ON ((t.k = u.k) AND (u.x = ?3)) \
             WHERE ((((t.a = ?1) AND t.b BETWEEN ?4 AND ?2) AND t.c IN (?5, ?6)) \
             AND (NOT ((t.d < ?7) OR (?8 = t.e)))) GROUP BY v HAVING (COUNT(*) > ?9)"
        );
        // Bound with the user's values followed by the lifted ones, the
        // shape is the statement written with literals.
        let all = [vec![Value::Int(5), Value::Int(9)], values].concat();
        assert_eq!(
            q.bind(&all).unwrap(),
            query(
                "SELECT v FROM t JOIN u ON t.k = u.k AND u.x = 7 \
                 WHERE t.a = 5 AND t.b BETWEEN 1 AND 9 AND t.c IN ('x', 'y') \
                 AND NOT (t.d < -2.5 OR 3 = t.e) GROUP BY v HAVING COUNT(*) > 10",
            )
        );
    }

    #[test]
    fn what_the_plan_is_stays_in_the_shape() {
        // Select-list literals, LIMIT, LIKE patterns, table-function
        // arguments, hints, comma-join conditions, and anything inside a
        // function call or CASE.
        let sql = "SELECT 1, 'a', CASE WHEN k > 5 THEN 1 ELSE 0 END FROM f(3) x, t \
                   WHERE s LIKE 'p%' AND YEAR(d) + 1 > 1995 AND SUBSTR(s, 1, 2) = 'ab' \
                   ORDER BY 2 LIMIT 7 WITH HINT (USE_REMOTE_CACHE)";
        let (text, values) = lifted(sql);
        assert_eq!(values, vec![Value::Int(1995), Value::from("ab")]);
        assert_eq!(
            text,
            "SELECT 1, 'a', CASE WHEN (k > 5) THEN 1 ELSE 0 END FROM f(3) x JOIN t ON true \
             WHERE ((s LIKE 'p%' AND ((YEAR(d) + 1) > ?1)) AND (SUBSTR(s, 1, 2) = ?2)) \
             ORDER BY 2 LIMIT 7 WITH HINT (USE_REMOTE_CACHE)"
        );
    }

    #[test]
    fn statements_that_differ_in_compared_values_share_a_shape() {
        let (a, va) = lifted("SELECT v FROM t WHERE k = 5 AND s = 'it''s'");
        let (b, vb) = lifted("select v from t where k = -17 and s = '?'");
        assert_eq!(a, b);
        assert_eq!(va, vec![Value::Int(5), Value::from("it's")]);
        assert_eq!(vb, vec![Value::Int(-17), Value::from("?")]);
        // ...and shapes whose slots sit in different places do not.
        let (c, _) = lifted("SELECT v FROM t WHERE a = ? AND b = 5");
        let (d, _) = lifted("SELECT v FROM t WHERE a = 5 AND b = ?");
        assert_ne!(c, d, "{c}");
        // A different IN-list length is a different shape.
        assert_ne!(
            lifted("SELECT v FROM t WHERE k IN (1, 2)").0,
            lifted("SELECT v FROM t WHERE k IN (1, 2, 3)").0
        );
    }

    #[test]
    fn bound_borrows_what_holds_no_slot() {
        let q = query("SELECT v + 1 FROM t WHERE k = ?");
        let plain = &q.select[0].expr;
        assert!(matches!(plain.bound(&[]).unwrap(), Cow::Borrowed(_)));
        let filter = q.filter.as_ref().unwrap();
        assert_eq!(
            filter.bound(&[Value::Int(3)]).unwrap().to_string(),
            "(k = 3)"
        );
        let err = filter.bound(&[]).unwrap_err();
        assert!(err.to_string().contains("no value bound for parameter 1"));
    }
}
