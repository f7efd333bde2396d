//! Rendering ASTs back to SQL text.
//!
//! Used for the remote-materialization cache key (§4.4: "a hash key is
//! computed from the HiveQL statement, parameters, and the host
//! information"), for shipping sub-queries to remote sources as SQL, and
//! for EXPLAIN output.

use std::fmt;

use hana_types::Value;

use crate::ast::{BinOp, Expr, JoinKind, Query, Statement, TableRef, UnaryOp};

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(Value::Varchar(s)) => write!(f, "'{}'", s.replace('\'', "''")),
            Expr::Literal(Value::Date(d)) => write!(f, "DATE '{d}'"),
            Expr::Literal(v) => write!(f, "{v}"),
            // Numbered, so that two shapes whose slots sit in different
            // places never render to one text (the plan-cache key).
            Expr::Parameter(i) => write!(f, "?{}", i + 1),
            Expr::Column { qualifier, name } => match qualifier {
                Some(q) => write!(f, "{q}.{name}"),
                None => write!(f, "{name}"),
            },
            // Positions live only in resolved expressions, which no plan,
            // shipped statement or cache key is rendered from.
            Expr::Field(i) => write!(f, "#{i}"),
            Expr::Wildcard => write!(f, "*"),
            Expr::Unary { op, expr } => match op {
                UnaryOp::Neg => write!(f, "(-{expr})"),
                UnaryOp::Not => write!(f, "(NOT {expr})"),
            },
            Expr::Binary { left, op, right } => {
                write!(f, "({left} {} {right})", op.sql())
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "{expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::Between {
                expr,
                lo,
                hi,
                negated,
            } => write!(
                f,
                "{expr} {}BETWEEN {lo} AND {hi}",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "{expr} {}LIKE '{}'",
                if *negated { "NOT " } else { "" },
                pattern.replace('\'', "''")
            ),
            Expr::IsNull { expr, negated } => {
                write!(f, "{expr} IS {}NULL", if *negated { "NOT " } else { "" })
            }
            Expr::Func { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Case { whens, else_expr } => {
                write!(f, "CASE")?;
                for (c, v) in whens {
                    write!(f, " WHEN {c} THEN {v}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
        }
    }
}

impl BinOp {
    /// SQL spelling of the operator.
    pub fn sql(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        }
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableRef::Named { name, alias } => {
                write!(f, "{name}")?;
                if let Some(a) = alias {
                    write!(f, " {a}")?;
                }
                Ok(())
            }
            TableRef::Function { name, args, alias } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")?;
                if let Some(a) = alias {
                    write!(f, " {a}")?;
                }
                Ok(())
            }
            TableRef::Subquery { query, alias } => write!(f, "({query}) {alias}"),
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::probe::note(crate::probe::Work::Render);
        write!(f, "SELECT ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        if self.select.is_empty() {
            write!(f, "*")?;
        } else {
            for (i, item) in self.select.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", item.expr)?;
                if let Some(a) = &item.alias {
                    write!(f, " AS {a}")?;
                }
            }
        }
        if let Some(from) = &self.from {
            write!(f, " FROM {from}")?;
        }
        for j in &self.joins {
            let kw = match j.kind {
                JoinKind::Inner => "JOIN",
                JoinKind::LeftOuter => "LEFT OUTER JOIN",
            };
            write!(f, " {kw} {} ON {}", j.table, j.on)?;
        }
        if let Some(w) = &self.filter {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{g}")?;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, (e, asc)) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{e}{}", if *asc { "" } else { " DESC" })?;
            }
        }
        if let Some(n) = self.limit {
            write!(f, " LIMIT {n}")?;
        }
        if !self.hints.is_empty() {
            write!(f, " WITH HINT ({})", self.hints.join(", "))?;
        }
        Ok(())
    }
}

impl Statement {
    /// Canonical SQL text for queries and DML — the statements a
    /// prepared handle can carry parameters in. The session layer
    /// executes bound prepared statements from this rendering so the
    /// platform's WAL and DDL log record replayable SQL (with bound
    /// literals, not `?`). `None` for DDL/control statements, which
    /// execute from their original text.
    pub fn to_sql_text(&self) -> Option<String> {
        use std::fmt::Write as _;
        crate::probe::note(crate::probe::Work::Render);
        match self {
            Statement::Query(q) => Some(q.to_string()),
            Statement::Explain(q) => Some(format!("EXPLAIN {q}")),
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                let mut s = format!("INSERT INTO {table}");
                if let Some(cols) = columns {
                    let _ = write!(s, " ({})", cols.join(", "));
                }
                s.push_str(" VALUES ");
                for (i, row) in rows.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    s.push('(');
                    for (j, e) in row.iter().enumerate() {
                        if j > 0 {
                            s.push_str(", ");
                        }
                        let _ = write!(s, "{e}");
                    }
                    s.push(')');
                }
                Some(s)
            }
            Statement::Update {
                table,
                assignments,
                filter,
            } => {
                let mut s = format!("UPDATE {table} SET ");
                for (i, (c, e)) in assignments.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    let _ = write!(s, "{c} = {e}");
                }
                if let Some(w) = filter {
                    let _ = write!(s, " WHERE {w}");
                }
                Some(s)
            }
            Statement::Delete { table, filter } => {
                let mut s = format!("DELETE FROM {table}");
                if let Some(w) = filter {
                    let _ = write!(s, " WHERE {w}");
                }
                Some(s)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::parser::parse_statement;
    use crate::Statement;

    fn round_trip(sql: &str) {
        let Statement::Query(q1) = parse_statement(sql).unwrap() else {
            panic!("not a query: {sql}")
        };
        let rendered = q1.to_string();
        let Statement::Query(q2) = parse_statement(&rendered).unwrap() else {
            panic!("rendered text did not parse: {rendered}")
        };
        assert_eq!(
            q1, q2,
            "render/parse round-trip changed the AST:\n{sql}\n-> {rendered}"
        );
    }

    #[test]
    fn dml_text_round_trips() {
        for sql in [
            "INSERT INTO t (k, v) VALUES (1, 'x'), (2, 'y')",
            "UPDATE t SET v = 5 WHERE k = 2",
            "DELETE FROM t WHERE k IN (1, 2)",
        ] {
            let stmt = parse_statement(sql).unwrap();
            let rendered = stmt.to_sql_text().expect("DML renders");
            assert_eq!(
                parse_statement(&rendered).unwrap(),
                stmt,
                "render/parse round-trip changed the AST:\n{sql}\n-> {rendered}"
            );
        }
        assert!(
            parse_statement("BEGIN").unwrap().to_sql_text().is_none(),
            "control statements have no canonical rendering"
        );
    }

    #[test]
    fn query_round_trips() {
        round_trip("SELECT * FROM t");
        round_trip("SELECT DISTINCT a, b AS x FROM t u WHERE a > 1 AND b LIKE 'x%'");
        round_trip(
            "SELECT c_custkey, COUNT(*) FROM customer JOIN orders ON c_custkey = o_custkey \
             WHERE c_mktsegment = 'HOUSEHOLD' GROUP BY c_custkey HAVING COUNT(*) > 2 \
             ORDER BY c_custkey DESC LIMIT 3 WITH HINT (USE_REMOTE_CACHE)",
        );
        round_trip("SELECT CASE WHEN a = 1 THEN 'x' ELSE 'y' END FROM t");
        round_trip(
            "SELECT a FROM t WHERE d BETWEEN DATE '1995-01-01' AND DATE '1995-12-31' \
             AND s IN ('A', 'B') AND n IS NOT NULL",
        );
        round_trip("SELECT x.total FROM (SELECT SUM(a) AS total FROM t) x");
    }

    #[test]
    fn string_escaping() {
        round_trip("SELECT * FROM t WHERE s = 'it''s'");
        let Statement::Query(q) = parse_statement("SELECT * FROM t WHERE s = 'it''s'").unwrap()
        else {
            panic!()
        };
        assert!(q.to_string().contains("'it''s'"));
    }

    #[test]
    fn stable_text_for_cache_keys() {
        // Two parses of the same statement render identically.
        let sql = "SELECT a FROM t WHERE b = 1 AND c < 2";
        let Statement::Query(q1) = parse_statement(sql).unwrap() else {
            panic!()
        };
        let Statement::Query(q2) = parse_statement(sql).unwrap() else {
            panic!()
        };
        assert_eq!(q1.to_string(), q2.to_string());
    }
}
