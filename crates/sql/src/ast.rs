//! Abstract syntax of the supported SQL subset.
//!
//! The subset mirrors what the paper exercises: column/row table DDL with
//! the `USING [HYBRID] EXTENDED STORAGE` clause (§3.1), remote sources /
//! virtual tables / virtual functions for SDA (§4.2, §4.3), DML, and
//! SELECT with joins, grouping, ordering and optimizer hints such as
//! `WITH HINT (USE_REMOTE_CACHE)` (§4.4).

use hana_types::Value;

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE [COLUMN|ROW] TABLE …`
    CreateTable(CreateTable),
    /// `DROP TABLE name`
    DropTable {
        /// Table to drop.
        name: String,
    },
    /// `CREATE INDEX name ON table (col [, col]…)`
    CreateIndex {
        /// Index name, unique within the table.
        name: String,
        /// Table the index belongs to.
        table: String,
        /// Indexed columns, most significant first.
        columns: Vec<String>,
    },
    /// `DROP INDEX name [ON table]`
    DropIndex {
        /// Index to drop.
        name: String,
        /// Owning table; when omitted, resolved by searching the catalog.
        table: Option<String>,
    },
    /// `CREATE REMOTE SOURCE name ADAPTER "x" CONFIGURATION '…'
    /// [WITH CREDENTIAL TYPE '…' USING '…']`
    CreateRemoteSource {
        /// Source name.
        name: String,
        /// Adapter identifier (e.g. `hiveodbc`, `hadoop`).
        adapter: String,
        /// Adapter configuration string (e.g. `DSN=hive1`).
        configuration: String,
        /// Credential type, if given (e.g. `PASSWORD`).
        credential_type: Option<String>,
        /// Credential payload (e.g. `user=dfuser;password=dfpass`).
        credentials: Option<String>,
    },
    /// `CREATE VIRTUAL TABLE name AT "src"."db"."schema"."table"`
    CreateVirtualTable {
        /// Local virtual-table name.
        name: String,
        /// Remote path: source name followed by remote identifiers.
        remote_path: Vec<String>,
    },
    /// `CREATE VIRTUAL FUNCTION name() RETURNS TABLE (…)
    /// CONFIGURATION '…' AT source`
    CreateVirtualFunction {
        /// Function name.
        name: String,
        /// Declared output columns `(name, type)`.
        returns: Vec<(String, String)>,
        /// Job configuration (driver class, jar files, reducer count…).
        configuration: String,
        /// Remote source executing the function.
        source: String,
    },
    /// `INSERT INTO t [(cols)] VALUES (…), (…)`
    Insert {
        /// Target table.
        table: String,
        /// Optional explicit column list.
        columns: Option<Vec<String>>,
        /// Value rows.
        rows: Vec<Vec<Expr>>,
    },
    /// `UPDATE t SET c = e [, …] [WHERE …]`
    Update {
        /// Target table.
        table: String,
        /// Column assignments.
        assignments: Vec<(String, Expr)>,
        /// Row filter.
        filter: Option<Expr>,
    },
    /// `DELETE FROM t [WHERE …]`
    Delete {
        /// Target table.
        table: String,
        /// Row filter.
        filter: Option<Expr>,
    },
    /// A `SELECT` query.
    Query(Query),
    /// `EXPLAIN <query>` — returns the plan instead of rows.
    Explain(Query),
    /// `BEGIN` (explicit transaction).
    Begin,
    /// `COMMIT`
    Commit,
    /// `ROLLBACK`
    Rollback,
    /// `MERGE DELTA OF t` — force a delta merge (admin operation).
    MergeDelta {
        /// Target column table.
        table: String,
    },
    /// `CREATE STREAM SINK name ON <stream|window> INTO table` — attach
    /// an exactly-once ingest pipeline delivering ESP output into a
    /// platform table (§3.2 use case 1 at scale).
    CreateStreamSink {
        /// Pipeline name (ingest-ledger key).
        name: String,
        /// ESP source: input stream, window or output stream.
        source: String,
        /// Target table.
        table: String,
    },
    /// `DROP STREAM SINK name` — detach and stop the pipeline.
    DropStreamSink {
        /// Pipeline to drop.
        name: String,
    },
}

/// Physical table kind in DDL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TableKind {
    /// In-memory column store (default).
    #[default]
    Column,
    /// In-memory row store.
    Row,
}

/// `CREATE TABLE` payload.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    /// Table name.
    pub name: String,
    /// Column vs row store.
    pub kind: TableKind,
    /// Declared columns.
    pub columns: Vec<ColumnSpec>,
    /// `USING [HYBRID] EXTENDED STORAGE` clause, if present.
    pub extended: Option<ExtendedSpec>,
    /// `PARTITION BY …` clause, if present (scale-out tables).
    pub partition: Option<PartitionBy>,
}

/// The `PARTITION BY` clause of scale-out DDL: how rows are mapped to
/// the nodes of the landscape.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionBy {
    /// `PARTITION BY HASH(col) PARTITIONS n`
    Hash {
        /// Partitioning column, lower-cased.
        column: String,
        /// Number of partitions (> 0).
        partitions: usize,
    },
    /// `PARTITION BY RANGE(col) (PARTITION VALUES < v1, …, PARTITION
    /// OTHERS)` — `split_points` are the ascending exclusive upper
    /// bounds; rows at or above the last one land in the final
    /// catch-all partition, so `n` split points make `n + 1` partitions.
    Range {
        /// Partitioning column, lower-cased.
        column: String,
        /// Ascending exclusive upper bounds of the first `n` partitions.
        split_points: Vec<Value>,
    },
}

impl PartitionBy {
    /// The partitioning column.
    pub fn column(&self) -> &str {
        match self {
            PartitionBy::Hash { column, .. } | PartitionBy::Range { column, .. } => column,
        }
    }

    /// Total number of partitions the clause produces.
    pub fn partitions(&self) -> usize {
        match self {
            PartitionBy::Hash { partitions, .. } => *partitions,
            PartitionBy::Range { split_points, .. } => split_points.len() + 1,
        }
    }
}

/// One column in DDL.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSpec {
    /// Column name.
    pub name: String,
    /// Type name as written (`VARCHAR(30)`, `INTEGER`…).
    pub type_name: String,
    /// `NOT NULL` given.
    pub not_null: bool,
    /// `PRIMARY KEY` given.
    pub primary_key: bool,
}

/// The extended-storage clause of §3.1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtendedSpec {
    /// `HYBRID`: hot in-memory partitions + cold extended partitions.
    /// Without it, the whole table lives in the extended store.
    pub hybrid: bool,
    /// `AGING ON col`: the dedicated boolean flag column that drives the
    /// built-in aging mechanism for hybrid tables.
    pub aging_column: Option<String>,
}

/// A `SELECT` query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Query {
    /// `DISTINCT` given.
    pub distinct: bool,
    /// Select list; empty means `*`.
    pub select: Vec<SelectItem>,
    /// First FROM item.
    pub from: Option<TableRef>,
    /// JOIN clauses in order.
    pub joins: Vec<JoinClause>,
    /// WHERE predicate.
    pub filter: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// ORDER BY `(expr, ascending)`.
    pub order_by: Vec<(Expr, bool)>,
    /// LIMIT / TOP row budget.
    pub limit: Option<usize>,
    /// `WITH HINT (…)` names, upper-cased.
    pub hints: Vec<String>,
}

/// One select-list entry.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The expression.
    pub expr: Expr,
    /// `AS alias`, if given.
    pub alias: Option<String>,
}

/// A FROM-clause item.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// A named table or view, possibly qualified (`db.schema.t`).
    Named {
        /// Dotted name as written (lower-cased).
        name: String,
        /// Alias, if given.
        alias: Option<String>,
    },
    /// A table function call, e.g. `PLANT100_SENSOR_RECORDS()`.
    Function {
        /// Function name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// Alias, if given.
        alias: Option<String>,
    },
    /// A derived table `(SELECT …) alias`.
    Subquery {
        /// The inner query.
        query: Box<Query>,
        /// Mandatory alias.
        alias: String,
    },
}

/// A JOIN clause.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// Join kind.
    pub kind: JoinKind,
    /// Joined source.
    pub table: TableRef,
    /// ON condition.
    pub on: Expr,
}

/// Supported join kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// `[INNER] JOIN`
    Inner,
    /// `LEFT [OUTER] JOIN`
    LeftOuter,
}

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// A positional parameter placeholder (`?`), 0-indexed in text
    /// order: a slot of the value vector a statement runs with. A plan
    /// keeps its slots and reads them where it consumes them;
    /// [`evaluate`](crate::evaluate) of one is an error.
    Parameter(usize),
    /// A (possibly qualified) column reference.
    Column {
        /// Table qualifier, lower-cased.
        qualifier: Option<String>,
        /// Column name, lower-cased.
        name: String,
    },
    /// A column reference resolved to its position in the rows an
    /// operator reads ([`Expr::positional`]); the only kind an evaluator
    /// reads. The parser never produces one; a plan holds nothing else —
    /// the planner resolves every name once, when it compiles the plan.
    Field(usize),
    /// `*` (only valid in COUNT(*) and the select list).
    Wildcard,
    /// Unary operator.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operator.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// The operator.
        op: BinOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `expr [NOT] IN (v1, v2, …)`
    InList {
        /// Probe expression.
        expr: Box<Expr>,
        /// The list.
        list: Vec<Expr>,
        /// NOT given.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN lo AND hi`
    Between {
        /// Probe expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        lo: Box<Expr>,
        /// Upper bound (inclusive).
        hi: Box<Expr>,
        /// NOT given.
        negated: bool,
    },
    /// `expr [NOT] LIKE 'pattern'`
    Like {
        /// Probe expression.
        expr: Box<Expr>,
        /// Pattern with `%`/`_` wildcards.
        pattern: String,
        /// NOT given.
        negated: bool,
    },
    /// `expr IS [NOT] NULL`
    IsNull {
        /// Probe expression.
        expr: Box<Expr>,
        /// NOT given.
        negated: bool,
    },
    /// Function call (aggregate or scalar).
    Func {
        /// Upper-cased function name.
        name: String,
        /// Arguments (`Wildcard` for `COUNT(*)`).
        args: Vec<Expr>,
    },
    /// `CASE WHEN c THEN v [WHEN …] [ELSE e] END`
    Case {
        /// `(condition, result)` arms.
        whens: Vec<(Expr, Expr)>,
        /// ELSE arm.
        else_expr: Option<Box<Expr>>,
    },
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Numeric negation.
    Neg,
    /// Logical NOT.
    Not,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl Expr {
    /// Shorthand for an unqualified column reference.
    pub fn col(name: &str) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.to_ascii_lowercase(),
        }
    }

    /// Shorthand for a literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Conjunction of two expressions.
    pub fn and(self, other: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(self),
            op: BinOp::And,
            right: Box::new(other),
        }
    }

    /// Split a conjunctive expression into its AND-ed factors.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        match self {
            Expr::Binary {
                left,
                op: BinOp::And,
                right,
            } => {
                let mut out = left.conjuncts();
                out.extend(right.conjuncts());
                out
            }
            other => vec![other],
        }
    }

    /// All column references in the expression.
    pub fn columns(&self) -> Vec<(&Option<String>, &str)> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Column { qualifier, name } = e {
                out.push((qualifier, name.as_str()));
            }
        });
        out
    }

    /// Depth-first visit of the expression tree.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Unary { expr, .. } => expr.walk(f),
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            Expr::Between { expr, lo, hi, .. } => {
                expr.walk(f);
                lo.walk(f);
                hi.walk(f);
            }
            Expr::Like { expr, .. } | Expr::IsNull { expr, .. } => expr.walk(f),
            Expr::Func { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Case { whens, else_expr } => {
                for (c, v) in whens {
                    c.walk(f);
                    v.walk(f);
                }
                if let Some(e) = else_expr {
                    e.walk(f);
                }
            }
            Expr::Literal(_)
            | Expr::Parameter(_)
            | Expr::Column { .. }
            | Expr::Field(_)
            | Expr::Wildcard => {}
        }
    }

    /// Depth-first visit that may rewrite nodes in place; a node `f`
    /// replaced is descended into as replaced.
    pub fn walk_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        f(self);
        match self {
            Expr::Unary { expr, .. } => expr.walk_mut(f),
            Expr::Binary { left, right, .. } => {
                left.walk_mut(f);
                right.walk_mut(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.walk_mut(f);
                list.iter_mut().for_each(|e| e.walk_mut(f));
            }
            Expr::Between { expr, lo, hi, .. } => {
                expr.walk_mut(f);
                lo.walk_mut(f);
                hi.walk_mut(f);
            }
            Expr::Like { expr, .. } | Expr::IsNull { expr, .. } => expr.walk_mut(f),
            Expr::Func { args, .. } => args.iter_mut().for_each(|a| a.walk_mut(f)),
            Expr::Case { whens, else_expr } => {
                for (c, v) in whens {
                    c.walk_mut(f);
                    v.walk_mut(f);
                }
                if let Some(e) = else_expr {
                    e.walk_mut(f);
                }
            }
            Expr::Literal(_)
            | Expr::Parameter(_)
            | Expr::Column { .. }
            | Expr::Field(_)
            | Expr::Wildcard => {}
        }
    }

    /// Whether the expression (transitively) contains an aggregate call.
    pub fn contains_aggregate(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if let Expr::Func { name, .. } = e {
                if hana_types::AggFunc::parse(name).is_some() {
                    found = true;
                }
            }
        });
        found
    }

    /// A display name for unaliased select-list items.
    pub fn default_name(&self) -> String {
        match self {
            Expr::Column { name, .. } => name.clone(),
            Expr::Func { name, args } => {
                let inner = args
                    .iter()
                    .map(|a| a.default_name())
                    .collect::<Vec<_>>()
                    .join(",");
                format!("{}({inner})", name.to_ascii_lowercase())
            }
            Expr::Wildcard => "*".into(),
            Expr::Literal(v) => v.to_string(),
            _ => "expr".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjunct_splitting() {
        let e = Expr::col("a").and(Expr::col("b")).and(Expr::Binary {
            left: Box::new(Expr::col("c")),
            op: BinOp::Or,
            right: Box::new(Expr::col("d")),
        });
        let parts = e.conjuncts();
        assert_eq!(parts.len(), 3);
        // The OR stays intact as a single conjunct.
        assert!(matches!(parts[2], Expr::Binary { op: BinOp::Or, .. }));
    }

    #[test]
    fn column_collection_and_aggregates() {
        let e = Expr::Func {
            name: "SUM".into(),
            args: vec![Expr::Binary {
                left: Box::new(Expr::col("price")),
                op: BinOp::Mul,
                right: Box::new(Expr::col("qty")),
            }],
        };
        let cols = e.columns();
        assert_eq!(cols.len(), 2);
        assert!(e.contains_aggregate());
        assert!(!Expr::col("x").contains_aggregate());
        assert_eq!(e.default_name(), "sum(expr)");
    }
}
