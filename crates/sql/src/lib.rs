//! # hana-sql
//!
//! Lexer, AST and recursive-descent parser for the SQL subset the paper
//! exercises: column/row table DDL with `USING [HYBRID] EXTENDED
//! STORAGE` (§3.1), `CREATE REMOTE SOURCE` / `CREATE VIRTUAL TABLE` /
//! `CREATE VIRTUAL FUNCTION` for Smart Data Access (§4.2–4.3), DML,
//! transactions, and `SELECT` with joins, grouping, ordering, CASE
//! expressions and optimizer hints such as `WITH HINT
//! (USE_REMOTE_CACHE)` (§4.4).
//!
//! ```
//! use hana_sql::{parse_statement, Statement};
//!
//! let stmt = parse_statement(
//!     "SELECT c_name FROM customer WHERE c_mktsegment = 'HOUSEHOLD'",
//! ).unwrap();
//! assert!(matches!(stmt, Statement::Query(_)));
//! ```

mod ast;
mod bind;
mod eval;
pub mod finish;
mod lexer;
mod parser;
pub mod probe;
mod render;

pub use ast::{
    BinOp, ColumnSpec, CreateTable, Expr, ExtendedSpec, JoinClause, JoinKind, PartitionBy, Query,
    SelectItem, Statement, TableKind, TableRef, UnaryOp,
};
pub use eval::{evaluate, evaluate_predicate, resolve_column, scalar_function};
pub use lexer::{tokenize, Symbol, Token};
pub use parser::{parse_script, parse_statement};
