//! # hana-types
//!
//! Shared foundation types for the `hana-data-platform` reproduction of
//! *"SAP HANA — From Relational OLAP Database to Big Data Infrastructure"*
//! (EDBT 2015): SQL values, data types, schemas, rows, result sets and the
//! platform-wide error enum.
//!
//! Every other crate in the workspace builds on these definitions, so they
//! are deliberately dependency-light and allocation-conscious: [`Value`]
//! carries small scalars inline, comparisons never allocate, and
//! [`Schema`] lookups are `O(1)` after construction.

mod agg;
mod codec;
mod datatype;
mod date;
mod error;
mod hash;
mod resultset;
mod row;
mod schema;
mod value;

pub use agg::{Accumulator, AggFunc};
pub use codec::{decode_row, decode_rows, decode_values, encode_row, encode_rows};
pub use datatype::DataType;
pub use date::Date;
pub use error::{HanaError, Result};
pub use hash::{FxBuildHasher, FxHashMap, FxHasher};
pub use resultset::ResultSet;
pub use row::Row;
pub use schema::{ColumnDef, Schema};
pub use value::Value;
