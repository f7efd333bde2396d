//! Table schemas and column definitions.

use std::collections::HashMap;
use std::fmt;

use crate::datatype::DataType;
use crate::error::{HanaError, Result};
use crate::value::Value;

/// One column of a table or stream schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name, stored lower-cased for case-insensitive SQL lookup.
    pub name: String,
    /// Declared data type.
    pub data_type: DataType,
    /// Whether NULLs are admitted.
    pub nullable: bool,
}

impl ColumnDef {
    /// A nullable column.
    pub fn new(name: &str, data_type: DataType) -> ColumnDef {
        ColumnDef {
            name: name.to_ascii_lowercase(),
            data_type,
            nullable: true,
        }
    }

    /// A NOT NULL column.
    pub fn not_null(name: &str, data_type: DataType) -> ColumnDef {
        ColumnDef {
            nullable: false,
            ..ColumnDef::new(name, data_type)
        }
    }
}

/// An ordered set of columns with `O(1)` name lookup.
///
/// Column names are case-insensitive, mirroring the SQL layer.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    columns: Vec<ColumnDef>,
    by_name: HashMap<String, usize>,
}

impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        self.columns == other.columns
    }
}
impl Eq for Schema {}

impl Schema {
    /// Build a schema, rejecting duplicate column names.
    pub fn new(columns: Vec<ColumnDef>) -> Result<Schema> {
        let mut by_name = HashMap::with_capacity(columns.len());
        for (i, c) in columns.iter().enumerate() {
            if by_name.insert(c.name.clone(), i).is_some() {
                return Err(HanaError::Catalog(format!(
                    "duplicate column name '{}'",
                    c.name
                )));
            }
        }
        Ok(Schema { columns, by_name })
    }

    /// Convenience constructor from `(name, type)` pairs; panics on
    /// duplicates (intended for tests and generated schemas).
    pub fn of(cols: &[(&str, DataType)]) -> Schema {
        Schema::new(cols.iter().map(|(n, t)| ColumnDef::new(n, *t)).collect())
            .expect("static schema must not contain duplicates")
    }

    /// The columns in declaration order.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of a column by (case-insensitive) name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        if let Some(&i) = self.by_name.get(name) {
            return Some(i);
        }
        if !name.bytes().any(|b| b.is_ascii_uppercase()) {
            return None;
        }
        self.by_name.get(&name.to_ascii_lowercase()).copied()
    }

    /// Index of a column, or a catalog error naming the column.
    pub fn require(&self, name: &str) -> Result<usize> {
        self.index_of(name)
            .ok_or_else(|| HanaError::Catalog(format!("unknown column '{name}'")))
    }

    /// The column definition at `idx`.
    pub fn column(&self, idx: usize) -> &ColumnDef {
        &self.columns[idx]
    }

    /// Validate a row against this schema: arity, NOT NULL constraints
    /// and type compatibility (with numeric widening).
    pub fn check_row(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(HanaError::Execution(format!(
                "row has {} values but schema has {} columns",
                row.len(),
                self.columns.len()
            )));
        }
        for (v, c) in row.iter().zip(&self.columns) {
            match v.data_type() {
                None if !c.nullable => {
                    return Err(HanaError::Execution(format!(
                        "NULL violates NOT NULL constraint on '{}'",
                        c.name
                    )));
                }
                None => {}
                Some(t) if c.data_type.is_convertible_from(t) => {}
                // Int literals feed INTEGER columns; doubles stay doubles.
                Some(DataType::BigInt) if c.data_type == DataType::Int => {}
                Some(t) => {
                    return Err(HanaError::Execution(format!(
                        "value of type {t} not assignable to column '{}' of type {}",
                        c.name, c.data_type
                    )));
                }
            }
        }
        Ok(())
    }

    /// A new schema with every column name prefixed by `qualifier.`
    /// (used when joins need disambiguated output columns).
    pub fn qualified(&self, qualifier: &str) -> Schema {
        Schema::new(
            self.columns
                .iter()
                .map(|c| ColumnDef {
                    name: format!("{}.{}", qualifier.to_ascii_lowercase(), c.name),
                    data_type: c.data_type,
                    nullable: c.nullable,
                })
                .collect(),
        )
        .expect("qualification preserves uniqueness")
    }

    /// Concatenate two schemas (join output).
    pub fn join(&self, other: &Schema) -> Result<Schema> {
        let mut cols = self.columns.clone();
        cols.extend(other.columns.iter().cloned());
        Schema::new(cols)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", c.name, c.data_type)?;
            if !c.nullable {
                write!(f, " NOT NULL")?;
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::of(&[
            ("id", DataType::Int),
            ("name", DataType::Varchar),
            ("balance", DataType::Double),
        ])
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let s = sample();
        assert_eq!(s.index_of("ID"), Some(0));
        assert_eq!(s.index_of("Name"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        assert!(s.require("missing").is_err());
    }

    #[test]
    fn duplicate_columns_rejected() {
        let r = Schema::new(vec![
            ColumnDef::new("a", DataType::Int),
            ColumnDef::new("A", DataType::Int),
        ]);
        assert!(r.is_err());
    }

    #[test]
    fn check_row_validates_arity_nullability_types() {
        let s = Schema::new(vec![
            ColumnDef::not_null("id", DataType::Int),
            ColumnDef::new("name", DataType::Varchar),
        ])
        .unwrap();
        assert!(s.check_row(&[Value::Int(1), Value::from("x")]).is_ok());
        assert!(s.check_row(&[Value::Int(1), Value::Null]).is_ok());
        assert!(s.check_row(&[Value::Null, Value::from("x")]).is_err());
        assert!(s.check_row(&[Value::Int(1)]).is_err());
        assert!(s
            .check_row(&[Value::from("oops"), Value::from("x")])
            .is_err());
    }

    #[test]
    fn qualification_and_join() {
        let a = sample().qualified("t");
        assert_eq!(a.index_of("t.id"), Some(0));
        let b = Schema::of(&[("other", DataType::Int)]);
        let j = a.join(&b).unwrap();
        assert_eq!(j.len(), 4);
        assert_eq!(j.index_of("other"), Some(3));
    }

    #[test]
    fn display_renders_ddl_like() {
        let s = Schema::new(vec![ColumnDef::not_null("id", DataType::Int)]).unwrap();
        assert_eq!(s.to_string(), "(id INTEGER NOT NULL)");
    }
}
