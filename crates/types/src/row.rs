//! Row representation shared by the executors.

use std::fmt;

use crate::value::Value;

/// A single tuple. A thin newtype over `Vec<Value>` so the executors can
/// attach row-level helpers without exposing the representation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Row(pub Vec<Value>);

impl Row {
    /// An empty row.
    pub fn new() -> Row {
        Row(Vec::new())
    }

    /// Build from any iterator of values.
    pub fn from_values<I: IntoIterator<Item = Value>>(vals: I) -> Row {
        Row(vals.into_iter().collect())
    }

    /// The values of this row.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the row has no values.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The value at `idx`.
    pub fn get(&self, idx: usize) -> &Value {
        &self.0[idx]
    }

    /// Concatenate two rows (join output), consuming both.
    pub fn concat(mut self, other: Row) -> Row {
        self.0.extend(other.0);
        self
    }

    /// Project the row to the given column indices.
    pub fn project(&self, indices: &[usize]) -> Row {
        Row(indices.iter().map(|&i| self.0[i].clone()).collect())
    }

    /// Render as a delimited text line (the ESP archive format; Hive
    /// tables have a writer of their own that reads back what it wrote).
    pub fn to_delimited(&self, sep: char) -> String {
        let mut out = String::new();
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(sep);
            }
            if v.is_null() {
                out.push_str("\\N");
            } else {
                out.push_str(&v.to_string());
            }
        }
        out
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({})", self.to_delimited(','))
    }
}

impl From<Vec<Value>> for Row {
    fn from(v: Vec<Value>) -> Self {
        Row(v)
    }
}

impl std::ops::Index<usize> for Row {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        &self.0[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_and_project() {
        let a = Row::from_values([Value::Int(1), Value::from("x")]);
        let b = Row::from_values([Value::Double(2.5)]);
        let j = a.concat(b);
        assert_eq!(j.len(), 3);
        let p = j.project(&[2, 0]);
        assert_eq!(p.values(), &[Value::Double(2.5), Value::Int(1)]);
    }

    #[test]
    fn delimited_escapes_null() {
        let r = Row::from_values([Value::Int(1), Value::Null, Value::from("a|b")]);
        assert_eq!(r.to_delimited('|'), "1|\\N|a|b");
    }
}
