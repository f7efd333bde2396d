//! The dynamic SQL value.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::datatype::DataType;
use crate::date::Date;
use crate::error::{HanaError, Result};

/// A single dynamically-typed SQL value.
///
/// `Value` implements a **total order** (NULLs first, then by type rank,
/// then by value; doubles via `total_cmp`) so it can serve directly as the
/// sort key of the ordered dictionaries in the column store (§3.1) and as
/// a grouping key in hash aggregation. `Eq`/`Hash` are consistent with
/// that order (`f64` is hashed by bit pattern).
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 32- or 64-bit integer (both SQL INTEGER and BIGINT map here).
    Int(i64),
    /// Double-precision float.
    Double(f64),
    /// UTF-8 string.
    Varchar(String),
    /// Calendar date.
    Date(Date),
    /// Microseconds since the Unix epoch.
    Timestamp(i64),
}

impl Value {
    /// The value's data type, or `None` for NULL (which is typeless).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::BigInt),
            Value::Double(_) => Some(DataType::Double),
            Value::Varchar(_) => Some(DataType::Varchar),
            Value::Date(_) => Some(DataType::Date),
            Value::Timestamp(_) => Some(DataType::Timestamp),
        }
    }

    /// Whether this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value, if it has one. Dates are exposed as
    /// their day number so range predicates work uniformly.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Double(d) => Some(*d),
            Value::Bool(b) => Some(*b as i64 as f64),
            Value::Date(d) => Some(d.0 as f64),
            Value::Timestamp(t) => Some(*t as f64),
            _ => None,
        }
    }

    /// Integer view of the value, if it has one.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Bool(b) => Some(*b as i64),
            Value::Date(d) => Some(d.0 as i64),
            Value::Timestamp(t) => Some(*t),
            _ => None,
        }
    }

    /// String view (only for `Varchar`).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Varchar(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view (only for `Bool`).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Rank used to order values of different types in a total order.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Double(_) => 2, // numerics compare with each other
            Value::Date(_) => 3,
            Value::Timestamp(_) => 4,
            Value::Varchar(_) => 5,
        }
    }

    /// SQL three-valued comparison: `None` if either side is NULL.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.cmp(other))
    }

    /// Add two values with SQL numeric promotion. NULL propagates.
    pub fn add(&self, other: &Value) -> Result<Value> {
        self.arith(other, "+", |a, b| a + b, i64::checked_add)
    }

    /// Subtract with SQL numeric promotion. NULL propagates.
    pub fn sub(&self, other: &Value) -> Result<Value> {
        self.arith(other, "-", |a, b| a - b, i64::checked_sub)
    }

    /// Multiply with SQL numeric promotion. NULL propagates.
    pub fn mul(&self, other: &Value) -> Result<Value> {
        self.arith(other, "*", |a, b| a * b, i64::checked_mul)
    }

    /// Divide; integer division by zero is an execution error, and
    /// integer division produces a double (HANA promotes to decimal).
    pub fn div(&self, other: &Value) -> Result<Value> {
        if self.is_null() || other.is_null() {
            return Ok(Value::Null);
        }
        let (a, b) = (
            self.as_f64()
                .ok_or_else(|| HanaError::Execution(format!("cannot divide {self}")))?,
            other
                .as_f64()
                .ok_or_else(|| HanaError::Execution(format!("cannot divide by {other}")))?,
        );
        if b == 0.0 {
            return Err(HanaError::Execution("division by zero".into()));
        }
        Ok(Value::Double(a / b))
    }

    fn arith(
        &self,
        other: &Value,
        op: &str,
        f: impl Fn(f64, f64) -> f64,
        g: impl Fn(i64, i64) -> Option<i64>,
    ) -> Result<Value> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (Value::Int(a), Value::Int(b)) => g(*a, *b)
                .map(Value::Int)
                .ok_or_else(|| HanaError::Execution(format!("integer overflow in {a} {op} {b}"))),
            _ => {
                let (a, b) = (self.as_f64(), other.as_f64());
                match (a, b) {
                    (Some(a), Some(b)) => Ok(Value::Double(f(a, b))),
                    _ => Err(HanaError::Execution(format!(
                        "cannot apply '{op}' to {self} and {other}"
                    ))),
                }
            }
        }
    }

    /// SQL `LIKE` with `%` (any run) and `_` (any one char) wildcards.
    pub fn sql_like(&self, pattern: &str) -> Option<bool> {
        let s = match self {
            Value::Null => return None,
            Value::Varchar(s) => s.as_str(),
            _ => return Some(false),
        };
        Some(like_match(s.as_bytes(), pattern.as_bytes()))
    }

    /// Parse a literal of the requested type from text (used by the CSV
    /// loaders, the non-string fields of Hive's text format and the
    /// TPC-H generator). The empty string, `\N` and `null` are NULL.
    pub fn parse_typed(text: &str, ty: DataType) -> Result<Value> {
        if text.is_empty() || text == "\\N" || text.eq_ignore_ascii_case("null") {
            return Ok(Value::Null);
        }
        let bad = |t: &str| HanaError::Parse(format!("cannot parse '{text}' as {t}"));
        match ty {
            DataType::Bool => match text.to_ascii_lowercase().as_str() {
                "true" | "1" | "t" => Ok(Value::Bool(true)),
                "false" | "0" | "f" => Ok(Value::Bool(false)),
                _ => Err(bad("BOOLEAN")),
            },
            DataType::Int | DataType::BigInt => text
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| bad("INTEGER")),
            DataType::Double => text
                .parse::<f64>()
                .map(Value::Double)
                .map_err(|_| bad("DOUBLE")),
            DataType::Varchar => Ok(Value::Varchar(text.to_string())),
            DataType::Date => Date::parse(text).map(Value::Date),
            DataType::Timestamp => text
                .parse::<i64>()
                .map(Value::Timestamp)
                .map_err(|_| bad("TIMESTAMP")),
        }
    }

    /// Approximate heap + inline footprint in bytes; used by the
    /// row-storage baseline of the Figure 2 compression experiment.
    pub fn storage_bytes(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Double(_) | Value::Timestamp(_) => 8,
            Value::Date(_) => 4,
            Value::Varchar(s) => s.len().max(1),
        }
    }
}

/// Collapse `-0.0` to `0.0` so ordering, equality and hashing agree.
fn norm_zero(d: f64) -> f64 {
    if d == 0.0 {
        0.0
    } else {
        d
    }
}

/// Iterative `LIKE` matcher with backtracking over `%`.
fn like_match(s: &[u8], p: &[u8]) -> bool {
    let (mut si, mut pi) = (0usize, 0usize);
    let (mut star_p, mut star_s) = (usize::MAX, 0usize);
    while si < s.len() {
        if pi < p.len() && (p[pi] == b'_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == b'%' {
            star_p = pi;
            star_s = si;
            pi += 1;
        } else if star_p != usize::MAX {
            star_s += 1;
            si = star_s;
            pi = star_p + 1;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == b'%' {
        pi += 1;
    }
    pi == p.len()
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Double(a), Double(b)) => norm_zero(*a).total_cmp(&norm_zero(*b)),
            (Int(a), Double(b)) => (*a as f64).total_cmp(&norm_zero(*b)),
            (Double(a), Int(b)) => norm_zero(*a).total_cmp(&(*b as f64)),
            (Varchar(a), Varchar(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Timestamp(a), Timestamp(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => (1u8, b).hash(state),
            // Integral doubles hash like ints so Int(2) == Double(2.0)
            // hash consistently with equality.
            Value::Int(i) => (2u8, *i as f64).to_bits_hash(state),
            Value::Double(d) => (2u8, *d).to_bits_hash(state),
            Value::Varchar(s) => (5u8, s).hash(state),
            Value::Date(d) => (3u8, d).hash(state),
            Value::Timestamp(t) => (4u8, t).hash(state),
        }
    }
}

/// Helper to hash an `(tag, f64)` pair by bit pattern.
trait BitsHash {
    fn to_bits_hash<H: Hasher>(&self, state: &mut H);
}

impl BitsHash for (u8, f64) {
    fn to_bits_hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
        // Normalize -0.0 to 0.0 so equal values hash equally.
        let v = if self.1 == 0.0 { 0.0 } else { self.1 };
        v.to_bits().hash(state);
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => {
                if d.fract() == 0.0 && d.abs() < 1e15 {
                    write!(f, "{d:.1}")
                } else {
                    write!(f, "{d}")
                }
            }
            Value::Varchar(s) => f.write_str(s),
            Value::Date(d) => write!(f, "{d}"),
            Value::Timestamp(t) => write!(f, "ts:{t}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Varchar(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Varchar(v)
    }
}
impl From<Date> for Value {
    fn from(v: Date) -> Self {
        Value::Date(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn total_order_nulls_first() {
        let mut vals = [
            Value::from("z"),
            Value::Null,
            Value::from(3i64),
            Value::from(1.5),
            Value::from(false),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Bool(false));
        assert_eq!(vals[2], Value::Double(1.5));
        assert_eq!(vals[3], Value::Int(3));
        assert_eq!(vals[4], Value::from("z"));
    }

    #[test]
    fn int_double_cross_comparison() {
        assert_eq!(Value::Int(2), Value::Double(2.0));
        assert!(Value::Int(2) < Value::Double(2.5));
        assert!(Value::Double(1.9) < Value::Int(2));
        assert_eq!(h(&Value::Int(2)), h(&Value::Double(2.0)));
    }

    #[test]
    fn sql_cmp_is_three_valued() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
    }

    #[test]
    fn arithmetic_promotes_and_propagates_null() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)).unwrap(), Value::Int(5));
        assert_eq!(
            Value::Int(2).mul(&Value::Double(1.5)).unwrap(),
            Value::Double(3.0)
        );
        assert!(Value::Int(1).add(&Value::Null).unwrap().is_null());
        assert!(Value::from("x").add(&Value::Int(1)).is_err());
        assert!(Value::Int(1).div(&Value::Int(0)).is_err());
        assert_eq!(
            Value::Int(3).div(&Value::Int(2)).unwrap(),
            Value::Double(1.5)
        );
    }

    #[test]
    fn integer_overflow_is_an_error() {
        assert!(Value::Int(i64::MAX).add(&Value::Int(1)).is_err());
        assert!(Value::Int(i64::MIN).sub(&Value::Int(1)).is_err());
    }

    #[test]
    fn like_wildcards() {
        let v = Value::from("HOUSEHOLD");
        assert_eq!(v.sql_like("HOUSEHOLD"), Some(true));
        assert_eq!(v.sql_like("HOUSE%"), Some(true));
        assert_eq!(v.sql_like("%HOLD"), Some(true));
        assert_eq!(v.sql_like("%USE%"), Some(true));
        assert_eq!(v.sql_like("H_USEHOLD"), Some(true));
        assert_eq!(v.sql_like("H_SEHOLD"), Some(false));
        assert_eq!(v.sql_like("%X%"), Some(false));
        assert_eq!(Value::Null.sql_like("%"), None);
        assert_eq!(Value::from("").sql_like("%"), Some(true));
        assert_eq!(Value::from("").sql_like("_"), Some(false));
    }

    #[test]
    fn parse_typed_round_trips() {
        assert_eq!(
            Value::parse_typed("42", DataType::Int).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            Value::parse_typed("1995-06-17", DataType::Date).unwrap(),
            Value::Date(Date::parse("1995-06-17").unwrap())
        );
        assert!(Value::parse_typed("", DataType::Int).unwrap().is_null());
        assert!(Value::parse_typed("\\N", DataType::Double)
            .unwrap()
            .is_null());
        assert!(Value::parse_typed("xyz", DataType::Int).is_err());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Double(3.0).to_string(), "3.0");
        assert_eq!(Value::Double(3.25).to_string(), "3.25");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn negative_zero_hashes_like_zero() {
        assert_eq!(h(&Value::Double(0.0)), h(&Value::Double(-0.0)));
        assert_eq!(Value::Double(0.0), Value::Double(-0.0));
    }
}
