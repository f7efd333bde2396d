//! Result comparison: two engines (or two executions) agree when their
//! rows, taken as multisets, are equal — numbers up to a relative
//! tolerance, since sums are taken in different orders.

use hana_types::{ResultSet, Row, Value};

const RELATIVE_TOLERANCE: f64 = 1e-6;

/// A result put in canonical order, ready to be compared many times.
pub struct Canonical {
    rows: Vec<Row>,
}

fn sort_key(row: &Row) -> String {
    // Exact values first, so that rows are told apart before any
    // rounded number is looked at.
    let mut exact = String::new();
    let mut rounded = String::new();
    for v in row.values() {
        match v {
            Value::Double(x) => rounded.push_str(&format!("{x:.9e}|")),
            Value::Int(i) => exact.push_str(&format!("{i:020}|")),
            other => exact.push_str(&format!("{other}|")),
        }
    }
    exact + &rounded
}

pub fn canonical(rs: &ResultSet) -> Canonical {
    let mut rows = rs.rows.clone();
    rows.sort_by_cached_key(sort_key);
    Canonical { rows }
}

fn values_agree(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Double(_), _) | (_, Value::Double(_)) => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => {
                (x - y).abs() <= RELATIVE_TOLERANCE * x.abs().max(y.abs()).max(1e-300)
            }
            _ => false,
        },
        _ => a == b,
    }
}

impl Canonical {
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `Err` names the first difference.
    pub fn agrees_with(&self, other: &Canonical) -> Result<(), String> {
        if self.rows.len() != other.rows.len() {
            return Err(format!(
                "{} rows against {}",
                self.rows.len(),
                other.rows.len()
            ));
        }
        for (i, (a, b)) in self.rows.iter().zip(&other.rows).enumerate() {
            let same = a.len() == b.len()
                && a.values()
                    .iter()
                    .zip(b.values())
                    .all(|(x, y)| values_agree(x, y));
            if !same {
                return Err(format!("row {i}: {a:?} against {b:?}"));
            }
        }
        Ok(())
    }
}
