//! SQL aggregate functions, shared by every engine in the platform
//! (in-memory executor, extended storage, Hive/MapReduce, ESP windows).

use crate::error::{HanaError, Result};
use crate::value::Value;

/// The supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` — counts rows, NULLs included.
    CountStar,
    /// `COUNT(expr)` — counts non-NULL inputs.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `AVG(expr)`.
    Avg,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
}

impl AggFunc {
    /// Parse a SQL function name.
    pub fn parse(name: &str) -> Option<AggFunc> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "AVG" => Some(AggFunc::Avg),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            _ => None,
        }
    }

    /// SQL spelling.
    pub fn sql_name(&self) -> &'static str {
        match self {
            AggFunc::CountStar => "COUNT(*)",
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }

    /// A fresh accumulator for this function.
    pub fn accumulator(&self) -> Accumulator {
        Accumulator {
            func: *self,
            count: 0,
            sum: 0.0,
            int_sum: Some(0),
            min: None,
            max: None,
        }
    }

    /// Rebuild an accumulator of this function from [`Accumulator::state`].
    pub fn accumulator_from_state(&self, state: &[Value]) -> Result<Accumulator> {
        let some = |v: &Value| (!v.is_null()).then(|| v.clone());
        match state {
            [Value::Int(count), Value::Double(sum), int_sum @ (Value::Int(_) | Value::Null), min, max] => {
                Ok(Accumulator {
                    func: *self,
                    count: *count,
                    sum: *sum,
                    int_sum: int_sum.as_i64(),
                    min: some(min),
                    max: some(max),
                })
            }
            other => Err(HanaError::Execution(format!(
                "not the state of a {} accumulator: {other:?}",
                self.sql_name()
            ))),
        }
    }
}

/// Incremental state for one aggregate.
///
/// Also supports **retraction** (`remove`), which the ESP engine uses for
/// incremental window aggregation as events expire.
#[derive(Debug, Clone)]
pub struct Accumulator {
    func: AggFunc,
    count: i64,
    sum: f64,
    /// Exact integer sum while all inputs are integers.
    int_sum: Option<i64>,
    min: Option<Value>,
    max: Option<Value>,
}

impl Accumulator {
    /// Feed one input value.
    pub fn add(&mut self, v: &Value) {
        if self.func == AggFunc::CountStar {
            self.count += 1;
            return;
        }
        if v.is_null() {
            return;
        }
        self.count += 1;
        if let Some(x) = v.as_f64() {
            self.sum += x;
        }
        self.int_sum = match (self.int_sum, v) {
            (Some(acc), Value::Int(i)) => acc.checked_add(*i),
            _ => None,
        };
        // Only MIN and MAX read their extremes: the other functions
        // neither compare nor clone their inputs.
        match self.func {
            AggFunc::Min if self.min.as_ref().is_none_or(|m| v < m) => {
                self.min = Some(v.clone());
            }
            AggFunc::Max if self.max.as_ref().is_none_or(|m| v > m) => {
                self.max = Some(v.clone());
            }
            _ => {}
        }
    }

    /// Retract one previously added value. MIN/MAX do not support
    /// retraction (the ESP engine recomputes those windows instead).
    pub fn remove(&mut self, v: &Value) -> Result<()> {
        match self.func {
            AggFunc::Min | AggFunc::Max => {
                return Err(HanaError::Unsupported(
                    "MIN/MAX accumulators cannot retract; recompute the window".into(),
                ))
            }
            AggFunc::CountStar => {
                self.count -= 1;
                return Ok(());
            }
            _ => {}
        }
        if v.is_null() {
            return Ok(());
        }
        self.count -= 1;
        if let Some(x) = v.as_f64() {
            self.sum -= x;
        }
        self.int_sum = match (self.int_sum, v) {
            (Some(acc), Value::Int(i)) => acc.checked_sub(*i),
            _ => None,
        };
        Ok(())
    }

    /// The aggregate's current value.
    pub fn finish(&self) -> Value {
        match self.func {
            AggFunc::Count | AggFunc::CountStar => Value::Int(self.count),
            AggFunc::Sum => {
                if self.count == 0 {
                    Value::Null
                } else if let Some(i) = self.int_sum {
                    Value::Int(i)
                } else {
                    Value::Double(self.sum)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Double(self.sum / self.count as f64)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }

    /// The partial state as plain values — `[count, sum, exact integer
    /// sum or NULL, min or NULL, max or NULL]`, the extremes NULL for
    /// every function but MIN and MAX — so that it travels
    /// through whatever row codec the caller already has.
    /// [`AggFunc::accumulator_from_state`] is the inverse.
    pub fn state(&self) -> [Value; 5] {
        [
            Value::Int(self.count),
            Value::Double(self.sum),
            self.int_sum.map_or(Value::Null, Value::Int),
            self.min.clone().unwrap_or(Value::Null),
            self.max.clone().unwrap_or(Value::Null),
        ]
    }

    /// Merge another accumulator of the same function (partial
    /// aggregation across partitions / MapReduce map tasks).
    pub fn merge(&mut self, other: &Accumulator) {
        debug_assert_eq!(self.func, other.func);
        self.count += other.count;
        self.sum += other.sum;
        self.int_sum = match (self.int_sum, other.int_sum) {
            (Some(a), Some(b)) => a.checked_add(b),
            _ => None,
        };
        if let Some(m) = &other.min {
            if self.min.as_ref().is_none_or(|s| m < s) {
                self.min = Some(m.clone());
            }
        }
        if let Some(m) = &other.max {
            if self.max.as_ref().is_none_or(|s| m > s) {
                self.max = Some(m.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(func: AggFunc, vals: &[Value]) -> Value {
        let mut acc = func.accumulator();
        for v in vals {
            acc.add(v);
        }
        acc.finish()
    }

    #[test]
    fn basic_aggregates() {
        let vals = vec![Value::Int(1), Value::Null, Value::Int(3), Value::Int(2)];
        assert_eq!(run(AggFunc::Count, &vals), Value::Int(3));
        assert_eq!(run(AggFunc::CountStar, &vals), Value::Int(4));
        assert_eq!(run(AggFunc::Sum, &vals), Value::Int(6));
        assert_eq!(run(AggFunc::Avg, &vals), Value::Double(2.0));
        assert_eq!(run(AggFunc::Min, &vals), Value::Int(1));
        assert_eq!(run(AggFunc::Max, &vals), Value::Int(3));
    }

    #[test]
    fn empty_input_semantics() {
        assert_eq!(run(AggFunc::Count, &[]), Value::Int(0));
        assert_eq!(run(AggFunc::Sum, &[]), Value::Null);
        assert_eq!(run(AggFunc::Avg, &[]), Value::Null);
        assert_eq!(run(AggFunc::Min, &[]), Value::Null);
    }

    #[test]
    fn mixed_types_promote_to_double() {
        let vals = vec![Value::Int(1), Value::Double(0.5)];
        assert_eq!(run(AggFunc::Sum, &vals), Value::Double(1.5));
    }

    #[test]
    fn retraction_for_sliding_windows() {
        let mut acc = AggFunc::Sum.accumulator();
        for i in 1..=5 {
            acc.add(&Value::Int(i));
        }
        acc.remove(&Value::Int(1)).unwrap();
        acc.remove(&Value::Int(2)).unwrap();
        assert_eq!(acc.finish(), Value::Int(12));
        assert!(AggFunc::Min.accumulator().remove(&Value::Int(1)).is_err());
    }

    #[test]
    fn merge_partials() {
        let mut a = AggFunc::Avg.accumulator();
        a.add(&Value::Int(2));
        let mut b = AggFunc::Avg.accumulator();
        b.add(&Value::Int(4));
        b.add(&Value::Int(6));
        a.merge(&b);
        assert_eq!(a.finish(), Value::Double(4.0));
        let mut m = AggFunc::Max.accumulator();
        m.add(&Value::Int(1));
        let mut n = AggFunc::Max.accumulator();
        n.add(&Value::Int(9));
        m.merge(&n);
        assert_eq!(m.finish(), Value::Int(9));
    }

    #[test]
    fn state_round_trips() {
        let inputs = [Value::from("1e3"), Value::Null, Value::from("007")];
        for func in [
            AggFunc::CountStar,
            AggFunc::Count,
            AggFunc::Min,
            AggFunc::Max,
        ] {
            let mut acc = func.accumulator();
            inputs.iter().for_each(|v| acc.add(v));
            let back = func.accumulator_from_state(&acc.state()).unwrap();
            assert_eq!(back.finish(), acc.finish(), "{func:?}");
            assert_eq!(back.state(), acc.state(), "{func:?}");
        }
        // An integer sum stays exact, an overflowed one stays a double.
        let mut sum = AggFunc::Sum.accumulator();
        sum.add(&Value::Int(i64::MAX));
        let back = AggFunc::Sum.accumulator_from_state(&sum.state()).unwrap();
        assert_eq!(back.finish(), Value::Int(i64::MAX));
        sum.add(&Value::Int(1));
        let back = AggFunc::Sum.accumulator_from_state(&sum.state()).unwrap();
        assert_eq!(back.finish(), sum.finish());
        assert!(matches!(back.finish(), Value::Double(_)));
        // An empty accumulator, and a state that is none.
        let empty = AggFunc::Min.accumulator();
        let back = AggFunc::Min.accumulator_from_state(&empty.state()).unwrap();
        assert_eq!(back.finish(), Value::Null);
        assert!(AggFunc::Sum
            .accumulator_from_state(&[Value::Int(1)])
            .is_err());
    }

    #[test]
    fn only_min_and_max_keep_extremes() {
        let inputs = [Value::Int(3), Value::from("x"), Value::Double(0.5)];
        for func in [
            AggFunc::CountStar,
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
        ] {
            let mut acc = func.accumulator();
            inputs.iter().for_each(|v| acc.add(v));
            let [.., min, max] = acc.state();
            assert_eq!((min, max), (Value::Null, Value::Null), "{func:?}");
        }
        let mut min = AggFunc::Min.accumulator();
        let mut max = AggFunc::Max.accumulator();
        for v in &inputs {
            min.add(v);
            max.add(v);
        }
        assert_eq!(min.state()[3], Value::Double(0.5));
        assert_eq!(max.state()[4], Value::from("x"));
    }

    #[test]
    fn parse_names() {
        assert_eq!(AggFunc::parse("sum"), Some(AggFunc::Sum));
        assert_eq!(AggFunc::parse("AVG"), Some(AggFunc::Avg));
        assert_eq!(AggFunc::parse("median"), None);
    }
}
