//! Dictionary encoding.
//!
//! The main store uses an **ordered** dictionary (values sorted, value ID =
//! rank), which lets range predicates be answered with two binary searches
//! and is the basis of the q-optimal histogram construction the paper's
//! optimizer cites ([16] in the paper). The write-optimized delta store
//! uses an insertion-ordered dictionary with a hash index instead, because
//! inserts must not reshuffle existing value IDs.
//!
//! Value ID `0` is reserved for SQL NULL in both dictionaries; real values
//! get IDs starting at 1.

use std::collections::HashMap;
use std::sync::Arc;

use hana_types::Value;

/// Reserved value ID for SQL NULL.
pub const NULL_VID: u32 = 0;

/// Sorted, deduplicated dictionary of the main store. Immutable once
/// built: its values are one shared slice, which a reader that keeps
/// vids beyond the table's lock holds a handle to.
#[derive(Debug, Clone, Default)]
pub struct OrderedDictionary {
    /// Distinct non-null values in ascending order; `values[i]` has
    /// value ID `i + 1`.
    values: Arc<[Value]>,
}

impl OrderedDictionary {
    /// Build from arbitrary values (nulls are skipped, duplicates folded).
    pub fn build<'a, I: IntoIterator<Item = &'a Value>>(values: I) -> OrderedDictionary {
        let mut vals: Vec<Value> = values
            .into_iter()
            .filter(|v| !v.is_null())
            .cloned()
            .collect();
        vals.sort_unstable();
        vals.dedup();
        let values = vals.into();
        OrderedDictionary { values }
    }

    /// Number of distinct non-null values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the dictionary holds no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Value ID for `v` (1-based), `NULL_VID` for NULL, `None` if absent.
    pub fn lookup(&self, v: &Value) -> Option<u32> {
        if v.is_null() {
            return Some(NULL_VID);
        }
        self.values.binary_search(v).ok().map(|i| (i + 1) as u32)
    }

    /// The value for a (non-NULL) value ID.
    pub fn value(&self, vid: u32) -> &Value {
        &self.values[(vid - 1) as usize]
    }

    /// Decode any value ID, mapping `NULL_VID` to `Value::Null`.
    pub fn decode(&self, vid: u32) -> Value {
        if vid == NULL_VID {
            Value::Null
        } else {
            self.value(vid).clone()
        }
    }

    /// Inclusive value-ID range of all dictionary entries in
    /// `[lo, hi]` (by value). Returns `None` when the range is empty.
    ///
    /// `lo`/`hi` of `None` mean unbounded on that side.
    pub fn vid_range(
        &self,
        lo: Option<(&Value, bool)>,
        hi: Option<(&Value, bool)>,
    ) -> Option<(u32, u32)> {
        if self.values.is_empty() {
            return None;
        }
        let start = match lo {
            None => 0,
            Some((v, inclusive)) => match self.values.binary_search(v) {
                Ok(i) if inclusive => i,
                Ok(i) => i + 1,
                Err(i) => i,
            },
        };
        let end = match hi {
            None => self.values.len(),
            Some((v, inclusive)) => match self.values.binary_search(v) {
                Ok(i) if inclusive => i + 1,
                Ok(i) => i,
                Err(i) => i,
            },
        };
        (start < end).then(|| (start as u32 + 1, end as u32))
    }

    /// All distinct values in ascending order: vid `v > 0` is
    /// `values[v - 1]`.
    pub fn values(&self) -> &Arc<[Value]> {
        &self.values
    }

    /// Smallest value, if any.
    pub fn min(&self) -> Option<&Value> {
        self.values.first()
    }

    /// Largest value, if any.
    pub fn max(&self) -> Option<&Value> {
        self.values.last()
    }

    /// Approximate heap footprint in bytes.
    pub fn payload_bytes(&self) -> usize {
        self.values.iter().map(Value::storage_bytes).sum::<usize>()
            + self.values.len() * std::mem::size_of::<Value>()
    }
}

/// Insertion-ordered dictionary of the delta store.
#[derive(Debug, Clone, Default)]
pub struct DeltaDictionary {
    values: Vec<Value>,
    index: HashMap<Value, u32>,
}

impl DeltaDictionary {
    /// An empty delta dictionary.
    pub fn new() -> DeltaDictionary {
        DeltaDictionary::default()
    }

    /// Number of distinct non-null values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the dictionary holds no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Return the value ID for `v`, inserting it if new. NULL maps to
    /// `NULL_VID` without insertion.
    pub fn insert_or_get(&mut self, v: &Value) -> u32 {
        if v.is_null() {
            return NULL_VID;
        }
        if let Some(&vid) = self.index.get(v) {
            return vid;
        }
        self.values.push(v.clone());
        let vid = self.values.len() as u32;
        self.index.insert(v.clone(), vid);
        vid
    }

    /// Value ID for `v` without inserting.
    pub fn lookup(&self, v: &Value) -> Option<u32> {
        if v.is_null() {
            return Some(NULL_VID);
        }
        self.index.get(v).copied()
    }

    /// The value for a (non-NULL) value ID.
    pub fn value(&self, vid: u32) -> &Value {
        &self.values[(vid - 1) as usize]
    }

    /// Decode any value ID, mapping `NULL_VID` to `Value::Null`.
    pub fn decode(&self, vid: u32) -> Value {
        if vid == NULL_VID {
            Value::Null
        } else {
            self.value(vid).clone()
        }
    }

    /// Distinct values in insertion order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Approximate heap footprint in bytes.
    pub fn payload_bytes(&self) -> usize {
        // Values are stored twice (vector + hash index).
        2 * (self.values.iter().map(Value::storage_bytes).sum::<usize>()
            + self.values.len() * std::mem::size_of::<Value>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dict(vals: &[i64]) -> OrderedDictionary {
        let values: Vec<Value> = vals.iter().map(|&v| Value::Int(v)).collect();
        OrderedDictionary::build(&values)
    }

    #[test]
    fn ordered_dictionary_sorts_and_dedups() {
        let d = dict(&[5, 1, 3, 3, 1]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.lookup(&Value::Int(1)), Some(1));
        assert_eq!(d.lookup(&Value::Int(3)), Some(2));
        assert_eq!(d.lookup(&Value::Int(5)), Some(3));
        assert_eq!(d.lookup(&Value::Int(2)), None);
        assert_eq!(d.lookup(&Value::Null), Some(NULL_VID));
        assert_eq!(d.decode(0), Value::Null);
        assert_eq!(d.decode(2), Value::Int(3));
        assert_eq!(d.min(), Some(&Value::Int(1)));
        assert_eq!(d.max(), Some(&Value::Int(5)));
    }

    #[test]
    fn vid_range_bounds() {
        let d = dict(&[10, 20, 30, 40]);
        // [20, 30] inclusive -> vids 2..=3
        assert_eq!(
            d.vid_range(Some((&Value::Int(20), true)), Some((&Value::Int(30), true))),
            Some((2, 3))
        );
        // (20, 40) exclusive -> vid 3 only
        assert_eq!(
            d.vid_range(
                Some((&Value::Int(20), false)),
                Some((&Value::Int(40), false))
            ),
            Some((3, 3))
        );
        // values between dictionary entries
        assert_eq!(
            d.vid_range(Some((&Value::Int(15), true)), Some((&Value::Int(35), true))),
            Some((2, 3))
        );
        // empty range
        assert_eq!(
            d.vid_range(Some((&Value::Int(31), true)), Some((&Value::Int(39), true))),
            None
        );
        // unbounded
        assert_eq!(d.vid_range(None, None), Some((1, 4)));
        assert_eq!(
            d.vid_range(Some((&Value::Int(30), true)), None),
            Some((3, 4))
        );
    }

    #[test]
    fn delta_dictionary_preserves_insertion_order() {
        let mut d = DeltaDictionary::new();
        assert_eq!(d.insert_or_get(&Value::from("b")), 1);
        assert_eq!(d.insert_or_get(&Value::from("a")), 2);
        assert_eq!(d.insert_or_get(&Value::from("b")), 1);
        assert_eq!(d.insert_or_get(&Value::Null), NULL_VID);
        assert_eq!(d.len(), 2);
        assert_eq!(d.value(1), &Value::from("b"));
        assert_eq!(d.lookup(&Value::from("a")), Some(2));
        assert_eq!(d.lookup(&Value::from("z")), None);
    }
}
