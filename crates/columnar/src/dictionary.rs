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

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use hana_types::{FxHasher, Value};

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
    /// Merge a delta's values in (Krueger et al., PVLDB 5(1), 2011):
    /// the delta's distinct values are sorted once, as indices, and
    /// walked against this dictionary in one pass, which yields the
    /// merged dictionary and the two vid translation tables. Each value
    /// is compared and copied once per entry; a delta value equal to a
    /// main entry (`Int(2)` and `Double(2.0)`) keeps the main's entry.
    /// A delta that adds no value keeps this dictionary's shared values.
    pub(crate) fn merge(&self, delta: &DeltaDictionary) -> DictionaryMerge {
        let fresh = &delta.values;
        let mut order: Vec<u32> = (0..fresh.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| fresh[a as usize].cmp(&fresh[b as usize]));
        let main = &self.values;
        // Each delta value's place, ascending: the main entry it
        // equals (`Ok`), or the main entry it goes before (`Err`).
        let mut at = 0;
        let places: Vec<Result<usize, usize>> = (order.iter())
            .map(|&d| loop {
                match main.get(at).map(|m| m.cmp(&fresh[d as usize])) {
                    Some(Ordering::Less) => at += 1,
                    Some(Ordering::Equal) => return Ok(at),
                    _ => return Err(at),
                }
            })
            .collect();
        let added = places.iter().filter(|p| p.is_err()).count();
        let mut delta_to_new = vec![NULL_VID; fresh.len() + 1];
        if added == 0 {
            for (&d, &place) in order.iter().zip(&places) {
                let (Ok(i) | Err(i)) = place;
                delta_to_new[d as usize + 1] = i as u32 + 1;
            }
            return DictionaryMerge {
                dict: self.clone(),
                main_to_new: None,
                delta_to_new,
            };
        }
        let mut values = Vec::with_capacity(main.len() + added);
        let mut main_to_new = Vec::with_capacity(main.len() + 1);
        main_to_new.push(NULL_VID);
        let mut copy_main = |values: &mut Vec<Value>, entries: &[Value]| {
            for v in entries {
                values.push(v.clone());
                main_to_new.push(values.len() as u32);
            }
        };
        let mut next = 0;
        for (&d, &place) in order.iter().zip(&places) {
            // Up to and including the equal main entry, or up to the
            // entry the new value goes before.
            let upto = match place {
                Ok(i) => i + 1,
                Err(i) => i,
            };
            copy_main(&mut values, &main[next..upto]);
            next = upto;
            // Cloned, not moved out of the delta: the copies are
            // allocated in value order, and a probe measured the
            // statistics and checkpoint passes that read them after a
            // merge about a third slower over moved values.
            if place.is_err() {
                values.push(fresh[d as usize].clone());
            }
            delta_to_new[d as usize + 1] = values.len() as u32;
        }
        copy_main(&mut values, &main[next..]);
        DictionaryMerge {
            dict: OrderedDictionary {
                values: values.into(),
            },
            main_to_new: Some(main_to_new),
            delta_to_new,
        }
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

/// A delta merge's renumbering of one column: the merged dictionary and
/// the translation tables into it, each indexed by an old vid (entry 0,
/// NULL, maps to [`NULL_VID`]).
#[derive(Debug)]
pub(crate) struct DictionaryMerge {
    pub(crate) dict: OrderedDictionary,
    /// Old main vid → new vid; `None` when the delta added no value and
    /// the main's vids stand.
    pub(crate) main_to_new: Option<Vec<u32>>,
    /// Delta vid → new vid.
    pub(crate) delta_to_new: Vec<u32>,
}

/// Insertion-ordered dictionary of the delta store. Each value is held
/// once; its hash index is a table of vids probed linearly from the
/// value's [`FxHasher`] hash, at most half full, and compares the
/// values it meets. `Value`'s `Hash` and `Eq` let `Int(2)` and
/// `Double(2.0)` share an entry.
#[derive(Debug, Clone, Default)]
pub struct DeltaDictionary {
    values: Vec<Value>,
    /// Per slot, a vid (`NULL_VID` for an empty slot) and the low half
    /// of its value's hash; the length is zero or a power of two.
    slots: Vec<(u32, u32)>,
}

/// A value's hash.
fn hash(v: &Value) -> u64 {
    let mut h = FxHasher::default();
    v.hash(&mut h);
    h.finish()
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
        let h = hash(v);
        match self.find(v, h) {
            Ok(vid) => vid,
            Err(slot) => self.push(slot, h, v.clone()),
        }
    }

    /// Take `batch`'s values in, each looked up once and, when new,
    /// moved in. Returns the translation of `batch`'s vids into this
    /// dictionary's (entry 0, NULL, maps to [`NULL_VID`]).
    pub(crate) fn absorb(&mut self, batch: DeltaDictionary) -> Vec<u32> {
        let mut to_self = Vec::with_capacity(batch.len() + 1);
        to_self.push(NULL_VID);
        for v in batch.values {
            let h = hash(&v);
            let vid = match self.find(&v, h) {
                Ok(vid) => vid,
                Err(slot) => self.push(slot, h, v),
            };
            to_self.push(vid);
        }
        to_self
    }

    /// `v`'s vid, or the empty slot where it would go.
    fn find(&self, v: &Value, h: u64) -> Result<u32, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut at = h as usize & mask;
        loop {
            match self.slots[at] {
                (NULL_VID, _) => return Err(at),
                (vid, low) if low == h as u32 && self.values[vid as usize - 1] == *v => {
                    return Ok(vid)
                }
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Append the new, non-null value `v`, whose hash is `h` and whose
    /// empty slot `find` returned; returns its vid.
    fn push(&mut self, slot: usize, h: u64, v: Value) -> u32 {
        self.values.push(v);
        let vid = self.values.len() as u32;
        if 2 * self.values.len() <= self.slots.len() {
            self.slots[slot] = (vid, h as u32);
            return vid;
        }
        // Grow: every vid moves to its place in a table twice as large.
        let size = (2 * self.slots.len()).max(16);
        let old = std::mem::replace(&mut self.slots, vec![(NULL_VID, 0); size]);
        let placed = old.into_iter().filter(|&(vid, _)| vid != NULL_VID);
        for entry in placed.chain([(vid, h as u32)]) {
            let mut at = entry.1 as usize & (size - 1);
            while self.slots[at].0 != NULL_VID {
                at = (at + 1) & (size - 1);
            }
            self.slots[at] = entry;
        }
        vid
    }

    /// Value ID for `v` without inserting.
    pub fn lookup(&self, v: &Value) -> Option<u32> {
        if v.is_null() {
            return Some(NULL_VID);
        }
        self.find(v, hash(v)).ok()
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
        self.values.iter().map(Value::storage_bytes).sum::<usize>()
            + self.values.len() * std::mem::size_of::<Value>()
            + self.slots.len() * std::mem::size_of::<(u32, u32)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(vals: &[Value]) -> DeltaDictionary {
        let mut d = DeltaDictionary::new();
        for v in vals {
            d.insert_or_get(v);
        }
        d
    }

    fn dict(vals: &[i64]) -> OrderedDictionary {
        let values: Vec<Value> = vals.iter().map(|&v| Value::Int(v)).collect();
        OrderedDictionary::default().merge(&delta(&values)).dict
    }

    #[test]
    fn merge_translates_both_sides_and_keeps_the_mains_entry() {
        let main = dict(&[2, 5, 9]);
        let fresh = [Value::Int(7), Value::Double(2.0), Value::Int(1)];
        let m = main.merge(&delta(&fresh));
        let merged = [1, 2, 5, 7, 9].map(Value::Int);
        assert_eq!(&m.dict.values()[..], &merged[..]);
        assert!(
            matches!(m.dict.value(2), Value::Int(2)),
            "the main's entry stays"
        );
        assert_eq!(m.main_to_new, Some(vec![NULL_VID, 2, 3, 5]));
        assert_eq!(m.delta_to_new, vec![NULL_VID, 4, 2, 1]);
    }

    #[test]
    fn a_merge_that_adds_nothing_shares_the_mains_values() {
        let main = dict(&[2, 5, 9]);
        let m = main.merge(&delta(&[Value::Int(9), Value::Null, Value::Double(5.0)]));
        assert!(Arc::ptr_eq(m.dict.values(), main.values()));
        assert_eq!(m.main_to_new, None);
        assert_eq!(m.delta_to_new, vec![NULL_VID, 3, 2]);
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
    fn absorb_looks_each_value_up_once_and_translates_the_batch() {
        let mut d = delta(&(0..100).map(Value::Int).collect::<Vec<_>>());
        let batch = delta(&[Value::Double(2.0), Value::from("x"), Value::Int(7)]);
        assert_eq!(d.absorb(batch), vec![NULL_VID, 3, 101, 8]);
        assert_eq!(d.len(), 101);
        assert!(
            matches!(d.value(3), Value::Int(2)),
            "the delta's entry stays"
        );
        assert_eq!(d.lookup(&Value::from("x")), Some(101));
        assert_eq!(d.lookup(&Value::Double(99.0)), Some(100));
        assert_eq!(d.lookup(&Value::Int(100)), None);
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
