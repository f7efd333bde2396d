//! Secondary indexes over column tables: ordered `(key, row id)`
//! structures for exact point seeks and range seeks on the OLTP hot
//! path, instead of full column scans.
//!
//! Mirroring the table's fragments, an index keeps a **sorted** main
//! side for the rows present at its last rebuild (rebuilt at delta
//! merge) and an ordered **delta** map that absorbs routed inserts in
//! between. The main side is two flat arrays sorted by (key, row id):
//! the keys row-major, `width` values an entry, and the row ids beside
//! them, so a binary-search probe compares one contiguous slice and a
//! seek allocates nothing but its hits. Deletes need no index
//! maintenance at all: seeks re-check MVCC visibility per hit, exactly
//! like scans do, so a deleted row simply stops matching.
//!
//! Keys are multi-column. A seek supplies an equality prefix plus an
//! optional range predicate on the next indexed column; both sides use
//! the same `Value` total order as the table's ordered dictionaries, so
//! a seek returns bit-identical results to the equivalent predicate
//! scan (property-tested in `tests/proptests.rs`).

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Bound;

use hana_types::Value;

use crate::predicate::ColumnPredicate;

/// Index metadata: the name and the indexed columns, in key order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    /// Index name (lower-cased), unique within its table.
    pub name: String,
    /// Indexed column names (lower-cased), most significant first.
    pub columns: Vec<String>,
}

/// An ordered secondary index of one column table.
#[derive(Debug, Clone)]
pub struct SecondaryIndex {
    def: IndexDef,
    /// Resolved column positions of `def.columns` in the table schema.
    cols: Vec<usize>,
    /// Keys of the rows present at the last rebuild, row-major: entry
    /// `i` is `main_keys[i * width..(i + 1) * width]`. Sorted by key,
    /// then row id.
    main_keys: Vec<Value>,
    /// Row id of each main entry, in `main_keys` order.
    main_rows: Vec<u32>,
    /// Rows inserted since the last rebuild, in key order.
    delta: BTreeMap<Vec<Value>, Vec<u32>>,
}

impl SecondaryIndex {
    /// An empty index over the given resolved columns.
    pub fn new(def: IndexDef, cols: Vec<usize>) -> SecondaryIndex {
        SecondaryIndex {
            def,
            cols,
            main_keys: Vec::new(),
            main_rows: Vec::new(),
            delta: BTreeMap::new(),
        }
    }

    /// The index definition.
    pub fn def(&self) -> &IndexDef {
        &self.def
    }

    /// Resolved positions of the indexed columns.
    pub fn columns(&self) -> &[usize] {
        &self.cols
    }

    /// Route one inserted row into the delta side.
    pub fn append(&mut self, key: Vec<Value>, row_id: usize) {
        self.delta.entry(key).or_default().push(row_id as u32);
    }

    /// Rebuild the sorted main side from the keys of *every* current
    /// row — row-major, row `r`'s key at `keys[r * width..]` — and
    /// clear the delta (delta-merge barrier). The keys are sorted
    /// through a permutation of the row ids and moved, not cloned, into
    /// place.
    pub fn rebuild(&mut self, mut keys: Vec<Value>) {
        let w = self.cols.len();
        let mut rows: Vec<u32> = (0..(keys.len() / w) as u32).collect();
        let key = |r: u32| &keys[r as usize * w..(r as usize + 1) * w];
        rows.sort_unstable_by(|&a, &b| key(a).cmp(key(b)).then(a.cmp(&b)));
        let mut sorted = Vec::with_capacity(keys.len());
        for &r in &rows {
            let r = r as usize;
            sorted.extend(
                keys[r * w..(r + 1) * w]
                    .iter_mut()
                    .map(|v| std::mem::replace(v, Value::Null)),
            );
        }
        self.main_keys = sorted;
        self.main_rows = rows;
        self.delta.clear();
    }

    /// Total indexed entries (monitoring).
    pub fn entry_count(&self) -> usize {
        self.main_rows.len() + self.delta.values().map(Vec::len).sum::<usize>()
    }

    /// The key of main entry `i`.
    fn main_key(&self, i: usize) -> &[Value] {
        let w = self.cols.len();
        &self.main_keys[i * w..(i + 1) * w]
    }

    /// Seek row ids whose key starts with the equality `prefix` and —
    /// if `range` is given — whose next key column satisfies the range
    /// predicate, in key order (main hits, then delta hits).
    /// Visibility is *not* applied here; callers intersect with their
    /// snapshot (see `ColumnTable::index_seek`).
    ///
    /// `prefix.len() + (range ? 1 : 0)` must not exceed the key width.
    pub fn seek(&self, prefix: &[Value], range: Option<&ColumnPredicate>) -> Vec<u32> {
        let k = prefix.len();
        debug_assert!(k + usize::from(range.is_some()) <= self.cols.len());
        // SQL equality never matches NULL: `Eq(Null)` scans to nothing,
        // so a NULL prefix value must not key-match stored NULL keys
        // (which *are* equal under the storage order).
        if prefix.iter().any(Value::is_null) {
            return Vec::new();
        }
        let mut out = Vec::new();

        // Sorted main side: binary-search the first key at or after the
        // seek's start, then walk forward while the prefix still
        // matches.
        let lower = lower_bound(range);
        let (mut lo, mut hi) = (0, self.main_rows.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if before_start(self.main_key(mid), prefix, lower) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        for (i, &row_id) in (lo..).zip(&self.main_rows[lo..]) {
            match key_match(self.main_key(i), prefix, range) {
                KeyMatch::Hit => out.push(row_id),
                KeyMatch::Miss => {}
                KeyMatch::Stop => break,
            }
        }

        // Ordered delta side: same walk over the BTreeMap range. Only a
        // lower range bound needs a start key of its own.
        if self.delta.is_empty() {
            return out;
        }
        let start: Vec<Value>;
        let start: &[Value] = match lower {
            None => prefix,
            Some(lo) => {
                start = prefix.iter().chain([lo]).cloned().collect();
                &start
            }
        };
        for (key, row_ids) in self
            .delta
            .range::<[Value], _>((Bound::Included(start), Bound::Unbounded))
        {
            match key_match(key, prefix, range) {
                KeyMatch::Hit => out.extend_from_slice(row_ids),
                KeyMatch::Miss => {}
                KeyMatch::Stop => break,
            }
        }
        out
    }
}

/// Outcome of testing one stored key against the seek bounds.
enum KeyMatch {
    /// Key satisfies prefix and range: take the rows.
    Hit,
    /// Inside the prefix run but the range column rejects (e.g. NULL).
    Miss,
    /// Past the prefix run (or past the upper bound): stop walking.
    Stop,
}

/// The lower range bound that narrows a seek's start past its prefix.
/// The bound value itself is included even for the exclusive `Gt`:
/// equal keys are then rejected by `key_match`, which keeps this bound
/// logic trivially conservative. NULL keys sort before every bound, so
/// a lower bound also skips them.
fn lower_bound(range: Option<&ColumnPredicate>) -> Option<&Value> {
    match range {
        Some(ColumnPredicate::Gt(lo) | ColumnPredicate::Ge(lo))
        | Some(ColumnPredicate::Between(lo, _)) => Some(lo),
        _ => None,
    }
}

/// Whether a stored key sorts before the seek's start, the key
/// `prefix` followed by `lower`.
fn before_start(key: &[Value], prefix: &[Value], lower: Option<&Value>) -> bool {
    match key[..prefix.len()].cmp(prefix) {
        Ordering::Equal => lower.is_some_and(|lo| &key[prefix.len()] < lo),
        ord => ord == Ordering::Less,
    }
}

/// Test a stored key against the equality prefix + range predicate.
fn key_match(key: &[Value], prefix: &[Value], range: Option<&ColumnPredicate>) -> KeyMatch {
    let k = prefix.len();
    match key[..k].cmp(prefix) {
        Ordering::Less => return KeyMatch::Miss,
        Ordering::Greater => return KeyMatch::Stop,
        Ordering::Equal => {}
    }
    let Some(pred) = range else {
        return KeyMatch::Hit;
    };
    let v = &key[k];
    if pred.matches(v) {
        return KeyMatch::Hit;
    }
    // Sorted keys let upper-bounded predicates terminate the walk as
    // soon as a non-NULL key exceeds the bound (NULL sorts first and is
    // just a miss).
    let past_upper = match pred {
        ColumnPredicate::Lt(hi) => !v.is_null() && v >= hi,
        ColumnPredicate::Le(hi) | ColumnPredicate::Between(_, hi) => !v.is_null() && v > hi,
        _ => false,
    };
    if past_upper {
        KeyMatch::Stop
    } else {
        KeyMatch::Miss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> SecondaryIndex {
        SecondaryIndex::new(
            IndexDef {
                name: "ix".into(),
                columns: vec!["a".into(), "b".into()],
            },
            vec![0, 1],
        )
    }

    fn key(a: i64, b: &str) -> Vec<Value> {
        vec![Value::Int(a), Value::from(b)]
    }

    #[test]
    fn seek_spans_main_and_delta() {
        let mut ix = index();
        ix.rebuild([key(2, "y"), key(1, "x"), key(2, "z")].concat());
        ix.append(key(2, "y"), 3);
        ix.append(key(3, "w"), 4);
        assert_eq!(ix.seek(&[Value::Int(2)], None), vec![0, 2, 3]);
        assert_eq!(
            ix.seek(&[Value::Int(2), Value::from("y")], None),
            vec![0, 3]
        );
        assert_eq!(ix.seek(&[Value::Int(9)], None), Vec::<u32>::new());
        assert_eq!(ix.entry_count(), 5);
    }

    #[test]
    fn range_seek_respects_bounds_and_nulls() {
        let mut ix = index();
        ix.rebuild(
            [
                vec![Value::Int(1), Value::Null],
                key(1, "a"),
                key(1, "m"),
                key(1, "z"),
                key(2, "a"),
            ]
            .concat(),
        );
        let got = ix.seek(
            &[Value::Int(1)],
            Some(&ColumnPredicate::Between(
                Value::from("a"),
                Value::from("m"),
            )),
        );
        assert_eq!(got, vec![1, 2], "NULL never matches a range");
        let got = ix.seek(&[], Some(&ColumnPredicate::Ge(Value::Int(2))));
        assert_eq!(got, vec![4], "pure range seek on the leading column");
    }
}
