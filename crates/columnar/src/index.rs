//! Secondary indexes over column tables: ordered `(key, row id)`
//! structures for exact point seeks and range seeks on the OLTP hot
//! path, instead of full column scans.
//!
//! Mirroring the table's fragments, an index keeps a **sorted** array
//! for the rows present at its last rebuild (binary-searchable, rebuilt
//! at delta merge) and an ordered **delta** map that absorbs routed
//! inserts in between. Deletes need no index maintenance at all: seeks
//! re-check MVCC visibility per hit, exactly like scans do, so a
//! deleted row simply stops matching.
//!
//! Keys are multi-column. A seek supplies an equality prefix plus an
//! optional range predicate on the next indexed column; both sides use
//! the same `Value` total order as the table's ordered dictionaries, so
//! a seek returns bit-identical results to the equivalent predicate
//! scan (property-tested in `tests/proptests.rs`).

use std::collections::BTreeMap;

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
    /// `(key, row id)` sorted by key then row id — the rows present at
    /// the last rebuild.
    main: Vec<(Vec<Value>, usize)>,
    /// Rows inserted since the last rebuild, in key order.
    delta: BTreeMap<Vec<Value>, Vec<usize>>,
}

impl SecondaryIndex {
    /// An empty index over the given resolved columns.
    pub fn new(def: IndexDef, cols: Vec<usize>) -> SecondaryIndex {
        SecondaryIndex {
            def,
            cols,
            main: Vec::new(),
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

    /// Extract this index's key from a full table row.
    pub fn key_of(&self, row: &[Value]) -> Vec<Value> {
        self.cols.iter().map(|&c| row[c].clone()).collect()
    }

    /// Route one inserted row into the delta side.
    pub fn append(&mut self, key: Vec<Value>, row_id: usize) {
        self.delta.entry(key).or_default().push(row_id);
    }

    /// Rebuild the sorted main side from `(key, row id)` pairs covering
    /// *every* current row, and clear the delta (delta-merge barrier).
    pub fn rebuild(&mut self, mut entries: Vec<(Vec<Value>, usize)>) {
        entries.sort_unstable();
        self.main = entries;
        self.delta.clear();
    }

    /// Total indexed entries (monitoring).
    pub fn entry_count(&self) -> usize {
        self.main.len() + self.delta.values().map(Vec::len).sum::<usize>()
    }

    /// Seek row ids whose key starts with the equality `prefix` and —
    /// if `range` is given — whose next key column satisfies the range
    /// predicate. Visibility is *not* applied here; callers intersect
    /// with their snapshot (see `ColumnTable::index_seek`).
    ///
    /// `prefix.len() + (range ? 1 : 0)` must not exceed the key width.
    pub fn seek(&self, prefix: &[Value], range: Option<&ColumnPredicate>) -> Vec<usize> {
        let k = prefix.len();
        debug_assert!(k + usize::from(range.is_some()) <= self.cols.len());
        // SQL equality never matches NULL: `Eq(Null)` scans to nothing,
        // so a NULL prefix value must not key-match stored NULL keys
        // (which *are* equal under the storage order).
        if prefix.iter().any(Value::is_null) {
            return Vec::new();
        }
        let mut out = Vec::new();

        // Sorted main side: binary-search the first key >= the prefix
        // (optionally tightened by the range's lower bound — NULL keys
        // sort before every bound, so a lower bound also skips them),
        // then walk forward while the prefix still matches.
        let start_key = seek_start(prefix, range);
        let start = self.main.partition_point(|(key, _)| key < &start_key);
        for (key, row_id) in &self.main[start..] {
            match key_match(key, prefix, range) {
                KeyMatch::Hit => out.push(*row_id),
                KeyMatch::Miss => {}
                KeyMatch::Stop => break,
            }
        }

        // Ordered delta side: same walk over the BTreeMap range.
        for (key, row_ids) in self.delta.range(start_key..) {
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

/// The smallest key vector at or after which hits can start.
fn seek_start(prefix: &[Value], range: Option<&ColumnPredicate>) -> Vec<Value> {
    let mut start: Vec<Value> = prefix.to_vec();
    // A lower range bound narrows the start position further. The bound
    // value itself is included even for the exclusive `Gt`: equal keys
    // are then rejected by `key_match`, which keeps this bound logic
    // trivially conservative.
    match range {
        Some(ColumnPredicate::Gt(lo) | ColumnPredicate::Ge(lo))
        | Some(ColumnPredicate::Between(lo, _)) => start.push(lo.clone()),
        _ => {}
    }
    start
}

/// Test a stored key against the equality prefix + range predicate.
fn key_match(key: &[Value], prefix: &[Value], range: Option<&ColumnPredicate>) -> KeyMatch {
    let k = prefix.len();
    match key[..k].cmp(prefix) {
        std::cmp::Ordering::Less => return KeyMatch::Miss,
        std::cmp::Ordering::Greater => return KeyMatch::Stop,
        std::cmp::Ordering::Equal => {}
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
        ix.rebuild(vec![(key(1, "x"), 0), (key(2, "y"), 1), (key(2, "z"), 2)]);
        ix.append(key(2, "y"), 3);
        ix.append(key(3, "w"), 4);
        assert_eq!(ix.seek(&[Value::Int(2)], None), vec![1, 2, 3]);
        assert_eq!(
            ix.seek(&[Value::Int(2), Value::from("y")], None),
            vec![1, 3]
        );
        assert_eq!(ix.seek(&[Value::Int(9)], None), Vec::<usize>::new());
        assert_eq!(ix.entry_count(), 5);
    }

    #[test]
    fn range_seek_respects_bounds_and_nulls() {
        let mut ix = index();
        ix.rebuild(vec![
            (vec![Value::Int(1), Value::Null], 0),
            (key(1, "a"), 1),
            (key(1, "m"), 2),
            (key(1, "z"), 3),
            (key(2, "a"), 4),
        ]);
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
