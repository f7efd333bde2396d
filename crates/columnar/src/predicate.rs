//! Column-level predicates and their dictionary-space compilation.
//!
//! Scans never compare row values directly: a predicate is first compiled
//! against the column's dictionary into a [`VidMatch`] — a verdict per
//! *distinct value* — and the (much longer) value-ID vector is then
//! filtered with cheap integer tests. This is the standard trick of
//! dictionary-encoded column stores and what makes scan cost proportional
//! to data width, not value width.

use hana_types::Value;

use crate::bitmap::RowIdBitmap;
use crate::dictionary::{DeltaDictionary, OrderedDictionary, NULL_VID};

/// A predicate over a single column. Its operands are values wherever
/// a predicate is evaluated; a cached plan holds the same shapes over
/// operands that may be slots, and [`ColumnPredicate::try_map`]s them to
/// values per run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnPredicate<V = Value> {
    /// `col = v`
    Eq(V),
    /// `col <> v`
    Ne(V),
    /// `col < v`
    Lt(V),
    /// `col <= v`
    Le(V),
    /// `col > v`
    Gt(V),
    /// `col >= v`
    Ge(V),
    /// `col BETWEEN lo AND hi` (inclusive)
    Between(V, V),
    /// `col IN (…)`
    InList(Vec<V>),
    /// `col LIKE pattern`
    Like(String),
    /// `col IS NULL`
    IsNull,
    /// `col IS NOT NULL`
    IsNotNull,
}

impl<V> ColumnPredicate<V> {
    /// The same predicate with every operand mapped through `f`.
    pub fn try_map<U, E>(
        &self,
        mut f: impl FnMut(&V) -> Result<U, E>,
    ) -> Result<ColumnPredicate<U>, E> {
        Ok(match self {
            ColumnPredicate::Eq(v) => ColumnPredicate::Eq(f(v)?),
            ColumnPredicate::Ne(v) => ColumnPredicate::Ne(f(v)?),
            ColumnPredicate::Lt(v) => ColumnPredicate::Lt(f(v)?),
            ColumnPredicate::Le(v) => ColumnPredicate::Le(f(v)?),
            ColumnPredicate::Gt(v) => ColumnPredicate::Gt(f(v)?),
            ColumnPredicate::Ge(v) => ColumnPredicate::Ge(f(v)?),
            ColumnPredicate::Between(lo, hi) => ColumnPredicate::Between(f(lo)?, f(hi)?),
            ColumnPredicate::InList(list) => {
                ColumnPredicate::InList(list.iter().map(f).collect::<Result<_, E>>()?)
            }
            ColumnPredicate::Like(p) => ColumnPredicate::Like(p.clone()),
            ColumnPredicate::IsNull => ColumnPredicate::IsNull,
            ColumnPredicate::IsNotNull => ColumnPredicate::IsNotNull,
        })
    }
}

impl ColumnPredicate {
    /// Evaluate against a concrete value with SQL semantics (comparisons
    /// with NULL are not true).
    pub fn matches(&self, v: &Value) -> bool {
        use std::cmp::Ordering::*;
        match self {
            ColumnPredicate::IsNull => v.is_null(),
            ColumnPredicate::IsNotNull => !v.is_null(),
            ColumnPredicate::Eq(x) => v.sql_cmp(x) == Some(Equal),
            ColumnPredicate::Ne(x) => matches!(v.sql_cmp(x), Some(Less | Greater)),
            ColumnPredicate::Lt(x) => v.sql_cmp(x) == Some(Less),
            ColumnPredicate::Le(x) => matches!(v.sql_cmp(x), Some(Less | Equal)),
            ColumnPredicate::Gt(x) => v.sql_cmp(x) == Some(Greater),
            ColumnPredicate::Ge(x) => matches!(v.sql_cmp(x), Some(Greater | Equal)),
            ColumnPredicate::Between(lo, hi) => {
                matches!(v.sql_cmp(lo), Some(Greater | Equal))
                    && matches!(v.sql_cmp(hi), Some(Less | Equal))
            }
            ColumnPredicate::InList(list) => {
                !v.is_null() && list.iter().any(|x| v.sql_cmp(x) == Some(Equal))
            }
            ColumnPredicate::Like(p) => v.sql_like(p).unwrap_or(false),
        }
    }

    /// Compile against the **ordered** dictionary of a main fragment,
    /// using binary search for point/range shapes.
    pub fn compile_ordered(&self, dict: &OrderedDictionary) -> VidMatch {
        match self {
            ColumnPredicate::IsNull => VidMatch {
                null_matches: true,
                kind: MatchKind::Empty,
            },
            ColumnPredicate::IsNotNull => VidMatch::range(1, dict.len() as u32),
            ColumnPredicate::Eq(v) => match dict.lookup(v) {
                Some(vid) if vid != NULL_VID => VidMatch::range(vid, vid),
                _ => VidMatch::empty(),
            },
            ColumnPredicate::Lt(v) => Self::from_bounds(dict, None, Some((v, false))),
            ColumnPredicate::Le(v) => Self::from_bounds(dict, None, Some((v, true))),
            ColumnPredicate::Gt(v) => Self::from_bounds(dict, Some((v, false)), None),
            ColumnPredicate::Ge(v) => Self::from_bounds(dict, Some((v, true)), None),
            ColumnPredicate::Between(lo, hi) => {
                Self::from_bounds(dict, Some((lo, true)), Some((hi, true)))
            }
            ColumnPredicate::InList(list) => VidMatch::of_vids(list.iter().map(|v| dict.lookup(v))),
            // General shapes fall back to a per-distinct-value mask.
            _ => self.mask_over(dict.values()),
        }
    }

    /// Compile against the unsorted dictionary of a delta fragment.
    pub fn compile_delta(&self, dict: &DeltaDictionary) -> VidMatch {
        match self {
            ColumnPredicate::IsNull => VidMatch {
                null_matches: true,
                kind: MatchKind::Empty,
            },
            ColumnPredicate::Eq(v) => match dict.lookup(v) {
                Some(vid) if vid != NULL_VID => VidMatch::range(vid, vid),
                _ => VidMatch::empty(),
            },
            ColumnPredicate::InList(list) => VidMatch::of_vids(list.iter().map(|v| dict.lookup(v))),
            _ => self.mask_over(dict.values()),
        }
    }

    fn from_bounds(
        dict: &OrderedDictionary,
        lo: Option<(&Value, bool)>,
        hi: Option<(&Value, bool)>,
    ) -> VidMatch {
        match dict.vid_range(lo, hi) {
            Some((a, b)) => VidMatch::range(a, b),
            None => VidMatch::empty(),
        }
    }

    fn mask_over(&self, values: &[Value]) -> VidMatch {
        let mask: Vec<bool> = values.iter().map(|v| self.matches(v)).collect();
        VidMatch {
            null_matches: false,
            kind: MatchKind::Mask(mask),
        }
    }

    /// Estimated selectivity used before real histograms exist.
    pub fn default_selectivity(&self) -> f64 {
        match self {
            ColumnPredicate::Eq(_) => 0.05,
            ColumnPredicate::Ne(_) | ColumnPredicate::IsNotNull => 0.95,
            ColumnPredicate::IsNull => 0.02,
            ColumnPredicate::Like(_) => 0.1,
            ColumnPredicate::InList(l) => (0.05 * l.len() as f64).min(1.0),
            ColumnPredicate::Between(_, _) => 0.25,
            _ => 0.3,
        }
    }
}

/// The verdict of a predicate per value ID.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VidMatch {
    /// Whether `NULL_VID` matches (only for `IS NULL`).
    pub null_matches: bool,
    /// Verdict for the non-null value IDs.
    pub kind: MatchKind,
}

/// How non-null value IDs match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchKind {
    /// No non-null value matches.
    Empty,
    /// Value IDs in `[lo, hi]` (inclusive, 1-based) match.
    Range(u32, u32),
    /// `mask[vid - 1]` says whether `vid` matches.
    Mask(Vec<bool>),
}

/// A [`VidMatch`] as a scan applies it to a fragment's vids: a verdict
/// per vid computed without a branch, so 64 verdicts make one bitmap
/// word (`VidMatch::test`'s NULL branch and bounds check leave the loop).
pub(crate) enum WordTest {
    /// A vid in `lo ..= lo + span` (`lo >= 1`, so NULL's vid 0 is not);
    /// NULL too when `null`.
    Range { lo: u32, span: u32, null: bool },
    /// The verdict of every vid, NULL's first; a vid past the end reads
    /// the last entry, which is `false`.
    Table(Vec<bool>),
}

impl WordTest {
    /// OR into `out`, from bit `pos` on, the rows of `vids` that match.
    #[inline]
    pub(crate) fn scan(&self, vids: &[u32], out: &mut RowIdBitmap, pos: usize) {
        match *self {
            WordTest::Range {
                lo,
                span,
                null: false,
            } => out.or_hits(pos, vids, |v| v.wrapping_sub(lo) <= span),
            WordTest::Range {
                lo,
                span,
                null: true,
            } => out.or_hits(pos, vids, |v| (v.wrapping_sub(lo) <= span) | (v == 0)),
            WordTest::Table(ref verdicts) => {
                let last = verdicts.len() - 1;
                out.or_hits(pos, vids, |v| verdicts[(v as usize).min(last)])
            }
        }
    }
}

impl VidMatch {
    /// No value matches at all.
    pub fn empty() -> VidMatch {
        VidMatch {
            null_matches: false,
            kind: MatchKind::Empty,
        }
    }

    /// Value IDs in `[lo, hi]` match; empty ranges collapse to `Empty`.
    pub fn range(lo: u32, hi: u32) -> VidMatch {
        VidMatch {
            null_matches: false,
            kind: if lo > hi || hi == 0 {
                MatchKind::Empty
            } else {
                MatchKind::Range(lo, hi)
            },
        }
    }

    /// Exactly the value IDs found by `lookups` (an `IN` list's entries
    /// looked up one by one): a range when they are adjacent, else a
    /// mask up to the largest. NULL and absent entries match nothing.
    fn of_vids(lookups: impl Iterator<Item = Option<u32>>) -> VidMatch {
        let mut vids: Vec<u32> = lookups.flatten().filter(|&v| v != NULL_VID).collect();
        vids.sort_unstable();
        vids.dedup();
        match (vids.first(), vids.last()) {
            (Some(&lo), Some(&hi)) if (hi - lo) as usize + 1 == vids.len() => {
                VidMatch::range(lo, hi)
            }
            (Some(_), Some(&hi)) => {
                let mut mask = vec![false; hi as usize];
                for vid in vids {
                    mask[vid as usize - 1] = true;
                }
                VidMatch {
                    null_matches: false,
                    kind: MatchKind::Mask(mask),
                }
            }
            _ => VidMatch::empty(),
        }
    }

    /// Test a value ID.
    #[inline]
    pub fn test(&self, vid: u32) -> bool {
        if vid == NULL_VID {
            return self.null_matches;
        }
        match &self.kind {
            MatchKind::Empty => false,
            MatchKind::Range(lo, hi) => (*lo..=*hi).contains(&vid),
            MatchKind::Mask(m) => m.get(vid as usize - 1).copied().unwrap_or(false),
        }
    }

    /// The verdict compiled for one fragment scan, NULL's included.
    pub(crate) fn word_test(&self) -> WordTest {
        let null = self.null_matches;
        match &self.kind {
            MatchKind::Range(lo, hi) if (*lo).max(1) <= *hi => WordTest::Range {
                lo: (*lo).max(1),
                span: *hi - (*lo).max(1),
                null,
            },
            // Only NULL can match.
            MatchKind::Empty | MatchKind::Range(..) => WordTest::Table(vec![null, false]),
            MatchKind::Mask(m) => {
                let verdicts = std::iter::once(null).chain(m.iter().copied());
                WordTest::Table(verdicts.chain([false]).collect())
            }
        }
    }

    /// Whether nothing can match (lets scans skip fragments entirely).
    pub fn is_empty(&self) -> bool {
        !self.null_matches && matches!(self.kind, MatchKind::Empty)
    }

    /// Whether any row of a block summarized by `[min_vid, max_vid]`
    /// (non-null value IDs only; `min_vid > max_vid` means the block is
    /// all-null) plus a null-presence flag *could* match.
    ///
    /// This is the skip-scan test against a block synopsis: a `false`
    /// verdict proves the block contributes no hits, so the scan never
    /// unpacks it. Conservative in the other direction — `true` only
    /// promises the block must be scanned.
    #[inline]
    pub fn may_match_block(&self, min_vid: u32, max_vid: u32, has_null: bool) -> bool {
        if has_null && self.null_matches {
            return true;
        }
        if min_vid > max_vid {
            // Only nulls (or nothing) in the block.
            return false;
        }
        match &self.kind {
            MatchKind::Empty => false,
            MatchKind::Range(lo, hi) => *lo <= max_vid && min_vid <= *hi,
            MatchKind::Mask(m) => {
                let lo = (min_vid.max(1) - 1) as usize;
                let hi = (max_vid as usize).min(m.len());
                lo < hi && m[lo..hi].iter().any(|&b| b)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ordered(values: &[Value]) -> OrderedDictionary {
        crate::MainColumn::build(values).dictionary().clone()
    }

    fn dict() -> OrderedDictionary {
        let vals: Vec<Value> = [10i64, 20, 30, 40].iter().map(|&v| Value::Int(v)).collect();
        ordered(&vals)
    }

    #[test]
    fn matches_scalar_semantics() {
        let p = ColumnPredicate::Between(Value::Int(2), Value::Int(4));
        assert!(p.matches(&Value::Int(3)));
        assert!(p.matches(&Value::Int(2)));
        assert!(!p.matches(&Value::Int(5)));
        assert!(!p.matches(&Value::Null));
        assert!(!ColumnPredicate::Ne(Value::Int(1)).matches(&Value::Null));
        assert!(ColumnPredicate::IsNull.matches(&Value::Null));
    }

    #[test]
    fn compile_eq_to_single_vid() {
        let m = ColumnPredicate::Eq(Value::Int(30)).compile_ordered(&dict());
        assert!(m.test(3));
        assert!(!m.test(2) && !m.test(4) && !m.test(NULL_VID));
        let gone = ColumnPredicate::Eq(Value::Int(99)).compile_ordered(&dict());
        assert!(gone.is_empty());
    }

    #[test]
    fn compile_range_predicates() {
        let d = dict();
        let m = ColumnPredicate::Gt(Value::Int(20)).compile_ordered(&d);
        assert!(!m.test(2) && m.test(3) && m.test(4));
        let m = ColumnPredicate::Le(Value::Int(20)).compile_ordered(&d);
        assert!(m.test(1) && m.test(2) && !m.test(3));
        let m = ColumnPredicate::Between(Value::Int(15), Value::Int(35)).compile_ordered(&d);
        assert!(!m.test(1) && m.test(2) && m.test(3) && !m.test(4));
    }

    #[test]
    fn compile_in_and_like_to_mask() {
        let d = ordered(&[Value::from("AIR"), Value::from("MAIL"), Value::from("SHIP")]);
        let m = ColumnPredicate::InList(vec![Value::from("AIR"), Value::from("SHIP")])
            .compile_ordered(&d);
        assert!(m.test(1) && !m.test(2) && m.test(3));
        let m = ColumnPredicate::Like("%AI%".into()).compile_ordered(&d);
        assert!(m.test(1) && m.test(2) && !m.test(3));
    }

    #[test]
    fn in_lists_compile_by_lookup_to_the_scalar_verdicts() {
        let values: Vec<Value> = [10i64, 20, 30, 40].iter().map(|&v| Value::Int(v)).collect();
        let ordered = ordered(&values);
        let mut delta = DeltaDictionary::new();
        for v in values.iter().rev() {
            delta.insert_or_get(v);
        }
        for list in [
            vec![Value::Int(20), Value::Int(30)],
            vec![Value::Int(40), Value::Int(10), Value::Int(10)],
            vec![Value::Double(20.0), Value::Null, Value::Int(99)],
            vec![Value::Null],
            vec![],
        ] {
            let pred = ColumnPredicate::InList(list);
            let on_ordered = pred.compile_ordered(&ordered);
            let on_delta = pred.compile_delta(&delta);
            assert!(!on_ordered.test(NULL_VID) && !on_delta.test(NULL_VID));
            for v in &values {
                let want = pred.matches(v);
                assert_eq!(
                    on_ordered.test(ordered.lookup(v).unwrap()),
                    want,
                    "{pred:?} {v:?}"
                );
                assert_eq!(
                    on_delta.test(delta.lookup(v).unwrap()),
                    want,
                    "{pred:?} {v:?}"
                );
            }
        }
    }

    #[test]
    fn null_handling_in_vid_space() {
        let m = ColumnPredicate::IsNull.compile_ordered(&dict());
        assert!(m.test(NULL_VID));
        assert!(!m.test(1));
        assert!(!m.is_empty());
        let m = ColumnPredicate::IsNotNull.compile_ordered(&dict());
        assert!(!m.test(NULL_VID));
        assert!(m.test(1) && m.test(4));
    }

    #[test]
    fn may_match_block_prunes_correctly() {
        let range = VidMatch::range(10, 20);
        assert!(range.may_match_block(5, 12, false));
        assert!(range.may_match_block(20, 99, false));
        assert!(!range.may_match_block(1, 9, false));
        assert!(!range.may_match_block(21, 99, false));
        // All-null block never matches a pure range…
        assert!(!range.may_match_block(u32::MAX, 0, true));
        // …but matches IS NULL.
        let isnull = ColumnPredicate::IsNull.compile_ordered(&dict());
        assert!(isnull.may_match_block(u32::MAX, 0, true));
        assert!(!isnull.may_match_block(1, 4, false));

        let mask = VidMatch {
            null_matches: false,
            kind: MatchKind::Mask(vec![false, true, false]),
        };
        assert!(mask.may_match_block(1, 2, false));
        assert!(!mask.may_match_block(3, 3, false));
        assert!(!mask.may_match_block(4, 9, false));
        assert!(!VidMatch::empty().may_match_block(1, 100, true));
    }

    #[test]
    fn delta_compilation() {
        let mut d = DeltaDictionary::new();
        for v in ["b", "a", "c"] {
            d.insert_or_get(&Value::from(v));
        }
        let m = ColumnPredicate::Eq(Value::from("a")).compile_delta(&d);
        assert!(!m.test(1) && m.test(2) && !m.test(3));
        let m = ColumnPredicate::Ge(Value::from("b")).compile_delta(&d);
        assert!(m.test(1) && !m.test(2) && m.test(3));
    }
}
