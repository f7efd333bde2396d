//! Cardinality estimation from the catalog and its synopses.
//!
//! One rule prices every local scan: the table's live row count (an
//! O(1) read) times one selectivity per pushed-down predicate — taken
//! from the column's persisted synopsis when one covers it, and the
//! predicate's default selectivity when none does, the same rule remote
//! and function bindings use. The bounds a synopsis-covered column is
//! held to (`>= a AND < b`, a `BETWEEN`) are one range, priced once: two
//! bounds on one column are not independent. Planning never reads table
//! data.

use hana_columnar::{ColumnPredicate, ColumnStats, TableStatistics};
use hana_types::Value;

/// The synopsis of a (possibly binding-qualified) column, if one covers it.
fn column_stats<'s>(stats: Option<&'s TableStatistics>, col: &str) -> Option<&'s ColumnStats> {
    let bare = col.rsplit('.').next().unwrap_or(col);
    stats.and_then(|s| s.column(bare))
}

/// Selectivity (`0..=1`) of one pushed-down predicate on a (possibly
/// binding-qualified) column.
pub(crate) fn selectivity(
    stats: Option<&TableStatistics>,
    col: &str,
    pred: &ColumnPredicate,
) -> f64 {
    match column_stats(stats, col) {
        Some(c) => c.selectivity(pred),
        None => pred.default_selectivity(),
    }
}

/// The lower and upper bound a range predicate holds its column to
/// (inclusive or not, as the synopsis prices them alike).
fn bounds(pred: &ColumnPredicate) -> Option<(Option<&Value>, Option<&Value>)> {
    match pred {
        ColumnPredicate::Gt(v) | ColumnPredicate::Ge(v) => Some((Some(v), None)),
        ColumnPredicate::Lt(v) | ColumnPredicate::Le(v) => Some((None, Some(v))),
        ColumnPredicate::Between(lo, hi) => Some((Some(lo), Some(hi))),
        _ => None,
    }
}

/// Estimated output rows of a scan over `live_rows` rows with the given
/// pushed-down predicates: each synopsis-covered column's bounds
/// narrowed to one range (the greatest lower and least upper bound),
/// every other predicate on its own.
pub(crate) fn scan_estimate(
    live_rows: f64,
    stats: Option<&TableStatistics>,
    preds: &[(String, ColumnPredicate)],
) -> f64 {
    let mut est = live_rows;
    let mut ranges: Vec<(&ColumnStats, Option<&Value>, Option<&Value>)> = Vec::new();
    for (col, pred) in preds {
        let Some(c) = column_stats(stats, col) else {
            est *= pred.default_selectivity();
            continue;
        };
        let Some((lo, hi)) = bounds(pred) else {
            est *= c.selectivity(pred);
            continue;
        };
        match ranges.iter_mut().find(|(r, ..)| std::ptr::eq(*r, c)) {
            Some((_, l, h)) => {
                *l = (*l).max(lo);
                *h = match (*h, hi) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
            }
            None => ranges.push((c, lo, hi)),
        }
    }
    for (c, lo, hi) in ranges {
        est *= match c.row_count {
            0 => 0.0,
            n => c.estimate_range(lo, hi) / n as f64,
        };
    }
    est.max(if preds.is_empty() { 1.0 } else { 0.0 })
}

/// Distinct-count of a (possibly binding-qualified) key column, if the
/// synopsis knows it.
pub(crate) fn key_ndv(stats: &TableStatistics, key: &str) -> Option<f64> {
    let bare = key.rsplit('.').next().unwrap_or(key);
    stats.column_distinct(bare)
}

/// Estimated equi-join output: `|L| * |R| / max(ndv_l, ndv_r)`, the
/// textbook containment assumption; falls back to `min(|L|, |R|)` when
/// neither side's key distinct-count is known.
pub(crate) fn join_out(
    left_rows: f64,
    right_rows: f64,
    left_ndv: Option<f64>,
    right_ndv: Option<f64>,
) -> f64 {
    let ndv = left_ndv.unwrap_or(0.0).max(right_ndv.unwrap_or(0.0));
    if ndv > 0.0 {
        (left_rows * right_rows / ndv).max(1.0)
    } else {
        left_rows.min(right_rows).max(1.0)
    }
}
