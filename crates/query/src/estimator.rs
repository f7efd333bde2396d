//! Cardinality estimation from the catalog and its synopses.
//!
//! One rule prices every local scan: the table's live row count (an
//! O(1) read) times one selectivity per pushed-down predicate — taken
//! from the column's persisted synopsis when one covers it, and the
//! predicate's default selectivity when none does, the same rule remote
//! and function bindings use. Planning never reads table data.

use hana_columnar::{ColumnPredicate, TableStatistics};

/// Selectivity (`0..=1`) of one pushed-down predicate on a (possibly
/// binding-qualified) column.
pub(crate) fn selectivity(
    stats: Option<&TableStatistics>,
    col: &str,
    pred: &ColumnPredicate,
) -> f64 {
    let bare = col.rsplit('.').next().unwrap_or(col);
    match stats.and_then(|s| s.column(bare)) {
        Some(c) => c.selectivity(pred),
        None => pred.default_selectivity(),
    }
}

/// Estimated output rows of a scan over `live_rows` rows with the given
/// pushed-down predicates.
pub(crate) fn scan_estimate(
    live_rows: f64,
    stats: Option<&TableStatistics>,
    preds: &[(String, ColumnPredicate)],
) -> f64 {
    let est = preds.iter().fold(live_rows, |est, (col, pred)| {
        est * selectivity(stats, col, pred)
    });
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
