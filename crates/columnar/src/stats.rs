//! Persisted column statistics (synopses).
//!
//! §3.1: the cost-based optimizer needs cardinality inputs that are
//! available *at plan time* without touching the data. This module is
//! the data half of that contract: per-column row/null/distinct counts,
//! min/max and an equi-depth histogram, collected from a column table's
//! ordered dictionaries (at delta-merge time and on bulk load) and kept
//! in the catalog. The estimator side lives in `hana-query`; these types
//! stay in `hana-columnar` because they are produced here and consumed
//! by every layer above.
//!
//! Statistics are **advisory**: they steer plan choice, never
//! correctness. A stale synopsis yields a worse plan, not a wrong
//! answer.

use hana_types::Value;

use crate::predicate::ColumnPredicate;
use crate::table::ColumnTable;

/// Default number of equi-depth buckets per column synopsis.
pub const DEFAULT_STATS_BUCKETS: usize = 64;

/// One equi-depth bucket over a run of adjacent distinct values.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsBucket {
    /// Smallest value in the bucket.
    pub lo: Value,
    /// Largest value in the bucket.
    pub hi: Value,
    /// Total rows covered.
    pub rows: u64,
    /// Distinct values covered.
    pub distinct: u64,
}

/// Persisted statistics of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Column name (unqualified).
    pub column: String,
    /// Row slots covered (including nulls).
    pub row_count: u64,
    /// Rows with NULL in this column.
    pub null_count: u64,
    /// Distinct non-null values (exact at collection time; an upper
    /// bound after partition merges).
    pub distinct_count: u64,
    /// Smallest non-null value.
    pub min: Option<Value>,
    /// Largest non-null value.
    pub max: Option<Value>,
    /// Average encoded width of a value in bytes (frequency-weighted).
    pub avg_bytes: f64,
    /// Equi-depth histogram over the non-null domain, ascending by
    /// `lo`; buckets never overlap within one collection but may after
    /// a partition merge (the estimator sums across buckets).
    pub buckets: Vec<StatsBucket>,
}

/// Persisted statistics of one table (or one partition of one).
#[derive(Debug, Clone, PartialEq)]
pub struct TableStatistics {
    /// Table name.
    pub table: String,
    /// Row slots covered.
    pub row_count: u64,
    /// Per-column statistics, in schema order.
    pub columns: Vec<ColumnStats>,
}

impl ColumnStats {
    /// Build from sorted `(value, frequency)` pairs (ascending, exactly
    /// what an ordered dictionary provides) plus the null count, using
    /// at most `target_buckets` equi-depth buckets.
    pub fn from_frequencies(
        column: &str,
        sorted: &[(Value, u64)],
        null_count: u64,
        target_buckets: usize,
    ) -> ColumnStats {
        let non_null: u64 = sorted.iter().map(|(_, f)| *f).sum();
        let weighted_bytes: u64 = sorted
            .iter()
            .map(|(v, f)| v.storage_bytes() as u64 * *f)
            .sum();
        let depth = non_null.div_ceil(target_buckets.max(1) as u64).max(1);
        let mut buckets: Vec<StatsBucket> = Vec::new();
        let mut cur: Option<StatsBucket> = None;
        for (v, f) in sorted {
            let f = (*f).max(1);
            match &mut cur {
                Some(b) if b.rows < depth => {
                    b.hi = v.clone();
                    b.rows += f;
                    b.distinct += 1;
                }
                _ => {
                    if let Some(b) = cur.take() {
                        buckets.push(b);
                    }
                    cur = Some(StatsBucket {
                        lo: v.clone(),
                        hi: v.clone(),
                        rows: f,
                        distinct: 1,
                    });
                }
            }
        }
        if let Some(b) = cur {
            buckets.push(b);
        }
        ColumnStats {
            column: column.to_string(),
            row_count: non_null + null_count,
            null_count,
            distinct_count: sorted.len() as u64,
            min: sorted.first().map(|(v, _)| v.clone()),
            max: sorted.last().map(|(v, _)| v.clone()),
            avg_bytes: if non_null == 0 {
                1.0
            } else {
                weighted_bytes as f64 / non_null as f64
            },
            buckets,
        }
    }

    /// Non-null rows covered.
    pub fn non_null_rows(&self) -> u64 {
        self.row_count - self.null_count
    }

    /// Estimated rows matching `value = v`: every bucket whose range
    /// contains `v` contributes its average per-value frequency (one
    /// bucket within a single collection; possibly several after a
    /// partition merge).
    pub fn estimate_eq(&self, v: &Value) -> f64 {
        let mut rows = 0.0;
        for b in &self.buckets {
            if *v >= b.lo && *v <= b.hi {
                rows += b.rows as f64 / b.distinct.max(1) as f64;
            }
        }
        rows.min(self.non_null_rows() as f64)
    }

    /// Estimated rows in the inclusive range `[lo, hi]` (either side
    /// unbounded with `None`), interpolating numerically inside
    /// partially overlapped buckets.
    pub fn estimate_range(&self, lo: Option<&Value>, hi: Option<&Value>) -> f64 {
        let mut rows = 0.0;
        for b in &self.buckets {
            if lo.is_some_and(|l| *l > b.hi) || hi.is_some_and(|h| *h < b.lo) {
                continue;
            }
            rows += b.rows as f64 * overlap_fraction(b, lo, hi);
        }
        rows.min(self.non_null_rows() as f64)
    }

    /// Estimated rows matching a column predicate; always within
    /// `[0, row_count]`.
    pub fn estimate(&self, pred: &ColumnPredicate) -> f64 {
        let non_null = self.non_null_rows() as f64;
        let est = match pred {
            ColumnPredicate::Eq(v) => self.estimate_eq(v),
            ColumnPredicate::Ne(v) => non_null - self.estimate_eq(v),
            ColumnPredicate::Lt(v) | ColumnPredicate::Le(v) => self.estimate_range(None, Some(v)),
            ColumnPredicate::Gt(v) | ColumnPredicate::Ge(v) => self.estimate_range(Some(v), None),
            ColumnPredicate::Between(lo, hi) => self.estimate_range(Some(lo), Some(hi)),
            ColumnPredicate::InList(vs) => {
                // Dedup: `IN (1, 1, 1)` matches the same rows as
                // `IN (1)`; summing raw would triple-count.
                let mut uniq: Vec<&Value> = vs.iter().collect();
                uniq.sort();
                uniq.dedup();
                uniq.iter().map(|v| self.estimate_eq(v)).sum::<f64>()
            }
            ColumnPredicate::IsNull => self.null_count as f64,
            ColumnPredicate::IsNotNull => non_null,
            ColumnPredicate::Like(_) => 0.1 * non_null,
        };
        est.clamp(0.0, self.row_count as f64)
    }

    /// Selectivity (`0..=1`) of a predicate.
    pub fn selectivity(&self, pred: &ColumnPredicate) -> f64 {
        if self.row_count == 0 {
            return 0.0;
        }
        (self.estimate(pred) / self.row_count as f64).clamp(0.0, 1.0)
    }
}

/// Fraction of a bucket's rows assumed inside `[lo, hi]`, interpolating
/// numerically where possible.
fn overlap_fraction(b: &StatsBucket, lo: Option<&Value>, hi: Option<&Value>) -> f64 {
    let (Some(blo), Some(bhi)) = (b.lo.as_f64(), b.hi.as_f64()) else {
        // Non-numeric: containment is all we know.
        return 1.0;
    };
    if bhi == blo {
        return 1.0;
    }
    let from = lo.and_then(Value::as_f64).unwrap_or(blo).max(blo);
    let to = hi.and_then(Value::as_f64).unwrap_or(bhi).min(bhi);
    ((to - from) / (bhi - blo)).clamp(0.0, 1.0)
}

impl TableStatistics {
    /// Look up one column's statistics by (unqualified) name.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.iter().find(|c| c.column == name)
    }

    /// Distinct-count estimate for a column, if known and non-zero.
    pub fn column_distinct(&self, name: &str) -> Option<f64> {
        self.column(name)
            .map(|c| c.distinct_count as f64)
            .filter(|&d| d > 0.0)
    }

    /// Average row width in bytes over all columns.
    pub fn row_bytes(&self) -> f64 {
        self.columns
            .iter()
            .map(|c| c.avg_bytes)
            .sum::<f64>()
            .max(1.0)
    }

    /// Merge per-partition statistics into one table-level synopsis:
    /// counts add, min/max widen, buckets concatenate (re-sorted by
    /// `lo`). `distinct_count` becomes an upper bound — values shared
    /// between partitions are counted once per partition.
    pub fn merge(table: &str, parts: &[TableStatistics]) -> TableStatistics {
        let Some(first) = parts.first() else {
            return TableStatistics {
                table: table.to_string(),
                row_count: 0,
                columns: Vec::new(),
            };
        };
        let mut columns: Vec<ColumnStats> = Vec::with_capacity(first.columns.len());
        for (ci, proto) in first.columns.iter().enumerate() {
            let mut rows = 0u64;
            let mut nulls = 0u64;
            let mut distinct = 0u64;
            let mut min: Option<Value> = None;
            let mut max: Option<Value> = None;
            let mut weighted_bytes = 0.0f64;
            let mut buckets: Vec<StatsBucket> = Vec::new();
            for p in parts {
                let Some(c) = p.columns.get(ci) else { continue };
                rows += c.row_count;
                nulls += c.null_count;
                distinct += c.distinct_count;
                weighted_bytes += c.avg_bytes * c.non_null_rows() as f64;
                if let Some(v) = &c.min {
                    if min.as_ref().is_none_or(|m| v < m) {
                        min = Some(v.clone());
                    }
                }
                if let Some(v) = &c.max {
                    if max.as_ref().is_none_or(|m| v > m) {
                        max = Some(v.clone());
                    }
                }
                buckets.extend(c.buckets.iter().cloned());
            }
            buckets.sort_by(|a, b| a.lo.cmp(&b.lo));
            let non_null = rows - nulls;
            columns.push(ColumnStats {
                column: proto.column.clone(),
                row_count: rows,
                null_count: nulls,
                distinct_count: distinct,
                min,
                max,
                avg_bytes: if non_null == 0 {
                    1.0
                } else {
                    weighted_bytes / non_null as f64
                },
                buckets,
            });
        }
        TableStatistics {
            table: table.to_string(),
            row_count: parts.iter().map(|p| p.row_count).sum(),
            columns,
        }
    }
}

impl ColumnTable {
    /// Collect a full statistics synopsis of this table (every column,
    /// all row slots regardless of visibility — the same domain
    /// [`ColumnTable::row_count`], which the planner multiplies the
    /// selectivities by, counts).
    pub fn collect_statistics(&self) -> TableStatistics {
        let rows = self.row_count() as u64;
        let columns = self
            .schema()
            .columns()
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let freqs = self.value_frequencies(i);
                let non_null: u64 = freqs.iter().map(|(_, f)| *f).sum();
                ColumnStats::from_frequencies(
                    &c.name,
                    &freqs,
                    rows - non_null,
                    DEFAULT_STATS_BUCKETS,
                )
            })
            .collect();
        TableStatistics {
            table: self.name().to_string(),
            row_count: rows,
            columns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hana_types::{DataType, Schema};

    fn freqs(pairs: &[(i64, u64)]) -> Vec<(Value, u64)> {
        pairs.iter().map(|&(v, f)| (Value::Int(v), f)).collect()
    }

    #[test]
    fn equi_depth_buckets_balance_rows() {
        let data: Vec<(i64, u64)> = (0..1000).map(|i| (i, 1)).collect();
        let s = ColumnStats::from_frequencies("c", &freqs(&data), 0, 10);
        assert_eq!(s.buckets.len(), 10);
        for b in &s.buckets {
            assert_eq!(b.rows, 100);
        }
        assert_eq!(s.distinct_count, 1000);
        assert_eq!(s.min, Some(Value::Int(0)));
        assert_eq!(s.max, Some(Value::Int(999)));
    }

    #[test]
    fn estimates_bounded_and_sane() {
        let data: Vec<(i64, u64)> = (0..100).map(|i| (i, 10)).collect();
        let s = ColumnStats::from_frequencies("c", &freqs(&data), 50, 16);
        assert_eq!(s.row_count, 1050);
        assert_eq!(s.estimate(&ColumnPredicate::IsNull), 50.0);
        assert_eq!(s.estimate(&ColumnPredicate::IsNotNull), 1000.0);
        let eq = s.estimate(&ColumnPredicate::Eq(Value::Int(42)));
        assert!((eq - 10.0).abs() < 1e-9, "eq = {eq}");
        let half = s.estimate(&ColumnPredicate::Lt(Value::Int(50)));
        assert!((half - 500.0).abs() < 80.0, "half = {half}");
        assert_eq!(s.estimate(&ColumnPredicate::Eq(Value::Int(5000))), 0.0);
    }

    #[test]
    fn in_list_dedups_and_clamps() {
        let data: Vec<(i64, u64)> = (0..10).map(|i| (i, 10)).collect();
        let s = ColumnStats::from_frequencies("c", &freqs(&data), 0, 4);
        // Duplicates count once.
        let dup = s.estimate(&ColumnPredicate::InList(vec![
            Value::Int(1),
            Value::Int(1),
            Value::Int(1),
        ]));
        assert!((dup - 10.0).abs() < 1e-9, "dup = {dup}");
        // A huge list can never exceed the table.
        let all = s.estimate(&ColumnPredicate::InList((0..500).map(Value::Int).collect()));
        assert!(all <= s.row_count as f64);
    }

    #[test]
    fn collect_from_table_and_merge_partitions() {
        let mut t = ColumnTable::new(
            "t",
            Schema::of(&[("id", DataType::Int), ("tag", DataType::Varchar)]),
        );
        for i in 0..100i64 {
            t.insert(
                &[
                    Value::Int(i % 10),
                    if i % 4 == 0 {
                        Value::Null
                    } else {
                        Value::from("x")
                    },
                ],
                1,
            )
            .unwrap();
        }
        t.merge_delta();
        let s = t.collect_statistics();
        assert_eq!(s.row_count, 100);
        let id = s.column("id").unwrap();
        assert_eq!(id.distinct_count, 10);
        assert_eq!(id.null_count, 0);
        let tag = s.column("tag").unwrap();
        assert_eq!(tag.null_count, 25);
        assert_eq!(tag.distinct_count, 1);

        // Two "partitions" merge into widened, summed stats.
        let merged = TableStatistics::merge("t", &[s.clone(), s]);
        assert_eq!(merged.row_count, 200);
        let id = merged.column("id").unwrap();
        assert_eq!(id.row_count, 200);
        assert_eq!(id.min, Some(Value::Int(0)));
        assert_eq!(id.max, Some(Value::Int(9)));
        // Eq estimate sums across the per-partition buckets.
        let eq = id.estimate(&ColumnPredicate::Eq(Value::Int(3)));
        assert!((eq - 20.0).abs() < 1e-9, "eq = {eq}");
    }
}
