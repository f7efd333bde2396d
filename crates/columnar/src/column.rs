//! Column fragments: read-optimized main and write-optimized delta.

use std::sync::Arc;

use hana_types::Value;

use crate::bitmap::RowIdBitmap;
use crate::codec::VidCodec;
use crate::dictionary::{DeltaDictionary, OrderedDictionary};
use crate::predicate::ColumnPredicate;

/// Read-optimized, immutable column fragment: an ordered dictionary plus
/// a compressed value-ID vector. The dictionary is shared: a batch of
/// vids read from this fragment holds a handle to it, so the vids stay
/// decodable after the table's lock is released.
#[derive(Debug, Clone)]
pub struct MainColumn {
    dict: Arc<OrderedDictionary>,
    codec: VidCodec,
}

impl MainColumn {
    /// An empty main fragment.
    pub fn empty() -> MainColumn {
        MainColumn {
            dict: Arc::default(),
            codec: VidCodec::encode(&[]),
        }
    }

    /// Build from raw values (the delta-merge path).
    pub fn build(values: &[Value]) -> MainColumn {
        let dict = OrderedDictionary::build(values.iter());
        let vids: Vec<u32> = values
            .iter()
            .map(|v| dict.lookup(v).expect("value came from this input"))
            .collect();
        MainColumn {
            codec: VidCodec::encode(&vids),
            dict: Arc::new(dict),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codec.len()
    }

    /// Whether the fragment has no rows.
    pub fn is_empty(&self) -> bool {
        self.codec.is_empty()
    }

    /// The value at `row`.
    pub fn get(&self, row: usize) -> Value {
        self.dict.decode(self.codec.get(row))
    }

    /// The fragment's ordered dictionary (a handle to it, for readers
    /// that keep vids beyond the table's lock).
    pub fn dictionary(&self) -> &Arc<OrderedDictionary> {
        &self.dict
    }

    /// The codec in use (exposed for stats and the ablation bench).
    pub fn codec(&self) -> &VidCodec {
        &self.codec
    }

    /// Scan restricted to fragment rows `start..end`: a matching row
    /// sets the bit at `offset + (row - start)`.
    pub fn scan_range_into(
        &self,
        pred: &ColumnPredicate,
        out: &mut RowIdBitmap,
        offset: usize,
        start: usize,
        end: usize,
    ) {
        let m = pred.compile_ordered(&self.dict);
        self.codec.scan_range_into(&m, out, offset, start, end);
    }

    /// Approximate heap footprint in bytes.
    pub fn payload_bytes(&self) -> usize {
        self.dict.payload_bytes() + self.codec.payload_bytes()
    }

    /// Extract all values (used by delta merge to rebuild fragments).
    pub fn materialize(&self) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.len());
        self.codec
            .for_each(|_, vid| out.push(self.dict.decode(vid)));
        out
    }
}

/// Write-optimized column fragment: insertion-ordered dictionary plus an
/// uncompressed value-ID vector. Appends are `O(1)` amortized and never
/// reshuffle existing IDs, which is why the engine keeps a delta next to
/// each main fragment and merges periodically (§3.1).
#[derive(Debug, Clone, Default)]
pub struct DeltaColumn {
    dict: DeltaDictionary,
    vids: Vec<u32>,
}

impl DeltaColumn {
    /// An empty delta fragment.
    pub fn new() -> DeltaColumn {
        DeltaColumn::default()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.vids.len()
    }

    /// Whether the fragment has no rows.
    pub fn is_empty(&self) -> bool {
        self.vids.is_empty()
    }

    /// Append a value.
    pub fn append(&mut self, v: &Value) {
        let vid = self.dict.insert_or_get(v);
        self.vids.push(vid);
    }

    /// The value at `row`.
    pub fn get(&self, row: usize) -> Value {
        self.dict.decode(self.vids[row])
    }

    /// The fragment's dictionary.
    pub fn dictionary(&self) -> &DeltaDictionary {
        &self.dict
    }

    /// The raw (uncompressed) value-ID vector, one entry per row.
    ///
    /// Exposed so the executor's column leaf decodes each distinct
    /// value of the delta rows it reads once, not once per row.
    pub fn vids(&self) -> &[u32] {
        &self.vids
    }

    /// Scan restricted to fragment rows `start..end`: a matching row
    /// sets the bit at `offset + (row - start)`.
    pub fn scan_range_into(
        &self,
        pred: &ColumnPredicate,
        out: &mut RowIdBitmap,
        offset: usize,
        start: usize,
        end: usize,
    ) {
        let m = pred.compile_delta(&self.dict);
        let end = end.min(self.vids.len());
        if m.is_empty() || start >= end {
            return;
        }
        for (row, &vid) in self.vids[start..end].iter().enumerate() {
            if m.test(vid) {
                out.set(offset + row);
            }
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn payload_bytes(&self) -> usize {
        self.dict.payload_bytes() + self.vids.len() * 4
    }

    /// Extract all values (used by delta merge).
    pub fn materialize(&self) -> Vec<Value> {
        self.vids.iter().map(|&vid| self.dict.decode(vid)).collect()
    }

    /// Drop all rows (after a delta merge).
    pub fn clear(&mut self) {
        *self = DeltaColumn::new();
    }
}

/// Uncompressed 8-bytes-per-value baseline used for the Figure 2
/// comparison ("more than a factor of 3 compared to columnar storage"
/// refers to time-series tables vs. this plain columnar layout).
pub fn plain_columnar_bytes(values: &[Value]) -> usize {
    values.iter().map(Value::storage_bytes).sum::<usize>() + values.len()
}

/// Row-oriented baseline: per-row header plus padded values (what a
/// disk-era row store spends, Figure 2's "factor of 10").
pub fn row_layout_bytes(rows: usize, schema_width: usize) -> usize {
    // 16-byte row header + 8 bytes per attribute slot.
    rows * (16 + 8 * schema_width)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(xs: &[i64]) -> Vec<Value> {
        xs.iter().map(|&x| Value::Int(x)).collect()
    }

    #[test]
    fn main_column_round_trip() {
        let v = vals(&[5, 3, 5, 7, 3]);
        let m = MainColumn::build(&v);
        assert_eq!(m.len(), 5);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(&m.get(i), x);
        }
        assert_eq!(m.materialize(), v);
        assert_eq!(m.dictionary().len(), 3);
    }

    #[test]
    fn main_column_with_nulls() {
        let v = vec![Value::Int(1), Value::Null, Value::Int(2)];
        let m = MainColumn::build(&v);
        assert_eq!(m.get(1), Value::Null);
        let mut out = RowIdBitmap::new(3);
        m.scan_range_into(&ColumnPredicate::IsNull, &mut out, 0, 0, 3);
        assert_eq!(out.iter().collect::<Vec<_>>(), vec![1]);
        let mut out = RowIdBitmap::new(3);
        m.scan_range_into(&ColumnPredicate::IsNotNull, &mut out, 0, 0, 3);
        assert_eq!(out.iter().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn delta_column_append_and_scan() {
        let mut d = DeltaColumn::new();
        for v in vals(&[9, 2, 9, 4]) {
            d.append(&v);
        }
        d.append(&Value::Null);
        assert_eq!(d.len(), 5);
        assert_eq!(d.get(0), Value::Int(9));
        assert_eq!(d.get(4), Value::Null);
        let mut out = RowIdBitmap::new(5);
        d.scan_range_into(&ColumnPredicate::Ge(Value::Int(4)), &mut out, 0, 0, 5);
        assert_eq!(out.iter().collect::<Vec<_>>(), vec![0, 2, 3]);
    }

    #[test]
    fn main_and_delta_scans_agree() {
        let v = vals(&[1, 4, 2, 8, 5, 7, 1, 1, 3]);
        let m = MainColumn::build(&v);
        let mut d = DeltaColumn::new();
        for x in &v {
            d.append(x);
        }
        for pred in [
            ColumnPredicate::Eq(Value::Int(1)),
            ColumnPredicate::Between(Value::Int(2), Value::Int(5)),
            ColumnPredicate::Ne(Value::Int(1)),
            ColumnPredicate::InList(vals(&[4, 7])),
        ] {
            let mut a = RowIdBitmap::new(v.len());
            let mut b = RowIdBitmap::new(v.len());
            m.scan_range_into(&pred, &mut a, 0, 0, v.len());
            d.scan_range_into(&pred, &mut b, 0, 0, v.len());
            assert_eq!(a, b, "{pred:?}");
        }
    }

    #[test]
    fn dictionary_compression_shrinks_repetitive_data() {
        // 10k rows, 16 distinct strings: dictionary + bit packing must be
        // far below the naive columnar layout.
        let values: Vec<Value> = (0..10_000)
            .map(|i| Value::from(format!("region-{:02}", i % 16)))
            .collect();
        let m = MainColumn::build(&values);
        let plain = plain_columnar_bytes(&values);
        assert!(
            m.payload_bytes() * 5 < plain,
            "main {} vs plain {plain}",
            m.payload_bytes()
        );
    }
}
