//! Property-based tests for the column-store invariants.

use hana_columnar::{
    BitPackedVec, ColumnPredicate, ColumnTable, CompressedDoubles, MainColumn, MatchKind,
    RowIdBitmap, VidCodec, VidMatch, BLOCK_ROWS,
};
use hana_exec::{ExecConfig, ExecContext};
use hana_types::{DataType, Schema, Value};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// Scalar reference for [`VidCodec::scan_range_into`]: per-row `get` +
/// per-row [`VidMatch::test`], no block skipping. Row `start` lands at
/// bit `offset`.
fn scan_range_scalar(
    c: &VidCodec,
    m: &VidMatch,
    out: &mut RowIdBitmap,
    offset: usize,
    start: usize,
    end: usize,
) {
    for row in start..end.min(c.len()) {
        if m.test(c.get(row)) {
            out.set(offset + row - start);
        }
    }
}

/// One worker and one morsel for any table these tests build: the
/// serial scan every other configuration must reproduce bit for bit.
fn serial() -> &'static ExecContext {
    &grid()[0]
}

/// workers ∈ {1, 2, 4} × morsel_rows ∈ {65 536, 128, 64}, built once.
fn grid() -> &'static [Arc<ExecContext>] {
    static GRID: OnceLock<Vec<Arc<ExecContext>>> = OnceLock::new();
    GRID.get_or_init(|| {
        let mut grid = Vec::new();
        for workers in [1, 2, 4] {
            for morsel_rows in [65_536, 128, 64] {
                let cfg = ExecConfig::default()
                    .with_workers(workers)
                    .with_morsel_rows(morsel_rows);
                grid.push(ExecContext::new(cfg));
            }
        }
        grid
    })
}

proptest! {
    /// Bit packing is lossless for any width/value combination.
    #[test]
    fn bitpack_round_trip(values in prop::collection::vec(0u64..1_000_000, 0..300)) {
        let packed = BitPackedVec::from_slice(&values);
        prop_assert_eq!(packed.iter().collect::<Vec<_>>(), values);
    }

    /// Every codec decodes to exactly the value IDs it was given.
    #[test]
    fn codec_round_trip(vids in prop::collection::vec(0u32..64, 0..500)) {
        let c = VidCodec::encode(&vids);
        prop_assert_eq!(c.len(), vids.len());
        for (i, &v) in vids.iter().enumerate() {
            prop_assert_eq!(c.get(i), v);
        }
    }

    /// A codec scan equals a scalar scan of the decoded values.
    #[test]
    fn codec_scan_matches_naive(
        vids in prop::collection::vec(0u32..16, 1..400),
        lo in 0u32..16,
        span in 0u32..16,
    ) {
        let hi = lo.saturating_add(span);
        let m = hana_columnar::VidMatch::range(lo.max(1), hi);
        let c = VidCodec::encode(&vids);
        let mut out = RowIdBitmap::new(vids.len());
        c.scan_into(&m, &mut out, 0);
        let expected: Vec<usize> = vids.iter().enumerate()
            .filter(|&(_, &v)| v >= lo.max(1) && v <= hi)
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(out.iter().collect::<Vec<_>>(), expected);
    }

    /// XOR compression of doubles is lossless, including specials.
    #[test]
    fn gorilla_round_trip(values in prop::collection::vec(
        prop_oneof![
            any::<f64>().prop_filter("no NaN (NaN != NaN)", |v| !v.is_nan()),
            (-1000i64..1000).prop_map(|i| i as f64 / 4.0),
        ],
        0..200,
    )) {
        let mut c = CompressedDoubles::new();
        for &v in &values {
            c.push(v);
        }
        let out: Vec<f64> = c.iter().collect();
        prop_assert_eq!(out.len(), values.len());
        for (a, b) in out.iter().zip(&values) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Table scans return exactly the visible rows whose value matches,
    /// before and after a delta merge.
    #[test]
    fn table_scan_matches_naive(
        rows in prop::collection::vec((0i64..40, 0u8..3), 1..200),
        lo in 0i64..40,
        span in 0i64..10,
        merge in any::<bool>(),
    ) {
        let mut t = ColumnTable::new("p", Schema::of(&[("v", DataType::Int)]));
        let mut deleted = Vec::new();
        for (i, &(v, action)) in rows.iter().enumerate() {
            t.insert(&[Value::Int(v)], 1).unwrap();
            if action == 2 {
                t.delete(i, 2).unwrap();
                deleted.push(i);
            }
        }
        if merge {
            t.merge_delta();
        }
        let hi = lo + span;
        let pred = ColumnPredicate::Between(Value::Int(lo), Value::Int(hi));
        let got = t.scan_all(serial(), &[(0, pred)], 5).unwrap();
        let expected: Vec<usize> = rows.iter().enumerate()
            .filter(|&(i, &(v, _))| !deleted.contains(&i) && v >= lo && v <= hi)
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(got.iter().collect::<Vec<_>>(), expected);
    }

    /// Delta merge never changes query results or stored values.
    #[test]
    fn merge_is_transparent(values in prop::collection::vec(0i64..100, 1..300)) {
        let mut t = ColumnTable::new("p", Schema::of(&[("v", DataType::Int)]));
        for &v in &values {
            t.insert(&[Value::Int(v)], 1).unwrap();
        }
        let before: Vec<Value> = (0..values.len()).map(|r| t.value(r, 0)).collect();
        t.merge_delta();
        let after: Vec<Value> = (0..values.len()).map(|r| t.value(r, 0)).collect();
        prop_assert_eq!(before, after);
    }

    /// The one table scan returns the same bitmap — and the rows a
    /// row-at-a-time oracle selects — at every worker count and morsel
    /// size, over a merged main plus a fresh delta, rows deleted before
    /// and after the snapshot, rows created after it, and zero to two
    /// predicates. 64-row morsels cut these tables into up to seven.
    #[test]
    fn scan_all_is_identical_at_every_worker_and_morsel_count(
        rows in prop::collection::vec((0i64..20, 0i64..20, 0u8..5), 1..400),
        a_lo in 0i64..20,
        b_lo in 0i64..20,
        n_preds in 0usize..3,
        merge_at in 0usize..400,
    ) {
        const CID: u64 = 5;
        let mut t = ColumnTable::new(
            "p",
            Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]),
        );
        for (i, &(a, b, action)) in rows.iter().enumerate() {
            // 3: created after the snapshot; 2 / 4: deleted before / after it.
            let created = if action == 3 { CID + 4 } else { 1 };
            t.insert(&[Value::Int(a), Value::Int(b)], created).unwrap();
            match action {
                2 => t.delete(i, 2).unwrap(),
                4 => t.delete(i, CID + 4).unwrap(),
                _ => {}
            }
            if i == merge_at {
                t.merge_delta();
            }
        }
        let preds = [
            (0, ColumnPredicate::Between(Value::Int(a_lo), Value::Int(a_lo + 6))),
            (1, ColumnPredicate::Between(Value::Int(b_lo), Value::Int(b_lo + 6))),
        ];
        let preds = &preds[..n_preds];
        let expected: Vec<usize> = rows.iter().enumerate()
            .filter(|&(_, &(a, b, action))| {
                action != 2 && action != 3
                    && (n_preds < 1 || (a_lo..=a_lo + 6).contains(&a))
                    && (n_preds < 2 || (b_lo..=b_lo + 6).contains(&b))
            })
            .map(|(i, _)| i)
            .collect();
        let reference = t.scan_all(serial(), preds, CID).unwrap();
        prop_assert_eq!(reference.len(), rows.len());
        prop_assert_eq!(reference.iter().collect::<Vec<_>>(), expected);
        for exec in grid() {
            let got = t.scan_all(exec, preds, CID).unwrap();
            prop_assert_eq!(&got, &reference, "{:?}", exec.config());
        }
    }

    /// Bulk bit-unpacking reproduces per-element `get` for every bit
    /// width (the mask varies the packed width from 0 to 64 bits) and
    /// straddling every block boundary: lengths one short of, exactly
    /// at, and one past [`BLOCK_ROWS`].
    #[test]
    fn unpack_range_matches_get(
        seed in prop::collection::vec(any::<u64>(), 1..64),
        width in 0u32..65,
        len_sel in 0usize..4,
        start_frac in 0usize..1000,
    ) {
        let mask = if width >= 64 { u64::MAX } else { (1u64 << width) - 1 };
        let len = [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 777][len_sel];
        let values: Vec<u64> = (0..len).map(|i| seed[i % seed.len()] & mask).collect();
        let packed = BitPackedVec::from_slice(&values);
        prop_assert_eq!(packed.get_range(0, len), values.clone());
        let start = start_frac * len / 1000;
        prop_assert_eq!(&packed.get_range(start, len)[..], &values[start..]);
    }

    /// Blockwise vid decoding agrees with per-element `get` for every
    /// codec representation (the three data shapes steer `encode`
    /// toward Plain, RLE, and Sparse respectively).
    #[test]
    fn unpack_block_matches_get(
        shape in 0u8..3,
        seed in prop::collection::vec(0u32..40, 1..32),
        len_sel in 0usize..4,
    ) {
        let len = [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2300][len_sel];
        let vids: Vec<u32> = (0..len)
            .map(|i| match shape {
                0 => seed[i % seed.len()],
                1 => seed[(i / 113) % seed.len()],
                _ if i % 59 == 0 => seed[i % seed.len()],
                _ => 3,
            })
            .collect();
        let c = VidCodec::encode(&vids);
        let mut buf = [0u32; BLOCK_ROWS];
        for b in 0..len.div_ceil(BLOCK_ROWS) {
            let n = c.unpack_block(b, &mut buf);
            let base = b * BLOCK_ROWS;
            prop_assert_eq!(n, (len - base).min(BLOCK_ROWS));
            for (i, &v) in buf[..n].iter().enumerate() {
                prop_assert_eq!(v, vids[base + i]);
            }
        }
    }

    /// The vectorized skip-scan (synopsis pruning + bulk unpacking) is
    /// bit-identical to the scalar reference scan for every codec
    /// representation, every match shape (Empty / Range / Mask, with
    /// and without NULL matching), full scans, and arbitrary
    /// morsel-style subranges.
    #[test]
    fn vectorized_scan_matches_scalar(
        shape in 0u8..3,
        seed in prop::collection::vec(0u32..40, 1..32),
        len in 1usize..2600,
        match_sel in 0u8..3,
        lo in 1u32..40,
        span in 0u32..12,
        null_matches in any::<bool>(),
        mask_bits in prop::collection::vec(any::<bool>(), 40usize),
        a in 0usize..2600,
        b in 0usize..2600,
    ) {
        let vids: Vec<u32> = (0..len)
            .map(|i| match shape {
                0 => seed[i % seed.len()],
                1 => seed[(i / 113) % seed.len()],
                _ if i % 59 == 0 => seed[i % seed.len()],
                _ => 3,
            })
            .collect();
        let c = VidCodec::encode(&vids);
        let kind = match match_sel {
            0 => MatchKind::Empty,
            1 => MatchKind::Range(lo, lo + span),
            _ => MatchKind::Mask(mask_bits.clone()),
        };
        let m = VidMatch { null_matches, kind };

        let mut fast = RowIdBitmap::new(len);
        let mut slow = RowIdBitmap::new(len);
        c.scan_into(&m, &mut fast, 0);
        scan_range_scalar(&c, &m, &mut slow, 0, 0, len);
        prop_assert_eq!(&fast, &slow);

        let (s, e) = (a % (len + 1), b % (len + 1));
        let (start, end) = (s.min(e), s.max(e));
        // A range scan is the full scan cut to the range and shifted
        // so the range's first row lands at `offset`.
        let full = fast;
        let mut fast = RowIdBitmap::new(7 + end - start);
        let mut slow = RowIdBitmap::new(7 + end - start);
        c.scan_range_into(&m, &mut fast, 7, start, end);
        scan_range_scalar(&c, &m, &mut slow, 7, start, end);
        prop_assert_eq!(&fast, &slow);
        let shifted: Vec<usize> = full.iter()
            .filter(|&row| row >= start && row < end)
            .map(|row| 7 + row - start)
            .collect();
        prop_assert_eq!(fast.iter().collect::<Vec<_>>(), shifted);
    }

    /// MainColumn::build + materialize is the identity (nulls included).
    #[test]
    fn main_column_identity(values in prop::collection::vec(
        prop_oneof![
            Just(Value::Null),
            (0i64..50).prop_map(Value::Int),
            "[a-c]{0,3}".prop_map(Value::from),
        ],
        0..200,
    )) {
        let m = MainColumn::build(&values);
        prop_assert_eq!(m.materialize(), values);
    }
}

/// Seek/scan equivalence helper: compare an `index_seek` against the
/// full-scan answer for the equivalent predicate set.
fn assert_seek_matches_scan(
    t: &ColumnTable,
    prefix: &[Value],
    range: Option<&ColumnPredicate>,
    cid: u64,
) {
    let seek: Vec<usize> = t
        .index_seek("ix", prefix, range, cid)
        .unwrap()
        .iter()
        .collect();
    let mut preds: Vec<(usize, ColumnPredicate)> = prefix
        .iter()
        .enumerate()
        .map(|(i, v)| (i, ColumnPredicate::Eq(v.clone())))
        .collect();
    if let Some(p) = range {
        preds.push((prefix.len(), p.clone()));
    }
    let scan: Vec<usize> = t.scan_all(serial(), &preds, cid).unwrap().iter().collect();
    assert_eq!(seek, scan, "prefix {prefix:?} range {range:?} cid {cid}");
}

proptest! {
    /// An index seek returns exactly the rows the equivalent full scan
    /// returns — across delta-resident rows, a mid-stream merge,
    /// post-index DML (inserts and deletes), null keys, point and range
    /// probes, and every snapshot cid.
    #[test]
    fn index_seek_matches_scan(
        keys in prop::collection::vec(
            (prop_oneof![Just(-1i64), 0i64..6], 0u8..3),
            1..80,
        ),
        deletes in prop::collection::vec(0usize..1_000, 0..12),
        merge_pct in 0usize..100,
        probe_a in prop_oneof![Just(-1i64), 0i64..6],
        probe_b in 0u8..3,
        range_sel in 0usize..6,
        lo in 0i64..6,
        span in 0i64..3,
    ) {
        let schema = Schema::of(&[
            ("a", DataType::Int),
            ("b", DataType::Varchar),
            ("v", DataType::Int),
        ]);
        let mut t = ColumnTable::new("t", schema);
        // Index created up front: inserts must maintain the delta side,
        // and the mid-stream merge must rebuild the main side.
        t.create_index("ix", &["a".into(), "b".into()]).unwrap();
        let n = keys.len();
        let merge_at = n * merge_pct / 100;
        // The sentinel -1 stands in for a NULL key.
        let int_or_null = |v: i64| if v < 0 { Value::Null } else { Value::Int(v) };
        for (i, (a, b)) in keys.iter().enumerate() {
            t.insert(
                &[int_or_null(*a), Value::from(format!("g{b}")), Value::Int(i as i64)],
                (i + 1) as u64,
            )
            .unwrap();
            if i + 1 == merge_at {
                t.merge_delta();
            }
        }
        let del_cid = (n + 1) as u64;
        for d in &deletes {
            // Repeated indices double-delete; that error is irrelevant
            // here.
            let _ = t.delete(d % n, del_cid);
        }

        let pa = int_or_null(probe_a);
        let pb = Value::from(format!("g{probe_b}"));
        let glo = Value::from(format!("g{lo}"));
        let ghi = Value::from(format!("g{}", (lo + span).min(5)));
        let range: Option<ColumnPredicate> = match range_sel {
            0 => None,
            1 => Some(ColumnPredicate::Lt(ghi.clone())),
            2 => Some(ColumnPredicate::Le(ghi.clone())),
            3 => Some(ColumnPredicate::Gt(glo.clone())),
            4 => Some(ColumnPredicate::Ge(glo.clone())),
            _ => Some(ColumnPredicate::Between(glo.clone(), ghi.clone())),
        };
        // Snapshots: mid-insert, fully inserted, and post-delete.
        for cid in [(n as u64).div_ceil(2), n as u64, del_cid] {
            // Point probe on the full key.
            assert_seek_matches_scan(&t, &[pa.clone(), pb.clone()], None, cid);
            // Eq prefix plus optional range on the next key column.
            assert_seek_matches_scan(&t, std::slice::from_ref(&pa), range.as_ref(), cid);
            // Pure range on the leading key column (empty prefix).
            let arange = ColumnPredicate::Between(Value::Int(lo), Value::Int(lo + span));
            assert_seek_matches_scan(&t, &[], Some(&arange), cid);
        }
        // Post-delete merge: visibility survives the rebuild.
        t.merge_delta();
        assert_seek_matches_scan(&t, &[pa, pb], None, del_cid);
    }
}
