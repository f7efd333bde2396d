//! Property-based tests for the column-store invariants.

use hana_columnar::{
    BitPackedVec, ColumnPredicate, ColumnTable, CompressedDoubles, InsertBatch, MainColumn,
    MatchKind, RowIdBitmap, VidCodec, VidMatch, BLOCK_ROWS,
};
use hana_exec::{ExecConfig, ExecContext};
use hana_types::{ColumnDef, DataType, Date, Schema, Value};
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

/// A row of a `(n DOUBLE, s VARCHAR, d DATE)` table: NULLs, integral
/// and fractional doubles next to the equal `Int`s, both zeros, short
/// strings and dates.
fn mixed_row() -> impl Strategy<Value = Vec<Value>> {
    (
        prop_oneof![
            Just(Value::Null),
            (-3i64..12).prop_map(Value::Int),
            (-6i64..24).prop_map(|h| Value::Double(h as f64 / 2.0)),
            Just(Value::Double(-0.0)),
            Just(Value::Double(0.0)),
        ],
        prop_oneof![Just(Value::Null), "[a-d]{0,2}".prop_map(Value::from)],
        prop_oneof![
            Just(Value::Null),
            (0i32..30).prop_map(|d| Value::Date(Date(d))),
        ],
    )
        .prop_map(|(n, s, d)| vec![n, s, d])
}

/// The merge as first written, kept as the oracle: every row's value
/// materialised, sorted and deduplicated into the dictionary, and each
/// row's vid found by binary search.
fn merge_oracle(values: &[Value]) -> (Vec<Value>, Vec<u32>) {
    let mut dict: Vec<Value> = values.iter().filter(|v| !v.is_null()).cloned().collect();
    dict.sort_unstable();
    dict.dedup();
    let vids = values
        .iter()
        .map(|v| match v {
            Value::Null => 0,
            v => dict.binary_search(v).unwrap() as u32 + 1,
        })
        .collect();
    (dict, vids)
}

/// Merge `t`'s delta and check every column against [`merge_oracle`]
/// over the values read before the merge; per column, whether the
/// merged dictionary still shares the main's values.
fn check_merge(t: &mut ColumnTable) -> Vec<bool> {
    let cols = t.schema().len();
    let before: Vec<Vec<Value>> = (0..cols)
        .map(|c| (0..t.row_count()).map(|r| t.value(r, c)).collect())
        .collect();
    let dicts: Vec<_> = (0..cols)
        .map(|c| Arc::clone(t.main_column(c).dictionary().values()))
        .collect();
    t.merge_delta();
    assert_eq!(t.delta_rows(), 0);
    let mut shared = Vec::with_capacity(cols);
    for (c, values) in before.iter().enumerate() {
        let main = t.main_column(c);
        let (dict, vids) = merge_oracle(values);
        assert_eq!(&main.dictionary().values()[..], &dict[..]);
        let mut got = vec![0; main.len()];
        main.codec().unpack_rows(0, &mut got);
        assert_eq!(&got, &vids);
        let codec = VidCodec::encode(&vids);
        assert_eq!(main.codec().name(), codec.name());
        assert_eq!(main.codec().payload_bytes(), codec.payload_bytes());
        let after: Vec<Value> = (0..values.len()).map(|r| t.value(r, c)).collect();
        assert_eq!(&after, values);
        shared.push(Arc::ptr_eq(main.dictionary().values(), &dicts[c]));
    }
    shared
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

    /// A delta merge builds each column exactly as the sort-everything
    /// oracle does from the materialised values — the same dictionary,
    /// vids and codec — and changes no stored value. The main is itself
    /// merged first (or empty); the delta brings NULLs, `Int`/`Double`
    /// twins and `-0.0`, strings and dates, values new to the main and
    /// values only in it, or is all NULL, or repeats main rows only
    /// (no new value: the dictionary stays shared), or widens the bit
    /// width. Deleted rows are merged like live ones.
    #[test]
    fn merge_is_transparent(
        main_rows in prop::collection::vec(mixed_row(), 0..150),
        delta_rows in prop::collection::vec(mixed_row(), 1..150),
        mode in 0u8..4,
        wide in prop::collection::vec(0i64..5_000, 1..150),
        deletes in prop::collection::vec(0usize..300, 0..20),
    ) {
        let mut t = ColumnTable::new("p", Schema::of(&[
            ("n", DataType::Double),
            ("s", DataType::Varchar),
            ("d", DataType::Date),
        ]));
        for row in &main_rows {
            t.insert(row, 1).unwrap();
        }
        check_merge(&mut t);
        let delta: Vec<Vec<Value>> = match mode {
            0 => delta_rows,
            1 => delta_rows.iter().map(|_| vec![Value::Null; 3]).collect(),
            2 if !main_rows.is_empty() => (0..delta_rows.len())
                .map(|i| main_rows[(i * 7) % main_rows.len()].clone())
                .collect(),
            2 => vec![vec![Value::Null; 3]],
            _ => wide.iter().map(|&n| vec![Value::Int(n), Value::Null, Value::Null]).collect(),
        };
        for row in &delta {
            t.insert(row, 2).unwrap();
        }
        for &row in &deletes {
            if row < t.row_count() && t.is_live(row) {
                t.delete(row, 3).unwrap();
            }
        }
        let shared = check_merge(&mut t);
        if mode == 2 {
            prop_assert!(shared.iter().all(|&s| s), "no new value: the dictionary stays");
        }
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

    /// MainColumn::build, read back row by row, is the identity (nulls
    /// included).
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
        prop_assert_eq!((0..m.len()).map(|r| m.get(r)).collect::<Vec<_>>(), values);
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
        .into_iter()
        .map(|r| r as usize)
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

/// The rows `created <= s < deleted` and `v BETWEEN lo AND lo + 3`
/// keep, row by row — the oracle of the scan's visibility words.
fn visible_oracle(
    created: &[u64],
    deleted: &[u64],
    values: &[i64],
    s: u64,
    lo: Option<i64>,
) -> Vec<usize> {
    (0..created.len())
        .filter(|&i| created[i] <= s && s < deleted[i])
        .filter(|&i| lo.is_none_or(|lo| (lo..=lo + 3).contains(&values[i])))
        .collect()
}

proptest! {
    /// The scan decides visibility a 64-row word at a time from each
    /// word's largest `created` and smallest `deleted` CID, and checks
    /// rows one by one only where those cannot decide: it returns the
    /// rows a per-row `created <= s < deleted` oracle returns, at every
    /// snapshot, worker count and morsel size. Rows are inserted at
    /// rising CIDs; rows are deleted before the merge (in the delta)
    /// and after it (in main and delta). The last word is partial, a
    /// word straddles main and delta, and the first word's only change
    /// after its inserts is one delete.
    #[test]
    fn visibility_words_equal_the_per_row_oracle(
        n in 130usize..400,
        merge_at in 70usize..130,
        values in prop::collection::vec(0i64..8, 400),
        early in prop::collection::vec(64usize..400, 0..12),
        late in prop::collection::vec(0usize..400, 0..12),
        lo in 0i64..8,
    ) {
        // Off word boundaries: a straddling word and a partial last one.
        let n = if n % 64 == 0 { n + 1 } else { n };
        let merge_at = if merge_at % 64 == 0 { merge_at + 1 } else { merge_at };
        let mut t = ColumnTable::new("p", Schema::of(&[("v", DataType::Int)]));
        let mut created = Vec::new();
        let mut deleted = vec![hana_columnar::NEVER; n];
        let mut cid = 1;
        let mut delete = |t: &mut ColumnTable, row: usize, cid: u64| {
            if deleted[row] == hana_columnar::NEVER {
                t.delete(row, cid).unwrap();
                deleted[row] = cid;
            }
        };
        for (i, &v) in values[..n].iter().enumerate() {
            t.insert(&[Value::Int(v)], cid).unwrap();
            created.push(cid);
            cid += 1;
            if i + 1 == merge_at {
                // Deletes among the rows so far, then the merge.
                for &row in early.iter().filter(|&&r| r < merge_at) {
                    delete(&mut t, row, cid);
                    cid += 1;
                }
                t.merge_delta();
            }
        }
        // The first word: one late delete and nothing else since.
        delete(&mut t, 5, cid);
        cid += 1;
        for &row in early.iter().chain(&late).filter(|&&r| r < n) {
            delete(&mut t, row, cid);
            cid += 1;
        }
        prop_assert!(t.main_rows() == merge_at && t.row_count() == n);

        // Every CID a row was deleted at, the CIDs the first and last
        // row of each word and every 16th row were created at, and the
        // one before each.
        let firsts_and_lasts = created.iter().enumerate()
            .filter(|&(i, _)| i % 16 == 0 || i % 64 == 63 || i + 1 == n)
            .map(|(_, c)| c);
        let mut snapshots: Vec<u64> = firsts_and_lasts.chain(&deleted)
            .filter(|&&c| c != hana_columnar::NEVER)
            .flat_map(|&c| [c - 1, c])
            .chain([cid])
            .collect();
        snapshots.sort_unstable();
        snapshots.dedup();
        for s in snapshots {
            for lo in [None, Some(lo)] {
                let preds: Vec<(usize, ColumnPredicate)> = lo
                    .map(|lo| (0, ColumnPredicate::Between(Value::Int(lo), Value::Int(lo + 3))))
                    .into_iter()
                    .collect();
                let want = visible_oracle(&created, &deleted, &values, s, lo);
                for exec in grid() {
                    let got: Vec<usize> = t.scan_all(exec, &preds, s).unwrap().iter().collect();
                    prop_assert_eq!(&got, &want, "snapshot {} preds {:?} {:?}", s, lo, exec.config());
                }
            }
        }
        prop_assert_eq!(t.visible(cid).iter().collect::<Vec<_>>(), visible_oracle(&created, &deleted, &values, cid, None));
    }
}

/// A delta that starts inside a 64-row word (here at row 100) ORs its
/// hits into the morsel's bitmap off a word boundary: each word of 64
/// verdicts lands across two bitmap words, at every morsel size.
#[test]
fn a_delta_starting_inside_a_word_ors_its_hits_unaligned() {
    let mut t = ColumnTable::new("p", Schema::of(&[("v", DataType::Int)]));
    let v = |i: usize| Value::Int((i % 5) as i64);
    for i in 0..100 {
        t.insert(&[v(i)], 1).unwrap();
    }
    t.merge_delta();
    for i in 100..300 {
        t.insert(&[v(i)], 1).unwrap();
    }
    assert_eq!(t.main_rows(), 100);
    for pred in [
        ColumnPredicate::Eq(Value::Int(3)),
        ColumnPredicate::InList(vec![Value::Int(0), Value::Int(4)]),
        ColumnPredicate::Ge(Value::Int(0)),
    ] {
        let want: Vec<usize> = (0..300).filter(|&i| pred.matches(&v(i))).collect();
        for exec in grid() {
            let got: Vec<usize> = t
                .scan_all(exec, &[(0, pred.clone())], 1)
                .unwrap()
                .iter()
                .collect();
            assert_eq!(got, want, "{pred:?} {:?}", exec.config());
        }
    }
}

/// The `(n DOUBLE, s VARCHAR, d DATE)` table of [`mixed_row`], indexed
/// on `n`.
fn mixed_table() -> ColumnTable {
    let mut t = ColumnTable::new(
        "p",
        Schema::of(&[
            ("n", DataType::Double),
            ("s", DataType::Varchar),
            ("d", DataType::Date),
        ]),
    );
    t.create_index("ix", &["n".into()]).unwrap();
    t
}

/// Check `t` against `model` — its rows in row-id order, each with the
/// CID it was created under — at snapshot `cid`: the visible rows, the
/// hits of one compiled predicate per column kind, an index seek per
/// probe, and each column's value frequencies.
fn check_against_model(t: &ColumnTable, model: &[(Vec<Value>, u64)], cid: u64, probes: &[Value]) {
    let seen: Vec<usize> = (0..model.len()).filter(|&r| model[r].1 <= cid).collect();
    assert_eq!(t.row_count(), model.len());
    assert_eq!(t.visible(cid).iter().collect::<Vec<_>>(), seen, "cid {cid}");
    let rows: Vec<Vec<Value>> = t.snapshot_rows(cid).into_iter().map(|r| r.0).collect();
    let want: Vec<Vec<Value>> = seen.iter().map(|&r| model[r].0.clone()).collect();
    assert_eq!(rows, want, "cid {cid}");
    let preds = [
        (
            0,
            ColumnPredicate::Between(Value::Int(0), Value::Double(4.5)),
        ),
        (0, ColumnPredicate::IsNull),
        (1, ColumnPredicate::Eq(Value::from("a"))),
        (1, ColumnPredicate::Ne(Value::from("b"))),
        (2, ColumnPredicate::Ge(Value::Date(Date(10)))),
    ];
    for (col, pred) in preds {
        let got: Vec<usize> = t
            .scan_all(serial(), &[(col, pred.clone())], cid)
            .unwrap()
            .iter()
            .collect();
        let want: Vec<usize> = (seen.iter().copied())
            .filter(|&r| pred.matches(&model[r].0[col]))
            .collect();
        assert_eq!(got, want, "{pred:?} on column {col} at cid {cid}");
    }
    for probe in probes {
        assert_seek_matches_scan(t, std::slice::from_ref(probe), None, cid);
    }
    for col in 0..3 {
        let mut want: Vec<(Value, u64)> = Vec::new();
        let mut values: Vec<&Value> = model.iter().map(|(row, _)| &row[col]).collect();
        values.retain(|v| !v.is_null());
        values.sort();
        for v in values {
            match want.last_mut() {
                Some((last, n)) if last == v => *n += 1,
                _ => want.push((v.clone(), 1)),
            }
        }
        assert_eq!(t.value_frequencies(col), want, "column {col}");
    }
}

proptest! {
    /// Appending encoded batches is filling a `Vec<Row>` model row by
    /// row: the rows, their visibility at CIDs below, at and above each
    /// append, predicate scans over the delta, index seeks and value
    /// frequencies agree after every append and after the merge that
    /// follows. The first batch goes into an empty delta, the later
    /// ones into a non-empty one; a batch brings NULLs, `Int`/`Double`
    /// twins and `-0.0`, or repeats values already in the delta, or
    /// has an all-NULL column, or is empty.
    #[test]
    fn appended_batches_match_a_row_by_row_model(
        batches in prop::collection::vec(
            (prop::collection::vec(mixed_row(), 0..40), 0u8..4),
            1..5,
        ),
        probes in prop::collection::vec(prop_oneof![
            (-3i64..12).prop_map(Value::Int),
            (-6i64..24).prop_map(|h| Value::Double(h as f64 / 2.0)),
        ], 1..4),
    ) {
        let mut t = mixed_table();
        let mut model: Vec<(Vec<Value>, u64)> = Vec::new();
        for (i, (rows, mode)) in batches.into_iter().enumerate() {
            let cid = 10 * (i as u64 + 1);
            let rows: Vec<Vec<Value>> = match mode {
                0 => rows,
                1 if !model.is_empty() => (0..rows.len())
                    .map(|j| model[(j * 7) % model.len()].0.clone())
                    .collect(),
                2 => rows.into_iter().map(|mut r| { r[1] = Value::Null; r }).collect(),
                _ => Vec::new(),
            };
            let batch = InsertBatch::encode(t.schema(), rows.iter().map(Vec::as_slice)).unwrap();
            prop_assert_eq!(batch.len(), rows.len());
            let first = t.append(batch, cid).unwrap();
            prop_assert_eq!(first, model.len());
            model.extend(rows.into_iter().map(|r| (r, cid)));
            for at in [cid - 1, cid, cid + 1] {
                check_against_model(&t, &model, at, &probes);
            }
        }
        check_merge(&mut t);
        let last = 10 * model.len() as u64 + 100;
        check_against_model(&t, &model, last, &probes);
    }
}

/// A batch is checked row by row as it is encoded, with the errors of
/// `Schema::check_row`: one bad row refuses the batch, and the table
/// never sees it.
#[test]
fn a_bad_row_refuses_its_batch() {
    let t = ColumnTable::new(
        "p",
        Schema::new(vec![
            ColumnDef::not_null("k", DataType::Int),
            ColumnDef::new("s", DataType::Varchar),
        ])
        .unwrap(),
    );
    let good = [Value::Int(1), Value::from("a")];
    for bad in [
        vec![Value::Int(2), Value::Int(3)],
        vec![Value::Null, Value::from("b")],
        vec![Value::Int(2)],
    ] {
        let rows = [&good[..], &bad[..], &good[..]];
        let got = InsertBatch::encode(t.schema(), rows).unwrap_err();
        assert_eq!(got, t.schema().check_row(&bad).unwrap_err());
    }
}
