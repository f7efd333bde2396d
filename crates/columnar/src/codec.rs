//! Compression codecs for main-store value-ID vectors.
//!
//! After a delta merge, each column fragment's value IDs are re-encoded
//! with the cheapest of three codecs (the paper's engine calls this
//! "optimized internal representation", Figure 2):
//!
//! * **Plain** — fixed-width bit packing (always applicable),
//! * **RLE** — run-length encoding, wins on sorted or temporally
//!   clustered data,
//! * **Sparse** — dominant value elided, exceptions stored as sorted
//!   `(position, vid)` pairs; wins on heavily skewed columns (e.g. the
//!   aging flag of §3.1, which is almost always "hot").
//!
//! Scans over the encoded vector run **blockwise**: every fragment
//! carries a per-[`BLOCK_ROWS`]-row [`BlockSynopsis`] (min/max non-null
//! vid + null presence) built at encode time. `scan_into` consults the
//! synopsis before touching a block, skipping it outright when the
//! [`VidMatch`] cannot intersect, and unpacks surviving Plain blocks in
//! bulk with [`BitPackedVec::unpack_range`] instead of per-element
//! `get`. Blocks scanned vs. skipped are exported as the
//! `hana_columnar_blocks_{scanned,skipped}_total` counters.

use crate::bitmap::RowIdBitmap;
use crate::bitpack::{width_for, BitPackedVec, BLOCK_ROWS};
use crate::predicate::{MatchKind, VidMatch};

/// Zone map over one [`BLOCK_ROWS`]-row block of a value-ID vector.
///
/// `min_vid`/`max_vid` cover **non-null** vids only; an all-null (or
/// empty) block has `min_vid == u32::MAX` and `max_vid == 0`, which a
/// range test can never satisfy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSynopsis {
    /// Smallest non-null vid in the block (`u32::MAX` if none).
    pub min_vid: u32,
    /// Largest non-null vid in the block (`0` if none).
    pub max_vid: u32,
    /// Whether the block contains any `NULL_VID` row.
    pub has_null: bool,
}

impl BlockSynopsis {
    fn empty() -> BlockSynopsis {
        BlockSynopsis {
            min_vid: u32::MAX,
            max_vid: 0,
            has_null: false,
        }
    }

    #[inline]
    fn observe(&mut self, vid: u32) {
        if vid == 0 {
            self.has_null = true;
        } else {
            self.min_vid = self.min_vid.min(vid);
            self.max_vid = self.max_vid.max(vid);
        }
    }

    /// Fold another synopsis in (used to summarize a whole fragment).
    fn merge(&mut self, other: &BlockSynopsis) {
        self.min_vid = self.min_vid.min(other.min_vid);
        self.max_vid = self.max_vid.max(other.max_vid);
        self.has_null |= other.has_null;
    }
}

fn build_synopses(vids: &[u32]) -> Vec<BlockSynopsis> {
    vids.chunks(BLOCK_ROWS)
        .map(|chunk| {
            let mut s = BlockSynopsis::empty();
            for &v in chunk {
                s.observe(v);
            }
            s
        })
        .collect()
}

/// The physical representation behind a [`VidCodec`].
#[derive(Debug, Clone)]
pub enum VidRepr {
    /// Fixed-width bit-packed IDs.
    Plain(BitPackedVec),
    /// Run-length encoded IDs with prefix sums for random access.
    Rle {
        /// Distinct run value IDs.
        run_vids: Vec<u32>,
        /// `run_ends[i]` = exclusive end row of run `i` (ascending).
        run_ends: Vec<u32>,
    },
    /// All rows carry `dominant` except the listed exceptions.
    Sparse {
        /// The elided, most frequent value ID.
        dominant: u32,
        /// Sorted row positions of exceptions.
        positions: Vec<u32>,
        /// Value IDs of the exceptions, parallel to `positions`.
        vids: BitPackedVec,
        /// Total row count.
        len: usize,
    },
}

/// An immutable, compressed vector of value IDs plus its per-block
/// zone maps.
#[derive(Debug, Clone)]
pub struct VidCodec {
    repr: VidRepr,
    blocks: Vec<BlockSynopsis>,
}

impl VidCodec {
    /// Encode `vids`, picking the representation with the smallest
    /// payload and building the block synopses in the same pass.
    pub fn encode(vids: &[u32]) -> VidCodec {
        let blocks = build_synopses(vids);
        let plain = VidRepr::Plain(BitPackedVec::from_slice(
            &vids.iter().map(|&v| v as u64).collect::<Vec<_>>(),
        ));
        if vids.is_empty() {
            return VidCodec {
                repr: plain,
                blocks,
            };
        }

        // Candidate: RLE.
        let mut run_vids = Vec::new();
        let mut run_ends = Vec::new();
        for (i, &v) in vids.iter().enumerate() {
            if run_vids.last() == Some(&v) {
                *run_ends.last_mut().expect("runs in sync") = i as u32 + 1;
            } else {
                run_vids.push(v);
                run_ends.push(i as u32 + 1);
            }
        }
        let rle = VidRepr::Rle { run_vids, run_ends };

        // Candidate: Sparse around the most frequent vid.
        let mut freq = std::collections::HashMap::new();
        for &v in vids {
            *freq.entry(v).or_insert(0usize) += 1;
        }
        let (&dominant, _) = freq
            .iter()
            .max_by_key(|&(_, c)| *c)
            .expect("non-empty input");
        let positions: Vec<u32> = vids
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v != dominant)
            .map(|(i, _)| i as u32)
            .collect();
        let exc_vids = BitPackedVec::from_slice(
            &positions
                .iter()
                .map(|&p| vids[p as usize] as u64)
                .collect::<Vec<_>>(),
        );
        let sparse = VidRepr::Sparse {
            dominant,
            positions,
            vids: exc_vids,
            len: vids.len(),
        };

        let repr = [plain, rle, sparse]
            .into_iter()
            .min_by_key(VidRepr::payload_bytes)
            .expect("three candidates");
        VidCodec { repr, blocks }
    }

    /// Wrap an existing bit-packed vector as a Plain fragment,
    /// computing its block synopses.
    pub fn from_plain(v: BitPackedVec) -> VidCodec {
        let mut blocks = Vec::with_capacity(v.len().div_ceil(BLOCK_ROWS));
        let mut buf = vec![0u64; BLOCK_ROWS];
        let mut start = 0;
        while start < v.len() {
            let rows = (v.len() - start).min(BLOCK_ROWS);
            v.unpack_range(start, &mut buf[..rows]);
            let mut s = BlockSynopsis::empty();
            for &x in &buf[..rows] {
                s.observe(x as u32);
            }
            blocks.push(s);
            start += rows;
        }
        VidCodec {
            repr: VidRepr::Plain(v),
            blocks,
        }
    }

    /// The physical representation.
    pub fn repr(&self) -> &VidRepr {
        &self.repr
    }

    /// Per-[`BLOCK_ROWS`]-row zone maps, in block order.
    pub fn block_synopses(&self) -> &[BlockSynopsis] {
        &self.blocks
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.repr {
            VidRepr::Plain(v) => v.len(),
            VidRepr::Rle { run_ends, .. } => run_ends.last().map_or(0, |&e| e as usize),
            VidRepr::Sparse { len, .. } => *len,
        }
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value ID at `row`.
    pub fn get(&self, row: usize) -> u32 {
        match &self.repr {
            VidRepr::Plain(v) => v.get(row) as u32,
            VidRepr::Rle { run_vids, run_ends } => {
                let run = run_ends.partition_point(|&e| e as usize <= row);
                run_vids[run]
            }
            VidRepr::Sparse {
                dominant,
                positions,
                vids,
                ..
            } => match positions.binary_search(&(row as u32)) {
                Ok(i) => vids.get(i) as u32,
                Err(_) => *dominant,
            },
        }
    }

    /// Bulk-decode block `block` (rows `block * BLOCK_ROWS ..`) into
    /// `out`, returning the number of rows written (a full
    /// `BLOCK_ROWS` except possibly for the last block).
    ///
    /// This is the shared decode kernel behind vectorized scans and the
    /// executor's column leaf: downstream code operates on a dense
    /// `u32` vid block instead of calling [`get`](Self::get) per row.
    pub fn unpack_block(&self, block: usize, out: &mut [u32; BLOCK_ROWS]) -> usize {
        let start = block * BLOCK_ROWS;
        let len = self.len();
        assert!(
            start < len || (start == 0 && len == 0),
            "block {block} out of bounds"
        );
        let rows = (len - start).min(BLOCK_ROWS);
        match &self.repr {
            VidRepr::Plain(v) => {
                let mut buf = [0u64; BLOCK_ROWS];
                v.unpack_range(start, &mut buf[..rows]);
                for (slot, &x) in out[..rows].iter_mut().zip(&buf[..rows]) {
                    *slot = x as u32;
                }
            }
            VidRepr::Rle { run_vids, run_ends } => {
                let end = start + rows;
                let mut run = run_ends.partition_point(|&e| e as usize <= start);
                let mut row = start;
                while row < end {
                    let run_end = (run_ends[run] as usize).min(end);
                    out[row - start..run_end - start].fill(run_vids[run]);
                    row = run_end;
                    run += 1;
                }
            }
            VidRepr::Sparse {
                dominant,
                positions,
                vids,
                ..
            } => {
                out[..rows].fill(*dominant);
                let end = start + rows;
                let lo = positions.partition_point(|&p| (p as usize) < start);
                let hi = positions.partition_point(|&p| (p as usize) < end);
                for (i, &p) in positions[lo..hi].iter().enumerate() {
                    out[p as usize - start] = vids.get(lo + i) as u32;
                }
            }
        }
        rows
    }

    /// Visit every `(row, vid)` pair in order.
    pub fn for_each(&self, mut f: impl FnMut(usize, u32)) {
        match &self.repr {
            VidRepr::Plain(_) => {
                let mut buf = [0u32; BLOCK_ROWS];
                for block in 0..self.blocks.len() {
                    let rows = self.unpack_block(block, &mut buf);
                    let base = block * BLOCK_ROWS;
                    for (i, &vid) in buf[..rows].iter().enumerate() {
                        f(base + i, vid);
                    }
                }
            }
            VidRepr::Rle { run_vids, run_ends } => {
                let mut start = 0u32;
                for (&vid, &end) in run_vids.iter().zip(run_ends) {
                    for row in start..end {
                        f(row as usize, vid);
                    }
                    start = end;
                }
            }
            VidRepr::Sparse {
                dominant,
                positions,
                vids,
                len,
            } => {
                let mut next_exc = 0usize;
                for row in 0..*len {
                    if next_exc < positions.len() && positions[next_exc] as usize == row {
                        f(row, vids.get(next_exc) as u32);
                        next_exc += 1;
                    } else {
                        f(row, *dominant);
                    }
                }
            }
        }
    }

    /// Set bits in `out` (at `offset + row`) for rows whose vid matches.
    ///
    /// Plain fragments scan blockwise: the block synopsis is consulted
    /// first (skipping blocks the match cannot intersect), survivors are
    /// bulk-unpacked, and range matches run as a single unsigned
    /// compare per row. RLE skips whole runs; Sparse tests the dominant
    /// value once. RLE/Sparse fragments whose folded synopsis cannot
    /// intersect are skipped without touching the payload at all.
    pub fn scan_into(&self, m: &VidMatch, out: &mut RowIdBitmap, offset: usize) {
        self.scan_range_into(m, out, offset, 0, self.len());
    }

    /// Range-restricted [`VidCodec::scan_into`]: for matching rows with
    /// `start <= row < end`, set the bit at `offset + (row - start)` —
    /// `offset` is where the range's first row lands, so a morsel scans
    /// into a bitmap of its own length.
    ///
    /// Equivalent to a full scan masked to `[start, end)` and shifted
    /// down by `start`; each morsel task owns one disjoint range.
    /// RLE seeks to the first overlapping run; Sparse binary-searches
    /// the exception positions; Plain runs the blockwise skip-scan over
    /// the covered blocks.
    pub fn scan_range_into(
        &self,
        m: &VidMatch,
        out: &mut RowIdBitmap,
        offset: usize,
        start: usize,
        end: usize,
    ) {
        let end = end.min(self.len());
        if m.is_empty() || start >= end {
            return;
        }
        match &self.repr {
            VidRepr::Plain(v) => self.scan_plain_blocks(v, m, out, offset, start, end),
            VidRepr::Rle { run_vids, run_ends } => {
                if self.fragment_pruned(m, start, end) {
                    return;
                }
                let first = run_ends.partition_point(|&e| e as usize <= start);
                let mut run_start = if first == 0 {
                    0
                } else {
                    run_ends[first - 1] as usize
                };
                for (&vid, &run_end) in run_vids[first..].iter().zip(&run_ends[first..]) {
                    let run_end = run_end as usize;
                    if run_start >= end {
                        break;
                    }
                    if m.test(vid) {
                        out.set_range(
                            offset + run_start.max(start) - start,
                            offset + run_end.min(end) - start,
                        );
                    }
                    run_start = run_end;
                }
            }
            VidRepr::Sparse {
                dominant,
                positions,
                vids,
                ..
            } => {
                if self.fragment_pruned(m, start, end) {
                    return;
                }
                let lo = positions.partition_point(|&p| (p as usize) < start);
                let hi = positions.partition_point(|&p| (p as usize) < end);
                if m.test(*dominant) {
                    out.set_range(offset, offset + end - start);
                    for (i, &p) in positions[lo..hi].iter().enumerate() {
                        if !m.test(vids.get(lo + i) as u32) {
                            out.unset(offset + p as usize - start);
                        }
                    }
                } else {
                    for (i, &p) in positions[lo..hi].iter().enumerate() {
                        if m.test(vids.get(lo + i) as u32) {
                            out.set(offset + p as usize - start);
                        }
                    }
                }
            }
        }
    }

    /// Synopsis check for non-Plain reprs over `[start, end)`: returns
    /// `true` (and books the skipped blocks) when no covered block can
    /// intersect `m`.
    fn fragment_pruned(&self, m: &VidMatch, start: usize, end: usize) -> bool {
        let first = start / BLOCK_ROWS;
        let last = end.div_ceil(BLOCK_ROWS);
        let mut folded = BlockSynopsis::empty();
        for s in &self.blocks[first..last] {
            folded.merge(s);
        }
        if m.may_match_block(folded.min_vid, folded.max_vid, folded.has_null) {
            return false;
        }
        record_block_counts(0, (last - first) as u64);
        true
    }

    /// Blockwise skip-scan over a Plain fragment.
    fn scan_plain_blocks(
        &self,
        v: &BitPackedVec,
        m: &VidMatch,
        out: &mut RowIdBitmap,
        offset: usize,
        start: usize,
        end: usize,
    ) {
        let mut scanned = 0u64;
        let mut skipped = 0u64;
        let mut buf = [0u64; BLOCK_ROWS];
        let first = start / BLOCK_ROWS;
        let last = end.div_ceil(BLOCK_ROWS);
        for block in first..last {
            let b_start = (block * BLOCK_ROWS).max(start);
            let b_end = ((block + 1) * BLOCK_ROWS).min(end);
            let syn = &self.blocks[block];
            if !m.may_match_block(syn.min_vid, syn.max_vid, syn.has_null) {
                skipped += 1;
                continue;
            }
            scanned += 1;
            let rows = b_end - b_start;
            let b_out = offset + b_start - start;
            v.unpack_range(b_start, &mut buf[..rows]);
            match &m.kind {
                // Hot path: inclusive vid range, nulls excluded, folds
                // to one unsigned compare per row (NULL_VID wraps to
                // u64::MAX - lo and never matches).
                MatchKind::Range(lo, hi) if !m.null_matches => {
                    let span = (*hi - *lo) as u64;
                    let lo = *lo as u64;
                    for (i, &vid) in buf[..rows].iter().enumerate() {
                        if vid.wrapping_sub(lo) <= span {
                            out.set(b_out + i);
                        }
                    }
                }
                _ => {
                    for (i, &vid) in buf[..rows].iter().enumerate() {
                        if m.test(vid as u32) {
                            out.set(b_out + i);
                        }
                    }
                }
            }
        }
        record_block_counts(scanned, skipped);
    }

    /// Compressed payload size in bytes (what codec selection minimizes).
    pub fn payload_bytes(&self) -> usize {
        self.repr.payload_bytes()
    }

    /// Codec name for EXPLAIN / stats output.
    pub fn name(&self) -> &'static str {
        match &self.repr {
            VidRepr::Plain(_) => "plain",
            VidRepr::Rle { .. } => "rle",
            VidRepr::Sparse { .. } => "sparse",
        }
    }
}

impl VidRepr {
    fn payload_bytes(&self) -> usize {
        match self {
            VidRepr::Plain(v) => v.payload_bytes(),
            VidRepr::Rle { run_vids, run_ends } => {
                // Runs could themselves be bit-packed; approximate with the
                // width actually needed rather than 4 bytes each.
                let vid_bits = width_for(run_vids.iter().copied().max().unwrap_or(0) as u64);
                let end_bits = width_for(run_ends.last().copied().unwrap_or(0) as u64);
                (run_vids.len() * vid_bits as usize + run_ends.len() * end_bits as usize)
                    .div_ceil(8)
            }
            VidRepr::Sparse {
                positions,
                vids,
                len,
                ..
            } => {
                let pos_bits = width_for(*len as u64);
                (positions.len() * pos_bits as usize).div_ceil(8) + vids.payload_bytes() + 4
            }
        }
    }
}

fn record_block_counts(scanned: u64, skipped: u64) {
    if scanned + skipped == 0 {
        return;
    }
    let obs = hana_obs::registry();
    if scanned > 0 {
        obs.counter("hana_columnar_blocks_scanned_total")
            .add(scanned);
    }
    if skipped > 0 {
        obs.counter("hana_columnar_blocks_skipped_total")
            .add(skipped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::VidMatch;

    fn check_round_trip(vids: &[u32]) -> VidCodec {
        let c = VidCodec::encode(vids);
        assert_eq!(c.len(), vids.len());
        for (i, &v) in vids.iter().enumerate() {
            assert_eq!(c.get(i), v, "codec {} idx {i}", c.name());
        }
        let mut seen = Vec::new();
        c.for_each(|row, vid| seen.push((row, vid)));
        assert_eq!(seen, vids.iter().copied().enumerate().collect::<Vec<_>>());
        c
    }

    #[test]
    fn rle_wins_on_runs() {
        let mut vids = vec![1u32; 1000];
        vids.extend(vec![2u32; 1000]);
        vids.extend(vec![3u32; 1000]);
        let c = check_round_trip(&vids);
        assert_eq!(c.name(), "rle");
    }

    #[test]
    fn sparse_wins_on_skew() {
        let mut vids = vec![7u32; 5000];
        // Scatter exceptions so runs are broken and RLE cannot win.
        for i in (0..5000).step_by(97) {
            vids[i] = (i % 5) as u32 + 1;
        }
        let c = check_round_trip(&vids);
        assert_eq!(c.name(), "sparse");
    }

    #[test]
    fn plain_wins_on_high_entropy() {
        let vids: Vec<u32> = (0..4096u64)
            .map(|i| ((i * 2_654_435_761) % 4093) as u32)
            .collect();
        let c = check_round_trip(&vids);
        assert_eq!(c.name(), "plain");
    }

    #[test]
    fn empty_input() {
        let c = VidCodec::encode(&[]);
        assert!(c.is_empty());
        assert!(c.block_synopses().is_empty());
        let mut out = RowIdBitmap::new(0);
        c.scan_into(&VidMatch::range(1, 10), &mut out, 0);
        assert_eq!(out.count(), 0);
    }

    #[test]
    fn scan_all_codecs_agree() {
        let mut vids = vec![3u32; 300];
        for i in (0..300).step_by(7) {
            vids[i] = (i % 6) as u32;
        }
        let m = VidMatch::range(2, 4);
        let expected: Vec<usize> = vids
            .iter()
            .enumerate()
            .filter(|&(_, &v)| (2..=4).contains(&v))
            .map(|(i, _)| i)
            .collect();
        // Force each codec and compare scan output.
        let plain = VidCodec::from_plain(BitPackedVec::from_slice(
            &vids.iter().map(|&v| v as u64).collect::<Vec<_>>(),
        ));
        for codec in [plain, VidCodec::encode(&vids)] {
            let mut out = RowIdBitmap::new(vids.len());
            codec.scan_into(&m, &mut out, 0);
            assert_eq!(out.iter().collect::<Vec<_>>(), expected, "{}", codec.name());
        }
    }

    #[test]
    fn scan_with_offset() {
        let vids = vec![1u32, 2, 1, 2];
        let c = VidCodec::encode(&vids);
        let mut out = RowIdBitmap::new(10);
        c.scan_into(&VidMatch::range(2, 2), &mut out, 5);
        assert_eq!(out.iter().collect::<Vec<_>>(), vec![6, 8]);
    }

    #[test]
    fn synopses_cover_blocks_and_nulls() {
        // Three blocks: [1..], [banded 100..], all-null tail.
        let mut vids: Vec<u32> = (0..BLOCK_ROWS as u32).map(|i| i % 50 + 1).collect();
        vids.extend((0..BLOCK_ROWS as u32).map(|i| i % 50 + 100));
        vids.extend(std::iter::repeat_n(0, 10));
        let c = VidCodec::encode(&vids);
        let syn = c.block_synopses();
        assert_eq!(syn.len(), 3);
        assert_eq!(
            (syn[0].min_vid, syn[0].max_vid, syn[0].has_null),
            (1, 50, false)
        );
        assert_eq!(
            (syn[1].min_vid, syn[1].max_vid, syn[1].has_null),
            (100, 149, false)
        );
        assert_eq!(
            (syn[2].min_vid, syn[2].max_vid, syn[2].has_null),
            (u32::MAX, 0, true)
        );
    }

    #[test]
    fn skip_scan_matches_scalar_on_banded_plain() {
        // High per-block entropy keeps the codec Plain, but each block's
        // vid band is disjoint, so a selective range prunes most blocks.
        let vids: Vec<u32> = (0..(4 * BLOCK_ROWS) as u32)
            .map(|i| (i / BLOCK_ROWS as u32) * 1000 + (i.wrapping_mul(2_654_435_761) % 997) + 1)
            .collect();
        let c = VidCodec::encode(&vids);
        assert_eq!(c.name(), "plain");
        let mut fast = RowIdBitmap::new(vids.len());
        c.scan_into(&VidMatch::range(2000, 2500), &mut fast, 0);
        let expected: Vec<usize> = (0..vids.len())
            .filter(|&row| (2000..=2500).contains(&vids[row]))
            .collect();
        assert_eq!(fast.iter().collect::<Vec<_>>(), expected);
        assert!(fast.count() > 0);
    }

    #[test]
    fn unpack_block_matches_get_for_all_codecs() {
        let n = 2 * BLOCK_ROWS + 300;
        let shapes: [Vec<u32>; 3] = [
            // High entropy -> plain.
            (0..n as u32)
                .map(|i| i.wrapping_mul(2_654_435_761) % 1021)
                .collect(),
            // Long runs -> rle.
            (0..n as u32).map(|i| i / 700).collect(),
            // Skewed -> sparse.
            (0..n as u32)
                .map(|i| if i % 97 == 0 { i % 7 + 1 } else { 42 })
                .collect(),
        ];
        for vids in &shapes {
            let c = VidCodec::encode(vids);
            let mut buf = [0u32; BLOCK_ROWS];
            for block in 0..vids.len().div_ceil(BLOCK_ROWS) {
                let rows = c.unpack_block(block, &mut buf);
                for (i, &vid) in buf[..rows].iter().enumerate() {
                    assert_eq!(
                        vid,
                        vids[block * BLOCK_ROWS + i],
                        "{} block {block}",
                        c.name()
                    );
                }
            }
        }
    }
}
