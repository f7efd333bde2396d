//! Row-ID bitmaps, the currency of scans.
//!
//! Column scans produce bitmaps over row positions; conjunctive predicates
//! intersect them, disjunctive predicates union them. The same structure
//! backs the FP-style bitmap indexes of the extended storage crate.

/// A fixed-universe bitset over row IDs `0..len`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowIdBitmap {
    len: usize,
    words: Vec<u64>,
}

impl RowIdBitmap {
    /// An all-zeros bitmap over `len` rows.
    pub fn new(len: usize) -> RowIdBitmap {
        RowIdBitmap {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// An all-ones bitmap over `len` rows.
    pub fn all_set(len: usize) -> RowIdBitmap {
        let mut b = RowIdBitmap {
            len,
            words: vec![u64::MAX; len.div_ceil(64)],
        };
        b.clear_tail();
        b
    }

    fn clear_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// The universe size (number of row positions).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set the bit for `row`.
    pub fn set(&mut self, row: usize) {
        debug_assert!(row < self.len);
        self.words[row / 64] |= 1 << (row % 64);
    }

    /// Make the bit for `row` equal `hit`.
    #[inline]
    pub(crate) fn put(&mut self, row: usize, hit: bool) {
        debug_assert!(row < self.len);
        let (w, b) = (row / 64, row % 64);
        self.words[w] = (self.words[w] & !(1 << b)) | ((hit as u64) << b);
    }

    /// Set bits for `rows` in `[start, end)`, whole words at a time.
    pub fn set_range(&mut self, start: usize, end: usize) {
        let end = end.min(self.len);
        if start >= end {
            return;
        }
        // Bits `from..` of a word, and bits `..to` of one.
        let from = |b: usize| u64::MAX << b;
        let upto = |b: usize| u64::MAX >> (63 - b);
        let (first, last) = (start / 64, (end - 1) / 64);
        if first == last {
            self.words[first] |= from(start % 64) & upto((end - 1) % 64);
            return;
        }
        self.words[first] |= from(start % 64);
        self.words[first + 1..last].fill(u64::MAX);
        self.words[last] |= upto((end - 1) % 64);
    }

    /// OR `word` in at bit `pos`: its bit `j` lands on row `pos + j`,
    /// across two words when `pos` is not a multiple of 64. Bits past
    /// the universe must be clear.
    #[inline]
    pub(crate) fn or_word(&mut self, pos: usize, word: u64) {
        let (w, b) = (pos / 64, pos % 64);
        self.words[w] |= word << b;
        if b != 0 && word >> (64 - b) != 0 {
            self.words[w + 1] |= word >> (64 - b);
        }
    }

    /// OR in at `pos` one bit per item of `items`, set where `hit`
    /// accepts it: each 64 items make one word, built without a branch
    /// per item — 64 verdicts as bytes, then each 8 of them gathered
    /// into a byte of the word by one multiply.
    #[inline]
    pub(crate) fn or_hits(&mut self, pos: usize, items: &[u32], hit: impl Fn(u32) -> bool) {
        debug_assert!(pos + items.len() <= self.len);
        for (k, chunk) in items.chunks(64).enumerate() {
            let mut hits = [0u8; 64];
            for (h, &x) in hits.iter_mut().zip(chunk) {
                *h = hit(x) as u8;
            }
            let mut word = 0u64;
            for (g, bytes) in hits.chunks_exact(8).enumerate() {
                // Byte `i` of `eight` (0 or 1) lands on bit `56 + i`.
                let eight = u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
                word |= (eight.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * g);
            }
            if word != 0 {
                self.or_word(pos + 64 * k, word);
            }
        }
    }

    /// The words, row `64 * w + j` at bit `j` of word `w`.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Test the bit for `row`.
    pub fn get(&self, row: usize) -> bool {
        row < self.len && self.words[row / 64] & (1 << (row % 64)) != 0
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// In-place intersection. Panics if universes differ.
    pub fn and(&mut self, other: &RowIdBitmap) {
        assert_eq!(self.len, other.len, "bitmap universes differ");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place union. Panics if universes differ.
    pub fn or(&mut self, other: &RowIdBitmap) {
        assert_eq!(self.len, other.len, "bitmap universes differ");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place complement (within the universe).
    pub fn not(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.clear_tail();
    }

    /// Join bitmaps over adjacent row ranges into one over their union
    /// (part `i`'s row 0 follows part `i - 1`'s last row). Every part
    /// but the last must cover a multiple of 64 rows, so parts own
    /// whole words. Panics otherwise.
    pub fn concat(parts: impl IntoIterator<Item = RowIdBitmap>) -> RowIdBitmap {
        let mut out = RowIdBitmap::new(0);
        for part in parts {
            assert_eq!(out.len % 64, 0, "only the last part may end inside a word");
            out.len += part.len;
            out.words.extend(part.words);
        }
        out
    }

    /// Iterate over set row IDs in ascending order.
    pub fn iter(&self) -> SetBits<'_> {
        SetBits {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
            len: self.len,
        }
    }

    /// Append `base + row` for every set row, ascending: a full word
    /// appends its 64 ids as a run, any other its set bits.
    pub fn extend_ids(&self, base: u32, out: &mut Vec<u32>) {
        out.reserve(self.count());
        for (w, &word) in self.words.iter().enumerate() {
            let at = base + 64 * w as u32;
            if word == u64::MAX {
                out.extend(at..at + 64);
                continue;
            }
            let mut bits = word;
            while bits != 0 {
                out.push(at + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }

    /// Grow the universe to `new_len`, new bits unset.
    pub fn grow(&mut self, new_len: usize) {
        assert!(new_len >= self.len);
        self.len = new_len;
        self.words.resize(new_len.div_ceil(64), 0);
    }

    /// Heap footprint in bytes.
    pub fn payload_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

/// Iterator over the set bits of a [`RowIdBitmap`].
pub struct SetBits<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
    len: usize,
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                let row = self.word_idx * 64 + bit;
                return (row < self.len).then_some(row);
            }
            // Skip empty words in one sweep: a point seek's bitmap is
            // thousands of zero words around one set bit.
            let rest = self.words.get(self.word_idx + 1..).unwrap_or_default();
            let skip = rest.iter().position(|&w| w != 0)?;
            self.word_idx += 1 + skip;
            self.current = self.words[self.word_idx];
        }
    }
}

impl FromIterator<usize> for RowIdBitmap {
    /// Collect row IDs; the universe becomes `max + 1`.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let rows: Vec<usize> = iter.into_iter().collect();
        let len = rows.iter().max().map_or(0, |m| m + 1);
        let mut b = RowIdBitmap::new(len);
        for r in rows {
            b.set(r);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_count() {
        let mut b = RowIdBitmap::new(130);
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(128));
        assert_eq!(b.count(), 3);
        b.put(64, false);
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn iter_yields_ascending() {
        let mut b = RowIdBitmap::new(200);
        for r in [3usize, 64, 65, 127, 199] {
            b.set(r);
        }
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![3, 64, 65, 127, 199]);
    }

    #[test]
    fn boolean_algebra() {
        let mut a = RowIdBitmap::new(100);
        a.set_range(0, 50);
        let mut b = RowIdBitmap::new(100);
        b.set_range(25, 75);
        let mut i = a.clone();
        i.and(&b);
        assert_eq!(i.count(), 25);
        let mut u = a.clone();
        u.or(&b);
        assert_eq!(u.count(), 75);
        let mut n = a.clone();
        n.not();
        assert_eq!(n.count(), 50);
        assert!(n.get(99) && !n.get(0));
    }

    #[test]
    fn concat_joins_whole_words() {
        let mut a = RowIdBitmap::new(128);
        (0..128).step_by(3).for_each(|row| a.set(row));
        assert_eq!(a.count(), 43);
        let mut b = RowIdBitmap::new(70);
        b.set(0);
        b.set(69);
        let joined = RowIdBitmap::concat([a.clone(), b]);
        assert_eq!(joined.len(), 198);
        let expected: Vec<usize> = a.iter().chain([128, 197]).collect();
        assert_eq!(joined.iter().collect::<Vec<_>>(), expected);
        assert_eq!(RowIdBitmap::concat([]), RowIdBitmap::new(0));
    }

    #[test]
    fn extend_ids_appends_full_words_and_single_bits() {
        let mut b = RowIdBitmap::new(200);
        b.set_range(3, 131);
        b.set(199);
        let mut ids = vec![7];
        b.extend_ids(1000, &mut ids);
        let want: Vec<u32> = [7].into_iter().chain(1003..1131).chain([1199]).collect();
        assert_eq!(ids, want);
        assert_eq!(b.iter().collect::<Vec<_>>().len(), ids.len() - 1);
    }

    #[test]
    fn set_range_and_unaligned_words() {
        for (start, end) in [
            (0, 0),
            (5, 6),
            (3, 64),
            (60, 70),
            (64, 128),
            (1, 199),
            (130, 250),
        ] {
            let mut b = RowIdBitmap::new(200);
            b.set_range(start, end);
            let want: Vec<usize> = (start..end.min(200)).collect();
            assert_eq!(b.iter().collect::<Vec<_>>(), want, "{start}..{end}");
        }
        let mut b = RowIdBitmap::new(200);
        b.or_word(100, 0b1011 | 1 << 63);
        assert_eq!(b.iter().collect::<Vec<_>>(), [100, 101, 103, 163]);
        b.or_hits(5, &[1u32, 0, 1, 1], |v| v == 1);
        assert_eq!(b.iter().take(3).collect::<Vec<_>>(), [5, 7, 8]);
        b.put(7, false);
        b.put(9, true);
        assert_eq!(b.iter().take(3).collect::<Vec<_>>(), [5, 8, 9]);
    }

    #[test]
    fn all_set_respects_tail() {
        let b = RowIdBitmap::all_set(70);
        assert_eq!(b.count(), 70);
        assert!(!b.get(70));
        let mut n = b.clone();
        n.not();
        assert_eq!(n.count(), 0);
    }

    #[test]
    fn grow_keeps_existing_bits() {
        let mut b = RowIdBitmap::new(10);
        b.set(9);
        b.grow(100);
        assert!(b.get(9));
        assert!(!b.get(99));
        assert_eq!(b.len(), 100);
        b.set(99);
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn from_iterator() {
        let b: RowIdBitmap = [5usize, 1, 3].into_iter().collect();
        assert_eq!(b.len(), 6);
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![1, 3, 5]);
    }
}
