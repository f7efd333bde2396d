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

    /// Clear the bit for `row`.
    pub fn unset(&mut self, row: usize) {
        debug_assert!(row < self.len);
        self.words[row / 64] &= !(1 << (row % 64));
    }

    /// Set bits for `rows` in `[start, end)`.
    pub fn set_range(&mut self, start: usize, end: usize) {
        for row in start..end.min(self.len) {
            self.set(row);
        }
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

    /// Clear every set bit whose row fails `keep`.
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for (w, word) in self.words.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if !keep(w * 64 + bit) {
                    *word &= !(1 << bit);
                }
            }
        }
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
        b.unset(64);
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
    fn retain_and_concat() {
        let mut a = RowIdBitmap::all_set(128);
        a.retain(|row| row % 3 == 0);
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
