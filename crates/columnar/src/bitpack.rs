//! Fixed-width bit packing for dictionary value IDs.
//!
//! The in-memory column store (§3.1 of the paper) stores each column as a
//! vector of dictionary value IDs packed to the minimum number of bits
//! needed for the dictionary's cardinality. This is the workhorse behind
//! the "factor of 10 vs. row-oriented storage" compression of Figure 2.

/// Rows per vectorized kernel block: bulk unpacking, block synopses and
/// skip-scans all operate on ranges of this many rows. A multiple of 64,
/// so block starts always fall on 64-bit word boundaries for every
/// element width (`64 * k * bits ≡ 0 (mod 64)`).
pub const BLOCK_ROWS: usize = 1024;

/// A vector of `len` unsigned integers, each `bits` wide, packed
/// contiguously into 64-bit words.
///
/// `bits == 0` is a valid degenerate case: every element is zero and no
/// payload is stored (this happens for single-value dictionaries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitPackedVec {
    bits: u8,
    len: usize,
    words: Vec<u64>,
}

impl BitPackedVec {
    /// Create an empty vector with the given element width (`0..=64`).
    pub fn with_width(bits: u8) -> BitPackedVec {
        assert!(bits <= 64, "element width must be at most 64 bits");
        BitPackedVec {
            bits,
            len: 0,
            words: Vec::new(),
        }
    }

    /// Pack a slice, choosing the minimal width for its maximum value.
    pub fn from_slice(values: &[u64]) -> BitPackedVec {
        let max = values.iter().copied().max().unwrap_or(0);
        let mut v = BitPackedVec::with_width(width_for(max));
        for &x in values {
            v.push(x);
        }
        v
    }

    /// The element width in bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a value. Panics if the value does not fit the width.
    pub fn push(&mut self, v: u64) {
        debug_assert!(
            self.bits == 64 || v < (1u64 << self.bits),
            "value {v} does not fit in {} bits",
            self.bits
        );
        if self.bits == 0 {
            self.len += 1;
            return;
        }
        let bit_pos = self.len * self.bits as usize;
        let word = bit_pos / 64;
        let off = bit_pos % 64;
        if word >= self.words.len() {
            self.words.push(0);
        }
        self.words[word] |= v << off;
        let spill = off + self.bits as usize;
        if spill > 64 {
            self.words.push(v >> (64 - off));
        }
        self.len += 1;
    }

    /// Read the element at `idx`. Panics on out-of-bounds.
    pub fn get(&self, idx: usize) -> u64 {
        assert!(
            idx < self.len,
            "index {idx} out of bounds (len {})",
            self.len
        );
        if self.bits == 0 {
            return 0;
        }
        let bit_pos = idx * self.bits as usize;
        let word = bit_pos / 64;
        let off = bit_pos % 64;
        let mask = if self.bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.bits) - 1
        };
        let mut v = self.words[word] >> off;
        let spill = off + self.bits as usize;
        if spill > 64 {
            v |= self.words[word + 1] << (64 - off);
        }
        v & mask
    }

    /// Iterate over all elements.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Bulk-unpack `out.len()` elements starting at `start` into `out`.
    ///
    /// This is the vectorized replacement for calling [`get`](Self::get)
    /// in a loop: the bit cursor advances monotonically, so the
    /// per-element bounds check, division and modulo disappear. For
    /// widths that divide 64 an aligned fast path unpacks a whole word
    /// per inner loop; any other width reads each element from the two
    /// words it may span as one 128-bit window, without a branch.
    ///
    /// Panics if `start + out.len()` exceeds the vector length.
    pub fn unpack_range<T: Unpacked>(&self, start: usize, out: &mut [T]) {
        let n = out.len();
        assert!(
            start.checked_add(n).is_some_and(|end| end <= self.len),
            "range {start}..{} out of bounds (len {})",
            start + n,
            self.len
        );
        if n == 0 {
            return;
        }
        let bits = self.bits as usize;
        if bits == 0 {
            out.fill(T::from_bits(0));
            return;
        }
        if bits == 64 {
            for (slot, &w) in out.iter_mut().zip(&self.words[start..start + n]) {
                *slot = T::from_bits(w);
            }
            return;
        }
        let mask = (1u64 << bits) - 1;
        let mut bit_pos = start * bits;
        if 64 % bits == 0 {
            // Aligned widths (1,2,4,8,16,32): elements never straddle a
            // word boundary. Walk the leading partial word elementwise,
            // then unpack `per_word` elements per full word.
            let per_word = 64 / bits;
            let mut i = 0;
            while i < n && !bit_pos.is_multiple_of(64) {
                out[i] = T::from_bits((self.words[bit_pos / 64] >> (bit_pos % 64)) & mask);
                bit_pos += bits;
                i += 1;
            }
            let mut word = bit_pos / 64;
            while n - i >= per_word {
                let mut w = self.words[word];
                for slot in &mut out[i..i + per_word] {
                    *slot = T::from_bits(w & mask);
                    w >>= bits;
                }
                word += 1;
                i += per_word;
            }
            let mut w = if i < n { self.words[word] } else { 0 };
            for slot in &mut out[i..n] {
                *slot = T::from_bits(w & mask);
                w >>= bits;
            }
            return;
        }
        // Unaligned widths: a single forward cursor. Every element that
        // starts before the last word reads it and the next as one
        // window; the few in the last word read that word alone.
        let last_word = self.words.len() - 1;
        for slot in out.iter_mut() {
            let word = bit_pos >> 6;
            let off = (bit_pos & 63) as u32;
            let v = if word < last_word {
                let window = (self.words[word + 1] as u128) << 64 | self.words[word] as u128;
                (window >> off) as u64
            } else {
                self.words[word] >> off
            };
            *slot = T::from_bits(v & mask);
            bit_pos += bits;
        }
    }

    /// Unpack elements `start..end` into a freshly allocated `Vec`.
    pub fn get_range(&self, start: usize, end: usize) -> Vec<u64> {
        assert!(start <= end, "range start {start} > end {end}");
        let mut out = vec![0u64; end - start];
        self.unpack_range(start, &mut out);
        out
    }

    /// Heap footprint of the packed payload in bytes.
    pub fn payload_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

/// An element type [`BitPackedVec::unpack_range`] writes: `u64`, or
/// `u32` for value IDs, which never need more bits.
pub trait Unpacked: Copy {
    /// The element holding `bits`.
    fn from_bits(bits: u64) -> Self;
}

impl Unpacked for u64 {
    #[inline]
    fn from_bits(bits: u64) -> u64 {
        bits
    }
}

impl Unpacked for u32 {
    #[inline]
    fn from_bits(bits: u64) -> u32 {
        bits as u32
    }
}

/// Minimal width able to represent `max`.
pub fn width_for(max: u64) -> u8 {
    if max == 0 {
        0
    } else {
        (64 - max.leading_zeros()) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_calculation() {
        assert_eq!(width_for(0), 0);
        assert_eq!(width_for(1), 1);
        assert_eq!(width_for(2), 2);
        assert_eq!(width_for(255), 8);
        assert_eq!(width_for(256), 9);
        assert_eq!(width_for(u64::MAX), 64);
    }

    #[test]
    fn round_trip_odd_widths() {
        for bits in [1u8, 3, 7, 13, 31, 33, 63, 64] {
            let mask = if bits == 64 {
                u64::MAX
            } else {
                (1 << bits) - 1
            };
            let vals: Vec<u64> = (0..200u64).map(|i| (i * 0x9E37_79B9) & mask).collect();
            let mut v = BitPackedVec::with_width(bits);
            for &x in &vals {
                v.push(x);
            }
            assert_eq!(v.len(), vals.len());
            for (i, &x) in vals.iter().enumerate() {
                assert_eq!(v.get(i), x, "bits={bits} idx={i}");
            }
            assert_eq!(v.iter().collect::<Vec<_>>(), vals);
        }
    }

    #[test]
    fn zero_width_stores_nothing() {
        let v = BitPackedVec::from_slice(&[0, 0, 0]);
        assert_eq!(v.bits(), 0);
        assert_eq!(v.len(), 3);
        assert_eq!(v.payload_bytes(), 0);
        assert_eq!(v.get(2), 0);
    }

    #[test]
    fn from_slice_picks_minimal_width() {
        let v = BitPackedVec::from_slice(&[0, 5, 2]);
        assert_eq!(v.bits(), 3);
        // 3 elements * 3 bits = 9 bits -> one word.
        assert_eq!(v.payload_bytes(), 8);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        BitPackedVec::from_slice(&[1]).get(1);
    }

    #[test]
    fn unpack_range_matches_get_all_widths() {
        for bits in [0u8, 1, 2, 3, 4, 7, 8, 13, 16, 31, 32, 33, 63, 64] {
            let mask = if bits == 64 {
                u64::MAX
            } else if bits == 0 {
                0
            } else {
                (1 << bits) - 1
            };
            let vals: Vec<u64> = (0..BLOCK_ROWS as u64 + 70)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask)
                .collect();
            let mut v = BitPackedVec::with_width(bits);
            for &x in &vals {
                v.push(x);
            }
            for (start, n) in [
                (0usize, vals.len()),
                (0, BLOCK_ROWS),
                (BLOCK_ROWS, 70),
                (1, 130),
                (63, 66),
                (5, 0),
            ] {
                let mut out = vec![0u64; n];
                v.unpack_range(start, &mut out);
                for (k, &got) in out.iter().enumerate() {
                    assert_eq!(got, v.get(start + k), "bits={bits} start={start} k={k}");
                }
            }
            assert_eq!(
                v.get_range(3, 40),
                (3..40).map(|i| v.get(i)).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn unpack_range_out_of_bounds_panics() {
        let v = BitPackedVec::from_slice(&[1, 2, 3]);
        let mut out = [0u64; 4];
        v.unpack_range(1, &mut out);
    }
}
