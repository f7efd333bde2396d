//! A fast, non-cryptographic hasher for engine-internal hash tables.
//!
//! The default `SipHash13` behind `std::collections::HashMap` is
//! keyed/DoS-resistant but costs tens of cycles per word — pure
//! overhead for the executor's join/aggregation tables and Hive's
//! map-side aggregation, whose keys come from the engine, not the
//! network. This is the
//! multiply-rotate scheme popularized by rustc's `FxHasher`: one
//! rotate, one xor and one multiply per 8 input bytes, plus one
//! finalising mix in `finish()`.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher (rustc `FxHasher` scheme).
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    /// The multiply only carries input bits upward, and hashbrown takes
    /// the bucket from the low bits and the control byte from the top 7.
    /// A `Value::Int` hashes as the bit pattern of its `f64` — ≥ 32
    /// trailing zeros — so the raw state has the same low half for every
    /// integer key and the table degenerates to one probe chain. Fold the
    /// high half down, multiply once more so the top bits see every input
    /// bit, and fold again.
    #[inline]
    fn finish(&self) -> u64 {
        let h = (self.hash ^ (self.hash >> 32)).wrapping_mul(SEED);
        h ^ (h >> 32)
    }
}

/// `BuildHasher` for [`FxHasher`]-backed maps.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_discriminating() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_ne!(hash_of(&42u64), hash_of(&43u64));
        assert_ne!(hash_of(&"abc"), hash_of(&"abd"));
        // Unaligned tails must contribute.
        assert_ne!(hash_of(&"123456789"), hash_of(&"123456780"));
    }

    /// Hashbrown indexes buckets by the low bits and tags slots with the
    /// top 7: a key family must spread over both.
    fn assert_spreads<T: Hash>(family: &str, keys: impl Iterator<Item = T>) {
        let mut low = std::collections::HashSet::new();
        let mut top = std::collections::HashSet::new();
        let mut n = 0usize;
        for k in keys {
            let h = hash_of(&k);
            low.insert(h & 0x1_FFFF);
            top.insert(h >> 57);
            n += 1;
        }
        let want = n.min(1 << 17) * 6 / 10;
        assert!(
            low.len() >= want,
            "{family}: {} distinct low-17-bit values over {n} keys, want >= {want}",
            low.len()
        );
        assert_eq!(top.len(), 128, "{family}: control bits");
    }

    #[test]
    fn numeric_and_date_keys_spread_over_buckets_and_control_bits() {
        use crate::{Date, Value};
        assert_spreads("int", (1..=200_000).map(Value::Int));
        assert_spreads("int x4", (1..=200_000).map(|i| Value::Int(i * 4)));
        assert_spreads("int x32", (1..=200_000).map(|i| Value::Int(i * 32)));
        assert_spreads("double", (1..=200_000).map(|i| Value::Double(i as f64)));
        assert_spreads("date", (0..20_000).map(|d| Value::Date(Date(d))));
        assert_spreads("group key", (1..=200_000).map(|i| vec![Value::Int(i)]));
    }

    #[test]
    fn int_and_integral_double_hash_equal() {
        use crate::Value;
        let two53 = 1i64 << 53;
        for n in [0, 1, 2, -7, two53, -two53] {
            assert_eq!(hash_of(&Value::Int(n)), hash_of(&Value::Double(n as f64)));
        }
        assert_eq!(hash_of(&Value::Int(0)), hash_of(&Value::Double(-0.0)));
    }

    #[test]
    fn works_as_map_hasher() {
        let mut m: FxHashMap<Vec<i64>, usize> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(vec![i, i * 2], i as usize);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&vec![7, 14]], 7);
    }
}
