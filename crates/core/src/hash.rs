//! The hasher of the agent's hot-path maps: tracepoint name → site plan
//! and group key → aggregation state.
//!
//! Both are probed on every woven event, and SipHash costs more per probe
//! than the fold it guards. This is one 64×64→128-bit multiply per word,
//! folded (the mixing step of wyhash/foldhash), started from a per-map
//! random seed taken from the standard library's `RandomState`, so bucket
//! order stays unpredictable from outside the process. It is not
//! collision-resistant against an adversary who can watch timing; what
//! bounds a hostile key stream is what bounds an honest key explosion, the
//! per-query row cap ([`crate::agent::DEFAULT_ROW_CAP`]).

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// Hands out [`FoldHasher`]s that start from this map's seed.
pub(crate) struct Seeded(u64);

impl Default for Seeded {
    fn default() -> Seeded {
        Seeded(RandomState::new().hash_one(0u8))
    }
}

impl BuildHasher for Seeded {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher(self.0)
    }
}

pub(crate) type SeededMap<K, V> = std::collections::HashMap<K, V, Seeded>;

pub(crate) struct FoldHasher(u64);

impl Hasher for FoldHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("chunks of 8")));
        }
        // The tail, zero-padded, with its length on top so "a" and "a\0"
        // differ.
        let tail = words.remainder();
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        last[7] = tail.len() as u8;
        self.write_u64(u64::from_le_bytes(last));
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let m = u128::from(self.0 ^ n) * 0x9e37_79b9_7f4a_7c15_u128;
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }

    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// hashbrown takes the bucket from a hash's low bits and the control
    /// byte from its top seven: neither may be constant over small
    /// integers or over strings that differ in their last byte.
    #[test]
    fn near_keys_spread_over_both_ends_of_the_hash() {
        let seed = Seeded::default();
        let keys = (0..256u64).flat_map(|i| [seed.hash_one(i), seed.hash_one(format!("k{i:03}"))]);
        let (low, top): (HashSet<u64>, HashSet<u64>) = keys.map(|h| (h & 0xff, h >> 57)).unzip();
        assert!(
            low.len() > 150 && top.len() > 90,
            "{} {}",
            low.len(),
            top.len()
        );
        assert_ne!(seed.hash_one("a"), seed.hash_one("a\0"));
        assert_ne!(
            Seeded::default().0,
            Seeded::default().0,
            "seeds are per map"
        );
    }
}
