//! The hasher of the hot-path tables: tracepoint name → site plan in an
//! agent's registry, and group key → accumulators in every group table
//! ([`crate::Groups`]) at agent, relay and frontend.
//!
//! All of them are probed once per row, and SipHash costs more per probe
//! than the fold it guards. This is one 64×64→128-bit multiply per word,
//! folded (the mixing step of wyhash/foldhash), started from a per-table
//! random seed taken from the standard library's `RandomState`, so bucket
//! order stays unpredictable from outside the process. It is not
//! collision-resistant against an adversary who can watch timing.
//!
//! At the agent the keys are the process's own exports, and what bounds a
//! hostile key stream is what bounds an honest key explosion, the
//! per-query row cap (`pivot_core::agent::DEFAULT_ROW_CAP`). At the relay
//! and the frontend the keys come off the network. There every table
//! draws its own seed — each interval's, each window's, the cumulative
//! one — so a key set that collides in one table does not in the next,
//! and a peer that cannot time the process cannot aim at any of them.
//! What a peer *can* do there is send many distinct keys, colliding or
//! not: a table grows with what it is sent, and bounding that is memory
//! policy at the collecting tiers (ROADMAP item 8), not the hasher's job.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// Hands out [`FoldHasher`]s that start from this table's seed.
#[derive(Clone)]
pub struct Seeded(u64);

impl Default for Seeded {
    fn default() -> Seeded {
        Seeded(RandomState::new().hash_one(0u8))
    }
}

impl BuildHasher for Seeded {
    type Hasher = FoldHasher;

    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher(self.0)
    }
}

/// A `HashMap` hashed by [`FoldHasher`] from a per-map seed.
pub type SeededMap<K, V> = std::collections::HashMap<K, V, Seeded>;

/// The multiply-fold hasher [`Seeded`] builds.
pub struct FoldHasher(u64);

impl Hasher for FoldHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut tail = bytes;
        while let Some((word, rest)) = tail.split_first_chunk() {
            self.write_u64(u64::from_le_bytes(*word));
            tail = rest;
        }
        // The tail, zero-padded, with its length on top so "a" and "a\0"
        // differ.
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

    use pivot_model::{Tuple, Value};

    use crate::Groups;

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

    /// A group table's index places a key by a few low bits of its folded
    /// hash: keys that differ only high up or only at the end — integers
    /// above bit 32, strings in their last character (past the 22 bytes a
    /// `Value` holds inline) — must still land a probe or two from home.
    #[test]
    fn near_keys_keep_the_group_index_probes_short() {
        let mean_probe = |keys: &mut dyn Iterator<Item = Value>| {
            let mut groups = Groups::default();
            for v in keys {
                groups.fold(&Tuple::from_iter([v]), usize::MAX, &[]);
            }
            assert_eq!(groups.len(), 1 << 16);
            groups.mean_probe()
        };
        let ints = mean_probe(&mut (0..1u64 << 16).map(|i| Value::U64(i << 32)));
        let stem = "a-shared-prefix-longer-than-a-word-or-two/";
        let plane_1 = (0x1_0000..0x2_0000).filter_map(char::from_u32);
        let strs = mean_probe(&mut plane_1.map(|c| Value::str(format!("{stem}{c}"))));
        assert!(ints <= 2.0 && strs <= 2.0, "mean probes {ints} and {strs}");
    }
}
