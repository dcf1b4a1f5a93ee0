//! The group table every tier folds grouped partials into — the agent's
//! interval, a relay's window, the frontend's totals — and the body of a
//! grouped report between them (DESIGN.md §5n). Every [`AggState`] merge
//! is associative and commutative and every function's `init()` is its
//! identity (`tests/merge_props.rs`), so a tier may fold in any order, and
//! a key it has not seen takes a partial as it is.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::mem;

use pivot_model::{AggFunc, AggState, Cols, Value};

use crate::hash::Seeded;

/// Grouped partial aggregates in first-seen order, with a hash index over
/// the keys that a decoded partial, only ever folded *from*, never builds.
///
/// Group `g` is a run of `key_width` values in one vector and a run of
/// `width` accumulators in another. One shape — both widths — per table: a
/// partial of another shape does not [`fit`](Groups::fits), and the tiers
/// discard it whole. A table holding no groups takes the shape of the
/// first group folded into it.
#[derive(Clone, Default)]
pub struct Groups {
    /// Groups held: a key of width 0 (a global aggregate) or a group of no
    /// accumulators leaves its vector empty.
    len: usize,
    key_width: usize,
    /// `key_width` values per group, in first-seen order.
    keys: Vec<Value>,
    width: usize,
    /// `width` accumulators per group, in the order of `keys`.
    states: Vec<AggState>,
    seed: Seeded,
    /// Open addressing, linear probing: empty until the first probe, then
    /// a power of two at least twice the groups. A slot is the key's hash
    /// and the group's position, `hash << 32 | group + 1`, or 0 when free.
    slots: Vec<u64>,
    /// Set, while [`Groups::merge`] runs, on the groups it has met, to tell
    /// a partial that repeats a key.
    met: Vec<bool>,
}

impl Groups {
    /// The groups of a decoded frame, as they came: `len` groups split
    /// `keys` and `states` into runs of one width each, group `g`'s key
    /// first. A hostile frame may repeat a key; folding *from* this table
    /// merges the repeat.
    ///
    /// # Panics
    ///
    /// When `len` groups do not split a vector evenly.
    pub fn from_flat(len: usize, keys: Vec<Value>, states: Vec<AggState>) -> Groups {
        let per_group = |cells: usize| {
            let width = cells.checked_div(len).unwrap_or(0);
            assert_eq!(width * len, cells, "{cells} cells over {len} groups");
            width
        };
        Groups {
            len,
            key_width: per_group(keys.len()),
            keys,
            width: per_group(states.len()),
            states,
            ..Groups::default()
        }
    }

    /// Accumulators per group.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Values per key.
    #[inline]
    pub fn key_width(&self) -> usize {
        self.key_width
    }

    /// Number of groups.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the table holds no group.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The keys, in first-seen order.
    pub fn keys(&self) -> impl DoubleEndedIterator<Item = &[Value]> {
        (0..self.len).map(|g| self.key(g))
    }

    /// Each group's key and accumulators, in first-seen order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (&[Value], &[AggState])> {
        (0..self.len).map(|g| (self.key(g), self.row(g)))
    }

    /// Whether `other` may be folded in: one shape per table, none yet in
    /// an empty one.
    pub fn fits(&self, other: &Groups) -> bool {
        other.is_empty() || self.takes(other.shape())
    }

    /// The accumulators of `key`'s group, after one probe. A key not seen
    /// yet is cloned in as a group born from `init` — unless the table
    /// holds `cap` groups already, or groups of another shape than `key`
    /// and `init`, either of which refuses it (`None`): new groups are
    /// refused in the order they arrive, existing ones never.
    pub fn fold(
        &mut self,
        key: &dyn Cols,
        cap: usize,
        init: &[AggFunc],
    ) -> Option<&mut [AggState]> {
        let hash = self.hash(key);
        let shape = (key.width(), init.len());
        // Virtual calls on the borrowed side only: the stored key is a slice.
        let same =
            |k: &[Value]| k.len() == shape.0 && k.iter().zip(0..).all(|(v, i)| *v == *key.col(i));
        let group = match self.find(hash, same) {
            Ok(group) => group,
            Err(_) if self.len >= cap || !self.takes(shape) => return None,
            Err(at) => {
                self.adopt(shape);
                let cloned = (0..shape.0).map(|i| key.col(i).into_owned());
                self.insert(at, hash, cloned, init.iter().map(|f| f.init()))
            }
        };
        Some(self.row_mut(group))
    }

    /// Folds `other` in by reference, cloning a key only when its group is
    /// born here. Returns whether `other`'s keys were distinct — `false`
    /// when two met one group, which only a damaged or hostile frame holds
    /// (the repeat merges as if it had come in a second partial).
    ///
    /// # Panics
    ///
    /// When `other` does not [`fit`](Groups::fits): a receiver checks
    /// that first and discards the partial.
    pub fn merge(&mut self, other: &Groups) -> bool {
        if !other.is_empty() {
            self.adopt(other.shape());
        }
        let mut met = mem::take(&mut self.met);
        let mut distinct = true;
        for (key, states) in other.iter() {
            let hash = self.hash(key);
            let group = match self.find(hash, |k| k == key) {
                Ok(group) => {
                    merge_row(self.row_mut(group), states.iter());
                    group
                }
                Err(at) => self.insert(at, hash, key.iter().cloned(), states.iter().cloned()),
            };
            met.resize(self.len, false);
            distinct &= !mem::replace(&mut met[group], true);
        }
        met.fill(false);
        self.met = met;
        distinct
    }

    /// Folds `other` in by move: a key this table lacks moves in with its
    /// accumulators, one it holds merges them in place.
    ///
    /// # Panics
    ///
    /// When `other` does not [`fit`](Groups::fits).
    pub fn absorb(&mut self, mut other: Groups) {
        let (key_width, width) = other.shape();
        if !other.is_empty() {
            self.adopt((key_width, width));
        }
        let mut states = other.states.into_iter();
        for g in 0..other.len {
            let key = &mut other.keys[g * key_width..][..key_width];
            let hash = self.hash(&*key);
            match self.find(hash, |k| *k == *key) {
                Ok(group) => merge_row(self.row_mut(group), states.by_ref().take(width)),
                Err(at) => {
                    let moved = key.iter_mut().map(mem::take);
                    _ = self.insert(at, hash, moved, states.by_ref().take(width));
                }
            }
        }
    }

    /// Moves the groups out in first-seen order, leaving the index and
    /// vectors as large as the ones handed over for the next interval.
    pub fn take(&mut self) -> Groups {
        let (values, cells) = (self.keys.len(), self.states.len());
        let keys = mem::replace(&mut self.keys, Vec::with_capacity(values));
        let states = mem::replace(&mut self.states, Vec::with_capacity(cells));
        self.slots.fill(0);
        Groups::from_flat(mem::take(&mut self.len), keys, states)
    }

    /// Moves the groups out in key order (`pivot_model::Value`'s, a shorter
    /// key before one it begins) by sorting a permutation, not the groups;
    /// the table keeps its vectors and index for the next window.
    pub fn take_sorted(&mut self) -> Groups {
        let mut order: Vec<u32> = (0..self.len as u32).collect();
        order.sort_unstable_by_key(|&g| self.key(g as usize));
        let (key_width, width) = self.shape();
        let mut keys = Vec::with_capacity(self.keys.len());
        let mut states = Vec::with_capacity(self.states.len());
        for g in order.into_iter().map(|g| g as usize) {
            let key = self.keys[g * key_width..][..key_width].iter_mut();
            keys.extend(key.map(mem::take));
            let row = self.states[g * width..][..width].iter_mut();
            states.extend(row.map(|s| mem::replace(s, AggState::Count(0))));
        }
        self.keys.clear();
        self.states.clear();
        self.slots.fill(0);
        Groups::from_flat(mem::take(&mut self.len), keys, states)
    }

    /// Probes per lookup over the table's groups, 1 for a group filed where
    /// its hash points.
    #[cfg(test)]
    pub(crate) fn mean_probe(&self) -> f64 {
        let mask = self.slots.len() - 1;
        let filed = self.slots.iter().enumerate().filter(|(_, &s)| s != 0);
        let displaced: usize = filed
            .map(|(at, &s)| at.wrapping_sub((s >> 32) as usize) & mask)
            .sum();
        1.0 + displaced as f64 / self.len as f64
    }

    fn shape(&self) -> (usize, usize) {
        (self.key_width, self.width)
    }

    fn key(&self, group: usize) -> &[Value] {
        &self.keys[group * self.key_width..][..self.key_width]
    }

    fn row(&self, group: usize) -> &[AggState] {
        &self.states[group * self.width..][..self.width]
    }

    fn row_mut(&mut self, group: usize) -> &mut [AggState] {
        &mut self.states[group * self.width..][..self.width]
    }

    /// Whether groups of `shape` may join: one shape per table.
    fn takes(&self, shape: (usize, usize)) -> bool {
        self.is_empty() || self.shape() == shape
    }

    /// Takes `shape`, which a table holding groups has already.
    fn adopt(&mut self, shape: (usize, usize)) {
        assert!(self.takes(shape), "one shape per table");
        (self.key_width, self.width) = shape;
    }

    /// A stored `[Value]` key hashes as its width, then its values — the
    /// sequence a `&dyn Cols` view of it hashes (`order_props.rs`), so a
    /// probe by either finds the other. Both halves folded: one
    /// multiply-fold leaves the low half nearly alike for integers that
    /// differ only above bit 32, clustering a probe.
    fn hash(&self, key: impl Hash) -> u32 {
        let h = self.seed.hash_one(key);
        (h ^ (h >> 32)) as u32
    }

    /// The group `eq` accepts under `hash`, or the free slot that ends the
    /// probe; the index is built on the first probe.
    fn find(&mut self, hash: u32, eq: impl Fn(&[Value]) -> bool) -> Result<usize, usize> {
        if self.slots.is_empty() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            match self.slots[at] {
                0 => return Err(at),
                slot if (slot >> 32) as u32 == hash && eq(self.key(slot as u32 as usize - 1)) => {
                    return Ok(slot as u32 as usize - 1)
                }
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Doubles the index (16 slots at least), refiling each group by the
    /// hash its slot keeps; the first time, hashes what the table holds.
    fn grow(&mut self) {
        let size = (2 * (self.len + 1)).next_power_of_two().max(16);
        let mut old = mem::replace(&mut self.slots, vec![0; size]);
        if old.is_empty() {
            old = (0..self.len)
                .map(|g| slot(self.hash(self.key(g)), g))
                .collect();
        }
        for filed in old.into_iter().filter(|&s| s != 0) {
            let at = self
                .find((filed >> 32) as u32, |_| false)
                .expect_err("a free slot");
            self.slots[at] = filed;
        }
    }

    /// Files a new group — its key's values, its accumulators — at the
    /// free slot `at`, and grows the index when that left it more than
    /// half full.
    fn insert(
        &mut self,
        at: usize,
        hash: u32,
        key: impl Iterator<Item = Value>,
        states: impl Iterator<Item = AggState>,
    ) -> usize {
        let group = self.len;
        self.slots[at] = slot(hash, group);
        self.keys.extend(key);
        self.states.extend(states);
        self.len += 1;
        if 2 * self.len > self.slots.len() {
            self.grow();
        }
        group
    }
}

/// An index slot: never 0, which marks a free one.
fn slot(hash: u32, group: usize) -> u64 {
    u64::from(hash) << 32 | (group as u64 + 1)
}

/// `mine[i] ⊕= theirs[i]`, the paper's `Combine`.
fn merge_row<S: Borrow<AggState>>(mine: &mut [AggState], theirs: impl Iterator<Item = S>) {
    for (m, s) in mine.iter_mut().zip(theirs) {
        m.merge(s.borrow());
    }
}

/// Groups equal group by group, in order; the index is not compared.
impl PartialEq for Groups {
    fn eq(&self, other: &Groups) -> bool {
        self.len == other.len && self.keys == other.keys && self.states == other.states
    }
}

impl fmt::Debug for Groups {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}
