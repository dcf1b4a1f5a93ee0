//! The baggage container.

use std::borrow::Cow;
use std::cell::Cell;
use std::sync::Arc;

use pivot_itc::{Encoder, Stamp};
use pivot_model::Tuple;

use crate::entry::{Entry, PackMode};
use crate::instance::Instance;
use crate::wire;
use crate::QueryId;

/// The decoded representation: one active instance per branch plus the
/// inactive instances inherited from earlier branch points.
///
/// Only the active instance is ever packed into. An instance is frozen
/// when [`Baggage::split`] retires it, and from then on every branch that
/// descends from the split holds the *same* allocation: splitting and
/// joining move reference counts, never tuples. The one writer a retired
/// instance can still meet is [`Baggage::clear_query`], which copies it
/// first if another handle shares it.
#[derive(Clone, PartialEq, Debug)]
pub(crate) struct Live {
    pub(crate) active: Instance,
    pub(crate) inactive: Retired,
}

impl Live {
    #[inline]
    fn new() -> Live {
        Live {
            active: Instance::new(Stamp::seed()),
            inactive: Retired::default(),
        }
    }

    /// Decodes a lazily adopted buffer. A malformed baggage (corruption
    /// in transit) degrades to empty rather than failing the carrying
    /// request.
    fn adopt(bytes: &[u8]) -> Live {
        wire::decode(bytes).unwrap_or_else(|_| Live::new())
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.active.is_empty() && self.inactive.iter().all(|i| i.is_empty())
    }

    /// Every visible instance in causal order: retired (oldest first),
    /// then the active one.
    #[inline]
    fn instances(&self) -> impl Iterator<Item = &Instance> {
        self.inactive
            .iter()
            .map(|i| &**i)
            .chain(std::iter::once(&self.active))
    }
}

/// The retired instances of one baggage, oldest first.
///
/// The first [`Retired::INLINE`] sit in the handle itself, so the request
/// paths measured in DESIGN.md §5l — one retired instance alive at a
/// time — branch and join without allocating a list.
#[derive(Clone, Default, PartialEq, Debug)]
pub(crate) struct Retired {
    /// Filled front to back; `tail` is used only once these are full.
    head: [Option<Arc<Instance>>; Retired::INLINE],
    tail: Vec<Arc<Instance>>,
}

impl Retired {
    const INLINE: usize = 2;

    #[inline]
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Arc<Instance>> {
        self.head.iter().flatten().chain(&self.tail)
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.iter().count()
    }

    #[inline]
    pub(crate) fn push(&mut self, instance: Arc<Instance>) {
        match self.head.iter_mut().find(|slot| slot.is_none()) {
            Some(slot) => *slot = Some(instance),
            None => self.tail.push(instance),
        }
    }

    /// Whether this exact allocation, or after a wire hop an equal copy
    /// of it, is already held.
    fn holds(&self, instance: &Arc<Instance>) -> bool {
        self.iter()
            .any(|mine| Arc::ptr_eq(mine, instance) || mine == instance)
    }

    /// Drops `query` from every instance (copying an instance another
    /// handle shares) and forgets the instances left empty.
    fn clear_query(&mut self, query: QueryId) {
        let mut kept = Retired::default();
        for mut instance in std::mem::take(self).into_instances() {
            if instance.entries.contains_key(&query) {
                Arc::make_mut(&mut instance).entries.remove(&query);
            }
            if !instance.is_empty() {
                kept.push(instance);
            }
        }
        *self = kept;
    }

    fn into_instances(self) -> impl Iterator<Item = Arc<Instance>> {
        self.head.into_iter().flatten().chain(self.tail)
    }
}

/// Pack-side cost counters for one baggage handle.
///
/// The runtime overload governor charges each query for the baggage work
/// its advice performs; the meter is the cheap, always-consistent tally it
/// reads deltas from around each advice program. It is *local state of
/// this handle* — it is not serialized, does not travel on the wire, and
/// never participates in baggage equality.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct PackMeter {
    /// Tuples passed to `pack` on this handle.
    pub tuples: u64,
    /// Values (tuple fields) passed to `pack` on this handle.
    pub values: u64,
    /// Tuples truncated by the `All`-mode hard cap
    /// ([`crate::entry::ALL_TUPLE_CAP`]), on pack or on join-merge.
    pub truncated: u64,
}

/// The result of [`Baggage::unpack_view`]: unpacked tuples, borrowed
/// straight out of the baggage entry when no cross-instance combination
/// was needed. Dereferences to `[Tuple]` either way.
#[derive(Debug)]
pub enum Unpacked<'a> {
    /// A zero-copy view over the entry's stored tuples.
    Borrowed(&'a [Tuple]),
    /// Materialized tuples (grouped merge, multi-instance combination,
    /// or an empty result).
    Owned(Vec<Tuple>),
}

impl std::ops::Deref for Unpacked<'_> {
    type Target = [Tuple];

    #[inline]
    fn deref(&self) -> &[Tuple] {
        match self {
            Unpacked::Borrowed(s) => s,
            Unpacked::Owned(v) => v,
        }
    }
}

impl Unpacked<'_> {
    /// Converts into an owned vector (cloning only the borrowed case).
    pub fn into_owned(self) -> Vec<Tuple> {
        match self {
            Unpacked::Borrowed(s) => s.to_vec(),
            Unpacked::Owned(v) => v,
        }
    }

    /// Mutable access, converting a borrowed view into owned storage on
    /// first use (for in-place temporal filtering).
    pub fn to_mut(&mut self) -> &mut Vec<Tuple> {
        if let Unpacked::Borrowed(s) = self {
            *self = Unpacked::Owned(s.to_vec());
        }
        match self {
            Unpacked::Owned(v) => v,
            Unpacked::Borrowed(_) => unreachable!("just converted"),
        }
    }
}

thread_local! {
    /// What [`Baggage::to_bytes`] hands out for an empty baggage — the
    /// header of every request no query packs into. Per thread, so it is
    /// allocated once and its reference count is not a cache line every
    /// worker's requests write.
    static EMPTY: Arc<[u8]> = Arc::from([]);
    /// Where [`Baggage::to_bytes`] encodes before it copies into the one
    /// exactly sized allocation the caller shares; kept so the next
    /// encoding on this thread does not allocate it again.
    static SCRATCH: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// A per-request container for packed tuples (paper Table 4).
///
/// See the [crate documentation](crate) for the full model. `Baggage` is
/// **lazy**: constructing it from bytes does not decode, and serializing an
/// unmodified baggage reuses the original bytes, so pure forwarders pay
/// almost nothing.
#[derive(Clone, Debug)]
pub struct Baggage {
    /// Decoded state; `None` until first access after `from_bytes`.
    live: Option<Live>,
    /// Cached serialized form; invalidated by mutation.
    bytes: Option<Arc<[u8]>>,
    /// Pack-cost counters (local to this handle; excluded from equality
    /// and from the wire form).
    meter: PackMeter,
}

impl Default for Baggage {
    #[inline]
    fn default() -> Baggage {
        Baggage::new()
    }
}

impl PartialEq for Baggage {
    fn eq(&self, other: &Baggage) -> bool {
        // Compare decoded forms, decoding aside only a side that is still
        // lazy (`eq` has no `&mut` to cache the result through).
        fn decoded(bag: &Baggage) -> Cow<'_, Live> {
            match &bag.live {
                Some(live) => Cow::Borrowed(live),
                None => Cow::Owned(Live::adopt(
                    bag.bytes.as_ref().expect("live or bytes must be set"),
                )),
            }
        }
        decoded(self) == decoded(other)
    }
}

impl Baggage {
    /// Creates an empty baggage for a new request.
    #[inline]
    pub fn new() -> Baggage {
        Baggage {
            live: Some(Live::new()),
            bytes: None,
            meter: PackMeter::default(),
        }
    }

    /// Adopts a serialized baggage **without decoding it**.
    ///
    /// Decoding happens lazily on the first [`Baggage::pack`],
    /// [`Baggage::unpack`], [`Baggage::split`], or [`Baggage::join`]. Empty
    /// input yields an empty baggage.
    #[inline]
    pub fn from_bytes(bytes: &[u8]) -> Baggage {
        if bytes.is_empty() {
            return Baggage::new();
        }
        Baggage {
            live: None,
            bytes: Some(Arc::from(bytes)),
            meter: PackMeter::default(),
        }
    }

    /// Adopts a serialized baggage, decoding it **eagerly** and rejecting
    /// malformed input.
    ///
    /// [`Baggage::from_bytes`] is the right call on a request path — it is
    /// lazy and degrades corruption to an empty baggage so the carrying
    /// request survives. Transport boundaries that receive baggage from
    /// untrusted peers (the live TCP runtime) instead want corruption
    /// *surfaced*, so the connection can be closed and the fault counted
    /// rather than silently dropping query state.
    #[inline]
    pub fn try_from_bytes(bytes: &[u8]) -> Result<Baggage, pivot_itc::DecodeError> {
        if bytes.is_empty() {
            return Ok(Baggage::new());
        }
        let live = wire::decode(bytes)?;
        Ok(Baggage {
            live: Some(live),
            bytes: Some(Arc::from(bytes)),
            meter: PackMeter::default(),
        })
    }

    /// Serializes the baggage, reusing the cached encoding when the baggage
    /// has not been modified since it was last encoded or decoded.
    ///
    /// An empty baggage serializes to zero bytes (paper §6.3: "By default,
    /// Pivot Tracing propagates an empty baggage with a serialized size of
    /// 0 bytes").
    pub fn to_bytes(&mut self) -> Arc<[u8]> {
        if let Some(bytes) = &self.bytes {
            return Arc::clone(bytes);
        }
        let live = self.live.as_ref().expect("live or bytes must be set");
        if live.is_empty() {
            // Not cached in the handle: a second call finds the baggage
            // empty as cheaply as it would find cached bytes.
            return EMPTY.with(Arc::clone);
        }
        let bytes: Arc<[u8]> = SCRATCH.with(|scratch| {
            let mut enc = Encoder::reusing(scratch.take());
            wire::encode(live, &mut enc);
            let buf = enc.finish();
            let bytes = Arc::from(&buf[..]);
            scratch.set(buf);
            bytes
        });
        self.bytes = Some(Arc::clone(&bytes));
        bytes
    }

    /// Returns the serialized size in bytes without caching side effects
    /// beyond the internal encode cache.
    #[inline]
    pub fn serialized_len(&mut self) -> usize {
        self.to_bytes().len()
    }

    #[inline]
    pub(crate) fn ensure_live(&mut self) -> &mut Live {
        if self.live.is_none() {
            self.adopt();
        }
        self.live.as_mut().expect("just set")
    }

    /// The first access after [`Baggage::from_bytes`].
    #[inline(never)]
    fn adopt(&mut self) {
        let bytes = self.bytes.as_ref().expect("live or bytes set");
        self.live = Some(Live::adopt(bytes));
    }

    #[inline]
    fn touch(&mut self) {
        self.bytes = None;
    }

    /// Returns `true` if nothing is packed anywhere in this baggage.
    #[inline]
    pub fn is_empty(&mut self) -> bool {
        self.ensure_live().is_empty()
    }

    /// Packs tuples for `query` into the active instance (paper Table 2's
    /// `Pack` / `FIRST` / `RECENT` semantics are selected by `mode`).
    pub fn pack<I>(&mut self, query: QueryId, mode: &PackMode, tuples: I)
    where
        I: IntoIterator<Item = Tuple>,
    {
        self.ensure_live();
        self.touch();
        let live = self.live.as_mut().expect("ensured");
        // FIRST counts tuples already visible in the causal past (inactive
        // instances) so re-packing on a later branch cannot duplicate it.
        let already_first = match mode {
            PackMode::First(_) => live
                .inactive
                .iter()
                .map(|i| i.count_for(query))
                .sum::<usize>(),
            _ => 0,
        };
        for t in tuples {
            self.meter.tuples += 1;
            self.meter.values += t.len() as u64;
            self.meter.truncated += live.active.pack(query, mode, t, already_first) as u64;
        }
    }

    /// Returns this handle's pack-cost counters (see [`PackMeter`]).
    #[inline]
    pub fn meter(&self) -> PackMeter {
        self.meter
    }

    /// Retrieves all tuples packed for `query`, combined across every
    /// visible instance according to the query's pack mode.
    ///
    /// Grouped entries come back as `(key…, Value::Agg(state)…)` rows whose
    /// partial states downstream aggregation must combine.
    #[inline]
    pub fn unpack(&mut self, query: QueryId) -> Vec<Tuple> {
        self.unpack_view(query).into_owned()
    }

    /// Like [`Baggage::unpack`], but borrows the stored tuples when it
    /// can instead of materializing a fresh `Vec`.
    ///
    /// The common hot-path shape — one non-grouped entry for the query
    /// (no live branches, single pack site) — returns
    /// [`Unpacked::Borrowed`], a zero-copy slice over the entry's own
    /// storage. Multi-instance combination and grouped merges still
    /// materialize ([`Unpacked::Owned`]); the result is identical to
    /// `unpack` either way.
    pub fn unpack_view(&mut self, query: QueryId) -> Unpacked<'_> {
        let live = self.ensure_live();
        // Instances in causal order: inactive (oldest first), then active.
        // The iterator is consumed lazily so the hot path — zero or one
        // matching entry — never allocates; only the multi-instance slow
        // path collects.
        let mut it = live
            .instances()
            .filter_map(|i| i.entries.get(&query))
            .filter(|e| !e.is_empty());
        let Some(first) = it.next() else {
            return Unpacked::Owned(Vec::new());
        };
        // An empty tail collects without allocating, so the lone-entry
        // case stays heap-free end to end.
        let rest: Vec<&Entry> = it.collect();
        if rest.is_empty() {
            // Packing bounds each entry to its mode's limit, so a lone
            // entry needs no cross-instance truncation: its slice *is*
            // the unpack result.
            if let Some(slice) = first.tuple_slice() {
                return Unpacked::Borrowed(slice);
            }
        }
        let mut found: Vec<&Entry> = Vec::with_capacity(1 + rest.len());
        found.push(first);
        found.extend(rest);
        Unpacked::Owned(match first.mode() {
            mode @ PackMode::GroupAgg { .. } => {
                let mut merged = Entry::new(mode);
                for e in &found {
                    merged.merge(e);
                }
                merged.tuples()
            }
            &PackMode::First(n) => {
                let mut out: Vec<Tuple> = found.iter().flat_map(|e| e.tuples()).collect();
                out.truncate(n);
                out
            }
            &PackMode::Recent(n) => {
                let all: Vec<Tuple> = found.iter().flat_map(|e| e.tuples()).collect();
                let skip = all.len().saturating_sub(n.max(1));
                all[skip..].to_vec()
            }
            PackMode::All => found.iter().flat_map(|e| e.tuples()).collect(),
        })
    }

    /// Returns how many tuples are currently retained for `query`.
    pub fn tuple_count(&mut self, query: QueryId) -> usize {
        self.ensure_live()
            .instances()
            .map(|i| i.count_for(query))
            .sum()
    }

    /// Returns the total number of retained tuples across all queries.
    pub fn total_tuples(&mut self) -> usize {
        self.ensure_live()
            .instances()
            .flat_map(|i| i.entries.values())
            .map(Entry::len)
            .sum()
    }

    /// Splits this baggage for a branching execution (paper §5).
    ///
    /// The current active instance is retired to the inactive set (visible
    /// to both branches); each branch gets a fresh active instance whose
    /// interval tree identity is one half of the divided identity. Tuples
    /// packed on one branch are invisible to the sibling until
    /// [`Baggage::join`].
    pub fn split(&mut self) -> Baggage {
        self.ensure_live();
        self.touch();
        let live = self.live.as_mut().expect("ensured");
        let (mut s1, mut s2) = live.active.stamp.fork();
        // Record an event on each half so sibling stamps are distinct from
        // each other and from any ancestor.
        s1.event();
        s2.event();
        let mut retired = std::mem::replace(&mut live.active, Instance::new(s1));
        if !retired.is_empty() {
            // Anonymize the retired instance's identity: once copies of
            // it cross the wire they carry the identical peek stamp,
            // making post-join dedup exact.
            retired.stamp = retired.stamp.peek();
            live.inactive.push(Arc::new(retired));
        }
        Baggage {
            live: Some(Live {
                active: Instance::new(s2),
                inactive: live.inactive.clone(),
            }),
            bytes: None,
            meter: PackMeter::default(),
        }
    }

    /// Merges baggage from two joining executions (paper §5).
    ///
    /// The active instances merge (entry-wise, honouring pack modes) under
    /// the joined identity; inactive instances from both sides are unioned
    /// with duplicates discarded.
    pub fn join(&mut self, mut other: Baggage) {
        self.ensure_live();
        self.touch();
        other.ensure_live();
        let other_live = other.live.expect("ensured");
        // Fold the joining branch's pack costs into this handle so the
        // request's total is preserved across joins, and count any tuples
        // the All-cap truncates while the actives merge.
        self.meter.tuples += other.meter.tuples;
        self.meter.values += other.meter.values;
        self.meter.truncated += other.meter.truncated;
        let live = self.live.as_mut().expect("ensured");
        live.active.stamp = live.active.stamp.join(&other_live.active.stamp);
        self.meter.truncated += live.active.merge_entries(other_live.active) as u64;
        for instance in other_live.inactive.into_instances() {
            if !live.inactive.holds(&instance) {
                live.inactive.push(instance);
            }
        }
    }

    /// Drops every tuple packed for `query` (used on query uninstall).
    pub fn clear_query(&mut self, query: QueryId) {
        self.ensure_live();
        self.touch();
        let live = self.live.as_mut().expect("ensured");
        live.active.entries.remove(&query);
        live.inactive.clear_query(query);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_model::{AggFunc, Value};

    fn t(v: i64) -> Tuple {
        Tuple::from_iter([Value::I64(v)])
    }

    const Q: QueryId = QueryId(1);

    #[test]
    fn empty_serializes_to_zero_bytes() {
        let mut bag = Baggage::new();
        assert_eq!(bag.to_bytes().len(), 0);
    }

    #[test]
    fn pack_unpack_round_trip() {
        let mut bag = Baggage::new();
        bag.pack(Q, &PackMode::All, [t(1), t(2)]);
        assert_eq!(bag.unpack(Q), vec![t(1), t(2)]);
    }

    #[test]
    fn serialize_deserialize_preserves_contents() {
        let mut bag = Baggage::new();
        bag.pack(Q, &PackMode::First(1), [t(7)]);
        let bytes = bag.to_bytes();
        assert!(!bytes.is_empty());
        let mut back = Baggage::from_bytes(&bytes);
        assert_eq!(back.unpack(Q), vec![t(7)]);
    }

    #[test]
    fn lazy_from_bytes_does_not_decode() {
        let mut bag = Baggage::new();
        bag.pack(Q, &PackMode::All, [t(1)]);
        let bytes = bag.to_bytes();
        let mut fwd = Baggage::from_bytes(&bytes);
        // Forwarding without access keeps the bytes cached verbatim.
        assert!(fwd.live.is_none());
        assert_eq!(fwd.to_bytes(), bytes);
        assert!(fwd.live.is_none());
    }

    #[test]
    fn mutation_invalidates_byte_cache() {
        let mut bag = Baggage::new();
        bag.pack(Q, &PackMode::All, [t(1)]);
        let a = bag.to_bytes();
        bag.pack(Q, &PackMode::All, [t(2)]);
        let b = bag.to_bytes();
        assert_ne!(a, b);
    }

    #[test]
    fn branch_isolation_until_join() {
        let mut main = Baggage::new();
        main.pack(Q, &PackMode::All, [t(0)]);
        let mut side = main.split();
        main.pack(Q, &PackMode::All, [t(1)]);
        side.pack(Q, &PackMode::All, [t(2)]);
        // Each branch sees the pre-branch tuple plus only its own.
        assert_eq!(main.unpack(Q), vec![t(0), t(1)]);
        assert_eq!(side.unpack(Q), vec![t(0), t(2)]);
        main.join(side);
        let mut all = main.unpack(Q);
        all.sort_by_key(|x| x.get(0).as_i64());
        assert_eq!(all, vec![t(0), t(1), t(2)]);
    }

    #[test]
    fn join_dedups_shared_ancestors() {
        let mut main = Baggage::new();
        main.pack(Q, &PackMode::All, [t(0)]);
        let side = main.split();
        main.join(side);
        // The pre-branch tuple must appear exactly once.
        assert_eq!(main.unpack(Q), vec![t(0)]);
    }

    #[test]
    fn nested_branches() {
        let mut root = Baggage::new();
        root.pack(Q, &PackMode::All, [t(0)]);
        let mut b1 = root.split();
        let mut b1a = b1.split();
        b1.pack(Q, &PackMode::All, [t(1)]);
        b1a.pack(Q, &PackMode::All, [t(2)]);
        b1.join(b1a);
        root.join(b1);
        let mut all = root.unpack(Q);
        all.sort_by_key(|x| x.get(0).as_i64());
        assert_eq!(all, vec![t(0), t(1), t(2)]);
    }

    #[test]
    fn first_across_branch_is_single() {
        let mut main = Baggage::new();
        main.pack(Q, &PackMode::First(1), [t(1)]);
        let mut side = main.split();
        // The branch packs FIRST again; the causal past already has one.
        side.pack(Q, &PackMode::First(1), [t(2)]);
        assert_eq!(side.unpack(Q), vec![t(1)]);
        main.join(side);
        assert_eq!(main.unpack(Q), vec![t(1)]);
    }

    #[test]
    fn recent_prefers_latest() {
        let mut bag = Baggage::new();
        bag.pack(Q, &PackMode::Recent(1), [t(1)]);
        let bytes = bag.to_bytes();
        let mut hop = Baggage::from_bytes(&bytes);
        hop.pack(Q, &PackMode::Recent(1), [t(2)]);
        assert_eq!(hop.unpack(Q), vec![t(2)]);
    }

    #[test]
    fn grouped_pack_merges_across_hops() {
        let mode = PackMode::GroupAgg {
            key_len: 1,
            aggs: vec![AggFunc::Count],
        };
        let row = |k: &str| Tuple::from_iter([Value::str(k), Value::Null]);
        let mut main = Baggage::new();
        main.pack(Q, &mode, [row("x")]);
        let mut side = main.split();
        side.pack(Q, &mode, [row("x"), row("y")]);
        main.join(side);
        let out = main.unpack(Q);
        assert_eq!(out.len(), 2);
        let x = out
            .iter()
            .find(|t| t.get(0) == &Value::str("x"))
            .expect("group x");
        assert_eq!(x.get(1).as_agg().unwrap().finish(), Value::U64(2));
    }

    #[test]
    fn multiple_queries_coexist() {
        let q2 = QueryId(2);
        let mut bag = Baggage::new();
        bag.pack(Q, &PackMode::All, [t(1)]);
        bag.pack(q2, &PackMode::All, [t(9)]);
        assert_eq!(bag.unpack(Q), vec![t(1)]);
        assert_eq!(bag.unpack(q2), vec![t(9)]);
        bag.clear_query(Q);
        assert!(bag.unpack(Q).is_empty());
        assert_eq!(bag.unpack(q2), vec![t(9)]);
    }

    #[test]
    fn corrupt_bytes_degrade_to_empty() {
        let mut bag = Baggage::from_bytes(&[0xff, 0x01, 0x02]);
        assert!(bag.unpack(Q).is_empty());
    }

    #[test]
    fn unpack_missing_query_is_empty() {
        let mut bag = Baggage::new();
        assert!(bag.unpack(QueryId(99)).is_empty());
    }

    #[test]
    fn meter_counts_packs_and_survives_join() {
        let mut main = Baggage::new();
        main.pack(Q, &PackMode::All, [t(1), t(2)]);
        assert_eq!(
            main.meter(),
            PackMeter {
                tuples: 2,
                values: 2,
                truncated: 0
            }
        );
        let mut side = main.split();
        side.pack(
            Q,
            &PackMode::All,
            [Tuple::from_iter([Value::I64(3), Value::I64(4)])],
        );
        assert_eq!(side.meter().tuples, 1);
        assert_eq!(side.meter().values, 2);
        main.join(side);
        assert_eq!(main.meter().tuples, 3);
        assert_eq!(main.meter().values, 4);
    }

    #[test]
    fn unpack_view_borrows_single_entry() {
        let mut bag = Baggage::new();
        bag.pack(Q, &PackMode::All, [t(1), t(2)]);
        let view = bag.unpack_view(Q);
        assert!(matches!(view, Unpacked::Borrowed(_)));
        assert_eq!(&*view, &[t(1), t(2)][..]);
    }

    #[test]
    fn unpack_view_matches_unpack_across_branches() {
        // Multi-instance and grouped cases fall back to owned, and every
        // case agrees with `unpack` exactly.
        let mut main = Baggage::new();
        main.pack(Q, &PackMode::All, [t(0)]);
        let mut side = main.split();
        side.pack(Q, &PackMode::All, [t(2)]);
        main.join(side);
        let owned = main.unpack(Q);
        let view = main.unpack_view(Q);
        assert!(matches!(view, Unpacked::Owned(_)));
        assert_eq!(&*view, &owned[..]);

        let mode = PackMode::GroupAgg {
            key_len: 1,
            aggs: vec![AggFunc::Count],
        };
        let q2 = QueryId(2);
        let mut bag = Baggage::new();
        bag.pack(
            q2,
            &mode,
            [Tuple::from_iter([Value::str("x"), Value::Null])],
        );
        assert!(matches!(bag.unpack_view(q2), Unpacked::Owned(_)));
        let a = bag.unpack(q2);
        assert_eq!(&*bag.unpack_view(q2), &a[..]);
    }

    #[test]
    fn unpack_view_to_mut_converts_without_changing_contents() {
        let mut bag = Baggage::new();
        bag.pack(Q, &PackMode::All, [t(5), t(6)]);
        let mut view = bag.unpack_view(Q);
        view.to_mut().retain(|x| x.get(0).as_i64() == Some(6));
        assert_eq!(&*view, &[t(6)][..]);
        // The underlying baggage is untouched by view mutation.
        assert_eq!(bag.unpack(Q), vec![t(5), t(6)]);
    }

    #[test]
    fn meter_counts_all_cap_truncation() {
        use crate::entry::ALL_TUPLE_CAP;
        let mut bag = Baggage::new();
        bag.pack(Q, &PackMode::All, (0..ALL_TUPLE_CAP as i64 + 5).map(t));
        assert_eq!(bag.meter().truncated, 5);
        assert_eq!(bag.tuple_count(Q), ALL_TUPLE_CAP);
        // The meter is handle-local: it never reaches the wire.
        let bytes = bag.to_bytes();
        let hop = Baggage::from_bytes(&bytes);
        assert_eq!(hop.meter(), PackMeter::default());
    }
}
