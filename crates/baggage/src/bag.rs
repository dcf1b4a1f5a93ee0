//! The baggage container.

use std::cell::Cell;
use std::sync::Arc;

use pivot_itc::Encoder;
use pivot_model::Tuple;

use crate::entry::{Entry, PackMode};
use crate::instance::{Entries, Id, Instance};
use crate::wire;
use crate::QueryId;

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

impl PackMeter {
    #[inline]
    fn absorb(&mut self, other: PackMeter) {
        self.tuples += other.tuples;
        self.values += other.values;
        self.truncated += other.truncated;
    }
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

/// The active entries of a baggage that has no [`Rest`].
static NO_ENTRIES: Entries = Entries::new();

/// What a baggage holds once something is packed into it, decoded into
/// it or retired past its first instance. An empty baggage has none of
/// it, which is what keeps the handle two pointers.
#[derive(Clone, Default, Debug)]
struct Rest {
    /// The active instance's entries.
    entries: Entries,
    /// The retired instances past [`Baggage::retired`], oldest first.
    retired: Vec<Arc<Instance>>,
    /// Cached serialized form; invalidated by mutation.
    bytes: Option<Arc<[u8]>>,
    /// Pack-cost counters (local to this handle; excluded from equality
    /// and from the wire form).
    meter: PackMeter,
}

/// A per-request container for packed tuples (paper Table 4).
///
/// See the [crate documentation](crate) for the full model. Bytes become
/// a `Baggage` only through [`Baggage::try_from_bytes`], which validates
/// them whole; serializing an unmodified baggage hands back those same
/// bytes without encoding.
///
/// A baggage is one *active* instance per branch plus the *retired*
/// instances inherited from earlier branch points. Only the active
/// instance is ever packed into. An instance is frozen when
/// [`Baggage::split`] retires it, and from then on every branch that
/// descends from the split holds the *same* allocation: splitting and
/// joining move reference counts, never tuples. The one writer a retired
/// instance can still meet is [`Baggage::clear_query`], which copies it
/// first if another handle shares it.
///
/// The handle itself is the oldest retired instance and one box for
/// everything else (DESIGN.md §5l), so creating, moving, splitting,
/// joining and dropping an empty one touches two null pointers. The
/// active instance has no identity: an instance gets one when it retires.
#[derive(Clone, Default, Debug)]
pub struct Baggage {
    /// The oldest retired instance; [`Rest::retired`] holds the others,
    /// and is empty while this is `None`.
    retired: Option<Arc<Instance>>,
    /// The active entries, the other retired instances, the byte cache
    /// and the meter.
    rest: Option<Box<Rest>>,
}

impl PartialEq for Baggage {
    /// Compares contents only: the byte cache and the meter are local to
    /// the handle.
    #[inline]
    fn eq(&self, other: &Baggage) -> bool {
        self.entries() == other.entries() && self.retired().eq(other.retired())
    }
}

impl Baggage {
    /// Creates an empty baggage for a new request.
    #[inline]
    pub const fn new() -> Baggage {
        Baggage {
            retired: None,
            rest: None,
        }
    }

    /// Deserializes a baggage (paper Table 4's `Deserialize`), rejecting
    /// malformed input whole: a bad version, a truncated or overlong
    /// field, or bytes left over after the last instance.
    ///
    /// Empty input is the empty baggage. The bytes are kept, so a
    /// forwarder that does not modify the baggage serializes it again
    /// without encoding. A peer that sends garbage gets `Err`, which the
    /// live runtime turns into a closed connection and a counted fault
    /// rather than silently dropped query state.
    #[inline]
    pub fn try_from_bytes(bytes: &[u8]) -> Result<Baggage, pivot_itc::DecodeError> {
        if bytes.is_empty() {
            return Ok(Baggage::new());
        }
        let mut bag = wire::decode(bytes)?;
        bag.rest_mut().bytes = Some(Arc::from(bytes));
        Ok(bag)
    }

    /// A baggage whose active entries are `entries`, as the wire carries
    /// them; the retired instances follow through [`Baggage::retire`].
    #[inline]
    pub(crate) fn decoded(entries: Entries) -> Baggage {
        Baggage {
            retired: None,
            rest: Some(Box::new(Rest {
                entries,
                ..Rest::default()
            })),
        }
    }

    /// Serializes the baggage, reusing the cached encoding when the baggage
    /// has not been modified since it was last encoded or decoded.
    ///
    /// An empty baggage serializes to zero bytes (paper §6.3: "By default,
    /// Pivot Tracing propagates an empty baggage with a serialized size of
    /// 0 bytes").
    pub fn to_bytes(&mut self) -> Arc<[u8]> {
        if let Some(bytes) = self.rest.as_ref().and_then(|rest| rest.bytes.as_ref()) {
            return Arc::clone(bytes);
        }
        if self.is_empty() {
            // Not cached in the handle: a second call finds the baggage
            // empty as cheaply as it would find cached bytes.
            return EMPTY.with(Arc::clone);
        }
        let bytes: Arc<[u8]> = SCRATCH.with(|scratch| {
            let mut enc = Encoder::reusing(scratch.take());
            wire::encode(self, &mut enc);
            let buf = enc.finish();
            let bytes = Arc::from(&buf[..]);
            scratch.set(buf);
            bytes
        });
        // Cached only where the box already is: a box made for the cache
        // would cost the allocation a second call saves.
        if let Some(rest) = self.rest.as_deref_mut() {
            rest.bytes = Some(Arc::clone(&bytes));
        }
        bytes
    }

    #[inline]
    fn touch(&mut self) {
        if let Some(rest) = self.rest.as_deref_mut() {
            rest.bytes = None;
        }
    }

    #[inline]
    fn rest_mut(&mut self) -> &mut Rest {
        self.rest.get_or_insert_with(Box::default)
    }

    /// The active instance's entries.
    #[inline]
    pub(crate) fn entries(&self) -> &Entries {
        self.rest.as_ref().map_or(&NO_ENTRIES, |rest| &rest.entries)
    }

    /// The retired instances, oldest first.
    #[inline]
    pub(crate) fn retired(&self) -> impl Iterator<Item = &Arc<Instance>> {
        self.retired
            .iter()
            .chain(self.rest.iter().flat_map(|rest| &rest.retired))
    }

    /// Every visible entry map in causal order: the retired instances'
    /// (oldest first), then the active one's.
    #[inline]
    fn entry_maps(&self) -> impl Iterator<Item = &Entries> {
        self.retired()
            .map(|instance| &instance.entries)
            .chain(std::iter::once(self.entries()))
    }

    /// Appends `instance` to the retired instances, as the newest.
    #[inline]
    pub(crate) fn retire(&mut self, instance: Arc<Instance>) {
        match self.retired {
            None => self.retired = Some(instance),
            Some(_) => self.rest_mut().retired.push(instance),
        }
    }

    /// Retires `instance` unless this exact allocation, or after a wire
    /// hop a copy of it (the same id), is already held.
    fn adopt(&mut self, instance: Arc<Instance>) {
        let held = self
            .retired()
            .any(|mine| Arc::ptr_eq(mine, &instance) || mine.id == instance.id);
        if !held {
            self.retire(instance);
        }
    }

    /// Returns `true` if nothing is packed anywhere in this baggage.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rest
            .as_ref()
            .is_none_or(|rest| rest.entries.holds_no_tuples())
            && self.retired().all(|instance| instance.is_empty())
    }

    /// Packs tuples for `query` into the active instance (paper Table 2's
    /// `Pack` / `FIRST` / `RECENT` semantics are selected by `mode`).
    pub fn pack<I>(&mut self, query: QueryId, mode: &PackMode, tuples: I)
    where
        I: IntoIterator<Item = Tuple>,
    {
        self.touch();
        // FIRST counts tuples already visible in the causal past (retired
        // instances) so re-packing on a later branch cannot duplicate it.
        let already_first = match mode {
            PackMode::First(_) => self.retired().map(|i| i.count_for(query)).sum::<usize>(),
            _ => 0,
        };
        for t in tuples {
            let rest = self.rest_mut();
            rest.meter.tuples += 1;
            rest.meter.values += t.len() as u64;
            rest.meter.truncated += rest.entries.pack(query, mode, t, already_first) as u64;
        }
    }

    /// Returns this handle's pack-cost counters (see [`PackMeter`]).
    #[inline]
    pub fn meter(&self) -> PackMeter {
        self.rest
            .as_ref()
            .map_or_else(PackMeter::default, |rest| rest.meter)
    }

    /// Retrieves all tuples packed for `query`, combined across every
    /// visible instance according to the query's pack mode.
    ///
    /// Grouped entries come back as `(key…, Value::Agg(state)…)` rows whose
    /// partial states downstream aggregation must combine.
    #[inline]
    pub fn unpack(&self, query: QueryId) -> Vec<Tuple> {
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
    pub fn unpack_view(&self, query: QueryId) -> Unpacked<'_> {
        // Instances in causal order: retired (oldest first), then active.
        // The iterator is consumed lazily so the hot path — zero or one
        // matching entry — never allocates; only the multi-instance slow
        // path collects.
        let mut it = self
            .entry_maps()
            .filter_map(|entries| entries.get(query))
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

    /// Public for tests in other crates.
    ///
    /// Returns how many tuples are currently retained for `query`.
    pub fn tuple_count(&self, query: QueryId) -> usize {
        self.entry_maps()
            .filter_map(|entries| entries.get(query))
            .map(Entry::len)
            .sum()
    }

    /// Public for integration tests.
    ///
    /// Returns the total number of retained tuples across all queries.
    pub fn total_tuples(&self) -> usize {
        self.entry_maps()
            .flat_map(Entries::values)
            .map(Entry::len)
            .sum()
    }

    /// Splits this baggage for a branching execution (paper §5).
    ///
    /// The current active instance, if anything is packed in it, is
    /// retired to the inactive set (visible to both branches) under an id
    /// minted here; each branch gets a fresh active instance. Tuples packed
    /// on one branch are invisible to the sibling until [`Baggage::join`].
    /// With nothing packed, nothing is retired and no id is minted.
    pub fn split(&mut self) -> Baggage {
        if let Some(rest) = self.rest.as_deref_mut() {
            rest.bytes = None;
            let entries = std::mem::take(&mut rest.entries);
            if !entries.holds_no_tuples() {
                // Every copy of the retired instance, here or past a wire
                // hop, carries this id, so a join tells it from another
                // branch's instance with equal contents.
                let id = Id::mint();
                self.retire(Arc::new(Instance { id, entries }));
            }
        }
        Baggage {
            retired: self.retired.clone(),
            rest: self
                .rest
                .as_ref()
                .filter(|rest| !rest.retired.is_empty())
                .map(|rest| {
                    Box::new(Rest {
                        retired: rest.retired.clone(),
                        ..Rest::default()
                    })
                }),
        }
    }

    /// Merges baggage from two joining executions (paper §5).
    ///
    /// The active instances merge (entry-wise, honouring pack modes);
    /// retired instances from both sides are unioned, a copy of one
    /// already held (the same id) discarded.
    pub fn join(&mut self, other: Baggage) {
        let Baggage { retired, rest } = other;
        if retired.is_none() && rest.is_none() {
            // Nothing packed and nothing retired on the other side.
            return;
        }
        self.touch();
        if let Some(instance) = retired {
            self.adopt(instance);
        }
        let Some(mut theirs) = rest else {
            // Nothing was packed on the other side, and at most one
            // instance retired.
            return;
        };
        let tail = std::mem::take(&mut theirs.retired);
        match self.rest.as_deref_mut() {
            None => {
                // Nothing packed here: the joined entries and pack costs
                // are theirs, box and all.
                theirs.bytes = None;
                self.rest = Some(theirs);
            }
            Some(mine) => {
                // Fold the joining branch's pack costs into this handle so
                // the request's total is preserved across joins, and count
                // any tuples the All-cap truncates while the actives merge.
                mine.meter.absorb(theirs.meter);
                mine.meter.truncated += mine.entries.merge(theirs.entries) as u64;
            }
        }
        for instance in tail {
            self.adopt(instance);
        }
    }

    /// Drops every tuple packed for `query` (used on query uninstall).
    pub fn clear_query(&mut self, query: QueryId) {
        if let Some(rest) = self.rest.as_deref_mut() {
            rest.bytes = None;
            rest.entries.remove(query);
            rest.retired.retain_mut(|instance| clear(instance, query));
        }
        if self
            .retired
            .as_mut()
            .is_some_and(|instance| !clear(instance, query))
        {
            // The oldest instance left moves into the handle.
            self.retired = self
                .rest
                .as_deref_mut()
                .filter(|rest| !rest.retired.is_empty())
                .map(|rest| rest.retired.remove(0));
        }
    }
}

/// Drops `query` from a retired instance (copying it first if another
/// handle shares it) and says whether anything is left in it.
fn clear(instance: &mut Arc<Instance>, query: QueryId) -> bool {
    if instance.entries.get(query).is_some() {
        Arc::make_mut(instance).entries.remove(query);
    }
    !instance.is_empty()
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
        let back = Baggage::try_from_bytes(&bytes).unwrap();
        assert_eq!(back.unpack(Q), vec![t(7)]);
    }

    #[test]
    fn unmodified_forward_keeps_the_received_bytes() {
        let mut bag = Baggage::new();
        bag.pack(Q, &PackMode::All, [t(1)]);
        let bytes = bag.to_bytes();
        let mut fwd = Baggage::try_from_bytes(&bytes).unwrap();
        // Reading does not invalidate the cache: the forwarder hands on
        // the bytes it received, encoding nothing.
        assert_eq!(fwd.unpack(Q), vec![t(1)]);
        let out = fwd.to_bytes();
        assert_eq!(out, bytes);
        assert!(Arc::ptr_eq(&out, &fwd.to_bytes()));
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
        let mut hop = Baggage::try_from_bytes(&bytes).unwrap();
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
    fn corrupt_bytes_are_refused() {
        assert!(Baggage::try_from_bytes(&[0xff, 0x01, 0x02]).is_err());
    }

    #[test]
    fn unpack_missing_query_is_empty() {
        let bag = Baggage::new();
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
        let hop = Baggage::try_from_bytes(&bytes).unwrap();
        assert_eq!(hop.meter(), PackMeter::default());
    }
}
