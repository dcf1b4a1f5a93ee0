//! Retired baggage instances, their identities and their entry maps.

use std::cell::Cell;
use std::hash::{BuildHasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use pivot_itc::{DecodeError, Decoder, Encoder};

use crate::entry::{Entry, PackMode};
use crate::QueryId;

/// One retired instance of a request's baggage.
///
/// Baggage holds one *active* instance per execution branch plus zero or
/// more *retired* instances inherited from before the most recent branch
/// points (paper §5). An instance gets its [`Id`] when [`crate::Baggage::split`]
/// retires it; every copy of it — shared by reference count in one
/// process, decoded from a header in another — carries that id, which is
/// what makes post-join deduplication exact. The active instance is not
/// one of these and has no identity: its entries sit behind the
/// [`crate::Baggage`] handle's box.
#[derive(Clone, PartialEq, Debug)]
pub(crate) struct Instance {
    /// Who retired the instance (DESIGN.md §5l "Instance identity").
    pub(crate) id: Id,
    /// Per-query packed tuples.
    pub(crate) entries: Entries,
}

impl Instance {
    /// Returns `true` if no query has packed anything here.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.holds_no_tuples()
    }

    /// Returns the number of tuples visible for `query` in this instance.
    #[inline]
    pub(crate) fn count_for(&self, query: QueryId) -> usize {
        self.entries.get(query).map_or(0, Entry::len)
    }
}

/// A retired instance's identity: the location (one thread of one
/// process) that retired it, and how many instances that location had
/// retired before.
///
/// Within a process two ids never meet: locations are handed out by one
/// counter, and a location retires at most 2³² instances before its
/// thread takes a fresh one. Across processes the locations start at a
/// random point, so two processes' ranges overlap with probability about
/// `(threads of both) / 2⁶⁴` (DESIGN.md §5l "Instance identity").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Id {
    location: u64,
    counter: u32,
}

thread_local! {
    /// This thread's location and its next counter; a counter of 0 takes
    /// a fresh location first, so a location serves 2³² ids and no more.
    static MINT: Cell<(u64, u32)> = const { Cell::new((0, 0)) };
}

impl Id {
    /// Bytes an id takes on the wire, whatever its value.
    pub(crate) const LEN: usize = 12;

    /// A new id, unique in this process and, but for the chance above,
    /// across processes.
    pub(crate) fn mint() -> Id {
        MINT.with(|mint| {
            let (mut location, counter) = mint.get();
            if counter == 0 {
                location = fresh_location();
            }
            mint.set((location, counter.wrapping_add(1)));
            Id { location, counter }
        })
    }

    #[inline]
    pub(crate) fn encode(self, enc: &mut Encoder) {
        enc.put_raw(&self.location.to_le_bytes());
        enc.put_raw(&self.counter.to_le_bytes());
    }

    #[inline]
    pub(crate) fn decode(dec: &mut Decoder<'_>) -> Result<Id, DecodeError> {
        let raw = dec.take_raw(Id::LEN)?;
        let (location, counter) = raw.split_at(8);
        Ok(Id {
            location: u64::from_le_bytes(location.try_into().expect("8 of 12 bytes")),
            counter: u32::from_le_bytes(counter.try_into().expect("4 of 12 bytes")),
        })
    }
}

/// The next location of this process: a random start, drawn once, plus
/// one more for every location handed out before.
#[cold]
fn fresh_location() -> u64 {
    static START: OnceLock<u64> = OnceLock::new();
    static HANDED_OUT: AtomicU64 = AtomicU64::new(0);
    // `RandomState` is keyed from the operating system's entropy.
    let start = *START.get_or_init(|| RandomState::new().hash_one(std::process::id()));
    start.wrapping_add(HANDED_OUT.fetch_add(1, Ordering::Relaxed))
}

/// Per-query entries, in ascending [`QueryId`] order (the wire order).
///
/// The first [`Entries::INLINE`] sit in the map itself, so an instance
/// holding the trace slot and one query's entry — what a woven `svc_*`
/// request carries — holds them without a node of their own (DESIGN.md
/// §5l).
#[derive(Clone, Default, PartialEq, Debug)]
pub(crate) struct Entries {
    /// The smallest keys, filled front to back; `tail` is used only once
    /// these are full.
    head: [Option<(QueryId, Entry)>; Entries::INLINE],
    /// The keys past the head, ascending.
    tail: Vec<(QueryId, Entry)>,
}

impl Entries {
    const INLINE: usize = 2;

    /// The empty map.
    pub(crate) const fn new() -> Entries {
        Entries {
            head: [None, None],
            tail: Vec::new(),
        }
    }

    /// Returns `true` if no entry holds a tuple.
    #[inline]
    pub(crate) fn holds_no_tuples(&self) -> bool {
        self.values().all(Entry::is_empty)
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.head.iter().flatten().count() + self.tail.len()
    }

    /// The entries in ascending query order.
    #[inline]
    pub(crate) fn iter(&self) -> impl Iterator<Item = &(QueryId, Entry)> {
        self.head.iter().flatten().chain(&self.tail)
    }

    #[inline]
    pub(crate) fn values(&self) -> impl Iterator<Item = &Entry> {
        self.iter().map(|(_, entry)| entry)
    }

    #[inline]
    pub(crate) fn get(&self, query: QueryId) -> Option<&Entry> {
        self.position(query).map(|at| &self.at(at).1)
    }

    /// Where `query` is in the ascending order, if it is here.
    fn position(&self, query: QueryId) -> Option<usize> {
        match self.head.iter().flatten().position(|(q, _)| *q == query) {
            Some(at) => Some(at),
            None => self
                .tail
                .binary_search_by_key(&query, |(q, _)| *q)
                .ok()
                .map(|at| Entries::INLINE + at),
        }
    }

    fn at(&self, at: usize) -> &(QueryId, Entry) {
        match self.head.get(at) {
            Some(slot) => slot.as_ref().expect("a position is a taken slot"),
            None => &self.tail[at - Entries::INLINE],
        }
    }

    fn at_mut(&mut self, at: usize) -> &mut (QueryId, Entry) {
        match self.head.get_mut(at) {
            Some(slot) => slot.as_mut().expect("a position is a taken slot"),
            None => &mut self.tail[at - Entries::INLINE],
        }
    }

    /// Sets `query`'s entry, replacing the one it had.
    pub(crate) fn insert(&mut self, query: QueryId, entry: Entry) {
        match self.position(query) {
            Some(at) => self.at_mut(at).1 = entry,
            None => self.insert_new(query, entry),
        }
    }

    /// Adds an entry for a query that has none.
    fn insert_new(&mut self, query: QueryId, entry: Entry) {
        // Each head slot keeps the smaller of what it holds and what is
        // carried past it; whatever is carried out is larger than the
        // whole head.
        let mut carried = (query, entry);
        for slot in &mut self.head {
            match slot {
                None => {
                    *slot = Some(carried);
                    return;
                }
                Some(held) if held.0 > carried.0 => std::mem::swap(held, &mut carried),
                Some(_) => {}
            }
        }
        let at = self.tail.partition_point(|(q, _)| *q < carried.0);
        self.tail.insert(at, carried);
    }

    /// Drops `query`'s entry, if there is one.
    pub(crate) fn remove(&mut self, query: QueryId) -> Option<Entry> {
        let at = self.position(query)?;
        let (_, entry) = if at < Entries::INLINE {
            let taken = self.head[at].take();
            // Close the gap, then refill the last slot from the tail.
            self.head[at..].rotate_left(1);
            if !self.tail.is_empty() {
                self.head[Entries::INLINE - 1] = Some(self.tail.remove(0));
            }
            taken.expect("a position is a taken slot")
        } else {
            self.tail.remove(at - Entries::INLINE)
        };
        Some(entry)
    }

    /// Packs one tuple for `query` under `mode`, creating its entry on
    /// first use. Returns the number of tuples truncated by the `All`-mode
    /// hard cap.
    pub(crate) fn pack(
        &mut self,
        query: QueryId,
        mode: &PackMode,
        tuple: pivot_model::Tuple,
        already_first: usize,
    ) -> usize {
        let at = match self.position(query) {
            Some(at) => at,
            None => {
                self.insert_new(query, Entry::new(mode));
                self.position(query).expect("just inserted")
            }
        };
        self.at_mut(at).1.pack(tuple, already_first)
    }

    /// Merges the entries of `other` into `self` (rejoining branches).
    /// Returns the number of tuples truncated by the `All`-mode hard cap.
    pub(crate) fn merge(&mut self, other: Entries) -> usize {
        let mut truncated = 0;
        for (q, entry) in other.head.into_iter().flatten().chain(other.tail) {
            match self.position(q) {
                Some(at) => truncated += self.at_mut(at).1.merge(&entry),
                None => self.insert_new(q, entry),
            }
        }
        truncated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_model::{Tuple, Value};

    fn keys(map: &Entries) -> Vec<u64> {
        map.iter().map(|(q, _)| q.0).collect()
    }

    fn pack(map: &mut Entries, q: u64) {
        map.pack(
            QueryId(q),
            &PackMode::All,
            Tuple::from_iter([Value::U64(q)]),
            0,
        );
    }

    #[test]
    fn any_insertion_and_removal_order_iterates_ascending() {
        // Five keys in, in each of four orders, then out, in each of the
        // four: the map reads ascending throughout, as a sorted reference
        // does, and ends equal to a map that never held anything.
        let orders: [[u64; 5]; 4] = [
            [1, 2, 3, 4, 5],
            [5, 4, 3, 2, 1],
            [3, 1, 5, 2, 4],
            [4, 5, 1, 3, 2],
        ];
        for order in orders {
            for removal in orders {
                let mut map = Entries::new();
                let mut model: Vec<u64> = Vec::new();
                for q in order {
                    pack(&mut map, q);
                    model.push(q);
                    model.sort_unstable();
                    assert_eq!(keys(&map), model);
                }
                for q in removal {
                    assert!(map.remove(QueryId(q)).is_some());
                    assert!(map.remove(QueryId(q)).is_none());
                    model.retain(|m| *m != q);
                    assert_eq!(keys(&map), model);
                    assert_eq!(map.len(), model.len());
                    for m in &model {
                        assert_eq!(map.get(QueryId(*m)).map(Entry::len), Some(1));
                    }
                }
                assert_eq!(map, Entries::new());
            }
        }
    }

    #[test]
    fn ids_are_distinct_across_threads_and_survive_the_wire() {
        let mut all: Vec<Id> = (0..4).map(|_| Id::mint()).collect();
        let there: Vec<Id> = std::thread::spawn(|| (0..4).map(|_| Id::mint()).collect())
            .join()
            .expect("minting thread");
        all.extend(&there);
        for (i, a) in all.iter().enumerate() {
            assert!(all[i + 1..].iter().all(|b| a != b), "{a:?} minted twice");
        }
        let mut enc = Encoder::new();
        for id in &all {
            id.encode(&mut enc);
        }
        let bytes = enc.finish();
        assert_eq!(bytes.len(), all.len() * Id::LEN);
        let mut dec = Decoder::new(&bytes);
        for id in &all {
            assert_eq!(Id::decode(&mut dec), Ok(*id));
        }
        assert!(Id::decode(&mut Decoder::new(&bytes[..Id::LEN - 1])).is_err());
    }

    #[test]
    fn equal_contents_are_equal_maps_whatever_the_history() {
        let mut a = Entries::new();
        for q in [3, 1, 2] {
            pack(&mut a, q);
        }
        let mut b = Entries::new();
        for q in [9, 2, 1, 3] {
            pack(&mut b, q);
        }
        b.remove(QueryId(9));
        assert_eq!(a, b);
    }
}
