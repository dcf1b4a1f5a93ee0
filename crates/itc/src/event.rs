//! ITC event trees.

use std::cmp::Ordering;
use std::fmt;

use crate::buf::{skip, Buf, Cell};
use crate::encode::{DecodeError, Decoder, Encoder, MAX_DEPTH};
use crate::id::{self, Id};

/// Inline cells: a tree of up to four leaves — two levels of unjoined
/// forks — in 72 bytes. The `svc_*` request path and the simulated Hadoop
/// stack never hold more than 3 cells (DESIGN.md §5l), so their stamps
/// never touch the heap.
const INLINE: usize = 7;

type Cells = Buf<u64, INLINE>;

/// The largest count a cell — and any root-to-leaf sum of cells — holds.
/// The low bit of a cell says whether it is a node, which leaves 63.
const MAX_COUNT: u64 = u64::MAX >> 1;

fn leaf(n: u64) -> u64 {
    n << 1
}

fn node(n: u64) -> u64 {
    n << 1 | 1
}

fn is_node(cell: u64) -> bool {
    cell & 1 == 1
}

impl Cell for u64 {
    #[inline]
    fn branches(self) -> bool {
        is_node(self)
    }
}

fn count(cell: u64) -> u64 {
    cell >> 1
}

/// The two halves of a leaf seen as the node `(n, 0, 0)`: `join` and
/// `grow` read them from here when one side has a leaf where the other
/// side, or the identity, branches.
const HALVES: [u64; 2] = [0, 0];

/// An ITC event tree: a compact representation of how many events each
/// sub-interval of the identity space has witnessed.
///
/// A leaf says every position of its interval has witnessed `n` events; an
/// interior node adds a base count to whatever its halves say. Event trees
/// are kept in *normal form*: a node whose children are equal leaves
/// collapses into a single leaf, and interior values are *lifted* so that
/// at least one child has a zero base — equal histories have equal cells.
/// Counts are 63-bit: decoding refuses more and [`Event::event`] stops
/// counting there.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Event(Cells);

/// The largest count under the subtree at `at`, relative to its parent.
fn max_at(cells: &[u64], at: &mut usize) -> u64 {
    let cell = cells[*at];
    *at += 1;
    if is_node(cell) {
        count(cell) + max_at(cells, at).max(max_at(cells, at))
    } else {
        count(cell)
    }
}

/// Restores normal form at the node whose header sits at `at`, whose left
/// child follows it and whose right child starts at `right`: equal leaves
/// fold into the header, otherwise the smaller child base moves up.
fn close(out: &mut Cells, at: usize, right: usize) {
    let cells = &mut out[at..];
    let (l, r) = (cells[1], cells[right - at]);
    if l == r && !is_node(l) {
        cells[0] = leaf(count(cells[0]) + count(l));
        out.truncate(at + 1);
    } else {
        let lifted = leaf(count(l).min(count(r)));
        cells[0] += lifted;
        cells[1] -= lifted;
        cells[right - at] -= lifted;
    }
}

impl Event {
    /// Returns the zero event tree.
    #[inline]
    pub fn zero() -> Event {
        Event(Cells::of(leaf(0)))
    }

    /// Builds a normalized interior node.
    ///
    /// # Panics
    ///
    /// Panics if a position would have witnessed more than 2⁶³ − 1 events.
    pub fn node(n: u64, left: Event, right: Event) -> Event {
        assert!(
            n <= MAX_COUNT - left.max().max(right.max()),
            "event count exceeds 63 bits"
        );
        let mut out = Cells::of(node(n));
        out.extend(&left.0);
        let at = out.len();
        out.extend(&right.0);
        close(&mut out, 0, at);
        Event(out)
    }

    /// Returns the minimum event count witnessed anywhere.
    #[inline]
    pub fn min(&self) -> u64 {
        // Normal form keeps a zero base under every node, so the root's
        // count is the minimum.
        count(self.0[0])
    }

    /// Returns the maximum event count witnessed anywhere.
    pub fn max(&self) -> u64 {
        max_at(&self.0, &mut 0)
    }

    /// Returns `true` if `self` is causally dominated by `other`
    /// (every position witnessed no more events in `self` than in `other`).
    #[inline]
    pub fn leq(&self, other: &Event) -> bool {
        leq_at(&self.0, &mut 0, 0, &other.0, &mut 0, 0)
    }

    /// Merges two event trees, taking the pointwise maximum (ITC *join*).
    #[inline]
    pub fn join(&self, other: &Event) -> Event {
        let mut out = Cells::new();
        join_at(&self.0, &mut 0, 0, &other.0, &mut 0, 0, 0, &mut out);
        Event(out)
    }

    /// Inflates this event tree by one event, as witnessed by identity `id`.
    ///
    /// First attempts the cheap *fill* (absorbing slack under fully-owned
    /// sub-intervals); if that changes nothing, performs the cost-minimizing
    /// *grow*.
    pub fn event(&self, id: &Id) -> Event {
        let mut out = Cells::new();
        fill_at(id.cells(), &mut 0, &self.0, &mut 0, &mut out);
        if out == self.0 {
            out.truncate(0);
            grow_at(id.cells(), &mut 0, &self.0, &mut 0, 0, &mut out);
        }
        Event(out)
    }

    /// Encodes this event tree into `enc`.
    #[inline]
    pub fn encode(&self, enc: &mut Encoder) {
        for &cell in self.0.iter() {
            enc.put_u8(u8::from(is_node(cell)));
            enc.put_varint(count(cell));
        }
    }

    /// Decodes an event tree from `dec`, re-normalizing the result.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] and [`DecodeError::BadTag`];
    /// [`DecodeError::VarintOverflow`] if the counts along some path sum
    /// past 63 bits; [`DecodeError::TooDeep`] if the tree nests deeper
    /// than the kernel's recursion is prepared to follow.
    #[inline]
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Event, DecodeError> {
        let mut out = Cells::new();
        decode_at(dec, &mut out, 0)?;
        Ok(Event(out))
    }
}

/// `abase` / `bbase` are what the ancestors of each subtree add to it.
fn leq_at(a: &[u64], ai: &mut usize, abase: u64, b: &[u64], bi: &mut usize, bbase: u64) -> bool {
    let (ca, cb) = (a[*ai], b[*bi]);
    let (na, nb) = (abase + count(ca), bbase + count(cb));
    // A `false` ends the whole walk, so the cursors it leaves behind are
    // never read.
    match (is_node(ca), is_node(cb)) {
        (false, _) => {
            *ai += 1;
            *bi = skip(b, *bi);
            na <= nb
        }
        (true, false) => {
            *bi += 1;
            abase + max_at(a, ai) <= nb
        }
        (true, true) => {
            *ai += 1;
            *bi += 1;
            na <= nb && leq_at(a, ai, na, b, bi, nb) && leq_at(a, ai, na, b, bi, nb)
        }
    }
}

/// Appends the pointwise maximum of the two subtrees to `out`, as counts
/// above `obase` (what the ancestors already written to `out` add).
#[allow(clippy::too_many_arguments)]
fn join_at(
    a: &[u64],
    ai: &mut usize,
    abase: u64,
    b: &[u64],
    bi: &mut usize,
    bbase: u64,
    obase: u64,
    out: &mut Cells,
) {
    let (ca, cb) = (a[*ai], b[*bi]);
    *ai += 1;
    *bi += 1;
    let (na, nb) = (abase + count(ca), bbase + count(cb));
    if !is_node(ca) && !is_node(cb) {
        out.push(leaf(na.max(nb) - obase));
        return;
    }
    let (mut a_halves, mut b_halves) = (0, 0);
    let (a, ai) = if is_node(ca) {
        (a, ai)
    } else {
        (&HALVES[..], &mut a_halves)
    };
    let (b, bi) = if is_node(cb) {
        (b, bi)
    } else {
        (&HALVES[..], &mut b_halves)
    };
    let n = na.min(nb);
    let at = out.len();
    out.push(node(n - obase));
    join_at(a, ai, na, b, bi, nb, n, out);
    let right = out.len();
    join_at(a, ai, na, b, bi, nb, n, out);
    close(out, at, right);
}

/// The ITC *fill* operation: raise sub-trees fully owned by `id` up to the
/// level of their surroundings.
fn fill_at(id: &[u8], ii: &mut usize, e: &[u64], ei: &mut usize, out: &mut Cells) {
    let cell = e[*ei];
    match id[*ii] {
        id::ZERO => {
            *ii += 1;
            out.copy_subtree(e, ei);
        }
        id::ONE => {
            *ii += 1;
            out.push(leaf(max_at(e, ei)));
        }
        _ if !is_node(cell) => {
            *ii = skip(id, *ii);
            *ei += 1;
            out.push(cell);
        }
        _ => {
            *ii += 1;
            *ei += 1;
            let at = out.len();
            out.push(cell);
            let right;
            if id[*ii] == id::ONE {
                // The owned left half rises to its own maximum or the
                // filled right half's minimum — known only once the right
                // half is written after it.
                *ii += 1;
                let left_max = max_at(e, ei);
                out.push(0);
                right = out.len();
                fill_at(id, ii, e, ei, out);
                out[at + 1] = leaf(left_max.max(count(out[right])));
            } else if id[skip(id, *ii)] == id::ONE {
                fill_at(id, ii, e, ei, out);
                *ii += 1;
                right = out.len();
                out.push(leaf(max_at(e, ei).max(count(out[at + 1]))));
            } else {
                fill_at(id, ii, e, ei, out);
                right = out.len();
                fill_at(id, ii, e, ei, out);
            }
            close(out, at, right);
        }
    }
}

/// The ITC *grow* operation: add one event in the cheapest owned position.
///
/// Appends the grown subtree to `out` and returns its cost: one per level
/// descended, `EXPAND` per leaf turned into a node. `above` is what the
/// subtree's ancestors add to it.
fn grow_at(
    id: &[u8],
    ii: &mut usize,
    e: &[u64],
    ei: &mut usize,
    above: u64,
    out: &mut Cells,
) -> u64 {
    const EXPAND: u64 = 1 << 24;
    let cell = e[*ei];
    match id[*ii] {
        id::ZERO => unreachable!("grow called with anonymous id"),
        id::ONE => {
            // `event` only grows what `fill` left unchanged, and `fill`
            // flattens whatever a `1` owns, so `cell` is a leaf; a node is
            // flattened here the way `fill` would.
            *ii += 1;
            let n = max_at(e, ei);
            out.push(leaf(n + u64::from(above + n < MAX_COUNT)));
            EXPAND * u64::from(is_node(cell))
        }
        _ => {
            *ii += 1;
            *ei += 1;
            let mut halves = 0;
            let (e, ei) = if is_node(cell) {
                (e, ei)
            } else {
                (&HALVES[..], &mut halves)
            };
            let above = above + count(cell);
            let at = out.len();
            out.push(node(count(cell)));
            let (right, cost);
            if id[*ii] == id::ZERO {
                *ii += 1;
                out.copy_subtree(e, ei);
                right = out.len();
                cost = grow_at(id, ii, e, ei, above, out);
            } else if id[skip(id, *ii)] == id::ZERO {
                cost = grow_at(id, ii, e, ei, above, out);
                *ii += 1;
                right = out.len();
                out.copy_subtree(e, ei);
            } else {
                // Both halves own something: grow each in turn and keep
                // the cheaper beside the other half as it was.
                let left = *ei;
                let left_cost = grow_at(id, ii, e, ei, above, out);
                let grown_left = at + 1..out.len();
                let mid = *ei;
                out.extend(&e[left..mid]);
                let right_cost = grow_at(id, ii, e, ei, above, out);
                if left_cost < right_cost {
                    out.truncate(grown_left.end);
                    out.extend(&e[mid..*ei]);
                    right = grown_left.end;
                    cost = left_cost;
                } else {
                    out.remove(grown_left);
                    right = at + 1 + (mid - left);
                    cost = right_cost;
                }
            }
            close(out, at, right);
            cost + 1 + EXPAND * u64::from(!is_node(cell))
        }
    }
}

/// Appends one decoded subtree to `out` and returns its largest count.
fn decode_at(dec: &mut Decoder<'_>, out: &mut Cells, depth: usize) -> Result<u64, DecodeError> {
    let branches = match dec.take_u8()? {
        0 => false,
        1 => true,
        tag => return Err(DecodeError::BadTag("itc event", tag)),
    };
    let n = dec.take_varint()?;
    if n > MAX_COUNT {
        return Err(DecodeError::VarintOverflow);
    }
    if !branches {
        out.push(leaf(n));
        return Ok(n);
    }
    if depth == MAX_DEPTH {
        return Err(DecodeError::TooDeep);
    }
    let at = out.len();
    out.push(node(n));
    let left_max = decode_at(dec, out, depth + 1)?;
    let right = out.len();
    let right_max = decode_at(dec, out, depth + 1)?;
    // Both terms are at most MAX_COUNT, so the sum fits a u64.
    let max = n + left_max.max(right_max);
    if max > MAX_COUNT {
        return Err(DecodeError::VarintOverflow);
    }
    close(out, at, right);
    Ok(max)
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Event) -> Option<Ordering> {
        match (self.leq(other), other.leq(self)) {
            (true, true) => Some(Ordering::Equal),
            (true, false) => Some(Ordering::Less),
            (false, true) => Some(Ordering::Greater),
            (false, false) => None,
        }
    }
}

fn fmt_at(cells: &[u64], at: &mut usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let cell = cells[*at];
    *at += 1;
    if !is_node(cell) {
        return write!(f, "{}", count(cell));
    }
    write!(f, "({},", count(cell))?;
    fmt_at(cells, at, f)?;
    f.write_str(",")?;
    fmt_at(cells, at, f)?;
    f.write_str(")")
}

impl fmt::Debug for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_at(&self.0, &mut 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(n: u64) -> Event {
        Event::node(n, Event::zero(), Event::zero())
    }

    fn decode(bytes: &[u8]) -> Result<Event, DecodeError> {
        Event::decode(&mut Decoder::new(bytes))
    }

    #[test]
    fn node_normalizes_equal_leaves() {
        assert_eq!(Event::node(2, flat(3), flat(3)).0[..], [leaf(5)]);
    }

    #[test]
    fn node_sinks_common_base() {
        let e = Event::node(1, flat(2), flat(4));
        assert_eq!(e.0[..], [node(3), leaf(0), leaf(2)]);
        assert_eq!((e.min(), e.max()), (3, 5));
    }

    #[test]
    fn seed_event_increments_leaf() {
        let e = Event::zero().event(&Id::one());
        assert_eq!(e, flat(1));
    }

    #[test]
    fn leq_is_reflexive_and_ordered() {
        let a = flat(1);
        let b = Event::node(1, flat(0), flat(2));
        assert!(a.leq(&a));
        assert!(a.leq(&b));
        assert!(!b.leq(&a));
    }

    #[test]
    fn join_takes_pointwise_max() {
        let a = Event::node(0, flat(3), flat(0));
        let b = Event::node(0, flat(0), flat(5));
        let j = a.join(&b);
        assert!(a.leq(&j) && b.leq(&j));
        assert_eq!(j, Event::node(0, flat(3), flat(5)));
        // A leaf joins a node as the node (n, 0, 0), whichever base is larger.
        let nested = Event::node(1, flat(0), Event::node(0, flat(4), flat(0)));
        assert_eq!(format!("{:?}", flat(3).join(&nested)), "(3,0,(0,2,0))");
        assert_eq!(format!("{:?}", nested.join(&flat(3))), "(3,0,(0,2,0))");
        assert_eq!(nested.join(&flat(9)), flat(9));
    }

    #[test]
    fn fork_event_join_advances() {
        let (a, b) = Id::one().split();
        let mut ea = Event::zero();
        let eb = Event::zero();
        for _ in 0..3 {
            ea = ea.event(&a);
        }
        let eb2 = eb.event(&b);
        let j = ea.join(&eb2);
        assert!(ea.leq(&j) && eb2.leq(&j));
        assert_eq!(j.max(), 3);
    }

    #[test]
    fn event_monotone() {
        let (a, _) = Id::one().split();
        let e0 = Event::zero();
        let e1 = e0.event(&a);
        let e2 = e1.event(&a);
        assert!(e0.leq(&e1) && e1.leq(&e2));
        assert!(!e1.leq(&e0));
    }

    #[test]
    fn event_fills_before_it_grows_and_grows_the_cheaper_half() {
        let (a, b) = Id::one().split();
        // Fill: the owned left half catches up with the right one for free.
        let behind = Event::node(0, flat(0), flat(2));
        assert_eq!(behind.event(&a), flat(2));
        // Grow under an identity owning a quarter on each side: the right
        // half already branches, so growing there is cheaper than
        // expanding the left leaf.
        let quarters = Id::node(a, b);
        let e = Event::node(0, flat(1), Event::node(0, flat(0), flat(1)));
        assert_eq!(format!("{:?}", e.event(&quarters)), "(0,1,(0,0,2))");
        // Equal costs go right.
        assert_eq!(
            format!("{:?}", Event::zero().event(&quarters)),
            "(0,0,(0,0,1))"
        );
    }

    #[test]
    fn encode_round_trip() {
        let (a, b) = Id::one().split();
        let e = Event::zero()
            .event(&a)
            .event(&a)
            .join(&Event::zero().event(&b));
        let mut enc = Encoder::new();
        e.encode(&mut enc);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(Event::decode(&mut dec).unwrap(), e);
    }

    #[test]
    fn decode_refuses_counts_that_sum_past_63_bits() {
        let varint = |n: u64| {
            let mut enc = Encoder::new();
            enc.put_varint(n);
            enc.finish()
        };
        let tree = |n: u64, l: u64, r: u64| {
            let mut bytes = vec![1];
            bytes.extend(varint(n));
            bytes.push(0);
            bytes.extend(varint(l));
            bytes.push(0);
            bytes.extend(varint(r));
            bytes
        };
        // The reproduced header: (u64::MAX, 1, 1) used to overflow `n + a`.
        assert_eq!(
            decode(&tree(u64::MAX, 1, 1)),
            Err(DecodeError::VarintOverflow)
        );
        assert_eq!(
            decode(&tree(MAX_COUNT, 0, 1)),
            Err(DecodeError::VarintOverflow)
        );
        assert_eq!(
            decode(&tree(1, MAX_COUNT, 0)),
            Err(DecodeError::VarintOverflow)
        );
        assert_eq!(
            decode(&tree(0, 0, MAX_COUNT + 1)),
            Err(DecodeError::VarintOverflow)
        );
        // The largest history that is accepted stays put under `event`
        // instead of wrapping, and still joins and compares.
        let full = decode(&tree(MAX_COUNT - 1, 0, 1)).unwrap();
        assert_eq!(full.max(), MAX_COUNT);
        let (a, b) = Id::one().split();
        assert_eq!(full.event(&b), full);
        let after = full.event(&a);
        assert_eq!(after, flat(MAX_COUNT));
        assert!(full.leq(&after) && !after.leq(&full));
        assert_eq!(after.event(&Id::one()), after);
        assert_eq!(full.join(&after), after);
    }

    #[test]
    fn decode_normalizes_and_bounds_nesting() {
        // (1, (0, 2, 2), 2) is the leaf 3.
        assert_eq!(decode(&[1, 1, 1, 0, 0, 2, 0, 2, 0, 2]).unwrap(), flat(3));
        let chain = |depth: usize| {
            let mut bytes = Vec::new();
            for _ in 0..depth {
                bytes.extend([1, 0, 0, 1]);
            }
            bytes.extend([0, 0]);
            bytes
        };
        assert!(decode(&chain(MAX_DEPTH)).is_ok());
        assert_eq!(decode(&chain(MAX_DEPTH + 1)), Err(DecodeError::TooDeep));
    }
}
