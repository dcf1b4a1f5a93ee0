//! The recursive `Box`-tree ITC kernel: test support, not shipped code.
//!
//! This is the kernel `pivot_itc` shipped before its trees moved into
//! preorder buffers, kept word for word as the *differential ground
//! truth*: `differential.rs` drives it and [`pivot_itc::Stamp`] with the
//! same scripts and compares bytes, order and `Debug` text after every
//! step. It is the readable statement of the fork / event / join / fill /
//! grow / normal-form rules (Almeida, Baquero, Fonte — OPODIS 2008) and
//! uses only public `pivot_itc` API. Its arithmetic is unchecked and its
//! decoder recurses without bound, so it only ever sees well-formed input.

#![allow(dead_code)]

use std::cmp::Ordering;
use std::fmt;

use pivot_itc::{DecodeError, Decoder, Encoder};

/// An ITC identity: a binary tree describing which sub-intervals of the unit
/// interval this stamp owns.
///
/// Identities are kept in *normal form*: `Node(Zero, Zero)` collapses to
/// [`Id::Zero`] and `Node(One, One)` collapses to [`Id::One`]. All
/// constructors in this module preserve normal form.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Id {
    /// Owns nothing.
    Zero,
    /// Owns the whole interval.
    One,
    /// Owns the left sub-tree's share in the left half and the right
    /// sub-tree's share in the right half.
    Node(Box<Id>, Box<Id>),
}

/// Two identities passed to [`Id::sum`] own overlapping intervals.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OverlapError;

impl fmt::Display for OverlapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("identities own overlapping intervals")
    }
}

impl std::error::Error for OverlapError {}

impl Id {
    /// Returns the seed identity that owns the entire interval.
    pub fn one() -> Id {
        Id::One
    }

    /// Returns the anonymous identity that owns nothing.
    pub fn zero() -> Id {
        Id::Zero
    }

    /// Builds a normalized interior node from two children.
    pub fn node(left: Id, right: Id) -> Id {
        match (&left, &right) {
            (Id::Zero, Id::Zero) => Id::Zero,
            (Id::One, Id::One) => Id::One,
            _ => Id::Node(Box::new(left), Box::new(right)),
        }
    }

    /// Returns `true` if this identity owns nothing (is anonymous).
    pub fn is_zero(&self) -> bool {
        matches!(self, Id::Zero)
    }

    /// Returns `true` if this identity owns the whole interval.
    pub fn is_whole(&self) -> bool {
        matches!(self, Id::One)
    }

    /// Splits this identity into two disjoint identities (ITC *fork*).
    ///
    /// The two returned identities are non-overlapping and together own
    /// exactly the interval owned by `self`.
    pub fn split(&self) -> (Id, Id) {
        match self {
            Id::Zero => (Id::Zero, Id::Zero),
            Id::One => (Id::node(Id::One, Id::Zero), Id::node(Id::Zero, Id::One)),
            Id::Node(l, r) => match (l.as_ref(), r.as_ref()) {
                (Id::Zero, r) => {
                    let (r1, r2) = r.split();
                    (Id::node(Id::Zero, r1), Id::node(Id::Zero, r2))
                }
                (l, Id::Zero) => {
                    let (l1, l2) = l.split();
                    (Id::node(l1, Id::Zero), Id::node(l2, Id::Zero))
                }
                (l, r) => (Id::node(l.clone(), Id::Zero), Id::node(Id::Zero, r.clone())),
            },
        }
    }

    /// Sums two disjoint identities (ITC *join*).
    ///
    /// # Errors
    ///
    /// Returns [`OverlapError`] if the identities overlap — summing
    /// overlapping identities would forge ownership and indicates a
    /// protocol violation.
    pub fn sum(&self, other: &Id) -> Result<Id, OverlapError> {
        match (self, other) {
            (Id::Zero, x) | (x, Id::Zero) => Ok(x.clone()),
            (Id::One, _) | (_, Id::One) => Err(OverlapError),
            (Id::Node(l1, r1), Id::Node(l2, r2)) => Ok(Id::node(l1.sum(l2)?, r1.sum(r2)?)),
        }
    }

    /// Returns `true` if the two identities own overlapping intervals.
    pub fn overlaps(&self, other: &Id) -> bool {
        match (self, other) {
            (Id::Zero, _) | (_, Id::Zero) => false,
            (Id::One, _) | (_, Id::One) => true,
            (Id::Node(l1, r1), Id::Node(l2, r2)) => l1.overlaps(l2) || r1.overlaps(r2),
        }
    }

    /// Returns the depth of the identity tree.
    pub fn depth(&self) -> usize {
        match self {
            Id::Zero | Id::One => 0,
            Id::Node(l, r) => 1 + l.depth().max(r.depth()),
        }
    }

    /// Encodes this identity into `enc`.
    pub fn encode(&self, enc: &mut Encoder) {
        match self {
            Id::Zero => enc.put_u8(0),
            Id::One => enc.put_u8(1),
            Id::Node(l, r) => {
                enc.put_u8(2);
                l.encode(enc);
                r.encode(enc);
            }
        }
    }

    /// Decodes an identity from `dec`.
    ///
    /// The result is re-normalized, so malformed input cannot produce a
    /// non-normal tree.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Id, DecodeError> {
        match dec.take_u8()? {
            0 => Ok(Id::Zero),
            1 => Ok(Id::One),
            2 => {
                let l = Id::decode(dec)?;
                let r = Id::decode(dec)?;
                Ok(Id::node(l, r))
            }
            t => Err(DecodeError::BadTag("itc id", t)),
        }
    }
}

impl fmt::Debug for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Id::Zero => write!(f, "0"),
            Id::One => write!(f, "1"),
            Id::Node(l, r) => write!(f, "({l:?},{r:?})"),
        }
    }
}

/// An ITC event tree: a compact representation of how many events each
/// sub-interval of the identity space has witnessed.
///
/// Event trees are kept in *normal form*: a node whose children are equal
/// leaves collapses into a single leaf, and interior values are *lifted* so
/// that at least one child has a zero base.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Event {
    /// All positions in this sub-interval have witnessed `n` events.
    Leaf(u64),
    /// A base count plus per-half refinements.
    Node(u64, Box<Event>, Box<Event>),
}

impl Event {
    /// Returns the zero event tree.
    pub fn zero() -> Event {
        Event::Leaf(0)
    }

    /// Builds a normalized interior node.
    pub fn node(n: u64, left: Event, right: Event) -> Event {
        match (&left, &right) {
            (Event::Leaf(a), Event::Leaf(b)) if a == b => Event::Leaf(n + a),
            _ => {
                let m = left.base().min(right.base());
                if m > 0 {
                    Event::Node(n + m, Box::new(left.sink(m)), Box::new(right.sink(m)))
                } else {
                    Event::Node(n, Box::new(left), Box::new(right))
                }
            }
        }
    }

    /// Returns the base (root) value of the tree.
    fn base(&self) -> u64 {
        match self {
            Event::Leaf(n) | Event::Node(n, _, _) => *n,
        }
    }

    /// Adds `m` to the root of the tree (the *lift* operation).
    fn lift(&self, m: u64) -> Event {
        match self {
            Event::Leaf(n) => Event::Leaf(n + m),
            Event::Node(n, l, r) => Event::Node(n + m, l.clone(), r.clone()),
        }
    }

    /// Subtracts `m` from the root of the tree.
    ///
    /// # Panics
    ///
    /// Panics if `m` exceeds the root value; callers only sink by a computed
    /// minimum, so this indicates an internal logic error.
    fn sink(&self, m: u64) -> Event {
        match self {
            Event::Leaf(n) => Event::Leaf(n - m),
            Event::Node(n, l, r) => Event::Node(n - m, l.clone(), r.clone()),
        }
    }

    /// Returns the minimum event count witnessed anywhere.
    pub fn min(&self) -> u64 {
        match self {
            Event::Leaf(n) => *n,
            // Normal form guarantees one child has base 0, so min == n.
            Event::Node(n, _, _) => *n,
        }
    }

    /// Returns the maximum event count witnessed anywhere.
    pub fn max(&self) -> u64 {
        match self {
            Event::Leaf(n) => *n,
            Event::Node(n, l, r) => n + l.max().max(r.max()),
        }
    }

    /// Returns `true` if `self` is causally dominated by `other`
    /// (every position witnessed no more events in `self` than in `other`).
    pub fn leq(&self, other: &Event) -> bool {
        match (self, other) {
            (Event::Leaf(n1), e2) => *n1 <= e2.min(),
            (Event::Node(n1, l1, r1), Event::Leaf(n2)) => {
                *n1 <= *n2
                    && l1.lift(*n1).leq(&Event::Leaf(*n2))
                    && r1.lift(*n1).leq(&Event::Leaf(*n2))
            }
            (Event::Node(n1, l1, r1), Event::Node(n2, l2, r2)) => {
                *n1 <= *n2 && l1.lift(*n1).leq(&l2.lift(*n2)) && r1.lift(*n1).leq(&r2.lift(*n2))
            }
        }
    }

    /// Merges two event trees, taking the pointwise maximum (ITC *join*).
    pub fn join(&self, other: &Event) -> Event {
        match (self, other) {
            (Event::Leaf(n1), Event::Leaf(n2)) => Event::Leaf(*n1.max(n2)),
            // Expand the leaf into an equivalent raw node (bypassing the
            // normalizing constructor, which would collapse it right back).
            (Event::Leaf(n1), n @ Event::Node(..)) => {
                Event::Node(*n1, Box::new(Event::zero()), Box::new(Event::zero())).join(n)
            }
            (n @ Event::Node(..), Event::Leaf(n2)) => n.join(&Event::Node(
                *n2,
                Box::new(Event::zero()),
                Box::new(Event::zero()),
            )),
            (Event::Node(n1, l1, r1), Event::Node(n2, l2, r2)) => {
                if n1 > n2 {
                    return other.join(self);
                }
                let d = n2 - n1;
                Event::node(*n1, l1.join(&l2.lift(d)), r1.join(&r2.lift(d)))
            }
        }
    }

    /// Inflates this event tree by one event, as witnessed by identity `id`.
    ///
    /// First attempts the cheap *fill* (absorbing slack under fully-owned
    /// sub-intervals); if that changes nothing, performs the cost-minimizing
    /// *grow*.
    pub fn event(&self, id: &Id) -> Event {
        let filled = fill(id, self);
        if &filled != self {
            filled
        } else {
            grow(id, self).0
        }
    }

    /// Encodes this event tree into `enc`.
    pub fn encode(&self, enc: &mut Encoder) {
        match self {
            Event::Leaf(n) => {
                enc.put_u8(0);
                enc.put_varint(*n);
            }
            Event::Node(n, l, r) => {
                enc.put_u8(1);
                enc.put_varint(*n);
                l.encode(enc);
                r.encode(enc);
            }
        }
    }

    /// Decodes an event tree from `dec`, re-normalizing the result.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Event, DecodeError> {
        match dec.take_u8()? {
            0 => Ok(Event::Leaf(dec.take_varint()?)),
            1 => {
                let n = dec.take_varint()?;
                let l = Event::decode(dec)?;
                let r = Event::decode(dec)?;
                Ok(Event::node(n, l, r))
            }
            t => Err(DecodeError::BadTag("itc event", t)),
        }
    }
}

/// The ITC *fill* operation: raise sub-trees fully owned by `id` up to the
/// level of their surroundings.
fn fill(id: &Id, e: &Event) -> Event {
    match (id, e) {
        (Id::Zero, e) => e.clone(),
        (Id::One, e) => Event::Leaf(e.max()),
        (_, Event::Leaf(n)) => Event::Leaf(*n),
        (Id::Node(il, ir), Event::Node(n, el, er)) => match (il.as_ref(), ir.as_ref()) {
            (Id::One, _) => {
                let er2 = fill(ir, er);
                let el2 = Event::Leaf(el.max().max(er2.min()));
                Event::node(*n, el2, er2)
            }
            (_, Id::One) => {
                let el2 = fill(il, el);
                let er2 = Event::Leaf(er.max().max(el2.min()));
                Event::node(*n, el2, er2)
            }
            _ => Event::node(*n, fill(il, el), fill(ir, er)),
        },
    }
}

/// The ITC *grow* operation: add one event in the cheapest owned position.
///
/// Returns the new tree and a cost used to compare alternatives.
fn grow(id: &Id, e: &Event) -> (Event, u64) {
    const BIG: u64 = 1 << 24;
    match (id, e) {
        (Id::One, Event::Leaf(n)) => (Event::Leaf(n + 1), 0),
        (_, Event::Leaf(n)) => {
            let (e2, c) = grow(
                id,
                &Event::Node(*n, Box::new(Event::zero()), Box::new(Event::zero())),
            );
            (e2, c + BIG)
        }
        (Id::Node(il, ir), Event::Node(n, el, er)) => match (il.as_ref(), ir.as_ref()) {
            (Id::Zero, _) => {
                let (er2, c) = grow(ir, er);
                (Event::node(*n, el.as_ref().clone(), er2), c + 1)
            }
            (_, Id::Zero) => {
                let (el2, c) = grow(il, el);
                (Event::node(*n, el2, er.as_ref().clone()), c + 1)
            }
            _ => {
                let (el2, cl) = grow(il, el);
                let (er2, cr) = grow(ir, er);
                if cl < cr {
                    (Event::node(*n, el2, er.as_ref().clone()), cl + 1)
                } else {
                    (Event::node(*n, el.as_ref().clone(), er2), cr + 1)
                }
            }
        },
        // `event()` only calls `grow` after `fill` left the tree unchanged,
        // and `fill(One, _)` always collapses to a leaf — so a whole-interval
        // identity never reaches `grow` with a node. Handle it defensively by
        // raising everything to max+1.
        (Id::One, e) => (Event::Leaf(e.max() + 1), BIG),
        (Id::Zero, _) => unreachable!("grow called with anonymous id"),
    }
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

impl fmt::Debug for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Leaf(n) => write!(f, "{n}"),
            Event::Node(n, l, r) => write!(f, "({n},{l:?},{r:?})"),
        }
    }
}

/// An interval tree clock stamp: `(identity, event history)`.
///
/// Stamps support the three ITC kernel operations:
///
/// - [`Stamp::fork`] — split into two stamps with disjoint identities,
/// - [`Stamp::event`] — record a new event witnessed by this identity,
/// - [`Stamp::join`] — merge two stamps back together.
///
/// Pivot Tracing baggage uses stamps to identify versioned baggage instances
/// across branching executions (paper §5, "Branches and Versioning").
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Stamp {
    id: Id,
    event: Event,
}

impl Stamp {
    /// Returns the seed stamp `(1, 0)` owned by the request root.
    pub fn seed() -> Stamp {
        Stamp {
            id: Id::One,
            event: Event::zero(),
        }
    }

    /// Builds a stamp from parts.
    pub fn new(id: Id, event: Event) -> Stamp {
        Stamp { id, event }
    }

    /// Returns this stamp's identity tree.
    pub fn id(&self) -> &Id {
        &self.id
    }

    /// Returns this stamp's event tree.
    pub fn event_tree(&self) -> &Event {
        &self.event
    }

    /// Forks this stamp into two stamps with disjoint identities and the
    /// same event history.
    pub fn fork(&self) -> (Stamp, Stamp) {
        let (i1, i2) = self.id.split();
        (
            Stamp {
                id: i1,
                event: self.event.clone(),
            },
            Stamp {
                id: i2,
                event: self.event.clone(),
            },
        )
    }

    /// Returns an anonymous *peek* of this stamp: identity zero, same events.
    ///
    /// Peeked stamps can be shipped for read-only causality comparisons
    /// without consuming identity space.
    pub fn peek(&self) -> Stamp {
        Stamp {
            id: Id::Zero,
            event: self.event.clone(),
        }
    }

    /// Records one new event witnessed by this stamp's identity.
    ///
    /// # Panics
    ///
    /// Panics if the stamp is anonymous (identity zero) — anonymous stamps
    /// cannot witness events; this indicates misuse of [`Stamp::peek`].
    pub fn event(&mut self) {
        assert!(!self.id.is_zero(), "anonymous stamps cannot witness events");
        self.event = self.event.event(&self.id);
    }

    /// Joins this stamp with another, merging identities and event history.
    ///
    /// If the identities overlap (which only happens on protocol misuse),
    /// the overlap is resolved by keeping `self`'s identity — baggage join
    /// must be total, so we degrade gracefully rather than error.
    pub fn join(&self, other: &Stamp) -> Stamp {
        let id = self.id.sum(&other.id).unwrap_or_else(|_| self.id.clone());
        Stamp {
            id,
            event: self.event.join(&other.event),
        }
    }

    /// Returns `true` if this stamp causally precedes-or-equals `other`.
    pub fn leq(&self, other: &Stamp) -> bool {
        self.event.leq(&other.event)
    }

    /// Returns `true` if the two stamps are concurrent (mutually unordered).
    pub fn concurrent(&self, other: &Stamp) -> bool {
        !self.leq(other) && !other.leq(self)
    }

    /// Encodes this stamp into `enc`.
    pub fn encode(&self, enc: &mut Encoder) {
        self.id.encode(enc);
        self.event.encode(enc);
    }

    /// Decodes a stamp from `dec`.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Stamp, DecodeError> {
        let id = Id::decode(dec)?;
        let event = Event::decode(dec)?;
        Ok(Stamp { id, event })
    }
}

impl fmt::Debug for Stamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:?};{:?})", self.id, self.event)
    }
}
