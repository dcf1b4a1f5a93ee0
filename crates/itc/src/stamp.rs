//! ITC stamps: an identity plus an event tree.

use std::fmt;

use crate::encode::{DecodeError, Decoder, Encoder};
use crate::event::Event;
use crate::id::Id;

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
    #[inline]
    pub fn seed() -> Stamp {
        Stamp {
            id: Id::one(),
            event: Event::zero(),
        }
    }

    /// Builds a stamp from parts.
    #[inline]
    pub fn new(id: Id, event: Event) -> Stamp {
        Stamp { id, event }
    }

    /// Returns this stamp's identity tree.
    #[inline]
    pub fn id(&self) -> &Id {
        &self.id
    }

    /// Returns this stamp's event tree.
    #[inline]
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
            id: Id::zero(),
            event: self.event.clone(),
        }
    }

    /// Records one new event witnessed by this stamp's identity.
    ///
    /// # Panics
    ///
    /// Panics if the stamp is anonymous (identity zero) — anonymous stamps
    /// cannot witness events; this indicates misuse of [`Stamp::peek`].
    #[inline]
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
    #[inline]
    pub fn leq(&self, other: &Stamp) -> bool {
        self.event.leq(&other.event)
    }

    /// Returns `true` if the two stamps are concurrent (mutually unordered).
    #[inline]
    pub fn concurrent(&self, other: &Stamp) -> bool {
        !self.leq(other) && !other.leq(self)
    }

    /// Encodes this stamp into `enc`.
    #[inline]
    pub fn encode(&self, enc: &mut Encoder) {
        self.id.encode(enc);
        self.event.encode(enc);
    }

    /// Decodes a stamp from `dec`.
    #[inline]
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_fork_join_round_trip() {
        let s = Stamp::seed();
        let (a, b) = s.fork();
        assert!(!a.id().overlaps(b.id()));
        let j = a.join(&b);
        assert!(j.id().is_whole());
    }

    #[test]
    fn events_establish_order() {
        let mut s = Stamp::seed();
        let before = s.clone();
        s.event();
        assert!(before.leq(&s));
        assert!(!s.leq(&before));
    }

    #[test]
    fn forked_events_are_concurrent() {
        let (mut a, mut b) = Stamp::seed().fork();
        a.event();
        b.event();
        assert!(a.concurrent(&b));
    }

    #[test]
    fn join_dominates_both() {
        let (mut a, mut b) = Stamp::seed().fork();
        a.event();
        b.event();
        b.event();
        let j = a.join(&b);
        assert!(a.leq(&j) && b.leq(&j));
    }

    #[test]
    fn peek_is_anonymous() {
        let mut s = Stamp::seed();
        s.event();
        let p = s.peek();
        assert!(p.id().is_zero());
        assert!(p.leq(&s) && s.leq(&p));
    }

    #[test]
    #[should_panic(expected = "anonymous")]
    fn anonymous_event_panics() {
        let mut p = Stamp::seed().peek();
        p.event();
    }

    #[test]
    fn encode_round_trip() {
        let (mut a, b) = Stamp::seed().fork();
        a.event();
        let j = a.join(&b);
        let mut enc = Encoder::new();
        j.encode(&mut enc);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(Stamp::decode(&mut dec).unwrap(), j);
    }
}
