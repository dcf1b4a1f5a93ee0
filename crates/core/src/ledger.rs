//! The loss books, once: the identity every tier balances ([`Ledger`]),
//! the per-source sequence window every receiver deduplicates with
//! ([`SeqWindow`]), and the conversions that feed a ledger from the views
//! each component already keeps. DESIGN.md §5k says which component owns
//! which term.
//!
//! ```text
//! produced == delivered + dropped + stale + crash_lost + shed + sampled_out
//! ```
//!
//! The same shape serves tuples (`produced` = tuples agents emitted) and
//! hindsight events (`produced` = raw events recorded into retro rings);
//! a harness that runs both keeps two ledgers.

use std::collections::BTreeSet;
use std::fmt;

use pivot_baggage::QueryId;

use crate::bus::LaneStats;
use crate::frontend::{LossStats, RetroLossStats};
use crate::retro::RetroCounters;
use crate::Agent;

/// Identity of one reporting incarnation: `(host, procid, incarnation)`.
/// With a sequence number it names one frame, which is what every
/// receiver — frontend or relay, tuples or retro — deduplicates on.
pub type SourceKey = (String, u64, u64);

/// One side's (or, summed, the whole system's) loss books.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Ledger {
    /// Ground truth: what the producers say they made.
    pub produced: u64,
    /// Merged into the frontend's results.
    pub delivered: u64,
    /// Discarded by a transport link.
    pub dropped: u64,
    /// Refused by a relay as older than its baseline for that source.
    pub stale: u64,
    /// Died unflushed with a crashing agent or relay.
    pub crash_lost: u64,
    /// Intentionally discarded from a bounded buffer or queue.
    pub shed: u64,
    /// Overwritten in a hindsight ring before any trigger wanted it.
    pub sampled_out: u64,
}

impl Ledger {
    /// Adds `other` term by term.
    pub fn merge(&mut self, other: &Ledger) {
        self.produced += other.produced;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.stale += other.stale;
        self.crash_lost += other.crash_lost;
        self.shed += other.shed;
        self.sampled_out += other.sampled_out;
    }

    /// The identity: every produced unit sits in exactly one bucket.
    pub fn balance(&self) -> Result<(), Imbalance> {
        if u128::from(self.produced) == self.accounted() {
            Ok(())
        } else {
            Err(Imbalance(*self))
        }
    }

    fn accounted(&self) -> u128 {
        [
            self.delivered,
            self.dropped,
            self.stale,
            self.crash_lost,
            self.shed,
            self.sampled_out,
        ]
        .into_iter()
        .map(u128::from)
        .sum()
    }

    /// A live agent's side of the tuple books for `queries`: what it
    /// emitted and what its row caps shed.
    pub fn of_agent(agent: &Agent, queries: &[QueryId]) -> Ledger {
        Ledger {
            produced: queries.iter().map(|&q| agent.emitted_for(q)).sum(),
            shed: queries.iter().map(|&q| agent.shed_for(q)).sum(),
            ..Ledger::default()
        }
    }

    /// An incarnation dies at `now`: its counters are its last word and
    /// whatever it still buffered — unflushed tuples, ring-resident or
    /// undrained hindsight events — is `crash_lost`. Returns the
    /// `(tuple, retro)` books; the agent must not be used afterwards.
    pub fn bury(agent: &Agent, queries: &[QueryId], now: u64) -> (Ledger, Ledger) {
        let mut tuples = Ledger::of_agent(agent, queries);
        tuples.crash_lost = agent.flush(now).iter().map(|r| r.tuples).sum();
        let mut retro = Ledger::from(agent.retro_counters());
        retro.crash_lost = agent.retro_unflushed();
        (tuples, retro)
    }
}

impl std::ops::AddAssign<&Ledger> for Ledger {
    fn add_assign(&mut self, other: &Ledger) {
        self.merge(other);
    }
}

impl From<LossStats> for Ledger {
    fn from(loss: LossStats) -> Ledger {
        Ledger {
            delivered: loss.tuples_delivered,
            ..Ledger::default()
        }
    }
}

impl From<RetroLossStats> for Ledger {
    fn from(loss: RetroLossStats) -> Ledger {
        Ledger {
            delivered: loss.events_delivered,
            ..Ledger::default()
        }
    }
}

impl From<LaneStats> for Ledger {
    fn from(lane: LaneStats) -> Ledger {
        Ledger {
            dropped: lane.payload_dropped,
            ..Ledger::default()
        }
    }
}

impl From<RetroCounters> for Ledger {
    /// A ring's own books. Events still in the ring or in undrained
    /// pending reports are in no bucket yet: seal the ring first
    /// (`Agent::retro_seal`) or bury the agent.
    fn from(c: RetroCounters) -> Ledger {
        Ledger {
            produced: c.recorded,
            sampled_out: c.sampled_out,
            shed: c.shed,
            ..Ledger::default()
        }
    }
}

/// A [`Ledger`] that does not balance. `Display` prints the whole
/// equation and the remainder.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Imbalance(pub Ledger);

impl fmt::Display for Imbalance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let l = &self.0;
        let (produced, accounted) = (u128::from(l.produced), l.accounted());
        write!(
            f,
            "produced {} != delivered {} + dropped {} + stale {} + crash_lost {} \
             + shed {} + sampled_out {} ({} {})",
            l.produced,
            l.delivered,
            l.dropped,
            l.stale,
            l.crash_lost,
            l.shed,
            l.sampled_out,
            produced.abs_diff(accounted),
            if produced > accounted {
                "unaccounted"
            } else {
                "accounted twice"
            },
        )
    }
}

impl std::error::Error for Imbalance {}

/// What [`SeqWindow::record`] made of one sequence number.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Seen {
    /// First sighting at or after the baseline: the frame counts.
    Fresh,
    /// Already recorded (or untrackable, see [`SeqWindow::record`]).
    Duplicate,
    /// Before the baseline: this window never answered for it.
    Stale,
}

/// Duplicate and gap detection over one source's sequence numbers.
///
/// Senders number frames consecutively; the window remembers which
/// numbers at or above its baseline have arrived, compacting the
/// contiguous prefix so steady in-order traffic costs one integer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SeqWindow {
    baseline: u64,
    /// Every seq in `baseline..next_contig` has been recorded.
    next_contig: u64,
    /// Recorded seqs above `next_contig` (out-of-order arrivals).
    pending: BTreeSet<u64>,
    accepted: u64,
}

impl Default for SeqWindow {
    fn default() -> SeqWindow {
        SeqWindow::starting_at(0)
    }
}

impl SeqWindow {
    /// A window answerable for `baseline` and everything after it. The
    /// frontend starts every source at 0; a relay incarnation starts a
    /// source at the first seq it hears.
    pub fn starting_at(baseline: u64) -> SeqWindow {
        SeqWindow {
            baseline,
            next_contig: baseline,
            pending: BTreeSet::new(),
            accepted: 0,
        }
    }

    /// Records `seq`. Total over `u64`: `u64::MAX` has no successor to
    /// compact up to, so it cannot be tracked and is a `Duplicate` — a
    /// sender would need 2^64 flushes to reach it honestly.
    pub fn record(&mut self, seq: u64) -> Seen {
        if seq < self.baseline {
            return Seen::Stale;
        }
        if seq < self.next_contig || seq == u64::MAX || !self.pending.insert(seq) {
            return Seen::Duplicate;
        }
        while self.pending.remove(&self.next_contig) {
            self.next_contig += 1;
        }
        self.accepted += 1;
        Seen::Fresh
    }

    /// Seqs known to exist (a later one arrived) but never recorded.
    pub fn missed(&self) -> u64 {
        self.pending.last().map_or(0, |max| {
            max - self.next_contig + 1 - self.pending.len() as u64
        })
    }

    /// How many seqs were [`Seen::Fresh`].
    pub fn accepted(&self) -> u64 {
        self.accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ledger() -> impl Strategy<Value = Ledger> {
        (
            0u64..1 << 40,
            0u64..1 << 40,
            0u64..1 << 40,
            0u64..1 << 40,
            0u64..1 << 40,
            0u64..1 << 40,
            0u64..1 << 40,
        )
            .prop_map(|(a, b, c, d, e, f, g)| Ledger {
                produced: a,
                delivered: b,
                dropped: c,
                stale: d,
                crash_lost: e,
                shed: f,
                sampled_out: g,
            })
    }

    #[test]
    fn balance_names_every_term_and_the_remainder() {
        let l = Ledger {
            produced: 100,
            delivered: 50,
            dropped: 11,
            stale: 7,
            crash_lost: 13,
            shed: 5,
            sampled_out: 3,
        };
        let msg = l.balance().unwrap_err().to_string();
        for part in [
            "produced 100",
            "delivered 50",
            "dropped 11",
            "stale 7",
            "crash_lost 13",
            "shed 5",
            "sampled_out 3",
            "(11 unaccounted)",
        ] {
            assert!(msg.contains(part), "`{part}` missing from `{msg}`");
        }
        let over = Ledger {
            delivered: 2,
            produced: 1,
            ..Ledger::default()
        };
        assert!(over
            .balance()
            .unwrap_err()
            .to_string()
            .contains("(1 accounted twice)"));
        assert_eq!(Ledger { produced: 89, ..l }.balance(), Ok(()));
        // The sum is taken wide: terms near the top of u64 cannot wrap
        // into a false balance.
        let wide = Ledger {
            produced: 1,
            delivered: u64::MAX,
            dropped: 2,
            ..Ledger::default()
        };
        assert!(wide.balance().is_err());
    }

    /// `x + y`, folded by reference like every caller of [`Ledger::merge`].
    /// The by-value form this replaces — `|mut x: Ledger, y: Ledger| { x
    /// += y; x }`, nested on both sides of one `prop_assert_eq!` — failed
    /// in the dev profile only (rustc 1.95.0, opt-level 2 with overflow
    /// checks): the 56-byte `Copy` argument of the inner call shared a
    /// stack slot with the outer call's result, so `(a + b) + c` came back
    /// with `b` counted twice and `a + (b + c)` without `c`, while either
    /// side asserted alone was right.
    fn plus(x: &Ledger, y: &Ledger) -> Ledger {
        let mut sum = *x;
        sum += y;
        sum
    }

    /// The three ledgers that showed it, whatever the profile.
    #[test]
    fn merge_of_three_fixed_ledgers_is_associative() {
        let of = |n: u64| Ledger {
            produced: n,
            delivered: 2 * n,
            dropped: 3 * n,
            stale: 4 * n,
            crash_lost: 5 * n,
            shed: 6 * n,
            sampled_out: 7 * n,
        };
        let (a, b, c) = (of(1000), of(20_000), of(300_000));
        assert_eq!(plus(&plus(&a, &b), &c), plus(&a, &plus(&b, &c)));
        assert_eq!(plus(&plus(&a, &b), &c), of(321_000));
    }

    /// The specification `SeqWindow` compacts: every seq ever recorded.
    #[derive(Default)]
    struct Model {
        baseline: u64,
        seen: BTreeSet<u64>,
    }

    impl Model {
        fn record(&mut self, seq: u64) -> Seen {
            if seq < self.baseline {
                Seen::Stale
            } else if seq == u64::MAX || !self.seen.insert(seq) {
                Seen::Duplicate
            } else {
                Seen::Fresh
            }
        }
        fn missed(&self) -> u64 {
            self.seen.last().map_or(0, |max| {
                (u128::from(*max) - u128::from(self.baseline) + 1 - self.seen.len() as u128) as u64
            })
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn merge_is_associative_commutative_with_default_identity(
            a in ledger(), b in ledger(), c in ledger()
        ) {
            prop_assert_eq!(plus(&plus(&a, &b), &c), plus(&a, &plus(&b, &c)));
            prop_assert_eq!(plus(&a, &b), plus(&b, &a));
            prop_assert_eq!(plus(&a, &Ledger::default()), a);
            prop_assert_eq!(plus(&Ledger::default(), &a), a);
        }

        /// Random schedules over a small seq space near a random baseline
        /// (so duplicates, reorders, gaps and stale frames all occur),
        /// with the baseline sometimes at the very top of `u64`.
        #[test]
        fn seq_window_agrees_with_the_naive_model(
            base in prop_oneof![Just(0u64), 0u64..1000, Just(u64::MAX - 20), Just(u64::MAX)],
            offsets in prop::collection::vec(0u64..48, 0..96)
        ) {
            let mut w = SeqWindow::starting_at(base);
            let mut m = Model { baseline: base, ..Model::default() };
            for off in offsets {
                // Offsets straddle the baseline: 0..16 fall before it.
                let seq = base.saturating_sub(16).saturating_add(off);
                prop_assert_eq!(w.record(seq), m.record(seq), "seq {}", seq);
                prop_assert_eq!(w.missed(), m.missed());
                prop_assert_eq!(w.accepted(), m.seen.len() as u64);
            }
        }
    }

    #[test]
    fn seq_window_extremes_neither_panic_nor_wrap() {
        let mut w = SeqWindow::default();
        assert_eq!(w.record(u64::MAX), Seen::Duplicate);
        assert_eq!((w.missed(), w.accepted()), (0, 0));
        assert_eq!(w.record(u64::MAX - 1), Seen::Fresh);
        assert_eq!(w.missed(), u64::MAX - 1);
        assert_eq!(w.record(0), Seen::Fresh);
        assert_eq!(w.record(0), Seen::Duplicate);
        assert_eq!(w.missed(), u64::MAX - 2);

        // A source whose baseline is the last trackable seq: accepting it
        // leaves `next_contig == u64::MAX`, which later frames compare
        // against without wrapping to 0.
        let mut top = SeqWindow::starting_at(u64::MAX - 1);
        assert_eq!(top.record(u64::MAX - 1), Seen::Fresh);
        assert_eq!(top.record(u64::MAX), Seen::Duplicate);
        assert_eq!(top.record(u64::MAX - 1), Seen::Duplicate);
        assert_eq!(top.record(3), Seen::Stale);
        assert_eq!((top.missed(), top.accepted()), (0, 1));
    }
}
