//! The runtime overload governor: per-query budgets and circuit breakers.
//!
//! The paper's §4.4 safety argument promises a query can never destabilize
//! the host system. The static verifier (pivot-analyze) bounds baggage
//! growth *before install*; this module is the runtime half: every agent
//! charges each query for the work its advice actually performs — tuples
//! emitted, VM instructions retired, baggage values packed — against a
//! windowed [`QueryBudget`]. A query that exhausts its budget trips a
//! per-agent circuit breaker: its advice is unwoven locally (so further
//! invocations cost one atomic load, the idle-tracepoint price), a
//! [`Throttled`] frame rides the next report to the frontend, and the
//! breaker re-arms after a capped exponential backoff measured in budget
//! windows. No randomness anywhere: under the simulated clock the whole
//! trip/backoff/re-arm sequence is a pure function of the workload, which
//! is what lets the chaos suite assert "same seed ⇒ same trip sequence".

use pivot_baggage::QueryId;
use pivot_itc::{DecodeError, Decoder, Encoder};

/// Nominal bytes charged per packed value: the static cost model's
/// rate, so statically-derived budgets and runtime charges are in the
/// same currency.
pub use pivot_analyze::NOMINAL_BYTES_PER_VALUE;

/// Resource budget for one query on one agent, per accounting window.
///
/// `u64::MAX` in every rate field means "unlimited" — the governor never
/// charges, and the hot path stays byte-identical to an ungoverned agent.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct QueryBudget {
    /// Tuples the query may emit/pack per window.
    pub tuples_per_window: u64,
    /// VM instructions the query's advice may retire per window.
    pub ops_per_window: u64,
    /// Baggage bytes (nominal: packed values × [`NOMINAL_BYTES_PER_VALUE`])
    /// the query may add per window.
    pub bytes_per_window: u64,
    /// Window length in nanoseconds on the embedding's clock (virtual
    /// under simrt, wall under pivot-live).
    pub window_ns: u64,
    /// Backoff after the first trip, in windows.
    pub backoff_base_windows: u32,
    /// Cap on backoff doublings (trip `n` backs off
    /// `base << min(n-1, cap)` windows).
    pub max_backoff_doublings: u32,
}

impl QueryBudget {
    /// A budget that never trips (the default for every installed query).
    pub fn unlimited() -> QueryBudget {
        QueryBudget {
            tuples_per_window: u64::MAX,
            ops_per_window: u64::MAX,
            bytes_per_window: u64::MAX,
            window_ns: 1_000_000_000,
            backoff_base_windows: 1,
            max_backoff_doublings: 6,
        }
    }

    /// Returns `true` when no rate field can ever be exceeded.
    pub fn is_unlimited(&self) -> bool {
        self.tuples_per_window == u64::MAX
            && self.ops_per_window == u64::MAX
            && self.bytes_per_window == u64::MAX
    }

    /// Derives a default budget from the static verifier's per-request
    /// baggage bound, when finite.
    ///
    /// The static bound is *per request*; a window admits many requests,
    /// so the derived budget is deliberately generous: 1024 requests'
    /// worth of bytes per one-second window, the matching value count at
    /// [`NOMINAL_BYTES_PER_VALUE`] bytes each, and 64 VM instructions per
    /// admitted tuple. A query within its static bound under ordinary
    /// traffic never trips; a storm three orders of magnitude past the
    /// analyzed rate does.
    pub fn from_static_bound(bound_bytes: Option<u64>) -> QueryBudget {
        match bound_bytes {
            None => QueryBudget::unlimited(),
            Some(b) => {
                let bytes = b.max(NOMINAL_BYTES_PER_VALUE).saturating_mul(1024);
                let tuples = bytes / NOMINAL_BYTES_PER_VALUE;
                QueryBudget {
                    tuples_per_window: tuples,
                    ops_per_window: tuples.saturating_mul(64),
                    bytes_per_window: bytes,
                    ..QueryBudget::unlimited()
                }
            }
        }
    }

    /// Backoff in windows after the `trips`-th trip: exponential from
    /// `backoff_base_windows`, capped at `max_backoff_doublings`.
    fn backoff_windows(&self, trips: u32) -> u64 {
        let doublings = trips.saturating_sub(1).min(self.max_backoff_doublings);
        u64::from(self.backoff_base_windows).saturating_mul(1u64 << doublings)
    }

    /// Nanoseconds of backoff after the `trips`-th trip.
    pub fn backoff_ns(&self, trips: u32) -> u64 {
        self.backoff_windows(trips).saturating_mul(self.window_ns)
    }

    /// Encodes the budget as `SetBudget` and `Sync` frames carry it.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_varint(self.tuples_per_window);
        enc.put_varint(self.ops_per_window);
        enc.put_varint(self.bytes_per_window);
        enc.put_varint(self.window_ns);
        enc.put_varint(u64::from(self.backoff_base_windows));
        enc.put_varint(u64::from(self.max_backoff_doublings));
    }

    /// Decodes a budget.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<QueryBudget, DecodeError> {
        Ok(QueryBudget {
            tuples_per_window: dec.take_varint()?,
            ops_per_window: dec.take_varint()?,
            bytes_per_window: dec.take_varint()?,
            window_ns: dec.take_varint()?,
            backoff_base_windows: dec.take_u32()?,
            max_backoff_doublings: dec.take_u32()?,
        })
    }
}

impl Default for QueryBudget {
    fn default() -> QueryBudget {
        QueryBudget::unlimited()
    }
}

/// Which budget dimension a trip exhausted (checked in this order).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum ThrottleReason {
    /// `tuples_per_window` exceeded.
    Tuples,
    /// `ops_per_window` exceeded.
    Ops,
    /// `bytes_per_window` exceeded.
    Bytes,
}

/// The charge counters of the window that tripped.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct ThrottleStats {
    /// Tuples charged in the tripping window.
    pub tuples: u64,
    /// VM instructions charged in the tripping window.
    pub ops: u64,
    /// Nominal baggage bytes charged in the tripping window.
    pub bytes: u64,
    /// Cumulative trips for this query on this agent (1 on first trip).
    pub trips: u32,
}

/// One breaker trip, reported to the frontend on the next flush.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Throttled {
    /// The query whose breaker tripped.
    pub query: QueryId,
    /// The exhausted budget dimension.
    pub reason: ThrottleReason,
    /// The tripping window's counters.
    pub stats: ThrottleStats,
}

impl Throttled {
    /// Encodes the trip as a report carries it; the reason is one tag
    /// byte, 0 `Tuples`, 1 `Ops`, 2 `Bytes`.
    #[inline]
    pub(crate) fn encode(&self, enc: &mut Encoder) {
        enc.put_varint(self.query.0);
        enc.put_u8(match self.reason {
            ThrottleReason::Tuples => 0,
            ThrottleReason::Ops => 1,
            ThrottleReason::Bytes => 2,
        });
        enc.put_varint(self.stats.tuples);
        enc.put_varint(self.stats.ops);
        enc.put_varint(self.stats.bytes);
        enc.put_varint(u64::from(self.stats.trips));
    }

    /// Decodes a trip.
    #[inline]
    pub(crate) fn decode(dec: &mut Decoder<'_>) -> Result<Throttled, DecodeError> {
        Ok(Throttled {
            query: QueryId(dec.take_varint()?),
            reason: match dec.take_u8()? {
                0 => ThrottleReason::Tuples,
                1 => ThrottleReason::Ops,
                2 => ThrottleReason::Bytes,
                t => return Err(DecodeError::BadTag("throttle reason", t)),
            },
            stats: ThrottleStats {
                tuples: dec.take_varint()?,
                ops: dec.take_varint()?,
                bytes: dec.take_varint()?,
                trips: dec.take_u32()?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_charges() {
        let b = QueryBudget::unlimited();
        assert!(b.is_unlimited());
        assert_eq!(QueryBudget::from_static_bound(None), b);
        assert_eq!(QueryBudget::default(), b);
    }

    #[test]
    fn derived_budget_scales_with_the_static_bound() {
        let b = QueryBudget::from_static_bound(Some(120));
        assert!(!b.is_unlimited());
        assert_eq!(b.bytes_per_window, 120 * 1024);
        assert_eq!(b.tuples_per_window, 120 * 1024 / NOMINAL_BYTES_PER_VALUE);
        assert_eq!(b.ops_per_window, b.tuples_per_window * 64);
        // A degenerate zero-byte bound still yields a usable budget.
        assert!(QueryBudget::from_static_bound(Some(0)).tuples_per_window > 0);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let b = QueryBudget {
            backoff_base_windows: 2,
            max_backoff_doublings: 3,
            ..QueryBudget::unlimited()
        };
        assert_eq!(b.backoff_windows(1), 2);
        assert_eq!(b.backoff_windows(2), 4);
        assert_eq!(b.backoff_windows(4), 16);
        assert_eq!(b.backoff_windows(5), 16, "doublings cap");
        assert_eq!(b.backoff_windows(100), 16);
        assert_eq!(b.backoff_ns(1), 2 * b.window_ns);
    }
}
