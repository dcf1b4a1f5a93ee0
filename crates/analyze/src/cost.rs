//! Pass 4 — static baggage-cost bounding.
//!
//! The paper's §5 overhead argument: advice may only add bounded state
//! to a request's baggage, and the Table 3 rewrites exist to shrink what
//! crosses each pack boundary. This pass derives a static upper bound on
//! the bytes a query adds to one request's baggage: for every pack
//! boundary, `width × tuple-cardinality × bytes-per-value` plus a fixed
//! per-slot overhead, where the cardinality comes from the pack mode —
//! `First(n)`/`Recent(n)` retain at most `n` tuples, a grouped
//! aggregation retains one fixed-size row per distinct key, and `All`
//! is unbounded (it grows with the request).

use std::fmt;

use pivot_baggage::PackMode;
use pivot_query::plan::{QueryPlan, StageSink};

/// A static upper bound that may be infinite.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Bound {
    /// At most this many bytes (or tuples).
    Finite(u64),
    /// Grows with the number of tuples the request produces.
    Unbounded,
}

impl Bound {
    /// Multiplies by a constant factor.
    pub fn times(self, k: u64) -> Bound {
        match self {
            Bound::Finite(n) => Bound::Finite(n.saturating_mul(k)),
            Bound::Unbounded => Bound::Unbounded,
        }
    }

    /// Adds two bounds.
    pub fn plus(self, other: Bound) -> Bound {
        match (self, other) {
            (Bound::Finite(a), Bound::Finite(b)) => Bound::Finite(a.saturating_add(b)),
            _ => Bound::Unbounded,
        }
    }

    /// Returns `true` when `self` is at most `other` (`Unbounded` is the
    /// top element).
    pub fn le(self, other: Bound) -> bool {
        match (self, other) {
            (_, Bound::Unbounded) => true,
            (Bound::Unbounded, Bound::Finite(_)) => false,
            (Bound::Finite(a), Bound::Finite(b)) => a <= b,
        }
    }

    /// Returns the finite value, if any.
    pub fn as_finite(self) -> Option<u64> {
        match self {
            Bound::Finite(n) => Some(n),
            Bound::Unbounded => None,
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Finite(n) => write!(f, "<= {n}"),
            Bound::Unbounded => write!(f, "unbounded"),
        }
    }
}

// The byte-cost model. It is nominal — values are variable-width on the
// wire — but the same for every plan, which is what the optimizer
// cross-check needs: the optimized and unoptimized plan of one query
// yield comparable bounds.

/// Nominal serialized size of one packed value (tag + varint/short
/// string). The runtime governor charges packed values at this rate too,
/// so statically derived budgets and runtime charges share a currency.
pub const NOMINAL_BYTES_PER_VALUE: u64 = 12;

/// Fixed per-slot overhead (slot id, mode tag, schema framing).
const SLOT_OVERHEAD: u64 = 16;

/// Assumed distinct-key count for grouped-aggregation packs: the
/// per-request group cardinality is not statically knowable, so the model
/// charges this constant per group-aggregated boundary.
const ASSUMED_GROUPS: u64 = 16;

/// The cost of one pack boundary.
#[derive(Clone, PartialEq, Debug)]
pub struct StageCost {
    /// The packing stage's alias.
    pub alias: String,
    /// Columns per packed tuple.
    pub width: usize,
    /// Upper bound on retained tuples.
    pub tuples: Bound,
    /// Upper bound on serialized bytes.
    pub bytes: Bound,
    /// `true` when the boundary retains every tuple (`PackMode::All`).
    pub unbounded_mode: bool,
}

/// The baggage cost of a whole plan.
#[derive(Clone, PartialEq, Debug)]
pub struct PlanCost {
    /// Per-pack-boundary costs, in causal order (the emit stage packs
    /// nothing and is omitted).
    pub stages: Vec<StageCost>,
    /// Upper bound on total bytes this query adds to one request's
    /// baggage.
    pub total_bytes: Bound,
}

/// Computes the static baggage bound of `plan`.
pub fn plan_cost(plan: &QueryPlan) -> PlanCost {
    let mut stages = Vec::new();
    let mut total = Bound::Finite(0);
    for stage in &plan.stages {
        let StageSink::Pack { mode, names, .. } = &stage.sink else {
            continue;
        };
        let tuples = match mode {
            PackMode::All => Bound::Unbounded,
            PackMode::First(n) | PackMode::Recent(n) => Bound::Finite(*n as u64),
            PackMode::GroupAgg { .. } => Bound::Finite(ASSUMED_GROUPS),
        };
        let bytes = tuples
            .times(names.len() as u64)
            .times(NOMINAL_BYTES_PER_VALUE)
            .plus(Bound::Finite(SLOT_OVERHEAD));
        total = total.plus(bytes);
        stages.push(StageCost {
            alias: stage.alias.clone(),
            width: names.len(),
            tuples,
            bytes,
            unbounded_mode: matches!(mode, PackMode::All),
        });
    }
    PlanCost {
        stages,
        total_bytes: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_ordering_and_arithmetic() {
        assert!(Bound::Finite(5).le(Bound::Finite(5)));
        assert!(Bound::Finite(5).le(Bound::Unbounded));
        assert!(!Bound::Unbounded.le(Bound::Finite(u64::MAX)));
        assert!(Bound::Unbounded.le(Bound::Unbounded));
        assert_eq!(
            Bound::Finite(3).times(4).plus(Bound::Finite(8)),
            Bound::Finite(20)
        );
        assert_eq!(
            Bound::Unbounded.times(0).plus(Bound::Finite(1)),
            Bound::Unbounded
        );
    }
}
