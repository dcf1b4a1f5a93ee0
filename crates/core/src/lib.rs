//! The Pivot Tracing runtime: tracepoints, advice weaving, agents, the
//! message bus, and the query frontend.
//!
//! This crate ties the query compiler ([`pivot_query`]) and the baggage
//! abstraction ([`pivot_baggage`]) into the live monitoring system of the
//! paper's Figure 2:
//!
//! 1. Tracepoints are **defined** against the frontend (À) — the vocabulary
//!    for queries.
//! 2. Users **install** textual queries ([`Frontend::install`], Á), which
//!    compile to advice (Â).
//! 3. The frontend broadcasts weave commands over the message bus; each
//!    process's [`Agent`] **weaves** the advice into its local tracepoint
//!    [`Registry`] (Ã).
//! 4. Requests executing in the system **invoke** woven advice whenever
//!    they reach a tracepoint ([`Agent::invoke`]); `Pack`/`Unpack` move
//!    tuples through the request's [`Baggage`](pivot_baggage::Baggage) (Ä),
//!    and `Emit` hands tuples to the agent's process-local aggregator (Å).
//! 5. Agents **report** partial results at a configurable interval
//!    ([`Agent::flush`], Æ) and the frontend merges them into streaming
//!    per-query result series (Ç).
//!
//! The crate is simulation-agnostic: it never spawns threads or timers.
//! The embedding system (the simulated Hadoop stack in `pivot-hadoop`, or a
//! plain test harness via [`bus::LocalBus`]) drives invocation, flushing,
//! and message delivery.
//!
//! For differential testing, [`global`] provides the paper's *unoptimized*
//! evaluation strategy (Figure 6a): materialize every tracepoint invocation
//! with a causal stamp and evaluate the happened-before join centrally.

pub mod agent;
pub mod bus;
pub mod frontend;
pub mod global;
pub mod governor;
pub mod ledger;
pub mod mutation;
pub mod retro;
pub mod tracepoint;

pub use agent::{Agent, ProcessInfo};
pub use bus::{
    Bus, Command, DeliveryStats, Drained, FifoScheduler, HeldFrame, LaneStats, LocalBus, Report,
    ReportRows, SchedBus, Scheduler, Verdict,
};
pub use frontend::{Frontend, LossStats, QueryHandle, QueryResults, ResultRow, RetroLossStats};
pub use governor::{QueryBudget, ThrottleReason, ThrottleStats, Throttled};
pub use ledger::{Imbalance, Ledger, Seen, SeqWindow, SourceKey};
pub use retro::{
    set_trace, trace_of, RetroCounters, RetroEvent, RetroReport, TriggerKind, TRACE_SLOT,
};
pub use tracepoint::{Registry, TracepointDef, DEFAULT_EXPORTS};

/// FNV-1a over `bytes`; shared by the agent/frontend state-digest
/// helpers the interleaving explorer keys its state cache on.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Writes one digest line per group in key order — the one order,
/// `pivot_model::Value`'s `Ord` — so first-seen order never reaches a digest.
pub(crate) fn write_groups(s: &mut String, groups: &pivot_query::Groups) {
    use std::fmt::Write as _;
    let mut groups: Vec<_> = groups.iter().collect();
    groups.sort_unstable_by_key(|&(key, _)| key);
    for (key, states) in groups {
        // Printed as a `GroupKey`, the form the explorer's counts cover.
        let key = pivot_model::GroupKey(key.iter().cloned().collect());
        let _ = write!(s, "g{key:?}={states:?};");
    }
}
