//! Deliberately re-introducible, known-fixed protocol bugs.
//!
//! The interleaving explorer (`pivot-explore`) proves it has teeth by
//! re-seeding two bugs this codebase already fixed and asserting the
//! explorer rediscovers each within a bounded schedule count:
//!
//! - [`Mutation::SilentReaderExit`] — the report path of a severed link
//!   silently discards frames with no loss tally (the PR 4 bug: a dead
//!   reader connection swallowed reports that agents kept sending),
//!   violating the loss identity ([`crate::Ledger::balance`]).
//! - [`Mutation::SyncUnthrottle`] — `Agent::install` skips the
//!   open-breaker guard, so a duplicated install or an epoch re-sync
//!   re-weaves advice whose circuit breaker is mid-backoff (the PR 5
//!   bug), violating sync-cannot-unthrottle.
//!
//! Without the `mutations` cargo feature every check compiles to a
//! constant `false` and this module has zero runtime cost. With the
//! feature, mutations still default to *off* and are toggled at runtime
//! by the explorer's mutation-teeth harness — never enable them outside
//! a test process.

/// A known-fixed bug that can be re-introduced at runtime (only with the
/// `mutations` cargo feature).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Mutation {
    /// Report frames admitted to a severed link vanish untallied.
    SilentReaderExit,
    /// `Agent::install` ignores an open circuit breaker.
    SyncUnthrottle,
}

impl Mutation {
    /// Canonical name, as used by `pivot-explore --mutation` and
    /// schedule files.
    pub fn name(self) -> &'static str {
        match self {
            Mutation::SilentReaderExit => "silent-reader-exit",
            Mutation::SyncUnthrottle => "sync-unthrottle",
        }
    }

    /// Parses a canonical name.
    pub fn parse(s: &str) -> Option<Mutation> {
        match s {
            "silent-reader-exit" | "reader-exit" => Some(Mutation::SilentReaderExit),
            "sync-unthrottle" => Some(Mutation::SyncUnthrottle),
            _ => None,
        }
    }

    /// Every seedable mutation.
    pub fn all() -> [Mutation; 2] {
        [Mutation::SilentReaderExit, Mutation::SyncUnthrottle]
    }
}

/// Whether this build can activate mutations at all.
pub fn supported() -> bool {
    cfg!(feature = "mutations")
}

#[cfg(feature = "mutations")]
mod imp {
    use std::sync::atomic::AtomicBool;

    pub static READER_EXIT: AtomicBool = AtomicBool::new(false);
    pub static SYNC_UNTHROTTLE: AtomicBool = AtomicBool::new(false);
}

/// Turns `m` on or off. Returns `false` (and does nothing) when the
/// build lacks the `mutations` feature, so callers can fail loudly
/// instead of silently testing nothing.
pub fn set(m: Mutation, on: bool) -> bool {
    #[cfg(feature = "mutations")]
    {
        use std::sync::atomic::Ordering;
        match m {
            Mutation::SilentReaderExit => imp::READER_EXIT.store(on, Ordering::SeqCst),
            Mutation::SyncUnthrottle => imp::SYNC_UNTHROTTLE.store(on, Ordering::SeqCst),
        }
        true
    }
    #[cfg(not(feature = "mutations"))]
    {
        let _ = (m, on);
        false
    }
}

/// Turns every mutation off.
pub fn reset() {
    for m in Mutation::all() {
        set(m, false);
    }
}

/// Checked on the severed-link report-admission path in `bus::SchedBus`.
#[inline]
pub(crate) fn silent_reader_exit() -> bool {
    #[cfg(feature = "mutations")]
    {
        imp::READER_EXIT.load(std::sync::atomic::Ordering::SeqCst)
    }
    #[cfg(not(feature = "mutations"))]
    {
        false
    }
}

/// Checked on the open-breaker guard in `Agent::install`.
#[inline]
pub(crate) fn sync_unthrottle() -> bool {
    #[cfg(feature = "mutations")]
    {
        imp::SYNC_UNTHROTTLE.load(std::sync::atomic::Ordering::SeqCst)
    }
    #[cfg(not(feature = "mutations"))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for m in Mutation::all() {
            assert_eq!(Mutation::parse(m.name()), Some(m));
        }
        assert_eq!(Mutation::parse("no-such-bug"), None);
    }

    #[test]
    fn disabled_build_reports_unsupported() {
        if !supported() {
            assert!(!set(Mutation::SyncUnthrottle, true));
            assert!(!sync_unthrottle());
            assert!(!silent_reader_exit());
        }
    }

    #[cfg(feature = "mutations")]
    #[test]
    fn toggles_take_effect() {
        reset();
        assert!(set(Mutation::SyncUnthrottle, true));
        assert!(sync_unthrottle());
        assert!(!silent_reader_exit());
        reset();
        assert!(!sync_unthrottle());
    }
}
