//! Thread-local baggage propagation.
//!
//! The paper's Java prototype stores a request's baggage in a
//! thread-local and moves it explicitly at thread boundaries (§5). This
//! module is that mechanism for Rust threads: every OS thread carries one
//! current [`Baggage`]; request handlers [`attach`] the baggage that
//! arrived with a request and get an RAII [`BaggageScope`] that restores
//! the previous baggage when the handler finishes.
//!
//! Branch/merge points use [`branch`] (split the current baggage for work
//! handed to another thread) and [`merge`] (join baggage arriving from a
//! finished branch back in). The instrumented wrappers in
//! [`crate::thread`] call these so application code rarely does.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::Arc;

use pivot_baggage::Baggage;

thread_local! {
    static CURRENT: RefCell<Baggage> = RefCell::new(Baggage::new());
}

/// Runs `f` with mutable access to the current thread's baggage.
///
/// This is how live tracepoints reach the request context: advice packs
/// into and unpacks from whatever baggage is attached to the invoking
/// thread.
#[inline]
pub fn with_baggage<R>(f: impl FnOnce(&mut Baggage) -> R) -> R {
    CURRENT.with(|c| f(&mut c.borrow_mut()))
}

/// An RAII guard for an attached baggage (see [`attach`]).
///
/// Dropping the guard restores the thread's previous baggage, discarding
/// the scoped one; [`BaggageScope::detach`] restores the previous baggage
/// and hands the scoped one back (e.g. to serialize into a response).
#[must_use = "dropping the scope immediately would detach the baggage again"]
pub struct BaggageScope {
    prev: Option<Baggage>,
    /// Scopes pin a specific thread's state; keep them off other threads.
    _not_send: PhantomData<*const ()>,
}

/// Makes `bag` the current thread's baggage until the returned scope ends.
#[inline]
pub fn attach(bag: Baggage) -> BaggageScope {
    let prev = CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), bag));
    BaggageScope {
        prev: Some(prev),
        _not_send: PhantomData,
    }
}

impl BaggageScope {
    /// Ends the scope, returning the (possibly advice-mutated) baggage
    /// that was attached.
    #[inline]
    pub fn detach(mut self) -> Baggage {
        let prev = self.prev.take().expect("scope detached once");
        CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), prev))
    }
}

impl Drop for BaggageScope {
    #[inline]
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
}

/// Splits the current thread's baggage for a branching execution
/// (paper §5): tuples packed by the branch stay invisible to this thread
/// until the branch's baggage is [`merge`]d back.
#[inline]
pub fn branch() -> Baggage {
    with_baggage(Baggage::split)
}

/// Joins baggage from a finished branch into the current thread's.
#[inline]
pub fn merge(bag: Baggage) {
    with_baggage(|b| b.join(bag));
}

/// Serializes the current thread's baggage (for an outgoing RPC header).
#[inline]
pub fn snapshot_bytes() -> Arc<[u8]> {
    with_baggage(Baggage::to_bytes)
}

/// Replaces the current thread's baggage with the one returned in an RPC
/// response: the callee's execution is a causal extension of the
/// caller's, so its baggage supersedes the snapshot sent out.
#[inline]
pub fn adopt_bytes(bytes: &[u8]) {
    with_baggage(|b| *b = Baggage::from_bytes(bytes));
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_baggage::{PackMode, QueryId};
    use pivot_model::{Tuple, Value};

    const Q: QueryId = QueryId(1);

    fn t(v: i64) -> Tuple {
        Tuple::from_iter([Value::I64(v)])
    }

    #[test]
    fn attach_detach_restores_previous() {
        with_baggage(|b| b.pack(Q, &PackMode::All, [t(1)]));
        let mut req = Baggage::new();
        req.pack(Q, &PackMode::All, [t(2)]);
        let scope = attach(req);
        assert_eq!(with_baggage(|b| b.unpack(Q)), vec![t(2)]);
        let mut back = scope.detach();
        assert_eq!(back.unpack(Q), vec![t(2)]);
        // The thread's own baggage is intact underneath.
        assert_eq!(with_baggage(|b| b.unpack(Q)), vec![t(1)]);
        with_baggage(|b| b.clear_query(Q));
    }

    #[test]
    fn drop_discards_scoped_baggage() {
        {
            let mut req = Baggage::new();
            req.pack(Q, &PackMode::All, [t(9)]);
            let _scope = attach(req);
            assert_eq!(with_baggage(|b| b.tuple_count(Q)), 1);
        }
        assert_eq!(with_baggage(|b| b.tuple_count(Q)), 0);
    }

    #[test]
    fn branch_and_merge_round_trip() {
        let _scope = attach(Baggage::new());
        with_baggage(|b| b.pack(Q, &PackMode::All, [t(0)]));
        let mut side = branch();
        side.pack(Q, &PackMode::All, [t(1)]);
        // The branch's pack is invisible until merged.
        assert_eq!(with_baggage(|b| b.tuple_count(Q)), 1);
        merge(side);
        assert_eq!(with_baggage(|b| b.tuple_count(Q)), 2);
    }
}
