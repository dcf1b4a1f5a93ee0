//! Request contexts carrying baggage through the simulated systems.

use pivot_baggage::Baggage;

/// A per-request execution context.
///
/// The paper's prototype stores baggage in a thread-local; in this
/// simulation the context is threaded explicitly through the request's
/// (async) call chain — the same causal path, made visible in the types.
/// Crossing a process boundary serializes the baggage into the simulated
/// RPC envelope ([`Ctx::to_wire`] / [`Ctx::from_wire`]); branching
/// executions split and join it (paper §5).
#[derive(Debug, Default)]
pub struct Ctx {
    /// The request's baggage.
    pub bag: Baggage,
}

impl Ctx {
    /// Starts a fresh request.
    pub fn new() -> Ctx {
        Ctx {
            bag: Baggage::new(),
        }
    }

    /// Serializes the baggage for an RPC envelope, returning its wire form.
    pub fn to_wire(&mut self) -> std::sync::Arc<[u8]> {
        self.bag.to_bytes()
    }

    /// Reconstructs a context on the far side of an RPC. The bytes are a
    /// [`Ctx::to_wire`] of this simulation, so they decode; the decoded
    /// baggage keeps them, and a callee that packs nothing sends them
    /// back without encoding.
    pub fn from_wire(bytes: &[u8]) -> Ctx {
        Ctx {
            bag: Baggage::try_from_bytes(bytes).expect("own to_wire bytes decode strictly"),
        }
    }

    /// Branches the execution (e.g. a job fanning out tasks).
    pub fn split(&mut self) -> Ctx {
        Ctx {
            bag: self.bag.split(),
        }
    }

    /// Rejoins a branch created by [`Ctx::split`].
    pub fn join(&mut self, other: Ctx) {
        self.bag.join(other.bag);
    }

    /// Adopts the baggage returned with a synchronous RPC response: the
    /// callee's execution is a causal extension of the caller's.
    pub fn adopt_response(&mut self, bytes: &[u8]) {
        self.bag = Baggage::try_from_bytes(bytes).expect("own to_wire bytes decode strictly");
    }
}
