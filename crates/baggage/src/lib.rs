//! The **baggage** abstraction (Pivot Tracing, SOSP 2015 §4–§5).
//!
//! Baggage is a per-request container for tuples that travels alongside a
//! request as it traverses thread, application, and machine boundaries.
//! `Pack` and `Unpack` advice operations store and retrieve tuples from the
//! current request's baggage; because tuples follow the request's execution
//! path they explicitly capture the happened-before relationship, which is
//! what lets Pivot Tracing evaluate the happened-before join **inline**
//! during request execution instead of globally (paper Figure 6).
//!
//! This crate implements the full baggage API from the paper's Table 4:
//!
//! | Method | Description |
//! |---|---|
//! | [`Baggage::pack`] | Pack tuples into the baggage for a query |
//! | [`Baggage::unpack`] | Retrieve all tuples for a query |
//! | [`Baggage::to_bytes`] | Serialize the baggage to bytes |
//! | [`Baggage::try_from_bytes`] | Set the baggage by deserializing from bytes |
//! | [`Baggage::split`] | Split the baggage for a branching execution |
//! | [`Baggage::join`] | Merge baggage from two joining executions |
//!
//! # Branching and versioning
//!
//! To preserve the happened-before relation within a request, tuples packed
//! by one branch of a parallel execution must be invisible to sibling
//! branches until the branches rejoin (paper §5). Baggage therefore holds
//! one *active* instance per branch and the *retired* instances inherited
//! from earlier branch points. [`Baggage::split`] retires the active
//! instance, if anything is packed in it, under an identity minted there
//! (the retiring thread's location and a counter), and gives each side a
//! fresh active instance; [`Baggage::join`] merges the two active
//! instances and keeps one copy of each retired identity. A baggage with
//! nothing packed has no identity to fork or join, so it is two null
//! pointers and [`Baggage::new`] is `const`.
//!
//! # One strict decoder
//!
//! An empty baggage serializes to **0 bytes**. [`Baggage::try_from_bytes`]
//! is the only way bytes become a `Baggage`: it validates the whole buffer
//! and refuses anything malformed, trailing bytes included, so a corrupt
//! header is surfaced rather than silently read as empty. It keeps the
//! bytes it was given, so a process that forwards baggage without packing
//! into it serializes it again without encoding (paper §5).
//!
//! # Examples
//!
//! ```
//! use pivot_baggage::{Baggage, PackMode, QueryId};
//! use pivot_model::{Tuple, Value};
//!
//! let q = QueryId(7);
//! let mut bag = Baggage::new();
//! bag.pack(
//!     q,
//!     &PackMode::First(1),
//!     [Tuple::from_iter([Value::str("FSread4m")])],
//! );
//! // ... the request crosses a process boundary ...
//! let bytes = bag.to_bytes();
//! let remote = Baggage::try_from_bytes(&bytes).expect("bytes from to_bytes");
//! let tuples = remote.unpack(q);
//! assert_eq!(tuples[0].get(0), &Value::str("FSread4m"));
//! ```

mod bag;
mod entry;
mod instance;
mod wire;

pub use bag::{Baggage, PackMeter, Unpacked};
pub use entry::{Entry, PackMode, ALL_TUPLE_CAP};

/// Identifies an installed query across the whole system.
///
/// Tuples are packed and unpacked by query ID so several queries can share
/// one request's baggage simultaneously (paper §5).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct QueryId(pub u64);

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}
