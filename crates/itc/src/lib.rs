//! Interval tree clocks (ITC).
//!
//! An implementation of *Interval Tree Clocks: A Logical Clock for Dynamic
//! Systems* (Almeida, Baquero, Fonte — OPODIS 2008).
//!
//! Pivot Tracing (SOSP 2015, §5) uses interval tree clocks to version baggage
//! instances across branching executions: whenever an execution forks, the
//! active baggage instance's ITC identity is split into two globally unique,
//! non-overlapping identities; when branches rejoin, the identities are summed
//! back together. This crate provides the full ITC kernel — identity trees,
//! event trees, and stamps with the fork / event / join primitives — plus a
//! compact binary encoding used by the baggage wire format.
//!
//! # Examples
//!
//! ```
//! use pivot_itc::Stamp;
//!
//! let s = Stamp::seed();
//! let (mut a, mut b) = s.fork();
//! a.event();
//! b.event();
//! // Concurrent stamps are mutually unordered.
//! assert!(!a.leq(&b) && !b.leq(&a));
//! let joined = a.join(&b);
//! // The joined identity covers the whole interval again.
//! assert!(joined.id().is_whole());
//! ```

mod buf;
mod encode;
mod event;
mod id;
mod stamp;

pub use encode::{DecodeError, Decoder, Encoder};
pub use event::Event;
pub use id::{Id, OverlapError};
pub use stamp::Stamp;
