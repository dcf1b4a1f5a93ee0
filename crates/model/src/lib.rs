//! Data model for Pivot Tracing queries.
//!
//! Pivot Tracing models tracepoint invocations as tuples of a streaming,
//! distributed dataset (paper §3). This crate provides the dynamic value
//! model those tuples are built from:
//!
//! - [`Value`] — a dynamically typed scalar (`Null`, `Bool`, `I64`, `U64`,
//!   `F64`, `Str`),
//! - [`Tuple`] and [`Schema`] — positional rows plus field-name metadata,
//! - [`AggFunc`] / [`AggState`] — the paper's aggregators (`COUNT`, `SUM`,
//!   `MIN`, `MAX`, `AVERAGE`) with *combiner* semantics so partial aggregates
//!   merge correctly across processes (paper Table 3's `Combine`),
//! - [`Expr`] — scalar expressions used by `Where` clauses and `Select`
//!   projections,
//! - a compact binary codec ([`codec`]) shared with the baggage wire format.

pub mod agg;
pub mod codec;
pub mod colblock;
pub mod expr;
pub mod text;
pub mod tuple;
pub mod value;

pub use agg::{AggFunc, AggState};
pub use colblock::EncodedBlock;
pub use expr::{BinOp, EvalError, Expr, UnOp};
pub use text::Str;
pub use tuple::{Cols, GroupKey, Row, Schema, Tuple};
pub use value::Value;
