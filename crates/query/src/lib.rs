//! The Pivot Tracing query language, optimizer, and advice compiler.
//!
//! Pivot Tracing queries are relational queries over the streaming datasets
//! of tuples generated by tracepoint invocations (paper §3, Table 1). They
//! are written in a LINQ-like textual form:
//!
//! ```text
//! From incr In DataNodeMetrics.incrBytesRead
//! Join cl In First(ClientProtocols) On cl -> incr
//! GroupBy cl.procName
//! Select cl.procName, SUM(incr.delta)
//! ```
//!
//! The `->` in the `On` clause is the **happened-before join** `⋈→`: tuples
//! of the joined source combine with tuples of the main source only when the
//! former causally precede the latter within the same request.
//!
//! Queries compile to **advice** — straight-line programs over the small
//! instruction set of the paper's Table 2 (`Observe`, `Unpack`, `Filter`,
//! `Pack`, `Emit`) — one program per tracepoint. The compiler applies the
//! paper's Table 3 rewrite rules, pushing projection, selection, and
//! aggregation as close to the source tracepoints as possible so the baggage
//! carries the minimum number of tuples.
//!
//! # Pipeline
//!
//! 1. [`parse`] — text → [`ast::Query`],
//! 2. [`plan_query`] — AST (+ a [`compile::Resolver`] for named
//!    sub-queries) → [`plan::QueryPlan`],
//! 3. [`compile::lower`] — plan → [`advice::CompiledQuery`],
//! 4. [`CompiledCode::lower`] — advice → the bytecode agents run.
//!
//! The frontend's install runs each step once and hands every artifact
//! to the verifier.
//!
//! Disable the optimizer (for the paper's Figure 6 "unoptimized global
//! evaluation" comparison and the ablation benches) with
//! [`compile::Options::unoptimized`].

pub mod advice;
pub mod ast;
pub mod bytecode;
pub mod compile;
mod display;
mod groups;
pub mod hash;
mod lexer;
mod parser;
pub mod plan;
pub mod span;

pub use advice::{AdviceOp, AdviceProgram, CompiledQuery, OutputSpec};
pub use ast::{JoinClause, Query, SelectItem, Source, SourceKind, TemporalFilter};
pub use bytecode::{
    AdviceByteCode, CollectSink, CompiledCode, EmitSink, Exports, RunPlan, Vm, VmStats,
};
pub use compile::{plan_query, CompileError, Options, Resolver};
pub use groups::Groups;
pub use parser::{parse, ParseError};
pub use span::{locate, Span};
