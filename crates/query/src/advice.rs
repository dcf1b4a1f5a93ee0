//! The advice intermediate representation (paper §3, Table 2).
//!
//! Queries compile to one **advice program** per tracepoint. Advice is a
//! straight-line list of operations — no jumps, no recursion — so
//! termination is structural (the paper's safety argument). The operations:
//!
//! | Operation | Description |
//! |---|---|
//! | `Observe` | Construct a tuple from variables exported by a tracepoint |
//! | `Unpack`  | Retrieve tuples packed by prior advice, cross-joining them |
//! | `Filter`  | Evaluate a predicate on all tuples |
//! | `Pack`    | Make tuples available to later advice via the baggage |
//! | `Emit`    | Output a tuple for global aggregation |

use std::sync::Arc;

use pivot_baggage::{PackMode, QueryId};
use pivot_itc::{DecodeError, Decoder, Encoder};
use pivot_model::{AggFunc, Expr, Schema};

use crate::ast::TemporalFilter;

/// Where one output column of a query comes from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ColumnRef {
    /// The i-th grouping key.
    Key(usize),
    /// The i-th aggregate.
    Agg(usize),
}

/// The shape of a query's emitted results: what every tier that holds,
/// merges or tabulates them needs to know. How a row is *computed* — the
/// key and aggregate-argument expressions — belongs to the emitting
/// advice ([`AdviceOp::Emit`]) and never leaves the compiler.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct OutputSpec {
    /// Display names for the grouping keys (explicit `GroupBy` plus
    /// non-aggregate select items).
    pub key_names: Vec<String>,
    /// The aggregates' functions, one per accumulator of a group.
    pub aggs: Vec<AggFunc>,
    /// Display names for the aggregates.
    pub agg_names: Vec<String>,
    /// Output row layout in `Select` order.
    pub columns: Vec<ColumnRef>,
    /// `true` when the query has no aggregates and emits raw rows.
    pub streaming: bool,
}

impl OutputSpec {
    /// Encodes the spec as an `Install` carries it.
    pub(crate) fn encode(&self, enc: &mut Encoder) {
        put_strs(&self.key_names, enc);
        enc.put_varint(self.aggs.len() as u64);
        for f in &self.aggs {
            f.encode(enc);
        }
        put_strs(&self.agg_names, enc);
        enc.put_varint(self.columns.len() as u64);
        for c in &self.columns {
            let (tag, i) = match c {
                ColumnRef::Key(i) => (0, i),
                ColumnRef::Agg(i) => (1, i),
            };
            enc.put_u8(tag);
            enc.put_varint(*i as u64);
        }
        enc.put_u8(u8::from(self.streaming));
    }

    /// Decodes a spec, refusing a column that names no key or aggregate,
    /// so the spec can be used without bounds anxiety. That the name lists
    /// are as wide as what the advice computes is `validate`'s check on
    /// the `Emit` that carries this spec.
    pub(crate) fn decode(dec: &mut Decoder<'_>) -> Result<OutputSpec, DecodeError> {
        let key_names = take_strs(dec)?;
        let aggs = dec.take_list(64, AggFunc::decode)?;
        let agg_names = take_strs(dec)?;
        let columns = dec.take_list(64, |dec| {
            let tag = dec.take_u8()?;
            let i = dec.take_varint()? as usize;
            Ok(match tag {
                0 if i < key_names.len() => ColumnRef::Key(i),
                1 if i < agg_names.len() => ColumnRef::Agg(i),
                0 | 1 => return Err(DecodeError::BadTag("column ref range", 0)),
                t => return Err(DecodeError::BadTag("column ref", t)),
            })
        })?;
        let streaming = match dec.take_u8()? {
            0 => false,
            1 => true,
            t => return Err(DecodeError::BadTag("streaming flag", t)),
        };
        Ok(OutputSpec {
            key_names,
            aggs,
            agg_names,
            columns,
            streaming,
        })
    }
}

/// Writes a length-prefixed list of strings.
pub(crate) fn put_strs(strs: &[String], enc: &mut Encoder) {
    enc.put_varint(strs.len() as u64);
    for s in strs {
        enc.put_str(s);
    }
}

/// Reads a list [`put_strs`] wrote.
pub(crate) fn take_strs(dec: &mut Decoder<'_>) -> Result<Vec<String>, DecodeError> {
    dec.take_list(256, |dec| Ok(dec.take_str()?.to_owned()))
}

/// One advice operation.
#[derive(Clone, PartialEq, Debug)]
pub enum AdviceOp {
    /// Construct a tuple from the named tracepoint exports; the resulting
    /// schema qualifies each field with `alias.`.
    Observe {
        /// The alias tuples of this tracepoint are referred to by.
        alias: String,
        /// Export names to capture (unqualified).
        fields: Vec<String>,
    },
    /// Retrieve tuples packed under `slot` and cross-join them with the
    /// current tuples.
    Unpack {
        /// The baggage slot to read.
        slot: QueryId,
        /// Schema of the packed tuples.
        schema: Schema,
        /// Temporal filter to apply after unpacking (set only when the
        /// optimizer did not push it into the pack mode).
        post_filter: Option<TemporalFilter>,
    },
    /// Discard tuples for which `pred` does not evaluate to `true`.
    Filter {
        /// The predicate.
        pred: Expr,
    },
    /// Project each tuple through `exprs` and pack the results under `slot`.
    Pack {
        /// The baggage slot to write.
        slot: QueryId,
        /// Retention / aggregation mode.
        mode: PackMode,
        /// Projection expressions, one per packed column.
        exprs: Vec<Expr>,
        /// Packed column names (consumed by the matching `Unpack` schema).
        names: Vec<String>,
    },
    /// Fire a retroactive-flush trigger when any live tuple satisfies
    /// `pred` (or unconditionally when `pred` is `None`). Placed between
    /// the stage's filters and its `Emit`, so a trigger fires exactly when
    /// the query would emit for a request that also matches the trigger
    /// predicate. Fires at most once per tracepoint invocation.
    Trigger {
        /// The query requesting the retroactive flush.
        query: QueryId,
        /// Optional predicate over the emit-stage schema.
        pred: Option<Expr>,
    },
    /// Project each tuple through `keys` and `aggs` and hand the result
    /// to the process-local aggregator.
    Emit {
        /// The query whose results these are.
        query: QueryId,
        /// The query's output shape (shared, never cloned per event).
        spec: Arc<OutputSpec>,
        /// Grouping key expressions, one per `spec.key_names` entry (the
        /// projected row of a streaming query).
        keys: Vec<Expr>,
        /// Aggregate argument expressions, one per `spec.aggs` entry.
        aggs: Vec<Expr>,
    },
}

/// A compiled advice program for one set of tracepoints.
#[derive(Clone, PartialEq, Debug)]
pub struct AdviceProgram {
    /// Tracepoints this program weaves into (unions weave the same program
    /// at several tracepoints).
    pub tracepoints: Vec<String>,
    /// The straight-line operation list.
    pub ops: Vec<AdviceOp>,
}

impl AdviceProgram {
    /// Returns `true` if this program packs into the baggage.
    pub fn packs(&self) -> bool {
        self.ops.iter().any(|o| matches!(o, AdviceOp::Pack { .. }))
    }

    /// Returns `true` if this program emits results.
    pub fn emits(&self) -> bool {
        self.ops.iter().any(|o| matches!(o, AdviceOp::Emit { .. }))
    }
}

/// A fully compiled query: advice programs plus output metadata.
#[derive(Clone, PartialEq, Debug)]
pub struct CompiledQuery {
    /// The query's identity (also the emit slot).
    pub id: QueryId,
    /// Optional user-facing name (referencable from later queries).
    pub name: String,
    /// The original query text.
    pub text: String,
    /// One advice program per stage, in causal order (emit stage last).
    pub advice: Vec<AdviceProgram>,
    /// Output shape (shared with the emit advice and the agent buffers).
    pub output: Arc<OutputSpec>,
}

impl CompiledQuery {
    /// Returns every tracepoint the query weaves advice into.
    pub fn tracepoints(&self) -> Vec<&str> {
        self.advice
            .iter()
            .flat_map(|a| a.tracepoints.iter().map(String::as_str))
            .collect()
    }

    /// Derives the baggage slot id for pack boundary `slot` of this query.
    pub fn slot_id(base: QueryId, slot: u8) -> QueryId {
        QueryId(base.0 * 256 + 1 + u64::from(slot))
    }
}
