//! Mid-level query plans.
//!
//! A [`QueryPlan`] is a chain (in general, a tree) of [`Stage`]s in causal
//! order. Every stage observes a tuple at its tracepoints, cross-joins it
//! with tuples unpacked from its predecessors' baggage slots, filters, and
//! then either **packs** the result forward (interior stages) or **emits**
//! it for global aggregation (the final stage — the query's `From` source).
//!
//! The optimizer's work (paper Table 3) is visible in the plan: which
//! `Where` clauses ran early, which fields each pack carries, and whether a
//! group-by aggregation was pushed into a pack mode.

use pivot_baggage::PackMode;
use pivot_model::Expr;

use crate::advice::OutputSpec;
use crate::ast::TemporalFilter;

/// An unpack edge from a predecessor stage.
#[derive(Clone, PartialEq, Debug)]
pub struct UnpackEdge {
    /// The predecessor's stage index (also its baggage slot).
    pub from_stage: usize,
    /// Column names of the packed tuples.
    pub names: Vec<String>,
    /// Temporal filter applied after unpacking (unoptimized plans only —
    /// optimized plans push it into the pack mode).
    pub post_filter: Option<TemporalFilter>,
}

/// What a stage does with its joined tuples.
#[derive(Clone, PartialEq, Debug)]
pub enum StageSink {
    /// Project through `exprs` and pack under this stage's slot.
    Pack {
        /// Retention / aggregation mode.
        mode: PackMode,
        /// Projection expressions.
        exprs: Vec<Expr>,
        /// Packed column names.
        names: Vec<String>,
    },
    /// Project through `keys` and `aggs` and emit for global aggregation
    /// (final stage only).
    Emit {
        /// Grouping key expressions, one per name in the plan's
        /// [`OutputSpec::key_names`].
        keys: Vec<Expr>,
        /// Aggregate argument expressions, one per [`OutputSpec::aggs`]
        /// entry.
        aggs: Vec<Expr>,
    },
}

/// One stage of a query plan.
#[derive(Clone, PartialEq, Debug)]
pub struct Stage {
    /// The source alias (sub-query aliases are prefixed with `name::`).
    pub alias: String,
    /// Tracepoints this stage's advice weaves into.
    pub tracepoints: Vec<String>,
    /// Export names observed (unqualified).
    pub observe: Vec<String>,
    /// Predecessor slots to unpack, in declaration order.
    pub unpacks: Vec<UnpackEdge>,
    /// `Where` predicates assigned to this stage by selection pushdown.
    pub filters: Vec<Expr>,
    /// Pack or emit.
    pub sink: StageSink,
}

/// A compiled query plan: stages in causal order plus the output shape.
#[derive(Clone, PartialEq, Debug)]
pub struct QueryPlan {
    /// Stages in causal order; the last stage emits.
    pub stages: Vec<Stage>,
    /// Output shape of the emitted results.
    pub output: OutputSpec,
    /// Canonicalized `Trigger` predicate, evaluated at the emit stage
    /// after its filters; `None` when the query has no trigger clause.
    pub trigger: Option<Expr>,
}
