//! Register bytecode for advice programs: the one execution core shared by
//! the simulated runtime, the live runtime, and the static verifier.
//!
//! [`AdviceProgram`]s are straight-line lists of Table-2 ops whose
//! expressions are `Expr` trees over *named* fields. Executing them
//! directly costs a tree walk plus a `Schema::index_of` name resolution
//! (with suffix matching) per field reference per tuple per event. This
//! module lowers each program once, at install time, into
//! [`AdviceByteCode`]:
//!
//! - every `Expr` tree becomes a flat run of register instructions
//!   ([`EInst`]) over a small register file, with literals in a constant
//!   pool and field references pre-resolved to column indices;
//! - short-circuit `&&` / `||` lower to [`EInst::CoerceBool`] +
//!   [`EInst::SkipIfBool`] forward skips, so the right operand is not
//!   evaluated (and cannot error) exactly when the tree-walk would not
//!   evaluate it;
//! - field references the schema cannot resolve (unknown or ambiguous
//!   names) lower to [`EInst::Fail`], matching the tree-walk's
//!   `UnknownField` error-per-tuple behavior;
//! - `Filter` ops immediately preceding the program's final sink op fuse
//!   into that sink as pre-predicates, skipping one intermediate tuple
//!   materialization per event.
//!
//! The [`Vm`] executes bytecode in one op-major loop (a single invocation
//! is a batch of one) with reusable scratch buffers: on the steady-state
//! path it allocates nothing for unwoven or filtered-out events and only
//! what the emitted rows themselves need otherwise. The loop has two ways
//! in — [`Vm::run`] / [`Vm::run_batch`] over named export lists, and
//! [`Vm::run_planned`] for a caller that kept a [`RunPlan`] from weave
//! time — and reads exported variables through one seam, [`Exports`].
//!
//! Lowering preserves the tree-walk interpreter's observable semantics
//! *exactly* (rows, stats, and resulting baggage); the property tests in
//! `pivot-core` assert this over randomized programs. The verifier runs
//! its dataflow checks on this same lowered artifact ("verify what you
//! execute"), and the live bus ships it — [`AdviceByteCode::validate`]
//! bounds-checks every register, constant, and skip so a decoded program
//! can never make the VM index out of range.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use pivot_baggage::{Baggage, PackMode, QueryId};
use pivot_model::expr::{eval_binary, eval_unary};
use pivot_model::value::NULL;
use pivot_model::{AggState, BinOp, Cols, Expr, GroupKey, Schema, Sym, Tuple, UnOp, Value};

use crate::advice::{AdviceOp, AdviceProgram, CompiledQuery, OutputSpec};
use crate::ast::TemporalFilter;

/// A register index.
pub type Reg = u16;

/// One flat expression instruction.
///
/// Expression programs are straight-line except for *forward* skips
/// ([`EInst::SkipIfBool`]); there are no backward jumps, so termination is
/// structural, like the advice ops themselves.
#[derive(Clone, PartialEq, Debug)]
pub enum EInst {
    /// `regs[dst] = tuple[col]` (`Null` when the tuple is shorter — same
    /// as `Tuple::get`).
    Load {
        /// Destination register.
        dst: Reg,
        /// Pre-resolved column index into the joined tuple.
        col: u16,
    },
    /// `regs[dst] = consts[idx]`.
    Const {
        /// Destination register.
        dst: Reg,
        /// Constant-pool index.
        idx: u16,
    },
    /// `regs[dst] = op(regs[src])`; evaluation errors drop the tuple.
    Unary {
        /// Destination register.
        dst: Reg,
        /// The operator.
        op: UnOp,
        /// Operand register.
        src: Reg,
    },
    /// `regs[dst] = op(regs[lhs], regs[rhs])` for non-short-circuit
    /// operators; evaluation errors drop the tuple.
    Binary {
        /// Destination register.
        dst: Reg,
        /// The operator.
        op: BinOp,
        /// Left operand register.
        lhs: Reg,
        /// Right operand register.
        rhs: Reg,
    },
    /// `regs[dst] = Bool(regs[src])`, erroring when `regs[src]` is not a
    /// bool — the `&&`/`||` operand coercion of the tree-walk evaluator.
    CoerceBool {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// If `regs[src]` is `Bool(when)`, skip the next `skip` instructions
    /// (the short-circuited operand block). `regs[src]` is always a bool
    /// here: lowering only emits this after [`EInst::CoerceBool`].
    SkipIfBool {
        /// Register holding the already-coerced left operand.
        src: Reg,
        /// Skip when the operand equals this value (`false` for `&&`,
        /// `true` for `||`).
        when: bool,
        /// Number of instructions to skip forward.
        skip: u16,
    },
    /// Unconditional evaluation failure: the lowered form of a field
    /// reference the schema could not resolve (the tree-walk's
    /// `UnknownField` error, which recurs for every tuple).
    Fail,
}

/// A lowered expression: a range of [`EInst`]s in the shared pool plus the
/// register its value ends up in.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ExprProg {
    /// First instruction index in [`AdviceByteCode::einsts`].
    pub start: u32,
    /// Number of instructions.
    pub len: u32,
    /// Register holding the result after execution.
    pub result: Reg,
}

/// An inclusive-exclusive index range into one of the bytecode pools.
pub type PoolRange = (u32, u32);

/// One lowered advice operation.
#[derive(Clone, PartialEq, Debug)]
pub enum Inst {
    /// Append the named tracepoint exports (a range into
    /// [`AdviceByteCode::names`]) to every live tuple; absent exports
    /// observe `Null`.
    Observe {
        /// Range of export names in the name pool.
        names: PoolRange,
    },
    /// Unpack baggage tuples for `slot` and cross-join them with the live
    /// tuples (the happened-before join).
    Unpack {
        /// The baggage slot to read.
        slot: QueryId,
        /// Declared width of the packed tuples (static metadata for the
        /// verifier; execution never needs it).
        width: u16,
        /// Temporal window applied after unpacking, when the optimizer
        /// did not push it into the pack mode.
        temporal: Option<TemporalFilter>,
    },
    /// Drop tuples whose predicate is not `Ok(Bool(true))`.
    Filter {
        /// Index into [`AdviceByteCode::exprs`].
        pred: u32,
    },
    /// Project each surviving tuple and pack the results into the baggage.
    Pack {
        /// The baggage slot to write.
        slot: QueryId,
        /// Retention / aggregation mode.
        mode: PackMode,
        /// Fused pre-predicates (trailing `Filter` ops when this is the
        /// program's final op); a tuple must pass all of them.
        pre: PoolRange,
        /// Projection expressions, one per packed column.
        exprs: PoolRange,
    },
    /// Fire a retroactive-flush trigger through [`EmitSink::trigger`] when
    /// any live tuple satisfies `pred` (or unconditionally when `pred` is
    /// `None`). At most one firing per invocation; evaluation failures
    /// count as not-satisfied (advice safety).
    Trigger {
        /// The query requesting the flush.
        query: QueryId,
        /// Optional predicate: an index into [`AdviceByteCode::exprs`].
        pred: Option<u32>,
    },
    /// Evaluate the output spec on each surviving tuple and hand rows to
    /// the [`EmitSink`].
    Emit {
        /// The query whose results these are.
        query: QueryId,
        /// The query's output shape (shared with the installing frontend
        /// and the agent buffers).
        spec: Arc<OutputSpec>,
        /// Fused pre-predicates, as for `Pack`.
        pre: PoolRange,
        /// Group-key expressions (also the projected row for streaming
        /// specs).
        keys: PoolRange,
        /// Aggregate argument expressions.
        aggs: PoolRange,
    },
}

/// A lowered advice program: flat instructions plus shared pools.
#[derive(Clone, PartialEq, Debug)]
pub struct AdviceByteCode {
    /// Tracepoints this program weaves into.
    pub tracepoints: Vec<String>,
    /// Top-level instructions, in op order.
    pub insts: Vec<Inst>,
    /// Shared expression-instruction pool; [`ExprProg`]s are ranges into
    /// this.
    pub einsts: Vec<EInst>,
    /// Lowered expressions referenced by index from [`Inst`]s.
    pub exprs: Vec<ExprProg>,
    /// Constant pool (representation-exact deduplicated literals).
    pub consts: Vec<Value>,
    /// Export-name pool for `Observe` (interned).
    pub names: Vec<Sym>,
    /// Register-file size required to execute any expression.
    pub num_regs: u16,
}

impl AdviceByteCode {
    /// Returns `true` if this program packs into the baggage.
    pub fn packs(&self) -> bool {
        self.insts.iter().any(|i| matches!(i, Inst::Pack { .. }))
    }

    /// Returns `true` if this program emits results.
    pub fn emits(&self) -> bool {
        self.insts.iter().any(|i| matches!(i, Inst::Emit { .. }))
    }

    /// Returns `true` if this program contains a retro `Trigger` op —
    /// installing it should switch the agent's hindsight ring on.
    pub fn triggers(&self) -> bool {
        self.insts.iter().any(|i| matches!(i, Inst::Trigger { .. }))
    }

    /// Returns `true` when the [`Vm`] may execute this program
    /// op-major over a batch of *several* invocations sharing one baggage,
    /// with results byte-identical to running them one after another.
    ///
    /// Three structural conditions guarantee that:
    ///
    /// - **no slot is both packed and unpacked** anywhere in the program
    ///   — otherwise invocation *i+1*'s unpack would observe invocation
    ///   *i*'s packs in sequential order but not in op-major order;
    /// - **each slot is packed by at most one instruction** — two packs
    ///   to one slot interleave per-invocation in sequential order but
    ///   per-op in batch order, observable at retention caps;
    /// - **at most one `Emit`** — with several, sequential order
    ///   interleaves each invocation's emits across the sinks while
    ///   op-major order groups them per op.
    ///
    /// Every program the query compiler produces satisfies all three
    /// (one sink op, pack *or* unpack per slot per side of the join).
    /// The VM runs any other program as batches of one, so callers need
    /// not check.
    pub fn batchable(&self) -> bool {
        let mut emits = 0usize;
        self.insts.iter().enumerate().all(|(i, inst)| {
            let earlier = &self.insts[..i];
            match inst {
                Inst::Unpack { slot, .. } => !earlier
                    .iter()
                    .any(|e| matches!(e, Inst::Pack { slot: s, .. } if s == slot)),
                Inst::Pack { slot, .. } => !earlier.iter().any(|e| {
                    matches!(e, Inst::Pack { slot: s, .. } | Inst::Unpack { slot: s, .. } if s == slot)
                }),
                Inst::Emit { .. } => {
                    emits += 1;
                    emits <= 1
                }
                _ => true,
            }
        })
    }
}

/// Execution statistics for one advice run; field-for-field the same
/// meaning as the tree-walk interpreter's stats.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct VmStats {
    /// Tuples packed into the baggage.
    pub packed: usize,
    /// Tuples unpacked from the baggage.
    pub unpacked: usize,
    /// Tuples that reached an `Emit` (before output projection).
    pub emitted: usize,
}

/// Receives evaluated rows from the [`Vm`].
///
/// The VM hands the sink *evaluated* output rows — group keys and
/// aggregate arguments, or projected streaming rows — so the process-local
/// aggregator updates its states in place without ever cloning specs or
/// re-evaluating expressions. A streaming row is the sink's to keep; a
/// grouped row arrives as [`Cols`] views that read each value where it
/// is, so the sink clones a key only for a group it had not seen.
pub trait EmitSink {
    /// One projected row of a streaming (no-aggregate) query.
    fn streaming_row(&mut self, query: QueryId, spec: &Arc<OutputSpec>, row: Tuple);
    /// One `(group key, aggregate arguments)` row of an aggregating query;
    /// `args` has one column per `spec.aggs` entry. Every grouped row the
    /// generic loop emits arrives here, in emit order.
    fn grouped_row(
        &mut self,
        query: QueryId,
        spec: &Arc<OutputSpec>,
        key: &dyn Cols,
        args: &dyn Cols,
    );
    /// `true` when this sink also accepts [`EmitSink::grouped_fold`],
    /// which lets a program in the canonical join-aggregation shape run
    /// factorized ([`Vm::run_planned`]).
    ///
    /// Opting in trades per-row delivery of that one shape for the
    /// paper's `Combine`: the observed rows fold into one partial
    /// [`AggState`] set that the sink merges once per joined group.
    /// Results are identical for every aggregate whose combine is exact
    /// (`COUNT`, integer `SUM`, `MIN`, `MAX`); float sums may differ from
    /// per-row delivery in the last bit, exactly as relay-tier partial
    /// aggregation already may.
    fn folds_grouped(&self) -> bool {
        false
    }
    /// A folded grouped delivery: `rows` emitted rows of `key` collapsed
    /// into one partial accumulator per `spec.aggs` entry.
    ///
    /// Called only when [`EmitSink::folds_grouped`] returns `true`, once
    /// per unpacked tuple of a factorized join, in unpacked order — the
    /// generic loop's first-seen group order, so a sink that caps its
    /// group count makes the same keep/shed decision per group as it
    /// would under per-row delivery.
    fn grouped_fold(
        &mut self,
        query: QueryId,
        spec: &Arc<OutputSpec>,
        key: &dyn Cols,
        states: &[AggState],
        rows: u64,
    ) {
        let _ = (query, spec, key, states, rows);
    }
    /// A [`Inst::Trigger`] fired for `query` during this invocation: the
    /// embedding agent should retroactively flush its recent-event ring
    /// for the current request. Default: ignore (sinks that don't do
    /// retroactive tracing need no changes).
    fn trigger(&mut self, query: QueryId) {
        let _ = query;
    }
}

/// An [`EmitSink`] that buffers rows, for tests and differential checks.
#[derive(Default, Debug)]
pub struct CollectSink {
    /// Streaming rows, in emit order.
    pub raw: Vec<(QueryId, Tuple)>,
    /// Grouped rows, in emit order.
    pub grouped: Vec<(QueryId, GroupKey, Vec<Value>)>,
    /// Trigger firings, in firing order (one entry per firing invocation).
    pub triggers: Vec<QueryId>,
}

impl EmitSink for CollectSink {
    fn streaming_row(&mut self, query: QueryId, _spec: &Arc<OutputSpec>, row: Tuple) {
        self.raw.push((query, row));
    }
    fn grouped_row(
        &mut self,
        query: QueryId,
        _spec: &Arc<OutputSpec>,
        key: &dyn Cols,
        args: &dyn Cols,
    ) {
        let args = (0..args.width()).map(|i| args.col(i).into_owned());
        self.grouped
            .push((query, GroupKey(key.to_tuple()), args.collect()));
    }
    fn trigger(&mut self, query: QueryId) {
        self.triggers.push(query);
    }
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

/// A lowered program plus any notes about constructs that could only be
/// lowered to runtime failures (surfaced by the verifier as PT008).
#[derive(Clone, Debug)]
pub struct Lowered {
    /// The bytecode.
    pub code: AdviceByteCode,
    /// Human-readable notes, one per degraded lowering (e.g. an
    /// unresolvable field reference).
    pub notes: Vec<String>,
}

struct LowerCtx {
    einsts: Vec<EInst>,
    exprs: Vec<ExprProg>,
    consts: Vec<Value>,
    names: Vec<Sym>,
    num_regs: u16,
    notes: Vec<String>,
}

impl LowerCtx {
    fn new() -> LowerCtx {
        LowerCtx {
            einsts: Vec::new(),
            exprs: Vec::new(),
            consts: Vec::new(),
            names: Vec::new(),
            num_regs: 0,
            notes: Vec::new(),
        }
    }

    /// Interns `v` in the constant pool with *representation-exact*
    /// equality: `I64(5)` and `U64(5)` are equal but behave differently
    /// under arithmetic, so they must not collapse.
    fn const_idx(&mut self, v: &Value) -> u16 {
        if let Some(i) = self.consts.iter().position(|c| c.same_repr(v)) {
            return i as u16;
        }
        self.consts.push(v.clone());
        (self.consts.len() - 1) as u16
    }

    /// Lowers `expr` against `schema`, appending to the shared pools, and
    /// returns its index in `exprs`.
    fn lower_expr(&mut self, expr: &Expr, schema: &Schema, what: &str) -> u32 {
        let start = self.einsts.len() as u32;
        let result = self.lower_node(expr, schema, 0, what);
        self.exprs.push(ExprProg {
            start,
            len: self.einsts.len() as u32 - start,
            result,
        });
        (self.exprs.len() - 1) as u32
    }

    /// Lowers one node with stack-discipline register allocation: the
    /// result lands in register `depth`, temporaries use `depth + 1…`.
    fn lower_node(&mut self, expr: &Expr, schema: &Schema, depth: u16, what: &str) -> Reg {
        self.num_regs = self.num_regs.max(depth + 1);
        match expr {
            Expr::Field(name) => {
                match schema.index_of(name) {
                    Some(col) => self.einsts.push(EInst::Load {
                        dst: depth,
                        col: col as u16,
                    }),
                    None => {
                        // The tree-walk errors `UnknownField` for every
                        // tuple; `Fail` reproduces that deterministically.
                        self.notes.push(format!(
                            "field `{name}` in {what} does not resolve against \
                             the advice schema {schema:?}; it will fail at runtime"
                        ));
                        self.einsts.push(EInst::Fail);
                    }
                }
                depth
            }
            Expr::Lit(v) => {
                let idx = self.const_idx(v);
                self.einsts.push(EInst::Const { dst: depth, idx });
                depth
            }
            Expr::Unary(op, e) => {
                let src = self.lower_node(e, schema, depth, what);
                self.einsts.push(EInst::Unary {
                    dst: depth,
                    op: *op,
                    src,
                });
                depth
            }
            Expr::Binary(op @ (BinOp::And | BinOp::Or), l, r) => {
                // Short-circuit: coerce lhs to bool (erroring on non-bool),
                // then skip the rhs block exactly when the tree-walk would
                // not evaluate it.
                let lhs = self.lower_node(l, schema, depth, what);
                self.einsts.push(EInst::CoerceBool {
                    dst: depth,
                    src: lhs,
                });
                let skip_at = self.einsts.len();
                self.einsts.push(EInst::SkipIfBool {
                    src: depth,
                    when: matches!(op, BinOp::Or),
                    skip: 0, // patched below
                });
                let rhs = self.lower_node(r, schema, depth + 1, what);
                self.einsts.push(EInst::CoerceBool {
                    dst: depth,
                    src: rhs,
                });
                let block_len = (self.einsts.len() - skip_at - 1) as u16;
                if let EInst::SkipIfBool { skip, .. } = &mut self.einsts[skip_at] {
                    *skip = block_len;
                }
                depth
            }
            Expr::Binary(op, l, r) => {
                let lhs = self.lower_node(l, schema, depth, what);
                let rhs = self.lower_node(r, schema, depth + 1, what);
                self.einsts.push(EInst::Binary {
                    dst: depth,
                    op: *op,
                    lhs,
                    rhs,
                });
                depth
            }
        }
    }

    fn lower_expr_list(&mut self, exprs: &[Expr], schema: &Schema, what: &str) -> PoolRange {
        let start = self.exprs.len() as u32;
        for e in exprs {
            self.lower_expr(e, schema, what);
        }
        (start, self.exprs.len() as u32)
    }
}

/// Lowers one advice program into register bytecode.
///
/// Lowering is total: programs that would error at runtime (unresolvable
/// fields) lower to bytecode with the same runtime behavior, and the
/// degradation is reported in [`Lowered::notes`].
pub fn lower_program(program: &AdviceProgram) -> Lowered {
    let mut cx = LowerCtx::new();
    let mut insts = Vec::with_capacity(program.ops.len());
    // The running joined schema, maintained exactly as the tree-walk
    // interpreter builds it, so field resolution (including suffix
    // matching and ambiguity) is bit-identical.
    let mut schema = Schema::empty();

    // `Filter` ops immediately preceding the final op fuse into it when it
    // is a sink; they are predicates over an unchanged schema, so running
    // them per-tuple inside the sink is observationally equivalent.
    let mut fused_from = program.ops.len();
    if matches!(
        program.ops.last(),
        Some(AdviceOp::Pack { .. } | AdviceOp::Emit { .. })
    ) {
        let sink_at = program.ops.len() - 1;
        let mut first_filter = sink_at;
        while first_filter > 0 && matches!(program.ops[first_filter - 1], AdviceOp::Filter { .. }) {
            first_filter -= 1;
        }
        fused_from = first_filter;
    }

    for (i, op) in program.ops.iter().enumerate() {
        match op {
            AdviceOp::Observe { alias, fields } => {
                let start = cx.names.len() as u32;
                cx.names.extend(fields.iter().map(Sym::new));
                let obs = Schema::new(fields.iter().map(|f| format!("{alias}.{f}")));
                schema = schema.concat(&obs);
                insts.push(Inst::Observe {
                    names: (start, cx.names.len() as u32),
                });
            }
            AdviceOp::Unpack {
                slot,
                schema: unpack_schema,
                post_filter,
            } => {
                schema = schema.concat(unpack_schema);
                insts.push(Inst::Unpack {
                    slot: *slot,
                    width: unpack_schema.len() as u16,
                    temporal: *post_filter,
                });
            }
            AdviceOp::Filter { pred } => {
                if i >= fused_from {
                    continue; // lowered as part of the sink below
                }
                let pred = cx.lower_expr(pred, &schema, "a Where predicate");
                insts.push(Inst::Filter { pred });
            }
            AdviceOp::Pack {
                slot,
                mode,
                exprs,
                names: _,
            } => {
                let pre = fused_predicates(&mut cx, program, fused_from, i, &schema);
                let exprs = cx.lower_expr_list(exprs, &schema, "a Pack projection");
                insts.push(Inst::Pack {
                    slot: *slot,
                    mode: mode.clone(),
                    pre,
                    exprs,
                });
            }
            AdviceOp::Trigger { query, pred } => {
                let pred = pred
                    .as_ref()
                    .map(|p| cx.lower_expr(p, &schema, "a Trigger predicate"));
                insts.push(Inst::Trigger {
                    query: *query,
                    pred,
                });
            }
            AdviceOp::Emit {
                query,
                spec,
                keys,
                aggs,
            } => {
                let pre = fused_predicates(&mut cx, program, fused_from, i, &schema);
                let keys = cx.lower_expr_list(keys, &schema, "a Select key");
                let aggs = cx.lower_expr_list(aggs, &schema, "an aggregate argument");
                insts.push(Inst::Emit {
                    query: *query,
                    spec: spec.clone(),
                    pre,
                    keys,
                    aggs,
                });
            }
        }
    }

    Lowered {
        code: AdviceByteCode {
            tracepoints: program.tracepoints.clone(),
            insts,
            einsts: cx.einsts,
            exprs: cx.exprs,
            consts: cx.consts,
            names: cx.names,
            num_regs: cx.num_regs,
        },
        notes: cx.notes,
    }
}

/// Lowers the trailing `Filter` predicates fused into the sink at `sink_at`.
fn fused_predicates(
    cx: &mut LowerCtx,
    program: &AdviceProgram,
    fused_from: usize,
    sink_at: usize,
    schema: &Schema,
) -> PoolRange {
    let start = cx.exprs.len() as u32;
    if sink_at == program.ops.len() - 1 {
        for op in &program.ops[fused_from..sink_at] {
            if let AdviceOp::Filter { pred } = op {
                cx.lower_expr(pred, schema, "a Where predicate");
            }
        }
    }
    (start, cx.exprs.len() as u32)
}

/// A fully lowered query: the executable artifact installed on agents,
/// shipped over the bus, and checked by the verifier.
#[derive(Clone, PartialEq, Debug)]
pub struct CompiledCode {
    /// The query's identity (also the emit slot).
    pub id: QueryId,
    /// Optional user-facing name.
    pub name: String,
    /// One bytecode program per advice stage, in causal order.
    pub programs: Vec<Arc<AdviceByteCode>>,
    /// Output shape, shared with the emit instructions.
    pub output: Arc<OutputSpec>,
}

impl CompiledCode {
    /// Lowers every advice program of `query`; notes from all stages are
    /// concatenated.
    pub fn lower(query: &CompiledQuery) -> (CompiledCode, Vec<String>) {
        let mut notes = Vec::new();
        let programs = query
            .advice
            .iter()
            .map(|p| {
                let lowered = lower_program(p);
                notes.extend(lowered.notes);
                Arc::new(lowered.code)
            })
            .collect();
        (
            CompiledCode {
                id: query.id,
                name: query.name.clone(),
                programs,
                output: query.output.clone(),
            },
            notes,
        )
    }

    /// Returns every tracepoint the query weaves bytecode into.
    pub fn tracepoints(&self) -> impl Iterator<Item = &str> {
        self.programs
            .iter()
            .flat_map(|p| p.tracepoints.iter().map(String::as_str))
    }
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

/// Why a bytecode program failed validation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ValidateError(pub String);

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid bytecode: {}", self.0)
    }
}

impl std::error::Error for ValidateError {}

impl AdviceByteCode {
    /// Bounds-checks every reference in the program: registers against
    /// `num_regs`, constants against the pool, expression indices and
    /// name ranges against their pools, and skips against their
    /// expression's extent. The verifier runs this at install time and the
    /// live agent runs it on every decoded program, so the VM itself can
    /// index without checks failing into panics.
    pub fn validate(&self) -> Result<(), ValidateError> {
        let err = |msg: String| Err(ValidateError(msg));
        if self.num_regs == 0 && !self.einsts.is_empty() {
            return err("num_regs is 0 but expression instructions exist".into());
        }
        for (xi, x) in self.exprs.iter().enumerate() {
            let (start, len) = (x.start as usize, x.len as usize);
            let end = match start.checked_add(len) {
                Some(e) if e <= self.einsts.len() => e,
                _ => return err(format!("expr {xi} range out of bounds")),
            };
            if len == 0 {
                return err(format!("expr {xi} is empty"));
            }
            if x.result >= self.num_regs {
                return err(format!("expr {xi} result register out of range"));
            }
            for (pc, inst) in self.einsts[start..end].iter().enumerate() {
                let reg_ok = |r: Reg| r < self.num_regs;
                match inst {
                    EInst::Load { dst, .. } if !reg_ok(*dst) => {
                        return err(format!("expr {xi}+{pc}: register out of range"))
                    }
                    EInst::Const { dst, idx }
                        if !reg_ok(*dst) || *idx as usize >= self.consts.len() =>
                    {
                        return err(format!("expr {xi}+{pc}: const reference out of range"));
                    }
                    EInst::Unary { dst, src, .. } if !reg_ok(*dst) || !reg_ok(*src) => {
                        return err(format!("expr {xi}+{pc}: register out of range"))
                    }
                    EInst::Binary { dst, lhs, rhs, .. }
                        if !reg_ok(*dst) || !reg_ok(*lhs) || !reg_ok(*rhs) =>
                    {
                        return err(format!("expr {xi}+{pc}: register out of range"))
                    }
                    EInst::CoerceBool { dst, src } if !reg_ok(*dst) || !reg_ok(*src) => {
                        return err(format!("expr {xi}+{pc}: register out of range"))
                    }
                    EInst::SkipIfBool { src, skip, .. } => {
                        if !reg_ok(*src) {
                            return err(format!("expr {xi}+{pc}: register out of range"));
                        }
                        // Skips must stay within this expression's range.
                        if pc + 1 + *skip as usize > len {
                            return err(format!("expr {xi}+{pc}: skip target out of range"));
                        }
                    }
                    _ => {}
                }
            }
        }
        let expr_range_ok = |(s, e): PoolRange| s <= e && e as usize <= self.exprs.len();
        for (ii, inst) in self.insts.iter().enumerate() {
            match inst {
                Inst::Observe { names: (s, e) } => {
                    if s > e || *e as usize > self.names.len() {
                        return err(format!("inst {ii}: observe name range out of bounds"));
                    }
                }
                Inst::Unpack { .. } => {}
                Inst::Filter { pred } => {
                    if *pred as usize >= self.exprs.len() {
                        return err(format!("inst {ii}: filter predicate out of bounds"));
                    }
                }
                Inst::Trigger { pred, .. } => {
                    if let Some(p) = pred {
                        if *p as usize >= self.exprs.len() {
                            return err(format!("inst {ii}: trigger predicate out of bounds"));
                        }
                    }
                }
                Inst::Pack {
                    pre, exprs, mode, ..
                } => {
                    if !expr_range_ok(*pre) || !expr_range_ok(*exprs) {
                        return err(format!("inst {ii}: pack expr range out of bounds"));
                    }
                    if let PackMode::GroupAgg { key_len, aggs } = mode {
                        let width = (exprs.1 - exprs.0) as usize;
                        if key_len + aggs.len() != width {
                            return err(format!(
                                "inst {ii}: GroupAgg layout ({} keys + {} aggs) does not \
                                 match pack width {width}",
                                key_len,
                                aggs.len()
                            ));
                        }
                    }
                }
                Inst::Emit {
                    spec,
                    pre,
                    keys,
                    aggs,
                    ..
                } => {
                    if !expr_range_ok(*pre) || !expr_range_ok(*keys) || !expr_range_ok(*aggs) {
                        return err(format!("inst {ii}: emit expr range out of bounds"));
                    }
                    // One row shape, stated twice — by the ranges that
                    // compute it and by the spec that names it.
                    if (keys.1 - keys.0) as usize != spec.key_names.len()
                        || (aggs.1 - aggs.0) as usize != spec.agg_names.len()
                        || spec.aggs.len() != spec.agg_names.len()
                    {
                        return err(format!("inst {ii}: emit ranges do not match its spec"));
                    }
                    // The spec's column layout is consumed by reporting; a
                    // forged spec must not be able to index out of range.
                    for c in &spec.columns {
                        let ok = match c {
                            crate::advice::ColumnRef::Key(i) => *i < spec.key_names.len(),
                            crate::advice::ColumnRef::Agg(i) => *i < spec.agg_names.len(),
                        };
                        if !ok {
                            return err(format!("inst {ii}: emit spec column out of range"));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Where `Observe` reads a batch's exported variables from — the one
/// seam between the VM and whoever assembled the invocations. A slice of
/// named export lists resolves each column by name ([`lookup`]); an agent
/// answers from positions it resolved when the advice was woven.
pub trait Exports {
    /// Number of invocations in the batch.
    fn invocations(&self) -> usize;
    /// What invocation `inv` exports under `name`, which is
    /// `code.names[col]` of the program being run; `Null` when absent.
    /// Borrowed from wherever the caller keeps it — the VM reads observed
    /// columns in place — and owned only for a scalar the source computes
    /// on the spot (an agent's `timestamp`).
    fn get(&self, inv: usize, col: usize, name: &str) -> Cow<'_, Value>;
}

impl Exports for [&[(&str, Value)]] {
    fn invocations(&self) -> usize {
        self.len()
    }
    fn get(&self, inv: usize, _col: usize, name: &str) -> Cow<'_, Value> {
        Cow::Borrowed(lookup(self[inv], name))
    }
}

/// One invocation of a batch, presented as a batch of one.
struct One<'a, X: ?Sized>(&'a X, usize);

impl<X: Exports + ?Sized> Exports for One<'_, X> {
    fn invocations(&self) -> usize {
        1
    }
    fn get(&self, _inv: usize, col: usize, name: &str) -> Cow<'_, Value> {
        self.0.get(self.1, col, name)
    }
}

/// The value `exports` carries under `name`: first match wins, absent
/// names read `Null`.
pub fn lookup<'a>(exports: &'a [(&str, Value)], name: &str) -> &'a Value {
    exports
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(&NULL, |(_, v)| v)
}

/// A program together with everything about *how* to run it that depends
/// on the program alone — decided once, when advice is woven, instead of
/// once per event: whether it has the factorized join shape, whether a
/// multi-invocation batch may run op-major, and which of its expressions
/// are read in place.
#[derive(Clone, Debug)]
pub struct RunPlan {
    code: Arc<AdviceByteCode>,
    shape: Option<Factorized>,
    batchable: bool,
    slots: Vec<Slot>,
}

impl RunPlan {
    /// Plans `code`.
    pub fn new(code: Arc<AdviceByteCode>) -> RunPlan {
        RunPlan {
            shape: factorized_shape(&code),
            batchable: code.batchable(),
            slots: Slot::all(&code).collect(),
            code,
        }
    }

    /// The planned program.
    pub fn code(&self) -> &Arc<AdviceByteCode> {
        &self.code
    }
}

/// The working set: every invocation's live rows at once, kept in
/// invocation-major order. A row is its invocation's index plus whatever
/// it owns: the columns observed before any join are read from the
/// batch's [`Exports`] in place (`prefix` names them, the same for every
/// row), and only what an `Unpack` joined on — and anything observed
/// after that — is copied, into the row's `suffix`.
#[derive(Default)]
struct Rows {
    /// `src[r]` is the invocation row `r` belongs to.
    src: Vec<u32>,
    /// Name-pool index of each column the rows read from the batch.
    prefix: Vec<u32>,
    /// `suffix[r]` is what row `r` owns, after its borrowed columns; left
    /// empty until the first join gives the rows something to own.
    suffix: Vec<Tuple>,
}

impl Rows {
    /// Live row `r`.
    fn row<'a, X: ?Sized>(&'a self, pass: &'a Pass<'a, X>, r: usize) -> Row<'a, X> {
        Row {
            pass,
            prefix: &self.prefix,
            inv: self.src[r] as usize,
            suffix: self.suffix.get(r).map_or(&[], Tuple::values),
        }
    }
}

/// One run of a program over a batch: what a [`RunPlan`] holds, borrowed,
/// and the batch every row reads from.
struct Pass<'a, X: ?Sized> {
    code: &'a AdviceByteCode,
    shape: Option<&'a Factorized>,
    /// `slots[xi]` is how `code.exprs[xi]` gets its value.
    slots: &'a [Slot],
    batch: &'a X,
}

/// How one lowered expression gets its value, decoded once per run. The
/// lone field references and literals that dominate key and aggregate
/// projections are read in place, never through the register machine.
#[derive(Clone, Copy, Debug)]
enum Slot {
    /// `[Load]`: this column of the row.
    Load(u16),
    /// `[Const]`: this entry of the constant pool.
    Const(u16),
    /// Anything else has to run.
    Run,
}

impl Slot {
    /// One per entry of `code.exprs`.
    fn all(code: &AdviceByteCode) -> impl Iterator<Item = Slot> + '_ {
        code.exprs.iter().map(|prog| {
            match &code.einsts[prog.start as usize..(prog.start + prog.len) as usize] {
                [EInst::Load { dst, col }] if *dst == prog.result => Slot::Load(*col),
                [EInst::Const { dst, idx }] if *dst == prog.result => Slot::Const(*idx),
                _ => Slot::Run,
            }
        })
    }
}

/// One row as expressions and sinks read it — the accessor both
/// [`Vm::exec_ops`] and [`Vm::run_factorized`] go through.
struct Row<'a, X: ?Sized> {
    pass: &'a Pass<'a, X>,
    prefix: &'a [u32],
    inv: usize,
    suffix: &'a [Value],
}

/// The expressions of one pool range over one row, as a sink reads them:
/// a lone field reference or literal straight from where the value is,
/// one that had to run from its position in `ran` ([`Row::fill`]).
struct Projected<'a, X: ?Sized> {
    row: &'a Row<'a, X>,
    range: PoolRange,
    ran: &'a [Value],
}

impl<X: Exports + ?Sized> Cols for Projected<'_, X> {
    fn width(&self) -> usize {
        (self.range.1 - self.range.0) as usize
    }
    fn col(&self, i: usize) -> Cow<'_, Value> {
        match self.row.pass.slots[self.range.0 as usize + i] {
            Slot::Run => Cow::Borrowed(&self.ran[i]),
            lone => self.row.read(lone),
        }
    }
}

/// The register VM. Holds reusable scratch (register file, working set,
/// partial-aggregation state) so steady-state advice execution does not
/// allocate for the machinery itself — only for the tuples and rows it
/// produces.
#[derive(Default)]
pub struct Vm {
    regs: Vec<Value>,
    rows: Rows,
    /// Scratch twins of `rows.suffix` / `rows.src` for the join, which
    /// rebuilds the set.
    joined: Vec<Tuple>,
    joined_src: Vec<u32>,
    projected: Vec<Tuple>,
    /// Where the named-slice entry, which has no [`RunPlan`], derives
    /// the program's [`Slot`]s.
    slots: Vec<Slot>,
    /// Per emitted row: what its key and argument expressions that had to
    /// run came to ([`Row::fill`]).
    key_vals: Vec<Value>,
    arg_vals: Vec<Value>,
    /// The factorized join's one partial accumulator set.
    fold_states: Vec<AggState>,
    ops: u64,
}

/// Expression evaluation failed; the affected tuple is dropped (advice
/// safety: errors never propagate to the carrying request).
struct EvalFailed;

impl Vm {
    /// Creates a VM with empty scratch buffers.
    pub fn new() -> Vm {
        Vm::default()
    }

    /// Cumulative count of retired instructions over this VM's lifetime.
    ///
    /// Callers meter per-program work by taking the difference around a
    /// [`Vm::run`] call. This is deliberately *not* part of [`VmStats`]:
    /// stats are compared between the VM and the tree-walk interpreter in
    /// differential tests, and the two engines retire different
    /// instruction counts for the same semantics (the VM fuses trailing
    /// filters).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Executes `code` for one tracepoint invocation: a batch of one.
    ///
    /// `exports` supplies the tracepoint's variables (default exports
    /// included by the caller). Packs mutate `baggage`; emitted rows go to
    /// `sink`. Semantics match the tree-walk interpreter exactly.
    pub fn run(
        &mut self,
        code: &AdviceByteCode,
        exports: &[(&str, Value)],
        baggage: &mut Baggage,
        sink: &mut impl EmitSink,
    ) -> VmStats {
        self.run_batch(code, &[exports], baggage, sink)
    }

    /// Executes `code` once per named export list in `batch` against the
    /// same baggage and sink, returning the summed stats. The named-slice
    /// entry: what [`RunPlan`] would hold is derived here, per call.
    pub fn run_batch(
        &mut self,
        code: &AdviceByteCode,
        batch: &[&[(&str, Value)]],
        baggage: &mut Baggage,
        sink: &mut impl EmitSink,
    ) -> VmStats {
        let batchable = batch.len() <= 1 || code.batchable();
        let shape = factorized_shape(code);
        let mut slots = std::mem::take(&mut self.slots);
        slots.clear();
        slots.extend(Slot::all(code));
        let pass = Pass {
            code,
            shape: shape.as_ref(),
            slots: &slots,
            batch,
        };
        let stats = self.exec(&pass, batchable, baggage, sink);
        self.slots = slots;
        stats
    }

    /// Executes a planned program once per invocation in `batch`: the
    /// entry for callers that wove the advice and kept its [`RunPlan`].
    pub fn run_planned(
        &mut self,
        plan: &RunPlan,
        batch: &(impl Exports + ?Sized),
        baggage: &mut Baggage,
        sink: &mut impl EmitSink,
    ) -> VmStats {
        let pass = Pass {
            code: &plan.code,
            shape: plan.shape.as_ref(),
            slots: &plan.slots,
            batch,
        };
        self.exec(&pass, plan.batchable, baggage, sink)
    }

    /// Both entries' common body. A batch of one is sound for every
    /// program — there is no second invocation to reorder against — and a
    /// program that is not [`AdviceByteCode::batchable`] runs a longer
    /// batch as that many batches of one, in order.
    fn exec<X: Exports + ?Sized>(
        &mut self,
        pass: &Pass<'_, X>,
        batchable: bool,
        baggage: &mut Baggage,
        sink: &mut impl EmitSink,
    ) -> VmStats {
        let n = pass.batch.invocations();
        if n <= 1 || batchable {
            return self.exec_ops(pass, baggage, sink);
        }
        let mut stats = VmStats::default();
        for i in 0..n {
            let one = Pass {
                code: pass.code,
                shape: pass.shape,
                slots: pass.slots,
                batch: &One(pass.batch, i),
            };
            let s = self.exec_ops(&one, baggage, sink);
            stats.unpacked += s.unpacked;
            stats.packed += s.packed;
            stats.emitted += s.emitted;
        }
        stats
    }

    /// The VM's one execution loop.
    ///
    /// Execution is *op-major*: one dispatch per instruction drives a
    /// working set holding every invocation's live rows at once, so
    /// dispatch, unpack materialization and baggage bookkeeping are paid
    /// per instruction instead of per invocation × instruction. Rows are
    /// tagged with their invocation index and kept in invocation-major
    /// order throughout, which makes every order-sensitive effect (pack
    /// arrival order at retention caps, emit order, per-invocation early
    /// exit, retired-op counts) equal to running the invocations one
    /// after another.
    ///
    /// Values are read where they are ([`Rows`]) and cloned in three
    /// places only: the suffix a join gives each row it produces, the
    /// tuple a `Pack` projects, and what a sink keeps of an emitted row —
    /// a streaming row, or the key of a group it had not seen.
    fn exec_ops<X: Exports + ?Sized>(
        &mut self,
        pass: &Pass<'_, X>,
        baggage: &mut Baggage,
        sink: &mut impl EmitSink,
    ) -> VmStats {
        let mut stats = VmStats::default();
        let (code, batch) = (pass.code, pass.batch);
        let n = batch.invocations();
        if n == 0 {
            return stats;
        }
        // Grow-only: an expression writes every register before reading
        // it and `eval` moves its result out, so what an earlier program
        // left behind is never observed.
        if self.regs.len() < code.num_regs as usize {
            self.regs.resize(code.num_regs as usize, Value::Null);
        }
        if let Some(shape) = pass.shape.filter(|_| sink.folds_grouped()) {
            return self.run_factorized(pass, shape, baggage, sink);
        }
        let Vm {
            regs,
            rows,
            joined,
            joined_src,
            projected,
            key_vals,
            arg_vals,
            ops,
            ..
        } = self;
        rows.src.clear();
        rows.src.extend(0..n as u32);
        rows.prefix.clear();
        rows.suffix.clear();
        // Invocations that still have a row. `src` stays invocation-major,
        // so this is its number of distinct values; only `Filter` and
        // `Unpack` can change it. Each live invocation retires the next
        // instruction; one whose working set emptied stopped retiring
        // (inner-join semantics: later ops can produce nothing for it).
        let mut live = n;

        for inst in &code.insts {
            *ops += live as u64;
            match inst {
                Inst::Observe { names } if rows.suffix.is_empty() => {
                    // Nothing is copied: the rows now also read these
                    // columns of their invocation's exports.
                    rows.prefix.extend(names.0..names.1);
                }
                Inst::Observe { names } => {
                    // After a join the rows own their tail, so the
                    // observation is appended by value: built once per
                    // live invocation, shared by all of its rows.
                    let mut r = 0usize;
                    while r < rows.src.len() {
                        let inv = rows.src[r];
                        let observed: Tuple = (names.0 as usize..names.1 as usize)
                            .map(|name| pass.exported(inv as usize, name).into_owned())
                            .collect();
                        while r < rows.src.len() && rows.src[r] == inv {
                            rows.suffix[r] = rows.suffix[r].concat(&observed);
                            r += 1;
                        }
                    }
                }
                Inst::Unpack { slot, temporal, .. } => {
                    // One unpack serves every invocation: `batchable`
                    // guarantees no Pack in this program touches `slot`,
                    // so each invocation would have seen the same baggage
                    // contents here.
                    let mut view = baggage.unpack_view(*slot);
                    if let Some(f) = temporal {
                        f.apply(view.to_mut());
                    }
                    let unpacked: &[Tuple] = &view;
                    stats.unpacked += unpacked.len() * live;
                    // Happened-before join: cross product with the tuples
                    // packed earlier in this request's execution. Each
                    // produced row owns its copy of the unpacked tuple.
                    joined.clear();
                    joined_src.clear();
                    for (r, &inv) in rows.src.iter().enumerate() {
                        for u in unpacked {
                            joined.push(match rows.suffix.get(r) {
                                Some(t) => t.concat(u),
                                None => u.clone(),
                            });
                            joined_src.push(inv);
                        }
                    }
                    std::mem::swap(&mut rows.suffix, joined);
                    std::mem::swap(&mut rows.src, joined_src);
                    if unpacked.is_empty() {
                        live = 0;
                    }
                }
                Inst::Filter { pred } => {
                    let (mut kept, mut prev) = (0usize, u32::MAX);
                    live = 0;
                    for r in 0..rows.src.len() {
                        if !rows.row(pass, r).holds(*pred, regs) {
                            continue;
                        }
                        let inv = rows.src[r];
                        if inv != prev {
                            live += 1;
                            prev = inv;
                        }
                        rows.src[kept] = inv;
                        if !rows.suffix.is_empty() {
                            rows.suffix.swap(kept, r);
                        }
                        kept += 1;
                    }
                    rows.src.truncate(kept);
                    rows.suffix.truncate(kept);
                }
                Inst::Pack {
                    slot,
                    mode,
                    pre,
                    exprs,
                } => {
                    projected.clear();
                    let mut r = 0usize;
                    while r < rows.src.len() {
                        let inv = rows.src[r];
                        let start = projected.len();
                        let mut survivors = 0usize;
                        while r < rows.src.len() && rows.src[r] == inv {
                            let row = rows.row(pass, r);
                            if row.passes(*pre, regs) {
                                survivors += 1;
                                if let Some(p) = row.project(*exprs, regs) {
                                    projected.push(p);
                                }
                            }
                            r += 1;
                        }
                        // When fused predicates drop every tuple of an
                        // invocation, the tree-walk stops at the filter
                        // and never packs; otherwise it packs whatever
                        // projections survive (possibly none).
                        if survivors > 0 {
                            stats.packed += projected.len() - start;
                        }
                    }
                    // One pack call covers every invocation's survivors:
                    // `already_first` reads only inactive instances, which
                    // N sequential packs would not have changed, and rows
                    // arrive in the same invocation-major order. An empty
                    // pack stores nothing, so it is skipped.
                    if !projected.is_empty() {
                        baggage.pack(*slot, mode, projected.drain(..));
                    }
                }
                Inst::Trigger { query, pred } => {
                    // One firing per invocation that has a satisfying live
                    // tuple, in invocation order.
                    let mut r = 0usize;
                    while r < rows.src.len() {
                        let inv = rows.src[r];
                        let mut fires = false;
                        while r < rows.src.len() && rows.src[r] == inv {
                            fires = fires || pred.is_none_or(|p| rows.row(pass, r).holds(p, regs));
                            r += 1;
                        }
                        if fires {
                            sink.trigger(*query);
                        }
                    }
                }
                Inst::Emit {
                    query,
                    spec,
                    pre,
                    keys,
                    aggs,
                } => {
                    // Rows are invocation-major and `batchable` caps a
                    // multi-invocation program at one Emit, so sink
                    // arrival order equals one-at-a-time execution's.
                    // Every row goes straight to the sink: a sink that
                    // aggregates does so under whatever it already holds
                    // for the run, with its own index on the group key —
                    // a scratch fold here would only be a second,
                    // linearly scanned, copy of that index.
                    key_vals.resize((keys.1 - keys.0) as usize, Value::Null);
                    arg_vals.resize((aggs.1 - aggs.0) as usize, Value::Null);
                    for r in 0..rows.src.len() {
                        let row = rows.row(pass, r);
                        if !row.passes(*pre, regs) {
                            continue;
                        }
                        stats.emitted += 1;
                        if spec.streaming {
                            // The sink keeps the row: the one clone of
                            // each value it is made of.
                            if let Some(kept) = row.project(*keys, regs) {
                                sink.streaming_row(*query, spec, kept);
                            }
                            continue;
                        }
                        // A failed key drops the row; a failed aggregate
                        // argument reads `Null`.
                        if !row.fill(*keys, regs, key_vals) {
                            continue;
                        }
                        row.fill(*aggs, regs, arg_vals);
                        let (key, args) = (row.cols(*keys, key_vals), row.cols(*aggs, arg_vals));
                        sink.grouped_row(*query, spec, &key, &args);
                    }
                }
            }
            if rows.src.is_empty() {
                // Every invocation's working set is empty; no later op can
                // produce anything for any of them.
                break;
            }
        }
        rows.src.clear();
        rows.suffix.clear();
        stats
    }

    /// Factorized execution of the canonical join-aggregation shape (see
    /// [`factorized_shape`]; the paper's §2 query: `GroupBy cl.procName
    /// Select cl.procName, SUM(incr.delta)`) into a sink that accepts
    /// [`EmitSink::grouped_fold`]. Program shape and sink select it.
    ///
    /// The join's cross product is never materialized: all observed rows
    /// fold into *one* partial accumulator set, which is then merged into
    /// each unpacked tuple's group — `O(rows + unpacked)` instead of
    /// `O(rows × unpacked)`. The decomposition is exact for every
    /// aggregate: per group, the cross product contributes the same
    /// observed rows once per matching unpacked tuple, which is exactly
    /// `k` merges of the same partial (`COUNT`/`SUM` scale additively,
    /// `MIN`/`MAX` are idempotent, `AVERAGE`'s ratio is unchanged).
    ///
    /// Group delivery is in unpacked-tuple order, which is the generic
    /// loop's first-seen group order, so capped sinks shed the same
    /// groups; stats and retired-op counts equal the generic loop's.
    fn run_factorized<X: Exports + ?Sized>(
        &mut self,
        pass: &Pass<'_, X>,
        shape: &Factorized,
        baggage: &mut Baggage,
        sink: &mut impl EmitSink,
    ) -> VmStats {
        let code = pass.code;
        let Some(Inst::Emit { query, spec, .. }) = code.insts.last() else {
            unreachable!("a factorized shape ends in its program's Emit");
        };
        let Vm {
            regs,
            rows,
            key_vals,
            fold_states,
            ops,
            ..
        } = self;
        let filters = &code.insts[1..1 + shape.filters];
        let mut stats = VmStats::default();
        let mut view = baggage.unpack_view(shape.slot);
        if let Some(f) = shape.temporal {
            f.apply(view.to_mut());
        }
        let unpacked: &[Tuple] = &view;
        // Both sides read rows of the `Observe ++ Unpack` layout through
        // the generic loop's accessor: the observed columns in place, an
        // unpacked tuple as the suffix.
        rows.prefix.clear();
        rows.prefix.extend(shape.names.0..shape.names.1);
        let prefix = &rows.prefix[..];
        let row = |inv, suffix| Row {
            pass,
            prefix,
            inv,
            suffix,
        };

        // Observed-side pass: fold every invocation that survives the
        // filters and the (observed-pure) pre-predicates into one shared
        // partial accumulator set. Aggregate expressions only load
        // observed columns, so a row with nothing joined on is a valid
        // evaluation layout. Filter metering mirrors the generic loop: an
        // invocation retires filters up to and including its first
        // failing one, then nothing after.
        fold_states.extend(spec.aggs.iter().map(|f| f.init()));
        let mut filter_retired = 0u64;
        let mut survivors = 0u64;
        let mut contributors = 0u64;
        let n = pass.batch.invocations();
        'rows: for inv in 0..n {
            let observed = row(inv, &[]);
            for filter in filters {
                let Inst::Filter { pred } = filter else {
                    continue;
                };
                filter_retired += 1;
                if !observed.holds(*pred, regs) {
                    continue 'rows;
                }
            }
            survivors += 1;
            if unpacked.is_empty() || !observed.passes(shape.pre, regs) {
                continue;
            }
            contributors += 1;
            for (st, xi) in fold_states.iter_mut().zip(shape.aggs.0..shape.aggs.1) {
                st.update(observed.eval(xi, regs).as_deref().unwrap_or(&NULL));
            }
        }
        // Every invocation retires Observe; filter survivors retire
        // Unpack; with nothing unpacked the working set then empties and
        // Emit is never reached.
        *ops += n as u64 + filter_retired + survivors;
        stats.unpacked += unpacked.len() * survivors as usize;
        if !unpacked.is_empty() {
            *ops += survivors;
            stats.emitted += contributors as usize * unpacked.len();
        }
        if contributors > 0 {
            // Unpacked-side pass: key expressions only load unpacked
            // columns, so whichever invocation stands behind the observed
            // half of the layout is never read.
            key_vals.resize((shape.keys.1 - shape.keys.0) as usize, Value::Null);
            for u in unpacked {
                let joined = row(0, u.values());
                if joined.fill(shape.keys, regs, key_vals) {
                    let key = joined.cols(shape.keys, key_vals);
                    sink.grouped_fold(*query, spec, &key, fold_states, contributors);
                }
            }
        }
        fold_states.clear();
        stats
    }
}

/// Where the parts of a program in the canonical join-aggregation shape
/// sit — `[Observe, Filter*, Unpack, Emit{grouped}]` where every group-key
/// column reads the unpacked side and every aggregate argument and fused
/// pre-predicate reads the observed side. Indices and copies only, so a
/// [`RunPlan`] can keep it beside the code it was derived from.
#[derive(Clone, Copy, Debug)]
struct Factorized {
    /// The `Observe`'s range in the name pool.
    names: PoolRange,
    /// Length of the `Filter` run between `Observe` and `Unpack`.
    /// Lowering resolved these against the observed schema alone.
    filters: usize,
    slot: QueryId,
    temporal: Option<TemporalFilter>,
    pre: PoolRange,
    keys: PoolRange,
    aggs: PoolRange,
}

/// Recognizes the shape [`Vm::run_factorized`] executes; `None` leaves
/// the program to the generic loop. Called when a [`RunPlan`] is built
/// and by the named-slice entry, which has no plan to keep it in.
fn factorized_shape(code: &AdviceByteCode) -> Option<Factorized> {
    let (Inst::Observe { names }, rest) = code.insts.split_first()? else {
        return None;
    };
    let filters = rest
        .iter()
        .take_while(|i| matches!(i, Inst::Filter { .. }))
        .count();
    let [Inst::Unpack { slot, temporal, .. }, Inst::Emit {
        spec,
        pre,
        keys,
        aggs,
        ..
    }] = &rest[filters..]
    else {
        return None;
    };
    if spec.streaming {
        return None;
    }
    // `true` when every column an expression range loads lies on the
    // wanted half of the `Observe ++ Unpack` concat layout (observed
    // columns come first); constants read neither half.
    let w_obs = (names.1 - names.0) as u16;
    let reads_only = |range: PoolRange, observed: bool| {
        (range.0..range.1).all(|xi| {
            let prog = code.exprs[xi as usize];
            code.einsts[prog.start as usize..(prog.start + prog.len) as usize]
                .iter()
                .all(|inst| !matches!(inst, EInst::Load { col, .. } if (*col < w_obs) != observed))
        })
    };
    let qualifies = reads_only(*pre, true) && reads_only(*keys, false) && reads_only(*aggs, true);
    qualifies.then_some(Factorized {
        names: *names,
        filters,
        slot: *slot,
        temporal: *temporal,
        pre: *pre,
        keys: *keys,
        aggs: *aggs,
    })
}

impl<'a, X: Exports + ?Sized> Pass<'a, X> {
    /// What invocation `inv` exports under `code.names[name]`.
    fn exported(&self, inv: usize, name: usize) -> Cow<'a, Value> {
        self.batch.get(inv, name, self.code.names[name].as_str())
    }
}

impl<'a, X: Exports + ?Sized> Row<'a, X> {
    /// What a lone expression reads, where it is: a column of the joined
    /// layout (`Null` past its end) or a literal.
    fn read(&self, lone: Slot) -> Cow<'a, Value> {
        let stored = match lone {
            Slot::Load(col) => match self.prefix.get(col as usize) {
                Some(&name) => return self.pass.exported(self.inv, name as usize),
                None => self.suffix.get(col as usize - self.prefix.len()),
            },
            Slot::Const(idx) => self.pass.code.consts.get(idx as usize),
            Slot::Run => None,
        };
        Cow::Borrowed(stored.unwrap_or(&NULL))
    }

    /// The value of expression `xi`: a reference for a lone one, the
    /// register machine's result otherwise.
    fn eval(&self, xi: u32, regs: &mut [Value]) -> Result<Cow<'a, Value>, EvalFailed> {
        match self.pass.slots[xi as usize] {
            Slot::Run => self.run(xi, regs).map(Cow::Owned),
            lone => Ok(self.read(lone)),
        }
    }

    /// `true` when expression `xi` evaluates to `Bool(true)`; anything
    /// else — another value, a failure — does not hold (advice safety).
    fn holds(&self, xi: u32, regs: &mut [Value]) -> bool {
        matches!(self.eval(xi, regs).as_deref(), Ok(Value::Bool(true)))
    }

    /// A row passes only when every predicate in `pre` holds.
    fn passes(&self, pre: PoolRange, regs: &mut [Value]) -> bool {
        (pre.0..pre.1).all(|xi| self.holds(xi, regs))
    }

    /// Projects the row through the expressions in `range` into a tuple of
    /// its own; any evaluation error drops the whole row.
    fn project(&self, range: PoolRange, regs: &mut [Value]) -> Option<Tuple> {
        // Collected as plain values with the failure on the side: a
        // `Result<Tuple, _>` collect costs more than the projection.
        let mut ok = true;
        let value = |xi| match self.eval(xi, regs) {
            Ok(v) => v.into_owned(),
            Err(EvalFailed) => {
                ok = false;
                Value::Null
            }
        };
        let projected: Tuple = (range.0..range.1).map(value).collect();
        ok.then_some(projected)
    }

    /// Runs the expressions of `range` that have to run, each leaving its
    /// value — `Null` for a failure — at its position in `ran`; `false`
    /// when one failed.
    fn fill(&self, range: PoolRange, regs: &mut [Value], ran: &mut [Value]) -> bool {
        let mut ok = true;
        for (xi, val) in (range.0..range.1).zip(ran) {
            if let Slot::Run = self.pass.slots[xi as usize] {
                *val = self.run(xi, regs).unwrap_or_else(|_| {
                    ok = false;
                    Value::Null
                });
            }
        }
        ok
    }

    /// The expressions of `range` over this row for a sink to read, after
    /// [`Row::fill`] left in `ran` what had to run.
    fn cols<'r>(&'r self, range: PoolRange, ran: &'r [Value]) -> Projected<'r, X> {
        let row = self;
        Projected { row, range, ran }
    }

    /// Runs expression `xi` on the register machine.
    fn run(&self, xi: u32, regs: &mut [Value]) -> Result<Value, EvalFailed> {
        let code = self.pass.code;
        let prog = code.exprs[xi as usize];
        let insts = &code.einsts[prog.start as usize..(prog.start + prog.len) as usize];
        let mut pc = 0usize;
        while pc < insts.len() {
            match &insts[pc] {
                EInst::Load { dst, col } => {
                    regs[*dst as usize] = self.read(Slot::Load(*col)).into_owned();
                }
                EInst::Const { dst, idx } => {
                    regs[*dst as usize] = code.consts[*idx as usize].clone();
                }
                EInst::Unary { dst, op, src } => {
                    let v = eval_unary(*op, &regs[*src as usize]).map_err(|_| EvalFailed)?;
                    regs[*dst as usize] = v;
                }
                EInst::Binary { dst, op, lhs, rhs } => {
                    let v = eval_binary(*op, &regs[*lhs as usize], &regs[*rhs as usize])
                        .map_err(|_| EvalFailed)?;
                    regs[*dst as usize] = v;
                }
                EInst::CoerceBool { dst, src } => match regs[*src as usize] {
                    Value::Bool(b) => regs[*dst as usize] = Value::Bool(b),
                    _ => return Err(EvalFailed),
                },
                EInst::SkipIfBool { src, when, skip } => {
                    if regs[*src as usize] == Value::Bool(*when) {
                        pc += *skip as usize;
                    }
                }
                EInst::Fail => return Err(EvalFailed),
            }
            pc += 1;
        }
        // Take the result by move: registers are written before read within
        // an expression (stack-disciplined allocation), so leaving Null
        // behind is invisible to subsequent evaluations.
        Ok(std::mem::replace(
            &mut regs[prog.result as usize],
            Value::Null,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_model::AggFunc;

    fn observe(alias: &str, fields: &[&str]) -> AdviceOp {
        AdviceOp::Observe {
            alias: alias.into(),
            fields: fields.iter().map(|s| (*s).to_owned()).collect(),
        }
    }

    fn run_collect(
        program: &AdviceProgram,
        exports: &[(&str, Value)],
        baggage: &mut Baggage,
    ) -> (CollectSink, VmStats) {
        let lowered = lower_program(program);
        lowered.code.validate().expect("lowered bytecode validates");
        let mut vm = Vm::new();
        let mut sink = CollectSink::default();
        let stats = vm.run(&lowered.code, exports, baggage, &mut sink);
        (sink, stats)
    }

    #[test]
    fn observe_filter_pack_unpack_emit_pipeline() {
        let slot = QueryId(300);
        let a1 = AdviceProgram {
            tracepoints: vec!["ClientProtocols".into()],
            ops: vec![
                observe("cl", &["procName"]),
                AdviceOp::Pack {
                    slot,
                    mode: PackMode::First(1),
                    exprs: vec![Expr::field("cl.procName")],
                    names: vec!["cl.procName".into()],
                },
            ],
        };
        let a2 = AdviceProgram {
            tracepoints: vec!["DataNodeMetrics.incrBytesRead".into()],
            ops: vec![
                observe("incr", &["delta"]),
                AdviceOp::Unpack {
                    slot,
                    schema: Schema::new(["cl.procName"]),
                    post_filter: None,
                },
                AdviceOp::Emit {
                    query: QueryId(1),
                    spec: Arc::new(OutputSpec {
                        key_names: vec!["cl.procName".into()],
                        aggs: vec![AggFunc::Sum],
                        agg_names: vec!["SUM(incr.delta)".into()],
                        columns: vec![
                            crate::advice::ColumnRef::Key(0),
                            crate::advice::ColumnRef::Agg(0),
                        ],
                        streaming: false,
                        ..OutputSpec::default()
                    }),
                    keys: vec![Expr::field("cl.procName")],
                    aggs: vec![Expr::field("incr.delta")],
                },
            ],
        };

        let mut bag = Baggage::new();
        let (sink, s1) = run_collect(&a1, &[("procName", Value::str("HGet"))], &mut bag);
        assert!(sink.grouped.is_empty() && sink.raw.is_empty());
        assert_eq!(s1.packed, 1);

        let (sink, s2) = run_collect(&a2, &[("delta", Value::I64(4096))], &mut bag);
        assert_eq!(s2.unpacked, 1);
        assert_eq!(s2.emitted, 1);
        assert_eq!(sink.grouped.len(), 1);
        let (_, key, args) = &sink.grouped[0];
        assert_eq!(key.0.get(0), &Value::str("HGet"));
        assert_eq!(args, &vec![Value::I64(4096)]);
    }

    #[test]
    fn short_circuit_matches_tree_walk() {
        // `false && <unknown field>`: the unknown field must not be reached.
        let program = AdviceProgram {
            tracepoints: vec!["tp".into()],
            ops: vec![
                observe("e", &["x"]),
                AdviceOp::Filter {
                    pred: Expr::bin(
                        BinOp::Or,
                        Expr::bin(BinOp::Lt, Expr::field("e.x"), Expr::lit(10)),
                        Expr::field("e.ghost"),
                    ),
                },
                AdviceOp::Pack {
                    slot: QueryId(7),
                    mode: PackMode::All,
                    exprs: vec![Expr::field("e.x")],
                    names: vec!["e.x".into()],
                },
            ],
        };
        let mut bag = Baggage::new();
        // lhs true → rhs (which lowers to Fail) skipped → tuple survives.
        let (_, s) = run_collect(&program, &[("x", Value::I64(5))], &mut bag);
        assert_eq!(s.packed, 1);
        // lhs false → rhs evaluated → Fail → tuple dropped.
        let (_, s) = run_collect(&program, &[("x", Value::I64(50))], &mut bag);
        assert_eq!(s.packed, 0);
    }

    #[test]
    fn validate_rejects_out_of_range_references() {
        let program = AdviceProgram {
            tracepoints: vec!["tp".into()],
            ops: vec![
                observe("e", &["x"]),
                AdviceOp::Filter {
                    pred: Expr::bin(BinOp::Lt, Expr::field("e.x"), Expr::lit(10)),
                },
            ],
        };
        let mut code = lower_program(&program).code;
        code.validate().expect("valid as lowered");
        code.num_regs = 0;
        assert!(code.validate().is_err());

        let mut code = lower_program(&program).code;
        if let Some(EInst::Const { idx, .. }) = code
            .einsts
            .iter_mut()
            .find(|i| matches!(i, EInst::Const { .. }))
        {
            *idx = 99;
        }
        assert!(code.validate().is_err());
    }

    #[test]
    fn constant_pool_is_representation_exact() {
        let program = AdviceProgram {
            tracepoints: vec!["tp".into()],
            ops: vec![
                observe("e", &["x"]),
                AdviceOp::Pack {
                    slot: QueryId(7),
                    mode: PackMode::All,
                    exprs: vec![
                        Expr::lit(Value::I64(5)),
                        Expr::lit(Value::U64(5)),
                        Expr::lit(Value::I64(5)),
                    ],
                    names: vec!["a".into(), "b".into(), "c".into()],
                },
            ],
        };
        let code = lower_program(&program).code;
        // I64(5) deduped, U64(5) kept distinct despite loose equality.
        assert_eq!(code.consts.len(), 2);
    }

    #[test]
    fn unresolved_fields_note_and_fail() {
        let program = AdviceProgram {
            tracepoints: vec!["tp".into()],
            ops: vec![
                observe("e", &["x"]),
                AdviceOp::Filter {
                    pred: Expr::field("ghost"),
                },
                AdviceOp::Pack {
                    slot: QueryId(7),
                    mode: PackMode::All,
                    exprs: vec![Expr::field("e.x")],
                    names: vec!["e.x".into()],
                },
            ],
        };
        let lowered = lower_program(&program);
        assert_eq!(lowered.notes.len(), 1, "one unresolved-field note");
        let mut bag = Baggage::new();
        let mut vm = Vm::new();
        let mut sink = CollectSink::default();
        let stats = vm.run(&lowered.code, &[("x", Value::I64(1))], &mut bag, &mut sink);
        assert_eq!(stats.packed, 0, "failing predicate drops every tuple");
    }

    /// Emit-side program: observe `delta`, filter, join against `slot`,
    /// emit a grouped SUM keyed by the unpacked process name.
    fn emit_side(slot: QueryId) -> AdviceProgram {
        AdviceProgram {
            tracepoints: vec!["DataNodeMetrics.incrBytesRead".into()],
            ops: vec![
                observe("incr", &["delta"]),
                AdviceOp::Filter {
                    pred: Expr::bin(BinOp::Lt, Expr::field("incr.delta"), Expr::lit(100)),
                },
                AdviceOp::Unpack {
                    slot,
                    schema: Schema::new(["cl.procName"]),
                    post_filter: None,
                },
                AdviceOp::Emit {
                    query: QueryId(1),
                    spec: Arc::new(OutputSpec {
                        key_names: vec!["cl.procName".into()],
                        aggs: vec![AggFunc::Sum],
                        agg_names: vec!["SUM(incr.delta)".into()],
                        columns: vec![
                            crate::advice::ColumnRef::Key(0),
                            crate::advice::ColumnRef::Agg(0),
                        ],
                        streaming: false,
                        ..OutputSpec::default()
                    }),
                    keys: vec![Expr::field("cl.procName")],
                    aggs: vec![Expr::field("incr.delta")],
                },
            ],
        }
    }

    /// Pack-side program with a retention-capped mode, to exercise one
    /// combined pack against per-invocation packs.
    fn pack_side(slot: QueryId, mode: PackMode) -> AdviceProgram {
        AdviceProgram {
            tracepoints: vec!["ClientProtocols".into()],
            ops: vec![
                observe("cl", &["procName"]),
                AdviceOp::Pack {
                    slot,
                    mode,
                    exprs: vec![Expr::field("cl.procName")],
                    names: vec!["cl.procName".into()],
                },
            ],
        }
    }

    /// Runs `code` over `batch` twice — one invocation at a time with
    /// [`Vm::run`], then as one whole [`Vm::run_batch`] — against clones
    /// of `bag` and asserts every observable matches: emitted rows,
    /// stats, retired-op deltas, and the serialized baggage.
    fn assert_batch_matches_one_at_a_time(
        code: &AdviceByteCode,
        batch: &[&[(&str, Value)]],
        bag: &Baggage,
    ) {
        let mut bag_single = bag.clone();
        let mut vm_single = Vm::new();
        let mut sink_single = CollectSink::default();
        let mut single = VmStats::default();
        for exports in batch {
            let s = vm_single.run(code, exports, &mut bag_single, &mut sink_single);
            single.unpacked += s.unpacked;
            single.packed += s.packed;
            single.emitted += s.emitted;
        }

        let mut bag_batch = bag.clone();
        let mut vm_batch = Vm::new();
        let mut sink_batch = CollectSink::default();
        let batched = vm_batch.run_batch(code, batch, &mut bag_batch, &mut sink_batch);

        assert_eq!(
            (batched.unpacked, batched.packed, batched.emitted),
            (single.unpacked, single.packed, single.emitted),
            "stats diverge"
        );
        assert_eq!(
            vm_batch.ops(),
            vm_single.ops(),
            "retired-op metering diverges"
        );
        assert_eq!(sink_batch.raw, sink_single.raw, "streaming rows diverge");
        assert_eq!(
            sink_batch.grouped, sink_single.grouped,
            "grouped rows diverge"
        );
        assert_eq!(
            bag_batch.to_bytes(),
            bag_single.to_bytes(),
            "baggage bytes diverge"
        );
    }

    /// An [`EmitSink`] that opts into folded grouped delivery and
    /// aggregates either delivery style into final per-group states, so
    /// however the rows were windowed they land in one comparable
    /// representation.
    #[derive(Default)]
    struct FoldSink {
        raw: Vec<(QueryId, Tuple)>,
        /// `(query, key, states, rows)` in first-seen group order.
        groups: Vec<(QueryId, GroupKey, Vec<AggState>, u64)>,
    }

    impl FoldSink {
        fn slot(
            &mut self,
            query: QueryId,
            spec: &Arc<OutputSpec>,
            key: &dyn Cols,
        ) -> &mut (QueryId, GroupKey, Vec<AggState>, u64) {
            let key = GroupKey(key.to_tuple());
            if let Some(i) = self
                .groups
                .iter()
                .position(|(q, k, _, _)| *q == query && *k == key)
            {
                return &mut self.groups[i];
            }
            let states = spec.aggs.iter().map(|f| f.init()).collect();
            self.groups.push((query, key, states, 0));
            self.groups.last_mut().expect("just pushed")
        }

        /// `(query, key, finalized values, rows)` per group, in
        /// first-seen order.
        fn finished(&self) -> Vec<(QueryId, GroupKey, Vec<Value>, u64)> {
            self.groups
                .iter()
                .map(|(q, k, states, rows)| {
                    (
                        *q,
                        k.clone(),
                        states.iter().map(AggState::finish).collect(),
                        *rows,
                    )
                })
                .collect()
        }
    }

    impl EmitSink for FoldSink {
        fn streaming_row(&mut self, query: QueryId, _spec: &Arc<OutputSpec>, row: Tuple) {
            self.raw.push((query, row));
        }
        fn grouped_row(
            &mut self,
            query: QueryId,
            spec: &Arc<OutputSpec>,
            key: &dyn Cols,
            args: &dyn Cols,
        ) {
            let (_, _, states, rows) = self.slot(query, spec, key);
            *rows += 1;
            for (st, i) in states.iter_mut().zip(0..args.width()) {
                st.update(&args.col(i));
            }
        }
        fn folds_grouped(&self) -> bool {
            true
        }
        fn grouped_fold(
            &mut self,
            query: QueryId,
            spec: &Arc<OutputSpec>,
            key: &dyn Cols,
            partial: &[AggState],
            rows: u64,
        ) {
            let (_, _, states, r) = self.slot(query, spec, key);
            *r += rows;
            for (st, p) in states.iter_mut().zip(partial) {
                st.merge(p);
            }
        }
    }

    /// Folding twin of [`assert_batch_matches_one_at_a_time`]: both runs'
    /// sinks accept [`EmitSink::grouped_fold`] (exercising the factorized
    /// join when the program qualifies, per-row delivery otherwise), and
    /// the final per-group accumulators — in first-seen group order —
    /// plus row counts, stats, op metering, and baggage must all match.
    fn assert_batch_matches_one_at_a_time_folding(
        code: &AdviceByteCode,
        batch: &[&[(&str, Value)]],
        bag: &Baggage,
    ) {
        let mut bag_single = bag.clone();
        let mut vm_single = Vm::new();
        let mut sink_single = FoldSink::default();
        let mut single = VmStats::default();
        for exports in batch {
            let s = vm_single.run(code, exports, &mut bag_single, &mut sink_single);
            single.unpacked += s.unpacked;
            single.packed += s.packed;
            single.emitted += s.emitted;
        }

        let mut bag_batch = bag.clone();
        let mut vm_batch = Vm::new();
        let mut sink_batch = FoldSink::default();
        let batched = vm_batch.run_batch(code, batch, &mut bag_batch, &mut sink_batch);

        assert_eq!(
            (batched.unpacked, batched.packed, batched.emitted),
            (single.unpacked, single.packed, single.emitted),
            "stats diverge"
        );
        assert_eq!(
            vm_batch.ops(),
            vm_single.ops(),
            "retired-op metering diverges"
        );
        assert_eq!(sink_batch.raw, sink_single.raw, "streaming rows diverge");
        assert_eq!(
            sink_batch.finished(),
            sink_single.finished(),
            "folded groups diverge"
        );
        assert_eq!(
            bag_batch.to_bytes(),
            bag_single.to_bytes(),
            "baggage bytes diverge"
        );
    }

    #[test]
    fn factorized_join_matches_one_at_a_time() {
        // The canonical shape with a fan-out join: three packed client
        // tuples, two sharing a group key (so one group receives the
        // shared partial twice), a filtered-out row, and a row with a
        // missing export.
        let slot = QueryId(300);
        let emitter = lower_program(&emit_side(slot)).code;
        let mut bag = Baggage::new();
        bag.pack(
            slot,
            &PackMode::All,
            [
                Tuple::from_iter([Value::str("HGet")]),
                Tuple::from_iter([Value::str("Scan")]),
                Tuple::from_iter([Value::str("HGet")]),
            ],
        );
        let batch: Vec<&[(&str, Value)]> = vec![
            &[("delta", Value::I64(40))],
            &[("delta", Value::I64(400))],
            &[("delta", Value::I64(2))],
            &[("other", Value::I64(1))],
        ];
        assert_batch_matches_one_at_a_time_folding(&emitter, &batch, &bag);
    }

    #[test]
    fn factorized_join_empty_slot_and_dead_batch() {
        let slot = QueryId(300);
        let emitter = lower_program(&emit_side(slot)).code;
        // Nothing packed: every invocation dies at the unpack.
        let batch: Vec<&[(&str, Value)]> =
            vec![&[("delta", Value::I64(1))], &[("delta", Value::I64(2))]];
        assert_batch_matches_one_at_a_time_folding(&emitter, &batch, &Baggage::new());
        // Everything filtered out before the join.
        let mut bag = Baggage::new();
        bag.pack(
            slot,
            &PackMode::All,
            [Tuple::from_iter([Value::str("HGet")])],
        );
        let dead: Vec<&[(&str, Value)]> =
            vec![&[("delta", Value::I64(400))], &[("delta", Value::I64(500))]];
        assert_batch_matches_one_at_a_time_folding(&emitter, &dead, &bag);
    }

    #[test]
    fn factorized_bails_on_observed_side_keys() {
        // GroupBy over an *observed* column: the factorization condition
        // fails and the generic loop's per-row delivery must still match.
        let slot = QueryId(300);
        let program = AdviceProgram {
            tracepoints: vec!["DataNodeMetrics.incrBytesRead".into()],
            ops: vec![
                observe("incr", &["delta"]),
                AdviceOp::Unpack {
                    slot,
                    schema: Schema::new(["cl.procName"]),
                    post_filter: None,
                },
                AdviceOp::Emit {
                    query: QueryId(1),
                    spec: Arc::new(OutputSpec {
                        key_names: vec!["incr.delta".into()],
                        aggs: vec![AggFunc::Count],
                        agg_names: vec!["COUNT".into()],
                        columns: vec![
                            crate::advice::ColumnRef::Key(0),
                            crate::advice::ColumnRef::Agg(0),
                        ],
                        streaming: false,
                        ..OutputSpec::default()
                    }),
                    keys: vec![Expr::field("incr.delta")],
                    aggs: vec![Expr::lit(1)],
                },
            ],
        };
        let code = lower_program(&program).code;
        let mut bag = Baggage::new();
        bag.pack(
            slot,
            &PackMode::All,
            [
                Tuple::from_iter([Value::str("HGet")]),
                Tuple::from_iter([Value::str("Scan")]),
            ],
        );
        let batch: Vec<&[(&str, Value)]> = vec![
            &[("delta", Value::I64(7))],
            &[("delta", Value::I64(7))],
            &[("delta", Value::I64(9))],
        ];
        assert_batch_matches_one_at_a_time_folding(&code, &batch, &bag);
    }

    #[test]
    fn batchable_gates_structural_hazards() {
        let slot = QueryId(300);
        assert!(lower_program(&emit_side(slot)).code.batchable());
        assert!(lower_program(&pack_side(slot, PackMode::All))
            .code
            .batchable());

        // Pack and Unpack on the same slot: invocation i+1's unpack must
        // see invocation i's pack, which op-major order cannot honor.
        let mut hazard = pack_side(slot, PackMode::All);
        hazard.ops.push(AdviceOp::Unpack {
            slot,
            schema: Schema::new(["cl.procName"]),
            post_filter: None,
        });
        assert!(!lower_program(&hazard).code.batchable());

        // Two Emits: sequential order interleaves per invocation.
        let mut two_emits = emit_side(slot);
        let emit = two_emits.ops.last().cloned().expect("emit op");
        two_emits.ops.push(emit);
        assert!(!lower_program(&two_emits).code.batchable());
    }

    #[test]
    fn run_batch_matches_sequential_runs_on_join_emit() {
        let slot = QueryId(300);
        let packer = lower_program(&pack_side(slot, PackMode::First(1))).code;
        let emitter = lower_program(&emit_side(slot)).code;
        emitter.validate().expect("valid");

        let mut bag = Baggage::new();
        let mut vm = Vm::new();
        let mut sink = CollectSink::default();
        vm.run(
            &packer,
            &[("procName", Value::str("HGet"))],
            &mut bag,
            &mut sink,
        );

        // Mixed batch: rows 0/2 pass the `delta < 100` filter, row 1 is
        // dropped (exercising per-invocation early exit), row 3 has a
        // missing export.
        let batch: Vec<&[(&str, Value)]> = vec![
            &[("delta", Value::I64(40))],
            &[("delta", Value::I64(400))],
            &[("delta", Value::I64(2))],
            &[("other", Value::I64(1))],
        ];
        assert_batch_matches_one_at_a_time(&emitter, &batch, &bag);

        // And the empty batch is a no-op.
        let mut vm = Vm::new();
        let mut sink = CollectSink::default();
        let stats = vm.run_batch(&emitter, &[], &mut bag.clone(), &mut sink);
        assert_eq!((stats.unpacked, stats.packed, stats.emitted), (0, 0, 0));
        assert_eq!(vm.ops(), 0);
    }

    #[test]
    fn run_batch_matches_sequential_runs_on_capped_pack() {
        let slot = QueryId(300);
        for mode in [
            PackMode::All,
            PackMode::First(2),
            PackMode::Recent(2),
            PackMode::GroupAgg {
                key_len: 1,
                aggs: vec![AggFunc::Count],
            },
        ] {
            let packer = lower_program(&pack_side(slot, mode)).code;
            let names = ["a", "b", "c", "d"];
            let exports: Vec<[(&str, Value); 1]> = names
                .iter()
                .map(|n| [("procName", Value::str(n))])
                .collect();
            let batch: Vec<&[(&str, Value)]> = exports.iter().map(|e| e.as_slice()).collect();
            assert_batch_matches_one_at_a_time(&packer, &batch, &Baggage::new());
        }
    }

    #[test]
    fn run_batch_falls_back_for_non_batchable_programs() {
        // Pack-then-unpack on one slot: not batchable, so run_batch runs
        // n batches of one, in order — invocation i+1 sees invocation
        // i's pack.
        let slot = QueryId(300);
        let mut program = pack_side(slot, PackMode::All);
        program.ops.push(AdviceOp::Unpack {
            slot,
            schema: Schema::new(["packed.procName"]),
            post_filter: None,
        });
        program.ops.push(AdviceOp::Emit {
            query: QueryId(1),
            spec: Arc::new(OutputSpec {
                key_names: vec!["packed.procName".into()],
                columns: vec![crate::advice::ColumnRef::Key(0)],
                streaming: true,
                ..OutputSpec::default()
            }),
            keys: vec![Expr::field("packed.procName")],
            aggs: vec![],
        });
        let code = lower_program(&program).code;
        assert!(!code.batchable());
        let exports = [
            [("procName", Value::str("a"))],
            [("procName", Value::str("b"))],
        ];
        let batch: Vec<&[(&str, Value)]> = exports.iter().map(|e| e.as_slice()).collect();
        assert_batch_matches_one_at_a_time(&code, &batch, &Baggage::new());

        // Op-major order would have both invocations unpack both packs
        // (a, b, a, b).
        let mut sink = CollectSink::default();
        Vm::new().run_batch(&code, &batch, &mut Baggage::new(), &mut sink);
        let emitted: Vec<&Value> = sink.raw.iter().map(|(_, row)| row.get(0)).collect();
        assert_eq!(
            emitted,
            [&Value::str("a"), &Value::str("a"), &Value::str("b")]
        );
    }
}
