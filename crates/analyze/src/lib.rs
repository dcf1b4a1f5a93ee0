//! Static install-time verification of Pivot Tracing queries.
//!
//! The paper's §5 ("Discussion") argues Pivot Tracing is safe to apply
//! to live systems because advice is restricted: straight-line programs,
//! no side effects, bounded baggage growth. This crate turns those
//! informal arguments into a machine-checked gate that runs over every
//! query *before* it is woven into tracepoints:
//!
//! 1. **Name/schema resolution** ([`mod@diag`] code `PT001`) — every
//!    field reference is interpreted against the tracepoint registry's
//!    exports and the output columns of referenced sub-queries, with
//!    spans and nearest-name suggestions.
//! 2. **Type coherence** (`PT002`) — abstract interpretation of every
//!    expression over a small type lattice; non-boolean predicates,
//!    boolean arithmetic, and string aggregation are rejected.
//! 3. **Dataflow well-formedness** (`PT003`/`PT004`) — every `Unpack`
//!    reads a slot a causally earlier `Pack` wrote with the same width,
//!    the `Emit` layout is consistent with its `OutputSpec`, and dead
//!    advice (unconsumed packs, programs that do nothing) is flagged —
//!    as are dead output *columns* (`PT009`): packed columns a later
//!    stage unpacks but nothing ever reads.
//! 4. **Baggage-cost bounding** (`PT006`, [`cost`]) — a static upper
//!    bound on the bytes a query adds to one request's baggage, with
//!    warnings for `PackMode::All` boundaries no Table 3 rewrite shrank —
//!    and `PT010` when such a boundary feeds a `Trigger` clause, turning
//!    the hindsight flush into a per-event firehose.
//! 5. **Reference-cycle detection** (`PT005`, over the
//!    [`SourceKind::QueryRef`](pivot_query::SourceKind) graph) — names
//!    the cycle an open-world resolver can describe (the compiler, for
//!    its part, stops inlining at 250 stages).
//! 6. **Lowering fidelity** (`PT008`) — the dataflow pass runs on the
//!    *lowered bytecode* ([`CompiledCode::lower`]), the exact artifact
//!    agents execute and the bus ships, not on the advice-op trees it
//!    came from. Degradation notes from lowering and programs that fail
//!    structural bytecode validation are install-blocking errors:
//!    verify what you execute.
//!
//! There is one pipeline. The frontend's `install_named` parses, plans
//! (the variant it executes), lowers to advice and lowers to bytecode,
//! each once, and hands those artifacts to [`Analyzer::verify`], which
//! compiles nothing of its own: the bytecode it checks is the bytecode
//! `Command::Install` ships, under the query's real id. Failures surface
//! as `InstallError::Rejected`. [`Analyzer::analyze`] runs the same
//! pipeline over a text for the standalone `pivot-lint` binary.
//!
//! [`CompiledCode::lower`]: pivot_query::CompiledCode::lower

pub mod cost;
mod cycle;
mod dataflow;
pub mod diag;
mod scope;
mod types;

pub use cost::{plan_cost, Bound, PlanCost, StageCost, NOMINAL_BYTES_PER_VALUE};
pub use diag::{Code, Diagnostic, Severity};

use pivot_baggage::QueryId;
use pivot_query::plan::QueryPlan;
use pivot_query::{
    compile, locate, parse, plan_query, CompileError, CompiledCode, CompiledQuery, Options, Query,
    Resolver,
};

/// The verdict of the verifier on one query.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// Every finding, in pass order.
    pub diagnostics: Vec<Diagnostic>,
    /// Baggage cost of the optimized plan (absent when compilation was
    /// not reached).
    pub optimized_cost: Option<PlanCost>,
    /// Baggage cost of the unoptimized plan, for the optimizer
    /// cross-check: the optimized bound must never exceed this. Set when
    /// the unoptimized plan is the one installed, and by
    /// [`Analyzer::analyze`].
    pub unoptimized_cost: Option<PlanCost>,
}

impl Analysis {
    /// Returns `true` when any finding is an error (the query must not
    /// be woven).
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(Diagnostic::is_error)
    }

    /// Returns `true` when a diagnostic with `code` was reported.
    pub fn has_code(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// The verdict of a query that stopped before its costs were known.
    fn stopped(diagnostics: Vec<Diagnostic>) -> Analysis {
        Analysis {
            diagnostics,
            optimized_cost: None,
            unoptimized_cost: None,
        }
    }
}

/// One query as compiled for install: the artifacts [`Analyzer::verify`]
/// checks, each the one its caller ships. The verifier compiles nothing
/// of its own.
pub struct Compiled<'a> {
    /// The parsed query.
    pub ast: &'a Query,
    /// The options `plan` was planned under.
    pub options: Options,
    /// The plan `advice` was lowered from.
    pub plan: &'a QueryPlan,
    /// The advice lowered from `plan`, with the query's id, name and text.
    pub advice: &'a CompiledQuery,
    /// The bytecode lowered from `advice`: what agents are sent and run.
    pub code: &'a CompiledCode,
    /// The degradation notes of lowering `code`.
    pub notes: &'a [String],
}

/// The static verifier. Construct one per resolver (usually the
/// frontend) and [`Analyzer::verify`] each compiled query, or
/// [`Analyzer::analyze`] a query text.
pub struct Analyzer<'r> {
    resolver: &'r dyn Resolver,
}

impl<'r> Analyzer<'r> {
    /// Creates a verifier resolving names through `resolver`.
    pub fn new(resolver: &'r dyn Resolver) -> Analyzer<'r> {
        Analyzer { resolver }
    }

    /// Runs every pass over `text` (to be installed under `name`): parses,
    /// plans and lowers it as an optimizing frontend would, then
    /// [`verify`](Analyzer::verify)s the result.
    pub fn analyze(&self, text: &str, name: &str) -> Analysis {
        let ast = match parse(text) {
            Ok(ast) => ast,
            Err(e) => {
                let diag = Diagnostic::error(Code::ParseError, e.to_string());
                return Analysis::stopped(vec![diag]);
            }
        };
        let options = Options::default();
        let plan = match plan_query(&ast, self.resolver, options) {
            Ok(plan) => plan,
            Err(e) => {
                // The AST passes name most defects better, with spans.
                let mut diags = Vec::new();
                if !self.check_ast(name, text, &ast, &mut diags) {
                    diags.push(compile_diag(&e, text));
                }
                return Analysis::stopped(diags);
            }
        };
        // Nothing is installed, so there is no id to compile under; slots
        // are numbered from the id, so any id yields the same structure.
        let advice = compile::lower(&plan, name, text, QueryId(1));
        let (code, notes) = CompiledCode::lower(&advice);
        let mut analysis = self.verify(&Compiled {
            ast: &ast,
            options,
            plan: &plan,
            advice: &advice,
            code: &code,
            notes: &notes,
        });
        if analysis.optimized_cost.is_some() {
            let unoptimized = plan_query(&ast, self.resolver, Options::unoptimized());
            analysis.unoptimized_cost = unoptimized.ok().map(|p| plan_cost(&p));
        }
        analysis
    }

    /// Runs every pass over one compiled query: reference cycles, names
    /// and types on its AST; dataflow and dead columns on its bytecode
    /// and lowering notes; baggage cost on its plan.
    pub fn verify(&self, unit: &Compiled<'_>) -> Analysis {
        let text = &unit.advice.text;
        let mut diags = Vec::new();
        if self.check_ast(&unit.advice.name, text, unit.ast, &mut diags) {
            return Analysis::stopped(diags);
        }

        // Dataflow runs over the lowered bytecode — the artifact agents
        // execute — so lowering defects (PT008) surface here too.
        dataflow::check(unit.code, unit.notes, &mut diags);
        dataflow::check_dead_columns(unit.advice, unit.code, &mut diags);

        // PT006 and PT010 judge what the optimizer leaves of the query,
        // so an unoptimized install plans the optimized variant for them.
        let cost = plan_cost(unit.plan);
        let (optimized_cost, unoptimized_cost) = if unit.options.optimize {
            (Some(cost), None)
        } else {
            let optimized = plan_query(unit.ast, self.resolver, Options::default()).ok();
            (optimized.map(|p| plan_cost(&p)), Some(cost))
        };

        // Unbounded boundaries that survived optimization.
        if let Some(cost) = &optimized_cost {
            for s in cost.stages.iter().filter(|s| s.unbounded_mode) {
                let alias = s.alias.rsplit("::").next().unwrap_or(&s.alias);
                diags.push(
                    Diagnostic::warning(
                        Code::UnboundedPack,
                        format!(
                            "the pack at `{alias}` retains every tuple: \
                             baggage grows with the number of `{alias}` \
                             events in a request",
                        ),
                    )
                    .with_span(locate(text, alias))
                    .suggest(format!(
                        "bound it — `FirstN(n, ...)` / `MostRecentN(n, \
                         ...)` on `{alias}` — or aggregate in Select so \
                         the optimizer can push the aggregation into \
                         the baggage (Table 3)",
                    )),
                );
            }
        }

        // Trigger advice on an unbounded tuple flow (PT010). The
        // detection reuses the cost pass verbatim: a hindsight trigger is
        // only proportionate when the flow feeding it is bounded, so any
        // `PackMode::All` boundary that survived optimization turns a
        // `Trigger` clause into a per-event firehose risk. Checked on the
        // lowered bytecode — the artifact agents execute — so a trigger
        // the compiler elided does not warn.
        let has_trigger = unit.code.programs.iter().any(|p| p.triggers());
        if has_trigger {
            if let Some(unbounded) = optimized_cost
                .as_ref()
                .and_then(|c| c.stages.iter().find(|s| s.unbounded_mode))
            {
                let alias = unbounded.alias.rsplit("::").next().unwrap_or("");
                diags.push(
                    Diagnostic::warning(
                        Code::TriggerUnbounded,
                        format!(
                            "`Trigger` advice rides an unbounded tuple \
                             flow: the pack at `{alias}` retains every \
                             tuple, so one hot request can fire the \
                             hindsight flush on every event",
                        ),
                    )
                    .with_span(locate(text, "Trigger"))
                    .suggest(format!(
                        "bound the flow first — `First(n, ...)` / \
                         `MostRecent(n, ...)` on `{alias}` — so the \
                         trigger fires against a bounded window",
                    )),
                );
            }
        }

        Analysis {
            diagnostics: diags,
            optimized_cost,
            unoptimized_cost,
        }
    }

    /// The passes over the AST. Returns `true` when they found an error,
    /// after which nothing compiled from the query is worth checking.
    fn check_ast(&self, name: &str, text: &str, ast: &Query, diags: &mut Vec<Diagnostic>) -> bool {
        if cycle::check(name, ast, text, self.resolver, diags) {
            return true;
        }
        // Names and types recover per-expression, so both always run
        // (more findings per invocation).
        scope::check(ast, text, self.resolver, diags);
        types::check(ast, text, diags);
        diags.iter().any(Diagnostic::is_error)
    }
}

/// Maps a compiler error the AST passes did not anticipate onto a
/// diagnostic (defense in depth: the verifier's own passes should catch
/// these first, with better spans).
fn compile_diag(e: &CompileError, text: &str) -> Diagnostic {
    let (code, needle) = match e {
        CompileError::Parse(_) => (Code::ParseError, None),
        CompileError::UnknownTracepoint(t) => (Code::UndefinedName, Some(t.clone())),
        CompileError::UnknownField(f) => (Code::UndefinedName, Some(f.clone())),
        CompileError::UnknownExport { field, .. } => (Code::UndefinedName, Some(field.clone())),
        CompileError::AliasNotScalar(a) => (Code::DataflowError, Some(a.clone())),
        CompileError::BadJoin(a) => (Code::DataflowError, Some(a.clone())),
        CompileError::FromMustBeTracepoints
        | CompileError::DuplicateAlias(_)
        | CompileError::TooManyStages => (Code::CompileError, None),
    };
    Diagnostic::error(code, e.to_string()).with_span(needle.and_then(|n| locate(text, &n)))
}
