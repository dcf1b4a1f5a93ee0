//! Query compilation: AST → optimized plan → advice.
//!
//! The compiler flattens the query (inlining named sub-query references,
//! paper Q9), assigns `Where` clauses to the earliest stage that can
//! evaluate them (selection pushdown, σ rules of Table 3), computes the
//! minimal field set each pack boundary must carry (projection pushdown,
//! Π rules), converts temporal filters into bounded pack modes, and — when
//! every aggregate of the final `Select` is computable on the packed side —
//! rewrites the last boundary into a grouped aggregation pack (the
//! `A`/`GA` rules with their `Combine` functions).

use std::collections::HashMap;
use std::fmt;

use pivot_baggage::PackMode;
use pivot_model::{AggFunc, Expr, Value};

use crate::advice::{AdviceOp, AdviceProgram, ColumnRef, CompiledQuery, OutputSpec};
use crate::ast::{Query, SelectItem, Source, SourceKind, TemporalFilter};
use crate::plan::{QueryPlan, Stage, StageSink, UnpackEdge};
use pivot_baggage::QueryId;

/// Resolves names the compiler cannot interpret alone.
pub trait Resolver {
    /// Returns the export names of a tracepoint (including the default
    /// exports `host`, `timestamp`, `procid`, `procname`, `tracepoint`),
    /// or `None` if no such tracepoint is defined.
    fn tracepoint_exports(&self, name: &str) -> Option<Vec<String>>;

    /// Returns the AST of a previously installed query with this name, or
    /// `None` if the name does not refer to a query.
    fn query_ast(&self, name: &str) -> Option<Query>;
}

/// Compilation options.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Apply the Table 3 rewrite rules. Disabled for the unoptimized
    /// baseline (paper Figure 6a): everything observable is packed raw,
    /// all filtering and aggregation happens at the emit stage, and
    /// temporal filters apply at unpack time.
    pub optimize: bool,
}

impl Default for Options {
    fn default() -> Options {
        Options { optimize: true }
    }
}

impl Options {
    /// Returns options with the optimizer disabled.
    pub fn unoptimized() -> Options {
        Options { optimize: false }
    }
}

/// Errors reported by the compiler.
#[derive(Clone, PartialEq, Debug)]
pub enum CompileError {
    /// The query text failed to parse.
    Parse(String),
    /// The `From` clause must name tracepoints, not a query reference.
    FromMustBeTracepoints,
    /// A tracepoint name is not defined.
    UnknownTracepoint(String),
    /// A field reference could not be resolved to any alias.
    UnknownField(String),
    /// A referenced export is not provided by a tracepoint.
    UnknownExport {
        /// The tracepoint.
        tracepoint: String,
        /// The missing export.
        field: String,
    },
    /// An alias is declared twice.
    DuplicateAlias(String),
    /// An `On` clause does not mention the join's own alias.
    BadJoin(String),
    /// Queries are limited to 250 stages.
    TooManyStages,
    /// A bare alias was used as a value but the alias has several columns.
    AliasNotScalar(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(m) => write!(f, "{m}"),
            CompileError::FromMustBeTracepoints => {
                write!(f, "the From clause must name tracepoints")
            }
            CompileError::UnknownTracepoint(t) => {
                write!(f, "unknown tracepoint `{t}`")
            }
            CompileError::UnknownField(x) => {
                write!(f, "cannot resolve field `{x}`")
            }
            CompileError::UnknownExport { tracepoint, field } => {
                write!(f, "tracepoint `{tracepoint}` does not export `{field}`")
            }
            CompileError::DuplicateAlias(a) => {
                write!(f, "alias `{a}` declared twice")
            }
            CompileError::BadJoin(a) => write!(
                f,
                "join `{a}`: the On clause must relate the new alias to an \
                 existing one"
            ),
            CompileError::TooManyStages => {
                write!(f, "query exceeds 250 stages")
            }
            CompileError::AliasNotScalar(a) => {
                write!(f, "alias `{a}` used as a value but it has several columns")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Compiles a parsed query into a plan (exposed for plan inspection and the
/// optimizer ablation).
pub fn plan_query(
    ast: &Query,
    resolver: &dyn Resolver,
    options: Options,
) -> Result<QueryPlan, CompileError> {
    let mut b = Builder {
        resolver,
        optimize: options.optimize,
        nodes: Vec::new(),
        wheres: Vec::new(),
    };
    let (sink, scope) = b.add_query(ast, "")?;
    debug_assert_eq!(sink, 0);
    b.finish(ast, scope)
}

// ---------------------------------------------------------------------------
// Builder internals
// ---------------------------------------------------------------------------

/// A clause consumer: which node evaluates an expression.
#[derive(Clone, Debug)]
struct Ref {
    producer: usize,
    field: String,
}

/// The flattened emit specification of an inlined sub-query.
#[derive(Clone, Debug)]
struct Inline {
    /// Output columns: (name, select item with canonical exprs).
    select: Vec<(String, SelectItem)>,
    /// Canonical group-by key expressions (with names).
    group_keys: Vec<(String, Expr)>,
    /// Temporal filter the *outer* query applied to this source.
    outer_temporal: Option<TemporalFilter>,
}

struct Node {
    alias: String,
    tracepoints: Vec<String>,
    exports: Vec<String>,
    temporal: Option<TemporalFilter>,
    succ: Option<usize>,
    preds: Vec<usize>,
    inline: Option<Inline>,
    /// Fields of this node's alias referenced anywhere (canonical names).
    observed: Vec<String>,
    /// Fields that must flow through this node's pack (canonical names).
    out_fields: Vec<String>,
    /// `Where` clauses assigned here.
    filters: Vec<Expr>,
}

struct Builder<'r> {
    resolver: &'r dyn Resolver,
    optimize: bool,
    nodes: Vec<Node>,
    /// All `Where` clauses (canonical) with their reference lists.
    wheres: Vec<(Expr, Vec<Ref>)>,
}

impl<'r> Builder<'r> {
    /// Flattens `ast` (recursively inlining query references) and returns
    /// the index of its sink node.
    fn add_query(
        &mut self,
        ast: &Query,
        prefix: &str,
    ) -> Result<(usize, HashMap<String, usize>), CompileError> {
        // Each level adds a node before it inlines a reference, so this
        // also ends the recursion a reference cycle starts (a `Resolver`
        // is open: nothing else stops one from describing a cycle).
        if self.nodes.len() > 250 {
            return Err(CompileError::TooManyStages);
        }
        // Per-level scope: alias → node index.
        let mut scope: HashMap<String, usize> = HashMap::new();

        // The From source: must be tracepoints.
        let SourceKind::Tracepoints(names) = &ast.from.kind else {
            return Err(CompileError::FromMustBeTracepoints);
        };
        let names = self.classify(names)?;
        let SourceKind::Tracepoints(tps) = names else {
            return Err(CompileError::FromMustBeTracepoints);
        };
        let sink = self.new_node(&ast.from, prefix, tps, None, &mut scope)?;

        // Joins, in declaration order.
        for join in &ast.joins {
            let new_alias = &join.source.alias;
            // The new alias must be the causally-earlier side; the later
            // side must be an existing alias (an unknown later name is
            // tolerated as the main alias — the paper's Q9 writes `end`).
            if &join.earlier != new_alias {
                return Err(CompileError::BadJoin(new_alias.clone()));
            }
            let later = match scope.get(&join.later) {
                Some(&idx) => idx,
                None => sink,
            };
            let SourceKind::Tracepoints(names) = &join.source.kind else {
                // QueryRef already classified below.
                unreachable!("parser only produces tracepoint sources")
            };
            match self.classify(names)? {
                SourceKind::Tracepoints(tps) => {
                    let n = self.new_node(&join.source, prefix, tps, Some(later), &mut scope)?;
                    self.nodes[later].preds.push(n);
                }
                SourceKind::QueryRef(qname) => {
                    let sub = self.resolver.query_ast(&qname).expect("classify checked");
                    let sub_prefix = format!("{prefix}{}::", join.source.alias);
                    let (sub_sink, sub_scope) = self.add_query(&sub, &sub_prefix)?;
                    // Convert the sub-query's emit stage into a pack stage
                    // bound to the outer alias.
                    let inline = self.build_inline(
                        &sub,
                        &sub_scope,
                        &join.source.alias,
                        join.source.filter,
                        sub_sink,
                    )?;
                    self.nodes[sub_sink].inline = Some(inline);
                    self.nodes[sub_sink].succ = Some(later);
                    self.nodes[later].preds.push(sub_sink);
                    if scope.insert(join.source.alias.clone(), sub_sink).is_some() {
                        return Err(CompileError::DuplicateAlias(join.source.alias.clone()));
                    }
                }
            }
        }

        // Canonicalize this level's Where clauses.
        for w in &ast.wheres {
            let (expr, refs) = self.canon_expr(w, &scope)?;
            self.wheres.push((expr, refs));
        }

        // Remember observation demands from this level's select / group-by
        // (the top level handles them in `finish`; sub levels in
        // `build_inline`). Nothing to do here.
        if self.nodes.len() > 250 {
            return Err(CompileError::TooManyStages);
        }
        Ok((sink, scope))
    }

    /// Creates a node for a plain tracepoint source.
    fn new_node(
        &mut self,
        source: &Source,
        prefix: &str,
        tracepoints: Vec<String>,
        succ: Option<usize>,
        scope: &mut HashMap<String, usize>,
    ) -> Result<usize, CompileError> {
        let mut exports: Vec<String> = Vec::new();
        for tp in &tracepoints {
            let e = self
                .resolver
                .tracepoint_exports(tp)
                .ok_or_else(|| CompileError::UnknownTracepoint(tp.clone()))?;
            for f in e {
                if !exports.contains(&f) {
                    exports.push(f);
                }
            }
        }
        let alias = format!("{prefix}{}", source.alias);
        let idx = self.nodes.len();
        self.nodes.push(Node {
            alias,
            tracepoints,
            exports,
            temporal: source.filter,
            succ,
            preds: Vec::new(),
            inline: None,
            observed: Vec::new(),
            out_fields: Vec::new(),
            filters: Vec::new(),
        });
        if scope.insert(source.alias.clone(), idx).is_some() {
            return Err(CompileError::DuplicateAlias(source.alias.clone()));
        }
        Ok(idx)
    }

    /// Decides whether a single-name source refers to an installed query.
    fn classify(&self, names: &[String]) -> Result<SourceKind, CompileError> {
        if names.len() == 1 && self.resolver.query_ast(&names[0]).is_some() {
            return Ok(SourceKind::QueryRef(names[0].clone()));
        }
        for n in names {
            if self.resolver.tracepoint_exports(n).is_none() {
                return Err(CompileError::UnknownTracepoint(n.clone()));
            }
        }
        Ok(SourceKind::Tracepoints(names.to_vec()))
    }

    /// Canonicalizes an expression against `scope`: every field reference
    /// becomes `node_alias.field` (or an inline output column name), and
    /// the references are recorded.
    fn canon_expr(
        &self,
        expr: &Expr,
        scope: &HashMap<String, usize>,
    ) -> Result<(Expr, Vec<Ref>), CompileError> {
        let mut refs = Vec::new();
        let out = self.canon_rec(expr, scope, &mut refs)?;
        Ok((out, refs))
    }

    fn canon_rec(
        &self,
        expr: &Expr,
        scope: &HashMap<String, usize>,
        refs: &mut Vec<Ref>,
    ) -> Result<Expr, CompileError> {
        Ok(match expr {
            Expr::Field(name) => {
                let (producer, canonical) = self.resolve_field(name, scope)?;
                refs.push(Ref {
                    producer,
                    field: canonical.clone(),
                });
                Expr::Field(canonical)
            }
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Unary(op, e) => Expr::Unary(*op, Box::new(self.canon_rec(e, scope, refs)?)),
            Expr::Binary(op, l, r) => Expr::Binary(
                *op,
                Box::new(self.canon_rec(l, scope, refs)?),
                Box::new(self.canon_rec(r, scope, refs)?),
            ),
        })
    }

    fn resolve_field(
        &self,
        name: &str,
        scope: &HashMap<String, usize>,
    ) -> Result<(usize, String), CompileError> {
        if let Some((prefix, rest)) = name.split_once('.') {
            if let Some(&idx) = scope.get(prefix) {
                let node = &self.nodes[idx];
                if let Some(inline) = &node.inline {
                    // Reference into a sub-query's output columns.
                    let want_exact = format!("{prefix}.{rest}");
                    for (col, _) in &inline.select {
                        if col == &want_exact || col.rsplit('.').next() == Some(rest) {
                            return Ok((idx, col.clone()));
                        }
                    }
                    return Err(CompileError::UnknownField(name.to_owned()));
                }
                return Ok((idx, format!("{}.{}", node.alias, rest)));
            }
            return Err(CompileError::UnknownField(name.to_owned()));
        }
        // Bare alias used as a value: single-column inline output.
        if let Some(&idx) = scope.get(name) {
            if let Some(inline) = &self.nodes[idx].inline {
                if inline.select.len() == 1 {
                    return Ok((idx, inline.select[0].0.clone()));
                }
                return Err(CompileError::AliasNotScalar(name.to_owned()));
            }
            return Err(CompileError::AliasNotScalar(name.to_owned()));
        }
        Err(CompileError::UnknownField(name.to_owned()))
    }

    /// Builds the inline emit description of a sub-query: output column
    /// names, canonical select items, and group keys.
    fn build_inline(
        &mut self,
        sub: &Query,
        sub_scope: &HashMap<String, usize>,
        outer_alias: &str,
        outer_temporal: Option<TemporalFilter>,
        sub_sink: usize,
    ) -> Result<Inline, CompileError> {
        let single = sub.select.len() == 1;
        let mut select = Vec::new();
        for (i, item) in sub.select.iter().enumerate() {
            let (canon_item, refs) = match item {
                SelectItem::Expr(e) => {
                    let (e, r) = self.canon_expr(e, sub_scope)?;
                    (SelectItem::Expr(e), r)
                }
                SelectItem::Agg(f, e) => {
                    let (e, r) = self.canon_expr(e, sub_scope)?;
                    (SelectItem::Agg(*f, e), r)
                }
            };
            let name = if single {
                outer_alias.to_owned()
            } else {
                let suffix = match item {
                    SelectItem::Expr(Expr::Field(f)) => {
                        f.rsplit('.').next().unwrap_or("c").to_owned()
                    }
                    _ => format!("c{i}"),
                };
                format!("{outer_alias}.{suffix}")
            };
            // Record demands: the sub sink consumes these fields.
            self.record_refs(&refs, sub_sink);
            select.push((name, canon_item));
        }
        let mut group_keys = Vec::new();
        for g in &sub.group_by {
            let (e, refs) = self.canon_expr(&Expr::Field(g.clone()), sub_scope)?;
            self.record_refs(&refs, sub_sink);
            let name = match &e {
                Expr::Field(f) => f.clone(),
                other => other.to_string(),
            };
            group_keys.push((name, e));
        }
        Ok(Inline {
            select,
            group_keys,
            outer_temporal,
        })
    }

    /// Records that `consumer` needs each referenced field, marking
    /// observation at the producer and flow through every boundary between
    /// producer and consumer.
    fn record_refs(&mut self, refs: &[Ref], consumer: usize) {
        for r in refs {
            // Observation demand at the producer (skip inline columns —
            // they are produced by the pack itself).
            let is_inline_col = self.nodes[r.producer]
                .inline
                .as_ref()
                .is_some_and(|i| i.select.iter().any(|(n, _)| n == &r.field));
            if !is_inline_col && !self.nodes[r.producer].observed.contains(&r.field) {
                self.nodes[r.producer].observed.push(r.field.clone());
            }
            // Flow demand along the path producer → consumer.
            let mut n = r.producer;
            while n != consumer {
                if !self.nodes[n].out_fields.contains(&r.field) {
                    self.nodes[n].out_fields.push(r.field.clone());
                }
                match self.nodes[n].succ {
                    Some(s) => n = s,
                    None => break,
                }
            }
        }
    }

    /// Returns the set of nodes whose tuples are visible at `n`.
    fn coverage(&self, n: usize) -> Vec<usize> {
        let mut out = vec![n];
        let mut stack = self.nodes[n].preds.clone();
        while let Some(p) = stack.pop() {
            if !out.contains(&p) {
                out.push(p);
                stack.extend(self.nodes[p].preds.iter().copied());
            }
        }
        out
    }

    /// Finishes the build: clause assignment, projection computation,
    /// aggregation pushdown, and stage materialization.
    fn finish(
        mut self,
        ast: &Query,
        scope: HashMap<String, usize>,
    ) -> Result<QueryPlan, CompileError> {
        let sink = 0usize;

        // Canonicalize emit clauses and record their demands at the sink.
        let mut sel_items: Vec<(SelectItem, Vec<Ref>)> = Vec::new();
        for item in &ast.select {
            let (canon, refs) = match item {
                SelectItem::Expr(e) => {
                    let (e, r) = self.canon_expr(e, &scope)?;
                    (SelectItem::Expr(e), r)
                }
                SelectItem::Agg(f, e) => {
                    let (e, r) = self.canon_expr(e, &scope)?;
                    (SelectItem::Agg(*f, e), r)
                }
            };
            self.record_refs(&refs, sink);
            sel_items.push((canon, refs));
        }
        let mut group_keys: Vec<(String, Expr, Vec<Ref>)> = Vec::new();
        for g in &ast.group_by {
            let (e, refs) = self.canon_expr(&Expr::Field(g.clone()), &scope)?;
            self.record_refs(&refs, sink);
            let name = match &e {
                Expr::Field(f) => f.clone(),
                other => other.to_string(),
            };
            group_keys.push((name, e, refs));
        }

        // Assign Where clauses: earliest covering stage when optimizing,
        // the sink otherwise. (Creation order is reverse causal order, so
        // "earliest" scans node indices descending.)
        let wheres = std::mem::take(&mut self.wheres);
        let mut where_assignment: Vec<(usize, Expr, Vec<Ref>)> = Vec::new();
        for (expr, refs) in wheres {
            let assigned = if self.optimize {
                let needed: Vec<usize> = refs.iter().map(|r| r.producer).collect();
                (0..self.nodes.len())
                    .rev()
                    .find(|&n| {
                        let cov = self.coverage(n);
                        needed.iter().all(|p| cov.contains(p))
                    })
                    .unwrap_or(sink)
            } else {
                sink
            };
            self.record_refs(&refs, assigned);
            where_assignment.push((assigned, expr, refs));
        }
        for (assigned, expr, _) in &where_assignment {
            self.nodes[*assigned].filters.push(expr.clone());
        }

        // The trigger predicate always evaluates at the emit stage (after
        // its filters), so its field demands land on the sink like a
        // non-pushed Where clause.
        let trigger = match &ast.trigger {
            Some(e) => {
                let (e, refs) = self.canon_expr(e, &scope)?;
                self.record_refs(&refs, sink);
                Some(e)
            }
            None => None,
        };

        // Build the emit output spec (keys = explicit group-by + non-agg
        // select items).
        let mut key_exprs: Vec<Expr> = Vec::new();
        let mut key_names: Vec<String> = Vec::new();
        let mut key_refs: Vec<Vec<Ref>> = Vec::new();
        for (name, e, refs) in &group_keys {
            if !key_exprs.contains(e) {
                key_exprs.push(e.clone());
                key_names.push(name.clone());
                key_refs.push(refs.clone());
            }
        }
        let has_aggs = sel_items
            .iter()
            .any(|(i, _)| matches!(i, SelectItem::Agg(..)));
        let mut columns = Vec::new();
        let mut aggs: Vec<(AggFunc, Expr)> = Vec::new();
        let mut agg_names: Vec<String> = Vec::new();
        let mut agg_refs: Vec<Vec<Ref>> = Vec::new();
        for (item, refs) in &sel_items {
            match item {
                SelectItem::Expr(e) => {
                    let pos = match key_exprs.iter().position(|k| k == e) {
                        Some(p) => p,
                        None => {
                            key_exprs.push(e.clone());
                            key_names.push(match e {
                                Expr::Field(f) => f.clone(),
                                other => other.to_string(),
                            });
                            key_refs.push(refs.clone());
                            key_exprs.len() - 1
                        }
                    };
                    columns.push(ColumnRef::Key(pos));
                }
                SelectItem::Agg(f, e) => {
                    let name = if matches!(e, Expr::Lit(Value::Null)) {
                        f.name().to_owned()
                    } else {
                        format!("{}({})", f.name(), e)
                    };
                    aggs.push((*f, e.clone()));
                    agg_names.push(name);
                    agg_refs.push(refs.clone());
                    columns.push(ColumnRef::Agg(aggs.len() - 1));
                }
            }
        }

        // Default pack sinks for every non-sink node.
        // (Set before aggregation pushdown may override the sink's feeder.)
        let mut sinks: Vec<Option<StageSink>> = vec![None; self.nodes.len()];
        // Causal order (reverse creation) so predecessors' packs exist
        // before successors read them in the unoptimized flow-through.
        for idx in (0..self.nodes.len()).rev() {
            if idx == sink {
                // Set below, once aggregation pushdown has settled what
                // the emit projects.
                continue;
            }
            let node = &self.nodes[idx];
            let (mode, mut exprs, mut names): (PackMode, Vec<Expr>, Vec<String>) =
                if let Some(inline) = &node.inline {
                    let sub_has_aggs = inline
                        .select
                        .iter()
                        .any(|(_, i)| matches!(i, SelectItem::Agg(..)));
                    let mut exprs = Vec::new();
                    let mut names = Vec::new();
                    if sub_has_aggs {
                        // Grouped sub-query: pack keys then agg args.
                        let mut sub_aggs = Vec::new();
                        for (name, e) in &inline.group_keys {
                            names.push(name.clone());
                            exprs.push(e.clone());
                        }
                        for (name, item) in &inline.select {
                            match item {
                                SelectItem::Expr(e) => {
                                    if !exprs.contains(e) {
                                        names.push(name.clone());
                                        exprs.push(e.clone());
                                    }
                                }
                                SelectItem::Agg(..) => {
                                    let _ = name;
                                }
                            }
                        }
                        let key_len = exprs.len();
                        for (name, item) in &inline.select {
                            if let SelectItem::Agg(f, e) = item {
                                names.push(name.clone());
                                exprs.push(e.clone());
                                sub_aggs.push(*f);
                            }
                        }
                        (
                            PackMode::GroupAgg {
                                key_len,
                                aggs: sub_aggs,
                            },
                            exprs,
                            names,
                        )
                    } else {
                        for (name, item) in &inline.select {
                            if let SelectItem::Expr(e) = item {
                                names.push(name.clone());
                                exprs.push(e.clone());
                            }
                        }
                        let mode = if self.optimize {
                            temporal_to_mode(inline.outer_temporal)
                        } else {
                            PackMode::All
                        };
                        (mode, exprs, names)
                    }
                } else {
                    let mode = if self.optimize {
                        temporal_to_mode(node.temporal)
                    } else {
                        PackMode::All
                    };
                    (mode, Vec::new(), Vec::new())
                };
            // Append flow-through fields (everything demanded downstream
            // that is not already an output column).
            let flow: Vec<String> = if self.optimize {
                node.out_fields.clone()
            } else {
                // Unoptimized: everything available flows.
                let mut all: Vec<String> = Vec::new();
                for f in node.exports.iter().map(|e| format!("{}.{}", node.alias, e)) {
                    if !all.contains(&f) {
                        all.push(f);
                    }
                }
                for &p in &node.preds {
                    if let Some(StageSink::Pack { names, .. }) = &sinks[p] {
                        for f in names {
                            if !all.contains(f) {
                                all.push(f.clone());
                            }
                        }
                    }
                }
                all
            };
            for f in flow {
                if !names.contains(&f) {
                    // Grouped packs cannot carry raw extras after the agg
                    // columns; fold them in as additional group keys.
                    match mode {
                        PackMode::GroupAgg { .. } => {}
                        _ => {
                            names.push(f.clone());
                            exprs.push(Expr::Field(f));
                        }
                    }
                }
            }
            sinks[idx] = Some(StageSink::Pack { mode, exprs, names });
        }

        // Aggregation pushdown at the final boundary (optimized only).
        let mut out_aggs: Vec<Expr> = aggs.iter().map(|(_, e)| e.clone()).collect();
        let mut out_keys = key_exprs.clone();
        if self.optimize && has_aggs && self.nodes[sink].preds.len() == 1 {
            let p = self.nodes[sink].preds[0];
            let cov = self.coverage(p);
            let all_aggs_pushable = agg_refs
                .iter()
                .all(|refs| refs.iter().all(|r| cov.contains(&r.producer)));
            let feeder_is_plain = matches!(
                sinks[p],
                Some(StageSink::Pack {
                    mode: PackMode::All,
                    ..
                })
            );
            if all_aggs_pushable && feeder_is_plain && !aggs.is_empty() {
                // Expressions pushed into the feeder evaluate against the
                // feeder's *advice schema*, not its pack output. When the
                // feeder is an inlined sub-query, sink-side references to
                // its output columns (e.g. a bare `lat` for a single-column
                // sub-query) name pack outputs that do not exist in that
                // schema — substitute each with its defining expression.
                let inline_cols: Vec<(String, Expr)> = match &self.nodes[p].inline {
                    Some(inline) => inline
                        .select
                        .iter()
                        .filter_map(|(name, item)| match item {
                            SelectItem::Expr(e) => Some((name.clone(), e.clone())),
                            SelectItem::Agg(..) => None,
                        })
                        .chain(inline.group_keys.iter().cloned())
                        .collect(),
                    None => Vec::new(),
                };
                let subst = |e: &Expr| substitute_fields(e, &inline_cols);
                // Pack keys: pushable group keys + any feeder-side field
                // still needed raw at the sink (filters / mixed keys).
                let mut pk_exprs: Vec<Expr> = Vec::new();
                let mut pk_names: Vec<String> = Vec::new();
                for (i, k) in key_exprs.iter().enumerate() {
                    let pushable = key_refs[i].iter().all(|r| cov.contains(&r.producer));
                    if pushable && !key_refs[i].is_empty() {
                        pk_names.push(key_names[i].clone());
                        pk_exprs.push(subst(k));
                    }
                }
                // Raw fields demanded downstream of p that are not already
                // key outputs: keep them as extra keys.
                let covered: Vec<&String> = pk_names.iter().collect();
                let extra: Vec<String> = self.nodes[p]
                    .out_fields
                    .iter()
                    .filter(|f| !covered.contains(f))
                    .filter(|f| {
                        // Needed raw unless referenced only by agg args.
                        let only_aggs = agg_refs
                            .iter()
                            .any(|refs| refs.iter().any(|r| &r.field == *f))
                            && !where_assignment.iter().any(|(at, _, refs)| {
                                *at == sink && refs.iter().any(|r| &r.field == *f)
                            })
                            && !key_refs.iter().enumerate().any(|(i, refs)| {
                                let pushed = key_refs[i].iter().all(|r| cov.contains(&r.producer));
                                !pushed && refs.iter().any(|r| &r.field == *f)
                            });
                        !only_aggs
                    })
                    .cloned()
                    .collect();
                for f in extra {
                    pk_names.push(f.clone());
                    pk_exprs.push(Expr::Field(f));
                }
                let key_len = pk_exprs.len();
                let mut funcs = Vec::new();
                let mut all_exprs = pk_exprs;
                let mut all_names = pk_names;
                for (i, (f, e)) in aggs.iter().enumerate() {
                    let col = format!("{}.$agg{i}", self.nodes[p].alias);
                    funcs.push(*f);
                    all_exprs.push(subst(e));
                    all_names.push(col.clone());
                    // The emit now combines the travelling state.
                    out_aggs[i] = Expr::Field(col);
                }
                // Rewrite pushed keys at the emit to reference the packed
                // column by name.
                for (i, k) in key_exprs.iter().enumerate() {
                    let pushed = key_refs[i].iter().all(|r| cov.contains(&r.producer))
                        && !key_refs[i].is_empty();
                    if pushed && !matches!(k, Expr::Field(_)) {
                        out_keys[i] = Expr::Field(key_names[i].clone());
                    }
                }
                sinks[p] = Some(StageSink::Pack {
                    mode: PackMode::GroupAgg {
                        key_len,
                        aggs: funcs,
                    },
                    exprs: all_exprs,
                    names: all_names,
                });
            }
        }

        sinks[sink] = Some(StageSink::Emit {
            keys: out_keys,
            aggs: out_aggs,
        });
        let output = OutputSpec {
            key_names,
            aggs: aggs.iter().map(|(f, _)| *f).collect(),
            agg_names,
            columns,
            streaming: !has_aggs,
        };

        // Materialize stages in causal order (reverse creation order).
        let order: Vec<usize> = (0..self.nodes.len()).rev().collect();
        let pos_of: HashMap<usize, usize> = order
            .iter()
            .enumerate()
            .map(|(pos, &idx)| (idx, pos))
            .collect();
        let mut stages = Vec::new();
        for &idx in &order {
            let node = &self.nodes[idx];
            let observe: Vec<String> = if self.optimize {
                node.observed
                    .iter()
                    .map(|f| {
                        f.strip_prefix(&format!("{}.", node.alias))
                            .unwrap_or(f)
                            .to_owned()
                    })
                    .collect()
            } else {
                node.exports.clone()
            };
            // Validate observation demands against the tracepoint exports.
            for f in &observe {
                if !node.exports.contains(f) {
                    return Err(CompileError::UnknownExport {
                        tracepoint: node.tracepoints.first().cloned().unwrap_or_default(),
                        field: f.clone(),
                    });
                }
            }
            let unpacks: Vec<UnpackEdge> = node
                .preds
                .iter()
                .map(|&p| {
                    let names = match &sinks[p] {
                        Some(StageSink::Pack { names, .. }) => names.clone(),
                        _ => Vec::new(),
                    };
                    let post_filter = if self.optimize {
                        None
                    } else {
                        match &self.nodes[p].inline {
                            Some(inline) => inline.outer_temporal,
                            None => self.nodes[p].temporal,
                        }
                    };
                    UnpackEdge {
                        from_stage: pos_of[&p],
                        names,
                        post_filter,
                    }
                })
                .collect();
            stages.push(Stage {
                alias: node.alias.clone(),
                tracepoints: node.tracepoints.clone(),
                observe,
                unpacks,
                filters: node.filters.clone(),
                sink: sinks[idx].clone().expect("sink set"),
            });
        }
        Ok(QueryPlan {
            stages,
            output,
            trigger,
        })
    }
}

/// Replaces `Field(name)` references that match a `(name, expr)` binding
/// with the bound expression (used when pushing sink-side expressions into
/// an inlined feeder, whose output columns are expressions, not fields).
fn substitute_fields(e: &Expr, bindings: &[(String, Expr)]) -> Expr {
    match e {
        Expr::Field(f) => bindings
            .iter()
            .find(|(name, _)| name == f)
            .map(|(_, bound)| bound.clone())
            .unwrap_or_else(|| e.clone()),
        Expr::Lit(_) => e.clone(),
        Expr::Unary(op, a) => Expr::Unary(*op, Box::new(substitute_fields(a, bindings))),
        Expr::Binary(op, a, b) => Expr::Binary(
            *op,
            Box::new(substitute_fields(a, bindings)),
            Box::new(substitute_fields(b, bindings)),
        ),
    }
}

fn temporal_to_mode(t: Option<TemporalFilter>) -> PackMode {
    match t {
        None => PackMode::All,
        Some(TemporalFilter::First(n)) => PackMode::First(n),
        Some(TemporalFilter::MostRecent(n)) => PackMode::Recent(n),
    }
}

/// Lowers a plan into advice programs. `name` registers the query for
/// reference by later queries; `id` is the installation identity the
/// frontend assigned.
pub fn lower(plan: &QueryPlan, name: &str, text: &str, id: QueryId) -> CompiledQuery {
    // One shared spec for the emit advice, the compiled query, and (via
    // install) the agent buffers.
    let output = std::sync::Arc::new(plan.output.clone());
    // Stage position → slot id. Stage `i` packs under slot `i`.
    let advice = plan
        .stages
        .iter()
        .enumerate()
        .map(|(i, stage)| {
            let mut ops = Vec::new();
            ops.push(AdviceOp::Observe {
                alias: stage.alias.clone(),
                fields: stage.observe.clone(),
            });
            for u in &stage.unpacks {
                ops.push(AdviceOp::Unpack {
                    slot: CompiledQuery::slot_id(id, u.from_stage as u8),
                    schema: pivot_model::Schema::new(u.names.iter().map(String::as_str)),
                    post_filter: u.post_filter,
                });
            }
            for f in &stage.filters {
                ops.push(AdviceOp::Filter { pred: f.clone() });
            }
            match &stage.sink {
                StageSink::Pack { mode, exprs, names } => {
                    ops.push(AdviceOp::Pack {
                        slot: CompiledQuery::slot_id(id, i as u8),
                        mode: mode.clone(),
                        exprs: exprs.clone(),
                        names: names.clone(),
                    });
                }
                StageSink::Emit { keys, aggs } => {
                    if let Some(pred) = &plan.trigger {
                        // A constant-true predicate (the bare `Trigger`
                        // form) lowers to an unconditional trigger.
                        let pred = match pred {
                            Expr::Lit(Value::Bool(true)) => None,
                            other => Some(other.clone()),
                        };
                        ops.push(AdviceOp::Trigger { query: id, pred });
                    }
                    ops.push(AdviceOp::Emit {
                        query: id,
                        spec: output.clone(),
                        keys: keys.clone(),
                        aggs: aggs.clone(),
                    });
                }
            }
            AdviceProgram {
                tracepoints: stage.tracepoints.clone(),
                ops,
            }
        })
        .collect();
    CompiledQuery {
        id,
        name: name.to_owned(),
        text: text.to_owned(),
        advice,
        output,
    }
}
