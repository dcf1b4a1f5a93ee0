//! Ground-truth global evaluation of happened-before joins.
//!
//! This module implements the paper's *unoptimized* strategy (Figure 6a):
//! record every tracepoint invocation together with its causal
//! predecessors, ship everything to one place, and evaluate `⋈→` as a
//! θ-join whose condition is the happened-before relation — reachability
//! in the recorded graph. No product path runs it, and it shares no
//! causality code with the baggage it checks; it exists for two reasons:
//!
//! 1. **Differential testing** — the baggage-based inline evaluation must
//!    produce identical results on every execution (the system's central
//!    correctness property; exercised by `tests/differential.rs` and
//!    `tests/shapes.rs`).
//! 2. **Figure 3** — the paper's worked example of `⋈→` semantics on a
//!    branching execution ([`crate::experiments::fig3`]).

use std::sync::Arc;

use pivot_model::{GroupKey, Schema, Tuple, Value};
use pivot_query::ast::{Query, SelectItem, SourceKind, TemporalFilter};
use pivot_query::Resolver;

use pivot_baggage::Baggage;

/// A recorded tracepoint invocation.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Global capture sequence (total order used for recency ties); the
    /// event's index in its [`TraceLog`].
    pub seq: u64,
    /// The request this event belongs to.
    pub request: u64,
    /// Tracepoint name.
    pub tracepoint: String,
    /// The latest events of the request that this one causally follows:
    /// its immediate predecessors in the happened-before graph.
    pub preds: Vec<u64>,
    /// Exported variables (including defaults).
    pub exports: Vec<(String, Value)>,
}

/// A log of every tracepoint invocation in an execution.
#[derive(Default, Debug)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
}

impl TraceLog {
    /// Creates an empty log.
    pub fn new() -> TraceLog {
        TraceLog::default()
    }

    /// Returns all events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// For every event, the set of events that happened before it, as a
    /// bit set over sequence numbers. A predecessor is always logged
    /// before its successor, so one pass in log order builds them all.
    pub fn ancestry(&self) -> Ancestry {
        let words = self.events.len().div_ceil(64);
        let mut sets: Vec<u64> = vec![0; words * self.events.len()];
        for (at, event) in self.events.iter().enumerate() {
            for &p in &event.preds {
                let p = p as usize;
                let (done, mine) = sets.split_at_mut(at * words);
                let theirs = &done[p * words..(p + 1) * words];
                for (m, t) in mine[..words].iter_mut().zip(theirs) {
                    *m |= t;
                }
                mine[p / 64] |= 1 << (p % 64);
            }
        }
        Ancestry { words, sets }
    }

    fn record(
        &mut self,
        request: u64,
        tracepoint: &str,
        exports: &[(&str, Value)],
        preds: Vec<u64>,
    ) -> u64 {
        let seq = self.events.len() as u64;
        self.events.push(TraceEvent {
            seq,
            request,
            tracepoint: tracepoint.to_owned(),
            preds,
            exports: exports
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect(),
        });
        seq
    }
}

/// The happened-before relation of one [`TraceLog`] (see
/// [`TraceLog::ancestry`]).
pub struct Ancestry {
    words: usize,
    sets: Vec<u64>,
}

impl Ancestry {
    /// Returns `true` if event `a` happened before event `b`: `b` reaches
    /// `a` through recorded predecessors. Only events of one request are
    /// ever linked, and no event happened before itself.
    pub fn happened_before(&self, a: u64, b: u64) -> bool {
        let (a, b) = (a as usize, b as usize);
        self.sets[b * self.words + a / 64] & (1 << (a % 64)) != 0
    }
}

/// A request context for tests and harnesses: carries baggage (for the
/// inline strategy) *and* the request's causal frontier (for the global
/// strategy), so both evaluation strategies observe the same execution.
///
/// The frontier is the set of latest events this context has seen; the
/// next event it records follows all of them.
pub struct TracedCtx {
    /// The request's baggage.
    pub baggage: Baggage,
    frontier: Vec<u64>,
    request: u64,
}

/// What crosses an RPC edge between two [`TracedCtx`]s: the baggage's
/// bytes, as a transport carries them, and — out of band, for the oracle
/// only — the sender's causal frontier.
pub struct Wire {
    /// The serialized baggage.
    pub bytes: Arc<[u8]>,
    frontier: Vec<u64>,
    request: u64,
}

impl TracedCtx {
    /// Starts request `request`.
    pub fn new(request: u64) -> TracedCtx {
        TracedCtx {
            baggage: Baggage::new(),
            frontier: Vec::new(),
            request,
        }
    }

    /// Records a tracepoint invocation into `log`: the event follows this
    /// context's frontier and becomes it. The caller separately runs any
    /// woven advice via an [`pivot_core::Agent`].
    pub fn record(&mut self, log: &mut TraceLog, tracepoint: &str, exports: &[(&str, Value)]) {
        let preds = std::mem::take(&mut self.frontier);
        let seq = log.record(self.request, tracepoint, exports, preds);
        self.frontier.push(seq);
    }

    /// Branches the execution: the baggage splits, and both sides follow
    /// the same frontier.
    pub fn split(&mut self) -> TracedCtx {
        TracedCtx {
            baggage: self.baggage.split(),
            frontier: self.frontier.clone(),
            request: self.request,
        }
    }

    /// Rejoins a branch created by [`TracedCtx::split`]: the baggages
    /// join, and the frontiers unite.
    pub fn join(&mut self, branch: TracedCtx) {
        self.baggage.join(branch.baggage);
        self.absorb(&branch.frontier);
    }

    fn absorb(&mut self, frontier: &[u64]) {
        for seq in frontier {
            if !self.frontier.contains(seq) {
                self.frontier.push(*seq);
            }
        }
    }

    /// Serializes the context for an RPC envelope, as
    /// `pivot_hadoop::Ctx::to_wire` does.
    pub fn to_wire(&mut self) -> Wire {
        Wire {
            bytes: self.baggage.to_bytes(),
            frontier: self.frontier.clone(),
            request: self.request,
        }
    }

    /// Reconstructs a context on the far side of an RPC, as
    /// `pivot_hadoop::Ctx::from_wire` does: the bytes are a
    /// [`TracedCtx::to_wire`]'s, so they decode.
    pub fn from_wire(wire: &Wire) -> TracedCtx {
        TracedCtx {
            baggage: Baggage::try_from_bytes(&wire.bytes).expect("own to_wire bytes decode"),
            frontier: wire.frontier.clone(),
            request: wire.request,
        }
    }

    /// Adopts the context returned with a synchronous RPC response, as
    /// `pivot_hadoop::Ctx::adopt_response` does: the callee's execution
    /// is a causal extension of the caller's, so its baggage and its
    /// frontier replace this context's.
    pub fn adopt_response(&mut self, wire: &Wire) {
        self.baggage = Baggage::try_from_bytes(&wire.bytes).expect("own to_wire bytes decode");
        self.frontier.clone_from(&wire.frontier);
    }
}

/// Evaluates `query` globally over `log`, returning result rows in
/// `Select` order (sorted for determinism).
///
/// Aggregating queries return one row per group; streaming queries return
/// one row per join result. Query references are not supported here —
/// the evaluator exists to validate tracepoint queries.
pub fn evaluate(query: &Query, resolver: &dyn Resolver, log: &TraceLog) -> Vec<Vec<Value>> {
    let ancestry = log.ancestry();
    let happened_before = |a: &TraceEvent, b: &TraceEvent| {
        a.request == b.request && ancestry.happened_before(a.seq, b.seq)
    };
    // Alias → (tracepoints, schema fields).
    let alias_events = |kind: &SourceKind| -> Vec<&TraceEvent> {
        let SourceKind::Tracepoints(names) = kind else {
            return Vec::new();
        };
        log.events
            .iter()
            .filter(|e| names.iter().any(|n| n == &e.tracepoint))
            .collect()
    };

    let schema_for = |alias: &str, kind: &SourceKind| -> Schema {
        let SourceKind::Tracepoints(names) = kind else {
            return Schema::empty();
        };
        let mut fields: Vec<String> = Vec::new();
        for n in names {
            for f in resolver.tracepoint_exports(n).unwrap_or_default() {
                let q = format!("{alias}.{f}");
                if !fields.contains(&q) {
                    fields.push(q);
                }
            }
        }
        Schema::new(fields)
    };

    let tuple_for = |schema: &Schema, alias: &str, e: &TraceEvent| -> Tuple {
        schema
            .fields()
            .iter()
            .map(|qf| {
                let f = qf.strip_prefix(&format!("{alias}.")).unwrap_or(qf.as_ref());
                e.exports
                    .iter()
                    .find(|(k, _)| k == f)
                    .map(|(_, v)| v.clone())
                    .unwrap_or(Value::Null)
            })
            .collect()
    };

    // Assignments: map alias → chosen event, built in join declaration
    // order starting from each event of the From source.
    struct Asg<'a> {
        chosen: Vec<(&'a str, &'a TraceEvent)>,
    }
    let from_events = alias_events(&query.from.kind);
    let mut assignments: Vec<Asg> = from_events
        .iter()
        .map(|e| Asg {
            chosen: vec![(query.from.alias.as_str(), *e)],
        })
        .collect();

    for join in &query.joins {
        let cands_all = alias_events(&join.source.kind);
        let mut next = Vec::new();
        for asg in &assignments {
            let later_name: &str = &join.later;
            let later = asg
                .chosen
                .iter()
                .find(|(a, _)| *a == later_name)
                .or_else(|| asg.chosen.first())
                .map(|(_, e)| *e)
                .expect("assignments start non-empty");
            let mut cands: Vec<&TraceEvent> = cands_all
                .iter()
                .copied()
                .filter(|c| happened_before(c, later))
                .collect();
            cands.sort_by_key(|c| c.seq);
            match join.source.filter {
                Some(TemporalFilter::First(n)) => cands.truncate(n.max(1)),
                Some(TemporalFilter::MostRecent(n)) => {
                    let keep = n.max(1);
                    if cands.len() > keep {
                        let skip = cands.len() - keep;
                        cands.drain(..skip);
                    }
                }
                None => {}
            }
            for c in cands {
                let mut chosen = asg.chosen.clone();
                chosen.push((join.source.alias.as_str(), c));
                next.push(Asg { chosen });
            }
        }
        assignments = next;
    }

    // Build the join schema.
    let mut schema = schema_for(&query.from.alias, &query.from.kind);
    let mut alias_schemas = vec![(query.from.alias.clone(), schema.clone())];
    for join in &query.joins {
        let s = schema_for(&join.source.alias, &join.source.kind);
        schema = schema.concat(&s);
        alias_schemas.push((join.source.alias.clone(), s));
    }

    // Materialize joined tuples, filter, and aggregate.
    let mut groups: Vec<(GroupKey, Vec<pivot_model::AggState>)> = Vec::new();
    let mut raw = Vec::new();
    let has_aggs = query.has_aggregates();
    // Keys: explicit group-by then non-agg select items.
    let mut key_exprs: Vec<pivot_model::Expr> = query
        .group_by
        .iter()
        .map(|g| pivot_model::Expr::field(g.clone()))
        .collect();
    for item in &query.select {
        if let SelectItem::Expr(e) = item {
            if !key_exprs.contains(e) {
                key_exprs.push(e.clone());
            }
        }
    }
    let aggs: Vec<(pivot_model::AggFunc, pivot_model::Expr)> = query
        .select
        .iter()
        .filter_map(|i| match i {
            SelectItem::Agg(f, e) => Some((*f, e.clone())),
            SelectItem::Expr(_) => None,
        })
        .collect();

    'asg: for asg in &assignments {
        let mut joined = Tuple::empty();
        for ((alias, s), (_, e)) in alias_schemas.iter().zip(&asg.chosen) {
            joined = joined.concat(&tuple_for(s, alias, e));
        }
        let row = (&schema, &joined);
        for w in &query.wheres {
            if !matches!(w.eval(&row), Ok(Value::Bool(true))) {
                continue 'asg;
            }
        }
        if has_aggs {
            let Some(key) = key_exprs
                .iter()
                .map(|k| k.eval(&row).ok())
                .collect::<Option<Tuple>>()
            else {
                continue;
            };
            let key = GroupKey(key);
            let states = match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, s)) => s,
                None => {
                    groups.push((key, aggs.iter().map(|(f, _)| f.init()).collect()));
                    &mut groups.last_mut().expect("just pushed").1
                }
            };
            for (st, (_, arg)) in states.iter_mut().zip(&aggs) {
                st.update(&arg.eval(&row).unwrap_or(Value::Null));
            }
        } else {
            let Some(out) = key_exprs
                .iter()
                .map(|k| k.eval(&row).ok())
                .collect::<Option<Tuple>>()
            else {
                continue;
            };
            raw.push(out.values().to_vec());
        }
    }

    let mut rows: Vec<Vec<Value>> = if has_aggs {
        groups
            .iter()
            .map(|(key, states)| {
                // Lay out in Select order.
                let mut out = Vec::new();
                let mut agg_i = 0;
                for item in &query.select {
                    match item {
                        SelectItem::Expr(e) => {
                            let pos = key_exprs
                                .iter()
                                .position(|k| k == e)
                                .expect("key registered");
                            out.push(key.0.get(pos).clone());
                        }
                        SelectItem::Agg(..) => {
                            out.push(states[agg_i].finish());
                            agg_i += 1;
                        }
                    }
                }
                out
            })
            .collect()
    } else {
        raw
    };
    rows.sort_unstable();
    rows
}
