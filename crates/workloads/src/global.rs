//! Ground-truth global evaluation of happened-before joins.
//!
//! This module implements the paper's *unoptimized* strategy (Figure 6a):
//! record every tracepoint invocation together with a causal stamp, ship
//! everything to one place, and evaluate `⋈→` as a θ-join whose condition
//! is the happened-before relation. No product path runs it; it exists
//! for two reasons:
//!
//! 1. **Differential testing** — the baggage-based inline evaluation must
//!    produce identical results on every execution (the system's central
//!    correctness property; exercised by `tests/differential.rs`).
//! 2. **Figure 3** — the paper's worked example of `⋈→` semantics on a
//!    branching execution ([`crate::experiments::fig3`]).

use pivot_itc::Stamp;
use pivot_model::{GroupKey, Schema, Tuple, Value};
use pivot_query::ast::{Query, SelectItem, SourceKind, TemporalFilter};
use pivot_query::Resolver;

use pivot_baggage::Baggage;

/// A recorded tracepoint invocation.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Global capture sequence (total order used for recency ties).
    pub seq: u64,
    /// The request this event belongs to.
    pub request: u64,
    /// Tracepoint name.
    pub tracepoint: String,
    /// Anonymous causal stamp at the time of the event.
    pub stamp: Stamp,
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

    /// Returns `true` if `a` happened before `b` (same request, strictly
    /// ordered stamps).
    fn happened_before(a: &TraceEvent, b: &TraceEvent) -> bool {
        a.request == b.request && a.stamp.leq(&b.stamp) && a.seq != b.seq
    }
}

/// A request context for tests and harnesses: carries baggage (for the
/// inline strategy) *and* an interval tree clock stamp (for the global
/// strategy), so both evaluation strategies observe the same execution.
pub struct TracedCtx<'l> {
    /// The request's baggage.
    pub baggage: Baggage,
    stamp: Stamp,
    request: u64,
    log: &'l mut TraceLog,
}

impl<'l> TracedCtx<'l> {
    /// Starts a new request against `log`.
    pub fn new(log: &'l mut TraceLog, request: u64) -> TracedCtx<'l> {
        TracedCtx {
            baggage: Baggage::new(),
            stamp: Stamp::seed(),
            request,
            log,
        }
    }

    /// Records a tracepoint invocation (advances the causal stamp and logs
    /// the event). The caller separately runs any woven advice via an
    /// [`pivot_core::Agent`].
    pub fn record(&mut self, tracepoint: &str, exports: &[(&str, Value)]) {
        self.stamp.event();
        let seq = self.log.events.len() as u64;
        self.log.events.push(TraceEvent {
            seq,
            request: self.request,
            tracepoint: tracepoint.to_owned(),
            stamp: self.stamp.peek(),
            exports: exports
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect(),
        });
    }

    /// Branches the execution: baggage splits, the stamp forks.
    pub fn split(&mut self) -> TracedCtxBranch {
        let baggage = self.baggage.split();
        let (a, b) = self.stamp.fork();
        self.stamp = a;
        TracedCtxBranch {
            baggage,
            stamp: b,
            request: self.request,
        }
    }

    /// Rejoins a branch created by [`TracedCtx::split`].
    pub fn join(&mut self, branch: TracedCtxBranch) {
        self.baggage.join(branch.baggage);
        self.stamp = self.stamp.join(&branch.stamp);
    }

    /// Runs one step on a branch (the branch borrows the same log).
    pub fn record_on(
        &mut self,
        branch: &mut TracedCtxBranch,
        tracepoint: &str,
        exports: &[(&str, Value)],
    ) {
        branch.stamp.event();
        let seq = self.log.events.len() as u64;
        self.log.events.push(TraceEvent {
            seq,
            request: branch.request,
            tracepoint: tracepoint.to_owned(),
            stamp: branch.stamp.peek(),
            exports: exports
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect(),
        });
    }
}

/// A branched execution context (see [`TracedCtx::split`]).
pub struct TracedCtxBranch {
    /// The branch's baggage.
    pub baggage: Baggage,
    stamp: Stamp,
    request: u64,
}

/// Evaluates `query` globally over `log`, returning result rows in
/// `Select` order (sorted for determinism).
///
/// Aggregating queries return one row per group; streaming queries return
/// one row per join result. Query references are not supported here —
/// the evaluator exists to validate tracepoint queries.
pub fn evaluate(query: &Query, resolver: &dyn Resolver, log: &TraceLog) -> Vec<Vec<Value>> {
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
                .filter(|c| TraceLog::happened_before(c, later))
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
