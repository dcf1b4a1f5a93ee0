//! Differential tests for the bytecode VM: on *arbitrary* advice programs
//! — including ill-typed expressions, unresolvable fields, dead unpacks,
//! and pathological op orders — the lowered bytecode must reproduce the
//! tree-walk interpreter's observable behavior bit for bit: emitted rows
//! (in order), execution stats, and the resulting baggage bytes.
//!
//! The VM has one execution loop, driven three ways here: against the
//! tree-walk reference (`support/interp.rs`) one invocation at a time,
//! and one-at-a-time against whole-batch.
//!
//! Two layers:
//!
//! 1. **Program-level** (`random_programs_match_treewalk`): fuzz raw
//!    [`AdviceProgram`]s far outside what the compiler would produce, so
//!    lowering's error paths (`EInst::Fail`, short-circuit skips, fused
//!    pre-predicates, the pack-on-empty guard) are exercised, not just its
//!    happy path.
//! 2. **Query-level** (`random_queries_match_treewalk`): compile random
//!    query texts through the real frontend, then drive the tree-walk and
//!    the VM through the same multi-tracepoint execution, comparing per
//!    program and at the end. (VM-vs-global on branching DAGs is covered
//!    by `differential.rs`, whose agent now executes bytecode.)

use std::sync::Arc;

use pivot_baggage::{Baggage, PackMode, QueryId};
use pivot_core::Frontend;
use pivot_model::AggState;
use pivot_model::{AggFunc, BinOp, Cols, Expr, GroupKey, Schema, Tuple, UnOp, Value};
use pivot_query::advice::{AdviceOp, AdviceProgram, ColumnRef, OutputSpec};
use pivot_query::bytecode::lower_program;
use pivot_query::{CollectSink, EmitSink, Vm};

use proptest::prelude::*;

#[path = "support/interp.rs"]
mod interp;
use interp::EmitRows;

#[path = "support/programs.rs"]
mod programs;
use programs::*;

/// Runs both engines on identical inputs and asserts identical rows,
/// stats, and baggage.
fn assert_engines_agree(
    program: &AdviceProgram,
    exports: &[(&str, Value)],
    seed: &[Vec<Value>],
) -> Result<(), TestCaseError> {
    let lowered = lower_program(program);
    lowered
        .code
        .validate()
        .expect("lowering always yields structurally valid bytecode");

    let mut bag_tree = Baggage::new();
    if !seed.is_empty() {
        bag_tree.pack(
            QueryId(100),
            &PackMode::All,
            seed.iter().map(|t| t.iter().cloned().collect::<Tuple>()),
        );
    }
    let mut bag_vm = bag_tree.clone();

    let (emits, tree_stats) = interp::run(program, exports, &mut bag_tree);
    let mut tree_raw: Vec<(QueryId, Tuple)> = Vec::new();
    let mut tree_grouped: Vec<(QueryId, GroupKey, Vec<Value>)> = Vec::new();
    for e in &emits {
        match interp::emit_rows(e) {
            EmitRows::Raw(rows) => tree_raw.extend(rows.into_iter().map(|t| (e.query, t))),
            EmitRows::Grouped(rows) => {
                tree_grouped.extend(rows.into_iter().map(|(k, a)| (e.query, k, a)))
            }
        }
    }

    let mut sink = CollectSink::default();
    let vm_stats = Vm::new().run(&lowered.code, exports, &mut bag_vm, &mut sink);

    prop_assert_eq!(
        (tree_stats.packed, tree_stats.unpacked, tree_stats.emitted),
        (vm_stats.packed, vm_stats.unpacked, vm_stats.emitted),
        "stats diverge for {:?}",
        program
    );
    prop_assert_eq!(
        tree_stats.triggered,
        sink.triggers.len(),
        "trigger firings diverge for {:?}",
        program
    );
    prop_assert_eq!(
        &tree_raw,
        &sink.raw,
        "streaming rows diverge for {:?}",
        program
    );
    prop_assert_eq!(
        &tree_grouped,
        &sink.grouped,
        "grouped rows diverge for {:?}",
        program
    );
    prop_assert_eq!(
        bag_tree.to_bytes(),
        bag_vm.to_bytes(),
        "baggage diverges for {:?}",
        program
    );
    Ok(())
}

/// An [`EmitSink`] that lands grouped rows in final per-group
/// accumulator states, so the VM's rows, the reference's and an agent's
/// reports become directly comparable.
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
}

/// Whole-batch vs one-at-a-time: [`Vm::run_batch`] must reproduce N
/// sequential [`Vm::run`]s exactly — rows in order, stats, and baggage —
/// for arbitrary programs (batchable or not). Equal grouped rows in equal
/// order fold into equal aggregation states in equal first-seen group
/// order, whatever the sink.
fn assert_batch_agrees(
    program: &AdviceProgram,
    batch_exports: &[Vec<(&'static str, Value)>],
    seed: &[Vec<Value>],
) -> Result<(), TestCaseError> {
    let lowered = lower_program(program);
    let mut bag_seed = Baggage::new();
    if !seed.is_empty() {
        bag_seed.pack(
            QueryId(100),
            &PackMode::All,
            seed.iter().map(|t| t.iter().cloned().collect::<Tuple>()),
        );
    }
    let batch: Vec<&[(&str, Value)]> = batch_exports.iter().map(|e| e.as_slice()).collect();

    // Per-row delivery: byte-identical rows in emit order.
    let mut bag_single = bag_seed.clone();
    let mut sink_single = CollectSink::default();
    let mut single = (0usize, 0usize, 0usize);
    for exports in &batch {
        let s = Vm::new().run(&lowered.code, exports, &mut bag_single, &mut sink_single);
        single = (
            single.0 + s.packed,
            single.1 + s.unpacked,
            single.2 + s.emitted,
        );
    }
    let mut bag_batch = bag_seed.clone();
    let mut sink_batch = CollectSink::default();
    let b = Vm::new().run_batch(&lowered.code, &batch, &mut bag_batch, &mut sink_batch);
    prop_assert_eq!(
        (b.packed, b.unpacked, b.emitted),
        single,
        "batch stats diverge for {:?}",
        program
    );
    prop_assert_eq!(
        &sink_batch.raw,
        &sink_single.raw,
        "batch streaming rows diverge for {:?}",
        program
    );
    prop_assert_eq!(
        &sink_batch.grouped,
        &sink_single.grouped,
        "batch grouped rows diverge for {:?}",
        program
    );
    prop_assert_eq!(
        &sink_batch.triggers,
        &sink_single.triggers,
        "batch trigger firings diverge for {:?}",
        program
    );
    prop_assert_eq!(
        bag_batch.to_bytes(),
        bag_single.to_bytes(),
        "batch baggage diverges for {:?}",
        program
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// ≥1000 random advice programs: arbitrary op orders, ill-typed and
    /// unresolvable expressions, random pack modes and temporal filters.
    #[test]
    fn random_programs_match_treewalk(
        ops in prop::collection::vec(op_strategy(), 1..6),
        exports in exports_strategy(),
        seed in seed_strategy(),
    ) {
        let program = AdviceProgram { tracepoints: vec!["T".to_owned()], ops };
        assert_engines_agree(&program, &exports, &seed)?;
    }

    /// ≥1000 random advice programs driven as a batch: op-major execution
    /// (joins and grouped emits included) must reproduce one-at-a-time
    /// execution exactly.
    #[test]
    fn random_programs_batch_matches_one_at_a_time(
        ops in prop::collection::vec(op_strategy(), 1..6),
        batch in prop::collection::vec(exports_strategy(), 1..5),
        seed in seed_strategy(),
    ) {
        let program = AdviceProgram { tracepoints: vec!["T".to_owned()], ops };
        assert_batch_agrees(&program, &batch, &seed)?;
    }
}

// ---------------------------------------------------------------------------
// Query-level: random query texts through the real compiler.
// ---------------------------------------------------------------------------

const TRACEPOINTS: [&str; 3] = ["A", "B", "C"];

/// A random (but usually installable) query over tracepoints A/B/C.
fn query_strategy() -> impl Strategy<Value = String> {
    let tp = || select(TRACEPOINTS.to_vec());
    let temporal = select(vec!["", "First", "MostRecent"]);
    let cmp = select(vec!["<", ">", "!=", "=="]);
    let agg = select(vec!["COUNT", "SUM(a.x)", "AVERAGE(a.x)", "MIN(a.x)"]);
    prop_oneof![
        tp().prop_map(|s| format!("From a In {s} Select a.x")),
        tp().prop_map(|s| format!("From a In {s} GroupBy a.x Select a.x, COUNT")),
        // Hindsight trigger on a bounded (join-free) flow; both engines
        // must agree on exactly which invocations fire.
        (tp(), (0i64..4))
            .prop_map(|(s, lit)| format!("From a In {s} Where a.x > {lit} Trigger Select a.x")),
        (tp(), tp(), temporal.clone(), agg.clone()).prop_map(|(s1, s2, t, g)| {
            let src = if t.is_empty() {
                s1.to_owned()
            } else {
                format!("{t}({s1})")
            };
            format!(
                "From b In {s2} Join a In {src} On a -> b \
                 GroupBy b.x Select b.x, {g}"
            )
        }),
        (tp(), tp(), cmp, (0i64..4), agg).prop_map(|(s1, s2, c, lit, g)| format!(
            "From b In {s2} Join a In {s1} On a -> b \
             Where a.x {c} {lit} \
             GroupBy a.x Select a.x, {g}"
        )),
    ]
}

/// Drives the tree-walk and the VM through the same linear execution of
/// `query`, comparing emitted rows and final baggage.
fn check_query_engines(query: &str, events: &[(usize, i64)]) -> Result<(), TestCaseError> {
    let mut fe = Frontend::new();
    for tp in TRACEPOINTS {
        fe.define(tp, ["x"]);
    }
    let Ok(handle) = fe.install(query) else {
        // Rejected by the verifier (e.g. a dead-advice corner) — nothing
        // to compare.
        return Ok(());
    };
    let cq = fe.compiled(&handle).expect("compiled form");
    let code = fe.code(&handle).expect("lowered form");
    prop_assert_eq!(cq.advice.len(), code.programs.len());

    let mut bag_tree = Baggage::new();
    let mut bag_vm = Baggage::new();
    let mut tree_raw: Vec<(QueryId, Tuple)> = Vec::new();
    let mut tree_grouped: Vec<(QueryId, GroupKey, Vec<Value>)> = Vec::new();
    let mut sink = CollectSink::default();
    let mut vm = Vm::new();

    let mut tree_triggered = 0usize;
    for (i, &(tp, v)) in events.iter().enumerate() {
        let name = TRACEPOINTS[tp];
        // The same full export set the agent assembles.
        let exports: Vec<(&str, Value)> = vec![
            ("host", Value::str("h")),
            ("timestamp", Value::U64(i as u64)),
            ("procid", Value::U64(1)),
            ("procname", Value::str("p")),
            ("tracepoint", Value::str(name)),
            ("x", Value::I64(v)),
        ];
        for (prog, lowered) in cq.advice.iter().zip(&code.programs) {
            if !prog.tracepoints.iter().any(|t| t == name) {
                continue;
            }
            let (emits, ts) = interp::run(prog, &exports, &mut bag_tree);
            tree_triggered += ts.triggered;
            for e in &emits {
                match interp::emit_rows(e) {
                    EmitRows::Raw(rows) => tree_raw.extend(rows.into_iter().map(|t| (e.query, t))),
                    EmitRows::Grouped(rows) => {
                        tree_grouped.extend(rows.into_iter().map(|(k, a)| (e.query, k, a)))
                    }
                }
            }
            let vs = vm.run(lowered, &exports, &mut bag_vm, &mut sink);
            prop_assert_eq!(
                (ts.packed, ts.unpacked, ts.emitted),
                (vs.packed, vs.unpacked, vs.emitted),
                "stats diverge on {} at event {}",
                query,
                i
            );
        }
    }
    prop_assert_eq!(&tree_raw, &sink.raw, "streaming rows diverge on {}", query);
    prop_assert_eq!(
        &tree_grouped,
        &sink.grouped,
        "grouped rows diverge on {}",
        query
    );
    prop_assert_eq!(
        bag_tree.to_bytes(),
        bag_vm.to_bytes(),
        "baggage diverges on {}",
        query
    );
    prop_assert_eq!(
        tree_triggered,
        sink.triggers.len(),
        "trigger firings diverge on {}",
        query
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Real compiled queries: both engines see the same execution and must
    /// emit the same rows and leave the same baggage.
    #[test]
    fn random_queries_match_treewalk(
        query in query_strategy(),
        events in prop::collection::vec(((0usize..3), (0i64..4)), 1..25),
    ) {
        check_query_engines(&query, &events)?;
    }
}

// ---------------------------------------------------------------------------
// Agent-level: a plan-resolved `Agent::invoke` ≡ the named-slice `Vm::run`
// ≡ the tree-walk, whatever the caller's export list looks like.
// ---------------------------------------------------------------------------
//
// An agent resolves each `Observe` column when advice is woven — to one of
// its own default exports, or to a position in the caller's export list as
// the site first saw it — and a call whose list differs falls back to the
// name search. The reference below assembles the full named export set
// (defaults first, then the caller's list, verbatim) and hands it to the
// named-slice VM entry and to the oracle. The lists are hostile on
// purpose: rotated between consecutive calls, names duplicated, names
// missing, caller names equal to a default. Between calls the paper-query
// run also unweaves, re-weaves, trips and re-arms, and the reference only
// runs what a model of the registry says is woven — so advice run from a
// stale plan shows up as a divergence.

use pivot_core::bus::{Command, Report, ReportRows};
use pivot_core::{Agent, ProcessInfo, QueryBudget, Throttled, DEFAULT_EXPORTS};
use pivot_query::CompiledCode;

const HOST: &str = "host-A";
const PROCNAME: &str = "proc";
const PROCID: u64 = 7;

fn planned_agent() -> Agent {
    Agent::new(ProcessInfo {
        host: HOST.into(),
        procid: PROCID,
        procname: PROCNAME.into(),
    })
}

/// The export set `Agent::invoke` presents to advice at `tracepoint`:
/// the defaults, then the caller's list as given.
fn full_exports<'a>(
    tracepoint: &str,
    now: u64,
    caller: &[(&'a str, Value)],
) -> Vec<(&'a str, Value)> {
    let mut full = vec![
        ("host", Value::str(HOST)),
        ("timestamp", Value::U64(now)),
        ("procid", Value::U64(PROCID)),
        ("procname", Value::str(PROCNAME)),
        ("tracepoint", Value::str(tracepoint)),
    ];
    full.extend(caller.iter().cloned());
    full
}

/// How one call's export list deviates from the tracepoint's declared one.
#[derive(Clone, Debug)]
struct Mutation {
    /// Rotate the list left by this much.
    rotate: usize,
    /// Repeat entry `.0`'s name with value `.1`, in front (`.2`) or behind.
    dup: Option<(usize, Value, bool)>,
    /// Leave this entry out.
    drop: Option<usize>,
    /// Export `DEFAULT_EXPORTS[.0]` from the caller's side too.
    shadow: Option<usize>,
}

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    let maybe = |s: BoxedStrategy<usize>| prop_oneof![Just(None), s.prop_map(Some)];
    (
        0usize..4,
        prop_oneof![
            Just(None),
            ((0usize..4), value_strategy(), prop::bool::ANY).prop_map(Some)
        ],
        maybe((0usize..4).boxed()),
        maybe((0usize..5).boxed()),
    )
        .prop_map(|(rotate, dup, drop, shadow)| Mutation {
            rotate,
            dup,
            drop,
            shadow,
        })
}

fn mutate(declared: &[&'static str], values: &[Value], m: &Mutation) -> Vec<(&'static str, Value)> {
    let mut list: Vec<(&'static str, Value)> = declared
        .iter()
        .zip(values.iter().cycle())
        .map(|(n, v)| (*n, v.clone()))
        .collect();
    if let (Some(i), false) = (m.drop, list.is_empty()) {
        list.remove(i % list.len());
    }
    if let (Some((i, v, front)), false) = (&m.dup, list.is_empty()) {
        let name = list[i % list.len()].0;
        let at = if *front { 0 } else { list.len() };
        list.insert(at, (name, v.clone()));
    }
    if let Some(k) = m.shadow {
        list.insert(0, (DEFAULT_EXPORTS[k], Value::str("from-the-caller")));
    }
    if !list.is_empty() {
        let by = m.rotate % list.len();
        list.rotate_left(by);
    }
    list
}

/// What an agent's reports add up to, in the terms a [`FoldSink`] keeps.
#[derive(Default)]
struct Reported {
    raw: Vec<(QueryId, Tuple)>,
    groups: Vec<(QueryId, GroupKey, Vec<AggState>)>,
    tuples: Vec<(QueryId, u64)>,
    throttles: Vec<Throttled>,
}

impl Reported {
    fn absorb(&mut self, reports: Vec<Report>) {
        for r in reports {
            self.tuples.push((r.query, r.tuples));
            self.throttles.extend(r.throttled);
            match r.rows {
                ReportRows::RawEncoded(blocks) => {
                    for b in blocks {
                        let rows = b.decode().expect("own block decodes");
                        self.raw.extend(rows.into_iter().map(|t| (r.query, t)));
                    }
                }
                ReportRows::Grouped(groups) => {
                    for (key, states) in groups.iter() {
                        let key = GroupKey(key.iter().cloned().collect());
                        match self
                            .groups
                            .iter_mut()
                            .find(|(q, k, _)| *q == r.query && *k == key)
                        {
                            Some((_, _, into)) => {
                                for (st, p) in into.iter_mut().zip(states) {
                                    st.merge(p);
                                }
                            }
                            None => self.groups.push((r.query, key, states.to_vec())),
                        }
                    }
                }
            }
        }
    }

    fn tuples_of(&self, query: QueryId) -> u64 {
        let of = self.tuples.iter().filter(|(q, _)| *q == query);
        of.map(|(_, n)| n).sum()
    }

    /// Finished groups, in an order independent of any hash map's.
    fn finished(&self) -> Vec<(QueryId, GroupKey, Vec<Value>)> {
        let mut out: Vec<(QueryId, GroupKey, Vec<Value>)> = self
            .groups
            .iter()
            .map(|(q, k, states)| (*q, k.clone(), states.iter().map(AggState::finish).collect()))
            .collect();
        out.sort_by_key(|e| format!("{e:?}"));
        out
    }
}

fn sorted_groups(sink: &FoldSink) -> Vec<(QueryId, GroupKey, Vec<Value>)> {
    let mut out: Vec<(QueryId, GroupKey, Vec<Value>)> = sink
        .finished()
        .into_iter()
        .map(|(q, k, v, _)| (q, k, v))
        .collect();
    out.sort_by_key(|e| format!("{e:?}"));
    out
}

/// Folds the oracle's emits the way a per-row sink would.
fn fold_emits(into: &mut FoldSink, emits: &[interp::Emitted]) {
    for e in emits {
        match interp::emit_rows(e) {
            EmitRows::Raw(rows) => into.raw.extend(rows.into_iter().map(|t| (e.query, t))),
            EmitRows::Grouped(rows) => {
                for (k, a) in rows {
                    into.grouped_row(e.query, &e.spec, &k.0, &Tuple::new(a));
                }
            }
        }
    }
}

/// A budget nothing here can reach: metering on, no trips.
fn generous() -> QueryBudget {
    QueryBudget {
        ops_per_window: 1 << 40,
        ..QueryBudget::unlimited()
    }
}

/// A budget the next retired instruction exceeds.
fn exhausted() -> QueryBudget {
    QueryBudget {
        ops_per_window: 0,
        ..QueryBudget::unlimited()
    }
}

/// Far past any backoff deadline the runs below can set.
const LATER: u64 = u64::MAX / 2;

/// Property programs: one random program woven at `T`, a run of calls with
/// mutated export lists, then a breaker trip that reports the window's
/// retired-op and tuple totals.
fn check_program_through_an_agent(
    program: &AdviceProgram,
    calls: &[(Vec<Value>, Mutation)],
    seed: &[Vec<Value>],
) -> Result<(), TestCaseError> {
    const Q: QueryId = QueryId(7);
    let lowered = Arc::new(lower_program(program).code);
    // The agent buffers under the query's output spec; with several
    // `Emit`s of different specs only the packs, stats and ops compare.
    let emits: Vec<&Arc<OutputSpec>> = program
        .ops
        .iter()
        .filter_map(|op| match op {
            AdviceOp::Emit { spec, .. } => Some(spec),
            _ => None,
        })
        .collect();
    let compare_rows = emits.len() <= 1;
    let code = CompiledCode {
        id: Q,
        name: "fuzzed".into(),
        programs: vec![Arc::clone(&lowered)],
        output: emits.first().map(|s| Arc::clone(s)).unwrap_or_default(),
    };
    // Budgeted before it is installed, so the governor knows the output
    // spec and can report a trip even when the program never emits.
    let agent = planned_agent();
    agent.set_budget(Q, generous());
    agent.install(&code);

    let mut bag_tree = Baggage::new();
    if !seed.is_empty() {
        bag_tree.pack(
            QueryId(100),
            &PackMode::All,
            seed.iter().map(|t| t.iter().cloned().collect::<Tuple>()),
        );
    }
    let mut bag_vm = bag_tree.clone();
    let mut bag_agent = bag_tree.clone();
    let mut vm = Vm::new();
    let mut sink = FoldSink::default();
    let mut tree = FoldSink::default();
    let (mut packed, mut emitted, mut bytes) = (0u64, 0u64, 0u64);

    for (i, (values, mutation)) in calls.iter().enumerate() {
        // The last call runs under the exhausted budget and trips.
        if i + 1 == calls.len() {
            agent.set_budget(Q, exhausted());
        }
        let now = i as u64;
        let caller = mutate(&["a", "b", "c"], values, mutation);
        let full = full_exports("T", now, &caller);

        let (emits, ts) = interp::run(program, &full, &mut bag_tree);
        fold_emits(&mut tree, &emits);
        let values_before = bag_vm.meter().values;
        let vs = vm.run(&lowered, &full, &mut bag_vm, &mut sink);
        bytes += (bag_vm.meter().values - values_before) * 12;
        packed += vs.packed as u64;
        emitted += vs.emitted as u64;
        prop_assert_eq!((ts.packed, ts.emitted), (vs.packed, vs.emitted));

        agent.invoke("T", &mut bag_agent, now, &caller);
        prop_assert_eq!(
            bag_agent.to_bytes(),
            bag_vm.to_bytes(),
            "agent baggage diverges at call {} with {:?} for {:?}",
            i,
            caller,
            program
        );
        prop_assert_eq!(bag_vm.to_bytes(), bag_tree.to_bytes());
    }

    let stats = agent.stats();
    prop_assert_eq!(
        (stats.tuples_packed, stats.tuples_emitted),
        (packed, emitted),
        "agent stats diverge for {:?}",
        program
    );
    // Every call retired at least the program's first instruction, so the
    // exhausted budget tripped, and unwove the advice.
    prop_assert!(agent.is_tripped(Q));
    let mut idle = bag_agent.clone();
    agent.invoke("T", &mut idle, 99, &[("a", Value::I64(1))]);
    prop_assert_eq!(idle.to_bytes(), bag_agent.to_bytes(), "unwoven advice ran");
    prop_assert_eq!(agent.stats().tuples_emitted, emitted);

    let mut reported = Reported::default();
    reported.absorb(agent.flush(LATER));
    prop_assert_eq!(reported.throttles.len(), 1);
    let trip = reported.throttles[0].stats;
    prop_assert_eq!(
        (trip.ops, trip.tuples, trip.bytes),
        (vm.ops(), packed + emitted, bytes),
        "the governor's meter diverges for {:?}",
        program
    );
    if compare_rows {
        prop_assert_eq!(&reported.raw, &sink.raw, "streaming rows for {:?}", program);
        prop_assert_eq!(&sink.raw, &tree.raw);
        prop_assert_eq!(
            reported.finished(),
            sorted_groups(&sink),
            "groups for {:?}",
            program
        );
        prop_assert_eq!(sorted_groups(&sink), sorted_groups(&tree));
    }
    Ok(())
}

/// One step of a paper-query run.
#[derive(Clone, Debug)]
enum Step {
    /// A tracepoint fires on the current request.
    Event(usize, Vec<Value>, Mutation),
    /// The next event starts from empty baggage.
    NewRequest,
    Uninstall(usize),
    Install(usize),
    /// The query's next retired instruction trips its breaker.
    Exhaust(usize),
    /// A flush late enough to re-arm every open breaker.
    Flush,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let q = || 0usize..PAPER_QUERIES.len();
    let event = || {
        (
            0usize..PAPER_TRACEPOINTS.len(),
            prop::collection::vec(value_strategy(), 1..4),
            mutation_strategy(),
        )
            .prop_map(|(tp, values, m)| Step::Event(tp, values, m))
    };
    prop_oneof![
        event(),
        event(),
        event(),
        event(),
        event(),
        event(),
        Just(Step::NewRequest),
        q().prop_map(Step::Uninstall),
        q().prop_map(Step::Install),
        q().prop_map(Step::Exhaust),
        Just(Step::Flush),
    ]
}

/// What the reference believes about one query's governor entry.
#[derive(Clone, Copy, Default)]
struct GovModel {
    exhausted: bool,
    open: bool,
    tuples: u64,
    ops: u64,
    bytes: u64,
    trips: u32,
    /// A trip the next flush reports — unless an uninstall drops the
    /// entry first.
    pending: Option<Throttled>,
}

fn check_paper_queries_through_an_agent(steps: &[Step]) -> Result<(), TestCaseError> {
    let mut fe = Frontend::new();
    for (name, exports) in PAPER_TRACEPOINTS {
        fe.define(name, exports.iter().copied());
    }
    let agent = planned_agent();
    let mut queries = Vec::new();
    for text in PAPER_QUERIES {
        let handle = fe.install(text).expect("the paper's queries install");
        let cq = fe.compiled(&handle).expect("compiled form");
        let code = fe.code(&handle).expect("lowered form");
        agent.install(&code);
        agent.set_budget(code.id, generous());
        queries.push((cq, code));
    }
    // The reference's registry: woven queries in weave order. Its
    // governors: an entry per budgeted query.
    let mut woven: Vec<usize> = (0..queries.len()).collect();
    let mut govs: Vec<Option<GovModel>> = vec![Some(GovModel::default()); queries.len()];
    let mut expected_trips: Vec<Throttled> = Vec::new();

    let mut bag_tree = Baggage::new();
    let mut bag_vm = Baggage::new();
    let mut bag_agent = Baggage::new();
    let mut vm = Vm::new();
    let mut sink = FoldSink::default();
    let mut tree = FoldSink::default();
    let mut reported = Reported::default();
    let (mut packed, mut emitted) = (0u64, 0u64);

    for (now, step) in steps.iter().enumerate() {
        let now = now as u64;
        match step {
            Step::NewRequest => {
                bag_tree = Baggage::new();
                bag_vm = Baggage::new();
                bag_agent = Baggage::new();
            }
            Step::Uninstall(q) => {
                agent.apply(&Command::Uninstall(queries[*q].1.id));
                woven.retain(|w| w != q);
                govs[*q] = None;
            }
            Step::Install(q) => {
                agent.install(&queries[*q].1);
                if !govs[*q].is_some_and(|g| g.open) && !woven.contains(q) {
                    woven.push(*q);
                }
            }
            Step::Exhaust(q) => {
                agent.set_budget(queries[*q].1.id, exhausted());
                govs[*q].get_or_insert_with(GovModel::default).exhausted = true;
            }
            Step::Flush => {
                reported.absorb(agent.flush(LATER));
                for (q, gov) in govs.iter_mut().enumerate() {
                    expected_trips.extend(gov.as_mut().and_then(|g| g.pending.take()));
                    if let Some(g) = gov.as_mut().filter(|g| g.open) {
                        *g = GovModel {
                            exhausted: g.exhausted,
                            trips: g.trips,
                            ..GovModel::default()
                        };
                        woven.push(q);
                    }
                }
            }
            Step::Event(tp, values, mutation) => {
                let (name, declared) = PAPER_TRACEPOINTS[*tp];
                let caller = mutate(declared, values, mutation);
                let full = full_exports(name, now, &caller);
                let mut tripped = Vec::new();
                for &q in &woven {
                    let (cq, code) = &queries[q];
                    for (prog, lowered) in cq.advice.iter().zip(&code.programs) {
                        if !prog.tracepoints.iter().any(|t| t == name) {
                            continue;
                        }
                        let (emits, ts) = interp::run(prog, &full, &mut bag_tree);
                        fold_emits(&mut tree, &emits);
                        let (ops0, values0) = (vm.ops(), bag_vm.meter().values);
                        let vs = vm.run(lowered, &full, &mut bag_vm, &mut sink);
                        prop_assert_eq!((ts.packed, ts.emitted), (vs.packed, vs.emitted));
                        packed += vs.packed as u64;
                        emitted += vs.emitted as u64;
                        // The governor's charge, program by program; a
                        // breaker that is already open takes no more.
                        let Some(g) = govs[q].as_mut().filter(|g| !g.open) else {
                            continue;
                        };
                        g.tuples += (vs.packed + vs.emitted) as u64;
                        g.ops += vm.ops() - ops0;
                        g.bytes += (bag_vm.meter().values - values0) * 12;
                        if g.exhausted && g.ops > 0 {
                            g.open = true;
                            g.trips += 1;
                            tripped.push(q);
                            g.pending = Some(Throttled {
                                query: code.id,
                                reason: pivot_core::ThrottleReason::Ops,
                                stats: pivot_core::ThrottleStats {
                                    tuples: g.tuples,
                                    ops: g.ops,
                                    bytes: g.bytes,
                                    trips: g.trips,
                                },
                            });
                        }
                    }
                }
                woven.retain(|q| !tripped.contains(q));

                agent.invoke(name, &mut bag_agent, now, &caller);
                prop_assert_eq!(
                    bag_agent.to_bytes(),
                    bag_vm.to_bytes(),
                    "agent baggage diverges at step {} ({} with {:?})",
                    now,
                    name,
                    caller
                );
                prop_assert_eq!(bag_vm.to_bytes(), bag_tree.to_bytes());
                let stats = agent.stats();
                prop_assert_eq!(
                    (stats.tuples_packed, stats.tuples_emitted),
                    (packed, emitted),
                    "agent stats diverge at step {} ({} with {:?})",
                    now,
                    name,
                    caller
                );
            }
        }
    }
    reported.absorb(agent.flush(LATER));
    expected_trips.extend(govs.iter().flatten().filter_map(|g| g.pending));

    let by_query = |t: &Throttled| (t.query, t.stats.trips);
    reported.throttles.sort_by_key(by_query);
    expected_trips.sort_by_key(by_query);
    prop_assert_eq!(
        &reported.throttles,
        &expected_trips,
        "breaker trips diverge"
    );
    prop_assert_eq!(&reported.raw, &sink.raw, "streaming rows diverge");
    prop_assert_eq!(&sink.raw, &tree.raw);
    prop_assert_eq!(reported.finished(), sorted_groups(&sink), "groups diverge");
    prop_assert_eq!(sorted_groups(&sink), sorted_groups(&tree));
    for (_, code) in &queries {
        let rows = sink.raw.iter().filter(|(q, _)| *q == code.id).count() as u64;
        let folded = sink.finished().into_iter().filter(|g| g.0 == code.id);
        let folded: u64 = folded.map(|g| g.3).sum();
        prop_assert_eq!(reported.tuples_of(code.id), rows + folded);
        prop_assert_eq!(agent.emitted_for(code.id), rows + folded);
    }
    Ok(())
}

/// The remembered layout is the first call's; a reordered second call must
/// miss it, a third call in the first order must hit it again, and a
/// duplicated name must resolve to its first occurrence either way.
#[test]
fn a_reordered_call_misses_the_remembered_position() {
    let mut fe = Frontend::new();
    fe.define("S", ["x", "y"]);
    let handle = fe
        .install("From s In S GroupBy s.x Select s.x, SUM(s.y)")
        .expect("installs");
    let agent = planned_agent();
    agent.install(&fe.code(&handle).expect("code"));
    let mut bag = Baggage::new();
    let (x, y) = (Value::I64(1), Value::I64(10));
    agent.invoke("S", &mut bag, 0, &[("x", x.clone()), ("y", y.clone())]);
    agent.invoke("S", &mut bag, 1, &[("y", y.clone()), ("x", x.clone())]);
    agent.invoke("S", &mut bag, 2, &[("x", x.clone()), ("y", y.clone())]);
    // Same shape as the first call, but `x` now also appears later: the
    // first occurrence wins, as in a name search.
    agent.invoke(
        "S",
        &mut bag,
        3,
        &[("x", x.clone()), ("y", y), ("x", Value::I64(2))],
    );
    // `y` missing: Null, which SUM ignores.
    agent.invoke("S", &mut bag, 4, &[("x", x.clone())]);
    let mut reported = Reported::default();
    reported.absorb(agent.flush(10));
    assert_eq!(
        reported.finished(),
        vec![(
            handle.id,
            GroupKey(Tuple::from_iter([x])),
            vec![Value::I64(40)]
        )]
    );
    assert_eq!(reported.tuples_of(handle.id), 5);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The property programs, through an agent's plan.
    #[test]
    fn random_programs_through_an_agent_match_the_named_entry_and_the_oracle(
        ops in prop::collection::vec(op_strategy(), 1..6),
        calls in prop::collection::vec(
            (prop::collection::vec(value_strategy(), 3..4), mutation_strategy()),
            1..5,
        ),
        seed in seed_strategy(),
    ) {
        let program = AdviceProgram { tracepoints: vec!["T".to_owned()], ops };
        check_program_through_an_agent(&program, &calls, &seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Q1–Q7 through an agent's plan, with weaves, unweaves, trips and
    /// re-arms between calls.
    #[test]
    fn paper_queries_through_an_agent_match_the_named_entry_and_the_oracle(
        steps in prop::collection::vec(step_strategy(), 1..60),
    ) {
        check_paper_queries_through_an_agent(&steps)?;
    }
}

// ---------------------------------------------------------------------------
// Borrowed ≡ owned ≡ oracle, on the edges of the borrowed-row design.
// ---------------------------------------------------------------------------
//
// The VM reads observed columns where the caller keeps them and clones a
// value only for what outlives the row: a join's suffix, a pack's
// projection, a kept streaming row, the key of a group being born. The
// programs below sit on the seams of that — the same export observed
// twice, a key column that is also an argument, computed keys and
// arguments beside borrowed ones, `Unpack` on both sides of an `Observe`,
// filters that drop every row — and the batches hand every invocation a
// different export list. Each runs four ways: the tree-walk oracle and the
// named-slice `Vm::run` one event at a time over the assembled export set,
// a plan-resolved `Agent::invoke` per event, and one `Agent::invoke_batch`;
// at row caps 1, 2 and none.

fn observe(alias: &str, fields: &[&str]) -> AdviceOp {
    AdviceOp::Observe {
        alias: alias.into(),
        fields: fields.iter().map(|f| (*f).to_owned()).collect(),
    }
}

fn unpack_as(names: &[&str]) -> AdviceOp {
    AdviceOp::Unpack {
        slot: QueryId(100),
        schema: Schema::new(names.iter().copied()),
        post_filter: None,
    }
}

fn emit(keys: Vec<Expr>, aggs: Vec<(AggFunc, Expr)>) -> AdviceOp {
    let columns = (0..keys.len())
        .map(ColumnRef::Key)
        .chain((0..aggs.len()).map(ColumnRef::Agg))
        .collect();
    let (funcs, aggs): (Vec<AggFunc>, Vec<Expr>) = aggs.into_iter().unzip();
    AdviceOp::Emit {
        query: QueryId(7),
        spec: Arc::new(OutputSpec {
            key_names: (0..keys.len()).map(|i| format!("k{i}")).collect(),
            agg_names: (0..aggs.len()).map(|i| format!("g{i}")).collect(),
            streaming: aggs.is_empty(),
            aggs: funcs,
            columns,
            ..OutputSpec::default()
        }),
        keys,
        aggs,
    }
}

fn edge_programs() -> Vec<(&'static str, Vec<AdviceOp>)> {
    let f = Expr::field;
    let plus_one = |e: Expr| Expr::bin(BinOp::Add, e, Expr::lit(1));
    let never = || AdviceOp::Filter {
        pred: Expr::bin(BinOp::Gt, f("x.a"), Expr::lit(1_000_000)),
    };
    vec![
        (
            "the same export observed twice",
            vec![
                observe("x", &["a", "a", "b"]),
                emit(vec![f("x.a")], vec![(AggFunc::Sum, f("x.b"))]),
            ],
        ),
        (
            "a key column that is also an argument",
            vec![
                observe("x", &["a", "b"]),
                emit(
                    vec![f("x.a")],
                    vec![
                        (AggFunc::Sum, f("x.a")),
                        (AggFunc::Max, f("x.a")),
                        (AggFunc::Count, Expr::Lit(Value::Null)),
                    ],
                ),
            ],
        ),
        (
            "computed keys and arguments beside borrowed ones",
            vec![
                observe("x", &["a", "b", "c"]),
                emit(
                    vec![f("x.c"), plus_one(f("x.a")), Expr::lit(3)],
                    vec![
                        (AggFunc::Sum, Expr::bin(BinOp::Mul, f("x.b"), Expr::lit(2))),
                        (AggFunc::Min, f("x.b")),
                        // Fails on strings: the argument reads Null.
                        (AggFunc::Sum, Expr::Unary(UnOp::Neg, Box::new(f("x.c")))),
                    ],
                ),
            ],
        ),
        (
            "a computed key that can fail drops the row",
            vec![
                observe("x", &["a", "c"]),
                emit(
                    vec![Expr::Unary(UnOp::Neg, Box::new(f("x.c"))), f("x.a")],
                    vec![(AggFunc::Count, Expr::Lit(Value::Null))],
                ),
            ],
        ),
        (
            "defaults beside caller columns",
            vec![
                observe("x", &["host", "timestamp", "procid", "a", "tracepoint"]),
                emit(
                    vec![f("x.host"), f("x.tracepoint"), f("x.a")],
                    vec![
                        (AggFunc::Max, f("x.timestamp")),
                        (AggFunc::Sum, f("x.procid")),
                    ],
                ),
            ],
        ),
        (
            "a streaming row keeps borrowed, repeated and computed columns",
            vec![
                observe("x", &["a", "b"]),
                emit(
                    vec![f("x.b"), f("x.a"), f("x.b"), plus_one(f("x.a"))],
                    vec![],
                ),
            ],
        ),
        (
            "a filter that drops every row",
            vec![
                observe("x", &["a"]),
                never(),
                observe("y", &["b"]),
                emit(vec![f("y.b")], vec![]),
            ],
        ),
        (
            "a fused filter that drops every row",
            vec![
                observe("x", &["a", "b"]),
                never(),
                emit(
                    vec![f("x.b")],
                    vec![(AggFunc::Count, Expr::Lit(Value::Null))],
                ),
            ],
        ),
        (
            "unpack before and after observe, grouped",
            vec![
                unpack_as(&["p0", "p1"]),
                observe("x", &["a"]),
                unpack_as(&["q0"]),
                observe("y", &["b", "a"]),
                emit(
                    vec![f("p0"), f("x.a"), f("q0")],
                    vec![(AggFunc::Sum, f("y.b")), (AggFunc::Max, f("p1"))],
                ),
            ],
        ),
        (
            "unpack before and after observe, streaming, filtered in between",
            vec![
                unpack_as(&["p0"]),
                observe("x", &["a", "b"]),
                AdviceOp::Filter {
                    pred: Expr::bin(BinOp::Ne, f("x.a"), f("p0")),
                },
                unpack_as(&["q0", "q1"]),
                emit(vec![f("q1"), f("x.b"), f("p0"), f("x.a")], vec![]),
            ],
        ),
        (
            "observe, then join, then pack what both sides carry",
            vec![
                observe("x", &["a", "b"]),
                unpack_as(&["p0"]),
                AdviceOp::Pack {
                    slot: QueryId(200),
                    mode: PackMode::All,
                    exprs: vec![f("x.b"), f("p0"), plus_one(f("x.a"))],
                    names: vec!["r0".into(), "r1".into(), "r2".into()],
                },
            ],
        ),
        (
            "observe, then join, grouped by what was joined on",
            vec![
                observe("x", &["a", "b"]),
                unpack_as(&["p0"]),
                emit(
                    vec![f("p0")],
                    vec![
                        (AggFunc::Sum, f("x.a")),
                        (AggFunc::Count, Expr::Lit(Value::Null)),
                    ],
                ),
            ],
        ),
    ]
}

/// Export lists that differ from one invocation of a batch to the next:
/// values, order, a repeated name, a missing name, a caller-side `host`.
fn edge_batch() -> Vec<Vec<(&'static str, Value)>> {
    let s = Value::str;
    vec![
        vec![("a", Value::I64(1)), ("b", Value::I64(10)), ("c", s("s"))],
        vec![("a", Value::I64(1)), ("b", Value::I64(20)), ("c", s("s"))],
        vec![
            ("b", Value::U64(5)),
            ("a", Value::I64(2)),
            ("c", Value::I64(4)),
        ],
        vec![
            ("a", s("t")),
            ("a", Value::I64(9)),
            ("b", Value::I64(1)),
            ("c", s("t")),
        ],
        vec![("b", Value::I64(7)), ("c", Value::Bool(true))],
        vec![
            ("host", s("from-the-caller")),
            ("a", Value::I64(2)),
            ("b", Value::I64(3)),
            ("c", s("s")),
        ],
        vec![("a", Value::I64(1)), ("b", Value::I64(30)), ("c", s("s"))],
    ]
}

/// What a buffer capped at `cap` rows keeps of `tree`'s rows, and how many
/// tuples it sheds: a grouped buffer refuses groups past the cap, a
/// streaming one keeps the newest.
fn capped(tree: &FoldSink, cap: usize) -> (FoldSink, u64) {
    let mut kept = FoldSink::default();
    let mut shed = 0u64;
    for (q, key, states, rows) in &tree.groups {
        if kept.groups.len() < cap {
            kept.groups.push((*q, key.clone(), states.clone(), *rows));
        } else {
            shed += rows;
        }
    }
    let drop = tree.raw.len().saturating_sub(cap);
    shed += drop as u64;
    kept.raw = tree.raw[drop..].to_vec();
    (kept, shed)
}

fn check_edge(what: &str, ops: &[AdviceOp], cap: Option<usize>, batched: bool) {
    const Q: QueryId = QueryId(7);
    let program = AdviceProgram {
        tracepoints: vec!["T".to_owned()],
        ops: ops.to_vec(),
    };
    let lowered = Arc::new(lower_program(&program).code);
    lowered.validate().expect("lowered bytecode validates");
    let output = ops.iter().find_map(|op| match op {
        AdviceOp::Emit { spec, .. } => Some(Arc::clone(spec)),
        _ => None,
    });
    let code = CompiledCode {
        id: Q,
        name: "edge".into(),
        programs: vec![Arc::clone(&lowered)],
        output: output.unwrap_or_default(),
    };
    let agent = planned_agent();
    agent.set_budget(Q, generous());
    agent.install(&code);
    if let Some(cap) = cap {
        agent.set_row_cap(cap);
    }

    let mut bag_tree = Baggage::new();
    bag_tree.pack(
        QueryId(100),
        &PackMode::All,
        [
            Tuple::from_iter([Value::I64(1), Value::str("u")]),
            Tuple::from_iter([Value::I64(2)]),
        ],
    );
    let mut bag_vm = bag_tree.clone();
    let mut bag_agent = bag_tree.clone();
    let mut vm = Vm::new();
    let mut sink = FoldSink::default();
    let mut tree = FoldSink::default();
    let (mut packed, mut emitted, mut bytes) = (0u64, 0u64, 0u64);

    let batch = edge_batch();
    for (i, caller) in batch.iter().enumerate() {
        let full = full_exports("T", i as u64, caller);
        let (emits, ts) = interp::run(&program, &full, &mut bag_tree);
        fold_emits(&mut tree, &emits);
        let values_before = bag_vm.meter().values;
        let vs = vm.run(&lowered, &full, &mut bag_vm, &mut sink);
        bytes += (bag_vm.meter().values - values_before) * 12;
        assert_eq!(
            (ts.packed, ts.unpacked, ts.emitted),
            (vs.packed, vs.unpacked, vs.emitted),
            "{what}: stats at event {i}"
        );
        packed += vs.packed as u64;
        emitted += vs.emitted as u64;
    }
    assert_eq!(bag_vm.to_bytes(), bag_tree.to_bytes(), "{what}: baggage");
    assert_eq!(sink.raw, tree.raw, "{what}: streaming rows");
    assert_eq!(sink.finished(), tree.finished(), "{what}: groups");

    // The agent, tripping on its last call so the governor's meter — ops,
    // tuples, bytes — rides out on the flush.
    if batched {
        agent.set_budget(Q, exhausted());
        let events: Vec<(u64, &[(&str, Value)])> = batch
            .iter()
            .enumerate()
            .map(|(i, e)| (i as u64, e.as_slice()))
            .collect();
        agent.invoke_batch("T", &mut bag_agent, &events);
    } else {
        for (i, caller) in batch.iter().enumerate() {
            if i + 1 == batch.len() {
                agent.set_budget(Q, exhausted());
            }
            agent.invoke("T", &mut bag_agent, i as u64, caller);
        }
    }
    assert_eq!(
        bag_agent.to_bytes(),
        bag_tree.to_bytes(),
        "{what}: agent baggage"
    );
    let stats = agent.stats();
    assert_eq!(
        (stats.tuples_packed, stats.tuples_emitted),
        (packed, emitted),
        "{what}: agent stats"
    );
    let (kept, shed) = capped(&tree, cap.unwrap_or(usize::MAX));
    assert_eq!(agent.shed_for(Q), shed, "{what}: shed at cap {cap:?}");
    // Rows that reached the sink: an emitted row whose key fails does not.
    let sunk = tree.raw.len() as u64 + tree.groups.iter().map(|g| g.3).sum::<u64>();
    assert_eq!(agent.emitted_for(Q), sunk, "{what}: rows sunk");

    let mut reported = Reported::default();
    reported.absorb(agent.flush(LATER));
    assert_eq!(reported.throttles.len(), 1, "{what}: one trip");
    let trip = reported.throttles[0].stats;
    assert_eq!(
        (trip.ops, trip.tuples, trip.bytes),
        (vm.ops(), packed + emitted, bytes),
        "{what}: the governor's meter"
    );
    assert_eq!(reported.raw, kept.raw, "{what}: reported streaming rows");
    assert_eq!(
        reported.finished(),
        sorted_groups(&kept),
        "{what}: reported groups"
    );
    assert_eq!(reported.tuples_of(Q), sunk - shed, "{what}: delivered");
}

#[test]
fn borrowed_rows_match_owned_rows_and_the_oracle_on_the_seams() {
    for (what, ops) in edge_programs() {
        for cap in [None, Some(1), Some(2)] {
            for batched in [false, true] {
                check_edge(what, &ops, cap, batched);
            }
        }
    }
}

/// An [`EmitSink`] that notes, while each grouped row is being delivered,
/// how many owners the watched string has.
struct Watch {
    of: Arc<str>,
    during: Vec<usize>,
}

impl EmitSink for Watch {
    fn streaming_row(&mut self, _: QueryId, _: &Arc<OutputSpec>, _: Tuple) {}
    fn grouped_row(&mut self, _: QueryId, _: &Arc<OutputSpec>, key: &dyn Cols, args: &dyn Cols) {
        assert!(key.width() + args.width() > 0);
        self.during.push(Arc::strong_count(&self.of));
    }
}

/// A program without `Unpack` or `Pack` builds no tuple: while a row is
/// with the sink, a string key has the owners it had before the run — and
/// afterwards one more per group *born*, none for a row that found its
/// group.
#[test]
fn a_string_key_is_cloned_once_per_group_born_and_never_per_row() {
    let mut fe = Frontend::new();
    fe.define("S", ["k", "v"]);
    let handle = fe
        .install("From s In S GroupBy s.k Select s.k, COUNT, SUM(s.v), MAX(s.k)")
        .expect("installs");
    let code = fe.code(&handle).expect("code");
    // Longer than a `Value` holds inline, so every clone shares the key's
    // allocation and shows in its count. A short key's birth is pinned by
    // allocation count instead (root `tests/invoke_allocs.rs`,
    // `a_batch_allocates_once_per_new_group_whatever_its_length`).
    let keys: Vec<Arc<str>> = (0..3)
        .map(|i| Arc::from(format!("key-{i}-longer-than-a-value-holds")))
        .collect();
    let exports: Vec<[(&str, Value); 2]> = (0..12)
        .map(|i| {
            [
                ("k", Value::from(Arc::clone(&keys[i % 3]))),
                ("v", Value::U64(i as u64)),
            ]
        })
        .collect();
    let held: Vec<usize> = keys.iter().map(Arc::strong_count).collect();
    assert_eq!(held, [5, 5, 5]);

    // The VM alone, named-slice entry, one batch.
    let batch: Vec<&[(&str, Value)]> = exports.iter().map(|e| e.as_slice()).collect();
    let mut watch = Watch {
        of: Arc::clone(&keys[0]),
        during: Vec::new(),
    };
    let program = code.programs.last().expect("one program");
    let stats = Vm::new().run_batch(program, &batch, &mut Baggage::new(), &mut watch);
    assert_eq!(stats.emitted, 12);
    assert_eq!(
        watch.during,
        [held[0] + 1; 12],
        "only the watch itself was added"
    );
    drop(watch);

    // Through an agent: the first batch bears three groups, the second
    // finds them, a flush hands the keys to the reports.
    let agent = planned_agent();
    agent.install(&code);
    let events: Vec<(u64, &[(&str, Value)])> = batch.iter().map(|e| (1, *e)).collect();
    let owners = || -> Vec<usize> { keys.iter().map(Arc::strong_count).collect() };
    agent.invoke_batch("S", &mut Baggage::new(), &events);
    // One for the group's key, one for the MAX accumulator that holds it.
    assert_eq!(owners(), [7, 7, 7]);
    agent.invoke_batch("S", &mut Baggage::new(), &events);
    for (i, e) in exports.iter().enumerate() {
        agent.invoke("S", &mut Baggage::new(), i as u64, e);
    }
    assert_eq!(
        owners(),
        [7, 7, 7],
        "rows that found their group cloned nothing"
    );
    let reports = agent.flush(10);
    assert_eq!(owners(), [7, 7, 7]);
    drop(reports);
    assert_eq!(owners(), held);
}
