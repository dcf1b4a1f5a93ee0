//! Differential tests for the bytecode VM: on *arbitrary* advice programs
//! — including ill-typed expressions, unresolvable fields, dead unpacks,
//! and pathological op orders — the lowered bytecode must reproduce the
//! tree-walk interpreter's observable behavior bit for bit: emitted rows
//! (in order), execution stats, and the resulting baggage bytes.
//!
//! The VM has one execution loop, driven three ways here: against the
//! tree-walk reference (`support/interp.rs`) one invocation at a time,
//! and one-at-a-time against whole-batch, through a per-row sink and a
//! folding one (which also selects the factorized join).
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
use pivot_model::{AggFunc, BinOp, Expr, GroupKey, Schema, Tuple, UnOp, Value};
use pivot_query::advice::{AdviceOp, AdviceProgram, ColumnRef, OutputSpec};
use pivot_query::bytecode::lower_program;
use pivot_query::{CollectSink, EmitSink, TemporalFilter, Vm};

use proptest::prelude::*;

#[path = "support/interp.rs"]
mod interp;
use interp::EmitRows;

/// Uniform choice from a fixed list (the vendored proptest shim has no
/// `prop::sample`).
fn select<T: Clone + std::fmt::Debug + 'static>(items: Vec<T>) -> BoxedStrategy<T> {
    let n = items.len();
    (0..n).prop_map(move |i| items[i].clone()).boxed()
}

/// Field names used in generated expressions: a mix of resolvable,
/// suffix-matching, ambiguous, and unknown references.
const FIELD_NAMES: [&str; 8] = ["x.a", "x.b", "x.c", "a", "b", "c", "x.zz", "nope"];

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0i64..5).prop_map(Value::I64),
        (0u64..5).prop_map(Value::U64),
        prop::bool::ANY.prop_map(Value::Bool),
        select(vec!["s", "t"]).prop_map(Value::str),
        Just(Value::Null),
    ]
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        select(FIELD_NAMES.to_vec()).prop_map(Expr::field),
        value_strategy().prop_map(Expr::Lit),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (prop::bool::ANY, inner.clone()).prop_map(|(neg, e)| Expr::Unary(
                if neg { UnOp::Neg } else { UnOp::Not },
                Box::new(e)
            )),
            (
                select(vec![
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Div,
                    BinOp::Eq,
                    BinOp::Ne,
                    BinOp::Lt,
                    BinOp::Gt,
                    BinOp::And,
                    BinOp::Or,
                ]),
                inner.clone(),
                inner
            )
                .prop_map(|(op, a, b)| Expr::Binary(op, Box::new(a), Box::new(b))),
        ]
    })
}

fn agg_strategy() -> impl Strategy<Value = AggFunc> {
    select(vec![
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Average,
    ])
}

fn temporal_strategy() -> impl Strategy<Value = Option<TemporalFilter>> {
    prop_oneof![
        Just(None),
        (1usize..3).prop_map(|n| Some(TemporalFilter::First(n))),
        (1usize..3).prop_map(|n| Some(TemporalFilter::MostRecent(n))),
    ]
}

fn op_strategy() -> impl Strategy<Value = AdviceOp> {
    prop_oneof![
        // Observe under alias `x` or `y`; `zz` exports Null.
        (
            select(vec!["x", "y"]),
            prop::collection::vec(select(vec!["a", "b", "c", "zz"]), 0..4)
        )
            .prop_map(|(alias, fields)| AdviceOp::Observe {
                alias: alias.to_owned(),
                fields: fields.into_iter().map(str::to_owned).collect(),
            }),
        // Unpack the seeded slot (100) or a possibly-written slot (200).
        (select(vec![100u64, 200]), (1usize..3), temporal_strategy()).prop_map(
            |(slot, width, post_filter)| AdviceOp::Unpack {
                slot: QueryId(slot),
                schema: Schema::new((0..width).map(|i| format!("u{i}"))),
                post_filter,
            }
        ),
        expr_strategy().prop_map(|pred| AdviceOp::Filter { pred }),
        (
            prop::collection::vec(expr_strategy(), 1..3),
            0usize..4,
            1usize..3,
            0usize..3,
            prop::collection::vec(agg_strategy(), 0..3),
        )
            .prop_map(|(exprs, mode_sel, n, key_seed, aggs)| {
                let width = exprs.len();
                let mode = match mode_sel {
                    0 => PackMode::All,
                    1 => PackMode::First(n),
                    2 => PackMode::Recent(n),
                    _ => {
                        // A well-formed grouped pack covers every column:
                        // key_len keys + one aggregator per value column.
                        let key_len = key_seed.min(width);
                        let mut aggs: Vec<AggFunc> =
                            aggs.into_iter().take(width - key_len).collect();
                        while aggs.len() < width - key_len {
                            aggs.push(AggFunc::Count);
                        }
                        PackMode::GroupAgg { key_len, aggs }
                    }
                };
                let names = (0..exprs.len()).map(|i| format!("p{i}")).collect();
                AdviceOp::Pack {
                    slot: QueryId(200),
                    mode,
                    exprs,
                    names,
                }
            }),
        // Trigger with an optional (possibly ill-typed) predicate: the
        // fire-at-most-once-per-invocation rule must match between
        // engines even when the predicate errors on some tuples.
        prop_oneof![Just(None), expr_strategy().prop_map(Some)].prop_map(|pred| {
            AdviceOp::Trigger {
                query: QueryId(7),
                pred,
            }
        }),
        (
            prop::collection::vec(expr_strategy(), 0..3),
            prop::collection::vec((agg_strategy(), expr_strategy()), 0..3)
        )
            .prop_map(|(keys, aggs)| {
                let columns = (0..keys.len())
                    .map(ColumnRef::Key)
                    .chain((0..aggs.len()).map(ColumnRef::Agg))
                    .collect();
                let spec = OutputSpec {
                    key_names: (0..keys.len()).map(|i| format!("k{i}")).collect(),
                    agg_names: (0..aggs.len()).map(|i| format!("g{i}")).collect(),
                    streaming: aggs.is_empty(),
                    key_exprs: keys,
                    aggs,
                    columns,
                    ..OutputSpec::default()
                };
                AdviceOp::Emit {
                    query: QueryId(7),
                    spec: Arc::new(spec),
                }
            }),
    ]
}

/// Exports visible at the fuzzed tracepoint (`zz` deliberately absent).
fn exports_strategy() -> impl Strategy<Value = Vec<(&'static str, Value)>> {
    (value_strategy(), value_strategy(), value_strategy())
        .prop_map(|(a, b, c)| vec![("a", a), ("b", b), ("c", c)])
}

/// Pre-seeded baggage contents for slot 100.
fn seed_strategy() -> impl Strategy<Value = Vec<Vec<Value>>> {
    prop::collection::vec(prop::collection::vec(value_strategy(), 1..3), 0..4)
}

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

/// An [`EmitSink`] that opts into folded grouped delivery and lands
/// either delivery style in final per-group accumulator states, so
/// per-row reference rows and folded/factorized deliveries become
/// directly comparable.
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
        key: GroupKey,
    ) -> &mut (QueryId, GroupKey, Vec<AggState>, u64) {
        if let Some(i) = self
            .groups
            .iter()
            .position(|(q, k, _, _)| *q == query && *k == key)
        {
            return &mut self.groups[i];
        }
        let states = spec.aggs.iter().map(|(f, _)| f.init()).collect();
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
        key: GroupKey,
        args: &[Value],
    ) {
        let (_, _, states, rows) = self.slot(query, spec, key);
        *rows += 1;
        for (st, arg) in states.iter_mut().zip(args) {
            st.update(arg);
        }
    }
    fn folds_grouped(&self) -> bool {
        true
    }
    fn grouped_fold(
        &mut self,
        query: QueryId,
        spec: &Arc<OutputSpec>,
        key: GroupKey,
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

/// Whole-batch vs one-at-a-time: [`Vm::run_batch`] must reproduce N
/// sequential [`Vm::run`]s exactly — rows in order, stats, and baggage —
/// for arbitrary programs (batchable or not), and, when driven through a
/// folding sink, land identical final aggregation states in identical
/// first-seen group order.
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

    // Folding delivery: identical final accumulators per group.
    let mut bag_single = bag_seed.clone();
    let mut fold_single = FoldSink::default();
    for exports in &batch {
        Vm::new().run(&lowered.code, exports, &mut bag_single, &mut fold_single);
    }
    let mut bag_fold = bag_seed.clone();
    let mut fold_batch = FoldSink::default();
    Vm::new().run_batch(&lowered.code, &batch, &mut bag_fold, &mut fold_batch);
    prop_assert_eq!(
        fold_batch.finished(),
        fold_single.finished(),
        "folded groups diverge for {:?}",
        program
    );
    prop_assert_eq!(
        &fold_batch.raw,
        &fold_single.raw,
        "folding streaming rows diverge for {:?}",
        program
    );
    prop_assert_eq!(
        bag_fold.to_bytes(),
        bag_single.to_bytes(),
        "folding baggage diverges for {:?}",
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
    /// (including the factorized join and partial aggregation) must
    /// reproduce one-at-a-time execution exactly.
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
/// `query`, comparing emitted rows and final baggage — the VM twice,
/// through a per-row sink and through a folding one (what an agent's sink
/// is, and what lets a compiled join take the factorized shape).
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
    let mut bag_fold = Baggage::new();
    let mut tree_raw: Vec<(QueryId, Tuple)> = Vec::new();
    let mut tree_grouped: Vec<(QueryId, GroupKey, Vec<Value>)> = Vec::new();
    let mut sink = CollectSink::default();
    let mut sink_fold = FoldSink::default();
    let mut vm = Vm::new();
    let mut vm_fold = Vm::new();

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
            let fs = vm_fold.run(lowered, &exports, &mut bag_fold, &mut sink_fold);
            prop_assert_eq!(
                (fs.packed, fs.unpacked, fs.emitted),
                (vs.packed, vs.unpacked, vs.emitted),
                "folding stats diverge on {} at event {}",
                query,
                i
            );
            prop_assert_eq!(
                vm_fold.ops(),
                vm.ops(),
                "folding op metering diverges on {} at event {}",
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
    // The reference rows, folded the way a per-row sink would fold them.
    let mut tree_fold = FoldSink::default();
    for (q, key, args) in &tree_grouped {
        tree_fold.grouped_row(*q, &code.output, key.clone(), args);
    }
    prop_assert_eq!(
        &sink_fold.raw,
        &tree_raw,
        "folding streaming rows diverge on {}",
        query
    );
    prop_assert_eq!(
        sink_fold.finished(),
        tree_fold.finished(),
        "folded groups diverge on {}",
        query
    );
    prop_assert_eq!(
        bag_fold.to_bytes(),
        bag_tree.to_bytes(),
        "folding baggage diverges on {}",
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
