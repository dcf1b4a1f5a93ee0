//! Compiler tests: the paper's queries Q1–Q9 compile to the documented
//! advice shapes, and the Table 3 rewrites behave as specified.

use pivot_baggage::{PackMode, QueryId};
use pivot_model::AggFunc;
use pivot_query::advice::ColumnRef;
use pivot_query::compile::plan_query;
use pivot_query::plan::StageSink;
use pivot_query::{
    compile, parse, AdviceOp, CompileError, CompiledQuery, Options, Query, Resolver, TemporalFilter,
};

/// A resolver over a fixed tracepoint table plus registered queries.
struct TestResolver {
    queries: Vec<(String, Query)>,
}

impl TestResolver {
    fn new() -> TestResolver {
        TestResolver {
            queries: Vec::new(),
        }
    }

    fn with_query(mut self, name: &str, text: &str) -> TestResolver {
        self.queries.push((name.to_owned(), parse(text).unwrap()));
        self
    }
}

const DEFAULT_EXPORTS: [&str; 5] = ["host", "timestamp", "procid", "procname", "tracepoint"];

impl Resolver for TestResolver {
    fn tracepoint_exports(&self, name: &str) -> Option<Vec<String>> {
        let extra: &[&str] = match name {
            "DataNodeMetrics.incrBytesRead" => &["delta"],
            "ClientProtocols" => &["procName"],
            "DN.DataTransferProtocol" => &["op", "size"],
            "NN.GetBlockLocations" => &["src", "replicas"],
            "StressTest.DoNextOp" => &["op"],
            "SendResponse" => &["time"],
            "ReceiveRequest" => &["time"],
            "JobComplete" => &["id"],
            "RPCs" | "DataRPCs" | "ControlRPCs" => &["size", "user", "cost"],
            _ => return None,
        };
        Some(
            DEFAULT_EXPORTS
                .iter()
                .chain(extra.iter())
                .map(|s| (*s).to_owned())
                .collect(),
        )
    }

    fn query_ast(&self, name: &str) -> Option<Query> {
        self.queries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, q)| q.clone())
    }
}

fn compile_ok(text: &str) -> CompiledQuery {
    compile(
        text,
        "test",
        QueryId(1),
        &TestResolver::new(),
        Options::default(),
    )
    .unwrap()
}

const Q2: &str = "From incr In DataNodeMetrics.incrBytesRead
    Join cl In First(ClientProtocols) On cl -> incr
    GroupBy cl.procName
    Select cl.procName, SUM(incr.delta)";

#[test]
fn q1_compiles_to_single_emit_stage() {
    let cq = compile_ok(
        "From incr In DataNodeMetrics.incrBytesRead
         GroupBy incr.host
         Select incr.host, SUM(incr.delta)",
    );
    assert_eq!(cq.advice.len(), 1);
    let prog = &cq.advice[0];
    assert!(!prog.packs());
    assert!(prog.emits());
    // Observe only what the query references.
    match &prog.ops[0] {
        AdviceOp::Observe { fields, .. } => {
            let mut f = fields.clone();
            f.sort();
            assert_eq!(f, vec!["delta", "host"]);
        }
        op => panic!("expected Observe first, got {op:?}"),
    }
}

#[test]
fn q2_compiles_to_paper_advice_a1_a2() {
    // Paper §3: A1 = OBSERVE procName; PACK-FIRST procName.
    //           A2 = OBSERVE delta; UNPACK procName; EMIT procName, SUM(delta).
    let cq = compile_ok(Q2);
    assert_eq!(cq.advice.len(), 2);
    let a1 = &cq.advice[0];
    assert_eq!(a1.tracepoints, vec!["ClientProtocols"]);
    assert_eq!(a1.ops.len(), 2);
    match &a1.ops[0] {
        AdviceOp::Observe { fields, .. } => {
            assert_eq!(fields, &["procName"]);
        }
        op => panic!("unexpected {op:?}"),
    }
    match &a1.ops[1] {
        AdviceOp::Pack { mode, names, .. } => {
            assert_eq!(*mode, PackMode::First(1));
            assert_eq!(names, &["cl.procName"]);
        }
        op => panic!("unexpected {op:?}"),
    }
    let a2 = &cq.advice[1];
    assert_eq!(a2.tracepoints, vec!["DataNodeMetrics.incrBytesRead"]);
    assert!(matches!(&a2.ops[0], AdviceOp::Observe { fields, .. } if fields == &["delta"]));
    assert!(matches!(&a2.ops[1], AdviceOp::Unpack { .. }));
    match &a2.ops[2] {
        AdviceOp::Emit { spec, .. } => {
            assert_eq!(spec.key_names, vec!["cl.procName"]);
            assert_eq!(spec.aggs.len(), 1);
            assert_eq!(spec.aggs[0], AggFunc::Sum);
            assert_eq!(spec.column_names(), vec!["cl.procName", "SUM(incr.delta)"]);
        }
        op => panic!("unexpected {op:?}"),
    }
}

#[test]
fn q7_chain_compiles_in_causal_order() {
    let cq = compile_ok(
        "From DNop In DN.DataTransferProtocol
         Join getloc In NN.GetBlockLocations On getloc -> DNop
         Join st In StressTest.DoNextOp On st -> getloc
         Where st.host != DNop.host
         GroupBy DNop.host, getloc.replicas
         Select DNop.host, getloc.replicas, COUNT",
    );
    assert_eq!(cq.advice.len(), 3);
    assert_eq!(cq.advice[0].tracepoints, vec!["StressTest.DoNextOp"]);
    assert_eq!(cq.advice[1].tracepoints, vec!["NN.GetBlockLocations"]);
    assert_eq!(cq.advice[2].tracepoints, vec!["DN.DataTransferProtocol"]);
    // st.host must flow through the getloc pack to reach the Where at DNop.
    let getloc_pack = cq.advice[1]
        .ops
        .iter()
        .find_map(|op| match op {
            AdviceOp::Pack { names, .. } => Some(names.clone()),
            _ => None,
        })
        .expect("getloc packs");
    assert!(
        getloc_pack.iter().any(|n| n == "st.host"),
        "st.host missing from {getloc_pack:?}"
    );
    assert!(getloc_pack.iter().any(|n| n == "getloc.replicas"));
}

#[test]
fn q8_raw_latency_is_streaming() {
    let cq = compile_ok(
        "From response In SendResponse
         Join request In MostRecent(ReceiveRequest) On request -> response
         Select response.time - request.time",
    );
    assert!(cq.output.streaming);
    assert_eq!(cq.advice.len(), 2);
    match &cq.advice[0].ops[1] {
        AdviceOp::Pack { mode, .. } => {
            assert_eq!(*mode, PackMode::Recent(1));
        }
        op => panic!("unexpected {op:?}"),
    }
}

#[test]
fn q9_inlines_referenced_query_and_pushes_average() {
    let resolver = TestResolver::new().with_query(
        "Q8",
        "From response In SendResponse
         Join request In MostRecent(ReceiveRequest) On request -> response
         Select response.time - request.time",
    );
    let cq = compile(
        "From job In JobComplete
         Join latencyMeasurement In Q8 On latencyMeasurement -> job
         Select job.id, AVERAGE(latencyMeasurement)",
        "Q9",
        QueryId(4),
        &resolver,
        Options::default(),
    )
    .unwrap();
    // Three stages: ReceiveRequest, SendResponse (inlined Q8), JobComplete.
    assert_eq!(cq.advice.len(), 3);
    assert_eq!(cq.advice[0].tracepoints, vec!["ReceiveRequest"]);
    assert_eq!(cq.advice[1].tracepoints, vec!["SendResponse"]);
    assert_eq!(cq.advice[2].tracepoints, vec!["JobComplete"]);
    // The AVERAGE is pushed into the SendResponse pack: the baggage carries
    // one (sum, count) state instead of one tuple per request RPC.
    match cq.advice[1]
        .ops
        .iter()
        .find(|op| matches!(op, AdviceOp::Pack { .. }))
        .unwrap()
    {
        AdviceOp::Pack { mode, .. } => match mode {
            PackMode::GroupAgg { key_len, aggs } => {
                assert_eq!(*key_len, 0);
                assert_eq!(aggs, &vec![AggFunc::Average]);
            }
            other => panic!("expected GroupAgg, got {other:?}"),
        },
        _ => unreachable!(),
    }
}

#[test]
fn count_pushdown_over_single_join() {
    // Q4-style: COUNT and all keys from both sides; aggregation over the
    // packed side pushes the count into the baggage.
    let cq = compile_ok(
        "From getloc In NN.GetBlockLocations
         Join st In First(StressTest.DoNextOp) On st -> getloc
         GroupBy st.host, getloc.src
         Select st.host, getloc.src, COUNT",
    );
    // With a temporal filter the pack stays FIRST (already bounded).
    match &cq.advice[0].ops[1] {
        AdviceOp::Pack { mode, .. } => {
            assert_eq!(*mode, PackMode::First(1));
        }
        op => panic!("unexpected {op:?}"),
    }

    // Without the temporal filter the COUNT is pushed down as GroupAgg.
    let cq = compile_ok(
        "From getloc In NN.GetBlockLocations
         Join st In StressTest.DoNextOp On st -> getloc
         GroupBy st.host, getloc.src
         Select st.host, getloc.src, COUNT",
    );
    match &cq.advice[0].ops[1] {
        AdviceOp::Pack { mode, names, .. } => match mode {
            PackMode::GroupAgg { key_len, aggs } => {
                assert_eq!(*key_len, 1, "st.host is the pack-side key");
                assert_eq!(aggs, &vec![AggFunc::Count]);
                assert!(names[0].contains("st.host"));
            }
            other => panic!("expected GroupAgg, got {other:?}"),
        },
        op => panic!("unexpected {op:?}"),
    }
}

#[test]
fn mixed_side_aggregates_do_not_push() {
    // SUM over the emit side forbids pushing the pack-side COUNT (the
    // multiplicities would diverge).
    let cq = compile_ok(
        "From incr In DataNodeMetrics.incrBytesRead
         Join cl In ClientProtocols On cl -> incr
         GroupBy cl.procName
         Select cl.procName, SUM(incr.delta), COUNT",
    );
    match &cq.advice[0].ops[1] {
        AdviceOp::Pack { mode, .. } => assert_eq!(*mode, PackMode::All),
        op => panic!("unexpected {op:?}"),
    }
}

#[test]
fn unoptimized_packs_everything_and_defers_filters() {
    let ast = parse(
        "From DNop In DN.DataTransferProtocol
         Join st In StressTest.DoNextOp On st -> DNop
         Where st.host != DNop.host
         GroupBy DNop.host
         Select DNop.host, COUNT",
    )
    .unwrap();
    let resolver = TestResolver::new();
    let opt = plan_query(&ast, &resolver, Options::default()).unwrap();
    let unopt = plan_query(&ast, &resolver, Options::unoptimized()).unwrap();

    // Optimized: the st stage packs only st.host (needed raw by the Where
    // at the emit stage) plus the pushed-down COUNT state.
    let st_opt = &opt.stages[0];
    match &st_opt.sink {
        StageSink::Pack { names, mode, .. } => {
            assert_eq!(names, &["st.host", "st.$agg0"]);
            assert!(matches!(mode, PackMode::GroupAgg { key_len: 1, .. }));
        }
        s => panic!("unexpected {s:?}"),
    }

    // Unoptimized: the st stage packs all its exports.
    let st_unopt = &unopt.stages[0];
    match &st_unopt.sink {
        StageSink::Pack { names, mode, .. } => {
            assert!(names.len() >= 5, "only packed {names:?}");
            assert_eq!(*mode, PackMode::All);
        }
        s => panic!("unexpected {s:?}"),
    }
    assert!(unopt.packed_columns() > opt.packed_columns());
    // Filters all land at the emit stage either way here, since the Where
    // spans both sides.
    assert_eq!(opt.stages[1].filters.len(), 1);
    assert_eq!(unopt.stages[1].filters.len(), 1);
}

#[test]
fn where_pushdown_runs_at_earliest_covering_stage() {
    let cq = compile_ok(
        "From DNop In DN.DataTransferProtocol
         Join st In StressTest.DoNextOp On st -> DNop
         Where st.op == \"read\"
         GroupBy DNop.host
         Select DNop.host, COUNT",
    );
    // The Where only references st → evaluated at the st stage, pre-pack.
    let st = &cq.advice[0];
    assert!(st
        .ops
        .iter()
        .any(|op| matches!(op, AdviceOp::Filter { .. })));
    let emit = &cq.advice[1];
    assert!(!emit
        .ops
        .iter()
        .any(|op| matches!(op, AdviceOp::Filter { .. })));
}

#[test]
fn union_sources_weave_everywhere() {
    let cq = compile_ok("From e In DataRPCs, ControlRPCs Select COUNT");
    assert_eq!(cq.advice.len(), 1);
    assert_eq!(cq.advice[0].tracepoints.len(), 2);
}

#[test]
fn select_columns_follow_select_order() {
    let cq = compile_ok("From e In RPCs GroupBy e.user Select SUM(e.cost), e.user");
    assert_eq!(
        cq.output.columns,
        vec![ColumnRef::Agg(0), ColumnRef::Key(0)]
    );
}

#[test]
fn hidden_group_keys_group_but_do_not_display() {
    let cq = compile_ok("From e In RPCs GroupBy e.user Select SUM(e.cost)");
    assert_eq!(cq.output.key_names.len(), 1);
    assert_eq!(cq.output.columns, vec![ColumnRef::Agg(0)]);
}

#[test]
fn errors_are_reported() {
    let r = TestResolver::new();
    let must_fail =
        |text: &str| compile(text, "t", QueryId(9), &r, Options::default()).unwrap_err();
    assert!(matches!(
        must_fail("From e In NoSuchTracepoint Select COUNT"),
        CompileError::UnknownTracepoint(_)
    ));
    assert!(matches!(
        must_fail("From e In RPCs Select f.size"),
        CompileError::UnknownField(_)
    ));
    assert!(matches!(
        must_fail("From e In RPCs Select e.bogus"),
        CompileError::UnknownField(_) | CompileError::UnknownExport { .. }
    ));
    assert!(matches!(
        must_fail("From e In RPCs Join e In RPCs On e -> e Select COUNT"),
        CompileError::DuplicateAlias(_) | CompileError::BadJoin(_)
    ));
    assert!(matches!(
        must_fail("From e In RPCs Join x In RPCs On e -> x Select COUNT"),
        CompileError::BadJoin(_)
    ));
    assert!(matches!(
        must_fail("From e In RPCs Select"),
        CompileError::Parse(_)
    ));
}

#[test]
fn temporal_filters_become_pack_modes() {
    for (text, want) in [
        ("First(RPCs)", PackMode::First(1)),
        ("FirstN(3, RPCs)", PackMode::First(3)),
        ("MostRecent(RPCs)", PackMode::Recent(1)),
        ("MostRecentN(4, RPCs)", PackMode::Recent(4)),
    ] {
        let cq = compile_ok(&format!(
            "From e In DataRPCs
             Join f In {text} On f -> e
             Select e.user, f.user"
        ));
        match &cq.advice[0].ops[1] {
            AdviceOp::Pack { mode, .. } => assert_eq!(mode, &want),
            op => panic!("unexpected {op:?}"),
        }
    }
}

#[test]
fn unoptimized_applies_temporal_filter_at_unpack() {
    let ast = parse(
        "From e In DataRPCs
         Join f In MostRecent(RPCs) On f -> e
         Select e.user, f.user",
    )
    .unwrap();
    let plan = plan_query(&ast, &TestResolver::new(), Options::unoptimized()).unwrap();
    let emit = plan.stages.last().unwrap();
    assert_eq!(
        emit.unpacks[0].post_filter,
        Some(TemporalFilter::MostRecent(1))
    );
    match &plan.stages[0].sink {
        StageSink::Pack { mode, .. } => assert_eq!(*mode, PackMode::All),
        s => panic!("unexpected {s:?}"),
    }
}

#[test]
fn slot_ids_are_disjoint_per_query() {
    let a = CompiledQuery::slot_id(QueryId(1), 0);
    let b = CompiledQuery::slot_id(QueryId(1), 1);
    let c = CompiledQuery::slot_id(QueryId(2), 0);
    assert_ne!(a, b);
    assert_ne!(a, c);
    assert_ne!(QueryId(1), a);
}
