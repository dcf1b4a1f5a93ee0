//! Differential check over the paper's experiment queries (Q1–Q7 and the
//! Figure 9 decomposition): compiled with and without the Table 3
//! rewrites, an identical execution must yield identical results — and
//! the static verifier's baggage bound for the optimized plan must never
//! exceed the unoptimized one.

use std::sync::Arc;

use pivot_analyze::{Analyzer, Code};
use pivot_core::bus::LocalBus;
use pivot_core::{Agent, Frontend, ProcessInfo, QueryBudget, QueryHandle};
use pivot_hadoop::tracepoints;
use pivot_model::Value;
use pivot_workloads::experiments::fig1::{Q1, Q2};
use pivot_workloads::experiments::fig8::{Q3, Q4, Q5, Q6, Q7};
use pivot_workloads::experiments::fig9::DECOMP_QUERY;

const QUERIES: [(&str, &str); 8] = [
    ("Q1", Q1),
    ("Q2", Q2),
    ("Q3", Q3),
    ("Q4", Q4),
    ("Q5", Q5),
    ("Q6", Q6),
    ("Q7", Q7),
    ("decomp", DECOMP_QUERY),
];

fn make_frontend(optimize: bool) -> Frontend {
    let mut fe = if optimize {
        Frontend::new()
    } else {
        Frontend::new_unoptimized()
    };
    tracepoints::define_all(&mut fe);
    fe
}

fn make_bus() -> LocalBus {
    let mut bus = LocalBus::new();
    for (host, name) in [
        ("host-A", "StressTest"),
        ("host-B", "StressTest"),
        ("namenode", "NameNode"),
        ("host-A", "DataNode"),
        ("host-B", "DataNode"),
        ("host-A", "RegionServer"),
    ] {
        bus.register(Arc::new(Agent::new(ProcessInfo {
            host: host.into(),
            procid: 1,
            procname: name.into(),
        })));
    }
    bus
}

/// Hop baggage across a (simulated) process boundary, the way an RPC
/// envelope would carry it.
fn hop(bag: &mut pivot_baggage::Baggage) -> pivot_baggage::Baggage {
    pivot_baggage::Baggage::try_from_bytes(&bag.to_bytes()).expect("own bytes decode")
}

/// Replays a fixed multi-system request trace: every request starts at a
/// stress client, resolves block locations at the NameNode, reads from a
/// DataNode, and finishes with an HBase response carrying component
/// timings. Host choices make `st.host == DNop.host` true for some
/// requests (exercising Q7's Where) and false for others.
fn replay(bus: &LocalBus) {
    let [client_a, client_b, namenode, dn_a, dn_b, rs] = bus.agents() else {
        panic!("unexpected agent count");
    };
    for req in 0u64..12 {
        let client = if req % 3 == 0 { client_a } else { client_b };
        let dn = if req % 2 == 0 { dn_a } else { dn_b };
        let t0 = req * 1_000;

        let mut bag = pivot_baggage::Baggage::new();
        client.invoke(
            "ClientProtocols",
            &mut bag,
            t0,
            &[("procName", Value::str("StressTest"))],
        );
        client.invoke(
            "StressTest.DoNextOp",
            &mut bag,
            t0 + 1,
            &[("op", Value::str(if req % 4 == 0 { "open" } else { "read" }))],
        );

        let mut bag = hop(&mut bag);
        namenode.invoke(
            "NN.GetBlockLocations",
            &mut bag,
            t0 + 10,
            &[
                ("src", Value::str(format!("data/file-{}", req % 5))),
                ("replicas", Value::str("host-A,host-B")),
                ("lockNanos", Value::I64(50 + req as i64)),
            ],
        );
        namenode.invoke(
            "RS.ReceiveRequest",
            &mut bag,
            t0 + 12,
            &[("op", Value::str("get"))],
        );

        let mut bag = hop(&mut bag);
        dn.invoke(
            "DN.DataTransferProtocol",
            &mut bag,
            t0 + 20,
            &[
                ("op", Value::str("READ_BLOCK")),
                ("size", Value::I64(4096 * (1 + req as i64 % 3))),
            ],
        );
        dn.invoke(
            "DataNodeMetrics.incrBytesRead",
            &mut bag,
            t0 + 25,
            &[("delta", Value::I64(100 * (req as i64 + 1)))],
        );
        dn.invoke(
            "DN.Transfer",
            &mut bag,
            t0 + 30,
            &[
                ("xferNanos", Value::I64(900)),
                ("blockedNanos", Value::I64(40 + req as i64)),
                ("gcNanos", Value::I64(0)),
            ],
        );

        let mut bag = hop(&mut bag);
        rs.invoke(
            "RS.SendResponse",
            &mut bag,
            t0 + 40,
            &[
                ("op", Value::str("get")),
                ("queueNanos", Value::I64(10)),
                ("processNanos", Value::I64(25 + req as i64)),
                ("gcNanos", Value::I64(0)),
            ],
        );
    }
}

fn run_side(optimize: bool) -> (Frontend, Vec<QueryHandle>) {
    let mut fe = make_frontend(optimize);
    let bus = make_bus();
    let handles: Vec<QueryHandle> = QUERIES
        .iter()
        .map(|(name, text)| {
            fe.install_named(name, text)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        })
        .collect();
    for cmd in fe.drain_commands() {
        bus.broadcast(&cmd);
    }
    replay(&bus);
    bus.pump(1_000_000_000, &mut fe);
    (fe, handles)
}

/// Like [`run_side`] with optimization on, but with the overload
/// governor fully engaged: statically-derived budgets are pushed at
/// install (`set_enforce_budgets`), then generous finite budgets force
/// every agent onto the charging path — which must never trip, shed, or
/// perturb a single row on this workload.
fn run_side_enforced() -> (Frontend, Vec<QueryHandle>) {
    let mut fe = make_frontend(true);
    fe.set_enforce_budgets(true);
    let bus = make_bus();
    let handles: Vec<QueryHandle> = QUERIES
        .iter()
        .map(|(name, text)| {
            fe.install_named(name, text)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        })
        .collect();
    let generous = QueryBudget {
        tuples_per_window: 1 << 40,
        ops_per_window: 1 << 50,
        bytes_per_window: 1 << 50,
        window_ns: 1_000_000_000,
        backoff_base_windows: 1,
        max_backoff_doublings: 0,
    };
    for h in &handles {
        fe.set_budget(h, generous);
    }
    for cmd in fe.drain_commands() {
        bus.broadcast(&cmd);
    }
    replay(&bus);
    bus.pump(1_000_000_000, &mut fe);
    (fe, handles)
}

#[test]
fn optimized_and_unoptimized_agree_on_experiment_queries() {
    let (opt_fe, opt_handles) = run_side(true);
    let (unopt_fe, unopt_handles) = run_side(false);

    for ((name, _), (ho, hu)) in QUERIES.iter().zip(opt_handles.iter().zip(&unopt_handles)) {
        let opt = opt_fe.results(ho);
        let unopt = unopt_fe.results(hu);
        assert_eq!(opt.rows(), unopt.rows(), "{name}: grouped rows differ");
        assert_eq!(
            opt.raw_rows(),
            unopt.raw_rows(),
            "{name}: streaming rows differ"
        );
        assert!(!opt.is_empty(), "{name}: trace produced no results");
    }
}

#[test]
fn enforced_generous_budgets_change_no_results() {
    let (base_fe, base_handles) = run_side(true);
    let (gov_fe, gov_handles) = run_side_enforced();

    for ((name, _), (hb, hg)) in QUERIES.iter().zip(base_handles.iter().zip(&gov_handles)) {
        let base = base_fe.results(hb);
        let gov = gov_fe.results(hg);
        assert_eq!(
            base.rows(),
            gov.rows(),
            "{name}: grouped rows differ under the governor"
        );
        assert_eq!(
            base.raw_rows(),
            gov.raw_rows(),
            "{name}: streaming rows differ under the governor"
        );
        assert!(
            gov.throttles().is_empty(),
            "{name}: a generous budget tripped the breaker"
        );
        let loss = gov.loss();
        assert_eq!(loss.tuples_shed, 0, "{name}: governor shed tuples");
        assert_eq!(
            base.loss().tuples_delivered,
            loss.tuples_delivered,
            "{name}: delivered-tuple counts diverge"
        );
    }
}

#[test]
fn verifier_accepts_experiment_queries_and_bounds_are_monotone() {
    let fe = make_frontend(true);
    let analyzer = Analyzer::new(&fe);
    for (name, text) in QUERIES {
        let (a, _) = analyzer.analyze(text, name);
        assert!(
            !a.has_errors(),
            "{name}: verifier rejected an experiment query: {:?}",
            a.diagnostics
        );
        // No hindsight-trigger false positives: none of the paper's
        // queries carry a `Trigger` clause, so PT010 must never fire.
        assert!(
            !a.has_code(Code::TriggerUnbounded),
            "{name}: spurious PT010: {:?}",
            a.diagnostics
        );
        let opt = a.optimized_cost.expect("optimized plan");
        let unopt = a.unoptimized_cost.expect("unoptimized plan");
        assert!(
            opt.total_bytes.le(unopt.total_bytes),
            "{name}: optimized bound {} exceeds unoptimized {}",
            opt.total_bytes,
            unopt.total_bytes
        );
    }
}
