//! End-to-end tests of the live runtime: a real multi-threaded KV
//! service, real TCP for both the data path and the Pivot Tracing bus,
//! and queries installed/uninstalled while load is running.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pivot_core::frontend::InstallError;
use pivot_core::ProcessInfo;
use pivot_live::service::{define_kv_tracepoints, KvClient, KvServer, LoadGen};
use pivot_live::{LiveAgent, LiveFrontend};
use pivot_model::Value;

const Q1_LIVE: &str = "From exec In KvShard.execute \
     Join req In First(KvClient.issueRequest) On req -> exec \
     GroupBy req.client \
     Select req.client, COUNT, SUM(exec.bytes)";

fn info(procname: &str, procid: u64) -> ProcessInfo {
    ProcessInfo {
        host: "localhost".into(),
        procid,
        procname: procname.into(),
    }
}

/// A full live deployment inside one test: frontend + TCP bus, a KV
/// server process agent, and a client process agent driving load.
struct Stack {
    fe: LiveFrontend,
    server_live: LiveAgent,
    client_live: LiveAgent,
    server: KvServer,
    load: LoadGen,
}

impl Stack {
    fn start(num_shards: usize, num_clients: usize) -> Stack {
        let mut fe = LiveFrontend::start().expect("frontend starts");
        define_kv_tracepoints(fe.frontend_mut());
        let interval = Duration::from_millis(20);
        let server_live =
            LiveAgent::connect(fe.addr(), info("kvserver", 1), interval).expect("server agent");
        let client_live =
            LiveAgent::connect(fe.addr(), info("kvclient", 2), interval).expect("client agent");
        assert!(
            fe.wait_for_agents(2, Duration::from_secs(10)),
            "both agents register"
        );
        let server =
            KvServer::start(num_shards, Arc::clone(server_live.agent())).expect("kv server starts");
        let load = LoadGen::start(server.addr(), num_clients, Arc::clone(client_live.agent()))
            .expect("load starts");
        Stack {
            fe,
            server_live,
            client_live,
            server,
            load,
        }
    }

    fn stop(self) {
        self.load.stop();
        self.server.shutdown();
        self.server_live.shutdown();
        self.client_live.shutdown();
    }
}

#[test]
fn q1_streams_grouped_results_over_tcp() {
    let mut stack = Stack::start(4, 3);
    let q1 = stack.fe.install(Q1_LIVE).expect("Q1 installs");

    assert!(
        stack.fe.wait_for_rows(&q1, 2, Duration::from_secs(30)),
        "grouped rows from at least two clients arrive over TCP"
    );

    let results = stack.fe.results(&q1).clone();
    let rows = results.rows();
    assert!(rows.len() >= 2, "per-client groups: {rows:?}");
    for row in &rows {
        // Select order: client, COUNT, SUM(bytes).
        let client = match &row.values[0] {
            Value::Str(s) => s.to_string(),
            other => panic!("group key should be a client name, got {other:?}"),
        };
        assert!(client.starts_with("client-"), "key is {client}");
        let count = row.values[1].as_f64().expect("COUNT is numeric");
        assert!(count >= 1.0);
    }
    // Streaming: results arrive across multiple report intervals, each
    // timestamped with the agent's wall clock.
    assert!(
        !results.series().is_empty(),
        "per-interval series is populated"
    );

    // Uninstall propagates over TCP: agents unweave.
    stack.fe.uninstall(&q1);
    let deadline = Instant::now() + Duration::from_secs(10);
    while !stack.server_live.agent().registry().is_idle() {
        assert!(Instant::now() < deadline, "server agent unweaves");
        std::thread::sleep(Duration::from_millis(5));
    }
    stack.stop();
}

#[test]
fn late_joining_agent_receives_installed_queries() {
    let mut fe = LiveFrontend::start().expect("frontend starts");
    define_kv_tracepoints(fe.frontend_mut());
    let _q = fe.install(Q1_LIVE).expect("installs");

    // This agent connects *after* the install; the bus replays it.
    let late = LiveAgent::connect(fe.addr(), info("late", 9), Duration::from_millis(20))
        .expect("late agent connects");
    let deadline = Instant::now() + Duration::from_secs(10);
    while late.agent().registry().is_idle() {
        assert!(Instant::now() < deadline, "late joiner gets the query");
        std::thread::sleep(Duration::from_millis(5));
    }
    late.shutdown();
}

#[test]
fn survives_install_uninstall_churn_under_load() {
    let mut stack = Stack::start(2, 2);
    let ops_before = stack.load.ops_done();

    for round in 0..8 {
        let name = format!("churn-{round}");
        let handle = stack
            .fe
            .install_named(&name, Q1_LIVE)
            .expect("install during load");
        std::thread::sleep(Duration::from_millis(15));
        stack.fe.poll();
        stack.fe.uninstall(&handle);
    }

    // The service kept serving throughout the churn.
    let deadline = Instant::now() + Duration::from_secs(20);
    while stack.load.ops_done() <= ops_before {
        assert!(Instant::now() < deadline, "load progressed during churn");
        std::thread::sleep(Duration::from_millis(5));
    }

    // After the churn a fresh install still works end to end.
    let q = stack.fe.install(Q1_LIVE).expect("post-churn install");
    assert!(
        stack.fe.wait_for_rows(&q, 1, Duration::from_secs(30)),
        "results still flow after churn"
    );
    stack.stop();
}

#[test]
fn baggage_rides_kv_request_headers() {
    // No query installed: a client's baggage still round-trips through
    // the server (empty baggage = 0 bytes on the wire, paper §6.3), and
    // with a query installed the client-side pack survives the socket
    // hop and shard handoff to reach KvShard.execute.
    let mut stack = Stack::start(2, 1);
    let q = stack.fe.install(Q1_LIVE).expect("installs");
    // The weave command travels asynchronously; wait until both process
    // agents have applied it before driving the traced request.
    let deadline = Instant::now() + Duration::from_secs(10);
    while stack.client_live.agent().registry().is_idle()
        || stack.server_live.agent().registry().is_idle()
    {
        assert!(Instant::now() < deadline, "agents weave the query");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Drive one request from this test thread with its own baggage.
    let scope = pivot_live::attach(pivot_baggage::Baggage::new());
    pivot_live::tracepoint(
        stack.client_live.agent(),
        "KvClient.issueRequest",
        &[
            ("client", Value::str("client-test")),
            ("op", Value::str("put")),
            ("key", Value::str("e2e-key")),
        ],
    );
    let mut kv = KvClient::connect(stack.server.addr()).expect("client connects");
    kv.put("e2e-key", b"payload").expect("put ok");
    drop(scope);

    stack.server_live.flush_now();
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut seen = false;
    while !seen {
        assert!(Instant::now() < deadline, "client-test group appears");
        std::thread::sleep(Duration::from_millis(10));
        seen = stack
            .fe
            .results(&q)
            .rows()
            .iter()
            .any(|r| matches!(&r.values[0], Value::Str(s) if s.as_ref() == "client-test"));
    }
    stack.stop();
}

#[test]
fn verifier_rejects_ill_typed_live_query_before_broadcast() {
    let mut fe = LiveFrontend::start().expect("frontend starts");
    define_kv_tracepoints(fe.frontend_mut());
    let agent = LiveAgent::connect(fe.addr(), info("kvserver", 1), Duration::from_millis(20))
        .expect("agent connects");
    assert!(fe.wait_for_agents(1, Duration::from_secs(10)));

    // Compiles but can never evaluate: `&&` over a number. The PR-1
    // static verifier rejects it at install time...
    let err = fe
        .install(
            "From exec In KvShard.execute \
             Where exec.op && 5 \
             Select COUNT",
        )
        .expect_err("verifier rejects");
    assert!(matches!(err, InstallError::Rejected(_)), "got {err:?}");

    // ...and nothing was broadcast: the agent never weaves.
    std::thread::sleep(Duration::from_millis(50));
    assert!(agent.agent().registry().is_idle());
    agent.shutdown();
}
