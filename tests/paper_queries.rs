//! Integration tests: every query printed in the paper (Q1–Q9) installs
//! and produces results against the simulated stack.

use pivot_analyze::Code;
use pivot_tracing::core::frontend::InstallError;
use pivot_tracing::core::{Command, Frontend};
use pivot_tracing::hadoop::cluster::MB;
use pivot_tracing::live::proto::{encode_message, Message};
use pivot_tracing::model::Value;
use pivot_tracing::query::CompileError;
use pivot_tracing::workloads::{clients, SimStack, StackConfig};

/// The paper's Q1–Q7 (§2, Table 4), as installed on the simulated stack.
const Q1_TO_Q7: [&str; 7] = [
    "From incr In DataNodeMetrics.incrBytesRead
     GroupBy incr.host Select incr.host, SUM(incr.delta)",
    "From incr In DataNodeMetrics.incrBytesRead
     Join cl In First(ClientProtocols) On cl -> incr
     GroupBy cl.procName Select cl.procName, SUM(incr.delta)",
    "From dnop In DN.DataTransferProtocol
     GroupBy dnop.host Select dnop.host, COUNT",
    "From getloc In NN.GetBlockLocations
     Join st In StressTest.DoNextOp On st -> getloc
     GroupBy st.host, getloc.src Select st.host, getloc.src, COUNT",
    "From getloc In NN.GetBlockLocations
     Join st In StressTest.DoNextOp On st -> getloc
     GroupBy st.host, getloc.replicas
     Select st.host, getloc.replicas, COUNT",
    "From DNop In DN.DataTransferProtocol
     Join st In StressTest.DoNextOp On st -> DNop
     GroupBy st.host, DNop.host Select st.host, DNop.host, COUNT",
    "From DNop In DN.DataTransferProtocol
     Join getloc In NN.GetBlockLocations On getloc -> DNop
     Join st In StressTest.DoNextOp On st -> getloc
     Where st.host != DNop.host
     GroupBy DNop.host, getloc.replicas
     Select DNop.host, getloc.replicas, COUNT",
];

fn stack_with_clients() -> SimStack {
    let stack = SimStack::build(StackConfig::small(11));
    clients::spawn_fsread(&stack, 0, "FSread4m", 4.0 * MB);
    clients::spawn_hget(&stack, 1);
    clients::spawn_stress(&stack, 2, 0);
    stack
}

#[test]
fn q1_per_host_throughput() {
    let stack = stack_with_clients();
    let q = stack
        .install(
            "From incr In DataNodeMetrics.incrBytesRead
             GroupBy incr.host
             Select incr.host, SUM(incr.delta)",
        )
        .unwrap();
    stack.run_for_secs(15.0);
    let rows = stack.results(&q).rows();
    assert!(!rows.is_empty());
    let total: f64 = rows
        .iter()
        .map(|r| r.values[1].as_f64().unwrap_or(0.0))
        .sum();
    assert!(total > 10.0 * MB, "only {total} bytes seen");
}

#[test]
fn q2_cross_tier_attribution_is_exact() {
    // Only HGet runs; every DataNode byte must attribute to it even
    // though HBase RegionServers are the direct HDFS clients.
    let stack = SimStack::build(StackConfig::small(5));
    clients::spawn_hget(&stack, 0);
    let q1 = stack
        .install(
            "From incr In DataNodeMetrics.incrBytesRead
             Select SUM(incr.delta)",
        )
        .unwrap();
    let q2 = stack
        .install(
            "From incr In DataNodeMetrics.incrBytesRead
             Join cl In First(ClientProtocols) On cl -> incr
             GroupBy cl.procName
             Select cl.procName, SUM(incr.delta)",
        )
        .unwrap();
    stack.run_for_secs(15.0);
    let all: f64 = stack
        .results(&q1)
        .rows()
        .iter()
        .map(|r| r.values[0].as_f64().unwrap_or(0.0))
        .sum();
    let rows = stack.results(&q2).rows();
    assert_eq!(rows.len(), 1, "expected a single client group: {rows:?}");
    assert_eq!(rows[0].values[0], Value::str("HGet"));
    let attributed = rows[0].values[1].as_f64().unwrap();
    assert!(all > 0.0);
    assert!(
        (attributed - all).abs() < 1e-6,
        "attributed {attributed} of {all} bytes"
    );
}

#[test]
fn q3_through_q7_install_and_report() {
    let stack = stack_with_clients();
    let queries = &Q1_TO_Q7[2..];
    let handles: Vec<_> = queries
        .iter()
        .map(|q| stack.install(q).expect("paper query compiles"))
        .collect();
    stack.run_for_secs(20.0);
    for (q, h) in queries.iter().zip(&handles) {
        assert!(
            !stack.results(h).rows().is_empty(),
            "no results for query: {q}"
        );
    }
}

#[test]
fn q8_q9_latency_and_job_aggregation() {
    let stack = SimStack::build(StackConfig::small(9));
    clients::spawn_hget(&stack, 0);
    clients::spawn_mrsort(&stack, 1, "MRsortTest", 0.5, 2);

    // Q8: per-request latency between request receipt and response.
    let q8_handle = stack
        .install_named(
            "Q8",
            "From response In RS.SendResponse
             Join request In MostRecent(RS.ReceiveRequest)
               On request -> response
             Select response.timestamp - request.timestamp",
        )
        .unwrap();

    // Q9: average of Q8's measurements per completed job. (The HGet
    // requests don't reach JobComplete; the sort job does.)
    let q9 = stack
        .install_named(
            "Q9",
            "From job In JobComplete
             Join latencyMeasurement In Q8 On latencyMeasurement -> job
             Select job.id, AVERAGE(latencyMeasurement)",
        )
        .unwrap();

    stack.run_for_secs(120.0);
    let rows = stack.results(&q9).rows();
    // The job itself performs no RegionServer requests, so Q9 legitimately
    // has nothing to aggregate — unless jobs and HBase interact. Accept
    // either zero rows or rows with a sane average; the key assertion is
    // that the query-over-query reference installed and ran.
    for r in &rows {
        assert_eq!(r.values[0], Value::str("MRsortTest"));
    }

    // Verify Q8 itself streamed latencies.
    let q8 = stack.results(&q8_handle);
    assert!(
        !q8.raw_rows().is_empty(),
        "Q8 produced no latency measurements"
    );
    for (_, row) in q8.raw_rows() {
        let lat = row.get(0).as_f64().unwrap_or(-1.0);
        assert!(lat >= 0.0, "negative latency {lat}");
    }
}

#[test]
fn union_sources_and_where_filters() {
    let stack = stack_with_clients();
    let q = stack
        .install(
            "From io In FileInputStream, FileOutputStream
             Where io.delta > 0
             GroupBy io.phase
             Select io.phase, COUNT, SUM(io.delta)",
        )
        .unwrap();
    stack.run_for_secs(10.0);
    let rows = stack.results(&q).rows();
    assert!(
        rows.iter().any(|r| r.values[0] == Value::str("HDFS")),
        "expected HDFS-phase IO rows: {rows:?}"
    );
}

/// FNV-1a, the digest the golden below is stated in.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Q1–Q7 installed together on one seeded stack: the result rows and the
/// advice-execution counters of every agent are a pure function of the
/// seed, so their digest pins the engine's results byte for byte. A
/// change that moves it changed what queries return (or how often advice
/// ran), not just how fast.
#[test]
fn q1_through_q7_results_and_agent_stats_match_the_golden() {
    let stack = stack_with_clients();
    let handles: Vec<_> = Q1_TO_Q7
        .iter()
        .map(|q| stack.install(q).expect("paper query compiles"))
        .collect();
    stack.run_for_secs(10.0);

    let mut text = String::new();
    for (i, h) in handles.iter().enumerate() {
        let rows = stack.results(h).rows();
        assert!(!rows.is_empty(), "Q{} returned nothing", i + 1);
        for r in rows {
            text.push_str(&format!("Q{} {:?}\n", i + 1, r.values));
        }
    }
    // Server agents by name (client agents are reachable only through
    // the cluster-wide totals, which close the list).
    let mut agents = vec![&stack.hdfs.namenode.agent, &stack.yarn.rm_agent];
    agents.extend(stack.hdfs.datanodes.iter().map(|d| &d.agent));
    agents.extend(stack.hbase.regionservers.iter().map(|r| &r.agent));
    agents.extend(stack.yarn.nodemanagers.iter().map(|n| &n.agent));
    for a in agents {
        let info = a.info();
        text.push_str(&format!(
            "{}/{} {:?}\n",
            info.host,
            info.procname,
            a.stats()
        ));
    }
    text.push_str(&format!("total {:?}\n", stack.cluster.agent_totals()));
    // Generated on the commit before scalar invoke became a batch of one.
    assert_eq!(
        fnv64(text.as_bytes()),
        0x51fe_0546_8f11_4c1c,
        "Q1-Q7 results or agent counters moved; they now read:\n{text}"
    );
}

/// A frontend over the simulated stack's tracepoint vocabulary.
fn frontend(optimize: bool) -> Frontend {
    let mut fe = if optimize {
        Frontend::new()
    } else {
        Frontend::new_unoptimized()
    };
    pivot_tracing::hadoop::tracepoints::define_all(&mut fe);
    fe
}

/// Q1–Q7 installed in order on one frontend, optimized and not: the
/// `Install` frame each ships to the agents, as `(length, FNV-1a)`. The
/// bytecode an agent runs is the bytecode the verifier checked, so a
/// change to how a query is compiled or checked moves no byte here.
#[test]
fn q1_through_q7_install_frames_match_the_golden() {
    // Generated on 419d714, before one install pipeline.
    const OPTIMIZED: [(usize, u64); 7] = [
        (114, 0xeee4_2e8c_5b9c_89aa),
        (166, 0xbc04_fd75_6b02_16a8),
        (93, 0x969c_7729_7334_0292),
        (169, 0x04d4_ee08_bfd4_6e65),
        (179, 0xe472_be94_4fac_9edc),
        (172, 0xc487_e2d5_ed15_189b),
        (259, 0xe626_bf78_d6ca_da18),
    ];
    const UNOPTIMIZED: [(usize, u64); 7] = [
        (151, 0xc3fd_f139_758c_92f0),
        (280, 0x99f3_b4de_8585_4736),
        (138, 0x40b6_483b_e866_26ea),
        (291, 0x9812_b2a0_54a8_608c),
        (296, 0xcbcc_4b98_fd1c_c96c),
        (278, 0x8ce2_1940_446b_6706),
        (493, 0x22fb_7269_3351_2f57),
    ];
    for (optimize, golden) in [(true, OPTIMIZED), (false, UNOPTIMIZED)] {
        let mut fe = frontend(optimize);
        let frames: Vec<(usize, u64)> = Q1_TO_Q7
            .iter()
            .map(|q| {
                let handle = fe.install(q).expect("paper query installs");
                let code = fe.code(&handle).expect("installed queries have code");
                let frame = encode_message(&Message::Command(Command::Install(code)));
                (frame.len(), fnv64(&frame))
            })
            .collect();
        assert_eq!(frames, golden, "optimize = {optimize}");
    }
}

/// Each class of install failure, from both kinds of frontend: text that
/// does not parse and a tracepoint nobody defined fail to compile; a
/// query that compiles but is ill-typed is rejected by the verifier.
#[test]
fn install_errors_keep_their_class() {
    for optimize in [true, false] {
        let mut fe = frontend(optimize);
        let parse = fe.install("From incr In Select");
        assert!(
            matches!(parse, Err(InstallError::Compile(CompileError::Parse(_)))),
            "{parse:?}"
        );
        let unknown = fe.install("From e In NoSuch.Tracepoint Select COUNT");
        assert!(
            matches!(
                unknown,
                Err(InstallError::Compile(CompileError::UnknownTracepoint(_)))
            ),
            "{unknown:?}"
        );
        let ill_typed = fe.install(
            "From incr In DataNodeMetrics.incrBytesRead
             Where incr.host && 5
             Select COUNT",
        );
        let Err(InstallError::Rejected(diags)) = ill_typed else {
            panic!("expected Rejected, got {ill_typed:?}");
        };
        assert!(
            diags
                .iter()
                .any(|d| d.code == Code::TypeError && d.is_error()),
            "{diags:?}"
        );
        // No failed install takes an id or leaves a command behind.
        assert!(fe.drain_commands().is_empty());
        let handle = fe
            .install(Q1_TO_Q7[0])
            .expect("Q1 installs after the failures");
        assert_eq!(handle.name, "Q1");
    }
}
