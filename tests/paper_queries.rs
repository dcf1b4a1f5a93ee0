//! Integration tests: every query printed in the paper (Q1–Q9) installs
//! and produces results against the simulated stack.

use pivot_tracing::hadoop::cluster::MB;
use pivot_tracing::model::Value;
use pivot_tracing::workloads::{clients, SimStack, StackConfig};

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
    let queries = [
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
    let queries = [
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
    let handles: Vec<_> = queries
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
