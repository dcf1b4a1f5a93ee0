//! Crash-recovery end-to-end tests: queries installed over real TCP, an
//! agent killed mid-workload (no `Goodbye`, no final flush), a
//! replacement re-syncing via the install epoch, and results converging
//! back to the fault-free baseline without double-counting.

use std::time::{Duration, Instant};

use pivot_baggage::Baggage;
use pivot_core::ProcessInfo;
use pivot_live::service::define_kv_tracepoints;
use pivot_live::{tracepoint, ConnStatus, LiveAgent, LiveFrontend, ReconnectPolicy};
use pivot_model::Value;

const Q1_LIVE: &str = "From exec In KvShard.execute \
     Join req In First(KvClient.issueRequest) On req -> exec \
     GroupBy req.client \
     Select req.client, COUNT, SUM(exec.bytes)";

const Q_SHARD: &str = "From exec In KvShard.execute \
     GroupBy exec.shard \
     Select exec.shard, COUNT";

fn info(procname: &str, procid: u64) -> ProcessInfo {
    ProcessInfo {
        host: "localhost".into(),
        procid,
        procname: procname.into(),
    }
}

/// Drives `n` KV requests through the client and server agents on this
/// thread, tagging each with `client` so runs are distinguishable in the
/// grouped output.
fn drive_requests(client: &LiveAgent, server: &LiveAgent, client_tag: &str, n: u64) {
    for i in 0..n {
        let scope = pivot_live::attach(Baggage::new());
        tracepoint(
            client.agent(),
            "KvClient.issueRequest",
            &[
                ("client", Value::str(client_tag)),
                ("op", Value::str("put")),
                ("key", Value::from(format!("key-{i:04}"))),
            ],
        );
        tracepoint(
            server.agent(),
            "KvShard.execute",
            &[
                ("shard", Value::I64((i % 4) as i64)),
                ("op", Value::str("put")),
                ("bytes", Value::I64(100)),
                ("hit", Value::Bool(true)),
            ],
        );
        drop(scope);
    }
}

/// Blocks until the Q1 group for `tag` reports exactly `count`, or panics
/// at the deadline.
fn wait_for_count(fe: &mut LiveFrontend, q: &pivot_core::QueryHandle, tag: &str, count: f64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let got = fe
            .results(q)
            .rows()
            .iter()
            .find(|r| matches!(&r.values[0], Value::Str(s) if s.as_ref() == tag))
            .and_then(|r| r.values[1].as_f64());
        if got == Some(count) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "group {tag} never reached COUNT {count} (last: {got:?})"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn killed_agent_resyncs_all_queries_within_one_epoch() {
    let mut fe = LiveFrontend::start().expect("frontend starts");
    define_kv_tracepoints(fe.frontend_mut());
    let q1 = fe.install_named("Q1", Q1_LIVE).expect("Q1 installs");
    let qs = fe
        .install_named("QSHARD", Q_SHARD)
        .expect("QSHARD installs");
    let epoch = fe.bus().epoch();

    let interval = Duration::from_millis(10);
    let client = LiveAgent::connect(fe.addr(), info("kvclient", 2), interval).expect("client");
    let server1 = LiveAgent::connect(fe.addr(), info("kvserver", 1), interval).expect("server");
    assert!(fe.wait_for_agents(2, Duration::from_secs(10)));
    // Both queries arrive in a single epoch-tagged Sync answering Hello.
    assert!(client.wait_for_epoch(epoch, Duration::from_secs(10)));
    assert!(server1.wait_for_epoch(epoch, Duration::from_secs(10)));
    assert!(server1.agent().registry().has_query(q1.id));
    assert!(server1.agent().registry().has_query(qs.id));

    // Phase 1: a tagged workload, flushed durably before the crash.
    drive_requests(&client, &server1, "client-pre", 40);
    server1.flush_now();
    wait_for_count(&mut fe, &q1, "client-pre", 40.0);

    // Crash: no Goodbye, no final flush. The server must tally a *lost*
    // peer, not an orderly close.
    server1.abort();
    assert_eq!(server1.status(), ConnStatus::Lost);
    assert!(server1.status().is_error());
    let deadline = Instant::now() + Duration::from_secs(10);
    while fe.bus().peers_lost() < 1 {
        assert!(Instant::now() < deadline, "lost peer is tallied");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Restart: same host/procid, fresh incarnation. One Hello/Sync round
    // trip re-installs the *entire* query set at the current epoch.
    let server2 = LiveAgent::connect(fe.addr(), info("kvserver", 1), interval).expect("restart");
    assert!(
        server2.wait_for_epoch(fe.bus().epoch(), Duration::from_secs(10)),
        "restarted agent re-syncs within one epoch"
    );
    assert!(server2.agent().registry().has_query(q1.id));
    assert!(server2.agent().registry().has_query(qs.id));

    // Phase 2: post-recovery workload converges to the fault-free
    // baseline — exactly 40 tuples, and the pre-crash group is intact
    // (nothing double-counted across the restart).
    drive_requests(&client, &server2, "client-post", 40);
    server2.flush_now();
    wait_for_count(&mut fe, &q1, "client-post", 40.0);
    wait_for_count(&mut fe, &q1, "client-pre", 40.0);
    assert_eq!(fe.bus().peers_closed(), 0);

    client.shutdown();
    server2.shutdown();
}

#[test]
fn severed_connection_reconnects_and_resyncs() {
    let mut fe = LiveFrontend::start().expect("frontend starts");
    define_kv_tracepoints(fe.frontend_mut());
    fe.install_named("Q1", Q1_LIVE).expect("installs");

    let agent = LiveAgent::connect_with(
        fe.addr(),
        info("kvserver", 1),
        Duration::from_millis(10),
        ReconnectPolicy::new(42),
    )
    .expect("agent connects");
    assert!(agent.wait_for_epoch(fe.bus().epoch(), Duration::from_secs(10)));

    // Cut every connection without a Goodbye (a network fault, not a
    // shutdown): the agent must notice and come back on its own.
    fe.bus().sever();
    let deadline = Instant::now() + Duration::from_secs(10);
    while agent.reconnects() < 1 || agent.status() != ConnStatus::Connected {
        assert!(
            Instant::now() < deadline,
            "agent reconnects (status {:?}, {} reconnects)",
            agent.status(),
            agent.reconnects()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(fe.bus().peers_lost(), 1);

    // The re-established session carries live commands again: a new
    // install reaches the reconnected agent.
    let qs = fe.install_named("QSHARD", Q_SHARD).expect("installs");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !agent.agent().registry().has_query(qs.id) {
        assert!(Instant::now() < deadline, "post-reconnect install arrives");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Orderly close from the agent side is *not* a lost peer.
    agent.shutdown();
    assert_eq!(agent.status(), ConnStatus::Closed);
    let deadline = Instant::now() + Duration::from_secs(10);
    while fe.bus().peers_closed() < 1 {
        assert!(Instant::now() < deadline, "orderly close is tallied");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(fe.bus().peers_lost(), 1, "shutdown never counts as lost");
}

const Q_RAW: &str = "From exec In KvShard.execute Select exec.shard, exec.bytes";

/// Fires `n` shard executions on this thread (no client half needed for
/// the single-tracepoint streaming query).
fn drive_shard(server: &LiveAgent, n: u64) {
    for i in 0..n {
        let scope = pivot_live::attach(Baggage::new());
        tracepoint(
            server.agent(),
            "KvShard.execute",
            &[
                ("shard", Value::I64((i % 4) as i64)),
                ("op", Value::str("put")),
                ("bytes", Value::I64((i % 7) as i64)),
                ("hit", Value::Bool(true)),
            ],
        );
        drop(scope);
    }
}

#[test]
fn long_partition_keeps_outage_buffering_bounded() {
    const CAP: usize = 32;
    let mut fe = LiveFrontend::start().expect("frontend starts");
    define_kv_tracepoints(fe.frontend_mut());
    let qr = fe.install_named("QRAW", Q_RAW).expect("QRAW installs");

    // A long first backoff guarantees a window in which the agent is
    // partitioned (flushes skipped, tuples accumulating locally).
    let policy = ReconnectPolicy {
        max_attempts: 20,
        base_delay: Duration::from_millis(400),
        max_delay: Duration::from_millis(400),
        jitter_seed: 7,
    };
    let server = LiveAgent::connect_with(
        fe.addr(),
        info("kvserver", 1),
        Duration::from_millis(5),
        policy,
    )
    .expect("server connects");
    server.agent().set_row_cap(CAP);
    assert!(server.wait_for_epoch(fe.bus().epoch(), Duration::from_secs(10)));

    // Phase 1: a small workload delivered normally.
    drive_shard(&server, 10);
    server.flush_now();
    let deadline = Instant::now() + Duration::from_secs(30);
    while fe.results(&qr).raw_rows().len() < 10 {
        assert!(Instant::now() < deadline, "phase-1 rows arrive");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Partition: cut the connections and wait until the agent notices
    // (from then on the report loop skips flushes entirely).
    fe.bus().sever();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.status() != ConnStatus::Reconnecting {
        assert!(
            Instant::now() < deadline,
            "agent notices the partition (status {:?})",
            server.status()
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // A long-outage workload, far past the row cap: the outage buffer
    // must stay bounded, shedding oldest rows instead of growing.
    drive_shard(&server, 500);
    assert_eq!(server.agent().emitted_for(qr.id), 510);
    assert_eq!(server.agent().buffered_rows(qr.id), CAP);
    assert_eq!(server.agent().shed_for(qr.id), 500 - CAP as u64);

    // Recovery: the backoff elapses, the agent reconnects on its own,
    // and the next flush delivers the surviving rows *and* the shed
    // count, so the frontend's loss envelope owns up to the outage.
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.status() != ConnStatus::Connected {
        assert!(Instant::now() < deadline, "agent reconnects after backoff");
        std::thread::sleep(Duration::from_millis(5));
    }
    server.flush_now();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let res = fe.results(&qr);
        if res.raw_rows().len() == 10 + CAP && res.loss().tuples_shed == 500 - CAP as u64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "shed accounting converges (rows {}, shed {})",
            res.raw_rows().len(),
            res.loss().tuples_shed
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let loss = fe.results(&qr).loss();
    assert_eq!(loss.tuples_delivered, 10 + CAP as u64);
    // Nothing was silently dropped: emitted == delivered + shed.
    assert_eq!(loss.tuples_dropped, 0);

    server.shutdown();
}

#[test]
fn reconnect_disabled_surfaces_lost_status() {
    let fe = LiveFrontend::start().expect("frontend starts");
    let agent = LiveAgent::connect_with(
        fe.addr(),
        info("fragile", 7),
        Duration::from_millis(10),
        ReconnectPolicy::disabled(),
    )
    .expect("agent connects");
    assert!(fe.wait_for_agents(1, Duration::from_secs(10)));

    fe.bus().sever();
    let deadline = Instant::now() + Duration::from_secs(10);
    while agent.status() != ConnStatus::Lost {
        assert!(
            Instant::now() < deadline,
            "disconnection surfaces as an error, not a silent exit (status {:?})",
            agent.status()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(agent.status().is_error());
}
