//! Retro flush across a live outage: hindsight frames obey the same
//! bounded-outage-buffer discipline as ordinary reports (PR 5). While
//! the connection is down, flushed retro reports stay in the agent's
//! bounded pending queue, shedding oldest-first under pressure; recovery
//! delivers the survivors with their original ring sequence numbers,
//! never a duplicate.
//!
//! The server side is a raw [`TcpListener`] so the test controls exactly
//! when the connection dies.

use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use pivot_baggage::Baggage;
use pivot_core::{set_trace, ProcessInfo, RetroReport, TriggerKind};
use pivot_live::bus::{ConnStatus, LiveAgent, ReconnectPolicy};
use pivot_live::frame::read_frame;
use pivot_live::proto::{decode_message, Message};
use pivot_model::Value;

/// Accepts one connection and consumes its `Hello`.
fn accept_hello(listener: &TcpListener) -> TcpStream {
    let (mut conn, _) = listener.accept().expect("agent connects");
    let payload = read_frame(&mut conn).expect("hello frame");
    let Message::Hello(_) = decode_message(&payload).expect("hello decodes") else {
        panic!("first frame is not Hello");
    };
    conn
}

/// Polls until `f()` holds or the deadline passes.
fn wait_until(mut f: impl FnMut() -> bool) -> bool {
    for _ in 0..600 {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

/// Reads the next frame and requires it to be a `Retro`.
fn read_retro(conn: &mut TcpStream) -> RetroReport {
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout sets");
    let payload = read_frame(conn).expect("retro frame arrives");
    match decode_message(&payload) {
        Ok(Message::Retro(report)) => report,
        other => panic!("expected a Retro frame, got {other:?}"),
    }
}

/// Records one event into the agent's hindsight ring, tagged `request`.
fn record(agent: &LiveAgent, request: u64, t: u64) {
    let mut bag = Baggage::new();
    set_trace(&mut bag, request);
    agent
        .agent()
        .invoke("Retro.live", &mut bag, t, &[("v", Value::U64(t))]);
}

#[test]
fn retro_flush_across_outage_is_bounded_and_never_duplicated() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("listener binds");
    let addr = listener.local_addr().expect("addr");

    let agent = LiveAgent::connect_with(
        addr,
        ProcessInfo {
            host: "retro-live-host".into(),
            procid: 9,
            procname: "retro-live".into(),
        },
        Duration::from_secs(3600), // reporter stays out of the way
        // A wide, un-doubling backoff so the disconnected window below is
        // long enough to observe deterministically.
        ReconnectPolicy {
            max_attempts: 100,
            base_delay: Duration::from_millis(400),
            max_delay: Duration::from_millis(400),
            jitter_seed: 3,
        },
    )
    .expect("agent connects");
    let mut conn = accept_hello(&listener);

    let inner = agent.agent();
    inner.set_retro(true);
    inner.set_retro_cap(16);
    inner.set_retro_pending_cap(4);

    // Phase 1: a report already pending when the session opens drains on
    // the first flush — nothing waits for the server to speak first.
    record(&agent, 1, 1);
    record(&agent, 1, 2);
    assert!(inner.trigger_retro(TriggerKind::Fault, 1, 3));
    assert_eq!(inner.retro_unflushed(), 2, "report pending");
    agent.flush_now();
    let r = read_retro(&mut conn);
    assert_eq!((r.request, r.seq, r.events.len()), (1, 0, 2));
    assert_eq!(inner.retro_unflushed(), 0);

    // Phase 2: the connection dies without a Goodbye. Triggers keep
    // firing during the outage; the pending queue is bounded at 4
    // events, so the oldest report (request 2, two events) is shed when
    // request 3's three-event flush lands.
    drop(conn);
    assert!(
        wait_until(|| agent.status() == ConnStatus::Reconnecting),
        "agent noticed the dead connection"
    );
    record(&agent, 2, 10);
    record(&agent, 2, 11);
    assert!(inner.trigger_retro(TriggerKind::Fault, 2, 12));
    record(&agent, 3, 13);
    record(&agent, 3, 14);
    record(&agent, 3, 15);
    assert!(inner.trigger_retro(TriggerKind::Fault, 3, 16));

    // A flush while disconnected is a no-op: nothing written into a dead
    // socket, the surviving report keeps waiting.
    agent.flush_now();
    assert_eq!(inner.retro_unflushed(), 3);
    assert_eq!(inner.retro_counters().shed, 2, "oldest report shed");

    // Phase 3: recovery delivers the survivor on the next flush.
    let mut conn = accept_hello(&listener);
    assert!(wait_until(|| agent.reconnects() == 1));
    assert!(wait_until(|| agent.status() == ConnStatus::Connected));
    agent.flush_now();
    let r = read_retro(&mut conn);
    // Request 3's report, with its original ring seq (2): seq 1 was the
    // shed report, and the gap is the frontend's record of that shed —
    // never re-numbered, never re-sent.
    assert_eq!((r.request, r.seq, r.events.len()), (3, 2, 3));
    let times: Vec<u64> = r.events.iter().map(|e| e.time).collect();
    assert_eq!(times, vec![13, 14, 15]);

    // Every recorded event is in exactly one bucket: 7 recorded ==
    // 5 flushed (2 + 3 delivered) + 2 shed + 0 sampled_out + 0 in ring.
    let c = inner.retro_counters();
    assert_eq!(c.recorded, 7);
    assert_eq!(c.flushed, 5);
    assert_eq!(c.shed, 2);
    assert_eq!(c.sampled_out, 0);
    assert!(c.balanced_with(0));
    assert_eq!(inner.retro_unflushed(), 0);

    agent.abort();
}
