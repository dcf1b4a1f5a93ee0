//! One order for values, end to end (DESIGN.md §5): a `GroupBy` column
//! that mixes integers, strings, booleans, `Null`, NaNs and both zeros —
//! which a query over a loosely typed export produces and a peer can put in
//! one `Report` frame — sorts by `pivot_model::Value`'s total `Ord` at every
//! tier. Before there was one, `QueryResults::rows()` sorted with a
//! comparison that called unordered pairs equal, which is not an order, and
//! the standard library's sort panicked on it.

use std::sync::Arc;

use pivot_baggage::Baggage;
use pivot_core::{Agent, Bus, Frontend, LocalBus, ProcessInfo, Report, ReportRows, ResultRow};
use pivot_live::proto::{encode_message, Message};
use pivot_model::Value;
use pivot_query::Groups;
use pivot_relay::{Relay, RelayCore};

const QUERY: &str = "From e In Exec GroupBy e.k Select e.k, COUNT, SUM(e.v)";
const MS: u64 = 1_000_000;

/// Distinct keys of every class. No two are equal across representations
/// (no integral float, no `U64` an `I64` also holds), so each is its own
/// group whichever agent sees it first.
fn keys() -> Vec<Value> {
    let mut keys = vec![
        Value::Null,
        Value::Bool(false),
        Value::Bool(true),
        Value::str(""),
        Value::F64(-0.0),
        Value::F64(0.0),
        Value::F64(f64::NAN),
        Value::F64(-f64::NAN),
        Value::F64(f64::from_bits(0x7ff8_0000_0000_0001)),
        Value::F64(f64::INFINITY),
        Value::F64(f64::NEG_INFINITY),
        Value::I64(i64::MIN),
        Value::I64((1 << 53) + 1),
        Value::U64(u64::MAX),
    ];
    for i in 1..=120i64 {
        keys.push(Value::I64(i));
        keys.push(Value::I64(-i));
        keys.push(Value::U64((1 << 63) + i as u64));
        keys.push(Value::F64(i as f64 + 0.5));
        keys.push(Value::str(format!("s{i}")));
    }
    // Strings on both sides of the 22 bytes a `Value` holds inline, one
    // a prefix of the next, so the order interleaves the two arms.
    keys.extend((20..=25).map(|len| Value::str("k".repeat(len))));
    keys.push(Value::str(format!("{}z", "k".repeat(21))));
    keys
}

fn agent(fe: &Frontend, slot: u64) -> Arc<Agent> {
    let agent = Arc::new(Agent::new(ProcessInfo {
        host: format!("host-{slot}"),
        procid: slot,
        procname: "worker".into(),
    }));
    agent.sync(&fe.installed());
    agent
}

/// One invocation per key. `v` varies with the key, so rows whose keys the
/// old comparison called equal differed in a later column — which is what
/// made it cyclic rather than merely coarse.
fn invoke_all<'a>(agent: &Agent, now: u64, keys: impl Iterator<Item = (usize, &'a Value)>) {
    for (i, key) in keys {
        let mut bag = Baggage::new();
        agent.invoke(
            "Exec",
            &mut bag,
            now,
            &[("k", key.clone()), ("v", Value::I64(i as i64 % 7))],
        );
    }
}

fn assert_strictly_ascending(rows: &[ResultRow], groups: usize) {
    assert_eq!(rows.len(), groups, "one row per key");
    for pair in rows.windows(2) {
        assert!(
            pair[0].values < pair[1].values,
            "{:?} is not below {:?}",
            pair[0].values,
            pair[1].values
        );
    }
}

/// The frame a relay sends upstream for a window that is exactly `report`.
fn upstream_frame(report: Report, fe: &Frontend) -> Vec<u8> {
    let core = RelayCore::new(ProcessInfo {
        host: "relay".into(),
        procid: 9,
        procname: "pivot-relay".into(),
    });
    core.sync(&fe.installed());
    core.absorb(report);
    let mut out = core.flush(2 * MS);
    assert_eq!(out.len(), 1, "one window, one frame");
    let mut frame = out.remove(0);
    // Relay incarnations come from a process-wide counter.
    frame.incarnation = 0;
    encode_message(&Message::Report(frame))
}

#[test]
fn a_mixed_key_column_sorts_by_the_one_order_at_every_tier() {
    let keys = keys();
    assert!(keys.len() >= 512);

    let mut fe = Frontend::new();
    fe.define("Exec", ["k", "v"]);
    let handle = fe.install_named("Q", QUERY).expect("query installs");
    let (a, b) = (agent(&fe, 0), agent(&fe, 1));
    let mut bus = LocalBus::new();
    bus.register(Arc::clone(&a));
    bus.register(Arc::clone(&b));
    let relay = Relay::new(
        bus,
        ProcessInfo {
            host: "relay".into(),
            procid: 7,
            procname: "pivot-relay".into(),
        },
    );
    for cmd in fe.drain_commands() {
        relay.broadcast(&cmd);
    }

    // Interval one straight from the agents, interval two through a relay
    // flush; the two agents meet the keys in opposite orders.
    invoke_all(&a, MS, keys.iter().enumerate());
    invoke_all(&b, MS, keys.iter().enumerate().rev());
    relay.inner().pump(MS, &mut fe);
    invoke_all(&a, 2 * MS, keys.iter().enumerate());
    invoke_all(&b, 2 * MS, keys.iter().enumerate().rev());
    let upstream = relay.drain(2 * MS).reports;
    assert_eq!(upstream.len(), 1, "two agents fan in to one report");
    let ReportRows::Grouped(groups) = &upstream[0].rows else {
        panic!("a grouped query reports groups");
    };
    assert_eq!(groups.len(), keys.len());
    assert!(
        groups.keys().zip(groups.keys().skip(1)).all(|(a, b)| a < b),
        "frame in key order"
    );
    for r in upstream {
        fe.accept(r);
    }

    let results = fe.results(&handle);
    let rows = results.rows();
    assert_strictly_ascending(&rows, keys.len());
    assert!(rows.iter().all(|r| r.values[1] == Value::U64(4)));
    let series = results.series();
    assert_eq!(series.len(), 2);
    for (_, rows) in &series {
        assert_strictly_ascending(rows, keys.len());
    }
    // Class rank, then the recorded decisions inside the numerics.
    assert_eq!(rows[0].values[0], Value::Null);
    assert_eq!(rows[1].values[0], Value::Bool(false));
    let at = |k: &Value| rows.iter().position(|r| r.values[0] == *k).expect("a row");
    assert_eq!(at(&Value::F64(-0.0)) + 1, at(&Value::F64(0.0)));
    assert!(at(&Value::F64(-f64::NAN)) < at(&Value::I64(i64::MIN)));
    assert!(at(&Value::U64(u64::MAX)) < at(&Value::F64(f64::INFINITY)));
    assert!(at(&Value::F64(f64::NAN)) < at(&Value::str("")));
    assert!(at(&Value::I64(9)) < at(&Value::I64(10)));
    // A string sorts by its text, wherever it is held: the longest inline
    // run directly below the shortest shared one, every shared one below
    // the inline string that leaves their common prefix.
    let run = |len: usize| Value::str("k".repeat(len));
    assert_eq!(at(&run(22)) + 1, at(&run(23)));
    assert_eq!(
        at(&run(25)) + 1,
        at(&Value::str(format!("{}z", "k".repeat(21))))
    );

    // Digests: the same state reached in another order (and through other
    // hash seeds) digests alike.
    invoke_all(&a, 3 * MS, keys.iter().enumerate());
    invoke_all(&b, 3 * MS, keys.iter().enumerate().rev());
    assert_eq!(a.state_digest(), b.state_digest());
    let reports = a.flush(3 * MS);
    let fresh_digest = || {
        let mut fe = Frontend::new();
        fe.define("Exec", ["k", "v"]);
        fe.install_named("Q", QUERY).expect("query installs");
        for r in &reports {
            fe.accept(r.clone());
        }
        fe.state_digest(&mut |inc| inc)
    };
    assert_eq!(fresh_digest(), fresh_digest());
    let _ = fe.state_digest(&mut |inc| inc);

    // The relay's frame does not depend on the order a window was filled.
    let forward = reports[0].clone();
    let mut backward = forward.clone();
    let ReportRows::Grouped(groups) = &mut backward.rows else {
        panic!("a grouped query reports groups");
    };
    let keys = groups.keys().rev().flatten().cloned().collect();
    let states = groups.iter().rev().flat_map(|(_, s)| s.to_vec()).collect();
    *groups = Groups::from_flat(groups.len(), keys, states);
    assert_eq!(upstream_frame(forward, &fe), upstream_frame(backward, &fe));
}
