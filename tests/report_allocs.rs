//! Allocation counts of the report path.
//!
//! Agent, relay and frontend hold grouped partials in one table,
//! `pivot_query::Groups` (DESIGN.md "Group tables"): every key's values in
//! one vector, accumulators in another, a group's birth a push. Handing a
//! partial on, decoding one, or merging one into groups a tier already
//! holds therefore asks the allocator the same number of times at 1, 64 or
//! 512 groups — and so does a group's birth, however wide its key. This
//! binary pins that with the counting allocator of
//! `support/counting_alloc.rs`, on the grouped query and the short keys of
//! `report_fanin` (`benchmark/src/fanin.rs`), and on keys of five columns.

use pivot_relay::RelayCore;
use pivot_tracing::baggage::Baggage;
use pivot_tracing::core::{Agent, Frontend, ProcessInfo, QueryHandle, Report, ReportRows};
use pivot_tracing::live::proto::{decode_message, encode_message, Message};
use pivot_tracing::model::Value;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

const QUERY: &str =
    "From e In Fanin.event GroupBy e.key Select e.key, COUNT, SUM(e.val), MAX(e.val)";
/// Five key columns, one more than a `Tuple` holds inline, each a value
/// that holds its bytes inline.
const WIDE: &str = "From e In Fanin.event \
     GroupBy e.key, e.host, e.procid, e.procname, e.tracepoint \
     Select e.key, e.host, e.procid, e.procname, e.tracepoint, COUNT";
const SIZES: [usize; 3] = [1, 64, 512];
const MS: u64 = 1_000_000;

fn frontend(query: &str) -> (Frontend, QueryHandle) {
    let mut fe = Frontend::new();
    fe.define("Fanin.event", ["key", "val", "tag"]);
    let handle = fe.install(query).expect("the fan-in query installs");
    (fe, handle)
}

fn agent(fe: &Frontend) -> Agent {
    let agent = Agent::new(ProcessInfo {
        host: "host-A".into(),
        procid: 7,
        procname: "fanin".into(),
    });
    agent.sync(&fe.installed());
    agent
}

fn relay() -> RelayCore {
    RelayCore::new(ProcessInfo {
        host: "relay".into(),
        procid: 9,
        procname: "pivot-relay".into(),
    })
}

type Exports = [(&'static str, Value); 3];

/// Two events on each of `groups` keys — strings a `Value` holds inline.
fn exports(groups: usize) -> Vec<Exports> {
    (0..2 * groups)
        .map(|i| {
            [
                ("key", Value::str(format!("key-{:04}", i % groups))),
                ("val", Value::U64(i as u64)),
                ("tag", Value::U64(i as u64 % 7)),
            ]
        })
        .collect()
}

/// `exports` as one batch at `now`, flushed as one report.
fn fold_and_flush(agent: &Agent, exports: &[Exports], now: u64) -> Report {
    let events: Vec<(u64, &[(&str, Value)])> = exports.iter().map(|e| (now, &e[..])).collect();
    agent.invoke_batch("Fanin.event", &mut Baggage::new(), &events);
    let mut reports = agent.flush(now);
    assert_eq!(reports.len(), 1, "one woven query, one report");
    let report = reports.remove(0);
    assert_eq!(report.rows.len(), exports.len() / 2);
    report
}

fn report(agent: &Agent, groups: usize, now: u64) -> Report {
    fold_and_flush(agent, &exports(groups), now)
}

/// `count` at each of [`SIZES`] groups, which must be `expected` at all.
fn same_at_every_size(what: &str, expected: u64, count: impl Fn(usize) -> u64) {
    let counts = SIZES.map(count);
    assert_eq!(
        counts,
        [expected; SIZES.len()],
        "{what}: allocations at {SIZES:?} groups"
    );
}

/// Allocations of decoding a report of `groups` groups of `query`, whose
/// keys are `key_width` values and accumulators `width`.
fn decoding(query: &str, groups: usize, (key_width, width): (usize, usize)) -> u64 {
    let (fe, _) = frontend(query);
    let bytes = encode_message(&Message::Report(report(&agent(&fe), groups, MS)));
    let (n, decoded) = allocations(|| decode_message(&bytes));
    let Ok(Message::Report(Report {
        rows: ReportRows::Grouped(back),
        ..
    })) = decoded
    else {
        panic!("a grouped report decodes as one");
    };
    assert_eq!(
        (back.len(), back.key_width(), back.width()),
        (groups, key_width, width)
    );
    n
}

#[test]
fn decoding_a_grouped_report_allocates_the_same_at_any_size() {
    // The host name, the keys' vector, the accumulators' vector.
    same_at_every_size("decode_message", 3, |groups| {
        decoding(QUERY, groups, (1, 3))
    });
}

#[test]
fn decoding_keys_of_five_columns_allocates_the_same_at_any_size() {
    same_at_every_size("decode_message, five-column keys", 3, |groups| {
        decoding(WIDE, groups, (5, 1))
    });
}

#[test]
fn births_of_keys_of_five_columns_allocate_the_same_at_any_size() {
    let (fe, _) = frontend(WIDE);
    // The batch's event list, and `Agent::flush`'s four.
    same_at_every_size("invoke_batch + Agent::flush", 5, |groups| {
        let agent = agent(&fe);
        // The first interval sizes the table the second is born into.
        report(&agent, groups, MS);
        let exports = exports(groups);
        let (n, _) = allocations(|| fold_and_flush(&agent, &exports, 2 * MS));
        n
    });
}

#[test]
fn an_agent_flush_allocates_the_same_at_any_size() {
    let (fe, _) = frontend(QUERY);
    // The list of reports, the host name, and the two vectors the table
    // keeps for the next interval in place of the ones it hands over.
    same_at_every_size("Agent::flush", 4, |groups| {
        let agent = agent(&fe);
        report(&agent, groups, MS);
        let exports = [
            ("key", Value::str("key-0000")),
            ("val", Value::U64(1)),
            ("tag", Value::U64(0)),
        ];
        for g in 0..groups {
            let mut exports = exports.clone();
            exports[0].1 = Value::str(format!("key-{g:04}"));
            agent.invoke("Fanin.event", &mut Baggage::new(), 2 * MS, &exports);
        }
        let (n, reports) = allocations(|| agent.flush(2 * MS));
        assert_eq!(reports[0].rows.len(), groups);
        n
    });
}

#[test]
fn a_relay_absorbs_groups_it_holds_at_the_same_cost_at_any_size() {
    let (fe, _) = frontend(QUERY);
    same_at_every_size("RelayCore::absorb", 0, |groups| {
        let (agent, relay) = (agent(&fe), relay());
        relay.absorb(report(&agent, groups, MS));
        let again = report(&agent, groups, 2 * MS);
        let (n, ()) = allocations(|| relay.absorb(again));
        assert_eq!(relay.stats().reports_in, 2);
        n
    });
}

#[test]
fn a_frontend_takes_a_relayed_report_into_a_new_interval_at_the_same_cost_at_any_size() {
    same_at_every_size("Frontend::accept", 0, |groups| {
        let (mut fe, handle) = frontend(QUERY);
        let (agent, relay) = (agent(&fe), relay());
        for now in [MS, 2 * MS] {
            relay.absorb(report(&agent, groups, now));
        }
        // The first relayed window fills the totals with every key; the
        // second lands in an interval of its own.
        let mut relayed = relay.flush(2 * MS);
        relay.absorb(report(&agent, groups, 3 * MS));
        relayed.extend(relay.flush(3 * MS));
        let [first, second] = <[Report; 2]>::try_from(relayed).expect("one report a window");
        fe.accept(first);
        let (n, ()) = allocations(|| fe.accept(second));
        let results = fe.results(&handle);
        assert_eq!((results.len(), results.series().len()), (groups, 2));
        n
    });
}
