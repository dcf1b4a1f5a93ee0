//! What the frontend keeps of what it is sent, and what it hands back.
//!
//! `QueryResults` keeps each interval in the encoding it arrived in —
//! streaming rows as their blocks, grouped partials as `Groups::encode`
//! writes them — and decodes on read (DESIGN.md "Group tables"). This
//! binary sends `report_fanin`'s two queries (`benchmark/src/fanin.rs`)
//! through sixteen in-process agents and a `RelayCore`, and pins two
//! things: the bytes an accepted report leaves behind, with the counting
//! allocator of `support/counting_alloc.rs`, and that `raw_rows()`,
//! `series()` and `rows()` equal a reference built from the same reports.

use std::collections::BTreeMap;

use pivot_relay::RelayCore;
use pivot_tracing::baggage::Baggage;
use pivot_tracing::core::{
    Agent, Frontend, ProcessInfo, QueryHandle, Report, ReportRows, ResultRow,
};
use pivot_tracing::live::proto::{decode_message, encode_message, Message};
use pivot_tracing::model::{AggState, Tuple, Value};
use pivot_tracing::query::Groups;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::retained;

const GROUPED: &str =
    "From e In Fanin.event GroupBy e.key Select e.key, COUNT, SUM(e.val), MAX(e.val)";
const STREAMING: &str = "From e In Fanin.event Where e.tag < 64 Select e.key, e.val, e.tag";
const AGENTS: usize = 16;
const EVENTS: usize = 256;
const KEYS: u64 = 1024;
const ROUNDS: u64 = 8;
const MS: u64 = 1_000_000;

/// Bytes an accepted report may leave behind per row or group it brought.
/// Held decoded, a streaming row cost 112 and a group 120.
const ROW_BYTES: f64 = 24.0;
const GROUP_BYTES: f64 = 32.0;

/// What the frontend was sent, in arrival order: the reference.
#[derive(Default)]
struct Sent {
    rows: Vec<(u64, Tuple)>,
    intervals: BTreeMap<u64, Groups>,
    totals: Groups,
}

struct Fanin {
    fe: Frontend,
    grouped: QueryHandle,
    streaming: QueryHandle,
    agents: Vec<Agent>,
    relay: RelayCore,
    /// xorshift64 state.
    rng: u64,
    sent: Sent,
    /// Bytes left behind over the measured rounds, and what brought them:
    /// `(bytes, rows)` streaming, `(bytes, groups)` grouped.
    streaming_kept: (i64, usize),
    grouped_kept: (i64, usize),
}

impl Fanin {
    fn new() -> Fanin {
        let mut fe = Frontend::new();
        fe.define("Fanin.event", ["key", "val", "tag"]);
        let grouped = fe.install(GROUPED).expect("the grouped query installs");
        let streaming = fe.install(STREAMING).expect("the streaming query installs");
        let agents = (0..AGENTS)
            .map(|i| {
                let agent = Agent::new(ProcessInfo {
                    host: format!("leaf-{i:02}"),
                    procid: i as u64,
                    procname: "fanin".into(),
                });
                agent.sync(&fe.installed());
                agent
            })
            .collect();
        let relay = RelayCore::new(ProcessInfo {
            host: "relay".into(),
            procid: 99,
            procname: "pivot-relay".into(),
        });
        relay.sync(&fe.installed());
        Fanin {
            fe,
            grouped,
            streaming,
            agents,
            relay,
            rng: 0x9e37_79b9_7f4a_7c15,
            sent: Sent::default(),
            streaming_kept: (0, 0),
            grouped_kept: (0, 0),
        }
    }

    fn next(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// Agent `agent`'s batch of round `round`: the first round names every
    /// key, later ones favour the low keys, as `report_fanin`'s do.
    fn batch(&mut self, round: u64, agent: usize) -> Vec<[(&'static str, Value); 3]> {
        (0..EVENTS)
            .map(|i| {
                let key = match round {
                    0 => (agent * EVENTS + i) as u64 % KEYS,
                    _ => (self.next() % KEYS).min(self.next() % KEYS),
                };
                [
                    ("key", Value::str(format!("key-{key:04}"))),
                    ("val", Value::U64(1 + self.next() % 4096)),
                    ("tag", Value::U64(self.next() % 256)),
                ]
            })
            .collect()
    }

    /// Round `round`: every agent folds a batch and flushes into the relay,
    /// which flushes `halves` times at the round's one time — so `halves`
    /// partials land in one interval.
    fn round(&mut self, round: u64, halves: usize) {
        let now = (round + 1) * MS;
        let per_half = AGENTS / halves;
        for half in 0..halves {
            for agent in half * per_half..(half + 1) * per_half {
                let batch = self.batch(round, agent);
                let events: Vec<(u64, &[(&str, Value)])> =
                    batch.iter().map(|e| (now, &e[..])).collect();
                let agent = &self.agents[agent];
                agent.invoke_batch("Fanin.event", &mut Baggage::new(), &events);
                for report in agent.flush(now) {
                    self.relay.absorb(report);
                }
            }
            for report in self.relay.flush(now) {
                self.send(report, round > 0);
            }
        }
    }

    /// Sends `report` over the wire, files it in the reference, and, when
    /// `measure`, adds what decoding and accepting it left behind.
    fn send(&mut self, report: Report, measure: bool) {
        let (time, brought) = (report.time, report.rows.len());
        let streaming = report.query == self.streaming.id;
        match &report.rows {
            ReportRows::RawEncoded(blocks) => {
                for block in blocks {
                    let rows = block.decode().expect("an agent's block decodes");
                    self.sent.rows.extend(rows.into_iter().map(|r| (time, r)));
                }
            }
            ReportRows::Grouped(groups) => {
                self.sent.totals.merge(groups);
                self.sent.intervals.entry(time).or_default().merge(groups);
            }
        }
        let frame = encode_message(&Message::Report(report));
        let fe = &mut self.fe;
        let (bytes, ()) = retained(|| {
            let Ok(Message::Report(report)) = decode_message(&frame) else {
                panic!("a report frame decodes as one");
            };
            fe.accept(report);
        });
        if measure {
            let kept = match streaming {
                true => &mut self.streaming_kept,
                false => &mut self.grouped_kept,
            };
            kept.0 += bytes;
            kept.1 += brought;
        }
    }
}

/// `groups` as the grouped query's rows stamped `time`, in value order:
/// `e.key, COUNT, SUM(e.val), MAX(e.val)`.
fn rows_of(groups: &Groups, time: u64) -> Vec<ResultRow> {
    let mut rows: Vec<ResultRow> = groups
        .iter()
        .map(|(key, states)| ResultRow {
            time,
            values: key
                .iter()
                .cloned()
                .chain(states.iter().map(AggState::finish))
                .collect(),
        })
        .collect();
    rows.sort_unstable_by(|a, b| a.values.cmp(&b.values));
    rows
}

#[test]
fn an_accepted_report_leaves_its_wire_bytes_and_reads_back_as_sent() {
    let mut fanin = Fanin::new();
    for round in 0..ROUNDS {
        // Two partials into one interval every other round.
        fanin.round(round, 1 + (round % 2) as usize);
    }
    // A partial that repeats a key, from a second source, into the last
    // interval: the repeat merges as a second partial would.
    let time = ROUNDS * MS;
    let first = fanin.sent.intervals[&time].iter().next();
    let (key, states) = first.expect("the interval holds a group");
    let twice = Groups::from_flat(2, [key, key].concat(), [states, states].concat());
    fanin.send(
        Report {
            query: fanin.grouped.id,
            host: "relay-2".into(),
            procid: 2,
            incarnation: 1,
            time,
            seq: 0,
            tuples: 2,
            emitted_cum: 2,
            shed_cum: 0,
            truncated_cum: 0,
            throttled: vec![],
            rows: ReportRows::Grouped(twice),
        },
        false,
    );

    let (bytes, rows) = fanin.streaming_kept;
    let per_row = bytes as f64 / rows as f64;
    assert!(
        per_row <= ROW_BYTES,
        "{per_row:.1} bytes kept per streaming row ({bytes} over {rows})"
    );
    let (bytes, groups) = fanin.grouped_kept;
    let per_group = bytes as f64 / groups as f64;
    assert!(
        per_group <= GROUP_BYTES,
        "{per_group:.1} bytes kept per group ({bytes} over {groups})"
    );

    let (fe, sent) = (&fanin.fe, &fanin.sent);
    let streaming = fe.results(&fanin.streaming);
    assert_eq!(streaming.raw_rows(), sent.rows);
    assert_eq!(streaming.len(), sent.rows.len());
    let grouped = fe.results(&fanin.grouped);
    let series: Vec<(u64, Vec<ResultRow>)> = sent
        .intervals
        .iter()
        .map(|(&t, groups)| (t, rows_of(groups, t)))
        .collect();
    assert_eq!(series.len(), ROUNDS as usize);
    assert_eq!(grouped.series(), series);
    assert_eq!(grouped.rows(), rows_of(&sent.totals, 0));
    assert_eq!(grouped.len(), KEYS as usize);
}
