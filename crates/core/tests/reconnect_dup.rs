//! Direct unit tests for the reconnect duplicate-suppression edge.
//!
//! A reconnecting transport re-sends frames it cannot prove were
//! delivered, and a *restarted* agent reuses its predecessor's stable
//! identity (host, procid) with a fresh `seq` space. The frontend keys
//! sequence tracking on `(host, procid, incarnation)` so the two cases
//! stay distinguishable:
//!
//! - the same incarnation re-delivering a frame mid-window is a
//!   duplicate and must not double-count any aggregate;
//! - a fresh incarnation's `seq 0` is *not* a duplicate of the old
//!   incarnation's `seq 0`, and the dead incarnation's unrecovered
//!   tuples stay visible as `tuples_dropped` (crash loss) instead of
//!   being masked by the successor's fresh counters.
//!
//! The chaos suite covers these paths under random seeds; these tests
//! pin the exact semantics deterministically — and, last, that the
//! envelope's counters, which a peer controls as it controls `seq`,
//! saturate the books rather than overflow them, and that a block whose
//! header the envelope was believed on — or a grouped partial of another
//! width than the query's, or a body of the other kind — is `dropped`, not
//! `delivered`, when it turns out not to fit.

use std::sync::Arc;

use pivot_baggage::Baggage;
use pivot_core::{
    Agent, Frontend, Ledger, ProcessInfo, QueryHandle, Report, ReportRows, RetroReport, TriggerKind,
};
use pivot_itc::{Decoder, Encoder};
use pivot_model::{AggState, EncodedBlock, Tuple, Value};
use pivot_query::Groups;

const QUERY: &str = "From e In Exec GroupBy e.k Select e.k, SUM(e.v)";
const MS: u64 = 1_000_000;

fn frontend_with_query() -> (Frontend, QueryHandle) {
    let mut fe = Frontend::new();
    fe.define("Exec", ["k", "v"]);
    let handle = fe.install_named("Q", QUERY).expect("query installs");
    (fe, handle)
}

/// A fresh agent with the fixed identity `worker-7@host-0`, woven with
/// everything the frontend has installed (the epoch re-sync a
/// reconnecting agent receives). Calling this twice models a restart:
/// same host/procid, new incarnation.
fn fresh_agent(fe: &Frontend) -> Arc<Agent> {
    let agent = Arc::new(Agent::new(ProcessInfo {
        host: "host-0".into(),
        procid: 7,
        procname: "worker".into(),
    }));
    agent.sync(&fe.installed());
    agent
}

fn invoke(agent: &Agent, now: u64, key: &str) {
    let mut bag = Baggage::new();
    agent.invoke(
        "Exec",
        &mut bag,
        now,
        &[("k", Value::str(key)), ("v", Value::I64(1))],
    );
}

fn flush_one(agent: &Agent, now: u64) -> Report {
    let mut reports = agent.flush(now);
    assert_eq!(reports.len(), 1, "one woven query, one report");
    reports.remove(0)
}

/// Sum over every output row (all rows are `k, SUM(v)`).
fn total(fe: &Frontend, handle: &QueryHandle) -> i64 {
    fe.results(handle)
        .rows()
        .iter()
        .map(|r| match r.values[1] {
            Value::I64(n) => n,
            ref v => panic!("SUM column is not an integer: {v:?}"),
        })
        .sum()
}

/// A reconnecting link re-sends unacked frames; the same incarnation's
/// frame arriving again mid-window is suppressed, never merged twice.
#[test]
fn redelivered_frame_from_same_incarnation_does_not_double_count() {
    let (mut fe, handle) = frontend_with_query();
    let agent = fresh_agent(&fe);

    for _ in 0..3 {
        invoke(&agent, MS, "a");
    }
    let first = flush_one(&agent, MS);
    fe.accept(first.clone());
    // The reconnect replay: the exact same frame again.
    fe.accept(first.clone());

    // Later in the same window the agent keeps emitting and flushes
    // again; the stale frame is replayed once more in between.
    for _ in 0..2 {
        invoke(&agent, 2 * MS, "a");
    }
    let second = flush_one(&agent, 2 * MS);
    fe.accept(second);
    fe.accept(first);

    assert_eq!(total(&fe, &handle), 5, "each tuple counted exactly once");
    let loss = fe.results(&handle).loss();
    assert_eq!(loss.reports_accepted, 2);
    assert_eq!(loss.reports_duplicate, 2);
    assert_eq!(loss.reports_missed, 0);
    assert_eq!(loss.tuples_delivered, 5);
    assert_eq!(loss.tuples_emitted, 5);
    assert_eq!(loss.tuples_dropped, 0);
}

/// A restarted agent restarts its `seq` space at 0. Keyed on
/// incarnation, the successor's `seq 0` must be accepted, not
/// suppressed as a replay of the predecessor's `seq 0`.
#[test]
fn fresh_incarnation_seq_zero_is_not_a_duplicate() {
    let (mut fe, handle) = frontend_with_query();

    let old = fresh_agent(&fe);
    for _ in 0..3 {
        invoke(&old, MS, "a");
    }
    let old_first = flush_one(&old, MS);
    assert_eq!(old_first.seq, 0);
    fe.accept(old_first);

    // Restart: same host/procid, fresh incarnation, fresh seq space.
    let new = fresh_agent(&fe);
    assert_ne!(new.incarnation(), old.incarnation());
    for _ in 0..2 {
        invoke(&new, 2 * MS, "a");
    }
    let new_first = flush_one(&new, 2 * MS);
    assert_eq!(new_first.seq, 0, "fresh incarnation restarts at seq 0");
    fe.accept(new_first);

    assert_eq!(total(&fe, &handle), 5, "both incarnations contribute");
    let loss = fe.results(&handle).loss();
    assert_eq!(loss.reports_accepted, 2);
    assert_eq!(loss.reports_duplicate, 0);
    assert_eq!(loss.tuples_delivered, 5);
    assert_eq!(loss.tuples_dropped, 0);
}

/// Tuples a dead incarnation emitted but never got delivered must stay
/// on the books as `tuples_dropped` (the crash loss) after a successor
/// incarnation comes up — the successor's fresh counters must extend
/// the totals, not overwrite the dead incarnation's deficit.
#[test]
fn crashed_incarnation_loss_stays_visible_past_the_restart() {
    let (mut fe, handle) = frontend_with_query();

    let old = fresh_agent(&fe);
    for _ in 0..3 {
        invoke(&old, MS, "a");
    }
    // seq 0 dies in transit with the link.
    let lost = flush_one(&old, MS);
    assert_eq!((lost.seq, lost.tuples), (0, 3));
    drop(lost);
    // seq 1 lands; its cumulative counter proves seq 0 existed.
    for _ in 0..2 {
        invoke(&old, 2 * MS, "a");
    }
    let survivor = flush_one(&old, 2 * MS);
    assert_eq!((survivor.seq, survivor.emitted_cum), (1, 5));
    fe.accept(survivor);

    let loss = fe.results(&handle).loss();
    assert_eq!(loss.reports_missed, 1, "the gap before seq 1 is visible");
    assert_eq!(loss.tuples_dropped, 3, "the lost frame's tuples");

    // The agent crashes; a successor takes over its identity and
    // delivers normally.
    let new = fresh_agent(&fe);
    for _ in 0..4 {
        invoke(&new, 3 * MS, "b");
    }
    fe.accept(flush_one(&new, 3 * MS));

    assert_eq!(total(&fe, &handle), 6, "2 surviving + 4 successor tuples");
    let loss = fe.results(&handle).loss();
    assert_eq!(loss.reports_accepted, 2);
    assert_eq!(loss.reports_duplicate, 0);
    assert_eq!(loss.reports_missed, 1, "the old gap does not heal");
    assert_eq!(loss.tuples_emitted, 9, "5 old + 4 new, summed not maxed");
    assert_eq!(loss.tuples_delivered, 6);
    assert_eq!(
        loss.tuples_dropped, 3,
        "the crash loss survives the restart instead of being masked \
         by the successor's smaller cumulative counters"
    );
    assert!(fe.results(&handle).loss().is_degraded());
}

/// `Report::decode` accepts any `u64` in the envelope: frames claiming
/// `u64::MAX` of everything saturate the books, per source and summed
/// over sources, where `+=` panicked (dev) or wrapped (release).
#[test]
fn hostile_envelope_counters_saturate() {
    let mut fe = Frontend::new();
    fe.define("Exec", ["k", "v"]);
    let handle = fe
        .install("From e In Exec Select COUNT")
        .expect("query installs");
    for (procid, seq) in [(1, 0), (2, 0), (2, 1)] {
        fe.accept(Report {
            query: handle.id,
            host: "evil".into(),
            procid,
            incarnation: 1,
            time: 0,
            seq,
            tuples: u64::MAX,
            emitted_cum: u64::MAX,
            shed_cum: u64::MAX,
            truncated_cum: u64::MAX,
            throttled: vec![],
            rows: ReportRows::Grouped(Groups::from_flat(
                1,
                vec![],
                vec![AggState::Count(u64::MAX)],
            )),
        });
        fe.accept_retro(RetroReport {
            host: "evil".into(),
            procid,
            incarnation: 1,
            time: 0,
            seq,
            query: handle.id,
            kind: TriggerKind::Fault,
            request: 0,
            events: Vec::new(),
            recorded_cum: u64::MAX,
            sampled_out_cum: u64::MAX,
            shed_cum: u64::MAX,
        });
    }
    let loss = fe.results(&handle).loss();
    assert_eq!(loss.reports_accepted, 3);
    assert_eq!(loss.tuples_delivered, u64::MAX);
    assert_eq!(loss.tuples_emitted, u64::MAX);
    assert_eq!(loss.tuples_shed, u64::MAX);
    assert_eq!(loss.tuples_dropped, 0);
    assert_eq!(fe.results(&handle).rows()[0].values, [Value::U64(u64::MAX)]);
    let retro = fe.retro_loss();
    assert_eq!(retro.events_recorded, u64::MAX);
    assert_eq!(retro.events_sampled_out, u64::MAX);
    assert_eq!(retro.events_outstanding, 0);
}

/// A relay forwards blocks without parsing them, so corruption inside a
/// payload surfaces only when the frontend materializes. The rows the
/// bad block's header claimed must then leave `delivered` — or the books
/// balance over a result that is silently short.
#[test]
fn a_block_that_does_not_decode_is_dropped_not_delivered() {
    let mut fe = Frontend::new();
    fe.define("Exec", ["k", "v"]);
    let handle = fe
        .install("From e In Exec Select e.v")
        .expect("streaming query installs");
    let rows = |range: std::ops::Range<u64>| -> Vec<Tuple> {
        range.map(|i| Tuple::from_iter([Value::U64(i)])).collect()
    };
    let good = EncodedBlock::encode(&rows(0..3));
    // The second block as a corrupted link would hand it on: the header
    // still says five rows, the payload's first byte — its kind tag — no
    // longer names a layout.
    let bad = EncodedBlock::encode(&rows(3..8));
    let mut enc = Encoder::new();
    bad.write_wire(&mut enc);
    let mut wire = enc.finish();
    let payload_at = wire.len() - bad.encoded_len();
    wire[payload_at] ^= 0xff;
    let bad = EncodedBlock::read_wire(&mut Decoder::new(&wire)).expect("the header is intact");
    assert_eq!(bad.rows(), 5);
    assert!(bad.decode().is_err());

    fe.accept(Report {
        query: handle.id,
        host: "host-0".into(),
        procid: 7,
        incarnation: 1,
        time: 7,
        seq: 0,
        tuples: 8,
        emitted_cum: 8,
        shed_cum: 0,
        truncated_cum: 0,
        throttled: vec![],
        rows: ReportRows::RawEncoded(vec![good, bad]),
    });
    let res = fe.results(&handle);
    let raw = res.raw_rows();
    let got: Vec<&Tuple> = raw.iter().map(|(_, row)| row).collect();
    assert_eq!(got, rows(0..3).iter().collect::<Vec<_>>());
    let loss = res.loss();
    assert_eq!((loss.tuples_delivered, loss.tuples_dropped), (3, 5));
    assert!(loss.is_degraded());
}

/// One shape per query: a well-formed partial whose key width or
/// accumulator count is not the query's is discarded whole at the frontend
/// — never zipped into the totals, never padded into rows, never a panic —
/// and the tuples its envelope claimed are `dropped`, not `delivered`.
#[test]
fn a_partial_of_another_width_is_dropped_not_merged() {
    for keys_twice in [false, true] {
        let (mut fe, handle) = frontend_with_query();
        let agent = fresh_agent(&fe);
        for _ in 0..3 {
            invoke(&agent, MS, "a");
        }
        let mut misfit = flush_one(&agent, MS);
        let ReportRows::Grouped(groups) = &misfit.rows else {
            panic!("a grouped query reports groups");
        };
        let (mut keys, mut states) = (Vec::new(), Vec::new());
        for (k, s) in groups.iter() {
            keys.extend_from_slice(&if keys_twice {
                [k, k].concat()
            } else {
                k.to_vec()
            });
            states.extend_from_slice(&if keys_twice {
                s.to_vec()
            } else {
                [s, s].concat()
            });
        }
        misfit.rows = ReportRows::Grouped(Groups::from_flat(groups.len(), keys, states));
        fe.accept(misfit);
        invoke(&agent, 2 * MS, "a");
        fe.accept(flush_one(&agent, 2 * MS));
        let res = fe.results(&handle);
        assert_eq!(total(&fe, &handle), 1, "only the fitting partial merged");
        assert_eq!(res.series().len(), 1, "the misfit opened no interval");
        let loss = res.loss();
        assert_eq!(loss.reports_accepted, 2, "its envelope counts");
        assert_eq!(
            (
                loss.tuples_emitted,
                loss.tuples_delivered,
                loss.tuples_dropped
            ),
            (4, 1, 3)
        );
        let mut books = Ledger::of_agent(&agent, &[handle.id]);
        books += &Ledger::from(loss);
        books.dropped = loss.tuples_dropped;
        assert_eq!(books.balance(), Ok(()));
    }
}

/// One kind per query: streaming rows sent under a grouped query's id, or
/// a grouped partial under a streaming query's, are refused whole — not
/// filed as raw rows, not merged, no interval opened — and the tuples the
/// envelope claimed are `dropped`.
#[test]
fn a_body_of_the_other_kind_is_dropped_not_kept() {
    let (mut fe, grouped) = frontend_with_query();
    let streaming = fe
        .install_named("QS", "From e In Exec Select e.k, e.v")
        .expect("streaming query installs");
    let agent = fresh_agent(&fe);
    for _ in 0..5 {
        invoke(&agent, MS, "a");
    }
    let mut reports = agent.flush(MS);
    reports.sort_unstable_by_key(|r| r.query.0);
    let [as_grouped, as_streaming] = <[Report; 2]>::try_from(reports).expect("two queries");
    assert_eq!((as_grouped.tuples, as_streaming.tuples), (5, 5));
    // Each query's body under the other's id.
    for (report, other) in [(as_streaming, &grouped), (as_grouped, &streaming)] {
        fe.accept(Report {
            query: other.id,
            ..report
        });
    }
    for handle in [&grouped, &streaming] {
        let res = fe.results(handle);
        assert_eq!(res.len(), 0, "{}: nothing kept", handle.name);
        assert!(res.raw_rows().is_empty() && res.series().is_empty());
        let loss = res.loss();
        assert_eq!(loss.reports_accepted, 1, "its envelope counts");
        assert_eq!(
            (
                loss.tuples_emitted,
                loss.tuples_delivered,
                loss.tuples_dropped
            ),
            (5, 0, 5)
        );
        let mut books = Ledger::of_agent(&agent, &[handle.id]);
        books += &Ledger::from(loss);
        books.dropped = loss.tuples_dropped;
        assert_eq!(books.balance(), Ok(()));
    }
}
