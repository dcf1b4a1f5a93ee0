//! Deterministic pins for the relay tier's semantics: in-flight partial
//! merge, fan-in ratios, envelope re-origination, duplicate/stale
//! refusal through a hop, crash residue, and throttle forwarding. The
//! scale sweep exercises the same machinery at 1000+ agents under
//! chaos; these tests pin each edge in isolation.

use std::sync::Arc;

use pivot_baggage::Baggage;
use pivot_core::{
    Agent, Bus, Frontend, Ledger, LocalBus, ProcessInfo, QueryHandle, Report, ReportRows,
};
use pivot_model::Value;
use pivot_query::Groups;
use pivot_relay::{FanIn, Relay, RelayCore};

const QUERY: &str = "From e In Exec GroupBy e.k Select e.k, SUM(e.v)";
const MS: u64 = 1_000_000;

fn frontend_with_query() -> (Frontend, QueryHandle) {
    let mut fe = Frontend::new();
    fe.define("Exec", ["k", "v"]);
    let handle = fe.install_named("Q", QUERY).expect("query installs");
    (fe, handle)
}

fn fresh_agent(fe: &Frontend, slot: u64) -> Arc<Agent> {
    let agent = Arc::new(Agent::new(ProcessInfo {
        host: format!("host-{slot}"),
        procid: slot,
        procname: "worker".into(),
    }));
    agent.sync(&fe.installed());
    agent
}

fn invoke(agent: &Agent, now: u64, key: &str, v: i64) {
    let mut bag = Baggage::new();
    agent.invoke(
        "Exec",
        &mut bag,
        now,
        &[("k", Value::str(key)), ("v", Value::I64(v))],
    );
}

fn flush_one(agent: &Agent, now: u64) -> Report {
    let mut reports = agent.flush(now);
    assert_eq!(reports.len(), 1, "one woven query, one report");
    reports.remove(0)
}

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

fn relay_info(slot: u64) -> ProcessInfo {
    ProcessInfo {
        host: format!("relay-{slot}"),
        procid: slot,
        procname: "pivot-relay".into(),
    }
}

/// Three agents behind one relay: the frontend receives *one* merged
/// report per flush instead of three, totals are exact, and the loss
/// books stay balanced through the hop.
#[test]
fn relay_fans_in_and_merges() {
    let (mut fe, handle) = frontend_with_query();
    let mut bus = LocalBus::new();
    for slot in 0..3 {
        bus.register(fresh_agent(&fe, slot));
    }
    let relay = Relay::new(bus, relay_info(0));
    for cmd in fe.drain_commands() {
        relay.broadcast(&cmd);
    }

    for (i, agent) in relay.inner().agents().iter().enumerate() {
        for _ in 0..=i {
            invoke(agent, MS, "a", 1);
        }
    }
    let reports = relay.drain(2 * MS).reports;
    assert_eq!(
        reports.len(),
        1,
        "three downstream streams fan in to one upstream report"
    );
    assert_eq!(reports[0].tuples, 6);
    assert_eq!(reports[0].host, "relay-0", "envelope is re-originated");
    for r in reports {
        fe.accept(r);
    }

    assert_eq!(total(&fe, &handle), 6);
    let loss = fe.results(&handle).loss();
    assert_eq!(loss.tuples_emitted, 6);
    assert_eq!(loss.tuples_delivered, 6);
    assert_eq!(loss.tuples_dropped, 0);
    assert!(!loss.is_degraded());

    let stats = relay.core().stats();
    assert_eq!(stats.reports_in, 3);
    assert_eq!(stats.reports_out, 1);
    assert_eq!(stats.tuples_in, 6);
    assert_eq!(stats.tuples_out, 6);
}

/// A two-hop tree (agents → leaf relays → root relay → frontend) keeps
/// totals exact and the loss identity balanced; the root's merge folds
/// the leaves' already-merged partials (associativity in anger).
#[test]
fn two_hop_tree_balances_exactly() {
    let (mut fe, handle) = frontend_with_query();
    let mut leaves = Vec::new();
    for leaf in 0..2 {
        let mut bus = LocalBus::new();
        for slot in 0..4 {
            bus.register(fresh_agent(&fe, leaf * 4 + slot));
        }
        leaves.push(Relay::new(bus, relay_info(leaf)));
    }
    let root = Relay::new(FanIn::new(leaves), relay_info(9));
    for cmd in fe.drain_commands() {
        root.broadcast(&cmd);
    }

    let mut expect = 0i64;
    for (li, leaf) in root.inner().children().iter().enumerate() {
        for (ai, agent) in leaf.inner().agents().iter().enumerate() {
            let v = (li * 4 + ai + 1) as i64;
            invoke(agent, MS, if ai % 2 == 0 { "even" } else { "odd" }, v);
            expect += v;
        }
    }
    let reports = root.drain(2 * MS).reports;
    assert_eq!(reports.len(), 1, "eight agents, two hops, one frame");
    for r in reports {
        fe.accept(r);
    }

    assert_eq!(total(&fe, &handle), expect);
    let loss = fe.results(&handle).loss();
    assert_eq!(loss.tuples_emitted, 8);
    assert_eq!(loss.tuples_delivered, 8);
    assert_eq!(loss.tuples_dropped, 0);
}

/// A reconnecting downstream link re-delivers a frame; the relay
/// suppresses it exactly like the frontend would, so nothing
/// double-counts through the hop.
#[test]
fn duplicate_through_hop_is_suppressed() {
    let (mut fe, handle) = frontend_with_query();
    let core = RelayCore::new(relay_info(0));
    core.sync(&fe.installed());
    let agent = fresh_agent(&fe, 0);

    for _ in 0..3 {
        invoke(&agent, MS, "a", 1);
    }
    let frame = flush_one(&agent, MS);
    core.absorb(frame.clone());
    core.absorb(frame.clone());
    for r in core.flush(2 * MS) {
        fe.accept(r);
    }
    core.absorb(frame);
    for r in core.flush(3 * MS) {
        fe.accept(r);
    }

    assert_eq!(total(&fe, &handle), 3, "replays merge exactly once");
    let loss = fe.results(&handle).loss();
    assert_eq!(loss.tuples_delivered, 3);
    assert_eq!(loss.tuples_emitted, 3);
    assert_eq!(loss.tuples_dropped, 0);
    let stats = core.stats();
    assert_eq!(stats.reports_in, 1);
    assert_eq!(stats.reports_duplicate, 2);
}

/// An in-flight frame overtaken by a relay restart arrives with a seq
/// before the new incarnation's baseline: it is refused and its tuples
/// surface in `tuples_stale` (they left every ledger), keeping the
/// global ground-truth identity balanced rather than silently leaking.
#[test]
fn stale_frame_after_relay_restart_surfaces_as_loss() {
    let (mut fe, handle) = frontend_with_query();
    let core = RelayCore::new(relay_info(0));
    core.sync(&fe.installed());
    let agent = fresh_agent(&fe, 0);

    // seq 0 delivered through the relay normally.
    invoke(&agent, MS, "a", 1);
    core.absorb(flush_one(&agent, MS));
    for r in core.flush(MS) {
        fe.accept(r);
    }

    // seq 1 is in flight when the relay restarts...
    invoke(&agent, 2 * MS, "a", 1);
    invoke(&agent, 2 * MS, "a", 1);
    let in_flight = flush_one(&agent, 2 * MS);
    let residue = core.restart();
    assert_eq!(residue.window_tuples, 0, "window was flushed");
    core.sync(&fe.installed());

    // ...seq 2 arrives first and sets the new incarnation's baseline.
    invoke(&agent, 3 * MS, "a", 1);
    core.absorb(flush_one(&agent, 3 * MS));
    // The overtaken seq 1 (re-delivered twice) is stale, tallied once.
    core.absorb(in_flight.clone());
    core.absorb(in_flight);
    for r in core.flush(4 * MS) {
        fe.accept(r);
    }

    let loss = fe.results(&handle).loss();
    let stats = core.stats();
    assert_eq!(stats.reports_stale, 2);
    assert_eq!(stats.tuples_stale, 2, "stale tuples tallied exactly once");
    assert_eq!(total(&fe, &handle), 2, "seq 0 + seq 2 delivered");
    assert_eq!(
        loss.tuples_dropped, 0,
        "each relay incarnation balances at the frontend"
    );
    // The harness-level ground truth: everything the agent emitted is
    // either delivered or explicitly surfaced as stale loss.
    let mut books = Ledger::of_agent(&agent, &[handle.id]);
    books += &Ledger::from(loss);
    books += &stats.books().0;
    assert_eq!(books.balance(), Ok(()));
    assert_eq!((books.produced, books.stale), (4, 2));
}

/// A relay crash destroys the open (absorbed but unflushed) window; the
/// residue reports exactly those tuples so a harness can fold them into
/// `crash_lost`, and the post-restart stream balances at the frontend.
#[test]
fn crash_residue_accounts_the_open_window() {
    let (mut fe, handle) = frontend_with_query();
    let core = RelayCore::new(relay_info(0));
    core.sync(&fe.installed());
    let agent = fresh_agent(&fe, 0);

    for _ in 0..3 {
        invoke(&agent, MS, "a", 1);
    }
    core.absorb(flush_one(&agent, MS));
    assert_eq!(core.buffered_tuples(), 3);
    let old_incarnation = core.incarnation();
    let residue = core.restart();
    assert_eq!(residue.window_tuples, 3, "the open window died");
    assert_ne!(core.incarnation(), old_incarnation);
    core.sync(&fe.installed());

    for _ in 0..2 {
        invoke(&agent, 2 * MS, "b", 1);
    }
    core.absorb(flush_one(&agent, 2 * MS));
    for r in core.flush(3 * MS) {
        assert_eq!(r.seq, 0, "fresh incarnation restarts the seq space");
        fe.accept(r);
    }

    let loss = fe.results(&handle).loss();
    assert_eq!(total(&fe, &handle), 2);
    assert_eq!(loss.tuples_dropped, 0, "the new incarnation balances");
    // Ground truth: 5 emitted, 2 delivered, 3 crash-lost residue.
    let mut books = Ledger::of_agent(&agent, &[handle.id]);
    books += &Ledger::from(loss);
    books += &residue.books().0;
    assert_eq!(books.balance(), Ok(()));
    assert_eq!((books.produced, books.crash_lost), (5, 3));
}

/// Every governor `Throttled` notice heard from below rides the window's
/// one upstream frame: no row-less extras, no upstream seq spent on them.
#[test]
fn every_throttle_heard_rides_the_windows_one_frame() {
    let (fe, _handle) = frontend_with_query();
    let core = RelayCore::new(relay_info(0));
    core.sync(&fe.installed());

    let mut frames = Vec::new();
    for slot in 0..2 {
        let agent = fresh_agent(&fe, slot);
        invoke(&agent, MS, "a", 1);
        let mut frame = flush_one(&agent, MS);
        frame.throttled = vec![pivot_core::Throttled {
            query: frame.query,
            reason: pivot_core::ThrottleReason::Tuples,
            stats: pivot_core::ThrottleStats {
                tuples: 5,
                ops: 25,
                bytes: 60,
                trips: 1 + slot as u32,
            },
        }];
        frames.push(frame);
    }
    for f in frames {
        core.absorb(f);
    }
    let out = core.flush(2 * MS);
    assert_eq!(out.len(), 1, "one dirty window, one frame");
    let trips: Vec<u32> = out[0].throttled.iter().map(|t| t.stats.trips).collect();
    assert_eq!(trips, [1, 2], "both trips, in the order they were heard");
    assert_eq!((out[0].tuples, out[0].seq), (2, 0));
    assert!(core.flush(3 * MS).is_empty(), "nothing left over to flush");
}

/// Grouped rows racing ahead of the Install on a link still merge
/// correctly: the one fold never asks the spec, because every
/// aggregate's init state is the merge identity.
#[test]
fn specless_merge_matches_spec_merge() {
    let (fe, _) = frontend_with_query();
    let agent = fresh_agent(&fe, 0);
    for (k, v) in [("a", 3), ("b", 4), ("a", 5)] {
        invoke(&agent, MS, k, v);
    }
    let frame = flush_one(&agent, MS);

    let with_spec = RelayCore::new(relay_info(0));
    with_spec.sync(&fe.installed());
    with_spec.absorb(frame.clone());
    let without_spec = RelayCore::new(relay_info(1));
    without_spec.absorb(frame);

    let mut a = with_spec.flush(2 * MS);
    let mut b = without_spec.flush(2 * MS);
    let (a, b) = (a.remove(0), b.remove(0));
    assert_eq!(a.rows, b.rows, "identical merged groups either way");
    assert_eq!(a.tuples, b.tuples);
}

/// The same groups with every key value, or every accumulator, twice: a
/// well-formed partial that disagrees with the query on its shape.
fn widened(mut report: Report, keys_twice: bool) -> Report {
    let ReportRows::Grouped(groups) = &report.rows else {
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
    report.rows = ReportRows::Grouped(Groups::from_flat(groups.len(), keys, states));
    report
}

/// One shape per window: a partial whose key width or accumulator count
/// differs from the window's is discarded whole — never zipped into the
/// groups it would corrupt, never a panic — while its envelope still
/// counts, so upstream its tuples are `dropped` and the books balance.
/// Whichever partial opens the window sets its shape; the frontend, which
/// knows the query's, then discards a window of the wrong one in turn.
#[test]
fn a_partial_of_another_width_is_dropped_through_the_hop() {
    for (misfit_first, keys_twice) in [(false, false), (true, false), (false, true), (true, true)] {
        let (mut fe, handle) = frontend_with_query();
        let core = RelayCore::new(relay_info(0));
        core.sync(&fe.installed());
        let (honest, odd) = (fresh_agent(&fe, 0), fresh_agent(&fe, 1));
        invoke(&honest, MS, "a", 1);
        for v in [2, 3] {
            invoke(&odd, MS, "a", v);
        }
        let mut frames = [
            flush_one(&honest, MS),
            widened(flush_one(&odd, MS), keys_twice),
        ];
        if misfit_first {
            frames.reverse();
        }
        for frame in frames {
            core.absorb(frame);
        }
        for r in core.flush(2 * MS) {
            fe.accept(r);
        }

        let stats = core.stats();
        assert_eq!(stats.reports_in, 2, "both envelopes count");
        let loss = fe.results(&handle).loss();
        let (delivered, relayed) = if misfit_first { (0, 2) } else { (1, 1) };
        assert_eq!(stats.tuples_in, relayed, "the window took the first width");
        assert_eq!(total(&fe, &handle), delivered);
        assert_eq!(
            (
                loss.tuples_emitted,
                loss.tuples_delivered,
                loss.tuples_dropped
            ),
            (3, delivered as u64, 3 - delivered as u64)
        );
        let mut books = Ledger::of_agent(&honest, &[handle.id]);
        books += &Ledger::of_agent(&odd, &[handle.id]);
        books += &Ledger::from(loss);
        books.dropped = loss.tuples_dropped;
        assert_eq!(books.balance(), Ok(()));
    }
}

/// One kind per window: a body of the other kind than the window's is
/// discarded whole — never stranded beside rows of the window's kind,
/// never counted into its frame — while its envelope still counts, so its
/// tuples are `dropped` upstream and the books balance. The window's kind
/// is the query's, learned from the `Install`; a relay that has not seen
/// it takes the kind of the first body it holds, and the frontend, which
/// knows the query, then discards a window of the wrong one in turn.
#[test]
fn a_body_of_the_other_kind_is_dropped_through_the_hop() {
    let two_queries = || {
        let (mut fe, grouped) = frontend_with_query();
        let streaming = fe
            .install_named("QS", "From e In Exec Select e.k, e.v")
            .expect("streaming query installs");
        (fe, grouped, streaming)
    };
    let (fe, grouped, streaming) = two_queries();
    let (honest, stray) = (fresh_agent(&fe, 0), fresh_agent(&fe, 1));
    invoke(&honest, MS, "a", 1);
    for v in 0..5 {
        invoke(&stray, MS, "b", v);
    }
    // Per query: the honest agent's one tuple, then the stray agent's five
    // in the body the *other* query reports in.
    let (mut from_honest, mut from_stray) = (honest.flush(MS), stray.flush(MS));
    from_honest.sort_unstable_by_key(|r| r.query.0);
    from_stray.sort_unstable_by_key(|r| r.query.0);
    from_stray.reverse();
    for (handle, (mine, theirs)) in [&grouped, &streaming]
        .into_iter()
        .zip(from_honest.into_iter().zip(from_stray))
    {
        assert_ne!(mine.query, theirs.query);
        let stray_frame = Report {
            query: mine.query,
            ..theirs
        };
        for (with_spec, stray_first) in [(true, false), (true, true), (false, false), (false, true)]
        {
            let (mut fe, _, _) = two_queries();
            let core = RelayCore::new(relay_info(0));
            if with_spec {
                core.sync(&fe.installed());
            }
            let mut frames = [mine.clone(), stray_frame.clone()];
            if stray_first {
                frames.reverse();
            }
            for frame in frames {
                core.absorb(frame);
            }
            let out = core.flush(2 * MS);
            assert_eq!(out.len(), 1, "{}: one window, one frame", handle.name);
            // Only a relay that never saw the `Install` lets the stray body
            // open the window, and then the honest one is the misfit.
            let opened_by_stray = !with_spec && stray_first;
            let (relayed, rows) = match opened_by_stray {
                true => (5, stray_frame.rows.len()),
                false => (1, 1),
            };
            assert_eq!(
                (out[0].tuples, out[0].rows.len()),
                (relayed, rows),
                "{}: the frame carries what it claims",
                handle.name
            );
            assert_eq!(core.stats().reports_in, 2, "both envelopes count");
            for r in out {
                fe.accept(r);
            }
            let loss = fe.results(handle).loss();
            let delivered = u64::from(!opened_by_stray);
            assert_eq!(fe.results(handle).len() as u64, delivered);
            assert_eq!(
                (
                    loss.tuples_emitted,
                    loss.tuples_delivered,
                    loss.tuples_dropped
                ),
                (6, delivered, 6 - delivered),
                "{}",
                handle.name
            );
            let mut books = Ledger::of_agent(&honest, &[handle.id]);
            books += &Ledger::of_agent(&stray, &[handle.id]);
            books += &Ledger::from(loss);
            books.dropped = loss.tuples_dropped;
            assert_eq!(books.balance(), Ok(()));
        }
    }
}

/// Streaming (raw-row) queries are coalesced, not merged: every row
/// survives the hop, batched into one frame.
#[test]
fn streaming_rows_coalesce_without_merging() {
    let mut fe = Frontend::new();
    fe.define("Exec", ["k", "v"]);
    let handle = fe
        .install_named("QS", "From e In Exec Select e.k, e.v")
        .expect("streaming query installs");
    let core = RelayCore::new(relay_info(0));
    core.sync(&fe.installed());

    for slot in 0..3 {
        let agent = fresh_agent(&fe, slot);
        invoke(&agent, MS, "k", slot as i64);
        core.absorb(flush_one(&agent, MS));
    }
    let out = core.flush(2 * MS);
    assert_eq!(out.len(), 1, "three raw streams, one coalesced frame");
    assert_eq!(out[0].tuples, 3);
    fe.accept(out.into_iter().next().expect("one frame"));
    assert_eq!(fe.results(&handle).len(), 3, "every raw row survives");
}

/// Retro frames pass through verbatim, but exact (source, ring seq)
/// repeats are suppressed at the hop — and the suppression ledger
/// survives a relay restart, so a late transport duplicate of a frame
/// that died in the crash residue stays refused instead of resurrecting
/// events already counted as lost.
#[test]
fn retro_duplicate_suppressed_across_restart() {
    use pivot_core::{RetroReport, TriggerKind};

    fn retro(seq: u64, events: usize) -> RetroReport {
        RetroReport {
            host: "host-0".into(),
            procid: 7,
            incarnation: 1,
            time: MS,
            seq,
            query: pivot_baggage::QueryId(1),
            kind: TriggerKind::Fault,
            request: 42,
            events: (0..events)
                .map(|i| pivot_core::RetroEvent {
                    tracepoint: Value::str("Exec"),
                    time: MS + i as u64,
                    request: 42,
                    names: Arc::new([]),
                    values: Vec::new(),
                })
                .collect(),
            recorded_cum: events as u64,
            sampled_out_cum: 0,
            shed_cum: 0,
        }
    }

    let core = RelayCore::new(relay_info(0));
    core.absorb_retro(retro(0, 3));
    core.absorb_retro(retro(0, 3)); // transport duplicate
    assert_eq!(core.stats().retro_in, 1);
    assert_eq!(core.stats().retro_duplicate, 1);
    assert_eq!(core.buffered_retro_events(), 3);

    // The queued frame dies with the relay: its events land on the
    // crash-residue books.
    let residue = core.restart();
    assert_eq!(residue.retro_events, 3);

    // A straggler duplicate of the dead frame arrives post-restart. It
    // must stay refused — delivering it would double-count the events.
    core.absorb_retro(retro(0, 3));
    assert_eq!(core.stats().retro_duplicate, 2);
    assert_eq!(core.buffered_retro_events(), 0);
    assert!(core.flush_retro().is_empty());

    // Fresh seqs from the same source still flow.
    core.absorb_retro(retro(1, 2));
    let out = core.flush_retro();
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].seq, 1);
}

/// Any `u64` survives `decode_report`, so a hostile or corrupted frame can
/// carry `seq == u64::MAX`. Both receivers must stay total: no overflow
/// panic in the frontend's gap arithmetic, no wrapped `next_contig` in the
/// relay turning every later frame from that source stale.
#[test]
fn seq_at_u64_max_neither_panics_nor_poisons_the_source() {
    use pivot_live::proto::{decode_message, encode_message, Message};

    let (mut fe, handle) = frontend_with_query();
    let core = RelayCore::new(relay_info(0));
    core.sync(&fe.installed());
    let agent = fresh_agent(&fe, 0);

    let through_the_wire = |mut report: Report, seq: u64| {
        report.seq = seq;
        match decode_message(&encode_message(&Message::Report(report))) {
            Ok(Message::Report(r)) => r,
            other => panic!("a report frame decodes as a report: {other:?}"),
        }
    };

    invoke(&agent, MS, "a", 1);
    let hostile = through_the_wire(flush_one(&agent, MS), u64::MAX);
    assert_eq!(hostile.seq, u64::MAX);
    invoke(&agent, 2 * MS, "a", 1);
    let next = flush_one(&agent, 2 * MS);

    // Frontend: the untrackable seq is refused as a duplicate; `loss()`
    // neither panics nor reports 2^64 - 1 missed frames.
    fe.accept(hostile.clone());
    fe.accept(next.clone());
    let loss = fe.results(&handle).loss();
    assert_eq!(loss.reports_duplicate, 1);
    assert_eq!(loss.reports_accepted, 1);
    assert_eq!(loss.reports_missed, 1, "only seq 0, which never arrived");

    // Relay, first contact at the top of the seq space: the source's
    // window opens at u64::MAX and must not wrap to 0.
    core.absorb(hostile.clone());
    core.absorb(next.clone());
    let stats = core.stats();
    assert_eq!(stats.reports_duplicate, 1, "the hostile frame");
    assert_eq!(stats.reports_stale, 1, "seq 1 precedes that baseline");

    // Relay, hostile frame mid-stream: later frames still flow.
    let core = RelayCore::new(relay_info(1));
    core.sync(&fe.installed());
    core.absorb(next);
    core.absorb(hostile);
    invoke(&agent, 3 * MS, "a", 1);
    core.absorb(flush_one(&agent, 3 * MS));
    let stats = core.stats();
    assert_eq!((stats.reports_in, stats.reports_duplicate), (2, 1));
    assert_eq!(stats.reports_stale, 0, "the source is not poisoned");
}

/// The envelope's counters are as unchecked as its seq: downstream
/// frames claiming `u64::MAX` tuples saturate the relay's window, its
/// cumulative sums and its stats — and the frontend's books behind it —
/// where `+=` panicked (dev) or wrapped (release).
#[test]
fn hostile_envelope_counters_saturate_through_the_hop() {
    let (mut fe, handle) = frontend_with_query();
    let core = RelayCore::new(relay_info(0));
    core.sync(&fe.installed());
    let absorb_hostile = |slot: u64| {
        let agent = fresh_agent(&fe, slot);
        invoke(&agent, MS, "a", 1);
        let mut hostile = flush_one(&agent, MS);
        hostile.tuples = u64::MAX;
        hostile.emitted_cum = u64::MAX;
        core.absorb(hostile);
    };

    absorb_hostile(0);
    absorb_hostile(1);
    assert_eq!(core.buffered_tuples(), u64::MAX);
    assert_eq!(core.stats().tuples_in, u64::MAX);
    let mut upstream = core.flush(2 * MS);
    assert_eq!(upstream.len(), 1);
    assert_eq!(upstream[0].tuples, u64::MAX);
    assert_eq!(upstream[0].emitted_cum, u64::MAX);

    // A second window as large: `tuples_out` meets the ceiling too.
    absorb_hostile(2);
    upstream.extend(core.flush(3 * MS));
    assert_eq!(core.stats().tuples_out, u64::MAX);

    for r in upstream {
        fe.accept(r);
    }
    assert_eq!(total(&fe, &handle), 3, "the rows themselves are honest");
    let loss = fe.results(&handle).loss();
    assert_eq!(loss.tuples_delivered, u64::MAX);
    assert_eq!(loss.tuples_dropped, 0);
}
