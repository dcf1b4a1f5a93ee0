//! Hostile frames cannot hurt a reader: `decode_message` is all that stands
//! between a socket and an agent, a relay or the frontend, so every frame
//! must come back as `Err` or as a message that re-encodes to a decode
//! fixed point — never a panic, never an allocation sized by a count
//! nobody checked.
//!
//! Structure-aware, in the style of `crates/core/tests/vm_hostile.rs`:
//! every message kind is built valid from a seed — real `Install`/`Sync`
//! from a `Frontend`, reports with 0/1/64-row blocks and grouped bodies
//! (keys of 0, 2 and 5 values) under 0/1/3 throttles, retro frames — and
//! then damaged one field at a time, two ways. On the value, where the
//! fields are public: the output
//! spec's lists and column refs and the lowered programs' ranges, which
//! the encoder writes as given and the decoder must refuse. On the bytes,
//! where they are not: at every offset the varint that starts there is
//! replaced by a hostile one, which reaches each length, tag, count, range
//! and block row header in turn, a state a bit flip mostly decodes away
//! from.

use std::sync::Arc;

use pivot_baggage::QueryId;
use pivot_core::{
    Command, Frontend, ProcessInfo, QueryBudget, ReportRows, RetroEvent, RetroReport, TriggerKind,
};
use pivot_itc::{Decoder, Encoder};
use pivot_live::frame::{read_frame, MAX_FRAME};
use pivot_live::proto::{decode_message, encode_message, Message};
use pivot_model::colblock::MAX_BLOCK_ROWS;
use pivot_model::{AggFunc, AggState, EncodedBlock, Sym, Tuple, Value};
use pivot_query::advice::ColumnRef;
use pivot_query::bytecode::{Inst, PoolRange};
use pivot_query::{AdviceByteCode, CompiledCode, Groups, OutputSpec};

#[path = "support/hostile.rs"]
mod hostile;
use hostile::{grouped_bodies, largest_request, report, sweep, Rng, ALLOC_BOUND};

const QUERIES: [&str; 4] = [
    "From incr In DataNodeMetrics.incrBytesRead \
     Join cl In First(ClientProtocols) On cl -> incr \
     Where incr.delta > 0 && incr.delta != 13 \
     GroupBy cl.procName \
     Select cl.procName, SUM(incr.delta), COUNT, AVERAGE(incr.delta)",
    "From incr In DataNodeMetrics.incrBytesRead GroupBy incr.host \
     Select incr.host, MIN(incr.delta), MAX(incr.delta)",
    "From incr In DataNodeMetrics.incrBytesRead Where incr.delta > 1 \
     Select incr.delta, incr.procname, incr.tracepoint",
    "From incr In DataNodeMetrics.incrBytesRead Where incr.delta > 90 Trigger Select incr.delta",
];

/// The lowered form of [`QUERIES`] and the budgets in force, from a real
/// frontend (verifier included).
fn installed() -> (Vec<Arc<CompiledCode>>, Vec<(QueryId, QueryBudget)>) {
    let mut fe = Frontend::new();
    fe.define("ClientProtocols", ["procName"]);
    fe.define("DataNodeMetrics.incrBytesRead", ["delta"]);
    fe.set_enforce_budgets(true);
    for text in QUERIES {
        fe.install(text).expect("the fixture queries install");
    }
    (fe.installed(), fe.budgets())
}

fn info(rng: &mut Rng) -> ProcessInfo {
    ProcessInfo {
        host: rng.name("host"),
        procid: rng.counter(),
        procname: rng.name("proc"),
    }
}

/// A block of `n` streaming rows; two or more come out columnar, with a
/// constant column (runs), a counting one (deltas) and a cycling one.
fn block(rng: &mut Rng, n: u64) -> EncodedBlock {
    let base = rng.below(1 << 40);
    let rows: Vec<Tuple> = (0..n)
        .map(|i| {
            Tuple::from_iter([
                Value::str("GET"),
                Value::U64(base + i),
                Value::I64(-(i as i64)),
                Value::str(["a", "b", "c"][(i % 3) as usize]),
            ])
        })
        .collect();
    EncodedBlock::encode(&rows)
}

fn retro(rng: &mut Rng, events: u64) -> Message {
    let names = Arc::new(vec![Sym::from("op"), Sym::from("bytes")]);
    Message::Retro(RetroReport {
        host: rng.name("host"),
        procid: rng.counter(),
        incarnation: rng.counter(),
        time: rng.counter(),
        seq: rng.counter(),
        query: QueryId(rng.below(9)),
        kind: [
            TriggerKind::Advice,
            TriggerKind::Breaker,
            TriggerKind::LatencyOutlier,
            TriggerKind::Fault,
        ][rng.below(4) as usize],
        request: rng.counter(),
        events: (0..events)
            .map(|i| RetroEvent {
                tracepoint: Value::str("KvShard.execute"),
                time: i,
                request: rng.counter(),
                names: Arc::clone(&names),
                values: vec![Value::str("put"), Value::U64(rng.counter())],
            })
            .collect(),
        recorded_cum: rng.counter(),
        sampled_out_cum: rng.counter(),
        shed_cum: rng.counter(),
    })
}

/// One of every message kind, and of every body shape a report has.
fn messages(seed: u64) -> Vec<(String, Message)> {
    let rng = &mut Rng(seed);
    let (codes, budgets) = installed();
    let mut out: Vec<(String, Message)> = vec![
        ("hello".into(), Message::Hello(info(rng))),
        ("hello-relay".into(), Message::HelloRelay(info(rng))),
        ("goodbye".into(), Message::Goodbye),
        (
            "uninstall".into(),
            Message::Command(Command::Uninstall(QueryId(rng.counter()))),
        ),
        (
            "set-budget".into(),
            Message::Command(Command::SetBudget(
                QueryId(rng.counter()),
                QueryBudget::from_static_bound(Some(rng.below(4096))),
            )),
        ),
        (
            "sync".into(),
            Message::Sync {
                epoch: rng.counter(),
                queries: codes.clone(),
                budgets,
            },
        ),
        ("retro/0".into(), retro(rng, 0)),
        ("retro/3".into(), retro(rng, 3)),
    ];
    for (i, code) in codes.iter().enumerate() {
        let install = Message::Command(Command::Install(Arc::clone(code)));
        out.push((format!("install/{i}"), install));
    }
    for throttled in [0, 1, 3] {
        let blocks = [
            ("no blocks", ReportRows::RawEncoded(vec![])),
            ("0-row block", ReportRows::RawEncoded(vec![block(rng, 0)])),
            ("1-row block", ReportRows::RawEncoded(vec![block(rng, 1)])),
            ("64-row block", ReportRows::RawEncoded(vec![block(rng, 64)])),
            (
                "1+64+1-row blocks",
                ReportRows::RawEncoded(vec![block(rng, 1), block(rng, 64), block(rng, 1)]),
            ),
        ];
        for (what, rows) in blocks.into_iter().chain(grouped_bodies(rng)) {
            out.push((
                format!("report/{throttled} throttles/{what}"),
                report(rng, throttled, rows),
            ));
        }
    }
    out
}

#[test]
fn every_field_replaced_by_a_hostile_varint_is_refused_or_a_fixed_point() {
    let mut accepted = 0u64;
    for seed in 0..4 {
        for (name, msg) in messages(seed) {
            accepted += sweep(&msg, &format!("seed {seed} {name}"));
        }
    }
    // The sweep is not vacuous: counters and ids take any value.
    assert!(accepted > 1000, "only {accepted} damaged frames decoded");
}

/// Rebuilds `code` with `f` applied to its output spec and to a copy of
/// each program (whose `Emit`s share the damaged spec, as lowering and the
/// decoder both arrange).
fn rebuilt(
    code: &CompiledCode,
    spec: impl FnOnce(&mut OutputSpec),
    program: impl Fn(&mut AdviceByteCode),
) -> Message {
    let mut output = OutputSpec::clone(&code.output);
    spec(&mut output);
    let output = Arc::new(output);
    let programs = code
        .programs
        .iter()
        .map(|p| {
            let mut p = AdviceByteCode::clone(p);
            for inst in &mut p.insts {
                if let Inst::Emit { spec, .. } = inst {
                    *spec = Arc::clone(&output);
                }
            }
            program(&mut p);
            Arc::new(p)
        })
        .collect();
    Message::Command(Command::Install(Arc::new(CompiledCode {
        id: code.id,
        name: code.name.clone(),
        programs,
        output,
    })))
}

/// The `keys` and `aggs` ranges of `p`'s `Emit`, if it has one.
fn emit_mut(p: &mut AdviceByteCode) -> Option<(&mut PoolRange, &mut PoolRange)> {
    p.insts.iter_mut().find_map(|i| match i {
        Inst::Emit { keys, aggs, .. } => Some((keys, aggs)),
        _ => None,
    })
}

#[test]
fn a_spec_that_disagrees_with_its_emit_is_refused_whichever_side_moved() {
    let (codes, _) = installed();
    for (q, code) in codes.iter().enumerate() {
        let refused = |what: &str, msg: Message| {
            let bytes = encode_message(&msg);
            assert!(
                decode_message(&bytes).is_err(),
                "query {q}: {what} was accepted"
            );
        };
        let untouched = |_: &mut AdviceByteCode| {};
        let honest = rebuilt(code, |_| {}, untouched);
        assert!(decode_message(&encode_message(&honest)).is_ok());

        // The name lists against the ranges that compute the row.
        refused(
            "an extra key name",
            rebuilt(code, |s| s.key_names.push("k".into()), untouched),
        );
        refused(
            "an extra aggregate name",
            rebuilt(code, |s| s.agg_names.push("g".into()), untouched),
        );
        refused(
            "an extra aggregate function",
            rebuilt(code, |s| s.aggs.push(AggFunc::Count), untouched),
        );
        if !code.output.key_names.is_empty() {
            let drop_key = |s: &mut OutputSpec| {
                s.key_names.pop();
                s.columns.retain(|c| !matches!(c, ColumnRef::Key(_)));
            };
            refused("a missing key name", rebuilt(code, drop_key, untouched));
        }
        if !code.output.aggs.is_empty() {
            let drop_agg = |s: &mut OutputSpec| {
                s.aggs.pop();
            };
            refused(
                "a missing aggregate function",
                rebuilt(code, drop_agg, untouched),
            );
        }
        // The ranges against the name lists.
        for (what, widen) in [
            ("a key range one wider", true),
            ("a key range one narrower", false),
        ] {
            let moved = move |p: &mut AdviceByteCode| {
                if let Some((keys, _)) = emit_mut(p) {
                    keys.1 = if widen {
                        keys.1 + 1
                    } else {
                        keys.1.saturating_sub(1)
                    };
                }
            };
            if widen || !code.output.key_names.is_empty() {
                refused(what, rebuilt(code, |_| {}, moved));
            }
        }
        refused(
            "an aggregate range one wider",
            rebuilt(
                code,
                |_| {},
                |p| {
                    if let Some((_, aggs)) = emit_mut(p) {
                        aggs.1 += 1;
                    }
                },
            ),
        );
        // A column that names nothing.
        let keys = code.output.key_names.len();
        let aggs = code.output.agg_names.len();
        refused(
            "a key column past the keys",
            rebuilt(code, |s| s.columns.push(ColumnRef::Key(keys)), untouched),
        );
        refused(
            "an aggregate column past the aggregates",
            rebuilt(code, |s| s.columns.push(ColumnRef::Agg(aggs)), untouched),
        );
    }
}

#[test]
fn nested_accumulators_are_refused_not_followed() {
    // `Agg(Min(Agg(Min(…))))`, 100 000 deep, wherever a value can sit: a
    // grouped state, a group key, a retro event's value. An extremum holds
    // an observed value, never another accumulator, so the value decoder
    // has no reason to call itself — and a frame that asks it to must get
    // an error, not the reader's stack.
    const VALUE_AGG: u8 = 7;
    const STATE_MIN: u8 = 3;
    let bomb: Vec<u8> = std::iter::repeat_n([VALUE_AGG, STATE_MIN], 100_000)
        .flatten()
        .collect();
    let rng = &mut Rng(7);

    // One group, its one state `Min(<bomb>)`: the frame up to the state's
    // inner value, then the bomb.
    let probe = report(
        rng,
        0,
        ReportRows::Grouped(Groups::from_flat(
            1,
            vec![],
            vec![AggState::Min(Value::Null)],
        )),
    );
    let mut grouped = encode_message(&probe);
    assert_eq!(grouped.pop(), Some(0), "the frame ends with Min's Null");
    grouped.extend_from_slice(&bomb);
    assert!(decode_message(&grouped).is_err());

    // A retro event whose last value is the bomb.
    let names = Arc::new(vec![Sym::from("v")]);
    let Message::Retro(mut flush) = retro(rng, 0) else {
        unreachable!()
    };
    flush.events.push(RetroEvent {
        tracepoint: Value::Null,
        time: 0,
        request: 0,
        names,
        values: vec![Value::Null],
    });
    let mut retro = encode_message(&Message::Retro(flush));
    assert_eq!(retro.pop(), Some(0), "the frame ends with the Null value");
    retro.extend_from_slice(&bomb);
    assert!(decode_message(&retro).is_err());
}

/// The two-field lie the single-field sweep cannot tell: a row count at
/// its cap *and* a run that long, each plausible alone. A dozen bytes
/// that would have materialized 2^20 values per column, 1024 columns
/// over.
#[test]
fn a_block_claiming_a_million_rows_of_a_thousand_one_run_columns_is_refused() {
    let mut payload = Encoder::new();
    payload.put_u8(1); // columnar
    payload.put_varint(1024); // columns
    payload.put_u8(1); // the first: run-length,
    payload.put_varint(1); // one run
    payload.put_varint(MAX_BLOCK_ROWS as u64); // of every row,
    payload.put_u8(0); // all `Null`
    let mut wire = Encoder::new();
    wire.put_varint(MAX_BLOCK_ROWS as u64);
    wire.put_bytes(&payload.finish());
    let wire = wire.finish();
    assert!(wire.len() <= 16, "{} bytes", wire.len());
    let block = EncodedBlock::read_wire(&mut Decoder::new(&wire)).expect("the header is valid");
    let (largest, rows) = largest_request(|| block.decode());
    assert!(
        rows.is_err(),
        "decoded {} rows",
        rows.map_or(0, |r| r.len())
    );
    assert!(
        largest <= ALLOC_BOUND,
        "refusing the block asked for {largest} bytes at once"
    );
}

#[test]
fn groups_that_disagree_on_a_width_are_refused() {
    hostile::groups_that_disagree_on_a_width_are_refused();
}

/// A length prefix is a claim, not a payload: a peer that announces the
/// largest frame and then closes gets `UnexpectedEof`, having made the
/// reader set aside no more than its first read.
#[test]
fn a_frame_announced_at_its_limit_and_never_sent_pins_no_memory() {
    let announced = (MAX_FRAME as u32).to_be_bytes();
    for sent in [0, 1000, 100_000] {
        let wire = [&announced[..], &vec![7u8; sent]].concat();
        let (largest, read) = largest_request(|| read_frame(&mut &wire[..]));
        let err = read.expect_err("the payload never arrives whole");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert!(
            largest <= (64 << 10).max(2 * sent),
            "{sent} bytes sent: the reader asked for {largest} at once"
        );
    }
}
