//! Hostile frames cannot hurt a reader: `decode_message` is all that stands
//! between a socket and an agent, a relay or the frontend, so every frame
//! must come back as `Err` or as a message that re-encodes to a decode
//! fixed point — never a panic, never an allocation sized by a count
//! nobody checked.
//!
//! Every test reads one corpus (`support/hostile.rs`): the golden frames
//! pin the v8 layout, the skew sweep stamps each with every foreign
//! version, and the damage harness cuts, pads, flips and inflates each of
//! them and of the seeded messages — real `Install`/`Sync` from a
//! `Frontend`, reports with 0/1/64-row blocks and grouped bodies (keys of
//! 0, 2 and 5 values) under 0/1/3 throttles, a retro frame of each trigger
//! kind. Where the fields are public, frames are also damaged on the
//! value: the output spec's lists and column refs and the lowered
//! programs' ranges, which the encoder writes as given and the decoder
//! must refuse.

use std::collections::BTreeSet;
use std::sync::Arc;

use pivot_core::{Command, ReportRows, RetroEvent, TriggerKind};
use pivot_itc::{DecodeError, Decoder, Encoder};
use pivot_live::frame::{read_frame, MAX_FRAME};
use pivot_live::proto::{decode_message, encode_message, Message, PROTO_VERSION};
use pivot_model::colblock::MAX_BLOCK_ROWS;
use pivot_model::{AggFunc, AggState, EncodedBlock, Value};
use pivot_query::advice::ColumnRef;
use pivot_query::bytecode::{Inst, PoolRange};
use pivot_query::{AdviceByteCode, CompiledCode, Groups, OutputSpec};

#[path = "support/hostile.rs"]
mod hostile;
use hostile::{
    all_frames, corpus, damage, installed, largest_request, report, retro, variants_in, Rng,
    ALLOC_BOUND, VARIANTS,
};

/// FNV-1a (64-bit): enough to pin bytes without a dependency.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn wire_bytes_match_the_v8_golden() {
    // `(len, fnv1a)` of every frame in `all_frames()` as the commit
    // that introduced version 8 encoded it: a version-8 capture taken
    // by any build since then decodes today. A deliberate layout
    // change bumps `PROTO_VERSION` and regenerates this table.
    const GOLDEN: [(usize, u64); 12] = [
        (250, 0xb990_78d5_1b41_55f7),
        (3, 0x1e92_1b18_9349_59a4),
        (17, 0x3788_595f_1e7f_8c68),
        (34, 0xb335_1239_aa44_c748),
        (269, 0x5b9f_d4b1_f4e2_dcfe),
        (2, 0x084d_b307_b502_80b6),
        (18, 0x58ab_3b55_e5e2_130d),
        (22, 0xb0e6_c68d_542c_c6e3),
        (44, 0xe8b8_f0c4_0640_6899),
        (104, 0xc1a4_8aee_09a0_6a2f),
        (94, 0x33f5_2956_be21_f13a),
        (107, 0x831d_e682_9c3d_3c15),
    ];
    let got: Vec<(usize, u64)> = all_frames()
        .iter()
        .map(encode_message)
        .map(|f| (f.len(), fnv1a(&f)))
        .collect();
    assert_eq!(got, GOLDEN);
}

#[test]
fn every_frame_rejects_version_skew() {
    // Exactly one version byte is spoken. Every other one — older,
    // newer, zero, 0xFF — fails loudly on every frame, instead of
    // misparsing or being quietly down-read.
    for (name, msg) in corpus() {
        let bytes = encode_message(&msg);
        assert_eq!(bytes[0], PROTO_VERSION);
        for skew in (0..=u8::MAX).filter(|v| *v != PROTO_VERSION) {
            let mut skewed = bytes.clone();
            skewed[0] = skew;
            assert_eq!(
                decode_message(&skewed).err(),
                Some(DecodeError::BadTag("protocol version", skew)),
                "{name}: version byte {skew} must be refused"
            );
        }
    }
}

#[test]
fn every_variant_of_the_wire_has_a_sample() {
    let mut seen = BTreeSet::new();
    for (_, msg) in corpus() {
        variants_in(&msg, &mut seen);
    }
    let missing: Vec<_> = VARIANTS
        .concat()
        .into_iter()
        .filter(|v| !seen.contains(v))
        .collect();
    assert!(missing.is_empty(), "no sample of {missing:?}");
}

#[test]
fn every_frame_damaged_every_way_is_refused_or_a_fixed_point() {
    let accepted: u64 = corpus().map(|(name, msg)| damage(&msg, &name)).sum();
    // The harness is not vacuous: counters and ids take any value.
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
    let names = Arc::new(["v".into()]);
    let Message::Retro(mut flush) = retro(rng, TriggerKind::Fault, 0) else {
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
