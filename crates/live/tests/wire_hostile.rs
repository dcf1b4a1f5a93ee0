//! Hostile frames cannot hurt a reader: `decode_message` is all that stands
//! between a socket and an agent, a relay or the frontend, so every frame
//! must come back as `Err` or as a message that re-encodes to a decode
//! fixed point — never a panic, never an allocation sized by a count
//! nobody checked.
//!
//! Structure-aware, in the style of `crates/core/tests/vm_hostile.rs`:
//! every message kind is built valid from a seed — real `Install`/`Sync`
//! from a `Frontend`, reports with 0/1/64-row blocks and grouped bodies
//! under 0/1/3 throttles, retro frames — and then damaged one field at a
//! time, two ways. On the value, where the fields are public: the output
//! spec's lists and column refs and the lowered programs' ranges, which
//! the encoder writes as given and the decoder must refuse. On the bytes,
//! where they are not: at every offset the varint that starts there is
//! replaced by a hostile one, which reaches each length, tag, count, range
//! and block row header in turn, a state a bit flip mostly decodes away
//! from.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use pivot_baggage::QueryId;
use pivot_core::{
    Command, Frontend, ProcessInfo, QueryBudget, Report, ReportRows, RetroEvent, RetroReport,
    ThrottleReason, ThrottleStats, Throttled, TriggerKind,
};
use pivot_itc::{Decoder, Encoder};
use pivot_live::proto::{decode_message, encode_message, Message, PROTO_VERSION};
use pivot_model::colblock::MAX_BLOCK_ROWS;
use pivot_model::{AggFunc, AggState, EncodedBlock, GroupKey, Sym, Tuple, Value};
use pivot_query::advice::ColumnRef;
use pivot_query::bytecode::{Inst, PoolRange};
use pivot_query::{AdviceByteCode, CompiledCode, OutputSpec};

/// Remembers the largest single request this thread made of the allocator.
struct Largest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    LARGEST.with(|n| n.set(n.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a store to a const-initialised, destructor-free thread-local, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

/// Runs `f` and returns the largest single allocation it asked for.
fn largest_request<R>(f: impl FnOnce() -> R) -> (usize, R) {
    LARGEST.with(|n| n.set(0));
    let out = f();
    (LARGEST.with(Cell::get), out)
}

/// No decode of a test frame (all under 4 KiB) has a reason to ask for
/// more: the decoders' pre-sizing is capped (the widest is 4096 grouped
/// rows, ~400 KiB), and everything else is sized by bytes actually read.
const ALLOC_BOUND: usize = 1 << 20;

/// splitmix64: the seed a message is built from.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A counter as an envelope carries it: mostly small, sometimes at an
    /// edge of its encoding or its type.
    fn counter(&mut self) -> u64 {
        match self.below(8) {
            0 => 0,
            1 => 127,
            2 => 128,
            3 => u64::from(u32::MAX),
            4 => u64::MAX,
            _ => self.below(100_000),
        }
    }

    fn name(&mut self, stem: &str) -> String {
        format!("{stem}-{}", self.below(1000))
    }
}

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

fn throttles(rng: &mut Rng, n: usize) -> Vec<Throttled> {
    (0..n)
        .map(|_| Throttled {
            query: QueryId(rng.below(9)),
            reason: [
                ThrottleReason::Tuples,
                ThrottleReason::Ops,
                ThrottleReason::Bytes,
            ][rng.below(3) as usize],
            stats: ThrottleStats {
                tuples: rng.counter(),
                ops: rng.counter(),
                bytes: rng.counter(),
                trips: rng.below(40) as u32,
            },
        })
        .collect()
}

fn report(rng: &mut Rng, throttled: usize, rows: ReportRows) -> Message {
    Message::Report(Report {
        query: QueryId(rng.below(9)),
        host: rng.name("host"),
        procid: rng.counter(),
        incarnation: rng.counter(),
        time: rng.counter(),
        seq: rng.counter(),
        tuples: rng.counter(),
        emitted_cum: rng.counter(),
        shed_cum: rng.counter(),
        truncated_cum: rng.counter(),
        throttled: throttles(rng, throttled),
        rows,
    })
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

fn groups(rng: &mut Rng, n: usize) -> ReportRows {
    ReportRows::Grouped(
        (0..n)
            .map(|i| {
                let key = GroupKey(Tuple::from_iter([
                    Value::str(rng.name("k")),
                    Value::from(i),
                ]));
                let states = vec![
                    AggState::Count(rng.counter()),
                    AggFunc::Sum.init(),
                    AggState::Min(Value::I64(-(rng.below(50) as i64))),
                    AggState::Max(Value::F64(rng.below(50) as f64 + 0.5)),
                    AggState::Average {
                        sum: rng.below(1000) as f64,
                        count: rng.counter(),
                    },
                ];
                (key, states)
            })
            .collect(),
    )
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
        let bodies: [(&str, ReportRows); 8] = [
            ("no blocks", ReportRows::RawEncoded(vec![])),
            ("0-row block", ReportRows::RawEncoded(vec![block(rng, 0)])),
            ("1-row block", ReportRows::RawEncoded(vec![block(rng, 1)])),
            ("64-row block", ReportRows::RawEncoded(vec![block(rng, 64)])),
            (
                "1+64+1-row blocks",
                ReportRows::RawEncoded(vec![block(rng, 1), block(rng, 64), block(rng, 1)]),
            ),
            ("no groups", groups(rng, 0)),
            ("1 group", groups(rng, 1)),
            ("5 groups", groups(rng, 5)),
        ];
        for (what, rows) in bodies {
            out.push((
                format!("report/{throttled} throttles/{what}"),
                report(rng, throttled, rows),
            ));
        }
    }
    out
}

/// `Err`, or a message whose re-encoding decodes to itself — and nothing
/// on the way asked the allocator for more than [`ALLOC_BOUND`].
fn refused_or_fixed_point(bytes: &[u8], what: &dyn Fn() -> String) -> bool {
    let (largest, decoded) = largest_request(|| decode_message(bytes));
    assert!(
        largest <= ALLOC_BOUND,
        "{}: decoding asked for {largest} bytes at once",
        what()
    );
    let Ok(msg) = decoded else {
        return false;
    };
    let again = encode_message(&msg);
    let back = decode_message(&again).unwrap_or_else(|e| {
        panic!(
            "{}: accepted, but its re-encoding is refused: {e:?}",
            what()
        )
    });
    assert_eq!(
        encode_message(&back),
        again,
        "{}: not a decode fixed point",
        what()
    );
    // What a frontend goes on to materialize is held to the same terms.
    if let Message::Report(Report {
        rows: ReportRows::RawEncoded(blocks),
        ..
    }) = &msg
    {
        for b in blocks {
            let (largest, _) = largest_request(|| b.decode());
            assert!(
                largest <= ALLOC_BOUND,
                "{}: materializing a block asked for {largest} bytes at once",
                what()
            );
        }
    }
    true
}

/// Varints a field should not survive: the ends of one and two bytes, the
/// edges of `u16`, `u32` and the block row cap, and the top of `u64`.
const HOSTILE: [u64; 12] = [
    0,
    1,
    0x7f,
    0x80,
    0xffff,
    0x1_0000,
    MAX_BLOCK_ROWS as u64,
    MAX_BLOCK_ROWS as u64 + 1,
    0xffff_ffff,
    0x1_0000_0000,
    1 << 63,
    u64::MAX,
];

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

#[test]
fn every_field_replaced_by_a_hostile_varint_is_refused_or_a_fixed_point() {
    let mut accepted = 0u64;
    for seed in 0..4 {
        for (name, msg) in messages(seed) {
            let bytes = encode_message(&msg);
            assert_eq!(bytes[0], PROTO_VERSION);
            assert!(bytes.len() < 4096, "{name} is {} bytes", bytes.len());
            assert!(
                refused_or_fixed_point(&bytes, &|| format!("seed {seed} {name}, undamaged")),
                "seed {seed} {name}: an honest frame decodes"
            );
            // Offset 0 is the version byte, which `proto`'s own tests sweep.
            for at in 1..bytes.len() {
                // The field that starts here ends at its first byte
                // without a continuation bit.
                let end = at
                    + bytes[at..]
                        .iter()
                        .position(|b| b & 0x80 == 0)
                        .map_or(1, |p| p + 1);
                for to in HOSTILE {
                    let mut damaged = bytes[..at].to_vec();
                    put_varint(&mut damaged, to);
                    damaged.extend_from_slice(&bytes[end..]);
                    let what = || format!("seed {seed} {name}, offset {at} := {to:#x}");
                    accepted += u64::from(refused_or_fixed_point(&damaged, &what));
                }
            }
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
        ReportRows::Grouped(vec![(
            GroupKey::default(),
            vec![AggState::Min(Value::Null)],
        )]),
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
