//! The wire's one frame corpus and its damage harness, pulled in with
//! `#[path]` by `wire_hostile.rs` and by the root `tests/wire_hostile_slice.rs`,
//! which runs a budgeted slice of it under `cargo test -q`.
//!
//! The [`corpus`] is [`all_frames`], the fixed frames the v8 golden pins,
//! and [`messages`], one of every message kind and report body built from
//! a seed. [`damage`] cuts, pads, flips and inflates a frame; every damaged
//! frame goes through [`refused_or_fixed_point`]. [`variants_in`] names
//! what a message holds, so a test can require every variant of the wire's
//! enums to have a sample. Each binary that includes this module gets its
//! allocator, which remembers the largest single request a decode makes.

#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::Arc;

use pivot_baggage::QueryId;
use pivot_core::{
    Command, Frontend, ProcessInfo, QueryBudget, Report, ReportRows, RetroEvent, RetroReport,
    ThrottleReason, ThrottleStats, Throttled, TriggerKind,
};
use pivot_itc::Encoder;
use pivot_live::proto::{decode_message, encode_message, Message, PROTO_VERSION};
use pivot_model::colblock::MAX_BLOCK_ROWS;
use pivot_model::{codec, AggFunc, AggState, BinOp, EncodedBlock, Tuple, UnOp, Value};
use pivot_query::bytecode::{EInst, ExprProg, Inst};
use pivot_query::{AdviceByteCode, CompiledCode, Groups};

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
pub fn largest_request<R>(f: impl FnOnce() -> R) -> (usize, R) {
    LARGEST.with(|n| n.set(0));
    let out = f();
    (LARGEST.with(Cell::get), out)
}

/// No decode of a test frame (all under 4 KiB) has a reason to ask for
/// more: the decoders' pre-sizing is capped (the widest is 4096 grouped
/// rows, ~400 KiB), and everything else is sized by bytes actually read.
pub const ALLOC_BOUND: usize = 1 << 20;

/// splitmix64: the seed a message is built from.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A counter as an envelope carries it: mostly small, sometimes at an
    /// edge of its encoding or its type.
    pub fn counter(&mut self) -> u64 {
        match self.below(8) {
            0 => 0,
            1 => 127,
            2 => 128,
            3 => u64::from(u32::MAX),
            4 => u64::MAX,
            _ => self.below(100_000),
        }
    }

    pub fn name(&mut self, stem: &str) -> String {
        format!("{stem}-{}", self.below(1000))
    }
}

// ---------------------------------------------------------------------------
// The golden frames
// ---------------------------------------------------------------------------

/// A frontend that knows the two tracepoints the corpus queries read.
fn frontend() -> Frontend {
    let mut fe = Frontend::new();
    fe.define("ClientProtocols", ["procName"]);
    fe.define("DataNodeMetrics.incrBytesRead", ["delta"]);
    fe
}

/// The query `text`'s lowered form, installed first on a [`frontend`].
fn code(text: &str) -> Arc<CompiledCode> {
    let mut fe = frontend();
    let handle = fe.install(text).expect("the corpus queries install");
    fe.code(&handle).expect("bytecode available")
}

/// The frames `wire_bytes_match_the_v8_golden` pins, in its order: one of
/// each kind, a relay-re-originated report (a one-row block beside a
/// columnar one), a batched flush, a hindsight flush and a
/// `Trigger`-carrying install.
pub fn all_frames() -> Vec<Message> {
    let q2 = code(QUERIES[0]);
    let names: Arc<[Arc<str>]> = Arc::new(["op".into(), "bytes".into()]);
    // (host, procid, incarnation, time, seq, tuples)
    type Envelope = (&'static str, u64, u64, u64, u64, u64);
    let report = |(host, procid, incarnation, time, seq, tuples): Envelope, rows| Report {
        query: QueryId(5),
        host: host.into(),
        procid,
        incarnation,
        time,
        seq,
        tuples,
        emitted_cum: tuples,
        shed_cum: 0,
        truncated_cum: 0,
        throttled: vec![],
        rows,
    };
    let tuples = |v: &[(&str, i64)]| -> Vec<Tuple> {
        v.iter()
            .map(|(s, i)| Tuple::from_iter([Value::str(*s), Value::I64(*i)]))
            .collect()
    };
    let batch: Vec<Tuple> = (0..64)
        .map(|i| Tuple::from_iter([Value::str("GET"), Value::U64(i), Value::U64(512)]))
        .collect();
    vec![
        Message::Command(Command::Install(Arc::clone(&q2))),
        Message::Command(Command::Uninstall(QueryId(3))),
        Message::Hello(ProcessInfo {
            host: "host-C".into(),
            procid: 8,
            procname: "kvnode".into(),
        }),
        Message::Report(Report {
            emitted_cum: 11,
            shed_cum: 1,
            truncated_cum: 2,
            throttled: vec![Throttled {
                query: QueryId(5),
                reason: ThrottleReason::Tuples,
                stats: ThrottleStats {
                    tuples: 9,
                    ops: 81,
                    bytes: 108,
                    trips: 1,
                },
            }],
            ..report(
                ("host-A", 31, 2, 9, 3, 5),
                ReportRows::Grouped(Groups::from_flat(
                    1,
                    vec![Value::str("k")],
                    vec![AggFunc::Count.init()],
                )),
            )
        }),
        Message::Sync {
            epoch: 7,
            queries: vec![q2],
            budgets: vec![(QueryId(1), QueryBudget::from_static_bound(Some(60)))],
        },
        Message::Goodbye,
        Message::Command(Command::SetBudget(
            QueryId(2),
            QueryBudget::from_static_bound(Some(48)),
        )),
        Message::HelloRelay(ProcessInfo {
            host: "rack-7".into(),
            procid: 1,
            procname: "pivot-relay".into(),
        }),
        Message::Report(report(
            ("rack-7", 1, 3, 10, 0, 3),
            ReportRows::RawEncoded(vec![
                EncodedBlock::encode(&tuples(&[("a", 1)])),
                EncodedBlock::encode(&tuples(&[("b", 2), ("c", 3)])),
            ]),
        )),
        Message::Report(report(
            ("host-B", 12, 1, 20, 4, 64),
            ReportRows::RawEncoded(vec![EncodedBlock::encode(&batch)]),
        )),
        Message::Retro(RetroReport {
            host: "host-A".into(),
            procid: 31,
            incarnation: 2,
            time: 99,
            seq: 4,
            query: QueryId(5),
            kind: TriggerKind::Advice,
            request: 17,
            events: (0..2)
                .map(|i| RetroEvent {
                    tracepoint: Value::str("KvShard.execute"),
                    time: 90 + i,
                    request: 17,
                    names: Arc::clone(&names),
                    values: vec![Value::str("put"), Value::U64(512 + i)],
                })
                .collect(),
            recorded_cum: 40,
            sampled_out_cum: 6,
            shed_cum: 1,
        }),
        Message::Command(Command::Install(code(QUERIES[3]))),
    ]
}

// ---------------------------------------------------------------------------
// The seeded messages
// ---------------------------------------------------------------------------

/// A join with a filter and three aggregates; a grouped query of two
/// extrema; a streaming query; a `Trigger` query.
pub const QUERIES: [&str; 4] = [
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
pub fn installed() -> (Vec<Arc<CompiledCode>>, Vec<(QueryId, QueryBudget)>) {
    let mut fe = frontend();
    fe.set_enforce_budgets(true);
    for text in QUERIES {
        fe.install(text).expect("the fixture queries install");
    }
    (fe.installed(), fe.budgets())
}

/// One valid program holding every expression instruction, which no
/// query of the language lowers to at once (`Fail` is an unresolvable
/// field, which the verifier refuses).
fn every_expression_instruction() -> Arc<CompiledCode> {
    let einsts = vec![
        EInst::Load { dst: 0, col: 0 },
        EInst::Const { dst: 1, idx: 0 },
        EInst::Binary {
            dst: 0,
            op: BinOp::Add,
            lhs: 0,
            rhs: 1,
        },
        EInst::Unary {
            dst: 0,
            op: UnOp::Neg,
            src: 0,
        },
        EInst::CoerceBool { dst: 0, src: 0 },
        EInst::SkipIfBool {
            src: 0,
            when: false,
            skip: 1,
        },
        EInst::Fail,
    ];
    let program = AdviceByteCode {
        tracepoints: vec!["DataNodeMetrics.incrBytesRead".into()],
        insts: vec![Inst::Observe { names: (0, 1) }, Inst::Filter { pred: 0 }],
        exprs: vec![ExprProg {
            start: 0,
            len: einsts.len() as u32,
            result: 0,
        }],
        einsts,
        consts: vec![Value::I64(1)],
        names: vec!["delta".into()],
        num_regs: 2,
    };
    program.validate().expect("the program is valid");
    Arc::new(CompiledCode {
        id: QueryId(9),
        name: "every-einst".into(),
        programs: vec![Arc::new(program)],
        output: Arc::default(),
    })
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

pub fn retro(rng: &mut Rng, kind: TriggerKind, events: u64) -> Message {
    let names: Arc<[Arc<str>]> = Arc::new(["op".into(), "bytes".into()]);
    Message::Retro(RetroReport {
        host: rng.name("host"),
        procid: rng.counter(),
        incarnation: rng.counter(),
        time: rng.counter(),
        seq: rng.counter(),
        query: QueryId(rng.below(9)),
        kind,
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

/// `n` trips, their reasons in turn.
pub fn throttles(rng: &mut Rng, n: usize) -> Vec<Throttled> {
    let reasons = [
        ThrottleReason::Tuples,
        ThrottleReason::Ops,
        ThrottleReason::Bytes,
    ];
    (0..n)
        .map(|i| Throttled {
            query: QueryId(rng.below(9)),
            reason: reasons[i % 3],
            stats: ThrottleStats {
                tuples: rng.counter(),
                ops: rng.counter(),
                bytes: rng.counter(),
                trips: rng.below(40) as u32,
            },
        })
        .collect()
}

pub fn report(rng: &mut Rng, throttled: usize, rows: ReportRows) -> Message {
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

/// `n` groups of `key_width`-value keys — a string, then integers — and
/// five accumulators, one of each function.
pub fn groups(rng: &mut Rng, n: usize, key_width: usize) -> ReportRows {
    let (mut keys, mut states) = (Vec::new(), Vec::new());
    for i in 0..n {
        keys.extend((0..key_width).map(|c| match c {
            0 => Value::str(rng.name("k")),
            c => Value::from(i + c - 1),
        }));
        states.extend([
            AggState::Count(rng.counter()),
            AggFunc::Sum.init(),
            AggState::Min(Value::I64(-(rng.below(50) as i64))),
            AggState::Max(Value::F64(rng.below(50) as f64 + 0.5)),
            AggState::Average {
                sum: rng.below(1000) as f64,
                count: rng.counter(),
            },
        ]);
    }
    ReportRows::Grouped(Groups::from_flat(n, keys, states))
}

/// Every grouped body shape the corpus holds: none, one and a few groups,
/// under keys of two values, of none (a global aggregate) and of more than
/// a `Tuple` holds inline.
pub fn grouped_bodies(rng: &mut Rng) -> [(&'static str, ReportRows); 5] {
    [
        ("no groups", groups(rng, 0, 2)),
        ("1 group", groups(rng, 1, 2)),
        ("5 groups", groups(rng, 5, 2)),
        ("2 groups, 0-value keys", groups(rng, 2, 0)),
        ("3 groups, 5-value keys", groups(rng, 3, 5)),
    ]
}

/// One of every message kind, and of every body shape a report has.
pub fn messages(seed: u64) -> Vec<(String, Message)> {
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
            "set-budget/unlimited".into(),
            Message::Command(Command::SetBudget(
                QueryId(rng.counter()),
                QueryBudget::unlimited(),
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
    ];
    let kinds = [
        TriggerKind::Advice,
        TriggerKind::Breaker,
        TriggerKind::LatencyOutlier,
        TriggerKind::Fault,
    ];
    for (events, kind) in kinds.into_iter().enumerate() {
        out.push((format!("retro/{events}"), retro(rng, kind, events as u64)));
    }
    let every = every_expression_instruction();
    for (i, code) in codes.iter().chain([&every]).enumerate() {
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

/// The corpus: the golden frames, then the seeded messages of seeds `0..4`.
pub fn corpus() -> impl Iterator<Item = (String, Message)> {
    let golden = all_frames().into_iter().enumerate();
    let golden = golden.map(|(i, m)| (format!("golden/{i}"), m));
    golden.chain((0..4).flat_map(|seed| {
        let seeded = messages(seed).into_iter();
        seeded.map(move |(name, m)| (format!("seed {seed} {name}"), m))
    }))
}

// ---------------------------------------------------------------------------
// Variant coverage
// ---------------------------------------------------------------------------

/// `$name` names a value's variant through a `match` with no wildcard
/// arm, and `$all` lists every name it can return. A variant added to the
/// type fails to compile here until it is listed, and then fails
/// `every_variant_of_the_wire_has_a_sample` until the corpus holds one.
macro_rules! variants {
    ($name:ident, $all:ident, $ty:ident: $($v:ident),+) => {
        pub const $all: &[&str] = &[$(concat!(stringify!($ty), "::", stringify!($v))),+];

        fn $name(x: &$ty) -> &'static str {
            match x {
                $($ty::$v { .. } => concat!(stringify!($ty), "::", stringify!($v)),)+
            }
        }
    };
}

variants!(message, MESSAGE, Message: Hello, Command, Report, Sync, Goodbye, HelloRelay, Retro);
variants!(command, COMMAND, Command: Install, Uninstall, SetBudget);
variants!(rows, ROWS, ReportRows: Grouped, RawEncoded);
variants!(inst, INST, Inst: Observe, Unpack, Filter, Pack, Trigger, Emit);
variants!(einst, EINST, EInst: Load, Const, Unary, Binary, CoerceBool, SkipIfBool, Fail);
variants!(trigger, TRIGGER, TriggerKind: Advice, Breaker, LatencyOutlier, Fault);
variants!(reason, REASON, ThrottleReason: Tuples, Ops, Bytes);

/// Every variant name of the wire's enums.
pub const VARIANTS: [&[&str]; 7] = [MESSAGE, COMMAND, ROWS, INST, EINST, TRIGGER, REASON];

/// Adds the name of every variant `msg` holds to `out`.
pub fn variants_in(msg: &Message, out: &mut BTreeSet<&'static str>) {
    fn code(code: &CompiledCode, out: &mut BTreeSet<&'static str>) {
        for p in &code.programs {
            out.extend(p.insts.iter().map(inst));
            out.extend(p.einsts.iter().map(einst));
        }
    }
    out.insert(message(msg));
    match msg {
        Message::Command(c) => {
            out.insert(command(c));
            if let Command::Install(c) = c {
                code(c, out);
            }
        }
        Message::Sync { queries, .. } => queries.iter().for_each(|c| code(c, out)),
        Message::Report(r) => {
            out.insert(rows(&r.rows));
            out.extend(r.throttled.iter().map(|t| reason(&t.reason)));
        }
        Message::Retro(r) => _ = out.insert(trigger(&r.kind)),
        Message::Hello(_) | Message::HelloRelay(_) | Message::Goodbye => {}
    }
}

// ---------------------------------------------------------------------------
// Damage
// ---------------------------------------------------------------------------

/// `Err`, or a message whose re-encoding decodes to itself — and nothing
/// on the way asked the allocator for more than [`ALLOC_BOUND`].
pub fn refused_or_fixed_point(bytes: &[u8], what: &dyn Fn() -> String) -> bool {
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
pub const HOSTILE: [u64; 12] = [
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

/// Encodes `msg` and requires it to decode to itself, then damages the
/// frame every way there is to judge:
/// - every strict prefix, and the frame followed by one to three more
///   bytes, must be refused;
/// - every single-bit flip, a `^ 0x55` of every byte, and the varint at
///   every offset replaced by each of [`HOSTILE`] must be refused or a
///   fixed point ([`refused_or_fixed_point`]).
///
/// Returns how many damaged frames decoded.
pub fn damage(msg: &Message, name: &str) -> u64 {
    let bytes = encode_message(msg);
    assert_eq!(bytes[0], PROTO_VERSION);
    assert!(bytes.len() < 4096, "{name} is {} bytes", bytes.len());
    let back = decode_message(&bytes).unwrap_or_else(|e| panic!("{name} is refused: {e:?}"));
    assert_eq!(format!("{back:?}"), format!("{msg:?}"), "{name} round trip");
    assert_eq!(encode_message(&back), bytes, "{name} re-encodes");
    let refused = |damaged: &[u8], what: &str| {
        let what = || format!("{name}, {what}");
        assert!(
            !refused_or_fixed_point(damaged, &what),
            "{} decoded",
            what()
        );
    };
    for cut in 0..bytes.len() {
        refused(&bytes[..cut], &format!("cut at {cut}"));
    }
    for tail in [&[0u8][..], &[0x80, 0], &[0xff, 0xff, 0x7f]] {
        refused(&[&bytes[..], tail].concat(), &format!("{tail:?} appended"));
    }
    let mut accepted = 0;
    for at in 0..bytes.len() {
        for mask in (0..8).map(|bit| 1u8 << bit).chain([0x55]) {
            let mut damaged = bytes.clone();
            damaged[at] ^= mask;
            let what = || format!("{name}, byte {at} ^ {mask:#04x}");
            accepted += u64::from(refused_or_fixed_point(&damaged, &what));
        }
    }
    // Offset 0 is the version byte, which the skew sweep holds to an
    // exact error.
    for at in 1..bytes.len() {
        // The field that starts here ends at its first byte without a
        // continuation bit.
        let end = at
            + bytes[at..]
                .iter()
                .position(|b| b & 0x80 == 0)
                .map_or(1, |p| p + 1);
        for to in HOSTILE {
            let mut damaged = bytes[..at].to_vec();
            put_varint(&mut damaged, to);
            damaged.extend_from_slice(&bytes[end..]);
            let what = || format!("{name}, offset {at} := {to:#x}");
            accepted += u64::from(refused_or_fixed_point(&damaged, &what));
        }
    }
    accepted
}

/// A grouped body carries each group's key width and accumulator count,
/// but a partial has one shape: groups that disagree on either are refused
/// at decode, so no tier is ever handed a table it would have to zip
/// ragged rows into.
pub fn groups_that_disagree_on_a_width_are_refused() {
    let rng = &mut Rng(11);
    // The frame up to its grouped body, which for no groups is `1, 0`.
    let none = groups(rng, 0, 2);
    let mut head = encode_message(&report(rng, 0, none));
    assert_eq!(head.split_off(head.len() - 2), [1, 0]);
    // Two groups, each of a (key width, accumulator count).
    let framed = |shapes: [(usize, usize); 2]| {
        let mut body = Encoder::new();
        body.put_u8(1);
        body.put_varint(2);
        for (g, (key_width, width)) in shapes.into_iter().enumerate() {
            body.put_varint(key_width as u64);
            for c in 0..key_width {
                codec::encode_value(&Value::from(g + c), &mut body);
            }
            body.put_varint(width as u64);
            for _ in 0..width {
                AggState::Count(1).encode(&mut body);
            }
        }
        [&head[..], &body.finish()].concat()
    };
    for shape in [(0, 0), (1, 0), (0, 1), (1, 3), (5, 1)] {
        let Ok(Message::Report(r)) = decode_message(&framed([shape; 2])) else {
            panic!("two groups of shape {shape:?} decode");
        };
        let ReportRows::Grouped(back) = r.rows else {
            panic!("as groups");
        };
        assert_eq!(
            (back.len(), back.key_width(), back.width()),
            (2, shape.0, shape.1)
        );
    }
    for shapes in [
        [(1, 1), (1, 2)],
        [(1, 2), (1, 1)],
        [(1, 0), (1, 1)],
        [(1, 3), (1, 0)],
        [(1, 1), (2, 1)],
        [(2, 1), (1, 1)],
        [(0, 1), (1, 1)],
        [(5, 1), (0, 1)],
    ] {
        assert!(
            decode_message(&framed(shapes)).is_err(),
            "groups of shapes {shapes:?} decoded"
        );
    }
}
