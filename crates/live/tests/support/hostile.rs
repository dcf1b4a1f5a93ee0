//! The hostile-frame generator of `wire_hostile.rs`, pulled in with
//! `#[path]` there and by the root `tests/wire_hostile_slice.rs`, which runs
//! a budgeted slice of it under `cargo test -q`: a seeded message builder,
//! the sweep that replaces every field of a frame by a hostile varint, and
//! the decoder's one-shape-per-partial rule for grouped bodies. Each binary
//! that includes it gets its allocator, which remembers the largest single
//! request a decode makes.

#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pivot_baggage::QueryId;
use pivot_core::{Report, ReportRows, ThrottleReason, ThrottleStats, Throttled};
use pivot_itc::Encoder;
use pivot_live::proto::{decode_message, encode_message, Message, PROTO_VERSION};
use pivot_model::colblock::MAX_BLOCK_ROWS;
use pivot_model::{codec, AggFunc, AggState, Value};
use pivot_query::Groups;

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

pub fn throttles(rng: &mut Rng, n: usize) -> Vec<Throttled> {
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

/// Encodes `msg`, requires it to decode, then replaces the varint at every
/// offset by each of [`HOSTILE`] and requires each damaged frame to be
/// refused or a fixed point. Returns how many damaged frames decoded.
pub fn sweep(msg: &Message, name: &str) -> u64 {
    let bytes = encode_message(msg);
    assert_eq!(bytes[0], PROTO_VERSION);
    assert!(bytes.len() < 4096, "{name} is {} bytes", bytes.len());
    assert!(
        refused_or_fixed_point(&bytes, &|| format!("{name}, undamaged")),
        "{name}: an honest frame decodes"
    );
    let mut accepted = 0;
    // Offset 0 is the version byte, which `proto`'s own tests sweep.
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
