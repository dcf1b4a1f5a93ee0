//! Hostile blocks cannot panic the block decoder: a streaming report's
//! body is a list of [`EncodedBlock`]s straight off a peer's socket, and
//! [`EncodedBlock::decode_into`] is what turns them into rows on the
//! frontend. Whatever the bytes, it returns `Err`, or `Ok` with exactly
//! the claimed row count inside [`MAX_BLOCK_CELLS`].
//!
//! Structure-aware, in the style of `vm_hostile.rs`: blocks are generated
//! valid — columnar (every track kind: runs, deltas, plain values, short
//! and long strings, accumulators) and row-major (ragged or short
//! batches) — walked into a map of their fields, then damaged field by
//! field: the kind byte, the width, each track's tag, run count and run
//! lengths, a row's length, a value's tag, a string's length, an
//! accumulator's tag and a scalar's bytes, as well as the claimed row
//! count, every truncation and trailing bytes.

use std::ops::Range;
use std::sync::Arc;

use pivot_itc::{Decoder, Encoder};
use pivot_model::colblock::MAX_BLOCK_CELLS;
use pivot_model::{AggFunc, EncodedBlock, Tuple, Value};

use proptest::prelude::*;

/// The value of row `r` in a column of `style`, varied by `seed`. Each
/// style leans on one track encoding.
fn cell(style: u8, seed: u64, r: usize) -> Value {
    let r64 = r as u64;
    match style {
        // Long runs: a run-length track.
        0 => Value::U64(seed % 3 + r64 / 50),
        // A short string cycle: runs or plain, inline strings.
        1 => Value::str(["get", "put", "del"][(r + seed as usize) % 3]),
        // Counters: delta tracks of either sign.
        2 => Value::I64((seed % 1000) as i64 - 5 * r as i64),
        3 => Value::U64(seed.wrapping_add(r64 * 1000)),
        // Strings past the inline capacity.
        4 => Value::str(format!(
            "{}{}",
            "long-string-".repeat(2 + (seed % 3) as usize),
            r64 % (1 + seed % 5)
        )),
        // Accumulators, every state kind.
        5 => {
            let func = [
                AggFunc::Count,
                AggFunc::Sum,
                AggFunc::Min,
                AggFunc::Max,
                AggFunc::Average,
            ][r % 5];
            let mut state = func.init();
            state.update(&Value::I64(r as i64 - seed as i64 % 7));
            if r.is_multiple_of(7) {
                state.update(&Value::F64(0.5));
            }
            if func == AggFunc::Min && r.is_multiple_of(3) {
                state = func.init();
                state.update(&Value::str("min-of-a-string-longer-than-inline"));
            }
            Value::Agg(Arc::new(state))
        }
        // Every scalar kind in one column: plain.
        6 => match r % 6 {
            0 => Value::Null,
            1 => Value::Bool(r % 4 == 1),
            2 => Value::I64(-(r as i64)),
            3 => Value::U64(u64::MAX - r64),
            4 => Value::F64(r as f64 * 1.5),
            _ => Value::str(format!("s{r}")),
        },
        _ => Value::F64(r as f64 * 0.25 + seed as f64),
    }
}

#[derive(Clone, Debug)]
struct Spec {
    rows: usize,
    columns: Vec<(u8, u64)>,
    /// Rows of unequal width: a row-major block.
    ragged: bool,
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    (
        0usize..301,
        prop::collection::vec((0u8..8, 0..u64::MAX), 1..9),
        (0u8..5).prop_map(|x| x == 0),
    )
        .prop_map(|(rows, columns, ragged)| Spec {
            rows,
            columns,
            ragged,
        })
}

fn build(spec: &Spec) -> Vec<Tuple> {
    let width = spec.columns.len();
    (0..spec.rows)
        .map(|r| {
            let w = if spec.ragged { 1 + r % width } else { width };
            spec.columns[..w]
                .iter()
                .map(|&(style, seed)| cell(style, seed, r))
                .collect()
        })
        .collect()
}

/// What a field of the payload is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Field {
    Kind,
    Width,
    TrackTag,
    Runs,
    RunLen,
    RowLen,
    ValueTag,
    StrLen,
    AggTag,
    /// A value's varint body.
    Varint,
    /// A float's eight bytes.
    Float,
}

const CLASSES: [Field; 11] = [
    Field::Kind,
    Field::Width,
    Field::TrackTag,
    Field::Runs,
    Field::RunLen,
    Field::RowLen,
    Field::ValueTag,
    Field::StrLen,
    Field::AggTag,
    Field::Varint,
    Field::Float,
];

impl Field {
    fn is_varint(self) -> bool {
        matches!(
            self,
            Field::Width
                | Field::Runs
                | Field::RunLen
                | Field::RowLen
                | Field::StrLen
                | Field::Varint
        )
    }
}

/// Walks a valid payload of `rows` rows into its fields, in order.
struct Walk<'a> {
    dec: Decoder<'a>,
    len: usize,
    fields: Vec<(Field, Range<usize>)>,
}

impl<'a> Walk<'a> {
    fn pos(&self) -> usize {
        self.len - self.dec.remaining()
    }

    fn byte(&mut self, field: Field) -> u8 {
        let at = self.pos();
        let b = self.dec.take_u8().expect("valid payload");
        self.fields.push((field, at..at + 1));
        b
    }

    fn varint(&mut self, field: Field) -> u64 {
        let at = self.pos();
        let v = self.dec.take_varint().expect("valid payload");
        self.fields.push((field, at..self.pos()));
        v
    }

    fn float(&mut self) {
        let at = self.pos();
        self.dec.take_f64().expect("valid payload");
        self.fields.push((Field::Float, at..self.pos()));
    }

    fn value(&mut self) {
        match self.byte(Field::ValueTag) {
            0..=2 => {}
            3 | 4 => {
                self.varint(Field::Varint);
            }
            5 => self.float(),
            6 => {
                let at = self.pos();
                let s = self.dec.take_str().expect("valid payload");
                let mut len = Encoder::new();
                len.put_varint(s.len() as u64);
                self.fields.push((Field::StrLen, at..at + len.len()));
            }
            7 => match self.byte(Field::AggTag) {
                0 | 1 => {
                    self.varint(Field::Varint);
                }
                2 => self.float(),
                3 | 4 => self.value(),
                5 => {
                    self.float();
                    self.varint(Field::Varint);
                }
                t => panic!("agg tag {t}"),
            },
            t => panic!("value tag {t}"),
        }
    }

    fn payload(payload: &'a [u8], rows: usize) -> Vec<(Field, Range<usize>)> {
        let mut w = Walk {
            dec: Decoder::new(payload),
            len: payload.len(),
            fields: Vec::new(),
        };
        if w.byte(Field::Kind) == 0 {
            for _ in 0..rows {
                for _ in 0..w.varint(Field::RowLen) {
                    w.value();
                }
            }
        } else {
            for _ in 0..w.varint(Field::Width) {
                match w.byte(Field::TrackTag) {
                    0 => (0..rows).for_each(|_| w.value()),
                    1 => {
                        for _ in 0..w.varint(Field::Runs) {
                            w.varint(Field::RunLen);
                            w.value();
                        }
                    }
                    _ => (0..rows).for_each(|_| {
                        w.varint(Field::Varint);
                    }),
                }
            }
        }
        assert!(w.dec.is_empty(), "the walk covers the payload");
        w.fields
    }
}

/// The payload [`EncodedBlock::write_wire`] puts after the row count.
fn payload_of(block: &EncodedBlock) -> Vec<u8> {
    let mut enc = Encoder::new();
    block.write_wire(&mut enc);
    let wire = enc.finish();
    let mut dec = Decoder::new(&wire);
    dec.take_varint().expect("row count");
    dec.take_bytes().expect("payload").to_vec()
}

/// Frames `payload` under a claimed row count and decodes it: `Err`, or
/// `Ok` with exactly the claimed rows inside the cell bound.
fn decode(claim: u64, payload: &[u8]) -> Result<Vec<Tuple>, ()> {
    let mut enc = Encoder::new();
    enc.put_varint(claim);
    enc.put_bytes(payload);
    let wire = enc.finish();
    let block = EncodedBlock::read_wire(&mut Decoder::new(&wire)).map_err(|_| ())?;
    let mut out = Vec::new();
    block.decode_into(&mut out).map_err(|_| ())?;
    assert_eq!(out.len(), block.rows(), "rows other than claimed");
    let cells: usize = out.iter().map(Tuple::len).sum();
    assert!(cells <= MAX_BLOCK_CELLS, "{cells} cells");
    Ok(out)
}

/// One field overwritten: the `at`-th field of class `class` (any field
/// when the block has none of that class), replaced by the `pick`-th
/// hostile value.
#[derive(Clone, Copy, Debug)]
struct Damage {
    class: usize,
    at: usize,
    pick: usize,
    raw: u8,
}

fn damage_strategy() -> impl Strategy<Value = Damage> {
    (0..CLASSES.len(), 0..usize::MAX, 0..usize::MAX, 0..u8::MAX).prop_map(
        |(class, at, pick, raw)| Damage {
            class,
            at,
            pick,
            raw,
        },
    )
}

fn varint_bytes(v: u64) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_varint(v);
    enc.finish()
}

fn apply(payload: &[u8], fields: &[(Field, Range<usize>)], d: Damage) -> Vec<u8> {
    let of_class: Vec<&(Field, Range<usize>)> = fields
        .iter()
        .filter(|(f, _)| *f == CLASSES[d.class])
        .collect();
    let (field, range) = if of_class.is_empty() {
        &fields[d.at % fields.len()]
    } else {
        of_class[d.at % of_class.len()]
    };
    let mut out = payload[..range.start].to_vec();
    if field.is_varint() {
        let was = Decoder::new(&payload[range.clone()])
            .take_varint()
            .expect("a varint field");
        let cells = MAX_BLOCK_CELLS as u64;
        // Off-by-one around the truth, the bounds the decoder checks, and
        // what a varint can say; then the encodings no encoder writes.
        let hostile = [
            0,
            1,
            was.wrapping_sub(1),
            was.wrapping_add(1),
            was.saturating_mul(2),
            1024,
            1025,
            cells,
            cells + 1,
            u64::from(u32::MAX),
            u64::MAX,
        ];
        match d.pick % (hostile.len() + 2) {
            i if i < hostile.len() => out.extend(varint_bytes(hostile[i])),
            i if i == hostile.len() => out.extend([0x80, 0x80, 0x00]),
            _ => out.extend([0xff; 11]),
        }
    } else if *field == Field::Float {
        out.extend_from_slice(&payload[range.clone()]);
        out[range.start] ^= d.raw | 1;
    } else {
        out.push(d.raw);
    }
    out.extend_from_slice(&payload[range.end..]);
    out
}

/// Trailing junk: zeros (what padding looks like) and a pattern.
fn with_trailing(payload: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    [[0u8; 4], [0xde, 0xad, 0xbe, 0xef]]
        .into_iter()
        .flat_map(move |junk| {
            (1..=junk.len()).map(move |extra| {
                let mut out = payload.to_vec();
                out.extend_from_slice(&junk[..extra]);
                out
            })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn a_damaged_block_is_refused_or_decodes_inside_its_bounds(
        spec in spec_strategy(),
        damage in prop::collection::vec(damage_strategy(), 32..33),
    ) {
        let rows = build(&spec);
        let block = EncodedBlock::encode(&rows);
        let payload = payload_of(&block);
        prop_assert_eq!(decode(rows.len() as u64, &payload), Ok(rows.clone()));
        let fields = Walk::payload(&payload, rows.len());
        let n = rows.len() as u64;

        for d in damage {
            let _ = decode(n, &apply(&payload, &fields, d));
        }
        for claim in [0, n.saturating_sub(1), n + 1, 1 << 20, (1 << 20) + 1, u64::MAX] {
            let _ = decode(claim, &payload);
        }
        // Truncation at the start of every field and one byte into it.
        for (_, range) in &fields {
            for cut in [range.start, range.start + 1] {
                if cut < payload.len() {
                    prop_assert!(decode(n, &payload[..cut]).is_err(), "cut at {}", cut);
                }
            }
        }
        for padded in with_trailing(&payload) {
            prop_assert!(decode(n, &padded).is_err(), "{} trailing bytes", padded.len() - payload.len());
        }
    }
}

#[test]
fn every_cut_of_every_style_is_refused() {
    for style in 0..8u8 {
        for rows in [0usize, 1, 2, 17] {
            for ragged in [false, true] {
                let spec = Spec {
                    rows,
                    columns: (0..3)
                        .map(|c| ((style + c) % 8, 40 + u64::from(c)))
                        .collect(),
                    ragged,
                };
                let rows = build(&spec);
                let payload = payload_of(&EncodedBlock::encode(&rows));
                assert_eq!(decode(rows.len() as u64, &payload), Ok(rows.clone()));
                for cut in 0..payload.len() {
                    assert!(
                        decode(rows.len() as u64, &payload[..cut]).is_err(),
                        "style {style}, {} rows, cut at {cut} of {}",
                        rows.len(),
                        payload.len()
                    );
                }
            }
        }
    }
}
