//! Columnar block encoding for batches of report rows.
//!
//! Streaming reports carry many rows whose columns are highly regular:
//! shard ids repeat, timestamps count up, op names cycle through a tiny
//! set. Encoding such a batch row by row ([`codec::encode_tuple`]) spends
//! most of its bytes re-stating what the previous row already said. An
//! [`EncodedBlock`] instead stores the batch column-major and picks a
//! per-column track encoding:
//!
//! - **plain** — the values verbatim (the fallback),
//! - **RLE** — `(run_len, value)` pairs, for columns dominated by repeats,
//! - **delta** — zigzag varint deltas between consecutive integers, for
//!   counters and timestamps.
//!
//! Ragged batches (rows of unequal arity) fall back to a row-major block
//! so every batch round-trips exactly. Blocks are self-contained byte
//! buffers behind an `Arc`, so a relay can forward them — and coalesce
//! several into one report — without decoding a single value.
//!
//! Decoding is hardened the same way the rest of the wire is: row counts
//! are capped, RLE run totals are checked against the claimed row count,
//! and every malformed input returns [`DecodeError`] instead of
//! panicking or over-allocating.

use std::sync::Arc;

use pivot_itc::{DecodeError, Decoder, Encoder};

use crate::codec;
use crate::tuple::Tuple;
use crate::value::Value;

/// Upper bound on rows one block may claim (far above any real flush;
/// a hostile length cannot force a large allocation).
pub const MAX_BLOCK_ROWS: usize = 1 << 20;

/// Upper bound on `rows × width` of a columnar block: what an agent's
/// default streaming row cap (65 536 rows a flush) fills at 64 columns,
/// or [`MAX_BLOCK_ROWS`] at four. A run-length track says "a million of
/// these" in six bytes, so the row bound alone lets a dozen bytes ask for
/// a million values per column, a thousand columns over; the encoder
/// writes a batch beyond this row-major, where every value is a byte read.
pub const MAX_BLOCK_CELLS: usize = 1 << 22;

/// Block kind tag: rows encoded row-major via [`codec::encode_tuple`].
const KIND_ROW_MAJOR: u8 = 0;
/// Block kind tag: rows encoded column-major with per-column tracks.
const KIND_COLUMNAR: u8 = 1;

/// Column track tag: values verbatim.
const TRACK_PLAIN: u8 = 0;
/// Column track tag: run-length encoded `(run_len, value)` pairs.
const TRACK_RLE: u8 = 1;
/// Column track tag: first value + zigzag deltas, all-`I64` column.
const TRACK_DELTA_I64: u8 = 2;
/// Column track tag: first value + zigzag deltas, all-`U64` column.
const TRACK_DELTA_U64: u8 = 3;

/// A batch of rows as one immutable encoded buffer.
///
/// The row count travels beside the bytes so accounting (report `tuples`,
/// relay window caps) never needs to decode the payload.
#[derive(Clone, PartialEq, Debug)]
pub struct EncodedBlock {
    rows: u32,
    bytes: Arc<[u8]>,
}

impl EncodedBlock {
    /// Encodes `rows` into one block, choosing columnar layout when the
    /// batch is uniform and row-major otherwise. Always round-trips
    /// exactly: `decode_into` yields the same tuples in the same order.
    pub fn encode(rows: &[Tuple]) -> EncodedBlock {
        debug_assert!(rows.len() <= MAX_BLOCK_ROWS, "flush far exceeds block cap");
        let mut enc = Encoder::with_capacity(16 + rows.len() * 8);
        let width = rows.first().map_or(0, Tuple::len);
        let uniform = width > 0 && rows.iter().all(|t| t.len() == width);
        if uniform && rows.len() >= 2 && rows.len() * width <= MAX_BLOCK_CELLS {
            enc.put_u8(KIND_COLUMNAR);
            enc.put_varint(width as u64);
            for col in 0..width {
                encode_track(rows, col, &mut enc);
            }
        } else {
            enc.put_u8(KIND_ROW_MAJOR);
            for t in rows {
                codec::encode_tuple(t, &mut enc);
            }
        }
        EncodedBlock {
            rows: rows.len() as u32,
            bytes: enc.finish().into(),
        }
    }

    /// Number of rows this block carries.
    pub fn rows(&self) -> usize {
        self.rows as usize
    }

    /// Encoded payload size in bytes (excluding the row-count header).
    pub fn encoded_len(&self) -> usize {
        self.bytes.len()
    }

    /// Writes the block to the wire: `varint rows` + length-prefixed
    /// payload bytes. No per-value work — this is the relay's
    /// zero-decode forwarding path.
    pub fn write_wire(&self, enc: &mut Encoder) {
        enc.put_varint(u64::from(self.rows));
        enc.put_bytes(&self.bytes);
    }

    /// Reads a block from the wire. The payload is kept as opaque bytes
    /// (values are validated at [`EncodedBlock::decode_into`] time, on
    /// the consumer); the row count is bounds-checked here so a hostile
    /// header cannot inflate accounting or allocation.
    pub fn read_wire(dec: &mut Decoder<'_>) -> Result<EncodedBlock, DecodeError> {
        let rows = dec.take_varint()?;
        if rows > MAX_BLOCK_ROWS as u64 {
            return Err(DecodeError::BadTag("block row count", 0));
        }
        let bytes = dec.take_bytes()?;
        Ok(EncodedBlock {
            rows: rows as u32,
            bytes: bytes.into(),
        })
    }

    /// Decodes every row, appending to `out`. Rejects payloads whose
    /// track lengths, RLE run totals, or trailing bytes disagree with
    /// the claimed row count.
    pub fn decode_into(&self, out: &mut Vec<Tuple>) -> Result<(), DecodeError> {
        let n = self.rows as usize;
        let mut dec = Decoder::new(&self.bytes);
        match dec.take_u8()? {
            KIND_ROW_MAJOR => {
                out.reserve(n.min(4096));
                for _ in 0..n {
                    out.push(codec::decode_tuple(&mut dec)?);
                }
            }
            KIND_COLUMNAR => {
                let width = dec.take_varint()? as usize;
                if width == 0 || width > 1024 {
                    return Err(DecodeError::BadTag("block width", 0));
                }
                // Before any track is materialized.
                if n.saturating_mul(width) > MAX_BLOCK_CELLS {
                    return Err(DecodeError::BadTag("block cell count", 0));
                }
                let mut cols: Vec<Vec<Value>> = Vec::with_capacity(width.min(64));
                for _ in 0..width {
                    cols.push(decode_track(&mut dec, n)?);
                }
                out.reserve(n.min(4096));
                for r in 0..n {
                    // Moved, not cloned: the column is dropped right
                    // after, and a long string's count stays where it is.
                    out.push(cols.iter_mut().map(|c| std::mem::take(&mut c[r])).collect());
                }
            }
            t => return Err(DecodeError::BadTag("block kind", t)),
        }
        if !dec.is_empty() {
            return Err(DecodeError::BadTag("block trailing bytes", 0));
        }
        Ok(())
    }

    /// Decodes into a fresh vector (convenience over `decode_into`).
    pub fn decode(&self) -> Result<Vec<Tuple>, DecodeError> {
        let mut out = Vec::new();
        self.decode_into(&mut out)?;
        Ok(out)
    }
}

/// Encodes one column of `rows` as the cheapest applicable track.
fn encode_track(rows: &[Tuple], col: usize, enc: &mut Encoder) {
    let n = rows.len();
    let mut runs = 1usize;
    let mut all_i64 = true;
    let mut all_u64 = true;
    for (i, t) in rows.iter().enumerate() {
        let v = t.get(col);
        // A run repeats a value exactly as it is held: `I64(5)` next to
        // `U64(5)` are `==` and would decode as two of the first.
        if i > 0 && !v.same_repr(rows[i - 1].get(col)) {
            runs += 1;
        }
        all_i64 &= matches!(v, Value::I64(_));
        all_u64 &= matches!(v, Value::U64(_));
    }
    // Constant and low-cardinality columns compress best as runs; pure
    // integer columns with real variation compress as deltas (repeats
    // become zero-deltas, single varint bytes); anything else verbatim.
    if runs <= n / 2 || runs == 1 {
        enc.put_u8(TRACK_RLE);
        let mut start = 0;
        enc.put_varint(runs as u64);
        while start < n {
            let v = rows[start].get(col);
            let mut end = start + 1;
            while end < n && rows[end].get(col).same_repr(v) {
                end += 1;
            }
            enc.put_varint((end - start) as u64);
            codec::encode_value(v, enc);
            start = end;
        }
    } else if all_i64 {
        enc.put_u8(TRACK_DELTA_I64);
        let mut prev = 0i64;
        for t in rows {
            let Value::I64(x) = *t.get(col) else {
                unreachable!()
            };
            enc.put_varint_i64(x.wrapping_sub(prev));
            prev = x;
        }
    } else if all_u64 {
        enc.put_u8(TRACK_DELTA_U64);
        let mut prev = 0u64;
        for t in rows {
            let Value::U64(x) = *t.get(col) else {
                unreachable!()
            };
            enc.put_varint_i64(x.wrapping_sub(prev) as i64);
            prev = x;
        }
    } else {
        enc.put_u8(TRACK_PLAIN);
        for t in rows {
            codec::encode_value(t.get(col), enc);
        }
    }
}

/// Decodes one column track of exactly `n` values.
fn decode_track(dec: &mut Decoder<'_>, n: usize) -> Result<Vec<Value>, DecodeError> {
    let mut out = Vec::with_capacity(n.min(4096));
    match dec.take_u8()? {
        TRACK_PLAIN => {
            for _ in 0..n {
                out.push(codec::decode_value(dec)?);
            }
        }
        TRACK_RLE => {
            let runs = dec.take_varint()? as usize;
            if runs > n {
                return Err(DecodeError::BadTag("rle run count", 0));
            }
            for _ in 0..runs {
                let len = dec.take_varint()? as usize;
                // Run totals must land exactly on the claimed row count:
                // an overrunning run is a hostile payload, not padding.
                if len == 0 || len > n - out.len() {
                    return Err(DecodeError::BadTag("rle run overrun", 0));
                }
                let v = codec::decode_value(dec)?;
                for _ in 0..len - 1 {
                    out.push(v.clone());
                }
                out.push(v);
            }
        }
        TRACK_DELTA_I64 => {
            let mut prev = 0i64;
            for _ in 0..n {
                prev = prev.wrapping_add(dec.take_varint_i64()?);
                out.push(Value::I64(prev));
            }
        }
        TRACK_DELTA_U64 => {
            let mut prev = 0u64;
            for _ in 0..n {
                prev = prev.wrapping_add(dec.take_varint_i64()? as u64);
                out.push(Value::U64(prev));
            }
        }
        t => return Err(DecodeError::BadTag("column track", t)),
    }
    if out.len() != n {
        return Err(DecodeError::BadTag("rle run underrun", 0));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire_round_trip(block: &EncodedBlock) -> EncodedBlock {
        let mut enc = Encoder::new();
        block.write_wire(&mut enc);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        let back = EncodedBlock::read_wire(&mut dec).expect("wire round trip");
        assert!(dec.is_empty());
        back
    }

    fn check_round_trip(rows: Vec<Tuple>) {
        let block = EncodedBlock::encode(&rows);
        assert_eq!(block.rows(), rows.len());
        assert_eq!(block.decode().expect("decodes"), rows);
        assert_eq!(wire_round_trip(&block).decode().expect("decodes"), rows);
    }

    #[test]
    fn uniform_batch_round_trips_columnar() {
        let rows: Vec<Tuple> = (0..100)
            .map(|i| {
                Tuple::from_iter([
                    Value::str("shard-3"),
                    Value::U64(1_000 + i),
                    Value::I64(-5 * i as i64),
                    Value::Bool(i % 2 == 0),
                ])
            })
            .collect();
        check_round_trip(rows);
    }

    #[test]
    fn ragged_batch_round_trips_row_major() {
        check_round_trip(vec![
            Tuple::from_iter([Value::str("a")]),
            Tuple::from_iter([Value::str("b"), Value::I64(2)]),
            Tuple::empty(),
            Tuple::from_iter([Value::Null, Value::F64(2.5), Value::U64(9)]),
        ]);
    }

    #[test]
    fn empty_and_single_round_trip() {
        check_round_trip(vec![]);
        check_round_trip(vec![Tuple::from_iter([Value::str("only"), Value::U64(1)])]);
    }

    #[test]
    fn repetitive_batch_beats_row_major_by_2x() {
        // The macro-bench shape: constant shard, cycling op, counting
        // timestamp. The whole point of the block codec is that this
        // common case shrinks well past the 2x wire-size gate.
        let rows: Vec<Tuple> = (0..512u64)
            .map(|i| {
                Tuple::from_iter([
                    Value::str("shard-07"),
                    Value::str(if i % 2 == 0 { "get" } else { "put" }),
                    Value::U64(1_000_000 + i),
                    Value::U64(128),
                ])
            })
            .collect();
        let mut row_major = Encoder::new();
        for t in &rows {
            codec::encode_tuple(t, &mut row_major);
        }
        let block = EncodedBlock::encode(&rows);
        assert!(
            block.encoded_len() * 2 <= row_major.len(),
            "columnar {} vs row-major {}",
            block.encoded_len(),
            row_major.len()
        );
        assert_eq!(block.decode().expect("decodes"), rows);
    }

    #[test]
    fn oversized_row_count_rejected() {
        let mut enc = Encoder::new();
        enc.put_varint(MAX_BLOCK_ROWS as u64 + 1);
        enc.put_bytes(&[KIND_ROW_MAJOR]);
        let bytes = enc.finish();
        assert!(matches!(
            EncodedBlock::read_wire(&mut Decoder::new(&bytes)),
            Err(DecodeError::BadTag("block row count", _))
        ));
    }

    #[test]
    fn rle_overrun_rejected() {
        // Claim 4 rows but supply one run of 100: the track decoder must
        // refuse rather than materialize the lie.
        let mut payload = Encoder::new();
        payload.put_u8(KIND_COLUMNAR);
        payload.put_varint(1); // one column
        payload.put_u8(TRACK_RLE);
        payload.put_varint(1); // one run
        payload.put_varint(100); // of length 100
        codec::encode_value(&Value::U64(7), &mut payload);
        let block = EncodedBlock {
            rows: 4,
            bytes: payload.finish().into(),
        };
        assert!(matches!(
            block.decode(),
            Err(DecodeError::BadTag("rle run overrun", _))
        ));
    }

    #[test]
    fn rle_underrun_rejected() {
        // Runs that stop short of the claimed row count are equally bad.
        let mut payload = Encoder::new();
        payload.put_u8(KIND_COLUMNAR);
        payload.put_varint(1);
        payload.put_u8(TRACK_RLE);
        payload.put_varint(1);
        payload.put_varint(2);
        codec::encode_value(&Value::U64(7), &mut payload);
        let block = EncodedBlock {
            rows: 4,
            bytes: payload.finish().into(),
        };
        assert!(matches!(
            block.decode(),
            Err(DecodeError::BadTag("rle run underrun", _))
        ));
    }

    #[test]
    fn truncations_error_not_panic() {
        let rows: Vec<Tuple> = (0..32)
            .map(|i| Tuple::from_iter([Value::str("x"), Value::U64(i)]))
            .collect();
        let block = EncodedBlock::encode(&rows);
        let mut enc = Encoder::new();
        block.write_wire(&mut enc);
        let bytes = enc.finish();
        for cut in 0..bytes.len() {
            let mut dec = Decoder::new(&bytes[..cut]);
            // Either the wire header fails, or the truncated payload
            // fails at decode; neither may panic.
            if let Ok(b) = EncodedBlock::read_wire(&mut dec) {
                let _ = b.decode();
            }
        }
    }

    #[test]
    fn bit_flips_never_panic() {
        let rows: Vec<Tuple> = (0..16)
            .map(|i| Tuple::from_iter([Value::I64(i), Value::str("s")]))
            .collect();
        let block = EncodedBlock::encode(&rows);
        let mut enc = Encoder::new();
        block.write_wire(&mut enc);
        let bytes = enc.finish();
        for pos in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[pos] ^= 0x55;
            let mut dec = Decoder::new(&mutated);
            if let Ok(b) = EncodedBlock::read_wire(&mut dec) {
                let _ = b.decode();
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let rows = vec![
            Tuple::from_iter([Value::U64(1)]),
            Tuple::from_iter([Value::U64(2)]),
        ];
        let block = EncodedBlock::encode(&rows);
        let mut padded: Vec<u8> = block.bytes.to_vec();
        padded.push(0);
        let bad = EncodedBlock {
            rows: block.rows,
            bytes: padded.into(),
        };
        assert!(bad.decode().is_err());
    }
}
