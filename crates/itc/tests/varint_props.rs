//! The varint codec across its fast/slow split: `Encoder::put_varint` and
//! `Decoder::take_varint` settle a one-byte value in the caller and hand
//! anything longer to an out-of-line loop. Both halves must write and read
//! the bytes the single loop they replaced did, at every length and at the
//! edges between lengths.

use pivot_itc::{DecodeError, Decoder, Encoder};
use proptest::prelude::*;

/// LEB128 as one loop: the encoder before it was split.
fn reference(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return out;
        }
        out.push(byte | 0x80);
    }
}

fn encoded(v: u64) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_varint(v);
    enc.finish()
}

/// Encodes `v`, checks the bytes and every way of reading them back.
fn check(v: u64) {
    let bytes = encoded(v);
    assert_eq!(bytes, reference(v), "bytes of {v:#x}");
    assert_eq!(
        bytes.len(),
        (64 - v.leading_zeros()).div_ceil(7).max(1) as usize
    );

    // Followed by another value, the cursor stops where the varint does.
    let mut framed = bytes.clone();
    framed.push(0x2a);
    let mut dec = Decoder::new(&framed);
    assert_eq!(dec.take_varint(), Ok(v));
    assert_eq!(dec.remaining(), 1);
    assert_eq!(dec.take_varint(), Ok(0x2a));
    assert!(dec.is_empty());

    // Cut anywhere, it is truncated — never a shorter number.
    for cut in 0..bytes.len() {
        assert_eq!(
            Decoder::new(&bytes[..cut]).take_varint(),
            Err(DecodeError::Truncated),
            "{v:#x} cut to {cut} of {}",
            bytes.len()
        );
    }

    let zigzag = v as i64;
    let mut enc = Encoder::new();
    enc.put_varint_i64(zigzag);
    let bytes = enc.finish();
    assert_eq!(Decoder::new(&bytes).take_varint_i64(), Ok(zigzag));
}

#[test]
fn every_length_edge_round_trips() {
    check(0);
    // 0x7f | 0x80 is the fast/slow edge; 2^63 − 1 | 2^63 the 9/10-byte one.
    for bits in (7..64).step_by(7) {
        check((1u64 << bits) - 1);
        check(1u64 << bits);
    }
    check(u64::MAX);
    assert_eq!(encoded(0x7f), [0x7f]);
    assert_eq!(encoded(0x80), [0x80, 0x01]);
    assert_eq!(encoded(u64::MAX).len(), 10);
}

#[test]
fn an_overlong_varint_is_refused() {
    // Ten continuation bytes, then an eleventh: past 64 bits.
    for last in [0x00, 0x01, 0x7f] {
        let mut bytes = vec![0x80; 10];
        bytes.push(last);
        assert_eq!(
            Decoder::new(&bytes).take_varint(),
            Err(DecodeError::VarintOverflow)
        );
        bytes[..10].fill(0xff);
        assert_eq!(
            Decoder::new(&bytes).take_varint(),
            Err(DecodeError::VarintOverflow)
        );
    }
    // Ten bytes of padding still spell zero, as they always did: the
    // decoder bounds the width, it does not demand the shortest form.
    let mut padded = vec![0x80; 9];
    padded.push(0x00);
    assert_eq!(Decoder::new(&padded).take_varint(), Ok(0));
    assert_eq!(Decoder::new(&[0x80, 0x00]).take_varint(), Ok(0));
}

proptest! {
    /// Any value of any width: `shift` spreads the cases over all ten
    /// encoded lengths instead of leaving nearly all of them at nine or ten.
    #[test]
    fn any_width_round_trips(raw in 0u64..u64::MAX, shift in 0u32..64) {
        check(raw >> shift);
    }
}
