//! Adversarial round-trip tests for the baggage wire codec.
//!
//! The live TCP runtime (`pivot-live`) puts serialized baggage in message
//! headers received from real peers, so malformed input is no longer a
//! hypothetical: truncated or bit-flipped buffers must decode to an
//! `Err`, never panic or mis-decode, and well-formed extremes (empty
//! bags, maximum-arity tuples) must round-trip exactly.

use pivot_baggage::{Baggage, PackMode, QueryId};
use pivot_model::{Tuple, Value};

#[path = "support/scripts.rs"]
mod scripts;

fn wide_tuple(arity: usize, salt: u64) -> Tuple {
    (0..arity)
        .map(|i| match i % 6 {
            0 => Value::Null,
            1 => Value::Bool(i % 2 == 0),
            2 => Value::I64(-(i as i64) * salt as i64),
            3 => Value::U64(u64::MAX - i as u64),
            4 => Value::F64(i as f64 * 1.5 + salt as f64),
            _ => Value::str(format!("field-{salt}-{i}-{}", "x".repeat(i % 32))),
        })
        .collect()
}

#[test]
fn empty_bag_is_zero_bytes_and_strict_decodes() {
    let mut bag = Baggage::new();
    let bytes = bag.to_bytes();
    assert_eq!(bytes.len(), 0);
    let back = Baggage::try_from_bytes(&bytes).expect("empty is valid");
    assert!(back.is_empty());
}

#[test]
fn max_arity_tuples_round_trip() {
    let mut bag = Baggage::new();
    // Several queries sharing the bag, one with a pathologically wide row.
    bag.pack(QueryId(1), &PackMode::All, [wide_tuple(512, 7)]);
    bag.pack(
        QueryId(u64::MAX / 256),
        &PackMode::Recent(3),
        (0..5).map(|i| wide_tuple(64, i)),
    );
    bag.pack(QueryId(2), &PackMode::First(2), [wide_tuple(1, 0)]);
    let bytes = bag.to_bytes();
    let back = Baggage::try_from_bytes(&bytes).expect("valid encoding");
    assert_eq!(back.unpack(QueryId(1)), vec![wide_tuple(512, 7)]);
    assert_eq!(back.unpack(QueryId(u64::MAX / 256)).len(), 3);
    assert_eq!(back.unpack(QueryId(2)), vec![wide_tuple(1, 0)]);
}

#[test]
fn branched_bag_round_trips_through_strict_decode() {
    let mut main = Baggage::new();
    main.pack(QueryId(4), &PackMode::All, [wide_tuple(8, 1)]);
    let mut side = main.split();
    side.pack(QueryId(4), &PackMode::All, [wide_tuple(8, 2)]);
    main.join(side);
    let bytes = main.to_bytes();
    let back = Baggage::try_from_bytes(&bytes).expect("valid encoding");
    assert_eq!(back.unpack(QueryId(4)).len(), 2);
}

#[test]
fn every_truncation_errors_not_panics() {
    let mut bag = Baggage::new();
    bag.pack(QueryId(9), &PackMode::All, [wide_tuple(24, 3)]);
    let mut side = bag.split();
    side.pack(QueryId(10), &PackMode::Recent(2), [wide_tuple(6, 4)]);
    bag.join(side);
    let bytes = bag.to_bytes();
    assert!(bytes.len() > 16, "want a non-trivial encoding");
    // Every strict prefix is missing declared content.
    for cut in 1..bytes.len() {
        assert!(
            Baggage::try_from_bytes(&bytes[..cut]).is_err(),
            "cut at {cut} of {} decoded successfully",
            bytes.len()
        );
    }
}

#[test]
fn bit_flips_never_panic() {
    let mut bag = Baggage::new();
    bag.pack(
        QueryId(3),
        &PackMode::All,
        (0..4).map(|i| wide_tuple(12, i)),
    );
    let bytes = bag.to_bytes().to_vec();
    for pos in 0..bytes.len() {
        for bit in 0..8 {
            let mut mutated = bytes.clone();
            mutated[pos] ^= 1 << bit;
            // Either outcome is legal; what matters is no panic and that a
            // successful decode stays internally consistent.
            if let Ok(b) = Baggage::try_from_bytes(&mutated) {
                let _ = b.unpack(QueryId(3));
                let _ = b.total_tuples();
            }
        }
    }
}

#[test]
fn garbage_after_the_version_byte_is_refused() {
    assert!(Baggage::try_from_bytes(&[0x02u8, 0xff, 0xff, 0xff]).is_err());
}

#[test]
fn every_golden_step_with_trailing_bytes_is_refused() {
    // A decoder that stopped at the last instance would accept these and
    // forward the junk to the next hop inside the cached bytes.
    let mut sent = 0;
    let mut wire = |bag: &mut Baggage| {
        let bytes = bag.to_bytes();
        for junk in [[0xde, 0xad, 0xbe, 0xef], [0; 4]] {
            for extra in 1..=junk.len() {
                let mut padded = bytes.to_vec();
                padded.extend_from_slice(&junk[..extra]);
                assert!(
                    Baggage::try_from_bytes(&padded).is_err(),
                    "{} bytes plus {extra} trailing decoded",
                    bytes.len()
                );
            }
        }
        sent += 1;
        bytes
    };
    scripts::request_path(&mut wire);
    scripts::fan_out(&mut wire);
    assert_eq!(sent, 17 + 148);
}

/// A baggage that packed one `All` tuple, retired it at a split and
/// packed another: one id, then two entry maps.
fn retired_bag_bytes() -> Vec<u8> {
    let mut bag = Baggage::new();
    bag.pack(QueryId(1), &PackMode::All, [wide_tuple(2, 1)]);
    drop(bag.split());
    bag.pack(QueryId(1), &PackMode::All, [wide_tuple(2, 2)]);
    let bytes = bag.to_bytes().to_vec();
    // Version 2, one retired instance, then its 12-byte id.
    assert_eq!(bytes[..2], [2, 1]);
    bytes
}

/// Where the entry maps start in [`retired_bag_bytes`].
const ENTRIES_AT: usize = 2 + 12;

fn assert_refused(bytes: &[u8]) {
    assert!(Baggage::try_from_bytes(bytes).is_err());
}

#[test]
fn a_version_1_header_is_refused() {
    // The interval-tree-clock layout this one replaced: the first request
    // header of `scripts::request_path` as version 1 encoded it (the
    // seed stamp `1;0`, then one entry), and the reproduced nesting bombs
    // of that layout's stamp decoder. One version is accepted, as on the
    // bus.
    let v1 = [1u8, 1, 1, 0, 0, 1, 0, 0, 1, 1, 1, 3];
    assert_refused(&v1);
    let mut id_bomb = vec![1u8, 1];
    id_bomb.extend(std::iter::repeat_n(2u8, 100_000));
    assert_refused(&id_bomb);
    let mut event_bomb = vec![1u8, 1, 1];
    event_bomb.extend(std::iter::repeat_n([1u8, 0], 100_000).flatten());
    assert_refused(&event_bomb);
    // A well-formed version 2 header, relabelled, is refused too.
    let mut relabelled = retired_bag_bytes();
    assert!(Baggage::try_from_bytes(&relabelled).is_ok());
    relabelled[0] = 1;
    assert_refused(&relabelled);
}

#[test]
fn an_id_cut_short_is_refused() {
    let bytes = retired_bag_bytes();
    // The id table ends inside the input: every cut within it.
    for cut in 2..ENTRIES_AT {
        assert_refused(&bytes[..cut]);
    }
    // The header keeps its length, but claims one id more than it holds:
    // the last id's bytes are read as the entries, which then run short.
    let mut more = bytes;
    more[1] = 2;
    assert_refused(&more);
}

#[test]
fn an_id_count_past_the_bytes_is_refused() {
    // Counts whose ids cannot fit the input, up to one whose byte length
    // overflows a `usize`: each is refused before anything is sized by it.
    let tail = &retired_bag_bytes()[2..];
    for count in [3u64, 1 << 20, u64::MAX / 12 + 1, u64::MAX] {
        let mut enc = pivot_itc::Encoder::new();
        enc.put_u8(2);
        enc.put_varint(count);
        enc.put_raw(tail);
        assert_eq!(
            Baggage::try_from_bytes(&enc.finish()).err(),
            Some(pivot_itc::DecodeError::Truncated),
            "count {count}"
        );
    }
}

#[test]
fn trailing_bytes_after_the_last_entry_map_are_refused() {
    // Hand-built: no retired instance and no active entry is a complete
    // (if unusual) header; one byte more is not.
    assert!(Baggage::try_from_bytes(&[2, 0, 0])
        .expect("complete")
        .is_empty());
    assert_refused(&[2, 0, 0, 0]);
    let mut bytes = retired_bag_bytes();
    let mut bag = Baggage::try_from_bytes(&bytes).expect("own bytes");
    assert_eq!(bag.tuple_count(QueryId(1)), 2);
    assert_eq!(bag.to_bytes()[..], bytes[..]);
    bytes.push(0);
    assert_refused(&bytes);
}

#[test]
fn a_full_inline_string_ending_mid_character_is_bad_utf8_not_a_value() {
    // Exactly the 22 bytes a `Value` holds inline, the last two the head
    // of a three-byte character: the wire slice is validated before it is
    // copied, so no inline string exists that is not UTF-8.
    let honest = format!("{}é", "x".repeat(20));
    assert_eq!(honest.len(), 22);
    let mut bag = Baggage::new();
    bag.pack(
        QueryId(1),
        &PackMode::All,
        [Tuple::from_iter([Value::str(&honest)])],
    );
    let mut bytes = bag.to_bytes().to_vec();
    let at = bytes
        .windows(22)
        .position(|w| w == honest.as_bytes())
        .expect("the string travels verbatim");
    assert!(Baggage::try_from_bytes(&bytes).is_ok());
    bytes[at + 20..at + 22].copy_from_slice(&"€".as_bytes()[..2]);
    assert_eq!(
        Baggage::try_from_bytes(&bytes).err(),
        Some(pivot_itc::DecodeError::BadUtf8)
    );
    assert_refused(&bytes);
}
