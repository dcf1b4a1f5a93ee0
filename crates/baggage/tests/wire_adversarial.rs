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
    assert!(Baggage::try_from_bytes(&[0x01u8, 0xff, 0xff, 0xff]).is_err());
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

/// A baggage holding one `All` tuple under the given raw stamp bytes.
fn bag_bytes_with_stamp(stamp: &[u8]) -> Vec<u8> {
    let mut bag = Baggage::new();
    bag.pack(QueryId(1), &PackMode::All, [wide_tuple(2, 1)]);
    let own = bag.to_bytes();
    // version, instance count, then the seed stamp `1;0` = [1, 0, 0].
    assert_eq!(own[..5], [1, 1, 1, 0, 0]);
    let mut bytes = vec![1, 1];
    bytes.extend_from_slice(stamp);
    bytes.extend_from_slice(&own[5..]);
    bytes
}

fn assert_refused(bytes: &[u8]) {
    assert!(Baggage::try_from_bytes(bytes).is_err());
}

// The two tests below run on the harness's default 2 MiB test threads: a
// decoder that followed the nesting would overflow them and abort the
// process instead of failing.
#[test]
fn nesting_past_the_bound_is_refused_not_followed() {
    // The reproduced header: 100 000 nested identity nodes in 100 KB.
    let mut id_bomb = vec![1u8, 1];
    id_bomb.extend(std::iter::repeat_n(2u8, 100_000));
    assert_refused(&id_bomb);
    // The same through the event tree, behind a well-formed identity.
    let mut event_bomb = vec![1u8, 1, 1];
    event_bomb.extend(std::iter::repeat_n([1u8, 0], 100_000).flatten());
    assert_refused(&event_bomb);
    // Complete, well-formed trees one level past the bound.
    let too_deep = 1025;
    let mut id = vec![2u8; too_deep];
    id.push(1);
    id.extend(vec![0u8; too_deep]);
    id.extend([0, 0]);
    assert_refused(&bag_bytes_with_stamp(&id));
    let mut event = vec![1u8];
    event.extend(std::iter::repeat_n([1u8, 0, 0, 1], too_deep).flatten());
    event.extend([0, 0]);
    assert_refused(&bag_bytes_with_stamp(&event));
}

#[test]
fn the_deepest_accepted_stamp_is_safe_to_operate_on() {
    // Identity and event trees both 1024 levels deep: the identity owns
    // the innermost left sliver, the event tree has one more event at
    // every level on the way down to it.
    let depth = 1024;
    let mut stamp = vec![2u8; depth];
    stamp.push(1);
    stamp.extend(vec![0u8; depth]);
    stamp.extend(std::iter::repeat_n([1u8, 0], depth).flatten());
    stamp.extend([0, 1]);
    stamp.extend(std::iter::repeat_n([0u8, 0], depth).flatten());
    let bytes = bag_bytes_with_stamp(&stamp);
    let mut bag = Baggage::try_from_bytes(&bytes).expect("at the bound, not past it");
    assert_eq!(bag.to_bytes()[..], bytes[..], "already in normal form");
    // Every recursive kernel walk, at full depth: fork + event (fill and
    // grow) on both halves, join of the deep halves, peek on retirement.
    let mut side = bag.split();
    let mut inner = side.split();
    inner.pack(QueryId(1), &PackMode::All, [wide_tuple(2, 2)]);
    side.join(inner);
    bag.join(side);
    assert_eq!(bag.tuple_count(QueryId(1)), 2);
    // Forking took the identity one level past what a peer accepts.
    let mut deeper = bag.split();
    deeper.pack(QueryId(1), &PackMode::All, [wide_tuple(2, 3)]);
    assert!(Baggage::try_from_bytes(&deeper.to_bytes()).is_err());
}

#[test]
fn event_counters_that_overflow_are_refused_in_every_profile() {
    // The reproduced header: event tree (u64::MAX, 1, 1). Unchecked, its
    // normal form adds 1 to u64::MAX — a panic under debug assertions, a
    // silent wrap to a stamp that breaks `leq` without them.
    let header = [
        0x01, 0x01, 0x01, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00,
        0x01, 0x00, 0x01, 0x00,
    ];
    assert_refused(&header);
    // Spread over two levels so no single counter is out of range:
    // (2^62, (2^62 - 1, 0, 1), 0) sums to 2^63 at its deepest leaf.
    let mut event = vec![1u8];
    event.extend([0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40]);
    event.push(1);
    event.extend([0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f]);
    event.extend([0, 0, 0, 1, 0, 0]);
    let mut stamp = vec![1u8];
    stamp.extend(&event);
    assert_refused(&bag_bytes_with_stamp(&stamp));
    // One event fewer is the largest history there is, and it works.
    let last = stamp.len() - 3;
    stamp[last] = 0;
    let at_the_limit = bag_bytes_with_stamp(&stamp);
    let mut bag = Baggage::try_from_bytes(&at_the_limit).expect("2^63 - 1 fits");
    let side = bag.split();
    bag.join(side);
    assert_eq!(bag.tuple_count(QueryId(1)), 1);
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
