//! Baggage wire format.
//!
//! Layout (all integers LEB128):
//!
//! ```text
//! baggage  := version:u8 count:varint instance*        (active first)
//! instance := stamp entry_count:varint (query_id:varint entry)*
//! ```
//!
//! The format is versioned so future layouts can coexist. [`decode`] is
//! the one decoder: a malformed buffer, including one with bytes left
//! over after the last instance, is an error the caller surfaces.

use std::sync::Arc;

use pivot_itc::{DecodeError, Decoder, Encoder, Stamp};

use crate::bag::Baggage;
use crate::entry::Entry;
use crate::instance::{Entries, Instance};
use crate::QueryId;

const VERSION: u8 = 1;

pub(crate) fn encode(bag: &Baggage, enc: &mut Encoder) {
    enc.put_u8(VERSION);
    enc.put_varint(1 + bag.retired().count() as u64);
    encode_instance(bag.stamp(), bag.entries(), enc);
    for inst in bag.retired() {
        encode_instance(&inst.stamp, &inst.entries, enc);
    }
}

fn encode_instance(stamp: &Stamp, entries: &Entries, enc: &mut Encoder) {
    stamp.encode(enc);
    enc.put_varint(entries.len() as u64);
    for (q, entry) in entries.iter() {
        enc.put_varint(q.0);
        entry.encode(enc);
    }
}

pub(crate) fn decode(bytes: &[u8]) -> Result<Baggage, DecodeError> {
    let mut dec = Decoder::new(bytes);
    let version = dec.take_u8()?;
    if version != VERSION {
        return Err(DecodeError::BadTag("baggage version", version));
    }
    let count = dec.take_varint()? as usize;
    if count == 0 {
        return Err(DecodeError::Truncated);
    }
    let mut bag = Baggage::decoded(decode_instance(&mut dec)?);
    for _ in 1..count {
        bag.retire(Arc::new(decode_instance(&mut dec)?));
    }
    if !dec.is_empty() {
        return Err(DecodeError::BadTag("baggage trailing bytes", 0));
    }
    Ok(bag)
}

fn decode_instance(dec: &mut Decoder<'_>) -> Result<Instance, DecodeError> {
    let stamp = Stamp::decode(dec)?;
    let n = dec.take_varint()? as usize;
    let mut entries = Entries::new();
    for _ in 0..n {
        let q = QueryId(dec.take_varint()?);
        let entry = Entry::decode(dec)?;
        entries.insert(q, entry);
    }
    Ok(Instance { stamp, entries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::PackMode;
    use pivot_model::{Tuple, Value};

    fn encode(bag: &Baggage) -> Vec<u8> {
        let mut enc = Encoder::new();
        super::encode(bag, &mut enc);
        enc.finish()
    }

    #[test]
    fn round_trip_with_branches() {
        let mut entries = Entries::new();
        entries.pack(
            QueryId(9),
            &PackMode::Recent(2),
            Tuple::from_iter([Value::U64(42)]),
            0,
        );
        let mut bag = Baggage::new();
        bag.retire(Arc::new(Instance {
            stamp: Stamp::seed().peek(),
            entries,
        }));
        bag.pack(
            QueryId(3),
            &PackMode::All,
            [Tuple::from_iter([Value::str("x"), Value::I64(1)])],
        );
        let bytes = encode(&bag);
        let back = decode(&bytes).unwrap();
        assert_eq!(back, bag);
    }

    #[test]
    fn repeated_and_unsorted_query_ids_decode_as_map_inserts() {
        // Hand-built: the seed stamp, then entries for queries 5, 2 and 5
        // again. The later 5 wins, and the keys come back ascending.
        let t = |v: i64| Tuple::from_iter([Value::I64(v)]);
        let mut enc = Encoder::new();
        enc.put_u8(VERSION);
        enc.put_varint(1);
        Stamp::seed().encode(&mut enc);
        enc.put_varint(3);
        for (q, v) in [(5, 1), (2, 2), (5, 3)] {
            let mut entry = Entry::new(&PackMode::All);
            entry.pack(t(v), 0);
            enc.put_varint(q);
            entry.encode(&mut enc);
        }
        let back = decode(&enc.finish()).unwrap();
        let mut want = Baggage::new();
        want.pack(QueryId(2), &PackMode::All, [t(2)]);
        want.pack(QueryId(5), &PackMode::All, [t(3)]);
        assert_eq!(back, want);
        assert_eq!(encode(&back), encode(&want));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bag = Baggage::new();
        bag.pack(
            QueryId(1),
            &PackMode::All,
            [Tuple::from_iter([Value::I64(1)])],
        );
        let mut bytes = encode(&bag);
        bytes[0] = 99;
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let mut bag = Baggage::new();
        bag.pack(
            QueryId(1),
            &PackMode::All,
            [Tuple::from_iter([Value::str("abcdefgh")])],
        );
        let bytes = encode(&bag);
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}
