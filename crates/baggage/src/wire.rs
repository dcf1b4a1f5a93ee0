//! Baggage wire format.
//!
//! Layout (integers LEB128 unless fixed):
//!
//! ```text
//! baggage := version:u8 retired:varint id{retired} entries entries{retired}
//! entries := count:varint (query_id:varint entry)*
//! id      := location:u64le counter:u32le
//! ```
//!
//! The active instance's entries come first, then the retired instances'
//! oldest first, in the order of the ids ahead of them. Only retired
//! instances carry an id: the active one has no identity (DESIGN.md §5l).
//! [`decode`] is the one decoder, and it accepts this version alone: a
//! malformed buffer, including one with bytes left over after the last
//! instance, is an error the caller surfaces.

use std::sync::Arc;

use pivot_itc::{DecodeError, Decoder, Encoder};

use crate::bag::Baggage;
use crate::entry::Entry;
use crate::instance::{Entries, Id, Instance};
use crate::QueryId;

const VERSION: u8 = 2;

pub(crate) fn encode(bag: &Baggage, enc: &mut Encoder) {
    enc.put_u8(VERSION);
    enc.put_varint(bag.retired().count() as u64);
    for inst in bag.retired() {
        inst.id.encode(enc);
    }
    encode_entries(bag.entries(), enc);
    for inst in bag.retired() {
        encode_entries(&inst.entries, enc);
    }
}

fn encode_entries(entries: &Entries, enc: &mut Encoder) {
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
    let retired = dec.take_varint()?;
    // The ids are read where they lie, so a count is checked against the
    // bytes before anything is sized by it.
    let id_bytes = usize::try_from(retired)
        .ok()
        .and_then(|n| n.checked_mul(Id::LEN))
        .ok_or(DecodeError::Truncated)?;
    let mut ids = Decoder::new(dec.take_raw(id_bytes)?);
    let mut bag = Baggage::decoded(decode_entries(&mut dec)?);
    for _ in 0..retired {
        let id = Id::decode(&mut ids)?;
        let entries = decode_entries(&mut dec)?;
        bag.retire(Arc::new(Instance { id, entries }));
    }
    if !dec.is_empty() {
        return Err(DecodeError::BadTag("baggage trailing bytes", 0));
    }
    Ok(bag)
}

fn decode_entries(dec: &mut Decoder<'_>) -> Result<Entries, DecodeError> {
    let n = dec.take_varint()? as usize;
    let mut entries = Entries::new();
    for _ in 0..n {
        let q = QueryId(dec.take_varint()?);
        let entry = Entry::decode(dec)?;
        entries.insert(q, entry);
    }
    Ok(entries)
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
            id: Id::mint(),
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
        // Hand-built: no retired instance, then active entries for queries
        // 5, 2 and 5 again. The later 5 wins, and the keys come back
        // ascending.
        let t = |v: i64| Tuple::from_iter([Value::I64(v)]);
        let mut enc = Encoder::new();
        enc.put_u8(VERSION);
        enc.put_varint(0);
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
        for version in [0, 1, 3, 99] {
            bytes[0] = version;
            assert!(decode(&bytes).is_err(), "version {version} accepted");
        }
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
