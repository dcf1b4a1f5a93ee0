//! Baggage wire format.
//!
//! Layout (all integers LEB128):
//!
//! ```text
//! baggage  := version:u8 count:varint instance*        (active first)
//! instance := stamp entry_count:varint (query_id:varint entry)*
//! ```
//!
//! The format is versioned so future layouts can coexist; decoding a
//! malformed buffer returns an error and the caller degrades to an empty
//! baggage rather than failing the request.

use std::sync::Arc;

use pivot_itc::{DecodeError, Decoder, Encoder, Stamp};

use crate::bag::{Live, Retired};
use crate::entry::Entry;
use crate::instance::Instance;
use crate::QueryId;

const VERSION: u8 = 1;

pub(crate) fn encode(live: &Live, enc: &mut Encoder) {
    enc.put_u8(VERSION);
    enc.put_varint(1 + live.inactive.len() as u64);
    encode_instance(&live.active, enc);
    for inst in live.inactive.iter() {
        encode_instance(inst, enc);
    }
}

fn encode_instance(inst: &Instance, enc: &mut Encoder) {
    inst.stamp.encode(enc);
    enc.put_varint(inst.entries.len() as u64);
    for (q, entry) in &inst.entries {
        enc.put_varint(q.0);
        entry.encode(enc);
    }
}

pub(crate) fn decode(bytes: &[u8]) -> Result<Live, DecodeError> {
    let mut dec = Decoder::new(bytes);
    let version = dec.take_u8()?;
    if version != VERSION {
        return Err(DecodeError::BadTag("baggage version", version));
    }
    let count = dec.take_varint()? as usize;
    if count == 0 {
        return Err(DecodeError::Truncated);
    }
    let active = decode_instance(&mut dec)?;
    let mut inactive = Retired::default();
    for _ in 1..count {
        inactive.push(Arc::new(decode_instance(&mut dec)?));
    }
    Ok(Live { active, inactive })
}

fn decode_instance(dec: &mut Decoder<'_>) -> Result<Instance, DecodeError> {
    let stamp = Stamp::decode(dec)?;
    let n = dec.take_varint()? as usize;
    let mut inst = Instance::new(stamp);
    for _ in 0..n {
        let q = QueryId(dec.take_varint()?);
        let entry = Entry::decode(dec)?;
        inst.entries.insert(q, entry);
    }
    Ok(inst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::PackMode;
    use pivot_model::{Tuple, Value};

    fn encode(live: &Live) -> Vec<u8> {
        let mut enc = Encoder::new();
        super::encode(live, &mut enc);
        enc.finish()
    }

    #[test]
    fn live_round_trip_with_branches() {
        let mut retired = Instance::new(Stamp::seed().peek());
        retired.pack(
            QueryId(9),
            &PackMode::Recent(2),
            Tuple::from_iter([Value::U64(42)]),
            0,
        );
        let mut live = Live {
            active: Instance::new(Stamp::seed()),
            inactive: Retired::default(),
        };
        live.inactive.push(Arc::new(retired));
        live.active.pack(
            QueryId(3),
            &PackMode::All,
            Tuple::from_iter([Value::str("x"), Value::I64(1)]),
            0,
        );
        let bytes = encode(&live);
        let back = decode(&bytes).unwrap();
        assert_eq!(back, live);
    }

    #[test]
    fn wrong_version_rejected() {
        let mut live = Live {
            active: Instance::new(Stamp::seed()),
            inactive: Retired::default(),
        };
        live.active.pack(
            QueryId(1),
            &PackMode::All,
            Tuple::from_iter([Value::I64(1)]),
            0,
        );
        let mut bytes = encode(&live);
        bytes[0] = 99;
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let mut live = Live {
            active: Instance::new(Stamp::seed()),
            inactive: Retired::default(),
        };
        live.active.pack(
            QueryId(1),
            &PackMode::All,
            Tuple::from_iter([Value::str("abcdefgh")]),
            0,
        );
        let bytes = encode(&live);
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}
