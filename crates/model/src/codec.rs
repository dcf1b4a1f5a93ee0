//! Binary codec for values and tuples.
//!
//! This is the wire format used both by baggage serialization (paper §5,
//! measured in Figure 10) and by the agent → frontend message bus. Encoded
//! values are tagged and self-delimiting.

use std::sync::Arc;

use pivot_itc::{DecodeError, Decoder, Encoder};

use crate::tuple::{null_array, Tuple, INLINE_CAP};
use crate::value::Value;

/// Encodes one value.
#[inline]
pub fn encode_value(v: &Value, enc: &mut Encoder) {
    match v {
        Value::Null => enc.put_u8(0),
        Value::Bool(false) => enc.put_u8(1),
        Value::Bool(true) => enc.put_u8(2),
        Value::I64(x) => {
            enc.put_u8(3);
            enc.put_varint_i64(*x);
        }
        Value::U64(x) => {
            enc.put_u8(4);
            enc.put_varint(*x);
        }
        Value::F64(x) => {
            enc.put_u8(5);
            enc.put_f64(*x);
        }
        Value::Str(s) => {
            enc.put_u8(6);
            enc.put_str(s);
        }
        Value::Agg(s) => {
            enc.put_u8(7);
            s.encode(enc);
        }
    }
}

/// Decodes one value.
#[inline]
pub fn decode_value(dec: &mut Decoder<'_>) -> Result<Value, DecodeError> {
    match dec.take_u8()? {
        7 => Ok(Value::Agg(Arc::new(crate::agg::AggState::decode(dec)?))),
        tag => scalar(tag, dec),
    }
}

/// Decodes one value that is not an accumulator — what an accumulator
/// itself holds (an extremum is an observed value; `AggState::update`
/// merges accumulators, it never stores one). Decoding a value therefore
/// never calls itself, and a hostile frame cannot nest it deeper than the
/// reader's stack.
#[inline]
pub(crate) fn decode_scalar(dec: &mut Decoder<'_>) -> Result<Value, DecodeError> {
    let tag = dec.take_u8()?;
    scalar(tag, dec)
}

fn scalar(tag: u8, dec: &mut Decoder<'_>) -> Result<Value, DecodeError> {
    Ok(match tag {
        0 => Value::Null,
        1 => Value::Bool(false),
        2 => Value::Bool(true),
        3 => Value::I64(dec.take_varint_i64()?),
        4 => Value::U64(dec.take_varint()?),
        5 => Value::F64(dec.take_f64()?),
        6 => Value::str(dec.take_str()?),
        t => return Err(DecodeError::BadTag("value", t)),
    })
}

/// Encodes one tuple as a length-prefixed run of values.
#[inline]
pub fn encode_tuple(t: &Tuple, enc: &mut Encoder) {
    enc.put_varint(t.len() as u64);
    for v in t.values() {
        encode_value(v, enc);
    }
}

/// Decodes one tuple. A row the inline representation holds is decoded
/// in place; a longer one through a `Vec` the claimed length sizes only up
/// to 1024 values.
pub fn decode_tuple(dec: &mut Decoder<'_>) -> Result<Tuple, DecodeError> {
    let n = dec.take_varint()? as usize;
    if n <= INLINE_CAP {
        let mut vals = null_array();
        for slot in &mut vals[..n] {
            *slot = decode_value(dec)?;
        }
        return Ok(Tuple::from_inline(n, vals));
    }
    let mut values = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        values.push(decode_value(dec)?);
    }
    Ok(Tuple::new(values))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: Value) -> Value {
        let mut enc = Encoder::new();
        encode_value(&v, &mut enc);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        let out = decode_value(&mut dec).unwrap();
        assert!(dec.is_empty());
        out
    }

    #[test]
    fn value_round_trips() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::I64(-42),
            Value::U64(u64::MAX),
            Value::F64(2.75),
            Value::str("host-A"),
            Value::str(""),
        ] {
            assert_eq!(round_trip(v.clone()), v);
        }
    }

    #[test]
    fn tuple_round_trips() {
        let t = Tuple::from_iter([Value::str("procName"), Value::I64(65536), Value::Null]);
        let mut enc = Encoder::new();
        encode_tuple(&t, &mut enc);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(decode_tuple(&mut dec).unwrap(), t);
    }

    #[test]
    fn empty_tuple_round_trips() {
        let mut enc = Encoder::new();
        encode_tuple(&Tuple::empty(), &mut enc);
        let bytes = enc.finish();
        assert_eq!(bytes, vec![0]);
        let mut dec = Decoder::new(&bytes);
        assert_eq!(decode_tuple(&mut dec).unwrap(), Tuple::empty());
    }

    #[test]
    fn an_accumulator_inside_an_accumulator_is_refused_not_followed() {
        // Agg(Min(Agg(Min(…)))): honest encoders cannot produce it, and
        // following it would recurse once per two bytes of input.
        let bytes: Vec<u8> = std::iter::repeat_n([7u8, 3], 100_000).flatten().collect();
        assert!(matches!(
            decode_value(&mut Decoder::new(&bytes)),
            Err(DecodeError::BadTag("value", 7))
        ));
        // One level is what travels: a partial state inside a tuple.
        let min = Value::Agg(Arc::new(crate::agg::AggState::Min(Value::I64(-3))));
        assert_eq!(round_trip(min.clone()), min);
    }

    #[test]
    fn bad_tag_is_an_error() {
        let mut dec = Decoder::new(&[9]);
        assert!(matches!(
            decode_value(&mut dec),
            Err(DecodeError::BadTag("value", 9))
        ));
    }
}
