//! Minimal binary encoding primitives shared by every wire format in the
//! workspace.
//!
//! The format is deliberately simple: single tag bytes, LEB128 varints for
//! integers, and length-prefixed byte strings. It exists so that baggage
//! (de)serialization costs — measured in the paper's Figure 10 — are fully
//! attributable to code in this repository rather than to a third-party
//! serializer.

use std::fmt;

/// An append-only byte sink.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    #[inline]
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// Creates an encoder with pre-reserved capacity.
    #[inline]
    pub fn with_capacity(cap: usize) -> Encoder {
        Encoder {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Creates an empty encoder that writes into `buf`'s allocation, for a
    /// caller that keeps one buffer across encodings.
    #[inline]
    pub fn reusing(mut buf: Vec<u8>) -> Encoder {
        buf.clear();
        Encoder { buf }
    }

    /// Appends a raw byte.
    #[inline]
    pub fn put_u8(&mut self, b: u8) {
        self.buf.push(b);
    }

    /// Appends bytes as they are (no length prefix).
    #[inline]
    pub fn put_raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends an unsigned LEB128 varint.
    ///
    /// Tags, lengths, query ids and event counts are almost always below
    /// 128: that byte is written in the caller, anything longer by a loop
    /// that stays out of line.
    #[inline]
    pub fn put_varint(&mut self, v: u64) {
        if v < 0x80 {
            self.buf.push(v as u8);
        } else {
            self.put_long_varint(v);
        }
    }

    #[inline(never)]
    fn put_long_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Appends a signed integer using zigzag encoding.
    #[inline]
    pub fn put_varint_i64(&mut self, v: i64) {
        self.put_varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Appends an IEEE-754 double, little endian.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed byte slice.
    #[inline]
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_varint(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Appends a length-prefixed UTF-8 string.
    #[inline]
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Returns the number of bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing has been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder and returns the encoded bytes.
    #[inline]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Errors produced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the value was complete.
    Truncated,
    /// A tag byte had an unexpected value; carries the context and the tag.
    BadTag(&'static str, u8),
    /// A varint exceeded 64 bits.
    VarintOverflow,
    /// A byte string was not valid UTF-8 where a string was required.
    BadUtf8,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "input truncated"),
            DecodeError::BadTag(what, tag) => {
                write!(f, "bad tag {tag:#04x} while decoding {what}")
            }
            DecodeError::VarintOverflow => write!(f, "integer overflows its range"),
            DecodeError::BadUtf8 => write!(f, "invalid utf-8 in string"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A cursor over a byte slice. A clone reads ahead without moving the
/// original.
#[derive(Clone)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder { buf, pos: 0 }
    }

    /// Returns `true` if all input has been consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Returns the number of bytes remaining.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads one byte.
    #[inline]
    pub fn take_u8(&mut self) -> Result<u8, DecodeError> {
        // Spelled as a `match`: through `ok_or_else(..)?` one decoder in
        // `pivot_live` kept a 93-byte copy out of line.
        match self.buf.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => Err(truncated()),
        }
    }

    /// Reads an unsigned LEB128 varint.
    ///
    /// The one-byte case is decided in the caller; a continuation bit, or
    /// the end of the input, goes to a loop that stays out of line.
    #[inline]
    pub fn take_varint(&mut self) -> Result<u64, DecodeError> {
        match self.buf.get(self.pos) {
            Some(&b) if b < 0x80 => {
                self.pos += 1;
                Ok(u64::from(b))
            }
            _ => self.take_long_varint(),
        }
    }

    #[inline(never)]
    fn take_long_varint(&mut self) -> Result<u64, DecodeError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.take_u8()?;
            if shift >= 64 {
                return Err(DecodeError::VarintOverflow);
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Reads a varint that must fit a `u16`.
    #[inline]
    pub fn take_u16(&mut self) -> Result<u16, DecodeError> {
        u16::try_from(self.take_varint()?).map_err(|_| DecodeError::BadTag("u16 overflow", 0))
    }

    /// Reads a varint that must fit a `u32`.
    #[inline]
    pub fn take_u32(&mut self) -> Result<u32, DecodeError> {
        u32::try_from(self.take_varint()?).map_err(|_| DecodeError::BadTag("u32 overflow", 0))
    }

    /// Reads a varint count, then that many items with `item`. The vector
    /// is pre-sized to at most `cap` items: a count is only a claim until
    /// its items have been read.
    #[inline]
    pub fn take_list<T>(
        &mut self,
        cap: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.take_varint()? as usize;
        let mut out = Vec::with_capacity(n.min(cap));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// Reads a zigzag-encoded signed integer.
    #[inline]
    pub fn take_varint_i64(&mut self) -> Result<i64, DecodeError> {
        let v = self.take_varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// Reads an IEEE-754 double.
    #[inline]
    pub fn take_f64(&mut self) -> Result<f64, DecodeError> {
        let rest = self.buf.get(self.pos..);
        let bytes = rest.and_then(|rest| rest.first_chunk());
        let v = f64::from_le_bytes(*bytes.ok_or_else(truncated)?);
        self.pos += 8;
        Ok(v)
    }

    /// Reads `len` bytes as they are (no length prefix).
    #[inline]
    pub fn take_raw(&mut self, len: usize) -> Result<&'a [u8], DecodeError> {
        let rest = self.buf.get(self.pos..);
        let split = rest.and_then(|rest| rest.split_at_checked(len));
        let (out, _) = split.ok_or_else(truncated)?;
        self.pos += len;
        Ok(out)
    }

    /// Reads a length-prefixed byte slice.
    #[inline]
    pub fn take_bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.take_varint()? as usize;
        self.take_raw(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    #[inline]
    pub fn take_str(&mut self) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.take_bytes()?).map_err(|_| bad_utf8())
    }
}

/// The refusals of the inlined readers are built out of line, so a caller
/// carries one cold call per refusal and the compiler lays the accepting
/// path out straight.
#[cold]
#[inline(never)]
fn truncated() -> DecodeError {
    DecodeError::Truncated
}

#[cold]
#[inline(never)]
fn bad_utf8() -> DecodeError {
    DecodeError::BadUtf8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip() {
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        let mut enc = Encoder::new();
        for v in values {
            enc.put_varint(v);
        }
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        for v in values {
            assert_eq!(dec.take_varint().unwrap(), v);
        }
        assert!(dec.is_empty());
    }

    #[test]
    fn signed_varint_round_trip() {
        let values = [0i64, -1, 1, i64::MIN, i64::MAX, -123456789];
        let mut enc = Encoder::new();
        for v in values {
            enc.put_varint_i64(v);
        }
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        for v in values {
            assert_eq!(dec.take_varint_i64().unwrap(), v);
        }
    }

    #[test]
    fn strings_and_floats() {
        let mut enc = Encoder::new();
        enc.put_str("hello");
        enc.put_f64(3.5);
        enc.put_str("");
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.take_str().unwrap(), "hello");
        assert_eq!(dec.take_f64().unwrap(), 3.5);
        assert_eq!(dec.take_str().unwrap(), "");
    }

    #[test]
    fn truncated_input_errors() {
        let mut enc = Encoder::new();
        enc.put_str("hello");
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes[..3]);
        assert_eq!(dec.take_str().unwrap_err(), DecodeError::Truncated);
    }

    #[test]
    fn small_varints_are_single_bytes() {
        let mut enc = Encoder::new();
        enc.put_varint(42);
        assert_eq!(enc.len(), 1);
    }
}
