//! The binary encoding primitives every wire format in the workspace is
//! written with: single tag bytes, LEB128 varints, fixed-width raw bytes
//! and length-prefixed byte strings, behind one [`Encoder`], one
//! [`Decoder`] and one [`DecodeError`].
//!
//! # Examples
//!
//! ```
//! use pivot_itc::{Decoder, Encoder};
//!
//! let mut enc = Encoder::new();
//! enc.put_varint(300);
//! enc.put_str("baggage");
//! let bytes = enc.finish();
//! let mut dec = Decoder::new(&bytes);
//! assert_eq!(dec.take_varint(), Ok(300));
//! assert_eq!(dec.take_str(), Ok("baggage"));
//! assert!(dec.is_empty());
//! ```

mod encode;

pub use encode::{DecodeError, Decoder, Encoder};
