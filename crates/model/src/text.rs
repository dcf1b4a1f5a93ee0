//! The string a [`crate::Value`] holds.
//!
//! Tracepoint exports are short — `client-17`, `get`, `key-0123`, a host
//! name — and a request builds and drops half a dozen of them whether or
//! not anything is woven. [`Str`] keeps up to [`INLINE`] bytes in the
//! value itself, so such a string costs a 24-byte store and no call to the
//! allocator; a longer one is the shared `Arc<str>` it always was, and
//! cloning it bumps a reference count.
//!
//! Which arm holds a string is a function of its length alone, and every
//! observable — equality, order, hash, `Display`, `Debug`, the codec's
//! bytes — is a function of its text alone.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// Bytes a [`Str`] holds without allocating. Not a setting: a `Value` is
/// 24 bytes, of which the inline arm spends one on `Repr`'s tag and one on
/// the length.
pub const INLINE: usize = 22;

/// An immutable string: inline up to [`INLINE`] bytes, shared beyond.
///
/// `Repr`'s tag takes two of a byte's values, which leaves the enum
/// around it (`Value`) the rest for its own tag: wrapping a `Str` costs
/// no space.
#[derive(Clone)]
pub struct Str(Repr);

#[derive(Clone)]
enum Repr {
    /// `buf[..len]` is UTF-8 — copied from a `&str` by `Str::inline`, the
    /// only place this variant is built — and `len <= INLINE`.
    Inline { len: u8, buf: [u8; INLINE] },
    /// Longer than [`INLINE`] bytes.
    Heap(Arc<str>),
}

impl Str {
    /// Copies `s`: into the value when it fits, into a fresh shared
    /// allocation when it does not.
    #[inline]
    pub fn new(s: &str) -> Str {
        Str::inline(s).unwrap_or_else(|| Str(Repr::Heap(Arc::from(s))))
    }

    #[inline]
    fn inline(s: &str) -> Option<Str> {
        let bytes = s.as_bytes();
        let mut buf = [0; INLINE];
        buf.get_mut(..bytes.len())?.copy_from_slice(bytes);
        Some(Str(Repr::Inline {
            len: bytes.len() as u8,
            buf,
        }))
    }

    /// The text.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            // SAFETY: `Repr` is private to this module and `Str::inline`
            // is the one place an `Inline` is built: it copies a whole
            // `&str` into `buf[..len]`, and nothing writes either field
            // afterwards (`Str` hands out no `&mut`). So `buf[..len]` is
            // the UTF-8 it was copied from.
            Repr::Inline { len, buf } => unsafe {
                std::str::from_utf8_unchecked(&buf[..usize::from(*len)])
            },
            Repr::Heap(s) => s,
        }
    }
}

impl Deref for Str {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Str {
    #[inline]
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

/// A long string keeps sharing `s`'s allocation; a short one is copied
/// out of it.
impl From<Arc<str>> for Str {
    #[inline]
    fn from(s: Arc<str>) -> Str {
        Str::inline(&s).unwrap_or(Str(Repr::Heap(s)))
    }
}

impl PartialEq for Str {
    #[inline]
    fn eq(&self, other: &Str) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Str {}

impl Ord for Str {
    #[inline]
    fn cmp(&self, other: &Str) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl PartialOrd for Str {
    #[inline]
    fn partial_cmp(&self, other: &Str) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Str {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Display for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}
