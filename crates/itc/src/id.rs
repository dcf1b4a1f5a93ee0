//! ITC identity trees.

use std::fmt;

use crate::buf::{skip, Buf, Cell};
use crate::encode::{DecodeError, Decoder, Encoder, MAX_DEPTH};

/// Cell values, which are also the wire tags: a preorder run of these
/// *is* the encoding.
pub(crate) const ZERO: u8 = 0;
pub(crate) const ONE: u8 = 1;
pub(crate) const NODE: u8 = 2;

/// Inline cells: with the length byte and the spill pointer they make an
/// identity 32 bytes. 23 cells hold a chain of 11 unjoined forks; the
/// `svc_*` request path uses 3 (DESIGN.md §5l).
const INLINE: usize = 23;

type Cells = Buf<u8, INLINE>;

/// An ITC identity: a binary tree describing which sub-intervals of the unit
/// interval this stamp owns.
///
/// A leaf owns nothing (`0`) or its whole interval (`1`); an interior node
/// owns its left child's share of the left half and its right child's
/// share of the right half. Identities are kept in *normal form*: a node
/// over two `0` leaves is the leaf `0` and a node over two `1` leaves is
/// the leaf `1`, so equal identities have equal cells.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Id(Cells);

/// Two identities passed to [`Id::sum`] own overlapping intervals.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OverlapError;

impl fmt::Display for OverlapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("identities own overlapping intervals")
    }
}

impl std::error::Error for OverlapError {}

impl Cell for u8 {
    #[inline]
    fn branches(self) -> bool {
        self == NODE
    }
}

/// Restores normal form at the node whose header sits at `at` and whose
/// children fill the rest of `out`.
fn close(out: &mut Cells, at: usize) {
    // Three cells are a header and two leaves.
    if let [header, left, right] = &mut out[at..] {
        if left == right {
            *header = *left;
            out.truncate(at + 1);
        }
    }
}

impl Id {
    /// Returns the seed identity that owns the entire interval.
    #[inline]
    pub fn one() -> Id {
        Id(Cells::of(ONE))
    }

    /// Returns the anonymous identity that owns nothing.
    #[inline]
    pub fn zero() -> Id {
        Id(Cells::of(ZERO))
    }

    /// Builds a normalized interior node from two children.
    pub fn node(left: Id, right: Id) -> Id {
        let mut out = Cells::of(NODE);
        out.extend(&left.0);
        out.extend(&right.0);
        close(&mut out, 0);
        Id(out)
    }

    #[inline]
    pub(crate) fn cells(&self) -> &[u8] {
        &self.0
    }

    /// Which halves a one-level identity — `0`, `1`, `(1,0)` or `(0,1)`
    /// — owns, left then right; `None` for a deeper one.
    #[inline]
    pub(crate) fn halves(&self) -> Option<[bool; 2]> {
        match *self.0 {
            [leaf] => Some([leaf == ONE; 2]),
            [_, left, right] => Some([left == ONE, right == ONE]),
            _ => None,
        }
    }

    /// The one-level identity that owns `halves`.
    #[inline]
    pub(crate) fn of_halves(halves: [bool; 2]) -> Id {
        match halves {
            [left, right] if left == right => Id(Cells::of(u8::from(left))),
            [left, right] => Id(Cells::of_inline(&[NODE, u8::from(left), u8::from(right)])),
        }
    }

    /// Returns `true` if this identity owns nothing (is anonymous).
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.0[0] == ZERO
    }

    /// Returns `true` if this identity owns the whole interval.
    #[inline]
    pub fn is_whole(&self) -> bool {
        self.0[0] == ONE
    }

    /// Splits this identity into two disjoint identities (ITC *fork*).
    ///
    /// The two returned identities are non-overlapping and together own
    /// exactly the interval owned by `self`.
    pub fn split(&self) -> (Id, Id) {
        // The split of `1`, which every branch of a request that has not
        // branched yet takes, in closed form.
        if self.is_whole() {
            return (Id::of_halves([true, false]), Id::of_halves([false, true]));
        }
        let cells = &*self.0;
        // While one half is unowned the split happens inside the other;
        // everything around the subtree it lands on is copied as is.
        let mut at = 0;
        let mut right = 0;
        while cells[at] == NODE {
            let left = at + 1;
            right = skip(cells, left);
            if cells[left] == ZERO {
                at = right;
            } else if cells[right] == ZERO {
                at = left;
            } else {
                break;
            }
        }
        let end = skip(cells, at);
        let around = |halves: [&[u8]; 2]| {
            let mut out = Cells::new();
            out.extend(&cells[..at]);
            out.extend(halves[0]);
            out.extend(halves[1]);
            out.extend(&cells[end..]);
            Id(out)
        };
        match cells[at] {
            ZERO => (self.clone(), self.clone()),
            ONE => (
                around([&[NODE, ONE], &[ZERO]]),
                around([&[NODE, ZERO], &[ONE]]),
            ),
            _ => (
                around([&cells[at..right], &[ZERO]]),
                around([&[NODE, ZERO], &cells[right..end]]),
            ),
        }
    }

    /// Sums two disjoint identities (ITC *join*).
    ///
    /// # Errors
    ///
    /// Returns [`OverlapError`] if the identities overlap — summing
    /// overlapping identities would forge ownership and indicates a
    /// protocol violation.
    #[inline]
    pub fn sum(&self, other: &Id) -> Result<Id, OverlapError> {
        // Two one-level identities sum half by half.
        if let (Some([a, b]), Some([c, d])) = (self.halves(), other.halves()) {
            if (a && c) || (b && d) {
                return Err(OverlapError);
            }
            return Ok(Id::of_halves([a || c, b || d]));
        }
        sum_tree(self, other)
    }

    /// Returns `true` if the two identities own overlapping intervals.
    pub fn overlaps(&self, other: &Id) -> bool {
        overlaps_at(&self.0, &mut 0, &other.0, &mut 0)
    }

    /// Returns the depth of the identity tree.
    pub fn depth(&self) -> usize {
        depth_at(&self.0, &mut 0)
    }

    /// Encodes this identity into `enc`.
    #[inline]
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_raw(&self.0);
    }

    /// Decodes an identity from `dec`.
    ///
    /// The result is re-normalized, so malformed input cannot produce a
    /// non-normal tree, and a tree nested deeper than the kernel's
    /// recursion is prepared to follow is refused.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`], [`DecodeError::BadTag`] or
    /// [`DecodeError::TooDeep`].
    #[inline]
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Id, DecodeError> {
        let mut out = Cells::new();
        decode_at(dec, &mut out, 0)?;
        Ok(Id(out))
    }
}

/// [`Id::sum`] of any two identities.
fn sum_tree(a: &Id, b: &Id) -> Result<Id, OverlapError> {
    let mut out = Cells::new();
    sum_at(&a.0, &mut 0, &b.0, &mut 0, &mut out)?;
    Ok(Id(out))
}

fn sum_at(
    a: &[u8],
    ai: &mut usize,
    b: &[u8],
    bi: &mut usize,
    out: &mut Cells,
) -> Result<(), OverlapError> {
    match (a[*ai], b[*bi]) {
        (ZERO, _) => {
            *ai += 1;
            out.copy_subtree(b, bi);
        }
        (_, ZERO) => {
            *bi += 1;
            out.copy_subtree(a, ai);
        }
        (NODE, NODE) => {
            *ai += 1;
            *bi += 1;
            let at = out.len();
            out.push(NODE);
            sum_at(a, ai, b, bi, out)?;
            sum_at(a, ai, b, bi, out)?;
            close(out, at);
        }
        _ => return Err(OverlapError),
    }
    Ok(())
}

fn overlaps_at(a: &[u8], ai: &mut usize, b: &[u8], bi: &mut usize) -> bool {
    match (a[*ai], b[*bi]) {
        (ZERO, _) | (_, ZERO) => {
            *ai = skip(a, *ai);
            *bi = skip(b, *bi);
            false
        }
        (NODE, NODE) => {
            *ai += 1;
            *bi += 1;
            // A `true` ends the whole walk, so the cursors it leaves
            // behind are never read.
            overlaps_at(a, ai, b, bi) || overlaps_at(a, ai, b, bi)
        }
        _ => true,
    }
}

fn depth_at(cells: &[u8], at: &mut usize) -> usize {
    let cell = cells[*at];
    *at += 1;
    if cell == NODE {
        1 + depth_at(cells, at).max(depth_at(cells, at))
    } else {
        0
    }
}

fn decode_at(dec: &mut Decoder<'_>, out: &mut Cells, depth: usize) -> Result<(), DecodeError> {
    match dec.take_u8()? {
        leaf @ (ZERO | ONE) => out.push(leaf),
        NODE if depth == MAX_DEPTH => return Err(DecodeError::TooDeep),
        NODE => {
            let at = out.len();
            out.push(NODE);
            decode_at(dec, out, depth + 1)?;
            decode_at(dec, out, depth + 1)?;
            close(out, at);
        }
        tag => return Err(DecodeError::BadTag("itc id", tag)),
    }
    Ok(())
}

fn fmt_at(cells: &[u8], at: &mut usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let cell = cells[*at];
    *at += 1;
    if cell != NODE {
        return write!(f, "{cell}");
    }
    f.write_str("(")?;
    fmt_at(cells, at, f)?;
    f.write_str(",")?;
    fmt_at(cells, at, f)?;
    f.write_str(")")
}

impl fmt::Debug for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_at(&self.0, &mut 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_seed_is_disjoint() {
        let (a, b) = Id::one().split();
        assert!(!a.overlaps(&b));
        assert_eq!(a.sum(&b).unwrap(), Id::one());
    }

    #[test]
    fn split_zero_stays_zero() {
        let (a, b) = Id::zero().split();
        assert!(a.is_zero() && b.is_zero());
    }

    #[test]
    fn nested_splits_stay_disjoint() {
        let (a, b) = Id::one().split();
        let (a1, a2) = a.split();
        let (b1, b2) = b.split();
        let parts = [&a1, &a2, &b1, &b2];
        for (i, x) in parts.iter().enumerate() {
            for (j, y) in parts.iter().enumerate() {
                assert_eq!(x.overlaps(y), i == j, "{x:?} vs {y:?}");
            }
        }
        let whole = a1.sum(&a2).unwrap().sum(&b1.sum(&b2).unwrap()).unwrap();
        assert_eq!(whole, Id::one());
    }

    #[test]
    fn split_lands_on_the_owned_subtree_and_keeps_the_rest() {
        // ((1,0),0) splits inside its left half's left half ...
        let id = Id::node(Id::node(Id::one(), Id::zero()), Id::zero());
        let (a, b) = id.split();
        assert_eq!(format!("{a:?} {b:?}"), "(((1,0),0),0) (((0,1),0),0)");
        // ... and a node owning something on both sides hands out a side each.
        let both = Id::node(Id::node(Id::zero(), Id::one()), Id::one());
        let (a, b) = both.split();
        assert_eq!(format!("{a:?} {b:?}"), "((0,1),0) (0,1)");
    }

    #[test]
    fn one_level_sum_matches_the_general_walk() {
        let ids = [
            Id::zero(),
            Id::one(),
            Id::node(Id::one(), Id::zero()),
            Id::node(Id::zero(), Id::one()),
        ];
        for x in &ids {
            for y in &ids {
                assert_eq!(x.sum(y), sum_tree(x, y), "{x:?} + {y:?}");
            }
        }
    }

    #[test]
    fn sum_overlapping_fails() {
        let (a, _) = Id::one().split();
        assert!(a.sum(&a).is_err());
        assert!(Id::one().sum(&Id::one()).is_err());
    }

    #[test]
    fn node_normalizes() {
        assert_eq!(Id::node(Id::zero(), Id::zero()), Id::zero());
        assert_eq!(Id::node(Id::one(), Id::one()), Id::one());
        let half = Id::node(Id::one(), Id::zero());
        assert_eq!(half.cells(), [NODE, ONE, ZERO]);
        assert_eq!(half.depth(), 1);
    }

    #[test]
    fn encode_round_trip() {
        let (a, b) = Id::one().split();
        let (a1, _) = a.split();
        for id in [Id::zero(), Id::one(), a, b, a1] {
            let mut enc = Encoder::new();
            id.encode(&mut enc);
            let bytes = enc.finish();
            let mut dec = Decoder::new(&bytes);
            assert_eq!(Id::decode(&mut dec).unwrap(), id);
            assert!(dec.is_empty());
        }
    }

    #[test]
    fn decode_normalizes_and_bounds_nesting() {
        let bytes = [NODE, NODE, ONE, ONE, ONE];
        assert_eq!(Id::decode(&mut Decoder::new(&bytes)).unwrap(), Id::one());
        let chain = |depth: usize| {
            let mut bytes = vec![NODE; depth];
            bytes.push(ONE);
            bytes.extend(vec![ZERO; depth]);
            bytes
        };
        let deepest = Id::decode(&mut Decoder::new(&chain(MAX_DEPTH))).unwrap();
        assert_eq!(deepest.depth(), MAX_DEPTH);
        assert_eq!(
            Id::decode(&mut Decoder::new(&chain(MAX_DEPTH + 1))),
            Err(DecodeError::TooDeep)
        );
    }
}
