//! The preorder buffer under [`crate::Id`] and [`crate::Event`].
//!
//! Both trees are stored the way the wire format writes them — one cell
//! per node, parent before its left subtree before its right — so a tree
//! is a flat run of `Copy` cells. The first `N` cells live inline in the
//! value itself; a tree that outgrows them moves to the heap once and
//! stays there. Every kernel operation builds its result in a fresh
//! buffer, so a result is heap-backed only if it (or a discarded
//! intermediate of the same operation) really was that large.

use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut, Range};

/// One node of a preorder run.
pub(crate) trait Cell: Copy + Default {
    /// Whether two subtrees follow this cell (it is a node, not a leaf).
    fn branches(self) -> bool;
}

/// Index one past the subtree that starts at `at`.
pub(crate) fn skip<T: Cell>(cells: &[T], at: usize) -> usize {
    let (mut open, mut end) = (1usize, at);
    while open > 0 {
        open = open - 1 + 2 * usize::from(cells[end].branches());
        end += 1;
    }
    end
}

pub(crate) struct Buf<T, const N: usize> {
    /// The cells, while there are at most `N` of them.
    inline: [T; N],
    len: u8,
    /// All the cells, once there have been more than `N`.
    #[expect(
        clippy::box_collection,
        reason = "one word instead of three in every stamp that never spills"
    )]
    spilled: Option<Box<Vec<T>>>,
}

impl<T: Cell, const N: usize> Buf<T, N> {
    #[inline]
    pub(crate) fn new() -> Self {
        const { assert!(N <= u8::MAX as usize) };
        Buf {
            inline: [T::default(); N],
            len: 0,
            spilled: None,
        }
    }

    #[inline]
    pub(crate) fn of(cell: T) -> Self {
        let mut buf = Self::new();
        buf.push(cell);
        buf
    }

    #[inline]
    pub(crate) fn push(&mut self, cell: T) {
        if self.spilled.is_none() && (self.len as usize) < N {
            self.inline[self.len as usize] = cell;
            self.len += 1;
        } else {
            self.push_on_heap(cell);
        }
    }

    /// Cell by cell: the runs are a handful of cells long, which a loop
    /// of stores beats a `memcpy` call for.
    #[inline]
    pub(crate) fn extend(&mut self, more: &[T]) {
        for &cell in more {
            self.push(cell);
        }
    }

    /// Appends the subtree of `cells` that starts at `*at` and moves `at`
    /// past it.
    pub(crate) fn copy_subtree(&mut self, cells: &[T], at: &mut usize) {
        let end = skip(cells, *at);
        self.extend(&cells[*at..end]);
        *at = end;
    }

    /// The path taken once the inline cells are full, or were before.
    #[cold]
    #[inline(never)]
    fn push_on_heap(&mut self, cell: T) {
        let inline = &self.inline[..self.len as usize];
        self.spilled
            .get_or_insert_with(|| {
                let mut cells = Vec::with_capacity(2 * N);
                cells.extend_from_slice(inline);
                Box::new(cells)
            })
            .push(cell);
    }

    #[inline]
    pub(crate) fn truncate(&mut self, to: usize) {
        match &mut self.spilled {
            Some(cells) => cells.truncate(to),
            None => self.len = self.len.min(to.min(N) as u8),
        }
    }

    /// Deletes `range`, closing the gap.
    pub(crate) fn remove(&mut self, range: Range<usize>) {
        let end = self.len();
        self.copy_within(range.end..end, range.start);
        self.truncate(end - range.len());
    }
}

impl<T: Copy, const N: usize> Clone for Buf<T, N> {
    #[inline]
    fn clone(&self) -> Self {
        Buf {
            inline: self.inline,
            len: self.len,
            spilled: self.spilled.clone(),
        }
    }
}

impl<T, const N: usize> Deref for Buf<T, N> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match &self.spilled {
            Some(cells) => cells,
            None => &self.inline[..self.len as usize],
        }
    }
}

impl<T, const N: usize> DerefMut for Buf<T, N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.spilled {
            Some(cells) => cells,
            None => &mut self.inline[..self.len as usize],
        }
    }
}

impl<T: PartialEq, const N: usize> PartialEq for Buf<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq, const N: usize> Eq for Buf<T, N> {}

impl<T: Hash, const N: usize> Hash for Buf<T, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spills_past_the_inline_cells_and_compares_by_content() {
        let mut buf: Buf<u8, 4> = Buf::new();
        buf.extend(&[1, 2, 3]);
        assert!(buf.spilled.is_none());
        buf.extend(&[4, 5]);
        assert!(buf.spilled.is_some());
        assert_eq!(&*buf, &[1, 2, 3, 4, 5]);
        buf.push(6);
        buf.remove(1..3);
        assert_eq!(&*buf, &[1, 4, 5, 6]);
        buf.truncate(3);
        let mut inline: Buf<u8, 4> = Buf::of(1);
        inline.extend(&[4, 5, 6]);
        inline.truncate(3);
        inline.truncate(9);
        assert!(inline.spilled.is_none());
        assert!(buf == inline && buf.clone() == inline);
    }
}
