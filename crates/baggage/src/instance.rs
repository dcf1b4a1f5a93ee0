//! Versioned baggage instances.

use std::collections::BTreeMap;

use pivot_itc::Stamp;

use crate::entry::{Entry, PackMode};
use crate::QueryId;

/// One versioned instance of a request's baggage.
///
/// Baggage holds one *active* instance per execution branch plus zero or
/// more *inactive* instances inherited from before the most recent branch
/// points (paper §5). Each instance is identified by an interval tree clock
/// stamp; sibling copies of the same inactive instance carry identical
/// stamps and contents, which is what makes post-join deduplication exact.
#[derive(Clone, PartialEq, Debug)]
pub struct Instance {
    /// The instance's version identity.
    pub stamp: Stamp,
    /// Per-query packed tuples, ordered by query ID for determinism.
    pub entries: BTreeMap<QueryId, Entry>,
}

impl Instance {
    /// Creates an empty instance with the given stamp.
    #[inline]
    pub fn new(stamp: Stamp) -> Instance {
        Instance {
            stamp,
            entries: BTreeMap::new(),
        }
    }

    /// Returns `true` if no query has packed anything here.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.values().all(Entry::is_empty)
    }

    /// Packs one tuple for `query` under `mode`. Returns the number of
    /// tuples truncated by the `All`-mode hard cap.
    pub fn pack(
        &mut self,
        query: QueryId,
        mode: &PackMode,
        tuple: pivot_model::Tuple,
        already_first: usize,
    ) -> usize {
        self.entries
            .entry(query)
            .or_insert_with(|| Entry::new(mode))
            .pack(tuple, already_first)
    }

    /// Returns the number of tuples visible for `query` in this instance.
    #[inline]
    pub fn count_for(&self, query: QueryId) -> usize {
        self.entries.get(&query).map_or(0, Entry::len)
    }

    /// Merges the entries of `other` into `self` (rejoining branches).
    /// Returns the number of tuples truncated by the `All`-mode hard cap.
    pub fn merge_entries(&mut self, other: Instance) -> usize {
        let mut truncated = 0;
        for (q, entry) in other.entries {
            match self.entries.get_mut(&q) {
                Some(mine) => truncated += mine.merge(&entry),
                None => {
                    self.entries.insert(q, entry);
                }
            }
        }
        truncated
    }
}
