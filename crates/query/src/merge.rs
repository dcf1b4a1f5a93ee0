//! The grouped-aggregate merge shared by every tier that combines
//! partial results.
//!
//! Pivot Tracing pushes aggregation to the tracepoints (paper Table 3),
//! so what travels upward is partially aggregated groups; any tier may
//! fold two partials into one because every [`AggState`] merge is
//! associative and commutative (pinned by property tests in
//! `crates/model` and this crate). The frontend has always exploited
//! that to merge agent reports; the relay tier (`crates/relay`) exploits
//! it again to merge *in flight*, before reports ever reach the
//! frontend. Both call this one helper so the two tiers cannot drift.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use pivot_model::{AggState, GroupKey};

/// Folds one partial group (`key`, `states`) into `map`.
///
/// A previously unseen key takes the partial as it is — every initial
/// aggregate state is the identity of the merge, so starting from one
/// would change nothing — which makes merging into an empty map
/// reproduce the partial exactly: the property that keeps relay windows
/// transparent to the frontend's totals, and lets a tier fold partials of
/// a query whose shape it has not been told.
pub fn merge_grouped(
    map: &mut HashMap<GroupKey, Vec<AggState>>,
    key: GroupKey,
    states: &[AggState],
) {
    match map.entry(key) {
        Entry::Occupied(mut mine) => {
            for (m, s) in mine.get_mut().iter_mut().zip(states) {
                m.merge(s);
            }
        }
        Entry::Vacant(slot) => {
            slot.insert(states.to_vec());
        }
    }
}
