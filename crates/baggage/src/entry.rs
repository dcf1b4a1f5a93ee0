//! Per-query baggage entries and pack modes.

use pivot_itc::{DecodeError, Decoder, Encoder};
use pivot_model::codec;
use pivot_model::{AggFunc, AggState, GroupKey, Tuple, Value};

/// Hard runtime cap on tuples retained by one [`PackMode::All`] entry.
///
/// The static verifier warns (PT006) when a query packs `All`, but the
/// warning alone does not keep a hot tracepoint from growing a request's
/// baggage without limit. This cap is the runtime backstop: packing past
/// it drops the *oldest* retained tuple (deterministic drop-oldest, the
/// same policy `Recent(n)` uses), and the drop is reported to the caller
/// so the governor can account it as truncation. Bounded modes
/// (`First(n)` / `Recent(n)` / `GroupAgg`) are never truncated below
/// their declared size — their bound is part of the query's semantics.
pub const ALL_TUPLE_CAP: usize = 256;

/// How tuples are retained when packed (paper §3, `Pack` special cases).
#[derive(Clone, PartialEq, Debug)]
pub enum PackMode {
    /// Keep every packed tuple.
    All,
    /// Keep only the first `n` tuples ever packed (`FIRST` / `FIRSTN`).
    First(usize),
    /// Keep only the most recent `n` tuples (`RECENT` / `RECENTN`).
    Recent(usize),
    /// Group tuples by their first `key_len` fields and fold the remaining
    /// fields with `aggs` (pushed-down `GroupBy` + aggregation, paper
    /// Table 3).
    GroupAgg {
        /// Number of leading group-key fields.
        key_len: usize,
        /// One aggregator per trailing value field.
        aggs: Vec<AggFunc>,
    },
}

impl PackMode {
    #[inline]
    fn tag(&self) -> u8 {
        match self {
            PackMode::All => 0,
            PackMode::First(_) => 1,
            PackMode::Recent(_) => 2,
            PackMode::GroupAgg { .. } => 3,
        }
    }

    /// Encodes the mode.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(self.tag());
        match self {
            PackMode::All => {}
            PackMode::First(n) | PackMode::Recent(n) => enc.put_varint(*n as u64),
            PackMode::GroupAgg { key_len, aggs } => {
                enc.put_varint(*key_len as u64);
                enc.put_varint(aggs.len() as u64);
                for a in aggs {
                    a.encode(enc);
                }
            }
        }
    }

    /// Decodes a mode.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<PackMode, DecodeError> {
        Ok(match dec.take_u8()? {
            0 => PackMode::All,
            1 => PackMode::First(dec.take_varint()? as usize),
            2 => PackMode::Recent(dec.take_varint()? as usize),
            3 => {
                let key_len = dec.take_varint()? as usize;
                let n = dec.take_varint()? as usize;
                let mut aggs = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    aggs.push(AggFunc::decode(dec)?);
                }
                PackMode::GroupAgg { key_len, aggs }
            }
            t => return Err(DecodeError::BadTag("pack mode", t)),
        })
    }
}

/// The stored tuples for one query inside one baggage instance.
#[derive(Clone, PartialEq, Debug)]
pub enum Entry {
    /// Raw tuples retained under [`PackMode::All`], [`PackMode::First`], or
    /// [`PackMode::Recent`].
    Tuples {
        /// The retention mode.
        mode: PackMode,
        /// Retained tuples in pack order.
        tuples: Vec<Tuple>,
    },
    /// Grouped partial aggregates under [`PackMode::GroupAgg`].
    Grouped {
        /// The grouping mode (always [`PackMode::GroupAgg`]).
        mode: PackMode,
        /// Insertion-ordered groups: key → per-column states.
        groups: Vec<(GroupKey, Vec<AggState>)>,
    },
}

impl Entry {
    /// Creates an empty entry for `mode`.
    #[inline]
    pub fn new(mode: &PackMode) -> Entry {
        match mode {
            PackMode::GroupAgg { .. } => Entry::Grouped {
                mode: mode.clone(),
                groups: Vec::new(),
            },
            other => Entry::Tuples {
                mode: other.clone(),
                tuples: Vec::new(),
            },
        }
    }

    /// Returns `true` if nothing has been packed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        match self {
            Entry::Tuples { tuples, .. } => tuples.is_empty(),
            Entry::Grouped { groups, .. } => groups.is_empty(),
        }
    }

    /// Returns the number of retained tuples / groups.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Entry::Tuples { tuples, .. } => tuples.len(),
            Entry::Grouped { groups, .. } => groups.len(),
        }
    }

    /// Packs one tuple, honouring the retention mode. Returns the number
    /// of tuples *truncated* by the [`ALL_TUPLE_CAP`] backstop (0 or 1);
    /// bounded-mode refusals (`First` past `n`, `Recent` rotation) are the
    /// mode's declared semantics and are not counted.
    ///
    /// `already_first` tells `First(n)` packing how many tuples for this
    /// query are already visible in causally-preceding instances, so that
    /// `FIRST` means "first in the causal past", not "first per instance".
    pub fn pack(&mut self, tuple: Tuple, already_first: usize) -> usize {
        match self {
            Entry::Tuples {
                mode: PackMode::All,
                tuples,
            } => {
                tuples.push(tuple);
                let dropped = tuples.len().saturating_sub(ALL_TUPLE_CAP);
                tuples.drain(..dropped);
                debug_assert!(
                    tuples.len() <= ALL_TUPLE_CAP,
                    "PackMode::All entry exceeded ALL_TUPLE_CAP"
                );
                return dropped;
            }
            Entry::Tuples {
                mode: PackMode::First(n),
                tuples,
            } => {
                if tuples.len() + already_first < *n {
                    tuples.push(tuple);
                }
            }
            Entry::Tuples {
                mode: PackMode::Recent(n),
                tuples,
            } => {
                tuples.push(tuple);
                let n = (*n).max(1);
                if tuples.len() > n {
                    let excess = tuples.len() - n;
                    tuples.drain(..excess);
                }
            }
            Entry::Tuples { .. } => unreachable!("grouped mode in Tuples"),
            Entry::Grouped {
                mode: PackMode::GroupAgg { key_len, aggs },
                groups,
            } => {
                let key = GroupKey((0..*key_len).map(|i| tuple.get(i).clone()).collect());
                let states = match groups.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, states)) => states,
                    None => {
                        groups.push((key, aggs.iter().map(|a| a.init()).collect()));
                        &mut groups.last_mut().expect("just pushed").1
                    }
                };
                for (i, st) in states.iter_mut().enumerate() {
                    st.update(tuple.get(*key_len + i));
                }
            }
            Entry::Grouped { .. } => unreachable!("plain mode in Grouped"),
        }
        0
    }

    /// Merges another entry for the same query (used when two branches
    /// rejoin and their active instances combine). Returns the number of
    /// tuples truncated by the [`ALL_TUPLE_CAP`] backstop.
    pub fn merge(&mut self, other: &Entry) -> usize {
        match (self, other) {
            (
                Entry::Tuples { mode, tuples },
                Entry::Tuples {
                    tuples: other_tuples,
                    ..
                },
            ) => {
                tuples.extend(other_tuples.iter().cloned());
                match mode {
                    PackMode::First(n) => tuples.truncate(*n),
                    PackMode::Recent(n) => {
                        let n = (*n).max(1);
                        if tuples.len() > n {
                            let excess = tuples.len() - n;
                            tuples.drain(..excess);
                        }
                    }
                    PackMode::All => {
                        let dropped = tuples.len().saturating_sub(ALL_TUPLE_CAP);
                        tuples.drain(..dropped);
                        return dropped;
                    }
                    _ => {}
                }
            }
            (
                Entry::Grouped {
                    mode: PackMode::GroupAgg { aggs, .. },
                    groups,
                },
                Entry::Grouped {
                    groups: other_groups,
                    ..
                },
            ) => {
                for (key, states) in other_groups {
                    match groups.iter_mut().find(|(k, _)| k == key) {
                        Some((_, mine)) => {
                            for (m, s) in mine.iter_mut().zip(states) {
                                m.merge(s);
                            }
                        }
                        None => {
                            let fresh: Vec<AggState> = aggs
                                .iter()
                                .zip(states)
                                .map(|(a, s)| {
                                    let mut st = a.init();
                                    st.merge(s);
                                    st
                                })
                                .collect();
                            groups.push((key.clone(), fresh));
                        }
                    }
                }
            }
            // Mode mismatch for the same query id indicates corruption;
            // keep our side.
            _ => {}
        }
        0
    }

    /// Materializes this entry's contents as tuples for `Unpack`.
    ///
    /// Grouped entries yield `(key fields…, Value::Agg(state)…)` so that a
    /// downstream aggregation *combines* the partial states (paper Table 3).
    pub fn tuples(&self) -> Vec<Tuple> {
        match self {
            Entry::Tuples { tuples, .. } => tuples.clone(),
            Entry::Grouped { groups, .. } => groups
                .iter()
                .map(|(key, states)| {
                    key.0
                        .values()
                        .iter()
                        .cloned()
                        .chain(
                            states
                                .iter()
                                .map(|s| Value::Agg(std::sync::Arc::new(s.clone()))),
                        )
                        .collect()
                })
                .collect(),
        }
    }

    /// The retained tuples as a borrowed slice, when this entry stores
    /// plain tuples (`All` / `First` / `Recent`). Grouped entries return
    /// `None` — their unpack form is materialized, not stored.
    ///
    /// Because packing already enforces each bounded mode's limit per
    /// entry, a *single* entry's slice is exactly its unpack result; this
    /// is the zero-copy fast path behind [`crate::Baggage::unpack_view`].
    #[inline]
    pub fn tuple_slice(&self) -> Option<&[Tuple]> {
        match self {
            Entry::Tuples { tuples, .. } => Some(tuples),
            Entry::Grouped { .. } => None,
        }
    }

    /// Returns the entry's pack mode.
    #[inline]
    pub fn mode(&self) -> &PackMode {
        match self {
            Entry::Tuples { mode, .. } | Entry::Grouped { mode, .. } => mode,
        }
    }

    /// Encodes the entry.
    pub fn encode(&self, enc: &mut Encoder) {
        self.mode().encode(enc);
        match self {
            Entry::Tuples { tuples, .. } => {
                enc.put_varint(tuples.len() as u64);
                for t in tuples {
                    codec::encode_tuple(t, enc);
                }
            }
            Entry::Grouped { groups, .. } => {
                enc.put_varint(groups.len() as u64);
                for (key, states) in groups {
                    codec::encode_tuple(&key.0, enc);
                    enc.put_varint(states.len() as u64);
                    for s in states {
                        s.encode(enc);
                    }
                }
            }
        }
    }

    /// Decodes an entry.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Entry, DecodeError> {
        let mode = PackMode::decode(dec)?;
        match mode {
            PackMode::GroupAgg { .. } => {
                let n = dec.take_varint()? as usize;
                let mut groups = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let key = GroupKey(codec::decode_tuple(dec)?);
                    let k = dec.take_varint()? as usize;
                    let mut states = Vec::with_capacity(k.min(64));
                    for _ in 0..k {
                        states.push(AggState::decode(dec)?);
                    }
                    groups.push((key, states));
                }
                Ok(Entry::Grouped { mode, groups })
            }
            mode => {
                let n = dec.take_varint()? as usize;
                let mut tuples = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    tuples.push(codec::decode_tuple(dec)?);
                }
                // Trust boundary: a peer (or corruption) may claim an
                // over-cap `All` entry; clamp it on the way in so the cap
                // is an invariant, not a local courtesy.
                if mode == PackMode::All {
                    let excess = tuples.len().saturating_sub(ALL_TUPLE_CAP);
                    tuples.drain(..excess);
                }
                Ok(Entry::Tuples { mode, tuples })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: i64) -> Tuple {
        Tuple::from_iter([Value::I64(v)])
    }

    #[test]
    fn first_keeps_only_first() {
        let mut e = Entry::new(&PackMode::First(1));
        e.pack(t(1), 0);
        e.pack(t(2), 0);
        assert_eq!(e.tuples(), vec![t(1)]);
    }

    #[test]
    fn first_respects_causally_prior_tuples() {
        let mut e = Entry::new(&PackMode::First(1));
        e.pack(t(9), 1); // one tuple already visible upstream
        assert!(e.is_empty());
    }

    #[test]
    fn recent_overwrites() {
        let mut e = Entry::new(&PackMode::Recent(2));
        for i in 0..5 {
            e.pack(t(i), 0);
        }
        assert_eq!(e.tuples(), vec![t(3), t(4)]);
    }

    #[test]
    fn all_keeps_everything_under_the_cap() {
        let mut e = Entry::new(&PackMode::All);
        for i in 0..4 {
            assert_eq!(e.pack(t(i), 0), 0);
        }
        assert_eq!(e.len(), 4);
    }

    #[test]
    fn all_cap_drops_oldest_and_reports_it() {
        let mut e = Entry::new(&PackMode::All);
        let mut dropped = 0;
        for i in 0..(ALL_TUPLE_CAP as i64 + 10) {
            dropped += e.pack(t(i), 0);
        }
        assert_eq!(e.len(), ALL_TUPLE_CAP);
        assert_eq!(dropped, 10);
        // Drop-oldest: the survivors are the most recent CAP tuples.
        assert_eq!(e.tuples().first(), Some(&t(10)));
        assert_eq!(e.tuples().last(), Some(&t(ALL_TUPLE_CAP as i64 + 9)));
    }

    #[test]
    fn all_cap_holds_across_merge_and_decode() {
        let mut a = Entry::new(&PackMode::All);
        let mut b = Entry::new(&PackMode::All);
        for i in 0..ALL_TUPLE_CAP as i64 {
            a.pack(t(i), 0);
            b.pack(t(i + 1000), 0);
        }
        let dropped = a.merge(&b);
        assert_eq!(a.len(), ALL_TUPLE_CAP);
        assert_eq!(dropped, ALL_TUPLE_CAP);

        let mut enc = Encoder::new();
        a.encode(&mut enc);
        let bytes = enc.finish();
        let back = Entry::decode(&mut Decoder::new(&bytes)).unwrap();
        assert!(back.len() <= ALL_TUPLE_CAP);
        assert_eq!(back, a);
    }

    #[test]
    fn bounded_modes_are_never_truncated_below_n() {
        // First(n)/Recent(n) past the cap would be a semantics change;
        // verify a bound larger than ALL_TUPLE_CAP is honoured in full.
        let n = ALL_TUPLE_CAP + 64;
        let mut first = Entry::new(&PackMode::First(n));
        let mut recent = Entry::new(&PackMode::Recent(n));
        for i in 0..(n as i64 + 50) {
            assert_eq!(first.pack(t(i), 0), 0);
            assert_eq!(recent.pack(t(i), 0), 0);
        }
        assert_eq!(first.len(), n);
        assert_eq!(recent.len(), n);
    }

    #[test]
    fn group_agg_folds() {
        let mode = PackMode::GroupAgg {
            key_len: 1,
            aggs: vec![AggFunc::Sum],
        };
        let mut e = Entry::new(&mode);
        let row = |k: &str, v: i64| Tuple::from_iter([Value::str(k), Value::I64(v)]);
        e.pack(row("a", 2), 0);
        e.pack(row("b", 5), 0);
        e.pack(row("a", 3), 0);
        let out = e.tuples();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].get(0), &Value::str("a"));
        assert_eq!(out[0].get(1).as_agg().unwrap().finish(), Value::I64(5));
    }

    #[test]
    fn merge_tuples_respects_mode() {
        let mut a = Entry::new(&PackMode::Recent(1));
        a.pack(t(1), 0);
        let mut b = Entry::new(&PackMode::Recent(1));
        b.pack(t(2), 0);
        a.merge(&b);
        assert_eq!(a.tuples(), vec![t(2)]);
    }

    #[test]
    fn merge_grouped_combines_states() {
        let mode = PackMode::GroupAgg {
            key_len: 1,
            aggs: vec![AggFunc::Count],
        };
        let row = |k: &str| Tuple::from_iter([Value::str(k), Value::Null]);
        let mut a = Entry::new(&mode);
        a.pack(row("x"), 0);
        let mut b = Entry::new(&mode);
        b.pack(row("x"), 0);
        b.pack(row("y"), 0);
        a.merge(&b);
        let out = a.tuples();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].get(1).as_agg().unwrap().finish(), Value::U64(2));
    }

    #[test]
    fn encode_round_trip() {
        let mode = PackMode::GroupAgg {
            key_len: 1,
            aggs: vec![AggFunc::Sum, AggFunc::Count],
        };
        let mut e = Entry::new(&mode);
        e.pack(
            Tuple::from_iter([Value::str("a"), Value::I64(3), Value::Null]),
            0,
        );
        let mut enc = Encoder::new();
        e.encode(&mut enc);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(Entry::decode(&mut dec).unwrap(), e);

        let mut e2 = Entry::new(&PackMode::Recent(3));
        e2.pack(t(1), 0);
        e2.pack(t(2), 0);
        let mut enc = Encoder::new();
        e2.encode(&mut enc);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(Entry::decode(&mut dec).unwrap(), e2);
    }
}
