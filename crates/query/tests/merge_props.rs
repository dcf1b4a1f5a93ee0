//! Property tests pinning the algebra the whole result path leans on, on
//! the one table every tier folds grouped partials into
//! ([`pivot_query::Groups`]: the agent's interval, the relay's window, the
//! frontend's totals):
//!
//! - the merge is associative and commutative for every aggregate
//!   function — `COUNT`, `SUM`, `MIN`, `MAX`, `AVERAGE` — across group-key
//!   unions, and each function's `init()` state is the merge identity
//!   (what lets a vacant key take a partial as it is, without the tier
//!   being told the query's shape);
//! - the table equals the map it replaced: any interleaving of fold,
//!   merge by reference, absorb by move and take-and-reuse leaves the key
//!   → states set that a `HashMap` folded by the old `merge_grouped`
//!   (kept below as the oracle) holds — with keys repeated inside one
//!   partial, keys of 0, 1 and 5 values, tables of no accumulators,
//!   mixed-type keys and the row cap's refusals in first-seen order — and
//!   refuses a partial whose key width is not its own.
//!
//! Numeric values are kept dyadic (small integers, and floats offset by
//! exactly 0.5) so float addition is exact and the float/integer
//! promotion in `SUM` never produces a cross-type tie in `MIN`/`MAX`;
//! the properties then hold *exactly*, not approximately.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::mem;

use pivot_baggage::QueryId;
use pivot_model::{AggFunc, AggState, GroupKey, Tuple};
use pivot_query::{compile, Groups, Options, OutputSpec, Query, Resolver};
use proptest::prelude::*;

use pivot_model::Value as V;

const QUERY: &str = "From r In RPCs GroupBy r.user \
     Select r.user, COUNT, SUM(r.size), MIN(r.size), MAX(r.size), AVERAGE(r.cost)";

struct RpcResolver;

impl Resolver for RpcResolver {
    fn tracepoint_exports(&self, name: &str) -> Option<Vec<String>> {
        (name == "RPCs").then(|| {
            [
                "host",
                "timestamp",
                "procid",
                "procname",
                "tracepoint",
                "size",
                "user",
                "cost",
            ]
            .iter()
            .map(|s| (*s).to_owned())
            .collect()
        })
    }

    fn query_ast(&self, _name: &str) -> Option<Query> {
        None
    }
}

fn spec() -> std::sync::Arc<OutputSpec> {
    let cq = compile(QUERY, "props", QueryId(1), &RpcResolver, Options::default())
        .expect("the all-aggregates query compiles");
    cq.output
}

/// The map the table replaced, as every tier held it.
type Map = HashMap<GroupKey, Vec<AggState>>;

/// `pivot_query::merge_grouped` as it was, the oracle: a vacant key takes
/// the partial as it is, an occupied one merges it state by state.
fn merge_grouped(map: &mut Map, key: GroupKey, states: &[AggState]) {
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

/// A table's or a map's groups as a key → states set, in key order.
type Set = BTreeMap<GroupKey, Vec<AggState>>;

fn set(groups: &Groups) -> Set {
    let set: Set = groups
        .iter()
        .map(|(k, states)| (owned(k), states.to_vec()))
        .collect();
    assert_eq!(set.len(), groups.len(), "a key repeats in {groups:?}");
    set
}

fn owned(key: &[V]) -> GroupKey {
    GroupKey(key.iter().cloned().collect())
}

/// A table's keys, in its order.
fn keys(groups: &Groups) -> Vec<GroupKey> {
    groups.keys().map(owned).collect()
}

fn map_set(map: &Map) -> Set {
    map.iter().map(|(k, s)| (k.clone(), s.clone())).collect()
}

/// Mixed-type key values: `5` three ways (one group, as the value order
/// and its hash have it), strings either side of a `Value`'s inline bytes,
/// `Null`, a boolean, and fractional floats.
fn mixed(g: usize) -> V {
    match g {
        0 => V::I64(5),
        1 => V::U64(5),
        2 => V::F64(5.0),
        3 => V::Null,
        4 => V::Bool(true),
        5 => V::str("u5"),
        6 => V::str("a key longer than a value holds inline"),
        g => V::F64(g as f64 + 0.5),
    }
}

/// Group `g`'s key of `width` values: none (a global aggregate, every
/// `g` one group), the mixed value alone, or it among four more — wider
/// than a `Tuple` holds inline — which keep `5`'s three forms one group.
fn key(width: usize, g: usize) -> GroupKey {
    let wide = || {
        [
            V::I64(g as i64 / 3),
            mixed(g),
            V::str("u5"),
            V::Null,
            V::F64(0.5),
        ]
    };
    GroupKey(match width {
        0 => Tuple::empty(),
        1 => Tuple::from_iter([mixed(g)]),
        _ => Tuple::from_iter(wide()),
    })
}

const KEYS: usize = 10;

/// The key widths a table is generated at.
fn key_width() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0usize), Just(1), Just(5)]
}

/// A partial of `entries` under keys of `key_width` values, each group's
/// states born from `aggs` and its values.
fn partial_of(aggs: &[AggFunc], key_width: usize, entries: &[(usize, Vec<V>)]) -> Groups {
    let keys = entries
        .iter()
        .flat_map(|(g, _)| key(key_width, *g).0.values().to_vec())
        .collect();
    let states = entries.iter().flat_map(|(_, vs)| born(aggs, vs)).collect();
    Groups::from_flat(entries.len(), keys, states)
}

/// One observed value: small integers, floats offset by 0.5 (dyadic, so
/// sums are exact and cross-type ties are impossible), and Nulls to
/// exercise the MIN/MAX identity element.
fn value() -> impl Strategy<Value = V> {
    prop_oneof![
        (-8i64..8).prop_map(V::I64),
        (-8i64..8).prop_map(|k| V::F64(k as f64 + 0.5)),
        Just(V::Null),
    ]
}

/// A partial result as a tier below would build it: observations folded
/// into per-group aggregate states initialised from the spec.
fn partial() -> impl Strategy<Value = Vec<(usize, V)>> {
    prop::collection::vec((0usize..KEYS, value()), 0..24)
}

fn build(aggs: &[AggFunc], key_width: usize, obs: &[(usize, V)]) -> Groups {
    let mut table = Groups::default();
    for (g, v) in obs {
        let states = table
            .fold(&key(key_width, *g).0, usize::MAX, aggs)
            .expect("no cap, no refusal");
        for s in states {
            s.update(v);
        }
    }
    table
}

/// Folds `parts` by reference into an empty table.
fn merged(parts: &[&Groups]) -> Groups {
    let mut out = Groups::default();
    for p in parts {
        out.merge(p);
    }
    out
}

proptest! {
    /// a ⊕ b == b ⊕ a, over every aggregate function at once and
    /// whatever mix of shared and disjoint group keys the generator
    /// produced.
    #[test]
    fn grouped_merge_is_commutative((kw, oa, ob) in (key_width(), partial(), partial())) {
        let spec = spec();
        let (a, b) = (build(&spec.aggs, kw, &oa), build(&spec.aggs, kw, &ob));
        prop_assert_eq!(set(&merged(&[&a, &b])), set(&merged(&[&b, &a])));
    }

    /// (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c): the relay tier may fold partials in
    /// any tree shape without changing the frontend's totals.
    #[test]
    fn grouped_merge_is_associative(
        (kw, oa, ob, oc) in (key_width(), partial(), partial(), partial())
    ) {
        let spec = spec();
        let [a, b, c] = [oa, ob, oc].map(|o| build(&spec.aggs, kw, &o));
        let left = merged(&[&merged(&[&a, &b]), &c]);
        let right = merged(&[&a, &merged(&[&b, &c])]);
        prop_assert_eq!(set(&left), set(&right));
    }

    /// Merging a partial into an empty table reproduces it exactly, in
    /// its order (what lets the frontend adopt an interval's first
    /// partial as the interval's table), and merging `init()` into any
    /// state — from either side — is a no-op: `init()` is the merge
    /// identity for every aggregate function.
    #[test]
    fn init_is_the_merge_identity((kw, obs) in (key_width(), partial())) {
        let spec = spec();
        let a = build(&spec.aggs, kw, &obs);
        prop_assert_eq!(&merged(&[&a]), &a);
        for (_, states) in a.iter() {
            for (s, f) in states.iter().zip(&spec.aggs) {
                let mut left = s.clone();
                left.merge(&f.init());
                prop_assert_eq!(&left, s, "s ⊕ init == s for {:?}", f);
                let mut right = f.init();
                right.merge(s);
                prop_assert_eq!(&right, s, "init ⊕ s == s for {:?}", f);
            }
        }
    }

    /// A key first seen mid-fold takes the partial as it is, and lands
    /// where the spec-initialised fold (every new group born from
    /// `init()`, then merged) would have put it.
    #[test]
    fn a_vacant_key_takes_the_partial_as_if_born_from_init(
        (kw, oa, ob) in (key_width(), partial(), partial())
    ) {
        let spec = spec();
        let (a, b) = (build(&spec.aggs, kw, &oa), build(&spec.aggs, kw, &ob));
        let mut from_init = Set::new();
        for part in [&a, &b] {
            for (k, states) in part.iter() {
                let mine = from_init
                    .entry(owned(k))
                    .or_insert_with(|| spec.aggs.iter().map(|f| f.init()).collect());
                for (m, s) in mine.iter_mut().zip(states) {
                    m.merge(s);
                }
            }
        }
        prop_assert_eq!(set(&merged(&[&a, &b])), from_init);
    }

    /// The merged key set is exactly the union of the inputs' key sets:
    /// fan-in never invents or loses a group.
    #[test]
    fn merged_keys_are_the_union((kw, oa, ob) in (key_width(), partial(), partial())) {
        let spec = spec();
        let (a, b) = (build(&spec.aggs, kw, &oa), build(&spec.aggs, kw, &ob));
        let union: HashSet<GroupKey> = keys(&a).into_iter().chain(keys(&b)).collect();
        let both = merged(&[&a, &b]);
        let got: HashSet<GroupKey> = keys(&both).into_iter().collect();
        prop_assert_eq!(got, union);
    }
}

/// One step in the life of a tier's table.
#[derive(Debug)]
enum Step {
    /// Emitted rows folded in at the agent, under a row cap.
    Fold { cap: usize, rows: Vec<(usize, V)> },
    /// A partial merged in by reference (the frontend's totals).
    Merge(Vec<(usize, Vec<V>)>),
    /// A partial moved in (a relay window).
    Absorb(Vec<(usize, Vec<V>)>),
    /// The groups handed on — in first-seen order (an agent's flush) or in
    /// key order (a relay's) — and the table reused.
    Take { sorted: bool },
    /// A well-formed partial under keys of another width than the
    /// table's, which a tier must refuse.
    Misfit(Vec<(usize, Vec<V>)>),
}

/// A partial as a decoded frame may hold it: each entry one group's
/// states, built from a few observations — and keys free to repeat.
fn entries() -> impl Strategy<Value = Vec<(usize, Vec<V>)>> {
    prop::collection::vec((0usize..KEYS, prop::collection::vec(value(), 0..3)), 0..6)
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => (0usize..8, partial()).prop_map(|(cap, rows)| Step::Fold { cap, rows }),
        2 => entries().prop_map(Step::Merge),
        2 => entries().prop_map(Step::Absorb),
        1 => prop::bool::ANY.prop_map(|sorted| Step::Take { sorted }),
        1 => entries().prop_map(Step::Misfit),
    ]
}

fn born(aggs: &[AggFunc], values: &[V]) -> Vec<AggState> {
    let mut states: Vec<AggState> = aggs.iter().map(|f| f.init()).collect();
    for (s, v) in states.iter_mut().zip(values.iter().cycle()) {
        s.update(v);
    }
    states
}

/// The oracle side of one table: the map, and the order its keys were
/// first seen in.
#[derive(Default)]
struct Oracle {
    map: Map,
    order: Vec<GroupKey>,
}

impl Oracle {
    fn merge(&mut self, key: GroupKey, states: &[AggState]) {
        if !self.map.contains_key(&key) {
            self.order.push(key.clone());
        }
        merge_grouped(&mut self.map, key, states);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever a tier does to its table, in whatever order, the table
    /// holds what the map held — and what it hands on is the map's
    /// content, in first-seen or in key order as asked.
    #[test]
    fn any_interleaving_leaves_what_the_map_held(
        (kw, width, steps) in (key_width(), 0usize..3, prop::collection::vec(step(), 0..12))
    ) {
        let every = spec();
        let aggs: &[AggFunc] = match width {
            0 => &[],
            1 => &[AggFunc::Count],
            _ => &every.aggs,
        };
        let (mut table, mut total) = (Groups::default(), Groups::default());
        let (mut oracle, mut oracle_total) = (Oracle::default(), Oracle::default());
        let (mut shed, mut oracle_shed) = (0, 0);
        for step in &steps {
            match step {
                Step::Fold { cap, rows } => {
                    for (g, v) in rows {
                        match table.fold(&key(kw, *g).0, *cap, aggs) {
                            Some(states) => states.iter_mut().for_each(|s| s.update(v)),
                            None => shed += 1,
                        }
                        let k = key(kw, *g);
                        if oracle.map.contains_key(&k) || oracle.map.len() < *cap {
                            oracle.merge(k, &born(aggs, std::slice::from_ref(v)));
                        } else {
                            oracle_shed += 1;
                        }
                    }
                }
                Step::Merge(list) | Step::Absorb(list) => {
                    let partial = partial_of(aggs, kw, list);
                    let mut seen = HashSet::new();
                    let distinct = list.iter().all(|(g, _)| seen.insert(key(kw, *g)));
                    for (k, states) in partial.iter() {
                        oracle.merge(owned(k), states);
                    }
                    prop_assert!(table.fits(&partial));
                    if let Step::Merge(_) = step {
                        prop_assert_eq!(table.merge(&partial), distinct);
                    } else {
                        table.absorb(partial);
                    }
                }
                Step::Take { sorted } => {
                    let out = if *sorted { table.take_sorted() } else { table.take() };
                    let mine = mem::take(&mut oracle);
                    prop_assert_eq!(set(&out), map_set(&mine.map));
                    if *sorted {
                        prop_assert!(keys(&out).windows(2).all(|w| w[0] < w[1]));
                    } else {
                        prop_assert_eq!(keys(&out), mine.order.clone());
                    }
                    prop_assert!(table.is_empty());
                    for k in &mine.order {
                        oracle_total.merge(k.clone(), &mine.map[k]);
                    }
                    total.absorb(out);
                }
                // Refused by both tables, unless one of the two is empty.
                Step::Misfit(list) => {
                    let partial = partial_of(aggs, if kw == 1 { 5 } else { 1 }, list);
                    for t in [&table, &total] {
                        let empty = t.is_empty() || partial.is_empty();
                        prop_assert_eq!(t.fits(&partial), empty);
                    }
                }
            }
            prop_assert_eq!(set(&table), map_set(&oracle.map));
            prop_assert_eq!(keys(&table), oracle.order.clone(), "first-seen order");
        }
        prop_assert_eq!(shed, oracle_shed, "the cap refuses the same rows");
        prop_assert_eq!(set(&total), map_set(&oracle_total.map));
    }
}

/// One shape per table: a table holding groups refuses a partial of
/// another key width or accumulator count, and one holding none takes
/// whatever comes first — the rule the relay and the frontend discard
/// misfits by.
#[test]
fn a_table_has_one_shape_and_an_empty_one_takes_the_first() {
    let one = |g: usize, key_width: usize, width: usize| {
        partial_of(&vec![AggFunc::Count; width], key_width, &[(g, vec![])])
    };
    let mut table = Groups::default();
    assert!(table.fits(&one(0, 1, 3)), "an empty table fits any partial");
    table.absorb(one(0, 1, 3));
    assert_eq!((table.key_width(), table.width()), (1, 3));
    assert!(!table.fits(&one(1, 1, 2)));
    assert!(!table.fits(&one(1, 0, 3)));
    assert!(!table.fits(&one(1, 5, 3)));
    let aggs = [AggFunc::Count; 3];
    assert!(table.fold(&key(5, 1).0, usize::MAX, &aggs).is_none());
    assert!(table.fold(&key(1, 0).0, usize::MAX, &aggs).is_some());
    assert_eq!(table.len(), 1, "a fold of another key width is refused");
    assert!(
        table.fits(&Groups::from_flat(0, vec![], vec![])),
        "an empty partial fits any table"
    );
    let taken = table.take();
    assert_eq!((taken.len(), taken.key_width(), taken.width()), (1, 1, 3));
    assert!(
        table.fits(&one(1, 5, 0)),
        "a taken table holds nothing again"
    );
    table.merge(&one(1, 5, 0));
    assert_eq!((table.len(), table.key_width(), table.width()), (1, 5, 0));
    // Zero-width groups are keys alone, and still merge as keys.
    assert!(table.merge(&one(1, 5, 0)));
    assert_eq!(table.len(), 1);
    // A key of no values is one group, which a global aggregate is.
    let mut global = Groups::default();
    for g in 0..3 {
        global.absorb(one(g, 0, 1));
    }
    assert_eq!((global.len(), global.key_width()), (1, 0));
    assert_eq!(
        global.iter().next().map(|(_, s)| s),
        Some(&[AggState::Count(0)][..])
    );
}
