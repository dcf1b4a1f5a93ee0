//! Property tests pinning the algebra the whole result path leans on:
//! the grouped-aggregate merge ([`pivot_query::merge_grouped`], shared
//! by the frontend and the relay tier) is associative and commutative
//! for every aggregate function — `COUNT`, `SUM`, `MIN`, `MAX`,
//! `AVERAGE` — across group-key unions, and each function's `init()`
//! state is the merge identity (what lets the merge hand a vacant key
//! the partial as it is, without being told the query's shape).
//!
//! Numeric values are kept dyadic (small integers, and floats offset by
//! exactly 0.5) so float addition is exact and the float/integer
//! promotion in `SUM` never produces a cross-type tie in `MIN`/`MAX`;
//! the properties then hold *exactly*, not approximately.

use std::collections::{BTreeSet, HashMap};

use pivot_baggage::QueryId;
use pivot_model::{AggState, GroupKey, Tuple};
use pivot_query::{compile, merge_grouped, Options, OutputSpec, Query, Resolver};
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

type Partial = HashMap<GroupKey, Vec<AggState>>;

fn key(g: usize) -> GroupKey {
    GroupKey(Tuple::new([V::str(format!("u{g}"))]))
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
    prop::collection::vec((0usize..4, value()), 0..24)
}

fn build(spec: &OutputSpec, obs: &[(usize, V)]) -> Partial {
    let mut map = Partial::new();
    for (g, v) in obs {
        let states = map
            .entry(key(*g))
            .or_insert_with(|| spec.aggs.iter().map(|f| f.init()).collect());
        for s in states.iter_mut() {
            s.update(v);
        }
    }
    map
}

/// Folds `from` into `into` through the shared merge, in a deterministic
/// group order (the merge itself must not care, and the commutativity
/// property checks exactly that at the partial level).
fn fold(into: &mut Partial, from: &Partial) {
    let mut entries: Vec<_> = from.iter().collect();
    entries.sort_by_key(|(k, _)| format!("{k:?}"));
    for (k, states) in entries {
        merge_grouped(into, k.clone(), states);
    }
}

fn merged(parts: &[&Partial]) -> Partial {
    let mut out = Partial::new();
    for p in parts {
        fold(&mut out, p);
    }
    out
}

proptest! {
    /// a ⊕ b == b ⊕ a, over every aggregate function at once and
    /// whatever mix of shared and disjoint group keys the generator
    /// produced.
    #[test]
    fn grouped_merge_is_commutative((oa, ob) in (partial(), partial())) {
        let spec = spec();
        let (a, b) = (build(&spec, &oa), build(&spec, &ob));
        prop_assert_eq!(merged(&[&a, &b]), merged(&[&b, &a]));
    }

    /// (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c): the relay tier may fold partials in
    /// any tree shape without changing the frontend's totals.
    #[test]
    fn grouped_merge_is_associative((oa, ob, oc) in (partial(), partial(), partial())) {
        let spec = spec();
        let (a, b, c) = (build(&spec, &oa), build(&spec, &ob), build(&spec, &oc));
        let left = merged(&[&merged(&[&a, &b]), &c]);
        let right = merged(&[&a, &merged(&[&b, &c])]);
        prop_assert_eq!(left, right);
    }

    /// Merging a partial into an empty map reproduces it exactly (the
    /// vacant-insert path), and merging `init()` into any state — from
    /// either side — is a no-op: `init()` is the merge identity for
    /// every aggregate function.
    #[test]
    fn init_is_the_merge_identity(obs in partial()) {
        let spec = spec();
        let a = build(&spec, &obs);
        prop_assert_eq!(&merged(&[&a]), &a);
        for states in a.values() {
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
    fn a_vacant_key_takes_the_partial_as_if_born_from_init((oa, ob) in (partial(), partial())) {
        let spec = spec();
        let (a, b) = (build(&spec, &oa), build(&spec, &ob));
        let mut from_init = Partial::new();
        for part in [&a, &b] {
            for (k, states) in part {
                let mine = from_init
                    .entry(k.clone())
                    .or_insert_with(|| spec.aggs.iter().map(|f| f.init()).collect());
                for (m, s) in mine.iter_mut().zip(states) {
                    m.merge(s);
                }
            }
        }
        prop_assert_eq!(merged(&[&a, &b]), from_init);
    }

    /// The merged key set is exactly the union of the inputs' key sets:
    /// fan-in never invents or loses a group.
    #[test]
    fn merged_keys_are_the_union((oa, ob) in (partial(), partial())) {
        let spec = spec();
        let (a, b) = (build(&spec, &oa), build(&spec, &ob));
        let union: BTreeSet<String> = a
            .keys()
            .chain(b.keys())
            .map(|k| format!("{k:?}"))
            .collect();
        let got: BTreeSet<String> = merged(&[&a, &b])
            .keys()
            .map(|k| format!("{k:?}"))
            .collect();
        prop_assert_eq!(got, union);
    }
}
