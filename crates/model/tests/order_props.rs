//! The laws of the one value order (DESIGN.md §5): `Value`'s `Ord` is
//! total, `==` is `cmp == Equal`, `Hash` agrees with it, the
//! query-semantics `compare` is its restriction to one class, and a
//! `Tuple`, its `GroupKey` and its borrowed `dyn Cols` view order and hash
//! alike — and hash as the run of values a group table stores. Values are
//! drawn mostly from the edges where the representations meet: the ends
//! of `i64`/`u64`, `2^53 ± 1` held as integer and as float, both zeros,
//! the infinities, NaNs of either sign and several payloads, empty and
//! equal-prefix strings.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use pivot_model::agg::Num;
use pivot_model::{AggState, Cols, GroupKey, Tuple, Value as V};
use proptest::prelude::*;

const P53: i64 = 1 << 53;

fn edges() -> Vec<V> {
    let agg = |s| V::Agg(Arc::new(s));
    let mut out = vec![V::Null, V::Bool(false), V::Bool(true)];
    out.extend(
        [
            i64::MIN,
            -P53 - 1,
            -1,
            0,
            1,
            P53 - 1,
            P53,
            P53 + 1,
            i64::MAX,
        ]
        .map(V::I64),
    );
    out.extend([0, 1, P53 as u64 + 1, i64::MAX as u64, 1 << 63, u64::MAX].map(V::U64));
    out.extend(
        [
            -(2f64.powi(63)),
            -(P53 as f64),
            -0.5,
            -0.0,
            0.0,
            0.5,
            1.0,
            (P53 - 1) as f64,
            P53 as f64,
            (P53 + 2) as f64,
            2f64.powi(63),
            2f64.powi(64),
            1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0xfff8_0000_0000_0123),
        ]
        .map(V::F64),
    );
    out.extend(["", "a", "ab", "ab ", "abc", "b"].map(V::str));
    out.extend([
        agg(AggState::Count(0)),
        agg(AggState::Count(1)),
        agg(AggState::Sum(Num::I(0))),
        agg(AggState::Sum(Num::F(0.0))),
        agg(AggState::Sum(Num::F(-0.0))),
        agg(AggState::Min(V::Null)),
        agg(AggState::Min(V::I64(5))),
        agg(AggState::Min(V::U64(5))),
        agg(AggState::Max(V::U64(5))),
        agg(AggState::Average {
            sum: f64::NAN,
            count: 1,
        }),
        agg(AggState::Average { sum: 1.0, count: 1 }),
        agg(AggState::Average { sum: 1.0, count: 2 }),
    ]);
    out
}

fn value() -> impl Strategy<Value = V> {
    let edges = edges();
    prop_oneof![
        6 => (0..edges.len()).prop_map(move |i| edges[i].clone()),
        1 => (-4i64..4).prop_map(V::I64),
        1 => (0u64..4).prop_map(V::U64),
        1 => (-8i64..8).prop_map(|k| V::F64(k as f64 / 2.0)),
    ]
}

fn values() -> impl Strategy<Value = Vec<V>> {
    // Across `Tuple`'s inline capacity (4), so both representations meet.
    prop::collection::vec(value(), 0..7)
}

fn hash_of<T: Hash + ?Sized>(t: &T) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

fn class(v: &V) -> u8 {
    match v {
        V::Null => 0,
        V::Bool(_) => 1,
        V::I64(_) | V::U64(_) | V::F64(_) => 2,
        V::Str(_) => 3,
        V::Agg(_) => 4,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn the_order_is_total_antisymmetric_and_transitive(a in value(), b in value(), c in value()) {
        prop_assert_eq!(a.cmp(&a), Ordering::Equal);
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        prop_assert_eq!(a.partial_cmp(&b), Some(a.cmp(&b)));
        if a <= b && b <= c {
            prop_assert!(a <= c, "{a:?} <= {b:?} <= {c:?}");
        }
        if a == b && b == c {
            prop_assert!(a == c, "{a:?} == {b:?} == {c:?}");
        }
        prop_assert_eq!(class(&a).cmp(&class(&b)).then(a.cmp(&b)), a.cmp(&b), "class rank leads");
    }

    #[test]
    fn eq_is_cmp_equal_and_hash_agrees(a in value(), b in value()) {
        prop_assert_eq!(a == b, a.cmp(&b) == Ordering::Equal);
        prop_assert_eq!(a != b, a.cmp(&b) != Ordering::Equal);
        if a == b {
            prop_assert_eq!(hash_of(&a), hash_of(&b), "{a:?} == {b:?}");
        }
        prop_assert_eq!(hash_of(&a), hash_of(&a.clone()));
    }

    // The ±0.0 decision leaves no exception: `compare` ranks `-0.0` below
    // both `+0.0` and integer zero, as `cmp` does.
    #[test]
    fn compare_is_cmp_within_one_class(a in value(), b in value()) {
        let comparable = class(&a) == class(&b) || a.is_null() || b.is_null();
        prop_assert_eq!(a.compare(&b), comparable.then(|| a.cmp(&b)));
    }

    #[test]
    fn tuple_key_and_view_order_and_hash_alike(a in values(), b in values()) {
        let (ta, tb) = (Tuple::new(a.clone()), Tuple::new(b.clone()));
        let (ka, kb) = (GroupKey(ta.clone()), GroupKey(tb.clone()));
        let (va, vb): (&dyn Cols, &dyn Cols) = (&ta, &tb);
        let want = a.cmp(&b);
        prop_assert_eq!(ta.cmp(&tb), want);
        prop_assert_eq!(ka.cmp(&kb), want);
        prop_assert_eq!(va.cmp(vb), want);
        prop_assert_eq!(ta == tb, want == Ordering::Equal);
        prop_assert_eq!(va == vb, want == Ordering::Equal);
        prop_assert_eq!(hash_of(&ta), hash_of(&ka));
        prop_assert_eq!(hash_of(&ta), hash_of(va));
        // And the run of values a group table stores the key as.
        prop_assert_eq!(hash_of(&ta), hash_of(ta.values()));
        // The collected (inline-first) representation is the same tuple.
        let collected: Tuple = a.iter().cloned().collect();
        prop_assert_eq!(collected.cmp(&ta), Ordering::Equal);
        prop_assert_eq!(hash_of(&collected), hash_of(&ta));
    }
}

/// Random triples rarely land on one edge cluster (`-0.0`, `0`, `+0.0`), so
/// every triple of edges is checked as well.
#[test]
fn every_triple_of_edges_is_transitive() {
    let edges = edges();
    for a in &edges {
        for b in edges.iter().filter(|b| a <= *b) {
            for c in edges.iter().filter(|c| b <= *c) {
                assert!(a <= c, "{a:?} <= {b:?} <= {c:?}");
                assert!(a != c || (a == b && b == c), "{a:?} {b:?} {c:?}");
            }
        }
    }
}

/// The decisions DESIGN.md §5 records, one assertion each.
#[test]
fn the_recorded_decisions() {
    let lt = |a: V, b: V| {
        assert_eq!((a.cmp(&b), b.cmp(&a)), (Ordering::Less, Ordering::Greater));
        assert_ne!(a, b);
    };
    let eq = |a: V, b: V| {
        assert!(a == b && a.cmp(&b) == Ordering::Equal, "{a:?} == {b:?}");
        assert_eq!(hash_of(&a), hash_of(&b), "{a:?} {b:?}");
    };
    // ±0.0: total_cmp among floats; integer zero is +0.0.
    lt(V::F64(-0.0), V::F64(0.0));
    lt(V::F64(-0.0), V::I64(0));
    eq(V::F64(0.0), V::I64(0));
    eq(V::U64(0), V::I64(0));
    eq(V::I64(5), V::U64(5));
    eq(V::I64(5), V::F64(5.0));
    lt(V::F64(-f64::MIN_POSITIVE), V::F64(-0.0));
    // 2^53: integers are compared exactly, never through f64.
    lt(V::F64(P53 as f64), V::I64(P53 + 1));
    lt(V::U64(P53 as u64 + 1), V::F64((P53 + 2) as f64));
    eq(V::I64(P53), V::F64(P53 as f64));
    eq(V::U64(1 << 63), V::F64(2f64.powi(63)));
    lt(V::I64(i64::MAX), V::F64(2f64.powi(63)));
    lt(V::U64(u64::MAX), V::F64(2f64.powi(64)));
    eq(V::I64(i64::MIN), V::F64(-(2f64.powi(63))));
    // NaN has a place: by sign, beyond the infinities and every integer.
    lt(V::F64(-f64::NAN), V::F64(f64::NEG_INFINITY));
    lt(V::F64(f64::INFINITY), V::F64(f64::NAN));
    lt(V::U64(u64::MAX), V::F64(f64::NAN));
    lt(V::F64(-f64::NAN), V::I64(i64::MIN));
    eq(V::F64(f64::NAN), V::F64(f64::NAN));
    // Class rank.
    lt(V::Null, V::Bool(false));
    lt(V::Bool(true), V::F64(-f64::NAN));
    lt(V::F64(f64::NAN), V::str(""));
    lt(V::str("b"), V::Agg(Arc::new(AggState::Count(0))));
    // A prefix sorts first.
    lt(V::str("ab"), V::str("ab "));
    assert!(Tuple::new([V::I64(1)]) < Tuple::new([V::I64(1), V::Null]));
}
