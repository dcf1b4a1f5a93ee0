//! Property tests for `Baggage::join`, executed on real OS threads.
//!
//! The live runtime (`pivot-live`) joins baggage at real `thread::join`
//! and channel-receive merge points, concurrently with packs on sibling
//! threads. These tests pin down the algebra that makes that sound:
//!
//! - `join` is commutative and associative **up to observable state**
//!   (what `unpack` returns, as a multiset) for order-insensitive pack
//!   modes (`All`, grouped aggregation),
//! - `split` followed by `join` is lossless and duplicate-free,
//! - the whole API is usable from many threads at once (`Baggage: Send`),
//!   which is what the live runtime's instrumented `spawn` relies on.
//!
//! Cases are hand-rolled with a deterministic xorshift generator rather
//! than proptest so the same scripts replay identically on every thread.

use std::collections::BTreeMap;

use pivot_baggage::{Baggage, PackMode, QueryId};
use pivot_model::{AggFunc, Tuple, Value};

/// Deterministic xorshift64* generator: the same seed yields the same
/// random pack/split/join script on every platform.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

const QUERIES: [QueryId; 3] = [QueryId(1), QueryId(2), QueryId(300)];

fn tuple(tag: u64) -> Tuple {
    Tuple::from_iter([Value::U64(tag), Value::str(format!("t{tag}"))])
}

/// Builds a random baggage by splitting/joining/packing per the script
/// seeded by `seed`. Only `All`-mode packs, so observable state is a
/// multiset.
fn random_baggage(seed: u64, packs: &mut Vec<(QueryId, u64)>) -> Baggage {
    let mut rng = XorShift(seed | 1);
    let mut bag = Baggage::new();
    let mut branches: Vec<Baggage> = Vec::new();
    for step in 0..24u64 {
        match rng.below(4) {
            0 | 1 => {
                let q = QUERIES[rng.below(QUERIES.len() as u64) as usize];
                let tag = seed.wrapping_mul(1000) + step;
                let target = if branches.is_empty() {
                    &mut bag
                } else {
                    let i = rng.below(branches.len() as u64 + 1) as usize;
                    if i == branches.len() {
                        &mut bag
                    } else {
                        &mut branches[i]
                    }
                };
                target.pack(q, &PackMode::All, [tuple(tag)]);
                packs.push((q, tag));
            }
            2 => branches.push(bag.split()),
            _ => {
                if let Some(b) = branches.pop() {
                    bag.join(b);
                }
            }
        }
    }
    for b in branches {
        bag.join(b);
    }
    bag
}

/// The observable state of a baggage: per-query sorted tag multisets.
fn observe(bag: &Baggage) -> BTreeMap<QueryId, Vec<u64>> {
    QUERIES
        .iter()
        .map(|q| {
            let mut tags: Vec<u64> = bag
                .unpack(*q)
                .iter()
                .map(|t| match t.get(0) {
                    Value::U64(x) => *x,
                    other => panic!("unexpected value {other:?}"),
                })
                .collect();
            tags.sort_unstable();
            (*q, tags)
        })
        .collect()
}

fn check_algebra(seed: u64) {
    // Build three independent requests' baggage. Joining baggage from
    // *separate* requests is not meaningful causally, so instead derive
    // a, b, c as branches of one request — exactly what thread fan-out
    // produces.
    let mut packs = Vec::new();
    let mut root = random_baggage(seed, &mut packs);
    let mut a = root.split();
    let mut b = root.split();
    let mut c = root.split();
    for (i, branch) in [&mut a, &mut b, &mut c].into_iter().enumerate() {
        let q = QUERIES[i % QUERIES.len()];
        branch.pack(q, &PackMode::All, [tuple(seed * 10 + i as u64)]);
    }

    // Commutativity: a ⋈ b ~ b ⋈ a.
    let mut ab = a.clone();
    ab.join(b.clone());
    let mut ba = b.clone();
    ba.join(a.clone());
    assert_eq!(
        observe(&ab),
        observe(&ba),
        "join not commutative, seed {seed}"
    );

    // Associativity: (a ⋈ b) ⋈ c ~ a ⋈ (b ⋈ c).
    let mut ab_c = ab.clone();
    ab_c.join(c.clone());
    let mut bc = b;
    bc.join(c);
    let mut a_bc = a;
    a_bc.join(bc);
    assert_eq!(
        observe(&ab_c),
        observe(&a_bc),
        "join not associative, seed {seed}"
    );

    // Idempotence of rejoining a split: root ⋈ split(root) ~ root.
    let before = observe(&root);
    let side = root.split();
    root.join(side);
    assert_eq!(
        observe(&root),
        before,
        "split-join not lossless, seed {seed}"
    );
}

fn check_split_join_lossless(seed: u64) {
    let mut packs = Vec::new();
    let bag = random_baggage(seed, &mut packs);
    // Every pack that ever happened must be visible exactly once after all
    // branches rejoined (All mode retains everything; split/join must
    // neither drop nor duplicate).
    let mut expect: BTreeMap<QueryId, Vec<u64>> =
        QUERIES.iter().map(|q| (*q, Vec::new())).collect();
    for (q, tag) in packs {
        expect.get_mut(&q).expect("known query").push(tag);
    }
    for tags in expect.values_mut() {
        tags.sort_unstable();
    }
    assert_eq!(
        observe(&bag),
        expect,
        "lost or duplicated tuples, seed {seed}"
    );
}

#[test]
fn join_algebra_holds_across_threads() {
    let handles: Vec<_> = (0..8u64)
        .map(|t| {
            std::thread::spawn(move || {
                for i in 0..50 {
                    check_algebra(t * 1000 + i + 1);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker panicked");
    }
}

#[test]
fn split_then_join_is_lossless_across_threads() {
    let handles: Vec<_> = (0..8u64)
        .map(|t| {
            std::thread::spawn(move || {
                for i in 0..50 {
                    check_split_join_lossless(t * 7777 + i + 1);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker panicked");
    }
}

#[test]
fn grouped_pack_join_is_commutative() {
    let mode = PackMode::GroupAgg {
        key_len: 1,
        aggs: vec![AggFunc::Count],
    };
    let row = |k: &str| Tuple::from_iter([Value::str(k), Value::Null]);
    let finish = |bag: &Baggage| -> BTreeMap<String, Value> {
        bag.unpack(QueryId(1))
            .iter()
            .map(|t| {
                let key = match t.get(0) {
                    Value::Str(s) => s.to_string(),
                    other => panic!("unexpected key {other:?}"),
                };
                (key, t.get(1).as_agg().expect("agg state").finish())
            })
            .collect()
    };

    let mut root = Baggage::new();
    root.pack(QueryId(1), &mode, [row("x")]);
    let mut a = root.split();
    let mut b = root.split();
    a.pack(QueryId(1), &mode, [row("x"), row("y")]);
    b.pack(QueryId(1), &mode, [row("y"), row("z")]);

    let mut ab = a.clone();
    ab.join(b.clone());
    let mut ba = b;
    ba.join(a);
    assert_eq!(finish(&ab), finish(&ba));
    assert_eq!(finish(&ab)["x"], Value::U64(2));
    assert_eq!(finish(&ab)["y"], Value::U64(2));
    assert_eq!(finish(&ab)["z"], Value::U64(1));
}

/// An in-process fan-out from a baggage that holds nothing: two branches
/// pack the same tuple, each hands its baggage through a branch and back
/// (retiring the packed instance under its own stamp), and both rejoin
/// the root. The two retired instances are equal in content, so only the
/// branches' distinct identities keep `join` from folding them into one:
/// a split that skipped the fork while nothing was packed would lose a
/// tuple here.
#[test]
fn fan_out_from_an_empty_baggage_keeps_both_branches_equal_tuples() {
    let mut root = Baggage::new();
    assert!(root.is_empty());
    let mut a = root.split();
    let mut b = root.split();
    for branch in [&mut a, &mut b] {
        branch.pack(QueryId(1), &PackMode::All, [tuple(7)]);
        let hand_off = branch.split();
        branch.join(hand_off);
    }
    root.join(a);
    root.join(b);
    assert_eq!(root.unpack(QueryId(1)), vec![tuple(7), tuple(7)]);
}

/// `Baggage` values cross real thread boundaries in the live runtime;
/// compile-time proof they are `Send`.
#[test]
fn baggage_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Baggage>();
}
