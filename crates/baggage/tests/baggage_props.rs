//! Property-based tests for baggage invariants.
//!
//! The central invariant (paper §5): tuples packed by one branch of an
//! execution are invisible to sibling branches until the branches rejoin,
//! and after rejoining every tuple is visible exactly once.

use pivot_baggage::{Baggage, PackMode, QueryId};
use pivot_model::{Tuple, Value};
use proptest::prelude::*;

const Q: QueryId = QueryId(1);

fn t(v: i64) -> Tuple {
    Tuple::from_iter([Value::I64(v)])
}

/// A script of actions over a stack of execution branches.
#[derive(Debug, Clone)]
enum Act {
    /// Pack a fresh uniquely-numbered tuple on branch `i`.
    Pack(usize),
    /// Split branch `i`, pushing the new branch.
    Split(usize),
    /// Join the last branch into branch `i` (if distinct).
    Join(usize),
    /// Serialize + deserialize branch `i` (a process hop).
    Hop(usize),
}

fn act_strategy() -> impl Strategy<Value = Act> {
    prop_oneof![
        (0usize..6).prop_map(Act::Pack),
        (0usize..6).prop_map(Act::Split),
        (0usize..6).prop_map(Act::Join),
        (0usize..6).prop_map(Act::Hop),
    ]
}

/// Runs a script, returning the final branches and, per branch, the set of
/// tuple ids that *should* be visible there (its causal past).
fn run(acts: &[Act]) -> (Vec<Baggage>, Vec<Vec<i64>>) {
    let mut bags = vec![Baggage::new()];
    let mut visible: Vec<Vec<i64>> = vec![vec![]];
    let mut next = 0i64;
    for act in acts {
        match *act {
            Act::Pack(i) => {
                let i = i % bags.len();
                bags[i].pack(Q, &PackMode::All, [t(next)]);
                visible[i].push(next);
                next += 1;
            }
            Act::Split(i) => {
                if bags.len() >= 8 {
                    continue;
                }
                let i = i % bags.len();
                let side = bags[i].split();
                bags.push(side);
                let vis = visible[i].clone();
                visible.push(vis);
            }
            Act::Join(i) => {
                if bags.len() < 2 {
                    continue;
                }
                let i = i % (bags.len() - 1);
                let side = bags.pop().expect("len >= 2");
                let vis = visible.pop().expect("len >= 2");
                bags[i].join(side);
                for v in vis {
                    if !visible[i].contains(&v) {
                        visible[i].push(v);
                    }
                }
            }
            Act::Hop(i) => {
                let i = i % bags.len();
                let bytes = bags[i].to_bytes();
                bags[i] = Baggage::try_from_bytes(&bytes).expect("own bytes decode");
            }
        }
    }
    (bags, visible)
}

proptest! {
    /// Every branch sees exactly its causal past: no sibling leakage, no
    /// duplication, no loss — across arbitrary split/join/hop interleavings.
    #[test]
    fn visibility_matches_causal_past(
        acts in prop::collection::vec(act_strategy(), 0..60)
    ) {
        let (mut bags, visible) = run(&acts);
        for (bag, expect) in bags.iter_mut().zip(&visible) {
            let mut got: Vec<i64> = bag
                .unpack(Q)
                .iter()
                .map(|t| t.get(0).as_i64().expect("i64 tuple"))
                .collect();
            got.sort_unstable();
            let mut expect = expect.clone();
            expect.sort_unstable();
            prop_assert_eq!(got, expect);
        }
    }

    /// Serialization round trips: a hop never changes what a branch sees.
    #[test]
    fn hops_are_transparent(
        acts in prop::collection::vec(act_strategy(), 0..40)
    ) {
        let (mut bags, _) = run(&acts);
        for bag in bags.iter_mut() {
            let before = bag.unpack(Q);
            let bytes = bag.to_bytes();
            let back = Baggage::try_from_bytes(&bytes).expect("own bytes decode");
            prop_assert_eq!(back.unpack(Q), before);
        }
    }

    /// FIRST(1) yields exactly one tuple (the causally earliest) no matter
    /// how the execution branches.
    #[test]
    fn first_is_globally_first(
        acts in prop::collection::vec(act_strategy(), 0..40)
    ) {
        // Replay the same script but pack with FIRST(1) everywhere.
        let mut bags = vec![Baggage::new()];
        let mut packed_any = false;
        let mut first_packed = false;
        for act in &acts {
            match *act {
                Act::Pack(i) => {
                    let i = i % bags.len();
                    bags[i].pack(Q, &PackMode::First(1), [t(7)]);
                    // Only packs on the root lineage are guaranteed globally
                    // first; we just check the count invariant below.
                    packed_any = true;
                    if i == 0 {
                        first_packed = true;
                    }
                }
                Act::Split(i) => {
                    if bags.len() >= 8 { continue; }
                    let i = i % bags.len();
                    let side = bags[i].split();
                    bags.push(side);
                }
                Act::Join(i) => {
                    if bags.len() < 2 { continue; }
                    let i = i % (bags.len() - 1);
                    let side = bags.pop().expect("len >= 2");
                    bags[i].join(side);
                }
                Act::Hop(i) => {
                    let i = i % bags.len();
                    let bytes = bags[i].to_bytes();
                    bags[i] = Baggage::try_from_bytes(&bytes).expect("own bytes decode");
                }
            }
        }
        // Join everything into one and check at most 1 tuple survives.
        let mut root = bags.remove(0);
        for b in bags {
            root.join(b);
        }
        let n = root.unpack(Q).len();
        prop_assert!(n <= 1, "FIRST(1) produced {n} tuples");
        if packed_any && first_packed {
            prop_assert_eq!(n, 1);
        }
    }
}
