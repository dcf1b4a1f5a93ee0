//! Property-based tests for baggage invariants.
//!
//! The central invariant (paper §5): tuples packed by one branch of an
//! execution are invisible to sibling branches until the branches rejoin,
//! and after rejoining every tuple is visible exactly once.

use pivot_baggage::{Baggage, PackMode, QueryId};
use pivot_model::{Tuple, Value};
use proptest::prelude::*;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

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

/// A script over a stack of branches that packs under several queries
/// and clears them again, for [`an_emptied_baggage_is_an_empty_baggage`].
#[derive(Debug, Clone)]
enum Step {
    /// Pack a fresh tuple for query `q` on branch `i`.
    Pack(usize, u64),
    /// Split branch `i`, pushing the new branch.
    Split(usize),
    /// Join the last branch into branch `i` (if distinct).
    Join(usize),
    /// Serialize + deserialize branch `i` (a process hop).
    Hop(usize),
    /// Drop query `q` from branch `i`.
    Clear(usize, u64),
}

/// More queries than an entry map holds inline, so the spill is exercised.
const QUERIES: u64 = 4;

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => (0usize..6, 1..QUERIES + 1).prop_map(|(i, q)| Step::Pack(i, q)),
        2 => (0usize..6).prop_map(Step::Split),
        2 => (0usize..6).prop_map(Step::Join),
        1 => (0usize..6).prop_map(Step::Hop),
        1 => (0usize..6, 1..QUERIES + 1).prop_map(|(i, q)| Step::Clear(i, q)),
    ]
}

/// Runs `steps` twice over: on baggages that pack and clear, and on
/// never-packed twins that make the same splits and joins. A hop takes
/// the twin's stamp with it only when the header was empty, since only a
/// non-empty header carries one.
fn run_with_twins(steps: &[Step]) -> (Vec<Baggage>, Vec<Baggage>) {
    let mut bags = vec![Baggage::new()];
    let mut twins = vec![Baggage::new()];
    let mut next = 0i64;
    for step in steps {
        match *step {
            Step::Pack(i, q) => {
                let i = i % bags.len();
                bags[i].pack(QueryId(q), &PackMode::All, [t(next)]);
                next += 1;
            }
            Step::Split(i) => {
                if bags.len() >= 8 {
                    continue;
                }
                let i = i % bags.len();
                let side = bags[i].split();
                bags.push(side);
                let side = twins[i].split();
                twins.push(side);
            }
            Step::Join(i) => {
                if bags.len() < 2 {
                    continue;
                }
                let i = i % (bags.len() - 1);
                let side = bags.pop().expect("len >= 2");
                bags[i].join(side);
                let side = twins.pop().expect("len >= 2");
                twins[i].join(side);
            }
            Step::Hop(i) => {
                let i = i % bags.len();
                let bytes = bags[i].to_bytes();
                bags[i] = Baggage::try_from_bytes(&bytes).expect("own bytes decode");
                if bytes.is_empty() {
                    let bytes = twins[i].to_bytes();
                    twins[i] = Baggage::try_from_bytes(&bytes).expect("own bytes decode");
                }
            }
            Step::Clear(i, q) => {
                let i = i % bags.len();
                bags[i].clear_query(QueryId(q));
            }
        }
    }
    (bags, twins)
}

/// The shard edge and back (`benchmark/src/svc.rs::request`): a split
/// joined into a fresh baggage, which splits again to be joined back.
/// Returns the allocations of the four calls.
fn split_join(bag: &mut Baggage) -> [u64; 4] {
    let (split, side) = allocations(|| bag.split());
    let mut fresh = Baggage::new();
    let (join, ()) = allocations(|| fresh.join(side));
    let (reply, back) = allocations(|| fresh.split());
    let (join_back, ()) = allocations(|| bag.join(back));
    [split, join, reply, join_back]
}

proptest! {
    /// Once every query is cleared, nothing is left of having packed: the
    /// baggage equals its never-packed twin, its header is 0 bytes, and
    /// it splits and joins with the allocations of the twin — none, while
    /// the stamp fits inline — whatever state its packs, retirements and
    /// decodes left behind the handle.
    #[test]
    fn an_emptied_baggage_is_an_empty_baggage(
        steps in prop::collection::vec(step_strategy(), 0..60)
    ) {
        let (mut bags, mut twins) = run_with_twins(&steps);
        // The thread's shared empty header exists before anything counts.
        drop(Baggage::new().to_bytes());
        for (bag, twin) in bags.iter_mut().zip(&mut twins) {
            for q in 1..=QUERIES {
                bag.clear_query(QueryId(q));
            }
            prop_assert!(bag.is_empty());
            prop_assert_eq!(&*bag, &*twin);
            prop_assert_eq!(bag.to_bytes().len(), 0);
            for round in 0..2 {
                // A stamp the script left deeper than its inline cells
                // allocates in the kernel, on both sides alike; the
                // baggage may not add to that.
                let (twin_n, bag_n) = (split_join(twin), split_join(bag));
                prop_assert_eq!(bag_n, twin_n, "round {}", round);
                prop_assert_eq!(&*bag, &*twin);
            }
        }
    }

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
