//! Property-based tests for the interval tree clock kernel.

use pivot_itc::{Decoder, Encoder, Event, Id, Stamp};
use proptest::prelude::*;

/// A random sequence of operations over a dynamic population of stamps.
#[derive(Debug, Clone)]
enum Op {
    /// Fork stamp `i`, appending both halves.
    Fork(usize),
    /// Record an event on stamp `i`.
    Event(usize),
    /// Join stamps `i` and `j` (replacing `i`, removing `j`).
    Join(usize, usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..8).prop_map(Op::Fork),
        (0usize..8).prop_map(Op::Event),
        ((0usize..8), (0usize..8)).prop_map(|(a, b)| Op::Join(a, b)),
    ]
}

/// Applies ops to a population, keeping it non-empty and indices in range.
fn run_ops(ops: &[Op]) -> Vec<Stamp> {
    let mut stamps = vec![Stamp::seed()];
    for op in ops {
        match *op {
            Op::Fork(i) => {
                let i = i % stamps.len();
                let (a, b) = stamps[i].fork();
                stamps[i] = a;
                stamps.push(b);
            }
            Op::Event(i) => {
                let i = i % stamps.len();
                stamps[i].event();
            }
            Op::Join(i, j) => {
                if stamps.len() < 2 {
                    continue;
                }
                let i = i % stamps.len();
                let mut j = j % stamps.len();
                if i == j {
                    j = (j + 1) % stamps.len();
                }
                let (lo, hi) = (i.min(j), i.max(j));
                let removed = stamps.remove(hi);
                stamps[lo] = stamps[lo].join(&removed);
            }
        }
    }
    stamps
}

proptest! {
    /// Identities in the live population are always pairwise disjoint.
    #[test]
    fn identities_stay_disjoint(ops in prop::collection::vec(op_strategy(), 0..40)) {
        let stamps = run_ops(&ops);
        for (i, a) in stamps.iter().enumerate() {
            for (j, b) in stamps.iter().enumerate() {
                if i != j {
                    prop_assert!(
                        !a.id().overlaps(b.id()),
                        "{a:?} overlaps {b:?}"
                    );
                }
            }
        }
    }

    /// Joining all live stamps always recovers the whole-interval identity.
    #[test]
    fn joining_all_recovers_seed(ops in prop::collection::vec(op_strategy(), 0..40)) {
        let stamps = run_ops(&ops);
        let mut acc = stamps[0].clone();
        for s in &stamps[1..] {
            acc = acc.join(s);
        }
        prop_assert!(acc.id().is_whole());
    }

    /// An event strictly advances a stamp, and join computes a least upper
    /// bound that dominates both inputs.
    #[test]
    fn event_advances_join_dominates(ops in prop::collection::vec(op_strategy(), 0..40)) {
        let stamps = run_ops(&ops);
        for s in &stamps {
            let mut after = s.clone();
            after.event();
            prop_assert!(s.leq(&after));
            prop_assert!(!after.leq(s));
        }
        if stamps.len() >= 2 {
            let j = stamps[0].join(&stamps[1]);
            prop_assert!(stamps[0].leq(&j));
            prop_assert!(stamps[1].leq(&j));
        }
    }

    /// Stamps survive a serialization round trip unchanged.
    #[test]
    fn stamps_round_trip(ops in prop::collection::vec(op_strategy(), 0..40)) {
        let stamps = run_ops(&ops);
        for s in &stamps {
            let mut enc = Encoder::new();
            s.encode(&mut enc);
            let bytes = enc.finish();
            let mut dec = Decoder::new(&bytes);
            let back = Stamp::decode(&mut dec).unwrap();
            prop_assert_eq!(&back, s);
            prop_assert!(dec.is_empty());
        }
    }

    /// `leq` on event trees is a partial order: reflexive, antisymmetric
    /// (up to normalization), and transitive across a join chain.
    #[test]
    fn leq_partial_order(ops in prop::collection::vec(op_strategy(), 0..40)) {
        let stamps = run_ops(&ops);
        for a in &stamps {
            prop_assert!(a.leq(a));
        }
        // a <= a.join(b) <= (a.join(b)).join(c): transitivity witness.
        if stamps.len() >= 3 {
            let ab = stamps[0].join(&stamps[1]);
            let abc = ab.join(&stamps[2]);
            prop_assert!(stamps[0].leq(&ab));
            prop_assert!(ab.leq(&abc));
            prop_assert!(stamps[0].leq(&abc));
        }
    }
}

#[test]
fn deep_fork_chain_remains_correct() {
    // Fork 64 times along one side, event each, then join everything back.
    let mut side = Vec::new();
    let mut cur = Stamp::seed();
    for _ in 0..64 {
        let (a, b) = cur.fork();
        cur = a;
        side.push(b);
    }
    cur.event();
    for s in &mut side {
        s.event();
    }
    let mut acc = cur;
    for s in side {
        acc = acc.join(&s);
    }
    assert!(acc.id().is_whole());
    assert!(Event::zero().leq(acc.event_tree()));
    assert!(acc.event_tree().max() >= 1);
}

#[test]
fn id_depth_grows_logarithmically_under_balanced_forks() {
    let mut stamps = vec![Stamp::seed()];
    for _ in 0..6 {
        let mut next = Vec::new();
        for s in &stamps {
            let (a, b) = s.fork();
            next.push(a);
            next.push(b);
        }
        stamps = next;
    }
    assert_eq!(stamps.len(), 64);
    for s in &stamps {
        assert!(s.id().depth() <= 7, "depth {}", s.id().depth());
    }
    let _ = Id::one(); // silence unused import when features change
}
