//! Differential test for the ITC kernel: the preorder-buffer
//! [`pivot_itc::Stamp`] must be indistinguishable from the recursive
//! `Box`-tree kernel it replaced (`support/tree.rs`) — same encoded bytes,
//! same causal order, same `Debug` text — after every step of random
//! fork / event / peek / join / wire-hop scripts.
//!
//! Unlike `itc_props.rs`, joins here may pick stamps whose identities
//! overlap (a stamp and a copy of it that went over the wire): the join
//! must then keep `self`'s identity on both sides.

use pivot_itc::{Decoder, Encoder, Stamp};
use proptest::prelude::*;

#[path = "support/tree.rs"]
mod tree;

#[derive(Debug, Clone)]
enum Op {
    /// Fork stamp `i`; the second half joins the population.
    Fork(usize),
    /// Record an event on stamp `i` (skipped while `i` is anonymous).
    Event(usize),
    /// Add an anonymous peek of stamp `i` to the population.
    Peek(usize),
    /// Join `j` into `i`, consuming `j`.
    Join(usize, usize),
    /// Join `j` into `i` and keep `j` too, so later joins see its identity
    /// again.
    JoinKeeping(usize, usize),
    /// Replace stamp `i` by its encode → decode image and keep a copy.
    Hop(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let i = || 0usize..16;
    prop_oneof![
        3 => i().prop_map(Op::Fork),
        4 => i().prop_map(Op::Event),
        1 => i().prop_map(Op::Peek),
        2 => (i(), i()).prop_map(|(a, b)| Op::Join(a, b)),
        1 => (i(), i()).prop_map(|(a, b)| Op::JoinKeeping(a, b)),
        1 => i().prop_map(Op::Hop),
    ]
}

fn bytes_of(s: &Stamp) -> Vec<u8> {
    let mut enc = Encoder::new();
    s.encode(&mut enc);
    enc.finish()
}

fn oracle_bytes_of(s: &tree::Stamp) -> Vec<u8> {
    let mut enc = Encoder::new();
    s.encode(&mut enc);
    enc.finish()
}

/// Both populations, moved in lockstep.
struct Pair {
    new: Vec<Stamp>,
    old: Vec<tree::Stamp>,
}

impl Pair {
    /// Eight distinct stamps to start from, three levels of forks deep.
    fn start() -> Pair {
        let mut pair = Pair {
            new: vec![Stamp::seed()],
            old: vec![tree::Stamp::seed()],
        };
        for i in [0, 0, 1, 0, 1, 2, 3] {
            pair.apply(&Op::Fork(i));
        }
        pair
    }

    /// Applies `op` to both populations and returns the index it changed
    /// (what it may have appended is the last stamp).
    fn apply(&mut self, op: &Op) -> usize {
        let len = self.new.len();
        match *op {
            Op::Fork(i) => {
                let i = i % len;
                let (a, b) = self.new[i].fork();
                self.new[i] = a;
                self.new.push(b);
                let (a, b) = self.old[i].fork();
                self.old[i] = a;
                self.old.push(b);
                i
            }
            Op::Event(i) => {
                let i = i % len;
                if !self.new[i].id().is_zero() {
                    self.new[i].event();
                    self.old[i].event();
                }
                i
            }
            Op::Peek(i) => {
                let i = i % len;
                self.new.push(self.new[i].peek());
                self.old.push(self.old[i].peek());
                i
            }
            Op::Join(i, j) | Op::JoinKeeping(i, j) => {
                let (i, j) = (i % len, j % len);
                self.new[i] = self.new[i].join(&self.new[j]);
                self.old[i] = self.old[i].join(&self.old[j]);
                if matches!(op, Op::Join(..)) && i != j && len > 8 {
                    self.new.swap_remove(j);
                    self.old.swap_remove(j);
                    // The last stamp moved into `j`; `i` moved if it was last.
                    return if i == len - 1 { j } else { i };
                }
                i
            }
            Op::Hop(i) => {
                let i = i % len;
                let bytes = bytes_of(&self.new[i]);
                let back = Stamp::decode(&mut Decoder::new(&bytes)).expect("own encoding decodes");
                let old = tree::Stamp::decode(&mut Decoder::new(&bytes)).expect("oracle decodes");
                self.new.push(back);
                self.new.swap(i, len);
                self.old.push(old);
                self.old.swap(i, len);
                i
            }
        }
    }

    /// Every stamp's bytes and `Debug` text, and the order and overlap of
    /// the changed stamps against every stamp, agree with the oracle.
    fn check(&self, changed: usize, after: &Op) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.new.len(), self.old.len());
        for (n, o) in self.new.iter().zip(&self.old) {
            prop_assert_eq!(format!("{n:?}"), format!("{o:?}"), "after {:?}", after);
            prop_assert_eq!(bytes_of(n), oracle_bytes_of(o), "after {:?}", after);
        }
        for a in [changed, self.new.len() - 1] {
            for b in 0..self.new.len() {
                for (x, y) in [(a, b), (b, a)] {
                    prop_assert_eq!(
                        self.new[x].leq(&self.new[y]),
                        self.old[x].leq(&self.old[y]),
                        "{:?} <= {:?} after {:?}",
                        self.new[x],
                        self.new[y],
                        after
                    );
                }
                prop_assert_eq!(
                    self.new[a].id().overlaps(self.new[b].id()),
                    self.old[a].id().overlaps(self.old[b].id())
                );
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn scripts_match_the_tree_kernel(ops in prop::collection::vec(op_strategy(), 40..120)) {
        let mut pair = Pair::start();
        prop_assert!(pair.new.len() >= 8);
        for op in &ops {
            let changed = pair.apply(op);
            pair.check(changed, op)?;
        }
    }
}

/// What the random scripts rarely reach: a chain of forks deep enough to
/// leave the inline cells, evented and joined back one by one.
#[test]
fn deep_chain_matches_the_tree_kernel() {
    let mut pair = Pair {
        new: vec![Stamp::seed()],
        old: vec![tree::Stamp::seed()],
    };
    for _ in 0..64 {
        pair.apply(&Op::Fork(0));
    }
    for i in 0..pair.new.len() {
        for _ in 0..=i % 3 {
            pair.apply(&Op::Event(i));
        }
    }
    for i in 0..pair.new.len() {
        pair.check(i, &Op::Event(i)).unwrap();
    }
    while pair.new.len() > 1 {
        let last = pair.new.len() - 1;
        // `Join` only consumes above eight stamps; remove by hand below.
        pair.apply(&Op::JoinKeeping(last / 2, last));
        pair.new.pop();
        pair.old.pop();
        pair.apply(&Op::Event(last / 2));
        pair.check(last / 2, &Op::Join(last / 2, last)).unwrap();
    }
    assert!(pair.new[0].id().is_whole());
}
