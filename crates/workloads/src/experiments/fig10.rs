//! Figure 10: baggage API microbenchmarks — pack one tuple, unpack all,
//! serialize, and deserialize, as a function of the number of 8-byte
//! tuples already in the baggage (1–256).
//!
//! These are quick wall-clock timing loops; the same operations on a live
//! request path, with run-to-run spreads, are the `baggage.*_ns`
//! per-layer metrics of a traced `benchmark/` run (`-- --trace 1`).

use std::time::Instant;

use pivot_baggage::{Baggage, PackMode, QueryId};
use pivot_model::{Tuple, Value};

use crate::experiments::{fixed, table};

/// Iterations of each timing loop.
const ITERS: usize = 20_000;

const Q: QueryId = QueryId(1);

fn tuple(i: u64) -> Tuple {
    Tuple::from_iter([Value::U64(i)])
}

fn filled(n: usize) -> Baggage {
    let mut bag = Baggage::new();
    bag.pack(Q, &PackMode::All, (0..n as u64).map(tuple));
    bag
}

fn time_ns(mut op: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..ITERS {
        op();
    }
    start.elapsed().as_nanos() as f64 / ITERS as f64
}

/// Times the four operations at 1–256 tuples: `results/fig10.txt`.
pub fn render() -> String {
    let sizes = [1usize, 2, 4, 8, 16, 32, 64, 128, 256];
    let mut rows = Vec::new();
    for &n in &sizes {
        // (a) pack one more tuple into a baggage of n tuples.
        let base = filled(n);
        let pack = time_ns(|| {
            let mut bag = base.clone();
            bag.pack(Q, &PackMode::All, [tuple(999)]);
            std::hint::black_box(&bag);
        });
        // Subtract the clone cost measured separately.
        let clone_cost = time_ns(|| {
            std::hint::black_box(base.clone());
        });

        // (b) unpack all tuples, the way the advice VM reads them: a view
        // over the entry's own storage (`unpack` would clone every tuple
        // out, which no query pays).
        let bag = filled(n);
        let unpack = time_ns(|| {
            std::hint::black_box(bag.unpack_view(Q).len());
        });

        // (c) serialize.
        let serialize = time_ns(|| {
            let mut bag = base.clone();
            // Invalidate the cache so encoding actually happens.
            bag.pack(Q, &PackMode::All, std::iter::empty::<Tuple>());
            std::hint::black_box(bag.to_bytes());
        });

        // (d) deserialize: the strict decode, then a read.
        let mut src = filled(n);
        let bytes = src.to_bytes();
        let deserialize = time_ns(|| {
            let bag = Baggage::try_from_bytes(&bytes).expect("own bytes decode strictly");
            std::hint::black_box(bag.unpack_view(Q).len());
        });

        rows.push(vec![
            n.to_string(),
            fixed((pack - clone_cost).max(0.0) / 1000.0, 3),
            fixed(unpack / 1000.0, 3),
            fixed((serialize - clone_cost).max(0.0) / 1000.0, 3),
            fixed(deserialize / 1000.0, 3),
        ]);
    }
    let mut out = String::new();
    table(
        &mut out,
        "Figure 10: baggage microbenchmarks (µs per op, 8-byte tuples)",
        &[
            "tuples",
            "(a) pack 1",
            "(b) unpack all",
            "(c) serialize",
            "(d) deserialize",
        ],
        &rows,
    );
    out.push_str(
        "\npaper shape: pack and unpack stay flat; serialize and deserialize\n\
         grow linearly in the tuple count, deserialize the most expensive.\n",
    );
    out
}
