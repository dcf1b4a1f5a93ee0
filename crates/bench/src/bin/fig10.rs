//! Regenerates Figure 10: baggage API microbenchmarks — pack one tuple,
//! unpack all, serialize, and deserialize, as a function of the number of
//! 8-byte tuples already in the baggage (1–256).
//!
//! This binary prints quick timing-loop results; the same operations on
//! a live request path, with run-to-run spreads, are the `baggage.*_ns`
//! per-layer metrics of a traced `benchmark/` run (`-- --trace 1`).
//!
//! ```text
//! cargo run -p pivot-bench --bin fig10 --release -- [--iters 2000]
//! ```

use std::time::Instant;

use pivot_baggage::{Baggage, PackMode, QueryId};
use pivot_bench::{f, flag_usize, print_table};
use pivot_model::{Tuple, Value};

const Q: QueryId = QueryId(1);

fn tuple(i: u64) -> Tuple {
    Tuple::from_iter([Value::U64(i)])
}

fn filled(n: usize) -> Baggage {
    let mut bag = Baggage::new();
    bag.pack(Q, &PackMode::All, (0..n as u64).map(tuple));
    bag
}

fn time_ns(iters: usize, mut op: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        op();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn main() {
    let iters = flag_usize("--iters", 2000);
    let sizes = [1usize, 2, 4, 8, 16, 32, 64, 128, 256];
    let mut rows = Vec::new();
    for &n in &sizes {
        // (a) pack one more tuple into a baggage of n tuples.
        let base = filled(n);
        let pack = time_ns(iters, || {
            let mut bag = base.clone();
            bag.pack(Q, &PackMode::All, [tuple(999)]);
            std::hint::black_box(&bag);
        });
        // Subtract the clone cost measured separately.
        let clone_cost = time_ns(iters, || {
            std::hint::black_box(base.clone());
        });

        // (b) unpack all tuples, the way the advice VM reads them: a view
        // over the entry's own storage (`unpack` would clone every tuple
        // out, which no query pays).
        let bag = filled(n);
        let unpack = time_ns(iters, || {
            std::hint::black_box(bag.unpack_view(Q).len());
        });

        // (c) serialize.
        let serialize = time_ns(iters, || {
            let mut bag = base.clone();
            // Invalidate the cache so encoding actually happens.
            bag.pack(Q, &PackMode::All, std::iter::empty::<Tuple>());
            std::hint::black_box(bag.to_bytes());
        });

        // (d) deserialize: the strict decode, then a read.
        let mut src = filled(n);
        let bytes = src.to_bytes();
        let deserialize = time_ns(iters, || {
            let bag = Baggage::try_from_bytes(&bytes).expect("own bytes decode strictly");
            std::hint::black_box(bag.unpack_view(Q).len());
        });

        rows.push(vec![
            n.to_string(),
            f((pack - clone_cost).max(0.0) / 1000.0, 3),
            f(unpack / 1000.0, 3),
            f((serialize - clone_cost).max(0.0) / 1000.0, 3),
            f(deserialize / 1000.0, 3),
        ]);
    }
    print_table(
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
    println!(
        "\npaper shape: pack and unpack stay flat; serialize and deserialize\n\
         grow linearly in the tuple count, deserialize the most expensive."
    );
}
