//! Table 5: application-level overheads of Pivot Tracing (paper §6.3).
//!
//! Measures the latency overhead of NNBench-derived HDFS requests
//! (`Read8k`, `Open`, `Create`, `Rename`) under six configurations:
//!
//! 1. unmodified (agents hard-disabled),
//! 2. Pivot Tracing enabled, no queries,
//! 3. baggage with 1 tuple propagating, no advice,
//! 4. baggage with 60 tuples (≈1 kB) propagating, no advice,
//! 5. the §6.1 queries (Q3–Q7) installed,
//! 6. the §6.2 timing queries installed.
//!
//! Overheads are reported two ways: **wall-clock** per-request cost of the
//! Pivot Tracing machinery itself (the real Rust code executing on the
//! simulated request path — the analogue of the paper's CPU overhead), and
//! the **virtual-time** request latency (which captures baggage bytes
//! inflating RPC messages).

use std::rc::Rc;
use std::time::Instant;

use pivot_baggage::{Baggage, PackMode, QueryId};
use pivot_hadoop::cluster::ClusterConfig;
use pivot_model::{Tuple, Value};

use crate::clients::NnOp;
use crate::experiments::{fig8, fig9, fixed, table};
use crate::stack::{SimStack, StackConfig};

/// The measured configurations, in paper order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Setup {
    /// No Pivot Tracing at all.
    Unmodified,
    /// Agents active, nothing woven.
    PivotTracingEnabled,
    /// One tuple riding in the baggage, no advice.
    Baggage1,
    /// Sixty tuples (≈1 kB) riding in the baggage, no advice.
    Baggage60,
    /// The §6.1 diagnosis queries installed (Q3–Q7).
    Queries61,
    /// The §6.2 timing queries installed.
    Queries62,
}

impl Setup {
    /// All six rows.
    pub const ALL: [Setup; 6] = [
        Setup::Unmodified,
        Setup::PivotTracingEnabled,
        Setup::Baggage1,
        Setup::Baggage60,
        Setup::Queries61,
        Setup::Queries62,
    ];

    /// Row label matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Setup::Unmodified => "Unmodified",
            Setup::PivotTracingEnabled => "PivotTracing Enabled",
            Setup::Baggage1 => "Baggage - 1 Tuple",
            Setup::Baggage60 => "Baggage - 60 Tuples",
            Setup::Queries61 => "Queries - 6.1",
            Setup::Queries62 => "Queries - 6.2",
        }
    }
}

/// Configuration of the Table 5 run.
#[derive(Clone, Debug)]
pub struct Config {
    /// RNG seed.
    pub seed: u64,
    /// Requests per (setup, operation) cell.
    pub requests: usize,
    /// Worker host count.
    pub workers: usize,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            seed: 42,
            requests: 300,
            workers: 8,
        }
    }
}

/// One measured cell.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Real (wall-clock) nanoseconds per request spent executing the
    /// simulation+instrumentation under this setup.
    pub wall_ns_per_req: f64,
    /// Virtual request latency in nanoseconds.
    pub virtual_ns_per_req: f64,
}

/// The full table: `rows[setup][op]`.
#[derive(Clone, Debug)]
pub struct Result {
    /// Measured cells.
    pub cells: Vec<Vec<Cell>>,
    /// Wall-clock overhead percentages versus the unmodified row.
    pub overhead_pct: Vec<Vec<f64>>,
}

/// Runs the experiment.
pub fn run(cfg: &Config) -> Result {
    let mut cells: Vec<Vec<Cell>> = Vec::new();
    for setup in Setup::ALL {
        let mut row = Vec::new();
        for op in NnOp::ALL {
            row.push(measure(cfg, setup, op));
        }
        cells.push(row);
    }
    let overhead_pct = cells
        .iter()
        .map(|row| {
            row.iter()
                .enumerate()
                .map(|(i, c)| {
                    let base = cells[0][i].wall_ns_per_req;
                    if base > 0.0 {
                        (c.wall_ns_per_req - base) / base * 100.0
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect();
    Result {
        cells,
        overhead_pct,
    }
}

/// Renders Table 5 at [`Config::default`]: `results/table5.txt`. The
/// first table times wall-clock loops, so it differs from run to run.
pub fn render() -> String {
    let cfg = Config::default();
    let r = run(&cfg);
    let mut out = format!(
        "measuring {} requests per cell across 6 setups x 4 ops ...\n",
        cfg.requests
    );
    let headers: Vec<&str> = std::iter::once("setup")
        .chain(NnOp::ALL.iter().map(|op| op.name()))
        .collect();
    let pct = |v: f64| -> String {
        if v.abs() < 0.05 {
            "0%".to_owned()
        } else {
            format!("{v:.1}%")
        }
    };
    let rows = |cell: &dyn Fn(usize, usize) -> String| -> Vec<Vec<String>> {
        Setup::ALL
            .iter()
            .enumerate()
            .map(|(i, s)| {
                std::iter::once(s.name().to_owned())
                    .chain((0..NnOp::ALL.len()).map(|j| cell(i, j)))
                    .collect()
            })
            .collect()
    };
    table(
        &mut out,
        "Table 5: wall-clock overhead of the Pivot Tracing machinery \
         (vs. unmodified)",
        &headers,
        &rows(&|i, j| pct(r.overhead_pct[i][j])),
    );
    table(
        &mut out,
        "Table 5 (auxiliary): virtual request latency (µs) — captures \
         baggage bytes on the wire",
        &headers,
        &rows(&|i, j| fixed(r.cells[i][j].virtual_ns_per_req / 1000.0, 1)),
    );
    out
}

fn measure(cfg: &Config, setup: Setup, op: NnOp) -> Cell {
    let stack = SimStack::build(StackConfig {
        cluster: ClusterConfig {
            workers: cfg.workers,
            seed: cfg.seed,
            ..ClusterConfig::default()
        },
        dataset_files: 64,
        ..StackConfig::default()
    });

    match setup {
        Setup::Unmodified => {
            // Hard-disable every agent: invoke() returns immediately.
            stack.cluster.set_agents_enabled(false);
        }
        Setup::PivotTracingEnabled | Setup::Baggage1 | Setup::Baggage60 => {}
        Setup::Queries61 => {
            for q in [fig8::Q3, fig8::Q4, fig8::Q5, fig8::Q6, fig8::Q7] {
                stack.install(q).expect("§6.1 queries compile");
            }
        }
        Setup::Queries62 => {
            stack
                .install(fig9::DECOMP_QUERY)
                .expect("decomposition compiles");
            stack
                .install(
                    "From g In NN.ClientProtocol
                     Join cl In MostRecent(ClientProtocols) On cl -> g
                     GroupBy cl.procName, g.op
                     Select cl.procName, g.op, AVERAGE(g.lockNanos)",
                )
                .expect("§6.2 metadata query compiles");
        }
    }

    let seed_tuples = match setup {
        Setup::Baggage1 => 1,
        Setup::Baggage60 => 60,
        _ => 0,
    };

    // Run the benchmark as one simulation task, measuring wall time
    // around the whole virtual run.
    let requests = cfg.requests;
    let h = Rc::clone(&stack.cluster.hosts[0]);
    let agent = stack.cluster.new_agent(&h, "NNBench");
    let dfs = stack.hdfs.client(&h, &agent, "NNBench");
    let clock = stack.cluster.clock.clone();
    let files = stack.cfg.dataset_files;
    let rng = Rc::clone(&stack.cluster.rng);
    let done = stack.cluster.rt.spawn(async move {
        let mut virtual_total = 0u64;
        for r in 0..requests {
            let mut ctx = pivot_hadoop::ctx::Ctx::new();
            if seed_tuples > 0 {
                seed_baggage(&mut ctx.bag, seed_tuples);
            }
            let t0 = clock.now();
            match op {
                NnOp::Read8k => {
                    let i = rng.borrow_mut().gen_range(0..files);
                    dfs.read_random(
                        &mut ctx,
                        &crate::stack::StackConfig::dataset_file(i),
                        8.0 * 1024.0,
                    )
                    .await;
                }
                NnOp::Open => dfs.metadata(&mut ctx, "open", false).await,
                NnOp::Create => dfs.metadata(&mut ctx, "create", true).await,
                NnOp::Rename => dfs.metadata(&mut ctx, "rename", true).await,
            }
            virtual_total += clock.now() - t0;
            let _ = r;
        }
        virtual_total
    });

    let wall = Instant::now();
    while !done.is_done() {
        stack.cluster.rt.run_for_secs(60.0);
    }
    let wall_ns = wall.elapsed().as_nanos() as f64;
    let virtual_total = done.try_take().expect("benchmark completed");

    Cell {
        wall_ns_per_req: wall_ns / cfg.requests as f64,
        virtual_ns_per_req: virtual_total as f64 / cfg.requests as f64,
    }
}

/// Packs `n` 8-byte tuples into the baggage under an otherwise-unused
/// query id (the paper's "baggage but no advice" rows).
fn seed_baggage(bag: &mut Baggage, n: usize) {
    let tuples = (0..n).map(|i| Tuple::from_iter([Value::U64(i as u64)]));
    bag.pack(QueryId(0xDEAD), &PackMode::All, tuples);
}

use rand::Rng;
