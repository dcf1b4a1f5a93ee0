//! Ablations of the design choices DESIGN.md calls out (paper §4):
//!
//! - **Query optimization** (Table 3 rewrites) on vs. off: how many tuples
//!   the baggage carries, and how large serialized baggage gets on the
//!   wire (the paper's Figure 6 argument for inline evaluation).
//! - **Process-local aggregation**: tuples emitted by advice vs. result
//!   rows actually reported to the frontend (the paper's "600 tuples/s →
//!   6 tuples/s per DataNode" claim).

use std::fmt::Write;

use pivot_hadoop::cluster::{ClusterConfig, MB};

use crate::clients;
use crate::experiments::fig1::Q2;
use crate::experiments::{fixed, table};
use crate::stack::{SimStack, StackConfig};

/// Configuration of the ablation run.
#[derive(Clone, Debug)]
pub struct Config {
    /// RNG seed.
    pub seed: u64,
    /// Virtual duration in seconds.
    pub duration_secs: f64,
    /// Worker host count.
    pub workers: usize,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            seed: 42,
            duration_secs: 30.0,
            workers: 8,
        }
    }
}

/// Measurements from one optimizer mode.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    /// Tuples packed into baggage across all processes.
    pub tuples_packed: u64,
    /// Tuples emitted by advice (before local aggregation).
    pub tuples_emitted: u64,
    /// Result rows actually reported to the frontend.
    pub rows_reported: u64,
    /// Mean serialized baggage size on RPC envelopes (bytes).
    pub mean_baggage_bytes: f64,
    /// Number of RPC envelopes observed.
    pub envelopes: u64,
}

/// Results of the ablation.
#[derive(Clone, Copy, Debug)]
pub struct Result {
    /// With the Table 3 rewrites.
    pub optimized: Side,
    /// Without them (pack everything raw, filter/aggregate at the end).
    pub unoptimized: Side,
}

/// Runs Q2 over a read-heavy workload in both optimizer modes.
pub fn run(cfg: &Config) -> Result {
    Result {
        optimized: run_side(cfg, true),
        unoptimized: run_side(cfg, false),
    }
}

fn run_side(cfg: &Config, optimize: bool) -> Side {
    let stack = SimStack::build(StackConfig {
        cluster: ClusterConfig {
            workers: cfg.workers,
            seed: cfg.seed,
            optimize_queries: optimize,
            ..ClusterConfig::default()
        },
        dataset_files: 60,
        ..StackConfig::default()
    });
    clients::spawn_fsread(&stack, 0, "FSread4m", 4.0 * MB);
    clients::spawn_fsread(&stack, 1, "FSread64m", 64.0 * MB);
    clients::spawn_hget(&stack, 2 % cfg.workers);
    stack.install(Q2).expect("Q2 compiles");
    stack.run_for_secs(cfg.duration_secs);

    let totals = stack.cluster.agent_totals();
    let bytes = stack.cluster.baggage_bytes.total();
    let envelopes = stack.cluster.baggage_bytes.len() as u64;
    Side {
        tuples_packed: totals.tuples_packed,
        tuples_emitted: totals.tuples_emitted,
        rows_reported: totals.rows_reported,
        mean_baggage_bytes: if envelopes > 0 {
            bytes / envelopes as f64
        } else {
            0.0
        },
        envelopes,
    }
}

/// Renders the optimizer and local-aggregation ablation at
/// [`Config::default`]: `results/ablation.txt`.
pub fn render() -> String {
    let cfg = Config::default();
    let r = run(&cfg);
    let mut out = format!(
        "running Q2 over a read-heavy mix for {}s, optimizer on and off ...\n",
        cfg.duration_secs
    );
    let row = |label: &str, s: &Side| -> Vec<String> {
        vec![
            label.to_owned(),
            s.tuples_packed.to_string(),
            s.tuples_emitted.to_string(),
            s.rows_reported.to_string(),
            fixed(s.mean_baggage_bytes, 1),
            s.envelopes.to_string(),
        ]
    };
    table(
        &mut out,
        "Ablation: Table 3 query optimization (inline ->< evaluation)",
        &[
            "mode",
            "tuples packed",
            "tuples emitted",
            "rows reported",
            "mean baggage B",
            "rpc envelopes",
        ],
        &[
            row("optimized", &r.optimized),
            row("unoptimized", &r.unoptimized),
        ],
    );
    let shrink = r.unoptimized.mean_baggage_bytes / r.optimized.mean_baggage_bytes.max(1e-9);
    let agg = r.optimized.tuples_emitted as f64 / r.optimized.rows_reported.max(1) as f64;
    let _ = write!(
        out,
        "\noptimizer shrinks mean baggage {shrink:.1}x; \
         local aggregation collapses {agg:.0} emitted tuples per reported row\n\
         (the paper reports Q2 dropping from ~600 to ~6 tuples/s per DataNode).\n"
    );
    out
}
