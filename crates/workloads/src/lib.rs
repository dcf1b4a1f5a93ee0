//! Client applications and experiment drivers.
//!
//! This crate assembles the simulated stack ([`stack::SimStack`]) and
//! provides the client applications the paper's evaluation runs against it
//! (§2.1, §6):
//!
//! | Client | Behaviour |
//! |---|---|
//! | `FSread4m` | Random closed-loop 4 MB HDFS reads |
//! | `FSread64m` | Random closed-loop 64 MB HDFS reads |
//! | `HGet` | 10 kB row lookups in a large HBase table |
//! | `HScan` | 4 MB table scans of a large HBase table |
//! | `MRsort10g` / `MRsort100g` | MapReduce sort jobs |
//! | `StressTest` | Closed-loop random 8 kB HDFS reads (96 clients, §6.1) |
//! | NNBench-derived | `Read8k`, `Open`, `Create`, `Rename` (§6.3) |
//!
//! The [`experiments`] module contains one driver per paper figure/table;
//! each returns structured results the integration tests assert on, and
//! renders itself as the text of its `results/` file, which the
//! `pivot-figures <stem>` binary prints.
//!
//! [`global`] is the paper's *unoptimized* evaluation strategy (Figure
//! 6a): materialize every tracepoint invocation with a causal stamp and
//! evaluate the happened-before join centrally. Figure 3 and the
//! differential test against the inline evaluation use it.

pub mod clients;
pub mod experiments;
pub mod global;
pub mod stack;

pub use stack::{SimStack, StackConfig};
