//! # Pivot Tracing
//!
//! A Rust implementation of *Pivot Tracing: Dynamic Causal Monitoring for
//! Distributed Systems* (Mace, Roelke, Fonseca — SOSP 2015).
//!
//! Pivot Tracing combines **dynamic instrumentation** with **causal tracing**:
//! users install relational queries over tracepoint events at runtime, and the
//! novel *happened-before join* (`->`) correlates events across component,
//! process, and machine boundaries by propagating partial query state in a
//! per-request **baggage** container.
//!
//! This facade crate re-exports the workspace members:
//!
//! - [`itc`] — the binary codec every wire format is written with.
//! - [`model`] — dynamic values, tuples, schemas, aggregations, expressions.
//! - [`baggage`] — the baggage abstraction (pack/unpack/serialize/split/join).
//! - [`query`] — the LINQ-like query language, optimizer, and advice compiler.
//! - [`core`] — tracepoints, advice weaving, agents, message bus, frontend.
//! - [`simrt`] — a deterministic discrete-event simulation runtime.
//! - [`hadoop`] — instrumented HDFS / HBase / MapReduce / YARN simulators.
//! - [`workloads`] — the paper's client applications and experiment drivers.
//! - [`live`] — the live runtime: thread-local baggage, instrumented
//!   threads/channels, a TCP message bus, and a real multi-threaded demo
//!   service (run `--example live_quickstart`).
//!
//! # Examples
//!
//! Install the paper's query Q2 — HDFS disk throughput grouped by the
//! *top-level client application*, crossing the HBase/MapReduce/HDFS tiers:
//!
//! ```
//! use pivot_tracing::hadoop::cluster::MB;
//! use pivot_tracing::workloads::{clients, SimStack, StackConfig};
//!
//! let stack = SimStack::build(StackConfig::small(42));
//! clients::spawn_hget(&stack, 0);
//! let q2 = stack
//!     .install(
//!         "From incr In DataNodeMetrics.incrBytesRead
//!          Join cl In First(ClientProtocols) On cl -> incr
//!          GroupBy cl.procName
//!          Select cl.procName, SUM(incr.delta)",
//!     )
//!     .unwrap();
//! stack.run_for_secs(5.0);
//! let rows = stack.results(&q2).rows();
//! assert_eq!(rows[0].values[0], pivot_tracing::model::Value::str("HGet"));
//! assert!(rows[0].values[1].as_f64().unwrap() > 0.0);
//! let _ = MB;
//! ```

pub use pivot_baggage as baggage;
pub use pivot_chaos as chaos;
pub use pivot_core as core;
pub use pivot_hadoop as hadoop;
pub use pivot_itc as itc;
pub use pivot_live as live;
pub use pivot_model as model;
pub use pivot_query as query;
pub use pivot_simrt as simrt;
pub use pivot_workloads as workloads;
