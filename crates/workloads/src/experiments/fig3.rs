//! Figure 3: happened-before join semantics on the paper's example
//! execution (tracepoints A, B, C across two branches), evaluated by the
//! global θ-join of [`crate::global`].

use pivot_core::Frontend;
use pivot_model::Value;

use crate::experiments::table;
use crate::global::{evaluate, TraceLog, TracedCtx};

/// Renders the four queries' results on Figure 3's execution:
/// `results/fig3.txt`.
pub fn render() -> String {
    let mut fe = Frontend::new();
    for tp in ["A", "B", "C"] {
        fe.define(tp, ["x"]);
    }

    // The execution graph of Figure 3.
    let mut log = TraceLog::new();
    let mut ctx = TracedCtx::new(0);
    ctx.record(&mut log, "A", &[("x", Value::str("a1"))]);
    let mut branch = ctx.split();
    ctx.record(&mut log, "B", &[("x", Value::str("b1"))]);
    ctx.record(&mut log, "C", &[("x", Value::str("c1"))]);
    branch.record(&mut log, "A", &[("x", Value::str("a2"))]);
    branch.record(&mut log, "B", &[("x", Value::str("b2"))]);
    ctx.join(branch);
    ctx.record(&mut log, "C", &[("x", Value::str("c2"))]);
    ctx.record(&mut log, "A", &[("x", Value::str("a3"))]);

    let mut out = "Execution: a1 -> [ b1 -> c1 | a2 -> b2 ] -> c2 -> a3\n".to_owned();
    for (title, text) in [
        ("Query: A", "From a In A Select a.x"),
        (
            "Query: A ->< B",
            "From b In B Join a In A On a -> b Select a.x, b.x",
        ),
        (
            "Query: B ->< C",
            "From c In C Join b In B On b -> c Select b.x, c.x",
        ),
        (
            "Query: (A ->< B) ->< C",
            "From c In C Join b In B On b -> c Join a In A On a -> b \
             Select a.x, b.x, c.x",
        ),
    ] {
        let ast = pivot_query::parse(text).expect("query parses");
        let rows: Vec<Vec<String>> = evaluate(&ast, &fe, &log)
            .into_iter()
            .map(|r| vec![r.iter().map(Value::to_string).collect::<Vec<_>>().join(" ")])
            .collect();
        table(&mut out, title, &["result tuples"], &rows);
    }
    out
}
