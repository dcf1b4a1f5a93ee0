//! Differential tests: the baggage-based **inline** evaluation of the
//! happened-before join must produce exactly the results of the
//! **global** (unoptimized, Figure 6a) evaluation, on arbitrary executions
//! — including branching ones — and regardless of whether the Table 3
//! optimizer ran.

use std::sync::Arc;

use pivot_core::{Agent, Frontend, ProcessInfo, QueryHandle};
use pivot_model::Value;
use pivot_workloads::global::{evaluate, TraceLog, TracedCtx};

use proptest::prelude::*;

/// One step of a randomly generated execution.
#[derive(Debug, Clone)]
enum Step {
    /// Invoke tracepoint `A`/`B`/`C` (by index) with payload `v`, on the
    /// branch selected by `lane`.
    Invoke { tp: usize, v: i64, lane: usize },
    /// Split a new branch off the main lane.
    Split,
    /// Join the most recent branch back into the main lane.
    Join,
}

const TRACEPOINTS: [&str; 3] = ["A", "B", "C"];

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        6 => ((0usize..3), (0i64..5), (0usize..4))
            .prop_map(|(tp, v, lane)| Step::Invoke { tp, v, lane }),
        1 => Just(Step::Split),
        1 => Just(Step::Join),
    ]
}

fn make_frontend(optimized: bool) -> Frontend {
    let mut fe = if optimized {
        Frontend::new()
    } else {
        Frontend::new_unoptimized()
    };
    for tp in TRACEPOINTS {
        fe.define(tp, ["x"]);
    }
    fe
}

/// Replays `steps` as `requests` independent requests, recording the trace
/// log and running woven advice through `agent`.
fn replay(steps: &[Step], requests: u64, agent: &Agent, log: &mut TraceLog, allow_branches: bool) {
    let mut now = 0u64;
    for req in 0..requests {
        let mut ctx = TracedCtx::new(log, req);
        let mut branches = Vec::new();
        for step in steps {
            now += 1;
            match step {
                Step::Invoke { tp, v, lane } => {
                    let name = TRACEPOINTS[*tp];
                    let exports = [("x", Value::I64(*v + req as i64))];
                    if branches.is_empty() || *lane == 0 {
                        ctx.record(name, &exports);
                        agent.invoke(name, &mut ctx.baggage, now, &exports);
                    } else {
                        let i = (*lane - 1) % branches.len();
                        // Split borrow: take the branch out briefly.
                        let mut b: pivot_workloads::global::TracedCtxBranch = branches.remove(i);
                        ctx.record_on(&mut b, name, &exports);
                        agent.invoke(name, &mut b.baggage, now, &exports);
                        branches.insert(i, b);
                    }
                }
                Step::Split if allow_branches && branches.len() < 3 => {
                    branches.push(ctx.split());
                }
                Step::Join if allow_branches => {
                    if let Some(b) = branches.pop() {
                        ctx.join(b);
                    }
                }
                _ => {}
            }
        }
        for b in branches.drain(..) {
            ctx.join(b);
        }
    }
}

/// Runs `text` through frontend+agent and compares with global evaluation.
fn check_query(
    text: &str,
    steps: &[Step],
    requests: u64,
    optimized: bool,
    allow_branches: bool,
) -> Result<(), TestCaseError> {
    let mut fe = make_frontend(optimized);
    let handle: QueryHandle = fe.install(text).expect("valid query");
    let agent = Arc::new(Agent::new(ProcessInfo {
        host: "host-A".into(),
        procid: 1,
        procname: "proc".into(),
    }));
    for cmd in fe.drain_commands() {
        agent.apply(&cmd);
    }

    let mut log = TraceLog::new();
    replay(steps, requests, &agent, &mut log, allow_branches);
    for report in agent.flush(1_000_000_000) {
        fe.accept(report);
    }

    let ast = pivot_query::parse(text).expect("parses");
    let expected = evaluate(&ast, &fe, &log);

    let results = fe.results(&handle);
    let mut got: Vec<Vec<Value>> = if results.spec.streaming {
        results
            .raw_rows()
            .iter()
            .map(|(_, t)| t.values().to_vec())
            .collect()
    } else {
        results.rows().into_iter().map(|r| r.values).collect()
    };
    got.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    let mut expected = expected;
    expected.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    prop_assert_eq!(got, expected, "query: {}", text);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single ⋈→ with group-by aggregation, branching executions.
    #[test]
    fn join_sum_matches_global(
        steps in prop::collection::vec(step_strategy(), 1..40),
        optimized in prop::bool::ANY,
    ) {
        check_query(
            "From b In B Join a In A On a -> b
             GroupBy a.x Select a.x, SUM(b.x)",
            &steps, 2, optimized, true,
        )?;
    }

    /// Three-way chain with a Where spanning stages, branching executions.
    #[test]
    fn chain_count_matches_global(
        steps in prop::collection::vec(step_strategy(), 1..40),
        optimized in prop::bool::ANY,
    ) {
        check_query(
            "From c In C
             Join b In B On b -> c
             Join a In A On a -> b
             Where a.x != c.x
             GroupBy c.x Select c.x, COUNT",
            &steps, 2, optimized, true,
        )?;
    }

    /// Temporal filters (linear executions — recency across concurrent
    /// branches is implementation-defined in both strategies).
    #[test]
    fn most_recent_matches_global(
        steps in prop::collection::vec(step_strategy(), 1..40),
        optimized in prop::bool::ANY,
    ) {
        check_query(
            "From b In B Join a In MostRecent(A) On a -> b
             Select b.x, a.x",
            &steps, 2, optimized, false,
        )?;
    }

    /// FIRST keeps exactly the earliest tuple.
    #[test]
    fn first_matches_global(
        steps in prop::collection::vec(step_strategy(), 1..40),
        optimized in prop::bool::ANY,
    ) {
        check_query(
            "From b In B Join a In First(A) On a -> b
             GroupBy a.x Select a.x, COUNT",
            &steps, 2, optimized, false,
        )?;
    }

    /// Optimized and unoptimized plans agree with each other on every
    /// execution (they both agree with global, but check directly too).
    #[test]
    fn optimizer_is_semantics_preserving(
        steps in prop::collection::vec(step_strategy(), 1..30),
    ) {
        let text = "From c In C
             Join a In A On a -> c
             Where a.x < 3
             GroupBy c.x Select c.x, COUNT, SUM(a.x)";
        let run = |optimized: bool| {
            let mut fe = make_frontend(optimized);
            let handle = fe.install(text).expect("valid");
            let agent = Arc::new(Agent::new(ProcessInfo {
                host: "h".into(),
                procid: 1,
                procname: "p".into(),
            }));
            for cmd in fe.drain_commands() {
                agent.apply(&cmd);
            }
            let mut log = TraceLog::new();
            replay(&steps, 2, &agent, &mut log, true);
            for r in agent.flush(1) {
                fe.accept(r);
            }
            let mut rows: Vec<Vec<Value>> = fe
                .results(&handle)
                .rows()
                .into_iter()
                .map(|r| r.values)
                .collect();
            rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
            rows
        };
        prop_assert_eq!(run(true), run(false));
    }
}

/// The paper's Figure 3: an execution triggering tracepoints A, B, and C
/// on two branches, with the tuples each query must produce.
#[test]
fn figure_3_semantics() {
    let fe = make_frontend(true);
    let mut log = TraceLog::new();

    // Execution graph of Figure 3 (labels carry the invocation number):
    //   branch 1: a1 ─ b1 ─ c1
    //   branch 2: a2 ─ b2 (forked after a1, joined before c2)
    //   main:     a1 ─ [fork] ... [join] ─ c2 ─ a3
    let mut ctx = TracedCtx::new(&mut log, 0);
    ctx.record("A", &[("x", Value::str("a1"))]);
    let mut b2 = ctx.split();
    ctx.record("B", &[("x", Value::str("b1"))]);
    ctx.record("C", &[("x", Value::str("c1"))]);
    ctx.record_on(&mut b2, "A", &[("x", Value::str("a2"))]);
    ctx.record_on(&mut b2, "B", &[("x", Value::str("b2"))]);
    ctx.join(b2);
    ctx.record("C", &[("x", Value::str("c2"))]);
    ctx.record("A", &[("x", Value::str("a3"))]);

    let rows = |text: &str| -> Vec<Vec<String>> {
        let ast = pivot_query::parse(text).unwrap();
        evaluate(&ast, &fe, &log)
            .into_iter()
            .map(|r| r.into_iter().map(|v| v.to_string()).collect::<Vec<_>>())
            .collect()
    };

    // Query "A": all three invocations.
    assert_eq!(
        rows("From a In A Select a.x"),
        vec![vec!["a1"], vec!["a2"], vec!["a3"]]
    );
    // A ⋈→ B: a1 joins both b's; a2 joins only b2 (its branch).
    assert_eq!(
        rows("From b In B Join a In A On a -> b Select a.x, b.x"),
        vec![vec!["a1", "b1"], vec!["a1", "b2"], vec!["a2", "b2"],]
    );
    // B ⋈→ C: b1 precedes c1 and c2; b2 precedes only c2.
    assert_eq!(
        rows("From c In C Join b In B On b -> c Select b.x, c.x"),
        vec![vec!["b1", "c1"], vec!["b1", "c2"], vec!["b2", "c2"],]
    );
    // (A ⋈→ B) ⋈→ C.
    assert_eq!(
        rows(
            "From c In C Join b In B On b -> c Join a In A On a -> b
             Select a.x, b.x, c.x"
        ),
        vec![
            vec!["a1", "b1", "c1"],
            vec!["a1", "b1", "c2"],
            vec!["a1", "b2", "c2"],
            vec!["a2", "b2", "c2"],
        ]
    );
}
