//! Malformed-query corpus: each file under `corpus/` exhibits one defect
//! class, and the verifier must report its exact diagnostic code.

use pivot_analyze::{Analysis, Analyzer, Code, Severity};
use pivot_query::{parse, Query, Resolver};

/// A registry-backed resolver independent of the frontend, so the corpus
/// exercises the verifier through the public [`Resolver`] seam.
struct TestResolver {
    tracepoints: Vec<(&'static str, Vec<&'static str>)>,
    queries: Vec<(&'static str, Query)>,
}

impl TestResolver {
    fn new() -> TestResolver {
        let parse_q = |t| parse(t).expect("fixture query parses");
        TestResolver {
            tracepoints: vec![
                ("DataNodeMetrics.incrBytesRead", vec!["delta", "host"]),
                ("DN.DataTransferProtocol", vec!["op", "size", "host"]),
                ("StressTest.DoNextOp", vec!["op", "host"]),
                ("RS.SendResponse", vec!["queueNanos", "gcNanos"]),
                ("JobComplete", vec!["id"]),
            ],
            queries: vec![
                // Two output columns: not usable as a scalar.
                (
                    "latency2",
                    parse_q(
                        "From resp In RS.SendResponse
                         Select resp.queueNanos, resp.gcNanos",
                    ),
                ),
                // chicken <-> egg reference cycle.
                ("chicken", parse_q("From e In egg Select COUNT")),
                ("egg", parse_q("From c In chicken Select COUNT")),
            ],
        }
    }
}

impl Resolver for TestResolver {
    fn tracepoint_exports(&self, name: &str) -> Option<Vec<String>> {
        self.tracepoints
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, e)| e.iter().map(|s| s.to_string()).collect())
    }

    fn query_ast(&self, name: &str) -> Option<Query> {
        self.queries
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, q)| q.clone())
    }
}

fn run(text: &str, name: &str) -> Analysis {
    Analyzer::new(&TestResolver::new()).analyze(text, name).0
}

/// Asserts `text` yields an error with `code`, carrying a span.
fn expect_error(text: &str, name: &str, code: Code) -> Analysis {
    let a = run(text, name);
    assert!(a.has_errors(), "{name}: expected errors, got {a:?}");
    let d = a
        .diagnostics
        .iter()
        .find(|d| d.code == code)
        .unwrap_or_else(|| panic!("{name}: no {code}: {a:?}"));
    assert_eq!(d.severity, Severity::Error, "{name}: {d:?}");
    a
}

#[test]
fn undefined_export_is_pt001_with_typo_suggestion() {
    let text = include_str!("corpus/undefined_export.pt");
    let a = expect_error(text, "undefined_export", Code::UndefinedName);
    let d = a
        .diagnostics
        .iter()
        .find(|d| d.code == Code::UndefinedName)
        .unwrap();
    assert!(d.span.is_some(), "{d:?}");
    let sugg = d.suggestion.as_deref().unwrap_or_default();
    assert!(sugg.contains("incr.delta"), "{d:?}");
}

#[test]
fn multi_column_alias_as_scalar_is_pt003() {
    let text = include_str!("corpus/alias_not_scalar.pt");
    let a = expect_error(text, "alias_not_scalar", Code::DataflowError);
    let d = a
        .diagnostics
        .iter()
        .find(|d| d.code == Code::DataflowError)
        .unwrap();
    assert!(d.span.is_some(), "{d:?}");
    // The fix-it names a real column of the referenced query.
    assert!(
        d.suggestion.as_deref().unwrap_or_default().contains("lat."),
        "{d:?}"
    );
}

#[test]
fn query_reference_cycle_is_pt005() {
    let text = include_str!("corpus/cycle.pt");
    let a = expect_error(text, "chicken", Code::QueryCycle);
    let d = a
        .diagnostics
        .iter()
        .find(|d| d.code == Code::QueryCycle)
        .unwrap();
    assert!(d.message.contains("chicken -> egg -> chicken"), "{d:?}");
}

#[test]
fn unbounded_pack_is_pt006_warning_not_error() {
    let text = include_str!("corpus/unbounded_pack.pt");
    let a = run(text, "unbounded_pack");
    assert!(!a.has_errors(), "{a:?}");
    let d = a
        .diagnostics
        .iter()
        .find(|d| d.code == Code::UnboundedPack)
        .unwrap_or_else(|| panic!("no PT006: {a:?}"));
    assert_eq!(d.severity, Severity::Warning, "{d:?}");
    // And the cost pass agrees: the optimized bound is infinite.
    assert!(a
        .optimized_cost
        .as_ref()
        .unwrap()
        .total_bytes
        .as_finite()
        .is_none());
}

#[test]
fn dead_output_column_is_pt009_warning_not_error() {
    // `latency2` emits two columns; the outer query consumes only
    // `queueNanos`, so the inlined pack carries `gcNanos` for nothing.
    let text = include_str!("corpus/dead_column.pt");
    let a = run(text, "dead_column");
    assert!(!a.has_errors(), "{a:?}");
    let d = a
        .diagnostics
        .iter()
        .find(|d| d.code == Code::DeadColumn)
        .unwrap_or_else(|| panic!("no PT009: {a:?}"));
    assert_eq!(d.severity, Severity::Warning, "{d:?}");
    assert!(d.message.contains("gcNanos"), "{d:?}");
    assert!(
        d.suggestion
            .as_deref()
            .unwrap_or_default()
            .contains("Select"),
        "{d:?}"
    );
    // The column the outer query does read is not flagged.
    assert!(
        !a.diagnostics
            .iter()
            .any(|d| d.code == Code::DeadColumn && d.message.contains("queueNanos")),
        "{a:?}"
    );
}

#[test]
fn trigger_on_unbounded_flow_is_pt010_warning_not_error() {
    let text = include_str!("corpus/trigger_unbounded.pt");
    let a = run(text, "trigger_unbounded");
    assert!(!a.has_errors(), "{a:?}");
    let d = a
        .diagnostics
        .iter()
        .find(|d| d.code == Code::TriggerUnbounded)
        .unwrap_or_else(|| panic!("no PT010: {a:?}"));
    assert_eq!(d.severity, Severity::Warning, "{d:?}");
    assert!(d.span.is_some(), "{d:?}");
    assert!(d.message.contains("st"), "{d:?}");
    assert!(
        d.suggestion
            .as_deref()
            .unwrap_or_default()
            .contains("First"),
        "{d:?}"
    );
    // The unbounded pack itself still warns on its own account (PT006):
    // PT010 is the trigger-specific escalation, not a replacement.
    assert!(a.has_code(Code::UnboundedPack), "{a:?}");
}

#[test]
fn trigger_on_bounded_flow_is_clean() {
    // A `First(n)` join and a join-free trigger query: both carry
    // `Trigger` advice over a bounded flow, and neither draws PT010 —
    // the lint keys on the flow, not on the trigger's mere presence.
    for text in [
        "From dnop In DN.DataTransferProtocol
         Join st In First(StressTest.DoNextOp) On st -> dnop
         Trigger dnop.size > 1000000
         Select st.host, dnop.host",
        "From incr In DataNodeMetrics.incrBytesRead
         Where incr.delta > 90
         Trigger
         Select incr.delta",
    ] {
        let a = run(text, "trigger_bounded");
        assert!(a.diagnostics.is_empty(), "{a:?}");
    }
}

#[test]
fn type_incoherence_is_pt002() {
    let text = include_str!("corpus/type_error.pt");
    expect_error(text, "type_error", Code::TypeError);
}

#[test]
fn unparseable_text_is_pt000() {
    let text = include_str!("corpus/parse_error.pt");
    expect_error(text, "parse_error", Code::ParseError);
}

#[test]
fn bounded_join_query_is_clean() {
    // The paper's Q2 shape: a First() join aggregated in Select — every
    // pass accepts it and the optimized bound is finite.
    let a = run(
        "From incr In DataNodeMetrics.incrBytesRead
         Join dnop In First(DN.DataTransferProtocol) On dnop -> incr
         GroupBy dnop.op
         Select dnop.op, SUM(incr.delta)",
        "clean",
    );
    assert!(a.diagnostics.is_empty(), "{a:?}");
    let opt = a.optimized_cost.unwrap().total_bytes;
    let unopt = a.unoptimized_cost.unwrap().total_bytes;
    assert!(opt.as_finite().is_some(), "{opt:?}");
    assert!(opt.le(unopt));
}
