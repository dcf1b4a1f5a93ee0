//! One benchmark for the request path and the report path, with
//! per-layer attribution. See `README.md` for the workloads, the metrics
//! and how to read a trace.
//!
//! ```text
//! pivot-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! pivot-benchmark --check                 # every workload for ~2 s, correctness only
//! pivot-benchmark repeat <n> [--seconds <s>] [--seed <n>]
//! pivot-benchmark baseline <dir> [--seconds <s>] [--seed <n>]
//! pivot-benchmark manifest [--seconds <s>]   # prints BENCHMARK.json
//! ```
//!
//! A run prints progress on stderr and, as the last line of stdout, one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod fanin;
mod gen;
mod hist;
mod metrics;
mod probe;
mod slice;
mod span;
mod stack;
mod svc;
mod sys;
mod tools;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use slice::Summary;
use span::{NameTotals, Span};
use stack::Stack;

/// Unmeasured warm-up before the measured window.
const WARM_UP: Duration = Duration::from_secs(2);
/// Times the stack is set up in an untraced run; `setup_s` is the median.
const SETUP_REPEATS: usize = 9;
/// Share of `--seconds` the traced window may last.
const TRACED_SHARE: f64 = 0.3;
/// Share of `--seconds` each untraced comparison phase of a traced run
/// lasts (one and two workers on `svc_*`, one phase on `report_fanin`).
const COMPARE_SHARE: f64 = 0.15;
/// Span buffer per recording thread (64 MiB at 32 B a span).
const SPAN_CAPACITY: usize = 2 << 20;
/// Raw spans per thread written to the trace file; totals cover them all.
const SPANS_IN_FILE: usize = 20_000;

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty());
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The reference check's verdict: operations attempted and failed.
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    /// Tuples the loss books say were dropped on the report path.
    pub lost_tuples: u64,
    pub shed_tuples: u64,
    notes: Vec<String>,
}

impl Check {
    pub fn new(attempted: u64) -> Check {
        Check {
            attempted,
            failed: 0,
            lost_tuples: 0,
            shed_tuples: 0,
            notes: Vec::new(),
        }
    }

    pub fn fail(&mut self, count: u64, why: &str) {
        if count > 0 {
            self.failed += count;
            self.notes.push(format!("{count}: {why}"));
        }
    }

    /// Adds another part of the run's verdict to this one.
    pub fn merge(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.lost_tuples += other.lost_tuples;
        self.shed_tuples += other.shed_tuples;
        self.notes.extend(other.notes);
    }
}

/// Flushes agents, relay and frontend until the frontend shows
/// `expected[i]` tuples for query `i` and every hindsight event the
/// agents flushed, or ten seconds pass; then audits the loss books:
/// `emitted == delivered + shed + dropped` per query, with the agents'
/// own emission counters and the generator's reference on the left.
pub fn settle(stack: &mut Stack, expected: &[u64], check: &mut Check) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        for agent in &stack.agents {
            agent.flush_now();
        }
        stack.relay.flush_now();
        stack.frontend.poll();
        let fe = stack.frontend.frontend_mut();
        let tuples_in = stack
            .handles
            .iter()
            .zip(expected)
            .all(|(h, want)| fe.results(h).loss().tuples_delivered >= *want);
        let flushed: u64 = stack
            .agents
            .iter()
            .map(|a| a.agent().retro_counters().flushed)
            .sum();
        let retro_in = fe.retro_loss().events_delivered >= flushed;
        if (tuples_in && retro_in) || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let fe = stack.frontend.frontend_mut();
    for (handle, want) in stack.handles.iter().zip(expected) {
        let loss = fe.results(handle).loss();
        let emitted: u64 = stack
            .agents
            .iter()
            .map(|a| a.agent().emitted_for(handle.id))
            .sum();
        check.fail(
            want.abs_diff(loss.tuples_delivered),
            &format!(
                "{}: tuples the frontend does not show at settle",
                handle.name
            ),
        );
        check.fail(
            want.abs_diff(emitted),
            &format!(
                "{}: agents emitted another count than the reference",
                handle.name
            ),
        );
        let balanced = loss.tuples_emitted == emitted
            && loss.tuples_emitted
                == loss.tuples_delivered + loss.tuples_shed + loss.tuples_dropped;
        check.fail(
            u64::from(!balanced),
            &format!("{}: emitted != delivered + shed + dropped", handle.name),
        );
        check.lost_tuples += loss.tuples_dropped;
        check.shed_tuples += loss.tuples_shed;
    }
}

pub type Metrics = BTreeMap<&'static str, f64>;

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seconds = flag(&args, "--seconds").and_then(|s| s.parse::<f64>().ok());
    let seed = flag(&args, "--seed").and_then(|s| s.parse::<u64>().ok());
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest(seconds.unwrap_or(20.0) as u64));
            ExitCode::SUCCESS
        }
        Some("repeat") => {
            let Some(sets) = args.get(1).and_then(|n| n.parse::<usize>().ok()) else {
                return usage();
            };
            tools::repeat(sets.max(2), seconds.unwrap_or(20.0), seed.unwrap_or(1))
        }
        Some("--check") => tools::check_all(seed.unwrap_or(1)),
        Some("baseline") => {
            let Some(dir) = args.get(1) else {
                return usage();
            };
            tools::baseline(dir, seconds.unwrap_or(20.0), seed.unwrap_or(1))
        }
        _ => {
            let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
                flag(&args, "--workload"),
                seed,
                seconds,
                flag(&args, "--trace"),
            ) else {
                return usage();
            };
            if !WORKLOADS.iter().any(|w| w.name == workload) || seconds.is_nan() || seconds <= 0.0 {
                return usage();
            }
            run(&RunArgs {
                workload,
                seed,
                seconds,
                trace: trace == "1",
            })
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: pivot-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         pivot-benchmark --check | repeat <n> [--seconds <s>] [--seed <n>] | \
         baseline <dir> [--seconds <s>] [--seed <n>] | manifest [--seconds <s>]",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join("|")
    );
    ExitCode::from(2)
}

fn run(args: &RunArgs) -> ExitCode {
    let (check, metrics) = match args.workload.as_str() {
        "svc_unwoven" => run_svc(svc::Kind::Unwoven, args),
        "svc_q1" => run_svc(svc::Kind::Q1, args),
        "svc_5q_retro" => run_svc(svc::Kind::FiveRetro, args),
        _ => run_fanin(args),
    };
    for note in &check.notes {
        eprintln!("FAILED {note}");
    }
    let share = check.failed as f64 / check.attempted.max(1) as f64;
    eprintln!(
        "{}: attempted {} failed {} (share {share:.6})",
        args.workload, check.attempted, check.failed
    );
    println!("{}", result_json(&check, &metrics, args.trace));
    ExitCode::SUCCESS
}

/// The result line: every end-to-end metric of an untraced run, every
/// per-layer metric of a traced one (0 where a layer does not apply).
fn result_json(check: &Check, metrics: &Metrics, trace: bool) -> String {
    let table: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    for name in metrics.keys() {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "{name} is not in the metric tables"
        );
    }
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        check.failed == 0,
        check.attempted.max(1),
        check.failed
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = metrics.get(name).copied().unwrap_or(0.0);
        assert!(value.is_finite(), "{name} is not finite");
        let sep = if i == 0 { "" } else { ", " };
        eprintln!("  {name:<36} {value:>16.4} {unit}");
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

/// The bounded figures of an untraced run: those of the faster half of
/// its slices.
fn end_to_end(m: &mut Metrics, window: &Summary) {
    m.insert("ops_per_s", window.fast.per_s);
    m.insert("lat_p50_us", window.fast.p50_us);
    m.insert("cpu_us_per_kop", window.fast.cpu_us_per_kop);
}

/// The one-worker untraced comparison phase of a traced run: the tail
/// percentiles and background CPU of the faster half of its slices, and
/// the whole window beside them.
fn whole_window(m: &mut Metrics, window: &Summary) {
    m.insert("lat_p90_us", window.fast.p90_us);
    m.insert("lat_p99_us", window.fast.p99_us);
    m.insert(
        "cpu.background_us_per_kop",
        window.fast.background_cpu_us_per_kop,
    );
    m.insert("window.ops_per_s", window.window_per_s);
    m.insert("window.slowest_slice_share", window.slowest_share);
}

fn secs(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds)
}

fn run_svc(kind: svc::Kind, args: &RunArgs) -> (Check, Metrics) {
    let spec = kind.spec();
    let mut m = Metrics::new();
    if !args.trace {
        let (stack, setup_s, _) = stack::start_measured(&spec, SETUP_REPEATS);
        let mut svc = svc::Svc::new(kind, stack, args.seed);
        eprintln!("request-stream digests: {:016x?}", svc.digests());
        let phase = svc.run_untraced(1, WARM_UP, secs(args.seconds));
        m.insert("peak_rss_mb", sys::peak_rss_mb());
        let check = svc.settle_and_check();
        end_to_end(&mut m, &slice::summarize("measured window", &phase.slices));
        m.insert("setup_s", setup_s);
        eprintln!("latency samples: {}", phase.measured);
        return (check, m);
    }

    let (stack, _, install_s) = stack::start_measured(&spec, 3);
    let mut svc = svc::Svc::new(kind, stack, args.seed);
    let traced = svc.run_traced(
        WARM_UP / 2,
        secs(args.seconds * TRACED_SHARE),
        SPAN_CAPACITY,
    );
    let compare = secs(args.seconds * COMPARE_SHARE);
    let one = svc.run_untraced(1, WARM_UP / 8, compare);
    let two = svc.run_untraced(svc::MAX_WORKERS, WARM_UP / 8, compare);
    let check = svc.settle_and_check();

    // (S) span self times, per request.
    let totals = write_trace(args, &traced.spans);
    let requests = totals[span::ROOT as usize].count.max(1) as f64;
    let per_request = |name: span::NameId| totals[name as usize].self_ns as f64 / requests;
    for (metric, name) in [
        ("baggage.serialize_ns", span::SERIALIZE),
        ("baggage.deserialize_ns", span::DESERIALIZE),
        ("baggage.split_join_ns", span::SPLIT_JOIN),
        ("live.tracepoint_idle_ns", span::TP_IDLE),
        ("live.scope_ns", span::SCOPE),
        ("core.invoke_client_ns", span::INVOKE_CLIENT),
        ("core.invoke_receive_ns", span::INVOKE_RECEIVE),
        ("core.invoke_shard_ns", span::INVOKE_SHARD),
        ("core.invoke_respond_ns", span::INVOKE_RESPOND),
        ("core.set_trace_ns", span::SET_TRACE),
        ("core.retro_trigger_ns", span::RETRO_TRIGGER),
        ("gen.self_ns", span::ROOT),
    ] {
        m.insert(metric, per_request(name));
    }
    let traced_s = slice::summarize("traced window", &traced.slices);
    let one = slice::summarize("untraced, one worker", &one.slices);
    let two = slice::summarize("untraced, two workers", &two.slices);
    trace_summary(
        &mut m,
        &totals,
        requests,
        traced_s.fast.per_s,
        one.fast.per_s,
    );
    whole_window(&mut m, &one);
    m.insert("svc.two_worker_ops_per_s", two.fast.per_s);
    m.insert("core.invoke_scaling", two.fast.per_s / one.fast.per_s);
    m.insert("query.install_ms", install_s * 1e3);

    // (C) counts from the system's own statistics.
    let tally = svc.tally();
    m.insert(
        "baggage.header_bytes",
        tally.header_bytes as f64 / tally.requests as f64,
    );
    svc.stack.add_counts(&mut m);
    counts(&mut m, &check);

    // (P) probe loops on a shadow system.
    m.extend(probe::pack_probe());
    let shadow = probe::Shadow::new(svc::KV_TRACEPOINTS, kind.queries());
    m.extend(probe::invoke_probes(
        &shadow,
        svc::generous_budget(),
        kind.budget().is_some(),
        kind.retro(),
    ));
    if !kind.queries().is_empty() {
        let agents = [
            shadow.agent(1, kind.budget(), kind.retro()),
            shadow.agent(2, kind.budget(), kind.retro()),
        ];
        let mut worker = svc::Worker::new(args.seed, 0);
        // One reporting interval at the measured rate.
        let per_interval = (one.fast.per_s / 10.0) as u64;
        m.extend(probe::report_probes(shadow, &agents, 20, |agents| {
            let route = svc::Route::new(kind, &agents[0], &agents[1], &svc.names);
            worker.drive(&route, per_interval);
        }));
    }
    (check, m)
}

fn run_fanin(args: &RunArgs) -> (Check, Metrics) {
    let spec = fanin::spec();
    let mut m = Metrics::new();
    if !args.trace {
        let (stack, setup_s, _) = stack::start_measured(&spec, SETUP_REPEATS);
        let mut fanin = fanin::Fanin::new(stack, args.seed);
        eprintln!(
            "event-stream digest (first round): {:016x}",
            gen::FaninGen::digest(args.seed, 1)
        );
        let phase = fanin.run_untraced(WARM_UP, secs(args.seconds));
        end_to_end(&mut m, &slice::summarize("measured window", &phase.slices));
        m.insert("peak_rss_mb", fanin.peak_rss_mb());
        m.insert("setup_s", setup_s);
        eprintln!("lag samples (rounds): {}", phase.rounds);
        return (fanin.finish().0, m);
    }

    let (stack, _, install_s) = stack::start_measured(&spec, 3);
    let mut fanin = fanin::Fanin::new(stack, args.seed);
    let untraced = fanin.run_untraced(WARM_UP / 2, secs(args.seconds * COMPARE_SHARE));
    let traced = fanin.run_traced(
        Duration::ZERO,
        secs(args.seconds * TRACED_SHARE),
        SPAN_CAPACITY / 4,
    );
    let (check, counted) = fanin.finish();

    // (S) span self times per round; `invoke_batch` per event and
    // `agent_flush` per call, since a round makes a fixed number of
    // those. `relay.pull_now` and `poll` are called until the round is
    // absorbed or visible, so a per-call mean would only count the empty
    // spins.
    let totals = write_trace(args, std::slice::from_ref(&traced.spans));
    let rounds = totals[span::ROOT as usize].count.max(1) as f64;
    let per_round = |name: span::NameId| totals[name as usize].self_ns as f64 / rounds;
    m.insert(
        "core.invoke_batch_ns_per_event",
        per_round(span::INVOKE_BATCH) / (gen::FANIN_AGENTS * gen::FANIN_EVENTS) as f64,
    );
    m.insert(
        "live.agent_flush_us",
        per_round(span::AGENT_FLUSH) / gen::FANIN_AGENTS as f64 / 1e3,
    );
    m.insert("relay.pull_now_us", per_round(span::RELAY_PULL) / 1e3);
    m.insert("relay.flush_now_us", per_round(span::RELAY_FLUSH) / 1e3);
    m.insert("live.poll_us", per_round(span::POLL) / 1e3);
    m.insert("wait.visible_ms", per_round(span::WAIT_VISIBLE) / 1e6);
    m.insert("gen.self_ns", per_round(span::ROOT));
    let traced_s = slice::summarize("traced window", &traced.slices);
    let window = slice::summarize("untraced", &untraced.slices);
    trace_summary(
        &mut m,
        &totals,
        rounds,
        traced_s.fast.per_s,
        window.fast.per_s,
    );
    whole_window(&mut m, &window);
    // A slice is 32 rounds, too few for a tail: these two come from the
    // whole phase.
    m.insert("lat_p90_us", untraced.lag.quantile(0.90) / 1e3);
    m.insert("lat_p99_us", untraced.lag.quantile(0.99) / 1e3);
    m.insert("query.install_ms", install_s * 1e3);
    m.extend(counted);
    counts(&mut m, &check);

    // (P) the report path call by call, fed one round per interval.
    let shadow = probe::Shadow::new(fanin::TRACEPOINTS, fanin::QUERIES);
    let agents: Vec<_> = (0..gen::FANIN_AGENTS)
        .map(|i| shadow.agent(i as u64 + 1, None, false))
        .collect();
    let keys = fanin::key_values();
    let mut gen = gen::FaninGen::new(args.seed);
    let mut batch = Vec::new();
    m.extend(probe::report_probes(shadow, &agents, 60, |agents| {
        for agent in agents {
            gen.batch(&mut batch);
            fanin::invoke_batch(agent, &keys, &batch, 1);
        }
    }));
    (check, m)
}

/// The counts (C) that come from the loss books, and the relay's fan-in
/// from the report counts `Stack::add_counts` put in `m`.
fn counts(m: &mut Metrics, check: &Check) {
    m.insert("core.tuples_shed", check.shed_tuples as f64);
    m.insert("core.lost_tuples", check.lost_tuples as f64);
    m.insert(
        "relay.fanin_ratio",
        m["relay.reports_in"] / m["relay.reports_out"].max(1.0),
    );
}

/// The trace's own figures: the mean traced root span, the sum of all
/// layer self times under it (equal by construction, since spans nest
/// under one root per request), and what tracing cost.
fn trace_summary(
    m: &mut Metrics,
    totals: &[NameTotals],
    roots: f64,
    traced_per_s: f64,
    untraced_per_s: f64,
) {
    let root = totals[span::ROOT as usize];
    let self_sum: u64 = totals.iter().map(|t| t.self_ns).sum();
    assert_eq!(
        self_sum, root.total_ns,
        "layer self times must sum to the root spans"
    );
    m.insert("trace.root_ns", root.total_ns as f64 / roots);
    m.insert("trace.layers_sum_ns", self_sum as f64 / roots);
    m.insert("trace.traced_ops_per_s", traced_per_s);
    m.insert("trace.overhead_share", 1.0 - traced_per_s / untraced_per_s);
    m.insert(
        "trace.spans",
        totals.iter().map(|t| t.count).sum::<u64>() as f64,
    );
    m.insert("trace.empty_span_ns", span::empty_span_ns());
}

/// Sums the threads' span totals and writes
/// `benchmark/out/<workload>.trace.json`: totals by name over every
/// span, and the first `SPANS_IN_FILE` raw spans of each thread as
/// `[name, parent, request, start_ns, end_ns]`.
fn write_trace(args: &RunArgs, threads: &[Vec<Span>]) -> Vec<NameTotals> {
    let mut totals = vec![NameTotals::default(); span::NAMES.len()];
    let mut out = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"names\": {:?},\n \"threads\": [",
        args.workload,
        args.seed,
        span::NAMES
    );
    for (i, spans) in threads.iter().enumerate() {
        for (total, t) in totals.iter_mut().zip(span::totals_by_name(spans)) {
            total.count += t.count;
            total.total_ns += t.total_ns;
            total.self_ns += t.self_ns;
        }
        let _ = write!(
            out,
            "{}\n  {{\"spans_recorded\": {}, \"spans\": [",
            if i == 0 { "" } else { "," },
            spans.len()
        );
        for (j, s) in spans.iter().take(SPANS_IN_FILE).enumerate() {
            let _ = write!(
                out,
                "{}[{},{},{},{},{}]",
                if j == 0 { "" } else { "," },
                s.name,
                s.parent as i32,
                s.request,
                s.start,
                s.end
            );
        }
        out.push_str("]}");
    }
    out.push_str("],\n \"by_name\": [");
    for (i, (name, t)) in span::NAMES.iter().zip(&totals).enumerate() {
        let _ = write!(
            out,
            "{}\n  {{\"name\": \"{name}\", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
            if i == 0 { "" } else { "," },
            t.count,
            t.total_ns,
            t.self_ns
        );
    }
    out.push_str("]}\n");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("benchmark/out can be created");
    let path = dir.join(format!("{}.trace.json", args.workload));
    std::fs::write(&path, out).expect("the trace file can be written");
    eprintln!("wrote {}", path.display());
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn result_line_has_exactly_the_tables_metrics() {
        let check = Check::new(10);
        let mut m = Metrics::new();
        m.insert("ops_per_s", 1234.5);
        let line = result_json(&check, &m, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        for e in END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\": ", e.name)));
        }
        assert!(line.contains("\"ops_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}"));
        let traced = result_json(&check, &Metrics::new(), true);
        assert_eq!(traced.matches("\"value\"").count(), PER_LAYER.len());
    }
}
