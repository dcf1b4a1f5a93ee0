//! Every request shape up to a bound: the happened-before join evaluated
//! inline, through baggage, equals its global evaluation over the recorded
//! causal graph (paper §3, Figure 6), across threads, processes and
//! serialized hops.
//!
//! A shape is a tree of steps run by up to three processes: tracepoint
//! events (`A`, `B`, `C`), forks (a split, each side's steps, a join),
//! synchronous RPCs (serialize, adopt in the callee, the callee's steps,
//! optionally a hand-off — a split and join inside the callee — then
//! serialize the response and adopt it in the caller) and fan-outs (a
//! split, an RPC on each side, a join of the replies). Every shape up to
//! the bound is enumerated once: processes are numbered in the order they
//! are first called, and `B` is the first of `B` / `C` to occur, since the
//! two play the same part. A header is empty or not according to whether
//! an `A` was packed before the call.
//!
//! Each query runs every shape on its own frontend and one agent per
//! process. A query that keeps every row, and the grouped one, must match
//! the global evaluation exactly. A temporal filter picks among
//! concurrent candidates in an order each strategy defines for itself, so
//! where the two differ the inline rows must still be a correct choice:
//! as many as the filter keeps, each a causal predecessor, and no skipped
//! candidate ordered before (`First`) or after (`MostRecent`) a kept one.

use std::collections::BTreeMap;

use pivot_core::{Agent, Frontend, ProcessInfo};
use pivot_model::Value;
use pivot_query::ast::TemporalFilter;
use pivot_workloads::global::{evaluate, TraceLog, TracedCtx};

/// Processes a shape may call into, the root included.
const PROCESSES: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Tp {
    A,
    B,
    C,
}

impl Tp {
    fn name(self) -> &'static str {
        match self {
            Tp::A => "A",
            Tp::B => "B",
            Tp::C => "C",
        }
    }
}

#[derive(Clone, Debug)]
enum Step {
    Event(Tp),
    /// Split: the first steps run on this side, the second on the branch;
    /// then the branch joins back.
    Fork(Vec<Step>, Vec<Step>),
    Rpc(Call),
    /// Split: one call on this side, one on the branch; join the replies.
    FanOut(Call, Call),
}

#[derive(Clone, Debug)]
struct Call {
    callee: usize,
    steps: Vec<Step>,
    /// The callee hands the request to another thread and back before it
    /// responds.
    hand_off: bool,
}

/// A sequence of steps and what it used of the bound.
#[derive(Clone)]
struct Seq {
    steps: Vec<Step>,
    events: usize,
    nodes: usize,
    /// Processes numbered so far.
    procs: usize,
}

/// The processes `cur` may call: those already numbered, and the next.
fn callees(procs: usize, cur: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..(procs + 1).min(PROCESSES))
        .filter(move |c| *c != cur)
        .map(move |c| (c, procs.max(c + 1)))
}

/// Every sequence in process `cur` with at most `events` events and
/// `nodes` forks, RPCs and fan-outs.
fn seqs(events: usize, nodes: usize, procs: usize, cur: usize) -> Vec<Seq> {
    let mut out = vec![Seq {
        steps: Vec::new(),
        events: 0,
        nodes: 0,
        procs,
    }];
    for first in steps(events, nodes, procs, cur) {
        for rest in seqs(events - first.events, nodes - first.nodes, first.procs, cur) {
            let mut steps = first.steps.clone();
            steps.extend(rest.steps);
            out.push(Seq {
                steps,
                events: first.events + rest.events,
                nodes: first.nodes + rest.nodes,
                procs: rest.procs,
            });
        }
    }
    out
}

/// Every single step within the bound, as a one-step [`Seq`].
fn steps(events: usize, nodes: usize, procs: usize, cur: usize) -> Vec<Seq> {
    let one = |step: Step, events: usize, nodes: usize, procs: usize| Seq {
        steps: vec![step],
        events,
        nodes,
        procs,
    };
    let mut out = Vec::new();
    if events >= 1 {
        for tp in [Tp::A, Tp::B, Tp::C] {
            out.push(one(Step::Event(tp), 1, 0, procs));
        }
    }
    if nodes == 0 {
        return out;
    }
    for left in seqs(events, nodes - 1, procs, cur) {
        for right in seqs(
            events - left.events,
            nodes - 1 - left.nodes,
            left.procs,
            cur,
        ) {
            out.push(one(
                Step::Fork(left.steps.clone(), right.steps),
                left.events + right.events,
                1 + left.nodes + right.nodes,
                right.procs,
            ));
        }
    }
    let calls = |events: usize, nodes: usize, procs: usize| {
        let mut out = Vec::new();
        for (callee, procs) in callees(procs, cur) {
            for body in seqs(events, nodes, procs, callee) {
                for hand_off in [false, true] {
                    let call = Call {
                        callee,
                        steps: body.steps.clone(),
                        hand_off,
                    };
                    out.push((call, body.events, body.nodes, body.procs));
                }
            }
        }
        out
    };
    for (call, e, n, procs) in calls(events, nodes - 1, procs) {
        out.push(one(Step::Rpc(call), e, 1 + n, procs));
    }
    for (first, e1, n1, procs) in calls(events, nodes - 1, procs) {
        for (second, e2, n2, procs) in calls(events - e1, nodes - 1 - n1, procs) {
            out.push(one(
                Step::FanOut(first.clone(), second),
                e1 + e2,
                1 + n1 + n2,
                procs,
            ));
        }
    }
    out
}

/// The events of `steps` in the order a run records them.
fn events_of(steps: &[Step], out: &mut Vec<Tp>) {
    for step in steps {
        match step {
            Step::Event(tp) => out.push(*tp),
            Step::Fork(left, right) => {
                events_of(left, out);
                events_of(right, out);
            }
            Step::Rpc(call) => events_of(&call.steps, out),
            Step::FanOut(first, second) => {
                events_of(&first.steps, out);
                events_of(&second.steps, out);
            }
        }
    }
}

/// Every shape of at most three events and one fork, RPC or fan-out, or
/// at most two events and two of them: the ones with an `A` and a later
/// side to join it to, `B` first, smallest first.
fn shapes() -> Vec<Vec<Step>> {
    let mut all: Vec<Seq> = seqs(3, 1, 1, 0);
    all.extend(seqs(2, 2, 1, 0).into_iter().filter(|s| s.nodes == 2));
    let mut shapes: Vec<(usize, Vec<Step>)> = all
        .into_iter()
        .filter(|seq| {
            let mut tps = Vec::new();
            events_of(&seq.steps, &mut tps);
            tps.contains(&Tp::A) && tps.iter().find(|tp| **tp != Tp::A) == Some(&Tp::B)
        })
        .map(|seq| (seq.events + seq.nodes, seq.steps))
        .collect();
    shapes.sort_by_key(|(size, _)| *size);
    shapes.into_iter().map(|(_, steps)| steps).collect()
}

/// One query's run over every shape.
struct Run<'a> {
    agents: &'a [Agent],
    shape: u64,
    now: u64,
    log: TraceLog,
}

impl Run<'_> {
    fn steps(&mut self, proc: usize, ctx: &mut TracedCtx, steps: &[Step]) {
        for step in steps {
            match step {
                Step::Event(tp) => {
                    let x = self.log.events().len() as u64;
                    let exports = [
                        ("x", Value::U64(x)),
                        ("v", Value::U64(1)),
                        ("s", Value::U64(self.shape)),
                    ];
                    ctx.record(&mut self.log, tp.name(), &exports);
                    self.now += 1;
                    self.agents[proc].invoke(tp.name(), &mut ctx.baggage, self.now, &exports);
                }
                Step::Fork(left, right) => {
                    let mut branch = ctx.split();
                    self.steps(proc, ctx, left);
                    self.steps(proc, &mut branch, right);
                    ctx.join(branch);
                }
                Step::Rpc(call) => self.call(ctx, call),
                Step::FanOut(first, second) => {
                    let mut branch = ctx.split();
                    self.call(ctx, first);
                    self.call(&mut branch, second);
                    ctx.join(branch);
                }
            }
        }
    }

    fn call(&mut self, caller: &mut TracedCtx, call: &Call) {
        let request = caller.to_wire();
        let mut callee = TracedCtx::from_wire(&request);
        self.steps(call.callee, &mut callee, &call.steps);
        if call.hand_off {
            let worker = callee.split();
            callee.join(worker);
        }
        caller.adopt_response(&callee.to_wire());
    }
}

/// Rows by shape, sorted: the shape is each row's first column.
type Rows = BTreeMap<u64, Vec<Vec<Value>>>;

fn by_shape(rows: impl IntoIterator<Item = Vec<Value>>) -> Rows {
    let mut out = Rows::new();
    for row in rows {
        let Value::U64(shape) = row[0] else {
            panic!("a row starts with its shape: {row:?}");
        };
        out.entry(shape).or_default().push(row);
    }
    for rows in out.values_mut() {
        rows.sort_unstable();
    }
    out
}

fn u64_of(value: &Value) -> u64 {
    match value {
        Value::U64(v) => *v,
        other => panic!("not an event number: {other:?}"),
    }
}

/// Checks that `rows` (shape, a.x, later.x) are a correct choice of the
/// temporal filter on `log`: for each later event, as many `A`s as the
/// filter keeps of its causal past, each once, and no skipped candidate
/// on the wrong side of a kept one.
fn a_correct_choice(
    rows: &[Vec<Value>],
    log: &TraceLog,
    later: &str,
    filter: TemporalFilter,
) -> Result<(), String> {
    let ancestry = log.ancestry();
    let mut chosen: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for row in rows {
        chosen
            .entry(u64_of(&row[2]))
            .or_default()
            .push(u64_of(&row[1]));
    }
    for event in log.events().iter().filter(|e| e.tracepoint == later) {
        let cands: Vec<u64> = log
            .events()
            .iter()
            .filter(|a| a.tracepoint == "A" && ancestry.happened_before(a.seq, event.seq))
            .map(|a| a.seq)
            .collect();
        let (n, first) = match filter {
            TemporalFilter::First(n) => (n.max(1), true),
            TemporalFilter::MostRecent(n) => (n.max(1), false),
        };
        let mut kept = chosen.remove(&event.seq).unwrap_or_default();
        kept.sort_unstable();
        kept.dedup();
        let rows = rows.iter().filter(|r| u64_of(&r[2]) == event.seq).count();
        if rows != kept.len() || kept.len() != n.min(cands.len()) {
            return Err(format!("{later}{} keeps {kept:?} of {cands:?}", event.seq));
        }
        for k in &kept {
            if !cands.contains(k) {
                return Err(format!("A{k} is not before {later}{}", event.seq));
            }
            for c in cands.iter().filter(|c| !kept.contains(c)) {
                let wrong = if first {
                    ancestry.happened_before(*c, *k)
                } else {
                    ancestry.happened_before(*k, *c)
                };
                if wrong {
                    return Err(format!("{later}{} kept A{k} over A{c}", event.seq));
                }
            }
        }
    }
    match chosen.keys().next() {
        Some(seq) => Err(format!("rows for event {seq}, which is no {later}")),
        None => Ok(()),
    }
}

/// What one query found over every shape.
struct Outcome {
    /// Shapes where a temporal filter chose differently from the global
    /// evaluation, correctly.
    ties: usize,
    /// `(shape, message)` of every shape that differs.
    failures: Vec<(usize, String)>,
}

fn check_query(text: &str, later: &str, shapes: &[Vec<Step>]) -> Outcome {
    let mut fe = Frontend::new();
    for tp in ["A", "B", "C"] {
        fe.define(tp, ["x", "v", "s"]);
    }
    let handle = fe.install(text).expect("valid query");
    let agents: Vec<Agent> = (0..PROCESSES)
        .map(|p| {
            Agent::new(ProcessInfo {
                host: format!("host-{p}"),
                procid: p as u64 + 1,
                procname: format!("proc-{p}"),
            })
        })
        .collect();
    for cmd in fe.drain_commands() {
        for agent in &agents {
            agent.apply(&cmd);
        }
    }
    let ast = pivot_query::parse(text).expect("parses");
    let filter = ast.joins[0].source.filter;

    let mut now = 0;
    let mut logs = Vec::with_capacity(shapes.len());
    let mut expected = Rows::new();
    for (shape, steps) in shapes.iter().enumerate() {
        let mut run = Run {
            agents: &agents,
            shape: shape as u64,
            now,
            log: TraceLog::new(),
        };
        let mut root = TracedCtx::new(shape as u64);
        run.steps(0, &mut root, steps);
        now = run.now;
        expected.extend(by_shape(evaluate(&ast, &fe, &run.log)));
        logs.push(run.log);
    }
    for agent in &agents {
        for report in agent.flush(u64::MAX / 2) {
            fe.accept(report);
        }
    }
    let results = fe.results(&handle);
    let got = by_shape(if results.spec.streaming {
        results
            .raw_rows()
            .iter()
            .map(|(_, t)| t.values().to_vec())
            .collect::<Vec<_>>()
    } else {
        results.rows().into_iter().map(|r| r.values).collect()
    });

    let mut outcome = Outcome {
        ties: 0,
        failures: Vec::new(),
    };
    for (shape, log) in logs.iter().enumerate() {
        let key = shape as u64;
        let (got, want) = (
            got.get(&key).map_or(&[][..], Vec::as_slice),
            expected.get(&key).map_or(&[][..], Vec::as_slice),
        );
        if got == want {
            continue;
        }
        let verdict = match filter {
            Some(filter) => a_correct_choice(got, log, later, filter),
            None => Err("rows differ".to_owned()),
        };
        match verdict {
            Ok(()) => outcome.ties += 1,
            Err(why) => outcome.failures.push((
                shape,
                format!("{why}\n  inline: {got:?}\n  global: {want:?}"),
            )),
        }
    }
    outcome
}

/// Each pack mode, joined from `A` to `later`. Every row starts with the
/// shape, so one frontend holds every shape's rows apart.
fn queries(later: &str) -> Vec<String> {
    let l = later.to_lowercase();
    let streaming = |source: &str, a: &str| {
        format!("From {l} In {later} Join a In {source} On a -> {l} Select {l}.s, {a}, {l}.x")
    };
    vec![
        streaming("A", "a.v"),
        streaming("First(A)", "a.x"),
        streaming("FirstN(2, A)", "a.x"),
        streaming("MostRecent(A)", "a.x"),
        streaming("MostRecentN(2, A)", "a.x"),
        format!(
            "From {l} In {later} Join a In A On a -> {l} GroupBy a.s, a.v Select a.s, a.v, COUNT"
        ),
    ]
}

#[test]
fn inline_equals_global_on_every_request_shape() {
    let shapes = shapes();
    assert_eq!(shapes.len(), SHAPES, "the bound enumerates another set");
    let mut ties = 0;
    for later in ["B", "C"] {
        for text in queries(later) {
            let outcome = check_query(&text, later, &shapes);
            if let Some((shape, why)) = outcome.failures.first() {
                panic!(
                    "{} of {} shapes differ on `{text}`; the smallest, shape {shape}:\n  {:?}\n{why}",
                    outcome.failures.len(),
                    shapes.len(),
                    shapes[*shape],
                );
            }
            ties += outcome.ties;
        }
    }
    println!(
        "{} shapes, {ties} temporal choices among concurrent candidates",
        shapes.len()
    );
}

/// The number of shapes [`shapes`] enumerates.
const SHAPES: usize = 33_995;

/// The shape that lost a tuple before instance identities were minted
/// where they retire: a fan-out over two empty headers, where each callee
/// packs the same tuple and hands the request off, joined before `B`.
#[test]
fn the_empty_header_fan_out_keeps_both_tuples() {
    let call = |callee| Call {
        callee,
        steps: vec![Step::Event(Tp::A)],
        hand_off: true,
    };
    let shape = vec![Step::FanOut(call(1), call(2)), Step::Event(Tp::B)];
    let outcome = check_query(&queries("B")[0], "B", &[shape]);
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
}
