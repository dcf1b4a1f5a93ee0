//! `report_fanin`: the report path. Sixteen agents and the relay use
//! hour-long intervals, so only the driver flushes. Each round feeds
//! every agent one batch through `Agent::invoke_batch`, flushes the
//! agents, lets the relay absorb the whole round (`pull_now`) and flush it
//! once, then polls the frontend until it shows every tuple the generator
//! counted. Every `EPOCH_ROUNDS` rounds the stack is checked against the
//! reference and replaced by a fresh one.
//!
//! Invoke does little here; `Agent::flush`, the wire codec, the columnar
//! block encoding, the relay merge and `Frontend::accept` do most of the
//! work. It also uses `core` differently from `svc_*`: the batched invoke
//! path, streaming rows, and many flushes per second instead of ten.

use std::time::{Duration, Instant};

use pivot_baggage::Baggage;
use pivot_core::Agent;
use pivot_live::now_nanos;
use pivot_model::Value;

use crate::gen::{FaninEvent, FaninGen, FaninTally, FANIN_AGENTS, FANIN_TAG_CUT, KEYS};
use crate::hist::Hist;
use crate::slice::Slice;
use crate::span::{self, spanned, NoTrace, Recorder, Span, Tracer};
use crate::stack::{Stack, StackSpec};
use crate::{sys, Check, Metrics};

pub const TRACEPOINTS: &[(&str, &[&str])] = &[("Fanin.event", &["key", "val", "tag"])];

/// A grouped query over the skewed keys, and a streaming filter that
/// keeps the events below `FANIN_TAG_CUT` as raw rows.
pub const QUERIES: &[&str] = &[
    "From e In Fanin.event GroupBy e.key Select e.key, COUNT, SUM(e.val), MAX(e.val)",
    "From e In Fanin.event Where e.tag < 64 Select e.key, e.val, e.tag",
];

const HOUR: Duration = Duration::from_secs(3600);
/// How long a round may wait for its tuples before it counts as failed.
const ROUND_DEADLINE: Duration = Duration::from_secs(20);

pub fn spec() -> StackSpec {
    StackSpec {
        tracepoints: TRACEPOINTS,
        queries: QUERIES,
        budget: None,
        agents: (0..FANIN_AGENTS).map(|i| format!("leaf-{i:02}")).collect(),
        interval: HOUR,
        retro: false,
    }
}

/// Rounds in one measurement slice.
const SLICE_ROUNDS: u64 = 32;

/// Rounds one stack serves before it is checked, torn down and replaced
/// (at the next slice boundary, outside any slice).
///
/// The frontend keeps every interval and every raw row, about 0.4 MB a
/// round, so one stack serving a whole 20 s run grew past 1 GB. On this
/// VM the hypervisor backs guest memory on demand: a process's first
/// touch of a page costs ~2.5 µs up to about 1.1 GB resident and ~20 µs
/// beyond (timed with a plain page-touching loop, twice). Runs fell from
/// ~520 k to ~400 k tuples/s when they crossed that line, system time
/// rising from 8 % to 23 %, and stayed there until the process ended:
/// the benchmark was measuring the hypervisor. With a fresh stack every
/// 512 rounds the process stays near 250 MB whatever the run's length
/// or the report path's speed.
const EPOCH_ROUNDS: u64 = 512;

/// What the measured rounds of one phase came to.
pub struct Phase {
    /// One entry per `SLICE_ROUNDS` rounds. A latency is a round's
    /// visible lag: first `flush_now` until all its tuples are visible.
    pub slices: Vec<Slice>,
    /// Visible lag of every measured round.
    pub lag: Hist,
    pub rounds: u64,
    pub spans: Vec<Span>,
}

pub struct Fanin {
    stack: Stack,
    gen: FaninGen,
    keys: Vec<Value>,
    /// Reference for the rounds the current stack served.
    tally: FaninTally,
    batch: Vec<FaninEvent>,
    /// Rounds so far, over every stack; a round's id in the trace.
    rounds: u64,
    /// Rounds the current stack served.
    epoch_rounds: u64,
    /// Rounds whose tuples never all became visible.
    stuck_rounds: u64,
    /// Verdict on the stacks already replaced, and their counts (C).
    check: Check,
    counts: Metrics,
    /// `VmHWM` when the first stack had served `EPOCH_ROUNDS` rounds.
    first_epoch_rss_mb: Option<f64>,
}

/// Where a slice began.
struct Mark {
    at: Instant,
    cpu_s: f64,
    own_cpu_s: f64,
    tuples: u64,
}

/// Feeds `batch` to `agent` as one `invoke_batch` call.
pub fn invoke_batch(agent: &Agent, keys: &[Value], batch: &[FaninEvent], now: u64) {
    let exports: Vec<[(&str, Value); 3]> = batch
        .iter()
        .map(|e| {
            [
                ("key", keys[e.key as usize].clone()),
                ("val", Value::U64(e.val)),
                ("tag", Value::U64(e.tag)),
            ]
        })
        .collect();
    let events: Vec<(u64, &[(&str, Value)])> =
        exports.iter().map(|e| (now, e.as_slice())).collect();
    agent.invoke_batch("Fanin.event", &mut Baggage::new(), &events);
}

pub fn key_values() -> Vec<Value> {
    (0..KEYS)
        .map(|k| Value::str(format!("key-{k:04}")))
        .collect()
}

impl Fanin {
    pub fn new(stack: Stack, seed: u64) -> Fanin {
        assert!(QUERIES[1].contains(&format!("e.tag < {FANIN_TAG_CUT} ")));
        Fanin {
            stack,
            gen: FaninGen::new(seed),
            keys: key_values(),
            tally: FaninTally::new(),
            batch: Vec::new(),
            rounds: 0,
            epoch_rounds: 0,
            stuck_rounds: 0,
            check: Check::new(0),
            counts: Metrics::new(),
            first_epoch_rss_mb: None,
        }
    }

    /// Peak resident set size (`VmHWM`) when the first stack was full:
    /// at a fixed amount of work, so a faster report path does not read
    /// as more memory. A run too short to fill one reads it at the end.
    pub fn peak_rss_mb(&self) -> f64 {
        self.first_epoch_rss_mb.unwrap_or_else(sys::peak_rss_mb)
    }

    fn mark(&self) -> Mark {
        Mark {
            at: Instant::now(),
            cpu_s: sys::cpu_seconds(),
            own_cpu_s: sys::thread_cpu_seconds(),
            tuples: self.expected().iter().sum(),
        }
    }

    /// Tuples the two queries must have delivered on the current stack.
    fn expected(&self) -> [u64; 2] {
        [self.tally.events, self.tally.kept]
    }

    /// One round; returns its visible lag.
    fn round<T: Tracer>(&mut self, t: &mut T) -> Duration {
        self.rounds += 1;
        self.epoch_rounds += 1;
        t.begin_request(self.rounds);
        let root = t.enter(span::ROOT);
        for agent in &self.stack.agents {
            self.gen.batch(&mut self.batch);
            self.tally.record(&self.batch);
            spanned!(
                t,
                span::INVOKE_BATCH,
                invoke_batch(agent.agent(), &self.keys, &self.batch, now_nanos())
            );
        }
        let flush_begin = Instant::now();
        for agent in &self.stack.agents {
            spanned!(t, span::AGENT_FLUSH, agent.flush_now());
        }
        // The relay absorbs until it holds the whole round, then flushes
        // once; the frontend polls until the round is visible. Flushing
        // whatever has arrived so far would make the number of upstream
        // reports, and with it the frontend's memory (it keeps every
        // interval), depend on thread timing: 297 or 352 MiB at the same
        // round, depending on the machine's mood.
        let want = self.expected();
        let want_absorbed: u64 = want.iter().sum();
        let deadline = flush_begin + ROUND_DEADLINE;
        while {
            spanned!(t, span::RELAY_PULL, self.stack.relay.pull_now());
            self.stack.relay.stats().tuples_in < want_absorbed && Instant::now() < deadline
        } {
            // The frames are in flight between reader threads; give them
            // the core.
            spanned!(t, span::WAIT_VISIBLE, std::thread::yield_now());
        }
        spanned!(t, span::RELAY_FLUSH, self.stack.relay.flush_now());
        loop {
            spanned!(t, span::POLL, self.stack.frontend.poll());
            let fe = self.stack.frontend.frontend_mut();
            let visible = self
                .stack
                .handles
                .iter()
                .zip(want)
                .all(|(h, want)| fe.results(h).loss().tuples_delivered >= want);
            if visible {
                break;
            }
            if Instant::now() > deadline {
                self.stuck_rounds += 1;
                break;
            }
            spanned!(t, span::WAIT_VISIBLE, std::thread::yield_now());
        }
        let lag = flush_begin.elapsed();
        t.exit(root);
        if self.epoch_rounds == EPOCH_ROUNDS && self.first_epoch_rss_mb.is_none() {
            self.first_epoch_rss_mb = Some(sys::peak_rss_mb());
        }
        lag
    }

    fn phase<T: Tracer>(&mut self, warm: Duration, measure: Duration, t: &mut T) -> Phase {
        let warm_end = Instant::now() + warm;
        while Instant::now() < warm_end {
            self.round(&mut NoTrace);
            if self.epoch_rounds >= EPOCH_ROUNDS {
                self.recycle();
            }
        }
        let mut lag = Hist::new();
        let mut slice_lag = Hist::new();
        let mut slices = Vec::new();
        let begin = Instant::now();
        let mut slice_begin = self.mark();
        let mut rounds = 0;
        loop {
            let ns = self.round(t).as_nanos() as u64;
            lag.record(ns);
            slice_lag.record(ns);
            rounds += 1;
            // A phase shorter than one slice still reports the part it ran.
            let over = begin.elapsed() >= measure || !t.has_room();
            if rounds % SLICE_ROUNDS == 0 || (over && slices.is_empty()) {
                let now = self.mark();
                let seconds = (now.at - slice_begin.at).as_secs_f64();
                let tuples = (now.tuples - slice_begin.tuples) as f64;
                let cpu_s = now.cpu_s - slice_begin.cpu_s;
                let own_cpu_s = now.own_cpu_s - slice_begin.own_cpu_s;
                slices.push(Slice {
                    seconds,
                    per_s: tuples / seconds,
                    cpu_us_per_kop: cpu_s * 1e9 / tuples,
                    background_cpu_us_per_kop: (cpu_s - own_cpu_s) * 1e9 / tuples,
                    p50_us: slice_lag.quantile(0.50) / 1e3,
                    p90_us: slice_lag.quantile(0.90) / 1e3,
                    p99_us: slice_lag.quantile(0.99) / 1e3,
                });
                slice_lag.clear();
                if self.epoch_rounds >= EPOCH_ROUNDS && !over {
                    self.recycle();
                }
                slice_begin = self.mark();
            }
            if over {
                break;
            }
        }
        Phase {
            slices,
            lag,
            rounds,
            spans: Vec::new(),
        }
    }

    pub fn run_untraced(&mut self, warm: Duration, measure: Duration) -> Phase {
        self.phase(warm, measure, &mut NoTrace)
    }

    pub fn run_traced(&mut self, warm: Duration, measure: Duration, capacity: usize) -> Phase {
        let mut recorder = Recorder::with_capacity(capacity, Instant::now());
        let mut phase = self.phase(warm, measure, &mut recorder);
        phase.spans = recorder.into_spans();
        phase
    }

    /// Checks the stack and replaces it with a fresh one.
    fn recycle(&mut self) {
        self.close_epoch();
        self.stack = Stack::start(&spec());
        self.tally = FaninTally::new();
        self.epoch_rounds = 0;
    }

    /// The verdict on every stack of the run, and their summed counts (C).
    pub fn finish(mut self) -> (Check, Metrics) {
        self.close_epoch();
        (self.check, self.counts)
    }

    /// Settles the current stack, then compares its grouped and streaming
    /// totals with the generator's reference. An operation is a tuple.
    fn close_epoch(&mut self) {
        let expected = self.expected();
        let mut check = Check::new(expected.iter().sum());
        check.fail(
            std::mem::take(&mut self.stuck_rounds),
            "rounds never became fully visible",
        );
        crate::settle(&mut self.stack, &expected, &mut check);

        let fe = self.stack.frontend.frontend_mut();
        let grouped = fe.results(&self.stack.handles[0]).rows();
        let as_u64 = |v: &Value| v.as_i64().unwrap_or(-1) as u64;
        let mut wrong = 0u64;
        let mut seen = 0usize;
        for (k, want) in self.tally.per_key.iter().enumerate() {
            if want.0 == 0 {
                continue;
            }
            seen += 1;
            let row = grouped
                .iter()
                .find(|r| r.values[0].as_str() == self.keys[k].as_str());
            let got = row.map(|r| {
                (
                    as_u64(&r.values[1]),
                    as_u64(&r.values[2]),
                    as_u64(&r.values[3]),
                )
            });
            wrong += u64::from(got != Some(*want));
        }
        wrong += grouped.len().abs_diff(seen) as u64;
        check.fail(
            wrong,
            "grouped COUNT/SUM/MAX rows differ from the reference",
        );

        let raw = fe.results(&self.stack.handles[1]).raw_rows();
        let kept_val: u64 = raw.iter().map(|(_, row)| as_u64(row.get(1))).sum();
        check.fail(
            (raw.len() as u64).abs_diff(self.tally.kept),
            "streaming row count differs from the reference",
        );
        check.fail(
            u64::from(kept_val != self.tally.kept_val),
            "streaming SUM(val) differs from the reference",
        );
        self.check.merge(check);
        self.stack.add_counts(&mut self.counts);
    }
}
