//! The `svc_*` workloads: the sharded KV service's request path, run
//! in-process by a closed loop of worker threads.
//!
//! A request fires the same four KV tracepoints as
//! `pivot_live::service` and crosses the same baggage boundaries — two
//! "RPC" edges where baggage is serialized and strictly deserialized, one
//! "channel" edge where it is split and joined — but makes no socket or
//! thread hop of its own. Over loopback TCP a request costs ~58 µs of
//! kernel socket and wake-up time and the tracer's 3–10 µs sits inside
//! the run-to-run noise (README, "Why the request path is in-process").
//! The tracer's report traffic still crosses real loopback TCP: agents →
//! relay → frontend.

use std::time::{Duration, Instant};

use pivot_baggage::Baggage;
use pivot_core::{set_trace, Agent, QueryBudget, TriggerKind};
use pivot_live::{ctx, now_nanos, tracepoint};
use pivot_model::Value;

use crate::gen::{Request, RequestStream, SvcTally, CLIENTS, KEYS, SHARDS};
use crate::hist::Hist;
use crate::slice::Slice;
use crate::span::{self, spanned, NameId, NoTrace, Recorder, Span, Tracer};
use crate::stack::{Stack, StackSpec};
use crate::{sys, Check};

/// End-to-end figures come from one closed-loop worker; a second runs
/// only in the `core.invoke_scaling` phase of a traced run. With two
/// workers on this two-vCPU machine the contended mutexes of
/// `Agent::invoke` make the rate hostage to how the hypervisor
/// schedules the vCPUs: as a workload of its own, two workers spread by
/// 3.9 % over ten runs in one hour and by 18.6 % in the next (README,
/// "Repeatability"), which no bound the driver allows can hold.
pub const MAX_WORKERS: usize = 2;
/// Hindsight is triggered for one request in this many, per worker.
const RETRO_EVERY: u64 = 4096;
/// Events one request leaves in the rings: one at the client agent,
/// three at the server agent.
const EVENTS_PER_REQUEST: u64 = 4;
const REPORT_INTERVAL: Duration = Duration::from_millis(100);

pub const KV_TRACEPOINTS: &[(&str, &[&str])] = &[
    ("KvClient.issueRequest", &["client", "op", "key"]),
    ("KvServer.receiveRequest", &["op", "key", "shard"]),
    ("KvShard.execute", &["shard", "op", "bytes", "hit"]),
    ("KvServer.sendResponse", &["bytes"]),
];

const Q1: &str = "From exec In KvShard.execute \
    Join req In First(KvClient.issueRequest) On req -> exec \
    GroupBy req.client Select req.client, COUNT, SUM(exec.bytes)";

/// Q1 plus four aggregates on the shard tracepoint. A missed get is the
/// only execution that touches no bytes, so `bytes == 0` filters misses.
const FIVE: &[&str] = &[
    Q1,
    "From exec In KvShard.execute GroupBy exec.shard Select exec.shard, COUNT, SUM(exec.bytes)",
    "From exec In KvShard.execute GroupBy exec.op Select exec.op, COUNT, MAX(exec.bytes)",
    "From exec In KvShard.execute Select COUNT, SUM(exec.bytes)",
    "From exec In KvShard.execute Where exec.bytes == 0 GroupBy exec.shard Select exec.shard, COUNT",
];

/// Finite, and far above the offered load: the governed branch charges
/// on every event and never trips.
pub fn generous_budget() -> QueryBudget {
    QueryBudget {
        tuples_per_window: 1 << 40,
        ops_per_window: 1 << 44,
        bytes_per_window: 1 << 44,
        ..QueryBudget::unlimited()
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Unwoven,
    Q1,
    FiveRetro,
}

impl Kind {
    pub fn queries(self) -> &'static [&'static str] {
        match self {
            Kind::Unwoven => &[],
            Kind::Q1 => &FIVE[..1],
            Kind::FiveRetro => FIVE,
        }
    }

    pub fn budget(self) -> Option<QueryBudget> {
        (self == Kind::FiveRetro).then(generous_budget)
    }

    pub fn retro(self) -> bool {
        self == Kind::FiveRetro
    }

    pub fn spec(self) -> StackSpec {
        StackSpec {
            tracepoints: KV_TRACEPOINTS,
            queries: self.queries(),
            budget: self.budget(),
            agents: vec!["kvclient".into(), "kvserver".into()],
            interval: REPORT_INTERVAL,
            retro: self.retro(),
        }
    }
}

/// Client and key names, built once; a request still makes its own
/// `Value`s from them, as the service does.
pub struct Names {
    clients: Vec<String>,
    keys: Vec<String>,
}

impl Names {
    pub fn new() -> Names {
        Names {
            clients: (0..CLIENTS).map(|c| format!("client-{c:02}")).collect(),
            keys: (0..KEYS).map(|k| format!("key-{k:04}")).collect(),
        }
    }
}

/// Where a worker's requests go: the two agents, the names it builds
/// `Value`s from, and how the workload wants them instrumented.
pub struct Route<'a> {
    client: &'a Agent,
    server: &'a Agent,
    names: &'a Names,
    sites: Sites,
    retro: bool,
}

impl<'a> Route<'a> {
    pub fn new(kind: Kind, client: &'a Agent, server: &'a Agent, names: &'a Names) -> Route<'a> {
        Route {
            client,
            server,
            names,
            sites: Sites::new(kind != Kind::Unwoven),
            retro: kind.retro(),
        }
    }
}

/// Span names of the four tracepoint sites. With nothing installed a
/// tracepoint is one idle-registry check and belongs to `live`; with a
/// query installed the call reaches `Agent::invoke`.
struct Sites {
    client: NameId,
    receive: NameId,
    shard: NameId,
    respond: NameId,
}

impl Sites {
    fn new(woven: bool) -> Sites {
        if woven {
            Sites {
                client: span::INVOKE_CLIENT,
                receive: span::INVOKE_RECEIVE,
                shard: span::INVOKE_SHARD,
                respond: span::INVOKE_RESPOND,
            }
        } else {
            Sites {
                client: span::TP_IDLE,
                receive: span::TP_IDLE,
                shard: span::TP_IDLE,
                respond: span::TP_IDLE,
            }
        }
    }
}

/// One worker's state across the phases of a run: its request stream,
/// its slice of the KV store, and the reference tally.
pub struct Worker {
    id: usize,
    stream: RequestStream,
    /// Stored value length per key; 0 = absent.
    store: Vec<u16>,
    next: u64,
    pub tally: SvcTally,
}

impl Worker {
    pub fn new(seed: u64, id: usize) -> Worker {
        Worker {
            id,
            stream: RequestStream::new(seed, id),
            store: vec![0; KEYS],
            next: 0,
            tally: SvcTally::new(),
        }
    }

    /// Runs one whole request along `route`.
    #[inline]
    fn request<T: Tracer>(&mut self, route: &Route, t: &mut T) {
        let Route {
            client,
            server,
            names,
            sites,
            retro,
        } = route;
        let retro = *retro;
        let n = self.next;
        self.next += 1;
        let req: Request = self.stream.get(n);
        // Unique and non-zero: 0 means "no trace id" to the ring.
        let id = ((self.id as u64 + 1) << 48) | (n + 1);
        let key = names.keys[req.key as usize].as_str();
        let op = if req.put_len > 0 { "put" } else { "get" };
        let shard = req.key as usize % SHARDS;

        t.begin_request(id);
        let root = t.enter(span::ROOT);

        // Client: fresh baggage, the client tracepoint, the request header.
        let client_scope = spanned!(t, span::SCOPE, ctx::attach(Baggage::new()));
        if retro {
            spanned!(
                t,
                span::SET_TRACE,
                ctx::with_baggage(|bag| set_trace(bag, id))
            );
        }
        let exports = [
            ("client", Value::str(&names.clients[req.client as usize])),
            ("op", Value::str(op)),
            ("key", Value::str(key)),
        ];
        spanned!(
            t,
            sites.client,
            tracepoint(client, "KvClient.issueRequest", &exports)
        );
        let header = spanned!(t, span::SERIALIZE, ctx::snapshot_bytes());
        self.tally.header_bytes += header.len() as u64;

        // Server: strict decode at the transport boundary, then dispatch.
        let bag = match spanned!(t, span::DESERIALIZE, Baggage::try_from_bytes(&header)) {
            Ok(bag) => bag,
            Err(_) => {
                self.tally.header_failures += 1;
                Baggage::new()
            }
        };
        let server_scope = spanned!(t, span::SCOPE, ctx::attach(bag));
        let exports = [
            ("op", Value::str(op)),
            ("key", Value::str(key)),
            ("shard", Value::U64(shard as u64)),
        ];
        spanned!(
            t,
            sites.receive,
            tracepoint(server, "KvServer.receiveRequest", &exports)
        );

        // The channel edge into the shard worker's fresh scope.
        let branch = spanned!(t, span::SPLIT_JOIN, ctx::branch());
        let shard_scope = spanned!(t, span::SCOPE, ctx::attach(Baggage::new()));
        spanned!(t, span::SPLIT_JOIN, ctx::merge(branch));
        let slot = &mut self.store[req.key as usize];
        if req.put_len > 0 {
            *slot = req.put_len;
        }
        let bytes = u64::from(*slot);
        let hit = bytes > 0;
        let exports = [
            ("shard", Value::U64(shard as u64)),
            ("op", Value::str(op)),
            ("bytes", Value::U64(bytes)),
            ("hit", Value::Bool(hit)),
        ];
        spanned!(
            t,
            sites.shard,
            tracepoint(server, "KvShard.execute", &exports)
        );
        let reply = spanned!(t, span::SPLIT_JOIN, ctx::branch());
        spanned!(t, span::SCOPE, drop(shard_scope));
        spanned!(t, span::SPLIT_JOIN, ctx::merge(reply));

        // Server: the response tracepoint and header.
        let sent = if req.put_len > 0 { 0 } else { bytes };
        let exports = [("bytes", Value::U64(sent))];
        spanned!(
            t,
            sites.respond,
            tracepoint(server, "KvServer.sendResponse", &exports)
        );
        let mut bag = spanned!(t, span::SCOPE, server_scope.detach());
        let header = spanned!(t, span::SERIALIZE, bag.to_bytes());
        self.tally.header_bytes += header.len() as u64;

        // Client: the response's baggage supersedes what was sent.
        match spanned!(t, span::DESERIALIZE, Baggage::try_from_bytes(&header)) {
            Ok(bag) => spanned!(t, span::SPLIT_JOIN, ctx::merge(bag)),
            Err(_) => self.tally.header_failures += 1,
        }
        spanned!(t, span::SCOPE, drop(client_scope));

        if retro && n.is_multiple_of(RETRO_EVERY) {
            spanned!(t, span::RETRO_TRIGGER, {
                let now = now_nanos();
                client.trigger_retro(TriggerKind::Fault, id, now);
                server.trigger_retro(TriggerKind::Fault, id, now);
            });
            self.tally.retro_triggers += 1;
        }
        t.exit(root);
        self.tally.record(req, shard, bytes);
    }

    /// Runs `count` requests untimed (probe feeders).
    pub fn drive(&mut self, route: &Route, count: u64) {
        for _ in 0..count {
            self.request(route, &mut NoTrace);
        }
    }
}

/// Length of one measurement slice. It spans several reporting
/// intervals, so every slice pays its share of flushes.
pub const SLICE: Duration = Duration::from_millis(250);

/// What one worker did in one slice.
#[derive(Clone, Copy)]
struct WorkerSlice {
    requests: u64,
    seconds: f64,
    /// CPU seconds of the whole process over the slice, sampled by the
    /// worker itself: a sampling thread would race the worker's exit, and
    /// a thread's time leaves `sys::cpu_seconds` when it ends.
    cpu_s: f64,
    /// CPU seconds of the worker itself.
    own_cpu_s: f64,
    /// Median, 90th and 99th percentile request latency, ns.
    p50: f64,
    p90: f64,
    p99: f64,
}

/// What one worker measured in one phase.
struct WorkerPhase<T> {
    /// One entry per whole slice; a phase that a full tracer ends inside
    /// its first slice has that partial slice.
    slices: Vec<WorkerSlice>,
    measured: u64,
    tracer: T,
}

/// One closed-loop phase: warm-up, then a measured window cut in slices.
pub struct Phase {
    pub slices: Vec<Slice>,
    pub measured: u64,
    pub spans: Vec<Vec<Span>>,
}

pub struct Svc {
    pub kind: Kind,
    pub stack: Stack,
    pub names: Names,
    pub workers: Vec<Worker>,
}

impl Svc {
    pub fn new(kind: Kind, stack: Stack, seed: u64) -> Svc {
        Svc {
            kind,
            stack,
            names: Names::new(),
            workers: (0..MAX_WORKERS).map(|id| Worker::new(seed, id)).collect(),
        }
    }

    /// Runs one closed-loop thread per tracer for `warm` unmeasured and
    /// then up to `measure` measured, while this thread polls the frontend
    /// at the reporting cadence. A worker stops early when its tracer is
    /// full.
    fn phase<T: Tracer + Send>(
        &mut self,
        warm: Duration,
        measure: Duration,
        tracers: Vec<T>,
    ) -> (Phase, Vec<T>) {
        let client = self.stack.agent(0);
        let server = self.stack.agent(1);
        let route = Route::new(self.kind, &client, &server, &self.names);
        let route = &route;
        let frontend = &mut self.stack.frontend;
        let warm_end = Instant::now() + warm;
        let end = warm_end + measure;

        let outs: Vec<WorkerPhase<T>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .workers
                .iter_mut()
                .zip(tracers)
                .map(|(worker, tracer)| {
                    s.spawn(move || run_worker(worker, route, warm_end, end, tracer))
                })
                .collect();
            // Poll the frontend at the reporting cadence until the window
            // ends or a full tracer has ended it early.
            while Instant::now() < end && !handles.iter().all(|h| h.is_finished()) {
                frontend.poll();
                std::thread::sleep(REPORT_INTERVAL);
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        });

        let whole = outs.iter().map(|o| o.slices.len()).min().unwrap_or(0);
        let workers = outs.len() as f64;
        let slices = (0..whole)
            .map(|k| {
                let of = |f: fn(&WorkerSlice) -> f64| -> f64 {
                    outs.iter().map(|o| f(&o.slices[k])).sum()
                };
                // Every worker sampled the whole process's CPU over the
                // same slice; latencies are the workers' mean, exact
                // with one worker.
                let cpu_s = of(|s| s.cpu_s) / workers;
                let per_kop = 1e9 / of(|s| s.requests as f64);
                Slice {
                    seconds: of(|s| s.seconds) / workers,
                    per_s: of(|s| s.requests as f64 / s.seconds),
                    cpu_us_per_kop: cpu_s * per_kop,
                    // Workers sample a moment apart, so the difference can
                    // dip below zero on an idle background.
                    background_cpu_us_per_kop: (cpu_s - of(|s| s.own_cpu_s)).max(0.0) * per_kop,
                    p50_us: of(|s| s.p50) / 1e3 / workers,
                    p90_us: of(|s| s.p90) / 1e3 / workers,
                    p99_us: of(|s| s.p99) / 1e3 / workers,
                }
            })
            .collect();
        let mut phase = Phase {
            slices,
            measured: 0,
            spans: Vec::new(),
        };
        let mut tracers = Vec::new();
        for out in outs {
            phase.measured += out.measured;
            tracers.push(out.tracer);
        }
        (phase, tracers)
    }

    pub fn run_untraced(&mut self, workers: usize, warm: Duration, measure: Duration) -> Phase {
        let tracers = (0..workers).map(|_| NoTrace).collect();
        self.phase(warm, measure, tracers).0
    }

    /// The traced run: the same driver recording spans, ending when the
    /// span buffers fill or `measure` has passed.
    pub fn run_traced(&mut self, warm: Duration, measure: Duration, capacity: usize) -> Phase {
        let epoch = Instant::now();
        let tracers = vec![Recorder::with_capacity(capacity, epoch)];
        let (mut phase, tracers) = self.phase(warm, measure, tracers);
        phase.spans = tracers.into_iter().map(Recorder::into_spans).collect();
        phase
    }

    /// Digest of each worker's request stream: equal for equal seeds.
    pub fn digests(&self) -> Vec<u64> {
        self.workers.iter().map(|w| w.stream.digest()).collect()
    }

    pub fn tally(&self) -> SvcTally {
        let mut total = SvcTally::new();
        for w in &self.workers {
            total.merge(&w.tally);
        }
        total
    }

    /// Flushes every tier until the frontend shows all that the agents
    /// emitted (or a deadline passes), then compares results with the
    /// generator's reference.
    pub fn settle_and_check(&mut self) -> Check {
        let tally = self.tally();
        let mut check = Check::new(tally.requests);
        check.fail(
            tally.header_failures,
            "request headers failed strict decode",
        );
        let expected = expected_tuples(self.kind, &tally);
        crate::settle(&mut self.stack, &expected, &mut check);

        let fe = self.stack.frontend.frontend_mut();
        for (q, handle) in self.stack.handles.iter().enumerate() {
            let rows = fe.results(handle).rows();
            // `(second, third)` column of the row whose first column is `key`.
            let by_key = |key: Value| -> Option<(u64, u64)> {
                let row = rows
                    .iter()
                    .find(|r| r.values[0].compare(&key) == Some(std::cmp::Ordering::Equal))?;
                let cell =
                    |col: usize| row.values.get(col).and_then(Value::as_i64).unwrap_or(0) as u64;
                Some((cell(1), cell(2)))
            };
            let (wrong, what) = match q {
                0 => (
                    (0..CLIENTS)
                        .filter(|&c| {
                            let want = tally.per_client[c];
                            by_key(Value::str(&self.names.clients[c]))
                                != (want.0 > 0).then_some(want)
                        })
                        .count(),
                    "Q1 per-client COUNT/SUM",
                ),
                1 => (
                    (0..SHARDS)
                        .filter(|&s| by_key(Value::U64(s as u64)) != Some(tally.per_shard[s]))
                        .count(),
                    "per-shard COUNT/SUM",
                ),
                2 => (
                    ["get", "put"]
                        .iter()
                        .zip(tally.per_op)
                        .filter(|(op, want)| by_key(Value::str(op)) != Some(*want))
                        .count(),
                    "per-op COUNT/MAX",
                ),
                3 => {
                    let got = rows.first().map(|r| {
                        let cell = |col: usize| r.values[col].as_i64().unwrap_or(0) as u64;
                        (cell(0), cell(1))
                    });
                    (
                        usize::from(got != Some((tally.requests, tally.total_bytes()))),
                        "global COUNT/SUM",
                    )
                }
                _ => (
                    (0..SHARDS)
                        .filter(|&s| {
                            let want = tally.misses[s];
                            by_key(Value::U64(s as u64)).map(|r| r.0) != (want > 0).then_some(want)
                        })
                        .count(),
                    "per-shard miss COUNT",
                ),
            };
            check.fail(
                wrong as u64,
                &format!("{what} rows differ from the reference"),
            );
        }

        if self.kind.retro() {
            let want = tally.retro_triggers * EVENTS_PER_REQUEST;
            let loss = fe.retro_loss();
            check.fail(
                want.abs_diff(loss.events_delivered),
                "hindsight events delivered differ from triggers x events per request",
            );
            check.fail(loss.events_shed, "hindsight events were shed");
            for agent in &self.stack.agents {
                let a = agent.agent();
                let balanced = a.retro_counters().balanced_with(a.retro_buffered() as u64);
                check.fail(
                    u64::from(!balanced),
                    "an agent's hindsight books do not balance",
                );
            }
        }
        for (handle, agent) in self
            .stack
            .handles
            .iter()
            .flat_map(|h| self.stack.agents.iter().map(move |a| (h, a)))
        {
            check.fail(
                u64::from(agent.agent().trips_for(handle.id)),
                "a generous budget tripped",
            );
        }
        check
    }
}

/// Tuples each query must deliver for `tally`.
fn expected_tuples(kind: Kind, tally: &SvcTally) -> Vec<u64> {
    let misses: u64 = tally.misses.iter().sum();
    let all = [
        tally.requests,
        tally.requests,
        tally.requests,
        tally.requests,
        misses,
    ];
    all[..kind.queries().len()].to_vec()
}

/// Ends the slice that began at `marks` and begins the next one at `now`.
fn close(hist: &Hist, marks: &mut Marks, now: Instant) -> WorkerSlice {
    let (cpu_s, own_cpu_s) = (sys::cpu_seconds(), sys::thread_cpu_seconds());
    let slice = WorkerSlice {
        requests: hist.count(),
        seconds: (now - marks.at).as_secs_f64(),
        cpu_s: cpu_s - marks.cpu_s,
        own_cpu_s: own_cpu_s - marks.own_cpu_s,
        p50: hist.quantile(0.50),
        p90: hist.quantile(0.90),
        p99: hist.quantile(0.99),
    };
    *marks = Marks {
        at: now,
        cpu_s,
        own_cpu_s,
    };
    slice
}

/// Where a slice began: wall clock, process CPU and the worker's own.
struct Marks {
    at: Instant,
    cpu_s: f64,
    own_cpu_s: f64,
}

fn run_worker<T: Tracer>(
    worker: &mut Worker,
    route: &Route,
    warm_end: Instant,
    end: Instant,
    mut tracer: T,
) -> WorkerPhase<T> {
    // Warm-up runs untraced so the span buffer holds measured requests.
    while Instant::now() < warm_end {
        worker.request(route, &mut NoTrace);
    }
    let mut slices = Vec::with_capacity(256);
    let mut hist = Hist::new();
    let mut measured = 0u64;
    let mut marks = Marks {
        at: Instant::now(),
        cpu_s: sys::cpu_seconds(),
        own_cpu_s: sys::thread_cpu_seconds(),
    };
    let mut last = marks.at;
    // Closed loop with no think time: a request starts when the last ended.
    while last < end && tracer.has_room() {
        let t0 = last;
        worker.request(route, &mut tracer);
        last = Instant::now();
        hist.record((last - t0).as_nanos() as u64);
        measured += 1;
        if last - marks.at >= SLICE {
            slices.push(close(&hist, &mut marks, last));
            hist.clear();
        }
    }
    // A phase a full tracer ended inside its first slice reports that part.
    if slices.is_empty() && hist.count() > 0 {
        slices.push(close(&hist, &mut marks, last));
    }
    WorkerPhase {
        slices,
        measured,
        tracer,
    }
}
