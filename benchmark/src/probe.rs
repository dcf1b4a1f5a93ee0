//! Probe loops (P): deeper public functions timed on the inputs the
//! workload generates, after the traced run. They run on a *shadow*
//! system — a plain `Frontend`, `Agent`s and a `RelayCore` with the same
//! queries installed — so they neither disturb the live stack's books
//! nor need a socket, except `live.frame_rtt_us`, which owns a loopback
//! pair.

use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pivot_baggage::{Baggage, PackMode, QueryId};
use pivot_core::{
    set_trace, Agent, Command, Frontend, ProcessInfo, QueryBudget, Report, ReportRows,
};
use pivot_live::frame::{read_frame, write_frame};
use pivot_live::proto::{decode_message, encode_message, Message};
use pivot_model::{EncodedBlock, Tuple, Value};
use pivot_query::{AdviceByteCode, CollectSink, Vm};
use pivot_relay::RelayCore;

use crate::gen::CLIENTS;
use crate::median;

/// Metric names and the values a probe read for them.
pub type Readings = Vec<(&'static str, f64)>;

/// A frontend that compiled the workload's queries, and the commands
/// that weave them.
pub struct Shadow {
    frontend: Frontend,
    commands: Vec<Command>,
}

impl Shadow {
    pub fn new(tracepoints: &[(&str, &[&str])], queries: &[&str]) -> Shadow {
        let mut frontend = Frontend::new();
        for (name, exports) in tracepoints {
            frontend.define(name, exports.iter().copied());
        }
        for (i, text) in queries.iter().enumerate() {
            frontend
                .install_named(&format!("q{i}"), text)
                .expect("the live frontend installed the same text");
        }
        let commands = frontend.drain_commands();
        Shadow { frontend, commands }
    }

    pub fn agent(&self, procid: u64, budget: Option<QueryBudget>, retro: bool) -> Agent {
        let agent = Agent::new(ProcessInfo {
            host: "shadow-host".into(),
            procid,
            procname: "shadow".into(),
        });
        for cmd in &self.commands {
            agent.apply(cmd);
            if let (Command::Install(code), Some(budget)) = (cmd, budget) {
                agent.set_budget(code.id, budget);
            }
        }
        agent.set_retro(retro);
        agent
    }

    /// Programs woven at `tracepoint`, in weave order.
    fn programs_at(&self, tracepoint: &str) -> Vec<Arc<AdviceByteCode>> {
        self.commands
            .iter()
            .filter_map(|cmd| match cmd {
                Command::Install(code) => Some(code),
                _ => None,
            })
            .flat_map(|code| code.programs.iter())
            .filter(|p| p.tracepoints.iter().any(|t| t == tracepoint))
            .cloned()
            .collect()
    }
}

/// Passes per probe.
const PASSES: usize = 9;
const PASS: Duration = Duration::from_millis(30);

/// Runs every step for `PASS`, one after the other, `PASSES` times over,
/// and returns for each pass each step's mean nanoseconds per call; a
/// step makes `calls` calls. Steps that are compared with each other run
/// back to back within a pass, so a change in the machine's speed between
/// passes does not land in their difference.
fn passes(calls: u64, steps: &mut [&mut dyn FnMut()]) -> Vec<Vec<f64>> {
    (0..PASSES)
        .map(|_| {
            steps
                .iter_mut()
                .map(|step| {
                    let begin = Instant::now();
                    let mut done = 0u64;
                    while begin.elapsed() < PASS {
                        step();
                        done += calls;
                    }
                    begin.elapsed().as_nanos() as f64 / done as f64
                })
                .collect()
        })
        .collect()
}

/// Median over the passes of `f(pass)`.
fn over_passes(passes: &[Vec<f64>], f: impl Fn(&[f64]) -> f64) -> f64 {
    median(&mut passes.iter().map(|p| f(p)).collect::<Vec<f64>>())
}

/// `baggage.pack_ns`: one `FIRST` pack of a one-string tuple into a
/// fresh baggage, as Q1's client-side advice does.
pub fn pack_probe() -> Readings {
    let tuple = Tuple::from_iter([Value::str("client-00")]);
    let mut pack = || {
        for _ in 0..64 {
            let mut bag = Baggage::new();
            bag.pack(QueryId(99), &PackMode::First(1), [black_box(tuple.clone())]);
            black_box(&mut bag);
        }
    };
    let ns = over_passes(&passes(64, &mut [&mut pack]), |p| p[0]);
    vec![("baggage.pack_ns", ns)]
}

/// Invoke-side probes of the `svc_*` workloads at `KvShard.execute`,
/// the site every installed query runs at.
pub fn invoke_probes(
    shadow: &Shadow,
    budget: QueryBudget,
    workload_governed: bool,
    workload_retro: bool,
) -> Readings {
    const SITE: &str = "KvShard.execute";
    let programs = shadow.programs_at(SITE);
    if programs.is_empty() {
        return Vec::new();
    }
    // One baggage per client, in the state a request's baggage has at the
    // shard: packed at the client, serialized, strictly deserialized,
    // split and joined into a fresh scope.
    let prep = shadow.agent(90, None, false);
    let bags: Vec<Baggage> = (0..CLIENTS)
        .map(|c| {
            let mut bag = Baggage::new();
            if workload_retro {
                set_trace(&mut bag, c as u64 + 1);
            }
            prep.invoke(
                "KvClient.issueRequest",
                &mut bag,
                1,
                &[
                    ("client", Value::str(format!("client-{c:02}"))),
                    ("op", Value::str("get")),
                    ("key", Value::str("key-0001")),
                ],
            );
            let mut arrived =
                Baggage::try_from_bytes(&bag.to_bytes()).expect("own bytes decode strictly");
            let mut scoped = Baggage::new();
            scoped.join(arrived.split());
            scoped
        })
        .collect();
    let exports: Vec<[(&str, Value); 4]> = (0..4u64)
        .map(|i| {
            [
                ("shard", Value::U64(i % 2)),
                ("op", Value::str(if i < 3 { "get" } else { "put" })),
                ("bytes", Value::U64(if i == 0 { 0 } else { 64 * i })),
                ("hit", Value::Bool(i != 0)),
            ]
        })
        .collect();

    // `Agent::invoke` with no budgets and no hindsight, with budgets, with
    // hindsight, and with both; then the same programs through a bare
    // `Vm`, with the export set `Agent::invoke` assembles.
    let invoke = |governed: bool, retro: bool| {
        let agent = shadow.agent(91, governed.then_some(budget), retro);
        let mut bags = bags.clone();
        let mut now = 1u64;
        let exports = &exports;
        move || {
            for (i, bag) in bags.iter_mut().enumerate() {
                now += 1;
                agent.invoke(SITE, bag, now, &exports[i % 4]);
            }
        }
    };
    let (mut plain, mut governed) = (invoke(false, false), invoke(true, false));
    let (mut recorded, mut both) = (invoke(false, true), invoke(true, true));
    let full: Vec<Vec<(&str, Value)>> = exports
        .iter()
        .map(|e| {
            let mut full = vec![
                ("host", Value::str("shadow-host")),
                ("timestamp", Value::U64(1)),
                ("procid", Value::U64(91)),
                ("procname", Value::str("shadow")),
                ("tracepoint", Value::str(SITE)),
            ];
            full.extend(e.iter().cloned());
            full
        })
        .collect();
    let mut vm = Vm::new();
    let mut sink = CollectSink::default();
    let mut invokes = 0u64;
    let mut vm_bags = bags.clone();
    let mut bare_vm = || {
        for (i, bag) in vm_bags.iter_mut().enumerate() {
            for program in &programs {
                vm.run(program, &full[i % 4], bag, &mut sink);
            }
            sink.raw.clear();
            sink.grouped.clear();
            sink.triggers.clear();
        }
        invokes += CLIENTS as u64;
    };
    const VM: usize = 4;
    let timed = passes(
        CLIENTS as u64,
        &mut [
            &mut plain,
            &mut governed,
            &mut recorded,
            &mut both,
            &mut bare_vm,
        ],
    );
    let as_workload = usize::from(workload_governed) + 2 * usize::from(workload_retro);

    vec![
        (
            "core.invoke_probe_ns",
            over_passes(&timed, |p| p[as_workload]),
        ),
        ("query.vm_run_ns", over_passes(&timed, |p| p[VM])),
        (
            "core.invoke_self_ns",
            over_passes(&timed, |p| p[as_workload] - p[VM]),
        ),
        ("core.governor_ns", over_passes(&timed, |p| p[1] - p[0])),
        ("core.retro_record_ns", over_passes(&timed, |p| p[2] - p[0])),
        ("query.vm_ops_per_invoke", vm.ops() as f64 / invokes as f64),
    ]
}

/// Per-call timings of one probed function; small enough to keep whole
/// (a few thousand calls), so the report is a median, not a mean a cold
/// first call can skew.
#[derive(Default)]
struct Timer {
    ns: Vec<f64>,
}

impl Timer {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let begin = Instant::now();
        let out = f();
        self.ns.push(begin.elapsed().as_nanos() as f64);
        out
    }

    fn median_us(&mut self) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        median(&mut self.ns) / 1e3
    }

    fn total_ns(&self) -> f64 {
        self.ns.iter().fold(0.0, |sum, ns| sum + ns)
    }
}

/// Report-side probes: one reporting interval's journey, call by call —
/// `Agent::flush`, `encode_message`, a frame over loopback,
/// `decode_message`, `RelayCore::absorb` / `flush`, the columnar block
/// codec on the streaming rows, and `Frontend::accept`.
///
/// `feed` drives one interval's worth of events into the shadow agents.
pub fn report_probes(
    mut shadow: Shadow,
    agents: &[Agent],
    intervals: usize,
    mut feed: impl FnMut(&[Agent]),
) -> Readings {
    let relay = RelayCore::new(ProcessInfo {
        host: "shadow-relay".into(),
        procid: 1000,
        procname: "shadow-relay".into(),
    });
    for cmd in &shadow.commands {
        relay.observe(cmd);
    }
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback listener binds");
    let mut tx = TcpStream::connect(listener.local_addr().expect("listener has an address"))
        .expect("loopback connects");
    let (mut rx, _) = listener.accept().expect("loopback accepts");
    tx.set_nodelay(true).expect("nodelay");

    let (mut flush, mut encode, mut rtt, mut decode) = (
        Timer::default(),
        Timer::default(),
        Timer::default(),
        Timer::default(),
    );
    let (mut absorb, mut relay_flush, mut accept) =
        (Timer::default(), Timer::default(), Timer::default());
    let (mut block_encode, mut block_decode) = (Timer::default(), Timer::default());
    let (mut wire_bytes, mut tuples, mut block_rows, mut block_bytes) = (0u64, 0u64, 0u64, 0u64);

    for interval in 0..intervals {
        feed(agents);
        let now = interval as u64 + 1;
        for agent in agents {
            let reports = flush.time(|| agent.flush(now));
            if reports.is_empty() {
                // An agent with nothing to say (the KV client emits no
                // rows) would halve the median.
                flush.ns.pop();
            }
            for report in reports {
                tuples += report.tuples;
                let msg = Message::Report(report);
                let bytes = encode.time(|| encode_message(&msg));
                wire_bytes += bytes.len() as u64 + 4;
                let echoed = rtt.time(|| {
                    write_frame(&mut tx, &bytes).expect("loopback write");
                    read_frame(&mut rx).expect("loopback read")
                });
                let decoded = decode.time(|| decode_message(&echoed));
                let Ok(Message::Report(report)) = decoded else {
                    panic!("an encoded report decodes to a report");
                };
                absorb.time(|| relay.absorb(report));
            }
        }
        let merged: Vec<Report> = relay_flush.time(|| relay.flush(now));
        for report in merged {
            if let ReportRows::RawEncoded(blocks) = &report.rows {
                for block in blocks {
                    let rows = block_decode
                        .time(|| block.decode())
                        .expect("an agent's block decodes");
                    let again = block_encode.time(|| EncodedBlock::encode(&rows));
                    block_rows += rows.len() as u64;
                    block_bytes += again.encoded_len() as u64;
                }
            }
            accept.time(|| shadow.frontend.accept(report));
        }
    }
    let per_row = |t: &Timer| t.total_ns() / block_rows.max(1) as f64;
    vec![
        ("core.flush_us", flush.median_us()),
        ("live.encode_us", encode.median_us()),
        ("live.frame_rtt_us", rtt.median_us()),
        ("live.decode_us", decode.median_us()),
        ("relay.absorb_us", absorb.median_us()),
        ("relay.flush_us", relay_flush.median_us()),
        ("core.accept_us", accept.median_us()),
        (
            "live.report_bytes_per_tuple",
            wire_bytes as f64 / tuples.max(1) as f64,
        ),
        ("model.colblock_encode_ns_per_row", per_row(&block_encode)),
        ("model.colblock_decode_ns_per_row", per_row(&block_decode)),
        (
            "model.colblock_bytes_per_row",
            block_bytes as f64 / block_rows.max(1) as f64,
        ),
    ]
}
