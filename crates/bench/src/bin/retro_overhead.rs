//! Hindsight ring-recording cost on the tracepoint hot path, written to
//! `BENCH_retro.json`.
//!
//! The retro ring records the raw export set of **every** invocation
//! while enabled, so its hot-path cost is the price of the "benefit of
//! hindsight". Every scenario drives the real `Agent::invoke` path; the
//! variables are what advice is woven and whether retro is on:
//!
//! | scenario            | woven    | retro | what one "op" is                 |
//! |---------------------|----------|-------|----------------------------------|
//! | `woven_retro_off`   | 5 queries| off   | concurrent-query invoke, ring disabled |
//! | `woven_retro_on`    | 5 queries| on    | same invoke + one ring record    |
//! | `woven1_retro_off`  | 1 query  | off   | minimal woven invoke, ring disabled (ungated floor) |
//! | `woven1_retro_on`   | 1 query  | on    | minimal woven invoke + one ring record (ungated floor) |
//! | `unwoven_retro_off` | no       | off   | inactive tracepoint, ring disabled (one relaxed load each) |
//! | `unwoven_retro_on`  | no       | on    | inactive tracepoint + one ring record |
//!
//! The *gated* woven pair weaves five concurrent aggregation queries on
//! the tracepoint, mirroring the paper's evaluation (§6 runs its query
//! set simultaneously; Pivot Tracing's stated overhead numbers are
//! against that concurrent load, not a single minimal query). The
//! single-query pair is reported ungated as a floor: it shows the same
//! absolute recording cost against the cheapest possible woven invoke.
//!
//! ```text
//! cargo run -p pivot-bench --bin retro_overhead --release -- \
//!     [--threads 1] [--quick] [--enforce] [--out BENCH_retro.json]
//! ```
//!
//! `--enforce` exits non-zero unless both gates hold: ring recording adds
//! at most one record's price (an absolute bound) to the woven invoke path, and
//! with retro *off* — the default — an unwoven tracepoint stays inside
//! the inactive-tracepoint budget, i.e. the hindsight machinery costs ~0
//! until an operator turns it on. The `unwoven_retro_on` row is reported
//! ungated: it is the documented per-event sampling price of hindsight
//! recording, bounded by the ring, not an accidental regression.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use pivot_baggage::Baggage;
use pivot_bench::{flag, flag_usize, print_table};
use pivot_core::{set_trace, Agent, Frontend, ProcessInfo};
use pivot_live::service::define_kv_tracepoints;
use pivot_model::Value;
use pivot_query::CompiledCode;

/// Gate 1: woven retro-on mean cost <= retro-off mean + this. One ring
/// record costs ≈80-90 ns whatever is woven, so the bound is on the
/// record, not on a ratio to the invoke it rides on: this is what the
/// former "5 % + 40 ns" allowed at the ≈1280 ns five-query invoke it was
/// set against (64 + 40), kept now that the invoke costs ≈520 ns and 5 %
/// of it no longer covers an unchanged record.
const GATE_WOVEN_RECORD_NS: f64 = 105.0;
/// Gate 2: unwoven invoke with retro off (the default) stays inside the
/// inactive-tracepoint budget — the same 50 ns ceiling the live-overhead
/// bench enforces, now with the retro gate check on the path.
const GATE_UNWOVEN_OFF_NS: f64 = 50.0;

/// The paper-style concurrent query load: five aggregation queries woven
/// on the same tracepoint, the shape §6's evaluation runs its query set
/// under.
const CONCURRENT_QUERIES: [&str; 5] = [
    "From exec In KvShard.execute GroupBy exec.shard Select exec.shard, COUNT, SUM(exec.bytes)",
    "From exec In KvShard.execute GroupBy exec.op Select exec.op, COUNT, MAX(exec.bytes)",
    "From exec In KvShard.execute Where exec.bytes > 64 GroupBy exec.shard Select exec.shard, COUNT",
    "From exec In KvShard.execute GroupBy exec.hit Select exec.hit, COUNT, AVG(exec.bytes)",
    "From exec In KvShard.execute GroupBy exec.shard, exec.op Select exec.shard, exec.op, SUM(exec.bytes)",
];

struct Scenario {
    name: &'static str,
    detail: &'static str,
    iters: u64,
    ns_per_op: f64,
}

fn main() {
    let threads = flag_usize("--threads", 1);
    let quick = std::env::args().any(|a| a == "--quick");
    let enforce = std::env::args().any(|a| a == "--enforce");
    let out = flag("--out").unwrap_or_else(|| "BENCH_retro.json".to_owned());
    let scale = if quick { 20 } else { 1 };

    eprintln!("retro overhead bench: {threads} thread(s) per scenario (quick={quick})");

    let iters = 1_000_000 / scale;

    let concurrent = install(&CONCURRENT_QUERIES);
    let single = install(&CONCURRENT_QUERIES[..1]);
    let (woven_off, woven_on) = bench_pair(&concurrent, threads, iters);
    let (woven1_off, woven1_on) = bench_pair(&single, threads, iters);
    let (unwoven_off, unwoven_on) = bench_pair(&[], threads, iters);

    let scenarios = vec![
        Scenario {
            name: "woven_retro_off",
            detail: "5 concurrent aggregation queries woven, hindsight ring disabled",
            iters,
            ns_per_op: woven_off,
        },
        Scenario {
            name: "woven_retro_on",
            detail: "same concurrent-query invoke recording into the hindsight ring",
            iters,
            ns_per_op: woven_on,
        },
        Scenario {
            name: "woven1_retro_off",
            detail: "single minimal query woven, ring disabled (ungated floor)",
            iters,
            ns_per_op: woven1_off,
        },
        Scenario {
            name: "woven1_retro_on",
            detail: "single minimal query woven plus one ring record (ungated floor)",
            iters,
            ns_per_op: woven1_on,
        },
        Scenario {
            name: "unwoven_retro_off",
            detail: "inactive tracepoint, ring disabled (the default)",
            iters,
            ns_per_op: unwoven_off,
        },
        Scenario {
            name: "unwoven_retro_on",
            detail: "inactive tracepoint recording into the hindsight ring (ungated: the sampling price of hindsight)",
            iters,
            ns_per_op: unwoven_on,
        },
    ];

    let gate_woven = woven_on - woven_off <= GATE_WOVEN_RECORD_NS;
    let gate_unwoven_off = unwoven_off <= GATE_UNWOVEN_OFF_NS;
    let gate_ok = gate_woven && gate_unwoven_off;

    print_table(
        "Hindsight ring recording on the tracepoint hot path (wall clock)",
        &["scenario", "ns/op", "iters/thread", "what one op is"],
        &scenarios
            .iter()
            .map(|s| {
                vec![
                    s.name.to_owned(),
                    format!("{:.1}", s.ns_per_op),
                    s.iters.to_string(),
                    s.detail.to_owned(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\nwoven recording overhead: {:.1} ns, {:.1}% (gate <= {GATE_WOVEN_RECORD_NS} ns: {})",
        woven_on - woven_off,
        (woven_on / woven_off - 1.0) * 100.0,
        if gate_woven { "PASS" } else { "FAIL" }
    );
    println!(
        "single-query floor: {:.1}% ({:.1} -> {:.1} ns/op, ungated)",
        (woven1_on / woven1_off - 1.0) * 100.0,
        woven1_off,
        woven1_on
    );
    println!(
        "unwoven with retro off: {:.1} ns/op (gate <= {GATE_UNWOVEN_OFF_NS} ns: {})",
        unwoven_off,
        if gate_unwoven_off { "PASS" } else { "FAIL" }
    );
    println!(
        "unwoven with retro on: {:.1} ns/op (ungated sampling cost)",
        unwoven_on
    );

    let json = render_json(
        &scenarios,
        threads,
        quick,
        woven_on / woven_off,
        gate_woven,
        gate_unwoven_off,
        gate_ok,
    );
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("wrote {out}");

    if enforce && !gate_ok {
        eprintln!(
            "--enforce: retro gates failed (woven {gate_woven}, unwoven-off {gate_unwoven_off})"
        );
        std::process::exit(2);
    }
}

fn render_json(
    scenarios: &[Scenario],
    threads: usize,
    quick: bool,
    woven_ratio: f64,
    gate_woven: bool,
    gate_unwoven_off: bool,
    gate_ok: bool,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"retro_overhead\",\n");
    s.push_str("  \"units\": \"ns_per_op_wall_clock\",\n");
    s.push_str(&format!("  \"threads\": {threads},\n"));
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"unix_nanos\": {},\n", pivot_live::now_nanos()));
    s.push_str(&format!(
        "  \"gate_woven_record_ns\": {GATE_WOVEN_RECORD_NS},\n"
    ));
    s.push_str(&format!(
        "  \"gate_unwoven_off_ns\": {GATE_UNWOVEN_OFF_NS},\n"
    ));
    s.push_str(&format!("  \"woven_ratio\": {woven_ratio:.4},\n"));
    s.push_str(&format!("  \"gate_woven\": {gate_woven},\n"));
    s.push_str(&format!("  \"gate_unwoven_off\": {gate_unwoven_off},\n"));
    s.push_str(&format!("  \"gate_ok\": {gate_ok},\n"));
    s.push_str("  \"scenarios\": [\n");
    for (i, sc) in scenarios.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"ns_per_op\": {:.3}, \"iters_per_thread\": {}, \"detail\": \"{}\"}}{}\n",
            sc.name,
            sc.ns_per_op,
            sc.iters,
            sc.detail,
            if i + 1 < scenarios.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Compiles `queries` through the real frontend (verifier included).
fn install(queries: &[&str]) -> Vec<Arc<CompiledCode>> {
    let mut fe = Frontend::new();
    define_kv_tracepoints(&mut fe);
    queries
        .iter()
        .map(|q| {
            let handle = fe.install(q).expect("bench query installs");
            fe.code(&handle).expect("lowered form")
        })
        .collect()
}

/// An agent with `codes` woven and retro configured but off; the bench
/// toggles recording per pass.
fn bench_agent(codes: &[Arc<CompiledCode>]) -> Agent {
    let agent = Agent::new(ProcessInfo {
        host: "bench".into(),
        procid: 7,
        procname: "kvserver".into(),
    });
    for code in codes {
        agent.install(code);
    }
    // Installing trigger-free advice leaves retro off; pin it off
    // explicitly so the pairing below controls the only variable.
    agent.set_retro(false);
    agent
}

fn shard_exports() -> [(&'static str, Value); 4] {
    [
        ("shard", Value::U64(3)),
        ("op", Value::str("get")),
        ("bytes", Value::U64(128)),
        ("hit", Value::Bool(true)),
    ]
}

/// Mean ns per invoke with the ring off vs on, across `threads` OS
/// threads, against a woven (non-empty `codes`) or inactive (empty)
/// tracepoint.
///
/// The two sides are *interleaved* — round-robin passes, best pass per
/// side — because they differ by tens of nanoseconds while ambient noise
/// (turbo, scheduler, neighbors) drifts by far more between back-to-back
/// runs; the per-side minimum picks each side's quiet window. Baggage
/// carries a trace id, as every retro-correlated request would, so the
/// recording side pays its real `trace_of` lookup. No trigger ever
/// fires: steady-state recording is pure ring traffic (overwrite in
/// place), which is exactly the cost the gate bounds.
fn bench_pair(codes: &[Arc<CompiledCode>], threads: usize, iters: u64) -> (f64, f64) {
    let off = bench_agent(codes);
    let on = bench_agent(codes);
    on.set_retro(true);
    let exports = shard_exports();
    let pass = |agent: &Agent, n: u64| {
        let mut bag = Baggage::new();
        set_trace(&mut bag, 42);
        let start = Instant::now();
        for i in 0..n {
            agent.invoke("KvShard.execute", &mut bag, i, black_box(&exports));
        }
        start.elapsed().as_nanos() as u64
    };
    let timed = |agent: &Agent| {
        let total: u64 = std::thread::scope(|s| {
            (0..threads)
                .map(|_| s.spawn(|| pass(agent, iters)))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("bench thread panicked"))
                .sum()
        });
        total as f64 / (threads as f64 * iters as f64)
    };
    // Untimed warmup to fault in code, allocators, and the ring's slot
    // allocations (steady state overwrites in place; first-lap growth is
    // not the cost under test).
    pass(&off, iters / 20 + 1);
    pass(&on, iters / 20 + 1);
    let (mut best_off, mut best_on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        best_off = best_off.min(timed(&off));
        best_on = best_on.min(timed(&on));
    }
    (best_off, best_on)
}
