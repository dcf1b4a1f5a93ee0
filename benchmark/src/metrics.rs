//! The benchmark's contract: workload and metric names, units, bounds.
//! `BENCHMARK.json` at the repo root is generated from these tables
//! (`manifest` subcommand) and a test keeps the two equal.

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "svc_unwoven",
        why: "bypass: KV request path with nothing installed; floor of idle tracepoints, scopes and empty baggage",
    },
    Workload {
        name: "svc_q1",
        why: "baggage-bound: Q1 happened-before join woven alone; pack, two serialize/deserialize edges, split/join (Table 5)",
    },
    Workload {
        name: "svc_5q_retro",
        why: "advice-bound: five governed queries plus hindsight ring; VM, governor, retro, invoke mutexes (Fig 10). One worker: lock contention is not gated, two workers spread 4-19 % here (core.invoke_scaling)",
    },
    Workload {
        name: "report_fanin",
        why: "report path: 16 agents flush batched grouped+streaming rows through a relay to the frontend over TCP",
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// An operation is a request on `svc_*` and a tuple on `report_fanin`;
/// a latency is one whole request on `svc_*` and a round's visible lag
/// (first `flush_now` until all its tuples show at the frontend) on
/// `report_fanin`.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_kop",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Sources: (S) span self time in the traced run, per request on `svc_*`
/// and per round on `report_fanin`; (C) a count read from the system's own
/// statistics; (P) a probe loop on a deeper public function, fed the
/// inputs the workload generates. A metric that does not apply to a
/// workload reads 0 there.
pub const PER_LAYER: &[PerLayer] = &[
    // baggage
    lower("baggage.serialize_ns", "ns"),
    lower("baggage.deserialize_ns", "ns"),
    lower("baggage.split_join_ns", "ns"),
    lower("baggage.pack_ns", "ns"),
    lower("baggage.header_bytes", "B"),
    // live, request side
    lower("live.tracepoint_idle_ns", "ns"),
    lower("live.scope_ns", "ns"),
    // core, invoke
    lower("core.invoke_client_ns", "ns"),
    lower("core.invoke_receive_ns", "ns"),
    lower("core.invoke_shard_ns", "ns"),
    lower("core.invoke_respond_ns", "ns"),
    lower("core.set_trace_ns", "ns"),
    lower("core.retro_trigger_ns", "ns"),
    lower("core.invoke_probe_ns", "ns"),
    lower("core.invoke_self_ns", "ns"),
    higher("core.invoke_scaling", "x"),
    higher("svc.two_worker_ops_per_s", "1/s"),
    lower("core.governor_ns", "ns"),
    lower("core.retro_record_ns", "ns"),
    higher("core.advised_invocations", "count"),
    higher("core.tuples_emitted", "count"),
    higher("core.tuples_packed", "count"),
    lower("core.tuples_shed", "count"),
    higher("core.retro_recorded", "count"),
    higher("core.retro_flushed", "count"),
    lower("core.lost_tuples", "count"),
    // query
    lower("query.vm_run_ns", "ns"),
    lower("query.vm_ops_per_invoke", "count"),
    lower("query.install_ms", "ms"),
    // core, report side
    lower("core.invoke_batch_ns_per_event", "ns"),
    lower("core.flush_us", "us"),
    lower("core.accept_us", "us"),
    higher("core.rows_reported", "count"),
    // live, wire
    lower("live.agent_flush_us", "us"),
    lower("live.poll_us", "us"),
    lower("live.encode_us", "us"),
    lower("live.decode_us", "us"),
    lower("live.frame_rtt_us", "us"),
    lower("live.report_bytes_per_tuple", "B"),
    // model
    lower("model.colblock_encode_ns_per_row", "ns"),
    lower("model.colblock_decode_ns_per_row", "ns"),
    lower("model.colblock_bytes_per_row", "B"),
    // relay
    lower("relay.pull_now_us", "us"),
    lower("relay.flush_now_us", "us"),
    lower("relay.absorb_us", "us"),
    lower("relay.flush_us", "us"),
    higher("relay.fanin_ratio", "x"),
    higher("relay.reports_in", "count"),
    higher("relay.reports_out", "count"),
    higher("relay.tuples_in", "count"),
    higher("relay.tuples_out", "count"),
    higher("relay.retro_in", "count"),
    higher("relay.retro_out", "count"),
    // the benchmark itself
    lower("gen.self_ns", "ns"),
    lower("wait.visible_ms", "ms"),
    lower("lat_p90_us", "us"),
    lower("lat_p99_us", "us"),
    lower("cpu.background_us_per_kop", "us"),
    higher("window.ops_per_s", "1/s"),
    higher("window.slowest_slice_share", "share"),
    lower("trace.root_ns", "ns"),
    lower("trace.layers_sum_ns", "ns"),
    higher("trace.traced_ops_per_s", "1/s"),
    lower("trace.overhead_share", "share"),
    higher("trace.spans", "count"),
    lower("trace.empty_span_ns", "ns"),
];

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest(run_seconds: u64) -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    let list = |items: Vec<String>| items.join(",\n");
    s.push_str("  \"workloads\": [\n");
    s.push_str(&list(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    ));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    s.push_str(&list(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.bound
                )
            })
            .collect(),
    ));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    s.push_str(&list(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                )
            })
            .collect(),
    ));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| valid_name(n)));
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");

        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let run_seconds: u64 = on_disk
            .split("\"run_seconds\":")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|n| n.trim().parse().ok())
            .expect("run_seconds is a whole number");
        assert_eq!(on_disk, manifest(run_seconds));
    }
}
