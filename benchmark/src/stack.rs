//! Set-up common to all workloads: a `LiveFrontend`, one `RelayServer`
//! and `LiveAgent`s on loopback, with every query woven before the call
//! returns.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pivot_core::{Agent, ProcessInfo, QueryBudget, QueryHandle};
use pivot_live::{LiveAgent, LiveFrontend};
use pivot_relay::live::RelayServer;

use crate::Metrics;

const WAIT: Duration = Duration::from_secs(20);

/// What a workload asks the tracer to run.
pub struct StackSpec {
    /// Tracepoints: name and exports.
    pub tracepoints: &'static [(&'static str, &'static [&'static str])],
    /// Queries, installed in order as `q0`, `q1`, ...
    pub queries: &'static [&'static str],
    /// A finite budget for every query, or none.
    pub budget: Option<QueryBudget>,
    /// `procname` of each agent.
    pub agents: Vec<String>,
    /// Agent and relay reporting interval.
    pub interval: Duration,
    pub retro: bool,
}

pub struct Stack {
    // Field order is drop order: leaves first, so every close is orderly.
    pub agents: Vec<LiveAgent>,
    pub relay: RelayServer,
    pub frontend: LiveFrontend,
    pub handles: Vec<QueryHandle>,
    /// Time spent in `Frontend::install` (parse, compile, verify, lower).
    pub install_time: Duration,
    /// Time from the first call until every agent had woven every query.
    pub setup_time: Duration,
}

impl Stack {
    /// Brings the whole stack up. Queries are installed before the relay
    /// and the agents connect, so each tier converges on its first `Sync`
    /// frame and the waits below are on `wait_for_epoch` /
    /// `wait_for_agents` alone, with no fixed sleeps.
    pub fn start(spec: &StackSpec) -> Stack {
        let begin = Instant::now();
        let mut frontend = LiveFrontend::start().expect("frontend binds a loopback port");
        for (name, exports) in spec.tracepoints {
            frontend.define(name, exports.iter().copied());
        }
        let install_begin = Instant::now();
        let handles: Vec<QueryHandle> = spec
            .queries
            .iter()
            .enumerate()
            .map(|(i, text)| {
                frontend
                    .install_named(&format!("q{i}"), text)
                    .unwrap_or_else(|e| panic!("query {i} installs: {e}"))
            })
            .collect();
        let install_time = install_begin.elapsed();
        if let Some(budget) = spec.budget {
            for handle in &handles {
                frontend.set_budget(handle, budget);
            }
        }

        let relay = RelayServer::start(
            frontend.addr(),
            info("bench-relay", 1000, "pivot-relay"),
            spec.interval,
        )
        .expect("relay connects upstream");
        assert!(frontend.bus().wait_for_relays(1, WAIT), "relay registers");
        assert!(
            relay.wait_for_epoch(frontend.bus().epoch(), WAIT),
            "relay syncs to the frontend's epoch"
        );

        let agents: Vec<LiveAgent> = spec
            .agents
            .iter()
            .enumerate()
            .map(|(i, procname)| {
                LiveAgent::connect(
                    relay.addr(),
                    info("bench-host", i as u64 + 1, procname),
                    spec.interval,
                )
                .expect("agent connects to the relay")
            })
            .collect();
        assert!(
            relay.downstream().wait_for_agents(agents.len(), WAIT),
            "agents register"
        );
        // The relay proxies its upstream `Sync` downstream as epoch 1, so
        // an agent at epoch >= 1 holds the full query and budget set.
        for agent in &agents {
            assert!(agent.wait_for_epoch(1, WAIT), "agent syncs");
            for handle in &handles {
                assert!(
                    agent.agent().registry().has_query(handle.id),
                    "{} is woven",
                    handle.name
                );
                assert_eq!(
                    agent.agent().budget_for(handle.id).is_some(),
                    spec.budget.is_some()
                );
            }
            agent.agent().set_retro(spec.retro);
        }
        Stack {
            agents,
            relay,
            frontend,
            handles,
            install_time,
            setup_time: begin.elapsed(),
        }
    }

    pub fn agent(&self, i: usize) -> Arc<Agent> {
        Arc::clone(self.agents[i].agent())
    }

    /// Adds the counts (C) this stack's `AgentStats`, `RetroCounters` and
    /// `RelayStats` hold to `m`; `report_fanin` sums them over the stacks
    /// it goes through.
    pub fn add_counts(&self, m: &mut Metrics) {
        let mut add =
            |name: &'static str, count: u64| *m.entry(name).or_insert(0.0) += count as f64;
        for agent in &self.agents {
            let stats = agent.agent().stats();
            let retro = agent.agent().retro_counters();
            add("core.advised_invocations", stats.advised_invocations);
            add("core.tuples_emitted", stats.tuples_emitted);
            add("core.tuples_packed", stats.tuples_packed);
            add("core.rows_reported", stats.rows_reported);
            add("core.retro_recorded", retro.recorded);
            add("core.retro_flushed", retro.flushed);
        }
        let relay = self.relay.stats();
        add("relay.reports_in", relay.reports_in);
        add("relay.reports_out", relay.reports_out);
        add("relay.tuples_in", relay.tuples_in);
        add("relay.tuples_out", relay.tuples_out);
        add("relay.retro_in", relay.retro_in);
        add("relay.retro_out", relay.retro_out);
    }
}

fn info(host: &str, procid: u64, procname: &str) -> ProcessInfo {
    ProcessInfo {
        host: host.to_owned(),
        procid,
        procname: procname.to_owned(),
    }
}

/// Sets the stack up `times` times and keeps the last; returns it with
/// the median set-up and install times in seconds.
pub fn start_measured(spec: &StackSpec, times: usize) -> (Stack, f64, f64) {
    let mut setups = Vec::with_capacity(times);
    let mut installs = Vec::with_capacity(times);
    let mut stack = Stack::start(spec);
    for _ in 1..times {
        setups.push(stack.setup_time.as_secs_f64());
        installs.push(stack.install_time.as_secs_f64());
        drop(stack);
        stack = Stack::start(spec);
    }
    setups.push(stack.setup_time.as_secs_f64());
    installs.push(stack.install_time.as_secs_f64());
    (
        stack,
        crate::median(&mut setups),
        crate::median(&mut installs),
    )
}
