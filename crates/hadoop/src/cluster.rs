//! Hosts, the network fabric, and Pivot Tracing wiring.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use pivot_core::frontend::InstallError;
use pivot_core::{Agent, Bus, Command, Drained, Frontend, ProcessInfo, QueryHandle};
use pivot_simrt::{join2, Clock, Counter, FifoResource, Nanos, SimRt};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::tracepoints;

/// One megabyte, the unit for sizes throughout the simulation.
pub const MB: f64 = 1024.0 * 1024.0;

/// Cluster construction parameters.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of worker hosts (`host-A`…; the paper uses 8). A NameNode
    /// host is always appended after the workers.
    pub workers: usize,
    /// RNG seed for placement and workloads.
    pub seed: u64,
    /// Disk bandwidth per host, bytes/sec.
    pub disk_rate: f64,
    /// NIC bandwidth per direction per host, bytes/sec (1 Gbit default).
    pub nic_rate: f64,
    /// IO chunk size in bytes (tracepoint granularity).
    pub chunk: f64,
    /// Reproduce the HDFS-6268 replica-ordering bug (paper §6.1).
    pub replica_bug: bool,
    /// Agent reporting interval in seconds (paper default: 1 s).
    pub report_interval: f64,
    /// Compile queries with the Table 3 optimizer (off = the paper's
    /// unoptimized baseline, for the ablation benches).
    pub optimize_queries: bool,
    /// Extra per-operation disk positioning cost, expressed in bytes of
    /// equivalent transfer (seek + protocol overhead for random IO).
    pub seek_bytes: f64,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            workers: 8,
            seed: 42,
            disk_rate: 120.0 * MB,
            nic_rate: 125.0 * MB,
            chunk: 4.0 * MB,
            replica_bug: false,
            report_interval: 1.0,
            optimize_queries: true,
            seek_bytes: 1.0 * MB,
        }
    }
}

impl ClusterConfig {
    /// A small 4-worker cluster for tests and the quickstart example.
    pub fn small(seed: u64) -> ClusterConfig {
        ClusterConfig {
            workers: 4,
            seed,
            ..ClusterConfig::default()
        }
    }
}

/// A simulated machine: two NIC directions, one disk, and utilization
/// counters (the "machine-level metrics" the paper's case studies consult
/// out-of-band, e.g. Figure 8b and Figure 9c).
pub struct Host {
    /// Host index in the cluster (workers first, NameNode host last).
    pub idx: usize,
    /// Host name (`host-A` … / `host-NN`).
    pub name: String,
    /// Ingress NIC bandwidth.
    pub nic_in: FifoResource,
    /// Egress NIC bandwidth.
    pub nic_out: FifoResource,
    /// Local disk.
    pub disk: FifoResource,
    /// Bytes sent (time series).
    pub net_tx: Counter,
    /// Bytes received (time series).
    pub net_rx: Counter,
    /// Bytes read from disk (time series).
    pub disk_read: Counter,
    /// Bytes written to disk (time series).
    pub disk_write: Counter,
}

/// Worker host names follow the paper: `host-A` … `host-H`.
pub fn worker_name(idx: usize) -> String {
    let letter = (b'A' + (idx % 26) as u8) as char;
    format!("host-{letter}")
}

/// The simulated cluster: hosts, virtual-time runtime, and the Pivot
/// Tracing control plane (frontend + per-process agents + reporters).
pub struct Cluster {
    /// The discrete-event runtime.
    pub rt: SimRt,
    /// The virtual clock.
    pub clock: Clock,
    /// Construction parameters.
    pub cfg: ClusterConfig,
    /// Worker hosts followed by the NameNode host.
    pub hosts: Vec<Rc<Host>>,
    /// The Pivot Tracing frontend.
    pub frontend: Rc<RefCell<Frontend>>,
    agents: Rc<RefCell<Vec<Arc<Agent>>>>,
    agents_enabled: std::cell::Cell<bool>,
    next_procid: std::cell::Cell<u64>,
    /// Shared deterministic RNG.
    pub rng: Rc<RefCell<SmallRng>>,
    /// Baggage bytes observed on RPC envelopes (time series; feeds the
    /// optimizer ablation).
    pub baggage_bytes: Counter,
}

impl Cluster {
    /// Builds the cluster: hosts, tracepoint vocabulary, and the reporting
    /// loop that flushes agents to the frontend every interval.
    pub fn new(cfg: ClusterConfig) -> Rc<Cluster> {
        let rt = SimRt::new();
        let clock = rt.clock();
        let mut hosts = Vec::new();
        for idx in 0..=cfg.workers {
            let name = if idx == cfg.workers {
                "host-NN".to_owned()
            } else {
                worker_name(idx)
            };
            hosts.push(Rc::new(Host {
                idx,
                name: name.clone(),
                nic_in: FifoResource::new(clock.clone(), format!("{name}/nic-in"), cfg.nic_rate),
                nic_out: FifoResource::new(clock.clone(), format!("{name}/nic-out"), cfg.nic_rate),
                disk: FifoResource::new(clock.clone(), format!("{name}/disk"), cfg.disk_rate),
                net_tx: Counter::new(clock.clone()),
                net_rx: Counter::new(clock.clone()),
                disk_read: Counter::new(clock.clone()),
                disk_write: Counter::new(clock.clone()),
            }));
        }
        let mut frontend = if cfg.optimize_queries {
            Frontend::new()
        } else {
            Frontend::new_unoptimized()
        };
        tracepoints::define_all(&mut frontend);
        let cluster = Rc::new(Cluster {
            clock: clock.clone(),
            cfg,
            hosts,
            frontend: Rc::new(RefCell::new(frontend)),
            agents: Rc::new(RefCell::new(Vec::new())),
            agents_enabled: std::cell::Cell::new(true),
            next_procid: std::cell::Cell::new(1),
            rng: Rc::new(RefCell::new(SmallRng::seed_from_u64(42))),
            baggage_bytes: Counter::new(clock),
            rt,
        });
        cluster
            .rng
            .replace(SmallRng::seed_from_u64(cluster.cfg.seed));
        cluster.spawn_reporter();
        cluster
    }

    fn spawn_reporter(self: &Rc<Cluster>) {
        let clock = self.clock.clone();
        let agents = Rc::clone(&self.agents);
        let frontend = Rc::clone(&self.frontend);
        let interval = Clock::secs(self.cfg.report_interval);
        self.rt.spawn(async move {
            loop {
                clock.sleep(interval).await;
                let now = clock.now();
                let list = agents.borrow().clone();
                let mut fe = frontend.borrow_mut();
                for agent in &list {
                    for report in agent.flush(now) {
                        fe.accept(report);
                    }
                }
            }
        });
    }

    /// Creates (and registers) the agent of a new simulated process.
    pub fn new_agent(&self, host: &Rc<Host>, procname: &str) -> Arc<Agent> {
        let procid = self.next_procid.get();
        self.next_procid.set(procid + 1);
        let agent = Arc::new(Agent::new(ProcessInfo {
            host: host.name.clone(),
            procid,
            procname: procname.to_owned(),
        }));
        // Weave already-installed queries into the newcomer.
        for compiled in self.frontend.borrow().installed() {
            agent.install(&compiled);
        }
        if !self.agents_enabled.get() {
            agent.set_enabled(false);
        }
        self.agents.borrow_mut().push(Arc::clone(&agent));
        agent
    }

    /// Installs a query and broadcasts its advice to every agent.
    pub fn install(&self, text: &str) -> Result<QueryHandle, InstallError> {
        let handle = self.frontend.borrow_mut().install(text)?;
        self.broadcast();
        Ok(handle)
    }

    /// Installs a query under a fixed name (referencable by later queries).
    pub fn install_named(&self, name: &str, text: &str) -> Result<QueryHandle, InstallError> {
        let handle = self.frontend.borrow_mut().install_named(name, text)?;
        self.broadcast();
        Ok(handle)
    }

    /// Uninstalls a query everywhere.
    pub fn uninstall(&self, handle: &QueryHandle) {
        self.frontend.borrow_mut().uninstall(handle);
        self.broadcast();
    }

    fn broadcast(&self) {
        let cmds = self.frontend.borrow_mut().drain_commands();
        for cmd in &cmds {
            Bus::broadcast(self, cmd);
        }
    }

    /// Flushes all agents into the frontend immediately (used at the end
    /// of an experiment to collect the final partial interval).
    pub fn flush_now(&self) {
        let now = self.clock.now();
        let mut fe = self.frontend.borrow_mut();
        self.pump_into(now, &mut fe);
    }

    /// Returns the worker hosts (excludes the NameNode host).
    pub fn workers(&self) -> &[Rc<Host>] {
        &self.hosts[..self.cfg.workers]
    }

    /// Returns the NameNode host.
    pub fn nn_host(&self) -> &Rc<Host> {
        &self.hosts[self.cfg.workers]
    }

    /// Hard-enables or -disables every agent (including ones created
    /// later). The "unmodified system" baseline of Table 5.
    pub fn set_agents_enabled(&self, enabled: bool) {
        self.agents_enabled.set(enabled);
        for a in self.agents.borrow().iter() {
            a.set_enabled(enabled);
        }
    }

    /// Sums per-process advice-execution counters across all agents.
    pub fn agent_totals(&self) -> pivot_core::agent::AgentStats {
        let mut total = pivot_core::agent::AgentStats::default();
        for a in self.agents.borrow().iter() {
            let s = a.stats();
            total.idle_invocations += s.idle_invocations;
            total.advised_invocations += s.advised_invocations;
            total.tuples_packed += s.tuples_packed;
            total.tuples_emitted += s.tuples_emitted;
            total.rows_reported += s.rows_reported;
        }
        total
    }
}

/// The simulated cluster *is* a [`Bus`]: commands reach every simulated
/// process's agent and flushing collects their partial reports, making the
/// control plane interchangeable with [`pivot_core::LocalBus`] and the
/// live TCP bus.
impl Bus for Cluster {
    fn broadcast(&self, cmd: &Command) {
        // Clone out of the RefCell first: advice may re-enter the cluster.
        let agents = self.agents.borrow().clone();
        pivot_core::bus::broadcast_to_agents(&agents, cmd);
    }

    fn drain(&self, now: u64) -> Drained {
        let agents = self.agents.borrow().clone();
        Drained {
            reports: pivot_core::bus::flush_agents(&agents, now),
            ..Drained::default()
        }
    }
}

/// Moves `bytes` from `src` to `dst` over both NICs (concurrently, as a
/// real cut-through transfer would), counting utilization. Loopback
/// traffic bypasses the NICs. Returns the transfer latency.
pub async fn transfer(clock: &Clock, src: &Rc<Host>, dst: &Rc<Host>, bytes: f64) -> Nanos {
    const PROPAGATION: Nanos = 100_000; // 100 µs switch + stack latency
    if src.idx == dst.idx {
        clock.sleep(20_000).await;
        return 20_000;
    }
    let start = clock.now();
    clock.sleep(PROPAGATION).await;
    join2(src.nic_out.acquire(bytes), dst.nic_in.acquire(bytes)).await;
    // Count on completion: throughput is delivered bytes, so a saturated
    // link reads as pinned at its capacity (paper Figure 9c).
    src.net_tx.add(bytes);
    dst.net_rx.add(bytes);
    clock.now() - start
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_hosts_with_names() {
        let c = Cluster::new(ClusterConfig::default());
        assert_eq!(c.hosts.len(), 9);
        assert_eq!(c.workers().len(), 8);
        assert_eq!(c.hosts[0].name, "host-A");
        assert_eq!(c.hosts[7].name, "host-H");
        assert_eq!(c.nn_host().name, "host-NN");
    }

    #[test]
    fn transfer_uses_both_nics_and_counts() {
        let c = Cluster::new(ClusterConfig::small(1));
        let src = Rc::clone(&c.hosts[0]);
        let dst = Rc::clone(&c.hosts[1]);
        let clock = c.clock.clone();
        let h =
            c.rt.spawn(async move { transfer(&clock, &src, &dst, 125.0 * MB).await });
        // The reporter loop never terminates, so run bounded.
        c.rt.run_for_secs(10.0);
        let lat = h.try_take().unwrap();
        // 125 MB at 125 MB/s ≈ 1 s (+0.1 ms propagation).
        assert!((1_000_000_000..1_010_000_000).contains(&lat), "{lat}");
        assert_eq!(c.hosts[0].net_tx.total(), 125.0 * MB);
        assert_eq!(c.hosts[1].net_rx.total(), 125.0 * MB);
    }

    #[test]
    fn loopback_is_free() {
        let c = Cluster::new(ClusterConfig::small(1));
        let src = Rc::clone(&c.hosts[0]);
        let clock = c.clock.clone();
        let h =
            c.rt.spawn(async move { transfer(&clock, &src.clone(), &src, 1000.0 * MB).await });
        c.rt.run_for_secs(10.0);
        assert!(h.try_take().unwrap() < 1_000_000);
        assert_eq!(c.hosts[0].net_tx.total(), 0.0);
    }

    #[test]
    fn reporter_flushes_agents_periodically() {
        let c = Cluster::new(ClusterConfig::small(1));
        let handle = c
            .install(
                "From incr In DataNodeMetrics.incrBytesRead
                 GroupBy incr.host
                 Select incr.host, SUM(incr.delta)",
            )
            .unwrap();
        let agent = c.new_agent(&c.hosts[0], "DataNode");
        let clock = c.clock.clone();
        c.rt.spawn(async move {
            let mut ctx = crate::Ctx::new();
            agent.invoke(
                "DataNodeMetrics.incrBytesRead",
                &mut ctx.bag,
                clock.now(),
                &[("delta", pivot_model::Value::I64(4096))],
            );
        });
        c.rt.run_for_secs(2.0);
        let fe = c.frontend.borrow();
        let rows = fe.results(&handle).rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].values[1], pivot_model::Value::I64(4096));
    }
}
