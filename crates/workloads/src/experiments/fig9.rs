//! Figure 9 and the §6.2 case studies: end-to-end latency diagnosis.
//!
//! A closed-loop HBase workload experiences latency spikes; a Pivot
//! Tracing query decomposes each request's latency into per-component
//! times carried through the baggage (RS queue / RS process / DN transfer
//! / DN blocked / GC / NN lock), isolating the root cause:
//!
//! - [`Case::Limplock`] — a faulty cable downgrades one host's NIC from
//!   1 Gbit to 100 Mbit (the paper's Figure 9).
//! - [`Case::RogueGc`] — one RegionServer suffers periodic stop-the-world
//!   pauses (the paper's replication of VScope's case).
//! - [`Case::NnLock`] — a metadata-write flood overloads the NameNode's
//!   exclusive write lock (the paper's replication of the Retro case).

use std::fmt::Write;
use std::rc::Rc;

use pivot_hadoop::cluster::{ClusterConfig, MB};
use pivot_hadoop::ctx::Ctx;
use pivot_hadoop::gc::Gc;

use crate::clients;
use crate::experiments::{fixed, sparkline, table};
use crate::stack::{SimStack, StackConfig};

/// The latency-decomposition query (the paper's Q8 pattern, extended with
/// per-component timing joins).
pub const DECOMP_QUERY: &str = "From resp In RS.SendResponse
Join req In MostRecent(RS.ReceiveRequest) On req -> resp
Join d In MostRecent(DN.Transfer) On d -> resp
Join g In MostRecent(NN.GetBlockLocations) On g -> resp
Select resp.timestamp - req.timestamp, resp.queueNanos, resp.processNanos, resp.gcNanos, d.xferNanos, d.blockedNanos, d.gcNanos, g.lockNanos";

/// Which fault to inject.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Case {
    /// 1 Gbit → 100 Mbit NIC downgrade on one host.
    Limplock,
    /// Periodic stop-the-world GC in one RegionServer.
    RogueGc,
    /// NameNode overload through exclusive write locking.
    NnLock,
}

/// Configuration of the Figure 9 run.
#[derive(Clone, Debug)]
pub struct Config {
    /// RNG seed.
    pub seed: u64,
    /// Virtual duration in seconds.
    pub duration_secs: f64,
    /// Worker host count.
    pub workers: usize,
    /// The injected fault.
    pub case: Case,
    /// Which host is faulty (the paper's Host B = 1).
    pub faulty_host: usize,
    /// Closed-loop scan clients per host (enough load that healthy hosts
    /// run well above the limping link's capacity).
    pub scans_per_host: usize,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            seed: 42,
            duration_secs: 90.0,
            workers: 8,
            case: Case::Limplock,
            faulty_host: 1,
            scans_per_host: 6,
        }
    }
}

/// A per-component latency decomposition, in seconds (Figure 9b).
#[derive(Clone, Copy, Debug, Default)]
pub struct Decomposition {
    /// Time queued at the RegionServer.
    pub rs_queue: f64,
    /// RegionServer processing time (excluding the DataNode transfer).
    pub rs_process: f64,
    /// DataNode transfer time (excluding blocked and GC time).
    pub dn_transfer: f64,
    /// Time blocked on the network inside the DataNode.
    pub dn_blocked: f64,
    /// Stop-the-world GC time (RS + DN).
    pub gc: f64,
    /// Time queued on the NameNode namespace lock.
    pub nn_lock: f64,
    /// Number of requests in this bucket.
    pub count: usize,
}

/// Results of the Figure 9 experiment.
#[derive(Clone, Debug)]
pub struct Result {
    /// 9a: (time s, end-to-end latency s) per request.
    pub latencies: Vec<(f64, f64)>,
    /// 9b (top): the average request.
    pub avg: Decomposition,
    /// 9b (bottom): requests slower than [`Result::slow_threshold_secs`].
    pub slow: Decomposition,
    /// Threshold separating "slow" requests.
    pub slow_threshold_secs: f64,
    /// 9c: per-host average network transmit rate (MB/s).
    pub network_mbps: Vec<(String, f64)>,
}

/// Runs the experiment.
pub fn run(cfg: &Config) -> Result {
    let stack = SimStack::build(StackConfig {
        cluster: ClusterConfig {
            workers: cfg.workers,
            seed: cfg.seed,
            ..ClusterConfig::default()
        },
        regions_per_server: 2,
        ..StackConfig::default()
    });

    // Inject the fault.
    match cfg.case {
        Case::Limplock => {
            let host = &stack.cluster.hosts[cfg.faulty_host];
            host.nic_in.set_rate(12.5 * MB);
            host.nic_out.set_rate(12.5 * MB);
        }
        Case::RogueGc => {
            let rs = &stack.hbase.regionservers[cfg.faulty_host];
            let gc = Gc::start(&stack.cluster.rt, stack.cluster.clock.clone(), 10.0, 4.0);
            *rs.gc.borrow_mut() = Some(gc);
        }
        Case::NnLock => {
            // A metadata-write flood from several processes.
            for i in 0..16 {
                let h = Rc::clone(&stack.cluster.hosts[i % cfg.workers]);
                let agent = stack.cluster.new_agent(&h, "MetadataFlood");
                let dfs = stack.hdfs.client(&h, &agent, "MetadataFlood");
                stack.cluster.rt.spawn(async move {
                    loop {
                        let mut ctx = Ctx::new();
                        dfs.metadata(&mut ctx, "create", true).await;
                    }
                });
            }
        }
    }

    // The victim workload: closed-loop HBase scan clients on every host.
    for host in 0..cfg.workers {
        for _ in 0..cfg.scans_per_host {
            clients::spawn_hscan(&stack, host);
        }
    }

    let q = stack.install(DECOMP_QUERY).expect("decomposition compiles");
    stack.run_for_secs(cfg.duration_secs);

    let results = stack.results(&q);
    let mut latencies = Vec::new();
    let mut all = Decomposition::default();
    let mut rows = Vec::new();
    for (t, row) in results.raw_rows() {
        let v = |i: usize| -> f64 { row.get(i).as_f64().unwrap_or(0.0) / 1e9 };
        let e2e = v(0);
        let queue = v(1);
        let process = v(2);
        let rs_gc = v(3);
        let xfer = v(4);
        let blocked = v(5);
        let dn_gc = v(6);
        let nn_lock = v(7);
        latencies.push((t as f64 / 1e9, e2e));
        let d = Decomposition {
            rs_queue: (queue - rs_gc).max(0.0),
            rs_process: (process - xfer - nn_lock).max(0.0),
            dn_transfer: (xfer - blocked - dn_gc).max(0.0),
            dn_blocked: blocked,
            gc: rs_gc + dn_gc,
            nn_lock,
            count: 1,
        };
        rows.push((e2e, d));
        accumulate(&mut all, &d);
    }
    finish(&mut all);

    // Slow = the top 5% of request latencies (the paper uses a fixed 30 s
    // threshold on its testbed; a percentile transfers across scales).
    let mut sorted: Vec<f64> = latencies.iter().map(|(_, l)| *l).collect();
    sorted.sort_by(f64::total_cmp);
    let idx = (sorted.len() * 95) / 100;
    let threshold = sorted
        .get(idx.min(sorted.len().saturating_sub(1)))
        .copied()
        .unwrap_or(0.0);
    let mut slow = Decomposition::default();
    for (e2e, d) in &rows {
        if *e2e >= threshold && threshold > 0.0 {
            accumulate(&mut slow, d);
        }
    }
    finish(&mut slow);

    let network_mbps = (0..cfg.workers)
        .map(|h| {
            let host = &stack.cluster.hosts[h];
            (
                host.name.clone(),
                host.net_tx.total() / MB / cfg.duration_secs,
            )
        })
        .collect();

    Result {
        latencies,
        avg: all,
        slow,
        slow_threshold_secs: threshold,
        network_mbps,
    }
}

fn accumulate(acc: &mut Decomposition, d: &Decomposition) {
    acc.rs_queue += d.rs_queue;
    acc.rs_process += d.rs_process;
    acc.dn_transfer += d.dn_transfer;
    acc.dn_blocked += d.dn_blocked;
    acc.gc += d.gc;
    acc.nn_lock += d.nn_lock;
    acc.count += 1;
}

fn finish(acc: &mut Decomposition) {
    let n = acc.count.max(1) as f64;
    acc.rs_queue /= n;
    acc.rs_process /= n;
    acc.dn_transfer /= n;
    acc.dn_blocked /= n;
    acc.gc /= n;
    acc.nn_lock /= n;
}

/// Renders Figures 9a–c at [`Config::default`] with `case` injected:
/// `results/fig9_limplock.txt`, `fig9_gc.txt` and `fig9_nnlock.txt`.
pub fn render(case: Case) -> String {
    let cfg = Config {
        case,
        ..Config::default()
    };
    let r = run(&cfg);
    let mut out = format!(
        "running HBase scan workload with {case:?} injected for {}s ...\n",
        cfg.duration_secs
    );

    // 9a: the slowest request of each of 50 windows.
    let buckets = 50usize;
    let max_t = r
        .latencies
        .iter()
        .map(|(t, _)| *t)
        .fold(0.0f64, f64::max)
        .max(1.0);
    let mut lat_max = vec![0.0f64; buckets];
    for (t, l) in &r.latencies {
        let idx = (((t / max_t) * buckets as f64) as usize).min(buckets - 1);
        lat_max[idx] = lat_max[idx].max(*l);
    }
    let peak = r.latencies.iter().map(|(_, l)| *l).fold(0.0f64, f64::max);
    let _ = write!(
        out,
        "\n== Figure 9a: request latencies over time ==\n\
         max latency per window (s): {}\n\
         requests: {}   peak latency: {peak:.2}s   slow threshold: {:.2}s\n",
        sparkline(&lat_max),
        r.latencies.len(),
        r.slow_threshold_secs
    );

    // 9b: decomposition, average vs slow.
    let row = |label: &str, d: &Decomposition| -> Vec<String> {
        vec![
            label.to_owned(),
            d.count.to_string(),
            fixed(d.rs_queue, 3),
            fixed(d.rs_process, 3),
            fixed(d.dn_transfer, 3),
            fixed(d.dn_blocked, 3),
            fixed(d.gc, 3),
            fixed(d.nn_lock, 3),
        ]
    };
    table(
        &mut out,
        "Figure 9b: per-component latency decomposition (seconds)",
        &[
            "bucket",
            "requests",
            "RS queue",
            "RS process",
            "DN transfer",
            "DN blocked",
            "GC",
            "NN lock",
        ],
        &[row("average", &r.avg), row("slow", &r.slow)],
    );

    // 9c: per-machine network throughput.
    table(
        &mut out,
        "Figure 9c: per-machine network transmit (MB/s)",
        &["host", "MB/s"],
        &r.network_mbps
            .iter()
            .map(|(h, v)| vec![h.clone(), fixed(*v, 2)])
            .collect::<Vec<_>>(),
    );
    out
}
