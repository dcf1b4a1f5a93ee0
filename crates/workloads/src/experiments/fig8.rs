//! Figure 8: diagnosing the HDFS-6268 replica-selection bug (paper §6.1).
//!
//! 96 stress-test clients perform closed-loop random 8 kB reads against an
//! 8-DataNode cluster. With the bug enabled, rack-local replica selection
//! follows a global static ordering, so low-index hosts (A, D in the
//! paper) serve far more requests than the rest. Queries Q3–Q7 walk the
//! same diagnosis chain as the paper: throughput skew → uniform client
//! behaviour → uniform placement → skewed selection → static preference
//! order.

use pivot_hadoop::cluster::{ClusterConfig, MB};

use crate::clients::{self, ClientHandle};
use crate::experiments::{fixed, host_index, rows_with_value, table};
use crate::stack::{SimStack, StackConfig};

/// Paper Q3: DataNode request throughput.
pub const Q3: &str = "From dnop In DN.DataTransferProtocol
GroupBy dnop.host
Select dnop.host, COUNT";

/// Paper Q4: file-read distribution per client.
pub const Q4: &str = "From getloc In NN.GetBlockLocations
Join st In StressTest.DoNextOp On st -> getloc
GroupBy st.host, getloc.src
Select st.host, getloc.src, COUNT";

/// Paper Q5: replica-location frequency per client.
pub const Q5: &str = "From getloc In NN.GetBlockLocations
Join st In StressTest.DoNextOp On st -> getloc
GroupBy st.host, getloc.replicas
Select st.host, getloc.replicas, COUNT";

/// Paper Q6: DataNode selection frequency per client.
pub const Q6: &str = "From DNop In DN.DataTransferProtocol
Join st In StressTest.DoNextOp On st -> DNop
GroupBy st.host, DNop.host
Select st.host, DNop.host, COUNT";

/// Paper Q7: replica-choice preference, excluding local reads.
pub const Q7: &str = "From DNop In DN.DataTransferProtocol
Join getloc In NN.GetBlockLocations On getloc -> DNop
Join st In StressTest.DoNextOp On st -> getloc
Where st.host != DNop.host
GroupBy DNop.host, getloc.replicas
Select DNop.host, getloc.replicas, COUNT";

/// Configuration of the Figure 8 run.
#[derive(Clone, Debug)]
pub struct Config {
    /// RNG seed.
    pub seed: u64,
    /// Virtual duration in seconds (paper: 5 minutes).
    pub duration_secs: f64,
    /// Worker host count (paper: 8 DataNodes + 1 NameNode).
    pub workers: usize,
    /// Stress clients per host (paper: 96 total on 8 hosts).
    pub clients_per_host: usize,
    /// Dataset file count (paper: 10 000 × 128 MB; scaled).
    pub files: usize,
    /// Enable the HDFS-6268 bug.
    pub bug: bool,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            seed: 42,
            duration_secs: 60.0,
            workers: 8,
            clients_per_host: 12,
            files: 300,
            bug: true,
        }
    }
}

/// Per-client-host summary of the Q4 file-read distribution (Figure 8d).
#[derive(Clone, Debug)]
pub struct ReadDistribution {
    /// Client host.
    pub host: String,
    /// Distinct files read.
    pub files: usize,
    /// Mean reads per file.
    pub mean: f64,
    /// Coefficient of variation of reads per file (≈ uniform when small).
    pub cv: f64,
}

/// Results of the Figure 8 experiment.
#[derive(Clone, Debug)]
pub struct Result {
    /// 8a: average request throughput per client host (req/s).
    pub client_rate: Vec<(String, f64)>,
    /// 8b: average network transmit rate per host (MB/s).
    pub network_mbps: Vec<(String, f64)>,
    /// 8c: DataNode operation rate per host (ops/s), from Q3.
    pub dn_ops: Vec<(String, f64)>,
    /// 8d: file-read distribution per client host, from Q4.
    pub read_dist: Vec<ReadDistribution>,
    /// 8e: `freq[client][dn]` — how often each DataNode appears as a
    /// replica location, from Q5 (row-normalized).
    pub replica_freq: Vec<Vec<f64>>,
    /// 8f: `freq[client][dn]` — how often each DataNode is selected, from
    /// Q6 (row-normalized).
    pub selection_freq: Vec<Vec<f64>>,
    /// 8g: `p[chosen][other]` — probability `chosen` is selected when both
    /// `chosen` and `other` are non-local candidates, from Q7.
    pub preference: Vec<Vec<f64>>,
}

/// Runs the experiment.
pub fn run(cfg: &Config) -> Result {
    let stack = SimStack::build(StackConfig {
        cluster: ClusterConfig {
            workers: cfg.workers,
            seed: cfg.seed,
            replica_bug: cfg.bug,
            ..ClusterConfig::default()
        },
        dataset_files: cfg.files,
        ..StackConfig::default()
    });

    let mut handles: Vec<ClientHandle> = Vec::new();
    for host in 0..cfg.workers {
        for id in 0..cfg.clients_per_host {
            handles.push(clients::spawn_stress(&stack, host, id));
        }
    }

    let q3 = stack.install(Q3).expect("Q3 compiles");
    let q4 = stack.install(Q4).expect("Q4 compiles");
    let q5 = stack.install(Q5).expect("Q5 compiles");
    let q6 = stack.install(Q6).expect("Q6 compiles");
    let q7 = stack.install(Q7).expect("Q7 compiles");

    stack.run_for_secs(cfg.duration_secs);

    let w = cfg.workers;
    let dur = cfg.duration_secs;

    // 8a: per-host client throughput.
    let mut client_rate: Vec<(String, f64)> = (0..w)
        .map(|h| (stack.cluster.hosts[h].name.clone(), 0.0))
        .collect();
    for handle in &handles {
        client_rate[handle.host].1 += handle.completed.total() / dur / cfg.clients_per_host as f64;
    }

    // 8b: per-host network transmit.
    let network_mbps = (0..w)
        .map(|h| {
            let host = &stack.cluster.hosts[h];
            (host.name.clone(), host.net_tx.total() / MB / dur)
        })
        .collect();

    // 8c from Q3.
    let mut dn_ops: Vec<(String, f64)> = rows_with_value(&stack.results(&q3))
        .into_iter()
        .map(|(keys, v)| (keys[0].clone(), v / dur))
        .collect();
    dn_ops.sort_by(|a, b| a.0.cmp(&b.0));

    // 8d from Q4: reads per (client, file).
    let mut per_client: Vec<Vec<f64>> = vec![Vec::new(); w];
    for (keys, v) in rows_with_value(&stack.results(&q4)) {
        if let Some(h) = host_index(&keys[0]) {
            per_client[h].push(v);
        }
    }
    let read_dist = per_client
        .iter()
        .enumerate()
        .map(|(h, counts)| {
            let n = counts.len().max(1) as f64;
            let mean = counts.iter().sum::<f64>() / n;
            let var = counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / n;
            ReadDistribution {
                host: stack.cluster.hosts[h].name.clone(),
                files: counts.len(),
                mean,
                cv: if mean > 0.0 { var.sqrt() / mean } else { 0.0 },
            }
        })
        .collect();

    // 8e from Q5: split the replica list.
    let mut replica_freq = vec![vec![0.0; w]; w];
    for (keys, v) in rows_with_value(&stack.results(&q5)) {
        let Some(client) = host_index(&keys[0]) else {
            continue;
        };
        for part in keys[1].split(',') {
            if let Some(dn) = host_index(part) {
                replica_freq[client][dn] += v;
            }
        }
    }
    normalize_rows(&mut replica_freq);

    // 8f from Q6.
    let mut selection_freq = vec![vec![0.0; w]; w];
    for (keys, v) in rows_with_value(&stack.results(&q6)) {
        if let (Some(client), Some(dn)) = (host_index(&keys[0]), host_index(&keys[1])) {
            selection_freq[client][dn] += v;
        }
    }
    normalize_rows(&mut selection_freq);

    // 8g from Q7: chosen vs. alternatives.
    let mut chosen_over = vec![vec![0.0; w]; w];
    for (keys, v) in rows_with_value(&stack.results(&q7)) {
        let Some(chosen) = host_index(&keys[0]) else {
            continue;
        };
        for part in keys[1].split(',') {
            if let Some(other) = host_index(part) {
                if other != chosen {
                    chosen_over[chosen][other] += v;
                }
            }
        }
    }
    // P(chosen over other) among head-to-head opportunities.
    let mut preference = vec![vec![0.0; w]; w];
    for c in 0..w {
        for o in 0..w {
            let total = chosen_over[c][o] + chosen_over[o][c];
            preference[c][o] = if total > 0.0 {
                chosen_over[c][o] / total
            } else {
                f64::NAN
            };
        }
    }

    Result {
        client_rate,
        network_mbps,
        dn_ops,
        read_dist,
        replica_freq,
        selection_freq,
        preference,
    }
}

fn normalize_rows(m: &mut [Vec<f64>]) {
    for row in m {
        let sum: f64 = row.iter().sum();
        if sum > 0.0 {
            for v in row {
                *v /= sum;
            }
        }
    }
}

/// Renders Figures 8a–g at [`Config::default`], with the HDFS-6268 bug
/// present (`results/fig8.txt`) or fixed (`results/fig8_fixed.txt`).
pub fn render(bug: bool) -> String {
    let cfg = Config {
        bug,
        ..Config::default()
    };
    let r = run(&cfg);
    let mut out = format!(
        "running {} stress clients for {}s (HDFS-6268 bug {}) ...\n",
        cfg.clients_per_host * cfg.workers,
        cfg.duration_secs,
        if cfg.bug { "PRESENT" } else { "fixed" }
    );
    let per_host = |v: &[(String, f64)], digits: usize| -> Vec<Vec<String>> {
        v.iter()
            .map(|(h, v)| vec![h.clone(), fixed(*v, digits)])
            .collect()
    };
    table(
        &mut out,
        "Figure 8a: stress client request throughput (req/s per client)",
        &["client host", "req/s"],
        &per_host(&r.client_rate, 1),
    );
    table(
        &mut out,
        "Figure 8b: network transmit per host (MB/s)",
        &["host", "MB/s"],
        &per_host(&r.network_mbps, 2),
    );
    table(
        &mut out,
        "Figure 8c: DataNode request throughput (ops/s), query Q3",
        &["host", "ops/s"],
        &per_host(&r.dn_ops, 1),
    );
    table(
        &mut out,
        "Figure 8d: per-client file read distribution, query Q4",
        &["client host", "files", "mean reads", "cv"],
        &r.read_dist
            .iter()
            .map(|d| {
                vec![
                    d.host.clone(),
                    d.files.to_string(),
                    fixed(d.mean, 2),
                    fixed(d.cv, 2),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let matrix = |m: &[Vec<f64>]| -> Vec<Vec<String>> {
        m.iter()
            .enumerate()
            .map(|(i, row)| {
                let mut out = vec![format!("client {}", (b'A' + i as u8) as char)];
                out.extend(row.iter().map(|v| {
                    if v.is_nan() {
                        "-".to_owned()
                    } else {
                        fixed(*v, 2)
                    }
                }));
                out
            })
            .collect()
    };
    let dn_headers: Vec<String> = std::iter::once(String::new())
        .chain((0..cfg.workers).map(|i| format!("DN {}", (b'A' + i as u8) as char)))
        .collect();
    let dn_headers: Vec<&str> = dn_headers.iter().map(String::as_str).collect();
    table(
        &mut out,
        "Figure 8e: replica-location frequency (row-normalized), query Q5",
        &dn_headers,
        &matrix(&r.replica_freq),
    );
    table(
        &mut out,
        "Figure 8f: DataNode selection frequency (row-normalized), query Q6",
        &dn_headers,
        &matrix(&r.selection_freq),
    );
    table(
        &mut out,
        "Figure 8g: P(row chosen over column | both non-local), query Q7",
        &dn_headers,
        &matrix(&r.preference),
    );
    out
}
