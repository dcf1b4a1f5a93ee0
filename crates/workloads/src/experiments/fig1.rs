//! Figure 1: HDFS throughput, per machine and per client application.
//!
//! Reproduces the paper's §2.1 motivating experiment: six client
//! applications run simultaneously against the stack, and three queries
//! expose (a) DataNode throughput per machine (Q1 — the metric HDFS
//! already has), (b) the same metric grouped by the **top-level client
//! application** (Q2 — impossible without the happened-before join), and
//! (c) a pivot table of per-host, per-phase disk IO for `MRsort10g`.

use pivot_hadoop::cluster::{ClusterConfig, MB};

use crate::clients;
use crate::experiments::{
    downsample, fixed, rows_with_value, series_by_key, sparkline, table, Series,
};
use crate::stack::{SimStack, StackConfig};

/// The paper's Q1 (§2.1).
pub const Q1: &str = "From incr In DataNodeMetrics.incrBytesRead
GroupBy incr.host
Select incr.host, SUM(incr.delta)";

/// The paper's Q2 (§2.1).
pub const Q2: &str = "From incr In DataNodeMetrics.incrBytesRead
Join cl In First(ClientProtocols) On cl -> incr
GroupBy cl.procName
Select cl.procName, SUM(incr.delta)";

fn pivot_query(stream: &str, client: &str) -> String {
    format!(
        "From io In {stream}
         Join cl In First(ClientProtocols) On cl -> io
         Where cl.procName == \"{client}\"
         GroupBy io.host, io.phase
         Select io.host, io.phase, SUM(io.delta)"
    )
}

/// Configuration for the Figure 1 run.
#[derive(Clone, Debug)]
pub struct Config {
    /// RNG seed.
    pub seed: u64,
    /// Virtual duration in seconds (the paper plots ~15 minutes).
    pub duration_secs: f64,
    /// Worker host count.
    pub workers: usize,
    /// Input sizes of the two sort jobs, in GB.
    pub sort_gb: (f64, f64),
}

impl Default for Config {
    fn default() -> Config {
        Config {
            seed: 42,
            duration_secs: 400.0,
            workers: 8,
            sort_gb: (10.0, 100.0),
        }
    }
}

/// One cell of the Figure 1c pivot table.
#[derive(Clone, Debug)]
pub struct PivotCell {
    /// Host name.
    pub host: String,
    /// IO phase (`HDFS` / `Map` / `Shuffle` / `Reduce`).
    pub phase: String,
    /// Megabytes read.
    pub read_mb: f64,
    /// Megabytes written.
    pub write_mb: f64,
}

/// Results of the Figure 1 experiment.
#[derive(Clone, Debug)]
pub struct Result {
    /// Figure 1a: per-host HDFS read throughput (MB/s per interval).
    pub per_host: Vec<Series>,
    /// Figure 1b: the same, grouped by top-level client application.
    pub per_client: Vec<Series>,
    /// Figure 1c: disk IO pivot table for `MRsort10g`.
    pub pivot: Vec<PivotCell>,
    /// The reporting interval used (seconds).
    pub interval_secs: f64,
}

/// Runs the experiment.
pub fn run(cfg: &Config) -> Result {
    let stack = SimStack::build(StackConfig {
        cluster: ClusterConfig {
            workers: cfg.workers,
            seed: cfg.seed,
            ..ClusterConfig::default()
        },
        dataset_files: 120,
        ..StackConfig::default()
    });

    // The six client applications of §2.1.
    clients::spawn_fsread(&stack, 0, "FSread4m", 4.0 * MB);
    clients::spawn_fsread(&stack, 1, "FSread64m", 64.0 * MB);
    clients::spawn_hget(&stack, 2 % cfg.workers);
    clients::spawn_hscan(&stack, 3 % cfg.workers);
    clients::spawn_mrsort(
        &stack,
        4 % cfg.workers,
        "MRsort10g",
        cfg.sort_gb.0,
        cfg.workers,
    );
    clients::spawn_mrsort(
        &stack,
        5 % cfg.workers,
        "MRsort100g",
        cfg.sort_gb.1,
        cfg.workers,
    );

    let q1 = stack.install(Q1).expect("Q1 compiles");
    let q2 = stack.install(Q2).expect("Q2 compiles");
    let qr = stack
        .install(&pivot_query("FileInputStream", "MRsort10g"))
        .expect("pivot read query compiles");
    let qw = stack
        .install(&pivot_query("FileOutputStream", "MRsort10g"))
        .expect("pivot write query compiles");

    stack.run_for_secs(cfg.duration_secs);

    let interval = stack.cfg.cluster.report_interval;
    let scale = 1.0 / (MB * interval);
    let per_host = series_by_key(&stack.results(&q1), scale);
    let per_client = series_by_key(&stack.results(&q2), scale);

    // Assemble the pivot table from the two grouped queries.
    let mut pivot: Vec<PivotCell> = Vec::new();
    let mut upsert = |host: String, phase: String, mb: f64, write: bool| {
        let cell = match pivot
            .iter_mut()
            .find(|c| c.host == host && c.phase == phase)
        {
            Some(c) => c,
            None => {
                pivot.push(PivotCell {
                    host,
                    phase,
                    read_mb: 0.0,
                    write_mb: 0.0,
                });
                pivot.last_mut().expect("just pushed")
            }
        };
        if write {
            cell.write_mb += mb;
        } else {
            cell.read_mb += mb;
        }
    };
    for (keys, v) in rows_with_value(&stack.results(&qr)) {
        if let [host, phase] = keys.as_slice() {
            upsert(host.clone(), phase.clone(), v / MB, false);
        }
    }
    for (keys, v) in rows_with_value(&stack.results(&qw)) {
        if let [host, phase] = keys.as_slice() {
            upsert(host.clone(), phase.clone(), v / MB, true);
        }
    }
    pivot.sort_by(|a, b| (&a.host, &a.phase).cmp(&(&b.host, &b.phase)));

    Result {
        per_host,
        per_client,
        pivot,
        interval_secs: interval,
    }
}

/// Renders Figures 1a, 1b and 1c at [`Config::default`]: `results/fig1.txt`.
pub fn render() -> String {
    let cfg = Config::default();
    let r = run(&cfg);
    let mut out = format!(
        "running figure 1 workload mix for {}s of virtual time ...\n",
        cfg.duration_secs
    );

    let series_rows = |series: &[Series]| -> Vec<Vec<String>> {
        series
            .iter()
            .map(|s| {
                let avg = s.points.iter().sum::<f64>() / s.points.len().max(1) as f64;
                let peak = s.points.iter().cloned().fold(0.0, f64::max);
                vec![
                    s.label.clone(),
                    fixed(avg, 1),
                    fixed(peak, 1),
                    sparkline(&downsample(&s.points, 40)),
                ]
            })
            .collect()
    };
    table(
        &mut out,
        "Figure 1a: HDFS DataNode throughput per machine (MB/s)",
        &["host", "avg", "peak", "over time"],
        &series_rows(&r.per_host),
    );
    table(
        &mut out,
        "Figure 1b: HDFS throughput grouped by client application (MB/s)",
        &["client", "avg", "peak", "over time"],
        &series_rows(&r.per_client),
    );

    // Figure 1c pivot table: rows = hosts, columns = phases.
    let phases = ["HDFS", "Map", "Shuffle", "Reduce"];
    let mut hosts: Vec<&str> = r.pivot.iter().map(|c| c.host.as_str()).collect();
    hosts.sort_unstable();
    hosts.dedup();
    let mut rows = Vec::new();
    let mut col_total = [0.0f64; 4];
    for host in hosts {
        let mut row = vec![host.to_owned()];
        let mut total = 0.0;
        for (i, phase) in phases.iter().enumerate() {
            let cell = r.pivot.iter().find(|c| c.host == host && c.phase == *phase);
            let (rd, wr) = cell.map_or((0.0, 0.0), |c| (c.read_mb, c.write_mb));
            row.push(format!("{}r/{}w", fixed(rd, 0), fixed(wr, 0)));
            total += rd + wr;
            col_total[i] += rd + wr;
        }
        row.push(fixed(total, 0));
        rows.push(row);
    }
    let mut totals = vec!["Σcluster".to_owned()];
    totals.extend(col_total.iter().map(|t| fixed(*t, 0)));
    totals.push(fixed(col_total.iter().sum(), 0));
    rows.push(totals);
    table(
        &mut out,
        "Figure 1c: MRsort10g disk IO pivot (MB read/written, host x phase)",
        &["host", "HDFS", "Map", "Shuffle", "Reduce", "Σmachine"],
        &rows,
    );
    out
}
