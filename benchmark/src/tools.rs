//! Tools around single runs, each of which spawns this binary once per
//! workload so that every run has a process of its own: the `--check`
//! correctness gate, `repeat` for the repeatability criterion, and
//! `baseline` for the committed result set.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use crate::median;
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method).
fn quartiles(values: &mut [f64]) -> (f64, f64) {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let at = |i: usize| -> f64 {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        values[j - 1] + (values[j] - values[j - 1]) * delta
    };
    (at(1), at(3))
}

/// One child run of this binary; returns its parsed result line.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    if !out.status.success() || !line.starts_with('{') {
        return Err(format!(
            "{workload} exited with {} and no result:\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let number_after = |key: &str| -> Option<f64> {
        let rest = &line[line.find(key)? + key.len()..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        rest[..end].trim().parse().ok()
    };
    Ok(ChildResult {
        correct: line.contains("\"correct\": true"),
        attempted: number_after("\"attempted\": ").unwrap_or(0.0),
        failed: number_after("\"failed\": ").unwrap_or(f64::NAN),
        metrics: END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .filter_map(|name| {
                number_after(&format!("\"{name}\": {{\"value\": ")).map(|v| (name, v))
            })
            .collect(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        line: line.to_owned(),
    })
}

struct ChildResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<&'static str, f64>,
    stderr: String,
    /// The result line as printed.
    line: String,
}

/// The correctness gate: every workload for ~2 s, untraced and traced.
/// Exits non-zero on any mismatch with the reference or unbalanced books.
pub fn check_all(seed: u64) -> ExitCode {
    let mut ok = true;
    for w in WORKLOADS {
        for trace in [false, true] {
            let mode = if trace { "traced" } else { "untraced" };
            match child(w.name, seed, 2.0, trace) {
                Ok(r) if r.correct && r.failed == 0.0 => {
                    println!(
                        "ok   {:<14} {mode:<8} {} operations, 0 failed",
                        w.name, r.attempted
                    );
                }
                Ok(r) => {
                    ok = false;
                    println!(
                        "FAIL {:<14} {mode:<8} {} of {} operations failed\n{}",
                        w.name, r.failed, r.attempted, r.stderr
                    );
                }
                Err(e) => {
                    ok = false;
                    println!("FAIL {:<14} {mode:<8} {e}", w.name);
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes one full result set into `dir`: per workload the untraced and
/// the traced result line, and the machine and build they came from.
pub fn baseline(dir: &str, seconds: f64, seed: u64) -> ExitCode {
    let dir = std::path::Path::new(dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("{}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let tool = |program: &str, arg: &str| -> String {
        Command::new(program)
            .arg(arg)
            .output()
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|_| "unknown".to_owned())
    };
    let environment = format!(
        "{{\n  \"nproc\": \"{}\",\n  \"available_parallelism\": {},\n  \"rustc\": \"{}\",\n  \
         \"profile\": \"{}\",\n  \"seconds\": {seconds},\n  \"seed\": {seed}\n}}\n",
        tool("nproc", "--all"),
        std::thread::available_parallelism().map_or(0, usize::from),
        tool("rustc", "--version"),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    let mut ok = std::fs::write(dir.join("environment.json"), environment).is_ok();
    for w in WORKLOADS {
        let mut lines = Vec::new();
        for (mode, trace) in [("untraced", false), ("traced", true)] {
            match child(w.name, seed, seconds, trace) {
                Ok(r) => {
                    ok &= r.correct;
                    println!(
                        "{:<14} {mode:<8} {} failed of {}",
                        w.name, r.failed, r.attempted
                    );
                    lines.push(format!("  \"{mode}\": {}", r.line));
                }
                Err(e) => {
                    println!("FAIL {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let body = format!("{{\n{}\n}}\n", lines.join(",\n"));
        ok &= std::fs::write(dir.join(format!("{}.json", w.name)), body).is_ok();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `sets` full sets (every workload, untraced, one seed per set) and
/// prints each end-to-end metric's spread between sets against its
/// bound: the interquartile range as a share of the median with four or
/// more sets, else the full range. A metric whose spread exceeds its
/// bound cannot be compared on this machine today: it is reported as
/// unresolved and the exit code is non-zero (`setup_s` is printed but, as
/// in the acceptance rule, not gated).
pub fn repeat(sets: usize, seconds: f64, seed: u64) -> ExitCode {
    let mut values: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    for set in 0..sets {
        for w in WORKLOADS {
            match child(w.name, seed + set as u64, seconds, false) {
                Ok(r) => {
                    if !r.correct {
                        ok = false;
                        println!(
                            "FAIL set {set} {}: {} operations failed\n{}",
                            w.name, r.failed, r.stderr
                        );
                    }
                    let line: Vec<String> = END_TO_END
                        .iter()
                        .map(|m| format!("{}={:.4}", m.name, r.metrics[m.name]))
                        .collect();
                    println!("set {set} {:<14} {}", w.name, line.join(" "));
                    for m in END_TO_END {
                        values
                            .entry((w.name, m.name))
                            .or_default()
                            .push(r.metrics[m.name]);
                    }
                }
                Err(e) => {
                    println!("FAIL set {set} {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    println!(
        "\n{:<14} {:<16} {:>14} {:>9} {:>7}  verdict ({})",
        "workload",
        "metric",
        "median",
        "spread",
        "bound",
        if sets >= 4 {
            "IQR / median"
        } else {
            "range / median"
        }
    );
    for w in WORKLOADS {
        for m in END_TO_END {
            let v = values
                .get_mut(&(w.name, m.name))
                .expect("every run reports every metric");
            let spread = if sets >= 4 {
                let (q1, q3) = quartiles(v);
                q3 - q1
            } else {
                v.iter().copied().fold(f64::MIN, f64::max)
                    - v.iter().copied().fold(f64::MAX, f64::min)
            };
            let mid = median(v);
            let share = spread / mid;
            let gated = m.name != "setup_s";
            let verdict = match (share <= m.bound, gated) {
                (true, _) if share <= m.bound / 3.0 => "ok",
                (true, _) => "ok (above a third of the bound)",
                (false, true) => {
                    ok = false;
                    "unresolved: the spread exceeds the bound"
                }
                (false, false) => "wide (not gated)",
            };
            println!(
                "{:<14} {:<16} {:>14.4} {:>8.2}% {:>6.0}%  {verdict}",
                w.name,
                m.name,
                mid,
                share * 100.0,
                m.bound * 100.0
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let mut v = vec![3.0, 1.0, 4.0, 1.0, 5.0];
        assert_eq!(quartiles(&mut v), (1.0, 4.5));
    }
}
