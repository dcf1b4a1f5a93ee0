//! Shared output helpers for the figure/table harness binaries.
//!
//! Each `fig*`, `table5` and `ablation` binary under `src/bin/`
//! regenerates one of the paper's figures or tables (see DESIGN.md §4 for
//! the index) in virtual time and prints the same rows or series the
//! paper reports. Wall-clock cost is measured in one place, the
//! `benchmark/` package `BENCHMARK.json` names; `src/bin/gate.rs` checks
//! same-run ratios over that benchmark's traced output.

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            let w = widths.get(i).copied().unwrap_or(c.len());
            let pad = w.saturating_sub(c.chars().count());
            out.push_str(&" ".repeat(pad));
            out.push_str(c);
            out.push_str("  ");
        }
        println!("{}", out.trim_end());
    };
    line(&headers.iter().map(|h| (*h).to_owned()).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Formats a float with `digits` decimals.
pub fn f(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Renders a series as a compact sparkline (for throughput-over-time
/// figures in a terminal).
pub fn sparkline(points: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = points.iter().cloned().fold(0.0_f64, f64::max);
    if max <= 0.0 {
        return "▁".repeat(points.len());
    }
    points
        .iter()
        .map(|p| {
            let idx = ((p / max) * 7.0).round() as usize;
            BARS[idx.min(7)]
        })
        .collect()
}

/// Downsamples a series to at most `n` points by averaging buckets.
pub fn downsample(points: &[f64], n: usize) -> Vec<f64> {
    if points.len() <= n || n == 0 {
        return points.to_vec();
    }
    let per = points.len() as f64 / n as f64;
    (0..n)
        .map(|i| {
            let lo = (i as f64 * per) as usize;
            let hi = (((i + 1) as f64 * per) as usize).min(points.len());
            let slice = &points[lo..hi.max(lo + 1)];
            slice.iter().sum::<f64>() / slice.len() as f64
        })
        .collect()
}

/// Parses `--key value` style flags from the command line.
pub fn flag(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Parses a numeric flag with a default.
pub fn flag_f64(name: &str, default: f64) -> f64 {
    flag(name).and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Parses an integer flag with a default.
pub fn flag_usize(name: &str, default: usize) -> usize {
    flag(name).and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Parses a u64 flag with a default.
pub fn flag_u64(name: &str, default: u64) -> u64 {
    flag(name).and_then(|v| v.parse().ok()).unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_scales() {
        let s = sparkline(&[0.0, 1.0, 2.0, 4.0]);
        assert_eq!(s.chars().count(), 4);
        assert!(s.ends_with('█'));
    }

    #[test]
    fn downsample_averages() {
        let d = downsample(&[1.0, 3.0, 5.0, 7.0], 2);
        assert_eq!(d, vec![2.0, 6.0]);
        assert_eq!(downsample(&[1.0], 4), vec![1.0]);
    }
}
