//! Experiment drivers — one per paper figure / table.
//!
//! Each driver builds a stack, runs the paper's workload, installs the
//! paper's queries, and returns structured results; the integration tests
//! assert on their *shape* (who wins, by roughly what factor). Each also
//! renders itself as text at the configuration `results/` was written at,
//! and [`FIGURES`] names every rendering by its `results/` file stem:
//! `pivot-figures <stem>` prints one, and `tests/figures.rs` holds each
//! one that reads no clock to its committed file byte for byte.

pub mod ablation;
pub mod fig1;
pub mod fig10;
pub mod fig3;
pub mod fig8;
pub mod fig9;
pub mod table5;

use std::fmt::Write;

use pivot_core::QueryResults;
use pivot_model::Value;

/// Renders one figure or table as the text of its `results/` file.
pub type Render = fn() -> String;

/// Every rendered figure or table, by the stem of its `results/` file.
///
/// `fig10` and `table5` time wall-clock loops, so their text differs from
/// run to run; every other rendering runs in virtual time and is the same
/// bytes on every run.
pub const FIGURES: &[(&str, Render)] = &[
    ("ablation", ablation::render),
    ("fig1", fig1::render),
    ("fig3", fig3::render),
    ("fig8", || fig8::render(true)),
    ("fig8_fixed", || fig8::render(false)),
    ("fig9_gc", || fig9::render(fig9::Case::RogueGc)),
    ("fig9_limplock", || fig9::render(fig9::Case::Limplock)),
    ("fig9_nnlock", || fig9::render(fig9::Case::NnLock)),
    ("fig10", fig10::render),
    ("table5", table5::render),
];

/// Appends an aligned text table, its `== title ==` after a blank line.
fn table(out: &mut String, title: &str, headers: &[&str], rows: &[Vec<String>]) {
    let _ = writeln!(out, "\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
    }
    line(out, &widths, headers);
    for row in rows {
        line(out, &widths, row);
    }
}

/// Appends one row of [`table`], each cell right-aligned to its width.
fn line(out: &mut String, widths: &[usize], cells: &[impl AsRef<str>]) {
    let start = out.len();
    for (i, c) in cells.iter().map(AsRef::as_ref).enumerate() {
        let w = widths.get(i).copied().unwrap_or(c.len());
        let pad = w.saturating_sub(c.chars().count());
        out.push_str(&" ".repeat(pad));
        out.push_str(c);
        out.push_str("  ");
    }
    out.truncate(start + out[start..].trim_end().len());
    out.push('\n');
}

/// Formats a float with `digits` decimals.
fn fixed(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Renders a series as a compact sparkline (for throughput-over-time
/// figures in a terminal).
fn sparkline(points: &[f64]) -> String {
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
fn downsample(points: &[f64], n: usize) -> Vec<f64> {
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

/// One labelled time series (e.g. a host's throughput per interval).
#[derive(Clone, Debug)]
pub struct Series {
    /// Series label (host or client name).
    pub label: String,
    /// One point per reporting interval.
    pub points: Vec<f64>,
}

/// Extracts per-interval series from a single-key aggregating query:
/// rows are `(key, value)`; returns one series per key with values scaled
/// by `scale` (e.g. `1 / (MB · interval)` for MB/s).
pub fn series_by_key(results: &QueryResults, scale: f64) -> Vec<Series> {
    let series = results.series();
    let n = series.len();
    let mut out: Vec<Series> = Vec::new();
    for (i, (_, rows)) in series.iter().enumerate() {
        for row in rows {
            let label = row.values.first().map(Value::to_string);
            let Some(label) = label else { continue };
            let value = row.values.get(1).and_then(Value::as_f64).unwrap_or(0.0) * scale;
            let s = match out.iter_mut().find(|s| s.label == label) {
                Some(s) => s,
                None => {
                    out.push(Series {
                        label,
                        points: vec![0.0; n],
                    });
                    out.last_mut().expect("just pushed")
                }
            };
            s.points[i] = value;
        }
    }
    out.sort_by(|a, b| a.label.cmp(&b.label));
    out
}

/// Extracts cumulative `(key…, value)` rows as strings + value.
pub fn rows_with_value(results: &QueryResults) -> Vec<(Vec<String>, f64)> {
    results
        .rows()
        .into_iter()
        .map(|r| {
            let n = r.values.len();
            let keys = r.values[..n - 1].iter().map(Value::to_string).collect();
            let v = r.values[n - 1].as_f64().unwrap_or(0.0);
            (keys, v)
        })
        .collect()
}

/// Maps `host-A` → 0, `host-B` → 1, …
pub fn host_index(name: &str) -> Option<usize> {
    let letter = name.strip_prefix("host-")?.chars().next()?;
    if letter.is_ascii_uppercase() {
        Some((letter as u8 - b'A') as usize)
    } else {
        None
    }
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
