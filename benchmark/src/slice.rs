//! The measured window is cut in slices. A run's bounded figures are
//! those of the faster half of its slices; the whole window is reported
//! beside them.
//!
//! The benchmark runs on a small shared VM whose speed moves in steps
//! that last from a fraction of a second to minutes: the same request
//! path was measured at a median of 5.3, 7.7 or 12.2 µs depending on the
//! moment, identical code and seed. Interference of that kind only ever
//! slows a slice down, so the slices with the highest rate are the least
//! disturbed ones. Over ten runs of each `svc_*` workload the mean over
//! all slices spread by 12-19 % (interquartile range over median), the
//! mean over the faster half by 6-7 %, and no narrower fraction did
//! better: the three fastest slices alone spread by 7-8 %, and their
//! median latency by twice as much as the faster half's (README,
//! "Repeatability"). A slice spans several reporting intervals or rounds,
//! so each still pays its share of flushes, and the figures of one slice
//! (rate, latencies, CPU) are taken together, never best-of each
//! separately. Steps that outlast a whole run remain; restating slices
//! against a same-run calibration kernel was tried and did not track
//! them (normalised rates spread as much as raw ones).
//!
//! A slowdown confined to less than half of the window does not move the
//! faster half. Every run therefore also prints each slice's rate and
//! reports the whole-window rate and the slowest slice beside it.

/// One slice of the measured window.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    /// Wall seconds the slice lasted.
    pub seconds: f64,
    /// Operations per second.
    pub per_s: f64,
    /// Process CPU microseconds per thousand operations, all threads.
    pub cpu_us_per_kop: f64,
    /// The same for every thread but the load threads: reporters, relay
    /// and frontend readers.
    pub background_cpu_us_per_kop: f64,
    /// Median, 90th and 99th percentile latency, µs.
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
}

/// What a phase's slices come to.
pub struct Summary {
    /// The mean of the figures of the faster half of the slices (the
    /// middle one included when their number is odd).
    pub fast: Slice,
    /// Operations per second over the whole window, slow slices included.
    pub window_per_s: f64,
    /// The slowest slice's rate as a share of `fast.per_s`.
    pub slowest_share: f64,
}

/// Sums `slices` up and prints every slice's rate on stderr, in window
/// order, so a drift or a stall inside the window can be seen.
pub fn summarize(what: &str, slices: &[Slice]) -> Summary {
    assert!(
        !slices.is_empty(),
        "the measured window holds a whole slice"
    );
    let mut by_rate = slices.to_vec();
    by_rate.sort_by(|a, b| b.per_s.total_cmp(&a.per_s));
    let slowest = by_rate[by_rate.len() - 1].per_s;
    by_rate.truncate(slices.len().div_ceil(2));
    let mean = |f: fn(&Slice) -> f64| by_rate.iter().map(f).sum::<f64>() / by_rate.len() as f64;
    let fast = Slice {
        seconds: mean(|s| s.seconds),
        per_s: mean(|s| s.per_s),
        cpu_us_per_kop: mean(|s| s.cpu_us_per_kop),
        background_cpu_us_per_kop: mean(|s| s.background_cpu_us_per_kop),
        p50_us: mean(|s| s.p50_us),
        p90_us: mean(|s| s.p90_us),
        p99_us: mean(|s| s.p99_us),
    };
    let seconds: f64 = slices.iter().map(|s| s.seconds).sum();
    let ops: f64 = slices.iter().map(|s| s.per_s * s.seconds).sum();
    let summary = Summary {
        fast,
        window_per_s: ops / seconds,
        slowest_share: slowest / fast.per_s,
    };
    let rates: Vec<String> = slices
        .iter()
        .map(|s| format!("{:.0}", s.per_s / 1e3))
        .collect();
    eprintln!(
        "{what}: {} slices, k ops/s: {}\n{what}: faster half {:.0}/s, whole window {:.0}/s, slowest slice {:.2} of the faster half",
        slices.len(),
        rates.join(" "),
        fast.per_s,
        summary.window_per_s,
        summary.slowest_share
    );
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(seconds: f64, per_s: f64, p50_us: f64) -> Slice {
        Slice {
            seconds,
            per_s,
            cpu_us_per_kop: 1e9 / per_s,
            background_cpu_us_per_kop: 1.0,
            p50_us,
            p90_us: 4.0 * p50_us,
            p99_us: 8.0 * p50_us,
        }
    }

    #[test]
    fn the_faster_half_brings_its_own_latencies_along() {
        // A fast slice with a poor median still brings its median along.
        let slices = [
            slice(1.0, 100.0, 9.0),
            slice(1.0, 50.0, 1.0),
            slice(1.0, 98.0, 3.0),
            slice(1.0, 60.0, 2.0),
            slice(1.0, 99.0, 6.0),
        ];
        let s = summarize("test", &slices);
        assert_eq!(s.fast.per_s, 99.0);
        assert_eq!(s.fast.p50_us, 6.0);
        assert_eq!(s.fast.p90_us, 24.0);
        assert_eq!(summarize("test", &slices[1..2]).fast.per_s, 50.0);
        assert_eq!(summarize("test", &slices[..2]).fast.per_s, 100.0);
    }

    #[test]
    fn the_window_counts_every_slice_by_its_length() {
        // 100 operations in 1 s, then 100 in 4 s: 200 in 5 s.
        let s = summarize("test", &[slice(1.0, 100.0, 1.0), slice(4.0, 25.0, 1.0)]);
        assert_eq!(s.window_per_s, 40.0);
        assert_eq!(s.slowest_share, 0.25);
    }
}
