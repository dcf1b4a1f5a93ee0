//! Fixed log-bucket latency histogram.
//!
//! Latencies and lags are recorded here, never into a growing `Vec`: a
//! sample vector alone raised `svc_unwoven` peak RSS from ~9 MB to 34 MB
//! in the prototype, which would have made `peak_rss_mb` measure the
//! benchmark instead of the tracer.
//!
//! Values below `2 * SUB` land in exact unit-width buckets; above that
//! every power of two is split into `SUB` equal buckets, so the relative
//! bucket width is at most `1 / SUB` (1.6 %). Percentiles interpolate
//! linearly inside the bucket that holds the requested rank.

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// One exact group for values below `SUB`, then one group per shift.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

pub struct Hist {
    counts: Box<[u64]>,
    total: u64,
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let shift = (63 - v.leading_zeros()) - SUB_BITS;
    ((shift as usize + 1) << SUB_BITS) + ((v >> shift) & (SUB - 1)) as usize
}

/// Lower bound and width of bucket `idx`.
fn bucket_range(idx: usize) -> (u64, u64) {
    let group = (idx >> SUB_BITS) as u32;
    let sub = idx as u64 & (SUB - 1);
    if group == 0 {
        return (sub, 1);
    }
    let shift = group - 1;
    ((SUB + sub) << shift, 1 << shift)
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The value at quantile `q` in `[0, 1]`; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (q * self.total as f64).clamp(0.0, self.total as f64);
        let mut seen = 0u64;
        for (idx, &n) in self.counts.iter().enumerate() {
            if n > 0 && (seen + n) as f64 >= rank {
                let (lo, width) = bucket_range(idx);
                let inside = ((rank - seen as f64) / n as f64).clamp(0.0, 1.0);
                return lo as f64 + inside * width as f64;
            }
            seen += n;
        }
        unreachable!("rank is at most the total count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..2 * SUB {
            let (lo, width) = bucket_range(bucket_of(v));
            assert_eq!((lo, width), (v, 1));
        }
    }

    #[test]
    fn every_value_falls_inside_its_bucket_within_one_sub() {
        for shift in 0..57 {
            for v in [
                130u64 << shift,
                (255u64 << shift) + shift as u64,
                1u64 << (shift + 7),
            ] {
                let (lo, width) = bucket_range(bucket_of(v));
                assert!(lo <= v && v - lo < width, "{v} not in [{lo}, +{width})");
                assert!(width as f64 <= lo as f64 / SUB as f64 + 1.0);
            }
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn percentiles_of_a_uniform_ramp() {
        let mut h = Hist::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100_000);
        for (q, want) in [(0.5, 50_000.0), (0.9, 90_000.0), (0.99, 99_000.0)] {
            let got = h.quantile(q);
            assert!(
                (got - want).abs() / want < 0.02,
                "q{q}: got {got}, want {want}"
            );
        }
        assert!(h.quantile(0.0) <= 2.0);
        assert!(h.quantile(1.0) >= 99_000.0);
    }

    #[test]
    fn percentiles_of_two_spikes_and_clear() {
        let mut h = Hist::new();
        for _ in 0..900 {
            h.record(1_000);
        }
        for _ in 0..100 {
            h.record(1_000_000);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.quantile(0.5) - 1_000.0).abs() < 20.0);
        assert!((h.quantile(0.95) - 1_000_000.0).abs() < 20_000.0);
        h.clear();
        assert_eq!((h.count(), h.quantile(0.5)), (0, 0.0));
    }
}
