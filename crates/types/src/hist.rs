//! Power-of-two histogram for latency/length distributions.
//!
//! The simulator records distributions (epoch lengths, checkpoint
//! durations, stall times) in logarithmic buckets: bucket *k* counts
//! samples in `[2^k, 2^(k+1))`, with bucket 0 also holding zero.

use std::fmt;

/// Number of buckets: covers the full `u64` range.
const BUCKETS: usize = 64;

/// A power-of-two bucketed histogram of `u64` samples.
///
/// # Example
///
/// ```
/// use thynvm_types::Histogram;
///
/// let mut h = Histogram::new();
/// h.record(1);
/// h.record(1000);
/// h.record(1024);
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.max(), 1024);
/// assert!(h.mean() > 600.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self { buckets: vec![0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = if value == 0 { 0 } else { 63 - u64::leading_zeros(value) as usize };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate `q`-quantile (0 ≤ q ≤ 1) from the bucket boundaries:
    /// returns the upper bound of the bucket containing the quantile.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (k, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target.max(1) {
                return if k >= 63 { u64::MAX } else { (1u64 << (k + 1)) - 1 };
            }
        }
        self.max
    }

    /// Iterates over `(bucket lower bound, count)` pairs for non-empty
    /// buckets.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(k, &n)| (if k == 0 { 0 } else { 1u64 << k }, n))
    }

    /// Renders a compact ASCII bar chart of the distribution.
    pub fn render(&self, width: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let peak = self.buckets.iter().copied().max().unwrap_or(0).max(1);
        for (lo, n) in self.iter() {
            let bar = (n as usize * width).div_ceil(peak as usize);
            let _ = writeln!(out, "{lo:>12} │{} {n}", "█".repeat(bar));
        }
        out
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} min={} mean={:.1} p50={} p99={} max={}",
            self.count,
            self.min(),
            self.mean(),
            self.quantile(0.5),
            self.quantile(0.99),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.iter().count(), 0);
    }

    #[test]
    fn basic_stats() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 110);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 22.0).abs() < 1e-9);
    }

    #[test]
    fn zero_goes_to_bucket_zero() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        let buckets: Vec<_> = h.iter().collect();
        assert_eq!(buckets, vec![(0, 2)]); // 0 and 1 share bucket 0
    }

    #[test]
    fn bucket_boundaries() {
        let mut h = Histogram::new();
        h.record(1023); // bucket 9: [512, 1024)
        h.record(1024); // bucket 10: [1024, 2048)
        let buckets: Vec<_> = h.iter().collect();
        assert_eq!(buckets, vec![(512, 1), (1024, 1)]);
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = Histogram::new();
        for v in 1..1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let p90 = h.quantile(0.9);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p90 && p90 <= p99);
        assert!(p50 >= 256, "median of 1..1000 in the 512-bucket: {p50}");
    }

    #[test]
    fn render_and_display() {
        let mut h = Histogram::new();
        h.record(5);
        h.record(5);
        h.record(700);
        let chart = h.render(20);
        assert!(chart.contains('█'));
        assert!(chart.lines().count() == 2);
        assert!(h.to_string().contains("n=3"));
    }

    #[test]
    fn huge_values() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }
}
