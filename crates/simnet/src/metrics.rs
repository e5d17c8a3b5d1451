//! Latency bookkeeping for experiments.
//!
//! [`Histogram`] records virtual-time latencies and answers the statistics
//! the paper reports: mean, percentiles, and full CDFs (Fig. 8).

use crate::time::SimDuration;

/// A simple exact histogram of durations (stores every sample).
///
/// Experiments here record at most a few hundred thousand samples, so exact
/// storage is cheaper than maintaining bucketed sketches and keeps the
/// percentile math trivial and precise.
///
/// # Examples
///
/// ```
/// use music_simnet::metrics::Histogram;
/// use music_simnet::time::SimDuration;
///
/// let mut h = Histogram::new();
/// for ms in [1u64, 2, 3, 4, 100] {
///     h.record(SimDuration::from_millis(ms));
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.try_percentile(0.5).map(|d| d.as_millis()), Some(3));
/// assert_eq!(h.try_percentile(1.0).map(|d| d.as_millis()), Some(100));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    samples: Vec<u64>,
    sorted: bool,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, d: SimDuration) {
        self.samples.push(d.as_micros());
        self.sorted = false;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// Arithmetic mean. Returns [`SimDuration::ZERO`] when empty.
    pub fn mean(&self) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        let sum: u128 = self.samples.iter().map(|&s| s as u128).sum();
        SimDuration::from_micros((sum / self.samples.len() as u128) as u64)
    }

    /// The `p`-th percentile (`0.0 ..= 1.0`, nearest-rank), or `None`
    /// when no samples were recorded.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn try_percentile(&mut self, p: f64) -> Option<SimDuration> {
        assert!((0.0..=1.0).contains(&p), "percentile out of range");
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        Some(SimDuration::from_micros(self.samples[rank - 1]))
    }

    /// Full CDF sampled at `points` evenly spaced cumulative fractions,
    /// returned as `(latency, fraction ≤ latency)` pairs — the series
    /// plotted in Fig. 8.
    pub fn cdf(&mut self, points: usize) -> Vec<(SimDuration, f64)> {
        if self.samples.is_empty() || points == 0 {
            return Vec::new();
        }
        self.ensure_sorted();
        let n = self.samples.len();
        (1..=points)
            .map(|i| {
                let frac = i as f64 / points as f64;
                let idx = ((frac * n as f64).ceil() as usize).clamp(1, n) - 1;
                (SimDuration::from_micros(self.samples[idx]), frac)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(values_ms: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for &v in values_ms {
            h.record(SimDuration::from_millis(v));
        }
        h
    }

    fn ms(h: &mut Histogram, p: f64) -> u64 {
        h.try_percentile(p).expect("non-empty").as_millis()
    }

    #[test]
    fn mean_and_extremes() {
        let mut h = hist(&[20, 10, 30]);
        assert_eq!(h.mean().as_millis(), 20);
        assert_eq!(ms(&mut h, 0.0), 10);
        assert_eq!(ms(&mut h, 1.0), 30);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut h = hist(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(ms(&mut h, 0.5), 5);
        assert_eq!(ms(&mut h, 0.9), 9);
        assert_eq!(ms(&mut h, 0.99), 10);
        assert_eq!(ms(&mut h, 0.0), 1);
        assert_eq!(ms(&mut h, 1.0), 10);
    }

    #[test]
    fn cdf_is_monotone() {
        let mut h = hist(&[5, 1, 9, 3, 7, 2, 8, 4, 6, 10]);
        let cdf = h.cdf(10);
        assert_eq!(cdf.len(), 10);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        assert_eq!(cdf.last().unwrap().0.as_millis(), 10);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert!(h.cdf(5).is_empty());
    }

    #[test]
    fn try_percentile_is_total() {
        let mut empty = Histogram::new();
        assert_eq!(empty.try_percentile(0.5), None);
        let mut h = hist(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(h.try_percentile(0.5).unwrap().as_millis(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn try_percentile_still_validates_p() {
        let mut h = hist(&[1]);
        let _ = h.try_percentile(1.5);
    }

    #[test]
    fn p999_separates_from_p99_on_large_tails() {
        // 500 samples at 1ms plus one 500ms straggler: nearest-rank puts
        // p99.9 at rank ceil(0.999·501) = 501 — the straggler — while
        // p99 (rank 496) stays in the body.
        let mut h = Histogram::new();
        for _ in 0..500 {
            h.record(SimDuration::from_millis(1));
        }
        h.record(SimDuration::from_millis(500));
        assert_eq!(ms(&mut h, 0.99), 1);
        assert_eq!(ms(&mut h, 0.999), 500);
    }
}
