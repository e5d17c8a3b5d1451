//! Latency and throughput bookkeeping for experiments.
//!
//! [`Histogram`] records virtual-time latencies and answers the statistics
//! the paper reports: mean, percentiles, and full CDFs (Fig. 8).
//! [`Throughput`] converts an op count over a virtual interval into op/s.

use crate::time::{SimDuration, SimTime};

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
/// assert_eq!(h.percentile(0.5).as_millis(), 3);
/// assert_eq!(h.max().as_millis(), 100);
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

    /// The `p`-th percentile (`0.0 ..= 1.0`, nearest-rank).
    ///
    /// # Panics
    ///
    /// Panics if the histogram is empty or `p` is out of range. Prefer
    /// [`Histogram::try_percentile`] when the histogram may be empty
    /// (e.g. rendering a report for an operation that never ran).
    pub fn percentile(&mut self, p: f64) -> SimDuration {
        self.try_percentile(p).expect("empty histogram")
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

    /// The standard report row: count, mean, p50/p95/p99/p99.9, and max.
    /// Safe on an empty histogram (the percentile/max fields are `None`
    /// and render as `-`).
    pub fn summary(&mut self) -> Summary {
        let count = self.count();
        Summary {
            count,
            mean: self.mean(),
            p50: self.try_percentile(0.50),
            p95: self.try_percentile(0.95),
            p99: self.try_percentile(0.99),
            p999: self.try_percentile(0.999),
            max: (count > 0).then(|| self.max()),
        }
    }

    /// Smallest sample. [`SimDuration::ZERO`] when empty.
    pub fn min(&mut self) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        self.ensure_sorted();
        SimDuration::from_micros(self.samples[0])
    }

    /// Largest sample. [`SimDuration::ZERO`] when empty.
    pub fn max(&mut self) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        self.ensure_sorted();
        SimDuration::from_micros(*self.samples.last().expect("non-empty"))
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

/// One-line latency digest of a [`Histogram`] (see [`Histogram::summary`]).
///
/// `Display` renders milliseconds with `-` for statistics an empty
/// histogram cannot provide, so report tables stay aligned even for
/// operations that never ran.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean ([`SimDuration::ZERO`] when empty).
    pub mean: SimDuration,
    /// Median, if any samples exist.
    pub p50: Option<SimDuration>,
    /// 95th percentile, if any samples exist.
    pub p95: Option<SimDuration>,
    /// 99th percentile, if any samples exist.
    pub p99: Option<SimDuration>,
    /// 99.9th percentile, if any samples exist — the tail the far-site
    /// starvation analysis watches (a fair lock keeps p99.9 close to
    /// p99; a starving site's p99.9 runs away).
    pub p999: Option<SimDuration>,
    /// Largest sample, if any samples exist.
    pub max: Option<SimDuration>,
}

impl Summary {
    fn fmt_opt(d: Option<SimDuration>) -> String {
        match d {
            Some(d) => format!("{:.2}", d.as_millis_f64()),
            None => "-".to_string(),
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={} p50={} p95={} p99={} p999={} max={}",
            self.count,
            Self::fmt_opt((self.count > 0).then_some(self.mean)),
            Self::fmt_opt(self.p50),
            Self::fmt_opt(self.p95),
            Self::fmt_opt(self.p99),
            Self::fmt_opt(self.p999),
            Self::fmt_opt(self.max),
        )
    }
}

/// Throughput accumulator over a virtual-time measurement window.
#[derive(Copy, Clone, Debug)]
pub struct Throughput {
    started: SimTime,
    ops: u64,
}

impl Throughput {
    /// Starts a measurement window at `now`.
    pub fn start(now: SimTime) -> Self {
        Throughput {
            started: now,
            ops: 0,
        }
    }

    /// Counts `n` completed operations.
    pub fn add(&mut self, n: u64) {
        self.ops += n;
    }

    /// Total operations counted.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Operations per virtual second as of `now`. Zero if no time elapsed.
    pub fn ops_per_sec(&self, now: SimTime) -> f64 {
        let secs = (now - self.started).as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.ops as f64 / secs
        }
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

    #[test]
    fn mean_and_extremes() {
        let mut h = hist(&[10, 20, 30]);
        assert_eq!(h.mean().as_millis(), 20);
        assert_eq!(h.min().as_millis(), 10);
        assert_eq!(h.max().as_millis(), 30);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut h = hist(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(h.percentile(0.5).as_millis(), 5);
        assert_eq!(h.percentile(0.9).as_millis(), 9);
        assert_eq!(h.percentile(0.99).as_millis(), 10);
        assert_eq!(h.percentile(0.0).as_millis(), 1);
        assert_eq!(h.percentile(1.0).as_millis(), 10);
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
        assert_eq!(h.min(), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::ZERO);
        assert!(h.cdf(5).is_empty());
    }

    #[test]
    #[should_panic(expected = "empty histogram")]
    fn percentile_of_empty_panics() {
        let mut h = Histogram::new();
        let _ = h.percentile(0.5);
    }

    #[test]
    fn try_percentile_is_total() {
        let mut empty = Histogram::new();
        assert_eq!(empty.try_percentile(0.5), None);
        let mut h = hist(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(h.try_percentile(0.5).unwrap().as_millis(), 5);
        assert_eq!(h.try_percentile(0.5), Some(h.percentile(0.5)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn try_percentile_still_validates_p() {
        let mut h = hist(&[1]);
        let _ = h.try_percentile(1.5);
    }

    #[test]
    fn summary_reports_the_standard_row() {
        let mut h = hist(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let s = h.summary();
        assert_eq!(s.count, 10);
        assert_eq!(s.mean.as_millis(), 5);
        assert_eq!(s.p50.unwrap().as_millis(), 5);
        assert_eq!(s.p95.unwrap().as_millis(), 10);
        assert_eq!(s.p99.unwrap().as_millis(), 10);
        assert_eq!(s.p999.unwrap().as_millis(), 10);
        assert_eq!(s.max.unwrap().as_millis(), 10);
        assert_eq!(
            s.to_string(),
            "n=10 mean=5.50 p50=5.00 p95=10.00 p99=10.00 p999=10.00 max=10.00"
        );
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
        let s = h.summary();
        assert_eq!(s.p99.unwrap().as_millis(), 1);
        assert_eq!(s.p999.unwrap().as_millis(), 500);
    }

    #[test]
    fn summary_of_empty_renders_dashes() {
        let mut h = Histogram::new();
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50, None);
        assert_eq!(s.to_string(), "n=0 mean=- p50=- p95=- p99=- p999=- max=-");
    }

    #[test]
    fn throughput_math() {
        let mut t = Throughput::start(SimTime::ZERO);
        t.add(500);
        let now = SimTime::ZERO + SimDuration::from_secs(5);
        assert_eq!(t.ops(), 500);
        assert!((t.ops_per_sec(now) - 100.0).abs() < 1e-9);
        assert_eq!(t.ops_per_sec(SimTime::ZERO), 0.0);
    }
}
