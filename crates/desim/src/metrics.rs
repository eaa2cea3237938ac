//! Streaming measurement primitives.
//!
//! Experiments run for (simulated) hours at tens of requests per second, so
//! per-sample storage is wasteful. [`Welford`] keeps exact moments in
//! constant memory; [`Summary`] pairs it with a [`LogHistogram`] for
//! quantiles, so one response-time series merges exactly across shards.

use crate::recorder::LogHistogram;
use crate::time::SimDuration;

/// The 1-based nearest rank for quantile `q` over `total` samples:
/// `⌈q·total⌉` clamped into `[1, total]`, or 0 when the series is empty.
///
/// This is *the* quantile-rank rule of the workspace — [`LogHistogram`] and
/// the report/bench percentile tables resolve ranks through it, so "p95"
/// means the same sample everywhere.
pub fn nearest_rank(total: u64, q: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total)
}

/// Count-weighted mean over `(mean, count)` parts; `None` when every part
/// is empty. Pools per-group response-time means into a population mean
/// without re-walking samples.
pub fn weighted_mean(parts: impl IntoIterator<Item = (f64, u64)>) -> Option<f64> {
    let mut total = 0.0;
    let mut n = 0u64;
    for (mean, count) in parts {
        total += mean * count as f64;
        n += count;
    }
    if n == 0 {
        None
    } else {
        Some(total / n as f64)
    }
}

/// Maximum over the values, `None` when empty. The conservative way to pool
/// a tail percentile across client groups: the population p95 is bounded by
/// the worst per-group p95, and reports quote that bound.
pub fn pooled_max(values: impl IntoIterator<Item = f64>) -> Option<f64> {
    values.into_iter().fold(None, |acc: Option<f64>, v| {
        Some(acc.map_or(v, |a| a.max(v)))
    })
}

/// Welford's online algorithm for mean and variance.
///
/// ```
/// use mutsvc_desim::metrics::Welford;
///
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 6.0] {
///     w.record(x);
/// }
/// assert_eq!(w.mean(), 4.0);
/// assert_eq!(w.variance(), 4.0); // sample variance
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample. Non-finite samples are ignored (and debug-asserted).
    pub fn record(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite sample {x}");
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest sample (0 if empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 if empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The statistics of one measured series (e.g. one page's response time
/// for one client group): exact moments plus a log-bucketed distribution.
///
/// ```
/// use mutsvc_desim::Summary;
///
/// let mut a = Summary::new();
/// let mut b = Summary::new();
/// a.record(100.0);
/// b.record(300.0);
/// a.merge(&b);
/// assert_eq!(a.mean(), 200.0);
/// assert!(a.quantile(1.0) >= 300.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    welford: Welford,
    hist: LogHistogram,
}

impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            welford: Welford::new(),
            hist: LogHistogram::new(),
        }
    }

    /// Records one sample (typically milliseconds).
    pub fn record(&mut self, x: f64) {
        self.welford.record(x);
        self.hist.record(x);
    }

    /// Records a duration sample in milliseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_millis_f64());
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.welford.count()
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.welford.mean()
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.welford.std_dev()
    }

    /// Nearest-rank quantile `q`, resolved to its bucket's upper bound
    /// (see [`LogHistogram::quantile`]); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        self.hist.quantile(q)
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.welford.min()
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        self.welford.max()
    }

    /// Merges another summary into this one. Moments combine via parallel
    /// Welford and the distribution by per-bucket addition, so a series
    /// split across shards and merged in order equals the single stream.
    pub fn merge(&mut self, other: &Summary) {
        self.welford.merge(&other.welford);
        self.hist.merge(&other.hist);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_clamped_and_ceiled() {
        assert_eq!(nearest_rank(0, 0.5), 0);
        assert_eq!(nearest_rank(10, 0.0), 1);
        assert_eq!(nearest_rank(10, 1.0), 10);
        assert_eq!(nearest_rank(10, 0.95), 10);
        assert_eq!(nearest_rank(100, 0.95), 95);
        assert_eq!(nearest_rank(3, 0.5), 2);
        // Out-of-range quantiles clamp instead of indexing out of bounds.
        assert_eq!(nearest_rank(10, -1.0), 1);
        assert_eq!(nearest_rank(10, 2.0), 10);
    }

    #[test]
    fn weighted_mean_pools_by_count() {
        assert_eq!(weighted_mean([]), None);
        assert_eq!(weighted_mean([(5.0, 0)]), None);
        assert_eq!(weighted_mean([(10.0, 1), (20.0, 3)]), Some(17.5));
        assert_eq!(weighted_mean([(4.0, 2), (0.0, 0)]), Some(4.0));
    }

    #[test]
    fn pooled_max_is_none_when_empty() {
        assert_eq!(pooled_max([]), None);
        assert_eq!(pooled_max([3.0, 9.0, 1.0]), Some(9.0));
    }

    #[test]
    fn welford_matches_two_pass() {
        let data: Vec<f64> = (1..=100).map(|i| (i as f64).sin() * 10.0 + 50.0).collect();
        let mut w = Welford::new();
        for &x in &data {
            w.record(x);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-9);
        assert!((w.variance() - var).abs() < 1e-9);
        assert_eq!(w.count(), 100);
    }

    #[test]
    fn welford_merge_equals_single_stream() {
        let data: Vec<f64> = (0..500).map(|i| (i as f64 * 0.37).cos() * 3.0).collect();
        let mut all = Welford::new();
        let mut a = Welford::new();
        let mut b = Welford::new();
        for (i, &x) in data.iter().enumerate() {
            all.record(x);
            if i % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn empty_accumulators_report_zero() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.min(), 0.0);
        assert_eq!(w.max(), 0.0);
        assert_eq!(Summary::new().quantile(0.95), 0.0);
    }

    /// Splits `xs` round-robin over `shards` summaries, merges them in
    /// ascending shard order, and checks the result against the single
    /// stream: count, extremes, buckets and quantiles bit for bit; the
    /// float moments up to summation order.
    fn assert_split_merge_matches(xs: &[f64], shards: usize) {
        let mut single = Summary::new();
        let mut parts = vec![Summary::new(); shards];
        for (i, &x) in xs.iter().enumerate() {
            single.record(x);
            parts[i % shards].record(x);
        }
        let mut merged = Summary::new();
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged.count(), single.count());
        assert_eq!(merged.min(), single.min());
        assert_eq!(merged.max(), single.max());
        assert!((merged.mean() - single.mean()).abs() <= 1e-9 * single.mean().abs().max(1.0));
        assert!((merged.std_dev() - single.std_dev()).abs() <= 1e-9 * single.std_dev().max(1.0));
        assert_eq!(merged.hist, single.hist, "buckets");
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(
                merged.quantile(q).to_bits(),
                single.quantile(q).to_bits(),
                "q={q}"
            );
        }
    }

    #[test]
    fn summary_merge_equals_single_stream() {
        let mut x = 0.0f64;
        let xs: Vec<f64> = (0..5_000)
            .map(|_| {
                x = (x + 618.033_988_75) % 1000.0;
                x
            })
            .collect();
        for shards in [2, 3, 8] {
            assert_split_merge_matches(&xs, shards);
        }
    }

    #[test]
    fn summary_tracks_duration_samples() {
        let mut s = Summary::new();
        for ms in 1..=99u64 {
            s.record_duration(SimDuration::from_millis(ms));
        }
        assert_eq!(s.count(), 99);
        assert!((s.mean() - 50.0).abs() < 1e-9);
        // The median sample is 50 ms; the quantile is its bucket's upper
        // bound, at most one eighth above it.
        let p50 = s.quantile(0.5);
        assert!((50.0..=50.0 * 1.125).contains(&p50), "p50 {p50}");
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 99.0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn welford_mean_within_bounds(xs in proptest::collection::vec(-1e6f64..1e6, 1..300)) {
                let mut w = Welford::new();
                for &x in &xs {
                    w.record(x);
                }
                let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(w.mean() >= lo - 1e-6 && w.mean() <= hi + 1e-6);
                prop_assert!(w.variance() >= -1e-9);
            }

            #[test]
            fn summary_merge_equals_single_stream_any_split(
                xs in proptest::collection::vec(0f64..1e4, 1..400),
                shards in 1usize..6,
            ) {
                assert_split_merge_matches(&xs, shards);
            }
        }
    }
}
