//! Small statistics and bookkeeping helpers: medians and quartiles (the
//! same definition as Python's `statistics.quantiles(values, n=4)`), the
//! reported tail percentile, the metric-name grammar, and the
//! attempted/failed operation tally.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN value.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile of `values`, computed like
/// Python's `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method). With a single value all three are that value.
///
/// # Panics
///
/// Panics on an empty slice or a NaN value.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("NaN in timing samples"));
    let n = data.len();
    if n == 1 {
        return (data[0], data[0], data[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    let mid = if n % 2 == 1 {
        data[n / 2]
    } else {
        (data[n / 2 - 1] + data[n / 2]) / 2.0
    };
    (cut(1), mid, cut(3))
}

/// The percentiles a timing may be reported at, highest last.
const PERCENTILES: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// The highest percentile in {50, 90, 95, 99, 99.9, 99.99} that leaves at
/// least ten of `samples` beyond it, or `None` when even the median does not
/// (fewer than 20 samples).
pub fn tail_percentile(samples: usize) -> Option<f64> {
    PERCENTILES
        .into_iter()
        .rev()
        .find(|&p| samples as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Nearest-rank value of `values` at percentile `p` (0 < p ≤ 100).
///
/// # Panics
///
/// Panics on an empty slice or a NaN value.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("NaN in timing samples"));
    let rank = ((p / 100.0) * data.len() as f64).ceil() as usize;
    data[rank.clamp(1, data.len()) - 1]
}

/// Whether `name` is a valid metric or workload name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Counts operations (correctness checks and workload runs) and the ones
/// that failed. A run fails when it panics; a check fails when its
/// condition is false.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Records one check.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(name.to_string());
        }
    }

    /// Runs `f` as one operation; a panic counts as a failure and yields
    /// `None`.
    pub fn run<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> Option<T> {
        let result = catch_unwind(AssertUnwindSafe(f)).ok();
        self.check(name, result.is_some());
        result
    }

    /// Operations attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations that failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Names of the failed operations, in order.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Failed operations as a share of those attempted (0 when none ran).
    pub fn failure_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] (clamped
        // index, extrapolated weight)
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 2.0, 1.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    #[should_panic(expected = "no values")]
    fn quartiles_reject_empty_input() {
        quartiles(&[]);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "setup_s",
            "desim.queue_ns",
            "placement.apply_undo_ns.h256",
            "9x",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".dot",
            "has space",
            "slash/x",
            "ünï",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn tally_counts_checks_and_panicking_runs() {
        let mut tally = Tally::default();
        assert_eq!(tally.failure_share(), 0.0);
        tally.check("ok", true);
        tally.check("bad", false);
        assert_eq!(tally.run("fine", || 7), Some(7));
        let crashed: Option<()> = tally.run("boom", || panic!("injected"));
        assert_eq!(crashed, None);
        assert_eq!(tally.attempted(), 4);
        assert_eq!(tally.failed(), 2);
        assert_eq!(tally.failures(), ["bad", "boom"]);
        assert_eq!(tally.failure_share(), 0.5);
    }
}
