//! Streaming statistics used by every experiment in the workspace.
//!
//! [`OnlineStats`] implements Welford's numerically stable one-pass
//! algorithm for mean and variance, with min/max tracking.
//! [`Percentiles`] keeps an exact sorted sample (the experiments here
//! are small enough that an exact buffer beats a sketch in both
//! simplicity and fidelity). [`OnlineStats::ci95_halfwidth`] gives the
//! Student-t 95% confidence half-interval used in the printed tables
//! (critical values from [`t975`]).

use serde::{Deserialize, Serialize};
use std::fmt;

/// One-pass mean/variance/min/max accumulator (Welford).
///
/// # Example
///
/// ```
/// use simkernel::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 if empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divides by n; 0 if empty).
    #[must_use]
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample variance (divides by n-1; 0 if fewer than 2 samples).
    #[must_use]
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Minimum observed value (+inf if empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observed value (-inf if empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }

    /// Half-width of the Student-t 95% confidence interval of the
    /// mean (`t₀.₉₇₅(n−1) · s / √n`; 0 if fewer than 2 samples).
    ///
    /// The t critical value matters at the replicate counts the
    /// experiments actually run: the old normal approximation
    /// (z = 1.96) understated the interval by 42% at n = 5 and by
    /// 14% at n = 10.
    #[must_use]
    pub fn ci95_halfwidth(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            t975(self.n - 1) * self.std_dev() / (self.n as f64).sqrt()
        }
    }
}

/// Two-sided 95% Student-t critical value (97.5th percentile of the
/// t-distribution) for `df` degrees of freedom.
///
/// Exact table for df ≤ 30; beyond that the Cornish–Fisher-style
/// asymptotic `z + (z³ + z)/(4·df)` with z = 1.96 is accurate to
/// < 0.002 (checked against standard tables at df = 40, 60, 120 in
/// the unit tests) and converges to 1.96 as df → ∞.
#[must_use]
pub fn t975(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[(df - 1) as usize],
        _ => {
            const Z: f64 = 1.96;
            Z + (Z * Z * Z + Z) / (4.0 * df as f64)
        }
    }
}

impl fmt::Display for OnlineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.n,
            self.mean(),
            self.std_dev(),
            self.min,
            self.max
        )
    }
}

impl Default for OnlineStats {
    fn default() -> Self {
        Self::new()
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = OnlineStats::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

/// Exact percentile estimator over a retained sample.
///
/// Keeps every pushed value; percentile queries sort lazily. Suitable
/// for the ≤10⁶-sample workloads in this repo.
///
/// # Example
///
/// ```
/// use simkernel::stats::Percentiles;
/// let mut p = Percentiles::new();
/// for x in 1..=100 {
///     p.push(x as f64);
/// }
/// assert!((p.quantile(0.5).unwrap() - 50.5).abs() < 1.0);
/// assert_eq!(p.quantile(1.0), Some(100.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Percentiles {
    values: Vec<f64>,
    sorted: bool,
}

impl Percentiles {
    /// Creates an empty estimator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            values: Vec::new(),
            sorted: true,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.values.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no observations have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            self.sorted = true;
        }
    }

    /// Linear-interpolated quantile `q ∈ [0, 1]`; `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` or NaN.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.values.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let n = self.values.len();
        if n == 1 {
            return Some(self.values[0]);
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.values[lo] * (1.0 - frac) + self.values[hi] * frac)
    }

    /// Convenience: the median.
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Convenience: the 95th percentile (tail-latency staple).
    pub fn p95(&mut self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// Convenience: the 99th percentile.
    pub fn p99(&mut self) -> Option<f64> {
        self.quantile(0.99)
    }
}

impl FromIterator<f64> for Percentiles {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut p = Percentiles::new();
        for x in iter {
            p.push(x);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 10.0 + 3.0).collect();
        let s: OnlineStats = data.iter().copied().collect();
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-9);
        assert!((s.sample_variance() - var).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.ci95_halfwidth(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..500).map(|i| ((i * 37) % 101) as f64).collect();
        let (a, b) = data.split_at(137);
        let mut sa: OnlineStats = a.iter().copied().collect();
        let sb: OnlineStats = b.iter().copied().collect();
        sa.merge(&sb);
        let all: OnlineStats = data.iter().copied().collect();
        assert_eq!(sa.count(), all.count());
        assert!((sa.mean() - all.mean()).abs() < 1e-9);
        assert!((sa.sample_variance() - all.sample_variance()).abs() < 1e-9);
        assert_eq!(sa.min(), all.min());
        assert_eq!(sa.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: OnlineStats = [1.0, 2.0, 3.0].into_iter().collect();
        let before = s;
        s.merge(&OnlineStats::new());
        assert_eq!(s, before);
        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn default_is_empty_like_new() {
        assert_eq!(OnlineStats::default(), OnlineStats::new());
        let mut s = OnlineStats::default();
        s.push(5.0);
        assert_eq!(s.min(), 5.0);
        assert_eq!(s.max(), 5.0);
    }

    #[test]
    fn min_max_sum() {
        let s: OnlineStats = [3.0, -1.0, 7.0].into_iter().collect();
        assert_eq!(s.min(), -1.0);
        assert_eq!(s.max(), 7.0);
        assert!((s.sum() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_interpolate() {
        let mut p: Percentiles = (1..=4).map(f64::from).collect();
        assert_eq!(p.quantile(0.0), Some(1.0));
        assert_eq!(p.quantile(1.0), Some(4.0));
        assert!((p.median().unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_single_and_empty() {
        let mut p = Percentiles::new();
        assert_eq!(p.median(), None);
        p.push(42.0);
        assert_eq!(p.quantile(0.3), Some(42.0));
        assert_eq!(p.len(), 1);
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0,1]")]
    fn percentile_out_of_range_panics() {
        let mut p: Percentiles = [1.0].into_iter().collect();
        let _ = p.quantile(1.5);
    }

    #[test]
    fn percentiles_resort_after_push() {
        let mut p = Percentiles::new();
        p.push(10.0);
        p.push(1.0);
        assert_eq!(p.quantile(0.0), Some(1.0));
        p.push(0.5);
        assert_eq!(p.quantile(0.0), Some(0.5));
    }

    #[test]
    fn t_critical_values_match_tables() {
        // n = 2, 5, 30, 1000 → df = 1, 4, 29, 999 (the satellite's
        // required sample sizes).
        assert!((t975(1) - 12.706).abs() < 1e-9);
        assert!((t975(4) - 2.776).abs() < 1e-9);
        assert!((t975(29) - 2.045).abs() < 1e-9);
        assert!((t975(999) - 1.962).abs() < 5e-3);
        // Asymptotic branch against standard tables.
        assert!((t975(40) - 2.021).abs() < 5e-3);
        assert!((t975(60) - 2.000).abs() < 5e-3);
        assert!((t975(120) - 1.980).abs() < 5e-3);
        // Monotone decreasing toward z, never below it.
        assert!(t975(5) > t975(10) && t975(10) > t975(100));
        assert!(t975(1_000_000) > 1.96 && t975(1_000_000) < 1.9601);
        assert_eq!(t975(0), f64::INFINITY);
    }

    #[test]
    fn ci95_uses_student_t_not_normal() {
        // Regression: the old implementation multiplied by z = 1.96
        // for every n, understating small-sample intervals. At
        // n = 2, 5, 30, 1000 the half-width must equal t·s/√n and
        // strictly exceed the normal approximation.
        for n in [2u64, 5, 30, 1000] {
            let s: OnlineStats = (0..n).map(|i| (i % 7) as f64).collect();
            let expected = t975(n - 1) * s.std_dev() / (n as f64).sqrt();
            let z_width = 1.96 * s.std_dev() / (n as f64).sqrt();
            assert!((s.ci95_halfwidth() - expected).abs() < 1e-12, "n={n}");
            assert!(s.ci95_halfwidth() > z_width, "n={n}");
        }
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let small: OnlineStats = (0..10).map(|i| f64::from(i % 3)).collect();
        let large: OnlineStats = (0..1000).map(|i| f64::from(i % 3)).collect();
        assert!(large.ci95_halfwidth() < small.ci95_halfwidth());
    }
}
