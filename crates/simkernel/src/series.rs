//! Time-series capture and ASCII rendering for the "figure" benchmarks.
//!
//! Figures in EXPERIMENTS.md are (time, value) series per strategy. A
//! [`TimeSeries`] records points (optionally bucket-averaged to bound
//! memory), and [`render_multi`] prints several aligned series as a
//! compact ASCII chart plus the raw bucket means, so the benchmark
//! output is both human-readable and machine-recoverable.

use crate::clock::Tick;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// A named sequence of `(tick, value)` samples with optional bucketing.
///
/// # Example
///
/// ```
/// use simkernel::{TimeSeries, Tick};
/// let mut s = TimeSeries::new("latency");
/// for t in 0..100u64 {
///     s.push(Tick(t), t as f64);
/// }
/// assert_eq!(s.len(), 100);
/// let b = s.bucketed(10);
/// assert_eq!(b.len(), 10);
/// assert!((b[0].1 - 4.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    name: String,
    points: Vec<(u64, f64)>,
}

impl TimeSeries {
    /// Creates an empty series called `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Series name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample.
    pub fn push(&mut self, t: Tick, value: f64) {
        self.points.push((t.value(), value));
    }

    /// Number of raw samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series has no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Raw samples as `(tick, value)` pairs.
    #[must_use]
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Mean value over all samples (0 if empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| p.1).sum::<f64>() / self.points.len() as f64
    }

    /// Down-samples into `buckets` equal-width time buckets, returning
    /// `(bucket_midpoint_tick, bucket_mean)` for each non-empty bucket.
    #[must_use]
    pub fn bucketed(&self, buckets: usize) -> Vec<(f64, f64)> {
        if self.points.is_empty() || buckets == 0 {
            return Vec::new();
        }
        let t_min = self.points.iter().map(|p| p.0).min().unwrap_or(0) as f64;
        let t_max = self.points.iter().map(|p| p.0).max().unwrap_or(0) as f64;
        let span = (t_max - t_min).max(1.0);
        let mut sums = vec![0.0; buckets];
        let mut counts = vec![0u64; buckets];
        for &(t, v) in &self.points {
            let mut idx = (((t as f64 - t_min) / span) * buckets as f64) as usize;
            if idx >= buckets {
                idx = buckets - 1;
            }
            sums[idx] += v;
            counts[idx] += 1;
        }
        (0..buckets)
            .filter(|&i| counts[i] > 0)
            .map(|i| {
                let mid = t_min + span * (i as f64 + 0.5) / buckets as f64;
                (mid, sums[i] / counts[i] as f64)
            })
            .collect()
    }
}

const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders one series as a unicode sparkline over `buckets` buckets.
#[must_use]
pub fn sparkline(series: &TimeSeries, buckets: usize) -> String {
    let b = series.bucketed(buckets);
    if b.is_empty() {
        return String::new();
    }
    let lo = b.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
    let hi = b.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    b.iter()
        .map(|&(_, v)| {
            let idx = (((v - lo) / span) * (GLYPHS.len() - 1) as f64).round() as usize;
            GLYPHS[idx.min(GLYPHS.len() - 1)]
        })
        .collect()
}

/// Renders several series on a shared scale: one sparkline row per
/// series plus the numeric bucket means, suitable for figure benches.
#[must_use]
pub fn render_multi(series: &[&TimeSeries], buckets: usize) -> String {
    let mut out = String::new();
    let all: Vec<Vec<(f64, f64)>> = series.iter().map(|s| s.bucketed(buckets)).collect();
    let lo = all
        .iter()
        .flatten()
        .map(|p| p.1)
        .fold(f64::INFINITY, f64::min);
    let hi = all
        .iter()
        .flatten()
        .map(|p| p.1)
        .fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    let name_w = series.iter().map(|s| s.name().len()).max().unwrap_or(4);
    for (s, b) in series.iter().zip(&all) {
        let spark: String = b
            .iter()
            .map(|&(_, v)| {
                let idx = (((v - lo) / span) * (GLYPHS.len() - 1) as f64).round() as usize;
                GLYPHS[idx.min(GLYPHS.len() - 1)]
            })
            .collect();
        let _ = writeln!(out, "{:name_w$} |{spark}|", s.name());
    }
    let _ = writeln!(out, "{:name_w$}  scale: [{lo:.3} .. {hi:.3}]", "");
    // Numeric dump (bucket means), one line per series.
    for (s, b) in series.iter().zip(&all) {
        let vals: Vec<String> = b.iter().map(|&(_, v)| format!("{v:.3}")).collect();
        let _ = writeln!(out, "{:name_w$} : {}", s.name(), vals.join(" "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(name: &str, n: u64) -> TimeSeries {
        let mut s = TimeSeries::new(name);
        for t in 0..n {
            s.push(Tick(t), t as f64);
        }
        s
    }

    #[test]
    fn push_and_len() {
        let s = ramp("r", 10);
        assert_eq!(s.len(), 10);
        assert!(!s.is_empty());
        assert_eq!(s.name(), "r");
        assert_eq!(s.points()[3], (3, 3.0));
    }

    #[test]
    fn mean_and_windowed_mean() {
        let s = ramp("r", 10);
        assert!((s.mean() - 4.5).abs() < 1e-12);
        // The first five samples alone.
        assert!((ramp("r", 5).mean() - 2.0).abs() < 1e-12);
        assert_eq!(TimeSeries::new("empty").mean(), 0.0);
    }

    #[test]
    fn bucketing_preserves_trend() {
        let s = ramp("r", 100);
        let b = s.bucketed(5);
        assert_eq!(b.len(), 5);
        for w in b.windows(2) {
            assert!(w[1].1 > w[0].1, "bucket means should be increasing");
        }
    }

    #[test]
    fn bucketing_edge_cases() {
        let empty = TimeSeries::new("e");
        assert!(empty.bucketed(4).is_empty());
        assert!(ramp("r", 5).bucketed(0).is_empty());
        let mut single = TimeSeries::new("s");
        single.push(Tick(3), 9.0);
        let b = single.bucketed(4);
        assert_eq!(b.len(), 1);
        assert!((b[0].1 - 9.0).abs() < 1e-12);
    }

    #[test]
    fn sparkline_monotone_ramp() {
        let s = ramp("r", 64);
        let sp = sparkline(&s, 8);
        assert_eq!(sp.chars().count(), 8);
        assert_eq!(sp.chars().next(), Some('▁'));
        assert_eq!(sp.chars().last(), Some('█'));
    }

    #[test]
    fn render_multi_contains_names_and_scale() {
        let a = ramp("alpha", 50);
        let b = ramp("beta", 50);
        let out = render_multi(&[&a, &b], 10);
        assert!(out.contains("alpha"));
        assert!(out.contains("beta"));
        assert!(out.contains("scale:"));
    }

    #[test]
    fn sparkline_empty_is_empty() {
        let s = TimeSeries::new("e");
        assert!(sparkline(&s, 8).is_empty());
    }
}
