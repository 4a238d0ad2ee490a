//! Order statistics for timings: medians and the tail percentile a
//! sample can support.

/// Percentiles tried for the tail, highest first.
const TAIL_LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// Samples that must lie beyond a percentile before it is reported.
const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile `q` of an ascending slice (`0.0` if empty).
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `values` (`0.0` if empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// Mean of `values` (`0.0` if empty).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// A latency sample summarised as its median and its tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// The percentile reported as the tail, in `(0, 1]`; `1.0` means
    /// the sample was too small for any percentile and the tail is its
    /// maximum.
    pub tail_q: f64,
    /// Value at `tail_q`.
    pub tail: f64,
}

/// The highest percentile of the ladder that has at least
/// [`TAIL_BEYOND`] samples beyond it in a sample of `n`, if any.
#[must_use]
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&q| {
        let rank = (q * n as f64).ceil() as usize;
        n >= rank + TAIL_BEYOND
    })
}

/// Summarises `values`: median plus the highest supported tail
/// percentile, or the maximum when no percentile is supported.
#[must_use]
pub fn summarize(values: &[f64]) -> Summary {
    let s = sorted(values);
    let (tail_q, tail) = match tail_quantile(s.len()) {
        Some(q) => (q, percentile(&s, q)),
        None => (1.0, s.last().copied().unwrap_or(0.0)),
    };
    Summary {
        n: s.len(),
        p50: percentile(&s, 0.5),
        p90: percentile(&s, 0.9),
        tail_q,
        tail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(39), Some(0.5));
        assert_eq!(tail_quantile(40), Some(0.75));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(199), Some(0.9));
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(999), Some(0.95));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        // Whatever percentile is chosen, at least ten samples of a
        // strictly increasing sample lie beyond its value.
        for n in [20usize, 57, 130, 480, 2500] {
            let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let s = summarize(&values);
            let beyond = values.iter().filter(|&&v| v > s.tail).count();
            assert!(
                beyond >= TAIL_BEYOND,
                "n={n} q={} beyond={beyond}",
                s.tail_q
            );
        }
    }

    #[test]
    fn small_samples_report_their_maximum() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.n, s.p50, s.tail_q, s.tail), (3, 2.0, 1.0, 3.0));
        assert_eq!(summarize(&[]).tail, 0.0);
    }

    #[test]
    fn median_and_percentile_use_nearest_rank() {
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 1.0), 4.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
