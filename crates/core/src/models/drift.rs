//! Concept-drift / change detection: the *trigger* of
//! meta-self-awareness.
//!
//! A self-aware system must notice when the world has changed enough
//! that its own models are stale (paper Sections II and IV; Minku's
//! DDD ensemble work \[9\] is the cited exemplar of drift handling).
//! [`PageHinkley`] — the classic sequential test for mean shifts — is
//! the detector the supervision layer, the meta-level exploration
//! governor and the self-aware cloud strategy all use.

use serde::{Deserialize, Serialize};

/// Page–Hinkley test for (two-sided) mean shift.
///
/// # Example
///
/// ```
/// use selfaware::models::drift::PageHinkley;
///
/// let mut d = PageHinkley::new(0.05, 5.0);
/// for _ in 0..200 {
///     assert!(!d.observe(0.0));
/// }
/// let mut fired = false;
/// for _ in 0..50 {
///     fired |= d.observe(3.0); // mean shift
/// }
/// assert!(fired);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PageHinkley {
    delta: f64,
    lambda: f64,
    mean: f64,
    n: u64,
    m_up: f64,
    min_up: f64,
    m_dn: f64,
    max_dn: f64,
    detections: u32,
}

impl PageHinkley {
    /// Creates a detector with tolerance `delta` (magnitude of drift
    /// considered insignificant) and threshold `lambda`.
    ///
    /// # Panics
    ///
    /// Panics if `delta < 0` or `lambda <= 0`.
    #[must_use]
    pub fn new(delta: f64, lambda: f64) -> Self {
        assert!(delta >= 0.0, "delta must be non-negative");
        assert!(lambda > 0.0, "lambda must be positive");
        Self {
            delta,
            lambda,
            mean: 0.0,
            n: 0,
            m_up: 0.0,
            min_up: 0.0,
            m_dn: 0.0,
            max_dn: 0.0,
            detections: 0,
        }
    }

    /// Feeds one observation; returns `true` if a change is detected
    /// at this sample (the detector resets itself on detection).
    pub fn observe(&mut self, x: f64) -> bool {
        self.n += 1;
        self.mean += (x - self.mean) / self.n as f64;
        // Upward shift statistic.
        self.m_up += x - self.mean - self.delta;
        self.min_up = self.min_up.min(self.m_up);
        // Downward shift statistic.
        self.m_dn += x - self.mean + self.delta;
        self.max_dn = self.max_dn.max(self.m_dn);
        let up = self.m_up - self.min_up > self.lambda;
        let dn = self.max_dn - self.m_dn > self.lambda;
        if up || dn {
            self.detections += 1;
            self.reset();
            true
        } else {
            false
        }
    }

    /// Number of changes detected so far.
    #[must_use]
    pub fn detections(&self) -> u32 {
        self.detections
    }

    /// Resets internal state (keeps the detection counter).
    pub fn reset(&mut self) {
        self.mean = 0.0;
        self.n = 0;
        self.m_up = 0.0;
        self.min_up = 0.0;
        self.m_dn = 0.0;
        self.max_dn = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng as _;

    fn noisy_step_stream(seed: u64, pre: usize, post: usize, shift: f64) -> Vec<f64> {
        let mut rng = simkernel::SeedTree::new(seed).rng("drift");
        let mut v = Vec::new();
        for _ in 0..pre {
            v.push(rng.gen_range(-0.5..0.5));
        }
        for _ in 0..post {
            v.push(shift + rng.gen_range(-0.5..0.5));
        }
        v
    }

    fn detects_after_change(d: &mut PageHinkley, stream: &[f64], change_at: usize) -> bool {
        for (i, &x) in stream.iter().enumerate() {
            if d.observe(x) {
                assert!(
                    i >= change_at,
                    "false alarm at sample {i} before the change at {change_at}"
                );
                return true;
            }
        }
        false
    }

    #[test]
    fn page_hinkley_detects_step() {
        let s = noisy_step_stream(1, 300, 100, 3.0);
        let mut d = PageHinkley::new(0.1, 20.0);
        assert!(detects_after_change(&mut d, &s, 300));
        assert_eq!(d.detections(), 1);
    }

    #[test]
    fn page_hinkley_detects_downward_step() {
        let s = noisy_step_stream(2, 300, 100, -3.0);
        let mut d = PageHinkley::new(0.1, 20.0);
        assert!(detects_after_change(&mut d, &s, 300));
    }

    #[test]
    fn page_hinkley_quiet_on_stationary() {
        let s = noisy_step_stream(3, 2000, 0, 0.0);
        let mut d = PageHinkley::new(0.1, 50.0);
        for x in s {
            assert!(!d.observe(x));
        }
        assert_eq!(d.detections(), 0);
    }

    #[test]
    fn detectors_rearm_after_detection() {
        let mut d = PageHinkley::new(0.05, 10.0);
        let mut stream = noisy_step_stream(7, 200, 200, 3.0);
        stream.extend(noisy_step_stream(8, 0, 200, -3.0));
        let mut count = 0;
        for x in stream {
            if d.observe(x) {
                count += 1;
            }
        }
        assert!(count >= 2, "should detect both shifts, got {count}");
        assert_eq!(d.detections(), count);
    }

    #[test]
    #[should_panic(expected = "lambda must be positive")]
    fn bad_lambda_panics() {
        let _ = PageHinkley::new(0.1, 0.0);
    }
}
