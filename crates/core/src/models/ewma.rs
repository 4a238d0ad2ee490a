//! Exponentially weighted moving average: the minimal time-awareness
//! model.

use super::{Forecaster, OnlineModel};
use serde::{Deserialize, Serialize};

/// EWMA level estimator / one-step forecaster.
///
/// `level ← level + α (x − level)`. Small `α` = long memory.
///
/// # Example
///
/// ```
/// use selfaware::models::ewma::Ewma;
/// use selfaware::models::{Forecaster, OnlineModel};
///
/// let mut m = Ewma::new(0.5);
/// assert_eq!(m.forecast(), None); // cold
/// m.observe(10.0);
/// m.observe(20.0);
/// assert_eq!(m.forecast(), Some(15.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ewma {
    alpha: f64,
    level: f64,
    n: u64,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not in `(0, 1]`.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0,1], got {alpha}"
        );
        Self {
            alpha,
            level: 0.0,
            n: 0,
        }
    }

    /// The smoothing factor.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Current smoothed level (0 while cold).
    #[must_use]
    pub fn level(&self) -> f64 {
        self.level
    }
}

impl OnlineModel for Ewma {
    fn observe(&mut self, x: f64) {
        if self.n == 0 {
            self.level = x;
        } else {
            self.level += self.alpha * (x - self.level);
        }
        self.n += 1;
    }

    fn observations(&self) -> u64 {
        self.n
    }
}

impl Forecaster for Ewma {
    fn forecast(&self) -> Option<f64> {
        (self.n > 0).then_some(self.level)
    }
}

/// EWMA of the *variance* of a signal, useful for volatility-aware
/// attention and anomaly scoring.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EwmaVariance {
    mean: Ewma,
    var: f64,
    alpha: f64,
    n: u64,
}

impl EwmaVariance {
    /// Creates an EWMA variance tracker with smoothing factor `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not in `(0, 1]`.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        Self {
            mean: Ewma::new(alpha),
            var: 0.0,
            alpha,
            n: 0,
        }
    }

    /// Feeds one observation.
    pub fn observe(&mut self, x: f64) {
        let prev_mean = self.mean.level();
        self.mean.observe(x);
        if self.n > 0 {
            let dev = (x - prev_mean) * (x - self.mean.level());
            self.var = (1.0 - self.alpha) * self.var + self.alpha * dev;
        }
        self.n += 1;
    }

    /// Smoothed variance estimate (0 while cold).
    #[must_use]
    pub fn variance(&self) -> f64 {
        self.var.max(0.0)
    }

    /// Smoothed standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smoothed mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean.level()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_observation_sets_level() {
        let mut m = Ewma::new(0.1);
        m.observe(42.0);
        assert_eq!(m.forecast(), Some(42.0));
        assert_eq!(m.observations(), 1);
    }

    #[test]
    fn converges_to_constant_signal() {
        let mut m = Ewma::new(0.3);
        for _ in 0..200 {
            m.observe(7.0);
        }
        assert!((m.level() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn tracks_step_change() {
        let mut m = Ewma::new(0.5);
        for _ in 0..50 {
            m.observe(0.0);
        }
        for _ in 0..50 {
            m.observe(10.0);
        }
        assert!((m.level() - 10.0).abs() < 0.01);
    }

    #[test]
    fn small_alpha_is_smoother() {
        let mut fast = Ewma::new(0.9);
        let mut slow = Ewma::new(0.1);
        for x in [0.0, 0.0, 0.0, 10.0] {
            fast.observe(x);
            slow.observe(x);
        }
        assert!(fast.level() > slow.level());
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0,1]")]
    fn invalid_alpha_panics() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0,1]")]
    fn alpha_above_one_panics() {
        let _ = Ewma::new(1.5);
    }

    #[test]
    fn variance_tracker_on_noise() {
        use rand::Rng as _;
        let mut v = EwmaVariance::new(0.05);
        let mut rng = simkernel::SeedTree::new(1).rng("noise");
        for _ in 0..5000 {
            v.observe(5.0 + rng.gen_range(-1.0..1.0));
        }
        // Uniform(-1,1) has variance 1/3.
        assert!((v.mean() - 5.0).abs() < 0.2);
        assert!((v.variance() - 1.0 / 3.0).abs() < 0.15);
    }

    #[test]
    fn variance_zero_for_constant() {
        let mut v = EwmaVariance::new(0.2);
        for _ in 0..100 {
            v.observe(3.0);
        }
        assert!(v.variance() < 1e-9);
    }
}
