//! Holt's linear (double-exponential) smoothing: level + trend
//! forecasting, the simplest model that can anticipate *where a signal
//! is going* rather than where it is.

use super::{Forecaster, OnlineModel};
use crate::supervision::Corruptible;
use serde::{Deserialize, Serialize};

/// Holt linear-trend forecaster.
///
/// ```text
/// level_t = α x_t + (1-α)(level_{t-1} + trend_{t-1})
/// trend_t = β (level_t − level_{t-1}) + (1-β) trend_{t-1}
/// forecast(h) = level_t + h · trend_t
/// ```
///
/// # Example
///
/// ```
/// use selfaware::models::holt::Holt;
/// use selfaware::models::{Forecaster, OnlineModel};
///
/// let mut m = Holt::new(0.8, 0.8);
/// for t in 0..50 {
///     m.observe(2.0 * t as f64); // perfect ramp, slope 2
/// }
/// let f1 = m.forecast().unwrap();
/// let f5 = m.forecast_h(5).unwrap();
/// assert!((f5 - f1 - 8.0).abs() < 0.5); // 4 extra steps × slope 2
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Holt {
    alpha: f64,
    beta: f64,
    level: f64,
    trend: f64,
    n: u64,
}

impl Holt {
    /// Creates a Holt forecaster with level smoothing `alpha` and
    /// trend smoothing `beta`.
    ///
    /// # Panics
    ///
    /// Panics if either factor is outside `(0, 1]`.
    #[must_use]
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        assert!(beta > 0.0 && beta <= 1.0, "beta must be in (0,1]");
        Self {
            alpha,
            beta,
            level: 0.0,
            trend: 0.0,
            n: 0,
        }
    }

    /// Current level estimate.
    #[must_use]
    pub fn level(&self) -> f64 {
        self.level
    }

    /// Current per-step trend estimate.
    #[must_use]
    pub fn trend(&self) -> f64 {
        self.trend
    }

    /// Overwrites the smoothing state, marking the model warm (two or
    /// more observations) so forecasts reflect the injected state
    /// immediately. Hook for checkpoint restore and for fault
    /// injection into controller self-models.
    pub fn set_state(&mut self, level: f64, trend: f64) {
        self.level = level;
        self.trend = trend;
        self.n = self.n.max(2);
    }
}

impl OnlineModel for Holt {
    fn observe(&mut self, x: f64) {
        match self.n {
            0 => self.level = x,
            1 => {
                self.trend = x - self.level;
                self.level = x;
            }
            _ => {
                let prev_level = self.level;
                self.level = self.alpha * x + (1.0 - self.alpha) * (self.level + self.trend);
                self.trend = self.beta * (self.level - prev_level) + (1.0 - self.beta) * self.trend;
            }
        }
        self.n += 1;
    }

    fn observations(&self) -> u64 {
        self.n
    }
}

impl Forecaster for Holt {
    fn forecast(&self) -> Option<f64> {
        self.forecast_h(1)
    }

    fn forecast_h(&self, h: u32) -> Option<f64> {
        (self.n >= 2).then(|| self.level + f64::from(h) * self.trend)
    }
}

impl Corruptible for Holt {
    fn poison(&mut self) {
        self.set_state(f64::NAN, f64::NAN);
    }

    /// Scales the level by `gain` and turns the trend around, inflated
    /// by `gain`, so forecasts run off the rails the other way.
    fn scramble(&mut self, gain: f64) {
        self.set_state(self.level * gain, -self.trend * gain - gain);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_until_two_observations() {
        let mut m = Holt::new(0.5, 0.5);
        assert_eq!(m.forecast(), None);
        m.observe(1.0);
        assert_eq!(m.forecast(), None);
        m.observe(2.0);
        assert!(m.forecast().is_some());
    }

    #[test]
    fn learns_linear_trend_exactly() {
        let mut m = Holt::new(0.9, 0.9);
        for t in 0..100 {
            m.observe(3.0 * t as f64 + 5.0);
        }
        assert!((m.trend() - 3.0).abs() < 1e-6);
        let expected_next = 3.0 * 100.0 + 5.0;
        assert!((m.forecast().unwrap() - expected_next).abs() < 1e-3);
    }

    #[test]
    fn flat_signal_zero_trend() {
        let mut m = Holt::new(0.5, 0.5);
        for _ in 0..100 {
            m.observe(4.0);
        }
        assert!(m.trend().abs() < 1e-9);
        assert!((m.forecast().unwrap() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn horizon_extrapolates_linearly() {
        let mut m = Holt::new(0.8, 0.8);
        for t in 0..50 {
            m.observe(t as f64);
        }
        let f1 = m.forecast_h(1).unwrap();
        let f10 = m.forecast_h(10).unwrap();
        assert!((f10 - f1 - 9.0).abs() < 0.1);
    }

    #[test]
    fn beats_ewma_on_ramps() {
        use super::super::ewma::Ewma;
        let mut holt = Holt::new(0.5, 0.5);
        let mut ewma = Ewma::new(0.5);
        let mut err_holt = 0.0;
        let mut err_ewma = 0.0;
        for t in 0..200 {
            let x = t as f64;
            if let Some(f) = holt.forecast() {
                err_holt += (f - x).abs();
            }
            if let Some(f) = ewma.forecast() {
                err_ewma += (f - x).abs();
            }
            holt.observe(x);
            ewma.observe(x);
        }
        assert!(
            err_holt < err_ewma / 2.0,
            "holt {err_holt} should beat ewma {err_ewma} on a ramp"
        );
    }

    #[test]
    #[should_panic(expected = "beta must be in (0,1]")]
    fn invalid_beta_panics() {
        let _ = Holt::new(0.5, 0.0);
    }
}
