//! Self-models: the learning and prediction machinery of
//! computational self-awareness.
//!
//! Section VI of the paper: self-aware systems "learn and adapt during
//! their lifetime on an ongoing basis, based on their sensed
//! experiences and the internal models that they build". This module
//! holds the *common techniques for self-awareness* (Wang et al. \[61\]
//! and Minku et al. \[60\] in the Lewis et al. book) that the
//! substrates and experiments actually run:
//!
//! * time-series forecasters — [`ewma::Ewma`], [`holt::Holt`],
//!   [`ar::ArModel`] — for **time-awareness**;
//! * the action-value learner [`qlearn::QLearner`] — **self-expression**
//!   (acting on self-knowledge) in the multicore scheduler;
//! * the change detector [`drift::PageHinkley`] — the trigger of
//!   **meta-self-awareness** (noticing that one's own models have gone
//!   stale).
//!
//! All models are incremental (O(1) or O(window) per observation), as
//! required for the resource-constrained settings of paper Section V.

pub mod ar;
pub mod drift;
pub mod ewma;
pub mod holt;
pub mod qlearn;

/// An incrementally trained model over a scalar signal.
pub trait OnlineModel {
    /// Feeds one observation.
    fn observe(&mut self, x: f64);
    /// Number of observations seen so far.
    fn observations(&self) -> u64;
}

/// A model that can predict the next value of its signal.
///
/// `forecast` returns `None` while the model is *cold* (insufficient
/// data) — callers must handle the warm-up phase explicitly rather
/// than receive silent zeros.
pub trait Forecaster: OnlineModel {
    /// Predicts the next observation.
    fn forecast(&self) -> Option<f64>;

    /// Predicts `h` steps ahead. The default repeats the one-step
    /// forecast (appropriate for level-only models); trend-aware
    /// models override it.
    fn forecast_h(&self, h: u32) -> Option<f64> {
        let _ = h;
        self.forecast()
    }
}

#[cfg(test)]
mod tests {
    use super::ewma::Ewma;
    use super::*;

    #[test]
    fn forecaster_default_horizon_repeats() {
        let mut m = Ewma::new(0.5);
        m.observe(10.0);
        assert_eq!(m.forecast_h(5), m.forecast());
    }

    #[test]
    fn trait_objects_work() {
        // Forecaster must stay object-safe: heterogeneous model pools
        // (see `crate::meta`) rely on `Box<dyn Forecaster>`.
        let mut models: Vec<Box<dyn Forecaster>> = vec![
            Box::new(Ewma::new(0.2)),
            Box::new(super::holt::Holt::new(0.3, 0.1)),
        ];
        for m in &mut models {
            m.observe(1.0);
            m.observe(2.0);
            assert!(m.forecast().is_some());
            assert_eq!(m.observations(), 2);
        }
    }
}
