//! Meta-self-awareness: awareness of one's own awareness.
//!
//! The paper (Sections II, IV, VI) singles out meta-self-awareness —
//! "they are aware of the way they themselves are aware of these
//! things, and of the way in which they make decisions" — as the mark
//! of advanced self-aware systems, citing Cox's metacognitive loop.
//! Concretely this module lets an agent:
//!
//! * track how well each of its own models is predicting
//!   ([`ResidualTracker`]);
//! * run several candidate self-models side by side and *select among
//!   them at run time* ([`ModelPool`]) — the direct computational
//!   analogue of "thinking about (one's own) thinking";
//! * adapt its own learning parameters when its models go stale
//!   ([`ExplorationGovernor`]).

use crate::models::drift::PageHinkley;
use crate::models::ewma::Ewma;
use crate::models::{Forecaster, OnlineModel};
use std::fmt;

/// Tracks the recent absolute prediction error of a model via EWMA.
///
/// # Example
///
/// ```
/// use selfaware::meta::ResidualTracker;
///
/// let mut t = ResidualTracker::new(0.2);
/// t.record(1.0, 1.1);
/// t.record(1.0, 0.9);
/// assert!(t.error() > 0.0 && t.error() < 0.2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ResidualTracker {
    err: Ewma,
}

impl ResidualTracker {
    /// Creates a tracker with error-smoothing factor `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha ∉ (0, 1]`.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        Self {
            err: Ewma::new(alpha),
        }
    }

    /// Records a `(predicted, actual)` pair.
    pub fn record(&mut self, predicted: f64, actual: f64) {
        self.err.observe((predicted - actual).abs());
    }

    /// Smoothed absolute error (0 while cold).
    #[must_use]
    pub fn error(&self) -> f64 {
        self.err.level()
    }

    /// Number of recorded pairs.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.err.observations()
    }
}

/// A pool of candidate forecasters with run-time model selection.
///
/// Every observation trains **all** members; before training, each
/// member's standing one-step forecast is scored against the incoming
/// truth. The pool's own [`ModelPool::forecast`] delegates to the
/// member with the lowest recent error — so when the environment
/// changes regime and the best model changes with it, the pool follows
/// (after hysteresis `patience`, to avoid thrashing on noise).
///
/// This is the object of experiment F3.
///
/// # Example
///
/// ```
/// use selfaware::meta::ModelPool;
/// use selfaware::models::ewma::Ewma;
/// use selfaware::models::holt::Holt;
///
/// let mut pool = ModelPool::new(0.1, 8);
/// pool.add("ewma", Box::new(Ewma::new(0.3)));
/// pool.add("holt", Box::new(Holt::new(0.5, 0.3)));
/// for t in 0..200 {
///     pool.observe(t as f64); // a ramp: holt should win
/// }
/// assert_eq!(pool.active_name(), "holt");
/// ```
pub struct ModelPool {
    names: Vec<String>,
    models: Vec<Box<dyn Forecaster>>,
    errors: Vec<ResidualTracker>,
    alpha: f64,
    active: usize,
    patience: u32,
    streak: u32,
    switches: u32,
    n: u64,
}

impl ModelPool {
    /// Creates an empty pool. `error_alpha` smooths each member's
    /// error; the active model only changes after a challenger has
    /// been strictly better for `patience` consecutive observations.
    ///
    /// # Panics
    ///
    /// Panics if `error_alpha ∉ (0, 1]` or `patience == 0`.
    #[must_use]
    pub fn new(error_alpha: f64, patience: u32) -> Self {
        assert!(
            error_alpha > 0.0 && error_alpha <= 1.0,
            "error alpha must be in (0,1]"
        );
        assert!(patience > 0, "patience must be positive");
        Self {
            names: Vec::new(),
            models: Vec::new(),
            errors: Vec::new(),
            alpha: error_alpha,
            active: 0,
            patience,
            streak: 0,
            switches: 0,
            n: 0,
        }
    }

    /// Adds a named candidate model; returns its index.
    pub fn add(&mut self, name: impl Into<String>, model: Box<dyn Forecaster>) -> usize {
        self.names.push(name.into());
        self.models.push(model);
        self.errors.push(ResidualTracker::new(self.alpha));
        self.models.len() - 1
    }

    /// Number of candidate models.
    #[must_use]
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the pool has no candidates.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Index of the currently selected model.
    #[must_use]
    pub fn active(&self) -> usize {
        self.active
    }

    /// Name of the currently selected model.
    ///
    /// # Panics
    ///
    /// Panics if the pool is empty.
    #[must_use]
    pub fn active_name(&self) -> &str {
        &self.names[self.active]
    }

    /// Recent smoothed error of member `idx`.
    #[cfg(test)]
    fn error_of(&self, idx: usize) -> f64 {
        self.errors[idx].error()
    }

    /// How many times the active model has changed.
    #[must_use]
    pub fn switches(&self) -> u32 {
        self.switches
    }

    fn best(&self) -> usize {
        let mut best = 0;
        for i in 1..self.errors.len() {
            if self.errors[i].error() < self.errors[best].error() {
                best = i;
            }
        }
        best
    }

    /// Feeds one observation: scores all members' standing forecasts,
    /// trains all members, then reconsiders the active model.
    ///
    /// # Panics
    ///
    /// Panics if the pool is empty.
    pub fn observe(&mut self, x: f64) {
        assert!(!self.models.is_empty(), "pool has no models");
        for (m, e) in self.models.iter().zip(self.errors.iter_mut()) {
            if let Some(pred) = m.forecast() {
                e.record(pred, x);
            }
        }
        for m in &mut self.models {
            m.observe(x);
        }
        self.n += 1;
        let challenger = self.best();
        if challenger != self.active {
            self.streak += 1;
            if self.streak >= self.patience {
                self.active = challenger;
                self.streak = 0;
                self.switches += 1;
            }
        } else {
            self.streak = 0;
        }
    }

    /// One-step forecast of the active model.
    #[must_use]
    pub fn forecast(&self) -> Option<f64> {
        self.models.get(self.active).and_then(|m| m.forecast())
    }

    /// `h`-step forecast of the active model.
    #[must_use]
    pub fn forecast_h(&self, h: u32) -> Option<f64> {
        self.models.get(self.active).and_then(|m| m.forecast_h(h))
    }

    /// Total observations fed to the pool.
    #[must_use]
    pub fn observations(&self) -> u64 {
        self.n
    }
}

impl fmt::Debug for ModelPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelPool")
            .field("names", &self.names)
            .field("active", &self.active)
            .field("switches", &self.switches)
            .finish_non_exhaustive()
    }
}

/// Adapts a learner's exploration rate from drift signals: boost
/// exploration when the world (or the learner's reward stream) shifts,
/// decay it while things are stable.
///
/// This is parameter-level meta-self-awareness: the agent changes *how
/// it learns* based on knowledge about its own learning.
///
/// # Example
///
/// ```
/// use selfaware::meta::ExplorationGovernor;
///
/// let mut g = ExplorationGovernor::new(0.05, 0.5, 0.995, 0.2, 30.0);
/// for _ in 0..500 {
///     g.observe_reward(1.0);
/// }
/// let calm = g.epsilon();
/// for _ in 0..100 {
///     g.observe_reward(-5.0); // reward collapse → drift
/// }
/// assert!(g.epsilon() > calm);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExplorationGovernor {
    epsilon: f64,
    floor: f64,
    boost: f64,
    decay: f64,
    detector: PageHinkley,
}

impl ExplorationGovernor {
    /// Creates a governor.
    ///
    /// * `floor` — minimum exploration rate;
    /// * `boost` — epsilon jumps to this on detected drift;
    /// * `decay` — multiplicative decay per quiet observation;
    /// * `delta`, `lambda` — Page–Hinkley parameters for the reward
    ///   stream.
    ///
    /// # Panics
    ///
    /// Panics if `floor ∉ [0, boost]`, `boost ∉ (0, 1]`, or
    /// `decay ∉ (0, 1]`.
    #[must_use]
    pub fn new(floor: f64, boost: f64, decay: f64, delta: f64, lambda: f64) -> Self {
        assert!(boost > 0.0 && boost <= 1.0, "boost must be in (0,1]");
        assert!((0.0..=boost).contains(&floor), "floor must be in [0,boost]");
        assert!(decay > 0.0 && decay <= 1.0, "decay must be in (0,1]");
        Self {
            epsilon: boost,
            floor,
            boost,
            decay,
            detector: PageHinkley::new(delta, lambda),
        }
    }

    /// Feeds the latest reward; returns `true` if drift was detected
    /// (and exploration boosted).
    pub fn observe_reward(&mut self, reward: f64) -> bool {
        let drifted = self.detector.observe(reward);
        if drifted {
            self.epsilon = self.boost;
        } else {
            self.epsilon = (self.epsilon * self.decay).max(self.floor);
        }
        drifted
    }

    /// Current recommended exploration rate.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of drift events seen.
    #[must_use]
    pub fn drift_count(&self) -> u32 {
        self.detector.detections()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ar::ArModel;
    use crate::models::ewma::Ewma;
    use crate::models::holt::Holt;

    #[test]
    fn residual_tracker_prefers_accurate_model() {
        let mut good = ResidualTracker::new(0.2);
        let mut bad = ResidualTracker::new(0.2);
        for t in 0..100 {
            let truth = t as f64;
            good.record(truth + 0.1, truth);
            bad.record(truth + 5.0, truth);
        }
        assert!(good.error() < bad.error());
        assert_eq!(good.samples(), 100);
    }

    #[test]
    fn pool_picks_holt_on_ramp() {
        let mut pool = ModelPool::new(0.1, 5);
        pool.add("ewma", Box::new(Ewma::new(0.3)));
        pool.add("holt", Box::new(Holt::new(0.5, 0.3)));
        for t in 0..300 {
            pool.observe(2.0 * t as f64);
        }
        assert_eq!(pool.active_name(), "holt");
        assert!(pool.error_of(1) < pool.error_of(0));
    }

    #[test]
    fn pool_picks_ar_on_oscillation() {
        let mut pool = ModelPool::new(0.1, 5);
        pool.add("ewma", Box::new(Ewma::new(0.3)));
        pool.add("ar", Box::new(ArModel::new(2, 64)));
        for t in 0..400 {
            pool.observe((t as f64 * 0.6).sin());
        }
        assert_eq!(pool.active_name(), "ar");
    }

    #[test]
    fn pool_switches_on_regime_change() {
        let mut pool = ModelPool::new(0.2, 5);
        pool.add("ewma", Box::new(Ewma::new(0.5)));
        pool.add("holt", Box::new(Holt::new(0.6, 0.4)));
        // Regime 1: flat (EWMA adequate, usually wins on noise-free
        // flat both are perfect; feed noise-free ramp after).
        for _ in 0..100 {
            pool.observe(5.0);
        }
        for t in 0..200 {
            pool.observe(5.0 + 3.0 * t as f64);
        }
        assert_eq!(pool.active_name(), "holt");
        assert!(pool.observations() == 300);
    }

    #[test]
    fn pool_forecast_delegates_to_active() {
        let mut pool = ModelPool::new(0.1, 3);
        pool.add("ewma", Box::new(Ewma::new(1.0)));
        pool.observe(7.0);
        assert_eq!(pool.forecast(), Some(7.0));
        assert_eq!(pool.forecast_h(4), Some(7.0));
        assert_eq!(pool.len(), 1);
        assert!(!pool.is_empty());
    }

    #[test]
    fn pool_hysteresis_limits_thrash() {
        let mut patient = ModelPool::new(0.5, 50);
        patient.add("a", Box::new(Ewma::new(0.9)));
        patient.add("b", Box::new(Ewma::new(0.1)));
        let mut eager = ModelPool::new(0.5, 1);
        eager.add("a", Box::new(Ewma::new(0.9)));
        eager.add("b", Box::new(Ewma::new(0.1)));
        let mut rng = simkernel::SeedTree::new(9).rng("noise");
        use rand::Rng as _;
        for _ in 0..2000 {
            let x = rng.gen_range(-1.0..1.0);
            patient.observe(x);
            eager.observe(x);
        }
        assert!(patient.switches() <= eager.switches());
    }

    #[test]
    #[should_panic(expected = "pool has no models")]
    fn empty_pool_observe_panics() {
        let mut pool = ModelPool::new(0.1, 3);
        pool.observe(1.0);
    }

    #[test]
    fn governor_decays_when_calm() {
        let mut g = ExplorationGovernor::new(0.01, 0.4, 0.99, 0.2, 50.0);
        let start = g.epsilon();
        for _ in 0..200 {
            g.observe_reward(1.0);
        }
        assert!(g.epsilon() < start);
        assert!(g.epsilon() >= 0.01);
    }

    #[test]
    fn governor_boosts_on_reward_shift() {
        let mut g = ExplorationGovernor::new(0.01, 0.4, 0.99, 0.1, 10.0);
        for _ in 0..300 {
            g.observe_reward(1.0);
        }
        let calm = g.epsilon();
        let mut fired = false;
        for _ in 0..200 {
            fired |= g.observe_reward(-2.0);
        }
        assert!(fired);
        assert!(g.drift_count() >= 1);
        assert!(g.epsilon() > calm);
    }

    #[test]
    #[should_panic(expected = "floor must be in [0,boost]")]
    fn governor_bad_floor_panics() {
        let _ = ExplorationGovernor::new(0.5, 0.4, 0.99, 0.1, 10.0);
    }
}
