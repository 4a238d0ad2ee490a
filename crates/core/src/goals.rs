//! Goals, objectives and run-time multi-objective trade-off
//! management.
//!
//! The paper's central hypothesis (Section III) is that self-aware
//! systems "better manage **trade-offs between goals** at run time, in
//! complex, uncertain and dynamic environments". That requires goals to
//! be *first-class run-time objects* rather than design-time
//! assumptions: stakeholder concerns (throughput, cost, reliability,
//! ...) become [`Objective`]s; a [`Goal`] aggregates them into a scalar
//! utility and tracks constraint violations.
//!
//! Normalisation: each objective declares a `scale` — the magnitude at
//! which the stakeholder considers the concern "fully satisfied"
//! (maximise) or "fully spent" (minimise). Scores are clamped to
//! `[0, 1]` so weighted sums remain meaningful when objectives have
//! wildly different units.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Whether more or less of a measured quantity is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Larger values are better (e.g. throughput).
    Maximize,
    /// Smaller values are better (e.g. latency, energy, cost).
    Minimize,
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Direction::Maximize => "max",
            Direction::Minimize => "min",
        })
    }
}

/// One stakeholder concern, measured by a named signal.
///
/// # Example
///
/// ```
/// use selfaware::goals::{Direction, Objective};
///
/// let thr = Objective::new("throughput", Direction::Maximize, 100.0, 1.0);
/// assert!((thr.score(50.0) - 0.5).abs() < 1e-12);
/// assert_eq!(thr.score(200.0), 1.0); // clamped
///
/// let lat = Objective::new("latency", Direction::Minimize, 20.0, 2.0);
/// assert!((lat.score(5.0) - 0.75).abs() < 1e-12);
/// assert_eq!(lat.score(40.0), 0.0); // clamped
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Objective {
    /// Signal key the objective is measured by.
    pub key: String,
    /// Whether larger or smaller is better.
    pub direction: Direction,
    /// Normalisation scale (see module docs). Must be positive.
    pub scale: f64,
    /// Relative importance in the weighted aggregate. Must be
    /// non-negative.
    pub weight: f64,
    /// Optional hard constraint: for `Maximize`, the value must stay
    /// **at or above** this; for `Minimize`, **at or below**.
    pub constraint: Option<f64>,
}

impl Objective {
    /// Creates an objective.
    ///
    /// # Panics
    ///
    /// Panics if `scale <= 0` or `weight < 0`.
    #[must_use]
    pub fn new(key: impl Into<String>, direction: Direction, scale: f64, weight: f64) -> Self {
        assert!(scale > 0.0, "objective scale must be positive");
        assert!(weight >= 0.0, "objective weight must be non-negative");
        Self {
            key: key.into(),
            direction,
            scale,
            weight,
            constraint: None,
        }
    }

    /// Adds a hard constraint (builder style).
    #[must_use]
    pub fn with_constraint(mut self, threshold: f64) -> Self {
        self.constraint = Some(threshold);
        self
    }

    /// Normalised satisfaction score in `[0, 1]` for a measured value.
    #[must_use]
    pub fn score(&self, value: f64) -> f64 {
        let raw = match self.direction {
            Direction::Maximize => value / self.scale,
            Direction::Minimize => 1.0 - value / self.scale,
        };
        raw.clamp(0.0, 1.0)
    }

    /// Whether `value` violates the hard constraint (false if no
    /// constraint is set).
    #[must_use]
    pub fn violated_by(&self, value: f64) -> bool {
        match (self.constraint, self.direction) {
            (Some(c), Direction::Maximize) => value < c,
            (Some(c), Direction::Minimize) => value > c,
            (None, _) => false,
        }
    }
}

/// A run-time goal: a weighted set of objectives plus a constraint
/// penalty.
///
/// Utility is the weight-normalised sum of objective scores, minus
/// `violation_penalty` for each violated constraint (clamped at 0 from
/// below is deliberately **not** done: persistent violation should be
/// visible as strongly negative utility).
///
/// # Example
///
/// ```
/// use selfaware::goals::{Direction, Goal, Objective};
///
/// let goal = Goal::new("serve-well")
///     .objective(Objective::new("throughput", Direction::Maximize, 100.0, 2.0))
///     .objective(
///         Objective::new("latency", Direction::Minimize, 50.0, 1.0).with_constraint(45.0),
///     );
///
/// let u = goal.utility(|k| match k {
///     "throughput" => Some(80.0),
///     "latency" => Some(10.0),
///     _ => None,
/// });
/// // (2*0.8 + 1*0.8) / 3 = 0.8, no violations
/// assert!((u - 0.8).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Goal {
    /// Human-readable goal name.
    pub name: String,
    objectives: Vec<Objective>,
    violation_penalty: f64,
}

impl Goal {
    /// Creates an empty goal with the default violation penalty (0.5).
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            objectives: Vec::new(),
            violation_penalty: 0.5,
        }
    }

    /// Adds an objective (builder style).
    #[must_use]
    pub fn objective(mut self, o: Objective) -> Self {
        self.objectives.push(o);
        self
    }

    /// Sets the per-violation utility penalty (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `penalty` is negative.
    #[must_use]
    pub fn with_violation_penalty(mut self, penalty: f64) -> Self {
        assert!(penalty >= 0.0, "penalty must be non-negative");
        self.violation_penalty = penalty;
        self
    }

    /// The goal's objectives.
    #[must_use]
    pub fn objectives(&self) -> &[Objective] {
        &self.objectives
    }

    /// Scalar utility given a signal lookup. Signals missing from the
    /// lookup score 0 for `Maximize` objectives and 0 for `Minimize`
    /// ones as well (unknown = assume worst), keeping the agent honest
    /// about unmonitored concerns.
    pub fn utility<F: Fn(&str) -> Option<f64>>(&self, read: F) -> f64 {
        let total_weight: f64 = self.objectives.iter().map(|o| o.weight).sum();
        if total_weight <= 0.0 {
            return 0.0;
        }
        let mut sum = 0.0;
        let mut penalty = 0.0;
        for o in &self.objectives {
            match read(&o.key) {
                Some(v) => {
                    sum += o.weight * o.score(v);
                    if o.violated_by(v) {
                        penalty += self.violation_penalty;
                    }
                }
                None => {
                    // worst-case score for unknown signals
                    sum += 0.0;
                }
            }
        }
        sum / total_weight - penalty
    }

    /// Number of violated constraints given a signal lookup (unknown
    /// signals are not counted).
    pub fn violations<F: Fn(&str) -> Option<f64>>(&self, read: F) -> usize {
        self.objectives
            .iter()
            .filter(|o| read(&o.key).is_some_and(|v| o.violated_by(v)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objective_scores_clamp() {
        let o = Objective::new("x", Direction::Maximize, 10.0, 1.0);
        assert_eq!(o.score(-5.0), 0.0);
        assert_eq!(o.score(15.0), 1.0);
        assert!((o.score(5.0) - 0.5).abs() < 1e-12);
        let m = Objective::new("y", Direction::Minimize, 10.0, 1.0);
        assert_eq!(m.score(0.0), 1.0);
        assert_eq!(m.score(10.0), 0.0);
        assert_eq!(m.score(99.0), 0.0);
    }

    #[test]
    fn constraints_by_direction() {
        let up = Objective::new("thr", Direction::Maximize, 10.0, 1.0).with_constraint(5.0);
        assert!(up.violated_by(4.0));
        assert!(!up.violated_by(5.0));
        let down = Objective::new("lat", Direction::Minimize, 10.0, 1.0).with_constraint(5.0);
        assert!(down.violated_by(6.0));
        assert!(!down.violated_by(5.0));
        let free = Objective::new("z", Direction::Minimize, 10.0, 1.0);
        assert!(!free.violated_by(1e9));
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_panics() {
        let _ = Objective::new("x", Direction::Maximize, 0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "weight must be non-negative")]
    fn negative_weight_panics() {
        let _ = Objective::new("x", Direction::Maximize, 1.0, -1.0);
    }

    #[test]
    fn utility_weighted_sum() {
        let g = Goal::new("g")
            .objective(Objective::new("a", Direction::Maximize, 1.0, 3.0))
            .objective(Objective::new("b", Direction::Maximize, 1.0, 1.0));
        let u = g.utility(|k| if k == "a" { Some(1.0) } else { Some(0.0) });
        assert!((u - 0.75).abs() < 1e-12);
    }

    #[test]
    fn utility_penalises_violations() {
        let g = Goal::new("g")
            .objective(Objective::new("lat", Direction::Minimize, 10.0, 1.0).with_constraint(5.0))
            .with_violation_penalty(1.0);
        let ok = g.utility(|_| Some(2.0));
        let bad = g.utility(|_| Some(8.0));
        assert!(ok > bad);
        assert!(bad < 0.0, "violation should push utility negative");
        assert_eq!(g.violations(|_| Some(8.0)), 1);
        assert_eq!(g.violations(|_| Some(2.0)), 0);
        assert_eq!(g.violations(|_| None), 0);
    }

    #[test]
    fn utility_unknown_signal_scores_worst() {
        let g = Goal::new("g").objective(Objective::new("a", Direction::Maximize, 1.0, 1.0));
        assert_eq!(g.utility(|_| None), 0.0);
    }

    #[test]
    fn utility_empty_goal_is_zero() {
        assert_eq!(Goal::new("empty").utility(|_| Some(1.0)), 0.0);
    }

    #[test]
    fn direction_display() {
        assert_eq!(Direction::Maximize.to_string(), "max");
        assert_eq!(Direction::Minimize.to_string(), "min");
    }
}
