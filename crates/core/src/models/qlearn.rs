//! Tabular Q-learning: state-contingent action values, one step up
//! from bandits — used where the right action depends on an observed
//! regime (e.g. the multicore scheduler's task-class × thermal-state
//! mapping).

use serde::{Deserialize, Serialize};
use simkernel::rng::Rng;

/// Tabular Q-learning agent over `n_states × n_actions`.
///
/// Off-policy one-step Q-learning with ε-greedy behaviour:
///
/// ```text
/// Q(s,a) ← Q(s,a) + α [ r + γ max_a' Q(s',a') − Q(s,a) ]
/// ```
///
/// # Example
///
/// ```
/// use selfaware::models::qlearn::QLearner;
/// use simkernel::SeedTree;
///
/// // Two states; the rewarding action differs per state.
/// let mut q = QLearner::new(2, 2, 0.3, 0.0, 0.2);
/// let mut rng = SeedTree::new(1).rng("q");
/// for t in 0..2000u64 {
///     let s = (t % 2) as usize;
///     let a = q.select(s, &mut rng);
///     let r = if a == s { 1.0 } else { 0.0 };
///     q.update(s, a, r, (t as usize + 1) % 2);
/// }
/// assert_eq!(q.greedy(0), 0);
/// assert_eq!(q.greedy(1), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QLearner {
    n_states: usize,
    n_actions: usize,
    q: Vec<f64>,
    alpha: f64,
    gamma: f64,
    epsilon: f64,
    updates: u64,
}

impl QLearner {
    /// Creates a learner with learning rate `alpha`, discount `gamma`
    /// and exploration rate `epsilon`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, `alpha ∉ (0,1]`,
    /// `gamma ∉ [0,1)`, or `epsilon ∉ [0,1]`.
    #[must_use]
    pub fn new(n_states: usize, n_actions: usize, alpha: f64, gamma: f64, epsilon: f64) -> Self {
        assert!(n_states > 0 && n_actions > 0, "dimensions must be positive");
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        assert!((0.0..1.0).contains(&gamma), "gamma must be in [0,1)");
        assert!((0.0..=1.0).contains(&epsilon), "epsilon must be in [0,1]");
        Self {
            n_states,
            n_actions,
            q: vec![0.0; n_states * n_actions],
            alpha,
            gamma,
            epsilon,
            updates: 0,
        }
    }

    fn idx(&self, s: usize, a: usize) -> usize {
        assert!(s < self.n_states, "state out of range");
        assert!(a < self.n_actions, "action out of range");
        s * self.n_actions + a
    }

    /// Q-value of `(state, action)`.
    ///
    /// # Panics
    ///
    /// Panics if `state` or `action` is out of range.
    #[must_use]
    pub fn q_value(&self, state: usize, action: usize) -> f64 {
        self.q[self.idx(state, action)]
    }

    /// Greedy action in `state` (ties to the lowest index).
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[must_use]
    pub fn greedy(&self, state: usize) -> usize {
        let base = self.idx(state, 0);
        let row = &self.q[base..base + self.n_actions];
        let mut best = 0;
        for (a, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = a;
            }
        }
        best
    }

    /// Maximum Q-value in `state`.
    #[must_use]
    pub fn max_q(&self, state: usize) -> f64 {
        self.q_value(state, self.greedy(state))
    }

    /// ε-greedy action selection.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn select(&mut self, state: usize, rng: &mut Rng) -> usize {
        use rand::Rng as _;
        if rng.gen::<f64>() < self.epsilon {
            rng.gen_range(0..self.n_actions)
        } else {
            self.greedy(state)
        }
    }

    /// One-step Q-learning backup for transition
    /// `(state, action) → reward, next_state`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn update(&mut self, state: usize, action: usize, reward: f64, next_state: usize) {
        let target = reward + self.gamma * self.max_q(next_state);
        let i = self.idx(state, action);
        self.q[i] += self.alpha * (target - self.q[i]);
        self.updates += 1;
    }

    /// Number of backups applied.
    #[must_use]
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Current exploration rate.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Replaces the exploration rate (meta-adaptation hook).
    ///
    /// # Panics
    ///
    /// Panics if `epsilon ∉ [0, 1]`.
    pub fn set_epsilon(&mut self, epsilon: f64) {
        assert!((0.0..=1.0).contains(&epsilon), "epsilon must be in [0,1]");
        self.epsilon = epsilon;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_state_contingent_policy() {
        let mut q = QLearner::new(3, 3, 0.2, 0.0, 0.2);
        let mut rng = simkernel::SeedTree::new(11).rng("q");
        for t in 0..6000u64 {
            let s = (t % 3) as usize;
            let a = q.select(s, &mut rng);
            // Best action in state s is (s+1) mod 3.
            let r = if a == (s + 1) % 3 { 1.0 } else { 0.0 };
            q.update(s, a, r, ((t + 1) % 3) as usize);
        }
        for s in 0..3 {
            assert_eq!(q.greedy(s), (s + 1) % 3, "state {s}");
        }
    }

    #[test]
    fn discounting_propagates_value() {
        // Chain MDP: s0 -a0-> s1 -a0-> s2(terminal reward 1).
        let mut q = QLearner::new(3, 1, 0.5, 0.9, 0.0);
        for _ in 0..200 {
            q.update(0, 0, 0.0, 1);
            q.update(1, 0, 1.0, 2);
            q.update(2, 0, 0.0, 2);
        }
        assert!(q.q_value(1, 0) > q.q_value(0, 0));
        assert!(q.q_value(0, 0) > 0.1, "value should propagate back");
    }

    #[test]
    fn zero_epsilon_is_greedy() {
        let mut q = QLearner::new(1, 2, 0.5, 0.0, 0.0);
        q.update(0, 1, 1.0, 0);
        let mut rng = simkernel::SeedTree::new(2).rng("g");
        for _ in 0..20 {
            assert_eq!(q.select(0, &mut rng), 1);
        }
    }

    #[test]
    fn counters_and_accessors() {
        let mut q = QLearner::new(2, 2, 0.1, 0.5, 0.3);
        assert_eq!(q.updates(), 0);
        q.update(0, 0, 1.0, 1);
        assert_eq!(q.updates(), 1);
        q.set_epsilon(0.0);
        assert_eq!(q.epsilon(), 0.0);
    }

    #[test]
    #[should_panic(expected = "state out of range")]
    fn bad_state_panics() {
        let q = QLearner::new(2, 2, 0.1, 0.5, 0.3);
        let _ = q.q_value(5, 0);
    }

    #[test]
    #[should_panic(expected = "gamma must be in [0,1)")]
    fn gamma_one_panics() {
        let _ = QLearner::new(2, 2, 0.1, 1.0, 0.3);
    }
}
