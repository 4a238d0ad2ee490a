//! Attention: directing limited monitoring resources.
//!
//! Preden et al.'s observation, endorsed in paper Section V: "as
//! resource-constrained systems must determine, for themselves, how to
//! direct their limited resources, given the vast set of possible
//! things they could attend to", attention is intertwined with
//! self-awareness. The [`AttentionAllocator`] chooses, each step, which
//! sensors to sample under a budget of samples, prioritising signals
//! that are *volatile* (changing fast, so stale knowledge decays
//! quickly) and *stale* (unsampled for a long time), with ε
//! exploration so quiet signals are still revisited.
//!
//! Experiment T6 sweeps the budget and compares this policy against
//! round-robin and random monitoring.

use crate::models::ewma::EwmaVariance;
use simkernel::rng::Rng;
use simkernel::Tick;

/// Budgeted sensor-selection policy.
///
/// # Example
///
/// ```
/// use selfaware::attention::AttentionAllocator;
/// use simkernel::{SeedTree, Tick};
///
/// let mut att = AttentionAllocator::new(4, 0.1, 0.3);
/// let mut rng = SeedTree::new(1).rng("att");
/// // Signal 0 is volatile, the rest are flat.
/// for t in 0..200u64 {
///     let picked = att.select(2.0, Tick(t), &mut rng);
///     for &i in &picked {
///         let value = if i == 0 { (t as f64).sin() * 10.0 } else { 1.0 };
///         att.feed(i, value, Tick(t));
///     }
/// }
/// // The volatile signal ends up sampled most.
/// let counts = att.sample_counts();
/// assert!(counts[0] >= *counts[1..].iter().max().unwrap());
/// ```
#[derive(Debug, Clone)]
pub struct AttentionAllocator {
    volatility: Vec<EwmaVariance>,
    last_sampled: Vec<Option<Tick>>,
    counts: Vec<u64>,
    epsilon: f64,
    staleness_weight: f64,
}

impl AttentionAllocator {
    /// Creates an allocator over `n_signals` signals, each costing one
    /// unit of budget to sample.
    ///
    /// * `epsilon` — probability that each selection slot explores a
    ///   uniformly random signal instead of the top-priority one;
    /// * `staleness_weight` — how strongly "ticks since last sample"
    ///   contributes to priority, relative to volatility.
    ///
    /// # Panics
    ///
    /// Panics if `n_signals == 0`, `epsilon ∉ [0, 1]`, or
    /// `staleness_weight < 0`.
    #[must_use]
    pub fn new(n_signals: usize, epsilon: f64, staleness_weight: f64) -> Self {
        assert!(n_signals > 0, "need at least one signal");
        assert!((0.0..=1.0).contains(&epsilon), "epsilon must be in [0,1]");
        assert!(
            staleness_weight >= 0.0,
            "staleness weight must be non-negative"
        );
        Self {
            volatility: (0..n_signals).map(|_| EwmaVariance::new(0.1)).collect(),
            last_sampled: vec![None; n_signals],
            counts: vec![0; n_signals],
            epsilon,
            staleness_weight,
        }
    }

    /// Number of managed signals.
    #[must_use]
    pub fn len(&self) -> usize {
        self.volatility.len()
    }

    /// Whether the allocator manages no signals.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.volatility.is_empty()
    }

    /// Priority score of signal `i` at time `now`: volatility plus
    /// weighted staleness. Never-sampled signals get infinite priority.
    #[must_use]
    pub fn priority(&self, i: usize, now: Tick) -> f64 {
        match self.last_sampled[i] {
            None => f64::INFINITY,
            Some(t) => {
                let stale = now.value().saturating_sub(t.value()) as f64;
                self.volatility[i].std_dev() + self.staleness_weight * stale
            }
        }
    }

    /// Selects signals to sample at time `now`, one unit of `budget`
    /// each. Selection is greedy by priority with per-slot ε
    /// exploration; a signal is selected at most once.
    pub fn select(&self, budget: f64, now: Tick, rng: &mut Rng) -> Vec<usize> {
        use rand::Rng as _;
        let n = self.len();
        let mut remaining = budget;
        let mut chosen = Vec::new();
        let mut available: Vec<usize> = (0..n).collect();
        while !available.is_empty() && remaining + 1e-12 >= 1.0 {
            let pick = if rng.gen::<f64>() < self.epsilon {
                available[rng.gen_range(0..available.len())]
            } else {
                *available
                    .iter()
                    .max_by(|&&a, &&b| {
                        self.priority(a, now)
                            .partial_cmp(&self.priority(b, now))
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("available is non-empty")
            };
            remaining -= 1.0;
            chosen.push(pick);
            available.retain(|&i| i != pick);
        }
        chosen
    }

    /// Feeds the observed value of signal `i`, updating volatility and
    /// staleness state.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn feed(&mut self, i: usize, value: f64, at: Tick) {
        self.volatility[i].observe(value);
        self.last_sampled[i] = Some(at);
        self.counts[i] += 1;
    }

    /// Per-signal sample counts so far.
    #[must_use]
    pub fn sample_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Estimated volatility (std dev) of signal `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn volatility(&self, i: usize) -> f64 {
        self.volatility[i].std_dev()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> simkernel::rng::Rng {
        simkernel::SeedTree::new(77).rng("attn")
    }

    #[test]
    fn unsampled_signals_have_infinite_priority() {
        let a = AttentionAllocator::new(3, 0.0, 0.1);
        assert_eq!(a.priority(0, Tick(5)), f64::INFINITY);
    }

    #[test]
    fn selects_within_budget() {
        let a = AttentionAllocator::new(10, 0.0, 0.1);
        let mut r = rng();
        let picked = a.select(3.0, Tick(0), &mut r);
        assert_eq!(picked.len(), 3);
        // no duplicates
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), picked.len());
    }

    #[test]
    fn budget_larger_than_signals_selects_all() {
        let a = AttentionAllocator::new(4, 0.0, 0.1);
        let mut r = rng();
        assert_eq!(a.select(100.0, Tick(0), &mut r).len(), 4);
    }

    #[test]
    fn zero_budget_selects_nothing() {
        let a = AttentionAllocator::new(4, 0.0, 0.1);
        let mut r = rng();
        assert!(a.select(0.0, Tick(0), &mut r).is_empty());
    }

    #[test]
    fn volatile_signal_attracts_attention() {
        let mut a = AttentionAllocator::new(5, 0.05, 0.01);
        let mut r = rng();
        for t in 0..500u64 {
            let picked = a.select(2.0, Tick(t), &mut r);
            for &i in &picked {
                let v = if i == 0 {
                    (t as f64 * 1.3).sin() * 20.0
                } else {
                    1.0
                };
                a.feed(i, v, Tick(t));
            }
        }
        let counts = a.sample_counts();
        let other_max = counts[1..].iter().copied().max().unwrap();
        assert!(
            counts[0] > other_max,
            "volatile signal sampled {} vs max other {}",
            counts[0],
            other_max
        );
        assert!(a.volatility(0) > a.volatility(1));
    }

    #[test]
    fn staleness_forces_rotation() {
        // With a strong staleness term and zero volatility everywhere,
        // attention degenerates to round-robin — every signal gets
        // sampled regularly.
        let mut a = AttentionAllocator::new(6, 0.0, 1.0);
        let mut r = rng();
        for t in 0..600u64 {
            let picked = a.select(1.0, Tick(t), &mut r);
            for &i in &picked {
                a.feed(i, 1.0, Tick(t));
            }
        }
        for &c in a.sample_counts() {
            assert!(c >= 80, "every signal should be visited, got {c}");
        }
    }

    #[test]
    #[should_panic(expected = "need at least one signal")]
    fn zero_signals_panics() {
        let _ = AttentionAllocator::new(0, 0.0, 0.1);
    }
}
