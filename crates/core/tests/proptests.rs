//! Property-based tests for the self-awareness framework's core data
//! structures and learners.

use proptest::prelude::*;
use selfaware::models::drift::PageHinkley;
use selfaware::models::holt::Holt;
use selfaware::models::qlearn::QLearner;
use selfaware::models::{Forecaster, OnlineModel};
use simkernel::{SeedTree, Tick};

proptest! {
    #[test]
    fn qlearner_values_bounded_by_reward_bound(
        transitions in proptest::collection::vec((0usize..3, 0usize..2, 0.0f64..1.0, 0usize..3), 1..300),
        gamma in 0.0f64..0.95,
    ) {
        let mut q = QLearner::new(3, 2, 0.5, gamma, 0.1);
        for &(s, a, r, s2) in &transitions {
            q.update(s, a, r, s2);
        }
        // With rewards in [0,1], values are bounded by 1/(1-γ).
        let bound = 1.0 / (1.0 - gamma) + 1e-6;
        for s in 0..3 {
            for a in 0..2 {
                let v = q.q_value(s, a);
                prop_assert!((0.0 - 1e-9..=bound).contains(&v), "q {v} bound {bound}");
            }
        }
    }

    #[test]
    fn holt_fits_any_affine_signal_exactly(
        intercept in -100.0f64..100.0,
        slope in -10.0f64..10.0,
    ) {
        let mut m = Holt::new(0.9, 0.9);
        for t in 0..200 {
            m.observe(intercept + slope * f64::from(t));
        }
        let truth = intercept + slope * 200.0;
        prop_assert!((m.forecast().unwrap() - truth).abs() < 1e-3 * (1.0 + truth.abs()));
    }

    #[test]
    fn page_hinkley_quiet_on_constant_streams(
        level in -100.0f64..100.0,
        n in 10usize..500,
    ) {
        let mut ph = PageHinkley::new(0.05, 10.0);
        for _ in 0..n {
            prop_assert!(!ph.observe(level));
        }
        prop_assert_eq!(ph.detections(), 0);
    }

    #[test]
    fn page_hinkley_catches_large_steps(
        level in -10.0f64..10.0,
        jump in 5.0f64..50.0,
        up in any::<bool>(),
    ) {
        let shift = if up { jump } else { -jump };
        let mut ph = PageHinkley::new(0.05, 10.0);
        for _ in 0..100 {
            ph.observe(level);
        }
        let mut fired = false;
        for _ in 0..100 {
            fired |= ph.observe(level + shift);
        }
        prop_assert!(fired, "page-hinkley missed a {shift} step");
    }

    #[test]
    fn attention_selection_within_budget_and_unique(
        n in 1usize..20,
        budget in 0.0f64..25.0,
        seed in any::<u64>(),
    ) {
        use selfaware::attention::AttentionAllocator;
        let a = AttentionAllocator::new(n, 0.2, 0.1);
        let mut rng = SeedTree::new(seed).rng("a");
        let picked = a.select(budget, Tick(0), &mut rng);
        prop_assert!(picked.len() <= budget as usize);
        prop_assert!(picked.len() <= n);
        let mut uniq = picked.clone();
        uniq.sort_unstable();
        uniq.dedup();
        prop_assert_eq!(uniq.len(), picked.len());
        prop_assert!(picked.iter().all(|&i| i < n));
    }
}
