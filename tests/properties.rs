//! Property-based tests (proptest) on the core invariants of the
//! framework and kernel.

use proptest::prelude::*;
use selfaware::goals::{Direction, Goal, Objective};
use selfaware::levels::{Level, LevelSet};
use selfaware::models::ewma::Ewma;
use selfaware::models::{Forecaster, OnlineModel};
use simkernel::rng::{fnv1a, SeedTree};
use simkernel::stats::OnlineStats;
use simkernel::Tick;

fn level_strategy() -> impl Strategy<Value = Level> {
    prop_oneof![
        Just(Level::Stimulus),
        Just(Level::Interaction),
        Just(Level::Time),
        Just(Level::Goal),
        Just(Level::Meta),
    ]
}

proptest! {
    // ---- simkernel ----

    #[test]
    fn welford_mean_within_bounds(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let s: OnlineStats = xs.iter().copied().collect();
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(s.mean() >= lo - 1e-6 && s.mean() <= hi + 1e-6);
        prop_assert!(s.sample_variance() >= 0.0);
        prop_assert_eq!(s.count(), xs.len() as u64);
        prop_assert_eq!(s.min(), lo);
        prop_assert_eq!(s.max(), hi);
    }

    #[test]
    fn welford_merge_associates(
        a in proptest::collection::vec(-1e3f64..1e3, 0..50),
        b in proptest::collection::vec(-1e3f64..1e3, 0..50),
    ) {
        let mut merged: OnlineStats = a.iter().copied().collect();
        let sb: OnlineStats = b.iter().copied().collect();
        merged.merge(&sb);
        let all: OnlineStats = a.iter().chain(b.iter()).copied().collect();
        prop_assert_eq!(merged.count(), all.count());
        prop_assert!((merged.mean() - all.mean()).abs() < 1e-6);
    }

    #[test]
    fn seed_tree_is_label_stable(seed in any::<u64>(), label in "[a-z]{1,12}") {
        let a = SeedTree::new(seed).child(&label).raw();
        let b = SeedTree::new(seed).child(&label).raw();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn fnv_differs_on_append(s in "[a-z]{0,16}") {
        let extended = format!("{s}x");
        prop_assert_ne!(fnv1a(s.as_bytes()), fnv1a(extended.as_bytes()));
    }

    #[test]
    fn tick_sub_never_underflows(a in any::<u64>(), b in any::<u64>()) {
        let d = Tick(a) - Tick(b);
        prop_assert!(d.value() <= a);
    }

    // ---- goals ----

    #[test]
    fn objective_score_is_bounded(
        value in -1e9f64..1e9,
        scale in 1e-3f64..1e6,
        maximize in any::<bool>(),
    ) {
        let dir = if maximize { Direction::Maximize } else { Direction::Minimize };
        let o = Objective::new("x", dir, scale, 1.0);
        let s = o.score(value);
        prop_assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn objective_score_is_monotone(
        a in -1e3f64..1e3,
        delta in 0.0f64..1e3,
        scale in 1e-2f64..1e3,
    ) {
        let max = Objective::new("x", Direction::Maximize, scale, 1.0);
        prop_assert!(max.score(a + delta) >= max.score(a));
        let min = Objective::new("x", Direction::Minimize, scale, 1.0);
        prop_assert!(min.score(a + delta) <= min.score(a));
    }

    #[test]
    fn utility_bounded_without_constraints(
        v1 in -1e3f64..1e3,
        v2 in -1e3f64..1e3,
        w1 in 0.1f64..10.0,
        w2 in 0.1f64..10.0,
    ) {
        let g = Goal::new("g")
            .objective(Objective::new("a", Direction::Maximize, 10.0, w1))
            .objective(Objective::new("b", Direction::Minimize, 10.0, w2));
        let u = g.utility(|k| if k == "a" { Some(v1) } else { Some(v2) });
        prop_assert!((0.0..=1.0).contains(&u), "utility {u} out of bounds");
    }

    // ---- levels ----

    #[test]
    fn levelset_with_contains(levels in proptest::collection::vec(level_strategy(), 0..5)) {
        let set: LevelSet = levels.iter().copied().collect();
        for l in &levels {
            prop_assert!(set.contains(*l));
        }
        prop_assert!(set.count() <= 5);
        prop_assert!(LevelSet::full().is_superset_of(set));
        prop_assert!(set.is_superset_of(LevelSet::new()));
    }

    #[test]
    fn levelset_without_removes(l in level_strategy()) {
        let set = LevelSet::full().without(l);
        prop_assert!(!set.contains(l));
        prop_assert_eq!(set.count(), 4);
    }

    // ---- models ----

    #[test]
    fn ewma_level_stays_within_observed_range(
        alpha in 0.01f64..1.0,
        xs in proptest::collection::vec(-1e3f64..1e3, 1..100),
    ) {
        let mut m = Ewma::new(alpha);
        for &x in &xs {
            m.observe(x);
        }
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let f = m.forecast().unwrap();
        prop_assert!(f >= lo - 1e-9 && f <= hi + 1e-9);
    }

    // ---- collective ----

    #[test]
    fn gossip_conserves_mean(
        init in proptest::collection::vec(-100.0f64..100.0, 2..32),
        rounds in 1u32..20,
        seed in any::<u64>(),
    ) {
        use selfaware::collective::GossipNetwork;
        let before = init.iter().sum::<f64>() / init.len() as f64;
        let mut g = GossipNetwork::new(init);
        let mut rng = SeedTree::new(seed).rng("gossip");
        let spread_before = g.spread();
        g.run(rounds, &mut rng);
        let after = g.values().iter().sum::<f64>() / g.len() as f64;
        prop_assert!((before - after).abs() < 1e-9, "gossip must conserve the mean");
        prop_assert!(g.spread() <= spread_before + 1e-9, "spread never grows");
    }

    // ---- workloads ----

    #[test]
    fn schedule_apply_is_nonnegative(
        base in 0.0f64..100.0,
        offset in -200.0f64..200.0,
        at in 0u64..1000,
        t in 0u64..2000,
    ) {
        use workloads::{Disturbance, Schedule};
        let s = Schedule::new(vec![Disturbance::step(Tick(at), offset)]);
        prop_assert!(s.apply(base, Tick(t)) >= 0.0);
    }

    #[test]
    fn poisson_is_reasonable(lambda in 0.0f64..50.0, seed in any::<u64>()) {
        let mut rng = SeedTree::new(seed).rng("p");
        let x = workloads::rates::poisson(lambda, &mut rng);
        // Crude tail bound: far beyond mean + 10 sqrt(mean) is a bug.
        prop_assert!((f64::from(x)) < lambda + 10.0 * lambda.sqrt() + 10.0);
    }
}
