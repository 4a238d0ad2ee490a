//! Property-based tests for the simulation kernel.

use proptest::prelude::*;
use simkernel::rng::SeedTree;
use simkernel::stats::Percentiles;
use simkernel::{Tick, TimeSeries};

proptest! {
    #[test]
    fn percentiles_are_order_statistics(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut p: Percentiles = xs.iter().copied().collect();
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(p.quantile(0.0).unwrap(), sorted[0]);
        prop_assert_eq!(p.quantile(1.0).unwrap(), *sorted.last().unwrap());
        let med = p.median().unwrap();
        prop_assert!(med >= sorted[0] && med <= *sorted.last().unwrap());
    }

    #[test]
    fn quantiles_are_monotone(
        xs in proptest::collection::vec(-1e3f64..1e3, 2..100),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let mut p: Percentiles = xs.iter().copied().collect();
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(p.quantile(lo).unwrap() <= p.quantile(hi).unwrap());
    }

    #[test]
    fn bucketed_series_means_stay_in_range(
        points in proptest::collection::vec((0u64..10_000, -1e3f64..1e3), 1..300),
        buckets in 1usize..40,
    ) {
        let mut s = TimeSeries::new("p");
        for &(t, v) in &points {
            s.push(Tick(t), v);
        }
        let lo = points.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        let hi = points.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
        let b = s.bucketed(buckets);
        prop_assert!(!b.is_empty());
        prop_assert!(b.len() <= buckets);
        for &(_, mean) in &b {
            prop_assert!(mean >= lo - 1e-9 && mean <= hi + 1e-9);
        }
    }

    #[test]
    fn seed_tree_children_differ_from_parent(seed in any::<u64>(), idx in 0u64..1000) {
        let parent = SeedTree::new(seed);
        prop_assert_ne!(parent.raw(), parent.child_idx(idx).raw());
        prop_assert_ne!(parent.raw(), parent.child("x").raw());
    }

    #[test]
    fn distinct_indices_distinct_children(seed in any::<u64>(), a in 0u64..5000, b in 0u64..5000) {
        prop_assume!(a != b);
        let t = SeedTree::new(seed);
        prop_assert_ne!(t.child_idx(a).raw(), t.child_idx(b).raw());
    }
}
