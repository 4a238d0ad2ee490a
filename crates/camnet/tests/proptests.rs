//! Property-based tests for the camera network's geometry, learning
//! and diversity metrics.

use camnet::affinity::{AffinityTable, InviteCounts};
use camnet::camera::Camera;
use camnet::diversity::{entropy, jensen_shannon, policy_divergence};
use camnet::strategy::{nearest_neighbours, random_subsets};
use proptest::prelude::*;
use simkernel::SeedTree;
use workloads::trajectories::Point;

fn distribution(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.01f64..1.0, n).prop_map(|mut v| {
        let s: f64 = v.iter().sum();
        for x in &mut v {
            *x /= s;
        }
        v
    })
}

proptest! {
    #[test]
    fn js_divergence_is_a_bounded_symmetric_premetric(
        p in distribution(5),
        q in distribution(5),
    ) {
        let d = jensen_shannon(&p, &q);
        prop_assert!(d >= 0.0);
        prop_assert!(d <= std::f64::consts::LN_2 + 1e-9);
        prop_assert!((d - jensen_shannon(&q, &p)).abs() < 1e-12);
        prop_assert!(jensen_shannon(&p, &p) < 1e-12);
    }

    #[test]
    fn entropy_bounded_by_log_n(p in distribution(6)) {
        let h = entropy(&p);
        prop_assert!(h >= 0.0);
        prop_assert!(h <= (6.0f64).ln() + 1e-9);
    }

    #[test]
    fn divergence_of_identical_policies_is_zero(
        p in distribution(4),
        copies in 2usize..6,
    ) {
        let policies = vec![p; copies];
        prop_assert!(policy_divergence(&policies) < 1e-12);
    }

    #[test]
    fn camera_quality_decreases_with_distance(
        cx in 0.0f64..1.0,
        cy in 0.0f64..1.0,
        r in 0.05f64..0.5,
        d1 in 0.0f64..1.0,
        d2 in 0.0f64..1.0,
    ) {
        let cam = Camera::new(0, Point::new(cx, cy), r, 2);
        let (near, far) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let p_near = Point::new(cx + near * r, cy);
        let p_far = Point::new(cx + far * r, cy);
        prop_assert!(cam.quality(p_near) >= cam.quality(p_far) - 1e-12);
        prop_assert!((0.0..=1.0).contains(&cam.quality(p_near)));
        // sees() is consistent with quality > 0 (boundary has quality 0).
        if cam.quality(p_near) > 0.0 {
            prop_assert!(cam.sees(p_near));
        }
    }

    #[test]
    fn affinity_always_in_unit_interval(
        outcomes in proptest::collection::vec(any::<bool>(), 0..200),
    ) {
        let mut table = AffinityTable::new(3);
        for &won in &outcomes {
            table.record_auction(0, 1, won);
            let a = table.affinity(0, 1);
            prop_assert!((0.0..=1.0).contains(&a));
        }
    }

    #[test]
    fn ask_distribution_is_a_distribution(
        invites in proptest::collection::vec(1usize..4, 0..100),
    ) {
        let mut counts = InviteCounts::new(4);
        for &peer in &invites {
            counts.record(0, peer);
        }
        let d = counts.ask_distribution(0);
        prop_assert_eq!(d.len(), 4);
        prop_assert_eq!(d[0], 0.0);
        prop_assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(d.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn nearest_neighbours_are_sound(side in 2usize..5, k in 1usize..6) {
        let n = side * side;
        let cams: Vec<Camera> = (0..n)
            .map(|i| {
                let x = (i % side) as f64 / side as f64;
                let y = (i / side) as f64 / side as f64;
                Camera::new(i, Point::new(x, y), 0.3, n)
            })
            .collect();
        let nn = nearest_neighbours(&cams, k);
        for (me, list) in nn.iter().enumerate() {
            prop_assert_eq!(list.len(), k.min(n - 1));
            prop_assert!(!list.contains(&me));
            // Every excluded camera is at least as far as the farthest
            // included one.
            if let Some(&farthest) = list.last() {
                let dmax = cams[me].position().distance(cams[farthest].position());
                for other in 0..n {
                    if other != me && !list.contains(&other) {
                        let d = cams[me].position().distance(cams[other].position());
                        prop_assert!(d >= dmax - 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn random_subsets_valid(n in 2usize..20, k in 1usize..6, seed in any::<u64>()) {
        let mut rng = SeedTree::new(seed).rng("s");
        let sets = random_subsets(n, k, &mut rng);
        prop_assert_eq!(sets.len(), n);
        for (me, s) in sets.iter().enumerate() {
            prop_assert_eq!(s.len(), k.min(n - 1));
            prop_assert!(!s.contains(&me));
            let mut uniq = s.clone();
            uniq.sort_unstable();
            uniq.dedup();
            prop_assert_eq!(uniq.len(), s.len());
        }
    }
}
