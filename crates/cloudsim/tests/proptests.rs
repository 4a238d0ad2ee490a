//! Property-based tests for the cloud simulator's accounting
//! invariants.

use cloudsim::{Cluster, NodeSpec, Request, RequestOutcome};
use proptest::prelude::*;
use simkernel::{SeedTree, Tick};

fn spec_strategy() -> impl Strategy<Value = NodeSpec> {
    (0.5f64..5.0, 0.0f64..0.05, 0.0f64..0.05, 0.01f64..1.0)
        .prop_map(|(cap, fail, off, on)| NodeSpec::new(cap, fail, off, on))
}

proptest! {
    #[test]
    fn every_request_reaches_exactly_one_terminal_outcome(
        specs in proptest::collection::vec(spec_strategy(), 1..8),
        n_requests in 0u64..100,
        seed in any::<u64>(),
    ) {
        let n = specs.len();
        let mut cluster = Cluster::new(specs, &SeedTree::new(seed));
        let mut rng = SeedTree::new(seed).rng("dispatch");
        use rand::Rng as _;
        let mut outcomes = Vec::new();
        let mut dispatched = 0u64;
        for t in 0..n_requests {
            let req = Request::new(t, rng.gen_range(0.5..5.0), Tick(t), 20);
            let target = rng.gen_range(0..n);
            dispatched += 1;
            if let Some(fail) = cluster.dispatch(target, req, Tick(t)) {
                outcomes.push(fail);
            }
            outcomes.extend(cluster.step(Tick(t)));
        }
        // Drain: give the cluster ample time to finish or lose the rest.
        for t in n_requests..n_requests + 5_000 {
            outcomes.extend(cluster.step(Tick(t)));
            if outcomes.len() as u64 == dispatched {
                break;
            }
        }
        // No request may be double-counted.
        let mut ids: Vec<u64> = outcomes.iter().map(|o| o.request().id).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        prop_assert_eq!(ids.len(), before, "an outcome was reported twice");
        prop_assert!(outcomes.len() as u64 <= dispatched);
    }

    #[test]
    fn rented_node_ticks_accrue_exactly(
        n in 1usize..10,
        rent in 0usize..10,
        ticks in 0u64..50,
    ) {
        let rent = rent.min(n);
        let specs = vec![NodeSpec::new(1.0, 0.0, 0.0, 1.0); n];
        let mut cluster = Cluster::new(specs, &SeedTree::new(1));
        cluster.rent_first(rent);
        for t in 0..ticks {
            cluster.step(Tick(t));
        }
        prop_assert_eq!(cluster.rented_node_ticks(), rent as u64 * ticks);
    }

    #[test]
    fn completed_latency_respects_capacity(
        capacity in 0.5f64..5.0,
        work in 0.5f64..10.0,
    ) {
        // A single reliable node: completion latency must be at least
        // ceil(work / capacity) and the outcome must arrive.
        let specs = vec![NodeSpec::new(capacity, 0.0, 0.0, 1.0)];
        let mut cluster = Cluster::new(specs, &SeedTree::new(2));
        cluster.dispatch(0, Request::new(0, work, Tick(0), 1_000_000), Tick(0));
        let mut latency = None;
        for t in 0..10_000u64 {
            for o in cluster.step(Tick(t)) {
                latency = o.latency();
            }
            if latency.is_some() {
                break;
            }
        }
        let lat = latency.expect("reliable node must complete");
        let min_ticks = (work / capacity).floor() as u64;
        prop_assert!(lat >= min_ticks.max(1));
    }

    #[test]
    fn violation_classification_is_consistent(
        latency in 1u64..100,
        deadline in 1u64..100,
    ) {
        let req = Request::new(0, 1.0, Tick(0), deadline);
        let outcome = RequestOutcome::Completed {
            request: req,
            at: Tick(latency),
            node: 0,
            latency,
        };
        prop_assert_eq!(outcome.violates_sla(), latency > deadline);
        prop_assert!(outcome.completed());
    }

    #[test]
    fn scenario_metrics_are_internally_consistent(seed in 0u64..20) {
        let seeds = SeedTree::new(seed);
        let cfg = cloudsim::ScenarioConfig::standard(cloudsim::Strategy::LeastLoaded, 600);
        let m = cloudsim::run_scenario(&cfg, &seeds).metrics;
        let arrived = m.get("arrived").unwrap();
        let completed = m.get("completed").unwrap();
        prop_assert!(completed <= arrived);
        prop_assert!((m.get("completion_ratio").unwrap() - completed / arrived).abs() < 1e-9);
        let vr = m.get("violation_rate").unwrap();
        prop_assert!((0.0..=1.0).contains(&vr));
        let cr = m.get("cost_ratio").unwrap();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&cr));
    }
}
