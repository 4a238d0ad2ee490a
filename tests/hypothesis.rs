//! Cross-crate integration tests of the paper's central hypothesis:
//! *"systems that engage in self-awareness can better manage
//! trade-offs between goals at run time, in complex, uncertain and
//! dynamic environments"* — checked in all four case-study domains.
//!
//! Scales are reduced relative to the benchmark harness; assertions
//! are majority-of-seeds to keep them robust without rigging.

use selfaware::levels::LevelSet;
use simkernel::SeedTree;

#[test]
fn cloud_self_aware_wins_composite_utility() {
    let mut wins = 0;
    for seed in 0..3u64 {
        let seeds = SeedTree::new(seed);
        let sa = cloudsim::run_scenario(
            &cloudsim::ScenarioConfig::standard(
                cloudsim::Strategy::SelfAware {
                    levels: LevelSet::full(),
                },
                3000,
            ),
            &seeds,
        );
        let rr = cloudsim::run_scenario(
            &cloudsim::ScenarioConfig::standard(cloudsim::Strategy::RoundRobin, 3000),
            &seeds,
        );
        if sa.metrics.get("utility") > rr.metrics.get("utility") {
            wins += 1;
        }
    }
    assert!(wins >= 2, "self-aware beat round-robin on {wins}/3 seeds");
}

#[test]
fn cloud_self_aware_cuts_cost_without_losing_completion() {
    let seeds = SeedTree::new(11);
    let sa = cloudsim::run_scenario(
        &cloudsim::ScenarioConfig::standard(
            cloudsim::Strategy::SelfAware {
                levels: LevelSet::full(),
            },
            4000,
        ),
        &seeds,
    );
    let ll = cloudsim::run_scenario(
        &cloudsim::ScenarioConfig::standard(cloudsim::Strategy::LeastLoaded, 4000),
        &seeds,
    );
    assert!(
        sa.metrics.get("cost_ratio").unwrap() < ll.metrics.get("cost_ratio").unwrap() - 0.05,
        "autoscaling should rent materially less"
    );
    assert!(
        sa.metrics.get("completion_ratio").unwrap()
            > ll.metrics.get("completion_ratio").unwrap() - 0.05,
        "without sacrificing completions"
    );
}

#[test]
fn camnet_self_aware_matches_broadcast_quality_at_lower_cost() {
    let mut wins = 0;
    for seed in 0..3u64 {
        let seeds = SeedTree::new(seed);
        let bc = camnet::run_camnet(
            &camnet::CamnetConfig::standard(camnet::HandoverStrategy::Broadcast, 4000),
            &seeds,
        );
        let sa = camnet::run_camnet(
            &camnet::CamnetConfig::standard(camnet::HandoverStrategy::self_aware_default(), 4000),
            &seeds,
        );
        let q_ok = sa.metrics.get("track_quality").unwrap()
            > 0.8 * bc.metrics.get("track_quality").unwrap();
        let m_ok = sa.metrics.get("messages_per_tick").unwrap()
            < 0.8 * bc.metrics.get("messages_per_tick").unwrap();
        if q_ok && m_ok {
            wins += 1;
        }
    }
    assert!(wins >= 2, "passed on {wins}/3 seeds");
}

#[test]
fn camnet_heterogeneity_emerges_only_when_learning() {
    let seeds = SeedTree::new(5);
    let sa = camnet::run_camnet(
        &camnet::CamnetConfig::standard(camnet::HandoverStrategy::self_aware_default(), 4000),
        &seeds,
    );
    let bc = camnet::run_camnet(
        &camnet::CamnetConfig::standard(camnet::HandoverStrategy::Broadcast, 4000),
        &seeds,
    );
    // Behavioural divergence: self-aware cameras specialise, broadcast
    // cameras stay (near) uniform.
    assert!(
        sa.metrics.get("heterogeneity_final").unwrap()
            > 2.0 * bc.metrics.get("heterogeneity_final").unwrap(),
    );
    // And it grows over the run for the learners.
    let pts = sa.heterogeneity.points();
    let early = pts[1].1;
    let late = pts.last().unwrap().1;
    assert!(late > early);
}

#[test]
fn cpn_adaptive_routing_absorbs_dos() {
    let mut wins = 0;
    for seed in 0..3u64 {
        let seeds = SeedTree::new(seed);
        let stat = cpn::run_cpn(
            &cpn::CpnConfig::standard(cpn::RoutingStrategy::StaticShortest, 2400),
            &seeds,
        );
        let smart = cpn::run_cpn(
            &cpn::CpnConfig::standard(cpn::RoutingStrategy::cpn_default(), 2400),
            &seeds,
        );
        if smart.metrics.get("delay_attack").unwrap()
            < 0.5 * stat.metrics.get("delay_attack").unwrap()
        {
            wins += 1;
        }
    }
    assert!(wins >= 2, "cpn halved attack delay on {wins}/3 seeds");
}

#[test]
fn multicore_self_aware_cuts_energy_and_avoids_throttling() {
    let mut wins = 0;
    for seed in 0..3u64 {
        let seeds = SeedTree::new(seed);
        let sa = multicore::run_multicore(
            &multicore::MulticoreConfig::standard(multicore::Scheduler::SelfAware, 2400),
            &seeds,
        );
        let greedy = multicore::run_multicore(
            &multicore::MulticoreConfig::standard(multicore::Scheduler::Greedy, 2400),
            &seeds,
        );
        let e_ok = sa.metrics.get("energy_per_task").unwrap()
            < greedy.metrics.get("energy_per_task").unwrap();
        let t_ok = sa.metrics.get("throttle_ratio").unwrap()
            <= greedy.metrics.get("throttle_ratio").unwrap() + 1e-9;
        if e_ok && t_ok {
            wins += 1;
        }
    }
    assert!(wins >= 2, "passed on {wins}/3 seeds");
}

#[test]
fn collective_awareness_needs_no_global_component() {
    use selfaware::collective::{centralized_estimate, GossipNetwork};
    let seeds = SeedTree::new(9);
    let mut rng = seeds.rng("obs");
    use rand::Rng as _;
    let obs: Vec<f64> = (0..128).map(|_| 50.0 + rng.gen_range(-5.0..5.0)).collect();
    let mean = obs.iter().sum::<f64>() / obs.len() as f64;
    let central = centralized_estimate(&obs);
    let mut gossip = GossipNetwork::new(obs);
    let mut grng = seeds.rng("gossip");
    gossip.run(30, &mut grng);
    let g = gossip.outcome();
    // Comparable accuracy...
    assert!(g.max_abs_error(mean) < 0.5);
    assert_eq!(central.mean_abs_error(mean), 0.0);
    // ...with no hot spot.
    assert!(g.max_node_load < central.max_node_load / 2);
}
