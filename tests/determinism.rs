//! Reproducibility contract: every simulator in the workspace is a
//! pure function of (config, seed). These tests protect the property
//! the whole evaluation rests on.

use selfaware::levels::LevelSet;
use simkernel::SeedTree;

fn cloud_metrics(seed: u64) -> simkernel::MetricSet {
    let seeds = SeedTree::new(seed);
    let cfg = cloudsim::ScenarioConfig::standard(
        cloudsim::Strategy::SelfAware {
            levels: LevelSet::full(),
        },
        1200,
    );
    cloudsim::run_scenario(&cfg, &seeds).metrics
}

#[test]
fn cloud_is_deterministic_and_seed_sensitive() {
    assert_eq!(cloud_metrics(1), cloud_metrics(1));
    assert_ne!(cloud_metrics(1), cloud_metrics(2));
}

fn camnet_metrics(seed: u64) -> simkernel::MetricSet {
    camnet::run_camnet(
        &camnet::CamnetConfig::standard(camnet::HandoverStrategy::self_aware_default(), 1200),
        &SeedTree::new(seed),
    )
    .metrics
}

#[test]
fn camnet_is_deterministic_and_seed_sensitive() {
    assert_eq!(camnet_metrics(3), camnet_metrics(3));
    assert_ne!(camnet_metrics(3), camnet_metrics(4));
}

fn cpn_metrics(seed: u64) -> simkernel::MetricSet {
    cpn::run_cpn(
        &cpn::CpnConfig::standard(cpn::RoutingStrategy::cpn_default(), 1200),
        &SeedTree::new(seed),
    )
    .metrics
}

#[test]
fn cpn_is_deterministic_and_seed_sensitive() {
    assert_eq!(cpn_metrics(5), cpn_metrics(5));
    assert_ne!(cpn_metrics(5), cpn_metrics(6));
}

fn multicore_metrics(seed: u64) -> simkernel::MetricSet {
    multicore::run_multicore(
        &multicore::MulticoreConfig::standard(multicore::Scheduler::SelfAware, 1200),
        &SeedTree::new(seed),
    )
    .metrics
}

#[test]
fn multicore_is_deterministic_and_seed_sensitive() {
    assert_eq!(multicore_metrics(7), multicore_metrics(7));
    assert_ne!(multicore_metrics(7), multicore_metrics(8));
}

#[test]
fn replication_runner_uses_common_random_numbers() {
    // Replicate k's seed tree is independent of the strategy being
    // run — the foundation of the paired comparisons in the benches.
    let reps = simkernel::Replications::new(99, 4);
    for k in 0..4 {
        assert_eq!(reps.seeds_for(k).raw(), reps.seeds_for(k).raw());
    }
    let other = simkernel::Replications::new(99, 8);
    assert_eq!(reps.seeds_for(2).raw(), other.seeds_for(2).raw());
}

#[test]
fn experiment_harness_is_deterministic() {
    let a = sas_bench::run_t5(2).to_string();
    let b = sas_bench::run_t5(2).to_string();
    assert_eq!(a, b);
}
