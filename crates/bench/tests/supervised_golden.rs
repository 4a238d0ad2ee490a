//! Golden digests of the supervised `cpn` and `camnet` worlds.
//!
//! No experiment table runs `run_cpn` under `SupervisedCpn` or
//! `run_camnet` with `supervise = true`, and the seq-vs-par parity
//! suite compares a build only with itself. These tests pin each
//! supervised world's full metric set, bit for bit, under a corruption
//! plan that drives the supervisor through both rollback and
//! fallback: a change to how the supervised model is stored, trained,
//! checkpointed or restored that moves any output fails here.
//!
//! The `pinned_*` tests cover the other self-model paths no golden or
//! canary reaches: cloudsim's and multicore's self-aware controllers,
//! bare and supervised, under the same corruption plan; and camnet,
//! `run_cpn` and the composed city, each with and without a learned
//! model under supervision, under a plan that adds state freezes.

use simkernel::{MetricSet, SeedTree, Tick};
use workloads::faults::ModelCorruptionKind;
use workloads::{FaultEvent, FaultPlan};

const STEPS: u64 = 800;
const SEED: u64 = 1;

/// NaN poison at T/3, a relapse inside the supervisor's 50-tick
/// relapse window (a rollback, then a fallback), then a weight
/// scramble at 3T/5.
fn corruption_plan() -> FaultPlan {
    FaultPlan::new(vec![
        FaultEvent::model_corruption(Tick(STEPS / 3), 0, ModelCorruptionKind::NanPoison),
        FaultEvent::model_corruption(Tick(STEPS / 3 + 30), 0, ModelCorruptionKind::NanPoison),
        FaultEvent::model_corruption(
            Tick(3 * STEPS / 5),
            0,
            ModelCorruptionKind::WeightScramble { gain: 20.0 },
        ),
    ])
}

/// [`corruption_plan`] plus two state freezes: one from T/2 for T/8
/// ticks, which the weight scramble at 3T/5 lands inside, and a
/// shorter one that starts during it and sets the deadline to its own
/// earlier end.
fn freeze_plan() -> FaultPlan {
    let freeze = |at, duration| {
        FaultEvent::model_corruption(Tick(at), 0, ModelCorruptionKind::StateFreeze { duration })
    };
    corruption_plan()
        .and(freeze(STEPS / 2, STEPS / 8))
        .and(freeze(STEPS / 2 + 20, 20))
}

fn digest(m: &MetricSet) -> Vec<(String, u64)> {
    m.iter()
        .map(|(k, v)| (k.to_string(), v.to_bits()))
        .collect()
}

fn assert_golden(world: &str, m: &MetricSet, expected: &[(&str, u64)]) {
    let got = digest(m);
    let want: Vec<(String, u64)> = expected.iter().map(|&(k, b)| (k.to_string(), b)).collect();
    assert_eq!(
        got, want,
        "{world}: metric digest moved; actual metrics: {m:#?}"
    );
    assert!(
        m.get("model_rollbacks").unwrap_or(0.0) > 0.0,
        "{world}: {m:?}"
    );
    assert!(
        m.get("model_fallbacks").unwrap_or(0.0) > 0.0,
        "{world}: {m:?}"
    );
}

/// Asserts `m`'s full digest equals `expected`. On a mismatch the
/// message prints the actual digest as the body of a pin constant.
fn assert_pinned(world: &str, m: &MetricSet, expected: &[(&str, u64)]) {
    let got = digest(m);
    let want: Vec<(String, u64)> = expected.iter().map(|&(k, b)| (k.to_string(), b)).collect();
    if got != want {
        let body: String = got
            .iter()
            .map(|(k, b)| format!("    (\"{k}\", {b:#018x}),\n"))
            .collect();
        panic!("{world}: metric digest moved; actual digest:\n{body}");
    }
}

#[test]
fn supervised_cpn_metrics_are_golden() {
    let mut cfg = cpn::CpnConfig::standard(cpn::RoutingStrategy::supervised_cpn_default(), STEPS);
    cfg.faults = corruption_plan();
    let r = cpn::run_cpn(&cfg, &SeedTree::new(SEED));
    assert_golden("supervised cpn", &r.metrics, CPN_GOLDEN);
}

#[test]
fn supervised_camnet_metrics_are_golden() {
    let mut cfg =
        camnet::CamnetConfig::standard(camnet::HandoverStrategy::self_aware_default(), STEPS);
    cfg.supervise = true;
    cfg.faults = corruption_plan();
    let r = camnet::run_camnet(&cfg, &SeedTree::new(SEED));
    assert_golden("supervised camnet", &r.metrics, CAMNET_GOLDEN);
}

fn cloud(strategy: cloudsim::Strategy) -> MetricSet {
    let seeds = SeedTree::new(SEED);
    let mut cfg = cloudsim::ScenarioConfig::standard(strategy, STEPS, &seeds);
    cfg.faults = corruption_plan();
    cloudsim::run_scenario(&cfg, &seeds).metrics
}

#[test]
fn pinned_cloud_self_aware_metrics() {
    let levels = selfaware::levels::LevelSet::full();
    let bare = cloud(cloudsim::Strategy::SelfAware { levels });
    assert_pinned("bare cloud", &bare, CLOUD_BARE);
    let supervised = cloud(cloudsim::Strategy::SupervisedSelfAware { levels });
    assert_pinned("supervised cloud", &supervised, CLOUD_SUPERVISED);
}

fn multicore(scheduler: multicore::Scheduler) -> MetricSet {
    let mut cfg = multicore::MulticoreConfig::standard(scheduler, STEPS);
    cfg.faults = corruption_plan();
    multicore::run_multicore(&cfg, &SeedTree::new(SEED)).metrics
}

#[test]
fn pinned_multicore_self_aware_metrics() {
    let bare = multicore(multicore::Scheduler::SelfAware);
    assert_pinned("bare multicore", &bare, MULTICORE_BARE);
    let supervised = multicore(multicore::Scheduler::SupervisedSelfAware);
    assert_pinned("supervised multicore", &supervised, MULTICORE_SUPERVISED);
}

fn frozen_camnet(supervise: bool) -> MetricSet {
    let mut cfg =
        camnet::CamnetConfig::standard(camnet::HandoverStrategy::self_aware_default(), STEPS);
    cfg.supervise = supervise;
    cfg.faults = freeze_plan();
    camnet::run_camnet(&cfg, &SeedTree::new(SEED)).metrics
}

#[test]
fn pinned_camnet_metrics_under_freezes() {
    assert_pinned("bare camnet", &frozen_camnet(false), CAMNET_FROZEN_BARE);
    assert_pinned(
        "supervised camnet",
        &frozen_camnet(true),
        CAMNET_FROZEN_SUPERVISED,
    );
}

fn frozen_cpn(strategy: cpn::RoutingStrategy) -> MetricSet {
    let mut cfg = cpn::CpnConfig::standard(strategy, STEPS);
    cfg.faults = freeze_plan();
    cpn::run_cpn(&cfg, &SeedTree::new(SEED)).metrics
}

#[test]
fn pinned_cpn_metrics_under_freezes() {
    let bare = frozen_cpn(cpn::RoutingStrategy::cpn_default());
    assert_pinned("bare cpn", &bare, CPN_FROZEN_BARE);
    let supervised = frozen_cpn(cpn::RoutingStrategy::supervised_cpn_default());
    assert_pinned("supervised cpn", &supervised, CPN_FROZEN_SUPERVISED);
}

fn frozen_city(policy: compose::CityPolicy) -> MetricSet {
    let seeds = SeedTree::new(SEED);
    let mut cfg = compose::CityConfig::standard(policy, STEPS, &seeds);
    cfg.campaign = workloads::FaultCampaign::new("freeze", &seeds).with_faults(&freeze_plan());
    compose::run_city(&cfg, &seeds).metrics
}

#[test]
fn pinned_city_metrics_under_freezes() {
    let supervised = frozen_city(compose::CityPolicy::supervised());
    assert_pinned("supervised city", &supervised, CITY_FROZEN_SUPERVISED);
    let table = frozen_city(compose::CityPolicy::naive_router());
    assert_pinned("naive-router city", &table, CITY_FROZEN_NAIVE_ROUTER);
}

const CPN_GOLDEN: &[(&str, u64)] = &[
    ("comms_duplicates", 0x0000000000000000),
    ("comms_expired", 0x0000000000000000),
    ("comms_partition_hits", 0x0000000000000000),
    ("comms_retries", 0x0000000000000000),
    ("comms_sent", 0x40d2c00000000000),
    ("delay_attack", 0x40206b7de0e24c60),
    ("delay_post", 0x4016bed274388a35),
    ("delay_pre", 0x4010afce02153f1d),
    ("delivered", 0x40adb00000000000),
    ("delivery_ratio", 0x3fefcc95f549e86f),
    ("dropped", 0x0000000000000000),
    ("injected", 0x40ade00000000000),
    ("mean_delay", 0x401826cde0bdb5a0),
    ("model_fallbacks", 0x3ff0000000000000),
    ("model_repromotions", 0x3ff0000000000000),
    ("model_rollbacks", 0x4000000000000000),
    ("utility", 0x3fedddf620bfd9e7),
];

const CAMNET_GOLDEN: &[(&str, u64)] = &[
    ("ask_ratio", 0x3fd499f500c91635),
    ("auctions", 0x407de00000000000),
    ("comms_exchange_failures", 0x0000000000000000),
    ("comms_expired", 0x0000000000000000),
    ("comms_partition_hits", 0x0000000000000000),
    ("comms_retries", 0x0000000000000000),
    ("comms_sent", 0x40b2c50000000000),
    ("handovers", 0x4067a00000000000),
    ("heterogeneity_final", 0x3faa980751db1d72),
    ("messages_per_tick", 0x4018066666666666),
    ("model_fallbacks", 0x4000000000000000),
    ("model_repromotions", 0x4000000000000000),
    ("model_rollbacks", 0x4000000000000000),
    ("track_quality", 0x3fdf530de6690450),
    ("untracked_ratio", 0x3f97777777777777),
    ("utility", 0x3fe448f24a8a3e19),
];

const CLOUD_BARE: &[(&str, u64)] = &[
    ("arrived", 0x40ae380000000000),
    ("comms_duplicates", 0x0000000000000000),
    ("comms_expired", 0x0000000000000000),
    ("comms_partition_hits", 0x0000000000000000),
    ("comms_retries", 0x0000000000000000),
    ("comms_sent", 0x0000000000000000),
    ("completed", 0x409bac0000000000),
    ("completion_ratio", 0x3fdd4d9157192663),
    ("cost_ratio", 0x3fd92e147ae147ae),
    ("drift_events", 0x4031000000000000),
    ("mean_latency", 0x40438f4009405343),
    ("model_fallbacks", 0x0000000000000000),
    ("model_repromotions", 0x0000000000000000),
    ("model_rollbacks", 0x0000000000000000),
    ("p95_latency", 0x406e600000000000),
    ("utility", 0x3fd37c360a43676b),
    ("violation_rate", 0x3fdb339fa2d0152e),
];

const CLOUD_SUPERVISED: &[(&str, u64)] = &[
    ("arrived", 0x40ae380000000000),
    ("comms_duplicates", 0x0000000000000000),
    ("comms_expired", 0x0000000000000000),
    ("comms_partition_hits", 0x0000000000000000),
    ("comms_retries", 0x0000000000000000),
    ("comms_sent", 0x0000000000000000),
    ("completed", 0x40acd60000000000),
    ("completion_ratio", 0x3fee892226a6c8ac),
    ("cost_ratio", 0x3fea28f5c28f5c29),
    ("drift_events", 0x4032000000000000),
    ("mean_latency", 0x401fd2394a24c27b),
    ("model_fallbacks", 0x3ff0000000000000),
    ("model_repromotions", 0x3ff0000000000000),
    ("model_rollbacks", 0x4000000000000000),
    ("p95_latency", 0x4028000000000000),
    ("utility", 0x3fe617938c0cbb96),
    ("violation_rate", 0x3fb4736cce7e8b40),
];

const MULTICORE_BARE: &[(&str, u64)] = &[
    ("arrived", 0x40a6300000000000),
    ("completed", 0x40a6080000000000),
    ("completion_ratio", 0x3fefc64f52edf8ca),
    ("deadline_miss_rate", 0x3f6af286bca1af28),
    ("drift_events", 0x0000000000000000),
    ("energy_per_task", 0x4006da71d6034d57),
    ("energy_total", 0x40bf77c9bf2f8bfe),
    ("mean_latency", 0x400c0b9eaf062c4d),
    ("model_fallbacks", 0x0000000000000000),
    ("model_repromotions", 0x0000000000000000),
    ("model_rollbacks", 0x0000000000000000),
    ("peak_temp", 0x4052b459cf1175bf),
    ("throttle_ratio", 0x0000000000000000),
    ("utility", 0x3fea74437e1c8ace),
];

const MULTICORE_SUPERVISED: &[(&str, u64)] = &[
    ("arrived", 0x40a6300000000000),
    ("completed", 0x40a61a0000000000),
    ("completion_ratio", 0x3fefe0453a6948d5),
    ("deadline_miss_rate", 0x3f6ad0a798177693),
    ("drift_events", 0x4000000000000000),
    ("energy_per_task", 0x4010326295f8f19d),
    ("energy_total", 0x40c65f996e6a00c0),
    ("mean_latency", 0x4006d21ef2b2a141),
    ("model_fallbacks", 0x3ff0000000000000),
    ("model_repromotions", 0x3ff0000000000000),
    ("model_rollbacks", 0x4000000000000000),
    ("peak_temp", 0x4053580de8a52de6),
    ("throttle_ratio", 0x0000000000000000),
    ("utility", 0x3fe89f7550fbb3ab),
];

const CAMNET_FROZEN_BARE: &[(&str, u64)] = &[
    ("ask_ratio", 0x3fc594c1594c1595),
    ("auctions", 0x4083600000000000),
    ("comms_exchange_failures", 0x0000000000000000),
    ("comms_expired", 0x0000000000000000),
    ("comms_partition_hits", 0x0000000000000000),
    ("comms_retries", 0x0000000000000000),
    ("comms_sent", 0x40a9c20000000000),
    ("handovers", 0x4064200000000000),
    ("heterogeneity_final", 0x3faebc8d80798b17),
    ("messages_per_tick", 0x40107c28f5c28f5c),
    ("model_fallbacks", 0x0000000000000000),
    ("model_repromotions", 0x0000000000000000),
    ("model_rollbacks", 0x0000000000000000),
    ("track_quality", 0x3fdd129f399a608f),
    ("untracked_ratio", 0x3fa58bf258bf258c),
    ("utility", 0x3fe4fb5ce5e4a66f),
];

const CAMNET_FROZEN_SUPERVISED: &[(&str, u64)] = &[
    ("ask_ratio", 0x3fe7e37e37e37e38),
    ("auctions", 0x4071100000000000),
    ("comms_exchange_failures", 0x0000000000000000),
    ("comms_expired", 0x0000000000000000),
    ("comms_partition_hits", 0x0000000000000000),
    ("comms_retries", 0x0000000000000000),
    ("comms_sent", 0x40b8da0000000000),
    ("handovers", 0x406f000000000000),
    ("heterogeneity_final", 0x3fab18baf73ba3a4),
    ("messages_per_tick", 0x401fcf5c28f5c28f),
    ("model_fallbacks", 0x4008000000000000),
    ("model_repromotions", 0x4008000000000000),
    ("model_rollbacks", 0x4010000000000000),
    ("track_quality", 0x3fe0fd15f2f7847c),
    ("untracked_ratio", 0x3f5b4e81b4e81b4f),
    ("utility", 0x3fe0dc6837d7c455),
];

const CPN_FROZEN_BARE: &[(&str, u64)] = &[
    ("comms_duplicates", 0x0000000000000000),
    ("comms_expired", 0x0000000000000000),
    ("comms_partition_hits", 0x0000000000000000),
    ("comms_retries", 0x0000000000000000),
    ("comms_sent", 0x40d2c00000000000),
    ("delay_attack", 0x4045dd576f108aa2),
    ("delay_post", 0x4054f1d20310dcbe),
    ("delay_pre", 0x4010afce02153f1d),
    ("delivered", 0x409ae40000000000),
    ("delivery_ratio", 0x3fdccda82ad85e42),
    ("dropped", 0x409a2c0000000000),
    ("injected", 0x40ade00000000000),
    ("mean_delay", 0x40335ddc98ea6e5f),
    ("model_fallbacks", 0x0000000000000000),
    ("model_repromotions", 0x0000000000000000),
    ("model_rollbacks", 0x0000000000000000),
    ("utility", 0x3fd068a01ae62c1a),
];

const CPN_FROZEN_SUPERVISED: &[(&str, u64)] = &[
    ("comms_duplicates", 0x0000000000000000),
    ("comms_expired", 0x0000000000000000),
    ("comms_partition_hits", 0x0000000000000000),
    ("comms_retries", 0x0000000000000000),
    ("comms_sent", 0x40d2c00000000000),
    ("delay_attack", 0x402355105dc08e3f),
    ("delay_post", 0x4016c6fae34b1bec),
    ("delay_pre", 0x4010afce02153f1d),
    ("delivered", 0x40adac0000000000),
    ("delivery_ratio", 0x3fefc84d1f101123),
    ("dropped", 0x0000000000000000),
    ("injected", 0x40ade00000000000),
    ("mean_delay", 0x401a1b3b2e3d33e7),
    ("model_fallbacks", 0x4000000000000000),
    ("model_repromotions", 0x4000000000000000),
    ("model_rollbacks", 0x4008000000000000),
    ("utility", 0x3fedb1a48c00ee44),
];

const CITY_FROZEN_SUPERVISED: &[(&str, u64)] = &[
    ("comms_budget_exhausted", 0x0000000000000000),
    ("comms_dead_zone_expired", 0x0000000000000000),
    ("comms_expired", 0x0000000000000000),
    ("comms_partition_hits", 0x0000000000000000),
    ("comms_retries", 0x0000000000000000),
    ("comms_sent", 0x40a5b40000000000),
    ("coverage", 0x3feec19fb41e1b03),
    ("cpn_delivered", 0x40b28c0000000000),
    ("cpn_delivery_ratio", 0x3fefd5178bb8210a),
    ("cpn_injected", 0x40b2a50000000000),
    ("detections", 0x40b2a50000000000),
    ("energy", 0x40c2566d768609b0),
    ("mean_latency", 0x402266a2576a2577),
    ("model_fallbacks", 0x4000000000000000),
    ("model_rollbacks", 0x4008000000000000),
    ("net_dropped", 0x4020000000000000),
    ("on_time_ratio", 0x3fe9295a448baa66),
    ("quarantine_substitutions", 0x404a800000000000),
    ("quarantines", 0x3ff0000000000000),
    ("rehomed", 0x0000000000000000),
    ("rejected", 0x4089580000000000),
    ("service_ratio", 0x3fea637079002931),
    ("serviced", 0x40aec00000000000),
    ("shed_ticks", 0x4063a00000000000),
    ("tasks_lost", 0x0000000000000000),
    ("throttled_ticks", 0x4060600000000000),
    ("tracking_error", 0x3f66048e812965ce),
    ("tracking_quality", 0x3fe3d2ec63907578),
    ("utility", 0x3feb7c07d2d9e47a),
    ("violation_rate", 0x3fa7ce0c7ce0c7ce),
];

const CITY_FROZEN_NAIVE_ROUTER: &[(&str, u64)] = &[
    ("comms_budget_exhausted", 0x0000000000000000),
    ("comms_dead_zone_expired", 0x0000000000000000),
    ("comms_expired", 0x0000000000000000),
    ("comms_partition_hits", 0x0000000000000000),
    ("comms_retries", 0x0000000000000000),
    ("comms_sent", 0x40a58e0000000000),
    ("coverage", 0x3feef31cc3e45e71),
    ("cpn_delivered", 0x40b1180000000000),
    ("cpn_delivery_ratio", 0x3fed27b56145c50d),
    ("cpn_injected", 0x40b2c30000000000),
    ("detections", 0x40b2c30000000000),
    ("energy", 0x40befc63ee0f2662),
    ("mean_latency", 0x4025affcec307805),
    ("model_fallbacks", 0x0000000000000000),
    ("model_rollbacks", 0x0000000000000000),
    ("net_dropped", 0x4079b00000000000),
    ("on_time_ratio", 0x3fe7e2941144eabc),
    ("quarantine_substitutions", 0x404a800000000000),
    ("quarantines", 0x3ff0000000000000),
    ("rehomed", 0x0000000000000000),
    ("rejected", 0x4077d00000000000),
    ("service_ratio", 0x3fea9a76a5562fa6),
    ("serviced", 0x40af320000000000),
    ("shed_ticks", 0x4060400000000000),
    ("tasks_lost", 0x0000000000000000),
    ("throttled_ticks", 0x4054000000000000),
    ("tracking_error", 0x3f6555e4d1f364f8),
    ("tracking_quality", 0x3fe426af5d0662b5),
    ("utility", 0x3feab6aa3e75ab1e),
    ("violation_rate", 0x3fba286403d8c36a),
];
