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
//!
//! The `pinned_*_command_plane_*` tests pin the controller↔agent
//! command planes over a channel that loses, duplicates and delays
//! frames ([`rough_link`]), which no experiment or canary uses: the
//! city's, cloudsim's zoned plane and `run_cpn`'s report plane, each
//! under both comms policies, with outages and a partition. Only they
//! reach the planes' guards against reordered and duplicated reports
//! and orders.

use selfaware::comms::CommsPolicy;
use simkernel::{MetricSet, SeedTree, Tick};
use workloads::faults::{ChannelPlan, LinkModel, ModelCorruptionKind};
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
    let mut cfg = cpn::CpnConfig::standard(cpn::RoutingStrategy::SupervisedCpn, STEPS);
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
    let mut cfg = cloudsim::ScenarioConfig::standard(strategy, STEPS);
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
    let supervised = frozen_cpn(cpn::RoutingStrategy::SupervisedCpn);
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

/// A link that loses a fifth of its frames, duplicates a tenth and
/// delays two in five by up to 12 ticks, so reports and orders arrive
/// late, twice and out of order.
fn rough_link() -> LinkModel {
    LinkModel {
        loss: 0.2,
        dup: 0.1,
        delay_prob: 0.4,
        max_delay: 12,
    }
}

/// The city over [`rough_link`], with zone 1's agent partitioned from
/// T/3 for T/4 ticks and the zone dark from tick 540 for T/4 ticks: a
/// throttle delayed across the outage's start lands at the dead zone
/// under both comms policies.
fn rough_city(policy: compose::CityPolicy) -> MetricSet {
    let seeds = SeedTree::new(SEED);
    let mut cfg = compose::CityConfig::standard(policy, STEPS, &seeds);
    cfg.campaign = workloads::FaultCampaign::new("rough", &seeds)
        .with_loss(rough_link())
        .zone_outage(Tick(540), 3, 3, STEPS / 4)
        .net_partition(STEPS / 3, STEPS / 4, vec![1]);
    compose::run_city(&cfg, &seeds).metrics
}

#[test]
fn pinned_city_command_plane_over_a_rough_channel() {
    let aware = rough_city(compose::CityPolicy::supervised());
    assert_pinned("supervised city", &aware, CITY_ROUGH_SUPERVISED);
    let naive = rough_city(compose::CityPolicy::naive_comms());
    assert_pinned("naive-comms city", &naive, CITY_ROUGH_NAIVE_COMMS);
}

/// Cloudsim's zoned plane (3 zones of 4 nodes) over [`rough_link`],
/// with zones 1 and 2 dark in turn and zone 2's agent partitioned
/// across the end of the first outage.
fn rough_cloud(comms: CommsPolicy) -> MetricSet {
    let seeds = SeedTree::new(SEED);
    let levels = selfaware::levels::LevelSet::full();
    let mut cfg =
        cloudsim::ScenarioConfig::standard(cloudsim::Strategy::SelfAware { levels }, STEPS);
    cfg.command_plane = cloudsim::CommandPlane::Zoned { zones: 3 };
    cfg.comms = comms;
    cfg.channel = ChannelPlan::uniform(&seeds.child("channel"), rough_link()).with_partition(
        STEPS / 3,
        STEPS / 4,
        vec![2],
    );
    cfg.faults = FaultPlan::new(vec![
        FaultEvent::zone_outage(Tick(STEPS / 4), 4, 4, STEPS / 5),
        FaultEvent::zone_outage(Tick(3 * STEPS / 5), 8, 4, STEPS / 5),
    ]);
    cloudsim::run_scenario(&cfg, &seeds).metrics
}

#[test]
fn pinned_cloud_command_plane_over_a_rough_channel() {
    let aware = rough_cloud(CommsPolicy::default());
    assert_pinned("staleness-aware cloud", &aware, CLOUD_ROUGH_AWARE);
    let naive = rough_cloud(CommsPolicy::Naive);
    assert_pinned("naive cloud", &naive, CLOUD_ROUGH_NAIVE);
}

/// `run_cpn`'s contested world (a report every 20 ticks) over
/// [`rough_link`], with the flood-ingress routers 7 and 13 partitioned
/// from the attack's start for T/4 ticks.
fn rough_cpn(comms: CommsPolicy) -> MetricSet {
    let mut cfg = cpn::CpnConfig::contested(cpn::RoutingStrategy::Periodic { period: 50 }, STEPS);
    let (from, _) = cpn::CpnConfig::attack_window(STEPS);
    cfg.channel = ChannelPlan::uniform(&SeedTree::new(SEED).child("channel"), rough_link())
        .with_partition(from.value(), STEPS / 4, vec![7, 13]);
    cfg.comms = comms;
    cpn::run_cpn(&cfg, &SeedTree::new(SEED)).metrics
}

#[test]
fn pinned_cpn_report_plane_over_a_rough_channel() {
    let aware = rough_cpn(CommsPolicy::default());
    assert_pinned("staleness-aware cpn", &aware, CPN_ROUGH_AWARE);
    let naive = rough_cpn(CommsPolicy::Naive);
    assert_pinned("naive cpn", &naive, CPN_ROUGH_NAIVE);
}

const CITY_ROUGH_SUPERVISED: &[(&str, u64)] = &[
    ("comms_budget_exhausted", 0x0000000000000000),
    ("comms_dead_zone_expired", 0x4064800000000000),
    ("comms_expired", 0x4064a00000000000),
    ("comms_partition_hits", 0x4097b80000000000),
    ("comms_retries", 0x40b0cb0000000000),
    ("comms_sent", 0x40bb670000000000),
    ("coverage", 0x3fed4982d5d4e75c),
    ("cpn_delivered", 0x40b0230000000000),
    ("cpn_delivery_ratio", 0x3fed15cc4b069711),
    ("cpn_injected", 0x40b1c10000000000),
    ("detections", 0x40b1c10000000000),
    ("energy", 0x40c019c01ecb2ee3),
    ("mean_latency", 0x4033c0490fb25f52),
    ("model_fallbacks", 0x0000000000000000),
    ("model_rollbacks", 0x0000000000000000),
    ("net_dropped", 0x4078a00000000000),
    ("on_time_ratio", 0x3fe607c5df37ee6d),
    ("quarantine_substitutions", 0x4061800000000000),
    ("quarantines", 0x4000000000000000),
    ("rehomed", 0x4068600000000000),
    ("rejected", 0x4080080000000000),
    ("service_ratio", 0x3fe9431575c6e2c4),
    ("serviced", 0x40ac080000000000),
    ("shed_ticks", 0x4071d00000000000),
    ("tasks_lost", 0x4030000000000000),
    ("throttled_ticks", 0x4058800000000000),
    ("tracking_error", 0x3f832c7e41a4489a),
    ("tracking_quality", 0x3fe32d8dd84cbc33),
    ("utility", 0x3fe9215a0d3700ce),
    ("violation_rate", 0x3fc05fe49a1d1c41),
];
const CITY_ROUGH_NAIVE_COMMS: &[(&str, u64)] = &[
    ("comms_budget_exhausted", 0x0000000000000000),
    ("comms_dead_zone_expired", 0x0000000000000000),
    ("comms_expired", 0x0000000000000000),
    ("comms_partition_hits", 0x406c200000000000),
    ("comms_retries", 0x0000000000000000),
    ("comms_sent", 0x40a3e00000000000),
    ("coverage", 0x3feccdca2e653eca),
    ("cpn_delivered", 0x40aef80000000000),
    ("cpn_delivery_ratio", 0x3fec60ac452ed8f1),
    ("cpn_injected", 0x40b1760000000000),
    ("detections", 0x40b1760000000000),
    ("energy", 0x40bc0dffe16f9881),
    ("mean_latency", 0x4031c1cfedafe17a),
    ("model_fallbacks", 0x0000000000000000),
    ("model_rollbacks", 0x0000000000000000),
    ("net_dropped", 0x4078700000000000),
    ("on_time_ratio", 0x3fe5622976c787f6),
    ("quarantine_substitutions", 0x404e000000000000),
    ("quarantines", 0x4008000000000000),
    ("rehomed", 0x0000000000000000),
    ("rejected", 0x4082a00000000000),
    ("service_ratio", 0x3fe80494e75fa45e),
    ("serviced", 0x40aa360000000000),
    ("shed_ticks", 0x4074d00000000000),
    ("tasks_lost", 0x4022000000000000),
    ("throttled_ticks", 0x405c000000000000),
    ("tracking_error", 0x3f690f44f65890cb),
    ("tracking_quality", 0x3fe345c0f5f14358),
    ("utility", 0x3fe8de03eb130442),
    ("violation_rate", 0x3fbc147311040b4b),
];
const CLOUD_ROUGH_AWARE: &[(&str, u64)] = &[
    ("arrived", 0x40ae380000000000),
    ("comms_duplicates", 0x409d2c0000000000),
    ("comms_expired", 0x4070100000000000),
    ("comms_partition_hits", 0x4099240000000000),
    ("comms_retries", 0x40b0bd0000000000),
    ("comms_sent", 0x40b9de0000000000),
    ("completed", 0x40acb40000000000),
    ("completion_ratio", 0x3fee6521178fc077),
    ("cost_ratio", 0x3feb400000000000),
    ("drift_events", 0x4041800000000000),
    ("mean_latency", 0x401e9d796169370c),
    ("model_fallbacks", 0x0000000000000000),
    ("model_repromotions", 0x0000000000000000),
    ("model_rollbacks", 0x0000000000000000),
    ("p95_latency", 0x403a000000000000),
    ("utility", 0x3fe1a5f32fcfb64d),
    ("violation_rate", 0x3fc4a641200878b8),
];
const CLOUD_ROUGH_NAIVE: &[(&str, u64)] = &[
    ("arrived", 0x40ae380000000000),
    ("comms_duplicates", 0x0000000000000000),
    ("comms_expired", 0x0000000000000000),
    ("comms_partition_hits", 0x4070800000000000),
    ("comms_retries", 0x0000000000000000),
    ("comms_sent", 0x40a2560000000000),
    ("completed", 0x40ab440000000000),
    ("completion_ratio", 0x3fecdf6ffbc3a3df),
    ("cost_ratio", 0x3fe846d3a06d3a07),
    ("drift_events", 0x403b000000000000),
    ("mean_latency", 0x401ca81fb0314af7),
    ("model_fallbacks", 0x0000000000000000),
    ("model_repromotions", 0x0000000000000000),
    ("model_rollbacks", 0x0000000000000000),
    ("p95_latency", 0x4035000000000000),
    ("utility", 0x3fda3004efa4057d),
    ("violation_rate", 0x3fd170834f27f9a5),
];
const CPN_ROUGH_AWARE: &[(&str, u64)] = &[
    ("comms_duplicates", 0x408cc80000000000),
    ("comms_expired", 0x4028000000000000),
    ("comms_partition_hits", 0x405d000000000000),
    ("comms_retries", 0x4094cc0000000000),
    ("comms_sent", 0x40a1e60000000000),
    ("delay_attack", 0x402be49249249249),
    ("delay_post", 0x402be4d7cec15b9c),
    ("delay_pre", 0x401023c4f067260f),
    ("delivered", 0x40ad6a0000000000),
    ("delivery_ratio", 0x3fef7b48b67c0515),
    ("dropped", 0x4046000000000000),
    ("injected", 0x40ade60000000000),
    ("mean_delay", 0x40256975b2e4dec0),
    ("model_fallbacks", 0x0000000000000000),
    ("model_repromotions", 0x0000000000000000),
    ("model_rollbacks", 0x0000000000000000),
    ("utility", 0x3fec0e401efb3d9a),
];
const CPN_ROUGH_NAIVE: &[(&str, u64)] = &[
    ("comms_duplicates", 0x0000000000000000),
    ("comms_expired", 0x0000000000000000),
    ("comms_partition_hits", 0x4034000000000000),
    ("comms_retries", 0x0000000000000000),
    ("comms_sent", 0x408e000000000000),
    ("delay_attack", 0x403370b7672a07a4),
    ("delay_post", 0x4043bf903d77caea),
    ("delay_pre", 0x401023c4f067260f),
    ("delivered", 0x40ac660000000000),
    ("delivery_ratio", 0x3fee6502351cf6f8),
    ("dropped", 0x4062000000000000),
    ("injected", 0x40ade60000000000),
    ("mean_delay", 0x40364fdd118942d6),
    ("model_fallbacks", 0x0000000000000000),
    ("model_repromotions", 0x0000000000000000),
    ("model_rollbacks", 0x0000000000000000),
    ("utility", 0x3fe7413658762943),
];

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
