//! Golden digests of the supervised `cpn` and `camnet` worlds.
//!
//! No experiment table runs `run_cpn` under `SupervisedCpn` or
//! `run_camnet` with `supervise = true`, and the seq-vs-par parity
//! suite compares a build only with itself. These tests pin each
//! supervised world's full metric set, bit for bit, under a corruption
//! plan that drives the supervisor through both rollback and
//! fallback: a change to how the supervised model is stored, trained,
//! checkpointed or restored that moves any output fails here.

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
