//! Sequential/parallel parity for every experiment's scenario.
//!
//! EXPERIMENTS.md promises that regenerated tables are bit-identical
//! regardless of worker count. These tests run each domain scenario
//! through sequential `run` and parallel `run_par`/`run_matrix` at a
//! reduced scale and require exact equality of every mean and ci95.

use sas_bench::experiments::{run_f1, run_f2, run_f3, t5_scenario, t6_scenario};
use selfaware::levels::LevelSet;
use selfaware::meta::ModelPool;
use selfaware::models::ar::ArModel;
use selfaware::models::ewma::Ewma;
use selfaware::models::holt::Holt;
use simkernel::{Aggregate, MetricSet, Replications, SeedTree};

const STEPS: u64 = 800;
const REPS: u32 = 3;

fn assert_bitwise_equal(a: &Aggregate, b: &Aggregate, what: &str) {
    assert_eq!(a, b, "{what}: aggregates differ");
    for (name, _) in a.iter() {
        assert_eq!(
            a.mean(name).to_bits(),
            b.mean(name).to_bits(),
            "{what}: mean({name}) diverged"
        );
        assert_eq!(
            a.ci95(name).to_bits(),
            b.ci95(name).to_bits(),
            "{what}: ci95({name}) diverged"
        );
    }
}

/// Runs one scenario through `run`, `run_par_threads` (several
/// counts), and a one-arm `run_matrix`, asserting exact agreement.
fn check_parity<F>(base_seed: u64, scenario: F, what: &str)
where
    F: Fn(SeedTree) -> MetricSet + Sync,
{
    let reps = Replications::new(base_seed, REPS);
    let seq = reps.run(&scenario);
    for threads in [1, 2, 4] {
        let par = reps.run_par_threads(threads, &scenario);
        assert_bitwise_equal(&par, &seq, what);
    }
    let matrix = reps.run_matrix_threads(4, &[()], |(), seeds| scenario(seeds));
    assert_bitwise_equal(&matrix[0], &seq, what);
}

#[test]
fn cloud_scenarios_are_parity_clean() {
    // T1/T2/F4 all reduce to cloudsim::run_scenario under a strategy.
    let strategies = [
        cloudsim::Strategy::Random,
        cloudsim::Strategy::LeastLoaded,
        cloudsim::Strategy::SelfAware {
            levels: LevelSet::full(),
        },
    ];
    for strategy in &strategies {
        check_parity(
            0x71,
            |seeds| {
                let cfg = cloudsim::ScenarioConfig::standard(strategy.clone(), STEPS);
                cloudsim::run_scenario(&cfg, &seeds).metrics
            },
            &format!("cloud/{}", strategy.label()),
        );
    }
}

#[test]
fn camnet_scenarios_are_parity_clean() {
    // T3/A1: camera handover under each strategy family.
    let strategies = [
        camnet::HandoverStrategy::Broadcast,
        camnet::HandoverStrategy::self_aware_default(),
    ];
    for &strategy in &strategies {
        check_parity(
            0x73,
            |seeds| {
                camnet::run_camnet(&camnet::CamnetConfig::standard(strategy, STEPS), &seeds).metrics
            },
            &format!("camnet/{}", strategy.label()),
        );
    }
}

#[test]
fn multicore_scenarios_are_parity_clean() {
    // T4: every scheduler.
    for scheduler in [
        multicore::Scheduler::StaticPin,
        multicore::Scheduler::Greedy,
        multicore::Scheduler::SelfAware,
    ] {
        check_parity(
            0x74,
            |seeds| {
                multicore::run_multicore(
                    &multicore::MulticoreConfig::standard(scheduler, STEPS),
                    &seeds,
                )
                .metrics
            },
            &format!("multicore/{}", scheduler.label()),
        );
    }
}

#[test]
fn cpn_scenarios_are_parity_clean() {
    // F2/A2: routing under DoS.
    for strategy in [
        cpn::RoutingStrategy::StaticShortest,
        cpn::RoutingStrategy::cpn_default(),
    ] {
        check_parity(
            0xA2,
            |seeds| cpn::run_cpn(&cpn::CpnConfig::standard(strategy, STEPS), &seeds).metrics,
            &format!("cpn/{}", strategy.label()),
        );
    }
}

#[test]
fn model_pool_scenario_is_parity_clean() {
    // A3: the meta model-pool on a drifting signal.
    use workloads::signal::{SignalGen, SignalSpec};
    check_parity(
        0xA3,
        |seeds| {
            let regimes = vec![
                (0, SignalSpec::Flat { level: 10.0 }),
                (
                    STEPS / 2,
                    SignalSpec::Trend {
                        start: 10.0,
                        slope: 0.3,
                    },
                ),
            ];
            let mut gen = SignalGen::new(regimes, 0.5, seeds.rng("signal"));
            let mut pool = ModelPool::new(0.1, 8);
            pool.add("ewma", Box::new(Ewma::new(0.3)));
            pool.add("holt", Box::new(Holt::new(0.5, 0.3)));
            pool.add("ar", Box::new(ArModel::new(2, 64)));
            let mut err = 0.0;
            let mut n = 0u64;
            for t in 0..STEPS {
                let x = gen.sample(simkernel::Tick(t));
                if let Some(p) = pool.forecast() {
                    err += (p - x).abs();
                    n += 1;
                }
                pool.observe(x);
            }
            let mut m = MetricSet::new();
            m.set("mae", err / n.max(1) as f64);
            m.set("switches", f64::from(pool.switches()));
            m
        },
        "pool/patience-8",
    );
}

#[test]
fn t5_collective_scenario_is_parity_clean() {
    for n in [10usize, 50] {
        check_parity(0x75, |seeds| t5_scenario(n, seeds), &format!("t5/n={n}"));
    }
}

#[test]
fn t6_attention_scenario_is_parity_clean() {
    for budget in [1usize, 4] {
        check_parity(
            0x76,
            |seeds| t6_scenario(budget, STEPS, seeds),
            &format!("t6/budget={budget}"),
        );
    }
}

#[test]
fn figure_experiments_are_deterministic_under_par_map() {
    // F1/F2/F3 fan single-seed runs over strategies/models with
    // par_map; re-running must reproduce the exact rendered output.
    assert_eq!(run_f1(STEPS), run_f1(STEPS));
    assert_eq!(run_f2(STEPS), run_f2(STEPS));
    assert_eq!(run_f3(STEPS), run_f3(STEPS));
}

#[test]
fn faulted_camnet_is_parity_clean() {
    // Fixed plan (the F5 outage) and a seed-derived random plan: the
    // fault layer must not disturb replicate-order determinism.
    use sas_bench::experiments::f5_scenario;
    check_parity(
        0xF5,
        |seeds| {
            f5_scenario(
                &camnet::HandoverStrategy::self_aware_default(),
                seeds,
                STEPS,
            )
        },
        "faults/camnet/f5",
    );
    check_parity(
        0xF5,
        |seeds| {
            let mut cfg = camnet::CamnetConfig::standard(
                camnet::HandoverStrategy::self_aware_default(),
                STEPS,
            );
            cfg.faults = workloads::FaultPlan::random_camera_outages(
                &seeds,
                16,
                3,
                (STEPS / 4, 3 * STEPS / 4),
                STEPS / 8,
            );
            camnet::run_camnet(&cfg, &seeds).metrics
        },
        "faults/camnet/random-plan",
    );
}

#[test]
fn faulted_cpn_is_parity_clean() {
    use workloads::FaultEvent;
    for strategy in [
        cpn::RoutingStrategy::StaticShortest,
        cpn::RoutingStrategy::cpn_default(),
    ] {
        check_parity(
            0xF5C,
            |seeds| {
                let mut cfg = cpn::CpnConfig::standard(strategy, STEPS);
                // Cut two row links mid-run, restore one.
                cfg.faults = workloads::FaultPlan::new(vec![
                    FaultEvent::link_cut(simkernel::Tick(STEPS / 4), 1, 2),
                    FaultEvent::link_cut(simkernel::Tick(STEPS / 4), 7, 8),
                    FaultEvent::link_restore(simkernel::Tick(3 * STEPS / 4), 1, 2),
                ]);
                cpn::run_cpn(&cfg, &seeds).metrics
            },
            &format!("faults/cpn/{}", strategy.label()),
        );
    }
}

#[test]
fn faulted_multicore_is_parity_clean() {
    use workloads::FaultEvent;
    for scheduler in [
        multicore::Scheduler::Greedy,
        multicore::Scheduler::SelfAware,
    ] {
        check_parity(
            0xF5D,
            |seeds| {
                let mut cfg = multicore::MulticoreConfig::standard(scheduler, STEPS);
                cfg.faults = workloads::FaultPlan::new(vec![
                    FaultEvent::core_fail(simkernel::Tick(STEPS / 3), 0),
                    FaultEvent::core_fail(simkernel::Tick(STEPS / 3), 1),
                    FaultEvent::core_recover(simkernel::Tick(2 * STEPS / 3), 0),
                    FaultEvent::core_recover(simkernel::Tick(2 * STEPS / 3), 1),
                ]);
                multicore::run_multicore(&cfg, &seeds).metrics
            },
            &format!("faults/multicore/{}", scheduler.label()),
        );
    }
}

#[test]
fn faulted_cloud_is_parity_clean() {
    use workloads::FaultEvent;
    check_parity(
        0xF5E,
        |seeds| {
            let strategy = cloudsim::Strategy::SelfAware {
                levels: LevelSet::full(),
            };
            let mut cfg = cloudsim::ScenarioConfig::standard(strategy, STEPS);
            cfg.faults = workloads::FaultPlan::new(vec![FaultEvent::zone_outage(
                simkernel::Tick(STEPS / 3),
                0,
                6,
                STEPS / 4,
            )]);
            cloudsim::run_scenario(&cfg, &seeds).metrics
        },
        "faults/cloud/zone-outage",
    );
}

#[test]
fn f6_sensor_fault_scenario_is_parity_clean() {
    use sas_bench::experiments::f6_scenario;
    for guarded in [false, true] {
        check_parity(
            0xF6,
            |seeds| f6_scenario(guarded, seeds, STEPS),
            &format!("faults/f6/guarded={guarded}"),
        );
    }
}

#[test]
fn f7_controller_corruption_is_parity_clean() {
    use sas_bench::experiments::{f7_fault_plan, f7_scenario, F7Arm};
    let plan = f7_fault_plan(STEPS);
    for arm in [F7Arm::Baseline, F7Arm::Unsupervised, F7Arm::Supervised] {
        check_parity(
            0xF7,
            |seeds| f7_scenario(arm, &plan, seeds, STEPS),
            &format!("faults/f7/{}", arm.label()),
        );
    }
}

#[test]
fn supervised_substrates_are_parity_clean() {
    use workloads::faults::ModelCorruptionKind;
    // Every substrate's supervised arm, with its model actively
    // corrupted mid-run: rollback/fallback/re-promotion machinery must
    // not disturb replicate-order determinism.
    let plan = || {
        workloads::FaultPlan::new(vec![
            workloads::FaultEvent::model_corruption(
                simkernel::Tick(STEPS / 3),
                0,
                ModelCorruptionKind::NanPoison,
            ),
            workloads::FaultEvent::model_corruption(
                simkernel::Tick(2 * STEPS / 3),
                0,
                ModelCorruptionKind::WeightScramble { gain: 20.0 },
            ),
        ])
    };
    check_parity(
        0xF7A,
        |seeds| {
            let strategy = cloudsim::Strategy::SupervisedSelfAware {
                levels: LevelSet::full(),
            };
            let mut cfg = cloudsim::ScenarioConfig::standard(strategy, STEPS);
            cfg.faults = plan();
            cloudsim::run_scenario(&cfg, &seeds).metrics
        },
        "supervised/cloud",
    );
    check_parity(
        0xF7B,
        |seeds| {
            let mut cfg = multicore::MulticoreConfig::standard(
                multicore::Scheduler::SupervisedSelfAware,
                STEPS,
            );
            cfg.faults = plan();
            multicore::run_multicore(&cfg, &seeds).metrics
        },
        "supervised/multicore",
    );
    check_parity(
        0xF7C,
        |seeds| {
            let mut cfg = cpn::CpnConfig::standard(cpn::RoutingStrategy::SupervisedCpn, STEPS);
            cfg.faults = plan();
            cpn::run_cpn(&cfg, &seeds).metrics
        },
        "supervised/cpn",
    );
    check_parity(
        0xF7D,
        |seeds| {
            let mut cfg = camnet::CamnetConfig::standard(
                camnet::HandoverStrategy::self_aware_default(),
                STEPS,
            );
            cfg.supervise = true;
            cfg.faults = plan();
            camnet::run_camnet(&cfg, &seeds).metrics
        },
        "supervised/camnet",
    );
}

#[test]
fn f8_lossy_comms_scenarios_are_parity_clean() {
    use sas_bench::experiments::{f8_scenario, F8Arm};
    // Lossy channels and partitions on every substrate, both comms
    // policies: the channel draws are stateless hashes, so replicate
    // order must not leak into any delivered, retried, or expired
    // message.
    for naive in [false, true] {
        for partition in [0, 200] {
            let arm = F8Arm {
                loss: 0.3,
                partition,
                naive,
            };
            check_parity(
                0xF8,
                |seeds| f8_scenario(arm, seeds, STEPS),
                &format!("comms/f8/naive={naive}/partition={partition}"),
            );
        }
    }
}

#[test]
fn f9_composed_city_scenarios_are_parity_clean() {
    use sas_bench::experiments::{f9_scenario, F9Arm};
    // The composed world crosses every substrate boundary in one
    // tick; the cascade campaign (zone outage + healing-inside-outage
    // partition + sensor bias + model scramble + lossy command links)
    // exercises all of them at once. Both the full stack and the
    // all-naive ablation must be bit-identical seq vs parallel.
    for arm in [F9Arm::Supervised, F9Arm::AllNaive] {
        check_parity(
            0xF9,
            |seeds| f9_scenario(arm, seeds, STEPS),
            &format!("compose/f9/{}", arm.label()),
        );
    }
}
