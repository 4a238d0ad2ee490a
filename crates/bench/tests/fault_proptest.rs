//! Property tests for the fault layer: for *any* fault plan, runs are
//! (a) deterministic per seed and (b) bit-identical between the
//! sequential and parallel replication engines.
//!
//! Case counts are kept low because each case simulates full
//! scenarios; the point is plan-shape coverage, not statistical power.

use proptest::prelude::*;
use sas_bench::experiments::{f7_scenario, F7Arm, F7_REGRET_CAP};
use selfaware::comms::{CommsPolicy, ReliableConfig};
use simkernel::{Aggregate, Replications, SeedTree, Tick};
use workloads::faults::{ChannelPlan, LinkModel, ModelCorruptionKind};
use workloads::{FaultEvent, FaultPlan, SensorFaultKind};

const STEPS: u64 = 400;
const REPS: u32 = 2;

fn assert_bitwise_equal(a: &Aggregate, b: &Aggregate, what: &str) {
    assert_eq!(a, b, "{what}: aggregates differ");
    for (name, _) in a.iter() {
        assert_eq!(
            a.mean(name).to_bits(),
            b.mean(name).to_bits(),
            "{what}: mean({name}) diverged"
        );
    }
}

/// The aggregate [`Replications::run`] would fold from these runs.
fn aggregate(runs: &[compose::CityResult]) -> Aggregate {
    let mut agg = Aggregate::default();
    for r in runs {
        agg.absorb(&r.metrics);
    }
    agg
}

/// A metric set as `(name, bits)` pairs, so NaNs compare equal to
/// themselves.
fn metric_bits(m: &simkernel::MetricSet) -> Vec<(String, u64)> {
    m.iter().map(|(k, v)| (k.to_owned(), v.to_bits())).collect()
}

/// An arbitrary fail/recover pair on one camera of the 4×4 grid.
fn camera_outage() -> impl Strategy<Value = [FaultEvent; 2]> {
    (0usize..16, 0u64..STEPS, 1u64..STEPS / 2).prop_map(|(cam, at, down)| {
        [
            FaultEvent::camera_fail(Tick(at), cam),
            FaultEvent::camera_recover(Tick(at + down), cam),
        ]
    })
}

/// An arbitrary cut/restore pair on a horizontal link of the 4×6 CPN
/// grid.
fn link_outage() -> impl Strategy<Value = [FaultEvent; 2]> {
    (0usize..4, 0usize..5, 0u64..STEPS, 1u64..STEPS / 2).prop_map(|(r, c, at, down)| {
        let (a, b) = (r * 6 + c, r * 6 + c + 1);
        [
            FaultEvent::link_cut(Tick(at), a, b),
            FaultEvent::link_restore(Tick(at + down), a, b),
        ]
    })
}

/// An arbitrary fail/recover pair on one of the 8 multicore cores.
fn core_outage() -> impl Strategy<Value = [FaultEvent; 2]> {
    (0usize..8, 0u64..STEPS, 1u64..STEPS / 2).prop_map(|(core, at, down)| {
        [
            FaultEvent::core_fail(Tick(at), core),
            FaultEvent::core_recover(Tick(at + down), core),
        ]
    })
}

/// An arbitrary sensor fault on one of three sensors.
fn sensor_fault() -> impl Strategy<Value = FaultEvent> {
    let kind = prop_oneof![
        Just(SensorFaultKind::StuckAt),
        (-5.0f64..5.0).prop_map(|offset| SensorFaultKind::Bias { offset }),
        Just(SensorFaultKind::Dropout),
        (0.1f64..4.0).prop_map(|sigma| SensorFaultKind::Noise { sigma }),
    ];
    (0usize..3, 0u64..STEPS, 1u64..STEPS / 2, kind)
        .prop_map(|(sensor, at, dur, kind)| FaultEvent::sensor_fault(Tick(at), sensor, kind, dur))
}

/// An arbitrary unreliable-link model: any mix of loss, duplication,
/// and delay/reordering within the validated probability ranges.
fn link_model() -> impl Strategy<Value = LinkModel> {
    (0.0f64..0.6, 0.0f64..0.3, 0.0f64..0.4, 1u64..6).prop_map(
        |(loss, dup, delay_prob, max_delay)| LinkModel {
            loss,
            dup,
            delay_prob,
            max_delay,
        },
    )
}

/// An optional scheduled partition silencing a random node subset.
/// Node ids stay below 16 so the same spec is valid on the camnet
/// grid (16 cameras) and the CPN grid (24 routers).
fn partition_spec() -> impl Strategy<Value = Option<(u64, u64, Vec<usize>)>> {
    (
        any::<bool>(),
        0u64..STEPS,
        1u64..STEPS / 2,
        proptest::collection::vec(0usize..16, 1..4),
    )
        .prop_map(|(on, start, duration, nodes)| on.then_some((start, duration, nodes)))
}

fn channel_of(
    seeds: &SeedTree,
    model: LinkModel,
    part: &Option<(u64, u64, Vec<usize>)>,
) -> ChannelPlan {
    let mut plan = ChannelPlan::uniform(seeds, model);
    if let Some((start, duration, nodes)) = part.clone() {
        plan = plan.with_partition(start, duration, nodes);
    }
    plan
}

/// An arbitrary model-corruption event aimed at controller 0.
fn model_corruption() -> impl Strategy<Value = FaultEvent> {
    let kind = prop_oneof![
        Just(ModelCorruptionKind::NanPoison),
        (2.0f64..60.0).prop_map(|gain| ModelCorruptionKind::WeightScramble { gain }),
        (1u64..STEPS / 3).prop_map(|duration| ModelCorruptionKind::StateFreeze { duration }),
    ];
    (0u64..STEPS, kind).prop_map(|(at, kind)| FaultEvent::model_corruption(Tick(at), 0, kind))
}

fn plan_of(events: Vec<[FaultEvent; 2]>) -> FaultPlan {
    FaultPlan::new(events.into_iter().flatten().collect())
}

fn check_parity<F>(base_seed: u64, scenario: F, what: &str)
where
    F: Fn(SeedTree) -> simkernel::MetricSet + Sync,
{
    let reps = Replications::new(base_seed, REPS);
    let seq = reps.run(&scenario);
    let par = reps.run_par_threads(4, &scenario);
    assert_bitwise_equal(&par, &seq, what);
}

proptest! {

    #[test]
    fn any_camera_fault_plan_is_parity_clean(outages in proptest::collection::vec(camera_outage(), 0..5)) {
        let plan = plan_of(outages);
        check_parity(0x9A1, |seeds| {
            let mut cfg = camnet::CamnetConfig::standard(
                camnet::HandoverStrategy::self_aware_default(),
                STEPS,
            );
            cfg.faults = plan.clone();
            camnet::run_camnet(&cfg, &seeds).metrics
        }, "proptest/camnet");
    }

    #[test]
    fn any_link_fault_plan_is_parity_clean(outages in proptest::collection::vec(link_outage(), 0..5)) {
        let plan = plan_of(outages);
        check_parity(0x9A2, |seeds| {
            let mut cfg = cpn::CpnConfig::standard(cpn::RoutingStrategy::cpn_default(), STEPS);
            cfg.faults = plan.clone();
            cpn::run_cpn(&cfg, &seeds).metrics
        }, "proptest/cpn");
    }

    #[test]
    fn any_core_fault_plan_is_parity_clean(outages in proptest::collection::vec(core_outage(), 0..5)) {
        let plan = plan_of(outages);
        check_parity(0x9A3, |seeds| {
            let mut cfg = multicore::MulticoreConfig::standard(
                multicore::Scheduler::SelfAware,
                STEPS,
            );
            cfg.faults = plan.clone();
            multicore::run_multicore(&cfg, &seeds).metrics
        }, "proptest/multicore");
    }

    #[test]
    fn any_corruption_plan_is_parity_clean_and_bounded(events in proptest::collection::vec(model_corruption(), 0..5)) {
        // For any random corruption plan, the supervised F7 controller
        // (a) stays seq/par parity-clean and (b) never pays more than
        // the regret cap per tick on average.
        let plan = FaultPlan::new(events);
        for arm in [F7Arm::Unsupervised, F7Arm::Supervised] {
            check_parity(0x9A5, |seeds| f7_scenario(arm, &plan, seeds, STEPS), "proptest/f7");
        }
        let m = f7_scenario(F7Arm::Supervised, &plan, SeedTree::new(0x9A5), STEPS);
        let mean = m.get("mean_regret").unwrap_or(f64::NAN);
        prop_assert!(mean.is_finite() && mean <= F7_REGRET_CAP, "mean regret {mean}");
    }

    #[test]
    fn nan_poison_always_favours_supervision(at in (STEPS / 8)..(STEPS / 2), seed in 0u64..32) {
        // Wherever a NaN poisoning lands (with room left to recover),
        // the supervised controller's corrupted-window regret must
        // strictly beat the unsupervised one's: the unsupervised Holt
        // forecasts NaN forever after, paying the cap each tick.
        let plan = FaultPlan::new(vec![FaultEvent::model_corruption(
            Tick(at),
            0,
            ModelCorruptionKind::NanPoison,
        )]);
        let sup = f7_scenario(F7Arm::Supervised, &plan, SeedTree::new(seed), STEPS);
        let uns = f7_scenario(F7Arm::Unsupervised, &plan, SeedTree::new(seed), STEPS);
        let s = sup.get("regret_corrupt").unwrap_or(f64::NAN);
        let u = uns.get("regret_corrupt").unwrap_or(f64::NAN);
        prop_assert!(s < u, "supervised {s} vs unsupervised {u} (poison at {at})");
    }

    #[test]
    fn any_channel_plan_is_parity_clean(
        model in link_model(),
        part in partition_spec(),
        naive in any::<bool>(),
    ) {
        // For any random channel (loss + duplication + delay/reorder +
        // optional partition) and either comms policy, the lossy
        // collective runs must stay bit-identical between the
        // sequential and parallel replication engines: channel draws
        // are stateless hashes of (plan salt, link, sequence number),
        // never of replicate order.
        let policy = if naive {
            CommsPolicy::Naive
        } else {
            CommsPolicy::Reliable(ReliableConfig::default())
        };
        check_parity(0x9A6, |seeds| {
            let mut cfg = camnet::CamnetConfig::standard(
                camnet::HandoverStrategy::self_aware_default(),
                STEPS,
            );
            cfg.channel = channel_of(&seeds, model, &part);
            cfg.comms = policy;
            camnet::run_camnet(&cfg, &seeds).metrics
        }, "proptest/channel/camnet");
        check_parity(0x9A7, |seeds| {
            let mut cfg = cpn::CpnConfig::standard(cpn::RoutingStrategy::cpn_default(), STEPS);
            cfg.channel = channel_of(&seeds, model, &part);
            cfg.comms = policy;
            cpn::run_cpn(&cfg, &seeds).metrics
        }, "proptest/channel/cpn");
    }

    #[test]
    fn any_sensor_fault_plan_keeps_runs_deterministic(events in proptest::collection::vec(sensor_fault(), 0..6)) {
        // The F6 pipeline re-run with the same seed must be identical
        // under any plan; guarded and raw arms both go through it.
        let plan = FaultPlan::new(events);
        let seeds = SeedTree::new(0x9A4);
        for guarded in [false, true] {
            let a = f6_like(&plan, guarded, seeds);
            let b = f6_like(&plan, guarded, seeds);
            prop_assert_eq!(a, b, "guarded={}", guarded);
        }
    }
}

/// A reduced F6 pipeline parameterised on an arbitrary plan, returning
/// the bits of the final estimate error (for exact comparison).
fn f6_like(plan: &FaultPlan, guarded: bool, seeds: SeedTree) -> u64 {
    use rand::Rng as _;
    use selfaware::explain::ExplanationLog;
    use selfaware::health::SensorHealth;
    use workloads::signal::{SignalGen, SignalSpec};

    let mut gen = SignalGen::new(
        vec![(
            0,
            SignalSpec::Oscillation {
                center: 20.0,
                amplitude: 6.0,
                period: 300.0,
            },
        )],
        0.0,
        seeds.rng("truth"),
    );
    let mut srng = seeds.rng("sensor-noise");
    let mut frng = seeds.rng("fault-noise");
    let mut health = SensorHealth::default();
    let mut log = ExplanationLog::new(256);
    let mut held = [20.0f64; 3];
    let mut est = 20.0;
    let mut err = 0.0f64;
    for t in 0..STEPS {
        let now = Tick(t);
        let truth = gen.sample(now);
        let mut trusted = Vec::with_capacity(3);
        for (i, h) in held.iter_mut().enumerate() {
            let clean = truth + 0.2 * (srng.gen::<f64>() * 2.0 - 1.0);
            let raw = match plan.sensor_fault_at(i, now) {
                Some(k) => k.corrupt(clean, *h, &mut frng),
                None => {
                    *h = clean;
                    Some(clean)
                }
            };
            if guarded {
                let key = ["s0", "s1", "s2"][i];
                let r = health.observe_with_reference(key, raw, Some(est), now, &mut log);
                if !r.degraded && !r.substituted {
                    trusted.push(r.value);
                }
            } else if let Some(x) = raw {
                trusted.push(x);
            }
        }
        if !trusted.is_empty() {
            est = trusted.iter().sum::<f64>() / trusted.len() as f64;
        }
        err += (est - truth).abs();
    }
    err.to_bits()
}

/// An arbitrary zone outage over the F9 world's 9 backend machines
/// (3 zones × 3 cores).
fn zone_outage_event() -> impl Strategy<Value = FaultEvent> {
    (0usize..9, 1usize..4, 0u64..STEPS, 1u64..STEPS / 2)
        .prop_map(|(first, count, at, dur)| FaultEvent::zone_outage(Tick(at), first, count, dur))
}

proptest! {
    #[test]
    fn any_fault_campaign_is_parity_clean(
        zones in proptest::collection::vec(zone_outage_event(), 0..3),
        links in proptest::collection::vec(link_outage(), 0..3),
        sensors in proptest::collection::vec(sensor_fault(), 0..3),
        corruptions in proptest::collection::vec(model_corruption(), 0..2),
        model in link_model(),
        part in partition_spec(),
        naive in any::<bool>(),
    ) {
        // The F9 composition is the union of every fault surface:
        // random composed campaigns (zone outages + CPN link cuts +
        // sensor faults + model corruption + an arbitrary lossy /
        // partitioned command channel) over the composed city must
        // never panic, never wedge the delivery queue, and stay
        // bit-identical between the sequential and parallel
        // replication engines at both stack policies.
        let plan = FaultPlan::new(
            zones
                .into_iter()
                .chain(links.into_iter().flatten())
                .chain(sensors)
                .chain(corruptions)
                .collect(),
        );
        let policy = if naive {
            compose::CityPolicy::all_naive()
        } else {
            compose::CityPolicy::supervised()
        };
        check_parity(0x9A9, |seeds| {
            let city_seeds = seeds.child("city");
            let mut cfg = compose::CityConfig::standard(policy.clone(), STEPS, &city_seeds);
            cfg.campaign = workloads::FaultCampaign::new("prop", &city_seeds)
                .with_faults(&plan)
                .with_channel(channel_of(&city_seeds, model, &part));
            compose::run_city(&cfg, &city_seeds).metrics
        }, &format!("proptest/f9-campaign/naive={naive}"));
    }

    #[test]
    fn any_single_flip_mask_is_parity_clean_and_factual_mask_is_identity(
        zones in proptest::collection::vec(zone_outage_event(), 0..2),
        links in proptest::collection::vec(link_outage(), 0..2),
        sensors in proptest::collection::vec(sensor_fault(), 0..3),
        corruptions in proptest::collection::vec(model_corruption(), 0..2),
        model in link_model(),
        class_idx in 0usize..selfaware::replay::InterventionClass::ALL.len(),
    ) {
        // The counterfactual-replay contract (F10): suppressing any
        // single intervention class must leave the composed-city run
        // (a) bit-identical between the sequential engine and the
        // parallel engine at 1 and 4 threads — masked branches consume
        // no RNG, so masking cannot perturb replicate seed streams —
        // (b) the factual (all-bits-off) mask must reproduce the
        // unmasked original run bit-exactly, and (c) the replay skip
        // must be exact: a masked run's ledger never counts its
        // suppressed class, and where the factual ledger shows the
        // class never fired, the masked run equals the factual one.
        use selfaware::replay::{InterventionClass, InterventionMask};
        let plan = FaultPlan::new(
            zones
                .into_iter()
                .chain(links.into_iter().flatten())
                .chain(sensors)
                .chain(corruptions)
                .collect(),
        );
        let run = |seeds: SeedTree, mask: Option<InterventionMask>| {
            let city_seeds = seeds.child("city");
            let mut cfg = compose::CityConfig::standard(
                compose::CityPolicy::supervised(),
                STEPS,
                &city_seeds,
            );
            let mut campaign = workloads::FaultCampaign::new("prop-mask", &city_seeds)
                .with_faults(&plan)
                .with_channel(channel_of(&city_seeds, model, &None));
            if let Some(m) = mask {
                campaign = campaign.with_mask(m);
            }
            cfg.campaign = campaign;
            compose::run_city(&cfg, &city_seeds)
        };

        let class = InterventionClass::ALL[class_idx];
        let flipped = InterventionMask::suppressing(class);
        let reps = Replications::new(0x9AB, REPS);
        let masked_runs = reps.collect(|seeds| run(seeds, Some(flipped)));
        let seq = aggregate(&masked_runs);
        let masked = |seeds: SeedTree| run(seeds, Some(flipped)).metrics;
        assert_bitwise_equal(&reps.run_par_threads(1, masked), &seq, "proptest/mask/par1");
        assert_bitwise_equal(&reps.run_par_threads(4, masked), &seq, "proptest/mask/par4");

        let factual_runs = reps.collect(|seeds| run(seeds, Some(InterventionMask::allow_all())));
        let original = reps.run(|seeds| run(seeds, None).metrics);
        assert_bitwise_equal(&aggregate(&factual_runs), &original, "proptest/mask/factual-identity");

        for (k, (factual, masked)) in factual_runs.iter().zip(&masked_runs).enumerate() {
            let what = format!("proptest/mask/skip {} replicate {k}", class.label());
            assert_eq!(masked.log.fires(class), 0, "{what}: suppressed class counted a fire");
            if factual.log.fires(class) == 0 {
                assert_eq!(
                    metric_bits(&masked.metrics),
                    metric_bits(&factual.metrics),
                    "{what}: a never-fired class changed the metrics"
                );
                assert_eq!(
                    masked.comms_stats, factual.comms_stats,
                    "{what}: a never-fired class changed the comms counters"
                );
            }
        }
    }
}
