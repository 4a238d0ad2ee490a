//! Property-based tests for workload generators.

use proptest::prelude::*;
use simkernel::{SeedTree, Tick};
use workloads::disturbance::{Disturbance, DisturbanceKind, Schedule};
use workloads::rates::{poisson, DiurnalRate, RateFn};
use workloads::signal::{SignalGen, SignalSpec};
use workloads::tasks::{TaskMix, TaskStream};
use workloads::trajectories::Wanderer;

fn disturbance_strategy() -> impl Strategy<Value = Disturbance> {
    (
        0u64..1000,
        prop_oneof![
            (-50.0f64..50.0).prop_map(|offset| DisturbanceKind::Step { offset }),
            ((-50.0f64..50.0), 0u64..100)
                .prop_map(|(offset, duration)| DisturbanceKind::Ramp { offset, duration }),
            ((-50.0f64..50.0), 1u64..100)
                .prop_map(|(offset, duration)| DisturbanceKind::Spike { offset, duration }),
            (0.0f64..4.0).prop_map(|factor| DisturbanceKind::Scale { factor }),
        ],
    )
        .prop_map(|(at, kind)| Disturbance { at: Tick(at), kind })
}

proptest! {
    #[test]
    fn schedules_never_go_negative(
        events in proptest::collection::vec(disturbance_strategy(), 0..8),
        base in 0.0f64..100.0,
        t in 0u64..2000,
    ) {
        let s = Schedule::new(events);
        prop_assert!(s.apply(base, Tick(t)) >= 0.0);
    }

    #[test]
    fn disturbances_inactive_before_onset(
        d in disturbance_strategy(),
        before in 0u64..1000,
    ) {
        prop_assume!(Tick(before) < d.at);
        prop_assert_eq!(d.contribution(Tick(before)), (0.0, 1.0));
    }

    #[test]
    fn diurnal_rate_nonnegative_and_periodic(
        base in 0.0f64..50.0,
        amplitude in 0.0f64..100.0,
        period in 1.0f64..1000.0,
        t in 0u64..5000,
    ) {
        let mut r = DiurnalRate::new(base, amplitude, period);
        let v = r.rate(Tick(t));
        prop_assert!(v >= 0.0);
        let next_cycle = t + period.round() as u64;
        if (period - period.round()).abs() < 1e-9 {
            prop_assert!((r.rate(Tick(next_cycle)) - v).abs() < 1e-6);
        }
    }

    #[test]
    fn poisson_zero_for_zero_lambda(seed in any::<u64>()) {
        let mut rng = SeedTree::new(seed).rng("p");
        prop_assert_eq!(poisson(0.0, &mut rng), 0);
    }

    #[test]
    fn wanderer_never_escapes_unit_square(speed in 0.001f64..0.3, seed in any::<u64>()) {
        let mut rng = SeedTree::new(seed).rng("w");
        let mut w = Wanderer::new(speed, &mut rng);
        for _ in 0..300 {
            let p = w.step(&mut rng);
            prop_assert!((0.0..=1.0).contains(&p.x));
            prop_assert!((0.0..=1.0).contains(&p.y));
        }
    }

    #[test]
    fn task_stream_ids_unique_and_work_positive(
        rate in 0.0f64..10.0,
        mean_work in 0.1f64..10.0,
        seed in any::<u64>(),
    ) {
        let mut s = TaskStream::new(
            vec![(0, TaskMix::new(rate, [1.0, 1.0, 1.0], mean_work))],
            SeedTree::new(seed).rng("t"),
        );
        let mut seen = std::collections::HashSet::new();
        for t in 0..50u64 {
            for task in s.emit(Tick(t)) {
                prop_assert!(seen.insert(task.id));
                prop_assert!(task.work > 0.0);
                prop_assert_eq!(task.arrived, Tick(t));
            }
        }
    }

    #[test]
    fn signal_regimes_partition_time(
        onset2 in 1u64..500,
        extra in 1u64..500,
        t in 0u64..1500,
    ) {
        let onset3 = onset2 + extra;
        let g = SignalGen::new(
            vec![
                (0, SignalSpec::Flat { level: 1.0 }),
                (onset2, SignalSpec::Flat { level: 2.0 }),
                (onset3, SignalSpec::Flat { level: 3.0 }),
            ],
            0.0,
            SeedTree::new(1).rng("s"),
        );
        let expected = if t < onset2 { 0 } else if t < onset3 { 1 } else { 2 };
        prop_assert_eq!(g.regime_at(Tick(t)), expected);
        prop_assert_eq!(g.truth(Tick(t)), (expected + 1) as f64);
    }
}
