//! Property-based tests for the multicore platform model.

use multicore::core::{Core, CoreSpec, DvfsLevel, T_AMBIENT, T_CAP};
use proptest::prelude::*;
use simkernel::Tick;
use workloads::tasks::{Task, TaskClass};

fn task(id: u64, class: TaskClass, work: f64) -> Task {
    Task {
        id,
        class,
        work,
        arrived: Tick(0),
    }
}

fn class_strategy() -> impl Strategy<Value = TaskClass> {
    prop_oneof![
        Just(TaskClass::Compute),
        Just(TaskClass::Memory),
        Just(TaskClass::Interactive),
    ]
}

proptest! {
    #[test]
    fn work_is_conserved(
        works in proptest::collection::vec(0.1f64..10.0, 1..30),
        big in any::<bool>(),
        ticks in 1u64..200,
    ) {
        let spec = if big { CoreSpec::big() } else { CoreSpec::little() };
        let mut core = Core::new(spec);
        let total_work: f64 = works.iter().sum();
        for (i, &w) in works.iter().enumerate() {
            core.enqueue(task(i as u64, TaskClass::Compute, w));
        }
        let mut done = Vec::new();
        for t in 1..=ticks {
            core.step(Tick(t), &mut done);
        }
        // Completed + remaining backlog accounts for all queued work.
        prop_assert_eq!(done.len() + core.queue_len(), works.len());
        // The core can never complete more work than capacity allows.
        let max_speed = spec.speed; // effective speed never exceeds peak
        let completed_work: f64 = total_work - core.backlog();
        prop_assert!(completed_work <= max_speed * ticks as f64 + 1e-6);
    }

    #[test]
    fn temperature_stays_physical(
        n_tasks in 0usize..200,
        ticks in 1u64..400,
        big in any::<bool>(),
    ) {
        let spec = if big { CoreSpec::big() } else { CoreSpec::little() };
        let mut core = Core::new(spec);
        for i in 0..n_tasks {
            core.enqueue(task(i as u64, TaskClass::Compute, 1.0));
        }
        // Physical ceiling: steady state at max power.
        let p_max = spec.power_idle + spec.power_dyn;
        let t_max = T_AMBIENT + p_max * spec.r_th;
        let mut done = Vec::new();
        for t in 1..=ticks {
            core.step(Tick(t), &mut done);
            prop_assert!(core.temperature() >= T_AMBIENT - 1e-9);
            prop_assert!(core.temperature() <= t_max + 1e-6);
        }
    }

    #[test]
    fn energy_is_monotone_and_at_least_idle(
        ticks in 1u64..300,
        load in 0usize..50,
    ) {
        let mut core = Core::new(CoreSpec::little());
        for i in 0..load {
            core.enqueue(task(i as u64, TaskClass::Memory, 2.0));
        }
        let mut prev = 0.0;
        let mut done = Vec::new();
        for t in 1..=ticks {
            core.step(Tick(t), &mut done);
            prop_assert!(core.energy() > prev);
            prev = core.energy();
        }
        prop_assert!(core.energy() >= core.spec().power_idle * ticks as f64 - 1e-9);
    }

    #[test]
    fn effective_speed_monotone_in_dvfs(class in class_strategy(), big in any::<bool>()) {
        let spec = if big { CoreSpec::big() } else { CoreSpec::little() };
        let mut core = Core::new(spec);
        let mut prev = 0.0;
        for level in DvfsLevel::ALL {
            core.set_dvfs(level);
            let s = core.effective_speed(class);
            prop_assert!(s >= prev - 1e-12, "speed must not decrease with frequency");
            prop_assert!(s > 0.0);
            prev = s;
        }
    }

    #[test]
    fn completions_report_positive_latency(
        works in proptest::collection::vec(0.5f64..5.0, 1..20),
    ) {
        let mut core = Core::new(CoreSpec::big());
        for (i, &w) in works.iter().enumerate() {
            core.enqueue(task(i as u64, TaskClass::Interactive, w));
        }
        let mut done = Vec::new();
        for t in 1..=100u64 {
            done.clear();
            core.step(Tick(t), &mut done);
            for &(_, latency) in &done {
                prop_assert!(latency >= 1);
                prop_assert!(latency <= t);
            }
        }
    }

    #[test]
    fn throttling_only_above_cap(ticks in 1u64..100) {
        let mut core = Core::new(CoreSpec::little());
        // A little core at low utilisation can never approach the cap.
        core.enqueue(task(0, TaskClass::Memory, 1.0));
        let mut done = Vec::new();
        for t in 1..=ticks {
            core.step(Tick(t), &mut done);
        }
        prop_assert!(core.temperature() < T_CAP);
        prop_assert_eq!(core.throttled_ticks(), 0);
    }
}
