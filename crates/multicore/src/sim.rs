//! The T4 scenario runner: phase-switching task mix over a 4+4
//! big.LITTLE platform.

use crate::core::{Core, CoreSpec};
use crate::sched::Scheduler;
use selfaware::goals::{Direction, Goal, Objective};
use selfaware::replay::InterventionMask;
use simkernel::obs;
use simkernel::rng::SeedTree;
use simkernel::{MetricSet, Tick, TimeSeries};
use workloads::faults::{FaultKind, FaultPlan};
use workloads::tasks::{TaskMix, TaskStream};

/// Configuration of a multicore scenario.
#[derive(Debug, Clone)]
pub struct MulticoreConfig {
    /// Number of big cores.
    pub big_cores: usize,
    /// Number of little cores.
    pub little_cores: usize,
    /// Simulation length in ticks.
    pub steps: u64,
    /// Task phases (onset tick, mix).
    pub phases: Vec<(u64, TaskMix)>,
    /// Deadline for interactive tasks (ticks); others unconstrained.
    pub interactive_deadline: u64,
    /// Scheduled faults. `CoreFail` / `CoreRecover` take cores
    /// offline — a failing core orphans its queue (partial progress
    /// lost), the scheduler immediately redistributes the orphans,
    /// and assignments landing on an offline core are redirected to
    /// the next online one. `ModelCorruption` poisons the scheduler's
    /// thermal-forecast bank. Other kinds are ignored.
    pub faults: FaultPlan,
    /// Scheduler under test.
    pub scheduler: Scheduler,
    /// Counterfactual intervention mask, applied to the thermal
    /// supervisor. [`InterventionMask::allow_all`] (the default)
    /// reproduces historical behaviour bit for bit.
    pub mask: InterventionMask,
}

impl MulticoreConfig {
    /// Standard T4 scenario: 4 big + 4 little cores; compute-heavy
    /// phase, then memory-bound batch phase, then a mixed interactive
    /// phase.
    #[must_use]
    pub fn standard(scheduler: Scheduler, steps: u64) -> Self {
        let third = steps / 3;
        Self {
            big_cores: 4,
            little_cores: 4,
            steps,
            phases: vec![
                (0, TaskMix::new(3.0, [0.8, 0.1, 0.1], 2.5)),
                (third, TaskMix::new(3.5, [0.1, 0.8, 0.1], 2.5)),
                (2 * third, TaskMix::new(4.0, [0.3, 0.3, 0.4], 1.8)),
            ],
            interactive_deadline: 8,
            faults: FaultPlan::none(),
            scheduler,
            mask: InterventionMask::allow_all(),
        }
    }
}

/// Outputs of a multicore run.
#[derive(Debug, Clone)]
pub struct MulticoreResult {
    /// Scalar metrics (see [`run_multicore`] for keys).
    pub metrics: MetricSet,
    /// Max core temperature per 25 ticks.
    pub peak_temp: TimeSeries,
}

/// The platform goal: throughput up, energy and thermal stress down.
#[must_use]
pub fn multicore_goal() -> Goal {
    Goal::new("fast-cool-frugal")
        .objective(Objective::new(
            "completion_ratio",
            Direction::Maximize,
            1.0,
            2.0,
        ))
        .objective(Objective::new(
            "energy_per_task",
            Direction::Minimize,
            4.0,
            1.5,
        ))
        .objective(Objective::new(
            "throttle_ratio",
            Direction::Minimize,
            0.05,
            1.5,
        ))
        .objective(Objective::new(
            "deadline_miss_rate",
            Direction::Minimize,
            0.3,
            1.0,
        ))
        .objective(Objective::new(
            "mean_latency",
            Direction::Minimize,
            30.0,
            1.0,
        ))
}

/// Runs a scenario. Metric keys:
///
/// * `arrived`, `completed`, `completion_ratio`;
/// * `mean_latency` — over completed tasks;
/// * `deadline_miss_rate` — interactive tasks late / interactive
///   completed;
/// * `energy_total`, `energy_per_task`;
/// * `throttle_ratio` — throttled core-ticks / total core-ticks;
/// * `peak_temp` — maximum junction temperature seen;
/// * `drift_events` — meta-level detections;
/// * `utility` — [`multicore_goal`] composite.
#[must_use]
pub fn run_multicore(cfg: &MulticoreConfig, seeds: &SeedTree) -> MulticoreResult {
    assert!(cfg.big_cores + cfg.little_cores > 0, "need cores");
    let mut cores: Vec<Core> = (0..cfg.big_cores)
        .map(|_| Core::new(CoreSpec::big()))
        .chain((0..cfg.little_cores).map(|_| Core::new(CoreSpec::little())))
        .collect();
    let mut stream = TaskStream::new(cfg.phases.clone(), seeds.rng("tasks"));
    let mut controller = cfg.scheduler.build(cores.len());
    if let Some(model) = controller.thermal_model() {
        model.set_mask(cfg.mask);
    }
    let mut sched_rng = seeds.rng("sched");

    let mut arrived = 0u64;
    let mut completed = 0u64;
    let mut latency_sum = 0.0;
    let mut interactive_done = 0u64;
    let mut interactive_late = 0u64;
    let mut peak_temp_overall: f64 = 0.0;
    let mut peak_series = TimeSeries::new(cfg.scheduler.label());
    // Each core's completions this tick; reused every tick.
    let mut done = Vec::new();

    for t in 0..cfg.steps {
        let now = Tick(t);

        // Phase spans (sense → decide → act) are profiling only —
        // timing never feeds scheduling (see `simkernel::obs`).
        let sense_span = obs::span("multicore:sense");

        // Apply scheduled core faults before anything schedules.
        for ev in cfg.faults.events_at(now) {
            match ev.kind {
                FaultKind::CoreFail { core } if core < cores.len() => {
                    let orphans = cores[core].fail();
                    for task in orphans {
                        let idx = controller.assign(&cores, &task, &mut sched_rng);
                        let idx = redirect_online(&cores, idx);
                        cores[idx].enqueue(task);
                    }
                }
                FaultKind::CoreRecover { core } if core < cores.len() => {
                    cores[core].recover();
                }
                FaultKind::ModelCorruption { kind, .. } => {
                    if let Some(model) = controller.thermal_model() {
                        kind.apply(model, now);
                    }
                }
                _ => {}
            }
        }

        drop(sense_span);
        let decide_span = obs::span("multicore:decide");
        controller.begin_tick(&mut cores, now);
        for task in stream.emit(now) {
            arrived += 1;
            let idx = controller.assign(&cores, &task, &mut sched_rng);
            let idx = redirect_online(&cores, idx);
            cores[idx].enqueue(task);
        }
        drop(decide_span);
        let _act_span = obs::span("multicore:act");
        for (i, core) in cores.iter_mut().enumerate() {
            done.clear();
            core.step(now, &mut done);
            for (task, latency) in &done {
                completed += 1;
                latency_sum += *latency as f64;
                if task.class == workloads::tasks::TaskClass::Interactive {
                    interactive_done += 1;
                    if *latency > cfg.interactive_deadline {
                        interactive_late += 1;
                    }
                }
                controller.feedback(task, core, i, *latency);
            }
            peak_temp_overall = peak_temp_overall.max(core.temperature());
        }
        if t % 25 == 0 {
            let mx = cores
                .iter()
                .map(Core::temperature)
                .fold(f64::NEG_INFINITY, f64::max);
            peak_series.push(now, mx);
        }
    }

    let energy_total: f64 = cores.iter().map(Core::energy).sum();
    let throttled: u64 = cores.iter().map(Core::throttled_ticks).sum();
    let core_ticks = (cfg.steps * cores.len() as u64).max(1);

    let mut metrics = MetricSet::new();
    metrics.set("arrived", arrived as f64);
    metrics.set("completed", completed as f64);
    metrics.set("completion_ratio", completed as f64 / arrived.max(1) as f64);
    metrics.set(
        "mean_latency",
        if completed > 0 {
            latency_sum / completed as f64
        } else {
            0.0
        },
    );
    metrics.set(
        "deadline_miss_rate",
        if interactive_done > 0 {
            interactive_late as f64 / interactive_done as f64
        } else {
            0.0
        },
    );
    metrics.set("energy_total", energy_total);
    metrics.set(
        "energy_per_task",
        if completed > 0 {
            energy_total / completed as f64
        } else {
            energy_total
        },
    );
    metrics.set("throttle_ratio", throttled as f64 / core_ticks as f64);
    metrics.set("peak_temp", peak_temp_overall);
    metrics.set("drift_events", f64::from(controller.drift_events()));
    let sup = controller
        .thermal_model()
        .map(|model| model.stats())
        .unwrap_or_default();
    metrics.set("model_rollbacks", f64::from(sup.rollbacks));
    metrics.set("model_fallbacks", f64::from(sup.fallbacks));
    metrics.set("model_repromotions", f64::from(sup.repromotions));
    let utility = multicore_goal().utility(|k| metrics.get(k));
    metrics.set("utility", utility);

    MulticoreResult {
        metrics,
        peak_temp: peak_series,
    }
}

/// Redirects an assignment landing on an offline core to the next
/// online core (deterministic wrap-around scan). If every core is
/// offline the original index is kept — the task waits in that queue
/// until the core recovers.
fn redirect_online(cores: &[Core], idx: usize) -> usize {
    if cores[idx].is_online() {
        return idx;
    }
    (1..cores.len())
        .map(|d| (idx + d) % cores.len())
        .find(|&j| cores[j].is_online())
        .unwrap_or(idx)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(s: Scheduler, seed: u64, steps: u64) -> MulticoreResult {
        run_multicore(&MulticoreConfig::standard(s, steps), &SeedTree::new(seed))
    }

    fn faulty_cfg(s: Scheduler, steps: u64) -> MulticoreConfig {
        use workloads::faults::FaultEvent;
        let mut cfg = MulticoreConfig::standard(s, steps);
        // Fail three of the four big cores for the middle third.
        let mut plan = FaultPlan::none();
        for core in 0..3 {
            plan = plan
                .and(FaultEvent::core_fail(Tick(steps / 3), core))
                .and(FaultEvent::core_recover(Tick(2 * steps / 3), core));
        }
        cfg.faults = plan;
        cfg
    }

    #[test]
    fn core_failures_redistribute_work() {
        let steps = 2400;
        let r = run_multicore(&faulty_cfg(Scheduler::Greedy, steps), &SeedTree::new(2));
        let m = &r.metrics;
        // Losing 3 of 4 big cores mid-run must not lose the workload:
        // orphans restart elsewhere and the run still completes most
        // tasks by the end.
        assert!(
            m.get("completion_ratio").unwrap() > 0.7,
            "completion {:?}",
            m.get("completion_ratio")
        );
        let healthy = run(Scheduler::Greedy, 2, steps);
        assert!(
            m.get("mean_latency").unwrap() > healthy.metrics.get("mean_latency").unwrap(),
            "losing capacity must cost latency"
        );
    }

    #[test]
    fn fault_runs_are_deterministic_per_seed() {
        let a = run_multicore(&faulty_cfg(Scheduler::SelfAware, 900), &SeedTree::new(4));
        let b = run_multicore(&faulty_cfg(Scheduler::SelfAware, 900), &SeedTree::new(4));
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn scenario_is_sane() {
        let r = run(Scheduler::Greedy, 1, 2000);
        let m = &r.metrics;
        assert!(m.get("arrived").unwrap() > 4000.0);
        assert!(m.get("completion_ratio").unwrap() > 0.8);
        assert!(m.get("peak_temp").unwrap() > crate::core::T_AMBIENT);
        assert!(m.get("peak_temp").unwrap() < crate::core::T_CAP + 20.0);
        assert!(!r.peak_temp.is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(Scheduler::StaticPin, 3, 800);
        let b = run(Scheduler::StaticPin, 3, 800);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn self_aware_saves_energy_per_task() {
        let mut wins = 0;
        for seed in 0..3 {
            let sa = run(Scheduler::SelfAware, seed, 3000);
            let greedy = run(Scheduler::Greedy, seed, 3000);
            let e_sa = sa.metrics.get("energy_per_task").unwrap();
            let e_gr = greedy.metrics.get("energy_per_task").unwrap();
            if e_sa < e_gr {
                wins += 1;
            }
        }
        assert!(wins >= 2, "self-aware cheaper energy on {wins}/3 seeds");
    }

    #[test]
    fn self_aware_utility_beats_static_pin() {
        let mut wins = 0;
        for seed in 0..3 {
            let sa = run(Scheduler::SelfAware, seed, 3000);
            let pin = run(Scheduler::StaticPin, seed, 3000);
            if sa.metrics.get("utility") > pin.metrics.get("utility") {
                wins += 1;
            }
        }
        assert!(wins >= 2, "self-aware won utility on {wins}/3 seeds");
    }

    #[test]
    fn static_pin_runs_hotter_or_equal() {
        let sa = run(Scheduler::SelfAware, 5, 2500);
        let pin = run(Scheduler::StaticPin, 5, 2500);
        assert!(
            sa.metrics.get("throttle_ratio").unwrap()
                <= pin.metrics.get("throttle_ratio").unwrap() + 1e-9
        );
    }

    #[test]
    fn supervised_scheduler_survives_thermal_model_corruption() {
        use workloads::faults::{FaultEvent, ModelCorruptionKind};
        let steps = 2400;
        let corrupted = |s: Scheduler| {
            let mut cfg = MulticoreConfig::standard(s, steps);
            cfg.faults = FaultPlan::none()
                .and(FaultEvent::model_corruption(
                    Tick(steps / 3),
                    0,
                    ModelCorruptionKind::NanPoison,
                ))
                .and(FaultEvent::model_corruption(
                    Tick(2 * steps / 3),
                    0,
                    ModelCorruptionKind::StateFreeze {
                        duration: steps / 8,
                    },
                ));
            run_multicore(&cfg, &SeedTree::new(7))
        };
        let sup = corrupted(Scheduler::SupervisedSelfAware);
        let m = &sup.metrics;
        assert!(
            m.get("model_rollbacks").unwrap() + m.get("model_fallbacks").unwrap() >= 1.0,
            "supervisor never intervened: {m:?}"
        );
        assert!(
            m.get("completion_ratio").unwrap() > 0.7,
            "supervised run collapsed: {m:?}"
        );
        // Deterministic per seed, including the supervision path.
        assert_eq!(
            corrupted(Scheduler::SupervisedSelfAware).metrics,
            sup.metrics
        );
    }

    #[test]
    fn goal_prefers_efficient_outcomes() {
        let g = multicore_goal();
        let good = g.utility(|k| match k {
            "completion_ratio" => Some(0.99),
            "energy_per_task" => Some(1.0),
            "throttle_ratio" => Some(0.0),
            "deadline_miss_rate" => Some(0.02),
            _ => None,
        });
        let bad = g.utility(|k| match k {
            "completion_ratio" => Some(0.9),
            "energy_per_task" => Some(4.0),
            "throttle_ratio" => Some(0.1),
            "deadline_miss_rate" => Some(0.4),
            _ => None,
        });
        assert!(good > bad);
    }
}
