//! Schedulers: design-time pinning, greedy, and the self-aware
//! learning mapper with a thermal-forecast DVFS governor.
//!
//! The self-aware scheduler exercises three paper capabilities:
//!
//! * **time awareness** — per-core temperature forecasting (Holt)
//!   feeds a proactive DVFS governor that backs off *before* the cap,
//!   avoiding hard throttles;
//! * **goal awareness** — task-to-core mapping is learned by tabular
//!   Q-learning whose reward is the explicit multi-objective trade-off
//!   (latency vs energy);
//! * **meta-self-awareness** — a drift detector on reward re-opens
//!   exploration when the task mix changes phase.

use crate::core::{Core, CoreKind, DvfsLevel, T_CAP};

use selfaware::explain::ExplanationLog;
use selfaware::meta::ExplorationGovernor;
use selfaware::models::holt::Holt;
use selfaware::models::qlearn::QLearner;
use selfaware::models::{Forecaster, OnlineModel};
use selfaware::supervision::{Evidence, SelfModel};
use simkernel::rng::Rng;
use simkernel::Tick;
use workloads::tasks::{Task, TaskClass};

/// Scheduler selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// Design-time static pinning: each task class is pinned to the
    /// core type the designer assumed best (compute→big,
    /// memory→little, interactive→big), all cores at full frequency.
    StaticPin,
    /// Greedy: always the core with the least normalised backlog,
    /// full frequency, no thermal anticipation.
    Greedy,
    /// The self-aware learning mapper + DVFS governor.
    SelfAware,
    /// Self-aware mapper whose thermal-forecast bank runs under a
    /// meta-self-aware supervisor: corrupted forecasts are caught
    /// by the watchdogs, rolled back to a checkpoint, or benched in
    /// favour of reactive (current-temperature) DVFS.
    SupervisedSelfAware,
}

impl Scheduler {
    /// Table label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Scheduler::StaticPin => "static-pin",
            Scheduler::Greedy => "greedy-fastest",
            Scheduler::SelfAware => "self-aware",
            Scheduler::SupervisedSelfAware => "supervised",
        }
    }

    /// Instantiates the runtime controller.
    #[must_use]
    pub fn build(&self, n_cores: usize) -> SchedController {
        let state = match self {
            Scheduler::StaticPin | Scheduler::Greedy => None,
            Scheduler::SelfAware => Some(SelfAwareSched::new(n_cores, false)),
            Scheduler::SupervisedSelfAware => Some(SelfAwareSched::new(n_cores, true)),
        };
        SchedController {
            kind: *self,
            state,
            rr_next: 0,
        }
    }
}

/// Runtime scheduling controller.
#[derive(Debug)]
pub struct SchedController {
    kind: Scheduler,
    state: Option<SelfAwareSched>,
    rr_next: usize,
}

impl SchedController {
    /// The self-aware scheduler's thermal-forecast slot (`None` for
    /// the model-free baselines): its supervision counters, and where
    /// model corruptions land.
    pub(crate) fn thermal_model(&mut self) -> Option<&mut SelfModel<Vec<Holt>>> {
        self.state.as_mut().map(|s| &mut s.thermal)
    }

    /// Per-tick pre-processing: DVFS governance (self-aware only). The
    /// thermal supervisor explains itself in `log`.
    pub fn begin_tick(&mut self, cores: &mut [Core], now: Tick, log: &mut ExplanationLog) {
        match self.kind {
            Scheduler::StaticPin | Scheduler::Greedy => {
                for c in cores {
                    c.set_dvfs(DvfsLevel::High);
                }
            }
            Scheduler::SelfAware | Scheduler::SupervisedSelfAware => {
                if let Some(s) = &mut self.state {
                    s.govern_dvfs(cores, now, log);
                }
            }
        }
    }

    /// Chooses a core for `task`.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is empty.
    pub fn assign(&mut self, cores: &[Core], task: &Task, rng: &mut Rng) -> usize {
        assert!(!cores.is_empty(), "need at least one core");
        match self.kind {
            Scheduler::StaticPin => {
                let want = match task.class {
                    TaskClass::Compute | TaskClass::Interactive => CoreKind::Big,
                    TaskClass::Memory => CoreKind::Little,
                };
                let matching: Vec<usize> = (0..cores.len())
                    .filter(|&i| cores[i].spec().kind == want)
                    .collect();
                let pool = if matching.is_empty() {
                    (0..cores.len()).collect()
                } else {
                    matching
                };
                let pick = pool[self.rr_next % pool.len()];
                self.rr_next = self.rr_next.wrapping_add(1);
                pick
            }
            Scheduler::Greedy => (0..cores.len())
                .min_by(|&a, &b| {
                    let da = cores[a].backlog() / cores[a].spec().speed;
                    let db = cores[b].backlog() / cores[b].spec().speed;
                    da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("non-empty"),
            Scheduler::SelfAware | Scheduler::SupervisedSelfAware => self
                .state
                .as_mut()
                .expect("self-aware state")
                .assign(cores, task, rng),
        }
    }

    /// Reports a completed task's latency so learning schedulers can
    /// compute reward.
    pub fn feedback(&mut self, task: &Task, core: &Core, core_idx: usize, latency: u64) {
        if let Some(s) = &mut self.state {
            s.feedback(task, core, core_idx, latency);
        }
    }

    /// Drift events noticed by the meta level (0 for baselines).
    #[must_use]
    pub fn drift_events(&self) -> u32 {
        self.state.as_ref().map_or(0, |s| s.governor.drift_count())
    }
}

/// Deadline (ticks) of interactive tasks: a later completion is a miss
/// in the scenario's `deadline_miss_rate`, and the self-aware reward
/// model penalises it.
pub const INTERACTIVE_DEADLINE: u64 = 8;

/// Q-learning state: task class × whether the big cluster is hot.
fn qstate(class: TaskClass, big_hot: bool) -> usize {
    class.index() * 2 + usize::from(big_hot)
}

#[derive(Debug)]
struct SelfAwareSched {
    /// Action space: 0 = route to big cluster, 1 = little cluster.
    q: QLearner,
    /// One temperature forecast per core, bare or under a supervisor
    /// that benches the bank in favour of reactive DVFS on current
    /// temperatures.
    thermal: SelfModel<Vec<Holt>>,
    governor: ExplorationGovernor,
    /// Task id → (q-state, action) recorded at assignment time, so
    /// feedback credits the decision that actually routed the task.
    assignments: std::collections::HashMap<u64, (usize, usize)>,
}

impl SelfAwareSched {
    fn new(n_cores: usize, supervised: bool) -> Self {
        let bank = (0..n_cores).map(|_| Holt::new(0.4, 0.2)).collect();
        Self {
            q: QLearner::new(6, 2, 0.15, 0.0, 0.15),
            thermal: SelfModel::new("thermal-forecasts", bank, supervised),
            governor: ExplorationGovernor::new(0.03, 0.4, 0.998, 0.15, 12.0),
            assignments: std::collections::HashMap::new(),
        }
    }

    /// Predicted temperature used for thermal decisions on core `i`:
    /// the model's horizon forecast while trusted, the live sensor
    /// reading while the supervisor has benched the model (or the
    /// forecast is unusable).
    fn predicted_temp(&self, i: usize, current: f64) -> f64 {
        let predicted = self.thermal.model()[i].forecast_h(5).unwrap_or(current);
        if self.thermal.trusts(predicted) {
            predicted
        } else {
            current
        }
    }

    fn big_cluster_hot(&self, cores: &[Core]) -> bool {
        cores
            .iter()
            .enumerate()
            .filter(|(_, c)| c.spec().kind == CoreKind::Big)
            .any(|(i, c)| self.predicted_temp(i, c.temperature()) > T_CAP - 8.0)
    }

    fn govern_dvfs(&mut self, cores: &mut [Core], now: Tick, log: &mut ExplanationLog) {
        let frozen = self.thermal.frozen(now);
        // Feed the bank, then hand the supervisor the hottest current
        // reading (input) against the hottest one-step prediction
        // (output): the forecast contract the watchdogs score is "next
        // tick's peak temperature".
        let mut max_temp = f64::NEG_INFINITY;
        let mut max_pred = f64::NEG_INFINITY;
        for (i, core) in cores.iter().enumerate() {
            let temp = core.temperature();
            if !frozen {
                self.thermal.model_mut()[i].observe(temp);
            }
            let pred = self.thermal.model()[i].forecast_h(1).unwrap_or(temp);
            max_temp = max_temp.max(temp);
            // NaN-propagating max: a poisoned core must not be masked
            // by a healthy hotter one.
            max_pred = if pred.is_nan() {
                pred
            } else {
                max_pred.max(pred)
            };
        }
        self.thermal
            .observe(now, Evidence::forecast(max_temp, max_pred), log);
        for (i, core) in cores.iter_mut().enumerate() {
            let predicted = self.predicted_temp(i, core.temperature());
            let level = core.dvfs();
            if predicted > T_CAP - 5.0 {
                core.set_dvfs(level.lower());
            } else if core.queue_len() == 0 {
                // Idle: step down to save energy (one level per tick,
                // so a burst does not land on a cold-clocked core).
                core.set_dvfs(level.lower());
            } else if predicted < T_CAP - 20.0 {
                core.set_dvfs(level.higher());
            }
        }
    }

    fn assign(&mut self, cores: &[Core], task: &Task, rng: &mut Rng) -> usize {
        // Exploration is confined to batch classes: experimenting on
        // latency-critical traffic would spend deadline misses to buy
        // knowledge the batch classes can buy safely.
        let eps = if task.class == TaskClass::Interactive {
            0.0
        } else {
            self.governor.epsilon().clamp(0.0, 1.0)
        };
        self.q.set_epsilon(eps);
        let hot = self.big_cluster_hot(cores);
        let s = qstate(task.class, hot);
        let a = self.q.select(s, rng);
        let want = if a == 0 {
            CoreKind::Big
        } else {
            CoreKind::Little
        };
        // Best core within each cluster by expected wait (backlog +
        // this task, at that cluster's effective speed for the class).
        let best_in = |kind: CoreKind| -> Option<(usize, f64)> {
            (0..cores.len())
                .filter(|&i| cores[i].spec().kind == kind)
                .map(|i| {
                    let speed = cores[i].effective_speed(task.class).max(1e-9);
                    (i, (cores[i].backlog() + task.work) / speed)
                })
                .min_by(|x, y| x.1.partial_cmp(&y.1).unwrap_or(std::cmp::Ordering::Equal))
        };
        let preferred = best_in(want);
        let other_kind = match want {
            CoreKind::Big => CoreKind::Little,
            CoreKind::Little => CoreKind::Big,
        };
        let fallback = best_in(other_kind);
        let (pick, spilled) = match (preferred, fallback) {
            // Spill to the other cluster when the learned preference
            // is overloaded: a single cluster cannot absorb every
            // phase of the workload.
            (Some((_, wp)), Some((f, wf))) if wp > wf + 5.0 => (f, true),
            (Some((p, _)), _) => (p, false),
            (None, Some((f, _))) => (f, true),
            (None, None) => unreachable!("assign requires at least one core"),
        };
        // Only credit the Q table for decisions it actually made.
        if !spilled {
            self.assignments.insert(task.id, (s, a));
        }
        pick
    }

    fn feedback(&mut self, task: &Task, core: &Core, _core_idx: usize, latency: u64) {
        let Some((state, action)) = self.assignments.remove(&task.id) else {
            return; // not one of ours (e.g. pre-warm traffic)
        };
        // Multi-objective reward: fast completion, low energy.
        // Interactive work carries a hard deadline, so lateness there
        // dominates any energy saving.
        let energy_cost = match core.spec().kind {
            CoreKind::Big => 1.0,
            CoreKind::Little => 0.25,
        };
        let latency_cost = match task.class {
            TaskClass::Interactive => {
                if latency > INTERACTIVE_DEADLINE {
                    4.0
                } else {
                    0.0
                }
            }
            TaskClass::Compute | TaskClass::Memory => (latency as f64 / 40.0).min(1.0),
        };
        let reward = 2.0 - latency_cost - energy_cost;
        // γ = 0 → the next-state argument is irrelevant; reuse `state`.
        self.q.update(state, action, reward, state);
        let _ = self.governor.observe_reward(reward);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::CoreSpec;

    fn cores() -> Vec<Core> {
        vec![
            Core::new(CoreSpec::big()),
            Core::new(CoreSpec::big()),
            Core::new(CoreSpec::little()),
            Core::new(CoreSpec::little()),
        ]
    }

    fn task(class: TaskClass) -> Task {
        Task {
            id: 0,
            class,
            work: 2.0,
            arrived: Tick(0),
        }
    }

    fn rng() -> Rng {
        simkernel::SeedTree::new(41).rng("sched")
    }

    #[test]
    fn static_pin_routes_by_design_assumption() {
        let cs = cores();
        let mut ctl = Scheduler::StaticPin.build(4);
        let mut r = rng();
        let c = ctl.assign(&cs, &task(TaskClass::Compute), &mut r);
        assert_eq!(cs[c].spec().kind, CoreKind::Big);
        let m = ctl.assign(&cs, &task(TaskClass::Memory), &mut r);
        assert_eq!(cs[m].spec().kind, CoreKind::Little);
    }

    #[test]
    fn static_pin_round_robins_within_cluster() {
        let cs = cores();
        let mut ctl = Scheduler::StaticPin.build(4);
        let mut r = rng();
        let a = ctl.assign(&cs, &task(TaskClass::Compute), &mut r);
        let b = ctl.assign(&cs, &task(TaskClass::Compute), &mut r);
        assert_ne!(a, b);
    }

    #[test]
    fn greedy_balances_normalised_backlog() {
        let mut cs = cores();
        cs[0].enqueue(task(TaskClass::Compute));
        cs[0].enqueue(task(TaskClass::Compute));
        let mut ctl = Scheduler::Greedy.build(4);
        let mut r = rng();
        let pick = ctl.assign(&cs, &task(TaskClass::Compute), &mut r);
        assert_ne!(pick, 0, "core 0 is loaded");
    }

    #[test]
    fn baselines_hold_full_frequency() {
        let mut cs = cores();
        cs[0].set_dvfs(DvfsLevel::Low);
        let mut ctl = Scheduler::Greedy.build(4);
        ctl.begin_tick(&mut cs, Tick(0), &mut ExplanationLog::new(8));
        assert_eq!(cs[0].dvfs(), DvfsLevel::High);
    }

    #[test]
    fn self_aware_drops_idle_cores_to_low() {
        let mut cs = cores();
        let mut ctl = Scheduler::SelfAware.build(4);
        let mut log = ExplanationLog::new(8);
        for t in 0..10u64 {
            ctl.begin_tick(&mut cs, Tick(t), &mut log);
        }
        for c in &cs {
            assert_eq!(c.dvfs(), DvfsLevel::Low, "idle cores should downclock");
        }
    }

    #[test]
    fn self_aware_learns_memory_to_little() {
        let cs = cores();
        let mut ctl = Scheduler::SelfAware.build(4);
        let mut r = rng();
        // Feed outcomes: memory on big = slow reward; on little = good.
        for _ in 0..600 {
            let pick = ctl.assign(&cs, &task(TaskClass::Memory), &mut r);
            let latency = 2; // same speed either way (memory-bound)
            ctl.feedback(&task(TaskClass::Memory), &cs[pick], pick, latency);
        }
        // After learning, the greedy choice for memory tasks should be
        // the little cluster (same latency, quarter the energy cost).
        let mut little = 0;
        for _ in 0..100 {
            let pick = ctl.assign(&cs, &task(TaskClass::Memory), &mut r);
            if cs[pick].spec().kind == CoreKind::Little {
                little += 1;
            }
            ctl.feedback(&task(TaskClass::Memory), &cs[pick], pick, 2);
        }
        assert!(little > 70, "little cluster chosen {little}/100");
    }

    #[test]
    fn labels() {
        assert_eq!(Scheduler::StaticPin.label(), "static-pin");
        assert_eq!(Scheduler::SelfAware.label(), "self-aware");
    }

    #[test]
    #[should_panic(expected = "need at least one core")]
    fn empty_cores_panics() {
        let mut ctl = Scheduler::Greedy.build(0);
        let mut r = rng();
        let _ = ctl.assign(&[], &task(TaskClass::Compute), &mut r);
    }
}
