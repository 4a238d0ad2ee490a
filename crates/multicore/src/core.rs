//! Cores: speed, DVFS, power, and a lumped-RC thermal model.
//!
//! Power model: `P = P_idle + u · P_dyn · f³` where `u` is utilisation
//! this tick and `f` the DVFS frequency ratio (dynamic power scales
//! cubically with frequency at scaled voltage). Thermal model: first
//! order lumped RC, `T ← T + (P·R − (T − T_amb)) / τ` per tick.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use workloads::tasks::{Task, TaskClass};

/// Ambient temperature, °C.
pub const T_AMBIENT: f64 = 35.0;
/// Junction temperature cap, °C; exceeding it is a thermal violation
/// and forces a throttle to the lowest DVFS level.
pub const T_CAP: f64 = 85.0;

/// Discrete DVFS operating points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DvfsLevel {
    /// Half frequency.
    Low,
    /// Three-quarter frequency.
    Mid,
    /// Full frequency.
    High,
}

impl DvfsLevel {
    /// All levels, ascending.
    pub const ALL: [DvfsLevel; 3] = [DvfsLevel::Low, DvfsLevel::Mid, DvfsLevel::High];

    /// Frequency ratio `f ∈ (0, 1]`.
    #[must_use]
    pub fn freq(self) -> f64 {
        match self {
            DvfsLevel::Low => 0.5,
            DvfsLevel::Mid => 0.75,
            DvfsLevel::High => 1.0,
        }
    }

    /// One step down (saturating).
    #[must_use]
    pub fn lower(self) -> DvfsLevel {
        match self {
            DvfsLevel::High => DvfsLevel::Mid,
            _ => DvfsLevel::Low,
        }
    }

    /// One step up (saturating).
    #[must_use]
    pub fn higher(self) -> DvfsLevel {
        match self {
            DvfsLevel::Low => DvfsLevel::Mid,
            _ => DvfsLevel::High,
        }
    }
}

/// Big (fast, hot) or little (slow, cool) core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CoreKind {
    /// High-performance core.
    Big,
    /// Efficiency core.
    Little,
}

/// Static description of a core.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreSpec {
    /// Big or little.
    pub kind: CoreKind,
    /// Peak speed in work units per tick (at full frequency).
    pub speed: f64,
    /// Idle power, W.
    pub power_idle: f64,
    /// Dynamic power at full frequency and utilisation, W.
    pub power_dyn: f64,
    /// Thermal resistance, °C per W.
    pub r_th: f64,
    /// Thermal time constant, ticks.
    pub tau: f64,
}

impl CoreSpec {
    /// A typical big core.
    #[must_use]
    pub fn big() -> Self {
        Self {
            kind: CoreKind::Big,
            speed: 3.0,
            power_idle: 0.6,
            power_dyn: 6.0,
            r_th: 9.0,
            tau: 20.0,
        }
    }

    /// A typical little core.
    #[must_use]
    pub fn little() -> Self {
        Self {
            kind: CoreKind::Little,
            speed: 1.2,
            power_idle: 0.15,
            power_dyn: 1.2,
            r_th: 7.0,
            tau: 20.0,
        }
    }
}

/// A live core: queue, DVFS setting, temperature, energy meter.
#[derive(Debug, Clone)]
pub struct Core {
    spec: CoreSpec,
    dvfs: DvfsLevel,
    queue: VecDeque<(Task, f64)>,
    temp: f64,
    energy: f64,
    busy_ticks: u64,
    throttled_ticks: u64,
    completed: u64,
    online: bool,
}

impl Core {
    /// Creates an idle core at ambient temperature and full frequency.
    #[must_use]
    pub fn new(spec: CoreSpec) -> Self {
        Self {
            spec,
            dvfs: DvfsLevel::High,
            queue: VecDeque::new(),
            temp: T_AMBIENT,
            energy: 0.0,
            busy_ticks: 0,
            throttled_ticks: 0,
            completed: 0,
            online: true,
        }
    }

    /// Whether the core is currently online.
    #[must_use]
    pub fn is_online(&self) -> bool {
        self.online
    }

    /// Takes the core offline (a core fault). The task being executed
    /// loses its partial progress — restart semantics — and the whole
    /// queue is orphaned and returned so the scheduler can
    /// redistribute it. Idempotent: failing an offline core returns an
    /// empty queue.
    pub fn fail(&mut self) -> Vec<Task> {
        self.online = false;
        // Dropping the tracked remaining-work alongside each task is
        // what gives restart semantics: re-enqueueing starts from
        // `task.work` again.
        self.queue.drain(..).map(|(task, _)| task).collect()
    }

    /// Brings a failed core back online, idle and at full frequency
    /// (a reboot does not reset temperature instantly — the die keeps
    /// whatever heat it has).
    pub fn recover(&mut self) {
        self.online = true;
        self.dvfs = DvfsLevel::High;
    }

    /// The core's spec.
    #[must_use]
    pub fn spec(&self) -> &CoreSpec {
        &self.spec
    }

    /// Current DVFS level.
    #[must_use]
    pub fn dvfs(&self) -> DvfsLevel {
        self.dvfs
    }

    /// Sets the DVFS level.
    pub fn set_dvfs(&mut self, level: DvfsLevel) {
        self.dvfs = level;
    }

    /// Current junction temperature, °C.
    #[must_use]
    pub fn temperature(&self) -> f64 {
        self.temp
    }

    /// Total energy consumed so far, joule-equivalents (W·tick).
    #[must_use]
    pub fn energy(&self) -> f64 {
        self.energy
    }

    /// Queue length.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Remaining work in the queue.
    #[must_use]
    pub fn backlog(&self) -> f64 {
        self.queue.iter().map(|(_, w)| w).sum()
    }

    /// Completed task count.
    #[must_use]
    pub fn completed_count(&self) -> u64 {
        self.completed
    }

    /// Ticks spent throttled (forced low frequency by the thermal
    /// cap).
    #[must_use]
    pub fn throttled_ticks(&self) -> u64 {
        self.throttled_ticks
    }

    /// Effective service speed for a task class at the current DVFS
    /// level: compute scales with frequency; memory-bound work is
    /// capped by the memory subsystem (little cores lose nothing);
    /// interactive behaves like compute.
    #[must_use]
    pub fn effective_speed(&self, class: TaskClass) -> f64 {
        let f = self.dvfs.freq();
        match class {
            TaskClass::Compute | TaskClass::Interactive => self.spec.speed * f,
            TaskClass::Memory => (self.spec.speed * f).min(1.2),
        }
    }

    /// Enqueues a task.
    pub fn enqueue(&mut self, task: Task) {
        let work = task.work;
        self.queue.push_back((task, work));
    }

    /// Advances one tick: executes queued work, meters power, updates
    /// temperature, applies thermal throttling. Appends the tasks that
    /// completed this tick to `done`, each with its latency in ticks.
    pub fn step(&mut self, now: simkernel::Tick, done: &mut Vec<(Task, u64)>) {
        // An offline core executes nothing and draws no power; the die
        // cools toward ambient.
        if !self.online {
            self.temp += (T_AMBIENT - self.temp) / self.spec.tau;
            return;
        }
        // Thermal throttle: at or over cap, force lowest frequency.
        if self.temp >= T_CAP {
            self.dvfs = DvfsLevel::Low;
            self.throttled_ticks += 1;
        }
        let mut remaining_tick = 1.0; // fraction of the tick left
        let mut utilisation = 0.0;
        while remaining_tick > 1e-9 {
            let Some(&(ref task, left_now)) = self.queue.front() else {
                break;
            };
            let speed = self.effective_speed(task.class).max(1e-9);
            let time_needed = left_now / speed;
            if time_needed <= remaining_tick {
                remaining_tick -= time_needed;
                utilisation += time_needed;
                let (task, _) = self.queue.pop_front().expect("front exists");
                self.completed += 1;
                let latency = now.value().saturating_sub(task.arrived.value()).max(1);
                done.push((task, latency));
            } else {
                let (_, left) = self.queue.front_mut().expect("front exists");
                *left -= speed * remaining_tick;
                utilisation += remaining_tick;
                remaining_tick = 0.0;
            }
        }
        self.busy_ticks += u64::from(utilisation > 0.0);
        // Power & thermal integration for this tick.
        let f = self.dvfs.freq();
        let power = self.spec.power_idle + utilisation.min(1.0) * self.spec.power_dyn * f * f * f;
        self.energy += power;
        self.temp += (power * self.spec.r_th + T_AMBIENT - self.temp) / self.spec.tau;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::Tick;

    fn task(id: u64, class: TaskClass, work: f64, t: u64) -> Task {
        Task {
            id,
            class,
            work,
            arrived: Tick(t),
        }
    }

    #[test]
    fn dvfs_levels_ordered() {
        assert!(DvfsLevel::Low.freq() < DvfsLevel::Mid.freq());
        assert!(DvfsLevel::Mid.freq() < DvfsLevel::High.freq());
        assert_eq!(DvfsLevel::Low.lower(), DvfsLevel::Low);
        assert_eq!(DvfsLevel::Low.higher(), DvfsLevel::Mid);
        assert_eq!(DvfsLevel::High.higher(), DvfsLevel::High);
    }

    #[test]
    fn compute_scales_with_dvfs_memory_does_not() {
        let mut c = Core::new(CoreSpec::big());
        assert_eq!(c.effective_speed(TaskClass::Compute), 3.0);
        assert_eq!(c.effective_speed(TaskClass::Memory), 1.2);
        c.set_dvfs(DvfsLevel::Low);
        assert_eq!(c.effective_speed(TaskClass::Compute), 1.5);
        assert_eq!(c.effective_speed(TaskClass::Memory), 1.2);
    }

    #[test]
    fn little_core_matches_big_on_memory_tasks() {
        let big = Core::new(CoreSpec::big());
        let little = Core::new(CoreSpec::little());
        assert_eq!(
            big.effective_speed(TaskClass::Memory),
            little.effective_speed(TaskClass::Memory)
        );
        assert!(
            big.effective_speed(TaskClass::Compute) > little.effective_speed(TaskClass::Compute)
        );
    }

    #[test]
    fn executes_and_reports_latency() {
        let mut c = Core::new(CoreSpec::big());
        c.enqueue(task(0, TaskClass::Compute, 6.0, 0));
        let mut done = Vec::new();
        c.step(Tick(1), &mut done);
        assert!(done.is_empty()); // 3 of 6 done
        c.step(Tick(2), &mut done);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1, 2);
        assert_eq!(c.completed_count(), 1);
    }

    #[test]
    fn multiple_small_tasks_in_one_tick() {
        let mut c = Core::new(CoreSpec::big());
        for i in 0..3 {
            c.enqueue(task(i, TaskClass::Compute, 1.0, 0));
        }
        let mut done = vec![(task(9, TaskClass::Memory, 1.0, 0), 1)];
        c.step(Tick(1), &mut done);
        assert_eq!(done.len(), 4, "appends after what the buffer held");
    }

    #[test]
    fn heats_under_load_cools_idle() {
        let mut c = Core::new(CoreSpec::big());
        for i in 0..1000 {
            c.enqueue(task(i, TaskClass::Compute, 3.0, 0));
        }
        let mut peak: f64 = 0.0;
        let mut done = Vec::new();
        for t in 1..=200u64 {
            c.step(Tick(t), &mut done);
            peak = peak.max(c.temperature());
        }
        assert!(peak > 60.0, "sustained load should heat the core: {peak}");
        // Drain queue, let it idle at low frequency.
        let mut c2 = c.clone();
        c2.queue.clear();
        for t in 201..=600u64 {
            c2.step(Tick(t), &mut done);
        }
        assert!(c2.temperature() < peak - 10.0, "idle core should cool");
    }

    #[test]
    fn thermal_cap_throttles() {
        let mut c = Core::new(CoreSpec::big());
        for i in 0..100_000 {
            c.enqueue(task(i, TaskClass::Compute, 3.0, 0));
        }
        let mut throttled = false;
        let mut done = Vec::new();
        for t in 1..=2000u64 {
            c.step(Tick(t), &mut done);
            throttled |= c.throttled_ticks() > 0;
        }
        assert!(
            throttled,
            "big core at full tilt should hit the cap (T = {})",
            c.temperature()
        );
        // While throttled, frequency is forced low.
        assert_eq!(c.dvfs(), DvfsLevel::Low);
    }

    #[test]
    fn little_core_runs_cooler() {
        let mut big = Core::new(CoreSpec::big());
        let mut little = Core::new(CoreSpec::little());
        for i in 0..10_000 {
            big.enqueue(task(i, TaskClass::Compute, 1.0, 0));
            little.enqueue(task(i, TaskClass::Compute, 1.0, 0));
        }
        let mut done = Vec::new();
        for t in 1..=300u64 {
            big.step(Tick(t), &mut done);
            little.step(Tick(t), &mut done);
        }
        assert!(little.temperature() < big.temperature());
        assert!(little.energy() < big.energy());
    }

    #[test]
    fn fail_orphans_queue_with_restart_semantics() {
        let mut c = Core::new(CoreSpec::big());
        c.enqueue(task(0, TaskClass::Compute, 6.0, 0));
        c.enqueue(task(1, TaskClass::Compute, 2.0, 0));
        let mut done = Vec::new();
        c.step(Tick(1), &mut done); // partially executes task 0
        assert!(c.is_online());
        let orphans = c.fail();
        assert!(!c.is_online());
        assert_eq!(orphans.len(), 2);
        assert_eq!(orphans[0].work, 6.0, "partial progress is lost");
        assert!(c.fail().is_empty(), "idempotent");
        // Offline: no execution, no energy, cools toward ambient.
        let e = c.energy();
        c.enqueue(task(2, TaskClass::Compute, 1.0, 0));
        c.step(Tick(2), &mut done);
        assert!(done.is_empty());
        assert_eq!(c.energy(), e);
        c.recover();
        assert!(c.is_online());
        assert_eq!(c.dvfs(), DvfsLevel::High);
        c.step(Tick(3), &mut done);
        assert_eq!(done.len(), 1, "queued work runs after recovery");
    }

    #[test]
    fn offline_core_cools() {
        let mut c = Core::new(CoreSpec::big());
        for i in 0..1000 {
            c.enqueue(task(i, TaskClass::Compute, 3.0, 0));
        }
        let mut done = Vec::new();
        for t in 1..=100u64 {
            c.step(Tick(t), &mut done);
        }
        let hot = c.temperature();
        c.fail();
        for t in 101..=400u64 {
            c.step(Tick(t), &mut done);
        }
        assert!(c.temperature() < hot - 10.0);
        assert!((c.temperature() - T_AMBIENT).abs() < 5.0);
    }

    #[test]
    fn energy_accrues_even_idle() {
        let mut c = Core::new(CoreSpec::little());
        let mut done = Vec::new();
        for t in 1..=10u64 {
            c.step(Tick(t), &mut done);
        }
        assert!((c.energy() - 10.0 * 0.15).abs() < 1e-9);
        assert_eq!(c.queue_len(), 0);
        assert_eq!(c.backlog(), 0.0);
    }
}
