//! The live governor: the supervised autoscaling policy driving a real
//! thread pool on wall-clock time.
//!
//! [`Governor`] implements [`selfaware::runtime::ControlLoop`] and is
//! driven by [`selfaware::runtime::drive`] over a
//! [`simkernel::WallClock`], so the *same* sense → decide loop shape
//! (and the same `SAS_OBS` phase spans) that runs the simulated
//! substrates runs here against live TCP traffic. Each quantum it:
//!
//! 1. **senses** the server's windowed counters (arrivals, completions,
//!    SLA violations, summed service time) plus instantaneous queue
//!    depth and in-flight count;
//! 2. feeds them to an [`AutoscaleCore`] — the identical supervised
//!    Holt-forecast policy extracted from `cloudsim` — with
//!    `mean_cap = 1.0` (one handler thread retires one busy-quantum of
//!    work per quantum), and writes the resulting concurrency cap,
//!    queue cap and deadline back to the server's atomics;
//! 3. runs the believed queue depth through a slope-tilted
//!    [`HysteresisGate`] to engage/release **load shedding**, and
//!    advertises a drain-time-derived `Retry-After` — the server's
//!    self-expression of its believed state to clients.
//!
//! When the supervisor benches the arrival model (NaN poison, weight
//! scramble — injected by the chaos harness), the policy falls back to
//! reactive provisioning on raw arrivals. The governor's
//! [`ExplanationLog`] records every transition once: the injected
//! `live:poison`, the control-source flips `live:fallback` /
//! `live:repromote`, and `live:shed` / `live:recover`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cloudsim::autoscale::AutoscaleCore;
use selfaware::explain::{Explanation, ExplanationLog};
use selfaware::pressure::{HysteresisGate, HysteresisGateConfig};
use selfaware::runtime::{drive, ControlLoop};
use simkernel::{Tick, WallClock};
use workloads::faults::ModelCorruptionKind;

use crate::server::{ServerHandle, Shared};

/// Governor tuning. Defaults are sized for the F11 scenario: 10 ms
/// quanta, ~1–10 ms handler service times, 300 ms SLA.
#[derive(Debug, Clone)]
pub struct GovernorConfig {
    /// Wall-clock quantum of one control tick.
    pub quantum: Duration,
    /// Smallest concurrency cap the governor may set.
    pub min_workers: usize,
    /// Largest concurrency cap (should match the spawned pool).
    pub max_workers: usize,
    /// Queue cap is `concurrency cap × this factor`, clamped below.
    pub queue_factor: usize,
    /// Hard ceiling on the governed queue cap.
    pub queue_cap_max: usize,
    /// Shed gate engage threshold (believed queue depth).
    pub shed_engage: f64,
    /// Shed gate release threshold.
    pub shed_release: f64,
    /// Baseline per-request deadline; halved while shedding so queued
    /// work that can no longer meet the SLA is failed fast.
    pub base_deadline_ms: u64,
    /// Chaos injection: corrupt the arrival model at this tick.
    pub poison_at: Option<(u64, ModelCorruptionKind)>,
    /// When set, the loop stops at the end of the tick in which the
    /// flag becomes true (scenario: "load generator finished").
    pub stop_flag: Option<Arc<AtomicBool>>,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        Self {
            quantum: Duration::from_millis(10),
            min_workers: 1,
            max_workers: 8,
            queue_factor: 6,
            queue_cap_max: 64,
            shed_engage: 24.0,
            shed_release: 8.0,
            base_deadline_ms: 250,
            poison_at: None,
            stop_flag: None,
        }
    }
}

/// What one sensing pass reads off the server.
#[derive(Debug, Clone, Copy)]
pub struct SenseFrame {
    arrivals: u64,
    completed: u64,
    violations: u64,
    service_us: u64,
    queue_len: usize,
    active: usize,
}

/// The wall-clock control loop governing a [`ServerHandle`].
pub struct Governor {
    shared: Arc<Shared>,
    cfg: GovernorConfig,
    core: AutoscaleCore,
    gate: HysteresisGate,
    log: ExplanationLog,
    last_cap: usize,
    /// (tick, cap, queue_len, shedding) samples, one per quantum.
    trace: Vec<(u64, usize, usize, bool)>,
}

impl Governor {
    /// Builds a supervised governor attached to `handle`.
    #[must_use]
    pub fn new(handle: &ServerHandle, cfg: GovernorConfig) -> Self {
        let gate = HysteresisGate::new(HysteresisGateConfig {
            engage: cfg.shed_engage,
            release: cfg.shed_release,
            slope_gain: 2.0,
            slope_alpha: 0.3,
            max_tilt: (cfg.shed_engage - cfg.shed_release) * 0.45,
        });
        Self {
            shared: handle.controls(),
            core: AutoscaleCore::new("live-arrivals", true),
            gate,
            log: ExplanationLog::new(1024),
            last_cap: cfg.min_workers,
            trace: Vec::new(),
            cfg,
        }
    }

    /// Runs the loop on the calling thread until `ticks` quanta of
    /// wall time have elapsed (must run on the scenario thread so the
    /// `SAS_OBS` phase spans land in the thread-local sink).
    pub fn run(&mut self, ticks: u64) {
        let mut clock = WallClock::new(self.cfg.quantum);
        drive(&mut clock, self, Tick(ticks));
    }

    /// Per-quantum (tick, cap, queue_len, shedding) samples.
    #[must_use]
    pub fn trace(&self) -> &[(u64, usize, usize, bool)] {
        &self.trace
    }

    /// The governor's explanation log: every transition, in order.
    #[must_use]
    pub fn explanations(&self) -> &ExplanationLog {
        &self.log
    }

    /// Watchdog counters from the supervised arrival model.
    #[must_use]
    pub fn supervision_stats(&self) -> selfaware::supervision::SupervisionStats {
        self.core.arrival_model().stats()
    }
}

impl ControlLoop for Governor {
    type Sensed = SenseFrame;

    fn sense(&mut self, _now: Tick) -> SenseFrame {
        let s = &self.shared;
        SenseFrame {
            arrivals: s.window_arrivals.swap(0, Ordering::Relaxed),
            completed: s.window_completed.swap(0, Ordering::Relaxed),
            violations: s.window_violations.swap(0, Ordering::Relaxed),
            service_us: s.window_service_us.swap(0, Ordering::Relaxed),
            queue_len: s.queue_len(),
            active: s.active.load(Ordering::Relaxed),
        }
    }

    #[allow(clippy::cast_precision_loss)]
    fn step(&mut self, now: Tick, frame: SenseFrame) {
        let t = now.value();
        let quantum_us = self.cfg.quantum.as_micros().max(1) as f64;

        // Chaos: corrupt the arrival model at the scheduled tick; the
        // supervisor's watchdog must catch it and fall back.
        if let Some((at, kind)) = self.cfg.poison_at {
            if t == at {
                kind.apply(self.core.arrival_model_mut(), now);
                self.log
                    .record(Explanation::new(now, "live:poison").because("tick", t as f64));
            }
        }

        // Learn per-request work (in worker-quanta) and SLA outcomes.
        if frame.completed > 0 {
            let mean_quanta = frame.service_us as f64 / frame.completed as f64 / quantum_us;
            for i in 0..frame.completed {
                self.core.observe_work(mean_quanta);
                self.core.observe_outcome(i < frame.violations);
            }
        }

        let benched_before = self.core.arrival_model().is_fallback();

        // Size the pool: arrivals per quantum × mean work quanta ×
        // safety, one slot retiring one busy-quantum per quantum.
        let cap = self.core.desired_pool(
            frame.arrivals as f64,
            now,
            1.0,
            self.cfg.min_workers,
            self.cfg.max_workers,
        );
        self.shared.concurrency_cap.store(cap, Ordering::Relaxed);
        let queue_cap = (cap * self.cfg.queue_factor).clamp(8, self.cfg.queue_cap_max);
        self.shared.queue_cap.store(queue_cap, Ordering::Relaxed);
        if cap > self.last_cap {
            // Newly opened slots: wake capped workers immediately.
            self.shared.poke();
        }
        self.last_cap = cap;

        // Control-source flips (watchdog fallback / re-promotion).
        let benched = self.core.arrival_model().is_fallback();
        if benched != benched_before {
            let event = if benched {
                "live:fallback"
            } else {
                "live:repromote"
            };
            self.log.record(
                Explanation::new(now, event)
                    .because("tick", t as f64)
                    .because("cap", cap as f64),
            );
        }

        // Backpressure: slope-tilted hysteresis on believed queue
        // depth; advertise estimated drain time as Retry-After.
        let backlog = frame.queue_len as f64;
        let was_shedding = self.gate.engaged();
        let shed = self.gate.observe(backlog);
        self.shared.shedding.store(shed, Ordering::Relaxed);
        let mean_work = self.core.mean_work(1.0).max(0.05);
        let drain_ms =
            (backlog * mean_work * quantum_us / 1000.0 / cap.max(1) as f64).clamp(50.0, 2000.0);
        self.shared
            .retry_after_ms
            .store(drain_ms as u64, Ordering::Relaxed);
        let deadline = if shed {
            self.cfg.base_deadline_ms / 2
        } else {
            self.cfg.base_deadline_ms
        };
        self.shared.deadline_ms.store(deadline, Ordering::Relaxed);

        if shed != was_shedding {
            let event = if shed { "live:shed" } else { "live:recover" };
            self.log.record(
                Explanation::new(now, event)
                    .because("queue", backlog)
                    .because("queue_slope", self.gate.slope())
                    .because("cap", cap as f64)
                    .because("retry_after_ms", drain_ms),
            );
        }

        self.trace.push((t, cap, frame.queue_len, shed));
        let _ = frame.active;
    }

    fn keep_running(&mut self, _next: Tick) -> bool {
        !self
            .cfg
            .stop_flag
            .as_ref()
            .is_some_and(|f| f.load(Ordering::SeqCst))
    }
}
