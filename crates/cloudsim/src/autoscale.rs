//! The supervised autoscaling policy, extracted from the dispatch
//! strategy so it can govern things that are not simulated clusters.
//!
//! [`AutoscaleCore`] is the demand-side half of the self-aware
//! controller in [`crate::strategy`]: a Holt double-exponential
//! arrival forecast (optionally watchdogged by a
//! [`Supervisor`](selfaware::supervision::Supervisor)), an EWMA per-item work estimate, a violation EWMA,
//! and the goal-aware asymmetric safety-margin adaptation. Pool sizing
//! is the classic `ceil(rate · mean_work · safety / capacity)`
//! formula. It is deliberately unit-agnostic: in `cloudsim` a "tick"
//! is a dispatch round and capacity is work-units per node-tick; in
//! `liveserve` a tick is a wall-clock quantum and capacity is 1.0
//! (one handler thread serves one request's worth of work per
//! busy-quantum), so the *same* policy arithmetic sizes a thread pool
//! under live TCP traffic.
//!
//! The extraction is behaviour-preserving: `strategy::SelfAwareState`
//! now delegates here, and the F1–F10 experiment suites (bit-identical
//! parity included) run on top of this code.

use selfaware::explain::ExplanationLog;
use selfaware::models::ewma::Ewma;
use selfaware::models::holt::Holt;
use selfaware::models::{Forecaster, OnlineModel};
use selfaware::supervision::{Evidence, SelfModel};
use simkernel::Tick;

/// Default autoscaling safety margin (headroom multiplier).
pub const SAFETY_DEFAULT: f64 = 1.3;
/// Ceiling on the adaptive safety margin.
pub const SAFETY_MAX: f64 = 3.0;
/// Violation level above which the margin grows (per observation).
pub const VIOLATION_HIGH: f64 = 0.05;
/// Violation level below which the margin decays toward the floor.
pub const VIOLATION_LOW: f64 = 0.01;

/// Demand forecasting + safety adaptation + pool sizing, decoupled
/// from what is being scaled.
///
/// # Example
///
/// ```
/// use cloudsim::autoscale::AutoscaleCore;
/// use simkernel::Tick;
///
/// let mut core = AutoscaleCore::new("demo", true);
/// for t in 0..50u64 {
///     core.observe_work(2.0);
///     // 6 arrivals/tick, each needing 2 work units, capacity 1 per
///     // worker-tick → wants ceil(6 × 2 × 1.3) = 16 workers.
///     let pool = core.desired_pool(6.0, Tick(t), 1.0, 1, 32);
///     assert!(pool >= 1 && pool <= 32);
/// }
/// assert!(core.safety() >= 1.0);
/// ```
#[derive(Debug)]
pub struct AutoscaleCore {
    /// The Holt arrival forecast, bare or under its supervisor.
    arrival: SelfModel<Holt>,
    /// Where the arrival model's supervisor explains itself.
    log: ExplanationLog,
    work_estimate: Ewma,
    violation_ewma: Ewma,
    safety: f64,
}

impl AutoscaleCore {
    /// Creates a core whose arrival model runs under a meta-self-aware
    /// supervisor named `name` if `supervised` (NaN / divergence /
    /// oscillation / stall watchdog with a checkpoint → rollback →
    /// reactive-fallback ladder).
    #[must_use]
    pub fn new(name: &str, supervised: bool) -> Self {
        Self {
            arrival: SelfModel::new(name, Holt::new(0.2, 0.05), supervised),
            log: ExplanationLog::new(512),
            work_estimate: Ewma::new(0.05),
            violation_ewma: Ewma::new(0.05),
            safety: SAFETY_DEFAULT,
        }
    }

    /// The arrival model's slot: its supervision counters and control
    /// source, its intervention mask, and where model corruptions land.
    #[must_use]
    pub fn arrival_model(&self) -> &SelfModel<Holt> {
        &self.arrival
    }

    /// Mutable [`AutoscaleCore::arrival_model`].
    pub fn arrival_model_mut(&mut self) -> &mut SelfModel<Holt> {
        &mut self.arrival
    }

    /// Feeds one item's work size into the per-item work estimate.
    pub fn observe_work(&mut self, work: f64) {
        self.work_estimate.observe(work);
    }

    /// Feeds one terminal outcome into the violation EWMA.
    pub fn observe_outcome(&mut self, violated: bool) {
        self.violation_ewma
            .observe(if violated { 1.0 } else { 0.0 });
    }

    /// Current safety margin.
    #[must_use]
    pub fn safety(&self) -> f64 {
        self.safety
    }

    /// Forces the safety margin to at least `floor` (the meta level's
    /// drift reaction uses this to buy headroom after a regime change).
    pub fn raise_safety_floor(&mut self, floor: f64) {
        self.safety = self.safety.max(floor).min(SAFETY_MAX);
    }

    /// Observes the tick's arrivals into the (possibly supervised)
    /// model and returns the demand-rate estimate to autoscale on.
    ///
    /// Supervised cores that are benched (rolled back / fallen back)
    /// provision reactively on the raw arrival stimulus instead of the
    /// diverged forecast.
    pub fn demand_rate(&mut self, arrivals: f64, now: Tick) -> f64 {
        if !self.arrival.frozen(now) {
            self.arrival.model_mut().observe(arrivals);
        }
        if self.arrival.is_supervised() {
            let out = self.arrival.model().forecast_h(1).unwrap_or(arrivals);
            self.arrival
                .observe(now, Evidence::forecast(arrivals, out), &mut self.log);
        }
        let forecast = self.arrival.model().forecast_h(5).unwrap_or(arrivals);
        if self.arrival.trusts(forecast) {
            forecast
        } else {
            // Benched: fall back to reactive provisioning on the raw
            // arrival stimulus.
            arrivals
        }
    }

    /// Goal-aware safety adaptation: asymmetric — react fast to rising
    /// violations (SLA risk is expensive), relax only very slowly
    /// (cost is cheap per tick), which keeps the adaptation from
    /// oscillating between under- and over-provisioning.
    pub fn adapt_safety(&mut self) {
        let v = self.violation_ewma.level();
        if v > VIOLATION_HIGH {
            self.safety = (self.safety * 1.03).min(SAFETY_MAX);
        } else if v < VIOLATION_LOW {
            self.safety = (self.safety * 0.9995).max(SAFETY_DEFAULT);
        }
    }

    /// Mean per-item work estimate, with `default` before any data.
    #[must_use]
    pub fn mean_work(&self, default: f64) -> f64 {
        self.work_estimate.forecast().unwrap_or(default)
    }

    /// Observes arrivals, adapts the margin, and returns the pool size
    /// the policy wants: `ceil(rate · mean_work · safety / mean_cap)`
    /// clamped to `[min, max]`.
    ///
    /// `mean_cap` is the work one pool slot retires per tick (cluster
    /// node capacity in cloudsim, 1.0 for a live handler thread).
    pub fn desired_pool(
        &mut self,
        arrivals: f64,
        now: Tick,
        mean_cap: f64,
        min: usize,
        max: usize,
    ) -> usize {
        let rate = self.demand_rate(arrivals, now).max(0.0);
        self.adapt_safety();
        let mean_work = self.mean_work(3.0);
        let needed = ((rate * mean_work * self.safety) / mean_cap.max(f64::MIN_POSITIVE)).ceil();
        let needed = if needed.is_finite() && needed >= 0.0 {
            needed as usize
        } else {
            max
        };
        needed.clamp(min, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::faults::ModelCorruptionKind;

    #[test]
    fn pool_tracks_demand() {
        let mut core = AutoscaleCore::new("t", false);
        for _ in 0..100 {
            core.observe_work(2.0);
        }
        let mut last = 0;
        for t in 0..100u64 {
            last = core.desired_pool(8.0, Tick(t), 1.0, 1, 64);
        }
        // 8/tick × 2 work × 1.3 safety ≈ 21 slots.
        assert!((18..=24).contains(&last), "pool {last}");
    }

    #[test]
    fn safety_rises_under_violations_and_floors_at_default() {
        let mut core = AutoscaleCore::new("t", false);
        for _ in 0..200 {
            core.observe_outcome(true);
            core.adapt_safety();
        }
        assert!(core.safety() > SAFETY_DEFAULT);
        assert!(core.safety() <= SAFETY_MAX);
        for _ in 0..20000 {
            core.observe_outcome(false);
            core.adapt_safety();
        }
        assert!((core.safety() - SAFETY_DEFAULT).abs() < 1e-9);
    }

    #[test]
    fn supervised_core_survives_nan_poison() {
        let mut core = AutoscaleCore::new("live-arrivals", true);
        for t in 0..50u64 {
            core.demand_rate(5.0, Tick(t));
        }
        ModelCorruptionKind::NanPoison.apply(core.arrival_model_mut(), Tick(50));
        let mut rate = f64::NAN;
        for t in 50..120u64 {
            rate = core.demand_rate(5.0, Tick(t));
        }
        assert!(rate.is_finite(), "supervised rate must recover: {rate}");
        let stats = core.arrival_model().stats();
        assert!(stats.warns + stats.rollbacks + stats.fallbacks > 0);
        // The supervisor explains itself under the core's name.
        let actions: Vec<String> = core.log.iter().map(|e| e.action()).collect();
        assert!(
            actions
                .iter()
                .any(|a| a.starts_with("supervise:live-arrivals:")),
            "{actions:?}"
        );
    }

    #[test]
    fn unsupervised_freeze_holds_model() {
        let mut core = AutoscaleCore::new("t", false);
        for t in 0..30u64 {
            core.demand_rate(4.0, Tick(t));
        }
        let before = core.demand_rate(4.0, Tick(30));
        core.arrival_model_mut().freeze_until(Tick(100));
        for t in 31..60u64 {
            core.demand_rate(40.0, Tick(t)); // ignored while frozen
        }
        let during = core.demand_rate(40.0, Tick(60));
        assert!((during - before).abs() < 1.0, "frozen model must not learn");
    }

    #[test]
    fn degenerate_pool_inputs_clamp() {
        let mut core = AutoscaleCore::new("t", false);
        let p = core.desired_pool(f64::INFINITY, Tick(0), 1.0, 2, 8);
        assert!((2..=8).contains(&p));
        let p = core.desired_pool(0.0, Tick(1), 0.0, 2, 8);
        assert!((2..=8).contains(&p));
    }
}
