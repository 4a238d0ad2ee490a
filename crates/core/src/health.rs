//! Sensor health monitoring: residual-based fault detection with
//! graceful degradation.
//!
//! The paper argues (Section III) that self-awareness must extend to
//! the *instruments* of awareness: a self-aware system should notice
//! when its own sensors mislead it, and degrade gracefully rather than
//! act on corrupt data. [`SensorHealth`] watches each scalar sensor
//! through a per-sensor [`Holt`] self-model and a
//! [`ResidualTracker`], detects four
//! fault signatures — *stuck-at* (identical readings while the model
//! expected movement), *outlier runs* (readings far outside the
//! residual envelope, which also catches bias shifts), *dropout*
//! (missing readings), and *noise bursts* (a variance-ratio watchdog
//! on the trusted residual power, catching mean-reverting bursts that
//! stay close enough to the prediction to evade the outlier test) —
//! and on detection **quarantines** the sensor:
//! downstream consumers receive the model's forecast instead of the
//! raw reading, flagged as substituted, until the sensor agrees with
//! the model again for long enough to be trusted.
//!
//! Every quarantine entry and exit is recorded in the caller's
//! [`ExplanationLog`] (actions `quarantine:<key>` / `restore:<key>`),
//! so degraded-mode operation is self-explaining.

use crate::explain::{Explanation, ExplanationLog};
use crate::meta::ResidualTracker;
use crate::models::holt::Holt;
use crate::models::{Forecaster, OnlineModel};
use crate::replay::InterventionClass;
use std::collections::BTreeMap;
use std::sync::Arc;

use simkernel::obs::Json;
use simkernel::Tick;

// Detector tuning, shared by every monitored sensor.

/// EWMA factor for the per-sensor residual magnitude estimate.
const RESIDUAL_ALPHA: f64 = 0.2;
/// Consecutive *bit-identical* readings before a moving signal is
/// declared stuck.
const STUCK_AFTER: u32 = 12;
/// Outlier threshold in residual multiples: a reading is suspect
/// when `|x - forecast| > OUTLIER_K * max(residual, OUTLIER_FLOOR)`.
const OUTLIER_K: f64 = 4.0;
/// Lower bound on the residual scale, so an exactly-predictable
/// signal does not make the outlier envelope collapse to zero.
const OUTLIER_FLOOR: f64 = 1e-3;
/// Consecutive suspect (or missing) readings before quarantine.
const OUTLIER_PATIENCE: u32 = 3;
/// Consecutive readings agreeing with the model before a quarantined
/// sensor is restored.
pub const RECOVER_AFTER: u32 = 8;
/// Observations to absorb before any fault verdicts are issued.
pub const MIN_SAMPLES: u64 = 16;
/// EWMA factor of the fast (reactive) residual-power tracker used by
/// the variance-ratio watchdog.
const VAR_FAST_ALPHA: f64 = 0.25;
/// EWMA factor of the slow residual-power baseline.
const VAR_SLOW_ALPHA: f64 = 0.02;
/// The variance watchdog trips when the fast residual power exceeds
/// `VAR_RATIO` times the slow baseline.
const VAR_RATIO: f64 = 6.0;
/// Floor on the slow residual-power baseline (keeps the ratio
/// meaningful for near-perfectly-predictable signals).
const VAR_FLOOR: f64 = 1e-4;
/// Consecutive trusted readings over the ratio before the variance
/// watchdog quarantines.
const VAR_PATIENCE: u32 = 4;

/// What [`SensorHealth::observe`] hands downstream for one reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthReading {
    /// The value consumers should act on (raw if trusted, forecast if
    /// substituted).
    pub value: f64,
    /// The raw reading, if the sensor produced one.
    pub raw: Option<f64>,
    /// Whether `value` is a model substitute rather than the raw
    /// reading.
    pub substituted: bool,
    /// Whether the sensor is currently quarantined.
    pub degraded: bool,
}

/// Per-sensor state: self-model, residual envelope and fault streaks.
#[derive(Debug, Clone)]
struct Monitor {
    /// Shared with the map and every explanation this monitor records.
    key: Arc<str>,
    model: Holt,
    residual: ResidualTracker,
    last_raw: Option<f64>,
    repeats: u32,
    outlier_streak: u32,
    missing_streak: u32,
    agree_streak: u32,
    quarantined: bool,
    /// Ticks since the model last absorbed a trusted reading; the
    /// model's forecasts are projected this far forward so held-out
    /// and quarantined periods track the signal's trend.
    behind: u32,
    samples: u64,
    /// Fast EWMA of squared residuals over *trusted* readings.
    var_fast: f64,
    /// Slow EWMA of squared residuals over trusted readings — the
    /// sensor's normal noise power.
    var_slow: f64,
    /// Consecutive trusted readings with the fast/slow power ratio
    /// over threshold.
    var_streak: u32,
}

impl Monitor {
    fn new(key: Arc<str>) -> Self {
        Self {
            key,
            model: Holt::new(0.4, 0.2),
            residual: ResidualTracker::new(RESIDUAL_ALPHA),
            last_raw: None,
            repeats: 0,
            outlier_streak: 0,
            missing_streak: 0,
            agree_streak: 0,
            quarantined: false,
            behind: 0,
            samples: 0,
            var_fast: 0.0,
            var_slow: 0.0,
            var_streak: 0,
        }
    }

    /// Model's estimate of the signal *now*: the forecast projected
    /// over every tick the model has been frozen.
    fn predicted_now(&self) -> Option<f64> {
        self.model.forecast_h(self.behind.saturating_add(1))
    }

    /// Best substitute for an untrusted or missing reading: the frozen
    /// model projected to the current tick, else the last raw value
    /// ever seen, else zero (a cold sensor that never reported).
    fn substitute(&self) -> f64 {
        self.predicted_now().or(self.last_raw).unwrap_or(0.0)
    }

    fn envelope(&self) -> f64 {
        OUTLIER_K * self.residual.error().max(OUTLIER_FLOOR)
    }

    fn enter_quarantine(
        &mut self,
        now: Tick,
        reason: &'static str,
        detail: f64,
        log: &mut ExplanationLog,
    ) {
        self.quarantined = true;
        self.agree_streak = 0;
        let mut e = Explanation::new(now, "quarantine")
            .anchoring(InterventionClass::SensorQuarantine)
            .named(&self.key)
            .because(reason, detail)
            .because("residual", self.residual.error());
        if let Some(p) = self.model.forecast() {
            e = e.because("predicted", p);
        }
        log.record(e);
    }

    fn restore(&mut self, now: Tick, log: &mut ExplanationLog) {
        self.quarantined = false;
        self.outlier_streak = 0;
        self.missing_streak = 0;
        self.repeats = 0;
        self.behind = 0;
        // The model sat frozen through the quarantine; its state is
        // stale, so relearn from scratch rather than resume from a
        // forecast that may have drifted arbitrarily far.
        self.model = Holt::new(0.4, 0.2);
        self.residual = ResidualTracker::new(RESIDUAL_ALPHA);
        self.samples = 0;
        self.var_fast = 0.0;
        self.var_slow = 0.0;
        self.var_streak = 0;
        log.record(
            Explanation::new(now, "restore")
                .named(&self.key)
                .because("agree_streak", f64::from(self.agree_streak)),
        );
        self.agree_streak = 0;
    }

    /// Feeds a trusted reading into the self-model, updating the
    /// variance-ratio watchdog's power trackers as a side effect.
    fn learn(&mut self, x: f64) {
        if let Some(p) = self.model.forecast() {
            self.residual.record(p, x);
            let r2 = (p - x) * (p - x);
            self.var_fast += VAR_FAST_ALPHA * (r2 - self.var_fast);
            self.var_slow += VAR_SLOW_ALPHA * (r2 - self.var_slow);
        }
        self.model.observe(x);
        self.behind = 0;
        self.samples += 1;
    }

    /// The variance-ratio watchdog: catches mean-reverting noise
    /// bursts. Such a burst stays centred on the prediction, so
    /// enough readings fall inside the outlier envelope to keep being
    /// learned — inflating the envelope until the whole burst passes
    /// as normal. The *power* of the trusted residual stream cannot
    /// hide, though: the fast tracker jumps an order of magnitude
    /// above the slow baseline within a few learned readings. Called
    /// after [`Monitor::learn`]; returns the ratio when the streak
    /// exceeds patience.
    fn variance_verdict(&mut self) -> Option<f64> {
        let baseline = self.var_slow.max(VAR_FLOOR);
        let ratio = self.var_fast / baseline;
        if self.samples >= MIN_SAMPLES && ratio > VAR_RATIO {
            self.var_streak += 1;
        } else {
            self.var_streak = 0;
        }
        (self.var_streak >= VAR_PATIENCE).then_some(ratio)
    }
}

/// Residual-based health monitor over a set of named scalar sensors.
///
/// Call [`observe`](SensorHealth::observe) once per sensor per tick
/// with the raw reading (or `None` on dropout); act on the returned
/// [`HealthReading::value`]. Sensors are keyed by name and monitors
/// are created lazily; iteration order is deterministic (`BTreeMap`).
#[derive(Debug, Clone, Default)]
pub struct SensorHealth {
    monitors: BTreeMap<Arc<str>, Monitor>,
    quarantine_events: u64,
    restore_events: u64,
}

impl SensorHealth {
    /// Processes one reading from sensor `key` and returns the value
    /// downstream consumers should use. `raw = None` means the sensor
    /// produced nothing this tick (dropout). Quarantine entries and
    /// exits are recorded in `log`.
    pub fn observe(
        &mut self,
        key: &str,
        raw: Option<f64>,
        now: Tick,
        log: &mut ExplanationLog,
    ) -> HealthReading {
        self.observe_with_reference(key, raw, None, now, log)
    }

    /// Like [`observe`](SensorHealth::observe), but with an external
    /// `reference` estimate of the monitored quantity (e.g. the fused
    /// value of the *other*, still-trusted sensors). The reference is
    /// used for the recovery probe of a quarantined sensor: a frozen
    /// self-model's forecast degrades over a long quarantine, so
    /// without a reference a sensor whose signal is not
    /// locally-linear may never be declared healthy again.
    ///
    /// A reading returned substituted or degraded counts one
    /// `SensorQuarantine` fire in `log`'s ledger: every other reading
    /// is the raw value the masked path would pass through. While
    /// `log`'s intervention mask suppresses `SensorQuarantine` (see
    /// [`crate::replay`]), readings pass through raw and no quarantine
    /// ever fires.
    pub fn observe_with_reference(
        &mut self,
        key: &str,
        raw: Option<f64>,
        reference: Option<f64>,
        now: Tick,
        log: &mut ExplanationLog,
    ) -> HealthReading {
        let reading = self.assess(key, raw, reference, now, log);
        if reading.substituted || reading.degraded {
            log.fired(InterventionClass::SensorQuarantine);
        }
        reading
    }

    fn assess(
        &mut self,
        key: &str,
        raw: Option<f64>,
        reference: Option<f64>,
        now: Tick,
        log: &mut ExplanationLog,
    ) -> HealthReading {
        // Look the key up by reference; only a sensor's first reading
        // allocates its shared name.
        let m = match self.monitors.get_mut(key) {
            Some(m) => m,
            None => self
                .monitors
                .entry(Arc::from(key))
                .or_insert_with_key(|k| Monitor::new(Arc::clone(k))),
        };

        // Masked quarantine (counterfactual replay, see
        // [`crate::replay`]): readings pass through raw, holding the
        // last seen value over dropouts — exactly what a consumer
        // without this layer would do. The monitor keeps tracking
        // `last_raw` (and nothing here draws randomness), so flipping
        // the mask cannot perturb the host's seed streams.
        if log.mask().suppresses(InterventionClass::SensorQuarantine) {
            if let Some(x) = raw {
                m.last_raw = Some(x);
            }
            return HealthReading {
                value: raw.or(m.last_raw).unwrap_or(0.0),
                raw,
                substituted: false,
                degraded: false,
            };
        }

        if m.quarantined {
            if let Some(x) = raw {
                // Recovery probe: does the sensor agree with the best
                // current estimate of the signal — the caller's
                // reference if given, else the frozen model projected
                // to now? Tolerance is double the outlier envelope:
                // restoring needs looser agreement than staying
                // trusted, or a sensor whose residual scale froze
                // small can starve in quarantine forever. A reading
                // bit-identical to the previous one is never evidence
                // of health — a stuck sensor must not be restored just
                // because the real signal wandered across its frozen
                // value.
                let changed = m.last_raw.map(f64::to_bits) != Some(x.to_bits());
                let agrees = changed
                    && reference
                        .or_else(|| m.predicted_now())
                        .is_none_or(|p| (x - p).abs() <= 2.0 * m.envelope());
                if agrees {
                    m.agree_streak += 1;
                } else {
                    m.agree_streak = 0;
                }
                m.last_raw = Some(x);
                if m.agree_streak >= RECOVER_AFTER {
                    m.restore(now, log);
                    self.restore_events += 1;
                    m.learn(x);
                    return HealthReading {
                        value: x,
                        raw,
                        substituted: false,
                        degraded: false,
                    };
                }
            } else {
                m.agree_streak = 0;
            }
            let value = m.substitute();
            m.behind = m.behind.saturating_add(1);
            return HealthReading {
                value,
                raw,
                substituted: true,
                degraded: true,
            };
        }

        let warm = m.samples >= MIN_SAMPLES;
        let Some(x) = raw else {
            m.missing_streak += 1;
            m.repeats = 0;
            m.outlier_streak = 0;
            if warm && m.missing_streak >= OUTLIER_PATIENCE {
                m.enter_quarantine(now, "missing_streak", f64::from(m.missing_streak), log);
                self.quarantine_events += 1;
            }
            let value = m.substitute();
            m.behind = m.behind.saturating_add(1);
            return HealthReading {
                value,
                raw: None,
                substituted: true,
                degraded: m.quarantined,
            };
        };

        m.missing_streak = 0;
        if m.last_raw.map(f64::to_bits) == Some(x.to_bits()) {
            m.repeats += 1;
        } else {
            m.repeats = 1;
        }
        m.last_raw = Some(x);

        // Stuck-at: the reading froze while the residual envelope says
        // the signal had been moving. A genuinely constant signal has
        // residual ~ 0 and is never flagged.
        if warm && m.repeats >= STUCK_AFTER && m.residual.error() > OUTLIER_FLOOR {
            m.enter_quarantine(now, "repeats", f64::from(m.repeats), log);
            self.quarantine_events += 1;
            let value = m.substitute();
            m.behind = m.behind.saturating_add(1);
            return HealthReading {
                value,
                raw,
                substituted: true,
                degraded: true,
            };
        }

        // Outlier run: readings outside the residual envelope are held
        // out of the model (so a fault cannot teach the model its own
        // corruption) and quarantine the sensor once persistent. Each
        // held-out tick widens the tolerance proportionally — the
        // prediction is an extrapolation whose uncertainty grows with
        // its horizon — so a borderline reading cannot start a
        // self-reinforcing cascade of ever-worse extrapolations.
        let suspect = warm
            && m.predicted_now()
                .is_some_and(|p| (x - p).abs() > m.envelope() * f64::from(m.behind + 1));
        if suspect {
            m.outlier_streak += 1;
            let degraded = if m.outlier_streak >= OUTLIER_PATIENCE {
                m.enter_quarantine(now, "reading", x, log);
                self.quarantine_events += 1;
                true
            } else {
                false
            };
            let value = m.substitute();
            m.behind = m.behind.saturating_add(1);
            return HealthReading {
                value,
                raw,
                substituted: true,
                degraded,
            };
        }

        m.outlier_streak = 0;
        m.learn(x);

        // Variance-ratio watchdog: a mean-reverting noise burst slips
        // past the outlier test (readings near the prediction keep
        // being learned, inflating the envelope), but its residual
        // power betrays it.
        if let Some(ratio) = m.variance_verdict() {
            m.enter_quarantine(now, "variance_ratio", ratio, log);
            self.quarantine_events += 1;
            let value = m.substitute();
            m.behind = m.behind.saturating_add(1);
            return HealthReading {
                value,
                raw,
                substituted: true,
                degraded: true,
            };
        }

        HealthReading {
            value: x,
            raw,
            substituted: false,
            degraded: false,
        }
    }

    /// Whether sensor `key` is currently quarantined.
    #[must_use]
    pub fn is_quarantined(&self, key: &str) -> bool {
        self.monitors.get(key).is_some_and(|m| m.quarantined)
    }

    /// Number of sensors currently quarantined.
    #[must_use]
    pub fn quarantined_count(&self) -> usize {
        self.monitors.values().filter(|m| m.quarantined).count()
    }

    /// Number of sensors ever observed.
    #[must_use]
    pub fn monitored_count(&self) -> usize {
        self.monitors.len()
    }

    /// Total quarantine entries over the monitor's lifetime.
    #[must_use]
    pub fn quarantine_events(&self) -> u64 {
        self.quarantine_events
    }

    /// Total quarantine exits over the monitor's lifetime.
    #[must_use]
    pub fn restore_events(&self) -> u64 {
        self.restore_events
    }

    /// Structured export for run traces (see [`simkernel::obs`]):
    /// lifetime event counters plus the current quarantine census.
    #[must_use]
    pub fn stats_json(&self) -> Json {
        Json::obj([
            ("monitored", Json::from(self.monitored_count() as u64)),
            ("quarantined", Json::from(self.quarantined_count() as u64)),
            ("quarantine_events", Json::from(self.quarantine_events)),
            ("restore_events", Json::from(self.restore_events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::InterventionMask;

    fn log() -> ExplanationLog {
        ExplanationLog::new(64)
    }

    fn ramp(t: u64) -> f64 {
        0.5 * t as f64
    }

    #[test]
    fn clean_readings_pass_through() {
        let mut h = SensorHealth::default();
        let mut log = log();
        for t in 0..100 {
            let r = h.observe("s", Some(ramp(t)), Tick(t), &mut log);
            assert!(!r.substituted);
            assert!(!r.degraded);
            assert_eq!(r.value, ramp(t));
        }
        assert!(!h.is_quarantined("s"));
        assert_eq!(h.quarantine_events(), 0);
        assert_eq!(log.len(), 0);
    }

    #[test]
    fn stuck_sensor_is_quarantined_and_explained() {
        let mut h = SensorHealth::default();
        let mut log = log();
        for t in 0..60 {
            // Mild wobble keeps the residual envelope non-degenerate.
            let x = ramp(t) + if t % 2 == 0 { 0.05 } else { -0.05 };
            h.observe("s", Some(x), Tick(t), &mut log);
        }
        let frozen = 123.25;
        let mut degraded_seen = false;
        for t in 60..100 {
            let r = h.observe("s", Some(frozen), Tick(t), &mut log);
            degraded_seen |= r.degraded;
            if r.degraded {
                assert!(r.substituted);
            }
        }
        assert!(degraded_seen, "stuck sensor should be quarantined");
        assert!(h.is_quarantined("s"));
        assert!(log.iter().any(|e| e.action() == "quarantine:s"));
    }

    #[test]
    fn constant_signal_is_not_flagged_stuck() {
        let mut h = SensorHealth::default();
        let mut log = log();
        for t in 0..300 {
            let r = h.observe("s", Some(7.5), Tick(t), &mut log);
            assert!(!r.degraded);
        }
        assert_eq!(h.quarantine_events(), 0);
    }

    #[test]
    fn bias_shift_is_caught_as_outlier_run() {
        let mut h = SensorHealth::default();
        let mut log = log();
        for t in 0..50 {
            h.observe("s", Some(ramp(t)), Tick(t), &mut log);
        }
        for t in 50..60 {
            h.observe("s", Some(ramp(t) + 4.0), Tick(t), &mut log);
        }
        assert!(h.is_quarantined("s"));
        assert_eq!(h.quarantine_events(), 1);
        // Substituted values stay near the un-biased trajectory.
        let mut log2 = log.clone();
        let r = h.observe("s", Some(ramp(60) + 4.0), Tick(60), &mut log2);
        assert!(r.substituted);
        assert!((r.value - ramp(60)).abs() < 1.0);
    }

    /// The quarantine reads the mask from the log it is handed: masked,
    /// a biased sensor's readings pass through raw (a dropout holds the
    /// last one), nothing is quarantined and the ledger counts no fire.
    #[test]
    fn a_quarantine_the_log_masks_passes_readings_through_raw() {
        let class = InterventionClass::SensorQuarantine;
        for masked in [false, true] {
            let mut h = SensorHealth::default();
            let mut log = log();
            if masked {
                log = log.with_mask(InterventionMask::suppressing(class));
            }
            let biased = |t| ramp(t) + if t < 50 { 0.0 } else { 4.0 };
            let mut raw_through = true;
            for t in 0..60 {
                let r = h.observe("s", Some(biased(t)), Tick(t), &mut log);
                raw_through &= r.value == biased(t) && !r.substituted && !r.degraded;
            }
            let r = h.observe("s", None, Tick(60), &mut log);
            raw_through &= r.value == biased(59) && !r.substituted;
            assert_eq!(raw_through, masked);
            assert_eq!(h.is_quarantined("s"), !masked);
            assert_eq!(log.fires(class) == 0, masked);
        }
    }

    #[test]
    fn single_spike_is_substituted_without_quarantine() {
        let mut h = SensorHealth::default();
        let mut log = log();
        for t in 0..40 {
            h.observe("s", Some(ramp(t)), Tick(t), &mut log);
        }
        let r = h.observe("s", Some(999.0), Tick(40), &mut log);
        assert!(r.substituted, "spike must not be passed through");
        assert!(!r.degraded);
        assert!((r.value - ramp(40)).abs() < 0.5);
        let r = h.observe("s", Some(ramp(41)), Tick(41), &mut log);
        assert!(!r.substituted);
        assert_eq!(h.quarantine_events(), 0);
    }

    #[test]
    fn dropout_quarantines_then_recovers() {
        let mut h = SensorHealth::default();
        let mut log = log();
        for t in 0..40 {
            h.observe("s", Some(ramp(t)), Tick(t), &mut log);
        }
        for t in 40..50 {
            let r = h.observe("s", None, Tick(t), &mut log);
            assert!(r.substituted);
            // The trend-aware substitute keeps tracking the ramp.
            assert!((r.value - ramp(t)).abs() < 0.5);
        }
        assert!(h.is_quarantined("s"));
        for t in 50..70 {
            h.observe("s", Some(ramp(t)), Tick(t), &mut log);
        }
        assert!(!h.is_quarantined("s"), "agreeing sensor must be restored");
        assert_eq!(h.restore_events(), 1);
        assert!(log.iter().any(|e| e.action() == "restore:s"));
        let r = h.observe("s", Some(ramp(70)), Tick(70), &mut log);
        assert!(!r.substituted);
    }

    #[test]
    fn reference_recovers_sensor_with_stale_model() {
        // A sinusoid defeats the frozen linear model over a long
        // quarantine; the external reference still recovers it.
        let truth = |t: u64| 20.0 + 6.0 * (t as f64 * 0.02).sin();
        let mut h = SensorHealth::default();
        let mut log = log();
        for t in 0..200 {
            h.observe_with_reference("s", Some(truth(t)), Some(truth(t)), Tick(t), &mut log);
        }
        for t in 200..400 {
            // Stuck fault: reading frozen at truth(200).
            h.observe_with_reference("s", Some(truth(200)), Some(truth(t)), Tick(t), &mut log);
        }
        assert!(h.is_quarantined("s"));
        for t in 400..450 {
            h.observe_with_reference("s", Some(truth(t)), Some(truth(t)), Tick(t), &mut log);
        }
        assert!(!h.is_quarantined("s"), "reference agreement must restore");
        assert_eq!(h.restore_events(), 1);
    }

    #[test]
    fn cold_sensor_never_quarantines_during_warmup() {
        let mut h = SensorHealth::default();
        let mut log = log();
        for t in 0..10 {
            let r = h.observe(
                "s",
                if t % 2 == 0 { Some(1.0) } else { None },
                Tick(t),
                &mut log,
            );
            assert!(!r.degraded);
        }
        assert_eq!(h.quarantine_events(), 0);
    }

    /// Deterministic zero-mean zig pattern for synthetic noise.
    fn zig(t: u64) -> f64 {
        [0.9, -0.3, -1.0, 0.4, 0.1, -0.8, 0.7, 0.0][(t % 8) as usize]
    }

    #[test]
    fn mean_reverting_noise_burst_trips_variance_watchdog() {
        let mut h = SensorHealth::default();
        let mut log = log();
        for t in 0..150 {
            h.observe("s", Some(ramp(t) + 0.04 * zig(t)), Tick(t), &mut log);
        }
        assert_eq!(h.quarantine_events(), 0);
        // Burst: amplitude grows 4x but stays centred on the signal,
        // inside the outlier envelope — the residual test alone would
        // keep learning it.
        let mut caught_at = None;
        for t in 150..260 {
            let r = h.observe("s", Some(ramp(t) + 0.16 * zig(t)), Tick(t), &mut log);
            if r.degraded {
                caught_at = Some(t);
                break;
            }
        }
        assert!(caught_at.is_some(), "noise burst must be quarantined");
        assert!(h.is_quarantined("s"));
        let variance_entries: Vec<_> = log
            .iter()
            .filter(|e| {
                e.class == Some(InterventionClass::SensorQuarantine)
                    && e.factors().iter().any(|f| f.0 == "variance_ratio")
            })
            .collect();
        assert!(
            !variance_entries.is_empty(),
            "quarantine must cite the variance ratio"
        );
    }

    #[test]
    fn steady_noise_never_trips_variance_watchdog() {
        let mut h = SensorHealth::default();
        let mut log = log();
        for t in 0..500 {
            let r = h.observe("s", Some(ramp(t) + 0.05 * zig(t)), Tick(t), &mut log);
            assert!(!r.degraded, "stationary noise is healthy (t={t})");
        }
        assert_eq!(h.quarantine_events(), 0);
    }

    #[test]
    fn monitors_are_independent_per_key() {
        let mut h = SensorHealth::default();
        let mut log = log();
        for t in 0..50 {
            h.observe("good", Some(ramp(t)), Tick(t), &mut log);
            h.observe("bad", Some(ramp(t)), Tick(t), &mut log);
        }
        for t in 50..60 {
            h.observe("good", Some(ramp(t)), Tick(t), &mut log);
            h.observe("bad", None, Tick(t), &mut log);
        }
        assert!(!h.is_quarantined("good"));
        assert!(h.is_quarantined("bad"));
        assert_eq!(h.monitored_count(), 2);
        assert_eq!(h.quarantined_count(), 1);
    }
}
