//! Meta-self-aware controller supervision: watchdogs, checkpoints and
//! an escalation ladder for the self-models themselves.
//!
//! PR 2 made the *substrates* fault-tolerant; this module guards the
//! other half of the loop — the awareness machinery. The paper
//! (Sections II, IV, VI) singles out meta-self-awareness, citing Cox's
//! metacognitive loop, and the Handbook of Engineering Self-Aware and
//! Self-Expressive Systems (Chen et al., arXiv:1409.1793) prescribes
//! the architectural pattern implemented here: a *reflective layer*
//! that monitors, repairs and, when necessary, replaces the layers
//! below it.
//!
//! [`Supervisor`] wraps any cloneable controller or self-model and
//! watches the *evidence stream* the substrate feeds it each tick:
//!
//! * **NaN/Inf guard** — a non-finite output is unambiguous and
//!   escalates immediately;
//! * **divergence** — the fast residual EWMA blowing up relative to a
//!   held-out slow baseline (the [`ResidualTracker`] machinery), with
//!   a Page–Hinkley channel on the normalised error for sharp shifts;
//! * **oscillation** — bit-exact A-B-A flip-flop of the output;
//! * **stall** — frozen output bits while the input keeps moving.
//!
//! Detection walks an **escalation ladder**: warn → roll back to the
//! last-good checkpoint → fall back to the substrate's baseline
//! controller, with exponential-backoff re-promotion probes. Every
//! transition is recorded in the [`ExplanationLog`] — self-explanation
//! of self-repair.
//!
//! Every substrate keeps its learned model in a [`SelfModel`] slot,
//! bare or supervised, which also holds the end of any state freeze.
//! What a model-corruption fault does to the model in a slot is its
//! [`Corruptible`] impl.

use crate::explain::{Explanation, ExplanationLog};
use crate::meta::ResidualTracker;
use crate::models::drift::PageHinkley;
use crate::replay::InterventionClass;
use simkernel::obs::Json;
use simkernel::Tick;
use std::sync::Arc;

/// What the watchdogs saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Anomaly {
    /// The controller produced a NaN or infinite output.
    NonFinite,
    /// Residuals blew up relative to the model's own recent history.
    Divergence,
    /// The output is flip-flopping between two exact values.
    Oscillation,
    /// The output is frozen while the input keeps changing.
    Stall,
}

impl Anomaly {
    /// Short factor label used in explanations.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Anomaly::NonFinite => "non-finite",
            Anomaly::Divergence => "divergence",
            Anomaly::Oscillation => "oscillation",
            Anomaly::Stall => "stall",
        }
    }
}

/// Who is currently in control of the substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlSource {
    /// The supervised self-model is driving decisions.
    Model,
    /// The substrate's baseline controller has taken over.
    Baseline,
}

/// Outcome of one supervised tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Nothing suspicious this tick.
    Healthy,
    /// An anomaly was observed; the model stays in control for now.
    Warned(Anomaly),
    /// The model was restored from the last-good checkpoint.
    RolledBack(Anomaly),
    /// Control passed to the substrate's baseline controller.
    FellBack(Anomaly),
    /// A re-promotion probe found the model still unhealthy; the
    /// backoff doubled.
    ProbeFailed(Anomaly),
    /// The model earned back control after a quiet probe window.
    Repromoted,
}

/// One tick of evidence about a supervised model.
///
/// Two contracts are supported. *Forecast* evidence
/// ([`Evidence::forecast`]) is for models whose output predicts the
/// next input: the supervisor scores last tick's output against this
/// tick's realised input. *Scored* evidence ([`Evidence::scored`]) is
/// for models with no forecasting contract (routing tables, affinity
/// maps): the substrate supplies its own error signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evidence {
    input: Option<f64>,
    output: f64,
    error: Option<f64>,
}

impl Evidence {
    /// Forecast-contract evidence: `input` is the value realised this
    /// tick, `output` the model's fresh one-step forecast. The error
    /// charged is `|previous output − input|`.
    #[must_use]
    pub fn forecast(input: f64, output: f64) -> Self {
        Self {
            input: Some(input),
            output,
            error: None,
        }
    }

    /// Scored evidence: the substrate supplies the `error` directly
    /// alongside a representative `output` scalar (watched for NaN,
    /// oscillation and stalls).
    #[must_use]
    pub fn scored(output: f64, error: f64) -> Self {
        Self {
            input: None,
            output,
            error: Some(error),
        }
    }

    /// Attaches an input signal (enables stall detection for scored
    /// evidence).
    #[must_use]
    pub fn with_input(mut self, input: f64) -> Self {
        self.input = Some(input);
        self
    }
}

// Watchdog and escalation-ladder tuning, shared by every supervised
// model.

/// Smoothing of the fast (reactive) residual tracker.
const FAST_ALPHA: f64 = 0.3;
/// Smoothing of the slow held-out baseline tracker (only fed on
/// healthy ticks, so an ongoing anomaly cannot drag it along).
const SLOW_ALPHA: f64 = 0.02;
/// Divergence fires when `fast > ratio · max(slow, floor)`.
const DIVERGENCE_RATIO: f64 = 8.0;
/// Floor on the slow baseline, guarding the ratio against a
/// near-perfect model's ~0 error.
const DIVERGENCE_FLOOR: f64 = 1e-3;
/// Consecutive over-ratio ticks before divergence is declared.
const PATIENCE: u32 = 3;
/// Finite-error samples required before any statistical watchdog
/// (everything but the NaN guard) may fire.
const MIN_SAMPLES: u64 = 24;
/// Frozen-output ticks (under a moving input) before a stall is
/// declared.
const STALL_AFTER: u32 = 12;
/// Minimum input delta that counts as "the input moved".
const INPUT_EPSILON: f64 = 1e-9;
/// Consecutive bit-exact A-B-A alternations before oscillation is
/// declared.
const OSCILLATION_FLIPS: u32 = 6;
/// Checkpoint cadence in ticks (gated on a quiet streak).
const CHECKPOINT_EVERY: u64 = 25;
/// Healthy ticks required to clear warnings, take a checkpoint, or
/// win a re-promotion probe.
const QUIET_TICKS: u32 = 10;
/// Warnings tolerated before the ladder escalates past warning.
const WARN_LIMIT: u32 = 2;
/// Initial fallback backoff (ticks until the first probe).
const BACKOFF_INITIAL: u64 = 20;
/// Backoff ceiling.
const BACKOFF_MAX: u64 = 320;
/// A second escalation within this many ticks of a rollback skips
/// straight to baseline fallback (the rollback evidently did not
/// cure the fault).
const RELAPSE_WINDOW: u64 = 50;
/// Page–Hinkley tolerance on the normalised error stream.
const PH_DELTA: f64 = 0.5;
/// Page–Hinkley threshold on the normalised error stream.
const PH_LAMBDA: f64 = 25.0;

/// Lifetime counters of supervision activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisionStats {
    /// Warnings issued.
    pub warns: u32,
    /// Checkpoint restores.
    pub rollbacks: u32,
    /// Falls to the baseline controller.
    pub fallbacks: u32,
    /// Re-promotion probes that found the model still unhealthy.
    pub probe_failures: u32,
    /// Successful returns of control to the model.
    pub repromotions: u32,
    /// Checkpoints taken.
    pub checkpoints: u32,
}

impl SupervisionStats {
    /// Structured export for run traces (see [`simkernel::obs`]).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("warns", Json::from(self.warns)),
            ("rollbacks", Json::from(self.rollbacks)),
            ("fallbacks", Json::from(self.fallbacks)),
            ("probe_failures", Json::from(self.probe_failures)),
            ("repromotions", Json::from(self.repromotions)),
            ("checkpoints", Json::from(self.checkpoints)),
        ])
    }
}

/// A reflective wrapper supervising one controller or self-model.
///
/// The supervisor *owns* the model (`C`), takes periodic checkpoints
/// of it while healthy, and decides each tick — from the evidence the
/// substrate feeds it — whether the model keeps control, is rolled
/// back, or is benched in favour of the substrate's baseline.
///
/// # Example
///
/// ```
/// use selfaware::models::holt::Holt;
/// use selfaware::models::{Forecaster, OnlineModel};
/// use selfaware::prelude::*;
/// use selfaware::supervision::{ControlSource, Evidence, Supervisor};
/// use simkernel::Tick;
///
/// let mut log = ExplanationLog::new(64);
/// let mut sup = Supervisor::new("demo", Holt::new(0.3, 0.1));
/// for t in 0..200u64 {
///     let x = t as f64;
///     sup.model_mut().observe(x);
///     let out = sup.model().forecast().unwrap_or(x);
///     sup.observe(Tick(t), Evidence::forecast(x, out), &mut log);
/// }
/// assert_eq!(sup.source(), ControlSource::Model);
/// assert!(sup.stats().checkpoints > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Supervisor<C: Clone> {
    /// Shared with every explanation the supervisor records.
    name: Arc<str>,
    // Both live behind `Arc` so a checkpoint is a pointer bump, not a
    // deep copy: large controllers (Q-tables, routing tables) pay for
    // a clone only when the model is actually written *while* it
    // shares state with a checkpoint (copy-on-write via
    // `Arc::make_mut`), i.e. on the first write after a checkpoint or
    // restore — never on the periodic quiet-streak checkpoint itself.
    controller: Arc<C>,
    checkpoint: Option<Arc<C>>,
    source: ControlSource,
    fast: ResidualTracker,
    slow: ResidualTracker,
    detector: PageHinkley,
    samples: u64,
    prev_output: Option<f64>,
    prev_bits: Option<u64>,
    prev_prev_bits: Option<u64>,
    prev_input: Option<f64>,
    div_streak: u32,
    osc_streak: u32,
    stall_streak: u32,
    warns: u32,
    quiet: u32,
    last_rollback: Option<u64>,
    fallback_elapsed: u64,
    probe_quiet: u32,
    backoff: u64,
    stats: SupervisionStats,
}

impl<C: Clone> Supervisor<C> {
    /// Wraps `controller`.
    #[must_use]
    pub fn new(name: impl Into<Arc<str>>, controller: C) -> Self {
        Self {
            name: name.into(),
            controller: Arc::new(controller),
            checkpoint: None,
            source: ControlSource::Model,
            fast: ResidualTracker::new(FAST_ALPHA),
            slow: ResidualTracker::new(SLOW_ALPHA),
            detector: PageHinkley::new(PH_DELTA, PH_LAMBDA),
            samples: 0,
            prev_output: None,
            prev_bits: None,
            prev_prev_bits: None,
            prev_input: None,
            div_streak: 0,
            osc_streak: 0,
            stall_streak: 0,
            warns: 0,
            quiet: 0,
            last_rollback: None,
            fallback_elapsed: 0,
            probe_quiet: 0,
            backoff: BACKOFF_INITIAL,
            stats: SupervisionStats::default(),
        }
    }

    /// The supervised model.
    #[must_use]
    pub fn model(&self) -> &C {
        self.controller.as_ref()
    }

    /// Mutable access to the supervised model (the substrate trains it
    /// through this — including while benched, so it can relearn).
    ///
    /// Copy-on-write: if the model currently shares storage with a
    /// checkpoint, the first call after that checkpoint/restore deep-
    /// clones it once; subsequent calls are free until the next
    /// checkpoint.
    pub fn model_mut(&mut self) -> &mut C {
        Arc::make_mut(&mut self.controller)
    }

    /// Who currently holds control.
    #[must_use]
    pub fn source(&self) -> ControlSource {
        self.source
    }

    /// Whether the baseline controller is currently in charge.
    #[must_use]
    pub fn is_fallback(&self) -> bool {
        self.source == ControlSource::Baseline
    }

    /// Lifetime supervision counters.
    #[must_use]
    pub fn stats(&self) -> SupervisionStats {
        self.stats
    }

    /// Supervisor name (used in explanation actions).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Feeds one tick of evidence and walks the escalation ladder.
    /// Every transition is recorded in `log` under the action
    /// `"supervise:{name}:{step}"`; each rollback, fallback and
    /// re-promotion taken also counts a fire of its class in `log`'s
    /// ledger.
    ///
    /// A rung that `log`'s intervention mask suppresses (see
    /// [`crate::replay`]) never fires. All watchdog state (residual
    /// trackers, drift detector, warn/quiet streaks, backoff timers)
    /// still advances identically, and no RNG is consumed either way,
    /// so masking cannot perturb the host simulation's seed streams.
    pub fn observe(&mut self, now: Tick, evidence: Evidence, log: &mut ExplanationLog) -> Verdict {
        let output = evidence.output;
        let error = evidence
            .error
            .or_else(|| match (self.prev_output, evidence.input) {
                (Some(p), Some(x)) => Some((p - x).abs()),
                _ => None,
            });

        let anomaly = self.detect(output, error, evidence.input);

        // Feed the trackers: fast always (finite errors only); slow is
        // held out — only healthy ticks may move the baseline.
        if let Some(e) = error.filter(|e| e.is_finite()) {
            self.fast.record(e, 0.0);
            if anomaly.is_none() {
                self.slow.record(e, 0.0);
            }
            self.samples += 1;
        }

        // Remember this tick for the next one's watchdogs.
        self.prev_prev_bits = self.prev_bits;
        self.prev_bits = Some(output.to_bits());
        self.prev_output = Some(output);
        if evidence.input.is_some() {
            self.prev_input = evidence.input;
        }

        match self.source {
            ControlSource::Model => self.step_active(now, output, error, anomaly, log),
            ControlSource::Baseline => self.step_fallback(now, error, anomaly, log),
        }
    }

    /// Runs the watchdogs on this tick's evidence.
    fn detect(&mut self, output: f64, error: Option<f64>, input: Option<f64>) -> Option<Anomaly> {
        if !output.is_finite() || error.is_some_and(|e| !e.is_finite()) {
            return Some(Anomaly::NonFinite);
        }
        let warmed = self.samples >= MIN_SAMPLES;

        // Divergence: fast-vs-slow residual ratio with patience, plus
        // a Page–Hinkley channel on the normalised error.
        let mut diverged = false;
        if let Some(e) = error {
            let baseline = self.slow.error().max(DIVERGENCE_FLOOR);
            if warmed && self.fast.error() > DIVERGENCE_RATIO * baseline {
                self.div_streak += 1;
            } else {
                self.div_streak = 0;
            }
            let ph_fired = self.detector.observe(e / baseline);
            diverged = self.div_streak >= PATIENCE || (warmed && ph_fired);
        }

        // Oscillation: bit-exact A-B-A alternation of the output.
        let bits = output.to_bits();
        if self.prev_prev_bits == Some(bits) && self.prev_bits != Some(bits) {
            self.osc_streak += 1;
        } else {
            self.osc_streak = 0;
        }

        // Stall: frozen output bits while the input keeps moving.
        match (self.prev_input, input, self.prev_bits) {
            (Some(pi), Some(x), Some(pb)) if pb == bits && (x - pi).abs() > INPUT_EPSILON => {
                self.stall_streak += 1;
            }
            _ => self.stall_streak = 0,
        }

        if warmed && diverged {
            Some(Anomaly::Divergence)
        } else if warmed && self.osc_streak >= OSCILLATION_FLIPS {
            Some(Anomaly::Oscillation)
        } else if warmed && self.stall_streak >= STALL_AFTER {
            Some(Anomaly::Stall)
        } else {
            None
        }
    }

    /// Ladder logic while the model holds control.
    fn step_active(
        &mut self,
        now: Tick,
        output: f64,
        error: Option<f64>,
        anomaly: Option<Anomaly>,
        log: &mut ExplanationLog,
    ) -> Verdict {
        let Some(a) = anomaly else {
            self.quiet += 1;
            if self.quiet >= QUIET_TICKS {
                self.warns = 0;
                if now.0.is_multiple_of(CHECKPOINT_EVERY) && output.is_finite() {
                    self.checkpoint = Some(Arc::clone(&self.controller));
                    self.stats.checkpoints += 1;
                }
            }
            return Verdict::Healthy;
        };

        self.quiet = 0;
        // A non-finite output is unambiguous — no warning stage.
        if a != Anomaly::NonFinite && self.warns < WARN_LIMIT {
            self.warns += 1;
            self.stats.warns += 1;
            log.record(
                Explanation::new(now, "supervise:warn")
                    .named(&self.name)
                    .because(a.label(), error.unwrap_or(output)),
            );
            return Verdict::Warned(a);
        }

        let relapse = self
            .last_rollback
            .is_some_and(|t| now.0.saturating_sub(t) <= RELAPSE_WINDOW);

        if self.checkpoint.is_some()
            && !relapse
            && log.mask().allows(InterventionClass::SupervisorRollback)
        {
            // Clone-on-restore: the restored state is shared with the
            // checkpoint and only deep-copied on the next write.
            if let Some(cp) = &self.checkpoint {
                self.controller = Arc::clone(cp);
            }
            self.reset_watchdogs();
            self.warns = 0;
            self.last_rollback = Some(now.0);
            self.stats.rollbacks += 1;
            log.fired(InterventionClass::SupervisorRollback);
            log.record(
                Explanation::new(now, "supervise:rollback")
                    .anchoring(InterventionClass::SupervisorRollback)
                    .named(&self.name)
                    .because(a.label(), error.unwrap_or(output)),
            );
            Verdict::RolledBack(a)
        } else {
            // Masked fallback: the anomaly stays visible as a warning
            // but the model keeps control — the counterfactual world
            // where the supervisor never benches it.
            if log.mask().suppresses(InterventionClass::SupervisorFallback) {
                return Verdict::Warned(a);
            }
            // Restore the checkpoint too (when one exists) so the
            // benched model relearns from a sane state rather than
            // from the corrupted one.
            if let Some(cp) = &self.checkpoint {
                self.controller = Arc::clone(cp);
            }
            self.source = ControlSource::Baseline;
            self.reset_watchdogs();
            self.warns = 0;
            self.fallback_elapsed = 0;
            self.probe_quiet = 0;
            self.backoff = BACKOFF_INITIAL;
            self.stats.fallbacks += 1;
            log.fired(InterventionClass::SupervisorFallback);
            log.record(
                Explanation::new(now, "supervise:fallback")
                    .anchoring(InterventionClass::SupervisorFallback)
                    .named(&self.name)
                    .because(a.label(), error.unwrap_or(output)),
            );
            Verdict::FellBack(a)
        }
    }

    /// Ladder logic while the baseline holds control: the model runs
    /// in the shadow; after `backoff` ticks a quiet streak re-promotes
    /// it, an anomaly doubles the backoff.
    fn step_fallback(
        &mut self,
        now: Tick,
        error: Option<f64>,
        anomaly: Option<Anomaly>,
        log: &mut ExplanationLog,
    ) -> Verdict {
        self.fallback_elapsed += 1;
        match anomaly {
            Some(a) => {
                self.probe_quiet = 0;
                if self.fallback_elapsed >= self.backoff {
                    self.backoff = (self.backoff * 2).min(BACKOFF_MAX);
                    self.fallback_elapsed = 0;
                    self.stats.probe_failures += 1;
                    log.record(
                        Explanation::new(now, "supervise:probe-fail")
                            .named(&self.name)
                            .because(a.label(), error.unwrap_or(f64::NAN))
                            .because("next-backoff", self.backoff as f64),
                    );
                    return Verdict::ProbeFailed(a);
                }
                Verdict::Healthy
            }
            None => {
                self.probe_quiet += 1;
                if self.fallback_elapsed >= self.backoff
                    && self.probe_quiet >= QUIET_TICKS
                    && log.mask().allows(InterventionClass::SupervisorRepromote)
                {
                    self.source = ControlSource::Model;
                    self.checkpoint = Some(Arc::clone(&self.controller));
                    self.stats.checkpoints += 1;
                    self.stats.repromotions += 1;
                    self.fallback_elapsed = 0;
                    self.quiet = 0;
                    log.fired(InterventionClass::SupervisorRepromote);
                    log.record(
                        Explanation::new(now, "supervise:repromote")
                            .anchoring(InterventionClass::SupervisorRepromote)
                            .named(&self.name)
                            .because("quiet-ticks", f64::from(self.probe_quiet)),
                    );
                    return Verdict::Repromoted;
                }
                Verdict::Healthy
            }
        }
    }

    /// Clears watchdog state after the model's state jumped (rollback
    /// or fallback restore) — stale comparisons would be meaningless.
    fn reset_watchdogs(&mut self) {
        self.fast = ResidualTracker::new(FAST_ALPHA);
        self.detector.reset();
        self.div_streak = 0;
        self.osc_streak = 0;
        self.stall_streak = 0;
        self.prev_output = None;
        self.prev_bits = None;
        self.prev_prev_bits = None;
        self.quiet = 0;
    }
}

/// A learned model that a model-corruption fault can damage in place.
pub trait Corruptible {
    /// Overwrites the learned state with NaN (the NaN-poison fault).
    fn poison(&mut self);
    /// Blows the learned state up by `gain` (the weight-scramble
    /// fault).
    fn scramble(&mut self, gain: f64);
}

/// A bank of models is corrupted model by model, in order.
impl<M: Corruptible> Corruptible for Vec<M> {
    fn poison(&mut self) {
        for m in self {
            m.poison();
        }
    }

    fn scramble(&mut self, gain: f64) {
        for m in self {
            m.scramble(gain);
        }
    }
}

/// The slot a substrate keeps its learned self-model in: bare, or
/// under a [`Supervisor`], together with the end of any state freeze.
///
/// Both kinds hold the model in a [`Supervisor`]. A bare slot ignores
/// [`SelfModel::observe`], so it never checkpoints, benches or records:
/// its [`SelfModel::stats`] stay zero, its model stays in control, and
/// every answer is the bare model's own.
#[derive(Debug, Clone)]
pub struct SelfModel<M: Clone> {
    sup: Supervisor<M>,
    supervised: bool,
    frozen_until: Option<Tick>,
}

impl<M: Clone> SelfModel<M> {
    /// Puts `model` in a slot, under a supervisor named `name` if
    /// `supervised`.
    #[must_use]
    pub fn new(name: impl Into<Arc<str>>, model: M, supervised: bool) -> Self {
        Self {
            sup: Supervisor::new(name, model),
            supervised,
            frozen_until: None,
        }
    }

    /// Whether a supervisor watches the model.
    #[must_use]
    pub fn is_supervised(&self) -> bool {
        self.supervised
    }

    /// The model.
    #[must_use]
    pub fn model(&self) -> &M {
        self.sup.model()
    }

    /// Mutable access to the model, for training and fault injection
    /// (see [`Supervisor::model_mut`]).
    pub fn model_mut(&mut self) -> &mut M {
        self.sup.model_mut()
    }

    /// Feeds the supervisor one tick of evidence (see
    /// [`Supervisor::observe`]). A bare slot ignores it and answers
    /// [`Verdict::Healthy`].
    pub fn observe(&mut self, now: Tick, evidence: Evidence, log: &mut ExplanationLog) -> Verdict {
        if self.supervised {
            self.sup.observe(now, evidence, log)
        } else {
            Verdict::Healthy
        }
    }

    /// Whether the supervisor has benched the model (never in a bare
    /// slot).
    #[must_use]
    pub fn is_fallback(&self) -> bool {
        self.sup.is_fallback()
    }

    /// Whether the substrate should act on `output`, the model's
    /// answer. A bare model's answer always flows, whatever it is; a
    /// supervised one's only while the model holds control and the
    /// answer is finite.
    #[must_use]
    pub fn trusts(&self, output: f64) -> bool {
        !self.supervised || (!self.is_fallback() && output.is_finite())
    }

    /// Lifetime supervision counters (all zero in a bare slot).
    #[must_use]
    pub fn stats(&self) -> SupervisionStats {
        self.sup.stats()
    }

    /// Freezes the model's training until `until` (the state-freeze
    /// fault), replacing any earlier deadline.
    pub fn freeze_until(&mut self, until: Tick) {
        self.frozen_until = Some(until);
    }

    /// Whether a state freeze holds the model's training at `now`.
    #[must_use]
    pub fn frozen(&self, now: Tick) -> bool {
        self.frozen_until.is_some_and(|until| now < until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::holt::Holt;
    use crate::models::{Forecaster, OnlineModel};
    use crate::replay::InterventionMask;

    fn log() -> ExplanationLog {
        ExplanationLog::new(256)
    }

    /// Retained entries whose action label is `action`.
    fn logged(l: &ExplanationLog, action: &str) -> usize {
        l.iter().filter(|e| e.action() == action).count()
    }

    /// Drives a supervised Holt over a clean ramp for `ticks`,
    /// starting at tick `t0`.
    fn warm_up(sup: &mut Supervisor<Holt>, log: &mut ExplanationLog, t0: u64, ticks: u64) {
        for t in t0..t0 + ticks {
            let x = t as f64;
            sup.model_mut().observe(x);
            let out = sup.model().forecast().unwrap_or(x);
            let v = sup.observe(Tick(t), Evidence::forecast(x, out), log);
            assert!(
                matches!(v, Verdict::Healthy | Verdict::Repromoted),
                "clean ramp must stay healthy, got {v:?} at t={t}"
            );
        }
    }

    #[test]
    fn healthy_stream_checkpoints_and_stays_quiet() {
        let mut l = log();
        let mut sup = Supervisor::new("m", Holt::new(0.3, 0.1));
        warm_up(&mut sup, &mut l, 0, 300);
        assert_eq!(sup.source(), ControlSource::Model);
        let s = sup.stats();
        assert!(s.checkpoints > 5, "periodic checkpoints: {s:?}");
        assert_eq!(
            (s.warns, s.rollbacks, s.fallbacks, s.repromotions),
            (0, 0, 0, 0)
        );
        assert!(l.is_empty(), "no transitions logged on a healthy run");
    }

    /// Each rung reads the mask from the log it is handed: a rung the
    /// mask suppresses never fires, counts nothing in the ledger, and
    /// leaves the ladder on its suppressed branch.
    #[test]
    fn a_rung_the_log_masks_never_fires() {
        use InterventionClass as C;
        let masked = |class| log().with_mask(InterventionMask::suppressing(class));
        let nan = Evidence::forecast(1.0, f64::NAN);

        // A NaN after a checkpoint rolls back; masked, it falls back.
        for (mut l, want) in [
            (log(), Verdict::RolledBack(Anomaly::NonFinite)),
            (
                masked(C::SupervisorRollback),
                Verdict::FellBack(Anomaly::NonFinite),
            ),
        ] {
            let mut sup = Supervisor::new("m", Holt::new(0.3, 0.1));
            warm_up(&mut sup, &mut l, 0, 100);
            assert_eq!(sup.observe(Tick(100), nan, &mut l), want);
            let rolled = matches!(want, Verdict::RolledBack(_));
            assert_eq!(l.fires(C::SupervisorRollback), u64::from(rolled));
        }

        // A NaN before any checkpoint benches the model; masked, the
        // model keeps control and the anomaly stays a warning.
        for (mut l, want) in [
            (log(), Verdict::FellBack(Anomaly::NonFinite)),
            (
                masked(C::SupervisorFallback),
                Verdict::Warned(Anomaly::NonFinite),
            ),
        ] {
            let mut sup = Supervisor::new("m", Holt::new(0.3, 0.1));
            assert_eq!(sup.observe(Tick(0), nan, &mut l), want);
            assert_eq!(sup.is_fallback(), l.fires(C::SupervisorFallback) == 1);
        }

        // Quiet probes re-promote a benched model; masked, it stays
        // benched.
        for (mut l, repromotes) in [(log(), true), (masked(C::SupervisorRepromote), false)] {
            let mut sup = Supervisor::new("m", Holt::new(0.3, 0.1));
            sup.observe(Tick(0), nan, &mut l);
            let quiet = Evidence::forecast(1.0, 1.0);
            let verdicts: Vec<Verdict> = (1..60)
                .map(|t| sup.observe(Tick(t), quiet, &mut l))
                .collect();
            assert_eq!(verdicts.contains(&Verdict::Repromoted), repromotes);
            assert_eq!(sup.is_fallback(), !repromotes);
            assert_eq!(l.fires(C::SupervisorRepromote), u64::from(repromotes));
        }
    }

    #[test]
    fn nan_output_rolls_back_immediately() {
        let mut l = log();
        let mut sup = Supervisor::new("m", Holt::new(0.3, 0.1));
        warm_up(&mut sup, &mut l, 0, 100);
        let good_level = sup.model().level();
        sup.model_mut().poison();
        let out = sup.model().forecast().unwrap_or(f64::NAN);
        let v = sup.observe(Tick(100), Evidence::forecast(100.0, out), &mut l);
        assert_eq!(v, Verdict::RolledBack(Anomaly::NonFinite));
        assert!(sup.model().level().is_finite(), "checkpoint restored");
        assert!((sup.model().level() - good_level).abs() < 30.0);
        assert_eq!(sup.stats().rollbacks, 1);
        assert!(logged(&l, "supervise:m:rollback") > 0);
    }

    #[test]
    fn divergence_warns_then_rolls_back() {
        let mut l = log();
        let mut sup = Supervisor::new("m", Holt::new(0.3, 0.1));
        // 110 ticks: the last checkpoint (t=100) predates the scramble.
        warm_up(&mut sup, &mut l, 0, 110);
        // Scramble the model state: forecasts leave the rails.
        sup.model_mut().set_state(1e6, 1e5);
        let mut saw_warn = false;
        let mut saw_rollback = false;
        for t in 110..150u64 {
            let x = t as f64;
            sup.model_mut().observe(x);
            let out = sup.model().forecast().unwrap_or(x);
            match sup.observe(Tick(t), Evidence::forecast(x, out), &mut l) {
                Verdict::Warned(Anomaly::Divergence) => saw_warn = true,
                Verdict::RolledBack(Anomaly::Divergence) => {
                    saw_rollback = true;
                    break;
                }
                _ => {}
            }
        }
        assert!(saw_warn, "divergence should warn before escalation");
        assert!(saw_rollback, "sustained divergence must roll back");
        assert!(logged(&l, "supervise:m:warn") > 0);
        // The rollback actually repaired the forecasts.
        assert!(sup.model().level() < 1000.0);
    }

    #[test]
    fn relapse_after_rollback_falls_back_to_baseline() {
        let mut l = log();
        let mut sup = Supervisor::new("m", Holt::new(0.3, 0.1));
        warm_up(&mut sup, &mut l, 0, 100);
        let mut fell_back = false;
        for t in 100..220u64 {
            let x = t as f64;
            // Persistent corruption: re-scramble every tick, so the
            // rollback cannot cure it.
            sup.model_mut().set_state(1e6, 1e5);
            let out = sup.model().forecast().unwrap_or(x);
            if let Verdict::FellBack(_) = sup.observe(Tick(t), Evidence::forecast(x, out), &mut l) {
                fell_back = true;
                break;
            }
        }
        assert!(fell_back, "relapsing anomaly must bench the model");
        assert!(sup.is_fallback());
        assert_eq!(sup.stats().fallbacks, 1);
        assert!(sup.stats().rollbacks >= 1, "ladder passed through rollback");
        assert!(logged(&l, "supervise:m:fallback") > 0);
    }

    #[test]
    fn fallback_probes_backoff_then_repromote() {
        let mut l = log();
        let mut sup = Supervisor::new("m", Holt::new(0.3, 0.1));
        warm_up(&mut sup, &mut l, 0, 100);
        // Force a fallback via persistent corruption.
        let mut t = 100u64;
        while !sup.is_fallback() {
            sup.model_mut().set_state(1e6, 1e5);
            let out = sup.model().forecast().unwrap_or(0.0);
            sup.observe(Tick(t), Evidence::forecast(t as f64, out), &mut l);
            t += 1;
            assert!(t < 400, "fallback must happen");
        }
        // Keep the corruption active: probes must fail and back off.
        let mut probe_fails = 0;
        for _ in 0..80 {
            sup.model_mut().set_state(1e6, 1e5);
            let out = sup.model().forecast().unwrap_or(0.0);
            if let Verdict::ProbeFailed(_) =
                sup.observe(Tick(t), Evidence::forecast(t as f64, out), &mut l)
            {
                probe_fails += 1;
            }
            t += 1;
        }
        assert!(probe_fails >= 1, "probes against a broken model fail");
        assert!(logged(&l, "supervise:m:probe-fail") > 0);
        // Corruption ends: the shadow model relearns and is promoted.
        let mut repromoted = false;
        for _ in 0..2000 {
            let x = t as f64;
            sup.model_mut().observe(x);
            let out = sup.model().forecast().unwrap_or(x);
            if let Verdict::Repromoted = sup.observe(Tick(t), Evidence::forecast(x, out), &mut l) {
                repromoted = true;
                break;
            }
            t += 1;
        }
        assert!(repromoted, "healthy shadow model earns control back");
        assert_eq!(sup.source(), ControlSource::Model);
        assert!(logged(&l, "supervise:m:repromote") > 0);
        assert_eq!(sup.stats().repromotions, 1);
    }

    #[test]
    fn stall_detected_when_output_freezes_under_moving_input() {
        let mut l = log();
        let mut sup = Supervisor::new("m", Holt::new(0.3, 0.1));
        // Scored evidence with a flat error keeps the divergence
        // watchdog quiet: only the frozen output can be the trigger.
        for t in 0..100u64 {
            let x = t as f64;
            let v = sup.observe(Tick(t), Evidence::scored(x, 0.1).with_input(x), &mut l);
            assert_eq!(v, Verdict::Healthy);
        }
        // Freeze: output bits never change while the input moves on.
        let mut anomalies = Vec::new();
        for t in 100..160u64 {
            let x = t as f64;
            match sup.observe(Tick(t), Evidence::scored(42.0, 0.1).with_input(x), &mut l) {
                Verdict::Warned(a) | Verdict::RolledBack(a) | Verdict::FellBack(a) => {
                    anomalies.push(a);
                }
                _ => {}
            }
        }
        assert!(
            anomalies.contains(&Anomaly::Stall),
            "frozen output under moving input must stall: {anomalies:?}"
        );
    }

    #[test]
    fn oscillation_detected_on_bit_exact_flip_flop() {
        let mut l = log();
        let mut sup = Supervisor::new("m", Holt::new(0.3, 0.1));
        // Warm with scored evidence so the slow baseline sits at the
        // same error level as the flip-flop phase: only the
        // oscillation watchdog has grounds to fire.
        for t in 0..100u64 {
            let v = sup.observe(Tick(t), Evidence::scored(50.0, 0.1), &mut l);
            assert_eq!(v, Verdict::Healthy);
        }
        let mut anomalies = Vec::new();
        for t in 100..140u64 {
            let out = if t % 2 == 0 { 10.0 } else { 90.0 };
            match sup.observe(Tick(t), Evidence::scored(out, 0.1), &mut l) {
                Verdict::Warned(a) | Verdict::RolledBack(a) | Verdict::FellBack(a) => {
                    anomalies.push(a);
                }
                _ => {}
            }
        }
        assert!(
            anomalies.contains(&Anomaly::Oscillation),
            "A-B-A flip-flop must be flagged: {anomalies:?}"
        );
    }

    #[test]
    fn no_checkpoint_escalates_straight_to_fallback() {
        let mut l = log();
        let mut sup = Supervisor::new("m", Holt::new(0.3, 0.1));
        // NaN before any checkpoint exists (checkpoints need a quiet
        // streak that never forms here).
        let mut fell = false;
        for t in 0..8u64 {
            let v = sup.observe(Tick(t), Evidence::scored(f64::NAN, f64::NAN), &mut l);
            if let Verdict::FellBack(Anomaly::NonFinite) = v {
                fell = true;
                break;
            }
        }
        assert!(fell, "no checkpoint → fallback is the only repair");
        assert_eq!(sup.stats().rollbacks, 0);
    }

    #[test]
    fn scored_evidence_divergence_fires() {
        let mut l = log();
        let mut sup = Supervisor::new("m", Holt::new(0.3, 0.1));
        for t in 0..100u64 {
            let v = sup.observe(Tick(t), Evidence::scored(5.0, 0.2), &mut l);
            assert_eq!(v, Verdict::Healthy);
        }
        let mut flagged = false;
        for t in 100..130u64 {
            if sup.observe(Tick(t), Evidence::scored(5.0, 40.0), &mut l) != Verdict::Healthy {
                flagged = true;
                break;
            }
        }
        assert!(flagged, "a 200x error blow-up must be flagged");
    }

    /// A model whose `Clone` impl counts deep copies, to prove the
    /// `Arc` checkpoints are pointer bumps and not clones.
    #[derive(Debug)]
    struct CloneCounter {
        value: f64,
        clones: std::rc::Rc<std::cell::Cell<u32>>,
    }

    impl Clone for CloneCounter {
        fn clone(&self) -> Self {
            self.clones.set(self.clones.get() + 1);
            Self {
                value: self.value,
                clones: std::rc::Rc::clone(&self.clones),
            }
        }
    }

    #[test]
    fn healthy_run_takes_checkpoints_without_cloning() {
        let clones = std::rc::Rc::new(std::cell::Cell::new(0u32));
        let mut l = log();
        let mut sup = Supervisor::new(
            "m",
            CloneCounter {
                value: 1.0,
                clones: std::rc::Rc::clone(&clones),
            },
        );
        for t in 0..300u64 {
            let x = t as f64;
            let v = sup.observe(Tick(t), Evidence::scored(x, 0.1).with_input(x), &mut l);
            assert_eq!(v, Verdict::Healthy);
        }
        assert!(sup.stats().checkpoints > 5, "checkpoints were taken");
        assert_eq!(
            clones.get(),
            0,
            "quiet-streak checkpoints must not deep-copy the controller"
        );
    }

    #[test]
    fn restore_clones_lazily_on_first_write() {
        let clones = std::rc::Rc::new(std::cell::Cell::new(0u32));
        let mut l = log();
        let mut sup = Supervisor::new(
            "m",
            CloneCounter {
                value: 1.0,
                clones: std::rc::Rc::clone(&clones),
            },
        );
        for t in 0..100u64 {
            let x = t as f64;
            sup.observe(Tick(t), Evidence::scored(x, 0.1).with_input(x), &mut l);
        }
        // NaN output: immediate rollback to the last checkpoint.
        let v = sup.observe(Tick(100), Evidence::scored(f64::NAN, f64::NAN), &mut l);
        assert_eq!(v, Verdict::RolledBack(Anomaly::NonFinite));
        assert_eq!(clones.get(), 0, "restore itself is a pointer swap");
        // First write after the restore pays for exactly one copy.
        sup.model_mut().value = 2.0;
        assert_eq!(clones.get(), 1, "clone-on-restore happens on write");
        sup.model_mut().value = 3.0;
        assert_eq!(clones.get(), 1, "further writes are free until shared");
        assert!((sup.model().value - 3.0).abs() < 1e-12);
    }

    /// Checkpoint-anchored replay: cloning a supervisor mid-run and
    /// feeding the clone the same evidence stream must reproduce the
    /// suffix of the full run bit-exactly. The clone shares its
    /// checkpoint `Arc` with the original, so this also guards the
    /// copy-on-write restore path: both worlds roll back through the
    /// *same* shared checkpoint and must still diverge nowhere.
    #[test]
    fn cloned_supervisor_replays_suffix_bit_exactly() {
        let mut l = log();
        let mut sup = Supervisor::new("m", Holt::new(0.3, 0.1));
        warm_up(&mut sup, &mut l, 0, 150);
        assert!(sup.stats().checkpoints > 0, "anchor needs a checkpoint");

        // Anchor: a mid-run snapshot, Arc-shared with the original.
        let mut replica = sup.clone();
        let mut replica_log = log();

        // Drive both worlds over the identical suffix: clean ramp,
        // then a NaN injection (forcing a rollback through the shared
        // checkpoint), then recovery.
        let drive = |sup: &mut Supervisor<Holt>, log: &mut ExplanationLog| -> Vec<Verdict> {
            let mut verdicts = Vec::new();
            for t in 150..400u64 {
                let x = t as f64;
                if t == 200 {
                    sup.model_mut().poison();
                }
                sup.model_mut().observe(x);
                let out = sup.model().forecast().unwrap_or(x);
                verdicts.push(sup.observe(Tick(t), Evidence::forecast(x, out), log));
            }
            verdicts
        };
        let original = drive(&mut sup, &mut l);
        let replayed = drive(&mut replica, &mut replica_log);

        assert!(
            original.contains(&Verdict::RolledBack(Anomaly::NonFinite)),
            "suffix must exercise the shared-checkpoint restore"
        );
        assert_eq!(original, replayed, "verdict streams must match");
        assert_eq!(sup.stats(), replica.stats());
        assert_eq!(sup.source(), replica.source());
        assert_eq!(
            sup.model().level().to_bits(),
            replica.model().level().to_bits(),
            "replayed model state must be bit-identical"
        );
        assert_eq!(
            logged(&l, "supervise:m:rollback"),
            logged(&replica_log, "supervise:m:rollback")
        );
    }

    /// Through random training, poison, scramble and freezes, a bare
    /// slot answers exactly like the bare model beside it: the same
    /// forecast bits every tick, zero counters and an empty log,
    /// whatever evidence it is fed.
    #[test]
    fn bare_slot_answers_like_the_bare_model() {
        use rand::Rng as _;
        for seed in 0..16 {
            let mut rng = simkernel::SeedTree::new(seed).rng("bare-slot");
            let mut l = log();
            let mut model = Holt::new(0.3, 0.1);
            let mut thaw_at = 0;
            let mut slot = SelfModel::new("bare", Holt::new(0.3, 0.1), false);
            for t in 0..400u64 {
                match rng.gen_range(0..150) {
                    0 => {
                        model.poison();
                        slot.model_mut().poison();
                    }
                    1..=4 => {
                        let gain = rng.gen_range(2.0..60.0);
                        model.scramble(gain);
                        slot.model_mut().scramble(gain);
                    }
                    5..=8 => {
                        thaw_at = t + rng.gen_range(1..40);
                        slot.freeze_until(Tick(thaw_at));
                    }
                    _ => {}
                }
                let x = rng.gen_range(0.0..100.0);
                assert_eq!(slot.frozen(Tick(t)), t < thaw_at);
                if t >= thaw_at {
                    model.observe(x);
                }
                if !slot.frozen(Tick(t)) {
                    slot.model_mut().observe(x);
                }
                let out = slot.model().forecast().unwrap_or(x);
                let verdict = slot.observe(Tick(t), Evidence::forecast(x, out), &mut l);
                assert_eq!(verdict, Verdict::Healthy);
                assert!(slot.trusts(out) && !slot.is_fallback());
                // Bit-equal, or NaN in both: an optimised build need not
                // keep a NaN's sign bit, so two copies of one poisoned
                // model may forecast NaNs that differ only there.
                let (got, want) = (slot.model().forecast(), model.forecast());
                let same = match (got, want) {
                    (Some(a), Some(b)) => a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                    _ => got.is_none() && want.is_none(),
                };
                assert!(same, "seed {seed}, t={t}: {got:?} vs {want:?}");
            }
            assert_eq!(slot.stats(), SupervisionStats::default());
            assert!(l.is_empty());
        }
    }

    #[test]
    fn evidence_builders() {
        let f = Evidence::forecast(1.0, 2.0);
        assert_eq!(f.input, Some(1.0));
        assert_eq!(f.output, 2.0);
        assert_eq!(f.error, None);
        let s = Evidence::scored(3.0, 0.5).with_input(7.0);
        assert_eq!(s.input, Some(7.0));
        assert_eq!(s.error, Some(0.5));
    }
}
