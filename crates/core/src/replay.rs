//! Deterministic counterfactual replay: intervention masks and the
//! re-execution driver that turns explanation-log entries into
//! *measured* deltas.
//!
//! The paper (and the self-explainability literature it anchors)
//! argues that *why*-answers require reflexive re-examination, not
//! just event logs. This repo's replication contract makes those
//! answers exact: every run is a pure function of its
//! [`simkernel::rng::SeedTree`], bit-identical sequentially and in
//! parallel. An [`InterventionMask`] force-disables exactly one class
//! of self-awareness intervention (sensor quarantine, supervisor
//! rollback, comms retry, ladder shed, …) **without perturbing any
//! RNG draw** — none of the masked decision paths consume randomness,
//! the same discipline that keeps `ChannelPlan`'s stateless hashing
//! seq-vs-par clean — so re-running a completed replicate under the
//! same seeds with one mask bit flipped isolates that intervention's
//! causal contribution to the headline metric. [`CounterfactualRun`]
//! drives the re-executions and attaches each measured delta to the
//! originating [`ExplanationLog`] entry ("rolling back at tick 812
//! avoided 47.9 regret").
//!
//! A run's mask lives in its [`ExplanationLog`]
//! ([`ExplanationLog::with_mask`]), and every mask site reads it from
//! the log it is handed ([`ExplanationLog::mask`]). Each site also
//! counts a fire in that log's ledger ([`ExplanationLog::fired`])
//! exactly where the allowed branch does something the suppressed
//! branch would not, so a masked run's ledger reads 0 for its
//! suppressed class, and until a class's first fire its masked run
//! takes the factual run's steps.
//!
//! Masking invariants (enforced by the proptest suite in `sas-bench`):
//!
//! * the all-bits-off mask ([`InterventionMask::allow_all`])
//!   reproduces the original run bit-exactly;
//! * any masked run is itself parity-clean (bit-identical seq-vs-par),
//!   because masking only gates deterministic state transitions;
//! * suppressing a class whose factual ledger reads 0 reproduces the
//!   factual run bit-exactly, so [`CounterfactualRun`] reuses the
//!   factual outcome instead of re-executing it.

use crate::explain::{Explanation, ExplanationLog};
use crate::goals::Direction;
use serde::{Deserialize, Serialize};
use simkernel::obs::Json;

/// One suppressible class of self-awareness intervention.
///
/// Each variant names a decision path where the system *acts on* its
/// self-knowledge; masking the class leaves the knowledge in place
/// (monitors still learn, supervisors still score, retry timers still
/// advance) but vetoes the action — the cheapest faithful model of
/// "what if the system had not intervened".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InterventionClass {
    /// Sensor-health quarantine and model/consensus substitution
    /// ([`crate::health::SensorHealth`]): masked readings pass through
    /// raw (hold-last on dropout), exactly like the naive ablation.
    SensorQuarantine,
    /// Supervisor checkpoint rollback
    /// ([`crate::supervision::Supervisor`]): masked anomalies that
    /// would restore a checkpoint escalate straight to fallback.
    SupervisorRollback,
    /// Supervisor fallback onto the baseline controller: masked
    /// escalations keep warning instead of benching the model.
    SupervisorFallback,
    /// Supervisor re-promotion of a benched model after quiet probes:
    /// masked supervisors stay on the baseline forever.
    SupervisorRepromote,
    /// Reliable-comms retransmission
    /// ([`crate::comms::CommsNetwork`]): masked retries still expire
    /// pendings on the same schedule but never relaunch the wire.
    CommsRetry,
    /// Periodic command re-issue (command-plane belief refresh:
    /// zoned-plane re-sends, throttle refresh): masked planes send
    /// only on change.
    CommsReissue,
    /// Degradation-ladder quality shedding (compose).
    ComposeShed,
    /// Degradation-ladder detection re-homing around a dead zone
    /// (compose).
    ComposeRehome,
    /// Degradation-ladder admission throttling (compose).
    ComposeThrottle,
}

impl InterventionClass {
    /// Every class, in bit order.
    pub const ALL: [InterventionClass; 9] = [
        InterventionClass::SensorQuarantine,
        InterventionClass::SupervisorRollback,
        InterventionClass::SupervisorFallback,
        InterventionClass::SupervisorRepromote,
        InterventionClass::CommsRetry,
        InterventionClass::CommsReissue,
        InterventionClass::ComposeShed,
        InterventionClass::ComposeRehome,
        InterventionClass::ComposeThrottle,
    ];

    /// The class's position in [`InterventionClass::ALL`].
    pub(crate) const fn index(self) -> usize {
        self as usize
    }

    /// The class's bit position in an [`InterventionMask`].
    #[must_use]
    pub fn bit(self) -> u16 {
        1 << self.index()
    }

    /// Stable table/trace label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            InterventionClass::SensorQuarantine => "sensor-quarantine",
            InterventionClass::SupervisorRollback => "supervisor-rollback",
            InterventionClass::SupervisorFallback => "supervisor-fallback",
            InterventionClass::SupervisorRepromote => "supervisor-repromote",
            InterventionClass::CommsRetry => "comms-retry",
            InterventionClass::CommsReissue => "comms-reissue",
            InterventionClass::ComposeShed => "compose-shed",
            InterventionClass::ComposeRehome => "compose-rehome",
            InterventionClass::ComposeThrottle => "compose-throttle",
        }
    }
}

/// A bitset of *suppressed* intervention classes.
///
/// The default ([`InterventionMask::allow_all`]) suppresses nothing —
/// the factual run. [`InterventionMask::suppressing`] flips exactly
/// one bit, the single-intervention counterfactual the F10 driver
/// measures. A run carries it in its [`ExplanationLog`]
/// ([`ExplanationLog::with_mask`]), where every intervention site
/// reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct InterventionMask(u16);

impl InterventionMask {
    /// The factual mask: every intervention class allowed.
    #[must_use]
    pub fn allow_all() -> Self {
        Self(0)
    }

    /// The single-flip counterfactual mask: exactly `class` suppressed.
    #[must_use]
    pub fn suppressing(class: InterventionClass) -> Self {
        Self(class.bit())
    }

    /// Whether `class` is suppressed (the intervention must not fire).
    #[must_use]
    pub fn suppresses(self, class: InterventionClass) -> bool {
        self.0 & class.bit() != 0
    }

    /// Whether `class` is allowed (the factual behaviour).
    #[must_use]
    pub fn allows(self, class: InterventionClass) -> bool {
        !self.suppresses(class)
    }

    /// Whether nothing is suppressed (the factual mask).
    #[must_use]
    pub fn is_factual(self) -> bool {
        self.0 == 0
    }
}

/// What one (masked) re-execution reports back to the driver: the
/// headline metric plus the run's explanation log, from which the
/// driver extracts anchors and truncation evidence.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The scenario's headline metric value.
    pub metric: f64,
    /// The run's explanation log (by value — the run is over).
    pub log: ExplanationLog,
}

/// The measured effect of suppressing one intervention class on one
/// completed replicate.
#[derive(Debug, Clone)]
pub struct CounterfactualDelta {
    /// The suppressed class.
    pub class: InterventionClass,
    /// Headline metric of the factual run.
    pub factual: f64,
    /// Headline metric of the masked re-execution.
    pub counterfactual: f64,
    /// Direction-signed benefit of the intervention: positive means
    /// the factual run (intervention active) beat the counterfactual.
    pub benefit: f64,
    /// Exact count of this class's fires in the factual run, from the
    /// log's ledger ([`ExplanationLog::fires`]); zero means the class
    /// was not re-executed.
    pub fires: u64,
    /// Factual-run explanation entries tagged with this class (the
    /// anchors the bounded log retained).
    pub events: u64,
    /// Tick of the first anchoring explanation entry, if any.
    pub anchor_tick: Option<u64>,
    /// Action label of the first anchoring entry, if any.
    pub anchor_action: Option<String>,
    /// Entries the factual run's bounded log evicted: when nonzero the
    /// event count (and the anchor) may understate the truth.
    pub log_dropped: u64,
}

impl CounterfactualDelta {
    /// Whether fidelity scoring ran on a truncated log.
    #[must_use]
    pub fn truncated(&self) -> bool {
        self.log_dropped > 0
    }

    /// One-line operator rendering: "`supervisor-rollback` at tick 812
    /// avoided 47.9 utility regret (3 events)". A class that fired but
    /// whose anchors the bounded log evicted reads "(fired 2 times,
    /// anchors evicted)"; only a class the ledger never saw fire reads
    /// "(never fired)".
    #[must_use]
    pub fn headline(&self, metric: &str) -> String {
        let at = match (self.anchor_tick, self.fires) {
            (Some(t), _) => format!("at tick {t}"),
            (None, 0) => "(never fired)".into(),
            (None, 1) => "(fired 1 time, anchors evicted)".into(),
            (None, n) => format!("(fired {n} times, anchors evicted)"),
        };
        let verb = if self.benefit >= 0.0 {
            "avoided"
        } else {
            "cost"
        };
        format!(
            "`{}` {} {} {:.3} {} regret ({} events)",
            self.class.label(),
            at,
            verb,
            self.benefit.abs(),
            metric,
            self.events
        )
    }

    /// Structured export matching the `counterfactual` run-trace
    /// record (see `sas-bench`'s `obs_validate`).
    #[must_use]
    pub fn to_json(&self, metric: &str) -> Json {
        Json::obj([
            ("class", Json::str(self.class.label())),
            ("metric", Json::str(metric)),
            ("factual", Json::from(self.factual)),
            ("counterfactual", Json::from(self.counterfactual)),
            ("benefit", Json::from(self.benefit)),
            ("fires", Json::from(self.fires)),
            ("events", Json::from(self.events)),
            (
                "anchor_tick",
                self.anchor_tick.map_or(Json::Null, Json::from),
            ),
            (
                "anchor_action",
                self.anchor_action.clone().map_or(Json::Null, Json::str),
            ),
            ("log_dropped", Json::from(self.log_dropped)),
            ("truncated", Json::from(self.truncated())),
        ])
    }
}

/// The full counterfactual report for one replicate: the factual
/// outcome plus one delta per probed class.
#[derive(Debug, Clone)]
pub struct CounterfactualReport {
    /// Headline metric name.
    pub metric: String,
    /// Headline metric of the factual run.
    pub factual: f64,
    /// Entries the factual log evicted (truncation flag for the whole
    /// replay window).
    pub log_dropped: u64,
    /// Per-class measured deltas, in probe order.
    pub deltas: Vec<CounterfactualDelta>,
}

impl CounterfactualReport {
    /// Whether any probed window ran on a truncated explanation log.
    #[must_use]
    pub fn truncated(&self) -> bool {
        self.log_dropped > 0
    }

    /// The delta for `class`, if probed.
    #[must_use]
    pub fn delta(&self, class: InterventionClass) -> Option<&CounterfactualDelta> {
        self.deltas.iter().find(|d| d.class == class)
    }
}

/// Re-executes a completed replicate under single-flip intervention
/// masks and scores each intervention class's measured benefit on the
/// scenario's headline metric.
///
/// The driver owns no simulation: callers hand it a closure that runs
/// the scenario under a given mask (factual == `allow_all`) from the
/// same seeds every time. Because masked paths consume identical
/// seed-stream material, the factual/counterfactual pair is a
/// common-random-number pair and the delta is exact, not statistical.
///
/// # The closure contract
///
/// The closure builds the run's log with the mask it is given
/// ([`ExplanationLog::with_mask`]) and hands that log to every mask
/// site. The returned log must count every intervention the run takes
/// in its ledger, through [`ExplanationLog::fired`], at each point
/// where the allowed branch's outcome differs from the suppressed one.
/// [`crate::health::SensorHealth`], [`crate::supervision::Supervisor`],
/// [`crate::comms::CommsNetwork`] and [`crate::comms::CommandPlane`]
/// read the mask from the log they are handed and count their fires
/// into it; a scenario does the same at its own mask sites.
/// [`CounterfactualRun::probe`] re-executes only the classes whose
/// factual ledger is non-zero. For a class that never fired it reports
/// the factual value as the counterfactual and a benefit of `0.0`, the
/// bits a re-run would yield. A closure that masks a class without counting
/// its fires reads as "never fired" and is never re-executed for it.
///
/// # Example
///
/// ```
/// use selfaware::replay::{CounterfactualRun, InterventionClass, InterventionMask, ReplayOutcome};
/// use selfaware::explain::{Explanation, ExplanationLog};
/// use selfaware::goals::Direction;
/// use simkernel::Tick;
///
/// // A toy "system" whose only intervention is a comms retry that
/// // recovers 2.0 of utility when allowed.
/// let run = |mask: InterventionMask| {
///     let mut log = ExplanationLog::new(8).with_mask(mask);
///     let retried = log.mask().allows(InterventionClass::CommsRetry);
///     if retried {
///         log.fired(InterventionClass::CommsRetry);
///         log.record(
///             Explanation::new(Tick(7), "comms:retry")
///                 .anchoring(InterventionClass::CommsRetry)
///                 .link(0, 1),
///         );
///     }
///     ReplayOutcome { metric: if retried { 10.0 } else { 8.0 }, log }
/// };
/// let report = CounterfactualRun::new("utility", Direction::Maximize, run)
///     .probe(&[InterventionClass::CommsRetry]);
/// let d = report.delta(InterventionClass::CommsRetry).unwrap();
/// assert_eq!(d.benefit, 2.0);
/// assert_eq!(d.fires, 1);
/// assert_eq!(d.anchor_tick, Some(7));
/// assert_eq!(d.anchor_action.as_deref(), Some("comms:retry:0->1"));
/// ```
pub struct CounterfactualRun<'a, F> {
    metric: &'a str,
    direction: Direction,
    run: F,
}

impl<'a, F> CounterfactualRun<'a, F>
where
    F: FnMut(InterventionMask) -> ReplayOutcome,
{
    /// Configures a driver for a scenario whose headline metric is
    /// `metric`, better in `direction`, re-executed by `run`.
    pub fn new(metric: &'a str, direction: Direction, run: F) -> Self {
        Self {
            metric,
            direction,
            run,
        }
    }

    /// Runs the factual replicate once, then one masked re-execution
    /// per class in `classes` that the factual ledger shows fired, and
    /// returns the measured report. A class that never fired keeps the
    /// factual value as its counterfactual (see the closure contract).
    pub fn probe(mut self, classes: &[InterventionClass]) -> CounterfactualReport {
        let factual = (self.run)(InterventionMask::allow_all());
        let deltas = classes
            .iter()
            .map(|&class| {
                let fires = factual.log.fires(class);
                let counterfactual = if fires > 0 {
                    (self.run)(InterventionMask::suppressing(class)).metric
                } else {
                    factual.metric
                };
                let benefit = match self.direction {
                    Direction::Maximize => factual.metric - counterfactual,
                    Direction::Minimize => counterfactual - factual.metric,
                };
                let anchors = || factual.log.iter().filter(|e| e.class == Some(class));
                let first = anchors().next();
                CounterfactualDelta {
                    class,
                    factual: factual.metric,
                    counterfactual,
                    benefit,
                    fires,
                    events: anchors().count() as u64,
                    anchor_tick: first.map(|e| e.at.value()),
                    anchor_action: first.map(Explanation::action),
                    log_dropped: factual.log.dropped_count(),
                }
            })
            .collect();
        CounterfactualReport {
            metric: self.metric.to_string(),
            factual: factual.metric,
            log_dropped: factual.log.dropped_count(),
            deltas,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::Tick;
    use std::sync::Arc;

    #[test]
    fn bits_are_distinct_and_stable() {
        let mut seen = 0u16;
        for (i, c) in InterventionClass::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i, "{c:?} is out of order in ALL");
            assert_eq!(seen & c.bit(), 0, "bit collision for {c:?}");
            seen |= c.bit();
        }
        assert_eq!(seen.count_ones() as usize, InterventionClass::ALL.len());
        assert_eq!(InterventionClass::SensorQuarantine.bit(), 1);
        assert_eq!(InterventionClass::ComposeThrottle.bit(), 1 << 8);
    }

    #[test]
    fn default_mask_is_factual() {
        let m = InterventionMask::default();
        assert!(m.is_factual());
        assert_eq!(m, InterventionMask::allow_all());
        for c in InterventionClass::ALL {
            assert!(m.allows(c));
            assert!(!m.suppresses(c));
        }
    }

    #[test]
    fn single_flip_suppresses_exactly_one_class() {
        for c in InterventionClass::ALL {
            let m = InterventionMask::suppressing(c);
            assert!(!m.is_factual());
            assert!(m.suppresses(c));
            for other in InterventionClass::ALL {
                if other != c {
                    assert!(m.allows(other), "{c:?} mask leaked onto {other:?}");
                }
            }
        }
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<&str> = InterventionClass::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), InterventionClass::ALL.len());
    }

    fn toy_outcome(mask: InterventionMask) -> ReplayOutcome {
        // Two interventions with separable effects: rollback is worth
        // +3 utility, retry is worth +2; the ledger counts both and the
        // log anchors both. An untagged entry of the retry kind anchors
        // nothing.
        let mut log = ExplanationLog::new(4);
        let mut metric = 5.0;
        if mask.allows(InterventionClass::SupervisorRollback) {
            metric += 3.0;
            log.fired(InterventionClass::SupervisorRollback);
            log.record(rollback(812));
        }
        log.record(Explanation::new(Tick(39), "comms:retry").link(1, 2));
        if mask.allows(InterventionClass::CommsRetry) {
            metric += 2.0;
            for t in [40, 41] {
                log.fired(InterventionClass::CommsRetry);
                log.record(retry(t));
            }
        }
        ReplayOutcome { metric, log }
    }

    fn rollback(t: u64) -> Explanation {
        Explanation::new(Tick(t), "supervise:rollback")
            .anchoring(InterventionClass::SupervisorRollback)
            .named(&Arc::from("demo"))
    }

    fn retry(t: u64) -> Explanation {
        Explanation::new(Tick(t), "comms:retry")
            .anchoring(InterventionClass::CommsRetry)
            .link(1, 2)
    }

    #[test]
    fn driver_measures_separable_benefits_exactly() {
        let report = CounterfactualRun::new("utility", Direction::Maximize, toy_outcome).probe(&[
            InterventionClass::SupervisorRollback,
            InterventionClass::CommsRetry,
            InterventionClass::ComposeShed,
        ]);
        assert_eq!(report.factual, 10.0);
        assert!(!report.truncated());
        let rb = report
            .delta(InterventionClass::SupervisorRollback)
            .expect("probed");
        assert_eq!(rb.benefit, 3.0);
        assert_eq!(rb.events, 1);
        assert_eq!(rb.anchor_tick, Some(812));
        assert_eq!(rb.anchor_action.as_deref(), Some("supervise:demo:rollback"));
        // The untagged retry-kind entry at tick 39 is neither counted
        // nor the first anchor.
        let rt = report.delta(InterventionClass::CommsRetry).expect("probed");
        assert_eq!(rt.benefit, 2.0);
        assert_eq!(rt.events, 2);
        assert_eq!(rt.anchor_tick, Some(40));
        // A class that never fired: zero delta, zero events, no anchor.
        let shed = report
            .delta(InterventionClass::ComposeShed)
            .expect("probed");
        assert_eq!(shed.benefit, 0.0);
        assert_eq!(shed.events, 0);
        assert!(shed.anchor_tick.is_none());
    }

    #[test]
    fn probe_re_executes_only_the_classes_that_fired() {
        // The toy fires rollback and retry: one factual call plus one
        // masked call each, whatever else is probed.
        let mut calls = 0u32;
        let report = CounterfactualRun::new("utility", Direction::Maximize, |mask| {
            calls += 1;
            toy_outcome(mask)
        })
        .probe(&InterventionClass::ALL);
        assert_eq!(calls, 1 + 2);
        for d in &report.deltas {
            let fired = matches!(
                d.class,
                InterventionClass::SupervisorRollback | InterventionClass::CommsRetry
            );
            assert_eq!(d.fires > 0, fired, "{:?}", d.class);
            if !fired {
                assert_eq!(d.counterfactual.to_bits(), d.factual.to_bits());
                assert_eq!(d.benefit.to_bits(), 0.0f64.to_bits());
            }
        }
        assert_eq!(
            report.delta(InterventionClass::CommsRetry).map(|d| d.fires),
            Some(2)
        );

        // A fire that records nothing is still re-executed and
        // measured: the ledger, not the ring, decides what fired.
        let mut calls = 0u32;
        let report = CounterfactualRun::new("utility", Direction::Maximize, |mask| {
            calls += 1;
            let mut out = ExplanationLog::new(4);
            let allowed = mask.allows(InterventionClass::ComposeShed);
            if allowed {
                out.fired(InterventionClass::ComposeShed);
            }
            ReplayOutcome {
                metric: if allowed { 2.0 } else { 1.5 },
                log: out,
            }
        })
        .probe(&[InterventionClass::ComposeShed]);
        assert_eq!(calls, 2);
        let d = report
            .delta(InterventionClass::ComposeShed)
            .expect("probed");
        assert_eq!((d.fires, d.events, d.benefit), (1, 0, 0.5));
    }

    #[test]
    fn minimize_direction_flips_the_sign() {
        // For a minimized metric (regret, error), an intervention that
        // *lowers* it has positive benefit.
        let run = |mask: InterventionMask| {
            let mut log = ExplanationLog::new(2);
            let quarantined = mask.allows(InterventionClass::SensorQuarantine);
            if quarantined {
                log.fired(InterventionClass::SensorQuarantine);
            }
            ReplayOutcome {
                metric: if quarantined { 1.0 } else { 4.0 },
                log,
            }
        };
        let report = CounterfactualRun::new("tracking_error", Direction::Minimize, run)
            .probe(&[InterventionClass::SensorQuarantine]);
        assert_eq!(
            report
                .delta(InterventionClass::SensorQuarantine)
                .expect("probed")
                .benefit,
            3.0
        );
    }

    #[test]
    fn truncated_logs_are_flagged() {
        let run = |mask: InterventionMask| {
            let mut log = ExplanationLog::new(1);
            if mask.allows(InterventionClass::CommsRetry) {
                for t in [1, 2] {
                    log.fired(InterventionClass::CommsRetry);
                    log.record(retry(t));
                }
            }
            ReplayOutcome { metric: 1.0, log }
        };
        let report = CounterfactualRun::new("utility", Direction::Maximize, run)
            .probe(&[InterventionClass::CommsRetry]);
        assert!(report.truncated());
        let d = report.delta(InterventionClass::CommsRetry).expect("probed");
        assert!(d.truncated());
        assert_eq!(d.log_dropped, 1);
        // Only the retained entry is an anchor — the flag says so —
        // while the ledger still counts both fires.
        assert_eq!(d.events, 1);
        assert_eq!(d.fires, 2);
    }

    #[test]
    fn headline_reads_like_an_explanation() {
        let report = CounterfactualRun::new("utility", Direction::Maximize, toy_outcome)
            .probe(&[InterventionClass::SupervisorRollback]);
        let d = report
            .delta(InterventionClass::SupervisorRollback)
            .expect("probed");
        let line = d.headline(&report.metric);
        assert!(line.contains("supervisor-rollback"), "{line}");
        assert!(line.contains("at tick 812"), "{line}");
        assert!(line.contains("avoided 3.000 utility"), "{line}");

        // A rollback whose anchor a later entry evicted still fired:
        // the headline gives the ledger's count, not "never fired".
        let evicted = |mask: InterventionMask| {
            let mut log = ExplanationLog::new(1);
            let mut metric = 5.0;
            if mask.allows(InterventionClass::SupervisorRollback) {
                metric += 3.0;
                log.fired(InterventionClass::SupervisorRollback);
                log.record(rollback(812));
            }
            log.record(Explanation::new(Tick(900), "supervise:warn").named(&Arc::from("demo")));
            ReplayOutcome { metric, log }
        };
        let report = CounterfactualRun::new("utility", Direction::Maximize, evicted).probe(&[
            InterventionClass::SupervisorRollback,
            InterventionClass::ComposeShed,
        ]);
        let rb = report
            .delta(InterventionClass::SupervisorRollback)
            .expect("probed");
        assert_eq!((rb.fires, rb.events, rb.benefit), (1, 0, 3.0));
        let line = rb.headline(&report.metric);
        assert!(line.contains("(fired 1 time, anchors evicted)"), "{line}");
        assert!(!line.contains("never fired"), "{line}");
        let shed = report
            .delta(InterventionClass::ComposeShed)
            .expect("probed");
        let line = shed.headline(&report.metric);
        assert!(line.contains("(never fired)"), "{line}");
    }

    #[test]
    fn delta_json_matches_the_trace_schema() {
        let report = CounterfactualRun::new("utility", Direction::Maximize, toy_outcome)
            .probe(&[InterventionClass::CommsRetry]);
        let d = report.delta(InterventionClass::CommsRetry).expect("probed");
        let j = d.to_json(&report.metric);
        for key in [
            "class",
            "metric",
            "factual",
            "counterfactual",
            "benefit",
            "fires",
            "events",
            "anchor_tick",
            "anchor_action",
            "log_dropped",
            "truncated",
        ] {
            assert!(j.get(key).is_some(), "missing key {key}");
        }
        assert_eq!(j.get("class").and_then(Json::as_str), Some("comms-retry"));
        assert_eq!(j.get("fires").and_then(Json::as_num), Some(2.0));
    }
}
