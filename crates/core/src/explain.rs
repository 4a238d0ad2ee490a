//! Self-explanation: reporting the reasons behind action (or
//! inaction).
//!
//! Schubert and Cox (paper Section III) identify self-explanation as a
//! benefit of self-awareness beyond adaptation: "self-aware systems
//! will be able to explain or justify themselves to external entities,
//! such as humans or other systems, based on their self-awareness."
//! The conclusion reiterates it: "a form of reporting in which the
//! reasons behind action (or inaction) are made clear."
//!
//! An [`Explanation`] captures the decision, the evidence (factor
//! values the agent believed at decision time), the expected utility,
//! and the rejected alternatives; the [`ExplanationLog`] retains a
//! bounded history an operator can query, and keeps the exact count
//! of interventions fired per class that a bounded history cannot.

use crate::replay::InterventionClass;
use serde::{Deserialize, Serialize};
use simkernel::obs::Json;
use simkernel::Tick;
use std::collections::VecDeque;
use std::fmt;

/// One piece of evidence behind a decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Factor {
    /// Signal or belief name.
    pub name: String,
    /// Believed value at decision time.
    pub value: f64,
}

/// A considered-but-rejected alternative.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Alternative {
    /// Action label.
    pub action: String,
    /// Its expected utility at decision time.
    pub expected_utility: f64,
}

/// A record of why an action was chosen.
///
/// # Example
///
/// ```
/// use selfaware::explain::Explanation;
/// use simkernel::Tick;
///
/// let e = Explanation::new(Tick(10), "scale-up")
///     .because("load", 0.92)
///     .because("forecast.load", 0.97)
///     .expecting(0.8)
///     .rejected("hold", 0.55);
/// let text = e.to_string();
/// assert!(text.contains("scale-up"));
/// assert!(text.contains("load=0.92"));
/// assert!(text.contains("hold"));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Explanation {
    /// Decision time.
    pub at: Tick,
    /// The chosen action's label.
    pub action: String,
    /// Evidence the decision rested on.
    pub factors: Vec<Factor>,
    /// Expected utility of the chosen action, if computed.
    pub expected_utility: Option<f64>,
    /// Alternatives that were considered and rejected.
    pub alternatives: Vec<Alternative>,
}

impl Explanation {
    /// Starts an explanation for choosing `action` at time `at`.
    #[must_use]
    pub fn new(at: Tick, action: impl Into<String>) -> Self {
        Self {
            at,
            action: action.into(),
            factors: Vec::new(),
            expected_utility: None,
            alternatives: Vec::new(),
        }
    }

    /// Adds an evidence factor (builder style).
    #[must_use]
    pub fn because(mut self, name: impl Into<String>, value: f64) -> Self {
        self.factors.push(Factor {
            name: name.into(),
            value,
        });
        self
    }

    /// Records the expected utility of the choice (builder style).
    #[must_use]
    pub fn expecting(mut self, utility: f64) -> Self {
        self.expected_utility = Some(utility);
        self
    }

    /// Records a rejected alternative (builder style).
    #[must_use]
    pub fn rejected(mut self, action: impl Into<String>, expected_utility: f64) -> Self {
        self.alternatives.push(Alternative {
            action: action.into(),
            expected_utility,
        });
        self
    }

    /// Structured export for run traces (see [`simkernel::obs`]):
    /// `{tick, action, factors: [[name, value]…], expected_utility,
    /// rejected: [[action, utility]…]}`, with the optional fields
    /// omitted when empty so records stay compact.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("tick".to_owned(), Json::from(self.at.0)),
            ("action".to_owned(), Json::str(self.action.clone())),
        ];
        if !self.factors.is_empty() {
            pairs.push((
                "factors".to_owned(),
                Json::Arr(
                    self.factors
                        .iter()
                        .map(|f| Json::Arr(vec![Json::str(f.name.clone()), Json::from(f.value)]))
                        .collect(),
                ),
            ));
        }
        if let Some(u) = self.expected_utility {
            pairs.push(("expected_utility".to_owned(), Json::from(u)));
        }
        if !self.alternatives.is_empty() {
            pairs.push((
                "rejected".to_owned(),
                Json::Arr(
                    self.alternatives
                        .iter()
                        .map(|a| {
                            Json::Arr(vec![
                                Json::str(a.action.clone()),
                                Json::from(a.expected_utility),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        Json::Obj(pairs)
    }
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: chose `{}`", self.at, self.action)?;
        if let Some(u) = self.expected_utility {
            write!(f, " (expected utility {u:.3})")?;
        }
        if !self.factors.is_empty() {
            let fs: Vec<String> = self
                .factors
                .iter()
                .map(|fa| format!("{}={}", fa.name, trim_float(fa.value)))
                .collect();
            write!(f, " because {}", fs.join(", "))?;
        }
        if !self.alternatives.is_empty() {
            let alts: Vec<String> = self
                .alternatives
                .iter()
                .map(|a| format!("`{}` ({:.3})", a.action, a.expected_utility))
                .collect();
            write!(f, "; rejected {}", alts.join(", "))?;
        }
        Ok(())
    }
}

fn trim_float(v: f64) -> String {
    let s = format!("{v:.2}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// Default retention when a log is built via [`Default`].
pub const DEFAULT_LOG_CAPACITY: usize = 1024;

/// A bounded ring buffer of explanations, plus an exact intervention
/// ledger.
///
/// Heavy producers (retry storms in the comms layer, quarantine churn
/// in sensor health) can record far more entries than an operator will
/// ever read back; the ring keeps the most recent `capacity` entries
/// and counts what it had to evict, so memory stays bounded on long
/// lossy runs without losing track of *how much* history is gone.
///
/// The ledger sits outside the ring: one counter per
/// [`InterventionClass`], bumped by [`ExplanationLog::fired`] wherever
/// an intervention changes what the system does. It never evicts,
/// counts while recording is disabled, and allocates nothing, so it
/// is the exact record of what fired that the ring's anchors are not
/// (see [`crate::replay`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExplanationLog {
    entries: VecDeque<Explanation>,
    capacity: usize,
    recorded: u64,
    dropped: u64,
    enabled: bool,
    fires: [u64; InterventionClass::ALL.len()],
}

impl Default for ExplanationLog {
    fn default() -> Self {
        Self::new(DEFAULT_LOG_CAPACITY)
    }
}

impl ExplanationLog {
    /// Creates a log that retains the most recent `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            recorded: 0,
            dropped: 0,
            enabled: true,
            fires: [0; InterventionClass::ALL.len()],
        }
    }

    /// Counts one fire of intervention `class` in the ledger. Call it
    /// exactly where the intervention changes the run: where the
    /// allowed branch does something the suppressed branch would not.
    /// Counts whether or not recording is enabled.
    pub fn fired(&mut self, class: InterventionClass) {
        self.fires[class.index()] += 1;
    }

    /// Lifetime count of `class` fires (see [`ExplanationLog::fired`]).
    #[must_use]
    pub fn fires(&self, class: InterventionClass) -> u64 {
        self.fires[class.index()]
    }

    /// Appends an explanation, evicting the oldest retained entry (and
    /// counting it as dropped) once the ring is full. A no-op (nothing
    /// retained, nothing counted) while the log is disabled.
    pub fn record(&mut self, e: Explanation) {
        if !self.enabled {
            return;
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(e);
        self.recorded += 1;
    }

    /// Builds and appends an explanation only when the log is enabled.
    ///
    /// Hot paths pay for explanation text (`format!`, factor vectors)
    /// even when no operator will ever read it; routing construction
    /// through a closure makes the disabled path allocation-free while
    /// keeping the recorded entry byte-identical when enabled.
    pub fn record_with(&mut self, make: impl FnOnce() -> Explanation) {
        if self.enabled {
            self.record(make());
        }
    }

    /// Turns recording on or off (on by default). While disabled,
    /// [`ExplanationLog::record`] and [`ExplanationLog::record_with`]
    /// do nothing; retained entries and counters are left untouched,
    /// and the ledger keeps counting.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether the log is currently recording.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Changes the retention bound in place, evicting oldest entries
    /// (counted as dropped) if the new bound is smaller.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn resize(&mut self, capacity: usize) {
        assert!(capacity > 0, "capacity must be positive");
        while self.entries.len() > capacity {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.capacity = capacity;
    }

    /// The retention bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lifetime count of entries evicted to honour the bound.
    #[must_use]
    pub fn dropped_count(&self) -> u64 {
        self.dropped
    }

    /// The most recent explanation, if any.
    #[must_use]
    pub fn latest(&self) -> Option<&Explanation> {
        self.entries.back()
    }

    /// Retained explanations, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Explanation> {
        self.entries.iter()
    }

    /// Number of retained entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime count of recorded explanations (including evicted).
    #[must_use]
    pub fn recorded_count(&self) -> u64 {
        self.recorded
    }

    /// Explanations whose action label contains `needle`.
    #[must_use]
    pub fn find_by_action(&self, needle: &str) -> Vec<&Explanation> {
        self.entries
            .iter()
            .filter(|e| e.action.contains(needle))
            .collect()
    }

    /// Structured export for run traces (see [`simkernel::obs`]):
    /// `{recorded, dropped, fires: {<class>: n…}, entries: […]}` with
    /// entries oldest first. Everything the ring retains, plus the
    /// counters that say how much lifetime history the bounded buffer
    /// evicted — so an artifact reader knows whether it is looking at
    /// the whole story or its tail — and the exact ledger, keyed by
    /// class label.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("recorded", Json::from(self.recorded)),
            ("dropped", Json::from(self.dropped)),
            (
                "fires",
                Json::obj(InterventionClass::ALL.map(|c| (c.label(), Json::from(self.fires(c))))),
            ),
            (
                "entries",
                Json::Arr(self.entries.iter().map(Explanation::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: u64, action: &str) -> Explanation {
        Explanation::new(Tick(t), action)
            .because("load", 0.5)
            .expecting(0.7)
            .rejected("other", 0.3)
    }

    #[test]
    fn builder_collects_everything() {
        let e = sample(3, "act");
        assert_eq!(e.at, Tick(3));
        assert_eq!(e.action, "act");
        assert_eq!(e.factors.len(), 1);
        assert_eq!(e.expected_utility, Some(0.7));
        assert_eq!(e.alternatives.len(), 1);
    }

    #[test]
    fn display_is_readable() {
        let s = sample(3, "scale-up").to_string();
        assert!(s.starts_with("t3: chose `scale-up`"));
        assert!(s.contains("expected utility 0.700"));
        assert!(s.contains("load=0.5"));
        assert!(s.contains("rejected `other` (0.300)"));
    }

    #[test]
    fn display_minimal() {
        let s = Explanation::new(Tick(0), "hold").to_string();
        assert_eq!(s, "t0: chose `hold`");
    }

    #[test]
    fn log_bounds_capacity() {
        let mut log = ExplanationLog::new(3);
        for t in 0..10 {
            log.record(sample(t, "a"));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.recorded_count(), 10);
        assert_eq!(log.dropped_count(), 7);
        assert_eq!(log.latest().unwrap().at, Tick(9));
        let ticks: Vec<u64> = log.iter().map(|e| e.at.value()).collect();
        assert_eq!(ticks, vec![7, 8, 9]);
    }

    #[test]
    fn default_log_is_bounded() {
        let mut log = ExplanationLog::default();
        assert_eq!(log.capacity(), DEFAULT_LOG_CAPACITY);
        for t in 0..2 * DEFAULT_LOG_CAPACITY as u64 {
            log.record(sample(t, "a"));
        }
        assert_eq!(log.len(), DEFAULT_LOG_CAPACITY);
        assert_eq!(log.dropped_count(), DEFAULT_LOG_CAPACITY as u64);
    }

    #[test]
    fn resize_shrinks_and_grows() {
        let mut log = ExplanationLog::new(8);
        for t in 0..8 {
            log.record(sample(t, "a"));
        }
        log.resize(3);
        assert_eq!(log.len(), 3);
        assert_eq!(log.capacity(), 3);
        assert_eq!(log.dropped_count(), 5);
        let ticks: Vec<u64> = log.iter().map(|e| e.at.value()).collect();
        assert_eq!(ticks, vec![5, 6, 7]);
        log.resize(10);
        for t in 8..15 {
            log.record(sample(t, "a"));
        }
        assert_eq!(log.len(), 10);
    }

    #[test]
    fn find_by_action_filters() {
        let mut log = ExplanationLog::new(10);
        log.record(sample(1, "scale-up"));
        log.record(sample(2, "scale-down"));
        log.record(sample(3, "hold"));
        assert_eq!(log.find_by_action("scale").len(), 2);
        assert_eq!(log.find_by_action("hold").len(), 1);
        assert!(log.find_by_action("reboot").is_empty());
    }

    #[test]
    fn disabled_log_records_nothing_and_reenables() {
        let mut log = ExplanationLog::new(4);
        assert!(log.is_enabled());
        log.record(sample(0, "kept"));
        log.set_enabled(false);
        log.record(sample(1, "dropped-eager"));
        let mut built = false;
        log.record_with(|| {
            built = true;
            sample(2, "dropped-lazy")
        });
        assert!(!built, "record_with must not build while disabled");
        assert_eq!(log.len(), 1);
        assert_eq!(log.recorded_count(), 1);
        // The ledger counts while recording is off.
        log.fired(InterventionClass::CommsRetry);
        assert_eq!(log.fires(InterventionClass::CommsRetry), 1);
        log.set_enabled(true);
        log.record_with(|| sample(3, "kept-lazy"));
        assert_eq!(log.len(), 2);
        assert_eq!(log.latest().unwrap().action, "kept-lazy");
    }

    #[test]
    fn ledger_counts_per_class_past_eviction_and_exports() {
        let mut log = ExplanationLog::new(1);
        for t in 0..5 {
            log.fired(InterventionClass::SupervisorRollback);
            log.record(sample(t, "supervise:m:rollback"));
        }
        assert_eq!(log.dropped_count(), 4);
        assert_eq!(log.fires(InterventionClass::SupervisorRollback), 5);
        assert_eq!(log.fires(InterventionClass::ComposeShed), 0);
        let fires = log.to_json();
        let fires = fires.get("fires").expect("ledger exported");
        for c in InterventionClass::ALL {
            let want = if c == InterventionClass::SupervisorRollback {
                5.0
            } else {
                0.0
            };
            assert_eq!(fires.get(c.label()).and_then(Json::as_num), Some(want));
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = ExplanationLog::new(0);
    }

    #[test]
    fn empty_log() {
        let log = ExplanationLog::new(4);
        assert!(log.is_empty());
        assert!(log.latest().is_none());
    }

    #[test]
    fn trim_float_output() {
        assert_eq!(trim_float(0.50), "0.5");
        assert_eq!(trim_float(2.00), "2");
        assert_eq!(trim_float(1.25), "1.25");
    }
}
