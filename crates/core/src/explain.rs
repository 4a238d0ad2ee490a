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
//! An [`Explanation`] is a typed record of one decision: its kind, the
//! intervention class it anchors (if any), what it is about, and the
//! evidence (factor values the agent believed at decision time). It
//! allocates nothing; the readable action label is built only when a
//! record is exported. The [`ExplanationLog`] retains a bounded
//! history an operator can query, and keeps the exact count of
//! interventions fired per class that a bounded history cannot.

use crate::replay::InterventionClass;
use serde::{Deserialize, Serialize};
use simkernel::obs::Json;
use simkernel::Tick;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// The most evidence factors one [`Explanation`] holds.
pub const MAX_FACTORS: usize = 4;

/// What an [`Explanation`] is about, beyond its kind.
#[derive(Debug, Clone, PartialEq)]
pub enum Subject {
    /// Nothing further: the kind says it all (`ladder:shed`).
    None,
    /// A directed link, appended to the kind: `comms:retry:3->0`.
    Link(usize, usize),
    /// A named component, shared with its owner so recording clones a
    /// pointer, not the name. It follows the kind's first segment:
    /// kind `supervise:rollback` on `m` reads `supervise:m:rollback`,
    /// kind `quarantine` on `cam2` reads `quarantine:cam2`.
    Name(Arc<str>),
}

/// A record of why an action was chosen.
///
/// # Example
///
/// ```
/// use selfaware::explain::Explanation;
/// use selfaware::replay::InterventionClass;
/// use simkernel::Tick;
///
/// let e = Explanation::new(Tick(10), "comms:retry")
///     .anchoring(InterventionClass::CommsRetry)
///     .link(3, 0)
///     .because("attempt", 1.0)
///     .because("backoff", 4.0);
/// assert_eq!(e.action(), "comms:retry:3->0");
/// assert_eq!(
///     e.to_string(),
///     "t10: chose `comms:retry:3->0` because attempt=1, backoff=4"
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Explanation {
    /// Decision time.
    pub at: Tick,
    /// What was decided, e.g. `comms:retry` or `ladder:shed`.
    pub kind: &'static str,
    /// The intervention class this record anchors for counterfactual
    /// replay, or `None` for a record no class is attributed to.
    pub class: Option<InterventionClass>,
    /// What the decision was about.
    pub subject: Subject,
    factors: [(&'static str, f64); MAX_FACTORS],
    factor_count: u8,
}

impl Explanation {
    /// Starts an explanation of kind `kind` at time `at`, anchoring no
    /// class and about no subject.
    #[must_use]
    pub fn new(at: Tick, kind: &'static str) -> Self {
        Self {
            at,
            kind,
            class: None,
            subject: Subject::None,
            factors: [("", 0.0); MAX_FACTORS],
            factor_count: 0,
        }
    }

    /// Marks the record as an anchor of intervention `class` (builder
    /// style).
    #[must_use]
    pub fn anchoring(mut self, class: InterventionClass) -> Self {
        self.class = Some(class);
        self
    }

    /// Sets the subject to the link `src -> dst` (builder style).
    #[must_use]
    pub fn link(mut self, src: usize, dst: usize) -> Self {
        self.subject = Subject::Link(src, dst);
        self
    }

    /// Sets the subject to the shared name `name` (builder style).
    #[must_use]
    pub fn named(mut self, name: &Arc<str>) -> Self {
        self.subject = Subject::Name(Arc::clone(name));
        self
    }

    /// Adds an evidence factor (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the record already holds [`MAX_FACTORS`] factors.
    #[must_use]
    pub fn because(mut self, name: &'static str, value: f64) -> Self {
        let slot = self
            .factors
            .get_mut(usize::from(self.factor_count))
            .expect("an explanation holds at most MAX_FACTORS factors");
        *slot = (name, value);
        self.factor_count += 1;
        self
    }

    /// The evidence factors, in the order they were added.
    #[must_use]
    pub fn factors(&self) -> &[(&'static str, f64)] {
        &self.factors[..usize::from(self.factor_count)]
    }

    /// The action label: the kind with its subject, e.g.
    /// `comms:retry:3->0` or `supervise:city-routing:rollback`.
    #[must_use]
    pub fn action(&self) -> String {
        let mut out = String::new();
        // Writing into a `String` cannot fail.
        let _ = self.write_action(&mut out);
        out
    }

    fn write_action(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match &self.subject {
            Subject::None => out.write_str(self.kind),
            Subject::Link(src, dst) => write!(out, "{}:{src}->{dst}", self.kind),
            Subject::Name(name) => match self.kind.split_once(':') {
                Some((head, tail)) => write!(out, "{head}:{name}:{tail}"),
                None => write!(out, "{}:{name}", self.kind),
            },
        }
    }

    /// Structured export for run traces (see [`simkernel::obs`]):
    /// `{tick, action, factors: [[name, value]…]}`, with `factors`
    /// omitted when empty so records stay compact.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("tick".to_owned(), Json::from(self.at.0)),
            ("action".to_owned(), Json::str(self.action())),
        ];
        if self.factor_count > 0 {
            pairs.push((
                "factors".to_owned(),
                Json::Arr(
                    self.factors()
                        .iter()
                        .map(|&(name, value)| Json::Arr(vec![Json::from(name), Json::from(value)]))
                        .collect(),
                ),
            ));
        }
        Json::Obj(pairs)
    }
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: chose `", self.at)?;
        self.write_action(f)?;
        f.write_str("`")?;
        for (i, &(name, value)) in self.factors().iter().enumerate() {
            let sep = if i == 0 { " because " } else { ", " };
            write!(f, "{sep}{name}={}", trim_float(value))?;
        }
        Ok(())
    }
}

fn trim_float(v: f64) -> String {
    let s = format!("{v:.2}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

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
/// an intervention changes what the system does. It never evicts and
/// allocates nothing, so it is the exact record of what fired that the
/// ring's anchors are not (see [`crate::replay`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExplanationLog {
    entries: VecDeque<Explanation>,
    capacity: usize,
    recorded: u64,
    dropped: u64,
    fires: [u64; InterventionClass::ALL.len()],
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
            fires: [0; InterventionClass::ALL.len()],
        }
    }

    /// Counts one fire of intervention `class` in the ledger. Call it
    /// exactly where the intervention changes the run: where the
    /// allowed branch does something the suppressed branch would not.
    pub fn fired(&mut self, class: InterventionClass) {
        self.fires[class.index()] += 1;
    }

    /// Lifetime count of `class` fires (see [`ExplanationLog::fired`]).
    #[must_use]
    pub fn fires(&self, class: InterventionClass) -> u64 {
        self.fires[class.index()]
    }

    /// Appends an explanation, evicting the oldest retained entry (and
    /// counting it as dropped) once the ring is full. Allocates nothing:
    /// the ring's storage is reserved up front.
    pub fn record(&mut self, e: Explanation) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(e);
        self.recorded += 1;
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

    fn sample(t: u64) -> Explanation {
        Explanation::new(Tick(t), "scale-up").because("load", 0.5)
    }

    #[test]
    fn builder_collects_everything() {
        let name: Arc<str> = Arc::from("m");
        let e = sample(3)
            .anchoring(InterventionClass::SupervisorRollback)
            .named(&name);
        assert_eq!(e.at, Tick(3));
        assert_eq!(e.kind, "scale-up");
        assert_eq!(e.class, Some(InterventionClass::SupervisorRollback));
        assert_eq!(e.subject, Subject::Name(name));
        assert_eq!(e.factors(), &[("load", 0.5)]);
    }

    #[test]
    fn display_is_readable() {
        let s = sample(3).to_string();
        assert_eq!(s, "t3: chose `scale-up` because load=0.5");
    }

    #[test]
    fn display_minimal() {
        let s = Explanation::new(Tick(0), "hold").to_string();
        assert_eq!(s, "t0: chose `hold`");
    }

    /// One record of each of the 21 kinds the workspace writes, with the
    /// exact `Display` and `to_json` text the run traces depend on.
    #[test]
    fn every_kind_renders_its_action_label_and_factors() {
        use InterventionClass as C;
        let sup: Arc<str> = Arc::from("city-routing");
        let cam: Arc<str> = Arc::from("cam2");
        let e = |at, kind| Explanation::new(Tick(at), kind);
        #[rustfmt::skip]
        let cases = [
            (e(412, "comms:retry").anchoring(C::CommsRetry).link(3, 0).because("seq", 17.0).because("attempt", 1.0).because("backoff", 4.0),
             "t412: chose `comms:retry:3->0` because seq=17, attempt=1, backoff=4",
             r#"{"tick":412,"action":"comms:retry:3->0","factors":[["seq",17],["attempt",1],["backoff",4]]}"#),
            (e(950, "ladder:throttle").anchoring(C::ComposeThrottle).because("zone", 2.0).because("on", 1.0).because("believed_backlog", 37.0).because("backlog_slope", -1.375),
             "t950: chose `ladder:throttle` because zone=2, on=1, believed_backlog=37, backlog_slope=-1.38",
             r#"{"tick":950,"action":"ladder:throttle","factors":[["zone",2],["on",1],["believed_backlog",37],["backlog_slope",-1.375]]}"#),
            (e(1003, "comms:expire").link(4, 1).because("seq", 88.0).because("attempts", 6.0).because("age", 61.0).because("out_of_budget", 1.0),
             "t1003: chose `comms:expire:4->1` because seq=88, attempts=6, age=61, out_of_budget=1",
             r#"{"tick":1003,"action":"comms:expire:4->1","factors":[["seq",88],["attempts",6],["age",61],["out_of_budget",1]]}"#),
            (e(1204, "ladder:shed").anchoring(C::ComposeShed).because("level", 2.0).because("pressure", 1840.0),
             "t1204: chose `ladder:shed` because level=2, pressure=1840",
             r#"{"tick":1204,"action":"ladder:shed","factors":[["level",2],["pressure",1840]]}"#),
            (e(1210, "comms:reissue").anchoring(C::CommsReissue).link(4, 2).because("on", 1.0),
             "t1210: chose `comms:reissue:4->2` because on=1",
             r#"{"tick":1210,"action":"comms:reissue:4->2","factors":[["on",1]]}"#),
            (e(377, "quarantine").anchoring(C::SensorQuarantine).named(&cam).because("variance_ratio", 12.3456).because("residual", 0.0421).because("predicted", 0.5),
             "t377: chose `quarantine:cam2` because variance_ratio=12.35, residual=0.04, predicted=0.5",
             r#"{"tick":377,"action":"quarantine:cam2","factors":[["variance_ratio",12.3456],["residual",0.0421],["predicted",0.5]]}"#),
            (e(640, "restore").named(&cam).because("agree_streak", 8.0),
             "t640: chose `restore:cam2` because agree_streak=8",
             r#"{"tick":640,"action":"restore:cam2","factors":[["agree_streak",8]]}"#),
            (e(801, "supervise:warn").named(&sup).because("divergence", 4.56789),
             "t801: chose `supervise:city-routing:warn` because divergence=4.57",
             r#"{"tick":801,"action":"supervise:city-routing:warn","factors":[["divergence",4.56789]]}"#),
            (e(812, "supervise:rollback").anchoring(C::SupervisorRollback).named(&sup).because("oscillation", 0.004),
             "t812: chose `supervise:city-routing:rollback` because oscillation=0",
             r#"{"tick":812,"action":"supervise:city-routing:rollback","factors":[["oscillation",0.004]]}"#),
            (e(830, "supervise:fallback").anchoring(C::SupervisorFallback).named(&sup).because("non-finite", f64::INFINITY),
             "t830: chose `supervise:city-routing:fallback` because non-finite=inf",
             r#"{"tick":830,"action":"supervise:city-routing:fallback","factors":[["non-finite",null]]}"#),
            (e(1490, "supervise:repromote").anchoring(C::SupervisorRepromote).named(&sup).because("quiet-ticks", 25.0),
             "t1490: chose `supervise:city-routing:repromote` because quiet-ticks=25",
             r#"{"tick":1490,"action":"supervise:city-routing:repromote","factors":[["quiet-ticks",25]]}"#),
            (e(1100, "supervise:probe-fail").named(&sup).because("stall", f64::NAN).because("next-backoff", 400.0),
             "t1100: chose `supervise:city-routing:probe-fail` because stall=NaN, next-backoff=400",
             r#"{"tick":1100,"action":"supervise:city-routing:probe-fail","factors":[["stall",null],["next-backoff",400]]}"#),
            (e(1500, "ladder:rehome").anchoring(C::ComposeRehome).because("zones", 1.0),
             "t1500: chose `ladder:rehome` because zones=1",
             r#"{"tick":1500,"action":"ladder:rehome","factors":[["zones",1]]}"#),
            (e(1499, "ladder:zone-dark").because("zone", 3.0).because("probe_failures", 3.0).because("bounce_evidence", 41.5),
             "t1499: chose `ladder:zone-dark` because zone=3, probe_failures=3, bounce_evidence=41.5",
             r#"{"tick":1499,"action":"ladder:zone-dark","factors":[["zone",3],["probe_failures",3],["bounce_evidence",41.5]]}"#),
            (e(1300, "comms:partition").link(0, 3).because("src", 0.0).because("dst", 3.0),
             "t1300: chose `comms:partition:0->3` because src=0, dst=3",
             r#"{"tick":1300,"action":"comms:partition:0->3","factors":[["src",0],["dst",3]]}"#),
            (e(1700, "comms:heal").link(0, 3).because("src", 0.0).because("dst", 3.0),
             "t1700: chose `comms:heal:0->3` because src=0, dst=3",
             r#"{"tick":1700,"action":"comms:heal:0->3","factors":[["src",0],["dst",3]]}"#),
            (e(120, "live:shed").because("queue", 212.0).because("queue_slope", 9.75).because("cap", 16.0).because("retry_after_ms", 325.125),
             "t120: chose `live:shed` because queue=212, queue_slope=9.75, cap=16, retry_after_ms=325.12",
             r#"{"tick":120,"action":"live:shed","factors":[["queue",212],["queue_slope",9.75],["cap",16],["retry_after_ms",325.125]]}"#),
            (e(180, "live:recover").because("queue", 3.0).because("queue_slope", -0.999).because("cap", 24.0).because("retry_after_ms", 50.0),
             "t180: chose `live:recover` because queue=3, queue_slope=-1, cap=24, retry_after_ms=50",
             r#"{"tick":180,"action":"live:recover","factors":[["queue",3],["queue_slope",-0.999],["cap",24],["retry_after_ms",50]]}"#),
            (e(240, "live:fallback").because("tick", 240.0).because("cap", 8.0),
             "t240: chose `live:fallback` because tick=240, cap=8",
             r#"{"tick":240,"action":"live:fallback","factors":[["tick",240],["cap",8]]}"#),
            (e(900, "live:repromote").because("tick", 900.0).because("cap", 12.0),
             "t900: chose `live:repromote` because tick=900, cap=12",
             r#"{"tick":900,"action":"live:repromote","factors":[["tick",900],["cap",12]]}"#),
            (e(50, "live:poison").because("tick", 50.0),
             "t50: chose `live:poison` because tick=50",
             r#"{"tick":50,"action":"live:poison","factors":[["tick",50]]}"#),
        ];
        for (e, text, json) in cases {
            assert_eq!(e.to_string(), text);
            assert_eq!(e.to_json().render(), json);
        }
    }

    #[test]
    fn log_bounds_capacity() {
        let mut log = ExplanationLog::new(3);
        for t in 0..10 {
            log.record(sample(t));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped_count(), 7);
        assert_eq!(log.latest().unwrap().at, Tick(9));
        let ticks: Vec<u64> = log.iter().map(|e| e.at.value()).collect();
        assert_eq!(ticks, vec![7, 8, 9]);
        let json = log.to_json();
        assert_eq!(json.get("recorded").and_then(Json::as_num), Some(10.0));
    }

    #[test]
    fn ledger_counts_per_class_past_eviction_and_exports() {
        let mut log = ExplanationLog::new(1);
        for t in 0..5 {
            log.fired(InterventionClass::SupervisorRollback);
            log.record(sample(t).anchoring(InterventionClass::SupervisorRollback));
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
