//! Deterministic discrete-event scheduler with sparse activation.
//!
//! [`SimScheduler`] promotes the calendar-queue machinery of
//! [`crate::delivery::DeliveryQueue`] into a *main-loop* primitive:
//! instead of visiting every entity every tick, a simulator registers
//! **wakes** — `(tick, class, entity)` triples — and each tick visits
//! only the entities with a due wake.
//! An entity is woken when
//!
//! * a previously scheduled event falls due ([`SimScheduler::wake_at`]
//!   — fault onsets, churn transitions, timer expiries), or
//! * one of its inputs changed this tick
//!   ([`SimScheduler::wake_on_input`] — a request arrived, an object
//!   entered its field of view).
//!
//! ## Ordering contract
//!
//! Wakes are delivered in `(tick, class, FIFO seq)` order. The class
//! byte is a *priority class* (lower fires first within a tick) so a
//! simulator can pin, e.g., fault application before entity visits;
//! the FIFO sequence makes simultaneous same-class wakes fire in
//! scheduling order regardless of heap internals. Because the delivery
//! order is a pure function of the schedule calls — never of worker
//! count or timing — sparse runs preserve the workspace's
//! seq-vs-parallel bit-identity contract.
//!
//! ## Same-tick budget
//!
//! A handler that re-schedules a wake at `now` from inside the drain
//! loop would otherwise spin forever. Each scheduler carries a
//! per-tick same-tick delivery budget
//! ([`DEFAULT_SAME_TICK_BUDGET`], overridable via
//! [`SimScheduler::with_same_tick_budget`]); exceeding it panics in
//! debug builds and, in release builds, sheds the wake, emits a
//! `sched_shed` record through [`crate::obs`], and terminates the
//! drain (the shed is visible in [`SimScheduler::shed_count`]).
//!
//! ## Parity comparison
//!
//! Like `DeliveryQueue`'s pool-exclusive equality, `SimScheduler`'s
//! [`PartialEq`] compares *delivery order* — the `(tick, class, key)`
//! sequence the heap would drain — while ignoring the absolute values
//! of the internal FIFO counter, so two schedulers that went through
//! different scheduling histories but will behave identically compare
//! equal.
//!
//! # Example
//!
//! ```
//! use simkernel::sched::SimScheduler;
//! use simkernel::Tick;
//!
//! let mut s: SimScheduler<&str> = SimScheduler::new();
//! s.wake_at(Tick(5), 1, "camera-3");
//! s.wake_at(Tick(5), 0, "fault");
//! s.wake_at(Tick(2), 1, "node-7");
//! assert_eq!(s.next_wake(), Some(Tick(2)));
//! assert_eq!(s.pop_due(Tick(2)), Some((Tick(2), 1, "node-7")));
//! assert_eq!(s.pop_due(Tick(2)), None); // nothing else due yet
//! // At t5 the class-0 fault wake outranks the class-1 visit.
//! assert_eq!(s.pop_due(Tick(5)), Some((Tick(5), 0, "fault")));
//! assert_eq!(s.pop_due(Tick(5)), Some((Tick(5), 1, "camera-3")));
//! ```

use crate::clock::Tick;
use crate::obs;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Default per-tick same-tick delivery budget. Generous — real worlds
/// deliver a handful of wakes per entity per tick — while still
/// bounding a same-tick re-schedule loop to one tick's worth of work.
pub const DEFAULT_SAME_TICK_BUDGET: u64 = 1 << 20;

#[derive(Debug, Clone)]
struct Wake<K> {
    at: Tick,
    class: u8,
    seq: u64,
    key: K,
}

impl<K> PartialEq for Wake<K> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.class == other.class && self.seq == other.seq
    }
}
impl<K> Eq for Wake<K> {}

impl<K> Ord for Wake<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first, then
        // priority class, then FIFO among simultaneous same-class
        // wakes.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.class.cmp(&self.class))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<K> PartialOrd for Wake<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic sparse-activation wake queue (see module docs).
#[derive(Debug, Clone)]
pub struct SimScheduler<K> {
    heap: BinaryHeap<Wake<K>>,
    next_seq: u64,
    now: Tick,
    fired_at: Tick,
    fired: u64,
    budget: u64,
    shed: u64,
}

impl<K> SimScheduler<K> {
    /// Creates an empty scheduler at time zero with the default
    /// same-tick budget.
    #[must_use]
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Tick::ZERO,
            fired_at: Tick::ZERO,
            fired: 0,
            budget: DEFAULT_SAME_TICK_BUDGET,
            shed: 0,
        }
    }

    /// Replaces the per-tick same-tick delivery budget (min 1).
    #[must_use]
    pub fn with_same_tick_budget(mut self, budget: u64) -> Self {
        self.budget = budget.max(1);
        self
    }

    /// Current scheduler time (the largest tick passed to
    /// [`SimScheduler::pop_due`] or [`SimScheduler::advance`]).
    #[must_use]
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Advances scheduler time without draining (monotone; calling
    /// with a past tick is a no-op).
    pub fn advance(&mut self, to: Tick) {
        if to > self.now {
            self.now = to;
        }
    }

    /// Schedules a wake for entity `key` at `at` in priority class
    /// `class` (lower classes fire first within a tick). A time in the
    /// past is clamped to `now`.
    pub fn wake_at(&mut self, at: Tick, class: u8, key: K) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Wake {
            at,
            class,
            seq,
            key,
        });
    }

    /// Schedules a wake for entity `key` at the current tick — the
    /// "dirty input" activation: something this entity consumes
    /// changed and it must be visited before the tick ends.
    pub fn wake_on_input(&mut self, class: u8, key: K) {
        self.wake_at(self.now, class, key);
    }

    /// Time of the earliest pending wake, if any.
    #[must_use]
    pub fn next_wake(&self) -> Option<Tick> {
        self.heap.peek().map(|w| w.at)
    }

    /// Time and priority class of the earliest pending wake, if any.
    /// Lets a drain loop stop at a class boundary — e.g. deliver all
    /// due fault-class wakes before the tick's dispatch phase, then
    /// come back for the entity-class wakes.
    #[must_use]
    pub fn peek(&self) -> Option<(Tick, u8)> {
        self.heap.peek().map(|w| (w.at, w.class))
    }

    /// Delivers the next wake due at or before `now`, advancing
    /// scheduler time to `now`. Returns `None` when nothing (more) is
    /// due this tick — the caller's drain loop terminates on it.
    ///
    /// Applies the same-tick budget: past it, debug builds panic
    /// (`debug_assert!`) and release builds shed the wake, emit one
    /// `sched_shed` observability record for the tick, and return
    /// `None`.
    pub fn pop_due(&mut self, now: Tick) -> Option<(Tick, u8, K)> {
        self.advance(now);
        if self.heap.peek().is_none_or(|w| w.at > now) {
            return None;
        }
        let w = self.heap.pop()?;
        if self.fired_at != now {
            self.fired_at = now;
            self.fired = 0;
        }
        self.fired += 1;
        if self.fired > self.budget {
            debug_assert!(
                false,
                "SimScheduler: same-tick wake budget ({}) exceeded at {now} — \
                 a handler is re-scheduling at `now` inside the drain loop",
                self.budget
            );
            self.shed += 1;
            obs::emit(obs::Json::obj([
                ("record", obs::Json::str("sched_shed")),
                ("at", obs::Json::from(now.value())),
                ("budget", obs::Json::from(self.budget)),
                ("shed_total", obs::Json::from(self.shed)),
            ]));
            return None;
        }
        Some((w.at, w.class, w.key))
    }

    /// Wakes shed by the same-tick budget (always 0 in debug builds,
    /// which panic instead).
    #[must_use]
    pub fn shed_count(&self) -> u64 {
        self.shed
    }

    /// Number of pending wakes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no wakes are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending wakes.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<K> Default for SimScheduler<K> {
    fn default() -> Self {
        Self::new()
    }
}

/// Seq-counter-exclusive equality: two schedulers are equal when they
/// are at the same time and would deliver the same `(tick, class,
/// key)` sequence, regardless of absolute FIFO counter values (the
/// same idiom as `DeliveryQueue`'s pool-exclusive equality).
impl<K: PartialEq> PartialEq for SimScheduler<K> {
    fn eq(&self, other: &Self) -> bool {
        if self.now != other.now || self.heap.len() != other.heap.len() {
            return false;
        }
        let order =
            |a: &&Wake<K>, b: &&Wake<K>| (a.at, a.class, a.seq).cmp(&(b.at, b.class, b.seq));
        let mut mine: Vec<&Wake<K>> = self.heap.iter().collect();
        let mut theirs: Vec<&Wake<K>> = other.heap.iter().collect();
        mine.sort_unstable_by(order);
        theirs.sort_unstable_by(order);
        mine.iter()
            .zip(&theirs)
            .all(|(a, b)| a.at == b.at && a.class == b.class && a.key == b.key)
    }
}

/// How a substrate's main loop visits its entities.
///
/// Every DES-ported simulator keeps its legacy dense loop selectable
/// so the sparse path can be equivalence-tested against it: the two
/// modes must produce **bit-identical** simulation metrics (they share
/// every RNG draw site), differing only in wall-clock and visit
/// counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DriveMode {
    /// Visit every entity every tick (the legacy time-stepped loop).
    Dense,
    /// Visit only entities with a due wake — a pending scheduled event
    /// or a dirty input ([`SimScheduler::wake_on_input`]).
    #[default]
    Sparse,
}

/// Activation accounting a DES substrate reports next to its metrics.
///
/// These are *performance* counters, deliberately kept out of the
/// simulation `MetricSet`: dense and sparse runs of the same scenario
/// produce identical metrics but very different visit counts, and the
/// dense-vs-sparse parity tests compare metrics only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ActivationStats {
    /// Entity visits actually performed (dense: one per entity per
    /// tick; sparse: one per delivered entity wake).
    pub visits: u64,
    /// Wakes delivered by the scheduler (0 in dense mode except fault
    /// wakes, which both modes schedule).
    pub wakes: u64,
    /// Logical entity-ticks in the scenario (`entities × steps`) — the
    /// denominator for wall-clock-per-entity-tick, identical across
    /// modes.
    pub entity_ticks: u64,
    /// Wakes shed by the same-tick budget (release builds only).
    pub shed: u64,
}

/// O(1)-per-mark wake de-duplication for dirty-input activation.
///
/// Several inputs of one entity often change in the same tick (two
/// objects enter one camera's neighbourhood); scheduling one wake per
/// change would multiply the drain work. `WakeDedup` remembers the
/// last tick each entity was marked for, so the caller schedules a
/// wake only on the first mark per `(entity, tick)`.
///
/// # Example
///
/// ```
/// use simkernel::sched::WakeDedup;
/// use simkernel::Tick;
///
/// let mut d = WakeDedup::new(4);
/// assert!(d.mark(2, Tick(7)));  // first mark this tick: schedule
/// assert!(!d.mark(2, Tick(7))); // already marked: skip
/// assert!(d.mark(2, Tick(8)));  // new tick: schedule again
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WakeDedup {
    // Last marked tick per entity; u64::MAX = never marked (a wake at
    // Tick(u64::MAX) itself is not meaningful — horizons are finite).
    stamp: Vec<u64>,
}

impl WakeDedup {
    /// A dedup table over `entities` entity ids, all unmarked.
    #[must_use]
    pub fn new(entities: usize) -> Self {
        Self {
            stamp: vec![u64::MAX; entities],
        }
    }

    /// Marks entity `id` for tick `at`; returns `true` when this is
    /// the first mark for that `(entity, tick)` — i.e. the caller
    /// should schedule the wake.
    pub fn mark(&mut self, id: usize, at: Tick) -> bool {
        debug_assert!(at.value() != u64::MAX, "Tick(u64::MAX) is reserved");
        match self.stamp.get_mut(id) {
            Some(s) if *s != at.value() => {
                *s = at.value();
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_tick_class_seq_order() {
        let mut s = SimScheduler::new();
        s.wake_at(Tick(3), 1, "b");
        s.wake_at(Tick(3), 0, "a");
        s.wake_at(Tick(1), 2, "c");
        s.wake_at(Tick(3), 1, "d");
        assert_eq!(s.pop_due(Tick(3)), Some((Tick(1), 2, "c")));
        assert_eq!(s.pop_due(Tick(3)), Some((Tick(3), 0, "a")));
        assert_eq!(s.pop_due(Tick(3)), Some((Tick(3), 1, "b")));
        assert_eq!(s.pop_due(Tick(3)), Some((Tick(3), 1, "d")));
        assert_eq!(s.pop_due(Tick(3)), None);
    }

    #[test]
    fn pop_due_respects_now_and_next_wake() {
        let mut s = SimScheduler::new();
        s.wake_at(Tick(10), 0, 42usize);
        assert_eq!(s.next_wake(), Some(Tick(10)));
        assert_eq!(s.pop_due(Tick(9)), None);
        assert_eq!(s.pop_due(Tick(10)), Some((Tick(10), 0, 42)));
        assert!(s.is_empty());
        assert_eq!(s.next_wake(), None);
    }

    #[test]
    fn wake_on_input_fires_this_tick_and_past_wakes_clamp() {
        let mut s = SimScheduler::new();
        s.advance(Tick(5));
        s.wake_on_input(1, "dirty");
        s.wake_at(Tick(2), 0, "late"); // in the past: clamps to now
        assert_eq!(s.pop_due(Tick(5)), Some((Tick(5), 0, "late")));
        assert_eq!(s.pop_due(Tick(5)), Some((Tick(5), 1, "dirty")));
    }

    #[test]
    fn eq_ignores_absolute_seq_values() {
        let mut a = SimScheduler::new();
        a.wake_at(Tick(1), 0, "x"); // consumed: bumps a's counter
        assert!(a.pop_due(Tick(1)).is_some());
        a.advance(Tick::ZERO); // no-op; time stays at 1
        let mut b = SimScheduler::new();
        b.advance(Tick(1));
        a.wake_at(Tick(4), 1, "y");
        b.wake_at(Tick(4), 1, "y");
        a.wake_at(Tick(4), 1, "z");
        b.wake_at(Tick(4), 1, "z");
        assert_eq!(a, b); // different seq counters, same delivery order
        b.wake_at(Tick(5), 0, "w");
        assert_ne!(a, b);
    }

    #[test]
    fn eq_detects_different_same_tick_order() {
        let mut a = SimScheduler::new();
        a.wake_at(Tick(2), 0, "first");
        a.wake_at(Tick(2), 0, "second");
        let mut b = SimScheduler::new();
        b.wake_at(Tick(2), 0, "second");
        b.wake_at(Tick(2), 0, "first");
        assert_ne!(a, b);
    }

    #[test]
    fn clone_preserves_delivery_order() {
        let mut a = SimScheduler::new();
        for i in 0..50u32 {
            a.wake_at(Tick(u64::from(i % 7)), (i % 3) as u8, i);
        }
        let mut b = a.clone();
        assert_eq!(a, b);
        loop {
            let x = a.pop_due(Tick(100));
            assert_eq!(x, b.pop_due(Tick(100)));
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "same-tick wake budget")]
    fn same_tick_reschedule_panics_in_debug() {
        let mut s = SimScheduler::new().with_same_tick_budget(16);
        s.wake_at(Tick(1), 0, 0usize);
        // A pathological handler: every delivery re-schedules at now.
        while let Some((_, _, k)) = s.pop_due(Tick(1)) {
            s.wake_on_input(0, k);
        }
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn same_tick_reschedule_sheds_in_release() {
        let mut s = SimScheduler::new().with_same_tick_budget(16);
        s.wake_at(Tick(1), 0, 0usize);
        let mut delivered = 0u64;
        while let Some((_, _, k)) = s.pop_due(Tick(1)) {
            delivered += 1;
            s.wake_on_input(0, k);
        }
        assert_eq!(delivered, 16);
        assert_eq!(s.shed_count(), 1);
        // The next tick proceeds normally.
        assert!(s.pop_due(Tick(2)).is_some());
    }

    #[test]
    fn budget_resets_each_tick() {
        let mut s = SimScheduler::new().with_same_tick_budget(4);
        for t in 1..=10u64 {
            for i in 0..4usize {
                s.wake_at(Tick(t), 0, i);
            }
        }
        let mut n = 0;
        for t in 1..=10u64 {
            while s.pop_due(Tick(t)).is_some() {
                n += 1;
            }
        }
        assert_eq!(n, 40);
        assert_eq!(s.shed_count(), 0);
    }

    #[test]
    fn dedup_marks_once_per_tick() {
        let mut d = WakeDedup::new(3);
        assert!(d.mark(0, Tick(1)));
        assert!(!d.mark(0, Tick(1)));
        assert!(d.mark(1, Tick(1)));
        assert!(d.mark(0, Tick(2)));
        assert!(!d.mark(9, Tick(2))); // out of range: never schedules
    }
}
