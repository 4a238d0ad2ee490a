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
//! scheduling order. Because the delivery order is a pure function of
//! the schedule calls — never of worker count or timing — sparse runs
//! preserve the workspace's seq-vs-parallel bit-identity contract.
//!
//! ## Timing wheel
//!
//! The scheduler keeps a tick `cur` at which every pending wake is due
//! or later, and holds each wake in one of three tiers:
//!
//! 1. **Due**: wakes at `cur`, one FIFO per priority class. A 256-bit
//!    mask finds the lowest non-empty class, so a pop is O(1).
//! 2. **Wheel**: wakes in the next `WINDOW - 1` ticks (32,767), one
//!    FIFO per tick in a ring indexed by `tick % WINDOW`. A 512-word
//!    occupancy bitmap finds the next tick that has wakes; the
//!    earliest such tick and each tick's lowest class are kept, so
//!    [`SimScheduler::peek`] and [`SimScheduler::next_wake`] never
//!    walk a list or scan the ring.
//! 3. **Far**: wakes `WINDOW` or more ticks ahead wait in a
//!    `BinaryHeap` ordered by `(tick, class, seq)`.
//!
//! `cur` moves only when nothing is due at it, to the earliest pending
//! tick or to the time the caller reached, whichever comes first. A
//! move empties the new tick's wheel list into the due FIFOs (stably,
//! by class) and hands every far wake whose tick has entered the
//! window to the wheel, in heap order. So a drain that jumps past
//! undrained ticks still delivers their wakes first, each with its own
//! tick.
//!
//! Why the order holds: a far wake's tick was outside the window when
//! it was scheduled, so it was scheduled before any wake that went
//! straight to that tick's wheel list — those can only be scheduled
//! once the window covers the tick, and the hand-over happens at the
//! very move that makes it so. Each tick's list therefore receives the
//! heap's wakes in `(class, seq)` order first and direct pushes after,
//! which leaves every class's wakes in `seq` order; splitting the list
//! by class keeps that order, and pushes at `cur` append behind it.
//!
//! All due and wheel wakes live in one arena of nodes linked by `u32`
//! indices, with freed nodes reused; a tick or a class keeps only a
//! head/tail pair. Per-tick vectors would each keep their capacity
//! (or reallocate every tick), and the arena's steady state allocates
//! nothing.
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
//! sequence the scheduler would drain — while ignoring how the wakes
//! are laid out in the tiers and the absolute values of the internal
//! FIFO counter, so two schedulers that went through different
//! scheduling histories but will behave identically compare equal.
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

/// Ticks the wheel spans, `cur` included: a wake less than `WINDOW`
/// ticks ahead of `cur` waits in the due FIFOs or the wheel, a later
/// one in the far heap. Sized to the DES worlds' traffic: cloud
/// churn's gaps are geometric, and all but 0.14 % of its online gaps
/// (mean 5,000 ticks) and every offline gap (mean 500) fit, so the
/// far heap is off the common path. The wheel's arrays take ≈290 KiB
/// per scheduler.
const WINDOW: u64 = 1 << 15;
const SLOTS: usize = WINDOW as usize;
/// Priority classes: the class byte's range.
const CLASSES: usize = 256;
/// End-of-list link.
const NIL: u32 = u32::MAX;

/// A FIFO of arena nodes linked through [`Node::next`].
#[derive(Debug, Clone, Copy)]
struct Fifo {
    head: u32,
    tail: u32,
}

impl Fifo {
    const EMPTY: Fifo = Fifo {
        head: NIL,
        tail: NIL,
    };
}

#[derive(Debug, Clone)]
struct Node<K> {
    /// `None` while the node is on the free list.
    key: Option<K>,
    next: u32,
    class: u8,
}

/// A far-tier wake; the heap orders these by `(at, class, seq)`.
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

/// Sets bit `i` of a bitmap.
fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

/// Clears bit `i` of a bitmap.
fn clear_bit(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1 << (i % 64));
}

/// The wheel slot holding tick `at`.
fn slot(at: Tick) -> usize {
    (at.value() % WINDOW) as usize
}

/// A deterministic sparse-activation wake queue (see module docs).
#[derive(Debug, Clone)]
pub struct SimScheduler<K> {
    /// Arena of the due and wheel tiers' wakes; freed nodes are chained
    /// from `free` and reused.
    nodes: Vec<Node<K>>,
    free: u32,
    /// Wakes held in the arena.
    held: usize,
    /// The tick the due tier holds; no pending wake is earlier.
    cur: Tick,
    /// Tier 1: one FIFO per class, and which are non-empty.
    due: Box<[Fifo]>,
    due_classes: [u64; CLASSES / 64],
    /// Tier 2: one FIFO per tick in `cur + 1 .. cur + WINDOW`, at
    /// [`slot`]; which slots are occupied, each occupied slot's lowest
    /// class, and the earliest occupied tick.
    wheel: Box<[Fifo]>,
    occupied: Box<[u64]>,
    wheel_class: Box<[u8]>,
    wheel_next: Option<Tick>,
    /// Tier 3: wakes at `cur + WINDOW` or later.
    far: BinaryHeap<Wake<K>>,
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
            nodes: Vec::new(),
            free: NIL,
            held: 0,
            cur: Tick::ZERO,
            due: vec![Fifo::EMPTY; CLASSES].into_boxed_slice(),
            due_classes: [0; CLASSES / 64],
            wheel: vec![Fifo::EMPTY; SLOTS].into_boxed_slice(),
            occupied: vec![0; SLOTS / 64].into_boxed_slice(),
            wheel_class: vec![0; SLOTS].into_boxed_slice(),
            wheel_next: None,
            far: BinaryHeap::new(),
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
            self.roll(to);
        }
    }

    /// Schedules a wake for entity `key` at `at` in priority class
    /// `class` (lower classes fire first within a tick). A time in the
    /// past is clamped to `now`.
    pub fn wake_at(&mut self, at: Tick, class: u8, key: K) {
        let at = at.max(self.now);
        if at.value() - self.cur.value() < WINDOW {
            self.hold(at, class, key);
        } else {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.far.push(Wake {
                at,
                class,
                seq,
                key,
            });
        }
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
        self.peek().map(|(at, _)| at)
    }

    /// Time and priority class of the earliest pending wake, if any.
    /// Lets a drain loop stop at a class boundary — e.g. deliver all
    /// due fault-class wakes before the tick's dispatch phase, then
    /// come back for the entity-class wakes.
    #[must_use]
    pub fn peek(&self) -> Option<(Tick, u8)> {
        if let Some(class) = self.due_class() {
            return Some((self.cur, class));
        }
        if let Some(at) = self.wheel_next {
            return Some((at, self.wheel_class[slot(at)]));
        }
        self.far.peek().map(|w| (w.at, w.class))
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
        self.now = self.now.max(now);
        self.roll(now);
        if self.cur > now {
            return None;
        }
        let class = self.due_class()?;
        let key = self.pop_class(class);
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
        Some((self.cur, class, key))
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
        self.held + self.far.len()
    }

    /// Whether no wakes are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The lowest class with a wake due at `cur`.
    fn due_class(&self) -> Option<u8> {
        let (i, word) = self
            .due_classes
            .iter()
            .enumerate()
            .find(|(_, w)| **w != 0)?;
        u8::try_from(i * 64 + word.trailing_zeros() as usize).ok()
    }

    /// If nothing is due at `cur`, moves it forward to the earliest
    /// pending tick or to `to`, whichever comes first: the new tick's
    /// wheel list becomes its due FIFOs, and far wakes whose tick the
    /// window now covers join the wheel (see module docs).
    fn roll(&mut self, to: Tick) {
        if self.due_classes != [0; CLASSES / 64] {
            return;
        }
        let earliest = self.wheel_next.or_else(|| self.far.peek().map(|w| w.at));
        let target = earliest.map_or(to, |at| at.min(to));
        if target <= self.cur {
            return;
        }
        self.cur = target;
        if self.wheel_next == Some(target) {
            let s = slot(target);
            clear_bit(&mut self.occupied, s);
            let mut i = std::mem::replace(&mut self.wheel[s], Fifo::EMPTY).head;
            while i != NIL {
                let node = &mut self.nodes[i as usize];
                let (next, class) = (node.next, node.class);
                node.next = NIL;
                self.push_due(class, i);
                i = next;
            }
            self.wheel_next = self.scan_wheel();
        }
        while self
            .far
            .peek()
            .is_some_and(|w| w.at.value() - target.value() < WINDOW)
        {
            if let Some(w) = self.far.pop() {
                self.hold(w.at, w.class, w.key);
            }
        }
    }

    /// The earliest occupied wheel tick, found from the bitmap. The
    /// wheel holds ticks `cur + 1 .. cur + WINDOW` only, so `cur`'s own
    /// slot is empty and the circular scan starting there meets them in
    /// tick order.
    fn scan_wheel(&self) -> Option<Tick> {
        let start = slot(self.cur);
        let words = self.occupied.len();
        (0..=words).find_map(|i| {
            let w = (start / 64 + i) % words;
            let mut bits = self.occupied[w];
            if i == 0 {
                bits &= !0 << (start % 64);
            }
            (bits != 0).then(|| {
                let s = w * 64 + bits.trailing_zeros() as usize;
                Tick(self.cur.value() + ((s + SLOTS - start) % SLOTS) as u64)
            })
        })
    }

    /// Stores a wake due less than `WINDOW` ticks after `cur` in the
    /// arena and queues it in its tier.
    fn hold(&mut self, at: Tick, class: u8, key: K) {
        let node = Node {
            key: Some(key),
            next: NIL,
            class,
        };
        let i = if self.free == NIL {
            let i = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("SimScheduler: more than u32::MAX - 1 wakes within the window");
            self.nodes.push(node);
            i
        } else {
            let i = self.free;
            self.free = std::mem::replace(&mut self.nodes[i as usize], node).next;
            i
        };
        self.held += 1;
        if at == self.cur {
            self.push_due(class, i);
            return;
        }
        let s = slot(at);
        if append(&mut self.nodes, &mut self.wheel[s], i) {
            set_bit(&mut self.occupied, s);
            self.wheel_class[s] = class;
        } else {
            self.wheel_class[s] = self.wheel_class[s].min(class);
        }
        if self.wheel_next.is_none_or(|next| at < next) {
            self.wheel_next = Some(at);
        }
    }

    fn push_due(&mut self, class: u8, i: u32) {
        if append(&mut self.nodes, &mut self.due[usize::from(class)], i) {
            set_bit(&mut self.due_classes, usize::from(class));
        }
    }

    /// Unlinks the head of class `class`'s due FIFO (which must be
    /// non-empty), frees its node and returns its key.
    fn pop_class(&mut self, class: u8) -> K {
        let fifo = &mut self.due[usize::from(class)];
        let i = fifo.head;
        let node = &mut self.nodes[i as usize];
        fifo.head = node.next;
        if fifo.head == NIL {
            fifo.tail = NIL;
            clear_bit(&mut self.due_classes, usize::from(class));
        }
        node.next = self.free;
        self.free = i;
        self.held -= 1;
        node.key.take().expect("a queued node holds a key")
    }

    /// Every pending wake as `(tick, class, key)`, in delivery order.
    fn delivery_order(&self) -> Vec<(Tick, u8, &K)> {
        let mut order = Vec::with_capacity(self.len());
        let mut walk = |at: Tick, mut i: u32| {
            while i != NIL {
                let node = &self.nodes[i as usize];
                if let Some(key) = &node.key {
                    order.push((at, node.class, key));
                }
                i = node.next;
            }
        };
        for fifo in self.due.iter() {
            walk(self.cur, fifo.head);
        }
        let start = slot(self.cur);
        for (s, fifo) in self.wheel.iter().enumerate() {
            if fifo.head != NIL {
                let ahead = (s + SLOTS - start) % SLOTS;
                walk(Tick(self.cur.value() + ahead as u64), fifo.head);
            }
        }
        let mut far: Vec<&Wake<K>> = self.far.iter().collect();
        far.sort_unstable_by_key(|w| (w.at, w.class, w.seq));
        order.extend(far.into_iter().map(|w| (w.at, w.class, &w.key)));
        // Stable: each (tick, class) keeps its FIFO order.
        order.sort_by_key(|&(at, class, _)| (at, class));
        order
    }
}

/// Appends node `i` to `fifo`; returns whether the FIFO was empty.
fn append<K>(nodes: &mut [Node<K>], fifo: &mut Fifo, i: u32) -> bool {
    let was_empty = fifo.tail == NIL;
    if was_empty {
        fifo.head = i;
    } else {
        nodes[fifo.tail as usize].next = i;
    }
    fifo.tail = i;
    was_empty
}

impl<K> Default for SimScheduler<K> {
    fn default() -> Self {
        Self::new()
    }
}

/// Layout- and seq-counter-exclusive equality: two schedulers are equal
/// when they are at the same time and would deliver the same `(tick,
/// class, key)` sequence, regardless of which tier holds a wake or of
/// absolute FIFO counter values (the same idiom as `DeliveryQueue`'s
/// pool-exclusive equality).
impl<K: PartialEq> PartialEq for SimScheduler<K> {
    fn eq(&self, other: &Self) -> bool {
        self.now == other.now
            && self.len() == other.len()
            && self.delivery_order() == other.delivery_order()
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
        s.wake_at(Tick(2), 0, 1usize);
        let mut delivered = 0u64;
        while let Some((_, _, k)) = s.pop_due(Tick(1)) {
            delivered += 1;
            s.wake_on_input(0, k);
        }
        assert_eq!(delivered, 16);
        assert_eq!(s.shed_count(), 1);
        // The shed wake is dropped; the next tick proceeds normally.
        assert_eq!(s.pop_due(Tick(2)), Some((Tick(2), 0, 1)));
        assert_eq!(s.shed_count(), 1);
        assert!(s.is_empty());
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
