//! Deterministic tick-indexed delivery queue.
//!
//! The unreliable-communication layer (see `selfaware::comms` and
//! `workloads::faults::ChannelPlan`) needs to hold message copies "in
//! the air" until their scheduled arrival tick. [`DeliveryQueue`] is
//! the scheduler-side primitive for that: items are filed under the
//! tick at which they become visible, and [`DeliveryQueue::due`]
//! drains everything that has arrived by `now` in a fully
//! deterministic order — ascending arrival tick, FIFO among items
//! scheduled for the same tick.
//!
//! The queue carries arbitrary payloads and never inspects them, so
//! callers can keep whole messages (not just event tags) in flight.
//!
//! ```
//! use simkernel::delivery::DeliveryQueue;
//! use simkernel::Tick;
//!
//! let mut q = DeliveryQueue::new();
//! q.schedule(Tick(5), "late");
//! q.schedule(Tick(2), "early");
//! q.schedule(Tick(2), "early-2");
//! assert_eq!(q.due(Tick(2)), vec!["early", "early-2"]);
//! assert_eq!(q.len(), 1);
//! assert_eq!(q.due(Tick(10)), vec!["late"]);
//! assert!(q.is_empty());
//! ```

use crate::clock::Tick;
use std::collections::BTreeMap;

/// Spent per-tick batch buffers retained for reuse (see
/// [`DeliveryQueue::drain_due_into`]); bounded so a burst cannot pin
/// memory forever.
const POOL_LIMIT: usize = 32;

/// A deterministic "in flight" buffer: payloads scheduled for future
/// ticks, drained in (arrival tick, insertion order) order.
///
/// Emptied per-tick buffers are recycled into future [`schedule`]
/// calls, so a steady-state schedule/drain cycle performs no heap
/// allocation (the comms layer's zero-alloc hot path depends on
/// this).
///
/// [`schedule`]: DeliveryQueue::schedule
#[derive(Debug, Clone)]
pub struct DeliveryQueue<T> {
    slots: BTreeMap<u64, Vec<T>>,
    len: usize,
    pool: Vec<Vec<T>>,
}

// The recycling pool is invisible state: equality is defined by what
// is in flight, not by how many spare buffers are cached.
impl<T: PartialEq> PartialEq for DeliveryQueue<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.slots == other.slots
    }
}

impl<T: Eq> Eq for DeliveryQueue<T> {}

impl<T> Default for DeliveryQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> DeliveryQueue<T> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self {
            slots: BTreeMap::new(),
            len: 0,
            pool: Vec::new(),
        }
    }

    /// Files `item` for visibility at tick `at` (inclusive).
    pub fn schedule(&mut self, at: Tick, item: T) {
        let pool = &mut self.pool;
        self.slots
            .entry(at.0)
            .or_insert_with(|| pool.pop().unwrap_or_default())
            .push(item);
        self.len += 1;
    }

    /// Removes and returns every item whose arrival tick is `<= now`,
    /// ordered by (arrival tick, insertion order).
    pub fn due(&mut self, now: Tick) -> Vec<T> {
        let mut out = Vec::new();
        self.drain_due_into(now, &mut out);
        out
    }

    /// Appends every item whose arrival tick is `<= now` to `out`, in
    /// (arrival tick, insertion order) order; `out` is *not* cleared
    /// first. The emptied per-tick buffers are kept for future
    /// [`DeliveryQueue::schedule`] calls, so callers that reuse `out`
    /// get an allocation-free steady state.
    pub fn drain_due_into(&mut self, now: Tick, out: &mut Vec<T>) {
        // Removing one tick at a time sidesteps the `now + 1`
        // overflow a `split_off` bound would hit at `Tick(u64::MAX)`
        // (where everything is due).
        while let Some((&t, _)) = self.slots.first_key_value() {
            if t > now.0 {
                break;
            }
            if let Some(mut batch) = self.slots.remove(&t) {
                self.len -= batch.len();
                out.append(&mut batch);
                if self.pool.len() < POOL_LIMIT {
                    self.pool.push(batch);
                }
            }
        }
    }

    /// Earliest arrival tick still queued, if any.
    #[must_use]
    pub fn next_arrival(&self) -> Option<Tick> {
        self.slots.keys().next().map(|&t| Tick(t))
    }

    /// Number of items still in flight.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is in flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_in_tick_then_fifo_order() {
        let mut q = DeliveryQueue::new();
        q.schedule(Tick(3), "c");
        q.schedule(Tick(1), "a1");
        q.schedule(Tick(1), "a2");
        q.schedule(Tick(2), "b");
        assert_eq!(q.next_arrival(), Some(Tick(1)));
        assert_eq!(q.due(Tick(2)), vec!["a1", "a2", "b"]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.due(Tick(2)), Vec::<&str>::new());
        assert_eq!(q.due(Tick(3)), vec!["c"]);
        assert!(q.is_empty());
        assert_eq!(q.next_arrival(), None);
    }

    #[test]
    fn due_at_zero_picks_up_same_tick_items() {
        let mut q = DeliveryQueue::new();
        q.schedule(Tick(0), 7u32);
        assert_eq!(q.due(Tick(0)), vec![7]);
    }

    #[test]
    fn due_at_tick_max_drains_everything() {
        let mut q = DeliveryQueue::new();
        q.schedule(Tick(0), "a");
        q.schedule(Tick(u64::MAX), "b");
        assert_eq!(q.due(Tick(u64::MAX)), vec!["a", "b"]);
        assert!(q.is_empty());
    }

    #[test]
    fn drain_due_into_appends_without_clearing_and_recycles() {
        let mut q = DeliveryQueue::new();
        q.schedule(Tick(1), 10u32);
        q.schedule(Tick(2), 20);
        let mut out = vec![5u32];
        q.drain_due_into(Tick(1), &mut out);
        assert_eq!(out, vec![5, 10]);
        // The emptied tick-1 buffer is recycled by later schedules;
        // drain order and contents are unaffected.
        q.schedule(Tick(3), 30);
        out.clear();
        q.drain_due_into(Tick(u64::MAX), &mut out);
        assert_eq!(out, vec![20, 30]);
        assert!(q.is_empty());
    }

    #[test]
    fn pool_does_not_affect_equality() {
        let mut a = DeliveryQueue::new();
        let b = DeliveryQueue::<u32>::new();
        a.schedule(Tick(0), 1);
        let _ = a.due(Tick(0));
        // `a` now holds a recycled buffer, `b` never allocated one.
        assert_eq!(a, b);
    }

    #[test]
    fn interleaved_schedule_and_drain_keeps_count() {
        let mut q = DeliveryQueue::new();
        for t in 0..100u64 {
            q.schedule(Tick(t + 3), t);
            let got = q.due(Tick(t));
            for g in got {
                assert_eq!(g + 3, t);
            }
        }
        assert_eq!(q.len(), 3);
    }
}
