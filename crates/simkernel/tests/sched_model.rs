//! Model check of `SimScheduler`: over random operation sequences, the
//! timing wheel delivers exactly what one `BinaryHeap` in `(tick,
//! class, seq)` order delivers under the same same-tick budget rule,
//! one operation at a time.
//!
//! Wake offsets straddle the wheel's window on both edges, advances
//! jump across it, and drain handlers schedule new wakes at `now` and
//! later. Drains also pop at a tick behind the scheduler's time, while
//! wakes are due at the tick it holds, and hand-overs move wakes of the
//! same and other classes off the wheel or out of the far heap onto one
//! tick, where bursts of `wake_on_input` interleave with single pops at
//! that tick and behind it. Debug builds panic on an overflowing budget
//! by design, so small budgets (and so sheds) are exercised in release
//! builds only.

use proptest::prelude::*;
use simkernel::sched::{SimScheduler, DEFAULT_SAME_TICK_BUDGET};
use simkernel::Tick;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The wheel's span in ticks: a copy of the scheduler's private
/// constant, so the offsets and jumps below straddle its edges.
const WINDOW: i64 = 1 << 15;

/// The reference: every pending wake in one heap.
struct Model {
    heap: BinaryHeap<Reverse<(Tick, u8, u64, u32)>>,
    seq: u64,
    now: Tick,
    fired_at: Tick,
    fired: u64,
    budget: u64,
    shed: u64,
}

impl Model {
    fn new(budget: u64) -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            now: Tick::ZERO,
            fired_at: Tick::ZERO,
            fired: 0,
            budget,
            shed: 0,
        }
    }

    fn advance(&mut self, to: Tick) {
        self.now = self.now.max(to);
    }

    fn wake_at(&mut self, at: Tick, class: u8, key: u32) {
        self.heap
            .push(Reverse((at.max(self.now), class, self.seq, key)));
        self.seq += 1;
    }

    fn peek(&self) -> Option<(Tick, u8)> {
        self.heap.peek().map(|Reverse(w)| (w.0, w.1))
    }

    fn pop_due(&mut self, now: Tick) -> Option<(Tick, u8, u32)> {
        self.advance(now);
        let Reverse((at, class, _, key)) = *self.heap.peek().filter(|Reverse(w)| w.0 <= now)?;
        self.heap.pop();
        if self.fired_at != now {
            self.fired_at = now;
            self.fired = 0;
        }
        self.fired += 1;
        if self.fired > self.budget {
            self.shed += 1;
            return None;
        }
        Some((at, class, key))
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// `wake_at(now + offset)`; a negative offset is in the past.
    WakeAt(i64, u8),
    WakeOnInput(u8),
    /// `advance(now + by)`.
    Advance(u64),
    /// Drains `pop_due(now + by)` to `None`; the first deliveries each
    /// schedule one wake, at the listed offset from the drained tick.
    Drain(u64, Vec<(i64, u8)>),
    /// Drains `pop_due(now - back)` to `None`: a caller behind the
    /// scheduler's time.
    DrainBehind(u64),
    /// Wakes the listed classes at `now + gap` (on the wheel, or in the
    /// far heap from `WINDOW` on), advances to that tick and runs the
    /// steps there.
    HandOver(u64, Vec<u8>, Vec<Step>),
}

/// One call within a [`Op::HandOver`]'s tick.
#[derive(Debug, Clone)]
enum Step {
    /// `wake_on_input` in this class.
    Input(u8),
    /// One `pop_due` at the tick.
    Pop,
    /// One `pop_due` this many ticks behind it.
    PopBehind(u64),
}

fn offset() -> impl Strategy<Value = i64> {
    prop_oneof![
        Just(0i64),
        Just(1i64),
        2..WINDOW - 1,
        Just(WINDOW - 1),
        Just(WINDOW),
        Just(WINDOW + 1),
        WINDOW + 2..4 * WINDOW,
        -100i64..0,
    ]
}

fn class() -> impl Strategy<Value = u8> {
    prop_oneof![0u8..4, 0u8..4, any::<u8>()]
}

fn jump() -> impl Strategy<Value = u64> {
    let w = WINDOW as u64;
    prop_oneof![Just(0u64), Just(1u64), 2u64..200, w - 2..2 * w + 2]
}

/// A hand-over's gap: onto the wheel, or into the far heap on either
/// side of the window's edge.
fn gap() -> impl Strategy<Value = u64> {
    let w = WINDOW as u64;
    prop_oneof![
        Just(1u64),
        2u64..200,
        Just(w - 1),
        Just(w),
        Just(w + 1),
        w + 2..3 * w
    ]
}

fn back() -> impl Strategy<Value = u64> {
    prop_oneof![1u64..4, 4u64..200]
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        class().prop_map(Step::Input),
        class().prop_map(Step::Input),
        Just(Step::Pop),
        Just(Step::Pop),
        back().prop_map(Step::PopBehind),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (offset(), class()).prop_map(|(off, c)| Op::WakeAt(off, c)),
        (offset(), class()).prop_map(|(off, c)| Op::WakeAt(off, c)),
        class().prop_map(Op::WakeOnInput),
        jump().prop_map(Op::Advance),
        (jump(), proptest::collection::vec((offset(), class()), 0..6))
            .prop_map(|(by, pushes)| Op::Drain(by, pushes)),
        back().prop_map(Op::DrainBehind),
        (
            gap(),
            proptest::collection::vec(class(), 1..6),
            proptest::collection::vec(step(), 1..16)
        )
            .prop_map(|(gap, ahead, steps)| Op::HandOver(gap, ahead, steps)),
    ]
}

/// Small budgets shed; debug builds would panic on them instead.
#[cfg(not(debug_assertions))]
fn budget() -> impl Strategy<Value = u64> {
    prop_oneof![1u64..8, Just(DEFAULT_SAME_TICK_BUDGET)]
}

#[cfg(debug_assertions)]
fn budget() -> impl Strategy<Value = u64> {
    Just(DEFAULT_SAME_TICK_BUDGET)
}

fn at(now: Tick, offset: i64) -> Tick {
    Tick(now.value().saturating_add_signed(offset))
}

fn behind(now: Tick, back: u64) -> Tick {
    Tick(now.value().saturating_sub(back))
}

proptest! {
    #[test]
    fn wheel_delivers_what_the_heap_delivers(
        budget in budget(),
        ops in proptest::collection::vec(op(), 1..120),
    ) {
        let mut wheel: SimScheduler<u32> = SimScheduler::new().with_same_tick_budget(budget);
        let mut model = Model::new(budget);
        let mut next_key = 0u32;
        for op in &ops {
            let now = model.now;
            match op {
                Op::WakeAt(off, c) => {
                    wheel.wake_at(at(now, *off), *c, next_key);
                    model.wake_at(at(now, *off), *c, next_key);
                    next_key += 1;
                }
                Op::WakeOnInput(c) => {
                    wheel.wake_on_input(*c, next_key);
                    model.wake_at(now, *c, next_key);
                    next_key += 1;
                }
                Op::Advance(by) => {
                    wheel.advance(at(now, *by as i64));
                    model.advance(at(now, *by as i64));
                }
                Op::Drain(by, pushes) => {
                    let t = at(now, *by as i64);
                    let mut pushes = pushes.iter();
                    loop {
                        let got = wheel.pop_due(t);
                        prop_assert_eq!(got, model.pop_due(t), "pop_due({}) in {:?}", t, op);
                        if got.is_none() {
                            break;
                        }
                        if let Some(&(off, c)) = pushes.next() {
                            wheel.wake_at(at(t, off), c, next_key);
                            model.wake_at(at(t, off), c, next_key);
                            next_key += 1;
                        }
                    }
                }
                Op::DrainBehind(back) => {
                    let t = behind(now, *back);
                    loop {
                        let got = wheel.pop_due(t);
                        prop_assert_eq!(got, model.pop_due(t), "pop_due({}) in {:?}", t, op);
                        if got.is_none() {
                            break;
                        }
                    }
                }
                Op::HandOver(gap, ahead, steps) => {
                    let t = at(now, *gap as i64);
                    for &c in ahead {
                        wheel.wake_at(t, c, next_key);
                        model.wake_at(t, c, next_key);
                        next_key += 1;
                    }
                    wheel.advance(t);
                    model.advance(t);
                    for step in steps {
                        match step {
                            Step::Input(c) => {
                                wheel.wake_on_input(*c, next_key);
                                model.wake_at(t, *c, next_key);
                                next_key += 1;
                            }
                            Step::Pop => {
                                prop_assert_eq!(wheel.pop_due(t), model.pop_due(t), "pop_due({}) in {:?}", t, op);
                            }
                            Step::PopBehind(back) => {
                                let b = behind(t, *back);
                                prop_assert_eq!(wheel.pop_due(b), model.pop_due(b), "pop_due({}) in {:?}", b, op);
                            }
                        }
                    }
                }
            }
            prop_assert_eq!(wheel.peek(), model.peek(), "peek after {:?}", op);
            prop_assert_eq!(wheel.next_wake(), model.peek().map(|p| p.0));
            prop_assert_eq!(wheel.len(), model.heap.len());
            prop_assert_eq!(wheel.is_empty(), model.heap.is_empty());
            prop_assert_eq!(wheel.now(), model.now);
            prop_assert_eq!(wheel.shed_count(), model.shed);
            prop_assert!(wheel.clone() == wheel, "clone differs after {:?}", op);
        }
        // Whatever is left drains in the same order (or sheds alike).
        let end = at(model.now, 8 * WINDOW);
        while !model.heap.is_empty() {
            prop_assert_eq!(wheel.pop_due(end), model.pop_due(end));
        }
        prop_assert!(wheel.is_empty());
    }
}
