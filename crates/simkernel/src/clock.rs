//! Simulation time: the [`Tick`] unit and the time-stepped [`Clock`].
//!
//! All simulators in the workspace advance in discrete ticks. What a
//! tick *means* is domain-specific (a scheduling quantum in
//! `multicore`, a frame in `camnet`, a dispatch round in `cloudsim`),
//! but the newtype keeps tick arithmetic from being confused with other
//! integers (counts, ids, ...) at compile time.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::{Duration, Instant};

/// A point (or span) in discrete simulation time.
///
/// `Tick` is ordered, hashable and cheaply copyable. Subtraction
/// saturates at zero so durations never underflow.
///
/// # Example
///
/// ```
/// use simkernel::Tick;
/// let t = Tick(10) + Tick(5);
/// assert_eq!(t, Tick(15));
/// assert_eq!(Tick(3) - Tick(8), Tick(0)); // saturating
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Tick(pub u64);

impl Tick {
    /// Time zero.
    pub const ZERO: Tick = Tick(0);

    /// Returns the underlying integer value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }

    /// Returns this time as `f64`, for use in continuous-valued models.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Saturating decrement by `n`.
    #[must_use]
    pub fn saturating_sub(self, n: u64) -> Tick {
        Tick(self.0.saturating_sub(n))
    }
}

impl Add for Tick {
    type Output = Tick;
    fn add(self, rhs: Tick) -> Tick {
        Tick(self.0 + rhs.0)
    }
}

impl AddAssign for Tick {
    fn add_assign(&mut self, rhs: Tick) {
        self.0 += rhs.0;
    }
}

impl Sub for Tick {
    type Output = Tick;
    fn sub(self, rhs: Tick) -> Tick {
        Tick(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Tick {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<u64> for Tick {
    fn from(v: u64) -> Self {
        Tick(v)
    }
}

/// A time-stepped simulation clock.
///
/// The clock owns "now" and hands out monotonically increasing ticks.
/// Simulators call [`Clock::advance`] once per step; components read
/// [`Clock::now`].
///
/// # Example
///
/// ```
/// use simkernel::{Clock, Tick};
/// let mut clock = Clock::new();
/// assert_eq!(clock.now(), Tick::ZERO);
/// clock.advance();
/// assert_eq!(clock.now(), Tick(1));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Clock {
    now: Tick,
}

impl Clock {
    /// Creates a clock at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self { now: Tick::ZERO }
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Advances by one tick and returns the new time.
    pub fn advance(&mut self) -> Tick {
        self.now += Tick(1);
        self.now
    }
}

/// Where "now" comes from: simulated ticks or real elapsed time.
///
/// Control loops written against `ClockSource` run unchanged in both
/// worlds. Under the simulated [`Clock`], `wait_until` jumps time
/// forward instantly and runs stay bit-identical to the hand-advanced
/// loops they replaced; under [`WallClock`], each tick is a fixed
/// wall-time quantum and `wait_until` sleeps the calling thread until
/// that quantum has really elapsed.
///
/// # Example
///
/// ```
/// use simkernel::clock::{Clock, ClockSource, Tick};
/// fn drive<K: ClockSource>(clock: &mut K, steps: u64) -> Tick {
///     let end = clock.now() + Tick(steps);
///     while clock.now() < end {
///         let now = clock.now();
///         // ... sense / decide / act at `now` ...
///         clock.wait_until(now + Tick(1));
///     }
///     clock.now()
/// }
/// let mut sim = Clock::new();
/// assert_eq!(drive(&mut sim, 5), Tick(5));
/// ```
pub trait ClockSource {
    /// Current time in ticks.
    fn now(&self) -> Tick;

    /// Blocks (wall clock) or jumps (sim clock) until `now() >= t`.
    ///
    /// Calling with a time in the past is a no-op.
    fn wait_until(&mut self, t: Tick);

    /// True when ticks correspond to real elapsed time.
    ///
    /// Lets shared code pick side-effect policy (e.g. whether a
    /// "stalled controller" deadline is a latency guarantee or just a
    /// step count) without knowing the concrete clock type.
    fn is_wall(&self) -> bool {
        false
    }
}

impl ClockSource for Clock {
    fn now(&self) -> Tick {
        Clock::now(self)
    }

    fn wait_until(&mut self, t: Tick) {
        if t > self.now {
            self.now = t;
        }
    }
}

/// A wall-clock [`ClockSource`]: real elapsed time quantised to ticks.
///
/// Tick `n` begins `n * quantum` after the epoch (the instant the
/// clock was created). `now()` is the number of whole quanta elapsed;
/// `wait_until(t)` sleeps the calling thread until tick `t` starts.
/// Ticks are monotone because [`Instant`] is monotone.
///
/// # Example
///
/// ```
/// use simkernel::clock::{ClockSource, Tick, WallClock};
/// use std::time::Duration;
/// let mut wc = WallClock::new(Duration::from_millis(1));
/// wc.wait_until(Tick(3));
/// assert!(wc.now() >= Tick(3));
/// assert!(wc.is_wall());
/// ```
#[derive(Debug, Clone)]
pub struct WallClock {
    epoch: Instant,
    quantum: Duration,
}

impl WallClock {
    /// Creates a wall clock whose tick length is `quantum`.
    ///
    /// A zero quantum is clamped to 1µs so `now()` stays finite.
    #[must_use]
    pub fn new(quantum: Duration) -> Self {
        let quantum = if quantum.is_zero() {
            Duration::from_micros(1)
        } else {
            quantum
        };
        Self {
            epoch: Instant::now(),
            quantum,
        }
    }

    /// The tick length this clock was created with.
    #[must_use]
    pub fn quantum(&self) -> Duration {
        self.quantum
    }

    /// Real time elapsed since the clock's epoch.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.epoch.elapsed()
    }
}

impl ClockSource for WallClock {
    fn now(&self) -> Tick {
        let q = self.quantum.as_nanos().max(1);
        Tick((self.epoch.elapsed().as_nanos() / q) as u64)
    }

    fn wait_until(&mut self, t: Tick) {
        let deadline_ns = (t.0 as u128).saturating_mul(self.quantum.as_nanos());
        loop {
            let elapsed = self.epoch.elapsed().as_nanos();
            if elapsed >= deadline_ns {
                return;
            }
            let remain = deadline_ns - elapsed;
            let remain = Duration::new(
                (remain / 1_000_000_000) as u64,
                (remain % 1_000_000_000) as u32,
            );
            std::thread::sleep(remain);
        }
    }

    fn is_wall(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_arithmetic() {
        assert_eq!(Tick(2) + Tick(3), Tick(5));
        assert_eq!(Tick(5) - Tick(3), Tick(2));
        assert_eq!(Tick(3) - Tick(5), Tick(0));
        let mut t = Tick(1);
        t += Tick(4);
        assert_eq!(t, Tick(5));
    }

    #[test]
    fn tick_display_and_conversion() {
        assert_eq!(Tick(7).to_string(), "t7");
        assert_eq!(Tick::from(9u64).value(), 9);
        assert!((Tick(2).as_f64() - 2.0).abs() < f64::EPSILON);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut c = Clock::new();
        let mut prev = c.now();
        for _ in 0..10 {
            let t = c.advance();
            assert!(t > prev);
            prev = t;
        }
        assert_eq!(c.now(), Tick(10));
    }

    #[test]
    fn tick_ordering() {
        assert!(Tick(1) < Tick(2));
        assert_eq!(Tick(3).saturating_sub(5), Tick(0));
    }

    /// The generic drive loop over `Clock` matches a hand-advanced loop
    /// step for step (`selfaware::runtime::drive` runs its control
    /// loops through this same path).
    #[test]
    fn sim_clock_source_matches_manual_advance() {
        let mut via_trait = Vec::new();
        let mut clock = Clock::new();
        while ClockSource::now(&clock) < Tick(8) {
            let now = ClockSource::now(&clock);
            via_trait.push(now);
            clock.wait_until(now + Tick(1));
        }

        let mut manual = Vec::new();
        let mut c = Clock::new();
        for _ in 0..8 {
            manual.push(c.now());
            c.advance();
        }
        assert_eq!(via_trait, manual);
    }

    #[test]
    fn sim_clock_wait_until_past_is_noop() {
        let mut c = Clock::new();
        c.wait_until(Tick(10));
        c.wait_until(Tick(3));
        assert_eq!(c.now(), Tick(10));
        assert!(!ClockSource::is_wall(&c));
    }

    #[test]
    fn wall_clock_advances_and_waits() {
        let mut wc = WallClock::new(Duration::from_micros(200));
        let t0 = ClockSource::now(&wc);
        wc.wait_until(t0 + Tick(4));
        assert!(ClockSource::now(&wc) >= t0 + Tick(4));
        assert!(wc.is_wall());
        assert!(wc.elapsed() >= Duration::from_micros(800 - 200));
    }

    #[test]
    fn wall_clock_zero_quantum_clamped() {
        let wc = WallClock::new(Duration::ZERO);
        assert_eq!(wc.quantum(), Duration::from_micros(1));
    }
}
