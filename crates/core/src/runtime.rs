//! Clock-agnostic sense → decide → act loops.
//!
//! Every self-aware substrate in this workspace runs the same shape of
//! loop — read the world (*sense*), update self-models and pick an
//! action (*decide*), apply it (*act*) — but until PR 9 the loop
//! itself was always a `for t in 0..steps` over simulated [`Tick`]s.
//! [`ControlLoop`] names the three phases as a trait, and [`drive`]
//! runs one against any [`ClockSource`]: under the simulated
//! [`simkernel::Clock`] the loop is bit-identical to the hand-written
//! `for` loop it replaces; under [`simkernel::WallClock`] each
//! iteration is pinned to a real-time quantum, which is how the
//! `liveserve` governor runs the same supervision and ladder machinery
//! against live TCP traffic.
//!
//! The phases are wrapped in the standard `SAS_OBS` profiling spans
//! (`sense` / `decide` / `act`), so a live governor shows up in the
//! run trace's phase profile exactly like a simulated substrate.

use simkernel::clock::{ClockSource, Tick};
use simkernel::obs;

/// One sense → decide → act step of a self-aware control loop.
///
/// Implementations hold all loop state; [`drive`] owns only time.
pub trait ControlLoop {
    /// What sensing yields (believed state, raw counters, …).
    type Sensed;

    /// Reads the world as believed at `now`.
    fn sense(&mut self, now: Tick) -> Self::Sensed;

    /// Updates self-models and decides; then applies the decision.
    ///
    /// Split from [`ControlLoop::sense`] so profiling separates
    /// observation cost from reasoning cost, mirroring the
    /// sense/decide/act phase split used by every simulator.
    fn step(&mut self, now: Tick, sensed: Self::Sensed);

    /// Called once per iteration after `step`, with the tick the loop
    /// will next wake at; return `false` to stop early.
    fn keep_running(&mut self, _next: Tick) -> bool {
        true
    }
}

/// Drives `ctl` from `clock.now()` until `until`, one tick at a time.
///
/// Returns the tick at which the loop stopped. Under a wall clock, if
/// an iteration overruns its quantum the loop does *not* try to catch
/// up by running sense/decide/act for the skipped ticks — it re-reads
/// `now` and continues from real time, because the controllers being
/// driven (supervisors, hysteresis gates) key off elapsed time, not
/// iteration count.
///
/// # Example
///
/// ```
/// use selfaware::runtime::{drive, ControlLoop};
/// use simkernel::{Clock, Tick};
///
/// struct Counter(u64);
/// impl ControlLoop for Counter {
///     type Sensed = u64;
///     fn sense(&mut self, now: Tick) -> u64 { now.value() }
///     fn step(&mut self, _now: Tick, s: u64) { self.0 += s; }
/// }
///
/// let mut c = Counter(0);
/// let end = drive(&mut Clock::new(), &mut c, Tick(5));
/// assert_eq!(end, Tick(5));
/// assert_eq!(c.0, 0 + 1 + 2 + 3 + 4);
/// ```
pub fn drive<K: ClockSource, L: ControlLoop>(clock: &mut K, ctl: &mut L, until: Tick) -> Tick {
    while clock.now() < until {
        let now = clock.now();
        let sensed = {
            let _s = obs::span("sense");
            ctl.sense(now)
        };
        {
            let _s = obs::span("decide");
            ctl.step(now, sensed);
        }
        let next = now + Tick(1);
        if !ctl.keep_running(next) {
            return clock.now();
        }
        clock.wait_until(next);
    }
    clock.now()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::{Clock, WallClock};
    use std::time::Duration;

    struct Recorder {
        seen: Vec<u64>,
        stop_after: Option<usize>,
    }

    impl ControlLoop for Recorder {
        type Sensed = u64;
        fn sense(&mut self, now: Tick) -> u64 {
            now.value()
        }
        fn step(&mut self, _now: Tick, s: u64) {
            self.seen.push(s);
        }
        fn keep_running(&mut self, _next: Tick) -> bool {
            self.stop_after.is_none_or(|n| self.seen.len() < n)
        }
    }

    #[test]
    fn sim_drive_visits_every_tick_in_order() {
        let mut r = Recorder {
            seen: Vec::new(),
            stop_after: None,
        };
        let end = drive(&mut Clock::new(), &mut r, Tick(10));
        assert_eq!(end, Tick(10));
        assert_eq!(r.seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn early_stop_honoured() {
        let mut r = Recorder {
            seen: Vec::new(),
            stop_after: Some(3),
        };
        drive(&mut Clock::new(), &mut r, Tick(100));
        assert_eq!(r.seen.len(), 3);
    }

    #[test]
    fn wall_drive_advances_real_time() {
        let mut r = Recorder {
            seen: Vec::new(),
            stop_after: None,
        };
        let mut wc = WallClock::new(Duration::from_micros(300));
        let end = drive(&mut wc, &mut r, Tick(5));
        assert!(end >= Tick(5));
        assert!(!r.seen.is_empty());
        // Monotone, no tick revisited.
        for w in r.seen.windows(2) {
            assert!(w[1] > w[0]);
        }
    }
}
