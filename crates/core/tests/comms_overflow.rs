//! Overflow-safety regression tests for the reliable comms protocol.
//!
//! `ReliableConfig` values are caller-supplied and unbounded; the
//! retry machinery computes deadlines as `now + backoff`, which
//! overflows `u64` for extreme configurations. Pre-fix, both the
//! `send()` deadline and the `drive_pending()` backoff deadline used
//! unguarded adds — a panic in debug builds and a wrapped (past-due,
//! hot-looping) deadline in release. These tests fail on that code.

use proptest::prelude::*;
use selfaware::comms::{
    Channel, ChannelOutcome, CommsNetwork, CommsPolicy, Delivered, ReliableConfig,
};
use selfaware::explain::ExplanationLog;
use simkernel::Tick;

/// A channel that loses every frame — keeps messages pending forever
/// so the retry/backoff path is exercised at will.
struct BlackHole;

impl Channel for BlackHole {
    fn transmit(&self, _src: usize, _dst: usize, _seq: u64, _now: Tick) -> ChannelOutcome {
        ChannelOutcome::lost()
    }
}

fn net(cfg: ReliableConfig) -> (CommsNetwork<u8>, ExplanationLog) {
    (
        CommsNetwork::new(CommsPolicy::Reliable(cfg)),
        ExplanationLog::new(64),
    )
}

/// One protocol tick at `now` over the black hole; returns what was
/// delivered.
fn step(n: &mut CommsNetwork<u8>, now: u64, log: &mut ExplanationLog) -> Vec<Delivered<u8>> {
    let mut out = Vec::new();
    n.step_into(&BlackHole, Tick(now), log, &mut out);
    out
}

/// Regression: `send()` computed `now + retry_backoff` unguarded, so
/// a huge first-retry delay overflowed as soon as `now > 0`.
#[test]
fn send_with_huge_retry_backoff_does_not_overflow() {
    let cfg = ReliableConfig {
        retry_backoff: u64::MAX,
        ..ReliableConfig::default()
    };
    let (mut n, mut log) = net(cfg);
    n.send(&BlackHole, 0, 1, 7, Tick(10), &mut log);
    assert_eq!(n.unacked(), 1);
    // The saturated deadline means "never retries before timeout":
    // stepping far ahead must expire, not retry.
    let _ = step(&mut n, u64::MAX, &mut log);
    assert_eq!(n.stats().retries, 0);
    assert_eq!(n.stats().expired, 1);
}

/// Regression: `drive_pending()` computed `now + backoff` unguarded.
/// With `backoff_max = u64::MAX` the doubled backoff grows until the
/// deadline add overflows on the second retry.
#[test]
fn drive_pending_with_extreme_backoff_does_not_overflow() {
    let x = u64::MAX / 4;
    let cfg = ReliableConfig {
        retry_backoff: x,
        backoff_max: u64::MAX,
        send_timeout: u64::MAX,
        retry_budget: 8,
        ..ReliableConfig::default()
    };
    let (mut n, mut log) = net(cfg);
    n.send(&BlackHole, 0, 1, 7, Tick(0), &mut log);
    // First retry: deadline x is due; new backoff 2x stays in range.
    let _ = step(&mut n, x + 1, &mut log);
    assert_eq!(n.stats().retries, 1);
    // Second retry: backoff saturates at 4x ≈ u64::MAX and the
    // deadline add `now + backoff` must saturate too (pre-fix: debug
    // panic / release wrap-around to a past-due deadline).
    let _ = step(&mut n, 3 * x + 2, &mut log);
    assert_eq!(n.stats().retries, 2);
    assert_eq!(n.unacked(), 1, "saturated deadline keeps it pending");
    // A wrapped deadline would retry again immediately; a saturated
    // one never fires before u64::MAX.
    let _ = step(&mut n, 3 * x + 3, &mut log);
    assert_eq!(n.stats().retries, 2);
}

/// One value from across the whole u64 range, biased toward the
/// extremes where the arithmetic can overflow.
fn extreme_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(1u64),
        1u64..1000,
        Just(u64::MAX / 4),
        Just(u64::MAX / 2),
        Just(u64::MAX - 1),
        Just(u64::MAX),
        any::<u64>(),
    ]
}

// For *any* `ReliableConfig` — including deliberately absurd
// backoffs, budgets, and timeouts — driving the protocol over a
// schedule of ticks spanning the whole u64 range never panics, and
// the lifetime counters stay consistent.
proptest! {
    #[test]
    fn any_reliable_config_is_overflow_safe(
        retry_backoff in extreme_u64(),
        backoff_max in extreme_u64(),
        send_timeout in extreme_u64(),
        retry_budget in prop_oneof![Just(0u32), 1u32..16, Just(u32::MAX)],
        jumps in proptest::collection::vec(extreme_u64(), 1..8),
    ) {
        let cfg = ReliableConfig {
            retry_backoff,
            backoff_max,
            send_timeout,
            retry_budget,
            ..ReliableConfig::default()
        };
        let (mut n, mut log) = net(cfg);
        n.send(&BlackHole, 0, 1, 42, Tick(0), &mut log);
        let mut now = 0u64;
        for j in jumps {
            now = now.saturating_add(j);
            let delivered = step(&mut n, now, &mut log);
            prop_assert!(delivered.is_empty(), "black hole delivers nothing");
        }
        let s = n.stats();
        prop_assert_eq!(s.delivered, 0);
        prop_assert_eq!(s.acked, 0);
        prop_assert!(s.expired <= 1, "one message can expire at most once");
        prop_assert!(u64::from(n.unacked() as u32) + s.expired == 1,
            "the message is either still pending or expired");
        // Every retransmission was handed to the channel.
        prop_assert_eq!(s.sent, 1 + s.retries);
    }
}
