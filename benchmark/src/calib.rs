//! Host-speed calibration for the simulation timings.
//!
//! Neighbours on a shared host slow this program down by up to 1.8×,
//! in bursts of seconds and in stretches of minutes, and the thread's
//! CPU time grows with its wall time, so the loss is not time spent
//! waiting for a core: it is the core running slower. A fixed reference
//! kernel run on the same thread just before and just after an
//! operation slows down by nearly the same factor (over a three-minute
//! trace, 20-second medians of `run_city` time over kernel time spread
//! 0.02 while the raw times spread 0.09). Every simulation timing is
//! therefore reported at reference speed: its wall time divided by the
//! kernel's slowdown against [`REFERENCE_MS`].

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// The reference kernel's time on a quiet host (the 10th percentile on a
/// 2-vCPU Intel Xeon guest), in ms. Only ratios between runs matter;
/// this constant fixes the scale.
pub const REFERENCE_MS: f64 = 4.4;

/// Keys of the kernel's table: 16 Ki entries, about the size of a
/// core's L2 cache, like the simulations' working sets.
const KEYS: u64 = (1 << 14) - 1;
const STEPS: u64 = 200_000;

/// The reference kernel: hash-map churn with floating-point updates,
/// the access pattern of the simulations, in code the benchmark owns so
/// that no change to the program moves it. SipHash with fixed keys
/// makes every run do the same work.
fn kernel() -> f64 {
    let mut table: HashMap<u64, f64, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(KEYS as usize + 1, BuildHasherDefault::default());
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0;
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x & KEYS;
        let slot = table.entry(key).or_insert(0.0);
        *slot = *slot * 0.9 + (i as f64).sqrt();
        if key & 7 == 0 {
            if let Some(v) = table.remove(&(key ^ 1)) {
                acc += v;
            }
        }
    }
    acc + table.len() as f64
}

/// Times one run of the reference kernel on this thread, in ms.
#[must_use]
pub fn reference_ms() -> f64 {
    let t = Instant::now();
    std::hint::black_box(kernel());
    t.elapsed().as_secs_f64() * 1e3
}

/// One operation timed between two runs of the reference kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Paced {
    /// The operation's wall time, in ms.
    pub ms: f64,
    /// Wall time of the two kernel runs around it, in ms.
    pub reference_ms: f64,
    /// Their mean over [`REFERENCE_MS`]: how much slower the host ran.
    pub slowdown: f64,
}

impl Paced {
    /// The operation's time at reference speed, in ms.
    #[must_use]
    pub fn scaled_ms(&self) -> f64 {
        self.ms / self.slowdown
    }
}

/// Runs `f` on this thread between two runs of the reference kernel.
pub fn paced<T>(f: impl FnOnce() -> T) -> (T, Paced) {
    let before = reference_ms();
    let t = Instant::now();
    let out = f();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let after = reference_ms();
    let reference_ms = before + after;
    let paced = Paced {
        ms,
        reference_ms,
        slowdown: reference_ms / (2.0 * REFERENCE_MS),
    };
    (out, paced)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_does_the_same_work_every_run() {
        assert_eq!(kernel().to_bits(), kernel().to_bits());
    }

    #[test]
    fn scaled_time_divides_out_the_slowdown() {
        let p = Paced {
            ms: 300.0,
            reference_ms: 4.0 * REFERENCE_MS,
            slowdown: 2.0,
        };
        assert_eq!(p.scaled_ms(), 150.0);
        let ((), q) = paced(|| std::thread::sleep(std::time::Duration::from_millis(5)));
        assert!(q.ms >= 5.0 && q.reference_ms > 0.0);
        assert_eq!(q.slowdown, q.reference_ms / (2.0 * REFERENCE_MS));
    }
}
