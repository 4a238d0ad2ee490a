//! Deterministic parallel execution primitives.
//!
//! Everything here preserves one invariant: **output is a pure
//! function of the inputs, independent of thread count and
//! scheduling**. Work items are claimed dynamically (an atomic
//! cursor, so fast workers take more cells), but results are indexed
//! by their input position and reassembled in input order before
//! anything order-sensitive (like [`crate::runner::Aggregate`]
//! absorption) sees them. Combined with [`crate::rng::SeedTree`]
//! deriving every replicate's randomness from its index rather than
//! from call order, a parallel run is bit-identical to a sequential
//! one.
//!
//! The worker pool sizes itself from
//! [`std::thread::available_parallelism`], clamped by the
//! `SAS_THREADS` environment variable (see [`worker_count`]); no
//! external thread-pool crate is involved.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the worker-pool size.
pub const THREADS_ENV: &str = "SAS_THREADS";

/// Number of worker threads to use for `cells` independent work
/// items: `min(cells, SAS_THREADS or available_parallelism)`, at
/// least 1.
#[must_use]
pub fn worker_count(cells: usize) -> usize {
    let hardware = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let configured = std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(hardware);
    configured.min(cells.max(1))
}

/// Applies `f` to every index in `0..n` on `threads` workers and
/// returns the results **in index order** — the parallel schedule
/// never leaks into the output.
///
/// Panics in `f` are propagated to the caller (first panicking worker
/// wins).
pub fn par_map_index<U, F>(n: usize, threads: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let buckets: Vec<Vec<(usize, U)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(n))
            .map(|_| {
                scope.spawn(|| {
                    let mut claimed = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        claimed.push((i, f(i)));
                    }
                    claimed
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(bucket) => bucket,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    let mut slots: Vec<Option<U>> = std::iter::repeat_with(|| None).take(n).collect();
    for (i, value) in buckets.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "cell {i} computed twice");
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every cell claimed exactly once"))
        .collect()
}

/// Ordered parallel map over a slice, using the default worker count.
///
/// Equivalent to `items.iter().map(f).collect()` — including output
/// order — but fanned out across cores.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_index(items.len(), worker_count(items.len()), |i| f(&items[i]))
}

/// Like [`par_map_index`], but each cell runs under
/// [`std::panic::catch_unwind`]: a panicking cell yields
/// `Err(message)` in its slot instead of killing the pool, and every
/// other cell still completes. Output remains in index order — the
/// panic-isolation layer does not weaken the determinism contract.
///
/// The sequential path (`threads <= 1` or `n <= 1`) catches panics
/// identically, so sequential and parallel runs agree on which cells
/// failed and with what message.
pub fn try_par_map_index<U, F>(n: usize, threads: usize, f: F) -> Vec<Result<U, String>>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let guarded = |i: usize| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i)))
            .map_err(|p| panic_message(&*p))
    };
    par_map_index(n, threads, guarded)
}

/// Extracts a human-readable message from a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..97).collect();
        let doubled = par_map(&items, |&x| x * 2);
        assert_eq!(doubled, (0..97).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_index_matches_sequential_any_thread_count() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let sequential: Vec<u64> = (0..53).map(f).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(
                par_map_index(53, threads, f),
                sequential,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(par_map_index(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_index(1, 4, |i| i + 10), vec![10]);
        let empty: [u8; 0] = [];
        assert_eq!(par_map(&empty, |&x| x), Vec::<u8>::new());
    }

    #[test]
    fn more_threads_than_cells_is_fine() {
        assert_eq!(par_map_index(3, 100, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn worker_count_is_positive_and_clamped() {
        assert!(worker_count(0) >= 1);
        assert!(worker_count(1) >= 1);
        assert!(worker_count(1000) >= 1);
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            par_map_index(8, 4, |i| {
                assert!(i != 5, "deliberate failure");
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn try_par_map_isolates_panics_and_completes_the_rest() {
        for threads in [1, 2, 4, 16] {
            let out = try_par_map_index(9, threads, |i| {
                assert!(i != 3, "cell 3 is poisoned");
                i * 10
            });
            assert_eq!(out.len(), 9, "threads={threads}");
            for (i, r) in out.iter().enumerate() {
                if i == 3 {
                    let msg = r.as_ref().expect_err("cell 3 must fail");
                    assert!(msg.contains("cell 3 is poisoned"), "got {msg:?}");
                } else {
                    assert_eq!(r.as_ref().ok(), Some(&(i * 10)), "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn try_par_map_sequential_matches_parallel() {
        let f = |i: usize| {
            assert!(i % 4 != 2, "poison {i}");
            i as u64 * 3
        };
        let seq = try_par_map_index(13, 1, f);
        for threads in [2, 5, 13] {
            assert_eq!(try_par_map_index(13, threads, f), seq, "threads={threads}");
        }
    }

    #[test]
    fn panic_message_handles_string_payloads() {
        let out = try_par_map_index(2, 1, |i| {
            if i == 0 {
                std::panic::panic_any(format!("formatted {i}"));
            }
            i
        });
        assert_eq!(out[0].as_ref().expect_err("cell 0 panics"), "formatted 0");
        assert_eq!(out[1], Ok(1));
    }
}
