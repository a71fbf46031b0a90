//! Scoped parallel execution for experiment sweeps.
//!
//! The figure harness runs hundreds of independent `(workload, configuration)`
//! simulation cells; this crate provides the minimal parallel substrate to spread
//! them over a thread pool without reaching for crates.io (the build environment is
//! offline, so rayon is unavailable).
//!
//! The core primitive is [`par_map`]: a scoped fork-join map over a slice that
//!
//! * distributes items dynamically (an atomic work index — fast items do not leave
//!   threads idle behind slow ones, which matters because STREAM cells simulate
//!   several times faster than SPEC cells);
//! * returns results **in input order**, regardless of which thread finished which
//!   item when, so parallel sweeps are bit-for-bit identical to serial sweeps;
//! * runs inline (no threads spawned) when one worker is requested or the input has
//!   at most one item, keeping the serial path truly serial.
//!
//! Parallelism pays across runs, not inside one: a sweep spreads its cells over
//! [`par_map`] and the serving layer gives each tenant a thread, while a single
//! simulation runs on one thread, executing its channel shards inline in a
//! fixed order.
//!
//! The worker count defaults to the machine's available parallelism and is
//! overridden with the `IMPRESS_THREADS` environment variable.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the worker count used by [`par_map`].
pub const THREADS_ENV: &str = "IMPRESS_THREADS";

/// The number of worker threads sweeps should use.
///
/// Reads the `IMPRESS_THREADS` environment variable (values `>= 1`; anything
/// unparsable is ignored) and falls back to [`std::thread::available_parallelism`].
pub fn thread_count() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `items` on [`thread_count`] workers, preserving input order.
///
/// See [`par_map_with`] for the execution contract.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(thread_count(), items, f)
}

/// Maps `f` over `items` on exactly `threads` workers, preserving input order.
///
/// Items are claimed dynamically from a shared atomic index, so uneven per-item
/// costs balance automatically. The output is ordered by input index — the result
/// is indistinguishable from `items.iter().map(f).collect()` whenever `f` is a pure
/// function of its input.
///
/// If any invocation of `f` panics, the panic is re-raised on the caller's thread
/// after all workers have stopped.
pub fn par_map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let f = &f;
    let next = &next;

    // Each worker collects (index, result) pairs locally (no lock contention on the
    // hot path), and the caller reassembles them into input order afterwards.
    let mut buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    let mut poisoned = None;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        match catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
                            Ok(r) => local.push((i, r)),
                            Err(payload) => {
                                // Park the claim counter at the end so the other
                                // workers drain quickly, then surface the panic.
                                next.store(usize::MAX - threads, Ordering::Relaxed);
                                poisoned = Some(payload);
                                break;
                            }
                        }
                    }
                    match poisoned {
                        Some(payload) => Err(payload),
                        None => Ok(local),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker threads do not die outside f"))
            .collect::<Result<Vec<_>, _>>()
            .unwrap_or_else(|payload| resume_unwind(payload))
    });

    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    for bucket in &mut buckets {
        for (i, r) in bucket.drain(..) {
            debug_assert!(out[i].is_none(), "item {i} computed twice");
            out[i] = Some(r);
        }
    }
    out.into_iter()
        .map(|r| r.expect("every index claimed exactly once"))
        .collect()
}
#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        for threads in [1, 2, 3, 8, 64] {
            let out = par_map_with(threads, &items, |&x| x * x);
            let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
            assert_eq!(out, expect, "threads = {threads}");
        }
    }

    #[test]
    fn matches_serial_map_on_uneven_work() {
        let items: Vec<u64> = (0..100).collect();
        let serial = par_map_with(1, &items, |&x| {
            // Uneven per-item cost: item i spins i iterations.
            (0..x).fold(x, |acc, v| acc.wrapping_mul(31).wrapping_add(v))
        });
        let parallel = par_map_with(7, &items, |&x| {
            (0..x).fold(x, |acc, v| acc.wrapping_mul(31).wrapping_add(v))
        });
        assert_eq!(serial, parallel);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counter = AtomicU64::new(0);
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map_with(5, &items, |&i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        assert_eq!(out.iter().copied().collect::<HashSet<_>>().len(), 1000);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_with(4, &empty, |&x| x).is_empty());
        assert_eq!(par_map_with(4, &[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let items = [1u32, 2, 3];
        assert_eq!(par_map_with(100, &items, |&x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    #[should_panic(expected = "boom at 13")]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..64).collect();
        let _ = par_map_with(4, &items, |&x| {
            if x == 13 {
                panic!("boom at 13");
            }
            x
        });
    }

    #[test]
    fn single_task_runs_inline() {
        // One item never spawns a worker, whatever the requested thread count:
        // the closure runs on the caller's thread.
        let caller = std::thread::current().id();
        let out = par_map_with(8, &[0u32], |&x| {
            assert_eq!(std::thread::current().id(), caller);
            x + 1
        });
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn thread_count_env_override() {
        // Serialized with other env-touching tests by running in one test binary.
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(thread_count(), 3);
        std::env::set_var(THREADS_ENV, "not-a-number");
        assert!(thread_count() >= 1);
        std::env::set_var(THREADS_ENV, "0");
        assert!(thread_count() >= 1);
        std::env::remove_var(THREADS_ENV);
        assert!(thread_count() >= 1);
    }
}
