//! Deterministic fork–join parallelism over indexed work items.
//!
//! Every parallel site in the workspace (Monte-Carlo evaluation, PPO episode
//! collection, dataset labeling) follows the same discipline: the work is a
//! pure function of a task *index*, any randomness is derived from
//! [`task_seed`]`(base_seed, index)`, and results land in the output slot for
//! that index. Because neither the split of indices across workers nor the
//! worker count can change what any single task computes, the result vector
//! is bit-identical for 1, 2 or N workers — parallelism is purely a
//! wall-clock optimization and never a semantics change.
//!
//! # Examples
//!
//! ```
//! use cocktail_math::parallel;
//!
//! let squares = parallel::map_range(8, |i| (i * i) as f64);
//! assert_eq!(squares[3], 9.0);
//! let same = parallel::map_range_with_workers(8, 1, |i| (i * i) as f64);
//! assert_eq!(squares, same);
//! ```

use std::thread;

/// Worker count used by the `map_*` entry points without an explicit count.
///
/// Reads `COCKTAIL_WORKERS` (a positive integer) if set, otherwise the
/// machine's available parallelism. Always at least 1.
pub fn default_workers() -> usize {
    if let Ok(v) = std::env::var("COCKTAIL_WORKERS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Derives an independent RNG seed for task `index` from `base`.
///
/// Uses the splitmix64 finalizer so that consecutive indices map to
/// decorrelated seeds; the mapping depends only on `(base, index)`, never on
/// which worker runs the task.
pub fn task_seed(base: u64, index: u64) -> u64 {
    let mut z =
        (base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Applies `f(index)` for `0..n` across [`default_workers`] threads and
/// collects the results in index order.
pub fn map_range<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    map_range_with_workers(n, default_workers(), f)
}

/// Applies `f(index)` for `0..n` across at most `workers` threads and
/// collects the results in index order.
///
/// The output is bit-identical for every `workers >= 1`: indices are split
/// into contiguous chunks purely for scheduling, and each result is written
/// to its own slot. Small workloads (`n < 2 * workers`) and `workers <= 1`
/// run sequentially on the calling thread.
pub fn map_range_with_workers<R, F>(n: usize, workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    map_range_with_scratch(n, workers, || (), |(), i| f(i))
}

/// [`map_range_with_workers`] with per-worker scratch: every thread (the
/// calling thread too, when the work runs sequentially) builds one `S`
/// with `init` and passes it to each `f` call it makes, so buffers are
/// reused across items instead of allocated per item.
///
/// Same determinism contract as [`map_range_with_workers`], provided `f`
/// uses the scratch only as working memory: what one call leaves in it
/// must never change what a later call returns.
pub fn map_range_with_scratch<S, R, I, F>(n: usize, workers: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    if workers == 1 || n < 2 * workers {
        let mut scratch = init();
        return (0..n).map(|i| f(&mut scratch, i)).collect();
    }

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let chunk = n.div_ceil(workers);
    let (init, f) = (&init, &f);
    thread::scope(|scope| {
        for (c, out) in slots.chunks_mut(chunk).enumerate() {
            let start = c * chunk;
            scope.spawn(move || {
                let mut scratch = init();
                for (offset, slot) in out.iter_mut().enumerate() {
                    *slot = Some(f(&mut scratch, start + offset));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(
                #[allow(clippy::panic, reason = "filled slots are a scope invariant")]
                || panic!("parallel worker left a slot unfilled"),
            )
        })
        .collect()
}

/// Applies `f(index, item)` to every item across [`default_workers`] threads,
/// collecting results in item order.
pub fn map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_indexed_with_workers(items, default_workers(), f)
}

/// Applies `f(index, item)` to every item across at most `workers` threads,
/// collecting results in item order. Same determinism contract as
/// [`map_range_with_workers`].
pub fn map_indexed_with_workers<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_range_with_workers(items.len(), workers, |i| f(i, &items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_range_preserves_order() {
        let out = map_range_with_workers(100, 4, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_range_empty() {
        let out: Vec<usize> = map_range_with_workers(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let reference = map_range_with_workers(37, 1, |i| task_seed(42, i as u64));
        for workers in [2, 3, 8, 64] {
            let got = map_range_with_workers(37, workers, |i| task_seed(42, i as u64));
            assert_eq!(got, reference, "workers = {workers}");
        }
    }

    #[test]
    fn scratch_is_per_worker_and_results_are_worker_invariant() {
        let reference = map_range_with_workers(37, 1, |i| task_seed(7, i as u64));
        for workers in [2, 3, 8] {
            let inits = std::sync::atomic::AtomicUsize::new(0);
            let got = map_range_with_scratch(
                37,
                workers,
                || inits.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
                |_, i| task_seed(7, i as u64),
            );
            assert_eq!(got, reference, "workers = {workers}");
            assert_eq!(inits.into_inner(), workers, "one scratch per worker");
        }
    }

    #[test]
    fn map_indexed_sees_items() {
        let items = vec![10.0, 20.0, 30.0];
        let out = map_indexed_with_workers(&items, 2, |i, &x| x + i as f64);
        assert_eq!(out, vec![10.0, 21.0, 32.0]);
    }

    #[test]
    fn task_seed_is_index_sensitive() {
        let a = task_seed(7, 0);
        let b = task_seed(7, 1);
        let c = task_seed(8, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Zero inputs must not collapse to a zero seed.
        assert_ne!(task_seed(0, 0), 0);
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }
}
