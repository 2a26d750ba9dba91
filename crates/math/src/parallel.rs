//! Deterministic fork–join parallelism over indexed work items.
//!
//! Every parallel site in the workspace (Monte-Carlo evaluation, PPO episode
//! collection, dataset labeling, certificate refinement, the invariant's
//! cell images, the Lipschitz sweep) follows the same discipline: the work
//! is a pure function of a task *index*, any randomness is derived from
//! [`task_seed`]`(base_seed, index)`, and results land in the output slot for
//! that index. Because neither the split of indices across workers nor the
//! worker count can change what any single task computes, the result vector
//! is bit-identical for 1, 2 or N workers — parallelism is purely a
//! wall-clock optimization and never a semantics change.
//!
//! # The pool
//!
//! Fan-outs run on one process-wide pool of parked threads, started on
//! first use and grown to the largest worker count any caller asks for
//! (`workers − 1` threads: the calling thread always takes part). A
//! fan-out queues `workers − 1` *parts* and runs one itself; every
//! participant claims items one at a time until none are left. Once the
//! caller has claimed the last item it withdraws the parts no pool thread
//! has started and waits only for the started ones. So a busy pool never
//! delays a caller (it does the work itself), and a fan-out nested inside
//! a pool job cannot deadlock: nobody ever waits for a part that has not
//! started. A panic in any item reaches the caller once every started part
//! has finished; the pool keeps working.
//!
//! # Examples
//!
//! ```
//! use cocktail_math::parallel;
//!
//! let workers = parallel::default_workers();
//! let squares = parallel::map_range_with_workers(8, workers, |i| (i * i) as f64);
//! assert_eq!(squares[3], 9.0);
//! let same = parallel::map_range_with_workers(8, 1, |i| (i * i) as f64);
//! assert_eq!(squares, same);
//! let (a, b) = parallel::join(2, || 1 + 1, || 2 * 2);
//! assert_eq!((a, b), (2, 4));
//! ```

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

/// The worker count a caller passes when it has no count of its own.
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

/// Applies `f(index)` for `0..n` across at most `workers` threads and
/// collects the results in index order.
///
/// The output is bit-identical for every `workers >= 1`: items are claimed
/// one at a time purely for scheduling, and each result is written to its
/// own slot. `workers <= 1` and a single item run on the calling thread
/// without touching the pool.
pub fn map_range_with_workers<R, F>(n: usize, workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    map_range_with_scratch(n, workers, || (), |(), i| f(i))
}

/// [`map_range_with_workers`] with per-thread scratch: every participating
/// thread builds one `S` with `init` before its first item and passes it
/// to each `f` call it makes, so buffers are reused across items instead
/// of allocated per item. A thread that claims no item builds none.
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
    Pool::global().map(n, workers, init, f)
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

/// Runs `a` on the calling thread and `b` beside it on an idle pool
/// thread, returning both results.
///
/// When no pool thread has started `b` by the time `a` returns, `b` runs
/// inline after it, so a busy pool costs the caller nothing but the wait
/// for `b` itself. `workers <= 1` runs `a` then `b` without touching the
/// pool. Either closure's panic reaches the caller.
pub fn join<A, B, RA, RB>(workers: usize, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    Pool::global().join(workers, a, b)
}

/// A participant loop as a pool thread sees it: the borrow of the
/// fan-out's stack frame, its lifetime erased (see [`Pool::fan_out`]).
type Part = &'static (dyn Fn() + Sync);

/// One queued part of a fan-out.
struct Job {
    part: Part,
    ticket: Arc<Ticket>,
}

/// What a fan-out's caller and the pool threads running its parts share.
#[derive(Default)]
struct Ticket {
    state: Mutex<TicketState>,
    finished: Condvar,
}

#[derive(Default)]
struct TicketState {
    /// Parts a pool thread has started and not yet finished.
    running: usize,
    /// The first panic a started part raised.
    panic: Option<Box<dyn Any + Send>>,
}

/// Queued parts and the number of threads serving them.
#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    threads: usize,
}

/// A set of parked threads serving fan-outs; [`Pool::global`] is the one
/// every public entry point uses.
#[derive(Default)]
struct Pool {
    queue: Mutex<Queue>,
    work: Condvar,
}

/// Locks `m`, ignoring poisoning: no pool lock is held across user code,
/// and every update under one (a push, a pop, a counter step) leaves the
/// data valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Pool {
    /// The process-wide pool, started empty on first use.
    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(Pool::default)
    }

    /// Queues `helpers` copies of `part`, runs `caller` on the calling
    /// thread, then withdraws the copies no pool thread has started and
    /// waits for the started ones to finish. The first panic, the
    /// caller's before any part's, is resumed after that wait.
    fn fan_out<T>(
        &'static self,
        helpers: usize,
        part: &(dyn Fn() + Sync),
        caller: impl FnOnce() -> T,
    ) -> T {
        // SAFETY: the erased borrow is dereferenced only by pool threads
        // that took one of these jobs from the queue before the `retain`
        // below withdrew the rest (a thread counts itself in `running`
        // while it still holds the queue lock). This function does not
        // return or unwind until each of them has finished running it
        // (`running` back at 0), and the caller's own panic is caught so
        // that the wait happens on every path.
        let erased: Part = unsafe {
            std::mem::transmute::<&(dyn Fn() + Sync + '_), &'static (dyn Fn() + Sync + 'static)>(
                part,
            )
        };
        let ticket = Arc::new(Ticket::default());
        self.submit(helpers, erased, &ticket);
        let result = panic::catch_unwind(AssertUnwindSafe(caller));
        lock(&self.queue)
            .jobs
            .retain(|job| !Arc::ptr_eq(&job.ticket, &ticket));
        let mut state = lock(&ticket.state);
        while state.running > 0 {
            state = ticket
                .finished
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let part_panic = state.panic.take();
        drop(state);
        match (result, part_panic) {
            (Err(payload), _) | (Ok(_), Some(payload)) => panic::resume_unwind(payload),
            (Ok(value), None) => value,
        }
    }

    /// Grows the pool to at least `helpers` threads and queues that many
    /// jobs running `part`.
    fn submit(&'static self, helpers: usize, part: Part, ticket: &Arc<Ticket>) {
        let mut queue = lock(&self.queue);
        while queue.threads < helpers {
            let name = format!("cocktail-pool-{}", queue.threads);
            // a thread that cannot be started only means fewer helpers;
            // the caller does their share. The threads stay parked for the
            // life of the process, so their handles are not kept.
            if thread::Builder::new()
                .name(name)
                .spawn(move || self.serve())
                .is_err()
            {
                break;
            }
            queue.threads += 1;
        }
        for _ in 0..helpers {
            queue.jobs.push_back(Job {
                part,
                ticket: Arc::clone(ticket),
            });
            self.work.notify_one();
        }
    }

    /// A pool thread: runs queued parts forever.
    fn serve(&self) {
        let mut queue = lock(&self.queue);
        loop {
            let Some(job) = queue.jobs.pop_front() else {
                queue = self
                    .work
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            // started while the queue is still locked, so a caller that
            // withdraws its jobs either removes this one or waits for it
            lock(&job.ticket.state).running += 1;
            drop(queue);
            let outcome = panic::catch_unwind(AssertUnwindSafe(job.part));
            let mut state = lock(&job.ticket.state);
            if let Err(payload) = outcome {
                state.panic.get_or_insert(payload);
            }
            state.running -= 1;
            if state.running == 0 {
                job.ticket.finished.notify_all();
            }
            drop(state);
            queue = lock(&self.queue);
        }
    }

    /// [`map_range_with_scratch`] on this pool.
    fn map<S, R, I, F>(&'static self, n: usize, workers: usize, init: I, f: F) -> Vec<R>
    where
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> R + Sync,
    {
        let workers = workers.clamp(1, n.max(1));
        if workers == 1 {
            let mut scratch = init();
            return (0..n).map(|i| f(&mut scratch, i)).collect();
        }
        // the counter only hands out indices; results travel through the
        // mutex, so it publishes nothing
        let next = AtomicUsize::new(0);
        let done: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
        let part = || {
            let mut scratch = None;
            let mut mine = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                mine.push((i, f(scratch.get_or_insert_with(&init), i)));
            }
            lock(&done).append(&mut mine);
        };
        self.fan_out(workers - 1, &part, part);
        let mut done = done.into_inner().unwrap_or_else(PoisonError::into_inner);
        done.sort_unstable_by_key(|&(i, _)| i);
        debug_assert!(done.iter().enumerate().all(|(k, &(i, _))| k == i));
        done.into_iter().map(|(_, r)| r).collect()
    }

    /// [`join`] on this pool.
    fn join<A, B, RA, RB>(&'static self, workers: usize, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA,
        B: FnOnce() -> RB + Send,
        RB: Send,
    {
        if workers <= 1 {
            return (a(), b());
        }
        let b = Mutex::new(Some(b));
        let rb = Mutex::new(None);
        let part = || {
            let b = lock(&b).take();
            if let Some(b) = b {
                let value = b();
                *lock(&rb) = Some(value);
            }
        };
        let ra = self.fan_out(1, &part, a);
        // `b` inline, unless a pool thread took it
        part();
        let rb = rb.into_inner().unwrap_or_else(PoisonError::into_inner);
        #[allow(clippy::expect_used, reason = "`b` ran above or on a pool thread")]
        (ra, rb.expect("join's second closure ran"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Barrier;

    /// A pool of its own, so no other test's fan-outs occupy its threads.
    fn private_pool() -> &'static Pool {
        Box::leak(Box::default())
    }

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
        // uneven items, so participants interleave their claims
        let item = |i: usize| (0..i as u64 % 7 * 500).fold(task_seed(42, i as u64), task_seed);
        let reference = map_range_with_workers(37, 1, item);
        let pair = join(1, || item(3), || item(4));
        for workers in [2, 3, 8, 64] {
            let got = map_range_with_workers(37, workers, item);
            assert_eq!(got, reference, "workers = {workers}");
            assert_eq!(join(workers, || item(3), || item(4)), pair);
        }
    }

    #[test]
    fn scratch_is_per_worker_and_results_are_worker_invariant() {
        let reference = map_range_with_workers(37, 1, |i| task_seed(7, i as u64));
        for workers in [2, 3, 8] {
            let owners = Mutex::new(Vec::new());
            let got = map_range_with_scratch(
                37,
                workers,
                || lock(&owners).push(thread::current().id()),
                |_, i| task_seed(7, i as u64),
            );
            assert_eq!(got, reference, "workers = {workers}");
            // a part no pool thread started in time builds no scratch
            let mut owners = owners.into_inner().expect("no test panic");
            let built = owners.len();
            owners.sort_by_key(|id| format!("{id:?}"));
            owners.dedup();
            assert_eq!(owners.len(), built, "one scratch per thread");
            assert!((1..=workers).contains(&built), "{built} scratches");
        }
    }

    #[test]
    fn eight_workers_run_eight_concurrent_participants() {
        // every item waits until all eight are running, so this finishes
        // only if the pool grew to seven helpers and each took a part
        let pool = private_pool();
        let all_in = Barrier::new(8);
        let mut ids = pool.map(
            8,
            8,
            || (),
            |(), _| {
                all_in.wait();
                format!("{:?}", thread::current().id())
            },
        );
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 8);
        assert_eq!(lock(&pool.queue).threads, 7);
    }

    #[test]
    fn a_panicking_item_reaches_the_caller_and_the_pool_keeps_working() {
        let caught = panic::catch_unwind(|| {
            map_range_with_workers(16, 2, |i| {
                assert_ne!(i, 11, "item eleven fails");
                i
            })
        });
        let payload = caught.expect_err("the item's panic reaches the caller");
        let message = payload.downcast_ref::<String>().map_or("", String::as_str);
        assert!(message.contains("item eleven fails"), "{message}");
        assert_eq!(
            map_range_with_workers(16, 2, |i| i + 1),
            (1..=16).collect::<Vec<_>>()
        );
        let caught = panic::catch_unwind(|| join(2, || 1, || panic!("second fails")));
        assert!(caught.is_err());
        assert_eq!(join(2, || 1, || 2), (1, 2));
    }

    #[test]
    fn a_fan_out_nested_inside_a_pool_job_finishes_with_one_helper() {
        let pool = private_pool();
        let both_in = Barrier::new(2);
        let sums = pool.map(
            2,
            2,
            || (),
            |(), i| {
                // the caller and the one helper each hold an outer item,
                // so every nested part finds the pool busy
                both_in.wait();
                pool.map(50, 2, || (), |(), j| i * 100 + j)
                    .iter()
                    .sum::<usize>()
            },
        );
        assert_eq!(sums, vec![1225, 6225]);
        assert_eq!(lock(&pool.queue).threads, 1);
    }

    #[test]
    fn join_runs_b_inline_when_no_worker_is_idle() {
        let pool = private_pool();
        let (entered, wait_entered) = mpsc::channel();
        let (release, wait_release) = mpsc::channel::<()>();
        let wait_release = Mutex::new(wait_release);
        thread::scope(|scope| {
            // occupy the pool's one thread: `a` blocks its caller, so `b`
            // can only run on the helper
            scope.spawn(|| {
                pool.join(
                    2,
                    || lock(&wait_release).recv().ok(),
                    || {
                        entered.send(thread::current().id()).ok();
                        lock(&wait_release).recv().ok()
                    },
                )
            });
            let helper = wait_entered.recv().expect("the helper starts `b`");
            let me = thread::current().id();
            let (a, b) = pool.join(2, || thread::current().id(), || thread::current().id());
            assert_eq!((a, b), (me, me));
            assert_ne!(helper, me);
            release.send(()).ok();
            release.send(()).ok();
        });
        assert_eq!(lock(&pool.queue).threads, 1);
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
