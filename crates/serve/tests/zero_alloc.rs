//! Proof that the shard worker's steady-state batch loop allocates
//! nothing: a counting global allocator wraps `System`, the engine is
//! warmed up, and then a full submit → batch → serve → drain round on the
//! binary-wire (outbox) reply path must register **zero** heap
//! allocations across every thread in the process.
//!
//! This is its own test binary because a `#[global_allocator]` is
//! process-wide; running it next to unrelated tests would count their
//! allocations too.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test code; panics are failures"
)]

use cocktail_nn::{Activation, MlpBuilder};
use cocktail_obs::NullSink;
use cocktail_serve::{Engine, EngineConfig, Outbox, RolloutBudget, RolloutConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System`; the bookkeeping uses
// only lock-free atomics, which themselves never allocate
static SIZES: [AtomicU64; 16] = [const { AtomicU64::new(0) }; 16];

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            let n = ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            if (n as usize) < SIZES.len() {
                SIZES[n as usize].store(layout.size() as u64, Ordering::Relaxed);
            }
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_batch_loop_is_allocation_free_on_the_outbox_path() {
    // Both are multiples of max_batch, so every batch is full and the
    // same size class serves warm-up and measurement. Warming with MORE
    // requests than the measured round over-provisions the shard's
    // pooled state buffers: the worker returns a batch's buffers at its
    // next loop-top, which can race with the next round's submits, so
    // the pool must stay deep enough to absorb one in-flight batch.
    const WARM_REQUESTS: usize = 64;
    const REQUESTS: usize = 32;
    const MAX_BATCH: usize = 8;

    let net = MlpBuilder::new(2)
        .hidden(8, Activation::Tanh)
        .output(1, Activation::Tanh)
        .seed(23)
        .build();
    let engine = Engine::from_parts(
        net,
        vec![20.0],
        vec![-20.0],
        vec![20.0],
        EngineConfig {
            max_batch: MAX_BATCH,
            queue_capacity: 256,
            shards: 1,
            ..EngineConfig::default()
        },
        None,
        Arc::new(NullSink),
    )
    .expect("engine starts");
    engine.pause();
    let pinned = engine.handle().pinned(0);
    let outbox = Arc::new(Outbox::new());
    let states: Vec<[f64; 2]> = (0..WARM_REQUESTS)
        .map(|i| {
            #[allow(clippy::cast_precision_loss, reason = "tiny test indices")]
            [i as f64 * 0.01 - 0.15, 0.2]
        })
        .collect();
    let mut drained = Vec::with_capacity(WARM_REQUESTS);

    let mut round = |count: bool, requests: usize| {
        // paused submit gives the worker full deterministic batches
        engine.pause();
        if count {
            ALLOCATIONS.store(0, Ordering::SeqCst);
            COUNTING.store(true, Ordering::SeqCst);
        }
        for (i, s) in states.iter().take(requests).enumerate() {
            pinned
                .try_submit_outbox(i as u64, s, &outbox)
                .expect("queued");
        }
        engine.resume();
        drained.clear();
        while drained.len() < requests {
            assert!(
                outbox.wait_nonempty(Duration::from_secs(10)),
                "worker answers within the deadline"
            );
            outbox.drain_into(&mut drained);
        }
        if count {
            COUNTING.store(false, Ordering::SeqCst);
        }
        for rec in &drained {
            assert!(rec.is_ok(), "healthy net serves every request");
            assert!(rec.control()[0].is_finite());
        }
    };

    let report = |phase: &str| {
        let allocations = ALLOCATIONS.load(Ordering::SeqCst);
        let sizes: Vec<u64> = SIZES
            .iter()
            .map(|s| s.load(Ordering::SeqCst))
            .take(allocations.min(16) as usize)
            .collect();
        assert_eq!(
            allocations, 0,
            "{phase} must not allocate (counted {allocations} allocations across {REQUESTS} requests; first sizes: {sizes:?})"
        );
    };

    // warm-up rounds: grow the shard's pooled state buffers, the
    // size-class batch scratch, the outbox ring, and the OS thread's
    // parking machinery
    for _ in 0..3 {
        round(false, WARM_REQUESTS);
    }
    // measured round: a full submit → serve → drain cycle
    round(true, REQUESTS);
    report("steady-state batch loop");

    // a canary in flight adds routing, the candidate forward pass, and
    // the incumbent shadow comparison to every batch — all of which must
    // run out of the same pooled scratch. The propose itself is control
    // plane (uncounted); the serving rounds are the claim.
    let candidate = MlpBuilder::new(2)
        .hidden(8, Activation::Tanh)
        .output(1, Activation::Tanh)
        .seed(29)
        .build();
    engine
        .propose_parts(
            candidate,
            vec![20.0],
            vec![-20.0],
            vec![20.0],
            &RolloutConfig {
                fraction_permille: 500,
                budget: RolloutBudget::default(),
            },
        )
        .expect("candidate installs");
    for _ in 0..3 {
        round(false, WARM_REQUESTS);
    }
    round(true, REQUESTS);
    report("canary shadow round");

    // promote on the control plane, then measure the FIRST post-swap
    // round with no intervening warm-up: the worker observes the epoch
    // swap at the counted round's first batch boundary (a refcount
    // bump), so the measurement spans the swap itself.
    engine.promote().expect("canary promotes");
    round(true, REQUESTS);
    report("first round across the promote swap");
}
