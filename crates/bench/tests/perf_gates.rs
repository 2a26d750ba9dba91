//! Wall-clock performance gates for CI's `perf` job.
//!
//! Every test here is `#[ignore]`d: timing floors are no tier-1 material,
//! because a loaded host can miss them without any code being wrong. CI
//! runs them on an optimized build, one at a time:
//!
//! ```text
//! cargo test --release -p cocktail-bench --test perf_gates -- --ignored --test-threads=1
//! ```
//!
//! Each gate takes one untimed warm-up, then [`REPEATS`] timed repeats,
//! each the best of [`TRIALS`] back-to-back trials (preemption on a shared
//! host only ever slows a trial down), and compares the medians. The
//! sizes are the fast-preset sizes the gates were calibrated at. Add
//! `--nocapture` to see the measured values.

#![allow(clippy::expect_used, reason = "test code; panics are failures")]

use cocktail_control::LinearFeedbackController;
use cocktail_core::SystemId;
use cocktail_distill::{DistillConfig, RobustDistillSession, TeacherDataset};
use cocktail_math::{parallel, Matrix};
use cocktail_nn::{Activation, BatchCache, ForwardKernel, MlpBuilder};
use cocktail_obs::{InMemorySink, NullSink, Telemetry};
use cocktail_serve::bundle::{fnv1a_64, ControllerBundle, Provenance};
use cocktail_serve::{admit, loadgen, Admitted, Engine, EngineConfig};
use cocktail_verify::{certify_controller, fast_params, SafetyVerdict};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timed repeats per measurement, after one untimed warm-up.
const REPEATS: usize = 3;

/// Back-to-back trials folded into one repeat.
const TRIALS: usize = 3;

/// One untimed warm-up, then [`REPEATS`] repeats of the `better` of
/// [`TRIALS`] trials; returns the median repeat.
fn median_of_best(mut once: impl FnMut() -> f64, better: fn(f64, f64) -> f64) -> f64 {
    let _warmup = once();
    let mut repeats: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let first = once();
            (1..TRIALS).map(|_| once()).fold(first, better)
        })
        .collect();
    repeats.sort_by(f64::total_cmp);
    repeats[REPEATS / 2]
}

/// [`median_of_best`] for a throughput: the best trial is the fastest.
fn rate(once: impl FnMut() -> f64) -> f64 {
    median_of_best(once, f64::max)
}

/// [`median_of_best`] for a duration: the best trial is the shortest.
fn duration(once: impl FnMut() -> f64) -> f64 {
    median_of_best(once, f64::min)
}

/// The Table-I student shape (2-24-24-1, tanh hidden layers).
fn student(seed: u64, output: Activation) -> cocktail_nn::Mlp {
    MlpBuilder::new(2)
        .hidden(24, Activation::Tanh)
        .hidden(24, Activation::Tanh)
        .output(1, output)
        .seed(seed)
        .build()
}

/// The certified fast-tanh kernel replaces libm `tanh` with fixed-degree
/// polynomial arithmetic; under 2x over the per-sample exact forward
/// means the kernel regressed, not that the host is merely noisy.
#[test]
#[ignore = "wall-clock gate; run with --release --ignored"]
fn fast_tanh_batched_forward_is_twice_the_per_sample_exact_forward() {
    let net = student(2, Activation::Identity);
    let batch = 64;
    let xs: Vec<Vec<f64>> = (0..batch)
        .map(|i| {
            (0..2)
                .map(|d| ((i * 7 + d * 13) % 23) as f64 / 11.5 - 1.0)
                .collect()
        })
        .collect();
    let x = Matrix::from_rows(xs.clone());
    let reps = 2_000;
    let samples = (reps * batch) as f64;
    let mut sink = 0.0;

    let per_sample = rate(|| {
        let t = Instant::now();
        for _ in 0..reps {
            for row in &xs {
                sink += net.forward(row)[0];
            }
        }
        samples / t.elapsed().as_secs_f64()
    });
    let mut cache = BatchCache::new();
    let fast_tanh = rate(|| {
        let t = Instant::now();
        for _ in 0..reps {
            net.forward_batch_cached_kernel(&x, &mut cache, ForwardKernel::FastTanh);
            sink += cache.output().row(0)[0];
        }
        samples / t.elapsed().as_secs_f64()
    });
    assert!(sink.is_finite(), "forward outputs must stay finite");

    let speedup = fast_tanh / per_sample;
    println!("fast-tanh {fast_tanh:.0} vs per-sample {per_sample:.0} samples/s: {speedup:.2}x");
    assert!(
        speedup >= 2.0,
        "fast-tanh speedup must be >= 2.0, got {speedup:.3}"
    );
}

/// The benchmark student as an admitted bundle carrying the coarse
/// `fast_params` safety certificate.
fn admitted_student() -> Admitted {
    let safety_params = fast_params(SystemId::Oscillator.dynamics().as_ref());
    let bundle = ControllerBundle::package_with(
        SystemId::Oscillator,
        student(4, Activation::Tanh),
        vec![20.0],
        Provenance {
            seed: 4,
            config_hash: fnv1a_64(b"bench-serve"),
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
        },
        Some(&safety_params),
        &NullSink,
    )
    .expect("benchmark student packages");
    admit(bundle).expect("benchmark bundle admits")
}

/// Median requests/second of `submitters` blocking, shard-pinned
/// submitters sharing 800 requests over an engine with `shards` shards,
/// zero batch deadline and a queue of 4 per submitter.
fn served_rate(admitted: &Admitted, submitters: usize, shards: usize) -> f64 {
    let states = loadgen::generate_states(&admitted.bundle, 800, 0xBE7C);
    let engine = Engine::start_with(
        admitted,
        EngineConfig {
            max_batch: submitters,
            batch_deadline: Duration::ZERO,
            queue_capacity: 4 * submitters,
            shards,
            ..EngineConfig::default()
        },
        None,
        Arc::new(NullSink),
    )
    .expect("engine starts");
    let handle = engine.handle();
    rate(|| {
        let t = Instant::now();
        std::thread::scope(|scope| {
            for w in 0..submitters {
                let pinned = handle.pinned(w as u64);
                let states = &states;
                scope.spawn(move || {
                    for s in states.iter().skip(w).step_by(submitters) {
                        pinned.submit(s).expect("request serves");
                    }
                });
            }
        });
        states.len() as f64 / t.elapsed().as_secs_f64()
    })
}

/// Micro-batching must never make 32 concurrent submitters slower than
/// one.
#[test]
#[ignore = "wall-clock gate; run with --release --ignored"]
fn thirty_two_submitters_serve_no_slower_than_one() {
    let admitted = admitted_student();
    let batch1 = served_rate(&admitted, 1, 1);
    let batch32 = served_rate(&admitted, 32, 1);
    let speedup = batch32 / batch1;
    println!("batch-32 {batch32:.0} vs batch-1 {batch1:.0} req/s: {speedup:.2}x");
    assert!(
        speedup >= 1.0,
        "batch-32 must not be slower than batch-1: speedup {speedup:.3}"
    );
}

/// One shard is one worker thread, so shard scaling only exists on a host
/// with the cores for it. The 1.2 floor sits well below the ~2x a quiet
/// 4-core host shows, because shared hosts time-slice unpredictably.
#[test]
#[ignore = "wall-clock gate; run with --release --ignored"]
fn four_shards_beat_one_when_the_host_has_four_cores() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if cores < 4 {
        println!("shard scaling not gated: {cores} cores < 4");
        return;
    }
    let admitted = admitted_student();
    let shard1 = served_rate(&admitted, 32, 1);
    let shard4 = served_rate(&admitted, 32, 4);
    let speedup = shard4 / shard1;
    println!("4 shards {shard4:.0} vs 1 shard {shard1:.0} req/s on {cores} cores: {speedup:.2}x");
    assert!(
        speedup >= 1.2,
        "4 shards must beat 1 shard on {cores} cores: speedup {speedup:.3}"
    );
}

/// A disabled `NullSink` skips all event construction, so robust
/// distillation under it must not be meaningfully slower than under a
/// recording sink; a ratio at or below 0.7 means the `enabled()` gate
/// broke.
#[test]
#[ignore = "wall-clock gate; run with --release --ignored"]
fn null_sink_distillation_keeps_pace_with_a_recording_sink() {
    let sys = SystemId::Oscillator.dynamics();
    let teacher = LinearFeedbackController::new(Matrix::from_rows(vec![vec![3.0, 4.0]]));
    let data = TeacherDataset::sample_uniform(&teacher, &sys.verification_domain(), 512, 9);
    let distill = DistillConfig {
        epochs: 10,
        hidden: 16,
        ..Default::default()
    };
    let epoch_rate = |tel: Option<Arc<dyn Telemetry>>| {
        let mut session = RobustDistillSession::new(&data, &distill);
        if let Some(tel) = tel {
            session.set_telemetry(tel);
        }
        let t = Instant::now();
        while !session.is_complete() {
            session.step_epoch(&data);
        }
        distill.epochs as f64 / t.elapsed().as_secs_f64()
    };
    let null = rate(|| epoch_rate(None));
    let recording = rate(|| epoch_rate(Some(Arc::new(InMemorySink::new()))));
    let ratio = null / recording;
    println!("null sink {null:.1} vs recording {recording:.1} epochs/s: {ratio:.2}");
    assert!(
        ratio > 0.7,
        "telemetry overhead ratio must be > 0.7, got {ratio:.3}"
    );
}

/// One full safety certification of a small student under the coarse
/// `fast_params` budgets: the wall time is measured and the verdict is
/// one of the two a completed certification can give.
#[test]
#[ignore = "wall-clock gate; run with --release --ignored"]
fn fast_params_certification_is_timed_with_a_verdict() {
    let sys = SystemId::Oscillator.dynamics();
    let net = MlpBuilder::new(2)
        .hidden(12, Activation::Tanh)
        .output(1, Activation::Tanh)
        .seed(4)
        .build();
    let params = fast_params(sys.as_ref());
    let workers = parallel::default_workers();
    let mut verdict = None;
    let certify_ms = duration(|| {
        let t = Instant::now();
        let cert = certify_controller(sys.as_ref(), &net, &[20.0], &params, workers, &NullSink)
            .expect("fast_params budgets certify");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        verdict = Some(cert.verdict);
        ms
    });
    let verdict = verdict.expect("certification ran");
    println!("certify {certify_ms:.1} ms, verdict {}", verdict.label());
    assert!(
        certify_ms > 0.0,
        "certify_ms must be positive, got {certify_ms}"
    );
    // a completed certification gives one of the two verdicts; this is
    // the gate that tightens to `Safe` once the benchmark student proves
    assert!(
        matches!(verdict, SafetyVerdict::Safe | SafetyVerdict::NotProven),
        "unknown safety verdict {verdict:?}"
    );
}
