//! End-to-end drills for the serving runtime: batch-schedule invariance,
//! deterministic backpressure, corrupted-bundle refusal, and the reactor
//! on the binary wire.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test code; panics are failures"
)]

use cocktail_control::{Controller, NnController};
use cocktail_core::SystemId;
use cocktail_math::{rng, vector};
use cocktail_nn::{Activation, Mlp, MlpBuilder};
use cocktail_obs::NullSink;
use cocktail_serve::bundle::{fnv1a_64, ControllerBundle, Provenance};
use cocktail_serve::loadgen;
use cocktail_serve::{
    admit, AdmissionError, BundleError, Engine, EngineConfig, ServeError, Ticket,
};
use rand::Rng;
use std::sync::Arc;
use std::time::Duration;

fn student() -> Mlp {
    MlpBuilder::new(2)
        .hidden(8, Activation::Tanh)
        .output(1, Activation::Tanh)
        .seed(23)
        .build()
}

fn provenance() -> Provenance {
    Provenance {
        seed: 23,
        config_hash: fnv1a_64(b"integration"),
        crate_version: env!("CARGO_PKG_VERSION").to_string(),
    }
}

fn bundle() -> ControllerBundle {
    // memoized: packaging runs the full safety-certification loop, so pay
    // for it once per test binary (coarse budgets — admission re-derives
    // with whatever the bundle ships, so cheap budgets stay sound)
    static CELL: std::sync::OnceLock<ControllerBundle> = std::sync::OnceLock::new();
    CELL.get_or_init(|| {
        let params = cocktail_verify::fast_params(SystemId::Oscillator.dynamics().as_ref());
        ControllerBundle::package_with(
            SystemId::Oscillator,
            student(),
            vec![20.0],
            provenance(),
            Some(&params),
            &NullSink,
        )
        .expect("healthy student packages")
    })
    .clone()
}

/// The per-sample reference path every batch schedule must reproduce.
fn reference(bundle: &ControllerBundle, state: &[f64]) -> Vec<f64> {
    let (net, scale) = bundle.network().expect("mlp bundle");
    let controller = NnController::new(net.clone(), scale.to_vec());
    vector::clip(&controller.control(state), &bundle.u_inf, &bundle.u_sup)
}

#[test]
fn batched_outputs_are_bit_identical_across_schedules() {
    let b = bundle();
    let admitted = admit(b.clone()).expect("admitted");
    let states = loadgen::generate_states(&b, 48, 0xBA7C);
    let expected: Vec<Vec<f64>> = states.iter().map(|s| reference(&b, s)).collect();

    for max_batch in [1usize, 4, 16] {
        let engine = Engine::start_with(
            &admitted,
            EngineConfig {
                max_batch,
                batch_deadline: Duration::from_micros(100),
                queue_capacity: 256,
                start_paused: true,
                shards: 1,
                ..EngineConfig::default()
            },
            None,
            Arc::new(NullSink),
        )
        .expect("engine starts");
        let h = engine.handle();
        // queue everything while paused so the worker has full batches to
        // form, then release: batch composition is now deterministic
        let tickets: Vec<Ticket> = states
            .iter()
            .map(|s| h.try_submit(s).expect("queued"))
            .collect();
        engine.resume();
        for (ticket, want) in tickets.into_iter().zip(&expected) {
            let got = ticket.wait().expect("served");
            assert!(!got.served_by_fallback, "healthy net never falls back");
            assert_eq!(
                &got.control, want,
                "max_batch={max_batch} must match the per-sample path bitwise"
            );
        }
    }
}

#[test]
fn backpressure_is_deterministic_under_a_seeded_burst() {
    let b = bundle();
    let admitted = admit(b.clone()).expect("admitted");
    let capacity = 8usize;
    let burst = loadgen::generate_states(&b, 20, 0xF00D);

    // two identical runs against a paused engine must refuse exactly the
    // same requests: the first `capacity` queue, the rest bounce
    let mut outcomes = Vec::new();
    for _ in 0..2 {
        let engine = Engine::start_with(
            &admitted,
            EngineConfig {
                queue_capacity: capacity,
                start_paused: true,
                ..EngineConfig::default()
            },
            None,
            Arc::new(NullSink),
        )
        .expect("engine starts");
        let h = engine.handle();
        let mut accepted = Vec::new();
        let mut pattern = Vec::new();
        for s in &burst {
            match h.try_submit(s) {
                Ok(t) => {
                    pattern.push(true);
                    accepted.push(t);
                }
                Err(ServeError::Backpressure { depth }) => {
                    assert_eq!(depth, capacity);
                    pattern.push(false);
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(pattern.iter().filter(|a| **a).count(), capacity);
        assert!(pattern[..capacity].iter().all(|a| *a), "first fill queues");
        engine.resume();
        for t in accepted {
            t.wait().expect("queued requests drain after resume");
        }
        outcomes.push(pattern);
    }
    assert_eq!(outcomes[0], outcomes[1], "rejection pattern is replayable");
}

#[test]
fn corrupted_bundles_never_serve() {
    // NaN smuggled into the weights: refused by strict validation
    let mut nan = bundle();
    if let cocktail_analysis::ControllerSpec::Mlp { net, .. } = &mut nan.spec {
        net.layers_mut()[0].weights_mut()[(0, 0)] = f64::NAN;
    }
    assert!(matches!(
        admit(nan).expect_err("NaN refused"),
        AdmissionError::Bundle(BundleError::NonFinite(_))
    ));

    // understated Lipschitz claim: certificate mismatch
    let mut lied = bundle();
    lied.lipschitz_claim *= 0.5;
    assert!(matches!(
        admit(lied).expect_err("tampered claim refused"),
        AdmissionError::ClaimMismatch { .. }
    ));

    // version skew survives the file round trip and is still refused
    let mut skewed = bundle();
    skewed.version = 99;
    let path = std::env::temp_dir().join(format!(
        "cocktail-serve-integration-skew-{}.json",
        std::process::id()
    ));
    assert!(skewed.save(&path).is_err(), "save refuses version skew");
    let healthy = bundle();
    healthy.save(&path).expect("healthy bundle saves");
    let text = std::fs::read_to_string(&path).expect("readable");
    let stamp = format!("\"version\": {}", cocktail_serve::BUNDLE_VERSION);
    assert!(text.contains(&stamp), "pretty-printed version stamp");
    std::fs::write(&path, text.replacen(&stamp, "\"version\": 99", 1)).expect("writable");
    assert!(
        ControllerBundle::load(&path).is_err(),
        "load refuses version skew"
    );
    std::fs::remove_file(&path).ok();
}

#[cfg(target_os = "linux")]
#[test]
fn tcp_smoke_serves_the_reference_bit_for_bit() {
    let b = bundle();
    let admitted = admit(b.clone()).expect("admitted");
    let engine = Engine::start(&admitted, EngineConfig::default()).expect("engine starts");
    let server = cocktail_serve::ReactorServer::bind("127.0.0.1:0", engine.handle()).expect("bind");
    let report = loadgen::run_tcp(
        &b,
        server.local_addr(),
        &loadgen::LoadGenConfig {
            requests: 96,
            connections: 4,
            seed: 0x57E4,
        },
    )
    .expect("drill runs");
    server.shutdown();
    assert!(report.is_clean(), "smoke must be clean: {report:?}");
    assert_eq!(report.completed, 96);
    assert_eq!(report.fallbacks, 0);
    assert_eq!(report.mismatches, 0);
}

#[test]
fn shard_counts_are_invariant_under_randomized_batch_schedules() {
    // the oracle: NnController::control + clip, per sample. Whatever the
    // shard count and however batches happen to form, every reply must
    // reproduce these bits.
    let b = bundle();
    let admitted = admit(b.clone()).expect("admitted");
    let states = loadgen::generate_states(&b, 96, 0x5AD5);
    let expected: Vec<Vec<f64>> = states.iter().map(|s| reference(&b, s)).collect();

    let mut schedule_rng = rng::seeded(0x5C4ED);
    for shards in [1usize, 2, 8] {
        let engine = Engine::start_with(
            &admitted,
            EngineConfig {
                max_batch: 8,
                start_paused: true,
                shards,
                ..EngineConfig::default()
            },
            None,
            Arc::new(NullSink),
        )
        .expect("engine starts");
        let h = engine.handle();
        // randomized schedule: requests arrive on random connections (so
        // random shards) in random pause/resume bursts — batch
        // composition varies wildly run to run, replies must not
        let mut tickets: Vec<(usize, Ticket)> = Vec::new();
        let mut i = 0usize;
        while i < states.len() {
            let burst = schedule_rng.gen_range(1..=16usize).min(states.len() - i);
            for _ in 0..burst {
                let conn: u64 = schedule_rng.gen_range(0..64u64);
                let t = h.pinned(conn).try_submit(&states[i]).expect("queued");
                tickets.push((i, t));
                i += 1;
            }
            if schedule_rng.gen_range(0..2u32) == 0 {
                engine.resume();
                engine.pause();
            }
        }
        engine.resume();
        for (idx, ticket) in tickets {
            let got = ticket.wait().expect("served");
            assert!(!got.served_by_fallback);
            assert_eq!(
                got.control, expected[idx],
                "shards={shards} request {idx} must match the per-sample oracle bitwise"
            );
        }
    }
}

#[cfg(target_os = "linux")]
#[test]
fn reactor_smoke_serves_the_reference_at_every_shard_count() {
    use cocktail_serve::ReactorServer;
    let b = bundle();
    let admitted = admit(b.clone()).expect("admitted");
    // (shards, connections): the 32-connection drill is the loaded case
    for (shards, connections) in [(1usize, 8usize), (4, 8), (1, 32)] {
        let engine = Engine::start_with(
            &admitted,
            EngineConfig {
                shards,
                ..EngineConfig::default()
            },
            None,
            Arc::new(NullSink),
        )
        .expect("engine starts");
        let server = ReactorServer::bind("127.0.0.1:0", engine.handle()).expect("bind");
        let report = loadgen::run_tcp(
            &b,
            server.local_addr(),
            &loadgen::LoadGenConfig {
                requests: 128,
                connections,
                seed: 0xEAC7,
            },
        )
        .expect("drill runs");
        assert!(
            report.is_clean(),
            "reactor shards={shards} connections={connections} must be clean: {report:?}"
        );
        assert!(report.p999_latency_us >= report.p99_latency_us);
        assert!(report.p99_latency_us >= report.p50_latency_us);
        server.shutdown();
    }
}

#[test]
fn loadgen_streams_are_reproducible() {
    let b = bundle();
    assert_eq!(
        loadgen::generate_states(&b, 32, 9),
        loadgen::generate_states(&b, 32, 9)
    );
    let s = loadgen::generate_states(&b, 1, 9);
    let expected = loadgen::expected_control(&b, &s[0]).expect("mlp bundle");
    assert_eq!(expected, reference(&b, &s[0]));
}
