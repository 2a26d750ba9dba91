//! Checkpoint/rewind integration tests: kill-and-resume bit equality,
//! typed divergence errors and deterministic telemetry of the supervised
//! pipeline, exercised end to end.

#![allow(
    clippy::expect_used,
    reason = "test helpers panic freely, like the #[test] fns they serve"
)]

use cocktail_control::Controller;
use cocktail_core::experts::cloned_experts;
use cocktail_core::pipeline::{Cocktail, CocktailConfig, CocktailResult};
use cocktail_core::supervisor::{DivergenceConfig, PipelineError, SupervisorConfig};
use cocktail_core::SystemId;
use cocktail_distill::DistillConfig;
use cocktail_rl::PpoConfig;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

fn oscillator_experts() -> &'static Vec<Arc<dyn Controller>> {
    static CELL: OnceLock<Vec<Arc<dyn Controller>>> = OnceLock::new();
    CELL.get_or_init(|| cloned_experts(SystemId::Oscillator, 0))
}

/// A pipeline config small enough that the kill-and-resume drills run the
/// full pipeline several times in seconds.
fn tiny_config() -> CocktailConfig {
    CocktailConfig {
        ppo: PpoConfig {
            iterations: 4,
            episodes_per_iteration: 4,
            hidden: 8,
            ..Default::default()
        },
        distill: DistillConfig {
            epochs: 12,
            hidden: 8,
            ..Default::default()
        },
        dataset_uniform: 128,
        dataset_episodes: 4,
        ..Default::default()
    }
}

fn tiny_run(sup: &SupervisorConfig) -> Result<CocktailResult, PipelineError> {
    Cocktail::new(SystemId::Oscillator, oscillator_experts().clone())
        .with_config(tiny_config())
        .run_supervised(sup)
}

/// The bit-comparable fingerprint of a pipeline result.
fn fingerprint(result: &CocktailResult) -> (String, String, String) {
    (
        serde_json::to_string(result.kappa_star.network()).expect("serialize"),
        serde_json::to_string(result.kappa_d.network()).expect("serialize"),
        serde_json::to_string(&result.ppo_history).expect("serialize"),
    )
}

fn reference_fingerprint() -> &'static (String, String, String) {
    static CELL: OnceLock<(String, String, String)> = OnceLock::new();
    CELL.get_or_init(|| {
        let result = Cocktail::new(SystemId::Oscillator, oscillator_experts().clone())
            .with_config(tiny_config())
            .run();
        fingerprint(&result)
    })
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cocktail-ft-{tag}-{}", std::process::id()))
}

#[test]
fn telemetry_streams_are_deterministic_and_worker_count_invariant() {
    use cocktail_obs::InMemorySink;
    // same seed, same config: the event stream (durations excluded — wall
    // clock is the one non-deterministic field, and it lives outside the
    // payload) must be byte-identical run over run and for any worker count
    let run = |workers: usize| -> String {
        let sink = Arc::new(InMemorySink::new());
        let result = Cocktail::new(SystemId::Oscillator, oscillator_experts().clone())
            .with_config(tiny_config())
            .with_telemetry(sink.clone())
            .with_workers(workers)
            .run_supervised(&SupervisorConfig::default())
            .expect("healthy run");
        // attaching a sink must not perturb the trained artifacts either
        assert_eq!(&fingerprint(&result), reference_fingerprint());
        let sanitized: Vec<_> = sink
            .take()
            .into_iter()
            .map(cocktail_obs::Event::without_duration)
            .collect();
        serde_json::to_string(&sanitized).expect("events serialize")
    };
    let reference = run(1);
    for name in [
        "pipeline/preflight",
        "pipeline/ppo-mixing",
        "pipeline/dataset",
        "pipeline/direct-distill",
        "pipeline/robust-distill",
        "ppo.minibatch_updates",
        "distill.fgsm_applied",
    ] {
        assert!(reference.contains(name), "stream must mention {name}");
    }
    assert_eq!(run(1), reference, "same seed must replay the same stream");
    for workers in [2, 8] {
        assert_eq!(run(workers), reference, "workers = {workers}");
    }
}

#[test]
fn unsupervised_and_supervised_runs_agree_bit_for_bit() {
    // no checkpoint dir, no divergence: the supervised runner must be a
    // numeric no-op wrapper around the plain pipeline
    let supervised = tiny_run(&SupervisorConfig::default()).expect("healthy run");
    assert_eq!(&fingerprint(&supervised), reference_fingerprint());
}

#[test]
fn kill_and_resume_mid_ppo_matches_the_uninterrupted_run() {
    let dir = temp_dir("mid-ppo");
    std::fs::remove_dir_all(&dir).ok();

    // interrupt after 2 of the 4 PPO iterations
    let interrupted = tiny_run(&SupervisorConfig {
        interrupt_after: Some(2),
        ..SupervisorConfig::to_dir(&dir)
    });
    match interrupted {
        Err(PipelineError::Interrupted { stage, checkpoint }) => {
            assert_eq!(stage, "ppo-mixing");
            assert!(checkpoint.exists(), "checkpoint file must be on disk");
        }
        other => panic!("expected Interrupted, got {:?}", other.err()),
    }

    let resumed = tiny_run(&SupervisorConfig::to_dir(&dir)).expect("resume");
    assert_eq!(&fingerprint(&resumed), reference_fingerprint());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_and_resume_mid_distill_matches_the_uninterrupted_run() {
    let dir = temp_dir("mid-distill");
    std::fs::remove_dir_all(&dir).ok();

    // 4 PPO iterations + 5 of the 12 distillation epochs, then die
    let interrupted = tiny_run(&SupervisorConfig {
        interrupt_after: Some(9),
        ..SupervisorConfig::to_dir(&dir)
    });
    match interrupted {
        Err(PipelineError::Interrupted { stage, checkpoint }) => {
            assert_eq!(stage, "robust-distill");
            assert!(checkpoint.exists());
        }
        other => panic!("expected Interrupted, got {:?}", other.err()),
    }

    let resumed = tiny_run(&SupervisorConfig::to_dir(&dir)).expect("resume");
    assert_eq!(&fingerprint(&resumed), reference_fingerprint());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exhausted_retries_surface_as_a_typed_divergence_error() {
    // an impossibly strict collapse threshold: every unit after the first
    // counts as diverged, so the retry budget must run out
    let result = tiny_run(&SupervisorConfig {
        divergence: DivergenceConfig {
            max_retries: 1,
            collapse_drop: Some(-1.0e18),
        },
        ..SupervisorConfig::default()
    });
    match result {
        Err(PipelineError::Diverged {
            stage, attempts, ..
        }) => {
            assert_eq!(stage, "ppo-mixing");
            assert_eq!(attempts, 2, "initial attempt + 1 retry");
        }
        other => panic!("expected Diverged, got {:?}", other.err()),
    }
}

#[test]
fn checkpoints_from_a_different_seed_are_rejected() {
    let dir = temp_dir("seed-mismatch");
    std::fs::remove_dir_all(&dir).ok();

    let interrupted = tiny_run(&SupervisorConfig {
        interrupt_after: Some(1),
        ..SupervisorConfig::to_dir(&dir)
    });
    assert!(matches!(
        interrupted,
        Err(PipelineError::Interrupted { .. })
    ));

    // the same directory, but a pipeline running a different master seed,
    // or the same seed under a config with more PPO iterations (the stored
    // stage would finish under the old config)
    let more_iterations = CocktailConfig {
        ppo: PpoConfig {
            iterations: 6,
            ..tiny_config().ppo
        },
        ..tiny_config()
    };
    for (config, what) in [
        (
            CocktailConfig {
                seed: 1,
                ..tiny_config()
            },
            "seed",
        ),
        (more_iterations, "config digest"),
    ] {
        let other = Cocktail::new(SystemId::Oscillator, oscillator_experts().clone())
            .with_config(config)
            .run_supervised(&SupervisorConfig::to_dir(&dir));
        match other {
            Err(PipelineError::Checkpoint { detail, .. }) => {
                assert!(detail.contains(what), "{detail}");
            }
            other => panic!("expected Checkpoint error, got {:?}", other.err()),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
