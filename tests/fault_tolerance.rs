//! Fault-injection, graceful-degradation and checkpoint/rewind
//! integration tests: the determinism and safety contracts of the
//! fault-tolerance subsystem, exercised end to end.

#![allow(
    clippy::expect_used,
    reason = "test helpers panic freely, like the #[test] fns they serve"
)]

use cocktail_control::{
    Controller, DegradationConfig, DegradationReason, FaultyExpert, MixedController,
};
use cocktail_core::experts::cloned_experts;
use cocktail_core::metrics::{evaluate, EvalConfig};
use cocktail_core::pipeline::{Cocktail, CocktailConfig, CocktailResult};
use cocktail_core::supervisor::{DivergenceConfig, PipelineError, SupervisorConfig};
use cocktail_core::SystemId;
use cocktail_distill::DistillConfig;
use cocktail_env::fault::{FaultKind, FaultPlan};
use cocktail_env::{try_rollout, RolloutConfig};
use cocktail_math::parallel::{map_range_with_workers, task_seed};
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

/// A faulted mixed oscillator controller, built fresh per episode so the
/// stuck-at memory and quarantine clocks never leak across episodes.
fn faulted_mixed(plan: &FaultPlan, seed: u64) -> MixedController {
    let experts = oscillator_experts();
    let wrapped: Vec<Arc<dyn Controller>> = vec![
        Arc::new(FaultyExpert::new(experts[0].clone(), plan.clone(), seed)),
        experts[1].clone(),
    ];
    MixedController::new(
        wrapped,
        Arc::new(cocktail_control::ConstantWeights(vec![0.5, 0.5])),
        vec![-20.0],
        vec![20.0],
    )
    .with_degradation(DegradationConfig::default())
}

#[test]
fn faulty_rollouts_are_worker_count_invariant() {
    let sys = SystemId::Oscillator.dynamics();
    let episodes = 24;
    let run = |workers: usize| {
        map_range_with_workers(episodes, workers, |i| {
            let seed = task_seed(999, i as u64);
            // every episode gets its own random fault schedule and its own
            // injector/monitor state
            let plan = FaultPlan::random(seed, 60, 3);
            let mixed = faulted_mixed(&plan, seed);
            let mut rng = cocktail_math::rng::seeded(seed ^ 0x5EED);
            let s0 = cocktail_math::rng::uniform_in_box(&mut rng, &sys.initial_set());
            let mut control = |s: &[f64]| mixed.control(s);
            let mut no_attack = |_t: usize, s: &[f64]| s.to_vec();
            let outcome = try_rollout(
                sys.as_ref(),
                &mut control,
                &mut no_attack,
                &s0,
                &RolloutConfig {
                    horizon: Some(60),
                    seed,
                    ..Default::default()
                },
            );
            let events: Vec<(u64, usize, bool)> = mixed
                .degradation_events()
                .iter()
                .map(|e| {
                    (
                        e.call,
                        e.expert,
                        matches!(e.reason, DegradationReason::NonFinite),
                    )
                })
                .collect();
            match outcome {
                Ok(traj) => (
                    true,
                    traj.is_safe(),
                    traj.energy().to_bits(),
                    traj.states.last().expect("nonempty")[0].to_bits(),
                    events,
                ),
                Err(_) => (false, false, 0, 0, events),
            }
        })
    };
    let reference = run(1);
    assert!(
        reference
            .iter()
            .any(|(_, _, _, _, events)| !events.is_empty()),
        "the random fault plans should trip the degradation monitor at least once"
    );
    for workers in [2, 8] {
        assert_eq!(run(workers), reference, "workers = {workers}");
    }
}

#[test]
fn quarantine_keeps_a_nan_expert_safe() {
    let sys = SystemId::Oscillator.dynamics();
    let eval_config = EvalConfig {
        samples: 80,
        seed: 42,
        ..Default::default()
    };
    // a third, lightly-weighted expert on top of the two cloned ones; this
    // is the one that faults, so the quarantined mixture keeps both strong
    // experts (renormalized 0.45/0.45 → 0.5/0.5)
    let third: Arc<dyn Controller> = Arc::new(cocktail_control::LinearFeedbackController::new(
        cocktail_math::Matrix::from_rows(vec![vec![2.0, 3.0]]),
    ));
    let weights = Arc::new(cocktail_control::ConstantWeights(vec![0.45, 0.45, 0.1]));
    let mix = |last: Arc<dyn Controller>| {
        let experts = oscillator_experts();
        MixedController::new(
            vec![experts[0].clone(), experts[1].clone(), last],
            weights.clone(),
            vec![-20.0],
            vec![20.0],
        )
    };
    let nan_expert = || -> Arc<dyn Controller> {
        Arc::new(FaultyExpert::new(
            third.clone(),
            FaultPlan::permanent(FaultKind::NanOutput),
            7,
        ))
    };

    let healthy = evaluate(sys.as_ref(), &mix(third.clone()), &eval_config);
    let unguarded = evaluate(sys.as_ref(), &mix(nan_expert()), &eval_config);
    let guarded_mixed = mix(nan_expert()).with_degradation(DegradationConfig::default());
    let guarded = evaluate(sys.as_ref(), &guarded_mixed, &eval_config);

    // without quarantine every control is NaN: the rollout aborts and the
    // episode counts as unsafe
    assert_eq!(unguarded.safe_rate, 0.0, "NaN must not count as safe");
    // with quarantine the surviving experts carry the episode: within 5
    // safe-rate points of the all-healthy mixture (the issue's bound)
    assert!(
        (healthy.safe_rate - guarded.safe_rate).abs() <= 0.05,
        "guarded {} vs healthy {}",
        guarded.safe_rate,
        healthy.safe_rate
    );
    assert!(
        guarded.safe_rate > 0.5,
        "guarded rate {} should be far above the unguarded 0",
        guarded.safe_rate
    );
    // the offense is on the record, attributed to the wrapped expert
    let events = guarded_mixed.degradation_events();
    assert!(!events.is_empty(), "quarantine must log events");
    assert!(events
        .iter()
        .all(|e| e.expert == 2 && e.reason == DegradationReason::NonFinite));
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
