//! The paper's evaluation metrics (Properties 1–3).

use cocktail_control::Controller;
use cocktail_distill::AttackModel;
use cocktail_env::{rollout, try_rollout, Dynamics, RolloutConfig};
use cocktail_obs::{Event, NullSink, Span, Telemetry};
use serde::{Deserialize, Serialize};

/// Configuration of a sampling-based evaluation run.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Number of initial states drawn uniformly from `X₀` (the paper
    /// uses 500).
    pub samples: usize,
    /// RNG seed for the initial states, disturbances and noise.
    pub seed: u64,
    /// Per-step perturbation `δ(t)` of the controller's observation.
    pub attack: AttackModel,
    /// Override the evaluation horizon (defaults to the system's `T`).
    pub horizon: Option<usize>,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            samples: 500,
            seed: 42,
            attack: AttackModel::None,
            horizon: None,
        }
    }
}

/// The outcome of an evaluation run.
///
/// Mirrors Table I/II rows: `safe_rate` is the paper's `S_r` and
/// `mean_energy` its `e` (Eq. 3, averaged over the trajectories that stay
/// inside the safe region for the entire horizon).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// Fraction of sampled initial states whose trajectory stays safe.
    pub safe_rate: f64,
    /// Mean `Σ_t ‖u(t)‖₁` over the safe trajectories (`NaN` when none).
    pub mean_energy: f64,
    /// Number of safe trajectories.
    pub safe_count: usize,
    /// Total sampled initial states.
    pub samples: usize,
}

impl Evaluation {
    /// `S_r` in percent, as printed in the paper's tables.
    pub fn safe_rate_percent(&self) -> f64 {
        100.0 * self.safe_rate
    }
}

// Hand-written rather than derived: `mean_energy` is documented NaN when
// no trajectory is safe, and upstream serde_json flattens a NaN f64 to
// `null`, which the derived Deserialize then rejects — a saved report
// with a zero-safe row would not round-trip. NaN is therefore encoded
// *as* `null` on purpose (strict-JSON friendly) and decoded back to NaN.
impl Serialize for Evaluation {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("safe_rate".to_string(), self.safe_rate.to_value()),
            (
                "mean_energy".to_string(),
                if self.mean_energy.is_nan() {
                    serde::Value::Null
                } else {
                    self.mean_energy.to_value()
                },
            ),
            ("safe_count".to_string(), self.safe_count.to_value()),
            ("samples".to_string(), self.samples.to_value()),
        ])
    }
}

impl Deserialize for Evaluation {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let fields = v
            .as_map()
            .ok_or_else(|| serde::DeError::custom("Evaluation: expected a map"))?;
        let mean_energy = match serde::__field(fields, "mean_energy")? {
            serde::Value::Null => f64::NAN,
            other => f64::from_value(other)?,
        };
        Ok(Self {
            safe_rate: f64::from_value(serde::__field(fields, "safe_rate")?)?,
            mean_energy,
            safe_count: usize::from_value(serde::__field(fields, "safe_count")?)?,
            samples: usize::from_value(serde::__field(fields, "samples")?)?,
        })
    }
}

/// Per-sample outcome of [`evaluate_one`]: safe (with its energy), unsafe,
/// or aborted on non-finite numbers. The distinction lets the parallel
/// evaluation merge per-worker counters deterministically after the join.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SampleOutcome {
    Safe(f64),
    Unsafe,
    Aborted,
}

/// Simulates sample `i` of an evaluation run. Initial states are drawn
/// from a single sequential stream computed up-front so the parallel and
/// sequential paths are bit-identical.
fn evaluate_one(
    sys: &dyn Dynamics,
    controller: &dyn Controller,
    config: &EvalConfig,
    s0: &[f64],
    i: usize,
) -> SampleOutcome {
    let mut control_fn = |s: &[f64]| controller.control(s);
    let mut perturb = config
        .attack
        .perturbation(controller, config.seed ^ (i as u64) << 1);
    // a controller that emits NaN/Inf (e.g. a faulted expert without
    // quarantine) counts as unsafe rather than poisoning the aggregate
    match try_rollout(
        sys,
        &mut control_fn,
        &mut perturb,
        s0,
        &RolloutConfig {
            horizon: config.horizon,
            seed: config.seed.wrapping_add(1).wrapping_add(i as u64),
            ..Default::default()
        },
    ) {
        Ok(traj) if traj.is_safe() => SampleOutcome::Safe(traj.energy()),
        Ok(_) => SampleOutcome::Unsafe,
        Err(_) => SampleOutcome::Aborted,
    }
}

/// Estimates the safe control rate and control energy of a controller by
/// closed-loop simulation from sampled initial states (Section IV's
/// protocol: 500 random initial states from `X₀`). Samples are simulated
/// across all available CPU cores; the result is identical to a
/// sequential run with the same seed.
///
/// # Panics
///
/// Panics if `config.samples == 0` or the controller's dimensions disagree
/// with the plant.
pub fn evaluate(
    sys: &dyn Dynamics,
    controller: &dyn Controller,
    config: &EvalConfig,
) -> Evaluation {
    evaluate_with_workers(
        sys,
        controller,
        config,
        cocktail_math::parallel::default_workers(),
    )
}

/// [`evaluate`] with an explicit worker count. The result is bit-identical
/// for every `workers >= 1`.
///
/// # Panics
///
/// Panics if `config.samples == 0` or the controller's dimensions disagree
/// with the plant.
pub fn evaluate_with_workers(
    sys: &dyn Dynamics,
    controller: &dyn Controller,
    config: &EvalConfig,
    workers: usize,
) -> Evaluation {
    evaluate_with_telemetry(sys, controller, config, workers, &NullSink)
}

/// [`evaluate_with_workers`] with telemetry: opens an `evaluate` span named
/// after the controller and reports `eval.samples`, `eval.safe`,
/// `rollout.unsafe` and `rollout.nan_detected` counters plus an
/// `eval.result` point.
///
/// The rollouts themselves run inside parallel workers, which must not
/// touch the sink (the event stream would become scheduling-dependent);
/// each sample instead reports a `SampleOutcome` and the counters are
/// merged in sample order after the join, so the stream is bit-identical
/// for every worker count.
///
/// # Panics
///
/// Panics if `config.samples == 0` or the controller's dimensions disagree
/// with the plant.
pub fn evaluate_with_telemetry(
    sys: &dyn Dynamics,
    controller: &dyn Controller,
    config: &EvalConfig,
    workers: usize,
    tel: &dyn Telemetry,
) -> Evaluation {
    assert!(config.samples > 0, "evaluation needs at least one sample");
    assert_eq!(
        controller.state_dim(),
        sys.state_dim(),
        "controller state dim mismatch"
    );
    assert_eq!(
        controller.control_dim(),
        sys.control_dim(),
        "controller control dim mismatch"
    );
    let _span = Span::enter_with(
        tel,
        "evaluate",
        vec![("controller".to_string(), controller.name().into())],
    );
    let x0 = sys.initial_set();
    // draw all initial states from one sequential stream (determinism)
    let mut rng = cocktail_math::rng::seeded(config.seed);
    let starts: Vec<Vec<f64>> = (0..config.samples)
        .map(|_| cocktail_math::rng::uniform_in_box(&mut rng, &x0))
        .collect();

    let results: Vec<SampleOutcome> =
        cocktail_math::parallel::map_indexed_with_workers(&starts, workers, |i, s0| {
            evaluate_one(sys, controller, config, s0, i)
        });

    let energies: Vec<f64> = results
        .iter()
        .filter_map(|r| match r {
            SampleOutcome::Safe(e) => Some(*e),
            _ => None,
        })
        .collect();
    let safe = energies.len();
    let evaluation = Evaluation {
        safe_rate: safe as f64 / config.samples as f64,
        mean_energy: if energies.is_empty() {
            f64::NAN
        } else {
            cocktail_math::stats::mean(&energies)
        },
        safe_count: safe,
        samples: config.samples,
    };
    if tel.enabled() {
        // post-join merge, in sample order: deterministic for any worker count
        let aborted = results
            .iter()
            .filter(|r| matches!(r, SampleOutcome::Aborted))
            .count() as u64;
        let unsafe_count = results
            .iter()
            .filter(|r| matches!(r, SampleOutcome::Unsafe))
            .count() as u64;
        tel.counter("eval.samples", config.samples as u64);
        tel.counter("eval.safe", safe as u64);
        tel.counter("rollout.unsafe", unsafe_count + aborted);
        tel.counter("rollout.nan_detected", aborted);
        tel.record(
            Event::point("eval.result")
                .with("controller", controller.name())
                .with("safe_rate", evaluation.safe_rate)
                .with("mean_energy", evaluation.mean_energy),
        );
    }
    evaluation
}

/// The control signal `u(t)` of one closed-loop run under a perturbation
/// model — the data behind Fig. 2. Returns one value per step for
/// single-input plants (the paper's plots are 1-D controls).
///
/// # Panics
///
/// Panics if the plant has more than one control input or dimensions
/// mismatch.
pub fn signal_trace(
    sys: &dyn Dynamics,
    controller: &dyn Controller,
    s0: &[f64],
    attack: &AttackModel,
    seed: u64,
) -> Vec<f64> {
    assert_eq!(
        sys.control_dim(),
        1,
        "signal traces are for single-input plants"
    );
    let mut control_fn = |s: &[f64]| controller.control(s);
    let mut perturb = attack.perturbation(controller, seed);
    let traj = rollout(
        sys,
        &mut control_fn,
        &mut perturb,
        s0,
        &RolloutConfig {
            seed: seed.wrapping_add(1),
            stop_on_violation: false,
            ..Default::default()
        },
    );
    traj.controls.iter().map(|u| u[0]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocktail_control::LinearFeedbackController;
    use cocktail_env::systems::VanDerPol;
    use cocktail_math::Matrix;

    fn damped() -> LinearFeedbackController {
        LinearFeedbackController::new(Matrix::from_rows(vec![vec![3.0, 4.0]]))
    }

    fn undamped() -> LinearFeedbackController {
        LinearFeedbackController::new(Matrix::from_rows(vec![vec![0.0, 0.0]]))
    }

    #[test]
    fn good_controller_scores_high_safe_rate() {
        let sys = VanDerPol::new();
        let eval = evaluate(
            &sys,
            &damped(),
            &EvalConfig {
                samples: 200,
                ..Default::default()
            },
        );
        assert!(eval.safe_rate > 0.8, "S_r {}", eval.safe_rate);
        assert!(eval.mean_energy > 0.0);
        assert_eq!(eval.samples, 200);
    }

    #[test]
    fn zero_controller_scores_lower() {
        let sys = VanDerPol::new();
        let cfg = EvalConfig {
            samples: 200,
            ..Default::default()
        };
        let good = evaluate(&sys, &damped(), &cfg);
        let bad = evaluate(&sys, &undamped(), &cfg);
        assert!(
            bad.safe_rate < good.safe_rate,
            "bad {} good {}",
            bad.safe_rate,
            good.safe_rate
        );
    }

    #[test]
    fn attack_degrades_or_matches_nominal() {
        let sys = VanDerPol::new();
        let nominal = evaluate(
            &sys,
            &damped(),
            &EvalConfig {
                samples: 150,
                ..Default::default()
            },
        );
        let attacked = evaluate(
            &sys,
            &damped(),
            &EvalConfig {
                samples: 150,
                attack: AttackModel::scaled_to(&sys.verification_domain(), 0.15, true),
                ..Default::default()
            },
        );
        assert!(attacked.safe_rate <= nominal.safe_rate + 0.05);
    }

    #[test]
    fn evaluation_is_seed_deterministic() {
        let sys = VanDerPol::new();
        let cfg = EvalConfig {
            samples: 50,
            seed: 9,
            ..Default::default()
        };
        let a = evaluate(&sys, &damped(), &cfg);
        let b = evaluate(&sys, &damped(), &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn evaluation_is_worker_count_invariant() {
        let sys = VanDerPol::new();
        let cfg = EvalConfig {
            samples: 60,
            seed: 11,
            ..Default::default()
        };
        let reference = evaluate_with_workers(&sys, &damped(), &cfg, 1);
        for workers in [2, 8] {
            let got = evaluate_with_workers(&sys, &damped(), &cfg, workers);
            assert_eq!(got, reference, "workers = {workers}");
        }
    }

    #[test]
    fn signal_trace_has_horizon_length() {
        let sys = VanDerPol::new();
        let trace = signal_trace(&sys, &damped(), &[0.5, 0.5], &AttackModel::None, 3);
        assert_eq!(trace.len(), 100);
        assert!(trace.iter().all(|u| u.abs() <= 20.0));
    }

    #[test]
    fn safe_percent_scales() {
        let e = Evaluation {
            safe_rate: 0.984,
            mean_energy: 1.0,
            safe_count: 492,
            samples: 500,
        };
        assert!((e.safe_rate_percent() - 98.4).abs() < 1e-12);
    }

    #[test]
    fn zero_safe_evaluation_round_trips_as_strict_json() {
        // an uncontrolled cartpole from a tilted pole never stays safe, so
        // mean_energy is the documented NaN
        let sys = cocktail_env::systems::CartPole::new();
        let eval = evaluate(
            &sys,
            &cocktail_control::LinearFeedbackController::new(Matrix::from_rows(vec![vec![
                0.0, 0.0, 0.0, 0.0,
            ]])),
            &EvalConfig {
                samples: 20,
                ..Default::default()
            },
        );
        assert_eq!(eval.safe_count, 0, "cartpole must fall uncontrolled");
        assert!(eval.mean_energy.is_nan());

        let json = serde_json::to_string(&eval).expect("serialize");
        assert!(
            json.contains("\"mean_energy\":null"),
            "NaN must encode as null, got {json}"
        );
        assert!(!json.contains("NaN"), "no bare NaN literal: {json}");
        let back: Evaluation = serde_json::from_str(&json).expect("round-trip");
        assert!(back.mean_energy.is_nan());
        assert_eq!(back.safe_count, eval.safe_count);
        assert_eq!(back.samples, eval.samples);
        assert_eq!(back.safe_rate, eval.safe_rate);
    }

    #[test]
    fn finite_evaluation_round_trips_bit_for_bit() {
        let e = Evaluation {
            safe_rate: 0.75,
            mean_energy: 123.456,
            safe_count: 15,
            samples: 20,
        };
        let back: Evaluation = serde_json::from_str(&serde_json::to_string(&e).expect("serialize"))
            .expect("round-trip");
        assert_eq!(back, e);
    }

    #[test]
    fn telemetry_evaluation_merges_counters_deterministically() {
        let sys = VanDerPol::new();
        let cfg = EvalConfig {
            samples: 40,
            seed: 11,
            ..Default::default()
        };
        let run = |workers: usize| {
            let sink = cocktail_obs::InMemorySink::new();
            let eval = evaluate_with_telemetry(&sys, &damped(), &cfg, workers, &sink);
            (
                eval,
                sink.take()
                    .into_iter()
                    .map(cocktail_obs::Event::without_duration)
                    .collect::<Vec<_>>(),
            )
        };
        let (reference_eval, reference_events) = run(1);
        assert!(!reference_events.is_empty());
        for workers in [2, 8] {
            let (eval, events) = run(workers);
            assert_eq!(eval, reference_eval, "workers = {workers}");
            assert_eq!(events, reference_events, "workers = {workers}");
        }
        // instrumented and plain paths agree numerically
        assert_eq!(
            evaluate_with_workers(&sys, &damped(), &cfg, 2),
            reference_eval
        );
    }
}
