//! Closed-loop trajectory simulation.
//!
//! The rollout driver implements the paper's Eq. 2: the controller observes
//! the *perturbed* state `s(t) + δ(t)` (attack or measurement noise), its
//! output is clipped into `U` (Eq. 4), the plant evolves from the true
//! state under disturbance `ω(t)`, and the trajectory is safe iff every
//! visited state stays inside the safe region `X`.

use crate::disturbance::DisturbanceModel;
use crate::dynamics::Dynamics;
use cocktail_math::vector;
use cocktail_obs::{Event, Telemetry};
use serde::{Deserialize, Serialize};

/// A simulated closed-loop trajectory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trajectory {
    /// Visited true states, `controls.len() + 1` entries.
    pub states: Vec<Vec<f64>>,
    /// Applied (clipped) control inputs.
    pub controls: Vec<Vec<f64>>,
    /// Step index of the first safety violation, if any.
    pub first_violation: Option<usize>,
}

impl Trajectory {
    /// Whether every visited state was safe.
    pub fn is_safe(&self) -> bool {
        self.first_violation.is_none()
    }

    /// Total control energy `Σ_t ‖u(t)‖₁` (the paper's Eq. 3 summand).
    pub fn energy(&self) -> f64 {
        self.controls.iter().map(|u| vector::norm_1(u)).sum()
    }

    /// Number of executed control steps.
    pub fn len(&self) -> usize {
        self.controls.len()
    }

    /// Whether no step was executed.
    pub fn is_empty(&self) -> bool {
        self.controls.is_empty()
    }
}

/// Structured failure of a closed-loop simulation. Always-on: unlike a
/// `debug_assert!`, these checks also protect release builds, where an
/// untested controller is most likely to run.
///
/// Both variants only fire while the trajectory is still in-spec — after a
/// safety violation (with `stop_on_violation` off) superlinear systems such
/// as Poly3d legitimately diverge to infinity, which is not an error.
#[derive(Debug, Clone, PartialEq)]
pub enum RolloutError {
    /// The controller returned a non-finite control from a finite
    /// observation before any safety violation.
    NonFiniteControl {
        /// Step at which the control was produced.
        step: usize,
        /// The offending (clipped) control vector.
        control: Vec<f64>,
    },
    /// The dynamics produced a non-finite state before any safety
    /// violation.
    NonFiniteState {
        /// Step at which the state was produced.
        step: usize,
        /// The offending state vector.
        state: Vec<f64>,
    },
}

impl std::fmt::Display for RolloutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RolloutError::NonFiniteControl { step, control } => write!(
                f,
                "controller produced a non-finite control {control:?} at step {step} \
                 from a finite observation"
            ),
            RolloutError::NonFiniteState { step, state } => write!(
                f,
                "dynamics produced a non-finite state {state:?} at step {step} \
                 before any safety violation"
            ),
        }
    }
}

impl std::error::Error for RolloutError {}

/// Configuration for [`rollout`].
#[derive(Debug, Clone)]
pub struct RolloutConfig {
    /// Number of control steps; `None` uses the system's own horizon.
    pub horizon: Option<usize>,
    /// External-disturbance model; `None` uses the system's declared
    /// uniform amplitude.
    pub disturbance: Option<DisturbanceModel>,
    /// RNG seed for disturbance sampling.
    pub seed: u64,
    /// Stop simulating at the first safety violation (default `true`;
    /// the safe-control-rate metric only needs the first violation).
    pub stop_on_violation: bool,
}

impl Default for RolloutConfig {
    fn default() -> Self {
        Self {
            horizon: None,
            disturbance: None,
            seed: 0,
            stop_on_violation: true,
        }
    }
}

/// Simulates the closed loop from `s0`.
///
/// `controller` maps the *observed* state to a control vector;
/// `perturbation` produces `δ(t)` from the step index and the true state
/// (return a zero vector for the nominal setting). The rollout clips the
/// control into `U` before applying it.
///
/// # Panics
///
/// Panics if `s0.len() != sys.state_dim()`, the controller returns a
/// vector of the wrong dimension, or the closed loop produces non-finite
/// numbers before the first safety violation (see [`try_rollout`] for the
/// fallible variant the evaluation uses).
///
/// # Examples
///
/// ```
/// use cocktail_env::{rollout, Dynamics, RolloutConfig, systems::VanDerPol};
///
/// let sys = VanDerPol::new();
/// // proportional damping controller
/// let mut controller = |s: &[f64]| vec![-2.0 * s[0] - 2.0 * s[1]];
/// let mut no_attack = |_t: usize, s: &[f64]| vec![0.0; s.len()];
/// let traj = rollout(&sys, &mut controller, &mut no_attack, &[0.5, 0.5],
///                    &RolloutConfig::default());
/// assert!(traj.is_safe());
/// ```
pub fn rollout(
    sys: &dyn Dynamics,
    controller: &mut dyn FnMut(&[f64]) -> Vec<f64>,
    perturbation: &mut dyn FnMut(usize, &[f64]) -> Vec<f64>,
    s0: &[f64],
    config: &RolloutConfig,
) -> Trajectory {
    #[allow(
        clippy::expect_used,
        reason = "the panicking wrapper is the documented convenience API; \
                  fallible callers use try_rollout"
    )]
    try_rollout(sys, controller, perturbation, s0, config)
        .expect("rollout hit a non-finite control or state")
}

/// [`rollout`] with structured error reporting instead of a panic: a
/// non-finite control (from a finite observation) or a non-finite state
/// *before* the first safety violation aborts the simulation with a
/// [`RolloutError`]. Post-violation divergence is still tolerated, since
/// superlinear plants legitimately blow up once outside the safe region.
///
/// # Errors
///
/// Returns [`RolloutError`] when the closed loop produces non-finite
/// numbers while the trajectory is still in-spec.
///
/// # Panics
///
/// Panics if `s0.len() != sys.state_dim()` or the controller returns a
/// vector of the wrong dimension (those are caller bugs, not runtime
/// faults).
pub fn try_rollout(
    sys: &dyn Dynamics,
    controller: &mut dyn FnMut(&[f64]) -> Vec<f64>,
    perturbation: &mut dyn FnMut(usize, &[f64]) -> Vec<f64>,
    s0: &[f64],
    config: &RolloutConfig,
) -> Result<Trajectory, RolloutError> {
    assert_eq!(
        s0.len(),
        sys.state_dim(),
        "initial state dimension mismatch"
    );
    let horizon = config.horizon.unwrap_or_else(|| sys.horizon());
    let disturbance = config
        .disturbance
        .clone()
        .unwrap_or_else(|| DisturbanceModel::from_amplitude(sys.disturbance_amplitude()));
    let mut rng = cocktail_math::rng::seeded(config.seed);

    let mut states = Vec::with_capacity(horizon + 1);
    let mut controls = Vec::with_capacity(horizon);
    let mut first_violation = if sys.is_safe(s0) { None } else { Some(0) };
    states.push(s0.to_vec());

    if first_violation.is_some() && config.stop_on_violation {
        return Ok(Trajectory {
            states,
            controls,
            first_violation,
        });
    }

    let mut s = s0.to_vec();
    for t in 0..horizon {
        let delta = perturbation(t, &s);
        assert_eq!(delta.len(), s.len(), "perturbation dimension mismatch");
        let observed = vector::add(&s, &delta);
        let u_raw = controller(&observed);
        assert_eq!(
            u_raw.len(),
            sys.control_dim(),
            "controller output dimension mismatch"
        );
        let u = sys.clip_control(&u_raw);
        // Only police finiteness while the trajectory is still in-spec:
        // after a violation (with stop_on_violation off) systems with
        // superlinear dynamics such as Poly3d legitimately diverge to
        // infinity within a few steps.
        if first_violation.is_none()
            && observed.iter().all(|v| v.is_finite())
            && !u.iter().all(|v| v.is_finite())
        {
            return Err(RolloutError::NonFiniteControl {
                step: t,
                control: u,
            });
        }
        let mut omega = disturbance.sample(&mut rng);
        omega.truncate(sys.disturbance_dim());
        if omega.len() < sys.disturbance_dim() {
            omega.resize(sys.disturbance_dim(), 0.0);
        }
        s = sys.step(&s, &u, &omega);
        controls.push(u);
        states.push(s.clone());
        if first_violation.is_none() && !sys.is_safe(&s) {
            first_violation = Some(t + 1);
            if config.stop_on_violation {
                break;
            }
        }
        if first_violation.is_none() && !s.iter().all(|v| v.is_finite()) {
            return Err(RolloutError::NonFiniteState {
                step: t + 1,
                state: s,
            });
        }
    }
    Ok(Trajectory {
        states,
        controls,
        first_violation,
    })
}

/// [`try_rollout`] with telemetry: reports the episode's outcome on `tel`
/// as counters (`rollout.completed`, `rollout.unsafe`,
/// `rollout.nan_detected`) plus a `rollout.abort` point carrying the step
/// and reason when the closed loop produced non-finite numbers.
///
/// Telemetry is emitted once per episode (never per step), so the
/// instrumented path costs one `enabled()` check on top of the plain
/// rollout. Do **not** call this from inside a parallel worker closure —
/// collect outcomes and emit after the join (crate `cocktail_obs`
/// documents the determinism contract).
///
/// # Errors
///
/// Exactly as [`try_rollout`].
pub fn try_rollout_observed(
    sys: &dyn Dynamics,
    controller: &mut dyn FnMut(&[f64]) -> Vec<f64>,
    perturbation: &mut dyn FnMut(usize, &[f64]) -> Vec<f64>,
    s0: &[f64],
    config: &RolloutConfig,
    tel: &dyn Telemetry,
) -> Result<Trajectory, RolloutError> {
    let result = try_rollout(sys, controller, perturbation, s0, config);
    if tel.enabled() {
        match &result {
            Ok(traj) => {
                tel.counter("rollout.completed", 1);
                if !traj.is_safe() {
                    tel.counter("rollout.unsafe", 1);
                }
            }
            Err(err) => {
                tel.counter("rollout.nan_detected", 1);
                let (step, reason) = match err {
                    RolloutError::NonFiniteControl { step, .. } => (*step, "non-finite control"),
                    RolloutError::NonFiniteState { step, .. } => (*step, "non-finite state"),
                };
                tel.record(
                    Event::point("rollout.abort")
                        .with("step", step)
                        .with("reason", reason),
                );
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems::{CartPole, VanDerPol};

    fn zero_perturbation(_t: usize, s: &[f64]) -> Vec<f64> {
        vec![0.0; s.len()]
    }

    #[test]
    fn zero_controller_on_vdp_from_origin_stays_safe() {
        let sys = VanDerPol::new();
        let mut c = |_: &[f64]| vec![0.0];
        let mut p = zero_perturbation;
        let traj = rollout(&sys, &mut c, &mut p, &[0.0, 0.0], &RolloutConfig::default());
        assert!(traj.is_safe());
        assert_eq!(traj.len(), 100);
        assert_eq!(traj.energy(), 0.0);
    }

    #[test]
    fn damping_controller_stabilizes_vdp() {
        let sys = VanDerPol::new();
        let mut c = |s: &[f64]| vec![-3.0 * s[0] - 3.0 * s[1]];
        let mut p = zero_perturbation;
        let traj = rollout(&sys, &mut c, &mut p, &[1.5, 1.5], &RolloutConfig::default());
        assert!(traj.is_safe());
        let last = traj.states.last().expect("initial state");
        assert!(cocktail_math::vector::norm_2(last) < 0.5, "final {last:?}");
    }

    #[test]
    fn uncontrolled_cartpole_violates_and_stops_early() {
        let sys = CartPole::new();
        let mut c = |_: &[f64]| vec![0.0];
        let mut p = zero_perturbation;
        let traj = rollout(
            &sys,
            &mut c,
            &mut p,
            &[0.0, 0.0, 0.15, 0.0],
            &RolloutConfig::default(),
        );
        assert!(!traj.is_safe());
        let v = traj.first_violation.expect("must violate");
        assert!(v < 200);
        assert_eq!(traj.len(), v, "stop_on_violation trims the rollout");
    }

    #[test]
    fn unsafe_initial_state_flagged_at_zero() {
        let sys = VanDerPol::new();
        let mut c = |_: &[f64]| vec![0.0];
        let mut p = zero_perturbation;
        let traj = rollout(&sys, &mut c, &mut p, &[3.0, 0.0], &RolloutConfig::default());
        assert_eq!(traj.first_violation, Some(0));
        assert!(traj.is_empty());
    }

    #[test]
    fn rollout_is_seed_deterministic() {
        let sys = VanDerPol::new();
        let run = |seed| {
            let mut c = |s: &[f64]| vec![-s[0] - s[1]];
            let mut p = zero_perturbation;
            rollout(
                &sys,
                &mut c,
                &mut p,
                &[1.0, -1.0],
                &RolloutConfig {
                    seed,
                    ..Default::default()
                },
            )
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).states, run(6).states);
    }

    #[test]
    fn perturbation_reaches_controller_not_plant() {
        let sys = VanDerPol::new();
        // controller echoes what it sees into the control; with a constant
        // +1 perturbation on s₁ the observed state differs from the true one.
        let mut seen = Vec::new();
        let mut c = |s: &[f64]| {
            seen.push(s.to_vec());
            vec![0.0]
        };
        let mut p = |_t: usize, s: &[f64]| {
            let mut d = vec![0.0; s.len()];
            d[0] = 1.0;
            d
        };
        let traj = rollout(
            &sys,
            &mut c,
            &mut p,
            &[0.0, 0.0],
            &RolloutConfig {
                horizon: Some(1),
                disturbance: Some(DisturbanceModel::None),
                ..Default::default()
            },
        );
        assert_eq!(seen[0][0], 1.0, "controller sees perturbed state");
        assert_eq!(traj.states[0][0], 0.0, "true state unperturbed");
    }

    #[test]
    fn control_is_clipped_to_bounds() {
        let sys = VanDerPol::new();
        let mut c = |_: &[f64]| vec![1000.0];
        let mut p = zero_perturbation;
        let traj = rollout(
            &sys,
            &mut c,
            &mut p,
            &[0.0, 0.0],
            &RolloutConfig {
                horizon: Some(3),
                ..Default::default()
            },
        );
        assert!(traj.controls.iter().all(|u| u[0] == 20.0));
    }

    #[test]
    fn nan_control_from_finite_observation_is_a_structured_error() {
        let sys = VanDerPol::new();
        let mut c = |_: &[f64]| vec![f64::NAN];
        let mut p = zero_perturbation;
        let err = try_rollout(&sys, &mut c, &mut p, &[0.5, 0.5], &RolloutConfig::default())
            .expect_err("NaN control must be rejected");
        match err {
            RolloutError::NonFiniteControl { step, control } => {
                assert_eq!(step, 0);
                assert!(control[0].is_nan());
            }
            other => panic!("wrong error variant: {other:?}"),
        }
    }

    #[test]
    fn infinite_control_is_clipped_not_an_error() {
        // +∞ clips into U_sup, so the loop stays finite and healthy
        let sys = VanDerPol::new();
        let mut c = |_: &[f64]| vec![f64::INFINITY];
        let mut p = zero_perturbation;
        let traj = try_rollout(
            &sys,
            &mut c,
            &mut p,
            &[0.0, 0.0],
            &RolloutConfig {
                horizon: Some(3),
                ..Default::default()
            },
        )
        .expect("clipped control is finite");
        assert!(traj.controls.iter().all(|u| u[0] == 20.0));
    }

    #[test]
    fn nan_control_from_nan_observation_is_tolerated() {
        // a corrupted sensor (non-finite observation) excuses the
        // controller; the NaN then surfaces as a state error or violation
        let sys = VanDerPol::new();
        let mut c = |s: &[f64]| vec![s[0]];
        let mut p = |_t: usize, s: &[f64]| vec![f64::NAN; s.len()];
        let result = try_rollout(&sys, &mut c, &mut p, &[0.5, 0.5], &RolloutConfig::default());
        // the NaN control drives the state to NaN, which is_safe() rejects,
        // so the run ends as a violation rather than an error
        let traj = result.expect("NaN from NaN observation is not a controller bug");
        assert!(!traj.is_safe());
    }

    #[test]
    fn rollout_error_displays_step() {
        let e = RolloutError::NonFiniteState {
            step: 7,
            state: vec![f64::NAN],
        };
        assert!(e.to_string().contains("step 7"));
        let e = RolloutError::NonFiniteControl {
            step: 3,
            control: vec![f64::NAN],
        };
        assert!(e.to_string().contains("step 3"));
    }

    #[test]
    fn observed_rollout_reports_outcome_counters() {
        let sink = cocktail_obs::InMemorySink::new();
        let sys = VanDerPol::new();
        let mut p = zero_perturbation;

        let mut healthy = |s: &[f64]| vec![-2.0 * s[0] - 2.0 * s[1]];
        try_rollout_observed(
            &sys,
            &mut healthy,
            &mut p,
            &[0.5, 0.5],
            &RolloutConfig::default(),
            &sink,
        )
        .expect("healthy loop");
        assert_eq!(sink.counter_total("rollout.completed"), 1);
        assert_eq!(sink.counter_total("rollout.nan_detected"), 0);

        let mut nan = |_: &[f64]| vec![f64::NAN];
        try_rollout_observed(
            &sys,
            &mut nan,
            &mut p,
            &[0.5, 0.5],
            &RolloutConfig::default(),
            &sink,
        )
        .expect_err("NaN control");
        assert_eq!(sink.counter_total("rollout.nan_detected"), 1);
        assert!(sink.events().iter().any(|e| e.name == "rollout.abort"
            && e.field("reason") == Some(&"non-finite control".into())));
    }

    #[test]
    fn energy_accumulates_l1_norm() {
        let sys = VanDerPol::new();
        let mut c = |_: &[f64]| vec![-2.0];
        let mut p = zero_perturbation;
        let traj = rollout(
            &sys,
            &mut c,
            &mut p,
            &[0.0, 0.0],
            &RolloutConfig {
                horizon: Some(5),
                ..Default::default()
            },
        );
        assert_eq!(traj.energy(), 10.0);
    }
}
