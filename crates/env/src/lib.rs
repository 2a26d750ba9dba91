//! Discrete-time nonlinear plant models and trajectory rollouts.
//!
//! This crate is the simulation substrate of the Cocktail reproduction. It
//! defines the paper's system model (Section II)
//!
//! ```text
//! s(t+1) = f(s(t), u(t), ω(t), δ(t))
//! ```
//!
//! through the [`Dynamics`] trait and implements the three benchmark plants
//! of Section IV with the paper's exact parameters:
//!
//! * [`systems::VanDerPol`] — the oscillator, `τ = 0.05`, `X = X₀ = [-2,2]²`,
//!   `u ∈ [-20, 20]`, `ω ~ U[-0.05, 0.05]`, `T = 100`;
//! * [`systems::Poly3d`] — example 15 of Sassi et al. \[25\], Euler-discretized
//!   at `τ = 0.05`, `X = X₀ = [-0.5, 0.5]³`, `u ∈ [-10, 10]`, `T = 100`;
//! * [`systems::CartPole`] — the classic cartpole with
//!   `m_c = 1, m_p = 0.1, l = 1, τ = 0.02`, `T = 200`,
//!   `X = {|s₁| ≤ 2.4, |s₃| ≤ 0.209}`, `X₀ = [-0.2, 0.2]⁴`.
//!
//! State perturbations `δ(t)` (attacks / measurement noise) are applied to
//! the state *observed by the controller*, matching the paper's threat
//! model; the plant itself evolves from the true state. The [`mod@rollout`]
//! module provides the closed-loop simulator that the safe-control-rate and
//! energy metrics are computed from, and every system also exposes a sound
//! interval step ([`Dynamics::step_interval`]) for the verification crate.
//!
//! # Examples
//!
//! ```
//! use cocktail_env::{Dynamics, systems::VanDerPol};
//!
//! let sys = VanDerPol::new();
//! let next = sys.step(&[1.0, 0.0], &[0.0], &[0.0]);
//! assert_eq!(next.len(), 2);
//! assert!(sys.is_safe(&next));
//! ```

pub mod disturbance;
pub mod dynamics;
pub mod rollout;
pub mod systems;

pub use disturbance::DisturbanceModel;
pub use dynamics::Dynamics;
pub use rollout::{
    rollout, try_rollout, try_rollout_observed, RolloutConfig, RolloutError, Trajectory,
};
