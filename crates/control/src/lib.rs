//! Controller abstractions for the Cocktail reproduction.
//!
//! The paper manipulates five kinds of controllers; this crate implements
//! all of them behind the object-safe [`Controller`] trait:
//!
//! * [`NnController`] — a neural controller `u = scale ⊙ net(s)` (the
//!   DDPG-style experts `κ₁`, `κ₂` and the distilled students `κ_D`, `κ*`);
//! * [`LinearFeedbackController`] — `u = −K s` (LQR-style laws used to
//!   manufacture suboptimal experts);
//! * [`PolynomialController`] — the model-based expert of the 3D system
//!   (Sassi et al. \[25\] synthesize polynomial feedback);
//! * [`SwitchingController`] — the discrete-adaptation baseline `A_S` \[4\]:
//!   exactly one expert is active at each step, chosen by a selector
//!   (greedy one-step lookahead here; an RL-trained selector lives in
//!   `cocktail-rl`);
//! * [`MixedController`] — the paper's `A_W`: the weighted expert
//!   combination `u = clip(Σ aᵢ(s) κᵢ(s), U_inf, U_sup)` with weights from
//!   an adaptive policy network (Eq. 4).
//!
//! # Examples
//!
//! ```
//! use cocktail_control::{Controller, LinearFeedbackController};
//! use cocktail_math::Matrix;
//!
//! let lqr = LinearFeedbackController::new(Matrix::from_rows(vec![vec![2.0, 3.0]]));
//! assert_eq!(lqr.control(&[1.0, 1.0]), vec![-5.0]);
//! ```

pub mod controller;
pub mod linear;
pub mod lqr;
pub mod mixed;
pub mod neural;
pub mod polynomial;
pub mod switching;

pub use controller::Controller;
pub use linear::LinearFeedbackController;
pub use lqr::{dlqr, linearize, lqr_controller, Linearization, SynthesizeLqrError};
pub use mixed::ConstantWeights;
pub use mixed::{MixedController, WeightPolicy};
pub use neural::NnController;
pub use polynomial::PolynomialController;
pub use switching::{FnSelector, GreedySelector, Selector, SwitchingController};
