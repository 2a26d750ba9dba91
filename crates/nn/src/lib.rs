//! Feed-forward neural networks with backpropagation, input gradients,
//! optimizers and Lipschitz analysis.
//!
//! This crate replaces `PyTorch` for the Cocktail reproduction. It provides
//! exactly what the paper's pipeline needs:
//!
//! * [`Mlp`] — a multi-layer perceptron over `f64` with `ReLU` / Tanh /
//!   Sigmoid / Identity activations, a cached forward pass, full
//!   backpropagation for parameter gradients **and input gradients** (the
//!   FGSM step of Algorithm 1 needs `∇_s ℓ(κ*(s), u)`);
//! * [`optimizer::Adam`] and [`optimizer::Sgd`] — the update rules used for
//!   expert cloning, PPO/DDPG and distillation;
//! * [`loss`] — mean-squared-error regression loss with gradients;
//! * [`lipschitz`] — the paper's footnote-1 Lipschitz bound (product of
//!   per-layer operator norms, with the Sigmoid ¼ factor);
//! * interval bound propagation ([`Mlp::bounds`]) used by the verification
//!   crate to enclose a controller's output over a state box.
//!
//! # Examples
//!
//! Train a tiny network to regress `y = 2x` and check it generalizes:
//!
//! ```
//! use cocktail_nn::{Activation, MlpBuilder};
//! use cocktail_nn::train::{fit_regression, TrainConfig};
//!
//! let mut net = MlpBuilder::new(1)
//!     .hidden(8, Activation::Tanh)
//!     .output(1, Activation::Identity)
//!     .seed(7)
//!     .build();
//! let xs: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64 / 32.0 - 1.0]).collect();
//! let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![2.0 * x[0]]).collect();
//! fit_regression(&mut net, &xs, &ys, &TrainConfig { epochs: 400, ..TrainConfig::default() });
//! let out = net.forward(&[0.25]);
//! assert!((out[0] - 0.5).abs() < 0.1);
//! ```

pub mod activation;
pub mod fast;
pub mod fast_tier;
pub mod layer;
pub mod lipschitz;
pub mod loss;
pub mod mlp;
pub mod optimizer;
pub mod train;

pub use activation::Activation;
pub use fast::{fast_tanh, ForwardKernel, FAST_TANH_EPS};
pub use fast_tier::{certify_fast_tier, FastTierCert};
pub use layer::Dense;
pub use mlp::{BatchCache, Mlp, MlpBuilder};
pub use optimizer::{Adam, GradStore, Optimizer, Sgd};
