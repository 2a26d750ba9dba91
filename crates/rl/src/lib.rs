//! Reinforcement-learning substrate: PPO and DDPG.
//!
//! The Cocktail pipeline uses RL in three places, all served by this crate:
//!
//! 1. **Adaptive mixing** (the paper's core step) — [`ppo::PpoTrainer`]
//!    learns a Gaussian policy over the continuous weight vector
//!    `a ∈ [-A_B, A_B]ⁿ` of the mixing MDP ([`mdp::MixingMdp`]), maximizing
//!    the safety-punishment / energy reward of Section III-A;
//! 2. **The switching baseline `A_S`** — [`ppo::PpoTrainer`] in categorical
//!    mode ([`mdp::SwitchingMdp`]) learns which single expert to activate,
//!    reproducing the discrete-adaptation method of \[4\] that the paper
//!    compares against;
//! 3. **Expert training** (Remark 1 / Section IV) — [`ddpg::DdpgTrainer`]
//!    trains neural experts directly on the plant
//!    ([`mdp::DirectControlMdp`]), mirroring the paper's DDPG-with-
//!    different-hyperparameters expert construction.
//!
//! Everything is seeded and CPU-sized: the networks have a few thousand
//! parameters and the plants a handful of dimensions, so full training runs
//! take seconds to minutes.
//!
//! # Examples
//!
//! Train a PPO mixing policy on a toy double-integrator MDP:
//!
//! ```
//! use cocktail_rl::mdp::Mdp;
//! use cocktail_rl::ppo::{PpoConfig, PpoTrainer};
//!
//! // a tiny MDP: state x ∈ R, action a ∈ [-1,1], reward -x², x' = x + 0.1 a
//! struct Toy { x: f64, t: usize }
//! impl Mdp for Toy {
//!     fn state_dim(&self) -> usize { 1 }
//!     fn action_dim(&self) -> usize { 1 }
//!     fn action_bound(&self) -> f64 { 1.0 }
//!     fn reset(&mut self, rng: &mut dyn rand::RngCore) -> Vec<f64> {
//!         use rand::Rng;
//!         self.x = rng.gen_range(-1.0..=1.0); self.t = 0; vec![self.x]
//!     }
//!     fn step(&mut self, a: &[f64]) -> (Vec<f64>, f64, bool) {
//!         self.x += 0.1 * a[0].clamp(-1.0, 1.0);
//!         self.t += 1;
//!         (vec![self.x], -self.x * self.x, self.t >= 20)
//!     }
//! }
//! // one fresh episode MDP per episode seed (the toy ignores the seed)
//! let episode = |_seed: u64| -> Box<dyn Mdp> { Box::new(Toy { x: 0.0, t: 0 }) };
//! let config = PpoConfig { iterations: 3, episodes_per_iteration: 4, ..PpoConfig::default() };
//! let trained = PpoTrainer::new(&config, 1, 1).train_episodes(&episode);
//! assert_eq!(trained.policy.mean_net().input_dim(), 1);
//! ```

pub mod buffer;
pub mod ddpg;
pub mod gae;
pub mod gaussian;
pub mod mdp;
pub mod noise;
pub mod ppo;
pub mod reward;

pub use ddpg::{DdpgConfig, DdpgTrainer};
pub use mdp::{DirectControlMdp, EpisodeFactory, Mdp, MixingMdp, SwitchingMdp};
pub use ppo::{PpoCheckpoint, PpoConfig, PpoSession, PpoTrainer, TrainedPolicy};
pub use reward::RewardConfig;
