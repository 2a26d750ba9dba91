//! MDP abstractions and the three MDPs the Cocktail pipeline trains on.

use crate::reward::RewardConfig;
use cocktail_control::Controller;
use cocktail_env::{DisturbanceModel, Dynamics};
use cocktail_math::vector;
use rand::RngCore;
use std::sync::Arc;

/// A continuous-action episodic MDP with symmetric action bounds.
///
/// Actions are vectors in `[-action_bound, action_bound]^action_dim`;
/// trainers clip before stepping. `reset` starts a fresh episode and
/// returns the initial observation; `step` returns
/// `(next_state, reward, done)`.
pub trait Mdp {
    /// Observation dimension.
    fn state_dim(&self) -> usize;
    /// Action dimension.
    fn action_dim(&self) -> usize;
    /// Symmetric per-component action bound.
    fn action_bound(&self) -> f64;
    /// Starts a new episode.
    fn reset(&mut self, rng: &mut dyn RngCore) -> Vec<f64>;
    /// Applies an action.
    ///
    /// # Panics
    ///
    /// Implementations panic if `action.len() != self.action_dim()`.
    fn step(&mut self, action: &[f64]) -> (Vec<f64>, f64, bool);
}

/// Constructs independent episodes of an MDP family from a seed.
///
/// [`Mdp`] is deliberately stateful (`reset`/`step` take `&mut self`), which
/// makes a single instance unusable for parallel episode collection. A
/// factory instead builds one fresh MDP per episode; the seed fully
/// determines the episode's internal randomness (e.g. the disturbance
/// stream), so collection driven by
/// [`cocktail_math::parallel::task_seed`]-derived seeds is bit-identical for
/// any worker count.
///
/// Any `Fn(u64) -> Box<dyn Mdp>` that is `Sync` is a factory:
///
/// ```
/// use cocktail_rl::mdp::{EpisodeFactory, Mdp, MixingMdp};
/// use cocktail_rl::RewardConfig;
/// use cocktail_control::LinearFeedbackController;
/// use cocktail_env::systems::VanDerPol;
/// use cocktail_math::Matrix;
/// use std::sync::Arc;
///
/// let sys: Arc<dyn cocktail_env::Dynamics> = Arc::new(VanDerPol::new());
/// let experts: Vec<Arc<dyn cocktail_control::Controller>> = vec![Arc::new(
///     LinearFeedbackController::new(Matrix::from_rows(vec![vec![1.0, 1.5]])),
/// )];
/// let factory = move |seed: u64| -> Box<dyn Mdp> {
///     Box::new(MixingMdp::new(
///         sys.clone(),
///         experts.clone(),
///         1.5,
///         RewardConfig::default(),
///         seed,
///     ))
/// };
/// let episode = factory.make_episode(7);
/// assert_eq!(episode.state_dim(), 2);
/// ```
pub trait EpisodeFactory: Sync {
    /// Builds a fresh episode MDP whose internal randomness derives from
    /// `seed`.
    fn make_episode(&self, seed: u64) -> Box<dyn Mdp>;
}

impl<F> EpisodeFactory for F
where
    F: Fn(u64) -> Box<dyn Mdp> + Sync,
{
    fn make_episode(&self, seed: u64) -> Box<dyn Mdp> {
        self(seed)
    }
}

/// Shared plant-episode machinery for the concrete MDPs below.
struct PlantEpisode {
    sys: Arc<dyn Dynamics>,
    disturbance: DisturbanceModel,
    reward: RewardConfig,
    state: Vec<f64>,
    t: usize,
    horizon: usize,
    rng: rand::rngs::StdRng,
}

impl PlantEpisode {
    fn new(sys: Arc<dyn Dynamics>, reward: RewardConfig, seed: u64) -> Self {
        let disturbance = DisturbanceModel::from_amplitude(sys.disturbance_amplitude());
        let horizon = sys.horizon();
        let state = sys.initial_set().center();
        Self {
            sys,
            disturbance,
            reward,
            state,
            t: 0,
            horizon,
            rng: cocktail_math::rng::seeded(seed),
        }
    }

    #[allow(
        clippy::expect_used,
        reason = "StdRng::from_rng is infallible for non-erroring sources"
    )]
    fn reset(&mut self, rng: &mut dyn RngCore) -> Vec<f64> {
        let mut r = rand::rngs::StdRng::from_rng(rng).expect("rng never fails");
        self.state = cocktail_math::rng::uniform_in_box(&mut r, &self.sys.initial_set());
        self.t = 0;
        self.state.clone()
    }

    /// Applies the *plant-level* control `u` (already computed from the
    /// action), advancing the episode.
    fn apply(&mut self, u_raw: &[f64]) -> (Vec<f64>, f64, bool) {
        let u = self.sys.clip_control(u_raw);
        let omega = self.disturbance.sample(&mut self.rng);
        self.state = self.sys.step(&self.state, &u, &omega);
        self.t += 1;
        let safe = self.sys.is_safe(&self.state);
        let reward = self.reward.reward(&u, &self.state, safe);
        let done = !safe || self.t >= self.horizon;
        (self.state.clone(), reward, done)
    }
}

use rand::SeedableRng;

/// MDP where the action *is* the plant input (scaled to the control bound):
/// the expert-training setting of Section IV (DDPG with different
/// hyperparameters).
pub struct DirectControlMdp {
    episode: PlantEpisode,
    u_scale: Vec<f64>,
}

impl DirectControlMdp {
    /// Wraps a plant. Actions in `[-1, 1]^{|u|}` map linearly onto the
    /// control bound.
    pub fn new(sys: Arc<dyn Dynamics>, reward: RewardConfig, seed: u64) -> Self {
        let (lo, hi) = sys.control_bounds();
        let u_scale = lo
            .iter()
            .zip(&hi)
            .map(|(&l, &h)| 0.5 * (h - l).abs().max(l.abs().max(h.abs())))
            .collect();
        Self {
            episode: PlantEpisode::new(sys, reward, seed),
            u_scale,
        }
    }

    /// The wrapped plant.
    pub fn dynamics(&self) -> &Arc<dyn Dynamics> {
        &self.episode.sys
    }
}

impl Mdp for DirectControlMdp {
    fn state_dim(&self) -> usize {
        self.episode.sys.state_dim()
    }

    fn action_dim(&self) -> usize {
        self.episode.sys.control_dim()
    }

    fn action_bound(&self) -> f64 {
        1.0
    }

    fn reset(&mut self, rng: &mut dyn RngCore) -> Vec<f64> {
        self.episode.reset(rng)
    }

    fn step(&mut self, action: &[f64]) -> (Vec<f64>, f64, bool) {
        assert_eq!(action.len(), self.action_dim(), "action dimension mismatch");
        let u: Vec<f64> = action
            .iter()
            .zip(&self.u_scale)
            .map(|(&a, &s)| a.clamp(-1.0, 1.0) * s)
            .collect();
        self.episode.apply(&u)
    }
}

/// The paper's adaptive-mixing MDP (Section III-A): the action is the
/// weight vector `a ∈ [-A_B, A_B]ⁿ` and the plant input is
/// `clip(Σ aᵢ κᵢ(s), U)` (Eq. 4).
pub struct MixingMdp {
    episode: PlantEpisode,
    experts: Vec<Arc<dyn Controller>>,
    weight_bound: f64,
}

impl MixingMdp {
    /// Builds the mixing MDP over `experts` with weight bound `A_B ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `experts` is empty or `weight_bound < 1`.
    pub fn new(
        sys: Arc<dyn Dynamics>,
        experts: Vec<Arc<dyn Controller>>,
        weight_bound: f64,
        reward: RewardConfig,
        seed: u64,
    ) -> Self {
        assert!(!experts.is_empty(), "mixing needs at least one expert");
        assert!(weight_bound >= 1.0, "weight bound must be at least 1");
        Self {
            episode: PlantEpisode::new(sys, reward, seed),
            experts,
            weight_bound,
        }
    }

    /// The experts being mixed.
    pub fn experts(&self) -> &[Arc<dyn Controller>] {
        &self.experts
    }

    /// The wrapped plant.
    pub fn dynamics(&self) -> &Arc<dyn Dynamics> {
        &self.episode.sys
    }

    fn mix(&self, s: &[f64], weights: &[f64]) -> Vec<f64> {
        let mut u = vec![0.0; self.episode.sys.control_dim()];
        for (w, e) in weights.iter().zip(&self.experts) {
            let wc = w.clamp(-self.weight_bound, self.weight_bound);
            vector::axpy_inplace(&mut u, wc, &e.control(s));
        }
        u
    }
}

impl Mdp for MixingMdp {
    fn state_dim(&self) -> usize {
        self.episode.sys.state_dim()
    }

    fn action_dim(&self) -> usize {
        self.experts.len()
    }

    fn action_bound(&self) -> f64 {
        self.weight_bound
    }

    fn reset(&mut self, rng: &mut dyn RngCore) -> Vec<f64> {
        self.episode.reset(rng)
    }

    fn step(&mut self, action: &[f64]) -> (Vec<f64>, f64, bool) {
        assert_eq!(action.len(), self.action_dim(), "action dimension mismatch");
        let u = self.mix(&self.episode.state.clone(), action);
        self.episode.apply(&u)
    }
}

/// The discrete switching MDP reproducing the baseline `A_S` \[4\]: the
/// (continuous, one-per-expert) action is interpreted as preference logits
/// and the **argmax expert alone** drives the plant. Training this MDP with
/// the same PPO machinery restricts the search to one-hot weight vectors —
/// exactly the sub-space argument of Proposition 1.
pub struct SwitchingMdp {
    inner: MixingMdp,
}

impl SwitchingMdp {
    /// Builds the switching MDP over `experts`.
    ///
    /// # Panics
    ///
    /// Panics if `experts` is empty.
    pub fn new(
        sys: Arc<dyn Dynamics>,
        experts: Vec<Arc<dyn Controller>>,
        reward: RewardConfig,
        seed: u64,
    ) -> Self {
        Self {
            inner: MixingMdp::new(sys, experts, 1.0, reward, seed),
        }
    }

    /// Index of the expert an action vector activates.
    #[allow(
        clippy::expect_used,
        reason = "action vectors from this MDP are never empty"
    )]
    pub fn chosen_expert(action: &[f64]) -> usize {
        action
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("non-empty action")
    }
}

impl Mdp for SwitchingMdp {
    fn state_dim(&self) -> usize {
        self.inner.state_dim()
    }

    fn action_dim(&self) -> usize {
        self.inner.action_dim()
    }

    fn action_bound(&self) -> f64 {
        1.0
    }

    fn reset(&mut self, rng: &mut dyn RngCore) -> Vec<f64> {
        self.inner.reset(rng)
    }

    fn step(&mut self, action: &[f64]) -> (Vec<f64>, f64, bool) {
        assert_eq!(action.len(), self.action_dim(), "action dimension mismatch");
        let mut one_hot = vec![0.0; action.len()];
        one_hot[Self::chosen_expert(action)] = 1.0;
        self.inner.step(&one_hot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocktail_control::LinearFeedbackController;
    use cocktail_env::systems::VanDerPol;
    use cocktail_math::Matrix;

    fn vdp_experts() -> (Arc<dyn Dynamics>, Vec<Arc<dyn Controller>>) {
        let sys: Arc<dyn Dynamics> = Arc::new(VanDerPol::new());
        let experts: Vec<Arc<dyn Controller>> = vec![
            Arc::new(LinearFeedbackController::new(Matrix::from_rows(vec![
                vec![1.0, 1.5],
            ]))),
            Arc::new(LinearFeedbackController::new(Matrix::from_rows(vec![
                vec![4.0, 4.0],
            ]))),
        ];
        (sys, experts)
    }

    #[test]
    fn direct_mdp_dimensions_and_episode() {
        let (sys, _) = vdp_experts();
        let mut mdp = DirectControlMdp::new(sys, RewardConfig::default(), 0);
        let mut rng = cocktail_math::rng::seeded(1);
        let s0 = mdp.reset(&mut rng);
        assert_eq!(s0.len(), 2);
        assert_eq!(mdp.action_dim(), 1);
        let (s1, r, done) = mdp.step(&[0.5]);
        assert_eq!(s1.len(), 2);
        assert!(r <= 1.0);
        assert!(!done || !VanDerPol::new().is_safe(&s1));
    }

    #[test]
    fn direct_mdp_scales_action_to_control_bound() {
        let (sys, _) = vdp_experts();
        let mdp = DirectControlMdp::new(sys, RewardConfig::default(), 0);
        assert_eq!(mdp.u_scale, [20.0]);
    }

    #[test]
    fn mixing_mdp_weighted_sum_matches_manual() {
        let (sys, experts) = vdp_experts();
        let mdp = MixingMdp::new(sys, experts.clone(), 2.0, RewardConfig::default(), 0);
        let s = [0.5, 0.5];
        let u = mdp.mix(&s, &[1.0, -0.5]);
        let manual = 1.0 * experts[0].control(&s)[0] - 0.5 * experts[1].control(&s)[0];
        assert!((u[0] - manual).abs() < 1e-12);
    }

    #[test]
    fn mixing_mdp_clamps_weights() {
        let (sys, experts) = vdp_experts();
        let mdp = MixingMdp::new(sys, experts.clone(), 2.0, RewardConfig::default(), 0);
        let s = [1.0, 0.0];
        let u_clamped = mdp.mix(&s, &[100.0, 0.0]);
        let u_limit = mdp.mix(&s, &[2.0, 0.0]);
        assert_eq!(u_clamped, u_limit);
    }

    #[test]
    fn episode_terminates_at_horizon() {
        let (sys, experts) = vdp_experts();
        let mut mdp = MixingMdp::new(sys, experts, 1.5, RewardConfig::default(), 3);
        let mut rng = cocktail_math::rng::seeded(4);
        // start near the origin so the strong expert keeps it safe
        let mut s = mdp.reset(&mut rng);
        while cocktail_math::vector::norm_2(&s) > 0.3 {
            s = mdp.reset(&mut rng);
        }
        let mut steps = 0;
        loop {
            let (_, _, done) = mdp.step(&[0.0, 1.0]);
            steps += 1;
            if done {
                break;
            }
        }
        assert_eq!(steps, 100, "safe episode runs the full horizon");
    }

    #[test]
    fn unsafe_step_is_punished_and_terminal() {
        let (sys, experts) = vdp_experts();
        let mut mdp = MixingMdp::new(sys, experts, 1.0, RewardConfig::default(), 5);
        // drive straight out of the safe set from a boundary state
        let mut rng = cocktail_math::rng::seeded(6);
        mdp.reset(&mut rng);
        mdp.episode.state = vec![1.99, 1.99];
        let (_, r, done) = mdp.step(&[0.0, 0.0]);
        assert_eq!(r, RewardConfig::default().punish);
        assert!(done);
    }

    #[test]
    fn switching_mdp_activates_argmax_expert() {
        assert_eq!(SwitchingMdp::chosen_expert(&[0.2, 0.9]), 1);
        assert_eq!(SwitchingMdp::chosen_expert(&[0.2, -0.9]), 0);
        let (sys, experts) = vdp_experts();
        let mut sw = SwitchingMdp::new(sys.clone(), experts.clone(), RewardConfig::default(), 7);
        let mut mx = MixingMdp::new(sys, experts, 1.0, RewardConfig::default(), 7);
        let mut rng1 = cocktail_math::rng::seeded(8);
        let mut rng2 = cocktail_math::rng::seeded(8);
        let s1 = sw.reset(&mut rng1);
        let s2 = mx.reset(&mut rng2);
        assert_eq!(s1, s2);
        let (n1, r1, _) = sw.step(&[0.3, 0.7]);
        let (n2, r2, _) = mx.step(&[0.0, 1.0]);
        assert_eq!(n1, n2);
        assert_eq!(r1, r2);
    }
}
