//! Proximal policy optimization (Algorithm 1 lines 2–10).
//!
//! The paper's adaptive-mixing objective is the PPO surrogate with a KL
//! penalty:
//!
//! ```text
//! argmax_θ  Ê[ (π_θ(a|s) / π_θold(a|s)) Â − β KL(π_θold, π_θ) ]
//! ```
//!
//! We implement exactly that (plus the standard ratio clip, which only ever
//! tightens the update) with a diagonal-Gaussian policy: an MLP mean head
//! and a learnable, state-independent `log σ` vector.

use crate::gae::gae;
use crate::gaussian;
use crate::mdp::{EpisodeFactory, Mdp};
use cocktail_math::{parallel, stats, Matrix};
use cocktail_nn::{loss, Activation, Adam, BatchCache, GradStore, Mlp, MlpBuilder, Optimizer};
use cocktail_obs::{Event, NullSink, Span, Telemetry};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// PPO hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PpoConfig {
    /// Outer training iterations (the paper's epochs `N`).
    pub iterations: usize,
    /// Episodes collected per iteration with the current policy.
    pub episodes_per_iteration: usize,
    /// Gradient passes over each collected batch.
    pub update_epochs: usize,
    /// Minibatch size for the policy/value updates.
    pub minibatch_size: usize,
    /// Discount factor γ.
    pub gamma: f64,
    /// GAE λ.
    pub lambda: f64,
    /// PPO ratio clip ε.
    pub clip_ratio: f64,
    /// KL-penalty weight β (the paper's objective).
    pub kl_beta: f64,
    /// Entropy bonus weight.
    pub entropy_bonus: f64,
    /// Mean-network learning rate.
    pub policy_lr: f64,
    /// Value-network learning rate.
    pub value_lr: f64,
    /// Initial `log σ` of the exploration noise.
    pub init_log_std: f64,
    /// Hidden width of the two-hidden-layer Tanh networks.
    pub hidden: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PpoConfig {
    fn default() -> Self {
        Self {
            iterations: 60,
            episodes_per_iteration: 8,
            update_epochs: 6,
            minibatch_size: 64,
            gamma: 0.99,
            lambda: 0.95,
            clip_ratio: 0.2,
            kl_beta: 0.01,
            entropy_bonus: 1e-3,
            policy_lr: 3e-3,
            value_lr: 1e-2,
            init_log_std: -0.5,
            hidden: 32,
            seed: 0,
        }
    }
}

/// A diagonal-Gaussian policy: MLP mean + learnable `log σ`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaussianPolicy {
    mean_net: Mlp,
    log_std: Vec<f64>,
}

impl GaussianPolicy {
    /// Creates a policy with a fresh mean network.
    pub fn new(
        state_dim: usize,
        action_dim: usize,
        hidden: usize,
        init_log_std: f64,
        seed: u64,
    ) -> Self {
        let mean_net = MlpBuilder::new(state_dim)
            .hidden(hidden, Activation::Tanh)
            .hidden(hidden, Activation::Tanh)
            .output(action_dim, Activation::Identity)
            .seed(seed)
            .build();
        Self {
            mean_net,
            log_std: vec![init_log_std; action_dim],
        }
    }

    /// The mean network.
    pub fn mean_net(&self) -> &Mlp {
        &self.mean_net
    }

    /// Current exploration `log σ`.
    pub fn log_std(&self) -> &[f64] {
        &self.log_std
    }

    /// Policy mean `μ(s)`.
    pub fn mean(&self, s: &[f64]) -> Vec<f64> {
        self.mean_net.forward(s)
    }

    /// Stochastic (unclipped) action.
    pub fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R, s: &[f64]) -> Vec<f64> {
        gaussian::sample(rng, &self.mean(s), &self.log_std)
    }

    /// Deterministic deployment action: `clip(μ(s), ±bound)`.
    pub fn deterministic(&self, s: &[f64], bound: f64) -> Vec<f64> {
        self.mean(s)
            .iter()
            .map(|m| m.clamp(-bound, bound))
            .collect()
    }
}

/// Per-iteration statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationStats {
    /// Mean undiscounted episode return.
    pub mean_return: f64,
    /// Mean episode length.
    pub mean_length: f64,
    /// Fraction of episodes that ended without a safety violation.
    pub safe_fraction: f64,
}

/// The result of PPO training.
#[derive(Debug, Clone)]
pub struct TrainedPolicy {
    /// The learned policy.
    pub policy: GaussianPolicy,
    /// The learned value network.
    pub value: Mlp,
    /// Per-iteration statistics, oldest first.
    pub history: Vec<IterationStats>,
}

struct Sample {
    state: Vec<f64>,
    action: Vec<f64>,
    advantage: f64,
    ret: f64,
    log_prob_old: f64,
    mean_old: Vec<f64>,
}

/// Raw trajectory of one episode, before value/advantage post-processing.
struct EpisodeData {
    states: Vec<Vec<f64>>,
    actions: Vec<Vec<f64>>,
    rewards: Vec<f64>,
    means: Vec<Vec<f64>>,
}

/// Adam state for the bare `log σ` vector (the mean net uses the full
/// [`Adam`] optimizer; this mirrors it for a plain parameter vector).
/// Serializable so checkpoints capture the exploration-noise moments too.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct VecAdam {
    lr: f64,
    t: u64,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl VecAdam {
    fn new(lr: f64, dim: usize) -> Self {
        Self {
            lr,
            t: 0,
            m: vec![0.0; dim],
            v: vec![0.0; dim],
        }
    }

    fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        self.t += 1;
        let (b1, b2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        for i in 0..params.len() {
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * grads[i];
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * grads[i] * grads[i];
            params[i] -= self.lr * (self.m[i] / bc1) / ((self.v[i] / bc2).sqrt() + eps);
        }
    }
}

/// PPO trainer. Construct with [`PpoTrainer::new`], then call
/// [`PpoTrainer::train_episodes`] with an [`EpisodeFactory`] that builds one
/// fresh [`Mdp`] per episode.
pub struct PpoTrainer {
    config: PpoConfig,
    policy: GaussianPolicy,
    value: Mlp,
}

impl PpoTrainer {
    /// Creates a trainer with freshly-initialized networks.
    pub fn new(config: &PpoConfig, state_dim: usize, action_dim: usize) -> Self {
        let policy = GaussianPolicy::new(
            state_dim,
            action_dim,
            config.hidden,
            config.init_log_std,
            config.seed,
        );
        let value = MlpBuilder::new(state_dim)
            .hidden(config.hidden, Activation::Tanh)
            .hidden(config.hidden, Activation::Tanh)
            .output(1, Activation::Identity)
            .seed(config.seed.wrapping_add(1))
            .build();
        Self {
            config: config.clone(),
            policy,
            value,
        }
    }

    /// Runs the full training loop with parallel episode collection, using
    /// [`cocktail_math::parallel::default_workers`] worker threads.
    ///
    /// Every episode gets a fresh MDP and a fresh RNG derived from
    /// `(seed, episode_index)`, so the training trajectory is a pure
    /// function of the configuration — bit-identical for any worker count.
    ///
    /// # Panics
    ///
    /// Panics if the factory's episodes disagree with the trainer's
    /// state/action dimensions.
    pub fn train_episodes(self, factory: &dyn EpisodeFactory) -> TrainedPolicy {
        self.train_episodes_with_workers(factory, parallel::default_workers())
    }

    /// [`PpoTrainer::train_episodes`] with an explicit worker count
    /// (exposed so determinism across worker counts is testable).
    ///
    /// # Panics
    ///
    /// Panics if the factory's episodes disagree with the trainer's
    /// state/action dimensions.
    pub fn train_episodes_with_workers(
        self,
        factory: &dyn EpisodeFactory,
        workers: usize,
    ) -> TrainedPolicy {
        let mut session = PpoSession::from_trainer(self);
        while !session.is_complete() {
            session.step(factory, workers);
        }
        session.finish()
    }

    /// Rolls out one episode with the current stochastic policy. The RNG
    /// drives the initial-state draw and every action sample, in episode
    /// order.
    fn run_episode(&self, mdp: &mut dyn Mdp, rng: &mut rand::rngs::StdRng) -> EpisodeData {
        let bound = mdp.action_bound();
        let mut s = mdp.reset(rng);
        let mut states = Vec::new();
        let mut actions = Vec::new();
        let mut rewards = Vec::new();
        let mut means = Vec::new();
        let mut done = false;
        while !done {
            let mean = self.policy.mean(&s);
            let a = gaussian::sample(rng, &mean, &self.policy.log_std);
            let a_env: Vec<f64> = a.iter().map(|x| x.clamp(-bound, bound)).collect();
            let (next, r, d) = mdp.step(&a_env);
            states.push(s.clone());
            actions.push(a);
            means.push(mean);
            rewards.push(r);
            s = next;
            done = d;
        }
        EpisodeData {
            states,
            actions,
            rewards,
            means,
        }
    }

    /// Turns raw episodes into advantage-standardized training samples plus
    /// iteration statistics. Pure post-processing: independent of worker
    /// count as long as the episode order is fixed.
    fn assemble(&self, episodes: Vec<EpisodeData>) -> (Vec<Sample>, IterationStats) {
        let episode_count = episodes.len();
        let mut samples = Vec::new();
        let mut returns = Vec::new();
        let mut lengths = Vec::new();
        let mut safe_episodes = 0usize;

        for ep in episodes {
            // bootstrap: terminal states get 0; the paper punishes violations
            // with R_pun which already encodes the termination value. A
            // horizon truncation would warrant V(s_T), but our MDPs treat
            // the horizon as the true episode end (finite-horizon objective,
            // Eq. of Section III-A), so 0 is the correct terminal value.
            let truncated_bootstrap = 0.0;
            let value_block = self
                .value
                .forward_batch(&Matrix::from_rows(ep.states.clone()));
            let mut values: Vec<f64> = (0..ep.states.len())
                .map(|i| value_block.row(i)[0])
                .collect();
            values.push(truncated_bootstrap);
            let (advantages, rets) =
                gae(&ep.rewards, &values, self.config.gamma, self.config.lambda);
            let episode_return: f64 = ep.rewards.iter().sum();
            let violated = ep.rewards.last().is_some_and(|&r| r <= -50.0);
            if !violated {
                safe_episodes += 1;
            }
            returns.push(episode_return);
            lengths.push(ep.rewards.len() as f64);
            for i in 0..ep.states.len() {
                let log_prob_old =
                    gaussian::log_prob(&ep.actions[i], &ep.means[i], &self.policy.log_std);
                samples.push(Sample {
                    state: ep.states[i].clone(),
                    action: ep.actions[i].clone(),
                    advantage: advantages[i],
                    ret: rets[i],
                    log_prob_old,
                    mean_old: ep.means[i].clone(),
                });
            }
        }
        // standardize advantages across the whole batch
        let mut advs: Vec<f64> = samples.iter().map(|s| s.advantage).collect();
        stats::standardize(&mut advs);
        for (s, a) in samples.iter_mut().zip(&advs) {
            s.advantage = *a;
        }
        let stats = IterationStats {
            mean_return: stats::mean(&returns),
            mean_length: stats::mean(&lengths),
            safe_fraction: safe_episodes as f64 / episode_count as f64,
        };
        (samples, stats)
    }

    /// Collects one iteration's episodes in parallel: episode `e` of
    /// iteration `iteration` gets a fresh MDP and a fresh action RNG, both
    /// seeded from the global episode index, so the result is bit-identical
    /// for any `workers` count. `salt = 0` reproduces the historical seed
    /// schedule exactly; a non-zero salt (divergence retries) deterministically
    /// re-derives every episode seed.
    fn collect(
        &self,
        factory: &dyn EpisodeFactory,
        iteration: usize,
        workers: usize,
        salt: u64,
    ) -> (Vec<Sample>, IterationStats) {
        let base = if salt == 0 {
            self.config.seed.wrapping_add(3)
        } else {
            parallel::task_seed(self.config.seed.wrapping_add(3), salt)
        };
        let episodes =
            parallel::map_range_with_workers(self.config.episodes_per_iteration, workers, |e| {
                let g = (iteration * self.config.episodes_per_iteration + e) as u64;
                let mut mdp = factory.make_episode(parallel::task_seed(base, 2 * g));
                let mut rng = cocktail_math::rng::seeded(parallel::task_seed(base, 2 * g + 1));
                self.run_episode(mdp.as_mut(), &mut rng)
            });
        self.assemble(episodes)
    }

    fn update(
        &mut self,
        samples: &[Sample],
        policy_opt: &mut Adam,
        value_opt: &mut Adam,
        log_std_opt: &mut VecAdam,
        rng: &mut rand::rngs::StdRng,
    ) {
        use rand::seq::SliceRandom;
        if samples.is_empty() {
            return;
        }
        let log_std_old = self.policy.log_std.clone();
        let mut order: Vec<usize> = (0..samples.len()).collect();
        let batch = self.config.minibatch_size.max(1);
        let state_dim = self.policy.mean_net.input_dim();
        let action_dim = self.policy.mean_net.output_dim();
        let mut x = Matrix::zeros(batch.min(samples.len()), state_dim);
        let mut policy_cache = BatchCache::new();
        let mut value_cache = BatchCache::new();

        for _ in 0..self.config.update_epochs {
            order.shuffle(rng);
            for chunk in order.chunks(batch) {
                let scale = 1.0 / chunk.len() as f64;
                let mut policy_grads = GradStore::zeros_like(&self.policy.mean_net);
                let mut log_std_grad = vec![0.0; self.policy.log_std.len()];
                let mut value_grads = GradStore::zeros_like(&self.value);

                // one batched forward per network for the whole minibatch
                if x.shape() != (chunk.len(), state_dim) {
                    x = Matrix::zeros(chunk.len(), state_dim);
                }
                for (r, &i) in chunk.iter().enumerate() {
                    x.row_mut(r).copy_from_slice(&samples[i].state);
                }
                self.policy
                    .mean_net
                    .forward_batch_cached(&x, &mut policy_cache);
                self.value.forward_batch_cached(&x, &mut value_cache);
                let mut policy_g = Matrix::zeros(chunk.len(), action_dim);
                let mut value_g = Matrix::zeros(chunk.len(), 1);

                for (r, &i) in chunk.iter().enumerate() {
                    let s = &samples[i];
                    let mean_new = policy_cache.output().row(r);
                    let log_prob_new =
                        gaussian::log_prob(&s.action, mean_new, &self.policy.log_std);
                    let ratio = (log_prob_new - s.log_prob_old).exp();

                    // clipped-surrogate coefficient: derivative of
                    // min(r·A, clip(r)·A) w.r.t. log π_new is r·A when the
                    // unclipped branch is active, else 0.
                    let clipped_ratio =
                        ratio.clamp(1.0 - self.config.clip_ratio, 1.0 + self.config.clip_ratio);
                    let surrogate_active = ratio * s.advantage <= clipped_ratio * s.advantage;
                    let coeff = if surrogate_active {
                        ratio * s.advantage
                    } else {
                        0.0
                    };

                    // ∂(-L)/∂μ = -coeff·∂logπ/∂μ + β·∂KL/∂μ
                    let glp_mean = gaussian::grad_mean(&s.action, mean_new, &self.policy.log_std);
                    let grow = policy_g.row_mut(r);
                    for (k, (gi, g)) in grow.iter_mut().zip(&glp_mean).enumerate() {
                        *gi = -coeff * g;
                        // KL(old‖new) gradient wrt new mean: (μn−μo)/σn²
                        let gap = mean_new[k] - s.mean_old[k];
                        *gi += self.config.kl_beta * gap / (2.0 * self.policy.log_std[k]).exp();
                    }

                    // log_std gradients: surrogate + KL + entropy bonus
                    let glp_ls = gaussian::grad_log_std(&s.action, mean_new, &self.policy.log_std);
                    for (k, g) in glp_ls.iter().enumerate() {
                        let mut total = -coeff * g;
                        // ∂KL/∂logσn = 1 − (σo² + (μo−μn)²)/σn²
                        let vo = (2.0 * log_std_old[k]).exp();
                        let vn = (2.0 * self.policy.log_std[k]).exp();
                        let gap = s.mean_old[k] - mean_new[k];
                        total += self.config.kl_beta * (1.0 - (vo + gap * gap) / vn);
                        // entropy bonus: maximize H ⇒ subtract ∂H/∂logσ = 1
                        total -= self.config.entropy_bonus;
                        log_std_grad[k] += scale * total;
                    }

                    // value update
                    let vg = loss::mse_gradient(value_cache.output().row(r), &[s.ret]);
                    value_g.row_mut(r).copy_from_slice(&vg);
                }

                self.policy.mean_net.backward_batch(
                    &policy_cache,
                    &policy_g,
                    &mut policy_grads,
                    scale,
                );
                self.value
                    .backward_batch(&value_cache, &value_g, &mut value_grads, scale);

                policy_grads.clip_global_norm(5.0);
                value_grads.clip_global_norm(10.0);
                policy_opt.step(&mut self.policy.mean_net, &policy_grads);
                log_std_opt.step(&mut self.policy.log_std, &log_std_grad);
                // keep exploration noise in a sane range
                for ls in &mut self.policy.log_std {
                    *ls = ls.clamp(-3.0, 1.0);
                }
                value_opt.step(&mut self.value, &value_grads);
            }
        }
    }
}

/// A serializable snapshot of an in-flight PPO training run.
///
/// Captures networks, optimizer moments, the exact update-RNG stream
/// position and the iteration counter, so
/// [`PpoSession::from_checkpoint`] resumes *bit-for-bit*: a run
/// interrupted and resumed mid-training produces the same final policy,
/// value net and history as the uninterrupted run. Construct via
/// [`PpoSession::checkpoint`]; the fields are deliberately opaque.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PpoCheckpoint {
    config: PpoConfig,
    policy: GaussianPolicy,
    value: Mlp,
    policy_opt: Adam,
    value_opt: Adam,
    log_std_opt: VecAdam,
    /// xoshiro256** words of the update RNG (length 4; a `Vec` because the
    /// vendored serde shim does not serialize fixed-size arrays).
    rng_state: Vec<u64>,
    iteration: usize,
    history: Vec<IterationStats>,
    collect_salt: u64,
}

/// Resumable, checkpointable PPO training.
///
/// [`PpoTrainer::train_episodes_with_workers`] is a thin loop over this
/// type, so driving a session manually yields bit-identical numbers:
///
/// ```text
/// let mut session = PpoSession::new(&config, state_dim, action_dim);
/// while !session.is_complete() {
///     session.step(&factory, workers);
///     save(session.checkpoint());      // kill-safe from here
/// }
/// let trained = session.finish();
/// ```
pub struct PpoSession {
    trainer: PpoTrainer,
    policy_opt: Adam,
    value_opt: Adam,
    log_std_opt: VecAdam,
    rng: rand::rngs::StdRng,
    iteration: usize,
    history: Vec<IterationStats>,
    /// Salts the episode-collection seed schedule; 0 is the historical
    /// schedule, a divergence retry bumps it to re-derive fresh episodes.
    collect_salt: u64,
    /// Telemetry sink; never serialized — a restored session starts on the
    /// [`NullSink`] until the caller re-attaches one.
    tel: Arc<dyn Telemetry>,
}

impl PpoSession {
    /// Starts a fresh session with newly-initialized networks.
    pub fn new(config: &PpoConfig, state_dim: usize, action_dim: usize) -> Self {
        Self::from_trainer(PpoTrainer::new(config, state_dim, action_dim))
    }

    /// Wraps an existing trainer (same optimizer/RNG setup as
    /// [`PpoTrainer::train_episodes_with_workers`]).
    pub fn from_trainer(trainer: PpoTrainer) -> Self {
        let rng = cocktail_math::rng::seeded(trainer.config.seed.wrapping_add(2));
        let policy_opt = Adam::new(trainer.config.policy_lr);
        let value_opt = Adam::new(trainer.config.value_lr);
        let log_std_opt = VecAdam::new(trainer.config.policy_lr, trainer.policy.log_std.len());
        Self {
            trainer,
            policy_opt,
            value_opt,
            log_std_opt,
            rng,
            iteration: 0,
            history: Vec::new(),
            collect_salt: 0,
            tel: Arc::new(NullSink),
        }
    }

    /// Attaches a telemetry sink (builder-style). Telemetry never enters
    /// the checkpoint: event payloads are derived from deterministic
    /// iteration statistics, so an instrumented run and a bare run produce
    /// bit-identical training results.
    #[must_use]
    pub fn with_telemetry(mut self, tel: Arc<dyn Telemetry>) -> Self {
        self.tel = tel;
        self
    }

    /// Attaches a telemetry sink to an existing session (e.g. one restored
    /// from a checkpoint).
    pub fn set_telemetry(&mut self, tel: Arc<dyn Telemetry>) {
        self.tel = tel;
    }

    /// Restores a session from a checkpoint, resuming the exact RNG stream.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's RNG state does not have exactly 4 words
    /// (a corrupted or hand-edited snapshot).
    pub fn from_checkpoint(ckpt: PpoCheckpoint) -> Self {
        assert_eq!(
            ckpt.rng_state.len(),
            4,
            "PPO checkpoint RNG state must have 4 words"
        );
        let words = [
            ckpt.rng_state[0],
            ckpt.rng_state[1],
            ckpt.rng_state[2],
            ckpt.rng_state[3],
        ];
        Self {
            trainer: PpoTrainer {
                config: ckpt.config,
                policy: ckpt.policy,
                value: ckpt.value,
            },
            policy_opt: ckpt.policy_opt,
            value_opt: ckpt.value_opt,
            log_std_opt: ckpt.log_std_opt,
            rng: rand::rngs::StdRng::from_state(words),
            iteration: ckpt.iteration,
            history: ckpt.history,
            collect_salt: ckpt.collect_salt,
            tel: Arc::new(NullSink),
        }
    }

    /// Snapshots the complete training state.
    pub fn checkpoint(&self) -> PpoCheckpoint {
        PpoCheckpoint {
            config: self.trainer.config.clone(),
            policy: self.trainer.policy.clone(),
            value: self.trainer.value.clone(),
            policy_opt: self.policy_opt.clone(),
            value_opt: self.value_opt.clone(),
            log_std_opt: self.log_std_opt.clone(),
            rng_state: self.rng.state().to_vec(),
            iteration: self.iteration,
            history: self.history.clone(),
            collect_salt: self.collect_salt,
        }
    }

    /// Iterations completed so far.
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// Whether all configured iterations have run.
    pub fn is_complete(&self) -> bool {
        self.iteration >= self.trainer.config.iterations
    }

    /// Per-iteration statistics so far, oldest first.
    pub fn history(&self) -> &[IterationStats] {
        &self.history
    }

    /// Deterministically re-derives the exploration streams for divergence
    /// retry `retry` (≥ 1): both the episode seed schedule and the update
    /// RNG change, so the retried run explores differently while remaining
    /// a pure function of `(config, retry)`.
    pub fn reseed_for_retry(&mut self, retry: u64) {
        self.collect_salt = retry;
        self.rng = cocktail_math::rng::seeded(parallel::task_seed(
            self.trainer.config.seed.wrapping_add(2),
            retry,
        ));
    }

    /// Runs one training iteration (collect + update) and returns its stats.
    ///
    /// # Panics
    ///
    /// Panics if the session [`Self::is_complete`] or the factory's episodes
    /// disagree with the trainer's state/action dimensions.
    pub fn step(&mut self, factory: &dyn EpisodeFactory, workers: usize) -> IterationStats {
        assert!(!self.is_complete(), "PPO session already complete");
        {
            let probe = factory.make_episode(0);
            assert_eq!(
                probe.state_dim(),
                self.trainer.policy.mean_net.input_dim(),
                "state dim mismatch"
            );
            assert_eq!(
                probe.action_dim(),
                self.trainer.policy.mean_net.output_dim(),
                "action dim mismatch"
            );
        }
        let _span = Span::enter_with(
            &*self.tel,
            "ppo-mixing/iteration",
            vec![("iteration".to_string(), self.iteration.into())],
        );
        let (samples, stats) =
            self.trainer
                .collect(factory, self.iteration, workers, self.collect_salt);
        self.history.push(stats);
        self.trainer.update(
            &samples,
            &mut self.policy_opt,
            &mut self.value_opt,
            &mut self.log_std_opt,
            &mut self.rng,
        );
        self.iteration += 1;
        if self.tel.enabled() {
            // episode collection ran in parallel workers; everything
            // reported here is the deterministic post-join aggregate
            let batch = self.trainer.config.minibatch_size.max(1);
            let minibatches = if samples.is_empty() {
                0
            } else {
                self.trainer.config.update_epochs * samples.len().div_ceil(batch)
            };
            self.tel.counter("ppo.iterations", 1);
            self.tel
                .counter("ppo.minibatch_updates", minibatches as u64);
            self.tel.counter("ppo.samples", samples.len() as u64);
            self.tel.record(
                Event::point("ppo.iteration")
                    .with("iteration", self.iteration - 1)
                    .with("mean_return", stats.mean_return)
                    .with("safe_fraction", stats.safe_fraction)
                    .with("mean_length", stats.mean_length),
            );
            self.tel.observe("ppo.mean_return", stats.mean_return);
        }
        stats
    }

    /// Finalizes the session into the trained policy.
    pub fn finish(self) -> TrainedPolicy {
        TrainedPolicy {
            policy: self.trainer.policy,
            value: self.trainer.value,
            history: self.history,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// 1-D point regulation: x' = x + 0.2·a, reward −x² − 0.01 a², 25 steps.
    struct PointMdp {
        x: f64,
        t: usize,
    }

    impl Mdp for PointMdp {
        fn state_dim(&self) -> usize {
            1
        }
        fn action_dim(&self) -> usize {
            1
        }
        fn action_bound(&self) -> f64 {
            1.0
        }
        fn reset(&mut self, rng: &mut dyn rand::RngCore) -> Vec<f64> {
            let mut r = rand::rngs::StdRng::from_rng(rng).expect("rng");
            self.x = r.gen_range(-1.0..=1.0);
            self.t = 0;
            vec![self.x]
        }
        fn step(&mut self, a: &[f64]) -> (Vec<f64>, f64, bool) {
            let act = a[0].clamp(-1.0, 1.0);
            self.x += 0.2 * act;
            self.t += 1;
            let r = -self.x * self.x - 0.01 * act * act;
            (vec![self.x], r, self.t >= 25)
        }
    }

    /// One fresh point-regulation episode (its start comes from the rng).
    fn point_episode(_seed: u64) -> Box<dyn Mdp> {
        Box::new(PointMdp { x: 0.0, t: 0 })
    }

    use rand::SeedableRng;

    #[test]
    fn ppo_improves_point_regulation() {
        let config = PpoConfig {
            iterations: 30,
            episodes_per_iteration: 10,
            hidden: 16,
            seed: 7,
            ..Default::default()
        };
        let trained = PpoTrainer::new(&config, 1, 1).train_episodes(&point_episode);
        let early: f64 = trained.history[..5]
            .iter()
            .map(|s| s.mean_return)
            .sum::<f64>()
            / 5.0;
        let late: f64 = trained.history[trained.history.len() - 5..]
            .iter()
            .map(|s| s.mean_return)
            .sum::<f64>()
            / 5.0;
        assert!(late > early, "no improvement: early {early} late {late}");
        // the learned deterministic policy should push x towards 0
        let a_pos = trained.policy.deterministic(&[0.8], 1.0)[0];
        let a_neg = trained.policy.deterministic(&[-0.8], 1.0)[0];
        assert!(
            a_pos < 0.0,
            "at x=0.8 action should be negative, got {a_pos}"
        );
        assert!(
            a_neg > 0.0,
            "at x=-0.8 action should be positive, got {a_neg}"
        );
    }

    #[test]
    fn deterministic_action_is_clipped() {
        let p = GaussianPolicy::new(1, 1, 8, 0.0, 0);
        let a = p.deterministic(&[1000.0], 0.5);
        assert!(a[0].abs() <= 0.5);
    }

    #[test]
    fn sample_spread_follows_log_std() {
        let p = GaussianPolicy::new(1, 1, 8, -2.0, 1);
        let mut rng = cocktail_math::rng::seeded(2);
        let m = p.mean(&[0.3])[0];
        let xs: Vec<f64> = (0..2000)
            .map(|_| p.sample(&mut rng, &[0.3])[0] - m)
            .collect();
        let std = cocktail_math::stats::std_dev(&xs);
        assert!((std - (-2.0_f64).exp()).abs() < 0.02, "std {std}");
    }

    #[test]
    fn training_is_seed_deterministic() {
        let config = PpoConfig {
            iterations: 3,
            episodes_per_iteration: 3,
            hidden: 8,
            seed: 11,
            ..Default::default()
        };
        let run = || PpoTrainer::new(&config, 1, 1).train_episodes(&point_episode);
        let a = run();
        let b = run();
        assert_eq!(a.policy, b.policy);
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn parallel_training_is_worker_count_invariant() {
        let config = PpoConfig {
            iterations: 3,
            episodes_per_iteration: 6,
            hidden: 8,
            seed: 5,
            ..Default::default()
        };
        let run = |workers: usize| {
            PpoTrainer::new(&config, 1, 1).train_episodes_with_workers(&point_episode, workers)
        };
        let reference = run(1);
        for workers in [2usize, 8] {
            let got = run(workers);
            assert_eq!(reference.policy, got.policy, "workers = {workers}");
            assert_eq!(reference.history, got.history, "workers = {workers}");
        }
    }

    #[test]
    fn checkpointed_session_resumes_bit_for_bit() {
        let config = PpoConfig {
            iterations: 4,
            episodes_per_iteration: 4,
            hidden: 8,
            seed: 13,
            ..Default::default()
        };
        let uninterrupted =
            PpoTrainer::new(&config, 1, 1).train_episodes_with_workers(&point_episode, 2);

        // interrupt after 2 iterations, round-trip the checkpoint through
        // JSON (the on-disk format), resume in a fresh session
        let mut first = PpoSession::new(&config, 1, 1);
        first.step(&point_episode, 2);
        first.step(&point_episode, 2);
        let json = serde_json::to_string(&first.checkpoint()).expect("checkpoint json");
        drop(first);
        let restored: PpoCheckpoint = serde_json::from_str(&json).expect("checkpoint back");
        let mut resumed = PpoSession::from_checkpoint(restored);
        assert_eq!(resumed.iteration(), 2);
        while !resumed.is_complete() {
            resumed.step(&point_episode, 2);
        }
        let resumed = resumed.finish();

        assert_eq!(resumed.policy, uninterrupted.policy);
        assert_eq!(resumed.value, uninterrupted.value);
        assert_eq!(resumed.history, uninterrupted.history);
    }

    #[test]
    fn telemetry_reports_iterations_without_perturbing_training() {
        let config = PpoConfig {
            iterations: 3,
            episodes_per_iteration: 4,
            hidden: 8,
            seed: 9,
            ..Default::default()
        };
        let bare = {
            let mut s = PpoSession::new(&config, 1, 1);
            while !s.is_complete() {
                s.step(&point_episode, 2);
            }
            s.finish()
        };

        let sink = Arc::new(cocktail_obs::InMemorySink::new());
        let mut instrumented =
            PpoSession::new(&config, 1, 1).with_telemetry(sink.clone() as Arc<dyn Telemetry>);
        while !instrumented.is_complete() {
            instrumented.step(&point_episode, 2);
        }
        let instrumented = instrumented.finish();

        assert_eq!(bare.policy, instrumented.policy, "telemetry must be inert");
        assert_eq!(sink.counter_total("ppo.iterations"), 3);
        assert!(sink.counter_total("ppo.minibatch_updates") > 0);
        let spans = sink
            .events()
            .iter()
            .filter(|e| {
                e.kind == cocktail_obs::EventKind::SpanEnd && e.name == "ppo-mixing/iteration"
            })
            .count();
        assert_eq!(spans, 3);
    }

    #[test]
    fn retry_reseed_changes_the_trajectory_deterministically() {
        let config = PpoConfig {
            iterations: 2,
            episodes_per_iteration: 3,
            hidden: 8,
            seed: 21,
            ..Default::default()
        };
        let run = |retry: Option<u64>| {
            let mut session = PpoSession::new(&config, 1, 1);
            if let Some(r) = retry {
                session.reseed_for_retry(r);
            }
            while !session.is_complete() {
                session.step(&point_episode, 1);
            }
            session.finish()
        };
        let base = run(None);
        let retried = run(Some(1));
        let retried_again = run(Some(1));
        assert_ne!(
            base.policy, retried.policy,
            "retry must explore differently"
        );
        assert_eq!(
            retried.policy, retried_again.policy,
            "retry must be deterministic"
        );
    }

    #[test]
    fn history_has_one_entry_per_iteration() {
        let config = PpoConfig {
            iterations: 4,
            episodes_per_iteration: 2,
            hidden: 8,
            seed: 3,
            ..Default::default()
        };
        let trained = PpoTrainer::new(&config, 1, 1).train_episodes(&point_episode);
        assert_eq!(trained.history.len(), 4);
        assert!(trained.history.iter().all(|s| s.mean_length > 0.0));
    }
}
