//! Direct and robust distillation (Algorithm 1 lines 11–14).

use crate::dataset::TeacherDataset;
use cocktail_control::NnController;
use cocktail_math::{vector, Matrix};
use cocktail_nn::{loss, Activation, Adam, BatchCache, GradStore, MlpBuilder, Optimizer};
use cocktail_obs::{Event, NullSink, Span, Telemetry};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Distillation hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistillConfig {
    /// Training epochs over the dataset.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Hidden width of the student (two Tanh hidden layers).
    pub hidden: usize,
    /// Probability `p` of replacing a sample by its FGSM adversary
    /// (Algorithm 1 line 12; only used by robust distillation).
    pub fgsm_prob: f64,
    /// FGSM perturbation bound `Δ` per state dimension (robust only). An
    /// empty vector derives it as `fgsm_fraction` of the data's state range.
    pub fgsm_bound: Vec<f64>,
    /// Fraction of the per-dimension state half-range used when
    /// `fgsm_bound` is empty.
    pub fgsm_fraction: f64,
    /// L2 regularization weight `λ` (robust only).
    pub lambda: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DistillConfig {
    fn default() -> Self {
        Self {
            epochs: 150,
            batch_size: 64,
            learning_rate: 5e-3,
            hidden: 24,
            fgsm_prob: 0.5,
            fgsm_bound: Vec::new(),
            fgsm_fraction: 0.1,
            lambda: 1e-4,
            seed: 0,
        }
    }
}

fn student_arch(data: &TeacherDataset, config: &DistillConfig) -> cocktail_nn::Mlp {
    MlpBuilder::new(data.state_dim())
        .hidden(config.hidden, Activation::Tanh)
        .hidden(config.hidden, Activation::Tanh)
        .output(data.control_dim(), Activation::Identity)
        .seed(config.seed)
        .build()
}

/// Per-dimension FGSM bound: explicit config, or derived from the data's
/// state spread.
fn resolve_fgsm_bound(data: &TeacherDataset, config: &DistillConfig) -> Vec<f64> {
    if !config.fgsm_bound.is_empty() {
        assert_eq!(
            config.fgsm_bound.len(),
            data.state_dim(),
            "fgsm_bound dimension mismatch"
        );
        return config.fgsm_bound.clone();
    }
    let dim = data.state_dim();
    let mut lo = vec![f64::INFINITY; dim];
    let mut hi = vec![f64::NEG_INFINITY; dim];
    for s in data.states() {
        for i in 0..dim {
            lo[i] = lo[i].min(s[i]);
            hi[i] = hi[i].max(s[i]);
        }
    }
    lo.iter()
        .zip(&hi)
        .map(|(&l, &h)| config.fgsm_fraction * 0.5 * (h - l))
        .collect()
}

/// Direct distillation (`κ_D`): plain MSE regression of the teacher map,
/// no adversarial training, no regularization.
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn direct_distill(data: &TeacherDataset, config: &DistillConfig) -> NnController {
    let mut net = student_arch(data, config);
    cocktail_nn::train::fit_regression(
        &mut net,
        data.states(),
        data.controls(),
        &cocktail_nn::train::TrainConfig {
            epochs: config.epochs,
            batch_size: config.batch_size,
            learning_rate: config.learning_rate,
            weight_decay: 0.0,
            grad_clip: Some(10.0),
            seed: config.seed,
            ..Default::default()
        },
    );
    NnController::unscaled(net, "kappa_D")
}

/// Robust distillation (`κ*`): the paper's probabilistic adversarial
/// training with L2 regularization. Per sample, with probability `p` the
/// input is replaced by its FGSM adversary
/// `s + Δ ⊙ sign(∇_s ℓ(κ*(s; q), u))` before the regression step, and
/// every update carries the `λ‖q‖²` weight-decay gradient.
///
/// # Panics
///
/// Panics if the dataset is empty or configured bounds mismatch.
pub fn robust_distill(data: &TeacherDataset, config: &DistillConfig) -> NnController {
    let mut session = RobustDistillSession::new(data, config);
    while !session.is_complete() {
        session.step_epoch(data);
    }
    session.finish()
}

/// A serializable snapshot of an in-flight robust distillation.
///
/// Captures the student net, optimizer moments, the exact RNG stream
/// position **and the shuffled sample order** (the permutation carries
/// across epochs), so [`RobustDistillSession::from_checkpoint`] resumes
/// bit-for-bit. The dataset itself is *not* stored — it is a pure function
/// of the pipeline seed and is regenerated on resume. Construct via
/// [`RobustDistillSession::checkpoint`]; the fields are deliberately opaque.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistillCheckpoint {
    config: DistillConfig,
    net: cocktail_nn::Mlp,
    bound: Vec<f64>,
    opt: Adam,
    /// xoshiro256** words of the shuffle/FGSM RNG (length 4; a `Vec`
    /// because the vendored serde shim does not serialize arrays).
    rng_state: Vec<u64>,
    order: Vec<usize>,
    epoch: usize,
}

/// Resumable, checkpointable robust distillation.
///
/// [`robust_distill`] is a thin loop over this type, so driving a session
/// manually (checkpointing between epochs) yields bit-identical students.
pub struct RobustDistillSession {
    config: DistillConfig,
    net: cocktail_nn::Mlp,
    bound: Vec<f64>,
    opt: Adam,
    rng: rand::rngs::StdRng,
    order: Vec<usize>,
    epoch: usize,
    /// Telemetry sink; never serialized — a restored session starts on the
    /// [`NullSink`] until the caller re-attaches one.
    tel: Arc<dyn Telemetry>,
}

impl RobustDistillSession {
    /// Starts a fresh session with a newly-initialized student.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or configured bounds mismatch.
    pub fn new(data: &TeacherDataset, config: &DistillConfig) -> Self {
        Self {
            config: config.clone(),
            net: student_arch(data, config),
            bound: resolve_fgsm_bound(data, config),
            opt: Adam::new(config.learning_rate),
            rng: cocktail_math::rng::seeded(config.seed.wrapping_add(17)),
            order: (0..data.len()).collect(),
            epoch: 0,
            tel: Arc::new(NullSink),
        }
    }

    /// Attaches a telemetry sink (builder-style). Telemetry never enters
    /// the checkpoint and never perturbs the update: every event payload is
    /// derived from values the epoch already computes.
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
    /// Panics if the checkpoint's RNG state does not have exactly 4 words.
    pub fn from_checkpoint(ckpt: DistillCheckpoint) -> Self {
        assert_eq!(
            ckpt.rng_state.len(),
            4,
            "distill checkpoint RNG state must have 4 words"
        );
        let words = [
            ckpt.rng_state[0],
            ckpt.rng_state[1],
            ckpt.rng_state[2],
            ckpt.rng_state[3],
        ];
        Self {
            config: ckpt.config,
            net: ckpt.net,
            bound: ckpt.bound,
            opt: ckpt.opt,
            rng: rand::rngs::StdRng::from_state(words),
            order: ckpt.order,
            epoch: ckpt.epoch,
            tel: Arc::new(NullSink),
        }
    }

    /// Snapshots the complete training state.
    pub fn checkpoint(&self) -> DistillCheckpoint {
        DistillCheckpoint {
            config: self.config.clone(),
            net: self.net.clone(),
            bound: self.bound.clone(),
            opt: self.opt.clone(),
            rng_state: self.rng.state().to_vec(),
            order: self.order.clone(),
            epoch: self.epoch,
        }
    }

    /// Epochs completed so far.
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// Whether all configured epochs have run.
    pub fn is_complete(&self) -> bool {
        self.epoch >= self.config.epochs.max(1)
    }

    /// Deterministically re-derives the shuffle/FGSM stream for divergence
    /// retry `retry` (≥ 1).
    pub fn reseed_for_retry(&mut self, retry: u64) {
        self.rng = cocktail_math::rng::seeded(cocktail_math::parallel::task_seed(
            self.config.seed.wrapping_add(17),
            retry,
        ));
    }

    /// Runs one epoch over `data` and returns the mean per-sample training
    /// loss (MSE on the possibly-FGSM-perturbed inputs) — the signal the
    /// pipeline supervisor watches for divergence. The loss is a pure
    /// observation of values the update already computes, so enabling
    /// supervision does not change a single weight.
    ///
    /// # Panics
    ///
    /// Panics if the session [`Self::is_complete`] or `data` does not have
    /// the sample count the session was created with.
    pub fn step_epoch(&mut self, data: &TeacherDataset) -> f64 {
        assert!(!self.is_complete(), "distill session already complete");
        assert_eq!(
            data.len(),
            self.order.len(),
            "dataset size changed between resume and creation"
        );
        let _span = Span::enter_with(
            &*self.tel,
            "robust-distill/epoch",
            vec![("epoch".to_string(), self.epoch.into())],
        );
        let config = &self.config;
        let net = &mut self.net;
        let mut grads = GradStore::zeros_like(net);
        let batch = config.batch_size.max(1).min(data.len());
        let in_dim = data.state_dim();
        let out_dim = data.control_dim();
        let mut cache = BatchCache::new();
        let mut fgsm_cache = BatchCache::new();
        let mut loss_sum = 0.0;
        let mut fgsm_applied = 0u64;
        let mut minibatches = 0u64;

        self.order.shuffle(&mut self.rng);
        for chunk in self.order.chunks(batch) {
            grads.reset();
            let scale = 1.0 / chunk.len() as f64;
            // Algorithm 1 line 12-13: z ~ U[0,1] per sample, in chunk order
            // (the draws happen up front so the batched FGSM below leaves
            // the RNG stream identical to the historical per-sample loop);
            // a sample becomes adversarial iff z ≤ p.
            let zs: Vec<f64> = chunk
                .iter()
                .map(|_| self.rng.gen_range(0.0..=1.0))
                .collect();
            let adv_rows: Vec<usize> = (0..chunk.len())
                .filter(|&r| zs[r] <= config.fgsm_prob)
                .collect();
            fgsm_applied += adv_rows.len() as u64;
            minibatches += 1;

            let mut x = Matrix::zeros(chunk.len(), in_dim);
            for (r, &i) in chunk.iter().enumerate() {
                x.row_mut(r).copy_from_slice(&data.states()[i]);
            }

            // δ = Δ·sign(∇_s ℓ(κ*(s;q), u)) via one batched backprop over
            // the adversarial subset
            if !adv_rows.is_empty() {
                let mut xa = Matrix::zeros(adv_rows.len(), in_dim);
                for (rr, &r) in adv_rows.iter().enumerate() {
                    xa.row_mut(rr).copy_from_slice(x.row(r));
                }
                net.forward_batch_cached(&xa, &mut fgsm_cache);
                let mut g_out = Matrix::zeros(adv_rows.len(), out_dim);
                for (rr, &r) in adv_rows.iter().enumerate() {
                    let u = &data.controls()[chunk[r]];
                    g_out
                        .row_mut(rr)
                        .copy_from_slice(&loss::mse_gradient(fgsm_cache.output().row(rr), u));
                }
                let g_in = net.input_gradient_batch(&fgsm_cache, &g_out);
                for (rr, &r) in adv_rows.iter().enumerate() {
                    let dir = vector::sign(g_in.row(rr));
                    for (xi, (d, b)) in x.row_mut(r).iter_mut().zip(dir.iter().zip(&self.bound)) {
                        *xi += d * b;
                    }
                }
            }

            net.forward_batch_cached(&x, &mut cache);
            let mut g = Matrix::zeros(chunk.len(), out_dim);
            for (r, &i) in chunk.iter().enumerate() {
                let u = &data.controls()[i];
                loss_sum += loss::mse(cache.output().row(r), u);
                g.row_mut(r)
                    .copy_from_slice(&loss::mse_gradient(cache.output().row(r), u));
            }
            net.backward_batch(&cache, &g, &mut grads, scale);

            if config.lambda > 0.0 {
                grads.add_weight_decay(net, config.lambda);
            }
            grads.clip_global_norm(10.0);
            self.opt.step(net, &grads);
        }
        self.epoch += 1;
        let mean_loss = loss_sum / data.len() as f64;
        if self.tel.enabled() {
            self.tel.counter("distill.epochs", 1);
            self.tel.counter("distill.minibatch_updates", minibatches);
            self.tel.counter("distill.fgsm_applied", fgsm_applied);
            self.tel.record(
                Event::point("distill.epoch")
                    .with("epoch", self.epoch - 1)
                    .with("mean_loss", mean_loss),
            );
            self.tel.observe("distill.mean_loss", mean_loss);
        }
        mean_loss
    }

    /// Finalizes the session into the robust student `κ*`.
    pub fn finish(self) -> NnController {
        NnController::unscaled(self.net, "kappa_star")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocktail_control::{Controller, LinearFeedbackController};
    use cocktail_math::{BoxRegion, Matrix};

    fn teacher() -> LinearFeedbackController {
        LinearFeedbackController::new(Matrix::from_rows(vec![vec![4.0, 2.0]]))
    }

    fn dataset() -> TeacherDataset {
        TeacherDataset::sample_uniform(&teacher(), &BoxRegion::cube(2, -1.0, 1.0), 400, 3)
    }

    #[test]
    fn direct_distillation_fits_teacher() {
        let data = dataset();
        let student = direct_distill(
            &data,
            &DistillConfig {
                epochs: 250,
                ..Default::default()
            },
        );
        let t = teacher();
        let mut worst: f64 = 0.0;
        for s in data.states().iter().take(50) {
            worst = worst.max((student.control(s)[0] - t.control(s)[0]).abs());
        }
        assert!(worst < 0.5, "worst error {worst}");
        assert_eq!(student.name(), "kappa_D");
    }

    #[test]
    fn robust_distillation_fits_teacher() {
        let data = dataset();
        let student = robust_distill(
            &data,
            &DistillConfig {
                epochs: 250,
                ..Default::default()
            },
        );
        let t = teacher();
        let mut worst: f64 = 0.0;
        for s in data.states().iter().take(50) {
            worst = worst.max((student.control(s)[0] - t.control(s)[0]).abs());
        }
        assert!(worst < 1.0, "worst error {worst}");
        assert_eq!(student.name(), "kappa_star");
    }

    #[test]
    fn robust_student_has_smaller_lipschitz_constant() {
        let data = dataset();
        let cfg = DistillConfig {
            epochs: 200,
            ..Default::default()
        };
        let kd = direct_distill(&data, &cfg);
        let ks = robust_distill(
            &data,
            &DistillConfig {
                lambda: 1e-3,
                fgsm_prob: 0.5,
                ..cfg
            },
        );
        assert!(
            ks.lipschitz_constant() < kd.lipschitz_constant(),
            "robust {} vs direct {}",
            ks.lipschitz_constant(),
            kd.lipschitz_constant()
        );
    }

    #[test]
    fn fgsm_bound_resolution() {
        let data = dataset();
        let explicit = DistillConfig {
            fgsm_bound: vec![0.3, 0.4],
            ..Default::default()
        };
        assert_eq!(resolve_fgsm_bound(&data, &explicit), vec![0.3, 0.4]);
        let derived = resolve_fgsm_bound(&data, &DistillConfig::default());
        // states span ≈[-1,1] per dim ⇒ bound ≈ 0.1 at the default fraction
        assert!(
            derived.iter().all(|&b| (0.05..0.15).contains(&b)),
            "{derived:?}"
        );
    }

    #[test]
    fn distillation_is_seed_deterministic() {
        let data = dataset();
        let cfg = DistillConfig {
            epochs: 30,
            ..Default::default()
        };
        let a = robust_distill(&data, &cfg);
        let b = robust_distill(&data, &cfg);
        assert_eq!(a.network(), b.network());
    }

    #[test]
    fn recording_telemetry_does_not_perturb_the_student() {
        let data = dataset();
        let cfg = DistillConfig {
            epochs: 10,
            hidden: 16,
            ..Default::default()
        };
        let silent = robust_distill(&data, &cfg);
        let sink = Arc::new(cocktail_obs::InMemorySink::new());
        let mut session = RobustDistillSession::new(&data, &cfg);
        session.set_telemetry(sink.clone());
        while !session.is_complete() {
            session.step_epoch(&data);
        }
        assert!(
            !sink.events().is_empty(),
            "the recording sink saw the epochs"
        );
        assert_eq!(
            session.finish().network(),
            silent.network(),
            "telemetry observes, it never perturbs"
        );
    }

    #[test]
    fn checkpointed_session_resumes_bit_for_bit() {
        let data = dataset();
        let cfg = DistillConfig {
            epochs: 20,
            ..Default::default()
        };
        let uninterrupted = robust_distill(&data, &cfg);

        // interrupt after 7 epochs, round-trip through JSON, resume
        let mut first = RobustDistillSession::new(&data, &cfg);
        for _ in 0..7 {
            first.step_epoch(&data);
        }
        let json = serde_json::to_string(&first.checkpoint()).expect("checkpoint json");
        drop(first);
        let restored: DistillCheckpoint = serde_json::from_str(&json).expect("checkpoint back");
        let mut resumed = RobustDistillSession::from_checkpoint(restored);
        assert_eq!(resumed.epoch(), 7);
        while !resumed.is_complete() {
            resumed.step_epoch(&data);
        }
        assert_eq!(resumed.finish().network(), uninterrupted.network());
    }

    #[test]
    fn epoch_loss_decreases_and_retry_reseed_diverges() {
        let data = dataset();
        let cfg = DistillConfig {
            epochs: 40,
            ..Default::default()
        };
        let mut session = RobustDistillSession::new(&data, &cfg);
        let first = session.step_epoch(&data);
        let mut last = first;
        while !session.is_complete() {
            last = session.step_epoch(&data);
        }
        assert!(last.is_finite() && last < first, "loss {first} -> {last}");

        let run = |retry: Option<u64>| {
            let mut s = RobustDistillSession::new(&data, &cfg);
            if let Some(r) = retry {
                s.reseed_for_retry(r);
            }
            for _ in 0..3 {
                s.step_epoch(&data);
            }
            s.finish()
        };
        assert_ne!(run(Some(2)).network(), run(None).network());
        assert_eq!(run(Some(2)).network(), run(Some(2)).network());
    }
}
