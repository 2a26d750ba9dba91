//! Minibatch regression training.
//!
//! [`fit_regression`] is the workhorse behind behavior-cloned experts and
//! both distillation variants: plain supervised MSE training of an [`Mlp`]
//! on `(input, target)` pairs with Adam, shuffled minibatches and optional
//! L2 weight decay.

use crate::loss;
use crate::mlp::{BatchCache, Mlp};
use crate::optimizer::{Adam, GradStore, Optimizer};
use cocktail_math::Matrix;
use rand::seq::SliceRandom;

/// Copies dataset rows selected by `idx` into `batch`-major scratch
/// matrices, reallocating only when the chunk size changes.
fn fill_rows(buf: &mut Matrix, rows: &[Vec<f64>], idx: &[usize], width: usize) {
    if buf.shape() != (idx.len(), width) {
        *buf = Matrix::zeros(idx.len(), width);
    }
    for (r, &i) in idx.iter().enumerate() {
        buf.row_mut(r).copy_from_slice(&rows[i]);
    }
}

/// Configuration for [`fit_regression`].
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the dataset.
    pub epochs: usize,
    /// Minibatch size (clamped to the dataset size).
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// L2 weight-decay coefficient λ (0 disables).
    pub weight_decay: f64,
    /// Global gradient-norm clip (`None` disables).
    pub grad_clip: Option<f64>,
    /// Fraction of the dataset held out for validation (0 disables early
    /// stopping; the split is deterministic in the seed).
    pub validation_fraction: f64,
    /// Early-stopping patience: epochs without validation improvement
    /// before training stops (only with a validation split).
    pub patience: usize,
    /// RNG seed for minibatch shuffling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 100,
            batch_size: 32,
            learning_rate: 1e-2,
            weight_decay: 0.0,
            grad_clip: Some(10.0),
            validation_fraction: 0.0,
            patience: 10,
            seed: 0,
        }
    }
}

/// Outcome of a [`fit_regression_with_report`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainReport {
    /// Mean training loss of the final executed epoch.
    pub final_train_loss: f64,
    /// Best validation loss observed (`None` without a validation split).
    pub best_validation_loss: Option<f64>,
    /// Epochs actually executed (≤ `config.epochs` with early stopping).
    pub epochs_run: usize,
}

/// Trains `net` to regress `targets` from `inputs` with MSE + Adam.
///
/// Returns the mean training loss of the final epoch.
///
/// # Panics
///
/// Panics if the dataset is empty, lengths mismatch, or any sample's
/// dimension disagrees with the network.
///
/// # Examples
///
/// ```
/// use cocktail_nn::{Activation, MlpBuilder};
/// use cocktail_nn::train::{fit_regression, TrainConfig};
///
/// let mut net = MlpBuilder::new(1).hidden(8, Activation::Tanh)
///     .output(1, Activation::Identity).seed(3).build();
/// let xs = vec![vec![-1.0], vec![0.0], vec![1.0]];
/// let ys = vec![vec![1.0], vec![0.0], vec![1.0]]; // y = x²
/// let final_loss = fit_regression(&mut net, &xs, &ys,
///     &TrainConfig { epochs: 600, ..TrainConfig::default() });
/// assert!(final_loss < 0.05);
/// ```
pub fn fit_regression(
    net: &mut Mlp,
    inputs: &[Vec<f64>],
    targets: &[Vec<f64>],
    config: &TrainConfig,
) -> f64 {
    fit_regression_with_report(net, inputs, targets, config).final_train_loss
}

/// [`fit_regression`] returning the full [`TrainReport`], with optional
/// validation-split early stopping: when `config.validation_fraction > 0`,
/// a deterministic hold-out is carved off, the validation loss is tracked
/// each epoch, training stops after `config.patience` epochs without
/// improvement, and the best-validation weights are restored.
///
/// # Panics
///
/// Panics under the same conditions as [`fit_regression`], or when the
/// validation fraction is outside `[0, 0.9]` or leaves no training data.
pub fn fit_regression_with_report(
    net: &mut Mlp,
    inputs: &[Vec<f64>],
    targets: &[Vec<f64>],
    config: &TrainConfig,
) -> TrainReport {
    assert!(!inputs.is_empty(), "training set is empty");
    assert_eq!(
        inputs.len(),
        targets.len(),
        "inputs/targets length mismatch"
    );
    assert!(
        (0.0..=0.9).contains(&config.validation_fraction),
        "validation fraction must be in [0, 0.9]"
    );
    let mut rng = cocktail_math::rng::seeded(config.seed);

    // deterministic validation split
    let mut split: Vec<usize> = (0..inputs.len()).collect();
    split.shuffle(&mut rng);
    let val_count = (inputs.len() as f64 * config.validation_fraction) as usize;
    let (val_idx, train_idx) = split.split_at(val_count);
    assert!(
        !train_idx.is_empty(),
        "validation split left no training data"
    );

    let mut opt = Adam::new(config.learning_rate);
    let mut grads = GradStore::zeros_like(net);
    let mut order: Vec<usize> = train_idx.to_vec();
    let batch = config.batch_size.max(1).min(order.len());

    let in_dim = net.input_dim();
    let out_dim = net.output_dim();
    let mut cache = BatchCache::new();
    let mut x = Matrix::zeros(batch, in_dim);
    let mut t = Matrix::zeros(batch, out_dim);
    let mut g = Matrix::zeros(batch, out_dim);
    let mut val_cache = BatchCache::new();
    let mut val_x = Matrix::zeros(1, 1);
    let mut val_t = Matrix::zeros(1, 1);
    if !val_idx.is_empty() {
        fill_rows(&mut val_x, inputs, val_idx, in_dim);
        fill_rows(&mut val_t, targets, val_idx, out_dim);
    }

    let mut last_epoch_loss = f64::INFINITY;
    let mut best_val: Option<(f64, Mlp)> = None;
    let mut stale_epochs = 0usize;
    let mut epochs_run = 0usize;

    for _ in 0..config.epochs.max(1) {
        epochs_run += 1;
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        let mut samples = 0usize;
        for chunk in order.chunks(batch) {
            grads.reset();
            let scale = 1.0 / chunk.len() as f64;
            fill_rows(&mut x, inputs, chunk, in_dim);
            fill_rows(&mut t, targets, chunk, out_dim);
            if g.shape() != (chunk.len(), out_dim) {
                g = Matrix::zeros(chunk.len(), out_dim);
            }
            net.forward_batch_cached(&x, &mut cache);
            let out = cache.output();
            for r in 0..chunk.len() {
                epoch_loss += loss::mse(out.row(r), t.row(r));
                let gr = loss::mse_gradient(out.row(r), t.row(r));
                g.row_mut(r).copy_from_slice(&gr);
            }
            samples += chunk.len();
            net.backward_batch(&cache, &g, &mut grads, scale);
            if config.weight_decay > 0.0 {
                grads.add_weight_decay(net, config.weight_decay);
            }
            if let Some(c) = config.grad_clip {
                grads.clip_global_norm(c);
            }
            opt.step(net, &grads);
        }
        last_epoch_loss = epoch_loss / samples as f64;

        if !val_idx.is_empty() {
            net.forward_batch_cached(&val_x, &mut val_cache);
            let out = val_cache.output();
            let val_loss = (0..val_idx.len())
                .map(|r| loss::mse(out.row(r), val_t.row(r)))
                .sum::<f64>()
                / val_idx.len() as f64;
            // a non-finite validation loss is divergence, never an
            // improvement: without the finiteness guard, NaN compares
            // false against the incumbent and would be recorded as a new
            // best (and its weights restored) every epoch
            let improved =
                val_loss.is_finite() && best_val.as_ref().is_none_or(|(best, _)| val_loss < *best);
            if improved {
                best_val = Some((val_loss, net.clone()));
                stale_epochs = 0;
            } else {
                stale_epochs += 1;
                if stale_epochs >= config.patience.max(1) {
                    break;
                }
            }
        }
    }
    let best_validation_loss = best_val.map(|(v, best_net)| {
        *net = best_net;
        v
    });
    TrainReport {
        final_train_loss: last_epoch_loss,
        best_validation_loss,
        epochs_run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::mlp::MlpBuilder;

    fn dataset(f: impl Fn(f64) -> f64, n: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![2.0 * i as f64 / n as f64 - 1.0])
            .collect();
        let ys = xs.iter().map(|x| vec![f(x[0])]).collect();
        (xs, ys)
    }

    #[test]
    fn fits_linear_function() {
        let (xs, ys) = dataset(|x| 3.0 * x - 0.5, 64);
        let mut net = MlpBuilder::new(1)
            .hidden(8, Activation::Tanh)
            .output(1, Activation::Identity)
            .seed(11)
            .build();
        let l = fit_regression(
            &mut net,
            &xs,
            &ys,
            &TrainConfig {
                epochs: 300,
                ..Default::default()
            },
        );
        assert!(l < 1e-2, "final loss {l}");
    }

    #[test]
    fn fits_nonlinear_function() {
        let (xs, ys) = dataset(|x| (3.0 * x).sin(), 128);
        let mut net = MlpBuilder::new(1)
            .hidden(24, Activation::Tanh)
            .hidden(24, Activation::Tanh)
            .output(1, Activation::Identity)
            .seed(12)
            .build();
        let l = fit_regression(
            &mut net,
            &xs,
            &ys,
            &TrainConfig {
                epochs: 400,
                learning_rate: 5e-3,
                ..Default::default()
            },
        );
        assert!(l < 2e-2, "final loss {l}");
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let (xs, ys) = dataset(|x| 2.0 * x, 32);
        let make = || {
            MlpBuilder::new(1)
                .hidden(16, Activation::Tanh)
                .output(1, Activation::Identity)
                .seed(13)
                .build()
        };
        let mut free = make();
        let mut decayed = make();
        let cfg = TrainConfig {
            epochs: 200,
            ..Default::default()
        };
        fit_regression(&mut free, &xs, &ys, &cfg);
        fit_regression(
            &mut decayed,
            &xs,
            &ys,
            &TrainConfig {
                weight_decay: 0.01,
                ..cfg
            },
        );
        assert!(decayed.weight_norm_sq() < free.weight_norm_sq());
    }

    #[test]
    fn training_is_seed_deterministic() {
        let (xs, ys) = dataset(|x| x * x, 32);
        let run = || {
            let mut net = MlpBuilder::new(1)
                .hidden(8, Activation::Tanh)
                .output(1, Activation::Identity)
                .seed(14)
                .build();
            fit_regression(
                &mut net,
                &xs,
                &ys,
                &TrainConfig {
                    epochs: 50,
                    ..Default::default()
                },
            );
            net
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn early_stopping_limits_epochs_and_restores_best() {
        let (xs, ys) = dataset(|x| (2.0 * x).sin(), 96);
        let mut net = MlpBuilder::new(1)
            .hidden(16, Activation::Tanh)
            .output(1, Activation::Identity)
            .seed(21)
            .build();
        let report = fit_regression_with_report(
            &mut net,
            &xs,
            &ys,
            &TrainConfig {
                epochs: 2000,
                validation_fraction: 0.25,
                patience: 5,
                ..Default::default()
            },
        );
        assert!(report.epochs_run < 2000, "early stopping never fired");
        let best = report
            .best_validation_loss
            .expect("validation split active");
        assert!(best < 0.1, "best validation loss {best}");
        // restored weights reproduce the recorded best validation loss
        let mut split: Vec<usize> = (0..xs.len()).collect();
        use rand::seq::SliceRandom;
        let mut rng = cocktail_math::rng::seeded(0);
        split.shuffle(&mut rng);
        let val_count = (xs.len() as f64 * 0.25) as usize;
        let recomputed = split[..val_count]
            .iter()
            .map(|&i| crate::loss::mse(&net.forward(&xs[i]), &ys[i]))
            .sum::<f64>()
            / val_count as f64;
        assert!(
            (recomputed - best).abs() < 1e-9,
            "restored {recomputed} vs best {best}"
        );
    }

    #[test]
    fn zero_validation_fraction_disables_early_stopping() {
        let (xs, ys) = dataset(|x| x, 16);
        let mut net = MlpBuilder::new(1)
            .hidden(4, Activation::Tanh)
            .output(1, Activation::Identity)
            .build();
        let report = fit_regression_with_report(
            &mut net,
            &xs,
            &ys,
            &TrainConfig {
                epochs: 25,
                ..Default::default()
            },
        );
        assert_eq!(report.epochs_run, 25);
        assert!(report.best_validation_loss.is_none());
    }

    #[test]
    fn nan_targets_never_become_the_best_validation_weights() {
        // divergence guard: a NaN validation loss must count as stale,
        // not as a new best, so early stopping still terminates and no
        // NaN snapshot is restored
        let (xs, ys) = dataset(|_| f64::NAN, 32);
        let mut net = MlpBuilder::new(1)
            .hidden(4, Activation::Tanh)
            .output(1, Activation::Identity)
            .seed(15)
            .build();
        let report = fit_regression_with_report(
            &mut net,
            &xs,
            &ys,
            &TrainConfig {
                epochs: 50,
                validation_fraction: 0.25,
                patience: 3,
                ..Default::default()
            },
        );
        assert!(report.best_validation_loss.is_none());
        assert_eq!(
            report.epochs_run, 3,
            "early stopping must fire on stale NaN epochs"
        );
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_dataset_panics() {
        let mut net = MlpBuilder::new(1).output(1, Activation::Identity).build();
        fit_regression(&mut net, &[], &[], &TrainConfig::default());
    }
}
