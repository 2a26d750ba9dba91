//! Gradient stores and first-order optimizers.

use crate::mlp::Mlp;
use cocktail_math::Matrix;
use serde::{Deserialize, Serialize};

/// Accumulated gradients mirroring an [`Mlp`]'s parameter shapes.
///
/// A `GradStore` is filled by [`Mlp::backward`] across a minibatch and then
/// handed to an [`Optimizer`].
///
/// # Examples
///
/// ```
/// use cocktail_nn::{Activation, GradStore, MlpBuilder};
///
/// let net = MlpBuilder::new(2).output(1, Activation::Identity).build();
/// let grads = GradStore::zeros_like(&net);
/// assert!(grads.matches(&net));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GradStore {
    weights: Vec<Matrix>,
    biases: Vec<Vec<f64>>,
}

impl GradStore {
    /// Creates a zeroed store shaped like `net`.
    pub fn zeros_like(net: &Mlp) -> Self {
        let weights = net
            .layers()
            .iter()
            .map(|l| Matrix::zeros(l.weights().rows(), l.weights().cols()))
            .collect();
        let biases = net
            .layers()
            .iter()
            .map(|l| vec![0.0; l.biases().len()])
            .collect();
        Self { weights, biases }
    }

    /// Whether this store matches `net`'s shapes.
    pub fn matches(&self, net: &Mlp) -> bool {
        self.weights.len() == net.layers().len()
            && self
                .weights
                .iter()
                .zip(net.layers())
                .all(|(g, l)| g.shape() == l.weights().shape())
            && self
                .biases
                .iter()
                .zip(net.layers())
                .all(|(g, l)| g.len() == l.biases().len())
    }

    /// Resets all gradients to zero.
    pub fn reset(&mut self) {
        for w in &mut self.weights {
            w.as_mut_slice().fill(0.0);
        }
        for b in &mut self.biases {
            b.fill(0.0);
        }
    }

    /// Adds `scale * (gw, gb)` into layer `i`'s slots.
    ///
    /// # Panics
    ///
    /// Panics on index or shape mismatch.
    pub fn accumulate(&mut self, i: usize, gw: &Matrix, gb: &[f64], scale: f64) {
        self.weights[i].axpy(scale, gw);
        cocktail_math::vector::axpy_inplace(&mut self.biases[i], scale, gb);
    }

    /// Weight gradients of layer `i`.
    pub fn weight(&self, i: usize) -> &Matrix {
        &self.weights[i]
    }

    /// Bias gradients of layer `i`.
    pub fn bias(&self, i: usize) -> &[f64] {
        &self.biases[i]
    }

    /// Largest absolute gradient entry (for clipping / diagnostics).
    pub fn max_abs(&self) -> f64 {
        let w = self.weights.iter().map(Matrix::max_abs).fold(0.0, f64::max);
        let b = self
            .biases
            .iter()
            .flat_map(|v| v.iter())
            .fold(0.0_f64, |m, &x| m.max(x.abs()));
        w.max(b)
    }

    /// Global L2 norm of all gradient entries.
    pub fn global_norm(&self) -> f64 {
        let mut acc = 0.0;
        for w in &self.weights {
            acc += w.as_slice().iter().map(|v| v * v).sum::<f64>();
        }
        for b in &self.biases {
            acc += b.iter().map(|v| v * v).sum::<f64>();
        }
        acc.sqrt()
    }

    /// Rescales gradients so the global norm does not exceed `max_norm`.
    ///
    /// # Panics
    ///
    /// Panics if `max_norm <= 0`.
    pub fn clip_global_norm(&mut self, max_norm: f64) {
        assert!(max_norm > 0.0, "max_norm must be positive");
        let norm = self.global_norm();
        if norm <= max_norm {
            return;
        }
        let s = max_norm / norm;
        for w in &mut self.weights {
            w.scale_inplace(s);
        }
        for b in &mut self.biases {
            for v in b.iter_mut() {
                *v *= s;
            }
        }
    }

    /// Adds `2 λ q` weight-decay gradients for every parameter of `net`
    /// (the L2 regularizer of robust distillation).
    ///
    /// # Panics
    ///
    /// Panics if the store does not match `net`.
    pub fn add_weight_decay(&mut self, net: &Mlp, lambda: f64) {
        assert!(self.matches(net), "gradient store shape mismatch");
        for (i, layer) in net.layers().iter().enumerate() {
            self.weights[i].axpy(2.0 * lambda, layer.weights());
            cocktail_math::vector::axpy_inplace(&mut self.biases[i], 2.0 * lambda, layer.biases());
        }
    }
}

/// A first-order optimizer that applies a [`GradStore`] to an [`Mlp`].
///
/// The trait is object-safe so training loops can hold `Box<dyn Optimizer>`.
pub trait Optimizer {
    /// Applies one update step of the accumulated gradients to `net`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `grads` does not match `net`.
    fn step(&mut self, net: &mut Mlp, grads: &GradStore);

    /// Current learning rate.
    fn learning_rate(&self) -> f64;

    /// Overrides the learning rate (for schedules).
    ///
    /// # Panics
    ///
    /// Implementations panic if `lr <= 0`.
    fn set_learning_rate(&mut self, lr: f64);
}

/// Adam optimizer (Kingma & Ba) with bias correction.
///
/// Serializable so a training checkpoint can capture the exact optimizer
/// moments (`m`, `v`, step count `t`) and resume bit-for-bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Option<GradStore>,
    v: Option<GradStore>,
}

impl Adam {
    /// Creates Adam with the standard `(β₁, β₂, ε) = (0.9, 0.999, 1e-8)`.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: None,
            v: None,
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, net: &mut Mlp, grads: &GradStore) {
        assert!(grads.matches(net), "gradient store shape mismatch");
        self.t += 1;
        let (b1, b2) = (self.beta1, self.beta2);
        let m = self.m.get_or_insert_with(|| {
            let mut s = grads.clone();
            s.reset();
            s
        });
        let v = self.v.get_or_insert_with(|| {
            let mut s = grads.clone();
            s.reset();
            s
        });
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        for (i, layer) in net.layers_mut().iter_mut().enumerate() {
            // weights
            {
                let g = grads.weight(i).as_slice();
                let mw = m.weights[i].as_mut_slice();
                let vw = v.weights[i].as_mut_slice();
                let pw = layer.weights_mut().as_mut_slice();
                for j in 0..g.len() {
                    mw[j] = b1 * mw[j] + (1.0 - b1) * g[j];
                    vw[j] = b2 * vw[j] + (1.0 - b2) * g[j] * g[j];
                    let mhat = mw[j] / bc1;
                    let vhat = vw[j] / bc2;
                    pw[j] -= self.lr * mhat / (vhat.sqrt() + self.eps);
                }
            }
            // biases
            {
                let g = grads.bias(i);
                let mb = &mut m.biases[i];
                let vb = &mut v.biases[i];
                let pb = layer.biases_mut();
                for j in 0..g.len() {
                    mb[j] = b1 * mb[j] + (1.0 - b1) * g[j];
                    vb[j] = b2 * vb[j] + (1.0 - b2) * g[j] * g[j];
                    let mhat = mb[j] / bc1;
                    let vhat = vb[j] / bc2;
                    pb[j] -= self.lr * mhat / (vhat.sqrt() + self.eps);
                }
            }
        }
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::loss;
    use crate::mlp::MlpBuilder;

    fn tiny_net(seed: u64) -> Mlp {
        MlpBuilder::new(1)
            .hidden(8, Activation::Tanh)
            .output(1, Activation::Identity)
            .seed(seed)
            .build()
    }

    fn train_step(net: &mut Mlp, opt: &mut dyn Optimizer, x: &[f64], t: &[f64]) -> f64 {
        let mut grads = GradStore::zeros_like(net);
        let cache = net.forward_cached(x);
        let l = loss::mse(cache.output(), t);
        let g = loss::mse_gradient(cache.output(), t);
        net.backward(&cache, &g, &mut grads, 1.0);
        opt.step(net, &grads);
        l
    }

    #[test]
    fn adam_reduces_loss() {
        let mut net = tiny_net(3);
        let mut opt = Adam::new(0.02);
        let first = train_step(&mut net, &mut opt, &[-0.4], &[0.7]);
        let mut last = first;
        for _ in 0..200 {
            last = train_step(&mut net, &mut opt, &[-0.4], &[0.7]);
        }
        assert!(last < first * 0.01, "loss {first} -> {last}");
    }

    #[test]
    fn grad_store_reset_and_norms() {
        let net = tiny_net(4);
        let mut grads = GradStore::zeros_like(&net);
        assert_eq!(grads.global_norm(), 0.0);
        let cache = net.forward_cached(&[0.1]);
        let g = loss::mse_gradient(cache.output(), &[5.0]);
        net.backward(&cache, &g, &mut grads, 1.0);
        assert!(grads.global_norm() > 0.0);
        assert!(grads.max_abs() > 0.0);
        grads.reset();
        assert_eq!(grads.global_norm(), 0.0);
    }

    #[test]
    fn clip_global_norm_caps() {
        let net = tiny_net(5);
        let mut grads = GradStore::zeros_like(&net);
        let cache = net.forward_cached(&[0.9]);
        let g = loss::mse_gradient(cache.output(), &[100.0]);
        net.backward(&cache, &g, &mut grads, 1.0);
        grads.clip_global_norm(0.5);
        assert!(grads.global_norm() <= 0.5 + 1e-12);
    }

    #[test]
    fn weight_decay_points_towards_zero() {
        let net = tiny_net(6);
        let mut grads = GradStore::zeros_like(&net);
        grads.add_weight_decay(&net, 0.1);
        // gradient of λ‖q‖² is 2λq: same sign as the parameter
        for (i, layer) in net.layers().iter().enumerate() {
            for (g, w) in grads
                .weight(i)
                .as_slice()
                .iter()
                .zip(layer.weights().as_slice())
            {
                assert_eq!(g.signum(), (2.0 * 0.1 * w).signum());
            }
        }
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Adam::new(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
        opt.set_learning_rate(0.5);
        assert_eq!(opt.learning_rate(), 0.5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_lr_panics() {
        Adam::new(0.0);
    }

    #[test]
    fn adam_checkpoint_round_trip_resumes_exactly() {
        // train 5 steps, snapshot net+optimizer, train 5 more; the resumed
        // copy must land on bit-identical parameters
        let mut net = tiny_net(7);
        let mut opt = Adam::new(0.05);
        for _ in 0..5 {
            train_step(&mut net, &mut opt, &[0.3], &[-0.8]);
        }
        let json_net = serde_json::to_string(&net).expect("net json");
        let json_opt = serde_json::to_string(&opt).expect("opt json");
        let mut net2: Mlp = serde_json::from_str(&json_net).expect("net back");
        let mut opt2: Adam = serde_json::from_str(&json_opt).expect("opt back");
        assert_eq!(opt2, opt);
        for _ in 0..5 {
            train_step(&mut net, &mut opt, &[0.3], &[-0.8]);
            train_step(&mut net2, &mut opt2, &[0.3], &[-0.8]);
        }
        assert_eq!(net, net2);
    }
}
