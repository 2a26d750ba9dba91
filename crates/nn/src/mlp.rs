//! Multi-layer perceptrons.

use crate::activation::Activation;
use crate::fast::ForwardKernel;
use crate::layer::Dense;
use crate::optimizer::GradStore;
use cocktail_math::{BoxRegion, Interval, Matrix};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A feed-forward multi-layer perceptron.
///
/// Construct one with [`MlpBuilder`]. The network owns its layers and
/// exposes a cached forward pass ([`Mlp::forward_cached`]) whose result
/// feeds [`Mlp::backward`] to obtain parameter gradients and the gradient
/// of the loss with respect to the *input* — the quantity FGSM perturbs.
///
/// # Examples
///
/// ```
/// use cocktail_nn::{Activation, MlpBuilder};
///
/// let net = MlpBuilder::new(2)
///     .hidden(16, Activation::Tanh)
///     .output(1, Activation::Identity)
///     .seed(1)
///     .build();
/// assert_eq!(net.input_dim(), 2);
/// assert_eq!(net.output_dim(), 1);
/// assert_eq!(net.forward(&[0.0, 0.0]).len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Mlp {
    layers: Vec<Dense>,
}

/// Refuses a network whose layers do not chain: each layer must read as
/// many inputs as the previous one emits.
impl Deserialize for Mlp {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        #[derive(Deserialize)]
        struct MlpFields {
            layers: Vec<Dense>,
        }
        let MlpFields { layers } = MlpFields::from_value(v)?;
        for (i, pair) in layers.windows(2).enumerate() {
            if pair[1].input_dim() != pair[0].output_dim() {
                return Err(serde::DeError::custom(format!(
                    "layer {} reads {} inputs but layer {i} emits {}",
                    i + 1,
                    pair[1].input_dim(),
                    pair[0].output_dim()
                )));
            }
        }
        Ok(Self { layers })
    }
}

/// Cached per-layer values of a forward pass, consumed by [`Mlp::backward`].
#[derive(Debug, Clone)]
pub struct ForwardCache {
    /// Input and each layer's activation output (`layers.len() + 1` entries).
    pub activations: Vec<Vec<f64>>,
    /// Each layer's pre-activation (`layers.len()` entries).
    pub pre_activations: Vec<Vec<f64>>,
}

impl ForwardCache {
    /// The network output (last activation).
    #[allow(
        clippy::expect_used,
        reason = "the cache always holds the input activation"
    )]
    pub fn output(&self) -> &[f64] {
        self.activations
            .last()
            .expect("cache always holds the input")
    }
}

/// Cached per-layer values of a batched forward pass, consumed by
/// [`Mlp::backward_batch`].
///
/// The cache owns its scratch matrices and reuses them across calls to
/// [`Mlp::forward_batch_cached`] whenever the batch size is unchanged, so a
/// training loop allocates the per-layer buffers once per batch *shape*
/// rather than once per minibatch.
#[derive(Debug, Clone, Default)]
pub struct BatchCache {
    /// Input and each layer's activation output (`layers.len() + 1` entries),
    /// one sample per row.
    pub activations: Vec<Matrix>,
    /// Each layer's pre-activation (`layers.len()` entries), one sample per
    /// row.
    pub pre_activations: Vec<Matrix>,
    /// Transposed-weight scratch for the matmul inside the forward pass,
    /// reused across layers and calls.
    weight_scratch: Vec<f64>,
}

impl BatchCache {
    /// Creates an empty cache; buffers are allocated on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The network output block (last activation), one sample per row.
    ///
    /// # Panics
    ///
    /// Panics if the cache has never been filled.
    #[allow(
        clippy::expect_used,
        reason = "a filled cache always holds the input activation"
    )]
    pub fn output(&self) -> &Matrix {
        self.activations.last().expect("cache is filled")
    }

    /// Ensures the buffer layout matches `net` at `batch` rows, reusing
    /// existing allocations when the shapes already agree.
    ///
    /// When the layout already matches this is allocation-free — the
    /// serving hot loop relies on that (a steady-state batch must not
    /// touch the heap at all).
    fn prepare(&mut self, net: &Mlp, batch: usize) {
        let n = net.layers.len();
        let matches = self.activations.len() == n + 1
            && self.pre_activations.len() == n
            && self.activations[0].shape() == (batch, net.input_dim())
            && net.layers.iter().enumerate().all(|(i, layer)| {
                let want = (batch, layer.output_dim());
                self.activations[i + 1].shape() == want && self.pre_activations[i].shape() == want
            });
        if matches {
            return;
        }
        let want_acts = n + 1;
        let mut dims = Vec::with_capacity(want_acts);
        dims.push(net.input_dim());
        dims.extend(net.layers.iter().map(Dense::output_dim));
        let fix = |bufs: &mut Vec<Matrix>, dims: &[usize]| {
            bufs.truncate(dims.len());
            for (i, &d) in dims.iter().enumerate() {
                if bufs.get(i).map(Matrix::shape) != Some((batch, d)) {
                    let m = Matrix::zeros(batch, d);
                    if i < bufs.len() {
                        bufs[i] = m;
                    } else {
                        bufs.push(m);
                    }
                }
            }
        };
        fix(&mut self.activations, &dims);
        fix(&mut self.pre_activations, &dims[1..]);
    }
}

impl Mlp {
    /// Builds a network from explicit layers.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or consecutive dimensions mismatch.
    pub fn from_layers(layers: Vec<Dense>) -> Self {
        assert!(!layers.is_empty(), "network needs at least one layer");
        for w in layers.windows(2) {
            assert_eq!(
                w[0].output_dim(),
                w[1].input_dim(),
                "consecutive layer dimensions mismatch"
            );
        }
        Self { layers }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layers[0].input_dim()
    }

    /// Output dimension.
    #[allow(
        clippy::expect_used,
        reason = "Mlp construction rejects empty layer lists"
    )]
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("non-empty").output_dim()
    }

    /// The layers, in order.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Mutable access to the layers (used by optimizers).
    pub fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// True when every weight and bias of `layer` is finite. Used by the
    /// debug finiteness guards: diverged training legitimately drives
    /// parameters to NaN, and such layers are exempt from the
    /// finite-in-finite-out invariant.
    fn layer_params_finite(layer: &Dense) -> bool {
        layer.weights().as_slice().iter().all(|v| v.is_finite())
            && layer.biases().iter().all(|v| v.is_finite())
    }

    /// Plain forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_dim()`.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        // RL exploration legitimately evaluates policies on diverged
        // (non-finite) states, and diverged training legitimately breaks
        // weights, so the blow-up guard only fires when both the input
        // and the layer's own parameters are finite. The parameter scan
        // is behind the (normally true) activation check, so healthy
        // debug runs never pay for it.
        let input_finite = x.iter().all(|v| v.is_finite());
        let mut a = x.to_vec();
        for (i, layer) in self.layers.iter().enumerate() {
            a = layer.forward(&a).1;
            debug_assert!(
                !input_finite
                    || a.iter().all(|v| v.is_finite())
                    || !Self::layer_params_finite(layer),
                "layer {i} produced a non-finite activation from finite input and parameters: {a:?}"
            );
        }
        a
    }

    /// Forward pass that records all intermediate values for [`Self::backward`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_dim()`.
    #[allow(
        clippy::expect_used,
        reason = "the input activation is pushed before the loop"
    )]
    pub fn forward_cached(&self, x: &[f64]) -> ForwardCache {
        let mut activations = Vec::with_capacity(self.layers.len() + 1);
        let mut pre_activations = Vec::with_capacity(self.layers.len());
        let input_finite = x.iter().all(|v| v.is_finite());
        activations.push(x.to_vec());
        for (i, layer) in self.layers.iter().enumerate() {
            let (z, a) = layer.forward(activations.last().expect("pushed above"));
            debug_assert!(
                !input_finite
                    || a.iter().all(|v| v.is_finite())
                    || !Self::layer_params_finite(layer),
                "layer {i} produced a non-finite activation from finite input and parameters: {a:?}"
            );
            pre_activations.push(z);
            activations.push(a);
        }
        ForwardCache {
            activations,
            pre_activations,
        }
    }

    /// Backpropagates `grad_output` (the loss gradient at the network
    /// output) through the cached forward pass.
    ///
    /// Accumulates parameter gradients into `grads` (scaled by `scale`,
    /// useful for minibatch averaging) and returns the gradient with
    /// respect to the network input.
    ///
    /// # Panics
    ///
    /// Panics if the cache or gradient dimensions do not match this network.
    pub fn backward(
        &self,
        cache: &ForwardCache,
        grad_output: &[f64],
        grads: &mut GradStore,
        scale: f64,
    ) -> Vec<f64> {
        assert_eq!(
            grad_output.len(),
            self.output_dim(),
            "output gradient dimension mismatch"
        );
        assert_eq!(
            cache.pre_activations.len(),
            self.layers.len(),
            "cache layer count mismatch"
        );
        assert!(grads.matches(self), "gradient store shape mismatch");
        let boundary_finite = grad_output.iter().all(|v| v.is_finite())
            && cache.activations[0].iter().all(|v| v.is_finite());
        let mut grad = grad_output.to_vec();
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let x = &cache.activations[i];
            let z = &cache.pre_activations[i];
            let (gw, gb, gx) = layer.backward(x, z, &grad);
            grads.accumulate(i, &gw, &gb, scale);
            grad = gx;
            debug_assert!(
                !boundary_finite
                    || grad.iter().all(|v| v.is_finite())
                    || !Self::layer_params_finite(layer),
                "layer {i} produced a non-finite input gradient from finite boundary values"
            );
        }
        grad
    }

    /// Batched forward pass: one sample per row of `x`, one output per row
    /// of the result. Each row is bit-identical to [`Mlp::forward`] on the
    /// corresponding input row.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.input_dim()`.
    pub fn forward_batch(&self, x: &Matrix) -> Matrix {
        let mut cache = BatchCache::new();
        self.forward_batch_cached(x, &mut cache);
        #[allow(clippy::expect_used, reason = "the cache was just filled")]
        cache.activations.pop().expect("cache is filled")
    }

    /// Batched forward pass recording all intermediate blocks into `cache`
    /// for [`Mlp::backward_batch`] / [`Mlp::input_gradient_batch`].
    ///
    /// Reuses the cache's scratch matrices when the batch size is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.input_dim()`.
    pub fn forward_batch_cached(&self, x: &Matrix, cache: &mut BatchCache) {
        self.forward_batch_cached_kernel(x, cache, ForwardKernel::Exact);
    }

    /// [`Mlp::forward_batch_cached`] with an explicit activation kernel.
    ///
    /// [`ForwardKernel::Exact`] is the default contract (bit-identical to
    /// per-sample [`Mlp::forward`]); [`ForwardKernel::FastTanh`] serves the
    /// fast tier: same GEMM, [`crate::fast::fast_tanh`] in place of `tanh`,
    /// every output within the bundle's certified fast-tier error of the
    /// exact result. Training and admission re-derivation must stay on
    /// `Exact`.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.input_dim()`.
    pub fn forward_batch_cached_kernel(
        &self,
        x: &Matrix,
        cache: &mut BatchCache,
        kernel: ForwardKernel,
    ) {
        assert_eq!(x.cols(), self.input_dim(), "input dimension mismatch");
        cache.prepare(self, x.rows());
        let input_finite = x.as_slice().iter().all(|v| v.is_finite());
        cache.activations[0]
            .as_mut_slice()
            .copy_from_slice(x.as_slice());
        for (i, layer) in self.layers.iter().enumerate() {
            let (head, tail) = cache.activations.split_at_mut(i + 1);
            let a = &mut tail[0];
            layer.forward_batch_into_with_kernel(
                &head[i],
                &mut cache.pre_activations[i],
                a,
                &mut cache.weight_scratch,
                kernel,
            );
            debug_assert!(
                !input_finite
                    || a.as_slice().iter().all(|v| v.is_finite())
                    || !Self::layer_params_finite(layer),
                "layer {i} produced a non-finite activation from finite input and parameters"
            );
        }
    }

    /// Batched counterpart of [`Mlp::backward`]: backpropagates a block of
    /// per-row output gradients through the cached batched forward pass.
    ///
    /// Parameter gradients are summed over the batch and accumulated into
    /// `grads` scaled by `scale` (pass `1.0 / batch` for a minibatch mean).
    /// Returns the per-row gradients with respect to the network input.
    /// Agrees with per-sample [`Mlp::backward`] accumulation to floating-point
    /// round-off (the batched path applies `scale` once to each summed
    /// gradient instead of per sample).
    ///
    /// # Panics
    ///
    /// Panics if the cache or gradient dimensions do not match this network.
    pub fn backward_batch(
        &self,
        cache: &BatchCache,
        grad_output: &Matrix,
        grads: &mut GradStore,
        scale: f64,
    ) -> Matrix {
        assert_eq!(
            grad_output.cols(),
            self.output_dim(),
            "output gradient dimension mismatch"
        );
        assert_eq!(
            cache.pre_activations.len(),
            self.layers.len(),
            "cache layer count mismatch"
        );
        assert!(grads.matches(self), "gradient store shape mismatch");
        let mut grad = grad_output.clone();
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let (gw, gb, gx) = layer.backward_batch(
                &cache.activations[i],
                &cache.pre_activations[i],
                &cache.activations[i + 1],
                &grad,
            );
            grads.accumulate(i, &gw, &gb, scale);
            grad = gx;
        }
        grad
    }

    /// Batched counterpart of [`Mlp::input_gradient`], reading the forward
    /// pass from `cache` so FGSM-style callers pay for one forward only.
    /// Skips the parameter-gradient products entirely.
    ///
    /// # Panics
    ///
    /// Panics if the cache or gradient dimensions do not match this network.
    pub fn input_gradient_batch(&self, cache: &BatchCache, grad_output: &Matrix) -> Matrix {
        assert_eq!(
            grad_output.cols(),
            self.output_dim(),
            "output gradient dimension mismatch"
        );
        assert_eq!(
            cache.pre_activations.len(),
            self.layers.len(),
            "cache layer count mismatch"
        );
        let mut grad = grad_output.clone();
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let delta =
                layer.delta_batch(&cache.pre_activations[i], &cache.activations[i + 1], &grad);
            grad = delta.matmul(layer.weights());
        }
        grad
    }

    /// Gradient of the scalar function `v ↦ grad_output · f(v)` with respect
    /// to the input, without touching parameter gradients. This is the
    /// primitive behind FGSM and DDPG's actor update.
    ///
    /// # Panics
    ///
    /// Panics if dimensions mismatch.
    pub fn input_gradient(&self, x: &[f64], grad_output: &[f64]) -> Vec<f64> {
        let cache = self.forward_cached(x);
        let mut grad = grad_output.to_vec();
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let (_, _, gx) =
                layer.backward(&cache.activations[i], &cache.pre_activations[i], &grad);
            grad = gx;
        }
        grad
    }

    /// Sound output bounds over a state box via interval bound propagation.
    ///
    /// # Panics
    ///
    /// Panics if `region.dim() != self.input_dim()`.
    pub fn bounds(&self, region: &BoxRegion) -> Vec<Interval> {
        assert_eq!(region.dim(), self.input_dim(), "region dimension mismatch");
        let mut iv: Vec<Interval> = region.intervals().to_vec();
        for layer in &self.layers {
            iv = layer.forward_interval(&iv);
        }
        iv
    }

    /// Sum of squared weights and biases — the `‖q‖²` regularizer of the
    /// robust-distillation objective.
    pub fn weight_norm_sq(&self) -> f64 {
        self.layers
            .iter()
            .map(|l| {
                l.weights().as_slice().iter().map(|w| w * w).sum::<f64>()
                    + l.biases().iter().map(|b| b * b).sum::<f64>()
            })
            .sum()
    }

    /// Serializes the network to a JSON string.
    ///
    /// # Errors
    ///
    /// Returns an error when any weight or bias is non-finite: the JSON
    /// writer would emit bare `NaN` / `Infinity` literals that strict JSON
    /// consumers (and the artifact-bundle loader) reject, so the refusal
    /// happens here, where the offending layer can still be named.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        for (i, layer) in self.layers.iter().enumerate() {
            if !Self::layer_params_finite(layer) {
                return Err(serde::DeError::custom(format!(
                    "layer {i} holds a non-finite weight or bias; refusing to emit \
                     unparseable bare NaN/Infinity JSON literals"
                ))
                .into());
            }
        }
        serde_json::to_string(self)
    }

    /// Deserializes a network from [`Self::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

impl fmt::Display for Mlp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mlp({}", self.input_dim())?;
        for layer in &self.layers {
            write!(f, " → {}[{}]", layer.output_dim(), layer.activation())?;
        }
        write!(f, ")")
    }
}

/// Builder for [`Mlp`] with seeded Xavier-uniform initialization.
///
/// # Examples
///
/// ```
/// use cocktail_nn::{Activation, MlpBuilder};
///
/// let net = MlpBuilder::new(4)
///     .hidden(32, Activation::Relu)
///     .hidden(32, Activation::Relu)
///     .output(2, Activation::Tanh)
///     .seed(99)
///     .build();
/// assert_eq!(net.layers().len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct MlpBuilder {
    input_dim: usize,
    spec: Vec<(usize, Activation)>,
    seed: u64,
    init_scale: f64,
}

impl MlpBuilder {
    /// Starts a builder for a network with `input_dim` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `input_dim == 0`.
    pub fn new(input_dim: usize) -> Self {
        assert!(input_dim > 0, "input dimension must be positive");
        Self {
            input_dim,
            spec: Vec::new(),
            seed: 0,
            init_scale: 1.0,
        }
    }

    /// Appends a hidden layer of `width` units.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn hidden(mut self, width: usize, activation: Activation) -> Self {
        assert!(width > 0, "layer width must be positive");
        self.spec.push((width, activation));
        self
    }

    /// Appends the output layer. Alias of [`Self::hidden`] kept for
    /// call-site readability.
    pub fn output(self, width: usize, activation: Activation) -> Self {
        self.hidden(width, activation)
    }

    /// Sets the RNG seed for initialization (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Scales the Xavier initialization amplitude (default 1.0). Small
    /// scales give low-Lipschitz starting points for distillation.
    ///
    /// # Panics
    ///
    /// Panics if `scale <= 0`.
    pub fn init_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "init scale must be positive");
        self.init_scale = scale;
        self
    }

    /// Builds the network.
    ///
    /// # Panics
    ///
    /// Panics if no layer was added.
    pub fn build(self) -> Mlp {
        assert!(!self.spec.is_empty(), "network needs at least one layer");
        let mut rng = cocktail_math::rng::seeded(self.seed);
        let mut layers = Vec::with_capacity(self.spec.len());
        let mut fan_in = self.input_dim;
        for (width, activation) in self.spec {
            let bound = self.init_scale * (6.0 / (fan_in + width) as f64).sqrt();
            let weights = Matrix::from_fn(width, fan_in, |_, _| rng.gen_range(-bound..=bound));
            let biases = vec![0.0; width];
            layers.push(Dense::from_parts(weights, biases, activation));
            fan_in = width;
        }
        Mlp::from_layers(layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss;
    use cocktail_math::vector;

    fn net() -> Mlp {
        MlpBuilder::new(2)
            .hidden(5, Activation::Tanh)
            .hidden(4, Activation::Sigmoid)
            .output(2, Activation::Identity)
            .seed(42)
            .build()
    }

    #[test]
    fn builder_shapes() {
        let n = net();
        assert_eq!(n.input_dim(), 2);
        assert_eq!(n.output_dim(), 2);
        assert_eq!(n.layers().len(), 3);
        assert_eq!(n.param_count(), 2 * 5 + 5 + 5 * 4 + 4 + 4 * 2 + 2);
    }

    #[test]
    fn forward_cached_matches_forward() {
        let n = net();
        let x = [0.3, -0.8];
        let cache = n.forward_cached(&x);
        assert_eq!(cache.output(), n.forward(&x).as_slice());
        assert_eq!(cache.activations.len(), 4);
        assert_eq!(cache.pre_activations.len(), 3);
    }

    #[test]
    fn deterministic_from_seed() {
        let a = net();
        let b = net();
        assert_eq!(a, b);
        let c = MlpBuilder::new(2)
            .hidden(5, Activation::Tanh)
            .hidden(4, Activation::Sigmoid)
            .output(2, Activation::Identity)
            .seed(43)
            .build();
        assert_ne!(a, c);
    }

    #[test]
    fn forward_batch_rows_match_per_sample_bitwise() {
        let n = net();
        let xs: Vec<Vec<f64>> = (0..7)
            .map(|i| vec![i as f64 / 3.5 - 1.0, 0.8 - i as f64 / 4.0])
            .collect();
        let x = Matrix::from_rows(xs.clone());
        let out = n.forward_batch(&x);
        for (r, xr) in xs.iter().enumerate() {
            assert_eq!(out.row(r), n.forward(xr).as_slice(), "row {r}");
        }
    }

    #[test]
    fn batch_cache_reuse_does_not_change_results() {
        let n = net();
        let x1 = Matrix::from_rows(vec![vec![0.1, -0.2], vec![0.5, 0.5]]);
        let x2 = Matrix::from_rows(vec![vec![-0.7, 0.9], vec![0.0, 0.3]]);
        let mut cache = BatchCache::new();
        n.forward_batch_cached(&x1, &mut cache);
        n.forward_batch_cached(&x2, &mut cache);
        assert_eq!(cache.output(), &n.forward_batch(&x2));
        // Changing the batch size reallocates cleanly.
        let x3 = Matrix::from_rows(vec![vec![0.25, 0.75]]);
        n.forward_batch_cached(&x3, &mut cache);
        assert_eq!(cache.output().row(0), n.forward(&[0.25, 0.75]).as_slice());
    }

    #[test]
    fn backward_batch_matches_per_sample_accumulation() {
        let n = net();
        let xs: Vec<Vec<f64>> = (0..5)
            .map(|i| vec![(i as f64).sin(), (i as f64 * 0.7).cos()])
            .collect();
        let targets: Vec<Vec<f64>> = (0..5)
            .map(|i| vec![0.1 * i as f64, -0.2 * i as f64])
            .collect();
        let scale = 1.0 / xs.len() as f64;

        let mut ref_grads = GradStore::zeros_like(&n);
        let mut ref_gx = Vec::new();
        for (x, t) in xs.iter().zip(&targets) {
            let cache = n.forward_cached(x);
            let g = loss::mse_gradient(cache.output(), t);
            ref_gx.push(n.backward(&cache, &g, &mut ref_grads, scale));
        }

        let x = Matrix::from_rows(xs.clone());
        let mut cache = BatchCache::new();
        n.forward_batch_cached(&x, &mut cache);
        let mut g = Matrix::zeros(xs.len(), 2);
        for (r, t) in targets.iter().enumerate() {
            let gr = loss::mse_gradient(cache.output().row(r), t);
            g.row_mut(r).copy_from_slice(&gr);
        }
        let mut batch_grads = GradStore::zeros_like(&n);
        let gx = n.backward_batch(&cache, &g, &mut batch_grads, scale);

        for li in 0..n.layers().len() {
            for (a, b) in batch_grads
                .weight(li)
                .as_slice()
                .iter()
                .zip(ref_grads.weight(li).as_slice())
            {
                assert!((a - b).abs() < 1e-12, "layer {li} weight grad: {a} vs {b}");
            }
            for (a, b) in batch_grads.bias(li).iter().zip(ref_grads.bias(li)) {
                assert!((a - b).abs() < 1e-12, "layer {li} bias grad: {a} vs {b}");
            }
        }
        for (r, gxr) in ref_gx.iter().enumerate() {
            for (a, b) in gx.row(r).iter().zip(gxr) {
                assert!((a - b).abs() < 1e-12, "input grad row {r}");
            }
        }
    }

    #[test]
    fn input_gradient_batch_matches_per_sample() {
        let n = net();
        let xs = vec![vec![0.4, 0.1], vec![-0.6, 0.9], vec![0.0, 0.0]];
        let gs = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![0.5, -0.5]];
        let x = Matrix::from_rows(xs.clone());
        let mut cache = BatchCache::new();
        n.forward_batch_cached(&x, &mut cache);
        let g = Matrix::from_rows(gs.clone());
        let gx = n.input_gradient_batch(&cache, &g);
        for (r, (xr, gr)) in xs.iter().zip(&gs).enumerate() {
            let single = n.input_gradient(xr, gr);
            for (a, b) in gx.row(r).iter().zip(&single) {
                assert!((a - b).abs() < 1e-12, "row {r}");
            }
        }
    }

    #[test]
    fn backward_parameter_gradients_match_finite_differences() {
        let n = net();
        let x = [0.4, 0.1];
        let target = [0.25, -0.5];
        let mut grads = GradStore::zeros_like(&n);
        let cache = n.forward_cached(&x);
        let grad_out = loss::mse_gradient(cache.output(), &target);
        n.backward(&cache, &grad_out, &mut grads, 1.0);

        let h = 1e-6;
        let loss_of = |net: &Mlp| loss::mse(&net.forward(&x), &target);
        for li in 0..n.layers().len() {
            let rows = n.layers()[li].weights().rows();
            let cols = n.layers()[li].weights().cols();
            for r in 0..rows {
                for c in 0..cols {
                    let mut p = n.clone();
                    p.layers_mut()[li].weights_mut()[(r, c)] += h;
                    let mut m = n.clone();
                    m.layers_mut()[li].weights_mut()[(r, c)] -= h;
                    let fd = (loss_of(&p) - loss_of(&m)) / (2.0 * h);
                    let an = grads.weight(li)[(r, c)];
                    assert!((fd - an).abs() < 1e-5, "layer {li} w[{r}{c}]: {fd} vs {an}");
                }
            }
            for b in 0..n.layers()[li].biases().len() {
                let mut p = n.clone();
                p.layers_mut()[li].biases_mut()[b] += h;
                let mut m = n.clone();
                m.layers_mut()[li].biases_mut()[b] -= h;
                let fd = (loss_of(&p) - loss_of(&m)) / (2.0 * h);
                let an = grads.bias(li)[b];
                assert!((fd - an).abs() < 1e-5, "layer {li} b[{b}]: {fd} vs {an}");
            }
        }
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let n = net();
        let x = [0.4, 0.1];
        let target = [0.25, -0.5];
        let cache = n.forward_cached(&x);
        let grad_out = loss::mse_gradient(cache.output(), &target);
        let gx = n.input_gradient(&x, &grad_out);
        let h = 1e-6;
        for i in 0..2 {
            let mut xp = x;
            xp[i] += h;
            let mut xm = x;
            xm[i] -= h;
            let fd = (loss::mse(&n.forward(&xp), &target) - loss::mse(&n.forward(&xm), &target))
                / (2.0 * h);
            assert!((fd - gx[i]).abs() < 1e-5, "input[{i}]: {fd} vs {}", gx[i]);
        }
    }

    #[test]
    fn bounds_contain_sampled_outputs() {
        let n = net();
        let region = BoxRegion::cube(2, -1.0, 1.0);
        let bounds = n.bounds(&region);
        let mut rng = cocktail_math::rng::seeded(5);
        for _ in 0..200 {
            let x = cocktail_math::rng::uniform_in_box(&mut rng, &region);
            let y = n.forward(&x);
            for (yi, bi) in y.iter().zip(&bounds) {
                assert!(bi.inflate(1e-10).contains(*yi));
            }
        }
    }

    #[test]
    fn lipschitz_constant_dominates_sampled_slopes() {
        let n = net();
        let lc = crate::lipschitz::upper_bound(&n, crate::lipschitz::NormKind::Spectral);
        let mut rng = cocktail_math::rng::seeded(9);
        let region = BoxRegion::cube(2, -2.0, 2.0);
        for _ in 0..100 {
            let a = cocktail_math::rng::uniform_in_box(&mut rng, &region);
            let b = cocktail_math::rng::uniform_in_box(&mut rng, &region);
            let dx = vector::norm_2(&vector::sub(&a, &b));
            if dx < 1e-9 {
                continue;
            }
            let dy = vector::norm_2(&vector::sub(&n.forward(&a), &n.forward(&b)));
            assert!(dy <= lc * dx * (1.0 + 1e-9) + 1e-12);
        }
    }

    #[test]
    fn json_roundtrip_preserves_network() {
        let n = net();
        let json = n.to_json().expect("serialize");
        let back = Mlp::from_json(&json).expect("deserialize");
        assert_eq!(n, back);
    }

    #[test]
    fn from_json_refuses_shapes_a_forward_would_index_past() {
        let layer = |rows: usize, cols: usize, data: &str, biases: &str| {
            format!(
                r#"{{"weights":{{"rows":{rows},"cols":{cols},"data":[{data}]}},"biases":[{biases}],"activation":"Tanh"}}"#
            )
        };
        let mlp = |layers: &[String]| format!(r#"{{"layers":[{}]}}"#, layers.join(","));
        let healthy = mlp(&[layer(1, 2, "1,2", "0"), layer(1, 1, "3", "0")]);
        assert_eq!(Mlp::from_json(&healthy).expect("chains").output_dim(), 1);
        for (json, what) in [
            (mlp(&[layer(2, 2, "1,2", "0,0")]), "cannot hold 2 values"),
            (mlp(&[layer(1, 2, "1,2", "0,0")]), "cannot take 2 biases"),
            (
                mlp(&[layer(1, 2, "1,2", "0"), layer(1, 2, "3,4", "0")]),
                "layer 1 reads 2 inputs but layer 0 emits 1",
            ),
        ] {
            let err = Mlp::from_json(&json).expect_err(what);
            assert!(err.to_string().contains(what), "{err}");
        }
    }

    #[test]
    fn weight_norm_sq_is_positive_for_random_net() {
        assert!(net().weight_norm_sq() > 0.0);
    }

    #[test]
    fn to_json_refuses_non_finite_parameters() {
        // A NaN weight must be an explicit error, not a bare NaN literal
        // that only fails later in a strict parser.
        let mut broken = net();
        broken.layers_mut()[1].weights_mut()[(0, 0)] = f64::NAN;
        let err = broken.to_json().expect_err("NaN weight rejected");
        assert!(err.to_string().contains("layer 1"), "{err}");

        let mut inf_bias = net();
        inf_bias.layers_mut()[0].biases_mut()[2] = f64::INFINITY;
        assert!(inf_bias.to_json().is_err());

        // the healthy network still round-trips exactly
        let n = net();
        let back = Mlp::from_json(&n.to_json().expect("finite net serializes"))
            .expect("round trip parses");
        assert_eq!(n, back);
    }

    #[test]
    fn display_mentions_architecture() {
        let s = net().to_string();
        assert!(s.contains("tanh") && s.contains("sigmoid"));
    }

    #[test]
    #[should_panic(expected = "dimensions mismatch")]
    fn mismatched_layers_panic() {
        let l1 = Dense::from_parts(Matrix::identity(2), vec![0.0; 2], Activation::Relu);
        let l2 = Dense::from_parts(Matrix::identity(3), vec![0.0; 3], Activation::Relu);
        Mlp::from_layers(vec![l1, l2]);
    }
}
