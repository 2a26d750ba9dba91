//! Lipschitz-constant bounds for MLPs.
//!
//! The paper (footnote 1) bounds the network Lipschitz constant by the
//! product of per-layer terms: `‖W‖` for ReLU/Tanh layers and `‖W‖/4` for
//! Sigmoid layers. This module is the only code that turns weights (and an
//! output scale) into that bound: [`upper_bound`] is the network product
//! and [`scaled_upper_bound`] the scaled controller's, which the
//! controller, the bundle claim, admission and the Bernstein certificate
//! all take. Besides the spectral norm it exposes the 1-, ∞- and
//! Frobenius-norm variants (computed exactly, so they are upper bounds for
//! the corresponding vector norms up to rounding; the spectral norm is a
//! power-iteration estimate that converges from below) and an empirical
//! lower bound by pairwise sampling, which is handy for testing that the
//! analytic bound is neither violated nor absurdly loose.

use crate::mlp::{BatchCache, Mlp};
use cocktail_math::{parallel, rng, vector, BoxRegion, Matrix};

/// Which operator norm to use per layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NormKind {
    /// Largest singular value (pairs with the vector 2-norm).
    Spectral,
    /// Maximum absolute column sum (pairs with the vector 1-norm).
    One,
    /// Maximum absolute row sum (pairs with the vector ∞-norm).
    Infinity,
    /// Frobenius norm (an upper bound on the spectral norm).
    Frobenius,
}

fn layer_norm(w: &Matrix, kind: NormKind) -> f64 {
    match kind {
        NormKind::Spectral => w.spectral_norm(),
        NormKind::One => w.norm_1(),
        NormKind::Infinity => w.norm_inf(),
        NormKind::Frobenius => w.frobenius_norm(),
    }
}

/// Product-of-layer-norms Lipschitz upper bound with a chosen norm.
///
/// [`NormKind::Spectral`] takes [`Matrix::spectral_norm`], a power-iteration
/// estimate that converges from below: with it the product is an upper
/// bound only to the iteration's accuracy.
///
/// # Examples
///
/// ```
/// use cocktail_nn::{Activation, MlpBuilder};
/// use cocktail_nn::lipschitz::{upper_bound, NormKind};
///
/// let net = MlpBuilder::new(2).hidden(8, Activation::Tanh)
///     .output(1, Activation::Identity).seed(0).build();
/// let spectral = upper_bound(&net, NormKind::Spectral);
/// let frob = upper_bound(&net, NormKind::Frobenius);
/// assert!(spectral <= frob + 1e-9);
/// ```
pub fn upper_bound(net: &Mlp, kind: NormKind) -> f64 {
    net.layers()
        .iter()
        .map(|l| l.activation().lipschitz_factor() * layer_norm(l.weights(), kind))
        .product()
}

/// The largest `|sᵢ|` of a per-output scale: the 2-norm gain of
/// `y ↦ diag(s)·y`, so the factor a scale multiplies a network's Lipschitz
/// constant (or an observed slope) by. `0` for an empty scale.
pub fn scale_gain(scale: &[f64]) -> f64 {
    scale.iter().fold(0.0_f64, |m, &s| m.max(s.abs()))
}

/// The paper's footnote-1 bound of the scaled controller `x ↦ diag(s)·f(x)`:
/// `max |sᵢ| · upper_bound(net, Spectral)`. Every scaled Lipschitz number
/// (the controller's, the bundle claim, admission's recompute, the
/// Bernstein margins) is this function.
///
/// # Examples
///
/// ```
/// use cocktail_nn::{Activation, MlpBuilder};
/// use cocktail_nn::lipschitz::{scaled_upper_bound, upper_bound, NormKind};
///
/// let net = MlpBuilder::new(2).hidden(8, Activation::Tanh)
///     .output(2, Activation::Tanh).seed(0).build();
/// let l = upper_bound(&net, NormKind::Spectral);
/// assert_eq!(scaled_upper_bound(&net, &[3.0, -5.0]), 5.0 * l);
/// ```
pub fn scaled_upper_bound(net: &Mlp, scale: &[f64]) -> f64 {
    scale_gain(scale) * upper_bound(net, NormKind::Spectral)
}

/// Empirical Lipschitz lower bound: the largest observed
/// `‖f(a) − f(b)‖₂ / ‖a − b‖₂` over `samples` random pairs in `region`.
///
/// The pairs' forward passes are split across
/// [`parallel::default_workers`]; the value does not depend on the split.
///
/// # Panics
///
/// Panics if `region.dim() != net.input_dim()` or `samples == 0`.
pub fn empirical_lower_bound(net: &Mlp, region: &BoxRegion, samples: usize, seed: u64) -> f64 {
    empirical_lower_bound_with_workers(net, region, samples, seed, parallel::default_workers())
}

/// Sample pairs per forward pass of the sweep. A block of 128 pairs keeps
/// a 24-wide layer's activations (256 rows) in cache: on the 2-core Xeon,
/// one 2,000-pair block took 1.7–2.6x as long as 16 blocks for the
/// admission sweep of the benchmark's κ* on one thread.
const SWEEP_RUN: usize = 128;

/// [`empirical_lower_bound`] on `workers` threads.
///
/// All pairs are drawn up front (preserving the historical a-then-b stream
/// order) into input blocks of 128 consecutive pairs: the run's
/// `a` endpoints, then its `b` endpoints. The threads claim blocks one at
/// a time; each pushes a whole block through one batched forward pass into
/// its own [`BatchCache`] and takes each pair's distances without
/// allocating ([`vector::distance`]). Each output row is bit-identical to
/// a per-sample `forward` call at any batch split, and the maximum of the
/// non-negative ratios does not depend on the order it is taken in, so the
/// result is the same for every `workers >= 1`.
///
/// # Panics
///
/// As [`empirical_lower_bound`].
pub fn empirical_lower_bound_with_workers(
    net: &Mlp,
    region: &BoxRegion,
    samples: usize,
    seed: u64,
    workers: usize,
) -> f64 {
    assert!(samples > 0, "need at least one sample pair");
    assert_eq!(region.dim(), net.input_dim(), "region dimension mismatch");
    let run = SWEEP_RUN;
    let mut blocks: Vec<Matrix> = (0..samples.div_ceil(run))
        .map(|r| Matrix::zeros(2 * run.min(samples - r * run), region.dim()))
        .collect();
    let mut rng = rng::seeded(seed);
    for pair in 0..samples {
        let block = &mut blocks[pair / run];
        let (i, len) = (pair % run, block.rows() / 2);
        rng::uniform_in_box_into(&mut rng, region, block.row_mut(i));
        rng::uniform_in_box_into(&mut rng, region, block.row_mut(len + i));
    }
    let best_per_run =
        parallel::map_range_with_scratch(blocks.len(), workers, BatchCache::new, |cache, r| {
            let x = &blocks[r];
            let len = x.rows() / 2;
            net.forward_batch_cached(x, cache);
            let y = cache.output();
            let mut best: f64 = 0.0;
            for i in 0..len {
                let dx = vector::distance(x.row(i), x.row(len + i));
                if dx < 1e-12 {
                    continue;
                }
                let dy = vector::distance(y.row(i), y.row(len + i));
                best = best.max(dy / dx);
            }
            best
        });
    best_per_run.into_iter().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::mlp::MlpBuilder;

    fn net() -> Mlp {
        MlpBuilder::new(2)
            .hidden(10, Activation::Tanh)
            .hidden(10, Activation::Sigmoid)
            .output(1, Activation::Identity)
            .seed(21)
            .build()
    }

    #[test]
    fn spectral_bound_is_tightest_induced_2_bound() {
        let n = net();
        assert!(upper_bound(&n, NormKind::Spectral) <= upper_bound(&n, NormKind::Frobenius) + 1e-9);
    }

    #[test]
    fn empirical_never_exceeds_spectral_bound() {
        let n = net();
        let region = BoxRegion::cube(2, -3.0, 3.0);
        let lower = empirical_lower_bound(&n, &region, 500, 7);
        let upper = upper_bound(&n, NormKind::Spectral);
        assert!(lower <= upper * (1.0 + 1e-9), "{lower} > {upper}");
        assert!(lower > 0.0);
    }

    #[test]
    fn sweep_matches_per_sample_forward_at_any_worker_count() {
        let n = net();
        let region = BoxRegion::cube(2, -3.0, 3.0);
        let (samples, seed) = (301, 11);
        // the sweep one pair and one `forward` call at a time
        let mut rng = rng::seeded(seed);
        let mut want: f64 = 0.0;
        for _ in 0..samples {
            let a = rng::uniform_in_box(&mut rng, &region);
            let b = rng::uniform_in_box(&mut rng, &region);
            let dx = vector::norm_2(&vector::sub(&a, &b));
            if dx >= 1e-12 {
                let dy = vector::norm_2(&vector::sub(&n.forward(&a), &n.forward(&b)));
                want = want.max(dy / dx);
            }
        }
        assert!(want > 0.0);
        for workers in [1, 2, 8] {
            let got = empirical_lower_bound_with_workers(&n, &region, samples, seed, workers);
            assert_eq!(got.to_bits(), want.to_bits(), "workers = {workers}");
        }
        assert_eq!(
            empirical_lower_bound(&n, &region, samples, seed).to_bits(),
            want.to_bits()
        );
    }

    #[test]
    fn sigmoid_quarter_factor_applies() {
        // single sigmoid layer with identity weights: bound must be 1/4
        let l =
            crate::layer::Dense::from_parts(Matrix::identity(3), vec![0.0; 3], Activation::Sigmoid);
        let n = Mlp::from_layers(vec![l]);
        assert!((upper_bound(&n, NormKind::Spectral) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn bound_agrees_with_mlp_method() {
        // the scaled bound at unit scale is the network product, bit for bit
        let n = net();
        assert_eq!(
            scaled_upper_bound(&n, &[1.0]).to_bits(),
            upper_bound(&n, NormKind::Spectral).to_bits()
        );
    }

    #[test]
    fn scaled_bound_matches_the_benchmark_probe_and_takes_magnitudes() {
        // the benchmark's admission probe computes the claim itself as
        // `max(s) · upper_bound`; on positive scales this must be that
        // expression bit for bit, and a negative scale counts by `|s|`
        let n = MlpBuilder::new(2)
            .hidden(10, Activation::Tanh)
            .output(3, Activation::Tanh)
            .seed(5)
            .build();
        let l = upper_bound(&n, NormKind::Spectral);
        for scale in [[20.0, 20.0, 20.0], [0.5, 7.25, 3.0], [1e-3, 2.0, 19.9]] {
            let probe = scale.iter().copied().fold(0.0, f64::max) * l;
            assert_eq!(scaled_upper_bound(&n, &scale).to_bits(), probe.to_bits());
        }
        for scale in [
            [-20.0, -20.0, -20.0],
            [0.5, -7.25, 3.0],
            [-1e-3, 2.0, -19.9],
        ] {
            let magnitudes = scale.iter().map(|s: &f64| s.abs()).fold(0.0, f64::max) * l;
            assert_eq!(
                scaled_upper_bound(&n, &scale).to_bits(),
                magnitudes.to_bits()
            );
            assert!(scaled_upper_bound(&n, &scale) > 0.0);
        }
        assert_eq!(scale_gain(&[]), 0.0);
    }

    #[test]
    fn scaling_weights_scales_bound() {
        let mut n = net();
        let before = upper_bound(&n, NormKind::Spectral);
        for l in n.layers_mut() {
            l.weights_mut().scale_inplace(0.5);
        }
        let after = upper_bound(&n, NormKind::Spectral);
        let layers = 3;
        assert!((after - before * 0.5_f64.powi(layers)).abs() < 1e-9 * before);
    }
}
