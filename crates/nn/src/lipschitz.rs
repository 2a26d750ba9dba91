//! Lipschitz-constant bounds for MLPs.
//!
//! The paper (footnote 1) bounds the network Lipschitz constant by the
//! product of per-layer terms: `‖W‖` for ReLU/Tanh layers and `‖W‖/4` for
//! Sigmoid layers. [`Mlp::lipschitz_constant`] uses the spectral norm; this
//! module additionally exposes the 1-, ∞- and Frobenius-norm variants (all
//! are valid upper bounds for the corresponding vector norms) and an
//! empirical lower bound by pairwise sampling, which is handy for testing
//! that the analytic bound is neither violated nor absurdly loose.

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
    sweep(net, region, samples, seed, parallel::default_workers())
}

/// [`empirical_lower_bound`] on `workers` threads.
///
/// All pairs are drawn up front (preserving the historical a-then-b stream
/// order) into one input block per contiguous run of pairs: the run's `a`
/// endpoints, then its `b` endpoints. Each worker pushes a whole block
/// through one batched forward pass into its own [`BatchCache`] and takes
/// each pair's distances without allocating ([`vector::distance`]). Each
/// output row is bit-identical to a per-sample `forward` call at any batch
/// split, and the maximum of the non-negative ratios does not depend on
/// the order it is taken in, so the result is the same for every
/// `workers >= 1`.
fn sweep(net: &Mlp, region: &BoxRegion, samples: usize, seed: u64, workers: usize) -> f64 {
    assert!(samples > 0, "need at least one sample pair");
    assert_eq!(region.dim(), net.input_dim(), "region dimension mismatch");
    // two runs per worker: `map_range_with_scratch` only fans out from
    // `2 · workers` items
    let run = samples.div_ceil(2 * workers.max(1));
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
            let got = sweep(&n, &region, samples, seed, workers);
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
        let n = net();
        assert!((upper_bound(&n, NormKind::Spectral) - n.lipschitz_constant()).abs() < 1e-12);
    }

    #[test]
    fn scaling_weights_scales_bound() {
        let mut n = net();
        let before = n.lipschitz_constant();
        for l in n.layers_mut() {
            l.weights_mut().scale_inplace(0.5);
        }
        let after = n.lipschitz_constant();
        let layers = 3;
        assert!((after - before * 0.5_f64.powi(layers)).abs() < 1e-9 * before);
    }
}
