//! The fast-tanh serving tier's error certificate.
//!
//! Networks train, verify and serve in `f64`; the serving engine may opt
//! into the fast-tanh tier, which swaps libm `tanh` for the bounded-error
//! [`crate::fast::fast_tanh`] kernel in the batched forward. The
//! substitution is only admissible because it ships with a
//! **certificate** ([`FastTierCert`], computed by [`certify_fast_tier`]):
//! a sound per-output-dimension bound on `|fast-tanh output − exact
//! output|` over the bundle's input domain, derived by a layer-wise error
//! recursion whose ingredients — activation magnitude bounds from interval
//! bound propagation, `f64` dot-product rounding (`γ_n` factors), and the
//! certified fast-tanh epsilon — are all either outwardly rounded or
//! explicitly inflated. The admission gate re-derives the certificate from
//! the shipped weights and refuses a bundle whose embedded claim does not
//! match.

use crate::activation::Activation;
use crate::fast::FAST_TANH_EPS;
use crate::mlp::Mlp;
use cocktail_math::{BoxRegion, Interval};
use serde::{Deserialize, Serialize};

/// Unit roundoff of `f64`.
const U64: f64 = 1.110_223_024_625_156_5e-16; // 2^-53

/// Relative inflation applied to every certified bound to absorb the
/// round-to-nearest `f64` arithmetic *of the bound computation itself*
/// (a few hundred ops, ≤ `~1e-13` relative) with orders-of-magnitude
/// margin. Documented in DESIGN.md §16.
const CERT_REL_SLOP: f64 = 1e-9;

/// The fast-tier error certificate embedded in a `ControllerBundle` and
/// re-derived by the admission gate.
///
/// The bound is a sup-norm error **in network-output units** against the
/// exact-`f64` forward, valid for every input inside the bundle's input
/// domain; the serving control error is at most `|scale_j| ×` it (the
/// clip to the control envelope is 1-Lipschitz and can only shrink it).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FastTierCert {
    /// Certified per-unit error of the fast-tanh kernel
    /// ([`FAST_TANH_EPS`]).
    pub fast_tanh_eps: f64,
    /// Per-output-dimension error bound of the fast-tanh tier.
    pub fast_tanh_output_error: Vec<f64>,
}

impl FastTierCert {
    /// Whether `other` re-derives this certificate: every field equal to
    /// within relative tolerance `tol` (the derivation is deterministic
    /// `f64` arithmetic, so honest claims agree to the last bit; the
    /// tolerance only forgives cross-platform libm drift).
    pub fn matches(&self, other: &FastTierCert, tol: f64) -> bool {
        fn close(a: f64, b: f64, tol: f64) -> bool {
            (a - b).abs() <= tol * a.abs().max(b.abs()).max(1e-300)
        }
        close(self.fast_tanh_eps, other.fast_tanh_eps, tol)
            && self.fast_tanh_output_error.len() == other.fast_tanh_output_error.len()
            && self
                .fast_tanh_output_error
                .iter()
                .zip(&other.fast_tanh_output_error)
                .all(|(&a, &b)| close(a, b, tol))
    }
}

/// Standard rounding-accumulation factor `γ_n = n·u / (1 − n·u)`: a dot
/// product of length `k` computed in precision `u` deviates from the exact
/// value by at most `γ_{k} · Σ|aᵢ||bᵢ|`; we use `n = k + 2` to also cover
/// the bias add and the activation-input rounding.
fn gamma(n: usize, u: f64) -> f64 {
    let nu = n as f64 * u;
    nu / (1.0 - nu)
}

/// Computes the fast-tier certificate for `net` over `region`, or `None`
/// when the network uses an activation other than `Tanh`, `Relu` and
/// `Identity`.
///
/// Layer-wise recursion (`δ` = sup-norm deviation from the exact-`f64`
/// path entering the layer, `a` = sound activation magnitude bound from
/// interval propagation):
///
/// * pre-activation: `dz = ‖W‖∞·δ + γ₆₄·(‖|W|‖∞·(2a+δ) + 2‖b‖∞)` — input
///   deviation plus the `f64` rounding of both the fast path and the
///   exact oracle;
/// * through activations: `δ ← dz + ε` for `Tanh` (the kernel's certified
///   epsilon plus 1-Lipschitz transport), `δ ← dz` for `Relu`/`Identity`
///   (exact kernels, 1-Lipschitz).
///
/// Every bound is finally inflated by a relative `1e-9` to absorb the
/// round-to-nearest arithmetic of the bound computation itself. The
/// recursion is deterministic, so admission re-derives bit-equal values
/// from an untampered bundle.
pub fn certify_fast_tier(net: &Mlp, region: &BoxRegion) -> Option<FastTierCert> {
    assert_eq!(region.dim(), net.input_dim(), "region dimension mismatch");
    if !net.layers().iter().all(|layer| {
        matches!(
            layer.activation(),
            Activation::Tanh | Activation::Relu | Activation::Identity
        )
    }) {
        return None;
    }
    // sound interval bounds entering each layer (exact-f64 path)
    let mut layer_inputs: Vec<Vec<Interval>> = vec![region.intervals().to_vec()];
    for layer in net.layers() {
        let next = layer.forward_interval(layer_inputs.last()?);
        layer_inputs.push(next);
    }

    let inflate = |v: f64| v * (1.0 + CERT_REL_SLOP) + f64::MIN_POSITIVE;

    // sup-norm deviation entering the layer: the tier starts bit-identical
    let mut delta_ft = 0.0f64;
    let mut out_ft = Vec::new();

    for (l, layer) in net.layers().iter().enumerate() {
        let k = layer.input_dim();
        let g64 = gamma(k + 2, U64);
        // activation magnitude bound entering this layer
        let a_mag = layer_inputs[l]
            .iter()
            .map(Interval::mag)
            .fold(0.0, f64::max);
        let w = layer.weights();
        let last = l + 1 == net.layers().len();
        let mut dz_ft_max = 0.0f64;
        for j in 0..layer.output_dim() {
            let b = layer.biases()[j];
            let mut w_abs_sum = 0.0; // Σ|w|
            for kk in 0..k {
                w_abs_sum += w[(j, kk)].abs();
            }
            let aft = a_mag + delta_ft;
            let dzft = w_abs_sum * delta_ft + g64 * (w_abs_sum * (a_mag + aft) + 2.0 * b.abs());
            let dft = match layer.activation() {
                Activation::Tanh => (dzft + FAST_TANH_EPS).min(2.0),
                _ => dzft,
            };
            dz_ft_max = dz_ft_max.max(dft);
            if last {
                out_ft.push(inflate(dft));
            }
        }
        delta_ft = inflate(dz_ft_max);
    }

    Some(FastTierCert {
        fast_tanh_eps: FAST_TANH_EPS,
        fast_tanh_output_error: out_ft,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast::ForwardKernel;
    use crate::mlp::{BatchCache, MlpBuilder};
    use cocktail_math::Matrix;

    fn serving_net(seed: u64) -> Mlp {
        MlpBuilder::new(2)
            .hidden(24, Activation::Tanh)
            .hidden(24, Activation::Tanh)
            .output(1, Activation::Identity)
            .seed(seed)
            .build()
    }

    fn oracle_rows(region: &BoxRegion, n: usize, seed: u64) -> Matrix {
        let mut rng = cocktail_math::rng::seeded(seed);
        Matrix::from_rows(
            (0..n)
                .map(|_| cocktail_math::rng::uniform_in_box(&mut rng, region))
                .collect(),
        )
    }

    /// Asserts every fast-tanh output row of `net` over `x` lies within
    /// `cert`'s bound of the exact per-sample forward.
    fn assert_fast_tanh_within_bound(net: &Mlp, cert: &FastTierCert, x: &Matrix) {
        let mut cache = BatchCache::new();
        net.forward_batch_cached_kernel(x, &mut cache, ForwardKernel::FastTanh);
        for r in 0..x.rows() {
            let exact = net.forward(x.row(r));
            let err = (cache.output()[(r, 0)] - exact[0]).abs();
            assert!(
                err <= cert.fast_tanh_output_error[0],
                "row {r}: fast-tanh tier error {err:.3e} exceeds certified {:.3e}",
                cert.fast_tanh_output_error[0]
            );
        }
    }

    #[test]
    fn certify_refuses_uncertified_activations() {
        let net = MlpBuilder::new(2)
            .hidden(4, Activation::Sigmoid)
            .output(1, Activation::Identity)
            .seed(1)
            .build();
        assert!(certify_fast_tier(&net, &BoxRegion::cube(2, -1.0, 1.0)).is_none());
        let relu = MlpBuilder::new(2)
            .hidden(4, Activation::Relu)
            .output(1, Activation::Identity)
            .seed(1)
            .build();
        assert!(certify_fast_tier(&relu, &BoxRegion::cube(2, -1.0, 1.0)).is_some());
    }

    #[test]
    fn fast_tanh_tier_stays_within_certified_bound() {
        let net = serving_net(43);
        let region = BoxRegion::cube(2, -3.0, 3.0);
        let cert = certify_fast_tier(&net, &region).expect("tanh net certifies");
        assert_eq!(cert.fast_tanh_output_error.len(), 1);
        assert!(cert.fast_tanh_output_error[0].is_finite() && cert.fast_tanh_output_error[0] > 0.0);
        assert_fast_tanh_within_bound(&net, &cert, &oracle_rows(&region, 512, 8));
    }

    #[test]
    fn exact_kernel_is_bit_identical_to_per_sample() {
        let net = serving_net(44);
        let region = BoxRegion::cube(2, -3.0, 3.0);
        let x = oracle_rows(&region, 64, 9);
        let mut cache = BatchCache::new();
        net.forward_batch_cached_kernel(&x, &mut cache, ForwardKernel::Exact);
        let batched = cache.activations.last().expect("filled cache").clone();
        for r in 0..x.rows() {
            let per = net.forward(x.row(r));
            assert_eq!(batched[(r, 0)].to_bits(), per[0].to_bits(), "row {r}");
        }
    }

    #[test]
    fn certificate_rederivation_is_deterministic() {
        let net = serving_net(45);
        let region = BoxRegion::cube(2, -2.5, 2.5);
        let a = certify_fast_tier(&net, &region).expect("certifies");
        let b = certify_fast_tier(&net, &region).expect("certifies");
        assert_eq!(a, b, "certificate derivation must be deterministic");
        assert!(a.matches(&b, 1e-12));
        let mut tampered = b.clone();
        tampered.fast_tanh_output_error[0] *= 0.5;
        assert!(!a.matches(&tampered, 1e-9), "tampered claim must not match");
    }

    #[test]
    fn certified_bounds_are_pinned_bit_for_bit() {
        // values recorded when the certificate still carried the f32 tier:
        // the fast-tanh recursion must not move a bit without it
        let cube = BoxRegion::cube(2, -3.0, 3.0);
        for (seed, bits) in [(42, 0x3ef7_2119_9294_c55b_u64), (45, 0x3ef5_0c93_dd14_6f96)] {
            let cert = certify_fast_tier(&serving_net(seed), &cube).expect("certifies");
            assert_eq!(
                cert.fast_tanh_output_error[0].to_bits(),
                bits,
                "seed {seed}"
            );
        }
        // ReLU and tanh layers, two outputs
        let net = MlpBuilder::new(3)
            .hidden(8, Activation::Relu)
            .hidden(8, Activation::Tanh)
            .output(2, Activation::Tanh)
            .seed(7)
            .build();
        let cert = certify_fast_tier(&net, &BoxRegion::cube(3, -1.0, 2.0)).expect("certifies");
        let bits: Vec<u64> = cert
            .fast_tanh_output_error
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(bits, [0x3ec2_7246_dca7_9321, 0x3ec4_9960_89b0_13bc]);
        assert_eq!(cert.fast_tanh_eps, FAST_TANH_EPS);
    }

    #[test]
    fn fast_tanh_error_also_covers_wide_pre_activations() {
        // saturation region: fast tanh error shrinks, bound must still hold
        let net = serving_net(46);
        let region = BoxRegion::cube(2, -20.0, 20.0);
        let cert = certify_fast_tier(&net, &region).expect("certifies");
        assert_fast_tanh_within_bound(&net, &cert, &oracle_rows(&region, 256, 10));
    }
}
