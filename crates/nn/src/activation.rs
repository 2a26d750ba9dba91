//! Element-wise activation functions.

use cocktail_math::Interval;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Activation applied element-wise after a dense layer.
///
/// Cocktail's networks use `Tanh` hidden layers for controllers (bounded,
/// smooth, Lipschitz-1) and `Identity` outputs for regression; `Relu` and
/// `Sigmoid` are provided because the paper's footnote 1 defines the layer
/// Lipschitz factors for all three non-trivial activations.
///
/// # Examples
///
/// ```
/// use cocktail_nn::Activation;
///
/// assert_eq!(Activation::Relu.apply(-2.0), 0.0);
/// assert_eq!(Activation::Relu.lipschitz_factor(), 1.0);
/// assert_eq!(Activation::Sigmoid.lipschitz_factor(), 0.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Activation {
    /// `f(x) = x`.
    Identity,
    /// `f(x) = max(0, x)`.
    Relu,
    /// `f(x) = tanh(x)`.
    Tanh,
    /// `f(x) = 1 / (1 + e^{-x})`.
    Sigmoid,
    /// `f(x) = max(αx, x)` with leak `α ∈ [0, 1)`.
    LeakyRelu {
        /// Negative-side slope.
        alpha: f64,
    },
    /// `f(x) = ln(1 + eˣ)`, a smooth `ReLU`.
    Softplus,
}

impl Activation {
    /// Applies the activation to a scalar.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::LeakyRelu { alpha } => {
                if x > 0.0 {
                    x
                } else {
                    alpha * x
                }
            }
            // numerically stable ln(1 + e^x): one formula for all x — for
            // large x the exp underflows to 0 and ln_1p(0) = 0 leaves
            // exactly x, so no large-x shortcut branch is needed (a
            // previous `x > 30` shortcut made apply discontinuous by
            // e^{-30} across the seam)
            Activation::Softplus => x.max(0.0) + (-(x.abs())).exp().ln_1p(),
        }
    }

    /// Derivative at pre-activation `x`.
    ///
    /// The `ReLU` derivative at exactly 0 is taken as 0 (sub-gradient choice).
    pub fn derivative(self, x: f64) -> f64 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::Sigmoid => {
                let s = self.apply(x);
                s * (1.0 - s)
            }
            Activation::LeakyRelu { alpha } => {
                if x > 0.0 {
                    1.0
                } else {
                    alpha
                }
            }
            // softplus' = sigmoid
            Activation::Softplus => Activation::Sigmoid.apply(x),
        }
    }

    /// Derivative at pre-activation `z`, reconstructed from the stored
    /// *output* `a = f(z)` where possible.
    ///
    /// Bit-identical to [`Activation::derivative`]`(z)` for every variant:
    /// Tanh/Sigmoid recompute `1 - a²` / `a(1 - a)` from the exact same
    /// intermediate the derivative would recompute from `z`, the piecewise
    /// linear variants recover the branch from `a`'s sign, and Softplus
    /// (whose output does not determine the derivative cheaply) falls back
    /// to `z`. Batched backward passes use this to skip the transcendental
    /// re-evaluation that dominates `derivative(z)`.
    pub fn derivative_from_output(self, z: f64, a: f64) -> f64 {
        match self {
            Activation::Identity => 1.0,
            // a = max(0, z) is positive exactly when z is
            Activation::Relu => {
                if a > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - a * a,
            Activation::Sigmoid => a * (1.0 - a),
            // α ≥ 0 keeps sign(a) = sign(z) on the positive side
            Activation::LeakyRelu { alpha } => {
                if a > 0.0 {
                    1.0
                } else {
                    alpha
                }
            }
            Activation::Softplus => self.derivative(z),
        }
    }

    /// Applies the activation element-wise to a slice, returning a new
    /// vector.
    pub fn apply_vec(self, xs: &[f64]) -> Vec<f64> {
        xs.iter().map(|&x| self.apply(x)).collect()
    }

    /// Applies the activation element-wise from `input` into `out`,
    /// allocating nothing. Each output is bit-identical to
    /// [`Activation::apply`] of its input. `Tanh` runs 8 lanes at a time
    /// through an AVX-512 port of glibc 2.36's `tanh` on hosts running that
    /// glibc, once a per-process probe has matched it with `f64::tanh` bit
    /// for bit, and `f64::tanh` per element otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn apply_slice(self, input: &[f64], out: &mut [f64]) {
        assert_eq!(input.len(), out.len(), "activation slice length mismatch");
        match self {
            Activation::Tanh => crate::lane_tanh::tanh_slice(input, out),
            _ => {
                for (o, &x) in out.iter_mut().zip(input) {
                    *o = self.apply(x);
                }
            }
        }
    }

    /// Global Lipschitz factor contributed by this activation, per the
    /// paper's footnote 1: `ReLU` and Tanh contribute 1, Sigmoid ¼.
    pub fn lipschitz_factor(self) -> f64 {
        match self {
            Activation::Identity | Activation::Relu | Activation::Tanh | Activation::Softplus => {
                1.0
            }
            Activation::Sigmoid => 0.25,
            Activation::LeakyRelu { alpha } => alpha.abs().max(1.0),
        }
    }

    /// Sound interval image of the activation.
    pub fn apply_interval(self, x: Interval) -> Interval {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.relu(),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => x.sigmoid(),
            // monotone increasing: endpoint images, widened outward to
            // cover the single round-to-nearest multiply on the leaky side
            Activation::LeakyRelu { .. } => {
                Interval::outward_rounded(self.apply(x.lo()), self.apply(x.hi()), 1)
            }
            // monotone increasing; exp/ln_1p/add accumulate a few ulps, so
            // widen by 4 and clamp the lower endpoint back into the true
            // codomain (softplus > 0)
            Activation::Softplus => {
                let img = Interval::outward_rounded(self.apply(x.lo()), self.apply(x.hi()), 4);
                Interval::new(img.lo().max(0.0), img.hi().max(0.0))
            }
        }
    }
}

impl fmt::Display for Activation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Activation::Identity => "identity",
            Activation::Relu => "relu",
            Activation::Tanh => "tanh",
            Activation::Sigmoid => "sigmoid",
            Activation::LeakyRelu { .. } => "leaky-relu",
            Activation::Softplus => "softplus",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Activation; 6] = [
        Activation::Identity,
        Activation::Relu,
        Activation::Tanh,
        Activation::Sigmoid,
        Activation::LeakyRelu { alpha: 0.1 },
        Activation::Softplus,
    ];

    #[test]
    fn identity_is_identity() {
        assert_eq!(Activation::Identity.apply(-3.5), -3.5);
        assert_eq!(Activation::Identity.derivative(100.0), 1.0);
    }

    #[test]
    fn relu_clamps_negative() {
        assert_eq!(Activation::Relu.apply(-1.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
        assert_eq!(Activation::Relu.derivative(-1.0), 0.0);
        assert_eq!(Activation::Relu.derivative(1.0), 1.0);
    }

    #[test]
    fn tanh_and_sigmoid_bounded() {
        for x in [-10.0, -1.0, 0.0, 1.0, 10.0] {
            let t = Activation::Tanh.apply(x);
            assert!((-1.0..=1.0).contains(&t));
            let s = Activation::Sigmoid.apply(x);
            assert!((0.0..=1.0).contains(&s));
        }
        assert_eq!(Activation::Sigmoid.apply(0.0), 0.5);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let h = 1e-6;
        for act in ALL {
            for x in [-2.0, -0.5, 0.3, 1.7] {
                let fd = (act.apply(x + h) - act.apply(x - h)) / (2.0 * h);
                let an = act.derivative(x);
                assert!((fd - an).abs() < 1e-5, "{act} at {x}: fd {fd} vs {an}");
            }
        }
    }

    #[test]
    fn derivative_bounded_by_lipschitz_factor() {
        for act in ALL {
            for i in -100..=100 {
                let x = i as f64 / 10.0;
                assert!(
                    act.derivative(x) <= act.lipschitz_factor() + 1e-12,
                    "{act} derivative exceeds Lipschitz factor at {x}"
                );
            }
        }
    }

    #[test]
    fn interval_image_contains_point_image() {
        let iv = Interval::new(-1.5, 0.75);
        for act in ALL {
            let img = act.apply_interval(iv);
            for i in 0..=20 {
                let x = iv.lo() + iv.width() * i as f64 / 20.0;
                assert!(img.contains(act.apply(x)), "{act}({x}) escapes");
            }
        }
    }

    #[test]
    fn leaky_relu_leaks() {
        let a = Activation::LeakyRelu { alpha: 0.1 };
        assert!((a.apply(-2.0) + 0.2).abs() < 1e-12);
        assert_eq!(a.apply(3.0), 3.0);
        assert_eq!(a.derivative(-1.0), 0.1);
        assert_eq!(a.lipschitz_factor(), 1.0);
    }

    #[test]
    fn softplus_is_smooth_relu() {
        let a = Activation::Softplus;
        // softplus(0) = ln 2
        assert!((a.apply(0.0) - 2.0_f64.ln()).abs() < 1e-12);
        // approaches identity for large x, zero for very negative x
        assert!((a.apply(40.0) - 40.0).abs() < 1e-9);
        assert!(a.apply(-40.0) < 1e-12);
        assert!(a.apply(-40.0) >= 0.0);
    }

    #[test]
    fn softplus_is_monotone_across_former_seam() {
        let a = Activation::Softplus;
        // the removed `x > 30` shortcut used to drop the e^{-30} tail,
        // making apply(30 + ulp) jump *down* by ~9.4e-14; the unified
        // formula must be monotone non-decreasing through the seam and
        // keep the tail: softplus(30) = 30 + e^{-30} - e^{-60}/2 + ...
        let mut prev = f64::NEG_INFINITY;
        for i in -1000..=1000 {
            let x = 30.0 + i as f64 * 1e-9;
            let y = a.apply(x);
            assert!(y >= prev, "softplus not monotone at {x}: {y} < {prev}");
            prev = y;
        }
        // the ulps straddling the former branch point
        assert!(a.apply(30.0_f64.next_up()) >= a.apply(30.0));
        assert!(a.apply(30.0) >= a.apply(30.0_f64.next_down()));
        assert!(
            a.apply(30.0) > 30.0,
            "softplus(30) must keep the e^{{-30}} tail above x"
        );
        // and for genuinely large x the formula is exactly x
        assert_eq!(a.apply(800.0), 800.0);
    }

    #[test]
    fn derivative_from_output_is_bit_identical() {
        for act in ALL {
            for i in -60..=60 {
                let z = i as f64 / 7.0;
                let a = act.apply(z);
                assert_eq!(
                    act.derivative_from_output(z, a).to_bits(),
                    act.derivative(z).to_bits(),
                    "{act} at {z}"
                );
            }
        }
    }

    #[test]
    fn apply_vec_maps_each() {
        let out = Activation::Relu.apply_vec(&[-1.0, 2.0]);
        assert_eq!(out, vec![0.0, 2.0]);
    }

    #[test]
    fn apply_slice_is_bit_identical_to_apply() {
        let xs: Vec<f64> = (0..200)
            .map(|i| crate::lane_tanh::seeded_input(11, i))
            .chain([0.0, -0.0, 22.0, -1.0, f64::INFINITY, f64::NAN])
            .collect();
        for act in ALL {
            for len in (0..=17).chain([xs.len()]) {
                let mut out = vec![0.0; len];
                act.apply_slice(&xs[..len], &mut out);
                for (x, y) in xs.iter().zip(&out) {
                    assert_eq!(y.to_bits(), act.apply(*x).to_bits(), "{act} at {x:e}");
                }
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Activation::Tanh.to_string(), "tanh");
    }
}
