//! Bounded-error fast `tanh` kernels and the forward-kernel switch.
//!
//! The serving profile (DESIGN.md §10) shows a 2-24-24-1 forward spending
//! ~65 % of its time inside `libm` tanh — the "tanh floor" that caps the
//! batched-forward speedup below 2×. This module supplies the replacement:
//! a clamped rational approximation of `tanh` (the `[11/10]` Padé
//! approximant, i.e. the Lambert continued fraction truncated at
//! denominator 21), together with a **machine-checked certificate** that
//! its error never exceeds [`FAST_TANH_EPS`] anywhere on ℝ.
//!
//! The certificate is computed by [`certified_fast_tanh_bound`] using the
//! outwardly-rounded interval arithmetic of `cocktail-math`: a centered
//! form per subdivision cell (`|err(x)| ≤ |err(c)| + r · sup|err′|`, with
//! the derivative enclosed by interval evaluation) plus a closed-form tail
//! bound beyond the clamp point. Training, verification, admission and
//! serving all run exact `tanh`: the serving engine serves only the exact
//! network its safety certificate proves. The fast kernel is reachable
//! only through [`ForwardKernel`] and its error budget only through
//! [`crate::certify_fast_tier`]; the perf gate and the benchmark's
//! admission probe are their remaining callers.

use cocktail_math::Interval;

/// Arguments beyond `±FAST_TANH_CLAMP` are clamped before the rational is
/// evaluated; the tail error `1 - tanh(7.5) ≈ 6.1e-7` is part of the
/// certified bound.
pub const FAST_TANH_CLAMP: f64 = 7.5;

/// Certified sup-norm error of [`fast_tanh`] against exact `tanh` over all
/// of ℝ. The test suite machine-checks `certified_fast_tanh_bound(..) <=
/// FAST_TANH_EPS`; the scanned true error is ≈ `3.92e-7` and the certified
/// bound at 2¹⁶ cells is ≈ `4.11e-7` — the small gap is the centered
/// form's per-cell interval overestimation.
pub const FAST_TANH_EPS: f64 = 5.0e-7;

// [11/10] Padé of tanh: tanh x ≈ x·P(x²)/Q(x²). Integer coefficients from
// the Lambert continued fraction x/(1+x²/(3+x²/(5+…+x²/21))); exactly
// representable in f64 (all < 2⁵³).
const P0: f64 = 13_749_310_575.0;
const P1: f64 = 1_964_187_225.0;
const P2: f64 = 64_324_260.0;
const P3: f64 = 675_675.0;
const P4: f64 = 2_145.0;
const P5: f64 = 1.0;
const Q0: f64 = 13_749_310_575.0;
const Q1: f64 = 6_547_290_750.0;
const Q2: f64 = 413_513_100.0;
const Q3: f64 = 7_567_560.0;
const Q4: f64 = 45_045.0;
const Q5: f64 = 66.0;

/// The unclamped rational `x·P(x²)/Q(x²)` — shared by the kernel and the
/// certifier so the certificate speaks about the shipped code path.
#[inline]
fn rational(x: f64) -> f64 {
    let y = x * x;
    let p = ((((P5 * y + P4) * y + P3) * y + P2) * y + P1) * y + P0;
    let q = ((((Q5 * y + Q4) * y + Q3) * y + Q2) * y + Q1) * y + Q0;
    x * p / q
}

/// Fast `tanh`: clamped `[11/10]` Padé rational with certified error
/// `≤` [`FAST_TANH_EPS`] everywhere (NaN propagates).
///
/// The output clamp to `[-1, 1]` keeps the kernel inside tanh's codomain —
/// and can only shrink the error, since projecting onto an interval that
/// contains the true value never moves the approximation away from it.
#[inline]
pub fn fast_tanh(x: f64) -> f64 {
    let x = x.clamp(-FAST_TANH_CLAMP, FAST_TANH_CLAMP);
    rational(x).clamp(-1.0, 1.0)
}

/// Relative inflation applied to every interval enclosure the certifier
/// computes with round-to-nearest endpoint arithmetic: each endpoint op
/// rounds by ≤ 0.5 ulp (`~1.1e-16` relative) and the deepest expression
/// chains ~40 ops (`≤ 5e-15`), so `1e-12` covers the accumulated rounding
/// with > 100× margin.
const CERT_REL_SLOP: f64 = 1e-12;

/// Absolute slop added to the center-point error samples: `err(c)` is
/// computed in round-to-nearest `f64` with ≤ `~6e-15` absolute error
/// (values ≤ 1 after the final divide, faithfully-rounded `tanh`);
/// `1e-13` covers it with > 15× margin.
const CERT_ABS_SLOP: f64 = 1e-13;

/// Interval Horner evaluation of a polynomial with the given descending
/// coefficients over `y`.
fn poly_interval(coeffs_desc: &[f64], y: Interval) -> Interval {
    let mut acc = Interval::point(coeffs_desc[0]);
    for &c in &coeffs_desc[1..] {
        acc = acc * y + Interval::point(c);
    }
    acc
}

/// Inflates an enclosure outward to absorb its round-to-nearest endpoint
/// arithmetic.
fn slopped(iv: Interval) -> Interval {
    iv.inflate(CERT_REL_SLOP * iv.mag() + f64::MIN_POSITIVE)
}

/// Computes a **sound upper bound** on `sup_{x ∈ ℝ} |fast_tanh(x) -
/// tanh(x)|` by subdividing `[-FAST_TANH_CLAMP, FAST_TANH_CLAMP]` into
/// `cells` cells and applying the centered form on each:
///
/// `|err(x)| ≤ |err(c)| + r · mag(E′(X))`
///
/// where `E′(X)` is an interval enclosure of the error derivative
/// `[P·Q + 2y(P′Q − P·Q′)]/Q² − (1 − tanh²x)` over the cell (sound interval
/// `tanh`, algebraic ops inflated by `CERT_REL_SLOP`). Beyond the clamp
/// the kernel is constant, so the tail error is bounded by
/// `max(|F_C - tanh(C)|, |F_C - 1|)` with `F_C` an enclosure of the
/// rational at the clamp point. The output clamp of [`fast_tanh`] only
/// shrinks the error, so the bound on the unclamped rational covers the
/// shipped kernel.
///
/// # Panics
///
/// Panics if `cells == 0`.
pub fn certified_fast_tanh_bound(cells: usize) -> f64 {
    assert!(cells > 0, "need at least one certification cell");
    let p_desc = [P5, P4, P3, P2, P1, P0];
    let q_desc = [Q5, Q4, Q3, Q2, Q1, Q0];
    // dP/dy, dQ/dy (descending)
    let dp_desc = [5.0 * P5, 4.0 * P4, 3.0 * P3, 2.0 * P2, P1];
    let dq_desc = [5.0 * Q5, 4.0 * Q4, 3.0 * Q3, 2.0 * Q2, Q1];

    let c = FAST_TANH_CLAMP;
    let width = 2.0 * c / cells as f64;
    let mut worst: f64 = 0.0;
    for i in 0..cells {
        let lo = -c + i as f64 * width;
        let hi = if i + 1 == cells { c } else { lo + width };
        let x = Interval::new(lo, hi);
        let y = slopped(x.square());
        let p = slopped(poly_interval(&p_desc, y));
        let q = slopped(poly_interval(&q_desc, y));
        let dp = slopped(poly_interval(&dp_desc, y));
        let dq = slopped(poly_interval(&dq_desc, y));
        // d/dx [x·P/Q] = (P·Q + 2y·(P′Q − P·Q′)) / Q²
        let num = slopped(p * q + (y * Interval::point(2.0)) * (dp * q - p * dq));
        let fast_slope = slopped(num / slopped(q * q));
        let t = x.tanh();
        let tanh_slope = Interval::point(1.0) - slopped(t * t);
        let err_slope = slopped(fast_slope - tanh_slope);
        let mid = 0.5 * (lo + hi);
        let center_err = (rational(mid) - mid.tanh()).abs() + CERT_ABS_SLOP;
        let radius = 0.5 * (hi - lo);
        worst = worst.max(center_err + radius * err_slope.mag());
    }
    // tail: for |x| ≥ C the kernel outputs fast_tanh(±C) while tanh(x)
    // sweeps [tanh(C), 1); both distances from the enclosure F_C bound it
    let xc = Interval::point(c);
    let yc = slopped(xc.square());
    let fc =
        slopped(xc * slopped(poly_interval(&p_desc, yc)) / slopped(poly_interval(&q_desc, yc)));
    let tc = xc.tanh();
    let tail = slopped(fc - tc)
        .mag()
        .max(slopped(fc - Interval::point(1.0)).mag());
    worst.max(tail)
}

/// Which activation kernel a batched forward uses.
///
/// `Exact` is the training/verification contract: bit-identical to the
/// per-sample [`crate::Mlp::forward`]. `FastTanh` substitutes
/// [`fast_tanh`] for `tanh` activations only (every other activation stays
/// exact), trading `≤` [`FAST_TANH_EPS`] per hidden unit for the removal
/// of the libm tanh floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ForwardKernel {
    /// Exact `libm` activations — bit-identical to the per-sample path.
    #[default]
    Exact,
    /// [`fast_tanh`] in place of `tanh`; all other activations exact.
    FastTanh,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn certificate_bounds_the_constant() {
        let bound = certified_fast_tanh_bound(1 << 16);
        assert!(
            bound <= FAST_TANH_EPS,
            "certified bound {bound:.3e} exceeds FAST_TANH_EPS {FAST_TANH_EPS:.3e}"
        );
        assert!(bound > 0.0 && bound.is_finite());
    }

    #[test]
    fn certificate_is_monotone_under_refinement() {
        // finer subdivision can only tighten the centered form
        let coarse = certified_fast_tanh_bound(1 << 10);
        let fine = certified_fast_tanh_bound(1 << 14);
        assert!(
            fine <= coarse,
            "refinement loosened the bound: {fine} > {coarse}"
        );
    }

    #[test]
    fn fast_tanh_error_within_eps_sampled() {
        use rand::Rng;
        let mut rng = cocktail_math::rng::seeded(0xfa57);
        for _ in 0..200_000 {
            let x: f64 = rng.gen_range(-40.0..40.0);
            let err = (fast_tanh(x) - x.tanh()).abs();
            assert!(err <= FAST_TANH_EPS, "fast_tanh({x}) error {err:.3e}");
        }
        // saturation and odd symmetry
        assert_eq!(fast_tanh(1e6), 1.0_f64.min(fast_tanh(1e6)));
        for x in [0.0, 0.3, 2.0, 7.4, 100.0] {
            assert_eq!(fast_tanh(-x), -fast_tanh(x), "odd symmetry at {x}");
        }
        assert!(fast_tanh(f64::NAN).is_nan());
    }

    #[test]
    fn fast_tanh_is_monotone_on_a_grid() {
        // not required for the error certificate, but a batched forward
        // relies on the kernel being sane: non-decreasing on a dense grid
        let mut prev = -2.0;
        for i in 0..=100_000 {
            let x = -10.0 + 20.0 * i as f64 / 100_000.0;
            let y = fast_tanh(x);
            assert!(y >= prev, "fast_tanh not monotone at {x}");
            prev = y;
        }
    }
}
