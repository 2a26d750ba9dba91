//! Interval Jacobians of a network over a box.
//!
//! [`interval_jacobian`] encloses `∂net/∂x` over every point of a box by
//! forward-mode interval propagation: each layer's pre-activation bounds
//! come from the previous layer's value enclosure, each activation's slope
//! interval from those bounds ([`slope`]), and the Jacobian of the layer's
//! output is the slope interval times the interval product of the weights
//! with the previous Jacobian. At a kink of a piecewise-linear activation
//! the slope interval holds the slope of every linear piece the
//! pre-activation interval touches, so the enclosure also holds every
//! element of Clarke's generalized Jacobian, which is what the mean-value
//! inequality needs for a network that is only Lipschitz.
//!
//! Every enclosure is widened outward for floating-point rounding: dot
//! products by the `(k + 4)·ε·Σ|terms|` bound of a length-`k` sum,
//! transcendental images and slopes by a few ulps, and products by a
//! relative `2ε`. The arithmetic runs on plain `f64` pairs rather than
//! [`cocktail_math::Interval`], so a NaN is reported (as `None`) instead
//! of panicking, and callers fall back to their other bounds.

use cocktail_math::BoxRegion;
use cocktail_nn::{Activation, Mlp};

/// Machine epsilon, the unit of every rounding pad below.
const EPS: f64 = f64::EPSILON;

/// Absolute slack added to activation images, so an image that underflows
/// to `0.0` (a sigmoid far in its tail) still covers the true value.
const TINY: f64 = 1e-300;

/// Working memory of [`interval_jacobian`], reused from box to box.
#[derive(Debug, Default)]
pub(crate) struct JacobianScratch {
    /// Value enclosure of the current layer's output, `[lo, hi]` per unit.
    value: Vec<[f64; 2]>,
    next_value: Vec<[f64; 2]>,
    /// Jacobian enclosure of the current layer's output with respect to
    /// the network input, row-major (`units × inputs`).
    jacobian: Vec<[f64; 2]>,
    next_jacobian: Vec<[f64; 2]>,
    /// Per unit of the current layer's output: [`mid_rad`] of its value,
    /// then of its `n` Jacobian entries, computed once per layer.
    centred: Vec<(f64, f64)>,
    /// Per unit of the next layer, from [`affines`]: its pre-activation
    /// enclosure, then the enclosures of its `n` Jacobian column sums.
    enclosures: Vec<[f64; 2]>,
    /// [`affines`]' running sums beyond four inputs.
    sums: Vec<[f64; 3]>,
    /// Every pre-activation's `lo` and `hi`, and the activation of each.
    endpoints: Vec<f64>,
    images: Vec<f64>,
}

/// The interval `[lo, hi]` widened by `pad` on both sides, or `None` when
/// either end is NaN.
fn checked(lo: f64, hi: f64, pad: f64) -> Option<[f64; 2]> {
    let out = [lo - pad, hi + pad];
    (out[0] <= out[1]).then_some(out)
}

/// Centre and radius of `[lo, hi]`.
fn mid_rad([lo, hi]: [f64; 2]) -> (f64, f64) {
    let mid = 0.5 * (lo + hi);
    (mid, (hi - mid).max(mid - lo))
}

/// Encloses, for one unit with input weights `weights`, `Σₖ wₖ·xₖ + bias`
/// over the inputs' values and `Σₖ wₖ·xₖ` over each column of their
/// Jacobian, in one pass over the weights, and appends the enclosures to
/// `out` (value first). `x` holds `weights.len()` groups of [`mid_rad`]
/// pairs, each its input's value then Jacobian entries. Each enclosure is
/// centre ± radius, padded by the rounding bound of its sums; `None` on a
/// NaN. For input dimensions 1–4 the running sums live in a fixed-size
/// array ([`affines_fixed`]); wider inputs use `sums` as working memory.
fn affines(
    weights: &[f64],
    x: &[(f64, f64)],
    bias: f64,
    sums: &mut Vec<[f64; 3]>,
    out: &mut Vec<[f64; 2]>,
) -> Option<()> {
    match x.len() / weights.len() {
        2 => affines_fixed::<2>(weights, x, bias, out),
        3 => affines_fixed::<3>(weights, x, bias, out),
        4 => affines_fixed::<4>(weights, x, bias, out),
        5 => affines_fixed::<5>(weights, x, bias, out),
        width => {
            sums.clear();
            sums.push([bias, 0.0, bias.abs()]);
            sums.resize(width, [0.0; 3]);
            for (&w, group) in weights.iter().zip(x.chunks_exact(width)) {
                accumulate(sums, w, group);
            }
            push_enclosures(sums, weights.len(), out)
        }
    }
}

/// [`affines`] for groups of `W` pairs, the sums in registers.
fn affines_fixed<const W: usize>(
    weights: &[f64],
    x: &[(f64, f64)],
    bias: f64,
    out: &mut Vec<[f64; 2]>,
) -> Option<()> {
    let mut sums = [[0.0; 3]; W];
    sums[0] = [bias, 0.0, bias.abs()];
    for (&w, group) in weights.iter().zip(x.chunks_exact(W)) {
        accumulate(&mut sums, w, group);
    }
    push_enclosures(&sums, weights.len(), out)
}

/// Adds one input's terms, weight `w`, to the centre, radius and
/// magnitude of each sum.
#[inline(always)]
fn accumulate(sums: &mut [[f64; 3]], w: f64, group: &[(f64, f64)]) {
    let w_abs = w.abs();
    for (sum, &(m, r)) in sums.iter_mut().zip(group) {
        let term = w * m;
        sum[0] += term;
        sum[1] += w_abs * r;
        sum[2] += term.abs();
    }
}

/// Appends each sum's padded enclosure for a length-`terms` dot product.
fn push_enclosures(sums: &[[f64; 3]], terms: usize, out: &mut Vec<[f64; 2]>) -> Option<()> {
    let unit_pad = (terms + 4) as f64 * EPS;
    for &[centre, radius, magnitude] in sums {
        out.push(checked(
            centre - radius,
            centre + radius,
            unit_pad * (magnitude + radius),
        )?);
    }
    Some(())
}

/// The product of intervals `a` and `b`, widened by a relative `2ε`.
fn product(a: [f64; 2], b: [f64; 2]) -> Option<[f64; 2]> {
    let c = [a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]];
    if c.iter().any(|v| v.is_nan()) {
        return None;
    }
    let lo = c.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = c.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Some([lo - 2.0 * EPS * lo.abs(), hi + 2.0 * EPS * hi.abs()])
}

/// The logistic sigmoid `1 / (1 + e^{−x})`.
fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// The slope interval of `act` over the pre-activation interval
/// `[lo, hi]` (no NaN): every derivative the activation takes there, and
/// at a kink inside it the slopes of both linear pieces.
///
/// * Tanh: `[1 − tanh²(max|z|), 1 − tanh²(min|z|)]`, with `min|z| = 0`
///   when `0 ∈ z`, since the slope falls with `|z|`.
/// * Sigmoid: `σ'(z) = σ(z)·(1 − σ(z))`, even in `z` and falling with
///   `|z|`, by the same construction.
/// * Softplus: its slope is `σ(z)`, increasing, so the endpoints' slopes.
/// * `ReLU` and `LeakyReLU`: the slopes of every piece `z` touches.
/// * Identity: `1`.
///
/// The smooth cases are widened by `4ε` absolutely (their slopes are at
/// most 1 and each is a couple of correctly rounded operations) and
/// clamped to the true codomain.
///
/// `at` is `[act(lo), act(hi)]`. glibc's `tanh` is odd bit for bit, so
/// `tanh(|z|)` is `|tanh(z)|` of the endpoint `z` it came from, and the
/// Tanh slope takes no `tanh` call of its own.
fn slope(act: Activation, [lo, hi]: [f64; 2], [at_lo, at_hi]: [f64; 2]) -> [f64; 2] {
    let straddles = lo <= 0.0 && hi >= 0.0;
    let nearest = if straddles {
        0.0
    } else {
        lo.abs().min(hi.abs())
    };
    let farthest = lo.abs().max(hi.abs());
    let pad = 4.0 * EPS;
    let padded = |a: f64, b: f64, top: f64| [(a - pad).max(0.0), (b + pad).min(top)];
    match act {
        Activation::Identity => [1.0, 1.0],
        Activation::Tanh => {
            let tanh_abs = |z: f64| {
                if z == lo.abs() {
                    at_lo.abs()
                } else {
                    at_hi.abs()
                }
            };
            let dtanh = |t: f64| 1.0 - t * t;
            let near = if straddles { 0.0 } else { tanh_abs(nearest) };
            padded(dtanh(tanh_abs(farthest)), dtanh(near), 1.0)
        }
        Activation::Sigmoid => {
            // σ'(z) = σ(−|z|)·(1 − σ(−|z|)): the small factor first, so
            // the tail does not cancel
            let dsigmoid = |z: f64| {
                let s = sigmoid(-z);
                s * (1.0 - s)
            };
            padded(dsigmoid(farthest), dsigmoid(nearest), 0.25)
        }
        Activation::Softplus => padded(sigmoid(lo), sigmoid(hi), 1.0),
        Activation::Relu => piecewise(0.0, lo, hi),
        Activation::LeakyRelu { alpha } => piecewise(alpha, lo, hi),
    }
}

/// The slopes of the two-piece linear map with slope `left` below 0 and 1
/// above it, over `[lo, hi]`.
fn piecewise(left: f64, lo: f64, hi: f64) -> [f64; 2] {
    if lo > 0.0 {
        [1.0, 1.0]
    } else if hi < 0.0 {
        [left, left]
    } else {
        [left.min(1.0), left.max(1.0)]
    }
}

/// The image of an activation `act` over `[lo, hi]` (no NaN), from its
/// values `[a, b]` at the endpoints: their hull and, for an interval
/// around the kink at 0 of a piecewise-linear activation, of `act(0)`,
/// which covers a `LeakyReLU` whose leak is negative (not monotone). The
/// smooth activations are monotone. Widened by a relative `8ε` and an
/// absolute [`TINY`].
fn image([lo, hi]: [f64; 2], [a, b]: [f64; 2]) -> Option<[f64; 2]> {
    if a.is_nan() || b.is_nan() {
        return None;
    }
    let (mut min, mut max) = (a.min(b), a.max(b));
    if lo < 0.0 && hi > 0.0 {
        min = min.min(0.0);
        max = max.max(0.0);
    }
    Some([
        min - 8.0 * EPS * min.abs() - TINY,
        max + 8.0 * EPS * max.abs() + TINY,
    ])
}

/// An enclosure of the Jacobian `∂net/∂x` at every point of `region`:
/// `out[o·n + i]` bounds `∂net_o/∂x_i`, `n = region.dim()`. `None` when a
/// NaN arises (non-finite weights, or an infinity times zero).
///
/// # Panics
///
/// Panics if `region.dim() != net.input_dim()`.
pub(crate) fn interval_jacobian<'s>(
    net: &Mlp,
    region: &BoxRegion,
    scratch: &'s mut JacobianScratch,
) -> Option<&'s [[f64; 2]]> {
    let n = region.dim();
    assert_eq!(n, net.input_dim(), "region dimension mismatch");
    let JacobianScratch {
        value,
        next_value,
        jacobian,
        next_jacobian,
        centred,
        enclosures,
        sums,
        endpoints,
        images,
    } = scratch;
    value.clear();
    value.extend(region.intervals().iter().map(|iv| [iv.lo(), iv.hi()]));
    jacobian.clear();
    jacobian.extend((0..n * n).map(|k| {
        let one = f64::from(u8::from(k / n == k % n));
        [one, one]
    }));
    for layer in net.layers() {
        let act = layer.activation();
        centred.clear();
        for (&v, row) in value.iter().zip(jacobian.chunks_exact(n)) {
            centred.push(mid_rad(v));
            centred.extend(row.iter().map(|&iv| mid_rad(iv)));
        }
        enclosures.clear();
        for (j, &bias) in layer.biases().iter().enumerate() {
            affines(layer.weights().row(j), centred, bias, sums, enclosures)?;
        }
        // the activation at every pre-activation endpoint, in one call
        endpoints.clear();
        endpoints.extend(enclosures.iter().step_by(n + 1).flatten());
        images.resize(endpoints.len(), 0.0);
        act.apply_slice(endpoints, images);
        next_value.clear();
        next_jacobian.clear();
        for (unit, at) in enclosures.chunks_exact(n + 1).zip(images.chunks_exact(2)) {
            let (z, at) = (unit[0], [at[0], at[1]]);
            next_value.push(image(z, at)?);
            let s = slope(act, z, at);
            for &column in &unit[1..] {
                next_jacobian.push(product(s, column)?);
            }
        }
        std::mem::swap(value, next_value);
        std::mem::swap(jacobian, next_jacobian);
    }
    Some(jacobian)
}

/// The interval Jacobian as it was before the activation ran a layer at a
/// time: one `affine` per value and per column, `tanh` called inside the
/// image and the slope. The rewrite must match it bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::{checked, mid_rad, piecewise, product, sigmoid, EPS, TINY};
    use cocktail_math::BoxRegion;
    use cocktail_nn::{Activation, Mlp};

    fn affine(weights: &[f64], x: &[(f64, f64)], bias: f64) -> Option<[f64; 2]> {
        let (mut centre, mut radius, mut magnitude) = (bias, 0.0, bias.abs());
        for (&w, &(m, r)) in weights.iter().zip(x) {
            centre += w * m;
            radius += w.abs() * r;
            magnitude += (w * m).abs();
        }
        let pad = (weights.len() + 4) as f64 * EPS * (magnitude + radius);
        checked(centre - radius, centre + radius, pad)
    }

    fn slope(act: Activation, [lo, hi]: [f64; 2]) -> [f64; 2] {
        let nearest = if lo <= 0.0 && hi >= 0.0 {
            0.0
        } else {
            lo.abs().min(hi.abs())
        };
        let farthest = lo.abs().max(hi.abs());
        let pad = 4.0 * EPS;
        let padded = |a: f64, b: f64, top: f64| [(a - pad).max(0.0), (b + pad).min(top)];
        match act {
            Activation::Identity => [1.0, 1.0],
            Activation::Tanh => {
                let dtanh = |z: f64| 1.0 - z.tanh() * z.tanh();
                padded(dtanh(farthest), dtanh(nearest), 1.0)
            }
            Activation::Sigmoid => {
                let dsigmoid = |z: f64| {
                    let s = sigmoid(-z);
                    s * (1.0 - s)
                };
                padded(dsigmoid(farthest), dsigmoid(nearest), 0.25)
            }
            Activation::Softplus => padded(sigmoid(lo), sigmoid(hi), 1.0),
            Activation::Relu => piecewise(0.0, lo, hi),
            Activation::LeakyRelu { alpha } => piecewise(alpha, lo, hi),
        }
    }

    fn image(act: Activation, [lo, hi]: [f64; 2]) -> Option<[f64; 2]> {
        let (a, b) = (act.apply(lo), act.apply(hi));
        if a.is_nan() || b.is_nan() {
            return None;
        }
        let (mut min, mut max) = (a.min(b), a.max(b));
        if lo < 0.0 && hi > 0.0 {
            min = min.min(0.0);
            max = max.max(0.0);
        }
        Some([
            min - 8.0 * EPS * min.abs() - TINY,
            max + 8.0 * EPS * max.abs() + TINY,
        ])
    }

    pub(crate) fn interval_jacobian(net: &Mlp, region: &BoxRegion) -> Option<Vec<[f64; 2]>> {
        let n = region.dim();
        let mut value: Vec<[f64; 2]> = region
            .intervals()
            .iter()
            .map(|iv| [iv.lo(), iv.hi()])
            .collect();
        let mut jacobian: Vec<[f64; 2]> = (0..n * n)
            .map(|k| {
                let one = f64::from(u8::from(k / n == k % n));
                [one, one]
            })
            .collect();
        for layer in net.layers() {
            let w = layer.weights();
            let (mut next_value, mut next_jacobian) = (Vec::new(), Vec::new());
            let inputs = value.len();
            let value_mid_rad: Vec<(f64, f64)> = value.iter().map(|&iv| mid_rad(iv)).collect();
            let mut jacobian_mid_rad = Vec::new();
            for i in 0..n {
                jacobian_mid_rad.extend((0..inputs).map(|k| mid_rad(jacobian[k * n + i])));
            }
            for (j, &bias) in layer.biases().iter().enumerate() {
                let row = w.row(j);
                let z = affine(row, &value_mid_rad, bias)?;
                next_value.push(image(layer.activation(), z)?);
                let s = slope(layer.activation(), z);
                for column in jacobian_mid_rad.chunks_exact(inputs) {
                    next_jacobian.push(product(s, affine(row, column, 0.0)?)?);
                }
            }
            value = next_value;
            jacobian = next_jacobian;
        }
        Some(jacobian)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocktail_nn::MlpBuilder;

    /// Every activation, with leaks on both sides of 0.
    const ALL: [Activation; 7] = [
        Activation::Identity,
        Activation::Relu,
        Activation::Tanh,
        Activation::Sigmoid,
        Activation::LeakyRelu { alpha: 0.1 },
        Activation::LeakyRelu { alpha: -0.3 },
        Activation::Softplus,
    ];

    fn net(inputs: usize, act: Activation, seed: u64) -> Mlp {
        MlpBuilder::new(inputs)
            .hidden(7, act)
            .hidden(5, act)
            .output(2, act)
            .seed(seed)
            .build()
    }

    #[test]
    fn interval_jacobian_encloses_the_gradient_of_every_activation() {
        let mut rng = cocktail_math::rng::seeded(41);
        // a seeded sub-box of [−1.5, 1.5]^n, at most `max_width` wide per
        // dimension
        let mut sub_box = |n: usize, max_width: f64| {
            let corner =
                cocktail_math::rng::uniform_in_box(&mut rng, &BoxRegion::cube(n, -1.5, 1.5));
            let widths =
                cocktail_math::rng::uniform_in_box(&mut rng, &BoxRegion::cube(n, 0.0, max_width));
            let upper: Vec<f64> = corner.iter().zip(&widths).map(|(c, w)| c + w).collect();
            BoxRegion::from_bounds(&corner, &upper)
        };
        let mut points_rng = cocktail_math::rng::seeded(42);
        let mut scratch = JacobianScratch::default();
        let mut checked_points = 0;
        for (a, &act) in ALL.iter().enumerate() {
            for n in [1usize, 2, 3, 4] {
                let net = net(n, act, 100 + 10 * a as u64 + n as u64);
                for max_width in [0.05, 0.5, 2.0] {
                    for _ in 0..4 {
                        let region = sub_box(n, max_width);
                        let jac = interval_jacobian(&net, &region, &mut scratch)
                            .expect("finite weights")
                            .to_vec();
                        // random points, the corners and the centre
                        let mut points: Vec<Vec<f64>> = (0..12)
                            .map(|_| cocktail_math::rng::uniform_in_box(&mut points_rng, &region))
                            .collect();
                        points.extend(region.corners());
                        points.push(region.center());
                        for x in &points {
                            for o in 0..2 {
                                let mut seed = [0.0; 2];
                                seed[o] = 1.0;
                                let grad = net.input_gradient(x, &seed);
                                for (i, g) in grad.iter().enumerate() {
                                    let [lo, hi] = jac[o * n + i];
                                    assert!(
                                        lo <= *g && *g <= hi,
                                        "{act}, n {n}: ∂{o}/∂{i} = {g} escapes [{lo}, {hi}] \
                                         at {x:?} in {region:?}"
                                    );
                                }
                            }
                            checked_points += 1;
                        }
                    }
                }
            }
        }
        assert!(checked_points >= 1000, "{checked_points} points");
    }

    #[test]
    fn matches_the_reference_bit_for_bit_on_every_activation() {
        let mut rng = cocktail_math::rng::seeded(44);
        let mut scratch = JacobianScratch::default();
        let mut compared = 0;
        for (a, &act) in ALL.iter().enumerate() {
            // five inputs take `affines`' generic loop
            for n in [1usize, 2, 3, 4, 5] {
                let net = net(n, act, 200 + 10 * a as u64 + n as u64);
                for max_width in [0.0, 1e-3, 0.05, 0.5, 2.0, 8.0] {
                    for _ in 0..6 {
                        let corner = cocktail_math::rng::uniform_in_box(
                            &mut rng,
                            &BoxRegion::cube(n, -3.0, 3.0),
                        );
                        let widths = cocktail_math::rng::uniform_in_box(
                            &mut rng,
                            &BoxRegion::cube(n, 0.0, max_width),
                        );
                        let upper: Vec<f64> =
                            corner.iter().zip(&widths).map(|(c, w)| c + w).collect();
                        let region = BoxRegion::from_bounds(&corner, &upper);
                        let want = reference::interval_jacobian(&net, &region);
                        let got = interval_jacobian(&net, &region, &mut scratch).map(<[_]>::to_vec);
                        assert_eq!(
                            bits(got.as_deref()),
                            bits(want.as_deref()),
                            "{act}, n {n}, {region:?}"
                        );
                        compared += 1;
                    }
                }
            }
        }
        assert_eq!(compared, ALL.len() * 5 * 6 * 6);
        // a NaN weight: both give none
        let mut broken = net(2, Activation::Tanh, 5);
        broken.layers_mut()[0].weights_mut()[(3, 1)] = f64::NAN;
        let region = BoxRegion::cube(2, -1.0, 1.0);
        assert!(reference::interval_jacobian(&broken, &region).is_none());
        assert!(interval_jacobian(&broken, &region, &mut scratch).is_none());
    }

    /// [`affines`] as one loop over a vector of sums for every input
    /// dimension: the body before dimensions 1–4 kept their sums in an
    /// array.
    fn affines_by_loop(weights: &[f64], x: &[(f64, f64)], bias: f64) -> Option<Vec<[f64; 2]>> {
        let width = x.len() / weights.len();
        let mut sums = vec![[0.0; 3]; width];
        sums[0] = [bias, 0.0, bias.abs()];
        for (&w, group) in weights.iter().zip(x.chunks_exact(width)) {
            let w_abs = w.abs();
            for (sum, &(m, r)) in sums.iter_mut().zip(group) {
                let term = w * m;
                sum[0] += term;
                sum[1] += w_abs * r;
                sum[2] += term.abs();
            }
        }
        let unit_pad = (weights.len() + 4) as f64 * EPS;
        sums.iter()
            .map(|&[centre, radius, magnitude]| {
                checked(
                    centre - radius,
                    centre + radius,
                    unit_pad * (magnitude + radius),
                )
            })
            .collect()
    }

    #[test]
    fn affines_match_one_loop_at_input_dimensions_one_to_five() {
        let mut rng = cocktail_math::rng::seeded(46);
        let mut draw = |len: usize, half_width: f64| {
            cocktail_math::rng::uniform_symmetric(&mut rng, len, half_width)
        };
        let mut sums = Vec::new();
        let mut compared = 0;
        for n in 1..=5 {
            for inputs in [1usize, 3, 24] {
                for trial in 0..25 {
                    let mut weights = draw(inputs, 2.0);
                    let centres = draw(inputs * (n + 1), 3.0);
                    let radii = draw(inputs * (n + 1), 1.0);
                    let mut x: Vec<(f64, f64)> = centres
                        .iter()
                        .zip(&radii)
                        .map(|(&m, &r)| (m, r.abs()))
                        .collect();
                    let mut bias = draw(1, 1.0)[0];
                    // signed zeros, and a NaN that must give `None`
                    match trial {
                        0 => (weights[0], bias) = (-0.0, -0.0),
                        1 => x[0] = (-0.0, 0.0),
                        2 => x[inputs * (n + 1) - 1].0 = f64::NAN,
                        _ => {}
                    }
                    let mut out = Vec::new();
                    let got = affines(&weights, &x, bias, &mut sums, &mut out).map(|()| out);
                    let want = affines_by_loop(&weights, &x, bias);
                    assert_eq!(
                        bits(got.as_deref()),
                        bits(want.as_deref()),
                        "n {n}, {inputs} inputs, trial {trial}"
                    );
                    compared += 1;
                }
            }
        }
        assert_eq!(compared, 5 * 3 * 25);
    }

    /// Every endpoint's bits, for exact comparison.
    pub(crate) fn bits(jacobian: Option<&[[f64; 2]]>) -> Option<Vec<[u64; 2]>> {
        jacobian.map(|jac| {
            jac.iter()
                .map(|[lo, hi]| [lo.to_bits(), hi.to_bits()])
                .collect()
        })
    }

    #[test]
    fn kinks_inside_the_box_get_both_slopes() {
        // a single unit whose pre-activation crosses 0 inside the box
        let kinked = |act| {
            let mut net = MlpBuilder::new(1).output(1, act).seed(0).build();
            let layer = &mut net.layers_mut()[0];
            layer.weights_mut()[(0, 0)] = 2.0;
            layer.biases_mut()[0] = 0.0;
            net
        };
        let region = BoxRegion::cube(1, -0.5, 0.25);
        let mut scratch = JacobianScratch::default();
        for (act, want) in [
            (Activation::Relu, [0.0, 2.0]),
            (Activation::LeakyRelu { alpha: 0.1 }, [0.2, 2.0]),
            (Activation::LeakyRelu { alpha: -0.3 }, [-0.6, 2.0]),
        ] {
            let net = kinked(act);
            let jac = interval_jacobian(&net, &region, &mut scratch).expect("finite");
            let [lo, hi] = jac[0];
            assert!(
                lo <= want[0] && hi >= want[1],
                "{act}: [{lo}, {hi}] misses {want:?}"
            );
            assert!(
                want[0] - lo < 1e-12 && hi - want[1] < 1e-12,
                "{act}: [{lo}, {hi}] is loose"
            );
            // the gradient on each side of the kink
            for x in [-0.4, 0.2] {
                let g = net.input_gradient(&[x], &[1.0])[0];
                assert!(lo <= g && g <= hi, "{act}: {g} at {x}");
            }
        }
    }

    #[test]
    fn slopes_are_enclosed_on_dense_samples() {
        let mut rng = cocktail_math::rng::seeded(43);
        for act in ALL {
            for _ in 0..200 {
                let c =
                    cocktail_math::rng::uniform_in_box(&mut rng, &BoxRegion::cube(2, -6.0, 6.0));
                let (lo, hi) = (c[0].min(c[1]), c[0].max(c[1]));
                let [s_lo, s_hi] = slope(act, [lo, hi], [act.apply(lo), act.apply(hi)]);
                for k in 0..=50 {
                    let z = lo + (hi - lo) * f64::from(k) / 50.0;
                    let d = act.derivative(z);
                    assert!(
                        s_lo <= d && d <= s_hi,
                        "{act}: {d} at {z} escapes [{s_lo}, {s_hi}] over [{lo}, {hi}]"
                    );
                }
            }
        }
    }

    #[test]
    fn a_nan_weight_yields_no_enclosure() {
        let mut net = net(2, Activation::Tanh, 5);
        net.layers_mut()[1].weights_mut()[(0, 0)] = f64::NAN;
        let region = BoxRegion::cube(2, -1.0, 1.0);
        assert!(interval_jacobian(&net, &region, &mut JacobianScratch::default()).is_none());
    }
}
