//! Sound interval arithmetic and axis-aligned box regions.
//!
//! These types carry the over-approximation semantics of the verification
//! crate: every operation on [`Interval`] returns an interval that contains
//! the exact image of the operands, so any property proved on the intervals
//! holds for all concrete values inside them.
//!
//! # Rounding discipline
//!
//! The transcendental images ([`Interval::tanh`], [`Interval::sigmoid`],
//! [`Interval::sin`], [`Interval::cos`]) are computed with **outward
//! rounding**: the endpoint images produced by `libm` are round-to-nearest
//! and may sit on the wrong side of the true value by up to an ulp (more
//! for composed expressions like the sigmoid), so each endpoint is widened
//! outward by a small, documented ulp budget and then intersected with the
//! function's true codomain. Any point image therefore lies inside the
//! returned interval — the property the certification code downstream
//! (activation bounds, the analysis range pass, `crates/verify`, the serve
//! fast-tier error certificates) relies on.
//!
//! The *algebraic* ops (`+`, `-`, `*`, `/`, [`Interval::square`],
//! [`Interval::powi`]) remain round-to-nearest: their endpoint arithmetic
//! is a single correctly-rounded operation whose 0.5-ulp slack is absorbed
//! by callers that need hard guarantees via [`Interval::inflate`] (the
//! fast-tanh certifier does exactly this). The containment invariants of
//! both families are property-tested with random points that must never
//! escape.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// Outward-rounding budget (in ulps) for single-call transcendentals
/// (`tanh`, `sin`, `cos`): `libm` is faithfully rounded (< 1 ulp), so two
/// ulps of slack strictly covers the true value on both sides, including
/// the quadratically-small error of evaluating at an approximated extremum
/// abscissa (`sin`/`cos` interior extrema at `π/2 + kπ`).
const TRANS_ULPS: u32 = 2;

/// Outward-rounding budget for the sigmoid `1 / (1 + e^{-x})`: the
/// composed expression accumulates one < 1-ulp `exp`, one 0.5-ulp add and
/// one 0.5-ulp divide — under 2.5 ulps relative in total — so four ulps
/// strictly covers it. The underflow tails are covered too: for `x ≪ 0`
/// the computed value is exactly `0.0` while the true value is a positive
/// denormal-or-smaller, and one `next_up` step (to `5e-324`) already
/// bounds it from above; symmetrically at `x ≫ 0`.
const SIGMOID_ULPS: u32 = 4;

/// Steps `x` toward `-∞` by `ulps` representable values.
fn steps_down(mut x: f64, ulps: u32) -> f64 {
    for _ in 0..ulps {
        x = x.next_down();
    }
    x
}

/// Steps `x` toward `+∞` by `ulps` representable values.
fn steps_up(mut x: f64, ulps: u32) -> f64 {
    for _ in 0..ulps {
        x = x.next_up();
    }
    x
}

/// Builds `[lo, hi]` widened outward by `ulps` steps and intersected with
/// the true codomain `[dom_lo, dom_hi]` — sound because the exact image is
/// a subset of the codomain, so clipping the widened bounds back to it
/// never excludes an attainable value.
fn outward(lo: f64, hi: f64, ulps: u32, dom_lo: f64, dom_hi: f64) -> Interval {
    Interval::new(
        steps_down(lo, ulps).clamp(dom_lo, dom_hi),
        steps_up(hi, ulps).clamp(dom_lo, dom_hi),
    )
}

/// A closed interval `[lo, hi]` of `f64`.
///
/// # Examples
///
/// ```
/// use cocktail_math::Interval;
///
/// let x = Interval::new(-1.0, 2.0);
/// let y = x * x;
/// assert!(y.contains(0.0) && y.contains(4.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    /// Creates `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is NaN.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(!lo.is_nan() && !hi.is_nan(), "interval bound is NaN");
        assert!(lo <= hi, "interval bounds inverted: [{lo}, {hi}]");
        Self { lo, hi }
    }

    /// The degenerate interval `[v, v]`.
    pub fn point(v: f64) -> Self {
        Self::new(v, v)
    }

    /// The symmetric interval `[-r, r]`.
    ///
    /// # Panics
    ///
    /// Panics if `r < 0`.
    pub fn symmetric(r: f64) -> Self {
        assert!(r >= 0.0, "symmetric radius must be non-negative");
        Self::new(-r, r)
    }

    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Midpoint `(lo + hi) / 2`.
    pub fn mid(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// Width `hi - lo`.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Radius `width / 2`.
    pub fn radius(&self) -> f64 {
        0.5 * self.width()
    }

    /// Largest absolute value contained.
    pub fn mag(&self) -> f64 {
        self.lo.abs().max(self.hi.abs())
    }

    /// Whether `v` lies in the interval (inclusive).
    pub fn contains(&self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Whether `other` is entirely inside `self` (inclusive).
    pub fn contains_interval(&self, other: &Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Intersection, or `None` when disjoint.
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then(|| Interval::new(lo, hi))
    }

    /// Smallest interval containing both operands.
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval::new(self.lo.min(other.lo), self.hi.max(other.hi))
    }

    /// Widens both endpoints outward by `eps ≥ 0` — the `Ω ⊕ ε` Minkowski
    /// summation the paper uses to absorb the Bernstein approximation error.
    ///
    /// # Panics
    ///
    /// Panics if `eps < 0`.
    pub fn inflate(&self, eps: f64) -> Interval {
        assert!(eps >= 0.0, "inflate amount must be non-negative");
        Interval::new(self.lo - eps, self.hi + eps)
    }

    /// Interval image of `x²` (tight).
    pub fn square(&self) -> Interval {
        if self.lo >= 0.0 {
            Interval::new(self.lo * self.lo, self.hi * self.hi)
        } else if self.hi <= 0.0 {
            Interval::new(self.hi * self.hi, self.lo * self.lo)
        } else {
            Interval::new(0.0, self.mag() * self.mag())
        }
    }

    /// Interval image of `x^n` for `n ≥ 0` (tight for all parities).
    pub fn powi(&self, n: u32) -> Interval {
        match n {
            0 => Interval::point(1.0),
            1 => *self,
            _ if n.is_multiple_of(2) => {
                let even = self.square();
                even.pow_monotone(n / 2)
            }
            _ => Interval::new(self.lo.powi(n as i32), self.hi.powi(n as i32)),
        }
    }

    /// `x^n` for an interval already known non-negative (monotone case).
    fn pow_monotone(&self, n: u32) -> Interval {
        Interval::new(self.lo.powi(n as i32), self.hi.powi(n as i32))
    }

    /// Interval image of `sin x` (sound, outwardly rounded; tight up to
    /// quadrant analysis).
    pub fn sin(&self) -> Interval {
        if self.width() >= 2.0 * std::f64::consts::PI {
            return Interval::new(-1.0, 1.0);
        }
        let mut lo = self.lo.sin().min(self.hi.sin());
        let mut hi = self.lo.sin().max(self.hi.sin());
        // include interior extrema at π/2 + kπ
        let k_min = ((self.lo - std::f64::consts::FRAC_PI_2) / std::f64::consts::PI).ceil() as i64;
        let k_max = ((self.hi - std::f64::consts::FRAC_PI_2) / std::f64::consts::PI).floor() as i64;
        for k in k_min..=k_max {
            let x = std::f64::consts::FRAC_PI_2 + k as f64 * std::f64::consts::PI;
            lo = lo.min(x.sin());
            hi = hi.max(x.sin());
        }
        // An extremum that the rounded k-range just misses sits within a
        // few ulps of an endpoint, so the endpoint image is within O(ulp²)
        // of ±1 — strictly inside the outward widening below.
        outward(lo, hi, TRANS_ULPS, -1.0, 1.0)
    }

    /// Interval image of `cos x` (sound, outwardly rounded).
    ///
    /// Implemented directly — not as `sin(x + π/2)` — so large arguments
    /// don't pick up an unaccounted rounding of the shifted endpoint.
    pub fn cos(&self) -> Interval {
        if self.width() >= 2.0 * std::f64::consts::PI {
            return Interval::new(-1.0, 1.0);
        }
        let mut lo = self.lo.cos().min(self.hi.cos());
        let mut hi = self.lo.cos().max(self.hi.cos());
        // include interior extrema at kπ
        let k_min = (self.lo / std::f64::consts::PI).ceil() as i64;
        let k_max = (self.hi / std::f64::consts::PI).floor() as i64;
        for k in k_min..=k_max {
            let x = k as f64 * std::f64::consts::PI;
            lo = lo.min(x.cos());
            hi = hi.max(x.cos());
        }
        outward(lo, hi, TRANS_ULPS, -1.0, 1.0)
    }

    /// Interval image of `tanh x` (monotone; sound, outwardly rounded).
    pub fn tanh(&self) -> Interval {
        outward(self.lo.tanh(), self.hi.tanh(), TRANS_ULPS, -1.0, 1.0)
    }

    /// Interval image of the logistic sigmoid (monotone; sound, outwardly
    /// rounded).
    ///
    /// Large-magnitude arguments are covered: at `x ≪ 0` the `(-x).exp()`
    /// term overflows to `+∞` and the computed quotient collapses to
    /// `0.0`, *below* the true (positive) value — the `next_up` widening
    /// of the upper endpoint restores soundness, and the codomain clamp
    /// keeps the lower endpoint at `0.0` instead of a negative ulp.
    pub fn sigmoid(&self) -> Interval {
        fn s(x: f64) -> f64 {
            1.0 / (1.0 + (-x).exp())
        }
        outward(s(self.lo), s(self.hi), SIGMOID_ULPS, 0.0, 1.0)
    }

    /// Builds `[lo, hi]` widened outward by `ulps` representable steps per
    /// endpoint — the building block for callers (e.g. activation images in
    /// `cocktail-nn`) that compute endpoint values with round-to-nearest
    /// arithmetic and need a sound enclosure.
    ///
    /// # Panics
    ///
    /// Panics if either bound is NaN or `lo > hi`.
    pub fn outward_rounded(lo: f64, hi: f64, ulps: u32) -> Interval {
        Interval::new(steps_down(lo, ulps), steps_up(hi, ulps))
    }

    /// Interval image of `max(0, x)` (`ReLU`, monotone).
    pub fn relu(&self) -> Interval {
        Interval::new(self.lo.max(0.0), self.hi.max(0.0))
    }

    /// The `k` cells of a uniform subdivision, in increasing order: cell
    /// `i` spans `lo + i·w` to `lo + (i + 1)·w` with `w = width / k`, the
    /// first starting at `lo` and the last ending at `hi` exactly.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn subdivide(&self, k: usize) -> Vec<Interval> {
        assert!(k > 0, "subdivision count must be positive");
        let w = self.width() / k as f64;
        (0..k)
            .map(|i| {
                let lo = if i == 0 {
                    self.lo
                } else {
                    self.lo + i as f64 * w
                };
                let hi = if i + 1 == k {
                    self.hi
                } else {
                    self.lo + (i + 1) as f64 * w
                };
                // guard against rounding making lo > hi on tiny cells
                Interval::new(lo.min(hi), hi.max(lo))
            })
            .collect()
    }

    /// Clamps the interval into `[lo, hi]` element-wise (image of the clip
    /// function applied to every member).
    pub fn clamp_to(&self, lo: f64, hi: f64) -> Interval {
        Interval::new(self.lo.clamp(lo, hi), self.hi.clamp(lo, hi))
    }
}

impl Default for Interval {
    fn default() -> Self {
        Interval::point(0.0)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

impl From<f64> for Interval {
    fn from(v: f64) -> Self {
        Interval::point(v)
    }
}

impl Add for Interval {
    type Output = Interval;

    fn add(self, o: Interval) -> Interval {
        Interval::new(self.lo + o.lo, self.hi + o.hi)
    }
}

impl Sub for Interval {
    type Output = Interval;

    fn sub(self, o: Interval) -> Interval {
        Interval::new(self.lo - o.hi, self.hi - o.lo)
    }
}

impl Neg for Interval {
    type Output = Interval;

    fn neg(self) -> Interval {
        Interval::new(-self.hi, -self.lo)
    }
}

impl Mul for Interval {
    type Output = Interval;

    fn mul(self, o: Interval) -> Interval {
        let c = [
            self.lo * o.lo,
            self.lo * o.hi,
            self.hi * o.lo,
            self.hi * o.hi,
        ];
        let lo = c.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = c.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Interval::new(lo, hi)
    }
}

impl Mul<f64> for Interval {
    type Output = Interval;

    fn mul(self, s: f64) -> Interval {
        if s >= 0.0 {
            Interval::new(self.lo * s, self.hi * s)
        } else {
            Interval::new(self.hi * s, self.lo * s)
        }
    }
}

impl Div for Interval {
    type Output = Interval;

    /// # Panics
    ///
    /// Panics if the divisor contains zero.
    fn div(self, o: Interval) -> Interval {
        assert!(
            !o.contains(0.0),
            "interval division by interval containing zero"
        );
        self * Interval::new(1.0 / o.hi, 1.0 / o.lo)
    }
}

/// An axis-aligned box in `R^n`: the product of one [`Interval`] per
/// dimension. Used for safe regions `X`, initial sets `X_0`, input bounds
/// `U` and reachable-set enclosures.
///
/// # Examples
///
/// ```
/// use cocktail_math::BoxRegion;
///
/// let x0 = BoxRegion::cube(2, -0.2, 0.2);
/// assert!(x0.contains(&[0.1, -0.1]));
/// assert!(!x0.contains(&[0.3, 0.0]));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoxRegion {
    dims: Vec<Interval>,
}

impl BoxRegion {
    /// Creates a box from per-dimension intervals.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty.
    pub fn new(dims: Vec<Interval>) -> Self {
        assert!(!dims.is_empty(), "box needs at least one dimension");
        Self { dims }
    }

    /// Creates the hyper-cube `[lo, hi]^n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `lo > hi`.
    pub fn cube(n: usize, lo: f64, hi: f64) -> Self {
        assert!(n > 0, "box needs at least one dimension");
        Self::new(vec![Interval::new(lo, hi); n])
    }

    /// Creates a box from parallel lower/upper bound slices.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length, are empty, or any pair is
    /// inverted.
    pub fn from_bounds(lo: &[f64], hi: &[f64]) -> Self {
        assert_eq!(lo.len(), hi.len(), "bound length mismatch");
        Self::new(
            lo.iter()
                .zip(hi)
                .map(|(&l, &h)| Interval::new(l, h))
                .collect(),
        )
    }

    /// Number of dimensions.
    pub fn dim(&self) -> usize {
        self.dims.len()
    }

    /// Per-dimension intervals.
    pub fn intervals(&self) -> &[Interval] {
        &self.dims
    }

    /// Interval of dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn interval(&self, i: usize) -> Interval {
        self.dims[i]
    }

    /// Lower-bound corner.
    pub fn lower(&self) -> Vec<f64> {
        self.dims.iter().map(|d| d.lo()).collect()
    }

    /// Upper-bound corner.
    pub fn upper(&self) -> Vec<f64> {
        self.dims.iter().map(|d| d.hi()).collect()
    }

    /// Center point.
    pub fn center(&self) -> Vec<f64> {
        self.dims.iter().map(|d| d.mid()).collect()
    }

    /// Whether the point lies inside (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `p.len() != self.dim()`.
    pub fn contains(&self, p: &[f64]) -> bool {
        assert_eq!(p.len(), self.dim(), "point dimension mismatch");
        self.dims.iter().zip(p).all(|(d, &v)| d.contains(v))
    }

    /// Whether `other` is entirely inside `self`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn contains_box(&self, other: &BoxRegion) -> bool {
        assert_eq!(self.dim(), other.dim(), "box dimension mismatch");
        self.dims
            .iter()
            .zip(&other.dims)
            .all(|(a, b)| a.contains_interval(b))
    }

    /// Intersection, or `None` when disjoint in any dimension.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn intersect(&self, other: &BoxRegion) -> Option<BoxRegion> {
        assert_eq!(self.dim(), other.dim(), "box dimension mismatch");
        let dims: Option<Vec<_>> = self
            .dims
            .iter()
            .zip(&other.dims)
            .map(|(a, b)| a.intersect(b))
            .collect();
        dims.map(BoxRegion::new)
    }

    /// Smallest box containing both operands.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn hull(&self, other: &BoxRegion) -> BoxRegion {
        assert_eq!(self.dim(), other.dim(), "box dimension mismatch");
        BoxRegion::new(
            self.dims
                .iter()
                .zip(&other.dims)
                .map(|(a, b)| a.hull(b))
                .collect(),
        )
    }

    /// Widest dimension's width.
    pub fn max_width(&self) -> f64 {
        self.dims.iter().map(|d| d.width()).fold(0.0, f64::max)
    }

    /// Product of all widths.
    pub fn volume(&self) -> f64 {
        self.dims.iter().map(|d| d.width()).product()
    }

    /// Splits the box in half along its widest dimension.
    #[allow(
        clippy::expect_used,
        reason = "a BoxRegion always has at least one dimension"
    )]
    pub fn bisect(&self) -> (BoxRegion, BoxRegion) {
        let (axis, _) = self
            .dims
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.width().total_cmp(&b.1.width()))
            .expect("non-empty box");
        self.split_at(axis)
    }

    /// Splits the box in half along `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of bounds.
    pub fn split_at(&self, axis: usize) -> (BoxRegion, BoxRegion) {
        assert!(axis < self.dim(), "split axis out of bounds");
        let d = self.dims[axis];
        let mid = d.mid();
        let mut left = self.clone();
        let mut right = self.clone();
        left.dims[axis] = Interval::new(d.lo(), mid);
        right.dims[axis] = Interval::new(mid, d.hi());
        (left, right)
    }

    /// Subdivides into `k^n` sub-boxes (`k` cells per dimension), returned
    /// in lexicographic cell order (dimension 0 fastest): the products of
    /// [`Interval::subdivide`] of every dimension.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn subdivide(&self, k: usize) -> Vec<BoxRegion> {
        let axes: Vec<Vec<Interval>> = self.dims.iter().map(|d| d.subdivide(k)).collect();
        let n = self.dim();
        let mut cells = Vec::with_capacity(k.pow(n as u32));
        let mut idx = vec![0usize; n];
        loop {
            cells.push(BoxRegion::new(
                idx.iter().zip(&axes).map(|(&i, axis)| axis[i]).collect(),
            ));
            // increment mixed-radix counter
            let mut i = 0;
            loop {
                if i == n {
                    return cells;
                }
                idx[i] += 1;
                if idx[i] < k {
                    break;
                }
                idx[i] = 0;
                i += 1;
            }
        }
    }

    /// Widens every dimension outward by `eps`.
    ///
    /// # Panics
    ///
    /// Panics if `eps < 0`.
    pub fn inflate(&self, eps: f64) -> BoxRegion {
        BoxRegion::new(self.dims.iter().map(|d| d.inflate(eps)).collect())
    }

    /// Maps the unit-cube coordinate `t ∈ \[0,1\]^n` affinely into the box.
    ///
    /// # Panics
    ///
    /// Panics if `t.len() != self.dim()`.
    pub fn lerp(&self, t: &[f64]) -> Vec<f64> {
        assert_eq!(t.len(), self.dim(), "lerp dimension mismatch");
        self.dims
            .iter()
            .zip(t)
            .map(|(d, &ti)| d.lo() + ti * d.width())
            .collect()
    }

    /// Maps a point of the box into unit-cube coordinates. Degenerate
    /// dimensions map to `0`.
    ///
    /// # Panics
    ///
    /// Panics if `p.len() != self.dim()`.
    pub fn to_unit(&self, p: &[f64]) -> Vec<f64> {
        assert_eq!(p.len(), self.dim(), "point dimension mismatch");
        self.dims
            .iter()
            .zip(p)
            .map(|(d, &v)| {
                if d.width() > 0.0 {
                    (v - d.lo()) / d.width()
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// The `2^n` corner points of the box.
    pub fn corners(&self) -> Vec<Vec<f64>> {
        let n = self.dim();
        (0..(1usize << n))
            .map(|mask| {
                (0..n)
                    .map(|i| {
                        if mask & (1 << i) != 0 {
                            self.dims[i].hi()
                        } else {
                            self.dims[i].lo()
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

impl fmt::Display for BoxRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, " × ")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_interval_has_zero_width() {
        let p = Interval::point(2.5);
        assert_eq!(p.width(), 0.0);
        assert!(p.contains(2.5));
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_interval_panics() {
        Interval::new(1.0, 0.0);
    }

    #[test]
    fn arithmetic_soundness_samples() {
        let x = Interval::new(-1.0, 2.0);
        let y = Interval::new(0.5, 3.0);
        let sum = x + y;
        let prod = x * y;
        for &a in &[-1.0, 0.0, 1.0, 2.0] {
            for &b in &[0.5, 1.0, 3.0] {
                assert!(sum.contains(a + b));
                assert!(prod.contains(a * b));
                assert!((x - y).contains(a - b));
                assert!((x / y).contains(a / b));
            }
        }
    }

    #[test]
    fn square_is_tight_around_zero() {
        let x = Interval::new(-2.0, 1.0);
        let sq = x.square();
        assert_eq!(sq.lo(), 0.0);
        assert_eq!(sq.hi(), 4.0);
    }

    #[test]
    fn powi_odd_preserves_sign() {
        let x = Interval::new(-2.0, 1.0);
        let c = x.powi(3);
        assert_eq!(c.lo(), -8.0);
        assert_eq!(c.hi(), 1.0);
    }

    #[test]
    fn powi_even_nonneg() {
        let x = Interval::new(-3.0, 2.0);
        let c = x.powi(4);
        assert_eq!(c.lo(), 0.0);
        assert_eq!(c.hi(), 81.0);
    }

    #[test]
    fn powi_zero_is_one() {
        assert_eq!(Interval::new(-5.0, 5.0).powi(0), Interval::point(1.0));
    }

    #[test]
    fn sin_covers_extremum() {
        let x = Interval::new(1.0, 2.0); // contains π/2
        let s = x.sin();
        assert!((s.hi() - 1.0).abs() < 1e-12);
        assert!(s.contains(1.0_f64.sin()));
        assert!(s.contains(2.0_f64.sin()));
    }

    #[test]
    fn sin_of_wide_interval_is_unit() {
        let s = Interval::new(0.0, 10.0).sin();
        assert_eq!(s, Interval::new(-1.0, 1.0));
    }

    #[test]
    fn cos_covers_extremum() {
        let x = Interval::new(-0.3, 0.2);
        let c = x.cos();
        assert!((c.hi() - 1.0).abs() < 1e-12);
        assert!(c.contains(0.2_f64.cos()));
    }

    #[test]
    fn monotone_images() {
        let x = Interval::new(-1.0, 1.0);
        // contains the round-to-nearest endpoint images and is tight to a
        // handful of ulps (outward rounding widens, never translates)
        let t = x.tanh();
        assert!(t.contains((-1.0_f64).tanh()) && t.contains(1.0_f64.tanh()));
        assert!((t.lo() - (-1.0_f64).tanh()).abs() < 1e-12);
        assert!((t.hi() - 1.0_f64.tanh()).abs() < 1e-12);
        assert_eq!(x.relu(), Interval::new(0.0, 1.0));
        let s = x.sigmoid();
        assert!(s.lo() < 0.5 && s.hi() > 0.5);
    }

    #[test]
    fn transcendental_images_stay_in_codomain() {
        // outward widening must not push tanh/sin/cos outside [-1, 1] or
        // sigmoid outside [0, 1], even at saturating arguments
        let x = Interval::new(-50.0, 50.0);
        assert!(Interval::new(-1.0, 1.0).contains_interval(&x.tanh()));
        assert!(Interval::new(-1.0, 1.0).contains_interval(&x.sin()));
        assert!(Interval::new(-1.0, 1.0).contains_interval(&x.cos()));
        assert!(Interval::new(0.0, 1.0).contains_interval(&x.sigmoid()));
    }

    #[test]
    fn sigmoid_sound_at_extreme_arguments() {
        // x ≪ 0: (-x).exp() overflows to +inf and the computed quotient is
        // 0.0, below the true positive value — the upper endpoint must be
        // widened above zero while the lower endpoint stays exactly 0.0.
        let neg = Interval::new(-1e3, -999.0).sigmoid();
        assert_eq!(neg.lo(), 0.0);
        assert!(neg.hi() > 0.0, "true σ(-999) > 0 must stay inside");
        // x ≫ 0: computed 1.0, above the true value 1 - σ(-x); the lower
        // endpoint must be widened below one while the upper stays 1.0.
        let pos = Interval::new(999.0, 1e3).sigmoid();
        assert_eq!(pos.hi(), 1.0);
        assert!(pos.lo() < 1.0, "true σ(999) < 1 must stay inside");
        // points behave the same way
        let p = Interval::point(-1e3).sigmoid();
        assert!(p.lo() == 0.0 && p.hi() > 0.0);
        let q = Interval::point(1e3).sigmoid();
        assert!(q.hi() == 1.0 && q.lo() < 1.0);
    }

    #[test]
    fn transcendental_point_images_never_escape() {
        // property test: for random intervals and random interior points,
        // the round-to-nearest point image always lies inside the
        // outwardly-rounded interval image
        use rand::Rng;
        let mut rng = crate::rng::seeded(0x9e3779b97f4a7c15);
        for case in 0..20_000 {
            // mix scales: tight sub-ulp-ish intervals, unit scale, and
            // saturating scale where tanh/sigmoid flatline
            let scale = match case % 4 {
                0 => 1e-6,
                1 => 1.0,
                2 => 40.0,
                _ => 1e3,
            };
            let a = rng.gen_range(-scale..scale);
            let b = rng.gen_range(-scale..scale);
            let x = Interval::new(a.min(b), a.max(b));
            let t = rng.gen_range(0.0..=1.0);
            let p = (x.lo() + t * x.width()).clamp(x.lo(), x.hi());
            assert!(x.tanh().contains(p.tanh()), "tanh escape at {p}");
            assert!(x.sin().contains(p.sin()), "sin escape at {p}");
            assert!(x.cos().contains(p.cos()), "cos escape at {p}");
            let sig = 1.0 / (1.0 + (-p).exp());
            assert!(x.sigmoid().contains(sig), "sigmoid escape at {p}");
            // endpoints themselves must also be covered
            for e in [x.lo(), x.hi()] {
                assert!(x.tanh().contains(e.tanh()));
                assert!(x.sin().contains(e.sin()));
                assert!(x.cos().contains(e.cos()));
                assert!(x.sigmoid().contains(1.0 / (1.0 + (-e).exp())));
            }
        }
    }

    #[test]
    fn intersect_and_hull() {
        let a = Interval::new(0.0, 2.0);
        let b = Interval::new(1.0, 3.0);
        assert_eq!(a.intersect(&b), Some(Interval::new(1.0, 2.0)));
        assert_eq!(a.hull(&b), Interval::new(0.0, 3.0));
        assert_eq!(a.intersect(&Interval::new(5.0, 6.0)), None);
    }

    #[test]
    fn clamp_to_window() {
        let x = Interval::new(-30.0, 5.0);
        assert_eq!(x.clamp_to(-20.0, 20.0), Interval::new(-20.0, 5.0));
    }

    #[test]
    fn box_contains_and_volume() {
        let b = BoxRegion::cube(2, -2.0, 2.0);
        assert!(b.contains(&[0.0, 0.0]));
        assert!(!b.contains(&[0.0, 2.1]));
        assert_eq!(b.volume(), 16.0);
    }

    #[test]
    fn box_bisect_covers_parent() {
        let b = BoxRegion::from_bounds(&[0.0, 0.0], &[4.0, 1.0]);
        let (l, r) = b.bisect();
        assert_eq!(l.interval(0).hi(), 2.0);
        assert_eq!(r.interval(0).lo(), 2.0);
        assert!(b.contains_box(&l) && b.contains_box(&r));
    }

    #[test]
    fn box_subdivide_counts_and_tiles() {
        let b = BoxRegion::cube(2, 0.0, 1.0);
        let cells = b.subdivide(3);
        assert_eq!(cells.len(), 9);
        let total: f64 = cells.iter().map(BoxRegion::volume).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(cells.iter().all(|c| b.contains_box(c)));
    }

    #[test]
    fn box_lerp_roundtrip() {
        let b = BoxRegion::from_bounds(&[-1.0, 2.0], &[1.0, 6.0]);
        let p = b.lerp(&[0.25, 0.5]);
        assert_eq!(p, vec![-0.5, 4.0]);
        assert_eq!(b.to_unit(&p), vec![0.25, 0.5]);
    }

    #[test]
    fn box_corners_count() {
        let b = BoxRegion::cube(3, 0.0, 1.0);
        let corners = b.corners();
        assert_eq!(corners.len(), 8);
        assert!(corners.contains(&vec![0.0, 0.0, 0.0]));
        assert!(corners.contains(&vec![1.0, 1.0, 1.0]));
    }

    #[test]
    fn box_intersection_disjoint_is_none() {
        let a = BoxRegion::cube(2, 0.0, 1.0);
        let b = BoxRegion::cube(2, 2.0, 3.0);
        assert!(a.intersect(&b).is_none());
    }

    #[test]
    fn inflate_grows_symmetrically() {
        let b = BoxRegion::cube(2, -1.0, 1.0).inflate(0.5);
        assert_eq!(b.interval(0), Interval::new(-1.5, 1.5));
    }
}
