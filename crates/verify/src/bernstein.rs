//! Bernstein-polynomial over-approximation of neural controllers.
//!
//! Following `ReachNN` \[21\] and the paper's Section III-C, a network
//! `κ: X → R` is replaced by `B_d(x) ± ε` where `B_d` is the degree-`d`
//! tensor-product Bernstein approximant and `ε` a *rigorous* error bound.
//! The classical modulus-of-continuity estimate gives, per dimension of
//! width `wᵢ` and network Lipschitz constant `L` (2-norm, which dominates
//! every coordinate direction):
//!
//! ```text
//! ‖B_d κ − κ‖_∞  ≤  (3/2) · L · Σᵢ wᵢ / √d
//! ```
//!
//! so the error shrinks with the partition width — and *grows with `L`*,
//! which is exactly the mechanism that makes low-Lipschitz students cheap
//! to verify (Table I, Figs. 3–4). When a piece's bound exceeds the
//! tolerance it is bisected; the total piece budget is capped and a
//! high-`L` network exhausts it ([`VerifyError::ResourceExhausted`]).
//!
//! Certification runs on every bundle admission, so its cost is paid at
//! every set-up. These structures keep it cheap without changing a bit of
//! the result:
//!
//! * each refinement region runs the network in **one batched forward
//!   pass** through [`Mlp::forward_batch_cached`], one [`BatchCache`] per
//!   worker, whose rows are bit-identical to [`Mlp::forward`] and so a
//!   pure function of the row's input bits;
//! * **halves inherit their parent's network values**: a half differs from
//!   the region it was bisected from only on the split axis, so every grid
//!   point whose coordinates are, bit for bit (`to_bits()`), coordinates of
//!   the parent's grid copies the parent's value, and only the rest is run
//!   through the network. Matching is by bits, never by position, so odd
//!   degrees and non-dyadic domains simply match fewer points;
//! * **the error floor decides splits early**: a region's sampled bound is
//!   never below its [`sample_margin`] `fl(L·r)`, so when that margin and
//!   the [`rigorous_error_bound`] both exceed the tolerance the region is
//!   bisected without building approximants or sampling its error — it only
//!   evaluates the coefficient grid its halves inherit;
//! * the error estimate evaluates the approximant at **every sample at
//!   once**: the basis row of each sample coordinate is computed once per
//!   region, and each sample is a lane of one loop over the coefficients
//!   that runs [`BernsteinApprox::eval`]'s multiplications and sum in
//!   `eval`'s order, in buffers reused from region to region;
//! * the refinement's **bisection tree** is kept as the piece index, so
//!   [`ControlEnclosure::enclose`] descends only the subtrees overlapping
//!   the query box instead of scanning every piece, and encloses each
//!   piece in scratch shared by the whole query;
//! * an enclosure is **per-axis tables, then one combination**: the basis
//!   intervals over the box's interval on each axis and the basis row at
//!   its midpoint, then the coefficient range, the interval basis sum and
//!   the mean-value bound from them. [`ControlEnclosure::enclose_grid`]
//!   computes each piece's tables once per cell interval of each axis and
//!   combines them for every cell of the product, so a whole invariant
//!   grid is enclosed with the arithmetic of one `enclose` per cell.
//!
//! What refinement costs is set by the sampled error margin
//! ([`ErrorMargin`]). The first-order margin `(L + L_B)·r` shrinks with the
//! piece width. The residual margin bounds the slope of `f − B` on the
//! piece instead, from the network's interval Jacobian and the range of
//! `∇B`, so it shrinks with the square of the width and accepts pieces
//! far sooner.

use crate::enclosure::{enclose_each_cell, ControlEnclosure};
use crate::error::VerifyError;
use crate::jacobian::{interval_jacobian, JacobianScratch};
use cocktail_math::{BoxRegion, Interval, Matrix};
use cocktail_nn::{BatchCache, Mlp};
use serde::{Deserialize, Serialize};

/// Binomial coefficient `C(n, k)` as `f64` (degrees here are ≤ ~10).
fn binomial(n: usize, k: usize) -> f64 {
    let k = k.min(n - k);
    let mut num = 1.0;
    let mut den = 1.0;
    for i in 0..k {
        num *= (n - i) as f64;
        den *= (i + 1) as f64;
    }
    num / den
}

/// The Bernstein basis row `B_{k,d}(t) = C(d,k)·tᵏ·(1−t)^(d−k)`,
/// `k = 0..=d`, at one unit coordinate `t`, written into `row` (`d + 1`
/// entries).
fn basis_row_into(d: usize, t: f64, row: &mut [f64]) {
    for (k, b) in row.iter_mut().enumerate() {
        *b = binomial(d, k) * t.powi(k as i32) * (1.0 - t).powi((d - k) as i32);
    }
}

/// The unit coordinate of `v` in `iv`: [`BoxRegion::to_unit`]'s expression
/// for one dimension, so a degenerate dimension maps to `0`.
fn unit(iv: Interval, v: f64) -> f64 {
    if iv.width() > 0.0 {
        (v - iv.lo()) / iv.width()
    } else {
        0.0
    }
}

/// The coefficient sum of [`BernsteinApprox::eval`] for several points
/// ("lanes") at once.
///
/// `basis` holds, for dimension `i` and basis index `k`, the lanes' values
/// of `B_i[k]` at `basis[(i·pts + k)·lanes..][..lanes]`, with
/// `lanes = acc.len()`. Each term is `c · B₀[k₀] · B₁[k₁] · …`, multiplied
/// left to right and summed into `acc` in coefficient order (dimension 0
/// fastest), so every lane runs exactly the arithmetic of a single-point
/// evaluation. `idx` and `w` are working memory.
fn sum_lanes(
    coeffs: &[f64],
    pts: usize,
    basis: &[f64],
    idx: &mut Vec<usize>,
    w: &mut [f64],
    acc: &mut [f64],
) {
    let lanes = acc.len();
    let dims = basis.len() / (pts * lanes);
    let row = |i: usize, k: usize| &basis[(i * pts + k) * lanes..][..lanes];
    acc.fill(0.0);
    // the basis index of every dimension but the first
    idx.clear();
    idx.resize(dims - 1, 0);
    for run in coeffs.chunks_exact(pts) {
        for (k, &c) in run.iter().enumerate() {
            for (w, &b) in w.iter_mut().zip(row(0, k)) {
                *w = c * b;
            }
            for (i, &k) in idx.iter().enumerate() {
                for (w, &b) in w.iter_mut().zip(row(i + 1, k)) {
                    *w *= b;
                }
            }
            for (a, &w) in acc.iter_mut().zip(w.iter()) {
                *a += w;
            }
        }
        advance(idx, pts);
    }
}

/// Advances a mixed-radix index of `pts` values per digit, dimension 0
/// fastest, wrapping to all zeros after the last index.
fn advance(idx: &mut [usize], pts: usize) {
    for item in idx.iter_mut() {
        *item += 1;
        if *item < pts {
            return;
        }
        *item = 0;
    }
}

/// A single-output Bernstein approximant over a box.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BernsteinApprox {
    domain: BoxRegion,
    degree: usize,
    /// Coefficients on the `(degree+1)^n` tensor grid, lexicographic in the
    /// per-dimension index (dimension 0 fastest).
    coeffs: Vec<f64>,
    /// [`bernstein_lipschitz`] of the coefficients, computed once: every
    /// [`Self::enclose`] needs it.
    lipschitz: f64,
}

impl BernsteinApprox {
    /// Builds the degree-`degree` approximant of `f` over `domain` by
    /// sampling `f` on the uniform `(degree+1)^n` grid.
    ///
    /// # Panics
    ///
    /// Panics if `degree == 0`.
    pub fn build(f: &dyn Fn(&[f64]) -> f64, domain: &BoxRegion, degree: usize) -> Self {
        assert!(degree > 0, "degree must be positive");
        let grid = grid_points(&grid_coords(domain, degree));
        let coeffs = (0..grid.rows()).map(|r| f(grid.row(r))).collect();
        Self::from_coeffs(domain.clone(), degree, coeffs)
    }

    fn from_coeffs(domain: BoxRegion, degree: usize, coeffs: Vec<f64>) -> Self {
        let lipschitz = bernstein_lipschitz(&domain, degree, &coeffs);
        Self {
            domain,
            degree,
            coeffs,
            lipschitz,
        }
    }

    /// The approximation domain.
    pub fn domain(&self) -> &BoxRegion {
        &self.domain
    }

    /// The polynomial degree per dimension.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Evaluates the approximant at a point of the domain.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != domain.dim()`.
    pub fn eval(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.domain.dim(), "point dimension mismatch");
        let pts = self.degree + 1;
        let mut rows = vec![0.0; x.len() * pts];
        for ((row, &iv), &v) in rows
            .chunks_exact_mut(pts)
            .zip(self.domain.intervals())
            .zip(x)
        {
            basis_row_into(self.degree, unit(iv, v), row);
        }
        let mut acc = [0.0];
        sum_lanes(
            &self.coeffs,
            pts,
            &rows,
            &mut Vec::new(),
            &mut [0.0],
            &mut acc,
        );
        acc[0]
    }

    /// The convex-hull enclosure over the *whole* domain: a Bernstein-form
    /// polynomial lies within the range of its coefficients.
    pub fn coefficient_range(&self) -> Interval {
        let lo = self.coeffs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = self
            .coeffs
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        Interval::new(lo, hi)
    }

    /// An upper bound on this approximant's own 2-norm Lipschitz constant,
    /// from the first differences of the coefficient tensor.
    pub fn lipschitz_bound(&self) -> f64 {
        self.lipschitz
    }

    /// Sound enclosure of the approximant over a sub-box `q ⊆ domain`.
    ///
    /// Three sound bounds are intersected: the convex-hull property of the
    /// Bernstein form (the basis is a partition of unity, so the value lies
    /// in the coefficient range over *any* sub-box), interval evaluation
    /// of the basis products, and the mean-value bound
    /// `B(mid(q)) ± L_B · radius₂(q)` (the tightest for small sub-boxes).
    ///
    /// # Panics
    ///
    /// Panics if `q.dim() != domain.dim()`.
    pub fn enclose(&self, q: &BoxRegion) -> Interval {
        assert_eq!(q.dim(), self.domain.dim(), "sub-box dimension mismatch");
        let mut tables = AxisTables::default();
        for (axis, &qi) in q.intervals().iter().enumerate() {
            self.axis_tables(axis, qi, &mut tables);
        }
        let rows: Vec<usize> = (0..q.dim()).collect();
        self.combine(&tables, &rows, self.coefficient_range(), &mut Vec::new())
    }

    /// Appends to `tables` what [`Self::enclose`] needs of the sub-box's
    /// interval `q` on `axis`: the basis intervals over its unit
    /// coordinates, clamped to `[0, 1]`, the basis row at its midpoint, and
    /// its squared radius. These depend on nothing but the axis, so
    /// sub-boxes sharing an interval on an axis can share them.
    fn axis_tables(&self, axis: usize, q: Interval, tables: &mut AxisTables) {
        let d = self.degree;
        let dom = self.domain.interval(axis);
        let (lo, hi) = (
            unit(dom, q.lo()).clamp(0.0, 1.0),
            unit(dom, q.hi()).clamp(0.0, 1.0),
        );
        let t = Interval::new(lo.min(hi), hi.max(lo));
        let one = Interval::point(1.0);
        for k in 0..=d {
            let b =
                Interval::point(binomial(d, k)) * t.powi(k as u32) * (one - t).powi((d - k) as u32);
            tables.signed |= !(b.lo().is_sign_positive() && b.hi().is_sign_positive());
            tables.basis.push([b.lo(), b.hi()]);
        }
        let start = tables.mid_rows.len();
        tables.mid_rows.resize(start + d + 1, 0.0);
        basis_row_into(d, unit(dom, q.mid()), &mut tables.mid_rows[start..]);
        tables.radius_sq.push(q.radius() * q.radius());
    }

    /// [`Self::enclose`] from [`Self::axis_tables`]: `rows[i]` is the row of
    /// `tables` that holds axis `i`'s factors, and `range` the
    /// [`Self::coefficient_range`]. The range is intersected with the
    /// interval basis sum, then with the mean-value bound around the
    /// midpoint. Both sums walk the coefficients a run of axis 0 at a time,
    /// as [`sum_lanes`] does: each term is `c · B₀[k₀] · B₁[k₁] · …`,
    /// multiplied left to right and added in coefficient order, over the
    /// basis intervals for the first sum and over the midpoint's basis
    /// values for the second, which is [`sum_lanes`]'s arithmetic for one
    /// lane. The interval sum takes the sign split
    /// ([`Self::sign_split_sums`]) unless a table entry is negative or the
    /// split's sums are not finite; then it is recomputed with
    /// [`Interval`] products, which panic where they always did. `idx` is
    /// working memory.
    fn combine(
        &self,
        tables: &AxisTables,
        rows: &[usize],
        range: Interval,
        idx: &mut Vec<usize>,
    ) -> Interval {
        let sums = if tables.signed {
            None
        } else {
            self.sign_split_sums(tables, rows, idx)
        };
        let (by_basis, centre) = sums.unwrap_or_else(|| self.interval_sums(tables, rows, idx));
        let mut bound = range;
        if let Some(tighter) = bound.intersect(&by_basis) {
            bound = tighter;
        }

        // the mean-value bound around the midpoint
        let radius = rows
            .iter()
            .map(|&row| tables.radius_sq[row])
            .sum::<f64>()
            .sqrt();
        let mean_value =
            Interval::symmetric(self.lipschitz_bound() * radius) + Interval::point(centre);
        bound.intersect(&mean_value).unwrap_or(bound)
    }

    /// [`Self::combine`]'s two sums on raw `(lo, hi)` pairs, for tables
    /// whose basis intervals are all non-negative (as every basis interval
    /// over a sub-box of `[0, 1]` is): the interval basis sum and the
    /// midpoint value.
    ///
    /// A term `c · B₀ · B₁ · …` whose factors are all `≥ +0` keeps the sign
    /// of `c` at every step, so the ends of each product are those of
    /// `[c, c]` times the factors' lower ends and times their upper ends,
    /// swapped when `c < 0`. Rounding is monotone, so these are exactly the
    /// least and greatest of the four products [`Interval`]'s `*` compares,
    /// signed zeros included: every zero among them has the sign of `c`.
    /// That holds while every product is finite; a NaN or an infinity
    /// anywhere reaches a sum, so `None` when either sum is not finite,
    /// and the caller recomputes with [`Interval`] products.
    fn sign_split_sums(
        &self,
        tables: &AxisTables,
        rows: &[usize],
        idx: &mut Vec<usize>,
    ) -> Option<(Interval, f64)> {
        let pts = self.degree + 1;
        let basis = |row: usize| &tables.basis[row * pts..][..pts];
        let mid = |row: usize| &tables.mid_rows[row * pts..][..pts];
        let (b0, m0) = (basis(rows[0]), mid(rows[0]));
        let (mut lo, mut hi, mut centre) = (0.0, 0.0, 0.0);
        // the basis index of every axis but the first
        idx.clear();
        idx.resize(rows.len() - 1, 0);
        for run in self.coeffs.chunks_exact(pts) {
            for ((&c, a), &ma) in run.iter().zip(b0).zip(m0) {
                let s = usize::from(c < 0.0);
                let (mut l, mut h, mut m) = (c * a[s], c * a[1 - s], c * ma);
                for (&row, &k) in rows[1..].iter().zip(idx.iter()) {
                    let b = tables.basis[row * pts + k];
                    l *= b[s];
                    h *= b[1 - s];
                    m *= tables.mid_rows[row * pts + k];
                }
                lo += l;
                hi += h;
                centre += m;
            }
            advance(idx, pts);
        }
        (lo.is_finite() && hi.is_finite()).then(|| (Interval::new(lo, hi), centre))
    }

    /// [`Self::combine`]'s two sums with [`Interval`] products: the path
    /// for a negative table entry or a non-finite sum.
    fn interval_sums(
        &self,
        tables: &AxisTables,
        rows: &[usize],
        idx: &mut Vec<usize>,
    ) -> (Interval, f64) {
        let pts = self.degree + 1;
        let basis = |axis: usize, k: usize| {
            let [lo, hi] = tables.basis[rows[axis] * pts + k];
            Interval::new(lo, hi)
        };
        let mid = |axis: usize, k: usize| tables.mid_rows[rows[axis] * pts + k];
        let mut by_basis = Interval::point(0.0);
        let mut centre = 0.0;
        // the basis index of every axis but the first
        idx.clear();
        idx.resize(rows.len() - 1, 0);
        for run in self.coeffs.chunks_exact(pts) {
            for (k0, &c) in run.iter().enumerate() {
                let mut w = Interval::point(c) * basis(0, k0);
                let mut at_mid = c * mid(0, k0);
                for (i, &k) in idx.iter().enumerate() {
                    w = w * basis(i + 1, k);
                    at_mid *= mid(i + 1, k);
                }
                by_basis = by_basis + w;
                centre += at_mid;
            }
            advance(idx, pts);
        }
        (by_basis, centre)
    }

    /// [`Self::combine`] as it was before it walked runs: one mixed-radix
    /// step per coefficient, [`Interval`] products, and the coefficient
    /// range recomputed on every call, over tables holding one row per
    /// axis in axis order. The rewrite must match it bit for bit.
    #[cfg(test)]
    fn combine_reference(&self, tables: &AxisTables, idx: &mut Vec<usize>) -> Interval {
        let pts = self.degree + 1;
        let mut bound = self.coefficient_range();
        let mut by_basis = Interval::point(0.0);
        idx.clear();
        idx.resize(self.domain.dim(), 0);
        for &c in &self.coeffs {
            let mut w = Interval::point(c);
            for (i, &k) in idx.iter().enumerate() {
                let [lo, hi] = tables.basis[i * pts + k];
                w = w * Interval::new(lo, hi);
            }
            by_basis = by_basis + w;
            advance(idx, pts);
        }
        if let Some(tighter) = bound.intersect(&by_basis) {
            bound = tighter;
        }
        let radius = tables.radius_sq.iter().copied().sum::<f64>().sqrt();
        let mut centre = [0.0];
        sum_lanes(
            &self.coeffs,
            pts,
            &tables.mid_rows,
            idx,
            &mut [0.0],
            &mut centre,
        );
        let mean_value =
            Interval::symmetric(self.lipschitz_bound() * radius) + Interval::point(centre[0]);
        bound.intersect(&mean_value).unwrap_or(bound)
    }
}

/// The per-axis factors of [`BernsteinApprox::enclose`] (see
/// [`BernsteinApprox::axis_tables`]), one row per axis interval: `degree +
/// 1` basis intervals as `[lo, hi]` and midpoint basis values, and one
/// squared radius, per row.
#[derive(Default)]
struct AxisTables {
    basis: Vec<[f64; 2]>,
    mid_rows: Vec<f64>,
    radius_sq: Vec<f64>,
    /// Whether an end of some basis interval has its sign bit set, so
    /// [`BernsteinApprox::combine`] cannot take the sign split.
    signed: bool,
}

impl AxisTables {
    fn clear(&mut self) {
        self.basis.clear();
        self.mid_rows.clear();
        self.radius_sq.clear();
        self.signed = false;
    }
}

/// Classical rigorous Bernstein error bound for a Lipschitz-`l` function
/// over a box: `(3/2)·l·Σᵢwᵢ/√d`. Used as a cheap acceptance test; the
/// certificate falls back to the (still sound, much tighter)
/// sampled-plus-Lipschitz-margin bound when this is too conservative.
pub fn rigorous_error_bound(lipschitz: f64, domain: &BoxRegion, degree: usize) -> f64 {
    let width_sum: f64 = domain.intervals().iter().map(Interval::width).sum();
    1.5 * lipschitz * width_sum / (degree as f64).sqrt()
}

/// Covering radius (2-norm) of the uniform grid with `samples_per_dim ≥ 2`
/// points per dimension over `domain`: every point of the box lies within
/// it of a grid point.
fn covering_radius(domain: &BoxRegion, samples_per_dim: usize) -> f64 {
    0.5 * domain
        .intervals()
        .iter()
        .map(|iv| {
            let h = iv.width() / (samples_per_dim - 1) as f64;
            h * h
        })
        .sum::<f64>()
        .sqrt()
}

/// The Lipschitz margin `L·r` of the sampled error bound over `domain`,
/// with `r` the covering radius of the error-sample grid. Under
/// [`ErrorMargin::Lipschitz`] the sampled bound of a piece is never below
/// it, whatever the fit, so only bisection removes it: the floor the static
/// analyzer predicts refinement cost from.
pub fn sample_margin(lipschitz: f64, domain: &BoxRegion, samples_per_dim: usize) -> f64 {
    lipschitz * covering_radius(domain, samples_per_dim.max(2))
}

/// An upper bound on the 2-norm Lipschitz constant of a Bernstein
/// approximant, from the first differences of its coefficient tensor:
/// `|∂B/∂tᵢ| ≤ d·max_k |c_{k+eᵢ} − c_k|` in unit coordinates.
fn bernstein_lipschitz(domain: &BoxRegion, d: usize, coeffs: &[f64]) -> f64 {
    let pts = d + 1;
    let mut acc = 0.0;
    for i in 0..domain.dim() {
        let stride: usize = pts.pow(i as u32);
        let mut max_diff: f64 = 0.0;
        for (idx, &c) in coeffs.iter().enumerate() {
            // index along dimension i
            let k = (idx / stride) % pts;
            if k + 1 < pts {
                max_diff = max_diff.max((coeffs[idx + stride] - c).abs());
            }
        }
        let w = domain.interval(i).width();
        if w > 0.0 {
            let l_i = d as f64 * max_diff / w;
            acc += l_i * l_i;
        }
    }
    acc.sqrt()
}

/// An upper bound on `sup_P ‖∇(s·f) − ∇B‖₂` over the domain `P` of
/// `poly`, the approximant of the scaled output `s·f`, given `jacobian`,
/// an enclosure of `∇f` over `P` (one interval per input dimension).
///
/// `∇B` ranges over the derivative Bernstein coefficients: `∂B/∂xᵢ` is a
/// Bernstein polynomial with coefficients `d·(c_{k+eᵢ} − c_k)/wᵢ`, so by
/// the convex-hull property it lies between their least and greatest over
/// `P`. Both enclosures hold at every point, so each component of the
/// difference lies in their interval difference, whose magnitude is
/// summed in squares. A dimension of width 0 is skipped: no two points of
/// `P` differ in it. Every step is widened for rounding, and the result is
/// inflated by a relative `1e-9`. A NaN anywhere gives NaN.
fn residual_lipschitz(jacobian: &[[f64; 2]], scale: f64, poly: &BernsteinApprox) -> f64 {
    const EPS: f64 = f64::EPSILON;
    let d = poly.degree;
    let pts = d + 1;
    let mut acc = 0.0;
    for (i, &[j_lo, j_hi]) in jacobian.iter().enumerate() {
        let w = poly.domain.interval(i).width();
        if w <= 0.0 {
            continue;
        }
        let stride: usize = pts.pow(i as u32);
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for (idx, &c) in poly.coeffs.iter().enumerate() {
            if (idx / stride) % pts + 1 < pts {
                let diff = poly.coeffs[idx + stride] - c;
                if diff.is_nan() {
                    return f64::NAN;
                }
                lo = lo.min(diff);
                hi = hi.max(diff);
            }
        }
        // three roundings: the difference, the product and the quotient
        let (b_lo, b_hi) = (d as f64 * lo / w, d as f64 * hi / w);
        let (b_lo, b_hi) = (b_lo - 4.0 * EPS * b_lo.abs(), b_hi + 4.0 * EPS * b_hi.abs());
        let (f_lo, f_hi) = if scale >= 0.0 {
            (scale * j_lo, scale * j_hi)
        } else {
            (scale * j_hi, scale * j_lo)
        };
        let (below, above) = (f_lo - b_hi, f_hi - b_lo);
        if below.is_nan() || above.is_nan() {
            return f64::NAN;
        }
        let slack = 2.0 * EPS * (f_lo.abs().max(f_hi.abs()) + b_lo.abs().max(b_hi.abs()));
        let mag = below.abs().max(above.abs()) + slack;
        acc += mag * mag;
    }
    acc.sqrt() * (1.0 + 1e-9)
}

/// The coordinates of the uniform grid with `intervals + 1` points per
/// dimension over `domain`, one list per dimension. Coordinate `k` of
/// dimension `i` is `lo + (k/intervals)·width`, the arithmetic of
/// [`BoxRegion::lerp`], so a grid point is bit-identical to
/// `domain.lerp(&[k/intervals, …])`.
fn grid_coords(domain: &BoxRegion, intervals: usize) -> Vec<Vec<f64>> {
    domain
        .intervals()
        .iter()
        .map(|iv| {
            (0..=intervals)
                .map(|k| iv.lo() + (k as f64 / intervals as f64) * iv.width())
                .collect()
        })
        .collect()
}

/// The points of the tensor grid over per-dimension `coords`, one per row,
/// lexicographic in the per-dimension index (dimension 0 fastest).
fn grid_points(coords: &[Vec<f64>]) -> Matrix {
    let n = coords.len();
    let count: usize = coords.iter().map(Vec::len).product();
    let mut data = Vec::with_capacity(count * n);
    let mut idx = vec![0usize; n];
    for _ in 0..count {
        data.extend(coords.iter().zip(&idx).map(|(c, &k)| c[k]));
        advance(&mut idx, coords[0].len());
    }
    Matrix::from_vec(count, n, data)
}

/// A region's coefficient grid: its per-dimension coordinates
/// ([`grid_coords`]) and the network's outputs at its points, one row per
/// point in [`grid_points`] order. A bisected region hands it to both
/// halves.
struct RegionGrid {
    coords: Vec<Vec<f64>>,
    values: Matrix,
}

impl RegionGrid {
    /// The grid of `region` at `degree`. A point whose every coordinate has
    /// the same bits as a coordinate of `parent`'s grid copies the parent's
    /// row: `forward_batch` rows are a pure function of the row's input
    /// bits, so the copy is the value the network would return. The other
    /// points go through one batched forward pass. Returns the grid and the
    /// number of rows run through the network.
    fn evaluate(
        net: &Mlp,
        region: &BoxRegion,
        degree: usize,
        parent: Option<&RegionGrid>,
        scratch: &mut RefineScratch,
    ) -> (Self, usize) {
        let coords = grid_coords(region, degree);
        let pts = degree + 1;
        let RefineScratch {
            forward,
            maps,
            idx,
            fresh_rows,
            fresh_points,
            ..
        } = scratch;
        // maps[i·pts + k]: the parent index of child index k of dimension
        // i at a bit-equal coordinate
        maps.clear();
        for (i, own) in coords.iter().enumerate() {
            maps.extend(own.iter().map(|x| {
                parent.and_then(|p| p.coords[i].iter().position(|y| y.to_bits() == x.to_bits()))
            }));
        }
        let count = pts.pow(coords.len() as u32);
        let mut values = Matrix::zeros(count, net.output_dim());
        fresh_rows.clear();
        fresh_points.clear();
        idx.clear();
        idx.resize(coords.len(), 0);
        for row in 0..count {
            // the parent's row at the same point, when every coordinate maps
            let from = idx
                .iter()
                .enumerate()
                .rev()
                .try_fold(0usize, |flat, (i, &k)| {
                    maps[i * pts + k].map(|j| flat * pts + j)
                });
            match parent.zip(from) {
                Some((p, from)) => values.row_mut(row).copy_from_slice(p.values.row(from)),
                None => {
                    fresh_rows.push(row);
                    fresh_points.extend(coords.iter().zip(idx.iter()).map(|(c, &k)| c[k]));
                }
            }
            advance(idx, pts);
        }
        if !fresh_rows.is_empty() {
            let fresh = forward.run(net, fresh_points);
            for (i, &row) in fresh_rows.iter().enumerate() {
                values.row_mut(row).copy_from_slice(fresh.row(i));
            }
        }
        (Self { coords, values }, fresh_rows.len())
    }
}

/// A worker's batched forward pass: [`Mlp::forward_batch_cached`] through
/// one [`BatchCache`] and input block, reused from call to call. Its rows
/// are those of [`Mlp::forward_batch`].
#[derive(Default)]
struct Forward {
    cache: BatchCache,
    input: Option<Matrix>,
}

impl Forward {
    /// The network's outputs at `points`, `net.input_dim()` coordinates per
    /// point, one row per point.
    fn run(&mut self, net: &Mlp, points: &[f64]) -> &Matrix {
        let shape = (points.len() / net.input_dim(), net.input_dim());
        let input = match &mut self.input {
            Some(input) if input.shape() == shape => input,
            slot => slot.insert(Matrix::zeros(shape.0, shape.1)),
        };
        input.as_mut_slice().copy_from_slice(points);
        net.forward_batch_cached(input, &mut self.cache);
        self.cache.output()
    }
}

/// The error-sample grid of a region as lanes of [`sum_lanes`]: the basis
/// row of every sample coordinate, computed once per region, spread over
/// the `m^n` samples (dimension 0 fastest).
#[derive(Default)]
struct SampleLanes {
    /// `rows[(i·m + j)·pts ..][..pts]`: the basis row at sample coordinate
    /// `j` of dimension `i`.
    rows: Vec<f64>,
    /// The lane vectors of [`sum_lanes`].
    basis: Vec<f64>,
    idx: Vec<usize>,
    w: Vec<f64>,
    acc: Vec<f64>,
}

impl SampleLanes {
    /// Lays out the `m`-per-dimension sample grid of `region` at `degree`.
    /// A sample coordinate is [`grid_coords`]' point and its unit
    /// coordinate `to_unit`'s, the arithmetic `eval` applies to the point.
    fn fill(&mut self, region: &BoxRegion, degree: usize, m: usize) {
        let pts = degree + 1;
        let n = region.dim();
        let lanes = m.pow(n as u32);
        self.rows.clear();
        self.rows.resize(n * m * pts, 0.0);
        for (i, &iv) in region.intervals().iter().enumerate() {
            for j in 0..m {
                let x = iv.lo() + (j as f64 / (m - 1) as f64) * iv.width();
                basis_row_into(
                    degree,
                    unit(iv, x),
                    &mut self.rows[(i * m + j) * pts..][..pts],
                );
            }
        }
        self.basis.clear();
        self.basis.resize(n * pts * lanes, 0.0);
        self.idx.clear();
        self.idx.resize(n, 0);
        for s in 0..lanes {
            for (i, &j) in self.idx.iter().enumerate() {
                let row = &self.rows[(i * m + j) * pts..][..pts];
                for (k, &b) in row.iter().enumerate() {
                    self.basis[(i * pts + k) * lanes + s] = b;
                }
            }
            advance(&mut self.idx, m);
        }
        self.w.resize(lanes, 0.0);
        self.acc.resize(lanes, 0.0);
    }

    /// The approximant with `coeffs` at every sample, in sample order.
    fn eval(&mut self, coeffs: &[f64], pts: usize) -> &[f64] {
        sum_lanes(
            coeffs,
            pts,
            &self.basis,
            &mut self.idx,
            &mut self.w,
            &mut self.acc,
        );
        &self.acc
    }
}

/// A refinement worker's working memory, reused from region to region.
/// Nothing a region leaves in it reaches another region's result.
#[derive(Default)]
struct RefineScratch {
    forward: Forward,
    lanes: SampleLanes,
    jacobian: JacobianScratch,
    maps: Vec<Option<usize>>,
    idx: Vec<usize>,
    fresh_rows: Vec<usize>,
    fresh_points: Vec<f64>,
}

/// Everything refinement needs to know about one region.
struct RegionEval {
    /// The per-output approximants of `scale ⊙ net`.
    polys: Vec<BernsteinApprox>,
    /// The region's error bound `ε`.
    epsilon: f64,
    /// The coefficient grid, for the halves if the region is bisected.
    grid: RegionGrid,
    /// Rows run through the network for this region.
    network_rows: usize,
}

/// Evaluates one region: the approximants from its coefficient grid
/// (inheriting `parent`'s values at bit-equal points, see
/// [`RegionGrid::evaluate`]) and its error bound.
///
/// The error bound is sound from a sample grid plus the Lipschitz covering
/// margin: if the grid has covering radius `r` (2-norm) then
/// `‖f − B‖_∞ ≤ max_grid |f − B| + (L_f + L_B)·r`, and the smaller of that
/// and [`rigorous_error_bound`] is kept per output. Under
/// [`ErrorMargin::Residual`] the residual margin `max_grid |f − B| +
/// L_res·r` joins the minimum, with `L_res` from [`residual_lipschitz`]
/// over the region's [`interval_jacobian`]: by the mean-value inequality on
/// the convex region, `|f − B|` moves by at most `L_res·r` between a point
/// and its nearest sample. When the sample grid is
/// the coefficient grid (`error_samples_per_dim − 1 == degree`, as in
/// [`crate::cert::default_params`]) its network values are the
/// coefficients themselves; otherwise it is batched once for all outputs.
/// The approximant runs at every sample at once, as lanes of
/// [`sum_lanes`] over basis rows computed once per region.
fn evaluate_region(
    net: &Mlp,
    scale: &[f64],
    region: &BoxRegion,
    parent: Option<&RegionGrid>,
    config: &CertificateConfig,
    lipschitz: f64,
    scratch: &mut RefineScratch,
) -> RegionEval {
    let degree = config.degree;
    let (grid, mut network_rows) = RegionGrid::evaluate(net, region, degree, parent, scratch);
    let polys: Vec<BernsteinApprox> = scale
        .iter()
        .enumerate()
        .map(|(o, &s)| {
            let coeffs = (0..grid.values.rows())
                .map(|r| grid.values[(r, o)] * s)
                .collect();
            BernsteinApprox::from_coeffs(region.clone(), degree, coeffs)
        })
        .collect();

    let m = config.error_samples_per_dim.max(2);
    let separate = (m - 1 != degree).then(|| {
        let points = grid_points(&grid_coords(region, m - 1));
        scratch.forward.run(net, points.as_slice()).clone()
    });
    if let Some(values) = &separate {
        network_rows += values.rows();
    }
    let sample_values = separate.as_ref().unwrap_or(&grid.values);
    scratch.lanes.fill(region, degree, m);
    let r = covering_radius(region, m);
    let rigorous = rigorous_error_bound(lipschitz, region, degree);
    // the network's Jacobian over the region, `None` inside when a NaN
    // arose (the residual margin then drops out of the minimum)
    let jacobian = (config.margin == ErrorMargin::Residual)
        .then(|| interval_jacobian(net, region, &mut scratch.jacobian));
    let n = region.dim();
    let mut epsilon: f64 = 0.0;
    for (o, (poly, &s)) in polys.iter().zip(scale).enumerate() {
        let fitted = scratch.lanes.eval(&poly.coeffs, degree + 1);
        let mut worst: f64 = 0.0;
        for (row, &b) in fitted.iter().enumerate() {
            worst = worst.max((sample_values[(row, o)] * s - b).abs());
        }
        let sampled = worst + (lipschitz + poly.lipschitz_bound()) * r;
        let mut bound = sampled.min(rigorous);
        if let Some(jacobian) = &jacobian {
            let slope = jacobian.map_or(f64::NAN, |jac| {
                residual_lipschitz(&jac[o * n..][..n], s, poly)
            });
            bound = bound.min(worst + slope * r);
        }
        epsilon = epsilon.max(bound);
    }
    RegionEval {
        polys,
        epsilon,
        grid,
        network_rows,
    }
}

/// Whether `region` is bisected whatever its approximants turn out to be.
///
/// Under [`ErrorMargin::Lipschitz`], every output's sampled bound
/// `worst + (L + L_B)·r` is at least `fl(L·r)`, the [`sample_margin`]:
/// `worst ≥ 0`, `L_B ≥ 0` (a NaN drops out of the `min` below) and
/// round-to-nearest is monotone. So when that margin and the
/// [`rigorous_error_bound`] both exceed the tolerance, so does
/// `ε = max_o min(sampled_o, rigorous)`, and the region is split unless it
/// is already at the width floor. Such a region needs only its coefficient
/// grid, for its halves. The residual margin has no such floor, so under
/// [`ErrorMargin::Residual`] every region is evaluated.
fn floor_decides_split(region: &BoxRegion, config: &CertificateConfig, lipschitz: f64) -> bool {
    config.margin == ErrorMargin::Lipschitz
        && sample_margin(lipschitz, region, config.error_samples_per_dim) > config.tolerance
        && rigorous_error_bound(lipschitz, region, config.degree) > config.tolerance
        && region.max_width() > 1e-6
}

/// What refinement learned about one frontier region.
enum Visit {
    /// [`floor_decides_split`]: the coefficient grid and the rows it ran.
    FloorSplit(RegionGrid, usize),
    /// A full [`evaluate_region`].
    Evaluated(RegionEval),
}

/// Which margin the sampled error bound of a piece adds to the largest
/// sampled `|f − B|`. Both are sound; each piece keeps the smallest of the
/// bounds its margin allows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorMargin {
    /// The first-order margin `(L + L_B)·r` of Sec. III-C, from the global
    /// Lipschitz bounds of the network and the approximant. Linear in the
    /// piece width.
    Lipschitz,
    /// The smaller of the first-order margin and the residual margin
    /// `L_res·r`, where `L_res` bounds the slope of `f − B` on the piece
    /// from the network's interval Jacobian and the range of `∇B`.
    /// Quadratic in the piece width.
    Residual,
}

impl ErrorMargin {
    /// Stable kebab-case label for diagnostics and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            ErrorMargin::Lipschitz => "lipschitz",
            ErrorMargin::Residual => "residual",
        }
    }
}

/// Configuration for [`BernsteinCertificate::build`].
///
/// `Deserialize` is hand-written: `margin` arrived after certificates were
/// first shipped, and a file without the key was derived under
/// [`ErrorMargin::Lipschitz`], so a missing key reads as that.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CertificateConfig {
    /// Bernstein degree per dimension.
    pub degree: usize,
    /// Target approximation error per piece.
    pub tolerance: f64,
    /// Maximum number of partition pieces before giving up — the analogue
    /// of the paper's memory blow-up for high-Lipschitz students.
    pub max_pieces: usize,
    /// Sample-grid resolution per dimension for the sound
    /// sampled-plus-margin error bound of each piece.
    pub error_samples_per_dim: usize,
    /// The margin of the sampled error bound.
    pub margin: ErrorMargin,
}

impl Default for CertificateConfig {
    fn default() -> Self {
        Self {
            degree: 4,
            tolerance: 0.5,
            max_pieces: 2048,
            error_samples_per_dim: 5,
            margin: ErrorMargin::Lipschitz,
        }
    }
}

impl Deserialize for CertificateConfig {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let serde::Value::Map(fields) = v else {
            return Err(serde::DeError::custom(format!(
                "expected map for `CertificateConfig`, got {}",
                v.kind()
            )));
        };
        fn req<T: Deserialize>(
            fields: &[(String, serde::Value)],
            name: &str,
        ) -> Result<T, serde::DeError> {
            T::from_value(
                serde::__field(fields, name)
                    .map_err(|e| serde::DeError::custom(format!("in `CertificateConfig`: {e}")))?,
            )
        }
        let margin = match fields.iter().find(|(k, _)| k == "margin") {
            Some((_, v)) => ErrorMargin::from_value(v)?,
            None => ErrorMargin::Lipschitz,
        };
        Ok(Self {
            degree: req(fields, "degree")?,
            tolerance: req(fields, "tolerance")?,
            max_pieces: req(fields, "max_pieces")?,
            error_samples_per_dim: req(fields, "error_samples_per_dim")?,
            margin,
        })
    }
}

/// Partition-refinement statistics of a certificate build: how many
/// bisections were performed, how deep the refinement went, and how many
/// points it ran through the network. `splits` and `depth` are shipped in
/// the safety certificate so admission can compare them exactly;
/// `network_rows` and `floor_splits` describe the refinement's cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RefineStats {
    /// Number of bisections performed (cells refined).
    pub splits: usize,
    /// Number of refinement levels (0 when the root piece met tolerance).
    pub depth: usize,
    /// Rows run through the network: grid points a region could not
    /// inherit from its parent, plus separate error-sample grids.
    pub network_rows: usize,
    /// Bisections the error floor decided before any approximant was
    /// built (see [`sample_margin`]); these regions sampled no error.
    pub floor_splits: usize,
}

/// A piecewise Bernstein over-approximation of a (scaled) MLP controller:
/// on every piece `P`, `κ(x) ∈ B_P(x) ± ε_P` for all `x ∈ P`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BernsteinCertificate {
    pieces: Vec<CertPiece>,
    /// The refinement's bisection tree, the piece index of
    /// [`ControlEnclosure::enclose`]: node 0 is the domain, and nodes are
    /// numbered level by level in refinement order.
    tree: Vec<TreeNode>,
    domain: BoxRegion,
    output_dim: usize,
    lipschitz: f64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CertPiece {
    region: BoxRegion,
    polys: Vec<BernsteinApprox>,
    epsilon: f64,
}

/// A node of the bisection tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum TreeNode {
    /// An accepted region: the index of its piece.
    Piece(usize),
    /// A bisected region; its two halves are nodes `halves` and
    /// `halves + 1`.
    Split { region: BoxRegion, halves: usize },
}

/// Whether two boxes of equal dimension intersect: the test of
/// [`BoxRegion::intersect`] without building the intersection.
fn overlaps(a: &BoxRegion, b: &BoxRegion) -> bool {
    a.intervals()
        .iter()
        .zip(b.intervals())
        .all(|(x, y)| x.lo().max(y.lo()) <= x.hi().min(y.hi()))
}

impl BernsteinCertificate {
    /// Builds a certificate for the scaled network `x ↦ scale ⊙ net(x)`
    /// over `domain`, refining the partition until every piece meets the
    /// tolerance.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError::ResourceExhausted`] when more than
    /// `config.max_pieces` pieces would be needed — high-Lipschitz networks
    /// hit this budget, which is the paper's `κ_D` failure mode.
    ///
    /// # Panics
    ///
    /// Panics if `scale.len() != net.output_dim()`,
    /// `domain.dim() != net.input_dim()` or `config.degree == 0`.
    pub fn build(
        net: &Mlp,
        scale: &[f64],
        domain: &BoxRegion,
        config: &CertificateConfig,
    ) -> Result<Self, VerifyError> {
        Self::build_with_workers(
            net,
            scale,
            domain,
            config,
            cocktail_math::parallel::default_workers(),
        )
        .map(|(cert, _)| cert)
    }

    /// [`Self::build`] with an explicit worker count, returning the
    /// refinement statistics alongside the certificate.
    ///
    /// Refinement is level-synchronous: every region of the current frontier
    /// is evaluated in parallel — the points of its coefficient grid that it
    /// cannot inherit bit for bit from its parent's, and its error-sample
    /// grid when that is a different point set, each through one batched
    /// forward pass — then accepted or bisected in index order, a bisected
    /// region handing its grid values to both halves. A region whose error
    /// floor already forces the split ([`sample_margin`] and
    /// [`rigorous_error_bound`] both above the tolerance) evaluates only its
    /// coefficient grid. Each region's approximants and error bound depend
    /// only on that region, so the resulting certificate, bisection tree
    /// included, is bit-identical for every `workers >= 1`, and so are all
    /// the [`RefineStats`].
    ///
    /// # Errors
    ///
    /// See [`Self::build`].
    ///
    /// # Panics
    ///
    /// See [`Self::build`].
    pub fn build_with_workers(
        net: &Mlp,
        scale: &[f64],
        domain: &BoxRegion,
        config: &CertificateConfig,
        workers: usize,
    ) -> Result<(Self, RefineStats), VerifyError> {
        assert_eq!(scale.len(), net.output_dim(), "scale length mismatch");
        assert_eq!(domain.dim(), net.input_dim(), "domain dimension mismatch");
        assert!(config.degree > 0, "degree must be positive");
        let max_scale = scale.iter().fold(0.0_f64, |m, &s| m.max(s.abs()));
        let lipschitz = max_scale * net.lipschitz_constant();

        // each frontier region with the index of its parent in `parents`
        let mut frontier: Vec<(BoxRegion, Option<usize>)> = vec![(domain.clone(), None)];
        let mut parents: Vec<RegionGrid> = Vec::new();
        let mut pieces = Vec::new();
        let mut tree = Vec::new();
        let mut stats = RefineStats::default();
        while !frontier.is_empty() {
            if pieces.len() + frontier.len() > config.max_pieces {
                return Err(VerifyError::ResourceExhausted {
                    resource: "bernstein partitions",
                    budget: config.max_pieces,
                });
            }
            let visits = cocktail_math::parallel::map_range_with_scratch(
                frontier.len(),
                workers,
                RefineScratch::default,
                |scratch, i| {
                    let (region, parent) = &frontier[i];
                    let parent = parent.map(|p| &parents[p]);
                    if floor_decides_split(region, config, lipschitz) {
                        let (grid, rows) =
                            RegionGrid::evaluate(net, region, config.degree, parent, scratch);
                        Visit::FloorSplit(grid, rows)
                    } else {
                        Visit::Evaluated(evaluate_region(
                            net, scale, region, parent, config, lipschitz, scratch,
                        ))
                    }
                },
            );
            // the frontier is nodes tree.len().., its halves follow it
            let first_half = tree.len() + frontier.len();
            let mut next = Vec::new();
            let mut next_parents = Vec::new();
            for ((region, _), visit) in frontier.into_iter().zip(visits) {
                let (grid, fit, rows) = match visit {
                    Visit::FloorSplit(grid, rows) => (grid, None, rows),
                    Visit::Evaluated(eval) => (
                        eval.grid,
                        Some((eval.polys, eval.epsilon)),
                        eval.network_rows,
                    ),
                };
                stats.network_rows += rows;
                match fit {
                    Some((polys, epsilon))
                        if !(epsilon > config.tolerance && region.max_width() > 1e-6) =>
                    {
                        tree.push(TreeNode::Piece(pieces.len()));
                        pieces.push(CertPiece {
                            region,
                            polys,
                            epsilon,
                        });
                    }
                    fit => {
                        let (a, b) = region.bisect();
                        tree.push(TreeNode::Split {
                            region,
                            halves: first_half + next.len(),
                        });
                        let parent = Some(next_parents.len());
                        next_parents.push(grid);
                        next.push((a, parent));
                        next.push((b, parent));
                        stats.splits += 1;
                        if fit.is_none() {
                            stats.floor_splits += 1;
                        }
                    }
                }
            }
            frontier = next;
            parents = next_parents;
            if !frontier.is_empty() {
                stats.depth += 1;
            }
        }
        Ok((
            Self {
                pieces,
                tree,
                domain: domain.clone(),
                output_dim: scale.len(),
                lipschitz,
            },
            stats,
        ))
    }

    /// Number of partition pieces — the paper's verification-cost driver.
    pub fn piece_count(&self) -> usize {
        self.pieces.len()
    }

    /// The largest per-piece error bound `ε = max(ε̂_p)`.
    pub fn epsilon(&self) -> f64 {
        self.pieces.iter().map(|p| p.epsilon).fold(0.0, f64::max)
    }

    /// The Lipschitz bound of the certified network.
    pub fn lipschitz(&self) -> f64 {
        self.lipschitz
    }

    /// The certified domain.
    pub fn domain(&self) -> &BoxRegion {
        &self.domain
    }

    /// Appends to `hits` the pieces under tree node `node` that intersect
    /// `q`, descending only into subtrees whose region intersects `q`. A
    /// piece lies inside every ancestor's region, so no intersecting piece
    /// is pruned.
    fn collect_covering(&self, node: usize, q: &BoxRegion, hits: &mut Vec<usize>) {
        match &self.tree[node] {
            TreeNode::Piece(i) => {
                if overlaps(&self.pieces[*i].region, q) {
                    hits.push(*i);
                }
            }
            TreeNode::Split { region, halves } => {
                if overlaps(region, q) {
                    self.collect_covering(*halves, q, hits);
                    self.collect_covering(halves + 1, q, hits);
                }
            }
        }
    }

    /// Evaluates the certified approximation at a point (mid-value, no
    /// error term) — diagnostics only.
    ///
    /// # Panics
    ///
    /// Panics if `x` lies outside the certified domain.
    #[allow(
        clippy::expect_used,
        reason = "the out-of-domain panic is documented above"
    )]
    pub fn eval(&self, x: &[f64]) -> Vec<f64> {
        let piece = self
            .pieces
            .iter()
            .find(|p| p.region.contains(x))
            .expect("point outside certified domain");
        piece.polys.iter().map(|p| p.eval(x)).collect()
    }
}

impl ControlEnclosure for BernsteinCertificate {
    fn state_dim(&self) -> usize {
        self.domain.dim()
    }

    fn control_dim(&self) -> usize {
        self.output_dim
    }

    /// The hull, per output, of `B_P(q ∩ P) ± ε_P` over the pieces `P`
    /// intersecting `q`. The bisection tree finds those pieces; they are
    /// folded in piece order, so the hull is bit-identical to a scan over
    /// every piece. One set of tables serves every piece of the query.
    #[allow(
        clippy::expect_used,
        reason = "only intersecting pieces are collected, and the partition covers the domain"
    )]
    fn enclose(&self, q: &BoxRegion) -> Vec<Interval> {
        assert_eq!(q.dim(), self.domain.dim(), "box dimension mismatch");
        let mut hits = Vec::new();
        self.collect_covering(0, q, &mut hits);
        hits.sort_unstable();
        let mut out: Vec<Option<Interval>> = vec![None; self.output_dim];
        let (mut overlap, mut tables, mut idx) = (Vec::new(), AxisTables::default(), Vec::new());
        let rows: Vec<usize> = (0..q.dim()).collect();
        for piece in hits.into_iter().map(|i| &self.pieces[i]) {
            // `BoxRegion::intersect`, axis by axis
            overlap.clear();
            overlap.extend(
                piece
                    .region
                    .intervals()
                    .iter()
                    .zip(q.intervals())
                    .map(|(a, b)| a.intersect(b).expect("collected as intersecting")),
            );
            for (o, poly) in piece.polys.iter().enumerate() {
                tables.clear();
                for (axis, &iv) in overlap.iter().enumerate() {
                    poly.axis_tables(axis, iv, &mut tables);
                }
                let iv = poly
                    .combine(&tables, &rows, poly.coefficient_range(), &mut idx)
                    .inflate(piece.epsilon);
                hull_into(&mut out[o], iv);
            }
        }
        out.into_iter()
            .map(|iv| iv.expect("query box must intersect the certified domain"))
            .collect()
    }

    /// [`Self::enclose`] of every cell, bit for bit, with each piece's axis
    /// tables computed once per axis interval instead of once per cell.
    ///
    /// Pieces are walked in order. On each axis a binary search finds the
    /// cells that `overlaps`'s closed test accepts (so a cell that only
    /// touches the piece, a zero-width overlap, is included); the tables
    /// of each (piece, axis, cell index) are computed once, and every cell
    /// of the product of those ranges combines its axes' tables and folds
    /// the result into its hull. Each cell thus sees its pieces in piece
    /// order with the arithmetic of [`Self::enclose`]. A cell's tables are
    /// rows of the piece's tables, picked by index, and the hulls live in
    /// one flat buffer, so nothing is allocated per cell. Axes whose cells
    /// are not in increasing order fall back to one `enclose` per cell.
    #[allow(
        clippy::expect_used,
        reason = "only overlapping cells are enclosed, and the partition covers the domain"
    )]
    fn enclose_grid(&self, axes: &[&[Interval]]) -> Vec<Interval> {
        assert_eq!(axes.len(), self.domain.dim(), "box dimension mismatch");
        let sorted = axes.iter().all(|cells| {
            cells
                .windows(2)
                .all(|w| w[0].lo() <= w[1].lo() && w[0].hi() <= w[1].hi())
        });
        if !sorted {
            return enclose_each_cell(self, axes);
        }
        let counts: Vec<usize> = axes.iter().map(|cells| cells.len()).collect();
        let m = self.output_dim;
        let mut out: Vec<Option<Interval>> = vec![None; counts.iter().product::<usize>() * m];
        // per axis, the first overlapped cell and how many there are
        let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(axes.len());
        let mut tables = AxisTables::default();
        let (mut idx, mut k, mut rows) = (Vec::new(), Vec::new(), Vec::new());
        for piece in &self.pieces {
            ranges.clear();
            ranges.extend(piece.region.intervals().iter().zip(axes).map(|(p, cells)| {
                // lo and hi both increase, so the cells with `hi ≥ p.lo`
                // are a suffix and those with `lo ≤ p.hi` a prefix
                let first = cells.partition_point(|c| c.hi() < p.lo());
                let end = cells.partition_point(|c| c.lo() <= p.hi());
                (first, end.saturating_sub(first))
            }));
            if ranges.iter().any(|&(_, len)| len == 0) {
                continue;
            }
            for (o, poly) in piece.polys.iter().enumerate() {
                let range = poly.coefficient_range();
                tables.clear();
                for (axis, (cells, &(first, len))) in axes.iter().zip(&ranges).enumerate() {
                    let p = piece.region.interval(axis);
                    for c in &cells[first..first + len] {
                        let overlap = p.intersect(c).expect("found as overlapping");
                        poly.axis_tables(axis, overlap, &mut tables);
                    }
                }
                // every cell of the ranges, axis 0 fastest
                k.clear();
                k.resize(axes.len(), 0);
                loop {
                    rows.clear();
                    let (mut flat, mut stride, mut row) = (0, 1, 0);
                    for ((&ki, &(first, len)), &count) in k.iter().zip(&ranges).zip(&counts) {
                        rows.push(row + ki);
                        flat += (first + ki) * stride;
                        stride *= count;
                        row += len;
                    }
                    let iv = poly
                        .combine(&tables, &rows, range, &mut idx)
                        .inflate(piece.epsilon);
                    hull_into(&mut out[flat * m + o], iv);
                    if !advance_within(&mut k, &ranges) {
                        break;
                    }
                }
            }
        }
        out.into_iter()
            .map(|iv| iv.expect("query box must intersect the certified domain"))
            .collect()
    }
}

/// Folds `iv` into the running hull `acc`.
fn hull_into(acc: &mut Option<Interval>, iv: Interval) {
    *acc = Some(match *acc {
        Some(acc) => acc.hull(&iv),
        None => iv,
    });
}

/// Advances a mixed-radix index whose digit `i` runs over `0..ranges[i].1`,
/// digit 0 fastest; `false` after the last index.
fn advance_within(k: &mut [usize], ranges: &[(usize, usize)]) -> bool {
    for (ki, &(_, len)) in k.iter_mut().zip(ranges) {
        *ki += 1;
        if *ki < len {
            return true;
        }
        *ki = 0;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocktail_nn::{Activation, MlpBuilder};

    #[test]
    fn binomial_matches_pascal() {
        assert_eq!(binomial(4, 0), 1.0);
        assert_eq!(binomial(4, 2), 6.0);
        assert_eq!(binomial(5, 3), 10.0);
    }

    #[test]
    fn approximates_linear_function_exactly() {
        // Bernstein operators reproduce affine functions exactly
        let f = |x: &[f64]| 2.0 * x[0] - x[1] + 0.5;
        let domain = BoxRegion::cube(2, -1.0, 1.0);
        let b = BernsteinApprox::build(&f, &domain, 3);
        for p in [[0.0, 0.0], [0.5, -0.5], [1.0, 1.0], [-0.3, 0.7]] {
            assert!((b.eval(&p) - f(&p)).abs() < 1e-9, "at {p:?}");
        }
    }

    #[test]
    fn approximation_error_shrinks_with_degree() {
        let f = |x: &[f64]| (3.0 * x[0]).sin();
        let domain = BoxRegion::cube(1, -1.0, 1.0);
        let errs: Vec<f64> = [2usize, 8, 32]
            .iter()
            .map(|&d| {
                let b = BernsteinApprox::build(&f, &domain, d);
                (0..100)
                    .map(|i| {
                        let x = [-1.0 + 2.0 * i as f64 / 99.0];
                        (b.eval(&x) - f(&x)).abs()
                    })
                    .fold(0.0, f64::max)
            })
            .collect();
        assert!(errs[0] > errs[1] && errs[1] > errs[2], "{errs:?}");
    }

    #[test]
    fn coefficient_range_encloses_values() {
        let f = |x: &[f64]| x[0] * x[0];
        let domain = BoxRegion::cube(1, -1.0, 1.0);
        let b = BernsteinApprox::build(&f, &domain, 5);
        let range = b.coefficient_range();
        for i in 0..50 {
            let x = [-1.0 + 2.0 * i as f64 / 49.0];
            assert!(range.inflate(1e-12).contains(b.eval(&x)));
        }
    }

    #[test]
    fn sub_box_enclosure_contains_poly_values() {
        let f = |x: &[f64]| (x[0] - 0.3) * (x[1] + 0.2);
        let domain = BoxRegion::cube(2, -1.0, 1.0);
        let b = BernsteinApprox::build(&f, &domain, 4);
        let q = BoxRegion::from_bounds(&[-0.25, 0.1], &[0.25, 0.6]);
        let iv = b.enclose(&q);
        let mut rng = cocktail_math::rng::seeded(1);
        for _ in 0..100 {
            let x = cocktail_math::rng::uniform_in_box(&mut rng, &q);
            assert!(iv.inflate(1e-9).contains(b.eval(&x)));
        }
    }

    #[test]
    fn rigorous_bound_scales_with_lipschitz() {
        let domain = BoxRegion::cube(2, -1.0, 1.0);
        let low = rigorous_error_bound(1.0, &domain, 4);
        let high = rigorous_error_bound(10.0, &domain, 4);
        assert!((high - 10.0 * low).abs() < 1e-12);
    }

    fn small_net(seed: u64) -> Mlp {
        MlpBuilder::new(2)
            .hidden(6, Activation::Tanh)
            .output(1, Activation::Tanh)
            .seed(seed)
            .build()
    }

    #[test]
    fn certificate_is_sound_on_samples() {
        let net = small_net(5);
        let domain = BoxRegion::cube(2, -1.0, 1.0);
        let cert = BernsteinCertificate::build(
            &net,
            &[5.0],
            &domain,
            &CertificateConfig {
                tolerance: 0.4,
                ..Default::default()
            },
        )
        .expect("budget suffices");
        let mut rng = cocktail_math::rng::seeded(3);
        for _ in 0..300 {
            let x = cocktail_math::rng::uniform_in_box(&mut rng, &domain);
            let truth = 5.0 * net.forward(&x)[0];
            // enclose a tiny box around x
            let q =
                BoxRegion::from_bounds(&[x[0] - 1e-6, x[1] - 1e-6], &[x[0] + 1e-6, x[1] + 1e-6])
                    .intersect(&domain)
                    .expect("inside");
            let iv = cert.enclose(&q);
            assert!(
                iv[0].inflate(1e-6).contains(truth),
                "{truth} escapes {}",
                iv[0]
            );
        }
    }

    #[test]
    fn lower_lipschitz_needs_fewer_pieces() {
        let net = small_net(6);
        let mut shrunk = net.clone();
        for l in shrunk.layers_mut() {
            l.weights_mut().scale_inplace(0.5);
        }
        let domain = BoxRegion::cube(2, -1.0, 1.0);
        let cfg = CertificateConfig {
            tolerance: 0.3,
            max_pieces: 1 << 14,
            ..Default::default()
        };
        let big = BernsteinCertificate::build(&net, &[10.0], &domain, &cfg).expect("fits");
        let small = BernsteinCertificate::build(&shrunk, &[10.0], &domain, &cfg).expect("fits");
        assert!(
            small.piece_count() <= big.piece_count(),
            "small {} vs big {}",
            small.piece_count(),
            big.piece_count()
        );
        assert!(small.lipschitz() < big.lipschitz());
    }

    #[test]
    fn worker_count_does_not_change_the_certificate() {
        let net = small_net(5);
        let domain = BoxRegion::cube(2, -1.0, 1.0);
        let cfg = CertificateConfig {
            tolerance: 0.35,
            ..Default::default()
        };
        let (reference, ref_stats) =
            BernsteinCertificate::build_with_workers(&net, &[5.0], &domain, &cfg, 1).expect("fits");
        assert!(
            reference.piece_count() > 1,
            "refinement must actually happen"
        );
        assert!(ref_stats.splits > 0);
        assert_eq!(reference.tree.len(), 2 * ref_stats.splits + 1);
        assert_eq!(ref_stats.network_rows, 25 + 20 * ref_stats.splits);
        let queries = [
            BoxRegion::cube(2, -0.3, 0.2),
            BoxRegion::from_bounds(&[0.5, -1.0], &[1.0, -0.5]),
        ];
        for workers in [2usize, 8] {
            let (cert, stats) =
                BernsteinCertificate::build_with_workers(&net, &[5.0], &domain, &cfg, workers)
                    .expect("fits");
            assert_eq!(cert, reference, "workers = {workers}");
            assert_eq!(stats, ref_stats, "workers = {workers}");
            assert_eq!(
                stats.network_rows, ref_stats.network_rows,
                "workers = {workers}"
            );
            // the piece index, and what it answers
            assert_eq!(cert.tree, reference.tree, "workers = {workers}");
            for q in &queries {
                assert_eq!(
                    bits(&cert.enclose(q)),
                    bits(&reference.enclose(q)),
                    "workers = {workers}"
                );
            }
        }
    }

    fn bits(ivs: &[Interval]) -> Vec<[u64; 2]> {
        ivs.iter()
            .map(|iv| [iv.lo().to_bits(), iv.hi().to_bits()])
            .collect()
    }

    /// The linear scan the bisection tree replaced: every piece, in order.
    fn enclose_by_scan(cert: &BernsteinCertificate, q: &BoxRegion) -> Vec<Interval> {
        let mut out: Vec<Option<Interval>> = vec![None; cert.output_dim];
        for piece in &cert.pieces {
            let Some(overlap) = piece.region.intersect(q) else {
                continue;
            };
            for (o, poly) in piece.polys.iter().enumerate() {
                let iv = poly.enclose(&overlap).inflate(piece.epsilon);
                out[o] = Some(out[o].map_or(iv, |acc| acc.hull(&iv)));
            }
        }
        out.into_iter()
            .map(|iv| iv.expect("query intersects the domain"))
            .collect()
    }

    fn two_output_net(seed: u64) -> Mlp {
        MlpBuilder::new(2)
            .hidden(6, Activation::Tanh)
            .output(2, Activation::Tanh)
            .seed(seed)
            .build()
    }

    #[test]
    fn tree_lookup_matches_a_scan_over_every_piece() {
        let net = two_output_net(9);
        let domain = BoxRegion::cube(2, -1.0, 1.0);
        let cfg = CertificateConfig {
            tolerance: 0.3,
            max_pieces: 1 << 14,
            ..Default::default()
        };
        let cert = BernsteinCertificate::build(&net, &[5.0, 3.0], &domain, &cfg).expect("fits");
        assert!(cert.piece_count() > 50, "{} pieces", cert.piece_count());

        let mut queries = Vec::new();
        // seeded random boxes, some partly outside the domain
        let mut rng = cocktail_math::rng::seeded(17);
        let centres = BoxRegion::cube(2, -1.3, 1.3);
        let radii = BoxRegion::cube(2, 0.0, 0.4);
        for _ in 0..300 {
            let c = cocktail_math::rng::uniform_in_box(&mut rng, &centres);
            let r = cocktail_math::rng::uniform_in_box(&mut rng, &radii);
            queries.push(BoxRegion::from_bounds(
                &[c[0] - r[0], c[1] - r[1]],
                &[c[0] + r[0], c[1] + r[1]],
            ));
        }
        queries.push(BoxRegion::from_bounds(&[0.5, -2.0], &[3.0, 0.25]));
        queries.push(BoxRegion::cube(2, -5.0, 5.0));
        // faces exactly on piece boundaries: the piece itself, a box
        // touching it only at its upper corner, zero-width faces, a corner
        for piece in cert.pieces.iter().step_by(7) {
            let [x, y] = [piece.region.interval(0), piece.region.interval(1)];
            queries.push(piece.region.clone());
            queries.push(BoxRegion::from_bounds(
                &[x.hi(), y.hi()],
                &[x.hi() + 0.25, y.hi() + 0.25],
            ));
            queries.push(BoxRegion::from_bounds(&[x.hi(), y.lo()], &[x.hi(), y.hi()]));
            queries.push(BoxRegion::from_bounds(&[x.lo(), y.lo()], &[x.hi(), y.lo()]));
            queries.push(BoxRegion::from_bounds(&[x.lo(), y.hi()], &[x.lo(), y.hi()]));
        }
        let mut checked = 0;
        for q in queries.iter().filter(|q| q.intersect(&domain).is_some()) {
            assert_eq!(
                bits(&cert.enclose(q)),
                bits(&enclose_by_scan(&cert, q)),
                "{q:?}"
            );
            checked += 1;
        }
        assert!(checked > 300, "only {checked} queries intersect the domain");
    }

    /// The per-point construction the batched evaluation replaced: one
    /// forward pass per coefficient and per error sample, per output, and
    /// one term-by-term evaluation of the approximant per sample.
    fn evaluate_by_points(
        net: &Mlp,
        scale: &[f64],
        region: &BoxRegion,
        config: &CertificateConfig,
        lipschitz: f64,
    ) -> (Vec<BernsteinApprox>, f64) {
        let n = region.dim();
        let m = config.error_samples_per_dim.max(2);
        let rigorous = rigorous_error_bound(lipschitz, region, config.degree);
        let mut polys = Vec::new();
        let mut epsilon: f64 = 0.0;
        for (o, &s) in scale.iter().enumerate() {
            let f = |x: &[f64]| net.forward(x)[o] * s;
            let poly = BernsteinApprox::build(&f, region, config.degree);
            let mut worst: f64 = 0.0;
            for point in 0..m.pow(n as u32) {
                let t: Vec<f64> = (0..n)
                    .map(|i| ((point / m.pow(i as u32)) % m) as f64 / (m - 1) as f64)
                    .collect();
                let x = region.lerp(&t);
                worst = worst.max((f(&x) - eval_by_terms(&poly, &x)).abs());
            }
            let r = 0.5
                * region
                    .intervals()
                    .iter()
                    .map(|iv| {
                        let h = iv.width() / (m - 1) as f64;
                        h * h
                    })
                    .sum::<f64>()
                    .sqrt();
            let sampled = worst + (lipschitz + poly.lipschitz_bound()) * r;
            epsilon = epsilon.max(sampled.min(rigorous));
            polys.push(poly);
        }
        (polys, epsilon)
    }

    #[test]
    fn batched_region_matches_per_point_evaluation() {
        let net = two_output_net(4);
        let scale = [5.0, 3.0];
        let lipschitz = 5.0 * net.lipschitz_constant();
        let region = BoxRegion::from_bounds(&[-0.75, 0.125], &[0.5, 1.0]);
        // shared grid (5 samples at degree 4), and separate grids
        for (degree, samples) in [(4, 5), (4, 7), (3, 6), (2, 2)] {
            let cfg = CertificateConfig {
                degree,
                error_samples_per_dim: samples,
                margin: ErrorMargin::Lipschitz,
                ..Default::default()
            };
            let eval = evaluate_region(
                &net,
                &scale,
                &region,
                None,
                &cfg,
                lipschitz,
                &mut RefineScratch::default(),
            );
            let (want_polys, want_eps) = evaluate_by_points(&net, &scale, &region, &cfg, lipschitz);
            assert_eq!(
                coeff_bits(&eval.polys),
                coeff_bits(&want_polys),
                "degree {degree}, {samples} samples"
            );
            assert_eq!(
                eval.epsilon.to_bits(),
                want_eps.to_bits(),
                "degree {degree}, {samples} samples"
            );
        }
    }

    /// Every coefficient and Lipschitz bound of `polys`, as IEEE-754 bits.
    fn coeff_bits(polys: &[BernsteinApprox]) -> Vec<Vec<u64>> {
        polys
            .iter()
            .map(|p| {
                p.coeffs
                    .iter()
                    .chain([&p.lipschitz])
                    .map(|c| c.to_bits())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn inherited_values_match_a_fresh_evaluation_of_every_piece() {
        let net = two_output_net(4);
        let scale = [5.0, 3.0];
        let dyadic = BoxRegion::cube(2, -1.0, 1.0);
        let skewed = BoxRegion::from_bounds(&[-0.3, -1.0 / 3.0], &[0.7, 1.0]);
        // (domain, degree, error samples, whether the network rows are
        // exact: on a dyadic box at degree 4 every half inherits 3 of its
        // 5 split-axis coordinates, so 2 × 2 × 5 rows are new per split; at
        // an odd degree or on a non-dyadic box rounding decides how many)
        let cases = [
            (&dyadic, 4, 5, true),
            (&dyadic, 3, 4, false),
            (&skewed, 4, 5, false),
            (&dyadic, 4, 6, true),
        ];
        let mut scratch = RefineScratch::default();
        for (domain, degree, samples, exact) in cases {
            let cfg = refine_config(degree, samples);
            let what = format!("{domain:?}, degree {degree}, {samples} samples");
            let (cert, stats) =
                BernsteinCertificate::build_with_workers(&net, &scale, domain, &cfg, 2)
                    .expect("fits");
            assert!(stats.splits > 20, "{what}: {} splits", stats.splits);
            for piece in &cert.pieces {
                let fresh = evaluate_region(
                    &net,
                    &scale,
                    &piece.region,
                    None,
                    &cfg,
                    cert.lipschitz,
                    &mut scratch,
                );
                assert_eq!(coeff_bits(&piece.polys), coeff_bits(&fresh.polys), "{what}");
                assert_eq!(piece.epsilon.to_bits(), fresh.epsilon.to_bits(), "{what}");
            }
            let pts = degree + 1;
            let regions = 2 * stats.splits + 1;
            // a separate error-sample grid runs in every region but the
            // floor-decided splits
            let separate = if samples - 1 == degree {
                0
            } else {
                samples * samples * (regions - stats.floor_splits)
            };
            if exact {
                // a regression that stops inheriting fails here
                assert_eq!(
                    stats.network_rows,
                    pts * pts + 20 * stats.splits + separate,
                    "{what}"
                );
            } else {
                // at least the lower half's split-axis edge is inherited
                let every_point = regions * pts * pts + separate;
                assert!(
                    stats.network_rows <= every_point - stats.splits * pts,
                    "{what}: {} rows",
                    stats.network_rows
                );
            }
        }
    }

    /// The refinement settings of the inheritance and floor tests.
    fn refine_config(degree: usize, samples: usize) -> CertificateConfig {
        CertificateConfig {
            degree,
            tolerance: 0.3,
            max_pieces: 1 << 14,
            error_samples_per_dim: samples,
            margin: ErrorMargin::Lipschitz,
        }
    }

    /// Refinement without the error floor: every region, split or not, is
    /// evaluated in full from a fresh grid, one region at a time.
    fn refine_evaluating_every_region(
        net: &Mlp,
        scale: &[f64],
        domain: &BoxRegion,
        config: &CertificateConfig,
    ) -> (BernsteinCertificate, [usize; 2]) {
        let max_scale = scale.iter().fold(0.0_f64, |m, &s| m.max(s.abs()));
        let lipschitz = max_scale * net.lipschitz_constant();
        let mut scratch = RefineScratch::default();
        let (mut pieces, mut tree) = (Vec::new(), Vec::new());
        let [mut splits, mut depth] = [0, 0];
        let mut frontier = vec![domain.clone()];
        while !frontier.is_empty() {
            let first_half = tree.len() + frontier.len();
            let mut next = Vec::new();
            for region in frontier {
                let eval =
                    evaluate_region(net, scale, &region, None, config, lipschitz, &mut scratch);
                if eval.epsilon > config.tolerance && region.max_width() > 1e-6 {
                    let (a, b) = region.bisect();
                    tree.push(TreeNode::Split {
                        region,
                        halves: first_half + next.len(),
                    });
                    next.extend([a, b]);
                    splits += 1;
                } else {
                    tree.push(TreeNode::Piece(pieces.len()));
                    pieces.push(CertPiece {
                        region,
                        polys: eval.polys,
                        epsilon: eval.epsilon,
                    });
                }
            }
            frontier = next;
            depth += usize::from(!frontier.is_empty());
        }
        let cert = BernsteinCertificate {
            pieces,
            tree,
            domain: domain.clone(),
            output_dim: scale.len(),
            lipschitz,
        };
        (cert, [splits, depth])
    }

    #[test]
    fn floor_splits_match_a_refinement_that_evaluates_every_region() {
        let dyadic = BoxRegion::cube(2, -1.0, 1.0);
        let skewed = BoxRegion::from_bounds(&[-0.3, -1.0 / 3.0], &[0.7, 1.0]);
        let one_output = (small_net(5), vec![5.0]);
        let two_outputs = (two_output_net(4), vec![5.0, 3.0]);
        // in 1-D at degree 16 with 2 samples, `L·r = L·w/2` exceeds the
        // rigorous `1.5·L·w/4`, so the floor needs both conditions: a
        // region inside the margin but within the rigorous bound is a piece
        let line = BoxRegion::cube(1, -1.0, 1.0);
        let one_input = (
            MlpBuilder::new(1)
                .hidden(6, Activation::Tanh)
                .output(1, Activation::Tanh)
                .seed(3)
                .build(),
            vec![5.0],
        );
        let cases = [
            (&one_output, &dyadic, 4, 5),
            (&one_output, &dyadic, 3, 4),
            (&one_output, &skewed, 4, 5),
            (&two_outputs, &dyadic, 4, 6),
            (&one_input, &line, 16, 2),
        ];
        for ((net, scale), domain, degree, samples) in cases {
            let cfg = refine_config(degree, samples);
            let what = format!("{domain:?}, degree {degree}, {samples} samples");
            let (cert, stats) =
                BernsteinCertificate::build_with_workers(net, scale, domain, &cfg, 2)
                    .expect("fits");
            let (want, [splits, depth]) = refine_evaluating_every_region(net, scale, domain, &cfg);
            assert!(stats.floor_splits > 0, "{what}: no floor-decided split");
            assert_eq!([stats.splits, stats.depth], [splits, depth], "{what}");
            assert_eq!(cert.tree, want.tree, "{what}");
            assert_eq!(cert.pieces.len(), want.pieces.len(), "{what}");
            for (got, want) in cert.pieces.iter().zip(&want.pieces) {
                assert_eq!(got.region, want.region, "{what}");
                assert_eq!(coeff_bits(&got.polys), coeff_bits(&want.polys), "{what}");
                assert_eq!(got.epsilon.to_bits(), want.epsilon.to_bits(), "{what}");
            }
            assert_eq!(cert.lipschitz.to_bits(), want.lipschitz.to_bits(), "{what}");
        }
    }

    /// The single-point evaluation the lane kernel replaced: each
    /// dimension's basis row at `to_unit(x)`, then every term multiplied
    /// left to right and summed in coefficient order.
    #[allow(
        clippy::expect_used,
        reason = "a BoxRegion always has at least one dimension"
    )]
    fn eval_by_terms(poly: &BernsteinApprox, x: &[f64]) -> f64 {
        let d = poly.degree;
        let pts = d + 1;
        let basis: Vec<Vec<f64>> = poly
            .domain
            .to_unit(x)
            .into_iter()
            .map(|t| {
                (0..=d)
                    .map(|k| binomial(d, k) * t.powi(k as i32) * (1.0 - t).powi((d - k) as i32))
                    .collect()
            })
            .collect();
        let (first, rest) = basis.split_first().expect("non-empty basis");
        let mut idx = vec![0usize; rest.len()];
        let mut factors: Vec<f64> = rest.iter().map(|row| row[0]).collect();
        let mut acc = 0.0;
        for run in poly.coeffs.chunks_exact(pts) {
            for (&c, &b) in run.iter().zip(first) {
                let mut w = c * b;
                for &f in &factors {
                    w *= f;
                }
                acc += w;
            }
            advance(&mut idx, pts);
            for ((f, row), &k) in factors.iter_mut().zip(rest).zip(&idx) {
                *f = row[k];
            }
        }
        acc
    }

    /// The enclosure the scratch-based one replaced: the coefficient range,
    /// the interval basis sum and the mean-value bound, each built afresh.
    fn enclose_by_reference(poly: &BernsteinApprox, q: &BoxRegion) -> Interval {
        let mut bound = poly.coefficient_range();
        if let Some(tighter) = bound.intersect(&enclose_by_basis(poly, q)) {
            bound = tighter;
        }
        let radius = q
            .intervals()
            .iter()
            .map(|iv| iv.radius() * iv.radius())
            .sum::<f64>()
            .sqrt();
        let centre = eval_by_terms(poly, &q.center());
        let mean_value =
            Interval::symmetric(poly.lipschitz_bound() * radius) + Interval::point(centre);
        bound.intersect(&mean_value).unwrap_or(bound)
    }

    fn enclose_by_basis(poly: &BernsteinApprox, q: &BoxRegion) -> Interval {
        let d = poly.degree;
        let t: Vec<Interval> = poly
            .domain
            .to_unit(&q.lower())
            .into_iter()
            .zip(poly.domain.to_unit(&q.upper()))
            .map(|(lo, hi)| {
                let (lo, hi) = (lo.clamp(0.0, 1.0), hi.clamp(0.0, 1.0));
                Interval::new(lo.min(hi), hi.max(lo))
            })
            .collect();
        let one = Interval::point(1.0);
        let basis: Vec<Vec<Interval>> = t
            .iter()
            .map(|&ti| {
                (0..=d)
                    .map(|k| {
                        Interval::point(binomial(d, k))
                            * ti.powi(k as u32)
                            * (one - ti).powi((d - k) as u32)
                    })
                    .collect()
            })
            .collect();
        let mut acc = Interval::point(0.0);
        let mut idx = vec![0usize; basis.len()];
        for &c in &poly.coeffs {
            let mut w = Interval::point(c);
            for (row, &k) in basis.iter().zip(&idx) {
                w = w * row[k];
            }
            acc = acc + w;
            advance(&mut idx, d + 1);
        }
        acc
    }

    /// A seeded approximant with random coefficients over a random box.
    fn random_approx(seed: u64, degree: usize, dim: usize) -> BernsteinApprox {
        let mut rng = cocktail_math::rng::seeded(seed);
        let corner = cocktail_math::rng::uniform_in_box(&mut rng, &BoxRegion::cube(dim, -2.0, 1.0));
        let widths = cocktail_math::rng::uniform_in_box(&mut rng, &BoxRegion::cube(dim, 0.1, 3.0));
        let upper: Vec<f64> = corner.iter().zip(&widths).map(|(c, w)| c + w).collect();
        let domain = BoxRegion::from_bounds(&corner, &upper);
        let count = (degree + 1).pow(dim as u32);
        let coeffs =
            cocktail_math::rng::uniform_in_box(&mut rng, &BoxRegion::cube(count, -3.0, 3.0));
        BernsteinApprox::from_coeffs(domain, degree, coeffs)
    }

    #[test]
    fn eval_matches_the_term_by_term_reference() {
        let mut rng = cocktail_math::rng::seeded(29);
        for degree in 1..=8 {
            for dim in 1..=4 {
                let poly = random_approx(10 * degree as u64 + dim as u64, degree, dim);
                for _ in 0..10 {
                    let x = cocktail_math::rng::uniform_in_box(&mut rng, poly.domain());
                    assert_eq!(
                        poly.eval(&x).to_bits(),
                        eval_by_terms(&poly, &x).to_bits(),
                        "degree {degree}, dim {dim}, {x:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn enclose_matches_the_reference_enclosure() {
        let mut rng = cocktail_math::rng::seeded(31);
        for degree in 1..=8 {
            for dim in 1..=4 {
                let poly = random_approx(10 * degree as u64 + dim as u64, degree, dim);
                let domain = poly.domain().clone();
                let (lo, hi) = (domain.lower(), domain.upper());
                let mut queries = vec![domain.clone()];
                // random sub-boxes
                for _ in 0..6 {
                    let a = cocktail_math::rng::uniform_in_box(&mut rng, &domain);
                    let b = cocktail_math::rng::uniform_in_box(&mut rng, &domain);
                    let (l, h): (Vec<f64>, Vec<f64>) = a
                        .iter()
                        .zip(&b)
                        .map(|(&a, &b)| (a.min(b), a.max(b)))
                        .unzip();
                    queries.push(BoxRegion::from_bounds(&l, &h));
                }
                // zero-width faces on the boundary and the two extreme corners
                for i in 0..dim {
                    for edge in [lo[i], hi[i]] {
                        let (mut l, mut h) = (lo.clone(), hi.clone());
                        (l[i], h[i]) = (edge, edge);
                        queries.push(BoxRegion::from_bounds(&l, &h));
                    }
                }
                queries.push(BoxRegion::from_bounds(&lo, &lo));
                queries.push(BoxRegion::from_bounds(&hi, &hi));
                // boxes reaching past the domain, whose unit coordinates clamp
                queries.push(domain.inflate(0.5));
                for corner in [&lo, &hi] {
                    queries.push(BoxRegion::from_bounds(corner, corner).inflate(0.3));
                }
                for q in &queries {
                    let got = poly.enclose(q);
                    let want = enclose_by_reference(&poly, q);
                    assert_eq!(
                        [got.lo().to_bits(), got.hi().to_bits()],
                        [want.lo().to_bits(), want.hi().to_bits()],
                        "degree {degree}, dim {dim}, {q:?}"
                    );
                }
            }
        }
    }

    /// The cells of `domain.subdivide(grid)` and their intervals per axis.
    fn subdivided_axes(domain: &BoxRegion, grid: usize) -> (Vec<BoxRegion>, Vec<Vec<Interval>>) {
        let cells = domain.subdivide(grid);
        let axes = (0..domain.dim())
            .map(|i| {
                let stride = grid.pow(i as u32);
                (0..grid).map(|k| cells[k * stride].interval(i)).collect()
            })
            .collect();
        (cells, axes)
    }

    /// Asserts that `enclose_grid` over `domain.subdivide(grid)`, and over
    /// the upper half of its slowest axis, is `enclose` of every cell bit
    /// for bit. Returns how many (cell, piece) overlaps have zero width on
    /// some axis.
    fn assert_grid_matches_each_cell(cert: &BernsteinCertificate, grid: usize) -> usize {
        let (cells, axes) = subdivided_axes(cert.domain(), grid);
        let mut view: Vec<&[Interval]> = axes.iter().map(Vec::as_slice).collect();
        let m = cert.output_dim;
        let got = cert.enclose_grid(&view);
        assert_eq!(got.len(), cells.len() * m);
        for (flat, (cell, got)) in cells.iter().zip(got.chunks_exact(m)).enumerate() {
            assert_eq!(
                bits(got),
                bits(&cert.enclose(cell)),
                "cell {flat}: {cell:?}"
            );
        }
        let slowest = axes.len() - 1;
        view[slowest] = &axes[slowest][grid / 2..];
        let stripe = cert.enclose_grid(&view);
        let skipped = cells.len() / grid * (grid / 2);
        assert_eq!(stripe.len(), (cells.len() - skipped) * m);
        for (flat, (a, b)) in stripe
            .chunks_exact(m)
            .zip(got[skipped * m..].chunks_exact(m))
            .enumerate()
        {
            assert_eq!(bits(a), bits(b), "upper stripe, cell {flat}");
        }
        cells
            .iter()
            .flat_map(|cell| cert.pieces.iter().filter_map(|p| p.region.intersect(cell)))
            .filter(|overlap| overlap.intervals().iter().any(|iv| iv.width() == 0.0))
            .count()
    }

    /// The committed κ* and its certificate under the export budgets, as
    /// admission re-derives it.
    fn kappa_star_export() -> (Mlp, BernsteinCertificate) {
        use crate::cert::default_params;
        use cocktail_env::systems::VanDerPol;
        use cocktail_env::Dynamics;

        let vdp = VanDerPol::new();
        let kappa_star =
            Mlp::from_json(include_str!("../tests/fixtures/kappa_star_oscillator.json"))
                .expect("fixture parses");
        let params = default_params(&vdp);
        assert_eq!(params.certificate.margin, ErrorMargin::Residual);
        let cert = BernsteinCertificate::build(
            &kappa_star,
            &[1.0],
            &vdp.verification_domain(),
            &params.certificate,
        )
        .expect("fits the budget");
        (kappa_star, cert)
    }

    #[test]
    fn kappa_star_jacobians_match_the_reference_on_every_refined_region() {
        let (net, cert) = kappa_star_export();
        // every region the refinement evaluated: the tree's nodes
        let regions: Vec<&BoxRegion> = cert
            .tree
            .iter()
            .map(|node| match node {
                TreeNode::Piece(i) => &cert.pieces[*i].region,
                TreeNode::Split { region, .. } => region,
            })
            .collect();
        assert_eq!(regions.len(), 247);
        let mut scratch = JacobianScratch::default();
        let as_bits = |jac: &[[f64; 2]]| -> Vec<[u64; 2]> {
            jac.iter()
                .map(|[lo, hi]| [lo.to_bits(), hi.to_bits()])
                .collect()
        };
        for region in regions {
            let want = crate::jacobian::reference::interval_jacobian(&net, region)
                .expect("finite weights");
            let got = interval_jacobian(&net, region, &mut scratch).expect("finite weights");
            assert_eq!(as_bits(got), as_bits(&want), "{region:?}");
        }
    }

    /// [`BernsteinCertificate::enclose`] through
    /// [`BernsteinApprox::combine_reference`].
    fn enclose_with_reference_combine(cert: &BernsteinCertificate, q: &BoxRegion) -> Vec<Interval> {
        let mut hits = Vec::new();
        cert.collect_covering(0, q, &mut hits);
        hits.sort_unstable();
        let mut out: Vec<Option<Interval>> = vec![None; cert.output_dim];
        let (mut tables, mut idx) = (AxisTables::default(), Vec::new());
        for piece in hits.into_iter().map(|i| &cert.pieces[i]) {
            let overlap = piece
                .region
                .intersect(q)
                .expect("collected as intersecting");
            for (o, poly) in piece.polys.iter().enumerate() {
                tables.clear();
                for (axis, &iv) in overlap.intervals().iter().enumerate() {
                    poly.axis_tables(axis, iv, &mut tables);
                }
                let iv = poly
                    .combine_reference(&tables, &mut idx)
                    .inflate(piece.epsilon);
                hull_into(&mut out[o], iv);
            }
        }
        out.into_iter().map(|iv| iv.expect("covered")).collect()
    }

    /// The axis tables of `q` on every axis of `poly`, one row per axis.
    fn tables_of(poly: &BernsteinApprox, q: &BoxRegion) -> AxisTables {
        let mut tables = AxisTables::default();
        for (axis, &iv) in q.intervals().iter().enumerate() {
            poly.axis_tables(axis, iv, &mut tables);
        }
        tables
    }

    /// `f`'s result, or the message it panicked with.
    fn outcome<T>(f: impl FnOnce() -> T) -> Result<T, String> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|e| {
            e.downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_default()
        })
    }

    #[test]
    fn sign_split_combine_matches_the_reference_combine() {
        let mut rng = cocktail_math::rng::seeded(37);
        let mut idx = Vec::new();
        let (mut split, mut fallback, mut non_finite) = (0, 0, 0);
        for degree in 1..=8 {
            for dim in 1..=3 {
                // coefficients of both signs, with an exact +0 and −0
                let mut poly = random_approx(100 + 10 * degree as u64 + dim as u64, degree, dim);
                let last = poly.coeffs.len() - 1;
                (poly.coeffs[0], poly.coeffs[last]) = (0.0, -0.0);
                let poly = BernsteinApprox::from_coeffs(poly.domain, degree, poly.coeffs);
                // a domain starting at +0, queried from −0: unit
                // coordinates of −0 make basis intervals that end in −0
                let unit = BernsteinApprox::from_coeffs(
                    BoxRegion::cube(dim, 0.0, 1.0),
                    degree,
                    poly.coeffs.clone(),
                );
                let mut cases = Vec::new();
                for p in [&poly, &unit] {
                    let domain = p.domain().clone();
                    let (lo, hi) = (domain.lower(), domain.upper());
                    let mut queries = vec![domain.clone()];
                    for _ in 0..8 {
                        let a = cocktail_math::rng::uniform_in_box(&mut rng, &domain);
                        let b = cocktail_math::rng::uniform_in_box(&mut rng, &domain);
                        let (l, h): (Vec<f64>, Vec<f64>) = a
                            .iter()
                            .zip(&b)
                            .map(|(&a, &b)| (a.min(b), a.max(b)))
                            .unzip();
                        queries.push(BoxRegion::from_bounds(&l, &h));
                    }
                    // zero-width faces on both edges of every axis, where
                    // basis intervals are exactly 0, and both corners
                    for i in 0..dim {
                        for edge in [lo[i], hi[i]] {
                            let (mut l, mut h) = (lo.clone(), hi.clone());
                            (l[i], h[i]) = (edge, edge);
                            queries.push(BoxRegion::from_bounds(&l, &h));
                        }
                    }
                    queries.push(BoxRegion::from_bounds(&lo, &lo));
                    queries.push(BoxRegion::from_bounds(&hi, &hi));
                    cases.extend(queries.into_iter().map(|q| (p, q)));
                }
                let negative_zero = vec![-0.0; dim];
                cases.push((
                    &unit,
                    BoxRegion::from_bounds(&negative_zero, &vec![0.5; dim]),
                ));
                cases.push((
                    &unit,
                    BoxRegion::from_bounds(&negative_zero, &negative_zero),
                ));
                let rows: Vec<usize> = (0..dim).collect();
                for (p, q) in &cases {
                    let tables = tables_of(p, q);
                    let at = format!("degree {degree}, dim {dim}, {q:?}");
                    let got = p.combine(&tables, &rows, p.coefficient_range(), &mut idx);
                    let want = p.combine_reference(&tables, &mut idx);
                    assert_eq!(bits(&[got]), bits(&[want]), "{at}");
                    match p.sign_split_sums(&tables, &rows, &mut idx) {
                        Some((by_basis, centre)) if !tables.signed => {
                            let (b, c) = p.interval_sums(&tables, &rows, &mut idx);
                            assert_eq!(bits(&[by_basis]), bits(&[b]), "{at}");
                            assert_eq!(centre.to_bits(), c.to_bits(), "{at}");
                            split += 1;
                        }
                        _ => fallback += 1,
                    }
                }
                // a non-finite coefficient takes the four-product path, and
                // returns or panics as the reference does
                for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
                    let mut coeffs = poly.coeffs.clone();
                    coeffs[last / 2] = bad;
                    let p = BernsteinApprox::from_coeffs(poly.domain.clone(), degree, coeffs);
                    for q in [
                        p.domain().clone(),
                        BoxRegion::from_bounds(&p.domain.lower(), &p.domain.lower()),
                    ] {
                        let tables = tables_of(&p, &q);
                        assert!(p.sign_split_sums(&tables, &rows, &mut idx).is_none());
                        let got = outcome(|| {
                            bits(&[p.combine(
                                &tables,
                                &rows,
                                p.coefficient_range(),
                                &mut Vec::new(),
                            )])
                        });
                        let want =
                            outcome(|| bits(&[p.combine_reference(&tables, &mut Vec::new())]));
                        assert_eq!(got, want, "{bad} in degree {degree}, dim {dim}, {q:?}");
                        non_finite += 1;
                    }
                }
            }
        }
        assert!(
            split > 500 && fallback >= 48,
            "{split} split, {fallback} fallback"
        );
        assert_eq!(non_finite, 8 * 3 * 3 * 2);
    }

    #[test]
    fn kappa_star_grid_enclosure_matches_the_reference_combine() {
        let (_, cert) = kappa_star_export();
        let (cells, axes) = subdivided_axes(cert.domain(), 60);
        let view: Vec<&[Interval]> = axes.iter().map(Vec::as_slice).collect();
        let got = cert.enclose_grid(&view);
        assert_eq!(got.len(), 3600);
        for (flat, (cell, got)) in cells.iter().zip(got.chunks_exact(1)).enumerate() {
            assert_eq!(
                bits(got),
                bits(&enclose_with_reference_combine(&cert, cell)),
                "cell {flat}: {cell:?}"
            );
        }
    }

    #[test]
    fn grid_enclosure_matches_each_cells_enclosure() {
        use crate::cert::{default_params, fast_params};
        use cocktail_env::systems::{CartPole, Poly3d, VanDerPol};
        use cocktail_env::Dynamics;

        let certify = |sys: &dyn Dynamics, net: &Mlp, scale: f64, cfg: &CertificateConfig| {
            BernsteinCertificate::build(net, &[scale], &sys.verification_domain(), cfg)
                .expect("fits the budget")
        };
        let student = |inputs: usize, seed: u64| {
            MlpBuilder::new(inputs)
                .hidden(8, Activation::Tanh)
                .output(1, Activation::Tanh)
                .seed(seed)
                .build()
        };
        let vdp = VanDerPol::new();
        let kappa_star =
            Mlp::from_json(include_str!("../tests/fixtures/kappa_star_oscillator.json"))
                .expect("fixture parses");
        let params = default_params(&vdp);
        assert_eq!(params.invariant.grid, 60);
        let exported = certify(&vdp, &kappa_star, 1.0, &params.certificate);
        assert_grid_matches_each_cell(&exported, 60);

        // the first-order margin and grid 32 of the older export budgets
        let first_order = CertificateConfig {
            degree: 4,
            tolerance: 0.4,
            max_pieces: 65536,
            error_samples_per_dim: 5,
            margin: ErrorMargin::Lipschitz,
        };
        let fine = certify(&vdp, &kappa_star, 1.0, &first_order);
        assert!(fine.piece_count() > 2000, "{} pieces", fine.piece_count());
        assert_grid_matches_each_cell(&fine, 32);

        // two outputs, each folded into its own hull
        let two = BernsteinCertificate::build(
            &two_output_net(9),
            &[5.0, 3.0],
            &vdp.verification_domain(),
            &CertificateConfig {
                tolerance: 0.5,
                ..Default::default()
            },
        )
        .expect("fits");
        assert!(two.piece_count() > 20, "{} pieces", two.piece_count());
        assert_grid_matches_each_cell(&two, 24);
        // an axis listed in decreasing order takes the per-cell path
        let (_, mut axes) = subdivided_axes(two.domain(), 6);
        axes[0].reverse();
        let view: Vec<&[Interval]> = axes.iter().map(Vec::as_slice).collect();
        let want = enclose_each_cell(&two, &view);
        assert_eq!(want.len(), 36 * 2);
        assert_eq!(bits(&two.enclose_grid(&view)), bits(&want));

        // the golden 3-D and non-dyadic 4-D certificates at their grids
        let poly = Poly3d::new();
        let fast = fast_params(&poly);
        let odd = certify(&poly, &student(3, 21), 7.0, &fast.certificate);
        assert_grid_matches_each_cell(&odd, fast.invariant.grid);
        let cartpole = CartPole::new();
        let non_dyadic = certify(
            &cartpole,
            &student(4, 31),
            5.0,
            &CertificateConfig {
                degree: 2,
                tolerance: 6.0,
                max_pieces: 16384,
                error_samples_per_dim: 3,
                margin: ErrorMargin::Lipschitz,
            },
        );
        assert_grid_matches_each_cell(&non_dyadic, 5);

        // 0.5-wide cells on [−2, 2]²: every cell edge is a possible piece
        // edge, so cells touch pieces along zero-width faces
        for cert in [&exported, &two] {
            let touching = assert_grid_matches_each_cell(cert, 8);
            assert!(touching > 10, "{touching} zero-width overlaps");
        }
    }

    /// The settings of the residual-margin tests: the export degree and
    /// error grid of 2-D and 3-D plants, under `margin`.
    fn margin_config(margin: ErrorMargin, tolerance: f64) -> CertificateConfig {
        CertificateConfig {
            degree: 4,
            tolerance,
            max_pieces: 1 << 14,
            error_samples_per_dim: 5,
            margin,
        }
    }

    /// Seeded nets over 2, 3 and 4 inputs, with their scale, domain and
    /// residual-margin settings, which they meet in tens of pieces: tanh,
    /// `ReLU` and softplus hidden layers, and in 4-D the export degree 2
    /// with 3 error samples per dimension.
    fn residual_cases() -> Vec<(Mlp, Vec<f64>, BoxRegion, CertificateConfig)> {
        let net = |inputs: usize, act: Activation, outputs: usize, seed: u64| {
            MlpBuilder::new(inputs)
                .hidden(6, act)
                .output(outputs, Activation::Tanh)
                .seed(seed)
                .build()
        };
        vec![
            (
                net(2, Activation::Tanh, 2, 4),
                vec![5.0, -3.0],
                BoxRegion::cube(2, -1.0, 1.0),
                margin_config(ErrorMargin::Residual, 0.05),
            ),
            (
                net(3, Activation::Relu, 1, 12),
                vec![4.0],
                BoxRegion::from_bounds(&[-0.3, -1.0 / 3.0, -1.0], &[0.7, 1.0, 0.5]),
                margin_config(ErrorMargin::Residual, 0.3),
            ),
            (
                net(4, Activation::Softplus, 1, 13),
                vec![3.0],
                BoxRegion::cube(4, -1.0, 1.0),
                CertificateConfig {
                    degree: 2,
                    error_samples_per_dim: 3,
                    ..margin_config(ErrorMargin::Residual, 0.5)
                },
            ),
        ]
    }

    #[test]
    fn residual_error_bounds_hold_at_dense_samples_of_every_piece() {
        for (net, scale, domain, cfg) in residual_cases() {
            let n = domain.dim();
            let cert = BernsteinCertificate::build(&net, &scale, &domain, &cfg).expect("fits");
            assert!(cert.piece_count() > 1, "{n}-D: refinement must happen");
            // a grid that shares only the corners with the error samples
            let m = match n {
                2 => 11usize,
                3 => 7,
                _ => 4,
            };
            let mut checked = 0usize;
            for piece in &cert.pieces {
                for point in 0..m.pow(n as u32) {
                    let t: Vec<f64> = (0..n)
                        .map(|i| ((point / m.pow(i as u32)) % m) as f64 / (m - 1) as f64)
                        .collect();
                    let x = piece.region.lerp(&t);
                    let y = net.forward(&x);
                    for (o, poly) in piece.polys.iter().enumerate() {
                        let err = (scale[o] * y[o] - poly.eval(&x)).abs();
                        assert!(
                            err <= piece.epsilon,
                            "{n}-D: |f − B| = {err} > ε = {} at {x:?}",
                            piece.epsilon
                        );
                        checked += 1;
                    }
                }
            }
            assert!(checked > 1000, "{n}-D: {checked} samples");
        }
    }

    /// Every node region of a certificate's bisection tree, with the
    /// piece's `ε` for an accepted region and `None` for a bisected one.
    fn node_regions(cert: &BernsteinCertificate) -> Vec<(&BoxRegion, Option<f64>)> {
        cert.tree
            .iter()
            .map(|node| match node {
                TreeNode::Piece(i) => (&cert.pieces[*i].region, Some(cert.pieces[*i].epsilon)),
                TreeNode::Split { region, .. } => (region, None),
            })
            .collect()
    }

    #[test]
    fn the_residual_tree_is_a_subtree_of_the_lipschitz_tree() {
        // the 2-D and 3-D nets, at tolerances the first-order margin meets
        // in hundreds of pieces (in 4-D it needs thousands)
        for ((net, scale, domain, _), tolerance) in residual_cases().into_iter().zip([0.2, 0.5]) {
            let n = domain.dim();
            let build = |margin| {
                BernsteinCertificate::build(
                    &net,
                    &scale,
                    &domain,
                    &margin_config(margin, tolerance),
                )
                .expect("fits")
            };
            let (first, residual) = (build(ErrorMargin::Lipschitz), build(ErrorMargin::Residual));
            // the margin is what makes refinement cheap
            assert!(
                4 * residual.piece_count() < first.piece_count(),
                "{n}-D: {} residual pieces, {} first-order",
                residual.piece_count(),
                first.piece_count()
            );
            let first_nodes = node_regions(&first);
            for (region, epsilon) in node_regions(&residual) {
                let (_, first_epsilon) = first_nodes
                    .iter()
                    .find(|(r, _)| *r == region)
                    .unwrap_or_else(|| panic!("{n}-D: {region:?} is not a first-order region"));
                // a region the residual margin splits, the first-order one
                // splits too
                assert!(
                    epsilon.is_some() || first_epsilon.is_none(),
                    "{n}-D: only the residual tree splits {region:?}"
                );
            }
            // on every residual piece, the same approximants with a bound
            // no larger than the first-order one
            let first_cfg = margin_config(ErrorMargin::Lipschitz, tolerance);
            let mut scratch = RefineScratch::default();
            for piece in &residual.pieces {
                let fresh = evaluate_region(
                    &net,
                    &scale,
                    &piece.region,
                    None,
                    &first_cfg,
                    residual.lipschitz,
                    &mut scratch,
                );
                assert_eq!(coeff_bits(&piece.polys), coeff_bits(&fresh.polys), "{n}-D");
                assert!(
                    piece.epsilon <= fresh.epsilon,
                    "{n}-D: ε {} > first-order {} on {:?}",
                    piece.epsilon,
                    fresh.epsilon,
                    piece.region
                );
            }
        }
    }

    #[test]
    fn residual_certificates_do_not_depend_on_the_worker_count() {
        for (net, scale, domain, cfg) in residual_cases() {
            let (reference, ref_stats) =
                BernsteinCertificate::build_with_workers(&net, &scale, &domain, &cfg, 1)
                    .expect("fits");
            assert!(ref_stats.splits > 0);
            assert_eq!(
                ref_stats.floor_splits, 0,
                "no floor under the residual margin"
            );
            for workers in [2usize, 8] {
                let (cert, stats) =
                    BernsteinCertificate::build_with_workers(&net, &scale, &domain, &cfg, workers)
                        .expect("fits");
                assert_eq!(cert, reference, "workers = {workers}");
                assert_eq!(stats, ref_stats, "workers = {workers}");
            }
        }
    }

    #[test]
    fn a_config_without_a_margin_reads_as_lipschitz() {
        let residual = margin_config(ErrorMargin::Residual, 0.25);
        let value = residual.to_value();
        assert_eq!(CertificateConfig::from_value(&value), Ok(residual.clone()));
        let serde::Value::Map(fields) = value else {
            panic!("a config serializes to a map")
        };
        let older = serde::Value::Map(fields.into_iter().filter(|(k, _)| k != "margin").collect());
        assert_eq!(
            CertificateConfig::from_value(&older),
            Ok(CertificateConfig {
                margin: ErrorMargin::Lipschitz,
                ..residual
            })
        );
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let net = small_net(7);
        let domain = BoxRegion::cube(2, -2.0, 2.0);
        let err = BernsteinCertificate::build(
            &net,
            &[100.0],
            &domain,
            &CertificateConfig {
                tolerance: 1e-3,
                max_pieces: 8,
                ..Default::default()
            },
        )
        .expect_err("tiny budget must blow up");
        assert!(matches!(err, VerifyError::ResourceExhausted { .. }));
    }

    #[test]
    fn eval_matches_network_within_epsilon() {
        let net = small_net(8);
        let domain = BoxRegion::cube(2, -1.0, 1.0);
        let cert =
            BernsteinCertificate::build(&net, &[1.0], &domain, &CertificateConfig::default())
                .expect("fits");
        let x = [0.2, -0.4];
        let approx = cert.eval(&x)[0];
        let truth = net.forward(&x)[0];
        assert!((approx - truth).abs() <= cert.epsilon() + 1e-9);
    }
}
