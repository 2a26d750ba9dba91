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
//! every set-up. Four structures keep it cheap without changing a bit of
//! the result:
//!
//! * each refinement region runs the network in **one batched forward
//!   pass** through [`Mlp::forward_batch`], whose rows are bit-identical to
//!   [`Mlp::forward`] and so a pure function of the row's input bits;
//! * **halves inherit their parent's network values**: a half differs from
//!   the region it was bisected from only on the split axis, so every grid
//!   point whose coordinates are, bit for bit (`to_bits()`), coordinates of
//!   the parent's grid copies the parent's value, and only the rest is run
//!   through the network. Matching is by bits, never by position, so odd
//!   degrees and non-dyadic domains simply match fewer points;
//! * the error estimate computes each dimension's **basis rows once per
//!   region** for the tensor sample grid, with [`BernsteinApprox::eval`]'s
//!   own arithmetic, and each approximant's Lipschitz bound once when it
//!   is built;
//! * the refinement's **bisection tree** is kept as the piece index, so
//!   [`ControlEnclosure::enclose`] descends only the subtrees overlapping
//!   the query box instead of scanning every piece.

use crate::enclosure::ControlEnclosure;
use crate::error::VerifyError;
use cocktail_math::{BoxRegion, Interval, Matrix};
use cocktail_nn::Mlp;
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
/// `k = 0..=d`, at one unit coordinate `t`.
fn basis_row(d: usize, t: f64) -> Vec<f64> {
    (0..=d)
        .map(|k| binomial(d, k) * t.powi(k as i32) * (1.0 - t).powi((d - k) as i32))
        .collect()
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
        let basis: Vec<Vec<f64>> = self
            .domain
            .to_unit(x)
            .into_iter()
            .map(|t| basis_row(self.degree, t))
            .collect();
        self.eval_with_basis(&basis)
    }

    /// The coefficient sum of [`Self::eval`] given each dimension's
    /// [`basis_row`] at the point, so callers that share rows between
    /// points run the same arithmetic.
    ///
    /// Each term is `c · B₀[k₀] · B₁[k₁] · …`, multiplied left to right and
    /// summed in coefficient order. Dimension 0 runs fastest, so the
    /// factors of the other dimensions are picked once per run of
    /// `degree + 1` coefficients.
    #[allow(
        clippy::expect_used,
        reason = "a BoxRegion always has at least one dimension"
    )]
    fn eval_with_basis<B: AsRef<[f64]>>(&self, basis: &[B]) -> f64 {
        let pts = self.degree + 1;
        let (first, rest) = basis.split_first().expect("non-empty basis");
        let mut idx = vec![0usize; rest.len()];
        let mut factors: Vec<f64> = rest.iter().map(|row| row.as_ref()[0]).collect();
        let mut acc = 0.0;
        for run in self.coeffs.chunks_exact(pts) {
            for (&c, &b) in run.iter().zip(first.as_ref()) {
                let mut w = c * b;
                for &f in &factors {
                    w *= f;
                }
                acc += w;
            }
            advance(&mut idx, pts);
            for ((f, row), &k) in factors.iter_mut().zip(rest).zip(&idx) {
                *f = row.as_ref()[k];
            }
        }
        acc
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
        let mut bound = self.coefficient_range();
        if let Some(tighter) = bound.intersect(&self.enclose_by_basis(q)) {
            bound = tighter;
        }
        let radius = q
            .intervals()
            .iter()
            .map(|iv| iv.radius() * iv.radius())
            .sum::<f64>()
            .sqrt();
        let centre = self.eval(&q.center());
        let mean_value =
            Interval::symmetric(self.lipschitz_bound() * radius) + Interval::point(centre);
        bound.intersect(&mean_value).unwrap_or(bound)
    }

    fn enclose_by_basis(&self, q: &BoxRegion) -> Interval {
        assert_eq!(q.dim(), self.domain.dim(), "sub-box dimension mismatch");
        // unit coordinates of the sub-box, clamped to [0,1]
        let d = self.degree;
        let t: Vec<Interval> = self
            .domain
            .to_unit(&q.lower())
            .into_iter()
            .zip(self.domain.to_unit(&q.upper()))
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
        for &c in &self.coeffs {
            let mut w = Interval::point(c);
            for (row, &k) in basis.iter().zip(&idx) {
                w = w * row[k];
            }
            acc = acc + w;
            advance(&mut idx, d + 1);
        }
        acc
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
/// with `r` the covering radius of the error-sample grid. The sampled bound
/// of a piece is never below it, whatever the fit, so only bisection
/// removes it: the floor the static analyzer predicts refinement cost from.
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
    /// points go through one [`Mlp::forward_batch`]. Returns the grid and
    /// the number of rows run through the network.
    fn evaluate(
        net: &Mlp,
        region: &BoxRegion,
        degree: usize,
        parent: Option<&RegionGrid>,
    ) -> (Self, usize) {
        let coords = grid_coords(region, degree);
        let pts = degree + 1;
        // per dimension, child index → parent index at a bit-equal coordinate
        let maps: Vec<Vec<Option<usize>>> = coords
            .iter()
            .enumerate()
            .map(|(i, own)| {
                own.iter()
                    .map(|x| {
                        parent.and_then(|p| {
                            p.coords[i].iter().position(|y| y.to_bits() == x.to_bits())
                        })
                    })
                    .collect()
            })
            .collect();
        let count = pts.pow(coords.len() as u32);
        let mut values = Matrix::zeros(count, net.output_dim());
        let mut fresh_rows = Vec::new();
        let mut fresh_points = Vec::new();
        let mut idx = vec![0usize; coords.len()];
        for row in 0..count {
            // the parent's row at the same point, when every coordinate maps
            let from = maps
                .iter()
                .zip(&idx)
                .rev()
                .try_fold(0usize, |flat, (map, &k)| map[k].map(|j| flat * pts + j));
            match parent.zip(from) {
                Some((p, from)) => values.row_mut(row).copy_from_slice(p.values.row(from)),
                None => {
                    fresh_rows.push(row);
                    fresh_points.extend(coords.iter().zip(&idx).map(|(c, &k)| c[k]));
                }
            }
            advance(&mut idx, pts);
        }
        if !fresh_rows.is_empty() {
            let fresh = net.forward_batch(&Matrix::from_vec(
                fresh_rows.len(),
                coords.len(),
                fresh_points,
            ));
            for (i, &row) in fresh_rows.iter().enumerate() {
                values.row_mut(row).copy_from_slice(fresh.row(i));
            }
        }
        (Self { coords, values }, fresh_rows.len())
    }
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
/// and [`rigorous_error_bound`] is kept per output. When the sample grid is
/// the coefficient grid (`error_samples_per_dim − 1 == degree`, as in
/// [`crate::cert::default_params`]) its network values are the
/// coefficients themselves; otherwise it is batched once for all outputs.
/// The sample grid is a tensor grid, so each dimension's basis rows are
/// computed once, with [`BernsteinApprox::eval`]'s expressions, and every
/// sample runs only `eval`'s coefficient loop over the rows it picks.
fn evaluate_region(
    net: &Mlp,
    scale: &[f64],
    region: &BoxRegion,
    parent: Option<&RegionGrid>,
    config: &CertificateConfig,
    lipschitz: f64,
) -> RegionEval {
    let degree = config.degree;
    let (grid, mut network_rows) = RegionGrid::evaluate(net, region, degree, parent);
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
    let sample_coords = grid_coords(region, m - 1);
    let separate = (m - 1 != degree).then(|| net.forward_batch(&grid_points(&sample_coords)));
    if let Some(values) = &separate {
        network_rows += values.rows();
    }
    let sample_values = separate.as_ref().unwrap_or(&grid.values);
    // bases[i][j]: the basis row at sample coordinate j of dimension i,
    // through the `to_unit` that `eval` applies to a whole point
    let units: Vec<Vec<f64>> = (0..m)
        .map(|j| region.to_unit(&sample_coords.iter().map(|c| c[j]).collect::<Vec<_>>()))
        .collect();
    let bases: Vec<Vec<Vec<f64>>> = (0..region.dim())
        .map(|i| units.iter().map(|t| basis_row(degree, t[i])).collect())
        .collect();
    let r = covering_radius(region, m);
    let rigorous = rigorous_error_bound(lipschitz, region, degree);
    let mut epsilon: f64 = 0.0;
    let mut picked: Vec<&[f64]> = Vec::with_capacity(bases.len());
    for (o, (poly, &s)) in polys.iter().zip(scale).enumerate() {
        let mut worst: f64 = 0.0;
        let mut idx = vec![0usize; bases.len()];
        for row in 0..sample_values.rows() {
            picked.clear();
            picked.extend(bases.iter().zip(&idx).map(|(b, &j)| b[j].as_slice()));
            worst = worst.max((sample_values[(row, o)] * s - poly.eval_with_basis(&picked)).abs());
            advance(&mut idx, m);
        }
        let sampled = worst + (lipschitz + poly.lipschitz_bound()) * r;
        epsilon = epsilon.max(sampled.min(rigorous));
    }
    RegionEval {
        polys,
        epsilon,
        grid,
        network_rows,
    }
}

/// Configuration for [`BernsteinCertificate::build`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CertificateConfig {
    /// Bernstein degree per dimension.
    pub degree: usize,
    /// Target approximation error per piece.
    pub tolerance: f64,
    /// Maximum number of partition pieces before giving up — the analogue
    /// of the paper's memory blow-up for high-Lipschitz students.
    pub max_pieces: usize,
    /// Sample-grid resolution per dimension for the sound
    /// sampled-plus-Lipschitz-margin error bound of each piece.
    pub error_samples_per_dim: usize,
}

impl Default for CertificateConfig {
    fn default() -> Self {
        Self {
            degree: 4,
            tolerance: 0.5,
            max_pieces: 2048,
            error_samples_per_dim: 5,
        }
    }
}

/// Partition-refinement statistics of a certificate build: how many
/// bisections were performed, how deep the refinement went, and how many
/// points it ran through the network. `splits` and `depth` are shipped in
/// the safety certificate so admission can compare them exactly;
/// `network_rows` is the refinement's cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RefineStats {
    /// Number of bisections performed (cells refined).
    pub splits: usize,
    /// Number of refinement levels (0 when the root piece met tolerance).
    pub depth: usize,
    /// Rows run through the network: grid points a region could not
    /// inherit from its parent, plus separate error-sample grids.
    pub network_rows: usize,
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
    /// region handing its grid values to both halves. Each region's
    /// approximants and error bound depend only on that region, so the
    /// resulting certificate, bisection tree included, is bit-identical for
    /// every `workers >= 1`, and so is `network_rows`.
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
            let evaluated = cocktail_math::parallel::map_indexed_with_workers(
                &frontier,
                workers,
                |_, (region, parent)| {
                    let parent = parent.map(|p| &parents[p]);
                    evaluate_region(net, scale, region, parent, config, lipschitz)
                },
            );
            // the frontier is nodes tree.len().., its halves follow it
            let first_half = tree.len() + frontier.len();
            let mut next = Vec::new();
            let mut next_parents = Vec::new();
            for ((region, _), eval) in frontier.into_iter().zip(evaluated) {
                stats.network_rows += eval.network_rows;
                if eval.epsilon > config.tolerance && region.max_width() > 1e-6 {
                    let (a, b) = region.bisect();
                    tree.push(TreeNode::Split {
                        region,
                        halves: first_half + next.len(),
                    });
                    let parent = Some(next_parents.len());
                    next_parents.push(eval.grid);
                    next.push((a, parent));
                    next.push((b, parent));
                    stats.splits += 1;
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
    /// every piece.
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
        for piece in hits.into_iter().map(|i| &self.pieces[i]) {
            let overlap = piece
                .region
                .intersect(q)
                .expect("collected as intersecting");
            for (o, poly) in piece.polys.iter().enumerate() {
                let iv = poly.enclose(&overlap).inflate(piece.epsilon);
                out[o] = Some(match out[o] {
                    Some(acc) => acc.hull(&iv),
                    None => iv,
                });
            }
        }
        out.into_iter()
            .map(|iv| iv.expect("query box must intersect the certified domain"))
            .collect()
    }
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
    /// forward pass per coefficient and per error sample, per output.
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
                worst = worst.max((f(&x) - poly.eval(&x)).abs());
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
                ..Default::default()
            };
            let eval = evaluate_region(&net, &scale, &region, None, &cfg, lipschitz);
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
        // (domain, degree, error samples, network rows per split when they
        // are exact: on a dyadic box at degree 4 every half inherits 3 of
        // its 5 split-axis coordinates, so 2 × 2 × 5 rows are new; at an
        // odd degree or on a non-dyadic box rounding decides how many)
        let cases = [
            (&dyadic, 4, 5, Some(20)),
            (&dyadic, 3, 4, None),
            (&skewed, 4, 5, None),
            (&dyadic, 4, 6, Some(20 + 2 * 36)),
        ];
        for (domain, degree, samples, per_split) in cases {
            let cfg = CertificateConfig {
                degree,
                tolerance: 0.3,
                max_pieces: 1 << 14,
                error_samples_per_dim: samples,
            };
            let what = format!("{domain:?}, degree {degree}, {samples} samples");
            let (cert, stats) =
                BernsteinCertificate::build_with_workers(&net, &scale, domain, &cfg, 2)
                    .expect("fits");
            assert!(stats.splits > 20, "{what}: {} splits", stats.splits);
            for piece in &cert.pieces {
                let fresh =
                    evaluate_region(&net, &scale, &piece.region, None, &cfg, cert.lipschitz);
                assert_eq!(coeff_bits(&piece.polys), coeff_bits(&fresh.polys), "{what}");
                assert_eq!(piece.epsilon.to_bits(), fresh.epsilon.to_bits(), "{what}");
            }
            let pts = degree + 1;
            let root = pts * pts
                + if samples - 1 == degree {
                    0
                } else {
                    samples * samples
                };
            let every_point = (2 * stats.splits + 1) * root;
            match per_split {
                // a regression that stops inheriting fails here
                Some(per_split) => {
                    assert_eq!(
                        stats.network_rows,
                        root + per_split * stats.splits,
                        "{what}"
                    );
                }
                // at least the lower half's split-axis edge is inherited
                None => assert!(
                    stats.network_rows <= every_point - stats.splits * pts,
                    "{what}: {} rows",
                    stats.network_rows
                ),
            }
        }
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
