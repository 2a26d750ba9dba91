//! Control-invariant-set computation (Definition 1, Fig. 3).
//!
//! A grid fixpoint in the style of Xue & Zhan \[22\]: the safe region is
//! tiled into `gⁿ` cells, and cells whose one-step interval image (under
//! the certified controller enclosure and the full disturbance `Ω ⊕ ε`)
//! is not covered by the surviving cells are removed until nothing changes.
//! What remains is an under-approximation of the maximal control invariant
//! set: every trajectory started inside it provably stays inside forever.
//!
//! The cell images are the cost; they are computed once. The grid is cut
//! into one stripe of the slowest axis per worker, and each stripe's
//! enclosures come from one [`ControlEnclosure::enclose_grid`] call, which
//! for a Bernstein certificate shares each piece's per-axis work between
//! the cells of a row or column. The fixpoint is Jacobi: each sweep decides
//! every cell against the previous sweep's bitmap, so the sweep count — a
//! certificate field — cannot depend on an evaluation order. A sweep
//! builds a summed-area table of the previous bitmap's dead cells and asks
//! it, per alive cell, whether the image's cell range holds a dead cell:
//! `2ⁿ` loads and adds per cell whatever the range's size, on the calling
//! thread, because each image's range is turned once, before the first
//! sweep, into the `2ⁿ` table offsets of its corners.
//! [`crate::cert`] hands the cells and images on to the reachability
//! analysis of the same certificate, which steps the same cells.

use crate::enclosure::ControlEnclosure;
use crate::error::VerifyError;
use crate::reach::{disturbance, step_image};
use cocktail_env::Dynamics;
use cocktail_math::{BoxRegion, Interval};
use cocktail_obs::{NullSink, Span, Telemetry};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Budget of the invariant grid fixpoint, for [`invariant_set_with_workers`]
/// and for the invariant stage of [`crate::cert::certify_controller`]
/// ([`crate::cert::SafetyParams::invariant`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InvariantConfig {
    /// Grid resolution per dimension (`grid^n` cells).
    pub grid: usize,
    /// Iteration cap for the fixpoint (it normally converges much earlier).
    pub max_iterations: usize,
}

impl Default for InvariantConfig {
    fn default() -> Self {
        Self {
            grid: 32,
            max_iterations: 200,
        }
    }
}

/// An invariant-set computation result.
#[derive(Debug, Clone)]
pub struct InvariantResult {
    domain: BoxRegion,
    grid: usize,
    alive: Vec<bool>,
    /// Number of fixpoint sweeps executed.
    pub iterations: usize,
    /// Whether the fixpoint was reached within the iteration cap. Only a
    /// converged result is a sound invariant set.
    pub converged: bool,
    /// Wall-clock time (the paper's verifiability metric).
    pub duration: Duration,
}

impl InvariantResult {
    /// Grid resolution per dimension.
    pub fn grid(&self) -> usize {
        self.grid
    }

    /// Fraction of the domain's cells proved invariant.
    pub fn alive_fraction(&self) -> f64 {
        self.alive.iter().filter(|&&a| a).count() as f64 / self.alive.len() as f64
    }

    /// Whether a point lies in the computed invariant set.
    ///
    /// # Panics
    ///
    /// Panics if `p.len() != domain.dim()`.
    pub fn contains(&self, p: &[f64]) -> bool {
        if !self.domain.contains(p) {
            return false;
        }
        match self.cell_index(p) {
            Some(i) => self.alive[i],
            None => false,
        }
    }

    /// The raw per-cell survival bitmap (row-major, dimension 0 fastest) —
    /// the input of the safety certificate's invariant digest.
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// Whether an entire box lies inside the computed invariant set: every
    /// cell it overlaps must have survived the fixpoint. `false` when the
    /// box pokes outside the analysis domain.
    ///
    /// # Panics
    ///
    /// Panics if `b.dim() != domain.dim()`.
    pub fn contains_box(&self, b: &BoxRegion) -> bool {
        let mut ranges = Vec::new();
        self.cell_range(b, &mut ranges) && all_alive(&ranges, &self.alive, self.grid)
    }

    /// The surviving cells as boxes (for plotting Fig. 3).
    pub fn cells(&self) -> Vec<BoxRegion> {
        let all = self.domain.subdivide(self.grid);
        all.into_iter()
            .zip(&self.alive)
            .filter(|(_, &a)| a)
            .map(|(c, _)| c)
            .collect()
    }

    fn cell_index(&self, p: &[f64]) -> Option<usize> {
        let n = self.domain.dim();
        let mut index = 0usize;
        let mut stride = 1usize;
        for (i, &pi) in p.iter().enumerate().take(n) {
            let iv = self.domain.interval(i);
            if iv.width() == 0.0 {
                return None;
            }
            let mut k = ((pi - iv.lo()) / iv.width() * self.grid as f64).floor() as isize;
            if k == self.grid as isize {
                k -= 1; // upper boundary belongs to the last cell
            }
            if k < 0 || k >= self.grid as isize {
                return None;
            }
            index += (k as usize) * stride;
            stride *= self.grid;
        }
        Some(index)
    }

    /// Appends to `ranges` the index range (per dimension) of the cells a
    /// box overlaps; `false` when the box pokes outside the domain.
    fn cell_range(&self, b: &BoxRegion, ranges: &mut Vec<(usize, usize)>) -> bool {
        for i in 0..self.domain.dim() {
            let dom = self.domain.interval(i);
            let cell = b.interval(i);
            if cell.lo() < dom.lo() - 1e-12 || cell.hi() > dom.hi() + 1e-12 {
                return false;
            }
            let w = dom.width() / self.grid as f64;
            let lo =
                (((cell.lo() - dom.lo()) / w).floor() as isize).clamp(0, self.grid as isize - 1);
            let hi_raw = ((cell.hi() - dom.lo()) / w).ceil() as isize;
            let hi = (hi_raw - 1).clamp(lo, self.grid as isize - 1);
            ranges.push((lo as usize, hi as usize));
        }
        true
    }
}

/// Computes an under-approximated control invariant set of `sys` under the
/// certified controller `controller` over the system's verification domain.
///
/// The per-cell one-step image precompute (the dominant cost) fans out over
/// `workers` threads, so the result is bit-identical for every
/// `workers >= 1`. The fixpoint then runs on the calling thread: a sweep
/// only reads a bitmap, far too little work to share out.
///
/// # Errors
///
/// Returns [`VerifyError::DimensionMismatch`] when the enclosure and plant
/// disagree on dimensions.
///
/// # Panics
///
/// Panics if `config.grid == 0` or the grid has `u32::MAX` cells or more.
pub fn invariant_set_with_workers(
    sys: &dyn Dynamics,
    controller: &dyn ControlEnclosure,
    config: &InvariantConfig,
    workers: usize,
) -> Result<InvariantResult, VerifyError> {
    let start = Instant::now();
    let images = cell_images(sys, controller, config, workers, &NullSink)?;
    Ok(fixpoint(sys, &images, config, start, &NullSink))
}

/// The invariant's grid cells and their one-step images, in flat cell
/// order (dimension 0 fastest): what [`fixpoint`] decides the cells from,
/// kept for the reachability analysis of the same certificate (see
/// [`crate::reach`]).
pub(crate) struct CellImages {
    /// Cells per dimension.
    pub grid: usize,
    /// The cells' intervals on each axis, [`Interval::subdivide`] of the
    /// domain's: cell `(k₀, …)` is the box of `axes[i][kᵢ]`, which is
    /// `domain.subdivide(grid)`'s cell.
    pub axes: Vec<Vec<Interval>>,
    /// [`crate::reach::one_step_image`] of every cell.
    pub images: Vec<BoxRegion>,
}

impl CellImages {
    /// The image of cell `flat`, when that cell's intervals are `cell` bit
    /// for bit.
    pub(crate) fn image_of(&self, mut flat: usize, cell: &[Interval]) -> Option<&BoxRegion> {
        let image = self.images.get(flat)?;
        let same = self.axes.len() == cell.len()
            && self.axes.iter().zip(cell).all(|(axis, b)| {
                let a = axis[flat % self.grid];
                flat /= self.grid;
                a.lo().to_bits() == b.lo().to_bits() && a.hi().to_bits() == b.hi().to_bits()
            });
        same.then_some(image)
    }
}

/// The invariant's grid cells and their one-step images, the work fanned
/// out over `workers` threads (see [`stripe_images`]); a
/// `verify/invariant/images` span on `tel` meters it.
///
/// # Errors
///
/// Returns [`VerifyError::DimensionMismatch`] when the enclosure and plant
/// disagree on dimensions.
///
/// # Panics
///
/// See [`invariant_set_with_workers`].
pub(crate) fn cell_images(
    sys: &dyn Dynamics,
    controller: &dyn ControlEnclosure,
    config: &InvariantConfig,
    workers: usize,
    tel: &dyn Telemetry,
) -> Result<CellImages, VerifyError> {
    assert!(config.grid > 0, "grid must be positive");
    if controller.state_dim() != sys.state_dim() || controller.control_dim() != sys.control_dim() {
        return Err(VerifyError::DimensionMismatch {
            detail: format!(
                "enclosure {}→{} vs plant {}→{}",
                controller.state_dim(),
                controller.control_dim(),
                sys.state_dim(),
                sys.control_dim()
            ),
        });
    }
    let grid = config.grid;
    let axes: Vec<Vec<Interval>> = sys
        .verification_domain()
        .intervals()
        .iter()
        .map(|iv| iv.subdivide(grid))
        .collect();
    let total = grid.pow(axes.len() as u32);
    assert!(
        u32::try_from(total).is_ok_and(|t| t < u32::MAX),
        "invariant grid of {total} cells exceeds the u32 index range"
    );
    let _span = Span::enter(tel, "verify/invariant/images");
    let images = stripe_images(sys, controller, &axes, workers);
    Ok(CellImages { grid, axes, images })
}

/// The Jacobi fixpoint over `cells`, on the calling thread; a
/// `verify/invariant/fixpoint` span on `tel` meters it. The result's
/// `duration` counts from `start`.
pub(crate) fn fixpoint(
    sys: &dyn Dynamics,
    cells: &CellImages,
    config: &InvariantConfig,
    start: Instant,
    tel: &dyn Telemetry,
) -> InvariantResult {
    let _span = Span::enter(tel, "verify/invariant/fixpoint");
    let domain = sys.verification_domain();
    let grid = cells.grid;
    let total = cells.images.len();
    let mut result = InvariantResult {
        domain,
        grid,
        alive: vec![true; total],
        iterations: 0,
        converged: false,
        duration: Duration::ZERO,
    };

    // image cell-ranges never change between sweeps; resolve each once
    // into the summed-area offsets of its corners (`inside` is false
    // where the image leaves X)
    let n = result.domain.dim();
    let mut dead = DeadCells::new(grid, n);
    let mut corners = Vec::with_capacity(total << n);
    let mut ranges = Vec::with_capacity(n);
    let inside: Vec<bool> = cells
        .images
        .iter()
        .map(|image| {
            ranges.clear();
            let inside = result.cell_range(image, &mut ranges);
            ranges.resize(n, (0, 0));
            dead.push_corners(&ranges, &mut corners);
            inside
        })
        .collect();

    let mut keep = vec![false; total];
    for iteration in 1..=config.max_iterations {
        // Jacobi sweep: keep-decisions read only the previous sweep's
        // bitmap, removals apply after the sweep. The sweep count is a
        // certificate field, so a sweep must never see its own removals.
        dead.count(&result.alive);
        let mut removed = false;
        for ((keep, corners), (&alive, &inside)) in keep
            .iter_mut()
            .zip(corners.chunks_exact(1 << n))
            .zip(result.alive.iter().zip(&inside))
        {
            *keep = alive && inside && dead.none_in(corners);
            removed |= alive && !*keep;
        }
        std::mem::swap(&mut result.alive, &mut keep);
        result.iterations = iteration;
        if !removed {
            result.converged = true;
            break;
        }
    }
    result.duration = start.elapsed();
    result
}

/// The one-step images of the cells of the product grid over `axes` (the
/// cells' intervals on each axis), in flat order.
///
/// The slowest axis is cut into at most `workers` balanced stripes of
/// contiguous rows. A stripe is a contiguous run of cells and a product
/// grid itself, so whichever thread claims it encloses it with one
/// [`ControlEnclosure::enclose_grid`] call and steps its cells; the
/// stripes are concatenated in order. Every image is
/// [`crate::reach::one_step_image`] of its cell, bit for bit, for any
/// `workers`.
fn stripe_images(
    sys: &dyn Dynamics,
    controller: &dyn ControlEnclosure,
    axes: &[Vec<Interval>],
    workers: usize,
) -> Vec<BoxRegion> {
    let bounds = sys.control_bounds();
    let omega = disturbance(sys);
    let slowest = axes.len() - 1;
    let grid = axes[slowest].len();
    let stripes = workers.clamp(1, grid);
    let m = controller.control_dim();
    let stripe = |s: usize| {
        let rows = s * grid / stripes..(s + 1) * grid / stripes;
        let mut view: Vec<&[Interval]> = axes.iter().map(Vec::as_slice).collect();
        view[slowest] = &axes[slowest][rows];
        let enclosures = controller.enclose_grid(&view);
        let (mut cell, mut clamped) = (Vec::with_capacity(axes.len()), Vec::with_capacity(m));
        enclosures
            .chunks_exact(m)
            .enumerate()
            .map(|(mut flat, u)| {
                cell.clear();
                cell.extend(view.iter().map(|cells| {
                    let iv = cells[flat % cells.len()];
                    flat /= cells.len();
                    iv
                }));
                step_image(sys, &cell, u, &bounds, &omega, &mut clamped)
            })
            .collect::<Vec<_>>()
    };
    cocktail_math::parallel::map_range_with_workers(stripes, workers, stripe)
        .into_iter()
        .flatten()
        .collect()
}

/// A summed-area table of the dead cells of a `gridⁿ` bitmap, so that a
/// sweep decides each cell with `2ⁿ` loads and adds instead of visiting
/// every cell its image overlaps.
struct DeadCells {
    grid: usize,
    dims: usize,
    /// At the flat index of `(k₀, …)`: how many cells `(j₀, …)` with
    /// `jᵢ ≤ kᵢ` for every `i` are dead. One more slot, after the last
    /// cell, holds 0: the corner that falls below index 0.
    sums: Vec<u32>,
    /// Per corner of a range, `1` or `−1` (wrapping) by the parity of its
    /// lower ends (see [`Self::push_corners`]).
    signs: Vec<u32>,
}

impl DeadCells {
    fn new(grid: usize, dims: usize) -> Self {
        let signs = (0..1usize << dims)
            .map(|corner| {
                if (dims as u32 - corner.count_ones()).is_multiple_of(2) {
                    1
                } else {
                    u32::MAX
                }
            })
            .collect();
        Self {
            grid,
            dims,
            sums: Vec::new(),
            signs,
        }
    }

    /// Rebuilds the table from `alive`, one prefix-sum pass per axis.
    fn count(&mut self, alive: &[bool]) {
        self.sums.clear();
        self.sums.extend(alive.iter().map(|&a| u32::from(!a)));
        let mut stride = 1;
        for _ in 0..self.dims {
            // blocks of `grid` runs of `stride` cells along this axis
            for block in self.sums.chunks_exact_mut(stride * self.grid) {
                for k in stride..block.len() {
                    block[k] += block[k - stride];
                }
            }
            stride *= self.grid;
        }
        // the zero slot
        self.sums.push(0);
    }

    /// Appends the `2ⁿ` table offsets of the inclusion–exclusion sum over
    /// the per-dimension index `ranges`: corner `c` takes the range's upper
    /// end on each axis whose bit is set in `c` and one below its lower
    /// end on the others, and is the zero slot when one of those is below
    /// index 0. Its sign is [`Self::signs`]`[c]`.
    fn push_corners(&self, ranges: &[(usize, usize)], out: &mut Vec<u32>) {
        let zero = self.grid.pow(self.dims as u32);
        out.extend((0..1usize << ranges.len()).map(|corner| {
            let (mut flat, mut stride) = (0, 1);
            for (i, &(lo, hi)) in ranges.iter().enumerate() {
                let k = if corner >> i & 1 == 1 {
                    hi
                } else if lo == 0 {
                    flat = zero;
                    break;
                } else {
                    lo - 1
                };
                flat += k * stride;
                stride *= self.grid;
            }
            // below `u32::MAX` cells, checked by the caller
            flat as u32
        }));
    }

    /// Whether no cell of the range whose corners [`Self::push_corners`]
    /// gave is dead. The count is exact modulo 2³², and no count reaches
    /// 2³², so it is 0 exactly when the range has no dead cell.
    fn none_in(&self, corners: &[u32]) -> bool {
        corners
            .iter()
            .zip(&self.signs)
            .fold(0u32, |dead, (&at, &sign)| {
                dead.wrapping_add(self.sums[at as usize].wrapping_mul(sign))
            })
            == 0
    }
}

/// Whether every grid cell in the per-dimension index `ranges` is alive.
fn all_alive(ranges: &[(usize, usize)], alive: &[bool], grid: usize) -> bool {
    let mut idx: Vec<usize> = ranges.iter().map(|r| r.0).collect();
    loop {
        let mut flat = 0usize;
        let mut stride = 1usize;
        for &k in &idx {
            flat += k * stride;
            stride *= grid;
        }
        if !alive[flat] {
            return false;
        }
        // advance the per-dimension counter
        let mut d = 0;
        loop {
            if d == idx.len() {
                return true;
            }
            idx[d] += 1;
            if idx[d] <= ranges[d].1 {
                break;
            }
            idx[d] = ranges[d].0;
            d += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enclosure::LinearEnclosure;
    use cocktail_env::systems::VanDerPol;
    use cocktail_math::Matrix;

    fn damped_enclosure() -> LinearEnclosure {
        LinearEnclosure::new(Matrix::from_rows(vec![vec![3.0, 4.0]]))
    }

    #[test]
    fn stable_loop_has_nonempty_invariant_set() {
        let sys = VanDerPol::new();
        let enc = damped_enclosure();
        let result = invariant_set_with_workers(
            &sys,
            &enc,
            &InvariantConfig {
                grid: 24,
                ..Default::default()
            },
            2,
        )
        .expect("dimensions agree");
        assert!(
            result.alive_fraction() > 0.05,
            "fraction {}",
            result.alive_fraction()
        );
        assert!(result.contains(&[0.0, 0.0]), "origin must be invariant");
        assert!(result.iterations > 0);
    }

    #[test]
    fn invariant_cells_are_actually_invariant_under_simulation() {
        let sys = VanDerPol::new();
        let enc = damped_enclosure();
        let result = invariant_set_with_workers(
            &sys,
            &enc,
            &InvariantConfig {
                grid: 24,
                ..Default::default()
            },
            2,
        )
        .expect("dimensions agree");
        let controller = cocktail_control::LinearFeedbackController::new(Matrix::from_rows(vec![
            vec![3.0, 4.0],
        ]));
        use cocktail_control::Controller;
        let mut rng = cocktail_math::rng::seeded(13);
        let cells = result.cells();
        assert!(!cells.is_empty());
        for cell in cells.iter().take(30) {
            let mut s = cell.center();
            // simulate with worst-case-ish disturbance samples
            for step in 0..200 {
                assert!(
                    sys.verification_domain().contains(&s),
                    "invariant trajectory escaped X at step {step}: {s:?}"
                );
                let u = sys.clip_control(&controller.control(&s));
                let w = cocktail_math::rng::uniform_symmetric(&mut rng, 1, 0.05);
                s = sys.step(&s, &u, &w);
            }
        }
    }

    #[test]
    fn worker_count_does_not_change_the_invariant_set() {
        let sys = VanDerPol::new();
        let enc = damped_enclosure();
        let cfg = InvariantConfig {
            grid: 20,
            ..Default::default()
        };
        let reference = invariant_set_with_workers(&sys, &enc, &cfg, 1).expect("ok");
        assert!(reference.converged);
        for workers in [2usize, 8] {
            let got = invariant_set_with_workers(&sys, &enc, &cfg, workers).expect("ok");
            assert_eq!(got.alive(), reference.alive(), "workers = {workers}");
            assert_eq!(got.iterations, reference.iterations, "workers = {workers}");
            assert_eq!(got.converged, reference.converged, "workers = {workers}");
        }
    }

    #[test]
    fn unstable_loop_has_empty_invariant_set() {
        let sys = VanDerPol::new();
        // positive feedback pushes everything out
        let enc = LinearEnclosure::new(Matrix::from_rows(vec![vec![-10.0, -10.0]]));
        let result = invariant_set_with_workers(
            &sys,
            &enc,
            &InvariantConfig {
                grid: 16,
                ..Default::default()
            },
            2,
        )
        .expect("dimensions agree");
        assert!(
            result.alive_fraction() < 0.05,
            "fraction {}",
            result.alive_fraction()
        );
    }

    #[test]
    fn contains_rejects_outside_domain() {
        let sys = VanDerPol::new();
        let enc = damped_enclosure();
        let result = invariant_set_with_workers(
            &sys,
            &enc,
            &InvariantConfig {
                grid: 8,
                ..Default::default()
            },
            2,
        )
        .expect("dimensions agree");
        assert!(!result.contains(&[5.0, 5.0]));
    }

    #[test]
    fn dimension_mismatch_is_error() {
        let sys = VanDerPol::new();
        let enc = LinearEnclosure::new(Matrix::identity(3));
        let err = invariant_set_with_workers(&sys, &enc, &InvariantConfig::default(), 2)
            .expect_err("3 != 2 must fail");
        assert!(matches!(err, VerifyError::DimensionMismatch { .. }));
    }

    /// A 3-D chain `x ← y ← z ← u` that leaks 5% a step, on `[−1, 1]³`,
    /// with a cubic drift that pushes large `|x|` out: the invariant set
    /// is a core around `x = 0`, or empty when the feedback destabilizes.
    struct Chain3;

    impl Dynamics for Chain3 {
        fn name(&self) -> &str {
            "chain-3"
        }

        fn state_dim(&self) -> usize {
            3
        }

        fn control_dim(&self) -> usize {
            1
        }

        fn disturbance_dim(&self) -> usize {
            0
        }

        fn step(&self, s: &[f64], u: &[f64], _: &[f64]) -> Vec<f64> {
            vec![
                0.95 * s[0] + 0.05 * s[1] + 0.1 * s[0].powi(3),
                0.95 * s[1] + 0.05 * s[2],
                0.95 * s[2] + 0.1 * u[0],
            ]
        }

        fn step_interval(&self, s: &[Interval], u: &[Interval], _: &[Interval]) -> Vec<Interval> {
            vec![
                s[0] * 0.95 + s[1] * 0.05 + s[0].powi(3) * 0.1,
                s[1] * 0.95 + s[2] * 0.05,
                s[2] * 0.95 + u[0] * 0.1,
            ]
        }

        fn is_safe(&self, s: &[f64]) -> bool {
            self.verification_domain().contains(s)
        }

        fn initial_set(&self) -> BoxRegion {
            BoxRegion::cube(3, -0.2, 0.2)
        }

        fn verification_domain(&self) -> BoxRegion {
            BoxRegion::cube(3, -1.0, 1.0)
        }

        fn control_bounds(&self) -> (Vec<f64>, Vec<f64>) {
            (vec![-5.0], vec![5.0])
        }

        fn disturbance_amplitude(&self) -> Vec<f64> {
            Vec::new()
        }

        fn horizon(&self) -> usize {
            20
        }
    }

    /// A 1-D plant on `[−1, 1]` that leaks 10% a step, with a cubic drift
    /// that pushes large `|x|` out.
    struct Leak1;

    impl Dynamics for Leak1 {
        fn name(&self) -> &str {
            "leak-1"
        }

        fn state_dim(&self) -> usize {
            1
        }

        fn control_dim(&self) -> usize {
            1
        }

        fn disturbance_dim(&self) -> usize {
            1
        }

        fn step(&self, s: &[f64], u: &[f64], w: &[f64]) -> Vec<f64> {
            vec![0.9 * s[0] + 0.2 * s[0].powi(3) + 0.1 * u[0] + w[0]]
        }

        fn step_interval(&self, s: &[Interval], u: &[Interval], w: &[Interval]) -> Vec<Interval> {
            vec![s[0] * 0.9 + s[0].powi(3) * 0.2 + u[0] * 0.1 + w[0]]
        }

        fn is_safe(&self, s: &[f64]) -> bool {
            self.verification_domain().contains(s)
        }

        fn initial_set(&self) -> BoxRegion {
            BoxRegion::cube(1, -0.2, 0.2)
        }

        fn verification_domain(&self) -> BoxRegion {
            BoxRegion::cube(1, -1.0, 1.0)
        }

        fn control_bounds(&self) -> (Vec<f64>, Vec<f64>) {
            (vec![-5.0], vec![5.0])
        }

        fn disturbance_amplitude(&self) -> Vec<f64> {
            vec![0.01]
        }

        fn horizon(&self) -> usize {
            20
        }
    }

    /// The fixpoint the summed-area table replaced: every sweep scans each
    /// alive cell's image range against the previous sweep's bitmap.
    /// Returns the bitmap, the sweep count and whether it converged.
    fn fixpoint_by_scan(
        sys: &dyn Dynamics,
        enc: &dyn ControlEnclosure,
        config: &InvariantConfig,
    ) -> (Vec<bool>, usize, bool) {
        let domain = sys.verification_domain();
        let grid = config.grid;
        let cells = domain.subdivide(grid);
        let bounds = sys.control_bounds();
        let omega = disturbance(sys);
        let probe = InvariantResult {
            domain: domain.clone(),
            grid,
            alive: Vec::new(),
            iterations: 0,
            converged: false,
            duration: Duration::ZERO,
        };
        let ranges: Vec<Option<Vec<(usize, usize)>>> = cells
            .iter()
            .map(|cell| {
                let image =
                    crate::reach::one_step_image(sys, enc, cell, &bounds, &omega, &mut Vec::new());
                let mut ranges = Vec::new();
                probe.cell_range(&image, &mut ranges).then_some(ranges)
            })
            .collect();
        let mut alive = vec![true; cells.len()];
        for iteration in 1..=config.max_iterations {
            let keep: Vec<bool> = (0..cells.len())
                .map(|i| {
                    alive[i]
                        && match &ranges[i] {
                            None => false,
                            Some(ranges) => all_alive(ranges, &alive, grid),
                        }
                })
                .collect();
            let removed = alive.iter().zip(&keep).any(|(&a, &k)| a && !k);
            alive = keep;
            if !removed {
                return (alive, iteration, true);
            }
        }
        (alive, config.max_iterations, false)
    }

    #[test]
    fn summed_area_sweeps_match_the_scanning_fixpoint() {
        let mut rng = cocktail_math::rng::seeded(71);
        // (plant, grid, gain centre, spread): stable, marginal and
        // unstable feedback, each around a centre with seeded noise
        let vdp = VanDerPol::new();
        let cases: [(&dyn Dynamics, usize, &[f64], f64); 8] = [
            (&Leak1, 40, &[0.5], 0.3),
            (&Leak1, 25, &[-3.0], 0.5),
            (&vdp, 24, &[3.0, 4.0], 0.5),
            (&vdp, 20, &[0.6, 0.8], 0.2),
            (&vdp, 16, &[-10.0, -10.0], 1.0),
            (&Chain3, 12, &[0.05, 0.05, 0.05], 0.05),
            (&Chain3, 12, &[-0.1, -0.1, -0.1], 0.02),
            (&Chain3, 10, &[-0.3, -0.3, -0.3], 0.1),
        ];
        let mut not_converged = 0;
        for (sys, grid, centre, spread) in cases {
            for _ in 0..2 {
                let noise = cocktail_math::rng::uniform_symmetric(&mut rng, centre.len(), spread);
                let gain: Vec<f64> = centre.iter().zip(&noise).map(|(c, e)| c + e).collect();
                let enc = LinearEnclosure::new(Matrix::from_rows(vec![gain.clone()]));
                let full = InvariantConfig {
                    grid,
                    ..Default::default()
                };
                let (_, sweeps, _) = fixpoint_by_scan(sys, &enc, &full);
                let mut caps = vec![full.max_iterations, 0, 1, 2, sweeps - 1];
                caps.dedup();
                for max_iterations in caps {
                    let config = InvariantConfig {
                        grid,
                        max_iterations,
                    };
                    let (alive, iterations, converged) = fixpoint_by_scan(sys, &enc, &config);
                    let got = invariant_set_with_workers(sys, &enc, &config, 2).expect("ok");
                    let at = format!(
                        "{} grid {grid}, gain {gain:?}, cap {max_iterations}",
                        sys.name()
                    );
                    assert_eq!(got.alive(), &alive[..], "{at}");
                    assert_eq!(got.iterations, iterations, "{at}");
                    assert_eq!(got.converged, converged, "{at}");
                    not_converged += usize::from(!converged);
                }
            }
        }
        assert!(not_converged >= 12, "{not_converged} capped runs");
    }

    #[test]
    fn corner_offsets_match_a_scan_of_the_range() {
        let mut rng = cocktail_math::rng::seeded(73);
        let mut at_index_0 = 0;
        for (dims, grid) in [(1usize, 17usize), (2, 9), (3, 6)] {
            let total = grid.pow(dims as u32);
            let mut dead = DeadCells::new(grid, dims);
            let mut corners = Vec::new();
            for share_dead in [0.0, 0.02, 0.3] {
                for _ in 0..20 {
                    let draws = cocktail_math::rng::uniform_in_box(
                        &mut rng,
                        &BoxRegion::cube(total, 0.0, 1.0),
                    );
                    let alive: Vec<bool> = draws.iter().map(|&d| d >= share_dead).collect();
                    dead.count(&alive);
                    for _ in 0..40 {
                        // index ranges, half of them starting at index 0
                        let ends = cocktail_math::rng::uniform_in_box(
                            &mut rng,
                            &BoxRegion::cube(3 * dims, 0.0, grid as f64),
                        );
                        let ranges: Vec<(usize, usize)> = ends
                            .chunks_exact(3)
                            .map(|e| {
                                let (a, b) = (e[0] as usize, e[1] as usize);
                                let lo = if e[2] < 0.5 * grid as f64 {
                                    0
                                } else {
                                    a.min(b)
                                };
                                (lo, a.max(b))
                            })
                            .collect();
                        at_index_0 += usize::from(ranges.iter().any(|r| r.0 == 0));
                        corners.clear();
                        dead.push_corners(&ranges, &mut corners);
                        assert_eq!(corners.len(), 1 << dims);
                        assert_eq!(
                            dead.none_in(&corners),
                            all_alive(&ranges, &alive, grid),
                            "{dims}-D grid {grid}, {ranges:?}"
                        );
                    }
                }
            }
        }
        assert!(at_index_0 > 1000, "{at_index_0} ranges at index 0");
    }

    #[test]
    fn finer_grid_does_not_shrink_fraction_catastrophically() {
        let sys = VanDerPol::new();
        let enc = damped_enclosure();
        let coarse = invariant_set_with_workers(
            &sys,
            &enc,
            &InvariantConfig {
                grid: 12,
                ..Default::default()
            },
            2,
        )
        .expect("ok");
        let fine = invariant_set_with_workers(
            &sys,
            &enc,
            &InvariantConfig {
                grid: 24,
                ..Default::default()
            },
            2,
        )
        .expect("ok");
        // finer grids reduce conservatism: the invariant fraction should not collapse
        assert!(fine.alive_fraction() >= 0.5 * coarse.alive_fraction());
    }
}
