//! Finite-horizon reachable-set computation (Definition 2, Fig. 4).
//!
//! Gridded-paving reachability: the verification domain is tiled into
//! cells of the configured width and each reachable frame is a set of
//! occupied cells. Per step, every occupied cell's one-step interval image
//! (controller bounds from a sound [`ControlEnclosure`], disturbance `Ω`,
//! with the Bernstein error `ε` already folded into the enclosure —
//! the paper's `Ω ⊕ ε`) marks the cells it intersects. Snapping to the
//! grid bounds the wrapping effect and keeps the cell count finite.
//!
//! A cell's one-step image — enclosure, clamp to the control bounds,
//! interval step, and the cells it overlaps — depends on nothing but the
//! cell (enclosures are deterministic), so each distinct cell is stepped
//! once per analysis: the first frame that occupies it computes its image,
//! later frames reuse it. The images are merged in occupied-cell order
//! exactly as if recomputed, so the frames, `verified_safe`, the step of a
//! `fail_on_unsafe` error and `peak_boxes` are unchanged. The memo is a
//! list sorted by flat cell index, read in one merge walk per step (a
//! frame is sorted too), with every image's overlap ranges in one shared
//! buffer; it lives only for one call and never holds more entries than
//! the frames it returns, however many cells the paving has. A frame is a
//! sorted list of distinct flat indices: an image's cells are pushed, and
//! the list is sorted and deduplicated at the end of the step (and
//! whenever repeats have doubled it, so they cannot pile up). Cells are
//! built as [`BoxRegion`]s only for the frames returned and for the cells
//! reach encloses itself.
//!
//! Inside [`crate::cert::certify_controller`] the invariant fixpoint has
//! already computed the same `one_step_image` for every cell of its own
//! grid. When the paving has as many cells per dimension as that grid and
//! a cell is, bit for bit, the invariant cell with the same flat index,
//! reach takes that image instead of enclosing the cell again; any other
//! cell is computed here. On the 2-D export budgets the two grids
//! coincide and reach encloses nothing itself.
//!
//! The cell budget is explicit: exceeding it returns
//! [`VerifyError::ResourceExhausted`], which is how the paper's "`κ_D` could
//! not be verified (segmentation fault after 12 reachable-set steps)"
//! manifests here.

use crate::enclosure::ControlEnclosure;
use crate::error::VerifyError;
use crate::invariant::CellImages;
use cocktail_env::Dynamics;
use cocktail_math::{BoxRegion, Interval};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// How reachable sets are represented between steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReachMode {
    /// Snap every image onto a global grid of `split_width` cells. Bounded
    /// memory and robust against the wrapping effect over long horizons,
    /// at the cost of up to one cell of inflation per dimension per step.
    /// Right for noisy plants and long horizons (the Fig. 3 setting).
    GridPaving,
    /// Keep exact image boxes, bisecting any box wider than `split_width`
    /// before stepping. No snap inflation — right for short horizons from
    /// small initial sets (the Fig. 4 setting) — but the box count can
    /// grow without bound on expansive flows.
    Subdivision,
}

/// Configuration for [`reach_analysis`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReachConfig {
    /// Number of forward steps `T`.
    pub steps: usize,
    /// Grid cell width ([`ReachMode::GridPaving`]) or maximum box width
    /// before bisection ([`ReachMode::Subdivision`]).
    pub split_width: f64,
    /// Maximum number of cells/boxes alive at any step.
    pub max_boxes: usize,
    /// Fail with [`VerifyError::Unsafe`] as soon as a reachable image
    /// leaves the safe domain; when `false` the result records
    /// `verified_safe = false` and the outside part is discarded (sound
    /// only for safety *refutation*, so the flag matters).
    pub fail_on_unsafe: bool,
    /// Set representation between steps.
    pub mode: ReachMode,
}

impl Default for ReachConfig {
    fn default() -> Self {
        Self {
            steps: 15,
            split_width: 0.02,
            max_boxes: 100_000,
            fail_on_unsafe: false,
            mode: ReachMode::GridPaving,
        }
    }
}

/// The result of a reachability run.
#[derive(Debug, Clone)]
pub struct ReachResult {
    /// Reachable cell union per step, `steps + 1` frames (frame 0 covers
    /// the initial box).
    pub frames: Vec<Vec<BoxRegion>>,
    /// Whether every reachable image stayed inside the safe domain.
    pub verified_safe: bool,
    /// Wall-clock time of the analysis (the paper's verifiability metric).
    pub duration: Duration,
    /// Peak number of simultaneously-occupied cells.
    pub peak_boxes: usize,
}

impl ReachResult {
    /// The tightest single box containing the final frame.
    #[allow(
        clippy::expect_used,
        reason = "a reach result always records the initial frame"
    )]
    pub fn final_hull(&self) -> BoxRegion {
        let last = self.frames.last().expect("at least the initial frame");
        let mut hull = last[0].clone();
        for b in &last[1..] {
            hull = hull.hull(b);
        }
        hull
    }
}

/// The per-dimension index ranges of the cells a box overlaps, and whether
/// the box pokes outside the domain.
#[cfg(test)]
type Overlap = (Vec<(usize, usize)>, bool);

/// What the paving knows of an occupied cell's one-step image: where its
/// overlap ranges start in the shared buffer and whether it pokes outside
/// the domain, or `None` when it lies wholly outside.
type Stepped = Option<(usize, bool)>;

/// Uniform grid over a box.
struct Grid {
    domain: BoxRegion,
    counts: Vec<usize>,
}

impl Grid {
    fn new(domain: BoxRegion, cell_width: f64) -> Self {
        let counts = domain
            .intervals()
            .iter()
            .map(|iv| ((iv.width() / cell_width).ceil() as usize).max(1))
            .collect();
        Self { domain, counts }
    }

    /// Cell `k`'s interval on `axis`.
    fn cell_interval(&self, axis: usize, k: usize) -> Interval {
        let iv = self.domain.interval(axis);
        let w = iv.width() / self.counts[axis] as f64;
        Interval::new(iv.lo() + k as f64 * w, iv.lo() + (k + 1) as f64 * w)
    }

    /// Writes the intervals of the cell with flat index `flat` into `out`.
    fn cell_into(&self, mut flat: usize, out: &mut Vec<Interval>) {
        out.clear();
        for (axis, &count) in self.counts.iter().enumerate() {
            out.push(self.cell_interval(axis, flat % count));
            flat /= count;
        }
    }

    /// The cell with flat index `flat`.
    fn cell_box(&self, flat: usize) -> BoxRegion {
        let mut dims = Vec::with_capacity(self.counts.len());
        self.cell_into(flat, &mut dims);
        BoxRegion::new(dims)
    }

    /// Appends to `ranges` the per-dimension index ranges of the cells a
    /// box overlaps and returns whether the box pokes outside the domain,
    /// or returns `None`, appending nothing, when the box lies entirely
    /// outside the domain in some dimension.
    fn overlap_into(&self, b: &BoxRegion, ranges: &mut Vec<(usize, usize)>) -> Option<bool> {
        let start = ranges.len();
        let mut clipped = false;
        for i in 0..self.counts.len() {
            let dom = self.domain.interval(i);
            let cell = b.interval(i);
            if cell.hi() < dom.lo() || cell.lo() > dom.hi() {
                ranges.truncate(start);
                return None;
            }
            if cell.lo() < dom.lo() - 1e-12 || cell.hi() > dom.hi() + 1e-12 {
                clipped = true;
            }
            let w = dom.width() / self.counts[i] as f64;
            let lo = (((cell.lo() - dom.lo()) / w).floor() as isize)
                .clamp(0, self.counts[i] as isize - 1) as usize;
            let hi_raw = ((cell.hi() - dom.lo()) / w).ceil() as isize - 1;
            let hi = hi_raw.clamp(lo as isize, self.counts[i] as isize - 1) as usize;
            ranges.push((lo, hi));
        }
        Some(clipped)
    }

    /// [`Self::overlap_into`] into a list of its own.
    #[cfg(test)]
    fn overlap_ranges(&self, b: &BoxRegion) -> Option<Overlap> {
        let mut ranges = Vec::with_capacity(self.counts.len());
        self.overlap_into(b, &mut ranges)
            .map(|clipped| (ranges, clipped))
    }

    /// Appends all cells in the given per-dimension ranges to `cells`,
    /// dimension 0 fastest. `idx` is working memory.
    fn mark(&self, ranges: &[(usize, usize)], cells: &mut Vec<usize>, idx: &mut Vec<usize>) {
        idx.clear();
        idx.extend(ranges.iter().map(|r| r.0));
        // the flat index of the range's first cell
        let mut flat = 0;
        let mut stride = 1;
        for (&(lo, _), &count) in ranges.iter().zip(&self.counts) {
            flat += lo * stride;
            stride *= count;
        }
        let (first_lo, first_hi) = ranges[0];
        loop {
            // a run along dimension 0 is contiguous
            cells.extend(flat..=flat + (first_hi - first_lo));
            let mut d = 1;
            let mut stride = self.counts[0];
            loop {
                if d == idx.len() {
                    return;
                }
                if idx[d] < ranges[d].1 {
                    idx[d] += 1;
                    flat += stride;
                    break;
                }
                flat -= (idx[d] - ranges[d].0) * stride;
                idx[d] = ranges[d].0;
                stride *= self.counts[d];
                d += 1;
            }
        }
    }
}

/// Runs the reachability analysis from the initial box `x0`.
///
/// The safe region used for containment is the system's
/// [`Dynamics::verification_domain`] (equal to `X` for the oscillator and
/// 3D system; a conservative finite surrogate for cartpole).
///
/// # Errors
///
/// * [`VerifyError::ResourceExhausted`] — cell budget exceeded;
/// * [`VerifyError::DomainEscape`] — the entire reachable image left the
///   certified domain, so no sound continuation exists;
/// * [`VerifyError::Unsafe`] — only with `fail_on_unsafe`, a reachable
///   image left the safe region.
///
/// # Panics
///
/// Panics if dimensions of the plant, enclosure and `x0` disagree, or
/// `split_width <= 0`.
pub fn reach_analysis(
    sys: &dyn Dynamics,
    controller: &dyn ControlEnclosure,
    x0: &BoxRegion,
    config: &ReachConfig,
) -> Result<ReachResult, VerifyError> {
    reach_with_images(sys, controller, x0, config, None).map(|(result, _)| result)
}

/// [`reach_analysis`] that takes a cell's one-step image from `known`, the
/// invariant's cells and images under the same `controller`, instead of
/// computing it, when the paving has `known.grid` cells in every
/// dimension and the cell is, bit for bit, the invariant cell with the
/// same flat index. Both grids index dimension 0 fastest, and both images
/// are [`one_step_image`] of the cell, so the result is that of
/// [`reach_analysis`]. Returns it with the number of images taken.
///
/// # Errors
///
/// See [`reach_analysis`].
///
/// # Panics
///
/// See [`reach_analysis`].
pub(crate) fn reach_with_images(
    sys: &dyn Dynamics,
    controller: &dyn ControlEnclosure,
    x0: &BoxRegion,
    config: &ReachConfig,
    known: Option<&CellImages>,
) -> Result<(ReachResult, usize), VerifyError> {
    assert_eq!(x0.dim(), sys.state_dim(), "initial box dimension mismatch");
    assert_eq!(
        controller.state_dim(),
        sys.state_dim(),
        "enclosure dimension mismatch"
    );
    assert_eq!(
        controller.control_dim(),
        sys.control_dim(),
        "control dimension mismatch"
    );
    assert!(config.split_width > 0.0, "split width must be positive");
    if config.mode == ReachMode::Subdivision {
        return reach_by_subdivision(sys, controller, x0, config).map(|result| (result, 0));
    }
    let start = Instant::now();
    let grid = Grid::new(sys.verification_domain(), config.split_width);
    let bounds = sys.control_bounds();
    let omega = disturbance(sys);
    let known = known.filter(|k| grid.counts.iter().all(|&c| c == k.grid));
    let mut reused = 0;

    // the cells stepped so far, sorted by flat index, with their images;
    // every image's overlap ranges, `n` per image, in `spans`
    let mut memo: Vec<(usize, Stepped)> = Vec::new();
    let (mut fresh, mut merged) = (Vec::new(), Vec::new());
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let n = grid.counts.len();
    let (mut cell, mut clamped, mut idx) = (Vec::with_capacity(n), Vec::new(), Vec::new());
    // the occupied cells' flat indices, sorted and distinct
    let mut occupied = Vec::new();
    let init_clipped = grid
        .overlap_into(x0, &mut spans)
        .ok_or(VerifyError::DomainEscape { step: 0 })?;
    grid.mark(&spans, &mut occupied, &mut idx);
    spans.clear();
    settle(&mut occupied);
    let mut verified_safe = !init_clipped;
    let mut peak = occupied.len();
    let mut frames = vec![cells_to_boxes(&grid, &occupied)];

    for step in 0..config.steps {
        if occupied.len() > config.max_boxes {
            return Err(VerifyError::ResourceExhausted {
                resource: "reachable cells",
                budget: config.max_boxes,
            });
        }
        let mut next = Vec::new();
        let mut settled = 0;
        let mut any_inside = false;
        // both lists are sorted: one merge walk finds the stepped cells
        let mut seen = memo.iter().peekable();
        fresh.clear();
        for &flat in &occupied {
            while seen.next_if(|(f, _)| *f < flat).is_some() {}
            let stepped = match seen.next_if(|(f, _)| *f == flat) {
                Some(&(_, stepped)) => stepped,
                None => {
                    grid.cell_into(flat, &mut cell);
                    let at = spans.len();
                    let clipped = match known.and_then(|k| k.image_of(flat, &cell)) {
                        Some(image) => {
                            reused += 1;
                            grid.overlap_into(image, &mut spans)
                        }
                        None => {
                            let cell = BoxRegion::new(cell.clone());
                            let image = one_step_image(
                                sys,
                                controller,
                                &cell,
                                &bounds,
                                &omega,
                                &mut clamped,
                            );
                            grid.overlap_into(&image, &mut spans)
                        }
                    };
                    let stepped = clipped.map(|clipped| (at, clipped));
                    fresh.push((flat, stepped));
                    stepped
                }
            };
            match stepped {
                None => {
                    verified_safe = false;
                    if config.fail_on_unsafe {
                        return Err(VerifyError::Unsafe { step: step + 1 });
                    }
                }
                Some((at, clipped)) => {
                    any_inside = true;
                    if clipped {
                        verified_safe = false;
                        if config.fail_on_unsafe {
                            return Err(VerifyError::Unsafe { step: step + 1 });
                        }
                    }
                    grid.mark(&spans[at..at + n], &mut next, &mut idx);
                    // repeated marks never outgrow the distinct cells by
                    // much more than one image
                    if next.len() >= 2 * settled.max(4096) {
                        settle(&mut next);
                        settled = next.len();
                    }
                }
            }
        }
        merge_sorted(&mut memo, &fresh, &mut merged);
        settle(&mut next);
        if !any_inside {
            return Err(VerifyError::DomainEscape { step: step + 1 });
        }
        if next.len() > config.max_boxes {
            return Err(VerifyError::ResourceExhausted {
                resource: "reachable cells",
                budget: config.max_boxes,
            });
        }
        peak = peak.max(next.len());
        frames.push(cells_to_boxes(&grid, &next));
        occupied = next;
    }

    let result = ReachResult {
        frames,
        verified_safe,
        duration: start.elapsed(),
        peak_boxes: peak,
    };
    Ok((result, reused))
}

/// Merges `fresh` into `memo`, both sorted by flat cell index and
/// disjoint, through `scratch`.
fn merge_sorted(
    memo: &mut Vec<(usize, Stepped)>,
    fresh: &[(usize, Stepped)],
    scratch: &mut Vec<(usize, Stepped)>,
) {
    if fresh.is_empty() {
        return;
    }
    scratch.clear();
    let mut old = memo.iter().peekable();
    for &entry in fresh {
        while let Some(&&earlier) = old.peek().filter(|(f, _)| *f < entry.0) {
            scratch.push(earlier);
            old.next();
        }
        scratch.push(entry);
    }
    scratch.extend(old);
    std::mem::swap(memo, scratch);
}

/// The disturbance set `Ω` of `sys`, one interval per disturbance input.
pub(crate) fn disturbance(sys: &dyn Dynamics) -> Vec<Interval> {
    sys.disturbance_amplitude()
        .iter()
        .map(|&a| Interval::symmetric(a))
        .collect()
}

/// A cell's one-step interval image: the controller's enclosure over the
/// cell, clamped to the control `bounds`, through the interval dynamics
/// with disturbance `omega`. `clamped` is working memory.
pub(crate) fn one_step_image(
    sys: &dyn Dynamics,
    controller: &dyn ControlEnclosure,
    cell: &BoxRegion,
    bounds: &(Vec<f64>, Vec<f64>),
    omega: &[Interval],
    clamped: &mut Vec<Interval>,
) -> BoxRegion {
    step_image(
        sys,
        cell.intervals(),
        &controller.enclose(cell),
        bounds,
        omega,
        clamped,
    )
}

/// [`one_step_image`] of the cell with intervals `cell` from the
/// controller's enclosure `u` over it. `clamped` is working memory for the
/// clamped enclosure.
pub(crate) fn step_image(
    sys: &dyn Dynamics,
    cell: &[Interval],
    u: &[Interval],
    (u_lo, u_hi): &(Vec<f64>, Vec<f64>),
    omega: &[Interval],
    clamped: &mut Vec<Interval>,
) -> BoxRegion {
    clamped.clear();
    clamped.extend(
        u.iter()
            .zip(u_lo.iter().zip(u_hi))
            .map(|(iv, (&l, &h))| iv.clamp_to(l, h)),
    );
    BoxRegion::new(sys.step_interval(cell, clamped, omega))
}

/// Sorts `cells` and drops repeats.
fn settle(cells: &mut Vec<usize>) {
    cells.sort_unstable();
    cells.dedup();
}

fn cells_to_boxes(grid: &Grid, cells: &[usize]) -> Vec<BoxRegion> {
    cells.iter().map(|&f| grid.cell_box(f)).collect()
}

/// [`ReachMode::Subdivision`] implementation: exact boxes, bisected to the
/// split width before each step, never snapped.
fn reach_by_subdivision(
    sys: &dyn Dynamics,
    controller: &dyn ControlEnclosure,
    x0: &BoxRegion,
    config: &ReachConfig,
) -> Result<ReachResult, VerifyError> {
    let start = Instant::now();
    let safe_box = sys.verification_domain();
    let (u_lo, u_hi) = sys.control_bounds();
    let omega = disturbance(sys);

    let mut current = vec![x0.clone()];
    let mut verified_safe = safe_box.contains_box(x0);
    let mut peak = 1usize;
    let mut frames = vec![current.clone()];

    for step in 0..config.steps {
        // bisect to the target width, respecting the budget
        let mut queue = std::mem::take(&mut current);
        while let Some(b) = queue.pop() {
            if current.len() + queue.len() + 1 > config.max_boxes {
                return Err(VerifyError::ResourceExhausted {
                    resource: "reachable boxes",
                    budget: config.max_boxes,
                });
            }
            if b.max_width() > config.split_width {
                let (l, r) = b.bisect();
                queue.push(l);
                queue.push(r);
            } else {
                current.push(b);
            }
        }
        peak = peak.max(current.len());

        let mut next = Vec::with_capacity(current.len());
        for q in &current {
            let query = match safe_box.intersect(q) {
                Some(inner) => inner,
                None => {
                    verified_safe = false;
                    if config.fail_on_unsafe {
                        return Err(VerifyError::Unsafe { step });
                    }
                    continue;
                }
            };
            let u: Vec<Interval> = controller
                .enclose(&query)
                .into_iter()
                .zip(u_lo.iter().zip(&u_hi))
                .map(|(iv, (&l, &h))| iv.clamp_to(l, h))
                .collect();
            let image = BoxRegion::new(sys.step_interval(q.intervals(), &u, &omega));
            if !safe_box.contains_box(&image) {
                verified_safe = false;
                if config.fail_on_unsafe {
                    return Err(VerifyError::Unsafe { step: step + 1 });
                }
                match safe_box.intersect(&image) {
                    Some(clipped) => next.push(clipped),
                    None => continue,
                }
            } else {
                next.push(image);
            }
        }
        if next.is_empty() {
            return Err(VerifyError::DomainEscape { step: step + 1 });
        }
        let next = coalesce(next, config.split_width);
        peak = peak.max(next.len());
        frames.push(next.clone());
        current = next;
    }

    Ok(ReachResult {
        frames,
        verified_safe,
        duration: start.elapsed(),
        peak_boxes: peak,
    })
}

/// Merges boxes whose centers fall into the same half-split-width bucket
/// (hull merge). Bounds the box count by the tube volume without the
/// per-step snap inflation of the grid paving.
fn coalesce(boxes: Vec<BoxRegion>, split_width: f64) -> Vec<BoxRegion> {
    use std::collections::BTreeMap;
    let key_width = 0.5 * split_width;
    let mut buckets: BTreeMap<Vec<i64>, BoxRegion> = BTreeMap::new();
    for b in boxes {
        let key: Vec<i64> = b
            .center()
            .iter()
            .map(|c| (c / key_width).floor() as i64)
            .collect();
        buckets
            .entry(key)
            .and_modify(|acc| *acc = acc.hull(&b))
            .or_insert(b);
    }
    buckets.into_values().collect()
}

/// Every interval end of every frame's boxes as bits, so that frames
/// compare bit for bit (`-0.0 != 0.0`).
#[cfg(test)]
pub(crate) fn frame_bits(frames: &[Vec<BoxRegion>]) -> Vec<Vec<Vec<u64>>> {
    frames
        .iter()
        .map(|frame| {
            frame
                .iter()
                .map(|b| {
                    b.intervals()
                        .iter()
                        .flat_map(|iv| [iv.lo().to_bits(), iv.hi().to_bits()])
                        .collect()
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::{default_params, fast_params, SafetyParams};
    use crate::enclosure::{Counting, LinearEnclosure};
    use crate::invariant::cell_images;
    use cocktail_env::systems::{CartPole, Poly3d, VanDerPol};
    use cocktail_math::Matrix;
    use std::collections::BTreeSet;

    /// Clones the stabilizing linear law `u = −(3, 4)·s` into a small
    /// tanh student (output scaled by 20).
    fn stabilizing_student() -> cocktail_nn::Mlp {
        use cocktail_nn::train::{fit_regression, TrainConfig};
        use cocktail_nn::{Activation, MlpBuilder};
        let domain = BoxRegion::cube(2, -2.0, 2.0);
        let mut rng = cocktail_math::rng::seeded(0);
        let states: Vec<Vec<f64>> = (0..512)
            .map(|_| cocktail_math::rng::uniform_in_box(&mut rng, &domain))
            .collect();
        let targets: Vec<Vec<f64>> = states
            .iter()
            .map(|s| vec![(-(3.0 * s[0] + 4.0 * s[1]) / 20.0).clamp(-1.0, 1.0)])
            .collect();
        let mut net = MlpBuilder::new(2)
            .hidden(12, Activation::Tanh)
            .output(1, Activation::Tanh)
            .seed(4)
            .build();
        fit_regression(
            &mut net,
            &states,
            &targets,
            &TrainConfig {
                epochs: 120,
                ..Default::default()
            },
        );
        net
    }

    #[test]
    fn stable_linear_loop_verifies_safe() {
        let sys = VanDerPol::new();
        let enc = LinearEnclosure::new(Matrix::from_rows(vec![vec![3.0, 3.0]]));
        let x0 = BoxRegion::from_bounds(&[0.1, 0.1], &[0.15, 0.15]);
        let result = reach_analysis(
            &sys,
            &enc,
            &x0,
            &ReachConfig {
                steps: 20,
                split_width: 0.05,
                ..Default::default()
            },
        )
        .expect("must verify");
        assert!(result.verified_safe);
        assert_eq!(result.frames.len(), 21);
        assert!(result.peak_boxes >= 1);
    }

    /// The same kind of law cloned into a network: its Bernstein
    /// certificate, tracked by subdivision, must prove the loop safe too.
    #[test]
    fn certifies_a_stabilizing_student() {
        use crate::bernstein::{BernsteinCertificate, CertificateConfig, ErrorMargin};
        let sys = VanDerPol::new();
        let (student, _) = BernsteinCertificate::build_with_workers(
            &stabilizing_student(),
            &[20.0],
            &sys.verification_domain(),
            &CertificateConfig {
                degree: 4,
                tolerance: 0.3,
                max_pieces: 1 << 16,
                error_samples_per_dim: 7,
                margin: ErrorMargin::Lipschitz,
            },
            2,
        )
        .expect("student certifies");
        assert!(student.piece_count() > 0);
        assert!(student.epsilon() <= 0.3 + 1e-12);
        let config = ReachConfig {
            steps: 15,
            split_width: 0.05,
            mode: ReachMode::Subdivision,
            ..Default::default()
        };
        let x0 = BoxRegion::from_bounds(&[0.2, 0.2], &[0.3, 0.3]);
        let result = reach_analysis(&sys, &student, &x0, &config).expect("must verify");
        assert!(result.verified_safe);
        assert_eq!(result.frames.len(), 16);
        assert!(result.peak_boxes >= 1);
    }

    #[test]
    fn reach_over_approximates_simulation() {
        let sys = Poly3d::new();
        let gain = Matrix::from_rows(vec![vec![2.0, 3.0, 3.0]]);
        let enc = LinearEnclosure::new(gain.clone());
        let x0 = BoxRegion::from_bounds(&[-0.11, 0.205, 0.1], &[-0.105, 0.21, 0.11]);
        let result = reach_analysis(
            &sys,
            &enc,
            &x0,
            &ReachConfig {
                steps: 15,
                split_width: 0.02,
                ..Default::default()
            },
        )
        .expect("must verify");
        // simulate concrete trajectories and check frame membership
        let controller = cocktail_control::LinearFeedbackController::new(gain);
        use cocktail_control::Controller;
        let mut rng = cocktail_math::rng::seeded(9);
        for _ in 0..25 {
            let mut s = cocktail_math::rng::uniform_in_box(&mut rng, &x0);
            for frame in &result.frames {
                assert!(
                    frame.iter().any(|b| b.inflate(1e-9).contains(&s)),
                    "state {s:?} escapes its frame"
                );
                let u = sys.clip_control(&controller.control(&s));
                s = sys.step(&s, &u, &[]);
            }
        }
    }

    #[test]
    fn tiny_budget_exhausts() {
        let sys = VanDerPol::new();
        let enc = LinearEnclosure::new(Matrix::from_rows(vec![vec![3.0, 3.0]]));
        let x0 = BoxRegion::cube(2, -0.5, 0.5);
        let err = reach_analysis(
            &sys,
            &enc,
            &x0,
            &ReachConfig {
                steps: 5,
                split_width: 0.01,
                max_boxes: 16,
                ..Default::default()
            },
        )
        .expect_err("budget too small");
        assert!(matches!(err, VerifyError::ResourceExhausted { .. }));
    }

    #[test]
    fn unstable_loop_reports_unsafe() {
        let sys = VanDerPol::new();
        // positive feedback destabilizes
        let enc = LinearEnclosure::new(Matrix::from_rows(vec![vec![-8.0, -8.0]]));
        let x0 = BoxRegion::from_bounds(&[1.5, 1.5], &[1.6, 1.6]);
        let result = reach_analysis(
            &sys,
            &enc,
            &x0,
            &ReachConfig {
                steps: 30,
                split_width: 0.1,
                ..Default::default()
            },
        );
        match result {
            Ok(r) => assert!(!r.verified_safe),
            Err(e) => assert!(matches!(
                e,
                VerifyError::DomainEscape { .. } | VerifyError::Unsafe { .. }
            )),
        }
    }

    #[test]
    fn fail_on_unsafe_raises() {
        let sys = VanDerPol::new();
        let enc = LinearEnclosure::new(Matrix::from_rows(vec![vec![-8.0, -8.0]]));
        let x0 = BoxRegion::from_bounds(&[1.5, 1.5], &[1.6, 1.6]);
        let err = reach_analysis(
            &sys,
            &enc,
            &x0,
            &ReachConfig {
                steps: 30,
                split_width: 0.1,
                fail_on_unsafe: true,
                ..Default::default()
            },
        )
        .expect_err("must fail");
        assert!(matches!(
            err,
            VerifyError::Unsafe { .. } | VerifyError::DomainEscape { .. }
        ));
    }

    #[test]
    fn final_hull_covers_last_frame() {
        let sys = VanDerPol::new();
        let enc = LinearEnclosure::new(Matrix::from_rows(vec![vec![3.0, 3.0]]));
        let x0 = BoxRegion::from_bounds(&[0.1, 0.1], &[0.2, 0.2]);
        let r = reach_analysis(
            &sys,
            &enc,
            &x0,
            &ReachConfig {
                steps: 10,
                split_width: 0.05,
                ..Default::default()
            },
        )
        .expect("verifies");
        let hull = r.final_hull();
        for b in r.frames.last().expect("frames") {
            assert!(hull.contains_box(b));
        }
    }

    #[test]
    fn subdivision_mode_tracks_tighter_than_paving() {
        let sys = Poly3d::new();
        let gain = Matrix::from_rows(vec![vec![2.0, 3.0, 3.0]]);
        let enc = LinearEnclosure::new(gain);
        let x0 = BoxRegion::from_bounds(&[-0.11, 0.205, 0.1], &[-0.105, 0.21, 0.11]);
        let paving = reach_analysis(
            &sys,
            &enc,
            &x0,
            &ReachConfig {
                steps: 10,
                split_width: 0.02,
                ..Default::default()
            },
        )
        .expect("paving verifies");
        let subdivision = reach_analysis(
            &sys,
            &enc,
            &x0,
            &ReachConfig {
                steps: 10,
                split_width: 0.02,
                mode: ReachMode::Subdivision,
                ..Default::default()
            },
        )
        .expect("subdivision verifies");
        // subdivision avoids the per-step snap inflation, so its final
        // hull must be no wider than the paving's in every dimension
        let hp = paving.final_hull();
        let hs = subdivision.final_hull();
        for i in 0..3 {
            assert!(hs.interval(i).width() <= hp.interval(i).width() + 1e-12);
        }
        assert!(subdivision.verified_safe);
    }

    #[test]
    fn subdivision_mode_is_sound_on_samples() {
        let sys = Poly3d::new();
        let gain = Matrix::from_rows(vec![vec![2.0, 3.0, 3.0]]);
        let enc = LinearEnclosure::new(gain.clone());
        let x0 = BoxRegion::from_bounds(&[-0.11, 0.205, 0.1], &[-0.105, 0.21, 0.11]);
        let result = reach_analysis(
            &sys,
            &enc,
            &x0,
            &ReachConfig {
                steps: 12,
                split_width: 0.01,
                mode: ReachMode::Subdivision,
                ..Default::default()
            },
        )
        .expect("verifies");
        let controller = cocktail_control::LinearFeedbackController::new(gain);
        use cocktail_control::Controller;
        let mut rng = cocktail_math::rng::seeded(3);
        for _ in 0..20 {
            let mut s = cocktail_math::rng::uniform_in_box(&mut rng, &x0);
            for frame in &result.frames {
                assert!(frame.iter().any(|b| b.inflate(1e-9).contains(&s)));
                let u = sys.clip_control(&controller.control(&s));
                s = sys.step(&s, &u, &[]);
            }
        }
    }

    /// The paving loop without the image memo: every occupied cell is
    /// enclosed and stepped again at every step.
    fn reach_every_cell(
        sys: &dyn Dynamics,
        controller: &dyn ControlEnclosure,
        x0: &BoxRegion,
        config: &ReachConfig,
    ) -> Result<ReachResult, VerifyError> {
        let grid = Grid::new(sys.verification_domain(), config.split_width);
        let (u_lo, u_hi) = sys.control_bounds();
        let omega: Vec<Interval> = sys
            .disturbance_amplitude()
            .iter()
            .map(|&a| Interval::symmetric(a))
            .collect();
        // marks `ranges` into a set, as the paving did before it pushed
        // into a list
        let mark = |ranges: &[(usize, usize)], set: &mut BTreeSet<usize>| {
            let mut marked = Vec::new();
            grid.mark(ranges, &mut marked, &mut Vec::new());
            set.extend(marked);
        };
        let boxes =
            |set: &BTreeSet<usize>| cells_to_boxes(&grid, &set.iter().copied().collect::<Vec<_>>());
        let mut occupied = BTreeSet::new();
        let (init_ranges, init_clipped) = grid
            .overlap_ranges(x0)
            .ok_or(VerifyError::DomainEscape { step: 0 })?;
        mark(&init_ranges, &mut occupied);
        let mut verified_safe = !init_clipped;
        let mut peak = occupied.len();
        let mut frames = vec![boxes(&occupied)];
        for step in 0..config.steps {
            let mut next = BTreeSet::new();
            let mut any_inside = false;
            for &flat in &occupied {
                let cell = grid.cell_box(flat);
                let u: Vec<Interval> = controller
                    .enclose(&cell)
                    .into_iter()
                    .zip(u_lo.iter().zip(&u_hi))
                    .map(|(iv, (&l, &h))| iv.clamp_to(l, h))
                    .collect();
                let image = BoxRegion::new(sys.step_interval(cell.intervals(), &u, &omega));
                match grid.overlap_ranges(&image) {
                    None => {
                        verified_safe = false;
                        if config.fail_on_unsafe {
                            return Err(VerifyError::Unsafe { step: step + 1 });
                        }
                    }
                    Some((ranges, clipped)) => {
                        any_inside = true;
                        if clipped {
                            verified_safe = false;
                            if config.fail_on_unsafe {
                                return Err(VerifyError::Unsafe { step: step + 1 });
                            }
                        }
                        mark(&ranges, &mut next);
                    }
                }
            }
            if !any_inside {
                return Err(VerifyError::DomainEscape { step: step + 1 });
            }
            peak = peak.max(next.len());
            frames.push(boxes(&next));
            occupied = next;
        }
        Ok(ReachResult {
            frames,
            verified_safe,
            duration: Duration::ZERO,
            peak_boxes: peak,
        })
    }

    #[test]
    fn each_distinct_cell_is_enclosed_once() {
        let sys = VanDerPol::new();
        let linear = LinearEnclosure::new(Matrix::from_rows(vec![vec![3.0, 3.0]]));
        let net = cocktail_nn::MlpBuilder::new(2)
            .hidden(6, cocktail_nn::Activation::Tanh)
            .output(1, cocktail_nn::Activation::Tanh)
            .seed(5)
            .build();
        let (certificate, _) = crate::bernstein::BernsteinCertificate::build_with_workers(
            &net,
            &[2.0],
            &sys.verification_domain(),
            &crate::bernstein::CertificateConfig::default(),
            2,
        )
        .expect("fits");
        let x0 = BoxRegion::from_bounds(&[0.1, 0.1], &[0.3, 0.3]);
        let config = ReachConfig {
            steps: 20,
            split_width: 0.05,
            ..Default::default()
        };
        let enclosures: [&dyn ControlEnclosure; 2] = [&linear, &certificate];
        for (which, enclosure) in enclosures.into_iter().enumerate() {
            let counted = Counting::new(enclosure);
            let got = reach_analysis(&sys, &counted, &x0, &config).expect("reaches");
            let want = reach_every_cell(&sys, enclosure, &x0, &config).expect("reaches");
            assert_eq!(frame_bits(&got.frames), frame_bits(&want.frames), "{which}");
            assert_eq!(got.verified_safe, want.verified_safe, "{which}");
            assert_eq!(got.peak_boxes, want.peak_boxes, "{which}");
            // every stepped frame is all but the last
            let stepped = &frame_bits(&want.frames)[..config.steps];
            let distinct: BTreeSet<&Vec<u64>> = stepped.iter().flatten().collect();
            let cell_steps: usize = stepped.iter().map(Vec::len).sum();
            assert_eq!(counted.calls(), distinct.len(), "{which}");
            assert!(distinct.len() < cell_steps, "{which}: cells must recur");
        }
    }

    #[test]
    fn memoized_paving_matches_every_cell_on_a_3d_plant() {
        use crate::bernstein::{BernsteinCertificate, CertificateConfig, ErrorMargin};
        let sys = Poly3d::new();
        let linear = LinearEnclosure::new(Matrix::from_rows(vec![vec![2.0, 3.0, 3.0]]));
        let net = cocktail_nn::MlpBuilder::new(3)
            .hidden(8, cocktail_nn::Activation::Tanh)
            .output(1, cocktail_nn::Activation::Tanh)
            .seed(21)
            .build();
        let (certificate, _) = BernsteinCertificate::build_with_workers(
            &net,
            &[7.0],
            &sys.verification_domain(),
            &CertificateConfig {
                degree: 3,
                tolerance: 1.0,
                max_pieces: 4096,
                error_samples_per_dim: 4,
                margin: ErrorMargin::Lipschitz,
            },
            2,
        )
        .expect("fits");
        let enclosures: [&dyn ControlEnclosure; 2] = [&linear, &certificate];
        let runs = [
            // the Fig. 4 box on a 50³ paving: the first frames are a few
            // cells far apart in flat index, later ones dense
            (
                BoxRegion::from_bounds(&[-0.11, 0.205, 0.1], &[-0.105, 0.21, 0.11]),
                0.02,
                15,
            ),
            (
                BoxRegion::from_bounds(&[-0.3, -0.2, -0.1], &[0.1, 0.2, 0.3]),
                0.1,
                10,
            ),
            // the whole domain, on 3 × 3 × 3 cells
            (sys.verification_domain(), 0.4, 6),
        ];
        let mut stepped = 0;
        for (which, enclosure) in enclosures.into_iter().enumerate() {
            for (x0, split_width, steps) in &runs {
                let config = ReachConfig {
                    steps: *steps,
                    split_width: *split_width,
                    ..Default::default()
                };
                let at = format!("enclosure {which}, {x0:?} at {split_width}");
                let got = reach_analysis(&sys, enclosure, x0, &config);
                let want = reach_every_cell(&sys, enclosure, x0, &config);
                match (got, want) {
                    (Ok(got), Ok(want)) => {
                        assert_eq!(frame_bits(&got.frames), frame_bits(&want.frames), "{at}");
                        assert_eq!(got.verified_safe, want.verified_safe, "{at}");
                        assert_eq!(got.peak_boxes, want.peak_boxes, "{at}");
                        stepped += 1;
                    }
                    (got, want) => assert_eq!(got.err(), want.err(), "{at}"),
                }
            }
        }
        assert!(stepped >= 4, "{stepped} runs reached their horizon");
    }

    #[test]
    fn fail_on_unsafe_stops_at_the_same_step_with_the_memo() {
        // a weak law that holds the tube for a while, then lets it drift
        // out, so cells recur before the failing step
        let sys = VanDerPol::new();
        let enc = LinearEnclosure::new(Matrix::from_rows(vec![vec![0.5, 0.5]]));
        let x0 = BoxRegion::from_bounds(&[0.1, 0.1], &[0.3, 0.3]);
        let config = ReachConfig {
            steps: 30,
            split_width: 0.1,
            fail_on_unsafe: true,
            ..Default::default()
        };
        let (memo, every) = (Counting::new(&enc), Counting::new(&enc));
        let got = reach_analysis(&sys, &memo, &x0, &config).expect_err("must fail");
        let want = reach_every_cell(&sys, &every, &x0, &config).expect_err("must fail");
        assert!(
            matches!(got, VerifyError::Unsafe { step } if step > 5),
            "{got:?}"
        );
        assert_eq!(got, want);
        assert!(memo.calls() < every.calls());
    }

    /// `VanDerPol` on the non-dyadic domain `[-0.05, 2]²`: on an 8-cell
    /// grid the paving's last cell of each dimension ends at
    /// `lo + 8·w = 1.9999999999999998`, the invariant's at `2`.
    struct Skewed(VanDerPol);

    impl Dynamics for Skewed {
        fn name(&self) -> &str {
            "skewed-oscillator"
        }

        fn state_dim(&self) -> usize {
            self.0.state_dim()
        }

        fn control_dim(&self) -> usize {
            self.0.control_dim()
        }

        fn disturbance_dim(&self) -> usize {
            self.0.disturbance_dim()
        }

        fn step(&self, s: &[f64], u: &[f64], omega: &[f64]) -> Vec<f64> {
            self.0.step(s, u, omega)
        }

        fn step_interval(
            &self,
            s: &[Interval],
            u: &[Interval],
            omega: &[Interval],
        ) -> Vec<Interval> {
            self.0.step_interval(s, u, omega)
        }

        fn is_safe(&self, s: &[f64]) -> bool {
            self.verification_domain().contains(s)
        }

        fn initial_set(&self) -> BoxRegion {
            BoxRegion::cube(2, 1.7, 2.0)
        }

        fn verification_domain(&self) -> BoxRegion {
            BoxRegion::cube(2, -0.05, 2.0)
        }

        fn control_bounds(&self) -> (Vec<f64>, Vec<f64>) {
            self.0.control_bounds()
        }

        fn disturbance_amplitude(&self) -> Vec<f64> {
            self.0.disturbance_amplitude()
        }

        fn horizon(&self) -> usize {
            self.0.horizon()
        }
    }

    /// Runs reach from `x0` under `params` once with the first `keep` of
    /// the invariant's cell images of `enclosure` and once standalone,
    /// asserts the two results are identical, and returns how many images
    /// reach took from the invariant and how many cells it enclosed itself.
    fn reach_with_invariant_images(
        sys: &dyn Dynamics,
        enclosure: &dyn ControlEnclosure,
        params: &SafetyParams,
        x0: &BoxRegion,
        keep: usize,
    ) -> [usize; 2] {
        let mut known = cell_images(
            sys,
            enclosure,
            &params.invariant,
            2,
            &cocktail_obs::NullSink,
        )
        .expect("dimensions agree");
        known.images.truncate(keep);
        let (own, alone) = (Counting::new(enclosure), Counting::new(enclosure));
        let (got, reused) =
            reach_with_images(sys, &own, x0, &params.reach, Some(&known)).expect("reaches");
        let want = reach_analysis(sys, &alone, x0, &params.reach).expect("reaches");
        assert_eq!(frame_bits(&got.frames), frame_bits(&want.frames));
        assert_eq!(got.verified_safe, want.verified_safe);
        assert_eq!(got.peak_boxes, want.peak_boxes);
        assert_eq!(
            frame_bits(&[vec![got.final_hull()]]),
            frame_bits(&[vec![want.final_hull()]])
        );
        assert_eq!(reused + own.calls(), alone.calls(), "every cell once");
        [reused, own.calls()]
    }

    #[test]
    fn reach_takes_every_image_from_the_invariant_when_the_grids_coincide() {
        // 2-D export budgets: a 60 × 60 paving and a 60 × 60 invariant grid
        // over the same domain
        let sys = VanDerPol::new();
        let enc = LinearEnclosure::new(Matrix::from_rows(vec![vec![3.0, 3.0]]));
        let params = default_params(&sys);
        let x0 = BoxRegion::from_bounds(&[0.1, 0.1], &[0.3, 0.3]);
        let [reused, own] = reach_with_invariant_images(&sys, &enc, &params, &x0, usize::MAX);
        assert!(reused > 10, "{reused} images reused");
        assert_eq!(own, 0);
    }

    #[test]
    fn reach_computes_the_images_the_invariant_cannot_give() {
        // 4-D export budgets: the paving has 5, 6, 1 and 6 cells per
        // dimension, the invariant grid 5 in every dimension
        let cartpole = CartPole::new();
        let enc = LinearEnclosure::new(Matrix::from_rows(vec![vec![-1.0, -1.5, 18.0, 3.0]]));
        let params = default_params(&cartpole);
        let [reused, own] =
            reach_with_invariant_images(&cartpole, &enc, &params, &params.initial_set, usize::MAX);
        assert_eq!(reused, 0);
        assert!(own > 0);

        // the same grid counts on a non-dyadic domain: the cells in the
        // last row or column differ in their upper bound's bits
        let skewed = Skewed(VanDerPol::new());
        let enc = LinearEnclosure::new(Matrix::from_rows(vec![vec![3.0, 3.0]]));
        let params = fast_params(&skewed);
        let x0 = skewed.initial_set();
        let [reused, own] = reach_with_invariant_images(&skewed, &enc, &params, &x0, usize::MAX);
        assert!(reused > 0 && own > 0, "{reused} reused, {own} computed");

        // cells past the images handed over: only the lower half of the
        // 60 × 60 grid's rows
        let sys = VanDerPol::new();
        let params = default_params(&sys);
        let x0 = BoxRegion::from_bounds(&[-0.3, -0.3], &[0.3, 0.3]);
        let [reused, own] = reach_with_invariant_images(&sys, &enc, &params, &x0, 60 * 30);
        assert!(reused > 0 && own > 0, "{reused} reused, {own} computed");
    }

    #[test]
    fn grid_mark_and_ranges_roundtrip() {
        let grid = Grid::new(BoxRegion::cube(2, 0.0, 1.0), 0.25);
        assert_eq!(grid.counts, vec![4, 4]);
        let b = BoxRegion::from_bounds(&[0.3, 0.6], &[0.4, 0.9]);
        let (ranges, clipped) = grid.overlap_ranges(&b).expect("inside");
        assert!(!clipped);
        assert_eq!(ranges, vec![(1, 1), (2, 3)]);
        let mut set = Vec::new();
        grid.mark(&ranges, &mut set, &mut Vec::new());
        assert_eq!(set, vec![9, 13]);
        for &f in &set {
            let cell = grid.cell_box(f);
            assert!(cell.intersect(&b).is_some());
        }
    }
}
