//! The end-to-end safety certificate: a serializable, deterministically
//! re-derivable record of the paper's full Section III-C loop.
//!
//! [`certify_controller`] runs Bernstein certificate construction (with
//! partition refinement), the control-invariant grid fixpoint, and
//! closed-loop reachability over the plant dynamics from a seeded initial
//! box, and condenses the outcome into a [`SafetyCert`]: verdict,
//! refinement stats, reach horizon and final hull, a digest of the
//! invariant bitmap, and the verification wall-clock (the paper's
//! Property-3 metric).
//!
//! The whole computation is a pure function of `(plant, weights, scale,
//! params)` — the parallel maps and the Jacobi fixpoint are worker-count
//! invariant and no randomness is involved — so a consumer holding only the
//! shipped weights and [`SafetyParams`] re-derives the certificate
//! bit-for-bit. That is the admission contract: [`SafetyCert::matches`]
//! compares every field except the wall-clock (a metric, not a claim), and
//! any disagreement means the weights, the plant spec, or the certificate
//! were altered after export.

use crate::bernstein::{BernsteinCertificate, CertificateConfig, ErrorMargin};
use crate::enclosure::ControlEnclosure;
use crate::error::VerifyError;
use crate::invariant::{invariant_with_images, InvariantConfig, InvariantResult};
use crate::reach::{reach_with_images, ReachConfig, ReachMode, ReachResult};
use cocktail_env::Dynamics;
use cocktail_math::{BoxRegion, Interval};
use cocktail_nn::Mlp;
use cocktail_obs::{Event, Span, Telemetry};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The verdict of a certification run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SafetyVerdict {
    /// Every reachable over-approximation stayed inside the safe domain
    /// for the full horizon.
    Safe,
    /// The over-approximation left the safe domain — possibly spurious
    /// (over-approximation), but the property could not be proven.
    NotProven,
}

impl SafetyVerdict {
    /// Stable kebab-case label for telemetry and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            SafetyVerdict::Safe => "safe",
            SafetyVerdict::NotProven => "not-proven",
        }
    }
}

/// Everything needed to re-derive a [`SafetyCert`] besides the weights and
/// the plant: the verification budgets and the seeded initial box. Shipped
/// inside the certificate so admission re-runs *exactly* the exported
/// analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SafetyParams {
    /// Bernstein partition-refinement budget.
    pub certificate: CertificateConfig,
    /// Closed-loop reachability horizon and paving resolution.
    pub reach: ReachConfig,
    /// Control-invariant grid fixpoint resolution.
    pub invariant: InvariantConfig,
    /// Initial box of the reachability analysis.
    pub initial_set: BoxRegion,
}

impl SafetyParams {
    /// Ceiling check on the embedded budgets. Admission re-derives
    /// certificates with the *shipped* parameters, so a tampered bundle
    /// must not be able to turn the gate into an unbounded computation.
    /// Returns a description of the first violated ceiling.
    pub fn budget_ceiling_violation(&self, domain: &BoxRegion) -> Option<String> {
        let c = &self.certificate;
        if c.degree == 0 || c.degree > 8 {
            return Some(format!("bernstein degree {} outside 1..=8", c.degree));
        }
        if c.error_samples_per_dim > 16 {
            return Some(format!(
                "error sample grid {} per dimension exceeds 16",
                c.error_samples_per_dim
            ));
        }
        if c.max_pieces > 1 << 17 {
            return Some(format!("piece budget {} exceeds {}", c.max_pieces, 1 << 17));
        }
        if !(c.tolerance.is_finite() && c.tolerance > 0.0) {
            return Some(format!(
                "tolerance {} is not a positive finite",
                c.tolerance
            ));
        }
        if self.reach.steps > 64 {
            return Some(format!(
                "reach horizon {} exceeds 64 steps",
                self.reach.steps
            ));
        }
        if self.reach.max_boxes > 200_000 {
            return Some(format!(
                "reach cell budget {} exceeds 200000",
                self.reach.max_boxes
            ));
        }
        if !(self.reach.split_width.is_finite() && self.reach.split_width > 0.0) {
            return Some(format!(
                "reach split width {} is not a positive finite",
                self.reach.split_width
            ));
        }
        let mut paving_cells = 1.0_f64;
        for iv in domain.intervals() {
            paving_cells *= (iv.width() / self.reach.split_width).ceil().max(1.0);
        }
        if paving_cells > 2e6 {
            return Some(format!(
                "reach paving of ~{paving_cells:.0} cells exceeds the 2e6 ceiling"
            ));
        }
        let grid_cells = (self.invariant.grid as f64).powi(domain.dim() as i32);
        if self.invariant.grid == 0 || grid_cells > 2e6 {
            return Some(format!(
                "invariant grid of ~{grid_cells:.0} cells exceeds the 2e6 ceiling"
            ));
        }
        if self.invariant.max_iterations > 10_000 {
            return Some(format!(
                "invariant iteration cap {} exceeds 10000",
                self.invariant.max_iterations
            ));
        }
        if self.initial_set.dim() != domain.dim() {
            return Some(format!(
                "initial set dimension {} != domain dimension {}",
                self.initial_set.dim(),
                domain.dim()
            ));
        }
        if !domain.contains_box(&self.initial_set) {
            return Some("initial set pokes outside the verification domain".into());
        }
        None
    }
}

/// Canonical per-plant verification parameters used at export time. Sized so
/// certification of typical students finishes in bounded wall-clock while
/// keeping the paving fine enough to be informative: 2D plants get the
/// paper's Fig. 3 resolution (60 cells per dimension for the invariant grid
/// and the reach paving alike, so reach takes every cell image from the
/// invariant), higher-dimensional plants coarser ones (the cell counts are
/// exponential in the state dimension). Every plant refines under the
/// residual error margin ([`ErrorMargin::Residual`]).
pub fn default_params(sys: &dyn Dynamics) -> SafetyParams {
    let domain = sys.verification_domain();
    let (u_lo, u_hi) = sys.control_bounds();
    let span = u_lo
        .iter()
        .zip(&u_hi)
        .map(|(l, h)| h - l)
        .fold(0.0_f64, f64::max);
    // tolerance is the ε absorbed into the disturbance; 1% of the control
    // span keeps it far below the control authority (so stabilizing
    // students remain provable) while staying reachable within the piece
    // budget for small students. Higher dimensions trade resolution for
    // bounded wall-clock: the cell counts are exponential in `dim`.
    let (paving_per_dim, grid, degree, samples, tol_factor) = match domain.dim() {
        0..=2 => (60usize, 60usize, 4usize, 5usize, 0.01),
        3 => (12, 12, 3, 4, 0.05),
        _ => (6, 5, 2, 3, 0.3),
    };
    let max_width = domain
        .intervals()
        .iter()
        .map(Interval::width)
        .fold(0.0_f64, f64::max);
    SafetyParams {
        certificate: CertificateConfig {
            degree,
            tolerance: (tol_factor * span).max(1e-6),
            max_pieces: if domain.dim() <= 2 { 1 << 16 } else { 1 << 14 },
            error_samples_per_dim: samples,
            margin: ErrorMargin::Residual,
        },
        reach: ReachConfig {
            steps: if domain.dim() <= 3 { 10 } else { 8 },
            split_width: max_width / paving_per_dim as f64,
            max_boxes: 200_000,
            fail_on_unsafe: false,
            mode: ReachMode::GridPaving,
        },
        invariant: InvariantConfig {
            grid,
            max_iterations: 256,
        },
        initial_set: shrink_toward_center(&sys.initial_set(), 0.1),
    }
}

/// A deliberately coarse budget tier for fixtures and smoke tests. The
/// resulting certificates are exactly as sound and as re-derivable as
/// [`default_params`] ones — just far more conservative (looser `ε`,
/// coarser paving, the first-order error margin), so they finish in
/// milliseconds even unoptimized.
/// Export tooling should prefer [`default_params`].
pub fn fast_params(sys: &dyn Dynamics) -> SafetyParams {
    let domain = sys.verification_domain();
    let (u_lo, u_hi) = sys.control_bounds();
    let span = u_lo
        .iter()
        .zip(&u_hi)
        .map(|(l, h)| h - l)
        .fold(0.0_f64, f64::max);
    let max_width = domain
        .intervals()
        .iter()
        .map(Interval::width)
        .fold(0.0_f64, f64::max);
    SafetyParams {
        certificate: CertificateConfig {
            degree: 3,
            tolerance: (0.05 * span).max(1e-6),
            max_pieces: 2048,
            error_samples_per_dim: 4,
            margin: ErrorMargin::Lipschitz,
        },
        reach: ReachConfig {
            steps: 5,
            split_width: max_width / 8.0,
            max_boxes: 10_000,
            fail_on_unsafe: false,
            mode: ReachMode::GridPaving,
        },
        invariant: InvariantConfig {
            grid: 8,
            max_iterations: 64,
        },
        initial_set: shrink_toward_center(&sys.initial_set(), 0.1),
    }
}

/// Shrinks a box toward its center: each interval keeps `factor` of its
/// radius. The seeded initial box of the default reachability analysis.
fn shrink_toward_center(b: &BoxRegion, factor: f64) -> BoxRegion {
    BoxRegion::new(
        b.intervals()
            .iter()
            .map(|iv| {
                let mid = 0.5 * (iv.lo() + iv.hi());
                let r = factor * iv.radius();
                Interval::new(mid - r, mid + r)
            })
            .collect(),
    )
}

/// The serializable outcome of the full verification loop.
///
/// Every field except [`verify_ms`](Self::verify_ms) is a deterministic
/// function of `(plant, weights, scale, params)` and participates in
/// [`Self::matches`]; the wall-clock is the paper's verifiability *metric*
/// and is reported, not verified.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SafetyCert {
    /// The parameters the certificate was (and must be re-) derived with.
    pub params: SafetyParams,
    /// `Safe` when the reachable over-approximation stayed inside the safe
    /// domain for the full horizon *and* the final frame lies inside the
    /// converged control-invariant set (so containment extends beyond the
    /// horizon); `NotProven` otherwise.
    pub verdict: SafetyVerdict,
    /// Lipschitz bound of the certified (scaled) controller.
    pub lipschitz: f64,
    /// Largest per-piece Bernstein approximation error `ε`.
    pub epsilon: f64,
    /// Bernstein partition pieces — the paper's verification-cost driver.
    pub pieces: usize,
    /// Bisections performed during partition refinement.
    pub refinement_splits: usize,
    /// Refinement levels (0 when the root piece met tolerance).
    pub refinement_depth: usize,
    /// Reachability horizon actually analyzed.
    pub reach_steps: usize,
    /// Peak number of simultaneously-occupied reach cells.
    pub reach_peak_boxes: usize,
    /// Whether every reachable image stayed inside the safe domain.
    pub reach_safe: bool,
    /// Tightest box containing the final reachable frame.
    pub reach_final_hull: BoxRegion,
    /// Total invariant grid cells (`grid^n`).
    pub invariant_cells: usize,
    /// Cells surviving the invariant fixpoint.
    pub invariant_alive: usize,
    /// Fixpoint sweeps executed.
    pub invariant_iterations: usize,
    /// Whether the fixpoint converged within the iteration cap.
    pub invariant_converged: bool,
    /// FNV-1a digest of the packed invariant survival bitmap — the compact
    /// fingerprint admission compares without shipping `grid^n` bits.
    pub invariant_digest: u64,
    /// Whether the final reachable frame lies inside the invariant set.
    pub final_frame_contained: bool,
    /// Verification wall-clock in milliseconds (the Property-3 metric).
    /// Excluded from [`Self::matches`].
    pub verify_ms: f64,
}

impl SafetyCert {
    /// Whether `other` agrees with this certificate on every claim field:
    /// parameters, verdict, counters and digests exactly; float bounds
    /// within relative tolerance `tol` (absorbs cross-platform libm
    /// jitter). The wall-clock is deliberately excluded.
    pub fn matches(&self, other: &Self, tol: f64) -> bool {
        self.diff(other, tol).is_none()
    }

    /// The first field on which `other` disagrees, or `None` when the
    /// certificates match. See [`Self::matches`].
    pub fn diff(&self, other: &Self, tol: f64) -> Option<String> {
        if self.params != other.params {
            return Some("params".into());
        }
        if self.verdict != other.verdict {
            return Some(format!(
                "verdict ({} vs {})",
                self.verdict.label(),
                other.verdict.label()
            ));
        }
        let exact: [(&str, u64, u64); 9] = [
            ("pieces", self.pieces as u64, other.pieces as u64),
            (
                "refinement_splits",
                self.refinement_splits as u64,
                other.refinement_splits as u64,
            ),
            (
                "refinement_depth",
                self.refinement_depth as u64,
                other.refinement_depth as u64,
            ),
            (
                "reach_steps",
                self.reach_steps as u64,
                other.reach_steps as u64,
            ),
            (
                "reach_peak_boxes",
                self.reach_peak_boxes as u64,
                other.reach_peak_boxes as u64,
            ),
            (
                "invariant_cells",
                self.invariant_cells as u64,
                other.invariant_cells as u64,
            ),
            (
                "invariant_alive",
                self.invariant_alive as u64,
                other.invariant_alive as u64,
            ),
            (
                "invariant_iterations",
                self.invariant_iterations as u64,
                other.invariant_iterations as u64,
            ),
            (
                "invariant_digest",
                self.invariant_digest,
                other.invariant_digest,
            ),
        ];
        for (name, a, b) in exact {
            if a != b {
                return Some(format!("{name} ({a} vs {b})"));
            }
        }
        let flags = [
            ("reach_safe", self.reach_safe, other.reach_safe),
            (
                "invariant_converged",
                self.invariant_converged,
                other.invariant_converged,
            ),
            (
                "final_frame_contained",
                self.final_frame_contained,
                other.final_frame_contained,
            ),
        ];
        for (name, a, b) in flags {
            if a != b {
                return Some(format!("{name} ({a} vs {b})"));
            }
        }
        let floats = [
            ("lipschitz", self.lipschitz, other.lipschitz),
            ("epsilon", self.epsilon, other.epsilon),
        ];
        for (name, a, b) in floats {
            if !close(a, b, tol) {
                return Some(format!("{name} ({a} vs {b})"));
            }
        }
        if self.reach_final_hull.dim() != other.reach_final_hull.dim() {
            return Some("reach_final_hull dimension".into());
        }
        for (i, (a, b)) in self
            .reach_final_hull
            .intervals()
            .iter()
            .zip(other.reach_final_hull.intervals())
            .enumerate()
        {
            if !close(a.lo(), b.lo(), tol) || !close(a.hi(), b.hi(), tol) {
                return Some(format!("reach_final_hull dimension {i} ({a} vs {b})"));
            }
        }
        // verify_ms deliberately excluded: wall-clock is a metric, not a claim
        None
    }
}

/// Relative closeness with an absolute floor, the same contract as the
/// fast-tier certificate comparison.
fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1e-300)
}

/// 64-bit FNV-1a over the grid resolution followed by the packed survival
/// bitmap (8 cells per byte, cell 0 in the least-significant bit).
fn invariant_digest(grid: usize, alive: &[bool]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(PRIME);
    };
    for byte in (grid as u64).to_le_bytes() {
        eat(byte);
    }
    for chunk in alive.chunks(8) {
        let mut packed = 0u8;
        for (bit, &a) in chunk.iter().enumerate() {
            if a {
                packed |= 1 << bit;
            }
        }
        eat(packed);
    }
    h
}

/// Runs the full verification loop for the scaled network `scale ⊙ net` in
/// closed loop with `sys` and condenses the outcome into a [`SafetyCert`].
///
/// The invariant fixpoint runs before reachability, which reuses the
/// invariant's cell images where the two grids coincide.
///
/// Telemetry: `verify/bernstein`, `verify/invariant` and `verify/reach`
/// spans meter the stage wall-clocks, a `verify.cells_refined` counter
/// records the partition bisections, `verify.network_rows` the grid points
/// refinement ran through the network, `verify.floor_splits` the
/// bisections decided by the error floor alone,
/// `verify.reach_images_reused` the cell images reach took from the
/// invariant, `verify.budget_exhaustions` counts budget blow-ups (the
/// paper's `κ_D` failure mode), and a `verify.verdict` event reports the
/// outcome — all gated on `tel.enabled()` and never perturbing the
/// certificate itself.
///
/// # Errors
///
/// Propagates [`VerifyError`] from any stage: `ResourceExhausted` when a
/// partition/cell budget blows up, `DomainEscape` when the entire reachable
/// image leaves the certified domain.
///
/// # Panics
///
/// Panics on dimension mismatches between the network, plant and boxes.
pub fn certify_controller(
    sys: &dyn Dynamics,
    net: &Mlp,
    scale: &[f64],
    params: &SafetyParams,
    workers: usize,
    tel: &dyn Telemetry,
) -> Result<SafetyCert, VerifyError> {
    let start = Instant::now();
    let domain = sys.verification_domain();

    let built = {
        let _span = Span::enter(tel, "verify/bernstein");
        BernsteinCertificate::build_with_workers(net, scale, &domain, &params.certificate, workers)
    };
    let (cert, stats) = match built {
        Ok(v) => v,
        Err(e) => return Err(note_exhaustion(tel, e)),
    };
    if tel.enabled() {
        tel.record(Event::counter("verify.cells_refined", stats.splits as u64));
        tel.record(Event::counter(
            "verify.network_rows",
            stats.network_rows as u64,
        ));
        tel.record(Event::counter(
            "verify.floor_splits",
            stats.floor_splits as u64,
        ));
    }

    let (reach, reused, inv) =
        closed_loop(sys, &cert, params, workers, tel).map_err(|e| note_exhaustion(tel, e))?;
    if tel.enabled() {
        tel.record(Event::counter("verify.reach_images_reused", reused as u64));
    }

    let contained = inv.converged
        && reach
            .frames
            .last()
            .is_some_and(|frame| frame.iter().all(|b| inv.contains_box(b)));
    let verdict = if reach.verified_safe && contained {
        SafetyVerdict::Safe
    } else {
        SafetyVerdict::NotProven
    };
    let alive = inv.alive();
    let out = SafetyCert {
        params: params.clone(),
        verdict,
        lipschitz: cert.lipschitz(),
        epsilon: cert.epsilon(),
        pieces: cert.piece_count(),
        refinement_splits: stats.splits,
        refinement_depth: stats.depth,
        reach_steps: reach.frames.len().saturating_sub(1),
        reach_peak_boxes: reach.peak_boxes,
        reach_safe: reach.verified_safe,
        reach_final_hull: reach.final_hull(),
        invariant_cells: alive.len(),
        invariant_alive: alive.iter().filter(|&&a| a).count(),
        invariant_iterations: inv.iterations,
        invariant_converged: inv.converged,
        invariant_digest: invariant_digest(inv.grid(), alive),
        final_frame_contained: contained,
        verify_ms: start.elapsed().as_secs_f64() * 1e3,
    };
    if tel.enabled() {
        tel.record(
            Event::point("verify.verdict")
                .with("verdict", out.verdict.label())
                .with("pieces", out.pieces)
                .with("epsilon", out.epsilon)
                .with("invariant_alive", out.invariant_alive)
                .with("verify_ms", out.verify_ms),
        );
    }
    Ok(out)
}

/// The closed-loop analyses of a certified `controller`: the invariant
/// fixpoint, then reachability, which takes the one-step images of the
/// invariant's cells wherever its paving steps the same cells (see
/// [`crate::reach`]). Returns the reach result, the number of images it
/// took from the invariant, and the invariant result.
///
/// A reach error is returned before an invariant error, and a dimension
/// mismatch panics in reach, as when reach ran first.
fn closed_loop(
    sys: &dyn Dynamics,
    controller: &dyn ControlEnclosure,
    params: &SafetyParams,
    workers: usize,
    tel: &dyn Telemetry,
) -> Result<(ReachResult, usize, InvariantResult), VerifyError> {
    let inv = {
        let _span = Span::enter(tel, "verify/invariant");
        invariant_with_images(sys, controller, &params.invariant, workers, tel)
    };
    let (reach, reused) = {
        let _span = Span::enter(tel, "verify/reach");
        let known = inv.as_ref().ok().map(|(_, images)| images);
        reach_with_images(sys, controller, &params.initial_set, &params.reach, known)?
    };
    let (inv, _) = inv?;
    Ok((reach, reused, inv))
}

/// Counts budget exhaustions before handing the error back.
fn note_exhaustion(tel: &dyn Telemetry, e: VerifyError) -> VerifyError {
    if tel.enabled() {
        if let VerifyError::ResourceExhausted { resource, .. } = &e {
            tel.record(Event::counter("verify.budget_exhaustions", 1).with("resource", *resource));
        }
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enclosure::Counting;
    use crate::reach::reach_analysis;
    use cocktail_env::systems::VanDerPol;
    use cocktail_nn::{Activation, Mlp, MlpBuilder};
    use cocktail_obs::{EventKind, InMemorySink, NullSink};

    fn student(seed: u64) -> Mlp {
        MlpBuilder::new(2)
            .hidden(8, Activation::Tanh)
            .output(1, Activation::Tanh)
            .seed(seed)
            .build()
    }

    #[test]
    fn certification_is_deterministic_and_worker_invariant() {
        let sys = VanDerPol::new();
        let net = student(11);
        for margin in [ErrorMargin::Lipschitz, ErrorMargin::Residual] {
            let mut params = fast_params(&sys);
            params.certificate.margin = margin;
            let reference =
                certify_controller(&sys, &net, &[20.0], &params, 1, &NullSink).expect("certifies");
            for workers in [2usize, 8] {
                let got = certify_controller(&sys, &net, &[20.0], &params, workers, &NullSink)
                    .expect("certifies");
                assert!(
                    got.matches(&reference, 0.0),
                    "{margin:?}, workers = {workers}"
                );
                let mut a = got.clone();
                let mut b = reference.clone();
                a.verify_ms = 0.0;
                b.verify_ms = 0.0;
                assert_eq!(
                    a, b,
                    "bit-identical modulo wall-clock, {margin:?}, workers = {workers}"
                );
            }
        }
    }

    #[test]
    fn telemetry_does_not_perturb_the_certificate() {
        // NullSink bit-equality: the enabled()-gated instrumentation must
        // never change the artifact
        let sys = VanDerPol::new();
        let net = student(3);
        let params = fast_params(&sys);
        let silent =
            certify_controller(&sys, &net, &[20.0], &params, 2, &NullSink).expect("certifies");
        let observed = InMemorySink::new();
        let loud =
            certify_controller(&sys, &net, &[20.0], &params, 2, &observed).expect("certifies");
        assert!(loud.matches(&silent, 0.0));
        let mut a = loud.clone();
        let mut b = silent.clone();
        a.verify_ms = 0.0;
        b.verify_ms = 0.0;
        assert_eq!(a, b);
        assert_eq!(
            observed.counter_total("verify.cells_refined") as usize,
            loud.refinement_splits
        );
        let (_, stats) = BernsteinCertificate::build_with_workers(
            &net,
            &[20.0],
            &sys.verification_domain(),
            &params.certificate,
            2,
        )
        .expect("certifies");
        assert!(stats.network_rows > 0);
        assert_eq!(
            observed.counter_total("verify.network_rows") as usize,
            stats.network_rows
        );
        assert!(stats.floor_splits > 0);
        assert_eq!(
            observed.counter_total("verify.floor_splits") as usize,
            stats.floor_splits
        );
        assert!(observed.counter_total("verify.reach_images_reused") > 0);
        assert_eq!(observed.events_named("verify.verdict").len(), 1);
        // the invariant's two stages are spans inside its own
        let spans: Vec<(EventKind, String)> = observed
            .events()
            .into_iter()
            .filter(|e| matches!(e.kind, EventKind::SpanStart | EventKind::SpanEnd))
            .map(|e| (e.kind, e.name))
            .collect();
        let at = |kind: EventKind, name: &str| {
            spans
                .iter()
                .position(|(k, n)| *k == kind && n == name)
                .unwrap_or_else(|| panic!("no {kind:?} of {name} in {spans:?}"))
        };
        let order = [
            at(EventKind::SpanStart, "verify/invariant"),
            at(EventKind::SpanStart, "verify/invariant/images"),
            at(EventKind::SpanEnd, "verify/invariant/images"),
            at(EventKind::SpanStart, "verify/invariant/fixpoint"),
            at(EventKind::SpanEnd, "verify/invariant/fixpoint"),
            at(EventKind::SpanEnd, "verify/invariant"),
            at(EventKind::SpanStart, "verify/reach"),
        ];
        assert!(order.windows(2).all(|w| w[0] < w[1]), "{spans:?}");
    }

    #[test]
    fn reach_inside_certification_reuses_the_invariants_images() {
        // fast budgets pave the oscillator's domain 8 × 8, like its
        // invariant grid
        let sys = VanDerPol::new();
        let net = student(3);
        let params = fast_params(&sys);
        let tel = InMemorySink::new();
        let cert = certify_controller(&sys, &net, &[20.0], &params, 2, &tel).expect("certifies");
        let (bernstein, _) = BernsteinCertificate::build_with_workers(
            &net,
            &[20.0],
            &sys.verification_domain(),
            &params.certificate,
            2,
        )
        .expect("certifies");
        let alone = Counting::new(&bernstein);
        let want =
            reach_analysis(&sys, &alone, &params.initial_set, &params.reach).expect("reaches");
        assert_eq!(cert.reach_steps, want.frames.len() - 1);
        assert_eq!(cert.reach_safe, want.verified_safe);
        assert_eq!(cert.reach_peak_boxes, want.peak_boxes);
        assert_eq!(cert.reach_final_hull, want.final_hull());
        assert_eq!(
            tel.counter_total("verify.reach_images_reused") as usize,
            alone.calls()
        );

        // the same analyses on a counting enclosure: the invariant's
        // cells are the only enclosures, and reach's frames are unchanged
        let counted = Counting::new(&bernstein);
        let (got, reused, _) =
            closed_loop(&sys, &counted, &params, 2, &NullSink).expect("analyses");
        assert_eq!(reused, alone.calls());
        assert_eq!(counted.calls(), params.invariant.grid.pow(2));
        assert_eq!(got.frames, want.frames);
    }

    #[test]
    fn reach_errors_are_still_the_returned_error() {
        let sys = VanDerPol::new();
        let net = student(3);
        let mut params = fast_params(&sys);
        params.reach.max_boxes = 1;
        let tel = InMemorySink::new();
        let err = certify_controller(&sys, &net, &[20.0], &params, 2, &tel)
            .expect_err("one reach cell cannot hold the tube");
        assert!(
            matches!(
                err,
                VerifyError::ResourceExhausted {
                    resource: "reachable cells",
                    ..
                }
            ),
            "{err:?}"
        );
        assert_eq!(tel.counter_total("verify.budget_exhaustions"), 1);

        let mut params = fast_params(&sys);
        params.initial_set = BoxRegion::cube(2, 5.0, 6.0);
        let err = certify_controller(&sys, &net, &[20.0], &params, 2, &NullSink)
            .expect_err("the initial box lies outside the domain");
        assert_eq!(err, VerifyError::DomainEscape { step: 0 });
    }

    #[test]
    fn matches_flags_every_tampered_field() {
        let sys = VanDerPol::new();
        let net = student(11);
        let params = fast_params(&sys);
        let cert =
            certify_controller(&sys, &net, &[20.0], &params, 2, &NullSink).expect("certifies");
        let tol = 1e-9;
        assert!(cert.matches(&cert.clone(), tol));

        let mut t = cert.clone();
        t.invariant_digest ^= 1;
        assert!(cert
            .diff(&t, tol)
            .expect("differs")
            .contains("invariant_digest"));

        let mut t = cert.clone();
        t.epsilon *= 0.5;
        assert!(cert.diff(&t, tol).expect("differs").contains("epsilon"));

        let mut t = cert.clone();
        t.pieces += 1;
        assert!(cert.diff(&t, tol).expect("differs").contains("pieces"));

        let mut t = cert.clone();
        t.params.reach.steps += 1;
        assert!(cert.diff(&t, tol).expect("differs").contains("params"));

        let mut t = cert.clone();
        t.reach_final_hull = t.reach_final_hull.inflate(0.1);
        assert!(cert
            .diff(&t, tol)
            .expect("differs")
            .contains("reach_final_hull"));

        // wall-clock is a metric, not a claim
        let mut t = cert.clone();
        t.verify_ms *= 100.0;
        assert!(cert.matches(&t, tol));
    }

    #[test]
    fn budget_exhaustion_is_counted() {
        let sys = VanDerPol::new();
        let net = student(7);
        let mut params = fast_params(&sys);
        params.certificate.tolerance = 1e-4;
        params.certificate.max_pieces = 8;
        let tel = InMemorySink::new();
        let err = certify_controller(&sys, &net, &[100.0], &params, 2, &tel)
            .expect_err("tiny budget must blow up");
        assert!(matches!(err, VerifyError::ResourceExhausted { .. }));
        assert_eq!(tel.counter_total("verify.budget_exhaustions"), 1);
    }

    #[test]
    fn budget_ceilings_catch_hostile_params() {
        let sys = VanDerPol::new();
        let domain = sys.verification_domain();
        let good = default_params(&sys);
        assert!(good.budget_ceiling_violation(&domain).is_none());

        let mut p = good.clone();
        p.reach.split_width = 1e-9;
        assert!(p.budget_ceiling_violation(&domain).is_some());

        let mut p = good.clone();
        p.invariant.grid = 4096;
        assert!(p.budget_ceiling_violation(&domain).is_some());

        let mut p = good.clone();
        p.certificate.max_pieces = usize::MAX;
        assert!(p.budget_ceiling_violation(&domain).is_some());

        let mut p = good.clone();
        p.reach.steps = 1000;
        assert!(p.budget_ceiling_violation(&domain).is_some());

        let mut p = good.clone();
        p.initial_set = BoxRegion::cube(2, -100.0, 100.0);
        assert!(p.budget_ceiling_violation(&domain).is_some());
    }

    #[test]
    fn digest_is_stable_and_bit_sensitive() {
        let alive = vec![true, false, true, true, false, false, true, false, true];
        let a = invariant_digest(3, &alive);
        assert_eq!(a, invariant_digest(3, &alive));
        let mut flipped = alive.clone();
        flipped[4] = true;
        assert_ne!(a, invariant_digest(3, &flipped));
        assert_ne!(a, invariant_digest(4, &alive));
    }
}
