//! Hot bundle rollout: canary gating, shadow comparison, and drift
//! detection.
//!
//! The engine loads one controller at process start; this module is the
//! machinery that lets it *change* controllers under load without ever
//! serving an unvetted output. The state machine is deliberately small:
//!
//! ```text
//!            propose (admission gate, off the hot path)
//!   Serving ────────────────────────────────────────────▶ Canarying
//!      ▲                                                     │
//!      │  promote (candidate becomes incumbent)              │
//!      ├─────────────────────────────────────────────────────┤
//!      │  rollback (manual, or automatic on a budget trip)   │
//!      └─────────────────────────────────────────────────────┘
//! ```
//!
//! While canarying, a deterministic fraction of traffic — chosen by
//! [`routes_to_canary`], a pure function of the request id, so replays
//! and shard counts cannot change the split — is answered by the
//! candidate. Every canary answer is *shadow-compared*: the incumbent
//! recomputes the same request and the clipped-output divergence is
//! recorded in a [`DivergenceHistogram`]. Three guards can trip an
//! automatic rollback, and all of them are evaluated **before any canary
//! reply leaves the shard**, so a tripped batch is answered entirely from
//! the incumbent's shadow outputs and zero candidate responses escape:
//!
//! 1. a non-finite candidate output (always fatal, no budget),
//! 2. per-request clipped divergence above [`RolloutBudget::max_divergence`],
//! 3. cumulative pre-clip envelope excursions above
//!    [`RolloutBudget::max_envelope_violations`].
//!
//! The engine's guard and [`crate::replay::shadow_replay`] share one row
//! comparison (`CanaryTally::compare`) and one budget rule
//! (`RolloutBudget::breach`), so a replay reports what a live canary at
//! 100% traffic would have recorded and trips where it would have.
//!
//! Independently, a [`DriftDetector`] histograms every *served* output
//! (whoever served it) against a frozen baseline window and raises
//! `serve.drift` when the total-variation distance crosses a threshold —
//! the serve-side signal that feeds the supervisor's retraining loop via
//! [`DriftReport::to_retrain_request`].

use crate::admission::AdmissionError;
use crate::bundle::fnv1a_64;
use crate::engine::ModelParams;
use cocktail_core::supervisor::RetrainRequest;
use std::fmt;

/// Denominator of the canary traffic split (fractions are per-mille).
pub const CANARY_SPLIT_DENOMINATOR: u64 = 1000;

/// Whether request `id` routes to the canary at a `fraction_permille`
/// split. A pure function of the id — independent of shard count, batch
/// composition, and arrival order — so a recorded stream replays onto
/// exactly the same split.
#[must_use]
pub fn routes_to_canary(id: u64, fraction_permille: u32) -> bool {
    fnv1a_64(&id.to_le_bytes()) % CANARY_SPLIT_DENOMINATOR
        < u64::from(fraction_permille).min(CANARY_SPLIT_DENOMINATOR)
}

/// Auto-rollback budget for a canary. The defaults disable the two
/// tunable guards; a non-finite candidate output always trips regardless.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RolloutBudget {
    /// Largest tolerated per-request divergence (max-abs difference of
    /// the clipped outputs, candidate vs incumbent). `INFINITY` disables
    /// the guard — a legitimately retrained candidate *should* diverge.
    pub max_divergence: f64,
    /// Largest tolerated cumulative count of canary requests whose
    /// pre-clip output left the bundle's control envelope. `u64::MAX`
    /// disables the guard.
    pub max_envelope_violations: u64,
}

impl Default for RolloutBudget {
    fn default() -> Self {
        Self {
            max_divergence: f64::INFINITY,
            max_envelope_violations: u64::MAX,
        }
    }
}

impl RolloutBudget {
    /// The canary's budget rule over everything it has been compared on
    /// so far; returns the guard that trips. Any non-finite candidate row
    /// trips. A NaN divergence (the incumbent's shadow was non-finite, so
    /// the incumbent broke, not the candidate) is exempt from
    /// `max_divergence`: [`DivergenceHistogram::max`] ignores it.
    #[must_use]
    pub(crate) fn breach(
        &self,
        nonfinite: u64,
        divergence: &DivergenceHistogram,
        envelope_violations: u64,
    ) -> Option<&'static str> {
        if nonfinite > 0 {
            Some("non-finite canary output")
        } else if divergence.max > self.max_divergence {
            Some("canary divergence budget exceeded")
        } else if envelope_violations > self.max_envelope_violations {
            Some("canary envelope-violation budget exceeded")
        } else {
            None
        }
    }
}

/// How a proposed candidate is canaried.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RolloutConfig {
    /// Per-mille of traffic routed to the candidate while canarying
    /// (clamped to 1000). Default 100 (10%).
    pub fraction_permille: u32,
    /// Auto-rollback budget.
    pub budget: RolloutBudget,
}

impl Default for RolloutConfig {
    fn default() -> Self {
        Self {
            fraction_permille: 100,
            budget: RolloutBudget::default(),
        }
    }
}

/// Why a rollout operation was refused.
#[derive(Debug)]
pub enum RolloutError {
    /// The candidate failed the admission gate.
    Refused(AdmissionError),
    /// The candidate's dimensions are incompatible with the running
    /// engine.
    Incompatible(String),
    /// A canary is already in flight; promote or roll it back first.
    CanaryInFlight,
    /// No canary is in flight to promote or roll back.
    NoCandidate,
}

impl fmt::Display for RolloutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RolloutError::Refused(e) => write!(f, "candidate refused by admission: {e}"),
            RolloutError::Incompatible(msg) => write!(f, "candidate incompatible: {msg}"),
            RolloutError::CanaryInFlight => {
                write!(
                    f,
                    "a canary is already in flight; promote or rollback first"
                )
            }
            RolloutError::NoCandidate => write!(f, "no canary in flight"),
        }
    }
}

impl std::error::Error for RolloutError {}

/// What happened at an epoch transition (or a drift alarm).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutAction {
    /// A candidate was installed as a canary.
    Proposed,
    /// The canary became the incumbent.
    Promoted,
    /// An operator restored the incumbent.
    RolledBack,
    /// A budget trip restored the incumbent.
    AutoRolledBack,
    /// The drift detector flagged the served-output distribution.
    Drift,
}

impl RolloutAction {
    /// Stable lowercase label used in telemetry fields.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RolloutAction::Proposed => "proposed",
            RolloutAction::Promoted => "promoted",
            RolloutAction::RolledBack => "rolled-back",
            RolloutAction::AutoRolledBack => "auto-rolled-back",
            RolloutAction::Drift => "drift",
        }
    }
}

/// One entry in the structured rollout trail. Also emitted as a
/// `serve.rollout` (or `serve.drift`) telemetry point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RolloutEvent {
    /// The model epoch *after* the transition (the epoch the alarm was
    /// observed at, for [`RolloutAction::Drift`]).
    pub epoch: u64,
    /// What happened.
    pub action: RolloutAction,
    /// Human-readable cause ("operator", the tripped guard, ...).
    pub detail: String,
}

/// Point-in-time rollout observability snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct RolloutStatus {
    /// Current model epoch (bumps on propose/promote/rollback).
    pub epoch: u64,
    /// Whether a canary is in flight.
    pub canary_active: bool,
    /// Traffic split of the active canary (0 when none).
    pub canary_fraction_permille: u32,
    /// Canary requests answered by the candidate.
    pub canary_served: u64,
    /// Canary requests shadow-compared against the incumbent (equals
    /// `canary_served` plus the rows of any tripped batches).
    pub canary_shadowed: u64,
    /// Non-finite candidate outputs observed.
    pub nonfinite_canary_outputs: u64,
    /// Canary requests whose pre-clip output left the control envelope.
    pub envelope_violations: u64,
    /// Divergence of clipped canary outputs vs the incumbent shadow.
    pub divergence: DivergenceHistogram,
}

/// Number of bins in a [`DivergenceHistogram`].
pub const DIVERGENCE_BINS: usize = 8;

/// Upper edges of the first `DIVERGENCE_BINS - 1` bins (`d <= edge`);
/// the last bin collects everything above `1.0` plus NaN comparisons.
pub const DIVERGENCE_BIN_EDGES: [f64; DIVERGENCE_BINS - 1] =
    [0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1e-1, 1.0];

/// A fixed-bin log-scale histogram of per-request divergence (max-abs
/// difference of clipped outputs). `Copy` and allocation-free to record,
/// so shard workers can update it on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DivergenceHistogram {
    /// Counts per bin; bin 0 is exact bitwise agreement (`d == 0`).
    pub bins: [u64; DIVERGENCE_BINS],
    /// Total comparisons recorded.
    pub count: u64,
    /// Sum of recorded divergences (NaN poisons the sum, by design).
    pub sum: f64,
    /// Largest recorded divergence that is not NaN (a NaN comparison
    /// shows in the last bin and in `sum`); the divergence budget reads it.
    pub max: f64,
}

impl DivergenceHistogram {
    /// Records one per-request divergence (`d >= 0`; NaN lands in the
    /// last bin).
    pub fn record(&mut self, d: f64) {
        let bin = DIVERGENCE_BIN_EDGES
            .iter()
            .position(|edge| d <= *edge)
            .unwrap_or(DIVERGENCE_BINS - 1);
        self.bins[bin] += 1;
        self.count += 1;
        self.sum += d;
        self.max = self.max.max(d);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Self) {
        for (dst, src) in self.bins.iter_mut().zip(&other.bins) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Mean recorded divergence (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        #[allow(
            clippy::cast_precision_loss,
            reason = "comparison counts are far below 2^52"
        )]
        {
            self.sum / self.count as f64
        }
    }

    /// One-line rendering for CLI reports:
    /// `n=96 max=1.2e-9 mean=3.4e-11 bins[=0|<=1e-12|...|>1]=90/4/2/0/0/0/0/0`.
    #[must_use]
    pub fn render(&self) -> String {
        let counts: Vec<String> = self.bins.iter().map(u64::to_string).collect();
        format!(
            "n={} max={:.3e} mean={:.3e} bins[=0|<=1e-12|<=1e-9|<=1e-6|<=1e-3|<=0.1|<=1|>1]={}",
            self.count,
            self.max,
            self.mean(),
            counts.join("/")
        )
    }
}

/// Drift-detector knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Served outputs per comparison window (per engine, not per shard).
    pub window: usize,
    /// Histogram bins per control dimension (capped at
    /// [`MAX_DRIFT_BINS`]).
    pub bins: usize,
    /// Total-variation distance in `[0, 1]` above which a window raises
    /// drift.
    pub threshold: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            window: 512,
            bins: 16,
            threshold: 0.25,
        }
    }
}

/// Most bins a drift histogram may use (keeps the detector's memory
/// fixed and small).
pub const MAX_DRIFT_BINS: usize = 64;

/// One drift alarm: a comparison window whose output distribution moved
/// too far from the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftReport {
    /// Control dimension with the largest distance.
    pub dim: usize,
    /// Total-variation distance of that dimension's window vs baseline.
    pub distance: f64,
    /// The configured threshold it crossed.
    pub threshold: f64,
    /// Window size in served outputs.
    pub window: usize,
}

impl DriftReport {
    /// Renders this alarm as the supervisor-side retraining demand
    /// ([`cocktail_core::supervisor::save_retrain_request`] persists it
    /// for the pipeline to pick up).
    #[must_use]
    pub fn to_retrain_request(&self, system: &str) -> RetrainRequest {
        RetrainRequest {
            system: system.to_string(),
            reason: format!(
                "served-output drift on control dim {}: total-variation {:.4} \
                 crossed threshold {:.4} over a {}-output window",
                self.dim, self.distance, self.threshold, self.window
            ),
            observed: self.distance,
            threshold: self.threshold,
            source: "cocktail-serve drift detector".to_string(),
        }
    }
}

/// Histograms served outputs per control dimension against a frozen
/// baseline. The first full window *becomes* the baseline; every
/// subsequent window is compared by total-variation distance.
///
/// The baseline survives promote/rollback on purpose: a promoted
/// controller that behaves differently from what the fleet was serving
/// *is* drift worth flagging. Re-baseline explicitly with
/// [`DriftDetector::rebaseline`] when the change is intentional.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    cfg: DriftConfig,
    lo: Vec<f64>,
    hi: Vec<f64>,
    baseline: Vec<Vec<u64>>,
    baseline_full: bool,
    current: Vec<Vec<u64>>,
    filled: usize,
    alarms: u64,
}

impl DriftDetector {
    /// A detector over `control_dim = u_inf.len()` dimensions, binning
    /// each dimension's clip envelope `[u_inf[i], u_sup[i]]`.
    #[must_use]
    pub fn new(cfg: DriftConfig, u_inf: &[f64], u_sup: &[f64]) -> Self {
        let bins = cfg.bins.clamp(2, MAX_DRIFT_BINS);
        let cfg = DriftConfig {
            bins,
            window: cfg.window.max(2),
            ..cfg
        };
        Self {
            cfg,
            lo: u_inf.to_vec(),
            hi: u_sup.to_vec(),
            baseline: vec![vec![0; bins]; u_inf.len()],
            baseline_full: false,
            current: vec![vec![0; bins]; u_inf.len()],
            filled: 0,
            alarms: 0,
        }
    }

    fn bin_of(&self, dim: usize, v: f64) -> usize {
        let lo = self.lo[dim];
        let width = (self.hi[dim] - lo).max(f64::MIN_POSITIVE);
        #[allow(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            clippy::cast_precision_loss,
            reason = "clamped to [0, bins-1] before truncation"
        )]
        {
            (((v - lo) / width * self.cfg.bins as f64).clamp(0.0, (self.cfg.bins - 1) as f64))
                as usize
        }
    }

    /// Feeds one served (clipped) control row. Returns a report when the
    /// row completes a comparison window whose total-variation distance
    /// crosses the threshold; the window then resets either way.
    pub fn observe_row(&mut self, control: &[f64]) -> Option<DriftReport> {
        for (dim, v) in control.iter().enumerate() {
            if dim >= self.current.len() || !v.is_finite() {
                continue;
            }
            let bin = self.bin_of(dim, *v);
            self.current[dim][bin] += 1;
        }
        self.filled += 1;
        if self.filled < self.cfg.window {
            return None;
        }
        self.filled = 0;
        if !self.baseline_full {
            // the first full window freezes the baseline
            std::mem::swap(&mut self.baseline, &mut self.current);
            self.baseline_full = true;
            for h in &mut self.current {
                h.iter_mut().for_each(|c| *c = 0);
            }
            return None;
        }
        let mut worst: Option<DriftReport> = None;
        for dim in 0..self.current.len() {
            let d = total_variation(&self.baseline[dim], &self.current[dim]);
            if d > self.cfg.threshold && worst.as_ref().is_none_or(|w| d > w.distance) {
                worst = Some(DriftReport {
                    dim,
                    distance: d,
                    threshold: self.cfg.threshold,
                    window: self.cfg.window,
                });
            }
            self.current[dim].iter_mut().for_each(|c| *c = 0);
        }
        if worst.is_some() {
            self.alarms += 1;
        }
        worst
    }

    /// Drops the frozen baseline; the next full window becomes the new
    /// one. Call after an *intentional* behavior change (promote).
    pub fn rebaseline(&mut self) {
        self.baseline_full = false;
        self.filled = 0;
        for h in self.baseline.iter_mut().chain(self.current.iter_mut()) {
            h.iter_mut().for_each(|c| *c = 0);
        }
    }

    /// How many windows have raised drift so far.
    #[must_use]
    pub fn alarms(&self) -> u64 {
        self.alarms
    }
}

/// Total-variation distance between two count histograms in `[0, 1]`
/// (0 when either is empty).
#[must_use]
pub fn total_variation(a: &[u64], b: &[u64]) -> f64 {
    let (na, nb): (u64, u64) = (a.iter().sum(), b.iter().sum());
    if na == 0 || nb == 0 {
        return 0.0;
    }
    #[allow(
        clippy::cast_precision_loss,
        reason = "window counts are far below 2^52"
    )]
    let half_l1: f64 = a
        .iter()
        .zip(b)
        .map(|(ca, cb)| (*ca as f64 / na as f64 - *cb as f64 / nb as f64).abs())
        .sum();
    half_l1 / 2.0
}

/// A canary's shadow-comparison record (`divergence.count` rows): the
/// engine keeps one per canary, shadow replay one per replayed stream.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CanaryTally {
    /// Rows whose candidate output was non-finite (or whose forward
    /// panicked).
    pub(crate) nonfinite: u64,
    /// Finite candidate rows whose pre-clip output left the candidate's
    /// control envelope.
    pub(crate) envelope_violations: u64,
    /// Divergence of the clipped candidate outputs from the incumbent's.
    pub(crate) divergence: DivergenceHistogram,
}

impl CanaryTally {
    /// Compares one canary row with the incumbent's shadow row for the
    /// same state and records it. `None` is a forward that panicked.
    ///
    /// Each output is scaled, tested for finiteness and against the
    /// candidate's envelope, and clamped; the divergence is the max-abs
    /// difference of the clamped outputs. It is NaN when the candidate
    /// row is non-finite (counted in `nonfinite`, never as an envelope
    /// violation) or when any output of the shadow row is non-finite.
    pub(crate) fn compare(
        &mut self,
        candidate: Option<&[f64]>,
        can: &ModelParams,
        shadow: Option<&[f64]>,
        inc: &ModelParams,
    ) {
        let (mut finite, mut escaped) = (candidate.is_some(), false);
        let (mut d, mut shadow_finite) = (0.0_f64, shadow.is_some());
        for (i, &y) in candidate.unwrap_or_default().iter().enumerate() {
            let c = y * can.scale[i];
            finite &= c.is_finite();
            escaped |= c < can.u_inf[i] || c > can.u_sup[i];
            let cc = c.clamp(can.u_inf[i], can.u_sup[i]);
            if let Some(shadow) = shadow {
                let s = shadow[i] * inc.scale[i];
                if s.is_finite() {
                    // NaN-proof: f64::max ignores a NaN |cc - sc|
                    d = d.max((cc - s.clamp(inc.u_inf[i], inc.u_sup[i])).abs());
                } else {
                    shadow_finite = false;
                }
            }
        }
        if finite {
            self.envelope_violations += u64::from(escaped);
        } else {
            self.nonfinite += 1;
        }
        self.divergence
            .record(if finite && shadow_finite { d } else { f64::NAN });
    }
}

/// The engine-internal rollout trail and canary counters (one per
/// engine, shared across shards behind a mutex; updates are a few adds
/// per canary row, never per incumbent request).
#[derive(Debug, Default)]
pub(crate) struct RolloutLog {
    pub(crate) events: Vec<RolloutEvent>,
    pub(crate) canary_served: u64,
    pub(crate) canary: CanaryTally,
    pub(crate) drift_reports: Vec<DriftReport>,
}

impl RolloutLog {
    /// Resets the per-canary counters (a new propose starts a fresh
    /// comparison; the event trail and drift reports persist).
    pub(crate) fn reset_canary_counters(&mut self) {
        self.canary_served = 0;
        self.canary = CanaryTally::default();
    }
}

#[cfg(test)]
mod tests {
    #![allow(
        clippy::unwrap_used,
        clippy::expect_used,
        reason = "test code; panics are failures"
    )]
    use super::*;

    #[test]
    fn canary_routing_is_a_pure_function_of_the_id() {
        let hits: Vec<u64> = (0..1000u64)
            .filter(|id| routes_to_canary(*id, 250))
            .collect();
        let again: Vec<u64> = (0..1000u64)
            .filter(|id| routes_to_canary(*id, 250))
            .collect();
        assert_eq!(hits, again, "routing must be deterministic");
        // a permille split over FNV-1a lands near the nominal fraction
        assert!(
            hits.len() > 150 && hits.len() < 350,
            "250 permille of 1000 sequential ids routed {} to canary",
            hits.len()
        );
        // monotone in the fraction: a wider split is a superset
        for id in 0..1000u64 {
            if routes_to_canary(id, 250) {
                assert!(routes_to_canary(id, 900));
            }
        }
        assert!((0..100u64).all(|id| !routes_to_canary(id, 0)));
        assert!((0..100u64).all(|id| routes_to_canary(id, 1000)));
    }

    #[test]
    fn divergence_histogram_bins_by_magnitude() {
        let mut h = DivergenceHistogram::default();
        h.record(0.0);
        h.record(1e-13);
        h.record(1e-10);
        h.record(1e-7);
        h.record(1e-4);
        h.record(1e-2);
        h.record(0.5);
        h.record(7.0);
        assert_eq!(h.bins, [1, 1, 1, 1, 1, 1, 1, 1]);
        assert_eq!(h.count, 8);
        assert_eq!(h.max, 7.0);
        let mut other = DivergenceHistogram::default();
        other.record(f64::NAN);
        assert_eq!(other.bins[DIVERGENCE_BINS - 1], 1, "NaN lands in the tail");
        h.merge(&other);
        assert_eq!(h.count, 9);
        assert_eq!(h.bins[DIVERGENCE_BINS - 1], 2);
        assert!(h.render().starts_with("n=9 "));
    }

    #[test]
    fn total_variation_is_zero_on_identical_and_one_on_disjoint() {
        assert_eq!(total_variation(&[10, 0], &[5, 0]), 0.0);
        assert_eq!(total_variation(&[10, 0], &[0, 7]), 1.0);
        assert_eq!(total_variation(&[], &[]), 0.0);
        let half = total_variation(&[8, 8], &[16, 0]);
        assert!((half - 0.5).abs() < 1e-12);
    }

    #[test]
    fn drift_detector_freezes_a_baseline_then_flags_a_shift() {
        let cfg = DriftConfig {
            window: 8,
            bins: 4,
            threshold: 0.5,
        };
        let mut det = DriftDetector::new(cfg, &[-1.0], &[1.0]);
        // window 1: all mass near -1 — becomes the baseline, no alarm
        for _ in 0..8 {
            assert!(det.observe_row(&[-0.9]).is_none());
        }
        // window 2: same distribution — no alarm
        for _ in 0..8 {
            assert!(det.observe_row(&[-0.9]).is_none());
        }
        // window 3: all mass near +1 — total variation 1.0, alarm
        let mut alarm = None;
        for _ in 0..8 {
            if let Some(r) = det.observe_row(&[0.9]) {
                alarm = Some(r);
            }
        }
        let report = alarm.expect("shifted window raises drift");
        assert_eq!(report.dim, 0);
        assert!(report.distance > 0.99);
        assert_eq!(det.alarms(), 1);
        let req = report.to_retrain_request("oscillator");
        assert_eq!(req.system, "oscillator");
        assert!(req.reason.contains("drift"));
        // rebaseline: the next window freezes silently again
        det.rebaseline();
        for _ in 0..16 {
            assert!(det.observe_row(&[0.9]).is_none(), "rebaselined");
        }
    }
}
