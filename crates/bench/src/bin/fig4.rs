//! Regenerates **Fig. 4**: the reachable set of the 3D system over the
//! first 15 control steps from
//! `s ∈ [-0.11, -0.105] × [0.205, 0.21] × [0.1, 0.11]`.
//!
//! The paper's observation: `κ_D` "cannot be verified because of a memory
//! segmentation fault after 12 reachable set computations, caused by its
//! large Lipschitz constant", while `κ*` verifies within minutes. Here the
//! blow-up surfaces as a `ResourceExhausted` error when the Bernstein
//! certificate or the reachable-cell paving exceeds its budget.
//!
//! Both students go through [`certify_controller`], the loop admission
//! re-derives, under `default_params` with this figure's certificate and
//! reach budgets; the reachable tube is read off the certification's
//! evidence.
//!
//! ```text
//! cargo run --release -p cocktail-bench --bin fig4
//! ```

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment harness code aborts on failure by design"
)]

use cocktail_bench::save_artifact;
use cocktail_control::NnController;
use cocktail_core::experiment::{build_controller_set, Preset};
use cocktail_core::SystemId;
use cocktail_env::Dynamics;
use cocktail_math::parallel::default_workers;
use cocktail_math::BoxRegion;
use cocktail_obs::NullSink;
use cocktail_verify::reach::ReachMode;
use cocktail_verify::{
    certify_controller, default_params, CertificateConfig, ErrorMargin, ReachConfig, SafetyParams,
};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Fig4Side {
    controller: String,
    lipschitz: f64,
    bernstein_pieces: Option<usize>,
    verified_safe: Option<bool>,
    peak_cells: Option<usize>,
    verification_seconds: f64,
    failure: Option<String>,
    /// Per-step `(x, y)` hull of the reachable set (the paper plots x–y).
    xy_hulls: Vec<((f64, f64), (f64, f64))>,
}

/// Certifies `student` under `params` and reads the reachable tube off the
/// certification's evidence.
fn analyze(
    label: &str,
    student: &NnController,
    sys: &dyn Dynamics,
    params: &SafetyParams,
) -> Fig4Side {
    let start = Instant::now();
    let run = certify_controller(
        sys,
        student.network(),
        student.scale(),
        params,
        default_workers(),
        &NullSink,
    );
    let verification_seconds = start.elapsed().as_secs_f64();
    let reach = run.as_ref().ok().map(|run| &run.reach);
    Fig4Side {
        controller: label.to_owned(),
        lipschitz: student.lipschitz_constant(),
        bernstein_pieces: run.as_ref().ok().map(|run| run.cert.pieces),
        verified_safe: reach.map(|r| r.verified_safe),
        peak_cells: reach.map(|r| r.peak_boxes),
        verification_seconds,
        failure: run.as_ref().err().map(ToString::to_string),
        xy_hulls: reach.map_or_else(Vec::new, |r| {
            r.frames
                .iter()
                .map(|frame| {
                    let hull = frame[1..].iter().fold(frame[0].clone(), |h, b| h.hull(b));
                    (
                        (hull.interval(0).lo(), hull.interval(0).hi()),
                        (hull.interval(1).lo(), hull.interval(1).hi()),
                    )
                })
                .collect()
        }),
    }
}

fn main() {
    let preset = Preset::from_env(Preset::Full);
    let sys_id = SystemId::Poly3d;
    let sys = sys_id.dynamics();
    println!("== Fig. 4: 3D-system reachable set, 15 steps (preset {preset:?}) ==");
    let set = build_controller_set(sys_id, preset, 0);

    // the export budgets with the figure's own certificate (first-order
    // margin) and reach: the paper's box, tracked by subdivision for 15
    // steps. The budget separates the two students: κ*'s low Lipschitz
    // constant fits comfortably, κ_D's does not
    let params = SafetyParams {
        certificate: CertificateConfig {
            degree: 3,
            tolerance: 0.06,
            max_pieces: 60_000,
            error_samples_per_dim: 7,
            margin: ErrorMargin::Lipschitz,
        },
        reach: ReachConfig {
            steps: 15,
            split_width: 0.01,
            max_boxes: 100_000,
            fail_on_unsafe: false,
            mode: ReachMode::Subdivision,
        },
        initial_set: BoxRegion::from_bounds(&[-0.11, 0.205, 0.1], &[-0.105, 0.21, 0.11]),
        ..default_params(sys.as_ref())
    };
    println!(
        "params: default_params(3d) with certificate {:?}, reach {:?} and initial set {}",
        params.certificate, params.reach, params.initial_set
    );

    let side_star = analyze("kappa_star", set.kappa_star.as_ref(), sys.as_ref(), &params);
    let side_d = analyze("kappa_D", set.kappa_d.as_ref(), sys.as_ref(), &params);

    for side in [&side_star, &side_d] {
        println!(
            "{:<12} L {:7.1}  pieces {:>6}  safe {:>5}  peak cells {:>7}  time {:>7.2}s  {}",
            side.controller,
            side.lipschitz,
            side.bernstein_pieces.map_or("-".into(), |p| p.to_string()),
            side.verified_safe.map_or("-".into(), |s| s.to_string()),
            side.peak_cells.map_or("-".into(), |c| c.to_string()),
            side.verification_seconds,
            side.failure.as_deref().unwrap_or("ok"),
        );
    }
    if !side_star.xy_hulls.is_empty() {
        println!("\nkappa_star reachable x-y hull per step:");
        for (t, ((xlo, xhi), (ylo, yhi))) in side_star.xy_hulls.iter().enumerate() {
            println!("  t={t:<2} x [{xlo:+.3}, {xhi:+.3}]  y [{ylo:+.3}, {yhi:+.3}]");
        }
    }

    save_artifact("fig4.json", &vec![side_star, side_d]);
}
