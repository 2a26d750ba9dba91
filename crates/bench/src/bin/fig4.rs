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
use cocktail_math::BoxRegion;
use cocktail_verify::reach::ReachMode;
use cocktail_verify::{
    reach_analysis, BernsteinCertificate, CertificateConfig, ErrorMargin, ReachConfig,
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

fn analyze(
    label: &str,
    student: &NnController,
    sys: &dyn cocktail_env::Dynamics,
    x0: &BoxRegion,
    cert_cfg: &CertificateConfig,
    reach_cfg: &ReachConfig,
) -> Fig4Side {
    let start = Instant::now();
    let lipschitz = student.lipschitz_constant();
    let cert = match BernsteinCertificate::build(
        student.network(),
        student.scale(),
        &sys.verification_domain(),
        cert_cfg,
    ) {
        Err(e) => {
            return Fig4Side {
                controller: label.to_owned(),
                lipschitz,
                bernstein_pieces: None,
                verified_safe: None,
                peak_cells: None,
                verification_seconds: start.elapsed().as_secs_f64(),
                failure: Some(e.to_string()),
                xy_hulls: Vec::new(),
            }
        }
        Ok(c) => c,
    };
    match reach_analysis(sys, &cert, x0, reach_cfg) {
        Ok(result) => {
            let xy_hulls = result
                .frames
                .iter()
                .map(|frame| {
                    let mut hull = frame[0].clone();
                    for b in &frame[1..] {
                        hull = hull.hull(b);
                    }
                    (
                        (hull.interval(0).lo(), hull.interval(0).hi()),
                        (hull.interval(1).lo(), hull.interval(1).hi()),
                    )
                })
                .collect();
            Fig4Side {
                controller: label.to_owned(),
                lipschitz,
                bernstein_pieces: Some(cert.piece_count()),
                verified_safe: Some(result.verified_safe),
                peak_cells: Some(result.peak_boxes),
                verification_seconds: start.elapsed().as_secs_f64(),
                failure: None,
                xy_hulls,
            }
        }
        Err(e) => Fig4Side {
            controller: label.to_owned(),
            lipschitz,
            bernstein_pieces: Some(cert.piece_count()),
            verified_safe: None,
            peak_cells: None,
            verification_seconds: start.elapsed().as_secs_f64(),
            failure: Some(e.to_string()),
            xy_hulls: Vec::new(),
        },
    }
}

fn main() {
    let preset = Preset::from_env(Preset::Full);
    let sys_id = SystemId::Poly3d;
    let sys = sys_id.dynamics();
    println!("== Fig. 4: 3D-system reachable set, 15 steps (preset {preset:?}) ==");
    let set = build_controller_set(sys_id, preset, 0);

    // the paper's initial box
    let x0 = BoxRegion::from_bounds(&[-0.11, 0.205, 0.1], &[-0.105, 0.21, 0.11]);
    // the budget separates the two students: κ*'s low Lipschitz constant
    // fits comfortably, κ_D's does not
    let cert_cfg = CertificateConfig {
        degree: 3,
        tolerance: 0.06,
        max_pieces: 60_000,
        error_samples_per_dim: 7,
        margin: ErrorMargin::Lipschitz,
    };
    let reach_cfg = ReachConfig {
        steps: 15,
        split_width: 0.01,
        max_boxes: 100_000,
        fail_on_unsafe: false,
        mode: ReachMode::Subdivision,
    };

    let side_star = analyze(
        "kappa_star",
        set.kappa_star.as_ref(),
        sys.as_ref(),
        &x0,
        &cert_cfg,
        &reach_cfg,
    );
    let side_d = analyze(
        "kappa_D",
        set.kappa_d.as_ref(),
        sys.as_ref(),
        &x0,
        &cert_cfg,
        &reach_cfg,
    );

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
