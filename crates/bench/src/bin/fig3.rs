//! Regenerates **Fig. 3**: the control invariant set of the Van der Pol
//! oscillator under `κ*` and under `κ_D`, with the verification wall-clock
//! gap and the 1500-trajectory simulation check.
//!
//! The paper reports ≈32 minutes for `κ*` vs ≈11 hours for `κ_D` with the
//! tool of Xue & Zhan \[22\]; our grid-fixpoint substrate is far faster in
//! absolute terms but preserves the *direction*: the higher-Lipschitz
//! student needs a finer Bernstein partition, which makes its certificate
//! construction and fixpoint more expensive (or exhausts the budget).
//!
//! ```text
//! cargo run --release -p cocktail-bench --bin fig3
//! ```

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment harness code aborts on failure by design"
)]

use cocktail_bench::save_artifact;
use cocktail_control::{Controller, NnController};
use cocktail_core::experiment::{build_controller_set, Preset};
use cocktail_core::SystemId;
use cocktail_env::{rollout, RolloutConfig};
use cocktail_verify::{
    invariant_set, BernsteinCertificate, CertificateConfig, ErrorMargin, InvariantConfig,
    VerifyError,
};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Fig3Side {
    controller: String,
    lipschitz: f64,
    bernstein_pieces: Option<usize>,
    epsilon: Option<f64>,
    invariant_fraction: Option<f64>,
    verification_seconds: f64,
    failure: Option<String>,
    /// Surviving cells as `[lo, hi]` pairs per dimension (for plotting).
    cells: Vec<Vec<(f64, f64)>>,
}

#[derive(Serialize)]
struct Fig3Artifact {
    grid: usize,
    simulations: usize,
    simulations_safe: usize,
    sides: Vec<Fig3Side>,
}

fn analyze(
    label: &str,
    student: &NnController,
    sys: &dyn cocktail_env::Dynamics,
    cert_cfg: &CertificateConfig,
    inv_cfg: &InvariantConfig,
) -> (Fig3Side, Option<cocktail_verify::InvariantResult>) {
    let start = Instant::now();
    let lipschitz = student.lipschitz_constant();
    let cert = BernsteinCertificate::build(
        student.network(),
        student.scale(),
        &sys.verification_domain(),
        cert_cfg,
    );
    match cert {
        Err(e) => (
            Fig3Side {
                controller: label.to_owned(),
                lipschitz,
                bernstein_pieces: None,
                epsilon: None,
                invariant_fraction: None,
                verification_seconds: start.elapsed().as_secs_f64(),
                failure: Some(e.to_string()),
                cells: Vec::new(),
            },
            None,
        ),
        Ok(cert) => {
            let result: Result<cocktail_verify::InvariantResult, VerifyError> =
                invariant_set(sys, &cert, inv_cfg);
            let elapsed = start.elapsed().as_secs_f64();
            match result {
                Ok(inv) => {
                    let cells = inv
                        .cells()
                        .iter()
                        .map(|c| {
                            c.intervals()
                                .iter()
                                .map(|iv| (iv.lo(), iv.hi()))
                                .collect::<Vec<_>>()
                        })
                        .collect();
                    (
                        Fig3Side {
                            controller: label.to_owned(),
                            lipschitz,
                            bernstein_pieces: Some(cert.piece_count()),
                            epsilon: Some(cert.epsilon()),
                            invariant_fraction: Some(inv.alive_fraction()),
                            verification_seconds: elapsed,
                            failure: None,
                            cells,
                        },
                        Some(inv),
                    )
                }
                Err(e) => (
                    Fig3Side {
                        controller: label.to_owned(),
                        lipschitz,
                        bernstein_pieces: Some(cert.piece_count()),
                        epsilon: Some(cert.epsilon()),
                        invariant_fraction: None,
                        verification_seconds: elapsed,
                        failure: Some(e.to_string()),
                        cells: Vec::new(),
                    },
                    None,
                ),
            }
        }
    }
}

fn main() {
    let preset = Preset::from_env(Preset::Full);
    let sys_id = SystemId::Oscillator;
    let sys = sys_id.dynamics();
    println!("== Fig. 3: oscillator invariant sets (preset {preset:?}) ==");
    let set = build_controller_set(sys_id, preset, 0);

    let cert_cfg = CertificateConfig {
        degree: 4,
        tolerance: 0.15,
        max_pieces: 1 << 18,
        error_samples_per_dim: 9,
        margin: ErrorMargin::Lipschitz,
    };
    let inv_cfg = InvariantConfig {
        grid: 60,
        max_iterations: 1000,
    };

    let kappa_star = set.kappa_star.as_ref();
    let kappa_d = set.kappa_d.as_ref();

    let (side_star, inv_star) =
        analyze("kappa_star", kappa_star, sys.as_ref(), &cert_cfg, &inv_cfg);
    let (side_d, _) = analyze("kappa_D", kappa_d, sys.as_ref(), &cert_cfg, &inv_cfg);

    for side in [&side_star, &side_d] {
        println!(
            "{:<12} L {:7.1}  pieces {:>6}  eps {:>8}  invariant {:>7}  time {:>8.2}s  {}",
            side.controller,
            side.lipschitz,
            side.bernstein_pieces.map_or("-".into(), |p| p.to_string()),
            side.epsilon.map_or("-".into(), |e| format!("{e:.3}")),
            side.invariant_fraction
                .map_or("-".into(), |f| format!("{:.1}%", 100.0 * f)),
            side.verification_seconds,
            side.failure.as_deref().unwrap_or("ok"),
        );
    }

    // the paper's 1500-simulation sanity check: trajectories started inside
    // X_I(κ*) must stay safe
    let (simulations, simulations_safe) = match &inv_star {
        None => (0, 0),
        Some(inv) if inv.alive_fraction() > 0.0 => {
            let mut rng = cocktail_math::rng::seeded(7);
            let cells = inv.cells();
            let mut safe = 0usize;
            let total = 1500usize;
            for i in 0..total {
                let cell = &cells[i % cells.len()];
                let s0 = cocktail_math::rng::uniform_in_box(&mut rng, cell);
                let mut control = |s: &[f64]| kappa_star.control(s);
                let mut no_attack = |_t: usize, s: &[f64]| vec![0.0; s.len()];
                let traj = rollout(
                    sys.as_ref(),
                    &mut control,
                    &mut no_attack,
                    &s0,
                    &RolloutConfig {
                        horizon: Some(300),
                        seed: i as u64,
                        ..Default::default()
                    },
                );
                if traj.is_safe() {
                    safe += 1;
                }
            }
            println!(
                "simulation check: {safe}/{total} trajectories from X_I(kappa_star) stayed safe"
            );
            (total, safe)
        }
        Some(_) => (0, 0),
    };

    save_artifact(
        "fig3.json",
        &Fig3Artifact {
            grid: inv_cfg.grid,
            simulations,
            simulations_safe,
            sides: vec![side_star, side_d],
        },
    );
}
