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
//! Both students go through [`certify_controller`], the loop admission
//! re-derives, under `default_params` with this figure's certificate and
//! invariant budgets; the invariant set is read off the certification's
//! evidence.
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
use cocktail_env::{rollout, Dynamics, RolloutConfig};
use cocktail_math::parallel::default_workers;
use cocktail_obs::NullSink;
use cocktail_verify::{
    certify_controller, default_params, CertificateConfig, ErrorMargin, InvariantConfig,
    InvariantResult, SafetyParams,
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

/// Certifies `student` under `params` and reads the invariant set off the
/// certification's evidence.
fn analyze(
    label: &str,
    student: &NnController,
    sys: &dyn Dynamics,
    params: &SafetyParams,
) -> (Fig3Side, Option<InvariantResult>) {
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
    let ok = run.as_ref().ok();
    let side = Fig3Side {
        controller: label.to_owned(),
        lipschitz: student.lipschitz_constant(),
        bernstein_pieces: ok.map(|run| run.cert.pieces),
        epsilon: ok.map(|run| run.cert.epsilon),
        invariant_fraction: ok.map(|run| run.invariant.alive_fraction()),
        verification_seconds,
        failure: run.as_ref().err().map(ToString::to_string),
        cells: ok.map_or_else(Vec::new, |run| {
            run.invariant
                .cells()
                .iter()
                .map(|c| c.intervals().iter().map(|iv| (iv.lo(), iv.hi())).collect())
                .collect()
        }),
    };
    (side, run.ok().map(|run| run.invariant))
}

fn main() {
    let preset = Preset::from_env(Preset::Full);
    let sys_id = SystemId::Oscillator;
    let sys = sys_id.dynamics();
    println!("== Fig. 3: oscillator invariant sets (preset {preset:?}) ==");
    let set = build_controller_set(sys_id, preset, 0);

    // the export budgets with the figure's own certificate (the
    // first-order margin the figure is about) and iteration cap
    let params = SafetyParams {
        certificate: CertificateConfig {
            degree: 4,
            tolerance: 0.15,
            max_pieces: 1 << 18,
            error_samples_per_dim: 9,
            margin: ErrorMargin::Lipschitz,
        },
        invariant: InvariantConfig {
            grid: 60,
            max_iterations: 1000,
        },
        ..default_params(sys.as_ref())
    };
    println!(
        "params: default_params(oscillator) with certificate {:?} and invariant {:?}",
        params.certificate, params.invariant
    );

    let kappa_star = set.kappa_star.as_ref();
    let kappa_d = set.kappa_d.as_ref();

    let (side_star, inv_star) = analyze("kappa_star", kappa_star, sys.as_ref(), &params);
    let (side_d, _) = analyze("kappa_D", kappa_d, sys.as_ref(), &params);

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
            grid: params.invariant.grid,
            simulations,
            simulations_safe,
            sides: vec![side_star, side_d],
        },
    );
}
