//! Formal verification walk-through: Bernstein certification, invariant
//! sets and both reachability modes — without the RL pipeline (a fixed
//! neural controller is cloned from a stabilizing law, so this example is
//! fast and deterministic).
//!
//! ```text
//! cargo run --release --example verify_invariant
//! ```

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "examples abort on failure by design"
)]

use cocktail_control::{Controller, LinearFeedbackController, NnController};
use cocktail_core::SystemId;
use cocktail_distill::TeacherDataset;
use cocktail_env::Dynamics;
use cocktail_math::parallel::default_workers;
use cocktail_math::{BoxRegion, Matrix};
use cocktail_nn::train::{fit_regression, TrainConfig};
use cocktail_nn::{Activation, MlpBuilder};
use cocktail_obs::NullSink;
use cocktail_verify::reach::ReachMode;
use cocktail_verify::{
    certify_controller, CertificateConfig, ErrorMargin, InvariantConfig, ReachConfig, SafetyParams,
};

/// Clones `u = -(3 s1 + 4 s2)` into a small tanh network.
fn neural_controller(sys: &dyn Dynamics) -> NnController {
    let law = LinearFeedbackController::new(Matrix::from_rows(vec![vec![3.0, 4.0]]));
    let data = TeacherDataset::sample_uniform(&law, &sys.verification_domain(), 1024, 0);
    let (_, u_hi) = sys.control_bounds();
    let targets: Vec<Vec<f64>> = data
        .controls()
        .iter()
        .map(|u| {
            u.iter()
                .zip(&u_hi)
                .map(|(&v, &h)| (v / h).clamp(-1.0, 1.0))
                .collect()
        })
        .collect();
    let mut net = MlpBuilder::new(2)
        .hidden(16, Activation::Tanh)
        .output(1, Activation::Tanh)
        .seed(7)
        .build();
    fit_regression(
        &mut net,
        data.states(),
        &targets,
        &TrainConfig {
            epochs: 150,
            ..Default::default()
        },
    );
    NnController::with_name(net, u_hi, "cloned-damping")
}

fn main() {
    let sys = SystemId::Oscillator.dynamics();
    let controller = neural_controller(sys.as_ref());
    println!(
        "controller: {} with L = {:.1}",
        controller.name(),
        controller.lipschitz_constant()
    );

    // a fine certificate and invariant grid, and reachability from a
    // corner of X0 by grid paving and by subdivision
    let [paving, subdivision] = [ReachMode::GridPaving, ReachMode::Subdivision].map(|mode| {
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
            reach: ReachConfig {
                steps: 40,
                split_width: 0.05,
                mode,
                ..Default::default()
            },
            initial_set: BoxRegion::from_bounds(&[1.0, 1.0], &[1.1, 1.1]),
        };
        certify_controller(
            sys.as_ref(),
            controller.network(),
            controller.scale(),
            &params,
            default_workers(),
            &NullSink,
        )
        .expect("certificate fits the budget and reach stays in the domain")
    });

    // ---- 1. Bernstein certification
    println!(
        "certificate: {} pieces, eps = {:.3} (kappa(x) ∈ B_p(x) ± eps on every piece), verdict {}",
        paving.cert.pieces,
        paving.cert.epsilon,
        paving.cert.verdict.label()
    );

    // ---- 2. control invariant set (Fig. 3 machinery)
    let inv = &paving.invariant;
    println!(
        "invariant set: {:.1}% of X in {:.2?}; contains origin: {}",
        100.0 * inv.alive_fraction(),
        inv.duration,
        inv.contains(&[0.0, 0.0])
    );

    // ---- 3. reachability from a corner of X0 (Fig. 4 machinery)
    for (name, reach) in [
        ("grid paving", &paving.reach),
        ("subdivision", &subdivision.reach),
    ] {
        let hull = reach.final_hull();
        println!(
            "reach ({name}): safe = {}, peak boxes = {}, final hull = {hull}, {:.2?}",
            reach.verified_safe, reach.peak_boxes, reach.duration
        );
    }
}
