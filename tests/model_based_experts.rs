//! Integration of the model-based LQR experts with the Cocktail pipeline —
//! the paper's "experts could be based on well-established model-based
//! approaches such as MPC or LQR".

use cocktail_control::lqr::{linearize, lqr_controller};
use cocktail_control::Controller;
use cocktail_core::experiment::pipeline_config;
use cocktail_core::metrics::{evaluate, EvalConfig};
use cocktail_core::pipeline::Cocktail;
use cocktail_core::{Preset, SystemId};
use cocktail_math::linalg::spectral_radius;
use std::sync::Arc;

#[test]
fn lqr_gains_schur_stabilize_every_system() {
    for sys_id in SystemId::all() {
        let sys = sys_id.dynamics();
        let sw = vec![1.0; sys.state_dim()];
        let cw = vec![0.5; sys.control_dim()];
        let k = lqr_controller(sys.as_ref(), &sw, &cw, "lqr").expect("stabilizable");
        let lin = linearize(
            sys.as_ref(),
            &vec![0.0; sys.state_dim()],
            &vec![0.0; sys.control_dim()],
        );
        let mut a_cl = lin.a.clone();
        a_cl.axpy(-1.0, &lin.b.matmul(k.gain()));
        let rho = spectral_radius(&a_cl);
        assert!(rho < 1.0, "{sys_id}: closed-loop spectral radius {rho}");
    }
}

#[test]
fn lqr_expert_pair_feeds_the_pipeline() {
    let sys_id = SystemId::Oscillator;
    let sys = sys_id.dynamics();
    let soft = lqr_controller(sys.as_ref(), &[1.0, 1.0], &[2.0], "lqr-soft").expect("ok");
    let hard = lqr_controller(sys.as_ref(), &[10.0, 10.0], &[0.2], "lqr-hard").expect("ok");
    let experts: Vec<Arc<dyn Controller>> = vec![Arc::new(soft), Arc::new(hard)];
    // recovering already-strong experts needs a real (if modest) PPO
    // budget; the Smoke preset's 4 iterations are not enough
    let mut config = pipeline_config(sys_id, Preset::Smoke, 0);
    config.ppo.iterations = 40;
    config.ppo.episodes_per_iteration = 8;
    let result = Cocktail::new(sys_id, experts.clone())
        .with_config(config)
        .run();
    let cfg = EvalConfig {
        samples: 120,
        ..Default::default()
    };
    let mixed = evaluate(sys.as_ref(), result.mixed.as_ref(), &cfg);
    let best_expert = experts
        .iter()
        .map(|e| evaluate(sys.as_ref(), e.as_ref(), &cfg).safe_rate)
        .fold(0.0, f64::max);
    assert!(
        mixed.safe_rate >= best_expert - 0.15,
        "mixed {} vs best expert {}",
        mixed.safe_rate,
        best_expert
    );
    assert!(result.kappa_star.lipschitz_constant().is_finite());
}
