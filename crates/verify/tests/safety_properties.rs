//! Property-based tests of the end-to-end safety loop: for random small
//! students the reported reachable set really contains every sampled
//! closed-loop trajectory, and the certified control-invariant set is
//! actually invariant for one step under the *network* controller (not
//! just its enclosure) with sampled disturbances.

use cocktail_env::systems::VanDerPol;
use cocktail_env::Dynamics;
use cocktail_math::{rng, BoxRegion};
use cocktail_nn::train::{fit_regression, TrainConfig};
use cocktail_nn::{Activation, Mlp, MlpBuilder};
use cocktail_verify::reach::ReachMode;
use cocktail_verify::{
    invariant_set_with_workers, reach_analysis, BernsteinCertificate, CertificateConfig,
    ErrorMargin, InvariantConfig, ReachConfig,
};
use proptest::prelude::*;

/// One closed-loop step under the scaled network controller with the given
/// disturbance.
fn closed_loop_step(sys: &VanDerPol, net: &Mlp, scale: f64, s: &[f64], w: &[f64]) -> Vec<f64> {
    let u = sys.clip_control(&[scale * net.forward(s)[0]]);
    sys.step(s, &u, w)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sampled closed-loop trajectories of random students never escape
    /// the reported reachable frames: frame `k` contains the state after
    /// `k` steps, for every sampled disturbance sequence.
    #[test]
    fn trajectories_never_escape_the_reachable_set(
        seed in 0u64..200,
        scale in 2.0..20.0f64,
        cx in -0.5..0.5f64,
        cy in -0.5..0.5f64,
    ) {
        let sys = VanDerPol::new();
        let net = MlpBuilder::new(2)
            .hidden(6, Activation::Tanh)
            .output(1, Activation::Tanh)
            .seed(seed)
            .build();
        let (cert, _) = BernsteinCertificate::build_with_workers(
            &net,
            &[scale],
            &sys.verification_domain(),
            &CertificateConfig {
                degree: 3,
                tolerance: 2.0,
                max_pieces: 1 << 12,
                error_samples_per_dim: 4,
                margin: ErrorMargin::Lipschitz,
            },
            2,
        ).expect("budget suffices for tiny nets");
        let x0 = BoxRegion::from_bounds(&[cx - 0.1, cy - 0.1], &[cx + 0.1, cy + 0.1]);
        let result = reach_analysis(
            &sys,
            &cert,
            &x0,
            &ReachConfig {
                steps: 6,
                split_width: 0.25,
                max_boxes: 50_000,
                fail_on_unsafe: false,
                mode: ReachMode::GridPaving,
            },
        ).expect("analysis inside the domain");
        let mut r = rng::seeded(seed.wrapping_mul(31).wrapping_add(1));
        let amp = sys.disturbance_amplitude();
        let amp0 = amp.first().copied().unwrap_or(0.0);
        let domain = sys.verification_domain();
        for _ in 0..5 {
            let mut s = rng::uniform_in_box(&mut r, &x0);
            for (k, frame) in result.frames.iter().enumerate() {
                if !domain.contains(&s) {
                    // the loop left the safe domain: the analysis only
                    // covers X, and it must have reported the escape
                    prop_assert!(
                        !result.verified_safe,
                        "step {k}: {s:?} left the domain but the analysis claimed safe"
                    );
                    break;
                }
                prop_assert!(
                    frame.iter().any(|b| b.inflate(1e-9).contains(&s)),
                    "step {k}: {s:?} escaped the reachable frame"
                );
                let w = rng::uniform_symmetric(&mut r, amp.len(), amp0);
                s = closed_loop_step(&sys, &net, scale, &s, &w);
            }
        }
    }
}

/// Points inside the certified control-invariant set stay inside for one
/// step of the *network* closed loop under sampled disturbances — the
/// Definition-1 property the grid fixpoint claims.
#[test]
fn invariant_points_stay_inside_for_one_step() {
    let sys = VanDerPol::new();
    let net = stabilizing_net();
    let (cert, _) = BernsteinCertificate::build_with_workers(
        &net,
        &[20.0],
        &sys.verification_domain(),
        &CertificateConfig {
            degree: 4,
            tolerance: 0.35,
            max_pieces: 1 << 15,
            error_samples_per_dim: 5,
            margin: ErrorMargin::Lipschitz,
        },
        2,
    )
    .expect("stabilizing student certifies");
    let result = invariant_set_with_workers(
        &sys,
        &cert,
        &InvariantConfig {
            grid: 24,
            max_iterations: 200,
        },
        2,
    )
    .expect("dimensions agree");
    assert!(result.converged, "fixpoint must converge");
    let cells = result.cells();
    assert!(
        !cells.is_empty(),
        "certified invariant set must be non-empty for a stabilizing student"
    );
    let mut r = rng::seeded(99);
    let amp = sys.disturbance_amplitude();
    let amp0 = amp.first().copied().unwrap_or(0.0);
    let mut checked = 0usize;
    for cell in cells.iter().step_by(cells.len().div_ceil(64).max(1)) {
        for _ in 0..4 {
            let s = rng::uniform_in_box(&mut r, cell);
            assert!(result.contains(&s), "sampled point must start inside");
            let w = rng::uniform_symmetric(&mut r, amp.len(), amp0);
            let next = closed_loop_step(&sys, &net, 20.0, &s, &w);
            assert!(
                result.contains(&next),
                "{s:?} left the invariant set in one step (→ {next:?})"
            );
            checked += 1;
        }
    }
    assert!(checked >= 64, "only {checked} samples checked");
}

/// Clones a stabilizing linear law into a small student (same recipe as the
/// report-level certification test).
fn stabilizing_net() -> Mlp {
    let mut states = Vec::new();
    let mut targets = Vec::new();
    let domain = BoxRegion::cube(2, -2.0, 2.0);
    let mut r = rng::seeded(0);
    for _ in 0..512 {
        let s = rng::uniform_in_box(&mut r, &domain);
        let u = -(3.0 * s[0] + 4.0 * s[1]);
        targets.push(vec![(u / 20.0).clamp(-1.0, 1.0)]);
        states.push(s);
    }
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
