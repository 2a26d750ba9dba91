//! Integration tests of the verification stack against pipeline-produced
//! students: the certificates must be sound for the *actual* networks the
//! framework emits, and the analyses must agree with simulation.

#![allow(clippy::expect_used, clippy::unwrap_used)] // test helpers panic on setup failure by design

use cocktail_control::Controller;
use cocktail_core::experiment::{build_controller_set, ControllerSet, Preset};
use cocktail_core::SystemId;
use cocktail_env::{rollout, RolloutConfig};
use cocktail_math::BoxRegion;
use cocktail_obs::NullSink;
use cocktail_verify::reach::ReachMode;
use cocktail_verify::{
    certify_controller, BernsteinCertificate, CertificateConfig, Certification, ControlEnclosure,
    ErrorMargin, InvariantConfig, ReachConfig, SafetyParams, VerifyError,
};
use std::sync::OnceLock;

fn oscillator_set() -> &'static ControllerSet {
    static CELL: OnceLock<ControllerSet> = OnceLock::new();
    CELL.get_or_init(|| build_controller_set(SystemId::Oscillator, Preset::Smoke, 0))
}

const CERTIFICATE: CertificateConfig = CertificateConfig {
    degree: 4,
    tolerance: 0.3,
    max_pieces: 1 << 17,
    error_samples_per_dim: 7,
    margin: ErrorMargin::Lipschitz,
};

fn certificate(student: &cocktail_control::NnController) -> BernsteinCertificate {
    let sys = SystemId::Oscillator.dynamics();
    BernsteinCertificate::build_with_workers(
        student.network(),
        student.scale(),
        &sys.verification_domain(),
        &CERTIFICATE,
        2,
    )
    .expect("smoke students fit the budget")
    .0
}

/// κ*'s certification, shared by the invariant and reach tests:
/// [`CERTIFICATE`], a 50-cell invariant grid, and 12 steps of reach by
/// subdivision from `[0.2, 0.3]²`.
fn kappa_star_certification() -> &'static Certification {
    static CELL: OnceLock<Certification> = OnceLock::new();
    CELL.get_or_init(|| {
        let sys = SystemId::Oscillator.dynamics();
        let student = &oscillator_set().kappa_star;
        let params = SafetyParams {
            certificate: CERTIFICATE,
            invariant: InvariantConfig {
                grid: 50,
                max_iterations: 500,
            },
            reach: ReachConfig {
                steps: 12,
                split_width: 0.05,
                mode: ReachMode::Subdivision,
                ..Default::default()
            },
            initial_set: BoxRegion::from_bounds(&[0.2, 0.2], &[0.3, 0.3]),
        };
        certify_controller(
            sys.as_ref(),
            student.network(),
            student.scale(),
            &params,
            2,
            &NullSink,
        )
        .expect("the smoke κ* certifies and its tube stays in the domain")
    })
}

#[test]
fn certificate_is_sound_for_pipeline_students() {
    let set = oscillator_set();
    let sys = SystemId::Oscillator.dynamics();
    for student in [&set.kappa_star, &set.kappa_d] {
        let cert = certificate(student);
        let mut rng = cocktail_math::rng::seeded(2);
        for _ in 0..200 {
            let s = cocktail_math::rng::uniform_in_box(&mut rng, &sys.verification_domain());
            let truth = student.control(&s)[0];
            let tiny =
                BoxRegion::from_bounds(&[s[0] - 1e-9, s[1] - 1e-9], &[s[0] + 1e-9, s[1] + 1e-9])
                    .intersect(&sys.verification_domain())
                    .expect("inside");
            let bound = cert.enclose(&tiny)[0];
            assert!(
                bound.inflate(1e-6).contains(truth),
                "{truth} escapes {bound}"
            );
        }
    }
}

#[test]
fn certified_invariant_cells_are_safe_under_simulation() {
    let set = oscillator_set();
    let sys = SystemId::Oscillator.dynamics();
    let inv = &kappa_star_certification().invariant;
    // the smoke student may or may not admit a non-empty grid-invariant
    // set; when it does, every cell must be safe under long simulation
    let cells = inv.cells();
    if cells.is_empty() {
        return;
    }
    let mut rng = cocktail_math::rng::seeded(3);
    for (i, cell) in cells.iter().step_by(cells.len().div_ceil(25)).enumerate() {
        let s0 = cocktail_math::rng::uniform_in_box(&mut rng, cell);
        let mut control = |s: &[f64]| set.kappa_star.control(s);
        let mut no_attack = |_t: usize, s: &[f64]| vec![0.0; s.len()];
        let traj = rollout(
            sys.as_ref(),
            &mut control,
            &mut no_attack,
            &s0,
            &RolloutConfig {
                horizon: Some(500),
                seed: i as u64,
                ..Default::default()
            },
        );
        assert!(
            traj.is_safe(),
            "invariant cell {cell} produced unsafe trajectory"
        );
    }
}

#[test]
fn reach_frames_contain_simulated_student_trajectories() {
    let set = oscillator_set();
    let sys = SystemId::Oscillator.dynamics();
    let run = kappa_star_certification();
    let (x0, result) = (&run.cert.params.initial_set, &run.reach);
    // the reach analysis assumes worst-case disturbance; simulate with the
    // sampled disturbance and check frame membership
    let mut rng = cocktail_math::rng::seeded(5);
    for run in 0..10 {
        let mut s = cocktail_math::rng::uniform_in_box(&mut rng, x0);
        let mut omega_rng = cocktail_math::rng::seeded(run);
        for frame in &result.frames {
            assert!(
                frame.iter().any(|b| b.inflate(1e-9).contains(&s)),
                "state {s:?} escapes its frame"
            );
            let u = sys.clip_control(&set.kappa_star.control(&s));
            let w = cocktail_math::rng::uniform_symmetric(&mut omega_rng, 1, 0.05);
            s = sys.step(&s, &u, &w);
        }
    }
}

#[test]
fn tighter_budgets_fail_gracefully_not_catastrophically() {
    let set = oscillator_set();
    let sys = SystemId::Oscillator.dynamics();
    let result = BernsteinCertificate::build_with_workers(
        set.kappa_d.network(),
        set.kappa_d.scale(),
        &sys.verification_domain(),
        &CertificateConfig {
            degree: 4,
            tolerance: 1e-4,
            max_pieces: 64,
            error_samples_per_dim: 5,
            margin: ErrorMargin::Lipschitz,
        },
        2,
    );
    assert!(matches!(result, Err(VerifyError::ResourceExhausted { .. })));
}

#[test]
fn verification_cost_tracks_the_lipschitz_gap() {
    // the paper's core verifiability claim: the lower-Lipschitz student is
    // cheaper to certify (fewer Bernstein pieces) whenever the L gap is
    // substantial
    let set = oscillator_set();
    let l_star = set.kappa_star.lipschitz_constant();
    let l_d = set.kappa_d.lipschitz_constant();
    if l_d < 1.5 * l_star {
        // smoke-budget training happened to produce similar constants;
        // the claim is only meaningful with a real gap
        return;
    }
    let cert_star = certificate(&set.kappa_star);
    let cert_d = certificate(&set.kappa_d);
    assert!(
        cert_star.piece_count() <= cert_d.piece_count(),
        "kappa_star (L={l_star:.1}) needed {} pieces vs kappa_D (L={l_d:.1}) {}",
        cert_star.piece_count(),
        cert_d.piece_count()
    );
}
