//! Integration tests of the verification stack against pipeline-produced
//! students: the certificates must be sound for the *actual* networks the
//! framework emits, and the analyses must agree with simulation.

#![allow(clippy::expect_used, clippy::unwrap_used)] // test helpers panic on setup failure by design

use cocktail_control::Controller;
use cocktail_core::experiment::{build_controller_set, ControllerSet, Preset};
use cocktail_core::SystemId;
use cocktail_env::{rollout, RolloutConfig};
use cocktail_math::BoxRegion;
use cocktail_verify::lyapunov::{
    solve_discrete_lyapunov, verify_ellipsoid_invariant, QuadraticForm,
};
use cocktail_verify::reach::ReachMode;
use cocktail_verify::{
    invariant_set, reach_analysis, BernsteinCertificate, CertificateConfig, ControlEnclosure,
    ErrorMargin, InvariantConfig, ReachConfig, VerifyError,
};
use std::sync::OnceLock;

fn oscillator_set() -> &'static ControllerSet {
    static CELL: OnceLock<ControllerSet> = OnceLock::new();
    CELL.get_or_init(|| build_controller_set(SystemId::Oscillator, Preset::Smoke, 0))
}

fn certificate(student: &cocktail_control::NnController) -> BernsteinCertificate {
    let sys = SystemId::Oscillator.dynamics();
    BernsteinCertificate::build(
        student.network(),
        student.scale(),
        &sys.verification_domain(),
        &CertificateConfig {
            degree: 4,
            tolerance: 0.3,
            max_pieces: 1 << 17,
            error_samples_per_dim: 7,
            margin: ErrorMargin::Lipschitz,
        },
    )
    .expect("smoke students fit the budget")
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
    let cert = certificate(&set.kappa_star);
    let inv = invariant_set(
        sys.as_ref(),
        &cert,
        &InvariantConfig {
            grid: 50,
            max_iterations: 500,
        },
    )
    .expect("dimensions agree");
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
    let cert = certificate(&set.kappa_star);
    let x0 = BoxRegion::from_bounds(&[0.2, 0.2], &[0.3, 0.3]);
    let result = reach_analysis(
        sys.as_ref(),
        &cert,
        &x0,
        &ReachConfig {
            steps: 12,
            split_width: 0.05,
            mode: ReachMode::Subdivision,
            ..Default::default()
        },
    )
    .expect("verifies");
    // the reach analysis assumes worst-case disturbance; simulate with the
    // sampled disturbance and check frame membership
    let mut rng = cocktail_math::rng::seeded(5);
    for run in 0..10 {
        let mut s = cocktail_math::rng::uniform_in_box(&mut rng, &x0);
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
    let result = BernsteinCertificate::build(
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
    );
    assert!(matches!(result, Err(VerifyError::ResourceExhausted { .. })));
}

/// Lyapunov path on a pipeline student: linearize the *neural* closed
/// loop at the attractor numerically, solve the discrete Lyapunov
/// equation, and soundly verify an ellipsoidal invariant set with the
/// Bernstein enclosure.
#[test]
fn ellipsoid_certificate_for_pipeline_student() {
    let set = oscillator_set();
    let sys = SystemId::Oscillator.dynamics();
    let student = &set.kappa_star;

    // find the closed-loop equilibrium by long simulation from the origin
    let mut s_eq = vec![0.0, 0.0];
    for _ in 0..4000 {
        let u = sys.clip_control(&student.control(&s_eq));
        s_eq = sys.step(&s_eq, &u, &[0.0]);
    }
    // numeric Jacobian of the closed loop at the equilibrium
    let h = 1e-6;
    let mut a_cl = cocktail_math::Matrix::zeros(2, 2);
    for j in 0..2 {
        let mut sp = s_eq.clone();
        sp[j] += h;
        let mut sm = s_eq.clone();
        sm[j] -= h;
        let fp = sys.step(&sp, &sys.clip_control(&student.control(&sp)), &[0.0]);
        let fm = sys.step(&sm, &sys.clip_control(&student.control(&sm)), &[0.0]);
        for i in 0..2 {
            a_cl[(i, j)] = (fp[i] - fm[i]) / (2.0 * h);
        }
    }
    let p = match solve_discrete_lyapunov(&a_cl, &cocktail_math::Matrix::identity(2)) {
        Ok(p) => p,
        // a smoke-trained student may be only marginally contractive at
        // its equilibrium; that refutes nothing about the machinery
        Err(_) => return,
    };
    // symmetrize numeric asymmetry before constructing the form
    let p_sym = cocktail_math::Matrix::from_fn(2, 2, |i, j| 0.5 * (p[(i, j)] + p[(j, i)]));
    let form = QuadraticForm::new(p_sym);
    let cert = certificate(student);
    // probe a few levels; whichever verifies must report a sound ratio.
    // note: the form is centred at the origin while the student's true
    // equilibrium may be offset, so small levels can legitimately fail.
    let p_inv = match cocktail_math::linalg::inverse(form.matrix()) {
        Ok(m) => m,
        Err(_) => return,
    };
    let max_diag = p_inv[(0, 0)].max(p_inv[(1, 1)]);
    for radius in [1.0, 1.3, 1.6] {
        let c = radius * radius / max_diag;
        if let Ok(check) = verify_ellipsoid_invariant(sys.as_ref(), &cert, &form, c, 20) {
            if check.invariant {
                assert!(check.worst_ratio <= 1.0);
                assert!(check.cells_checked > 0);
                return;
            }
        }
    }
    // no level verifying is acceptable for a smoke-budget student; the
    // machinery itself is covered by the unit tests
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
