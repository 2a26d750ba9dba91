//! Golden certificates: the full `SafetyCert` of fixed seeded networks,
//! pinned bit for bit.
//!
//! Admission only compares a freshly derived certificate with one produced
//! by the same build, so a change to the refinement, the enclosure or the
//! analyses that moves a single bit would pass every other test. These
//! values pin the certificate across commits instead: a speed-up of the
//! certification path must reproduce them exactly.
//!
//! The three `VanDerPol` constants were recorded by running this test
//! against the per-point refinement (one `Mlp::forward` per grid point) and
//! the linear piece scan that the batched evaluation and the bisection-tree
//! lookup replaced. The `Poly3d` and `CartPole` constants were recorded
//! against the batched refinement that evaluated every grid point of every
//! region, before halves inherited their parent's network values.
//! Regenerate them only for a deliberate change of the analysis, never to
//! absorb a drift: print the actual values with `--nocapture` and say why
//! they moved.

#![allow(
    clippy::expect_used,
    reason = "a fixture that no longer certifies is a test failure"
)]

use cocktail_env::systems::{CartPole, Poly3d, VanDerPol};
use cocktail_env::Dynamics;
use cocktail_nn::{Activation, Mlp, MlpBuilder};
use cocktail_obs::NullSink;
use cocktail_verify::{
    certify_controller, default_params, fast_params, SafetyCert, SafetyParams, SafetyVerdict,
};

/// Every claim field of a certificate; floats as their IEEE-754 bits.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    verdict: SafetyVerdict,
    lipschitz: u64,
    epsilon: u64,
    pieces: usize,
    refinement_splits: usize,
    refinement_depth: usize,
    reach_steps: usize,
    reach_peak_boxes: usize,
    reach_safe: bool,
    /// `[lo, hi]` bits per dimension.
    reach_final_hull: Vec<[u64; 2]>,
    invariant_cells: usize,
    invariant_alive: usize,
    invariant_iterations: usize,
    invariant_converged: bool,
    invariant_digest: u64,
    final_frame_contained: bool,
}

impl Golden {
    fn of(cert: &SafetyCert) -> Self {
        Self {
            verdict: cert.verdict,
            lipschitz: cert.lipschitz.to_bits(),
            epsilon: cert.epsilon.to_bits(),
            pieces: cert.pieces,
            refinement_splits: cert.refinement_splits,
            refinement_depth: cert.refinement_depth,
            reach_steps: cert.reach_steps,
            reach_peak_boxes: cert.reach_peak_boxes,
            reach_safe: cert.reach_safe,
            reach_final_hull: cert
                .reach_final_hull
                .intervals()
                .iter()
                .map(|iv| [iv.lo().to_bits(), iv.hi().to_bits()])
                .collect(),
            invariant_cells: cert.invariant_cells,
            invariant_alive: cert.invariant_alive,
            invariant_iterations: cert.invariant_iterations,
            invariant_converged: cert.invariant_converged,
            invariant_digest: cert.invariant_digest,
            final_frame_contained: cert.final_frame_contained,
        }
    }
}

/// A seeded student whose hidden unit 0 carries the stabilizing linear law
/// `u ≈ −(3x + 4y)`, with the other units damped to a small perturbation:
/// reachability stays inside the domain and the invariant set is non-empty,
/// so the pins cover enclosures that actually decide the analyses.
fn stabilizing_student(seed: u64) -> Mlp {
    let mut net = student(seed);
    let layers = net.layers_mut();
    layers[0].weights_mut().scale_inplace(0.25);
    layers[1].weights_mut().scale_inplace(0.1);
    let w = layers[0].weights_mut();
    w[(0, 0)] = 0.3;
    w[(0, 1)] = 0.4;
    layers[0].biases_mut()[0] = 0.0;
    layers[1].weights_mut()[(0, 0)] = -0.5;
    net
}

fn student(seed: u64) -> Mlp {
    student_of(2, seed)
}

fn student_of(inputs: usize, seed: u64) -> Mlp {
    MlpBuilder::new(inputs)
        .hidden(8, Activation::Tanh)
        .output(1, Activation::Tanh)
        .seed(seed)
        .build()
}

/// Certifies on `VanDerPol` with two workers and checks the result against
/// `expected`, printing the actual values first so a deliberate
/// regeneration is a copy-paste.
fn assert_golden(net: &Mlp, scale: f64, params: &SafetyParams, expected: &Golden) -> SafetyCert {
    assert_golden_on(&VanDerPol::new(), net, scale, params, expected)
}

/// [`assert_golden`] on any plant.
fn assert_golden_on(
    sys: &dyn Dynamics,
    net: &Mlp,
    scale: f64,
    params: &SafetyParams,
    expected: &Golden,
) -> SafetyCert {
    let cert =
        certify_controller(sys, net, &[scale], params, 2, &NullSink).expect("budget suffices");
    let actual = Golden::of(&cert);
    println!("{actual:#x?}");
    assert_eq!(&actual, expected);
    cert
}

#[test]
fn fast_params_certificate_is_pinned() {
    // a high-Lipschitz random student: heavy refinement, and a reachable
    // set that escapes the domain
    let sys = VanDerPol::new();
    let cert = assert_golden(
        &student(11),
        20.0,
        &fast_params(&sys),
        &Golden {
            verdict: SafetyVerdict::NotProven,
            lipschitz: 0x4048_a682_5448_5458,
            epsilon: 0x3fff_fbf7_37ba_fffa,
            pieces: 1436,
            refinement_splits: 1435,
            refinement_depth: 12,
            reach_steps: 5,
            reach_peak_boxes: 56,
            reach_safe: false,
            reach_final_hull: vec![
                [0xc000_0000_0000_0000, 0x4000_0000_0000_0000],
                [0xc000_0000_0000_0000, 0x4000_0000_0000_0000],
            ],
            invariant_cells: 64,
            invariant_alive: 0,
            invariant_iterations: 3,
            invariant_converged: true,
            invariant_digest: 0x0010_cdf9_f9a8_266d,
            final_frame_contained: false,
        },
    );
    assert!(cert.pieces > 1000, "{} pieces", cert.pieces);
}

#[test]
fn export_budget_certificate_is_pinned() {
    // the budgets that ship (degree 4 with 5 error samples per dimension,
    // so the error grid is the coefficient grid; 32×32 paving and grid)
    // on a student they prove safe
    let sys = VanDerPol::new();
    let cert = assert_golden(
        &stabilizing_student(3),
        20.0,
        &default_params(&sys),
        &Golden {
            verdict: SafetyVerdict::Safe,
            lipschitz: 0x4016_7bda_db34_325b,
            epsilon: 0x3fd9_65a2_77b5_093b,
            pieces: 438,
            refinement_splits: 437,
            refinement_depth: 9,
            reach_steps: 10,
            reach_peak_boxes: 344,
            reach_safe: true,
            reach_final_hull: vec![
                [0xbff6_0000_0000_0000, 0x3ff6_0000_0000_0000],
                [0xbff6_0000_0000_0000, 0x3ff6_0000_0000_0000],
            ],
            invariant_cells: 1024,
            invariant_alive: 880,
            invariant_iterations: 9,
            invariant_converged: true,
            invariant_digest: 0x0ea7_5056_1eea_198d,
            final_frame_contained: true,
        },
    );
    assert!(cert.pieces >= 300, "{} pieces", cert.pieces);
    assert_eq!(cert.verdict, SafetyVerdict::Safe);
}

#[test]
fn separate_error_grid_certificate_is_pinned() {
    // an error grid that is not the coefficient grid (6 samples at degree
    // 4, sharing only the corners with it), so the error bound evaluates
    // points of its own
    let sys = VanDerPol::new();
    let mut params = default_params(&sys);
    params.certificate.error_samples_per_dim = 6;
    assert_golden(
        &stabilizing_student(3),
        20.0,
        &params,
        &Golden {
            verdict: SafetyVerdict::Safe,
            lipschitz: 0x4016_7bda_db34_325b,
            epsilon: 0x3fd8_f389_cef2_ae25,
            pieces: 254,
            refinement_splits: 253,
            refinement_depth: 8,
            reach_steps: 10,
            reach_peak_boxes: 342,
            reach_safe: true,
            reach_final_hull: vec![
                [0xbff6_0000_0000_0000, 0x3ff6_0000_0000_0000],
                [0xbff6_0000_0000_0000, 0x3ff6_0000_0000_0000],
            ],
            invariant_cells: 1024,
            invariant_alive: 880,
            invariant_iterations: 9,
            invariant_converged: true,
            invariant_digest: 0x0ea7_5056_1eea_198d,
            final_frame_contained: true,
        },
    );
}

#[test]
fn odd_degree_3d_certificate_is_pinned() {
    // Poly3d under `fast_params`: three dimensions at the odd degree 3, so
    // a half shares only some split-axis coordinates with its parent's
    // grid, rounding deciding which, and evaluates the rest
    let sys = Poly3d::new();
    let cert = assert_golden_on(
        &sys,
        &student_of(3, 21),
        7.0,
        &fast_params(&sys),
        &Golden {
            verdict: SafetyVerdict::NotProven,
            lipschitz: 0x4028_b6e6_ab94_c61d,
            epsilon: 0x3fef_f77e_8662_a514,
            pieces: 142,
            refinement_splits: 141,
            refinement_depth: 8,
            reach_steps: 5,
            reach_peak_boxes: 458,
            reach_safe: false,
            reach_final_hull: vec![
                [0xbfe0_0000_0000_0000, 0x3fe0_0000_0000_0000],
                [0xbfe0_0000_0000_0000, 0x3fe0_0000_0000_0000],
                [0xbfe0_0000_0000_0000, 0x3fe0_0000_0000_0000],
            ],
            invariant_cells: 512,
            invariant_alive: 0,
            invariant_iterations: 5,
            invariant_converged: true,
            invariant_digest: 0x5797_60a9_3375_17cd,
            final_frame_contained: false,
        },
    );
    assert!(
        cert.refinement_splits > 100,
        "{} splits",
        cert.refinement_splits
    );
}

#[test]
fn non_dyadic_4d_certificate_is_pinned() {
    // CartPole under its shipped budgets (degree 2, 3 error samples): four
    // dimensions over widths 4.8, 6, 0.418 and 6, none a power of two, so
    // bisection midpoints and grid coordinates round and a half matches
    // fewer of its parent's grid points bit for bit
    let sys = CartPole::new();
    let cert = assert_golden_on(
        &sys,
        &student_of(4, 31),
        5.0,
        &default_params(&sys),
        &Golden {
            verdict: SafetyVerdict::NotProven,
            lipschitz: 0x4020_dd58_2487_f5de,
            epsilon: 0x4017_fc9c_6eb0_e90a,
            pieces: 208,
            refinement_splits: 207,
            refinement_depth: 8,
            reach_steps: 8,
            reach_peak_boxes: 180,
            reach_safe: false,
            reach_final_hull: vec![
                [0xc003_3333_3333_3333, 0x4003_3333_3333_3333],
                [0xc008_0000_0000_0000, 0x4008_0000_0000_0000],
                [0xbfca_c083_126e_978d, 0x3fca_c083_126e_978d],
                [0xc008_0000_0000_0000, 0x4008_0000_0000_0000],
            ],
            invariant_cells: 625,
            invariant_alive: 0,
            invariant_iterations: 4,
            invariant_converged: true,
            invariant_digest: 0xf4db_232e_cdac_c460,
            final_frame_contained: false,
        },
    );
    assert!(
        cert.refinement_splits > 100,
        "{} splits",
        cert.refinement_splits
    );
}
