//! Property-based tests of the verification substrate: certificate
//! soundness for random networks, reach-frame containment and
//! invariant-set consistency.

use cocktail_env::systems::VanDerPol;
use cocktail_env::Dynamics;
use cocktail_math::{rng, BoxRegion, Matrix};
use cocktail_nn::{Activation, MlpBuilder};
use cocktail_verify::bernstein::BernsteinApprox;
use cocktail_verify::enclosure::{ControlEnclosure, IbpEnclosure, LinearEnclosure};
use cocktail_verify::reach::ReachMode;
use cocktail_verify::{
    invariant_set_with_workers, reach_analysis, BernsteinCertificate, CertificateConfig,
    ErrorMargin, InvariantConfig, ReachConfig,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Certificates are sound for random small networks: the certified
    /// enclosure contains the network value at random points.
    #[test]
    fn certificate_sound_for_random_networks(seed in 0u64..500, scale in 1.0..20.0f64) {
        let net = MlpBuilder::new(2)
            .hidden(6, Activation::Tanh)
            .output(1, Activation::Tanh)
            .seed(seed)
            .build();
        let domain = BoxRegion::cube(2, -1.0, 1.0);
        let (cert, _) = BernsteinCertificate::build_with_workers(
            &net,
            &[scale],
            &domain,
            &CertificateConfig {
                degree: 3,
                tolerance: 0.5,
                max_pieces: 1 << 12,
                error_samples_per_dim: 5,
                margin: ErrorMargin::Lipschitz,
            },
            2,
        )
        .expect("budget suffices for tiny nets");
        let mut r = rng::seeded(seed.wrapping_add(7));
        for _ in 0..30 {
            let x = rng::uniform_in_box(&mut r, &domain);
            let truth = scale * net.forward(&x)[0];
            let q = BoxRegion::from_bounds(&[x[0] - 1e-9, x[1] - 1e-9], &[x[0] + 1e-9, x[1] + 1e-9])
                .intersect(&domain)
                .expect("inside");
            let bound = cert.enclose(&q)[0];
            prop_assert!(bound.inflate(1e-6).contains(truth), "{truth} escapes {bound}");
        }
    }

    /// IBP enclosures are sound for random networks and query boxes.
    #[test]
    fn ibp_enclosure_sound(seed in 0u64..500, half in 0.05..1.0f64) {
        let net = MlpBuilder::new(2)
            .hidden(8, Activation::Relu)
            .output(1, Activation::Identity)
            .seed(seed)
            .build();
        let enc = IbpEnclosure::new(net.clone(), vec![5.0]);
        let q = BoxRegion::cube(2, -half, half);
        let bound = enc.enclose(&q)[0];
        let mut r = rng::seeded(seed);
        for _ in 0..30 {
            let x = rng::uniform_in_box(&mut r, &q);
            prop_assert!(bound.inflate(1e-9).contains(5.0 * net.forward(&x)[0]));
        }
    }

    /// Bernstein approximants reproduce affine functions exactly at any
    /// degree, over any box.
    #[test]
    fn bernstein_exact_on_affine(a in -5.0..5.0f64, b in -5.0..5.0f64, c in -5.0..5.0f64,
                                 degree in 1usize..6, t0 in 0.0..1.0f64, t1 in 0.0..1.0f64) {
        let f = move |x: &[f64]| a * x[0] + b * x[1] + c;
        let domain = BoxRegion::from_bounds(&[-2.0, 0.5], &[1.0, 3.0]);
        let poly = BernsteinApprox::build(&f, &domain, degree);
        let x = domain.lerp(&[t0, t1]);
        prop_assert!((poly.eval(&x) - f(&x)).abs() < 1e-9 * (1.0 + f(&x).abs()));
    }

    /// The coefficient range really bounds the polynomial everywhere.
    #[test]
    fn coefficient_range_is_global_bound(seed in 0u64..200, t0 in 0.0..1.0f64, t1 in 0.0..1.0f64) {
        let net = MlpBuilder::new(2)
            .hidden(5, Activation::Tanh)
            .output(1, Activation::Identity)
            .seed(seed)
            .build();
        let f = move |x: &[f64]| net.forward(x)[0];
        let domain = BoxRegion::cube(2, -1.0, 1.0);
        let poly = BernsteinApprox::build(&f, &domain, 4);
        let x = domain.lerp(&[t0, t1]);
        prop_assert!(poly.coefficient_range().inflate(1e-9).contains(poly.eval(&x)));
    }

    /// Both reach modes over-approximate the same concrete trajectories.
    #[test]
    fn reach_modes_both_contain_trajectories(gain in 2.0..4.0f64, seed in 0u64..100) {
        let sys = VanDerPol::new();
        let k = Matrix::from_rows(vec![vec![gain, gain]]);
        let enc = LinearEnclosure::new(k.clone());
        let x0 = BoxRegion::from_bounds(&[0.2, 0.2], &[0.3, 0.3]);
        for mode in [ReachMode::GridPaving, ReachMode::Subdivision] {
            let result = reach_analysis(
                &sys,
                &enc,
                &x0,
                &ReachConfig { steps: 8, split_width: 0.05, mode, ..Default::default() },
            )
            .expect("small problem verifies");
            let controller = cocktail_control::LinearFeedbackController::new(k.clone());
            use cocktail_control::Controller;
            let mut r = rng::seeded(seed);
            let mut s = rng::uniform_in_box(&mut r, &x0);
            for frame in &result.frames {
                prop_assert!(frame.iter().any(|b| b.inflate(1e-9).contains(&s)));
                let u = sys.clip_control(&controller.control(&s));
                s = sys.step(&s, &u, &[0.0]);
            }
        }
    }

    /// Stronger damping never shrinks the invariant set by much: the
    /// fixpoint is monotone-ish in the contraction strength.
    #[test]
    fn invariant_fraction_grows_with_damping(weak in 1.0..2.0f64) {
        let sys = VanDerPol::new();
        let strong = weak + 2.0;
        let frac = |g: f64| {
            let enc = LinearEnclosure::new(Matrix::from_rows(vec![vec![g, g + 1.0]]));
            invariant_set_with_workers(&sys, &enc, &InvariantConfig { grid: 16, max_iterations: 200 }, 2)
                .expect("dims agree")
                .alive_fraction()
        };
        prop_assert!(frac(strong) + 0.05 >= frac(weak));
    }
}
