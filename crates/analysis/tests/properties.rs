//! Soundness of the interval range analysis.
//!
//! The load-bearing property of the `range` pass: the interval-propagated
//! output box must enclose every concretely evaluated controller output
//! over the verification domain, on all three paper systems. Sampling can
//! only falsify enclosure, never prove it — but a propagation bug (a
//! dropped absolute value, a swapped bound) shows up immediately under
//! randomized weights and states.

#![allow(clippy::expect_used, clippy::unwrap_used)] // test helpers panic on setup failure by design

use cocktail_analysis::{output_range, ControllerSpec};
use cocktail_env::systems::{CartPole, Poly3d, VanDerPol};
use cocktail_env::Dynamics;
use cocktail_math::BoxRegion;
use cocktail_nn::{Activation, Mlp, MlpBuilder};
use proptest::prelude::*;

fn systems() -> Vec<Box<dyn Dynamics>> {
    vec![
        Box::new(VanDerPol::new()),
        Box::new(Poly3d::new()),
        Box::new(CartPole::new()),
    ]
}

fn policy_net(state_dim: usize, control_dim: usize, seed: u64) -> Mlp {
    MlpBuilder::new(state_dim)
        .hidden(8, Activation::Tanh)
        .hidden(6, Activation::Relu)
        .output(control_dim, Activation::Tanh)
        .seed(seed)
        .build()
}

/// Deterministic sample grid: corners plus `t`-interpolated interior
/// points of the domain.
fn sample_states(domain: &BoxRegion, t: f64) -> Vec<Vec<f64>> {
    let mut states = domain.corners();
    states.push(domain.center());
    states.push(domain.lerp(&vec![t; domain.dim()]));
    states.push(domain.lerp(&vec![1.0 - t; domain.dim()]));
    states
}

fn assert_enclosed(
    spec: &ControllerSpec,
    domain: &BoxRegion,
    s: &[f64],
) -> Result<(), TestCaseError> {
    let bounds = output_range(spec, domain).expect("well-formed spec");
    let u = spec.eval(s).expect("well-formed spec");
    for (j, (iv, &v)) in bounds.iter().zip(&u).enumerate() {
        prop_assert!(
            iv.inflate(1e-9).contains(v),
            "output dim {j}: value {v} escapes certified range [{}, {}]",
            iv.lo(),
            iv.hi()
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn neural_range_encloses_samples_on_all_systems(seed in 0u64..1000, t in 0.0..=1.0f64) {
        for sys in systems() {
            let (_, u_hi) = sys.control_bounds();
            let spec = ControllerSpec::Mlp {
                net: policy_net(sys.state_dim(), sys.control_dim(), seed),
                scale: u_hi,
            };
            let domain = sys.verification_domain();
            for s in sample_states(&domain, t) {
                assert_enclosed(&spec, &domain, &s)?;
            }
        }
    }
}
