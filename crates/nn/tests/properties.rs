//! Property-based tests for the neural-network substrate.
//!
//! The two invariants the rest of the pipeline leans on hardest:
//! the Lipschitz product bound really bounds sampled difference quotients,
//! and interval bound propagation really encloses sampled outputs.

use cocktail_math::{rng, vector, BoxRegion};
use cocktail_nn::lipschitz::{empirical_lower_bound, upper_bound, NormKind};
use cocktail_nn::{Activation, Mlp, MlpBuilder};
use proptest::prelude::*;

fn random_net(seed: u64, hidden: usize, act_pick: u8) -> Mlp {
    let act = match act_pick % 3 {
        0 => Activation::Tanh,
        1 => Activation::Relu,
        _ => Activation::Sigmoid,
    };
    MlpBuilder::new(2)
        .hidden(hidden, act)
        .hidden(hidden, Activation::Tanh)
        .output(1, Activation::Identity)
        .seed(seed)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn lipschitz_bound_holds_on_samples(seed in 0u64..1000, hidden in 2usize..12, act in 0u8..3) {
        let net = random_net(seed, hidden, act);
        let region = BoxRegion::cube(2, -2.0, 2.0);
        let lower = empirical_lower_bound(&net, &region, 100, seed.wrapping_add(1));
        let upper = upper_bound(&net, NormKind::Spectral);
        prop_assert!(lower <= upper * (1.0 + 1e-9) + 1e-12, "{lower} > {upper}");
    }

    #[test]
    fn all_norm_bounds_dominate_empirical_2norm_slope(seed in 0u64..200) {
        // spectral pairs with the 2-norm; Frobenius dominates spectral.
        let net = random_net(seed, 6, 0);
        let region = BoxRegion::cube(2, -1.0, 1.0);
        let emp = empirical_lower_bound(&net, &region, 50, seed);
        prop_assert!(emp <= upper_bound(&net, NormKind::Spectral) + 1e-9);
        prop_assert!(emp <= upper_bound(&net, NormKind::Frobenius) + 1e-9);
    }

    #[test]
    fn ibp_bounds_contain_sampled_outputs(seed in 0u64..500, half_width in 0.01..2.0f64) {
        let net = random_net(seed, 8, (seed % 3) as u8);
        let region = BoxRegion::cube(2, -half_width, half_width);
        let bounds = net.bounds(&region);
        let mut r = rng::seeded(seed.wrapping_mul(31).wrapping_add(7));
        for _ in 0..50 {
            let x = rng::uniform_in_box(&mut r, &region);
            let y = net.forward(&x);
            for (yi, bi) in y.iter().zip(&bounds) {
                prop_assert!(bi.inflate(1e-9).contains(*yi), "{yi} escapes {bi}");
            }
        }
    }

    #[test]
    fn input_gradient_is_directional_derivative(seed in 0u64..200, x0 in -1.0..1.0f64, x1 in -1.0..1.0f64) {
        let net = random_net(seed, 6, 0);
        let x = [x0, x1];
        let grad_out = vec![1.0];
        let g = net.input_gradient(&x, &grad_out);
        let h = 1e-6;
        for i in 0..2 {
            let mut xp = x;
            xp[i] += h;
            let mut xm = x;
            xm[i] -= h;
            let fd = (net.forward(&xp)[0] - net.forward(&xm)[0]) / (2.0 * h);
            prop_assert!((fd - g[i]).abs() < 1e-4, "dim {i}: fd {fd} vs {}", g[i]);
        }
    }

    #[test]
    fn json_roundtrip_forward_identical(seed in 0u64..200, x0 in -2.0..2.0f64, x1 in -2.0..2.0f64) {
        let net = random_net(seed, 5, (seed % 3) as u8);
        let back = Mlp::from_json(&net.to_json().unwrap()).unwrap();
        let a = net.forward(&[x0, x1]);
        let b = back.forward(&[x0, x1]);
        prop_assert!(vector::norm_inf(&vector::sub(&a, &b)) < 1e-12);
    }

    #[test]
    fn tanh_output_net_is_bounded(seed in 0u64..200, x0 in -100.0..100.0f64, x1 in -100.0..100.0f64) {
        let net = MlpBuilder::new(2)
            .hidden(6, Activation::Relu)
            .output(2, Activation::Tanh)
            .seed(seed)
            .build();
        let y = net.forward(&[x0, x1]);
        prop_assert!(y.iter().all(|v| (-1.0..=1.0).contains(v)));
    }
}
