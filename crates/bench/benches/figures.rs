//! Criterion benchmarks for the verification machinery behind **Fig. 2**
//! (attacked signal traces), **Fig. 3** (invariant sets) and **Fig. 4**
//! (reachable sets): Bernstein certification, grid-fixpoint invariance and
//! both reachability modes, at reduced sizes; and the whole safety
//! certificate that admission re-derives, at the export budget.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment harness code aborts on failure by design"
)]

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cocktail_core::experts::reference_laws;
use cocktail_core::metrics::signal_trace;
use cocktail_core::SystemId;
use cocktail_distill::AttackModel;
use cocktail_math::parallel::default_workers;
use cocktail_math::{BoxRegion, Matrix};
use cocktail_nn::{Activation, MlpBuilder};
use cocktail_obs::NullSink;
use cocktail_verify::enclosure::LinearEnclosure;
use cocktail_verify::reach::ReachMode;
use cocktail_verify::{
    certify_controller, default_params, invariant_set, reach_analysis, BernsteinCertificate,
    CertificateConfig, InvariantConfig, ReachConfig,
};

fn bench_fig2_trace(c: &mut Criterion) {
    let sys_id = SystemId::Oscillator;
    let sys = sys_id.dynamics();
    let (law1, _) = reference_laws(sys_id);
    let controller = law1.controller("bench");
    let attack = AttackModel::scaled_to(&sys.verification_domain(), 0.12, true);
    c.bench_function("fig2/attacked_signal_trace", |b| {
        b.iter(|| {
            signal_trace(
                sys.as_ref(),
                black_box(&controller),
                &[1.5, 1.5],
                &attack,
                42,
            )
        });
    });
}

fn bench_fig3_machinery(c: &mut Criterion) {
    let net = MlpBuilder::new(2)
        .hidden(16, Activation::Tanh)
        .output(1, Activation::Tanh)
        .seed(3)
        .build();
    let sys = SystemId::Oscillator.dynamics();
    let domain = sys.verification_domain();
    let cert_cfg = CertificateConfig {
        degree: 4,
        tolerance: 0.5,
        max_pieces: 1 << 14,
        error_samples_per_dim: 7,
    };
    let mut group = c.benchmark_group("fig3");
    group.sample_size(10);
    group.bench_function("bernstein_certificate_build", |b| {
        b.iter(|| {
            BernsteinCertificate::build(black_box(&net), &[20.0], &domain, &cert_cfg)
                .expect("fits budget")
        });
    });
    let enc = LinearEnclosure::new(Matrix::from_rows(vec![vec![3.0, 4.0]]));
    group.bench_function("invariant_grid24_linear", |b| {
        b.iter(|| {
            invariant_set(
                sys.as_ref(),
                black_box(&enc),
                &InvariantConfig {
                    grid: 24,
                    max_iterations: 200,
                },
            )
            .expect("dimensions agree")
        });
    });
    group.finish();
}

fn bench_fig4_machinery(c: &mut Criterion) {
    let sys = SystemId::Poly3d.dynamics();
    let enc = LinearEnclosure::new(Matrix::from_rows(vec![vec![2.0, 3.0, 3.0]]));
    let x0 = BoxRegion::from_bounds(&[-0.11, 0.205, 0.1], &[-0.105, 0.21, 0.11]);
    let mut group = c.benchmark_group("fig4");
    group.sample_size(10);
    for (name, mode) in [
        ("reach_paving_10", ReachMode::GridPaving),
        ("reach_subdivision_10", ReachMode::Subdivision),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                reach_analysis(
                    sys.as_ref(),
                    black_box(&enc),
                    &x0,
                    &ReachConfig {
                        steps: 10,
                        split_width: 0.02,
                        mode,
                        ..Default::default()
                    },
                )
                .expect("verifies")
            });
        });
    }
    group.finish();
}

/// The paper's verifiability thesis as a benchmark: certification cost
/// versus the network's Lipschitz constant. The same architecture is
/// certified with its weights scaled by {0.75, 1.0, 1.5}, tripling the
/// product Lipschitz bound across the sweep — the measured time should
/// grow with the scale.
fn bench_verification_scaling(c: &mut Criterion) {
    let base = MlpBuilder::new(2)
        .hidden(12, Activation::Tanh)
        .output(1, Activation::Tanh)
        .seed(9)
        .build();
    let domain = SystemId::Oscillator.dynamics().verification_domain();
    let cfg = CertificateConfig {
        degree: 4,
        tolerance: 0.4,
        max_pieces: 1 << 16,
        error_samples_per_dim: 7,
    };
    let mut group = c.benchmark_group("verification_vs_lipschitz");
    group.sample_size(10);
    for scale in [0.75_f64, 1.0, 1.5] {
        let mut net = base.clone();
        for layer in net.layers_mut() {
            layer.weights_mut().scale_inplace(scale);
        }
        let label = format!("weight_scale_{scale}");
        group.bench_function(&label, |b| {
            b.iter(|| {
                BernsteinCertificate::build(black_box(&net), &[20.0], &domain, &cfg)
                    .expect("budget suffices")
            });
        });
    }
    group.finish();
}

/// The whole certificate admission re-derives on every bundle set-up —
/// Bernstein refinement, reachability and the invariant fixpoint — under
/// the oscillator's export budget (`default_params`), on a seeded student
/// scaled to the Lipschitz bound of a trained κ* (≈ 18.7 at output scale
/// 20), which refines to a few thousand pieces.
fn bench_certify_controller(c: &mut Criterion) {
    let sys = SystemId::Oscillator.dynamics();
    let mut net = MlpBuilder::new(2)
        .hidden(16, Activation::Tanh)
        .hidden(16, Activation::Tanh)
        .output(1, Activation::Tanh)
        .seed(0)
        .build();
    let per_layer = (18.7 / 20.0 / net.lipschitz_constant()).powf(1.0 / net.layers().len() as f64);
    for layer in net.layers_mut() {
        layer.weights_mut().scale_inplace(per_layer);
    }
    let params = default_params(sys.as_ref());
    let workers = default_workers();
    let mut group = c.benchmark_group("certify_controller");
    group.sample_size(10);
    group.bench_function("oscillator_default_params", |b| {
        b.iter(|| {
            certify_controller(
                sys.as_ref(),
                black_box(&net),
                &[20.0],
                &params,
                workers,
                &NullSink,
            )
            .expect("fits the export budget")
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_fig2_trace, bench_fig3_machinery, bench_fig4_machinery,
              bench_verification_scaling, bench_certify_controller
}
criterion_main!(benches);
