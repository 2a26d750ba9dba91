//! Micro-benchmarks of the computational kernels every experiment rests
//! on: linear algebra, network inference/backprop, interval dynamics and
//! Bernstein evaluation.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment harness code aborts on failure by design"
)]

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cocktail_env::systems::{CartPole, Poly3d, VanDerPol};
use cocktail_env::Dynamics;
use cocktail_math::{BoxRegion, Interval, Matrix};
use cocktail_nn::lipschitz::{upper_bound, NormKind};
use cocktail_nn::{loss, Activation, BatchCache, GradStore, MlpBuilder};
use cocktail_verify::bernstein::BernsteinApprox;

fn bench_matrix(c: &mut Criterion) {
    let a = Matrix::from_fn(32, 32, |r, cc| {
        ((r * 31 + cc * 17) % 13) as f64 / 13.0 - 0.5
    });
    let x: Vec<f64> = (0..32).map(|i| (i as f64 / 32.0) - 0.5).collect();
    c.bench_function("matrix/matvec_32x32", |b| {
        b.iter(|| black_box(&a).matvec(black_box(&x)));
    });
    c.bench_function("matrix/spectral_norm_32x32", |b| {
        b.iter(|| black_box(&a).spectral_norm());
    });
    c.bench_function("matrix/matmul_32x32", |b| {
        b.iter(|| black_box(&a).matmul(black_box(&a)));
    });
}

fn bench_network(c: &mut Criterion) {
    let net = MlpBuilder::new(4)
        .hidden(32, Activation::Tanh)
        .hidden(32, Activation::Tanh)
        .output(1, Activation::Identity)
        .seed(0)
        .build();
    let x = [0.1, -0.2, 0.05, 0.3];
    c.bench_function("nn/forward_4-32-32-1", |b| {
        b.iter(|| black_box(&net).forward(black_box(&x)));
    });
    c.bench_function("nn/backward_4-32-32-1", |b| {
        let mut grads = GradStore::zeros_like(&net);
        b.iter(|| {
            grads.reset();
            let cache = net.forward_cached(black_box(&x));
            let g = loss::mse_gradient(cache.output(), &[0.5]);
            net.backward(&cache, &g, &mut grads, 1.0)
        });
    });
    c.bench_function("nn/input_gradient", |b| {
        b.iter(|| black_box(&net).input_gradient(black_box(&x), &[1.0]));
    });
    c.bench_function("nn/lipschitz_constant", |b| {
        b.iter(|| upper_bound(black_box(&net), NormKind::Spectral));
    });
    let region = BoxRegion::cube(4, -0.5, 0.5);
    c.bench_function("nn/ibp_bounds", |b| {
        b.iter(|| black_box(&net).bounds(black_box(&region)));
    });
}

fn bench_batched(c: &mut Criterion) {
    // the Table-1 student shape (2-24-24-1): batched forward at batch 64
    // versus 64 per-sample calls — the kernel the distillation loop and
    // the Lipschitz/IBP sweeps run on
    let net = MlpBuilder::new(2)
        .hidden(24, Activation::Tanh)
        .hidden(24, Activation::Tanh)
        .output(1, Activation::Identity)
        .seed(2)
        .build();
    let xs: Vec<Vec<f64>> = (0..64)
        .map(|i| {
            (0..2)
                .map(|d| ((i * 7 + d * 13) % 23) as f64 / 11.5 - 1.0)
                .collect()
        })
        .collect();
    let x = Matrix::from_rows(xs.clone());
    c.bench_function("nn/forward_per_sample_64x_2-24-24-1", |b| {
        b.iter(|| {
            for row in &xs {
                black_box(net.forward(black_box(row)));
            }
        });
    });
    let mut cache = BatchCache::new();
    c.bench_function("nn/forward_batch_64_2-24-24-1", |b| {
        b.iter(|| net.forward_batch_cached(black_box(&x), &mut cache));
    });
    let mut grads = GradStore::zeros_like(&net);
    c.bench_function("nn/backward_batch_64_2-24-24-1", |b| {
        b.iter(|| {
            grads.reset();
            net.forward_batch_cached(black_box(&x), &mut cache);
            let mut g = Matrix::zeros(64, 1);
            for r in 0..64 {
                g.row_mut(r)
                    .copy_from_slice(&loss::mse_gradient(cache.output().row(r), &[0.5]));
            }
            net.backward_batch(&cache, &g, &mut grads, 1.0 / 64.0)
        });
    });
}

fn bench_dynamics(c: &mut Criterion) {
    let vdp = VanDerPol::new();
    let p3d = Poly3d::new();
    let cp = CartPole::new();
    c.bench_function("env/vdp_step", |b| {
        b.iter(|| {
            vdp.step(
                black_box(&[1.0, -0.5]),
                black_box(&[2.0]),
                black_box(&[0.01]),
            )
        });
    });
    c.bench_function("env/poly3d_step", |b| {
        b.iter(|| {
            p3d.step(
                black_box(&[0.1, 0.2, 0.3]),
                black_box(&[-1.0]),
                black_box(&[]),
            )
        });
    });
    c.bench_function("env/cartpole_step", |b| {
        b.iter(|| {
            cp.step(
                black_box(&[0.0, 0.1, 0.05, -0.1]),
                black_box(&[1.0]),
                black_box(&[]),
            )
        });
    });
    let s = [Interval::new(-0.1, 0.1), Interval::new(-0.1, 0.1)];
    let u = [Interval::new(-1.0, 1.0)];
    let w = [Interval::symmetric(0.05)];
    c.bench_function("env/vdp_step_interval", |b| {
        b.iter(|| vdp.step_interval(black_box(&s), black_box(&u), black_box(&w)));
    });
}

fn bench_bernstein(c: &mut Criterion) {
    let net = MlpBuilder::new(2)
        .hidden(16, Activation::Tanh)
        .output(1, Activation::Tanh)
        .seed(1)
        .build();
    let domain = BoxRegion::cube(2, -1.0, 1.0);
    let f = |x: &[f64]| net.forward(x)[0];
    c.bench_function("bernstein/build_deg4_2d", |b| {
        b.iter(|| BernsteinApprox::build(&f, black_box(&domain), 4));
    });
    let poly = BernsteinApprox::build(&f, &domain, 4);
    let q = BoxRegion::cube(2, -0.1, 0.1);
    c.bench_function("bernstein/eval", |b| {
        b.iter(|| poly.eval(black_box(&[0.3, -0.4])));
    });
    c.bench_function("bernstein/enclose_subbox", |b| {
        b.iter(|| poly.enclose(black_box(&q)));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_matrix, bench_network, bench_batched, bench_dynamics, bench_bernstein
}
criterion_main!(benches);
