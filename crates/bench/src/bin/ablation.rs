//! Ablation studies of the design choices DESIGN.md calls out:
//!
//! 1. **PPO vs DDPG mixing** (the paper's Remark 1) — same experts, same
//!    reward, different mixing learner;
//! 2. **Robust-distillation λ sweep** — how the L2 weight trades the
//!    student's Lipschitz constant against safety and energy;
//! 3. **FGSM probability `p` sweep** — the probabilistic adversarial
//!    training knob of Algorithm 1 line 12;
//! 4. **Bernstein vs IBP enclosures** — certification cost and invariant
//!    fraction of the two controller-enclosure back-ends.
//!
//! ```text
//! cargo run --release -p cocktail-bench --bin ablation
//! ```

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment harness code aborts on failure by design"
)]

use cocktail_bench::save_artifact;
use cocktail_core::experiment::pipeline_config;
use cocktail_core::experts::cloned_experts;
use cocktail_core::metrics::{evaluate, EvalConfig};
use cocktail_core::pipeline::{Cocktail, CocktailConfig, MixingAlgorithm};
use cocktail_core::{Preset, SystemId};
use cocktail_distill::{robust_distill, DistillConfig, TeacherDataset};
use cocktail_math::parallel::default_workers;
use cocktail_obs::NullSink;
use cocktail_rl::DdpgConfig;
use cocktail_verify::enclosure::IbpEnclosure;
use cocktail_verify::{
    certify_controller, default_params, invariant_set_with_workers, CertificateConfig, ErrorMargin,
    InvariantConfig, SafetyParams,
};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct AblationArtifact {
    mixing: Vec<MixingRow>,
    lambda_sweep: Vec<SweepRow>,
    fgsm_prob_sweep: Vec<SweepRow>,
    enclosures: Vec<EnclosureRow>,
}

#[derive(Serialize)]
struct MixingRow {
    algorithm: String,
    safe_rate_percent: f64,
    energy: f64,
}

#[derive(Serialize)]
struct SweepRow {
    value: f64,
    lipschitz: f64,
    safe_rate_percent: f64,
    energy: f64,
}

#[derive(Serialize)]
struct EnclosureRow {
    enclosure: String,
    invariant_fraction: f64,
    seconds: f64,
}

fn main() {
    let preset = Preset::from_env(Preset::Fast);
    let sys_id = SystemId::Oscillator;
    let sys = sys_id.dynamics();
    let experts = cloned_experts(sys_id, 0);
    let eval_cfg = EvalConfig {
        samples: preset.eval_samples(),
        ..Default::default()
    };

    // ---- 1. PPO vs DDPG mixing (Remark 1)
    println!("== ablation 1: mixing algorithm (Remark 1) ==");
    let mut mixing_rows = Vec::new();
    for (name, algo) in [
        ("PPO", MixingAlgorithm::Ppo),
        (
            "DDPG",
            MixingAlgorithm::Ddpg(DdpgConfig {
                episodes: preset.config().ppo.iterations * 10,
                warmup_steps: 2000,
                exploration_noise: 0.2,
                noise_decay: 0.995,
                hidden: 32,
                seed: 0,
                ..Default::default()
            }),
        ),
    ] {
        let result = Cocktail::new(sys_id, experts.clone())
            .with_config(CocktailConfig {
                mixing: algo,
                ..pipeline_config(sys_id, preset, 0)
            })
            .run();
        let eval = evaluate(sys.as_ref(), result.mixed.as_ref(), &eval_cfg);
        println!(
            "  {name:<5} A_W: S_r {:5.1}%  e {:6.1}",
            eval.safe_rate_percent(),
            eval.mean_energy
        );
        mixing_rows.push(MixingRow {
            algorithm: name.to_owned(),
            safe_rate_percent: eval.safe_rate_percent(),
            energy: eval.mean_energy,
        });
    }

    // a single teacher for the distillation sweeps
    let teacher = Cocktail::new(sys_id, experts.clone())
        .with_config(pipeline_config(sys_id, preset, 0))
        .run()
        .mixed;
    let data =
        TeacherDataset::sample_uniform(teacher.as_ref(), &sys.verification_domain(), 1024, 11)
            .merge(TeacherDataset::sample_on_policy(
                teacher.as_ref(),
                sys.as_ref(),
                8,
                13,
            ));
    let base = DistillConfig {
        epochs: 120,
        hidden: 24,
        fgsm_prob: 0.6,
        ..Default::default()
    };

    // ---- 2. λ sweep
    println!("\n== ablation 2: robust-distillation λ ==");
    let mut lambda_rows = Vec::new();
    for lambda in [0.0, 1e-3, 1e-2, 5e-2, 1e-1] {
        let student = robust_distill(
            &data,
            &DistillConfig {
                lambda,
                ..base.clone()
            },
        );
        let eval = evaluate(sys.as_ref(), &student, &eval_cfg);
        println!(
            "  λ {lambda:7.4}: L {:6.1}  S_r {:5.1}%  e {:6.1}",
            student.lipschitz_constant(),
            eval.safe_rate_percent(),
            eval.mean_energy
        );
        lambda_rows.push(SweepRow {
            value: lambda,
            lipschitz: student.lipschitz_constant(),
            safe_rate_percent: eval.safe_rate_percent(),
            energy: eval.mean_energy,
        });
    }

    // ---- 3. FGSM probability sweep
    println!("\n== ablation 3: FGSM probability p ==");
    let mut prob_rows = Vec::new();
    for p in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let student = robust_distill(
            &data,
            &DistillConfig {
                fgsm_prob: p,
                lambda: 5e-2,
                ..base.clone()
            },
        );
        let eval = evaluate(sys.as_ref(), &student, &eval_cfg);
        println!(
            "  p {p:4.2}: L {:6.1}  S_r {:5.1}%  e {:6.1}",
            student.lipschitz_constant(),
            eval.safe_rate_percent(),
            eval.mean_energy
        );
        prob_rows.push(SweepRow {
            value: p,
            lipschitz: student.lipschitz_constant(),
            safe_rate_percent: eval.safe_rate_percent(),
            energy: eval.mean_energy,
        });
    }

    // ---- 4. Bernstein certificate vs IBP enclosure
    println!("\n== ablation 4: controller enclosure back-end ==");
    let student = robust_distill(
        &data,
        &DistillConfig {
            lambda: 5e-2,
            ..base
        },
    );
    let params = SafetyParams {
        certificate: CertificateConfig {
            degree: 4,
            tolerance: 0.15,
            max_pieces: 1 << 18,
            error_samples_per_dim: 9,
            margin: ErrorMargin::Lipschitz,
        },
        invariant: InvariantConfig {
            grid: 60,
            max_iterations: 1000,
        },
        ..default_params(sys.as_ref())
    };
    let mut enclosure_rows = Vec::new();

    let t0 = Instant::now();
    let run = certify_controller(
        sys.as_ref(),
        student.network(),
        student.scale(),
        &params,
        default_workers(),
        &NullSink,
    )
    .expect("budget suffices");
    let bern_secs = t0.elapsed().as_secs_f64();
    let inv = &run.invariant;
    println!(
        "  bernstein: invariant {:5.1}%  ({} pieces, {:.2}s)",
        100.0 * inv.alive_fraction(),
        run.cert.pieces,
        bern_secs
    );
    enclosure_rows.push(EnclosureRow {
        enclosure: "bernstein".into(),
        invariant_fraction: inv.alive_fraction(),
        seconds: bern_secs,
    });

    let t0 = Instant::now();
    let ibp = IbpEnclosure::new(student.network().clone(), student.scale().to_vec());
    let inv = invariant_set_with_workers(sys.as_ref(), &ibp, &params.invariant, default_workers())
        .expect("dims agree");
    let ibp_secs = t0.elapsed().as_secs_f64();
    println!(
        "  ibp:       invariant {:5.1}%  (no certificate, {:.2}s)",
        100.0 * inv.alive_fraction(),
        ibp_secs
    );
    enclosure_rows.push(EnclosureRow {
        enclosure: "ibp".into(),
        invariant_fraction: inv.alive_fraction(),
        seconds: ibp_secs,
    });

    save_artifact(
        "ablation.json",
        &AblationArtifact {
            mixing: mixing_rows,
            lambda_sweep: lambda_rows,
            fgsm_prob_sweep: prob_rows,
            enclosures: enclosure_rows,
        },
    );
}
