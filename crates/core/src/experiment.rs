//! Experiment assembly: the controller line-up and table rows of the
//! paper's Section IV.

use crate::baseline::{switching_baseline, SwitchingKind};
use crate::experts::cloned_experts;
use crate::metrics::{evaluate, signal_trace, EvalConfig};
use crate::pipeline::{Cocktail, CocktailConfig};
use crate::system::SystemId;
use cocktail_control::{Controller, NnController};
use cocktail_distill::{AttackModel, DistillConfig};
use cocktail_rl::ppo::PpoConfig;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Experiment scale presets.
///
/// `Smoke` keeps unit/integration tests in seconds; `Fast` gives readable
/// trends in under a minute per system; `Full` is the bench-quality
/// setting behind `EXPERIMENTS.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Preset {
    /// Seconds per system; for tests.
    Smoke,
    /// Under a minute per system; default for interactive runs.
    Fast,
    /// Bench quality; used to regenerate the paper's tables.
    Full,
}

impl Preset {
    /// Reads `COCKTAIL_FAST=1` to downgrade `Full` to `Fast` (used by the
    /// bench binaries so CI smoke runs stay cheap).
    pub fn from_env(default: Preset) -> Preset {
        match std::env::var("COCKTAIL_FAST") {
            Ok(v) if v == "1" => match default {
                Preset::Full => Preset::Fast,
                other => other,
            },
            _ => default,
        }
    }

    /// The pipeline configuration of this preset.
    pub fn config(self) -> CocktailConfig {
        match self {
            Preset::Smoke => CocktailConfig {
                ppo: PpoConfig {
                    iterations: 4,
                    episodes_per_iteration: 4,
                    hidden: 16,
                    ..Default::default()
                },
                distill: DistillConfig {
                    epochs: 30,
                    hidden: 16,
                    ..Default::default()
                },
                dataset_uniform: 256,
                dataset_episodes: 2,
                ..Default::default()
            },
            Preset::Fast => CocktailConfig {
                ppo: PpoConfig {
                    iterations: 30,
                    episodes_per_iteration: 8,
                    hidden: 32,
                    ..Default::default()
                },
                distill: DistillConfig {
                    epochs: 120,
                    hidden: 24,
                    lambda: 5e-2,
                    fgsm_prob: 0.6,
                    ..Default::default()
                },
                dataset_uniform: 1024,
                dataset_episodes: 8,
                ..Default::default()
            },
            Preset::Full => CocktailConfig {
                ppo: PpoConfig {
                    iterations: 80,
                    episodes_per_iteration: 16,
                    hidden: 48,
                    ..Default::default()
                },
                distill: DistillConfig {
                    epochs: 250,
                    hidden: 32,
                    lambda: 5e-2,
                    fgsm_prob: 0.6,
                    ..Default::default()
                },
                dataset_uniform: 2048,
                dataset_episodes: 16,
                ..Default::default()
            },
        }
    }

    /// The evaluation sample count of this preset (the paper uses 500).
    pub fn eval_samples(self) -> usize {
        match self {
            Preset::Smoke => 100,
            Preset::Fast => 250,
            Preset::Full => 500,
        }
    }
}

/// The six controllers Table I compares on one system.
pub struct ControllerSet {
    /// The system they control.
    pub system: SystemId,
    /// Expert 1 (aggressive).
    pub kappa1: Arc<dyn Controller>,
    /// Expert 2 (lazy; polynomial for the 3D system).
    pub kappa2: Arc<dyn Controller>,
    /// Switching-adaptation baseline \[4\].
    pub a_s: Arc<dyn Controller>,
    /// The mixed controller design (Cocktail stage 1).
    pub a_w: Arc<dyn Controller>,
    /// Direct-distillation student (ablation). Kept concrete so the
    /// verification crate can reach the underlying network.
    pub kappa_d: Arc<NnController>,
    /// Robust-distillation student (Cocktail's output). Kept concrete so
    /// the verification crate can reach the underlying network.
    pub kappa_star: Arc<NnController>,
}

impl ControllerSet {
    /// The controllers in the paper's column order, with their labels.
    pub fn lineup(&self) -> Vec<(&'static str, Arc<dyn Controller>)> {
        vec![
            ("kappa1", self.kappa1.clone()),
            ("kappa2", self.kappa2.clone()),
            ("A_S", self.a_s.clone()),
            ("A_W", self.a_w.clone()),
            ("kappa_D", self.kappa_d.clone() as Arc<dyn Controller>),
            ("kappa_star", self.kappa_star.clone() as Arc<dyn Controller>),
        ]
    }
}

/// Per-system adjustments of the distillation hyperparameters. The three
/// plants have control gains spanning two orders of magnitude, so the
/// L2 weight `λ` and the FGSM radius must be scaled per system: too much
/// regularization smooths away the stabilizing gain (cartpole), too little
/// leaves the Lipschitz constant unreduced (oscillator).
pub fn distill_overrides(sys_id: SystemId, distill: &mut DistillConfig) {
    match sys_id {
        SystemId::Oscillator => {}
        SystemId::Poly3d => {
            distill.lambda = 1e-2;
        }
        SystemId::CartPole => {
            distill.lambda = 2e-3;
            distill.fgsm_fraction = 0.04;
            distill.fgsm_prob = 0.3;
            distill.epochs = distill.epochs * 3 / 2;
        }
    }
}

/// Per-system reward shaping. The steer-away term must be proportionate
/// to typical state magnitudes: the oscillator benefits from a strong
/// pull toward the origin (it sharpens the invariant core of Fig. 3),
/// while the cartpole's larger position/velocity scales would let the
/// same coefficient drown out the safety/energy signal.
pub fn reward_overrides(sys_id: SystemId, reward: &mut cocktail_rl::RewardConfig) {
    match sys_id {
        SystemId::Oscillator => reward.state_scale = 1.0,
        SystemId::Poly3d => reward.state_scale = 0.0,
        SystemId::CartPole => reward.state_scale = 0.02,
    }
}

/// The fully-resolved pipeline configuration for one system: the preset
/// scale plus the per-system reward and distillation overrides. Use this
/// (not `preset.config()` alone) whenever results should be comparable to
/// the experiment harness.
pub fn pipeline_config(sys_id: SystemId, preset: Preset, seed: u64) -> CocktailConfig {
    let mut config = CocktailConfig {
        seed,
        ..preset.config()
    };
    distill_overrides(sys_id, &mut config.distill);
    reward_overrides(sys_id, &mut config.reward);
    config
}

/// Runs the full pipeline (experts → mixing → baselines → distillation)
/// and assembles the Table I controller line-up for one system.
pub fn build_controller_set(sys_id: SystemId, preset: Preset, seed: u64) -> ControllerSet {
    let experts = cloned_experts(sys_id, seed);
    let config = pipeline_config(sys_id, preset, seed);
    let reward = config.reward;
    let result = Cocktail::new(sys_id, experts.clone())
        .with_config(config)
        .run();
    // default A_S: deterministic greedy lookahead (the learned variant is
    // available through `baseline::switching_baseline` but is less stable
    // at small training budgets)
    let a_s = switching_baseline(
        sys_id,
        experts.clone(),
        SwitchingKind::Greedy { lookahead: 12 },
        reward,
        seed.wrapping_add(7),
    );
    ControllerSet {
        system: sys_id,
        kappa1: experts[0].clone(),
        kappa2: experts[1].clone(),
        a_s: Arc::new(a_s),
        a_w: result.mixed,
        kappa_d: result.kappa_d,
        kappa_star: result.kappa_star,
    }
}

/// One row of Table I.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Row {
    /// Controller label (paper column).
    pub controller: String,
    /// Safe control rate in percent (no attack).
    pub safe_rate_percent: f64,
    /// Mean control energy over safe trajectories.
    pub energy: f64,
    /// Lipschitz constant, `None` for `A_S`/`A_W` (the paper's "-").
    pub lipschitz: Option<f64>,
}

/// Evaluates the full line-up without attacks — Table I for one system.
pub fn table1_rows(set: &ControllerSet, samples: usize, seed: u64) -> Vec<Table1Row> {
    let sys = set.system.dynamics();
    let domain = sys.verification_domain();
    set.lineup()
        .into_iter()
        .map(|(label, c)| {
            let eval = evaluate(
                sys.as_ref(),
                c.as_ref(),
                &EvalConfig {
                    samples,
                    seed,
                    ..Default::default()
                },
            );
            Table1Row {
                controller: label.to_owned(),
                safe_rate_percent: eval.safe_rate_percent(),
                energy: eval.mean_energy,
                lipschitz: c.lipschitz(&domain),
            }
        })
        .collect()
}

/// One entry of Table II.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Entry {
    /// `kappa_D` or `kappa_star`.
    pub controller: String,
    /// `"adversarial"` or `"noise"`.
    pub threat: String,
    /// Safe control rate in percent under the threat.
    pub safe_rate_percent: f64,
    /// Mean control energy over safe trajectories under the threat.
    pub energy: f64,
}

/// Evaluates `κ_D` vs `κ*` under FGSM attacks and measurement noise at
/// `fraction` of the state bound — Table II for one system.
pub fn table2_entries(
    set: &ControllerSet,
    fraction: f64,
    samples: usize,
    seed: u64,
) -> Vec<Table2Entry> {
    let sys = set.system.dynamics();
    let domain = sys.verification_domain();
    let mut out = Vec::with_capacity(4);
    for (threat, adversarial) in [("adversarial", true), ("noise", false)] {
        for (label, c) in [
            ("kappa_D", set.kappa_d.clone()),
            ("kappa_star", set.kappa_star.clone()),
        ] {
            let eval = evaluate(
                sys.as_ref(),
                c.as_ref(),
                &EvalConfig {
                    samples,
                    seed,
                    attack: AttackModel::scaled_to(&domain, fraction, adversarial),
                    ..Default::default()
                },
            );
            out.push(Table2Entry {
                controller: label.to_owned(),
                threat: threat.to_owned(),
                safe_rate_percent: eval.safe_rate_percent(),
                energy: eval.mean_energy,
            });
        }
    }
    out
}

/// The Fig. 2 data: normalized control signals of `κ_D` and `κ*` under an
/// FGSM attack from one representative initial state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2Trace {
    /// The system the trace belongs to.
    pub system: String,
    /// `u(t) / U_sup` for `κ_D`.
    pub kappa_d: Vec<f64>,
    /// `u(t) / U_sup` for `κ*`.
    pub kappa_star: Vec<f64>,
}

/// Generates the Fig. 2 traces for one system.
pub fn fig2_trace(set: &ControllerSet, fraction: f64, seed: u64) -> Fig2Trace {
    let sys = set.system.dynamics();
    let domain = sys.verification_domain();
    let attack = AttackModel::scaled_to(&domain, fraction, true);
    let s0 = {
        // representative initial state: halfway to the X₀ corner
        let x0 = sys.initial_set();
        x0.lerp(&vec![0.75; x0.dim()])
    };
    let (_, u_hi) = sys.control_bounds();
    let norm = u_hi[0];
    let normalize = |trace: Vec<f64>| trace.into_iter().map(|u| u / norm).collect::<Vec<f64>>();
    Fig2Trace {
        system: set.system.label().to_owned(),
        kappa_d: normalize(signal_trace(
            sys.as_ref(),
            set.kappa_d.as_ref(),
            &s0,
            &attack,
            seed,
        )),
        kappa_star: normalize(signal_trace(
            sys.as_ref(),
            set.kappa_star.as_ref(),
            &s0,
            &attack,
            seed,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_scale_monotonically() {
        assert!(Preset::Smoke.config().ppo.iterations < Preset::Fast.config().ppo.iterations);
        assert!(Preset::Fast.config().ppo.iterations < Preset::Full.config().ppo.iterations);
        assert!(Preset::Smoke.eval_samples() < Preset::Full.eval_samples());
    }

    use crate::testutil::oscillator_smoke_set;

    #[test]
    fn smoke_controller_set_produces_all_rows() {
        let set = oscillator_smoke_set();
        let rows = table1_rows(set, 60, 1);
        assert_eq!(rows.len(), 6);
        let labels: Vec<&str> = rows.iter().map(|r| r.controller.as_str()).collect();
        assert_eq!(
            labels,
            vec!["kappa1", "kappa2", "A_S", "A_W", "kappa_D", "kappa_star"]
        );
        // Lipschitz: present for the neural/poly controllers, absent for A_S/A_W
        assert!(rows[0].lipschitz.is_some());
        assert!(rows[2].lipschitz.is_none());
        assert!(rows[3].lipschitz.is_none());
        assert!(rows[5].lipschitz.is_some());
    }

    #[test]
    fn table2_has_four_entries() {
        let set = oscillator_smoke_set();
        let entries = table2_entries(set, 0.1, 60, 1);
        assert_eq!(entries.len(), 4);
        assert!(entries
            .iter()
            .all(|e| (0.0..=100.0).contains(&e.safe_rate_percent)));
    }

    #[test]
    fn fig2_traces_are_normalized() {
        let set = oscillator_smoke_set();
        let trace = fig2_trace(set, 0.1, 2);
        assert_eq!(trace.kappa_d.len(), 100);
        assert!(trace.kappa_d.iter().all(|u| u.abs() <= 1.0 + 1e-9));
        assert!(trace.kappa_star.iter().all(|u| u.abs() <= 1.0 + 1e-9));
    }
}
