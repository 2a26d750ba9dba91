//! The switching-adaptation baseline `A_S` \[4\].

use crate::policy::PpoSelector;
use crate::system::SystemId;
use cocktail_control::{Controller, GreedySelector, SwitchingController};
use cocktail_math::parallel;
use cocktail_rl::ppo::{PpoConfig, PpoTrainer};
use cocktail_rl::{Mdp, RewardConfig, SwitchingMdp};
use std::sync::Arc;

/// How the switching baseline picks its active expert.
#[derive(Debug, Clone)]
pub enum SwitchingKind {
    /// RL-trained selector (the energy-efficient adaptation of \[4\]): PPO
    /// over the one-hot restriction of the mixing action space.
    Learned(PpoConfig),
    /// Model-based greedy one-step-lookahead selector (ablation).
    Greedy {
        /// Lookahead depth in plant steps.
        lookahead: usize,
    },
}

/// Builds the switching baseline `A_S` over `experts`. A learned selector
/// trains on one fresh [`SwitchingMdp`] per episode, seeded from `seed` and
/// the episode's seed.
///
/// # Panics
///
/// Panics if `experts` is empty.
pub fn switching_baseline(
    sys_id: SystemId,
    experts: Vec<Arc<dyn Controller>>,
    kind: SwitchingKind,
    reward: RewardConfig,
    seed: u64,
) -> SwitchingController {
    assert!(!experts.is_empty(), "switching needs at least one expert");
    let sys = sys_id.dynamics();
    match kind {
        SwitchingKind::Learned(ppo) => {
            let episode = |episode_seed: u64| -> Box<dyn Mdp> {
                Box::new(SwitchingMdp::new(
                    sys.clone(),
                    experts.clone(),
                    reward,
                    parallel::task_seed(seed, episode_seed),
                ))
            };
            let trained =
                PpoTrainer::new(&ppo, sys.state_dim(), experts.len()).train_episodes(&episode);
            SwitchingController::new(experts, Arc::new(PpoSelector::new(trained.policy)))
        }
        SwitchingKind::Greedy { lookahead } => {
            SwitchingController::new(experts, Arc::new(GreedySelector::new(sys, lookahead)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{evaluate, EvalConfig};
    use crate::testutil::oscillator_experts;

    #[test]
    fn greedy_baseline_outperforms_the_weak_expert() {
        let sys_id = SystemId::Oscillator;
        let experts = oscillator_experts().clone();
        let a_s = switching_baseline(
            sys_id,
            experts.clone(),
            SwitchingKind::Greedy { lookahead: 8 },
            RewardConfig::default(),
            0,
        );
        let sys = sys_id.dynamics();
        let cfg = EvalConfig {
            samples: 150,
            ..Default::default()
        };
        let sw = evaluate(sys.as_ref(), &a_s, &cfg);
        let weak = evaluate(sys.as_ref(), experts[1].as_ref(), &cfg);
        assert!(
            sw.safe_rate >= weak.safe_rate,
            "switching {} vs weak expert {}",
            sw.safe_rate,
            weak.safe_rate
        );
    }

    #[test]
    fn learned_baseline_trains_and_controls() {
        let sys_id = SystemId::Oscillator;
        let experts = oscillator_experts().clone();
        let ppo = PpoConfig {
            iterations: 5,
            episodes_per_iteration: 4,
            hidden: 16,
            ..Default::default()
        };
        let a_s = switching_baseline(
            sys_id,
            experts,
            SwitchingKind::Learned(ppo),
            RewardConfig::default(),
            1,
        );
        let u = a_s.control(&[0.5, 0.5]);
        assert_eq!(u.len(), 1);
        assert!(u[0].abs() <= 20.0);
    }
}
