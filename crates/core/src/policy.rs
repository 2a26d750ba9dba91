//! Deployment wrappers turning trained PPO policies into controller parts.

use cocktail_control::{Controller, Selector, WeightPolicy};
use cocktail_rl::ppo::GaussianPolicy;
use std::sync::Arc;

/// The deterministic deployment form of a PPO mixing policy:
/// `a(s) = clip(μ(s), ±A_B)` — the mean of the trained Gaussian, clipped
/// into the paper's weight box.
#[derive(Debug, Clone)]
pub struct PpoWeightPolicy {
    policy: GaussianPolicy,
    bound: f64,
}

impl PpoWeightPolicy {
    /// Wraps a trained policy with the weight bound `A_B`.
    ///
    /// # Panics
    ///
    /// Panics if `bound < 1` (the paper requires `A_B ≥ 1`).
    pub fn new(policy: GaussianPolicy, bound: f64) -> Self {
        assert!(bound >= 1.0, "weight bound must be at least 1");
        Self { policy, bound }
    }

    /// The underlying trained policy.
    pub fn policy(&self) -> &GaussianPolicy {
        &self.policy
    }
}

impl WeightPolicy for PpoWeightPolicy {
    fn weights(&self, s: &[f64]) -> Vec<f64> {
        self.policy.deterministic(s, self.bound)
    }

    fn expert_count(&self) -> usize {
        self.policy.mean_net().output_dim()
    }
}

/// The deployment form of a DDPG mixing actor: the actor's `Tanh` output
/// layer already keeps its outputs in `[-1, 1]`, so the weights are the
/// plain scaling `a(s) = A_B · actor(s)` (Remark 1's alternative mixing
/// learner).
#[derive(Debug, Clone)]
pub struct DdpgWeightPolicy {
    actor: cocktail_nn::Mlp,
    bound: f64,
}

impl DdpgWeightPolicy {
    /// Wraps a trained DDPG actor with the weight bound `A_B`.
    ///
    /// # Panics
    ///
    /// Panics if `bound < 1` (the paper requires `A_B ≥ 1`).
    pub fn new(actor: cocktail_nn::Mlp, bound: f64) -> Self {
        assert!(bound >= 1.0, "weight bound must be at least 1");
        Self { actor, bound }
    }

    /// The underlying actor network.
    pub fn actor(&self) -> &cocktail_nn::Mlp {
        &self.actor
    }
}

impl WeightPolicy for DdpgWeightPolicy {
    fn weights(&self, s: &[f64]) -> Vec<f64> {
        self.actor
            .forward(s)
            .iter()
            .map(|a| (self.bound * a).clamp(-self.bound, self.bound))
            .collect()
    }

    fn expert_count(&self) -> usize {
        self.actor.output_dim()
    }
}

/// The deterministic deployment form of a PPO switching policy: activate
/// the expert with the largest preference score.
#[derive(Debug, Clone)]
pub struct PpoSelector {
    policy: GaussianPolicy,
}

impl PpoSelector {
    /// Wraps a trained switching policy.
    pub fn new(policy: GaussianPolicy) -> Self {
        Self { policy }
    }
}

impl Selector for PpoSelector {
    #[allow(
        clippy::expect_used,
        reason = "scores is non-empty: its length equals the expert count"
    )]
    fn select(&self, s: &[f64], experts: &[Arc<dyn Controller>]) -> usize {
        let scores = self.policy.mean(s);
        assert_eq!(
            scores.len(),
            experts.len(),
            "selector/expert count mismatch"
        );
        scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("non-empty experts")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocktail_control::LinearFeedbackController;
    use cocktail_math::Matrix;

    fn policy() -> GaussianPolicy {
        GaussianPolicy::new(2, 2, 8, 0.0, 3)
    }

    #[test]
    fn weight_policy_clips_to_bound() {
        let p = PpoWeightPolicy::new(policy(), 2.0);
        for s in [[0.0, 0.0], [50.0, -50.0]] {
            let w = p.weights(&s);
            assert_eq!(w.len(), 2);
            assert!(w.iter().all(|a| a.abs() <= 2.0));
        }
        assert_eq!(p.expert_count(), 2);
    }

    #[test]
    fn selector_picks_argmax() {
        let sel = PpoSelector::new(policy());
        let experts: Vec<Arc<dyn Controller>> = vec![
            Arc::new(LinearFeedbackController::new(Matrix::identity(2))),
            Arc::new(LinearFeedbackController::new(Matrix::identity(2))),
        ];
        let s = [0.3, -0.7];
        let scores = sel.policy.mean(&s);
        let want = if scores[0] >= scores[1] { 0 } else { 1 };
        assert_eq!(sel.select(&s, &experts), want);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn sub_unit_bound_panics() {
        PpoWeightPolicy::new(policy(), 0.9);
    }

    #[test]
    fn ddpg_weight_policy_scales_and_clamps() {
        use cocktail_nn::{Activation, MlpBuilder};
        let actor = MlpBuilder::new(2)
            .hidden(8, Activation::Relu)
            .output(2, Activation::Tanh)
            .seed(5)
            .build();
        let p = DdpgWeightPolicy::new(actor, 2.0);
        assert_eq!(p.expert_count(), 2);
        for s in [[0.0, 0.0], [10.0, -10.0]] {
            let w = p.weights(&s);
            assert!(w.iter().all(|a| a.abs() <= 2.0));
        }
        // tanh actor output in [-1,1] scaled by the bound
        let raw = p.actor().forward(&[0.3, 0.3]);
        let w = p.weights(&[0.3, 0.3]);
        assert!((w[0] - 2.0 * raw[0]).abs() < 1e-12);
    }

    #[test]
    fn ddpg_weight_policy_bounds_an_unbounded_actor() {
        use cocktail_nn::{Activation, MlpBuilder};
        let actor = MlpBuilder::new(2)
            .hidden(8, Activation::Tanh)
            .output(2, Activation::Identity)
            .seed(0)
            .build();
        let p = DdpgWeightPolicy::new(actor, 2.0);
        for s in [[0.0, 0.0], [100.0, -100.0], [3.0, 1.0]] {
            let w = p.weights(&s);
            assert_eq!(w.len(), 2);
            assert!(w.iter().all(|a| a.abs() <= 2.0));
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn ddpg_sub_unit_bound_panics() {
        use cocktail_nn::{Activation, MlpBuilder};
        let actor = MlpBuilder::new(2).output(2, Activation::Identity).build();
        DdpgWeightPolicy::new(actor, 0.5);
    }
}
