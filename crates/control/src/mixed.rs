//! Adaptive mixing of experts — the paper's `A_W` (Eq. 4).

use crate::controller::Controller;
use cocktail_math::{vector, BoxRegion};
use std::sync::Arc;

/// Produces the per-expert weight vector `a(s) ∈ [-A_B, A_B]ⁿ` for a state.
///
/// The paper learns this mapping with PPO: `cocktail-rl` trains the policy
/// and `cocktail_core::policy::PpoWeightPolicy` deploys it. Constant and
/// hand-written policies are useful for tests and ablations.
pub trait WeightPolicy: Send + Sync {
    /// Weight vector for the observed state (one entry per expert).
    fn weights(&self, s: &[f64]) -> Vec<f64>;

    /// Number of experts this policy weighs.
    fn expert_count(&self) -> usize;
}

/// A constant weight assignment (e.g. the `\[1, 0, …\]` policy equals expert 0;
/// `[1/n, …, 1/n]` is the uniform ensemble).
#[derive(Debug, Clone, PartialEq)]
pub struct ConstantWeights(pub Vec<f64>);

impl WeightPolicy for ConstantWeights {
    fn weights(&self, _s: &[f64]) -> Vec<f64> {
        self.0.clone()
    }

    fn expert_count(&self) -> usize {
        self.0.len()
    }
}

/// The mixed controller `A_W`:
/// `u = clip(Σᵢ aᵢ(s) · κᵢ(s), U_inf, U_sup)` (paper Eq. 4).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use cocktail_control::{ConstantWeights, Controller, LinearFeedbackController, MixedController};
/// use cocktail_math::Matrix;
///
/// let e1: Arc<dyn Controller> = Arc::new(
///     LinearFeedbackController::new(Matrix::from_rows(vec![vec![1.0, 0.0]])));
/// let e2: Arc<dyn Controller> = Arc::new(
///     LinearFeedbackController::new(Matrix::from_rows(vec![vec![0.0, 1.0]])));
/// let mixed = MixedController::new(
///     vec![e1, e2],
///     Arc::new(ConstantWeights(vec![0.5, 2.0])),
///     vec![-20.0], vec![20.0],
/// );
/// // u = clip(0.5·(-s₁) + 2.0·(-s₂))
/// assert_eq!(mixed.control(&[2.0, 1.0]), vec![-3.0]);
/// ```
pub struct MixedController {
    experts: Vec<Arc<dyn Controller>>,
    policy: Arc<dyn WeightPolicy>,
    u_inf: Vec<f64>,
    u_sup: Vec<f64>,
}

impl MixedController {
    /// Creates the mixed controller.
    ///
    /// # Panics
    ///
    /// Panics if `experts` is empty, expert dimensions disagree, the policy
    /// weighs a different number of experts, or the clip bounds have the
    /// wrong length.
    pub fn new(
        experts: Vec<Arc<dyn Controller>>,
        policy: Arc<dyn WeightPolicy>,
        u_inf: Vec<f64>,
        u_sup: Vec<f64>,
    ) -> Self {
        assert!(!experts.is_empty(), "mixing needs at least one expert");
        let sd = experts[0].state_dim();
        let cd = experts[0].control_dim();
        assert!(
            experts
                .iter()
                .all(|e| e.state_dim() == sd && e.control_dim() == cd),
            "expert dimensions mismatch"
        );
        assert_eq!(
            policy.expert_count(),
            experts.len(),
            "policy/expert count mismatch"
        );
        assert_eq!(u_inf.len(), cd, "u_inf length mismatch");
        assert_eq!(u_sup.len(), cd, "u_sup length mismatch");
        Self {
            experts,
            policy,
            u_inf,
            u_sup,
        }
    }

    /// The experts being mixed.
    pub fn experts(&self) -> &[Arc<dyn Controller>] {
        &self.experts
    }

    /// The adaptive weight policy.
    pub fn policy(&self) -> &Arc<dyn WeightPolicy> {
        &self.policy
    }

    /// The weights the policy assigns at `s` (diagnostics / distillation).
    pub fn weights_at(&self, s: &[f64]) -> Vec<f64> {
        self.policy.weights(s)
    }

    /// The *unclipped* mixture `Σ aᵢ κᵢ(s)`.
    pub fn raw_control(&self, s: &[f64]) -> Vec<f64> {
        let a = self.policy.weights(s);
        assert_eq!(a.len(), self.experts.len(), "weight count mismatch");
        let mut u = vec![0.0; self.control_dim()];
        for (ai, expert) in a.iter().zip(&self.experts) {
            vector::axpy_inplace(&mut u, *ai, &expert.control(s));
        }
        u
    }
}

impl Controller for MixedController {
    fn control(&self, s: &[f64]) -> Vec<f64> {
        vector::clip(&self.raw_control(s), &self.u_inf, &self.u_sup)
    }

    fn state_dim(&self) -> usize {
        self.experts[0].state_dim()
    }

    fn control_dim(&self) -> usize {
        self.experts[0].control_dim()
    }

    fn name(&self) -> &str {
        "A_W"
    }

    fn lipschitz(&self, _domain: &BoxRegion) -> Option<f64> {
        // The composition of the weight network with the experts has no
        // tractable product bound (weights multiply expert outputs), and
        // the paper marks A_W with "-"; we do the same.
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearFeedbackController;
    use cocktail_math::Matrix;

    fn experts() -> Vec<Arc<dyn Controller>> {
        vec![
            Arc::new(LinearFeedbackController::new(Matrix::from_rows(vec![
                vec![1.0, 0.0],
            ]))),
            Arc::new(LinearFeedbackController::new(Matrix::from_rows(vec![
                vec![0.0, 1.0],
            ]))),
        ]
    }

    #[test]
    fn constant_weights_reproduce_single_expert() {
        let mixed = MixedController::new(
            experts(),
            Arc::new(ConstantWeights(vec![1.0, 0.0])),
            vec![-20.0],
            vec![20.0],
        );
        assert_eq!(mixed.control(&[3.0, 5.0]), vec![-3.0]);
    }

    #[test]
    fn weights_can_exceed_convex_hull() {
        // the action space allows negative and >1 weights — a super-space
        // of both switching and convex combinations
        let mixed = MixedController::new(
            experts(),
            Arc::new(ConstantWeights(vec![-1.0, 2.0])),
            vec![-20.0],
            vec![20.0],
        );
        assert_eq!(mixed.control(&[1.0, 1.0]), vec![1.0 - 2.0]);
    }

    #[test]
    fn clip_applies() {
        let mixed = MixedController::new(
            experts(),
            Arc::new(ConstantWeights(vec![100.0, 100.0])),
            vec![-20.0],
            vec![20.0],
        );
        assert_eq!(mixed.control(&[-1.0, -1.0]), vec![20.0]);
        assert_eq!(mixed.raw_control(&[-1.0, -1.0]), vec![200.0]);
    }

    #[test]
    #[should_panic(expected = "policy/expert count")]
    fn policy_count_mismatch_panics() {
        MixedController::new(
            experts(),
            Arc::new(ConstantWeights(vec![1.0])),
            vec![-20.0],
            vec![20.0],
        );
    }

    #[test]
    fn mixed_has_no_lipschitz() {
        let mixed = MixedController::new(
            experts(),
            Arc::new(ConstantWeights(vec![1.0, 1.0])),
            vec![-20.0],
            vec![20.0],
        );
        assert!(mixed.lipschitz(&BoxRegion::cube(2, -1.0, 1.0)).is_none());
        assert_eq!(mixed.name(), "A_W");
    }
}
