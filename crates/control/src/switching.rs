//! Discrete switching adaptation — the paper's baseline `A_S` \[4\].
//!
//! A switching controller activates exactly one expert per step. The paper
//! compares against the energy-efficient switching method of Wang et al.
//! (ICCAD 2020): switch to the cheapest expert whose predicted behaviour
//! keeps the system safe. [`GreedySelector`] implements that model-based
//! rule with a k-step lookahead; an RL-trained selector (categorical
//! policy) is produced by `cocktail-rl` and plugged in through
//! [`FnSelector`].

use crate::controller::Controller;
use cocktail_env::Dynamics;
use cocktail_math::BoxRegion;
use std::sync::Arc;

/// Chooses which expert is active for an observed state.
pub trait Selector: Send + Sync {
    /// Returns the index of the expert to activate.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `experts` is empty or the returned
    /// index would be out of bounds (callers pass the same expert list the
    /// controller owns).
    fn select(&self, s: &[f64], experts: &[Arc<dyn Controller>]) -> usize;
}

/// A [`Selector`] wrapping a plain function (used for RL-trained selectors).
pub struct FnSelector<F>(pub F);

impl<F> Selector for FnSelector<F>
where
    F: Fn(&[f64]) -> usize + Send + Sync,
{
    fn select(&self, s: &[f64], experts: &[Arc<dyn Controller>]) -> usize {
        let i = (self.0)(s);
        assert!(i < experts.len(), "selector index out of bounds");
        i
    }
}

/// Model-based greedy selector: simulate each expert `lookahead` steps
/// ahead (no disturbance) and pick the cheapest expert among those that
/// stay safe; if none stays safe, pick the one that survives longest.
pub struct GreedySelector {
    dynamics: Arc<dyn Dynamics>,
    lookahead: usize,
}

impl GreedySelector {
    /// Creates a greedy selector with the given lookahead depth.
    ///
    /// # Panics
    ///
    /// Panics if `lookahead == 0`.
    pub fn new(dynamics: Arc<dyn Dynamics>, lookahead: usize) -> Self {
        assert!(lookahead > 0, "lookahead must be at least one step");
        Self {
            dynamics,
            lookahead,
        }
    }

    /// Simulates `expert` from `s` and returns `(steps survived, energy)`.
    fn probe(&self, s: &[f64], expert: &dyn Controller) -> (usize, f64) {
        let mut state = s.to_vec();
        let omega = vec![0.0; self.dynamics.disturbance_dim()];
        let mut energy = 0.0;
        for t in 0..self.lookahead {
            let u = self.dynamics.clip_control(&expert.control(&state));
            energy += cocktail_math::vector::norm_1(&u);
            state = self.dynamics.step(&state, &u, &omega);
            if !self.dynamics.is_safe(&state) {
                return (t + 1, energy);
            }
        }
        (self.lookahead + 1, energy)
    }
}

impl Selector for GreedySelector {
    #[allow(
        clippy::expect_used,
        reason = "probes is non-empty: an empty expert list is rejected on entry"
    )]
    fn select(&self, s: &[f64], experts: &[Arc<dyn Controller>]) -> usize {
        assert!(!experts.is_empty(), "switching needs at least one expert");
        let probes: Vec<(usize, f64)> = experts.iter().map(|e| self.probe(s, e.as_ref())).collect();
        let all_safe = probes.iter().all(|&(t, _)| t > self.lookahead);
        if all_safe {
            // cheapest expert
            probes
                .iter()
                .enumerate()
                .min_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
                .map(|(i, _)| i)
                .expect("non-empty")
        } else {
            // longest-surviving expert (ties broken by energy)
            probes
                .iter()
                .enumerate()
                .max_by(|a, b| a.1 .0.cmp(&b.1 .0).then(b.1 .1.total_cmp(&a.1 .1)))
                .map(|(i, _)| i)
                .expect("non-empty")
        }
    }
}

/// The switching controller `A_S`: `u = κ_{σ(s)}(s)`.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use cocktail_control::{Controller, FnSelector, LinearFeedbackController, SwitchingController};
/// use cocktail_math::Matrix;
///
/// let weak: Arc<dyn Controller> = Arc::new(
///     LinearFeedbackController::new(Matrix::from_rows(vec![vec![1.0, 1.0]])));
/// let strong: Arc<dyn Controller> = Arc::new(
///     LinearFeedbackController::new(Matrix::from_rows(vec![vec![5.0, 5.0]])));
/// // use the strong expert far from the origin
/// let selector = FnSelector(|s: &[f64]| usize::from(s[0].abs() > 1.0));
/// let a_s = SwitchingController::new(vec![weak, strong], Arc::new(selector));
/// assert_eq!(a_s.control(&[0.5, 0.0]), vec![-0.5]);
/// assert_eq!(a_s.control(&[1.5, 0.0]), vec![-7.5]);
/// ```
pub struct SwitchingController {
    experts: Vec<Arc<dyn Controller>>,
    selector: Arc<dyn Selector>,
}

impl SwitchingController {
    /// Creates a switching controller over `experts`.
    ///
    /// # Panics
    ///
    /// Panics if `experts` is empty or the experts disagree on dimensions.
    pub fn new(experts: Vec<Arc<dyn Controller>>, selector: Arc<dyn Selector>) -> Self {
        assert!(!experts.is_empty(), "switching needs at least one expert");
        let sd = experts[0].state_dim();
        let cd = experts[0].control_dim();
        assert!(
            experts
                .iter()
                .all(|e| e.state_dim() == sd && e.control_dim() == cd),
            "expert dimensions mismatch"
        );
        Self { experts, selector }
    }

    /// The experts being switched among.
    pub fn experts(&self) -> &[Arc<dyn Controller>] {
        &self.experts
    }

    /// The index the selector would choose for `s` (diagnostics).
    pub fn active_expert(&self, s: &[f64]) -> usize {
        self.selector.select(s, &self.experts)
    }
}

impl Controller for SwitchingController {
    fn control(&self, s: &[f64]) -> Vec<f64> {
        let i = self.selector.select(s, &self.experts);
        self.experts[i].control(s)
    }

    fn state_dim(&self) -> usize {
        self.experts[0].state_dim()
    }

    fn control_dim(&self) -> usize {
        self.experts[0].control_dim()
    }

    fn name(&self) -> &str {
        "A_S"
    }

    fn lipschitz(&self, _domain: &BoxRegion) -> Option<f64> {
        // Switching is discontinuous at the switching surfaces; no global
        // Lipschitz constant exists in general (Table I writes "-").
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearFeedbackController;
    use cocktail_env::systems::VanDerPol;
    use cocktail_math::Matrix;

    fn experts() -> Vec<Arc<dyn Controller>> {
        vec![
            Arc::new(LinearFeedbackController::with_name(
                Matrix::from_rows(vec![vec![0.5, 0.5]]),
                "weak",
            )),
            Arc::new(LinearFeedbackController::with_name(
                Matrix::from_rows(vec![vec![6.0, 6.0]]),
                "strong",
            )),
        ]
    }

    #[test]
    fn greedy_prefers_cheap_expert_when_both_safe() {
        let sys = Arc::new(VanDerPol::new());
        let sel = GreedySelector::new(sys, 5);
        let e = experts();
        // near the origin both experts are safe; the weak one is cheaper
        assert_eq!(sel.select(&[0.1, 0.1], &e), 0);
    }

    #[test]
    fn greedy_prefers_surviving_expert_near_boundary() {
        let sys = Arc::new(VanDerPol::new());
        let sel = GreedySelector::new(sys, 10);
        let e = experts();
        // large upward velocity near the s₂ boundary: the weak expert lets
        // s₂ keep growing past 2 while the strong one damps it in time
        let s = [0.0, 1.9];
        let choice = sel.select(&s, &e);
        assert_eq!(choice, 1, "must pick the strong expert near the boundary");
    }

    #[test]
    fn switching_controller_dispatches() {
        let sel = FnSelector(|s: &[f64]| usize::from(s[0] > 0.0));
        let sw = SwitchingController::new(experts(), Arc::new(sel));
        assert_eq!(sw.active_expert(&[-1.0, 0.0]), 0);
        assert_eq!(sw.active_expert(&[1.0, 0.0]), 1);
        assert_eq!(sw.control(&[1.0, 0.0]), vec![-6.0]);
        assert!(sw.lipschitz(&BoxRegion::cube(2, -1.0, 1.0)).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one expert")]
    fn empty_experts_panic() {
        SwitchingController::new(Vec::new(), Arc::new(FnSelector(|_: &[f64]| 0)));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_selector_panics() {
        let sw = SwitchingController::new(experts(), Arc::new(FnSelector(|_: &[f64]| 7)));
        sw.control(&[0.0, 0.0]);
    }
}
