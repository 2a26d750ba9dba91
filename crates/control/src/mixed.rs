//! Adaptive mixing of experts — the paper's `A_W` (Eq. 4), with optional
//! graceful degradation (expert quarantine) under faults.

use crate::controller::Controller;
use crate::degradation::{
    DegradationConfig, DegradationEvent, DegradationMonitor, DegradationReason,
};
use cocktail_math::{vector, BoxRegion};
use cocktail_obs::{Event, NullSink, Telemetry};
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
    label: String,
    monitor: Option<DegradationMonitor>,
    tel: Arc<dyn Telemetry>,
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
        Self::with_name(experts, policy, u_inf, u_sup, "A_W")
    }

    /// Creates the mixed controller with a custom label.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::new`].
    pub fn with_name(
        experts: Vec<Arc<dyn Controller>>,
        policy: Arc<dyn WeightPolicy>,
        u_inf: Vec<f64>,
        u_sup: Vec<f64>,
        label: impl Into<String>,
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
            label: label.into(),
            monitor: None,
            tel: Arc::new(NullSink),
        }
    }

    /// Attaches a telemetry sink: every quarantine fires a
    /// `quarantine.events` counter and a `quarantine.fired` point naming
    /// the expert and reason.
    ///
    /// Only attach a sink to controllers driven *sequentially* (an
    /// interactive drill, a single rollout). Controllers shared across
    /// parallel evaluation workers must stay on the default [`NullSink`]
    /// and report via the drained [`Self::degradation_events`] log instead,
    /// or the event stream becomes scheduling-dependent (see the
    /// `cocktail_obs` determinism contract).
    #[must_use]
    pub fn with_telemetry(mut self, tel: Arc<dyn Telemetry>) -> Self {
        self.tel = tel;
        self
    }

    /// Enables graceful degradation: at control time each expert's output is
    /// checked for non-finite values and gross range excursions; offenders
    /// are quarantined (weight zeroed, remaining weights renormalized to
    /// preserve the total absolute weight) for `config.cooldown` calls, and
    /// every offense is logged as a [`DegradationEvent`].
    ///
    /// Without this call the controller runs the exact legacy mixing
    /// arithmetic — the guarded path is strictly opt-in.
    #[must_use]
    pub fn with_degradation(mut self, config: DegradationConfig) -> Self {
        self.monitor = Some(DegradationMonitor::new(config, self.experts.len()));
        self
    }

    /// Whether degradation monitoring is enabled.
    pub fn is_monitored(&self) -> bool {
        self.monitor.is_some()
    }

    /// A copy of the degradation events recorded so far (empty when
    /// monitoring is disabled).
    pub fn degradation_events(&self) -> Vec<DegradationEvent> {
        self.monitor
            .as_ref()
            .map(DegradationMonitor::events)
            .unwrap_or_default()
    }

    /// Drains and returns the degradation event log.
    pub fn take_degradation_events(&self) -> Vec<DegradationEvent> {
        self.monitor
            .as_ref()
            .map(DegradationMonitor::take_events)
            .unwrap_or_default()
    }

    /// The guarded mixture: probe each non-quarantined expert, quarantine
    /// offenders, renormalize the surviving weights so the total absolute
    /// weight is preserved, then mix and clip.
    fn degraded_control(&self, monitor: &DegradationMonitor, s: &[f64]) -> Vec<f64> {
        let call = monitor.next_call();
        let a = self.policy.weights(s);
        assert_eq!(a.len(), self.experts.len(), "weight count mismatch");
        let f = monitor.config().margin_factor;
        let (lo, hi): (Vec<f64>, Vec<f64>) = self
            .u_inf
            .iter()
            .zip(&self.u_sup)
            .map(|(&l, &h)| {
                let span = h - l;
                (l - f * span, h + f * span)
            })
            .unzip();

        let mut healthy: Vec<(f64, Vec<f64>)> = Vec::with_capacity(self.experts.len());
        for (i, (ai, expert)) in a.iter().zip(&self.experts).enumerate() {
            if monitor.is_quarantined(i, call) {
                continue;
            }
            let out = expert.control(s);
            let offense = if out.iter().any(|u| !u.is_finite()) {
                Some(DegradationReason::NonFinite)
            } else {
                out.iter()
                    .enumerate()
                    .find(|(j, u)| **u < lo[*j] || **u > hi[*j])
                    .map(|(j, u)| DegradationReason::OutOfRange {
                        value: *u,
                        bound: if *u < lo[j] { lo[j] } else { hi[j] },
                    })
            };
            if let Some(reason) = offense {
                if self.tel.enabled() {
                    self.tel.counter("quarantine.events", 1);
                    let reason_label = match reason {
                        DegradationReason::NonFinite => "non-finite",
                        DegradationReason::OutOfRange { .. } => "out-of-range",
                    };
                    self.tel.record(
                        Event::point("quarantine.fired")
                            .with("call", call)
                            .with("expert", i)
                            .with("expert_name", expert.name())
                            .with("reason", reason_label),
                    );
                }
                monitor.quarantine(call, i, expert.name(), reason);
            } else {
                healthy.push((*ai, out));
            }
        }

        let total_abs: f64 = a.iter().map(|ai| ai.abs()).sum();
        let healthy_abs: f64 = healthy.iter().map(|(ai, _)| ai.abs()).sum();
        let scale = if healthy_abs > 1e-12 {
            total_abs / healthy_abs
        } else {
            1.0
        };
        let mut u = vec![0.0; self.control_dim()];
        for (ai, out) in &healthy {
            vector::axpy_inplace(&mut u, scale * ai, out);
        }
        vector::clip(&u, &self.u_inf, &self.u_sup)
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
        match &self.monitor {
            None => vector::clip(&self.raw_control(s), &self.u_inf, &self.u_sup),
            Some(monitor) => self.degraded_control(monitor, s),
        }
    }

    fn state_dim(&self) -> usize {
        self.experts[0].state_dim()
    }

    fn control_dim(&self) -> usize {
        self.experts[0].control_dim()
    }

    fn name(&self) -> &str {
        &self.label
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

    struct NanExpert;

    impl Controller for NanExpert {
        fn control(&self, _s: &[f64]) -> Vec<f64> {
            vec![f64::NAN]
        }
        fn state_dim(&self) -> usize {
            2
        }
        fn control_dim(&self) -> usize {
            1
        }
        fn name(&self) -> &str {
            "nan_expert"
        }
        fn lipschitz(&self, _domain: &BoxRegion) -> Option<f64> {
            None
        }
    }

    #[test]
    fn nan_expert_is_quarantined_and_output_stays_finite() {
        let mut experts = experts();
        experts.push(Arc::new(NanExpert));
        let mixed = MixedController::new(
            experts,
            Arc::new(ConstantWeights(vec![1.0, 1.0, 1.0])),
            vec![-20.0],
            vec![20.0],
        )
        .with_degradation(DegradationConfig {
            margin_factor: 1.0,
            cooldown: 100,
        });
        let u = mixed.control(&[1.0, 2.0]);
        // healthy sum is -3; Σ|aᵢ| = 3 over healthy |a| = 2 ⇒ scale 1.5
        assert_eq!(u, vec![-4.5]);
        // quarantined on subsequent calls: no fresh events, still finite
        let u2 = mixed.control(&[1.0, 2.0]);
        assert_eq!(u2, vec![-4.5]);
        let events = mixed.degradation_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].expert, 2);
        assert_eq!(events[0].expert_name, "nan_expert");
        assert_eq!(events[0].reason, DegradationReason::NonFinite);
        assert!(mixed.is_monitored());
    }

    #[test]
    fn quarantine_expires_and_reprobes() {
        let mut experts = experts();
        experts.push(Arc::new(NanExpert));
        let mixed = MixedController::new(
            experts,
            Arc::new(ConstantWeights(vec![1.0, 1.0, 1.0])),
            vec![-20.0],
            vec![20.0],
        )
        .with_degradation(DegradationConfig {
            margin_factor: 1.0,
            cooldown: 1,
        });
        for _ in 0..5 {
            assert!(mixed.control(&[1.0, 1.0]).iter().all(|u| u.is_finite()));
        }
        // calls 0, 2, 4 probe the permanently-broken expert again
        assert_eq!(mixed.degradation_events().len(), 3);
    }

    #[test]
    fn monitored_but_healthy_matches_legacy_numbers() {
        let plain = MixedController::new(
            experts(),
            Arc::new(ConstantWeights(vec![0.7, -1.3])),
            vec![-20.0],
            vec![20.0],
        );
        let guarded = MixedController::new(
            experts(),
            Arc::new(ConstantWeights(vec![0.7, -1.3])),
            vec![-20.0],
            vec![20.0],
        )
        .with_degradation(DegradationConfig::default());
        for s in [[0.3, -0.8], [2.0, 1.0], [-1.5, 0.25]] {
            assert_eq!(guarded.control(&s), plain.control(&s));
        }
        assert!(guarded.degradation_events().is_empty());
        assert!(plain.degradation_events().is_empty());
        assert!(!plain.is_monitored());
    }

    #[test]
    fn out_of_range_expert_is_quarantined() {
        let huge: Arc<dyn Controller> =
            Arc::new(LinearFeedbackController::new(Matrix::from_rows(vec![
                vec![1.0e6, 0.0],
            ])));
        let mut experts = experts();
        experts.push(huge);
        let mixed = MixedController::new(
            experts,
            Arc::new(ConstantWeights(vec![1.0, 1.0, 1.0])),
            vec![-20.0],
            vec![20.0],
        )
        .with_degradation(DegradationConfig::default());
        mixed.control(&[1.0, 0.0]);
        let events = mixed.take_degradation_events();
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0].reason,
            DegradationReason::OutOfRange { value, bound } if value == -1.0e6 && bound == -60.0
        ));
        assert!(mixed.degradation_events().is_empty()); // drained
    }

    #[test]
    fn quarantine_reports_through_telemetry() {
        let sink = Arc::new(cocktail_obs::InMemorySink::new());
        let mut experts = experts();
        experts.push(Arc::new(NanExpert));
        let mixed = MixedController::new(
            experts,
            Arc::new(ConstantWeights(vec![1.0, 1.0, 1.0])),
            vec![-20.0],
            vec![20.0],
        )
        .with_degradation(DegradationConfig {
            margin_factor: 1.0,
            cooldown: 100,
        })
        .with_telemetry(sink.clone());
        mixed.control(&[1.0, 2.0]);
        mixed.control(&[1.0, 2.0]); // quarantined: no fresh offense
        assert_eq!(sink.counter_total("quarantine.events"), 1);
        let fired: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|e| e.name == "quarantine.fired")
            .collect();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].field("expert"), Some(&2usize.into()));
        assert_eq!(fired[0].field("reason"), Some(&"non-finite".into()));
    }

    #[test]
    fn all_experts_quarantined_yields_zero_control() {
        let mixed = MixedController::new(
            vec![Arc::new(NanExpert) as Arc<dyn Controller>],
            Arc::new(ConstantWeights(vec![1.0])),
            vec![-20.0],
            vec![20.0],
        )
        .with_degradation(DegradationConfig::default());
        assert_eq!(mixed.control(&[0.0, 0.0]), vec![0.0]);
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
