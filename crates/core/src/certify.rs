//! The pipeline's safety-certification stage (Section III-C as a stage).
//!
//! [`certify_student`] runs the full formal loop — Bernstein certificate
//! with partition refinement, closed-loop reachability, control-invariant
//! fixpoint — for a distilled student against its plant and returns the
//! serializable [`SafetyCert`] the serving layer embeds in controller
//! bundles and re-derives at admission time. It is a separate stage rather
//! than part of [`crate::pipeline::Cocktail::run`] because certification is
//! pure read-only analysis of the finished student: training artifacts are
//! bit-identical whether or not it runs.

use crate::system::SystemId;
use cocktail_control::NnController;
use cocktail_obs::{Span, Telemetry};
use cocktail_verify::{certify_controller, default_params, SafetyCert, SafetyParams, VerifyError};

/// Certifies a distilled student on `system` under the `pipeline/certify`
/// span, with [`default_params`] when no explicit budgets are given.
///
/// The certificate is a pure function of `(system, student, params)` and is
/// worker-count invariant, so the same call on another machine re-derives
/// it bit-for-bit (modulo the reported wall-clock).
///
/// # Errors
///
/// Propagates [`VerifyError`] from the verification stages — most notably
/// `ResourceExhausted` when the student's Lipschitz constant pushes the
/// Bernstein partition past its piece budget (the paper's `κ_D` failure
/// mode).
pub fn certify_student(
    system: SystemId,
    student: &NnController,
    params: Option<&SafetyParams>,
    workers: usize,
    tel: &dyn Telemetry,
) -> Result<SafetyCert, VerifyError> {
    let sys = system.dynamics();
    let _stage = Span::enter(tel, "pipeline/certify");
    let defaults;
    let params = match params {
        Some(p) => p,
        None => {
            defaults = default_params(sys.as_ref());
            &defaults
        }
    };
    certify_controller(
        sys.as_ref(),
        student.network(),
        student.scale(),
        params,
        workers,
        tel,
    )
    .map(|run| run.cert)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocktail_nn::{Activation, MlpBuilder};
    use cocktail_obs::{InMemorySink, NullSink};
    use cocktail_verify::fast_params;

    fn student() -> NnController {
        let net = MlpBuilder::new(2)
            .hidden(8, Activation::Tanh)
            .output(1, Activation::Tanh)
            .seed(11)
            .build();
        NnController::with_name(net, vec![20.0], "kappa_star")
    }

    #[test]
    fn stage_emits_span_and_matches_direct_call() {
        let student = student();
        let sys = SystemId::Oscillator.dynamics();
        let params = fast_params(sys.as_ref());
        let tel = InMemorySink::new();
        let cert = certify_student(SystemId::Oscillator, &student, Some(&params), 2, &tel)
            .expect("certifies");
        assert!(
            !tel.events_named("pipeline/certify").is_empty(),
            "stage span must be recorded"
        );
        assert!(
            !tel.events_named("verify.verdict").is_empty(),
            "verdict event must pass through the stage telemetry"
        );
        let direct = cocktail_verify::certify_controller(
            sys.as_ref(),
            student.network(),
            student.scale(),
            &params,
            2,
            &NullSink,
        )
        .expect("certifies")
        .cert;
        assert!(cert.matches(&direct, 0.0), "stage must equal direct call");
    }

    #[test]
    fn default_budgets_pass_their_own_ceilings() {
        // `certify_student(.., None, ..)` resolves to `default_params`; a
        // full default-budget run is a release-mode concern (pipeline
        // example and CI), but the defaults must never trip the admission
        // ceilings or every exported bundle would be refused
        for system in SystemId::all() {
            let sys = system.dynamics();
            let params = default_params(sys.as_ref());
            assert!(
                params
                    .budget_ceiling_violation(&sys.verification_domain())
                    .is_none(),
                "{}",
                system.label()
            );
        }
    }
}
