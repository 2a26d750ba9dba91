//! The admission gate: nothing serves traffic until it passes here.
//!
//! Admission re-derives everything the bundle claims instead of trusting
//! it: the static analyzer runs afresh against the target plant (under the
//! usual Off/Warn/Deny [`PreflightMode`]), the product-form Lipschitz
//! bound is recomputed from the shipped weights and compared against the
//! bundle's claim, a fresh seeded empirical sweep over the bundle's
//! input domain checks that the claim actually dominates observed slopes,
//! and the formal safety certificate — Bernstein enclosure, closed-loop
//! reachability, control-invariant set — is re-derived from the shipped
//! weights, the plant spec and the embedded verification budgets, then
//! compared field by field (wall-clock excluded: it is a metric, not a
//! claim). A bundle that fails any of these never reaches the engine; a
//! bundle that ships *no* safety certificate (a version-2 artifact, or a
//! student whose certification exhausted its budget at export) is refused
//! as uncertified unless the operator opts in.
//!
//! The sweep runs beside the safety certificate's re-derivation; the
//! checks are judged in the order above all the same, so a refusal names
//! the same check whatever the schedule.

use crate::bundle::{BundleError, ControllerBundle};
use cocktail_analysis::{AnalysisConfig, AnalysisReport, Analyzer, PreflightMode};
use cocktail_math::parallel;
use cocktail_nn::lipschitz;
use cocktail_obs::{Event, InMemorySink, NullSink, Span, Telemetry};
use cocktail_verify::{certify_controller, SafetyCert, SafetyVerdict};
use std::fmt;

/// Tuning knobs of the admission gate.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// How lint findings gate admission. [`PreflightMode::Deny`] (the
    /// serving default — stricter than the pipeline's `Warn`) refuses any
    /// error-level finding; `Warn` reports and admits; `Off` skips the
    /// analyzer entirely. The Lipschitz checks run in every mode.
    pub mode: PreflightMode,
    /// Sample pairs of the fresh empirical Lipschitz sweep.
    pub sweep_samples: usize,
    /// Seed of the sweep (fixed so admission is deterministic).
    pub sweep_seed: u64,
    /// Relative tolerance when comparing the recomputed certified bound
    /// against the bundle's claim (absorbs cross-platform libm jitter).
    pub claim_tolerance: f64,
    /// Admit bundles that carry no formal safety certificate (version-2
    /// artifacts, or students whose certification exhausted its budget at
    /// export). Off by default: an uncertified controller is refused with
    /// [`AdmissionError::Uncertified`]. When on, the bundle is admitted
    /// and the reason it is uncertified is recorded in the evidence. A
    /// *present but wrong* certificate is always refused regardless.
    pub allow_uncertified: bool,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            mode: PreflightMode::Deny,
            sweep_samples: 2000,
            sweep_seed: 0x5eed,
            claim_tolerance: 1e-6,
            allow_uncertified: false,
        }
    }
}

/// Why a bundle was refused.
#[derive(Debug, Clone)]
pub enum AdmissionError {
    /// The bundle itself is malformed (see [`BundleError`]).
    Bundle(BundleError),
    /// Deny-mode lint gate: error-level analyzer findings.
    LintDenied {
        /// One-line totals of the fresh report.
        summary: String,
        /// Full rendered findings.
        rendered: String,
    },
    /// The recomputed certified bound disagrees with the bundle's claim —
    /// the weights or the claim were altered after export.
    ClaimMismatch {
        /// What the bundle claims.
        claimed: f64,
        /// What the shipped weights certify to.
        recomputed: f64,
    },
    /// The fresh empirical sweep observed a slope above the claim — the
    /// claim cannot be a valid upper bound.
    ClaimViolated {
        /// What the bundle claims.
        claimed: f64,
        /// Largest observed slope.
        observed: f64,
    },
    /// The shipped safety certificate disagrees with the one admission
    /// re-derives from the shipped weights, plant spec and embedded
    /// budgets — or its budgets exceed the admission ceilings, or the
    /// re-derivation itself failed. Either the weights or the certificate
    /// were altered after export.
    SafetyMismatch {
        /// What disagreed.
        detail: String,
    },
    /// The shipped certificate claims `Safe` but the fresh re-derivation
    /// proves `NotProven` under the very same budgets: the safety verdict
    /// itself was forged. Distinguished from [`Self::SafetyMismatch`]
    /// because it is the one tamper that would have put an unproven
    /// controller on the wire claiming a formal guarantee.
    SafetyViolated {
        /// What disagreed.
        detail: String,
    },
    /// The bundle carries no safety certificate at all and the config does
    /// not allow uncertified controllers.
    Uncertified {
        /// Why the bundle is uncertified (format predates certification,
        /// or the certificate was omitted at export).
        reason: String,
    },
    /// The controller cannot be served against this plant (dimension
    /// mismatch, envelope outside the actuator range).
    Unservable(String),
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::Bundle(e) => write!(f, "{e}"),
            AdmissionError::LintDenied { summary, rendered } => {
                write!(f, "lint gate denied admission ({summary}):\n{rendered}")
            }
            AdmissionError::ClaimMismatch {
                claimed,
                recomputed,
            } => write!(
                f,
                "Lipschitz certificate mismatch: bundle claims {claimed}, shipped \
                 weights certify to {recomputed}"
            ),
            AdmissionError::ClaimViolated { claimed, observed } => write!(
                f,
                "Lipschitz claim violated: fresh sweep observed slope {observed} \
                 above the claimed bound {claimed}"
            ),
            AdmissionError::SafetyMismatch { detail } => {
                write!(f, "safety certificate mismatch: {detail}")
            }
            AdmissionError::SafetyViolated { detail } => write!(
                f,
                "safety certificate violated: bundle claims a safe verdict the \
                 shipped weights do not re-derive ({detail})"
            ),
            AdmissionError::Uncertified { reason } => {
                write!(f, "uncertified controller refused: {reason}")
            }
            AdmissionError::Unservable(msg) => write!(f, "unservable bundle: {msg}"),
        }
    }
}

impl std::error::Error for AdmissionError {}

impl From<BundleError> for AdmissionError {
    fn from(e: BundleError) -> Self {
        AdmissionError::Bundle(e)
    }
}

/// A bundle that passed admission, with the evidence gathered on the way.
#[derive(Debug, Clone)]
pub struct Admitted {
    /// The admitted bundle.
    pub bundle: ControllerBundle,
    /// The fresh analyzer report (empty in [`PreflightMode::Off`]).
    pub report: AnalysisReport,
    /// Certified bound recomputed from the shipped weights.
    pub recomputed_bound: f64,
    /// Largest slope the fresh empirical sweep observed.
    pub sweep_lower_bound: f64,
    /// The safety certificate admission re-derived from the shipped
    /// weights (not the shipped copy — though the two are known equal by
    /// the time admission succeeds). `None` for an uncertified bundle
    /// admitted under `allow_uncertified`.
    pub safety: Option<SafetyCert>,
    /// Why the bundle has no safety certificate, when it was admitted
    /// without one under `allow_uncertified`.
    pub uncertified_reason: Option<String>,
}

/// Runs the admission gate with the default config and no telemetry.
///
/// # Errors
///
/// See [`admit_with`].
pub fn admit(bundle: ControllerBundle) -> Result<Admitted, AdmissionError> {
    admit_with(bundle, &AdmissionConfig::default(), &NullSink)
}

/// Runs the full admission gate.
///
/// # Errors
///
/// Returns an [`AdmissionError`] describing the first failed check; the
/// bundle never serves in that case.
pub fn admit_with(
    bundle: ControllerBundle,
    config: &AdmissionConfig,
    tel: &dyn Telemetry,
) -> Result<Admitted, AdmissionError> {
    admit_with_workers(bundle, config, parallel::default_workers(), tel)
}

/// [`admit_with`] with an explicit worker count for the sweep and the
/// safety certificate. The verdict, the evidence and the telemetry (every
/// event comes from the calling thread) are the same for every
/// `workers >= 1`.
///
/// # Errors
///
/// See [`admit_with`].
pub fn admit_with_workers(
    bundle: ControllerBundle,
    config: &AdmissionConfig,
    workers: usize,
    tel: &dyn Telemetry,
) -> Result<Admitted, AdmissionError> {
    let _span = Span::enter(tel, "serve/admission");
    let result = run_checks(bundle, config, workers, tel);
    if tel.enabled() {
        match &result {
            Ok(_) => tel.record(Event::counter("serve.admissions", 1)),
            Err(e) => {
                tel.record(
                    Event::counter("serve.admission_refusals", 1).with("reason", kind_of(e)),
                );
            }
        }
    }
    result
}

fn kind_of(e: &AdmissionError) -> &'static str {
    match e {
        AdmissionError::Bundle(_) => "bundle",
        AdmissionError::LintDenied { .. } => "lint-denied",
        AdmissionError::ClaimMismatch { .. } => "claim-mismatch",
        AdmissionError::ClaimViolated { .. } => "claim-violated",
        AdmissionError::SafetyMismatch { .. } => "safety-mismatch",
        AdmissionError::SafetyViolated { .. } => "safety-violated",
        AdmissionError::Uncertified { .. } => "uncertified",
        AdmissionError::Unservable(_) => "unservable",
    }
}

fn run_checks(
    bundle: ControllerBundle,
    config: &AdmissionConfig,
    workers: usize,
    tel: &dyn Telemetry,
) -> Result<Admitted, AdmissionError> {
    bundle.validate()?;
    let sys = bundle.system.dynamics();

    // ---- servability: dimensions, actuator envelope
    let (net, scale) = bundle.network()?;
    if net.input_dim() != sys.state_dim() {
        return Err(AdmissionError::Unservable(format!(
            "controller reads {} state dimensions, plant `{}` has {}",
            net.input_dim(),
            sys.name(),
            sys.state_dim()
        )));
    }
    if net.output_dim() != sys.control_dim() || scale.len() != sys.control_dim() {
        return Err(AdmissionError::Unservable(format!(
            "controller emits {} control dimensions (scale arity {}), plant `{}` \
             expects {}",
            net.output_dim(),
            scale.len(),
            sys.name(),
            sys.control_dim()
        )));
    }
    let (plant_lo, plant_hi) = sys.control_bounds();
    for (i, ((lo, hi), (plo, phi))) in bundle
        .u_inf
        .iter()
        .zip(&bundle.u_sup)
        .zip(plant_lo.iter().zip(&plant_hi))
        .enumerate()
    {
        if lo < plo || hi > phi {
            return Err(AdmissionError::Unservable(format!(
                "clip range [{lo}, {hi}] of control dimension {i} exceeds the \
                 plant's actuator range [{plo}, {phi}]"
            )));
        }
    }

    // ---- lint gate: a fresh analyzer run, never the shipped findings
    let report = if config.mode == PreflightMode::Off {
        AnalysisReport::new()
    } else {
        // predict certification cost against the budget the embedded
        // certificate is re-derived with below
        let shipped = bundle.safety.as_ref().map(|cert| &cert.params.certificate);
        let lint = AnalysisConfig::for_plant(sys.as_ref(), shipped);
        let report = Analyzer::with_config(sys.clone(), lint).analyze(&bundle.spec);
        if tel.enabled() {
            for d in report.diagnostics() {
                tel.record(
                    Event::point("serve.admission.diagnostic")
                        .with("severity", d.severity.to_string())
                        .with("code", d.code)
                        .with("message", d.message.clone()),
                );
            }
        }
        if config.mode == PreflightMode::Deny && report.has_errors() {
            return Err(AdmissionError::LintDenied {
                summary: report.summary(),
                rendered: report.render(),
            });
        }
        report
    };

    // ---- Lipschitz certificate: recompute (the sweep challenges it below)
    let recomputed = lipschitz::scaled_upper_bound(net, scale);
    let tol = config.claim_tolerance.max(0.0);
    let rel = (recomputed - bundle.lipschitz_claim).abs() / bundle.lipschitz_claim.abs().max(1.0);
    if rel > tol {
        return Err(AdmissionError::ClaimMismatch {
            claimed: bundle.lipschitz_claim,
            recomputed,
        });
    }

    // ---- the sweep and the safety certificate are pure functions of the
    // shipped bundle, so the certificate runs on this thread beside the
    // sweep. It starts only under budgets that
    // pass the ceilings (they are attacker-controlled), and its telemetry
    // is held back until its check is reached: the checks are judged in
    // the order below, so every refusal and every event stream is the one
    // the checks give run one by one.
    let scale_gain = lipschitz::scale_gain(scale);
    let within_ceilings = bundle.safety.as_ref().map(|claimed| {
        claimed
            .params
            .budget_ceiling_violation(&bundle.input_domain)
            .map_or(Ok(claimed), Err)
    });
    let held = InMemorySink::new();
    let certify_tel: &dyn Telemetry = if tel.enabled() { &held } else { &NullSink };
    let (certified, sweep) = parallel::join(
        workers,
        || {
            within_ceilings.map(|checked| {
                checked.map(|claimed| {
                    let fresh = certify_controller(
                        sys.as_ref(),
                        net,
                        scale,
                        &claimed.params,
                        workers,
                        certify_tel,
                    )
                    .map(|run| run.cert);
                    (claimed, fresh)
                })
            })
        },
        || {
            scale_gain
                * lipschitz::empirical_lower_bound_with_workers(
                    net,
                    &bundle.input_domain,
                    config.sweep_samples.max(1),
                    config.sweep_seed,
                    workers,
                )
        },
    );

    // ---- Lipschitz claim against the sweep's observed slopes
    if sweep > bundle.lipschitz_claim * (1.0 + tol) {
        return Err(AdmissionError::ClaimViolated {
            claimed: bundle.lipschitz_claim,
            observed: sweep,
        });
    }

    // ---- safety certificate: the full formal loop (Bernstein enclosure,
    // closed-loop reachability, control-invariant set) re-derived from the
    // shipped weights, the plant spec and the *shipped* budgets, compared
    // field by field. The certificate is a pure function of those inputs
    // and worker-count invariant, so any disagreement means the weights or
    // the certificate were altered after export.
    let mut safety = None;
    let mut uncertified_reason = None;
    match certified {
        Some(certified) => {
            let (claimed, fresh) =
                certified.map_err(|violation| AdmissionError::SafetyMismatch {
                    detail: format!("shipped verification budgets exceed ceilings: {violation}"),
                })?;
            for event in held.take() {
                tel.record(event);
            }
            match fresh {
                Ok(fresh) => match claimed.diff(&fresh, tol.max(1e-9)) {
                    None => safety = Some(fresh),
                    Some(field) => {
                        let detail =
                            format!("shipped and re-derived certificates disagree on `{field}`");
                        let forged_verdict = claimed.verdict == SafetyVerdict::Safe
                            && fresh.verdict == SafetyVerdict::NotProven;
                        return Err(if forged_verdict {
                            AdmissionError::SafetyViolated { detail }
                        } else {
                            AdmissionError::SafetyMismatch { detail }
                        });
                    }
                },
                Err(e) => {
                    return Err(AdmissionError::SafetyMismatch {
                        detail: format!("re-derivation under the shipped budgets failed: {e}"),
                    });
                }
            }
        }
        None => {
            let reason = bundle.uncertified_reason();
            if !config.allow_uncertified {
                return Err(AdmissionError::Uncertified { reason });
            }
            uncertified_reason = Some(reason);
        }
    }

    Ok(Admitted {
        bundle,
        report,
        recomputed_bound: recomputed,
        sweep_lower_bound: sweep,
        safety,
        uncertified_reason,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::tests_support::{healthy_bundle, legacy_json, v2_bundle};
    use crate::bundle::BUNDLE_VERSION;
    use crate::{Engine, EngineConfig};
    use cocktail_analysis::ControllerSpec;
    use cocktail_core::SystemId;
    use cocktail_obs::InMemorySink;
    use cocktail_verify::ErrorMargin;

    #[test]
    fn healthy_bundle_is_admitted_with_evidence() {
        let tel = InMemorySink::new();
        let admitted = admit_with(healthy_bundle(), &AdmissionConfig::default(), &tel)
            .expect("healthy bundle admitted");
        assert!(!admitted.report.has_errors());
        assert!(admitted.sweep_lower_bound <= admitted.bundle.lipschitz_claim);
        assert!(
            (admitted.recomputed_bound - admitted.bundle.lipschitz_claim).abs()
                < 1e-9 * admitted.bundle.lipschitz_claim.max(1.0)
        );
        let fresh = admitted.safety.as_ref().expect("safety evidence recorded");
        assert!(
            fresh.matches(admitted.bundle.safety.as_ref().expect("cert shipped"), 0.0),
            "evidence cert equals the shipped cert"
        );
        assert_eq!(admitted.uncertified_reason, None);
        assert_eq!(tel.counter_total("serve.admissions"), 1);
        assert_eq!(tel.counter_total("serve.admission_refusals"), 0);
    }

    #[test]
    fn nan_weight_is_lint_denied() {
        let mut b = healthy_bundle();
        let ControllerSpec::Mlp { net, .. } = &mut b.spec;
        net.layers_mut()[0].weights_mut()[(0, 0)] = f64::NAN;
        // validate() itself already refuses non-finite weights; the lint
        // gate is the second line of defence, so bypass validate by
        // checking the error kind only
        let tel = InMemorySink::new();
        let err = admit_with(b, &AdmissionConfig::default(), &tel).expect_err("refused");
        assert!(
            matches!(err, AdmissionError::Bundle(BundleError::NonFinite(_))),
            "{err}"
        );
        assert_eq!(tel.counter_total("serve.admission_refusals"), 1);
    }

    #[test]
    fn tampered_claim_is_a_certificate_mismatch() {
        let mut b = healthy_bundle();
        b.lipschitz_claim *= 0.5;
        let err = admit(b).expect_err("refused");
        assert!(matches!(err, AdmissionError::ClaimMismatch { .. }), "{err}");
    }

    #[test]
    fn tampered_weights_are_a_certificate_mismatch() {
        let mut b = healthy_bundle();
        let ControllerSpec::Mlp { net, .. } = &mut b.spec;
        // finite tampering: scale one weight up so the certified bound
        // moves but every hygiene check still passes
        net.layers_mut()[0].weights_mut()[(0, 0)] *= 4.0;
        let err = admit(b).expect_err("refused");
        assert!(matches!(err, AdmissionError::ClaimMismatch { .. }), "{err}");
    }

    /// A temp path for a rewritten bundle file.
    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "cocktail-serve-admission-{tag}-{}.json",
            std::process::id()
        ))
    }

    #[test]
    fn v3_file_with_f32_keys_loads_validates_and_admits() {
        let b = healthy_bundle();
        let path = temp_path("v3");
        let v3 = legacy_json(&b, 3, true);
        assert!(v3.contains("\"version\": 3") && v3.contains("\"f32_output_error\""));
        std::fs::write(&path, v3).expect("writable");
        let back = ControllerBundle::load(&path).expect("v3 file loads and validates");
        std::fs::remove_file(&path).ok();
        assert_eq!(back.version, 3);
        assert_eq!(back.safety, b.safety, "the legacy keys are ignored");
        admit(back).expect("v3 bundle admits");
    }

    #[test]
    fn v5_file_with_a_fast_tier_key_admits_and_serves_the_v6_bits() {
        let b = healthy_bundle();
        let path = temp_path("v5");
        std::fs::write(&path, legacy_json(&b, 5, false)).expect("writable");
        let back = ControllerBundle::load(&path).expect("v5 file loads and validates");
        std::fs::remove_file(&path).ok();
        assert_eq!(back.version, 5);
        let (v5, v6) = (
            admit(back).expect("v5 bundle admits"),
            admit(b).expect("v6 bundle admits"),
        );
        assert_eq!(
            v5.bundle.safety, v6.bundle.safety,
            "same shipped SafetyCert"
        );
        let (fresh5, fresh6) = (
            v5.safety.as_ref().expect("re-derived"),
            v6.safety.as_ref().expect("re-derived"),
        );
        assert!(
            fresh5.matches(fresh6, 0.0),
            "{:?}",
            fresh5.diff(fresh6, 0.0)
        );

        let (e5, e6) = (
            Engine::start(&v5, EngineConfig::default()).expect("v5 serves"),
            Engine::start(&v6, EngineConfig::default()).expect("v6 serves"),
        );
        let (h5, h6) = (e5.handle(), e6.handle());
        for i in 0..32u32 {
            let s = [0.1 * f64::from(i % 8) - 0.4, 0.05 * f64::from(i / 8) - 0.1];
            let bits = |h: &crate::EngineHandle| -> Vec<u64> {
                let served = h.submit(&s).expect("served").control;
                served.iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&h5), bits(&h6), "state {s:?}");
        }
        e5.shutdown();
        e6.shutdown();
    }

    #[test]
    fn wrong_plant_is_unservable() {
        let mut b = healthy_bundle();
        b.system = SystemId::CartPole; // 4 state dims; the net reads 2
        let err = admit(b).expect_err("refused");
        assert!(matches!(err, AdmissionError::Unservable(_)), "{err}");
    }

    #[test]
    fn off_mode_still_verifies_the_certificate() {
        let mut b = healthy_bundle();
        b.lipschitz_claim *= 2.0;
        let cfg = AdmissionConfig {
            mode: PreflightMode::Off,
            ..AdmissionConfig::default()
        };
        let err = admit_with(b, &cfg, &NullSink).expect_err("refused");
        assert!(matches!(err, AdmissionError::ClaimMismatch { .. }), "{err}");
    }

    #[test]
    fn negative_scale_is_claimed_by_its_magnitude() {
        // a claim of 0 once matched `max(s)` for scale [-20]; the bound
        // takes `max |s|`, as the certificate does, so the claim is refused
        let mut b = healthy_bundle();
        let ControllerSpec::Mlp { scale, .. } = &mut b.spec;
        *scale = vec![-20.0];
        b.lipschitz_claim = 0.0;
        let cert = {
            let params = &b.safety.as_ref().expect("fixture ships a cert").params;
            let (net, scale) = b.network().expect("mlp bundle");
            certify_controller(
                b.system.dynamics().as_ref(),
                net,
                scale,
                params,
                1,
                &NullSink,
            )
            .expect("certifies under the fixture budgets")
            .cert
        };
        b.safety = Some(cert);
        let cfg = AdmissionConfig {
            mode: PreflightMode::Off,
            ..AdmissionConfig::default()
        };
        let err = admit_with(b, &cfg, &NullSink).expect_err("refused");
        assert!(
            matches!(err, AdmissionError::ClaimMismatch { recomputed, .. } if recomputed > 0.0),
            "{err}"
        );
    }

    #[test]
    fn tampered_safety_cert_is_a_mismatch() {
        let mut b = healthy_bundle();
        let cert = b.safety.as_mut().expect("fixture ships a cert");
        cert.invariant_digest ^= 1; // single-bit tamper
        let tel = InMemorySink::new();
        let err = admit_with(b, &AdmissionConfig::default(), &tel).expect_err("refused");
        assert!(
            matches!(&err, AdmissionError::SafetyMismatch { detail }
                if detail.contains("invariant_digest")),
            "{err}"
        );
        assert_eq!(tel.counter_total("serve.admission_refusals"), 1);
    }

    #[test]
    fn a_failed_sweep_is_refused_before_a_tampered_safety_cert() {
        // the certificate re-derives beside the sweep, but the refusal is
        // the sweep's, and the held-back certification events never reach
        // the stream
        let mut b = healthy_bundle();
        let config = AdmissionConfig {
            claim_tolerance: b.lipschitz_claim,
            ..AdmissionConfig::default()
        };
        // within the recomputation's (absolute, below 1) tolerance, far
        // below any slope the sweep observes
        b.lipschitz_claim = 1e-3;
        b.safety
            .as_mut()
            .expect("fixture ships a cert")
            .invariant_digest ^= 1;
        for workers in [1, 2] {
            let tel = InMemorySink::new();
            let err = admit_with_workers(b.clone(), &config, workers, &tel).expect_err("refused");
            assert!(
                matches!(err, AdmissionError::ClaimViolated { .. }),
                "workers = {workers}: {err}"
            );
            assert!(tel.events().iter().all(|e| !e.name.starts_with("verify")));
        }
    }

    /// An [`InMemorySink`] that counts events recorded from any thread
    /// other than the one that built it.
    struct CallerOnlySink {
        events: InMemorySink,
        caller: std::thread::ThreadId,
        foreign: std::sync::atomic::AtomicUsize,
    }

    impl Telemetry for CallerOnlySink {
        fn record(&self, event: Event) {
            if std::thread::current().id() != self.caller {
                self.foreign
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            self.events.record(event);
        }
    }

    #[test]
    fn admission_telemetry_is_thread_confined_and_worker_count_invariant() {
        let stream = |workers: usize| {
            let tel = CallerOnlySink {
                events: InMemorySink::new(),
                caller: std::thread::current().id(),
                foreign: Default::default(),
            };
            admit_with_workers(healthy_bundle(), &AdmissionConfig::default(), workers, &tel)
                .expect("healthy bundle admitted");
            assert_eq!(tel.foreign.into_inner(), 0, "workers = {workers}");
            // durations and the verdict's `verify_ms` are wall-clock
            let events: Vec<Event> = tel
                .events
                .take()
                .into_iter()
                .map(|e| {
                    let mut e = e.without_duration();
                    e.fields.retain(|(key, _)| key != "verify_ms");
                    e
                })
                .collect();
            events
        };
        let reference = stream(1);
        for name in [
            "verify/bernstein",
            "verify/invariant/fixpoint",
            "verify/reach",
        ] {
            assert!(
                reference.iter().any(|e| e.name == name),
                "stream must record {name}"
            );
        }
        for workers in [2, 8] {
            assert_eq!(stream(workers), reference, "workers = {workers}");
        }
    }

    #[test]
    fn forged_safe_verdict_is_a_violation() {
        let mut b = healthy_bundle();
        let cert = b.safety.as_mut().expect("fixture ships a cert");
        // the coarse fixture budgets genuinely prove NotProven; forging the
        // verdict to Safe is the one tamper that would put an unproven
        // controller on the wire claiming a formal guarantee
        assert_eq!(
            cert.verdict,
            SafetyVerdict::NotProven,
            "fixture premise: coarse budgets do not prove safety"
        );
        cert.verdict = SafetyVerdict::Safe;
        let err = admit(b).expect_err("refused");
        assert!(
            matches!(err, AdmissionError::SafetyViolated { .. }),
            "{err}"
        );
    }

    #[test]
    fn hostile_safety_budgets_are_refused_before_any_work() {
        let mut b = healthy_bundle();
        let cert = b.safety.as_mut().expect("fixture ships a cert");
        cert.params.invariant.max_iterations = usize::MAX;
        let err = admit(b).expect_err("refused");
        assert!(
            matches!(&err, AdmissionError::SafetyMismatch { detail }
                if detail.contains("ceiling")),
            "{err}"
        );
    }

    #[test]
    fn stripped_safety_cert_is_uncertified_unless_allowed() {
        let mut b = healthy_bundle();
        b.safety = None;
        let err = admit(b.clone()).expect_err("refused by default");
        assert!(
            matches!(&err, AdmissionError::Uncertified { reason }
                if reason.contains("omits")),
            "{err}"
        );

        let cfg = AdmissionConfig {
            allow_uncertified: true,
            ..AdmissionConfig::default()
        };
        let expected = b.uncertified_reason();
        let admitted = admit_with(b, &cfg, &NullSink).expect("admitted under opt-in");
        assert_eq!(admitted.safety, None);
        assert_eq!(
            admitted.uncertified_reason,
            Some(expected),
            "the bundle's own reason"
        );
    }

    #[test]
    fn v4_files_without_a_margin_key_rederive_under_the_first_order_margin() {
        // the fixture certifies under `fast_params`, the first-order
        // margin, so it is a v4 certificate once the key is gone
        let b = healthy_bundle();
        let path = std::env::temp_dir().join(format!(
            "cocktail-serve-admission-v4-{}.json",
            std::process::id()
        ));
        b.save(&path).expect("save succeeds");
        let text = std::fs::read_to_string(&path).expect("readable");
        let key = text.find("\"margin\"").expect("v5 files name the margin");
        let comma = text[..key].rfind(',').expect("margin is not the first key");
        let end = key + text[key..].find('\n').expect("pretty-printed");
        let v4 = format!("{}{}", &text[..comma], &text[end..]).replacen(
            &format!("\"version\": {BUNDLE_VERSION}"),
            "\"version\": 4",
            1,
        );
        assert!(!v4.contains("\"margin\""), "key must be gone");
        std::fs::write(&path, v4).expect("writable");

        let back = ControllerBundle::load(&path).expect("v4 file loads");
        std::fs::remove_file(&path).ok();
        assert_eq!(back.version, 4);
        let shipped = back.safety.clone().expect("v4 files carry certificates");
        assert_eq!(shipped.params.certificate.margin, ErrorMargin::Lipschitz);
        assert_eq!(Some(&shipped), b.safety.as_ref(), "nothing else moved");
        let admitted = admit(back).expect("a v4 bundle admits");
        let mut fresh = admitted.safety.expect("re-derived");
        fresh.verify_ms = shipped.verify_ms;
        assert_eq!(fresh, shipped, "bit for bit, modulo wall-clock");
    }

    #[test]
    fn a_flipped_error_margin_is_a_mismatch() {
        // the certificate re-derives under the shipped parameters, margin
        // included, so a flipped margin re-derives a different refinement
        let mut b = healthy_bundle();
        let cert = b.safety.as_mut().expect("fixture ships a cert");
        assert_eq!(cert.params.certificate.margin, ErrorMargin::Lipschitz);
        cert.params.certificate.margin = ErrorMargin::Residual;
        let err = admit(b).expect_err("refused");
        assert!(
            matches!(&err, AdmissionError::SafetyMismatch { detail }
                if detail.contains("pieces")),
            "{err}"
        );
    }

    #[test]
    fn v2_bundles_are_uncertified_with_a_version_reason() {
        let b = v2_bundle();
        let tel = InMemorySink::new();
        let err = admit_with(b.clone(), &AdmissionConfig::default(), &tel).expect_err("refused");
        assert!(
            matches!(&err, AdmissionError::Uncertified { reason }
                if reason.contains("v2") && reason.contains("predates")),
            "{err}"
        );
        assert_eq!(tel.counter_total("serve.admission_refusals"), 1);

        let cfg = AdmissionConfig {
            allow_uncertified: true,
            ..AdmissionConfig::default()
        };
        let expected = b.uncertified_reason();
        let admitted = admit_with(b, &cfg, &NullSink).expect("admitted under opt-in");
        assert_eq!(
            admitted.uncertified_reason,
            Some(expected),
            "the bundle's own reason"
        );
    }
}
