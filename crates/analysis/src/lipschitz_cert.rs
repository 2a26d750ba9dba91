//! Lipschitz certification pass.
//!
//! Computes the product-of-spectral-norms Lipschitz bound of the
//! controller (the bound the paper's robust-distillation loss controls
//! and its Bernstein verification consumes), compares it against an
//! optional distillation target, and predicts what the bound costs at
//! verification time: the Bernstein remainder `ε = 1.5·L·Σwᵢ/√d` of
//! `cocktail-verify` and the number of domain partitions needed to push
//! the verifier's per-piece error bound under the certificate tolerance.
//!
//! The verifier accepts a piece once the smaller of that remainder and
//! its sampled bound meets the tolerance. The sampled bound is never below
//! `L·r`, the Lipschitz margin over the covering radius `r` of the
//! error-sample grid, so the piece bound starts at no less than
//! `ε₀ = min(ε, L·r)` on the unpartitioned domain. Both terms are linear
//! in the widths: splitting every axis `k` times divides `ε₀` by `2^k`
//! while multiplying the piece count by `2^{kn}`, so reaching a tolerance
//! `τ < ε₀` takes about `(ε₀/τ)^n` pieces.

use crate::analyzer::AnalysisConfig;
use crate::report::{AnalysisReport, Diagnostic};
use crate::spec::ControllerSpec;
use cocktail_env::Dynamics;
use cocktail_nn::lipschitz::{self, NormKind};
use cocktail_verify::bernstein::{rigorous_error_bound, sample_margin};

pub(crate) const PASS: &str = "lipschitz";

/// Runs the pass.
///
/// Assumes the composition and hygiene passes ran clean.
pub fn check(
    spec: &ControllerSpec,
    sys: &dyn Dynamics,
    config: &AnalysisConfig,
    report: &mut AnalysisReport,
) {
    let Some(l) = certified_bound(spec) else {
        report.push(Diagnostic::info(
            PASS,
            "no-certified-bound",
            format!(
                "no product-form Lipschitz bound for a {} controller (state-dependent \
                 weights / hard switching are not globally Lipschitz-certifiable); \
                 Bernstein cost prediction skipped",
                spec.kind()
            ),
        ));
        return;
    };

    report.push(Diagnostic::info(
        PASS,
        "lipschitz-bound",
        format!("certified Lipschitz bound L <= {l:.4} (spectral-norm product)"),
    ));

    if let Some(target) = config.lipschitz_target {
        if l > target {
            report.push(Diagnostic::warn(
                PASS,
                "lipschitz-budget",
                format!(
                    "certified bound {l:.4} exceeds the distillation target L = {target} — \
                     the robust-distillation regularizer did not bind, or the model was \
                     trained without it"
                ),
            ));
        } else {
            report.push(Diagnostic::info(
                PASS,
                "lipschitz-budget",
                format!("certified bound {l:.4} is within the distillation target L = {target}"),
            ));
        }
    }

    let domain = sys.verification_domain();
    let cert = &config.certificate;
    let epsilon = rigorous_error_bound(l, &domain, cert.degree);
    report.push(Diagnostic::info(
        PASS,
        "bernstein-error",
        format!(
            "Bernstein remainder over the unpartitioned domain: eps = {epsilon:.4} at \
             degree {}",
            cert.degree
        ),
    ));

    let margin = sample_margin(l, &domain, cert.error_samples_per_dim);
    let pieces = predicted_pieces(epsilon.min(margin), cert.tolerance, domain.dim());
    if pieces > cert.max_pieces as f64 {
        report.push(Diagnostic::warn(
            PASS,
            "verification-budget",
            format!(
                "reaching tolerance {} needs an estimated {pieces:.0} domain partitions, \
                 beyond the certificate budget of {} pieces — verification will likely \
                 be inconclusive at this Lipschitz bound",
                cert.tolerance, cert.max_pieces
            ),
        ));
    } else {
        report.push(Diagnostic::info(
            PASS,
            "verification-cost",
            format!(
                "estimated {pieces:.0} domain partition(s) to reach tolerance {} \
                 (sampled-bound margin {margin:.4} at {} error samples per dimension), \
                 within the certificate budget of {} pieces",
                cert.tolerance,
                cert.error_samples_per_dim.max(2),
                cert.max_pieces
            ),
        ));
    }
}

/// Product-form Lipschitz upper bound of a spec, when one exists.
///
/// `Mlp`: `max(scale) · Π σ(Wᵢ)·lip(actᵢ)` — the same bound
/// `NnController::lipschitz_constant` certifies. `Linear`: `σ(K)`.
/// Mixed and switching controllers get `None`: their weight policies vary
/// with the state, so no product bound applies.
pub fn certified_bound(spec: &ControllerSpec) -> Option<f64> {
    match spec {
        ControllerSpec::Mlp { net, scale } => {
            let max_scale = scale.iter().copied().fold(0.0f64, f64::max);
            Some(max_scale * lipschitz::upper_bound(net, NormKind::Spectral))
        }
        ControllerSpec::Linear { gain, .. } => Some(gain.spectral_norm()),
        ControllerSpec::Mixed { .. } | ControllerSpec::Switching { .. } => None,
    }
}

/// Minimum partition count to reach tolerance `tau` from an initial
/// remainder `epsilon` over an `n`-dimensional domain.
fn predicted_pieces(epsilon: f64, tau: f64, n: usize) -> f64 {
    if epsilon <= tau {
        return 1.0;
    }
    (epsilon / tau)
        .powi(i32::try_from(n).unwrap_or(i32::MAX))
        .ceil()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Severity;
    use cocktail_env::systems::VanDerPol;
    use cocktail_math::Matrix;
    use cocktail_verify::{default_params, CertificateConfig};

    #[test]
    fn linear_bound_is_gain_spectral_norm() {
        let spec = ControllerSpec::Linear {
            gain: Matrix::from_rows(vec![vec![3.0, 4.0]]),
            bias: vec![],
        };
        let l = certified_bound(&spec).expect("linear is certifiable");
        assert!((l - 5.0).abs() < 1e-9);
    }

    #[test]
    fn mixed_has_no_certified_bound() {
        let spec = ControllerSpec::Mixed {
            experts: vec![ControllerSpec::Linear {
                gain: Matrix::from_rows(vec![vec![1.0]]),
                bias: vec![],
            }],
            weights: crate::spec::WeightSpec::Constant { weights: vec![1.0] },
            u_inf: vec![-1.0],
            u_sup: vec![1.0],
        };
        assert!(certified_bound(&spec).is_none());
    }

    fn oscillator_student(seed: u64) -> cocktail_nn::Mlp {
        cocktail_nn::MlpBuilder::new(2)
            .hidden(16, cocktail_nn::Activation::Tanh)
            .hidden(16, cocktail_nn::Activation::Tanh)
            .output(1, cocktail_nn::Activation::Tanh)
            .seed(seed)
            .build()
    }

    fn analyze(spec: &ControllerSpec, config: &AnalysisConfig) -> AnalysisReport {
        let mut report = AnalysisReport::new();
        check(spec, &VanDerPol::new(), config, &mut report);
        report
    }

    fn diagnostic<'a>(report: &'a AnalysisReport, code: &str) -> Option<&'a Diagnostic> {
        report.diagnostics().iter().find(|d| d.code == code)
    }

    #[test]
    fn shipped_budget_makes_a_kappa_star_bound_a_cost_note() {
        // a bound like the benchmark's κ* (L ≈ 18.7 at scale 20), which
        // certifies in 2,923 pieces under the oscillator's export budget
        let mut net = oscillator_student(0);
        let target = 18.7 / 20.0;
        let per_layer = (target / lipschitz::upper_bound(&net, NormKind::Spectral))
            .powf(1.0 / net.layers().len() as f64);
        for layer in net.layers_mut() {
            layer.weights_mut().scale_inplace(per_layer);
        }
        let spec = ControllerSpec::Mlp {
            net,
            scale: vec![20.0],
        };
        let l = certified_bound(&spec).expect("mlp");
        assert!((l - 18.7).abs() < 0.1, "L = {l}");
        let sys = VanDerPol::new();

        let report = analyze(&spec, &AnalysisConfig::for_plant(&sys, None));
        assert!(
            diagnostic(&report, "verification-budget").is_none(),
            "{report}"
        );
        let cost = diagnostic(&report, "verification-cost").expect("cost note");
        assert_eq!(cost.severity, Severity::Info, "{report}");

        // a shipped budget wins over the plant's export budget
        let tight = CertificateConfig {
            max_pieces: 16,
            ..default_params(&sys).certificate
        };
        let report = analyze(&spec, &AnalysisConfig::for_plant(&sys, Some(&tight)));
        let budget = diagnostic(&report, "verification-budget").expect("over budget");
        assert_eq!(budget.severity, Severity::Warn, "{report}");
    }

    #[test]
    fn prediction_does_not_exceed_what_refinement_needs() {
        // the prediction is the uniform-bisection count of the floor under
        // the verifier's per-piece bound, so a real certificate needs at
        // least that many pieces
        let sys = VanDerPol::new();
        let config = AnalysisConfig::for_plant(&sys, None);
        for seed in [1u64, 2, 3] {
            let mut net = oscillator_student(seed);
            for layer in net.layers_mut() {
                layer.weights_mut().scale_inplace(0.6);
            }
            let l = 20.0 * lipschitz::upper_bound(&net, NormKind::Spectral);
            let domain = sys.verification_domain();
            let cert = &config.certificate;
            let floor = rigorous_error_bound(l, &domain, cert.degree).min(sample_margin(
                l,
                &domain,
                cert.error_samples_per_dim,
            ));
            let predicted = predicted_pieces(floor, cert.tolerance, domain.dim());
            let built = cocktail_verify::BernsteinCertificate::build(&net, &[20.0], &domain, cert)
                .expect("fits the export budget");
            assert!(
                predicted <= built.piece_count() as f64,
                "seed {seed}: predicted {predicted}, built {}",
                built.piece_count()
            );
        }
    }

    #[test]
    fn piece_prediction_inverts_bisection_geometry() {
        // already within tolerance: one piece
        assert_eq!(predicted_pieces(0.4, 0.5, 3), 1.0);
        // one halving of every axis of a 2-D domain: 4 pieces
        assert_eq!(predicted_pieces(1.0, 0.5, 2), 4.0);
        assert_eq!(predicted_pieces(2.0, 0.5, 2), 16.0);
    }
}
