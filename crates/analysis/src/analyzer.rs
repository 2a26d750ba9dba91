//! The analyzer driver: pass configuration, ordering and gating.

use crate::report::{AnalysisReport, Diagnostic};
use crate::spec::ControllerSpec;
use crate::{composition, hygiene, lipschitz_cert, range};
use cocktail_env::Dynamics;
use cocktail_verify::{default_params, CertificateConfig};
use std::sync::Arc;

/// Tuning knobs of the analyzer.
#[derive(Debug, Clone, Default)]
pub struct AnalysisConfig {
    /// Distillation Lipschitz target `L`; `None` disables the budget
    /// comparison (the bound itself is still reported).
    pub lipschitz_target: Option<f64>,
    /// Verification-side parameters (degree, tolerance, piece budget,
    /// error-sample grid, error margin) used to predict the Bernstein
    /// certification cost. [`AnalysisConfig::for_plant`] sets the budget a
    /// controller is actually certified under.
    pub certificate: CertificateConfig,
}

impl AnalysisConfig {
    /// The defaults, with certification cost predicted against the budget
    /// a controller for `sys` is certified under: `certificate` when one is
    /// given (a bundle's shipped budget), else the plant's export budget
    /// from [`default_params`].
    pub fn for_plant(sys: &dyn Dynamics, certificate: Option<&CertificateConfig>) -> Self {
        Self {
            certificate: certificate
                .cloned()
                .unwrap_or_else(|| default_params(sys).certificate),
            ..Self::default()
        }
    }
}

/// How the pipeline reacts to pre-flight analysis findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PreflightMode {
    /// Skip the analysis entirely.
    Off,
    /// Run it and print findings to stderr; never abort.
    #[default]
    Warn,
    /// Run it and panic on error-level findings.
    Deny,
}

/// Static analyzer for controller specs against one plant.
///
/// Runs four passes in dependency order:
///
/// 1. **composition** — the output scale's arity and sign, and the spec's
///    dimensions against the plant; they must fit before any value-level
///    pass may propagate the plant's domain through the network.
/// 2. **hygiene** — value-level weight checks; everything must be finite
///    before interval arithmetic is sound (`Interval::new` rejects NaN).
/// 3. **range** — interval propagation of the verification domain.
/// 4. **lipschitz** — Lipschitz bound, budget comparison, Bernstein cost.
///
/// A pass that finds errors stops the chain; the report says so
/// explicitly, so a partial report is never mistaken for a full one.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use cocktail_analysis::{Analyzer, ControllerSpec};
/// use cocktail_env::systems::VanDerPol;
/// use cocktail_nn::{Activation, MlpBuilder};
///
/// let net = MlpBuilder::new(2).hidden(8, Activation::Tanh)
///     .output(1, Activation::Tanh).seed(1).build();
/// let spec = ControllerSpec::Mlp { net, scale: vec![20.0] };
/// let report = Analyzer::new(Arc::new(VanDerPol::new())).analyze(&spec);
/// assert!(!report.has_errors(), "{report}");
/// ```
pub struct Analyzer {
    sys: Arc<dyn Dynamics>,
    config: AnalysisConfig,
}

impl Analyzer {
    /// Analyzer with the default configuration.
    pub fn new(sys: Arc<dyn Dynamics>) -> Self {
        Self::with_config(sys, AnalysisConfig::default())
    }

    /// Analyzer with an explicit configuration.
    pub fn with_config(sys: Arc<dyn Dynamics>, config: AnalysisConfig) -> Self {
        Self { sys, config }
    }

    /// The active configuration.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// Runs all passes over `spec` and returns the combined report.
    pub fn analyze(&self, spec: &ControllerSpec) -> AnalysisReport {
        let mut report = AnalysisReport::new();

        composition::check(spec, self.sys.as_ref(), &mut report);
        if report.has_errors() {
            report.push(skipped(
                "structural errors above make value-level passes unsound",
            ));
            return report;
        }

        hygiene::check(spec, &mut report);
        if report.has_errors() {
            report.push(skipped(
                "non-finite values above make interval arithmetic unsound",
            ));
            return report;
        }

        range::check(spec, self.sys.as_ref(), &mut report);
        lipschitz_cert::check(spec, self.sys.as_ref(), &self.config, &mut report);
        report
    }
}

fn skipped(why: &str) -> Diagnostic {
    Diagnostic::info(
        "analyzer",
        "passes-skipped",
        format!("remaining passes skipped: {why}"),
    )
}
