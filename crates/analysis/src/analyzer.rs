//! The analyzer driver: pass configuration, ordering and gating.

use crate::report::{AnalysisReport, Diagnostic};
use crate::spec::ControllerSpec;
use crate::{composition, hygiene, lipschitz_cert, range};
use cocktail_env::Dynamics;
use cocktail_verify::{default_params, CertificateConfig};
use std::sync::Arc;

/// Tuning knobs of the analyzer.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Distillation Lipschitz target `L`; `None` disables the budget
    /// comparison (the bound itself is still reported).
    pub lipschitz_target: Option<f64>,
    /// Verification-side parameters (degree, tolerance, piece budget,
    /// error-sample grid, error margin) used to predict the Bernstein
    /// certification cost. [`AnalysisConfig::for_plant`] sets the budget a
    /// controller is actually certified under.
    pub certificate: CertificateConfig,
    /// Per-layer spectral-norm limit above which a layer counts as
    /// exploding.
    pub spectral_norm_limit: f64,
    /// Pre-activation magnitude beyond which a tanh unit counts as
    /// saturated (sigmoid uses twice this).
    pub saturation_margin: f64,
    /// Absolute slack when comparing certified output ranges against
    /// actuator limits (absorbs rounding in the interval arithmetic).
    pub range_tolerance: f64,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        Self {
            lipschitz_target: None,
            certificate: CertificateConfig::default(),
            spectral_norm_limit: 1e3,
            saturation_margin: 4.0,
            range_tolerance: 1e-9,
        }
    }
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
/// 1. **composition** — structural validation; shapes must be consistent
///    before any value-level pass may index into them.
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

        hygiene::check(spec, &self.config, &mut report);
        if report.has_errors() {
            report.push(skipped(
                "non-finite values above make interval arithmetic unsound",
            ));
            return report;
        }

        range::check(spec, self.sys.as_ref(), &self.config, &mut report);
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
