//! The servable artifact: a versioned, self-describing controller bundle.
//!
//! A [`ControllerBundle`] is the only thing the serving runtime accepts: it
//! packages the student network as a [`ControllerSpec`] together with the
//! operating envelope the pipeline certified it for (input box, actuator
//! clip range), the measured Lipschitz certificate, the analysis findings
//! at export time, and provenance (seed, config hash, crate version).
//!
//! The format is **strict JSON**: a bundle containing any non-finite
//! number is refused at save time (where the offending field can still be
//! named) and again at load time (a tampered file must not smuggle a bare
//! `NaN` literal past the vendored parser, which accepts them). Writes use
//! the same atomic fsync'd temp-file-then-rename protocol as the pipeline
//! checkpoints, so a crash mid-export never leaves a torn bundle.

use cocktail_analysis::{AnalysisConfig, AnalysisReport, Analyzer, ControllerSpec};
use cocktail_core::SystemId;
use cocktail_math::BoxRegion;
use cocktail_nn::{lipschitz, Mlp};
use cocktail_obs::{NullSink, Telemetry};
use cocktail_verify::{certify_controller, default_params, ErrorMargin, SafetyCert, SafetyParams};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::{Path, PathBuf};

/// Format version of [`ControllerBundle`]; bump on any shape change.
///
/// Version history: 1 — initial format; 2 — adds the optional `fast_tier`
/// quantization/approximation error certificate; 3 — adds the optional
/// `safety` formal safety certificate (Bernstein + reachability +
/// invariant set); 4 — `fast_tier` drops the retired `f32` tier's
/// epsilon and output-error keys; 5 — the safety certificate's Bernstein
/// parameters name their error margin (`margin`, first-order `Lipschitz`
/// or second-order `Residual`); 6 — drops `fast_tier`: the engine serves
/// only the exact network the safety certificate proves. Version-2 to -5
/// bundles still load and validate (fields are looked up by name, so the
/// `fast_tier` key of a v2–v5 file is ignored, and a certificate without a
/// `margin` key was derived under, and re-derives under, the first-order
/// margin), but the admission gate refuses version-2 bundles by default as
/// uncertified (see `AdmissionConfig::allow_uncertified`).
pub const BUNDLE_VERSION: u32 = 6;

/// Oldest bundle format [`ControllerBundle::validate`] still accepts.
pub const OLDEST_READABLE_VERSION: u32 = 2;

/// Why a bundle could not be packaged, saved, or loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BundleError {
    /// Filesystem failure; `path` is the bundle path, `detail` the cause.
    Io {
        /// The bundle path involved.
        path: PathBuf,
        /// Human-readable cause.
        detail: String,
    },
    /// The file parsed but is not a valid bundle (wrong version, wrong
    /// shape, inconsistent dimensions).
    Format(String),
    /// A numeric field holds NaN or an infinity.
    NonFinite(String),
}

impl fmt::Display for BundleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BundleError::Io { path, detail } => {
                write!(f, "bundle I/O at {}: {detail}", path.display())
            }
            BundleError::Format(msg) => write!(f, "malformed bundle: {msg}"),
            BundleError::NonFinite(msg) => write!(f, "non-finite bundle field: {msg}"),
        }
    }
}

impl std::error::Error for BundleError {}

/// Where a bundle came from: enough to reproduce or at least identify the
/// training run that produced it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Provenance {
    /// Pipeline seed of the producing run.
    pub seed: u64,
    /// FNV-1a hash of the producing configuration (see [`fnv1a_64`]).
    pub config_hash: u64,
    /// `CARGO_PKG_VERSION` of the exporting crate.
    pub crate_version: String,
}

/// One analysis finding, in owned serializable form (the analyzer's
/// [`cocktail_analysis::Diagnostic`] uses `&'static str` codes and cannot
/// derive `Deserialize`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BundleFinding {
    /// `"error"`, `"warning"` or `"info"`.
    pub severity: String,
    /// The pass that produced the finding, e.g. `hygiene`.
    pub pass: String,
    /// Stable kebab-case identifier, e.g. `nonfinite-weight`.
    pub code: String,
    /// Human-readable explanation.
    pub message: String,
}

/// Converts a full analyzer report into owned findings.
pub fn findings_of(report: &AnalysisReport) -> Vec<BundleFinding> {
    report
        .diagnostics()
        .iter()
        .map(|d| BundleFinding {
            severity: d.severity.to_string(),
            pass: d.pass.to_string(),
            code: d.code.to_string(),
            message: d.message.clone(),
        })
        .collect()
}

/// 64-bit FNV-1a hash, used to fingerprint the producing configuration.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A deployable controller artifact.
///
/// See the module docs for the format contract. Field order is part of
/// the (pretty-printed JSON) format. `Deserialize` is hand-written below:
/// version-2 files predate the `safety` field entirely, so a missing key
/// must read as `None` while every other field stays required.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ControllerBundle {
    /// Must equal [`BUNDLE_VERSION`].
    pub version: u32,
    /// The plant the controller was trained and certified for.
    pub system: SystemId,
    /// The controller itself, the network and output scale the engine
    /// serves.
    pub spec: ControllerSpec,
    /// The input box the Lipschitz claim was measured over (normally the
    /// plant's verification domain).
    pub input_domain: BoxRegion,
    /// Lower actuator limits `U_inf`, one per control dimension.
    pub u_inf: Vec<f64>,
    /// Upper actuator limits `U_sup`, one per control dimension.
    pub u_sup: Vec<f64>,
    /// The certified Lipschitz bound measured at export
    /// ([`lipschitz::scaled_upper_bound`]); admission re-derives it and
    /// refuses on mismatch.
    pub lipschitz_claim: f64,
    /// Analyzer findings at export time (informational; admission re-runs
    /// the analyzer rather than trusting these).
    pub analysis: Vec<BundleFinding>,
    /// The formal safety certificate: Bernstein enclosure, closed-loop
    /// reachability and control-invariant set, derived at export from the
    /// shipped weights, the plant spec and the embedded parameters.
    /// Admission re-derives it bit-for-bit and refuses on any disagreement;
    /// a bundle without one (version-2 formats, or a student whose
    /// certification exhausted its budget — the paper's `κ_D` failure
    /// mode) is refused as *uncertified* unless explicitly allowed.
    /// Absent (`None`) when deserializing version-2 files.
    pub safety: Option<SafetyCert>,
    /// Who made this bundle.
    pub provenance: Provenance,
}

impl Deserialize for ControllerBundle {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let serde::Value::Map(fields) = v else {
            return Err(serde::DeError::custom(format!(
                "expected map for `ControllerBundle`, got {}",
                v.kind()
            )));
        };
        fn req<T: Deserialize>(
            fields: &[(String, serde::Value)],
            name: &str,
        ) -> Result<T, serde::DeError> {
            T::from_value(
                serde::__field(fields, name)
                    .map_err(|e| serde::DeError::custom(format!("in `ControllerBundle`: {e}")))?,
            )
        }
        // another format may have another shape, so refuse it by its
        // version before any other field is looked up
        let version = req(fields, "version")?;
        if let Some(unsupported) = unsupported_version(version) {
            return Err(serde::DeError::custom(unsupported));
        }
        // `safety` arrived with format version 3; in older files the key is
        // simply absent, which must read as "no certificate", not an error.
        let safety = match fields.iter().find(|(k, _)| k == "safety") {
            Some((_, v)) => Option::<SafetyCert>::from_value(v)?,
            None => None,
        };
        Ok(ControllerBundle {
            version,
            system: req(fields, "system")?,
            spec: req(fields, "spec")?,
            input_domain: req(fields, "input_domain")?,
            u_inf: req(fields, "u_inf")?,
            u_sup: req(fields, "u_sup")?,
            lipschitz_claim: req(fields, "lipschitz_claim")?,
            analysis: req(fields, "analysis")?,
            safety,
            provenance: req(fields, "provenance")?,
        })
    }
}

impl ControllerBundle {
    /// Packages a trained student `u = scale ⊙ net(s)` for `system` with
    /// the canonical verification budgets ([`default_params`]) and no
    /// telemetry. See [`Self::package_with`].
    ///
    /// # Errors
    ///
    /// Returns [`BundleError::Format`] when the student fails the export
    /// gate, [`BundleError::NonFinite`] when any parameter or bound is
    /// non-finite.
    pub fn package(
        system: SystemId,
        net: Mlp,
        scale: Vec<f64>,
        provenance: Provenance,
    ) -> Result<Self, BundleError> {
        Self::package_with(system, net, scale, provenance, None, &NullSink)
    }

    /// Packages a trained student `u = scale ⊙ net(s)` for `system`.
    ///
    /// Runs the static analyzer and the Lipschitz certification once at
    /// export: a student the linter rejects at error level is refused
    /// here — shipping an artifact that admission is guaranteed to bounce
    /// helps nobody. Then runs the full formal safety loop (Bernstein
    /// certificate, closed-loop reachability, control-invariant set) under
    /// `safety_params` (the plant's [`default_params`] when `None`) and
    /// embeds the resulting [`SafetyCert`]. A student whose certification
    /// exhausts its budget — the paper's `κ_D` failure mode — still
    /// packages, but without a certificate: admission will refuse it as
    /// uncertified unless the operator explicitly allows uncertified
    /// bundles.
    ///
    /// # Errors
    ///
    /// Returns [`BundleError::Format`] when the student fails the export
    /// gate, [`BundleError::NonFinite`] when any parameter or bound is
    /// non-finite.
    pub fn package_with(
        system: SystemId,
        net: Mlp,
        scale: Vec<f64>,
        provenance: Provenance,
        safety_params: Option<&SafetyParams>,
        tel: &dyn Telemetry,
    ) -> Result<Self, BundleError> {
        let sys = system.dynamics();
        let spec = ControllerSpec::from_network(net, scale);
        let lint = AnalysisConfig::for_plant(sys.as_ref(), safety_params.map(|p| &p.certificate));
        let report = Analyzer::with_config(sys.clone(), lint).analyze(&spec);
        if report.has_errors() {
            return Err(BundleError::Format(format!(
                "student fails the export lint gate ({}):\n{}",
                report.summary(),
                report.render()
            )));
        }
        let ControllerSpec::Mlp { net, scale } = &spec;
        let claim = lipschitz::scaled_upper_bound(net, scale);
        let (u_inf, u_sup) = sys.control_bounds();
        let input_domain = sys.verification_domain();
        let defaults;
        let params = match safety_params {
            Some(p) => p,
            None => {
                defaults = default_params(sys.as_ref());
                &defaults
            }
        };
        // a budget blow-up is not an export error: the bundle ships
        // uncertified and the admission gate decides its fate
        let safety = certify_controller(
            sys.as_ref(),
            net,
            scale,
            params,
            cocktail_math::parallel::default_workers(),
            tel,
        )
        .ok()
        .map(|run| run.cert);
        let bundle = Self {
            version: BUNDLE_VERSION,
            system,
            spec,
            input_domain,
            u_inf,
            u_sup,
            lipschitz_claim: claim,
            analysis: findings_of(&report),
            safety,
            provenance,
        };
        bundle.validate()?;
        Ok(bundle)
    }

    /// Structural and finiteness validation; load and save both call this
    /// so the strict-JSON contract holds in both directions.
    ///
    /// # Errors
    ///
    /// Returns [`BundleError::Format`] on shape problems and negative
    /// bounds, and [`BundleError::NonFinite`] on NaN / infinity anywhere.
    pub fn validate(&self) -> Result<(), BundleError> {
        if let Some(unsupported) = unsupported_version(self.version) {
            return Err(BundleError::Format(unsupported));
        }
        if self.predates_safety_certs() && self.safety.is_some() {
            return Err(BundleError::Format(format!(
                "version {} predates safety certificates yet carries one",
                self.version
            )));
        }
        if let Some(cert) = &self.safety {
            let margin = cert.params.certificate.margin;
            if self.version < 5 && margin != ErrorMargin::Lipschitz {
                return Err(BundleError::Format(format!(
                    "version {} predates error margins yet names the {} margin",
                    self.version,
                    margin.label()
                )));
            }
        }
        let state_dim = self.spec.state_dim();
        let control_dim = self.spec.control_dim();
        if self.input_domain.dim() != state_dim {
            return Err(BundleError::Format(format!(
                "input domain dimension {} != controller state dimension {state_dim}",
                self.input_domain.dim()
            )));
        }
        if self.u_inf.len() != control_dim || self.u_sup.len() != control_dim {
            return Err(BundleError::Format(format!(
                "clip range arity ({}, {}) != control dimension {control_dim}",
                self.u_inf.len(),
                self.u_sup.len()
            )));
        }
        for (i, (lo, hi)) in self.u_inf.iter().zip(&self.u_sup).enumerate() {
            if !(lo.is_finite() && hi.is_finite()) {
                return Err(BundleError::NonFinite(format!("clip range component {i}")));
            }
            if lo > hi {
                return Err(BundleError::Format(format!(
                    "clip range component {i} inverted: [{lo}, {hi}]"
                )));
            }
        }
        for (i, iv) in self.input_domain.intervals().iter().enumerate() {
            if !(iv.lo().is_finite() && iv.hi().is_finite()) {
                return Err(BundleError::NonFinite(format!(
                    "input domain dimension {i}"
                )));
            }
        }
        non_negative("lipschitz claim", self.lipschitz_claim)?;
        if let Some(cert) = &self.safety {
            validate_safety_cert(cert, state_dim)?;
        }
        spec_params_finite(&self.spec)?;
        Ok(())
    }

    /// Whether the bundle's format version predates the `safety` field
    /// (format version 3).
    pub fn predates_safety_certs(&self) -> bool {
        self.version < 3
    }

    /// Why the bundle carries no safety certificate: the reason admission
    /// records (or refuses with) and `cocktail-serve verify` prints when
    /// `safety` is `None`.
    pub fn uncertified_reason(&self) -> String {
        if self.predates_safety_certs() {
            format!(
                "bundle format v{} predates safety certification",
                self.version
            )
        } else {
            "bundle omits a safety certificate (certification exhausted its budget at \
             export, or the certificate was stripped)"
                .to_string()
        }
    }

    /// The network and scale of the bundle's controller.
    ///
    /// # Errors
    ///
    /// None: every spec that loads is a network with its scale. The
    /// `Result` keeps the accessor's signature stable for its callers.
    pub fn network(&self) -> Result<(&Mlp, &[f64]), BundleError> {
        let ControllerSpec::Mlp { net, scale } = &self.spec;
        Ok((net, scale))
    }

    /// Atomically and durably writes the bundle as pretty-printed JSON.
    ///
    /// Same protocol as the pipeline checkpoints: write a temp file in the
    /// destination directory, fsync it, rename into place, fsync the
    /// directory (unix), so the file on disk is always either absent or a
    /// complete bundle.
    ///
    /// # Errors
    ///
    /// Returns [`BundleError::NonFinite`] / [`BundleError::Format`] when
    /// the bundle fails [`Self::validate`], [`BundleError::Io`] on any
    /// filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), BundleError> {
        use std::io::Write;

        self.validate()?;
        let failed = |detail: String| BundleError::Io {
            path: path.to_path_buf(),
            detail,
        };
        let dir = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => PathBuf::from("."),
        };
        std::fs::create_dir_all(&dir).map_err(|e| failed(format!("create dir: {e}")))?;
        let json =
            serde_json::to_string_pretty(self).map_err(|e| failed(format!("serialize: {e}")))?;
        let file_name = path
            .file_name()
            .ok_or_else(|| failed("path has no file name".into()))?
            .to_string_lossy()
            .into_owned();
        let tmp = dir.join(format!("{file_name}.tmp"));
        {
            let mut f = std::fs::File::create(&tmp)
                .map_err(|e| failed(format!("create temp file: {e}")))?;
            f.write_all(json.as_bytes())
                .map_err(|e| failed(format!("write temp file: {e}")))?;
            // data must be durable before the rename publishes the name
            f.sync_all()
                .map_err(|e| failed(format!("fsync temp file: {e}")))?;
        }
        std::fs::rename(&tmp, path).map_err(|e| failed(format!("rename into place: {e}")))?;
        #[cfg(unix)]
        {
            let d = std::fs::File::open(&dir).map_err(|e| failed(format!("open dir: {e}")))?;
            d.sync_all()
                .map_err(|e| failed(format!("fsync dir: {e}")))?;
        }
        Ok(())
    }

    /// Loads and validates a bundle.
    ///
    /// # Errors
    ///
    /// Returns [`BundleError::Io`] when the file cannot be read,
    /// [`BundleError::Format`] / [`BundleError::NonFinite`] when it is not
    /// a valid strict-JSON bundle.
    pub fn load(path: &Path) -> Result<Self, BundleError> {
        let text = std::fs::read_to_string(path).map_err(|e| BundleError::Io {
            path: path.to_path_buf(),
            detail: format!("read: {e}"),
        })?;
        let bundle: Self = serde_json::from_str(&text)
            .map_err(|e| BundleError::Format(format!("parse {}: {e}", path.display())))?;
        bundle.validate()?;
        Ok(bundle)
    }
}

/// Structural/finiteness checks of a shipped safety certificate. The
/// semantic half (does the claim re-derive?) belongs to the admission
/// gate; here we only refuse shapes that could never be valid, so the
/// strict-JSON contract extends to the new section.
fn validate_safety_cert(cert: &SafetyCert, state_dim: usize) -> Result<(), BundleError> {
    for (name, v) in [
        ("safety lipschitz", cert.lipschitz),
        ("safety epsilon", cert.epsilon),
        ("safety verify_ms", cert.verify_ms),
    ] {
        non_negative(name, v)?;
    }
    for (name, b) in [
        ("safety reach hull", &cert.reach_final_hull),
        ("safety initial set", &cert.params.initial_set),
    ] {
        if b.dim() != state_dim {
            return Err(BundleError::Format(format!(
                "{name} dimension {} != controller state dimension {state_dim}",
                b.dim()
            )));
        }
        for (i, iv) in b.intervals().iter().enumerate() {
            if !(iv.lo().is_finite() && iv.hi().is_finite()) {
                return Err(BundleError::NonFinite(format!("{name} dimension {i}")));
            }
        }
    }
    let c = &cert.params.certificate;
    if !(c.tolerance.is_finite() && c.tolerance > 0.0) {
        return Err(BundleError::Format(format!(
            "safety certificate tolerance {} is not a positive finite",
            c.tolerance
        )));
    }
    if !(cert.params.reach.split_width.is_finite() && cert.params.reach.split_width > 0.0) {
        return Err(BundleError::Format(format!(
            "safety reach split width {} is not a positive finite",
            cert.params.reach.split_width
        )));
    }
    if cert.invariant_alive > cert.invariant_cells {
        return Err(BundleError::Format(format!(
            "safety invariant set claims {} alive cells out of {}",
            cert.invariant_alive, cert.invariant_cells
        )));
    }
    Ok(())
}

/// Why a bundle of format `version` cannot be read, or `None` when it can.
fn unsupported_version(version: u32) -> Option<String> {
    (!(OLDEST_READABLE_VERSION..=BUNDLE_VERSION).contains(&version)).then(|| {
        format!(
            "bundle version {version} outside the supported range \
             {OLDEST_READABLE_VERSION}..={BUNDLE_VERSION}"
        )
    })
}

/// Refuses a bound that is NaN or infinite as [`BundleError::NonFinite`]
/// and a finite negative one as [`BundleError::Format`].
fn non_negative(name: &str, v: f64) -> Result<(), BundleError> {
    if !v.is_finite() {
        return Err(BundleError::NonFinite(format!("{name} {v}")));
    }
    if v < 0.0 {
        return Err(BundleError::Format(format!("{name} {v} is negative")));
    }
    Ok(())
}

/// Rejects non-finite parameters anywhere in a spec. The vendored JSON
/// parser accepts bare `NaN` / `Infinity` literals, so "the file parsed"
/// is not the same as "the file is strict JSON" — this is the strictness
/// half the parser does not give us.
fn spec_params_finite(spec: &ControllerSpec) -> Result<(), BundleError> {
    let ControllerSpec::Mlp { net, scale } = spec;
    for (i, layer) in net.layers().iter().enumerate() {
        let finite = layer.weights().as_slice().iter().all(|v| v.is_finite())
            && layer.biases().iter().all(|v| v.is_finite());
        if !finite {
            return Err(BundleError::NonFinite(format!("controller: layer {i}")));
        }
    }
    if !scale.iter().all(|v| v.is_finite()) {
        return Err(BundleError::NonFinite("controller: scale".into()));
    }
    Ok(())
}

/// Shared fixtures for the crate's unit tests.
#[cfg(test)]
pub(crate) mod tests_support {
    use super::{fnv1a_64, ControllerBundle, Provenance, BUNDLE_VERSION};
    use cocktail_core::SystemId;
    use cocktail_nn::{Activation, Mlp, MlpBuilder};
    use cocktail_obs::NullSink;
    use cocktail_verify::{fast_params, SafetyParams};
    use std::sync::OnceLock;

    /// A small healthy student for the oscillator plant.
    pub(crate) fn student() -> Mlp {
        MlpBuilder::new(2)
            .hidden(8, Activation::Tanh)
            .output(1, Activation::Tanh)
            .seed(11)
            .build()
    }

    /// Matching provenance stamp.
    pub(crate) fn provenance() -> Provenance {
        Provenance {
            seed: 7,
            config_hash: fnv1a_64(b"test-config"),
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
        }
    }

    /// The coarse verification budgets the test fixtures embed: admission
    /// re-derives with the *shipped* parameters, so cheap budgets keep the
    /// unit suite fast without weakening the re-derivation contract.
    pub(crate) fn test_safety_params() -> SafetyParams {
        fast_params(SystemId::Oscillator.dynamics().as_ref())
    }

    /// A packaged, admission-clean oscillator bundle (memoized: packaging
    /// runs the full certification loop once per test binary).
    #[allow(
        clippy::expect_used,
        reason = "test fixture; a packaging failure here is a test failure"
    )]
    pub(crate) fn healthy_bundle() -> ControllerBundle {
        static CELL: OnceLock<ControllerBundle> = OnceLock::new();
        CELL.get_or_init(|| {
            ControllerBundle::package_with(
                SystemId::Oscillator,
                student(),
                vec![20.0],
                provenance(),
                Some(&test_safety_params()),
                &NullSink,
            )
            .expect("healthy student packages")
        })
        .clone()
    }

    /// `bundle` as the pretty-printed JSON of a format-`version` file,
    /// carrying the `fast_tier` certificate formats 2 to 5 shipped (with
    /// the retired `f32` tier's keys when `f32_keys`, as v2 and v3 files
    /// have them). Loading ignores the key.
    #[allow(clippy::expect_used, reason = "test fixture")]
    pub(crate) fn legacy_json(bundle: &ControllerBundle, version: u32, f32_keys: bool) -> String {
        let text = serde_json::to_string_pretty(bundle).expect("bundle serializes");
        let f32_keys = if f32_keys {
            "\n    \"fast_tanh_f32_eps\": 0.0000045,\n    \"f32_output_error\": [\n      0.0007\n    ],"
        } else {
            ""
        };
        let fast_tier = format!(
            "  \"fast_tier\": {{\n    \"fast_tanh_eps\": 0.0000012,{f32_keys}\n    \
             \"fast_tanh_output_error\": [\n      0.00031\n    ]\n  }},\n  \"safety\": "
        );
        let stamp = format!("\"version\": {BUNDLE_VERSION}");
        assert!(text.contains(&stamp) && text.contains("\n  \"safety\": "));
        text.replacen(&stamp, &format!("\"version\": {version}"), 1)
            .replacen("  \"safety\": ", &fast_tier, 1)
    }

    /// The same artifact in the legacy version-2 format: no safety
    /// certificate, pre-certification version stamp.
    pub(crate) fn v2_bundle() -> ControllerBundle {
        let mut b = healthy_bundle();
        b.version = 2;
        b.safety = None;
        b
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::{healthy_bundle as bundle, provenance, student};
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "cocktail-serve-bundle-{tag}-{}.json",
            std::process::id()
        ))
    }

    #[test]
    fn package_records_claim_and_envelope() {
        let b = bundle();
        assert_eq!(b.version, BUNDLE_VERSION);
        assert!(b.lipschitz_claim > 0.0);
        let error = cocktail_analysis::Severity::Error.to_string();
        assert!(b.analysis.iter().all(|f| f.severity != error));
        let sys = SystemId::Oscillator.dynamics();
        assert_eq!((b.u_inf.clone(), b.u_sup.clone()), sys.control_bounds());
        assert_eq!(b.input_domain, sys.verification_domain());
        let (net, scale) = b.network().expect("neural spec");
        assert_eq!(net.input_dim(), 2);
        assert_eq!(scale, &[20.0]);
    }

    #[test]
    fn save_load_round_trips_bitwise() {
        let b = bundle();
        let path = temp_path("roundtrip");
        b.save(&path).expect("save succeeds");
        let back = ControllerBundle::load(&path).expect("load succeeds");
        assert_eq!(back, b);
        assert!(
            !path.with_extension("json.tmp").exists(),
            "temp file renamed away"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn package_refuses_nan_student() {
        let mut net = student();
        net.layers_mut()[0].weights_mut()[(0, 0)] = f64::NAN;
        let err = ControllerBundle::package(SystemId::Oscillator, net, vec![20.0], provenance())
            .expect_err("NaN student refused");
        assert!(matches!(err, BundleError::Format(_)), "{err}");
    }

    #[test]
    fn save_refuses_in_memory_corruption() {
        let mut b = bundle();
        let ControllerSpec::Mlp { net, .. } = &mut b.spec;
        net.layers_mut()[0].weights_mut()[(0, 0)] = f64::INFINITY;
        let err = b.save(&temp_path("corrupt")).expect_err("corrupt refused");
        assert!(matches!(err, BundleError::NonFinite(_)), "{err}");
    }

    #[test]
    fn load_refuses_version_skew_and_nan_literals() {
        let b = bundle();
        let path = temp_path("skew");
        b.save(&path).expect("save succeeds");
        let text = std::fs::read_to_string(&path).expect("readable");

        let stamp = format!("\"version\": {BUNDLE_VERSION}");
        assert!(text.contains(&stamp), "pretty-printed version stamp");
        let skewed = text.replacen(&stamp, "\"version\": 99", 1);
        std::fs::write(&path, skewed).expect("writable");
        let err = ControllerBundle::load(&path).expect_err("version skew refused");
        assert!(err.to_string().contains("version 99"), "{err}");

        // a bare NaN literal parses in the vendored parser but must not
        // survive strict-JSON validation
        let poisoned: String = text
            .lines()
            .map(|l| {
                if l.contains("\"lipschitz_claim\"") {
                    "  \"lipschitz_claim\": NaN,".to_string()
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        assert!(poisoned.contains("NaN"), "substitution must hit");
        std::fs::write(&path, poisoned).expect("writable");
        let err = ControllerBundle::load(&path).expect_err("NaN literal refused");
        assert!(matches!(err, BundleError::NonFinite(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_newer_format_is_refused_by_version_not_by_its_shape() {
        // a later format that drops a field must read as version skew,
        // not as a missing field
        let text = serde_json::to_string_pretty(&bundle()).expect("serializes");
        let v7: String = text
            .replacen(
                &format!("\"version\": {BUNDLE_VERSION}"),
                "\"version\": 7",
                1,
            )
            .lines()
            .filter(|l| !l.starts_with("  \"lipschitz_claim\""))
            .collect::<Vec<_>>()
            .join("\n");
        let path = temp_path("v7");
        std::fs::write(&path, v7).expect("writable");
        let err = ControllerBundle::load(&path).expect_err("v7 refused");
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, BundleError::Format(_)), "{err}");
        assert!(
            err.to_string().contains("bundle version 7 outside"),
            "{err}"
        );
    }

    #[test]
    fn load_refuses_a_spec_of_another_controller_family() {
        let path = temp_path("linear-spec");
        bundle().save(&path).expect("save succeeds");
        let text = std::fs::read_to_string(&path).expect("readable");
        let start = text.find("\"spec\": ").expect("spec key") + "\"spec\": ".len();
        let end = start + text[start..].find("\n  },").expect("spec closes") + "\n  }".len();
        let linear =
            r#"{"Linear": {"gain": {"rows": 1, "cols": 2, "data": [1.0, 0.5]}, "bias": []}}"#;
        std::fs::write(&path, format!("{}{linear}{}", &text[..start], &text[end..]))
            .expect("writable");
        let err = ControllerBundle::load(&path).expect_err("only the Mlp family loads");
        assert!(matches!(err, BundleError::Format(_)), "{err}");
        assert!(err.to_string().contains("Linear"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn package_embeds_a_safety_cert_that_rederives_bit_for_bit() {
        let b = bundle();
        let cert = b.safety.as_ref().expect("oscillator student certifies");
        let sys = b.system.dynamics();
        let (net, scale) = b.network().expect("neural spec");
        let fresh = certify_controller(
            sys.as_ref(),
            net,
            scale,
            &cert.params,
            cocktail_math::parallel::default_workers(),
            &NullSink,
        )
        .expect("re-derivation succeeds")
        .cert;
        assert!(
            cert.matches(&fresh, 0.0),
            "shipped and re-derived certs must agree exactly: {:?}",
            cert.diff(&fresh, 0.0)
        );
    }

    #[test]
    fn v2_files_without_a_safety_key_load_as_uncertified() {
        let b = bundle();
        let path = temp_path("v2-compat");
        b.save(&path).expect("save succeeds");
        let text = std::fs::read_to_string(&path).expect("readable");

        // rebuild the file as a version-2 artifact: older stamp, no
        // `safety` key at all (not even `null`)
        let mut v2_lines: Vec<String> = Vec::new();
        let mut in_safety = false;
        let mut depth = 0i32;
        for line in text.lines() {
            if line.trim_start().starts_with("\"safety\":") {
                in_safety = true;
                depth = 0;
            }
            if in_safety {
                depth += line.matches(['{', '[']).count() as i32;
                depth -= line.matches(['}', ']']).count() as i32;
                if depth <= 0 {
                    in_safety = false;
                }
                continue;
            }
            v2_lines.push(line.replacen(
                &format!("\"version\": {BUNDLE_VERSION}"),
                "\"version\": 2",
                1,
            ));
        }
        let v2_text = v2_lines.join("\n");
        assert!(!v2_text.contains("\"safety\""), "key must be gone");
        std::fs::write(&path, v2_text).expect("writable");

        let back = ControllerBundle::load(&path).expect("v2 file still loads");
        assert_eq!(back.version, 2);
        assert_eq!(back.safety, None);
        assert_eq!(back.spec, b.spec, "payload fields survive the downgrade");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validate_refuses_a_v2_bundle_that_claims_a_safety_cert() {
        let mut b = bundle();
        assert!(b.safety.is_some());
        b.version = 2;
        let err = b.validate().expect_err("v2 with cert refused");
        assert!(matches!(err, BundleError::Format(_)), "{err}");
    }

    #[test]
    fn validate_refuses_a_v4_bundle_that_names_the_residual_margin() {
        let mut b = bundle();
        b.version = 4;
        b.validate()
            .expect("a first-order certificate is a v4 certificate");
        if let Some(cert) = b.safety.as_mut() {
            cert.params.certificate.margin = ErrorMargin::Residual;
        }
        let err = b.validate().expect_err("v4 with a residual margin refused");
        assert!(
            matches!(&err, BundleError::Format(m) if m.contains("residual")),
            "{err}"
        );
    }

    #[test]
    fn validate_refuses_corrupt_safety_certs() {
        // non-finite wall-clock
        let mut b = bundle();
        if let Some(cert) = b.safety.as_mut() {
            cert.verify_ms = f64::NAN;
        }
        let err = b.validate().expect_err("NaN verify_ms refused");
        assert!(matches!(err, BundleError::NonFinite(_)), "{err}");

        // a negative one is refused by its sign
        let mut b = bundle();
        if let Some(cert) = b.safety.as_mut() {
            cert.epsilon = -0.5;
        }
        let err = b.validate().expect_err("negative epsilon refused");
        assert_eq!(
            err,
            BundleError::Format("safety epsilon -0.5 is negative".into())
        );

        // hull dimension disagrees with the plant
        let mut b = bundle();
        if let Some(cert) = b.safety.as_mut() {
            cert.reach_final_hull = BoxRegion::cube(3, -1.0, 1.0);
        }
        let err = b.validate().expect_err("wrong hull dim refused");
        assert!(matches!(err, BundleError::Format(_)), "{err}");

        // impossible invariant-set population
        let mut b = bundle();
        if let Some(cert) = b.safety.as_mut() {
            cert.invariant_alive = cert.invariant_cells + 1;
        }
        let err = b.validate().expect_err("alive > cells refused");
        assert!(matches!(err, BundleError::Format(_)), "{err}");
    }

    #[test]
    fn packaged_json_is_version_6_without_a_fast_tier_key() {
        let text = serde_json::to_string_pretty(&bundle()).expect("serializes");
        assert_eq!(BUNDLE_VERSION, 6);
        assert!(text.contains("\"version\": 6,"), "{text}");
        assert!(!text.contains("fast_tier"), "{text}");
    }

    #[test]
    fn validate_refuses_negative_bounds_by_sign_and_non_finite_ones_as_such() {
        let mut b = bundle();
        b.lipschitz_claim = -1.0;
        let err = b.validate().expect_err("negative claim refused");
        assert_eq!(
            err,
            BundleError::Format("lipschitz claim -1 is negative".into())
        );

        b.lipschitz_claim = f64::INFINITY;
        let err = b.validate().expect_err("infinite claim refused");
        assert!(matches!(err, BundleError::NonFinite(_)), "{err}");
    }

    #[test]
    fn fnv_hash_is_stable() {
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), fnv1a_64(b"a"));
        assert_ne!(fnv1a_64(b"a"), fnv1a_64(b"b"));
    }
}
