//! Structured analysis findings.
//!
//! Every pass appends [`Diagnostic`]s to a shared [`AnalysisReport`]; the
//! report is the analyzer's only output, so callers (the `lint-model` CLI,
//! the pipeline pre-flight gate, tests) decide what a finding means for
//! them — exit code, panic, or log line — instead of the passes deciding.

use std::fmt;

/// How bad a finding is.
///
/// Ordering is by severity: `Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Neutral fact worth surfacing (a bound, a norm, a predicted cost).
    Info,
    /// Suspicious but not provably broken; the model still runs.
    Warn,
    /// The model is unusable or provably violates a contract.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warn => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding: a severity, a stable machine-readable code, the pass that
/// produced it, and a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// How bad the finding is.
    pub severity: Severity,
    /// Stable kebab-case identifier, e.g. `nonfinite-weight`.
    pub code: &'static str,
    /// The pass that produced the finding, e.g. `hygiene`.
    pub pass: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// An error-level finding.
    pub fn error(pass: &'static str, code: &'static str, message: impl Into<String>) -> Self {
        Self {
            severity: Severity::Error,
            code,
            pass,
            message: message.into(),
        }
    }

    /// A warning-level finding.
    pub fn warn(pass: &'static str, code: &'static str, message: impl Into<String>) -> Self {
        Self {
            severity: Severity::Warn,
            code,
            pass,
            message: message.into(),
        }
    }

    /// An info-level finding.
    pub fn info(pass: &'static str, code: &'static str, message: impl Into<String>) -> Self {
        Self {
            severity: Severity::Info,
            code,
            pass,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code, self.pass, self.message
        )
    }
}

/// The full outcome of analyzing one controller spec.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisReport {
    diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Appends every finding of another report.
    pub fn merge(&mut self, other: AnalysisReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// All findings, in the order the passes produced them.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// `true` when no finding at all was produced.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// `true` when at least one error-level finding exists.
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// `true` when at least one warning-level finding exists.
    pub fn has_warnings(&self) -> bool {
        self.count(Severity::Warn) > 0
    }

    /// Number of findings at exactly the given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// `true` when a finding with the given code exists.
    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// One-line totals, e.g. `2 errors, 1 warning, 3 notes`.
    pub fn summary(&self) -> String {
        fn plural(n: usize, word: &str) -> String {
            if n == 1 {
                format!("1 {word}")
            } else {
                format!("{n} {word}s")
            }
        }
        format!(
            "{}, {}, {}",
            plural(self.count(Severity::Error), "error"),
            plural(self.count(Severity::Warn), "warning"),
            plural(self.count(Severity::Info), "note"),
        )
    }

    /// Multi-line rendering: one finding per line, worst first within the
    /// original pass order preserved per severity.
    pub fn render(&self) -> String {
        let mut lines: Vec<String> = Vec::with_capacity(self.diagnostics.len());
        for severity in [Severity::Error, Severity::Warn, Severity::Info] {
            for d in self.diagnostics.iter().filter(|d| d.severity == severity) {
                lines.push(d.to_string());
            }
        }
        lines.join("\n")
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AnalysisReport {
        let mut r = AnalysisReport::new();
        r.push(Diagnostic::info("hygiene", "layer-norm", "sigma = 1.0"));
        r.push(Diagnostic::error("composition", "dim-mismatch", "2 vs 3"));
        r.push(Diagnostic::warn("range", "saturated-layer", "layer 1"));
        r
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
    }

    #[test]
    fn counting_and_flags() {
        let r = sample();
        assert!(r.has_errors());
        assert!(r.has_warnings());
        assert_eq!(r.count(Severity::Info), 1);
        assert!(r.has_code("dim-mismatch"));
        assert!(!r.has_code("nonfinite-weight"));
    }

    #[test]
    fn render_orders_worst_first() {
        let text = sample().render();
        let err = text.find("error[").expect("error line");
        let warn = text.find("warning[").expect("warning line");
        let info = text.find("info[").expect("info line");
        assert!(err < warn && warn < info, "{text}");
    }

    #[test]
    fn summary_pluralizes() {
        assert_eq!(sample().summary(), "1 error, 1 warning, 1 note");
        assert_eq!(
            AnalysisReport::new().summary(),
            "0 errors, 0 warnings, 0 notes"
        );
    }

    #[test]
    fn merge_concatenates() {
        let mut a = AnalysisReport::new();
        a.merge(sample());
        a.merge(sample());
        assert_eq!(a.diagnostics().len(), 6);
    }
}
