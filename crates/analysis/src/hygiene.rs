//! Weight-hygiene pass.
//!
//! Value-level checks on the network and output scale of a spec:
//! non-finite weights or biases (error — the controller would emit NaN),
//! degenerate all-zero layers (warning — the layer contributes nothing and
//! usually signals a failed initialization or a truncated file), exploding
//! layers whose spectral norm exceeds `SPECTRAL_NORM_LIMIT` (warning —
//! the Lipschitz product and any verification budget blow up), and
//! per-layer spectral-norm notes that make the Lipschitz certification
//! below auditable layer by layer.

use crate::report::{AnalysisReport, Diagnostic};
use crate::spec::ControllerSpec;
use cocktail_math::Matrix;

pub(crate) const PASS: &str = "hygiene";

/// Per-layer spectral norm above which a layer counts as exploding.
const SPECTRAL_NORM_LIMIT: f64 = 1e3;

/// Runs the pass over the network and scale of `spec`.
pub fn check(spec: &ControllerSpec, report: &mut AnalysisReport) {
    let ControllerSpec::Mlp { net, scale } = spec;
    for (li, layer) in net.layers().iter().enumerate() {
        check_matrix(
            &format!("controller layer {li} weights"),
            layer.weights(),
            report,
        );
        check_vector(
            &format!("controller layer {li} biases"),
            layer.biases(),
            report,
        );
    }
    check_vector("controller output scale", scale, report);
}

fn check_matrix(what: &str, m: &Matrix, report: &mut AnalysisReport) {
    let entries = m.as_slice();
    if let Some(bad) = entries.iter().position(|v| !v.is_finite()) {
        report.push(Diagnostic::error(
            PASS,
            "nonfinite-weight",
            format!(
                "{what}: entry ({}, {}) is {} — the controller would propagate it to every output",
                bad / m.cols(),
                bad % m.cols(),
                entries[bad]
            ),
        ));
        return; // norms are meaningless on non-finite data
    }
    if entries.iter().all(|&v| v == 0.0) {
        report.push(Diagnostic::warn(
            PASS,
            "degenerate-layer",
            format!(
                "{what}: all {} entries are zero — the layer transmits nothing",
                entries.len()
            ),
        ));
        return;
    }
    let sigma = m.spectral_norm();
    if sigma > SPECTRAL_NORM_LIMIT {
        report.push(Diagnostic::warn(
            PASS,
            "exploding-layer",
            format!(
                "{what}: spectral norm {sigma:.3e} exceeds the limit {:.1e} — \
                 Lipschitz products and verification budgets blow up",
                SPECTRAL_NORM_LIMIT
            ),
        ));
    } else {
        report.push(Diagnostic::info(
            PASS,
            "layer-norm",
            format!("{what}: spectral norm sigma = {sigma:.4}"),
        ));
    }
}

fn check_vector(what: &str, v: &[f64], report: &mut AnalysisReport) {
    if let Some(bad) = v.iter().position(|x| !x.is_finite()) {
        report.push(Diagnostic::error(
            PASS,
            "nonfinite-weight",
            format!("{what}: entry {bad} is {}", v[bad]),
        ));
    }
}
