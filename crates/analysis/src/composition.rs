//! Composition pass: structural validation.
//!
//! The shapes inside the network are the loader's business: `Mlp`'s
//! `Deserialize` refuses an empty network, a matrix whose storage does not
//! match its shape, a bias count that differs from a layer's width and
//! layers that do not chain. What a loaded spec can still get wrong is
//! checked here instead of panicking deep inside a run: the output scale's
//! arity and positivity, and the spec's dimensions against the plant it is
//! supposed to drive.

use crate::report::{AnalysisReport, Diagnostic};
use crate::spec::ControllerSpec;
use cocktail_env::Dynamics;

pub(crate) const PASS: &str = "composition";

/// Runs the pass: structural checks of `spec` plus its fit to `sys`.
pub fn check(spec: &ControllerSpec, sys: &dyn Dynamics, report: &mut AnalysisReport) {
    let ControllerSpec::Mlp { net, scale } = spec;
    let outputs = net.output_dim();
    if scale.len() != outputs {
        report.push(Diagnostic::error(
            PASS,
            "scale-arity",
            format!(
                "controller: {} scale entries for {outputs} outputs",
                scale.len()
            ),
        ));
    }
    for (j, k) in scale.iter().enumerate() {
        if !(*k > 0.0 && k.is_finite()) {
            report.push(Diagnostic::error(
                PASS,
                "scale-domain",
                format!("controller: scale[{j}] = {k} must be positive and finite"),
            ));
        }
    }

    let n = spec.state_dim();
    if n != sys.state_dim() {
        report.push(Diagnostic::error(
            PASS,
            "dim-mismatch",
            format!(
                "controller reads {n}-dimensional states but plant `{}` has {} state dims",
                sys.name(),
                sys.state_dim()
            ),
        ));
    }
    let m = spec.control_dim();
    if m != sys.control_dim() {
        report.push(Diagnostic::error(
            PASS,
            "dim-mismatch",
            format!(
                "controller emits {m}-dimensional controls but plant `{}` takes {} control dims",
                sys.name(),
                sys.control_dim()
            ),
        ));
    }
}
