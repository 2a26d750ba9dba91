//! Interval range analysis.
//!
//! Propagates the plant's verification domain through a controller spec
//! with interval arithmetic and reports what the bounds imply:
//!
//! * **Saturated layers** — a tanh/sigmoid layer whose pre-activation
//!   interval sits entirely in the flat tail, or a `ReLU` layer that is dead
//!   on the whole domain, computes a constant; the controller cannot react
//!   to the state there.
//! * **Actuator overflow** — output dimensions whose certified range
//!   exceeds the plant's control box `[U_inf, U_sup]`; the plant will
//!   clip, so the effective policy is not the trained one.
//!
//! The propagation is the network's own: each layer's pre-activation box
//! is `Dense::affine_interval` (read here for saturation), and its output
//! box the activation's interval extension of it, exactly the two halves
//! of `Dense::forward_interval`, so the output range is `Mlp::bounds`
//! scaled, bit for bit.

use crate::report::{AnalysisReport, Diagnostic};
use crate::spec::ControllerSpec;
use cocktail_env::Dynamics;
use cocktail_math::{BoxRegion, Interval};
use cocktail_nn::{Activation, Dense};

pub(crate) const PASS: &str = "range";

/// Pre-activation magnitude beyond which a tanh unit counts as saturated
/// (sigmoid uses twice this).
const SATURATION_MARGIN: f64 = 4.0;

/// Absolute slack when comparing certified output ranges against actuator
/// limits (absorbs rounding in the interval arithmetic).
const RANGE_TOLERANCE: f64 = 1e-9;

/// Runs the pass: propagates `sys.verification_domain()` through the spec
/// and reports saturation and actuator-overflow findings.
///
/// Assumes the composition and hygiene passes ran clean (the spec fits
/// the plant and every value is finite).
pub fn check(spec: &ControllerSpec, sys: &dyn Dynamics, report: &mut AnalysisReport) {
    let domain = sys.verification_domain();
    let Some(out) = spec_interval(spec, domain.intervals(), Some(report)) else {
        return;
    };

    report.push(Diagnostic::info(
        PASS,
        "output-range",
        format!(
            "certified output range over the verification domain: {}",
            render_box(&out)
        ),
    ));

    let (u_lo, u_hi) = sys.control_bounds();
    for (j, iv) in out.iter().enumerate() {
        let (lo, hi) = (u_lo[j], u_hi[j]);
        if iv.lo() < lo - RANGE_TOLERANCE || iv.hi() > hi + RANGE_TOLERANCE {
            report.push(Diagnostic::warn(
                PASS,
                "actuator-overflow",
                format!(
                    "output dim {j} spans [{:.4}, {:.4}] but plant `{}` only accepts \
                     [{lo}, {hi}] — the plant will clip, so the executed policy differs \
                     from the analyzed one",
                    iv.lo(),
                    iv.hi(),
                    sys.name()
                ),
            ));
        }
    }
}

/// Certified output box of a controller spec over a state-domain box, or
/// `None` when the domain's dimension is not the spec's state dimension
/// or the scale does not have one entry per output.
///
/// This is the side-effect-free entry point used by tests; the pass
/// itself goes through the same propagation with a report attached for
/// saturation findings.
pub fn output_range(spec: &ControllerSpec, domain: &BoxRegion) -> Option<Vec<Interval>> {
    if spec.state_dim() != domain.dim() {
        return None;
    }
    spec_interval(spec, domain.intervals(), None)
}

/// Interval-propagates the network over `input` and scales the result,
/// reporting saturated layers when a report is attached.
fn spec_interval(
    spec: &ControllerSpec,
    input: &[Interval],
    mut report: Option<&mut AnalysisReport>,
) -> Option<Vec<Interval>> {
    let ControllerSpec::Mlp { net, scale } = spec;
    if net.output_dim() != scale.len() {
        return None;
    }
    let mut iv = input.to_vec();
    for (li, layer) in net.layers().iter().enumerate() {
        let z = layer.affine_interval(&iv);
        if let Some(report) = report.as_deref_mut() {
            report_saturation("controller", li, layer, &z, report);
        }
        iv = z
            .into_iter()
            .map(|zi| layer.activation().apply_interval(zi))
            .collect();
    }
    Some(iv.iter().zip(scale).map(|(iv, &k)| *iv * k).collect())
}

/// Is the activation provably flat (constant output) on the whole
/// pre-activation interval?
fn unit_saturated(activation: Activation, z: Interval, margin: f64) -> bool {
    match activation {
        // tanh(±4) is within 7e-4 of ±1; past the margin the unit is a
        // constant for all practical purposes
        Activation::Tanh => z.lo() >= margin || z.hi() <= -margin,
        // sigmoid flattens about twice as slowly as tanh
        Activation::Sigmoid => z.lo() >= 2.0 * margin || z.hi() <= -2.0 * margin,
        // a ReLU that never sees positive input is exactly dead
        Activation::Relu => z.hi() <= 0.0,
        // identity / leaky-relu / softplus never flatten to a constant
        Activation::Identity | Activation::LeakyRelu { .. } | Activation::Softplus => false,
    }
}

fn report_saturation(
    path: &str,
    li: usize,
    layer: &Dense,
    z: &[Interval],
    report: &mut AnalysisReport,
) {
    let saturated = z
        .iter()
        .filter(|&&zi| unit_saturated(layer.activation(), zi, SATURATION_MARGIN))
        .count();
    if saturated == 0 {
        return;
    }
    if saturated == z.len() {
        report.push(Diagnostic::warn(
            PASS,
            "saturated-layer",
            format!(
                "{path} layer {li}: all {saturated} {:?} units are saturated over the whole \
                 verification domain — the layer computes a constant and the controller \
                 cannot react to the state",
                layer.activation()
            ),
        ));
    } else {
        report.push(Diagnostic::info(
            PASS,
            "saturated-units",
            format!(
                "{path} layer {li}: {saturated}/{} {:?} units saturated over the domain",
                z.len(),
                layer.activation()
            ),
        ));
    }
}

fn render_box(ivs: &[Interval]) -> String {
    let dims: Vec<String> = ivs
        .iter()
        .map(|iv| format!("[{:.4}, {:.4}]", iv.lo(), iv.hi()))
        .collect();
    dims.join(" x ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocktail_nn::MlpBuilder;

    #[test]
    fn pre_activation_matches_dense_forward_interval_post_activation() {
        let net = MlpBuilder::new(2)
            .hidden(5, Activation::Tanh)
            .output(1, Activation::Identity)
            .seed(3)
            .build();
        let domain = BoxRegion::cube(2, -1.5, 1.5);
        // the pass reads pre-activations, yet its output range must be the
        // network's own interval propagation, bit for bit
        let spec = ControllerSpec::Mlp {
            net: net.clone(),
            scale: vec![1.0],
        };
        let ours = output_range(&spec, &domain).expect("well-formed");
        let theirs = net.bounds(&domain);
        assert_eq!(ours.len(), theirs.len());
        for (a, b) in ours.iter().zip(&theirs) {
            assert_eq!(a.lo().to_bits(), b.lo().to_bits());
            assert_eq!(a.hi().to_bits(), b.hi().to_bits());
        }
    }

    #[test]
    fn dead_relu_layer_is_flagged() {
        let mut report = AnalysisReport::new();
        // one ReLU unit with a large negative bias: dead on [-1, 1]^2
        let layer = Dense::from_parts(
            cocktail_math::Matrix::from_rows(vec![vec![0.1, 0.1]]),
            vec![-10.0],
            Activation::Relu,
        );
        let z = layer.affine_interval(BoxRegion::cube(2, -1.0, 1.0).intervals());
        report_saturation("t", 0, &layer, &z, &mut report);
        assert!(report.has_code("saturated-layer"), "{report}");
    }

    #[test]
    fn identity_layers_never_saturate() {
        assert!(!unit_saturated(
            Activation::Identity,
            Interval::new(100.0, 200.0),
            4.0
        ));
        assert!(unit_saturated(
            Activation::Tanh,
            Interval::new(4.5, 9.0),
            4.0
        ));
        assert!(unit_saturated(
            Activation::Tanh,
            Interval::new(-9.0, -4.5),
            4.0
        ));
        assert!(!unit_saturated(
            Activation::Tanh,
            Interval::new(-1.0, 1.0),
            4.0
        ));
    }
}
