//! One fixture per diagnostic kind: each broken model must surface its
//! specific code, and a healthy model must come back error-free.

use cocktail_analysis::{AnalysisConfig, Analyzer, ControllerSpec, Severity};
use cocktail_env::systems::{CartPole, VanDerPol};
use cocktail_nn::{Activation, MlpBuilder};
use std::sync::Arc;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn analyzer() -> Analyzer {
    Analyzer::new(Arc::new(VanDerPol::new()))
}

#[test]
fn nan_weight_is_an_error() {
    let spec = ControllerSpec::from_json(&fixture("nan_weight.json")).expect("loadable");
    let report = analyzer().analyze(&spec);
    assert!(report.has_errors(), "{report}");
    assert!(report.has_code("nonfinite-weight"), "{report}");
    // value-level passes must be skipped, not run on NaN data
    assert!(report.has_code("passes-skipped"), "{report}");
}

#[test]
fn a_spec_of_another_family_does_not_load() {
    // the spec is one controller family: a file naming another one is a
    // parse error, not a finding
    let err = ControllerSpec::from_json(&fixture("linear_spec.json")).expect_err("not an Mlp");
    assert!(err.contains("unknown variant `Linear`"), "{err}");
}

#[test]
fn clean_fixture_has_no_errors() {
    let spec = ControllerSpec::from_json(&fixture("clean_oscillator.json")).expect("loadable");
    let report = analyzer().analyze(&spec);
    assert!(!report.has_errors(), "{report}");
    // the analyzer must have reached the deep passes
    assert!(report.has_code("output-range"), "{report}");
    assert!(report.has_code("lipschitz-bound"), "{report}");
}

#[test]
fn saturated_tanh_layer_is_flagged() {
    // a huge bias pushes every tanh unit into the flat tail over the
    // whole domain: the layer computes a constant
    let mut net = MlpBuilder::new(2)
        .hidden(3, Activation::Tanh)
        .output(1, Activation::Identity)
        .seed(5)
        .build();
    for b in net.layers_mut()[0].biases_mut() {
        *b = 50.0;
    }
    let spec = ControllerSpec::Mlp {
        net,
        scale: vec![1.0],
    };
    let report = analyzer().analyze(&spec);
    assert!(report.has_code("saturated-layer"), "{report}");
    assert!(
        !report.has_errors(),
        "saturation is a warning, not an error: {report}"
    );
}

#[test]
fn lipschitz_over_budget_is_flagged() {
    let net = MlpBuilder::new(2)
        .hidden(16, Activation::Tanh)
        .output(1, Activation::Identity)
        .seed(6)
        .init_scale(3.0)
        .build();
    let spec = ControllerSpec::Mlp {
        net,
        scale: vec![20.0],
    };
    let config = AnalysisConfig {
        lipschitz_target: Some(1.0),
        ..AnalysisConfig::default()
    };
    let report = Analyzer::with_config(Arc::new(VanDerPol::new()), config).analyze(&spec);
    let budget = report
        .diagnostics()
        .iter()
        .find(|d| d.code == "lipschitz-budget")
        .expect("budget comparison must run");
    assert_eq!(budget.severity, Severity::Warn, "{report}");
}

#[test]
fn actuator_overflow_is_flagged() {
    // an identity-output network scaled far past the ±20 actuator box
    let net = MlpBuilder::new(2)
        .hidden(8, Activation::Tanh)
        .output(1, Activation::Tanh)
        .seed(8)
        .build();
    let spec = ControllerSpec::Mlp {
        net,
        scale: vec![500.0],
    };
    let report = analyzer().analyze(&spec);
    assert!(report.has_code("actuator-overflow"), "{report}");
}

#[test]
fn wrong_plant_is_a_dim_mismatch() {
    // a healthy oscillator model linted against the 4-state cartpole
    let spec = ControllerSpec::from_json(&fixture("clean_oscillator.json")).expect("loadable");
    let report = Analyzer::new(Arc::new(CartPole::new())).analyze(&spec);
    assert!(report.has_errors(), "{report}");
    assert!(report.has_code("dim-mismatch"), "{report}");
}

#[test]
fn degenerate_and_exploding_layers_warn() {
    let mut zero = MlpBuilder::new(2)
        .hidden(3, Activation::Tanh)
        .output(1, Activation::Identity)
        .seed(9)
        .build();
    for w in zero.layers_mut()[0].weights_mut().as_mut_slice() {
        *w = 0.0;
    }
    let report = analyzer().analyze(&ControllerSpec::Mlp {
        net: zero,
        scale: vec![1.0],
    });
    assert!(report.has_code("degenerate-layer"), "{report}");

    let huge = MlpBuilder::new(2)
        .hidden(3, Activation::Tanh)
        .output(1, Activation::Identity)
        .seed(10)
        .init_scale(5e3)
        .build();
    let report = analyzer().analyze(&ControllerSpec::Mlp {
        net: huge,
        scale: vec![1.0],
    });
    assert!(report.has_code("exploding-layer"), "{report}");
}
