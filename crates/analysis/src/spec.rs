//! The serializable controller specification.
//!
//! [`ControllerSpec`] is the artifact the pipeline lints, certifies and
//! ships: the distilled student `u = scale ⊙ net(s)` (the runtime
//! `NnController`). Its JSON shape, `{"Mlp": {"net": …, "scale": […]}}`,
//! is what a bundle's `spec` field and a `lint-model` model file hold.
//!
//! The network loads through `Mlp`'s checked `Deserialize`, which refuses
//! an empty layer list and shapes a forward pass would index past, so a
//! spec that parses has consistent shapes. Its values are taken as they
//! come: a NaN weight, a wrong-arity or non-positive scale and a wrong
//! plant all load, so the analyzer can explain what is wrong instead of
//! the pipeline panicking on it.

use cocktail_nn::Mlp;
use serde::{Deserialize, Serialize};

/// A neural controller `u = scale ⊙ net(s)`, the runtime `NnController`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ControllerSpec {
    /// A neural controller `u = scale ⊙ net(s)`.
    Mlp {
        /// The policy network.
        net: Mlp,
        /// Per-output scaling (element-wise, all entries positive).
        scale: Vec<f64>,
    },
}

impl ControllerSpec {
    /// Input (state) dimension: the network's.
    pub fn state_dim(&self) -> usize {
        let ControllerSpec::Mlp { net, .. } = self;
        net.input_dim()
    }

    /// Output (control) dimension: the network's.
    pub fn control_dim(&self) -> usize {
        let ControllerSpec::Mlp { net, .. } = self;
        net.output_dim()
    }

    /// Concrete evaluation at a state, as the runtime controller computes
    /// it.
    ///
    /// Returns `None` when `s` has the wrong dimension or the scale does
    /// not have one entry per output. Used by tests to compare interval
    /// bounds against sampled outputs.
    pub fn eval(&self, s: &[f64]) -> Option<Vec<f64>> {
        let ControllerSpec::Mlp { net, scale } = self;
        if net.input_dim() != s.len() || net.output_dim() != scale.len() {
            return None;
        }
        Some(
            net.forward(s)
                .iter()
                .zip(scale)
                .map(|(v, k)| v * k)
                .collect(),
        )
    }

    /// Builds the spec of an `NnController`-shaped pair.
    pub fn from_network(net: Mlp, scale: Vec<f64>) -> Self {
        ControllerSpec::Mlp { net, scale }
    }

    /// JSON text of this spec.
    ///
    /// # Panics
    ///
    /// Never panics: the value-tree serializer is total over specs.
    #[allow(
        clippy::expect_used,
        reason = "the value-tree serializer is total over specs"
    )]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serialization is total")
    }

    /// Parses a spec from JSON text.
    ///
    /// # Errors
    ///
    /// Returns the underlying parse/shape error message.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocktail_nn::{Activation, MlpBuilder};

    fn net(input: usize, output: usize) -> Mlp {
        MlpBuilder::new(input)
            .hidden(4, Activation::Tanh)
            .output(output, Activation::Identity)
            .seed(7)
            .build()
    }

    #[test]
    fn dims_of_each_family() {
        let mlp = ControllerSpec::Mlp {
            net: net(3, 2),
            scale: vec![1.0, 1.0],
        };
        assert_eq!(mlp.state_dim(), 3);
        assert_eq!(mlp.control_dim(), 2);
    }

    #[test]
    fn json_round_trip() {
        let spec = ControllerSpec::Mlp {
            net: net(2, 1),
            scale: vec![20.0],
        };
        let text = spec.to_json();
        assert!(text.trim_start().starts_with("{\n  \"Mlp\""), "{text}");
        let back = ControllerSpec::from_json(&text).expect("round trip");
        assert_eq!(back, spec);
    }

    #[test]
    fn malformed_eval_returns_none() {
        let spec = ControllerSpec::Mlp {
            net: net(2, 1),
            scale: vec![1.0, 1.0],
        };
        assert_eq!(spec.eval(&[0.0, 0.0]), None); // scale arity mismatch
        assert_eq!(spec.eval(&[0.0]), None); // state dim mismatch
    }
}
