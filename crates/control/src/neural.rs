//! Neural-network controllers.

use crate::controller::Controller;
use cocktail_math::BoxRegion;
use cocktail_nn::{lipschitz, Mlp};
use serde::{Deserialize, Serialize};

/// A neural controller `u = scale ⊙ net(s)`.
///
/// DDPG actors end in a `Tanh` output layer scaled to the control bound;
/// distilled students end in an `Identity` output with `scale = 1`. The
/// wrapper keeps the scaling explicit so the Lipschitz accounting stays
/// exact: `L(κ) = max |scale| · L(net)`.
///
/// # Examples
///
/// ```
/// use cocktail_control::{Controller, NnController};
/// use cocktail_nn::{Activation, MlpBuilder};
///
/// let net = MlpBuilder::new(2).hidden(8, Activation::Tanh)
///     .output(1, Activation::Tanh).seed(0).build();
/// let k = NnController::new(net, vec![20.0]);
/// let u = k.control(&[0.5, -0.5]);
/// assert!(u[0].abs() <= 20.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NnController {
    net: Mlp,
    scale: Vec<f64>,
    label: String,
}

impl NnController {
    /// Wraps a network with per-output scaling.
    ///
    /// # Panics
    ///
    /// Panics if `scale.len() != net.output_dim()` or any scale is
    /// non-positive.
    pub fn new(net: Mlp, scale: Vec<f64>) -> Self {
        Self::with_name(net, scale, "nn-controller")
    }

    /// Wraps a network with per-output scaling and a custom label.
    ///
    /// # Panics
    ///
    /// Panics if `scale.len() != net.output_dim()` or any scale is
    /// non-positive.
    pub fn with_name(net: Mlp, scale: Vec<f64>, label: impl Into<String>) -> Self {
        assert_eq!(
            scale.len(),
            net.output_dim(),
            "scale length must match network output"
        );
        assert!(scale.iter().all(|&s| s > 0.0), "scales must be positive");
        Self {
            net,
            scale,
            label: label.into(),
        }
    }

    /// Wraps a network without scaling (`scale = 1`).
    pub fn unscaled(net: Mlp, label: impl Into<String>) -> Self {
        let scale = vec![1.0; net.output_dim()];
        Self::with_name(net, scale, label)
    }

    /// The underlying network.
    pub fn network(&self) -> &Mlp {
        &self.net
    }

    /// The per-output scale vector.
    pub fn scale(&self) -> &[f64] {
        &self.scale
    }

    /// The paper's footnote-1 Lipschitz constant of the scaled network
    /// ([`lipschitz::scaled_upper_bound`]).
    pub fn lipschitz_constant(&self) -> f64 {
        lipschitz::scaled_upper_bound(&self.net, &self.scale)
    }
}

impl Controller for NnController {
    fn control(&self, s: &[f64]) -> Vec<f64> {
        let raw = self.net.forward(s);
        raw.iter().zip(&self.scale).map(|(r, sc)| r * sc).collect()
    }

    fn control_batch(&self, states: &[Vec<f64>]) -> Vec<Vec<f64>> {
        if states.is_empty() {
            return Vec::new();
        }
        // one batched forward; rows are bit-identical to per-state calls
        let out = self
            .net
            .forward_batch(&cocktail_math::Matrix::from_rows(states.to_vec()));
        (0..out.rows())
            .map(|r| {
                out.row(r)
                    .iter()
                    .zip(&self.scale)
                    .map(|(y, sc)| y * sc)
                    .collect()
            })
            .collect()
    }

    fn state_dim(&self) -> usize {
        self.net.input_dim()
    }

    fn control_dim(&self) -> usize {
        self.net.output_dim()
    }

    fn name(&self) -> &str {
        &self.label
    }

    fn lipschitz(&self, _domain: &BoxRegion) -> Option<f64> {
        Some(self.lipschitz_constant())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocktail_nn::{Activation, MlpBuilder};

    fn controller() -> NnController {
        let net = MlpBuilder::new(2)
            .hidden(8, Activation::Tanh)
            .output(1, Activation::Tanh)
            .seed(3)
            .build();
        NnController::with_name(net, vec![20.0], "kappa1")
    }

    #[test]
    fn output_respects_tanh_scaling() {
        let k = controller();
        for s in [[1.0, 1.0], [-5.0, 3.0], [100.0, -100.0]] {
            let u = k.control(&s);
            assert!(u[0].abs() <= 20.0);
        }
    }

    #[test]
    fn lipschitz_includes_scale() {
        let k = controller();
        let unscaled = lipschitz::upper_bound(k.network(), lipschitz::NormKind::Spectral);
        assert!((k.lipschitz_constant() - 20.0 * unscaled).abs() < 1e-9);
    }

    #[test]
    fn empirical_slope_below_bound() {
        let k = controller();
        let domain = BoxRegion::cube(2, -2.0, 2.0);
        // one scale entry, so the controller's slope is |scale| times the net's
        let gain = k.scale()[0].abs();
        let emp = gain * lipschitz::empirical_lower_bound(k.network(), &domain, 300, 1);
        assert!(emp <= k.lipschitz_constant() * (1.0 + 1e-9));
        assert!(emp > 0.0);
    }

    #[test]
    fn output_bounds_contain_samples() {
        // the network's interval bounds, scaled, enclose every control
        let k = controller();
        let domain = BoxRegion::cube(2, -1.0, 1.0);
        let bound = k.network().bounds(&domain)[0] * k.scale()[0];
        let mut rng = cocktail_math::rng::seeded(2);
        for _ in 0..100 {
            let s = cocktail_math::rng::uniform_in_box(&mut rng, &domain);
            let u = k.control(&s);
            assert!(bound.inflate(1e-9).contains(u[0]));
        }
    }

    #[test]
    #[should_panic(expected = "scale length")]
    fn wrong_scale_length_panics() {
        let net = MlpBuilder::new(2).output(1, Activation::Tanh).build();
        NnController::new(net, vec![1.0, 1.0]);
    }

    #[test]
    fn unscaled_has_unit_scale() {
        let net = MlpBuilder::new(2).output(2, Activation::Identity).build();
        let k = NnController::unscaled(net, "student");
        assert_eq!(k.scale(), &[1.0, 1.0]);
        assert_eq!(k.name(), "student");
    }
}
