//! Regression losses.
//!
//! The distillation step of Algorithm 1 uses mean squared error between the
//! student output and the teacher control input; PPO's value head uses the
//! same loss against discounted returns.

/// Mean squared error `mean((p - t)²)`.
///
/// # Panics
///
/// Panics if slices differ in length or are empty.
///
/// # Examples
///
/// ```
/// assert_eq!(cocktail_nn::loss::mse(&[1.0, 3.0], &[1.0, 1.0]), 2.0);
/// ```
pub fn mse(prediction: &[f64], target: &[f64]) -> f64 {
    cocktail_math::vector::mse(prediction, target)
}

/// Gradient of [`mse`] with respect to `prediction`: `2 (p - t) / n`.
///
/// # Panics
///
/// Panics if slices differ in length or are empty.
pub fn mse_gradient(prediction: &[f64], target: &[f64]) -> Vec<f64> {
    assert_eq!(
        prediction.len(),
        target.len(),
        "mse gradient length mismatch"
    );
    assert!(!prediction.is_empty(), "mse gradient of empty slices");
    let n = prediction.len() as f64;
    prediction
        .iter()
        .zip(target)
        .map(|(p, t)| 2.0 * (p - t) / n)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_zero_on_match() {
        assert_eq!(mse(&[1.0, -2.0], &[1.0, -2.0]), 0.0);
    }

    #[test]
    fn mse_gradient_matches_finite_differences() {
        let p = [0.5, -1.0, 2.0];
        let t = [0.0, 0.0, 1.0];
        let g = mse_gradient(&p, &t);
        let h = 1e-6;
        for i in 0..3 {
            let mut pp = p;
            pp[i] += h;
            let mut pm = p;
            pm[i] -= h;
            let fd = (mse(&pp, &t) - mse(&pm, &t)) / (2.0 * h);
            assert!((fd - g[i]).abs() < 1e-6);
        }
    }
}
