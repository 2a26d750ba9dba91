//! Summary statistics over slices.
//!
//! The RL crate normalizes advantages per batch and the experiment harness
//! reports means over 500-sample evaluations; both use the helpers here.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance; 0 for slices shorter than 2.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Standardizes a slice to zero mean / unit variance in place; a slice with
/// (near-)zero variance is only centered.
///
/// The degeneracy floor is *relative* to the data's magnitude: a batch
/// sitting at `1e6` with spread `1e-4` is near-constant in every sense
/// that matters, and dividing by that spread would manufacture O(1)
/// "signal" out of rounding noise.
pub fn standardize(xs: &mut [f64]) {
    let m = mean(xs);
    let s = std_dev(xs);
    let floor = 1e-8 * m.abs().max(1.0);
    let denom = if s > floor { s } else { 1.0 };
    for x in xs.iter_mut() {
        *x = (*x - m) / denom;
    }
}

/// Minimum of a slice; `None` when empty.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().reduce(f64::min)
}

/// Maximum of a slice; `None` when empty.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().reduce(f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn mean_and_variance_match_manual() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert_eq!(variance(&xs), 4.0);
        assert_eq!(std_dev(&xs), 2.0);
    }

    #[test]
    fn standardize_produces_zero_mean_unit_std() {
        let mut xs = vec![1.0, 2.0, 3.0, 4.0];
        standardize(&mut xs);
        assert!(mean(&xs).abs() < 1e-12);
        assert!((std_dev(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn standardize_constant_slice_centers_only() {
        let mut xs = vec![5.0, 5.0, 5.0];
        standardize(&mut xs);
        assert!(xs.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn standardize_large_magnitude_near_constant_slice_centers_only() {
        // std here is ~3e-8 — above the old absolute 1e-8 floor, but five
        // orders of magnitude below any meaningful spread at |mean| = 1e6.
        // Dividing by it would blow rounding noise up to O(1); the relative
        // floor (1e-8 * 1e6 = 1e-2) must refuse and only center.
        let mut xs: Vec<f64> = (0..8).map(|i| 1.0e6 + f64::from(i) * 1e-8).collect();
        standardize(&mut xs);
        assert!(
            xs.iter().all(|&x| x.abs() < 1e-6),
            "near-constant batch must not be inflated: {xs:?}"
        );
    }

    #[test]
    fn min_max_of_slice() {
        let xs = [3.0, -1.0, 2.0];
        assert_eq!(min(&xs), Some(-1.0));
        assert_eq!(max(&xs), Some(3.0));
        assert_eq!(min(&[]), None);
    }
}
