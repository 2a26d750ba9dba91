//! Free functions on `f64` slices.
//!
//! Keeping these as plain functions (rather than a wrapper vector type) lets
//! every crate pass `&[f64]` state and control vectors around without
//! conversions; the newtype-level distinctions live in the `env` and
//! `control` crates, closest to the domain meaning.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the lengths differ.
///
/// # Examples
///
/// ```
/// assert_eq!(cocktail_math::vector::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean (L2) norm.
pub fn norm_2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Euclidean distance `‖a − b‖₂` without a difference vector: each
/// difference squared and summed left to right as [`dot`] sums, so the
/// bits are those of `norm_2(&sub(a, b))`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distance length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// L1 norm `Σ |a_i|` — the paper's control-energy measure (Eq. 3 uses the
/// 1-norm of the control input).
pub fn norm_1(a: &[f64]) -> f64 {
    a.iter().map(|v| v.abs()).sum()
}

/// L∞ norm `max |a_i|`.
pub fn norm_inf(a: &[f64]) -> f64 {
    a.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
}

/// Element-wise `a + s * b`, returning a new vector.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn axpy(a: &[f64], s: f64, b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "axpy length mismatch");
    a.iter().zip(b).map(|(x, y)| x + s * y).collect()
}

/// In-place `a += s * b`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn axpy_inplace(a: &mut [f64], s: f64, b: &[f64]) {
    assert_eq!(a.len(), b.len(), "axpy length mismatch");
    for (x, y) in a.iter_mut().zip(b) {
        *x += s * y;
    }
}

/// Element-wise difference `a - b`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub length mismatch");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Element-wise sum `a + b`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "add length mismatch");
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Scales every element by `s`, returning a new vector.
pub fn scale(a: &[f64], s: f64) -> Vec<f64> {
    a.iter().map(|x| x * s).collect()
}

/// Clamps every element of `a` into `[lo[i], hi[i]]` — the paper's
/// `clip(·, U_inf, U_sup)` operator (Eq. 4).
///
/// # Panics
///
/// Panics if lengths differ or any `lo[i] > hi[i]`.
///
/// # Examples
///
/// ```
/// let u = cocktail_math::vector::clip(&[25.0, -3.0], &[-20.0, -20.0], &[20.0, 20.0]);
/// assert_eq!(u, vec![20.0, -3.0]);
/// ```
pub fn clip(a: &[f64], lo: &[f64], hi: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), lo.len(), "clip length mismatch");
    assert_eq!(a.len(), hi.len(), "clip length mismatch");
    a.iter()
        .zip(lo.iter().zip(hi))
        .map(|(&v, (&l, &h))| {
            assert!(l <= h, "clip bounds inverted");
            v.clamp(l, h)
        })
        .collect()
}

/// Mean squared error between two equal-length slices.
///
/// # Panics
///
/// Panics if the lengths differ or the slices are empty.
pub fn mse(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "mse length mismatch");
    assert!(!a.is_empty(), "mse of empty slices");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>() / a.len() as f64
}

/// Sign of every element (`-1.0`, `0.0` or `1.0`), as used by FGSM.
pub fn sign(a: &[f64]) -> Vec<f64> {
    a.iter()
        .map(|&v| {
            if v > 0.0 {
                1.0
            } else if v < 0.0 {
                -1.0
            } else {
                0.0
            }
        })
        .collect()
}

/// Linear interpolation `(1 - t) a + t b`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn lerp(a: &[f64], b: &[f64], t: f64) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "lerp length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (1.0 - t) * x + t * y)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_has_the_bits_of_the_norm_of_the_difference() {
        let mut rng = crate::rng::seeded(5);
        for len in 0..9 {
            let region = crate::interval::BoxRegion::cube(len.max(1), -3.0, 3.0);
            let a = crate::rng::uniform_in_box(&mut rng, &region);
            let b = crate::rng::uniform_in_box(&mut rng, &region);
            let (a, b) = (&a[..len], &b[..len]);
            assert_eq!(
                distance(a, b).to_bits(),
                norm_2(&sub(a, b)).to_bits(),
                "{len}"
            );
        }
    }

    #[test]
    fn dot_orthogonal_is_zero() {
        assert_eq!(dot(&[1.0, 0.0], &[0.0, 5.0]), 0.0);
    }

    #[test]
    fn norms_agree_on_unit_axis() {
        let e = [0.0, -1.0, 0.0];
        assert_eq!(norm_1(&e), 1.0);
        assert_eq!(norm_2(&e), 1.0);
        assert_eq!(norm_inf(&e), 1.0);
    }

    #[test]
    fn norm_ordering_holds() {
        let v = [3.0, -4.0, 1.0];
        assert!(norm_inf(&v) <= norm_2(&v));
        assert!(norm_2(&v) <= norm_1(&v));
    }

    #[test]
    fn axpy_matches_manual() {
        assert_eq!(axpy(&[1.0, 2.0], 3.0, &[1.0, -1.0]), vec![4.0, -1.0]);
        let mut a = vec![1.0, 2.0];
        axpy_inplace(&mut a, -1.0, &[1.0, 1.0]);
        assert_eq!(a, vec![0.0, 1.0]);
    }

    #[test]
    fn clip_respects_bounds() {
        let out = clip(&[-100.0, 0.5, 100.0], &[-1.0; 3], &[1.0; 3]);
        assert_eq!(out, vec![-1.0, 0.5, 1.0]);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn clip_inverted_bounds_panics() {
        clip(&[0.0], &[1.0], &[-1.0]);
    }

    #[test]
    fn mse_of_identical_slices_is_zero() {
        assert_eq!(mse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn mse_matches_manual() {
        assert_eq!(mse(&[0.0, 0.0], &[2.0, 4.0]), 10.0);
    }

    #[test]
    fn sign_has_three_values() {
        assert_eq!(sign(&[-2.5, 0.0, 0.1]), vec![-1.0, 0.0, 1.0]);
    }

    #[test]
    fn lerp_endpoints() {
        let a = [0.0, 10.0];
        let b = [4.0, -10.0];
        assert_eq!(lerp(&a, &b, 0.0), a.to_vec());
        assert_eq!(lerp(&a, &b, 1.0), b.to_vec());
        assert_eq!(lerp(&a, &b, 0.5), vec![2.0, 0.0]);
    }
}
