//! Seeded random sampling helpers.
//!
//! Every stochastic piece of the reproduction (initial-state sampling,
//! exploration noise, disturbances, adversarial noise) draws through these
//! helpers so that experiments are reproducible from a single `u64` seed.

use crate::interval::BoxRegion;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};

/// Creates the workspace-standard seeded RNG.
///
/// # Examples
///
/// ```
/// use rand::Rng;
///
/// let mut a = cocktail_math::rng::seeded(7);
/// let mut b = cocktail_math::rng::seeded(7);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Samples a point uniformly from a box region.
///
/// # Examples
///
/// ```
/// use cocktail_math::BoxRegion;
///
/// let b = BoxRegion::cube(3, -0.5, 0.5);
/// let mut rng = cocktail_math::rng::seeded(1);
/// let p = cocktail_math::rng::uniform_in_box(&mut rng, &b);
/// assert!(b.contains(&p));
/// ```
pub fn uniform_in_box<R: Rng + ?Sized>(rng: &mut R, b: &BoxRegion) -> Vec<f64> {
    let mut out = vec![0.0; b.dim()];
    uniform_in_box_into(rng, b, &mut out);
    out
}

/// [`uniform_in_box`] into a caller-owned slice: the same draws from
/// `rng`, without allocating.
///
/// # Panics
///
/// Panics if `out.len() != b.dim()`.
pub fn uniform_in_box_into<R: Rng + ?Sized>(rng: &mut R, b: &BoxRegion, out: &mut [f64]) {
    assert_eq!(out.len(), b.dim(), "point dimension mismatch");
    for (o, d) in out.iter_mut().zip(b.intervals()) {
        *o = if d.width() == 0.0 {
            d.lo()
        } else {
            rng.gen_range(d.lo()..=d.hi())
        };
    }
}

/// Samples a vector whose components are uniform in `[-amplitude, amplitude]`.
///
/// # Panics
///
/// Panics if `amplitude < 0`.
pub fn uniform_symmetric<R: Rng + ?Sized>(rng: &mut R, dim: usize, amplitude: f64) -> Vec<f64> {
    assert!(amplitude >= 0.0, "amplitude must be non-negative");
    if amplitude == 0.0 {
        return vec![0.0; dim];
    }
    (0..dim)
        .map(|_| rng.gen_range(-amplitude..=amplitude))
        .collect()
}

/// Samples a vector of iid Gaussians `N(0, std²)`.
///
/// # Panics
///
/// Panics if `std < 0` or is not finite.
#[allow(
    clippy::expect_used,
    reason = "std is validated finite and positive just above"
)]
pub fn gaussian_vector<R: Rng + ?Sized>(rng: &mut R, dim: usize, std: f64) -> Vec<f64> {
    assert!(
        std >= 0.0 && std.is_finite(),
        "std must be finite and non-negative"
    );
    if std == 0.0 {
        return vec![0.0; dim];
    }
    let normal = Normal::new(0.0, std).expect("validated std");
    (0..dim).map(|_| normal.sample(rng)).collect()
}

/// Draws `count` points uniformly from a box (the paper's 500-sample
/// initial-state evaluation).
pub fn sample_box<R: Rng + ?Sized>(rng: &mut R, b: &BoxRegion, count: usize) -> Vec<Vec<f64>> {
    (0..count).map(|_| uniform_in_box(rng, b)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(42);
        let mut b = seeded(42);
        let xa: Vec<f64> = (0..10).map(|_| a.gen()).collect();
        let xb: Vec<f64> = (0..10).map(|_| b.gen()).collect();
        assert_eq!(xa, xb);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded(1);
        let mut b = seeded(2);
        let xa: Vec<u64> = (0..4).map(|_| a.gen()).collect();
        let xb: Vec<u64> = (0..4).map(|_| b.gen()).collect();
        assert_ne!(xa, xb);
    }

    #[test]
    fn uniform_in_box_stays_inside() {
        let b = BoxRegion::from_bounds(&[-2.0, 0.0, 10.0], &[2.0, 0.0, 11.0]);
        let mut rng = seeded(3);
        for _ in 0..100 {
            let p = uniform_in_box(&mut rng, &b);
            assert!(b.contains(&p));
            assert_eq!(p[1], 0.0); // degenerate dimension
        }
    }

    #[test]
    fn uniform_symmetric_respects_amplitude() {
        let mut rng = seeded(4);
        for _ in 0..50 {
            let v = uniform_symmetric(&mut rng, 5, 0.3);
            assert!(v.iter().all(|x| x.abs() <= 0.3));
        }
        assert_eq!(uniform_symmetric(&mut rng, 3, 0.0), vec![0.0; 3]);
    }

    #[test]
    fn gaussian_vector_zero_std_is_zero() {
        let mut rng = seeded(5);
        assert_eq!(gaussian_vector(&mut rng, 4, 0.0), vec![0.0; 4]);
    }

    #[test]
    fn gaussian_vector_has_plausible_spread() {
        let mut rng = seeded(6);
        let v = gaussian_vector(&mut rng, 10_000, 2.0);
        let std = crate::stats::std_dev(&v);
        assert!((std - 2.0).abs() < 0.1, "std {std}");
    }

    #[test]
    fn sample_box_count_and_membership() {
        let b = BoxRegion::new(vec![Interval::new(0.0, 1.0)]);
        let mut rng = seeded(7);
        let pts = sample_box(&mut rng, &b, 17);
        assert_eq!(pts.len(), 17);
        assert!(pts.iter().all(|p| b.contains(p)));
    }
}
