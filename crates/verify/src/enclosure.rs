//! Controller enclosures: sound output bounds over state boxes.

use cocktail_math::{BoxRegion, Interval, Matrix};
use cocktail_nn::Mlp;

/// A sound enclosure of a controller's output over state boxes: for every
/// concrete `x ∈ q`, `κ(x)` lies inside the returned intervals.
///
/// The reachability and invariant analyses consume controllers exclusively
/// through this trait, so they work identically with the paper's Bernstein
/// certificate, plain interval bound propagation (an ablation path), or
/// the exact enclosure of a linear law.
pub trait ControlEnclosure: Send + Sync {
    /// State dimension.
    fn state_dim(&self) -> usize;

    /// Control dimension.
    fn control_dim(&self) -> usize;

    /// Sound output bounds over `q`.
    ///
    /// # Panics
    ///
    /// Implementations panic when `q.dim() != self.state_dim()` or when `q`
    /// lies outside the certified domain.
    fn enclose(&self, q: &BoxRegion) -> Vec<Interval>;

    /// [`Self::enclose`] of every cell of a product grid, in flat order
    /// (axis 0 fastest), [`Self::control_dim`] intervals per cell in one
    /// flat list: `axes[i]` lists the cells' intervals on axis `i`. An
    /// implementation may share work between cells, but each cell's
    /// intervals must be its `enclose`, bit for bit. The default encloses
    /// one cell at a time.
    ///
    /// # Panics
    ///
    /// As [`Self::enclose`], for any cell.
    fn enclose_grid(&self, axes: &[&[Interval]]) -> Vec<Interval> {
        enclose_each_cell(self, axes)
    }
}

/// [`ControlEnclosure::enclose_grid`] by one [`ControlEnclosure::enclose`]
/// per cell.
pub(crate) fn enclose_each_cell<E: ControlEnclosure + ?Sized>(
    enclosure: &E,
    axes: &[&[Interval]],
) -> Vec<Interval> {
    let total = axes.iter().map(|cells| cells.len()).product();
    (0..total)
        .flat_map(|mut flat| {
            let cell = axes
                .iter()
                .map(|cells| {
                    let iv = cells[flat % cells.len()];
                    flat /= cells.len();
                    iv
                })
                .collect();
            enclosure.enclose(&BoxRegion::new(cell))
        })
        .collect()
}

/// Interval-bound-propagation enclosure of a scaled MLP — no Bernstein
/// certificate needed, used as the ablation alternative in the benches.
#[derive(Debug, Clone)]
pub struct IbpEnclosure {
    net: Mlp,
    scale: Vec<f64>,
}

impl IbpEnclosure {
    /// Wraps a scaled network.
    ///
    /// # Panics
    ///
    /// Panics if `scale.len() != net.output_dim()`.
    pub fn new(net: Mlp, scale: Vec<f64>) -> Self {
        assert_eq!(scale.len(), net.output_dim(), "scale length mismatch");
        Self { net, scale }
    }
}

impl ControlEnclosure for IbpEnclosure {
    fn state_dim(&self) -> usize {
        self.net.input_dim()
    }

    fn control_dim(&self) -> usize {
        self.net.output_dim()
    }

    fn enclose(&self, q: &BoxRegion) -> Vec<Interval> {
        self.net
            .bounds(q)
            .into_iter()
            .zip(&self.scale)
            .map(|(iv, &s)| iv * s)
            .collect()
    }
}

/// Exact enclosure of the linear feedback law `u = −K x` (interval matrix-
/// vector product is exact for linear maps over boxes).
#[derive(Debug, Clone)]
pub struct LinearEnclosure {
    gain: Matrix,
}

impl LinearEnclosure {
    /// Wraps a gain matrix (`u = −gain · x`).
    pub fn new(gain: Matrix) -> Self {
        Self { gain }
    }
}

impl ControlEnclosure for LinearEnclosure {
    fn state_dim(&self) -> usize {
        self.gain.cols()
    }

    fn control_dim(&self) -> usize {
        self.gain.rows()
    }

    fn enclose(&self, q: &BoxRegion) -> Vec<Interval> {
        (0..self.gain.rows())
            .map(|r| {
                let mut acc = Interval::point(0.0);
                for (c, iv) in q.intervals().iter().enumerate() {
                    acc = acc + *iv * (-self.gain[(r, c)]);
                }
                acc
            })
            .collect()
    }
}

/// Counts the `enclose` calls made on the wrapped enclosure.
#[cfg(test)]
pub(crate) struct Counting<'a> {
    inner: &'a dyn ControlEnclosure,
    calls: std::sync::atomic::AtomicUsize,
}

#[cfg(test)]
impl<'a> Counting<'a> {
    pub(crate) fn new(inner: &'a dyn ControlEnclosure) -> Self {
        Self {
            inner,
            calls: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// The calls so far.
    pub(crate) fn calls(&self) -> usize {
        self.calls.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
impl ControlEnclosure for Counting<'_> {
    fn state_dim(&self) -> usize {
        self.inner.state_dim()
    }

    fn control_dim(&self) -> usize {
        self.inner.control_dim()
    }

    fn enclose(&self, q: &BoxRegion) -> Vec<Interval> {
        self.calls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.enclose(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocktail_nn::{Activation, MlpBuilder};

    #[test]
    fn ibp_enclosure_contains_samples() {
        let net = MlpBuilder::new(2)
            .hidden(6, Activation::Relu)
            .output(1, Activation::Tanh)
            .seed(2)
            .build();
        let enc = IbpEnclosure::new(net.clone(), vec![10.0]);
        let q = BoxRegion::cube(2, -0.5, 0.5);
        let bounds = enc.enclose(&q);
        let mut rng = cocktail_math::rng::seeded(4);
        for _ in 0..200 {
            let x = cocktail_math::rng::uniform_in_box(&mut rng, &q);
            assert!(bounds[0].inflate(1e-9).contains(10.0 * net.forward(&x)[0]));
        }
    }

    #[test]
    fn linear_enclosure_is_exact_at_corners() {
        let gain = Matrix::from_rows(vec![vec![2.0, -1.0]]);
        let enc = LinearEnclosure::new(gain);
        let q = BoxRegion::from_bounds(&[0.0, 0.0], &[1.0, 2.0]);
        let iv = enc.enclose(&q)[0];
        // u = -(2x − y): min at (1,0) → −2, max at (0,2) → 2
        assert_eq!(iv.lo(), -2.0);
        assert_eq!(iv.hi(), 2.0);
    }

    #[test]
    fn trait_is_object_safe() {
        let enc: Box<dyn ControlEnclosure> = Box::new(LinearEnclosure::new(Matrix::identity(2)));
        assert_eq!(enc.state_dim(), 2);
        assert_eq!(enc.control_dim(), 2);
    }
}
