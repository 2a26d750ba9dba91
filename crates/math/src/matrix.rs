//! Row-major dense `f64` matrices.
//!
//! [`Matrix`] deliberately stays small: the Cocktail networks have at most a
//! few hundred weights per layer, so a cache-friendly `Vec<f64>` with simple
//! loops beats any clever blocking while remaining easy to audit. The type
//! carries exactly the operations the rest of the workspace needs — products,
//! transposes, outer products, element-wise maps and the operator norms used
//! by the Lipschitz analysis.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A dense row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use cocktail_math::matrix::Matrix;
///
/// let id = Matrix::identity(3);
/// let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
/// assert_eq!(&id * &a, a);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Refuses a matrix whose `data` does not hold exactly `rows × cols`
/// values, so no index into a loaded matrix can fall outside it.
impl Deserialize for Matrix {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        #[derive(Deserialize)]
        struct MatrixFields {
            rows: usize,
            cols: usize,
            data: Vec<f64>,
        }
        let MatrixFields { rows, cols, data } = MatrixFields::from_value(v)?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(serde::DeError::custom(format!(
                "a {rows}x{cols} matrix cannot hold {} values",
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix with every entry set to `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        m.data.fill(value);
        m
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix by calling `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Builds a matrix from row vectors.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have unequal lengths.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix needs at least one column");
        assert!(rows.iter().all(|r| r.len() == cols), "ragged rows");
        let data = rows.into_iter().flatten().collect();
        Self {
            rows: 0,
            cols,
            data,
        }
        .with_rows_from_len()
    }

    fn with_rows_from_len(mut self) -> Self {
        self.rows = self.data.len() / self.cols;
        self
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self { rows, cols, data }
    }

    /// Builds a single-column matrix from a slice.
    pub fn column(values: &[f64]) -> Self {
        Self::from_vec(values.len(), 1, values.to_vec())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Flat row-major view of the entries.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major view of the entries.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "column index out of bounds");
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut out = vec![0.0; self.rows];
        for (r, o) in out.iter_mut().enumerate() {
            let row = self.row(r);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            *o = acc;
        }
        out
    }

    /// Transposed matrix–vector product `Aᵀ y`.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != self.rows()`.
    pub fn matvec_transposed(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.rows, "matvec_transposed dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for (r, &yr) in y.iter().enumerate() {
            let row = self.row(r);
            for (o, a) in out.iter_mut().zip(row) {
                *o += a * yr;
            }
        }
        out
    }

    /// Matrix product `A B`.
    ///
    /// Runs in i-k-j order: the output row and the `B` row are both walked
    /// contiguously in the inner loop, so every access is sequential in the
    /// row-major buffers.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        let n = other.cols;
        for r in 0..self.rows {
            let arow = &self.data[r * self.cols..(r + 1) * self.cols];
            let orow = &mut out.data[r * n..(r + 1) * n];
            for (k, &a) in arow.iter().enumerate() {
                let brow = &other.data[k * n..(k + 1) * n];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Matrix product with a transposed right factor, `A Bᵀ`.
    ///
    /// Entry `(r, j)` is the dot product of row `r` of `A` with row `j` of
    /// `B`, accumulated left-to-right — exactly the accumulation order of
    /// [`Matrix::matvec`], so batching rows through this product is
    /// bit-identical to calling `matvec` per row.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_transpose_b(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_transpose_b_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul_transpose_b`] writing into a caller-owned output,
    /// so hot loops (batched NN forward passes) can reuse scratch matrices
    /// instead of allocating per minibatch.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()` or `out` is not
    /// `self.rows() × other.rows()`.
    pub fn matmul_transpose_b_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_transpose_b_into_with(other, out, &mut Vec::new());
    }

    /// [`Matrix::matmul_transpose_b_into`] with a caller-owned scratch
    /// buffer for the materialized `Bᵀ`: once the scratch has grown to
    /// `other`'s element count, repeated calls are allocation-free.
    ///
    /// # Panics
    ///
    /// As [`Matrix::matmul_transpose_b_into`].
    pub fn matmul_transpose_b_into_with(
        &self,
        other: &Matrix,
        out: &mut Matrix,
        bt: &mut Vec<f64>,
    ) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose_b dimension mismatch"
        );
        assert_eq!(
            out.shape(),
            (self.rows, other.rows),
            "matmul_transpose_b output shape mismatch"
        );
        // Materialize Bᵀ once so the inner loops run over contiguous
        // output columns, then drive a register-tiled microkernel: MR×NR
        // accumulator blocks live in registers across the whole k loop, so
        // each output element costs one store total instead of a
        // load+store per k (the axpy form this replaces), and the NR lane
        // dimension vectorizes without any reduction. Each output element
        // still accumulates its `k` terms in ascending order, exactly like
        // `matvec`, so the result is bit-identical to the naive
        // row-dot-row form regardless of tiling — the serving shapes
        // (2-24-24-1) tile as three full 8-lanes for the hidden layers and
        // fall to the scalar edge for the 1-wide output.
        const MR: usize = 4;
        const NR: usize = 8;
        let n = other.cols;
        let m = other.rows;
        bt.clear();
        bt.resize(n * m, 0.0);
        for (j, brow) in other.data.chunks_exact(n).enumerate() {
            for (k, &b) in brow.iter().enumerate() {
                bt[k * m + j] = b;
            }
        }
        let a = &self.data;
        let o = &mut out.data;
        let mut r = 0;
        while r + MR <= self.rows {
            let mut j = 0;
            while j + NR <= m {
                let mut acc = [[0.0f64; NR]; MR];
                for k in 0..n {
                    let lanes = &bt[k * m + j..k * m + j + NR];
                    for (i, acc_row) in acc.iter_mut().enumerate() {
                        let av = a[(r + i) * n + k];
                        for (s, &b) in acc_row.iter_mut().zip(lanes) {
                            *s += av * b;
                        }
                    }
                }
                for (i, acc_row) in acc.iter().enumerate() {
                    o[(r + i) * m + j..(r + i) * m + j + NR].copy_from_slice(acc_row);
                }
                j += NR;
            }
            while j < m {
                let mut acc = [0.0f64; MR];
                for k in 0..n {
                    let b = bt[k * m + j];
                    for (i, s) in acc.iter_mut().enumerate() {
                        *s += a[(r + i) * n + k] * b;
                    }
                }
                for (i, &s) in acc.iter().enumerate() {
                    o[(r + i) * m + j] = s;
                }
                j += 1;
            }
            r += MR;
        }
        while r < self.rows {
            let arow = &a[r * n..(r + 1) * n];
            let mut j = 0;
            while j + NR <= m {
                let mut acc = [0.0f64; NR];
                for (k, &av) in arow.iter().enumerate() {
                    let lanes = &bt[k * m + j..k * m + j + NR];
                    for (s, &b) in acc.iter_mut().zip(lanes) {
                        *s += av * b;
                    }
                }
                o[r * m + j..r * m + j + NR].copy_from_slice(&acc);
                j += NR;
            }
            while j < m {
                let mut s = 0.0;
                for (k, &av) in arow.iter().enumerate() {
                    s += av * bt[k * m + j];
                }
                o[r * m + j] = s;
                j += 1;
            }
            r += 1;
        }
    }

    /// Matrix product with a transposed left factor, `Aᵀ B`.
    ///
    /// Accumulates rank-1 updates row by row: for each shared row `r`, adds
    /// `A[r][i] * B.row(r)` into output row `i`. Both inner accesses are
    /// contiguous; this is the natural shape for batched weight gradients
    /// `deltaᵀ X`.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()`.
    pub fn matmul_transpose_a(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "matmul_transpose_a dimension mismatch"
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        let n = other.cols;
        for r in 0..self.rows {
            let arow = &self.data[r * self.cols..(r + 1) * self.cols];
            let brow = &other.data[r * n..(r + 1) * n];
            for (i, &a) in arow.iter().enumerate() {
                let orow = &mut out.data[i * n..(i + 1) * n];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Outer product `x yᵀ` as a `x.len() × y.len()` matrix.
    pub fn outer(x: &[f64], y: &[f64]) -> Matrix {
        Matrix::from_fn(x.len(), y.len(), |r, c| x[r] * y[c])
    }

    /// Applies `f` to every entry, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Adds `scale * other` to `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, scale: f64, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Multiplies every entry by `s` in place.
    pub fn scale_inplace(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Frobenius norm `sqrt(Σ a_ij²)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Induced 1-norm: maximum absolute column sum.
    pub fn norm_1(&self) -> f64 {
        (0..self.cols)
            .map(|c| (0..self.rows).map(|r| self[(r, c)].abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Induced ∞-norm: maximum absolute row sum.
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|r| self.row(r).iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Spectral norm (largest singular value), estimated by power iteration
    /// on `AᵀA`.
    ///
    /// The estimate converges from below and stops after at most 100
    /// steps, so it is a lower estimate, not a bound. Its shortfall grows
    /// as the top two singular values approach each other; on layers whose
    /// top singular value stands apart it converges to a few ulps.
    pub fn spectral_norm(&self) -> f64 {
        let n = self.cols;
        let mut v = vec![1.0 / (n as f64).sqrt(); n];
        let mut sigma = 0.0;
        for _ in 0..100 {
            // w = Aᵀ (A v)
            let av = self.matvec(&v);
            let w = self.matvec_transposed(&av);
            let norm = w.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm <= f64::MIN_POSITIVE {
                return 0.0;
            }
            let prev = sigma;
            sigma = norm.sqrt();
            for (vi, wi) in v.iter_mut().zip(&w) {
                *vi = wi / norm;
            }
            if (sigma - prev).abs() <= 1e-12 * sigma.max(1.0) {
                break;
            }
        }
        sigma
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Maximum absolute entry, or 0 for the (impossible) empty case.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, other: &Matrix) {
        self.axpy(1.0, other);
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, other: &Matrix) {
        self.axpy(-1.0, other);
    }
}

impl Mul for &Matrix {
    type Output = Matrix;

    fn mul(self, other: &Matrix) -> Matrix {
        self.matmul(other)
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        self.map(|v| v * s)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.map(|v| -v)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6}", self[(r, c)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} !~ {b}");
    }

    #[test]
    fn zeros_has_requested_shape() {
        let m = Matrix::zeros(2, 5);
        assert_eq!(m.shape(), (2, 5));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_panics() {
        let _ = Matrix::zeros(0, 3);
    }

    #[test]
    fn identity_matvec_is_noop() {
        let id = Matrix::identity(4);
        let x = [1.0, -2.0, 3.5, 0.25];
        assert_eq!(id.matvec(&x), x.to_vec());
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
    }

    #[test]
    fn matvec_transposed_matches_explicit_transpose() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let y = [1.0, -1.0, 2.0];
        assert_eq!(a.matvec_transposed(&y), a.transpose().matvec(&y));
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(vec![vec![0.0, 1.0], vec![1.0, 0.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(vec![vec![2.0, 1.0], vec![4.0, 3.0]]));
    }

    #[test]
    fn matmul_transpose_b_matches_hand_computation() {
        // A (2×3) · Bᵀ with B (2×3): out[r][j] = <A.row(r), B.row(j)>.
        let a = Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(vec![vec![1.0, 0.0, -1.0], vec![2.0, 1.0, 0.0]]);
        let c = a.matmul_transpose_b(&b);
        // row 0: 1-3 = -2 ; 2+2 = 4.  row 1: 4-6 = -2 ; 8+5 = 13.
        assert_eq!(
            c,
            Matrix::from_rows(vec![vec![-2.0, 4.0], vec![-2.0, 13.0]])
        );
    }

    #[test]
    fn matmul_transpose_b_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 4, |r, c| (r * 7 + c) as f64 * 0.25 - 1.0);
        let b = Matrix::from_fn(5, 4, |r, c| (r * 3 + c * 2) as f64 * 0.5 - 2.0);
        assert_eq!(a.matmul_transpose_b(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn matmul_transpose_b_rows_match_matvec_bitwise() {
        let a = Matrix::from_fn(4, 6, |r, c| ((r * 13 + c * 5) % 17) as f64 / 17.0 - 0.3);
        let b = Matrix::from_fn(3, 6, |r, c| ((r * 11 + c * 7) % 19) as f64 / 19.0 - 0.4);
        let out = a.matmul_transpose_b(&b);
        for r in 0..4 {
            let per_row = b.matvec(a.row(r));
            assert_eq!(out.row(r), per_row.as_slice(), "row {r}");
        }
    }

    #[test]
    fn matmul_transpose_b_tiling_edges_match_matvec_bitwise() {
        // exercise every microkernel edge: full 4×8 tiles, row remainders
        // (rows % 4 ∈ {1,2,3}), lane remainders (m % 8 ∈ {1,..,7}), and
        // the serving shapes (batch×2 · 24×2, batch×24 · 24×24/1×24)
        for (rows, m, n) in [
            (1, 1, 1),
            (3, 7, 5),
            (4, 8, 3),
            (5, 9, 4),
            (6, 24, 2),
            (9, 24, 24),
            (64, 24, 24),
            (64, 1, 24),
            (7, 17, 11),
            (13, 31, 29),
            (2, 15, 1),
            (33, 9, 7),
        ] {
            let a = Matrix::from_fn(rows, n, |r, c| ((r * 31 + c * 7) % 13) as f64 * 0.37 - 1.1);
            let b = Matrix::from_fn(m, n, |r, c| ((r * 17 + c * 5) % 11) as f64 * 0.29 - 0.8);
            let out = a.matmul_transpose_b(&b);
            for r in 0..rows {
                let per_row = b.matvec(a.row(r));
                for j in 0..m {
                    assert_eq!(
                        out[(r, j)].to_bits(),
                        per_row[j].to_bits(),
                        "({rows},{m},{n}) element ({r},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn matmul_transpose_a_matches_hand_computation() {
        // Aᵀ (3×2) · B with A (2×3), B (2×2).
        let a = Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(vec![vec![1.0, -1.0], vec![0.0, 2.0]]);
        let c = a.matmul_transpose_a(&b);
        // out[i][j] = A[0][i]*B[0][j] + A[1][i]*B[1][j]
        assert_eq!(
            c,
            Matrix::from_rows(vec![vec![1.0, 7.0], vec![2.0, 8.0], vec![3.0, 9.0],])
        );
    }

    #[test]
    fn matmul_transpose_a_matches_explicit_transpose() {
        let a = Matrix::from_fn(5, 3, |r, c| (r * 2 + c * 9) as f64 * 0.125 - 1.5);
        let b = Matrix::from_fn(5, 4, |r, c| (r + c * 3) as f64 * 0.25 - 0.75);
        assert_eq!(a.matmul_transpose_a(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_rectangular_hand_computation() {
        // (1×3) · (3×2) exercises the i-k-j loop on non-square shapes.
        let a = Matrix::from_rows(vec![vec![2.0, -1.0, 0.5]]);
        let b = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(vec![vec![1.5, 3.0]]));
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = Matrix::from_fn(3, 5, |r, c| (r as f64) * 10.0 + c as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn outer_product_entries() {
        let m = Matrix::outer(&[1.0, 2.0], &[3.0, 4.0, 5.0]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(1, 2)], 10.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::identity(2);
        let b = Matrix::filled(2, 2, 1.0);
        a.axpy(2.0, &b);
        assert_eq!(a[(0, 0)], 3.0);
        assert_eq!(a[(0, 1)], 2.0);
    }

    #[test]
    fn frobenius_norm_of_identity() {
        approx(Matrix::identity(4).frobenius_norm(), 2.0, 1e-12);
    }

    #[test]
    fn norm_1_and_inf() {
        let a = Matrix::from_rows(vec![vec![1.0, -2.0], vec![-3.0, 4.0]]);
        approx(a.norm_1(), 6.0, 1e-12);
        approx(a.norm_inf(), 7.0, 1e-12);
    }

    #[test]
    fn spectral_norm_of_diagonal() {
        let a = Matrix::from_rows(vec![vec![3.0, 0.0], vec![0.0, -7.0]]);
        approx(a.spectral_norm(), 7.0, 1e-9);
    }

    #[test]
    fn spectral_norm_of_rank_one() {
        // ||x yᵀ||₂ = ||x||₂ ||y||₂
        let a = Matrix::outer(&[3.0, 4.0], &[1.0, 2.0, 2.0]);
        approx(a.spectral_norm(), 5.0 * 3.0, 1e-9);
    }

    #[test]
    fn spectral_norm_of_zero_matrix_is_zero() {
        assert_eq!(Matrix::zeros(3, 3).spectral_norm(), 0.0);
    }

    #[test]
    fn display_is_nonempty() {
        let s = format!("{}", Matrix::identity(2));
        assert!(s.contains("1.000000"));
    }

    #[test]
    fn operators_compose() {
        let a = Matrix::identity(2);
        let b = Matrix::filled(2, 2, 2.0);
        let c = &(&a + &b) - &a;
        assert_eq!(c, b);
        let d = &b * 0.5;
        assert_eq!(d, Matrix::filled(2, 2, 1.0));
        assert_eq!(-&d, Matrix::filled(2, 2, -1.0));
    }

    #[test]
    fn rowwise_access() {
        let mut a = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        a.row_mut(0)[1] = 9.0;
        assert_eq!(a[(0, 1)], 9.0);
        assert_eq!(a.col(1), vec![9.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_wrong_length_panics() {
        Matrix::identity(2).matvec(&[1.0]);
    }
}
