//! Row-major dense matrix over any [`Scalar`].
//!
//! Partial-inductance matrices are inherently dense (every pair of
//! parallel conductors couples), so the PEEC flow manipulates dense
//! symmetric matrices up to a few thousand rows. This type provides the
//! small set of operations the toolkit needs; factorizations live in
//! sibling modules ([`crate::lu`], [`crate::cholesky`], [`crate::qr`],
//! [`crate::eigen`]).

use crate::{NumericError, Result, Scalar};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// Dense row-major matrix.
#[derive(Clone, PartialEq)]
pub struct Matrix<T = f64> {
    nrows: usize,
    ncols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Creates an `nrows × ncols` matrix filled with zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            data: vec![T::zero(); nrows * ncols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::one();
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                data.push(f(i, j));
            }
        }
        Self { nrows, ncols, data }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[T]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            assert_eq!(r.len(), ncols, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        Self { nrows, ncols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Returns `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// Immutable view of the row-major backing buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the row-major backing buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        &mut self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Copies column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<T> {
        (0..self.nrows).map(|i| self[(i, j)]).collect()
    }

    /// Sets column `j` from a slice.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != nrows`.
    pub fn set_col(&mut self, j: usize, v: &[T]) {
        assert_eq!(v.len(), self.nrows);
        for i in 0..self.nrows {
            self[(i, j)] = v[i];
        }
    }

    /// Transpose.
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)])
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `x.len() != ncols`.
    pub fn matvec(&self, x: &[T]) -> Result<Vec<T>> {
        if x.len() != self.ncols {
            return Err(NumericError::DimensionMismatch {
                expected: self.ncols,
                found: x.len(),
            });
        }
        let mut y = vec![T::zero(); self.nrows];
        for i in 0..self.nrows {
            let row = self.row(i);
            let mut acc = T::zero();
            for (a, b) in row.iter().zip(x) {
                acc += *a * *b;
            }
            y[i] = acc;
        }
        Ok(y)
    }

    /// Matrix product `A·B` through the cache-blocked kernel
    /// ([`crate::gemm`]), threaded when the product is large enough to
    /// amortize thread spawn.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if the inner
    /// dimensions disagree.
    pub fn matmul(&self, rhs: &Self) -> Result<Self> {
        let flops = self.nrows * self.ncols * rhs.ncols();
        if flops < crate::gemm::PARALLEL_FLOP_THRESHOLD {
            // Skip the available-parallelism lookup for small products.
            let serial = crate::ParallelConfig {
                threads: 1,
                cache_capacity: 0,
            };
            self.matmul_with(rhs, &serial)
        } else {
            self.matmul_with(rhs, &crate::ParallelConfig::default())
        }
    }

    /// [`Matrix::matmul`] with an explicit parallelism configuration.
    /// Results are bit-identical across thread counts.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if the inner
    /// dimensions disagree.
    pub fn matmul_with(&self, rhs: &Self, cfg: &crate::ParallelConfig) -> Result<Self> {
        let mut out = Self::zeros(self.nrows, rhs.ncols);
        crate::gemm::gemm_into(&mut out, T::one(), self, rhs, cfg)?;
        Ok(out)
    }

    /// Unblocked scalar triple-loop product kept as the differential
    /// oracle for the blocked kernel (`crates/numeric/tests`); prefer
    /// [`Matrix::matmul`] everywhere else.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if the inner
    /// dimensions disagree.
    pub fn matmul_reference(&self, rhs: &Self) -> Result<Self> {
        if self.ncols != rhs.nrows {
            return Err(NumericError::DimensionMismatch {
                expected: self.ncols,
                found: rhs.nrows,
            });
        }
        let mut out = Self::zeros(self.nrows, rhs.ncols);
        for i in 0..self.nrows {
            for k in 0..self.ncols {
                let a = self[(i, k)];
                if a.is_zero() {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = out.row_mut(i);
                for (o, b) in orow.iter_mut().zip(rrow) {
                    *o += a * *b;
                }
            }
        }
        Ok(out)
    }

    /// Returns `self + rhs` scaled: `self + k·rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] on shape mismatch.
    pub fn add_scaled(&self, k: T, rhs: &Self) -> Result<Self> {
        if self.nrows != rhs.nrows || self.ncols != rhs.ncols {
            return Err(NumericError::DimensionMismatch {
                expected: self.nrows * self.ncols,
                found: rhs.nrows * rhs.ncols,
            });
        }
        let mut out = self.clone();
        for (o, r) in out.data.iter_mut().zip(&rhs.data) {
            *o += k * *r;
        }
        Ok(out)
    }

    /// Maximum absolute entry (∞-norm of the flattened matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|v| v.abs_val()).fold(0.0, f64::max)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|v| {
                let a = v.abs_val();
                a * a
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Symmetry defect `max |A_ij − A_ji|` (zero for exactly symmetric).
    pub fn symmetry_defect(&self) -> f64 {
        let mut d: f64 = 0.0;
        for i in 0..self.nrows {
            for j in (i + 1)..self.ncols.min(self.nrows) {
                d = d.max((self[(i, j)] - self[(j, i)]).abs_val());
            }
        }
        d
    }

    /// Copies the strict upper triangle onto the lower, making the
    /// matrix exactly symmetric. Used as the deterministic final pass of
    /// parallel symmetric assembly: workers fill only the upper
    /// triangle, then one serial mirror reflects it.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn mirror_upper(&mut self) {
        assert_eq!(self.nrows, self.ncols, "mirror_upper needs a square matrix");
        for i in 0..self.nrows {
            for j in (i + 1)..self.ncols {
                self.data[j * self.ncols + i] = self.data[i * self.ncols + j];
            }
        }
    }

    /// Number of exactly-zero entries (used by sparsification metrics).
    pub fn count_zeros(&self) -> usize {
        self.data.iter().filter(|v| v.is_zero()).count()
    }

    /// Extracts the square submatrix addressed by `idx` (rows and columns).
    pub fn submatrix(&self, idx: &[usize]) -> Self {
        Self::from_fn(idx.len(), idx.len(), |i, j| self[(idx[i], idx[j])])
    }
}

impl Matrix<f64> {
    /// Congruence transform `Vᵀ · A · V` used by PRIMA projection.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `V.nrows() != A.n`.
    pub fn congruence(&self, v: &Matrix<f64>) -> Result<Matrix<f64>> {
        let av = self.matmul(v)?;
        v.transpose().matmul(&av)
    }
}

impl<T: Scalar> Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[i * self.ncols + j]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[i * self.ncols + j]
    }
}

// The operator impls below panic on shape mismatch: `std::ops` traits
// cannot return `Result`, and a mismatched shape is a programming error
// at the call site. Fallible forms (`add_scaled`, `matmul`) exist.
#[allow(clippy::expect_used)]
impl<T: Scalar> Add for &Matrix<T> {
    type Output = Matrix<T>;
    fn add(self, rhs: Self) -> Matrix<T> {
        // ind101: allow(panic-policy, operator traits cannot return Result; the documented contract is a shape panic)
        self.add_scaled(T::one(), rhs).expect("shape mismatch in +")
    }
}

#[allow(clippy::expect_used)]
impl<T: Scalar> Sub for &Matrix<T> {
    type Output = Matrix<T>;
    fn sub(self, rhs: Self) -> Matrix<T> {
        self.add_scaled(-T::one(), rhs)
            // ind101: allow(panic-policy, operator traits cannot return Result; the documented contract is a shape panic)
            .expect("shape mismatch in -")
    }
}

#[allow(clippy::expect_used)]
impl<T: Scalar> Mul for &Matrix<T> {
    type Output = Matrix<T>;
    fn mul(self, rhs: Self) -> Matrix<T> {
        // ind101: allow(panic-policy, operator traits cannot return Result; the documented contract is a shape panic)
        self.matmul(rhs).expect("shape mismatch in *")
    }
}

impl<T: Scalar> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.nrows, self.ncols)?;
        for i in 0..self.nrows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.ncols.min(8) {
                write!(f, "{:?} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.ncols > 8 { "…" } else { "" })?;
        }
        if self.nrows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex64;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 2);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.col(1), vec![2.0, 4.0]);
    }

    #[test]
    fn identity_times_anything_is_identity_map() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 7.0]]);
        let i = Matrix::identity(2);
        assert_eq!(i.matmul(&a).unwrap(), a);
        assert_eq!(a.matmul(&i).unwrap(), a);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let x = vec![1.0, 0.0, -1.0];
        assert_eq!(a.matvec(&x).unwrap(), vec![-2.0, -2.0]);
    }

    #[test]
    fn matvec_dimension_error() {
        let a = Matrix::<f64>::zeros(2, 3);
        assert!(matches!(
            a.matvec(&[1.0, 2.0]),
            Err(NumericError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn complex_matmul() {
        let a = Matrix::from_rows(&[&[Complex64::I, Complex64::ZERO]]);
        let b = Matrix::from_rows(&[&[Complex64::I], &[Complex64::ONE]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c[(0, 0)], Complex64::new(-1.0, 0.0));
    }

    #[test]
    fn symmetry_defect_detects_asymmetry() {
        let s = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 5.0]]);
        assert_eq!(s.symmetry_defect(), 0.0);
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.5, 5.0]]);
        assert!((a.symmetry_defect() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn congruence_shapes() {
        let a = Matrix::identity(3);
        let v = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let r = a.congruence(&v).unwrap();
        assert_eq!(r.nrows(), 2);
        assert_eq!(r[(0, 0)], 2.0);
        assert_eq!(r[(0, 1)], 1.0);
    }

    #[test]
    fn submatrix_extracts_principal_block() {
        let a = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = a.submatrix(&[0, 2]);
        assert_eq!(s[(0, 0)], 0.0);
        assert_eq!(s[(0, 1)], 2.0);
        assert_eq!(s[(1, 1)], 10.0);
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, -4.0]]);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.frobenius_norm(), 5.0);
        assert_eq!(a.count_zeros(), 2);
    }
}
