//! Block-Toeplitz fast matvec via circulant embedding and FFT.
//!
//! The partial-inductance matrix of a translation-invariant filament
//! grid depends only on index *differences*: `L[(i1,i2),(j1,j2)] =
//! K(|i1−j1|, |i2−j2|)`. Such a (symmetric, two-level) block-Toeplitz
//! matrix embeds in a block-circulant one, which the 2-D FFT
//! diagonalizes — so the matvec costs `O(n log n)` time and `O(n)`
//! memory instead of the `O(n²)` of a materialized dense matrix. This
//! is the SuperVoxHenry-style trick the matrix-free extraction backend
//! is built on.
//!
//! [`ToeplitzOperator2D`] stores only the FFT of the embedded kernel
//! (`khat`, size `m1·m2` where `mᵢ` is the next power of two ≥
//! `2nᵢ−1`); [`ToeplitzOperator2D::apply`] pads the input into the
//! embedding, transforms, multiplies pointwise, inverse-transforms and
//! extracts the leading `n1×n2` block. A 1-D Toeplitz matvec is the
//! `n1 = 1` special case.

use crate::budget::CancelToken;
use crate::fft::Fft;
use crate::krylov::LinearOperator;
use crate::{Complex64, NumericError, Result};

/// Fast symmetric two-level Toeplitz operator on an `n1 × n2` grid.
///
/// Constructed from the kernel table `K(d1, d2)`; applies to vectors of
/// length `n1·n2` laid out row-major (`x[i1·n2 + i2]`). Implements
/// [`LinearOperator`] for both `f64` and [`Complex64`] vectors (the
/// kernel itself is real).
#[derive(Clone, Debug)]
pub struct ToeplitzOperator2D {
    n1: usize,
    n2: usize,
    m1: usize,
    m2: usize,
    /// FFT2 of the circulant-embedded kernel, row-major `m1 × m2`.
    khat: Vec<Complex64>,
    fft_outer: Fft,
    fft_inner: Fft,
    /// Optional cooperative-cancellation token polled between FFT
    /// stages of every apply.
    cancel: Option<CancelToken>,
}

/// Smallest power of two ≥ the circulant embedding length `2n − 1`.
fn embedding_len(n: usize) -> usize {
    (2 * n - 1).next_power_of_two()
}

impl ToeplitzOperator2D {
    /// Builds the operator from the symmetric kernel table.
    ///
    /// `kernel[d1 * n2 + d2]` is the matrix entry between two grid
    /// points whose index offsets are `(d1, d2)`; symmetry in both
    /// offsets is assumed (true for any distance-dependent kernel).
    ///
    /// # Errors
    ///
    /// [`NumericError::DimensionMismatch`] if `kernel.len() != n1·n2`
    /// or either dimension is zero.
    pub fn new(n1: usize, n2: usize, kernel: &[f64]) -> Result<Self> {
        if n1 == 0 || n2 == 0 || kernel.len() != n1 * n2 {
            return Err(NumericError::DimensionMismatch {
                expected: n1 * n2,
                found: kernel.len(),
            });
        }
        let m1 = embedding_len(n1);
        let m2 = embedding_len(n2);
        let fft_outer = Fft::new(m1)?;
        let fft_inner = Fft::new(m2)?;

        // Circulant embedding: c[p] = K(p) for p < n, c[m−p] = K(p) for
        // 1 ≤ p < n, zero padding in between — in both dimensions.
        let mut khat = vec![Complex64::ZERO; m1 * m2];
        for d1 in 0..n1 {
            for d2 in 0..n2 {
                let k = Complex64::from_real(kernel[d1 * n2 + d2]);
                let rows: &[usize] = if d1 == 0 { &[0] } else { &[d1, m1 - d1] };
                let cols: &[usize] = if d2 == 0 { &[0] } else { &[d2, m2 - d2] };
                for &r in rows {
                    for &c in cols {
                        khat[r * m2 + c] = k;
                    }
                }
            }
        }
        fft2(&fft_outer, &fft_inner, &mut khat)?;

        Ok(Self {
            n1,
            n2,
            m1,
            m2,
            khat,
            fft_outer,
            fft_inner,
            cancel: None,
        })
    }

    /// Attaches a cancellation token polled between the FFT stages of
    /// every apply. A cancelled apply produces a zero output vector;
    /// the surrounding guarded Krylov solve (sharing the same token)
    /// surfaces the typed `Cancelled` error at its next iteration
    /// boundary, so a long matvec chain cannot outlive its budget.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    fn check_cancel(&self) -> Result<()> {
        match &self.cancel {
            Some(token) if token.is_cancelled() => Err(NumericError::Cancelled),
            _ => Ok(()),
        }
    }

    /// Operator dimension `n1·n2`.
    pub fn len(&self) -> usize {
        self.n1 * self.n2
    }

    /// Whether the operator is empty (never: dimensions are ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Core convolution: `y ← T·x` with caller-supplied complex views.
    ///
    /// # Errors
    ///
    /// [`NumericError::DimensionMismatch`] on wrong slice lengths.
    fn convolve(&self, x: &[Complex64]) -> Result<Vec<Complex64>> {
        if x.len() != self.len() {
            return Err(NumericError::DimensionMismatch {
                expected: self.len(),
                found: x.len(),
            });
        }
        self.check_cancel()?;
        let mut work = vec![Complex64::ZERO; self.m1 * self.m2];
        for i1 in 0..self.n1 {
            work[i1 * self.m2..i1 * self.m2 + self.n2]
                .copy_from_slice(&x[i1 * self.n2..(i1 + 1) * self.n2]);
        }
        fft2(&self.fft_outer, &self.fft_inner, &mut work)?;
        self.check_cancel()?;
        for (w, k) in work.iter_mut().zip(&self.khat) {
            *w *= *k;
        }
        ifft2(&self.fft_outer, &self.fft_inner, &mut work)?;
        self.check_cancel()?;
        let mut y = vec![Complex64::ZERO; self.len()];
        for i1 in 0..self.n1 {
            y[i1 * self.n2..(i1 + 1) * self.n2]
                .copy_from_slice(&work[i1 * self.m2..i1 * self.m2 + self.n2]);
        }
        Ok(y)
    }

    /// Materializes the dense `n1·n2 × n1·n2` matrix (oracle/testing
    /// only — defeats the purpose at scale).
    pub fn to_dense_kernel(&self, kernel: &[f64]) -> crate::Matrix<f64> {
        let n = self.len();
        let n2 = self.n2;
        crate::Matrix::from_fn(n, n, |i, j| {
            let d1 = (i / n2).abs_diff(j / n2);
            let d2 = (i % n2).abs_diff(j % n2);
            kernel[d1 * n2 + d2]
        })
    }
}

/// Row-major 2-D FFT: length-`m2` transforms of each row, then
/// length-`m1` transforms of each column (gathered through a scratch
/// column buffer).
fn fft2(outer: &Fft, inner: &Fft, data: &mut [Complex64]) -> Result<()> {
    let (m1, m2) = (outer.len(), inner.len());
    for row in data.chunks_mut(m2) {
        inner.forward(row)?;
    }
    let mut col = vec![Complex64::ZERO; m1];
    for c in 0..m2 {
        for (r, v) in col.iter_mut().enumerate() {
            *v = data[r * m2 + c];
        }
        outer.forward(&mut col)?;
        for (r, v) in col.iter().enumerate() {
            data[r * m2 + c] = *v;
        }
    }
    Ok(())
}

/// Inverse of [`fft2`] (scaled by `1/(m1·m2)` overall).
fn ifft2(outer: &Fft, inner: &Fft, data: &mut [Complex64]) -> Result<()> {
    let (m1, m2) = (outer.len(), inner.len());
    for row in data.chunks_mut(m2) {
        inner.inverse(row)?;
    }
    let mut col = vec![Complex64::ZERO; m1];
    for c in 0..m2 {
        for (r, v) in col.iter_mut().enumerate() {
            *v = data[r * m2 + c];
        }
        outer.inverse(&mut col)?;
        for (r, v) in col.iter().enumerate() {
            data[r * m2 + c] = *v;
        }
    }
    Ok(())
}

impl LinearOperator<f64> for ToeplitzOperator2D {
    fn dim(&self) -> usize {
        self.len()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let xc: Vec<Complex64> = x.iter().map(|&v| Complex64::from_real(v)).collect();
        // `convolve` only errors on length mismatch, which the
        // LinearOperator contract excludes; fall back to zero output
        // rather than panic if violated.
        match self.convolve(&xc) {
            Ok(yc) => {
                for (yi, c) in y.iter_mut().zip(&yc) {
                    *yi = c.re;
                }
            }
            Err(_) => y.fill(0.0),
        }
    }
}

impl LinearOperator<Complex64> for ToeplitzOperator2D {
    fn dim(&self) -> usize {
        self.len()
    }

    fn apply(&self, x: &[Complex64], y: &mut [Complex64]) {
        match self.convolve(x) {
            Ok(yc) => y.copy_from_slice(&yc),
            Err(_) => y.fill(Complex64::ZERO),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(n1: usize, n2: usize) -> Vec<f64> {
        // Decaying distance kernel, loosely 1/(1+r) like a GMD mutual.
        let mut k = Vec::with_capacity(n1 * n2);
        for d1 in 0..n1 {
            for d2 in 0..n2 {
                let r = ((d1 * d1 + d2 * d2) as f64).sqrt();
                k.push(1.0 / (1.0 + r));
            }
        }
        k
    }

    fn dense_matvec(n1: usize, n2: usize, k: &[f64], x: &[f64]) -> Vec<f64> {
        let n = n1 * n2;
        let mut y = vec![0.0; n];
        for i in 0..n {
            for j in 0..n {
                let d1 = (i / n2).abs_diff(j / n2);
                let d2 = (i % n2).abs_diff(j % n2);
                y[i] += k[d1 * n2 + d2] * x[j];
            }
        }
        y
    }

    #[test]
    fn matches_dense_matvec_2d() {
        for (n1, n2) in [(1usize, 1usize), (1, 7), (3, 5), (4, 4), (8, 3), (16, 16)] {
            let k = kernel(n1, n2);
            let op = ToeplitzOperator2D::new(n1, n2, &k).unwrap();
            let x: Vec<f64> = (0..n1 * n2).map(|i| (0.7 * i as f64).sin() + 0.3).collect();
            let want = dense_matvec(n1, n2, &k, &x);
            let mut got = vec![0.0; n1 * n2];
            LinearOperator::<f64>::apply(&op, &x, &mut got);
            for (g, w) in got.iter().zip(&want) {
                assert!(
                    (g - w).abs() < 1e-10 * (1.0 + w.abs()),
                    "({n1},{n2}): {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn complex_apply_matches_real_parts() {
        let (n1, n2) = (5usize, 6usize);
        let k = kernel(n1, n2);
        let op = ToeplitzOperator2D::new(n1, n2, &k).unwrap();
        let xr: Vec<f64> = (0..n1 * n2).map(|i| (i as f64).cos()).collect();
        let xi: Vec<f64> = (0..n1 * n2).map(|i| 0.5 - (i % 3) as f64).collect();
        let xc: Vec<Complex64> = xr
            .iter()
            .zip(&xi)
            .map(|(&r, &i)| Complex64::new(r, i))
            .collect();
        let mut yc = vec![Complex64::ZERO; n1 * n2];
        LinearOperator::<Complex64>::apply(&op, &xc, &mut yc);
        let wr = dense_matvec(n1, n2, &k, &xr);
        let wi = dense_matvec(n1, n2, &k, &xi);
        for ((y, r), i) in yc.iter().zip(&wr).zip(&wi) {
            assert!((y.re - r).abs() < 1e-10 * (1.0 + r.abs()));
            assert!((y.im - i).abs() < 1e-10 * (1.0 + i.abs()));
        }
    }

    #[test]
    fn one_dimensional_case() {
        let n = 33usize;
        let k = kernel(1, n);
        let op = ToeplitzOperator2D::new(1, n, &k).unwrap();
        let x: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let want = dense_matvec(1, n, &k, &x);
        let mut got = vec![0.0; n];
        LinearOperator::<f64>::apply(&op, &x, &mut got);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-10 * (1.0 + w.abs()));
        }
    }

    #[test]
    fn rejects_bad_kernel_length() {
        assert!(matches!(
            ToeplitzOperator2D::new(3, 4, &[0.0; 5]),
            Err(NumericError::DimensionMismatch { expected: 12, found: 5 })
        ));
        assert!(ToeplitzOperator2D::new(0, 4, &[]).is_err());
    }

    #[test]
    fn cancelled_apply_zero_fills() {
        let (n1, n2) = (4usize, 4usize);
        let k = kernel(n1, n2);
        let token = CancelToken::new();
        let op = ToeplitzOperator2D::new(n1, n2, &k)
            .unwrap()
            .with_cancel(token.clone());
        let x = vec![1.0; n1 * n2];
        let mut y = vec![f64::NAN; n1 * n2];
        LinearOperator::<f64>::apply(&op, &x, &mut y);
        assert!(y.iter().all(|v| *v != 0.0), "un-cancelled apply is live");
        token.cancel();
        LinearOperator::<f64>::apply(&op, &x, &mut y);
        assert!(y.iter().all(|v| *v == 0.0), "cancelled apply zero-fills");
    }

    #[test]
    fn to_dense_kernel_agrees() {
        let (n1, n2) = (3usize, 4usize);
        let k = kernel(n1, n2);
        let op = ToeplitzOperator2D::new(n1, n2, &k).unwrap();
        let dense = op.to_dense_kernel(&k);
        let x: Vec<f64> = (0..n1 * n2).map(|i| i as f64 * 0.1 - 0.4).collect();
        let mut fast = vec![0.0; n1 * n2];
        LinearOperator::<f64>::apply(&op, &x, &mut fast);
        let mut slow = vec![0.0; n1 * n2];
        LinearOperator::<f64>::apply(&dense, &x, &mut slow);
        for (f, s) in fast.iter().zip(&slow) {
            assert!((f - s).abs() < 1e-10 * (1.0 + s.abs()));
        }
    }
}
