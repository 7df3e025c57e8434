//! Matrix-free Krylov solvers: restarted GMRES and conjugate gradients.
//!
//! The matrix-free extraction path (block-Toeplitz partial-inductance
//! operators, operator-stamped MNA systems) needs iterative solvers
//! that touch the system only through matrix–vector products. Both
//! solvers here are generic over [`Scalar`] like the dense kernels:
//! `f64` for static inductance systems, [`crate::Complex64`] for AC.
//!
//! * [`gmres`] — restarted GMRES with modified Gram–Schmidt Arnoldi and
//!   Givens-rotation least squares, **right**-preconditioned so the
//!   monitored residual is the true residual of the original system.
//! * [`conjugate_gradient`] — preconditioned CG with conjugated inner
//!   products, valid for symmetric/Hermitian positive-definite
//!   operators.
//!
//! Convergence is residual-based (`‖b − A·x‖ ≤ tol·‖b‖`, checked on the
//! true residual before returning), and every failure mode is a typed
//! [`KrylovError`] — an iteration cap or a stagnation is an error, not
//! a silently wrong answer.

use crate::vecops::{axpy, norm2};
use crate::{CsrMatrix, LuFactors, Matrix, NumericError, Scalar};
use std::fmt;

/// Abstract matrix–vector product `y ← A·x` over a square operator.
///
/// Implemented by dense [`Matrix`], sparse [`CsrMatrix`], the
/// block-Toeplitz FFT operator, and by ad-hoc composite operators
/// (e.g. "sparse MNA part plus jω·L applied to a sub-slice").
pub trait LinearOperator<T: Scalar>: Sync {
    /// Operator dimension (rows == cols).
    fn dim(&self) -> usize;

    /// Computes `y ← A·x`. Both slices have length [`Self::dim`].
    fn apply(&self, x: &[T], y: &mut [T]);
}

impl<T: Scalar> LinearOperator<T> for Matrix<T> {
    fn dim(&self) -> usize {
        self.nrows()
    }

    fn apply(&self, x: &[T], y: &mut [T]) {
        for (i, yi) in y.iter_mut().enumerate() {
            let row = self.row(i);
            let mut acc = T::zero();
            for (a, b) in row.iter().zip(x) {
                acc = a.mul_add(*b, acc);
            }
            *yi = acc;
        }
    }
}

/// A real dense matrix applied to complex vectors (real and imaginary
/// parts each see the same real matvec) — the dense fallback operator
/// for AC systems whose inductance block is real.
impl LinearOperator<crate::Complex64> for Matrix<f64> {
    fn dim(&self) -> usize {
        self.nrows()
    }

    fn apply(&self, x: &[crate::Complex64], y: &mut [crate::Complex64]) {
        for (i, yi) in y.iter_mut().enumerate() {
            let row = self.row(i);
            let mut re = 0.0f64;
            let mut im = 0.0f64;
            for (a, b) in row.iter().zip(x) {
                re = a.mul_add(b.re, re);
                im = a.mul_add(b.im, im);
            }
            *yi = crate::Complex64::new(re, im);
        }
    }
}

impl<T: Scalar> LinearOperator<T> for CsrMatrix<T> {
    fn dim(&self) -> usize {
        self.nrows()
    }

    fn apply(&self, x: &[T], y: &mut [T]) {
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = T::zero();
            for (j, v) in self.row_iter(i) {
                acc = v.mul_add(x[j], acc);
            }
            *yi = acc;
        }
    }
}

/// Typed failure of a Krylov solve.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum KrylovError {
    /// Operand dimensions disagree with the operator.
    DimensionMismatch {
        /// Dimension expected (the operator's).
        expected: usize,
        /// Dimension supplied.
        found: usize,
    },
    /// The iteration cap was reached before the residual target.
    IterationCap {
        /// Matvecs performed.
        iterations: usize,
        /// Residual norm when the cap was hit.
        residual: f64,
        /// Absolute residual target that was not reached.
        target: f64,
    },
    /// The residual stopped improving while still above the target.
    Stagnation {
        /// Matvecs performed.
        iterations: usize,
        /// Residual norm at which progress stopped.
        residual: f64,
    },
    /// The recurrence broke down (e.g. an indefinite operator fed to
    /// CG, a non-positive search-direction curvature, or a non-finite
    /// value produced by the operator).
    Breakdown {
        /// Matvecs performed.
        iterations: usize,
        /// What broke.
        what: &'static str,
    },
    /// The solve was cooperatively cancelled via the budget's
    /// [`crate::CancelToken`].
    Cancelled {
        /// Matvecs performed before cancellation was observed.
        iterations: usize,
    },
    /// A [`crate::SolveBudget`] ceiling (wall clock or memory) tripped.
    BudgetExceeded {
        /// Matvecs performed before the violation was observed.
        iterations: usize,
        /// Which ceiling tripped and by how much.
        what: String,
    },
}

impl KrylovError {
    /// Matvecs performed before the failure (0 for shape errors).
    #[must_use]
    pub fn iterations(&self) -> usize {
        match self {
            Self::DimensionMismatch { .. } => 0,
            Self::IterationCap { iterations, .. }
            | Self::Stagnation { iterations, .. }
            | Self::Breakdown { iterations, .. }
            | Self::Cancelled { iterations }
            | Self::BudgetExceeded { iterations, .. } => *iterations,
        }
    }

    /// Whether a rescue rung may retry after this failure. Convergence
    /// failures (cap, stagnation, breakdown) are retryable with a
    /// stronger configuration; cancellation, budget violations, and
    /// shape errors are not.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            Self::IterationCap { .. } | Self::Stagnation { .. } | Self::Breakdown { .. }
        )
    }

    pub(crate) fn from_budget(e: crate::BudgetError, iterations: usize) -> Self {
        match e {
            crate::BudgetError::Cancelled => Self::Cancelled { iterations },
            other => Self::BudgetExceeded {
                iterations,
                what: other.to_string(),
            },
        }
    }
}

impl fmt::Display for KrylovError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DimensionMismatch { expected, found } => {
                write!(f, "krylov dimension mismatch: expected {expected}, found {found}")
            }
            Self::IterationCap {
                iterations,
                residual,
                target,
            } => write!(
                f,
                "no convergence in {iterations} iterations: residual {residual:e} > target {target:e}"
            ),
            Self::Stagnation {
                iterations,
                residual,
            } => write!(
                f,
                "stagnated after {iterations} iterations at residual {residual:e}"
            ),
            Self::Breakdown { iterations, what } => {
                write!(f, "breakdown after {iterations} iterations: {what}")
            }
            Self::Cancelled { iterations } => {
                write!(f, "solve cancelled after {iterations} iterations")
            }
            Self::BudgetExceeded { iterations, what } => {
                write!(f, "budget exceeded after {iterations} iterations: {what}")
            }
        }
    }
}

impl std::error::Error for KrylovError {}

impl From<KrylovError> for NumericError {
    fn from(e: KrylovError) -> Self {
        match e {
            KrylovError::DimensionMismatch { expected, found } => {
                NumericError::DimensionMismatch { expected, found }
            }
            KrylovError::IterationCap { iterations, .. }
            | KrylovError::Stagnation { iterations, .. }
            | KrylovError::Breakdown { iterations, .. } => {
                NumericError::NoConvergence { iterations }
            }
            KrylovError::Cancelled { .. } => NumericError::Cancelled,
            KrylovError::BudgetExceeded { what, .. } => NumericError::BudgetExceeded { what },
        }
    }
}

/// Tuning knobs for the Krylov solvers.
#[derive(Clone, Debug, PartialEq)]
pub struct KrylovOptions {
    /// Relative residual target: converged when `‖r‖ ≤ tol·‖b‖`.
    pub tol: f64,
    /// Cap on total matvecs across all restart cycles.
    pub max_iters: usize,
    /// GMRES restart length (Krylov basis size per cycle). Ignored by
    /// CG except as the stagnation window.
    pub restart: usize,
}

/// Default relative residual tolerance — tight enough that iterative
/// and direct solves agree to well under engineering accuracy in the
/// differential suites, with head-room above f64 roundoff.
pub const DEFAULT_TOL: f64 = 1e-10;

impl Default for KrylovOptions {
    fn default() -> Self {
        Self {
            tol: DEFAULT_TOL,
            max_iters: 1000,
            restart: 60,
        }
    }
}

/// A converged Krylov solution.
#[derive(Clone, Debug)]
pub struct KrylovSolution<T> {
    /// The solution vector.
    pub x: Vec<T>,
    /// Matvecs performed.
    pub iterations: usize,
    /// Final true residual norm `‖b − A·x‖`.
    pub residual: f64,
}

/// Approximate inverse `z ≈ M⁻¹·r` applied on the right of the
/// operator.
pub trait Preconditioner<T: Scalar>: Sync {
    /// Applies the preconditioner to a residual-space vector.
    fn apply(&self, r: &[T]) -> Vec<T>;
}

/// The identity preconditioner (no preconditioning).
#[derive(Clone, Copy, Debug, Default)]
pub struct IdentityPreconditioner;

impl<T: Scalar> Preconditioner<T> for IdentityPreconditioner {
    fn apply(&self, r: &[T]) -> Vec<T> {
        r.to_vec()
    }
}

/// Diagonal (Jacobi) preconditioner `M = diag(A)`.
#[derive(Clone, Debug)]
pub struct JacobiPreconditioner<T: Scalar> {
    inv: Vec<T>,
}

impl<T: Scalar> JacobiPreconditioner<T> {
    /// Builds from the operator diagonal. Exactly-zero entries are
    /// treated as 1 (those unknowns pass through unpreconditioned).
    pub fn new(diag: &[T]) -> Self {
        Self {
            inv: diag
                .iter()
                .map(|&d| if d.is_zero() { T::one() } else { T::one() / d })
                .collect(),
        }
    }

    /// Builds from the diagonal of a square dense matrix.
    pub fn from_matrix(a: &Matrix<T>) -> Self {
        let diag: Vec<T> = (0..a.nrows().min(a.ncols())).map(|i| a[(i, i)]).collect();
        Self::new(&diag)
    }
}

impl<T: Scalar> Preconditioner<T> for JacobiPreconditioner<T> {
    fn apply(&self, r: &[T]) -> Vec<T> {
        r.iter().zip(&self.inv).map(|(&v, &d)| v * d).collect()
    }
}

/// Block-diagonal preconditioner: contiguous diagonal blocks of the
/// matrix, each LU-factored once and solved exactly per application.
#[derive(Clone, Debug)]
pub struct BlockJacobiPreconditioner<T: Scalar> {
    block: usize,
    n: usize,
    factors: Vec<LuFactors<T>>,
}

impl<T: Scalar> BlockJacobiPreconditioner<T> {
    /// Factors the `block`-sized diagonal blocks of `a` (the last block
    /// may be smaller).
    ///
    /// # Errors
    ///
    /// Propagates a singular block factorization.
    pub fn new(a: &Matrix<T>, block: usize) -> Result<Self, NumericError> {
        let n = a.nrows();
        if a.ncols() != n {
            return Err(NumericError::NotSquare {
                rows: n,
                cols: a.ncols(),
            });
        }
        let block = block.clamp(1, n.max(1));
        let mut factors = Vec::new();
        let mut start = 0;
        while start < n {
            let len = block.min(n - start);
            let sub = Matrix::from_fn(len, len, |i, j| a[(start + i, start + j)]);
            factors.push(sub.lu()?);
            start += len;
        }
        Ok(Self { block, n, factors })
    }
}

impl<T: Scalar> Preconditioner<T> for BlockJacobiPreconditioner<T> {
    fn apply(&self, r: &[T]) -> Vec<T> {
        let mut z = Vec::with_capacity(self.n);
        for (k, chunk) in r.chunks(self.block).enumerate() {
            match self.factors[k].solve(chunk) {
                Ok(zk) => z.extend_from_slice(&zk),
                // Unreachable for a successfully factored block; degrade
                // to the identity rather than panic.
                Err(_) => z.extend_from_slice(chunk),
            }
        }
        z
    }
}

/// Conjugated dot product `Σ conj(xᵢ)·yᵢ` (the Hermitian inner product;
/// plain dot for reals). [`crate::dot`] is deliberately unconjugated,
/// which is wrong for complex Krylov recurrences.
fn dot_conj<T: Scalar>(x: &[T], y: &[T]) -> T {
    let mut acc = T::zero();
    for (a, b) in x.iter().zip(y) {
        acc = a.conj_val().mul_add(*b, acc);
    }
    acc
}

/// Givens rotation zeroing `g` against `f`: returns `(c, s, r)` with
/// real `c` such that `[c s; -conj(s) c]·[f; g] = [r; 0]` and
/// `c² + |s|² = 1`. Valid for real and complex scalars.
fn givens<T: Scalar>(f: T, g: T) -> (f64, T, T) {
    let fa = f.abs_val();
    let ga = g.abs_val();
    if ga == 0.0 {
        return (1.0, T::zero(), f);
    }
    if fa == 0.0 {
        return (0.0, T::one(), g);
    }
    let r_mag = fa.hypot(ga);
    let phase = f / T::from_f64(fa);
    let s = phase * g.conj_val() / T::from_f64(r_mag);
    (fa / r_mag, s, phase * T::from_f64(r_mag))
}

/// Applies a Givens rotation to the pair `(a, b)`.
#[inline]
fn rotate<T: Scalar>(c: f64, s: T, a: T, b: T) -> (T, T) {
    let cc = T::from_f64(c);
    (cc * a + s * b, cc * b - s.conj_val() * a)
}

/// Relative per-cycle improvement below which GMRES declares
/// stagnation (a healthy preconditioned cycle reduces the residual by
/// orders of magnitude; less than 0.1 % means the subspace is spent).
const STAGNATION_IMPROVEMENT: f64 = 1e-3;

fn check_dims<T: Scalar>(
    a: &dyn LinearOperator<T>,
    b: &[T],
    x0: Option<&[T]>,
) -> Result<usize, KrylovError> {
    let n = a.dim();
    if b.len() != n {
        return Err(KrylovError::DimensionMismatch {
            expected: n,
            found: b.len(),
        });
    }
    if let Some(x) = x0 {
        if x.len() != n {
            return Err(KrylovError::DimensionMismatch {
                expected: n,
                found: x.len(),
            });
        }
    }
    Ok(n)
}

/// Restarted, right-preconditioned GMRES.
///
/// Solves `A·x = b` for a general (square, possibly complex,
/// non-Hermitian) operator. `x0` is the warm start — the loop-sweep
/// path feeds the previous frequency's solution here. Right
/// preconditioning keeps the Givens-updated least-squares residual
/// equal to the *true* residual of the original system, so convergence
/// checks never depend on the preconditioner quality; the final
/// residual is additionally re-verified against `b − A·x` at each
/// restart boundary before returning.
///
/// # Errors
///
/// [`KrylovError::IterationCap`] when `opts.max_iters` matvecs did not
/// reach the target, [`KrylovError::Stagnation`] when a full restart
/// cycle fails to improve the residual (including rank-deficient
/// operators, where the minimal-residual floor is above the target),
/// and [`KrylovError::DimensionMismatch`] on shape errors.
pub fn gmres<T: Scalar>(
    a: &dyn LinearOperator<T>,
    b: &[T],
    x0: Option<&[T]>,
    m: &dyn Preconditioner<T>,
    opts: &KrylovOptions,
) -> Result<KrylovSolution<T>, KrylovError> {
    gmres_guarded(a, b, x0, m, opts, &crate::SolveGuard::unlimited())
}

/// [`gmres`] with a [`crate::SolveGuard`] polled at every iteration.
///
/// Identical arithmetic to [`gmres`] (the plain entry point delegates
/// here with an unlimited guard), plus cooperative cancellation and
/// wall-clock deadlines surfacing as [`KrylovError::Cancelled`] /
/// [`KrylovError::BudgetExceeded`], and detection of non-finite
/// residual or Arnoldi norms (NaN/Inf produced by the operator) as a
/// typed [`KrylovError::Breakdown`] instead of a silent non-convergent
/// spin.
///
/// # Errors
///
/// As [`gmres`], plus the budget variants above.
pub fn gmres_guarded<T: Scalar>(
    a: &dyn LinearOperator<T>,
    b: &[T],
    x0: Option<&[T]>,
    m: &dyn Preconditioner<T>,
    opts: &KrylovOptions,
    guard: &crate::SolveGuard,
) -> Result<KrylovSolution<T>, KrylovError> {
    let n = check_dims(a, b, x0)?;
    let bnorm = norm2(b);
    let mut x = x0.map_or_else(|| vec![T::zero(); n], <[T]>::to_vec);
    if bnorm == 0.0 {
        return Ok(KrylovSolution {
            x: vec![T::zero(); n],
            iterations: 0,
            residual: 0.0,
        });
    }
    let target = opts.tol * bnorm;
    let restart = opts.restart.max(1);
    let mut iterations = 0usize;
    let mut last_cycle_residual = f64::INFINITY;

    loop {
        if let Err(e) = guard.check() {
            return Err(KrylovError::from_budget(e, iterations));
        }
        // True residual r = b − A·x at every cycle boundary.
        let mut r = vec![T::zero(); n];
        a.apply(&x, &mut r);
        for (ri, bi) in r.iter_mut().zip(b) {
            *ri = *bi - *ri;
        }
        let beta = norm2(&r);
        if !beta.is_finite() {
            return Err(KrylovError::Breakdown {
                iterations,
                what: "non-finite residual norm (operator produced NaN/Inf)",
            });
        }
        #[cfg(feature = "solver-faults")]
        if crate::faults::take_gmres_stagnation() {
            return Err(KrylovError::Stagnation {
                iterations,
                residual: beta,
            });
        }
        if beta <= target {
            return Ok(KrylovSolution {
                x,
                iterations,
                residual: beta,
            });
        }
        if iterations >= opts.max_iters {
            return Err(KrylovError::IterationCap {
                iterations,
                residual: beta,
                target,
            });
        }
        if beta > last_cycle_residual * (1.0 - STAGNATION_IMPROVEMENT) {
            return Err(KrylovError::Stagnation {
                iterations,
                residual: beta,
            });
        }
        last_cycle_residual = beta;

        // Arnoldi with modified Gram–Schmidt on A·M⁻¹.
        let inv_beta = T::from_f64(1.0 / beta);
        let mut basis: Vec<Vec<T>> = vec![r.iter().map(|&v| v * inv_beta).collect()];
        let mut preimages: Vec<Vec<T>> = Vec::new(); // zⱼ = M⁻¹·vⱼ
        let mut hcols: Vec<Vec<T>> = Vec::new(); // rotated Hessenberg columns
        let mut rotations: Vec<(f64, T)> = Vec::new();
        let mut g = vec![T::zero(); restart + 1];
        if let Some(g0) = g.first_mut() {
            *g0 = T::from_f64(beta);
        }
        let mut k = 0usize;

        while k < restart && iterations < opts.max_iters {
            if let Err(e) = guard.check() {
                return Err(KrylovError::from_budget(e, iterations));
            }
            iterations += 1;
            let z = m.apply(&basis[k]);
            let mut w = vec![T::zero(); n];
            a.apply(&z, &mut w);
            #[cfg(feature = "solver-faults")]
            if crate::faults::take_matvec_nan() {
                if let Some(w0) = w.first_mut() {
                    *w0 = T::from_f64(f64::NAN);
                }
            }
            preimages.push(z);

            let mut hcol = vec![T::zero(); k + 2];
            for (i, vi) in basis.iter().enumerate() {
                let hik = dot_conj(vi, &w);
                hcol[i] = hik;
                axpy(-hik, vi, &mut w);
            }
            let hnext = norm2(&w);
            if !hnext.is_finite() {
                return Err(KrylovError::Breakdown {
                    iterations,
                    what: "non-finite Arnoldi norm (operator produced NaN/Inf)",
                });
            }
            hcol[k + 1] = T::from_f64(hnext);

            for (i, &(c, s)) in rotations.iter().enumerate() {
                let (a1, a2) = rotate(c, s, hcol[i], hcol[i + 1]);
                hcol[i] = a1;
                hcol[i + 1] = a2;
            }
            let (c, s, rr) = givens(hcol[k], hcol[k + 1]);
            hcol[k] = rr;
            hcol[k + 1] = T::zero();
            rotations.push((c, s));
            let (g1, g2) = rotate(c, s, g[k], g[k + 1]);
            g[k] = g1;
            g[k + 1] = g2;
            hcols.push(hcol);
            k += 1;

            let est_residual = g[k].abs_val();
            // Happy breakdown: the Krylov subspace became invariant; no
            // further columns can help, solve with what we have.
            let happy = hnext <= f64::EPSILON * beta.max(1.0);
            if est_residual <= target || happy {
                break;
            }
            let inv_h = T::from_f64(1.0 / hnext);
            basis.push(w.iter().map(|&v| v * inv_h).collect());
        }

        // Back-substitute H(0..k,0..k)·y = g(0..k).
        let mut y = vec![T::zero(); k];
        let mut singular = false;
        for i in (0..k).rev() {
            let mut acc = g[i];
            for (j, yj) in y.iter().enumerate().take(k).skip(i + 1) {
                acc -= hcols[j][i] * *yj;
            }
            let d = hcols[i][i];
            if d.abs_val() <= f64::EPSILON * beta {
                // Rank-deficient projected system: the residual cannot
                // be reduced inside this subspace.
                singular = true;
                break;
            }
            y[i] = acc / d;
        }
        if singular {
            return Err(KrylovError::Stagnation {
                iterations,
                residual: beta,
            });
        }
        for (yj, zj) in y.iter().zip(&preimages) {
            axpy(*yj, zj, &mut x);
        }
        // Loop continues: the next cycle re-computes the true residual
        // and returns, caps, or stagnates there.
    }
}

/// Preconditioned conjugate gradients for symmetric/Hermitian
/// positive-definite operators.
///
/// Uses conjugated inner products, so the same code is plain CG over
/// `f64` and "complex CG" (Hermitian PD) over [`crate::Complex64`].
/// The preconditioner must itself be symmetric/Hermitian positive
/// definite (Jacobi and block-Jacobi of an HPD matrix are).
///
/// # Errors
///
/// [`KrylovError::Breakdown`] when a search direction shows
/// non-positive curvature (the operator is not positive definite),
/// [`KrylovError::IterationCap`] / [`KrylovError::Stagnation`] as in
/// [`gmres`], and [`KrylovError::DimensionMismatch`] on shape errors.
pub fn conjugate_gradient<T: Scalar>(
    a: &dyn LinearOperator<T>,
    b: &[T],
    x0: Option<&[T]>,
    m: &dyn Preconditioner<T>,
    opts: &KrylovOptions,
) -> Result<KrylovSolution<T>, KrylovError> {
    conjugate_gradient_guarded(a, b, x0, m, opts, &crate::SolveGuard::unlimited())
}

/// [`conjugate_gradient`] with a [`crate::SolveGuard`] polled at every
/// iteration — cancellation, wall-clock deadlines, and non-finite
/// residual detection, with arithmetic identical to the plain entry
/// point (which delegates here with an unlimited guard).
///
/// # Errors
///
/// As [`conjugate_gradient`], plus [`KrylovError::Cancelled`] /
/// [`KrylovError::BudgetExceeded`].
pub fn conjugate_gradient_guarded<T: Scalar>(
    a: &dyn LinearOperator<T>,
    b: &[T],
    x0: Option<&[T]>,
    m: &dyn Preconditioner<T>,
    opts: &KrylovOptions,
    guard: &crate::SolveGuard,
) -> Result<KrylovSolution<T>, KrylovError> {
    let n = check_dims(a, b, x0)?;
    let bnorm = norm2(b);
    let mut x = x0.map_or_else(|| vec![T::zero(); n], <[T]>::to_vec);
    if bnorm == 0.0 {
        return Ok(KrylovSolution {
            x: vec![T::zero(); n],
            iterations: 0,
            residual: 0.0,
        });
    }
    let target = opts.tol * bnorm;

    let mut r = vec![T::zero(); n];
    a.apply(&x, &mut r);
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri = *bi - *ri;
    }
    let mut z = m.apply(&r);
    let mut p = z.clone();
    let mut rz = dot_conj(&r, &z);
    let mut iterations = 0usize;
    let mut best = f64::INFINITY;
    let mut since_improvement = 0usize;
    let window = opts.restart.max(10);
    let mut ap = vec![T::zero(); n];

    loop {
        if let Err(e) = guard.check() {
            return Err(KrylovError::from_budget(e, iterations));
        }
        let res = norm2(&r);
        if !res.is_finite() {
            return Err(KrylovError::Breakdown {
                iterations,
                what: "non-finite residual norm (operator produced NaN/Inf)",
            });
        }
        if res <= target {
            return Ok(KrylovSolution {
                x,
                iterations,
                residual: res,
            });
        }
        if iterations >= opts.max_iters {
            return Err(KrylovError::IterationCap {
                iterations,
                residual: res,
                target,
            });
        }
        if res < best * (1.0 - STAGNATION_IMPROVEMENT) {
            best = res;
            since_improvement = 0;
        } else {
            since_improvement += 1;
            if since_improvement >= window {
                return Err(KrylovError::Stagnation {
                    iterations,
                    residual: res,
                });
            }
        }

        iterations += 1;
        a.apply(&p, &mut ap);
        let denom = dot_conj(&p, &ap);
        if denom.real_part() <= 0.0 || !denom.real_part().is_finite() {
            return Err(KrylovError::Breakdown {
                iterations,
                what: "non-positive curvature: operator is not positive definite",
            });
        }
        let alpha = rz / denom;
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &ap, &mut r);
        z = m.apply(&r);
        let rz_new = dot_conj(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for (pi, zi) in p.iter_mut().zip(&z) {
            *pi = *zi + beta * *pi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex64;

    fn laplacian(n: usize) -> Matrix<f64> {
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                2.5
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn gmres_solves_real_system() {
        let n = 40;
        let a = laplacian(n);
        let b: Vec<f64> = (0..n).map(|i| (0.3 * i as f64).sin()).collect();
        let sol = gmres(&a, &b, None, &IdentityPreconditioner, &KrylovOptions::default())
            .unwrap();
        let exact = a.lu().unwrap().solve(&b).unwrap();
        for (g, e) in sol.x.iter().zip(&exact) {
            assert!((g - e).abs() < 1e-9, "{g} vs {e}");
        }
        assert!(sol.residual <= 1e-10 * norm2(&b));
    }

    #[test]
    fn cg_matches_cholesky_with_jacobi() {
        let n = 60;
        let a = laplacian(n);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        let m = JacobiPreconditioner::from_matrix(&a);
        let sol = conjugate_gradient(&a, &b, None, &m, &KrylovOptions::default()).unwrap();
        let exact = a.cholesky().unwrap().solve(&b).unwrap();
        for (g, e) in sol.x.iter().zip(&exact) {
            assert!((g - e).abs() < 1e-9);
        }
    }

    #[test]
    fn gmres_solves_complex_system() {
        let n = 24;
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                Complex64::new(3.0, 1.5)
            } else if i.abs_diff(j) == 1 {
                Complex64::new(-0.7, 0.2)
            } else {
                Complex64::ZERO
            }
        });
        let b: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64).cos(), 0.5))
            .collect();
        let sol = gmres(&a, &b, None, &IdentityPreconditioner, &KrylovOptions::default())
            .unwrap();
        let exact = a.lu().unwrap().solve(&b).unwrap();
        for (g, e) in sol.x.iter().zip(&exact) {
            assert!((*g - *e).abs() < 1e-9);
        }
    }

    #[test]
    fn warm_start_converges_immediately() {
        let n = 30;
        let a = laplacian(n);
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let exact = a.lu().unwrap().solve(&b).unwrap();
        let sol = gmres(
            &a,
            &b,
            Some(&exact),
            &IdentityPreconditioner,
            &KrylovOptions::default(),
        )
        .unwrap();
        assert_eq!(sol.iterations, 0, "exact warm start needs no iterations");
    }

    #[test]
    fn iteration_cap_is_typed() {
        let n = 50;
        let a = laplacian(n);
        let b = vec![1.0; n];
        let opts = KrylovOptions {
            tol: 1e-14,
            max_iters: 3,
            restart: 2,
        };
        match gmres(&a, &b, None, &IdentityPreconditioner, &opts) {
            Err(KrylovError::IterationCap { iterations, .. }) => assert!(iterations <= 3),
            other => panic!("expected IterationCap, got {other:?}"),
        }
    }

    #[test]
    fn singular_system_stagnates() {
        // Rank-deficient: last unknown decoupled, b has a component in
        // the null space — the residual floor is 1, far above target.
        let n = 12;
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j && i + 1 < n {
                1.0
            } else {
                0.0
            }
        });
        let b = vec![1.0; n];
        match gmres(&a, &b, None, &IdentityPreconditioner, &KrylovOptions::default()) {
            Err(KrylovError::Stagnation { residual, .. }) => {
                assert!(residual >= 0.99, "floor ≈ 1, got {residual}")
            }
            other => panic!("expected Stagnation, got {other:?}"),
        }
    }

    #[test]
    fn cg_rejects_indefinite_operator() {
        let a = Matrix::from_fn(4, 4, |i, j| {
            if i != j {
                0.0
            } else if i % 2 == 0 {
                1.0
            } else {
                -1.0
            }
        });
        let b = vec![1.0; 4];
        match conjugate_gradient(&a, &b, None, &IdentityPreconditioner, &KrylovOptions::default())
        {
            Err(KrylovError::Breakdown { .. }) => {}
            other => panic!("expected Breakdown, got {other:?}"),
        }
    }

    #[test]
    fn block_jacobi_accelerates_gmres() {
        let n = 64;
        let a = laplacian(n);
        let b = vec![1.0; n];
        let opts = KrylovOptions::default();
        let plain = gmres(&a, &b, None, &IdentityPreconditioner, &opts).unwrap();
        let m = BlockJacobiPreconditioner::new(&a, 8).unwrap();
        let pre = gmres(&a, &b, None, &m, &opts).unwrap();
        assert!(
            pre.iterations < plain.iterations,
            "block-Jacobi {} vs plain {}",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn csr_operator_agrees_with_dense() {
        let n = 20;
        let a = laplacian(n);
        let mut t = crate::Triplets::new(n, n);
        for i in 0..n {
            for j in 0..n {
                if a[(i, j)] != 0.0 {
                    t.push(i, j, a[(i, j)]);
                }
            }
        }
        let csr = t.to_csr();
        let x: Vec<f64> = (0..n).map(|i| i as f64 - 3.0).collect();
        let mut yd = vec![0.0; n];
        let mut ys = vec![0.0; n];
        LinearOperator::apply(&a, &x, &mut yd);
        LinearOperator::apply(&csr, &x, &mut ys);
        assert_eq!(yd, ys);
    }

    #[test]
    fn real_matrix_on_complex_vectors() {
        let a = laplacian(6);
        let x: Vec<Complex64> = (0..6).map(|i| Complex64::new(i as f64, -1.0)).collect();
        let mut y = vec![Complex64::ZERO; 6];
        LinearOperator::<Complex64>::apply(&a, &x, &mut y);
        let re: Vec<f64> = x.iter().map(|v| v.re).collect();
        let mut want = vec![0.0; 6];
        LinearOperator::<f64>::apply(&a, &re, &mut want);
        for (yi, wi) in y.iter().zip(&want) {
            assert_eq!(yi.re, *wi);
        }
    }

    #[test]
    fn dimension_mismatch_is_typed() {
        let a = laplacian(4);
        let b = vec![1.0; 5];
        assert!(matches!(
            gmres(&a, &b, None, &IdentityPreconditioner, &KrylovOptions::default()),
            Err(KrylovError::DimensionMismatch { expected: 4, found: 5 })
        ));
    }

    #[test]
    fn errors_display_and_convert() {
        let e = KrylovError::Stagnation {
            iterations: 7,
            residual: 1e-3,
        };
        assert!(e.to_string().contains("stagnated"));
        assert!(matches!(
            NumericError::from(e),
            NumericError::NoConvergence { iterations: 7 }
        ));
        let e = KrylovError::IterationCap {
            iterations: 9,
            residual: 1.0,
            target: 1e-10,
        };
        assert!(e.to_string().contains("no convergence"));
    }
}
