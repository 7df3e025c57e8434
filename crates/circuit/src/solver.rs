//! Linear solver backend with automatic dense/sparse selection.
//!
//! Sparse patterns (RC grids, loop models) route to the KLU-class
//! sparse LU (BTF + AMD ordering); circuits carrying a dense
//! mutual-inductance block fall back to dense LU.
//! This split *is* the paper's run-time story: PEEC-RC fast, PEEC-RLC
//! slow, loop-model fast again.
//!
//! The [`SolverBackend`] knob picks the family: `Dense` keeps the dense
//! kernel as the differential oracle, `Sparse` forces the sparse direct
//! path (KLU-class: BTF blocks + supernodal LU), and `Auto` (the
//! default) selects by structure — small systems dense, low-density
//! patterns sparse, denser patterns whose BTF decomposes into small
//! irreducible blocks sparse as well, and everything else dense. `Auto`
//! also honours the `IND101_SOLVER_BACKEND` environment variable so CI
//! can run the whole suite under either family without code changes.
//!
//! The sparse backend splits factorization into a one-time **symbolic**
//! phase (ordering + fill pattern) and a per-matrix **numeric** phase;
//! callers that re-factor a fixed structure (transient stepping, Newton
//! iterations, AC frequency points) pass the previous factorization's
//! [`SymbolicLu`] back in via `build_with` so only the numeric phase
//! re-runs.
//!
//! Robustness layer: the dense backend keeps the assembled matrix and a
//! Hager 1-norm condition estimate; a solver built with
//! [`Solver::with_refinement`] gives every solve one round of iterative
//! refinement when the system is ill-conditioned (κ₁ beyond
//! [`ILL_COND_THRESHOLD`]). Refinement is **opt-in** so the default
//! fixed-step simulation path stays bit-for-bit reproducible; the
//! rescue ladder and the adaptive transient path — where stiff,
//! marginal systems actually arise — enable it.
//! Singular pivots are reported in the original MNA unknown ordering,
//! so analyses can name the offending node instead of an opaque pivot
//! position.

use crate::Result;
use ind101_numeric::{
    BtfForm, CsrMatrix, LuFactors, Matrix, NumericError, Scalar, SparseLu, SymbolicLu, Triplets,
};
use std::sync::Arc;

/// Threshold below which a system is always solved densely — even under
/// a forced `Sparse` backend, so tiny testbench results stay bit-for-bit
/// identical across backend settings.
pub(crate) const SMALL_DENSE: usize = 48;

/// Condition estimate beyond which dense solves are iteratively refined
/// (≈ 1/√ε: past this, half the working digits are already gone).
const ILL_COND_THRESHOLD: f64 = 1e8;

/// Auto heuristic: patterns at or below this stored-entry fraction route
/// to the sparse direct kernel.
const SPARSE_DENSITY: f64 = 0.1;

/// Auto heuristic, BTF clause: when the largest irreducible diagonal
/// block is at most `1/BTF_SMALL_BLOCK_DIVISOR` of the system, the
/// matrix factors block-by-block no matter how dense its overall
/// pattern is, so the sparse kernel wins even above [`SPARSE_DENSITY`].
const BTF_SMALL_BLOCK_DIVISOR: usize = 4;

/// Iterative-refinement rounds every sparse solve performs. Static
/// pivoting can shed digits on stiff MNA systems; residual passes
/// restore them deterministically. Each round costs a CSR matvec and a
/// triangular solve pair, so the rounds are not cheap: on the Large
/// PEEC (RLC) transient the second round alone is about a third of
/// solve time, and it seldom lowers the backward error further.
const SPARSE_REFINE_ROUNDS: usize = 2;

/// Which linear-solver family the circuit engine uses.
///
/// `Dense` is the reference oracle (partial-pivot LU on the full
/// matrix), `Sparse` is the AMD-ordered sparse direct LU with reusable
/// symbolic factorization, and `Auto` picks per system by size,
/// density, and BTF block structure. `Auto` defers to the
/// `IND101_SOLVER_BACKEND` environment variable (`dense` | `sparse` |
/// `auto`) when it is set, which is how the CI matrix forces each
/// family.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SolverBackend {
    /// Always factor the full dense matrix (differential oracle).
    Dense,
    /// Force the sparse direct path for systems above the small-dense
    /// floor.
    Sparse,
    /// Choose by structure; honours `IND101_SOLVER_BACKEND`.
    #[default]
    Auto,
}

impl SolverBackend {
    /// Parses a backend name (case-insensitive): `dense`, `sparse`,
    /// `auto`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "dense" => Some(Self::Dense),
            "sparse" => Some(Self::Sparse),
            "auto" => Some(Self::Auto),
            _ => None,
        }
    }

    /// Backend requested by `IND101_SOLVER_BACKEND`, if set and valid.
    pub fn from_env() -> Option<Self> {
        std::env::var("IND101_SOLVER_BACKEND")
            .ok()
            .and_then(|v| Self::parse(&v))
    }

    /// Resolves `Auto` through the environment: an explicit choice wins,
    /// `Auto` consults `IND101_SOLVER_BACKEND`, and an unset/invalid
    /// variable leaves the structural heuristic in charge.
    pub fn resolve(self) -> Self {
        match self {
            Self::Auto => Self::from_env().unwrap_or(Self::Auto),
            forced => forced,
        }
    }

    /// Stable lowercase name (bench/report output).
    pub fn name(self) -> &'static str {
        match self {
            Self::Dense => "dense",
            Self::Sparse => "sparse",
            Self::Auto => "auto",
        }
    }
}

/// A factored linear system `A·x = b`.
#[derive(Clone, Debug)]
pub(crate) enum Solver<T: Scalar> {
    Dense {
        fac: LuFactors<T>,
        /// Original matrix, kept for residual computation when refining.
        a: Matrix<T>,
        /// Hager 1-norm condition estimate of `a`.
        cond: f64,
        /// Iteratively refine ill-conditioned solves (opt-in).
        refine: bool,
    },
    Sparse {
        lu: SparseLu<T>,
        /// Assembled matrix, kept for the refinement matvecs.
        a: CsrMatrix<T>,
    },
}

impl<T: Scalar> Solver<T> {
    /// Chooses a backend automatically (`SolverBackend::Auto`, no reused
    /// symbolic pattern) and factors. Unaffected by the backend
    /// environment override — callers that want it go through
    /// [`Solver::build_with`] with a resolved backend.
    ///
    /// Singular failures are re-mapped so `pivot` refers to the original
    /// MNA unknown ordering regardless of backend permutations.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn build(t: &Triplets<T>) -> Result<Self> {
        Self::build_with(t, SolverBackend::Auto, None)
    }

    /// Factors under an explicit backend choice, optionally reusing a
    /// sparse symbolic factorization from a previous same-pattern build
    /// (the hint is validated and silently ignored on mismatch).
    pub(crate) fn build_with(
        t: &Triplets<T>,
        backend: SolverBackend,
        hint: Option<&Arc<SymbolicLu>>,
    ) -> Result<Self> {
        #[cfg(feature = "solver-faults")]
        if let Some(pivot) = crate::faults::take_singular_pivot() {
            return Err(NumericError::Singular { pivot }.into());
        }
        let n = t.nrows();
        if n <= SMALL_DENSE {
            return Self::build_dense(t);
        }
        match backend {
            SolverBackend::Dense => return Self::build_dense(t),
            SolverBackend::Sparse => return Self::build_sparse(t.to_csr(), hint),
            SolverBackend::Auto => {}
        }
        let csr = t.to_csr();
        if csr.density() <= SPARSE_DENSITY || Self::btf_prefers_sparse(&csr) {
            // Sparse pattern — or a denser pattern whose BTF decomposes
            // into small independent blocks: the sparse direct kernel.
            // A static-pivot singularity is not proof of a singular
            // matrix, so Auto retries densely (partial pivoting) before
            // giving up; a *structurally* singular pattern also retries
            // densely so the error the caller sees names a numeric
            // pivot, as the dense oracle always has.
            match Self::build_sparse(csr, hint) {
                Err(crate::CircuitError::Numeric(
                    NumericError::Singular { .. } | NumericError::StructurallySingular { .. },
                )) => Self::build_dense(t),
                other => other,
            }
        } else {
            Self::build_dense(t)
        }
    }

    /// BTF-structure clause of the `Auto` heuristic: `true` when the
    /// pattern decomposes into irreducible blocks small enough
    /// (largest ≤ `dim / BTF_SMALL_BLOCK_DIVISOR`) that block-by-block
    /// factorization beats a dense solve regardless of density. An
    /// unmatchable (structurally singular) pattern reports `false` and
    /// lets the dense path produce the canonical pivot error.
    fn btf_prefers_sparse(csr: &CsrMatrix<T>) -> bool {
        BtfForm::analyze(csr)
            .map(|f| f.max_block_dim() * BTF_SMALL_BLOCK_DIVISOR <= f.dim())
            .unwrap_or(false)
    }

    fn build_sparse(csr: CsrMatrix<T>, hint: Option<&Arc<SymbolicLu>>) -> Result<Self> {
        let lu = match hint {
            Some(sym) if sym.matches(&csr) => SparseLu::factor_with(Arc::clone(sym), &csr)?,
            _ => SparseLu::factor(&csr)?,
        };
        Ok(Self::Sparse { lu, a: csr })
    }

    fn build_dense(t: &Triplets<T>) -> Result<Self> {
        let a = t.to_dense();
        let fac = a.lu()?;
        // Condition estimate costs a handful of O(n²) solves — noise
        // next to the O(n³) factorization it piggybacks on. A failed
        // estimate (cannot happen for valid factors) degrades to "well
        // conditioned" rather than failing the build.
        let cond = fac.condest_1(a.norm1()).unwrap_or(0.0);
        Ok(Self::Dense {
            fac,
            a,
            cond,
            refine: false,
        })
    }

    /// Enables one round of iterative refinement on ill-conditioned
    /// dense solves. No-op for the sparse backend, which always refines.
    #[must_use]
    pub(crate) fn with_refinement(mut self) -> Self {
        if let Self::Dense { refine, .. } = &mut self {
            *refine = true;
        }
        self
    }

    /// Solves for one right-hand side, iteratively refining dense
    /// solutions when refinement is enabled and the system is
    /// ill-conditioned.
    pub(crate) fn solve(&self, b: &[T]) -> Result<Vec<T>> {
        match self {
            Self::Dense {
                fac,
                a,
                cond,
                refine,
            } => {
                if *refine && *cond > ILL_COND_THRESHOLD {
                    Ok(fac.solve_refined(a, b)?.x)
                } else {
                    Ok(fac.solve(b)?)
                }
            }
            // Sparse solves always refine: static pivoting trades
            // pivot-hunting for accuracy, and the refinement rounds buy
            // the digits back.
            Self::Sparse { lu, a } => Ok(lu.solve_refined(a, b, SPARSE_REFINE_ROUNDS)?),
        }
    }

    /// The sparse symbolic factorization, when the sparse backend is
    /// active — passed back into [`Solver::build_with`] by callers that
    /// re-factor the same pattern.
    pub(crate) fn symbolic_hint(&self) -> Option<Arc<SymbolicLu>> {
        match self {
            Self::Sparse { lu, .. } => Some(Arc::clone(lu.symbolic())),
            _ => None,
        }
    }

    /// Hager 1-norm condition estimate (dense backend only; `None` for
    /// sparse systems, whose factors don't support the estimator).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn condition_estimate(&self) -> Option<f64> {
        match self {
            Self::Dense { cond, .. } => Some(*cond),
            Self::Sparse { .. } => None,
        }
    }

    /// Whether the sparse direct backend was selected.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn is_sparse(&self) -> bool {
        matches!(self, Self::Sparse { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tridiag(n: usize) -> Triplets {
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 4.0);
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
                t.push(i + 1, i, -1.0);
            }
        }
        t
    }

    #[test]
    fn small_systems_use_dense() {
        let t = tridiag(8);
        let s = Solver::build(&t).unwrap();
        assert!(!s.is_sparse());
        let x = s.solve(&vec![1.0; 8]).unwrap();
        let r = t.to_dense().matvec(&x).unwrap();
        for v in r {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn large_sparse_systems_use_sparse() {
        let n = 400;
        let t = tridiag(n);
        let s = Solver::build(&t).unwrap();
        assert!(s.is_sparse());
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let x = s.solve(&b).unwrap();
        let r = t.to_dense().matvec(&x).unwrap();
        for (u, v) in r.iter().zip(&b) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn dense_block_forces_dense_backend() {
        // A 100×100 fully dense system is one irreducible dense block.
        let n = 100;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            for j in 0..n {
                t.push(i, j, if i == j { 10.0 } else { 0.01 });
            }
        }
        let s = Solver::build(&t).unwrap();
        assert!(!s.is_sparse());
    }

    #[test]
    fn scrambled_chain_solves_under_auto() {
        // A tridiagonal system under a stride permutation has huge
        // natural bandwidth; the fill-reducing sparse path must still
        // solve it to a tight residual.
        let n = 300;
        let t = tridiag(n);
        // Scramble indices with a fixed stride permutation.
        let p: Vec<usize> = (0..n).map(|i| (i * 7) % n).collect();
        let mut scrambled = Triplets::new(n, n);
        for &(i, j, v) in t.entries() {
            scrambled.push(p[i], p[j], v);
        }
        let s = Solver::build(&scrambled).unwrap();
        assert!(s.is_sparse());
        let b = vec![1.0; n];
        let x = s.solve(&b).unwrap();
        let r = scrambled.to_dense().matvec(&x).unwrap();
        for (u, v) in r.iter().zip(&b) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn condition_estimate_reported_for_dense() {
        let t = tridiag(8);
        let s = Solver::build(&t).unwrap();
        let k = s.condition_estimate().unwrap();
        assert!((1.0..100.0).contains(&k), "κ₁ = {k}");
        let big = Solver::build(&tridiag(400)).unwrap();
        assert!(big.condition_estimate().is_none());
    }

    #[test]
    fn ill_conditioned_dense_solve_is_refined() {
        // Two conductance scales 12 decades apart: κ₁ far beyond the
        // refinement threshold, yet the refined residual stays tiny.
        let n = 6;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, if i % 2 == 0 { 1e6 } else { 1e-7 });
            if i + 1 < n {
                t.push(i, i + 1, 1e-8);
                t.push(i + 1, i, 1e-8);
            }
        }
        let s = Solver::build(&t).unwrap().with_refinement();
        assert!(s.condition_estimate().unwrap() > ILL_COND_THRESHOLD);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let x = s.solve(&b).unwrap();
        let r = t.to_dense().matvec(&x).unwrap();
        let resid = r
            .iter()
            .zip(&b)
            .map(|(u, v)| (u - v).abs())
            .fold(0.0f64, f64::max);
        assert!(resid < 1e-9 * 7.0, "residual {resid}");
    }

    /// 2-D resistive grid: very sparse — the sparse backend's home turf.
    fn grid2d(w: usize, h: usize) -> Triplets {
        let n = w * h;
        let idx = |x: usize, y: usize| y * w + x;
        let mut t = Triplets::new(n, n);
        for y in 0..h {
            for x in 0..w {
                let i = idx(x, y);
                t.push(i, i, 4.2);
                let mut nb = |j: usize| t.push(i, j, -1.0);
                if x > 0 {
                    nb(idx(x - 1, y));
                }
                if x + 1 < w {
                    nb(idx(x + 1, y));
                }
                if y > 0 {
                    nb(idx(x, y - 1));
                }
                if y + 1 < h {
                    nb(idx(x, y + 1));
                }
            }
        }
        t
    }

    #[test]
    fn forced_sparse_backend_matches_dense() {
        let t = grid2d(14, 11);
        let n = t.nrows();
        let b: Vec<f64> = (0..n).map(|i| (0.11 * i as f64).sin()).collect();
        let sp = Solver::build_with(&t, SolverBackend::Sparse, None).unwrap();
        assert!(sp.is_sparse());
        let de = Solver::build_with(&t, SolverBackend::Dense, None).unwrap();
        assert!(!de.is_sparse());
        let xs = sp.solve(&b).unwrap();
        let xd = de.solve(&b).unwrap();
        for (s, d) in xs.iter().zip(&xd) {
            assert!((s - d).abs() < 1e-10);
        }
    }

    #[test]
    fn small_systems_stay_dense_under_forced_sparse() {
        // Bit-identity guarantee: below SMALL_DENSE every backend
        // setting routes to the same dense kernel.
        let t = tridiag(8);
        let s = Solver::build_with(&t, SolverBackend::Sparse, None).unwrap();
        assert!(!s.is_sparse());
    }

    #[test]
    fn symbolic_hint_round_trips() {
        let t = grid2d(12, 12);
        let s1 = Solver::build_with(&t, SolverBackend::Sparse, None).unwrap();
        let hint = s1.symbolic_hint().unwrap();
        // Same pattern, shifted values: the rebuilt solver must share
        // the symbolic object (numeric-only refactorization).
        let mut t2 = Triplets::new(t.nrows(), t.ncols());
        for &(i, j, v) in t.entries() {
            t2.push(i, j, if i == j { v + 1.0 } else { v });
        }
        let s2 = Solver::build_with(&t2, SolverBackend::Sparse, Some(&hint)).unwrap();
        let hint2 = s2.symbolic_hint().unwrap();
        assert!(Arc::ptr_eq(&hint, &hint2), "symbolic pattern not reused");
        let b = vec![1.0; t.nrows()];
        let x = s2.solve(&b).unwrap();
        let r = t2.to_dense().matvec(&x).unwrap();
        for (u, v) in r.iter().zip(&b) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn auto_consults_btf_blocks_above_density_cutoff() {
        // Eight dense 26×26 irreducible blocks, each coupled one-way
        // into the last one: overall density ≈ 0.13 (above
        // SPARSE_DENSITY), yet BTF sees small independent blocks, so
        // Auto must still route to the sparse kernel.
        let nb = 8usize;
        let w = 26usize;
        let n = nb * w;
        let mut t = Triplets::new(n, n);
        for b in 0..nb {
            for r in 0..w {
                for c in 0..w {
                    let v = if r == c {
                        30.0
                    } else {
                        1.0 / (1.0 + (r as f64 - c as f64).abs())
                    };
                    t.push(b * w + r, b * w + c, v);
                }
            }
        }
        let hub = (nb - 1) * w;
        for b in 0..nb - 1 {
            for r in 0..w {
                t.push(b * w + r, hub + r, 0.5);
            }
        }
        let csr = t.to_csr();
        assert!(csr.density() > SPARSE_DENSITY, "density {}", csr.density());
        let s = Solver::build_with(&t, SolverBackend::Auto, None).unwrap();
        assert!(s.is_sparse(), "BTF block structure should route to sparse");
        let b: Vec<f64> = (0..n).map(|i| (0.17 * i as f64).sin()).collect();
        let x = s.solve(&b).unwrap();
        let r = t.to_dense().matvec(&x).unwrap();
        for (u, v) in r.iter().zip(&b) {
            assert!((u - v).abs() < 1e-8);
        }
    }

    #[test]
    fn backend_parse_and_names() {
        assert_eq!(SolverBackend::parse("dense"), Some(SolverBackend::Dense));
        assert_eq!(SolverBackend::parse(" SPARSE "), Some(SolverBackend::Sparse));
        assert_eq!(SolverBackend::parse("Auto"), Some(SolverBackend::Auto));
        assert_eq!(SolverBackend::parse("banded"), None);
        assert_eq!(SolverBackend::default(), SolverBackend::Auto);
        assert_eq!(SolverBackend::Sparse.name(), "sparse");
        // Forced choices resolve to themselves regardless of env.
        assert_eq!(SolverBackend::Dense.resolve(), SolverBackend::Dense);
        assert_eq!(SolverBackend::Sparse.resolve(), SolverBackend::Sparse);
    }

    #[test]
    fn auto_dense_retry_reports_original_pivot() {
        // Decouple one unknown entirely (zero row/column) in a system
        // sparse enough for Auto's sparse path. Its static-pivot failure
        // retries densely, and the reported pivot must be the *original*
        // index of that unknown, not its position in any fill-reducing
        // ordering.
        let n = 300;
        let dead = 137usize;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            if i == dead {
                continue;
            }
            t.push(i, i, 4.0);
            let mut nb = |j: usize| {
                if j != dead && j < n {
                    t.push(i, j, -1.0);
                }
            };
            if i > 0 {
                nb(i - 1);
            }
            nb(i + 1);
        }
        // Keep the dead unknown structurally present but numerically
        // zero so the factorization (not assembly) detects it.
        t.push(dead, dead, 0.0);
        match Solver::build(&t) {
            Err(crate::CircuitError::Numeric(NumericError::Singular { pivot })) => {
                assert_eq!(pivot, dead, "pivot must map back to original index");
            }
            other => panic!("expected singular failure, got {other:?}"),
        }
    }
}
