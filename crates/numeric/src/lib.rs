//! Linear-algebra substrate for the `ind101` on-chip inductance toolkit.
//!
//! The 2001 paper this repository reproduces leans on three numerical
//! kernels, none of which exist in the approved offline dependency set:
//!
//! * **dense symmetric solvers** — partial-inductance matrices are dense
//!   and symmetric positive definite (Cholesky), and sparsified variants
//!   must be *checked* for positive definiteness (Jacobi eigenvalues);
//! * **banded/general LU** — modified-nodal-analysis (MNA) matrices of the
//!   PEEC circuit are sparse and, after reverse Cuthill–McKee reordering,
//!   tightly banded; AC analysis needs the same factorization over
//!   complex numbers;
//! * **block orthonormalization** — PRIMA model-order reduction is a block
//!   Arnoldi process built on modified Gram–Schmidt.
//!
//! Everything here is implemented from scratch and kept deliberately
//! small: row-major dense matrices, LAPACK-layout banded storage, CSR
//! sparse matrices, and a couple of classic orderings.
//!
//! # Example
//!
//! ```
//! use ind101_numeric::{Matrix, Complex64};
//!
//! // Solve a small real system A x = b by LU with partial pivoting.
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let x = a.lu().unwrap().solve(&[1.0, 2.0]).unwrap();
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//!
//! // Complex arithmetic for AC analysis.
//! let z = Complex64::new(3.0, 4.0);
//! assert_eq!(z.abs(), 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

mod amd;
mod banded;
mod btf;
mod budget;
mod cholesky;
mod complex;
mod condition;
mod dense;
mod eigen;
mod error;
#[cfg(feature = "solver-faults")]
pub mod faults;
mod fft;
pub mod gemm;
mod krylov;
mod krylov_rescue;
mod lu;
mod ordering;
pub mod partition;
mod qr;
mod scalar;
mod sparse;
mod sparse_lu;
mod supernode;
mod toeplitz;
mod vecops;

pub use amd::approximate_minimum_degree;
pub use banded::BandedMatrix;
pub use btf::BtfForm;
pub use budget::{BudgetError, CancelToken, SolveBudget, SolveGuard};
pub use cholesky::CholeskyFactor;
pub use complex::Complex64;
pub use condition::RefinedSolve;
pub use dense::Matrix;
pub use eigen::{jacobi_eigenvalues, jacobi_eigenvectors, SymmetricEigen};
pub use error::NumericError;
pub use fft::Fft;
pub use gemm::gemm_into;
pub use krylov::{
    conjugate_gradient, conjugate_gradient_guarded, gmres, gmres_guarded,
    BlockJacobiPreconditioner, IdentityPreconditioner, JacobiPreconditioner, KrylovError,
    KrylovOptions, KrylovSolution, LinearOperator, Preconditioner,
};
pub use krylov_rescue::{
    solve_with_rescue, KrylovRescueFailure, KrylovRescuePolicy, KrylovRescueReport,
    KrylovRescueRung, KrylovRungTrace, NoEscalation, PrecondEscalation, RescueProvider,
};
pub use lu::{LuFactors, LU_BLOCK};
pub use ordering::{bandwidth, reverse_cuthill_mckee, Permutation};
pub use partition::ParallelConfig;
pub use qr::{mgs_orthonormalize, orthonormalize_against};
pub use scalar::Scalar;
pub use sparse::{CsrMatrix, Triplets};
pub use sparse_lu::{SparseLu, SparseLuStats, SymbolicLu};
pub use supernode::SupernodePartition;
pub use toeplitz::ToeplitzOperator2D;
pub use vecops::{axpy, dot, norm2, norm_inf, scale};

/// Convenient result alias for fallible numeric operations.
pub type Result<T> = std::result::Result<T, NumericError>;
