//! Matrix-free AC sweep: Krylov solves with operator-applied
//! inductance blocks.
//!
//! The dense AC path stamps every `−jωM` mutual-inductance entry into
//! the MNA matrix — `O(n²)` stamps per frequency for a PEEC inductor
//! system of `n` branches, and a direct factorization on top. For
//! regular filament grids the extraction layer can supply the same
//! block as an FFT-accelerated [`LinearOperator`] instead
//! (`O(n log n)` per matvec, `O(n)` memory, no dense matrix ever
//! built). This module threads such operators through the AC solve:
//!
//! * the MNA system is assembled **without** the overridden systems'
//!   `−jωM` blocks and turned into a CSR operator whose matvec adds
//!   `−jω·(L·x)` through the supplied [`LinearOperator`];
//! * the preconditioner is an exact direct factorization of the same
//!   MNA system with the overridden blocks reduced to their diagonal
//!   `−jωL` stamps — sparse, frequency-dependent, and close enough to
//!   the true matrix that GMRES converges in a handful of iterations;
//! * frequencies are swept sequentially, each solve warm-started from
//!   the previous frequency's solution (impedance varies smoothly in
//!   `ω`, so the previous solution is an excellent initial guess).
//!
//! Convergence is residual-gated by the Krylov layer: a sweep either
//! returns solutions matching the dense path to the requested
//! tolerance or fails with a typed error — never a silently degraded
//! result.

use crate::ac::{AcOptions, AcResult, AcStampMode};
use crate::dcop::DcOperatingPoint;
use crate::error::CircuitError;
use crate::mna::MnaLayout;
use crate::netlist::Circuit;
use crate::resilience::{
    FailurePolicy, FrequencyRecovery, FrequencyStatus, ResilienceOptions, ResilientAcSweep,
};
use crate::solver::{Solver, SMALL_DENSE};
use crate::Result;
use ind101_numeric::{
    solve_with_rescue, Complex64, CsrMatrix, KrylovOptions, LinearOperator, Matrix,
    NumericError, Preconditioner, RescueProvider, SolveGuard, SymbolicLu,
};
use std::sync::Arc;

/// Tuning for the matrix-free AC sweep's Krylov solves.
#[derive(Clone, Debug, PartialEq)]
pub struct MatrixFreeAcOptions {
    /// Relative residual target per frequency point.
    ///
    /// This bounds the *true* residual `‖b − A·x‖ / ‖b‖`, so the
    /// attainable floor depends on the MNA scaling: extraction probes
    /// mix micro-ohm pad ties with voltage-source rows and bottom out
    /// around `1e-11` relative. The default leaves headroom above that
    /// floor while staying two decades inside the `1e-8`
    /// dense-agreement contract.
    pub tol: f64,
    /// Matvec cap per frequency point.
    pub max_iters: usize,
    /// GMRES restart length.
    pub restart: usize,
    /// Warm-start each frequency from the previous solution.
    pub warm_start: bool,
}

/// Default relative residual tolerance for the AC GMRES solve — tight
/// enough that matrix-free results are bit-comparable to the dense
/// backend in the differential suites.
const DEFAULT_AC_GMRES_TOL: f64 = 1e-10;

impl Default for MatrixFreeAcOptions {
    fn default() -> Self {
        Self {
            tol: DEFAULT_AC_GMRES_TOL,
            max_iters: 2000,
            restart: 80,
            warm_start: true,
        }
    }
}

/// MNA operator: explicit CSR part plus operator-applied `−jω·L`
/// blocks for the overridden inductor systems.
struct MnaAcOperator<'a> {
    csr: CsrMatrix<Complex64>,
    /// `(unknown offset, block length, inductance operator, −jω)`.
    blocks: Vec<(usize, usize, &'a dyn LinearOperator<Complex64>, Complex64)>,
}

impl LinearOperator<Complex64> for MnaAcOperator<'_> {
    fn dim(&self) -> usize {
        self.csr.nrows()
    }

    fn apply(&self, x: &[Complex64], y: &mut [Complex64]) {
        LinearOperator::apply(&self.csr, x, y);
        let mut lx = Vec::new();
        for &(off, len, op, mjw) in &self.blocks {
            lx.clear();
            lx.resize(len, Complex64::ZERO);
            op.apply(&x[off..off + len], &mut lx);
            for (j, v) in lx.iter().enumerate() {
                y[off + j] += mjw * *v;
            }
        }
    }
}

/// Right preconditioner that applies an exact direct solve of the
/// diagonal-stamped MNA system.
struct SolverPreconditioner {
    solver: Solver<Complex64>,
}

impl Preconditioner<Complex64> for SolverPreconditioner {
    fn apply(&self, r: &[Complex64]) -> Vec<Complex64> {
        // A preconditioner must not fail mid-iteration; the solver was
        // factored successfully at build time, so a solve error is
        // unreachable — degrade to the identity if it ever happens
        // (GMRES then converges more slowly but stays correct).
        self.solver.solve(r).unwrap_or_else(|_| r.to_vec())
    }
}

impl Circuit {
    /// AC sweep with the inductance blocks of selected inductor
    /// systems applied matrix-free through [`LinearOperator`]s.
    ///
    /// `overrides` pairs an inductor-system index with the operator
    /// that realizes its partial-inductance matrix; every other stamp
    /// (and every non-overridden system) is assembled exactly as in
    /// [`Circuit::ac_sweep`]. Results agree with the dense path to the
    /// Krylov tolerance — the loop-extraction differential tests pin
    /// this to ≤ 1e-8. This is
    /// [`Circuit::ac_sweep_matrix_free_resilient`] under
    /// [`ResilienceOptions::strict`].
    ///
    /// # Errors
    ///
    /// Invalid options, an override index out of range or with a
    /// mismatched operator dimension, a singular preconditioner
    /// system, or Krylov non-convergence at some frequency (typed
    /// through [`CircuitError::Numeric`]).
    pub fn ac_sweep_matrix_free(
        &self,
        opts: &AcOptions,
        overrides: &[(usize, &dyn LinearOperator<Complex64>)],
        mf: &MatrixFreeAcOptions,
    ) -> Result<AcResult> {
        self.ac_sweep_matrix_free_resilient(opts, overrides, mf, &ResilienceOptions::strict())
            .map(|s| s.ac)
    }

    /// Checks that every override names an existing inductor system,
    /// matches its dimension, and appears at most once.
    fn validate_overrides(
        &self,
        overrides: &[(usize, &dyn LinearOperator<Complex64>)],
    ) -> Result<()> {
        let systems = self.inductor_systems();
        for &(s, op) in overrides {
            let Some(sys) = systems.get(s) else {
                return Err(CircuitError::InvalidOptions {
                    what: format!(
                        "inductor system override index {s} out of range ({} systems)",
                        systems.len()
                    ),
                });
            };
            if op.dim() != sys.len() {
                return Err(CircuitError::InvalidOptions {
                    what: format!(
                        "operator dimension {} does not match inductor system {s} ({} branches)",
                        op.dim(),
                        sys.len()
                    ),
                });
            }
        }
        let mut seen: Vec<usize> = overrides.iter().map(|&(s, _)| s).collect();
        seen.sort_unstable();
        if seen.windows(2).any(|w| matches!(w, &[a, b] if a == b)) {
            return Err(CircuitError::InvalidOptions {
                what: "duplicate inductor system override".to_owned(),
            });
        }
        Ok(())
    }

    /// [`Circuit::ac_sweep_matrix_free`] under the solve-resilience
    /// layer: per-frequency Krylov failures climb the
    /// [`ind101_numeric::KrylovRescuePolicy`] ladder (grown restart →
    /// dense-direct fallback, the latter gated by the memory budget),
    /// the whole sweep shares one
    /// [`ind101_numeric::SolveBudget`] (wall clock, memory,
    /// cancellation), and the [`FailurePolicy`] decides whether a
    /// frequency that still fails aborts the sweep or is skipped with a
    /// typed record. The returned [`ResilientAcSweep`] holds solutions
    /// for every frequency that solved plus a [`RecoveryReport`] for
    /// the full request.
    ///
    /// The GMRES warm start is reset whenever a frequency needed any
    /// rescue rung or was skipped — a guess that led to failure (or
    /// came from a dense fallback on a different escalation path) is
    /// not trusted as the next frequency's starting point.
    ///
    /// # Errors
    ///
    /// Invalid options/overrides always abort. Per-frequency solve
    /// failures abort only under [`FailurePolicy::Abort`]; cancellation
    /// and sweep-wide budget exhaustion stop the sweep early but still
    /// return the partial result.
    pub fn ac_sweep_matrix_free_resilient(
        &self,
        opts: &AcOptions,
        overrides: &[(usize, &dyn LinearOperator<Complex64>)],
        mf: &MatrixFreeAcOptions,
        resilience: &ResilienceOptions,
    ) -> Result<ResilientAcSweep> {
        opts.validate()?;
        let layout = MnaLayout::build(self);
        self.validate_overrides(overrides)?;
        let systems = self.inductor_systems();

        let dc = if self.is_nonlinear() {
            Some(self.dc_op()?)
        } else {
            None
        };
        let overridden: Vec<usize> = overrides.iter().map(|&(s, _)| s).collect();
        let backend = self.effective_backend();
        let kopts = KrylovOptions {
            tol: mf.tol,
            max_iters: mf.max_iters,
            restart: mf.restart.max(1),
        };
        let mut rescue = resilience.rescue.clone();
        if resilience.policy == FailurePolicy::DegradeToDense {
            rescue.dense_fallback = true;
        }

        // One guard for the whole sweep; each frequency's ladder gets
        // the remaining wall-clock allowance so the sweep-wide deadline
        // is enforced inside the Krylov iterations too.
        let guard = SolveGuard::new(resilience.budget.clone());
        let mut records: Vec<FrequencyRecovery> = Vec::with_capacity(opts.freqs_hz.len());
        let mut solutions: Vec<Option<Vec<Complex64>>> = Vec::with_capacity(opts.freqs_hz.len());
        let mut stopped: Option<String> = None;
        let mut prev: Option<Vec<Complex64>> = None;
        let mut hint: Option<Arc<SymbolicLu>> = None;

        for &f in &opts.freqs_hz {
            if stopped.is_some() {
                records.push(FrequencyRecovery::not_attempted(f));
                solutions.push(None);
                continue;
            }
            if let Err(e) = guard.check() {
                stopped = Some(e.to_string());
                records.push(FrequencyRecovery::not_attempted(f));
                solutions.push(None);
                continue;
            }
            let freq_started = guard.elapsed_seconds();
            let mut freq_budget = resilience.budget.clone();
            if let Some(limit) = resilience.budget.max_wall_seconds {
                freq_budget.max_wall_seconds = Some((limit - freq_started).max(0.0));
            }

            let jw = Complex64::jomega(2.0 * std::f64::consts::PI * f);
            let (t_op, rhs) = self.ac_assemble_mode(
                &layout,
                dc.as_ref(),
                f,
                AcStampMode::OperatorPart {
                    overridden: &overridden,
                },
            );
            let (t_pre, _) = self.ac_assemble_mode(
                &layout,
                dc.as_ref(),
                f,
                AcStampMode::DiagonalPreconditioner {
                    overridden: &overridden,
                },
            );
            let annotate = |e| crate::mna::annotate_singular(self, &layout, e);
            let solver = match Solver::build_with(&t_pre, backend, hint.as_ref()) {
                Ok(s) => s,
                Err(e) => {
                    let err = annotate(e);
                    if resilience.policy == FailurePolicy::Abort {
                        return Err(err);
                    }
                    // A singular diagonal-stamped system is almost
                    // certainly singular in full form too: skip.
                    records.push(FrequencyRecovery {
                        freq_hz: f,
                        status: FrequencyStatus::Skipped {
                            error: err.to_string(),
                        },
                        iterations: 0,
                        rungs_attempted: 0,
                        trajectory: "preconditioner-build".to_owned(),
                        elapsed_seconds: guard.elapsed_seconds() - freq_started,
                    });
                    solutions.push(None);
                    prev = None;
                    continue;
                }
            };
            if hint.is_none() && layout.n > SMALL_DENSE {
                hint = solver.symbolic_hint();
            }
            let precond = SolverPreconditioner { solver };
            let operator = MnaAcOperator {
                csr: t_op.to_csr(),
                blocks: overrides
                    .iter()
                    .map(|&(s, op)| (layout.ind_offsets[s], systems[s].len(), op, -jw))
                    .collect(),
            };
            let provider = FullStampProvider {
                circuit: self,
                layout: &layout,
                dc: dc.as_ref(),
                f,
            };
            let x0 = if mf.warm_start { prev.as_deref() } else { None };
            match solve_with_rescue(
                &operator,
                &rhs,
                x0,
                &precond,
                &kopts,
                &rescue,
                &freq_budget,
                &provider,
            ) {
                Ok((sol, report)) => {
                    let initial = report.initial_sufficed();
                    let status = if initial {
                        FrequencyStatus::Solved
                    } else {
                        FrequencyStatus::Rescued {
                            rung: report
                                .converged_by
                                .unwrap_or(ind101_numeric::KrylovRescueRung::Initial),
                        }
                    };
                    // Warm-start hygiene: only a plainly solved point
                    // seeds the next frequency.
                    prev = (mf.warm_start && initial).then(|| sol.x.clone());
                    records.push(FrequencyRecovery {
                        freq_hz: f,
                        status,
                        iterations: report.total_iterations,
                        rungs_attempted: report.rungs.len(),
                        trajectory: report.summary(),
                        elapsed_seconds: guard.elapsed_seconds() - freq_started,
                    });
                    solutions.push(Some(sol.x));
                }
                Err(failure) => {
                    prev = None;
                    let err = CircuitError::from(NumericError::from(failure.error.clone()));
                    if resilience.policy == FailurePolicy::Abort {
                        return Err(err);
                    }
                    records.push(FrequencyRecovery {
                        freq_hz: f,
                        status: FrequencyStatus::Skipped {
                            error: err.to_string(),
                        },
                        iterations: failure.report.total_iterations,
                        rungs_attempted: failure.report.rungs.len(),
                        trajectory: failure.report.summary(),
                        elapsed_seconds: guard.elapsed_seconds() - freq_started,
                    });
                    solutions.push(None);
                    // The next loop iteration's guard poll converts a
                    // sweep-wide cancellation/deadline into a stop.
                }
            }
        }

        Ok(ResilientAcSweep::from_records(records, solutions, stopped, layout))
    }
}

/// Rescue provider for the matrix-free AC solve: the dense-direct rung
/// assembles the *full* MNA matrix (every `−jωM` stamp included) and
/// lets the ladder LU-solve it. No preconditioner escalation is
/// offered — the matrix-free path's baseline preconditioner is already
/// a direct factorization, stronger than Jacobi or block-Jacobi.
struct FullStampProvider<'a> {
    circuit: &'a Circuit,
    layout: &'a MnaLayout,
    dc: Option<&'a DcOperatingPoint>,
    f: f64,
}

impl RescueProvider<Complex64> for FullStampProvider<'_> {
    fn dense_matrix(&self) -> Option<Matrix<Complex64>> {
        let (t, _) =
            self.circuit
                .ac_assemble_mode(self.layout, self.dc, self.f, AcStampMode::Full);
        Some(t.to_dense())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::InductorSystem;
    use crate::waveform::SourceWave;
    use ind101_numeric::Matrix;

    /// Dense L-matrix as an operator: the simplest override, used to
    /// check the matrix-free plumbing independent of FFT operators.
    fn coupled_circuit(n: usize) -> (Circuit, Matrix<f64>) {
        let mut c = Circuit::new();
        let nodes: Vec<_> = (0..n).map(|i| c.node(format!("n{i}"))).collect();
        c.isrc_ac(Circuit::GND, nodes[0], SourceWave::dc(0.0), 1.0);
        for (i, &nd) in nodes.iter().enumerate() {
            c.resistor(nd, Circuit::GND, 3.0 + i as f64);
        }
        let m = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                1e-9
            } else {
                0.4e-9 / (1.0 + i.abs_diff(j) as f64)
            }
        });
        c.add_inductor_system(InductorSystem {
            branches: nodes.iter().map(|&nd| (nd, Circuit::GND)).collect(),
            m: m.clone(),
        })
        .unwrap();
        (c, m)
    }

    #[test]
    fn matrix_free_matches_dense_sweep() {
        let (c, m) = coupled_circuit(12);
        let opts = AcOptions {
            freqs_hz: vec![1e8, 1e9, 5e9, 2e10],
        };
        let dense = c.ac_sweep(&opts).unwrap();
        let mf = c
            .ac_sweep_matrix_free(
                &opts,
                &[(0usize, &m as &dyn LinearOperator<Complex64>)],
                &MatrixFreeAcOptions::default(),
            )
            .unwrap();
        let node = crate::netlist::NodeId(1);
        for idx in 0..opts.freqs_hz.len() {
            let a = dense.voltage(node, idx);
            let b = mf.voltage(node, idx);
            assert!(
                (a - b).abs() <= 1e-8 * a.abs().max(1e-12),
                "f[{idx}]: {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn warm_start_reduces_per_point_work() {
        // Not directly observable from here (iteration counts are
        // internal), but the sweep with warm start must still agree
        // with the cold-start sweep.
        let (c, m) = coupled_circuit(8);
        let opts = AcOptions {
            freqs_hz: (1..=12).map(|k| 1e8 * 1.6f64.powi(k)).collect(),
        };
        let warm = c
            .ac_sweep_matrix_free(
                &opts,
                &[(0usize, &m as &dyn LinearOperator<Complex64>)],
                &MatrixFreeAcOptions::default(),
            )
            .unwrap();
        let cold = c
            .ac_sweep_matrix_free(
                &opts,
                &[(0usize, &m as &dyn LinearOperator<Complex64>)],
                &MatrixFreeAcOptions {
                    warm_start: false,
                    ..Default::default()
                },
            )
            .unwrap();
        let node = crate::netlist::NodeId(0);
        for idx in 0..opts.freqs_hz.len() {
            let a = warm.voltage(node, idx);
            let b = cold.voltage(node, idx);
            assert!((a - b).abs() <= 1e-8 * a.abs().max(1e-12));
        }
    }

    #[test]
    fn bad_override_index_is_typed_error() {
        let (c, m) = coupled_circuit(4);
        let opts = AcOptions {
            freqs_hz: vec![1e9],
        };
        let err = c
            .ac_sweep_matrix_free(
                &opts,
                &[(3usize, &m as &dyn LinearOperator<Complex64>)],
                &MatrixFreeAcOptions::default(),
            )
            .unwrap_err();
        assert!(matches!(err, CircuitError::InvalidOptions { .. }), "{err}");
    }

    #[test]
    fn mismatched_operator_dimension_is_typed_error() {
        let (c, _) = coupled_circuit(4);
        let wrong = Matrix::from_fn(3, 3, |i, j| if i == j { 1e-9 } else { 0.0 });
        let err = c
            .ac_sweep_matrix_free(
                &AcOptions {
                    freqs_hz: vec![1e9],
                },
                &[(0usize, &wrong as &dyn LinearOperator<Complex64>)],
                &MatrixFreeAcOptions::default(),
            )
            .unwrap_err();
        assert!(matches!(err, CircuitError::InvalidOptions { .. }), "{err}");
    }

    #[test]
    fn duplicate_override_rejected() {
        let (c, m) = coupled_circuit(4);
        let op: &dyn LinearOperator<Complex64> = &m;
        let err = c
            .ac_sweep_matrix_free(
                &AcOptions {
                    freqs_hz: vec![1e9],
                },
                &[(0usize, op), (0usize, op)],
                &MatrixFreeAcOptions::default(),
            )
            .unwrap_err();
        assert!(matches!(err, CircuitError::InvalidOptions { .. }));
    }

    #[test]
    fn impossible_tolerance_yields_typed_nonconvergence() {
        let (c, m) = coupled_circuit(6);
        let err = c
            .ac_sweep_matrix_free(
                &AcOptions {
                    freqs_hz: vec![1e9],
                },
                &[(0usize, &m as &dyn LinearOperator<Complex64>)],
                &MatrixFreeAcOptions {
                    tol: 1e-30,
                    max_iters: 3,
                    restart: 2,
                    warm_start: true,
                },
            )
            .unwrap_err();
        assert!(
            matches!(err, CircuitError::Numeric(NumericError::NoConvergence { .. })),
            "{err}"
        );
    }
}
