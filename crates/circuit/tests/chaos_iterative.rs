//! Chaos tests for the iterative-solve resilience layer (run with
//! `--features solver-faults`).
//!
//! Extends the PR 2 fault-injection discipline to the Krylov stack:
//! forced GMRES stagnation, NaN injection into operator matvecs, budget
//! starvation, and cancellation. Every test asserts the contract of
//! ISSUE 7's tentpole — the resilient sweeps either recover via a
//! rescue rung, skip with a per-frequency typed report, or fail typed;
//! they never panic and never hang. Bit-identity with no fault armed is
//! checked in the default build, in `ac_parallel.rs`.

#![cfg(feature = "solver-faults")]

use ind101_circuit::{
    faults, AcOptions, Circuit, CircuitError, FailurePolicy, FrequencyStatus, InductorSystem,
    MatrixFreeAcOptions, NodeId, ResilienceOptions, SourceWave,
};
use ind101_numeric::{
    CancelToken, Complex64, KrylovRescuePolicy, KrylovRescueRung, LinearOperator, Matrix,
    ParallelConfig, SolveBudget,
};
use std::sync::{Mutex, MutexGuard};

/// Fault state is process-global; serialize every test in this binary
/// and start each one from a clean slate.
static LOCK: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    let g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    faults::reset();
    g
}

/// Linear coupled-RL probe circuit: the matrix-free sweep's natural
/// habitat (one inductor system whose `−jωM` block can be overridden).
fn coupled(n: usize) -> (Circuit, Matrix<f64>, NodeId) {
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
    let probe = nodes[1];
    (c, m, probe)
}

fn freqs() -> AcOptions {
    AcOptions {
        freqs_hz: vec![1e8, 1e9, 5e9],
    }
}

#[test]
fn injected_stagnation_is_rescued_by_the_ladder() {
    let _g = exclusive();
    let (c, m, probe) = coupled(10);
    let opts = freqs();
    let ov: &[(usize, &dyn LinearOperator<Complex64>)] = &[(0, &m)];
    let plain = c
        .ac_sweep_matrix_free(&opts, ov, &MatrixFreeAcOptions::default())
        .unwrap();
    faults::inject_gmres_stagnation(1);
    let sweep = c
        .ac_sweep_matrix_free_resilient(
            &opts,
            ov,
            &MatrixFreeAcOptions::default(),
            &ResilienceOptions::default(),
        )
        .unwrap();
    faults::reset();
    // The first frequency's initial rung was forced to stagnate; the
    // grown-restart rung (fault exhausted) must have recovered it.
    assert_eq!(sweep.report.rescued_count(), 1, "{}", sweep.report.summary());
    assert_eq!(sweep.report.solved_count(), opts.freqs_hz.len());
    assert!(matches!(
        sweep.report.frequencies[0].status,
        FrequencyStatus::Rescued {
            rung: KrylovRescueRung::GrownRestart
        }
    ));
    assert!(sweep.report.frequencies[0].rungs_attempted >= 2);
    // The rescued solution still agrees with the unfaulted sweep.
    for idx in 0..opts.freqs_hz.len() {
        let a = plain.voltage(probe, idx);
        let b = sweep.ac.voltage(probe, idx);
        assert!((a - b).abs() <= 1e-8 * a.abs().max(1e-12), "f[{idx}]");
    }
}

#[test]
fn injected_matvec_nan_is_contained_and_rescued() {
    let _g = exclusive();
    let (c, m, _) = coupled(10);
    let opts = freqs();
    let ov: &[(usize, &dyn LinearOperator<Complex64>)] = &[(0, &m)];
    faults::inject_matvec_nan(1);
    let sweep = c
        .ac_sweep_matrix_free_resilient(
            &opts,
            ov,
            &MatrixFreeAcOptions::default(),
            &ResilienceOptions::default(),
        )
        .unwrap();
    faults::reset();
    // The NaN surfaces as a typed breakdown (never a poisoned result or
    // a panic) and the ladder retries without the fault.
    assert_eq!(sweep.report.solved_count(), opts.freqs_hz.len());
    assert_eq!(sweep.report.rescued_count(), 1, "{}", sweep.report.summary());
    assert!(matches!(
        sweep.report.frequencies[0].status,
        FrequencyStatus::Rescued { .. }
    ));
}

#[test]
fn ladder_exhaustion_skips_with_typed_report() {
    let _g = exclusive();
    let (c, m, _) = coupled(10);
    let opts = freqs();
    let ov: &[(usize, &dyn LinearOperator<Complex64>)] = &[(0, &m)];
    let res = ResilienceOptions {
        rescue: KrylovRescuePolicy::disabled(),
        budget: SolveBudget::unlimited(),
        policy: FailurePolicy::SkipAndReport,
    };
    faults::inject_gmres_stagnation(1);
    let sweep = c
        .ac_sweep_matrix_free_resilient(&opts, ov, &MatrixFreeAcOptions::default(), &res)
        .unwrap();
    faults::reset();
    // No rescue rungs armed: the faulted frequency is skipped with the
    // typed error recorded, the other 2 of 3 still solve.
    assert_eq!(sweep.report.skipped_count(), 1, "{}", sweep.report.summary());
    assert_eq!(sweep.report.solved_count(), opts.freqs_hz.len() - 1);
    assert_eq!(sweep.ac.freqs_hz, opts.freqs_hz[1..].to_vec());
    match &sweep.report.frequencies[0].status {
        FrequencyStatus::Skipped { error } => {
            assert!(!error.is_empty());
        }
        other => panic!("expected Skipped, got {other:?}"),
    }
}

#[test]
fn abort_policy_surfaces_the_typed_error() {
    let _g = exclusive();
    let (c, m, _) = coupled(10);
    let ov: &[(usize, &dyn LinearOperator<Complex64>)] = &[(0, &m)];
    let res = ResilienceOptions {
        rescue: KrylovRescuePolicy::disabled(),
        budget: SolveBudget::unlimited(),
        policy: FailurePolicy::Abort,
    };
    faults::inject_gmres_stagnation(1);
    let err = c
        .ac_sweep_matrix_free_resilient(&freqs(), ov, &MatrixFreeAcOptions::default(), &res)
        .unwrap_err();
    faults::reset();
    assert!(matches!(err, CircuitError::Numeric(_)), "{err}");
}

#[test]
fn wall_clock_starvation_stops_the_sweep_typed() {
    let _g = exclusive();
    let (c, m, _) = coupled(10);
    let opts = freqs();
    let ov: &[(usize, &dyn LinearOperator<Complex64>)] = &[(0, &m)];
    let res =
        ResilienceOptions::with_budget(SolveBudget::unlimited().with_wall_seconds(0.0));
    let sweep = c
        .ac_sweep_matrix_free_resilient(&opts, ov, &MatrixFreeAcOptions::default(), &res)
        .unwrap();
    // An already-expired deadline: nothing is attempted, the report says
    // why, and the call still returns (partial, empty) instead of
    // hanging or aborting.
    assert_eq!(sweep.report.not_attempted_count(), opts.freqs_hz.len());
    assert!(sweep.ac.freqs_hz.is_empty());
    let why = sweep.report.stopped.expect("stop reason recorded");
    assert!(why.contains("wall-clock"), "{why}");
}

#[test]
fn memory_starved_dense_fallback_is_refused_typed() {
    let _g = exclusive();
    let (c, m, _) = coupled(10);
    let opts = freqs();
    let ov: &[(usize, &dyn LinearOperator<Complex64>)] = &[(0, &m)];
    // DegradeToDense arms only the dense rung; a 64-byte memory ceiling
    // must refuse it *before* the n×n matrix is materialized.
    let res = ResilienceOptions {
        rescue: KrylovRescuePolicy::disabled(),
        budget: SolveBudget::unlimited().with_memory_bytes(64),
        policy: FailurePolicy::DegradeToDense,
    };
    faults::inject_gmres_stagnation(1);
    let sweep = c
        .ac_sweep_matrix_free_resilient(&opts, ov, &MatrixFreeAcOptions::default(), &res)
        .unwrap();
    faults::reset();
    assert_eq!(sweep.report.skipped_count(), 1, "{}", sweep.report.summary());
    match &sweep.report.frequencies[0].status {
        FrequencyStatus::Skipped { error } => {
            assert!(error.contains("memory"), "{error}");
        }
        other => panic!("expected Skipped, got {other:?}"),
    }
    // The remaining frequencies are unaffected.
    assert_eq!(sweep.report.solved_count(), opts.freqs_hz.len() - 1);
}

#[test]
fn pre_cancelled_token_returns_partial_immediately() {
    let _g = exclusive();
    let (c, m, _) = coupled(10);
    let opts = freqs();
    let ov: &[(usize, &dyn LinearOperator<Complex64>)] = &[(0, &m)];
    let token = CancelToken::new();
    token.cancel();
    let res = ResilienceOptions::with_budget(SolveBudget::unlimited().with_cancel(token));
    let sweep = c
        .ac_sweep_matrix_free_resilient(&opts, ov, &MatrixFreeAcOptions::default(), &res)
        .unwrap();
    assert_eq!(sweep.report.not_attempted_count(), opts.freqs_hz.len());
    let why = sweep.report.stopped.expect("stop reason recorded");
    assert!(why.contains("cancelled"), "{why}");
}

#[test]
fn dense_resilient_sweep_skips_injected_singular_frequency() {
    let _g = exclusive();
    let (c, _, _) = coupled(10);
    let opts = freqs();
    let cfg = ParallelConfig {
        threads: 1,
        ..Default::default()
    };
    faults::inject_singular_pivot(Some(0));
    let sweep = c
        .ac_sweep_resilient(&opts, &cfg, &ResilienceOptions::default())
        .unwrap();
    faults::reset();
    // The one-shot singular pivot hits the first frequency's solver
    // build; with threads = 1 the order is deterministic.
    assert_eq!(sweep.report.skipped_count(), 1, "{}", sweep.report.summary());
    assert_eq!(sweep.report.solved_count(), opts.freqs_hz.len() - 1);
    assert!(matches!(
        sweep.report.frequencies[0].status,
        FrequencyStatus::Skipped { .. }
    ));
    assert_eq!(sweep.ac.freqs_hz, opts.freqs_hz[1..].to_vec());
}

#[test]
fn dense_resilient_sweep_aborts_typed_under_abort_policy() {
    let _g = exclusive();
    let (c, _, _) = coupled(10);
    let cfg = ParallelConfig {
        threads: 1,
        ..Default::default()
    };
    faults::inject_singular_pivot(Some(0));
    let res = ResilienceOptions {
        policy: FailurePolicy::Abort,
        ..ResilienceOptions::default()
    };
    let err = c.ac_sweep_resilient(&freqs(), &cfg, &res).unwrap_err();
    faults::reset();
    assert!(
        matches!(err, CircuitError::SingularSystem { .. }),
        "expected the typed singular error, got {err:?}"
    );
}

#[test]
fn dense_resilient_sweep_honours_cancellation() {
    let _g = exclusive();
    let (c, _, _) = coupled(10);
    let opts = freqs();
    let cfg = ParallelConfig {
        threads: 1,
        ..Default::default()
    };
    let token = CancelToken::new();
    token.cancel();
    let res = ResilienceOptions::with_budget(SolveBudget::unlimited().with_cancel(token));
    let sweep = c.ac_sweep_resilient(&opts, &cfg, &res).unwrap();
    assert_eq!(sweep.report.not_attempted_count(), opts.freqs_hz.len());
    assert!(sweep.ac.freqs_hz.is_empty());
    let why = sweep.report.stopped.expect("stop reason recorded");
    assert!(why.contains("cancelled"), "{why}");
}
