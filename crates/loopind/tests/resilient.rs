//! Resilient loop-extraction tests: partial-result sweeps, budget
//! refusal, and cancellation at the `extract_loop_rl_resilient` level.
//!
//! No fault injection here (that lives in the circuit crate's chaos
//! suite) — these tests pin the *no-fault* contract: the armed
//! resilience layer is bit-identical to the strict one on both
//! backends, a memory budget refuses the dense path with a typed error
//! before the probe circuit is built, and cancellation/deadlines return
//! an empty partial result with full telemetry instead of hanging.

use ind101_circuit::{CircuitError, ResilienceOptions};
use ind101_geom::generators::{generate_bus, BusSpec, ShieldPattern};
use ind101_geom::{um, Technology};
use ind101_core::PeecParasitics;
use ind101_loop::{extract_loop_rl_resilient, ExtractionBackend, LoopPortSpec};
use ind101_numeric::{CancelToken, ParallelConfig, SolveBudget};

fn bus_parasitics() -> PeecParasitics {
    let tech = Technology::example_copper_6lm();
    let spec = BusSpec {
        signals: 3,
        length_nm: um(800),
        spacing_nm: um(2),
        shields: ShieldPattern::Explicit(vec![1]),
        ..BusSpec::default()
    };
    let bus = generate_bus(&tech, &spec);
    PeecParasitics::extract(&bus, um(800))
}

#[test]
fn resilient_matches_plain_bitwise_on_both_backends() {
    let par = bus_parasitics();
    let spec = LoopPortSpec::from_layout(&par).unwrap();
    let freqs = [1e8, 5e9, 4e10];
    let cfg = ParallelConfig::serial();
    for backend in [ExtractionBackend::Dense, ExtractionBackend::MatrixFree] {
        let strict = ResilienceOptions::strict();
        let plain = extract_loop_rl_resilient(&par, &spec, &freqs, &cfg, backend, &strict)
            .unwrap()
            .extraction;
        // The plain extraction runs under `strict()`, so the default leg
        // (armed, never fired) is the one that checks the resilience
        // layer: it must reproduce the plain extraction bit for bit.
        for res in [ResilienceOptions::strict(), ResilienceOptions::default()] {
            let resilient =
                extract_loop_rl_resilient(&par, &spec, &freqs, &cfg, backend, &res).unwrap();
            assert!(
                resilient.report.clean(),
                "{:?}: {}",
                backend,
                resilient.report.summary()
            );
            assert_eq!(
                resilient.extraction, plain,
                "{backend:?}: resilient result diverged from plain"
            );
        }
    }
}

#[test]
fn tiny_memory_budget_refuses_dense_backend_typed() {
    let par = bus_parasitics();
    let spec = LoopPortSpec::from_layout(&par).unwrap();
    let cfg = ParallelConfig::serial();
    let res = ResilienceOptions::with_budget(SolveBudget::unlimited().with_memory_bytes(64));
    for backend in [ExtractionBackend::Dense, ExtractionBackend::Auto] {
        let got = extract_loop_rl_resilient(&par, &spec, &[1e9], &cfg, backend, &res);
        // `Auto` follows `IND101_EXTRACTION_BACKEND` when it is set, so
        // it is refused exactly when it resolves to the dense path.
        if backend.resolve(par.len()).unwrap() == ExtractionBackend::Dense {
            let err = got.unwrap_err();
            assert!(
                matches!(err, CircuitError::BudgetExceeded { .. }),
                "{backend:?}: expected BudgetExceeded, got {err:?}"
            );
        } else {
            assert!(got.is_ok(), "{backend:?}: {:?}", got.err());
        }
    }
}

#[test]
fn dense_budget_refusal_precedes_probe_build() {
    // The refusal must come before the probe circuit (and its copies of
    // the partial-inductance block) is built, so it wins over an error
    // the build would raise: here, a driver port that does not exist.
    let par = bus_parasitics();
    let spec = LoopPortSpec {
        driver_port: "missing".to_owned(),
        receiver_ports: vec![],
    };
    let res = ResilienceOptions::with_budget(SolveBudget::unlimited().with_memory_bytes(64));
    let err = extract_loop_rl_resilient(
        &par,
        &spec,
        &[1e9],
        &ParallelConfig::serial(),
        ExtractionBackend::Dense,
        &res,
    )
    .unwrap_err();
    assert!(
        matches!(err, CircuitError::BudgetExceeded { .. }),
        "expected BudgetExceeded, got {err:?}"
    );
}

#[test]
fn matrix_free_backend_passes_the_memory_gate() {
    // The same 64-byte ceiling that refuses the dense path does not
    // gate the matrix-free one (no n×n stamp), so extraction proceeds.
    let par = bus_parasitics();
    let spec = LoopPortSpec::from_layout(&par).unwrap();
    let cfg = ParallelConfig::serial();
    let res = ResilienceOptions::with_budget(SolveBudget::unlimited().with_memory_bytes(64));
    let got = extract_loop_rl_resilient(
        &par,
        &spec,
        &[1e9],
        &cfg,
        ExtractionBackend::MatrixFree,
        &res,
    )
    .unwrap();
    assert_eq!(got.extraction.freqs_hz, vec![1e9]);
    assert!(got.report.clean(), "{}", got.report.summary());
}

#[test]
fn cancelled_extraction_returns_empty_partial_with_report() {
    let par = bus_parasitics();
    let spec = LoopPortSpec::from_layout(&par).unwrap();
    let freqs = [1e8, 1e9, 1e10];
    let cfg = ParallelConfig::serial();
    let token = CancelToken::new();
    token.cancel();
    let res = ResilienceOptions::with_budget(SolveBudget::unlimited().with_cancel(token));
    for backend in [ExtractionBackend::Dense, ExtractionBackend::MatrixFree] {
        let got =
            extract_loop_rl_resilient(&par, &spec, &freqs, &cfg, backend, &res).unwrap();
        assert!(got.extraction.freqs_hz.is_empty(), "{backend:?}");
        assert_eq!(got.report.not_attempted_count(), freqs.len(), "{backend:?}");
        let why = got.report.stopped.clone().expect("stop reason");
        assert!(why.contains("cancelled"), "{backend:?}: {why}");
    }
}

#[test]
fn expired_deadline_stops_before_any_frequency() {
    let par = bus_parasitics();
    let spec = LoopPortSpec::from_layout(&par).unwrap();
    let cfg = ParallelConfig::serial();
    let res = ResilienceOptions::with_budget(SolveBudget::unlimited().with_wall_seconds(0.0));
    let got = extract_loop_rl_resilient(
        &par,
        &spec,
        &[1e8, 1e9],
        &cfg,
        ExtractionBackend::MatrixFree,
        &res,
    )
    .unwrap();
    assert!(got.extraction.freqs_hz.is_empty());
    assert_eq!(got.report.not_attempted_count(), 2);
    let why = got.report.stopped.clone().expect("stop reason");
    assert!(why.contains("wall-clock"), "{why}");
}
