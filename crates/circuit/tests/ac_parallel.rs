//! The parallel AC sweep must be a pure speed-up: identical results to
//! the serial sweep (frequencies are only *partitioned* across threads,
//! never reordered or re-solved differently), and identical error
//! semantics. The resilience layer must likewise leave the bits alone
//! when no frequency fails.

use ind101_circuit::{
    AcOptions, AcResult, Circuit, InductorSystem, NodeId, ResilienceOptions, SourceWave,
};
use ind101_numeric::{Complex64, LinearOperator, Matrix, ParallelConfig};

/// The dense sweep on `threads` workers with resilience off.
fn sweep(c: &Circuit, opts: &AcOptions, threads: usize) -> ind101_circuit::Result<AcResult> {
    c.ac_sweep_resilient(opts, &ParallelConfig::with_threads(threads), &ResilienceOptions::strict())
        .map(|s| s.ac)
}

/// RLC ladder with an AC source: exercises resistors, capacitors and
/// the inductor branch equations in the complex MNA system.
fn rlc_ladder(stages: usize) -> (Circuit, Vec<ind101_circuit::NodeId>) {
    let mut c = Circuit::new();
    let mut prev = c.node("in");
    c.vsrc_ac(prev, Circuit::GND, SourceWave::dc(1.0), 1.0);
    let mut nodes = vec![prev];
    for k in 0..stages {
        let mid = c.node(format!("m{k}"));
        let out = c.node(format!("n{k}"));
        c.resistor(prev, mid, 10.0 + k as f64);
        c.inductor(mid, out, 1e-9 * (1.0 + k as f64));
        c.capacitor(out, Circuit::GND, 20e-15);
        nodes.push(out);
        prev = out;
    }
    (c, nodes)
}

#[test]
fn parallel_sweep_matches_serial_bitwise() {
    let (c, nodes) = rlc_ladder(6);
    let opts = AcOptions::log_sweep(1e6, 1e11, 7);
    let serial = sweep(&c, &opts, 1).expect("serial sweep");
    let par = sweep(&c, &opts, 4).expect("parallel sweep");
    assert_eq!(serial.freqs_hz, par.freqs_hz, "frequency grid reordered");
    for &n in &nodes {
        for idx in 0..serial.freqs_hz.len() {
            assert_eq!(
                serial.voltage(n, idx),
                par.voltage(n, idx),
                "voltage diverged at node {n:?}, point {idx}"
            );
        }
    }
}

#[test]
fn default_sweep_matches_explicit_config() {
    let (c, nodes) = rlc_ladder(3);
    let opts = AcOptions { freqs_hz: vec![1e8, 1e9, 1e10] };
    let a = c.ac_sweep(&opts).expect("default sweep");
    let b = sweep(&c, &opts, 2).expect("two-thread sweep");
    for &n in &nodes {
        for idx in 0..opts.freqs_hz.len() {
            assert_eq!(a.voltage(n, idx), b.voltage(n, idx));
        }
    }
}

/// An invalid frequency must produce the same error no matter how many
/// threads the sweep uses (first error in frequency order wins).
#[test]
fn error_semantics_are_thread_invariant() {
    let (c, _) = rlc_ladder(2);
    let opts = AcOptions {
        freqs_hz: vec![1e9, -1.0, f64::NAN],
    };
    let e1 = sweep(&c, &opts, 1).expect_err("serial should reject");
    let e4 = sweep(&c, &opts, 4).expect_err("parallel should reject");
    assert_eq!(format!("{e1}"), format!("{e4}"));
}

/// Linear coupled-RL probe circuit with one inductor system whose
/// `−jωM` block the matrix-free sweep can override.
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
fn no_fault_resilient_sweep_is_bit_identical() {
    let (c, m, probe) = coupled(10);
    let opts = freqs();
    let ov: &[(usize, &dyn LinearOperator<Complex64>)] = &[(0, &m)];
    let plain = c
        .ac_sweep_matrix_free_resilient(&opts, ov, &ResilienceOptions::strict())
        .unwrap()
        .ac;
    // The plain sweep runs under `strict()`, so the default leg (rescue
    // armed, never fired) is the one that checks the resilience layer.
    for res in [ResilienceOptions::strict(), ResilienceOptions::default()] {
        let sweep = c.ac_sweep_matrix_free_resilient(&opts, ov, &res).unwrap();
        assert!(sweep.report.clean(), "{}", sweep.report.summary());
        assert_eq!(sweep.ac.freqs_hz, opts.freqs_hz);
        for idx in 0..opts.freqs_hz.len() {
            let a = plain.voltage(probe, idx);
            let b = sweep.ac.voltage(probe, idx);
            assert!(a == b, "policy {:?} f[{idx}]: {a:?} != {b:?}", res.policy);
        }
    }
}

#[test]
fn dense_resilient_sweep_is_bit_identical_without_faults() {
    let (c, _, probe) = coupled(10);
    let opts = freqs();
    let cfg = ParallelConfig {
        threads: 1,
        ..Default::default()
    };
    let plain = sweep(&c, &opts, 1).unwrap();
    // The plain sweep runs under `strict()`, so the default leg (rescue
    // armed, never fired) is the one that checks the resilience layer.
    for res in [ResilienceOptions::strict(), ResilienceOptions::default()] {
        let sweep = c.ac_sweep_resilient(&opts, &cfg, &res).unwrap();
        assert!(sweep.report.clean(), "{}", sweep.report.summary());
        for idx in 0..opts.freqs_hz.len() {
            let a = plain.voltage(probe, idx);
            let b = sweep.ac.voltage(probe, idx);
            assert!(a == b, "policy {:?} f[{idx}]: {a:?} != {b:?}", res.policy);
        }
    }
}
