//! Differential guard: the default fixed-step transient path must stay
//! bit-identical to the pre-robustness-layer output. The golden hashes
//! below were captured from the seed implementation (fixed-step
//! trapezoidal with backward-Euler start) before the adaptive-step /
//! rescue layer landed; any change to the default path shows up as a
//! hash mismatch here.

use ind101_circuit::{
    Circuit, InverterParams, SolverBackend, SourceWave, TranOptions, TranResult,
};
use ind101_numeric::Matrix;

/// FNV-1a over the raw bit patterns of every recorded sample.
fn waveform_hash(res: &TranResult, probes: &[ind101_circuit::NodeId]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut eat = |bits: u64| {
        for b in bits.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for &t in res.time() {
        eat(t.to_bits());
    }
    for &p in probes {
        let tr = res.voltage(p);
        for &v in &tr.values {
            eat(v.to_bits());
        }
    }
    h
}

fn rc_ladder() -> (Circuit, Vec<ind101_circuit::NodeId>) {
    let mut c = Circuit::new();
    let inp = c.node("in");
    c.vsrc(inp, Circuit::GND, SourceWave::step(0.0, 1.0, 10e-12, 20e-12));
    let mut prev = inp;
    let mut probes = Vec::new();
    for k in 0..6 {
        let n = c.node(format!("n{k}"));
        c.resistor(prev, n, 120.0 + 35.0 * k as f64);
        c.capacitor(n, Circuit::GND, 12e-15 + 3e-15 * k as f64);
        probes.push(n);
        prev = n;
    }
    (c, probes)
}

fn rlc_ring() -> (Circuit, Vec<ind101_circuit::NodeId>) {
    let mut c = Circuit::new();
    let a = c.node("a");
    let s1 = c.node("s1");
    let s2 = c.node("s2");
    c.vsrc(a, Circuit::GND, SourceWave::step(0.0, 1.8, 5e-12, 15e-12));
    c.resistor(a, s1, 4.0);
    let mut m = Matrix::zeros(2, 2);
    m[(0, 0)] = 1.2e-9;
    m[(1, 1)] = 0.9e-9;
    m[(0, 1)] = 0.45e-9;
    m[(1, 0)] = 0.45e-9;
    c.add_inductor_system(ind101_circuit::InductorSystem {
        branches: vec![(s1, Circuit::GND), (s2, Circuit::GND)],
        m,
    })
    .unwrap();
    c.capacitor(s1, Circuit::GND, 40e-15);
    c.resistor(s2, Circuit::GND, 2e3);
    (c, vec![a, s1, s2])
}

fn inverter_rlc() -> (Circuit, Vec<ind101_circuit::NodeId>) {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let inp = c.node("in");
    let out = c.node("out");
    let far = c.node("far");
    let tail = c.node("tail");
    c.vsrc(vdd, Circuit::GND, SourceWave::dc(1.8));
    c.vsrc(inp, Circuit::GND, SourceWave::step(0.0, 1.8, 40e-12, 25e-12));
    c.inverter(inp, out, vdd, Circuit::GND, InverterParams::default());
    c.resistor(out, far, 12.0);
    c.inductor(far, tail, 0.8e-9);
    c.capacitor(tail, Circuit::GND, 60e-15);
    (c, vec![out, far, tail])
}

/// An inverter driving a 32-section RLC line, forced onto the sparse
/// backend: 101 unknowns, well above the solver's small-system dense
/// floor, so the Woodbury base matrices go through the sparse LU and
/// its symbolic analysis.
fn inverter_rlc_line_sparse() -> (Circuit, Vec<ind101_circuit::NodeId>) {
    let mut c = Circuit::new();
    c.set_solver_backend(SolverBackend::Sparse);
    let vdd = c.node("vdd");
    let inp = c.node("in");
    let out = c.node("out");
    c.vsrc(vdd, Circuit::GND, SourceWave::dc(1.8));
    c.vsrc(inp, Circuit::GND, SourceWave::step(0.0, 1.8, 30e-12, 20e-12));
    c.inverter(inp, out, vdd, Circuit::GND, InverterParams::default());
    let mut prev = out;
    let mut probes = vec![out];
    for k in 0..32 {
        let mid = c.node(format!("m{k}"));
        let n = c.node(format!("n{k}"));
        c.resistor(prev, mid, 1.5 + 0.05 * k as f64);
        c.inductor(mid, n, 25e-12);
        c.capacitor(n, Circuit::GND, 2e-15);
        if k % 8 == 7 {
            probes.push(n);
        }
        prev = n;
    }
    (c, probes)
}

/// An inverter driving one line of a 64-line bus whose branches are all
/// mutually coupled (a dense 64 × 64 Kac–Murdock–Szegő partial
/// inductance matrix, `M_ij = L_i^½ L_j^½ · 0.55^|i−j|`, positive
/// definite), forced onto the sparse backend. Every branch row of the
/// MNA carries the whole coupling block, so the LU factor and the CSR
/// matrix both hold long runs of consecutive columns.
fn inverter_coupled_bus_sparse() -> (Circuit, Vec<ind101_circuit::NodeId>) {
    const LINES: usize = 64;
    let mut c = Circuit::new();
    c.set_solver_backend(SolverBackend::Sparse);
    let vdd = c.node("vdd");
    let inp = c.node("in");
    let out = c.node("out");
    c.vsrc(vdd, Circuit::GND, SourceWave::dc(1.8));
    c.vsrc(inp, Circuit::GND, SourceWave::step(0.0, 1.8, 20e-12, 15e-12));
    c.inverter(inp, out, vdd, Circuit::GND, InverterParams::default());
    let mut branches = Vec::with_capacity(LINES);
    let mut far = Vec::with_capacity(LINES);
    for k in 0..LINES {
        let near = c.node(format!("a{k}"));
        let end = c.node(format!("b{k}"));
        if k == 0 {
            c.resistor(out, near, 8.0);
        } else {
            c.resistor(near, Circuit::GND, 25.0 + 0.25 * k as f64);
        }
        c.capacitor(end, Circuit::GND, 3e-15 + 0.05e-15 * k as f64);
        c.resistor(end, Circuit::GND, 2e3);
        branches.push((near, end));
        far.push(end);
    }
    let self_l: Vec<f64> = (0..LINES).map(|k| 0.4e-9 * (1.0 + 0.01 * k as f64)).collect();
    let mut m = Matrix::zeros(LINES, LINES);
    for i in 0..LINES {
        for j in 0..LINES {
            let gap = i.abs_diff(j) as i32;
            m[(i, j)] = (self_l[i] * self_l[j]).sqrt() * 0.55f64.powi(gap);
        }
    }
    c.add_inductor_system(ind101_circuit::InductorSystem { branches, m })
        .unwrap();
    let probes = vec![out, far[0], far[1], far[2], far[31], far[63]];
    (c, probes)
}

#[test]
fn rc_ladder_fixed_step_is_bit_identical_to_seed() {
    let (c, probes) = rc_ladder();
    let res = c.transient(&TranOptions::new(1e-12, 400e-12)).unwrap();
    assert_eq!(waveform_hash(&res, &probes), 0x4218ce5fdbbfc7c0);
}

#[test]
fn rlc_ring_fixed_step_is_bit_identical_to_seed() {
    let (c, probes) = rlc_ring();
    let res = c.transient(&TranOptions::new(0.5e-12, 300e-12)).unwrap();
    assert_eq!(waveform_hash(&res, &probes), 0x99b90d715afc66fd);
}

#[test]
fn nonlinear_fixed_step_is_bit_identical_to_seed() {
    let (c, probes) = inverter_rlc();
    let res = c.transient(&TranOptions::new(1e-12, 500e-12)).unwrap();
    assert_eq!(waveform_hash(&res, &probes), 0xff52076e654184a3);
}

/// Pinned before the Woodbury step solvers began sharing one sparse
/// symbolic analysis between the backward-Euler and trapezoidal
/// systems; the reuse must not move a single bit.
#[test]
fn sparse_nonlinear_fixed_step_is_bit_identical() {
    let (c, probes) = inverter_rlc_line_sparse();
    let res = c.transient(&TranOptions::new(1e-12, 300e-12)).unwrap();
    let far = res.voltage(probes[probes.len() - 1]);
    assert!(far.values[0] > 1.7 && far.last_value() < 0.1, "line did not switch");
    assert_eq!(waveform_hash(&res, &probes), 0xb9528480dd7dd121);
}

/// The adaptive path builds one Woodbury solver per step size; pinned
/// alongside the fixed-step hash for the same reason.
#[test]
fn sparse_nonlinear_adaptive_is_bit_identical() {
    let (c, probes) = inverter_rlc_line_sparse();
    let res = c.transient(&TranOptions::new(1e-12, 300e-12).adaptive()).unwrap();
    assert!(res.steps_rejected > 0, "controller never changed the step");
    assert_eq!(waveform_hash(&res, &probes), 0x5813270091ca07ed);
}

/// Pinned before the sparse triangular solves, the CSR matvec and the
/// inductor history product began walking contiguous column runs: the
/// dense coupling block gives every one of them long runs, and the
/// per-row summation order must not move a single bit.
#[test]
fn sparse_coupled_bus_fixed_step_is_bit_identical() {
    let (c, probes) = inverter_coupled_bus_sparse();
    let res = c.transient(&TranOptions::new(1e-12, 150e-12)).unwrap();
    let aggressor = res.voltage(probes[1]);
    assert!(
        aggressor.values[0] > 1.7 && aggressor.last_value() < 0.3,
        "aggressor did not switch"
    );
    let victim = res.voltage(probes[2]);
    let peak = victim.values.iter().fold(0.0f64, |a, v| a.max(v.abs()));
    assert!(peak > 1e-3, "no crosstalk on the neighbouring line: {peak}");
    assert_eq!(waveform_hash(&res, &probes), 0x0ea68978c56663d5);
}
