//! Small-signal AC (frequency-domain) analysis.
//!
//! Used by the loop-inductance flow (paper Section 5): a current probe
//! at the driver port with all capacitance removed gives the loop
//! impedance `Z(jω)`, from which `R(f) = Re Z` and `L(f) = Im Z / ω`.

use crate::elements::Element;
use crate::error::CircuitError;
use crate::mna::{MnaLayout, GMIN};
use crate::netlist::{Circuit, NodeId};
use crate::resilience::{
    FailurePolicy, FrequencyRecovery, FrequencyStatus, ResilienceOptions, ResilientAcSweep,
};
use crate::solver::{Solver, SolverBackend, SMALL_DENSE};
use crate::dcop::DcOperatingPoint;
use crate::Result;
use ind101_numeric::partition::{collect_row_blocks_until, uniform_row_blocks};
use ind101_numeric::{CancelToken, Complex64, ParallelConfig, SolveGuard, SymbolicLu, Triplets};
use std::sync::Arc;

/// AC sweep options: explicit frequency list.
#[derive(Clone, Debug, PartialEq)]
pub struct AcOptions {
    /// Frequencies to analyze, hertz.
    pub freqs_hz: Vec<f64>,
}

impl AcOptions {
    /// Logarithmic sweep from `f_start` to `f_stop` with
    /// `points_per_decade` points per decade (inclusive of endpoints).
    ///
    /// # Panics
    ///
    /// Panics on a non-positive or inverted range.
    pub fn log_sweep(f_start: f64, f_stop: f64, points_per_decade: usize) -> Self {
        assert!(f_start > 0.0 && f_stop > f_start, "invalid sweep range");
        assert!(points_per_decade > 0);
        let decades = (f_stop / f_start).log10();
        let n = (decades * points_per_decade as f64).ceil() as usize + 1;
        let freqs_hz = (0..n)
            .map(|i| f_start * 10f64.powf(decades * i as f64 / (n - 1) as f64))
            .collect();
        Self { freqs_hz }
    }

    pub(crate) fn validate(&self) -> Result<()> {
        if self.freqs_hz.is_empty() {
            return Err(CircuitError::InvalidOptions {
                what: "empty frequency list".to_owned(),
            });
        }
        if self.freqs_hz.iter().any(|&f| !(f > 0.0) || !f.is_finite()) {
            return Err(CircuitError::InvalidOptions {
                what: "frequencies must be positive and finite".to_owned(),
            });
        }
        Ok(())
    }
}

/// AC sweep result: complex unknown vectors per frequency.
#[derive(Clone, Debug)]
pub struct AcResult {
    /// Analyzed frequencies, hertz.
    pub freqs_hz: Vec<f64>,
    data: Vec<Vec<Complex64>>,
    layout: MnaLayout,
}

impl AcResult {
    /// Complex node voltage at sweep point `idx`.
    pub fn voltage(&self, node: NodeId, idx: usize) -> Complex64 {
        self.layout
            .node(node)
            .map_or(Complex64::ZERO, |i| self.data[idx][i])
    }

    /// Complex voltage trace of a node over the whole sweep.
    pub fn voltage_sweep(&self, node: NodeId) -> Vec<Complex64> {
        (0..self.freqs_hz.len())
            .map(|i| self.voltage(node, i))
            .collect()
    }

    /// Complex current through branch `branch` of inductor system `sys`
    /// at sweep point `idx`.
    pub fn inductor_current(&self, sys: usize, branch: usize, idx: usize) -> Complex64 {
        self.data[idx][self.layout.ind_offsets[sys] + branch]
    }

    /// Assembles a result from per-frequency solution vectors (the
    /// matrix-free sweep builds its solutions outside this module).
    pub(crate) fn from_parts(
        freqs_hz: Vec<f64>,
        data: Vec<Vec<Complex64>>,
        layout: MnaLayout,
    ) -> Self {
        Self {
            freqs_hz,
            data,
            layout,
        }
    }
}

/// How much of each inductor system's `−jωM` block the assembly stamps.
///
/// The matrix-free AC path assembles the same MNA system twice per
/// frequency with different modes: the *operator part* (every stamp
/// except the overridden systems' `−jωM` blocks, which a
/// `LinearOperator` supplies on the fly) and the *preconditioner*
/// (overridden systems reduced to their diagonal `−jωL` stamps, so the
/// factorization stays sparse but still captures the dominant
/// inductive impedance).
#[derive(Clone, Copy, Debug)]
pub(crate) enum AcStampMode<'a> {
    /// Every stamp — the classic dense-path matrix.
    Full,
    /// Skip the whole `−jωM` block of the listed systems (incidence
    /// rows are kept; the operator adds the block during matvecs).
    OperatorPart {
        /// Indices into `Circuit::inductor_systems`.
        overridden: &'a [usize],
    },
    /// Keep only the diagonal `−jωL` stamps of the listed systems.
    DiagonalPreconditioner {
        /// Indices into `Circuit::inductor_systems`.
        overridden: &'a [usize],
    },
}

/// Per-system stamping decision derived from [`AcStampMode`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SysStamps {
    Every,
    DiagOnly,
    Skip,
}

impl AcStampMode<'_> {
    fn stamps_for(&self, sys_index: usize) -> SysStamps {
        match self {
            Self::Full => SysStamps::Every,
            Self::OperatorPart { overridden } => {
                if overridden.contains(&sys_index) {
                    SysStamps::Skip
                } else {
                    SysStamps::Every
                }
            }
            Self::DiagonalPreconditioner { overridden } => {
                if overridden.contains(&sys_index) {
                    SysStamps::DiagOnly
                } else {
                    SysStamps::Every
                }
            }
        }
    }
}

impl Circuit {
    /// Runs an AC sweep. Sources contribute through their `ac_mag`
    /// (time-domain waveforms are ignored). Nonlinear devices are
    /// linearized at the DC operating point.
    ///
    /// # Errors
    ///
    /// Invalid options or singular systems.
    pub fn ac_sweep(&self, opts: &AcOptions) -> Result<AcResult> {
        self.ac_sweep_with(opts, &ParallelConfig::default())
    }

    /// [`Circuit::ac_sweep`] with an explicit parallelism configuration:
    /// the per-frequency complex solves are independent, so the sweep is
    /// split into contiguous frequency blocks across `cfg.threads` scoped
    /// worker threads. Results (and the choice of reported error, if
    /// any) are in deterministic frequency order regardless of thread
    /// count. This is [`Circuit::ac_sweep_resilient`] under
    /// [`ResilienceOptions::strict`].
    ///
    /// # Errors
    ///
    /// Invalid options or singular systems.
    pub fn ac_sweep_with(&self, opts: &AcOptions, cfg: &ParallelConfig) -> Result<AcResult> {
        self.ac_sweep_resilient(opts, cfg, &ResilienceOptions::strict()).map(|s| s.ac)
    }

    /// [`Circuit::ac_sweep_with`] under the solve-resilience layer:
    /// the sweep shares one [`ind101_numeric::SolveBudget`], workers
    /// poll its [`CancelToken`] (and the wall-clock deadline) before
    /// every frequency inside the row-block parallel loop, and the
    /// [`FailurePolicy`] decides whether a singular frequency aborts
    /// the sweep or is skipped with a typed record.
    ///
    /// The dense path has no Krylov ladder, so
    /// [`ResilienceOptions::rescue`] is ignored here and
    /// [`FailurePolicy::DegradeToDense`] behaves like
    /// [`FailurePolicy::SkipAndReport`] (every solve is already
    /// direct). With no budget set and no failures the solutions are
    /// bit-identical under every policy.
    ///
    /// # Errors
    ///
    /// Invalid options always abort. A per-frequency solve failure
    /// aborts — first in frequency order — only under
    /// [`FailurePolicy::Abort`]; cancellation and budget exhaustion
    /// stop the sweep early but still return the partial result.
    pub fn ac_sweep_resilient(
        &self,
        opts: &AcOptions,
        cfg: &ParallelConfig,
        resilience: &ResilienceOptions,
    ) -> Result<ResilientAcSweep> {
        self.ac_sweep_resilient_with_symbolic(opts, cfg, resilience, None)
    }

    /// [`Circuit::ac_sweep_resilient`] seeded with an externally held
    /// symbolic factorization, the cross-circuit reuse hook for the job
    /// server: circuits lowered from different decks often share one
    /// MNA sparsity pattern (same topology, different values), and the
    /// AMD analysis is the expensive frequency-independent part of a
    /// sparse sweep. Obtain a pattern from [`Circuit::ac_symbolic`] and
    /// pass it to sweeps over structurally identical circuits.
    ///
    /// Safety of a wrong hint: the sparse solver validates the pattern
    /// against each assembled matrix and silently re-analyzes on
    /// mismatch, so a stale hint costs the analysis it tried to save —
    /// it can never produce wrong numbers. `None` recovers the
    /// self-analyzing behavior of [`Circuit::ac_sweep_resilient`]
    /// exactly.
    ///
    /// # Errors
    ///
    /// Same contract as [`Circuit::ac_sweep_resilient`].
    pub fn ac_sweep_resilient_with_symbolic(
        &self,
        opts: &AcOptions,
        cfg: &ParallelConfig,
        resilience: &ResilienceOptions,
        external_hint: Option<Arc<SymbolicLu>>,
    ) -> Result<ResilientAcSweep> {
        opts.validate()?;
        let layout = MnaLayout::build(self);
        let op = if self.is_nonlinear() {
            Some(self.dc_op()?)
        } else {
            None
        };
        // The complex MNA pattern is frequency-independent (for f > 0
        // every jωC/jωM stamp is structurally nonzero), so one symbolic
        // factorization serves the whole sweep. Analyzed up front —
        // pattern only, no numeric work — and shared read-only across
        // the worker threads.
        let backend = self.effective_backend();
        let sym_hint = external_hint.or_else(|| {
            opts.freqs_hz
                .first()
                .and_then(|&f0| self.ac_symbolic_for(&layout, op.as_ref(), backend, f0))
        });

        enum FreqItem {
            Solved(Vec<Complex64>, f64),
            Failed(CircuitError, f64),
            Stopped,
        }

        let guard = SolveGuard::new(resilience.budget.clone());
        // Internal stop flag: the first worker to observe a budget
        // violation trips it, so blocks that have not started yet are
        // skipped wholesale and running blocks cut at their next
        // frequency boundary.
        let stop = CancelToken::new();
        let nf = opts.freqs_hz.len();
        let ranges = uniform_row_blocks(nf, cfg.blocks_for(nf));
        let per_block: Vec<Option<Vec<FreqItem>>> =
            collect_row_blocks_until(&ranges, &stop, |rows| {
                rows.map(|i| {
                    if stop.is_cancelled() {
                        return FreqItem::Stopped;
                    }
                    if guard.check().is_err() {
                        stop.cancel();
                        return FreqItem::Stopped;
                    }
                    let started = guard.elapsed_seconds();
                    let outcome = self.ac_solve_one(
                        &layout,
                        op.as_ref(),
                        opts.freqs_hz[i],
                        backend,
                        sym_hint.as_ref(),
                    );
                    let elapsed = guard.elapsed_seconds() - started;
                    match outcome {
                        Ok(x) => FreqItem::Solved(x, elapsed),
                        Err(e) => FreqItem::Failed(e, elapsed),
                    }
                })
                .collect()
            });

        let mut records: Vec<FrequencyRecovery> = Vec::with_capacity(nf);
        let mut solutions: Vec<Option<Vec<Complex64>>> = Vec::with_capacity(nf);
        let mut any_stopped = false;
        for (range, block) in ranges.iter().zip(per_block) {
            let Some(items) = block else {
                any_stopped = true;
                for i in range.clone() {
                    records.push(FrequencyRecovery::not_attempted(opts.freqs_hz[i]));
                    solutions.push(None);
                }
                continue;
            };
            for (i, item) in range.clone().zip(items) {
                let f = opts.freqs_hz[i];
                match item {
                    FreqItem::Solved(x, elapsed) => {
                        records.push(FrequencyRecovery {
                            freq_hz: f,
                            status: FrequencyStatus::Solved,
                            iterations: 1,
                            rungs_attempted: 1,
                            trajectory: "direct(converged)".to_owned(),
                            elapsed_seconds: elapsed,
                        });
                        solutions.push(Some(x));
                    }
                    FreqItem::Failed(e, elapsed) => {
                        if resilience.policy == FailurePolicy::Abort {
                            // First failure in frequency order wins.
                            return Err(e);
                        }
                        records.push(FrequencyRecovery {
                            freq_hz: f,
                            status: FrequencyStatus::Skipped {
                                error: e.to_string(),
                            },
                            iterations: 1,
                            rungs_attempted: 1,
                            trajectory: "direct(failed)".to_owned(),
                            elapsed_seconds: elapsed,
                        });
                        solutions.push(None);
                    }
                    FreqItem::Stopped => {
                        any_stopped = true;
                        records.push(FrequencyRecovery::not_attempted(f));
                        solutions.push(None);
                    }
                }
            }
        }
        let stopped = any_stopped.then(|| {
            guard
                .check()
                .err()
                .map_or_else(|| "sweep stopped".to_owned(), |e| e.to_string())
        });
        Ok(ResilientAcSweep::from_records(records, solutions, stopped, layout))
    }

    /// Analyzes the circuit's complex MNA sparsity pattern at a probe
    /// frequency, for reuse across sweeps (and across structurally
    /// identical circuits) via
    /// [`Circuit::ac_sweep_resilient_with_symbolic`].
    ///
    /// Returns `None` when a symbolic factorization would not be used
    /// anyway: dense backend, system at or below the small-dense
    /// floor, or a probe at which analysis fails. The pattern is
    /// frequency-independent for `probe_hz > 0` (every jωC/jωM stamp
    /// is structurally nonzero), so any in-band probe yields the same
    /// pattern.
    #[must_use]
    pub fn ac_symbolic(&self, probe_hz: f64) -> Option<Arc<SymbolicLu>> {
        let layout = MnaLayout::build(self);
        let op = if self.is_nonlinear() {
            self.dc_op().ok()
        } else {
            None
        };
        self.ac_symbolic_for(&layout, op.as_ref(), self.effective_backend(), probe_hz)
    }

    /// Shared symbolic-analysis step of the AC sweeps: pattern-only AMD
    /// analysis of the first frequency's assembled system, skipped
    /// whenever the solver would not consult it.
    fn ac_symbolic_for(
        &self,
        layout: &MnaLayout,
        op: Option<&DcOperatingPoint>,
        backend: SolverBackend,
        f0: f64,
    ) -> Option<Arc<SymbolicLu>> {
        if backend == SolverBackend::Dense || layout.n <= SMALL_DENSE || !(f0 > 0.0) {
            return None;
        }
        let (t0, _) = self.ac_assemble(layout, op, f0);
        SymbolicLu::analyze(&t0.to_csr()).ok().map(Arc::new)
    }

    /// Assembles and solves the complex MNA system at one frequency.
    fn ac_solve_one(
        &self,
        layout: &MnaLayout,
        op: Option<&DcOperatingPoint>,
        f: f64,
        backend: SolverBackend,
        hint: Option<&Arc<SymbolicLu>>,
    ) -> Result<Vec<Complex64>> {
        let (t, rhs) = self.ac_assemble(layout, op, f);
        let annotate = |e| crate::mna::annotate_singular(self, layout, e);
        let solver = Solver::build_with(&t, backend, hint).map_err(annotate)?;
        solver.solve(&rhs).map_err(annotate)
    }

    /// Assembles the complex MNA triplets and RHS at one frequency
    /// (full stamps — the direct-solver path).
    fn ac_assemble(
        &self,
        layout: &MnaLayout,
        op: Option<&DcOperatingPoint>,
        f: f64,
    ) -> (Triplets<Complex64>, Vec<Complex64>) {
        self.ac_assemble_mode(layout, op, f, AcStampMode::Full)
    }

    /// Assembles the complex MNA triplets and RHS at one frequency,
    /// with per-inductor-system stamp control (see [`AcStampMode`]).
    pub(crate) fn ac_assemble_mode(
        &self,
        layout: &MnaLayout,
        op: Option<&DcOperatingPoint>,
        f: f64,
        mode: AcStampMode<'_>,
    ) -> (Triplets<Complex64>, Vec<Complex64>) {
        let omega = 2.0 * std::f64::consts::PI * f;
        let jw = Complex64::jomega(omega);
        let mut t: Triplets<Complex64> = Triplets::new(layout.n, layout.n);
        let mut rhs = vec![Complex64::ZERO; layout.n];
        for i in 0..layout.n_nodes {
            t.push(i, i, Complex64::from_real(GMIN));
        }
        let mut vseq = 0usize;
        for e in self.elements() {
            match e {
                Element::Resistor { a, b, ohms } => {
                    stamp_admittance(&mut t, &layout, *a, *b, Complex64::from_real(1.0 / ohms));
                }
                Element::Capacitor { a, b, farads } => {
                    stamp_admittance(&mut t, &layout, *a, *b, jw * *farads);
                }
                Element::Vsrc { plus, minus, ac_mag, .. } => {
                    let row = layout.vsrc_rows[vseq];
                    vseq += 1;
                    if let Some(p) = layout.node(*plus) {
                        t.push(p, row, Complex64::ONE);
                        t.push(row, p, Complex64::ONE);
                    }
                    if let Some(m) = layout.node(*minus) {
                        t.push(m, row, -Complex64::ONE);
                        t.push(row, m, -Complex64::ONE);
                    }
                    rhs[row] = Complex64::from_real(*ac_mag);
                }
                Element::Isrc { from, into, ac_mag, .. } => {
                    if let Some(i) = layout.node(*into) {
                        rhs[i] += Complex64::from_real(*ac_mag);
                    }
                    if let Some(i) = layout.node(*from) {
                        rhs[i] -= Complex64::from_real(*ac_mag);
                    }
                }
                Element::Transistor(m) => {
                    // `op` is Some whenever a transistor exists
                    // (is_nonlinear() gated the DC solve above).
                    let Some(opref) = op.as_ref() else { continue };
                    let lin = m.linearize(
                        opref.voltage(m.d),
                        opref.voltage(m.g),
                        opref.voltage(m.s),
                    );
                    let (d, g, s) = (layout.node(m.d), layout.node(m.g), layout.node(m.s));
                    for (row, sign) in [(d, 1.0), (s, -1.0)] {
                        let Some(r) = row else { continue };
                        if let Some(dc) = d {
                            t.push(r, dc, Complex64::from_real(sign * lin.gds));
                        }
                        if let Some(gc) = g {
                            t.push(r, gc, Complex64::from_real(sign * lin.gm));
                        }
                        if let Some(sc) = s {
                            t.push(r, sc, Complex64::from_real(-sign * (lin.gm + lin.gds)));
                        }
                    }
                }
            }
        }
        for (s, sys) in self.inductor_systems().iter().enumerate() {
            let off = layout.ind_offsets[s];
            let stamps = mode.stamps_for(s);
            for (j, &(a, b)) in sys.branches.iter().enumerate() {
                let row = off + j;
                if let Some(ia) = layout.node(a) {
                    t.push(ia, row, Complex64::ONE);
                    t.push(row, ia, Complex64::ONE);
                }
                if let Some(ib) = layout.node(b) {
                    t.push(ib, row, -Complex64::ONE);
                    t.push(row, ib, -Complex64::ONE);
                }
                match stamps {
                    SysStamps::Every => {
                        for jj in 0..sys.len() {
                            let m = sys.m[(j, jj)];
                            if m != 0.0 {
                                t.push(row, off + jj, -(jw * m));
                            }
                        }
                    }
                    SysStamps::DiagOnly => {
                        let m = sys.m[(j, j)];
                        if m != 0.0 {
                            t.push(row, row, -(jw * m));
                        }
                    }
                    SysStamps::Skip => {}
                }
            }
        }
        (t, rhs)
    }
}

#[inline]
fn stamp_admittance(
    t: &mut Triplets<Complex64>,
    layout: &MnaLayout,
    a: NodeId,
    b: NodeId,
    y: Complex64,
) {
    match (layout.node(a), layout.node(b)) {
        (Some(i), Some(j)) => {
            t.push(i, i, y);
            t.push(j, j, y);
            t.push(i, j, -y);
            t.push(j, i, -y);
        }
        (Some(i), None) | (None, Some(i)) => t.push(i, i, y),
        (None, None) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::SourceWave;

    #[test]
    fn rc_lowpass_rolloff() {
        let r = 1_000.0;
        let cap = 1e-12;
        let fc = 1.0 / (2.0 * std::f64::consts::PI * r * cap);
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.vsrc_ac(inp, Circuit::GND, SourceWave::dc(0.0), 1.0);
        c.resistor(inp, out, r);
        c.capacitor(out, Circuit::GND, cap);
        let res = c
            .ac_sweep(&AcOptions {
                freqs_hz: vec![fc / 100.0, fc, fc * 100.0],
            })
            .unwrap();
        assert!((res.voltage(out, 0).abs() - 1.0).abs() < 1e-3);
        assert!((res.voltage(out, 1).abs() - 1.0 / 2f64.sqrt()).abs() < 1e-3);
        assert!(res.voltage(out, 2).abs() < 0.02);
    }

    #[test]
    fn series_rl_impedance_probe() {
        // Drive R-L to ground with a 1 A current source; node voltage is Z.
        let r = 5.0;
        let l = 2e-9;
        let mut c = Circuit::new();
        let n = c.node("n");
        let mid = c.node("mid");
        c.isrc_ac(Circuit::GND, n, SourceWave::dc(0.0), 1.0);
        c.resistor(n, mid, r);
        c.inductor(mid, Circuit::GND, l);
        let f = 1e9;
        let res = c.ac_sweep(&AcOptions { freqs_hz: vec![f] }).unwrap();
        let z = res.voltage(n, 0);
        let omega = 2.0 * std::f64::consts::PI * f;
        assert!((z.re - r).abs() < 1e-3, "Re Z = {}", z.re);
        assert!((z.im - omega * l).abs() / (omega * l) < 1e-3, "Im Z = {}", z.im);
    }

    #[test]
    fn log_sweep_covers_range() {
        let opts = AcOptions::log_sweep(1e6, 1e9, 5);
        assert!((opts.freqs_hz[0] - 1e6).abs() < 1.0);
        let last = *opts.freqs_hz.last().unwrap();
        assert!((last - 1e9).abs() / 1e9 < 1e-9);
        assert!(opts.freqs_hz.len() >= 15);
        assert!(opts.freqs_hz.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn mutual_coupling_induces_victim_voltage() {
        use ind101_numeric::Matrix;
        let mut c = Circuit::new();
        let a = c.node("a");
        let v = c.node("v");
        c.isrc_ac(Circuit::GND, a, SourceWave::dc(0.0), 1.0);
        let mut m = Matrix::zeros(2, 2);
        m[(0, 0)] = 1e-9;
        m[(1, 1)] = 1e-9;
        m[(0, 1)] = 0.4e-9;
        m[(1, 0)] = 0.4e-9;
        c.add_inductor_system(crate::netlist::InductorSystem {
            branches: vec![(a, Circuit::GND), (v, Circuit::GND)],
            m,
        })
        .unwrap();
        c.resistor(v, Circuit::GND, 1e6);
        let res = c.ac_sweep(&AcOptions { freqs_hz: vec![1e9] }).unwrap();
        // Victim is essentially open: the aggressor current returns
        // through branch 0 only, inducing ωM·I on the victim node.
        let vv = res.voltage(v, 0).abs();
        let expected = 2.0 * std::f64::consts::PI * 1e9 * 0.4e-9;
        assert!((vv - expected).abs() / expected < 0.05, "v = {vv}");
    }

    #[test]
    fn empty_sweep_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor(a, Circuit::GND, 1.0);
        assert!(c.ac_sweep(&AcOptions { freqs_hz: vec![] }).is_err());
        assert!(c
            .ac_sweep(&AcOptions {
                freqs_hz: vec![-1.0]
            })
            .is_err());
    }
}
