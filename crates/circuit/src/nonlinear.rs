//! Fast Newton iteration via Sherman–Morrison–Woodbury updates.
//!
//! A level-1 MOSFET contributes a **rank-one** update to the MNA
//! Jacobian: its stamp is `(e_d − e_s) · [gds·e_dᵀ + gm·e_gᵀ −
//! (gm+gds)·e_sᵀ]`. With `m` transistors the Jacobian is
//! `J(x) = A₀ + U·W(x)` where `A₀` is the (constant) linear matrix,
//! `U` is a fixed `n × m` incidence and `W(x)` holds the bias-dependent
//! conductances. Factoring `A₀` **once** and applying the Woodbury
//! identity per Newton iteration replaces an `O(n³)`/`O(n·b²)` refactor
//! with one back-substitution plus an `m × m` solve — the difference
//! between hours and seconds for the paper's Table 1 testcases, where
//! a handful of gates drive thousands of RLC elements.

use crate::elements::Mosfet;
use crate::mna::MnaLayout;
use crate::solver::{Solver, SolverBackend};
use crate::{CircuitError, Result};
use ind101_numeric::{Matrix, NumericError, SymbolicLu, Triplets};
use std::sync::Arc;

/// Per-device unknown indices (`None` = terminal at ground).
#[derive(Clone, Copy, Debug)]
struct DeviceIdx {
    d: Option<usize>,
    g: Option<usize>,
    s: Option<usize>,
}

/// A factored linear system `A₀` plus rank-m MOSFET updates.
#[derive(Debug)]
pub(crate) struct WoodburySolver {
    base: Solver<f64>,
    /// Z = A₀⁻¹·U, one column per device (empty columns for devices with
    /// both drain and source grounded).
    z: Vec<Vec<f64>>,
    idx: Vec<DeviceIdx>,
    n: usize,
}

impl WoodburySolver {
    /// Factors the static matrix and prepares the update columns
    /// (Auto backend, no refinement — the differential-test baseline).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn build(
        static_t: &Triplets,
        layout: &MnaLayout,
        mosfets: &[Mosfet],
    ) -> Result<Self> {
        Self::build_with(static_t, layout, mosfets, false, SolverBackend::Auto, None)
    }

    /// Like [`WoodburySolver::build`], optionally enabling iterative
    /// refinement of ill-conditioned base solves (rescue/adaptive paths;
    /// the default path must stay bit-for-bit reproducible) and forcing
    /// a linear-solver family for the factored base matrix. `hint`
    /// forwards a sparse symbolic factorization from an earlier
    /// same-pattern build, so only the numeric phase re-runs.
    pub(crate) fn build_with(
        static_t: &Triplets,
        layout: &MnaLayout,
        mosfets: &[Mosfet],
        refine: bool,
        backend: SolverBackend,
        hint: Option<&Arc<SymbolicLu>>,
    ) -> Result<Self> {
        let mut base = Solver::build_with(static_t, backend, hint)?;
        if refine {
            base = base.with_refinement();
        }
        let n = layout.n;
        let idx: Vec<DeviceIdx> = mosfets
            .iter()
            .map(|m| DeviceIdx {
                d: layout.node(m.d),
                g: layout.node(m.g),
                s: layout.node(m.s),
            })
            .collect();
        let mut z = Vec::with_capacity(mosfets.len());
        for di in &idx {
            let mut u = vec![0.0; n];
            if let Some(d) = di.d {
                u[d] += 1.0;
            }
            if let Some(s) = di.s {
                u[s] -= 1.0;
            }
            z.push(base.solve(&u)?);
        }
        Ok(Self { base, z, idx, n })
    }

    /// Sparse symbolic pattern of the base matrix, for reuse by the next
    /// same-structure build.
    pub(crate) fn symbolic_hint(&self) -> Option<Arc<SymbolicLu>> {
        self.base.symbolic_hint()
    }

    /// One Newton update: solves `J(x_lin)·x = rhs + Norton(x_lin)`
    /// where the Jacobian and Norton currents are linearized at `x_lin`.
    ///
    /// This produces *exactly* the same iterates as stamping the device
    /// Jacobian into the matrix and refactoring — only faster.
    pub(crate) fn solve(
        &self,
        mosfets: &[Mosfet],
        x_lin: &[f64],
        rhs: &[f64],
    ) -> Result<Vec<f64>> {
        let m = mosfets.len();
        let v_at = |o: Option<usize>| o.map_or(0.0, |i| x_lin[i]);
        // Linearizations and Norton-corrected RHS.
        let mut b = rhs.to_vec();
        let mut lins = Vec::with_capacity(m);
        for (dev, di) in mosfets.iter().zip(&self.idx) {
            let lin = dev.linearize(v_at(di.d), v_at(di.g), v_at(di.s));
            let ieq0 = lin.ids
                - lin.gm * (v_at(di.g) - v_at(di.s))
                - lin.gds * (v_at(di.d) - v_at(di.s));
            if let Some(d) = di.d {
                b[d] -= ieq0;
            }
            if let Some(s) = di.s {
                b[s] += ieq0;
            }
            lins.push(lin);
        }
        let y = self.base.solve(&b)?;
        if m == 0 {
            return Ok(y);
        }
        // W rows applied to a vector: W_i·v = gds·v[d] + gm·v[g] − (gm+gds)·v[s].
        let w_dot = |i: usize, v: &[f64]| -> f64 {
            let lin = &lins[i];
            let di = &self.idx[i];
            let mut acc = 0.0;
            if let Some(d) = di.d {
                acc += lin.gds * v[d];
            }
            if let Some(g) = di.g {
                acc += lin.gm * v[g];
            }
            if let Some(s) = di.s {
                acc -= (lin.gm + lin.gds) * v[s];
            }
            acc
        };
        // S = I + W·Z (m×m), t = W·y.
        let mut s = Matrix::zeros(m, m);
        let mut t = vec![0.0; m];
        for i in 0..m {
            for j in 0..m {
                s[(i, j)] = w_dot(i, &self.z[j]) + if i == j { 1.0 } else { 0.0 };
            }
            t[i] = w_dot(i, &y);
        }
        let c = s
            .lu()
            .and_then(|f| f.solve(&t))
            .map_err(|_: NumericError| CircuitError::Numeric(NumericError::Singular { pivot: 0 }))?;
        let mut x = y;
        for j in 0..m {
            let cj = c[j];
            if cj == 0.0 {
                continue;
            }
            for (xi, zi) in x.iter_mut().zip(&self.z[j]) {
                *xi -= cj * zi;
            }
        }
        debug_assert_eq!(x.len(), self.n);
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::{Element, MosPolarity};
    use crate::mna::{assemble_static, stamp_mosfet, Scheme};
    use crate::netlist::Circuit;
    use crate::waveform::SourceWave;

    /// Woodbury iterate must equal the stamp-and-refactor iterate.
    #[test]
    fn woodbury_matches_direct_stamping() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        c.vsrc(vdd, Circuit::GND, SourceWave::dc(1.8));
        c.vsrc(inp, Circuit::GND, SourceWave::dc(0.9));
        c.inverter(inp, out, vdd, Circuit::GND, crate::netlist::InverterParams::default());
        c.resistor(out, Circuit::GND, 10_000.0);
        let layout = MnaLayout::build(&c);
        let static_t = assemble_static(&c, &layout, Scheme::Dc, 0.0);
        let mosfets: Vec<Mosfet> = c
            .elements()
            .iter()
            .filter_map(|e| match e {
                Element::Transistor(m) => Some(m.clone()),
                _ => None,
            })
            .collect();
        let rhs = {
            let mut r = vec![0.0; layout.n];
            r[layout.vsrc_rows[0]] = 1.8;
            r[layout.vsrc_rows[1]] = 0.9;
            r
        };
        // Arbitrary linearization point.
        let x_lin: Vec<f64> = (0..layout.n).map(|i| 0.1 * i as f64).collect();

        // Direct path.
        let mut t = static_t.clone();
        let mut b = rhs.clone();
        for m in &mosfets {
            stamp_mosfet(&mut t, &mut b, &layout, m, &x_lin);
        }
        let direct = Solver::build(&t).unwrap().solve(&b).unwrap();

        // Woodbury path.
        let wb = WoodburySolver::build(&static_t, &layout, &mosfets).unwrap();
        let fast = wb.solve(&mosfets, &x_lin, &rhs).unwrap();

        for (a, b) in direct.iter().zip(&fast) {
            assert!((a - b).abs() < 1e-8, "direct {a} vs woodbury {b}");
        }
    }

    #[test]
    fn zero_devices_degenerates_to_plain_solve() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor(a, Circuit::GND, 2.0);
        c.isrc(Circuit::GND, a, SourceWave::dc(1.0));
        let layout = MnaLayout::build(&c);
        let static_t = assemble_static(&c, &layout, Scheme::Dc, 0.0);
        let wb = WoodburySolver::build(&static_t, &layout, &[]).unwrap();
        let x = wb.solve(&[], &[0.0], &[1.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn grounded_terminal_devices_are_handled() {
        // NMOS with source at ground: u = e_d only.
        let mut c = Circuit::new();
        let d = c.node("d");
        let g = c.node("g");
        c.vsrc(g, Circuit::GND, SourceWave::dc(1.2));
        c.resistor(d, Circuit::GND, 1_000.0);
        c.isrc(Circuit::GND, d, SourceWave::dc(1e-3));
        c.mosfet(Mosfet {
            d,
            g,
            s: Circuit::GND,
            polarity: MosPolarity::Nmos,
            beta: 1e-3,
            vt: 0.5,
            lambda: 0.0,
        });
        let layout = MnaLayout::build(&c);
        let static_t = assemble_static(&c, &layout, Scheme::Dc, 0.0);
        let mosfets: Vec<Mosfet> = c
            .elements()
            .iter()
            .filter_map(|e| match e {
                Element::Transistor(m) => Some(m.clone()),
                _ => None,
            })
            .collect();
        let wb = WoodburySolver::build(&static_t, &layout, &mosfets).unwrap();
        let x_lin = vec![0.5; layout.n];
        let mut rhs = vec![0.0; layout.n];
        rhs[layout.vsrc_rows[0]] = 1.2;
        let fast = wb.solve(&mosfets, &x_lin, &rhs).unwrap();

        let mut t = static_t.clone();
        let mut b = rhs.clone();
        for m in &mosfets {
            stamp_mosfet(&mut t, &mut b, &layout, m, &x_lin);
        }
        let direct = Solver::build(&t).unwrap().solve(&b).unwrap();
        for (a, bb) in direct.iter().zip(&fast) {
            assert!((a - bb).abs() < 1e-9);
        }
    }
}
