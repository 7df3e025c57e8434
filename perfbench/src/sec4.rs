//! `sec4_medium`: the Section 4 sparsification study, Part A — six
//! screens over the clock-over-grid partial-inductance matrix, each
//! followed by the matrix error, the eigenvalue stability report and the
//! passivity audit of its output. One screen with its checks is one
//! operation. No transients run.

use crate::report::{Gate, Metric};
use crate::table1::ClockCase;
use crate::trace::Tracer;
use ind101_numeric::ParallelConfig;
use ind101_sparsify::block_diagonal::{block_diagonal_with, sections_by_signal_distance};
use ind101_sparsify::halo::halo_sparsify_with;
use ind101_sparsify::hierarchical::{hierarchical_parameter_count, hierarchical_sparsify};
use ind101_sparsify::kmatrix::k_sparsify;
use ind101_sparsify::shell::shell_auto_radius;
use ind101_sparsify::truncation::truncate_relative_with;
use ind101_sparsify::{matrix_error, stability_report, Sparsified};
use ind101_verify::{audit_sparsified, MatrixAuditConfig};
use std::time::Instant;

/// Relative thresholds scanned for ~50 % truncation retention.
pub const TRUNCATION_SCAN: [f64; 5] = [0.05, 0.1, 0.2, 0.3, 0.4];
/// Retention ceiling of the shell screen's radius search.
pub const SHELL_MAX_RETENTION: f64 = 0.6;
/// Drop threshold of the K-matrix screen.
pub const K_MIN: f64 = 0.02;
/// Sections of the block-diagonal and hierarchical screens.
pub const SECTIONS: usize = 3;

/// The six screens, in study order.
pub const METHODS: [&str; 6] = ["truncation", "block_diag", "shell", "halo", "hierarchical", "kmatrix"];

/// One screen's output and its checks.
#[derive(Clone, Debug, PartialEq)]
pub struct Output {
    /// Screen name (one of [`METHODS`]).
    pub method: &'static str,
    /// Retained share of mutual terms (for `kmatrix`, of K; for
    /// `hierarchical`, stored parameters over the dense count).
    pub retention: f64,
    /// Relative matrix error against the full matrix.
    pub matrix_err: f64,
    /// Smallest eigenvalue, henries.
    pub min_eig: f64,
    /// Eigenvalue verdict: positive definite.
    pub pd: bool,
    /// Auditor verdict: passive.
    pub passive: bool,
}

/// One pass of the study.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Outputs in [`METHODS`] order (a failed screen is missing).
    pub outputs: Vec<Output>,
    /// Wall time of each operation (one screen and the checks of its
    /// output), seconds.
    pub op_walls: Vec<f64>,
    /// Time in the six screens, seconds.
    pub sparsify_s: f64,
    /// Time in the error, stability and audit checks, seconds.
    pub stability_s: f64,
    /// Screen failures.
    pub errors: Vec<String>,
}

/// Runs one screen and checks its output, as one operation.
fn method_op(
    tr: &Tracer,
    pass: &mut Pass,
    l: &ind101_extract::PartialInductance,
    (op_name, method): (&'static str, &'static str),
    after_op: &mut dyn FnMut(),
    screen: impl FnOnce() -> Result<(Sparsified, f64), String>,
) {
    let ((), secs) = tr.op(op_name, || {
        let t = Instant::now();
        let screened = screen();
        pass.sparsify_s += t.elapsed().as_secs_f64();
        let (s, retention) = match screened {
            Ok(x) => x,
            Err(e) => {
                pass.errors.push(format!("{method}: {e}"));
                return;
            }
        };
        let t = Instant::now();
        let matrix_err = tr.span("sparsify.matrix_error", || matrix_error(l.matrix(), &s.matrix));
        let rep = tr.span("sparsify.stability_report", || stability_report(&s.matrix));
        let audit = tr.span("verify.audit", || audit_sparsified(&s, &MatrixAuditConfig::default()));
        pass.stability_s += t.elapsed().as_secs_f64();
        pass.outputs.push(Output {
            method,
            retention,
            matrix_err,
            min_eig: rep.min_eigenvalue,
            pd: rep.positive_definite,
            passive: audit.passive,
        });
    });
    pass.op_walls.push(secs);
    after_op();
}

/// Runs the six screens, each followed by the checks of its output,
/// and calls `after_op` after each operation, outside its timing.
#[must_use]
pub fn run_pass(tr: &Tracer, case: &ClockCase, cfg: &ParallelConfig, after_op: &mut dyn FnMut()) -> Pass {
    let l = &case.par.partial_l;
    let mut pass = Pass::default();
    method_op(tr, &mut pass, l, ("op.method.truncation", "truncation"), after_op, || {
        tr.span("sparsify.truncate", || {
            TRUNCATION_SCAN
                .iter()
                .map(|&k| truncate_relative_with(l, k, cfg))
                .min_by_key(|s| ((s.stats.retention() - 0.5).abs() * 1e6) as i64)
        })
        .map(|s| {
            let r = s.stats.retention();
            (s, r)
        })
        .ok_or_else(|| "empty threshold scan".to_owned())
    });
    let mut labels = Vec::new();
    method_op(tr, &mut pass, l, ("op.method.block_diag", "block_diag"), after_op, || {
        let bd = tr.span("sparsify.block_diag", || {
            labels = sections_by_signal_distance(l, &case.par.layout, SECTIONS);
            block_diagonal_with(l, &labels, cfg)
        });
        let r = bd.stats.retention();
        Ok((bd, r))
    });
    method_op(tr, &mut pass, l, ("op.method.shell", "shell"), after_op, || {
        let (_, shell) = tr.span("sparsify.shell", || shell_auto_radius(l, SHELL_MAX_RETENTION));
        let r = shell.stats.retention();
        Ok((shell, r))
    });
    method_op(tr, &mut pass, l, ("op.method.halo", "halo"), after_op, || {
        let halo = tr.span("sparsify.halo", || halo_sparsify_with(l, &case.par.layout, cfg));
        let r = halo.stats.retention();
        Ok((halo, r))
    });
    method_op(tr, &mut pass, l, ("op.method.hierarchical", "hierarchical"), after_op, || {
        let (h, params) = tr.span("sparsify.hierarchical", || {
            (hierarchical_sparsify(l, &labels), hierarchical_parameter_count(&labels))
        });
        let dense = l.len() * (l.len() + 1) / 2;
        Ok((h, params as f64 / dense as f64))
    });
    method_op(tr, &mut pass, l, ("op.method.kmatrix", "kmatrix"), after_op, || {
        let ks = tr.span("sparsify.kmatrix", || k_sparsify(l, K_MIN)).map_err(|e| e.to_string())?;
        let r = ks.k_stats.retention();
        Ok((ks.effective_l, r))
    });
    pass
}

/// `(method, retention bits, PD verdict, audit verdict)` per output.
fn verdicts(pass: &Pass) -> Vec<(&'static str, u64, bool, bool)> {
    pass.outputs
        .iter()
        .map(|o| (o.method, o.retention.to_bits(), o.pd, o.passive))
        .collect()
}

/// The Section 4 correctness gates over every pass of a run.
#[must_use]
pub fn gates(passes: &[Pass]) -> Vec<Gate> {
    let mut g = Vec::new();
    for p in passes {
        for e in &p.errors {
            g.push(Gate::check("screen ran", false, e.clone()));
        }
    }
    if let Some(first) = passes.first() {
        let methods: Vec<&str> = first.outputs.iter().map(|o| o.method).collect();
        g.push(Gate::check(
            "all six screens produced an output",
            methods == METHODS,
            format!("{methods:?}"),
        ));
        let bd = first.outputs.iter().find(|o| o.method == "block_diag");
        g.push(Gate::check(
            "block-diagonal output is positive definite",
            bd.is_some_and(|o| o.pd && o.passive && o.min_eig > 0.0),
            format!("{bd:?}"),
        ));
        let v0 = verdicts(first);
        let same = passes.iter().all(|p| verdicts(p) == v0);
        g.push(Gate::check(
            "retentions and PD verdicts identical across repeats",
            same && passes.len() >= 2,
            format!("{} passes", passes.len()),
        ));
    } else {
        g.push(Gate::check("a pass ran", false, "no pass"));
    }
    g
}

/// The workload's own metrics: screen and check times, medians over
/// passes.
#[must_use]
pub fn named_metrics(passes: &[Pass]) -> Vec<Metric> {
    let sp: Vec<f64> = passes.iter().map(|p| p.sparsify_s).collect();
    let st: Vec<f64> = passes.iter().map(|p| p.stability_s).collect();
    vec![
        Metric::new("sparsify_s", crate::report::median(&sp), "s"),
        Metric::new("stability_s", crate::report::median(&st), "s"),
    ]
}
