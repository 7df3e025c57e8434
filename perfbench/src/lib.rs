//! Repo benchmark of the ind101 toolkit: three workloads timed end to
//! end, and a traced run that splits their time by crate.
//!
//! * `table1_large` — the four Table 1 flows on the Large clock net;
//! * `serve_mix` — a closed-loop mix of deck, grid and loop-bus jobs
//!   against one `JobServer`;
//! * `sec4_medium` — the Section 4 sparsification study on the Medium
//!   clock net.
//!
//! See `perfbench/README.md` for the workloads, the metric map and how
//! to run them.

#![forbid(unsafe_code)]

pub mod report;
pub mod sec4;
pub mod serve_mix;
pub mod table1;
pub mod trace;
pub mod workloads;

/// Workload names, as passed to `--workload`.
pub const WORKLOADS: [&str; 3] = ["table1_large", "serve_mix", "sec4_medium"];

/// End-to-end metrics every workload reports in its untraced run:
/// `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
];

/// Per-layer metrics every traced run reports: `(name, unit)`. A layer
/// that does no work on a workload reports 0.
pub const PER_LAYER: [(&str, &str); 68] = [
    ("geom.layout_s", "s"),
    ("geom.segments", "count"),
    ("extract.partial_l_s", "s"),
    ("extract.partial_l_serial_s", "s"),
    ("extract.partial_l_speedup", "ratio"),
    ("extract.mutuals", "count"),
    ("extract.gmd_hit_ratio", "ratio"),
    ("core.testbench_s", "s"),
    ("core.mutuals_stamped", "count"),
    ("sparsify.block_diag_s", "s"),
    ("sparsify.truncate_s", "s"),
    ("sparsify.shell_s", "s"),
    ("sparsify.halo_s", "s"),
    ("sparsify.hierarchical_s", "s"),
    ("sparsify.kmatrix_s", "s"),
    ("sparsify.stability_report_s", "s"),
    ("sparsify.matrix_error_s", "s"),
    ("sparsify.retention.truncation", "ratio"),
    ("sparsify.retention.block_diag", "ratio"),
    ("sparsify.retention.shell", "ratio"),
    ("sparsify.retention.halo", "ratio"),
    ("sparsify.retention.hierarchical", "ratio"),
    ("sparsify.retention.kmatrix", "ratio"),
    ("verify.audit_s", "s"),
    ("verify.gate_s", "s"),
    ("circuit.transient_s.peec_rc", "s"),
    ("circuit.transient_s.peec_rlc", "s"),
    ("circuit.transient_s.peec_bd", "s"),
    ("circuit.transient_s.loop_rlc", "s"),
    ("circuit.step_ms", "ms"),
    ("circuit.steps", "count"),
    ("circuit.steps_rejected", "count"),
    ("circuit.rescue_rungs", "count"),
    ("circuit.measure_s", "s"),
    ("circuit.dc_op_s", "s"),
    ("circuit.mna_s", "s"),
    ("circuit.ac_sweep_s", "s"),
    ("numeric.symbolic_s", "s"),
    ("numeric.factor_s", "s"),
    ("numeric.solve_s", "s"),
    ("numeric.dense_factor_s", "s"),
    ("numeric.factor_nnz", "count"),
    ("numeric.btf_blocks", "count"),
    ("numeric.max_block_dim", "count"),
    ("numeric.supernodes", "count"),
    ("numeric.mna_dim", "count"),
    ("loopind.extract_s", "s"),
    ("loopind.build_s", "s"),
    ("loopind.extract_serial_s", "s"),
    ("loopind.extract_speedup", "ratio"),
    ("loopind.extractions", "count"),
    ("netlist.parse_s", "s"),
    ("netlist.flatten_s", "s"),
    ("netlist.lower_s", "s"),
    ("netlist.deck_bytes", "bytes"),
    ("netlist.decks", "count"),
    ("serve.run_job_s", "s"),
    ("serve.result_hit_ratio", "ratio"),
    ("serve.lu_patterns", "count"),
    ("serve.deck_small_p50_ms", "ms"),
    ("serve.deck_medium_p50_ms", "ms"),
    ("serve.grid_p50_ms", "ms"),
    ("serve.loop_bus_p50_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.sec4_bus_p50_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
    ("trace.recorder_pct", "%"),
];
