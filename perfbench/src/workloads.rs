//! The three workloads: set-up, timed passes, correctness gates, and in
//! the traced run the per-layer metrics and probes.

use crate::report::{median, peak_rss_mb, percentile, reset_peak_rss, rss_mb, Gate, Metric};
use crate::sec4;
use crate::serve_mix::{self, Class, Templates};
use crate::table1::{self, clock_case, ClockCase, Flow, Scale};
use crate::trace::{self, Span, Tracer};
use ind101_circuit::RescuePolicy;
use ind101_core::testbench::{build_testbench, DriverKind, TestbenchSpec};
use ind101_core::InductanceMode;
use ind101_loop::{extract_loop_rl_with, LoopPortSpec};
use ind101_numeric::{ParallelConfig, SparseLu, SymbolicLu, Triplets};
use ind101_serve::JobServer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Set-up samples of `serve_mix`, each timing `SERVERS_PER_SAMPLE`
/// constructions (one is too short to time on its own).
const SERVER_SAMPLES: usize = 21;
const SERVERS_PER_SAMPLE: usize = 1000;
/// Minimum passes of `sec4_medium`, so its repeat gate has two to compare.
const SEC4_MIN_PASSES: usize = 2;

/// Settings of one run.
#[derive(Clone, Debug)]
pub struct Config {
    /// Input seed.
    pub seed: u64,
    /// Measuring time, seconds: passes repeat until it is spent.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Threads the workload may use (`nproc`).
    pub threads: usize,
    /// Root of the source checkout (holds `tests/decks/`).
    pub root: PathBuf,
    /// Where cross-run state (Table 1 delay bits) is kept, if anywhere.
    pub state_dir: Option<PathBuf>,
    /// Source revision, keys the cross-run state.
    pub commit: String,
}

/// Everything a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The end-to-end metrics of `BENCHMARK.json` (untraced run).
    pub e2e: Vec<Metric>,
    /// The workload's own end-to-end metrics (flow times, job latency,
    /// screen and check times), printed on the `named:` line.
    pub named: Vec<Metric>,
    /// Per-layer metrics (traced run); missing names read 0.
    pub layer: BTreeMap<&'static str, f64>,
    /// Correctness gates.
    pub gates: Vec<Gate>,
    /// Operations attempted (flows, jobs, screens and checks).
    pub ops: usize,
    /// Operations that returned an error.
    pub ops_failed: usize,
    /// Recorded spans (traced run).
    pub spans: Vec<Span>,
    /// MNA dimension of the Thévenin-driven Large PEEC (RLC) testbench.
    pub large_mna_dim: usize,
    /// Passes measured.
    pub passes: usize,
}

/// The end-to-end metrics of `BENCHMARK.json`. The operation
/// percentiles are taken in each pass, then their median over passes.
fn generic(setup: &[f64], peak_mb: f64, pass: &[f64], op_secs: &[Vec<f64>]) -> Vec<Metric> {
    let per_pass = |stat: &dyn Fn(&[f64]) -> f64| -> Vec<f64> { op_secs.iter().map(|ops| 1e3 * stat(ops)).collect() };
    vec![
        Metric::new("setup_s", median(setup), "s"),
        Metric::new("peak_rss_mb", peak_mb, "MB"),
        Metric::new("pass_s", median(pass), "s"),
        Metric::new("op_p50_ms", median(&per_pass(&median)), "ms"),
        Metric::new("op_p95_ms", median(&per_pass(&|ops| percentile(ops, 0.95))), "ms"),
    ]
}

/// Adds the tracing overhead and the unattributed share.
fn trace_share(o: &mut Outcome, untraced_s: f64, traced_s: f64) {
    let (wall, gap) = trace::coverage(&o.spans);
    let per_span = trace::span_cost_s();
    o.layer.insert(
        "trace.recorder_pct",
        if wall > 0.0 { 100.0 * o.spans.len() as f64 * per_span / wall } else { 0.0 },
    );
    o.layer.insert("trace.overhead_pct", 100.0 * (traced_s / untraced_s - 1.0));
    o.layer.insert("trace.unattributed_pct", if wall > 0.0 { 100.0 * gap / wall } else { 0.0 });
}

/// Builds of the clock case timed together as one set-up sample, so a
/// sample lasts about 0.2 s at either scale (one Medium build takes
/// about 10 ms, too short to time on its own on a shared host).
fn setup_batch(scale: Scale) -> usize {
    match scale {
        Scale::Small | Scale::Medium => 20,
        Scale::Large => 2,
    }
}

/// One set-up sample: `setup_batch(scale)` builds of the clock case
/// timed together. Returns the last build and the time per build.
fn setup_sample(tr: &Tracer, scale: Scale, cfg: &ParallelConfig) -> (ClockCase, f64) {
    let batch = setup_batch(scale);
    let t = Instant::now();
    let mut case = clock_case(tr, scale, cfg);
    for _ in 1..batch {
        case = clock_case(tr, scale, cfg);
    }
    (case, t.elapsed().as_secs_f64() / batch as f64)
}

/// The untraced run takes `samples` set-up samples in a row; the traced
/// run builds the case once, traced, for the `geom`/`extract` layer
/// metrics. Returns the last build and the sample times.
fn setup(
    tr: &Tracer,
    o: &mut Outcome,
    (scale, samples): (Scale, usize),
    cfg: &Config,
    par_cfg: &ParallelConfig,
) -> (ClockCase, Vec<f64>) {
    if cfg.trace {
        tr.set_on(true);
        let case = traced_setup(tr, o, scale, par_cfg);
        tr.set_on(false);
        return (case, Vec::new());
    }
    let (mut case, first) = setup_sample(tr, scale, par_cfg);
    let mut times = vec![first];
    for _ in 1..samples {
        let (c, t) = setup_sample(tr, scale, par_cfg);
        case = c;
        times.push(t);
    }
    (case, times)
}

/// The traced run's set-up: one build, traced, and a serial extraction
/// as the base of the speedup, for the `geom`/`extract` layer metrics.
fn traced_setup(tr: &Tracer, o: &mut Outcome, scale: Scale, cfg: &ParallelConfig) -> ClockCase {
    let (case, _) = tr.op("op.setup", || clock_case(tr, scale, cfg));
    let spans = tr.spans();
    o.layer.insert("geom.layout_s", trace::total(&spans, "geom.layout"));
    o.layer.insert("extract.partial_l_s", trace::total(&spans, "extract.partial_l"));
    o.layer.insert("geom.segments", case.par.len() as f64);
    o.layer.insert("extract.mutuals", case.par.partial_l.mutual_count() as f64);
    let (layout, _, seg) = table1::clock_layout(scale);
    let (_, serial) = tr.op("op.probe.extract_serial", || {
        tr.span("extract.partial_l_serial", || {
            ind101_core::PeecParasitics::extract_with(&layout, seg, &ParallelConfig::serial())
        })
    });
    o.layer.insert("extract.partial_l_serial_s", serial);
    o.layer.insert("extract.partial_l_speedup", serial / o.layer["extract.partial_l_s"]);
    case
}

/// MNA dimension of the Thévenin-driven PEEC (RLC) testbench of `case`.
fn mna_dim(case: &ClockCase) -> usize {
    let spec = TestbenchSpec {
        driver: DriverKind::Thevenin { r_out: 50.0 },
        ..table1::flow_spec()
    };
    build_testbench(&case.par, InductanceMode::Full, &spec)
        .ok()
        .and_then(|tb| tb.circuit.mna_system().ok())
        .map_or(0, |s| s.n)
}

/// `table1_large`.
///
/// The untraced run makes one pass. The traced run makes an untraced
/// pass and then a traced one, and compares the two (bit identity,
/// tracing overhead). Either way the untraced pass's per-sink delay bits
/// are compared with those the first run of the same source revision
/// recorded in the state directory, and its worst delays with the
/// committed golden values.
#[must_use]
pub fn table1_large(cfg: &Config) -> Outcome {
    let par_cfg = ParallelConfig::with_threads(cfg.threads);
    let tr = Tracer::new(false);
    let mut o = Outcome::default();
    let (case, mut setup_times) = setup(&tr, &mut o, (Scale::Large, 3), cfg, &par_cfg);
    // Table 1 is one fixed testcase: the seed selects nothing here, and
    // the flows run in table order (the order moves allocator state and
    // with it the flow times, so it stays fixed).
    let order = Flow::ALL;
    // As on `sec4_medium`, set-up samples are spread over the run: two
    // after each flow, 11 in all with the three before.
    let mut sample_setup = || {
        if !cfg.trace {
            for _ in 0..2 {
                setup_times.push(setup_sample(&tr, Scale::Large, &par_cfg).1);
            }
        }
    };
    let pass = table1::run_pass(&tr, &case, &order, &par_cfg, &mut sample_setup);
    let bits = table1::delay_bits(&pass);
    let bits_path = state_path(cfg, "table1_delays");
    match bits_path.as_deref().and_then(read_bits) {
        Some(prev) => o.gates.push(table1::same_bits_gate(
            "per-sink delays bit-identical across runs",
            &prev,
            &bits,
        )),
        None => write_bits(bits_path.as_deref(), &bits),
    }
    o.gates.push(table1::golden_gate(&pass, &table1::parse_golden(table1::GOLDEN_LARGE)));
    o.passes = 1;
    o.ops = Flow::ALL.len();
    if cfg.trace {
        tr.set_on(true);
        let traced = table1::run_pass(&tr, &case, &order, &par_cfg, &mut || {});
        o.gates.push(table1::same_bits_gate(
            "per-sink delays bit-identical, untraced vs traced run",
            &bits,
            &table1::delay_bits(&traced),
        ));
        o.ops_failed = traced.flows.iter().filter(|(r, _)| r.is_err()).count();
        o.gates.extend(table1::gates(&traced));
        o.named = table1::named_metrics(&traced);
        o.spans = tr.spans();
        table1_layers(&mut o, &traced);
        table1_probes(&tr, &mut o, &case, &par_cfg);
        o.spans = tr.spans();
        trace_share(&mut o, pass_secs(&pass), pass_secs(&traced));
    } else {
        let flow_secs: Vec<f64> = pass.flows.iter().map(|(_, s)| *s).collect();
        o.ops_failed = pass.flows.iter().filter(|(r, _)| r.is_err()).count();
        o.gates.extend(table1::gates(&pass));
        o.named = table1::named_metrics(&pass);
        o.e2e = generic(&setup_times, peak_rss_mb(), &[pass_secs(&pass)], &[flow_secs]);
    }
    o.large_mna_dim = mna_dim(&case);
    o
}

fn pass_secs(pass: &table1::Pass) -> f64 {
    pass.flows.iter().map(|(_, s)| *s).sum()
}

/// `<state dir>/<name>-<source revision>.txt`, if there is a state dir.
fn state_path(cfg: &Config, name: &str) -> Option<PathBuf> {
    let key: String = cfg
        .commit
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' { c } else { '_' })
        .collect();
    cfg.state_dir.as_ref().map(|d| d.join(format!("{name}-{key}.txt")))
}

fn read_bits(path: &Path) -> Option<Vec<(String, u64)>> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .map(|l| {
            let (k, b) = l.rsplit_once(' ')?;
            Some((k.to_owned(), u64::from_str_radix(b, 16).ok()?))
        })
        .collect()
}

fn write_bits(path: Option<&Path>, bits: &[(String, u64)]) {
    if let Some(path) = path {
        let text: String = bits.iter().map(|(k, b)| format!("{k} {b:016x}\n")).collect();
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let _ = std::fs::write(path, text);
    }
}

fn table1_layers(o: &mut Outcome, traced: &table1::Pass) {
    let s = &o.spans;
    let flow_ops = ["op.flow.peec_rc", "op.flow.peec_rlc", "op.flow.peec_bd", "op.flow.loop_rlc"];
    let in_flows = |name: &str| -> f64 { flow_ops.iter().map(|op| trace::total_in_op(s, name, op)).sum() };
    let mut l = BTreeMap::new();
    l.insert("core.testbench_s", in_flows("core.testbench"));
    l.insert("circuit.measure_s", in_flows("circuit.measure"));
    l.insert("sparsify.block_diag_s", in_flows("sparsify.block_diag"));
    l.insert("loopind.extract_s", in_flows("loopind.extract"));
    l.insert("loopind.build_s", in_flows("loopind.build"));
    l.insert("loopind.extractions", trace::count(s, "loopind.extract") as f64);
    let mut transient = 0.0;
    for (flow, op) in Flow::ALL.iter().zip(flow_ops) {
        let t = trace::total_in_op(s, "circuit.transient", op);
        transient += t;
        let key = match flow {
            Flow::PeecRc => "circuit.transient_s.peec_rc",
            Flow::PeecRlc => "circuit.transient_s.peec_rlc",
            Flow::PeecBd => "circuit.transient_s.peec_bd",
            Flow::LoopRlc => "circuit.transient_s.loop_rlc",
        };
        l.insert(key, t);
    }
    let runs: Vec<&table1::FlowRun> = Flow::ALL.iter().filter_map(|&f| traced.get(f)).collect();
    let steps: usize = runs.iter().map(|r| r.steps).sum();
    l.insert("circuit.steps", steps as f64);
    l.insert("circuit.steps_rejected", runs.iter().map(|r| r.steps_rejected).sum::<usize>() as f64);
    l.insert("circuit.rescue_rungs", runs.iter().map(|r| r.rescue_rungs).sum::<usize>() as f64);
    l.insert("circuit.step_ms", if steps > 0 { 1e3 * transient / steps as f64 } else { 0.0 });
    if let Some(r) = traced.get(Flow::PeecRlc) {
        l.insert("core.mutuals_stamped", r.counts.mutuals as f64);
    }
    if let Some(r) = traced.get(Flow::PeecBd).and_then(|r| r.retention) {
        l.insert("sparsify.retention.block_diag", r);
    }
    o.layer.extend(l);
}

/// Probes on the PEEC (RLC) circuit: its DC operating point, the linear
/// trapezoidal matrix `G + (2/dt)·C` of its Thévenin-driven twin through
/// the sparse and dense factorizations, and a serial loop extraction.
fn table1_probes(tr: &Tracer, o: &mut Outcome, case: &ClockCase, cfg: &ParallelConfig) {
    let ((), _) = tr.op("op.probe.circuit", || {
        let spec = table1::flow_spec();
        if let Ok(tb) = tr.span("core.testbench", || build_testbench(&case.par, InductanceMode::Full, &spec)) {
            let _ = tr.span("circuit.dc_op", || tb.circuit.dc_op_with(&RescuePolicy::full()));
        }
        let linear = TestbenchSpec {
            driver: DriverKind::Thevenin { r_out: 50.0 },
            ..spec
        };
        let Ok(tb) = tr.span("core.testbench", || build_testbench(&case.par, InductanceMode::Full, &linear)) else {
            return;
        };
        let Ok(sys) = tr.span("circuit.mna", || tb.circuit.mna_system()) else {
            return;
        };
        let a = tr.span("numeric.assemble", || {
            let mut t = Triplets::new(sys.n, sys.n);
            for &(i, j, v) in sys.g.entries() {
                t.push(i, j, v);
            }
            for &(i, j, v) in sys.c.entries() {
                t.push(i, j, 2.0 / table1::DT * v);
            }
            t.to_csr()
        });
        o.layer.insert("numeric.mna_dim", sys.n as f64);
        let Ok(sym) = tr.span("numeric.symbolic", || SymbolicLu::analyze(&a)) else {
            return;
        };
        let Ok(lu) = tr.span("numeric.factor", || SparseLu::factor_with(Arc::new(sym), &a)) else {
            return;
        };
        let b = vec![1.0; sys.n];
        let _ = tr.span("numeric.solve", || lu.solve(&b));
        let st = lu.stats();
        o.layer.insert("numeric.factor_nnz", st.factor_nnz as f64);
        o.layer.insert("numeric.btf_blocks", st.num_blocks as f64);
        o.layer.insert("numeric.max_block_dim", st.max_block_dim as f64);
        o.layer.insert("numeric.supernodes", st.num_supernodes as f64);
        let dense = tr.span("numeric.to_dense", || a.to_dense());
        let _ = tr.span("numeric.dense_factor", || dense.lu_with(cfg));
    });
    let ((), _) = tr.op("op.probe.loop_serial", || {
        let Some(sink) = case.sink_ports.first() else {
            return;
        };
        let port_spec = LoopPortSpec {
            driver_port: "clk_drv".to_owned(),
            receiver_ports: vec![sink.clone()],
        };
        let _ = tr.span("loopind.extract_serial", || {
            extract_loop_rl_with(&case.par, &port_spec, &[table1::LOOP_FREQ_HZ], &ParallelConfig::serial())
        });
    });
    let s = tr.spans();
    for (metric, name) in [
        ("circuit.dc_op_s", "circuit.dc_op"),
        ("circuit.mna_s", "circuit.mna"),
        ("numeric.symbolic_s", "numeric.symbolic"),
        ("numeric.factor_s", "numeric.factor"),
        ("numeric.solve_s", "numeric.solve"),
        ("numeric.dense_factor_s", "numeric.dense_factor"),
        ("loopind.extract_serial_s", "loopind.extract_serial"),
    ] {
        o.layer.insert(metric, trace::total(&s, name));
    }
    let n = o.layer.get("loopind.extractions").copied().unwrap_or(0.0);
    let per_extraction = o.layer.get("loopind.extract_s").copied().unwrap_or(0.0) / n.max(1.0);
    o.layer.insert(
        "loopind.extract_speedup",
        o.layer["loopind.extract_serial_s"] / per_extraction,
    );
}

/// `sec4_medium`.
#[must_use]
pub fn sec4_medium(cfg: &Config) -> Outcome {
    let par_cfg = ParallelConfig::with_threads(cfg.threads);
    let tr = Tracer::new(false);
    let mut o = Outcome::default();
    let (case, mut setup_times) = setup(&tr, &mut o, (Scale::Medium, 1), cfg, &par_cfg);
    // The host's speed shifts by up to half for seconds at a time, and a
    // Medium build takes about 10 ms. So the untraced run takes a set-up
    // sample after every operation as well, and `setup_s` sees the same
    // host as the passes do.
    let mut sample_setup = || {
        if !cfg.trace {
            setup_times.push(setup_sample(&tr, Scale::Medium, &par_cfg).1);
        }
    };
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < SEC4_MIN_PASSES || start.elapsed().as_secs_f64() < cfg.seconds {
        passes.push(sec4::run_pass(&tr, &case, &par_cfg, &mut sample_setup));
    }
    let pass_secs: Vec<f64> = passes.iter().map(|p| p.op_walls.iter().sum()).collect();
    let op_secs: Vec<Vec<f64>> = passes.iter().map(|p| p.op_walls.clone()).collect();
    o.passes = passes.len();
    o.ops = op_secs.iter().map(Vec::len).sum();
    o.ops_failed = passes.iter().map(|p| p.errors.len()).sum();
    o.named = sec4::named_metrics(&passes);
    if cfg.trace {
        tr.set_on(true);
        let traced: Vec<sec4::Pass> =
            (0..passes.len()).map(|_| sec4::run_pass(&tr, &case, &par_cfg, &mut || {})).collect();
        let both: Vec<sec4::Pass> = passes.iter().chain(&traced).cloned().collect();
        o.gates = sec4::gates(&both);
        o.spans = tr.spans();
        let p = traced.len() as f64;
        for (metric, name) in [
            ("sparsify.truncate_s", "sparsify.truncate"),
            ("sparsify.block_diag_s", "sparsify.block_diag"),
            ("sparsify.shell_s", "sparsify.shell"),
            ("sparsify.halo_s", "sparsify.halo"),
            ("sparsify.hierarchical_s", "sparsify.hierarchical"),
            ("sparsify.kmatrix_s", "sparsify.kmatrix"),
            ("sparsify.stability_report_s", "sparsify.stability_report"),
            ("sparsify.matrix_error_s", "sparsify.matrix_error"),
            ("verify.audit_s", "verify.audit"),
        ] {
            o.layer.insert(metric, trace::total(&o.spans, name) / p);
        }
        if let Some(last) = traced.last() {
            for out in &last.outputs {
                let key = match out.method {
                    "truncation" => "sparsify.retention.truncation",
                    "block_diag" => "sparsify.retention.block_diag",
                    "shell" => "sparsify.retention.shell",
                    "halo" => "sparsify.retention.halo",
                    "hierarchical" => "sparsify.retention.hierarchical",
                    _ => "sparsify.retention.kmatrix",
                };
                o.layer.insert(key, out.retention);
            }
        }
        let traced_secs: Vec<f64> = traced.iter().map(|p| p.op_walls.iter().sum()).collect();
        trace_share(&mut o, pass_secs.iter().sum(), traced_secs.iter().sum());
    } else {
        o.gates = sec4::gates(&passes);
        o.e2e = generic(&setup_times, peak_rss_mb(), &pass_secs, &op_secs);
    }
    o.large_mna_dim = mna_dim(&clock_case(&Tracer::new(false), Scale::Large, &par_cfg));
    o
}

/// `serve_mix`.
#[must_use]
pub fn serve_mix(cfg: &Config) -> Outcome {
    let tr = Tracer::new(false);
    let mut o = Outcome::default();
    let bus_path = cfg.root.join("tests/decks/sec4_bus.cir");
    let bus = match std::fs::read_to_string(&bus_path) {
        Ok(t) => t,
        Err(e) => {
            o.gates.push(Gate::check("inputs", false, format!("{}: {e}", bus_path.display())));
            return o;
        }
    };
    let jobs = match serve_mix::generate(&Templates::new(bus), cfg.seed, serve_mix::JOBS_PER_PASS) {
        Ok(j) => j,
        Err(e) => {
            o.gates.push(Gate::check("inputs", false, e));
            return o;
        }
    };

    let mut setup_times = Vec::with_capacity(SERVER_SAMPLES);
    for _ in 0..SERVER_SAMPLES {
        let t = Instant::now();
        for _ in 0..SERVERS_PER_SAMPLE {
            drop(std::hint::black_box(JobServer::new()));
        }
        setup_times.push(t.elapsed().as_secs_f64() / SERVERS_PER_SAMPLE as f64);
    }

    let run_passes = |tr: &Tracer, count: Option<usize>| {
        let start = Instant::now();
        let mut passes = Vec::new();
        let mut makespans = Vec::new();
        let mut stats = Vec::new();
        loop {
            let done = match count {
                Some(n) => passes.len() >= n,
                None => !passes.is_empty() && start.elapsed().as_secs_f64() >= cfg.seconds,
            };
            if done {
                break;
            }
            let server = JobServer::new();
            let (records, makespan) = serve_mix::run_pass(tr, &server, &jobs, cfg.threads);
            passes.push(records);
            makespans.push(makespan);
            stats.push(server.stats());
        }
        (passes, makespans, stats)
    };
    // The first pass warms the process up: later passes reuse the memory
    // it faulted in, and ran 20-25 % faster. It is checked but not timed,
    // so every timed pass starts alike however many fit in `--seconds`.
    // Peak memory is that of the first pass alone, above the job list and
    // whatever input generation left resident.
    let baseline_mb = rss_mb();
    reset_peak_rss();
    let (warm, _, _) = run_passes(&tr, Some(1));
    let peak_mb = peak_rss_mb() - baseline_mb;
    let (passes, makespans, _) = run_passes(&tr, None);
    let checked: Vec<Vec<serve_mix::JobRecord>> = warm.into_iter().chain(passes.iter().cloned()).collect();
    let latencies: Vec<Vec<f64>> = passes.iter().map(|p| p.iter().map(|r| r.latency_s).collect()).collect();
    o.passes = passes.len();
    o.ops = checked.iter().map(Vec::len).sum();
    o.ops_failed = checked.iter().flatten().filter(|r| r.outcome.is_err()).count();
    let total_jobs = latencies.iter().map(Vec::len).sum::<usize>() as f64;
    let (p50, p95) = serve_mix::latency_ms(&passes.iter().flatten().collect::<Vec<_>>());
    o.named = vec![
        Metric::new("jobs_per_s", total_jobs / makespans.iter().sum::<f64>(), "1/s"),
        Metric::new("job_p50_ms", p50, "ms"),
        Metric::new("job_p95_ms", p95, "ms"),
    ];

    if !cfg.trace {
        o.e2e = generic(&setup_times, peak_mb, &makespans, &latencies);
    }
    let decks = serve_mix::distinct_decks(&jobs);
    if cfg.trace {
        tr.set_on(true);
        let (traced, traced_makespans, stats) = run_passes(&tr, Some(passes.len()));
        let spans_before_checks = tr.spans();
        let references = serve_mix::reference_reports(&tr, &decks, cfg.threads);
        o.ops += decks.len();
        o.gates = serve_mix::gates(&jobs, &checked, &references);
        o.spans = tr.spans();
        let p = traced.len() as f64;
        o.layer.insert("serve.run_job_s", trace::total(&spans_before_checks, "serve.run_job") / p);
        let (hits, misses) = stats.iter().fold((0, 0), |(h, m), s| (h + s.cache_hits, m + s.cache_misses));
        o.layer.insert("serve.result_hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
        let (gh, gm) = stats.iter().fold((0, 0), |(h, m), s| (h + s.gmd.hits, m + s.gmd.misses));
        o.layer.insert("extract.gmd_hit_ratio", gh as f64 / (gh + gm).max(1) as f64);
        o.layer.insert("serve.lu_patterns", stats.last().map_or(0, |s| s.lu_patterns) as f64);
        for (class, _) in Class::MIX {
            let of_class: Vec<&serve_mix::JobRecord> =
                traced.iter().flatten().filter(|r| r.class == class).collect();
            let key = match class {
                Class::DeckSmall => "serve.deck_small_p50_ms",
                Class::DeckMedium => "serve.deck_medium_p50_ms",
                Class::Hit => "serve.hit_p50_ms",
                Class::Grid => "serve.grid_p50_ms",
                Class::LoopBus => "serve.loop_bus_p50_ms",
                Class::Sec4Bus => "serve.sec4_bus_p50_ms",
            };
            o.layer.insert(key, serve_mix::latency_ms(&of_class).0);
        }
        for (metric, name) in [
            ("netlist.parse_s", "netlist.parse"),
            ("netlist.flatten_s", "netlist.flatten"),
            ("netlist.lower_s", "netlist.lower"),
            ("verify.gate_s", "verify.gate"),
            ("circuit.dc_op_s", "circuit.dc_op"),
            ("circuit.ac_sweep_s", "circuit.ac_sweep"),
        ] {
            o.layer.insert(metric, trace::total(&o.spans, name));
        }
        o.layer.insert("netlist.deck_bytes", decks.iter().map(|d| d.len()).sum::<usize>() as f64);
        o.layer.insert("netlist.decks", decks.len() as f64);
        trace_share(&mut o, makespans.iter().sum(), traced_makespans.iter().sum());
    } else {
        let references = serve_mix::reference_reports(&tr, &decks, cfg.threads);
        o.ops += decks.len();
        o.gates = serve_mix::gates(&jobs, &checked, &references);
    }
    let par_cfg = ParallelConfig::with_threads(cfg.threads);
    o.large_mna_dim = mna_dim(&clock_case(&Tracer::new(false), Scale::Large, &par_cfg));
    o
}
