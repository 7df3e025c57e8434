//! `table1_large`: the four flows of the paper's Table 1 on the
//! clock-over-grid testcase, composed from public calls only.
//!
//! The composition mirrors the toolkit's Table 1 harness step for step
//! (the benchmark's own tests check it bit for bit at `Scale::Small`),
//! with a span around every call into a crate.

use crate::report::{Gate, Metric};
use crate::trace::Tracer;
use ind101_circuit::{
    measure, CircuitError, ElementCounts, InverterParams, RescuePolicy, SourceWave, TranOptions,
};
use ind101_core::testbench::{build_testbench, DriverKind, TestbenchSpec};
use ind101_core::{InductanceMode, PeecParasitics};
use ind101_geom::generators::{
    generate_clock_spine, generate_power_grid, ClockNetSpec, PowerGridSpec,
};
use ind101_geom::{um, Layout, NetKind, Technology};
use ind101_loop::{
    build_loop_circuit, extract_loop_rl_with, LoopInterconnect, LoopNetlistSpec, LoopPortSpec,
};
use ind101_numeric::ParallelConfig;
use ind101_sparsify::block_diagonal::{block_diagonal_with, rlc_mask, sections_by_signal_distance};

/// Time step of every Table 1 transient, seconds.
pub const DT: f64 = 2e-12;
/// Stop time of every Table 1 transient, seconds.
pub const T_STOP: f64 = 900e-12;
/// Frequency of the LOOP flow's extraction, hertz.
pub const LOOP_FREQ_HZ: f64 = 2.5e9;
/// Sections of the block-diagonal screen.
pub const BD_SECTIONS: usize = 3;
/// First section demoted to RC by the block-diagonal flow.
pub const BD_RC_FROM: usize = 2;

const INPUT_DELAY_S: f64 = 100e-12;
const INPUT_RISE_S: f64 = 50e-12;
const RECEIVER_CAP_F: f64 = 30e-15;
const DECAP_TOTAL_F: f64 = 10e-12;
const MIN_LOOP_R_OHM: f64 = 1e-3;
const MIN_LOOP_L_H: f64 = 1e-15;

/// Testcase scale, as in the toolkit's harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// ~100 segments.
    Small,
    /// ~400 segments.
    Medium,
    /// ~1200 segments.
    Large,
}

/// The clock-over-grid testcase.
#[derive(Clone, Debug)]
pub struct ClockCase {
    /// Extracted parasitics.
    pub par: PeecParasitics,
    /// Clock sink port names.
    pub sink_ports: Vec<String>,
}

/// Geometry of the testcase: the power grid with the clock spine merged
/// in, plus the sink port names and the segment length.
#[must_use]
pub fn clock_layout(scale: Scale) -> (Layout, Vec<String>, i64) {
    let tech = Technology::example_copper_6lm();
    let (span, pitch, fingers, seg) = match scale {
        Scale::Small => (um(200), um(50), 2, um(60)),
        Scale::Medium => (um(400), um(50), 3, um(60)),
        Scale::Large => (um(700), um(45), 4, um(55)),
    };
    let mut layout = generate_power_grid(
        &tech,
        &PowerGridSpec {
            width_nm: span,
            height_nm: span,
            pitch_nm: pitch,
            ..PowerGridSpec::default()
        },
    );
    let clock = generate_clock_spine(
        &tech,
        &ClockNetSpec {
            width_nm: span,
            height_nm: span,
            fingers,
            ..ClockNetSpec::default()
        },
    );
    layout.merge(&clock);
    let sinks = (0..fingers)
        .flat_map(|k| [format!("clk_sink_b{k}"), format!("clk_sink_t{k}")])
        .collect();
    (layout, sinks, seg)
}

/// Builds the testcase: geometry, then extraction.
#[must_use]
pub fn clock_case(tr: &Tracer, scale: Scale, cfg: &ParallelConfig) -> ClockCase {
    let (layout, sink_ports, seg) = tr.span("geom.layout", || clock_layout(scale));
    let par = tr.span("extract.partial_l", || PeecParasitics::extract_with(&layout, seg, cfg));
    ClockCase { par, sink_ports }
}

/// Stimulus and supply shared by the flows.
#[must_use]
pub fn flow_spec() -> TestbenchSpec {
    TestbenchSpec {
        vdd: 1.8,
        input: SourceWave::step(0.0, 1.8, INPUT_DELAY_S, INPUT_RISE_S),
        input_ac_mag: 0.0,
        driver: DriverKind::Inverter(InverterParams::default().scaled(2.0)),
        receiver_cap_f: RECEIVER_CAP_F,
        decap_total_f: DECAP_TOTAL_F,
        decap_sites: 8,
        decap_esr: 2.0,
        activity: None,
        activity_periods: 2,
    }
}

/// The four flows, in Table 1 order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flow {
    /// PEEC (RC).
    PeecRc,
    /// PEEC (RLC).
    PeecRlc,
    /// PEEC (RLC, block-diag).
    PeecBd,
    /// LOOP (RLC).
    LoopRlc,
}

impl Flow {
    /// All flows in Table 1 order.
    pub const ALL: [Self; 4] = [Self::PeecRc, Self::PeecRlc, Self::PeecBd, Self::LoopRlc];

    /// Short name used in metric names.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            Self::PeecRc => "peec_rc",
            Self::PeecRlc => "peec_rlc",
            Self::PeecBd => "peec_bd",
            Self::LoopRlc => "loop_rlc",
        }
    }

    fn op_name(self) -> &'static str {
        match self {
            Self::PeecRc => "op.flow.peec_rc",
            Self::PeecRlc => "op.flow.peec_rlc",
            Self::PeecBd => "op.flow.peec_bd",
            Self::LoopRlc => "op.flow.loop_rlc",
        }
    }
}

/// What one flow produced.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowRun {
    /// Which flow.
    pub flow: Flow,
    /// Element counts of the simulated circuit(s).
    pub counts: ElementCounts,
    /// Per-sink 50 % delays `(port, seconds)`, NaN where the edge never
    /// crossed.
    pub sink_delays: Vec<(String, f64)>,
    /// Worst delay, seconds.
    pub worst_delay_s: f64,
    /// Delay spread across sinks, seconds.
    pub worst_skew_s: f64,
    /// Transient steps attempted.
    pub steps: usize,
    /// Transient steps rejected.
    pub steps_rejected: usize,
    /// DC rescue rungs tried across the flow's transients.
    pub rescue_rungs: usize,
    /// Retention of the block-diagonal screen (flow `PeecBd` only).
    pub retention: Option<f64>,
}

/// Runs one flow as one benchmark operation; returns it with its wall
/// time.
///
/// # Errors
///
/// Propagates construction and simulation failures.
pub fn run_flow(
    tr: &Tracer,
    case: &ClockCase,
    flow: Flow,
    cfg: &ParallelConfig,
) -> (Result<FlowRun, CircuitError>, f64) {
    tr.op(flow.op_name(), || match flow {
        Flow::PeecRc => peec(tr, &case.par, flow, InductanceMode::None),
        Flow::PeecRlc => peec(tr, &case.par, flow, InductanceMode::Full),
        Flow::PeecBd => block_diagonal(tr, case, cfg),
        Flow::LoopRlc => loop_rlc(tr, case, cfg),
    })
}

fn worst_of(sink_delays: &[(String, f64)]) -> (f64, f64) {
    let mut worst: Option<f64> = None;
    for &(_, d) in sink_delays {
        if worst.is_none_or(|w| d > w) {
            worst = Some(d);
        }
    }
    let delays: Vec<f64> = sink_delays.iter().map(|(_, d)| *d).collect();
    (worst.unwrap_or(f64::NAN), measure::skew(&delays))
}

fn peec(
    tr: &Tracer,
    par: &PeecParasitics,
    flow: Flow,
    mode: InductanceMode,
) -> Result<FlowRun, CircuitError> {
    let spec = flow_spec();
    let tb = tr.span("core.testbench", || build_testbench(par, mode, &spec))?;
    let counts = tb.circuit.counts();
    let mut opts = TranOptions::new(DT, T_STOP);
    opts.record_stride = 1;
    opts.rescue = RescuePolicy::full();
    let res = tr.span("circuit.transient", || tb.circuit.transient(&opts))?;
    let sink_delays = tr.span("circuit.measure", || {
        let input = res.voltage(tb.input);
        tb.sinks
            .iter()
            .map(|(port, node)| {
                let v = res.voltage(*node);
                let d = measure::delay_50(&input, &v, 0.0, spec.vdd).unwrap_or(f64::NAN);
                (port.clone(), d)
            })
            .collect::<Vec<_>>()
    });
    let (worst_delay_s, worst_skew_s) = worst_of(&sink_delays);
    Ok(FlowRun {
        flow,
        counts,
        sink_delays,
        worst_delay_s,
        worst_skew_s,
        steps: res.steps_attempted,
        steps_rejected: res.steps_rejected,
        rescue_rungs: res.rescue.as_ref().map_or(0, |r| r.rungs.len()),
        retention: None,
    })
}

fn block_diagonal(
    tr: &Tracer,
    case: &ClockCase,
    cfg: &ParallelConfig,
) -> Result<FlowRun, CircuitError> {
    let l = &case.par.partial_l;
    let (sparsified, mask) = tr.span("sparsify.block_diag", || {
        let labels = sections_by_signal_distance(l, &case.par.layout, BD_SECTIONS);
        let s = block_diagonal_with(l, &labels, cfg);
        (s, rlc_mask(&labels, BD_RC_FROM))
    });
    let retention = sparsified.stats.retention();
    let mut par = tr.span("core.parasitics_clone", || case.par.clone());
    tr.span("extract.set_matrix", || par.partial_l.set_matrix(sparsified.matrix));
    let mut run = peec(tr, &par, Flow::PeecBd, InductanceMode::Masked(mask))?;
    run.retention = Some(retention);
    Ok(run)
}

fn loop_rlc(tr: &Tracer, case: &ClockCase, cfg: &ParallelConfig) -> Result<FlowRun, CircuitError> {
    let spec = flow_spec();
    let par = &case.par;
    let signal_cap: f64 = par
        .segments
        .iter()
        .zip(&par.ground_cap)
        .filter(|(s, _)| par.layout.net(s.net).kind == NetKind::Signal)
        .map(|(_, c)| *c)
        .sum();
    let mut counts = ElementCounts::default();
    let mut sink_delays = Vec::new();
    let (mut steps, mut steps_rejected, mut rescue_rungs) = (0, 0, 0);
    for sink in &case.sink_ports {
        let port_spec = LoopPortSpec {
            driver_port: "clk_drv".to_owned(),
            receiver_ports: vec![sink.clone()],
        };
        let ext = tr.span("loopind.extract", || {
            extract_loop_rl_with(par, &port_spec, &[LOOP_FREQ_HZ], cfg)
        })?;
        let (r_loop, l_loop) = ext.at(0);
        let net_spec = LoopNetlistSpec {
            interconnect: LoopInterconnect::SingleFrequency {
                r_ohm: r_loop.max(MIN_LOOP_R_OHM),
                l_h: l_loop.max(MIN_LOOP_L_H),
            },
            segments: 4,
            cap_total_f: signal_cap + spec.receiver_cap_f * case.sink_ports.len() as f64,
            vdd: spec.vdd,
            input: spec.input.clone(),
            driver: Some(InverterParams::default().scaled(2.0)),
        };
        let lc = tr.span("loopind.build", || build_loop_circuit(&net_spec))?;
        let c = lc.circuit.counts();
        counts.resistors += c.resistors;
        counts.capacitors += c.capacitors;
        counts.inductors += c.inductors;
        counts.mutuals += c.mutuals;
        counts.sources += c.sources;
        counts.transistors += c.transistors;
        counts.nodes += c.nodes;
        let mut opts = TranOptions::new(DT, T_STOP);
        opts.rescue = RescuePolicy::full();
        let res = tr.span("circuit.transient", || lc.circuit.transient(&opts))?;
        steps += res.steps_attempted;
        steps_rejected += res.steps_rejected;
        rescue_rungs += res.rescue.as_ref().map_or(0, |r| r.rungs.len());
        let d = tr.span("circuit.measure", || {
            let input = res.voltage(lc.input);
            let v = res.voltage(lc.receiver);
            measure::delay_50(&input, &v, 0.0, spec.vdd).unwrap_or(f64::NAN)
        });
        sink_delays.push((sink.clone(), d));
    }
    let (worst_delay_s, worst_skew_s) = worst_of(&sink_delays);
    Ok(FlowRun {
        flow: Flow::LoopRlc,
        counts,
        sink_delays,
        worst_delay_s,
        worst_skew_s,
        steps,
        steps_rejected,
        rescue_rungs,
        retention: None,
    })
}

/// One pass: the four flows in the given order, each with its wall time.
#[derive(Clone, Debug)]
pub struct Pass {
    /// `(flow result, wall seconds)` in Table 1 order, whatever order
    /// they ran in.
    pub flows: Vec<(Result<FlowRun, String>, f64)>,
}

impl Pass {
    /// The successful run of `flow`, if any.
    #[must_use]
    pub fn get(&self, flow: Flow) -> Option<&FlowRun> {
        self.flows.iter().find_map(|(r, _)| r.as_ref().ok().filter(|f| f.flow == flow))
    }

    /// Wall time of `flow`, seconds.
    #[must_use]
    pub fn wall(&self, flow: Flow) -> f64 {
        let k = Flow::ALL.iter().position(|&f| f == flow).unwrap_or(0);
        self.flows[k].1
    }

    /// Relative gap in worst delay of `flow` from PEEC (RLC).
    #[must_use]
    pub fn delay_err(&self, flow: Flow) -> f64 {
        match (self.get(flow), self.get(Flow::PeecRlc)) {
            (Some(f), Some(r)) => (f.worst_delay_s - r.worst_delay_s).abs() / r.worst_delay_s,
            _ => f64::NAN,
        }
    }
}

/// Runs the four flows in `order` (a permutation of [`Flow::ALL`]),
/// and calls `after_flow` after each flow, outside its timing.
#[must_use]
pub fn run_pass(
    tr: &Tracer,
    case: &ClockCase,
    order: &[Flow],
    cfg: &ParallelConfig,
    after_flow: &mut dyn FnMut(),
) -> Pass {
    let mut flows: Vec<(Result<FlowRun, String>, f64)> =
        vec![(Err("not run".to_owned()), 0.0); Flow::ALL.len()];
    for &flow in order {
        let (r, secs) = run_flow(tr, case, flow, cfg);
        let k = Flow::ALL.iter().position(|&f| f == flow).unwrap_or(0);
        flows[k] = (r.map_err(|e| format!("{}: {e}", flow.key())), secs);
        after_flow();
    }
    Pass { flows }
}

/// Bit patterns of every per-sink delay, flow by flow.
#[must_use]
pub fn delay_bits(pass: &Pass) -> Vec<(String, u64)> {
    Flow::ALL
        .iter()
        .filter_map(|&f| pass.get(f))
        .flat_map(|run| {
            run.sink_delays
                .iter()
                .map(move |(port, d)| (format!("{} {port}", run.flow.key()), d.to_bits()))
        })
        .collect()
}

/// The Table 1 correctness gates on one pass.
#[must_use]
pub fn gates(pass: &Pass) -> Vec<Gate> {
    let mut g = Vec::new();
    for (r, _) in &pass.flows {
        if let Err(e) = r {
            g.push(Gate::check("flow ran", false, e.clone()));
        }
    }
    let all_finite = Flow::ALL.iter().all(|&f| {
        pass.get(f)
            .is_some_and(|r| !r.sink_delays.is_empty() && r.sink_delays.iter().all(|(_, d)| d.is_finite()))
    });
    g.push(Gate::check("delays are finite", all_finite, "a flow is missing or has a non-finite sink delay"));
    let (rc, rlc) = (pass.get(Flow::PeecRc), pass.get(Flow::PeecRlc));
    let rlc_slower = matches!((rc, rlc), (Some(a), Some(b)) if b.worst_delay_s > a.worst_delay_s);
    g.push(Gate::check(
        "RLC delay > RC delay",
        rlc_slower,
        format!(
            "RC {:?} vs RLC {:?}",
            rc.map(|r| r.worst_delay_s),
            rlc.map(|r| r.worst_delay_s)
        ),
    ));
    let rlc_mutuals = rlc.map_or(0, |r| r.counts.mutuals);
    for flow in [Flow::PeecBd, Flow::LoopRlc] {
        let m = pass.get(flow).map(|r| r.counts.mutuals);
        g.push(Gate::check(
            format!("{} mutuals < PEEC (RLC) mutuals", flow.key()),
            m.is_some_and(|m| m < rlc_mutuals),
            format!("{m:?} vs {rlc_mutuals}"),
        ));
    }
    g
}

/// Worst delays, skews and mutual counts of the Large flows, with
/// relative tolerances, in the format of `tests/golden/table1.json`.
pub const GOLDEN_LARGE: &str = include_str!("../golden/table1_large.json");

/// Reads a golden file: one `"key": [value, relative tolerance]` a line.
#[must_use]
pub fn parse_golden(text: &str) -> Vec<(String, f64, f64)> {
    text.lines()
        .filter_map(|l| {
            let (k, v) = l.split_once(':')?;
            let v = v.trim().trim_end_matches(',').trim_start_matches('[').trim_end_matches(']');
            let (val, tol) = v.split_once(',')?;
            Some((k.trim().trim_matches('"').to_owned(), val.trim().parse().ok()?, tol.trim().parse().ok()?))
        })
        .collect()
}

/// The values a golden file fixes, under its key names (`accel` is the
/// block-diagonal flow).
#[must_use]
pub fn golden_values(pass: &Pass) -> Vec<(&'static str, f64)> {
    let run = |f| pass.get(f);
    let delay = |f| run(f).map_or(f64::NAN, |r: &FlowRun| r.worst_delay_s);
    let skew = |f| run(f).map_or(f64::NAN, |r: &FlowRun| r.worst_skew_s);
    let mutuals = |f| run(f).map_or(f64::NAN, |r: &FlowRun| r.counts.mutuals as f64);
    vec![
        ("peec_rc_delay_s", delay(Flow::PeecRc)),
        ("peec_rc_skew_s", skew(Flow::PeecRc)),
        ("peec_rlc_delay_s", delay(Flow::PeecRlc)),
        ("peec_rlc_skew_s", skew(Flow::PeecRlc)),
        ("accel_delay_s", delay(Flow::PeecBd)),
        ("accel_skew_s", skew(Flow::PeecBd)),
        ("loop_delay_s", delay(Flow::LoopRlc)),
        ("loop_skew_s", skew(Flow::LoopRlc)),
        ("peec_rlc_mutuals", mutuals(Flow::PeecRlc)),
        ("accel_mutuals", mutuals(Flow::PeecBd)),
    ]
}

/// Checks a pass against golden values: every value of
/// [`golden_values`] must be in `golden` and within its tolerance.
#[must_use]
pub fn golden_gate(pass: &Pass, golden: &[(String, f64, f64)]) -> Gate {
    let off: Vec<String> = golden_values(pass)
        .into_iter()
        .filter(|&(key, got)| {
            !golden
                .iter()
                .any(|(k, want, rtol)| k == key && (got - want).abs() <= rtol * want.abs())
        })
        .map(|(key, got)| format!("{key} = {got:?}"))
        .collect();
    Gate::check(
        "worst delays, skews and mutuals match the golden values",
        off.is_empty(),
        format!("outside tolerance or missing: {}", off.join(", ")),
    )
}

/// Compares two sets of delay bit patterns.
#[must_use]
pub fn same_bits_gate(name: &str, a: &[(String, u64)], b: &[(String, u64)]) -> Gate {
    let first_diff = a.iter().zip(b).find(|(x, y)| x != y);
    Gate::check(
        name,
        a.len() == b.len() && first_diff.is_none(),
        format!("{} vs {} delays; first difference {first_diff:?}", a.len(), b.len()),
    )
}

/// The workload's own metrics: flow wall times and delay errors.
#[must_use]
pub fn named_metrics(pass: &Pass) -> Vec<Metric> {
    let mut m: Vec<Metric> = Flow::ALL
        .iter()
        .map(|&f| Metric::new(format!("{}_s", f.key()), pass.wall(f), "s"))
        .collect();
    m.push(Metric::new("bd_delay_err", pass.delay_err(Flow::PeecBd), "ratio"));
    m.push(Metric::new("loop_delay_err", pass.delay_err(Flow::LoopRlc), "ratio"));
    m
}
