//! The benchmark's own checks: its Table 1 composition reproduces the
//! toolkit's flows, its job generator is deterministic, every
//! correctness gate trips on a tampered result, and `BENCHMARK.json`
//! lists exactly the metrics the binary prints.

use ind101_bench::flows::{run_loop_flow, run_peec_block_diagonal_flow, run_peec_flow, FlowResult};
use ind101_core::InductanceMode;
use ind101_netlist::{flatten, parse_deck, DeckSource, JobOptions, JobRequest, JobSpec};
use ind101_numeric::ParallelConfig;
use ind101_perfbench::report::Gate;
use ind101_perfbench::serve_mix::{self, Class, MixJob, Templates};
use ind101_perfbench::table1::{self, clock_case, Flow, Scale};
use ind101_perfbench::trace::Tracer;
use ind101_perfbench::{sec4, END_TO_END, PER_LAYER, WORKLOADS};
use ind101_serve::{JobOutcome, JobServer};
use std::path::Path;
use std::sync::{Arc, OnceLock};

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

fn small_case() -> &'static table1::ClockCase {
    static CASE: OnceLock<table1::ClockCase> = OnceLock::new();
    CASE.get_or_init(|| clock_case(&Tracer::new(false), Scale::Small, &ParallelConfig::default()))
}

fn small_pass() -> &'static table1::Pass {
    static PASS: OnceLock<table1::Pass> = OnceLock::new();
    PASS.get_or_init(|| {
        table1::run_pass(&Tracer::new(true), small_case(), &Flow::ALL, &ParallelConfig::default(), &mut || {})
    })
}

fn failed(gates: &[Gate]) -> Vec<String> {
    gates.iter().filter(|g| !g.ok).map(|g| g.name.clone()).collect()
}

fn tamper_pass(pass: &table1::Pass, f: impl Fn(&mut table1::Pass)) -> table1::Pass {
    let mut p = pass.clone();
    f(&mut p);
    p
}

fn run_of(p: &mut table1::Pass, flow: Flow) -> &mut table1::FlowRun {
    let k = Flow::ALL.iter().position(|&f| f == flow).unwrap();
    p.flows[k].0.as_mut().unwrap()
}

fn assert_same(ours: &table1::FlowRun, theirs: &FlowResult) {
    assert_eq!(ours.counts, theirs.counts, "{:?}", ours.flow);
    assert_eq!(ours.sink_delays.len(), theirs.sink_delays.len());
    for ((p, d), (q, e)) in ours.sink_delays.iter().zip(&theirs.sink_delays) {
        assert_eq!(p, q);
        assert_eq!(d.to_bits(), e.to_bits(), "{:?} {p}: {d} vs {e}", ours.flow);
    }
    assert_eq!(ours.worst_delay_s.to_bits(), theirs.worst_delay_s.to_bits());
    assert_eq!(ours.worst_skew_s.to_bits(), theirs.worst_skew_s.to_bits());
    assert_eq!(ours.steps, theirs.steps_attempted);
}

/// Values and relative tolerances of `tests/golden/table1.json`.
fn golden_table1() -> Vec<(String, f64, f64)> {
    table1::parse_golden(&std::fs::read_to_string(Path::new(ROOT).join("tests/golden/table1.json")).unwrap())
}

#[test]
fn table1_composition_matches_the_toolkit_flows_bit_for_bit() {
    let pass = small_pass();
    let bench = ind101_bench::clock_case(ind101_bench::Scale::Small);
    assert_eq!(
        bench.par.partial_l.matrix().as_slice(),
        small_case().par.partial_l.matrix().as_slice()
    );
    let (dt, t_stop) = (table1::DT, table1::T_STOP);
    let rc = run_peec_flow(&bench, "PEEC (RC)", InductanceMode::None, dt, t_stop).unwrap();
    let rlc = run_peec_flow(&bench, "PEEC (RLC)", InductanceMode::Full, dt, t_stop).unwrap();
    let bd = run_peec_block_diagonal_flow(&bench, table1::BD_SECTIONS, table1::BD_RC_FROM, dt, t_stop)
        .unwrap();
    let lp = run_loop_flow(&bench, table1::LOOP_FREQ_HZ, dt, t_stop).unwrap();
    assert_same(pass.get(Flow::PeecRc).unwrap(), &rc);
    assert_same(pass.get(Flow::PeecRlc).unwrap(), &rlc);
    assert_same(pass.get(Flow::PeecBd).unwrap(), &bd);
    assert_same(pass.get(Flow::LoopRlc).unwrap(), &lp);

    let golden = golden_table1();
    assert_eq!(golden.len(), 10, "golden keys: {golden:?}");
    for (key, want, rtol) in golden {
        let got = match key.as_str() {
            "peec_rc_delay_s" => rc.worst_delay_s,
            "peec_rc_skew_s" => rc.worst_skew_s,
            "peec_rlc_delay_s" => rlc.worst_delay_s,
            "peec_rlc_skew_s" => rlc.worst_skew_s,
            "accel_delay_s" => bd.worst_delay_s,
            "accel_skew_s" => bd.worst_skew_s,
            "loop_delay_s" => lp.worst_delay_s,
            "loop_skew_s" => lp.worst_skew_s,
            "peec_rlc_mutuals" => rlc.counts.mutuals as f64,
            "accel_mutuals" => bd.counts.mutuals as f64,
            other => panic!("unknown golden key {other}"),
        };
        assert!((got - want).abs() <= rtol * want.abs(), "{key}: {got} vs golden {want} (rtol {rtol})");
    }
    // The benchmark's own golden gate agrees with the toolkit's golden
    // file at Small, and its Large file fixes the same keys.
    assert!(table1::golden_gate(pass, &golden_table1()).ok);
    let large: Vec<String> = table1::parse_golden(table1::GOLDEN_LARGE).into_iter().map(|(k, ..)| k).collect();
    let small: Vec<String> = golden_table1().into_iter().map(|(k, ..)| k).collect();
    assert_eq!(large, small);
}

#[test]
fn table1_flow_order_does_not_change_results() {
    let reversed: Vec<Flow> = Flow::ALL.iter().rev().copied().collect();
    let again = table1::run_pass(&Tracer::new(false), small_case(), &reversed, &ParallelConfig::serial(), &mut || {});
    assert_eq!(table1::delay_bits(small_pass()), table1::delay_bits(&again));
}

#[test]
fn table1_gates_trip_on_tampered_results() {
    let pass = small_pass();
    assert!(failed(&table1::gates(pass)).is_empty(), "{:?}", table1::gates(pass));

    let tamper = |f: &dyn Fn(&mut table1::Pass)| table1::gates(&tamper_pass(pass, f));
    let g = tamper(&|p| run_of(p, Flow::PeecBd).sink_delays[0].1 = f64::NAN);
    assert_eq!(failed(&g), ["delays are finite"]);
    let g = tamper(&|p| {
        let rc = run_of(p, Flow::PeecRc).worst_delay_s;
        run_of(p, Flow::PeecRlc).worst_delay_s = rc;
    });
    assert_eq!(failed(&g), ["RLC delay > RC delay"]);
    let g = tamper(&|p| {
        let m = run_of(p, Flow::PeecRlc).counts.mutuals;
        run_of(p, Flow::PeecBd).counts.mutuals = m;
    });
    assert_eq!(failed(&g), ["peec_bd mutuals < PEEC (RLC) mutuals"]);
    let g = tamper(&|p| run_of(p, Flow::LoopRlc).counts.mutuals = usize::MAX);
    assert_eq!(failed(&g), ["loop_rlc mutuals < PEEC (RLC) mutuals"]);
    let g = tamper(&|p| p.flows[0].0 = Err("peec_rc: solver failed".to_owned()));
    assert!(failed(&g).iter().any(|f| f == "flow ran"));

    let golden = golden_table1();
    let g = table1::golden_gate(&tamper_pass(pass, |p| run_of(p, Flow::LoopRlc).worst_delay_s *= 1.01), &golden);
    assert!(!g.ok && g.detail.contains("loop_delay_s"), "{g:?}");
    let g = table1::golden_gate(&tamper_pass(pass, |p| run_of(p, Flow::PeecBd).counts.mutuals += 1), &golden);
    assert!(!g.ok && g.detail.contains("accel_mutuals"), "{g:?}");
    assert!(!table1::golden_gate(pass, &golden[1..]).ok, "a missing golden key must fail");

    let bits = table1::delay_bits(pass);
    let mut flipped = bits.clone();
    flipped[3].1 ^= 1;
    assert!(table1::same_bits_gate("repeat", &bits, &bits).ok);
    assert!(!table1::same_bits_gate("repeat", &bits, &flipped).ok);
    assert!(!table1::same_bits_gate("repeat", &bits, &bits[1..]).ok);
}

#[test]
fn sec4_gates_trip_on_tampered_results() {
    let tr = Tracer::new(false);
    let passes: Vec<sec4::Pass> =
        (0..2).map(|_| sec4::run_pass(&tr, small_case(), &ParallelConfig::default(), &mut || {})).collect();
    assert!(failed(&sec4::gates(&passes)).is_empty(), "{:?}", sec4::gates(&passes));
    assert!(!sec4::gates(&passes[..1]).iter().all(|g| g.ok), "one pass cannot show repeats");

    let bd = |p: &mut Vec<sec4::Pass>| -> usize {
        p[0].outputs.iter().position(|o| o.method == "block_diag").unwrap()
    };
    let mut p = passes.clone();
    let k = bd(&mut p);
    p[0].outputs[k].pd = false;
    p[1].outputs[k].pd = false;
    assert_eq!(failed(&sec4::gates(&p)), ["block-diagonal output is positive definite"]);

    let mut p = passes.clone();
    p[1].outputs[0].retention += 1e-12;
    assert_eq!(failed(&sec4::gates(&p)), ["retentions and PD verdicts identical across repeats"]);

    let mut p = passes.clone();
    p[1].outputs[2].passive = !p[1].outputs[2].passive;
    assert_eq!(failed(&sec4::gates(&p)), ["retentions and PD verdicts identical across repeats"]);

    let mut p = passes;
    p[0].outputs.pop();
    p[0].errors.push("kmatrix: singular".to_owned());
    let f = failed(&sec4::gates(&p));
    assert!(f.iter().any(|n| n == "screen ran"), "{f:?}");
    assert!(f.iter().any(|n| n == "all six screens produced an output"), "{f:?}");
}

fn deck_job(class: Class, i: usize, deck: &str) -> MixJob {
    MixJob {
        class,
        request: JobRequest {
            name: format!("j{i}"),
            spec: JobSpec::Deck(DeckSource::Inline(deck.to_owned())),
            options: JobOptions::default(),
        },
    }
}

#[test]
fn serve_gates_trip_on_tampered_results() {
    let tr = Tracer::new(false);
    let a = "a\nV1 x 0 DC 1 AC 1\nR1 x y 10\nC1 y 0 1p\n.OP\n.AC DEC 2 1e8 1e9\n";
    let b = "b\nV1 x 0 DC 2 AC 1\nR1 x y 20\nC1 y 0 1p\n.OP\n.AC DEC 2 1e8 1e9\n";
    let jobs = vec![
        deck_job(Class::DeckSmall, 0, a),
        deck_job(Class::DeckSmall, 1, b),
        deck_job(Class::Hit, 2, a),
        deck_job(Class::Hit, 3, b),
    ];
    let run = || serve_mix::run_pass(&tr, &JobServer::new(), &jobs, 1).0;
    let passes = vec![run(), run()];
    let decks = serve_mix::distinct_decks(&jobs);
    assert_eq!(decks.len(), 2);
    let refs = serve_mix::reference_reports(&tr, &decks, 2);
    assert!(failed(&serve_mix::gates(&jobs, &passes, &refs)).is_empty());
    assert!(passes[0][2].cached && passes[0][3].cached);

    let mut p = passes.clone();
    p[0][1].outcome = Err(ind101_serve::ServeError::Solve {
        job: "j1".to_owned(),
        what: "tampered".to_owned(),
    });
    let f = failed(&serve_mix::gates(&jobs, &p, &refs));
    assert!(f.iter().any(|n| n == "every job returns Ok"), "{f:?}");

    let mut p = passes.clone();
    for records in &mut p {
        records[2].outcome = records[1].outcome.clone();
    }
    assert_eq!(failed(&serve_mix::gates(&jobs, &p, &refs)), ["cached outcomes equal uncached ones"]);

    let mut p = passes.clone();
    let mut other = match p[1][0].outcome.as_ref().unwrap().as_ref() {
        JobOutcome::Deck(d) => d.clone(),
        o => panic!("unexpected {o:?}"),
    };
    other.nodes += 1;
    p[1][0].outcome = Ok(Arc::new(JobOutcome::Deck(other.clone())));
    p[1][2].outcome = p[1][0].outcome.clone();
    assert_eq!(failed(&serve_mix::gates(&jobs, &p, &refs)), ["outcomes identical across passes"]);

    let mut r = refs.clone();
    r[1] = Ok(other);
    assert_eq!(
        failed(&serve_mix::gates(&jobs, &passes, &r)),
        ["served DeckReport equals the direct netlist + circuit solve"]
    );
}

fn structure(job: &MixJob) -> String {
    match &job.request.spec {
        JobSpec::Deck(DeckSource::Inline(text)) => {
            let flat = flatten(&parse_deck(text).unwrap()).unwrap();
            format!("deck {} elements {} nodes", flat.elements.len(), flat.node_names().len())
        }
        JobSpec::FilamentGrid(g) => format!("grid {}x{}", g.count_z, g.count_lat),
        JobSpec::LoopBus(b) => format!("bus {} signals {:?}", b.signals, b.freqs_hz),
        JobSpec::Deck(DeckSource::Path(p)) => format!("path {p}"),
    }
}

#[test]
fn serve_mix_generator_is_deterministic() {
    let bus = std::fs::read_to_string(Path::new(ROOT).join("tests/decks/sec4_bus.cir")).unwrap();
    let t = Templates::new(bus);
    let n = 40;
    let a = serve_mix::generate(&t, 7, n).unwrap();
    let again = serve_mix::generate(&t, 7, n).unwrap();
    assert_eq!(a, again, "same seed, same job list");
    let b = serve_mix::generate(&t, 8, n).unwrap();

    for (class, pct) in Class::MIX {
        let of = |jobs: &[MixJob]| -> Vec<MixJob> { jobs.iter().filter(|j| j.class == class).cloned().collect() };
        let (ja, jb) = (of(&a), of(&b));
        assert_eq!(ja.len(), n * pct / 100, "{class:?}");
        assert_eq!(ja.len(), jb.len(), "{class:?}");
        if class == Class::Hit {
            continue;
        }
        let sa: Vec<String> = ja.iter().map(structure).collect();
        let sb: Vec<String> = jb.iter().map(structure).collect();
        assert!(sa.iter().chain(&sb).all(|s| *s == sa[0]), "{class:?}: {sa:?} vs {sb:?}");
        if matches!(class, Class::DeckSmall | Class::DeckMedium | Class::Grid | Class::LoopBus) {
            assert_ne!(ja[0].request.spec, jb[0].request.spec, "{class:?}: a new seed changes values");
        }
    }
    let distinct = serve_mix::distinct_decks(&a).len();
    assert_eq!(distinct, n * 55 / 100 + 1, "every deck variant differs, the bus deck repeats");
    for (i, job) in a.iter().enumerate().filter(|(_, j)| j.class == Class::Hit) {
        assert!(
            a[..i.saturating_sub(1)].iter().any(|o| o.class != Class::Hit && o.request.spec == job.request.spec),
            "job {i} resubmits an earlier job"
        );
    }
}

/// Values of one `BENCHMARK.json` list: every `"name": "…"` inside the
/// array that follows `"key"`.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).unwrap();
    let open = start + json[start..].find('[').unwrap();
    let close = open + json[open..].find(']').unwrap();
    json[open..close]
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).unwrap().to_owned())
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_binary_prints() {
    let json = std::fs::read_to_string(Path::new(ROOT).join("BENCHMARK.json")).unwrap();
    assert_eq!(names_in(&json, "workloads"), WORKLOADS);
    assert_eq!(names_in(&json, "end_to_end"), END_TO_END.map(|(n, _)| n));
    assert_eq!(names_in(&json, "per_layer"), PER_LAYER.map(|(n, _)| n));
}
