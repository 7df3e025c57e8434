//! Command line of the repo benchmark.
//!
//! ```text
//! ind101-perfbench --workload <table1_large|serve_mix|sec4_medium>
//!     --seed <n> --seconds <s> --trace <0|1>
//!     [--root <checkout>] [--out <dir>] [--commit <id>]
//! ```
//!
//! Prints a human-readable report, then one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). The
//! full record, host fingerprint and spans included, goes to
//! `<out>/<workload>-seed<n>-trace<t>.json`.

use ind101_perfbench::report::{metrics_json, Host, Json, Metric};
use ind101_perfbench::trace::Span;
use ind101_perfbench::workloads::{self, Config, Outcome};
use ind101_perfbench::{END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: PathBuf,
    out: Option<PathBuf>,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        root: PathBuf::from("."),
        out: None,
        commit: "unknown".to_owned(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--root" => a.root = PathBuf::from(value()?),
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--commit" => a.commit = value()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(a)
}

fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("id".to_owned(), Json::Num(s.id as f64)),
                    ("parent".to_owned(), Json::Num(s.parent as f64)),
                    ("op".to_owned(), Json::Num(s.op as f64)),
                    ("name".to_owned(), Json::Str(s.name.to_owned())),
                    ("start_ns".to_owned(), Json::Num(s.start_ns as f64)),
                    ("end_ns".to_owned(), Json::Num(s.end_ns as f64)),
                ])
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ind101-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = Host::probe(&args.commit);
    let threads = host.nproc;
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads,
        root: args.root.clone(),
        state_dir: args.out.clone(),
        commit: args.commit.clone(),
    };
    let o: Outcome = match args.workload.as_str() {
        "table1_large" => workloads::table1_large(&cfg),
        "serve_mix" => workloads::serve_mix(&cfg),
        _ => workloads::sec4_medium(&cfg),
    };

    if o.ops == 0 {
        for g in o.gates.iter().filter(|g| !g.ok) {
            eprintln!("ind101-perfbench: {}: {}", g.name, g.detail);
        }
        eprintln!("ind101-perfbench: no operation ran");
        return ExitCode::FAILURE;
    }
    let metrics: Vec<Metric> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric::new(name, o.layer.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let v = o.e2e.iter().find(|m| m.name == name).map_or(f64::NAN, |m| m.value);
                Metric::new(name, v, unit)
            })
            .collect()
    };
    let failed_gates = o.gates.iter().filter(|g| !g.ok).count();
    let non_finite = metrics.iter().filter(|m| !m.value.is_finite()).count();
    let attempted = o.ops + o.gates.len();
    let failed = o.ops_failed + failed_gates + non_finite;
    let correct = failed == 0 && attempted > 0;
    let dense_mna_bytes = (o.large_mna_dim * o.large_mna_dim * 8) as f64;
    let oversubscribed = threads > host.nproc;

    println!(
        "host: nproc {} | cpu {} | LLC L{} {:.1} MiB | {} | commit {}",
        host.nproc,
        host.cpu,
        host.llc_level,
        host.llc_bytes as f64 / (1 << 20) as f64,
        host.rustc,
        host.commit
    );
    println!(
        "workload {} | seed {} | threads {} (oversubscribed: {}) | {} pass(es) | \
         dense MNA of Large PEEC (RLC): {} unknowns, {:.1} MiB = {:.2}x LLC",
        args.workload,
        args.seed,
        threads,
        if oversubscribed { "yes" } else { "no" },
        o.passes,
        o.large_mna_dim,
        dense_mna_bytes / (1 << 20) as f64,
        dense_mna_bytes / host.llc_bytes.max(1) as f64
    );
    let shown: Vec<&Metric> = if args.trace { metrics.iter().collect() } else { o.named.iter().chain(&metrics).collect() };
    for m in shown {
        let v = m.value;
        if v != 0.0 && v.abs() < 1e-3 {
            println!("  {:<34} {:>16.4e} {}", m.name, v, m.unit);
        } else {
            println!("  {:<34} {:>16.6} {}", m.name, v, m.unit);
        }
    }
    for g in &o.gates {
        let verdict = if g.ok { "pass" } else { "FAIL" };
        if g.ok {
            println!("  gate [{verdict}] {}", g.name);
        } else {
            println!("  gate [{verdict}] {}: {}", g.name, g.detail);
        }
    }
    println!(
        "correctness: {} ({attempted} attempted, {failed} failed)",
        if correct { "PASS" } else { "FAIL" }
    );
    println!("named: {}", metrics_json(&o.named).render());

    if let Some(dir) = &args.out {
        let record = Json::Obj(vec![
            ("workload".to_owned(), Json::Str(args.workload.clone())),
            ("seed".to_owned(), Json::Num(args.seed as f64)),
            ("seconds".to_owned(), Json::Num(args.seconds)),
            ("trace".to_owned(), Json::Bool(args.trace)),
            (
                "host".to_owned(),
                Json::Obj(vec![
                    ("nproc".to_owned(), Json::Num(host.nproc as f64)),
                    ("cpu".to_owned(), Json::Str(host.cpu.clone())),
                    ("llc_level".to_owned(), Json::Num(f64::from(host.llc_level))),
                    ("llc_bytes".to_owned(), Json::Num(host.llc_bytes as f64)),
                    ("rustc".to_owned(), Json::Str(host.rustc.clone())),
                    ("commit".to_owned(), Json::Str(host.commit.clone())),
                ]),
            ),
            ("threads".to_owned(), Json::Num(threads as f64)),
            ("oversubscribed".to_owned(), Json::Bool(oversubscribed)),
            ("large_peec_rlc_mna_dim".to_owned(), Json::Num(o.large_mna_dim as f64)),
            ("large_peec_rlc_dense_mna_bytes".to_owned(), Json::Num(dense_mna_bytes)),
            ("passes".to_owned(), Json::Num(o.passes as f64)),
            ("correct".to_owned(), Json::Bool(correct)),
            ("attempted".to_owned(), Json::Num(attempted as f64)),
            ("failed".to_owned(), Json::Num(failed as f64)),
            ("metrics".to_owned(), metrics_json(&metrics)),
            ("named_metrics".to_owned(), metrics_json(&o.named)),
            (
                "gates".to_owned(),
                Json::Arr(
                    o.gates
                        .iter()
                        .map(|g| {
                            Json::Obj(vec![
                                ("name".to_owned(), Json::Str(g.name.clone())),
                                ("ok".to_owned(), Json::Bool(g.ok)),
                                ("detail".to_owned(), Json::Str(g.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("spans".to_owned(), spans_json(&o.spans)),
        ]);
        let path = dir.join(format!(
            "{}-seed{}-trace{}.json",
            args.workload,
            args.seed,
            u8::from(args.trace)
        ));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, record.render())) {
            eprintln!("ind101-perfbench: cannot write {}: {e}", path.display());
        }
    }

    let result = Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(correct)),
        ("attempted".to_owned(), Json::Num(attempted as f64)),
        ("failed".to_owned(), Json::Num(failed as f64)),
        ("metrics".to_owned(), metrics_json(&metrics)),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}
