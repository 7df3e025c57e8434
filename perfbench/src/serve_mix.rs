//! `serve_mix`: one `JobServer` driven in a closed loop by `nproc`
//! client threads over a seeded mix of decks, filament grids and loop
//! buses. Each client sends its next job only after the previous reply.

use crate::report::{Gate, Rng};
use crate::table1::{clock_layout, Scale};
use crate::trace::Tracer;
use ind101_circuit::{CircuitError, RescuePolicy, ResilienceOptions};
use ind101_core::testbench::{build_testbench, DriverKind, TestbenchSpec};
use ind101_core::{InductanceMode, PeecParasitics};
use ind101_netlist::{
    export_deck, flatten, lower_flat, parse_deck, AcSweep, AnalysisCard, AnalysisPlan, DeckSource,
    FilamentGridJob, JobOptions, JobRequest, JobSpec, LoopBusJob, Span,
};
use ind101_numeric::ParallelConfig;
use ind101_serve::{DeckReport, JobOutcome, JobServer, ServeError};
use ind101_verify::GateOptions;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Jobs in one pass of the mix.
pub const JOBS_PER_PASS: usize = 200;

/// Kinds of job in the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Class {
    /// Value-only variant of the Small clock-net deck.
    DeckSmall,
    /// Value-only variant of the Medium clock-net deck.
    DeckMedium,
    /// Exact resubmission of an earlier job.
    Hit,
    /// Filament-grid extraction from a small pool of cross-sections.
    Grid,
    /// Bus loop R/L extraction.
    LoopBus,
    /// The checked-in Section 4 bus deck.
    Sec4Bus,
}

impl Class {
    /// Every class with its share of a pass, in percent.
    pub const MIX: [(Self, usize); 6] = [
        (Self::DeckSmall, 45),
        (Self::DeckMedium, 10),
        (Self::Hit, 20),
        (Self::Grid, 10),
        (Self::LoopBus, 10),
        (Self::Sec4Bus, 5),
    ];

    /// Short name used in metric names.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            Self::DeckSmall => "deck_small",
            Self::DeckMedium => "deck_medium",
            Self::Hit => "hit",
            Self::Grid => "grid",
            Self::LoopBus => "loop_bus",
            Self::Sec4Bus => "sec4_bus",
        }
    }

    fn op_name(self) -> &'static str {
        match self {
            Self::DeckSmall => "op.job.deck_small",
            Self::DeckMedium => "op.job.deck_medium",
            Self::Hit => "op.job.hit",
            Self::Grid => "op.job.grid",
            Self::LoopBus => "op.job.loop_bus",
            Self::Sec4Bus => "op.job.sec4_bus",
        }
    }
}

/// One job of the mix.
#[derive(Clone, Debug, PartialEq)]
pub struct MixJob {
    /// Its kind.
    pub class: Class,
    /// What is sent to the server.
    pub request: JobRequest,
}

/// Inputs the generator varies: the two extracted clock cases whose
/// testbenches become decks, and the checked-in bus deck.
pub struct Templates {
    small: PeecParasitics,
    medium: PeecParasitics,
    sec4_bus: String,
}

impl Templates {
    /// Extracts the Small and Medium clock cases (serially, so deck
    /// values do not depend on the host) and keeps the bus deck text.
    #[must_use]
    pub fn new(sec4_bus: String) -> Self {
        let extract = |scale| {
            let (layout, _, seg) = clock_layout(scale);
            PeecParasitics::extract_with(&layout, seg, &ParallelConfig::serial())
        };
        Self {
            small: extract(Scale::Small),
            medium: extract(Scale::Medium),
            sec4_bus,
        }
    }
}

/// Analysis cards of every clock-net deck: an operating point and a
/// 7-point AC sweep over 0.1–10 GHz.
fn cards() -> Vec<AnalysisCard> {
    vec![
        AnalysisCard::Op {
            span: Span::default(),
        },
        AnalysisCard::Ac {
            span: Span::default(),
            sweep: AcSweep::Dec,
            points: 3,
            fstart: 1e8,
            fstop: 1e10,
        },
    ]
}

fn deck_variant(par: &PeecParasitics, rng: &mut Rng, title: &str) -> Result<String, String> {
    let spec = TestbenchSpec {
        driver: DriverKind::Thevenin {
            r_out: rng.uniform(30.0, 70.0),
        },
        input_ac_mag: 1.0,
        receiver_cap_f: rng.uniform(20e-15, 40e-15),
        decap_total_f: rng.uniform(5e-12, 20e-12),
        ..TestbenchSpec::default()
    };
    let tb = build_testbench(par, InductanceMode::Full, &spec).map_err(|e| e.to_string())?;
    export_deck(&tb.circuit, title, &cards()).map_err(|e| e.to_string())
}

/// Cross-sections `(width, thickness)` of the filament-grid pool, nm.
const GRID_SECTIONS: [(i64, i64); 3] = [(200, 100), (300, 150), (400, 200)];
/// Filament grid `(count_z, count_lat)`: 2048 filaments, a job of about
/// 55 ms on the reference host.
const GRID_DIM: (usize, usize) = (32, 64);
/// Loop-bus signals and sweep points (0.1–10 GHz, log-spaced): about
/// 55 ms per job on the reference host.
///
/// Grid and loop-bus jobs are sized to sit between a Small deck (~35 ms)
/// and a Medium one (~400 ms). They then carry real work, and the median
/// job falls inside the Small-deck class instead of on its edge, where
/// it moved by ±15 % from run to run.
const BUS_SIGNALS: usize = 64;
const BUS_FREQS: usize = 48;

fn request(name: String, spec: JobSpec) -> JobRequest {
    JobRequest {
        name,
        spec,
        options: JobOptions::default(),
    }
}

/// Seed of the mix's shape: the class order, which job each
/// resubmission repeats and each grid's cross-section. It is fixed, so
/// every seed serves the same pattern of work; the order decides which
/// jobs overlap on the clients, and with it the latency percentiles.
const SHAPE_SEED: u64 = 0x5eed_5eed;

/// The job list of one pass: exact class counts in a fixed order, with
/// values (deck component values, grid lengths, bus geometry) drawn from
/// `seed`. Resubmissions repeat a job at least two places earlier.
///
/// # Errors
///
/// A deck that fails to build or export.
pub fn generate(t: &Templates, seed: u64, n: usize) -> Result<Vec<MixJob>, String> {
    let mut shape = Rng::new(SHAPE_SEED);
    let mut rng = Rng::new(seed);
    let mut classes: Vec<Class> = Vec::with_capacity(n);
    for (class, pct) in Class::MIX {
        classes.extend(std::iter::repeat_n(class, n * pct / 100));
    }
    while classes.len() < n {
        classes.push(Class::DeckSmall);
    }
    shape.shuffle(&mut classes);
    // No resubmission among the first few jobs: move each to the first
    // original-kind job after the head.
    const HEAD: usize = 4;
    for i in 0..HEAD.min(n) {
        if classes[i] == Class::Hit {
            if let Some(j) = (HEAD..n).find(|&j| classes[j] != Class::Hit) {
                classes.swap(i, j);
            }
        }
    }
    let mut jobs: Vec<MixJob> = Vec::with_capacity(n);
    for (i, &class) in classes.iter().enumerate() {
        let name = format!("{}-{i}", class.key());
        let spec = match class {
            Class::DeckSmall => JobSpec::Deck(DeckSource::Inline(deck_variant(
                &t.small,
                &mut rng,
                "clock net small",
            )?)),
            Class::DeckMedium => JobSpec::Deck(DeckSource::Inline(deck_variant(
                &t.medium,
                &mut rng,
                "clock net medium",
            )?)),
            Class::Sec4Bus => JobSpec::Deck(DeckSource::Inline(t.sec4_bus.clone())),
            Class::Grid => {
                let (w, th) = GRID_SECTIONS[shape.below(GRID_SECTIONS.len())];
                JobSpec::FilamentGrid(FilamentGridJob {
                    count_z: GRID_DIM.0,
                    count_lat: GRID_DIM.1,
                    pitch_z_nm: 2 * th,
                    pitch_lat_nm: 2 * w,
                    length_nm: 50_000 + 10 * rng.below(10_000) as i64,
                    width_nm: w,
                    thickness_nm: th,
                })
            }
            Class::LoopBus => JobSpec::LoopBus(LoopBusJob {
                signals: BUS_SIGNALS,
                length_nm: 500_000 + 100 * rng.below(10_000) as i64,
                spacing_nm: 500 + 10 * rng.below(150) as i64,
                freqs_hz: (0..BUS_FREQS)
                    .map(|k| 1e8 * 100f64.powf(k as f64 / (BUS_FREQS - 1) as f64))
                    .collect(),
            }),
            Class::Hit => {
                let originals: Vec<usize> =
                    (0..i.saturating_sub(1)).filter(|&j| jobs[j].class != Class::Hit).collect();
                let j = originals[shape.below(originals.len())];
                jobs[j].request.spec.clone()
            }
        };
        jobs.push(MixJob {
            class,
            request: request(name, spec),
        });
    }
    Ok(jobs)
}

/// One served job.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Its kind.
    pub class: Class,
    /// Position in the job list.
    pub index: usize,
    /// Time from send to reply, seconds.
    pub latency_s: f64,
    /// Whether the server answered from its result cache.
    pub cached: bool,
    /// The reply.
    pub outcome: Result<Arc<JobOutcome>, ServeError>,
}

/// Sends every job of `jobs` to `server` from `clients` closed-loop
/// client threads; returns the records in list order and the makespan.
#[must_use]
pub fn run_pass(tr: &Tracer, server: &JobServer, jobs: &[MixJob], clients: usize) -> (Vec<JobRecord>, f64) {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<JobRecord>> = Mutex::new(Vec::with_capacity(jobs.len()));
    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clients.max(1) {
            s.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(index) else {
                    return;
                };
                let ((outcome, cached), latency_s) = tr.op(job.class.op_name(), || {
                    tr.span("serve.run_job", || server.run_job(&job.request))
                });
                out.lock().unwrap_or_else(|e| e.into_inner()).push(JobRecord {
                    class: job.class,
                    index,
                    latency_s,
                    cached,
                    outcome,
                });
            });
        }
    });
    let makespan = start.elapsed().as_secs_f64();
    let mut v = out.into_inner().unwrap_or_else(|e| e.into_inner());
    v.sort_by_key(|r| r.index);
    (v, makespan)
}

/// What identifies a job's result: its payload and options.
fn content(job: &JobRequest) -> (Cow<'_, str>, String) {
    let payload = match &job.spec {
        JobSpec::Deck(DeckSource::Inline(text)) => Cow::Borrowed(text.as_str()),
        other => Cow::Owned(format!("{other:?}")),
    };
    (payload, job.options.cache_token())
}

/// Every distinct deck text of the mix, in first-seen order.
#[must_use]
pub fn distinct_decks(jobs: &[MixJob]) -> Vec<&str> {
    let mut seen = std::collections::HashSet::new();
    jobs.iter()
        .filter_map(|j| match &j.request.spec {
            JobSpec::Deck(DeckSource::Inline(t)) if seen.insert(t.as_str()) => Some(t.as_str()),
            _ => None,
        })
        .collect()
}

/// Solves one deck directly through the `netlist` and `circuit` calls
/// (with the `verify` gate first), the way the server describes it.
///
/// # Errors
///
/// Any parse, gate or solve failure, as text.
pub fn reference_report(tr: &Tracer, text: &str) -> Result<DeckReport, String> {
    let options = JobOptions::default();
    let deck = tr.span("netlist.parse", || parse_deck(text)).map_err(|e| e.to_string())?;
    let flat = tr.span("netlist.flatten", || flatten(&deck)).map_err(|e| e.to_string())?;
    let lowered = tr.span("netlist.lower", || lower_flat(&flat)).map_err(|e| e.to_string())?;
    let mut c = lowered.circuit;
    c.set_solver_backend(options.backend);
    tr.span("verify.gate", || ind101_verify::check(&c, &GateOptions::default()))
        .map_err(|e| e.to_string())?;
    let solve_err = |e: CircuitError| e.to_string();
    let mut report = DeckReport {
        nodes: lowered.nodes.len(),
        op_max_v: None,
        ac_solved: None,
        ac_peak: None,
        tran_steps: None,
    };
    for plan in &lowered.analyses {
        match plan {
            AnalysisPlan::Op => {
                let (op, _) = tr
                    .span("circuit.dc_op", || c.dc_op_with(&RescuePolicy::disabled()))
                    .map_err(solve_err)?;
                report.op_max_v = Some(
                    lowered
                        .nodes
                        .iter()
                        .map(|&(_, id)| op.voltage(id).abs())
                        .fold(0.0f64, f64::max),
                );
            }
            AnalysisPlan::Ac(opts) => {
                let resilience = ResilienceOptions {
                    budget: options.budget(),
                    policy: options.policy,
                    ..ResilienceOptions::default()
                };
                let sweep = tr
                    .span("circuit.ac_sweep", || {
                        c.ac_sweep_resilient(opts, &ParallelConfig::serial(), &resilience)
                    })
                    .map_err(solve_err)?;
                let solved = sweep.ac.freqs_hz.len();
                report.ac_solved = Some((solved, opts.freqs_hz.len()));
                report.ac_peak = (solved > 0).then(|| {
                    lowered
                        .nodes
                        .iter()
                        .map(|&(_, id)| sweep.ac.voltage(id, solved - 1).abs())
                        .fold(0.0f64, f64::max)
                });
            }
            AnalysisPlan::Tran(opts) => {
                let res = tr.span("circuit.transient", || c.transient(opts)).map_err(solve_err)?;
                report.tran_steps = Some(res.len());
            }
        }
    }
    Ok(report)
}

/// Solves every distinct deck directly on `threads` threads, each deck
/// as one operation.
#[must_use]
pub fn reference_reports(tr: &Tracer, decks: &[&str], threads: usize) -> Vec<Result<DeckReport, String>> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<(usize, Result<DeckReport, String>)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(text) = decks.get(k) else {
                    return;
                };
                let (r, _) = tr.op("op.check.deck", || reference_report(tr, text));
                out.lock().unwrap_or_else(|e| e.into_inner()).push((k, r));
            });
        }
    });
    let mut v = out.into_inner().unwrap_or_else(|e| e.into_inner());
    v.sort_by_key(|(k, _)| *k);
    v.into_iter().map(|(_, r)| r).collect()
}

/// The serve_mix correctness gates. `passes` holds each pass's records;
/// `references` the direct solve of each entry of
/// [`distinct_decks`]`(jobs)`.
#[must_use]
pub fn gates(
    jobs: &[MixJob],
    passes: &[Vec<JobRecord>],
    references: &[Result<DeckReport, String>],
) -> Vec<Gate> {
    let mut g = Vec::new();
    let failed: Vec<String> = passes
        .iter()
        .flatten()
        .filter_map(|r| r.outcome.as_ref().err().map(|e| format!("job {}: {e}", r.index)))
        .collect();
    g.push(Gate::check(
        "every job returns Ok",
        failed.is_empty(),
        format!("{} failed, first: {:?}", failed.len(), failed.first()),
    ));

    let mut mismatched = Vec::new();
    for records in passes {
        let mut fresh: HashMap<(Cow<'_, str>, String), &JobOutcome> = HashMap::new();
        for r in records.iter().filter(|r| !r.cached) {
            if let Ok(o) = &r.outcome {
                fresh.entry(content(&jobs[r.index].request)).or_insert(o.as_ref());
            }
        }
        for r in records.iter().filter(|r| r.cached) {
            let uncached = fresh.get(&content(&jobs[r.index].request));
            let ok = matches!((&r.outcome, uncached), (Ok(o), Some(u)) if o.as_ref() == *u);
            if !ok {
                mismatched.push(r.index);
            }
        }
    }
    g.push(Gate::check(
        "cached outcomes equal uncached ones",
        mismatched.is_empty(),
        format!("jobs {mismatched:?}"),
    ));

    let outcomes = |records: &Vec<JobRecord>| -> Vec<Option<JobOutcome>> {
        records.iter().map(|r| r.outcome.as_ref().ok().map(|o| o.as_ref().clone())).collect()
    };
    let same = passes.windows(2).all(|w| outcomes(&w[0]) == outcomes(&w[1]));
    g.push(Gate::check(
        "outcomes identical across passes",
        same,
        "a later pass answered differently",
    ));

    let decks = distinct_decks(jobs);
    let mut served: HashMap<&str, &JobOutcome> = HashMap::new();
    if let Some(first) = passes.first() {
        for r in first {
            if let (JobSpec::Deck(DeckSource::Inline(t)), Ok(o)) = (&jobs[r.index].request.spec, &r.outcome) {
                served.entry(t.as_str()).or_insert(o.as_ref());
            }
        }
    }
    let mut differ = Vec::new();
    for (k, text) in decks.iter().enumerate() {
        let reference = references.get(k);
        let ok = match (served.get(text), reference) {
            (Some(JobOutcome::Deck(s)), Some(Ok(r))) => s == r,
            _ => false,
        };
        if !ok {
            differ.push(k);
        }
    }
    g.push(Gate::check(
        "served DeckReport equals the direct netlist + circuit solve",
        differ.is_empty() && references.len() == decks.len(),
        format!("distinct decks {differ:?} of {}", decks.len()),
    ));
    g
}

/// Median and 95th percentile of job latency, milliseconds.
#[must_use]
pub fn latency_ms(records: &[&JobRecord]) -> (f64, f64) {
    let ms: Vec<f64> = records.iter().map(|r| r.latency_s * 1e3).collect();
    (crate::report::median(&ms), crate::report::percentile(&ms, 0.95))
}
