//! Fixture-corpus tests: one known-bad tree per lint asserting the
//! exact diagnostic, a suppression round-trip, the baseline gate, and
//! the clean-tree self-test over this repository itself.

use ind101_analyze::{analyze_workspace, Analysis, AnalyzeConfig, Baseline};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name)
}

fn run(name: &str) -> Analysis {
    analyze_workspace(&fixture(name), &AnalyzeConfig::default(), &Baseline::default())
        .expect("fixture tree collects")
}

#[test]
fn panic_fixture_trips_panic_policy_and_index_panic() {
    let a = run("panic");
    assert_eq!(a.findings.len(), 3, "{:#?}", a.findings);
    let lib = "crates/numeric/src/lib.rs";
    let by_line: Vec<(&str, usize, &str)> = a
        .findings
        .iter()
        .map(|f| (f.rule, f.line, f.message.as_str()))
        .collect();
    assert!(by_line.contains(&(
        "index-panic",
        5,
        "literal-subscript indexing `s[0]` in non-test library code"
    )));
    assert!(by_line.contains(&("panic-policy", 7, "`panic!(…)` in non-test library code")));
    assert!(by_line.contains(&("panic-policy", 9, "`.unwrap()` in non-test library code")));
    assert!(a.findings.iter().all(|f| f.path == lib));
}

#[test]
fn tolerance_fixture_trips_with_exact_literal() {
    let a = run("tolerance");
    assert_eq!(a.findings.len(), 1, "{:#?}", a.findings);
    let f = &a.findings[0];
    assert_eq!(f.rule, "tolerance-hygiene");
    assert_eq!(f.path, "crates/numeric/src/lib.rs");
    assert_eq!(f.line, 5);
    assert_eq!(f.message, "bare float literal `1e-10` in non-test library code");
}

#[test]
fn atomics_fixture_trips_on_relaxed_cancellation() {
    let a = run("atomics");
    assert_eq!(a.findings.len(), 1, "{:#?}", a.findings);
    let f = &a.findings[0];
    assert_eq!(f.rule, "atomics-ordering");
    assert_eq!(f.path, "crates/numeric/src/budget.rs");
    assert_eq!(f.line, 7);
    assert_eq!(f.message, "`Ordering::Relaxed` on a cancellation/guard/fault path");
}

#[test]
fn taxonomy_fixture_trips_both_drift_directions() {
    let a = run("taxonomy");
    assert_eq!(a.findings.len(), 2, "{:#?}", a.findings);
    assert!(a.findings.iter().any(|f| {
        f.rule == "error-taxonomy"
            && f.path == "crates/numeric/src/lib.rs"
            && f.line == 8
            && f.message
                == "`FixtureError::Undocumented` has no row in DESIGN.md's failure-semantics table"
    }));
    assert!(a.findings.iter().any(|f| {
        f.rule == "error-taxonomy"
            && f.path == "DESIGN.md"
            && f.message
                == "failure-semantics table names `FixtureError::Vanished` but the variant does not exist"
    }));
}

#[test]
fn ci_fixture_trips_orphan_suite_bin_and_record() {
    let a = run("ci");
    assert_eq!(a.findings.len(), 3, "{:#?}", a.findings);
    assert!(a.findings.iter().all(|f| f.rule == "ci-coverage"));
    assert!(a.findings.iter().any(|f| f.message
        == "integration suite `orphan` (numeric) is not run by any ci.yml job"));
    assert!(a
        .findings
        .iter()
        .any(|f| f.message == "bench bin `orphanfig` is not referenced by any ci.yml job"));
    assert!(a.findings.iter().any(|f| f.message
        == "committed bench record `BENCH_orphan.json` is not gated by any ci.yml job"));
}

#[test]
fn justified_suppressions_round_trip_clean() {
    let a = run("suppressed");
    assert!(a.is_clean(), "{:#?}", a.findings);
    assert_eq!(a.files_scanned, 1);
}

#[test]
fn stale_suppression_is_flagged_as_unused() {
    let a = run("stale");
    assert_eq!(a.findings.len(), 1, "{:#?}", a.findings);
    let f = &a.findings[0];
    assert_eq!(f.rule, "unused-suppression");
    assert_eq!(f.line, 5);
    assert_eq!(
        f.message,
        "suppression `ind101: allow(panic-policy, …)` matched no finding on line 6"
    );
}

#[test]
fn reasonless_suppression_is_flagged_as_bad() {
    let a = run("reasonless");
    assert_eq!(a.findings.len(), 1, "{:#?}", a.findings);
    let f = &a.findings[0];
    assert_eq!(f.rule, "bad-suppression");
    assert_eq!(f.line, 5);
    assert_eq!(
        f.message,
        "malformed suppression comment: missing justification — a suppression without a reason is a finding"
    );
}

#[test]
fn clean_fixture_is_clean() {
    let a = run("clean");
    assert!(a.is_clean(), "{:#?}", a.findings);
}

/// A seeded violation must fail the gate (`is_clean` drives the CLI's
/// nonzero exit), and baselining exactly that finding must pass it —
/// the escape hatch tolerates known debt without hiding new findings.
#[test]
fn baseline_tolerates_seeded_violation_without_hiding_new_ones() {
    let bad = run("tolerance");
    assert!(!bad.is_clean(), "seeded violation must fail the gate");

    let baseline = Baseline::parse(
        "tolerance-hygiene|crates/numeric/src/lib.rs|residual < 1e-10\n",
    );
    let tolerated =
        analyze_workspace(&fixture("tolerance"), &AnalyzeConfig::default(), &baseline)
            .expect("fixture tree collects");
    assert!(tolerated.is_clean(), "{:#?}", tolerated.findings);
    assert_eq!(tolerated.baselined.len(), 1);

    // A baseline for a different line does not tolerate this finding.
    let wrong = Baseline::parse("tolerance-hygiene|crates/numeric/src/lib.rs|other code\n");
    let still_bad =
        analyze_workspace(&fixture("tolerance"), &AnalyzeConfig::default(), &wrong)
            .expect("fixture tree collects");
    assert!(!still_bad.is_clean());
}

/// The self-test behind the CI `static-analysis` job: this repository,
/// analyzed with its checked-in baseline, reports zero findings.
#[test]
fn the_workspace_itself_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let baseline = std::fs::read_to_string(root.join("crates/analyze/baseline.txt"))
        .map(|t| Baseline::parse(&t))
        .unwrap_or_default();
    let a = analyze_workspace(&root, &AnalyzeConfig::default(), &baseline)
        .expect("workspace collects");
    assert!(a.files_scanned > 100, "workspace scan looks truncated");
    assert!(a.is_clean(), "{:#?}", a.findings);
}

/// `kept` is just as uncalled as `orphan`, but its inline suppression
/// silences it (and is not reported unused).
#[test]
fn dead_fixture_trips_only_the_uncalled_public_fn() {
    let a = run("dead");
    assert_eq!(a.findings.len(), 1, "{:#?}", a.findings);
    let f = &a.findings[0];
    assert_eq!(f.rule, "dead-public");
    assert_eq!(f.path, "crates/numeric/src/lib.rs");
    assert_eq!(f.line, 14);
    assert_eq!(f.message, "public `orphan` has no caller outside its definition");
}
