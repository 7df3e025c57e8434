//! `ind101-analyze` — workspace-native static analysis enforcing the
//! repo's correctness contracts.
//!
//! The paper's central warning is that naive shortcuts silently
//! destroy correctness guarantees. The runtime answer is
//! `ind101-verify` (passivity audits, ERC) and the chaos suites; this
//! crate is the *source-level* counterpart: a dependency-free pass
//! over the workspace tree whose lints encode contracts generic
//! tooling cannot express —
//!
//! * **panic-policy / index-panic** — non-test library code fails
//!   through typed errors, never panics;
//! * **error-taxonomy** — the public error enums and DESIGN.md's
//!   failure-semantics table stay in lockstep;
//! * **ci-coverage** — every suite, bench target and committed
//!   `BENCH_*.json` record is enforced by a CI job;
//! * **tolerance-hygiene** — numeric thresholds are named consts, not
//!   scattered literals;
//! * **atomics-ordering** — cancellation/guard/fault atomics carry
//!   the synchronizes-with edges budget enforcement needs;
//! * **dead-public** — every `pub fn` in a member crate has a caller.
//!
//! Findings reuse `ind101-verify`'s [`Diagnostic`]/[`Severity`]
//! machinery. Violations are suppressed inline with justification —
//! `// ind101: allow(<lint>, <reason>)` — or tolerated temporarily via
//! the checked-in baseline file; anything else fails the run (and the
//! CI `static-analysis` job).
//!
//! [`Diagnostic`]: ind101_verify::Diagnostic
//! [`Severity`]: ind101_verify::Severity

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod config;
pub mod finding;
pub mod lexer;
pub mod lints;
pub mod report;
pub mod workspace;

pub use config::AnalyzeConfig;
pub use finding::{Baseline, Finding, Suppression};
pub use workspace::{FileKind, SourceFile, Workspace, WorkspaceError};

use lexer::LexedFile;
use std::path::Path;

/// The outcome of one analysis run.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// Findings that fail the run, sorted by path then line.
    pub findings: Vec<Finding>,
    /// Baseline keys of findings tolerated by the baseline file.
    pub baselined: Vec<String>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Analysis {
    /// Whether the run is clean (no non-baselined findings).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Runs every lint over the workspace at `root`.
///
/// # Errors
///
/// [`WorkspaceError`] when the tree cannot be read.
pub fn analyze_workspace(
    root: &Path,
    cfg: &AnalyzeConfig,
    baseline: &Baseline,
) -> Result<Analysis, WorkspaceError> {
    let ws = workspace::collect(root)?;
    Ok(analyze(&ws, cfg, baseline))
}

/// Runs every lint over an already collected workspace surface.
#[must_use]
pub fn analyze(ws: &Workspace, cfg: &AnalyzeConfig, baseline: &Baseline) -> Analysis {
    let lexed: Vec<LexedFile> = ws.files.iter().map(|f| lexer::lex(&f.text)).collect();

    let mut findings: Vec<Finding> = Vec::new();
    let mut baselined: Vec<String> = Vec::new();

    // Dead public functions need the whole tree, but each finding sits
    // on its definition line, so it goes through that file's
    // suppressions below like any per-file lint.
    let all: Vec<(&SourceFile, &LexedFile)> = ws.files.iter().zip(&lexed).collect();
    let callers: Vec<LexedFile> = ws.callers.iter().map(|t| lexer::lex(t)).collect();
    let mut dead = lints::dead_public::dead_public(&all, &callers);

    // Per-file source lints, with suppression handling per file.
    for (file, lex) in ws.files.iter().zip(&lexed) {
        let (mut per_file, rest): (Vec<Finding>, Vec<Finding>) =
            dead.into_iter().partition(|f| f.path == file.rel_path);
        dead = rest;
        let is_lib = file.kind == FileKind::Lib;
        if is_lib && cfg.panic_policy_crates.contains(&file.crate_dir) {
            per_file.extend(lints::panic::panic_policy(&file.rel_path, lex));
            per_file.extend(lints::panic::index_panic(&file.rel_path, lex));
        }
        if is_lib && cfg.tolerance_crates.contains(&file.crate_dir) {
            per_file.extend(lints::tolerance::tolerance_hygiene(&file.rel_path, lex));
        }
        if cfg.atomics_files.iter().any(|s| file.rel_path.ends_with(s)) {
            per_file.extend(lints::atomics::atomics_ordering(&file.rel_path, lex));
        }

        let (sups, mut bad) = finding::collect_suppressions(&file.rel_path, lex);
        let mut kept = finding::apply_suppressions(&file.rel_path, per_file, &sups);
        kept.append(&mut bad);

        for f in kept {
            let key = f.baseline_key(Some(lex));
            if baseline.contains(&key) {
                baselined.push(key);
            } else {
                findings.push(f);
            }
        }
    }

    // Workspace-level lints (no inline suppressions — their findings
    // are fixed in DESIGN.md / ci.yml, or baselined).
    let pairs: Vec<(&SourceFile, &LexedFile)> = ws
        .files
        .iter()
        .zip(&lexed)
        .filter(|(f, _)| f.kind == FileKind::Lib)
        .collect();
    let enums = lints::taxonomy::collect_error_enums(&pairs);
    let global = lints::taxonomy::error_taxonomy(&cfg.design_path, ws.design_md.as_deref(), &enums)
        .into_iter()
        .chain(lints::ci::ci_coverage(&cfg.ci_path, ws));
    for f in global {
        let key = f.baseline_key(None);
        if baseline.contains(&key) {
            baselined.push(key);
        } else {
            findings.push(f);
        }
    }

    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Analysis {
        findings,
        baselined,
        files_scanned: ws.files.len(),
    }
}
