//! `ci-coverage`: every test suite, bench target and committed
//! `BENCH_*.json` record must be referenced by a CI job.
//!
//! The repo's gates only bite if CI runs them — an integration suite
//! that no job executes, or a committed bench record no gate reads, is
//! a contract that silently stopped being enforced. The check is
//! textual over `ci.yml` (the same vendored-offline discipline as the
//! rest of the analyzer): a suite is covered by a workspace-wide
//! `cargo test`, a `-p <package>` run, or an explicit `--test <name>`;
//! bench bins need a `--bin <name>`, criterion benches a
//! `--bench <name>` or `--benches` build, records a literal mention.

use crate::finding::Finding;
use crate::workspace::{FileKind, SourceFile, Workspace};
use ind101_verify::Severity;

/// Checks the workspace's test/bench surface against the CI workflow.
#[must_use]
pub fn ci_coverage(ci_path: &str, ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    let Some(ci) = ws.ci_yml.as_deref() else {
        out.push(Finding {
            rule: "ci-coverage",
            severity: Severity::Error,
            path: ci_path.to_string(),
            line: 1,
            message: "no CI workflow found".to_string(),
            fix_hint: "add .github/workflows/ci.yml running the tier-1 suite".to_string(),
        });
        return out;
    };
    let cargo_test_lines: Vec<&str> = ci
        .lines()
        .map(str::trim)
        .filter(|l| l.contains("cargo test") && !l.starts_with('#'))
        .collect();
    let workspace_wide = cargo_test_lines
        .iter()
        .any(|l| l.contains("--workspace") && !l.contains("--test "));

    for f in &ws.files {
        match f.kind {
            FileKind::IntegrationTest => {
                let stem = file_stem(&f.rel_path);
                let covered = workspace_wide
                    || cargo_test_lines.iter().any(|l| {
                        l.contains(&format!("--test {stem}"))
                            || (covers_package(l, f) && !l.contains("--test "))
                    });
                if !covered {
                    out.push(orphan(
                        f,
                        format!(
                            "integration suite `{stem}` ({}) is not run by any ci.yml job",
                            f.package
                        ),
                        format!("add `cargo test -p {} --test {stem}` to a CI job", f.package),
                    ));
                }
            }
            FileKind::Bin if f.crate_dir == "bench" => {
                let stem = file_stem(&f.rel_path);
                // Covered by a literal `--bin <stem>` or by a matrix
                // list entry (`- <stem>`) feeding a `--bin ${{ … }}`.
                let covered = ci.contains(&format!("--bin {stem}"))
                    || ci.lines().any(|l| l.trim() == format!("- {stem}"));
                if !covered {
                    out.push(orphan(
                        f,
                        format!("bench bin `{stem}` is not referenced by any ci.yml job"),
                        format!(
                            "add `cargo run --release -p {} --bin {stem}` to a CI job (or a smoke matrix entry)",
                            f.package
                        ),
                    ));
                }
            }
            FileKind::Bench => {
                let stem = file_stem(&f.rel_path);
                let covered = ci.contains(&format!("--bench {stem}")) || ci.contains("--benches");
                if !covered {
                    out.push(orphan(
                        f,
                        format!("bench target `{stem}` is not built or run by any ci.yml job"),
                        format!("add `cargo bench -p {} --bench {stem}` or a `--benches` build", f.package),
                    ));
                }
            }
            _ => {}
        }
    }

    for rec in &ws.bench_records {
        let name = rec.rsplit('/').next().unwrap_or(rec);
        if !ci.contains(name) {
            out.push(Finding {
                rule: "ci-coverage",
                severity: Severity::Error,
                path: rec.clone(),
                line: 1,
                message: format!(
                    "committed bench record `{name}` is not gated by any ci.yml job"
                ),
                fix_hint: "add a gate reading the record (like the fft/grid smoke jobs) so it \
                           cannot silently go stale"
                    .to_string(),
            });
        }
    }
    out
}

fn covers_package(line: &str, f: &SourceFile) -> bool {
    line.contains(&format!("-p {}", f.package)) || line.contains(&format!("--package {}", f.package))
        || (f.crate_dir == "." && line.contains("cargo test") && !line.contains("-p "))
}

fn orphan(f: &SourceFile, message: String, fix_hint: String) -> Finding {
    Finding {
        rule: "ci-coverage",
        severity: Severity::Error,
        path: f.rel_path.clone(),
        line: 1,
        message,
        fix_hint,
    }
}

fn file_stem(rel_path: &str) -> &str {
    rel_path
        .rsplit('/')
        .next()
        .unwrap_or(rel_path)
        .trim_end_matches(".rs")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(ci: &str, files: Vec<SourceFile>, records: Vec<&str>) -> Workspace {
        Workspace {
            files,
            design_md: None,
            ci_yml: Some(ci.to_string()),
            bench_records: records.into_iter().map(str::to_string).collect(),
            callers: Vec::new(),
        }
    }

    fn file(rel: &str, crate_dir: &str, package: &str, kind: FileKind) -> SourceFile {
        SourceFile {
            rel_path: rel.to_string(),
            crate_dir: crate_dir.to_string(),
            package: package.to_string(),
            kind,
            text: String::new(),
        }
    }

    #[test]
    fn workspace_wide_test_covers_suites() {
        let w = ws(
            "      - run: cargo test -q --workspace\n",
            vec![file(
                "crates/circuit/tests/chaos.rs",
                "circuit",
                "ind101-circuit",
                FileKind::IntegrationTest,
            )],
            vec![],
        );
        assert!(ci_coverage("ci.yml", &w).is_empty());
    }

    #[test]
    fn orphan_suite_bin_and_record_are_flagged() {
        let w = ws(
            "      - run: cargo test -q -p ind101-verify\n",
            vec![
                file(
                    "crates/circuit/tests/chaos.rs",
                    "circuit",
                    "ind101-circuit",
                    FileKind::IntegrationTest,
                ),
                file(
                    "crates/bench/src/bin/fig1.rs",
                    "bench",
                    "ind101-bench",
                    FileKind::Bin,
                ),
            ],
            vec!["crates/bench/BENCH_orphan.json"],
        );
        let f = ci_coverage("ci.yml", &w);
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f.iter().any(|x| x.message.contains("`chaos`")));
        assert!(f.iter().any(|x| x.message.contains("`fig1`")));
        assert!(f.iter().any(|x| x.message.contains("BENCH_orphan.json")));
    }

    #[test]
    fn matrix_list_entry_covers_bench_bin() {
        let w = ws(
            "      matrix:\n        bin:\n          - fig1\n      - run: cargo run --release -p ind101-bench --bin ${{ matrix.bin }}\n",
            vec![file(
                "crates/bench/src/bin/fig1.rs",
                "bench",
                "ind101-bench",
                FileKind::Bin,
            )],
            vec![],
        );
        assert!(ci_coverage("ci.yml", &w).is_empty());
    }

    #[test]
    fn explicit_test_filter_covers_only_that_suite() {
        let w = ws(
            "      - run: cargo test -q -p ind101-circuit --test chaos\n",
            vec![
                file(
                    "crates/circuit/tests/chaos.rs",
                    "circuit",
                    "ind101-circuit",
                    FileKind::IntegrationTest,
                ),
                file(
                    "crates/circuit/tests/other.rs",
                    "circuit",
                    "ind101-circuit",
                    FileKind::IntegrationTest,
                ),
            ],
            vec![],
        );
        let f = ci_coverage("ci.yml", &w);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`other`"));
    }
}
