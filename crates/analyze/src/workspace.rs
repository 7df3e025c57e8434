//! Workspace discovery: walking the source tree and classifying files.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// What role a `.rs` file plays — the lints key off this.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// Library code (`crates/*/src/**`, root `src/**`) — the
    /// production-contract surface.
    Lib,
    /// A binary target (`src/main.rs`, `src/bin/*`) — CLI entry points
    /// where `expect` on startup errors is the accepted idiom.
    Bin,
    /// An integration-test suite (`tests/*.rs`).
    IntegrationTest,
    /// A criterion-style bench target (`benches/*.rs`).
    Bench,
    /// An example (`examples/*.rs`).
    Example,
}

/// One discovered source file.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// Crate directory name (`numeric`, `circuit`, … or `.` for the
    /// root facade crate).
    pub crate_dir: String,
    /// Cargo package name (`ind101-numeric`, …).
    pub package: String,
    /// Role of the file.
    pub kind: FileKind,
    /// Raw text.
    pub text: String,
}

/// The discovered workspace surface the lints operate on.
#[derive(Clone, Debug, Default)]
pub struct Workspace {
    /// All `.rs` sources outside `vendor/`, `target/` and fixtures.
    pub files: Vec<SourceFile>,
    /// `DESIGN.md`, when present.
    pub design_md: Option<String>,
    /// The CI workflow text, when present.
    pub ci_yml: Option<String>,
    /// Workspace-relative paths of committed `BENCH_*.json` records.
    pub bench_records: Vec<String>,
    /// Sources of the perfbench harness (`perfbench/src`,
    /// `perfbench/tests`): a separate cargo workspace, read only as
    /// callers of the crates' public API.
    pub callers: Vec<String>,
}

/// I/O or layout failure while collecting the workspace.
#[derive(Debug)]
pub struct WorkspaceError {
    /// Path the failure is about.
    pub path: PathBuf,
    /// Description.
    pub message: String,
}

impl fmt::Display for WorkspaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.message)
    }
}

impl std::error::Error for WorkspaceError {}

fn io_err(path: &Path, e: &std::io::Error) -> WorkspaceError {
    WorkspaceError {
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

/// Directory names never descended into.
const SKIP_DIRS: [&str; 6] = ["target", "vendor", ".git", "fixtures", "node_modules", ".github"];

/// Collects the analyzable surface under `root`.
///
/// # Errors
///
/// [`WorkspaceError`] when `root` is not a workspace (no `crates/`
/// directory) or a file read fails.
pub fn collect(root: &Path) -> Result<Workspace, WorkspaceError> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(WorkspaceError {
            path: root.to_path_buf(),
            message: "not a workspace root (no crates/ directory)".to_string(),
        });
    }

    let mut ws = Workspace::default();

    // Root facade package.
    let root_pkg = package_name(&root.join("Cargo.toml")).unwrap_or_else(|| "ind101".to_string());
    collect_package(root, root, ".", &root_pkg, &mut ws)?;

    // Member crates.
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map_err(|e| io_err(&crates_dir, &e))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().to_string())
            .unwrap_or_default();
        let pkg = package_name(&dir.join("Cargo.toml")).unwrap_or_else(|| name.clone());
        collect_package(root, &dir, &name, &pkg, &mut ws)?;
        // Committed bench records live beside the crate manifest.
        let mut records: Vec<String> = fs::read_dir(&dir)
            .map_err(|e| io_err(&dir, &e))?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .map(|n| {
                        let n = n.to_string_lossy();
                        n.starts_with("BENCH_") && n.ends_with(".json")
                    })
                    .unwrap_or(false)
            })
            .map(|p| rel(root, &p))
            .collect();
        records.sort();
        ws.bench_records.append(&mut records);
    }

    let mut caller_paths = Vec::new();
    for sub in ["perfbench/src", "perfbench/tests"] {
        let dir = root.join(sub);
        if dir.is_dir() {
            walk(&dir, &mut caller_paths)?;
        }
    }
    caller_paths.sort();
    for p in caller_paths {
        ws.callers.push(fs::read_to_string(&p).map_err(|e| io_err(&p, &e))?);
    }

    let design = root.join("DESIGN.md");
    if design.is_file() {
        ws.design_md = Some(fs::read_to_string(&design).map_err(|e| io_err(&design, &e))?);
    }
    let ci = root.join(".github/workflows/ci.yml");
    if ci.is_file() {
        ws.ci_yml = Some(fs::read_to_string(&ci).map_err(|e| io_err(&ci, &e))?);
    }

    ws.files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(ws)
}

/// Collects the `.rs` sources of one package directory.
fn collect_package(
    root: &Path,
    dir: &Path,
    crate_dir: &str,
    package: &str,
    ws: &mut Workspace,
) -> Result<(), WorkspaceError> {
    for (sub, kind) in [
        ("src", FileKind::Lib),
        ("tests", FileKind::IntegrationTest),
        ("benches", FileKind::Bench),
        ("examples", FileKind::Example),
    ] {
        let base = dir.join(sub);
        if !base.is_dir() {
            continue;
        }
        let mut paths = Vec::new();
        walk(&base, &mut paths)?;
        paths.sort();
        for p in paths {
            let rel_path = rel(root, &p);
            let kind = classify(&rel_path, kind);
            let text = fs::read_to_string(&p).map_err(|e| io_err(&p, &e))?;
            ws.files.push(SourceFile {
                rel_path,
                crate_dir: crate_dir.to_string(),
                package: package.to_string(),
                kind,
                text,
            });
        }
    }
    Ok(())
}

/// `src/main.rs` and `src/bin/*` are binaries even though they live
/// under `src/`.
fn classify(rel_path: &str, base: FileKind) -> FileKind {
    if base == FileKind::Lib && (rel_path.ends_with("/main.rs") || rel_path.contains("/src/bin/")) {
        FileKind::Bin
    } else {
        base
    }
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), WorkspaceError> {
    for entry in fs::read_dir(dir).map_err(|e| io_err(dir, &e))? {
        let entry = entry.map_err(|e| io_err(dir, &e))?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().to_string();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_str()) {
                walk(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Reads `name = "…"` from a `[package]` manifest section.
fn package_name(manifest: &Path) -> Option<String> {
    let text = fs::read_to_string(manifest).ok()?;
    let mut in_package = false;
    for line in text.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            in_package = t == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = t.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    return Some(rest.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_bins() {
        assert_eq!(
            classify("crates/bench/src/bin/fig1.rs", FileKind::Lib),
            FileKind::Bin
        );
        assert_eq!(classify("crates/analyze/src/main.rs", FileKind::Lib), FileKind::Bin);
        assert_eq!(classify("crates/numeric/src/lu.rs", FileKind::Lib), FileKind::Lib);
    }

    #[test]
    fn collects_this_workspace() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let ws = collect(&root).expect("workspace collects");
        assert!(ws.files.iter().any(|f| f.rel_path == "crates/numeric/src/krylov.rs"));
        assert!(ws.files.iter().any(|f| f.package == "ind101-numeric"));
        assert!(ws.design_md.is_some());
        assert!(ws.ci_yml.is_some());
        assert!(!ws.bench_records.is_empty());
        // Vendored stand-ins and fixtures are never analyzed.
        assert!(!ws.files.iter().any(|f| f.rel_path.starts_with("vendor/")));
        assert!(!ws.files.iter().any(|f| f.rel_path.contains("fixtures/")));
    }
}
