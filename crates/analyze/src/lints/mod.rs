//! The domain lints: each enforces one of the repo's correctness
//! contracts that generic tooling (rustc, clippy) cannot express.

pub mod atomics;
pub mod ci;
pub mod dead_public;
pub mod panic;
pub mod taxonomy;
pub mod tolerance;

/// Identifier and one-line contract of every lint, for `--list-lints`
/// and the documentation self-check.
pub const LINTS: [(&str, &str); 8] = [
    (
        "panic-policy",
        "no unwrap/expect/panic!/todo!/unreachable!/unimplemented! in non-test library code",
    ),
    (
        "index-panic",
        "no literal-subscript indexing (xs[0]) in non-test library code — a hidden panic on short inputs",
    ),
    (
        "error-taxonomy",
        "every public error-enum variant appears in DESIGN.md's failure-semantics table, and every table row names a live variant",
    ),
    (
        "ci-coverage",
        "every integration suite, bench target and committed BENCH_*.json record is referenced by a ci.yml job",
    ),
    (
        "tolerance-hygiene",
        "no bare negative-exponent float literals in non-test library code — tolerances must be named consts",
    ),
    (
        "atomics-ordering",
        "no Ordering::Relaxed on cancellation/guard/fault paths where a delayed store defers budget enforcement",
    ),
    (
        "dead-public",
        "every public fn in crates/*/src has a caller (any workspace source or perfbench) besides its definition",
    ),
    (
        "bad-suppression",
        "suppression comments must carry a lint id and a non-empty justification (unused-suppression flags stale ones)",
    ),
];
