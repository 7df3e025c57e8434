//! `dead-public`: every `pub fn` in a member crate has a caller.
//!
//! A public function nothing calls is API surface with no contract
//! behind it: no test pins its behaviour and no flow depends on it, so
//! it rots silently. A `pub fn` defined in non-test `crates/*/src` code
//! must have its name appear somewhere other than an `fn <name>`
//! definition — in any collected source (library, unit or integration
//! test, bench, example) or in the perfbench harness, a separate cargo
//! workspace with path dependencies on the crates. The check is by
//! identifier over the comment- and string-stripped code view: a name
//! mentioned only in docs is still dead, and any same-named use keeps
//! every definition of that name alive.

use crate::finding::Finding;
use crate::lexer::LexedFile;
use crate::workspace::{FileKind, SourceFile};
use ind101_verify::Severity;
use std::collections::HashSet;

/// Identifiers of one line's code view, in order.
fn idents(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|t| t.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

/// Flags each `pub fn` in member-crate library code whose name is used
/// nowhere in `files` or `callers` except by `fn` definitions.
#[must_use]
pub(crate) fn dead_public(
    files: &[(&SourceFile, &LexedFile)],
    callers: &[LexedFile],
) -> Vec<Finding> {
    let mut used: HashSet<&str> = HashSet::new();
    let mut defs: Vec<(&SourceFile, usize, &str)> = Vec::new();
    let lexed = files
        .iter()
        .map(|&(f, l)| (Some(f), l))
        .chain(callers.iter().map(|l| (None, l)));
    for (file, lex) in lexed {
        let def_file = file.filter(|f| f.kind == FileKind::Lib && f.crate_dir != ".");
        for (idx, line) in lex.lines.iter().enumerate() {
            // The two tokens before each identifier; qualifiers between
            // `pub` and `fn` (`const`, `unsafe`) are not tracked.
            let (mut prev2, mut prev) = ("", "");
            for tok in idents(&line.code) {
                if prev != "fn" {
                    used.insert(tok);
                } else if let (Some(f), "pub", false) = (def_file, prev2, line.in_test) {
                    defs.push((f, idx + 1, tok));
                }
                (prev2, prev) = (prev, tok);
            }
        }
    }
    defs.into_iter()
        .filter(|(_, _, name)| !used.contains(name))
        .map(|(f, line, name)| Finding {
            rule: "dead-public",
            severity: Severity::Warning,
            path: f.rel_path.clone(),
            line,
            message: format!("public `{name}` has no caller outside its definition"),
            fix_hint: "delete it, or call it from the code or test that needs it".to_string(),
        })
        .collect()
}
