//! `span-vocab`: `vh-query` and `vh-core` only emit spans from the stable
//! vocabulary.
//!
//! DESIGN.md §10 freezes the span-tree names — the CLI, the integration
//! tests and external tooling parse them. The vocabulary's single source
//! of truth is `STABLE_SPAN_NAMES` in `crates/obs/src/span.rs`; this
//! lint extracts it textually and checks every span-creating call in
//! `crates/query/src/` and `crates/core/src/` (where a view's build
//! stages open theirs) (`trace.begin("…")`, `Span::named("…")`,
//! `TraceBuilder::enabled("…")`) against it. A new stage name therefore
//! requires a deliberate vocabulary edit, not just a string literal.

use crate::findings::{Finding, Lint};
use crate::lints::Code;
use crate::scan::Tok;
use crate::workspace::Workspace;

/// Where the vocabulary lives.
const VOCAB_FILE: &str = "crates/obs/src/span.rs";
/// The constant holding it.
const VOCAB_CONST: &str = "STABLE_SPAN_NAMES";
/// The crates whose span emissions are checked.
const USE_PREFIXES: &[&str] = &["crates/query/src/", "crates/core/src/"];

/// Runs the lint over the workspace.
pub fn check(ws: &Workspace, out: &mut Vec<Finding>) {
    let Some(vocab_file) = ws.file(VOCAB_FILE) else {
        return; // no vh-obs in this tree — nothing to enforce
    };
    let Some(vocab) = extract_vocab(&Code::of(vocab_file)) else {
        out.push(Finding {
            file: VOCAB_FILE.to_string(),
            line: 1,
            lint: Lint::SpanVocab,
            message: format!("`{VOCAB_CONST}` (the stable span vocabulary) not found"),
        });
        return;
    };
    for file in &ws.files {
        if !USE_PREFIXES.iter().any(|p| file.rel.starts_with(p)) {
            continue;
        }
        let code = Code::of(file);
        for i in 0..code.len() {
            if code.suppressed(i) {
                continue;
            }
            let name_pos = span_name_at(&code, i);
            let Some(pos) = name_pos else { continue };
            let Some(name) = code.str_at(pos) else {
                continue;
            };
            if !vocab.iter().any(|v| v == name) {
                file.report(
                    out,
                    Lint::SpanVocab,
                    code.line(pos),
                    format!(
                        "span name \"{name}\" is not in vh-obs `{VOCAB_CONST}` \
                         (crates/obs/src/span.rs)"
                    ),
                );
            }
        }
    }
}

/// If a span-creating call starts at code-position `i`, returns the
/// position of its name literal.
fn span_name_at(code: &Code<'_>, i: usize) -> Option<usize> {
    // `.begin("…")`
    if code.is_punct(i, '.') && code.is_ident(i + 1, "begin") && code.is_punct(i + 2, '(') {
        return code.str_at(i + 3).map(|_| i + 3);
    }
    // `Span::named("…")` / `TraceBuilder::enabled("…")`
    for (ty, method) in [("Span", "named"), ("TraceBuilder", "enabled")] {
        if code.is_ident(i, ty)
            && code.is_punct(i + 1, ':')
            && code.is_punct(i + 2, ':')
            && code.is_ident(i + 3, method)
            && code.is_punct(i + 4, '(')
        {
            return code.str_at(i + 5).map(|_| i + 5);
        }
    }
    None
}

/// Collects the string literals of `pub const STABLE_SPAN_NAMES: … = […];`.
fn extract_vocab(code: &Code<'_>) -> Option<Vec<String>> {
    for i in 0..code.len() {
        if !code.is_ident(i, VOCAB_CONST) {
            continue;
        }
        let mut names = Vec::new();
        let mut j = i + 1;
        while j < code.len() && !code.is_punct(j, ';') {
            if let Some(Tok::Str(s)) = code.kind(j) {
                names.push(s.clone());
            }
            j += 1;
        }
        if !names.is_empty() {
            return Some(names);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::SourceFile;

    fn fake_ws(path: &str, src: &str) -> Workspace {
        let vocab = r#"pub const STABLE_SPAN_NAMES: &[&str] = &["query", "parse", "exec"];"#;
        Workspace {
            files: vec![
                SourceFile::from_source(VOCAB_FILE, vocab),
                SourceFile::from_source(path, src),
            ],
            readme: None,
        }
    }

    #[test]
    fn off_vocabulary_names_fire_and_known_ones_pass() {
        let src = r#"
fn f(trace: &mut T) {
    trace.begin("parse");
    trace.begin("rogue-stage");
    let s = Span::named("exec");
    let r = Span::named("off-vocab");
    let t = TraceBuilder::enabled("query");
}
"#;
        for path in ["crates/query/src/engine.rs", "crates/core/src/vdoc.rs"] {
            let mut out = Vec::new();
            check(&fake_ws(path, src), &mut out);
            let msgs: Vec<&str> = out.iter().map(|f| f.message.as_str()).collect();
            assert_eq!(out.len(), 2, "{path}: {msgs:?}");
            assert!(msgs[0].contains("rogue-stage"));
            assert!(msgs[1].contains("off-vocab"));
        }
    }

    #[test]
    fn files_outside_vh_query_and_vh_core_are_not_checked() {
        let vocab = r#"pub const STABLE_SPAN_NAMES: &[&str] = &["query"];"#;
        let ws = Workspace {
            files: vec![
                SourceFile::from_source(VOCAB_FILE, vocab),
                SourceFile::from_source(
                    "crates/obs/src/json.rs",
                    r#"fn t() { let s = Span::named("anything-goes"); }"#,
                ),
            ],
            readme: None,
        };
        let mut out = Vec::new();
        check(&ws, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn missing_vocabulary_is_itself_a_finding() {
        let ws = Workspace {
            files: vec![SourceFile::from_source(VOCAB_FILE, "pub struct Span;")],
            readme: None,
        };
        let mut out = Vec::new();
        check(&ws, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("STABLE_SPAN_NAMES"));
    }
}
