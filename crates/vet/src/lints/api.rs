//! `api-surface`: the VHRPC wire tables and the crate surface stay in
//! sync.
//!
//! The serve crate freezes three tables whose drift the compiler cannot
//! see (DESIGN.md §15): the verb and status enums in
//! `crates/serve/src/wire.rs`, their README documentation, and the
//! blessed v1 query API. That every `Verb`/`WireStatus` variant has an
//! arm in its `code()` and `wire_name()` is rustc's exhaustiveness check:
//! those matches carry no wildcard, and clippy's `wildcard_enum_match_arm`
//! is denied on them. Three legs, each a separate finding:
//!
//! 1. **README sync** — every string `wire_name()` returns has a row in
//!    a README table (first cell, backticks stripped).
//! 2. **Crate surface** — every `pub struct`/`pub enum` the wire module
//!    defines is re-exported from the serve crate root, so embedders
//!    never reach into `wire::` internals.
//! 3. **Frozen v1 API** — `vh-serve` library code imports only
//!    `vh_query` items that `crates/query/src/api.rs` re-exports: the
//!    server is a client of the frozen surface, not of engine
//!    internals.

use crate::findings::{Finding, Lint};
use crate::lints::Code;
use crate::scan::Tok;
use crate::workspace::{FileClass, Workspace};

/// The wire tables' home.
const WIRE: &str = "crates/serve/src/wire.rs";
/// The serve crate root whose re-exports mirror the wire surface.
const SERVE_LIB: &str = "crates/serve/src/lib.rs";
/// The blessed v1 query API.
const API: &str = "crates/query/src/api.rs";
/// The audited table enums.
const TABLE_ENUMS: &[&str] = &["Verb", "WireStatus"];

/// Runs the lint over the workspace.
pub fn check(ws: &Workspace, out: &mut Vec<Finding>) {
    let Some(wire) = ws.file(WIRE) else {
        return; // no serve crate in this tree — nothing to enforce
    };
    let code = Code::of(wire);

    for enum_name in TABLE_ENUMS {
        check_table_enum(ws, &code, enum_name, out);
    }
    check_crate_surface(ws, &code, out);
    check_frozen_api(ws, out);
}

/// Leg 1 for one table enum: every wire name is documented.
fn check_table_enum(ws: &Workspace, code: &Code<'_>, enum_name: &str, out: &mut Vec<Finding>) {
    let Some(wire) = ws.file(WIRE) else { return };
    let body = impl_block(code, enum_name)
        .and_then(|(start, end)| super::fn_body_in(code, start, end, "wire_name"));
    let Some((body_start, body_end)) = body else {
        wire.report(
            out,
            Lint::ApiSurface,
            1,
            format!("`{enum_name}::wire_name()` not found in {WIRE}"),
        );
        return;
    };
    let Some(readme) = &ws.readme else { return };
    let rows = readme_name_rows(readme);
    for i in body_start..body_end {
        let Some(Tok::Str(name)) = code.kind(i) else {
            continue;
        };
        if !rows.iter().any(|r| r == name) {
            wire.report(
                out,
                Lint::ApiSurface,
                code.line(i),
                format!("wire name `{name}` has no row in a README.md table"),
            );
        }
    }
}

/// Leg 2: the serve crate root re-exports every wire pub type.
fn check_crate_surface(ws: &Workspace, code: &Code<'_>, out: &mut Vec<Finding>) {
    let (Some(wire), Some(lib)) = (ws.file(WIRE), ws.file(SERVE_LIB)) else {
        return;
    };
    let lib_code = Code::of(lib);
    let mut exported = Vec::new();
    for i in 0..lib_code.len() {
        if let Some(Tok::Ident(name)) = lib_code.kind(i) {
            exported.push(name.clone());
        }
    }
    for i in 0..code.len() {
        if !code.is_ident(i, "pub") {
            continue;
        }
        let is_type = code.is_ident(i + 1, "struct") || code.is_ident(i + 1, "enum");
        if !is_type {
            continue;
        }
        let Some(Tok::Ident(name)) = code.kind(i + 2) else {
            continue;
        };
        if !exported.iter().any(|e| e == name) {
            wire.report(
                out,
                Lint::ApiSurface,
                code.line(i + 2),
                format!("wire pub type `{name}` is not re-exported from {SERVE_LIB}"),
            );
        }
    }
}

/// Leg 3: serve lib code imports only blessed `vh_query` items.
fn check_frozen_api(ws: &Workspace, out: &mut Vec<Finding>) {
    let Some(api) = ws.file(API) else { return };
    let api_code = Code::of(api);
    let mut blessed = Vec::new();
    for i in 0..api_code.len() {
        if let Some(Tok::Ident(name)) = api_code.kind(i) {
            blessed.push(name.clone());
        }
    }
    for file in &ws.files {
        if file.class != FileClass::Lib || !file.rel.starts_with("crates/serve/src/") {
            continue;
        }
        let code = Code::of(file);
        for i in 0..code.len() {
            if !(code.is_ident(i, "use") && code.is_ident(i + 1, "vh_query")) {
                continue;
            }
            let mut j = i + 2;
            while j < code.len() && !code.is_punct(j, ';') {
                // A type name is terminal in the use-tree when the next
                // token is not `::` (path continues) — `,`, `}`, `;` and
                // `as` all end the segment.
                if let Some(Tok::Ident(name)) = code.kind(j) {
                    let terminal = !code.is_punct(j + 1, ':');
                    let is_type = name.chars().next().is_some_and(char::is_uppercase);
                    if terminal && is_type && !blessed.iter().any(|b| b == name) {
                        file.report(
                            out,
                            Lint::ApiSurface,
                            code.line(j),
                            format!(
                                "`vh_query::{name}` is not re-exported by {API} — \
                                 vh-serve must stay on the frozen v1 surface"
                            ),
                        );
                    }
                }
                j += 1;
            }
        }
    }
}

/// Code-token range inside `impl <name> { … }` (the inherent impl, not
/// trait impls, which carry a `for` token).
fn impl_block(code: &Code<'_>, name: &str) -> Option<(usize, usize)> {
    for i in 0..code.len() {
        if code.is_ident(i, "impl") && code.is_ident(i + 1, name) && code.is_punct(i + 2, '{') {
            return Some((i + 3, code.matching_brace(i + 2)));
        }
    }
    None
}

/// First-cell values of markdown table rows, backticks stripped:
/// ``| `point` | 1 | …`` → `point`.
fn readme_name_rows(readme: &str) -> Vec<String> {
    readme
        .lines()
        .filter_map(|l| {
            let cell = l.trim().strip_prefix('|')?.split('|').next()?.trim();
            let name = cell.trim_matches('`').trim();
            (!name.is_empty()).then(|| name.to_string())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::SourceFile;

    const GOOD_WIRE: &str = r#"
pub enum Verb { Point, Twig }
impl Verb {
    pub fn code(self) -> u8 {
        match self { Verb::Point => 1, Verb::Twig => 2 }
    }
    pub fn wire_name(self) -> &'static str {
        match self { Verb::Point => "point", Verb::Twig => "twig" }
    }
}
pub enum WireStatus { Ok }
impl WireStatus {
    pub fn code(self) -> u8 { match self { WireStatus::Ok => 0 } }
    pub fn wire_name(self) -> &'static str {
        match self { WireStatus::Ok => "ok" }
    }
}
pub struct Address { pub tenant: String }
"#;

    const GOOD_LIB: &str = "pub use wire::{Address, Verb, WireStatus};";
    const GOOD_README: &str = "| `point` | 1 |\n| `twig` | 2 |\n| `ok` | 0 |\n";

    fn run(wire: &str, lib: &str, readme: &str) -> Vec<Finding> {
        let ws = Workspace {
            files: vec![
                SourceFile::from_source(WIRE, wire),
                SourceFile::from_source(SERVE_LIB, lib),
            ],
            readme: Some(readme.to_string()),
        };
        let mut out = Vec::new();
        check(&ws, &mut out);
        out
    }

    #[test]
    fn a_synchronized_surface_is_clean() {
        assert_eq!(run(GOOD_WIRE, GOOD_LIB, GOOD_README), vec![]);
    }

    #[test]
    fn a_missing_wire_name_table_is_reported() {
        let wire = GOOD_WIRE.replacen("fn wire_name", "fn name", 1);
        let findings = run(&wire, GOOD_LIB, GOOD_README);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0]
            .message
            .contains("`Verb::wire_name()` not found"));
    }

    #[test]
    fn an_undocumented_wire_name_is_reported() {
        let readme = "| `point` | 1 |\n| `ok` | 0 |\n"; // no `twig` row
        let findings = run(GOOD_WIRE, GOOD_LIB, readme);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("wire name `twig`"));
    }

    #[test]
    fn a_missing_reexport_is_reported() {
        let findings = run(GOOD_WIRE, "pub use wire::{Verb, WireStatus};", GOOD_README);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("`Address` is not re-exported"));
    }

    #[test]
    fn an_unblessed_vh_query_import_is_reported() {
        let ws = Workspace {
            files: vec![
                SourceFile::from_source(WIRE, GOOD_WIRE),
                SourceFile::from_source(SERVE_LIB, GOOD_LIB),
                SourceFile::from_source(API, "pub use crate::engine::{Engine};"),
                SourceFile::from_source(
                    "crates/serve/src/server.rs",
                    "use vh_query::{Engine, SecretPlanner};",
                ),
            ],
            readme: Some(GOOD_README.to_string()),
        };
        let mut out = Vec::new();
        check(&ws, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`vh_query::SecretPlanner`"));
        assert!(out[0].file.ends_with("server.rs"));
    }
}
