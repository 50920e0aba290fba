//! The lint set and its driver.
//!
//! Per-file lints ([`prom`], [`oracle`]) run over every
//! walked file in their scope; cross-file lints ([`spans`], [`errors`],
//! [`api`]) additionally read the workspace files that define the
//! invariant they enforce (the `vh-obs` span vocabulary, the `VhError`
//! facade, the VHRPC wire tables). The driver wires scopes
//! to [`FileClass`](crate::workspace::FileClass) and returns findings
//! sorted by path, line and lint id.

pub mod api;
pub mod errors;
pub mod hold_blocking;
pub mod hot_path;
pub mod lock_order;
pub mod oracle;
pub mod prom;
pub mod spans;

use crate::callgraph::CallGraph;
use crate::findings::{Finding, Lint};
use crate::locks::LockFacts;
use crate::model::Model;
use crate::scan::Tok;
use crate::workspace::{SourceFile, Workspace};

/// A view of a file's *code* tokens: comments dropped, original token
/// indices kept so lints can consult lines and test-region flags.
pub(crate) struct Code<'a> {
    file: &'a SourceFile,
    idx: Vec<usize>,
}

impl<'a> Code<'a> {
    pub(crate) fn of(file: &'a SourceFile) -> Code<'a> {
        let idx = file
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, Tok::Comment { .. }))
            .map(|(i, _)| i)
            .collect();
        Code { file, idx }
    }

    pub(crate) fn len(&self) -> usize {
        self.idx.len()
    }

    /// The scanned file this view reads from.
    pub(crate) fn source(&self) -> &'a SourceFile {
        self.file
    }

    /// The code token at code-position `i`.
    pub(crate) fn kind(&self, i: usize) -> Option<&Tok> {
        self.idx.get(i).map(|&raw| &self.file.tokens[raw].kind)
    }

    /// True when the code token at `i` is exactly the identifier `name`.
    pub(crate) fn is_ident(&self, i: usize, name: &str) -> bool {
        matches!(self.kind(i), Some(Tok::Ident(s)) if s == name)
    }

    /// True when the code token at `i` is the punctuation `c`.
    pub(crate) fn is_punct(&self, i: usize, c: char) -> bool {
        matches!(self.kind(i), Some(Tok::Punct(p)) if *p == c)
    }

    /// The string literal at code-position `i`, if any.
    pub(crate) fn str_at(&self, i: usize) -> Option<&str> {
        match self.kind(i) {
            Some(Tok::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Source line of the code token at `i` (0 when out of range, which
    /// callers never hit on a matched pattern).
    pub(crate) fn line(&self, i: usize) -> u32 {
        self.idx
            .get(i)
            .map(|&raw| self.file.tokens[raw].line)
            .unwrap_or(0)
    }

    /// Is the code token at `i` inside a `#[cfg(test)]` region?
    pub(crate) fn suppressed(&self, i: usize) -> bool {
        self.idx
            .get(i)
            .map(|&raw| self.file.suppressed[raw])
            .unwrap_or(false)
    }

    /// Code-position of the brace matching the `{` at code-position
    /// `open` (which must be a `{`), or the stream end if unbalanced.
    pub(crate) fn matching_brace(&self, open: usize) -> usize {
        let mut depth = 0usize;
        let mut i = open;
        while i < self.len() {
            if self.is_punct(i, '{') {
                depth += 1;
            } else if self.is_punct(i, '}') {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            i += 1;
        }
        self.len()
    }
}

/// Code-token range of the body of the first `fn name` inside
/// `[from, to)`.
pub(crate) fn fn_body_in(
    code: &Code<'_>,
    from: usize,
    to: usize,
    name: &str,
) -> Option<(usize, usize)> {
    for i in from..to {
        if code.is_ident(i, "fn") && code.is_ident(i + 1, name) {
            let mut j = i + 2;
            while j < to && !code.is_punct(j, '{') {
                j += 1;
            }
            if j < to {
                return Some((j + 1, code.matching_brace(j)));
            }
        }
    }
    None
}

/// Runs every lint over the loaded workspace.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in &ws.files {
        allow_comments(file, &mut out);
        prom::check(file, &mut out);
        oracle::check(file, &mut out);
    }
    spans::check(ws, &mut out);
    errors::check(ws, &mut out);
    api::check(ws, &mut out);
    // The semantic families share one model, call graph and lock walk.
    let model = Model::build(ws);
    let graph = CallGraph::build(&model);
    let facts = LockFacts::build(&model, &graph);
    lock_order::check(&model, &facts, &mut out);
    hold_blocking::check(&model, &facts, &mut out);
    hot_path::check(&model, &graph, &mut out);
    // Last: every earlier lint has consulted the allows it needed, so
    // what is left unused is stale.
    stale_allows(ws, &mut out);
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.lint).cmp(&(b.file.as_str(), b.line, b.lint)));
    out
}

/// The `vet-allow` lint: every allow-comment must name a known lint and
/// give a reason — a malformed allow suppresses nothing, so surfacing it
/// loudly is what keeps the escape hatch honest.
fn allow_comments(file: &SourceFile, out: &mut Vec<Finding>) {
    for a in &file.allows {
        if a.lint.is_none() {
            out.push(Finding {
                file: file.rel.clone(),
                line: a.line,
                lint: Lint::VetAllow,
                message: format!(
                    "unknown lint `{}` in vet: allow comment (see `vh-vet --list`)",
                    a.id_text
                ),
            });
        } else if !a.has_reason {
            out.push(Finding {
                file: file.rel.clone(),
                line: a.line,
                lint: Lint::VetAllow,
                message: "vet: allow comment needs a reason after a dash \
                          (`// vet: allow(<lint>) — <reason>`)"
                    .to_string(),
            });
        }
    }
}

/// The `stale-allow` lint: a well-formed allow-comment that gated no
/// finding this run suppresses nothing — the violation it excused was
/// fixed or moved, and the stale comment would silently excuse the
/// *next* violation on that line. Warning level, but still exit 1.
fn stale_allows(ws: &Workspace, out: &mut Vec<Finding>) {
    for file in &ws.files {
        for a in &file.allows {
            if a.is_valid() && !a.used.get() {
                out.push(Finding {
                    file: file.rel.clone(),
                    line: a.line,
                    lint: Lint::StaleAllow,
                    message: format!(
                        "stale `vet: allow({})`: no `{}` finding fires here any more — delete the comment",
                        a.id_text, a.id_text
                    ),
                });
            }
        }
    }
}
