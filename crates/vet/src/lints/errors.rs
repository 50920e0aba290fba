//! `error-exit`: the `VhError` exit codes and the README stay in sync.
//!
//! Every distinct exit code returned by `VhError::exit_code()` must have
//! a row in the README's exit-code table (DESIGN.md §7); each missing row
//! is a finding, anchored to `src/error.rs`. That every variant has an
//! arm in `code()` and `exit_code()` is rustc's exhaustiveness check:
//! those matches carry no wildcard, and clippy's
//! `wildcard_enum_match_arm` is denied on them.

use crate::findings::{Finding, Lint};
use crate::lints::Code;
use crate::scan::Tok;
use crate::workspace::Workspace;

/// The error facade's home.
const FACADE: &str = "src/error.rs";

/// Runs the lint over the workspace.
pub fn check(ws: &Workspace, out: &mut Vec<Finding>) {
    let Some(file) = ws.file(FACADE) else {
        return; // no facade in this tree — nothing to enforce
    };
    let code = Code::of(file);
    let Some((body_start, body_end)) = super::fn_body_in(&code, 0, code.len(), "exit_code") else {
        file.report(
            out,
            Lint::ErrorExit,
            1,
            format!("`VhError::exit_code()` not found in {FACADE}"),
        );
        return;
    };
    let Some(readme) = &ws.readme else { return };
    let rows = readme_exit_rows(readme);
    let mut seen = Vec::new();
    for i in body_start..body_end {
        if !(code.is_punct(i, '=') && code.is_punct(i + 1, '>')) {
            continue;
        }
        let Some(Tok::Num(n)) = code.kind(i + 2) else {
            continue;
        };
        if seen.contains(n) {
            continue;
        }
        seen.push(n.clone());
        if !rows.contains(n) {
            file.report(
                out,
                Lint::ErrorExit,
                code.line(i + 2),
                format!("exit code {n} has no row in the README.md exit-code table"),
            );
        }
    }
}

/// First-cell values of markdown table rows: `| 7 | storage | …` → "7".
fn readme_exit_rows(readme: &str) -> Vec<String> {
    readme
        .lines()
        .filter_map(|l| {
            let l = l.trim();
            let cell = l.strip_prefix('|')?.split('|').next()?.trim();
            cell.parse::<u32>().ok().map(|_| cell.to_string())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::SourceFile;

    const GOOD: &str = "
pub enum VhError {
    Usage(String),
    Io { path: String },
    Query(QueryError),
}
impl VhError {
    pub fn code(&self) -> &'static str {
        match self {
            VhError::Usage(_) => \"CLI_USAGE\",
            VhError::Io { .. } => \"CLI_IO\",
            VhError::Query(e) => e.code(),
        }
    }
    pub fn exit_code(&self) -> u8 {
        match self {
            VhError::Usage(_) => 2,
            VhError::Io { .. } => 3,
            VhError::Query(_) => 6,
        }
    }
}
";

    fn run(src: &str, readme: &str) -> Vec<Finding> {
        let ws = Workspace {
            files: vec![SourceFile::from_source(FACADE, src)],
            readme: Some(readme.to_string()),
        };
        let mut out = Vec::new();
        check(&ws, &mut out);
        out
    }

    const README: &str = "| exit | class |\n|---:|---|\n| 2 | usage |\n| 3 | io |\n| 6 | query |\n";

    #[test]
    fn a_synchronised_facade_is_clean() {
        assert_eq!(run(GOOD, README), Vec::new());
    }

    #[test]
    fn a_missing_exit_row_fires() {
        let got = run(GOOD, "| 2 | usage |\n| 3 | io |\n");
        assert_eq!(got.len(), 1);
        assert!(got[0].message.contains("exit code 6 has no row"));
    }
}
