//! Findings: what a lint reports, and the text/JSON renderings.

use std::fmt::{self, Write as _};

/// The lints `vh-vet` knows, in reporting order.
///
/// Each lint's id is the name accepted by the
/// `// vet: allow(<id>) — <reason>` escape hatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// A span name used in `vh-query` that is missing from `vh-obs`'s
    /// stable span vocabulary.
    SpanVocab,
    /// A `VhError` variant missing from `code()`/`exit_code()`, or an
    /// exit code missing its README table row.
    ErrorExit,
    /// A VHRPC wire-table drift: a `Verb`/`WireStatus` variant without
    /// `code()`/`wire_name()` arms or a README row, a `wire` pub type
    /// not re-exported from the serve crate root, or a `vh_query`
    /// import outside the frozen v1 API.
    ApiSurface,
    /// A Prometheus metric name that is not namespaced snake_case, or a
    /// sample emitted before its family's `# HELP`/`# TYPE` opener.
    PromName,
    /// A `*_swar`/`*_branchless` kernel, or a function opted in with an
    /// `// oracle:` comment, without a named twin defined in the same
    /// file.
    OracleTwin,
    /// Two lock classes acquired in opposite orders somewhere across
    /// the workspace call graph: a potential deadlock.
    LockOrder,
    /// A lock guard live across a blocking operation (socket I/O, WAL
    /// append, `Engine::run`/`apply`) without a documented allow.
    HoldAcrossBlocking,
    /// A `// vet: hot` function whose call-graph closure heap-allocates
    /// or can panic through indexing.
    HotPath,
    /// A malformed or unknown `// vet: allow(…)` comment.
    VetAllow,
    /// A well-formed allow-comment that no longer suppresses anything
    /// (warning level — the escape hatch must not rot).
    StaleAllow,
}

/// Every lint, in reporting order.
pub const ALL_LINTS: &[Lint] = &[
    Lint::SpanVocab,
    Lint::ErrorExit,
    Lint::ApiSurface,
    Lint::PromName,
    Lint::OracleTwin,
    Lint::LockOrder,
    Lint::HoldAcrossBlocking,
    Lint::HotPath,
    Lint::VetAllow,
    Lint::StaleAllow,
];

impl Lint {
    /// The lint's stable kebab-case id (used in findings, JSON and
    /// allow-comments).
    pub fn id(self) -> &'static str {
        match self {
            Lint::SpanVocab => "span-vocab",
            Lint::ErrorExit => "error-exit",
            Lint::ApiSurface => "api-surface",
            Lint::PromName => "prom-name",
            Lint::OracleTwin => "oracle-twin",
            Lint::LockOrder => "lock-order",
            Lint::HoldAcrossBlocking => "hold-across-blocking",
            Lint::HotPath => "hot-path",
            Lint::VetAllow => "vet-allow",
            Lint::StaleAllow => "stale-allow",
        }
    }

    /// SARIF severity level. Everything vh-vet enforces is an error
    /// except `stale-allow`, which reports rot rather than a violation.
    pub fn level(self) -> &'static str {
        match self {
            Lint::StaleAllow => "warning",
            _ => "error",
        }
    }

    /// One-line description, shown by `vh-vet --list`.
    pub fn describe(self) -> &'static str {
        match self {
            Lint::SpanVocab => {
                "every span name used in vh-query or vh-core appears in vh-obs's STABLE_SPAN_NAMES"
            }
            Lint::ErrorExit => {
                "every VhError variant has code()/exit_code() arms and a README exit-table row"
            }
            Lint::ApiSurface => {
                "VHRPC wire tables are total, README-documented, re-exported, and vh-serve imports only the frozen v1 vh_query API"
            }
            Lint::PromName => {
                "Prometheus metric names are vpbn_/vh_-prefixed snake_case with families opened before samples"
            }
            Lint::OracleTwin => {
                "every *_swar/*_branchless kernel, and every fn carrying an // oracle: comment, names a twin defined in the same file"
            }
            Lint::LockOrder => {
                "no two lock classes are acquired in opposite orders anywhere in the call graph"
            }
            Lint::HoldAcrossBlocking => {
                "no lock guard is held across socket I/O, WAL appends, or Engine::run/apply"
            }
            Lint::HotPath => {
                "the call-graph closure of every // vet: hot fn is free of heap allocation and panicking indexing"
            }
            Lint::VetAllow => "vet: allow comments name a known lint and give a reason",
            Lint::StaleAllow => {
                "every vet: allow comment still suppresses a finding (stale allows must be deleted)"
            }
        }
    }

    /// Parses a lint id as written in an allow-comment.
    pub fn from_id(id: &str) -> Option<Lint> {
        ALL_LINTS.iter().copied().find(|l| l.id() == id)
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One rule violation at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Which lint fired.
    pub lint: Lint,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// The one-line text rendering: `file:line: [lint] message`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// Renders findings as the JSON document the CI job uploads:
/// `{"tool":"vh-vet","count":N,"findings":[{file,line,lint,message}…]}`.
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\"tool\":\"vh-vet\",\"count\":");
    out.push_str(&findings.len().to_string());
    out.push_str(",\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"file\":\"");
        escape_into(&mut out, &f.file);
        out.push_str("\",\"line\":");
        out.push_str(&f.line.to_string());
        out.push_str(",\"lint\":\"");
        escape_into(&mut out, f.lint.id());
        out.push_str("\",\"message\":\"");
        escape_into(&mut out, &f.message);
        out.push_str("\"}");
    }
    out.push_str("]}");
    out
}

/// Minimal JSON string escaping (quotes, backslash, control chars),
/// shared by the JSON and SARIF reports.
pub(crate) fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                // Writing into a `String` cannot fail.
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip() {
        for l in ALL_LINTS {
            assert_eq!(Lint::from_id(l.id()), Some(*l));
        }
        assert_eq!(Lint::from_id("nope"), None);
    }

    #[test]
    fn text_rendering_is_grep_friendly() {
        let f = Finding {
            file: "crates/x/src/lib.rs".into(),
            line: 7,
            lint: Lint::HotPath,
            message: "heap allocation on the hot path of f".into(),
        };
        assert_eq!(
            f.render(),
            "crates/x/src/lib.rs:7: [hot-path] heap allocation on the hot path of f"
        );
    }

    #[test]
    fn json_escapes_specials() {
        let f = Finding {
            file: "a\"b.rs".into(),
            line: 1,
            lint: Lint::VetAllow,
            message: "tab\there\nnewline".into(),
        };
        let j = to_json(&[f]);
        assert!(j.contains("a\\\"b.rs"));
        assert!(j.contains("tab\\there\\nnewline"));
        assert!(j.starts_with("{\"tool\":\"vh-vet\",\"count\":1,"));
        let empty = to_json(&[]);
        assert_eq!(empty, "{\"tool\":\"vh-vet\",\"count\":0,\"findings\":[]}");
    }
}
