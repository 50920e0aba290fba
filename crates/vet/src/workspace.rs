//! Workspace walking, file classification and the allow-comment contract.

use crate::findings::{Finding, Lint};
use crate::scan::{scan, test_regions, Tok, Token};
use std::cell::Cell;
use std::fmt;
use std::path::{Path, PathBuf};

/// What kind of target a `.rs` file belongs to. Lints pick their scope
/// from this: e.g. `oracle-twin` applies only to [`FileClass::Lib`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileClass {
    /// Library source of a workspace crate (`crates/*/src/**`, `src/**`).
    Lib,
    /// Every other target of this repo: binaries (`src/main.rs`,
    /// `src/bin/**`), integration tests (`tests/**`), examples and the
    /// benchmark harness (`crates/bench/**`, `benches/**`).
    Other,
    /// Vendored offline stand-ins (`vendor/**`) — not this repo's code.
    Vendor,
}

/// A parsed `// vet: allow(<lint>) — <reason>` comment.
#[derive(Clone, Debug)]
pub struct Allow {
    /// Line the comment sits on.
    pub line: u32,
    /// The named lint, if the id was recognised.
    pub lint: Option<Lint>,
    /// The id exactly as written (for diagnostics).
    pub id_text: String,
    /// Whether a non-empty reason follows the dash.
    pub has_reason: bool,
    /// Set when the allow actually gated a finding this run; a valid
    /// allow that stays unused is reported as `stale-allow`.
    pub used: Cell<bool>,
}

impl Allow {
    /// A well-formed allow suppresses findings of its lint on the same
    /// line or the line directly below the comment.
    pub fn is_valid(&self) -> bool {
        self.lint.is_some() && self.has_reason
    }
}

/// One scanned source file with everything the lints need.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Token stream (comments included).
    pub tokens: Vec<Token>,
    /// Per-token flag: inside a `#[cfg(test)]` region.
    pub suppressed: Vec<bool>,
    /// Parsed allow-comments, in line order.
    pub allows: Vec<Allow>,
    /// Lines carrying a `// vet: hot` marker (hot-path purity roots).
    pub hots: Vec<u32>,
    /// Scope class.
    pub class: FileClass,
}

impl SourceFile {
    /// Scans `src` into a lintable file.
    pub fn from_source(rel: &str, src: &str) -> SourceFile {
        let tokens = scan(src);
        let suppressed = test_regions(&tokens);
        let allows = parse_allows(&tokens);
        let hots = parse_hots(&tokens);
        SourceFile {
            rel: rel.to_string(),
            tokens,
            suppressed,
            allows,
            hots,
            class: classify(rel),
        }
    }

    /// Is a finding of `lint` at `line` suppressed by a valid
    /// allow-comment on the same line or the line directly above?
    /// Every allow consulted here is marked used, which is what keeps
    /// it off the `stale-allow` report.
    pub fn allowed(&self, lint: Lint, line: u32) -> bool {
        let mut hit = false;
        for a in &self.allows {
            if a.is_valid() && a.lint == Some(lint) && (a.line == line || a.line + 1 == line) {
                a.used.set(true);
                hit = true;
            }
        }
        hit
    }

    /// True when every token sits in a suppressed (test-only) region.
    pub fn fully_suppressed(&self) -> bool {
        self.suppressed.iter().all(|&s| s)
    }

    /// Emits `finding` unless an allow-comment covers it.
    pub fn report(&self, out: &mut Vec<Finding>, lint: Lint, line: u32, message: String) {
        if !self.allowed(lint, line) {
            out.push(Finding {
                file: self.rel.clone(),
                line,
                lint,
                message,
            });
        }
    }
}

/// Classifies a workspace-relative path into a lint scope.
pub fn classify(rel: &str) -> FileClass {
    if rel.starts_with("vendor/") {
        return FileClass::Vendor;
    }
    let other = rel.starts_with("crates/bench/")
        || rel.contains("/benches/")
        || rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.starts_with("examples/")
        || rel.contains("/examples/")
        || rel.starts_with("src/bin/")
        || rel.contains("/src/bin/")
        || rel.ends_with("/main.rs")
        || rel == "build.rs";
    if other {
        FileClass::Other
    } else {
        FileClass::Lib
    }
}

/// Parses every `vet: allow(...)` comment in the stream. Comments that
/// merely mention the phrase elsewhere (docs about the contract) are
/// only treated as allows when the comment *starts* with `vet:`.
fn parse_allows(tokens: &[Token]) -> Vec<Allow> {
    let mut out = Vec::new();
    for t in tokens {
        let Tok::Comment { text, .. } = &t.kind else {
            continue;
        };
        let Some(rest) = text.strip_prefix("vet:") else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix("allow") else {
            continue;
        };
        let rest = rest.trim_start();
        let (id_text, tail) = match rest.strip_prefix('(').and_then(|r| r.split_once(')')) {
            Some((id, tail)) => (id.trim().to_string(), tail),
            None => (String::new(), rest),
        };
        // The reason is whatever follows a dash separator (`—`, `--`, `-`).
        let tail = tail.trim_start();
        let reason = ["—", "--", "-"]
            .iter()
            .find_map(|d| tail.strip_prefix(d))
            .map(str::trim)
            .unwrap_or("");
        out.push(Allow {
            line: t.line,
            lint: Lint::from_id(&id_text),
            id_text,
            has_reason: !reason.is_empty(),
            used: Cell::new(false),
        });
    }
    out
}

/// Lines of `// vet: hot` marker comments. The marker names a hot-path
/// purity root: the next `fn` within a few lines gets the contract.
fn parse_hots(tokens: &[Token]) -> Vec<u32> {
    let mut out = Vec::new();
    for t in tokens {
        let Tok::Comment { text, .. } = &t.kind else {
            continue;
        };
        let Some(rest) = text.strip_prefix("vet:") else {
            continue;
        };
        let rest = rest.trim_start();
        let is_marker = match rest.strip_prefix("hot") {
            Some(tail) => !tail.starts_with(|c: char| c.is_alphanumeric() || c == '-'),
            None => false,
        };
        if is_marker {
            out.push(t.line);
        }
    }
    out
}

/// An unrecoverable `vh-vet` failure (I/O only — lints never fail).
#[derive(Debug)]
pub enum VetError {
    /// A file or directory could not be read.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl fmt::Display for VetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VetError::Io { path, source } => {
                write!(f, "cannot read {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for VetError {}

/// Directory names never descended into: build artifacts, VCS metadata,
/// and the vet fixture corpus (a deliberately-bad mini-workspace).
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures"];

/// The loaded workspace: every `.rs` file plus the README text.
pub struct Workspace {
    /// Scanned files, sorted by path.
    pub files: Vec<SourceFile>,
    /// `README.md` contents, when present.
    pub readme: Option<String>,
}

impl Workspace {
    /// Walks `root` and scans every `.rs` file outside the skip list
    /// (`target/`, `.git/`, dot-directories and fixture corpora).
    pub fn load(root: &Path) -> Result<Workspace, VetError> {
        let mut paths = Vec::new();
        collect_rs_files(root, root, &mut paths)?;
        paths.sort();
        let mut files = Vec::with_capacity(paths.len());
        for rel in paths {
            let abs = root.join(&rel);
            let src = std::fs::read_to_string(&abs).map_err(|source| VetError::Io {
                path: abs.clone(),
                source,
            })?;
            let rel_str = rel.to_string_lossy().replace('\\', "/");
            files.push(SourceFile::from_source(&rel_str, &src));
        }
        suppress_test_mod_files(&mut files);
        let readme = std::fs::read_to_string(root.join("README.md")).ok();
        Ok(Workspace { files, readme })
    }

    /// The file at a workspace-relative path, if it was walked.
    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }
}

/// The directory a file's `mod x;` declarations resolve against.
fn module_dir(rel: &str) -> String {
    let (dir, name) = match rel.rsplit_once('/') {
        Some((d, n)) => (d, n),
        None => ("", rel),
    };
    let stem = name.strip_suffix(".rs").unwrap_or(name);
    if matches!(stem, "lib" | "main" | "mod") {
        dir.to_string()
    } else if dir.is_empty() {
        stem.to_string()
    } else {
        format!("{dir}/{stem}")
    }
}

/// `#[cfg(test)] mod helpers;` gates a whole *separate* file behind the
/// test cfg. `test_regions` suppresses the declaration's own tokens,
/// but the declared file was scanned independently — mark it (and any
/// `mod` files it declares in turn) fully suppressed, so test-only code
/// never leaks into lint input. Iterates to a fixpoint for nested
/// test-module trees.
fn suppress_test_mod_files(files: &mut [SourceFile]) {
    loop {
        let mut targets: Vec<String> = Vec::new();
        for f in files.iter() {
            let all_test = !f.tokens.is_empty() && f.fully_suppressed();
            let dir = module_dir(&f.rel);
            let code: Vec<usize> = f
                .tokens
                .iter()
                .enumerate()
                .filter(|(_, t)| !matches!(t.kind, Tok::Comment { .. }))
                .map(|(i, _)| i)
                .collect();
            for w in 0..code.len().saturating_sub(2) {
                let (i, j, k) = (code[w], code[w + 1], code[w + 2]);
                if !matches!(&f.tokens[i].kind, Tok::Ident(s) if s == "mod") {
                    continue;
                }
                if !(all_test || f.suppressed[i]) {
                    continue;
                }
                let Tok::Ident(name) = &f.tokens[j].kind else {
                    continue;
                };
                if f.tokens[k].kind != Tok::Punct(';') {
                    continue;
                }
                if dir.is_empty() {
                    targets.push(format!("{name}.rs"));
                    targets.push(format!("{name}/mod.rs"));
                } else {
                    targets.push(format!("{dir}/{name}.rs"));
                    targets.push(format!("{dir}/{name}/mod.rs"));
                }
            }
        }
        let mut changed = false;
        for f in files.iter_mut() {
            if targets.contains(&f.rel) && !f.fully_suppressed() {
                for s in &mut f.suppressed {
                    *s = true;
                }
                changed = true;
            }
        }
        if !changed {
            return;
        }
    }
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), VetError> {
    let entries = std::fs::read_dir(dir).map_err(|source| VetError::Io {
        path: dir.to_path_buf(),
        source,
    })?;
    for entry in entries {
        let entry = entry.map_err(|source| VetError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_the_layout() {
        for lib in ["crates/core/src/exec.rs", "src/lib.rs", "src/error.rs"] {
            assert_eq!(classify(lib), FileClass::Lib, "{lib}");
        }
        for other in [
            "src/bin/vpbn.rs",
            "src/main.rs",
            "crates/bench/src/lib.rs",
            "crates/bench/benches/sjoin.rs",
            "tests/oracle.rs",
            "crates/vet/tests/corpus.rs",
            "examples/quickstart.rs",
        ] {
            assert_eq!(classify(other), FileClass::Other, "{other}");
        }
        assert_eq!(classify("vendor/rayon/src/lib.rs"), FileClass::Vendor);
    }

    #[test]
    fn allow_comments_parse_and_gate_findings() {
        let src = "\
// vet: allow(hot-path) — bounded by the loop condition
x[i];
y[i]; // vet: allow(hot-path) - same line form
// vet: allow(hot-path)
z[i];
// vet: allow(not-a-lint) — reason
w[i];
";
        let f = SourceFile::from_source("crates/x/src/lib.rs", src);
        assert_eq!(f.allows.len(), 4);
        assert!(f.allowed(Lint::HotPath, 2), "preceding-line allow");
        assert!(f.allowed(Lint::HotPath, 3), "same-line allow");
        assert!(!f.allowed(Lint::HotPath, 5), "missing reason does not gate");
        assert!(!f.allowed(Lint::HotPath, 7), "unknown lint does not gate");
        assert!(!f.allowed(Lint::OracleTwin, 2), "other lints unaffected");
    }

    #[test]
    fn cfg_test_mod_declarations_suppress_the_declared_file() {
        let mut files = vec![
            SourceFile::from_source(
                "crates/x/src/lib.rs",
                "#[cfg(test)]\nmod helpers;\nmod real;\npub fn live() {}",
            ),
            SourceFile::from_source(
                "crates/x/src/helpers.rs",
                "pub fn gone(x: Option<u32>) -> u32 { x.unwrap() }",
            ),
            SourceFile::from_source("crates/x/src/real.rs", "pub fn stays() {}"),
        ];
        suppress_test_mod_files(&mut files);
        assert!(
            files[1].fully_suppressed(),
            "the cfg(test)-gated mod's file is test code"
        );
        assert!(
            !files[2].fully_suppressed(),
            "an ungated sibling mod stays live"
        );
        assert!(!files[0].fully_suppressed());
    }

    #[test]
    fn test_mod_suppression_reaches_nested_declarations() {
        // helpers is test-gated; whatever helpers declares in turn —
        // including a `name/mod.rs` directory module — is test code too.
        let mut files = vec![
            SourceFile::from_source("crates/x/src/lib.rs", "#[cfg(test)]\nmod helpers;"),
            SourceFile::from_source("crates/x/src/helpers.rs", "pub mod deeper;"),
            SourceFile::from_source("crates/x/src/helpers/deeper/mod.rs", "pub fn gone() {}"),
        ];
        suppress_test_mod_files(&mut files);
        assert!(files[1].fully_suppressed(), "first hop");
        assert!(
            files[2].fully_suppressed(),
            "fixpoint reaches the second hop"
        );
    }

    #[test]
    fn plain_mod_declarations_do_not_suppress_anything() {
        let mut files = vec![
            SourceFile::from_source("crates/x/src/lib.rs", "mod real;\nmod other;"),
            SourceFile::from_source("crates/x/src/real.rs", "pub fn stays() {}"),
            SourceFile::from_source("crates/x/src/other.rs", "pub fn also() {}"),
        ];
        suppress_test_mod_files(&mut files);
        assert!(files.iter().all(|f| !f.fully_suppressed()));
    }
}
