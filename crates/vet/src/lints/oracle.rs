//! `oracle-twin`: every branch-free kernel keeps its scalar oracle.
//!
//! A function whose name ends in `_swar` or `_branchless` is an optimized
//! rewrite of a simpler byte-loop — and the only thing standing between
//! "clever" and "wrong" is the property test comparing the two. This lint
//! makes that pairing structural: each such kernel in lib code must carry
//! an `// oracle: <name>` comment (doc or plain) within a few lines above
//! its signature, and the named twin must be **defined in the same file**
//! (`#[cfg(test)]` twins count — the oracle only needs to exist for the
//! property suite). Deleting or renaming the scalar twin without updating
//! the kernel fails the build, so SWAR code can never silently outlive
//! its ground truth.
//!
//! The same contract covers cache delta maintenance: a function named
//! `maintain` **with a body** (the core crate's `TypeIndex::maintain`)
//! splices edits into a cached artifact, and the only proof a splice
//! equals a rebuild is the recompute-oracle property test. Each such
//! function must carry the `// oracle: <name>` comment and its named
//! twin in the same file. Bodyless trait *declarations*
//! (`fn maintain(...);`) declare the contract rather than implement it
//! and are exempt.
//!
//! Test regions are exempt (a helper named `*_swar` inside `mod tests` is
//! not a kernel), as are bench/bin/example/vendor files — ablation
//! drivers compare kernels without defining them.

use crate::findings::{Finding, Lint};
use crate::scan::Tok;
use crate::workspace::{FileClass, SourceFile};

/// How many lines above the kernel's name an `oracle:` comment may sit
/// (room for the rest of the doc comment and attributes in between).
const ORACLE_WINDOW: u32 = 5;

/// Suffixes that mark a function as an optimized kernel needing a twin.
const KERNEL_SUFFIXES: &[&str] = &["_swar", "_branchless"];

/// Exact names that mark a function as a cache-maintenance impl needing
/// a recompute twin (when defined with a body).
const MAINTAIN_NAMES: &[&str] = &["maintain"];

/// Runs the lint over one file.
pub fn check(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.class != FileClass::Lib {
        return;
    }
    // Every `oracle:` comment, with the identifier it names (if any).
    let oracles: Vec<(u32, Option<String>)> = file
        .tokens
        .iter()
        .filter_map(|t| match &t.kind {
            Tok::Comment { text, .. } => text.find("oracle:").map(|pos| {
                let rest = text[pos + "oracle:".len()..].trim_start();
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                (t.line, (!name.is_empty()).then_some(name))
            }),
            _ => None,
        })
        .collect();
    // Every `fn` definition: (name line, name, in-test-region, name token
    // index — used to tell implementations from bodyless declarations).
    let mut defs: Vec<(u32, &str, bool, usize)> = Vec::new();
    for (i, t) in file.tokens.iter().enumerate() {
        if !matches!(&t.kind, Tok::Ident(s) if s == "fn") {
            continue;
        }
        let mut j = i + 1;
        while matches!(
            file.tokens.get(j).map(|t| &t.kind),
            Some(Tok::Comment { .. })
        ) {
            j += 1;
        }
        if let Some(Tok::Ident(name)) = file.tokens.get(j).map(|t| &t.kind) {
            defs.push((file.tokens[j].line, name, file.suppressed[j], j));
        }
    }
    for &(line, name, in_test, at) in &defs {
        if in_test {
            continue;
        }
        let is_kernel = KERNEL_SUFFIXES.iter().any(|s| name.ends_with(s));
        // A trait's `fn maintain(...);` declares the contract; only a
        // definition with a body performs a splice needing a twin.
        let is_maintain = MAINTAIN_NAMES.contains(&name) && has_body(file, at);
        if !is_kernel && !is_maintain {
            continue;
        }
        let what = if is_kernel {
            "branch-free kernel"
        } else {
            "cache-maintenance impl"
        };
        let twin_kind = if is_kernel { "scalar" } else { "recompute" };
        let oracle = oracles
            .iter()
            .rfind(|(c, _)| *c <= line && c + ORACLE_WINDOW >= line);
        match oracle {
            None => file.report(
                out,
                Lint::OracleTwin,
                line,
                format!("{what} `{name}` has no `// oracle:` comment naming its {twin_kind} twin"),
            ),
            Some((_, None)) => file.report(
                out,
                Lint::OracleTwin,
                line,
                format!("{what} `{name}`'s `// oracle:` comment names no identifier"),
            ),
            Some((_, Some(twin))) => {
                if !defs.iter().any(|&(_, n, _, _)| n == twin) {
                    file.report(
                        out,
                        Lint::OracleTwin,
                        line,
                        format!(
                            "oracle twin `{twin}` named by {what} `{name}` is not defined in this file"
                        ),
                    );
                }
            }
        }
    }
}

/// True when the `fn` whose name sits at token index `at` is defined with
/// a body (`{` before `;` at signature depth) rather than declared
/// bodyless inside a trait. Parentheses and brackets are tracked so a
/// `;` inside an array type (`[u8; 4]`) cannot end the signature early.
fn has_body(file: &SourceFile, at: usize) -> bool {
    let mut depth = 0i32;
    for t in &file.tokens[at + 1..] {
        if let Tok::Punct(c) = t.kind {
            match c {
                '(' | '[' => depth += 1,
                ')' | ']' => depth -= 1,
                '{' if depth == 0 => return true,
                ';' if depth == 0 => return false,
                _ => {}
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        let f = SourceFile::from_source("crates/x/src/lib.rs", src);
        let mut out = Vec::new();
        check(&f, &mut out);
        out
    }

    #[test]
    fn kernel_without_oracle_comment_fires() {
        let src = "\
/// Sums a word at a time.
pub fn sum_swar(xs: &[u8]) -> u64 { 0 }
";
        let got = findings(src);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].line, 2);
        assert!(got[0].message.contains("sum_swar"));
    }

    #[test]
    fn kernel_with_missing_twin_fires() {
        let src = "\
/// oracle: sum_scalar
pub fn sum_branchless(xs: &[u8]) -> u64 { 0 }
";
        let got = findings(src);
        assert_eq!(got.len(), 1);
        assert!(got[0].message.contains("sum_scalar"));
    }

    #[test]
    fn paired_kernel_is_silent_even_with_a_cfg_test_twin() {
        let src = "\
/// Doc prose above.
///
/// oracle: sum_scalar
#[inline]
pub fn sum_swar(xs: &[u8]) -> u64 { 0 }

#[cfg(test)]
fn sum_scalar(xs: &[u8]) -> u64 { 0 }
";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn oracle_comment_too_far_above_does_not_cover() {
        let src = "\
/// oracle: sum_scalar
fn unrelated() {}




pub fn sum_swar(xs: &[u8]) -> u64 { 0 }
fn sum_scalar(xs: &[u8]) -> u64 { 0 }
";
        let got = findings(src);
        assert_eq!(got.len(), 1, "window must have expired: {got:?}");
        assert!(got[0].message.contains("no `// oracle:` comment"));
    }

    #[test]
    fn empty_oracle_name_fires() {
        let src = "\
/// oracle:
pub fn sum_swar(xs: &[u8]) -> u64 { 0 }
";
        let got = findings(src);
        assert_eq!(got.len(), 1);
        assert!(got[0].message.contains("names no identifier"));
    }

    #[test]
    fn test_regions_and_non_kernels_are_exempt() {
        let src = "\
pub fn ordinary(x: u64) -> u64 { x }
#[cfg(test)]
mod tests {
    fn helper_swar() -> u64 { 0 }
}
";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn non_lib_files_are_exempt() {
        let f = SourceFile::from_source(
            "crates/bench/src/bin/exp_axes.rs",
            "pub fn probe_swar() -> u64 { 0 }\n",
        );
        let mut out = Vec::new();
        check(&f, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn maintain_impl_without_oracle_comment_fires() {
        let src = "\
impl MaintainView for Thing {
    fn maintain(&self, d: &ViewDelta) -> Maintained<Self> { Maintained::Unchanged }
}
";
        let got = findings(src);
        assert_eq!(got.len(), 1);
        assert!(got[0].message.contains("cache-maintenance impl"));
        assert!(got[0].message.contains("recompute twin"));
    }

    #[test]
    fn trait_declaration_of_maintain_is_exempt() {
        let src = "\
pub trait MaintainView: Sized {
    fn maintain(&self, delta: &ViewDelta, ctx: &MaintainCtx<'_>) -> Maintained<Self>;
}
";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn array_type_semicolons_do_not_end_the_signature() {
        // The `;` inside `[u8; 4]` is type syntax, not the declaration
        // terminator; the `;` after the parens still is.
        let src = "\
pub trait T { fn maintain(&self, xs: [u8; 4]) -> u32; }
";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn maintain_impl_with_recompute_twin_is_silent() {
        let src = "\
/// Splice docs.
// oracle: rebuild_thing_oracle
impl MaintainView for Thing {
    fn maintain(&self, d: &ViewDelta) -> Maintained<Self> { Maintained::Unchanged }
}

#[cfg(test)]
mod tests {
    fn rebuild_thing_oracle() -> Thing { Thing }
}
";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn maintain_impl_with_missing_twin_fires() {
        let src = "\
// oracle: rebuild_thing_oracle
impl MaintainView for Thing {
    fn maintain(&self, d: &ViewDelta) -> Maintained<Self> { Maintained::Unchanged }
}
";
        let got = findings(src);
        assert_eq!(got.len(), 1);
        assert!(got[0].message.contains("rebuild_thing_oracle"));
    }

    #[test]
    fn allow_comment_suppresses() {
        let src = "\
// vet: allow(oracle-twin) — twin lives in the sibling module
pub fn odd_swar(x: u64) -> u64 { x }
";
        assert!(findings(src).is_empty());
    }
}
