#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # vh-vet — the workspace invariant checker
//!
//! A dependency-free static-analysis pass over every `.rs` file in the
//! workspace, enforcing the cross-file invariants clippy cannot express
//! (DESIGN.md §11). The suite grew contracts that live in more than one
//! crate — the stable span vocabulary shared by `vh-query` and `vh-obs`, the
//! `VhError` ↔ exit-code ↔ README synchronisation, Prometheus family
//! discipline — and each was policed only by convention. `vh-vet` checks them at lint time, in the
//! spirit of catching the invariant break before it ships rather than
//! under load.
//!
//! Pipeline: [`workspace::Workspace::load`] walks the tree and scans
//! every file with the hand-rolled lexer in [`scan`]; [`model`] builds
//! the workspace semantic model (item index, approximate call graph,
//! lock-acquisition model) that the cross-function lint families
//! (`lock-order`, `hold-across-blocking`, `hot-path`) reason over;
//! [`lints::run`] applies the lint set; findings render as text lines,
//! as the JSON document CI uploads ([`findings::to_json`]), or as SARIF
//! for GitHub code scanning ([`sarif::to_sarif`]).
//!
//! Escape hatch: a finding is suppressed by a comment on the same line
//! or the line directly above, of the form
//! `// vet: allow(<lint-id>) — <reason>` — the reason is mandatory, and
//! malformed allows are themselves findings (`vet-allow`).
//!
//! The binary (`vh-vet`) exits 0 on a clean tree, 1 when findings exist,
//! 2 on usage errors and 3 on I/O errors, matching the suite's exit-code
//! classes. `crates/vet/tests/self_check.rs` runs the whole pass over
//! the live workspace on every `cargo test`, so an undeclared span name
//! or a lock-order cycle fails the ordinary test gate, not just CI. The
//! panic and `unsafe` rules are clippy's: the workspace `[lints]` table
//! in the root `Cargo.toml`, which the self-check also pins.

pub mod callgraph;
pub mod findings;
pub mod lints;
pub mod locks;
pub mod model;
pub mod sarif;
pub mod scan;
pub mod workspace;

pub use findings::{to_json, Finding, Lint, ALL_LINTS};
pub use sarif::to_sarif;
pub use workspace::{VetError, Workspace};

use std::path::Path;

/// Walks the workspace at `root`, runs every lint, and returns the
/// findings sorted by path, line and lint id.
pub fn vet_workspace(root: &Path) -> Result<Vec<Finding>, VetError> {
    let ws = Workspace::load(root)?;
    Ok(lints::run(&ws))
}
