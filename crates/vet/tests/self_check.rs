//! The live gate: vets the real workspace on every `cargo test`.
//!
//! An off-vocabulary span name, a desynchronised `VhError` table or a
//! lock-order cycle fails this test immediately — CI wiring is a second
//! line of defence, not the first. The panic and `unsafe` rules are
//! clippy's, through the root `[workspace.lints.clippy]` table; the
//! second test keeps every package under it.

#![allow(clippy::expect_used)]

use std::path::{Path, PathBuf};

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/vet sits two levels below the workspace root")
}

#[test]
fn the_workspace_is_vet_clean() {
    let root = workspace_root();
    let findings = vh_vet::vet_workspace(root).expect("workspace walks cleanly");
    assert!(
        findings.is_empty(),
        "vh-vet findings in the live workspace:\n{}",
        findings
            .iter()
            .map(vh_vet::Finding::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The manifest of every workspace package: the root package plus each
/// `members` entry, with `dir/*` globs expanded one level.
fn member_manifests(root: &Path, manifest: &str) -> Vec<PathBuf> {
    let mut out = vec![root.join("Cargo.toml")];
    let line = manifest
        .lines()
        .find(|l| l.trim_start().starts_with("members"))
        .expect("the root manifest lists its members");
    for member in line.split('"').skip(1).step_by(2) {
        match member.strip_suffix("/*") {
            Some(dir) => {
                let mut dirs: Vec<PathBuf> = std::fs::read_dir(root.join(dir))
                    .expect("member glob directory reads")
                    .map(|e| e.expect("directory entry reads").path().join("Cargo.toml"))
                    .filter(|p| p.is_file())
                    .collect();
                dirs.sort();
                out.extend(dirs);
            }
            None => out.push(root.join(member).join("Cargo.toml")),
        }
    }
    out
}

/// The value of `key` in the `[table]` section of a manifest, if set.
fn table_value<'a>(manifest: &'a str, table: &str, key: &str) -> Option<&'a str> {
    let header = format!("[{table}]");
    let mut inside = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = line == header;
        } else if inside {
            if let Some((k, v)) = line.split_once('=') {
                if k.trim() == key {
                    return Some(v.trim());
                }
            }
        }
    }
    None
}

/// Clippy owns the panic and `unsafe` rules, and a clippy table covers
/// only the packages that opt in: every package except the measurement
/// crate `vh-bench` and the vendored stand-ins must inherit the root
/// `[workspace.lints.clippy]` table, so a new library crate cannot
/// escape it.
#[test]
fn every_package_inherits_the_workspace_lint_table() {
    let root = workspace_root();
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest reads");
    for lint in [
        "unwrap_used",
        "expect_used",
        "panic",
        "todo",
        "unimplemented",
        "undocumented_unsafe_blocks",
        "needless_collect",
    ] {
        assert_eq!(
            table_value(&manifest, "workspace.lints.clippy", lint),
            Some("\"deny\""),
            "the root [workspace.lints.clippy] table must deny clippy::{lint}"
        );
    }
    let mut missing = Vec::new();
    for path in member_manifests(root, &manifest) {
        let text = std::fs::read_to_string(&path).expect("member manifest reads");
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let name = table_value(&text, "package", "name").unwrap_or("");
        if name == "\"vh-bench\"" || rel.starts_with("vendor") {
            continue;
        }
        if table_value(&text, "lints", "workspace") != Some("true") {
            missing.push(rel.display().to_string());
        }
    }
    assert!(
        missing.is_empty(),
        "packages without `[lints] workspace = true`: {missing:?}"
    );
}
