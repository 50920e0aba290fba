//! Drives the `vh-vet` binary over the fixture corpus and asserts one
//! finding per seeded violation, with the exit codes and JSON document
//! the CI contract promises.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The fixture mini-workspace next to this test.
fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn run_vet(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vh-vet"))
        .args(args)
        .output()
        .expect("vh-vet binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Every seeded violation, as `(file, line, lint)`. The corpus README
/// documents what each one is; this list is the contract the test pins.
const SEEDED: &[(&str, u32, &str)] = &[
    ("crates/demo/src/hot.rs", 8, "hot-path"),
    ("crates/demo/src/hot.rs", 16, "hot-path"),
    ("crates/demo/src/hot.rs", 28, "hot-path"),
    ("crates/demo/src/hot.rs", 39, "stale-allow"),
    ("crates/demo/src/hot.rs", 44, "hot-path"),
    ("crates/demo/src/kernels.rs", 6, "oracle-twin"),
    ("crates/demo/src/kernels.rs", 11, "oracle-twin"),
    ("crates/query/src/engine.rs", 12, "span-vocab"),
    ("crates/query/src/metrics.rs", 11, "prom-name"),
    ("crates/query/src/metrics.rs", 12, "prom-name"),
    ("crates/query/src/metrics.rs", 13, "prom-name"),
    ("crates/serve/src/hold.rs", 27, "hold-across-blocking"),
    ("crates/serve/src/hold.rs", 33, "hold-across-blocking"),
    ("crates/serve/src/hold.rs", 40, "hold-across-blocking"),
    ("crates/serve/src/hold.rs", 58, "stale-allow"),
    ("crates/serve/src/locks.rs", 21, "lock-order"),
    ("crates/serve/src/locks.rs", 28, "lock-order"),
    ("crates/serve/src/locks.rs", 36, "lock-order"),
    ("crates/serve/src/server.rs", 4, "api-surface"),
    ("crates/serve/src/wire.rs", 53, "api-surface"),
    ("crates/serve/src/wire.rs", 59, "api-surface"),
    ("src/error.rs", 39, "error-exit"),
    ("src/lib.rs", 20, "vet-allow"),
    ("src/lib.rs", 21, "hot-path"),
    ("src/lib.rs", 28, "vet-allow"),
    ("src/lib.rs", 29, "hot-path"),
    ("src/lib.rs", 42, "stale-allow"),
];

#[test]
fn every_lint_fires_exactly_where_seeded() {
    let root = fixtures_root();
    let out = run_vet(&["--root", root.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "findings mean exit 1");
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().filter(|l| !l.starts_with("vh-vet:")).collect();
    assert_eq!(
        lines.len(),
        SEEDED.len(),
        "one finding per seeded violation:\n{text}"
    );
    for (i, (file, line, lint)) in SEEDED.iter().enumerate() {
        let prefix = format!("{file}:{line}: [{lint}]");
        assert!(
            lines[i].starts_with(&prefix),
            "finding {i}: expected `{prefix}…`, got `{}`",
            lines[i]
        );
    }
}

#[test]
fn json_report_matches_the_text_findings() {
    let root = fixtures_root();
    let json_path = std::env::temp_dir().join(format!("vh-vet-corpus-{}.json", std::process::id()));
    let out = run_vet(&[
        "--root",
        root.to_str().unwrap(),
        "--json",
        json_path.to_str().unwrap(),
        "--quiet",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(stdout(&out), "", "--quiet silences the text report");
    let json = std::fs::read_to_string(&json_path).expect("JSON artifact written");
    let _ = std::fs::remove_file(&json_path);

    assert!(json.starts_with(&format!(
        "{{\"tool\":\"vh-vet\",\"count\":{},",
        SEEDED.len()
    )));
    // One JSON finding object per seeded violation, in report order.
    for (file, line, lint) in SEEDED {
        let entry = format!("{{\"file\":\"{file}\",\"line\":{line},\"lint\":\"{lint}\",");
        assert!(json.contains(&entry), "JSON misses {file}:{line} [{lint}]");
    }
    for lint in [
        "span-vocab",
        "error-exit",
        "api-surface",
        "prom-name",
        "oracle-twin",
        "lock-order",
        "hold-across-blocking",
        "hot-path",
        "vet-allow",
        "stale-allow",
    ] {
        let expected = SEEDED.iter().filter(|(_, _, l)| l == &lint).count();
        let got = json.matches(&format!("\"lint\":\"{lint}\"")).count();
        assert_eq!(got, expected, "JSON count for {lint}");
    }
}

#[test]
fn sarif_report_matches_the_text_findings() {
    let root = fixtures_root();
    let sarif_path =
        std::env::temp_dir().join(format!("vh-vet-corpus-{}.sarif", std::process::id()));
    let out = run_vet(&[
        "--root",
        root.to_str().unwrap(),
        "--sarif",
        sarif_path.to_str().unwrap(),
        "--quiet",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let sarif = std::fs::read_to_string(&sarif_path).expect("SARIF artifact written");
    let _ = std::fs::remove_file(&sarif_path);

    assert!(
        sarif.contains("sarif-2.1.0.json") && sarif.contains("\"version\":\"2.1.0\""),
        "SARIF header:\n{sarif}"
    );
    assert!(sarif.contains("\"name\":\"vh-vet\""));
    // One result per seeded violation, each carrying its rule and line.
    assert_eq!(
        sarif.matches("\"ruleId\":").count(),
        SEEDED.len(),
        "one SARIF result per seeded violation"
    );
    for (file, line, lint) in SEEDED {
        assert!(
            sarif.contains(&format!("\"ruleId\":\"{lint}\"")),
            "SARIF misses rule {lint}"
        );
        assert!(
            sarif.contains(&format!("\"uri\":\"{file}\""))
                && sarif.contains(&format!("\"startLine\":{line}")),
            "SARIF misses {file}:{line}"
        );
    }
    // Warnings stay warnings in SARIF: stale-allow results demote.
    let stale = SEEDED
        .iter()
        .filter(|(_, _, l)| *l == "stale-allow")
        .count();
    assert_eq!(
        sarif.matches("\"level\":\"warning\"").count(),
        stale + 1, // the rule's defaultConfiguration plus each result
        "stale-allow results carry warning level"
    );
}

/// The drift gate: a lint registered in `ALL_LINTS` without a seeded
/// fixture violation would silently stop being exercised end-to-end.
#[test]
fn every_registered_lint_has_a_seeded_fixture_violation() {
    for lint in vh_vet::ALL_LINTS {
        let id = lint.id();
        assert!(
            SEEDED.iter().any(|(_, _, l)| *l == id),
            "lint `{id}` has no seeded violation in the fixture corpus"
        );
    }
}

#[test]
fn allow_comments_suppress_and_test_code_is_exempt() {
    // The fixture seeds a *valid* allow (`documented`) and a
    // `#[cfg(test)]` hot kernel that indexes; neither may appear in the
    // findings.
    let root = fixtures_root();
    let out = run_vet(&["--root", root.to_str().unwrap()]);
    let text = stdout(&out);
    assert!(
        !text.contains("src/lib.rs:13"),
        "the documented allow at line 12 must gate line 13:\n{text}"
    );
    assert!(
        !text.contains("src/lib.rs:37"),
        "the cfg(test) indexing at line 37 must stay silent:\n{text}"
    );
}

#[test]
fn usage_errors_exit_two() {
    let out = run_vet(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("unknown argument"), "{err}");
}

#[test]
fn unreadable_roots_exit_three() {
    let out = run_vet(&["--root", "/nonexistent/vh-vet-no-such-dir"]);
    assert_eq!(out.status.code(), Some(3));
}

#[test]
fn list_names_every_lint() {
    let out = run_vet(&["--list"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    for lint in [
        "span-vocab",
        "error-exit",
        "api-surface",
        "prom-name",
        "oracle-twin",
        "lock-order",
        "hold-across-blocking",
        "hot-path",
        "vet-allow",
        "stale-allow",
    ] {
        assert!(text.contains(lint), "--list misses {lint}");
    }
}
