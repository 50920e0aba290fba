//! End-to-end tests of the `vpbn` command-line binary.

#![allow(clippy::expect_used)]

use std::process::{Command, Output};

fn vpbn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vpbn"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn books_file() -> tempfile_path::TempPath {
    tempfile_path::write(
        "<data>\
           <book><title>Alpha</title>\
             <author><name>Ann</name></author>\
             <publisher><location>Oslo</location></publisher></book>\
           <book><title>Beta</title>\
             <author><name>Bob</name></author>\
             <author><name>Cy</name></author>\
             <publisher><location>Lima</location></publisher></book>\
         </data>",
    )
}

/// Minimal temp-file helper (no external crates).
mod tempfile_path {
    use std::path::PathBuf;

    pub struct TempPath(pub PathBuf);

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    impl TempPath {
        pub fn as_str(&self) -> &str {
            self.0.to_str().expect("utf-8 path")
        }
    }

    pub fn write(content: &str) -> TempPath {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let mut p = std::env::temp_dir();
        p.push(format!(
            "vpbn-cli-test-{}-{}.xml",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&p, content).expect("temp file writes");
        TempPath(p)
    }
}

#[test]
fn demo_prints_rhondas_result() {
    let out = vpbn(&["demo"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("<title>X</title>"));
    assert!(stdout.contains("<count>1</count>"));
}

#[test]
fn xpath_lists_nodes_with_their_numbers() {
    let f = books_file();
    let out = vpbn(&["load", "b.xml", f.as_str(), "xpath", "//title"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("1.1.1"));
    assert!(stdout.contains("<title>Alpha</title>"));
    assert!(stdout.contains("1.2.1"));
}

#[test]
fn vpath_and_value_answer_through_the_view() {
    let f = books_file();
    let spec = "title { author { name } }";
    let out = vpbn(&[
        "load",
        "b.xml",
        f.as_str(),
        "vpath",
        spec,
        "//title/author/name",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("<name>Ann</name>"));
    assert!(stdout.contains("<name>Cy</name>"));

    let out = vpbn(&[
        "load",
        "b.xml",
        f.as_str(),
        "value",
        spec,
        "//title[text() = 'Beta']",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains(
            "<title>Beta<author><name>Bob</name></author><author><name>Cy</name></author></title>"
        ),
        "{stdout}"
    );
}

#[test]
fn explain_shows_level_arrays() {
    let f = books_file();
    let out = vpbn(&[
        "load",
        "b.xml",
        f.as_str(),
        "explain",
        "title { author { name } }",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("[1,1,1]"), "{stdout}");
    assert!(stdout.contains("[1,1,2,3]"));
    assert!(stdout.contains("identity region"));
}

#[test]
fn query_runs_flwr_against_loaded_documents() {
    let f = books_file();
    let out = vpbn(&[
        "load",
        "b.xml",
        f.as_str(),
        "query",
        r#"for $t in virtualDoc("b.xml", "title { author { name } }")//title
           return <c>{count($t/author)}</c>"#,
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("<c>1</c>"));
    assert!(stdout.contains("<c>2</c>"));
}

#[test]
fn stats_reports_storage_sizes() {
    let f = books_file();
    let out = vpbn(&["load", "b.xml", f.as_str(), "stats"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("document string"));
    assert!(stdout.contains("value index"));
}

#[test]
fn trace_flag_prints_the_span_tree_to_stderr() {
    let f = books_file();
    let out = vpbn(&[
        "--trace",
        "load",
        "b.xml",
        f.as_str(),
        "query",
        r#"for $t in virtualDoc("b.xml", "title { author { name } }")//title
           return <c>{count($t/author)}</c>"#,
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("<c>2</c>"),
        "results stay on stdout: {stdout}"
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    for needle in ["query (", "parse (", "guide-expansion", "result.nodes=2"] {
        assert!(stderr.contains(needle), "missing '{needle}': {stderr}");
    }
}

#[test]
fn explain_flag_replaces_results_with_the_plan() {
    let f = books_file();
    let out = vpbn(&[
        "--explain",
        "load",
        "b.xml",
        f.as_str(),
        "vpath",
        "title { author { name } }",
        "//title/author/name",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(!stdout.contains("<name>"), "no result nodes: {stdout}");
    for needle in [
        "parse (",
        "guide-expansion",
        "arena-range-selection",
        "axis.range_scans=",
        "cache=",
        "arena=[",
    ] {
        assert!(stdout.contains(needle), "missing '{needle}': {stdout}");
    }
}

#[test]
fn explain_json_round_trips_through_the_obs_parser() {
    let f = books_file();
    let out = vpbn(&[
        "--explain-json",
        "load",
        "b.xml",
        f.as_str(),
        "vpath",
        "title { author { name } }",
        "//title",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let trace = vpbn_suite::obs::QueryTrace::from_json(stdout.trim())
        .expect("stdout is one valid trace document");
    assert_eq!(trace.root.name, "query");
    assert_eq!(trace.root.meta_value("kind"), Some("virtual-path"));
    assert_eq!(trace.to_json(), stdout.trim(), "round-trip is lossless");
}

#[test]
fn stats_reports_engine_counters_and_prometheus_metrics() {
    let f = books_file();
    let out = vpbn(&["load", "b.xml", f.as_str(), "stats"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("compiled-view cache:"), "{stdout}");
    assert!(stdout.contains("buffer pool:"), "{stdout}");
    assert!(
        stdout.contains("# TYPE vpbn_queries_total counter"),
        "{stdout}"
    );
    assert!(stdout.contains("vpbn_storage_resident_bytes"), "{stdout}");
}

#[test]
fn errors_exit_nonzero_with_usage() {
    let out = vpbn(&["frobnicate"]);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown command"));
    assert!(stderr.contains("usage:"));

    let out = vpbn(&["xpath", "//x"]);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));

    let out = vpbn(&["load", "u", "/nonexistent-file.xml", "xpath", "//x"]);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("cannot read"));
}

#[test]
fn bad_specs_report_compile_errors() {
    let f = books_file();
    let out = vpbn(&["load", "b.xml", f.as_str(), "explain", "ghost { title }"]);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(5), "vDataGuide errors exit 5");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("matches no type"), "{stderr}");
}

#[test]
fn failure_classes_map_to_distinct_exit_codes() {
    // XML that is not well-formed → exit 4.
    let bad = tempfile_path::write("<data><book></data>");
    let out = vpbn(&["load", "b.xml", bad.as_str(), "xpath", "//x"]);
    assert_eq!(out.status.code(), Some(4), "XML parse errors exit 4");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("error[XML_PARSE]"), "{stderr}");

    // A query that cannot be parsed → exit 6.
    let f = books_file();
    let out = vpbn(&["load", "b.xml", f.as_str(), "query", "for $ in in in"]);
    assert_eq!(out.status.code(), Some(6), "query errors exit 6");

    // A syntactically invalid XPath → exit 6 as well.
    let out = vpbn(&["load", "b.xml", f.as_str(), "xpath", "//["]);
    assert_eq!(out.status.code(), Some(6), "XPath errors exit 6");

    // Pathological nesting trips the recursion-depth guard → exit 8.
    let deep = format!("//book[{}1{}]", "(".repeat(200), ")".repeat(200));
    let out = vpbn(&["load", "b.xml", f.as_str(), "xpath", &deep]);
    assert_eq!(out.status.code(), Some(8), "resource exhaustion exits 8");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("error[QUERY_RESOURCE]"), "{stderr}");
}
