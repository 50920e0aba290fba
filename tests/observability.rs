//! Integration tests of the observability layer: stage timings, cache
//! provenance oracles, trace JSON round-trips and engine-wide metrics.

#![allow(clippy::expect_used)]

use vpbn_suite::obs::{CacheOutcome, QueryTrace, Span};
use vpbn_suite::query::api::{Engine, ExecOptions, QueryRequest};

const BOOKS: &str = "<data>\
       <book><title>Alpha</title>\
         <author><name>Ann</name></author>\
         <publisher><location>Oslo</location></publisher></book>\
       <book><title>Beta</title>\
         <author><name>Bob</name></author>\
         <author><name>Cy</name></author>\
         <publisher><location>Lima</location></publisher></book>\
     </data>";

const SPEC: &str = "title { author { name } }";

fn engine() -> Engine {
    let mut e = Engine::new();
    e.register_xml("b.xml", BOOKS).expect("fixture parses");
    e
}

fn rhonda() -> QueryRequest {
    QueryRequest::flwr(
        r#"for $t in virtualDoc("b.xml", "title { author { name } }")//title
           return <r>{count($t/author)}</r>"#,
    )
}

/// Children nest inside their parent, so their summed duration can never
/// exceed the parent's — recursively, for the whole tree.
fn assert_nested_durations(s: &Span) {
    assert!(
        s.child_duration_ns() <= s.duration_ns,
        "children of '{}' ({} ns) exceed the span itself ({} ns)",
        s.name,
        s.child_duration_ns(),
        s.duration_ns
    );
    for c in &s.children {
        assert_nested_durations(c);
    }
}

#[test]
fn stage_timings_are_monotone_and_sum_consistently() {
    let engine = engine();
    let out = engine.run(&rhonda().with_trace(true)).expect("query runs");
    let stats = &out.stats;

    // Stage timings sum to no more than the whole query.
    assert!(
        stats.stage_ns() <= stats.total_ns,
        "parse {} + plan {} + exec {} > total {}",
        stats.parse_ns,
        stats.plan_ns,
        stats.exec_ns,
        stats.total_ns
    );

    // The span tree obeys the same discipline at every level.
    let trace = out.trace.as_ref().expect("tracing was requested");
    assert_eq!(trace.root.name, "query");
    assert_nested_durations(&trace.root);

    // The trace and the stats describe the same run.
    let exec = trace.root.find("exec").expect("exec span exists");
    assert_eq!(exec.counter("result.nodes"), Some(stats.result_nodes));
    assert_eq!(stats.result_nodes, 2, "one <r> per title");
}

#[test]
fn cold_and_warm_runs_agree_with_the_cache_oracle() {
    let engine = engine();
    let req = rhonda().with_trace(true);

    let cold = engine.run(&req).expect("cold run");
    let warm = engine.run(&req).expect("warm run");

    // Provenance flips from computed to hit; nothing else may change.
    for v in &cold.stats.views {
        assert_eq!(v.cache, CacheOutcome::Computed, "cold {}", v.uri);
    }
    for v in &warm.stats.views {
        assert_eq!(v.cache, CacheOutcome::Hit, "warm {}", v.uri);
    }
    assert_eq!(cold.stats.axis, warm.stats.axis, "same scans either way");
    assert_eq!(cold.stats.result_nodes, warm.stats.result_nodes);
    assert_eq!(cold.to_string_compact(), warm.to_string_compact());

    // The trace's view spans carry the same verdict as the stats, and
    // only a computed view has build-stage spans.
    let cold_trace = cold.trace.as_ref().expect("traced");
    let warm_trace = warm.trace.as_ref().expect("traced");
    let cold_view = cold_trace.root.find("view").expect("span");
    let warm_view = warm_trace.root.find("view").expect("span");
    assert_eq!(cold_view.meta_value("cache"), Some("computed"));
    assert_eq!(warm_view.meta_value("cache"), Some("hit"));
    assert!(cold_view.find("guide-expansion").is_some());
    assert!(warm_view.find("guide-expansion").is_none());

    // With the cache disabled the same query reports bypassed artifacts.
    let exec = ExecOptions {
        cache: false,
        ..ExecOptions::default()
    };
    let off = engine
        .run(&rhonda().with_exec(exec).with_trace(true))
        .expect("cache-off run");
    for v in &off.stats.views {
        assert_eq!(v.cache, CacheOutcome::Bypassed, "bypassed {}", v.uri);
    }
    assert_eq!(off.to_string_compact(), warm.to_string_compact());
}

#[test]
fn traces_round_trip_through_json() {
    let engine = engine();
    let out = engine.run(&rhonda().with_trace(true)).expect("query runs");
    let trace = out.trace.expect("traced");
    let json = trace.to_json();
    let back = QueryTrace::from_json(&json).expect("own output parses");
    assert_eq!(back, trace, "round-trip is lossless");
    assert_eq!(back.to_json(), json, "re-serialization is stable");
}

#[test]
fn trace_json_golden_schema() {
    // External tooling parses this format: any change must be deliberate.
    let mut exec = Span::named("exec");
    exec.start_ns = 40;
    exec.duration_ns = 50;
    exec.counters.push(("result.nodes".into(), 2));
    let trace = QueryTrace {
        root: Span {
            name: "query".into(),
            start_ns: 1,
            duration_ns: 99,
            meta: vec![("kind".into(), "flwr".into())],
            counters: Vec::new(),
            children: vec![exec],
        },
    };
    let want = concat!(
        "{\"name\":\"query\",\"start_ns\":1,\"duration_ns\":99,",
        "\"meta\":{\"kind\":\"flwr\"},\"counters\":{},\"children\":[",
        "{\"name\":\"exec\",\"start_ns\":40,\"duration_ns\":50,",
        "\"meta\":{},\"counters\":{\"result.nodes\":2},\"children\":[]}]}",
    );
    assert_eq!(trace.to_json(), want);
    assert_eq!(QueryTrace::from_json(want).expect("golden parses"), trace);
}

#[test]
fn explain_names_every_required_stage() {
    let engine = engine();
    let ex = engine.explain(&rhonda()).expect("explain runs");
    let text = ex.text();
    for needle in [
        "query (",
        "parse (",
        "guide-expansion",
        "arena-range-selection",
        "axis.range_scans=",
        "cache=computed",
        "index=[",
        "arena=[",
        "result.nodes=2",
    ] {
        assert!(text.contains(needle), "missing '{needle}' in:\n{text}");
    }
    // The same plan survives the JSON exporter.
    let back = QueryTrace::from_json(&ex.json()).expect("explain JSON parses");
    assert_eq!(back, ex.trace);
}

#[test]
fn explain_covers_virtual_path_requests_too() {
    let engine = engine();
    let req = QueryRequest::virtual_path("b.xml", SPEC, "//title/author/name");
    let ex = engine.explain(&req).expect("explain runs");
    let text = ex.text();
    assert!(text.contains("kind=virtual-path"), "{text}");
    assert!(text.contains("arena-range-selection"), "{text}");
    assert_eq!(
        ex.trace
            .root
            .find("exec")
            .and_then(|s| s.counter("result.nodes")),
        Some(3),
        "Ann, Bob and Cy"
    );
}

#[test]
fn snapshot_and_metrics_accumulate_across_runs() {
    let mut engine = engine();
    engine.attach_store("b.xml").expect("store attaches");
    engine.run(&rhonda()).expect("untraced run");
    engine.run(&rhonda().with_trace(true)).expect("traced run");
    assert!(engine.run(&QueryRequest::flwr("for $x in")).is_err());

    let snap = engine.snapshot();
    assert_eq!(snap.queries.queries, 3, "attempts, including the failure");
    assert_eq!(snap.queries.traced, 1);
    assert_eq!(snap.queries.failures, 1);
    assert_eq!(snap.queries.result_nodes, 4);
    assert!(snap.storage.total_bytes() > 0, "store was attached");
    assert!(snap.cache.views.entries > 0, "view was cached");

    let m = engine.metrics_text();
    assert!(m.contains("vpbn_queries_total 3"), "{m}");
    assert!(m.contains("vpbn_query_failures_total 1"), "{m}");
    assert!(m.contains("vpbn_queries_traced_total 1"), "{m}");
    assert!(m.contains("vpbn_query_result_nodes_total 4"), "{m}");
    assert!(m.contains("vpbn_cache_hits_total 1"), "{m}");
    // Exposition discipline: every sample sits under its family's TYPE
    // line, before the next family begins.
    let mut current_family = String::new();
    for line in m.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            current_family = rest
                .split_whitespace()
                .next()
                .expect("metric name after TYPE")
                .to_owned();
        } else if !line.starts_with('#') && !line.is_empty() {
            let name = line.split(['{', ' ']).next().expect("sample name");
            assert_eq!(
                name, current_family,
                "sample '{line}' strayed from its TYPE declaration"
            );
        }
    }
}

#[test]
fn untraced_runs_carry_stats_but_no_trace() {
    let engine = engine();
    let out = engine.run(&rhonda()).expect("query runs");
    assert!(out.trace.is_none());
    assert_eq!(out.stats.result_nodes, 2);
    assert_eq!(out.stats.views.len(), 1, "provenance costs nothing to keep");
    assert_eq!(
        out.stats.axis.range_scans, 0,
        "axis counters are trace-only"
    );
}
