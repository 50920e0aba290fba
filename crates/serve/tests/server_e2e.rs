//! End-to-end server tests over real loopback sockets: multi-tenant
//! routing, admission shedding, engine-limit propagation, live metrics,
//! the snapshot verb, edits through the wire, and crash-mid-connection
//! serviceability.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Duration;

use vh_obs::Json;
use vh_query::{Edit, Engine, Limits};
use vh_serve::wire::{frame, Address, Request, RequestBody, WireStatus};
use vh_serve::{http_metrics, Client, Registry, Server, ServerConfig, ServerHandle, TenantQuota};
use vh_workload::{generate_books, BooksConfig};

const DOC: &str = "books.xml";
const SPEC: &str = "title { author { name } }";

fn books_engine(books: usize, seed: u64) -> Engine {
    let mut engine = Engine::new();
    engine.register(generate_books(
        DOC,
        &BooksConfig {
            books,
            max_authors: 3,
            rare_fraction: 0.1,
            seed,
        },
    ));
    engine
}

fn config(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        poll_interval: Duration::from_millis(2),
        stall_timeout: Duration::from_millis(100),
    }
}

fn two_tenant_server() -> ServerHandle {
    let mut registry = Registry::new();
    registry
        .add_tenant("acme", books_engine(12, 7), TenantQuota::default())
        .expect("acme registers");
    registry
        .add_tenant("boggle", books_engine(5, 9), TenantQuota::default())
        .expect("boggle registers");
    Server::bind("127.0.0.1:0", registry, config(6))
        .expect("binds")
        .start()
        .expect("starts")
}

#[test]
fn tenants_are_isolated_by_prefix_routing() {
    let handle = two_tenant_server();
    let addr = handle.local_addr();

    let mut acme = Client::connect(addr, "acme").expect("acme connects");
    let mut boggle = Client::connect(addr, "boggle").expect("boggle connects");
    let a = acme.point(DOC, "//book").expect("acme point");
    let b = boggle.point(DOC, "//book").expect("boggle point");
    assert_eq!(a, 12, "acme sees its own corpus");
    assert_eq!(b, 5, "boggle sees its own corpus");

    let mut nobody = Client::connect(addr, "nobody").expect("connects");
    let err = nobody.point(DOC, "//book").expect_err("unroutable");
    assert_eq!(err.status(), Some(WireStatus::UnknownTenant));
    handle.shutdown();
}

#[test]
fn the_full_verb_set_round_trips() {
    let handle = two_tenant_server();
    let addr = handle.local_addr();
    let mut client = Client::connect(addr, "acme").expect("connects");

    let titles = client.point(DOC, "//title").expect("point");
    assert_eq!(titles, 12);
    let twig = client.twig(DOC, SPEC, "//title").expect("twig");
    assert_eq!(twig, titles, "virtual view projects every title");
    let flwr = client
        .flwr(
            DOC,
            r#"for $t in virtualDoc("books.xml", "title { author { name } }")//title
               return <t>{$t/text()}</t>"#,
        )
        .expect("flwr");
    assert!(flwr.starts_with("<results>"), "{flwr}");

    // An edit through the wire is durable and visible to later queries.
    let seq = client
        .edit(&Edit::InsertSubtree {
            uri: DOC.into(),
            parent: "1".into(),
            pos: 0,
            xml: "<book><title>Wired</title><author><name>W</name></author></book>".into(),
        })
        .expect("edit applies");
    assert!(seq >= 1, "WAL sequence is 1-based, got {seq}");
    assert_eq!(client.point(DOC, "//title").expect("re-point"), titles + 1);

    // Snapshot reflects the traffic this client just generated.
    let snap = client.snapshot(DOC).expect("snapshot");
    let parsed = Json::parse(&snap).expect("snapshot is valid JSON");
    let keys: Vec<&str> = parsed
        .as_obj()
        .expect("snapshot is an object")
        .iter()
        .map(|(k, v)| {
            assert!(v.as_u64().is_some(), "{k} is a counter: {snap}");
            k.as_str()
        })
        .collect();
    assert_eq!(
        keys,
        [
            "queries",
            "failures",
            "edits",
            "edit_failures",
            "result_nodes",
            "cache_hits",
            "cache_misses",
            "maintained",
            "recomputed",
            "fallback_evictions",
            "buffer_hits",
            "buffer_misses",
        ],
        "{snap}"
    );
    assert_eq!(
        parsed.get("edits").and_then(Json::as_u64),
        Some(1),
        "{snap}"
    );

    // Metrics verb and HTTP scrape agree on the families.
    let wire_metrics = client.metrics().expect("metrics verb");
    assert!(wire_metrics.contains("vh_serve_admitted_total"));
    let scraped = http_metrics(addr).expect("HTTP scrape");
    assert!(scraped.contains("vh_serve_admitted_total"));
    assert!(scraped.contains("vh_serve_stage_ns_bucket"));
    handle.shutdown();
}

#[test]
fn overload_sheds_with_the_distinct_status_and_counts_it() {
    let mut registry = Registry::new();
    // Two-token bucket that never refills: the third query sheds.
    registry
        .add_tenant(
            "tight",
            books_engine(4, 3),
            TenantQuota {
                burst: 2.0,
                per_sec: 0.0,
                max_concurrent: 8,
                edit_cost: 4.0,
            },
        )
        .expect("registers");
    let handle = Server::bind("127.0.0.1:0", registry, config(2))
        .expect("binds")
        .start()
        .expect("starts");
    let mut client = Client::connect(handle.local_addr(), "tight").expect("connects");

    assert!(client.point(DOC, "//book").is_ok());
    assert!(client.point(DOC, "//book").is_ok());
    let err = client.point(DOC, "//book").expect_err("bucket is empty");
    assert_eq!(err.status(), Some(WireStatus::Shed));

    // Shed ≠ dropped: the connection survives, and admin verbs (cost 0)
    // still pass the bucket.
    let snap = client.snapshot(DOC).expect("admin bypasses the bucket");
    assert!(snap.contains("\"queries\":2"), "{snap}");
    assert_eq!(handle.metrics().shed_total(), 1);
    assert_eq!(
        handle
            .metrics()
            .dropped_connections_total
            .load(Ordering::Relaxed),
        0
    );
    handle.shutdown();
}

#[test]
fn engine_limits_surface_as_resource_exhausted_not_shed() {
    let mut engine = books_engine(40, 11);
    engine.set_limits(Limits {
        max_steps: 50, // a step over every author trips this
        ..Limits::default()
    });
    let mut registry = Registry::new();
    registry
        .add_tenant("acme", engine, TenantQuota::default())
        .expect("registers");
    let handle = Server::bind("127.0.0.1:0", registry, config(2))
        .expect("binds")
        .start()
        .expect("starts");
    let mut client = Client::connect(handle.local_addr(), "acme").expect("connects");

    // `//book//name` would not: both `//` steps are answered from the
    // arena and charge one step per context (1 + 40), while each child
    // step charges its whole context set (1 + 40 books + their authors).
    let err = client
        .point(DOC, "//book/author/name")
        .expect_err("limit trips");
    assert_eq!(err.status(), Some(WireStatus::ResourceExhausted));
    assert_eq!(handle.metrics().shed_total(), 0, "limits are not sheds");
    handle.shutdown();
}

#[test]
fn query_errors_keep_the_connection_alive() {
    let handle = two_tenant_server();
    let mut client = Client::connect(handle.local_addr(), "acme").expect("connects");

    let err = client
        .point("no-such.xml", "//a")
        .expect_err("unknown document");
    assert_eq!(err.status(), Some(WireStatus::QueryError));
    let err = client.point(DOC, "//[").expect_err("bad path");
    assert_eq!(err.status(), Some(WireStatus::QueryError));
    // Same connection still answers.
    assert_eq!(client.point(DOC, "//book").expect("recovers"), 12);
    handle.shutdown();
}

#[test]
fn a_panicking_request_is_answered_and_the_server_keeps_serving() {
    // Under this view `//node()/text()` hits a non-total virtual order
    // whose sort can panic. One such request per worker must not take
    // the pool down; their status is not asserted, only that each is
    // answered and a plain query still is afterwards.
    let mut registry = Registry::new();
    registry
        .add_tenant("acme", books_engine(14, 5), TenantQuota::default())
        .expect("registers");
    let handle = Server::bind("127.0.0.1:0", registry, config(2))
        .expect("binds")
        .start()
        .expect("starts");
    let addr = handle.local_addr();
    for _ in 0..2 {
        let mut client = Client::connect(addr, "acme").expect("connects");
        let answer = client.twig(DOC, "name { author { title } }", "//node()/text()");
        assert!(
            answer
                .as_ref()
                .map_or_else(|e| e.status().is_some(), |_| true),
            "answered in band: {answer:?}"
        );
    }
    let mut client = Client::connect(addr, "acme").expect("connects");
    assert_eq!(client.point(DOC, "//book").expect("still serves"), 14);
    let metrics = handle.metrics();
    assert_eq!(metrics.in_flight.load(Ordering::Relaxed), 0);
    assert_eq!(metrics.dropped_connections_total.load(Ordering::Relaxed), 0);
    handle.shutdown();
}

#[test]
fn a_client_crash_mid_frame_leaves_the_server_serviceable() {
    let handle = two_tenant_server();
    let addr = handle.local_addr();

    // Write a valid header promising 64 payload bytes, send 10, vanish.
    let payload = Request {
        address: Address::new("acme", DOC, "query"),
        body: RequestBody::Point {
            path: "//title/long/enough/path".into(),
        },
    }
    .encode()
    .expect("encodes");
    let framed = frame(&payload);
    {
        let mut stream = TcpStream::connect(addr).expect("connects");
        stream
            .write_all(&framed[..framed.len() / 2])
            .expect("half a frame leaves");
        // Drop: RST/FIN mid-frame — the "client crashed" case.
    }

    // The worker reclaims itself (stall timeout or EOF) and the pool
    // keeps serving; the drop is visible in the metrics.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let dropped = handle
            .metrics()
            .dropped_connections_total
            .load(Ordering::Relaxed);
        if dropped >= 1 || std::time::Instant::now() > deadline {
            assert!(dropped >= 1, "mid-frame death must be counted as dropped");
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut client = Client::connect(addr, "acme").expect("fresh client connects");
    assert_eq!(client.point(DOC, "//book").expect("still serves"), 12);
    handle.shutdown();
}

#[test]
fn eight_clients_of_mixed_traffic_see_zero_drops_and_zero_sheds() {
    let mut registry = Registry::new();
    registry
        .add_tenant("acme", books_engine(24, 5), TenantQuota::default())
        .expect("registers");
    let handle = Server::bind("127.0.0.1:0", registry, config(10))
        .expect("binds")
        .start()
        .expect("starts");
    let addr = handle.local_addr();

    let mut threads = Vec::new();
    for c in 0..8 {
        threads.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr, "acme")?;
            let mut answered = 0u64;
            for i in 0..25 {
                match (c + i) % 3 {
                    0 => {
                        client.point(DOC, "//title")?;
                    }
                    1 => {
                        client.twig(DOC, SPEC, "//author")?;
                    }
                    _ => {
                        client.edit(&Edit::InsertSubtree {
                            uri: DOC.into(),
                            parent: "1".into(),
                            pos: 0,
                            xml: format!(
                                "<book><title>T {c}.{i}</title>\
                                 <author><name>N</name></author></book>"
                            ),
                        })?;
                    }
                }
                answered += 1;
            }
            Ok::<u64, vh_serve::ClientError>(answered)
        }));
    }
    let mut total = 0;
    for t in threads {
        total += t
            .join()
            .expect("client thread ran")
            .expect("every request answered");
    }
    assert_eq!(total, 8 * 25);
    let m = handle.metrics();
    assert_eq!(m.shed_total(), 0, "default quota never sheds");
    assert_eq!(m.dropped_connections_total.load(Ordering::Relaxed), 0);
    assert_eq!(m.admitted_total.load(Ordering::Relaxed), 200);
    assert_eq!(m.in_flight.load(Ordering::Relaxed), 0);
    // Every executed request waited for its engine guard exactly once,
    // and the scrape (which executes nothing) renders that stage.
    assert_eq!(m.exec_ns.count(), 200);
    assert_eq!(m.lock_wait_ns.count(), m.exec_ns.count());
    let scraped = http_metrics(addr).expect("HTTP scrape");
    assert!(
        scraped.contains("vh_serve_stage_ns_count{stage=\"lock_wait\"} 200"),
        "{scraped}"
    );
    handle.shutdown();
}
