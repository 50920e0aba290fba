//! The thread-per-core VHRPC server over `std::net::TcpListener`.
//!
//! Each worker owns a clone of the listener and runs a nonblocking
//! accept loop; an accepted connection is served to completion on that
//! worker (persistent connections, one frame in flight at a time — the
//! protocol is strictly request/response). Shutdown is cooperative: a
//! shared flag that every accept loop and every blocked read polls.
//!
//! The listener port doubles as a diagnostics endpoint: a connection
//! whose first bytes spell `GET ` is answered with an HTTP `200` whose
//! body is the live [`ServeMetrics`] exposition, so a stock Prometheus
//! scraper can point at the VHRPC port directly.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vh_obs::Json;
use vh_query::{Edit, Engine, QueryError, QueryRequest};

use crate::metrics::ServeMetrics;
use crate::registry::{Registry, Tenant};
use crate::wire::{
    frame, parse_header, verify_payload, Request, RequestBody, Response, WireStatus, HEADER_LEN,
};

/// Server knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker (accept + serve) threads. Defaults to the machine's
    /// available parallelism; a connection occupies its worker for its
    /// lifetime, so size this at least to the expected client count.
    pub workers: usize,
    /// Socket read poll interval: how often a blocked read re-checks
    /// the shutdown flag.
    pub poll_interval: Duration,
    /// How long a connection may sit mid-frame without producing a
    /// byte before it is dropped as dead.
    pub stall_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
            poll_interval: Duration::from_millis(10),
            stall_timeout: Duration::from_secs(2),
        }
    }
}

struct Shared {
    registry: Registry,
    metrics: ServeMetrics,
    shutdown: AtomicBool,
    config: ServerConfig,
}

/// A bound-but-not-yet-running server.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port).
    pub fn bind(
        addr: impl ToSocketAddrs,
        registry: Registry,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            addr,
            shared: Arc::new(Shared {
                registry,
                metrics: ServeMetrics::new(),
                shutdown: AtomicBool::new(false),
                config,
            }),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Spawns the worker threads and returns the running handle.
    pub fn start(self) -> std::io::Result<ServerHandle> {
        self.listener.set_nonblocking(true)?;
        let workers = self.shared.config.workers.max(1);
        let mut threads = Vec::with_capacity(workers);
        for w in 0..workers {
            let listener = self.listener.try_clone()?;
            let shared = Arc::clone(&self.shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("vh-serve-{w}"))
                    .spawn(move || accept_loop(&listener, &shared))?,
            );
        }
        Ok(ServerHandle {
            addr: self.addr,
            shared: self.shared,
            threads,
        })
    }
}

/// A running server: owns the worker threads.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live server metrics.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.shared.metrics
    }

    /// The tenant registry (immutable once serving).
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// Raises the shutdown flag and joins every worker. In-flight
    /// requests finish; idle connections close at the next poll tick.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for t in self.threads {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                shared
                    .metrics
                    .connections_total
                    .fetch_add(1, Ordering::Relaxed);
                serve_connection(stream, shared);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(shared.config.poll_interval);
            }
            Err(_) => std::thread::sleep(shared.config.poll_interval),
        }
    }
}

enum ReadOutcome {
    /// The buffer was filled.
    Full,
    /// Clean EOF before the first byte of the buffer.
    ClosedIdle,
    /// EOF, stall, or I/O failure partway through the buffer.
    Died,
    /// The server is shutting down.
    Shutdown,
}

/// Fills `buf` from the stream, tolerating read-timeout ticks so idle
/// persistent connections can wait indefinitely while a *stalled* frame
/// (bytes started, then silence) is dropped after `stall_timeout`.
fn read_full(
    stream: &mut TcpStream,
    buf: &mut [u8],
    shared: &Shared,
    mid_message: bool,
) -> ReadOutcome {
    let mut filled = 0;
    let mut last_progress = Instant::now();
    while filled < buf.len() {
        if shared.shutdown.load(Ordering::Acquire) {
            return ReadOutcome::Shutdown;
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 && !mid_message {
                    ReadOutcome::ClosedIdle
                } else {
                    ReadOutcome::Died
                };
            }
            Ok(n) => {
                filled += n;
                last_progress = Instant::now();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                let stalled = filled > 0 || mid_message;
                if stalled && last_progress.elapsed() >= shared.config.stall_timeout {
                    return ReadOutcome::Died;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Died,
        }
    }
    ReadOutcome::Full
}

fn serve_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.poll_interval));
    loop {
        let mut header = [0u8; HEADER_LEN];
        match read_full(&mut stream, &mut header, shared, false) {
            ReadOutcome::Full => {}
            ReadOutcome::ClosedIdle | ReadOutcome::Shutdown => return,
            ReadOutcome::Died => {
                shared
                    .metrics
                    .dropped_connections_total
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        // HTTP sniffing: a metrics scrape, not a VHRPC frame.
        if header.starts_with(b"GET ") {
            serve_http_metrics(&mut stream, &header, shared);
            return;
        }
        let t_decode = Instant::now();
        let (len, crc) = match parse_header(&header) {
            Ok(ok) => ok,
            Err(defect) => {
                // The stream is unframeable: answer and hang up.
                let resp = Response::Error {
                    status: WireStatus::BadFrame,
                    message: defect.to_string(),
                };
                let _ = stream.write_all(&frame(&resp.encode()));
                shared.metrics.errored_total.fetch_add(1, Ordering::Relaxed);
                shared
                    .metrics
                    .dropped_connections_total
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        let mut payload = vec![0u8; len];
        match read_full(&mut stream, &mut payload, shared, true) {
            ReadOutcome::Full => {}
            ReadOutcome::Shutdown => return,
            ReadOutcome::ClosedIdle | ReadOutcome::Died => {
                shared
                    .metrics
                    .dropped_connections_total
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        if let Err(defect) = verify_payload(crc, &payload) {
            let resp = Response::Error {
                status: WireStatus::BadFrame,
                message: defect.to_string(),
            };
            let _ = stream.write_all(&frame(&resp.encode()));
            shared.metrics.errored_total.fetch_add(1, Ordering::Relaxed);
            shared
                .metrics
                .dropped_connections_total
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
        let response = handle_payload(&payload, shared, t_decode);
        if stream.write_all(&frame(&response.encode())).is_err() {
            shared
                .metrics
                .dropped_connections_total
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
    }
}

/// Answers an HTTP GET on the VHRPC port with the metrics exposition.
fn serve_http_metrics(stream: &mut TcpStream, already: &[u8], shared: &Shared) {
    // Drain the rest of the request head (bounded) so the client's
    // socket isn't reset before it reads our response.
    let mut head = already.to_vec();
    let mut buf = [0u8; 1024];
    let deadline = Instant::now() + shared.config.stall_timeout;
    while !head.windows(4).any(|w| w == b"\r\n\r\n")
        && head.len() < 8192
        && Instant::now() < deadline
    {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => break,
        }
    }
    let body = shared.metrics.render();
    let resp = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    let _ = stream.write_all(resp.as_bytes());
}

/// Decodes, routes, admits, and executes one request payload.
fn handle_payload(payload: &[u8], shared: &Shared, t_decode: Instant) -> Response {
    // Route on the raw bytes first: an unknown tenant is answered
    // without spending a full decode on it.
    let tenant = shared.registry.route(payload);
    let request = match Request::decode(payload) {
        Ok(r) => r,
        Err(reject) => {
            shared.metrics.errored_total.fetch_add(1, Ordering::Relaxed);
            return Response::reject(reject);
        }
    };
    shared
        .metrics
        .decode_ns
        .observe(t_decode.elapsed().as_nanos() as u64);
    let Some(tenant) = tenant else {
        shared.metrics.errored_total.fetch_add(1, Ordering::Relaxed);
        return Response::Error {
            status: WireStatus::UnknownTenant,
            message: format!("no tenant routes '{}'", request.address.tenant),
        };
    };
    let guard = match tenant.admission().try_admit(&request.address.class) {
        Ok(g) => g,
        Err(reason) => {
            match reason {
                crate::admission::ShedReason::Quota => shared
                    .metrics
                    .shed_quota_total
                    .fetch_add(1, Ordering::Relaxed),
                crate::admission::ShedReason::Concurrency => shared
                    .metrics
                    .shed_concurrency_total
                    .fetch_add(1, Ordering::Relaxed),
            };
            return Response::Error {
                status: WireStatus::Shed,
                message: format!("tenant '{}' over {} budget", tenant.name(), reason.label()),
            };
        }
    };
    shared
        .metrics
        .admitted_total
        .fetch_add(1, Ordering::Relaxed);
    shared.metrics.in_flight.fetch_add(1, Ordering::Relaxed);
    let t_exec = Instant::now();
    // A request that panics is answered in band as a query error: the
    // worker, its connection and the counters below all survive it.
    // vet: allow(hold-across-blocking) — the admission guard *is* the in-flight count: it must span the engine call so shedding sees true concurrency, and it excludes no other request (per-tenant cap)
    let outcome = catch_unwind(AssertUnwindSafe(|| execute(&request, tenant, shared)));
    let response = outcome.unwrap_or_else(|_| Response::Error {
        status: WireStatus::QueryError,
        message: "internal error: the request panicked".to_owned(),
    });
    shared
        .metrics
        .exec_ns
        .observe(t_exec.elapsed().as_nanos() as u64);
    shared
        .metrics
        .total_ns
        .observe(t_decode.elapsed().as_nanos() as u64);
    shared.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
    if matches!(response, Response::Error { .. }) {
        shared.metrics.errored_total.fetch_add(1, Ordering::Relaxed);
    }
    drop(guard);
    response
}

fn query_status(e: &QueryError) -> WireStatus {
    match e {
        QueryError::ResourceExhausted { .. } => WireStatus::ResourceExhausted,
        _ => WireStatus::QueryError,
    }
}

fn execute(request: &Request, tenant: &Tenant, shared: &Shared) -> Response {
    let doc = &request.address.document;
    match &request.body {
        RequestBody::Point { path } => {
            let waited = Instant::now();
            let engine = tenant.read();
            shared.metrics.lock_wait_since(waited);
            // vet: allow(hold-across-blocking) — a shared read guard: queries on the tenant run concurrently and only an edit waits for this one to finish (one writer per tenant)
            match engine.run(&QueryRequest::path(doc, path)) {
                Ok(out) => Response::Count(out.nodes.map_or(0, |n| n.len() as u64)),
                Err(e) => Response::Error {
                    status: query_status(&e),
                    message: e.to_string(),
                },
            }
        }
        RequestBody::Twig { spec, path } => {
            let waited = Instant::now();
            let engine = tenant.read();
            shared.metrics.lock_wait_since(waited);
            // vet: allow(hold-across-blocking) — the same shared read guard as the Point arm: it excludes only edits
            match engine.run(&QueryRequest::virtual_path(doc, spec, path)) {
                Ok(out) => Response::Count(out.nodes.map_or(0, |n| n.len() as u64)),
                Err(e) => Response::Error {
                    status: query_status(&e),
                    message: e.to_string(),
                },
            }
        }
        RequestBody::Flwr { query } => {
            let waited = Instant::now();
            let engine = tenant.read();
            shared.metrics.lock_wait_since(waited);
            // vet: allow(hold-across-blocking) — the same shared read guard as the Point arm: it excludes only edits
            match engine.run(&QueryRequest::flwr(query.as_str())) {
                Ok(out) => Response::Text(out.to_string_compact()),
                Err(e) => Response::Error {
                    status: query_status(&e),
                    message: e.to_string(),
                },
            }
        }
        RequestBody::Edit { payload } => {
            let edit = match Edit::decode(payload) {
                Ok(e) => e,
                Err(e) => {
                    return Response::Error {
                        status: WireStatus::BadRequest,
                        message: format!("edit payload: {e}"),
                    }
                }
            };
            if edit.uri() != doc {
                return Response::Error {
                    status: WireStatus::BadRequest,
                    message: format!(
                        "edit targets '{}' but the address names '{doc}'",
                        edit.uri()
                    ),
                };
            }
            let waited = Instant::now();
            let mut engine = tenant.engine();
            shared.metrics.lock_wait_since(waited);
            // vet: allow(hold-across-blocking) — the exclusive guard: an edit must not overlap the tenant's queries or other edits; the WAL append inside apply() is the tenant's own durability, not shared I/O
            match engine.apply(edit) {
                Ok(receipt) => Response::Seq(receipt.seq),
                Err(e) => Response::Error {
                    status: query_status(&e),
                    message: e.to_string(),
                },
            }
        }
        RequestBody::Snapshot => {
            let waited = Instant::now();
            let engine = tenant.read();
            shared.metrics.lock_wait_since(waited);
            Response::Text(snapshot_json(&engine))
        }
        RequestBody::Metrics => Response::Text(shared.metrics.render()),
    }
}

/// Renders the engine's composite snapshot as a small flat JSON object
/// of counters, in a fixed key order.
pub fn snapshot_json(engine: &Engine) -> String {
    let snap = engine.snapshot();
    let fields: [(&str, u64); 11] = [
        ("queries", snap.queries.queries),
        ("failures", snap.queries.failures),
        ("edits", snap.queries.edits),
        ("edit_failures", snap.queries.edit_failures),
        ("result_nodes", snap.queries.result_nodes),
        ("cache_hits", snap.cache.total_hits()),
        ("cache_misses", snap.cache.total_misses()),
        ("maintained", snap.cache.maintained),
        ("recomputed", snap.cache.recomputed),
        ("buffer_hits", snap.buffers.hits),
        ("buffer_misses", snap.buffers.misses),
    ];
    Json::Obj(
        fields
            .iter()
            .map(|&(k, v)| (k.to_string(), Json::UInt(v)))
            .collect(),
    )
    .render_compact()
}
