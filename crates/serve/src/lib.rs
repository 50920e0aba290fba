#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # vh-serve — a multi-tenant query server over the frozen v1 request API
//!
//! Everything the engine exposes flows through
//! `Engine::run(QueryRequest) -> QueryOutcome`; this crate puts a wire
//! in front of it. The moving parts:
//!
//! * [`wire`] — the **VHRPC** framing (`VHRPC\x01` magic, CRC32-guarded
//!   payloads) and the prefix-coded `tenant.document.query-class`
//!   address, whose segments reuse vh-pbn's order-preserving ordinal
//!   encoding. Encoded addresses sort correctly under `memcmp` and
//!   carry their tenant as an unambiguous byte prefix.
//! * [`registry`] — tenants resolved by a SWAR `starts_with` over those
//!   prefixes, each holding its own [`vh_query::Engine`] behind an
//!   `RwLock`: queries share it, edits take it exclusively.
//! * [`admission`] — per-tenant token buckets and concurrency caps.
//!   Overload is *shed* with a distinct wire status, never dropped.
//! * [`metrics`] — live `vh_serve_*` counters and per-stage latency
//!   histograms in Prometheus text format, scrapable both by the
//!   `metrics` verb and a plain HTTP `GET` on the same port.
//! * [`server`] — the thread-per-core accept loop over
//!   `std::net::TcpListener`; [`client`] — the matching blocking client.
//!
//! ```no_run
//! use vh_query::Engine;
//! use vh_serve::{Client, Registry, Server, ServerConfig, TenantQuota};
//!
//! let mut registry = Registry::new();
//! let mut engine = Engine::new();
//! engine.register_xml("a.xml", "<a><b/></a>").unwrap();
//! registry.add_tenant("acme", engine, TenantQuota::default()).unwrap();
//!
//! let server = Server::bind("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
//! let addr = server.local_addr();
//! let handle = server.start().unwrap();
//!
//! let mut client = Client::connect(addr, "acme").unwrap();
//! assert_eq!(client.point("a.xml", "//b").unwrap(), 1);
//! handle.shutdown();
//! ```

pub mod admission;
pub mod client;
pub mod metrics;
pub mod registry;
pub mod server;
pub mod wire;

pub use admission::{Admission, AdmitGuard, ShedReason, TenantQuota};
pub use client::{http_metrics, Client, ClientError};
pub use metrics::{LatencyHisto, ServeMetrics, LATENCY_BOUNDS_NS};
pub use registry::{Registry, Tenant};
pub use server::{snapshot_json, Server, ServerConfig, ServerHandle};
pub use wire::{Address, FrameDefect, Reject, Request, RequestBody, Response, Verb, WireStatus};
