#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # vpbn-suite — querying virtual hierarchies with virtual prefix-based numbers
//!
//! Facade crate for the reproduction of *"Querying Virtual Hierarchies using
//! Virtual Prefix-Based Numbers"* (Dyreson, Bhowmick, Grapp — SIGMOD 2014).
//! It re-exports the public API of every workspace crate so examples and
//! downstream users need a single dependency:
//!
//! * [`xml`] — XML data model, parser, serializer ([`vh_xml`]).
//! * [`pbn`] — prefix-based (Dewey) numbering ([`vh_pbn`]).
//! * [`dataguide`] — structural summaries ([`vh_dataguide`]).
//! * [`core`] — the paper's contribution: vDataGuides, level arrays, vPBN
//!   numbers, virtual axes and virtual values ([`vh_core`]).
//! * [`storage`] — simulated XML DBMS storage: page store, value index, WAL
//!   ([`vh_storage`]).
//! * [`query`] — XPath and mini-XQuery engine with `virtualDoc`
//!   ([`vh_query`]); `query::api` is the blessed flat entry surface.
//! * [`obs`] — query observability: span trees, stage counters and the
//!   EXPLAIN text/JSON/Prometheus exporters ([`vh_obs`]).
//! * [`workload`] — synthetic corpora and transformation scenarios
//!   ([`vh_workload`]).
//! * [`serve`] — the multi-tenant VHRPC query server and its blocking
//!   client: prefix-routed tenants, admission control, live metrics
//!   ([`vh_serve`]).
//!
//! Failures from every layer converge into [`VhError`], which carries a
//! stable error code, a process exit code, and the full cause chain (see
//! the [`error`] module and `DESIGN.md` § "Fault model & error taxonomy").
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the architecture.

pub mod error;

pub use error::VhError;

pub use vh_core as core;
pub use vh_dataguide as dataguide;
pub use vh_obs as obs;
pub use vh_pbn as pbn;
pub use vh_query as query;
pub use vh_serve as serve;
pub use vh_storage as storage;
pub use vh_workload as workload;
pub use vh_xml as xml;
