#![forbid(unsafe_code)]

//! Observability for the virtual-hierarchy query stack.
//!
//! The paper's central claim is a *cost* claim — evaluating queries over
//! virtual hierarchies is "modest" versus materialize-then-renumber — and
//! this crate is how the serving path substantiates it per query instead
//! of only in offline benchmarks. It provides:
//!
//! - [`TraceBuilder`] / [`Span`] / [`QueryTrace`] — a nesting stage timer
//!   over the monotonic clock, assembled by the engine into a per-query
//!   span tree (parse → plan → exec, with per-view cache provenance and
//!   per-axis range selections as children);
//! - counter families ([`AxisCounters`], [`TwigCounters`],
//!   [`SjoinCounters`], [`QueryCounterCells`]) — relaxed atomics so the
//!   instrumented hot paths stay shareable across threads, snapshotted
//!   into plain structs for reporting;
//! - [`QueryStats`] — the per-query roll-up returned in every
//!   `QueryOutcome`, cheap enough to fill even with tracing off;
//! - exporters: a human-readable tree ([`QueryTrace::render_text`]),
//!   the trace JSON document ([`QueryTrace::to_json`] /
//!   [`QueryTrace::from_json`]), and a Prometheus-text writer
//!   ([`PromWriter`]) for cumulative engine counters;
//! - [`Json`] — the workspace's one JSON codec (parser, pretty and
//!   compact renderers, no external deps), shared by the trace export,
//!   the bench reports and the engine's snapshot and recovery documents.
//!
//! Every [`TraceBuilder`] method is a single branch on an enabled flag
//! decided once per query; with tracing off no span is allocated and no
//! clock is read beyond the handful of stage timestamps that feed
//! [`QueryStats`]. The `obs/` bench rows gate the disabled-mode overhead
//! at ≤ 2%.

#![warn(missing_docs)]

pub mod counters;
pub mod json;
pub mod prom;
pub mod span;
pub mod text;

pub use counters::{
    AxisCounters, AxisStats, CacheOutcome, QueryCounterCells, QueryCounters, QueryStats,
    RangeChoice, SjoinCounters, SjoinStats, TwigCounters, TwigStats, ViewProvenance,
};
pub use json::{Json, JsonError};
pub use prom::PromWriter;
pub use span::{is_stable_span_name, QueryTrace, Span, TraceBuilder, STABLE_SPAN_NAMES};
