//! Live `vh_serve_*` server metrics: lock-free counters and per-stage
//! latency histograms, rendered as a Prometheus text exposition on both
//! the `metrics` verb and the HTTP `/metrics` endpoint.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use vh_obs::prom::PromWriter;

/// Histogram bucket upper bounds in nanoseconds: 1µs … 1s, decades.
pub const LATENCY_BOUNDS_NS: [f64; 7] = [1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9];

/// A fixed-bucket latency histogram over [`LATENCY_BOUNDS_NS`].
#[derive(Debug, Default)]
pub struct LatencyHisto {
    buckets: [AtomicU64; LATENCY_BOUNDS_NS.len() + 1],
    sum_ns: AtomicU64,
}

impl LatencyHisto {
    /// Records one observation.
    pub fn observe(&self, ns: u64) {
        let slot = LATENCY_BOUNDS_NS
            .iter()
            .position(|&b| (ns as f64) <= b)
            .unwrap_or(LATENCY_BOUNDS_NS.len());
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    fn snapshot(&self) -> ([u64; LATENCY_BOUNDS_NS.len() + 1], u64) {
        let mut counts = [0u64; LATENCY_BOUNDS_NS.len() + 1];
        for (i, b) in self.buckets.iter().enumerate() {
            counts[i] = b.load(Ordering::Relaxed);
        }
        (counts, self.sum_ns.load(Ordering::Relaxed))
    }
}

/// The server's live counters. One instance is shared by every worker
/// thread; all fields are plain atomics, so scraping never blocks the
/// request path.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Requests admitted and not yet answered.
    pub in_flight: AtomicU64,
    /// Requests past admission control, cumulative.
    pub admitted_total: AtomicU64,
    /// Requests shed by the token bucket.
    pub shed_quota_total: AtomicU64,
    /// Requests shed by the concurrency cap.
    pub shed_concurrency_total: AtomicU64,
    /// Requests answered with a non-`ok`, non-`shed` status.
    pub errored_total: AtomicU64,
    /// Connections accepted, cumulative.
    pub connections_total: AtomicU64,
    /// Connections that died mid-frame (client crash, timeout, defect).
    pub dropped_connections_total: AtomicU64,
    /// Time from first payload byte to decoded request.
    pub decode_ns: LatencyHisto,
    /// Time a request waits for its tenant's engine guard (shared for
    /// queries and snapshots, exclusive for edits).
    pub lock_wait_ns: LatencyHisto,
    /// Time executing the request (query, edit, snapshot), lock wait
    /// included.
    pub exec_ns: LatencyHisto,
    /// Time from decoded request to response bytes written.
    pub total_ns: LatencyHisto,
}

impl ServeMetrics {
    /// A zeroed metrics block.
    pub fn new() -> ServeMetrics {
        ServeMetrics::default()
    }

    /// Records a lock wait that began at `since`.
    pub fn lock_wait_since(&self, since: Instant) {
        self.lock_wait_ns.observe(since.elapsed().as_nanos() as u64);
    }

    /// Requests shed for any reason.
    pub fn shed_total(&self) -> u64 {
        self.shed_quota_total.load(Ordering::Relaxed)
            + self.shed_concurrency_total.load(Ordering::Relaxed)
    }

    /// The `vh_serve_*` Prometheus text exposition.
    pub fn render(&self) -> String {
        let mut w = PromWriter::new();
        w.gauge(
            "vh_serve_in_flight",
            "Requests admitted and not yet answered.",
        );
        w.sample(
            "vh_serve_in_flight",
            &[],
            self.in_flight.load(Ordering::Relaxed),
        );
        w.counter(
            "vh_serve_admitted_total",
            "Requests past admission control.",
        );
        w.sample(
            "vh_serve_admitted_total",
            &[],
            self.admitted_total.load(Ordering::Relaxed),
        );
        w.counter("vh_serve_shed_total", "Requests shed by admission control.");
        w.sample(
            "vh_serve_shed_total",
            &[("reason", "quota")],
            self.shed_quota_total.load(Ordering::Relaxed),
        );
        w.sample(
            "vh_serve_shed_total",
            &[("reason", "concurrency")],
            self.shed_concurrency_total.load(Ordering::Relaxed),
        );
        w.counter(
            "vh_serve_errored_total",
            "Requests answered with a non-ok, non-shed status.",
        );
        w.sample(
            "vh_serve_errored_total",
            &[],
            self.errored_total.load(Ordering::Relaxed),
        );
        w.counter("vh_serve_connections_total", "Connections accepted.");
        w.sample(
            "vh_serve_connections_total",
            &[],
            self.connections_total.load(Ordering::Relaxed),
        );
        w.counter(
            "vh_serve_dropped_connections_total",
            "Connections that died mid-frame.",
        );
        w.sample(
            "vh_serve_dropped_connections_total",
            &[],
            self.dropped_connections_total.load(Ordering::Relaxed),
        );
        w.histogram(
            "vh_serve_stage_ns",
            "Per-stage request latency in nanoseconds.",
        );
        for (stage, histo) in [
            ("decode", &self.decode_ns),
            ("lock_wait", &self.lock_wait_ns),
            ("exec", &self.exec_ns),
            ("total", &self.total_ns),
        ] {
            let (counts, sum) = histo.snapshot();
            w.histogram_samples(
                "vh_serve_stage_ns",
                &[("stage", stage)],
                &LATENCY_BOUNDS_NS,
                &counts,
                sum,
            );
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_land_in_the_right_bucket() {
        let h = LatencyHisto::default();
        h.observe(500); // ≤ 1e3
        h.observe(5_000); // ≤ 1e4
        h.observe(2_000_000_000); // overflow
        let (counts, sum) = h.snapshot();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[LATENCY_BOUNDS_NS.len()], 1);
        assert_eq!(sum, 500 + 5_000 + 2_000_000_000);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn the_exposition_carries_every_family() {
        let m = ServeMetrics::new();
        m.admitted_total.fetch_add(3, Ordering::Relaxed);
        m.shed_quota_total.fetch_add(1, Ordering::Relaxed);
        m.exec_ns.observe(1234);
        let text = m.render();
        for family in [
            "vh_serve_in_flight",
            "vh_serve_admitted_total",
            "vh_serve_shed_total",
            "vh_serve_errored_total",
            "vh_serve_connections_total",
            "vh_serve_dropped_connections_total",
            "vh_serve_stage_ns_bucket",
            "vh_serve_stage_ns_sum",
            "vh_serve_stage_ns_count",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
        assert!(text.contains("vh_serve_shed_total{reason=\"quota\"} 1"));
        assert!(text.contains("stage=\"exec\""));
        assert!(text.contains("stage=\"lock_wait\""));
    }
}
