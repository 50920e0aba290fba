//! Counter families for the instrumented hot paths, plus the per-query
//! [`QueryStats`] roll-up.
//!
//! The live counter types (`*Counters`, [`QueryCounterCells`]) use relaxed
//! atomics so the axis scans, twig seeks and structural joins can stay
//! `Sync` and count from worker threads without locks; each exposes a
//! `snapshot()` into a plain data struct for reporting. The hot paths
//! aggregate locally and publish with a *single* `fetch_add` per call, so
//! enabling counters never adds per-element atomic traffic.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

/// Cap on recorded [`RangeChoice`] detail rows per query: enough for any
/// EXPLAIN a human reads, and a bound on allocation for huge queries.
pub const MAX_RANGE_RECORDS: usize = 64;

/// How a compiled view was obtained for a query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the compiled-view cache shard.
    Hit,
    /// Served from the cache, where the entry last survived an edit via
    /// delta maintenance rather than a fresh compute.
    Maintained,
    /// Computed this query (and inserted, when caching is on).
    Computed,
    /// Cache disabled in the execution options; always computed fresh.
    #[default]
    Bypassed,
}

impl CacheOutcome {
    /// Stable lowercase label used by the exporters.
    pub fn label(&self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Maintained => "maintained",
            CacheOutcome::Computed => "computed",
            CacheOutcome::Bypassed => "bypassed",
        }
    }
}

/// Cache provenance of the compiled view of one `virtualDoc` origin.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ViewProvenance {
    /// Document URI of the view.
    pub uri: String,
    /// vDataGuide specification text.
    pub spec: String,
    /// How the compiled view was obtained.
    pub cache: CacheOutcome,
}

/// One axis-range selection: the §5 byte-range chosen for a
/// `collect_related` scan, with both the type-index bracket and the
/// global arena slot bracket.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RangeChoice {
    /// Virtual path of the context node's type.
    pub context: String,
    /// Virtual path of the target type being collected.
    pub target: String,
    /// Number of pinned PBN components (the compatibility prefix length).
    pub pinned: u32,
    /// Whether the prefix subsumed every constraint (wholesale copy).
    pub exact: bool,
    /// Start of the half-open bracket in the target's type index.
    pub index_start: u64,
    /// End of the half-open bracket in the target's type index.
    pub index_end: u64,
    /// Start of the half-open slot bracket in the global PBN arena.
    pub arena_start: u64,
    /// End of the half-open slot bracket in the global PBN arena.
    pub arena_end: u64,
}

/// Plain snapshot of [`AxisCounters`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AxisStats {
    /// Range scans: one per context node and target type of a step.
    pub range_scans: u64,
    /// Candidate slots inside all chosen brackets.
    pub slots_scanned: u64,
    /// Scans where the prefix subsumed the predicate (wholesale copy).
    pub exact_regions: u64,
    /// Per-candidate predicate evaluations on the non-exact path.
    pub filter_checks: u64,
    /// Up to [`MAX_RANGE_RECORDS`] recorded range selections.
    pub ranges: Vec<RangeChoice>,
}

/// Live counters for the virtual-axis byte-range scans.
#[derive(Debug, Default)]
pub struct AxisCounters {
    range_scans: AtomicU64,
    slots_scanned: AtomicU64,
    exact_regions: AtomicU64,
    filter_checks: AtomicU64,
    ranges: Mutex<Vec<RangeChoice>>,
}

impl AxisCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        AxisCounters::default()
    }

    /// Records one `collect_related` scan: `slots` candidates in the
    /// bracket, whether the region was `exact`, and how many
    /// per-candidate `filter` predicate evaluations ran.
    pub fn record_scan(&self, slots: u64, exact: bool, filters: u64) {
        self.range_scans.fetch_add(1, Relaxed);
        self.slots_scanned.fetch_add(slots, Relaxed);
        if exact {
            self.exact_regions.fetch_add(1, Relaxed);
        }
        if filters != 0 {
            self.filter_checks.fetch_add(filters, Relaxed);
        }
    }

    /// Whether a detail [`RangeChoice`] would still be kept — checked
    /// *before* building one, so the string-bearing record is only
    /// allocated while under the cap.
    pub fn wants_range(&self) -> bool {
        self.ranges
            .lock()
            .is_ok_and(|r| r.len() < MAX_RANGE_RECORDS)
    }

    /// Stores a range-selection detail record (dropped once the cap is
    /// reached).
    pub fn push_range(&self, r: RangeChoice) {
        if let Ok(mut ranges) = self.ranges.lock() {
            if ranges.len() < MAX_RANGE_RECORDS {
                ranges.push(r);
            }
        }
    }

    /// Plain snapshot of the current totals and recorded ranges.
    pub fn snapshot(&self) -> AxisStats {
        AxisStats {
            range_scans: self.range_scans.load(Relaxed),
            slots_scanned: self.slots_scanned.load(Relaxed),
            exact_regions: self.exact_regions.load(Relaxed),
            filter_checks: self.filter_checks.load(Relaxed),
            ranges: self.ranges.lock().map(|r| r.clone()).unwrap_or_default(),
        }
    }
}

/// Plain snapshot of [`TwigCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TwigStats {
    /// `seek` calls issued by the twig-join cursor advance.
    pub seeks: u64,
    /// Merged twig matches returned.
    pub matches: u64,
}

/// Live counters for the twig-join operator.
#[derive(Debug, Default)]
pub struct TwigCounters {
    seeks: AtomicU64,
    matches: AtomicU64,
}

impl TwigCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        TwigCounters::default()
    }

    /// Adds locally-aggregated issued seeks.
    pub fn add_seeks(&self, n: u64) {
        if n != 0 {
            self.seeks.fetch_add(n, Relaxed);
        }
    }

    /// Adds merged twig matches.
    pub fn add_matches(&self, n: u64) {
        if n != 0 {
            self.matches.fetch_add(n, Relaxed);
        }
    }

    /// Plain snapshot of the current totals.
    pub fn snapshot(&self) -> TwigStats {
        TwigStats {
            seeks: self.seeks.load(Relaxed),
            matches: self.matches.load(Relaxed),
        }
    }
}

/// Plain snapshot of [`SjoinCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SjoinStats {
    /// Document-order comparisons evaluated by the join.
    pub comparisons: u64,
    /// (ancestor, descendant) result pairs produced.
    pub pairs: u64,
}

/// Live counters for the structural-join operators.
#[derive(Debug, Default)]
pub struct SjoinCounters {
    comparisons: AtomicU64,
    pairs: AtomicU64,
}

impl SjoinCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        SjoinCounters::default()
    }

    /// Adds locally-aggregated order comparisons.
    pub fn add_comparisons(&self, n: u64) {
        if n != 0 {
            self.comparisons.fetch_add(n, Relaxed);
        }
    }

    /// Adds produced result pairs.
    pub fn add_pairs(&self, n: u64) {
        if n != 0 {
            self.pairs.fetch_add(n, Relaxed);
        }
    }

    /// Plain snapshot of the current totals.
    pub fn snapshot(&self) -> SjoinStats {
        SjoinStats {
            comparisons: self.comparisons.load(Relaxed),
            pairs: self.pairs.load(Relaxed),
        }
    }
}

/// Cumulative engine-lifetime counters (a plain snapshot of
/// [`QueryCounterCells`]), reported in `EngineSnapshot` and rendered by
/// `Engine::metrics_text()`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryCounters {
    /// Queries attempted (successful or not).
    pub queries: u64,
    /// Queries that returned an error.
    pub failures: u64,
    /// Queries that ran with tracing enabled.
    pub traced: u64,
    /// Total nanoseconds spent parsing.
    pub parse_ns: u64,
    /// Total nanoseconds spent planning (view resolution/compilation).
    pub plan_ns: u64,
    /// Total nanoseconds spent executing.
    pub exec_ns: u64,
    /// Total end-to-end nanoseconds across all queries.
    pub total_ns: u64,
    /// Result nodes produced across all queries.
    pub result_nodes: u64,
    /// Edits applied successfully (`Engine::apply` and WAL replay).
    pub edits: u64,
    /// Edits rejected with an error.
    pub edit_failures: u64,
    /// Edits re-applied from the write-ahead log by `Engine::recover`.
    pub replayed_edits: u64,
    /// Delta-segment compactions (automatic and explicit).
    pub compactions: u64,
}

/// Live cumulative engine counters; one cell set per engine, updated with
/// a few relaxed adds per query.
#[derive(Debug, Default)]
pub struct QueryCounterCells {
    queries: AtomicU64,
    failures: AtomicU64,
    traced: AtomicU64,
    parse_ns: AtomicU64,
    plan_ns: AtomicU64,
    exec_ns: AtomicU64,
    total_ns: AtomicU64,
    result_nodes: AtomicU64,
    edits: AtomicU64,
    edit_failures: AtomicU64,
    replayed_edits: AtomicU64,
    compactions: AtomicU64,
}

impl QueryCounterCells {
    /// Fresh zeroed cells.
    pub fn new() -> Self {
        QueryCounterCells::default()
    }

    /// Folds one finished query into the totals.
    pub fn record_query(&self, stats: &QueryStats, traced: bool) {
        self.queries.fetch_add(1, Relaxed);
        if traced {
            self.traced.fetch_add(1, Relaxed);
        }
        self.parse_ns.fetch_add(stats.parse_ns, Relaxed);
        self.plan_ns.fetch_add(stats.plan_ns, Relaxed);
        self.exec_ns.fetch_add(stats.exec_ns, Relaxed);
        self.total_ns.fetch_add(stats.total_ns, Relaxed);
        self.result_nodes.fetch_add(stats.result_nodes, Relaxed);
    }

    /// Counts one failed query.
    pub fn record_failure(&self) {
        self.queries.fetch_add(1, Relaxed);
        self.failures.fetch_add(1, Relaxed);
    }

    /// Counts one successfully applied edit; `replayed` marks edits
    /// re-applied from the write-ahead log during recovery.
    pub fn record_edit(&self, replayed: bool) {
        self.edits.fetch_add(1, Relaxed);
        if replayed {
            self.replayed_edits.fetch_add(1, Relaxed);
        }
    }

    /// Counts one rejected edit.
    pub fn record_edit_failure(&self) {
        self.edit_failures.fetch_add(1, Relaxed);
    }

    /// Counts one delta-segment compaction.
    pub fn record_compaction(&self) {
        self.compactions.fetch_add(1, Relaxed);
    }

    /// Plain snapshot of the current totals.
    pub fn snapshot(&self) -> QueryCounters {
        QueryCounters {
            queries: self.queries.load(Relaxed),
            failures: self.failures.load(Relaxed),
            traced: self.traced.load(Relaxed),
            parse_ns: self.parse_ns.load(Relaxed),
            plan_ns: self.plan_ns.load(Relaxed),
            exec_ns: self.exec_ns.load(Relaxed),
            total_ns: self.total_ns.load(Relaxed),
            result_nodes: self.result_nodes.load(Relaxed),
            edits: self.edits.load(Relaxed),
            edit_failures: self.edit_failures.load(Relaxed),
            replayed_edits: self.replayed_edits.load(Relaxed),
            compactions: self.compactions.load(Relaxed),
        }
    }
}

/// Per-query statistics, filled for every query (traced or not): stage
/// timings, result size, per-view cache provenance and axis-scan counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// End-to-end query nanoseconds.
    pub total_ns: u64,
    /// Nanoseconds spent parsing the query text.
    pub parse_ns: u64,
    /// Nanoseconds spent resolving/compiling source views.
    pub plan_ns: u64,
    /// Nanoseconds spent in the evaluator.
    pub exec_ns: u64,
    /// Nodes in the result (elements copied into the result document, or
    /// nodes selected by a path query).
    pub result_nodes: u64,
    /// Cache provenance of every `virtualDoc` origin, in clause order.
    pub views: Vec<ViewProvenance>,
    /// Virtual-axis scan counters (traced queries only; zero otherwise).
    pub axis: AxisStats,
}

impl QueryStats {
    /// Sum of the per-stage timings — never more than [`Self::total_ns`].
    pub fn stage_ns(&self) -> u64 {
        self.parse_ns + self.plan_ns + self.exec_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_counters_aggregate_and_cap() {
        let c = AxisCounters::new();
        c.record_scan(10, false, 10);
        c.record_scan(5, true, 0);
        for i in 0..(MAX_RANGE_RECORDS + 8) {
            if c.wants_range() {
                c.push_range(RangeChoice {
                    context: format!("c{i}"),
                    ..RangeChoice::default()
                });
            }
        }
        let s = c.snapshot();
        assert_eq!(s.range_scans, 2);
        assert_eq!(s.slots_scanned, 15);
        assert_eq!(s.exact_regions, 1);
        assert_eq!(s.filter_checks, 10);
        assert_eq!(s.ranges.len(), MAX_RANGE_RECORDS);
    }

    #[test]
    fn twig_and_sjoin_counters_roll_up() {
        let t = TwigCounters::new();
        t.add_seeks(2);
        t.add_matches(1);
        assert_eq!(
            t.snapshot(),
            TwigStats {
                seeks: 2,
                matches: 1,
            }
        );
        let j = SjoinCounters::new();
        j.add_comparisons(11);
        j.add_pairs(2);
        assert_eq!(
            j.snapshot(),
            SjoinStats {
                comparisons: 11,
                pairs: 2,
            }
        );
    }

    #[test]
    fn query_cells_accumulate() {
        let cells = QueryCounterCells::new();
        let stats = QueryStats {
            total_ns: 100,
            parse_ns: 10,
            plan_ns: 20,
            exec_ns: 60,
            result_nodes: 4,
            ..QueryStats::default()
        };
        cells.record_query(&stats, true);
        cells.record_query(&stats, false);
        cells.record_failure();
        cells.record_edit(false);
        cells.record_edit(true);
        cells.record_edit_failure();
        cells.record_compaction();
        let s = cells.snapshot();
        assert_eq!(s.queries, 3);
        assert_eq!(s.failures, 1);
        assert_eq!(s.traced, 1);
        assert_eq!(s.total_ns, 200);
        assert_eq!(s.result_nodes, 8);
        assert_eq!(s.edits, 2);
        assert_eq!(s.edit_failures, 1);
        assert_eq!(s.replayed_edits, 1);
        assert_eq!(s.compactions, 1);
        assert!(stats.stage_ns() <= stats.total_ns);
    }

    #[test]
    fn cache_outcome_labels_are_stable() {
        assert_eq!(CacheOutcome::Hit.label(), "hit");
        assert_eq!(CacheOutcome::Maintained.label(), "maintained");
        assert_eq!(CacheOutcome::Computed.label(), "computed");
        assert_eq!(CacheOutcome::Bypassed.label(), "bypassed");
    }
}
