//! Nesting stage timers: [`Span`], [`QueryTrace`], [`TraceBuilder`].

/// One timed stage of a query, with nested child stages.
///
/// `meta` carries small labelled facts about the stage (cache provenance,
/// chosen brackets); `counters` carries operator counts. Both preserve
/// insertion order, which the exporters keep.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Span {
    /// Stage name (`parse`, `plan`, `exec`, `guide-expansion`, …).
    pub name: String,
    /// Offset of the stage start from the trace origin, in nanoseconds.
    pub start_ns: u64,
    /// Stage duration in nanoseconds.
    pub duration_ns: u64,
    /// Labelled facts (`cache=hit`, `arena=[5,9)`), in insertion order.
    pub meta: Vec<(String, String)>,
    /// Operator counts (`axis.range_scans=3`), in insertion order.
    pub counters: Vec<(String, u64)>,
    /// Nested child stages, in start order.
    pub children: Vec<Span>,
}

impl Span {
    /// A fresh span with the given name and no timing information.
    pub fn named(name: impl Into<String>) -> Self {
        Span {
            name: name.into(),
            ..Span::default()
        }
    }

    /// Sum of the direct children's durations — by construction never
    /// more than this span's own duration (children nest inside it).
    pub fn child_duration_ns(&self) -> u64 {
        self.children.iter().map(|c| c.duration_ns).sum()
    }

    /// Looks up a counter by exact key.
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
    }

    /// Looks up a meta value by exact key.
    pub fn meta_value(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Depth-first search for the first descendant (or self) named `name`.
    pub fn find(&self, name: &str) -> Option<&Span> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }
}

/// The stable span vocabulary: every stage name the engine may emit.
///
/// Exporters, dashboards and the `vh-vet` `span-vocab` lint treat this
/// list as the contract between `vh-query` (which opens spans) and
/// `vh-obs` (which renders them). Renaming a stage or adding a new one
/// means extending this list in the same change — DESIGN.md §10 keys its
/// span-tree documentation off these names.
pub const STABLE_SPAN_NAMES: &[&str] = &[
    "query",
    "parse",
    "plan",
    "view",
    "document",
    "guide-expansion",
    "level-map",
    "prefix-tables",
    "exec",
    "arena-range-selection",
    "apply",
    "recover",
    "compact",
];

/// Is `name` part of the stable span vocabulary?
pub fn is_stable_span_name(name: &str) -> bool {
    STABLE_SPAN_NAMES.contains(&name)
}

/// A completed per-query span tree.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryTrace {
    /// The query-level root span; stages hang off it.
    pub root: Span,
}

/// The monotonic clock behind span durations.
#[derive(Clone, Copy, Debug)]
struct Clock {
    origin: std::time::Instant,
}

impl Clock {
    fn start() -> Self {
        Clock {
            origin: std::time::Instant::now(),
        }
    }

    fn now_ns(&self) -> u64 {
        // Saturate instead of truncating: u64 nanoseconds cover ~584
        // years, far past any query, but the cast must not wrap.
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Internal state of an *enabled* builder: the stack of open spans
/// (`stack[0]` is the query root) plus the clock origin.
#[derive(Debug)]
struct Live {
    clock: Clock,
    stack: Vec<Span>,
}

/// Builds a [`QueryTrace`] incrementally as the engine walks the stages.
///
/// Every method is a single branch on the enabled flag: a disabled
/// builder allocates nothing and never reads the clock, which is what
/// makes trace collection zero-cost for untraced queries.
#[derive(Debug, Default)]
pub struct TraceBuilder {
    live: Option<Live>,
}

impl TraceBuilder {
    /// An enabled builder whose root span is open from this instant.
    pub fn enabled(root_name: &str) -> Self {
        let clock = Clock::start();
        let mut root = Span::named(root_name);
        root.start_ns = clock.now_ns();
        TraceBuilder {
            live: Some(Live {
                clock,
                stack: vec![root],
            }),
        }
    }

    /// A disabled builder: every method is a no-op, [`Self::finish`]
    /// returns `None`.
    pub fn disabled() -> Self {
        TraceBuilder { live: None }
    }

    /// Whether this builder records anything.
    pub fn is_enabled(&self) -> bool {
        self.live.is_some()
    }

    /// Opens a child stage of the currently open span.
    pub fn begin(&mut self, name: &str) {
        if let Some(live) = &mut self.live {
            let mut s = Span::named(name);
            s.start_ns = live.clock.now_ns();
            live.stack.push(s);
        }
    }

    /// Closes the innermost open stage, stamping its duration. The root
    /// span can only be closed by [`Self::finish`].
    pub fn end(&mut self) {
        if let Some(live) = &mut self.live {
            if live.stack.len() > 1 {
                // Invariant: len > 1, so pop and last_mut both succeed.
                if let (Some(mut done), now) = (live.stack.pop(), live.clock.now_ns()) {
                    done.duration_ns = now.saturating_sub(done.start_ns);
                    if let Some(parent) = live.stack.last_mut() {
                        parent.children.push(done);
                    }
                }
            }
        }
    }

    /// Attaches a labelled fact to the innermost open span.
    pub fn meta(&mut self, key: &str, value: impl Into<String>) {
        if let Some(live) = &mut self.live {
            if let Some(top) = live.stack.last_mut() {
                top.meta.push((key.to_owned(), value.into()));
            }
        }
    }

    /// Adds `n` to a counter on the innermost open span, creating it on
    /// first use.
    pub fn count(&mut self, key: &str, n: u64) {
        if let Some(live) = &mut self.live {
            if let Some(top) = live.stack.last_mut() {
                match top.counters.iter_mut().find(|(k, _)| k == key) {
                    Some((_, v)) => *v += n,
                    None => top.counters.push((key.to_owned(), n)),
                }
            }
        }
    }

    /// Attaches a fully-built child span to the innermost open span —
    /// used for synthetic (untimed) detail records like axis ranges.
    pub fn child(&mut self, span: Span) {
        if let Some(live) = &mut self.live {
            if let Some(top) = live.stack.last_mut() {
                top.children.push(span);
            }
        }
    }

    /// Closes every open stage (innermost first), stamps the root
    /// duration and returns the finished trace; `None` when disabled.
    pub fn finish(mut self) -> Option<QueryTrace> {
        let live = self.live.take()?;
        let now = live.clock.now_ns();
        let mut stack = live.stack;
        while stack.len() > 1 {
            // Invariant: len > 1 — mirror of `end`, closing dangling spans.
            if let Some(mut done) = stack.pop() {
                done.duration_ns = now.saturating_sub(done.start_ns);
                if let Some(parent) = stack.last_mut() {
                    parent.children.push(done);
                }
            }
        }
        let mut root = stack.pop()?;
        root.duration_ns = now.saturating_sub(root.start_ns);
        Some(QueryTrace { root })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_vocabulary_is_well_formed() {
        for (i, name) in STABLE_SPAN_NAMES.iter().enumerate() {
            assert!(!name.is_empty());
            assert!(
                name.bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-'),
                "span name `{name}` is not lowercase-kebab"
            );
            assert!(
                !STABLE_SPAN_NAMES[..i].contains(name),
                "duplicate span name `{name}`"
            );
            assert!(is_stable_span_name(name));
        }
        assert!(!is_stable_span_name("made-up-stage"));
    }

    #[test]
    fn disabled_builder_records_nothing() {
        let mut t = TraceBuilder::disabled();
        assert!(!t.is_enabled());
        t.begin("parse");
        t.meta("k", "v");
        t.count("n", 3);
        t.end();
        assert!(t.finish().is_none());
    }

    #[test]
    fn spans_nest_and_accumulate() {
        let mut t = TraceBuilder::enabled("query");
        assert!(t.is_enabled());
        t.meta("kind", "flwr");
        t.begin("parse");
        t.end();
        t.begin("exec");
        t.count("axis.range_scans", 2);
        t.count("axis.range_scans", 3);
        t.child(Span::named("arena-range-selection"));
        t.end();
        let trace = t.finish().unwrap();
        assert_eq!(trace.root.name, "query");
        assert_eq!(trace.root.meta_value("kind"), Some("flwr"));
        let names: Vec<&str> = trace
            .root
            .children
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(names, ["parse", "exec"]);
        let exec = trace.root.find("exec").unwrap();
        assert_eq!(exec.counter("axis.range_scans"), Some(5));
        assert_eq!(exec.children[0].name, "arena-range-selection");
    }

    #[test]
    fn dangling_spans_are_closed_by_finish() {
        let mut t = TraceBuilder::enabled("query");
        t.begin("plan");
        t.begin("guide-expansion");
        let trace = t.finish().unwrap();
        let plan = &trace.root.children[0];
        assert_eq!(plan.name, "plan");
        assert_eq!(plan.children[0].name, "guide-expansion");
    }

    #[test]
    fn child_durations_never_exceed_parent() {
        let mut t = TraceBuilder::enabled("query");
        for _ in 0..4 {
            t.begin("stage");
            t.end();
        }
        let trace = t.finish().unwrap();
        assert!(trace.root.child_duration_ns() <= trace.root.duration_ns);
    }

    #[test]
    fn end_on_root_is_a_guarded_noop() {
        let mut t = TraceBuilder::enabled("query");
        t.end(); // must not pop the root
        t.begin("parse");
        t.end();
        let trace = t.finish().unwrap();
        assert_eq!(trace.root.children.len(), 1);
    }
}
