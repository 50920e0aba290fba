//! Holistic twig joins (the TwigStack family) over PBN and vPBN streams.
//!
//! Structural joins (see [`crate::sjoin`]) answer one ancestor–descendant
//! edge at a time; *twig* patterns such as
//! `book(title, author(name))` are matched holistically by the TwigStack
//! algorithm: one synchronized pass over the per-pattern-node streams with
//! chained stacks, producing root-to-leaf path solutions that are then
//! merge-joined into full twig matches.
//!
//! The point of carrying this into the reproduction: TwigStack is driven
//! *only* by document order and containment tests on the numbers. Under
//! vPBN both are virtual-space comparisons (`v_cmp`, `vAncestor`), so the
//! identical algorithm evaluates twig patterns **against a virtual
//! hierarchy** without materializing it — the composition claim of §5 at
//! the level of a real query operator. The virtual source reads both from
//! the view's cached order column (a rank compare and an interval test),
//! whose streams list the view's placements; a node placed under several
//! parents is matched once per placement and projected back to one match.
//!
//! All pattern edges are descendant edges (`//`), the class for which
//! TwigStack is optimal; child edges can be post-filtered by the caller.
//!
//! The join has one body, [`twig_join_counted`]: the TwigStack pass
//! tallies its seeks in a plain integer, published once per run.
//! [`twig_join_opts`] runs it with throwaway counters and [`twig_join`]
//! runs that sequentially.

use crate::doc;
use std::cmp::Ordering;
use std::fmt;
use vh_core::axes::v_ancestor;
use vh_core::exec::{self, ExecOptions};
use vh_core::order::{v_cmp, OrderColumn};
use vh_core::VirtualDocument;
use vh_dataguide::TypedDocument;
use vh_obs::TwigCounters;
use vh_pbn::keys;
use vh_xml::NodeId;

// ------------------------------------------------------------ patterns ---

/// A twig pattern: a small tree of name tests joined by descendant edges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TwigPattern {
    nodes: Vec<TwigNode>,
}

/// One pattern node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TwigNode {
    /// Element name this pattern node matches.
    pub test: String,
    /// Parent pattern node (None for the root).
    pub parent: Option<usize>,
    /// Child pattern nodes.
    pub children: Vec<usize>,
}

impl TwigPattern {
    /// Parses the compact syntax `name(child, child(grandchild), …)`;
    /// every edge is a descendant edge.
    ///
    /// ```
    /// use vh_query::twig::TwigPattern;
    /// let p = TwigPattern::parse("book(title, author(name))")?;
    /// assert_eq!(p.len(), 4);
    /// assert_eq!(p.leaves(), vec![1, 3]);
    /// # Ok::<(), vh_query::twig::TwigError>(())
    /// ```
    pub fn parse(input: &str) -> Result<Self, TwigError> {
        let mut p = TwigParser {
            s: input.as_bytes(),
            input,
            pos: 0,
            depth: 0,
            nodes: Vec::new(),
        };
        p.skip_ws();
        let root = p.node(None)?;
        debug_assert_eq!(root, 0);
        p.skip_ws();
        if p.pos != p.input.len() {
            return Err(TwigError(format!(
                "trailing input at byte {} of '{input}'",
                p.pos
            )));
        }
        Ok(TwigPattern { nodes: p.nodes })
    }

    /// Number of pattern nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for the (impossible after parsing) empty pattern.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The pattern nodes; index 0 is the root.
    pub fn nodes(&self) -> &[TwigNode] {
        &self.nodes
    }

    /// Pattern-node indices of the leaves, ascending.
    pub fn leaves(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].children.is_empty())
            .collect()
    }

    /// The root-to-`q` chain of pattern nodes (inclusive).
    pub fn path_to(&self, q: usize) -> Vec<usize> {
        let mut path = vec![q];
        let mut cur = q;
        while let Some(p) = self.nodes[cur].parent {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }
}

/// Twig parsing / evaluation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwigError(pub String);

impl fmt::Display for TwigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "twig error: {}", self.0)
    }
}

impl std::error::Error for TwigError {}

struct TwigParser<'a> {
    s: &'a [u8],
    input: &'a str,
    pos: usize,
    depth: usize,
    nodes: Vec<TwigNode>,
}

impl<'a> TwigParser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.s.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Recurses once per `(`-nesting level, so depth is capped to keep
    /// pathological patterns off the stack limit.
    fn node(&mut self, parent: Option<usize>) -> Result<usize, TwigError> {
        self.depth += 1;
        if self.depth > crate::xpath::parse::MAX_PARSE_DEPTH {
            return Err(TwigError(format!(
                "pattern nesting exceeds the depth limit of {}",
                crate::xpath::parse::MAX_PARSE_DEPTH
            )));
        }
        let out = self.node_inner(parent);
        self.depth -= 1;
        out
    }

    fn node_inner(&mut self, parent: Option<usize>) -> Result<usize, TwigError> {
        let start = self.pos;
        while self
            .s
            .get(self.pos)
            .is_some_and(|&b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b'#'))
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(TwigError(format!(
                "expected a name at byte {} of '{}'",
                self.pos, self.input
            )));
        }
        let idx = self.nodes.len();
        self.nodes.push(TwigNode {
            test: self.input[start..self.pos].to_owned(),
            parent,
            children: Vec::new(),
        });
        self.skip_ws();
        if self.s.get(self.pos) == Some(&b'(') {
            self.pos += 1;
            loop {
                self.skip_ws();
                let child = self.node(Some(idx))?;
                self.nodes[idx].children.push(child);
                self.skip_ws();
                match self.s.get(self.pos) {
                    Some(b',') => self.pos += 1,
                    Some(b')') => {
                        self.pos += 1;
                        break;
                    }
                    _ => {
                        return Err(TwigError(format!(
                            "expected ',' or ')' at byte {} of '{}'",
                            self.pos, self.input
                        )))
                    }
                }
            }
        }
        Ok(idx)
    }
}

// ------------------------------------------------------------- sources ---

/// What TwigStack needs from a document: per-name streams in document
/// order, the order itself, and containment.
pub trait TwigSource {
    /// All elements matching `test`, in document order.
    fn stream(&self, test: &str) -> Vec<NodeId>;
    /// Document-order comparison.
    fn cmp(&self, a: NodeId, b: NodeId) -> Ordering;
    /// True iff `a` is a (proper) ancestor of `b`.
    fn contains(&self, a: NodeId, b: NodeId) -> bool;
    /// First position `i ≥ from` in `stream` (one of this source's
    /// document-ordered streams) where the TwigStack skip loop must stop:
    /// `stream[i]` is at-or-after `target` in document order, or contains
    /// it. Entries before that position start *and end* before `target`,
    /// so no match can involve them and the cursor jumps straight past.
    ///
    /// The default walks linearly; sources whose document order is a byte
    /// comparison on sorted keys override this with binary searches.
    /// Overrides must return exactly the index the default would.
    fn seek(&self, stream: &[NodeId], from: usize, target: NodeId) -> usize {
        let mut i = from;
        while i < stream.len() {
            let h = stream[i];
            if self.cmp(h, target) != Ordering::Less || self.contains(h, target) {
                break;
            }
            i += 1;
        }
        i
    }

    /// Maps matches over this source's stream entries to matches over
    /// document nodes. The default keeps them: its streams are the
    /// nodes. A source whose streams list placements projects each entry
    /// to its node and drops the duplicate matches.
    fn project(&self, matches: Vec<TwigMatch>) -> Vec<TwigMatch> {
        matches
    }
}

/// Physical source: plain PBN order and prefix containment. A name's
/// stream merges the document type index's lists of the types carrying
/// it, so opening a source builds nothing.
pub struct PhysicalTwigSource<'a> {
    td: &'a TypedDocument,
}

impl<'a> PhysicalTwigSource<'a> {
    /// A source over the document's type index.
    pub fn new(td: &'a TypedDocument) -> Self {
        PhysicalTwigSource { td }
    }
}

impl<'a> TwigSource for PhysicalTwigSource<'a> {
    fn stream(&self, test: &str) -> Vec<NodeId> {
        doc::nodes_named(self.td, test, None)
    }

    fn cmp(&self, a: NodeId, b: NodeId) -> Ordering {
        // Arena slots are assigned in document order, so doc-order
        // comparison is one u32 compare per side (unassigned ids sort
        // first, matching their empty keys).
        let arena = self.td.pbn().arena();
        arena.slot_of(a).cmp(&arena.slot_of(b))
    }

    fn contains(&self, a: NodeId, b: NodeId) -> bool {
        keys::is_strict_prefix(self.td.pbn().key_of(a), self.td.pbn().key_of(b))
    }

    /// Binary-searched skip with a linear warm-up. Most calls stop within
    /// the first few entries (cursors only move forward), so those stay
    /// O(1); longer jumps gallop exponentially and pay one binary search
    /// logarithmic in the distance actually skipped, never in the stream
    /// length. Physical streams are sorted by encoded key — equivalently
    /// by arena slot — so the first entry at-or-after `target` is one
    /// `partition_point` over slots; the only entries *before* the target
    /// that stop the skip are its proper ancestors, whose keys are exactly
    /// the proper component-prefixes of `target`'s key — each present at
    /// most once (keys are unique), hence one exact binary search per
    /// prefix length, shortest (earliest slot) first.
    fn seek(&self, stream: &[NodeId], from: usize, target: NodeId) -> usize {
        const PROBES: usize = 4;
        let pbn = self.td.pbn();
        let arena = pbn.arena();
        let tkey = pbn.key_of(target);
        let tslot = arena.slot_of(target);
        let tail = &stream[from..];
        let stops =
            |n: NodeId| arena.slot_of(n) >= tslot || keys::is_strict_prefix(pbn.key_of(n), tkey);
        for (i, &n) in tail.iter().take(PROBES).enumerate() {
            if stops(n) {
                return from + i;
            }
        }
        if tail.len() <= PROBES {
            return from + tail.len();
        }
        // Gallop past the run of keys before `target`, then binary-search
        // the bracket for the partition point (first slot ≥ target's).
        let mut hi = PROBES;
        let mut jump = PROBES;
        while hi < tail.len() && arena.slot_of(tail[hi]) < tslot {
            hi += jump;
            jump *= 2;
        }
        let hi = hi.min(tail.len());
        // Branch-free bisection of the gallop bracket: random probe slots
        // make the comparison a coin flip, so the multiply-by-bool form
        // beats the predicted-branch loop (oracle-tested in vh-core).
        let mut best = PROBES
            + exec::partition_point_branchless(&tail[PROBES..hi], |&n| arena.slot_of(n) < tslot);
        // Ancestors of `target` all sit before the partition point; the
        // shortest prefix present is the earliest stop.
        let mut end = keys::component_boundary(tkey, 1);
        while end < tkey.len() {
            let prefix = &tkey[..end];
            if let Ok(i) = tail[..best].binary_search_by(|&n| pbn.key_of(n).cmp(prefix)) {
                best = i;
                break;
            }
            end += keys::component_len(&tkey[end..]);
        }
        from + best
    }
}

/// Virtual source: virtual document order and `vAncestor` containment.
///
/// Both come from the view's cached order column
/// ([`VirtualDocument::order_column`]): streams list the placements of
/// the matching nodes, `cmp` compares two ranks and `contains` tests
/// `rank[a] < rank[d] ≤ end[a]`, so no comparison walks a number, and the
/// column is built once per view generation, not once per source.
/// Matches are projected back to nodes ([`TwigSource::project`]); on a
/// view that places each node once that is the identity.
pub struct VirtualTwigSource<'a> {
    vd: &'a VirtualDocument<'a>,
    column: &'a OrderColumn,
}

impl<'a> VirtualTwigSource<'a> {
    /// Wraps a virtual document, borrowing its order column (built by
    /// the first join over the view's generation).
    ///
    /// oracle: with_closures
    pub fn new(vd: &'a VirtualDocument<'a>) -> Self {
        VirtualTwigSource {
            vd,
            column: vd.order_column(),
        }
    }

    /// The closure twin, an oracle no query runs: `v_cmp` and
    /// `v_ancestor` on the nodes' vPBNs for every test, over streams of
    /// nodes. On a view that places each node once the column source
    /// must match it.
    pub fn with_closures(vd: &'a VirtualDocument<'a>) -> ClosureTwigSource<'a> {
        ClosureTwigSource { vd }
    }
}

impl<'a> TwigSource for VirtualTwigSource<'a> {
    fn stream(&self, test: &str) -> Vec<NodeId> {
        let nodes = nodes_named(self.vd, test);
        let mut out = self.column.placements(&nodes).into_owned();
        // An integer sort, safe to parallelize: ranks never tie.
        exec::par_sort_by(&self.vd.exec(), &mut out, |&a, &b| self.cmp(a, b));
        out
    }

    fn cmp(&self, a: NodeId, b: NodeId) -> Ordering {
        self.column.cmp(a, b)
    }

    fn contains(&self, a: NodeId, b: NodeId) -> bool {
        self.column.contains(a, b)
    }

    /// Projects each placement to its node and drops duplicate matches.
    fn project(&self, matches: Vec<TwigMatch>) -> Vec<TwigMatch> {
        let col = self.column;
        if col.places_each_once() {
            return matches;
        }
        let mut out: Vec<TwigMatch> = matches
            .into_iter()
            .map(|m| m.into_iter().map(|p| col.node(p)).collect())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Every node of the view's virtual types named `test`, type by type.
fn nodes_named(vd: &VirtualDocument<'_>, test: &str) -> Vec<NodeId> {
    let guide = vd.vdg().guide();
    guide
        .type_ids()
        .filter(|&vt| guide.name(vt) == test)
        .flat_map(|vt| vd.nodes_of_vtype(vt).iter().copied())
        .collect()
}

/// The closure twin of [`VirtualTwigSource`], built by
/// [`VirtualTwigSource::with_closures`].
pub struct ClosureTwigSource<'a> {
    vd: &'a VirtualDocument<'a>,
}

impl<'a> ClosureTwigSource<'a> {
    /// Invariant: `cmp`/`contains` are only called on nodes produced by
    /// `stream`, which enumerates nodes of virtual types — all of which
    /// are visible and therefore have a vPBN.
    fn vpbn(&self, n: NodeId) -> vh_core::vpbn::VPbnRef<'_> {
        match self.vd.vpbn_of(n) {
            Some(v) => v,
            None => unreachable!("twig streams contain only visible nodes"),
        }
    }
}

impl<'a> TwigSource for ClosureTwigSource<'a> {
    fn stream(&self, test: &str) -> Vec<NodeId> {
        let mut out = nodes_named(self.vd, test);
        exec::par_sort_by(&self.vd.exec(), &mut out, |&a, &b| self.cmp(a, b));
        out
    }

    fn cmp(&self, a: NodeId, b: NodeId) -> Ordering {
        v_cmp(self.vd.vdg(), &self.vpbn(a), &self.vpbn(b))
    }

    fn contains(&self, a: NodeId, b: NodeId) -> bool {
        v_ancestor(self.vd.vdg(), &self.vpbn(a), &self.vpbn(b))
    }
}

// ------------------------------------------------------------ algorithm ---

/// A full twig match: `assignment[q]` is the document node bound to
/// pattern node `q`.
pub type TwigMatch = Vec<NodeId>;

/// Evaluates a twig pattern holistically. Returns all matches, each an
/// assignment of one document node per pattern node, in no particular
/// order. Runs [`twig_join_opts`] sequentially.
pub fn twig_join(source: &(dyn TwigSource + Sync), pattern: &TwigPattern) -> Vec<TwigMatch> {
    twig_join_opts(source, pattern, &ExecOptions::sequential())
}

/// [`twig_join`] with an execution knob: the per-pattern-node streams are
/// built concurrently (one task per pattern node — stream extraction is
/// the scan-heavy phase), then the synchronized TwigStack pass runs
/// sequentially, so the result is identical to [`twig_join`]. A one-line
/// call to [`twig_join_counted`] with throwaway counters.
pub fn twig_join_opts(
    source: &(dyn TwigSource + Sync),
    pattern: &TwigPattern,
    opts: &ExecOptions,
) -> Vec<TwigMatch> {
    twig_join_counted(source, pattern, opts, &TwigCounters::new())
}

/// The twig join, recording its issued seeks and its matches in
/// `counters`. The TwigStack pass tallies seeks in a plain integer,
/// published once per run; matches are counted after the source's
/// [`TwigSource::project`].
pub fn twig_join_counted(
    source: &(dyn TwigSource + Sync),
    pattern: &TwigPattern,
    opts: &ExecOptions,
    counters: &TwigCounters,
) -> Vec<TwigMatch> {
    let streams = build_streams(source, pattern, opts);
    let mut stack = TwigStack::with_streams(source, pattern, streams);
    stack.run();
    counters.add_seeks(stack.seeks);
    let matches = source.project(merge_path_solutions(pattern, &stack.out));
    counters.add_matches(matches.len() as u64);
    matches
}

/// Extracts one stream per pattern node, concurrently when `opts` allows.
/// The output vector is indexed by pattern node, so task completion order
/// cannot affect the result.
fn build_streams(
    source: &(dyn TwigSource + Sync),
    pattern: &TwigPattern,
    opts: &ExecOptions,
) -> Vec<Vec<NodeId>> {
    if opts.resolved_threads() <= 1 || pattern.len() <= 1 {
        return pattern
            .nodes()
            .iter()
            .map(|n| source.stream(&n.test))
            .collect();
    }
    let mut slots: Vec<Option<Vec<NodeId>>> = Vec::with_capacity(pattern.len());
    slots.resize_with(pattern.len(), || None);
    rayon::scope(|s| {
        for (slot, node) in slots.iter_mut().zip(pattern.nodes()) {
            s.spawn(move || *slot = Some(source.stream(&node.test)));
        }
    });
    slots
        .into_iter()
        .map(|s| match s {
            Some(s) => s,
            // Invariant: rayon::scope joins every spawned worker, and each
            // worker fills exactly its own slot.
            None => unreachable!("scope joined all stream builders"),
        })
        .collect()
}

struct TwigStack<'s> {
    source: &'s dyn TwigSource,
    pattern: &'s TwigPattern,
    /// Per pattern node: its stream and cursor.
    streams: Vec<Vec<NodeId>>,
    cursor: Vec<usize>,
    /// Per pattern node: stack of (doc node, parent-stack height at push).
    stacks: Vec<Vec<(NodeId, usize)>>,
    /// Per pattern node: its position among the leaves (the output slot);
    /// meaningful for leaves only.
    leaf_pos: Vec<usize>,
    /// Per leaf position: the root-to-leaf chain of pattern nodes.
    chains: Vec<Vec<usize>>,
    /// Per leaf position: the path solutions emitted so far.
    out: Vec<Vec<Vec<NodeId>>>,
    /// `seek` calls issued.
    seeks: u64,
}

impl<'s> TwigStack<'s> {
    /// Builds the evaluator over pre-extracted streams (one per pattern
    /// node, in pattern-node order, each in document order).
    fn with_streams(
        source: &'s dyn TwigSource,
        pattern: &'s TwigPattern,
        streams: Vec<Vec<NodeId>>,
    ) -> Self {
        debug_assert_eq!(streams.len(), pattern.len());
        let leaves = pattern.leaves();
        let mut leaf_pos = vec![0; pattern.len()];
        for (i, &l) in leaves.iter().enumerate() {
            leaf_pos[l] = i;
        }
        TwigStack {
            source,
            pattern,
            cursor: vec![0; streams.len()],
            stacks: vec![Vec::new(); streams.len()],
            streams,
            out: vec![Vec::new(); leaves.len()],
            leaf_pos,
            chains: leaves.iter().map(|&l| pattern.path_to(l)).collect(),
            seeks: 0,
        }
    }

    fn head(&self, q: usize) -> Option<NodeId> {
        self.streams[q].get(self.cursor[q]).copied()
    }

    fn advance(&mut self, q: usize) {
        self.cursor[q] += 1;
    }

    fn exhausted(&self, q: usize) -> bool {
        self.cursor[q] >= self.streams[q].len()
    }

    /// The getNext(q) of TwigStack, returning the pattern node to advance
    /// next — guaranteed to have a stream head — or `None` when the
    /// subtree rooted at `q` is *inert*: no cursor below can make further
    /// progress, so its path solutions are final. Exhausted branches are
    /// skipped rather than halting the pass, because other branches can
    /// still emit path solutions that merge with the finished branch's.
    fn get_next(&mut self, q: usize) -> Option<usize> {
        // Borrowed through the pattern reference, not through `self`, so
        // the recursion below may take `&mut self`.
        let pattern = self.pattern;
        let children = &pattern.nodes()[q].children;
        if children.is_empty() {
            return if self.exhausted(q) { None } else { Some(q) };
        }
        let mut max_child_head: Option<NodeId> = None;
        let mut min_child: Option<(usize, NodeId)> = None;
        for &c in children {
            match self.get_next(c) {
                None => continue, // inert branch
                Some(r) if r != c => return Some(r),
                Some(_) => {
                    // Invariant: get_next(c) == Some(c) means c's stream
                    // is not exhausted, so it has a head.
                    let h = match self.head(c) {
                        Some(h) => h,
                        None => unreachable!("live child has a head"),
                    };
                    if max_child_head.is_none_or(|m| self.source.cmp(h, m) == Ordering::Greater) {
                        max_child_head = Some(h);
                    }
                    if min_child.is_none_or(|(_, m)| self.source.cmp(h, m) == Ordering::Less) {
                        min_child = Some((c, h));
                    }
                }
            }
        }
        // Every child branch is inert: nothing below can progress.
        let q_max = max_child_head?;
        // Skip q candidates that end before the farthest child head: they
        // cannot contain all (remaining) children. `seek` jumps the cursor
        // to the stop position in one call (binary-searched on sources
        // with byte-comparable keys).
        let src = self.source;
        self.seeks += 1;
        self.cursor[q] = src.seek(&self.streams[q], self.cursor[q], q_max);
        // Invariant: q_max is only Some when at least one child was live,
        // and every live child also updated min_child.
        let (min_c, q_min) = match min_child {
            Some(mc) => mc,
            None => unreachable!("q_max implies a live child"),
        };
        match self.head(q) {
            Some(hq) if self.source.cmp(hq, q_min) == Ordering::Less => Some(q),
            // q exhausted or behind: drain the child (its pushes still see
            // whatever ancestor entries remain stacked).
            _ => Some(min_c),
        }
    }

    /// Pops stack entries that end before `next` starts.
    fn clean_stack(&mut self, q: usize, next: NodeId) {
        while let Some(&(top, _)) = self.stacks[q].last() {
            if self.source.contains(top, next) {
                break;
            }
            self.stacks[q].pop();
        }
    }

    /// Phase 1 of TwigStack: the synchronized pass leaves the root-to-leaf
    /// *path solutions* of every leaf in `out`; `out[leaf_position]`
    /// holds node chains in pattern `path_to(leaf)` order.
    fn run(&mut self) {
        let root = 0;
        while let Some(q) = self.get_next(root) {
            // Invariant: get_next only returns pattern nodes whose streams
            // still have a head (exhausted branches yield None).
            let hq = match self.head(q) {
                Some(h) => h,
                None => unreachable!("get_next returns nodes with heads"),
            };
            if let Some(p) = self.pattern.nodes()[q].parent {
                self.clean_stack(p, hq);
            }
            let parent_ok = self.pattern.nodes()[q]
                .parent
                .is_none_or(|p| !self.stacks[p].is_empty());
            if parent_ok {
                self.clean_stack(q, hq);
                let parent_height = self.pattern.nodes()[q]
                    .parent
                    .map_or(0, |p| self.stacks[p].len());
                self.stacks[q].push((hq, parent_height));
                if self.pattern.nodes()[q].children.is_empty() {
                    self.emit_paths(q);
                    self.stacks[q].pop();
                }
            }
            self.advance(q);
        }
    }

    /// Emits every root-to-leaf solution encoded by the current stacks for
    /// leaf `q` (its own top entry combined with all compatible ancestor
    /// stack prefixes).
    ///
    /// Each entry sees its parent stack only as tall as it was when the
    /// entry was pushed; one level's bound is the tallest such height
    /// among the entries visible at the level below, and the containment
    /// test between consecutive nodes keeps the solutions exact. The
    /// solutions are enumerated depth-first into one reused path buffer,
    /// nearest level outermost, so they come out in the order of a
    /// level-by-level expansion.
    fn emit_paths(&mut self, leaf: usize) {
        let pos = self.leaf_pos[leaf];
        // Invariant: `run` pushes onto stacks[leaf] immediately before
        // calling emit_paths, so the stack is never empty here.
        let (leaf_node, leaf_height) = match self.stacks[leaf].last() {
            Some(&top) => top,
            None => unreachable!("leaf just pushed"),
        };
        let chain = &self.chains[pos];
        let last = chain.len() - 1;
        let mut bounds = vec![0; last];
        let mut visible = leaf_height;
        for i in (0..last).rev() {
            bounds[i] = visible;
            let tallest = self.stacks[chain[i]]
                .iter()
                .take(visible)
                .map(|e| e.1)
                .max();
            visible = tallest.unwrap_or(0).max(1);
        }
        let mut path = vec![leaf_node; chain.len()];
        let mut out = std::mem::take(&mut self.out[pos]);
        self.extend_paths(chain, &bounds, last, &mut path, &mut out);
        self.out[pos] = out;
    }

    /// Fills `path[..filled]` with every compatible chain of stack entries
    /// above `path[filled]` and appends each complete path to `out`.
    fn extend_paths(
        &self,
        chain: &[usize],
        bounds: &[usize],
        filled: usize,
        path: &mut [NodeId],
        out: &mut Vec<Vec<NodeId>>,
    ) {
        let Some(i) = filled.checked_sub(1) else {
            out.push(path.to_vec());
            return;
        };
        for &(node, _) in self.stacks[chain[i]].iter().take(bounds[i]) {
            // Exactness guard: each consecutive pair must nest.
            if self.source.contains(node, path[filled]) {
                path[i] = node;
                self.extend_paths(chain, bounds, i, path, out);
            }
        }
    }
}

/// Phase 2: merge per-leaf path solutions into full twig matches by
/// joining on the shared pattern prefixes. A partial assignment is a
/// vector indexed by pattern node, `None` until some leaf's chain binds
/// it.
pub fn merge_path_solutions(pattern: &TwigPattern, paths: &[Vec<Vec<NodeId>>]) -> Vec<TwigMatch> {
    let leaves = pattern.leaves();
    debug_assert_eq!(leaves.len(), paths.len());
    let mut partial: Vec<Vec<Option<NodeId>>> = Vec::new();
    // Start with the first leaf's paths as partial assignments.
    if let Some((&first_leaf, rest)) = leaves.split_first() {
        let chain = pattern.path_to(first_leaf);
        for p in &paths[0] {
            let mut assign = vec![None; pattern.len()];
            for (&q, &n) in chain.iter().zip(p) {
                assign[q] = Some(n);
            }
            partial.push(assign);
        }
        for (li, &leaf) in rest.iter().enumerate() {
            let chain = pattern.path_to(leaf);
            let mut next = Vec::new();
            for assign in &partial {
                for p in &paths[li + 1] {
                    // Shared pattern nodes must agree.
                    let compatible = chain
                        .iter()
                        .zip(p)
                        .all(|(&q, &n)| assign[q].is_none_or(|m| m == n));
                    if compatible {
                        let mut merged = assign.clone();
                        for (&q, &n) in chain.iter().zip(p) {
                            merged[q] = Some(n);
                        }
                        next.push(merged);
                    }
                }
            }
            partial = next;
        }
    }
    partial
        .into_iter()
        .map(|assign| {
            assign
                .into_iter()
                // Invariant: merging path solutions over a connected
                // pattern assigns every node before we reach here.
                .map(|n| match n {
                    Some(n) => n,
                    None => unreachable!("assignment covers all pattern nodes"),
                })
                .collect()
        })
        .collect()
}

/// Reference implementation for testing: naive recursive enumeration of
/// all twig matches using only `contains`, projected by the source.
pub fn twig_join_naive(source: &dyn TwigSource, pattern: &TwigPattern) -> Vec<TwigMatch> {
    /// All assignments for the pattern subtree rooted at `q` given
    /// `q → node`, as sparse vectors over the whole pattern.
    fn solve(
        source: &dyn TwigSource,
        pattern: &TwigPattern,
        q: usize,
        node: NodeId,
    ) -> Vec<Vec<Option<NodeId>>> {
        let mut base = vec![None; pattern.len()];
        base[q] = Some(node);
        let mut partials = vec![base];
        for &c in &pattern.nodes()[q].children {
            let mut next = Vec::new();
            for cand in source.stream(&pattern.nodes()[c].test) {
                if !source.contains(node, cand) {
                    continue;
                }
                for sub in solve(source, pattern, c, cand) {
                    for p in &partials {
                        let merged: Vec<Option<NodeId>> =
                            p.iter().zip(&sub).map(|(a, b)| a.or(*b)).collect();
                        next.push(merged);
                    }
                }
            }
            partials = next;
        }
        partials
    }

    let mut out = Vec::new();
    for root_cand in source.stream(&pattern.nodes()[0].test) {
        for assign in solve(source, pattern, 0, root_cand) {
            out.push(
                assign
                    .into_iter()
                    // Invariant: solve(0, root) fills one slot per pattern
                    // node — a sparse vector only stays sparse mid-merge.
                    .map(|o| match o {
                        Some(n) => n,
                        None => unreachable!("subtree solutions cover all pattern nodes"),
                    })
                    .collect(),
            );
        }
    }
    source.project(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Must;
    use vh_xml::builder::paper_figure2;

    fn sorted(mut m: Vec<TwigMatch>) -> Vec<TwigMatch> {
        m.sort();
        m.dedup();
        m
    }

    #[test]
    fn pattern_parsing() {
        let p = TwigPattern::parse("book(title, author(name))").must();
        assert_eq!(p.len(), 4);
        assert_eq!(p.nodes()[0].test, "book");
        assert_eq!(p.nodes()[0].children, vec![1, 2]);
        assert_eq!(p.nodes()[2].children, vec![3]);
        assert_eq!(p.leaves(), vec![1, 3]);
        assert_eq!(p.path_to(3), vec![0, 2, 3]);
        assert!(TwigPattern::parse("a(b").is_err());
        assert!(TwigPattern::parse("a)b").is_err());
        assert!(TwigPattern::parse("(a)").is_err());
    }

    #[test]
    fn physical_twig_on_figure2() {
        let td = TypedDocument::analyze(paper_figure2());
        let src = PhysicalTwigSource::new(&td);
        let p = TwigPattern::parse("book(title, author(name))").must();
        let matches = twig_join(&src, &p);
        // One match per book: (book, its title, its author, its name).
        assert_eq!(matches.len(), 2);
        for m in &matches {
            assert!(src.contains(m[0], m[1]));
            assert!(src.contains(m[0], m[2]));
            assert!(src.contains(m[2], m[3]));
        }
    }

    #[test]
    fn physical_twig_matches_naive() {
        let td = TypedDocument::analyze(vh_workload_books(25, 3));
        let src = PhysicalTwigSource::new(&td);
        for pat in [
            "book(title)",
            "book(author(name))",
            "book(title, author)",
            "book(title, author(name), publisher(location))",
            "data(book(author))",
        ] {
            let p = TwigPattern::parse(pat).must();
            let fast = sorted(twig_join(&src, &p));
            let slow = sorted(twig_join_naive(&src, &p));
            assert_eq!(fast, slow, "pattern {pat}");
        }
    }

    #[test]
    fn virtual_twig_matches_naive() {
        let td = TypedDocument::analyze(vh_workload_books(15, 3));
        for spec in [
            "title { author { name } }",
            "location { title author { name } }",
        ] {
            let vd = VirtualDocument::open(&td, spec).must();
            let src = VirtualTwigSource::new(&vd);
            for pat in ["title(author)", "title(author(name))"] {
                let p = TwigPattern::parse(pat).must();
                if src.stream(&p.nodes()[0].test).is_empty() {
                    continue;
                }
                let fast = sorted(twig_join(&src, &p));
                let slow = sorted(twig_join_naive(&src, &p));
                assert_eq!(fast, slow, "spec {spec} pattern {pat}");
            }
        }
    }

    #[test]
    fn virtual_twig_crosses_the_transformation() {
        // In Sam's view, title//name holds although physically title and
        // name are in disjoint subtrees.
        let td = TypedDocument::analyze(paper_figure2());
        let vd = VirtualDocument::open(&td, "title { author { name } }").must();
        let src = VirtualTwigSource::new(&vd);
        let p = TwigPattern::parse("title(name)").must();
        let matches = twig_join(&src, &p);
        assert_eq!(matches.len(), 2);
        // Physically those same pairs do NOT nest.
        let phys = PhysicalTwigSource::new(&td);
        for m in &matches {
            assert!(!phys.contains(m[0], m[1]));
        }
    }

    #[test]
    fn counted_twig_join_matches_and_counts() {
        let td = TypedDocument::analyze(vh_workload_books(25, 3));
        let src = PhysicalTwigSource::new(&td);
        let opts = ExecOptions::default();
        for pat in ["book(title)", "book(title, author(name))"] {
            let p = TwigPattern::parse(pat).must();
            let plain = twig_join_opts(&src, &p, &opts);
            let counters = TwigCounters::default();
            let counted = twig_join_counted(&src, &p, &opts, &counters);
            assert_eq!(
                sorted(plain),
                sorted(counted.clone()),
                "counting must not change the matches of {pat}"
            );
            let s = counters.snapshot();
            assert!(s.seeks > 0, "{pat} issued seeks");
            assert_eq!(s.matches, counted.len() as u64, "{pat}");
        }
    }

    #[test]
    fn parallel_twig_join_matches_sequential() {
        let td = TypedDocument::analyze(vh_workload_books(30, 3));
        let phys = PhysicalTwigSource::new(&td);
        let vd = VirtualDocument::open(&td, "title { author { name } }").must();
        let virt = VirtualTwigSource::new(&vd);
        for pat in [
            "book(title, author(name))",
            "data(book(author))",
            "title(author(name))",
        ] {
            let p = TwigPattern::parse(pat).must();
            for threads in [2, 4] {
                let opts = ExecOptions {
                    threads,
                    cache: true,
                    par_threshold: 1,
                };
                assert_eq!(
                    twig_join_opts(&phys, &p, &opts),
                    twig_join(&phys, &p),
                    "physical {pat} t={threads}"
                );
                assert_eq!(
                    twig_join_opts(&virt, &p, &opts),
                    twig_join(&virt, &p),
                    "virtual {pat} t={threads}"
                );
            }
        }
    }

    #[test]
    fn rank_column_orders_exactly_like_v_cmp() {
        let td = TypedDocument::analyze(vh_workload_books(20, 3));
        let vd = VirtualDocument::open(&td, "title { author { name } }").must();
        let src = VirtualTwigSource::new(&vd);
        let nodes: Vec<NodeId> = ["title", "author", "name"]
            .iter()
            .flat_map(|n| src.stream(n))
            .collect();
        for &a in &nodes {
            for &b in &nodes {
                let by_rank = src.cmp(a, b);
                let by_vcmp = v_cmp(vd.vdg(), &vd.vpbn_of(a).must(), &vd.vpbn_of(b).must());
                assert_eq!(by_rank, by_vcmp, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn physical_seek_matches_the_linear_default() {
        // The binary-searched override must return exactly the index the
        // documented linear walk would, for every (stream, target, from).
        let td = TypedDocument::analyze(vh_workload_books(25, 3));
        let src = PhysicalTwigSource::new(&td);
        let names = ["data", "book", "title", "author", "name", "publisher"];
        let targets: Vec<NodeId> = names.iter().flat_map(|n| src.stream(n)).collect();
        for name in names {
            let stream = src.stream(name);
            for &t in &targets {
                for from in [0, stream.len() / 3, stream.len() / 2, stream.len()] {
                    let fast = src.seek(&stream, from, t);
                    let mut slow = from;
                    while slow < stream.len() {
                        let h = stream[slow];
                        if src.cmp(h, t) != Ordering::Less || src.contains(h, t) {
                            break;
                        }
                        slow += 1;
                    }
                    assert_eq!(fast, slow, "{name} from {from}");
                }
            }
        }
    }

    #[test]
    fn empty_streams_yield_no_matches() {
        let td = TypedDocument::analyze(paper_figure2());
        let src = PhysicalTwigSource::new(&td);
        let p = TwigPattern::parse("book(nosuch)").must();
        assert!(twig_join(&src, &p).is_empty());
        let p = TwigPattern::parse("nosuch").must();
        assert!(twig_join(&src, &p).is_empty());
    }

    #[test]
    fn single_node_pattern_is_a_scan() {
        let td = TypedDocument::analyze(paper_figure2());
        let src = PhysicalTwigSource::new(&td);
        let p = TwigPattern::parse("author").must();
        assert_eq!(twig_join(&src, &p).len(), 2);
    }

    fn vh_workload_books(n: usize, authors: usize) -> vh_xml::Document {
        // Local mini-generator to avoid a dev-dependency cycle with
        // vh-workload: same shape as the books corpus.
        use vh_xml::ElementBuilder;
        let mut data = ElementBuilder::new("data");
        for i in 0..n {
            let mut book = ElementBuilder::new("book")
                .child(ElementBuilder::new("title").text(format!("T{i}")));
            for a in 0..(i % authors) + 1 {
                book = book.child(
                    ElementBuilder::new("author")
                        .child(ElementBuilder::new("name").text(format!("N{i}x{a}"))),
                );
            }
            book = book.child(
                ElementBuilder::new("publisher").child(ElementBuilder::new("location").text("L")),
            );
            data = data.child(book);
        }
        data.into_document("books.xml")
    }
}
