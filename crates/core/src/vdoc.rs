//! [`VirtualDocument`]: navigating a document *as if* it had been
//! transformed, without moving a single node.
//!
//! This is the runtime counterpart of the `virtualDoc` function the paper
//! adds to XQuery: it pairs the original [`TypedDocument`] with a
//! [`CompiledView`] — the compiled [`VDataGuide`], the level-array map
//! (Algorithm 1) and the scan-range prefix tables, all per type. Nodes
//! come from the document's own type index
//! ([`TypedDocument::nodes_of_type`], the DBMS type index of §4.3): a
//! virtual type's nodes are exactly its original type's, so no view
//! re-indexes anything. All navigation is implemented with the virtual
//! predicates of [`crate::axes`], narrowed by the scan ranges of
//! [`crate::range`].

use crate::axes;
use crate::exec::{self, ExecOptions};
use crate::levels::{LevelArray, LevelMap};
use crate::order::{v_cmp, OrderColumn};
use crate::range::PrefixTables;
use crate::vdg::{VDataGuide, VTypeId, VdgError};
use crate::vpbn::VPbnRef;
use std::sync::{Arc, OnceLock};
use vh_dataguide::TypedDocument;
use vh_obs::{AxisCounters, RangeChoice, TraceBuilder};
use vh_pbn::keys;
use vh_xml::NodeId;

/// A pending step of a placement walk: enter a node, or close the
/// subtree opened at a walk position once everything below it is out.
enum Step {
    Enter(NodeId),
    Close(usize),
}

/// One compiled view of a document: the vDataGuide expansion, its
/// Algorithm-1 level map and the scan-range [`PrefixTables`] — pure
/// functions of the guide, each behind an `Arc` — plus the cell of the
/// view's [`OrderColumn`], which the first join after a compile or a
/// catch-up fills ([`VirtualDocument::order_column`]). It is the unit the
/// engine cache stores, stamps, catches up and evicts whole, and every
/// [`VirtualDocument`] opened from it shares its parts, so a warm open
/// clones four pointers.
#[derive(Clone, Debug)]
pub struct CompiledView {
    pub(crate) vdg: Arc<VDataGuide>,
    pub(crate) levels: Arc<LevelMap>,
    pub(crate) tables: Arc<PrefixTables>,
    pub(crate) order: Arc<OnceLock<OrderColumn>>,
    /// Guide types the parts reflect: the guide's length when they were
    /// compiled or last proven unaffected by its growth.
    pub(crate) guide_len: usize,
}

impl CompiledView {
    /// Compiles `spec` against the document's DataGuide and builds the
    /// rest of the view, each part under its own span of `trace` (a
    /// disabled builder records nothing).
    pub fn compile(
        td: &TypedDocument,
        spec: &str,
        trace: &mut TraceBuilder,
    ) -> Result<Self, VdgError> {
        trace.begin("guide-expansion");
        let vdg = VDataGuide::compile(spec, td.guide())?;
        trace.end();
        trace.begin("level-map");
        let levels = LevelMap::build(&vdg, td.guide());
        trace.end();
        trace.begin("prefix-tables");
        let tables = PrefixTables::build(&vdg, &levels, td.guide());
        trace.end();
        Ok(CompiledView {
            vdg: Arc::new(vdg),
            levels: Arc::new(levels),
            tables: Arc::new(tables),
            order: Arc::default(),
            guide_len: td.guide().len(),
        })
    }

    /// True once a join has asked this compile (or catch-up) for its
    /// order column, which built it.
    pub fn order_checked(&self) -> bool {
        self.order.get().is_some()
    }
}

/// A virtual view of a typed document under a vDataGuide.
#[derive(Clone, Debug)]
pub struct VirtualDocument<'a> {
    td: &'a TypedDocument,
    /// The compiled parts, shared with the engine cache when the view was
    /// opened through one.
    view: CompiledView,
    /// How axis filters and sorts over this view execute.
    exec: ExecOptions,
    /// Axis-scan observability sink for traced queries. `None` (the
    /// default) keeps the hot path a single pointer test per scan.
    obs: Option<Arc<AxisCounters>>,
}

impl<'a> VirtualDocument<'a> {
    /// Compiles `spec` against the document's DataGuide and builds the
    /// virtual view. This is `virtualDoc(uri, spec)` minus the URI lookup.
    pub fn open(td: &'a TypedDocument, spec: &str) -> Result<Self, VdgError> {
        let view = CompiledView::compile(td, spec, &mut TraceBuilder::disabled())?;
        Ok(Self::new(td, view))
    }

    /// Opens a view of `td` from its compiled parts (which engines cache
    /// across queries); touches no per-node state.
    pub fn new(td: &'a TypedDocument, view: CompiledView) -> Self {
        VirtualDocument {
            td,
            view,
            exec: ExecOptions::default(),
            obs: None,
        }
    }

    /// Sets the execution options for axis filters and sorts over this
    /// view (single-threaded by default).
    pub fn set_exec(&mut self, opts: ExecOptions) {
        self.exec = opts;
    }

    /// The current execution options.
    #[inline]
    pub fn exec(&self) -> ExecOptions {
        self.exec
    }

    /// The view's precomputed scan-range prefix tables.
    pub fn prefix_tables(&self) -> &PrefixTables {
        &self.view.tables
    }

    /// Attaches an axis-scan counter sink: every subsequent
    /// `collect_related` records its chosen byte range (type-index and
    /// arena slot brackets) and scan totals into it. Traced queries
    /// attach one; untraced navigation leaves it `None`.
    pub fn set_obs(&mut self, obs: Arc<AxisCounters>) {
        self.obs = Some(obs);
    }

    /// The underlying typed document.
    #[inline]
    pub fn typed(&self) -> &'a TypedDocument {
        self.td
    }

    /// The compiled vDataGuide.
    #[inline]
    pub fn vdg(&self) -> &VDataGuide {
        &self.view.vdg
    }

    /// The level-array map.
    #[inline]
    pub fn levels(&self) -> &LevelMap {
        &self.view.levels
    }

    /// The virtual type of a node, or `None` if the node is not part of
    /// the virtual hierarchy.
    #[inline]
    pub fn vtype_of(&self, id: NodeId) -> Option<VTypeId> {
        self.view.vdg.vtype_of(self.td.type_of(id))
    }

    /// The vPBN number of a node (physical number + type level array).
    /// Both sides are borrowed from columns: the encoded key from the PBN
    /// arena, levels from the flat level column.
    pub fn vpbn_of(&self, id: NodeId) -> Option<VPbnRef<'_>> {
        let vt = self.vtype_of(id)?;
        Some(VPbnRef::from_slices(
            self.td.pbn().key_of(id),
            self.view.levels.levels_of(vt),
            vt,
        ))
    }

    /// Invariant: only called on nodes the view itself produced (visible
    /// candidates of a virtual type), all of which carry a vPBN.
    fn vpbn_visible(&self, id: NodeId) -> VPbnRef<'_> {
        match self.vpbn_of(id) {
            Some(v) => v,
            None => unreachable!("visible node has a vPBN"),
        }
    }

    /// The level array of a virtual type, materialized from the flat level
    /// column (borrow via [`Self::levels`] + `levels_of` on hot paths).
    #[inline]
    pub fn array(&self, vt: VTypeId) -> LevelArray {
        self.view.levels.array(vt)
    }

    /// The compiled parts this view shares with the engine cache.
    #[inline]
    pub fn compiled(&self) -> &CompiledView {
        &self.view
    }

    /// All nodes of a virtual type, in PBN (original document) order: the
    /// document's type-index list of its original type.
    #[inline]
    pub fn nodes_of_vtype(&self, vt: VTypeId) -> &'a [NodeId] {
        self.td.nodes_of_type(self.view.vdg.original_type(vt))
    }

    /// Total number of nodes visible in the virtual hierarchy.
    pub fn visible_nodes(&self) -> usize {
        (0..self.view.vdg.len())
            .map(|vt| self.nodes_of_vtype(VTypeId::from_index(vt)).len())
            .sum()
    }

    /// The virtual roots: instances of the root virtual types, in virtual
    /// document order.
    pub fn roots(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .view
            .vdg
            .roots()
            .iter()
            .flat_map(|&rt| self.nodes_of_vtype(rt).iter().copied())
            .collect();
        self.sort_virtual(&mut out);
        out
    }

    /// The virtual children of `x`, in virtual document order.
    pub fn children(&self, x: NodeId) -> Vec<NodeId> {
        self.children_of_set(std::slice::from_ref(&x), |_| true)
    }

    /// A set-at-a-time child step: the virtual children of every node in
    /// `xs` whose virtual type `keep` accepts, merged in virtual document
    /// order without duplicates. Equal to one call per context, concatenated,
    /// sorted and deduplicated — but only the accepted child types are
    /// scanned, and each `(context type, child type)` group is one forward
    /// pass over that type's index instead of two binary searches per
    /// context. A single context (as [`Self::children`] passes) takes the
    /// binary searches only.
    // oracle: children_of_set_oracle
    pub fn children_of_set(&self, xs: &[NodeId], keep: impl Fn(VTypeId) -> bool) -> Vec<NodeId> {
        let mut out = Vec::new();
        if let &[x] = xs {
            // One context is already one group per child type, and its
            // children are distinct: no grouping sort, no dedup. Nodes of
            // one virtual type order by key, as the index lists them, so
            // only children of several types need the `v_cmp` sort.
            let mut types = 0;
            if let Some(xt) = self.vtype_of(x) {
                for &ct in self.view.vdg.children(xt).iter().filter(|&&ct| keep(ct)) {
                    let len = out.len();
                    self.collect_related(xs, xt, ct, &mut out, axes::v_child, |_| {});
                    types += usize::from(out.len() > len);
                }
            }
            if types > 1 {
                self.sort_virtual(&mut out);
            }
            return out;
        }
        let arena = self.td.pbn().arena();
        // One work item per (context, accepted child type). Sorting by
        // (context type, child type, arena slot) makes every group a
        // contiguous run with its contexts in document order; a node
        // without a slot holds the empty key, which sorts first.
        let mut work: Vec<(VTypeId, VTypeId, Option<usize>, NodeId)> = Vec::new();
        for &x in xs {
            let Some(xt) = self.vtype_of(x) else {
                continue;
            };
            for &ct in self.view.vdg.children(xt) {
                if keep(ct) {
                    work.push((xt, ct, arena.slot_of(x), x));
                }
            }
        }
        work.sort_unstable();
        let mut group: Vec<NodeId> = Vec::new();
        for run in work.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let &(xt, ct, ..) = &run[0];
            group.clear();
            group.extend(run.iter().map(|w| w.3));
            self.collect_related(&group, xt, ct, &mut out, axes::v_child, |_| {});
        }
        self.sort_virtual(&mut out);
        out.dedup();
        out
    }

    /// The virtual parent of `x`, if any.
    pub fn parent(&self, x: NodeId) -> Option<NodeId> {
        // The virtual tree gives every node at most one parent per parent
        // instance match; joins can produce several (a node appearing under
        // multiple parents) — return the first in document order.
        self.parents(x)
            .into_iter()
            .min_by(|&a, &b| v_cmp(&self.view.vdg, &self.vpbn_visible(a), &self.vpbn_visible(b)))
    }

    /// Every virtual parent of `x`: each node that places it.
    fn parents(&self, x: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let Some(xt) = self.vtype_of(x) else {
            return out;
        };
        if let Some(pt) = self.view.vdg.guide().ty(xt).parent() {
            let xs = std::slice::from_ref(&x);
            self.collect_related(xs, xt, pt, &mut out, axes::v_parent, |_| {});
        }
        out
    }

    /// The virtual descendants of `x` with virtual type `vt`, in virtual
    /// document order. Uses the type index with a derived scan range.
    pub fn descendants_of_type(&self, x: NodeId, vt: VTypeId) -> Vec<NodeId> {
        let Some(xt) = self.vtype_of(x) else {
            return Vec::new();
        };
        // One type, one context: the index order is already virtual
        // document order.
        let mut out = Vec::new();
        let xs = std::slice::from_ref(&x);
        self.collect_related(xs, xt, vt, &mut out, axes::v_descendant, |_| {});
        out
    }

    /// Ablation baseline (experiment A1): like [`Self::descendants_of_type`]
    /// but testing **every** instance of the type instead of deriving a PBN
    /// scan range from the level arrays.
    pub fn descendants_of_type_filter(&self, x: NodeId, vt: VTypeId) -> Vec<NodeId> {
        let Some(xv) = self.vpbn_of(x) else {
            return Vec::new();
        };
        let ta = self.view.levels.levels_of(vt);
        let mut out = exec::par_filter(&self.exec, self.nodes_of_vtype(vt), |&cand| {
            let cv = VPbnRef::from_slices(self.td.pbn().key_of(cand), ta, vt);
            axes::v_descendant(&self.view.vdg, &cv, &xv)
        });
        self.sort_virtual(&mut out);
        out
    }

    /// All virtual descendants of `x` (any type), in virtual document order.
    pub fn descendants(&self, x: NodeId) -> Vec<NodeId> {
        let Some(xt) = self.vtype_of(x) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let xs = std::slice::from_ref(&x);
        for vt in (0..self.view.vdg.len()).map(VTypeId::from_index) {
            if vh_dataguide::axes::descendant(self.view.vdg.guide(), vt, xt) {
                self.collect_related(xs, xt, vt, &mut out, axes::v_descendant, |_| {});
            }
        }
        self.sort_virtual(&mut out);
        out
    }

    /// The virtual ancestors of `x`, nearest first.
    pub fn ancestors(&self, x: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = self.parent(x);
        while let Some(p) = cur {
            out.push(p);
            cur = self.parent(p);
        }
        out
    }

    /// §5.1: the 1-based sibling ordinal of `x` among its virtual siblings,
    /// computed dynamically "by queueing the siblings".
    pub fn sibling_ordinal(&self, x: NodeId) -> Option<usize> {
        let siblings = match self.parent(x) {
            Some(p) => self.children(p),
            None => self.roots(),
        };
        siblings.iter().position(|&s| s == x).map(|i| i + 1)
    }

    /// Checks a virtual axis between two visible nodes.
    pub fn check<F>(&self, pred: F, x: NodeId, y: NodeId) -> bool
    where
        F: Fn(&VDataGuide, &VPbnRef<'_>, &VPbnRef<'_>) -> bool,
    {
        match (self.vpbn_of(x), self.vpbn_of(y)) {
            (Some(xv), Some(yv)) => pred(&self.view.vdg, &xv, &yv),
            _ => false,
        }
    }

    /// Preorder (virtual document order) traversal of the whole virtual
    /// forest. The walk visits placements: a node that several parents
    /// place (join multiplicity) appears once under each, and a node that
    /// no parent places does not appear.
    pub fn preorder(&self) -> Vec<NodeId> {
        self.placement_walk()
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    }

    /// The view's [`OrderColumn`]: the rank of every placement in the
    /// preorder walk and the last rank inside its subtree, which the
    /// structural and twig joins compare instead of calling `v_cmp` and
    /// `v_ancestor`. Built on the first call after the view was compiled
    /// or caught up and cached in the view's cell, so later joins reuse
    /// it and opening a view never builds it.
    pub fn order_column(&self) -> &OrderColumn {
        self.view.order.get_or_init(|| {
            let walk = self.placement_walk();
            OrderColumn::from_walk(self.td.doc().len(), self.visible_nodes(), &walk)
        })
    }

    // ----- internals ----------------------------------------------------

    /// The preorder walk over the view's placements: each step's node and
    /// the rank (walk position) of the last step inside its subtree. A
    /// node's children are those [`Self::children`] lists, under every
    /// parent that places it, so subtree intervals nest by construction.
    ///
    /// Set at a time: one galloping pass per virtual edge (parent type,
    /// child type) collects the children of every parent instance, one
    /// slice per parent, and the walk then merges each node's slices.
    /// Children of one type are already in virtual document order, so
    /// `v_cmp` sorts only a node whose children span several types — the
    /// same input and sort [`Self::children`] would give it.
    // oracle: placement_walk_per_node
    fn placement_walk(&self) -> Vec<(NodeId, u32)> {
        let guide = self.view.vdg.guide();
        // Each visible node's position in its type's list.
        let mut pos = vec![0u32; self.td.doc().len()];
        for vt in guide.type_ids() {
            for (i, &id) in self.nodes_of_vtype(vt).iter().enumerate() {
                pos[id.index()] = i as u32;
            }
        }
        // `edges[pt]`: per child type of `pt`, the children of every `pt`
        // instance back to back, and where each instance's slice ends.
        let edges: Vec<Vec<(Vec<NodeId>, Vec<u32>)>> = guide
            .type_ids()
            .map(|pt| {
                let parents = self.nodes_of_vtype(pt);
                self.view
                    .vdg
                    .children(pt)
                    .iter()
                    .map(|&ct| {
                        let mut kids = Vec::new();
                        let mut ends = Vec::with_capacity(parents.len() + 1);
                        ends.push(0);
                        self.collect_related(parents, pt, ct, &mut kids, axes::v_child, |n| {
                            ends.push(n as u32)
                        });
                        (kids, ends)
                    })
                    .collect()
            })
            .collect();
        let mut out: Vec<(NodeId, u32)> = Vec::with_capacity(self.visible_nodes());
        let mut stack: Vec<Step> = self.roots().into_iter().rev().map(Step::Enter).collect();
        let mut kids: Vec<NodeId> = Vec::new();
        while let Some(step) = stack.pop() {
            match step {
                Step::Enter(id) => {
                    stack.push(Step::Close(out.len()));
                    out.push((id, 0));
                    let Some(vt) = self.vtype_of(id) else {
                        continue;
                    };
                    let p = pos[id.index()] as usize;
                    kids.clear();
                    let mut types = 0;
                    for (all, ends) in &edges[vt.index()] {
                        let slice = &all[ends[p] as usize..ends[p + 1] as usize];
                        types += usize::from(!slice.is_empty());
                        kids.extend_from_slice(slice);
                    }
                    if types > 1 {
                        self.sort_virtual(&mut kids);
                    }
                    stack.extend(kids.iter().rev().map(|&c| Step::Enter(c)));
                }
                Step::Close(at) => out[at].1 = (out.len() - 1) as u32,
            }
        }
        out
    }

    /// Collects nodes of type `vt` related to each context in `xs` under
    /// `pred(candidate, context)`, appending every context's matches in
    /// index (PBN) order, context after context, and calling `ended` with
    /// the length of `out` after each context. Every context must have
    /// virtual type `xt`, and `xs` must be in document order (sorted by
    /// arena slot); duplicates are scanned once per occurrence.
    ///
    /// Each context scans only the byte range of the type index pinned by
    /// the compatibility prefix: with `m` pinned components, a
    /// candidate's encoded key must extend the first `m` components of the
    /// context's key, so the candidates form one contiguous slice of the
    /// PBN-sorted index — no numbers are decoded and no bound numbers
    /// allocated (`memcmp` is document order, `starts_with` is the prefix
    /// test). `m` depends only on the `(xt, vt)` pair, so it is one
    /// lookup in the view's [`PrefixTables`]. The first context finds its
    /// slice by two binary searches. Truncating sorted keys to their first
    /// `m` components keeps them sorted, so each later context's slice
    /// starts no earlier than the previous one's: both of its bounds are
    /// found by galloping forward from there, which makes a whole sorted
    /// context set one forward pass over the index.
    ///
    /// When the prefix subsumes every compatibility constraint (`exact`),
    /// the §5 predicate is a *constant* over the slice: every in-range
    /// candidate extends the pinned prefix (hence is compatible with the
    /// context), and the remaining level/guide-type conditions depend only
    /// on the `(context type, target type)` pair. It is therefore evaluated
    /// once and the slice copied wholesale. Otherwise the per-candidate
    /// filter is partitioned across threads when the execution options
    /// allow; chunk results concatenate in index (PBN) order, so the output
    /// is identical to the sequential scan either way.
    fn collect_related<F>(
        &self,
        xs: &[NodeId],
        xt: VTypeId,
        vt: VTypeId,
        out: &mut Vec<NodeId>,
        pred: F,
        mut ended: impl FnMut(usize),
    ) where
        F: Fn(&VDataGuide, &VPbnRef<'_>, &VPbnRef<'_>) -> bool + Sync,
    {
        let pbn = self.td.pbn();
        let xa = self.view.levels.levels_of(xt);
        let ta = self.view.levels.levels_of(vt);
        let list = self.nodes_of_vtype(vt);
        let (m, exact) = self.view.tables.prefix(xt, vt);
        // Start of the previous context's slice: where the next gallops from.
        let mut from: Option<usize> = None;
        for &x in xs {
            let xkey = pbn.key_of(x);
            let xv = VPbnRef::from_slices(xkey, xa, xt);
            let prefix = &xkey[..keys::component_boundary(xkey, m)];
            let (start, end) = self.index_range(list, from, prefix);
            debug_assert!(
                from.is_none_or(|f| f <= start),
                "contexts in document order"
            );
            from = Some(start);
            let candidates = &list[start..end];
            if let Some(obs) = &self.obs {
                self.record_scan(obs, xt, vt, prefix, m, exact, start, end);
            }
            if exact {
                if let Some(&first) = candidates.first() {
                    let cv = VPbnRef::from_slices(pbn.key_of(first), ta, vt);
                    if pred(&self.view.vdg, &cv, &xv) {
                        out.extend_from_slice(candidates);
                    }
                }
            } else {
                out.extend(exec::par_filter(&self.exec, candidates, |&cand| {
                    let cv = VPbnRef::from_slices(pbn.key_of(cand), ta, vt);
                    pred(&self.view.vdg, &cv, &xv)
                }));
            }
            ended(out.len());
        }
    }

    /// Publishes one `collect_related` range selection to the attached
    /// counter sink: aggregate totals always, plus a detail
    /// [`RangeChoice`] (virtual-path names, type-index bracket, global
    /// arena slot bracket) while the sink still wants them. Out of the
    /// hot path — only traced queries reach it.
    #[cold]
    #[allow(clippy::too_many_arguments)]
    fn record_scan(
        &self,
        obs: &AxisCounters,
        ctx: VTypeId,
        vt: VTypeId,
        prefix: &[u8],
        pinned: usize,
        exact: bool,
        start: usize,
        end: usize,
    ) {
        let slots = (end - start) as u64;
        // Exact regions evaluate the §5 predicate once for the whole
        // slice; otherwise once per candidate.
        let filters = if exact { slots.min(1) } else { slots };
        obs.record_scan(slots, exact, filters);
        if obs.wants_range() {
            let (arena_start, arena_end) = self.td.pbn().arena().slot_window(prefix);
            obs.push_range(RangeChoice {
                context: self.view.vdg.guide().path_string(ctx),
                target: self.view.vdg.guide().path_string(vt),
                pinned: pinned as u32,
                exact,
                index_start: start as u64,
                index_end: end as u64,
                arena_start,
                arena_end,
            });
        }
    }

    /// Finds the sub-range of a PBN-sorted node list whose encoded keys
    /// extend `prefix`: keys sort in document order under `memcmp`, so the
    /// extensions of a prefix are exactly the interval
    /// `[prefix, prefix_succ(prefix))`. The empty prefix selects the whole
    /// list. Without a hint both bounds are binary-searched; with `from`
    /// (a position no later than the range start) the start gallops
    /// forward from `from` and the end from the start.
    fn index_range(&self, list: &[NodeId], from: Option<usize>, prefix: &[u8]) -> (usize, usize) {
        let pbn = self.td.pbn();
        let before = |&id: &NodeId| pbn.key_of(id) < prefix;
        let inside = |&id: &NodeId| keys::before_subtree_end(prefix, pbn.key_of(id));
        match from {
            None => (
                exec::partition_point_branchless(list, before),
                exec::partition_point_branchless(list, inside),
            ),
            Some(from) => {
                let start = from + exec::partition_point_gallop(&list[from..], before);
                (
                    start,
                    start + exec::partition_point_gallop(&list[start..], inside),
                )
            }
        }
    }

    /// Sorts node ids into virtual document order. Safe to parallelize:
    /// `v_cmp` never returns `Equal` for distinct nodes (equal numbers of
    /// equal types are the same node), so chunk-sort + merge reproduces
    /// the sequential order exactly.
    fn sort_virtual(&self, ids: &mut [NodeId]) {
        exec::par_sort_by(&self.exec, ids, |&a, &b| {
            v_cmp(&self.view.vdg, &self.vpbn_visible(a), &self.vpbn_visible(b))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vh_xml::builder::paper_figure2;

    fn sam() -> TypedDocument {
        TypedDocument::analyze(paper_figure2())
    }

    /// Labels a node for readable assertions: name or text content.
    fn label(td: &TypedDocument, id: NodeId) -> String {
        match td.doc().kind(id) {
            vh_xml::NodeKind::Element { name, .. } => name.clone(),
            vh_xml::NodeKind::Text(t) => format!("'{t}'"),
            other => format!("{other:?}"),
        }
    }

    #[test]
    fn roots_are_the_titles_in_order() {
        let td = sam();
        let vd = VirtualDocument::open(&td, "title { author { name } }").unwrap();
        let roots = vd.roots();
        assert_eq!(roots.len(), 2);
        assert_eq!(td.doc().string_value(roots[0]), "X");
        assert_eq!(td.doc().string_value(roots[1]), "Y");
    }

    #[test]
    fn children_of_title_are_text_then_author() {
        let td = sam();
        let vd = VirtualDocument::open(&td, "title { author { name } }").unwrap();
        let title1 = vd.roots()[0];
        let kids = vd.children(title1);
        let labels: Vec<String> = kids.iter().map(|&k| label(&td, k)).collect();
        assert_eq!(labels, vec!["'X'", "author"]);
        // The author is book 1's author, not book 2's.
        let author = kids[1];
        assert_eq!(td.doc().string_value(author), "C");
    }

    #[test]
    fn parent_inverts_children() {
        let td = sam();
        let vd = VirtualDocument::open(&td, "title { author { name } }").unwrap();
        for root in vd.roots() {
            assert_eq!(vd.parent(root), None);
            for c in vd.children(root) {
                assert_eq!(vd.parent(c), Some(root), "child {}", label(&td, c));
            }
        }
    }

    #[test]
    fn preorder_is_figure3_order() {
        // Figure 3: title1 (X, author1(name C)), title2 (Y, author2(name D)).
        let td = sam();
        let vd = VirtualDocument::open(&td, "title { author { name } }").unwrap();
        let order: Vec<String> = vd.preorder().iter().map(|&n| label(&td, n)).collect();
        assert_eq!(
            order,
            vec![
                "title", "'X'", "author", "name", "'C'", //
                "title", "'Y'", "author", "name", "'D'",
            ]
        );
        assert_eq!(vd.visible_nodes(), 10);
    }

    #[test]
    fn descendants_of_type_scans_one_book() {
        let td = sam();
        let vd = VirtualDocument::open(&td, "title { author { name } }").unwrap();
        let name_vt = vd
            .vdg()
            .guide()
            .lookup_path(&["title", "author", "name"])
            .unwrap();
        let title1 = vd.roots()[0];
        let names = vd.descendants_of_type(title1, name_vt);
        assert_eq!(names.len(), 1);
        assert_eq!(td.doc().string_value(names[0]), "C");
    }

    #[test]
    fn inversion_navigation() {
        // title { name { author } }: author hangs below name.
        let td = sam();
        let vd = VirtualDocument::open(&td, "title { name { author } }").unwrap();
        let title1 = vd.roots()[0];
        let kids = vd.children(title1);
        // title's children: its text X and name.
        let labels: Vec<String> = kids.iter().map(|&k| label(&td, k)).collect();
        assert_eq!(labels, vec!["'X'", "name"]);
        let name1 = kids[1];
        let name_kids = vd.children(name1);
        let labels: Vec<String> = name_kids.iter().map(|&k| label(&td, k)).collect();
        // name keeps its text and gains author as a virtual child; the
        // prefix-holder author (1.1.2 vs text 1.1.2.1.1) sorts first.
        assert_eq!(labels, vec!["author", "'C'"]);
        let author1 = name_kids[0];
        assert_eq!(vd.parent(author1), Some(name1));
        // author has no children in this virtual hierarchy (its original
        // child, name, is re-rooted above it).
        assert!(vd.children(author1).is_empty());
    }

    #[test]
    fn ancestors_climb_to_the_root() {
        let td = sam();
        let vd = VirtualDocument::open(&td, "title { author { name } }").unwrap();
        let name_vt = vd
            .vdg()
            .guide()
            .lookup_path(&["title", "author", "name"])
            .unwrap();
        let title1 = vd.roots()[0];
        let name1 = vd.descendants_of_type(title1, name_vt)[0];
        let anc: Vec<String> = vd.ancestors(name1).iter().map(|&a| label(&td, a)).collect();
        assert_eq!(anc, vec!["author", "title"]);
    }

    #[test]
    fn sibling_ordinals_computed_dynamically() {
        let td = sam();
        let vd = VirtualDocument::open(&td, "title { author { name } }").unwrap();
        let roots = vd.roots();
        assert_eq!(vd.sibling_ordinal(roots[0]), Some(1));
        assert_eq!(vd.sibling_ordinal(roots[1]), Some(2));
        let kids = vd.children(roots[0]);
        assert_eq!(vd.sibling_ordinal(kids[0]), Some(1));
        assert_eq!(vd.sibling_ordinal(kids[1]), Some(2));
    }

    #[test]
    fn invisible_nodes_have_no_virtual_presence() {
        let td = sam();
        let vd = VirtualDocument::open(&td, "title { author { name } }").unwrap();
        // publisher is not part of the virtual hierarchy.
        let root = td.doc().root().unwrap();
        let book1 = td.doc().children(root)[0];
        let publisher = td.doc().children(book1)[2];
        assert_eq!(vd.vtype_of(publisher), None);
        assert!(vd.vpbn_of(publisher).is_none());
        assert!(vd.children(publisher).is_empty());
        assert_eq!(vd.parent(publisher), None);
    }

    #[test]
    fn identity_view_mirrors_the_document() {
        let td = sam();
        let vd = VirtualDocument::open(&td, "data { ** }").unwrap();
        assert_eq!(vd.visible_nodes(), td.doc().len());
        let phys: Vec<NodeId> = td.doc().preorder().collect();
        assert_eq!(vd.preorder(), phys);
        for id in td.doc().preorder() {
            assert_eq!(
                vd.parent(id),
                td.doc().parent(id),
                "parent of {}",
                label(&td, id)
            );
            assert_eq!(
                vd.children(id),
                td.doc().children(id).to_vec(),
                "children of {}",
                label(&td, id)
            );
        }
    }

    #[test]
    fn parallel_and_table_paths_match_the_default_exactly() {
        let td = sam();
        for spec in ["title { author { name } }", "title { name { author } }"] {
            let base = VirtualDocument::open(&td, spec).unwrap();
            // Every table cell the scans read equals the per-context
            // computation it replaces, `related_prefix`.
            for x in base.preorder() {
                let (xv, xt) = (base.vpbn_of(x).unwrap(), base.vtype_of(x).unwrap());
                for vt in base.vdg().guide().type_ids() {
                    assert_eq!(
                        base.prefix_tables().prefix(xt, vt),
                        crate::range::related_prefix(&xv, base.levels().levels_of(vt)),
                        "{spec}: {} -> {vt:?}",
                        label(&td, x)
                    );
                }
            }
            for threads in [2, 3, 8] {
                let mut vd = VirtualDocument::open(&td, spec).unwrap();
                vd.set_exec(ExecOptions {
                    threads,
                    cache: true,
                    par_threshold: 1, // force parallel paths on this tiny doc
                });
                assert_eq!(vd.exec().threads, threads);
                assert_eq!(vd.roots(), base.roots(), "{spec} t={threads}");
                assert_eq!(vd.preorder(), base.preorder(), "{spec} t={threads}");
                for id in base.preorder() {
                    assert_eq!(vd.children(id), base.children(id));
                    assert_eq!(vd.parent(id), base.parent(id));
                    assert_eq!(vd.ancestors(id), base.ancestors(id));
                }
                let name_vt = vd.vdg().guide().type_ids().last().unwrap();
                for id in base.preorder() {
                    assert_eq!(
                        vd.descendants_of_type(id, name_vt),
                        base.descendants_of_type(id, name_vt)
                    );
                    assert_eq!(
                        vd.descendants_of_type_filter(id, name_vt),
                        base.descendants_of_type_filter(id, name_vt)
                    );
                }
            }
        }
    }

    #[test]
    fn axis_check_helper() {
        let td = sam();
        let vd = VirtualDocument::open(&td, "title { author { name } }").unwrap();
        let title1 = vd.roots()[0];
        let author1 = vd.children(title1)[1];
        assert!(vd.check(crate::axes::v_child, author1, title1));
        assert!(vd.check(crate::axes::v_parent, title1, author1));
        assert!(!vd.check(crate::axes::v_child, title1, author1));
    }

    /// Per-context oracle for [`VirtualDocument::children_of_set`]: each
    /// context's [`VirtualDocument::children`] (a one-context call, which
    /// binary-searches and never gallops), kept by virtual type,
    /// concatenated, then sorted into virtual document order and
    /// deduplicated.
    fn children_of_set_oracle(
        vd: &VirtualDocument<'_>,
        xs: &[NodeId],
        keep: impl Fn(VTypeId) -> bool,
    ) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = xs
            .iter()
            .flat_map(|&x| vd.children(x))
            .filter(|&c| vd.vtype_of(c).is_some_and(&keep))
            .collect();
        vd.sort_virtual(&mut out);
        out.dedup();
        out
    }

    /// Scan totals without the detail records.
    fn totals(obs: &AxisCounters) -> [u64; 4] {
        let s = obs.snapshot();
        [
            s.range_scans,
            s.slots_scanned,
            s.exact_regions,
            s.filter_checks,
        ]
    }

    #[test]
    fn batched_child_steps_match_the_per_context_oracle() {
        // Figure 2, Figure 2 after edits that mint keys, and a document
        // with join multiplicity (two titles share two authors), a book
        // without a title and one without an author.
        let mut edited = sam();
        let data = edited.doc().root().unwrap();
        for k in 0..6 {
            edited
                .insert_fragment(
                    data,
                    0,
                    &format!(
                        "<book><title>T{k}</title><author><name>N{k}</name></author>\
                         <author><name>M{k}</name></author></book>"
                    ),
                )
                .unwrap();
        }
        edited.compact();
        let path = |td: &TypedDocument, p: &[&str]| td.guide().lookup_path(p).unwrap();
        let books = edited
            .nodes_of_type(path(&edited, &["data", "book"]))
            .to_vec();
        let authors = edited
            .nodes_of_type(path(&edited, &["data", "book", "author"]))
            .to_vec();
        edited.move_subtree(authors[3], books[0], 0).unwrap();
        edited.delete_subtree(books[2]).unwrap();
        edited.compact();
        // The flag marks documents without join multiplicity.
        let docs = [
            (sam(), true),
            (edited, false),
            (
                TypedDocument::parse(
                    "j",
                    "<data><book><title>A</title><title>B</title>\
                 <author><name>C</name></author><author><name>D</name></author></book>\
                 <book><author><name>E</name></author></book>\
                 <book><title>F</title><publisher><location>L</location></publisher></book>\
                 </data>",
                )
                .unwrap(),
                false,
            ),
        ];
        let specs = [
            "data { ** }",
            "title { author { name } }",
            "title { name { author } }",
            "name { author { title } }",
            "location { title author { name } }",
        ];
        for (td, single_parents) in &docs {
            for spec in specs {
                let base = VirtualDocument::open(td, spec).unwrap();
                let all = base.preorder();
                // Every visible node, then the same set reversed with
                // duplicates: the routine may assume no input order.
                let mut shuffled: Vec<NodeId> = all.iter().rev().copied().collect();
                shuffled.extend(all.iter().step_by(2).copied());
                let guide = base.vdg().guide();
                let mut tests: Vec<Box<dyn Fn(VTypeId) -> bool + '_>> =
                    vec![Box::new(|vt| guide.ty(vt).is_text())];
                if *single_parents {
                    // Every child type at once mixes types, and with join
                    // multiplicity `v_cmp` can be cyclic on the mix.
                    tests.push(Box::new(|_| true));
                }
                for vt in guide.type_ids() {
                    let name = guide.name(vt).to_owned();
                    tests.push(Box::new(move |t| guide.name(t) == name));
                }
                for threads in [1, 2, 8] {
                    let mut batched = VirtualDocument::open(td, spec).unwrap();
                    let mut single = VirtualDocument::open(td, spec).unwrap();
                    for vd in [&mut batched, &mut single] {
                        vd.set_exec(ExecOptions {
                            threads,
                            cache: true,
                            par_threshold: 1,
                        });
                    }
                    let (bo, so) = (Arc::new(AxisCounters::new()), Arc::new(AxisCounters::new()));
                    batched.set_obs(Arc::clone(&bo));
                    single.set_obs(Arc::clone(&so));
                    for xs in [&all, &shuffled] {
                        for keep in &tests {
                            let got = batched.children_of_set(xs, keep);
                            assert_eq!(
                                got,
                                children_of_set_oracle(&base, xs, keep),
                                "{spec} threads={threads}"
                            );
                            // One-context calls take the binary-search
                            // path; the galloping pass must scan exactly
                            // the same slots.
                            for &x in xs.iter() {
                                single.children_of_set(&[x], keep);
                            }
                            assert_eq!(totals(&bo), totals(&so), "{spec} threads={threads}");
                        }
                    }
                }
            }
        }
    }

    /// Per-node oracle for [`VirtualDocument::placement_walk`]: one
    /// [`VirtualDocument::children`] call per entered node.
    fn placement_walk_per_node(vd: &VirtualDocument<'_>) -> Vec<(NodeId, u32)> {
        let mut out: Vec<(NodeId, u32)> = Vec::with_capacity(vd.visible_nodes());
        let mut stack: Vec<Step> = vd.roots().into_iter().rev().map(Step::Enter).collect();
        while let Some(step) = stack.pop() {
            match step {
                Step::Enter(id) => {
                    stack.push(Step::Close(out.len()));
                    out.push((id, 0));
                    stack.extend(vd.children(id).into_iter().rev().map(Step::Enter));
                }
                Step::Close(at) => out[at].1 = (out.len() - 1) as u32,
            }
        }
        out
    }

    #[test]
    fn batched_placement_walks_match_the_per_node_walk() {
        // Figure 2, a corpus with join multiplicity (several authors per
        // book, books without a title or an author), and an edited
        // document whose keys were minted between old ones.
        let mut edited = sam();
        let data = edited.doc().root().unwrap();
        for k in 0..5 {
            let xml = format!(
                "<book><title>T{k}</title><author><name>N{k}</name></author>\
                 <author><name>M{k}</name></author></book>"
            );
            edited.insert_fragment(data, 0, &xml).unwrap();
        }
        edited.compact();
        let docs = [
            sam(),
            edited,
            TypedDocument::parse(
                "j",
                "<data><book><title>A</title><title>B</title>\
                 <author><name>C</name></author><author><name>D</name></author></book>\
                 <book><author><name>E</name></author></book>\
                 <book><title>F</title><publisher><location>L</location></publisher></book>\
                 </data>",
            )
            .unwrap(),
        ];
        for td in &docs {
            for spec in [
                "data { ** }",
                "title { author { name } }",
                "title { name { author } }",
                "name { author { title } }",
                "author { title }",
                "location { title author { name } }",
            ] {
                for threads in [1, 2, 8] {
                    let mut vd = VirtualDocument::open(td, spec).unwrap();
                    vd.set_exec(ExecOptions {
                        threads,
                        cache: true,
                        par_threshold: 1,
                    });
                    let walk = vd.placement_walk();
                    assert_eq!(
                        walk,
                        placement_walk_per_node(&vd),
                        "{spec} threads={threads}"
                    );
                    let ids: Vec<NodeId> = walk.iter().map(|&(id, _)| id).collect();
                    assert_eq!(vd.preorder(), ids, "{spec}");
                }
            }
        }
    }
}
