//! Assigning PBN numbers to every node of a document.
//!
//! The assignment is the bridge between the tree model (`vh-xml`) and the
//! numbering space: `by_node` maps a [`NodeId`] to its number in O(1), and
//! the columnar [`PbnArena`] — every number's order-preserving byte key,
//! one slot per node — is the document order: the reverse lookup is a
//! binary search over its keys. Comments and processing instructions are
//! numbered like any other child, exactly as a PBN-based DBMS would.

use crate::arena::PbnArena;
use crate::encode::EncodedPbn;
use crate::number::Pbn;
use vh_xml::{Document, NodeId};

/// The PBN numbering of a document.
///
/// After construction the assignment is **mutable**: minted and retired
/// numbers land in `by_node` immediately, so [`PbnAssignment::pbn_of`] is
/// always current, while the arena — the one document-order structure —
/// is refreshed lazily by [`PbnAssignment::compact`]. The edits the arena
/// has not yet absorbed are the *delta segment*, recorded as the ids they
/// dirtied; compaction splices just those nodes into the arena.
///
/// **No stale order reads.** Nothing reads the document order while the
/// delta segment is non-empty: every engine path drains it before it
/// routes views or returns, and the mutation path itself uses only
/// `by_node` and the tree. The order accessors
/// ([`PbnAssignment::in_document_order`], [`PbnAssignment::node_of`])
/// check this in debug builds.
#[derive(Clone, Debug)]
pub struct PbnAssignment {
    /// `by_node[id.index()]` is the number of node `id` (empty for nodes
    /// that hold none). Edits land here eagerly.
    by_node: Vec<Pbn>,
    /// Columnar encoded-key form of the numbering, in document order, as
    /// of the last compaction; stale while `dirty` is non-empty.
    arena: PbnArena,
    /// The delta segment: the node of every insert and removal not yet
    /// compacted into the arena, one entry per edit (a moved node
    /// appears twice).
    dirty: Vec<NodeId>,
}

impl PbnAssignment {
    /// Numbers every node of `doc` (root = `1`, k-th child appends `.k`).
    pub fn assign(doc: &Document) -> Self {
        let mut by_node = vec![Pbn::empty(); doc.len()];
        let mut arena = PbnArena::build(&[], doc.len());
        if let Some(root) = doc.root() {
            // Iterative preorder carrying the parent's number. Preorder
            // with dense child ordinals is document order, so each key is
            // appended at the next slot.
            let mut stack: Vec<(NodeId, Pbn)> = vec![(root, Pbn::root())];
            while let Some((id, num)) = stack.pop() {
                for (i, &c) in doc.children(id).iter().enumerate().rev() {
                    stack.push((c, num.child(i as u32 + 1)));
                }
                arena.push(&num, id);
                by_node[id.index()] = num;
            }
        }
        PbnAssignment {
            by_node,
            arena,
            dirty: Vec::new(),
        }
    }

    /// Rebuilds an assignment around an arena loaded from storage, decoding
    /// numbers from the keys instead of renumbering the document. The
    /// arena must come from [`PbnArena::from_parts`] (validated) and cover
    /// an id space of at least `id_space` entries.
    pub fn from_arena(arena: PbnArena, id_space: usize) -> Self {
        let mut by_node = vec![Pbn::empty(); id_space];
        for slot in 0..arena.len() {
            // Keys from a validated arena decode cleanly; a malformed key
            // would have failed `from_parts`' ordering check. Fall back to
            // the empty number rather than panicking on hostile bytes.
            if let Some(cell) = by_node.get_mut(arena.node_at_slot(slot).index()) {
                *cell = EncodedPbn::from_bytes(arena.key_at_slot(slot).to_vec())
                    .map(|e| e.decode())
                    .unwrap_or_else(|_| Pbn::empty());
            }
        }
        PbnAssignment {
            by_node,
            arena,
            dirty: Vec::new(),
        }
    }

    /// The columnar encoded-key arena of this numbering.
    #[inline]
    pub fn arena(&self) -> &PbnArena {
        &self.arena
    }

    /// The encoded byte key of a node — empty for ids outside the
    /// assignment. Borrowed from the arena; zero allocation.
    #[inline]
    pub fn key_of(&self, id: NodeId) -> &[u8] {
        self.arena.key_of(id)
    }

    /// The number of a node.
    ///
    /// # Panics
    /// Panics if `id` does not belong to the assigned document.
    #[inline]
    pub fn pbn_of(&self, id: NodeId) -> &Pbn {
        &self.by_node[id.index()]
    }

    /// The number of a node, or `None` when the node holds none: it
    /// postdates this assignment, was never reachable, or was retired.
    #[inline]
    pub fn pbn_of_checked(&self, id: NodeId) -> Option<&Pbn> {
        self.by_node.get(id.index()).filter(|p| !p.is_empty())
    }

    /// The node with the given number, if any: a binary search of the
    /// arena's keys, then one byte comparison. Needs a drained delta.
    pub fn node_of(&self, pbn: &Pbn) -> Option<NodeId> {
        debug_assert!(self.dirty.is_empty(), "order read with an undrained delta");
        let key = EncodedPbn::encode(pbn);
        let slot = self.arena.lower_bound(key.as_bytes());
        (slot < self.arena.len() && self.arena.key_at_slot(slot) == key.as_bytes())
            .then(|| self.arena.node_at_slot(slot))
    }

    /// All numbered nodes in document order — the arena's node column.
    /// Needs a drained delta.
    #[inline]
    pub fn in_document_order(&self) -> &[NodeId] {
        debug_assert!(self.dirty.is_empty(), "order read with an undrained delta");
        self.arena.nodes_in_order()
    }

    /// Number of numbered nodes, the delta segment included.
    pub fn len(&self) -> usize {
        let mut dirty = self.dirty.clone();
        dirty.sort_unstable();
        dirty.dedup();
        // Each dirtied node now counts if it holds a number, and no longer
        // counts through the arena slot it may have had.
        dirty.iter().fold(self.arena.len(), |n, &id| {
            n + usize::from(self.pbn_of_checked(id).is_some())
                - usize::from(self.arena.slot_of(id).is_some())
        })
    }

    /// True if no node holds a number (empty document).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records a freshly minted subtree — `(number, node)` pairs in
    /// strictly increasing document order. The run must land in a gap of
    /// the numbering: no live number may fall between its first and last
    /// key, which is checked against the arena's live slots and the
    /// numbers the delta segment holds. Returns `false` (and changes
    /// nothing) otherwise, or when the run is not strictly increasing.
    /// [`PbnAssignment::pbn_of`] sees the run at once; the arena is *not*
    /// updated — the run joins the delta segment until
    /// [`PbnAssignment::compact`]. A single minted node is a one-element
    /// run.
    pub fn insert_run(&mut self, run: Vec<(Pbn, NodeId)>) -> bool {
        let (Some((first, _)), Some((last, _))) = (run.first(), run.last()) else {
            return true;
        };
        if run.windows(2).any(|w| w[0].0 >= w[1].0) || self.holds_number_within(first, last) {
            return false;
        }
        let id_space = run.iter().map(|(_, id)| id.index() + 1).max().unwrap_or(0);
        if self.by_node.len() < id_space {
            self.by_node.resize(id_space, Pbn::empty());
        }
        for (pbn, id) in run {
            self.by_node[id.index()] = pbn;
            self.dirty.push(id);
        }
        true
    }

    /// True when some node currently holds a number in `[lo, hi]`. A live
    /// number is either a clean node's arena key or the number of a node
    /// the delta dirtied, so the arena slots keyed in `[lo, hi]` and the
    /// dirty nodes are checked against `by_node`: slots whose node was
    /// retired or moved away since the last compaction do not count.
    fn holds_number_within(&self, lo: &Pbn, hi: &Pbn) -> bool {
        let live = |id| self.pbn_of_checked(id).is_some_and(|p| lo <= p && p <= hi);
        let hi_key = EncodedPbn::encode(hi);
        let from = self.arena.lower_bound(EncodedPbn::encode(lo).as_bytes());
        (from..self.arena.len())
            .take_while(|&s| self.arena.key_at_slot(s) <= hi_key.as_bytes())
            .any(|s| live(self.arena.node_at_slot(s)))
            || self.dirty.iter().any(|&id| live(id))
    }

    /// Retires the numbers of `subtree` — a subtree's nodes in document
    /// order, as `Document::descendants_or_self` walks them — and returns
    /// the retired `(number, node)` run (nodes that hold no number are
    /// skipped, so retiring a subtree twice yields an empty run). Every
    /// retired node's `by_node` entry reverts to the empty number; the
    /// arena keeps the stale keys until [`PbnAssignment::compact`].
    pub fn remove_subtree(
        &mut self,
        subtree: impl IntoIterator<Item = NodeId>,
    ) -> Vec<(Pbn, NodeId)> {
        let mut run = Vec::new();
        for id in subtree {
            if let Some(cell) = self.by_node.get_mut(id.index()).filter(|p| !p.is_empty()) {
                run.push((std::mem::replace(cell, Pbn::empty()), id));
                self.dirty.push(id);
            }
        }
        run
    }

    /// Number of edits the arena has not yet absorbed. While non-zero,
    /// [`PbnAssignment::arena`] and [`PbnAssignment::key_of`] reflect the
    /// last compaction, not the current numbering.
    #[inline]
    pub fn delta_len(&self) -> usize {
        self.dirty.len()
    }

    /// Size of the node-id space (one past the largest id ever numbered);
    /// the arena's inverse map spans it after a compaction.
    #[inline]
    pub fn id_space(&self) -> usize {
        self.by_node.len()
    }

    /// Heap footprint of the numbering: `by_node` with each number's
    /// components, plus the arena and the delta segment.
    pub fn heap_bytes(&self) -> usize {
        self.by_node.capacity() * std::mem::size_of::<Pbn>()
            + self.by_node.iter().map(Pbn::heap_bytes).sum::<usize>()
            + self.arena.heap_bytes()
            + self.dirty.capacity() * std::mem::size_of::<NodeId>()
    }

    /// Absorbs the delta segment into the columnar arena by splicing the
    /// dirtied nodes into it ([`PbnArena::build`] over the numbered
    /// entries of `by_node`, sorted, is the from-scratch twin it must
    /// equal). Returns the number of edits merged.
    pub fn compact(&mut self) -> usize {
        let merged = self.dirty.len();
        if merged > 0 {
            let mut dirty = std::mem::take(&mut self.dirty);
            dirty.sort_unstable();
            dirty.dedup();
            self.arena.splice(&self.by_node, &dirty);
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pbn;
    use std::collections::{BTreeMap, BTreeSet};
    use vh_xml::builder::paper_figure2;

    #[test]
    fn figure8_numbers_match_the_paper() {
        // Figure 8 gives the PBN numbers for the Figure 2 instance.
        let doc = paper_figure2();
        let a = PbnAssignment::assign(&doc);
        let root = doc.root().unwrap();
        assert_eq!(a.pbn_of(root), &pbn![1]);

        let book1 = doc.children(root)[0];
        let book2 = doc.children(root)[1];
        assert_eq!(a.pbn_of(book1), &pbn![1, 1]);
        assert_eq!(a.pbn_of(book2), &pbn![1, 2]);

        // book2's children: title 1.2.1, author 1.2.2, publisher 1.2.3.
        let kids = doc.children(book2);
        assert_eq!(a.pbn_of(kids[0]), &pbn![1, 2, 1]);
        assert_eq!(a.pbn_of(kids[1]), &pbn![1, 2, 2]);
        assert_eq!(a.pbn_of(kids[2]), &pbn![1, 2, 3]);

        // name under author 1.2.2 is 1.2.2.1; its text D is 1.2.2.1.1.
        let author2 = kids[1];
        let name2 = doc.children(author2)[0];
        let d_text = doc.children(name2)[0];
        assert_eq!(a.pbn_of(name2), &pbn![1, 2, 2, 1]);
        assert_eq!(a.pbn_of(d_text), &pbn![1, 2, 2, 1, 1]);
    }

    #[test]
    fn node_lookup_round_trips() {
        let doc = paper_figure2();
        let a = PbnAssignment::assign(&doc);
        for id in doc.preorder() {
            let p = a.pbn_of(id);
            assert_eq!(a.node_of(p), Some(id));
        }
        assert_eq!(a.node_of(&pbn![9, 9]), None);
        assert_eq!(a.node_of(&pbn![1, 1, 1, 1, 1]), None, "a child of a leaf");
        assert_eq!(a.node_of(&Pbn::empty()), None);
        assert_eq!(a.len(), doc.len());
    }

    #[test]
    fn arena_order_is_document_order() {
        let doc = paper_figure2();
        let a = PbnAssignment::assign(&doc);
        let preorder: Vec<_> = doc.preorder().collect();
        assert_eq!(a.in_document_order(), preorder.as_slice());
    }

    #[test]
    fn empty_document_is_empty_assignment() {
        let doc = Document::new("u");
        let a = PbnAssignment::assign(&doc);
        assert!(a.is_empty());
        assert!(a.in_document_order().is_empty());
        assert_eq!(a.node_of(&pbn![1]), None);
    }

    #[test]
    fn minted_inserts_land_eagerly_and_compact_lazily() {
        let doc = paper_figure2();
        let mut a = PbnAssignment::assign(&doc);
        let before = a.len();

        // Mint a sibling between book1 (1.1) and book2 (1.2), attach it to
        // a fresh id past the current id space.
        let minted = crate::mint::KeyGen::between(&pbn![1], Some(&pbn![1, 1]), Some(&pbn![1, 2]));
        let new_id = NodeId::from_index(doc.len());
        assert!(a.insert_run(vec![(minted.clone(), new_id)]));
        assert!(
            !a.insert_run(vec![(minted.clone(), NodeId::from_index(doc.len() + 1))]),
            "a number the delta holds is refused"
        );
        assert_eq!(a.delta_len(), 1);

        // The per-node numbering and the count see the edit immediately…
        assert_eq!(a.len(), before + 1);
        assert_eq!(a.pbn_of(new_id), &minted);

        // …while the byte arena, and with it the document order, is stale
        // until compaction.
        assert!(a.key_of(new_id).is_empty());
        assert_eq!(a.compact(), 1);
        assert_eq!(a.delta_len(), 0);
        assert!(!a.key_of(new_id).is_empty());
        assert_eq!(a.arena().len(), before + 1);
        assert_eq!(a.node_of(&minted), Some(new_id));
        assert_eq!(a.in_document_order()[10], new_id, "right after book1's 9");
        assert_eq!(a.compact(), 0, "compacting a clean assignment is free");
    }

    #[test]
    fn removals_free_the_number_for_reuse() {
        let doc = paper_figure2();
        let mut a = PbnAssignment::assign(&doc);
        let root = doc.root().unwrap();
        let book1 = doc.children(root)[0];
        let n = a.len();
        let subtree = doc.descendants_or_self(book1).count();

        let run = a.remove_subtree(doc.descendants_or_self(book1));
        assert_eq!(run.len(), subtree);
        assert_eq!(run[0], (pbn![1, 1], book1), "the run starts at its root");
        assert!(
            a.remove_subtree(doc.descendants_or_self(book1)).is_empty(),
            "double remove is a no-op"
        );
        assert_eq!(a.len(), n - subtree);
        assert!(run.iter().all(|(_, id)| a.pbn_of_checked(*id).is_none()));

        // The freed number can be re-minted for a different node.
        let id = NodeId::from_index(doc.len());
        assert!(a.insert_run(vec![(pbn![1, 1], id)]));
        assert_eq!(a.delta_len(), subtree + 1);
        assert_eq!(a.len(), n - subtree + 1);
        a.compact();
        assert_eq!(a.node_of(&pbn![1, 1]), Some(id));
        assert_eq!(a.node_of(&pbn![1, 1, 1]), None);
        assert_eq!(a.key_of(id), a.arena().key_of(id));
        assert_eq!(a.arena().len(), n - subtree + 1);
    }

    /// The numbered entries of `by_node`, sorted: number → node. Read
    /// from the per-node map, so it is current even with a delta pending.
    fn numbered(a: &PbnAssignment) -> BTreeMap<Pbn, NodeId> {
        (0..a.id_space())
            .map(NodeId::from_index)
            .filter_map(|id| a.pbn_of_checked(id).map(|p| (p.clone(), id)))
            .collect()
    }

    /// The splice oracle: the compacted arena equals a from-scratch build
    /// over the numbered entries of `by_node`, sorted, byte for byte,
    /// inverse map included.
    fn assert_arena_matches_build(a: &PbnAssignment) {
        assert_eq!(a.delta_len(), 0, "compact drained the delta");
        let sorted: Vec<(Pbn, NodeId)> = numbered(a).into_iter().collect();
        assert_eq!(a.arena(), &PbnArena::build(&sorted, a.id_space()));
    }

    /// The direct children of `parent` in document order.
    fn children_of(model: &BTreeMap<Pbn, NodeId>, parent: &Pbn) -> Vec<Pbn> {
        model
            .keys()
            .filter(|p| p.parent().as_ref() == Some(parent))
            .cloned()
            .collect()
    }

    /// A number minted into gap `gap` among `parent`'s children, as an
    /// insert or move destination would mint it.
    fn mint_under(model: &BTreeMap<Pbn, NodeId>, parent: &Pbn, gap: usize) -> Pbn {
        let kids = children_of(model, parent);
        let gap = gap % (kids.len() + 1);
        let left = gap.checked_sub(1).and_then(|i| kids.get(i));
        crate::mint::KeyGen::between(parent, left, kids.get(gap))
    }

    /// A numbered node picked by `pick`, never the root when `non_root`.
    fn pick_node(
        model: &BTreeMap<Pbn, NodeId>,
        pick: u16,
        non_root: bool,
    ) -> Option<(Pbn, NodeId)> {
        let skip = usize::from(non_root);
        let n = model.len().checked_sub(skip).filter(|&n| n > 0)?;
        model
            .iter()
            .nth(skip + usize::from(pick) % n)
            .map(|(p, id)| (p.clone(), *id))
    }

    /// Takes the subtree rooted at `root` out of the model, in document
    /// order.
    fn take_subtree(model: &mut BTreeMap<Pbn, NodeId>, root: &Pbn) -> Vec<(Pbn, NodeId)> {
        let mut run = Vec::new();
        while let Some(p) = model.range(root..).next().map(|(p, _)| p.clone()) {
            if !root.is_prefix_of(&p) {
                break;
            }
            run.extend(model.remove_entry(&p));
        }
        run
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random insert/remove/move/re-mint scripts, compacted at random
        /// points, against a model of the live numbering: every
        /// compaction must splice exactly the arena a rebuild produces,
        /// and the compacted order reads must agree with the model.
        #[test]
        fn spliced_arenas_equal_the_rebuilt_arena(
            script in proptest::prelude::prop::collection::vec(
                (0u8..6, 0u16..=u16::MAX, 0u16..=u16::MAX), 1..60),
        ) {
            let doc = paper_figure2();
            let mut a = PbnAssignment::assign(&doc);
            let mut model = numbered(&a);
            let mut retired: BTreeSet<Pbn> = BTreeSet::new();
            let mut next_id = doc.len();
            for (op, x, y) in script {
                match op {
                    // Insert a fresh subtree (root plus two children) with
                    // ids past the current id space.
                    0 => {
                        let Some((parent, _)) = pick_node(&model, x, false) else { continue };
                        let root = mint_under(&model, &parent, usize::from(y));
                        let run = vec![
                            (root.clone(), NodeId::from_index(next_id)),
                            (root.child(1), NodeId::from_index(next_id + 1)),
                            (root.child(2), NodeId::from_index(next_id + 2)),
                        ];
                        next_id += 3 + usize::from(y % 5);
                        proptest::prop_assert!(a.insert_run(run.clone()));
                        model.extend(run);
                    }
                    // Delete a subtree.
                    1 => {
                        let Some((root, _)) = pick_node(&model, x, true) else { continue };
                        let expected = take_subtree(&mut model, &root);
                        let run = a.remove_subtree(expected.iter().map(|&(_, id)| id));
                        proptest::prop_assert_eq!(&run, &expected);
                        retired.extend(run.into_iter().map(|(p, _)| p));
                    }
                    // Move a subtree: drain it, re-mint its root under a
                    // surviving parent, renumber the rest below it.
                    2 => {
                        let Some((old_root, _)) = pick_node(&model, x, true) else { continue };
                        let expected = take_subtree(&mut model, &old_root);
                        let run = a.remove_subtree(expected.iter().map(|&(_, id)| id));
                        proptest::prop_assert_eq!(&run, &expected);
                        let Some((parent, _)) = pick_node(&model, y, false) else { continue };
                        let root = mint_under(&model, &parent, usize::from(x));
                        let moved: Vec<(Pbn, NodeId)> = run
                            .into_iter()
                            .map(|(p, id)| {
                                retired.insert(p.clone());
                                let mut comps = root.components().to_vec();
                                comps.extend_from_slice(&p.components()[old_root.len()..]);
                                (Pbn::from_comps(comps), id)
                            })
                            .collect();
                        proptest::prop_assert!(a.insert_run(moved.clone()));
                        model.extend(moved);
                    }
                    // Re-mint a subtree in place (drain it, then insert the
                    // same run back onto its own retired numbers).
                    3 => {
                        let Some((root, _)) = pick_node(&model, x, false) else { continue };
                        let expected = take_subtree(&mut model, &root);
                        let run = a.remove_subtree(expected.iter().map(|&(_, id)| id));
                        proptest::prop_assert_eq!(&run, &expected);
                        proptest::prop_assert!(a.insert_run(run));
                        model.extend(expected);
                    }
                    // Insert a fresh leaf: a one-element run.
                    4 => {
                        let Some((parent, _)) = pick_node(&model, x, false) else { continue };
                        let leaf = mint_under(&model, &parent, usize::from(y));
                        let id = NodeId::from_index(next_id);
                        proptest::prop_assert!(a.insert_run(vec![(leaf.clone(), id)]));
                        model.insert(leaf, id);
                        next_id += 1;
                    }
                    _ => {
                        a.compact();
                        assert_compacted_matches_model(&a, &model, &retired);
                    }
                }
                proptest::prop_assert_eq!(a.len(), model.len());
            }
            a.compact();
            assert_compacted_matches_model(&a, &model, &retired);
        }
    }

    /// The checks after each compaction: the splice oracle, then the order
    /// reads against the model — the document order is the model's
    /// number order (the preorder of the numbered tree), every live number
    /// resolves to its node, and every retired number not re-minted
    /// resolves to nothing.
    fn assert_compacted_matches_model(
        a: &PbnAssignment,
        model: &BTreeMap<Pbn, NodeId>,
        retired: &BTreeSet<Pbn>,
    ) {
        assert_arena_matches_build(a);
        let preorder: Vec<NodeId> = model.values().copied().collect();
        assert_eq!(a.in_document_order(), preorder.as_slice());
        for (p, &id) in model {
            assert_eq!(a.pbn_of(id), p);
            assert_eq!(a.node_of(a.pbn_of(id)), Some(id), "live {p}");
        }
        for p in retired.iter().filter(|p| !model.contains_key(*p)) {
            assert_eq!(a.node_of(p), None, "retired {p}");
        }
    }

    #[test]
    fn compacting_an_empty_delta_leaves_the_arena_alone() {
        let mut a = PbnAssignment::assign(&paper_figure2());
        let before = a.arena().clone();
        assert_eq!(a.compact(), 0);
        assert_eq!(a.arena(), &before);
        assert_arena_matches_build(&a);
    }

    #[test]
    fn a_fully_dirty_arena_splices_like_a_rebuild() {
        let doc = paper_figure2();
        let mut a = PbnAssignment::assign(&doc);
        let root = doc.root().unwrap();
        // Every number retired, then every node re-minted under new ids.
        let run = a.remove_subtree(doc.descendants_or_self(root));
        assert_eq!(run.len(), doc.len());
        assert!(a.is_empty());
        a.compact();
        assert!(a.arena().is_empty());
        assert_arena_matches_build(&a);
        let shifted: Vec<(Pbn, NodeId)> = run
            .into_iter()
            .map(|(p, id)| (p, NodeId::from_index(id.index() + doc.len())))
            .collect();
        assert!(a.insert_run(shifted));
        assert_eq!(a.compact(), doc.len());
        assert_eq!(a.id_space(), doc.len() * 2);
        assert_arena_matches_build(&a);
    }

    #[test]
    fn edits_at_the_first_and_last_slot_splice_cleanly() {
        let doc = paper_figure2();
        let mut a = PbnAssignment::assign(&doc);
        // Last slot: the final text node in document order.
        let last = *a.in_document_order().last().unwrap();
        assert_eq!(a.remove_subtree([last]).len(), 1);
        a.compact();
        assert_arena_matches_build(&a);
        // First slot: re-mint the whole tree in place from the root, then
        // append a last child.
        let root = doc.root().unwrap();
        let run = a.remove_subtree(doc.descendants_or_self(root));
        assert!(a.insert_run(run));
        let tail = mint_under(&numbered(&a), &pbn![1], usize::MAX);
        assert!(a.insert_run(vec![(tail, NodeId::from_index(doc.len()))]));
        a.compact();
        assert_arena_matches_build(&a);
        // Front of the root's children: slot 1.
        let front = mint_under(&numbered(&a), &pbn![1], 0);
        assert!(a.insert_run(vec![(front, NodeId::from_index(doc.len() + 1))]));
        a.compact();
        assert_arena_matches_build(&a);
        assert_eq!(a.in_document_order()[1], NodeId::from_index(doc.len() + 1));
    }

    #[test]
    fn id_space_growth_widens_the_inverse_map() {
        let doc = paper_figure2();
        let mut a = PbnAssignment::assign(&doc);
        let far = NodeId::from_index(doc.len() + 100);
        let leaf = mint_under(&numbered(&a), &pbn![1, 1], 1);
        assert!(a.insert_run(vec![(leaf, far)]));
        a.compact();
        assert_eq!(a.arena().id_space(), doc.len() + 101);
        assert_arena_matches_build(&a);
    }

    #[test]
    fn runs_that_overlap_assigned_numbers_are_refused() {
        let doc = paper_figure2();
        let mut a = PbnAssignment::assign(&doc);
        let id = NodeId::from_index(doc.len());
        // 1.1 is assigned: a run starting at it, or spanning past 1.1.1,
        // must be refused whole.
        assert!(!a.insert_run(vec![(pbn![1, 1], id)]));
        let front = mint_under(&numbered(&a), &pbn![1], 0);
        assert!(!a.insert_run(vec![(front.clone(), id), (pbn![1, 1, 1], id)]));
        // A run out of document order is refused too.
        let back = mint_under(&numbered(&a), &pbn![1], usize::MAX);
        assert!(!a.insert_run(vec![(back.clone(), id), (front.clone(), id)]));
        assert_eq!(a.delta_len(), 0);
        assert_eq!(a.len(), doc.len());

        // The same holds against numbers only the delta segment holds: a
        // pending insert is live, while a retired slot the arena still
        // keys is free again.
        assert!(a.insert_run(vec![(front.clone(), id)]));
        let after = NodeId::from_index(doc.len() + 1);
        assert!(!a.insert_run(vec![(front.clone(), after)]));
        let before_front = mint_under(&numbered(&a), &pbn![1], 0);
        assert!(!a.insert_run(vec![(before_front, after), (front.child(1), after)]));
        let book1 = doc.children(doc.root().unwrap())[0];
        assert_eq!(a.remove_subtree(doc.descendants_or_self(book1)).len(), 9);
        assert!(a.insert_run(vec![(pbn![1, 1, 1], after)]));
        assert_eq!(a.delta_len(), 11);
        a.compact();
        assert_arena_matches_build(&a);
        assert_eq!(a.node_of(&pbn![1, 1, 1]), Some(after));
    }
}
