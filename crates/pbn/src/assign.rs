//! Assigning PBN numbers to every node of a document.
//!
//! The assignment is the bridge between the tree model (`vh-xml`) and the
//! numbering space: `by_node` maps a [`NodeId`] to its number in O(1), and a
//! sorted `(Pbn, NodeId)` table answers the reverse lookup in O(log n).
//! Comments and processing instructions are numbered like any other child,
//! exactly as a PBN-based DBMS would.

use crate::arena::PbnArena;
use crate::number::Pbn;
use vh_xml::{Document, NodeId};

/// The PBN numbering of a document.
///
/// After construction the assignment is **mutable**: minted numbers are
/// merged into `by_node`/`sorted` immediately (so every number-level read
/// is always current), while the columnar byte [`PbnArena`] is refreshed
/// lazily by [`PbnAssignment::compact`]. The edits the arena has not yet
/// absorbed are the *delta segment*, recorded as the ids they dirtied;
/// compaction splices just those nodes into the arena. Byte-key
/// consumers (slot windows, twig galloping) must compact first — the
/// engine does this before serving queries and bounds the delta with an
/// automatic compaction threshold.
#[derive(Clone, Debug)]
pub struct PbnAssignment {
    /// `by_node[id.index()]` is the number of node `id`.
    by_node: Vec<Pbn>,
    /// `(number, node)` pairs sorted by number (document order). Edits
    /// are merged here eagerly; this is the always-fresh read view.
    sorted: Vec<(Pbn, NodeId)>,
    /// Columnar encoded-key form of the numbering as of the last
    /// compaction; stale while `dirty` is non-empty.
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
        let mut sorted = Vec::with_capacity(doc.len());
        if let Some(root) = doc.root() {
            // Iterative preorder carrying the parent's number.
            let mut stack: Vec<(NodeId, Pbn)> = vec![(root, Pbn::root())];
            while let Some((id, num)) = stack.pop() {
                by_node[id.index()] = num.clone();
                sorted.push((num.clone(), id));
                for (i, &c) in doc.children(id).iter().enumerate().rev() {
                    stack.push((c, num.child(i as u32 + 1)));
                }
            }
        }
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        let arena = PbnArena::build(&sorted, by_node.len());
        PbnAssignment {
            by_node,
            sorted,
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
        let mut sorted = Vec::with_capacity(arena.len());
        for slot in 0..arena.len() {
            let id = arena.node_at_slot(slot);
            // Keys from a validated arena decode cleanly; a malformed key
            // would have failed `from_parts`' ordering check. Fall back to
            // the empty number rather than panicking on hostile bytes.
            let pbn = crate::encode::EncodedPbn::from_bytes(arena.key_at_slot(slot).to_vec())
                .map(|e| e.decode())
                .unwrap_or_else(|_| Pbn::empty());
            if let Some(cell) = by_node.get_mut(id.index()) {
                *cell = pbn.clone();
            }
            sorted.push((pbn, id));
        }
        PbnAssignment {
            by_node,
            sorted,
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

    /// The raw per-node entry, or `None` for ids past the end of this
    /// assignment (nodes created after it was built). Unreachable nodes
    /// keep the empty number.
    #[inline]
    pub fn by_node_checked(&self, id: NodeId) -> Option<&Pbn> {
        self.by_node.get(id.index())
    }

    /// The node with the given number, if any.
    pub fn node_of(&self, pbn: &Pbn) -> Option<NodeId> {
        self.sorted
            .binary_search_by(|(p, _)| p.cmp(pbn))
            .ok()
            .map(|i| self.sorted[i].1)
    }

    /// All `(number, node)` pairs in document order.
    #[inline]
    pub fn in_document_order(&self) -> &[(Pbn, NodeId)] {
        &self.sorted
    }

    /// Number of assigned nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if no nodes were assigned (empty document).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The nodes whose numbers fall in the half-open interval `[lo, hi)` in
    /// document order — the primitive behind subtree scans.
    pub fn range(&self, lo: &Pbn, hi: &Pbn) -> &[(Pbn, NodeId)] {
        let start = self.sorted.partition_point(|(p, _)| p < lo);
        let end = self.sorted.partition_point(|(p, _)| p < hi);
        &self.sorted[start..end]
    }

    /// Merges a freshly minted subtree — `(number, node)` pairs in
    /// strictly increasing document order — into the sorted table with
    /// one splice. The run must land in a gap of the table: no assigned
    /// number may fall between its first and last key, which is checked
    /// at both ends. Returns `false` (and changes nothing) otherwise, or
    /// when the run is not strictly increasing. Number-level reads see the
    /// run at once; the arena is *not* updated — the run joins the delta
    /// segment until [`PbnAssignment::compact`]. A single minted node is
    /// a one-element run.
    pub fn insert_run(&mut self, run: Vec<(Pbn, NodeId)>) -> bool {
        let (Some((first, _)), Some((last, _))) = (run.first(), run.last()) else {
            return true;
        };
        if run.windows(2).any(|w| w[0].0 >= w[1].0) {
            return false;
        }
        let pos = self.sorted.partition_point(|(p, _)| p < first);
        if self.sorted.get(pos).is_some_and(|(p, _)| p <= last) {
            return false;
        }
        let id_space = run.iter().map(|(_, id)| id.index() + 1).max().unwrap_or(0);
        if self.by_node.len() < id_space {
            self.by_node.resize(id_space, Pbn::empty());
        }
        for (pbn, id) in &run {
            self.by_node[id.index()] = pbn.clone();
            self.dirty.push(*id);
        }
        self.sorted.splice(pos..pos, run);
        true
    }

    /// Removes the numbers of the subtree rooted at `root` — one
    /// contiguous run of the sorted table — with one drain, and returns
    /// the run in document order (empty when `root` holds no number).
    /// Every removed node's `by_node` entry reverts to the empty number;
    /// the arena keeps the stale keys until [`PbnAssignment::compact`].
    pub fn remove_subtree(&mut self, root: NodeId) -> Vec<(Pbn, NodeId)> {
        let Some(p) = self.by_node.get(root.index()).filter(|p| !p.is_empty()) else {
            return Vec::new();
        };
        let start = self.sorted.partition_point(|(q, _)| q < p);
        let len = self.sorted[start..].partition_point(|(q, _)| p.is_prefix_of(q));
        let run: Vec<(Pbn, NodeId)> = self.sorted.drain(start..start + len).collect();
        for (_, id) in &run {
            self.by_node[id.index()] = Pbn::empty();
            self.dirty.push(*id);
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

    /// Absorbs the delta segment into the columnar arena by splicing the
    /// dirtied nodes into it ([`PbnArena::build`] over the sorted table is
    /// the from-scratch twin it must equal). Returns the number of edits
    /// merged.
    pub fn compact(&mut self) -> usize {
        let merged = self.dirty.len();
        if merged > 0 {
            let mut dirty = std::mem::take(&mut self.dirty);
            dirty.sort_unstable();
            dirty.dedup();
            self.arena.splice(&self.sorted, &self.by_node, &dirty);
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pbn;
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
        assert_eq!(a.len(), doc.len());
    }

    #[test]
    fn sorted_table_is_document_order() {
        let doc = paper_figure2();
        let a = PbnAssignment::assign(&doc);
        let preorder: Vec<_> = doc.preorder().collect();
        let by_number: Vec<_> = a.in_document_order().iter().map(|(_, id)| *id).collect();
        assert_eq!(preorder, by_number);
    }

    #[test]
    fn range_scan_returns_a_subtree() {
        let doc = paper_figure2();
        let a = PbnAssignment::assign(&doc);
        let (lo, hi) = crate::order::subtree_range(&pbn![1, 1]);
        let sub = a.range(&lo, &hi);
        // book1 subtree: book, title, text, author, name, text, publisher,
        // location, text = 9 nodes.
        assert_eq!(sub.len(), 9);
        assert!(sub.iter().all(|(p, _)| pbn![1, 1].is_prefix_of(p)));
    }

    #[test]
    fn empty_document_is_empty_assignment() {
        let doc = Document::new("u");
        let a = PbnAssignment::assign(&doc);
        assert!(a.is_empty());
    }

    #[test]
    fn minted_inserts_merge_eagerly_and_compact_lazily() {
        let doc = paper_figure2();
        let mut a = PbnAssignment::assign(&doc);
        let before = a.len();

        // Mint a sibling between book1 (1.1) and book2 (1.2), attach it to
        // a fresh id past the current id space.
        let minted = crate::mint::KeyGen::between(&pbn![1], Some(&pbn![1, 1]), Some(&pbn![1, 2]));
        let new_id = NodeId::from_index(doc.len());
        assert!(a.insert_run(vec![(minted.clone(), new_id)]));
        assert!(!a.insert_run(vec![(minted.clone(), NodeId::from_index(doc.len() + 1))]));
        assert_eq!(a.delta_len(), 1);

        // Number-level reads see the edit immediately…
        assert_eq!(a.len(), before + 1);
        assert_eq!(a.pbn_of(new_id), &minted);
        assert_eq!(a.node_of(&minted), Some(new_id));
        let order: Vec<_> = a
            .in_document_order()
            .iter()
            .map(|(p, _)| p.clone())
            .collect();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted, "sorted table stays sorted after insert");

        // …while the byte arena is stale until compaction.
        assert!(a.key_of(new_id).is_empty());
        assert_eq!(a.compact(), 1);
        assert_eq!(a.delta_len(), 0);
        assert!(!a.key_of(new_id).is_empty());
        assert_eq!(a.arena().len(), before + 1);
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

        let run = a.remove_subtree(book1);
        assert_eq!(run.len(), subtree);
        assert_eq!(run[0], (pbn![1, 1], book1), "the run starts at its root");
        assert!(
            a.remove_subtree(book1).is_empty(),
            "double remove is a no-op"
        );
        assert_eq!(a.len(), n - subtree);
        assert_eq!(a.node_of(&pbn![1, 1]), None);
        assert!(run
            .iter()
            .all(|(_, id)| a.by_node_checked(*id) == Some(&Pbn::empty())));

        // The freed number can be re-minted for a different node.
        let id = NodeId::from_index(doc.len());
        assert!(a.insert_run(vec![(pbn![1, 1], id)]));
        assert_eq!(a.node_of(&pbn![1, 1]), Some(id));
        assert_eq!(a.delta_len(), subtree + 1);
        a.compact();
        assert_eq!(a.key_of(id), a.arena().key_of(id));
        assert_eq!(a.arena().len(), n - subtree + 1);
    }

    /// The splice oracle: the compacted arena equals a from-scratch build
    /// over the sorted table, byte for byte, inverse map included.
    fn assert_arena_matches_build(a: &PbnAssignment) {
        assert_eq!(a.delta_len(), 0, "compact drained the delta");
        assert_eq!(
            a.arena(),
            &PbnArena::build(a.in_document_order(), a.id_space())
        );
    }

    /// The direct children of `parent` in document order.
    fn children_of(a: &PbnAssignment, parent: &Pbn) -> Vec<Pbn> {
        a.in_document_order()
            .iter()
            .filter(|(p, _)| p.parent().as_ref() == Some(parent))
            .map(|(p, _)| p.clone())
            .collect()
    }

    /// A number minted into gap `gap` among `parent`'s children, as an
    /// insert or move destination would mint it.
    fn mint_under(a: &PbnAssignment, parent: &Pbn, gap: usize) -> Pbn {
        let kids = children_of(a, parent);
        let gap = gap % (kids.len() + 1);
        let left = gap.checked_sub(1).and_then(|i| kids.get(i));
        crate::mint::KeyGen::between(parent, left, kids.get(gap))
    }

    /// A numbered node picked by `pick`, never the root when `non_root`.
    fn pick_node(a: &PbnAssignment, pick: u16, non_root: bool) -> Option<(Pbn, NodeId)> {
        let table = a.in_document_order();
        let skip = usize::from(non_root);
        let n = table.len().checked_sub(skip).filter(|&n| n > 0)?;
        table.get(skip + usize::from(pick) % n).cloned()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random insert/remove/move/re-mint scripts, compacted at random
        /// points: every compaction must splice exactly the arena a
        /// rebuild produces.
        #[test]
        fn spliced_arenas_equal_the_rebuilt_arena(
            script in proptest::prelude::prop::collection::vec(
                (0u8..6, 0u16..=u16::MAX, 0u16..=u16::MAX), 1..60),
        ) {
            let doc = paper_figure2();
            let mut a = PbnAssignment::assign(&doc);
            let mut next_id = doc.len();
            for (op, x, y) in script {
                match op {
                    // Insert a fresh subtree (root plus two children) with
                    // ids past the current id space.
                    0 => {
                        let Some((parent, _)) = pick_node(&a, x, false) else { continue };
                        let root = mint_under(&a, &parent, usize::from(y));
                        let run = vec![
                            (root.clone(), NodeId::from_index(next_id)),
                            (root.child(1), NodeId::from_index(next_id + 1)),
                            (root.child(2), NodeId::from_index(next_id + 2)),
                        ];
                        next_id += 3 + usize::from(y % 5);
                        proptest::prop_assert!(a.insert_run(run));
                    }
                    // Delete a subtree.
                    1 => {
                        let Some((_, id)) = pick_node(&a, x, true) else { continue };
                        proptest::prop_assert!(!a.remove_subtree(id).is_empty());
                    }
                    // Move a subtree: drain it, re-mint its root under a
                    // surviving parent, renumber the rest below it.
                    2 => {
                        let Some((old_root, id)) = pick_node(&a, x, true) else { continue };
                        let run = a.remove_subtree(id);
                        let Some((parent, _)) = pick_node(&a, y, false) else { continue };
                        let root = mint_under(&a, &parent, usize::from(x));
                        let moved: Vec<(Pbn, NodeId)> = run
                            .into_iter()
                            .map(|(p, id)| {
                                let mut comps = root.components().to_vec();
                                comps.extend_from_slice(&p.components()[old_root.len()..]);
                                (Pbn::from_comps(comps), id)
                            })
                            .collect();
                        proptest::prop_assert!(a.insert_run(moved));
                    }
                    // Re-mint a subtree in place (drain it, then insert the
                    // same run back).
                    3 => {
                        let Some((_, id)) = pick_node(&a, x, false) else { continue };
                        let run = a.remove_subtree(id);
                        proptest::prop_assert!(a.insert_run(run));
                    }
                    // Insert a fresh leaf: a one-element run.
                    4 => {
                        let Some((parent, _)) = pick_node(&a, x, false) else { continue };
                        let leaf = mint_under(&a, &parent, usize::from(y));
                        proptest::prop_assert!(
                            a.insert_run(vec![(leaf, NodeId::from_index(next_id))])
                        );
                        next_id += 1;
                    }
                    _ => {
                        a.compact();
                        assert_arena_matches_build(&a);
                    }
                }
            }
            a.compact();
            assert_arena_matches_build(&a);
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
        let run = a.remove_subtree(root);
        assert_eq!(run.len(), doc.len());
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
        let (_, last) = a.in_document_order().last().cloned().unwrap();
        assert_eq!(a.remove_subtree(last).len(), 1);
        a.compact();
        assert_arena_matches_build(&a);
        // First slot: re-mint the whole tree in place from the root, then
        // append a last child.
        let root = doc.root().unwrap();
        let run = a.remove_subtree(root);
        assert!(a.insert_run(run));
        let tail = mint_under(&a, &pbn![1], usize::MAX);
        assert!(a.insert_run(vec![(tail, NodeId::from_index(doc.len()))]));
        a.compact();
        assert_arena_matches_build(&a);
        // Front of the root's children: slot 1.
        let front = mint_under(&a, &pbn![1], 0);
        assert!(a.insert_run(vec![(front, NodeId::from_index(doc.len() + 1))]));
        a.compact();
        assert_arena_matches_build(&a);
    }

    #[test]
    fn id_space_growth_widens_the_inverse_map() {
        let doc = paper_figure2();
        let mut a = PbnAssignment::assign(&doc);
        let far = NodeId::from_index(doc.len() + 100);
        let leaf = mint_under(&a, &pbn![1, 1], 1);
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
        let front = mint_under(&a, &pbn![1], 0);
        assert!(!a.insert_run(vec![(front.clone(), id), (pbn![1, 1, 1], id)]));
        // A run out of document order is refused too.
        let back = mint_under(&a, &pbn![1], usize::MAX);
        assert!(!a.insert_run(vec![(back, id), (front, id)]));
        assert_eq!(a.delta_len(), 0);
        assert_eq!(a.len(), doc.len());
    }
}
