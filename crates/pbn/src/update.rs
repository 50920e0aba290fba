//! Update renumbering — the §3 contrast case.
//!
//! The paper distinguishes vPBN from *update renumbering* ([12, 18, 25, 30]
//! in its bibliography): after an edit, plain PBN must physically renumber
//! every node whose number changed — the inserted subtree plus every
//! following sibling's subtree at the insertion level. §3's argument is
//! that adapting this machinery to virtual hierarchies "would be very
//! expensive since all of the nodes in a data collection would have to be
//! individually, physically renumbered at query time"; vPBN instead leaves
//! every physical number untouched.
//!
//! This module implements the renumbering so the cost is measurable
//! (experiment F9): [`incremental_renumber`] recomputes exactly the
//! affected numbers after an insertion and reports how many changed.

use crate::assign::PbnAssignment;
use vh_xml::{Document, NodeId};

/// Outcome of an incremental renumbering pass.
#[derive(Clone, Debug)]
pub struct RenumberReport {
    /// The fresh assignment (valid for the updated document).
    pub assignment: PbnAssignment,
    /// Nodes whose number differs from the previous assignment (including
    /// nodes that previously had no number, i.e. the inserted subtree).
    pub changed: usize,
}

/// Renumbers after an edit under `parent`, comparing against the previous
/// assignment.
///
/// The implementation rebuilds the full assignment (document order makes
/// that a single O(n) pass — exactly what a real system's bulk renumber
/// does) and counts the numbers that actually changed; `changed` is the
/// work a *minimal* update renumbering scheme could not avoid: the
/// inserted node's subtree plus the subtrees of all following siblings
/// under `parent`.
pub fn incremental_renumber(
    doc: &Document,
    previous: &PbnAssignment,
    _parent: NodeId,
) -> RenumberReport {
    let assignment = PbnAssignment::assign(doc);
    let mut changed = 0;
    for &id in assignment.in_document_order() {
        if previous.key_of(id) != assignment.key_of(id) {
            changed += 1;
        }
    }
    RenumberReport {
        assignment,
        changed,
    }
}

/// Counts the nodes a minimal renumbering scheme must touch for an
/// insertion at `pos` under `parent`: the new node plus every node in the
/// subtrees of the siblings now sitting at positions `> pos`.
pub fn minimal_renumber_cost(doc: &Document, parent: NodeId, pos: usize) -> usize {
    let mut cost = 1; // the inserted node itself
    for &sib in doc.children(parent).iter().skip(pos + 1) {
        cost += doc.descendants_or_self(sib).count();
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use vh_xml::builder::paper_figure2;

    #[test]
    fn appending_at_the_end_renumbers_only_the_new_node() {
        let mut doc = paper_figure2();
        let root = doc.root().unwrap();
        let before = PbnAssignment::assign(&doc);
        let pos = doc.children(root).len();
        doc.insert_element(root, pos, "book");
        let report = incremental_renumber(&doc, &before, root);
        assert_eq!(report.changed, 1);
        assert_eq!(minimal_renumber_cost(&doc, root, pos), 1);
    }

    #[test]
    fn inserting_at_the_front_renumbers_every_following_subtree() {
        let mut doc = paper_figure2();
        let root = doc.root().unwrap();
        let before = PbnAssignment::assign(&doc);
        doc.insert_element(root, 0, "book");
        let report = incremental_renumber(&doc, &before, root);
        // The new node + both 9-node book subtrees shift from 1.k to 1.k+1.
        assert_eq!(report.changed, 1 + 18);
        assert_eq!(minimal_renumber_cost(&doc, root, 0), 1 + 18);
        // The fresh assignment is consistent with the updated tree.
        for id in doc.preorder() {
            assert_eq!(
                report.assignment.node_of(&report.assignment.pbn_of(id)),
                Some(id)
            );
        }
    }

    #[test]
    fn middle_insertion_costs_match_the_minimal_bound() {
        let mut doc = paper_figure2();
        let root = doc.root().unwrap();
        let before = PbnAssignment::assign(&doc);
        doc.insert_element(root, 1, "book");
        let report = incremental_renumber(&doc, &before, root);
        assert_eq!(report.changed, minimal_renumber_cost(&doc, root, 1));
        assert_eq!(
            report.changed,
            1 + 9,
            "new node + the second book's subtree"
        );
    }

    #[test]
    fn detach_then_renumber_shrinks_the_assignment() {
        let mut doc = paper_figure2();
        let root = doc.root().unwrap();
        let book1 = doc.children(root)[0];
        doc.detach(book1);
        let after = PbnAssignment::assign(&doc);
        // 19 nodes minus book1's 9-node subtree remain numbered.
        assert_eq!(after.len(), 10);
        let book2 = doc.children(root)[0];
        assert_eq!(after.pbn_of(book2).to_string(), "1.1");
    }
}
