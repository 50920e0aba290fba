//! In-place edits on a [`TypedDocument`] — the renumbering-free half of
//! the paper's §3 update story.
//!
//! Plain PBN pays for an insert by renumbering every following sibling's
//! subtree (`vh_pbn::update` measures exactly how much). The mutations
//! here never do that: new siblings get numbers minted *between* their
//! neighbours by [`KeyGen::between`], existing numbers are never touched,
//! and the byte arena absorbs the edits lazily (see
//! [`vh_pbn::PbnAssignment::compact`]).
//!
//! Every mutation also maintains the DataGuide incrementally: newly
//! observed paths intern new types ([`crate::DataGuide::intern_child`]),
//! the node → type map is extended in place, and the type index is
//! spliced next to the numbering — an edited document is
//! indistinguishable from one analyzed from scratch, except for the
//! minted numbers (the whole point) and guide types left behind by
//! deletions (a strong DataGuide only ever grows).

use crate::build::{type_lists, TypedDocument};
use crate::types::{TypeId, TEXT_TYPE_NAME};
use std::fmt;
use vh_pbn::{encode_ordinal_value, EncodedPbn, KeyGen};
use vh_xml::{Document, NodeId, NodeKind};

/// Why an edit could not be applied. The document is unchanged when any
/// of these is returned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EditError {
    /// A dotted child-index path did not resolve to a node.
    BadPath {
        /// The path as written.
        path: String,
    },
    /// An insert/move position exceeds the target's child count.
    BadPosition {
        /// The requested 0-based position.
        pos: usize,
        /// The number of children actually present.
        len: usize,
    },
    /// The root cannot be deleted or moved.
    RootTarget,
    /// A subtree cannot be moved under itself.
    CyclicMove,
    /// The operation needs an element node (insert/move destination,
    /// `SetValue` target).
    NotElement,
    /// `SetValue` on an element with non-text children is ambiguous and
    /// refused.
    MixedContent,
    /// The inserted fragment is not well-formed XML.
    Fragment {
        /// Parser diagnostic.
        detail: String,
    },
}

impl EditError {
    /// Stable machine-readable code, following the repo's layer-code
    /// convention (`PBN_*`, `VDG_*`, `QRY_*`, …).
    pub fn code(&self) -> &'static str {
        match self {
            EditError::BadPath { .. } => "EDIT_PATH",
            EditError::BadPosition { .. } => "EDIT_POSITION",
            EditError::RootTarget => "EDIT_ROOT",
            EditError::CyclicMove => "EDIT_CYCLE",
            EditError::NotElement => "EDIT_NOT_ELEMENT",
            EditError::MixedContent => "EDIT_MIXED_CONTENT",
            EditError::Fragment { .. } => "EDIT_FRAGMENT",
        }
    }
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::BadPath { path } => write!(f, "path `{path}` does not resolve to a node"),
            EditError::BadPosition { pos, len } => {
                write!(f, "position {pos} out of bounds for {len} children")
            }
            EditError::RootTarget => write!(f, "the document root cannot be deleted or moved"),
            EditError::CyclicMove => write!(f, "cannot move a subtree under itself"),
            EditError::NotElement => write!(f, "target node is not an element"),
            EditError::MixedContent => {
                write!(f, "SetValue on an element with mixed content is ambiguous")
            }
            EditError::Fragment { detail } => write!(f, "fragment is not well-formed: {detail}"),
        }
    }
}

impl std::error::Error for EditError {}

/// Resolves a dotted 1-based child-index path against the *current* tree:
/// `"1"` is the root, `"1.2"` its second child, and so on. Paths address
/// positions, not numbers — they stay short and human-writable even after
/// minted (fractional) PBN numbers appear.
pub fn resolve_path(doc: &Document, path: &str) -> Result<NodeId, EditError> {
    let bad = || EditError::BadPath {
        path: path.to_string(),
    };
    let mut steps = path.split('.');
    let root = doc.root().ok_or_else(bad)?;
    if steps.next().and_then(|s| s.parse::<usize>().ok()) != Some(1) {
        return Err(bad());
    }
    let mut cur = root;
    for step in steps {
        let k: usize = step.parse().map_err(|_| bad())?;
        cur = *doc
            .children(cur)
            .get(k.checked_sub(1).ok_or_else(bad)?)
            .ok_or_else(bad)?;
    }
    Ok(cur)
}

impl TypedDocument {
    /// Parses `xml` as a single-rooted fragment and inserts it as the
    /// `pos`-th child of `parent` (0-based; `pos` = child count appends).
    /// Returns the id of the inserted root.
    ///
    /// The new subtree's root number is minted between its neighbours —
    /// no existing number changes — and its descendants are numbered
    /// densely below it, exactly as initial assignment would.
    pub fn insert_fragment(
        &mut self,
        parent: NodeId,
        pos: usize,
        xml: &str,
    ) -> Result<NodeId, EditError> {
        self.require_attached_element(parent)?;
        let len = self.doc.children(parent).len();
        if pos > len {
            return Err(EditError::BadPosition { pos, len });
        }
        let fragment =
            Document::parse(self.doc.uri().to_string(), xml).map_err(|e| EditError::Fragment {
                detail: e.to_string(),
            })?;
        let src = fragment.root().ok_or_else(|| EditError::Fragment {
            detail: "fragment has no root element".into(),
        })?;
        let new_root = self.doc.copy_subtree_at(parent, pos, &fragment, src);
        self.mint_subtree(parent, pos, new_root);
        Ok(new_root)
    }

    /// Detaches the subtree rooted at `target` and retires its numbers.
    /// Returns the number of nodes removed. Arena ids stay valid (the
    /// arena never shrinks mid-session); the nodes just become
    /// unreachable and unnumbered until the next compaction drops their
    /// keys.
    pub fn delete_subtree(&mut self, target: NodeId) -> Result<usize, EditError> {
        self.require_node(target)?;
        if self.doc.parent(target).is_none() {
            return Err(EditError::RootTarget);
        }
        let removed = self.retire_subtree(target);
        self.doc.detach(target);
        Ok(removed)
    }

    /// Moves the subtree rooted at `target` to become the `pos`-th child
    /// of `parent` (0-based, counted *after* the subtree is detached).
    /// The moved subtree is re-minted under its new parent; nothing else
    /// is renumbered.
    pub fn move_subtree(
        &mut self,
        target: NodeId,
        parent: NodeId,
        pos: usize,
    ) -> Result<(), EditError> {
        self.require_node(target)?;
        self.require_attached_element(parent)?;
        if self.doc.parent(target).is_none() {
            return Err(EditError::RootTarget);
        }
        if parent == target || self.doc.is_ancestor(target, parent) {
            return Err(EditError::CyclicMove);
        }
        let len_after =
            self.doc.children(parent).len() - usize::from(self.doc.parent(target) == Some(parent));
        if pos > len_after {
            return Err(EditError::BadPosition {
                pos,
                len: len_after,
            });
        }
        // Retire the subtree's numbers first so the neighbour scan below
        // sees only the surviving siblings.
        self.retire_subtree(target);
        self.doc.detach(target);
        self.doc.attach_at(parent, pos, target);
        self.mint_subtree(parent, pos, target);
        Ok(())
    }

    /// Sets the textual content of `target`. A text node is rewritten in
    /// place; an element must have at most one child, a text node, which
    /// is replaced (or created when absent). Elements with other children
    /// are refused as [`EditError::MixedContent`].
    pub fn set_value(&mut self, target: NodeId, value: &str) -> Result<(), EditError> {
        self.require_node(target)?;
        match self.doc.kind(target) {
            NodeKind::Text(_) => {
                self.doc.set_text(target, value);
                Ok(())
            }
            NodeKind::Element { .. } => match *self.doc.children(target) {
                [] => {
                    let id = self.doc.append_text(target, value);
                    self.mint_subtree(target, 0, id);
                    Ok(())
                }
                [only] if matches!(self.doc.kind(only), NodeKind::Text(_)) => {
                    self.doc.set_text(only, value);
                    Ok(())
                }
                _ => Err(EditError::MixedContent),
            },
            _ => Err(EditError::NotElement),
        }
    }

    /// Number of edits the byte arena has not yet absorbed — see
    /// [`vh_pbn::PbnAssignment::delta_len`].
    #[inline]
    pub fn delta_len(&self) -> usize {
        self.pbn.delta_len()
    }

    /// Compacts the delta segment into the byte arena; returns the number
    /// of edits merged.
    pub fn compact(&mut self) -> usize {
        self.pbn.compact()
    }

    /// `Ok` iff `id` is a live, reachable node of this document.
    fn require_node(&self, id: NodeId) -> Result<(), EditError> {
        if id.index() < self.doc.len() && self.pbn.pbn_of_checked(id).is_some() {
            Ok(())
        } else {
            Err(EditError::BadPath {
                path: format!("node #{}", id.index()),
            })
        }
    }

    fn require_attached_element(&self, id: NodeId) -> Result<(), EditError> {
        self.require_node(id)?;
        match self.doc.kind(id) {
            NodeKind::Element { .. } => Ok(()),
            _ => Err(EditError::NotElement),
        }
    }

    /// Numbers and types the (already attached) subtree rooted at the
    /// `pos`-th child of `parent`: the root's number is minted between
    /// its current neighbours, descendants are numbered densely, every
    /// node's type is interned along its new path, and the subtree joins
    /// the type index.
    fn mint_subtree(&mut self, parent: NodeId, pos: usize, root_id: NodeId) {
        let siblings = self.doc.children(parent);
        debug_assert_eq!(siblings.get(pos), Some(&root_id));
        // Minting is the one place numbers are decoded: `KeyGen` works on
        // components.
        let neighbour = |id: Option<&NodeId>| id.and_then(|&n| self.pbn.pbn_of_checked(n));
        let left = neighbour(pos.checked_sub(1).and_then(|i| siblings.get(i)));
        let right = neighbour(siblings.get(pos + 1));
        // Invariant: `require_attached_element(parent)` ensured the parent
        // is numbered.
        let Some(parent_pbn) = self.pbn.pbn_of_checked(parent) else {
            unreachable!("parent validated before renumbering");
        };
        let root_pbn = KeyGen::between(&parent_pbn, left.as_ref(), right.as_ref());
        let root_key = EncodedPbn::encode(&root_pbn).as_bytes().to_vec();

        if self.type_of.len() < self.doc.len() {
            self.type_of.resize(self.doc.len(), TypeId::from_index(0));
        }
        let parent_ty = self.type_of[parent.index()];
        // Preorder with dense child numbers is document order, so the
        // subtree's keys come out as one sorted run; a child's key is its
        // parent's plus one encoded ordinal.
        let mut run: Vec<(Vec<u8>, NodeId)> = Vec::new();
        let mut stack: Vec<(NodeId, Vec<u8>, TypeId)> = vec![(root_id, root_key, parent_ty)];
        while let Some((id, key, ptype)) = stack.pop() {
            let name = match self.doc.kind(id) {
                NodeKind::Element { name, .. } => name.as_str(),
                NodeKind::Text(_) => TEXT_TYPE_NAME,
                NodeKind::Comment(_) => "#comment",
                NodeKind::ProcessingInstruction { .. } => "#pi",
            };
            let ty = self.guide.intern_child(ptype, name);
            self.type_of[id.index()] = ty;
            for (i, &c) in self.doc.children(id).iter().enumerate().rev() {
                let mut child = key.clone();
                // Ordinals are 1-based and never zero, so this cannot fail.
                let _ = encode_ordinal_value(i as u32 + 1, &mut child);
                stack.push((c, child, ty));
            }
            run.push((key, id));
        }
        self.by_type.resize_with(self.guide.len(), Vec::new);
        self.list_subtree(&run);
        let inserted = self.pbn.insert_run(run);
        debug_assert!(inserted, "minted numbers are unique by construction");
        self.reshaped = true;
    }

    /// Retires the numbers of the still-attached subtree rooted at
    /// `target` (delete, or the detach half of a move), after taking its
    /// nodes out of the type index while their keys still locate them.
    /// Returns the number of nodes retired.
    fn retire_subtree(&mut self, target: NodeId) -> usize {
        let ids: Vec<NodeId> = self
            .doc
            .descendants_or_self(target)
            .filter(|&id| !self.pbn.key_of(id).is_empty())
            .collect();
        let listed = ids.len();
        self.unlist_subtree(ids);
        let retired = self
            .pbn
            .remove_subtree(self.doc.descendants_or_self(target))
            .len();
        debug_assert_eq!(retired, listed);
        self.reshaped = true;
        retired
    }

    /// Splices a freshly minted subtree — its `(key, node)` run in
    /// document order, not yet handed to the numbering — into the type
    /// index. Regrouped by type with document order kept, each group is
    /// one contiguous run of its type's list (a subtree is one key
    /// interval), so each costs one `partition_point` on the keys and one
    /// splice. It runs before the run joins the numbering, so a drained
    /// numbering reads every compared key from its arena.
    // oracle: rebuild_type_lists
    fn list_subtree(&mut self, run: &[(Vec<u8>, NodeId)]) {
        let ty = |i: usize| self.type_of[run[i].1.index()];
        let mut order: Vec<usize> = (0..run.len()).collect();
        order.sort_by_key(|&i| ty(i));
        for group in order.chunk_by(|&a, &b| ty(a) == ty(b)) {
            let first = run[group[0]].0.as_slice();
            let list = &mut self.by_type[ty(group[0]).index()];
            let pos = list.partition_point(|&x| self.pbn.key_of(x) < first);
            list.splice(pos..pos, group.iter().map(|&i| run[i].1));
        }
    }

    /// Takes a still-numbered subtree (`ids`, in document order) out of
    /// the type index: per type, one `partition_point` on the keys and
    /// one drain.
    // oracle: rebuild_type_lists
    fn unlist_subtree(&mut self, mut ids: Vec<NodeId>) {
        let ty = |id: NodeId| self.type_of[id.index()];
        ids.sort_by_key(|&id| ty(id));
        for run in ids.chunk_by(|&a, &b| ty(a) == ty(b)) {
            let first = self.pbn.key_of(run[0]);
            let list = &mut self.by_type[ty(run[0]).index()];
            let pos = list.partition_point(|&x| self.pbn.key_of(x) < first);
            let gone = list.drain(pos..pos + run.len());
            debug_assert!(gone.eq(run.iter().copied()), "one run per type");
        }
    }

    /// The type index rebuilt in one pass over the document order: the
    /// twin the spliced lists must equal, one list per guide type. Needs
    /// a drained delta segment ([`TypedDocument::compact`]).
    pub fn rebuild_type_lists(&self) -> Vec<Vec<NodeId>> {
        type_lists(
            self.pbn.in_document_order(),
            &self.type_of,
            self.guide.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vh_pbn::pbn;
    use vh_xml::builder::paper_figure2;

    fn td() -> TypedDocument {
        TypedDocument::analyze(paper_figure2())
    }

    /// Rebuild-from-scratch oracle: the edited document must be
    /// indistinguishable from one parsed and analyzed from its own
    /// serialization — same bytes, same document order, same types.
    /// Drains the delta first, as every engine path does before it reads
    /// the document order.
    fn assert_matches_rebuild(td: &mut TypedDocument) {
        td.compact();
        let opts = vh_xml::SerializeOptions::compact();
        let edited = vh_xml::serialize(td.doc(), opts);
        let rebuilt = TypedDocument::parse(td.doc().uri().to_string(), &edited).unwrap();
        assert_eq!(edited, vh_xml::serialize(rebuilt.doc(), opts));
        assert_eq!(td.pbn().len(), rebuilt.pbn().len());
        let spliced: Vec<Vec<NodeId>> = td
            .guide()
            .type_ids()
            .map(|t| td.nodes_of_type(t).to_vec())
            .collect();
        assert_eq!(spliced, td.rebuild_type_lists(), "type index splice");
        // Walking both in document order pairs up corresponding nodes:
        // kinds and guide paths must agree even though the numbers differ
        // (ours are minted, the rebuild's are dense).
        for (&a, &b) in td
            .pbn()
            .in_document_order()
            .iter()
            .zip(rebuilt.pbn().in_document_order())
        {
            assert_eq!(
                format!("{:?}", td.doc().kind(a)),
                format!("{:?}", rebuilt.doc().kind(b))
            );
            assert_eq!(
                td.guide().path_string(td.type_of(a)),
                rebuilt.guide().path_string(rebuilt.type_of(b))
            );
        }
    }

    #[test]
    fn path_resolution_walks_child_indices() {
        let t = td();
        let root = t.doc().root().unwrap();
        assert_eq!(resolve_path(t.doc(), "1"), Ok(root));
        let book2 = t.doc().children(root)[1];
        assert_eq!(resolve_path(t.doc(), "1.2"), Ok(book2));
        assert_eq!(
            resolve_path(t.doc(), "1.2.1"),
            Ok(t.doc().children(book2)[0])
        );
        assert!(resolve_path(t.doc(), "2").is_err());
        assert!(resolve_path(t.doc(), "1.99").is_err());
        assert!(resolve_path(t.doc(), "").is_err());
        assert!(resolve_path(t.doc(), "1.0").is_err());
    }

    #[test]
    fn insert_between_books_mints_without_renumbering() {
        let mut t = td();
        let root = t.doc().root().unwrap();
        let before: Vec<vh_pbn::Pbn> = t
            .pbn()
            .in_document_order()
            .iter()
            .map(|&id| t.pbn().pbn_of(id))
            .collect();
        let id = t
            .insert_fragment(root, 1, "<book><title>New</title></book>")
            .unwrap();
        // The minted root sits between the books, its children below it.
        let minted = t.pbn().pbn_of(id);
        assert!(pbn![1, 1] < minted && minted < pbn![1, 2]);
        assert_eq!(t.doc().children(root).len(), 3);
        let title = t.doc().children(id)[0];
        assert_eq!(t.pbn().pbn_of(title), minted.child(1));
        // Types intern onto the existing book path.
        assert_eq!(t.guide().path_string(t.type_of(id)), "data.book");
        assert_eq!(t.guide().path_string(t.type_of(title)), "data.book.title");
        assert!(t.delta_len() > 0);
        t.compact();
        assert_eq!(t.delta_len(), 0);
        // Existing numbers are all untouched.
        let after: Vec<vh_pbn::Pbn> = t
            .pbn()
            .in_document_order()
            .iter()
            .map(|&id| t.pbn().pbn_of(id))
            .collect();
        for p in &before {
            assert!(after.contains(p), "{p} was renumbered");
        }
        assert_matches_rebuild(&mut t);
    }

    #[test]
    fn insert_of_a_new_path_grows_the_guide() {
        let mut t = td();
        let n = t.guide().len();
        let root = t.doc().root().unwrap();
        t.insert_fragment(root, 2, "<journal><issue>1</issue></journal>")
            .unwrap();
        assert!(t.guide().len() > n, "new paths intern new types");
        assert!(t
            .guide()
            .lookup_path(&["data", "journal", "issue"])
            .is_some());
        assert_matches_rebuild(&mut t);
    }

    #[test]
    fn delete_retires_numbers_and_keeps_the_rest() {
        let mut t = td();
        let root = t.doc().root().unwrap();
        let book1 = t.doc().children(root)[0];
        let removed = t.delete_subtree(book1).unwrap();
        assert_eq!(removed, 9);
        t.compact();
        assert_eq!(t.pbn().node_of(&pbn![1, 1]), None);
        assert!(t.pbn().node_of(&pbn![1, 2]).is_some());
        assert!(t.delete_subtree(book1).is_err(), "already detached");
        assert_eq!(t.delete_subtree(root), Err(EditError::RootTarget));
        assert_matches_rebuild(&mut t);
    }

    #[test]
    fn move_reminted_under_the_new_parent() {
        let mut t = td();
        let root = t.doc().root().unwrap();
        let book1 = t.doc().children(root)[0];
        let book2 = t.doc().children(root)[1];
        // Move book1's title under book2, at the front.
        let title1 = t.doc().children(book1)[0];
        t.move_subtree(title1, book2, 0).unwrap();
        assert_eq!(t.doc().children(book2)[0], title1);
        let p = t.pbn().pbn_of(title1);
        assert!(pbn![1, 2].is_strict_prefix_of(&p));
        assert!(p < pbn![1, 2, 1], "front insert mints before child 1");
        // Its text child is numbered below the minted number.
        let text = t.doc().children(title1)[0];
        assert_eq!(t.pbn().pbn_of(text), p.child(1));
        // Cycle and root guards.
        assert_eq!(t.move_subtree(root, book2, 0), Err(EditError::RootTarget));
        assert_eq!(t.move_subtree(book2, title1, 0), Err(EditError::CyclicMove));
        assert_matches_rebuild(&mut t);
    }

    #[test]
    fn set_value_rewrites_text() {
        let mut t = td();
        let root = t.doc().root().unwrap();
        let book1 = t.doc().children(root)[0];
        let title = t.doc().children(book1)[0];
        t.set_value(title, "Replaced").unwrap();
        assert_eq!(t.doc().string_value(title), "Replaced");
        // Element-level SetValue on a node with element children refuses.
        assert_eq!(t.set_value(book1, "x"), Err(EditError::MixedContent));
        // Creating a value under an empty element mints a text node.
        let id = t.insert_fragment(book1, 3, "<isbn></isbn>").unwrap();
        t.set_value(id, "12345").unwrap();
        assert_eq!(t.doc().string_value(id), "12345");
        let text = t.doc().children(id)[0];
        assert_eq!(t.pbn().pbn_of(text), t.pbn().pbn_of(id).child(1));
        assert_matches_rebuild(&mut t);
    }

    #[test]
    fn spliced_type_lists_match_the_one_pass_rebuild_mid_batch() {
        let mut t = td();
        let of = |t: &TypedDocument, path: &[&str]| {
            t.nodes_of_type(t.guide().lookup_path(path).unwrap())
                .to_vec()
        };
        let check = |t: &mut TypedDocument, what: &str| {
            t.compact();
            let spliced: Vec<Vec<NodeId>> = t
                .guide()
                .type_ids()
                .map(|ty| t.nodes_of_type(ty).to_vec())
                .collect();
            assert_eq!(spliced, t.rebuild_type_lists(), "{what}");
            assert!(t.take_reshaped(), "{what} reshaped the document");
            assert!(!t.take_reshaped(), "the flag resets");
        };
        let data = t.doc().root().unwrap();
        t.insert_fragment(
            data,
            1,
            "<book><title>Z</title><author><name>E</name></author>\
             <publisher><location>L</location></publisher></book>",
        )
        .unwrap();
        check(&mut t, "whole-book insert");
        // Each batch below splices several edits before one compaction,
        // so later splices search keys the delta segment holds.
        let titles = of(&t, &["data", "book", "title"]);
        let books = of(&t, &["data", "book"]);
        t.move_subtree(*titles.last().unwrap(), books[0], 0)
            .unwrap();
        let authors = of(&t, &["data", "book", "author"]);
        t.delete_subtree(authors[0]).unwrap();
        check(&mut t, "move then delete elsewhere");
        let book = t
            .insert_fragment(data, 2, "<book><title>I</title></book>")
            .unwrap();
        t.move_subtree(book, data, 0).unwrap();
        let authors = of(&t, &["data", "book", "author"]);
        let books = of(&t, &["data", "book"]);
        t.move_subtree(authors[1], books[0], 0).unwrap();
        t.delete_subtree(authors[1]).unwrap();
        check(&mut t, "insert-then-move and move-then-delete");
        // A title's text moved under a name changes its guide type.
        let text = of(&t, &["data", "book", "title", "#text"])[0];
        let name = of(&t, &["data", "book", "author", "name"])[0];
        let before = t.type_of(text);
        t.move_subtree(text, name, 0).unwrap();
        assert_ne!(t.type_of(text), before);
        check(&mut t, "type-changing move");
        // Front inserts under one parent, and a value-only rewrite.
        for k in 0..5 {
            t.insert_fragment(data, 0, &format!("<book><title>F{k}</title></book>"))
                .unwrap();
        }
        check(&mut t, "front-insert storm");
        let title = of(&t, &["data", "book", "title"])[0];
        t.set_value(title, "v").unwrap();
        assert!(!t.take_reshaped(), "a text rewrite numbers nothing");
    }
}
