//! The [`QueryDoc`] abstraction: one navigation interface over physical and
//! virtual documents.
//!
//! The XPath evaluator is written once against this trait. The physical
//! implementation navigates with plain PBN numbers and the stored indexes;
//! the virtual implementation delegates to [`vh_core::VirtualDocument`],
//! whose every operation is a vPBN comparison. Identical query results over
//! `data { ** }` (identity) versus the physical document is one of the
//! system-level invariants the integration tests pin down.

use crate::xpath::NodeTest;
use std::cmp::Ordering;
use vh_core::vdg::VTypeId;
use vh_core::VirtualDocument;
use vh_dataguide::TypedDocument;
use vh_xml::{NodeId, NodeKind};

/// Navigation interface required by the XPath evaluator.
///
/// Node sets are materialized `Vec`s in document order; for the data sizes
/// of the experiments this is simpler and not measurably slower than lazy
/// iterators, and it keeps the trait object-safe.
pub trait QueryDoc {
    /// The root nodes (a physical document has one; a virtual hierarchy is
    /// a forest).
    fn roots(&self) -> Vec<NodeId>;
    /// Children of `n`, in document order.
    fn children(&self, n: NodeId) -> Vec<NodeId>;
    /// Parent of `n`.
    fn parent(&self, n: NodeId) -> Option<NodeId>;
    /// The payload of `n`.
    fn kind(&self, n: NodeId) -> &NodeKind;
    /// Document-order comparison between two nodes.
    fn cmp_order(&self, a: NodeId, b: NodeId) -> Ordering;
    /// The string value of `n` (concatenated text of its subtree *in this
    /// document's hierarchy* — virtual subtrees differ from physical ones).
    fn string_value(&self, n: NodeId) -> String;
    /// Attribute lookup on an element.
    fn attribute(&self, n: NodeId, name: &str) -> Option<String>;
    /// All attributes of an element, in document order (used when copying
    /// nodes into constructed results).
    fn attributes(&self, n: NodeId) -> Vec<(String, String)>;

    /// Element name of `n`, if it is an element.
    fn name(&self, n: NodeId) -> Option<&str> {
        self.kind(n).element_name()
    }

    /// Indexed lookup: all elements named `name` below `scope` (the whole
    /// document when `scope` is `None`), in document order. Returns `None`
    /// when no index is available — the evaluator then falls back to a
    /// tree walk. This is the access path `//name` steps take in a
    /// PBN-based system (§4.3's type index).
    fn descendants_named(&self, _scope: Option<NodeId>, _name: &str) -> Option<Vec<NodeId>> {
        None
    }

    /// Set-at-a-time child step: the children of every node in `ctxs`
    /// that pass `test` (a name test or `text()`), merged in document
    /// order without duplicates. Returns `None` when the document has no
    /// batched child scan — the evaluator then walks each context's
    /// children. This is how a PBN-based system answers a path step: one
    /// ordered range scan of the type index per step, not one probe per
    /// context node.
    fn children_matching(&self, _ctxs: &[NodeId], _test: &NodeTest) -> Option<Vec<NodeId>> {
        None
    }

    /// Descendants of `n` in document order (excluding `n`).
    fn descendants(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = self.children(n);
        stack.reverse();
        while let Some(c) = stack.pop() {
            out.push(c);
            let mut kids = self.children(c);
            kids.reverse();
            stack.extend(kids);
        }
        out
    }

    /// Ancestors of `n`, nearest first.
    fn ancestors(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = self.parent(n);
        while let Some(p) = cur {
            out.push(p);
            cur = self.parent(p);
        }
        out
    }

    /// Siblings after `n`, in document order.
    fn following_siblings(&self, n: NodeId) -> Vec<NodeId> {
        match sibling_split(self, n) {
            Some((sibs, pos)) => sibs[pos + 1..].to_vec(),
            None => Vec::new(),
        }
    }

    /// Siblings before `n`, in document order.
    fn preceding_siblings(&self, n: NodeId) -> Vec<NodeId> {
        match sibling_split(self, n) {
            Some((mut sibs, pos)) => {
                sibs.truncate(pos);
                sibs
            }
            None => Vec::new(),
        }
    }
}

/// The sibling list `n` belongs to (its parent's children, or the roots)
/// and its position there; `None` when `n` is not in that list. That
/// happens to a visible node with no virtual parent that is not a root
/// either (under `title { author }`, the author of a book without a
/// title): it has no siblings.
fn sibling_split<D: QueryDoc + ?Sized>(doc: &D, n: NodeId) -> Option<(Vec<NodeId>, usize)> {
    let sibs = match doc.parent(n) {
        Some(p) => doc.children(p),
        None => doc.roots(),
    };
    let pos = sibs.iter().position(|&s| s == n)?;
    Some((sibs, pos))
}

/// Physical navigation over a [`TypedDocument`] (plain PBN semantics),
/// optionally index-accelerated by a [`vh_storage::StoredDocument`].
pub struct PhysicalDoc<'a> {
    td: &'a TypedDocument,
    store: Option<&'a vh_storage::StoredDocument>,
}

impl<'a> PhysicalDoc<'a> {
    /// Wraps a typed document (no indexes; `//x` steps walk the tree).
    pub fn new(td: &'a TypedDocument) -> Self {
        PhysicalDoc { td, store: None }
    }

    /// Wraps a typed document — the named sibling of
    /// [`Self::with_store`], so the two construction paths read
    /// symmetrically at call sites ([`Self::new`] remains as the
    /// conventional alias).
    pub fn with_document(td: &'a TypedDocument) -> Self {
        Self::new(td)
    }

    /// Wraps a stored document; `//x` steps use the name index with PBN
    /// subtree-range narrowing.
    pub fn with_store(store: &'a vh_storage::StoredDocument) -> Self {
        PhysicalDoc {
            td: store.typed(),
            store: Some(store),
        }
    }

    /// The wrapped document.
    pub fn typed(&self) -> &'a TypedDocument {
        self.td
    }
}

impl<'a> QueryDoc for PhysicalDoc<'a> {
    fn roots(&self) -> Vec<NodeId> {
        self.td.doc().root().into_iter().collect()
    }

    fn children(&self, n: NodeId) -> Vec<NodeId> {
        self.td.doc().children(n).to_vec()
    }

    fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.td.doc().parent(n)
    }

    fn kind(&self, n: NodeId) -> &NodeKind {
        self.td.doc().kind(n)
    }

    fn cmp_order(&self, a: NodeId, b: NodeId) -> Ordering {
        self.td.pbn().pbn_of(a).cmp(self.td.pbn().pbn_of(b))
    }

    fn string_value(&self, n: NodeId) -> String {
        self.td.doc().string_value(n)
    }

    fn attribute(&self, n: NodeId, name: &str) -> Option<String> {
        self.td.doc().attribute(n, name).map(str::to_owned)
    }

    fn attributes(&self, n: NodeId) -> Vec<(String, String)> {
        self.td
            .doc()
            .attributes(n)
            .iter()
            .map(|a| (a.name.clone(), a.value.clone()))
            .collect()
    }

    fn descendants_named(&self, scope: Option<NodeId>, name: &str) -> Option<Vec<NodeId>> {
        let store = self.store?;
        let list = store.names().nodes(name);
        match scope {
            None => Some(list.to_vec()),
            Some(x) => {
                // Elements named `name` inside x's subtree occupy a
                // contiguous run of the PBN-sorted name list.
                let pbn = self.td.pbn();
                let (lo, hi) = vh_pbn::order::subtree_range(pbn.pbn_of(x));
                let start =
                    vh_core::exec::partition_point_branchless(list, |&c| pbn.pbn_of(c) < &lo);
                let end = vh_core::exec::partition_point_branchless(list, |&c| pbn.pbn_of(c) < &hi);
                // Exclude x itself (descendant, not self).
                Some(
                    list[start..end]
                        .iter()
                        .copied()
                        .filter(|&c| c != x)
                        .collect(),
                )
            }
        }
    }
}

/// Virtual navigation over a [`VirtualDocument`] (vPBN semantics).
pub struct VirtualDoc<'a> {
    vd: &'a VirtualDocument<'a>,
}

impl<'a> VirtualDoc<'a> {
    /// Wraps a virtual document.
    pub fn new(vd: &'a VirtualDocument<'a>) -> Self {
        VirtualDoc { vd }
    }

    /// The wrapped virtual document.
    pub fn virtual_doc(&self) -> &'a VirtualDocument<'a> {
        self.vd
    }
}

impl<'a> QueryDoc for VirtualDoc<'a> {
    fn roots(&self) -> Vec<NodeId> {
        self.vd.roots()
    }

    fn children(&self, n: NodeId) -> Vec<NodeId> {
        self.vd.children(n)
    }

    fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.vd.parent(n)
    }

    fn kind(&self, n: NodeId) -> &NodeKind {
        self.vd.typed().doc().kind(n)
    }

    fn cmp_order(&self, a: NodeId, b: NodeId) -> Ordering {
        match (self.vd.vpbn_of(a), self.vd.vpbn_of(b)) {
            (Some(x), Some(y)) => vh_core::order::v_cmp(self.vd.vdg(), &x, &y),
            _ => Ordering::Equal,
        }
    }

    fn string_value(&self, n: NodeId) -> String {
        // The *virtual* string value: text of the virtual subtree.
        let mut out = String::new();
        let mut stack = vec![n];
        while let Some(cur) = stack.pop() {
            if let NodeKind::Text(t) = self.kind(cur) {
                out.push_str(t);
            }
            let mut kids = self.vd.children(cur);
            kids.reverse();
            stack.extend(kids);
        }
        out
    }

    fn attribute(&self, n: NodeId, name: &str) -> Option<String> {
        self.vd.typed().doc().attribute(n, name).map(str::to_owned)
    }

    fn attributes(&self, n: NodeId) -> Vec<(String, String)> {
        self.vd
            .typed()
            .doc()
            .attributes(n)
            .iter()
            .map(|a| (a.name.clone(), a.value.clone()))
            .collect()
    }

    fn descendants_named(&self, scope: Option<NodeId>, name: &str) -> Option<Vec<NodeId>> {
        // Virtual types with this local name; their per-type node lists are
        // the §4.3 type index, and `descendants_of_type` narrows by the
        // derived vPBN scan ranges.
        let vdg = self.vd.vdg();
        let vtypes: Vec<_> = vdg
            .guide()
            .type_ids()
            .filter(|&vt| vdg.guide().name(vt) == name)
            .collect();
        let mut out: Vec<NodeId> = Vec::new();
        match scope {
            None => {
                for vt in vtypes {
                    out.extend_from_slice(self.vd.nodes_of_vtype(vt));
                }
            }
            Some(x) => {
                for vt in vtypes {
                    out.extend(self.vd.descendants_of_type(x, vt));
                }
            }
        }
        out.sort_by(|&a, &b| self.cmp_order(a, b));
        out.dedup();
        Some(out)
    }

    fn children_matching(&self, ctxs: &[NodeId], test: &NodeTest) -> Option<Vec<NodeId>> {
        // A child's name and kind are those of its virtual type, so the
        // test picks the child types to scan instead of filtering nodes.
        let guide = self.vd.vdg().guide();
        let keep: &dyn Fn(VTypeId) -> bool = match test {
            NodeTest::Name(name) => &move |vt| guide.name(vt) == name,
            NodeTest::Text => &|vt| guide.ty(vt).is_text(),
            NodeTest::AnyElement | NodeTest::AnyNode | NodeTest::Comment => return None,
        };
        Some(self.vd.children_of_set(ctxs, keep))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Must;
    use vh_xml::builder::paper_figure2;

    #[test]
    fn physical_navigation_matches_the_tree() {
        let td = TypedDocument::analyze(paper_figure2());
        let d = PhysicalDoc::new(&td);
        let root = d.roots()[0];
        assert_eq!(d.name(root), Some("data"));
        assert_eq!(d.children(root).len(), 2);
        assert_eq!(d.descendants(root).len(), td.doc().len() - 1);
        let book2 = d.children(root)[1];
        assert_eq!(d.parent(book2), Some(root));
        assert_eq!(d.following_siblings(d.children(root)[0]), vec![book2]);
        assert_eq!(d.preceding_siblings(book2), vec![d.children(root)[0]]);
        assert_eq!(d.string_value(book2), "YDM");
        assert!(d.cmp_order(root, book2) == Ordering::Less);
    }

    #[test]
    fn virtual_navigation_differs_from_physical() {
        let td = TypedDocument::analyze(paper_figure2());
        let vd = VirtualDocument::open(&td, "title { author { name } }").must();
        let d = VirtualDoc::new(&vd);
        let roots = d.roots();
        assert_eq!(roots.len(), 2, "two titles are virtual roots");
        // The virtual string value of a title includes the author's name,
        // which is *not* below title physically.
        assert_eq!(d.string_value(roots[0]), "XC");
        assert_eq!(td.doc().string_value(roots[0]), "X");
        // Sibling navigation among virtual roots.
        assert_eq!(d.following_siblings(roots[0]), vec![roots[1]]);
        assert_eq!(d.preceding_siblings(roots[1]), vec![roots[0]]);
    }

    #[test]
    fn sibling_axes_of_a_node_outside_every_sibling_list_are_empty() {
        // The second book has no title, so under `title { author { name } }`
        // its author is visible but has no virtual parent and is no root.
        let mut engine = crate::Engine::new();
        engine
            .register_xml(
                "u",
                "<data><book><title>X</title><author><name>C</name></author></book>\
                 <book><author><name>D</name></author></book></data>",
            )
            .must();
        let view = "title { author { name } }";
        for path in [
            "//author/following-sibling::*",
            "//author/preceding-sibling::*",
        ] {
            let req = crate::QueryRequest::virtual_path("u", view, path);
            assert!(engine.run(&req).is_ok(), "{path}");
        }
        let vd = engine.virtual_doc("u", view).must();
        let d = VirtualDoc::new(&vd);
        let orphan = author_named(&vd, "D");
        assert_eq!(d.parent(orphan), None);
        assert!(!d.roots().contains(&orphan));
        assert!(d.following_siblings(orphan).is_empty());
        assert!(d.preceding_siblings(orphan).is_empty());
    }

    /// The author element whose name reads `name`.
    fn author_named(vd: &VirtualDocument<'_>, name: &str) -> NodeId {
        let doc = vd.typed().doc();
        doc.preorder()
            .find(|&n| doc.name(n) == Some("author") && doc.string_value(n) == name)
            .must()
    }

    #[test]
    fn identity_virtual_navigation_matches_physical() {
        let td = TypedDocument::analyze(paper_figure2());
        let vd = VirtualDocument::open(&td, "data { ** }").must();
        let v = VirtualDoc::new(&vd);
        let p = PhysicalDoc::new(&td);
        assert_eq!(v.roots(), p.roots());
        for n in td.doc().preorder() {
            assert_eq!(v.children(n), p.children(n));
            assert_eq!(v.parent(n), p.parent(n));
            assert_eq!(v.string_value(n), p.string_value(n));
        }
    }
}
