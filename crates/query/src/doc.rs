//! The [`QueryDoc`] abstraction: one navigation interface over physical and
//! virtual documents.
//!
//! The XPath evaluator is written once against this trait. The physical
//! implementation navigates with plain PBN numbers: its path steps and
//! document order read the numbering's arena (or a store's name index);
//! the virtual implementation delegates to [`vh_core::VirtualDocument`],
//! whose every operation is a vPBN comparison. Identical query results over
//! `data { ** }` (identity) versus the physical document is one of the
//! system-level invariants the integration tests pin down.

use crate::xpath::NodeTest;
use std::cmp::Ordering;
use vh_core::vdg::VTypeId;
use vh_core::VirtualDocument;
use vh_dataguide::TypedDocument;
use vh_pbn::{keys, PbnArena};
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
    /// document when `scope` is `None`). This is the access path `//name`
    /// steps take in a PBN-based system (§4.3's type index). A virtual
    /// document always answers; a physical one answers from its store's
    /// name index or its numbering's arena, and returns `None` only while
    /// the numbering holds edits its arena has not absorbed — the
    /// evaluator then falls back to a tree walk.
    ///
    /// Contract: an answer is in document order ([`Self::cmp_order`]) with
    /// no duplicates. The evaluator returns a single context's answer as
    /// it is, without sorting it again.
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
        descendants_walk(self, n)
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

/// Descendants of `n` in document order (excluding `n`), by a preorder
/// walk of [`QueryDoc::children`].
fn descendants_walk<D: QueryDoc + ?Sized>(doc: &D, n: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut stack = doc.children(n);
    stack.reverse();
    while let Some(c) = stack.pop() {
        out.push(c);
        let mut kids = doc.children(c);
        kids.reverse();
        stack.extend(kids);
    }
    out
}

/// Document order of two physical nodes by their encoded PBN keys (a node
/// that holds no number has the empty key and sorts first).
fn key_order(td: &TypedDocument, a: NodeId, b: NodeId) -> Ordering {
    keys::cmp(td.pbn().key_of(a), td.pbn().key_of(b))
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

/// Physical navigation over a [`TypedDocument`] (plain PBN semantics).
///
/// While the numbering is drained, document order, descendants, `//name`
/// and `child::name` / `child::text()` steps read its arena: the node
/// column is the document order, and a subtree is one contiguous slice
/// of it. Mid-batch (an undrained delta segment) they fall back to the
/// tree walk and the byte-key compare. A [`vh_storage::StoredDocument`]
/// answers `//name` from its name index instead.
pub struct PhysicalDoc<'a> {
    td: &'a TypedDocument,
    store: Option<&'a vh_storage::StoredDocument>,
}

impl<'a> PhysicalDoc<'a> {
    /// Wraps a typed document; `//x` steps scan its numbering's arena.
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

    /// The numbering's arena, when it is current: `None` while the delta
    /// segment holds edits the arena has not absorbed.
    fn arena(&self) -> Option<&'a PbnArena> {
        let pbn = self.td.pbn();
        (pbn.delta_len() == 0).then(|| pbn.arena())
    }

    /// The descendants of `n` in document order: the slots after `n`'s to
    /// the end of its subtree's slot range. `None` mid-batch or when `n`
    /// holds no number.
    fn descendant_slice(&self, n: NodeId) -> Option<&'a [NodeId]> {
        let arena = self.arena()?;
        let slot = arena.slot_of(n)?;
        arena.subtree_nodes(arena.key_at_slot(slot)).get(1..)
    }

    /// `//name` from the arena: one pass over its node column (the whole
    /// document, or the scope's descendant slice), keeping the nodes whose
    /// type carries the name. An element's type is named after it; text,
    /// comment and PI types carry `#` pseudo-names no name test spells.
    ///
    /// oracle: descendants_named_walk
    fn arena_descendants_named(&self, scope: Option<NodeId>, name: &str) -> Option<Vec<NodeId>> {
        let nodes = match scope {
            None => self.arena()?.nodes_in_order(),
            Some(x) => self.descendant_slice(x)?,
        };
        let guide = self.td.guide();
        let named: Vec<bool> = guide.type_ids().map(|t| guide.name(t) == name).collect();
        Some(
            nodes
                .iter()
                .copied()
                .filter(|&n| named.get(self.td.type_of(n).index()) == Some(&true))
                .collect(),
        )
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

    // oracle: key_order
    fn cmp_order(&self, a: NodeId, b: NodeId) -> Ordering {
        let slots = self
            .arena()
            .and_then(|arena| Some((arena.slot_of(a)?, arena.slot_of(b)?)));
        match slots {
            Some((x, y)) => x.cmp(&y),
            None => key_order(self.td, a, b),
        }
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

    // oracle: descendants_walk
    fn descendants(&self, n: NodeId) -> Vec<NodeId> {
        match self.descendant_slice(n) {
            Some(nodes) => nodes.to_vec(),
            None => descendants_walk(self, n),
        }
    }

    fn descendants_named(&self, scope: Option<NodeId>, name: &str) -> Option<Vec<NodeId>> {
        let Some(store) = self.store else {
            return self.arena_descendants_named(scope, name);
        };
        let list = store.names().nodes(name);
        match scope {
            None => Some(list.to_vec()),
            Some(x) => {
                // Elements named `name` inside x's subtree occupy a
                // contiguous run of the PBN-sorted name list.
                // On the encoded keys that run is `[key(x), subtree end)`.
                let pbn = self.td.pbn();
                let xk = pbn.key_of(x);
                let start =
                    vh_core::exec::partition_point_branchless(list, |&c| pbn.key_of(c) < xk);
                let end = vh_core::exec::partition_point_branchless(list, |&c| {
                    keys::before_subtree_end(xk, pbn.key_of(c))
                });
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

    // oracle: children_matching_walk
    fn children_matching(&self, ctxs: &[NodeId], test: &NodeTest) -> Option<Vec<NodeId>> {
        if !matches!(test, NodeTest::Name(_) | NodeTest::Text) {
            return None;
        }
        let arena = self.arena()?;
        let doc = self.td.doc();
        let keep = |c: NodeId| match test {
            NodeTest::Name(name) => doc.name(c) == Some(name.as_str()),
            _ => doc.kind(c).is_text(),
        };
        // Each context's matching children are in document order; the
        // concatenation is too unless contexts nest, repeat or come out
        // of order (a FLWR variable's binding), which one slot sort fixes.
        let mut out = Vec::new();
        let mut last: Option<usize> = None;
        let mut sorted = true;
        for &n in ctxs {
            for &c in doc.children(n) {
                if keep(c) {
                    let slot = arena.slot_of(c)?;
                    sorted &= last.is_none_or(|l| l < slot);
                    last = Some(slot);
                    out.push(c);
                }
            }
        }
        if !sorted {
            out.sort_unstable_by_key(|&c| arena.slot_of(c));
            out.dedup();
        }
        Some(out)
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
                for &vt in &vtypes {
                    out.extend_from_slice(self.vd.nodes_of_vtype(vt));
                }
            }
            Some(x) => {
                for &vt in &vtypes {
                    out.extend(self.vd.descendants_of_type(x, vt));
                }
            }
        }
        // Nodes of one virtual type order by key, as the type index lists
        // them, and one type's list holds no duplicates: only names that
        // several types carry need the merge.
        if vtypes.len() > 1 {
            out.sort_by(|&a, &b| self.cmp_order(a, b));
            out.dedup();
        }
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
    use crate::xpath::{eval_xpath, parse_xpath};
    use vh_xml::builder::paper_figure2;

    /// The tree walk a `//name` step takes below `scope` (the whole
    /// document when `None`): every descendant, filtered by name.
    fn descendants_named_walk(
        d: &PhysicalDoc<'_>,
        scope: Option<NodeId>,
        name: &str,
    ) -> Vec<NodeId> {
        let nodes = match scope {
            Some(x) => descendants_walk(d, x),
            None => d
                .roots()
                .into_iter()
                .flat_map(|r| std::iter::once(r).chain(descendants_walk(d, r)))
                .collect(),
        };
        nodes
            .into_iter()
            .filter(|&n| d.name(n) == Some(name))
            .collect()
    }

    /// The per-context child step: each context's children filtered by the
    /// test, then sorted by key and deduplicated.
    fn children_matching_walk(
        d: &PhysicalDoc<'_>,
        ctxs: &[NodeId],
        test: &NodeTest,
    ) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = ctxs
            .iter()
            .flat_map(|&n| d.children(n))
            .filter(|&c| match test {
                NodeTest::Name(name) => d.name(c) == Some(name.as_str()),
                _ => d.kind(c).is_text(),
            })
            .collect();
        out.sort_by(|&a, &b| key_order(d.typed(), a, b));
        out.dedup();
        out
    }

    /// The first node named `name` in document order.
    fn first_named(td: &TypedDocument, name: &str) -> NodeId {
        td.doc()
            .preorder()
            .find(|&n| td.doc().name(n) == Some(name))
            .must()
    }

    /// Asserts the `descendants_named` contract — document order, no
    /// duplicates — for every element name below every scope.
    fn assert_ordered_answers(d: &dyn QueryDoc, scopes: &[NodeId], names: &[&str], ctx: &str) {
        let scopes = std::iter::once(None).chain(scopes.iter().copied().map(Some));
        for scope in scopes {
            for &name in names {
                let found = d.descendants_named(scope, name).must();
                assert!(
                    found
                        .windows(2)
                        .all(|w| d.cmp_order(w[0], w[1]) == Ordering::Less),
                    "{ctx}: //{name} below {scope:?} gave {found:?}"
                );
            }
        }
    }

    #[test]
    fn descendants_named_answers_in_document_order_without_duplicates() {
        let nested = TypedDocument::parse(
            "nest.xml",
            "<data><a><b>t</b><a><a/><b/></a></a><a/><b>u</b></data>",
        )
        .must();
        let books = TypedDocument::parse(
            "books.xml",
            "<data><book><title>A</title><author><name>B</name></author>\
             <author><name>C</name></author></book>\
             <book><title>D</title><author><name>E</name></author></book></data>",
        )
        .must();
        let fig2 = TypedDocument::analyze(paper_figure2());
        for (label, td) in [("nested", &nested), ("books", &books), ("figure2", &fig2)] {
            let all: Vec<NodeId> = td.doc().preorder().collect();
            let mut names: Vec<&str> = all.iter().filter_map(|&n| td.doc().name(n)).collect();
            names.sort_unstable();
            names.dedup();
            assert_ordered_answers(&PhysicalDoc::new(td), &all, &names, label);
            let store = vh_storage::StoredDocument::build(td.clone());
            assert_ordered_answers(&PhysicalDoc::with_store(&store), &all, &names, label);
        }
        let mut single_type_answers = 0;
        for (label, td) in [("books", &books), ("figure2", &fig2)] {
            for spec in [
                "data { ** }",
                "title { author { name } }",
                "title { name { author } }",
                "name { author { title } }",
                "author { title }",
            ] {
                let vd = VirtualDocument::open(td, spec).must();
                let visible = vd.preorder();
                let guide = vd.vdg().guide();
                let names: Vec<&str> = guide.type_ids().map(|vt| guide.name(vt)).collect();
                let ctx = format!("{label} {spec}");
                let d = VirtualDoc::new(&vd);
                assert_ordered_answers(&d, &visible, &names, &ctx);
                // A name one virtual type carries skips the sort: its
                // answer is the type's index list, or the slice of it
                // below the scope, unsorted and already in order.
                for vt in guide.type_ids() {
                    let name = guide.name(vt);
                    if names.iter().filter(|&&n| n == name).count() != 1 {
                        continue;
                    }
                    let all = d.descendants_named(None, name).must();
                    assert_eq!(all, vd.nodes_of_vtype(vt), "{ctx}: //{name}");
                    for &x in &visible {
                        let below = d.descendants_named(Some(x), name).must();
                        let mut sorted = below.clone();
                        sorted.sort_by(|&a, &b| d.cmp_order(a, b));
                        assert_eq!(below, sorted, "{ctx}: //{name} below {x:?}");
                        single_type_answers += usize::from(below.len() > 1);
                    }
                }
            }
        }
        assert!(single_type_answers > 0, "single-type names answered sets");
    }

    #[test]
    fn scoped_descendants_named_reads_the_subtree_slice() {
        let td = TypedDocument::parse(
            "nest.xml",
            "<data><a><b>t</b><a><a/><b/></a></a><a/><b>u</b></data>",
        )
        .must();
        let d = PhysicalDoc::new(&td);
        let doc = td.doc();
        let outer = first_named(&td, "a");
        let leaf = doc
            .preorder()
            .filter(|&n| doc.name(n) == Some("a"))
            .nth(2)
            .must();
        let text = doc.preorder().find(|&n| doc.kind(n).is_text()).must();
        let cases = [
            (Some(outer), "a"),
            (Some(outer), "b"),
            (Some(leaf), "a"),
            (Some(text), "b"),
            (None, "a"),
            (None, "data"),
        ];
        for (scope, name) in cases {
            assert_eq!(
                d.descendants_named(scope, name).must(),
                descendants_named_walk(&d, scope, name),
                "{scope:?} {name}"
            );
        }
        // The scope is not its own descendant, even when its name matches.
        assert_eq!(d.descendants_named(Some(outer), "a").must().len(), 2);
        assert!(d.descendants_named(Some(leaf), "a").must().is_empty());
        assert!(d.descendants_named(Some(text), "b").must().is_empty());
        for n in doc.preorder() {
            assert_eq!(d.descendants(n), descendants_walk(&d, n));
        }
    }

    #[test]
    fn nested_contexts_merge_into_document_order() {
        let td = TypedDocument::parse(
            "nest.xml",
            "<data><book><author><name>A</name>x</author><name>B</name>y\
             <author><name>C</name></author></book></data>",
        )
        .must();
        let d = PhysicalDoc::new(&td);
        let book = first_named(&td, "book");
        let author = first_named(&td, "author");
        // A book and its own author, in both orders and repeated.
        for ctxs in [vec![book, author], vec![author, book, author, book]] {
            for test in [
                NodeTest::Name("name".into()),
                NodeTest::Text,
                NodeTest::Name("author".into()),
            ] {
                assert_eq!(
                    d.children_matching(&ctxs, &test).must(),
                    children_matching_walk(&d, &ctxs, &test),
                    "{ctxs:?} {test:?}"
                );
            }
        }
        let names = d
            .children_matching(&[book, author], &NodeTest::Name("name".into()))
            .must();
        let values: Vec<String> = names.iter().map(|&n| d.string_value(n)).collect();
        assert_eq!(values, ["A", "B"]);
        assert!(d
            .children_matching(&[book], &NodeTest::AnyElement)
            .is_none());
    }

    #[test]
    fn an_undrained_delta_takes_the_tree_walk() {
        let mut td = TypedDocument::analyze(paper_figure2());
        let root = td.doc().root().must();
        let book = first_named(&td, "book");
        td.insert_fragment(
            root,
            0,
            "<book><title>Z</title><author><name>E</name></author></book>",
        )
        .must();
        td.insert_fragment(book, 1, "<author><name>F</name></author>")
            .must();
        assert!(td.delta_len() > 0);
        let mut drained = td.clone();
        drained.compact();
        let (mid, after) = (PhysicalDoc::new(&td), PhysicalDoc::new(&drained));
        assert!(mid.descendants_named(None, "book").is_none());
        assert!(mid
            .children_matching(&[root], &NodeTest::Name("book".into()))
            .is_none());
        let all: Vec<NodeId> = td.doc().preorder().collect();
        for &a in &all {
            assert_eq!(mid.descendants(a), descendants_walk(&mid, a));
            assert_eq!(mid.descendants(a), after.descendants(a));
            for &b in &all {
                assert_eq!(mid.cmp_order(a, b), key_order(&td, a, b));
                assert_eq!(mid.cmp_order(a, b), after.cmp_order(a, b));
            }
        }
        for path in [
            "//book",
            "//author/name",
            "//book/author/name/text()",
            "//name/preceding::title",
        ] {
            let x = parse_xpath(path).must();
            let (m, a) = (eval_xpath(&mid, &x).must(), eval_xpath(&after, &x).must());
            assert!(!m.is_empty(), "{path}");
            assert_eq!(m, a, "{path}");
        }
    }

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
