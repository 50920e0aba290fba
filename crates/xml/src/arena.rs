//! The arena-allocated document tree.
//!
//! A [`Document`] owns every node in a single `Vec`, addressed by
//! [`NodeId`]. This layout was chosen over `Rc`-linked nodes because the
//! reproduction repeatedly performs whole-document preorder scans (PBN
//! assignment, DataGuide construction, serialization) where a dense arena is
//! both simpler and markedly faster.

use crate::model::{Attribute, Node, NodeId, NodeKind};

/// An ordered XML tree with a single root element.
///
/// The document optionally records a URI; the paper's notion of a *type*
/// (Section 4.1) includes the document URI, so DataGuides built from
/// different URIs are distinct.
#[derive(Clone, Debug)]
pub struct Document {
    uri: String,
    nodes: Vec<Node>,
    root: Option<NodeId>,
}

impl Document {
    /// Creates an empty document with the given URI.
    pub fn new(uri: impl Into<String>) -> Self {
        Document {
            uri: uri.into(),
            nodes: Vec::new(),
            root: None,
        }
    }

    /// Parses `input` into a document with the given URI.
    ///
    /// Convenience wrapper over [`crate::parse::parse`].
    pub fn parse(uri: impl Into<String>, input: &str) -> Result<Self, crate::parse::ParseError> {
        crate::parse::parse(uri, input)
    }

    /// The document URI.
    #[inline]
    pub fn uri(&self) -> &str {
        &self.uri
    }

    /// The root element, or `None` for an empty document.
    #[inline]
    pub fn root(&self) -> Option<NodeId> {
        self.root
    }

    /// Number of nodes in the document (elements, text, comments, PIs).
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the document contains no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Accesses a node by id.
    ///
    /// # Panics
    /// Panics if `id` was not issued by this document.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The kind of a node.
    #[inline]
    pub fn kind(&self, id: NodeId) -> &NodeKind {
        &self.nodes[id.index()].kind
    }

    /// The parent of a node.
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.index()].parent
    }

    /// The ordered children of a node.
    #[inline]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.index()].children
    }

    /// Element name of a node, if it is an element.
    #[inline]
    pub fn name(&self, id: NodeId) -> Option<&str> {
        self.nodes[id.index()].kind.element_name()
    }

    /// Attributes of a node (empty slice for non-elements).
    pub fn attributes(&self, id: NodeId) -> &[Attribute] {
        match &self.nodes[id.index()].kind {
            NodeKind::Element { attributes, .. } => attributes,
            _ => &[],
        }
    }

    /// Looks up an attribute value by name.
    pub fn attribute(&self, id: NodeId, name: &str) -> Option<&str> {
        self.attributes(id)
            .iter()
            .find(|a| a.name == name)
            .map(|a| a.value.as_str())
    }

    /// The 1-based ordinal of `id` among its parent's children, or 1 for the
    /// root. This is the sibling ordinal used as the final PBN component.
    pub fn sibling_ordinal(&self, id: NodeId) -> usize {
        match self.parent(id) {
            None => 1,
            Some(p) => {
                // Invariant: `parent` and `children` are kept symmetric by
                // `attach`/`detach`, so a node always appears in its
                // parent's child list.
                match self.children(p).iter().position(|&c| c == id) {
                    Some(pos) => pos + 1,
                    None => unreachable!("child not found under its parent"),
                }
            }
        }
    }

    /// Depth of a node: the root element is at depth 1.
    pub fn depth(&self, id: NodeId) -> usize {
        self.ancestors(id).count() + 1
    }

    /// Concatenated text content of the subtree rooted at `id`
    /// (the XPath string value of an element).
    pub fn string_value(&self, id: NodeId) -> String {
        let mut out = String::new();
        for d in self.descendants_or_self(id) {
            if let NodeKind::Text(t) = self.kind(d) {
                out.push_str(t);
            }
        }
        out
    }

    // ----- construction -----------------------------------------------

    /// Creates a detached node and returns its id.
    fn push_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(Node {
            kind,
            parent: None,
            children: Vec::new(),
        });
        id
    }

    /// Creates the root element. May only be called once per document.
    ///
    /// # Panics
    /// Panics if the document already has a root.
    pub fn create_root(&mut self, name: impl Into<String>) -> NodeId {
        assert!(self.root.is_none(), "document already has a root");
        let id = self.push_node(NodeKind::Element {
            name: name.into(),
            attributes: Vec::new(),
        });
        self.root = Some(id);
        id
    }

    /// Appends a new element child under `parent` and returns its id.
    pub fn append_element(&mut self, parent: NodeId, name: impl Into<String>) -> NodeId {
        let id = self.push_node(NodeKind::Element {
            name: name.into(),
            attributes: Vec::new(),
        });
        self.attach(parent, id);
        id
    }

    /// Appends a new text child under `parent` and returns its id.
    ///
    /// If the last child of `parent` is already a text node the content is
    /// merged into it (the data model never holds adjacent text siblings),
    /// and the existing node's id is returned.
    pub fn append_text(&mut self, parent: NodeId, text: impl Into<String>) -> NodeId {
        if let Some(&last) = self.children(parent).last() {
            if let NodeKind::Text(existing) = &mut self.nodes[last.index()].kind {
                existing.push_str(&text.into());
                return last;
            }
        }
        let id = self.push_node(NodeKind::Text(text.into()));
        self.attach(parent, id);
        id
    }

    /// Appends a comment child under `parent`.
    pub fn append_comment(&mut self, parent: NodeId, text: impl Into<String>) -> NodeId {
        let id = self.push_node(NodeKind::Comment(text.into()));
        self.attach(parent, id);
        id
    }

    /// Appends a processing-instruction child under `parent`.
    pub fn append_pi(
        &mut self,
        parent: NodeId,
        target: impl Into<String>,
        data: impl Into<String>,
    ) -> NodeId {
        let id = self.push_node(NodeKind::ProcessingInstruction {
            target: target.into(),
            data: data.into(),
        });
        self.attach(parent, id);
        id
    }

    /// Sets an attribute on an element, replacing any existing value.
    ///
    /// # Panics
    /// Panics if `id` is not an element.
    pub fn set_attribute(&mut self, id: NodeId, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        match &mut self.nodes[id.index()].kind {
            NodeKind::Element { attributes, .. } => {
                if let Some(a) = attributes.iter_mut().find(|a| a.name == name) {
                    a.value = value.into();
                } else {
                    attributes.push(Attribute {
                        name,
                        value: value.into(),
                    });
                }
            }
            // Documented panic: `set_attribute` is only meaningful on
            // elements; calling it on text/comment nodes is a caller bug.
            #[expect(
                clippy::panic,
                reason = "documented panic: caller bug, not recoverable state"
            )]
            other => panic!("set_attribute on non-element node: {other:?}"),
        }
    }

    /// Inserts a new element as the `pos`-th child of `parent` (0-based),
    /// shifting later siblings right. `pos` may equal the child count
    /// (append). Used by the update-cost experiments.
    ///
    /// # Panics
    /// Panics if `pos` exceeds the current child count.
    pub fn insert_element(
        &mut self,
        parent: NodeId,
        pos: usize,
        name: impl Into<String>,
    ) -> NodeId {
        let id = self.push_node(NodeKind::Element {
            name: name.into(),
            attributes: Vec::new(),
        });
        self.nodes[id.index()].parent = Some(parent);
        let children = &mut self.nodes[parent.index()].children;
        assert!(pos <= children.len(), "insert position out of bounds");
        children.insert(pos, id);
        id
    }

    /// Detaches the subtree rooted at `id` from its parent. The nodes stay
    /// in the arena (ids remain valid) but are no longer reachable from the
    /// root; traversals and renumbering skip them.
    ///
    /// # Panics
    /// Panics if `id` is the root or already detached.
    pub fn detach(&mut self, id: NodeId) {
        // Documented panic (see the doc comment above): detaching the root
        // or a detached node is a caller bug, not a recoverable state.
        #[expect(
            clippy::expect_used,
            reason = "documented panic: detaching the root is a caller bug"
        )]
        let parent = self.nodes[id.index()]
            .parent
            .expect("cannot detach the root or an already-detached node");
        let children = &mut self.nodes[parent.index()].children;
        // Invariant: the parent/child links are symmetric (see
        // `sibling_ordinal`), so the child is always listed.
        let pos = match children.iter().position(|&c| c == id) {
            Some(p) => p,
            None => unreachable!("child listed under its parent"),
        };
        children.remove(pos);
        self.nodes[id.index()].parent = None;
    }

    fn attach(&mut self, parent: NodeId, child: NodeId) {
        debug_assert!(self.nodes[child.index()].parent.is_none());
        self.nodes[child.index()].parent = Some(parent);
        self.nodes[parent.index()].children.push(child);
    }

    /// Attaches a detached subtree as the `pos`-th child of `parent`
    /// (0-based, `pos` may equal the child count). The complement of
    /// [`Document::detach`]: together they move a subtree.
    ///
    /// # Panics
    /// Panics if `child` is attached or `pos` exceeds the child count.
    pub fn attach_at(&mut self, parent: NodeId, pos: usize, child: NodeId) {
        assert!(
            self.nodes[child.index()].parent.is_none(),
            "attach_at requires a detached subtree"
        );
        self.nodes[child.index()].parent = Some(parent);
        let children = &mut self.nodes[parent.index()].children;
        assert!(pos <= children.len(), "attach position out of bounds");
        children.insert(pos, child);
    }

    /// Replaces the content of a text node.
    ///
    /// # Panics
    /// Panics if `id` is not a text node.
    pub fn set_text(&mut self, id: NodeId, text: impl Into<String>) {
        match &mut self.nodes[id.index()].kind {
            NodeKind::Text(t) => *t = text.into(),
            // Documented panic: callers (the edit layer) validate the node
            // kind before dispatching here.
            #[expect(
                clippy::panic,
                reason = "documented panic: caller bug, not recoverable state"
            )]
            other => panic!("set_text on non-text node: {other:?}"),
        }
    }

    /// Deep-copies the subtree rooted at `src` in `from` to become the
    /// `pos`-th child of `parent` (0-based), returning the copied root.
    ///
    /// # Panics
    /// Panics if `pos` exceeds the current child count of `parent`.
    pub fn copy_subtree_at(
        &mut self,
        parent: NodeId,
        pos: usize,
        from: &Document,
        src: NodeId,
    ) -> NodeId {
        let id = self.copy_subtree(parent, from, src);
        // `copy_subtree` appended; rotate the new child into place.
        let children = &mut self.nodes[parent.index()].children;
        assert!(pos < children.len(), "insert position out of bounds");
        children[pos..].rotate_right(1);
        id
    }

    /// Deep-copies the subtree rooted at `src` in `from` under `parent` in
    /// this document, returning the id of the copied root.
    pub fn copy_subtree(&mut self, parent: NodeId, from: &Document, src: NodeId) -> NodeId {
        let id = self.push_node(from.kind(src).clone());
        self.attach(parent, id);
        // Iterative copy to stay robust on very deep documents.
        let mut stack: Vec<(NodeId, NodeId)> = vec![(src, id)];
        while let Some((s, d)) = stack.pop() {
            for &c in from.children(s) {
                let nd = self.push_node(from.kind(c).clone());
                self.attach(d, nd);
                stack.push((c, nd));
            }
        }
        id
    }

    // ----- traversal ---------------------------------------------------

    /// Iterator over the children of `id`.
    pub fn child_iter(&self, id: NodeId) -> Children<'_> {
        Children {
            doc: self,
            slice: self.children(id),
            pos: 0,
        }
    }

    /// Iterator over the proper ancestors of `id`, nearest first.
    pub fn ancestors(&self, id: NodeId) -> Ancestors<'_> {
        Ancestors {
            doc: self,
            next: self.parent(id),
        }
    }

    /// Preorder iterator over the subtree rooted at `id`, including `id`.
    pub fn descendants_or_self(&self, id: NodeId) -> Descendants<'_> {
        Descendants {
            doc: self,
            stack: vec![id],
        }
    }

    /// Preorder iterator over the whole document (empty if no root).
    pub fn preorder(&self) -> Descendants<'_> {
        Descendants {
            doc: self,
            stack: self.root.into_iter().collect(),
        }
    }

    /// Returns `true` if `anc` is a proper ancestor of `id`.
    pub fn is_ancestor(&self, anc: NodeId, id: NodeId) -> bool {
        self.ancestors(id).any(|a| a == anc)
    }
}

/// Iterator over a node's children. See [`Document::child_iter`].
pub struct Children<'a> {
    #[allow(dead_code)]
    doc: &'a Document,
    slice: &'a [NodeId],
    pos: usize,
}

impl<'a> Iterator for Children<'a> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let item = self.slice.get(self.pos).copied();
        self.pos += 1;
        item
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.slice.len().saturating_sub(self.pos);
        (rem, Some(rem))
    }
}

/// Iterator over proper ancestors, nearest first. See [`Document::ancestors`].
pub struct Ancestors<'a> {
    doc: &'a Document,
    next: Option<NodeId>,
}

impl<'a> Iterator for Ancestors<'a> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.doc.parent(cur);
        Some(cur)
    }
}

/// Preorder (document-order) iterator. See [`Document::descendants_or_self`].
pub struct Descendants<'a> {
    doc: &'a Document,
    stack: Vec<NodeId>,
}

impl<'a> Iterator for Descendants<'a> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let cur = self.stack.pop()?;
        // Push children in reverse so the leftmost is popped first.
        let children = self.doc.children(cur);
        self.stack.extend(children.iter().rev().copied());
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Document, NodeId, NodeId, NodeId, NodeId) {
        // <data><book><title>X</title></book></data>
        let mut d = Document::new("sample.xml");
        let data = d.create_root("data");
        let book = d.append_element(data, "book");
        let title = d.append_element(book, "title");
        let text = d.append_text(title, "X");
        (d, data, book, title, text)
    }

    #[test]
    fn construction_links_parents_and_children() {
        let (d, data, book, title, text) = sample();
        assert_eq!(d.root(), Some(data));
        assert_eq!(d.parent(book), Some(data));
        assert_eq!(d.parent(data), None);
        assert_eq!(d.children(book), &[title]);
        assert_eq!(d.children(title), &[text]);
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn preorder_is_document_order() {
        let (d, data, book, title, text) = sample();
        let order: Vec<NodeId> = d.preorder().collect();
        assert_eq!(order, vec![data, book, title, text]);
    }

    #[test]
    fn preorder_visits_siblings_left_to_right() {
        let mut d = Document::new("u");
        let r = d.create_root("r");
        let a = d.append_element(r, "a");
        let b = d.append_element(r, "b");
        let a1 = d.append_element(a, "a1");
        let order: Vec<NodeId> = d.preorder().collect();
        assert_eq!(order, vec![r, a, a1, b]);
    }

    #[test]
    fn ancestors_nearest_first() {
        let (d, data, book, title, text) = sample();
        let anc: Vec<NodeId> = d.ancestors(text).collect();
        assert_eq!(anc, vec![title, book, data]);
        assert!(d.is_ancestor(data, text));
        assert!(!d.is_ancestor(text, data));
        assert!(
            !d.is_ancestor(title, title),
            "self is not a proper ancestor"
        );
    }

    #[test]
    fn sibling_ordinals_are_one_based() {
        let mut d = Document::new("u");
        let r = d.create_root("r");
        let a = d.append_element(r, "a");
        let b = d.append_element(r, "b");
        assert_eq!(d.sibling_ordinal(r), 1);
        assert_eq!(d.sibling_ordinal(a), 1);
        assert_eq!(d.sibling_ordinal(b), 2);
    }

    #[test]
    fn depth_counts_from_one() {
        let (d, data, _book, _title, text) = sample();
        assert_eq!(d.depth(data), 1);
        assert_eq!(d.depth(text), 4);
    }

    #[test]
    fn adjacent_text_is_merged() {
        let mut d = Document::new("u");
        let r = d.create_root("r");
        let t1 = d.append_text(r, "hello ");
        let t2 = d.append_text(r, "world");
        assert_eq!(t1, t2);
        assert_eq!(d.children(r).len(), 1);
        assert_eq!(d.kind(t1).text(), Some("hello world"));
    }

    #[test]
    fn string_value_concatenates_descendant_text() {
        let mut d = Document::new("u");
        let r = d.create_root("r");
        let a = d.append_element(r, "a");
        d.append_text(a, "foo");
        let b = d.append_element(r, "b");
        d.append_text(b, "bar");
        assert_eq!(d.string_value(r), "foobar");
        assert_eq!(d.string_value(b), "bar");
    }

    #[test]
    fn attributes_set_and_replace() {
        let mut d = Document::new("u");
        let r = d.create_root("r");
        d.set_attribute(r, "id", "1");
        d.set_attribute(r, "lang", "en");
        d.set_attribute(r, "id", "2");
        assert_eq!(d.attribute(r, "id"), Some("2"));
        assert_eq!(d.attribute(r, "lang"), Some("en"));
        assert_eq!(d.attribute(r, "missing"), None);
        assert_eq!(d.attributes(r).len(), 2);
    }

    #[test]
    fn copy_subtree_deep_copies() {
        let (src, _data, book, _title, _text) = sample();
        let mut dst = Document::new("copy");
        let root = dst.create_root("library");
        let copied = dst.copy_subtree(root, &src, book);
        assert_eq!(dst.name(copied), Some("book"));
        assert_eq!(dst.string_value(copied), "X");
        // The copy is independent of the source arena.
        assert_eq!(dst.len(), 1 + 3);
    }

    #[test]
    fn insert_element_shifts_siblings() {
        let mut d = Document::new("u");
        let r = d.create_root("r");
        let a = d.append_element(r, "a");
        let c = d.append_element(r, "c");
        let b = d.insert_element(r, 1, "b");
        assert_eq!(d.children(r), &[a, b, c]);
        assert_eq!(d.parent(b), Some(r));
        assert_eq!(d.sibling_ordinal(c), 3);
        let front = d.insert_element(r, 0, "front");
        assert_eq!(d.children(r)[0], front);
        let back = d.insert_element(r, 4, "back");
        assert_eq!(d.children(r)[4], back);
    }

    #[test]
    fn detach_removes_the_subtree_from_traversal() {
        let mut d = Document::new("u");
        let r = d.create_root("r");
        let a = d.append_element(r, "a");
        let a1 = d.append_element(a, "a1");
        let b = d.append_element(r, "b");
        d.detach(a);
        assert_eq!(d.children(r), &[b]);
        assert_eq!(d.parent(a), None);
        let visited: Vec<NodeId> = d.preorder().collect();
        assert!(!visited.contains(&a) && !visited.contains(&a1));
        // Arena ids remain valid for inspection.
        assert_eq!(d.name(a1), Some("a1"));
    }

    #[test]
    #[should_panic(expected = "insert position out of bounds")]
    fn insert_beyond_end_panics() {
        let mut d = Document::new("u");
        let r = d.create_root("r");
        d.insert_element(r, 1, "x");
    }

    #[test]
    #[should_panic(expected = "document already has a root")]
    fn second_root_panics() {
        let mut d = Document::new("u");
        d.create_root("a");
        d.create_root("b");
    }
}
