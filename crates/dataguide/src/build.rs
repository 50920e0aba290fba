//! Building a DataGuide from a document instance, and the combined
//! [`TypedDocument`] (document + guide + node→type map + PBN assignment)
//! that the rest of the system works with.

use crate::guide::DataGuide;
use crate::types::{TypeId, TEXT_TYPE_NAME};
use vh_pbn::PbnAssignment;
use vh_xml::{Document, NodeId, NodeKind};

impl DataGuide {
    /// Builds the strong DataGuide of `doc` together with the node → type
    /// assignment (`typeOf`).
    ///
    /// Comments and processing instructions are typed like text nodes would
    /// be, under a `#comment` / `#pi` pseudo-name, so every node has a type.
    pub fn from_document(doc: &Document) -> (DataGuide, Vec<TypeId>) {
        let mut guide = DataGuide::new(doc.uri());
        let mut by_node = vec![TypeId::from_index(0); doc.len()];
        if let Some(root) = doc.root() {
            // Invariant: the arena only ever creates element roots
            // (`create_root`), so the root always has a name.
            let root_name = match doc.name(root) {
                Some(n) => n,
                None => unreachable!("document root is an element"),
            };
            let root_ty = guide.intern_root(root_name);
            let mut stack: Vec<(NodeId, TypeId)> = vec![(root, root_ty)];
            while let Some((id, ty)) = stack.pop() {
                by_node[id.index()] = ty;
                for &c in doc.children(id) {
                    let child_name = match doc.kind(c) {
                        NodeKind::Element { name, .. } => name.as_str(),
                        NodeKind::Text(_) => TEXT_TYPE_NAME,
                        NodeKind::Comment(_) => "#comment",
                        NodeKind::ProcessingInstruction { .. } => "#pi",
                    };
                    let child_ty = guide.intern_child(ty, child_name);
                    stack.push((c, child_ty));
                }
            }
        }
        (guide, by_node)
    }
}

/// A document prepared for PBN-based query processing: the instance, its
/// PBN assignment, its DataGuide, the node → type map and the type index.
///
/// The type index is §4.3's: for each guide type, its numbered nodes in
/// PBN (document) order. It lives beside the PBN arena, and every edit
/// splices it where it splices the numbering, so it is always current;
/// physical `//name` steps and every virtual view read it.
///
/// This is the "original data" half of the paper's machinery; `vh-core`
/// layers the virtual hierarchy on top of it.
#[derive(Clone, Debug)]
pub struct TypedDocument {
    pub(crate) doc: Document,
    pub(crate) pbn: PbnAssignment,
    pub(crate) guide: DataGuide,
    pub(crate) type_of: Vec<TypeId>,
    /// `by_type[t]`: the numbered nodes of guide type `t`, PBN-sorted;
    /// one list per guide type.
    pub(crate) by_type: Vec<Vec<NodeId>>,
    /// Set by every edit that numbers or retires a node, cleared by
    /// [`TypedDocument::take_reshaped`].
    pub(crate) reshaped: bool,
}

impl TypedDocument {
    /// Analyzes `doc`: assigns PBN numbers, builds the DataGuide and the
    /// type index.
    pub fn analyze(doc: Document) -> Self {
        let pbn = PbnAssignment::assign(&doc);
        let (guide, type_of) = DataGuide::from_document(&doc);
        let by_type = type_lists(pbn.in_document_order(), &type_of, guide.len());
        TypedDocument {
            doc,
            pbn,
            guide,
            type_of,
            by_type,
            reshaped: false,
        }
    }

    /// Parses and analyzes an XML string.
    pub fn parse(uri: impl Into<String>, input: &str) -> Result<Self, vh_xml::ParseError> {
        Ok(Self::analyze(Document::parse(uri, input)?))
    }

    /// The underlying document.
    #[inline]
    pub fn doc(&self) -> &Document {
        &self.doc
    }

    /// The PBN assignment.
    #[inline]
    pub fn pbn(&self) -> &PbnAssignment {
        &self.pbn
    }

    /// The DataGuide.
    #[inline]
    pub fn guide(&self) -> &DataGuide {
        &self.guide
    }

    /// The type of a node (`typeOf(S, v)`).
    #[inline]
    pub fn type_of(&self, id: NodeId) -> TypeId {
        self.type_of[id.index()]
    }

    /// True when an edit numbered or retired a node since the last call,
    /// which resets it. Value-only rewrites leave it false: nothing that
    /// depends on the tree's shape depends on text content.
    pub fn take_reshaped(&mut self) -> bool {
        std::mem::take(&mut self.reshaped)
    }

    /// All numbered nodes of the given type, in document (PBN) order: the
    /// type index's list, current after every edit.
    #[inline]
    pub fn nodes_of_type(&self, ty: TypeId) -> &[NodeId] {
        self.by_type.get(ty.index()).map_or(&[], Vec::as_slice)
    }
}

/// The type index in one pass: `order` is document order, so each type's
/// list comes out PBN-sorted.
pub(crate) fn type_lists(order: &[NodeId], type_of: &[TypeId], types: usize) -> Vec<Vec<NodeId>> {
    let mut by_type = vec![Vec::new(); types];
    for &id in order {
        by_type[type_of[id.index()].index()].push(id);
    }
    by_type
}

#[cfg(test)]
mod tests {
    use super::*;
    use vh_xml::builder::paper_figure2;

    #[test]
    fn figure7a_guide_from_figure2_instance() {
        let (g, _) = DataGuide::from_document(&paper_figure2());
        // Figure 7(a): data, book, title, ◦, author, name, ◦, publisher,
        // location, ◦ — ten types.
        assert_eq!(g.len(), 10);
        assert_eq!(g.roots().len(), 1);
        let author = g.lookup_path(&["data", "book", "author"]).unwrap();
        assert_eq!(g.path_string(author), "data.book.author");
        // Both books collapse onto the same types (strong DataGuide).
        let title = g.lookup_path(&["data", "book", "title"]).unwrap();
        assert_eq!(g.length(title), 3);
    }

    #[test]
    fn typed_document_maps_every_node() {
        let td = TypedDocument::analyze(paper_figure2());
        let root = td.doc().root().unwrap();
        assert_eq!(td.guide().path_string(td.type_of(root)), "data");
        for id in td.doc().preorder() {
            // Each node's type length equals its depth.
            assert_eq!(td.guide().length(td.type_of(id)), td.doc().depth(id));
        }
    }

    #[test]
    fn nodes_of_type_in_document_order() {
        let td = TypedDocument::analyze(paper_figure2());
        let author_ty = td.guide().lookup_path(&["data", "book", "author"]).unwrap();
        let authors = td.nodes_of_type(author_ty);
        assert_eq!(authors.len(), 2);
        use vh_pbn::pbn;
        assert_eq!(td.pbn().pbn_of(authors[0]), pbn![1, 1, 2]);
        assert_eq!(td.pbn().pbn_of(authors[1]), pbn![1, 2, 2]);
    }

    #[test]
    fn recursive_data_gets_one_type_per_level() {
        let td = TypedDocument::parse("u", "<a><a><a>deep</a></a></a>").unwrap();
        // a, a.a, a.a.a, a.a.a.#text — four types.
        assert_eq!(td.guide().len(), 4);
        let leaf = td.guide().lookup_path(&["a", "a", "a"]).unwrap();
        assert_eq!(td.guide().length(leaf), 3);
    }

    #[test]
    fn comments_and_pis_are_typed() {
        let td = TypedDocument::parse("u", "<a><!--c--><?p d?></a>").unwrap();
        let g = td.guide();
        assert!(g.lookup_path(&["a", "#comment"]).is_some());
        assert!(g.lookup_path(&["a", "#pi"]).is_some());
    }
}
