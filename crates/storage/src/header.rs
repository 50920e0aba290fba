//! Per-node header records.
//!
//! §6: "Header information for each node, e.g., the kind of node (text,
//! element, etc.) is often inserted into the XML string stored on disk. ...
//! We will assume that the header information has a PBN number and a Type
//! ID." We store headers out-of-line (a dense table) rather than inline in
//! the string; the space accounting is what the experiments need.

use vh_dataguide::{TypeId, TypedDocument};
use vh_pbn::EncodedPbn;
use vh_xml::{NodeId, NodeKind};

/// The kind byte of a node header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum HeaderKind {
    /// Element node.
    Element = 0,
    /// Text node.
    Text = 1,
    /// Comment node.
    Comment = 2,
    /// Processing instruction.
    Pi = 3,
}

impl From<&NodeKind> for HeaderKind {
    fn from(k: &NodeKind) -> Self {
        match k {
            NodeKind::Element { .. } => HeaderKind::Element,
            NodeKind::Text(_) => HeaderKind::Text,
            NodeKind::Comment(_) => HeaderKind::Comment,
            NodeKind::ProcessingInstruction { .. } => HeaderKind::Pi,
        }
    }
}

/// One node header: kind, Type ID, and the compactly encoded PBN number.
#[derive(Clone, Debug)]
pub struct NodeHeader {
    /// Node kind.
    pub kind: HeaderKind,
    /// The node's type in the DataGuide.
    pub type_id: TypeId,
    /// The node's PBN number, compactly encoded.
    pub pbn: EncodedPbn,
}

impl NodeHeader {
    /// Stored size in bytes: 1 (kind) + 4 (type id) + encoded number.
    pub fn size_bytes(&self) -> usize {
        1 + 4 + self.pbn.size()
    }
}

/// The dense header table of a document.
#[derive(Clone, Debug, Default)]
pub struct HeaderTable {
    headers: Vec<NodeHeader>,
}

impl HeaderTable {
    /// Builds headers for every node.
    pub fn build(td: &TypedDocument) -> Self {
        let doc = td.doc();
        let mut headers = Vec::with_capacity(doc.len());
        for i in 0..doc.len() {
            let id = NodeId::from_index(i);
            headers.push(NodeHeader {
                kind: HeaderKind::from(doc.kind(id)),
                type_id: td.type_of(id),
                // Arena keys are codec output, so they always validate.
                pbn: EncodedPbn::from_bytes(td.pbn().key_of(id).to_vec()).unwrap_or_default(),
            });
        }
        HeaderTable { headers }
    }

    /// The header of a node.
    #[inline]
    pub fn get(&self, id: NodeId) -> &NodeHeader {
        &self.headers[id.index()]
    }

    /// Number of headers.
    #[inline]
    pub fn len(&self) -> usize {
        self.headers.len()
    }

    /// True if there are no headers.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.headers.is_empty()
    }

    /// Total stored bytes across all headers.
    pub fn total_bytes(&self) -> usize {
        self.headers.iter().map(NodeHeader::size_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Must;
    use vh_dataguide::TypedDocument;
    use vh_xml::builder::paper_figure2;

    #[test]
    fn headers_cover_every_node_with_correct_kinds() {
        let td = TypedDocument::analyze(paper_figure2());
        let t = HeaderTable::build(&td);
        assert_eq!(t.len(), td.doc().len());
        let root = td.doc().root().must();
        assert_eq!(t.get(root).kind, HeaderKind::Element);
        // Find a text node and check kind + number round-trip.
        let text = td
            .doc()
            .preorder()
            .find(|&id| td.doc().kind(id).is_text())
            .must();
        let h = t.get(text);
        assert_eq!(h.kind, HeaderKind::Text);
        assert_eq!(h.pbn.decode(), td.pbn().pbn_of(text));
        assert_eq!(h.type_id, td.type_of(text));
    }

    #[test]
    fn header_sizes_reflect_encoding() {
        let td = TypedDocument::analyze(paper_figure2());
        let t = HeaderTable::build(&td);
        let root = td.doc().root().must();
        // Root header: 1 + 4 + 1 encoded byte.
        assert_eq!(t.get(root).size_bytes(), 6);
        assert!(t.total_bytes() > 0);
    }
}
