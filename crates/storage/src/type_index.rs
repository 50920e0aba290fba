//! The type index: type → nodes of that type, in document (PBN) order.
//!
//! §4.3: "there will usually be an index to quickly look up nodes of a
//! given type (e.g., find all the `<title>` elements). In these indexes ...
//! it is common to use the PBN number as a logical key." Range scans over a
//! type's PBN-sorted list are the access path both physical subtree queries
//! and the vPBN scan ranges (`vh_core::range`) use.

use vh_dataguide::{TypeId, TypedDocument};
use vh_xml::NodeId;

/// Per-type node lists, PBN-sorted.
#[derive(Clone, Debug, Default)]
pub struct TypeIndex {
    by_type: Vec<Vec<NodeId>>,
}

impl TypeIndex {
    /// Builds the index from a typed document.
    pub fn build(td: &TypedDocument) -> Self {
        let mut by_type: Vec<Vec<NodeId>> = vec![Vec::new(); td.guide().len()];
        // Document order = PBN order, so each list is born sorted.
        for &id in td.pbn().in_document_order() {
            by_type[td.type_of(id).index()].push(id);
        }
        TypeIndex { by_type }
    }

    /// All nodes of `ty`, in document order.
    #[inline]
    pub fn nodes(&self, ty: TypeId) -> &[NodeId] {
        &self.by_type[ty.index()]
    }

    /// Number of types covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.by_type.len()
    }

    /// True when the index covers no types.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.by_type.is_empty()
    }

    /// Total entries across all types (= node count).
    pub fn entries(&self) -> usize {
        self.by_type.iter().map(Vec::len).sum()
    }

    /// Heap bytes used by the index (space accounting).
    pub fn heap_bytes(&self) -> usize {
        self.by_type
            .iter()
            .map(|v| v.len() * std::mem::size_of::<NodeId>())
            .sum::<usize>()
            + self.by_type.len() * std::mem::size_of::<Vec<NodeId>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Must;
    use vh_pbn::pbn;
    use vh_xml::builder::paper_figure2;

    #[test]
    fn per_type_lists_in_document_order() {
        let td = TypedDocument::analyze(paper_figure2());
        let idx = TypeIndex::build(&td);
        let title = td.guide().lookup_path(&["data", "book", "title"]).must();
        let titles = idx.nodes(title);
        assert_eq!(titles.len(), 2);
        assert_eq!(td.pbn().pbn_of(titles[0]), pbn![1, 1, 1]);
        assert_eq!(td.pbn().pbn_of(titles[1]), pbn![1, 2, 1]);
        assert_eq!(idx.entries(), td.doc().len());
    }
}
