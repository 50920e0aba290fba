//! The element-name index: local name → nodes, in document order.
//!
//! Name-keyed lookup backs path steps that select by tag regardless of
//! position (`//title`). It complements the type index (which is keyed by
//! full root paths): one name can cover several types.

use std::collections::HashMap;
use vh_dataguide::TypedDocument;
use vh_xml::NodeId;

/// Name → document-ordered node list.
#[derive(Clone, Debug, Default)]
pub struct NameIndex {
    by_name: HashMap<String, Vec<NodeId>>,
}

impl NameIndex {
    /// Builds the index over all element nodes.
    pub fn build(td: &TypedDocument) -> Self {
        let mut by_name: HashMap<String, Vec<NodeId>> = HashMap::new();
        for &id in td.pbn().in_document_order() {
            if let Some(name) = td.doc().name(id) {
                by_name.entry(name.to_owned()).or_default().push(id);
            }
        }
        NameIndex { by_name }
    }

    /// All elements with the given name, in document order.
    pub fn nodes(&self, name: &str) -> &[NodeId] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Distinct names indexed.
    pub fn name_count(&self) -> usize {
        self.by_name.len()
    }

    /// Heap bytes used (approximate; space accounting).
    pub fn heap_bytes(&self) -> usize {
        self.by_name
            .iter()
            .map(|(k, v)| k.len() + v.len() * std::mem::size_of::<NodeId>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vh_xml::builder::paper_figure2;

    #[test]
    fn names_map_to_document_ordered_lists() {
        let td = TypedDocument::analyze(paper_figure2());
        let idx = NameIndex::build(&td);
        assert_eq!(idx.nodes("book").len(), 2);
        assert_eq!(idx.nodes("title").len(), 2);
        assert_eq!(idx.nodes("data").len(), 1);
        assert!(idx.nodes("nosuch").is_empty());
        // 7 distinct element names in Figure 2: data, book, title, author,
        // name, publisher, location.
        assert_eq!(idx.name_count(), 7);
        // Document order within a name.
        let books = idx.nodes("book");
        assert!(td.pbn().pbn_of(books[0]) < td.pbn().pbn_of(books[1]));
    }
}
