//! Node-level types of the XML data model.
//!
//! The tree itself lives in [`crate::arena::Document`]; this module defines
//! the per-node payloads. Nodes are identified by [`NodeId`], a dense index
//! into the document arena, which keeps the tree compact and traversals
//! cache-friendly (see the module docs of [`crate::arena`]).

use std::fmt;

/// Identifier of a node within a [`crate::Document`] arena.
///
/// `NodeId`s are dense indices assigned in creation order. For documents
/// built by the parser, creation order is document order, which downstream
/// crates exploit when assigning prefix-based numbers.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Returns the raw index of this id within its document arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a `NodeId` from a raw index.
    ///
    /// Intended for serialization round-trips in downstream crates; using an
    /// index that does not belong to the document is a logic error and will
    /// panic on access.
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "documented capacity limit: >4 Gi nodes is out of scope"
    )]
    pub fn from_index(index: usize) -> Self {
        // Documented capacity limit: node ids are u32 by design (the paper's
        // level arrays assume 32-bit ordinals); >4 Gi nodes is unsupported.
        NodeId(u32::try_from(index).expect("node index exceeds u32 range"))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeId({})", self.0)
    }
}

/// A named attribute on an element, in document order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name as written (no namespace processing).
    pub name: String,
    /// Unescaped attribute value.
    pub value: String,
}

/// The payload of a node: what kind of XML construct it is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// An element with a tag name and its attributes.
    Element {
        /// Tag name as written (no namespace processing).
        name: String,
        /// Attributes in document order.
        attributes: Vec<Attribute>,
    },
    /// A text node. Adjacent text is merged by the parser.
    Text(String),
    /// A comment (`<!-- … -->`); content excludes the delimiters.
    Comment(String),
    /// A processing instruction (`<?target data?>`).
    ProcessingInstruction {
        /// The PI target.
        target: String,
        /// The PI data (may be empty).
        data: String,
    },
}

impl NodeKind {
    /// Returns the element name, or `None` for non-element nodes.
    #[inline]
    pub fn element_name(&self) -> Option<&str> {
        match self {
            NodeKind::Element { name, .. } => Some(name),
            _ => None,
        }
    }

    /// Returns `true` if this is an element node.
    #[inline]
    pub fn is_element(&self) -> bool {
        matches!(self, NodeKind::Element { .. })
    }

    /// Returns `true` if this is a text node.
    #[inline]
    pub fn is_text(&self) -> bool {
        matches!(self, NodeKind::Text(_))
    }

    /// Returns the text content for text nodes, or `None` otherwise.
    #[inline]
    pub fn text(&self) -> Option<&str> {
        match self {
            NodeKind::Text(t) => Some(t),
            _ => None,
        }
    }
}

/// A node in the document arena: payload plus tree links.
///
/// Children are stored as an ordered `Vec<NodeId>`; the fan-out of real XML
/// data is small enough that vectors beat sibling-linked lists for both
/// locality and simplicity, and the vPBN workloads never splice siblings.
#[derive(Clone, Debug)]
pub struct Node {
    pub(crate) kind: NodeKind,
    pub(crate) parent: Option<NodeId>,
    pub(crate) children: Vec<NodeId>,
}

impl Node {
    /// The node's payload.
    #[inline]
    pub fn kind(&self) -> &NodeKind {
        &self.kind
    }

    /// The parent node, or `None` for the root.
    #[inline]
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// The node's children in document order.
    #[inline]
    pub fn children(&self) -> &[NodeId] {
        &self.children
    }

    /// Element name, if this is an element.
    #[inline]
    pub fn name(&self) -> Option<&str> {
        self.kind.element_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trips_through_index() {
        let id = NodeId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(format!("{id:?}"), "NodeId(42)");
    }

    #[test]
    fn node_kind_accessors() {
        let e = NodeKind::Element {
            name: "book".into(),
            attributes: vec![],
        };
        assert!(e.is_element());
        assert!(!e.is_text());
        assert_eq!(e.element_name(), Some("book"));
        assert_eq!(e.text(), None);

        let t = NodeKind::Text("hi".into());
        assert!(t.is_text());
        assert_eq!(t.text(), Some("hi"));
        assert_eq!(t.element_name(), None);
    }

    #[test]
    #[should_panic(expected = "node index exceeds u32 range")]
    fn node_id_overflow_panics() {
        let _ = NodeId::from_index(u32::MAX as usize + 1);
    }
}
