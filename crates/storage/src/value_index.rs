//! The value index: node → byte range of its serialized value.
//!
//! §6: "A critical component in the implementation of an XML DBMS that uses
//! PBN is a value index to quickly find the value of a node given its PBN
//! number. The index maps a node's PBN number to a range of characters in
//! the source data string that forms its XML value." (The paper's worked
//! example maps `1.1.2` to range 29–60.)

use vh_xml::NodeId;

/// Byte range `[start, end)` of a node's value in the stored string.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ValueRange {
    /// Inclusive start offset.
    pub start: u32,
    /// Exclusive end offset.
    pub end: u32,
}

impl ValueRange {
    /// Length of the value in bytes.
    #[inline]
    pub fn len(self) -> usize {
        (self.end - self.start) as usize
    }

    /// True for an empty range.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }
}

/// The value index over all nodes of a document, dense by [`NodeId`].
/// PBN-keyed lookups go through the assignment's `node_of` first (O(log n))
/// and then here (O(1)).
#[derive(Clone, Debug, Default)]
pub struct ValueIndex {
    ranges: Vec<ValueRange>,
}

impl ValueIndex {
    /// Creates an index with room for `nodes` entries.
    pub fn with_capacity(nodes: usize) -> Self {
        ValueIndex {
            ranges: vec![ValueRange { start: 0, end: 0 }; nodes],
        }
    }

    /// Records the range of a node.
    // Documented capacity limit: offsets are u32 by design to keep the
    // index at 8 bytes per node; documents over 4 GiB are unsupported.
    #[expect(
        clippy::expect_used,
        reason = "documented capacity limit: >4 GiB documents unsupported"
    )]
    pub fn set(&mut self, node: NodeId, start: usize, end: usize) {
        self.ranges[node.index()] = ValueRange {
            start: u32::try_from(start).expect("document exceeds 4 GiB"),
            end: u32::try_from(end).expect("document exceeds 4 GiB"),
        };
    }

    /// The range of a node's value.
    #[inline]
    pub fn get(&self, node: NodeId) -> ValueRange {
        self.ranges[node.index()]
    }

    /// Number of indexed nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// True if no nodes are indexed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Heap bytes used by the index (space accounting).
    pub fn heap_bytes(&self) -> usize {
        self.ranges.len() * std::mem::size_of::<ValueRange>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_round_trip() {
        let mut idx = ValueIndex::with_capacity(3);
        idx.set(NodeId::from_index(1), 29, 60);
        let r = idx.get(NodeId::from_index(1));
        assert_eq!((r.start, r.end), (29, 60));
        assert_eq!(r.len(), 31);
        assert!(!r.is_empty());
        assert!(idx.get(NodeId::from_index(0)).is_empty());
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn heap_accounting() {
        let idx = ValueIndex::with_capacity(10);
        assert_eq!(idx.heap_bytes(), 10 * 8);
    }
}
