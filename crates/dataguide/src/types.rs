//! Type identifiers and per-type records of a DataGuide.

use std::fmt;
use vh_pbn::Pbn;

/// The pseudo element name used for text-node types (the paper writes `◦`).
pub const TEXT_TYPE_NAME: &str = "#text";

/// Identifier of a type within a [`crate::DataGuide`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TypeId(pub(crate) u32);

impl TypeId {
    /// Raw index into the guide's type table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a `TypeId` from a raw index.
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "documented capacity limit: >4 Gi types is out of scope"
    )]
    pub fn from_index(index: usize) -> Self {
        // Documented capacity limit: type ids are u32 by design, matching
        // node ids; a guide with >4 Gi types is unsupported.
        TypeId(u32::try_from(index).expect("type index exceeds u32 range"))
    }
}

impl fmt::Debug for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TypeId({})", self.0)
    }
}

/// One type in the guide: a distinct root-to-node name path.
#[derive(Clone, Debug)]
pub struct Type {
    /// The last name on the path (element name, or [`TEXT_TYPE_NAME`]).
    pub(crate) name: String,
    /// Parent type, or `None` for a root type.
    pub(crate) parent: Option<TypeId>,
    /// Child types in first-encounter order.
    pub(crate) children: Vec<TypeId>,
    /// Length of the path (the paper's `length`); roots have length 1.
    pub(crate) length: usize,
    /// PBN number of this type *within the guide* (used for O(c) lca and
    /// type-level axis checks, per §5).
    pub(crate) pbn: Pbn,
}

impl Type {
    /// The local name of this type (last path component).
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parent type.
    #[inline]
    pub fn parent(&self) -> Option<TypeId> {
        self.parent
    }

    /// Child types in first-encounter order.
    #[inline]
    pub fn children(&self) -> &[TypeId] {
        &self.children
    }

    /// Path length (`length(S, v)` in the paper). Roots have length 1.
    #[inline]
    pub fn length(&self) -> usize {
        self.length
    }

    /// PBN number of the type within the guide.
    #[inline]
    pub fn pbn(&self) -> &Pbn {
        &self.pbn
    }

    /// True if this is the text pseudo-type.
    #[inline]
    pub fn is_text(&self) -> bool {
        self.name == TEXT_TYPE_NAME
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_id_round_trips() {
        let t = TypeId::from_index(7);
        assert_eq!(t.index(), 7);
        assert_eq!(format!("{t:?}"), "TypeId(7)");
    }
}
