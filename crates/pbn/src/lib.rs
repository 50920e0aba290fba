#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # vh-pbn — Prefix-based numbering (Dewey order)
//!
//! Section 4.2 of the paper: every node is numbered `p.k` where `p` is the
//! parent's number and `k` the 1-based sibling ordinal; the root is `1`.
//! Location-based relationships between nodes (child, parent, ancestor,
//! descendant, siblings, preceding/following) are decided purely by
//! comparing numbers.
//!
//! Modules:
//! * [`number`] — the [`Pbn`] type and prefix arithmetic.
//! * [`axes`] — the ten XPath location relationships on raw numbers.
//! * [`order`] — the document-order interval of a subtree.
//! * [`encode`] — a compact, prefix-free, order-preserving byte encoding
//!   ("strategies for packing PBN numbers into as few bits as possible",
//!   §4.2's reference \[11\]).
//! * [`keys`] — allocation-free predicates on encoded byte keys
//!   (`memcmp` = document order, `starts_with` = ancestor-or-self) and
//!   the `prefix_succ` subtree upper bound.
//! * [`arena`] — the columnar [`PbnArena`]: every key of a document in
//!   one contiguous, document-order buffer.
//! * [`assign`] — numbering every node of a [`vh_xml::Document`].
//! * [`mint`] — renumbering-free sibling-key minting: [`KeyGen::between`]
//!   allocates a number strictly between two existing siblings without
//!   touching any assigned number.
//! * [`update`] — update renumbering (§3's contrast case): how many
//!   numbers an edit invalidates, measurably.

pub mod arena;
pub mod assign;
pub mod axes;
pub mod encode;
pub mod keys;
pub mod mint;
pub mod number;
pub mod order;
pub mod update;

pub use arena::{ArenaFormatError, PbnArena};
pub use assign::PbnAssignment;
pub use axes::{relationship, Relationship};
pub use encode::{decode_ordinal_value, encode_ordinal_value, EncodedPbn, PbnCodecError};
pub use mint::KeyGen;
pub use number::{Comp, Pbn};
