#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # vh-dataguide — structural summaries (DataGuides)
//!
//! §4.1 of the paper: a DataGuide `S = (T, E)` is a forest of *types*; the
//! type of a node is the concatenation of element names on the path from the
//! root to the node (so each level of a recursive schema is a distinct
//! type), and the type includes the document URI. Text nodes are typed with
//! the pseudo-name `#text` (the paper writes `◦`).
//!
//! This crate provides:
//! * [`DataGuide`] — the type forest, built from a document
//!   ([`DataGuide::from_document`]) with every helper the paper assumes
//!   (`roots`, `name`, `typeOf`, `lcaTypeOf`, `length`).
//! * [`TypedDocument`] — a document together with its guide, the
//!   node → type map and the type index (each type's nodes in PBN order).
//! * [`axes`] — location relationships *between types* in the guide,
//!   evaluated by PBN-numbering the guide itself (§5: "We assume that PBN is
//!   used to number the types in a DataGuide and quickly determine
//!   relationships in the DataGuide").

pub mod axes;
pub mod build;
pub mod guide;
pub mod mutate;
pub mod types;

pub use build::TypedDocument;
pub use guide::DataGuide;
pub use mutate::{resolve_path, EditError};
pub use types::{Type, TypeId, TEXT_TYPE_NAME};
