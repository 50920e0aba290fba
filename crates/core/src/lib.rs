#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # vh-core — virtual prefix-based numbering (vPBN)
//!
//! The primary contribution of *"Querying Virtual Hierarchies using Virtual
//! Prefix-Based Numbers"* (SIGMOD 2014). A user sketches a **virtual
//! hierarchy** for existing data with a [`vdg`] specification (a virtual
//! DataGuide); nothing is moved, renumbered or re-indexed. Instead every
//! physical PBN number is coupled with a per-*type* **level array**
//! ([`levels`]) that locates each number component in the virtual numbering
//! space, and all ten XPath location relationships are decided by comparing
//! `(number, level array)` pairs ([`axes`]) plus a constant-time type-level
//! check in the virtual guide.
//!
//! Module tour:
//! * [`vdg`] — the vDataGuide grammar (`label { … }`, `*`, `**`), its parser
//!   and its expansion against the original DataGuide.
//! * [`levels`] — Algorithm 1: computing the type → level-array map.
//! * [`vpbn`] — the [`VPbn`] number type (PBN + level array).
//! * [`axes`] — the ten virtual location predicates of §5.
//! * [`order`] — virtual document order and sibling ordinals (§5.1).
//! * [`range`] — deriving PBN index-scan ranges from level arrays.
//! * [`vdoc`] — [`VirtualDocument`]: navigation over the virtual hierarchy.
//! * [`value`] — §6: computing transformed (virtual) node values by
//!   stitching stored byte ranges.
//! * [`transform`] — the *materialization baseline*: physically apply a
//!   vDataGuide and renumber, which is exactly the strategy §4.3 argues is
//!   too expensive; it doubles as the correctness oracle for the virtual
//!   predicates.
//! * [`exec`] — [`ExecOptions`] and the deterministic partition/merge
//!   primitives behind parallel scans, filters and sorts.
//! * [`cache`] — sharded LRU of compiled views (vDataGuide expansion,
//!   level-array map, prefix tables and the order-column cell, cached as
//!   one entry) with hit/miss counters.

pub mod axes;
pub mod cache;
pub mod exec;
pub mod levels;
pub mod order;
pub mod range;
pub mod transform;
pub mod value;
pub mod vdg;
pub mod vdoc;
pub mod vpbn;

pub use cache::{CacheStats, ExecCache};
pub use exec::ExecOptions;
pub use levels::LevelArray;
pub use vdg::{VDataGuide, VdgError, VdgSpec};
pub use vdoc::{CompiledView, VirtualDocument};
pub use vpbn::VPbn;

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared helpers for unit tests.

    /// Unwraps test fixtures that are valid by construction, printing the
    /// `Debug` payload when the assumption is violated.
    pub trait Must<T> {
        /// Returns the success value or fails the test.
        fn must(self) -> T;
    }

    impl<T, E: std::fmt::Debug> Must<T> for Result<T, E> {
        fn must(self) -> T {
            self.unwrap_or_else(|e| unreachable!("test fixture failed: {e:?}"))
        }
    }

    impl<T> Must<T> for Option<T> {
        fn must(self) -> T {
            self.unwrap_or_else(|| unreachable!("test fixture was None"))
        }
    }
}
