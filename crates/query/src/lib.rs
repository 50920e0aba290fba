#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # vh-query — XPath and mini-XQuery over physical *and* virtual documents
//!
//! The paper's pipeline: Sam writes a transformation, Rhonda queries its
//! result. Without vPBN she must materialize Sam's output and re-index it;
//! with vPBN she writes `virtualDoc("x.xml", "title { author { name } }")`
//! and her path expressions are evaluated directly in the virtual space.
//!
//! This crate provides both sides:
//! * [`doc`] — the [`doc::QueryDoc`] abstraction: one navigation interface,
//!   two implementations ([`doc::PhysicalDoc`] over a stored document using
//!   plain PBN, [`doc::VirtualDoc`] over a
//!   [`vh_core::VirtualDocument`] using vPBN).
//! * [`xpath`] — a location-path language (13 axes, name/kind tests,
//!   predicates with comparisons, positions and functions) with a
//!   document-agnostic evaluator.
//! * [`sjoin`] — stack-based structural joins over PBN- or vPBN-sorted
//!   streams (experiment F6).
//! * [`twig`] — holistic twig joins (TwigStack) running unchanged on
//!   physical and virtual streams.
//! * [`flwr`] — a FLWR (for/let/where/return) subset with element
//!   constructors, `doc(...)` and the paper's **`virtualDoc(...)`**.
//! * [`engine`] — the document registry tying it together, with the
//!   [`engine::QueryRequest`] / [`engine::QueryOutcome`] request API,
//!   per-query tracing and the EXPLAIN renderer.
//! * [`edit`] — crash-safe document mutations: the [`edit::Edit`] model,
//!   its write-ahead-log payload codec, and the receipts/recovery reports
//!   behind `Engine::apply` / `Engine::recover`.
//! * [`api`] — the blessed flat re-export surface for downstream code.
//! * [`error`] — the [`error::QueryError`] taxonomy and [`error::Limits`]
//!   resource guards (recursion depth, step budget, cardinality cap, time
//!   budget) that keep hostile queries from exhausting the process.

pub mod api;
pub mod doc;
pub mod edit;
pub mod engine;
pub mod error;
pub mod flwr;
pub mod sjoin;
pub mod twig;
pub mod xpath;

pub use edit::{Edit, EditReceipt, EditRecovery, ReplayFailure};
pub use engine::{Engine, EngineSnapshot, Explain, QueryKind, QueryOutcome, QueryRequest};
pub use error::{FlwrError, Limits, QueryError, ResourceKind};
pub use xpath::{parse_xpath, XPath};

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
