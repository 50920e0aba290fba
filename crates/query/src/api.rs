//! The blessed public surface of the query engine, in one flat module.
//!
//! Downstream code (the CLI, `examples/`, integration tests) should
//! import from here instead of picking symbols out of the individual
//! submodules: this module is the compatibility contract, and it
//! resolves the historical naming asymmetries in one place —
//! [`PhysicalDoc::with_document`] / [`PhysicalDoc::with_store`] are the
//! symmetric constructor pair, [`Engine::run`] with a [`QueryRequest`]
//! (built from a typed [`QueryKind`] and its `with_*` options) is the
//! one evaluation entry point, and [`query_document`] is the
//! single-document convenience.
//!
//! ```
//! use vh_query::api::{Engine, QueryRequest};
//!
//! let mut engine = Engine::new();
//! engine.register_xml("a.xml", "<a><b/></a>").unwrap();
//! let out = engine
//!     .run(&QueryRequest::flwr(r#"for $b in doc("a.xml")//b return <hit/>"#))
//!     .unwrap();
//! assert_eq!(out.stats.result_nodes, 1);
//! ```

pub use crate::doc::{PhysicalDoc, QueryDoc, VirtualDoc};
pub use crate::edit::{Edit, EditReceipt, EditRecovery, ReplayFailure};
pub use crate::engine::{
    query_document, Engine, EngineSnapshot, Explain, QueryKind, QueryOutcome, QueryRequest,
};
pub use crate::error::{Limits, QueryError, ResourceKind};
pub use crate::flwr::ast::FlwrQuery;
pub use crate::flwr::parse::parse_flwr;
pub use crate::sjoin::{virtual_structural_join, virtual_structural_join_counted};
pub use crate::twig::{twig_join, twig_join_counted, TwigPattern};
pub use crate::xpath::{eval_xpath, parse_xpath, XPath};
pub use vh_core::{ExecOptions, VirtualDocument};
pub use vh_obs::{CacheOutcome, QueryCounters, QueryStats, QueryTrace, ViewProvenance};
pub use vh_storage::{BufferStats, StorageStats};
