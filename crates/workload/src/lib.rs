#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # vh-workload — synthetic corpora, transformations, and query workloads
//!
//! The paper's evaluation substrate. Two generators:
//!
//! * [`books`] — a parameterized version of the paper's running example
//!   (Figure 2): a `data` root holding books with titles, authors (with
//!   names), and publishers (with locations). Skew knobs control fan-out.
//! * [`xmark`] — an XMark-style auction corpus (the de-facto standard XML
//!   benchmark schema): regions/items, people, open and closed auctions,
//!   scaled by a factor like the original benchmark.
//!
//! [`scenarios`] names the virtual transformations each corpus is queried
//! through (inversion, regrouping, projection, identity, …) and
//! [`queries`] the query workloads per scenario, and [`serve`] deals the
//! seeded point/twig/edit op streams the query server's bench replays
//! over the wire. All are consumed by the benchmark harness
//! (`vh-bench`) and the integration tests.
//!
//! All generation is deterministic given a seed.

pub mod books;
pub mod queries;
pub mod scenarios;
pub mod serve;
pub mod synthetic;
pub mod xmark;

pub use books::{generate_books, BooksConfig};
pub use scenarios::{book_scenarios, xmark_scenarios, Scenario};
pub use serve::{serve_engine, serve_ops, ServeMixConfig, ServeOp, SERVE_SPEC, SERVE_URI};
pub use synthetic::generate_comb;
pub use xmark::{generate_xmark, XmarkConfig};
