//! The materialize-and-renumber baseline (§4.3).
//!
//! What a system without vPBN must do before it can answer Rhonda's query:
//! 1. physically build the transformed instance,
//! 2. re-parse / renumber it (fresh PBN assignment, DataGuide and type
//!    index),
//! 3. rebuild the storage structures (document string, value index,
//!    headers),
//! 4. only then evaluate the query with plain PBN.
//!
//! [`run_materialized`] measures each stage; [`run_virtual`] is the vPBN
//! side: compile the vDataGuide and build level arrays over the
//! document's existing type index, evaluate the same query virtually.

use std::time::Duration;
use vh_core::transform::materialize;
use vh_core::{VDataGuide, VirtualDocument};
use vh_dataguide::TypedDocument;
use vh_query::doc::{PhysicalDoc, VirtualDoc};
use vh_query::xpath::{eval_xpath, parse_xpath};
use vh_storage::StoredDocument;
use vh_xml::NodeId;

use crate::timing::time;

/// Stage timings of the materializing pipeline.
#[derive(Clone, Copy, Debug, Default)]
pub struct MaterializeTimings {
    /// Building the transformed instance.
    pub transform: Duration,
    /// Renumbering + re-deriving the DataGuide and the type index.
    pub renumber: Duration,
    /// Rebuilding string storage, the value index and the headers.
    pub reindex: Duration,
    /// Evaluating the query on the transformed store.
    pub query: Duration,
}

impl MaterializeTimings {
    /// End-to-end latency.
    pub fn total(&self) -> Duration {
        self.transform + self.renumber + self.reindex + self.query
    }
}

/// Runs the full materializing pipeline; returns the result count and the
/// per-stage timings. The query is an XPath evaluated over the transformed
/// document (whose forest is wrapped in a synthetic `vroot`).
pub fn run_materialized(
    td: &TypedDocument,
    spec: &str,
    query: &str,
) -> (usize, MaterializeTimings) {
    let vdg = VDataGuide::compile(spec, td.guide()).expect("scenario spec compiles");
    let mut t = MaterializeTimings::default();

    let (mat, d) = time(|| materialize(td, &vdg));
    t.transform = d;

    let (typed, d) = time(|| TypedDocument::analyze(mat.doc));
    t.renumber = d;

    let (stored, d) = time(|| StoredDocument::build(typed));
    t.reindex = d;

    let path = parse_xpath(query).expect("query parses");
    let (nodes, d) =
        time(|| eval_xpath(&PhysicalDoc::new(stored.typed()), &path).expect("query evaluates"));
    t.query = d;

    (nodes.len(), t)
}

/// Stage timings of the virtual (vPBN) pipeline.
#[derive(Clone, Copy, Debug, Default)]
pub struct VirtualTimings {
    /// Compiling the vDataGuide + Algorithm 1 + prefix tables.
    pub open: Duration,
    /// Evaluating the query over the virtual hierarchy.
    pub query: Duration,
}

impl VirtualTimings {
    /// End-to-end latency.
    pub fn total(&self) -> Duration {
        self.open + self.query
    }
}

/// Runs the virtual pipeline; returns the result count and timings.
pub fn run_virtual(td: &TypedDocument, spec: &str, query: &str) -> (usize, VirtualTimings) {
    let mut t = VirtualTimings::default();
    let (vd, d) = time(|| VirtualDocument::open(td, spec).expect("scenario spec compiles"));
    t.open = d;
    let path = parse_xpath(query).expect("query parses");
    let (nodes, d) = time(|| eval_xpath(&VirtualDoc::new(&vd), &path).expect("query evaluates"));
    t.query = d;
    (nodes.len(), t)
}

/// Evaluates a query virtually and returns the node ids (for result
/// cross-checks between the pipelines).
pub fn virtual_result(td: &TypedDocument, spec: &str, query: &str) -> Vec<NodeId> {
    let vd = VirtualDocument::open(td, spec).expect("scenario spec compiles");
    let path = parse_xpath(query).expect("query parses");
    eval_xpath(&VirtualDoc::new(&vd), &path).expect("query evaluates")
}

#[cfg(test)]
mod tests {
    use super::*;
    use vh_workload::{generate_books, BooksConfig};

    #[test]
    fn pipelines_agree_on_result_counts() {
        let td = TypedDocument::analyze(generate_books("b", &BooksConfig::sized(30)));
        for (spec, query) in [
            ("title { author { name } }", "//title/author"),
            ("title { author { name } }", "//title"),
            ("book { publisher }", "//book/publisher/location"),
        ] {
            let (n_mat, _) = run_materialized(&td, spec, query);
            let (n_virt, _) = run_virtual(&td, spec, query);
            assert_eq!(n_mat, n_virt, "spec={spec} query={query}");
        }
    }

    #[test]
    fn timings_are_populated() {
        let td = TypedDocument::analyze(generate_books("b", &BooksConfig::sized(10)));
        let (_, t) = run_materialized(&td, "title { author { name } }", "//title");
        assert!(t.total() >= t.query);
        let (_, v) = run_virtual(&td, "title { author { name } }", "//title");
        assert!(v.total() >= v.query);
    }
}
