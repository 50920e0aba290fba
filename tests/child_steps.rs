//! The set-at-a-time child steps against their per-context oracles.
//!
//! A `child::name` or `child::text()` step with position-free predicates
//! over a virtual document is answered by one batched scan of the type
//! index for the whole context set (`QueryDoc::children_matching` →
//! `VirtualDocument::children_of_set`). The oracle is the evaluator's
//! per-context path: each context's `children`, filtered by the node test,
//! predicates applied per context, then sorted and deduplicated. It is
//! reached through a wrapper that offers no batched scan, so the same
//! evaluator runs both sides.
//!
//! The physical document answers `//name`, child steps, descendants and
//! document order from its numbering's arena. Its oracle is a wrapper
//! with none of those hooks: tree-walk descendants, no indexed `//name`
//! or batched child scan, and the byte-key order compare.

#![allow(clippy::expect_used, clippy::panic)]

use vpbn_suite::core::{ExecOptions, VirtualDocument};
use vpbn_suite::dataguide::TypedDocument;
use vpbn_suite::pbn::keys;
use vpbn_suite::query::api::{Edit, Engine};
use vpbn_suite::query::doc::{PhysicalDoc, QueryDoc, VirtualDoc};
use vpbn_suite::query::xpath::eval::eval_xpath_with_vars;
use vpbn_suite::query::xpath::{eval_xpath, parse_xpath, XValue};
use vpbn_suite::workload::queries::book_queries;
use vpbn_suite::workload::{book_scenarios, generate_books, BooksConfig};
use vpbn_suite::xml::builder::paper_figure2;
use vpbn_suite::xml::{serialize, NodeId, NodeKind, SerializeOptions};

/// The document URI the edited engine registers its corpus under.
const URI: &str = "books.xml";

/// A virtual document without the batched child scan: the evaluator walks
/// every context on its own.
struct PerContext<'a>(VirtualDoc<'a>);

impl QueryDoc for PerContext<'_> {
    fn roots(&self) -> Vec<NodeId> {
        self.0.roots()
    }
    fn children(&self, n: NodeId) -> Vec<NodeId> {
        self.0.children(n)
    }
    fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.0.parent(n)
    }
    fn kind(&self, n: NodeId) -> &NodeKind {
        self.0.kind(n)
    }
    fn cmp_order(&self, a: NodeId, b: NodeId) -> std::cmp::Ordering {
        self.0.cmp_order(a, b)
    }
    fn string_value(&self, n: NodeId) -> String {
        self.0.string_value(n)
    }
    fn attribute(&self, n: NodeId, name: &str) -> Option<String> {
        self.0.attribute(n, name)
    }
    fn attributes(&self, n: NodeId) -> Vec<(String, String)> {
        self.0.attributes(n)
    }
    fn descendants_named(&self, scope: Option<NodeId>, name: &str) -> Option<Vec<NodeId>> {
        self.0.descendants_named(scope, name)
    }
}

/// Child steps beyond each scenario's benchmark queries: `text()` tests,
/// position-free predicates, mixed-type context sets (`//*`), an absolute
/// first step from the document node, and positional predicates, also
/// number-valued ones such as `[1+0]` (which keep the per-context path on
/// both sides). `//node()/…` is left out:
/// under `deep_invert` a title sits below every author of its book, and
/// `v_cmp` is then cyclic on the all-types set `//node()` yields, so the
/// sort of that (unbatched) first step can panic.
const EXTRA: &[&str] = &[
    "//title/text()",
    "//name/text()",
    "//author/name/text()",
    "//title[author]/author/name",
    "//book/author[name]/name",
    "//title/author[count(name) = 1]/name",
    "//title[contains(text(), 'RARE')]/author",
    "//name[author]/author/title/text()",
    "//location/title[text() != '']",
    "//book/publisher/location/text()",
    "//*/name",
    "//*/title/text()",
    "/title/author",
    "/*/author/name",
    "//title/author[1]/name",
    "//book/author[last()]",
    "//book/author[1+0]",
    "//title/author[count(name)]",
    "//author/name[string-length(text()) > 0]",
];

fn paths_for(spec_name: &str) -> Vec<String> {
    let scenario = book_scenarios()
        .into_iter()
        .find(|s| s.name == spec_name)
        .expect("known scenario");
    book_queries(&scenario)
        .iter()
        .map(|q| q.xpath.to_string())
        .chain(EXTRA.iter().map(|p| p.to_string()))
        .collect()
}

/// The option sets every comparison runs under.
fn option_sets() -> Vec<ExecOptions> {
    [1, 2, 8]
        .into_iter()
        .map(|threads| ExecOptions {
            threads,
            cache: true,
            par_threshold: 1,
        })
        .collect()
}

/// Asserts batched == per-context for every path and for a
/// duplicate-laden mixed-type variable binding on one opened view.
fn check_view(vd: &VirtualDocument<'_>, paths: &[String], ctx: &str) {
    let batched = VirtualDoc::new(vd);
    let oracle = PerContext(VirtualDoc::new(vd));
    for p in paths {
        let path = parse_xpath(p).unwrap_or_else(|e| panic!("{p}: {e}"));
        assert_eq!(
            eval_xpath(&batched, &path).map_err(|e| e.to_string()),
            eval_xpath(&oracle, &path).map_err(|e| e.to_string()),
            "{ctx}: {p}"
        );
    }

    // `$v/step` with `$v` bound to every visible node, in reverse virtual
    // order and with duplicates: contexts of many types, unsorted.
    let all = vd.preorder();
    let mut bound: Vec<NodeId> = all.iter().rev().copied().collect();
    bound.extend(all.iter().step_by(3).copied());
    let resolver = |_: &str| Some(bound.clone());
    for p in [
        "$v/name",
        "$v/author",
        "$v/title",
        "$v/text()",
        "$v/author[name]",
    ] {
        let path = parse_xpath(p).unwrap_or_else(|e| panic!("{p}: {e}"));
        let run = |d: &dyn QueryDoc| match eval_xpath_with_vars(d, &path, None, &resolver) {
            Ok(XValue::Nodes(ns)) => ns,
            other => panic!("{ctx}: {p} gave {other:?}"),
        };
        assert_eq!(
            run(&batched),
            run(&oracle),
            "{ctx}: {p} over mixed contexts"
        );
    }
}

/// Opens `spec` over `td` under every option set and checks it.
fn check_document(td: &TypedDocument, label: &str) {
    for s in book_scenarios() {
        let paths = paths_for(s.name);
        for opts in option_sets() {
            let mut vd = VirtualDocument::open(td, s.spec).expect("scenario compiles");
            vd.set_exec(opts);
            let ctx = format!("{label} {} threads={}", s.name, opts.threads);
            check_view(&vd, &paths, &ctx);
        }
    }
}

#[test]
fn batched_child_steps_match_the_per_context_oracle_on_books() {
    let td = TypedDocument::analyze(generate_books(
        "books.xml",
        &BooksConfig {
            books: 14,
            max_authors: 3,
            rare_fraction: 0.25,
            seed: 5,
        },
    ));
    check_document(&td, "books");
}

#[test]
fn batched_child_steps_match_the_per_context_oracle_on_figure2() {
    let td = TypedDocument::analyze(paper_figure2());
    check_document(&td, "figure2");
}

/// An engine over a small corpus with every scenario's view warm, after
/// edits that mint keys (repeated front inserts), move and delete.
fn edited_engine() -> Engine {
    let base = generate_books(
        URI,
        &BooksConfig {
            books: 6,
            max_authors: 3,
            rare_fraction: 0.3,
            seed: 9,
        },
    );
    let mut engine = Engine::new();
    engine
        .register_xml(URI, &serialize(&base, SerializeOptions::compact()))
        .expect("base registers");
    // Warm every scenario's view so the edits route through the cache.
    for s in book_scenarios() {
        engine.virtual_doc(URI, s.spec).expect("view opens");
    }
    let uri = URI.to_string();
    let mut edits: Vec<Edit> = (0..8)
        .map(|k| Edit::InsertSubtree {
            uri: uri.clone(),
            parent: "1".into(),
            pos: 0,
            xml: format!(
                "<book><title>T{k}</title><author><name>N{k}</name></author>\
                 <author><name>M{k}</name></author>\
                 <publisher><location>L{k}</location></publisher></book>"
            ),
        })
        .collect();
    edits.push(Edit::InsertSubtree {
        uri: uri.clone(),
        parent: "1.3".into(),
        pos: 0,
        xml: "<author><name>Z</name></author>".into(),
    });
    edits.push(Edit::MoveSubtree {
        uri: uri.clone(),
        target: "1.10".into(),
        parent: "1".into(),
        pos: 0,
    });
    edits.push(Edit::DeleteSubtree {
        uri,
        target: "1.4".into(),
    });
    for e in edits {
        engine.apply(e).expect("edit applies");
    }
    engine
}

/// The engine's warm views still answer batched == per-context after the
/// edits of [`edited_engine`].
#[test]
fn batched_child_steps_match_the_per_context_oracle_after_edits() {
    let mut engine = edited_engine();
    for s in book_scenarios() {
        let paths = paths_for(s.name);
        for opts in option_sets() {
            engine.set_exec_options(opts);
            let vd = engine.virtual_doc(URI, s.spec).expect("view opens");
            let ctx = format!("edited {} threads={}", s.name, opts.threads);
            check_view(&vd, &paths, &ctx);
        }
    }
}

/// A physical document with none of the arena hooks: the evaluator walks
/// the tree for descendants and `//name`, runs child steps per context,
/// and orders nodes by comparing their encoded keys.
struct TreeWalk<'a>(&'a TypedDocument);

impl QueryDoc for TreeWalk<'_> {
    fn roots(&self) -> Vec<NodeId> {
        self.0.doc().root().into_iter().collect()
    }
    fn children(&self, n: NodeId) -> Vec<NodeId> {
        self.0.doc().children(n).to_vec()
    }
    fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.0.doc().parent(n)
    }
    fn kind(&self, n: NodeId) -> &NodeKind {
        self.0.doc().kind(n)
    }
    fn cmp_order(&self, a: NodeId, b: NodeId) -> std::cmp::Ordering {
        keys::cmp(self.0.pbn().key_of(a), self.0.pbn().key_of(b))
    }
    fn string_value(&self, n: NodeId) -> String {
        self.0.doc().string_value(n)
    }
    fn attribute(&self, n: NodeId, name: &str) -> Option<String> {
        self.0.doc().attribute(n, name).map(str::to_owned)
    }
    fn attributes(&self, n: NodeId) -> Vec<(String, String)> {
        let attrs = self.0.doc().attributes(n).iter();
        attrs.map(|a| (a.name.clone(), a.value.clone())).collect()
    }
}

/// Physical paths: the repository benchmark's physical twins of the
/// scenario queries first, then `text()` and `node()` tests, mixed-type
/// contexts, positional predicates, scoped `//` steps (a book is never
/// its own descendant) and the document-order axes.
const PHYSICAL: &[&str] = &[
    "//book/title",
    "//book[contains(title, 'RARE')]/author",
    "//book/author",
    "//book[contains(title, 'RARE')]/author/name",
    "//book/publisher/location",
    "//book/author/name",
    "//book/title/text()",
    "//*/author",
    "//node()",
    "//text()",
    "/data/book[author]/title",
    "//book/author[1]/name",
    "//book/author[1+0]",
    "//name/preceding::title",
    "//author/following-sibling::*",
    "//book//name",
    "//book//book",
    "/data//title/text()",
];

/// Asserts arena hooks == tree walk on every physical path, and on child
/// steps from a variable bound to every node in reverse document order
/// with duplicates (nested, unsorted, repeated contexts).
fn check_physical(td: &TypedDocument, ctx: &str) {
    let fast = PhysicalDoc::new(td);
    let oracle = TreeWalk(td);
    assert!(
        fast.descendants_named(None, "book").is_some(),
        "{ctx}: the numbering is drained, so the arena answers"
    );
    for p in PHYSICAL {
        let path = parse_xpath(p).unwrap_or_else(|e| panic!("{p}: {e}"));
        assert_eq!(
            eval_xpath(&fast, &path).map_err(|e| e.to_string()),
            eval_xpath(&oracle, &path).map_err(|e| e.to_string()),
            "{ctx}: {p}"
        );
    }
    let all: Vec<NodeId> = td.doc().preorder().collect();
    let mut bound: Vec<NodeId> = all.iter().rev().copied().collect();
    bound.extend(all.iter().step_by(3).copied());
    let resolver = |_: &str| Some(bound.clone());
    for p in ["$v/name", "$v/author", "$v/text()", "$v//name"] {
        let path = parse_xpath(p).unwrap_or_else(|e| panic!("{p}: {e}"));
        let run = |d: &dyn QueryDoc| match eval_xpath_with_vars(d, &path, None, &resolver) {
            Ok(XValue::Nodes(ns)) => ns,
            other => panic!("{ctx}: {p} gave {other:?}"),
        };
        assert_eq!(run(&fast), run(&oracle), "{ctx}: {p} over mixed contexts");
    }
}

#[test]
fn physical_arena_steps_match_the_tree_walk_on_books() {
    let td = TypedDocument::analyze(generate_books(
        "books.xml",
        &BooksConfig {
            books: 14,
            max_authors: 3,
            rare_fraction: 0.25,
            seed: 5,
        },
    ));
    check_physical(&td, "books");
}

#[test]
fn physical_arena_steps_match_the_tree_walk_on_figure2() {
    check_physical(&TypedDocument::analyze(paper_figure2()), "figure2");
}

#[test]
fn physical_arena_steps_match_the_tree_walk_after_edits() {
    let engine = edited_engine();
    let td = engine.document(URI).expect("corpus registered");
    check_physical(td, "edited");
}
