//! The virtual joins over a view's cached order column against their
//! oracles.
//!
//! `VirtualDocument::order_column` ranks every placement of the view's
//! preorder walk — a node once under each parent that places it — and
//! records the last rank inside each placement's subtree; the structural
//! and twig joins then compare ranks and test containment as interval
//! nesting, and project placements back to nodes. The oracles are the
//! nested-loop join with `v_ancestor` and the naive twig enumeration over
//! the closure source, restricted to the nodes the walk reaches, and on
//! views that place each node once also the closure twins, which call
//! `v_cmp` and `v_ancestor` for every test
//! (`virtual_structural_join_closure`, `VirtualTwigSource::with_closures`).

#![allow(clippy::expect_used, clippy::panic)]

use std::cmp::Ordering;
use std::collections::HashSet;
use vpbn_suite::core::axes::v_ancestor;
use vpbn_suite::core::order::{v_cmp, OrderColumn};
use vpbn_suite::core::vdg::VTypeId;
use vpbn_suite::core::{ExecOptions, VirtualDocument};
use vpbn_suite::dataguide::TypedDocument;
use vpbn_suite::obs::{SjoinCounters, TwigCounters};
use vpbn_suite::query::api::{Edit, Engine};
use vpbn_suite::query::sjoin::{
    nested_loop_join, virtual_structural_join, virtual_structural_join_closure,
    virtual_structural_join_counted,
};
use vpbn_suite::query::twig::{
    twig_join, twig_join_counted, twig_join_naive, twig_join_opts, TwigMatch, TwigPattern,
    VirtualTwigSource,
};
use vpbn_suite::workload::{
    book_scenarios, generate_books, generate_xmark, xmark_scenarios, BooksConfig, XmarkConfig,
};
use vpbn_suite::xml::builder::paper_figure2;
use vpbn_suite::xml::serialize::serialize_node;
use vpbn_suite::xml::{serialize, Document, NodeId, SerializeOptions};

#[allow(dead_code)]
mod common;
use common::dotted_path;

/// The document URI of the edited engine.
use common::URI;

/// Views that place a title under every author of its book.
const MULTIPLICITY: [&str; 2] = ["name { author { title } }", "author { title }"];

fn books(books: usize, max_authors: usize, seed: u64) -> TypedDocument {
    TypedDocument::analyze(generate_books(
        "books.xml",
        &BooksConfig {
            books,
            max_authors,
            rare_fraction: 0.25,
            seed,
        },
    ))
}

fn xmark() -> TypedDocument {
    TypedDocument::analyze(generate_xmark(
        "auction.xml",
        &XmarkConfig {
            scale: 0.01,
            seed: 5,
        },
    ))
}

fn threads(threads: usize) -> ExecOptions {
    ExecOptions {
        threads,
        cache: true,
        par_threshold: 1,
    }
}

fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort();
    v.dedup();
    v
}

fn vpbn_cmp(vd: &VirtualDocument<'_>, a: NodeId, b: NodeId) -> Ordering {
    v_cmp(
        vd.vdg(),
        &vd.vpbn_of(a).expect("visible"),
        &vd.vpbn_of(b).expect("visible"),
    )
}

fn vpbn_contains(vd: &VirtualDocument<'_>, a: NodeId, d: NodeId) -> bool {
    v_ancestor(
        vd.vdg(),
        &vd.vpbn_of(a).expect("visible"),
        &vd.vpbn_of(d).expect("visible"),
    )
}

/// The column ranks the view's placements exactly like its preorder walk,
/// repeats included, ranks each node at its first placement, and leaves
/// unplaced nodes unranked. Without repeated placements it also orders
/// exactly like `v_cmp` and nests exactly like `v_ancestor` on every pair
/// of placed nodes (every third node on larger views).
fn check_column(vd: &VirtualDocument<'_>, col: &OrderColumn, ctx: &str) {
    let visible: Vec<NodeId> = vd
        .vdg()
        .guide()
        .type_ids()
        .flat_map(|vt| vd.nodes_of_vtype(vt).iter().copied())
        .collect();
    let walk = vd.preorder();
    assert_eq!(col.len(), walk.len(), "{ctx}: one rank per placement");
    let mut placements = col.placements(&visible).into_owned();
    placements.sort_by_key(|&p| col.rank(p));
    let projected: Vec<NodeId> = placements.iter().map(|&p| col.node(p)).collect();
    assert_eq!(projected, walk, "{ctx}: rank order is the preorder walk");
    for (r, &p) in placements.iter().enumerate() {
        assert_eq!(col.rank(p), r as u32, "{ctx}: ranks are dense");
        assert!(
            col.rank(p) <= col.end(p) && (col.end(p) as usize) < walk.len(),
            "{ctx}: an interval holds its placement"
        );
    }
    let mut placed: Vec<NodeId> = Vec::new();
    let mut seen = HashSet::new();
    for (r, &n) in walk.iter().enumerate() {
        if seen.insert(n) {
            assert_eq!(col.rank(n), r as u32, "{ctx}: a node ranks first");
            placed.push(n);
        }
    }
    for &n in visible.iter().filter(|n| !seen.contains(n)) {
        assert_eq!(col.rank(n), u32::MAX, "{ctx}: unplaced {n:?}");
    }
    assert_eq!(
        col.places_each_once(),
        placed.len() == walk.len() && placed.len() == visible.len(),
        "{ctx}: once-ness"
    );
    if placed.len() != walk.len() {
        return;
    }
    let step = if placed.len() > 400 { 3 } else { 1 };
    let sample: Vec<NodeId> = placed.iter().step_by(step).copied().collect();
    for &a in &sample {
        for &b in &sample {
            assert_eq!(
                col.cmp(a, b),
                vpbn_cmp(vd, a, b),
                "{ctx}: order {a:?} {b:?}"
            );
            assert_eq!(
                col.contains(a, b),
                vpbn_contains(vd, a, b),
                "{ctx}: containment {a:?} {b:?}"
            );
        }
    }
}

/// Every (ancestor type, descendant type) pair of the view's guide.
fn type_pairs(vd: &VirtualDocument<'_>) -> Vec<(VTypeId, VTypeId)> {
    let g = vd.vdg().guide();
    g.type_ids()
        .flat_map(|a| {
            g.type_ids()
                .filter(move |&d| g.is_ancestor(a, d))
                .map(move |d| (a, d))
        })
        .collect()
}

/// Twig patterns over the view's element types: every element alone,
/// every parent–child chain of two and three, and every element with two
/// element children.
fn patterns(vd: &VirtualDocument<'_>) -> Vec<TwigPattern> {
    let g = vd.vdg().guide();
    let elements = |vt: VTypeId| {
        g.ty(vt)
            .children()
            .iter()
            .copied()
            .filter(|&c| !g.ty(c).is_text())
            .collect::<Vec<_>>()
    };
    let mut out = Vec::new();
    for t in g.type_ids().filter(|&t| !g.ty(t).is_text()) {
        let kids = elements(t);
        out.push(g.name(t).to_owned());
        for &c in &kids {
            out.push(format!("{}({})", g.name(t), g.name(c)));
            for &gc in &elements(c) {
                out.push(format!("{}({}({}))", g.name(t), g.name(c), g.name(gc)));
            }
        }
        if let [c1, c2, ..] = kids[..] {
            out.push(format!("{}({}, {})", g.name(t), g.name(c1), g.name(c2)));
        }
    }
    out.iter()
        .map(|p| TwigPattern::parse(p).unwrap_or_else(|e| panic!("{p}: {e}")))
        .collect()
}

/// Joins over one view at 1/2/8 threads against the oracles, restricted
/// to the nodes the view places: the structural join equals the
/// nested-loop join with `v_ancestor` and the twig join equals the naive
/// enumeration over the closure source, each without duplicates. On a
/// view that places each node once both also equal their closure twins
/// exactly. Returns whether the view places each node once.
fn check_joins(td: &TypedDocument, spec: &str, ctx: &str) -> bool {
    let base = VirtualDocument::open(td, spec).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    assert!(
        !base.type_index().order_checked(),
        "{ctx}: opening builds no column"
    );
    let col = base.order_column();
    assert!(
        base.type_index().order_checked(),
        "{ctx}: the first ask caches"
    );
    assert!(!col.is_empty(), "{ctx}: the view places nodes");
    check_column(&base, col, ctx);
    let once = col.places_each_once();
    let placed: HashSet<NodeId> = base.preorder().into_iter().collect();
    let only_placed = |ns: &[NodeId]| -> Vec<NodeId> {
        ns.iter().copied().filter(|n| placed.contains(n)).collect()
    };
    let pairs = type_pairs(&base);
    let patterns = patterns(&base);
    for t in [1, 2, 8] {
        let mut vd = VirtualDocument::open(td, spec).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        vd.set_exec(threads(t));
        let ctx = format!("{ctx} threads={t}");
        for &(at, dt) in &pairs {
            // One virtual type's list is already in virtual document order.
            let (anc, desc) = (vd.nodes_of_vtype(at), vd.nodes_of_vtype(dt));
            let fast = virtual_structural_join(&vd, anc, desc);
            let counters = SjoinCounters::default();
            let counted = virtual_structural_join_counted(&vd, anc, desc, &counters);
            assert_eq!(counted, fast, "{ctx}: counted sjoin {at:?}//{dt:?}");
            let c = counters.snapshot();
            assert_eq!(c.pairs, counted.len() as u64, "{ctx}: {at:?}//{dt:?} pairs");
            let (anc_p, desc_p) = (only_placed(anc), only_placed(desc));
            if !anc_p.is_empty() && !desc_p.is_empty() {
                assert!(
                    c.comparisons > 0,
                    "{ctx}: counted sjoin {at:?}//{dt:?} tallies its comparisons: {c:?}"
                );
            }
            if once {
                let twin = virtual_structural_join_closure(&vd, anc, desc);
                assert_eq!(fast, twin, "{ctx}: sjoin {at:?}//{dt:?} vs closure twin");
            }
            let nested = sorted(nested_loop_join(&anc_p, &desc_p, &|a, d| {
                vpbn_contains(&vd, a, d)
            }));
            let mut fast = fast;
            fast.sort();
            assert_eq!(fast, nested, "{ctx}: sjoin {at:?}//{dt:?} vs nested loop");
        }
        let src = VirtualTwigSource::new(&vd);
        let twin_src = VirtualTwigSource::with_closures(&vd);
        for p in &patterns {
            let fast: Vec<TwigMatch> = twig_join(&src, p);
            assert_eq!(
                twig_join_opts(&src, p, &vd.exec()),
                fast,
                "{ctx}: parallel twig {p:?}"
            );
            let counters = TwigCounters::default();
            let counted = twig_join_counted(&src, p, &vd.exec(), &counters);
            assert_eq!(counted, fast, "{ctx}: counted twig {p:?}");
            let c = counters.snapshot();
            assert_eq!(c.matches, counted.len() as u64, "{ctx}: twig {p:?} matches");
            let branches = p.nodes().iter().any(|n| !n.children.is_empty());
            if branches && !counted.is_empty() {
                assert!(c.seeks > 0, "{ctx}: twig {p:?} counted its seeks: {c:?}");
            }
            if once {
                let twin = twig_join(&twin_src, p);
                assert_eq!(fast, twin, "{ctx}: twig {p:?} vs closure twin");
            }
            let naive: Vec<TwigMatch> = sorted(twig_join_naive(&twin_src, p))
                .into_iter()
                .filter(|m| m.iter().all(|n| placed.contains(n)))
                .collect();
            let mut fast = fast;
            fast.sort();
            assert_eq!(fast, naive, "{ctx}: twig {p:?} vs naive");
        }
    }
    once
}

#[test]
fn column_joins_match_the_oracles_on_the_book_scenarios() {
    // One author per book: every scenario, `deep_invert` included,
    // places each node once.
    let single = books(14, 1, 5);
    for s in book_scenarios() {
        let ctx = format!("books(1 author) {}", s.name);
        assert!(check_joins(&single, s.spec, &ctx), "{ctx}: places once");
    }
    // Several authors: `deep_invert` places a title under each author of
    // its book; the other views place each node once.
    let multi = books(14, 3, 5);
    for s in book_scenarios() {
        let ctx = format!("books(3 authors) {}", s.name);
        assert_eq!(
            check_joins(&multi, s.spec, &ctx),
            !MULTIPLICITY.contains(&s.spec),
            "{ctx}: places once iff no multiplicity"
        );
    }
}

#[test]
fn column_joins_match_the_oracles_on_figure2_and_xmark() {
    let fig2 = TypedDocument::analyze(paper_figure2());
    for s in book_scenarios() {
        let ctx = format!("figure2 {}", s.name);
        assert!(check_joins(&fig2, s.spec, &ctx), "{ctx}: places once");
    }
    // Every XMark view gets a column; `person_city` leaves the persons
    // without a city unplaced.
    let x = xmark();
    for s in xmark_scenarios() {
        let ctx = format!("xmark {}", s.name);
        let once = check_joins(&x, s.spec, &ctx);
        assert_eq!(once, s.name != "person_city", "{ctx}: places once");
    }
}

#[test]
fn join_multiplicity_views_get_a_column_and_exact_joins() {
    // Each corpus has a book with several authors, so both views place
    // its title more than once: the column ranks every placement, and
    // the joins answer exactly what the nested-loop and naive oracles do.
    for seed in 1..=8 {
        for n in [3, 14, 40] {
            let td = books(n, 3, seed);
            for spec in MULTIPLICITY {
                let ctx = format!("seed {seed} books {n} {spec}");
                assert!(!check_joins(&td, spec, &ctx), "{ctx}: repeats a title");
            }
        }
    }
}

/// One step of an edit script, concretized against the current
/// document (`None` when the document offers no place for it).
type EditStep = fn(&Document) -> Option<Edit>;

/// The repeated records of a corpus: the root's children, or XMark's
/// persons.
fn records(doc: &Document) -> (NodeId, Vec<NodeId>) {
    let root = doc.root().expect("corpus has a root");
    let people = doc
        .children(root)
        .iter()
        .copied()
        .find(|&c| doc.name(c) == Some("people"));
    let parent = people.unwrap_or(root);
    (parent, doc.children(parent).to_vec())
}

/// The first node named `name` at or below `scope`, in document order.
fn first_named(doc: &Document, scope: NodeId, name: &str) -> Option<NodeId> {
    doc.descendants_or_self(scope)
        .find(|&n| doc.name(n) == Some(name))
}

/// A copy of the first record inserted in front of all of them.
fn front_insert(doc: &Document) -> Option<Edit> {
    let (parent, recs) = records(doc);
    Some(Edit::InsertSubtree {
        uri: URI.into(),
        parent: dotted_path(doc, parent),
        pos: 0,
        xml: serialize_node(doc, *recs.first()?, SerializeOptions::compact()),
    })
}

/// A nested node inserted into the third record: an author into a
/// book, an e-mail address into an XMark person.
fn nested_insert(doc: &Document) -> Option<Edit> {
    let (_, recs) = records(doc);
    let rec = *recs.get(2)?;
    let xml = match doc.name(rec)? {
        "person" => "<emailaddress>mailto:z@example.org</emailaddress>",
        _ => "<author><name>Z</name></author>",
    };
    Some(Edit::InsertSubtree {
        uri: URI.into(),
        parent: dotted_path(doc, rec),
        pos: 1,
        xml: xml.into(),
    })
}

/// The last record moved to the second position.
fn move_record(doc: &Document) -> Option<Edit> {
    let (parent, recs) = records(doc);
    Some(Edit::MoveSubtree {
        uri: URI.into(),
        target: dotted_path(doc, *recs.last()?),
        parent: dotted_path(doc, parent),
        pos: 1,
    })
}

/// The third record deleted.
fn delete_record(doc: &Document) -> Option<Edit> {
    let (_, recs) = records(doc);
    Some(Edit::DeleteSubtree {
        uri: URI.into(),
        target: dotted_path(doc, *recs.get(2)?),
    })
}

/// A move that changes a node's guide type: a book title's text under
/// an author's name (`title/#text` becomes `name/#text`). On XMark, a
/// person's address is handed to a person without one, after its other
/// children as the DTD orders them: that city changes persons, and the
/// first person is no longer placed under `person_city`.
fn type_changing_move(doc: &Document) -> Option<Edit> {
    retype(doc, false)
}

/// [`type_changing_move`], with XMark's address moved in front of the
/// person's other children.
fn front_type_changing_move(doc: &Document) -> Option<Edit> {
    retype(doc, true)
}

fn retype(doc: &Document, front: bool) -> Option<Edit> {
    let (_, recs) = records(doc);
    let (target, dest, pos) = if doc.name(recs[0]) == Some("person") {
        let has = |p: &NodeId| first_named(doc, *p, "address").is_some();
        let from = recs.iter().find(|p| has(p))?;
        let to = *recs.iter().find(|p| !has(p))?;
        let address = first_named(doc, *from, "address")?;
        (address, to, if front { 0 } else { doc.children(to).len() })
    } else {
        let text = recs.iter().find_map(|&b| {
            let title = first_named(doc, b, "title")?;
            doc.children(title).first().copied()
        })?;
        let name = recs.iter().find_map(|&b| first_named(doc, b, "name"))?;
        (text, name, 0)
    };
    Some(Edit::MoveSubtree {
        uri: URI.into(),
        target: dotted_path(doc, target),
        parent: dotted_path(doc, dest),
        pos,
    })
}

/// After each step of a front-insert storm, a nested insert, a record
/// move, a record delete and a type-changing move, every view's
/// catch-up has dropped its column, and the column the next join builds
/// over the maintained index equals a fresh build over the edited
/// document. Half the views ask for their column on every step, the
/// other half every third step, so several catch-ups maintain the index
/// before a join reads it.
#[test]
fn cleared_columns_rebuild_to_a_fresh_build_after_edits() {
    let books = generate_books(
        URI,
        &BooksConfig {
            books: 6,
            max_authors: 3,
            rare_fraction: 0.3,
            seed: 9,
        },
    );
    // Each spec once: a second open in the same step would find the view
    // already caught up.
    let mut seen = HashSet::new();
    let book_specs: Vec<&str> = book_scenarios()
        .iter()
        .map(|s| s.spec)
        .chain(MULTIPLICITY)
        .filter(|&spec| seen.insert(spec))
        .collect();
    let xmark_specs: Vec<&str> = xmark_scenarios().iter().map(|s| s.spec).collect();
    let corpora = [
        ("books", books, &book_specs),
        ("figure2", paper_figure2(), &book_specs),
        ("xmark", xmark().doc().clone(), &xmark_specs),
    ];
    let script: Vec<EditStep> = [front_insert as EditStep; 6]
        .into_iter()
        .chain([
            nested_insert as EditStep,
            move_record,
            delete_record,
            type_changing_move,
            front_insert,
        ])
        .collect();
    for (label, doc, specs) in corpora {
        let mut engine = Engine::new();
        engine
            .register_xml(URI, &serialize(&doc, SerializeOptions::compact()))
            .expect("corpus registers");
        for &spec in specs.iter() {
            engine
                .virtual_doc(URI, spec)
                .expect("view opens")
                .order_column();
        }
        let step_and_compare =
            |engine: &mut Engine, i: usize, step: &EditStep, ask: &dyn Fn(usize) -> bool| {
                let edit = step(engine.document(URI).expect("registered").doc())
                    .unwrap_or_else(|| panic!("{label}: step {i} has a target"));
                engine.apply(edit).expect("edit applies");
                for (v, &spec) in specs.iter().enumerate() {
                    let ctx = format!("{label} step {i} {spec}");
                    let vd = engine.virtual_doc(URI, spec).expect("view opens");
                    assert!(
                        !vd.type_index().order_checked(),
                        "{ctx}: the catch-up dropped the column"
                    );
                    if !ask(v) {
                        // Caught up, but the column is not asked this time.
                        continue;
                    }
                    let td = engine.document(URI).expect("registered");
                    let fresh = VirtualDocument::open(td, spec).expect("view opens");
                    assert_eq!(vd.order_column(), fresh.order_column(), "{ctx}");
                    assert!(vd.type_index().order_checked(), "{ctx}: column cached");
                }
            };
        for (i, step) in script.iter().enumerate() {
            step_and_compare(&mut engine, i, step, &|v| v % 2 == 0 || i % 3 == 2);
        }
        let td = engine.document(URI).expect("registered");
        for &spec in specs.iter() {
            check_joins(td, spec, &format!("edited {label} {spec}"));
        }
        // On XMark this move puts a city in front of its new person's
        // other children, where `v_cmp` disagrees with the placement walk
        // (see CHANGES.md), so `check_joins` does not run after it; the
        // column comparison does not call `v_cmp` outside the walk.
        step_and_compare(
            &mut engine,
            script.len(),
            &(front_type_changing_move as EditStep),
            &|_| true,
        );
    }
}
