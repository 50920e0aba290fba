//! The materialization oracle: the virtual machinery (level arrays +
//! virtual predicates + virtual navigation + virtual values) must agree
//! with physically materializing the transformation and using plain PBN —
//! across corpora and scenarios.
//!
//! `vh_core::transform::materialize` places nodes by the instance-level
//! least-common-ancestor rule without touching level arrays, so agreement
//! here genuinely validates Algorithm 1 and the §5 predicates (Theorem 1).

use vpbn_suite::core::transform::materialize;
use vpbn_suite::core::value::virtual_value;
use vpbn_suite::core::{axes, VDataGuide, VirtualDocument};
use vpbn_suite::dataguide::TypedDocument;
use vpbn_suite::pbn::axes as phys_axes;
use vpbn_suite::query::doc::{PhysicalDoc, VirtualDoc};
use vpbn_suite::query::xpath::{eval_xpath, parse_xpath};
use vpbn_suite::workload::queries::book_queries;
use vpbn_suite::workload::{
    book_scenarios, generate_books, generate_xmark, xmark_scenarios, BooksConfig, Scenario,
    XmarkConfig,
};
use vpbn_suite::xml::{serialize, NodeId, NodeKind, SerializeOptions};

fn corpora() -> Vec<(TypedDocument, Vec<Scenario>)> {
    vec![
        (
            TypedDocument::analyze(generate_books(
                "books.xml",
                &BooksConfig {
                    books: 12,
                    max_authors: 3,
                    rare_fraction: 0.25,
                    seed: 5,
                },
            )),
            book_scenarios(),
        ),
        (
            TypedDocument::analyze(generate_xmark(
                "xmark.xml",
                &XmarkConfig {
                    scale: 0.01,
                    seed: 5,
                },
            )),
            xmark_scenarios(),
        ),
    ]
}

/// Virtual preorder of the virtual document == preorder of the
/// materialized instance (matched through the source map).
#[test]
fn virtual_preorder_matches_materialized_preorder() {
    for (td, scenarios) in corpora() {
        for s in scenarios {
            let vd = VirtualDocument::open(&td, s.spec).unwrap();
            let vdg = VDataGuide::compile(s.spec, td.guide()).unwrap();
            let mat = materialize(&td, &vdg);

            // Materialized preorder, skipping the synthetic root, mapped
            // back to source nodes.
            let mroot = mat.doc.root().unwrap();
            let mat_sources: Vec<NodeId> = mat
                .doc
                .descendants_or_self(mroot)
                .skip(1)
                .map(|m| mat.source_of[m.index()].expect("copied node has a source"))
                .collect();
            let virt = vd.preorder();
            assert_eq!(
                virt,
                mat_sources,
                "corpus {} scenario {}",
                td.doc().uri(),
                s.name
            );
        }
    }
}

/// Virtual parent/children navigation == materialized tree structure.
#[test]
fn virtual_navigation_matches_materialized_structure() {
    for (td, scenarios) in corpora() {
        for s in scenarios {
            let vd = VirtualDocument::open(&td, s.spec).unwrap();
            let vdg = VDataGuide::compile(s.spec, td.guide()).unwrap();
            let mat = materialize(&td, &vdg);
            let mroot = mat.doc.root().unwrap();
            for m in mat.doc.descendants_or_self(mroot).skip(1) {
                let src = mat.source_of[m.index()].unwrap();
                // children
                let mat_child_sources: Vec<NodeId> = mat
                    .doc
                    .children(m)
                    .iter()
                    .map(|&c| mat.source_of[c.index()].unwrap())
                    .collect();
                assert_eq!(
                    vd.children(src),
                    mat_child_sources,
                    "children of {src:?} in scenario {}",
                    s.name
                );
                // parent — under join multiplicity (one source node placed
                // beneath several parent instances) `VirtualDocument::parent`
                // returns the first parent in virtual document order, so the
                // oracle checks *membership* among the copies' parents and
                // exact equality when the source has a single copy.
                let mat_parent_source = mat
                    .doc
                    .parent(m)
                    .filter(|&p| p != mroot)
                    .map(|p| mat.source_of[p.index()].unwrap());
                let copies = mat.source_of.iter().filter(|&&x| x == Some(src)).count();
                if copies == 1 {
                    assert_eq!(
                        vd.parent(src),
                        mat_parent_source,
                        "parent of {src:?} in scenario {}",
                        s.name
                    );
                } else if let Some(vp) = vd.parent(src) {
                    // One of the copies must sit under the chosen parent.
                    let ok = mat
                        .doc
                        .descendants_or_self(mroot)
                        .skip(1)
                        .filter(|&c| mat.source_of[c.index()] == Some(src))
                        .any(|c| {
                            mat.doc
                                .parent(c)
                                .map(|p| mat.source_of[p.index()] == Some(vp))
                                .unwrap_or(false)
                        });
                    assert!(ok, "parent of duplicated {src:?} in scenario {}", s.name);
                }
            }
        }
    }
}

/// Theorem 1 and friends: every virtual predicate on source-node pairs
/// equals the corresponding *physical* PBN predicate evaluated on the
/// materialized instance.
#[test]
fn virtual_predicates_match_physical_predicates_on_materialized() {
    for (td, scenarios) in corpora() {
        for s in scenarios {
            let vd = VirtualDocument::open(&td, s.spec).unwrap();
            let vdg = VDataGuide::compile(s.spec, td.guide()).unwrap();
            let mat = materialize(&td, &vdg);
            let mat_td = TypedDocument::analyze(mat.doc.clone());
            let mroot = mat.doc.root().unwrap();

            // Source → all materialized copies. Join multiplicity (one
            // source placed under several parent instances) turns the
            // vertical predicates into "some copy pair nests"; the ordering
            // predicates are only well-defined for singly-placed nodes.
            let mut to_mat: std::collections::HashMap<NodeId, Vec<NodeId>> =
                std::collections::HashMap::new();
            for m in mat.doc.descendants_or_self(mroot).skip(1) {
                to_mat
                    .entry(mat.source_of[m.index()].unwrap())
                    .or_default()
                    .push(m);
            }
            // Sample a bounded set of pairs for the quadratic check.
            let sources: Vec<NodeId> = {
                let mut v: Vec<NodeId> = to_mat.keys().copied().collect();
                v.sort();
                v.truncate(60);
                v
            };
            let any_pair = |x: NodeId, y: NodeId, pred: &dyn Fn(&vpbn_suite::pbn::Pbn, &vpbn_suite::pbn::Pbn) -> bool| {
                to_mat[&x].iter().any(|&mx| {
                    to_mat[&y]
                        .iter()
                        .any(|&my| pred(&mat_td.pbn().pbn_of(mx), &mat_td.pbn().pbn_of(my)))
                })
            };
            for &x in &sources {
                for &y in &sources {
                    let (vx, vy) = (vd.vpbn_of(x).unwrap(), vd.vpbn_of(y).unwrap());
                    let ctx = format!("scenario {} x={x:?} y={y:?}", s.name);
                    assert_eq!(
                        axes::v_ancestor(vd.vdg(), &vx, &vy),
                        any_pair(x, y, &phys_axes::is_ancestor),
                        "vAncestor {ctx}"
                    );
                    assert_eq!(
                        axes::v_parent(vd.vdg(), &vx, &vy),
                        any_pair(x, y, &phys_axes::is_parent),
                        "vParent {ctx}"
                    );
                    assert_eq!(
                        axes::v_child(vd.vdg(), &vx, &vy),
                        any_pair(x, y, &phys_axes::is_child),
                        "vChild {ctx}"
                    );
                    assert_eq!(
                        axes::v_descendant(vd.vdg(), &vx, &vy),
                        any_pair(x, y, &phys_axes::is_descendant),
                        "vDescendant {ctx}"
                    );
                    if to_mat[&x].len() == 1 && to_mat[&y].len() == 1 {
                        let (mx, my) = (
                            &mat_td.pbn().pbn_of(to_mat[&x][0]),
                            &mat_td.pbn().pbn_of(to_mat[&y][0]),
                        );
                        assert_eq!(
                            axes::v_self(vd.vdg(), &vx, &vy),
                            phys_axes::is_self(mx, my),
                            "vSelf {ctx}"
                        );
                        assert_eq!(
                            axes::v_preceding(vd.vdg(), &vx, &vy),
                            phys_axes::is_preceding(mx, my),
                            "vPreceding {ctx}"
                        );
                        assert_eq!(
                            axes::v_following(vd.vdg(), &vx, &vy),
                            phys_axes::is_following(mx, my),
                            "vFollowing {ctx}"
                        );
                        assert_eq!(
                            axes::v_preceding_sibling(vd.vdg(), &vx, &vy),
                            phys_axes::is_preceding_sibling(mx, my),
                            "vPrecedingSibling {ctx}"
                        );
                        assert_eq!(
                            axes::v_following_sibling(vd.vdg(), &vx, &vy),
                            phys_axes::is_following_sibling(mx, my),
                            "vFollowingSibling {ctx}"
                        );
                    }
                }
            }
        }
    }
}

/// §6: virtual values equal the serialization of the materialized subtree.
#[test]
fn virtual_values_match_materialized_serialization() {
    for (td, scenarios) in corpora() {
        for s in scenarios {
            let vd = VirtualDocument::open(&td, s.spec).unwrap();
            let vdg = VDataGuide::compile(s.spec, td.guide()).unwrap();
            let mat = materialize(&td, &vdg);
            let mroot = mat.doc.root().unwrap();
            for m in mat.doc.descendants_or_self(mroot).skip(1) {
                let src = mat.source_of[m.index()].unwrap();
                // Only check element values (text values are trivial).
                if !matches!(mat.doc.kind(m), NodeKind::Element { .. }) {
                    continue;
                }
                let physical = serialize::serialize_node(&mat.doc, m, SerializeOptions::compact());
                let (virt, _) = virtual_value(&vd, &td, src).expect("in-memory stitch");
                assert_eq!(physical, virt, "value of {src:?} in scenario {}", s.name);
            }
        }
    }
}

/// Sibling ordinals (§5.1, computed dynamically) equal the materialized
/// sibling positions.
#[test]
fn sibling_ordinals_match_materialized_positions() {
    for (td, scenarios) in corpora() {
        for s in scenarios {
            let vd = VirtualDocument::open(&td, s.spec).unwrap();
            let vdg = VDataGuide::compile(s.spec, td.guide()).unwrap();
            let mat = materialize(&td, &vdg);
            let mroot = mat.doc.root().unwrap();
            for m in mat.doc.descendants_or_self(mroot).skip(1) {
                let src = mat.source_of[m.index()].unwrap();
                assert_eq!(
                    vd.sibling_ordinal(src),
                    Some(mat.doc.sibling_ordinal(m)),
                    "ordinal of {src:?} in scenario {}",
                    s.name
                );
            }
        }
    }
}

/// XPath over the virtual document == the same XPath over the
/// materialized instance. Besides each scenario's benchmark queries, every
/// parent/child pair of the view's guide contributes child steps with a
/// name test, a `text()` test and position-free predicates — the steps
/// the evaluator answers with one batched scan. Results are compared as
/// sets of source nodes, mapped back through the source map: join
/// multiplicity places one source node under several parents, so the
/// materialized answer can hold several copies of it. Only nodes the view
/// places below a virtual root are compared: materialization drops a node
/// with no matching parent instance, while the virtual `//name` index
/// path still returns it (and the child steps then reach its children).
#[test]
fn virtual_xpath_matches_xpath_over_the_materialized_instance() {
    for (td, scenarios) in corpora() {
        for s in scenarios {
            let vd = VirtualDocument::open(&td, s.spec).unwrap();
            let vdg = VDataGuide::compile(s.spec, td.guide()).unwrap();
            let mat = materialize(&td, &vdg);
            let mat_td = TypedDocument::analyze(mat.doc.clone());
            let (virt, phys) = (VirtualDoc::new(&vd), PhysicalDoc::new(&mat_td));
            let placed: std::collections::HashSet<NodeId> = vd.preorder().into_iter().collect();
            let guide = vd.vdg().guide();
            let mut paths: Vec<String> = book_queries(&s)
                .iter()
                .map(|q| q.xpath.to_string())
                .collect();
            for c in guide.type_ids() {
                let Some(p) = guide.ty(c).parent() else {
                    continue;
                };
                let (np, nc) = (guide.name(p), guide.name(c));
                if guide.ty(c).is_text() {
                    paths.push(format!("//{np}/text()"));
                    paths.push(format!("//{np}[text() != '']/text()"));
                } else if !nc.starts_with('#') {
                    paths.push(format!("//{np}/{nc}"));
                    paths.push(format!("//{np}[{nc}]/{nc}/text()"));
                    paths.push(format!("//{np}/{nc}[not(text())]"));
                }
            }
            for path in &paths {
                let parsed = parse_xpath(path).unwrap_or_else(|e| panic!("{path}: {e}"));
                let mut v = eval_xpath(&virt, &parsed).unwrap();
                v.retain(|n| placed.contains(n));
                v.sort();
                v.dedup();
                let mut m: Vec<NodeId> = eval_xpath(&phys, &parsed)
                    .unwrap()
                    .into_iter()
                    .map(|n| mat.source_of[n.index()].expect("copied node has a source"))
                    .collect();
                m.sort();
                m.dedup();
                assert_eq!(
                    v,
                    m,
                    "corpus {} scenario {}: {path}",
                    td.doc().uri(),
                    s.name
                );
            }
        }
    }
}

/// Cache invalidation: re-registering a mutated document under the same
/// URI must evict the stale compiled-view artifacts (vDataGuide
/// expansion, level-array map, prefix tables, node index), and the next
/// open must
/// agree with the materialization oracle on the *new* instance — a stale
/// level array would place nodes at the old document's positions.
#[test]
fn mutating_a_document_evicts_stale_view_artifacts() {
    use vpbn_suite::query::Engine;
    const SPEC: &str = "title { author { name } }";
    const URI: &str = "books.xml";

    let old_cfg = BooksConfig {
        books: 9,
        max_authors: 3,
        rare_fraction: 0.25,
        seed: 11,
    };
    // The mutation: more books, different shapes — every level array and
    // prefix table changes.
    let new_cfg = BooksConfig {
        books: 14,
        max_authors: 2,
        rare_fraction: 0.5,
        seed: 12,
    };

    let mut engine = Engine::new();
    engine.register(generate_books(URI, &old_cfg));

    // Cold open fills the cache; warm open hits every shard.
    let old_pre = engine.virtual_doc(URI, SPEC).unwrap().preorder();
    let cold = engine.snapshot().cache;
    assert_eq!(
        cold.total_misses(),
        4,
        "expansion + levels + tables + index miss"
    );
    assert_eq!(cold.total_hits(), 0);
    let _ = engine.virtual_doc(URI, SPEC).unwrap();
    let warm = engine.snapshot().cache;
    assert_eq!(warm.total_hits(), 4, "warm open hits all four caches");
    assert_eq!(warm.total_misses(), 4);

    // Mutate: same URI, new instance. Registration must invalidate.
    engine.register(generate_books(URI, &new_cfg));
    let after = engine.snapshot().cache;
    assert_eq!(
        after.total_invalidations(),
        4,
        "stale expansion, level map, prefix tables and node index are evicted"
    );

    // The next open recompiles (miss, not hit) ...
    let new_pre = engine.virtual_doc(URI, SPEC).unwrap().preorder();
    let refilled = engine.snapshot().cache;
    assert_eq!(refilled.total_misses(), 8, "recompiled after invalidation");
    assert_eq!(refilled.total_hits(), 4, "no stale hits served");
    assert_ne!(old_pre, new_pre, "the mutation changed the view");

    // ... and agrees with materializing the new instance from scratch.
    let td = TypedDocument::analyze(generate_books(URI, &new_cfg));
    let vdg = VDataGuide::compile(SPEC, td.guide()).unwrap();
    let mat = materialize(&td, &vdg);
    let mroot = mat.doc.root().unwrap();
    let oracle: Vec<NodeId> = mat
        .doc
        .descendants_or_self(mroot)
        .skip(1)
        .map(|m| mat.source_of[m.index()].unwrap())
        .collect();
    assert_eq!(new_pre, oracle, "post-mutation view matches the oracle");

    // Unrelated URIs are untouched by invalidation.
    engine.register(generate_books("other.xml", &old_cfg));
    let _ = engine.virtual_doc("other.xml", SPEC).unwrap();
    let with_other = engine.snapshot().cache;
    engine.register(generate_books(URI, &new_cfg));
    let stats = engine.snapshot().cache;
    assert_eq!(
        stats.total_invalidations(),
        with_other.total_invalidations() + 4,
        "only books.xml entries are evicted"
    );
    let other_pre = engine.virtual_doc("other.xml", SPEC).unwrap().preorder();
    let hits_after = engine.snapshot().cache.total_hits();
    assert_eq!(
        hits_after,
        stats.total_hits() + 4,
        "other.xml still served from cache"
    );
    assert!(!other_pre.is_empty());
}

/// `v_cmp` tests at most one ancestor direction and compares keys as
/// bytes; its oracle twin tests both directions and walks decoded
/// components. They must agree on every ordered pair of visible nodes (a
/// strided sample per view) of every book and XMark scenario, at 1, 2
/// and 8 threads.
#[test]
fn v_cmp_matches_its_two_way_oracle() {
    use vpbn_suite::core::exec::{par_filter, ExecOptions};
    use vpbn_suite::core::order::{v_cmp, v_cmp_oracle};
    for (td, scenarios) in corpora() {
        for s in scenarios {
            let vd = VirtualDocument::open(&td, s.spec).unwrap();
            let visible = vd.preorder();
            let stride = visible.len().div_ceil(150).max(1);
            let sample: Vec<NodeId> = visible.into_iter().step_by(stride).collect();
            let pairs: Vec<(NodeId, NodeId)> = sample
                .iter()
                .flat_map(|&x| sample.iter().map(move |&y| (x, y)))
                .collect();
            for threads in [1, 2, 8] {
                let opts = ExecOptions {
                    par_threshold: 1,
                    ..ExecOptions::with_threads(threads)
                };
                let bad = par_filter(&opts, &pairs, |&(x, y)| {
                    let (xv, yv) = (vd.vpbn_of(x).unwrap(), vd.vpbn_of(y).unwrap());
                    v_cmp(vd.vdg(), &xv, &yv) != v_cmp_oracle(vd.vdg(), &xv, &yv)
                });
                assert!(
                    bad.is_empty(),
                    "corpus {} scenario {} at {threads} threads: {:?}",
                    td.doc().uri(),
                    s.name,
                    &bad[..bad.len().min(3)]
                );
            }
        }
    }
}
