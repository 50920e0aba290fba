//! Property-based tests (proptest) on the core invariants.

use proptest::prelude::*;
use vpbn_suite::core::transform::materialize;
use vpbn_suite::core::{VDataGuide, VirtualDocument};
use vpbn_suite::dataguide::TypedDocument;
use vpbn_suite::pbn::{axes, EncodedPbn, Pbn, PbnAssignment};
use vpbn_suite::xml::{parse, serialize, Document, ElementBuilder, NodeId, SerializeOptions};

// ---------------------------------------------------------------- PBN ----

fn arb_pbn() -> impl Strategy<Value = Pbn> {
    prop::collection::vec(1u32..100_000, 1..8).prop_map(Pbn::new)
}

proptest! {
    /// Compact encoding round-trips.
    #[test]
    fn encoding_round_trips(p in arb_pbn()) {
        let e = EncodedPbn::encode(&p);
        prop_assert_eq!(e.decode(), p);
    }

    /// Byte comparison of encodings equals document order of numbers.
    #[test]
    fn encoding_preserves_order(a in arb_pbn(), b in arb_pbn()) {
        let (ea, eb) = (EncodedPbn::encode(&a), EncodedPbn::encode(&b));
        prop_assert_eq!(ea.cmp(&eb), a.cmp(&b));
    }

    /// The encoded prefix property mirrors the ancestor relationship.
    #[test]
    fn encoding_prefix_matches_ancestry(a in arb_pbn(), b in arb_pbn()) {
        let (ea, eb) = (EncodedPbn::encode(&a), EncodedPbn::encode(&b));
        prop_assert_eq!(ea.is_prefix_of(&eb), a.is_prefix_of(&b));
    }

    /// The two facts the byte-range scans rest on, stated on raw key
    /// bytes: `enc(p)` is a byte-prefix of every child extension, and
    /// `memcmp` of encodings equals document order of the numbers.
    #[test]
    fn encoded_key_bytes_support_range_scans(
        p in arb_pbn(),
        a in arb_pbn(),
        k in 1u32..100_000,
    ) {
        let ep = EncodedPbn::encode(&p);
        let ec = EncodedPbn::encode(&p.child(k));
        prop_assert!(ec.as_bytes().starts_with(ep.as_bytes()));
        let ea = EncodedPbn::encode(&a);
        prop_assert_eq!(ea.as_bytes().cmp(ep.as_bytes()), a.cmp(&p));
    }

    /// Relationship classification is consistent: exactly one coarse class
    /// holds for any pair from the same tree.
    #[test]
    fn relationship_is_a_partition(a in arb_pbn(), b in arb_pbn()) {
        let classes = [
            axes::is_self(&a, &b),
            axes::is_ancestor(&a, &b),
            axes::is_descendant(&a, &b),
            axes::is_preceding(&a, &b),
            axes::is_following(&a, &b),
        ];
        let true_count = classes.iter().filter(|&&c| c).count();
        if a.components()[0] == b.components()[0] {
            prop_assert_eq!(true_count, 1, "{} vs {}", a, b);
        } else {
            // Different trees: only preceding/following can hold.
            prop_assert!(!classes[0] && !classes[1] && !classes[2]);
        }
    }

    /// `subtree_range` contains exactly the descendants-or-self.
    #[test]
    fn subtree_range_is_exact(a in arb_pbn(), b in arb_pbn()) {
        let (lo, hi) = vpbn_suite::pbn::order::subtree_range(&a);
        let inside = lo <= b && b < hi;
        prop_assert_eq!(inside, a.is_prefix_of(&b));
    }
}

// ------------------------------------------------------- random trees ----

/// A random tree over a small element alphabet, then a random document.
fn arb_tree() -> impl Strategy<Value = Document> {
    let leaf = (0u8..4).prop_map(|i| ElementBuilder::new(format!("e{i}")).text("t"));
    let node = leaf.prop_recursive(3, 24, 4, |inner| {
        (0u8..4, prop::collection::vec(inner, 0..4)).prop_map(|(i, kids)| {
            let mut b = ElementBuilder::new(format!("e{i}"));
            for k in kids {
                b = b.child(k);
            }
            b
        })
    });
    node.prop_map(|b| {
        ElementBuilder::new("root")
            .child(b)
            .into_document("random.xml")
    })
}

/// Ground-truth relationship from tree structure, for cross-checking the
/// number-based predicates.
fn tree_says_ancestor(doc: &Document, a: NodeId, b: NodeId) -> bool {
    doc.is_ancestor(a, b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Serialization round-trips through the parser for arbitrary trees.
    #[test]
    fn serialize_parse_round_trip(doc in arb_tree()) {
        let s1 = serialize(&doc, SerializeOptions::compact());
        let re = parse("random.xml", &s1).unwrap();
        let s2 = serialize(&re, SerializeOptions::compact());
        prop_assert_eq!(s1, s2);
    }

    /// PBN predicates agree with tree structure on random documents.
    #[test]
    fn pbn_axes_match_tree_structure(doc in arb_tree()) {
        let assignment = PbnAssignment::assign(&doc);
        let nodes: Vec<NodeId> = doc.preorder().collect();
        for &a in nodes.iter().take(20) {
            for &b in nodes.iter().take(20) {
                let (pa, pb) = (&assignment.pbn_of(a), &assignment.pbn_of(b));
                prop_assert_eq!(
                    axes::is_ancestor(pa, pb),
                    tree_says_ancestor(&doc, a, b)
                );
                prop_assert_eq!(
                    axes::is_parent(pa, pb),
                    doc.parent(b) == Some(a)
                );
                let preorder_before = nodes.iter().position(|&n| n == a).unwrap()
                    < nodes.iter().position(|&n| n == b).unwrap();
                prop_assert_eq!(
                    axes::is_preceding(pa, pb),
                    preorder_before && !tree_says_ancestor(&doc, a, b)
                );
            }
        }
    }

    /// The identity virtual view of an arbitrary tree is fully transparent:
    /// same visible nodes, same navigation.
    #[test]
    fn identity_view_is_transparent(doc in arb_tree()) {
        let td = TypedDocument::analyze(doc);
        let vd = VirtualDocument::open(&td, "root { ** }").unwrap();
        prop_assert_eq!(vd.visible_nodes(), td.doc().len());
        let phys: Vec<NodeId> = td.doc().preorder().collect();
        prop_assert_eq!(vd.preorder(), phys);
        for id in td.doc().preorder() {
            prop_assert_eq!(vd.parent(id), td.doc().parent(id));
            prop_assert_eq!(vd.children(id), td.doc().children(id).to_vec());
        }
    }

    /// Level arrays of any compiled view are non-decreasing and end at the
    /// type's virtual level (max(xa) = level).
    #[test]
    fn level_arrays_are_monotone_and_level_terminated(doc in arb_tree()) {
        let td = TypedDocument::analyze(doc);
        // Choose the deepest e0 chain type as a virtual root if present,
        // plus the identity view which always compiles.
        let vd = VirtualDocument::open(&td, "root { ** }").unwrap();
        for vt in vd.vdg().guide().type_ids() {
            let a = vd.array(vt);
            prop_assert!(a.levels().windows(2).all(|w| w[0] <= w[1]));
            prop_assert_eq!(a.max_level() as usize, vd.vdg().level(vt));
        }
    }
}

// ----------------------------------- random views over book corpora ----

// Virtual document order is a total order: antisymmetric and transitive
// on every sampled triple, across scenarios — `sort_by` panics on
// comparators that violate this, so it is a hard requirement.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn v_cmp_is_a_total_order(
        books in 1usize..12,
        max_authors in 1usize..4,
        seed in 0u64..500,
    ) {
        use std::cmp::Ordering;
        use vpbn_suite::core::order::v_cmp;
        let cfg = vpbn_suite::workload::BooksConfig {
            books,
            max_authors,
            rare_fraction: 0.2,
            seed,
        };
        let td = TypedDocument::analyze(
            vpbn_suite::workload::generate_books("books.xml", &cfg),
        );
        for s in vpbn_suite::workload::book_scenarios() {
            let vd = VirtualDocument::open(&td, s.spec).unwrap();
            // Join multiplicity places one node at several virtual
            // positions; no node-level total order can exist there (the
            // node genuinely sits in two places), so the axioms are only
            // required for uniquely-placed views.
            let vdg = VDataGuide::compile(s.spec, td.guide()).unwrap();
            let mat = materialize(&td, &vdg);
            let placed = mat.source_of.iter().flatten().count();
            let distinct: std::collections::HashSet<_> =
                mat.source_of.iter().flatten().collect();
            if placed != distinct.len() {
                continue;
            }
            let nodes: Vec<NodeId> = vd.preorder().into_iter().take(24).collect();
            let v = |n: NodeId| vd.vpbn_of(n).unwrap();
            for &a in &nodes {
                prop_assert_eq!(
                    v_cmp(vd.vdg(), &v(a), &v(a)),
                    Ordering::Equal,
                    "reflexive, scenario {}",
                    s.name
                );
                for &b in &nodes {
                    let ab = v_cmp(vd.vdg(), &v(a), &v(b));
                    let ba = v_cmp(vd.vdg(), &v(b), &v(a));
                    prop_assert_eq!(ab, ba.reverse(), "antisymmetry, scenario {}", s.name);
                    if ab != Ordering::Less {
                        continue;
                    }
                    for &c in &nodes {
                        if v_cmp(vd.vdg(), &v(b), &v(c)) == Ordering::Less {
                            prop_assert_eq!(
                                v_cmp(vd.vdg(), &v(a), &v(c)),
                                Ordering::Less,
                                "transitivity, scenario {}",
                                s.name
                            );
                        }
                    }
                }
            }
        }
    }
}

// Twig joins: the holistic algorithm equals naive enumeration on random
// corpora, physically and virtually.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn twig_join_matches_naive_enumeration(
        books in 1usize..15,
        max_authors in 1usize..4,
        seed in 0u64..500,
    ) {
        use vpbn_suite::query::twig::{
            twig_join, twig_join_naive, PhysicalTwigSource, TwigPattern,
            VirtualTwigSource,
        };
        let cfg = vpbn_suite::workload::BooksConfig {
            books,
            max_authors,
            rare_fraction: 0.2,
            seed,
        };
        let td = TypedDocument::analyze(
            vpbn_suite::workload::generate_books("books.xml", &cfg),
        );
        let sort = |mut v: Vec<Vec<NodeId>>| {
            v.sort();
            v.dedup();
            v
        };
        let phys = PhysicalTwigSource::new(&td);
        for pat in ["book(title, author(name))", "data(book(author), book(publisher))"] {
            let p = TwigPattern::parse(pat).unwrap();
            prop_assert_eq!(
                sort(twig_join(&phys, &p)),
                sort(twig_join_naive(&phys, &p)),
                "physical pattern {}",
                pat
            );
        }
        let vd = VirtualDocument::open(&td, "title { author { name } }").unwrap();
        let virt = VirtualTwigSource::new(&vd);
        for pat in ["title(author)", "title(author(name))", "title(name)"] {
            let p = TwigPattern::parse(pat).unwrap();
            prop_assert_eq!(
                sort(twig_join(&virt, &p)),
                sort(twig_join_naive(&virt, &p)),
                "virtual pattern {}",
                pat
            );
        }
    }
}

// Random books corpus + every scenario: virtual preorder equals the
// materialized instance (the oracle, as a property).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn oracle_property_on_random_corpora(
        books in 1usize..20,
        max_authors in 1usize..5,
        seed in 0u64..1000,
    ) {
        let cfg = vpbn_suite::workload::BooksConfig {
            books,
            max_authors,
            rare_fraction: 0.3,
            seed,
        };
        let td = TypedDocument::analyze(
            vpbn_suite::workload::generate_books("books.xml", &cfg),
        );
        for s in vpbn_suite::workload::book_scenarios() {
            let vd = VirtualDocument::open(&td, s.spec).unwrap();
            let vdg = VDataGuide::compile(s.spec, td.guide()).unwrap();
            let mat = materialize(&td, &vdg);
            let mroot = mat.doc.root().unwrap();
            let mat_sources: Vec<NodeId> = mat
                .doc
                .descendants_or_self(mroot)
                .skip(1)
                .map(|m| mat.source_of[m.index()].unwrap())
                .collect();
            prop_assert_eq!(
                vd.preorder(),
                mat_sources,
                "scenario {} books={} authors={} seed={}",
                s.name,
                books,
                max_authors,
                seed
            );
        }
    }
}

// Range-scan axis evaluation is byte-identical to the predicate-scan
// oracle: the binary-searched candidate slice (plus the collapsed check
// for exact ranges) must select exactly the nodes the full Algorithm-1
// predicate scan does — for every scenario view, with and without prefix
// tables, at thread counts 1, 2 and 8.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn range_scan_axes_match_the_predicate_oracle(
        books in 1usize..12,
        max_authors in 1usize..4,
        seed in 0u64..500,
    ) {
        use vpbn_suite::core::ExecOptions;
        let cfg = vpbn_suite::workload::BooksConfig {
            books,
            max_authors,
            rare_fraction: 0.25,
            seed,
        };
        let td = TypedDocument::analyze(
            vpbn_suite::workload::generate_books("books.xml", &cfg),
        );
        for s in vpbn_suite::workload::book_scenarios() {
            for &threads in &[1usize, 2, 8] {
                let mut vd = VirtualDocument::open(&td, s.spec).unwrap();
                vd.set_exec(ExecOptions { threads, cache: true, par_threshold: 1 });
                // Exercise both the per-call prefix computation (t=1) and
                // the precomputed tables (t=2, t=8).
                if threads > 1 {
                    vd.build_prefix_tables();
                }
                let contexts: Vec<NodeId> =
                    vd.preorder().into_iter().take(20).collect();
                for vt in vd.vdg().guide().type_ids() {
                    for &x in &contexts {
                        prop_assert_eq!(
                            vd.descendants_of_type(x, vt),
                            vd.descendants_of_type_filter(x, vt),
                            "scenario {} t={} vtype {:?}",
                            s.name,
                            threads,
                            vt
                        );
                    }
                }
            }
        }
    }
}

// Parallel execution is deterministic: every navigation primitive, the
// chunked Stack-Tree join and the parallel twig join return results
// identical to the single-threaded run, for random trees and every
// sampled thread count. `par_threshold` is lowered to 1 so the parallel
// paths actually run on these small corpora.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn parallel_execution_matches_sequential(
        books in 1usize..10,
        max_authors in 1usize..4,
        seed in 0u64..500,
    ) {
        use vpbn_suite::core::ExecOptions;
        use vpbn_suite::query::sjoin::virtual_structural_join;
        use vpbn_suite::query::twig::{twig_join_opts, TwigPattern, VirtualTwigSource};

        let cfg = vpbn_suite::workload::BooksConfig {
            books,
            max_authors,
            rare_fraction: 0.2,
            seed,
        };
        let td = TypedDocument::analyze(
            vpbn_suite::workload::generate_books("books.xml", &cfg),
        );

        // Navigation over every scenario view.
        for s in vpbn_suite::workload::book_scenarios() {
            let base = VirtualDocument::open(&td, s.spec).unwrap();
            let base_pre = base.preorder();
            let base_roots = base.roots();
            for &threads in &[2usize, 3, 8] {
                let mut vd = VirtualDocument::open(&td, s.spec).unwrap();
                vd.set_exec(ExecOptions { threads, cache: true, par_threshold: 1 });
                vd.build_prefix_tables();
                prop_assert_eq!(&vd.preorder(), &base_pre,
                    "preorder, scenario {} t={}", s.name, threads);
                prop_assert_eq!(&vd.roots(), &base_roots,
                    "roots, scenario {} t={}", s.name, threads);
                for &x in base_pre.iter().take(16) {
                    prop_assert_eq!(vd.children(x), base.children(x),
                        "children, scenario {} t={}", s.name, threads);
                    prop_assert_eq!(vd.parent(x), base.parent(x),
                        "parent, scenario {} t={}", s.name, threads);
                    prop_assert_eq!(vd.ancestors(x), base.ancestors(x),
                        "ancestors, scenario {} t={}", s.name, threads);
                }
                for vt in vd.vdg().guide().type_ids() {
                    for &r in &base_roots {
                        prop_assert_eq!(
                            vd.descendants_of_type(r, vt),
                            base.descendants_of_type(r, vt),
                            "descendants_of_type, scenario {} t={}", s.name, threads);
                    }
                }
            }
        }

        // Joins over Sam's view (guaranteed present in the books corpus).
        const SPEC: &str = "title { author { name } }";
        let base = VirtualDocument::open(&td, SPEC).unwrap();
        let title_vt = base.vdg().guide().lookup_path(&["title"]).unwrap();
        let name_vt = base
            .vdg()
            .guide()
            .lookup_path(&["title", "author", "name"])
            .unwrap();
        let titles = base.nodes_of_vtype(title_vt).to_vec();
        let names = base.nodes_of_vtype(name_vt).to_vec();
        let base_join = virtual_structural_join(&base, &titles, &names);
        let pattern = TwigPattern::parse("title(author(name))").unwrap();
        let base_src = VirtualTwigSource::new(&base);
        let base_twig = twig_join_opts(&base_src, &pattern, &ExecOptions::sequential());
        for &threads in &[2usize, 3, 8] {
            let ex = ExecOptions { threads, cache: true, par_threshold: 1 };
            let mut vd = VirtualDocument::open(&td, SPEC).unwrap();
            vd.set_exec(ex);
            prop_assert_eq!(
                &virtual_structural_join(&vd, &titles, &names),
                &base_join,
                "structural join t={}", threads);
            let src = VirtualTwigSource::new(&vd);
            prop_assert_eq!(
                &twig_join_opts(&src, &pattern, &ex),
                &base_twig,
                "twig join t={}", threads);
        }
    }
}
