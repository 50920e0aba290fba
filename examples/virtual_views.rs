//! Virtual views tour: every transformation scenario over a generated
//! books corpus, cross-checked against physical materialization.
//!
//! For each scenario this example compiles the vDataGuide, reports the
//! level-array map, navigates the virtual hierarchy, and verifies that the
//! virtual values equal the serialization of the physically materialized
//! instance — the §4.3 baseline acting as an oracle.
//!
//! Run with: `cargo run --example virtual_views`

#![allow(clippy::unwrap_used, clippy::expect_used)]

use vpbn_suite::core::transform::materialize;
use vpbn_suite::core::value::virtual_value;
use vpbn_suite::core::{VDataGuide, VirtualDocument};
use vpbn_suite::dataguide::TypedDocument;
use vpbn_suite::workload::{book_scenarios, generate_books, BooksConfig};
use vpbn_suite::xml::{serialize, SerializeOptions};

fn main() {
    let cfg = BooksConfig {
        books: 6,
        max_authors: 2,
        rare_fraction: 0.3,
        seed: 99,
    };
    let td = TypedDocument::analyze(generate_books("books.xml", &cfg));
    println!(
        "corpus: {} nodes, {} types\n",
        td.doc().len(),
        td.guide().len()
    );

    for s in book_scenarios() {
        println!("=== scenario '{}' — {}", s.name, s.description);
        println!("    spec: {}", s.spec);

        let vd = VirtualDocument::open(&td, s.spec).expect("scenario compiles");
        println!(
            "    {} virtual types, {} visible of {} nodes",
            vd.vdg().len(),
            vd.visible_nodes(),
            td.doc().len()
        );
        for vt in vd.vdg().guide().type_ids() {
            println!(
                "      {:<28} {}  ({} instances{})",
                vd.vdg().guide().path_string(vt),
                vd.array(vt),
                vd.nodes_of_vtype(vt).len(),
                if vd.vdg().is_identity_below(vt) {
                    ", identity region"
                } else {
                    ""
                }
            );
        }

        // Cross-check: virtual values equal the materialized subtrees.
        let vdg = VDataGuide::compile(s.spec, td.guide()).unwrap();
        let mat = materialize(&td, &vdg);
        let mroot = mat.doc.root().unwrap();
        let mat_children = mat.doc.children(mroot);
        let vroots = vd.roots();
        assert_eq!(
            mat_children.len(),
            vroots.len(),
            "root instance counts agree"
        );
        let mut checked = 0;
        for (&m, &v) in mat_children.iter().zip(&vroots) {
            let physical = serialize::serialize_node(&mat.doc, m, SerializeOptions::compact());
            let (virtual_, _) = virtual_value(&vd, &td, v).expect("in-memory stitch cannot fault");
            assert_eq!(physical, virtual_, "scenario {}", s.name);
            checked += 1;
        }
        println!("    ✓ {checked} virtual root values match the materialized instance");
        if let Some(&first) = vroots.first() {
            let (value, stats) =
                virtual_value(&vd, &td, first).expect("in-memory stitch cannot fault");
            let preview: String = value.chars().take(72).collect();
            println!(
                "    first root value ({} B, {} raw copies): {preview}…",
                value.len(),
                stats.raw_copies
            );
        }
        println!();
    }
}
