//! Quickstart: the paper's running example, end to end.
//!
//! Builds the Figure 2 instance, shows its PBN numbers, compiles Sam's
//! virtual hierarchy (`title { author { name } }`), prints the Figure 10
//! level arrays, navigates the virtual document, and finally runs Rhonda's
//! `virtualDoc` query (Figure 6).
//!
//! Run with: `cargo run --example quickstart`

#![allow(clippy::expect_used)]

use vpbn_suite::core::value::virtual_value;
use vpbn_suite::dataguide::TypedDocument;
use vpbn_suite::query::api::{Engine, QueryRequest, VirtualDocument};
use vpbn_suite::xml::builder::paper_figure2;

fn main() {
    // ----- the source document (Figure 2) --------------------------------
    let doc = paper_figure2();
    println!("source (Figure 2):");
    println!(
        "  {}",
        vpbn_suite::xml::serialize(&doc, vpbn_suite::xml::SerializeOptions::compact())
    );

    // ----- analysis: PBN numbers + DataGuide (Figures 7a, 8) -------------
    let td = TypedDocument::analyze(doc);
    println!("\nPBN numbers (Figure 8):");
    for &id in td.pbn().in_document_order() {
        let pbn = td.pbn().pbn_of(id);
        let label = match td.doc().kind(id) {
            vpbn_suite::xml::NodeKind::Element { name, .. } => name.clone(),
            vpbn_suite::xml::NodeKind::Text(t) => format!("{t:?}"),
            other => format!("{other:?}"),
        };
        println!("  {pbn:<12} {label}");
    }

    // ----- the virtual hierarchy (Figures 6, 7b, 10) ----------------------
    let spec = "title { author { name } }";
    let vd = VirtualDocument::open(&td, spec).expect("specification compiles");
    println!("\nvDataGuide: {spec}");
    println!("level arrays (Figure 10):");
    for vt in vd.vdg().guide().type_ids() {
        println!(
            "  {:<24} {}",
            vd.vdg().guide().path_string(vt),
            vd.array(vt)
        );
    }

    // ----- virtual navigation ---------------------------------------------
    println!("\nvirtual hierarchy (preorder):");
    for n in vd.preorder() {
        let depth = vd.ancestors(n).len();
        let label = match td.doc().kind(n) {
            vpbn_suite::xml::NodeKind::Element { name, .. } => name.clone(),
            vpbn_suite::xml::NodeKind::Text(t) => format!("{t:?}"),
            other => format!("{other:?}"),
        };
        println!(
            "  {}{label}  (pbn {})",
            "  ".repeat(depth),
            td.pbn().pbn_of(n)
        );
    }

    // ----- virtual values (§6) --------------------------------------------
    let title1 = vd.roots()[0];
    let (value, stats) = virtual_value(&vd, &td, title1).expect("in-memory stitch cannot fault");
    println!("\nvirtual value of the first title:");
    println!("  {value}");
    println!(
        "  (stitched from {} stored-range copies + {} constructed tags)",
        stats.raw_copies, stats.constructed_elements
    );

    // ----- Rhonda's query (Figure 6) ---------------------------------------
    let mut engine = Engine::new();
    engine.register(paper_figure2());
    let request = QueryRequest::flwr(
        r#"for $t in virtualDoc("book.xml", "title { author { name } }")//title
           return <result><title>{$t/text()}</title>
                          <count>{count($t/author)}</count></result>"#,
    );
    let out = engine.run(&request).expect("query runs");
    println!("\nRhonda's query result (Figure 6):");
    println!("  {}", out.to_string_compact());
    println!(
        "  ({} result nodes; parse {} ns, exec {} ns)",
        out.stats.result_nodes, out.stats.parse_ns, out.stats.exec_ns
    );
}
