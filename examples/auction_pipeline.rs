//! Auction pipeline: virtual hierarchies over an XMark-style corpus, with
//! the simulated store's I/O accounting and a virtual structural join.
//!
//! Mirrors the paper's motivating pipeline at a realistic schema: a
//! "reporting" virtual hierarchy regroups persons under the cities they
//! live in (a case-2 inversion — `city` is physically a *descendant* of
//! `person`), and queries run directly against the virtual space.
//!
//! Run with: `cargo run --example auction_pipeline`

#![allow(clippy::unwrap_used, clippy::expect_used)]

use vpbn_suite::core::value::virtual_value;
use vpbn_suite::core::VirtualDocument;
use vpbn_suite::dataguide::TypedDocument;
use vpbn_suite::query::api::{eval_xpath, parse_xpath, virtual_structural_join, VirtualDoc};
use vpbn_suite::storage::StoredDocument;
use vpbn_suite::workload::{generate_xmark, XmarkConfig};

fn main() {
    // ----- generate + store the corpus ------------------------------------
    let cfg = XmarkConfig {
        scale: 0.02,
        seed: 7,
    };
    let stored = StoredDocument::build(TypedDocument::analyze(generate_xmark("xmark.xml", &cfg)));
    let td = stored.typed();
    let stats = stored.stats();
    println!(
        "corpus: {} nodes, {} types, {} B document string over {} pages",
        td.doc().len(),
        td.guide().len(),
        stats.document_bytes,
        stats.document_pages
    );
    println!(
        "indexes: value {} B, headers {} B\n",
        stats.value_index_bytes, stats.header_bytes
    );

    // ----- the reporting view ----------------------------------------------
    let spec = "city { person { person.name emailaddress } }";
    let vd = VirtualDocument::open(td, spec).expect("view compiles");
    println!("view: {spec}");
    println!(
        "  {} cities become virtual roots; {} nodes visible",
        vd.roots().len(),
        vd.visible_nodes()
    );

    // ----- query the virtual hierarchy -------------------------------------
    let qdoc = VirtualDoc::new(&vd);
    let per_city = parse_xpath("//city/person/name").expect("query parses");
    let names = eval_xpath(&qdoc, &per_city).expect("query runs");
    println!("  //city/person/name finds {} names", names.len());

    // Count persons per distinct city value.
    let cities = eval_xpath(&qdoc, &parse_xpath("//city").unwrap()).unwrap();
    let mut by_city: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    for &c in &cities {
        let city_name = td.doc().string_value(c);
        let persons = vd
            .children(c)
            .iter()
            .filter(|&&k| td.doc().name(k) == Some("person"))
            .count();
        *by_city.entry(city_name).or_default() += persons;
    }
    println!("  persons per city (virtual children of each city instance):");
    for (city, n) in by_city.iter().take(5) {
        println!("    {city:<10} {n}");
    }

    // ----- virtual structural join ------------------------------------------
    let city_vt = vd.vdg().guide().lookup_path(&["city"]).unwrap();
    let name_vt = vd
        .vdg()
        .guide()
        .lookup_path(&["city", "person", "name"])
        .unwrap();
    let pairs =
        virtual_structural_join(&vd, vd.nodes_of_vtype(city_vt), vd.nodes_of_vtype(name_vt));
    println!(
        "\n  virtual structural join city ⋈ name: {} pairs (one per housed person)",
        pairs.len()
    );

    // ----- virtual values from the store, with I/O accounting ---------------
    stored.reset_counters();
    let first_city = vd.roots()[0];
    let (value, vstats) =
        virtual_value(&vd, &stored, first_city).expect("fault-free store stitches");
    let io = stored.stats();
    println!("\n  value of the first virtual city ({} B):", value.len());
    let preview: String = value.chars().take(100).collect();
    println!("    {preview}…");
    println!(
        "    assembled from {} stored-range copies + {} constructed tags,",
        vstats.raw_copies, vstats.constructed_elements
    );
    println!(
        "    touching {} pages / {} bytes of the store",
        io.pages_read, io.bytes_read
    );
}
