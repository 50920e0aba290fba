//! **F8 (extension) — simulated page I/O.** §4.3 argues that materializing
//! a view "increas\[es\] disk I/O": the whole transformed instance is
//! written and its indexes rebuilt, while vPBN reads only the byte ranges
//! a query's answers actually need. This experiment counts pages through
//! the simulated store for the task "return the serialized value of every
//! query answer".

use vh_bench::report::Table;
use vh_core::transform::materialize;
use vh_core::value::virtual_value;
use vh_core::{VDataGuide, VirtualDocument};
use vh_dataguide::TypedDocument;
use vh_query::doc::{PhysicalDoc, VirtualDoc};
use vh_query::xpath::{eval_xpath, parse_xpath};
use vh_storage::StoredDocument;
use vh_workload::{generate_books, BooksConfig};

const SPEC: &str = "title { author { name } }";
const QUERY: &str = "//title[contains(text(), 'RARE')]";

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let sizes: &[usize] = if full {
        &[1_000, 10_000, 50_000]
    } else {
        &[1_000, 10_000]
    };

    let mut t = Table::new(
        "F8: pages touched to fetch the values of all query answers",
        &[
            "books",
            "answers",
            "virt_pages_read",
            "virt_bytes_read",
            "mat_pages_written",
            "mat_pages_read",
            "io_ratio_x",
        ],
    );
    for &n in sizes {
        // Fixed *absolute* answer count (~10) so the corpus grows while the
        // query's data need stays constant — the regime §4.3 targets.
        let cfg = BooksConfig {
            books: n,
            rare_fraction: 10.0 / n as f64,
            ..BooksConfig::default()
        };
        let stored =
            StoredDocument::build(TypedDocument::analyze(generate_books("books.xml", &cfg)));
        let td = stored.typed();
        let path = parse_xpath(QUERY).expect("query parses");

        // Virtual side: answer the query, stitch each answer's value from
        // the ORIGINAL store; count pages read.
        let vd = VirtualDocument::open(td, SPEC).unwrap();
        let answers = eval_xpath(&VirtualDoc::new(&vd), &path).unwrap();
        stored.reset_counters();
        let mut out = String::new();
        for &a in &answers {
            let (v, _) = virtual_value(&vd, &stored, a).expect("fault-free store");
            out.push_str(&v);
        }
        let vstats = stored.stats();

        // Materialized side: build the transformed store (every page of it
        // is written), then read the answers' values from it.
        let vdg = VDataGuide::compile(SPEC, td.guide()).unwrap();
        let mat = materialize(td, &vdg);
        let mat_stored = StoredDocument::build(TypedDocument::analyze(mat.doc));
        let pages_written = mat_stored.stats().document_pages as u64;
        let mat_answers = eval_xpath(&PhysicalDoc::new(mat_stored.typed()), &path).unwrap();
        assert_eq!(mat_answers.len(), answers.len());
        mat_stored.reset_counters();
        let mut mat_out = String::new();
        for &a in &mat_answers {
            mat_out.push_str(&mat_stored.value_of(a).expect("fault-free store"));
        }
        let mstats = mat_stored.stats();
        assert_eq!(out, mat_out, "both sides deliver identical values");

        let total_mat_io = pages_written + mstats.pages_read;
        t.row(&[
            n.to_string(),
            answers.len().to_string(),
            vstats.pages_read.to_string(),
            vstats.bytes_read.to_string(),
            pages_written.to_string(),
            mstats.pages_read.to_string(),
            format!(
                "{:.1}",
                total_mat_io as f64 / (vstats.pages_read.max(1)) as f64
            ),
        ]);
    }
    t.print();
    println!(
        "shape check: virtual pages scale with the answer set; materialized\n\
         I/O is dominated by writing the whole transformed instance, so the\n\
         ratio grows with corpus size at fixed selectivity."
    );
}
