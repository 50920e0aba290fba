//! **F3 — query time vs document size.** The headline comparison: Rhonda's
//! selective query over Sam's transformation, answered (a) virtually with
//! vPBN and (b) by materialize + renumber + re-index + query (§4.3).
//!
//! Expected shape: the materializing pipeline grows with document size
//! regardless of how little the query touches, while the vPBN pipeline
//! pays a small per-view cost (level arrays + prefix tables) plus work
//! proportional to the data actually used.

use vh_bench::baseline::{run_materialized, run_virtual};
use vh_bench::report::Table;
use vh_bench::timing::ms;
use vh_dataguide::TypedDocument;
use vh_workload::{generate_books, BooksConfig};

const SPEC: &str = "title { author { name } }";
const QUERY: &str = "//title[contains(text(), 'RARE')]/author/name";

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let sizes: &[usize] = if full {
        &[100, 1_000, 5_000, 20_000, 50_000]
    } else {
        &[100, 1_000, 5_000, 20_000]
    };

    let mut t = Table::new(
        "F3: vPBN vs materialize-and-renumber (Sam's view, selective query)",
        &[
            "books",
            "results",
            "virt_open_ms",
            "virt_query_ms",
            "virt_total_ms",
            "mat_transform_ms",
            "mat_renumber_ms",
            "mat_reindex_ms",
            "mat_query_ms",
            "mat_total_ms",
            "speedup_x",
        ],
    );
    for &n in sizes {
        let cfg = BooksConfig {
            books: n,
            rare_fraction: 0.01,
            ..BooksConfig::default()
        };
        let td = TypedDocument::analyze(generate_books("books.xml", &cfg));
        let (vn, vt) = run_virtual(&td, SPEC, QUERY);
        let (mn, mt) = run_materialized(&td, SPEC, QUERY);
        assert_eq!(vn, mn, "pipelines disagree at n={n}");
        let speedup = mt.total().as_secs_f64() / vt.total().as_secs_f64().max(1e-12);
        t.row(&[
            n.to_string(),
            vn.to_string(),
            ms(vt.open),
            ms(vt.query),
            ms(vt.total()),
            ms(mt.transform),
            ms(mt.renumber),
            ms(mt.reindex),
            ms(mt.query),
            ms(mt.total()),
            format!("{speedup:.1}"),
        ]);
    }
    t.print();
    println!(
        "shape check: mat_total grows ~linearly with document size;\n\
         virt_total stays near-flat (level arrays are per-type), so the\n\
         speedup column should widen as the corpus grows."
    );
}
