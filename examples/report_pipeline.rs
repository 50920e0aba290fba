//! Report pipeline: a multi-document analytics query over a virtual view.
//!
//! Joins a generated book catalog (queried through Sam's virtual hierarchy)
//! against a separately registered ratings feed, ordering the report by
//! rating — exercising `virtualDoc`, cross-document joins, `order by`,
//! arithmetic, and the aggregate functions in one query.
//!
//! Run with: `cargo run --example report_pipeline`

#![allow(clippy::expect_used)]

use vpbn_suite::query::api::{Engine, QueryRequest};
use vpbn_suite::workload::{generate_books, BooksConfig};
use vpbn_suite::xml::{serialize, SerializeOptions};

fn main() {
    let mut engine = Engine::new();

    // Catalog: 8 books with up to 3 authors each.
    engine.register(generate_books(
        "catalog.xml",
        &BooksConfig {
            books: 8,
            max_authors: 3,
            rare_fraction: 0.0,
            seed: 2024,
        },
    ));

    // Ratings arrive from a different system, keyed by title.
    let ratings: String = (0..8)
        .map(|i| format!("<r title='Title {i}'>{}</r>", (i * 37 + 11) % 50 + 1))
        .collect();
    engine
        .register_xml("ratings.xml", &format!("<ratings>{ratings}</ratings>"))
        .expect("ratings parse");

    // The report: titles from the VIRTUAL hierarchy (so author counts are
    // virtual children), stars from the ratings document, top-rated first,
    // and a derived score = stars * authors.
    let query = r#"
        for $t in virtualDoc("catalog.xml", "title { author { name } }")//title
        for $r in doc("ratings.xml")//r
        where $t/text() = $r/@title and $r/text() >= 10
        order by $r descending
        return <entry>
                 <title>{$t/text()}</title>
                 <stars>{$r/text()}</stars>
                 <authors>{count($t/author)}</authors>
                 <score>{$r/text() * count($t/author)}</score>
               </entry>"#;

    let outcome = engine
        .run(&QueryRequest::flwr(query).with_trace(true))
        .expect("report query runs");
    if let Some(trace) = &outcome.trace {
        eprint!("{}", trace.render_text());
    }
    let out = outcome.document;
    println!("{}", serialize(&out, SerializeOptions::pretty(2)));

    // Sanity: entries are sorted by stars, descending.
    let root = out.root().expect("results root");
    let stars: Vec<i64> = out
        .children(root)
        .iter()
        .map(|&e| {
            out.string_value(out.children(e)[1])
                .parse()
                .expect("stars are numeric")
        })
        .collect();
    assert!(
        stars.windows(2).all(|w| w[0] >= w[1]),
        "report is ordered: {stars:?}"
    );
    println!(
        "\n{} entries, ordered by rating (max {})",
        stars.len(),
        stars[0]
    );
}
