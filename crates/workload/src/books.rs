//! The books corpus: the paper's Figure 2, scaled.
//!
//! ```text
//! data { book { title {◦} author { name {◦} }* publisher { location {◦} } }* }
//! ```
//!
//! Knobs: number of books, author fan-out (1..=max uniformly), optional
//! per-book genre wrapper to deepen the tree, and a deterministic seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vh_xml::{Document, ElementBuilder};

/// Configuration of the books generator.
#[derive(Clone, Debug)]
pub struct BooksConfig {
    /// Number of `book` elements.
    pub books: usize,
    /// Maximum authors per book (uniform in `1..=max_authors`).
    pub max_authors: usize,
    /// Fraction of books whose title contains the selective marker
    /// `"RARE"` (drives the selectivity experiment F4). `0.0..=1.0`.
    pub rare_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BooksConfig {
    fn default() -> Self {
        BooksConfig {
            books: 100,
            max_authors: 3,
            rare_fraction: 0.1,
            seed: 42,
        }
    }
}

impl BooksConfig {
    /// A config sized to roughly `n` books with the default knobs.
    pub fn sized(books: usize) -> Self {
        BooksConfig {
            books,
            ..BooksConfig::default()
        }
    }
}

const LOCATIONS: [&str; 8] = [
    "Boston", "Munich", "Tokyo", "Oslo", "Perth", "Quito", "Seoul", "Cairo",
];

const SURNAMES: [&str; 12] = [
    "Codd",
    "Gray",
    "Stonebraker",
    "Date",
    "Chen",
    "Ullman",
    "Widom",
    "Garcia",
    "Molina",
    "Abiteboul",
    "Hull",
    "Vianu",
];

/// Generates the corpus under the given URI. Each book is attached to the
/// document as soon as it is built, so only one book is ever held twice.
pub fn generate_books(uri: &str, cfg: &BooksConfig) -> Document {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut doc = Document::new(uri);
    let root = doc.create_root("data");
    for i in 0..cfg.books {
        let rare = rng.gen_bool(cfg.rare_fraction.clamp(0.0, 1.0));
        let title = if rare {
            format!("RARE Title {i}")
        } else {
            format!("Title {i}")
        };
        let mut book = ElementBuilder::new("book")
            .attr("id", format!("b{i}"))
            .child(ElementBuilder::new("title").text(title));
        let n_authors = rng.gen_range(1..=cfg.max_authors.max(1));
        for a in 0..n_authors {
            let surname = SURNAMES[rng.gen_range(0..SURNAMES.len())];
            book = book.child(
                ElementBuilder::new("author")
                    .child(ElementBuilder::new("name").text(format!("{surname} {a}"))),
            );
        }
        let loc = LOCATIONS[rng.gen_range(0..LOCATIONS.len())];
        book = book.child(
            ElementBuilder::new("publisher").child(ElementBuilder::new("location").text(loc)),
        );
        book.attach_to(&mut doc, root);
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The corpus built as one builder tree and converted at the end: the
    /// same draws, two copies of the corpus at the peak.
    fn generate_books_whole_tree(uri: &str, cfg: &BooksConfig) -> Document {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut data = ElementBuilder::new("data");
        for i in 0..cfg.books {
            let rare = rng.gen_bool(cfg.rare_fraction.clamp(0.0, 1.0));
            let title = if rare {
                format!("RARE Title {i}")
            } else {
                format!("Title {i}")
            };
            let mut book = ElementBuilder::new("book")
                .attr("id", format!("b{i}"))
                .child(ElementBuilder::new("title").text(title));
            for a in 0..rng.gen_range(1..=cfg.max_authors.max(1)) {
                let surname = SURNAMES[rng.gen_range(0..SURNAMES.len())];
                book = book.child(
                    ElementBuilder::new("author")
                        .child(ElementBuilder::new("name").text(format!("{surname} {a}"))),
                );
            }
            let loc = LOCATIONS[rng.gen_range(0..LOCATIONS.len())];
            book = book.child(
                ElementBuilder::new("publisher").child(ElementBuilder::new("location").text(loc)),
            );
            data = data.child(book);
        }
        data.into_document(uri)
    }

    #[test]
    fn attaching_book_by_book_matches_the_whole_tree_build() {
        for seed in [5, 7, 11] {
            let cfg = BooksConfig {
                books: 60,
                max_authors: 4,
                rare_fraction: 0.2,
                seed,
            };
            let (new, old) = (
                generate_books("u", &cfg),
                generate_books_whole_tree("u", &cfg),
            );
            let compact = vh_xml::SerializeOptions::compact();
            assert_eq!(
                vh_xml::serialize(&new, compact),
                vh_xml::serialize(&old, compact),
                "seed {seed}"
            );
            assert_eq!(new.len(), old.len(), "seed {seed}");
            let ids = |d: &Document| d.preorder().collect::<Vec<_>>();
            assert_eq!(ids(&new), ids(&old), "seed {seed}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_books("u", &BooksConfig::default());
        let b = generate_books("u", &BooksConfig::default());
        assert_eq!(
            vh_xml::serialize(&a, vh_xml::SerializeOptions::compact()),
            vh_xml::serialize(&b, vh_xml::SerializeOptions::compact())
        );
    }

    #[test]
    fn shape_matches_figure2() {
        let d = generate_books("u", &BooksConfig::sized(10));
        let root = d.root().unwrap();
        assert_eq!(d.name(root), Some("data"));
        assert_eq!(d.children(root).len(), 10);
        for &book in d.children(root) {
            let names: Vec<_> = d.children(book).iter().filter_map(|&c| d.name(c)).collect();
            assert_eq!(names.first(), Some(&"title"));
            assert_eq!(names.last(), Some(&"publisher"));
            assert!(names.iter().filter(|&&n| n == "author").count() >= 1);
        }
    }

    #[test]
    fn author_fanout_respects_the_knob() {
        let cfg = BooksConfig {
            books: 200,
            max_authors: 5,
            ..BooksConfig::default()
        };
        let d = generate_books("u", &cfg);
        let root = d.root().unwrap();
        let mut max_seen = 0;
        for &book in d.children(root) {
            let authors = d
                .children(book)
                .iter()
                .filter(|&&c| d.name(c) == Some("author"))
                .count();
            assert!((1..=5).contains(&authors));
            max_seen = max_seen.max(authors);
        }
        assert!(max_seen >= 3, "with 200 books the fan-out should spread");
    }

    #[test]
    fn rare_fraction_controls_selectivity() {
        let low = generate_books(
            "u",
            &BooksConfig {
                books: 500,
                rare_fraction: 0.02,
                ..BooksConfig::default()
            },
        );
        let count = |d: &Document| {
            d.preorder()
                .filter(|&n| d.kind(n).text().is_some_and(|t| t.starts_with("RARE")))
                .count()
        };
        let c_low = count(&low);
        assert!((2..=40).contains(&c_low), "got {c_low}");
        let all = generate_books(
            "u",
            &BooksConfig {
                books: 100,
                rare_fraction: 1.0,
                ..BooksConfig::default()
            },
        );
        assert_eq!(count(&all), 100);
    }
}
