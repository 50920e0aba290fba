//! Seeded, size-stable op streams for the three workloads.
//!
//! Every stream is a pure function of its seed and of the corpus it starts
//! from, and every edit it deals is valid when applied in stream order.
//! A [`Step`] pairs the op the program receives with the answers the
//! harness accepts for it; the accepted answers never leave the harness.

use std::collections::BTreeMap;

use vh_query::Edit;
use vh_xml::Document;

/// The URI every workload registers its corpus under.
pub const URI: &str = "books.xml";

/// Sam's transformation (the paper's Figure 1 view).
pub const SAM: &str = "title { author { name } }";

/// The selective probe of `edit-stream`: authors of `RARE` titles on
/// Sam's view.
pub const Q_RARE: &str = "//title[contains(text(), 'RARE')]/author";

/// `served-mix` twig paths on Sam's view, each with its physical twin
/// (the `point` verb's paths). A fresh `served-mix` book adds exactly one
/// match to every one of them.
pub const SERVED_PATHS: [(&str, &str); 3] = [
    ("//title", "//book/title"),
    ("//author", "//book/author"),
    ("//name", "//book/author/name"),
];

/// SplitMix64: tiny, seedable and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Deals op kinds in shuffled decks of a fixed composition: every run
/// sees the workload's exact mix whatever its length, and the seed only
/// orders it. A freely drawn mix would move pooled percentiles from run
/// to run by its sampling error alone.
pub struct Deck {
    composition: Vec<(u8, usize)>,
    cards: Vec<u8>,
}

impl Deck {
    pub fn new(composition: &[(u8, usize)]) -> Deck {
        Deck {
            composition: composition.to_vec(),
            cards: Vec::new(),
        }
    }

    pub fn draw(&mut self, rng: &mut Rng) -> u8 {
        if self.cards.is_empty() {
            for &(card, n) in &self.composition {
                self.cards.extend(std::iter::repeat_n(card, n));
            }
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.below(i + 1));
            }
        }
        self.cards.pop().unwrap_or(0)
    }
}

/// Cycles through `n` choices, one per call.
#[derive(Default)]
struct Turn(usize);

impl Turn {
    fn next(&mut self, n: usize) -> usize {
        self.0 = (self.0 + 1) % n.max(1);
        self.0
    }
}

/// One operation the program receives.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// XPath over the physical document.
    Point { path: &'static str },
    /// XPath over a warm virtual view.
    Virtual {
        spec: &'static str,
        path: &'static str,
    },
    /// XPath over a virtual view with the compiled-view cache bypassed.
    Cold {
        spec: &'static str,
        path: &'static str,
    },
    /// Rhonda's FLWR query over Sam's view.
    Flwr,
    /// `virtual_structural_join` of titles and names on Sam's view.
    Sjoin,
    /// `twig_join` of `title(author(name))` on Sam's view.
    TwigJoin,
    /// One document edit.
    Edit(Edit),
}

impl Op {
    /// The latency class the op's time is pooled under.
    pub fn class(&self) -> Class {
        match self {
            Op::Point { .. } => Class::Point,
            Op::Virtual { .. } => Class::Virtual,
            Op::Cold { .. } => Class::Cold,
            Op::Flwr => Class::Flwr,
            Op::Sjoin | Op::TwigJoin => Class::Join,
            Op::Edit(_) => Class::Edit,
        }
    }

    /// The oracle key of a read op: ops with one key have one answer on
    /// one document state.
    pub fn key(&self) -> String {
        match self {
            Op::Point { path } => format!("point {path}"),
            Op::Virtual { spec, path } | Op::Cold { spec, path } => format!("view {spec} {path}"),
            Op::Flwr => "flwr".to_owned(),
            Op::Sjoin => "sjoin".to_owned(),
            Op::TwigJoin => "twigjoin".to_owned(),
            Op::Edit(e) => format!("edit {}", e.kind()),
        }
    }
}

/// Latency classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Point,
    Virtual,
    Flwr,
    Cold,
    Join,
    Edit,
}

impl Class {
    /// Point, virtual-path and FLWR ops form the `query_*` pool.
    pub fn is_query(self) -> bool {
        matches!(self, Class::Point | Class::Virtual | Class::Flwr)
    }
}

/// An op plus the answers the harness accepts for it. An empty `accept`
/// means the op is checked by its status alone (edits).
#[derive(Clone, Debug, PartialEq)]
pub struct Step {
    pub op: Op,
    pub accept: Vec<u64>,
}

/// Answers of every read op on the starting document, keyed by
/// [`Op::key`]; computed once at set-up by a cache-bypassed engine.
pub type Counts = BTreeMap<String, u64>;

fn accept_exact(counts: &Counts, op: &Op) -> Vec<u64> {
    counts.get(&op.key()).map(|&n| vec![n]).unwrap_or_default()
}

// ------------------------------------------------------------ served-mix ---

/// One `served-mix` client's stream: 50% point, 35% twig, 5% FLWR and
/// 10% edits. Edits alternate an insert of a fresh one-author book at the
/// front of the root with a delete of the root's first child. Every
/// client's inserted-but-not-yet-deleted book sits at the front, so a
/// delete always removes a fresh book, the original books are never
/// touched, and every count stays in `base + k` for `k` in
/// `0..=clients`, whatever the interleaving.
pub struct ServedMix {
    rng: Rng,
    deck: Deck,
    turn: Turn,
    client: usize,
    clients: usize,
    counts: Counts,
    holding: bool,
    inserted: u64,
}

impl ServedMix {
    pub fn new(seed: u64, client: usize, clients: usize, counts: &Counts) -> ServedMix {
        ServedMix {
            rng: Rng::new(seed ^ (0x5e7e_d000 + client as u64)),
            deck: Deck::new(&[(0, 10), (1, 7), (2, 1), (3, 2)]),
            turn: Turn::default(),
            client,
            clients,
            counts: counts.clone(),
            holding: false,
            inserted: 0,
        }
    }

    fn within_edits(&self, op: &Op) -> Vec<u64> {
        let base = self.counts.get(&op.key()).copied().unwrap_or(0);
        (0..=self.clients as u64).map(|k| base + k).collect()
    }

    pub fn next_step(&mut self) -> Step {
        let card = self.deck.draw(&mut self.rng);
        let pick = SERVED_PATHS[self.turn.next(SERVED_PATHS.len())];
        let op = if card == 0 {
            Op::Point { path: pick.1 }
        } else if card == 1 {
            Op::Virtual {
                spec: SAM,
                path: pick.0,
            }
        } else if card == 2 {
            Op::Flwr
        } else {
            let edit = if self.holding {
                Edit::DeleteSubtree {
                    uri: URI.to_owned(),
                    target: "1.1".to_owned(),
                }
            } else {
                self.inserted += 1;
                Edit::InsertSubtree {
                    uri: URI.to_owned(),
                    parent: "1".to_owned(),
                    pos: 0,
                    xml: format!(
                        "<book><title>Wire {}.{}</title><author><name>Client {}</name>\
                         </author><publisher><location>Oslo</location></publisher></book>",
                        self.client, self.inserted, self.client
                    ),
                }
            };
            self.holding = !self.holding;
            return Step {
                op: Op::Edit(edit),
                accept: Vec::new(),
            };
        };
        let accept = self.within_edits(&op);
        Step { op, accept }
    }
}

// ------------------------------------------------------------ view-query ---

/// The physical twin of each scenario query: the same question asked of
/// the physical document.
pub fn physical_twin(query: &str) -> &'static str {
    match query {
        "q_titles" | "q_by_location" => "//book/title",
        "q_rare" => "//book[contains(title, 'RARE')]/author",
        "q_name_authors" => "//book/author",
        "q_rare_names" => "//book[contains(title, 'RARE')]/author/name",
        "q_locations" => "//book/publisher/location",
        _ => "//book/author/name",
    }
}

/// Every `(spec, path, physical twin)` of the six book scenarios.
pub fn view_queries() -> Vec<(&'static str, &'static str, &'static str)> {
    let mut out = Vec::new();
    for s in vh_workload::book_scenarios() {
        for q in vh_workload::queries::book_queries(&s) {
            out.push((s.spec, q.xpath, physical_twin(q.name)));
        }
    }
    out
}

/// The read-only `view-query` stream: 45% virtual paths over all six
/// scenarios, 15% their physical twins, 10% Rhonda's FLWR, 20% joins
/// (half structural, half twig) and 10% cold opens. Every answer is
/// exact.
pub struct ViewQuery {
    rng: Rng,
    deck: Deck,
    turn: Turn,
    queries: Vec<(&'static str, &'static str, &'static str)>,
    counts: Counts,
}

impl ViewQuery {
    pub fn new(seed: u64, counts: &Counts) -> ViewQuery {
        ViewQuery {
            rng: Rng::new(seed ^ 0x0071_e3a0),
            deck: Deck::new(&[(0, 9), (1, 3), (2, 2), (3, 2), (4, 2), (5, 2)]),
            turn: Turn::default(),
            queries: view_queries(),
            counts: counts.clone(),
        }
    }

    pub fn next_step(&mut self) -> Step {
        let (spec, path, twin) = self.queries[self.turn.next(self.queries.len())];
        let op = match self.deck.draw(&mut self.rng) {
            0 => Op::Virtual { spec, path },
            1 => Op::Point { path: twin },
            2 => Op::Flwr,
            3 => Op::Sjoin,
            4 => Op::TwigJoin,
            _ => Op::Cold { spec, path },
        };
        let accept = accept_exact(&self.counts, &op);
        Step { op, accept }
    }
}

// ----------------------------------------------------------- edit-stream ---

/// What the edit stream tracks about one book.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Book {
    pub rare: bool,
    pub authors: u64,
}

/// The books of a corpus root, in document order.
pub fn books_of(doc: &Document) -> Vec<Book> {
    let Some(root) = doc.root() else {
        return Vec::new();
    };
    doc.children(root)
        .iter()
        .map(|&b| {
            let kids = doc.children(b);
            let rare = kids
                .iter()
                .find(|&&c| doc.name(c) == Some("title"))
                .map(|&t| {
                    doc.children(t)
                        .iter()
                        .any(|&x| doc.kind(x).text().is_some_and(|s| s.contains("RARE")))
                })
                .unwrap_or(false);
            let authors = kids
                .iter()
                .filter(|&&c| doc.name(c) == Some("author"))
                .count() as u64;
            Book { rare, authors }
        })
        .collect()
}

/// The `edit-stream` stream: edits at seeded positions, 35% insert, 35%
/// delete, 15% move and 15% set-value, with a selective probe
/// ([`Q_RARE`] on Sam's view) after every tenth edit on average. Inserts
/// and deletes
/// alternate around the starting book count, so the count stays within
/// one of it. The stream mirrors each book's shape, which gives every
/// probe its exact answer.
pub struct EditStream {
    rng: Rng,
    deck: Deck,
    books: Vec<Book>,
    start: usize,
    serial: u64,
}

impl EditStream {
    pub fn new(seed: u64, books: Vec<Book>) -> EditStream {
        EditStream {
            rng: Rng::new(seed ^ 0x00ed_1750),
            deck: Deck::new(&[(0, 14), (1, 3), (2, 3), (3, 2)]),
            start: books.len(),
            books,
            serial: 0,
        }
    }

    /// Books currently in the document.
    #[cfg(test)]
    pub fn book_count(&self) -> usize {
        self.books.len()
    }

    /// The probe's answer on the current document.
    pub fn rare_authors(&self) -> u64 {
        self.books
            .iter()
            .filter(|b| b.rare)
            .map(|b| b.authors)
            .sum()
    }

    pub fn next_step(&mut self) -> Step {
        let card = self.deck.draw(&mut self.rng);
        if card == 3 {
            return Step {
                op: Op::Virtual {
                    spec: SAM,
                    path: Q_RARE,
                },
                accept: vec![self.rare_authors()],
            };
        }
        self.serial += 1;
        let uri = URI.to_owned();
        let len = self.books.len();
        let edit = if card == 0 && (len <= self.start || len < 2) {
            let pos = self.rng.below(len + 1);
            let book = Book {
                rare: self.rng.below(10) == 0,
                authors: 1 + self.rng.below(3) as u64,
            };
            let mut xml = format!(
                "<book><title>{}Fresh {}</title>",
                if book.rare { "RARE " } else { "" },
                self.serial
            );
            for a in 0..book.authors {
                xml.push_str(&format!("<author><name>Fresh {a}</name></author>"));
            }
            xml.push_str("<publisher><location>Oslo</location></publisher></book>");
            self.books.insert(pos, book);
            Edit::InsertSubtree {
                uri,
                parent: "1".to_owned(),
                pos,
                xml,
            }
        } else if card == 0 {
            let k = self.rng.below(len);
            self.books.remove(k);
            Edit::DeleteSubtree {
                uri,
                target: format!("1.{}", k + 1),
            }
        } else if card == 1 {
            let k = self.rng.below(len);
            let pos = self.rng.below(len);
            let book = self.books.remove(k);
            self.books.insert(pos, book);
            Edit::MoveSubtree {
                uri,
                target: format!("1.{}", k + 1),
                parent: "1".to_owned(),
                pos,
            }
        } else {
            let k = self.rng.below(len);
            let rare = self.rng.below(10) == 0;
            self.books[k].rare = rare;
            Edit::SetValue {
                uri,
                target: format!("1.{}.1", k + 1),
                value: format!("{}Edited {}", if rare { "RARE " } else { "" }, self.serial),
            }
        };
        Step {
            op: Op::Edit(edit),
            accept: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vh_query::{Engine, QueryRequest};
    use vh_workload::{generate_books, BooksConfig};

    fn corpus(books: usize, seed: u64) -> Engine {
        let mut e = Engine::new();
        e.register(generate_books(
            URI,
            &BooksConfig {
                books,
                seed,
                ..BooksConfig::default()
            },
        ));
        e
    }

    fn count(e: &Engine, op: &Op) -> u64 {
        let req = match op {
            Op::Point { path } => QueryRequest::path(URI, *path),
            Op::Virtual { spec, path } => QueryRequest::virtual_path(URI, *spec, *path),
            other => panic!("not a path op: {other:?}"),
        };
        let out = e.run(&req).expect("query runs");
        out.nodes.map_or(0, |n| n.len() as u64)
    }

    fn served_counts(e: &Engine) -> Counts {
        let mut c = Counts::new();
        for (v, p) in SERVED_PATHS {
            for op in [Op::Virtual { spec: SAM, path: v }, Op::Point { path: p }] {
                c.insert(op.key(), count(e, &op));
            }
        }
        c
    }

    fn bytes(steps: &[Step]) -> Vec<u8> {
        steps
            .iter()
            .flat_map(|s| format!("{s:?}\n").into_bytes())
            .collect()
    }

    #[test]
    fn the_same_seed_deals_byte_identical_streams() {
        let e = corpus(20, 3);
        let books = books_of(e.document(URI).expect("registered").doc());
        let counts = served_counts(&e);
        let deal = |seed: u64| {
            let mut es = EditStream::new(seed, books.clone());
            let mut sm = ServedMix::new(seed, 1, 2, &counts);
            let mut vq = ViewQuery::new(seed, &counts);
            let mut steps = Vec::new();
            for _ in 0..300 {
                steps.push(es.next_step());
                steps.push(sm.next_step());
                steps.push(vq.next_step());
            }
            bytes(&steps)
        };
        assert_eq!(deal(7), deal(7));
        assert_ne!(deal(7), deal(8));
    }

    #[test]
    fn edit_stream_edits_apply_in_order_and_probes_match_the_engine() {
        let mut e = corpus(30, 11);
        let books = books_of(e.document(URI).expect("registered").doc());
        let start = books.len();
        let mut gen = EditStream::new(5, books);
        let (mut edits, mut probes) = (0, 0);
        for _ in 0..1500 {
            let step = gen.next_step();
            match step.op {
                Op::Edit(edit) => {
                    e.apply(edit).expect("every dealt edit applies");
                    edits += 1;
                }
                ref op => {
                    assert_eq!(vec![count(&e, op)], step.accept, "probe oracle");
                    probes += 1;
                }
            }
            let root = e.document(URI).and_then(|t| t.doc().root()).expect("root");
            let now = e
                .document(URI)
                .expect("registered")
                .doc()
                .children(root)
                .len();
            assert!(now.abs_diff(start) <= 1, "book count drifted to {now}");
            assert_eq!(now, gen.book_count());
        }
        assert!(
            edits > 1000 && probes > 80,
            "{edits} edits, {probes} probes"
        );
        assert_eq!(
            books_of(e.document(URI).expect("registered").doc()),
            gen.books,
            "the stream's mirror matches the edited document"
        );
    }

    #[test]
    fn served_mix_streams_stay_valid_and_bounded_under_any_interleaving() {
        let clients = 2;
        let mut e = corpus(12, 4);
        let counts = served_counts(&e);
        let start = 12;
        let mut gens: Vec<ServedMix> = (0..clients)
            .map(|c| ServedMix::new(9, c, clients, &counts))
            .collect();
        let mut order = Rng::new(1);
        for _ in 0..2000 {
            let c = order.below(clients);
            let step = gens[c].next_step();
            match &step.op {
                Op::Edit(edit) => {
                    e.apply(edit.clone()).expect("every dealt edit applies");
                }
                Op::Flwr => {}
                op => assert!(step.accept.contains(&count(&e, op)), "{op:?}"),
            }
            let root = e.document(URI).and_then(|t| t.doc().root()).expect("root");
            let now = e
                .document(URI)
                .expect("registered")
                .doc()
                .children(root)
                .len();
            assert!(
                (start..=start + clients).contains(&now),
                "{now} books after {step:?}"
            );
        }
    }

    #[test]
    fn view_query_answers_come_only_from_the_oracle_table() {
        let mut counts = Counts::new();
        counts.insert("flwr".to_owned(), 5);
        let mut vq = ViewQuery::new(1, &counts);
        let mut seen = 0;
        for _ in 0..500 {
            let step = vq.next_step();
            assert!(!matches!(step.op, Op::Edit(_)), "view-query is read-only");
            if step.op == Op::Flwr {
                assert_eq!(step.accept, vec![5]);
                seen += 1;
            } else {
                assert!(step.accept.is_empty(), "no table entry, no answer");
            }
        }
        assert!(seen > 20);
    }
}
