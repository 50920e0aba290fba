//! **F9 + UPD — the cost of mutation.**
//!
//! The first half keeps the paper contrast. §3: "Update renumbering
//! physically changes the PBN number for every node in an edit. In
//! contrast, vPBN does not change any physical node numbers …" — one
//! insertion at the front / middle / back of the corpus, the numbers it
//! invalidates, and the zero numbers a whole-hierarchy virtual
//! transformation rewrites.
//!
//! The second half prices the edit subsystem that builds on that
//! property, over one skewed random script (60% inserts, mostly at
//! position 0 — the gap-minting worst case):
//!
//! * **throughput** — ns/edit through `Engine::apply` (eager per-edit
//!   compaction) and `Engine::apply_all` at compaction thresholds 1024
//!   and 1. The gap between the two thresholds is the compaction cost.
//! * **post-edit query slowdown** — the same query suite on the edited
//!   engine vs an engine rebuilt from scratch on the final document.
//!   The binary enforces the ≤[`SLOWDOWN_BUDGET`]x acceptance bound
//!   itself (compaction allowed — the edited engine is drained), with
//!   up to [`ATTEMPTS`] rounds keeping the minimum ratio so a noisy
//!   runner retries while a real regression keeps failing.
//! * **space** — the edited key arena vs the rebuilt one, enforced
//!   against the paper's ≤[`SPACE_BUDGET`]x key-growth bound, plus the
//!   write-ahead log's bytes/edit (the WAL is linear in edits by
//!   design; it is reported, not bounded by the arena ratio).
//!
//! * **delta maintenance** — a vocabulary-preserving skewed stream (the
//!   same front-gap skew, but book-shaped inserts that never mint guide
//!   types) in writer-sized batches through an engine whose virtual
//!   views are warm. Every batch journals one merged delta in the
//!   `ExecCache` instead of evicting, and the view's next open replays
//!   it, so the suite prices (a) the per-edit cost of maintenance with
//!   a live view — each batch's `apply_all` plus one open of the view,
//!   which runs the catch-up (`update/cache_maintain`) — and (b) the
//!   warm-query latency the maintained views preserve
//!   (`update/cache_warm_query`),
//!   self-enforced against the ≤[`CACHE_WARM_BUDGET`]x bound: queries
//!   on views that lived through the stream may cost at most that
//!   multiple of warm queries on a never-edited engine holding the
//!   same final document. A second table times the edit side alone
//!   with one warm view and with all six book views warm: journaling
//!   does no per-view work, so the two should match.
//!
//! * **apply cost against document size** — a size-stable stream (book
//!   inserts and deletes in equal shares at uniform positions, plus
//!   book moves and title rewrites) through `Engine::apply` with Sam's
//!   view warm, on corpora of [`SCALING_BOOKS`] books
//!   (`update/apply/books=N`). The 6000/60 ratio is printed for
//!   information: an edit still pays O(document) work (the arena splice
//!   copies every key and rewrites the inverse slot map from the first
//!   changed slot on), so it is not yet bounded.
//!
//! Medians land in `BENCH_update.json`; the `update/apply/…` and
//! `update/cache_…` rows are gated against the committed baseline like
//! every other hot path.

use vh_bench::json::{BenchReport, BenchRow, CALIBRATION_ROW};
use vh_bench::opts::{BenchOpts, Profile};
use vh_bench::report::Table;
use vh_bench::timing::{calibration_ns, median_ns_per_call, ms, time};
use vh_core::VirtualDocument;
use vh_dataguide::TypedDocument;
use vh_pbn::update::{incremental_renumber, minimal_renumber_cost};
use vh_pbn::PbnAssignment;
use vh_query::api::{Edit, Engine, QueryRequest};
use vh_workload::{book_scenarios, generate_books, BooksConfig};
use vh_xml::{serialize, Document, NodeId, SerializeOptions};

/// Timing repetitions per query measurement; the median is reported.
const REPS: usize = 9;

/// Minimum wall time of one timed query repetition.
const MIN_REP: std::time::Duration = std::time::Duration::from_millis(2);

/// Acceptance bound: gated queries on the edited engine may cost at
/// most this multiple of the same queries on a fresh rebuild.
const SLOWDOWN_BUDGET: f64 = 1.25;

/// Acceptance bound: the edited key arena may occupy at most this
/// multiple of the rebuilt arena (the paper's key-growth bound).
const SPACE_BUDGET: f64 = 2.0;

/// Acceptance bound: warm virtual-view queries on an engine whose
/// cached views were *maintained* through the edit stream may cost at
/// most this multiple of warm queries on a never-edited engine holding
/// the same final document.
const CACHE_WARM_BUDGET: f64 = 1.10;

/// Edits per writer batch in the maintenance leg: large enough that
/// routing amortizes, small enough that the delta journal never
/// overflows into the eviction fallback.
const MAINTAIN_BATCH: usize = 64;

/// Length of the maintenance stream — the "1k-edit skewed stream" of
/// the acceptance bound, fixed across profiles so the bound always
/// prices the same workload.
const MAINTAIN_EDITS: usize = 1_000;

/// Corpus size for the maintenance leg, fixed across profiles. Large
/// enough that (a) the 1k-edit stream is a realistic fraction of the
/// document rather than a wholesale rewrite, and (b) each batch touches
/// far fewer nodes than the document keeps, so the journal's size cap
/// in `ExecCache::journal` keeps the maintenance path.
const MAINTAIN_BOOKS: usize = 2_000;

/// Corpus sizes of the apply-scaling rows, fixed across profiles.
const SCALING_BOOKS: [usize; 3] = [60, 600, 6_000];

/// Edits per scaling round, and rounds per size (the median round is
/// reported).
const SCALING_EDITS: usize = 300;
const SCALING_ROUNDS: usize = 3;

/// Measurement rounds for the warm-query bound. The contrast sits much
/// closer to its budget than the post-edit slowdown does (the minted
/// front-gap keys are a real, bounded cost), so it gets more retries
/// before a ratio above budget becomes a failure.
const CACHE_ATTEMPTS: usize = 6;

/// Measurement rounds before a ratio above budget becomes a failure.
const ATTEMPTS: usize = 3;

const URI: &str = "books.xml";

/// The query suite priced before/after the edit script.
const PATHS: &[&str] = &["//book", "//name", "//book/title"];

/// Sam's transformation — the virtual view the maintenance leg keeps
/// warm across the edit stream.
const SPEC: &str = "title { author { name } }";

/// The virtual-view query suite priced in the maintenance leg.
const VPATHS: &[&str] = &["//title", "//name", "//title/author"];

/// Splitmix-style generator so scripts are reproducible across runs.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Dotted 1-based child-index path of `n` — the `Edit` addressing scheme.
fn dotted_path(doc: &Document, n: NodeId) -> String {
    let mut steps = Vec::new();
    let mut cur = n;
    while let Some(p) = doc.parent(cur) {
        let idx = doc.children(p).iter().position(|&c| c == cur).unwrap() + 1;
        steps.push(idx);
        cur = p;
    }
    steps.push(1);
    steps.reverse();
    steps
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(".")
}

/// One skewed edit against the current document: 60% inserts (mostly at
/// position 0, the front-gap minting worst case), 20% value rewrites,
/// 10% deletes, 10% moves. `None` when the roll found no legal target.
fn skewed_edit(doc: &Document, rng: &mut Lcg) -> Option<Edit> {
    let elements: Vec<NodeId> = doc
        .preorder()
        .filter(|&n| doc.kind(n).is_element())
        .collect();
    let (op, a, b) = (rng.next(), rng.next() as usize, rng.next() as usize);
    let pick = |pool: &[NodeId], salt: usize| pool.get(salt % pool.len().max(1)).copied();
    let uri = URI.to_string();
    match op % 10 {
        0..=5 => {
            let parent = pick(&elements, a)?;
            let pos = if b % 4 != 0 {
                0
            } else {
                b % (doc.children(parent).len() + 1)
            };
            Some(Edit::InsertSubtree {
                uri,
                parent: dotted_path(doc, parent),
                pos,
                xml: format!("<note>n{b}</note>"),
            })
        }
        6 | 7 => {
            let target = pick(&elements, a.wrapping_add(b))?;
            Some(Edit::SetValue {
                uri,
                target: dotted_path(doc, target),
                value: format!("v{b}"),
            })
        }
        8 => {
            let target = pick(&elements[1.min(elements.len())..], a)?;
            Some(Edit::DeleteSubtree {
                uri,
                target: dotted_path(doc, target),
            })
        }
        _ => {
            let target = pick(&elements[1.min(elements.len())..], a)?;
            let dest = elements
                .iter()
                .copied()
                .cycle()
                .skip(b % elements.len().max(1))
                .take(elements.len())
                .find(|&p| p != target && !doc.is_ancestor(target, p))?;
            Some(Edit::MoveSubtree {
                uri,
                target: dotted_path(doc, target),
                parent: dotted_path(doc, dest),
                pos: 0,
            })
        }
    }
}

/// One vocabulary-preserving edit for the maintenance leg, with the
/// same front-gap skew as [`skewed_edit`]: 60% book inserts (mostly at
/// position 0 of the root — the minting worst case), 20% title value
/// rewrites, 20% book deletes. Every tag already exists in the corpus,
/// so the stream never mints guide types and the cache's maintenance
/// path — not the recompute fallback — absorbs it.
fn maintain_edit(doc: &Document, rng: &mut Lcg) -> Option<Edit> {
    let root = doc.root()?;
    let (op, a, b) = (rng.next(), rng.next() as usize, rng.next() as usize);
    let uri = URI.to_string();
    match op % 10 {
        0..=5 => {
            let pos = if b % 4 != 0 {
                0
            } else {
                b % (doc.children(root).len() + 1)
            };
            Some(Edit::InsertSubtree {
                uri,
                parent: "1".to_string(),
                pos,
                xml: format!(
                    "<book><title>Maint {b}</title><author><name>W{a}</name></author>\
                     <publisher><location>L</location></publisher></book>"
                ),
            })
        }
        6 | 7 => {
            let titles: Vec<NodeId> = doc
                .preorder()
                .filter(|&n| doc.name(n) == Some("title"))
                .collect();
            let t = titles.get(a % titles.len().max(1)).copied()?;
            Some(Edit::SetValue {
                uri,
                target: dotted_path(doc, t),
                value: format!("v{b}"),
            })
        }
        _ => {
            let books = doc.children(root);
            if books.len() <= 2 {
                return None;
            }
            let t = books[1 + a % (books.len() - 1)];
            Some(Edit::DeleteSubtree {
                uri,
                target: dotted_path(doc, t),
            })
        }
    }
}

/// One size-stable edit for the scaling rows: 35% book inserts and 35%
/// book deletes at uniform positions, 15% book moves, 15% title
/// rewrites. Every tag already exists, so no guide type is minted and
/// the warm view is maintained, never recomputed.
fn stable_edit(doc: &Document, rng: &mut Lcg) -> Option<Edit> {
    let root = doc.root()?;
    let books = doc.children(root);
    let (op, a, b) = (rng.next(), rng.next() as usize, rng.next() as usize);
    let uri = URI.to_string();
    match op % 20 {
        0..=6 => Some(Edit::InsertSubtree {
            uri,
            parent: "1".to_string(),
            pos: a % (books.len() + 1),
            xml: format!(
                "<book><title>Scale {b}</title><author><name>S{a}</name></author>\
                 <publisher><location>L</location></publisher></book>"
            ),
        }),
        7..=13 if books.len() > 2 => Some(Edit::DeleteSubtree {
            uri,
            target: format!("1.{}", 1 + a % books.len()),
        }),
        14..=16 if books.len() > 2 => Some(Edit::MoveSubtree {
            uri,
            target: format!("1.{}", 1 + a % books.len()),
            parent: "1".to_string(),
            pos: b % books.len(),
        }),
        17..=19 => {
            let book = *books.get(a % books.len().max(1))?;
            let title = doc.children(book).first().copied()?;
            Some(Edit::SetValue {
                uri,
                target: dotted_path(doc, title),
                value: format!("v{b}"),
            })
        }
        _ => None,
    }
}

/// Generates a script of `n` edits that all apply cleanly in sequence
/// from the base document (each edit is concretized against the state
/// its predecessors produced).
fn build_script(
    base_xml: &str,
    n: usize,
    seed: u64,
    gen: fn(&Document, &mut Lcg) -> Option<Edit>,
) -> Vec<Edit> {
    let mut engine = Engine::new();
    engine.register_xml(URI, base_xml).expect("base registers");
    let mut rng = Lcg(seed);
    let mut script = Vec::with_capacity(n);
    while script.len() < n {
        let Some(edit) = gen(engine.document(URI).unwrap().doc(), &mut rng) else {
            continue;
        };
        if engine.apply(edit.clone()).is_ok() {
            script.push(edit);
        }
    }
    script
}

/// Key-arena footprint: encoded key bytes plus the `u32` offset column.
fn arena_bytes(td: &TypedDocument) -> usize {
    let arena = td.pbn().arena();
    arena.total_key_bytes() + arena.offsets().len() * 4
}

/// Median ns/query over the whole path suite on one engine.
fn suite_ns(engine: &Engine) -> f64 {
    let (_, ns) = median_ns_per_call(REPS, MIN_REP, || {
        let mut total = 0usize;
        for p in PATHS {
            let res = engine.run(&QueryRequest::path(URI, *p)).unwrap();
            total += res.nodes.map_or(0, |n| n.len());
        }
        total
    });
    ns
}

/// Median ns over the virtual-view suite — the queries the maintained
/// cache serves.
fn virt_suite_ns(engine: &Engine) -> f64 {
    let (_, ns) = median_ns_per_call(REPS, MIN_REP, || {
        let mut total = 0usize;
        for p in VPATHS {
            let res = engine
                .run(&QueryRequest::virtual_path(URI, SPEC, *p))
                .unwrap();
            total += res.nodes.map_or(0, |n| n.len());
        }
        total
    });
    ns
}

fn main() {
    let opts = BenchOpts::from_env();

    // ------------------------------------------------- F9: the contrast ---
    let sizes: &[usize] = match opts.profile {
        Profile::Quick => &[1_000],
        Profile::Default => &[1_000, 10_000],
        Profile::Full => &[1_000, 10_000, 100_000],
    };
    let mut t = Table::new(
        "F9: numbers invalidated by one edit vs by a virtual transformation",
        &[
            "books",
            "nodes",
            "insert_at",
            "numbers_changed",
            "renumber_ms",
            "vpbn_numbers_changed",
            "vpbn_level_entries",
        ],
    );
    for &n in sizes {
        for at in ["front", "middle", "back"] {
            let mut doc = generate_books(URI, &BooksConfig::sized(n));
            let root = doc.root().unwrap();
            let before = PbnAssignment::assign(&doc);
            let pos = match at {
                "front" => 0,
                "middle" => doc.children(root).len() / 2,
                _ => doc.children(root).len(),
            };
            doc.insert_element(root, pos, "book");
            let expected = minimal_renumber_cost(&doc, root, pos);
            let (report, d) = time(|| incremental_renumber(&doc, &before, root));
            assert_eq!(report.changed, expected);

            // The vPBN column: opening Sam's view rewrites NO physical
            // numbers; its only new state is the per-type level-array map.
            let td = TypedDocument::analyze(doc.clone());
            let vd = VirtualDocument::open(&td, "title { author { name } }").unwrap();
            let level_entries: usize = vd.levels().heap_bytes() / 4;

            t.row(&[
                n.to_string(),
                td.doc().len().to_string(),
                at.to_string(),
                report.changed.to_string(),
                ms(d),
                "0".to_string(),
                level_entries.to_string(),
            ]);
        }
    }
    t.print();

    // ------------------------------------------- UPD: the edit subsystem ---
    let books = opts.books(60, 250, 600);
    let edits = match opts.profile {
        Profile::Quick => 1_500,
        Profile::Default | Profile::Full => 10_000,
    };
    let base_xml = serialize(
        &generate_books(URI, &BooksConfig::sized(books)),
        SerializeOptions::compact(),
    );
    let script = build_script(&base_xml, edits, 0x5eed, skewed_edit);

    let mut report = BenchReport::new("update");
    report.config("books", books);
    report.config("edits", edits);
    report.config("profile", opts.profile.name());
    report.config("threads", opts.threads);

    let fresh = || {
        let mut e = Engine::new();
        e.set_exec_options(opts.exec());
        e.register_xml(URI, &base_xml).expect("base registers");
        e
    };

    // Throughput: eager singles, then batches at two thresholds. The
    // threshold-1 batch compacts after every edit; its gap over the
    // threshold-1024 batch is the pure compaction cost.
    let mut singles = fresh();
    let (applied, d_single) = time(|| {
        script
            .iter()
            .filter(|e| singles.apply((*e).clone()).is_ok())
            .count()
    });
    assert_eq!(applied, script.len(), "generated scripts re-apply cleanly");
    let single_ns = d_single.as_nanos() as f64 / applied as f64;

    let mut batch = fresh();
    let (receipts, d_batch) = time(|| batch.apply_all(script.clone()).expect("batch applies"));
    let batch_compacted: usize = receipts.iter().map(|r| r.compacted).sum();
    let batch_ns = d_batch.as_nanos() as f64 / receipts.len() as f64;

    let mut churn = fresh();
    churn.set_compact_threshold(1);
    let (_, d_churn) = time(|| churn.apply_all(script.clone()).expect("batch applies"));
    let churn_ns = d_churn.as_nanos() as f64 / script.len() as f64;

    let mut t = Table::new(
        "UPD-a: ns/edit — apply (eager) vs apply_all (threshold 1024 / 1)",
        &[
            "edits",
            "apply_ns",
            "batch_ns",
            "churn_ns",
            "compaction_ns",
            "mid_batch_compactions",
        ],
    );
    t.row(&[
        applied.to_string(),
        format!("{single_ns:.0}"),
        format!("{batch_ns:.0}"),
        format!("{churn_ns:.0}"),
        format!("{:.0}", churn_ns - batch_ns),
        batch_compacted.to_string(),
    ]);
    t.print();

    report.push(
        BenchRow::new("update/apply/edit_ns", single_ns)
            .with("edits", applied as f64)
            .with("edits_per_s", 1e9 / single_ns),
    );
    report.push(
        BenchRow::new("update/apply_all/edit_ns", batch_ns)
            .with("edits_per_s", 1e9 / batch_ns)
            .with("mid_batch_compactions", batch_compacted as f64),
    );
    report.push(
        BenchRow::new("update/compact/edit_ns", churn_ns)
            .with("compaction_ns_per_edit", churn_ns - batch_ns),
    );

    // Post-edit slowdown: the suite on the lived-in engine vs a rebuild.
    let final_xml = serialize(
        singles.document(URI).expect("registered").doc(),
        SerializeOptions::compact(),
    );
    let mut rebuilt = fresh();
    rebuilt
        .register_xml(URI, &final_xml)
        .expect("rebuild registers");
    let mut t = Table::new(
        "UPD-b: ns/query-suite — edited engine vs fresh rebuild",
        &["attempt", "edited_ns", "rebuilt_ns", "slowdown_x"],
    );
    let mut best = f64::INFINITY;
    let (mut best_edited, mut best_rebuilt) = (0.0, 0.0);
    for attempt in 1..=ATTEMPTS {
        let edited_ns = suite_ns(&singles);
        let rebuilt_ns = suite_ns(&rebuilt);
        let x = edited_ns / rebuilt_ns.max(1.0);
        t.row(&[
            attempt.to_string(),
            format!("{edited_ns:.0}"),
            format!("{rebuilt_ns:.0}"),
            format!("{x:.3}"),
        ]);
        if x < best {
            best = x;
            best_edited = edited_ns;
            best_rebuilt = rebuilt_ns;
        }
        if best <= SLOWDOWN_BUDGET {
            break;
        }
    }
    t.print();
    report
        .push(BenchRow::new("update/query/edited", best_edited).with("post_edit_slowdown_x", best));
    report.push(BenchRow::new("update/query/rebuilt", best_rebuilt));

    // Space: the minted arena vs the rebuilt one, and the log itself.
    let edited_arena = arena_bytes(singles.document(URI).expect("registered"));
    let rebuilt_arena = arena_bytes(rebuilt.document(URI).expect("registered"));
    let arena_x = edited_arena as f64 / rebuilt_arena.max(1) as f64;
    let wal_bytes = singles.wal_bytes().len();
    let wal_per_edit = wal_bytes as f64 / applied as f64;
    let mut t = Table::new(
        "UPD-c: space — edited arena vs rebuilt, and the write-ahead log",
        &[
            "edited_arena_B",
            "rebuilt_arena_B",
            "arena_x",
            "wal_B",
            "wal_B_per_edit",
        ],
    );
    t.row(&[
        edited_arena.to_string(),
        rebuilt_arena.to_string(),
        format!("{arena_x:.3}"),
        wal_bytes.to_string(),
        format!("{wal_per_edit:.1}"),
    ]);
    t.print();
    report.push(
        BenchRow::new("update/space/arena_bytes", edited_arena as f64)
            .with("arena_growth_x", arena_x)
            .with("rebuilt_arena_bytes", rebuilt_arena as f64),
    );
    report.push(
        BenchRow::new("update/space/wal_bytes", wal_bytes as f64)
            .with("wal_bytes_per_edit", wal_per_edit),
    );

    // ---------------------------------------- UPD-d: delta maintenance ---
    // A vocabulary-preserving skewed stream against warm virtual views:
    // every `apply_all` batch journals one merged delta in the cache,
    // and the next open of the view replays it, splicing the view in
    // place. Each batch is timed with that open, so the row prices the
    // whole maintenance, edit side and catch-up; an interleaved reader
    // (one suite pass per batch, untimed) keeps the view hot the way a
    // concurrent reader does. The leg runs on its own
    // profile-independent corpus (see [`MAINTAIN_BOOKS`]).
    let m_base_xml = serialize(
        &generate_books(URI, &BooksConfig::sized(MAINTAIN_BOOKS)),
        SerializeOptions::compact(),
    );
    let m_script = build_script(&m_base_xml, MAINTAIN_EDITS, 0xcac4e, maintain_edit);
    let mut maintained = Engine::new();
    maintained.set_exec_options(opts.exec());
    maintained
        .register_xml(URI, &m_base_xml)
        .expect("maintenance base registers");
    for p in VPATHS {
        maintained
            .run(&QueryRequest::virtual_path(URI, SPEC, *p))
            .expect("warm query runs");
    }
    let (mut edit_ns_total, mut catch_up_ns_total) = (0u128, 0u128);
    for chunk in m_script.chunks(MAINTAIN_BATCH) {
        let (_, d) = time(|| maintained.apply_all(chunk.to_vec()).expect("batch applies"));
        edit_ns_total += d.as_nanos();
        let (_, d) = time(|| {
            maintained
                .virtual_doc(URI, SPEC)
                .map(|_| ())
                .expect("view opens")
        });
        catch_up_ns_total += d.as_nanos();
        for p in VPATHS {
            maintained
                .run(&QueryRequest::virtual_path(URI, SPEC, *p))
                .expect("reader query runs");
        }
    }
    let per_edit = |ns: u128| ns as f64 / m_script.len() as f64;
    let (edit_ns, catch_up_ns) = (per_edit(edit_ns_total), per_edit(catch_up_ns_total));
    let maintain_ns = edit_ns + catch_up_ns;
    let snap = maintained.snapshot().cache;

    // Warm-query contrast: the engine whose views lived through the
    // stream vs a never-edited engine registered with the same final
    // document. Both are warm; the minimum ratio over the attempts is
    // kept so runner noise retries while a real regression keeps
    // failing.
    let m_final_xml = serialize(
        maintained.document(URI).expect("registered").doc(),
        SerializeOptions::compact(),
    );
    let mut pristine = Engine::new();
    pristine.set_exec_options(opts.exec());
    pristine
        .register_xml(URI, &m_final_xml)
        .expect("rebuild registers");
    // Pre-warm both engines (views, allocator, branch predictors)
    // before anything is timed.
    for _ in 0..2 {
        let _ = virt_suite_ns(&maintained);
        let _ = virt_suite_ns(&pristine);
    }
    let mut t = Table::new(
        "UPD-d: delta maintenance — ns/edit with warm views, and the warm suite after",
        &["attempt", "maintained_ns", "pristine_ns", "warm_x"],
    );
    let mut warm_best = f64::INFINITY;
    let (mut warm_edited, mut warm_pristine) = (0.0, 0.0);
    for attempt in 1..=CACHE_ATTEMPTS {
        let edited_ns = virt_suite_ns(&maintained);
        let pristine_ns = virt_suite_ns(&pristine);
        let x = edited_ns / pristine_ns.max(1.0);
        t.row(&[
            attempt.to_string(),
            format!("{edited_ns:.0}"),
            format!("{pristine_ns:.0}"),
            format!("{x:.3}"),
        ]);
        if x < warm_best {
            warm_best = x;
            warm_edited = edited_ns;
            warm_pristine = pristine_ns;
        }
        if warm_best <= CACHE_WARM_BUDGET {
            break;
        }
    }
    t.print();
    let mut t = Table::new(
        "UPD-d: maintenance per edit (apply_all + the view's catch-up) and counters",
        &[
            "edits",
            "maintain_ns_per_edit",
            "edit_ns",
            "catch_up_ns",
            "maintained",
            "recomputed",
            "fallback_evictions",
        ],
    );
    t.row(&[
        m_script.len().to_string(),
        format!("{maintain_ns:.0}"),
        format!("{edit_ns:.0}"),
        format!("{catch_up_ns:.0}"),
        snap.maintained.to_string(),
        snap.recomputed.to_string(),
        snap.fallback_evictions.to_string(),
    ]);
    t.print();

    // The edit side alone, with one warm view and with every book view
    // warm: an edit journals its batch once per URI, whatever is cached.
    let mut t = Table::new(
        "UPD-d: apply_all ns/edit by warm views (no reads)",
        &["warm_views", "edit_ns"],
    );
    for specs in [
        vec![SPEC],
        book_scenarios().iter().map(|s| s.spec).collect(),
    ] {
        let mut e = Engine::new();
        e.set_exec_options(opts.exec());
        e.register_xml(URI, &m_base_xml)
            .expect("maintenance base registers");
        for spec in &specs {
            e.virtual_doc(URI, spec).expect("warm view opens");
        }
        let (_, d) = time(|| {
            for chunk in m_script.chunks(MAINTAIN_BATCH) {
                e.apply_all(chunk.to_vec()).expect("batch applies");
            }
        });
        t.row(&[
            specs.len().to_string(),
            format!("{:.0}", per_edit(d.as_nanos())),
        ]);
    }
    t.print();

    report.push(
        BenchRow::new("update/cache_maintain/edit_ns", maintain_ns)
            .with("edits_per_s", 1e9 / maintain_ns)
            .with("apply_ns", edit_ns)
            .with("catch_up_ns", catch_up_ns)
            .with("views_maintained", snap.maintained as f64)
            .with("views_recomputed", snap.recomputed as f64)
            .with("fallback_evictions", snap.fallback_evictions as f64),
    );
    report.push(
        BenchRow::new("update/cache_warm_query/edited", warm_edited)
            .with("warm_slowdown_x", warm_best),
    );
    report.push(BenchRow::new(
        "update/cache_warm_query/rebuilt",
        warm_pristine,
    ));

    // ----------------------------- UPD-e: apply cost against document size ---
    let mut t = Table::new(
        "UPD-e: ns/edit through apply with Sam's view warm, by corpus size",
        &["books", "nodes", "edits", "apply_ns"],
    );
    let mut scaling_ns = Vec::with_capacity(SCALING_BOOKS.len());
    for books in SCALING_BOOKS {
        let xml = serialize(
            &generate_books(URI, &BooksConfig::sized(books)),
            SerializeOptions::compact(),
        );
        let script = build_script(&xml, SCALING_EDITS, 0x5ca1e, stable_edit);
        let mut nodes = 0;
        let mut rounds: Vec<f64> = (0..SCALING_ROUNDS)
            .map(|_| {
                let mut e = Engine::new();
                e.set_exec_options(opts.exec());
                e.register_xml(URI, &xml).expect("scaling base registers");
                nodes = e.document(URI).expect("registered").pbn().len();
                for p in VPATHS {
                    e.run(&QueryRequest::virtual_path(URI, SPEC, *p))
                        .expect("warm query runs");
                }
                let (applied, d) = time(|| {
                    script
                        .iter()
                        .filter(|ed| e.apply((*ed).clone()).is_ok())
                        .count()
                });
                assert_eq!(applied, script.len(), "generated scripts re-apply cleanly");
                d.as_nanos() as f64 / applied as f64
            })
            .collect();
        rounds.sort_by(f64::total_cmp);
        let ns = rounds[rounds.len() / 2];
        t.row(&[
            books.to_string(),
            nodes.to_string(),
            script.len().to_string(),
            format!("{ns:.0}"),
        ]);
        report.push(
            BenchRow::new(format!("update/apply/books={books}"), ns)
                .with("nodes", nodes as f64)
                .with("edits_per_s", 1e9 / ns),
        );
        scaling_ns.push(ns);
    }
    t.print();
    let scaling_x = scaling_ns[2] / scaling_ns[0].max(1.0);
    println!(
        "apply scaling: {} books cost {scaling_x:.2}x the per-edit time of {} books \
         (informational; the O(edit) target of <= 2x is not met while an edit \
         still pays O(document) work: the arena splice copies every key, and \
         rewrites the inverse slot map from the first changed slot on)",
        SCALING_BOOKS[2], SCALING_BOOKS[0]
    );

    report.push(BenchRow::new(CALIBRATION_ROW, calibration_ns()));

    if let Some(dir) = &opts.json_dir {
        match report.write_to(dir) {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: writing report: {e}");
                std::process::exit(3);
            }
        }
    }

    let mut failed = false;
    if best > SLOWDOWN_BUDGET {
        eprintln!(
            "error: post-edit query slowdown {best:.3}x exceeds the {SLOWDOWN_BUDGET}x \
             acceptance bound after {ATTEMPTS} attempts"
        );
        failed = true;
    }
    if arena_x > SPACE_BUDGET {
        eprintln!(
            "error: edited arena is {arena_x:.3}x the rebuilt arena, over the \
             {SPACE_BUDGET}x key-growth bound"
        );
        failed = true;
    }
    if warm_best > CACHE_WARM_BUDGET {
        eprintln!(
            "error: warm queries on maintained views run at {warm_best:.3}x the never-edited \
             warm baseline, over the {CACHE_WARM_BUDGET}x acceptance bound after \
             {CACHE_ATTEMPTS} attempts"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "acceptance: after {applied} skewed edits queries run at {best:.3}x a fresh rebuild \
         (bound {SLOWDOWN_BUDGET}x), the arena sits at {arena_x:.3}x (bound {SPACE_BUDGET}x), \
         warm maintained views at {warm_best:.3}x (bound {CACHE_WARM_BUDGET}x, \
         {} views spliced in place); the log costs {wal_per_edit:.1} B/edit",
        snap.maintained
    );
}
