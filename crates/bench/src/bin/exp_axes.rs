//! **F2 — axis-predicate latency: PBN vs vPBN.** The core claim of §5:
//! every location relationship is decided by comparing numbers, and the
//! level array adds only a bounded constant factor.
//!
//! Method: (x, y) node pairs of two types from the books corpus are
//! checked with (a) the physical predicates on raw PBN numbers and (b) the
//! virtual predicates on vPBN numbers under Sam's transformation. vPBN
//! references (number + per-type level array + virtual type) are resolved
//! once outside the timed loop, exactly as a query processor would hold
//! them in its operators. The cross product is capped at [`PAIR_CAP`]
//! pairs via a deterministic stride so large corpora stay in memory.
//! Reported time is nanoseconds per check.
//!
//! The check loop runs through `vh_core::exec::par_count`, the same
//! partition/merge primitive the query operators use, so `--threads N`
//! measures the real parallel axis-filter path (`--scaling 1,2,4,8`
//! sweeps additional thread counts as ungated rows). `--json <dir>`
//! writes `BENCH_axes.json` for the CI bench gate; `axes/axis/…` rows are
//! gated, `scaling/…` and `cache/…` rows are informational.

use std::time::Instant;
use vh_bench::json::{BenchReport, BenchRow, CALIBRATION_ROW};
use vh_bench::opts::BenchOpts;
use vh_bench::report::Table;
use vh_bench::timing::{calibration_ns, median_ns_per_call};
use vh_core::exec::{self, ExecOptions};
use vh_core::vpbn::VPbnRef;
use vh_core::{axes as vax, VirtualDocument};
use vh_dataguide::TypedDocument;
use vh_pbn::{axes as pax, Pbn};
use vh_query::Engine;
use vh_workload::{generate_books, BooksConfig};

/// Upper bound on materialized (x, y) pairs; beyond it a deterministic
/// stride subsamples the cross product (same pairs on every run).
const PAIR_CAP: usize = 1_000_000;

/// Timing repetitions per measurement; the median is reported. Each
/// repetition is calibrated to last at least [`MIN_REP`] (see
/// `vh_bench::timing::median_ns_per_call`) so the sub-5ns checks are
/// not swamped by scheduler noise on shared cores.
const REPS: usize = 9;

/// Minimum wall time of one timed repetition.
const MIN_REP: std::time::Duration = std::time::Duration::from_millis(2);

const SPEC: &str = "title { author { name } }";

fn main() {
    let opts = BenchOpts::from_env();
    let books = opts.books(40, 150, 400);
    let cfg = BooksConfig {
        books,
        max_authors: 3,
        ..BooksConfig::default()
    };
    let td = TypedDocument::analyze(generate_books("books.xml", &cfg));
    let vd = VirtualDocument::open(&td, SPEC).unwrap();

    let title_vt = vd.vdg().guide().lookup_path(&["title"]).unwrap();
    let name_vt = vd
        .vdg()
        .guide()
        .lookup_path(&["title", "author", "name"])
        .unwrap();
    let titles = vd.nodes_of_vtype(title_vt).to_vec();
    let names = vd.nodes_of_vtype(name_vt).to_vec();

    // Deterministic stride over the flattened cross product: pair k is
    // (titles[k / names], names[k % names]), so every run of a given
    // corpus measures exactly the same pairs.
    let total = titles.len() * names.len();
    let stride = total.div_ceil(PAIR_CAP).max(1);
    let pbn = td.pbn();
    let vdr = &vd;
    // Physical numbers are decoded once up front: the PBN rows measure the
    // component-form predicates, not the decode.
    let phys_pairs: Vec<(Pbn, Pbn)> = (0..total)
        .step_by(stride)
        .map(|k| {
            (
                pbn.pbn_of(titles[k / names.len()]),
                pbn.pbn_of(names[k % names.len()]),
            )
        })
        .collect();
    let virt_pairs: Vec<(VPbnRef<'_>, VPbnRef<'_>)> = (0..total)
        .step_by(stride)
        .map(|k| {
            (
                vdr.vpbn_of(titles[k / names.len()]).unwrap(),
                vdr.vpbn_of(names[k % names.len()]).unwrap(),
            )
        })
        .collect();
    println!(
        "corpus: {} books, {} titles x {} names = {} pairs (stride {}, {} measured)\n",
        books,
        titles.len(),
        names.len(),
        total,
        stride,
        phys_pairs.len()
    );

    let mut report = BenchReport::new("axes");
    report.config("books", books);
    report.config("pairs", phys_pairs.len());
    report.config("profile", opts.profile.name());
    report.config("threads", opts.threads);

    let mut t = Table::new(
        "F2: per-check latency (ns), physical PBN vs virtual vPBN",
        &[
            "axis",
            "threads",
            "pbn_ns",
            "vpbn_ns",
            "overhead_x",
            "pbn_hits",
            "vpbn_hits",
        ],
    );

    let vdg = vd.vdg();
    for threads in opts.thread_set() {
        let ex = ExecOptions::with_threads(threads);
        let gated = threads == opts.threads;
        macro_rules! measure {
            ($name:expr, $phys:expr, $virt:expr) => {{
                let name = $name;
                let (p_ns, p_hits) = time_count(&ex, &phys_pairs, |(a, b)| $phys(a, b));
                let (v_ns, v_hits) = time_count(&ex, &virt_pairs, |(a, b)| $virt(a, b));
                t.row(&[
                    name.to_string(),
                    threads.to_string(),
                    format!("{p_ns:.1}"),
                    format!("{v_ns:.1}"),
                    format!("{:.2}", v_ns / p_ns.max(0.001)),
                    p_hits.to_string(),
                    v_hits.to_string(),
                ]);
                // Gated rows keep the stable `axes/axis/…` prefix; scaling
                // sweeps are informational and must never fail the gate.
                let prefix = if gated {
                    format!("axes/axis/{name}")
                } else {
                    format!("scaling/axes/{name}")
                };
                report.push(
                    BenchRow::new(format!("{prefix}/pbn/t{threads}"), p_ns)
                        .with("threads", threads as f64)
                        .with("hits", p_hits as f64),
                );
                report.push(
                    BenchRow::new(format!("{prefix}/vpbn/t{threads}"), v_ns)
                        .with("threads", threads as f64)
                        .with("hits", v_hits as f64),
                );
            }};
        }

        measure!("self", pax::is_self, |a, b| vax::v_self(vdg, a, b));
        measure!("ancestor", pax::is_ancestor, |a, b| vax::v_ancestor(
            vdg, a, b
        ));
        measure!("parent", pax::is_parent, |a, b| vax::v_parent(vdg, a, b));
        measure!("descendant", |a, b| pax::is_descendant(b, a), |a, b| {
            vax::v_descendant(vdg, b, a)
        });
        measure!("child", |a, b| pax::is_child(b, a), |a, b| vax::v_child(
            vdg, b, a
        ));
        measure!(
            "descendant-or-self",
            |a, b| pax::is_descendant_or_self(b, a),
            |a, b| vax::v_descendant_or_self(vdg, b, a)
        );
        measure!("preceding", pax::is_preceding, |a, b| vax::v_preceding(
            vdg, a, b
        ));
        measure!("following", pax::is_following, |a, b| vax::v_following(
            vdg, a, b
        ));
        measure!("preceding-sibling", pax::is_preceding_sibling, |a, b| {
            vax::v_preceding_sibling(vdg, a, b)
        });
        measure!("following-sibling", pax::is_following_sibling, |a, b| {
            vax::v_following_sibling(vdg, a, b)
        });
    }
    t.print();
    println!(
        "note: the physical and virtual predicates answer different questions\n\
         (original vs transformed hierarchy) — hit counts differ by design;\n\
         the claim under test is the per-check cost ratio.\n"
    );

    axis_scan_demo(&opts, &td, &mut report);

    cache_demo(&opts, &cfg, &mut report);

    // Machine-speed reference: lets the gate cancel host-contention
    // swings between this run and the committed baseline.
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
}

/// Times `par_count` over `pairs` with calibrated repetitions, returning
/// the median nanoseconds per check and the (repetition-stable) hit
/// count.
fn time_count<T: Sync>(
    ex: &ExecOptions,
    pairs: &[T],
    pred: impl Fn(&T) -> bool + Sync,
) -> (f64, usize) {
    let (hits, ns_per_scan) = median_ns_per_call(REPS, MIN_REP, || {
        exec::par_count(ex, pairs, |p| std::hint::black_box(pred(p)))
    });
    (ns_per_scan / pairs.len().max(1) as f64, hits)
}

/// Arena range-scan axis *evaluation* vs the O(N) predicate oracle:
/// `descendants_of_type` resolves the context's related prefix once and
/// binary-searches the byte-range of the type index, while the `_filter`
/// oracle runs the §5 predicate over every node of the target type. Rows
/// `axes/axis/descendant-range/…` are gated at the configured thread
/// count; `oracle/…` and `scaling/…` rows are informational.
fn axis_scan_demo(opts: &BenchOpts, td: &TypedDocument, report: &mut BenchReport) {
    let mut t = Table::new(
        "F2b: descendant axis evaluation (ns/context) — arena range scan vs predicate scan",
        &["threads", "contexts", "range_ns", "filter_ns", "speedup_x"],
    );
    for threads in opts.thread_set() {
        let mut vd = VirtualDocument::open(td, SPEC).unwrap();
        vd.set_exec(ExecOptions::with_threads(threads));
        vd.build_prefix_tables();
        let title_vt = vd.vdg().guide().lookup_path(&["title"]).unwrap();
        let name_vt = vd
            .vdg()
            .guide()
            .lookup_path(&["title", "author", "name"])
            .unwrap();
        let contexts = vd.nodes_of_vtype(title_vt).to_vec();
        let per_ctx = |ns: f64| ns / contexts.len().max(1) as f64;
        let (range_hits, range_ns) = median_ns_per_call(REPS, MIN_REP, || {
            contexts
                .iter()
                .map(|&x| vd.descendants_of_type(x, name_vt).len())
                .sum::<usize>()
        });
        let (filter_hits, filter_ns) = median_ns_per_call(REPS, MIN_REP, || {
            contexts
                .iter()
                .map(|&x| vd.descendants_of_type_filter(x, name_vt).len())
                .sum::<usize>()
        });
        assert_eq!(range_hits, filter_hits, "range scan matches the oracle");
        t.row(&[
            threads.to_string(),
            contexts.len().to_string(),
            format!("{:.0}", per_ctx(range_ns)),
            format!("{:.0}", per_ctx(filter_ns)),
            format!("{:.1}", filter_ns / range_ns.max(0.001)),
        ]);
        let prefix = if threads == opts.threads {
            "axes/axis/descendant-range".to_string()
        } else {
            "scaling/axes/descendant-range".to_string()
        };
        report.push(
            BenchRow::new(format!("{prefix}/t{threads}"), per_ctx(range_ns))
                .with("threads", threads as f64)
                .with("hits", range_hits as f64),
        );
        report.push(
            BenchRow::new(
                format!("oracle/axes/descendant-filter/t{threads}"),
                per_ctx(filter_ns),
            )
            .with("threads", threads as f64)
            .with("hits", filter_hits as f64),
        );
    }
    t.print();
}

/// Cold vs warm compiled-view open through the engine cache: the warm
/// open reuses the cached vDataGuide expansion, level-array map and
/// prefix tables. Rows are `cache/…` — informational, never gated.
fn cache_demo(opts: &BenchOpts, cfg: &BooksConfig, report: &mut BenchReport) {
    let mut engine = Engine::new();
    engine.set_exec_options(opts.exec());
    engine.register(generate_books("books.xml", cfg));

    let open_ns = || {
        let start = Instant::now();
        let vd = engine.virtual_doc("books.xml", SPEC).unwrap();
        std::hint::black_box(vd.visible_nodes());
        start.elapsed().as_secs_f64() * 1e9
    };
    let cold = open_ns();
    let warm = open_ns();
    let stats = engine.snapshot().cache;

    let mut t = Table::new(
        "cache: compiled-view open, cold vs warm",
        &["open", "ns", "hits", "misses"],
    );
    t.row(&[
        "cold".into(),
        format!("{cold:.0}"),
        "0".into(),
        stats.total_misses().to_string(),
    ]);
    t.row(&[
        "warm".into(),
        format!("{warm:.0}"),
        stats.total_hits().to_string(),
        stats.total_misses().to_string(),
    ]);
    t.print();
    if opts.cache {
        println!(
            "speedup: warm open is {:.1}x faster than cold (cache on)",
            cold / warm.max(1.0)
        );
    } else {
        println!("cache off: both opens recompile the view");
    }
    report.push(BenchRow::new("cache/open/cold", cold).with("misses", stats.total_misses() as f64));
    report.push(BenchRow::new("cache/open/warm", warm).with("hits", stats.total_hits() as f64));
}
