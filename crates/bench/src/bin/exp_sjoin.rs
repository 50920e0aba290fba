//! **F6 — structural joins, physical vs virtual.** The Stack-Tree join is
//! the workhorse of PBN query processors; vPBN's claim is that the same
//! one-pass algorithm runs on virtual hierarchies by swapping the
//! comparator and the containment predicate. The nested-loop join bounds
//! what a system without order/containment reasoning would pay.
//!
//! `--threads N` runs both stack joins through the chunked parallel
//! Stack-Tree (`physical_structural_join_opts` / the view's
//! [`ExecOptions`]); outputs are byte-identical at every thread count.
//! `--json <dir>` writes `BENCH_sjoin.json`; `sjoin/…` rows are
//! informational by default (the CI gate fails only on the `axes/axis/…`
//! and `twig/…` hot paths).
//!
//! The virtual join reads the view's cached order column, so its rows
//! time warm joins; the one-off column build on a fresh view is printed
//! beside them (`column_us`). The run exits 1 when the virtual join
//! takes more than [`VIRT_PHYS_BOUND`] times the physical one at any
//! corpus size or thread count: vPBN's claimed cost over PBN is modest.
//!
//! One informational line follows for a view under join multiplicity,
//! where a title sits under every author of its book: the same merge
//! over its placements (names x titles), timed beside the nested loop
//! it must equal.

use vh_bench::json::{BenchReport, BenchRow, CALIBRATION_ROW};
use vh_bench::opts::{BenchOpts, Profile};
use vh_bench::report::Table;
use vh_core::{ExecOptions, VirtualDocument};
use vh_dataguide::TypedDocument;
use vh_query::sjoin::{nested_loop_join, physical_structural_join_opts, virtual_structural_join};
use vh_workload::{generate_books, BooksConfig};

/// Sam's view: titles own their authors and names.
const SPEC: &str = "title { author { name } }";

/// Join multiplicity: a title is placed under each author of its book.
const MULTIPLICITY_SPEC: &str = "name { author { title } }";

/// The most a virtual structural join may cost over its physical twin.
const VIRT_PHYS_BOUND: f64 = 3.0;

fn main() {
    let opts = BenchOpts::from_env();
    let sizes: Vec<usize> = match (opts.books, opts.profile) {
        (Some(n), _) => vec![n],
        (None, Profile::Quick) => vec![100, 1_000],
        (None, Profile::Default) => vec![100, 1_000, 10_000],
        (None, Profile::Full) => vec![100, 1_000, 10_000, 50_000],
    };

    let mut report = BenchReport::new("sjoin");
    report.config("sizes", format!("{sizes:?}"));
    report.config("profile", opts.profile.name());
    report.config("threads", opts.threads);

    let mut t = Table::new(
        "F6: structural join — books x names (physical), titles x names (virtual)",
        &[
            "books",
            "threads",
            "anc",
            "desc",
            "pairs",
            "phys_stack_us",
            "virt_stack_us",
            "virt_phys_x",
            "column_us",
            "virt_nested_us",
            "stack_vs_nested_x",
        ],
    );
    let mut over_bound = Vec::new();
    for &n in &sizes {
        let td = TypedDocument::analyze(generate_books("books.xml", &BooksConfig::sized(n)));
        let mut vd = VirtualDocument::open(&td, SPEC).unwrap();
        // The order column's one-off build: a fresh view's open plus its
        // first column, less the open alone.
        let (open_us, _) = time_us(3, || {
            VirtualDocument::open(&td, SPEC).unwrap().visible_nodes()
        });
        let (open_column_us, _) = time_us(3, || {
            let fresh = VirtualDocument::open(&td, SPEC).unwrap();
            fresh.order_column().len()
        });
        let column_us = (open_column_us - open_us).max(0.0);

        // Physical: book ancestors, name descendants.
        let book_t = td.guide().lookup_path(&["data", "book"]).unwrap();
        let name_t = td
            .guide()
            .lookup_path(&["data", "book", "author", "name"])
            .unwrap();
        let books = td.nodes_of_type(book_t);
        let names = td.nodes_of_type(name_t);

        // Virtual: title ancestors, name descendants (same cardinalities).
        let title_vt = vd.vdg().guide().lookup_path(&["title"]).unwrap();
        let name_vt = vd
            .vdg()
            .guide()
            .lookup_path(&["title", "author", "name"])
            .unwrap();
        let vtitles = vd.nodes_of_vtype(title_vt).to_vec();
        let vnames = vd.nodes_of_vtype(name_vt).to_vec();

        // Nested-loop baseline only at sizes where it finishes promptly
        // (measured once per size; it has no parallel path).
        let (nl_us, nl_pairs) = if n <= 10_000 {
            let vdg = vd.vdg();
            let vdr = &vd;
            time_us(2, || {
                nested_loop_join(&vtitles, &vnames, &|a, d| {
                    vh_core::axes::v_ancestor(
                        vdg,
                        &vdr.vpbn_of(a).unwrap(),
                        &vdr.vpbn_of(d).unwrap(),
                    )
                })
                .len()
            })
        } else {
            (f64::NAN, 0)
        };

        for threads in opts.thread_set() {
            let ex = ExecOptions::with_threads(threads);
            vd.set_exec(ex);
            let (p_us, p_pairs) = time_us(5, || {
                physical_structural_join_opts(&td, books, names, &ex).len()
            });
            let (v_us, v_pairs) =
                time_us(5, || virtual_structural_join(&vd, &vtitles, &vnames).len());
            assert_eq!(p_pairs, v_pairs, "both joins pair every name once");
            if !nl_us.is_nan() {
                assert_eq!(nl_pairs, v_pairs);
            }
            let virt_phys_x = v_us / p_us.max(0.001);
            if virt_phys_x > VIRT_PHYS_BOUND {
                over_bound.push(format!("books={n} threads={threads}: {virt_phys_x:.2}x"));
            }
            t.row(&[
                n.to_string(),
                threads.to_string(),
                books.len().to_string(),
                names.len().to_string(),
                v_pairs.to_string(),
                format!("{p_us:.1}"),
                format!("{v_us:.1}"),
                format!("{virt_phys_x:.2}"),
                format!("{column_us:.1}"),
                if nl_us.is_nan() {
                    "-".into()
                } else {
                    format!("{nl_us:.1}")
                },
                if nl_us.is_nan() {
                    "-".into()
                } else {
                    format!("{:.1}", nl_us / v_us.max(0.001))
                },
            ]);
            let prefix = if threads == opts.threads {
                "sjoin"
            } else {
                "scaling/sjoin"
            };
            report.push(
                BenchRow::new(format!("{prefix}/books={n}/phys/t{threads}"), p_us * 1e3)
                    .with("books", n as f64)
                    .with("threads", threads as f64)
                    .with("pairs", p_pairs as f64),
            );
            report.push(
                BenchRow::new(format!("{prefix}/books={n}/virt/t{threads}"), v_us * 1e3)
                    .with("books", n as f64)
                    .with("threads", threads as f64)
                    .with("pairs", v_pairs as f64),
            );
        }
    }
    t.print();
    println!(
        "shape check: both stack joins scale ~linearly in input+output and\n\
         stay within a small factor of each other; the nested loop blows up\n\
         quadratically (stack_vs_nested_x grows with size)."
    );
    if let Some(&n) = sizes.iter().filter(|&&n| n <= 10_000).max() {
        multiplicity_line(n);
    }

    // Machine-speed reference: lets the gate cancel host-contention
    // swings between this run and the committed baseline.
    report.push(BenchRow::new(
        CALIBRATION_ROW,
        vh_bench::timing::calibration_ns(),
    ));

    if let Some(dir) = &opts.json_dir {
        match report.write_to(dir) {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: writing report: {e}");
                std::process::exit(3);
            }
        }
    }

    if !over_bound.is_empty() {
        eprintln!(
            "error: the virtual join exceeds {VIRT_PHYS_BOUND}x the physical one at {}",
            over_bound.join(", ")
        );
        std::process::exit(1);
    }
    println!("acceptance: the virtual join stays within {VIRT_PHYS_BOUND}x the physical one");
}

/// Prints the warm join of names and titles under [`MULTIPLICITY_SPEC`]
/// over `n` books beside the nested loop, and checks that the two agree.
fn multiplicity_line(n: usize) {
    let td = TypedDocument::analyze(generate_books("books.xml", &BooksConfig::sized(n)));
    let vd = VirtualDocument::open(&td, MULTIPLICITY_SPEC).unwrap();
    let guide = vd.vdg().guide();
    let names = vd.nodes_of_vtype(guide.lookup_path(&["name"]).unwrap());
    let titles = vd.nodes_of_vtype(guide.lookup_path(&["name", "author", "title"]).unwrap());
    let placements = vd.order_column().len();
    let (join_us, pairs) = time_us(5, || virtual_structural_join(&vd, names, titles).len());
    let contains = |a, d| {
        vh_core::axes::v_ancestor(vd.vdg(), &vd.vpbn_of(a).unwrap(), &vd.vpbn_of(d).unwrap())
    };
    let (nested_us, _) = time_us(2, || nested_loop_join(names, titles, &contains).len());
    let mut got = virtual_structural_join(&vd, names, titles);
    let mut want = nested_loop_join(names, titles, &contains);
    got.sort();
    want.sort();
    assert_eq!(got, want, "the multiplicity join equals the nested loop");
    println!(
        "multiplicity ({MULTIPLICITY_SPEC}, books={n}, names x titles, \
         {placements} placements of {} nodes): pairs={pairs} join_us={join_us:.1} \
         nested_us={nested_us:.1} nested_loop_check=ok",
        vd.visible_nodes()
    );
}

/// Times a closure (calibrated median, see
/// `vh_bench::timing::median_ns_per_call`), returning (us, value). The
/// quadratic nested-loop baseline passes a small `reps` — one call is
/// already seconds-scale at 10 000 books.
fn time_us(reps: usize, f: impl FnMut() -> usize) -> (f64, usize) {
    let (val, ns) =
        vh_bench::timing::median_ns_per_call(reps, std::time::Duration::from_millis(2), f);
    (ns / 1e3, val)
}
