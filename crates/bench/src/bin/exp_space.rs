//! **T2 — space overhead of vPBN and the columnar key arena.** §5: "vPBN
//! slightly increases the space cost, at worst doubling the size of a
//! number compared to PBN, though … the level arrays do not have to be
//! stored with the numbers since the level array can be stored with each
//! type".
//!
//! Reported, per corpus size:
//!
//! * bytes per node of the `Vec<u32>` component form (4 B per component)
//!   vs the encoded key arena (variable-length keys plus the `u32` offset
//!   table) — including the worst single-key blow-up, checked against the
//!   paper's "at worst doubling" bound;
//! * bytes per node the whole numbering keeps resident
//!   (`PbnAssignment::heap_bytes`: the arena, which is the numbering, plus
//!   the delta segment's overlay), checked against
//!   [`NUMBER_BYTES_PER_NODE_BOUND`];
//! * per-*type* level-array bytes (what the system stores) vs the
//!   hypothetical per-*node* cost (the A2 ablation strawman), per
//!   scenario.
//!
//! `--json <dir>` writes `BENCH_space.json`; all `space/…` rows are
//! informational (sizes, not timings — the values are bytes or ratios,
//! carried in the `median_ns_per_op` field).

use vh_bench::json::{BenchReport, BenchRow};
use vh_bench::opts::{BenchOpts, Profile};
use vh_bench::report::Table;
use vh_core::VirtualDocument;
use vh_dataguide::TypedDocument;
use vh_pbn::keys;
use vh_workload::{book_scenarios, generate_books, BooksConfig};

/// Ceiling on the resident numbering, in bytes per node: ~16.7 measured on
/// the books corpus (the arena alone), ~131 with a per-node `Pbn` table
/// beside it and ~253 with a second, sorted one.
const NUMBER_BYTES_PER_NODE_BOUND: f64 = 26.0;

fn main() {
    let opts = BenchOpts::from_env();
    let sizes: Vec<usize> = match (opts.books, opts.profile) {
        (Some(n), _) => vec![n],
        (None, Profile::Quick | Profile::Default) => vec![1_000, 10_000],
        (None, Profile::Full) => vec![1_000, 10_000, 100_000],
    };

    let mut report = BenchReport::new("space");
    report.config("sizes", format!("{sizes:?}"));
    report.config("profile", opts.profile.name());
    report.config("units", "bytes or ratios, not nanoseconds");

    let mut numbers = Table::new(
        "T2a: number storage — Vec<u32> components vs encoded key arena",
        &[
            "books",
            "nodes",
            "u32_B",
            "key_B",
            "offsets_B",
            "u32_B/node",
            "key_B/node",
            "arena_B/node",
            "number_B/node",
            "key_vs_u32",
            "max_key_x",
        ],
    );
    let mut levels = Table::new(
        "T2b: level arrays — per-type (stored) vs per-node (strawman)",
        &[
            "books",
            "scenario",
            "lvl_per_type_B",
            "lvl_per_node_B",
            "per_type_vs_keys",
            "per_node_vs_keys",
        ],
    );

    for &n in &sizes {
        let td = TypedDocument::analyze(generate_books("books.xml", &BooksConfig::sized(n)));
        let arena = td.pbn().arena();
        let nodes = arena.len();

        // The flat component form every number-at-a-time code path pays:
        // 4 bytes per u32 component (Vec headers not counted — this is
        // the strawman's best case).
        let pbn = td.pbn();
        let u32_bytes: usize = pbn
            .in_document_order()
            .iter()
            .map(|&id| keys::component_count(pbn.key_of(id)) * 4)
            .sum();
        let key_bytes = arena.total_key_bytes();
        let offsets_bytes = arena.offsets().len() * 4;
        let arena_bytes = key_bytes + offsets_bytes;
        let number_bytes = pbn.heap_bytes();

        // The paper's bound is per number: no encoded key may exceed
        // twice its 4-bytes-per-component form.
        let max_key_ratio = pbn
            .in_document_order()
            .iter()
            .map(|&id| {
                let key = arena.key_of(id);
                (keys::component_count(key), key.len())
            })
            .filter(|&(comps, _)| comps > 0)
            .map(|(comps, key)| key as f64 / (comps * 4) as f64)
            .fold(0.0_f64, f64::max);
        assert!(
            max_key_ratio <= 2.0,
            "a key blew past the paper's doubling bound: x{max_key_ratio:.2}"
        );

        let per_node = |b: usize| b as f64 / nodes.max(1) as f64;
        assert!(
            per_node(number_bytes) <= NUMBER_BYTES_PER_NODE_BOUND,
            "the numbering keeps {:.1} B/node resident, over the {NUMBER_BYTES_PER_NODE_BOUND} bound",
            per_node(number_bytes)
        );
        let key_vs_u32 = key_bytes as f64 / u32_bytes.max(1) as f64;
        numbers.row(&[
            n.to_string(),
            nodes.to_string(),
            u32_bytes.to_string(),
            key_bytes.to_string(),
            offsets_bytes.to_string(),
            format!("{:.2}", per_node(u32_bytes)),
            format!("{:.2}", per_node(key_bytes)),
            format!("{:.2}", per_node(arena_bytes)),
            format!("{:.2}", per_node(number_bytes)),
            format!("{key_vs_u32:.3}"),
            format!("{max_key_ratio:.2}"),
        ]);
        report.push(
            BenchRow::new(
                format!("space/books={n}/u32_bytes_per_node"),
                per_node(u32_bytes),
            )
            .with("nodes", nodes as f64),
        );
        report.push(
            BenchRow::new(
                format!("space/books={n}/key_bytes_per_node"),
                per_node(key_bytes),
            )
            .with("nodes", nodes as f64),
        );
        report.push(BenchRow::new(
            format!("space/books={n}/arena_bytes_per_node"),
            per_node(arena_bytes),
        ));
        report.push(BenchRow::new(
            format!("space/books={n}/number_bytes_per_node"),
            per_node(number_bytes),
        ));
        report.push(BenchRow::new(
            format!("space/books={n}/key_vs_u32_ratio"),
            key_vs_u32,
        ));
        report.push(BenchRow::new(
            format!("space/books={n}/max_key_ratio"),
            max_key_ratio,
        ));

        for s in book_scenarios() {
            let vd = VirtualDocument::open(&td, s.spec).expect("scenario compiles");
            let per_type = vd.levels().heap_bytes();
            // Hypothetical per-node storage: each visible node carries its
            // type's level array (one byte per entry would suffice for
            // depth < 256; we count 1 B/entry to be fair to the strawman).
            let per_node_lvls: usize = (0..vd.vdg().len())
                .map(|i| {
                    let vt = vh_core::vdg::VTypeId::from_index(i);
                    vd.nodes_of_vtype(vt).len() * vd.array(vt).len()
                })
                .sum();
            levels.row(&[
                n.to_string(),
                s.name.to_string(),
                per_type.to_string(),
                per_node_lvls.to_string(),
                format!("{:.4}", per_type as f64 / key_bytes.max(1) as f64),
                format!("{:.2}", per_node_lvls as f64 / key_bytes.max(1) as f64),
            ]);
            report.push(BenchRow::new(
                format!("space/books={n}/levels/{}/per_type_bytes", s.name),
                per_type as f64,
            ));
            report.push(BenchRow::new(
                format!("space/books={n}/levels/{}/per_node_bytes", s.name),
                per_node_lvls as f64,
            ));
        }
    }
    numbers.print();
    levels.print();
    println!(
        "shape check: key_vs_u32 < 1 in practice (small ordinals encode in\n\
         one byte) and max_key_x <= 2.0 always (the paper's 'at worst\n\
         doubling' bound — asserted above); per-type level bytes depend\n\
         only on the schema, so their share of the arena -> 0 as documents\n\
         grow."
    );

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
