//! Crash-safe mutation properties.
//!
//! Random edit scripts (skewed toward front-position inserts, the worst
//! case for gap minting) run through `Engine::apply` against the rebuild
//! oracle: an engine built from scratch on the final document must give
//! byte-identical query results at 1, 2 and 8 threads. The edited
//! engine's caches are warmed *before* the script runs, so any stale
//! `ExecCache` entry surviving an edit shows up as an oracle mismatch.
//! A third property reads views at random points of a script: every
//! view a read catches up must equal a fresh build, artifact by
//! artifact, and views no read touched must catch up at the end.

#![allow(clippy::expect_used, clippy::panic)]

use proptest::prelude::*;

mod common;
use common::{concretize, URI};
use vpbn_suite::core::VirtualDocument;
use vpbn_suite::pbn::{Pbn, PbnArena};
use vpbn_suite::query::api::{Edit, Engine, ExecOptions, QueryRequest};
use vpbn_suite::xml::{serialize, NodeId, SerializeOptions};

/// The query suite both engines answer; results are compared as
/// serialized node text so differing `NodeId` spaces (the edited arena
/// has holes, the rebuilt one is dense) cannot mask or fake a match.
const PATHS: &[&str] = &["//book", "//name", "//book/title", "//*[position() = 1]"];
const VIEW: &str = "title { author { name } }";

/// Answers the query suite as lists of serialized result nodes.
fn answers(engine: &Engine) -> Vec<Vec<String>> {
    let td = engine.document(URI).expect("registered");
    let mut out = Vec::new();
    for p in PATHS {
        let res = engine
            .run(&QueryRequest::path(URI, *p))
            .unwrap_or_else(|e| panic!("path {p}: {e}"));
        out.push(
            res.nodes
                .unwrap_or_default()
                .iter()
                .map(|&n| {
                    vpbn_suite::xml::serialize::serialize_node(
                        td.doc(),
                        n,
                        SerializeOptions::compact(),
                    )
                })
                .collect(),
        );
    }
    // Random inserts can make the view's labels ambiguous (a second
    // `title` path appears); that rejection is part of the contract, so
    // the two engines must then fail with the same code.
    match engine.run(&QueryRequest::virtual_path(URI, VIEW, "//name")) {
        Ok(res) => out.push(
            res.nodes
                .unwrap_or_default()
                .iter()
                .map(|&n| td.doc().string_value(n))
                .collect(),
        ),
        Err(e) => out.push(vec![format!("error:{}", e.code())]),
    }
    out
}

/// The arena oracle: the edited engine's spliced byte arena equals a
/// from-scratch build over its own numbering — the numbered entries of
/// the per-node map, sorted — byte for byte.
fn arena_matches_build(engine: &Engine) -> bool {
    let pbn = engine.document(URI).expect("registered").pbn();
    let mut numbered: Vec<(Pbn, NodeId)> = (0..pbn.id_space())
        .map(NodeId::from_index)
        .filter_map(|id| pbn.pbn_of_checked(id).map(|p| (p.clone(), id)))
        .collect();
    numbered.sort_by(|a, b| a.0.cmp(&b.0));
    pbn.arena() == &PbnArena::build(&numbered, pbn.id_space())
}

/// The views the catch-up property keeps warm: the first
/// [`READ_VIEWS`] are read at random points of the script, the rest
/// only after it.
const CATCH_UP_VIEWS: &[&str] = &[
    "title { author { name } }",
    "name { author { title } }",
    "data { ** }",
    "title { name { author } }",
    "book { publisher }",
];
const READ_VIEWS: usize = 3;

/// Opens `spec` through the engine's cache, which catches its entries
/// up, and checks every cached artifact — expansion, level map, prefix
/// tables, type index and order column — against a fresh build over the
/// current document. Random inserts can make a view's labels ambiguous;
/// then both opens must fail.
fn check_caught_up(engine: &Engine, spec: &str, ctx: &str) -> Result<(), TestCaseError> {
    let td = engine.document(URI).expect("registered");
    let (cached, fresh) = match (
        engine.virtual_doc(URI, spec),
        VirtualDocument::open(td, spec),
    ) {
        (Ok(cached), Ok(fresh)) => (cached, fresh),
        (Err(_), Err(_)) => return Ok(()),
        (cached, fresh) => {
            return Err(TestCaseError::fail(format!(
                "{ctx} {spec}: cached open {:?} but fresh open {:?}",
                cached.err(),
                fresh.err()
            )))
        }
    };
    let shape = |vd: &VirtualDocument<'_>| {
        let v = vd.vdg();
        let types: Vec<String> = v
            .guide()
            .type_ids()
            .map(|t| v.guide().path_string(t))
            .collect();
        let mapped: Vec<_> = td.guide().type_ids().map(|t| v.vtype_of(t)).collect();
        (types, mapped)
    };
    prop_assert_eq!(shape(&cached), shape(&fresh), "{} {}: expansion", ctx, spec);
    prop_assert_eq!(cached.levels(), fresh.levels(), "{} {}: levels", ctx, spec);
    prop_assert_eq!(
        cached.prefix_tables(),
        fresh.prefix_tables(),
        "{} {}",
        ctx,
        spec
    );
    prop_assert_eq!(
        &**cached.type_index(),
        &**fresh.type_index(),
        "{} {}",
        ctx,
        spec
    );
    prop_assert_eq!(
        cached.order_column(),
        fresh.order_column(),
        "{} {}",
        ctx,
        spec
    );
    Ok(())
}

/// Runs one catch-up script at `threads`: `script` entries with
/// `op % 4 == 0` read view `a % READ_VIEWS`, the rest are edit ops,
/// applied one by one or, with `chunk`, in `apply_all` batches of that
/// many. Edits never maintain or recompute a view — that happens on its
/// next read; only the journal's size cap may evict views — and reads
/// check the view they catch up.
fn run_catch_up_script(
    base_xml: &str,
    script: &[(u8, u16, u16)],
    threads: usize,
    chunk: Option<usize>,
) -> Result<(), TestCaseError> {
    let mut engine = Engine::new();
    engine.set_exec_options(ExecOptions {
        threads,
        cache: true,
        par_threshold: 1,
    });
    engine.register_xml(URI, base_xml).expect("base registers");
    for spec in CATCH_UP_VIEWS {
        if let Ok(vd) = engine.virtual_doc(URI, spec) {
            vd.order_column();
        }
    }
    let counters = |e: &Engine| {
        let c = e.snapshot().cache;
        (c.maintained, c.recomputed)
    };
    let mut pending: Vec<Edit> = Vec::new();
    for (i, &(op, a, b)) in script.iter().enumerate() {
        let ctx = format!("threads={threads} chunk={chunk:?} step {i}");
        if op % 4 != 0 {
            let doc = engine.document(URI).expect("registered").doc();
            if let Some(edit) = concretize(doc, op / 4, a, b) {
                pending.push(edit);
            }
            if pending.len() < chunk.unwrap_or(1) {
                continue;
            }
        }
        let before = counters(&engine);
        match chunk {
            Some(_) => {
                let _ = engine.apply_all(std::mem::take(&mut pending));
            }
            None => {
                for edit in pending.drain(..) {
                    let _ = engine.apply(edit);
                }
            }
        }
        prop_assert_eq!(
            counters(&engine),
            before,
            "{}: an edit maintained views",
            ctx
        );
        if op % 4 == 0 {
            check_caught_up(&engine, CATCH_UP_VIEWS[a as usize % READ_VIEWS], &ctx)?;
        }
    }
    let _ = engine.apply_all(pending);
    for spec in CATCH_UP_VIEWS {
        check_caught_up(
            &engine,
            spec,
            &format!("threads={threads} chunk={chunk:?} end"),
        )?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Views read at random points of an edit script catch up to a fresh
    /// build, artifact by artifact, at 1, 2 and 8 threads, through single
    /// applies and `apply_all` batches; views no read touched catch up
    /// after the script.
    #[test]
    fn views_read_mid_script_catch_up_to_a_fresh_build(
        books in 1usize..6,
        seed in 0u64..400,
        script in prop::collection::vec((0u8..=255, 0u16..=u16::MAX, 0u16..=u16::MAX), 4..30),
        chunk in 2usize..5,
    ) {
        let cfg = vpbn_suite::workload::BooksConfig {
            books,
            max_authors: 3,
            rare_fraction: 0.2,
            seed,
        };
        let base_xml = serialize(
            &vpbn_suite::workload::generate_books(URI, &cfg),
            SerializeOptions::compact(),
        );
        for threads in [1usize, 2, 8] {
            run_catch_up_script(&base_xml, &script, threads, None)?;
            run_catch_up_script(&base_xml, &script, threads, Some(chunk))?;
        }
    }

    /// The tentpole property: an engine that lived through a random edit
    /// script equals an engine built from scratch on the final document,
    /// for every query in the suite, at 1, 2 and 8 threads.
    #[test]
    fn edited_engines_match_the_rebuild_oracle(
        books in 1usize..8,
        seed in 0u64..400,
        script in prop::collection::vec((0u8..=255, 0u16..=u16::MAX, 0u16..=u16::MAX), 1..30),
    ) {
        let cfg = vpbn_suite::workload::BooksConfig {
            books,
            max_authors: 3,
            rare_fraction: 0.2,
            seed,
        };
        let base = vpbn_suite::workload::generate_books(URI, &cfg);
        let base_xml = serialize(&base, SerializeOptions::compact());

        let mut edited = Engine::new();
        edited.register_xml(URI, &base_xml).expect("base registers");
        // Warm every cache *before* editing: a stale entry surviving an
        // edit would now surface as an oracle mismatch below.
        let _ = answers(&edited);

        let mut applied = 0u64;
        for &(op, a, b) in &script {
            let Some(edit) = concretize(edited.document(URI).expect("registered").doc(), op, a, b)
            else {
                continue;
            };
            match edited.apply(edit) {
                Ok(receipt) => {
                    applied += 1;
                    prop_assert_eq!(receipt.seq, applied, "sequence numbers are dense");
                }
                // Rejected edits (bad position after a previous delete,
                // cyclic move, mixed content, …) must change nothing;
                // the oracle comparison below verifies exactly that.
                Err(e) => prop_assert_eq!(e.code(), "QUERY_EDIT"),
            }
        }
        // Single applies drain the delta segment eagerly: nothing is
        // left to merge.
        prop_assert_eq!(
            edited.document(URI).expect("registered").delta_len(),
            0,
            "apply left un-drained delta"
        );

        let final_xml = serialize(
            edited.document(URI).expect("registered").doc(),
            SerializeOptions::compact(),
        );
        for &threads in &[1usize, 2, 8] {
            let opts = ExecOptions { threads, cache: true, par_threshold: 1 };
            let mut rebuilt = Engine::new();
            rebuilt.set_exec_options(opts);
            rebuilt.register_xml(URI, &final_xml).expect("rebuild registers");
            edited.set_exec_options(opts);
            prop_assert_eq!(
                answers(&edited),
                answers(&rebuilt),
                "threads={} applied={} script={:?}",
                threads,
                applied,
                script
            );
            prop_assert!(arena_matches_build(&edited), "threads={} script={:?}", threads, script);
        }
    }

    /// Batched scripts (`apply_all`) with a tiny mid-batch compaction
    /// threshold: delta segments accumulate and threshold drains fire
    /// mid-batch, then each batch boundary journals one merged delta per
    /// URI, which the cached views replay on their next open. Queries run
    /// *between* batches so caught-up entries serve real reads
    /// mid-script, and the surviving
    /// cache must still answer identically to an engine rebuilt from
    /// scratch on the final document at 1, 2 and 8 threads.
    #[test]
    fn batched_edits_across_the_compaction_threshold_match_the_oracle(
        books in 1usize..6,
        seed in 0u64..400,
        script in prop::collection::vec((0u8..=255, 0u16..=u16::MAX, 0u16..=u16::MAX), 4..40),
        threshold in 1usize..6,
        chunk in 2usize..7,
    ) {
        let cfg = vpbn_suite::workload::BooksConfig {
            books,
            max_authors: 3,
            rare_fraction: 0.2,
            seed,
        };
        let base_xml = serialize(
            &vpbn_suite::workload::generate_books(URI, &cfg),
            SerializeOptions::compact(),
        );
        let mut edited = Engine::new();
        edited.register_xml(URI, &base_xml).expect("base registers");
        edited.set_compact_threshold(threshold);
        // Warm every cache before the first batch.
        let _ = answers(&edited);
        for batch in script.chunks(chunk) {
            let doc = edited.document(URI).expect("registered").doc();
            let edits: Vec<_> = batch
                .iter()
                .filter_map(|&(op, a, b)| concretize(doc, op, a, b))
                .collect();
            // A rejected edit aborts the rest of its batch; the applied
            // prefix is durable and routed, which the oracle verifies.
            let _ = edited.apply_all(edits);
            let _ = answers(&edited);
        }
        prop_assert_eq!(
            edited.document(URI).expect("registered").delta_len(),
            0,
            "apply_all left un-drained delta"
        );

        let final_xml = serialize(
            edited.document(URI).expect("registered").doc(),
            SerializeOptions::compact(),
        );
        for &threads in &[1usize, 2, 8] {
            let opts = ExecOptions { threads, cache: true, par_threshold: 1 };
            let mut rebuilt = Engine::new();
            rebuilt.set_exec_options(opts);
            rebuilt.register_xml(URI, &final_xml).expect("rebuild registers");
            edited.set_exec_options(opts);
            prop_assert_eq!(
                answers(&edited),
                answers(&rebuilt),
                "threads={} threshold={} chunk={} script={:?}",
                threads,
                threshold,
                chunk,
                script
            );
            prop_assert!(
                arena_matches_build(&edited),
                "threads={} threshold={} script={:?}",
                threads,
                threshold,
                script
            );
        }
    }

    /// Replaying the edited engine's WAL onto a fresh base reproduces
    /// the same document byte-for-byte — the recovery oracle, as a
    /// property over random scripts.
    #[test]
    fn wal_replay_reproduces_the_edited_document(
        books in 1usize..6,
        seed in 0u64..400,
        script in prop::collection::vec((0u8..=255, 0u16..=u16::MAX, 0u16..=u16::MAX), 1..20),
    ) {
        let cfg = vpbn_suite::workload::BooksConfig {
            books,
            max_authors: 3,
            rare_fraction: 0.2,
            seed,
        };
        let base_xml = serialize(
            &vpbn_suite::workload::generate_books(URI, &cfg),
            SerializeOptions::compact(),
        );
        let mut edited = Engine::new();
        edited.register_xml(URI, &base_xml).expect("base registers");
        for &(op, a, b) in &script {
            if let Some(edit) =
                concretize(edited.document(URI).expect("registered").doc(), op, a, b)
            {
                let _ = edited.apply(edit);
            }
        }
        let mut recovered = Engine::new();
        recovered.register_xml(URI, &base_xml).expect("base registers");
        let rec = recovered.recover(edited.wal_bytes()).expect("log replays");
        prop_assert!(rec.is_clean(), "{:?}", rec.failed);
        prop_assert_eq!(
            serialize(
                recovered.document(URI).expect("registered").doc(),
                SerializeOptions::compact()
            ),
            serialize(
                edited.document(URI).expect("registered").doc(),
                SerializeOptions::compact()
            )
        );
        prop_assert_eq!(recovered.applied_seq(), edited.applied_seq());
    }
}
