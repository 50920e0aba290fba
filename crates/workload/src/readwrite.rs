//! Concurrent reader/writer scenario: readers query warm virtual views
//! while a writer streams edit batches through [`Engine::apply_all`].
//!
//! This is the workload the delta-aware `ExecCache` exists for. Every
//! batch the writer commits journals one merged `ViewDelta` in the
//! cache, and the next read of a view replays it; because the inserted
//! fragments reuse the corpus vocabulary, the view is spliced in place
//! (`maintained`) rather than rebuilt, and the readers keep hitting warm
//! artifacts throughout.
//! The report surfaces the engine's maintenance counters so callers —
//! the bench harness and the integration tests — can assert the edits
//! actually took the maintenance path instead of silently falling back
//! to eviction.
//!
//! Everything is deterministic given the config except the interleaving
//! itself (and thus the per-reader query counts); the *final document*
//! and the post-quiesce query answers are interleaving-independent,
//! which is exactly the correctness claim maintained views must uphold.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock};

use vh_query::{Edit, Engine, QueryRequest};

use crate::books::{generate_books, BooksConfig};

/// The URI the scenario registers its corpus under.
pub const READWRITE_URI: &str = "books.xml";

/// Sam's transformation (Figure 1/6) — the virtual view the readers
/// query through.
pub const READWRITE_SPEC: &str = "title { author { name } }";

/// The reader query suite, cycled per reader thread.
pub const READWRITE_PATHS: &[&str] = &["//title", "//name", "//title/author"];

/// Knobs for [`run_readwrite`].
#[derive(Clone, Debug)]
pub struct ReadWriteConfig {
    /// Books in the initial corpus.
    pub books: usize,
    /// Concurrent reader threads.
    pub readers: usize,
    /// Edit batches the writer commits.
    pub batches: usize,
    /// Insertions per batch (one `apply_all` call each).
    pub batch_size: usize,
    /// RNG seed for the corpus generator.
    pub seed: u64,
}

impl Default for ReadWriteConfig {
    fn default() -> Self {
        ReadWriteConfig {
            books: 64,
            readers: 4,
            batches: 8,
            batch_size: 8,
            seed: 42,
        }
    }
}

/// What [`run_readwrite`] observed.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReadWriteReport {
    /// Queries the readers completed while the writer was active.
    pub queries: u64,
    /// Result nodes those queries returned in total.
    pub result_nodes: u64,
    /// Edits committed (batches × batch size).
    pub edits: u64,
    /// Cache entries a read caught up by delta maintenance.
    pub maintained: u64,
    /// Cache entries a journaled batch invalidated for recomputation.
    pub recomputed: u64,
    /// Maintenance fallback evictions (journal cap, overflow,
    /// compaction).
    pub fallback_evictions: u64,
}

/// The book fragment the writer inserts: every tag already exists in the
/// generated corpus, so edits never mint new types and the cache's
/// maintenance path — not the recompute fallback — absorbs them.
fn fresh_book(batch: usize, i: usize) -> String {
    format!(
        "<book><title>Edit {batch}.{i}</title>\
         <author><name>Writer {i}</name></author></book>"
    )
}

/// Runs the scenario: registers a books corpus, warms the virtual view,
/// then lets `cfg.readers` threads query it while the writer commits
/// `cfg.batches` batches of front-position inserts.
pub fn run_readwrite(cfg: &ReadWriteConfig) -> ReadWriteReport {
    let mut engine = Engine::new();
    engine.register(generate_books(
        READWRITE_URI,
        &BooksConfig {
            books: cfg.books.max(1),
            seed: cfg.seed,
            ..BooksConfig::default()
        },
    ));
    // Warm every artifact the readers will touch before contention starts.
    for p in READWRITE_PATHS {
        let _ = engine.run(&QueryRequest::virtual_path(
            READWRITE_URI,
            READWRITE_SPEC,
            *p,
        ));
    }

    // The serving model: readers share the engine and overlap each
    // other, the writer takes it exclusively. Readers drop the guard
    // between queries, and std's `RwLock` lets a waiting writer in
    // ahead of new readers, so every batch commit slots into the stream.
    let shared = RwLock::new(engine);
    let done = AtomicBool::new(false);
    let queries = AtomicU64::new(0);
    let result_nodes = AtomicU64::new(0);

    std::thread::scope(|s| {
        for r in 0..cfg.readers.max(1) {
            let (shared, done) = (&shared, &done);
            let (queries, result_nodes) = (&queries, &result_nodes);
            s.spawn(move || {
                let mut i = r; // offset so readers interleave the suite
                while !done.load(Ordering::Acquire) {
                    let path = READWRITE_PATHS[i % READWRITE_PATHS.len()];
                    i += 1;
                    let engine = shared.read().unwrap_or_else(PoisonError::into_inner);
                    // vet: allow(hold-across-blocking) — a shared read guard: readers overlap each other and exclude only the writer's batch, which is the interleaving the scenario measures
                    if let Ok(out) = engine.run(&QueryRequest::virtual_path(
                        READWRITE_URI,
                        READWRITE_SPEC,
                        path,
                    )) {
                        queries.fetch_add(1, Ordering::Relaxed);
                        let n = out.nodes.map_or(0, |ns| ns.len() as u64);
                        result_nodes.fetch_add(n, Ordering::Relaxed);
                    }
                }
            });
        }
        for b in 0..cfg.batches {
            let edits: Vec<Edit> = (0..cfg.batch_size.max(1))
                .map(|i| Edit::InsertSubtree {
                    uri: READWRITE_URI.to_owned(),
                    parent: "1".to_owned(),
                    pos: 0,
                    xml: fresh_book(b, i),
                })
                .collect();
            let mut engine = shared.write().unwrap_or_else(PoisonError::into_inner);
            // vet: allow(hold-across-blocking) — the writer batch holds the exclusive guard for the whole burst by design: the scenario exists to stress exactly this contention
            let _ = engine.apply_all(edits);
        }
        done.store(true, Ordering::Release);
    });

    let engine = RwLock::into_inner(shared).unwrap_or_else(PoisonError::into_inner);
    // Views catch up on their next read; one last pass catches up the
    // batches committed after the readers stopped.
    for p in READWRITE_PATHS {
        let _ = engine.run(&QueryRequest::virtual_path(
            READWRITE_URI,
            READWRITE_SPEC,
            *p,
        ));
    }
    let cache = engine.snapshot().cache;
    ReadWriteReport {
        queries: queries.load(Ordering::Relaxed),
        result_nodes: result_nodes.load(Ordering::Relaxed),
        edits: (cfg.batches * cfg.batch_size.max(1)) as u64,
        maintained: cache.maintained,
        recomputed: cache.recomputed,
        fallback_evictions: cache.fallback_evictions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vh_xml::{serialize, SerializeOptions};

    /// Replays the writer's batches single-threaded and returns the
    /// final serialized document plus the engine that produced it.
    fn writer_only(cfg: &ReadWriteConfig) -> (Engine, String) {
        let mut engine = Engine::new();
        engine.register(generate_books(
            READWRITE_URI,
            &BooksConfig {
                books: cfg.books,
                seed: cfg.seed,
                ..BooksConfig::default()
            },
        ));
        for p in READWRITE_PATHS {
            engine
                .run(&QueryRequest::virtual_path(
                    READWRITE_URI,
                    READWRITE_SPEC,
                    *p,
                ))
                .expect("warm query runs");
        }
        for b in 0..cfg.batches {
            let edits: Vec<Edit> = (0..cfg.batch_size)
                .map(|i| Edit::InsertSubtree {
                    uri: READWRITE_URI.to_owned(),
                    parent: "1".to_owned(),
                    pos: 0,
                    xml: fresh_book(b, i),
                })
                .collect();
            engine.apply_all(edits).expect("batch applies");
        }
        let xml = serialize(
            engine.document(READWRITE_URI).expect("registered").doc(),
            SerializeOptions::compact(),
        );
        (engine, xml)
    }

    #[test]
    fn concurrent_run_matches_the_single_threaded_writer() {
        let cfg = ReadWriteConfig {
            books: 16,
            readers: 3,
            batches: 4,
            batch_size: 5,
            seed: 7,
        };
        let report = run_readwrite(&cfg);
        assert_eq!(report.edits, 20);
        assert!(
            report.maintained > 0,
            "vocabulary-preserving inserts must take the maintenance path: {report:?}"
        );
        assert_eq!(
            report.fallback_evictions, 0,
            "nothing should trip the maintenance fallback: {report:?}"
        );

        // The interleaving cannot change the final document: a fresh
        // engine replaying the same batches alone must agree with a
        // cold engine registered with the concurrent run's output.
        let (warm, xml) = writer_only(&cfg);
        let mut cold = Engine::new();
        cold.register_xml(READWRITE_URI, &xml)
            .expect("final document re-registers");
        for p in READWRITE_PATHS {
            let req = QueryRequest::virtual_path(READWRITE_URI, READWRITE_SPEC, *p);
            let w = warm.run(&req).expect("warm query runs");
            let c = cold.run(&req).expect("cold query runs");
            assert_eq!(
                w.to_string_compact(),
                c.to_string_compact(),
                "maintained views diverged from the rebuild on {p}"
            );
        }
    }

    #[test]
    fn report_counts_reader_progress() {
        let report = run_readwrite(&ReadWriteConfig {
            books: 8,
            readers: 2,
            batches: 2,
            batch_size: 3,
            seed: 1,
        });
        assert_eq!(report.edits, 6);
        assert_eq!(report.recomputed, 0, "no new types were minted: {report:?}");
    }
}
