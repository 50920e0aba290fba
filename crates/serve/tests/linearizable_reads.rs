//! Linearizable reads on one tenant: reader threads query under the
//! shared guard while one writer streams edits under the exclusive one,
//! and every read must be explainable by a single point in the writer's
//! history that lies inside the read's own real-time window.
//!
//! Each read records `(start, end, applied_seq, count)`, taking the
//! sequence number and the count under the same [`Tenant::read`] guard.
//! The writer records when each edit's `apply` began (under its guard)
//! and when it was acknowledged (guard released). A single-threaded
//! replay of the same edits on a fresh engine gives the oracle count at
//! every sequence number. No assertion depends on timing: the checks
//! hold for any interleaving the scheduler picks. The writer only waits
//! for one more read to complete after each acknowledgement, so reads
//! land between edits instead of all before or after the stream.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use vh_query::{Edit, Engine, QueryRequest};
use vh_serve::{Registry, Tenant, TenantQuota};
use vh_workload::{generate_books, BooksConfig};

const DOC: &str = "books.xml";
const SPEC: &str = "title { author { name } }";
const EDITS: usize = 48;

/// The two read shapes, alternated per reader: a physical path and a
/// path through a cached virtual view (so delta maintenance of the view
/// runs against concurrent readers too).
fn queries() -> [QueryRequest; 2] {
    [
        QueryRequest::path(DOC, "//name"),
        QueryRequest::virtual_path(DOC, SPEC, "//title/author"),
    ]
}

fn books_engine() -> Engine {
    let mut engine = Engine::new();
    engine.register(generate_books(
        DOC,
        &BooksConfig {
            books: 20,
            max_authors: 3,
            rare_fraction: 0.1,
            seed: 13,
        },
    ));
    engine
}

/// The writer's script: mostly front inserts of books with 1–3 authors,
/// with every third edit deleting the front book again, so the counts
/// move both ways.
fn edit(i: usize) -> Edit {
    if i % 3 == 2 {
        Edit::DeleteSubtree {
            uri: DOC.into(),
            target: "1.1".into(),
        }
    } else {
        let authors: String = (0..=i % 3)
            .map(|a| format!("<author><name>W{i}.{a}</name></author>"))
            .collect();
        Edit::InsertSubtree {
            uri: DOC.into(),
            parent: "1".into(),
            pos: 0,
            xml: format!("<book><title>E{i}</title>{authors}</book>"),
        }
    }
}

/// A query's result count. Readers keep a failure as data rather than
/// panicking, which would leave the writer waiting for their next read.
fn count(engine: &Engine, query: &QueryRequest) -> Result<u64, String> {
    engine
        .run(query)
        .map(|out| out.nodes.map_or(0, |n| n.len() as u64))
        .map_err(|e| e.to_string())
}

/// `oracle[q][seq]`: the count of query `q` after the first `seq` edits,
/// replayed alone on a fresh engine.
fn oracle() -> Vec<Vec<u64>> {
    let mut engine = books_engine();
    let queries = queries();
    let run = |engine: &Engine, q| count(engine, q).expect("oracle query runs");
    let mut counts: Vec<Vec<u64>> = queries.iter().map(|q| vec![run(&engine, q)]).collect();
    for i in 0..EDITS {
        engine.apply(edit(i)).expect("oracle edit applies");
        for (q, query) in queries.iter().enumerate() {
            counts[q].push(run(&engine, query));
        }
    }
    counts
}

struct Read {
    start: Instant,
    end: Instant,
    query: usize,
    seq: u64,
    count: Result<u64, String>,
}

struct Write {
    seq: u64,
    began: Instant,
    acked: Instant,
}

/// What the reader threads and the writer share.
struct Shared {
    barrier: Barrier,
    /// Raised after the writer's last acknowledgement.
    done: AtomicBool,
    /// Reads completed so far, over all readers.
    reads: AtomicUsize,
}

fn run_reader(tenant: &Tenant, offset: usize, shared: &Shared) -> Vec<Read> {
    let queries = queries();
    let mut reads = Vec::new();
    shared.barrier.wait();
    for i in offset.. {
        // Sampled before the read, so one read always follows the
        // writer's last acknowledgement.
        let finished = shared.done.load(Ordering::Acquire);
        let query = i % queries.len();
        let start = Instant::now();
        let engine = tenant.read();
        let seq = engine.applied_seq();
        let count = count(&engine, &queries[query]);
        drop(engine);
        reads.push(Read {
            start,
            end: Instant::now(),
            query,
            seq,
            count,
        });
        shared.reads.fetch_add(1, Ordering::Release);
        if finished {
            break;
        }
    }
    reads
}

fn run_writer(tenant: &Tenant, shared: &Shared) -> Vec<Write> {
    shared.barrier.wait();
    let mut writes = Vec::with_capacity(EDITS);
    for i in 0..EDITS {
        let mut engine = tenant.engine();
        let began = Instant::now();
        let receipt = engine.apply(edit(i)).expect("edit applies");
        drop(engine);
        writes.push(Write {
            seq: receipt.seq,
            began,
            acked: Instant::now(),
        });
        let seen = shared.reads.load(Ordering::Acquire);
        while shared.reads.load(Ordering::Acquire) == seen {
            std::thread::yield_now();
        }
    }
    shared.done.store(true, Ordering::Release);
    writes
}

fn check_linearizable(readers: usize) {
    let mut registry = Registry::new();
    registry
        .add_tenant("acme", books_engine(), TenantQuota::default())
        .expect("registers");
    let tenant = registry.tenant("acme").expect("registered");
    let shared = Shared {
        barrier: Barrier::new(readers + 1),
        done: AtomicBool::new(false),
        reads: AtomicUsize::new(0),
    };

    let (reads, writes) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..readers)
            .map(|r| {
                let shared = &shared;
                s.spawn(move || run_reader(tenant, r, shared))
            })
            .collect();
        let writes = run_writer(tenant, &shared);
        let reads: Vec<Read> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("reader ran"))
            .collect();
        (reads, writes)
    });

    let expected: Vec<u64> = (1..=EDITS as u64).collect();
    let seqs: Vec<u64> = writes.iter().map(|w| w.seq).collect();
    assert_eq!(
        seqs, expected,
        "the writer's edits are acknowledged in order"
    );

    // Every catch-up the readers ran replayed the journal: the stream
    // mints no guide type and no batch outgrows the document.
    let cache = tenant.read().snapshot().cache;
    assert!(cache.maintained > 0, "reads caught the view up: {cache:?}");
    assert_eq!(
        (cache.recomputed, cache.fallback_evictions),
        (0, 0),
        "no catch-up fell back to a rebuild: {cache:?}"
    );

    let oracle = oracle();
    assert!(reads.len() >= readers, "every reader completed a read");
    for (n, read) in reads.iter().enumerate() {
        let want = oracle[read.query][read.seq as usize];
        assert_eq!(
            read.count,
            Ok(want),
            "read {n} (query {}) at seq {} disagrees with the oracle",
            read.query,
            read.seq
        );
        // Every edit acknowledged before the read started is visible.
        let floor = writes
            .iter()
            .filter(|w| w.acked < read.start)
            .map(|w| w.seq)
            .max()
            .unwrap_or(0);
        assert!(
            read.seq >= floor,
            "read {n} saw seq {} but seq {floor} was acknowledged before it started",
            read.seq
        );
        // No edit is visible before its apply began.
        let ceiling = writes
            .iter()
            .filter(|w| w.began < read.end)
            .map(|w| w.seq)
            .max()
            .unwrap_or(0);
        assert!(
            read.seq <= ceiling,
            "read {n} saw seq {} but only seq {ceiling} had begun before it ended",
            read.seq
        );
    }
}

#[test]
fn one_reader_beside_a_writer_reads_linearizably() {
    check_linearizable(1);
}

#[test]
fn two_readers_beside_a_writer_read_linearizably() {
    check_linearizable(2);
}

#[test]
fn eight_readers_beside_a_writer_read_linearizably() {
    check_linearizable(8);
}
