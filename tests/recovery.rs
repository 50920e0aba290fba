//! Fault-injected recovery: the seeded crash-point matrix.
//!
//! For each seed, a skewed edit script runs through `Engine::apply`,
//! recording the WAL byte boundary after every acknowledged edit. The
//! matrix then simulates a crash at every interesting byte offset
//! (frame boundaries, their neighbours, mid-frame, inside the header)
//! by truncating the log there, plus a bit-flip sweep over the whole
//! log. Every mutilated log must recover without panicking to a
//! document *byte-identical* to the from-scratch oracle for the synced
//! prefix, with the dropped tail accounted for in the recovery report —
//! never silent loss.
//!
//! Seeds come from `VPBN_RECOVERY_SEEDS` (comma-separated) so the CI
//! recovery job can widen the matrix; the default covers three. On a
//! failed expectation the offending `RecoveryReport` JSON is written to
//! `target/recovery-reports/` before the test dies, so a red CI run can
//! be triaged from the artifact alone.

#![allow(clippy::expect_used, clippy::panic)]

mod common;
use common::{concretize, URI};

use vpbn_suite::query::api::{Edit, EditRecovery, Engine};
use vpbn_suite::xml::{serialize, SerializeOptions};

/// WAL header length (`WAL_MAGIC`): cuts inside it are header-class
/// failures, not quarantined tails.
const HEADER: usize = vpbn_suite::storage::wal::WAL_MAGIC.len();

fn seeds() -> Vec<u64> {
    match std::env::var("VPBN_RECOVERY_SEEDS") {
        Ok(s) => s.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => vec![11, 42, 2026],
    }
}

/// A tiny deterministic generator for the abstract op stream (the
/// concrete edits depend on the evolving document, via `concretize`).
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

/// One seeded run: the base XML, the acknowledged edits in order, the
/// full WAL image, and the log length after each acknowledged edit.
struct Run {
    base_xml: String,
    edits: Vec<Edit>,
    wal: Vec<u8>,
    boundaries: Vec<usize>,
}

fn build_run(seed: u64) -> Run {
    let cfg = vpbn_suite::workload::BooksConfig {
        books: 4,
        max_authors: 3,
        rare_fraction: 0.2,
        seed,
    };
    let base_xml = serialize(
        &vpbn_suite::workload::generate_books(URI, &cfg),
        SerializeOptions::compact(),
    );
    let mut engine = Engine::new();
    engine.register_xml(URI, &base_xml).expect("base registers");
    let mut rng = Lcg(seed);
    let mut edits = Vec::new();
    let mut boundaries = vec![HEADER];
    while edits.len() < 10 {
        let (op, a, b) = (rng.next() as u8, rng.next() as u16, rng.next() as u16);
        let Some(edit) = concretize(engine.document(URI).expect("registered").doc(), op, a, b)
        else {
            continue;
        };
        if engine.apply(edit.clone()).is_ok() {
            edits.push(edit);
            boundaries.push(engine.wal_bytes().len());
        }
    }
    Run {
        base_xml,
        edits,
        wal: engine.wal_bytes().to_vec(),
        boundaries,
    }
}

/// The from-scratch oracle: a fresh engine with the first `m` edits
/// applied directly (no WAL involved), serialized compactly.
fn oracle_doc(run: &Run, m: usize) -> String {
    let mut engine = Engine::new();
    engine
        .register_xml(URI, &run.base_xml)
        .expect("base registers");
    for e in &run.edits[..m] {
        engine.apply(e.clone()).expect("oracle edits re-apply");
    }
    serialize(
        engine.document(URI).expect("registered").doc(),
        SerializeOptions::compact(),
    )
}

/// Writes the failing report as a CI artifact, then panics with `msg`.
fn fail(seed: u64, label: &str, rec: Option<&EditRecovery>, msg: String) -> ! {
    let dir = std::path::Path::new("target/recovery-reports");
    let _ = std::fs::create_dir_all(dir);
    let body = rec.map_or_else(|| "{\"error\":\"no report\"}".to_string(), |r| r.to_json());
    let path = dir.join(format!("RecoveryReport-seed{seed}-{label}.json"));
    let _ = std::fs::write(&path, body);
    panic!("seed {seed} [{label}]: {msg} (report: {})", path.display());
}

/// Recovers `bytes` onto a fresh base and checks the full contract:
/// `expect_m` edits replayed, document byte-identical to the oracle,
/// no replay failures, and every dropped byte accounted for.
fn check_recovery(run: &Run, seed: u64, label: &str, bytes: &[u8], expect_m: usize) {
    let mut engine = Engine::new();
    engine
        .register_xml(URI, &run.base_xml)
        .expect("base registers");
    let rec = match engine.recover(bytes) {
        Ok(rec) => rec,
        Err(e) => fail(seed, label, None, format!("recover errored: {e}")),
    };
    if rec.replayed != expect_m as u64 {
        let msg = format!("replayed {} edits, expected {expect_m}", rec.replayed);
        fail(seed, label, Some(&rec), msg);
    }
    if !rec.failed.is_empty() {
        let msg = format!("replay failures on a valid prefix: {:?}", rec.failed);
        fail(seed, label, Some(&rec), msg);
    }
    // No silent loss: the valid prefix plus the quarantined tail must
    // cover the mutilated log exactly.
    let covered = run.boundaries[expect_m] + rec.wal.quarantined_bytes;
    if covered != bytes.len() {
        let msg = format!(
            "{} prefix bytes + {} quarantined != {} total",
            run.boundaries[expect_m],
            rec.wal.quarantined_bytes,
            bytes.len()
        );
        fail(seed, label, Some(&rec), msg);
    }
    let got = serialize(
        engine.document(URI).expect("registered").doc(),
        SerializeOptions::compact(),
    );
    let want = oracle_doc(run, expect_m);
    if got != want {
        let msg = format!("document diverged from the {expect_m}-edit oracle");
        fail(seed, label, Some(&rec), msg);
    }
}

/// Crash points for one run: every frame boundary, its neighbours, a
/// mid-frame cut, and cuts inside the header.
fn crash_points(run: &Run) -> Vec<usize> {
    let mut cuts = vec![0, 1, HEADER - 1];
    for w in run.boundaries.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        cuts.extend([lo, lo + 1, (lo + hi) / 2, hi - 1, hi]);
    }
    cuts.retain(|&c| c <= run.wal.len());
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

#[test]
fn crash_point_matrix_recovers_byte_identically() {
    for seed in seeds() {
        let run = build_run(seed);
        assert_eq!(run.edits.len(), 10, "seed {seed} built a full script");
        for cut in crash_points(&run) {
            let truncated = &run.wal[..cut];
            if cut < HEADER {
                // Inside the header there is no log at all: a hard
                // storage error is the honest answer — but never a panic.
                let mut engine = Engine::new();
                engine
                    .register_xml(URI, &run.base_xml)
                    .expect("base registers");
                assert!(
                    engine.recover(truncated).is_err(),
                    "seed {seed}: cut {cut} inside the header must be rejected"
                );
                continue;
            }
            let m = run.boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            check_recovery(&run, seed, &format!("cut{cut}"), truncated, m);
        }
    }
}

#[test]
fn bit_flips_are_quarantined_from_the_damaged_frame() {
    for seed in seeds() {
        let run = build_run(seed);
        // Sweep the log: every frame-boundary neighbourhood plus a
        // stride-3 pass over the payload bytes.
        let mut flips: Vec<usize> = (HEADER..run.wal.len()).step_by(3).collect();
        for &b in &run.boundaries {
            for d in [0usize, 1, 2] {
                if b + d < run.wal.len() {
                    flips.push(b + d);
                }
            }
        }
        flips.sort_unstable();
        flips.dedup();
        for at in flips {
            let mut bad = run.wal.clone();
            bad[at] ^= 0x5A;
            // The flip lands in exactly one frame; everything before it
            // must replay, everything from it on must be quarantined.
            let m = run.boundaries.iter().filter(|&&b| b <= at).count() - 1;
            check_recovery(&run, seed, &format!("flip{at}"), &bad, m);
        }
    }
}

#[test]
fn recovered_engines_accept_new_edits_after_the_crash() {
    // Recovery is not a dead end: after adopting a torn log, the engine
    // must acknowledge new edits with the next sequence number and a
    // log that replays cleanly elsewhere.
    for seed in seeds() {
        let run = build_run(seed);
        let cut = run.boundaries[run.boundaries.len() - 2] + 3; // torn last frame
        let mut engine = Engine::new();
        engine
            .register_xml(URI, &run.base_xml)
            .expect("base registers");
        let rec = engine.recover(&run.wal[..cut]).expect("torn log recovers");
        assert_eq!(rec.replayed, run.edits.len() as u64 - 1);
        let receipt = engine
            .apply(Edit::InsertSubtree {
                uri: URI.into(),
                parent: "1".into(),
                pos: 0,
                xml: "<note>post-crash</note>".into(),
            })
            .expect("post-recovery edit applies");
        assert_eq!(receipt.seq, run.edits.len() as u64, "seq continues the log");
        let mut other = Engine::new();
        other
            .register_xml(URI, &run.base_xml)
            .expect("base registers");
        let rec2 = other.recover(engine.wal_bytes()).expect("new log replays");
        assert!(rec2.is_clean(), "{:?}", rec2.failed);
        assert_eq!(rec2.replayed, run.edits.len() as u64);
        assert_eq!(
            serialize(
                other.document(URI).expect("registered").doc(),
                SerializeOptions::compact()
            ),
            serialize(
                engine.document(URI).expect("registered").doc(),
                SerializeOptions::compact()
            )
        );
    }
}
