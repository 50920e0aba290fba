//! Deterministic interleaving stress tests for the concurrent primitives.
//!
//! These are the tests the `ci.sh --tsan` and `--miri` legs (and the
//! matching CI jobs) run under ThreadSanitizer and Miri: barrier-phased
//! rounds give every thread the same phase structure on every run, and
//! per-thread LCG streams make the op sequences deterministic, so a
//! reported race or UB is reproducible rather than a one-in-a-thousand
//! scheduling accident. Under Miri the round/op counts shrink — the
//! interpreter pays ~1000× per instruction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use vh_core::cache::ShardedLru;
use vh_core::exec::{par_count, par_filter, par_sort_by, ExecOptions};

const THREADS: usize = 4;
const ROUNDS: usize = if cfg!(miri) { 2 } else { 8 };
const OPS_PER_ROUND: usize = if cfg!(miri) { 48 } else { 512 };
const CAPACITY: usize = 64;
/// More distinct keys than capacity, so eviction runs constantly.
const KEY_SPACE: u64 = 96;

/// The pure function every cached value must agree with: whatever the
/// interleaving, a `get` may only ever observe `value_of(key)`.
fn value_of(key: u64) -> u64 {
    key.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5bf0_3635
}

/// A tiny LCG (MMIX constants): deterministic per-seed op streams
/// without pulling in `rand`.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }
}

#[test]
fn sharded_lru_holds_its_invariants_under_contention() {
    let cache: Arc<ShardedLru<u64, u64>> = Arc::new(ShardedLru::new(CAPACITY));
    let barrier = Arc::new(Barrier::new(THREADS));
    let lookups = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            let lookups = Arc::clone(&lookups);
            s.spawn(move || {
                let mut rng = Lcg(0xC0FF_EE00 + ((t as u64) << 32));
                for round in 0..ROUNDS {
                    barrier.wait();
                    for _ in 0..OPS_PER_ROUND {
                        let r = rng.next();
                        let key = r % KEY_SPACE;
                        match r % 7 {
                            0 | 1 => {
                                if let Some(v) = cache.get(&key) {
                                    assert_eq!(v, value_of(key), "stale or torn value");
                                }
                                lookups.fetch_add(1, Ordering::Relaxed);
                            }
                            2 | 3 => cache.insert(key, value_of(key)),
                            4 => {
                                match cache.get(&key) {
                                    Some(v) => assert_eq!(v, value_of(key), "stale or torn value"),
                                    None => cache.insert(key, value_of(key)),
                                }
                                lookups.fetch_add(1, Ordering::Relaxed);
                            }
                            5 => {
                                assert!(cache.len() <= CAPACITY, "capacity overrun");
                            }
                            _ => {
                                // Occasional invalidation sweep, so retain
                                // races against get/insert too.
                                if round % 2 == 1 {
                                    cache.retain(|k, _| k % 11 != t as u64);
                                }
                            }
                        }
                    }
                    // Quiescent point: every thread finished the round, so
                    // the capacity bound must hold exactly here as well.
                    barrier.wait();
                    assert!(cache.len() <= CAPACITY, "capacity overrun at round end");
                }
            });
        }
    });

    // Counter bookkeeping: every observed lookup is exactly one hit or
    // one miss — no lost updates, no double counting.
    let c = cache.counters();
    assert_eq!(
        c.hits + c.misses,
        lookups.load(Ordering::Relaxed),
        "hits + misses must equal the lookups the threads performed"
    );
    assert!(cache.len() <= CAPACITY);

    // Every surviving entry still maps to the pure function of its key.
    for key in 0..KEY_SPACE {
        if let Some(v) = cache.get(&key) {
            assert_eq!(v, value_of(key), "post-run value corruption at {key}");
        }
    }
}

#[test]
fn partition_merge_primitives_are_deterministic_under_concurrency() {
    // Several threads drive the *same* parallel primitives over shared
    // input at once; every result must equal the sequential answer.
    let size: u64 = if cfg!(miri) { 120 } else { 1500 };
    let items: Arc<Vec<u64>> = Arc::new((0..size).map(|i| (i * 2_654_435_761) % 100_003).collect());
    let expect_filter: Vec<u64> = items.iter().copied().filter(|x| x % 3 == 0).collect();
    let expect_count = items.iter().filter(|x| **x % 7 == 0).count();
    let mut expect_sorted: Vec<u64> = items.as_ref().clone();
    expect_sorted.sort_unstable();

    let barrier = Arc::new(Barrier::new(THREADS));
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let items = Arc::clone(&items);
            let barrier = Arc::clone(&barrier);
            let expect_filter = expect_filter.clone();
            let expect_sorted = expect_sorted.clone();
            s.spawn(move || {
                // Each thread picks a different inner thread count, so the
                // scoped-thread fan-out itself is exercised concurrently.
                let opts = ExecOptions {
                    threads: t + 1,
                    cache: true,
                    par_threshold: 1,
                };
                barrier.wait();
                for _ in 0..ROUNDS {
                    assert_eq!(
                        par_filter(&opts, &items, |x| x % 3 == 0),
                        expect_filter,
                        "par_filter diverged (threads={})",
                        t + 1
                    );
                    assert_eq!(par_count(&opts, &items, |x| *x % 7 == 0), expect_count);
                    let mut scratch = items.as_ref().clone();
                    par_sort_by(&opts, &mut scratch, |a, b| a.cmp(b));
                    assert_eq!(scratch, expect_sorted, "par_sort_by diverged");
                }
            });
        }
    });
}
