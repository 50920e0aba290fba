//! Sharded LRU cache for compiled views.
//!
//! A naive engine recompiles a view on every query: the expanded
//! vDataGuide, the Algorithm-1 level map and the scan-range prefix tables
//! — pure functions of `(document guide, transform spec)`. The nodes
//! themselves come from the document's type index, so nothing in a view
//! costs per node except its lazily built order column. [`ExecCache`]
//! keeps each view as one [`CompiledView`] entry of a [`ShardedLru`]
//! keyed by [`ViewKey`] — the document URI and the transform spec —
//! stamped with the document generation it reflects. The parts are
//! compiled, stamped, caught up and evicted together, so no lookup can
//! find some of them and miss the rest. [`ExecCache::invalidate_uri`]
//! evicts everything for a URI explicitly, which is what keeps a
//! re-registered document from serving views of its predecessor.
//!
//! The cache is `Sync`: shards are independent mutexes, counters are
//! atomics, and a view's parts are `Arc`s, so parallel query stages can
//! share one cache without a global lock. Hit/miss/eviction/invalidation
//! counters are surfaced through [`CacheStats`] alongside the storage
//! layer's `StorageStats`.
//!
//! ## Catching up after edits
//!
//! Documents are mutable, and evicting a URI's views on every edit would
//! re-pay the compile cost the virtual-hierarchy design exists to avoid.
//! An edit only bumps the document's generation; a lookup that finds a
//! stale entry catches it up ([`ExecCache::catch_up`]). A DataGuide only
//! grows, so what an edit can have changed about a view's parts is one
//! thing: the guide types interned since the entry was compiled, the tail
//! of the guide. If [`crate::vdg::VDataGuide::unaffected_by`] clears that
//! tail, the entry is restamped with an empty order cell (the column
//! ranks nodes, which the edit moved); otherwise it is dropped whole.
//! DESIGN.md §14 has the rule and why it is sound.

use crate::vdoc::CompiledView;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use vh_dataguide::TypedDocument;
use vh_obs::CacheOutcome;

/// Number of independent mutex-protected shards per map.
const SHARDS: usize = 8;

/// Default total entry capacity of the view cache.
pub const DEFAULT_CAPACITY: usize = 1024;

/// One shard: a key → (last-use tick, value) map.
struct Shard<K, V> {
    entries: HashMap<K, (u64, V)>,
}

/// Locks one shard, recovering from poisoning (the cache holds only
/// plain data, so a panicking holder leaves it consistent).
fn lock_shard<K, V>(shard: &Mutex<Shard<K, V>>) -> MutexGuard<'_, Shard<K, V>> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A thread-safe, sharded, least-recently-used map.
///
/// Keys hash to one of `SHARDS` (8) independent mutexes; recency is a global
/// atomic tick stamped on every hit and insert, and eviction removes the
/// smallest-stamp entry of the full shard. Values must be cheap to clone —
/// callers store `Arc`s.
pub struct ShardedLru<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    capacity_per_shard: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedLru<K, V> {
    /// Creates a map holding at most `capacity` entries (split evenly
    /// across shards, minimum one per shard).
    pub fn new(capacity: usize) -> Self {
        let capacity_per_shard = capacity.div_ceil(SHARDS).max(1);
        ShardedLru {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                    })
                })
                .collect(),
            capacity_per_shard,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Locks the shard for `key`.
    fn shard_for(&self, key: &K) -> MutexGuard<'_, Shard<K, V>> {
        let mut h = std::hash::DefaultHasher::new();
        key.hash(&mut h);
        let idx = (h.finish() as usize) % self.shards.len();
        lock_shard(&self.shards[idx])
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &K) -> Option<V> {
        let tick = self.next_tick();
        let mut shard = self.shard_for(key);
        match shard.entries.get_mut(key) {
            Some((stamp, v)) => {
                *stamp = tick;
                let v = v.clone();
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts `key → value`, evicting the shard's least-recently-used
    /// entry if it is full and `key` is not already present.
    pub fn insert(&self, key: K, value: V) {
        let tick = self.next_tick();
        let mut shard = self.shard_for(&key);
        if shard.entries.len() >= self.capacity_per_shard && !shard.entries.contains_key(&key) {
            if let Some(oldest) = shard
                .entries
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k.clone())
            {
                shard.entries.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.entries.insert(key, (tick, value));
    }

    /// Reads `key`'s value through `f` without touching recency or the
    /// hit/miss counters — the maintenance path inspects entries without
    /// skewing the stats queries see.
    pub fn peek<R>(&self, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        self.shard_for(key).entries.get(key).map(|(_, v)| f(v))
    }

    /// Lets `f` update `key`'s value in place under its shard lock,
    /// without touching recency or the hit/miss counters. Returns `f`'s
    /// result, or `None` when `key` is absent.
    pub fn update<R>(&self, key: &K, f: impl FnOnce(&mut V) -> R) -> Option<R> {
        self.shard_for(key).entries.get_mut(key).map(|(_, v)| f(v))
    }

    /// Removes `key` if its value satisfies `pred`, counting an
    /// invalidation; returns whether it did.
    pub fn remove_if(&self, key: &K, pred: impl FnOnce(&V) -> bool) -> bool {
        let mut shard = self.shard_for(key);
        if !shard.entries.get(key).is_some_and(|(_, v)| pred(v)) {
            return false;
        }
        shard.entries.remove(key);
        drop(shard);
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Removes every entry that fails `keep`, counting the removals as
    /// invalidations. Returns how many entries were dropped.
    pub fn retain(&self, keep: impl Fn(&K, &V) -> bool) -> usize {
        let mut dropped = 0;
        for shard in &self.shards {
            let mut shard = lock_shard(shard);
            let before = shard.entries.len();
            shard.entries.retain(|k, (_, v)| keep(k, v));
            dropped += before - shard.entries.len();
        }
        self.invalidations
            .fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| lock_shard(shard).entries.len())
            .sum()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot plus current entry count.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

/// Counter snapshot of one [`ShardedLru`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries dropped by LRU capacity pressure.
    pub evictions: u64,
    /// Entries dropped by explicit invalidation.
    pub invalidations: u64,
    /// Live entries right now.
    pub entries: usize,
}

impl CacheCounters {
    /// Hit ratio in `[0, 1]`; `None` before any lookup.
    pub fn hit_ratio(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        if total == 0 {
            None
        } else {
            Some(self.hits as f64 / total as f64)
        }
    }
}

/// Counters for the whole [`ExecCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Compiled-view lookups, evictions and live entries.
    pub views: CacheCounters,
    /// Stale views a catch-up restamped to the current generation.
    pub maintained: u64,
    /// Stale views whose expansion the grown guide could change, dropped
    /// by a catch-up (recomputed on their open).
    pub recomputed: u64,
}

impl CacheStats {
    /// View lookups that found a live entry.
    pub fn total_hits(&self) -> u64 {
        self.views.hits
    }

    /// View lookups that found nothing.
    pub fn total_misses(&self) -> u64 {
        self.views.misses
    }

    /// Views dropped by explicit invalidation.
    pub fn total_invalidations(&self) -> u64 {
        self.views.invalidations
    }
}

/// Cache key of one compiled view: which document (URI) and which
/// transform spec. The document's state is not part of the key: every
/// value carries the generation it reflects ([`Stamped`]), and a lookup
/// catches a stale value up or drops it ([`ExecCache::catch_up`]).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ViewKey {
    /// Document URI.
    pub uri: String,
    /// The vDataGuide transform spec, verbatim.
    pub spec: String,
}

impl ViewKey {
    /// Builds a key from its parts.
    pub fn new(uri: impl Into<String>, spec: impl Into<String>) -> Self {
        ViewKey {
            uri: uri.into(),
            spec: spec.into(),
        }
    }
}

// ------------------------------------------------- delta maintenance ---

/// A cached value tagged with the document generation it reflects and
/// whether its last producer was a catch-up (vs. a fresh compute).
/// The generation alone decides staleness: a lookup serves a value only
/// at the document's current generation, and catches an older one up
/// first.
#[derive(Clone, Debug)]
pub struct Stamped<V> {
    /// Document generation this value is valid for.
    pub gen: u64,
    /// True when the value last reached its generation by a catch-up
    /// ([`ExecCache::catch_up`]) rather than by a fresh compute.
    pub maintained: bool,
    /// The cached value itself.
    pub value: V,
}

impl<V> Stamped<V> {
    /// Stamps a freshly computed value for generation `gen`.
    pub fn fresh(gen: u64, value: V) -> Self {
        Stamped {
            gen,
            maintained: false,
            value,
        }
    }
}

/// What catching one view up did to its entry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CatchUp {
    /// 1 if the entry was restamped to the current generation.
    pub maintained: u64,
    /// 1 if the grown guide could change the view and the entry was
    /// dropped for recompute.
    pub recomputed: u64,
}

/// The engine-wide compiled-view cache: one [`ShardedLru`] entry per view,
/// shared across queries (and across threads — the whole struct is
/// `Sync`).
pub struct ExecCache {
    /// Compiled views keyed by view. An entry holds all its parts and
    /// is stamped, caught up and evicted as one.
    pub views: ShardedLru<ViewKey, Stamped<CompiledView>>,
    /// The catch-up lock: a catch-up holds it from its staleness check
    /// to its restamp.
    catching_up: Mutex<()>,
    maintained: AtomicU64,
    recomputed: AtomicU64,
    /// Seqlock-style generation stamp over the maintenance counters: odd
    /// while a catch-up is mid-flight, bumped to even when it commits.
    /// [`ExecCache::stats`] retries until it reads the same even epoch on
    /// both sides, so a snapshot can never observe a half-applied
    /// catch-up (an entry dropped but the maintained/recomputed totals
    /// not yet accounted).
    epoch: AtomicU64,
}

/// RAII writer section of the [`ExecCache`] epoch seqlock: entering makes
/// the epoch odd, dropping makes it even again (panic-safe — a poisoned
/// catch-up still closes its epoch, leaving readers live).
struct EpochWriter<'a>(&'a AtomicU64);

impl Drop for EpochWriter<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::Release);
    }
}

impl ExecCache {
    /// Creates a cache holding up to `capacity` compiled views.
    pub fn new(capacity: usize) -> Self {
        ExecCache {
            views: ShardedLru::new(capacity),
            catching_up: Mutex::new(()),
            maintained: AtomicU64::new(0),
            recomputed: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
        }
    }

    /// Opens a maintenance writer section: the epoch goes odd until the
    /// returned guard drops. Sections never overlap: each runs under the
    /// catch-up lock.
    fn begin_maintenance(&self) -> EpochWriter<'_> {
        self.epoch.fetch_add(1, Ordering::Acquire);
        EpochWriter(&self.epoch)
    }

    /// The current maintenance epoch: even when quiescent, odd while a
    /// catch-up is in flight. Composite readers (e.g. `Engine::snapshot`)
    /// can bracket multi-field reads with two calls and retry on a
    /// mismatch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Evicts every view compiled for `uri` (all specs, all
    /// generations). Returns the number of entries dropped.
    pub fn invalidate_uri(&self, uri: &str) -> usize {
        self.views.retain(|k, _| k.uri != uri)
    }

    /// Brings `key`'s cached view to the document's generation `gen`; `td`
    /// is the document at `gen`. Afterwards the entry is stamped `gen` or
    /// gone, whole: it survives only if the guide types interned since it
    /// was compiled cannot change its expansion
    /// ([`crate::vdg::VDataGuide::unaffected_by`]). The expansion, level
    /// map and prefix tables are pure functions of the guide, so that
    /// verdict alone keeps them; the order column ranks nodes the edits
    /// moved, so a kept entry gets an empty cell.
    ///
    /// A caught-up view costs one shard lookup. Otherwise the catch-up
    /// runs under the catch-up lock, so a racing lookup of the same view
    /// waits, then finds it caught up.
    pub fn catch_up(&self, key: &ViewKey, gen: u64, td: &TypedDocument) -> CatchUp {
        let stamp = || self.views.peek(key, |s| s.gen);
        if stamp().is_none_or(|g| g == gen) {
            return CatchUp::default();
        }
        let _lock = self
            .catching_up
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if stamp().is_none_or(|g| g == gen) {
            return CatchUp::default();
        }
        let _epoch = self.begin_maintenance();
        let guide = td.guide();
        let kept = self.views.update(key, |s| {
            let view = &mut s.value;
            if !view.vdg.unaffected_by(view.guide_len, guide) {
                return false;
            }
            view.guide_len = guide.len();
            view.order = Arc::default();
            (s.gen, s.maintained) = (gen, true);
            true
        });
        let out = if kept == Some(true) {
            CatchUp {
                maintained: 1,
                recomputed: 0,
            }
        } else {
            CatchUp {
                maintained: 0,
                recomputed: u64::from(self.views.remove_if(key, |s| s.gen != gen)),
            }
        };
        self.maintained.fetch_add(out.maintained, Ordering::Relaxed);
        self.recomputed.fetch_add(out.recomputed, Ordering::Relaxed);
        out
    }

    /// Looks `key` up after [`ExecCache::catch_up`] brought it to `gen`
    /// or dropped it: an entry stamped `gen` is served, reporting whether
    /// a catch-up or a fresh compile last produced it; anything else is
    /// compiled by `compile` and stored.
    pub fn get_or_compile<E>(
        &self,
        key: &ViewKey,
        gen: u64,
        compile: impl FnOnce() -> Result<CompiledView, E>,
    ) -> Result<(CompiledView, CacheOutcome), E> {
        if let Some(s) = self.views.get(key).filter(|s| s.gen == gen) {
            let outcome = if s.maintained {
                CacheOutcome::Maintained
            } else {
                CacheOutcome::Hit
            };
            return Ok((s.value, outcome));
        }
        let view = compile()?;
        self.views
            .insert(key.clone(), Stamped::fresh(gen, view.clone()));
        Ok((view, CacheOutcome::Computed))
    }

    /// Counter snapshot, taken under a stable maintenance epoch: if a
    /// catch-up is in flight (epoch odd) or
    /// commits mid-read (epoch moved), the read retries, so the returned
    /// stats never mix pre-catch-up entry counts with post-catch-up
    /// maintenance totals.
    pub fn stats(&self) -> CacheStats {
        loop {
            let before = self.epoch();
            if before % 2 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let stats = CacheStats {
                views: self.views.counters(),
                maintained: self.maintained.load(Ordering::Relaxed),
                recomputed: self.recomputed.load(Ordering::Relaxed),
            };
            if self.epoch() == before {
                return stats;
            }
        }
    }
}

impl Default for ExecCache {
    fn default() -> Self {
        ExecCache::new(DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_miss_then_hit() {
        let lru: ShardedLru<u32, u32> = ShardedLru::new(16);
        assert_eq!(lru.get(&1), None);
        lru.insert(1, 10);
        assert_eq!(lru.get(&1), Some(10));
        let c = lru.counters();
        assert_eq!((c.hits, c.misses, c.entries), (1, 1, 1));
    }

    #[test]
    fn eviction_drops_least_recently_used() {
        // Capacity 8 over 8 shards → one entry per shard. Two keys in the
        // same shard force an eviction of the older one.
        let lru: ShardedLru<u32, u32> = ShardedLru::new(8);
        let mut in_shard: Vec<u32> = Vec::new();
        let mut k = 0;
        while in_shard.len() < 2 {
            let mut h = std::hash::DefaultHasher::new();
            k.hash(&mut h);
            if (h.finish() as usize) % SHARDS == 0 {
                in_shard.push(k);
            }
            k += 1;
        }
        lru.insert(in_shard[0], 100);
        lru.insert(in_shard[1], 200);
        assert_eq!(lru.counters().evictions, 1);
        assert_eq!(lru.get(&in_shard[0]), None, "older entry evicted");
        assert_eq!(lru.get(&in_shard[1]), Some(200));
    }

    #[test]
    fn retain_counts_invalidations() {
        let cache = ExecCache::new(16);
        let a = ViewKey::new("a.xml", "title { author }");
        let b = ViewKey::new("b.xml", "title { author }");
        let v = compile(&figure2(), "data { ** }");
        cache.views.insert(a.clone(), Stamped::fresh(0, v.clone()));
        cache.views.insert(b.clone(), Stamped::fresh(0, v));
        assert_eq!(cache.invalidate_uri("a.xml"), 1);
        assert_eq!(cache.views.len(), 1);
        assert!(cache.views.get(&a).is_none());
        assert!(cache.views.get(&b).is_some());
        assert_eq!(cache.stats().views.invalidations, 1);
        assert_eq!(cache.stats().total_invalidations(), 1);
    }

    #[test]
    fn evicted_views_rebuild_whole_on_their_next_open() {
        // Capacity 8 over 8 shards: one view per shard. Two keys of one
        // shard evict each other.
        let td = figure2();
        let cache = ExecCache::new(8);
        let shard = |k: &ViewKey| {
            let mut h = std::hash::DefaultHasher::new();
            k.hash(&mut h);
            (h.finish() as usize) % SHARDS
        };
        let keys: Vec<ViewKey> = (0..)
            .map(|i| ViewKey::new(format!("d{i}.xml"), "title { author { name } }"))
            .filter(|k| shard(k) == 0)
            .take(2)
            .collect();
        let compiles = AtomicU64::new(0);
        let open = |key: &ViewKey| {
            cache.catch_up(key, 0, &td);
            let compiled = cache.get_or_compile(key, 0, || {
                compiles.fetch_add(1, Ordering::Relaxed);
                Ok::<_, crate::VdgError>(compile(&td, &key.spec))
            });
            compiled.unwrap_or_else(|e| unreachable!("{e}"))
        };
        let (first, outcome) = open(&keys[0]);
        assert_eq!(outcome, CacheOutcome::Computed);
        assert_eq!(open(&keys[0]).1, CacheOutcome::Hit);
        open(&keys[1]);
        assert_eq!(cache.stats().views.evictions, 1, "the older view went");
        let before = cache.stats().views;
        let compiled = compiles.load(Ordering::Relaxed);
        let (again, outcome) = open(&keys[0]);
        let after = cache.stats().views;
        assert_eq!(outcome, CacheOutcome::Computed);
        assert_eq!(
            (after.misses - before.misses, after.hits - before.hits),
            (1, 0),
            "one miss, no partial hit"
        );
        assert_eq!(compiles.load(Ordering::Relaxed), compiled + 1);
        // Every part was rebuilt: none is shared with the evicted entry.
        assert!(!Arc::ptr_eq(&first.vdg, &again.vdg));
        assert!(!Arc::ptr_eq(&first.levels, &again.levels));
        assert!(!Arc::ptr_eq(&first.tables, &again.tables));
        assert!(!Arc::ptr_eq(&first.order, &again.order));
    }

    #[test]
    fn stats_waits_for_an_in_flight_maintenance_section() {
        // Regression: a snapshot taken while maintenance was mid-flight
        // used to mix pre-batch entry counts with post-batch totals. Open
        // a writer section, mutate one counter "mid-batch", and prove a
        // concurrent stats() call holds until the section commits — then
        // returns both mutations or neither, never a torn mixture.
        let cache = ExecCache::new(16);
        let guard = cache.begin_maintenance();
        cache.maintained.fetch_add(1, Ordering::Relaxed);
        let done = AtomicU64::new(0);
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let stats = cache.stats();
                done.store(1, Ordering::Release);
                stats
            });
            std::thread::sleep(std::time::Duration::from_millis(50));
            assert_eq!(
                done.load(Ordering::Acquire),
                0,
                "stats() returned inside an open maintenance section"
            );
            cache.recomputed.fetch_add(1, Ordering::Relaxed);
            drop(guard);
            let stats = reader.join().unwrap_or_else(|_| unreachable!("reader"));
            assert_eq!(
                (stats.maintained, stats.recomputed),
                (1, 1),
                "snapshot observed a half-applied batch"
            );
        });
        assert_eq!(cache.epoch() % 2, 0, "section left the epoch odd");
    }

    #[test]
    fn catch_ups_restamp_or_drop_by_the_guide_tail_and_close_their_epoch() {
        let mut td = figure2();
        let cache = ExecCache::new(16);
        let key = ViewKey::new("a.xml", "title { author { name } }");
        let store = |td: &TypedDocument, gen| {
            let view = compile(td, &key.spec);
            crate::VirtualDocument::new(td, view.clone()).order_column();
            assert!(view.order_checked(), "the open shares the cell");
            cache.views.insert(key.clone(), Stamped::fresh(gen, view));
        };
        store(&td, 1);
        // Uncached and fresh entries open no section.
        assert_eq!(
            cache.catch_up(&ViewKey::new("b.xml", "x"), 1, &td),
            CatchUp::default()
        );
        assert_eq!(cache.catch_up(&key, 1, &td), CatchUp::default());
        assert_eq!(cache.epoch(), 0);
        // A new type under an invisible parent: restamped, column dropped.
        let root = td.doc().root().unwrap_or_else(|| unreachable!());
        let book = td.doc().children(root)[0];
        let publisher = *td
            .doc()
            .children(book)
            .last()
            .unwrap_or_else(|| unreachable!());
        td.insert_fragment(publisher, 0, "<note>n</note>")
            .unwrap_or_else(|e| unreachable!("{e}"));
        let caught = cache.catch_up(&key, 2, &td);
        assert_eq!((caught.maintained, caught.recomputed), (1, 0));
        assert_eq!(cache.epoch(), 2, "one section, closed");
        let entry = cache
            .views
            .peek(&key, |s| (s.gen, s.maintained, s.value.order_checked()));
        assert_eq!(entry, Some((2, true, false)));
        // A new type under a visible parent: dropped whole.
        let title = td.doc().children(book)[0];
        td.insert_fragment(title, 0, "<sub>s</sub>")
            .unwrap_or_else(|e| unreachable!("{e}"));
        let caught = cache.catch_up(&key, 3, &td);
        assert_eq!((caught.maintained, caught.recomputed), (0, 1));
        assert!(cache.views.is_empty());
        assert_eq!(cache.epoch(), 4);
        let stats = cache.stats();
        assert_eq!((stats.maintained, stats.recomputed), (1, 1));
    }

    #[test]
    fn hit_ratio_reporting() {
        let c = CacheCounters::default();
        assert_eq!(c.hit_ratio(), None);
        let c = CacheCounters {
            hits: 3,
            misses: 1,
            ..CacheCounters::default()
        };
        assert_eq!(c.hit_ratio(), Some(0.75));
    }

    fn figure2() -> TypedDocument {
        TypedDocument::analyze(vh_xml::builder::paper_figure2())
    }

    fn compile(td: &TypedDocument, spec: &str) -> CompiledView {
        CompiledView::compile(td, spec, &mut vh_obs::TraceBuilder::disabled())
            .unwrap_or_else(|e| unreachable!("{e}"))
    }
}
