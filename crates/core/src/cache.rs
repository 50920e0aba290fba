//! Sharded LRU cache for per-view compiled artifacts.
//!
//! Four artifacts are recomputed from scratch on every query in a naive
//! engine: the expanded [`VDataGuide`], the Algorithm-1 [`LevelMap`], the
//! [`PrefixTables`] of precomputed scan-range prefixes (all three pure
//! functions of `(document guide, transform spec)`), and the per-type
//! [`TypeIndex`] of the view, which additionally depends on the document's
//! nodes and is the only per-node-cost artifact — caching it makes warm
//! view opens O(1) in document size. [`ExecCache`] memoizes each behind a
//! [`ShardedLru`] keyed by [`ViewKey`] — the document URI, a fingerprint
//! of its DataGuide, and the transform spec — so re-registering a document
//! (which may change the guide) naturally misses, and
//! [`ExecCache::invalidate_uri`] evicts everything for a URI explicitly
//! (which is what keeps a re-registered same-shaped document from serving
//! a stale node index).
//!
//! The cache is `Sync`: shards are independent mutexes, counters are
//! atomics, and values are handed out as cheap clones (`Arc`s at the call
//! sites), so parallel query stages can share one cache without a global
//! lock. Hit/miss/eviction/invalidation counters are surfaced through
//! [`CacheStats`] alongside the storage layer's `StorageStats`.
//!
//! ## Delta-aware maintenance
//!
//! Since PR 6 documents are mutable, and a cache that evicts a URI's
//! every artifact per edit re-pays the full compile-and-index cost the
//! virtual-hierarchy design exists to avoid. The maintenance layer here
//! keeps warm entries warm: the engine derives a [`ViewDelta`] from each
//! committed edit batch (the dataguide edit journal plus the guide's
//! new-type tail) and [`ExecCache::route_delta`] walks the URI's entries,
//! asking one question per view: can the delta change the view's
//! recompile ([`VDataGuide::unaffected_by`])? If it can, all four
//! entries are dropped for recompute. If not, the three guide-shaped
//! artifacts (pure functions of `(spec, guide)`) survive untouched and
//! the per-node [`TypeIndex`] is spliced in place
//! ([`TypeIndex::maintain`]) while the delta touches no more nodes than
//! the document keeps — a rebuild scans every live node, so past that a
//! splice cannot win — and is otherwise evicted. The splice goes through
//! `Arc::make_mut`: it edits the cached lists themselves while the cache
//! holds the only reference, and copies them first only when a caller
//! still holds the `Arc`, so a held snapshot never changes. An overflowed
//! journal or an explicit `Engine::compact()` falls back to full
//! eviction; both kinds of drop count as `fallback_evictions`. Maintained
//! entries are re-keyed to the post-edit guide fingerprint and stamped
//! ([`Stamped`]) with the document generation, so a stale entry can
//! never satisfy a lookup even when an edit leaves the fingerprint
//! unchanged (inserting already-interned types does exactly that).

use crate::levels::LevelMap;
use crate::range::PrefixTables;
use crate::vdg::VDataGuide;
use crate::vdoc::TypeIndex;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use vh_dataguide::{DataGuide, TouchedNode, TypeId, TypedDocument};

/// Number of independent mutex-protected shards per map.
const SHARDS: usize = 8;

/// Default total entry capacity of each artifact map.
pub const DEFAULT_CAPACITY: usize = 1024;

/// One shard: a key → (last-use tick, value) map.
struct Shard<K, V> {
    entries: HashMap<K, (u64, V)>,
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

    /// Locks the shard for `key`, recovering from poisoning (the cache
    /// holds only plain data, so a panicking holder leaves it consistent).
    fn shard_for(&self, key: &K) -> MutexGuard<'_, Shard<K, V>> {
        let mut h = std::hash::DefaultHasher::new();
        key.hash(&mut h);
        let idx = (h.finish() as usize) % self.shards.len();
        match self.shards[idx].lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
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

    /// Returns the cached value for `key`, or computes, stores and returns
    /// it. The computation runs outside the shard lock; two racing threads
    /// may both compute, but both arrive at the same pure-function value.
    pub fn get_or_try_insert<E>(
        &self,
        key: &K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        if let Some(v) = self.get(key) {
            return Ok(v);
        }
        let v = compute()?;
        self.insert(key.clone(), v.clone());
        Ok(v)
    }

    /// Looks up `key` without touching recency or the hit/miss counters —
    /// the maintenance path inspects entries without skewing the stats
    /// queries see.
    pub fn peek(&self, key: &K) -> Option<V> {
        self.shard_for(key).entries.get(key).map(|(_, v)| v.clone())
    }

    /// Removes `key` without counting an invalidation (used to re-key a
    /// maintained entry, which is a move, not a drop).
    pub fn take(&self, key: &K) -> Option<V> {
        self.shard_for(key).entries.remove(key).map(|(_, v)| v)
    }

    /// Removes `key`, counting an invalidation when it was present.
    pub fn remove(&self, key: &K) -> Option<V> {
        let v = self.take(key);
        if v.is_some() {
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
        v
    }

    /// The keys currently cached that satisfy `f`.
    pub fn keys_matching(&self, f: impl Fn(&K) -> bool) -> Vec<K> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = match shard.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            out.extend(shard.entries.keys().filter(|k| f(k)).cloned());
        }
        out
    }

    /// Removes every entry whose key fails `keep`, counting the removals
    /// as invalidations. Returns how many entries were dropped.
    pub fn retain(&self, keep: impl Fn(&K) -> bool) -> usize {
        let mut dropped = 0;
        for shard in &self.shards {
            let mut shard = match shard.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            let before = shard.entries.len();
            shard.entries.retain(|k, _| keep(k));
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
            .map(|s| {
                match s.lock() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                }
                .entries
                .len()
            })
            .sum()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry without counting invalidations.
    pub fn clear(&self) {
        for shard in &self.shards {
            match shard.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            }
            .entries
            .clear();
        }
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

/// Counter snapshot of one artifact map.
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

/// Per-artifact counters for the whole [`ExecCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// vDataGuide expansion cache.
    pub expansions: CacheCounters,
    /// Algorithm-1 level-map cache.
    pub levels: CacheCounters,
    /// Scan-range prefix-table cache.
    pub tables: CacheCounters,
    /// Per-type node-index cache.
    pub indexes: CacheCounters,
    /// Entries kept alive across edits by delta maintenance.
    pub maintained: u64,
    /// Entries a delta invalidated (recomputed on their next open).
    pub recomputed: u64,
    /// Entries dropped by the maintenance fallback: the delta touched
    /// more nodes than the document keeps, the journal overflowed, or an
    /// explicit compaction rewrote the arena.
    pub fallback_evictions: u64,
}

impl CacheStats {
    /// Total hits across all four artifact maps.
    pub fn total_hits(&self) -> u64 {
        self.expansions.hits + self.levels.hits + self.tables.hits + self.indexes.hits
    }

    /// Total misses across all four artifact maps.
    pub fn total_misses(&self) -> u64 {
        self.expansions.misses + self.levels.misses + self.tables.misses + self.indexes.misses
    }

    /// Total explicit invalidations across all four artifact maps.
    pub fn total_invalidations(&self) -> u64 {
        self.expansions.invalidations
            + self.levels.invalidations
            + self.tables.invalidations
            + self.indexes.invalidations
    }
}

/// Cache key of one compiled view: which document (URI), which shape of
/// that document (guide fingerprint — re-registering changed content
/// changes the fingerprint), and which transform spec.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ViewKey {
    /// Document URI.
    pub uri: String,
    /// Fingerprint of the document's DataGuide (see [`guide_fingerprint`]).
    pub guide: u64,
    /// The vDataGuide transform spec, verbatim.
    pub spec: String,
}

impl ViewKey {
    /// Builds a key from its parts.
    pub fn new(uri: impl Into<String>, guide: u64, spec: impl Into<String>) -> Self {
        ViewKey {
            uri: uri.into(),
            guide,
            spec: spec.into(),
        }
    }
}

/// Order-sensitive fingerprint of a DataGuide: hashes every type's path
/// and PBN length, so structural changes to the document schema produce a
/// different [`ViewKey`] even under the same URI.
pub fn guide_fingerprint(guide: &DataGuide) -> u64 {
    let mut h = std::hash::DefaultHasher::new();
    guide.len().hash(&mut h);
    for ty in guide.type_ids() {
        guide.path_string(ty).hash(&mut h);
        guide.length(ty).hash(&mut h);
    }
    h.finish()
}

// ------------------------------------------------- delta maintenance ---

/// A compact description of what one committed edit batch changed in a
/// document, derived by the engine from the dataguide edit journal and
/// routed to the URI's cached entries by [`ExecCache::route_delta`]
/// instead of evicting them.
#[derive(Clone, Debug, Default)]
pub struct ViewDelta {
    /// The edited document's URI.
    pub uri: String,
    /// Guide fingerprint before the batch — live entries are keyed by it.
    pub old_fp: u64,
    /// Guide fingerprint after the batch — maintained entries are re-keyed
    /// to it (equal to `old_fp` when no new types interned).
    pub new_fp: u64,
    /// Document generation after the batch; maintained entries are
    /// restamped with it.
    pub gen: u64,
    /// Guide types the batch interned (the contiguous tail of the type
    /// table — a strong DataGuide only grows).
    pub new_types: Vec<TypeId>,
    /// Node-level touches in chronological order.
    pub touched: Vec<TouchedNode>,
    /// The edit journal overflowed: `touched` is incomplete and every
    /// entry for the URI must fall back to eviction.
    pub overflowed: bool,
}

/// A cached value tagged with the document generation it reflects and
/// whether its last producer was delta maintenance (vs. a fresh compute).
/// The stamp is the second staleness guard behind the [`ViewKey`]
/// fingerprint: an edit that only re-interns existing types leaves the
/// fingerprint unchanged while still moving nodes, so lookups compare
/// generations too.
#[derive(Clone, Debug)]
pub struct Stamped<V> {
    /// Document generation this value is valid for.
    pub gen: u64,
    /// True when the value last survived an edit via
    /// [`ExecCache::route_delta`] rather than a fresh compute.
    pub maintained: bool,
    /// The artifact itself.
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

/// Verdict of one [`TypeIndex::maintain`] splice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Maintained {
    /// The delta touched no node of a visible type; nothing was written.
    Unchanged,
    /// The touched nodes were spliced into the lists in place.
    Spliced,
    /// The index does not hold the pre-batch state the journal describes;
    /// it was left as it was and must be rebuilt.
    MustRecompute,
}

/// What routing one [`ViewDelta`] did to its URI's cached entries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteOutcome {
    /// Entries kept alive (updated in place or proven unchanged).
    pub maintained: u64,
    /// Entries the delta invalidated; recomputed on their next open.
    pub recomputed: u64,
    /// Entries dropped by the size rule or an overflowed journal even
    /// though the delta was routable.
    pub fallback_evictions: u64,
}

/// The engine-wide artifact cache: one [`ShardedLru`] per compiled-view
/// artifact, shared across queries (and across threads — the whole struct
/// is `Sync`).
pub struct ExecCache {
    /// Expanded virtual guides keyed by view.
    pub expansions: ShardedLru<ViewKey, Stamped<Arc<VDataGuide>>>,
    /// Algorithm-1 level maps keyed by view.
    pub levels: ShardedLru<ViewKey, Stamped<Arc<LevelMap>>>,
    /// Precomputed scan-range prefix tables keyed by view.
    pub tables: ShardedLru<ViewKey, Stamped<Arc<PrefixTables>>>,
    /// Per-type node indexes keyed by view. Unlike the other artifacts this
    /// depends on the document's *nodes*, not just its guide; deltas are
    /// spliced into it by [`ExecCache::route_delta`], and
    /// [`ExecCache::invalidate_uri`] on re-register keeps a re-registered
    /// same-shaped document from serving a stale index.
    pub indexes: ShardedLru<ViewKey, Stamped<Arc<TypeIndex>>>,
    maintained: AtomicU64,
    recomputed: AtomicU64,
    fallback_evictions: AtomicU64,
    /// Seqlock-style generation stamp over the maintenance counters: odd
    /// while a delta route or fallback invalidation is mid-flight,
    /// bumped to even when it commits. [`ExecCache::stats`] retries
    /// until it reads the same even epoch on both sides, so a snapshot
    /// can never observe a half-applied batch (entries dropped but the
    /// maintained/recomputed totals not yet accounted).
    epoch: AtomicU64,
}

/// RAII writer section of the [`ExecCache`] epoch seqlock: entering makes
/// the epoch odd, dropping makes it even again (panic-safe — a poisoned
/// route still closes its epoch, leaving readers live).
struct EpochWriter<'a>(&'a AtomicU64);

impl Drop for EpochWriter<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::Release);
    }
}

impl ExecCache {
    /// Creates a cache where each artifact map holds up to `capacity`
    /// entries.
    pub fn new(capacity: usize) -> Self {
        ExecCache {
            expansions: ShardedLru::new(capacity),
            levels: ShardedLru::new(capacity),
            tables: ShardedLru::new(capacity),
            indexes: ShardedLru::new(capacity),
            maintained: AtomicU64::new(0),
            recomputed: AtomicU64::new(0),
            fallback_evictions: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
        }
    }

    /// Opens a maintenance writer section: the epoch goes odd until the
    /// returned guard drops. Sections never nest — `route_delta` and the
    /// public `fallback_invalidate_uri` each open exactly one.
    fn begin_maintenance(&self) -> EpochWriter<'_> {
        self.epoch.fetch_add(1, Ordering::Acquire);
        EpochWriter(&self.epoch)
    }

    /// The current maintenance epoch: even when quiescent, odd while a
    /// delta route or fallback invalidation is in flight. Composite
    /// readers (e.g. `Engine::snapshot`) can bracket multi-field reads
    /// with two calls and retry on a mismatch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Evicts every artifact compiled for `uri` (all specs, all guide
    /// fingerprints). Returns the number of entries dropped.
    pub fn invalidate_uri(&self, uri: &str) -> usize {
        self.expansions.retain(|k| k.uri != uri)
            + self.levels.retain(|k| k.uri != uri)
            + self.tables.retain(|k| k.uri != uri)
            + self.indexes.retain(|k| k.uri != uri)
    }

    /// The maintenance hard fallback: evicts everything for `uri` and
    /// counts the drops as fallback evictions. Used when an explicit
    /// compaction (or a recovery replay the engine cannot model) makes
    /// maintenance claims unsafe.
    pub fn fallback_invalidate_uri(&self, uri: &str) -> usize {
        let _epoch = self.begin_maintenance();
        self.fallback_invalidate_inner(uri)
    }

    /// [`ExecCache::fallback_invalidate_uri`] without the epoch bracket,
    /// for callers (the delta router) already inside a writer section.
    fn fallback_invalidate_inner(&self, uri: &str) -> usize {
        let dropped = self.invalidate_uri(uri);
        self.fallback_evictions
            .fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// Routes one edit-batch delta to every cached entry of its URI. One
    /// verdict per view decides: a delta that can change the view's
    /// expansion drops all four entries for recomputation; otherwise the
    /// three guide-shaped entries are re-keyed to the post-edit
    /// fingerprint and restamped with the new generation, and the
    /// per-node index is spliced the same way — unless the delta touched
    /// more nodes than `td` keeps, which drops it as a fallback eviction.
    /// `td` is the document *after* the batch (drained).
    pub fn route_delta(&self, delta: &ViewDelta, td: &TypedDocument) -> RouteOutcome {
        let _epoch = self.begin_maintenance();
        let mut out = RouteOutcome::default();
        if delta.overflowed {
            out.fallback_evictions = self.fallback_invalidate_inner(&delta.uri) as u64;
            return out;
        }
        let of_uri = |k: &ViewKey| k.uri == delta.uri;
        let mut keys: Vec<ViewKey> = Vec::new();
        for k in self
            .expansions
            .keys_matching(of_uri)
            .into_iter()
            .chain(self.levels.keys_matching(of_uri))
            .chain(self.tables.keys_matching(of_uri))
            .chain(self.indexes.keys_matching(of_uri))
        {
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        for key in keys {
            if key.guide != delta.old_fp {
                // A leftover keyed under an older guide shape: no future
                // lookup can reach it, so drop it as a plain invalidation.
                self.drop_key(&key);
                continue;
            }
            let vdg = match self.expansions.peek(&key) {
                Some(exp) if exp.value.unaffected_by(&delta.new_types, td.guide()) => exp.value,
                // The delta can change the expansion, or the expansion
                // fell out of the LRU and its dependents cannot be
                // re-validated without it.
                _ => {
                    out.recomputed += self.drop_key(&key) as u64;
                    continue;
                }
            };
            let new_key = ViewKey::new(key.uri.clone(), delta.new_fp, key.spec.clone());
            for kept in [
                route_one(&self.expansions, &key, &new_key, delta.gen, |_| true),
                route_one(&self.levels, &key, &new_key, delta.gen, |_| true),
                route_one(&self.tables, &key, &new_key, delta.gen, |_| true),
            ] {
                out.maintained += u64::from(kept.is_some());
            }
            // The per-node index is spliced only while the delta is no
            // larger than a rebuild's scan of the document's live nodes.
            if delta.touched.len() > td.pbn().len() {
                out.fallback_evictions += u64::from(self.indexes.remove(&key).is_some());
                continue;
            }
            // Copy-on-write: in place while the cache holds the only
            // reference, on a copy while a caller still holds the `Arc`.
            match route_one(&self.indexes, &key, &new_key, delta.gen, |index| {
                Arc::make_mut(index).maintain(delta, td, &vdg) != Maintained::MustRecompute
            }) {
                Some(true) => out.maintained += 1,
                Some(false) => out.recomputed += 1,
                None => {}
            }
        }
        self.maintained.fetch_add(out.maintained, Ordering::Relaxed);
        self.recomputed.fetch_add(out.recomputed, Ordering::Relaxed);
        self.fallback_evictions
            .fetch_add(out.fallback_evictions, Ordering::Relaxed);
        out
    }

    /// Drops `key` from all four maps; returns how many entries existed.
    fn drop_key(&self, key: &ViewKey) -> usize {
        usize::from(self.expansions.remove(key).is_some())
            + usize::from(self.levels.remove(key).is_some())
            + usize::from(self.tables.remove(key).is_some())
            + usize::from(self.indexes.remove(key).is_some())
    }

    /// Drops everything, without counting invalidations.
    pub fn clear(&self) {
        self.expansions.clear();
        self.levels.clear();
        self.tables.clear();
        self.indexes.clear();
    }

    /// Counter snapshot across the four artifact maps, taken under a
    /// stable maintenance epoch: if a delta route or fallback
    /// invalidation is in flight (epoch odd) or commits mid-read (epoch
    /// moved), the read retries, so the returned stats never mix
    /// pre-batch entry counts with post-batch maintenance totals.
    pub fn stats(&self) -> CacheStats {
        loop {
            let before = self.epoch();
            if before % 2 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let stats = CacheStats {
                expansions: self.expansions.counters(),
                levels: self.levels.counters(),
                tables: self.tables.counters(),
                indexes: self.indexes.counters(),
                maintained: self.maintained.load(Ordering::Relaxed),
                recomputed: self.recomputed.load(Ordering::Relaxed),
                fallback_evictions: self.fallback_evictions.load(Ordering::Relaxed),
            };
            if self.epoch() == before {
                return stats;
            }
        }
    }
}

/// Takes `key`'s entry out of `map` and lets `keep` update its value in
/// place: a kept value is re-keyed to `new_key` and restamped as
/// maintained for `gen`, a refused one is dropped as an invalidation.
/// Returns whether the entry was kept, or `None` when `key` is absent.
/// Out of the map, an `Arc` the map held alone stays unshared for `keep`.
fn route_one<V: Clone>(
    map: &ShardedLru<ViewKey, Stamped<V>>,
    key: &ViewKey,
    new_key: &ViewKey,
    gen: u64,
    keep: impl FnOnce(&mut V) -> bool,
) -> Option<bool> {
    let mut entry = map.take(key)?;
    if !keep(&mut entry.value) {
        map.invalidations.fetch_add(1, Ordering::Relaxed);
        return Some(false);
    }
    map.insert(
        new_key.clone(),
        Stamped {
            gen,
            maintained: true,
            value: entry.value,
        },
    );
    Some(true)
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
    fn get_or_try_insert_computes_once_per_key() {
        let lru: ShardedLru<String, u32> = ShardedLru::new(16);
        let key = "k".to_string();
        let v: Result<u32, ()> = lru.get_or_try_insert(&key, || Ok(7));
        assert_eq!(v, Ok(7));
        let v2: Result<u32, ()> = lru.get_or_try_insert(&key, || panic!("cached"));
        assert_eq!(v2, Ok(7));
        let err: Result<u32, &str> = lru.get_or_try_insert(&"e".to_string(), || Err("boom"));
        assert_eq!(err, Err("boom"));
        assert_eq!(lru.len(), 1, "failed computations are not cached");
    }

    #[test]
    fn retain_counts_invalidations() {
        let cache = ExecCache::new(16);
        let a = ViewKey::new("a.xml", 1, "title { author }");
        let b = ViewKey::new("b.xml", 2, "title { author }");
        let g = Arc::new(LevelMap::build(
            &VDataGuide::compile("data { ** }", &test_guide()).unwrap(),
            &test_guide(),
        ));
        cache.levels.insert(a.clone(), Stamped::fresh(0, g.clone()));
        cache.levels.insert(b.clone(), Stamped::fresh(0, g));
        assert_eq!(cache.invalidate_uri("a.xml"), 1);
        assert_eq!(cache.levels.len(), 1);
        assert!(cache.levels.get(&a).is_none());
        assert!(cache.levels.get(&b).is_some());
        assert_eq!(cache.stats().levels.invalidations, 1);
        assert_eq!(cache.stats().total_invalidations(), 1);
    }

    #[test]
    fn fingerprint_tracks_guide_shape() {
        let g1 = test_guide();
        let g2 = test_guide();
        assert_eq!(guide_fingerprint(&g1), guide_fingerprint(&g2));
        let (other, _) =
            DataGuide::from_document(&vh_xml::parse("mem://t", "<data><extra/></data>").unwrap());
        assert_ne!(guide_fingerprint(&g1), guide_fingerprint(&other));
    }

    #[test]
    fn stats_waits_for_an_in_flight_maintenance_section() {
        // Regression: a snapshot taken while a delta route was mid-flight
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
    fn maintenance_entry_points_each_close_their_epoch() {
        let cache = ExecCache::new(16);
        assert_eq!(cache.epoch(), 0);
        cache.fallback_invalidate_uri("a.xml");
        assert_eq!(cache.epoch(), 2, "fallback left the epoch open or nested");
        let delta = ViewDelta {
            uri: "a.xml".into(),
            overflowed: true,
            ..ViewDelta::default()
        };
        let td = TypedDocument::analyze(vh_xml::builder::paper_figure2());
        cache.route_delta(&delta, &td);
        assert_eq!(
            cache.epoch(),
            4,
            "overflow route (which falls back internally) must open exactly one section"
        );
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

    fn test_guide() -> DataGuide {
        let (g, _) = DataGuide::from_document(&vh_xml::builder::paper_figure2());
        g
    }
}
