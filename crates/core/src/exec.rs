//! The execution knob and deterministic partition/merge primitives.
//!
//! Every parallel stage in the engine follows one discipline: partition
//! the input into **contiguous chunks in document order**, process each
//! chunk independently on its own thread, and concatenate the per-chunk
//! results **in chunk order**. Because chunk boundaries respect the input
//! order and the merge is a plain concatenation, the output is
//! byte-identical to the sequential run for every operator built on these
//! helpers — parallelism changes wall-clock time, never results. The
//! property tests in `tests/properties.rs` pin this for random trees and
//! all thread counts.
//!
//! Parallelism is opt-in: [`ExecOptions::default`] keeps `threads = 1`, so
//! benchmarks and existing callers stay single-threaded unless they ask.

use std::cmp::Ordering;

/// How a query (or bench) run executes: degree of parallelism and whether
/// compiled views (vDataGuide expansion, level map, prefix tables, type
/// index) are served from the [`crate::cache::ExecCache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecOptions {
    /// Worker threads for partitionable stages. `1` = sequential (the
    /// default); `0` = use all hardware threads.
    pub threads: usize,
    /// Whether compiled views are cached across queries.
    pub cache: bool,
    /// Minimum input length before a stage is split across threads;
    /// smaller inputs run sequentially (thread spawn costs more than the
    /// work). Tests lower this to exercise the parallel paths on small
    /// trees.
    pub par_threshold: usize,
}

/// Default minimum input length for going parallel.
pub const DEFAULT_PAR_THRESHOLD: usize = 4096;

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            threads: 1,
            cache: true,
            par_threshold: DEFAULT_PAR_THRESHOLD,
        }
    }
}

impl ExecOptions {
    /// Sequential execution with caching enabled (the default).
    pub fn sequential() -> Self {
        ExecOptions::default()
    }

    /// Parallel execution with `threads` workers (0 = all hardware
    /// threads), caching enabled.
    pub fn with_threads(threads: usize) -> Self {
        ExecOptions {
            threads,
            ..ExecOptions::default()
        }
    }

    /// The resolved worker count: `0` maps to the hardware thread count.
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            rayon::current_num_threads()
        } else {
            self.threads
        }
    }

    /// Number of chunks a stage over `len` items should split into:
    /// 1 (sequential) when parallelism is off or the input is below the
    /// threshold, otherwise at most one chunk per worker and per item.
    pub fn plan(&self, len: usize) -> usize {
        let t = self.resolved_threads();
        if t <= 1 || len < self.par_threshold.max(2) {
            1
        } else {
            t.min(len)
        }
    }
}

/// Splits `0..len` into `parts` contiguous, near-equal intervals (the
/// leading `len % parts` chunks are one longer). Empty when `len == 0`.
pub fn chunk_bounds(len: usize, parts: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, len);
    let base = len / parts;
    let extra = len % parts;
    let mut bounds = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        bounds.push((start, start + size));
        start += size;
    }
    bounds
}

/// Maps each chunk of `items` through `f`, in parallel when `opts` allows,
/// and returns the per-chunk results **in chunk order**.
pub fn par_chunk_map<T, R, F>(opts: &ExecOptions, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    let parts = opts.plan(items.len());
    let bounds = chunk_bounds(items.len(), parts);
    if parts <= 1 {
        return bounds.iter().map(|&(lo, hi)| f(&items[lo..hi])).collect();
    }
    let mut slots: Vec<Option<R>> = Vec::with_capacity(bounds.len());
    slots.resize_with(bounds.len(), || None);
    rayon::scope(|s| {
        for (slot, &(lo, hi)) in slots.iter_mut().zip(&bounds) {
            let f = &f;
            s.spawn(move || *slot = Some(f(&items[lo..hi])));
        }
    });
    slots
        .into_iter()
        .map(|r| match r {
            Some(r) => r,
            // Invariant: rayon::scope joins every spawned worker before
            // returning, and each worker fills exactly its own slot.
            None => unreachable!("scope joined all chunk workers"),
        })
        .collect()
}

/// Keeps the items satisfying `pred`, preserving input order. Partitioned
/// filtering: per-chunk sequential filters concatenated in chunk order,
/// so the result is byte-identical to `items.iter().filter(...)`.
pub fn par_filter<T, F>(opts: &ExecOptions, items: &[T], pred: F) -> Vec<T>
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> bool + Sync,
{
    let chunks = par_chunk_map(opts, items, |chunk| {
        chunk
            .iter()
            .copied()
            .filter(|t| pred(t))
            .collect::<Vec<T>>()
    });
    concat(chunks)
}

/// Counts the items satisfying `pred` (partitioned, deterministic).
pub fn par_count<T, F>(opts: &ExecOptions, items: &[T], pred: F) -> usize
where
    T: Sync,
    F: Fn(&T) -> bool + Sync,
{
    par_chunk_map(opts, items, |chunk| {
        chunk.iter().filter(|t| pred(t)).count()
    })
    .into_iter()
    .sum()
}

/// Sorts `items` by `cmp`: chunks are sorted in parallel, then merged in
/// order. With a comparator under which distinct elements never compare
/// `Equal` (true for node sorts keyed by PBN numbers) the result is
/// identical to a sequential `sort_by`.
pub fn par_sort_by<T, F>(opts: &ExecOptions, items: &mut [T], cmp: F)
where
    T: Copy + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    let parts = opts.plan(items.len());
    if parts <= 1 {
        items.sort_by(&cmp);
        return;
    }
    let bounds = chunk_bounds(items.len(), parts);
    // Sort each chunk on its own thread (disjoint &mut splits).
    rayon::scope(|s| {
        let mut rest: &mut [T] = items;
        let mut consumed = 0;
        for &(lo, hi) in &bounds {
            let (chunk, tail) = rest.split_at_mut(hi - consumed);
            debug_assert_eq!(consumed, lo);
            consumed = hi;
            rest = tail;
            let cmp = &cmp;
            s.spawn(move || chunk.sort_by(cmp));
        }
    });
    // K-way merge by repeated two-way merges (k is small: ≤ thread count).
    let runs: Vec<Vec<T>> = bounds
        .iter()
        .map(|&(lo, hi)| items[lo..hi].to_vec())
        .collect();
    items.copy_from_slice(&merge_runs(runs, &cmp));
}

/// Merges runs, each sorted by `cmp`, into one sorted vector by repeated
/// stable two-way merges: about `n · log2(k)` comparisons for `k` runs
/// of `n` items in all. Never checks that `cmp` is consistent, so it
/// cannot panic on one that is not.
pub(crate) fn merge_runs<T: Copy>(
    mut runs: Vec<Vec<T>>,
    cmp: &impl Fn(&T, &T) -> Ordering,
) -> Vec<T> {
    while runs.len() > 1 {
        let mut next = Vec::with_capacity(runs.len().div_ceil(2));
        let mut it = runs.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(merge_by(&a, &b, cmp)),
                None => next.push(a),
            }
        }
        runs = next;
    }
    runs.into_iter().next().unwrap_or_default()
}

/// Stable two-way merge (ties take from `a` first).
fn merge_by<T: Copy>(a: &[T], b: &[T], cmp: &impl Fn(&T, &T) -> Ordering) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if cmp(&b[j], &a[i]) == Ordering::Less {
            out.push(b[j]);
            j += 1;
        } else {
            out.push(a[i]);
            i += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Branch-free `slice::partition_point`: the index of the first element
/// for which `pred` is false, assuming `pred` is true on a prefix.
///
/// The halving loop advances `base` by `usize::from(pred) * half`, so the
/// predicate result feeds a multiply instead of a conditional jump — on
/// the random probe keys of the §5 axis scans the branchy form is a coin
/// flip the predictor loses half the time.
///
/// oracle: partition_point_scalar
// vet: hot
#[inline]
pub fn partition_point_branchless<T>(items: &[T], pred: impl Fn(&T) -> bool) -> usize {
    let mut base = 0usize;
    let mut len = items.len();
    while len > 1 {
        let half = len / 2;
        // vet: allow(hot-path) — base + len ≤ items.len() is the loop invariant, so base + half - 1 is in bounds
        base += usize::from(pred(&items[base + half - 1])) * half;
        len -= half;
    }
    // vet: allow(hot-path) — the len == 1 guard short-circuits the probe of items[base]
    base + usize::from(len == 1 && pred(&items[base]))
}

/// Galloping `slice::partition_point`: the same answer as
/// [`partition_point_branchless`], found by probing `items[0]`,
/// `items[2]`, `items[6]`, `items[14]`, … (each probe doubling the
/// distance) until the predicate fails, then bisecting only that last
/// bracket. An answer at index `k` costs O(log k) probes, so a forward
/// sweep over sorted search keys pays for how far each search moves, not
/// for the length of the list.
///
/// oracle: partition_point_scalar
#[inline]
pub(crate) fn partition_point_gallop<T>(items: &[T], pred: impl Fn(&T) -> bool) -> usize {
    // Invariant: `pred` holds on all of `items[..lo]`.
    let mut lo = 0usize;
    let mut step = 1usize;
    let hi = loop {
        let probe = lo + step - 1;
        match items.get(probe) {
            Some(x) if pred(x) => {
                lo = probe + 1;
                step *= 2;
            }
            // `items[probe]` fails (or lies past the end): the answer is
            // in `lo..=probe`.
            _ => break probe.min(items.len()),
        }
    };
    lo + partition_point_branchless(&items[lo..hi], pred)
}

/// Scalar twin of [`partition_point_branchless`]: `std`'s branchy
/// bisection, the oracle the property suite compares against.
#[inline]
pub fn partition_point_scalar<T>(items: &[T], pred: impl Fn(&T) -> bool) -> usize {
    items.partition_point(pred)
}

/// Concatenates per-chunk result vectors in chunk order.
pub fn concat<T>(chunks: Vec<Vec<T>>) -> Vec<T> {
    let total = chunks.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for c in chunks {
        out.extend(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Options that force the parallel path even on tiny inputs.
    fn eager(threads: usize) -> ExecOptions {
        ExecOptions {
            threads,
            cache: true,
            par_threshold: 1,
        }
    }

    #[test]
    fn branchless_partition_point_matches_std_on_every_cut() {
        // Every sorted-prefix shape over lengths straddling powers of two,
        // with the cut at every position including the two ends.
        for len in [0usize, 1, 2, 3, 7, 8, 9, 15, 16, 17, 100] {
            let items: Vec<usize> = (0..len).collect();
            for cut in 0..=len {
                assert_eq!(
                    partition_point_branchless(&items, |&x| x < cut),
                    partition_point_scalar(&items, |&x| x < cut),
                    "len={len} cut={cut}"
                );
            }
        }
    }

    #[test]
    fn galloping_partition_point_matches_std_on_every_cut() {
        for len in [0usize, 1, 2, 3, 6, 7, 8, 14, 15, 16, 100] {
            let items: Vec<usize> = (0..len).collect();
            for cut in 0..=len {
                assert_eq!(
                    partition_point_gallop(&items, |&x| x < cut),
                    partition_point_scalar(&items, |&x| x < cut),
                    "len={len} cut={cut}"
                );
            }
        }
    }

    #[test]
    fn chunk_bounds_cover_the_range_contiguously() {
        for len in [0usize, 1, 2, 7, 100, 101] {
            for parts in [1usize, 2, 3, 8, 200] {
                let b = chunk_bounds(len, parts);
                let mut pos = 0;
                for &(lo, hi) in &b {
                    assert_eq!(lo, pos);
                    assert!(hi > lo, "no empty chunks");
                    pos = hi;
                }
                assert_eq!(pos, len);
                if len > 0 {
                    assert!(b.len() <= parts.max(1) && b.len() <= len);
                }
            }
        }
    }

    #[test]
    fn default_is_sequential() {
        let opts = ExecOptions::default();
        assert_eq!(opts.threads, 1);
        assert!(opts.cache);
        assert_eq!(opts.plan(1 << 20), 1);
    }

    #[test]
    fn plan_respects_threshold_and_thread_count() {
        let opts = eager(4);
        assert_eq!(opts.plan(100), 4);
        assert_eq!(opts.plan(3), 3, "never more chunks than items");
        let lazy = ExecOptions::with_threads(4);
        assert_eq!(lazy.plan(100), 1, "below DEFAULT_PAR_THRESHOLD");
        assert_eq!(lazy.plan(DEFAULT_PAR_THRESHOLD), 4);
        assert!(ExecOptions::with_threads(0).resolved_threads() >= 1);
    }

    /// Input sizes shrink under Miri, whose interpreter pays ~1000× per
    /// instruction; an odd prime keeps the uneven-chunk coverage.
    const PAR_SIZE: u32 = if cfg!(miri) { 97 } else { 997 };

    #[test]
    fn par_filter_matches_sequential_for_all_thread_counts() {
        let items: Vec<u32> = (0..PAR_SIZE).collect();
        let expect: Vec<u32> = items.iter().copied().filter(|x| x % 3 == 0).collect();
        for t in [1, 2, 3, 8] {
            let got = par_filter(&eager(t), &items, |x| x % 3 == 0);
            assert_eq!(got, expect, "threads={t}");
        }
    }

    #[test]
    fn par_count_matches_sequential() {
        let items: Vec<u32> = (0..PAR_SIZE).collect();
        let expect = items.iter().filter(|x| **x % 7 == 0).count();
        for t in [1, 2, 5] {
            assert_eq!(par_count(&eager(t), &items, |x| *x % 7 == 0), expect);
        }
    }

    #[test]
    fn par_sort_matches_sequential_sort() {
        // Deterministic pseudo-random permutation with unique keys.
        let items: Vec<u64> = (0..u64::from(PAR_SIZE))
            .map(|i| (i * 2654435761) % 1000003)
            .collect();
        let mut expect = items.clone();
        expect.sort();
        for t in [1, 2, 3, 8] {
            let mut got = items.clone();
            par_sort_by(&eager(t), &mut got, |a, b| a.cmp(b));
            assert_eq!(got, expect, "threads={t}");
        }
    }

    #[test]
    fn par_chunk_map_preserves_chunk_order() {
        let items: Vec<usize> = (0..100).collect();
        let sums = par_chunk_map(&eager(4), &items, |c| c.iter().sum::<usize>());
        assert_eq!(sums.len(), 4);
        assert_eq!(sums.iter().sum::<usize>(), 4950);
        // Chunk order: the first chunk holds the smallest indices.
        assert!(sums[0] < sums[3]);
    }

    #[test]
    fn empty_inputs_are_fine() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_filter(&eager(4), &empty, |_| true).is_empty());
        assert_eq!(par_count(&eager(4), &empty, |_| true), 0);
        let mut e2: Vec<u32> = Vec::new();
        par_sort_by(&eager(4), &mut e2, |a, b| a.cmp(b));
        assert!(e2.is_empty());
    }
}
