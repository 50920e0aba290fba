//! Primitives on encoded PBN byte keys.
//!
//! The [`crate::encode`] scheme guarantees two structural facts about the
//! byte strings it produces:
//!
//! 1. `memcmp(enc(x), enc(y))` equals document order `x.cmp(y)`, and
//! 2. `enc(p)` is a byte-prefix of `enc(p.k)` for every child `p.k` — and
//!    the *only* byte-extensions of `enc(p)` that are **not** descendants
//!    of `p` are the minted gap siblings continuing with
//!    [`GAP_MARK`] (see `DESIGN.md` §12).
//!
//! Everything in this module follows from those facts alone, so the
//! functions take plain `&[u8]` slices — typically borrowed from a
//! [`crate::arena::PbnArena`] — and never allocate on the comparison path.
//! This is what turns the §5 axis predicates into `starts_with` /
//! `memcmp` calls and subtree axes into byte-range scans.
//!
//! The prefix predicates require `p` to end on a component boundary (a
//! full node key, or a [`component_boundary`] cut of one); `y` may be any
//! valid key.

use crate::encode::{ordinal_len, FRAC_END, FRONT_MARK, GAP_MARK};
use std::cmp::Ordering;

// --------------------------------------------------------- SWAR kernels ---
//
// The innermost operations — "is this key a prefix of that one", "which
// key sorts first" — run on every axis predicate, every binary-search
// probe and every structural-join containment test. The kernels below
// process keys a `u64` word at a time (SWAR: SIMD within a register)
// under `#![forbid(unsafe_code)]`: `from_le_bytes` on an 8-byte window
// compiles to one unaligned load, the XOR of two windows is zero exactly
// on equal bytes, and `trailing_zeros >> 3` names the first differing
// byte (little-endian keeps byte 0 in the low bits). No `std::simd`
// (nightly-only) and no `memchr`-style dependency — the workspace is
// dependency-free and pinned to MSRV 1.85 (DESIGN.md §13).
//
// Every `*_swar` kernel has a byte-at-a-time scalar twin it must agree
// with on all inputs; the `// oracle:` comments are load-bearing — the
// vh-vet `oracle-twin` lint fails the build when a kernel loses its twin.

/// Bytes per SWAR word.
const WORD: usize = 8;

/// Full-width little-endian load of `bytes[at..at + 8]`.
#[inline]
fn load_le(bytes: &[u8], at: usize) -> u64 {
    let mut buf = [0u8; WORD];
    // vet: allow(hot-path) — every caller checks at + WORD ≤ bytes.len() before loading
    buf.copy_from_slice(&bytes[at..at + WORD]);
    u64::from_le_bytes(buf)
}

/// Length of the longest common byte prefix of `a` and `b`, one `u64`
/// word per step: XOR the windows, and the first set bit's byte index is
/// the first difference.
///
/// oracle: common_prefix_len_scalar
// vet: hot
#[inline]
pub fn common_prefix_len_swar(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i + WORD <= n {
        let x = load_le(a, i) ^ load_le(b, i);
        if x != 0 {
            return i + (x.trailing_zeros() as usize >> 3);
        }
        i += WORD;
    }
    // Tail (< 8 bytes): plain byte loop. A zero-padded word load costs a
    // variable-length copy per side, which loses to straight-line byte
    // compares on the short keys shallow documents mint.
    // vet: allow(hot-path) — i < n ≤ min(a.len(), b.len()) bounds both probes
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// Scalar twin of [`common_prefix_len_swar`]: the byte loop the kernel
/// must be indistinguishable from. Kept `pub` so property tests and the
/// bench ablation can drive both sides.
#[inline]
pub fn common_prefix_len_scalar(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

/// Word-parallel `y.starts_with(p)`: full 8-byte windows of `p` compare
/// as `u64`s, the sub-word tail as one slice equality (`memcmp`-class
/// code), so short prefixes pay exactly what `std`'s `starts_with` does
/// and long ones drop the per-byte loop.
///
/// oracle: starts_with_scalar
// vet: hot
#[inline]
pub fn starts_with_swar(y: &[u8], p: &[u8]) -> bool {
    if p.len() > y.len() {
        return false;
    }
    let mut i = 0;
    while i + WORD <= p.len() {
        if load_le(p, i) != load_le(y, i) {
            return false;
        }
        i += WORD;
    }
    // vet: allow(hot-path) — p.len() ≤ y.len() was checked at entry and i ≤ p.len()
    p[i..] == y[i..p.len()]
}

/// Scalar twin of [`starts_with_swar`] (`std`'s byte-loop semantics).
#[inline]
pub fn starts_with_scalar(y: &[u8], p: &[u8]) -> bool {
    y.starts_with(p)
}

/// Word-parallel lexicographic byte comparison: walk full 8-byte windows
/// until one XORs non-zero — `trailing_zeros >> 3` then names the
/// deciding byte — and hand the sub-word tail to `std`'s slice ordering
/// (`memcmp`-class), so short keys pay exactly what `a.cmp(b)` does.
///
/// oracle: cmp_scalar
// vet: hot
#[inline]
pub fn cmp_swar(a: &[u8], b: &[u8]) -> Ordering {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i + WORD <= n {
        let x = load_le(a, i) ^ load_le(b, i);
        if x != 0 {
            let k = i + (x.trailing_zeros() as usize >> 3);
            // vet: allow(hot-path) — k < i + WORD ≤ n ≤ both lengths: the differing byte lies inside the loaded window
            return a[k].cmp(&b[k]);
        }
        i += WORD;
    }
    // vet: allow(hot-path) — i ≤ n ≤ both lengths, so both range tails are in bounds
    a[i..].cmp(&b[i..])
}

/// Scalar twin of [`cmp_swar`]: `std`'s slice ordering.
#[inline]
pub fn cmp_scalar(a: &[u8], b: &[u8]) -> Ordering {
    a.cmp(b)
}

/// Document order of two encoded keys: a plain byte comparison (SWAR'd).
#[inline]
pub fn cmp(a: &[u8], b: &[u8]) -> Ordering {
    cmp_swar(a, b)
}

/// True when `y`'s byte at the end of prefix `p` continues into `p`'s
/// sibling gap — i.e. `y` byte-extends `p` but is a minted *following
/// sibling* (or its descendant), not a descendant of `p`.
#[inline]
fn extends_into_gap(p: &[u8], y: &[u8]) -> bool {
    y.get(p.len()) == Some(&GAP_MARK)
}

/// True if `p` encodes an ancestor-or-self of `y`.
///
/// A byte-prefix test, refined for minted keys: an extension continuing
/// with [`GAP_MARK`] right after `p` lies in
/// `p`'s sibling gap and is excluded. (Front-gap children, continuing
/// with `0x00`, *are* descendants and remain included.)
// vet: hot
#[inline]
pub fn is_prefix(p: &[u8], y: &[u8]) -> bool {
    starts_with_swar(y, p) && !extends_into_gap(p, y)
}

/// True if `p` encodes a proper ancestor of `y` (strict prefix, same
/// gap-sibling exclusion as [`is_prefix`]).
// vet: hot
#[inline]
pub fn is_strict_prefix(p: &[u8], y: &[u8]) -> bool {
    y.len() > p.len() && starts_with_swar(y, p) && !extends_into_gap(p, y)
}

/// Number of bytes of the first component of `key`.
///
/// Components are self-delimiting: a plain ordinal's length follows from
/// the leading bits of its first byte; a minted component appends a
/// `0x00`-terminated fraction opened by `FRONT_MARK`/`GAP_MARK`. The
/// ordinal **and** its gap fraction are one component. Saturates at the
/// end of the key for truncated input (the codec, not this walker, is
/// responsible for rejecting it).
#[inline]
pub fn component_len(key: &[u8]) -> usize {
    let Some(&b0) = key.first() else {
        return 0;
    };
    let after_ord = if b0 == FRONT_MARK { 1 } else { ordinal_len(b0) };
    if after_ord > key.len() {
        return key.len();
    }
    let has_frac = b0 == FRONT_MARK || key.get(after_ord) == Some(&GAP_MARK);
    if !has_frac {
        return after_ord;
    }
    let frac_from = if b0 == FRONT_MARK {
        after_ord
    } else {
        after_ord + 1
    };
    match key[frac_from..].iter().position(|&b| b == FRAC_END) {
        Some(p) => frac_from + p + 1,
        None => key.len(),
    }
}

/// Byte offset of the end of the first `m` components of `key`, i.e.
/// `enc(x)[..component_boundary(enc(x), m)] == enc(x.prefix(m))`.
///
/// Walks at most `m` components; saturates at the end of the key (a key
/// with fewer than `m` components yields its full length).
pub fn component_boundary(key: &[u8], m: usize) -> usize {
    let mut i = 0;
    for _ in 0..m {
        if i >= key.len() {
            break;
        }
        i += component_len(&key[i..]);
    }
    i.min(key.len())
}

/// Number of components encoded in `key`.
pub fn component_count(key: &[u8]) -> usize {
    let mut i = 0;
    let mut n = 0;
    while i < key.len() {
        i += component_len(&key[i..]);
        n += 1;
    }
    n
}

/// The component slices of `key`, front to back — the walk the §5
/// predicates run instead of decoding a [`crate::Pbn`]. Two components
/// are equal exactly when their slices are ([`component_eq`]): the
/// encoding of one component is unique.
#[inline]
pub fn components(key: &[u8]) -> Components<'_> {
    Components { rest: key }
}

/// Byte offset where the component starting at `at` ends (`at` itself at
/// or past the end of the key): [`component_len`], with the one-byte
/// plain ordinal — nearly every component of an undisturbed document —
/// decided inline from two bytes.
#[inline]
fn component_end(key: &[u8], at: usize) -> usize {
    match key.get(at) {
        None => at,
        // 0x01..=0x7F is a whole one-byte ordinal unless a gap fraction
        // follows it.
        Some(&b) if b.wrapping_sub(1) < 0x7F && key.get(at + 1) != Some(&GAP_MARK) => at + 1,
        Some(_) => at + component_len(&key[at..]),
    }
}

/// Iterator over the component slices of an encoded key (see
/// [`components`]).
#[derive(Clone, Copy, Debug)]
pub struct Components<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Components<'a> {
    type Item = &'a [u8];

    #[inline]
    fn next(&mut self) -> Option<&'a [u8]> {
        if self.rest.is_empty() {
            return None;
        }
        // `component_end` saturates at the end of the key, so the split
        // never panics.
        let (comp, rest) = self.rest.split_at(component_end(self.rest, 0));
        self.rest = rest;
        Some(comp)
    }
}

/// Equality of two component slices, with the one-byte plain ordinal —
/// nearly every component of an undisturbed document — decided by one
/// byte compare instead of a `memcmp` call.
#[inline]
pub fn component_eq(a: &[u8], b: &[u8]) -> bool {
    match (a, b) {
        ([x], [y]) => x == y,
        _ => a == b,
    }
}

/// The exclusive upper bound of the subtree rooted at the node with key
/// `p`: `p · GAP_MARK`. Every descendant key is below it (component first
/// bytes are `<= 0xF0` or `FRONT_MARK`), and every minted following
/// sibling of `p` — which byte-extends `p` with `GAP_MARK` — is at or
/// above it.
pub fn subtree_end(p: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(p.len() + 1);
    out.extend_from_slice(p);
    out.push(GAP_MARK);
    out
}

/// The smallest byte string strictly greater than **every** string with
/// prefix `p`: drop trailing `0xFF` bytes and increment the last remaining
/// byte. Returns `None` when no such string exists (`p` empty or all
/// `0xFF`), meaning the range extends to the end of the key space.
///
/// This is the *raw byte-extension* bound; subtree scans over minted keys
/// use the tighter [`subtree_end`] / [`before_subtree_end`], which stop
/// before `p`'s sibling gap.
pub fn prefix_succ(p: &[u8]) -> Option<Vec<u8>> {
    let end = p.iter().rposition(|&b| b != 0xFF)?;
    let mut out = p[..=end].to_vec();
    out[end] += 1;
    Some(out)
}

/// True iff `y < subtree_end(p)` — the allocation-free form of the subtree
/// upper bound. Equivalent to `y < p || is_prefix(p, y)`: a key below the
/// subtree's end either precedes the subtree entirely or lies inside it.
#[inline]
pub fn before_subtree_end(p: &[u8], y: &[u8]) -> bool {
    before_subtree_end_swar(p, y)
}

/// One SWAR pass decides both arms of [`before_subtree_end`]: with `k`
/// common bytes, `y` extends `p` iff `k == p.len() ≤ y.len()`, and
/// otherwise `y < p` iff the first differing byte (or `y` running out)
/// says so.
///
/// oracle: before_subtree_end_scalar
// vet: hot
#[inline]
pub fn before_subtree_end_swar(p: &[u8], y: &[u8]) -> bool {
    let k = common_prefix_len_swar(p, y);
    if k == p.len() && y.len() >= p.len() {
        !extends_into_gap(p, y)
    } else {
        match (y.get(k), p.get(k)) {
            (Some(a), Some(b)) => a < b,
            _ => y.len() < p.len(),
        }
    }
}

/// Scalar twin of [`before_subtree_end_swar`], byte loops only — the
/// form the SWAR rewrite must agree with on every key pair.
#[inline]
pub fn before_subtree_end_scalar(p: &[u8], y: &[u8]) -> bool {
    (y.starts_with(p) && !extends_into_gap(p, y)) || y < p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::number::Comp;
    use crate::{pbn, EncodedPbn, Pbn};

    fn enc(p: &Pbn) -> Vec<u8> {
        EncodedPbn::encode(p).as_bytes().to_vec()
    }

    /// A key universe mixing plain and minted numbers.
    fn universe() -> Vec<(Pbn, Vec<u8>)> {
        let mut nums = vec![
            pbn![1],
            pbn![1, 1],
            pbn![1, 1, 200],
            pbn![1, 2],
            pbn![1, 2, 7],
            pbn![1, 2, 999, 4],
            pbn![1, 3],
            pbn![1, 127],
            pbn![1, 128],
            pbn![1, 128, 1],
            pbn![1, 129],
            pbn![2],
        ];
        nums.push(Pbn::root().child_comp(Comp::minted(0, vec![0x80])));
        nums.push(Pbn::root().child_comp(Comp::minted(0, vec![0x80])).child(2));
        nums.push(Pbn::root().child_comp(Comp::minted(2, vec![0x40])));
        nums.push(Pbn::root().child_comp(Comp::minted(2, vec![0x40, 0x02])));
        nums.push(Pbn::root().child_comp(Comp::minted(2, vec![0x40])).child(1));
        nums.push(Pbn::root().child_comp(Comp::minted(128, vec![0x80])));
        nums.into_iter().map(|p| (p.clone(), enc(&p))).collect()
    }

    #[test]
    fn cmp_is_document_order() {
        let u = universe();
        for (x, kx) in &u {
            for (y, ky) in &u {
                assert_eq!(cmp(kx, ky), x.cmp(y), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn prefix_predicates_match_number_prefixes() {
        // Including minted keys: byte predicates must agree with the
        // component-level prefix tests, which are gap-correct by
        // construction (a minted component never equals a plain one).
        let u = universe();
        for (x, kx) in &u {
            for (y, ky) in &u {
                assert_eq!(is_prefix(kx, ky), x.is_prefix_of(y), "{x} vs {y}");
                assert_eq!(
                    is_strict_prefix(kx, ky),
                    x.is_strict_prefix_of(y),
                    "{x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn component_walks_agree_with_the_number_form() {
        let p = pbn![1, 128, 2, 300_000, 5];
        let k = enc(&p);
        assert_eq!(component_count(&k), 5);
        for m in 0..=5 {
            let boundary = component_boundary(&k, m);
            assert_eq!(&k[..boundary], &enc(&p.prefix(m))[..], "m = {m}");
        }
        // Saturation past the end.
        assert_eq!(component_boundary(&k, 99), k.len());
    }

    #[test]
    fn component_walks_treat_a_minted_component_as_one_unit() {
        let p = Pbn::root()
            .child_comp(Comp::minted(2, vec![0x40, 0x02]))
            .child(3)
            .child_comp(Comp::minted(0, vec![0x80]));
        let k = enc(&p);
        assert_eq!(component_count(&k), 4);
        for m in 0..=4 {
            let boundary = component_boundary(&k, m);
            assert_eq!(&k[..boundary], &enc(&p.prefix(m))[..], "m = {m}");
        }
    }

    #[test]
    fn component_slices_are_the_decoded_components() {
        // The walk the §5 predicates run: slice `i` is the encoding of
        // component `i`, and slice equality is component equality —
        // minted fractions included.
        let u = universe();
        for (p, k) in &u {
            let slices: Vec<&[u8]> = components(k).collect();
            assert_eq!(slices.len(), p.len(), "{p}");
            for (slice, comp) in slices.iter().zip(p.components()) {
                let alone = enc(&Pbn::from_comps(vec![comp.clone()]));
                assert_eq!(*slice, alone.as_slice(), "{p}");
            }
            for (q, kq) in &u {
                for (i, (a, b)) in components(k).zip(components(kq)).enumerate() {
                    assert_eq!(
                        component_eq(a, b),
                        p.components()[i] == q.components()[i],
                        "{p} vs {q} at {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn prefix_succ_drops_ff_tails_and_increments() {
        assert_eq!(prefix_succ(&[1, 2]), Some(vec![1, 3]));
        assert_eq!(prefix_succ(&[1, 0xFF, 0xFF]), Some(vec![2]));
        assert_eq!(prefix_succ(&[0xFF, 0xFF]), None);
        assert_eq!(prefix_succ(&[]), None);
    }

    #[test]
    fn subtree_end_bounds_exactly_the_subtree() {
        // Membership in [p, subtree_end(p)) equals the ancestor-or-self
        // test — the theorem the range scans rely on — for plain *and*
        // minted keys.
        let u = universe();
        for (x, p) in &u {
            let hi = subtree_end(p);
            for (y, k) in &u {
                let inside = p.as_slice() <= k.as_slice() && k.as_slice() < hi.as_slice();
                assert_eq!(inside, x.is_prefix_of(y), "p={x} y={y}");
                assert_eq!(
                    k.as_slice() < hi.as_slice(),
                    before_subtree_end(p, k),
                    "p={x} y={y}"
                );
            }
        }
    }

    #[test]
    fn empty_prefix_spans_everything() {
        assert!(before_subtree_end(&[], &enc(&pbn![1])));
        assert!(is_prefix(&[], &enc(&pbn![7, 7])));
    }

    // ------------------------- SWAR kernels vs their scalar twins ---------

    /// Asserts every SWAR kernel agrees with its scalar twin on one pair.
    fn assert_twins_agree(a: &[u8], b: &[u8]) {
        assert_eq!(
            common_prefix_len_swar(a, b),
            common_prefix_len_scalar(a, b),
            "common_prefix_len on {a:02x?} vs {b:02x?}"
        );
        assert_eq!(
            starts_with_swar(a, b),
            starts_with_scalar(a, b),
            "starts_with on {a:02x?} vs {b:02x?}"
        );
        assert_eq!(
            cmp_swar(a, b),
            cmp_scalar(a, b),
            "cmp on {a:02x?} vs {b:02x?}"
        );
        assert_eq!(
            before_subtree_end_swar(a, b),
            before_subtree_end_scalar(a, b),
            "before_subtree_end on {a:02x?} vs {b:02x?}"
        );
    }

    /// Adversarial lengths: every pairing of lengths 0..17 straddles the
    /// 8-byte word boundary (0, 7, 8, 9, 15, 16 in particular), with the
    /// shared prefix ending at every byte of the shorter key — including
    /// mid-word — and the first difference being each of +1/-1/0xFF flips.
    #[test]
    fn swar_twins_agree_around_the_word_boundary() {
        for la in 0..17usize {
            for lb in 0..17usize {
                let base: Vec<u8> = (0..la.max(lb))
                    .map(|i| (i as u8).wrapping_mul(37))
                    .collect();
                for cut in 0..=la.min(lb) {
                    for flip in [0x01u8, 0xFF, 0x80] {
                        let a: Vec<u8> = base[..la].to_vec();
                        let mut b: Vec<u8> = base[..lb].to_vec();
                        if cut < b.len() {
                            b[cut] ^= flip;
                        }
                        assert_twins_agree(&a, &b);
                        assert_twins_agree(&b, &a);
                    }
                }
            }
        }
    }

    /// Saturated runs: keys that are all-0x00 or all-0xFF defeat any
    /// early-out keyed on byte values (a zero XOR word looks exactly like
    /// tail padding).
    #[test]
    fn swar_twins_agree_on_saturated_runs() {
        for la in 0..17usize {
            for lb in 0..17usize {
                for (fa, fb) in [(0x00u8, 0x00u8), (0xFF, 0xFF), (0x00, 0xFF), (0xFF, 0x00)] {
                    let a = vec![fa; la];
                    let b = vec![fb; lb];
                    assert_twins_agree(&a, &b);
                    // A single dissenting byte at each end of the run.
                    for pos in [0usize, la.saturating_sub(1)] {
                        let mut a2 = a.clone();
                        if pos < a2.len() {
                            a2[pos] ^= 0x10;
                        }
                        assert_twins_agree(&a2, &b);
                    }
                }
            }
        }
    }

    /// Minted gap-fraction keys: real encoder output whose GAP_MARK /
    /// FRONT_MARK / FRAC_END bytes sit at codec-chosen offsets, crossed
    /// against the whole universe and against component-boundary cuts of
    /// themselves (the prefixes the §5 predicates actually probe with).
    #[test]
    fn swar_twins_agree_on_minted_universe_keys() {
        let u = universe();
        for (_, ka) in &u {
            for (_, kb) in &u {
                assert_twins_agree(ka, kb);
            }
            for m in 0..=component_count(ka) {
                let p = &ka[..component_boundary(ka, m)];
                for (_, kb) in &u {
                    assert_twins_agree(p, kb);
                    assert_twins_agree(kb, p);
                }
            }
        }
    }

    /// A deterministic LCG fuzz pass over byte pairs sharing random-length
    /// prefixes, lengths skewed to hug the word boundary.
    #[test]
    fn swar_twins_agree_on_lcg_fuzz() {
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        // The interpreter pays ~1000x per instruction: a short pass there.
        for _ in 0..if cfg!(miri) { 200 } else { 4000 } {
            let la = (next() % 24) as usize;
            let lb = (next() % 24) as usize;
            let shared = (next() as usize) % (la.min(lb) + 1);
            let mut a = vec![0u8; la];
            let mut b = vec![0u8; lb];
            for x in a.iter_mut() {
                *x = next() as u8;
            }
            b[..shared.min(la)].copy_from_slice(&a[..shared.min(la)]);
            for x in b.iter_mut().skip(shared) {
                *x = next() as u8;
            }
            assert_twins_agree(&a, &b);
        }
    }
}
