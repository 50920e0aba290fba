//! The vPBN number: a physical PBN number coupled with a level array.
//!
//! §5: "Virtual PBN maps each PBN number to a virtual PBN number (vPBN
//! number). A vPBN number is like a PBN number, but adds a level array."
//! The physical number is *never* changed; the level array is shared by all
//! nodes of a virtual type, so the borrowed view [`VPbnRef`] is what query
//! processing actually passes around (the paper: "the level arrays do not
//! have to be stored with the numbers since the level array can be stored
//! with each type").
//!
//! There is one number representation: the node's order-preserving byte
//! key, borrowed from the document's `PbnArena`. The predicates walk
//! component boundaries in the key bytes ([`vh_pbn::keys::components`])
//! and never decode; each keeps a decode-then-compare twin over [`Pbn`]
//! values that the property tests hold it to.

use crate::levels::LevelArray;
use crate::vdg::VTypeId;
use std::fmt;
use vh_pbn::encode::GAP_MARK;
use vh_pbn::{keys, EncodedPbn, Pbn};

/// An owned vPBN number (number + level array + virtual type).
///
/// Owned values are convenient for tests and APIs that outlive the borrow;
/// hot paths use [`VPbnRef`].
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct VPbn {
    /// The physical PBN number (unchanged from the original document).
    pub pbn: Pbn,
    /// The level array of the node's virtual type.
    pub levels: LevelArray,
    /// The node's virtual type.
    pub vtype: VTypeId,
    /// `pbn`'s encoded key, which [`VPbn::as_ref`] lends out.
    key: EncodedPbn,
}

impl VPbn {
    /// Creates an owned vPBN number.
    pub fn new(pbn: Pbn, levels: LevelArray, vtype: VTypeId) -> Self {
        let key = EncodedPbn::encode(&pbn);
        VPbn {
            pbn,
            levels,
            vtype,
            key,
        }
    }

    /// Borrowed view for predicate evaluation.
    #[inline]
    pub fn as_ref(&self) -> VPbnRef<'_> {
        VPbnRef {
            key: self.key.as_bytes(),
            a: self.levels.levels(),
            vtype: self.vtype,
        }
    }

    /// The node's virtual level (`max(xa)`).
    #[inline]
    pub fn level(&self) -> u32 {
        self.levels.max_level()
    }
}

impl fmt::Debug for VPbn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.pbn, self.levels)
    }
}

/// A borrowed vPBN number: the encoded key of the physical number, the
/// level array of the node's type, and the virtual type itself.
#[derive(Clone, Copy, Debug)]
pub struct VPbnRef<'a> {
    /// The physical number's order-preserving byte key (`xn` in the
    /// paper's notation), usually borrowed from the arena. Component `i`
    /// is the `i`-th slice of [`keys::components`]; byte order is
    /// document order, minted components included.
    pub key: &'a [u8],
    /// Level array (`xa`). For case-2 types, one longer than the number.
    pub a: &'a [u32],
    /// The virtual type of the node (for the type-level side conditions).
    pub vtype: VTypeId,
}

impl<'a> VPbnRef<'a> {
    /// Builds a borrowed vPBN from an encoded key, a type's level array
    /// and the type.
    #[inline]
    pub fn new(key: &'a [u8], a: &'a LevelArray, vtype: VTypeId) -> Self {
        VPbnRef {
            key,
            a: a.levels(),
            vtype,
        }
    }

    /// Builds a borrowed vPBN directly from a key and a level slice — the
    /// columnar form, where the key comes from the arena and the levels
    /// from the flat level column of a [`crate::levels::LevelMap`].
    #[inline]
    pub fn from_slices(key: &'a [u8], a: &'a [u32], vtype: VTypeId) -> Self {
        VPbnRef { key, a, vtype }
    }

    /// `max(xa)`: the virtual level of the node. Level arrays are
    /// non-decreasing, so the last entry is the maximum.
    #[inline]
    pub fn level(&self) -> u32 {
        // Invariant: level arrays come from `LevelMap::build`, which never
        // produces an empty array (see `LevelArray::max_level`).
        match self.a.last() {
            Some(&l) => l,
            None => unreachable!("level arrays are never empty"),
        }
    }

    /// Number of positions safely comparable with another vPBN: positions
    /// must exist in both the number and the array on both sides. One
    /// walk over both keys, at most as far as the shorter array.
    ///
    /// oracle: comparable_len_decoded
    #[inline]
    pub fn comparable_len(&self, other: &VPbnRef<'_>) -> usize {
        let arrays = self.a.len().min(other.a.len());
        keys::components(self.key)
            .zip(keys::components(other.key))
            .take(arrays)
            .count()
    }

    /// Decode-then-compare twin of [`Self::comparable_len`]: the
    /// component counts of the decoded numbers.
    pub fn comparable_len_decoded(&self, other: &VPbnRef<'_>) -> usize {
        let (x, y) = (decoded(self.key), decoded(other.key));
        x.len().min(self.a.len()).min(y.len()).min(other.a.len())
    }

    /// The number-level *compatibility* core shared by every vertical
    /// virtual predicate (§5): at every position present in both numbers,
    /// matching levels imply matching components. Two nodes standing in any
    /// virtual ancestor/descendant relationship are always compatible;
    /// nodes from divergent subtrees are not. One pass over both keys, no
    /// decoding (see `components_agree`).
    ///
    /// oracle: compatible_with_decoded
    #[inline]
    pub fn compatible_with(&self, other: &VPbnRef<'_>) -> bool {
        self.components_agree(other, |la, lb| la == lb)
    }

    /// Decode-then-compare twin of [`Self::compatible_with`]: the
    /// component loop over decoded [`Pbn`] values.
    pub fn compatible_with_decoded(&self, other: &VPbnRef<'_>) -> bool {
        let (x, y) = (decoded(self.key), decoded(other.key));
        let m = self.comparable_len_decoded(other);
        (0..m).all(|i| self.a[i] != other.a[i] || x.components()[i] == y.components()[i])
    }

    /// True when, at every position present in both numbers and both
    /// level arrays where `must_agree(xa[i], ya[i])` holds, the two
    /// components are equal — the shape of every number-level §5 test.
    ///
    /// Fast path: while both keys hold bytes `0x01..=0x7F`, byte `i` is
    /// component `i` (a one-byte plain ordinal — nearly every component
    /// of a document whose nodes have fewer than 128 children), so the
    /// test is one byte compare per position, and `must_agree` runs only
    /// where the bytes differ. The first other byte — a longer ordinal, a
    /// minted fraction, or a gap mark after the last compared byte —
    /// hands the pair to the component walk.
    #[inline]
    pub(crate) fn components_agree(
        &self,
        other: &VPbnRef<'_>,
        must_agree: impl Fn(u32, u32) -> bool,
    ) -> bool {
        let (x, y) = (self.key, other.key);
        let m = x.len().min(y.len()).min(self.a.len()).min(other.a.len());
        let one_byte = |b: u8| b.wrapping_sub(1) < 0x7F;
        for i in 0..m {
            let (bx, by) = (x[i], y[i]);
            if !(one_byte(bx) && one_byte(by)) {
                return self.components_agree_walk(other, must_agree);
            }
            // Both components start at byte `i`; differing first bytes
            // make them differ whatever follows.
            if bx != by && must_agree(self.a[i], other.a[i]) {
                return false;
            }
        }
        if x.get(m) == Some(&GAP_MARK) || y.get(m) == Some(&GAP_MARK) {
            return self.components_agree_walk(other, must_agree);
        }
        true
    }

    /// The component walk behind [`Self::components_agree`], for keys with
    /// longer ordinals or minted fractions.
    #[inline(never)]
    fn components_agree_walk(
        &self,
        other: &VPbnRef<'_>,
        must_agree: impl Fn(u32, u32) -> bool,
    ) -> bool {
        keys::components(self.key)
            .zip(keys::components(other.key))
            .zip(self.a.iter().zip(other.a))
            .all(|((cx, cy), (&la, &lb))| !must_agree(la, lb) || keys::component_eq(cx, cy))
    }
}

/// The number a key encodes, for the decode-based oracle twins (the empty
/// number for a malformed key, which no arena holds).
pub(crate) fn decoded(key: &[u8]) -> Pbn {
    vh_pbn::encode::decode_key(key).unwrap_or_else(|_| Pbn::empty())
}

/// A deterministic corpus of random vPBN numbers for the byte-walk vs
/// decode-twin property tests: numbers over plain ordinals of every
/// encoding tier and `KeyGen::between` mints (`FRONT_MARK` front gaps,
/// `GAP_MARK` between-sibling gaps, gaps inside gaps), each with a random
/// non-decreasing level array as long as the number or one longer (case
/// 2), and a virtual type below `vtypes`.
#[cfg(test)]
pub(crate) fn arbitrary_vpbns(seed: u64, n: usize, vtypes: usize) -> Vec<VPbn> {
    use vh_pbn::KeyGen;
    let mut state = seed;
    let mut next = move |bound: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % bound.max(1)
    };
    const ORDINALS: [u32; 7] = [1, 2, 3, 127, 128, 200, 70_000];
    let mut nums: Vec<Pbn> = vec![Pbn::root()];
    while nums.len() < n {
        let parent = nums[next(nums.len())].clone();
        let k = ORDINALS[next(ORDINALS.len())];
        let child = match next(4) {
            0 => parent.child(k),
            1 => KeyGen::between(&parent, None, Some(&parent.child(k))),
            2 => KeyGen::between(&parent, Some(&parent.child(k)), Some(&parent.child(k + 1))),
            _ => {
                let gap = KeyGen::between(&parent, Some(&parent.child(k)), None);
                KeyGen::between(&parent, Some(&parent.child(k)), Some(&gap))
            }
        };
        nums.push(child);
    }
    nums.into_iter()
        .map(|pbn| {
            let len = pbn.len() + next(2);
            let mut level = 1u32;
            let levels: Vec<u32> = (0..len)
                .map(|i| {
                    level += u32::from(i > 0 && next(2) == 0);
                    level
                })
                .collect();
            let vt = VTypeId::from_index(next(vtypes));
            VPbn::new(pbn, LevelArray::new(levels), vt)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vh_pbn::pbn;

    #[test]
    fn owned_and_borrowed_views_agree() {
        let v = VPbn::new(
            pbn![1, 1, 2],
            LevelArray::new(vec![1, 1, 2]),
            VTypeId::from_index(3),
        );
        let r = v.as_ref();
        assert_eq!(r.key, EncodedPbn::encode(&pbn![1, 1, 2]).as_bytes());
        assert_eq!(r.a, &[1, 1, 2]);
        assert_eq!(r.level(), 2);
        assert_eq!(v.level(), 2);
        assert_eq!(r.vtype, VTypeId::from_index(3));
    }

    #[test]
    fn comparable_len_respects_case2_arrays() {
        // Case-2 node: number 1.1.2 with array [1,1,2,3].
        let x = VPbn::new(
            pbn![1, 1, 2],
            LevelArray::new(vec![1, 1, 2, 3]),
            VTypeId::from_index(0),
        );
        let y = VPbn::new(
            pbn![1, 1, 2, 1],
            LevelArray::new(vec![1, 1, 2, 2]),
            VTypeId::from_index(1),
        );
        assert_eq!(x.as_ref().comparable_len(&y.as_ref()), 3);
    }
}
