//! Columnar arena of encoded PBN keys.
//!
//! §4.2 packs numbers into order-preserving byte strings; this module packs
//! **all** of a document's numbers into one contiguous, document-order byte
//! buffer plus a `u32` offset table. A node's key is then a borrowed
//! `&[u8]` — zero per-node allocation, and a scan over keys in document
//! order is a linear walk of one buffer. Subtree-shaped axes become
//! binary-searched byte-range scans `[enc(p), prefix_succ(enc(p)))` over
//! the slot space (see [`crate::keys`]).
//!
//! Layout (also the on-disk column format in `vh-storage`):
//!
//! * `bytes`   — the concatenated encodings, slot 0 first;
//! * `offsets` — `n + 1` entries, slot `s` spans `bytes[offsets[s]..offsets[s+1]]`;
//! * `node_of_slot` — the [`NodeId`] at each document-order slot;
//! * `slot_of_node` — the inverse map, indexed by `NodeId::index()`
//!   (rebuilt from `node_of_slot` on load, never persisted).

use crate::encode::EncodedPbn;
use crate::keys;
use crate::number::Pbn;
use std::collections::BTreeMap;
use std::ops::Range;
use vh_xml::NodeId;

/// Sentinel slot for node ids that were never assigned a number (padding
/// entries of sparse id spaces). `key_of` returns the empty key for them.
const NO_SLOT: u32 = u32::MAX;

/// All of a document's encoded PBN keys in one document-order buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PbnArena {
    bytes: Vec<u8>,
    offsets: Vec<u32>,
    node_of_slot: Vec<NodeId>,
    slot_of_node: Vec<u32>,
}

/// Error raised when reassembling an arena from untrusted parts (disk
/// pages) fails structural validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArenaFormatError(pub String);

impl std::fmt::Display for ArenaFormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed PBN arena column: {}", self.0)
    }
}

impl std::error::Error for ArenaFormatError {}

impl PbnArena {
    /// Flattens `(number, node)` pairs — already sorted in document order —
    /// into the columnar form. `id_space` is the size of the document's
    /// node-id space (ids not present keep the empty key).
    pub fn build(sorted: &[(Pbn, NodeId)], id_space: usize) -> Self {
        let mut arena = PbnArena {
            bytes: Vec::with_capacity(sorted.len() * 3),
            offsets: vec![0],
            node_of_slot: Vec::with_capacity(sorted.len()),
            slot_of_node: vec![NO_SLOT; id_space],
        };
        for (pbn, id) in sorted {
            arena.push(pbn, *id);
        }
        arena
    }

    /// Appends the key of node `id`'s number at the next slot, inverse map
    /// included. Numbers must arrive in strictly increasing document
    /// order and `id` must lie in the id space.
    fn push(&mut self, pbn: &Pbn, id: NodeId) {
        self.slot_of_node[id.index()] = self.len() as u32;
        self.push_key(EncodedPbn::encode(pbn).as_bytes(), id);
    }

    /// Appends node `id` at the next slot as the `ord`-th child of the
    /// node at `parent_slot` (the root when `None`): its key is the
    /// parent's key plus one encoded ordinal, copied within the buffer, so
    /// a preorder walk numbers a document without building a single
    /// [`Pbn`]. The same ordering and id-space contract as [`Self::build`].
    pub(crate) fn push_child(&mut self, parent_slot: Option<usize>, ord: u32, id: NodeId) {
        if let Some(p) = parent_slot {
            let (from, to) = (self.offsets[p] as usize, self.offsets[p + 1] as usize);
            self.bytes.extend_from_within(from..to);
        }
        crate::encode::encode_ordinal(ord, &mut self.bytes);
        self.slot_of_node[id.index()] = self.len() as u32;
        self.offsets.push(self.bytes.len() as u32);
        self.node_of_slot.push(id);
    }

    /// Absorbs a delta segment: turns this arena, built over an earlier
    /// numbering, into the arena of the current one. `pending` maps every
    /// node whose number was inserted or removed since this arena was
    /// built to its current key (empty once retired); every other node
    /// keeps its key, and `id_space` is the current id space. The
    /// encoding is order-preserving, so a fresh key merges at its lower
    /// bound in this (old) arena. Surviving runs of slots are copied as
    /// contiguous blocks and the fresh keys are copied in as they are, so
    /// the result equals [`Self::build`] over the current numbering at the
    /// cost of a copy plus O(pending) binary searches.
    ///
    /// oracle: build
    pub(crate) fn splice(&mut self, pending: &BTreeMap<NodeId, Vec<u8>>, id_space: usize) {
        // The pending nodes still numbered, with their merge slots in key
        // order, and the old slots of the pending nodes this arena keyed
        // (now stale).
        let mut fresh: Vec<(usize, &[u8], NodeId)> = pending
            .iter()
            .filter(|(_, key)| !key.is_empty())
            .map(|(&id, key)| (self.lower_bound(key), key.as_slice(), id))
            .collect();
        fresh.sort_unstable_by(|a, b| a.1.cmp(b.1));
        let mut stale: Vec<usize> = pending.keys().filter_map(|&id| self.slot_of(id)).collect();
        stale.sort_unstable();
        let stale_bytes: usize = stale.iter().map(|&s| self.key_at_slot(s).len()).sum();
        let fresh_bytes: usize = fresh.iter().map(|(_, k, _)| k.len()).sum();
        let slots = self.len() - stale.len() + fresh.len();

        let mut out = PbnArena {
            bytes: Vec::with_capacity(self.bytes.len() - stale_bytes + fresh_bytes),
            offsets: Vec::with_capacity(slots + 1),
            node_of_slot: Vec::with_capacity(slots),
            slot_of_node: std::mem::take(&mut self.slot_of_node),
        };
        out.offsets.push(0);
        // Survivors are the old slots minus the stale ones, taken in
        // order; each call copies the survivors below old slot `upto`, one
        // block per run between stale slots.
        let mut next_old = 0usize;
        let mut stale_iter = stale.iter().copied().peekable();
        let mut copy_survivors = |out: &mut PbnArena, upto: usize| {
            while next_old < upto {
                if stale_iter.next_if_eq(&next_old).is_some() {
                    next_old += 1;
                    continue;
                }
                let end = stale_iter.peek().map_or(upto, |&s| s.min(upto));
                out.append_run(self, next_old..end);
                next_old = end;
            }
        };
        for &(at, key, id) in &fresh {
            debug_assert!(
                self.node_of_slot.get(at).is_none()
                    || self.key_at_slot(at) != key
                    || stale.binary_search(&at).is_ok(),
                "fresh key collides with a live slot"
            );
            copy_survivors(&mut out, at);
            out.push_key(key, id);
        }
        copy_survivors(&mut out, self.len());

        // The inverse map changes only from the first stale or fresh slot
        // on: slots before it keep their numbering.
        out.slot_of_node
            .resize(id_space.max(out.slot_of_node.len()), NO_SLOT);
        for id in pending.keys() {
            if let Some(cell) = out.slot_of_node.get_mut(id.index()) {
                *cell = NO_SLOT;
            }
        }
        let first_change = [fresh.first().map(|f| f.0), stale.first().copied()]
            .into_iter()
            .flatten()
            .min()
            .unwrap_or(out.len());
        for slot in first_change..out.len() {
            let id = out.node_of_slot[slot];
            out.slot_of_node[id.index()] = slot as u32;
        }
        *self = out;
    }

    /// Widens the inverse map to cover `id_space` ids (never narrows it).
    pub(crate) fn widen(&mut self, id_space: usize) {
        if self.slot_of_node.len() < id_space {
            self.slot_of_node.resize(id_space, NO_SLOT);
        }
    }

    /// Appends the slots `run` of `src` as one block of key bytes,
    /// rebased offsets and nodes (the inverse map is left to the caller).
    fn append_run(&mut self, src: &PbnArena, run: Range<usize>) {
        let first = src.offsets[run.start];
        let base = self.bytes.len() as u32;
        self.bytes
            .extend_from_slice(&src.bytes[first as usize..src.offsets[run.end] as usize]);
        self.offsets.extend(
            src.offsets[run.start + 1..=run.end]
                .iter()
                .map(|&o| o - first + base),
        );
        self.node_of_slot.extend_from_slice(&src.node_of_slot[run]);
    }

    /// Appends one key at the next slot (the inverse map is left to the
    /// caller).
    fn push_key(&mut self, key: &[u8], id: NodeId) {
        self.bytes.extend_from_slice(key);
        self.offsets.push(self.bytes.len() as u32);
        self.node_of_slot.push(id);
    }

    /// Reassembles an arena from its persisted columns, validating the
    /// structural invariants (monotone offsets spanning `bytes`, in-range
    /// node ids, keys in strictly increasing document order).
    pub fn from_parts(
        bytes: Vec<u8>,
        offsets: Vec<u32>,
        node_of_slot: Vec<NodeId>,
        id_space: usize,
    ) -> Result<Self, ArenaFormatError> {
        if offsets.len() != node_of_slot.len() + 1 {
            return Err(ArenaFormatError(format!(
                "offset table has {} entries for {} slots",
                offsets.len(),
                node_of_slot.len()
            )));
        }
        if offsets.first() != Some(&0) || *offsets.last().unwrap_or(&0) as usize != bytes.len() {
            return Err(ArenaFormatError(
                "offset table does not span the key buffer".into(),
            ));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(ArenaFormatError("offset table is not monotone".into()));
        }
        let mut slot_of_node = vec![NO_SLOT; id_space];
        for (slot, id) in node_of_slot.iter().enumerate() {
            let Some(cell) = slot_of_node.get_mut(id.index()) else {
                return Err(ArenaFormatError(format!(
                    "slot {slot} names node {} outside the id space of {id_space}",
                    id.index()
                )));
            };
            if *cell != NO_SLOT {
                return Err(ArenaFormatError(format!(
                    "node {} appears in two slots",
                    id.index()
                )));
            }
            *cell = slot as u32;
        }
        let arena = PbnArena {
            bytes,
            offsets,
            node_of_slot,
            slot_of_node,
        };
        for s in 1..arena.len() {
            if arena.key_at_slot(s - 1) >= arena.key_at_slot(s) {
                return Err(ArenaFormatError(format!(
                    "keys out of document order at slot {s}"
                )));
            }
        }
        Ok(arena)
    }

    /// Number of keyed slots (assigned nodes).
    #[inline]
    pub fn len(&self) -> usize {
        self.node_of_slot.len()
    }

    /// True for an empty document.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.node_of_slot.is_empty()
    }

    /// The encoded key at a document-order slot.
    ///
    /// # Panics
    /// Panics if `slot >= self.len()`.
    #[inline]
    pub fn key_at_slot(&self, slot: usize) -> &[u8] {
        // vet: allow(hot-path) — offsets has len() + 1 entries and the panic on slot ≥ len() is this fn's documented contract
        &self.bytes[self.offsets[slot] as usize..self.offsets[slot + 1] as usize]
    }

    /// The node at a document-order slot.
    ///
    /// # Panics
    /// Panics if `slot >= self.len()`.
    #[inline]
    pub fn node_at_slot(&self, slot: usize) -> NodeId {
        self.node_of_slot[slot]
    }

    /// The encoded key of a node — the empty key for ids outside the
    /// assignment (matching the `Pbn::empty()` those ids hold).
    #[inline]
    pub fn key_of(&self, id: NodeId) -> &[u8] {
        match self.slot_of_node.get(id.index()) {
            Some(&s) if s != NO_SLOT => self.key_at_slot(s as usize),
            _ => &[],
        }
    }

    /// The document-order slot of a node, if it was assigned a number.
    #[inline]
    pub fn slot_of(&self, id: NodeId) -> Option<usize> {
        match self.slot_of_node.get(id.index()) {
            Some(&s) if s != NO_SLOT => Some(s as usize),
            _ => None,
        }
    }

    /// First slot whose key is `>= key` (document-order lower bound).
    #[inline]
    pub fn lower_bound(&self, key: &[u8]) -> usize {
        self.partition(|k| k < key)
    }

    /// The half-open slot interval of the subtree rooted at the node with
    /// encoded key `p`: all slots whose key carries `p` as a byte prefix.
    /// Two binary searches; no allocation (the upper bound uses the
    /// `before_subtree_end` characterization instead of materializing
    /// `prefix_succ`).
    pub fn subtree_slots(&self, p: &[u8]) -> Range<usize> {
        let lo = self.partition(|k| k < p);
        let hi = self.partition(|k| keys::before_subtree_end(p, k));
        lo..hi
    }

    /// The slot bracket of [`Self::subtree_slots`] as `u64` endpoints —
    /// the form query tracing reports ("arena range selection" in
    /// EXPLAIN output), so observability sinks don't re-derive the two
    /// binary-search bounds.
    #[inline]
    pub fn slot_window(&self, p: &[u8]) -> (u64, u64) {
        let r = self.subtree_slots(p);
        (r.start as u64, r.end as u64)
    }

    /// The nodes of the subtree rooted at encoded key `p`, in document
    /// order — the nodes whose numbers fall in `subtree_range(p)`.
    #[inline]
    pub fn subtree_nodes(&self, p: &[u8]) -> &[NodeId] {
        &self.node_of_slot[self.subtree_slots(p)]
    }

    /// `partition_point` over slots ordered by key.
    #[inline]
    fn partition(&self, pred: impl Fn(&[u8]) -> bool) -> usize {
        self.partition_branchless(pred)
    }

    /// Branch-free `partition_point`: the halving loop advances `base` by
    /// `usize::from(pred) * half`, so the predicate result feeds a multiply
    /// instead of a compare-and-jump the predictor must guess on random
    /// probe keys.
    ///
    /// oracle: partition_scalar
    // vet: hot
    #[inline]
    fn partition_branchless(&self, pred: impl Fn(&[u8]) -> bool) -> usize {
        let mut base = 0usize;
        let mut len = self.len();
        while len > 1 {
            let half = len / 2;
            base += usize::from(pred(self.key_at_slot(base + half - 1))) * half;
            len -= half;
        }
        base + usize::from(len == 1 && pred(self.key_at_slot(base)))
    }

    /// Scalar twin of [`Self::partition_branchless`]: the textbook branchy
    /// bisection the property suite compares against slot-for-slot.
    #[cfg(test)]
    fn partition_scalar(&self, pred: impl Fn(&[u8]) -> bool) -> usize {
        let mut lo = 0;
        let mut hi = self.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.key_at_slot(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The raw key buffer (persisted verbatim by `vh-storage`).
    #[inline]
    pub fn key_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The raw offset table, `len() + 1` entries (persisted verbatim).
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The document-order node column (persisted verbatim).
    #[inline]
    pub fn nodes_in_order(&self) -> &[NodeId] {
        &self.node_of_slot
    }

    /// Total bytes of encoded key data (the paper's space metric).
    #[inline]
    pub fn total_key_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Size of the node-id space the arena was built over (persisted so a
    /// loaded arena can rebuild its inverse map at the original width).
    #[inline]
    pub fn id_space(&self) -> usize {
        self.slot_of_node.len()
    }

    /// Heap footprint of all columns, for cache and space accounting.
    pub fn heap_bytes(&self) -> usize {
        self.bytes.len()
            + self.offsets.len() * 4
            + self.node_of_slot.len() * 4
            + self.slot_of_node.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::PbnAssignment;
    use crate::pbn;
    use vh_xml::builder::paper_figure2;

    fn arena() -> (vh_xml::Document, PbnAssignment) {
        let doc = paper_figure2();
        let a = PbnAssignment::assign(&doc);
        (doc, a)
    }

    #[test]
    fn keys_match_per_node_encodings() {
        let (doc, a) = arena();
        for id in doc.preorder() {
            assert_eq!(
                a.arena().key_of(id),
                EncodedPbn::encode(&a.pbn_of(id)).as_bytes(),
                "node {id:?}"
            );
        }
    }

    #[test]
    fn slots_are_document_order() {
        let (doc, a) = arena();
        let by_slot: Vec<NodeId> = (0..a.arena().len())
            .map(|s| a.arena().node_at_slot(s))
            .collect();
        let preorder: Vec<NodeId> = doc.preorder().collect();
        assert_eq!(by_slot, preorder);
        for (s, id) in preorder.iter().enumerate() {
            assert_eq!(a.arena().slot_of(*id), Some(s));
        }
    }

    #[test]
    fn subtree_slots_equal_the_pbn_range() {
        let (_, a) = arena();
        let p = pbn![1, 1];
        let key = EncodedPbn::encode(&p);
        let slots = a.arena().subtree_slots(key.as_bytes());
        let via_range: Vec<NodeId> = {
            let (lo, hi) = crate::order::subtree_range(&p);
            a.in_document_order()
                .iter()
                .copied()
                .filter(|&id| (lo.clone()..hi.clone()).contains(&a.pbn_of(id)))
                .collect()
        };
        let via_arena: Vec<NodeId> = a.arena().subtree_nodes(key.as_bytes()).to_vec();
        assert_eq!(via_arena, via_range);
        assert_eq!(slots.len(), 9, "book1 subtree has 9 nodes");
    }

    #[test]
    fn branchless_partition_matches_the_scalar_bisection() {
        // Probe with every slot key, every component-boundary cut of it,
        // and its subtree-end bound — the three probe shapes the arena's
        // callers use — under both predicate forms.
        let (_, a) = arena();
        let arena = a.arena();
        let mut probes: Vec<Vec<u8>> = vec![Vec::new(), vec![0xFF; 9]];
        for s in 0..arena.len() {
            let k = arena.key_at_slot(s);
            probes.push(k.to_vec());
            probes.push(crate::keys::subtree_end(k));
            for m in 0..=crate::keys::component_count(k) {
                probes.push(k[..crate::keys::component_boundary(k, m)].to_vec());
            }
        }
        for p in &probes {
            assert_eq!(
                arena.partition_branchless(|k| k < p.as_slice()),
                arena.partition_scalar(|k| k < p.as_slice()),
                "lower bound at {p:02x?}"
            );
            assert_eq!(
                arena.partition_branchless(|k| crate::keys::before_subtree_end(p, k)),
                arena.partition_scalar(|k| crate::keys::before_subtree_end(p, k)),
                "upper bound at {p:02x?}"
            );
        }
    }

    #[test]
    fn round_trips_through_parts() {
        let (_, a) = arena();
        let src = a.arena();
        let re = PbnArena::from_parts(
            src.key_bytes().to_vec(),
            src.offsets().to_vec(),
            src.nodes_in_order().to_vec(),
            src.slot_of_node.len(),
        )
        .unwrap();
        assert_eq!(&re, src);
    }

    #[test]
    fn from_parts_rejects_malformed_columns() {
        let (_, a) = arena();
        let src = a.arena();
        let n = src.slot_of_node.len();
        // Truncated offset table.
        assert!(PbnArena::from_parts(
            src.key_bytes().to_vec(),
            src.offsets()[..src.offsets().len() - 1].to_vec(),
            src.nodes_in_order().to_vec(),
            n,
        )
        .is_err());
        // Offsets that do not span the buffer.
        let mut offs = src.offsets().to_vec();
        if let Some(last) = offs.last_mut() {
            *last += 1;
        }
        assert!(PbnArena::from_parts(
            src.key_bytes().to_vec(),
            offs,
            src.nodes_in_order().to_vec(),
            n
        )
        .is_err());
        // Duplicate node id.
        let mut nodes = src.nodes_in_order().to_vec();
        nodes[1] = nodes[0];
        assert!(
            PbnArena::from_parts(src.key_bytes().to_vec(), src.offsets().to_vec(), nodes, n)
                .is_err()
        );
        // Keys out of document order (swap two slots' bytes).
        let k0 = src.key_at_slot(0).to_vec();
        let k1 = src.key_at_slot(1).to_vec();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&k1);
        bytes.extend_from_slice(&k0);
        bytes.extend_from_slice(&src.key_bytes()[(k0.len() + k1.len())..]);
        let mut offs = src.offsets().to_vec();
        offs[1] = k1.len() as u32;
        assert!(PbnArena::from_parts(bytes, offs, src.nodes_in_order().to_vec(), n).is_err());
    }

    #[test]
    fn empty_document_yields_an_empty_arena() {
        let a = PbnAssignment::assign(&vh_xml::Document::new("u"));
        assert!(a.arena().is_empty());
        assert_eq!(a.arena().subtree_slots(&[0x00]), 0..0);
        assert_eq!(a.arena().key_of(NodeId::from_index(0)), &[] as &[u8]);
    }
}
