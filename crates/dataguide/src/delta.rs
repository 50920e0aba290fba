//! The per-document edit journal: a compact chronological record of the
//! node-level touches an edit batch performed, drained by delta-aware
//! consumers (the engine's `ExecCache`) so cached artifacts can be
//! *maintained* under edits instead of being thrown away.
//!
//! The journal is deliberately dumb: [`crate::TypedDocument`]'s mutations
//! append one [`TouchedNode`] per node they number or retire, and
//! [`crate::TypedDocument::take_delta`] hands the accumulated batch over
//! together with the range of guide types interned since the last drain
//! (a strong DataGuide only grows, so "new types" is always a contiguous
//! tail of the type table). A bounded buffer keeps pathological batches
//! from hoarding memory: past [`MAX_JOURNAL_OPS`] entries the journal
//! drops its record and reports an overflow, which consumers must treat
//! as "recompute everything for this document".

use crate::types::TypeId;
use vh_xml::NodeId;

/// Journal entries retained before the journal declares overflow and
/// stops recording. Deltas this large are cheaper to absorb by
/// recomputing the affected artifacts outright.
pub const MAX_JOURNAL_OPS: usize = 8192;

/// Whether a touch numbered a node into the document or retired it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Touch {
    /// The node was numbered (fresh insert, or re-mint after a move).
    Added,
    /// The node's number was retired (delete, or the detach half of a
    /// move).
    Removed,
}

/// One node-level touch: which node, the guide type and encoded PBN key it
/// had *at touch time* (a removed node loses both afterwards), and the
/// direction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TouchedNode {
    /// The touched node.
    pub id: NodeId,
    /// Its guide type at touch time.
    pub ty: TypeId,
    /// Its number's order-preserving byte key at touch time (minted for
    /// adds, retiring for removes).
    pub key: Vec<u8>,
    /// Add or remove.
    pub touch: Touch,
}

/// A [`TouchedNode`] with its key borrowed, as a replay of packed
/// journal entries hands it to a consumer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Touched<'a> {
    /// The touched node.
    pub id: NodeId,
    /// Its guide type at touch time.
    pub ty: TypeId,
    /// Its key at touch time (a packed journal may keep removals' only).
    pub key: &'a [u8],
    /// Add or remove.
    pub touch: Touch,
}

impl<'a> From<&'a TouchedNode> for Touched<'a> {
    fn from(t: &'a TouchedNode) -> Self {
        Touched {
            id: t.id,
            ty: t.ty,
            key: &t.key,
            touch: t.touch,
        }
    }
}

/// What a batch of edits changed, drained from a
/// [`crate::TypedDocument`] via [`crate::TypedDocument::take_delta`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DocDelta {
    /// Node touches in chronological order. A node may appear several
    /// times (e.g. the remove and add halves of a move).
    pub touched: Vec<TouchedNode>,
    /// Guide types interned since the last drain, in intern order.
    pub new_types: Vec<TypeId>,
    /// The journal overflowed: `touched` is incomplete and consumers
    /// must fall back to recomputation.
    pub overflowed: bool,
}

impl DocDelta {
    /// True when the batch changed nothing a structural consumer can see
    /// (pure in-place value rewrites leave no journal entries).
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty() && self.new_types.is_empty() && !self.overflowed
    }
}

/// The accumulating journal owned by a [`crate::TypedDocument`].
#[derive(Clone, Debug, Default)]
pub(crate) struct DeltaJournal {
    entries: Vec<TouchedNode>,
    /// Guide length at the last drain; types at or past this index are
    /// "new" for the next [`DocDelta`].
    guide_base: usize,
    overflowed: bool,
}

impl DeltaJournal {
    /// A fresh journal whose "no new types" baseline is `guide_base`.
    pub(crate) fn with_guide_base(guide_base: usize) -> Self {
        DeltaJournal {
            entries: Vec::new(),
            guide_base,
            overflowed: false,
        }
    }

    /// Appends one touch, tripping the overflow bound when full.
    pub(crate) fn record(&mut self, entry: TouchedNode) {
        if self.overflowed {
            return;
        }
        if self.entries.len() >= MAX_JOURNAL_OPS {
            self.overflowed = true;
            self.entries.clear();
            return;
        }
        self.entries.push(entry);
    }

    /// Pending touches (0 after a drain or an overflow).
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the journal gave up recording this batch.
    pub(crate) fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Drains the journal into a [`DocDelta`], re-baselining the new-type
    /// watermark at `guide_len`.
    pub(crate) fn drain(&mut self, guide_len: usize) -> DocDelta {
        let new_types = (self.guide_base..guide_len)
            .map(TypeId::from_index)
            .collect();
        self.guide_base = guide_len;
        let overflowed = std::mem::take(&mut self.overflowed);
        DocDelta {
            touched: std::mem::take(&mut self.entries),
            new_types,
            overflowed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn touch(i: usize, t: Touch) -> TouchedNode {
        TouchedNode {
            id: NodeId::from_index(i),
            ty: TypeId::from_index(0),
            key: vec![1, 1],
            touch: t,
        }
    }

    #[test]
    fn drain_reports_touches_and_new_types_then_resets() {
        let mut j = DeltaJournal::with_guide_base(3);
        j.record(touch(1, Touch::Added));
        j.record(touch(2, Touch::Removed));
        let d = j.drain(5);
        assert_eq!(d.touched.len(), 2);
        assert_eq!(
            d.new_types,
            vec![TypeId::from_index(3), TypeId::from_index(4)]
        );
        assert!(!d.overflowed);
        assert!(!d.is_empty());
        // Drained: the next delta is empty and the type baseline moved.
        assert!(j.drain(5).is_empty());
    }

    #[test]
    fn overflow_drops_the_record_and_flags_the_delta() {
        let mut j = DeltaJournal::with_guide_base(0);
        for i in 0..=MAX_JOURNAL_OPS {
            j.record(touch(i, Touch::Added));
        }
        assert!(j.overflowed());
        assert_eq!(j.len(), 0, "overflow clears the buffer");
        let d = j.drain(0);
        assert!(d.overflowed);
        assert!(d.touched.is_empty());
        assert!(!d.is_empty(), "an overflowed delta is not a no-op");
        // The flag resets with the drain.
        assert!(!j.overflowed());
    }
}
