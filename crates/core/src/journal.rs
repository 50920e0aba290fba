//! The per-URI journal of committed edit batches that cached views
//! replay when they catch up ([`crate::cache::ExecCache::catch_up`]).
//!
//! Batch `i` took the document from generation `base + i` to
//! `base + i + 1`. The touches of all batches sit back to back, packed:
//! the node, its type at touch time and, for a removal, the length of its
//! key in one shared byte buffer. An add's key is not kept — the index
//! splice only searches removed nodes out, under the keys they had — so a
//! journal of thousands of touches costs a dozen bytes per touch plus the
//! removed keys rather than an allocation per touch. That matters because
//! a view nobody reads holds the journal back until its size cap.

use std::collections::VecDeque;
use vh_dataguide::{DocDelta, Touch, Touched, TypeId};
use vh_xml::NodeId;

/// The key length that marks a packed touch as an add.
const ADDED: u32 = u32::MAX;

/// One URI's journaled batches; see the module docs.
#[derive(Debug, Default)]
pub(crate) struct Journal {
    base: u64,
    /// Per batch: the guide types it interned, its touch count and its
    /// key bytes.
    batches: VecDeque<(Vec<TypeId>, usize, usize)>,
    touches: Vec<(NodeId, TypeId, u32)>,
    keys: Vec<u8>,
}

impl Journal {
    /// Journaled batches and touches.
    pub(crate) fn len(&self) -> (usize, usize) {
        (self.batches.len(), self.touches.len())
    }

    /// Appends the batch that took the document to generation `gen`. A
    /// journal whose last batch does not lead to `gen - 1` (generations
    /// were skipped without a batch) starts over from `gen - 1`.
    pub(crate) fn push(&mut self, gen: u64, delta: DocDelta) {
        if self.base + self.batches.len() as u64 + 1 != gen {
            *self = Journal {
                base: gen.saturating_sub(1),
                ..Journal::default()
            };
        }
        let keys = self.keys.len();
        for t in &delta.touched {
            let len = match t.touch {
                Touch::Added => ADDED,
                Touch::Removed => {
                    self.keys.extend_from_slice(&t.key);
                    t.key.len() as u32
                }
            };
            self.touches.push((t.id, t.ty, len));
        }
        let batch = (delta.new_types, delta.touched.len(), self.keys.len() - keys);
        self.batches.push_back(batch);
    }

    /// Drops the oldest batches until at most `max` touches remain, and
    /// returns the generation the journal then starts from: no entry
    /// older than that can replay any more.
    pub(crate) fn cap(&mut self, max: usize) -> u64 {
        let (mut left, mut n) = (self.touches.len(), 0);
        for (_, t, _) in &self.batches {
            if left <= max {
                break;
            }
            left -= t;
            n += 1;
        }
        self.drop_oldest(n);
        self.base
    }

    /// Drops every batch an entry at generation `gen` no longer needs.
    pub(crate) fn trim_to(&mut self, gen: u64) {
        self.drop_oldest(self.skip(gen).unwrap_or(0));
    }

    /// True while the journal still holds every batch after `gen`.
    pub(crate) fn reaches(&self, gen: u64) -> bool {
        self.skip(gen).is_some()
    }

    /// The guide types each batch after generation `gen` interned.
    pub(crate) fn new_types_since(&self, gen: u64) -> impl Iterator<Item = &[TypeId]> {
        let skip = self.skip(gen).unwrap_or(self.batches.len());
        self.batches
            .range(skip..)
            .map(|(types, ..)| types.as_slice())
    }

    /// Every touch of the batches after generation `gen`, in
    /// chronological order.
    pub(crate) fn touched_since(&self, gen: u64) -> Vec<Touched<'_>> {
        let skip = self.skip(gen).unwrap_or(self.batches.len());
        let (from, mut key) = self
            .batches
            .range(..skip)
            .fold((0, 0), |(t, k), b| (t + b.1, k + b.2));
        self.touches[from..]
            .iter()
            .map(|&(id, ty, len)| {
                let (touch, len) = match len {
                    ADDED => (Touch::Added, 0),
                    len => (Touch::Removed, len as usize),
                };
                let bytes = &self.keys[key..key + len];
                key += len;
                Touched {
                    id,
                    ty,
                    key: bytes,
                    touch,
                }
            })
            .collect()
    }

    /// How many batches lead to generation `gen` or earlier, or `None`
    /// once the journal was trimmed past it.
    fn skip(&self, gen: u64) -> Option<usize> {
        let skip = usize::try_from(gen.checked_sub(self.base)?).ok()?;
        Some(skip.min(self.batches.len()))
    }

    /// Drops the `n` oldest batches.
    fn drop_oldest(&mut self, n: usize) {
        let (mut touches, mut keys) = (0, 0);
        for (_, t, k) in self.batches.drain(..n.min(self.batches.len())) {
            touches += t;
            keys += k;
        }
        self.touches.drain(..touches);
        self.keys.drain(..keys);
        self.base += n as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vh_dataguide::TouchedNode;

    fn batch(ids: &[(usize, Touch)]) -> DocDelta {
        DocDelta {
            touched: ids
                .iter()
                .map(|&(i, touch)| TouchedNode {
                    id: NodeId::from_index(i),
                    ty: TypeId::from_index(i % 3),
                    key: vec![1, i as u8 + 1],
                    touch,
                })
                .collect(),
            ..DocDelta::default()
        }
    }

    #[test]
    fn packed_batches_replay_what_was_journaled() {
        let mut j = Journal::default();
        let (a, b) = (
            batch(&[(1, Touch::Removed), (1, Touch::Added), (2, Touch::Added)]),
            batch(&[(3, Touch::Removed)]),
        );
        let want: Vec<(NodeId, TypeId, Vec<u8>, Touch)> = a
            .touched
            .iter()
            .chain(&b.touched)
            .map(|t| {
                let key = if t.touch == Touch::Removed {
                    t.key.clone()
                } else {
                    Vec::new()
                };
                (t.id, t.ty, key, t.touch)
            })
            .collect();
        j.push(5, a);
        j.push(6, b);
        let got = |j: &Journal, gen| -> Vec<(NodeId, TypeId, Vec<u8>, Touch)> {
            j.touched_since(gen)
                .iter()
                .map(|t| (t.id, t.ty, t.key.to_vec(), t.touch))
                .collect()
        };
        assert_eq!(got(&j, 4), want, "both batches, adds without keys");
        assert_eq!(got(&j, 5), want[3..], "the second batch alone");
        assert!(got(&j, 6).is_empty());
        assert_eq!(j.new_types_since(4).count(), 2);
        assert!(!j.reaches(3), "nothing before the first batch");
        j.trim_to(5);
        assert_eq!(j.len(), (1, 1));
        assert!(!j.reaches(4) && j.reaches(5));
        assert_eq!(got(&j, 5), want[3..], "trimming keeps the tail intact");
        // A skipped generation restarts the journal.
        j.push(9, batch(&[(4, Touch::Added)]));
        assert_eq!(j.len(), (1, 1));
        assert!(j.reaches(8) && !j.reaches(7));
        // The cap drops the oldest batches until the touches fit.
        j.push(10, batch(&[(5, Touch::Added), (6, Touch::Added)]));
        assert_eq!(j.cap(2), 9);
        assert_eq!(j.len(), (1, 2));
        assert_eq!(j.cap(0), 10);
        assert_eq!(j.len(), (0, 0));
    }
}
