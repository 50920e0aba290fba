//! Stack-based structural joins over sorted node streams.
//!
//! PBN's killer application in XML query processing is the *structural
//! join*: given the document-ordered instance lists of two types, find
//! every (ancestor, descendant) pair with a single merge pass and a stack
//! of nested ancestors (the Stack-Tree algorithm family). vPBN's claim is
//! that location predicates remain pure number comparisons, so the same
//! algorithm runs unchanged on virtual hierarchies — only the comparator
//! and the containment predicate swap. Experiment F6 measures exactly this.
//! Both virtual predicates come from the view's cached order column: a
//! rank compare and an interval containment test over the view's
//! *placements*, so the virtual merge is the physical one over a
//! different `u32` column. A view that places a node under several
//! parents merges every placement and projects the pairs back to nodes.
//!
//! The virtual join has one body, [`virtual_structural_join_counted`]:
//! every merge chunk tallies its order comparisons in a plain integer,
//! and the body publishes them once per chunk. The plain
//! [`virtual_structural_join`] runs that body with throwaway counters, so
//! a traced join counts exactly the merge a plain one runs.

use std::cell::Cell;
use std::cmp::Ordering;
use vh_core::axes::v_ancestor;
use vh_core::exec::{self, ExecOptions};
use vh_core::order::{v_cmp, OrderColumn};
use vh_core::VirtualDocument;
use vh_dataguide::TypedDocument;
use vh_obs::SjoinCounters;
use vh_pbn::keys;
use vh_xml::NodeId;

/// Pops every stack entry that does not contain `n`, stopping at the
/// innermost one that does.
#[inline]
fn pop_to_container(stack: &mut Vec<NodeId>, n: NodeId, contains: impl Fn(NodeId, NodeId) -> bool) {
    while let Some(&top) = stack.last() {
        if contains(top, n) {
            break;
        }
        stack.pop();
    }
}

/// Generic Stack-Tree structural join with an execution knob.
///
/// Inputs must be sorted by `cmp` (a document order in which an ancestor
/// precedes its descendants). `contains(a, d)` must be true iff `a` is an
/// ancestor of `d`; nesting on the stack is guaranteed by the order.
/// Returns all (ancestor, descendant) pairs, grouped by descendant.
///
/// The descendant stream is partitioned into contiguous chunks, each
/// chunk replays the compatible ancestor prefix to rebuild its starting
/// stack, and per-chunk outputs are concatenated in chunk order.
///
/// This is byte-identical to the sequential join: the stack visible to a
/// descendant `d` is a pure function of the ancestors preceding `d` — the
/// push-time cleaning depends only on the ancestor sequence, and entries
/// popped early for an earlier descendant `d'` cannot contain `d` (their
/// subtree ended before `d'` ≤ `d`), so they fall to `d`'s own pop loop in
/// the replayed stack instead. The replay costs O(|ancestors|) per chunk,
/// amortized by chunks being as large as the thread count allows.
pub fn stack_tree_join_opts(
    ancestors: &[NodeId],
    descendants: &[NodeId],
    cmp: &(dyn Fn(NodeId, NodeId) -> Ordering + Sync),
    contains: &(dyn Fn(NodeId, NodeId) -> bool + Sync),
    opts: &ExecOptions,
) -> Vec<(NodeId, NodeId)> {
    exec::concat(exec::par_chunk_map(opts, descendants, |chunk| {
        stack_tree_chunk(ancestors, chunk, cmp, contains)
    }))
}

/// Runs the Stack-Tree merge for one contiguous descendant chunk,
/// replaying the ancestor prefix `< chunk[0]` to seed the stack.
fn stack_tree_chunk(
    ancestors: &[NodeId],
    chunk: &[NodeId],
    cmp: &(dyn Fn(NodeId, NodeId) -> Ordering + Sync),
    contains: &(dyn Fn(NodeId, NodeId) -> bool + Sync),
) -> Vec<(NodeId, NodeId)> {
    let mut out = Vec::new();
    let Some(&first) = chunk.first() else {
        return out;
    };
    let mut stack: Vec<NodeId> = Vec::new();
    // Replay: push-clean every ancestor that starts before the chunk's
    // first descendant. For the first chunk this is a no-op prefix (the
    // main loop below would do the same pushes for `first`).
    let mut i = ancestors.partition_point(|&a| cmp(a, first) == Ordering::Less);
    for &a in &ancestors[..i] {
        pop_to_container(&mut stack, a, contains);
        stack.push(a);
    }
    for &d in chunk {
        // Push every ancestor candidate that starts before d.
        while i < ancestors.len() {
            if cmp(ancestors[i], d) != Ordering::Less {
                break;
            }
            pop_to_container(&mut stack, ancestors[i], contains);
            stack.push(ancestors[i]);
            i += 1;
        }
        // Pop candidates whose subtree ended before d.
        pop_to_container(&mut stack, d, contains);
        // Every remaining stack entry contains d (they are nested).
        for &a in &stack {
            debug_assert!(contains(a, d));
            out.push((a, d));
        }
    }
    out
}

/// Physical structural join: inputs sorted by PBN; containment is the
/// prefix test. Both predicates run on the encoded key arena — document
/// order is one u32 slot comparison (arena slots are assigned in document
/// order) and containment a `starts_with` on borrowed byte slices, so the
/// merge pass never touches the `Vec<u32>` number form.
pub fn physical_structural_join(
    td: &TypedDocument,
    ancestors: &[NodeId],
    descendants: &[NodeId],
) -> Vec<(NodeId, NodeId)> {
    physical_structural_join_opts(td, ancestors, descendants, &ExecOptions::default())
}

/// [`physical_structural_join`] with an execution knob.
///
/// Fast path: instead of routing every document-order comparison through
/// a `dyn` closure comparing `Option<usize>` slots, the merge is
/// monomorphized over the arena's flat u32 slot column (`slot_of` is one
/// array load the prefetcher can stream) with slots encoded `slot + 1`
/// and `0` for unassigned nodes — preserving the `Option` order (`None`
/// sorts first) while the hot loop compares plain integers with no
/// indirect calls and no per-join allocation.
pub fn physical_structural_join_opts(
    td: &TypedDocument,
    ancestors: &[NodeId],
    descendants: &[NodeId],
    opts: &ExecOptions,
) -> Vec<(NodeId, NodeId)> {
    let arena = td.pbn().arena();
    // The tally is dropped inside each chunk, so the merge compiles
    // without its increments.
    let chunks = exec::par_chunk_map(opts, descendants, |chunk| {
        stack_tree_chunk_slots(
            ancestors,
            chunk,
            |n| match arena.slot_of(n) {
                Some(s) => s as u32 + 1,
                None => 0,
            },
            |a, d| keys::is_strict_prefix(arena.key_of(a), arena.key_of(d)),
        )
        .0
    });
    exec::concat(chunks)
}

/// The `dyn`-comparator form of [`physical_structural_join_opts`]: the
/// generic Stack-Tree join with per-call slot lookups. Kept as the oracle
/// the slot-column fast path must stay byte-identical to at every thread
/// count.
pub fn physical_structural_join_generic(
    td: &TypedDocument,
    ancestors: &[NodeId],
    descendants: &[NodeId],
    opts: &ExecOptions,
) -> Vec<(NodeId, NodeId)> {
    let arena = td.pbn().arena();
    stack_tree_join_opts(
        ancestors,
        descendants,
        &|a, b| arena.slot_of(a).cmp(&arena.slot_of(b)),
        &|a, d| keys::is_strict_prefix(arena.key_of(a), arena.key_of(d)),
        opts,
    )
}

/// [`stack_tree_chunk`] monomorphized over u32 slot keys: document order
/// is one integer compare on a value loaded straight from a flat column
/// (the arena's slots, or a view's virtual ranks), and both predicates
/// inline — no `dyn` dispatch anywhere in the merge. Returns the pairs and
/// the order comparisons, tallied at a register increment each.
///
/// oracle: stack_tree_chunk
fn stack_tree_chunk_slots(
    ancestors: &[NodeId],
    chunk: &[NodeId],
    slot: impl Fn(NodeId) -> u32,
    contains: impl Fn(NodeId, NodeId) -> bool,
) -> (Vec<(NodeId, NodeId)>, u64) {
    let mut out = Vec::new();
    let Some(&first) = chunk.first() else {
        return (out, 0);
    };
    let dslot0 = slot(first);
    let mut stack: Vec<NodeId> = Vec::new();
    let probes = Cell::new(0u64);
    let mut i = exec::partition_point_branchless(ancestors, |&a| {
        probes.set(probes.get() + 1);
        slot(a) < dslot0
    });
    let mut comparisons = probes.get();
    for &a in &ancestors[..i] {
        pop_to_container(&mut stack, a, &contains);
        stack.push(a);
    }
    for &d in chunk {
        let dslot = slot(d);
        while i < ancestors.len() {
            comparisons += 1;
            if slot(ancestors[i]) >= dslot {
                break;
            }
            pop_to_container(&mut stack, ancestors[i], &contains);
            stack.push(ancestors[i]);
            i += 1;
        }
        pop_to_container(&mut stack, d, &contains);
        for &a in &stack {
            debug_assert!(contains(a, d));
            out.push((a, d));
        }
    }
    (out, comparisons)
}

/// Virtual structural join: inputs sorted by virtual document order;
/// containment is the `vAncestor` predicate. The caller passes the node
/// lists of two *virtual types* (e.g. from the type index). Runs with the
/// view's own [`ExecOptions`] (see [`VirtualDocument::set_exec`]).
///
/// A one-line call to [`virtual_structural_join_counted`] with throwaway
/// counters: the merge is the same, and publishing the tallies costs one
/// relaxed add per counter and chunk.
pub fn virtual_structural_join(
    vd: &VirtualDocument<'_>,
    ancestors: &[NodeId],
    descendants: &[NodeId],
) -> Vec<(NodeId, NodeId)> {
    virtual_structural_join_counted(vd, ancestors, descendants, &SjoinCounters::new())
}

/// The virtual structural join, recording its order comparisons and
/// pairs in `counters`.
///
/// The view's cached order column ([`VirtualDocument::order_column`])
/// turns document order into a rank compare and containment into interval
/// nesting, so the merge is the same monomorphized `stack_tree_chunk_slots`
/// pass the physical join runs over arena slots. It merges placements:
/// both inputs become the placements of their nodes, and the pairs are
/// projected back to nodes without duplicates. On a view that places each
/// node once both steps are the identity. Only nodes the view places take
/// part. Each chunk tallies its comparisons locally and the totals are
/// published once per chunk.
///
/// oracle: virtual_structural_join_closure
pub fn virtual_structural_join_counted(
    vd: &VirtualDocument<'_>,
    ancestors: &[NodeId],
    descendants: &[NodeId],
    counters: &SjoinCounters,
) -> Vec<(NodeId, NodeId)> {
    let col = vd.order_column();
    let (ancestors, descendants) = (col.placements(ancestors), col.placements(descendants));
    let chunks = exec::par_chunk_map(&vd.exec(), &descendants, |chunk| {
        stack_tree_chunk_slots(
            &ancestors,
            chunk,
            |p| col.rank(p),
            |a, d| col.contains(a, d),
        )
    });
    let mut pairs = Vec::with_capacity(chunks.iter().map(|c| c.0.len()).sum());
    for (chunk, comparisons) in chunks {
        counters.add_comparisons(comparisons);
        pairs.extend(chunk);
    }
    let out = project_pairs(col, pairs);
    counters.add_pairs(out.len() as u64);
    out
}

/// Maps (ancestor, descendant) pairs of placements to pairs of nodes,
/// sorted by descendant, then ancestor, in virtual document order without
/// duplicates — or leaves them as they are on a view that places each
/// node once.
fn project_pairs(col: &OrderColumn, pairs: Vec<(NodeId, NodeId)>) -> Vec<(NodeId, NodeId)> {
    if col.places_each_once() {
        return pairs;
    }
    let mut out: Vec<(NodeId, NodeId)> = pairs
        .into_iter()
        .map(|(a, d)| (col.node(a), col.node(d)))
        .collect();
    out.sort_unstable_by_key(|&(a, d)| (col.rank(d), col.rank(a)));
    out.dedup();
    out
}

/// The closure form of [`virtual_structural_join`]: the generic
/// Stack-Tree join calling `v_cmp` and `v_ancestor` on the nodes' vPBNs
/// for every comparison. No query runs it: it is the oracle the column
/// join must stay byte-identical to on views that place each node once.
/// Under join multiplicity its containment intervals do not nest, and it
/// misses pairs.
pub fn virtual_structural_join_closure(
    vd: &VirtualDocument<'_>,
    ancestors: &[NodeId],
    descendants: &[NodeId],
) -> Vec<(NodeId, NodeId)> {
    // Invariant: join inputs are node lists of virtual types, all of
    // which are visible and therefore have a vPBN.
    let vpbn = |n: NodeId| match vd.vpbn_of(n) {
        Some(v) => v,
        None => unreachable!("join input is visible"),
    };
    stack_tree_join_opts(
        ancestors,
        descendants,
        &|a, b| v_cmp(vd.vdg(), &vpbn(a), &vpbn(b)),
        &|a, d| v_ancestor(vd.vdg(), &vpbn(a), &vpbn(d)),
        &vd.exec(),
    )
}

/// Baseline for the F6/A1 experiments: the nested-loop join that tests
/// every (ancestor, descendant) pair.
pub fn nested_loop_join(
    ancestors: &[NodeId],
    descendants: &[NodeId],
    contains: &dyn Fn(NodeId, NodeId) -> bool,
) -> Vec<(NodeId, NodeId)> {
    let mut out = Vec::new();
    for &d in descendants {
        for &a in ancestors {
            if contains(a, d) {
                out.push((a, d));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Must;
    use vh_xml::builder::paper_figure2;

    fn sorted_by_pbn(td: &TypedDocument, v: &[NodeId]) -> Vec<NodeId> {
        let mut v = v.to_vec();
        v.sort_by_key(|&a| td.pbn().pbn_of(a));
        v
    }

    #[test]
    fn physical_join_matches_nested_loop() {
        let td = TypedDocument::analyze(paper_figure2());
        let books = sorted_by_pbn(
            &td,
            td.nodes_of_type(td.guide().lookup_path(&["data", "book"]).must()),
        );
        let names = sorted_by_pbn(
            &td,
            td.nodes_of_type(
                td.guide()
                    .lookup_path(&["data", "book", "author", "name"])
                    .must(),
            ),
        );
        let fast = physical_structural_join(&td, &books, &names);
        let slow = nested_loop_join(&books, &names, &|a, d| {
            td.pbn().pbn_of(a).is_strict_prefix_of(&td.pbn().pbn_of(d))
        });
        assert_eq!(fast.len(), 2);
        let mut slow_sorted = slow;
        slow_sorted.sort();
        let mut fast_sorted = fast;
        fast_sorted.sort();
        assert_eq!(fast_sorted, slow_sorted);
    }

    #[test]
    fn virtual_join_titles_to_names() {
        // In Sam's virtual hierarchy, each title contains one name.
        let td = TypedDocument::analyze(paper_figure2());
        let vd = VirtualDocument::open(&td, "title { author { name } }").must();
        let title_vt = vd.vdg().guide().lookup_path(&["title"]).must();
        let name_vt = vd
            .vdg()
            .guide()
            .lookup_path(&["title", "author", "name"])
            .must();
        let titles = vd.nodes_of_vtype(title_vt).to_vec();
        let names = vd.nodes_of_vtype(name_vt).to_vec();
        let pairs = virtual_structural_join(&vd, &titles, &names);
        assert_eq!(pairs.len(), 2);
        // Each pair stays within one book.
        for (t, n) in &pairs {
            assert_eq!(
                td.pbn().pbn_of(*t).components()[1],
                td.pbn().pbn_of(*n).components()[1],
                "pair crosses books"
            );
        }
    }

    #[test]
    fn counted_joins_match_their_uncounted_twins() {
        let td = TypedDocument::analyze(paper_figure2());
        let vd = VirtualDocument::open(&td, "title { author { name } }").must();
        let title_vt = vd.vdg().guide().lookup_path(&["title"]).must();
        let name_vt = vd
            .vdg()
            .guide()
            .lookup_path(&["title", "author", "name"])
            .must();
        let titles = vd.nodes_of_vtype(title_vt).to_vec();
        let names = vd.nodes_of_vtype(name_vt).to_vec();

        let plain = virtual_structural_join(&vd, &titles, &names);
        let counters = SjoinCounters::default();
        let counted = virtual_structural_join_counted(&vd, &titles, &names, &counters);
        assert_eq!(plain, counted, "counting must not change the pairs");

        let s = counters.snapshot();
        assert_eq!(s.pairs, counted.len() as u64);
        assert!(s.comparisons > 0, "the merge compared document order");
    }

    #[test]
    fn virtual_join_equals_nested_loop_with_vancestor() {
        let td = TypedDocument::analyze(paper_figure2());
        for spec in ["title { author { name } }", "title { name { author } }"] {
            let vd = VirtualDocument::open(&td, spec).must();
            let roots_vt = vd.vdg().roots()[0];
            // Join roots against every visible node type.
            for vt_idx in 0..vd.vdg().len() {
                let vt = vh_core::vdg::VTypeId::from_index(vt_idx);
                let anc = vd.nodes_of_vtype(roots_vt).to_vec();
                let desc = vd.nodes_of_vtype(vt).to_vec();
                // Inputs must be in virtual document order for the join.
                let mut anc_v = anc.clone();
                anc_v.sort_by(|&a, &b| {
                    v_cmp(vd.vdg(), &vd.vpbn_of(a).must(), &vd.vpbn_of(b).must())
                });
                let mut desc_v = desc.clone();
                desc_v.sort_by(|&a, &b| {
                    v_cmp(vd.vdg(), &vd.vpbn_of(a).must(), &vd.vpbn_of(b).must())
                });
                let mut fast = virtual_structural_join(&vd, &anc_v, &desc_v);
                let mut slow = nested_loop_join(&anc, &desc, &|a, d| {
                    v_ancestor(vd.vdg(), &vd.vpbn_of(a).must(), &vd.vpbn_of(d).must())
                });
                fast.sort();
                slow.sort();
                assert_eq!(fast, slow, "spec {spec}, vtype {vt_idx}");
            }
        }
    }

    #[test]
    fn byte_key_join_matches_number_comparators() {
        // The arena byte-key comparators must reproduce the Vec<u32>
        // number comparators exactly (memcmp == doc order, starts_with ==
        // prefix containment).
        let td = TypedDocument::analyze(paper_figure2());
        let pbn = |n: NodeId| td.pbn().pbn_of(n);
        let anc = sorted_by_pbn(
            &td,
            td.nodes_of_type(td.guide().lookup_path(&["data", "book"]).must()),
        );
        let desc = sorted_by_pbn(
            &td,
            td.nodes_of_type(
                td.guide()
                    .lookup_path(&["data", "book", "author", "name"])
                    .must(),
            ),
        );
        let by_key = physical_structural_join(&td, &anc, &desc);
        let by_number = stack_tree_join_opts(
            &anc,
            &desc,
            &|a, b| pbn(a).cmp(&pbn(b)),
            &|a, d| pbn(a).is_strict_prefix_of(&pbn(d)),
            &ExecOptions::default(),
        );
        assert_eq!(by_key, by_number);
    }

    #[test]
    fn empty_inputs_yield_no_pairs() {
        let td = TypedDocument::analyze(paper_figure2());
        assert!(physical_structural_join(&td, &[], &[]).is_empty());
        let books = td.nodes_of_type(td.guide().lookup_path(&["data", "book"]).must());
        assert!(physical_structural_join(&td, books, &[]).is_empty());
    }

    #[test]
    fn chunked_join_is_byte_identical_to_sequential() {
        // A corpus with real nesting: books containing authors containing
        // names, joined at several ancestor/descendant type pairs.
        use vh_xml::ElementBuilder;
        let mut data = ElementBuilder::new("data");
        for i in 0..40 {
            let mut book = ElementBuilder::new("book");
            for a in 0..(i % 4) + 1 {
                book = book.child(
                    ElementBuilder::new("author")
                        .child(ElementBuilder::new("name").text(format!("n{i}.{a}"))),
                );
            }
            data = data.child(book);
        }
        let td = TypedDocument::analyze(data.into_document("big.xml"));
        let pairs = [
            (vec!["data", "book"], vec!["data", "book", "author", "name"]),
            (
                vec!["data", "book", "author"],
                vec!["data", "book", "author", "name"],
            ),
            (vec!["data"], vec!["data", "book", "author"]),
        ];
        for (anc_path, desc_path) in &pairs {
            let anc = sorted_by_pbn(
                &td,
                td.nodes_of_type(td.guide().lookup_path(anc_path).must()),
            );
            let desc = sorted_by_pbn(
                &td,
                td.nodes_of_type(td.guide().lookup_path(desc_path).must()),
            );
            let seq = physical_structural_join(&td, &anc, &desc);
            for threads in [1, 2, 3, 8] {
                let opts = vh_core::ExecOptions {
                    threads,
                    cache: true,
                    par_threshold: 1,
                };
                let par = physical_structural_join_opts(&td, &anc, &desc, &opts);
                assert_eq!(par, seq, "{anc_path:?}//{desc_path:?} t={threads}");
                // The slot-column fast path must be byte-identical to the
                // dyn-comparator oracle at every thread count.
                let generic = physical_structural_join_generic(&td, &anc, &desc, &opts);
                assert_eq!(
                    par, generic,
                    "{anc_path:?}//{desc_path:?} t={threads} oracle"
                );
            }
        }
    }
}
