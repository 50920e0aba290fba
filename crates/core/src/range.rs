//! Deriving PBN index-scan ranges from level arrays.
//!
//! §4.3: PBN-based systems keep per-type indexes keyed by number. To find
//! the virtual descendants of a node `x` among the nodes of a target
//! virtual type `t`, one can avoid testing every instance of `t`: the
//! compatibility constraint (`ta[i] = xa[i] ⇒ yn[i] = xn[i]`) pins a prefix
//! of the candidate's number whenever the constrained positions form a
//! contiguous prefix — which turns the predicate into a *range scan* over
//! the type index, exactly like a physical PBN subtree scan.
//!
//! When a constrained position lies beyond the contiguous prefix (possible
//! under exotic reshapings), the scan range stays valid but over-approximate
//! and the caller must re-check the predicate per candidate; [`ScanRange::exact`]
//! reports which situation holds. The A1 ablation benchmark measures the
//! win of range scans over full-type filtering.

use crate::levels::LevelMap;
use crate::vdg::{VDataGuide, VTypeId};
use crate::vpbn::{decoded, VPbnRef};
use vh_dataguide::DataGuide;
use vh_pbn::{keys, Pbn};

/// A document-order scan interval over a type index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScanRange {
    /// Inclusive lower bound.
    pub lo: Pbn,
    /// Exclusive upper bound. `None` means "to the end of the index"
    /// (no constrained prefix — the whole type must be scanned).
    pub hi: Option<Pbn>,
    /// True when every compatibility constraint is subsumed by the range,
    /// so candidates inside it need no further number-level check.
    pub exact: bool,
}

impl ScanRange {
    /// The unconstrained range (scan everything, check everything).
    pub fn full() -> Self {
        ScanRange {
            lo: Pbn::empty(),
            hi: None,
            exact: false,
        }
    }

    /// True if `p` lies inside the range.
    pub fn contains(&self, p: &Pbn) -> bool {
        &self.lo <= p && self.hi.as_ref().is_none_or(|hi| p < hi)
    }
}

/// The `(prefix length, exactness)` pair behind a scan range: how many
/// leading components of a related candidate's number are pinned to the
/// context's, and whether that prefix subsumes every compatibility
/// constraint. This is the allocation-free core of [`related_scan_range`],
/// and what byte-key range scans consume directly (the pinned prefix of
/// the context's *encoded* key bounds the candidates without ever decoding
/// a number).
///
/// oracle: related_prefix_decoded
pub fn related_prefix(x: &VPbnRef<'_>, ta: &[u32]) -> (usize, bool) {
    // Positions that constrain a candidate's number: i < |xn| (the context
    // must have a component there), i < |xa| and i < |ta| (both arrays must
    // cover it), with matching levels. The arrays are compared first; the
    // key is walked only as far as the shorter array.
    let arrays = x.a.len().min(ta.len());
    let bound = keys::components(x.key).take(arrays).count();
    prefix_cell(&x.a[..bound], &ta[..bound])
}

/// Decode-then-compare twin of [`related_prefix`]: the number length
/// read from the decoded number.
pub fn related_prefix_decoded(x: &VPbnRef<'_>, ta: &[u32]) -> (usize, bool) {
    let bound = decoded(x.key).len().min(x.a.len()).min(ta.len());
    prefix_cell(&x.a[..bound], &ta[..bound])
}

/// The `(prefix length, exactness)` cell over the constrained positions
/// (`xa` and `ta` cut to the same bound): the longest run of matching
/// levels, and whether no level matches beyond it.
fn prefix_cell(xa: &[u32], ta: &[u32]) -> (usize, bool) {
    let m = xa.iter().zip(ta).take_while(|(a, b)| a == b).count();
    let exact = xa[m..].iter().zip(&ta[m..]).all(|(a, b)| a != b);
    (m, exact)
}

/// Computes the scan range over the index of a virtual type with level
/// array `ta`, for candidates related to the context node `x` by any
/// vertical virtual axis (ancestor/descendant/parent/child — they share the
/// compatibility core). The range is spelled in decoded numbers: it is
/// the reference form the byte-key scans of
/// [`crate::vdoc::VirtualDocument`] are tested against, not a query path.
pub fn related_scan_range(x: &VPbnRef<'_>, ta: &[u32]) -> ScanRange {
    let (m, exact) = related_prefix(x, ta);
    scan_range(x, m, exact)
}

/// The scan range pinning the first `m` components of `x`'s number.
fn scan_range(x: &VPbnRef<'_>, m: usize, exact: bool) -> ScanRange {
    if m == 0 {
        return ScanRange {
            lo: Pbn::empty(),
            hi: None,
            exact,
        };
    }
    let lo = decoded(x.key).prefix(m);
    let hi = lo.subtree_bound();
    ScanRange {
        lo,
        hi: Some(hi),
        exact,
    }
}

/// Precomputed scan-range prefixes for every (context type, target type)
/// pair of a compiled view.
///
/// [`related_scan_range`] depends on the context node only through the
/// *length* of its number and its level array — and both are constant per
/// virtual type (a node's physical number has exactly `length(orig(vt))`
/// components, and level arrays are per-type by construction). So the
/// contiguous-prefix length `m` and the exactness flag can be computed
/// once per type pair and the per-node work drops to slicing the context
/// number — this is the "decoded vPBN comparisons' per-type prefix table"
/// part of every [`crate::vdoc::CompiledView`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrefixTables {
    /// Number of virtual types (the table is `n × n`).
    n: usize,
    /// Row-major `(context, target)` entries.
    entries: Vec<PrefixEntry>,
}

/// One `(context type, target type)` cell: prefix length and exactness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PrefixEntry {
    /// Length of the pinned number prefix (`m` in [`related_scan_range`]).
    m: u32,
    /// Whether candidates inside the range need no further number check.
    exact: bool,
}

impl PrefixTables {
    /// Precomputes all `(context, target)` cells for a compiled view.
    pub fn build(vdg: &VDataGuide, levels: &LevelMap, original: &DataGuide) -> Self {
        let n = vdg.len();
        let mut entries = Vec::with_capacity(n * n);
        for ci in 0..n {
            let ctx = VTypeId::from_index(ci);
            // A node of virtual type `ctx` keeps its physical number, whose
            // length is the depth of the node's *original* type.
            let num_len = original.length(vdg.original_type(ctx));
            let xa = levels.levels_of(ctx);
            for ti in 0..n {
                let t = levels.levels_of(VTypeId::from_index(ti));
                let bound = num_len.min(xa.len()).min(t.len());
                let (m, exact) = prefix_cell(&xa[..bound], &t[..bound]);
                entries.push(PrefixEntry { m: m as u32, exact });
            }
        }
        PrefixTables { n, entries }
    }

    /// The scan range for candidates of type `target` related to context
    /// node `x` — identical to [`related_scan_range`] but O(m) instead of
    /// O(m + array comparisons), with the comparisons amortized at build
    /// time.
    pub fn range(&self, x: &VPbnRef<'_>, target: VTypeId) -> ScanRange {
        let (m, exact) = self.prefix(x.vtype, target);
        scan_range(x, m, exact)
    }

    /// The raw `(prefix length, exactness)` cell for a type pair — the
    /// allocation-free form of [`Self::range`] consumed by encoded-key
    /// range scans, which slice the context's key instead of building
    /// bound numbers.
    #[inline]
    pub fn prefix(&self, ctx: VTypeId, target: VTypeId) -> (usize, bool) {
        let e = self.entries[ctx.index() * self.n + target.index()];
        (e.m as usize, e.exact)
    }

    /// Number of virtual types covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the degenerate empty view.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Heap bytes of the table (for cache accounting).
    pub fn heap_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<PrefixEntry>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levels::LevelMap;
    use crate::vdg::VDataGuide;
    use crate::vpbn::VPbn;
    use vh_dataguide::DataGuide;
    use vh_pbn::pbn;
    use vh_xml::builder::paper_figure2;

    fn world(spec: &str) -> (VDataGuide, LevelMap) {
        let (g, _) = DataGuide::from_document(&paper_figure2());
        let v = VDataGuide::compile(spec, &g).unwrap();
        let m = LevelMap::build(&v, &g);
        (v, m)
    }

    #[test]
    fn descendants_of_a_title_scan_its_book_prefix() {
        let (v, m) = world("title { author { name } }");
        let title = v.guide().lookup_path(&["title"]).unwrap();
        let name = v.guide().lookup_path(&["title", "author", "name"]).unwrap();
        // Context: title 1.1.1 ([1,1,1]); target type: name ([1,1,2,3]).
        let x = VPbn::new(pbn![1, 1, 1], m.array(title), title);
        let r = related_scan_range(&x.as_ref(), m.levels_of(name));
        // Constrained prefix: positions 1-2 (levels 1,1 match) → scan the
        // book-1 subtree [1.1, 1.2).
        assert_eq!(r.lo, pbn![1, 1]);
        assert_eq!(r.hi, Some(pbn![1, 1].subtree_bound()));
        assert!(r.exact, "no constrained positions beyond the prefix");
        assert!(r.contains(&pbn![1, 1, 2, 1]));
        assert!(!r.contains(&pbn![1, 2, 2, 1]));
    }

    #[test]
    fn identity_transform_ranges_are_subtree_ranges() {
        let (v, m) = world("data { ** }");
        let book = v.guide().lookup_path(&["data", "book"]).unwrap();
        let name = v
            .guide()
            .lookup_path(&["data", "book", "author", "name"])
            .unwrap();
        let x = VPbn::new(pbn![1, 2], m.array(book), book);
        let r = related_scan_range(&x.as_ref(), m.levels_of(name));
        // Exactly the physical subtree range of 1.2.
        assert_eq!(r.lo, pbn![1, 2]);
        assert_eq!(r.hi, Some(pbn![1, 2].subtree_bound()));
        assert!(r.exact);
    }

    #[test]
    fn parent_lookup_range_from_a_case2_child() {
        // Inversion title { name { author } }: find the virtual parent
        // (name, [1,1,2,2]) of author 1.1.2 ([1,1,2,3]).
        let (v, m) = world("title { name { author } }");
        let name = v.guide().lookup_path(&["title", "name"]).unwrap();
        let author = v.guide().lookup_path(&["title", "name", "author"]).unwrap();
        let x = VPbn::new(pbn![1, 1, 2], m.array(author), author);
        let r = related_scan_range(&x.as_ref(), m.levels_of(name));
        // Arrays agree on the full author number [1,1,2] vs [1,1,2]:
        // prefix = 1.1.2 → candidates are name nodes inside [1.1.2, 1.1.3).
        assert_eq!(r.lo, pbn![1, 1, 2]);
        assert_eq!(r.hi, Some(pbn![1, 1, 2].subtree_bound()));
        assert!(r.exact);
        assert!(r.contains(&pbn![1, 1, 2, 1]));
    }

    #[test]
    fn unconstrained_when_no_shared_levels() {
        // A root-level context vs a root-level target of a different tree:
        // no position pins anything → full scan.
        let (v, m) = world("title { author { name } }");
        let title = v.guide().lookup_path(&["title"]).unwrap();
        let x = VPbn::new(pbn![1, 1, 1], m.array(title), title);
        // Craft a target array that never matches levels with the context.
        let r = related_scan_range(&x.as_ref(), &[2, 2, 2]);
        assert_eq!(r.lo, Pbn::empty());
        assert_eq!(r.hi, None);
        assert!(r.exact, "no level ever matches, so nothing is constrained");
        assert!(r.contains(&pbn![9, 9]));
    }

    #[test]
    fn non_contiguous_constraints_make_the_range_inexact() {
        // Monotone arrays can still match non-contiguously: context levels
        // [1,2,2] vs target [1,1,2] agree at positions 0 and 2 but not 1.
        // The contiguous constrained prefix is one component long, and the
        // extra constraint beyond it forces per-candidate re-checking.
        let (v, _m) = world("title { author { name } }");
        let title = v.guide().lookup_path(&["title"]).unwrap();
        let x = VPbn::new(
            pbn![1, 2, 2],
            crate::levels::LevelArray::new(vec![1, 2, 2]),
            title,
        );
        let r = related_scan_range(&x.as_ref(), &[1, 1, 2]);
        assert_eq!(r.lo, pbn![1], "contiguous prefix stops at position 1");
        assert_eq!(r.hi, Some(pbn![1].subtree_bound()));
        assert!(
            !r.exact,
            "position 2 matches levels outside the prefix — candidates need re-checking"
        );
        // A target whose deeper levels never coincide stays exact.
        let r2 = related_scan_range(&x.as_ref(), &[1, 3, 3]);
        assert_eq!(r2.lo, pbn![1]);
        assert!(r2.exact);
    }

    #[test]
    fn full_range_contains_everything() {
        let r = ScanRange::full();
        assert!(r.contains(&pbn![1]));
        assert!(r.contains(&pbn![42, 7]));
    }

    /// Recompute oracle for cached prefix tables: a from-scratch rebuild
    /// over the current guide, which tables kept on an `unaffected_by`
    /// verdict must match.
    fn rebuild_tables_oracle(
        vdg: &VDataGuide,
        levels: &LevelMap,
        original: &DataGuide,
    ) -> PrefixTables {
        PrefixTables::build(vdg, levels, original)
    }

    #[test]
    fn maintained_prefix_tables_match_the_rebuild_oracle() {
        use vh_dataguide::TypedDocument;

        let mut td = TypedDocument::analyze(paper_figure2());
        let v = VDataGuide::compile("title { author { name } }", td.guide()).unwrap();
        let m = LevelMap::build(&v, td.guide());
        let tables = PrefixTables::build(&v, &m, td.guide());

        // New type under an invisible parent: the tables survive and must
        // equal what a rebuild over the grown guide produces.
        let publisher = td
            .guide()
            .lookup_path(&["data", "book", "publisher"])
            .unwrap();
        let p = td.nodes_of_type(publisher)[0];
        td.insert_fragment(p, 0, "<note>x</note>").unwrap();
        td.compact();
        let delta = td.take_delta();
        assert!(!delta.new_types.is_empty());
        assert!(
            v.unaffected_by(&delta.new_types, td.guide()),
            "invisible-parent insert must keep the prefix tables"
        );
        assert_eq!(tables, rebuild_tables_oracle(&v, &m, td.guide()));

        // New type whose name collides with a spec label tail: recompute.
        let t = td.nodes_of_type(publisher)[0];
        td.insert_fragment(t, 0, "<name>dup</name>").unwrap();
        td.compact();
        let delta = td.take_delta();
        assert!(!v.unaffected_by(&delta.new_types, td.guide()));
    }

    #[test]
    fn prefix_tables_agree_with_related_scan_range_on_every_pair() {
        // Table lookups must be indistinguishable from the direct
        // computation for every (context node, target type) pair of the
        // paper document under several reshapings.
        let doc = paper_figure2();
        let typed = vh_dataguide::TypedDocument::analyze(doc);
        for spec in [
            "title { author { name } }",
            "title { name { author } }",
            "data { ** }",
            "book { publisher }",
        ] {
            let v = VDataGuide::compile(spec, typed.guide()).unwrap();
            let m = LevelMap::build(&v, typed.guide());
            let tables = PrefixTables::build(&v, &m, typed.guide());
            assert_eq!(tables.len(), v.len());
            assert!(!tables.is_empty());
            assert!(tables.heap_bytes() > 0);
            for ci in 0..v.len() {
                let ctx = crate::vdg::VTypeId::from_index(ci);
                for node in typed.nodes_of_type(v.original_type(ctx)) {
                    let num = typed.pbn().pbn_of(node);
                    let x = VPbn::new(num, m.array(ctx), ctx);
                    for ti in 0..v.len() {
                        let tgt = crate::vdg::VTypeId::from_index(ti);
                        let direct = related_scan_range(&x.as_ref(), m.levels_of(tgt));
                        let via_table = tables.range(&x.as_ref(), tgt);
                        assert_eq!(direct, via_table, "spec {spec}: ctx {ci} → tgt {ti}");
                        // The raw cell agrees with the direct computation.
                        assert_eq!(
                            tables.prefix(ctx, tgt),
                            related_prefix(&x.as_ref(), m.levels_of(tgt)),
                            "spec {spec}: prefix cell ctx {ci} → tgt {ti}"
                        );
                    }
                }
            }
        }
    }
}
