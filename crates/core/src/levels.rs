//! Algorithm 1: building the type → level-array map.
//!
//! A **level array** records, for each component of a node's (physical) PBN
//! number, the level of the virtual hierarchy that component belongs to.
//! Crucially the array is the same for every node of a virtual type
//! (§5.2: "it is not necessary to assign a level array to each node
//! individually"), so the map has one entry per virtual type.
//!
//! The printed pseudocode of Algorithm 1 is OCR-garbled in the source; this
//! implementation follows the three narrated cases, validated against every
//! worked example in §5.2 (see the unit tests):
//!
//! * **root `r`** — level array `[1; s]` where `s = length(orig(r))`: every
//!   component of the PBN number sits on level 1.
//! * **child `r` at level `n` under parent `p`** — let
//!   `z = lcaTypeOf(orig(p), orig(r))`, `k = length(z)`,
//!   `s = length(orig(r))`:
//!   * `k < s` (cases 1 and 3 — `r`'s number has components below the lca):
//!     `ra = pa[1..k] • [n; s−k]`.
//!   * `k = s` (case 2 — `r` moved below one of its original descendants,
//!     so its number lacks components for the deepest virtual level):
//!     `ra = pa[1..s] • [n]`; the array is one longer than the number.
//!
//! Complexity: O(cN) time and space for a vDataGuide of `N` types with
//! maximum original depth `c` — each type allocates and fills one array of
//! length ≤ c+1, and the lca is O(c) via the guide's internal PBN numbers.

use crate::vdg::{VDataGuide, VTypeId};
use std::fmt;
use vh_dataguide::DataGuide;

/// The level array of a virtual type (1-based levels; index `i` gives the
/// virtual level of PBN component `i`). For case-2 types the array has one
/// trailing entry with no corresponding PBN component.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct LevelArray(Vec<u32>);

impl LevelArray {
    /// Creates a level array from raw levels.
    pub fn new(levels: impl Into<Vec<u32>>) -> Self {
        let levels = levels.into();
        debug_assert!(
            levels.windows(2).all(|w| w[0] <= w[1]),
            "level arrays are non-decreasing: {levels:?}"
        );
        LevelArray(levels)
    }

    /// The raw levels.
    #[inline]
    pub fn levels(&self) -> &[u32] {
        &self.0
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if empty (only the degenerate array of the empty number).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// `max(xa)` in the paper: the virtual level (depth) of nodes carrying
    /// this array. Arrays are non-decreasing, so this is the last entry.
    #[inline]
    pub fn max_level(&self) -> u32 {
        // Invariant: `LevelMap::build` constructs one entry per PBN
        // component and every virtual type has length >= 1.
        match self.0.last() {
            Some(&l) => l,
            None => unreachable!("level array of a type is never empty"),
        }
    }

    /// Entry `i` (0-based position of the PBN component).
    #[inline]
    pub fn level_at(&self, i: usize) -> u32 {
        self.0[i]
    }

    /// Heap bytes used (for the space-overhead experiment).
    pub fn heap_bytes(&self) -> usize {
        self.0.len() * std::mem::size_of::<u32>()
    }
}

impl fmt::Debug for LevelArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl fmt::Display for LevelArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, l) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{l}")?;
        }
        f.write_str("]")
    }
}

/// The complete type → level-array map for a virtual hierarchy, stored as
/// one flat column: all level entries concatenated in virtual-type order
/// plus an offset table. A type's array is a borrowed slice of the column
/// ([`Self::levels_of`]), so vPBN construction on the hot path allocates
/// nothing and consecutive types share cache lines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LevelMap {
    /// Every type's level entries, concatenated in type-index order.
    column: Vec<u32>,
    /// `column[offsets[i]..offsets[i+1]]` is the array of virtual type `i`;
    /// always `len + 1` entries starting at 0.
    offsets: Vec<u32>,
}

impl LevelMap {
    /// Runs Algorithm 1 over the expanded virtual guide.
    pub fn build(vdg: &VDataGuide, original: &DataGuide) -> Self {
        let mut arrays: Vec<Option<LevelArray>> = vec![None; vdg.len()];
        // Preorder over the virtual forest; parents are computed first.
        let mut stack: Vec<VTypeId> = vdg.roots().iter().rev().copied().collect();
        while let Some(vt) = stack.pop() {
            let orig = vdg.original_type(vt);
            let s = original.length(orig);
            let n = vdg.level(vt) as u32;
            let array = match vdg.guide().ty(vt).parent() {
                None => LevelArray::new(vec![1u32; s]),
                Some(pvt) => {
                    // Invariant: the stack walk is preorder, so a parent's
                    // array is always filled before its children are
                    // visited.
                    let pa = match arrays[pvt.index()].as_ref() {
                        Some(a) => a,
                        None => unreachable!("parent visited before child in preorder"),
                    };
                    let porig = vdg.original_type(pvt);
                    // Invariant: both types come from one original guide,
                    // whose types form a single tree — an LCA always exists.
                    let z = match original.lca(porig, orig) {
                        Some(z) => z,
                        None => unreachable!("virtual parent and child share a tree"),
                    };
                    let k = original.length(z);
                    if k < s {
                        // Cases 1 and 3: prefix of the parent's array up to
                        // the lca, then the child's level for the rest.
                        let mut v = Vec::with_capacity(s);
                        v.extend_from_slice(&pa.levels()[..k]);
                        v.resize(s, n);
                        LevelArray::new(v)
                    } else {
                        // Case 2 (k == s): the child's original type is an
                        // ancestor of its virtual parent's; the array gets
                        // one extra entry for the level its number cannot
                        // express.
                        debug_assert_eq!(k, s, "lca length cannot exceed the child's length");
                        let mut v = Vec::with_capacity(s + 1);
                        v.extend_from_slice(&pa.levels()[..s]);
                        v.push(n);
                        LevelArray::new(v)
                    }
                }
            };
            arrays[vt.index()] = Some(array);
            stack.extend(vdg.children(vt).iter().rev().copied());
        }
        // Flatten into the columnar form: entries first, offsets after.
        let mut column = Vec::new();
        let mut offsets = Vec::with_capacity(arrays.len() + 1);
        offsets.push(0u32);
        for a in arrays {
            // Invariant: the walk above visits every virtual type (the
            // vDataGuide is a forest rooted at `roots()`).
            let a = match a {
                Some(a) => a,
                None => unreachable!("every virtual type is reachable from a root"),
            };
            column.extend_from_slice(a.levels());
            offsets.push(column.len() as u32);
        }
        LevelMap { column, offsets }
    }

    /// The level entries of a virtual type, borrowed from the flat column —
    /// the allocation-free accessor hot paths use.
    #[inline]
    pub fn levels_of(&self, vt: VTypeId) -> &[u32] {
        let i = vt.index();
        &self.column[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The level array of a virtual type, materialized as an owned value —
    /// a convenience for tests and owned [`crate::vpbn::VPbn`] numbers; hot
    /// paths borrow via [`Self::levels_of`].
    pub fn array(&self, vt: VTypeId) -> LevelArray {
        LevelArray::new(self.levels_of(vt).to_vec())
    }

    /// Number of entries (= number of virtual types).
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True if the map is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total heap bytes of all level entries (space-overhead experiment;
    /// this is the *per-type* cost the paper contrasts with storing an
    /// array on every node — the offset table is bookkeeping, not part of
    /// the contrast, and is excluded).
    pub fn heap_bytes(&self) -> usize {
        self.column.len() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vdg::VDataGuide;
    use vh_dataguide::DataGuide;
    use vh_xml::builder::paper_figure2;

    fn setup(spec: &str) -> (DataGuide, VDataGuide, LevelMap) {
        let (g, _) = DataGuide::from_document(&paper_figure2());
        let v = VDataGuide::compile(spec, &g).unwrap();
        let m = LevelMap::build(&v, &g);
        (g, v, m)
    }

    /// Finds the virtual type with the given virtual path.
    fn vt(v: &VDataGuide, path: &[&str]) -> VTypeId {
        v.guide()
            .lookup_path(path)
            .unwrap_or_else(|| panic!("virtual path {path:?} not found"))
    }

    #[test]
    fn figure10_level_arrays() {
        // The complete worked example: every level array in Figure 10.
        let (_g, v, m) = setup("title { author { name } }");
        let title = vt(&v, &["title"]);
        let title_text = vt(&v, &["title", "#text"]);
        let author = vt(&v, &["title", "author"]);
        let name = vt(&v, &["title", "author", "name"]);
        let name_text = vt(&v, &["title", "author", "name", "#text"]);

        assert_eq!(m.array(title).levels(), &[1, 1, 1]);
        assert_eq!(m.array(title_text).levels(), &[1, 1, 1, 2]);
        assert_eq!(m.array(author).levels(), &[1, 1, 2]);
        assert_eq!(m.array(name).levels(), &[1, 1, 2, 3]);
        assert_eq!(m.array(name_text).levels(), &[1, 1, 2, 3, 4]);
    }

    #[test]
    fn case2_inversion_arrays_match_section_5_2() {
        // §5.2: inverting name and author. "The level array for name would
        // then be [1,1] • [2,2]. ... The level array for author, the new
        // child of name would be [1,1] • [2,3]."
        let (_g, v, m) = setup("title { name { author } }");
        let name = vt(&v, &["title", "name"]);
        let author = vt(&v, &["title", "name", "author"]);
        assert_eq!(m.array(name).levels(), &[1, 1, 2, 2]);
        assert_eq!(m.array(author).levels(), &[1, 1, 2, 3]);
        // Case-2 arrays are one longer than the PBN number (length 3 for
        // data.book.author).
        assert_eq!(m.array(author).len(), 4);
        assert_eq!(m.array(author).max_level(), 3);
    }

    #[test]
    fn case3_example_title_author() {
        // §5.2 case 3: "The level array for title would then be [1,1] • [1]
        // ... The level array for author, the new child of title is
        // [1,1] • [2]."
        let (_g, v, m) = setup("title { author }");
        assert_eq!(m.array(vt(&v, &["title"])).levels(), &[1, 1, 1]);
        assert_eq!(m.array(vt(&v, &["title", "author"])).levels(), &[1, 1, 2]);
    }

    #[test]
    fn identity_arrays_equal_depth_runs() {
        // Under the identity transformation every component of a node's
        // number is on its own level: the array is [1,2,3,...,depth].
        let (g, v, m) = setup("data { ** }");
        for i in 0..v.len() {
            let vtid = VTypeId::from_index(i);
            let depth = g.length(v.original_type(vtid));
            let expected: Vec<u32> = (1..=depth as u32).collect();
            assert_eq!(
                m.array(vtid).levels(),
                &expected[..],
                "type {}",
                v.guide().path_string(vtid)
            );
        }
    }

    #[test]
    fn max_level_equals_virtual_depth() {
        let (_g, v, m) = setup("title { name { author } }");
        for i in 0..v.len() {
            let vtid = VTypeId::from_index(i);
            assert_eq!(
                m.array(vtid).max_level() as usize,
                v.level(vtid),
                "type {}",
                v.guide().path_string(vtid)
            );
        }
    }

    #[test]
    fn arrays_are_non_decreasing() {
        for spec in [
            "title { author { name } }",
            "title { name { author } }",
            "data { ** }",
            "book { publisher }",
            "name { author { title } }",
        ] {
            let (_g, v, m) = setup(spec);
            for i in 0..v.len() {
                let a = m.array(VTypeId::from_index(i));
                assert!(
                    a.levels().windows(2).all(|w| w[0] <= w[1]),
                    "spec {spec}: array {a} not monotone"
                );
            }
        }
    }

    /// Recompute oracle for a cached level map: a from-scratch rebuild over
    /// the current guide, which a map kept on an `unaffected_by` verdict
    /// must match.
    fn rebuild_levels_oracle(vdg: &VDataGuide, original: &DataGuide) -> LevelMap {
        LevelMap::build(vdg, original)
    }

    #[test]
    fn maintained_level_maps_match_the_rebuild_oracle() {
        use vh_dataguide::TypedDocument;

        let mut td = TypedDocument::analyze(paper_figure2());
        let v = VDataGuide::compile("title { author { name } }", td.guide()).unwrap();
        let m = LevelMap::build(&v, td.guide());

        // New type under an invisible parent: the map survives and must
        // equal what a rebuild over the grown guide produces.
        let publisher = td
            .guide()
            .lookup_path(&["data", "book", "publisher"])
            .unwrap();
        let p = td.nodes_of_type(publisher)[0];
        let since = td.guide().len();
        td.insert_fragment(p, 0, "<note>x</note>").unwrap();
        td.compact();
        assert!(td.guide().len() > since);
        assert!(
            v.unaffected_by(since, td.guide()),
            "invisible-parent insert must keep the level map"
        );
        assert_eq!(m, rebuild_levels_oracle(&v, td.guide()));

        // New type under the visible title: conservative recompute.
        let title = td.guide().lookup_path(&["data", "book", "title"]).unwrap();
        let t = td.nodes_of_type(title)[0];
        let since = td.guide().len();
        td.insert_fragment(t, 0, "<subtitle>s</subtitle>").unwrap();
        td.compact();
        assert!(!v.unaffected_by(since, td.guide()));
    }

    #[test]
    fn heap_bytes_counts_per_type_storage() {
        let (_g, _v, m) = setup("title { author { name } }");
        // Arrays: [1,1,1], [1,1,1,2], [1,1,2], [1,1,2,3], [1,1,2,3,4]
        // → 3+4+3+4+5 = 19 entries × 4 bytes.
        assert_eq!(m.heap_bytes(), 19 * 4);
    }
}
