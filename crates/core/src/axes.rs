//! The ten virtual location predicates of §5.
//!
//! Every predicate combines a *number-level* condition on the
//! `(PBN, level array)` pairs with a *type-level* condition in the
//! vDataGuide ("the relationship must hold for the types of x and y in the
//! vDataGuide, V"). The type-level checks are PBN comparisons on the
//! virtual guide's internal numbering, so the whole predicate remains a
//! pure number comparison.
//!
//! The shared number-level core is **compatibility**: for every position
//! `i` present in both numbers, if the level arrays agree at `i`
//! (`xa[i] = ya[i]`) then the numbers must agree too (`xn[i] = yn[i]`).
//! Positions whose levels differ carry no constraint — they belong to
//! different virtual ancestors. (The paper's quantifier bounds are typeset
//! ambiguously; this positional reading reproduces every worked example in
//! §5, which the unit tests below verify verbatim.)

use crate::vdg::VDataGuide;
#[cfg(test)]
use crate::vpbn::decoded;
use crate::vpbn::VPbnRef;
use vh_dataguide::axes as ty;

/// Number-level compatibility: level-matching positions have matching
/// number components. See [`VPbnRef::compatible_with`].
#[inline]
fn compatible(x: &VPbnRef<'_>, y: &VPbnRef<'_>) -> bool {
    x.compatible_with(y)
}

/// vSelf(x, y) — x is the virtual self of y: same number, same array, same
/// virtual type. The level arrays are compared first: they are flat `u32`
/// slices (one `memcmp`), so almost every non-self pair is rejected before
/// the component-wise number comparison runs.
pub fn v_self(v: &VDataGuide, x: &VPbnRef<'_>, y: &VPbnRef<'_>) -> bool {
    x.a == y.a && x.key == y.key && ty::self_type(v.guide(), x.vtype, y.vtype)
}

/// vAncestor(x, y) — x is a virtual ancestor of y.
pub fn v_ancestor(v: &VDataGuide, x: &VPbnRef<'_>, y: &VPbnRef<'_>) -> bool {
    y.level() > x.level() && compatible(x, y) && ty::ancestor(v.guide(), x.vtype, y.vtype)
}

/// vParent(x, y) — x is the virtual parent of y.
///
/// (The printed predicate swaps the level arithmetic; a parent is one level
/// *above* its child: `max(xa) + 1 = max(ya)`.)
pub fn v_parent(v: &VDataGuide, x: &VPbnRef<'_>, y: &VPbnRef<'_>) -> bool {
    x.level() + 1 == y.level() && compatible(x, y) && ty::parent(v.guide(), x.vtype, y.vtype)
}

/// vDescendant(x, y) — x is a virtual descendant of y.
pub fn v_descendant(v: &VDataGuide, x: &VPbnRef<'_>, y: &VPbnRef<'_>) -> bool {
    x.level() > y.level() && compatible(x, y) && ty::descendant(v.guide(), x.vtype, y.vtype)
}

/// vChild(x, y) — x is a virtual child of y.
pub fn v_child(v: &VDataGuide, x: &VPbnRef<'_>, y: &VPbnRef<'_>) -> bool {
    y.level() + 1 == x.level() && compatible(x, y) && ty::child(v.guide(), x.vtype, y.vtype)
}

/// vDescendant-or-self(x, y).
pub fn v_descendant_or_self(v: &VDataGuide, x: &VPbnRef<'_>, y: &VPbnRef<'_>) -> bool {
    v_descendant(v, x, y) || v_self(v, x, y)
}

/// vAncestor-or-self(x, y).
pub fn v_ancestor_or_self(v: &VDataGuide, x: &VPbnRef<'_>, y: &VPbnRef<'_>) -> bool {
    v_ancestor(v, x, y) || v_self(v, x, y)
}

/// vPreceding(x, y) — x ends before y starts in virtual document order
/// (excludes virtual ancestors of y and virtual descendants of y, per the
/// XPath `preceding` axis).
///
/// The paper's `¬vAncestor(x, y) ∧ ¬vSelf(x, y)` guard is essential and
/// kept in full: under a transformation an ancestor's number can *diverge*
/// from its descendant's (e.g. `title` 1.1.1 is the virtual ancestor of
/// `author` 1.1.2 in Sam's view), so divergence alone does not imply
/// disjoint subtrees. No *positive* type-level condition applies beyond
/// the guard: instances of any two virtual types can stand in a preceding
/// relationship when they come from different subtrees (the first book's
/// `title` precedes the second book's `author` even though `title` is an
/// ancestor *type* of `author`). The materialization oracle pins both
/// properties.
pub fn v_preceding(v: &VDataGuide, x: &VPbnRef<'_>, y: &VPbnRef<'_>) -> bool {
    if v_self(v, x, y) || v_ancestor(v, x, y) || v_ancestor(v, y, x) {
        return false;
    }
    // Remaining pairs sit in disjoint virtual subtrees; virtual document
    // order decides. Using the shared comparator keeps the axis consistent
    // with sibling ordering when one number is a component-prefix of the
    // other (possible between an inverted node and the text of its new
    // parent — the numbers alone cannot order them, so the canonical
    // tie-break applies).
    crate::order::v_cmp(v, x, y) == std::cmp::Ordering::Less
}

/// vFollowing(x, y) — x starts after y ends in virtual document order.
pub fn v_following(v: &VDataGuide, x: &VPbnRef<'_>, y: &VPbnRef<'_>) -> bool {
    v_preceding(v, y, x)
}

/// Number-level virtual siblinghood: same virtual level, and all positions
/// belonging to proper-ancestor levels agree (§5's "∀i ≤ max(xa)−1"
/// condition read positionally). One walk over both keys' components.
///
/// oracle: v_sibling_numbers_decoded
#[inline]
fn v_sibling_numbers(x: &VPbnRef<'_>, y: &VPbnRef<'_>) -> bool {
    if x.level() != y.level() {
        return false;
    }
    let own = x.level();
    x.components_agree(y, |la, lb| la == lb && la < own)
}

/// Decode-then-compare twin of [`v_sibling_numbers`]: the positional loop
/// over decoded numbers.
#[cfg(test)]
fn v_sibling_numbers_decoded(x: &VPbnRef<'_>, y: &VPbnRef<'_>) -> bool {
    if x.level() != y.level() {
        return false;
    }
    let own = x.level();
    let (xn, yn) = (decoded(x.key), decoded(y.key));
    let m = x.comparable_len_decoded(y);
    (0..m).all(|i| x.a[i] != y.a[i] || x.a[i] >= own || xn.components()[i] == yn.components()[i])
}

/// vPreceding-sibling(x, y) — x is a virtual preceding sibling of y.
pub fn v_preceding_sibling(v: &VDataGuide, x: &VPbnRef<'_>, y: &VPbnRef<'_>) -> bool {
    v_sibling_numbers(x, y) && v_preceding(v, x, y) && !v_self(v, x, y) && sibling_types(v, x, y)
}

/// vFollowing-sibling(x, y) — x is a virtual following sibling of y.
pub fn v_following_sibling(v: &VDataGuide, x: &VPbnRef<'_>, y: &VPbnRef<'_>) -> bool {
    v_sibling_numbers(x, y) && v_following(v, x, y) && !v_self(v, x, y) && sibling_types(v, x, y)
}

/// Type-level siblinghood in the virtual guide (same type counts: two
/// `author` nodes under one `title` are siblings).
#[inline]
fn sibling_types(v: &VDataGuide, x: &VPbnRef<'_>, y: &VPbnRef<'_>) -> bool {
    x.vtype == y.vtype || ty::sibling(v.guide(), x.vtype, y.vtype)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levels::LevelMap;
    use crate::vdg::{VDataGuide, VTypeId};
    use crate::vpbn::VPbn;
    use vh_dataguide::DataGuide;
    use vh_pbn::Pbn;
    use vh_xml::builder::paper_figure2;

    /// Builds the Figure 10 world: Sam's transformation
    /// `title { author { name } }` with the paper's vPBN numbers.
    struct World {
        v: VDataGuide,
        m: LevelMap,
    }

    impl World {
        fn new(spec: &str) -> Self {
            let (g, _) = DataGuide::from_document(&paper_figure2());
            let v = VDataGuide::compile(spec, &g).unwrap();
            let m = LevelMap::build(&v, &g);
            World { v, m }
        }

        fn node(&self, vpath: &[&str], pbn: &str) -> VPbn {
            let vt = self
                .v
                .guide()
                .lookup_path(vpath)
                .unwrap_or_else(|| panic!("no virtual type {vpath:?}"));
            VPbn::new(pbn.parse::<Pbn>().unwrap(), self.m.array(vt), vt)
        }
    }

    #[test]
    fn figure10_descendant_examples() {
        // "The leftmost <name> is a virtual descendant of the leftmost
        // <title> since its prefix at level 1 is 1.1 ... But <name> is not
        // a virtual descendant of the rightmost <title>."
        let w = World::new("title { author { name } }");
        let title1 = w.node(&["title"], "1.1.1");
        let title2 = w.node(&["title"], "1.2.1");
        let name1 = w.node(&["title", "author", "name"], "1.1.2.1");

        assert!(v_descendant(&w.v, &name1.as_ref(), &title1.as_ref()));
        assert!(!v_descendant(&w.v, &name1.as_ref(), &title2.as_ref()));
        assert!(v_ancestor(&w.v, &title1.as_ref(), &name1.as_ref()));
        assert!(!v_ancestor(&w.v, &title2.as_ref(), &name1.as_ref()));
    }

    #[test]
    fn figure10_preceding_examples() {
        // "Text node C 1.1.2.1.1 virtually precedes <author> 1.2.2 since C
        // is not a virtual ancestor or self of <author>, and at level 1 C
        // has a prefix of 1.1 which is less than <author>'s prefix at level
        // 1 (1.2). Finally C is not a virtual following-sibling of D since
        // though they are at the same level, they do not have the same
        // virtual parent."
        let w = World::new("title { author { name } }");
        let c = w.node(&["title", "author", "name", "#text"], "1.1.2.1.1");
        let d = w.node(&["title", "author", "name", "#text"], "1.2.2.1.1");
        let author2 = w.node(&["title", "author"], "1.2.2");

        assert!(v_preceding(&w.v, &c.as_ref(), &author2.as_ref()));
        assert!(!v_following_sibling(&w.v, &c.as_ref(), &d.as_ref()));
        assert!(!v_following_sibling(&w.v, &d.as_ref(), &c.as_ref()));
        // C does precede D (virtual document order).
        assert!(v_preceding(&w.v, &c.as_ref(), &d.as_ref()));
        assert!(v_following(&w.v, &d.as_ref(), &c.as_ref()));
    }

    #[test]
    fn parent_child_in_the_transformed_space() {
        // §4.3: in the transformed instance, Y (1.2.1) is a parent of D's
        // chain — concretely author 1.2.2 is a virtual child of title 1.2.1
        // even though 1.2.1 is not a prefix of 1.2.2.
        let w = World::new("title { author { name } }");
        let title2 = w.node(&["title"], "1.2.1");
        let author2 = w.node(&["title", "author"], "1.2.2");
        assert!(v_child(&w.v, &author2.as_ref(), &title2.as_ref()));
        assert!(v_parent(&w.v, &title2.as_ref(), &author2.as_ref()));
        // And not across books.
        let title1 = w.node(&["title"], "1.1.1");
        assert!(!v_child(&w.v, &author2.as_ref(), &title1.as_ref()));
    }

    #[test]
    fn self_requires_identical_number_and_type() {
        let w = World::new("title { author { name } }");
        let a = w.node(&["title", "author"], "1.1.2");
        let b = w.node(&["title", "author"], "1.1.2");
        let c = w.node(&["title", "author"], "1.2.2");
        assert!(v_self(&w.v, &a.as_ref(), &b.as_ref()));
        assert!(!v_self(&w.v, &a.as_ref(), &c.as_ref()));
        assert!(v_descendant_or_self(&w.v, &a.as_ref(), &b.as_ref()));
        assert!(v_ancestor_or_self(&w.v, &a.as_ref(), &b.as_ref()));
    }

    #[test]
    fn case2_inversion_parenthood() {
        // title { name { author } }: name (1.1.2.1) is the virtual PARENT
        // of author (1.1.2) although author's number is a prefix of name's.
        let w = World::new("title { name { author } }");
        let name1 = w.node(&["title", "name"], "1.1.2.1");
        let author1 = w.node(&["title", "name", "author"], "1.1.2");
        assert!(v_parent(&w.v, &name1.as_ref(), &author1.as_ref()));
        assert!(v_child(&w.v, &author1.as_ref(), &name1.as_ref()));
        assert!(v_ancestor(&w.v, &name1.as_ref(), &author1.as_ref()));
        // The preceding/following axes exclude the pair entirely.
        assert!(!v_preceding(&w.v, &author1.as_ref(), &name1.as_ref()));
        assert!(!v_following(&w.v, &author1.as_ref(), &name1.as_ref()));
        // Across books nothing relates.
        let name2 = w.node(&["title", "name"], "1.2.2.1");
        assert!(!v_parent(&w.v, &name2.as_ref(), &author1.as_ref()));
        assert!(!v_ancestor(&w.v, &name2.as_ref(), &author1.as_ref()));
    }

    #[test]
    fn title_ancestor_of_inverted_chain() {
        let w = World::new("title { name { author } }");
        let title1 = w.node(&["title"], "1.1.1");
        let author1 = w.node(&["title", "name", "author"], "1.1.2");
        let name1 = w.node(&["title", "name"], "1.1.2.1");
        assert!(v_ancestor(&w.v, &title1.as_ref(), &name1.as_ref()));
        assert!(v_ancestor(&w.v, &title1.as_ref(), &author1.as_ref()));
        assert!(!v_parent(&w.v, &title1.as_ref(), &author1.as_ref()));
    }

    #[test]
    fn siblings_under_the_same_virtual_parent() {
        // Under title 1.1.1, the virtual children are its #text (1.1.1.1)
        // and author (1.1.2): siblings in the virtual space.
        let w = World::new("title { author { name } }");
        let x_text = w.node(&["title", "#text"], "1.1.1.1");
        let author1 = w.node(&["title", "author"], "1.1.2");
        assert!(v_preceding_sibling(
            &w.v,
            &x_text.as_ref(),
            &author1.as_ref()
        ));
        assert!(v_following_sibling(
            &w.v,
            &author1.as_ref(),
            &x_text.as_ref()
        ));
        // Not siblings across books.
        let author2 = w.node(&["title", "author"], "1.2.2");
        assert!(!v_preceding_sibling(
            &w.v,
            &x_text.as_ref(),
            &author2.as_ref()
        ));
        // Two titles are siblings (roots of the virtual forest).
        let title1 = w.node(&["title"], "1.1.1");
        let title2 = w.node(&["title"], "1.2.1");
        assert!(v_preceding_sibling(
            &w.v,
            &title1.as_ref(),
            &title2.as_ref()
        ));
    }

    #[test]
    fn identity_transform_agrees_with_plain_pbn() {
        // Under `data { ** }` the virtual predicates must coincide with the
        // physical PBN axes for every pair of nodes in Figure 2.
        use vh_dataguide::TypedDocument;
        use vh_pbn::axes as phys;
        use vh_pbn::EncodedPbn;
        let td = TypedDocument::analyze(paper_figure2());
        let v = VDataGuide::compile("data { ** }", td.guide()).unwrap();
        let m = LevelMap::build(&v, td.guide());
        let nodes: Vec<_> = td
            .doc()
            .preorder()
            .map(|id| {
                let vt = v.vtype_of(td.type_of(id)).unwrap();
                (td.pbn().pbn_of(id), m.array(vt), vt)
            })
            .collect();
        for (xn, xa, xt) in &nodes {
            for (yn, ya, yt) in &nodes {
                let (xk, yk) = (EncodedPbn::encode(xn), EncodedPbn::encode(yn));
                let x = VPbnRef::new(xk.as_bytes(), xa, *xt);
                let y = VPbnRef::new(yk.as_bytes(), ya, *yt);
                assert_eq!(v_self(&v, &x, &y), phys::is_self(xn, yn), "self {xn} {yn}");
                assert_eq!(
                    v_ancestor(&v, &x, &y),
                    phys::is_ancestor(xn, yn),
                    "ancestor {xn} {yn}"
                );
                assert_eq!(
                    v_descendant(&v, &x, &y),
                    phys::is_descendant(xn, yn),
                    "descendant {xn} {yn}"
                );
                assert_eq!(
                    v_parent(&v, &x, &y),
                    phys::is_parent(xn, yn),
                    "parent {xn} {yn}"
                );
                assert_eq!(
                    v_child(&v, &x, &y),
                    phys::is_child(xn, yn),
                    "child {xn} {yn}"
                );
                assert_eq!(
                    v_preceding(&v, &x, &y),
                    phys::is_preceding(xn, yn),
                    "preceding {xn} {yn}"
                );
                assert_eq!(
                    v_following(&v, &x, &y),
                    phys::is_following(xn, yn),
                    "following {xn} {yn}"
                );
                assert_eq!(
                    v_preceding_sibling(&v, &x, &y),
                    phys::is_preceding_sibling(xn, yn),
                    "preceding-sibling {xn} {yn}"
                );
                assert_eq!(
                    v_following_sibling(&v, &x, &y),
                    phys::is_following_sibling(xn, yn),
                    "following-sibling {xn} {yn}"
                );
            }
        }
    }

    /// Every byte-walk predicate against its decode-then-compare twin, on
    /// every ordered pair of a random corpus whose keys include minted
    /// front-gap and between-sibling fractions, evaluated at 1, 2 and 8
    /// threads.
    #[test]
    fn byte_walks_match_their_decoded_twins() {
        use crate::exec::{par_filter, ExecOptions};
        use crate::order::{v_cmp, v_cmp_oracle};
        use crate::range::{related_prefix, related_prefix_decoded};
        let w = World::new("title { author { name } }");
        for seed in [1u64, 7, 0x5eed] {
            let nodes = crate::vpbn::arbitrary_vpbns(seed, 120, w.v.len());
            let pairs: Vec<(usize, usize)> = (0..nodes.len())
                .flat_map(|i| (0..nodes.len()).map(move |j| (i, j)))
                .collect();
            let disagrees = |&(i, j): &(usize, usize)| {
                let (x, y) = (nodes[i].as_ref(), nodes[j].as_ref());
                x.compatible_with(&y) != x.compatible_with_decoded(&y)
                    || x.comparable_len(&y) != x.comparable_len_decoded(&y)
                    || v_sibling_numbers(&x, &y) != v_sibling_numbers_decoded(&x, &y)
                    || v_cmp(&w.v, &x, &y) != v_cmp_oracle(&w.v, &x, &y)
                    || related_prefix(&x, y.a) != related_prefix_decoded(&x, y.a)
            };
            for threads in [1, 2, 8] {
                let opts = ExecOptions {
                    par_threshold: 1,
                    ..ExecOptions::with_threads(threads)
                };
                let bad = par_filter(&opts, &pairs, disagrees);
                assert!(
                    bad.is_empty(),
                    "seed {seed}, {threads} threads: {:?}",
                    bad.iter()
                        .take(3)
                        .map(|&(i, j)| (&nodes[i], &nodes[j]))
                        .collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn vpbn_ref_helpers() {
        let w = World::new("title { author { name } }");
        let a = w.node(&["title", "author"], "1.1.2");
        assert_eq!(a.level(), 2);
        let _ = VTypeId::from_index(0); // silence unused-import pedantry in some cfgs
    }
}
