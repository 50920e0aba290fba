//! Virtual document order and dynamically computed sibling ordinals.
//!
//! §5.1: vPBN preserves document order but does **not** store sibling
//! ordinals — "if an ordinal is needed, it must be computed dynamically,
//! e.g., by queueing the siblings". [`v_cmp`] is the total order; ordinal
//! computation lives on [`crate::vdoc::VirtualDocument`].

use crate::axes::v_ancestor;
use crate::vdg::VDataGuide;
use crate::vpbn::{decoded, VPbnRef};
use std::cmp::Ordering;
use vh_pbn::keys;

/// Total virtual document order over vPBN numbers.
///
/// * A virtual ancestor orders before its descendants (preorder). This
///   cannot be reduced to a prefix test: under inversions an ancestor's
///   number may *extend* or even *diverge from* its descendant's, so the
///   full [`v_ancestor`] predicate (compatibility + levels + type check)
///   decides. `v_ancestor(x, y)` needs `level(y) > level(x)`, so only the
///   node on the smaller level can be the ancestor, and nodes on one
///   level (siblings, runs of one type) skip the test.
/// * Otherwise the nodes sit in disjoint subtrees and the first divergent
///   component orders them (the paper's "prefix at level 1 of C is 1.1
///   which is less than 1.2" comparison) — one `memcmp` of the keys,
///   since byte order is document order.
/// * When one number is a component-prefix of the other and the nodes are
///   *not* vertically related (an inverted node versus the text of its new
///   parent), the numbers alone cannot order the pair; the canonical
///   tie-break is shorter-number-first — which the `memcmp` already gives,
///   a prefix sorting first — then virtual type id. The materialization
///   oracle pins this choice.
///
/// oracle: v_cmp_oracle
pub fn v_cmp(v: &VDataGuide, x: &VPbnRef<'_>, y: &VPbnRef<'_>) -> Ordering {
    if x.key == y.key && x.vtype == y.vtype {
        return Ordering::Equal;
    }
    match x.level().cmp(&y.level()) {
        Ordering::Less if v_ancestor(v, x, y) => return Ordering::Less,
        Ordering::Greater if v_ancestor(v, y, x) => return Ordering::Greater,
        _ => {}
    }
    keys::cmp(x.key, y.key).then(x.vtype.cmp(&y.vtype))
}

/// The oracle twin of [`v_cmp`]: both ancestor directions tested
/// unconditionally, then the component walk over the decoded numbers
/// with the shorter-number-first tie-break spelled out.
pub fn v_cmp_oracle(v: &VDataGuide, x: &VPbnRef<'_>, y: &VPbnRef<'_>) -> Ordering {
    let (xn, yn) = (decoded(x.key), decoded(y.key));
    if xn == yn && x.vtype == y.vtype {
        return Ordering::Equal;
    }
    if v_ancestor(v, x, y) {
        return Ordering::Less;
    }
    if v_ancestor(v, y, x) {
        return Ordering::Greater;
    }
    let (xc, yc) = (xn.components(), yn.components());
    for (a, b) in xc.iter().zip(yc) {
        match a.cmp(b) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    xc.len().cmp(&yc.len()).then(x.vtype.cmp(&y.vtype))
}

/// True if `x` comes strictly before `y` in virtual document order.
#[inline]
pub fn v_before(v: &VDataGuide, x: &VPbnRef<'_>, y: &VPbnRef<'_>) -> bool {
    v_cmp(v, x, y) == Ordering::Less
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levels::LevelMap;
    use crate::vpbn::VPbn;
    use vh_dataguide::DataGuide;
    use vh_pbn::Pbn;
    use vh_xml::builder::paper_figure2;

    /// Fixture: a compiled scenario over the paper's Figure 2 instance.
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
    fn divergence_orders_by_component() {
        // Figure 10: C (1.1.2.1.1) precedes the second author (1.2.2).
        let w = World::new("title { author { name } }");
        let c = w.node(&["title", "author", "name", "#text"], "1.1.2.1.1");
        let author2 = w.node(&["title", "author"], "1.2.2");
        assert!(v_before(&w.v, &c.as_ref(), &author2.as_ref()));
        assert!(!v_before(&w.v, &author2.as_ref(), &c.as_ref()));
    }

    #[test]
    fn ancestors_order_first_even_when_numbers_diverge() {
        // Sam's view: title 1.1.1 is the virtual ancestor of author 1.1.2
        // although the numbers diverge at the last position.
        let w = World::new("title { author { name } }");
        let title = w.node(&["title"], "1.1.1");
        let author = w.node(&["title", "author"], "1.1.2");
        assert!(v_before(&w.v, &title.as_ref(), &author.as_ref()));
        assert!(!v_before(&w.v, &author.as_ref(), &title.as_ref()));
    }

    #[test]
    fn inversion_orders_new_parent_first() {
        // title { name { author } }: name 1.1.2.1 is the virtual parent of
        // author 1.1.2 despite the longer number.
        let w = World::new("title { name { author } }");
        let name = w.node(&["title", "name"], "1.1.2.1");
        let author = w.node(&["title", "name", "author"], "1.1.2");
        assert!(v_before(&w.v, &name.as_ref(), &author.as_ref()));
    }

    #[test]
    fn prefix_ambiguous_siblings_order_shorter_first() {
        // Under the inversion, author (1.1.2) and the text of name
        // (1.1.2.1.1) are virtual siblings whose numbers are
        // prefix-related: canonical order is shorter-number-first.
        let w = World::new("title { name { author } }");
        let author = w.node(&["title", "name", "author"], "1.1.2");
        let c_text = w.node(&["title", "name", "#text"], "1.1.2.1.1");
        assert!(v_before(&w.v, &author.as_ref(), &c_text.as_ref()));
        assert!(!v_before(&w.v, &c_text.as_ref(), &author.as_ref()));
    }

    #[test]
    fn equal_numbers_and_types_are_equal() {
        let w = World::new("title { author { name } }");
        let a = w.node(&["title", "author"], "1.1.2");
        let b = w.node(&["title", "author"], "1.1.2");
        assert_eq!(v_cmp(&w.v, &a.as_ref(), &b.as_ref()), Ordering::Equal);
    }

    #[test]
    fn sorting_reconstructs_figure3_preorder() {
        let w = World::new("title { author { name } }");
        let mut nodes = vec![
            w.node(&["title", "author", "name", "#text"], "1.2.2.1.1"),
            w.node(&["title", "author"], "1.1.2"),
            w.node(&["title"], "1.2.1"),
            w.node(&["title", "#text"], "1.1.1.1"),
            w.node(&["title", "author", "name"], "1.1.2.1"),
            w.node(&["title"], "1.1.1"),
            w.node(&["title", "author", "name", "#text"], "1.1.2.1.1"),
            w.node(&["title", "author", "name"], "1.2.2.1"),
            w.node(&["title", "#text"], "1.2.1.1"),
            w.node(&["title", "author"], "1.2.2"),
        ];
        nodes.sort_by(|a, b| v_cmp(&w.v, &a.as_ref(), &b.as_ref()));
        let order: Vec<String> = nodes.iter().map(|n| n.pbn.to_string()).collect();
        assert_eq!(
            order,
            vec![
                "1.1.1",
                "1.1.1.1",
                "1.1.2",
                "1.1.2.1",
                "1.1.2.1.1", //
                "1.2.1",
                "1.2.1.1",
                "1.2.2",
                "1.2.2.1",
                "1.2.2.1.1",
            ]
        );
    }
}
