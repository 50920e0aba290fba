//! Virtual document order and dynamically computed sibling ordinals.
//!
//! §5.1: vPBN preserves document order but does **not** store sibling
//! ordinals — "if an ordinal is needed, it must be computed dynamically,
//! e.g., by queueing the siblings". [`v_cmp`] is the total order; ordinal
//! computation lives on [`crate::vdoc::VirtualDocument`]. [`OrderColumn`]
//! caches that order per view as one rank and one subtree end per node,
//! for the structural and twig joins.

use crate::axes::v_ancestor;
use crate::vdg::VDataGuide;
use crate::vpbn::{decoded, VPbnRef};
use std::cmp::Ordering;
use vh_pbn::keys;
use vh_xml::NodeId;

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

/// A view's virtual document order as one comparable value per node: the
/// node's `rank` (its position in virtual document order) and `end` (the
/// last rank inside its virtual subtree). Order is a rank compare and
/// containment is interval nesting, `rank[a] < rank[d] ≤ end[a]` — the
/// nested-sets encoding, exact wherever every node has one virtual
/// parent. Built by [`crate::VirtualDocument::order_column`], which
/// refuses views that place a node twice.
#[derive(PartialEq, Eq)]
pub struct OrderColumn {
    /// `spans[id.index()]`, [`Span::NONE`] for nodes outside the view.
    spans: Vec<Span>,
    /// Number of ranked (visible) nodes.
    ranked: usize,
}

/// One node's rank and subtree end, side by side so a containment test
/// loads one entry per node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Span {
    rank: u32,
    end: u32,
}

impl Span {
    /// Outside the view: sorts after every ranked node and contains none.
    const NONE: Span = Span {
        rank: u32::MAX,
        end: 0,
    };
}

impl OrderColumn {
    /// Builds the column from the view's visible nodes in virtual
    /// document order, each with its subtree end, over a document of
    /// `doc_len` node ids.
    pub(crate) fn from_order(
        doc_len: usize,
        order: impl IntoIterator<Item = (NodeId, u32)>,
    ) -> Self {
        let mut spans = vec![Span::NONE; doc_len];
        let mut ranked = 0;
        for (id, end) in order {
            spans[id.index()] = Span {
                rank: ranked as u32,
                end,
            };
            ranked += 1;
        }
        OrderColumn { spans, ranked }
    }

    #[inline]
    fn span(&self, id: NodeId) -> Span {
        self.spans.get(id.index()).copied().unwrap_or(Span::NONE)
    }

    /// The node's position in virtual document order (`u32::MAX` outside
    /// the view).
    #[inline]
    pub fn rank(&self, id: NodeId) -> u32 {
        self.span(id).rank
    }

    /// The last rank inside the node's virtual subtree (its own rank for
    /// a leaf).
    #[inline]
    pub fn end(&self, id: NodeId) -> u32 {
        self.span(id).end
    }

    /// Virtual document order: one integer compare.
    #[inline]
    pub fn cmp(&self, a: NodeId, b: NodeId) -> Ordering {
        self.rank(a).cmp(&self.rank(b))
    }

    /// True iff `a` is a proper virtual ancestor of `d`: `d`'s rank falls
    /// inside `a`'s interval.
    #[inline]
    pub fn contains(&self, a: NodeId, d: NodeId) -> bool {
        let (a, rd) = (self.span(a), self.rank(d));
        a.rank < rd && rd <= a.end
    }

    /// Number of ranked (visible) nodes.
    pub fn len(&self) -> usize {
        self.ranked
    }

    /// True for a view with no visible node.
    pub fn is_empty(&self) -> bool {
        self.ranked == 0
    }

    /// Heap bytes of the column.
    pub fn heap_bytes(&self) -> usize {
        self.spans.len() * std::mem::size_of::<Span>()
    }
}

impl std::fmt::Debug for OrderColumn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderColumn")
            .field("ranked", &self.ranked)
            .finish_non_exhaustive()
    }
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
