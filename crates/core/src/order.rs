//! Virtual document order and dynamically computed sibling ordinals.
//!
//! §5.1: vPBN preserves document order but does **not** store sibling
//! ordinals — "if an ordinal is needed, it must be computed dynamically,
//! e.g., by queueing the siblings". [`v_cmp`] is the total order; ordinal
//! computation lives on [`crate::vdoc::VirtualDocument`]. [`OrderColumn`]
//! caches that order per view as one rank and one subtree end per
//! placement, for the structural and twig joins.

use crate::axes::v_ancestor;
use crate::vdg::VDataGuide;
use crate::vpbn::{decoded, VPbnRef};
use std::borrow::Cow;
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

/// A view's virtual document order as one comparable value per
/// *placement*: one entry per step of the view's preorder walk
/// ([`crate::VirtualDocument::preorder`]), which lists a node once under
/// every parent that places it and never reaches a node that no parent
/// places. A placement's `rank` is its position in the walk and its
/// `end` the last rank inside its subtree, so order is a rank compare and
/// containment is interval nesting, `rank[a] < rank[d] ≤ end[a]` — the
/// nested-sets encoding, exact by construction on every view. Built by
/// [`crate::VirtualDocument::order_column`].
///
/// Placements are named by [`NodeId`]s, so the joins merge them with the
/// code that merges nodes: a node's first placement is the node's own id,
/// and each further one gets an id past the document's last node
/// ([`Self::node`] maps it back). A node's order is therefore its first
/// placement's rank, the order `transform::materialize` emits it in. On a
/// view that places every visible node exactly once
/// ([`Self::places_each_once`]) the placements are the nodes.
#[derive(PartialEq, Eq)]
pub struct OrderColumn {
    /// `spans[p.index()]` for placement `p`: first placements by node
    /// id ([`Span::NONE`] for nodes the walk never reaches), then the
    /// further placements.
    spans: Vec<Span>,
    /// The node of each further placement, sorted by node and, within a
    /// node, by rank: `repeats[i]` places id `first + i`, where `first`
    /// is `spans.len() - repeats.len()`.
    repeats: Vec<NodeId>,
    /// Number of placements (the walk's length).
    placements: usize,
    /// True when every visible node has exactly one placement.
    once: bool,
}

/// One placement's rank and subtree end, side by side so a containment
/// test loads one entry per placement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Span {
    rank: u32,
    end: u32,
}

impl Span {
    /// Not placed: sorts after every placement and contains none.
    const NONE: Span = Span {
        rank: u32::MAX,
        end: 0,
    };
}

impl OrderColumn {
    /// Builds the column from the view's placement walk — each step's
    /// node and the last rank inside its subtree, in preorder — over a
    /// document of `doc_len` node ids with `visible` nodes in the view.
    pub(crate) fn from_walk(doc_len: usize, visible: usize, walk: &[(NodeId, u32)]) -> Self {
        let mut spans = vec![Span::NONE; doc_len];
        let mut repeats: Vec<(NodeId, Span)> = Vec::new();
        for (rank, &(id, end)) in walk.iter().enumerate() {
            let span = Span {
                rank: rank as u32,
                end,
            };
            let first = &mut spans[id.index()];
            if *first == Span::NONE {
                *first = span;
            } else {
                repeats.push((id, span));
            }
        }
        // Stable: each node's further placements stay in rank order.
        repeats.sort_by_key(|&(id, _)| id);
        spans.extend(repeats.iter().map(|&(_, span)| span));
        OrderColumn {
            spans,
            once: repeats.is_empty() && walk.len() == visible,
            repeats: repeats.into_iter().map(|(id, _)| id).collect(),
            placements: walk.len(),
        }
    }

    #[inline]
    fn span(&self, p: NodeId) -> Span {
        self.spans.get(p.index()).copied().unwrap_or(Span::NONE)
    }

    /// The placement's position in virtual document order; for a node,
    /// its first placement's (`u32::MAX` for a node the view never
    /// places).
    #[inline]
    pub fn rank(&self, p: NodeId) -> u32 {
        self.span(p).rank
    }

    /// The last rank inside the placement's virtual subtree (its own rank
    /// for a leaf).
    #[inline]
    pub fn end(&self, p: NodeId) -> u32 {
        self.span(p).end
    }

    /// Virtual document order of two placements: one integer compare.
    #[inline]
    pub fn cmp(&self, a: NodeId, b: NodeId) -> Ordering {
        self.rank(a).cmp(&self.rank(b))
    }

    /// True iff placement `a` is a proper virtual ancestor of placement
    /// `d`: `d`'s rank falls inside `a`'s interval.
    #[inline]
    pub fn contains(&self, a: NodeId, d: NodeId) -> bool {
        let (a, rd) = (self.span(a), self.rank(d));
        a.rank < rd && rd <= a.end
    }

    /// The node a placement places.
    #[inline]
    pub fn node(&self, p: NodeId) -> NodeId {
        let further = self.spans.len() - self.repeats.len();
        p.index()
            .checked_sub(further)
            .and_then(|i| self.repeats.get(i))
            .copied()
            .unwrap_or(p)
    }

    /// Every placement of `nodes`, dropping nodes the view never places:
    /// `nodes` itself on a view that places each node once, else a new
    /// list in rank order. Either way the result is in rank order
    /// whenever `nodes` is in virtual document order.
    pub fn placements<'n>(&self, nodes: &'n [NodeId]) -> Cow<'n, [NodeId]> {
        if self.once {
            return Cow::Borrowed(nodes);
        }
        let further = self.spans.len() - self.repeats.len();
        let mut out = Vec::with_capacity(nodes.len());
        for &n in nodes.iter().filter(|&&n| self.span(n) != Span::NONE) {
            out.push(n);
            let from = self.repeats.partition_point(|&r| r < n);
            let to = self.repeats.partition_point(|&r| r <= n);
            out.extend((from..to).map(|i| NodeId::from_index(further + i)));
        }
        out.sort_unstable_by_key(|&p| self.rank(p));
        Cow::Owned(out)
    }

    /// True when the view places every visible node exactly once, so
    /// [`Self::placements`] and [`Self::node`] are the identity.
    pub fn places_each_once(&self) -> bool {
        self.once
    }

    /// Number of placements.
    pub fn len(&self) -> usize {
        self.placements
    }

    /// True for a view with no placement.
    pub fn is_empty(&self) -> bool {
        self.placements == 0
    }
}

impl std::fmt::Debug for OrderColumn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderColumn")
            .field("placements", &self.placements)
            .field("once", &self.once)
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
