//! Physical materialization of a virtual hierarchy — the baseline vPBN
//! replaces, and the independent correctness oracle for the virtual
//! predicates.
//!
//! §4.3 enumerates what a system without vPBN must do to query transformed
//! data: physically build the transformed instance, assign fresh PBN
//! numbers to every node, and rebuild the indexes. [`materialize`] does
//! exactly that. Deliberately, it does **not** use level arrays or the
//! virtual predicates: node placement follows the instance-level rule the
//! paper states for Sam's query — a node attaches under the parent-type
//! instance it is "related to through a (least common) ancestor", i.e. the
//! two numbers agree on the first `length(lcaTypeOf(parentType, childType))`
//! components. Agreement between this code and `vh_core::axes` is therefore
//! meaningful evidence that the level-array construction is right; the
//! cross-validation lives in `tests/oracle.rs` at the workspace root.

use crate::vdg::{VDataGuide, VTypeId};
use vh_dataguide::TypedDocument;
use vh_pbn::keys;

use vh_xml::{Document, NodeId, NodeKind};

/// Name of the synthetic root wrapping the materialized forest (virtual
/// hierarchies are forests; XML documents need a single root).
pub const MATERIALIZED_ROOT: &str = "vroot";

/// The result of materializing a virtual hierarchy.
#[derive(Debug)]
pub struct Materialized {
    /// The transformed instance, under a synthetic [`MATERIALIZED_ROOT`].
    pub doc: Document,
    /// For each materialized node: the source node it was copied from
    /// (indexed by the new node's id; the synthetic root maps to `None`).
    pub source_of: Vec<Option<NodeId>>,
}

/// Physically applies `vdg` to the document, producing the transformed
/// instance. Nodes may be duplicated (a node matching several parent
/// instances appears under each — join semantics) or dropped (no matching
/// parent instance).
pub fn materialize(td: &TypedDocument, vdg: &VDataGuide) -> Materialized {
    let mut out = Document::new(format!("materialized:{}", td.doc().uri()));
    let root = out.create_root(MATERIALIZED_ROOT);
    let mut source_of: Vec<Option<NodeId>> = vec![None];

    // Per-virtual-type instance lists, PBN-sorted (document order).
    let mut instances: Vec<Vec<NodeId>> = vec![Vec::new(); vdg.len()];
    for &id in td.pbn().in_document_order() {
        if let Some(vt) = vdg.vtype_of(td.type_of(id)) {
            instances[vt.index()].push(id);
        }
    }

    // Roots: all instances of root virtual types, in document order.
    let mut top: Vec<(NodeId, VTypeId)> = Vec::new();
    for &rt in vdg.roots() {
        top.extend(instances[rt.index()].iter().map(|&n| (n, rt)));
    }
    top.sort_by(|a, b| td.pbn().key_of(a.0).cmp(td.pbn().key_of(b.0)));
    for (src, vt) in top {
        place(td, vdg, &instances, src, vt, root, &mut out, &mut source_of);
    }
    Materialized {
        doc: out,
        source_of,
    }
}

/// Copies `src` (shallow) under `parent` in `out`, then recursively places
/// the matching child instances.
#[allow(clippy::too_many_arguments)]
fn place(
    td: &TypedDocument,
    vdg: &VDataGuide,
    instances: &[Vec<NodeId>],
    src: NodeId,
    vt: VTypeId,
    parent: NodeId,
    out: &mut Document,
    source_of: &mut Vec<Option<NodeId>>,
) {
    let new_id = match td.doc().kind(src) {
        NodeKind::Element { name, attributes } => {
            let id = out.append_element(parent, name.clone());
            for a in attributes {
                out.set_attribute(id, a.name.clone(), a.value.clone());
            }
            id
        }
        NodeKind::Text(t) => out.append_text(parent, t.clone()),
        NodeKind::Comment(c) => out.append_comment(parent, c.clone()),
        NodeKind::ProcessingInstruction { target, data } => {
            out.append_pi(parent, target.clone(), data.clone())
        }
    };
    debug_assert_eq!(new_id.index(), source_of.len());
    source_of.push(Some(src));

    // Gather matching instances of every child virtual type, then place
    // them in original document order with ancestors-first on prefix ties
    // (matching `vh_core::order::v_cmp`).
    let pbn = td.pbn();
    let xk = pbn.key_of(src);
    let mut kids: Vec<(NodeId, VTypeId)> = Vec::new();
    for &ct in vdg.children(vt) {
        let k = lca_len(td, vdg, vt, ct);
        let prefix = &xk[..keys::component_boundary(xk, k)];
        // Candidates sharing the prefix form a contiguous run of the
        // PBN-sorted instance list: binary-search instead of scanning.
        let list = &instances[ct.index()];
        let (start, end) = if prefix.is_empty() {
            (0, list.len())
        } else {
            (
                crate::exec::partition_point_branchless(list, |&c| pbn.key_of(c) < prefix),
                crate::exec::partition_point_branchless(list, |&c| {
                    keys::before_subtree_end(prefix, pbn.key_of(c))
                }),
            )
        };
        for &cand in &list[start..end] {
            debug_assert!(keys::is_prefix(prefix, pbn.key_of(cand)));
            kids.push((cand, ct));
        }
    }
    kids.sort_by(|a, b| {
        pbn.key_of(a.0).cmp(pbn.key_of(b.0)).then_with(|| {
            // Prefix ties: the higher virtual node (smaller level) first.
            vdg.level(a.1).cmp(&vdg.level(b.1))
        })
    });
    for (cand, ct) in kids {
        place(td, vdg, instances, cand, ct, new_id, out, source_of);
    }
}

/// `length(lcaTypeOf(orig(parent), orig(child)))` in the original guide.
fn lca_len(td: &TypedDocument, vdg: &VDataGuide, pt: VTypeId, ct: VTypeId) -> usize {
    let g = td.guide();
    // Invariant: both virtual types are bound to types of one original
    // guide, whose type tree always has an LCA for any pair.
    let z = match g.lca(vdg.original_type(pt), vdg.original_type(ct)) {
        Some(z) => z,
        None => unreachable!("virtual parent and child originate from one tree"),
    };
    g.length(z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vh_xml::builder::paper_figure2;
    use vh_xml::{serialize, SerializeOptions};

    fn sam() -> TypedDocument {
        TypedDocument::analyze(paper_figure2())
    }

    fn materialize_spec(spec: &str) -> (TypedDocument, Materialized) {
        let td = sam();
        let vdg = VDataGuide::compile(spec, td.guide()).unwrap();
        let m = materialize(&td, &vdg);
        (td, m)
    }

    #[test]
    fn sams_transformation_produces_figure3() {
        let (_td, m) = materialize_spec("title { author { name } }");
        let s = serialize(&m.doc, SerializeOptions::compact());
        assert_eq!(
            s,
            "<vroot>\
             <title>X<author><name>C</name></author></title>\
             <title>Y<author><name>D</name></author></title>\
             </vroot>"
        );
    }

    #[test]
    fn identity_materialization_reproduces_the_document() {
        let (td, m) = materialize_spec("data { ** }");
        let root = m.doc.root().unwrap();
        assert_eq!(m.doc.children(root).len(), 1);
        let data = m.doc.children(root)[0];
        assert_eq!(
            serialize::serialize_node(&m.doc, data, SerializeOptions::compact()),
            serialize(td.doc(), SerializeOptions::compact())
        );
    }

    #[test]
    fn inversion_materializes_case2() {
        let (_td, m) = materialize_spec("title { name { author } }");
        let s = serialize(&m.doc, SerializeOptions::compact());
        // `author` (PBN 1.1.2) sorts before name's text (1.1.2.1.1): the
        // prefix-holder comes first in the canonicalized sibling order.
        assert_eq!(
            s,
            "<vroot>\
             <title>X<name><author/>C</name></title>\
             <title>Y<name><author/>D</name></title>\
             </vroot>"
        );
    }

    #[test]
    fn source_map_tracks_origins() {
        let (td, m) = materialize_spec("title { author { name } }");
        assert_eq!(m.source_of.len(), m.doc.len());
        assert_eq!(m.source_of[0], None, "synthetic root has no source");
        for (new_id, src) in m.source_of.iter().enumerate().skip(1) {
            let src = src.expect("every copied node has a source");
            let new_id = NodeId::from_index(new_id);
            // Kinds match between source and copy.
            match (m.doc.kind(new_id), td.doc().kind(src)) {
                (NodeKind::Element { name: a, .. }, NodeKind::Element { name: b, .. }) => {
                    assert_eq!(a, b)
                }
                (NodeKind::Text(a), NodeKind::Text(b)) => assert_eq!(a, b),
                (x, y) => panic!("kind mismatch: {x:?} vs {y:?}"),
            }
        }
    }

    #[test]
    fn unmatched_nodes_are_dropped() {
        // Project to publishers only: titles/authors disappear.
        let (_td, m) = materialize_spec("book { publisher }");
        let s = serialize(&m.doc, SerializeOptions::compact());
        assert_eq!(
            s,
            "<vroot>\
             <book><publisher><location>W</location></publisher></book>\
             <book><publisher><location>M</location></publisher></book>\
             </vroot>"
        );
    }

    #[test]
    fn materialized_matches_virtual_values() -> Result<(), Box<dyn std::error::Error>> {
        // The virtual value of each virtual root equals the serialization
        // of the corresponding materialized subtree.
        use crate::value::virtual_value;
        use crate::vdoc::VirtualDocument;
        let td = sam();
        for spec in ["title { author { name } }", "title { name { author } }"] {
            let vd = VirtualDocument::open(&td, spec)?;
            let vdg = VDataGuide::compile(spec, td.guide())?;
            let m = materialize(&td, &vdg);
            let mroot = m.doc.root().ok_or("materialized doc has a root")?;
            let mat_children = m.doc.children(mroot);
            let vroots = vd.roots();
            assert_eq!(mat_children.len(), vroots.len());
            for (&mat, &virt) in mat_children.iter().zip(&vroots) {
                let physical = serialize::serialize_node(&m.doc, mat, SerializeOptions::compact());
                let (virtual_, _) = virtual_value(&vd, &td, virt)?;
                assert_eq!(physical, virtual_, "spec {spec}");
            }
        }
        Ok(())
    }
}
