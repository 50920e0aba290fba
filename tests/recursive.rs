//! Recursive schemas: §4.1 stipulates that "for a recursive schema type,
//! each level of recursion is a different (actual) type". These tests
//! exercise vPBN over self-nested data — a bill-of-materials `part` tree —
//! where a bare `part` label is ambiguous and every virtual construct must
//! be qualified per recursion level.

#![allow(clippy::unwrap_used)]

use vpbn_suite::core::transform::materialize;
use vpbn_suite::core::{VDataGuide, VdgError, VirtualDocument};
use vpbn_suite::dataguide::TypedDocument;
use vpbn_suite::query::doc::VirtualDoc;
use vpbn_suite::query::xpath::{eval_xpath, parse_xpath};
use vpbn_suite::xml::NodeId;

/// A three-level bill of materials with two assemblies.
fn bom() -> TypedDocument {
    TypedDocument::parse(
        "bom.xml",
        "<bom>\
           <part><id>engine</id>\
             <part><id>piston</id><part><id>ring</id></part></part>\
             <part><id>valve</id></part>\
           </part>\
           <part><id>chassis</id>\
             <part><id>axle</id></part>\
           </part>\
         </bom>",
    )
    .unwrap()
}

#[test]
fn each_recursion_level_is_a_distinct_type() {
    let td = bom();
    let g = td.guide();
    // part, part.part, part.part.part are three distinct types.
    let l1 = g.lookup_path(&["bom", "part"]).unwrap();
    let l2 = g.lookup_path(&["bom", "part", "part"]).unwrap();
    let l3 = g.lookup_path(&["bom", "part", "part", "part"]).unwrap();
    assert_ne!(l1, l2);
    assert_ne!(l2, l3);
    assert_eq!(g.length(l1), 2);
    assert_eq!(g.length(l3), 4);
    // A bare `part` label is ambiguous across the levels, and so is the
    // partially qualified `part.part` (levels 2 and 3 both match the
    // suffix): full qualification is required.
    assert!(matches!(
        VDataGuide::compile("part", g),
        Err(VdgError::AmbiguousLabel { .. })
    ));
    assert!(matches!(
        VDataGuide::compile("part.part", g),
        Err(VdgError::AmbiguousLabel { .. })
    ));
    assert!(VDataGuide::compile("bom.part.part", g).is_ok());
}

#[test]
fn level_targeted_view_lifts_one_recursion_level() {
    let td = bom();
    // Lift the level-2 parts to the top, keeping their ids and subtrees.
    let vd = VirtualDocument::open(&td, "bom.part.part { ** }").unwrap();
    let roots = vd.roots();
    assert_eq!(roots.len(), 3, "piston, valve, axle");
    let ids: Vec<String> = roots
        .iter()
        .map(|&r| {
            let kids = vd.children(r);
            td.doc().string_value(kids[0])
        })
        .collect();
    assert_eq!(ids, vec!["piston", "valve", "axle"]);
    // piston keeps its nested ring (identity below).
    let q = parse_xpath("//part[id = 'ring']").unwrap();
    let rings = eval_xpath(&VirtualDoc::new(&vd), &q).unwrap();
    assert_eq!(rings.len(), 1);
}

#[test]
fn inverted_recursion_matches_materialization() {
    let td = bom();
    // Hang level-1 parts below their level-2 children's ids — a case-2
    // inversion across recursion levels.
    let spec = "bom.part.part.id { bom.part }";
    let vd = VirtualDocument::open(&td, spec).unwrap();
    let vdg = VDataGuide::compile(spec, td.guide()).unwrap();
    let mat = materialize(&td, &vdg);
    let mroot = mat.doc.root().unwrap();
    let mat_sources: Vec<NodeId> = mat
        .doc
        .descendants_or_self(mroot)
        .skip(1)
        .map(|m| mat.source_of[m.index()].unwrap())
        .collect();
    assert_eq!(vd.preorder(), mat_sources);
    // Each level-2 id now (virtually) contains its level-1 ancestor.
    let roots = vd.roots();
    assert_eq!(roots.len(), 3);
    for &r in &roots {
        let kids = vd.children(r);
        // The containing level-1 part (prefix-holder, canonical first) +
        // the id's own text.
        assert_eq!(kids.len(), 2, "children of {:?}", td.doc().string_value(r));
        assert_eq!(td.doc().name(kids[0]), Some("part"));
        assert!(td.doc().kind(kids[1]).is_text());
        assert!(vd.check(vpbn_suite::core::axes::v_parent, r, kids[0]));
    }
}

#[test]
fn identity_view_over_recursive_data_is_transparent() {
    let td = bom();
    let vd = VirtualDocument::open(&td, "bom { ** }").unwrap();
    assert_eq!(vd.visible_nodes(), td.doc().len());
    let phys: Vec<NodeId> = td.doc().preorder().collect();
    assert_eq!(vd.preorder(), phys);
    // Queries agree with the physical document.
    let q = parse_xpath("//part/part/part/id").unwrap();
    let deep = eval_xpath(&VirtualDoc::new(&vd), &q).unwrap();
    assert_eq!(deep.len(), 1);
    assert_eq!(td.doc().string_value(deep[0]), "ring");
}

#[test]
fn level_arrays_grow_with_recursion_depth() {
    let td = bom();
    let vd = VirtualDocument::open(&td, "bom.part.part { ** }").unwrap();
    // The root type (orig path bom.part.part, length 3) gets [1,1,1];
    // its recursive child (bom.part.part.part, length 4) gets [1,1,1,2].
    let root_vt = vd.vdg().roots()[0];
    assert_eq!(vd.array(root_vt).levels(), &[1, 1, 1]);
    let deeper = vd
        .vdg()
        .guide()
        .lookup_path(&["part", "part"])
        .expect("recursive child type exists in the view");
    assert_eq!(vd.array(deeper).levels(), &[1, 1, 1, 2]);
}
