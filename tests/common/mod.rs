//! Shared helpers for the mutation test binaries (`edits.rs`,
//! `recovery.rs`): dotted-path addressing and the skewed random edit
//! scripts both suites drive through `Engine::apply`.

#![allow(clippy::expect_used)]

use vpbn_suite::query::api::Edit;
use vpbn_suite::xml::{Document, NodeId};

/// The document URI every mutation test registers its corpus under.
pub const URI: &str = "books.xml";

/// Dotted 1-based child-index path of `n` (the addressing scheme of
/// `Edit` targets): `"1"` is the root, `"1.2"` its second child, …
pub fn dotted_path(doc: &Document, n: NodeId) -> String {
    let mut steps = Vec::new();
    let mut cur = n;
    while let Some(p) = doc.parent(cur) {
        let idx = doc
            .children(p)
            .iter()
            .position(|&c| c == cur)
            .expect("child lists are consistent")
            + 1;
        steps.push(idx);
        cur = p;
    }
    steps.push(1);
    steps.reverse();
    steps
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(".")
}

/// Concretizes one abstract op against the *current* document state.
/// `op` is skewed: 60% inserts (mostly at position 0 — the front gap is
/// the minting worst case), 20% value rewrites, 10% deletes, 10% moves.
pub fn concretize(doc: &Document, op: u8, a: u16, b: u16) -> Option<Edit> {
    let nodes: Vec<NodeId> = doc.preorder().collect();
    let elements: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|&n| doc.kind(n).is_element())
        .collect();
    let pick = |pool: &[NodeId], salt: u16| pool.get(salt as usize % pool.len().max(1)).copied();
    let uri = URI.to_string();
    match op % 10 {
        0..=5 => {
            let parent = pick(&elements, a)?;
            let len = doc.children(parent).len();
            // Skew toward the front: repeated pos-0 inserts force the
            // arithmetic front-gap minting path.
            let pos = if b % 4 != 0 {
                0
            } else {
                b as usize % (len + 1)
            };
            let xml = match b % 3 {
                0 => format!("<book><title>T{a}</title><author><name>N{b}</name></author></book>"),
                1 => format!("<note>n{a}</note>"),
                _ => format!("<author><name>M{b}</name><note>x</note></author>"),
            };
            Some(Edit::InsertSubtree {
                uri,
                parent: dotted_path(doc, parent),
                pos,
                xml,
            })
        }
        6 | 7 => {
            let target = pick(&elements, a.wrapping_add(b))?;
            Some(Edit::SetValue {
                uri,
                target: dotted_path(doc, target),
                value: format!("v{b}"),
            })
        }
        8 => {
            let target = pick(&nodes[1..], a)?;
            Some(Edit::DeleteSubtree {
                uri,
                target: dotted_path(doc, target),
            })
        }
        _ => {
            let target = pick(&elements[1.min(elements.len())..], a)?;
            let dest = elements
                .iter()
                .copied()
                .cycle()
                .skip(b as usize % elements.len().max(1))
                .take(elements.len())
                .find(|&p| p != target && !doc.is_ancestor(target, p))?;
            Some(Edit::MoveSubtree {
                uri,
                target: dotted_path(doc, target),
                parent: dotted_path(doc, dest),
                pos: 0,
            })
        }
    }
}
