//! Expansion of a parsed [`VdgSpec`] against the original DataGuide.
//!
//! The result, [`VDataGuide`], is itself a type forest (represented with the
//! same machinery as an ordinary DataGuide, so all type-level axis checks
//! are PBN comparisons), in which every virtual type records its
//! *original* type — the paper's `originalTypeOf`.
//!
//! ## Reconstruction decisions
//!
//! The paper specifies the grammar and the worked example
//! `title { author { name } }` whose virtual instance (Figure 10) retains
//! the text below `title` and below `name`. From this we fix the expansion
//! rules precisely:
//!
//! 1. An explicit label binds one original type (suffix-qualified names
//!    disambiguate, per §4.1); binding the same original type twice is an
//!    error.
//! 2. Every virtual type implicitly keeps the `#text` child of its original
//!    type (Figure 10 shows `X` at level array `[1,1,1,2]` under `title`
//!    even though the specification never mentions text).
//! 3. A label with **no** child list expands its full original subtree
//!    (identity below) — this is what makes the virtual *value* of an
//!    unreshaped region equal its original value (§6).
//! 4. `*` and `**` expand the unmentioned children / descendants of the
//!    parent's original type with identity subtrees. Because an identity
//!    child already carries its whole subtree (rule 3 applied recursively),
//!    the two spellings coincide here; both skip any type explicitly
//!    mentioned elsewhere in the specification ("the children which are not
//!    mentioned elsewhere in the vDataGuide").

use crate::vdg::grammar::{VdgChild, VdgNode, VdgSpec};
use crate::vdg::{VdgError, MAX_VDG_DEPTH};
use std::collections::{HashMap, HashSet};
use vh_dataguide::{DataGuide, TypeId, TEXT_TYPE_NAME};

/// Identifier of a virtual type. Virtual types live in their own guide, so
/// this is a [`TypeId`] *of the virtual guide*, distinct from original
/// type ids.
pub type VTypeId = TypeId;

/// The dense `vtype_of` sentinel of an original type with no virtual type.
const INVISIBLE: u32 = u32::MAX;

/// A fully expanded virtual DataGuide.
#[derive(Clone, Debug)]
pub struct VDataGuide {
    /// The virtual type forest (a guide over virtual paths).
    vguide: DataGuide,
    /// `orig[vt.index()]` is the original type bound at virtual type `vt`.
    orig: Vec<TypeId>,
    /// Original type → virtual type, dense over the original type ids:
    /// `vtype_of[t.index()]` is the virtual type's index, or
    /// [`INVISIBLE`] for types invisible in the virtual hierarchy (types
    /// interned after compilation lie past the end and are invisible too).
    vtype_of: Vec<u32>,
    /// Virtual types that head an *identity region*: their whole original
    /// subtree is carried over unreshaped (used by §6 value stitching).
    identity_below: Vec<bool>,
    /// The source specification, kept for diagnostics and `Display`.
    spec: VdgSpec,
}

impl VDataGuide {
    /// Parses and expands a specification string in one step.
    pub fn compile(spec: &str, original: &DataGuide) -> Result<Self, VdgError> {
        VdgSpec::parse(spec)?.expand(original)
    }

    /// The virtual type forest. Names are the local names of the bound
    /// original types; paths are *virtual* paths (e.g. `title.author`).
    #[inline]
    pub fn guide(&self) -> &DataGuide {
        &self.vguide
    }

    /// The source specification.
    #[inline]
    pub fn spec(&self) -> &VdgSpec {
        &self.spec
    }

    /// Number of virtual types.
    #[inline]
    pub fn len(&self) -> usize {
        self.orig.len()
    }

    /// True if the guide has no virtual types (cannot happen for a
    /// successfully expanded specification).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.orig.is_empty()
    }

    /// `originalTypeOf` — the original type bound at `vt`.
    #[inline]
    pub fn original_type(&self, vt: VTypeId) -> TypeId {
        self.orig[vt.index()]
    }

    /// The virtual type an original type appears at, if it is part of the
    /// virtual hierarchy.
    #[inline]
    pub fn vtype_of(&self, original: TypeId) -> Option<VTypeId> {
        match self.vtype_of.get(original.index()) {
            Some(&vt) if vt != INVISIBLE => Some(VTypeId::from_index(vt as usize)),
            _ => None,
        }
    }

    /// True if `vt` heads an identity region: every descendant of a node of
    /// this type sits at its original relative position, so the node's
    /// virtual value equals its stored value (§6 fast path).
    #[inline]
    pub fn is_identity_below(&self, vt: VTypeId) -> bool {
        self.identity_below[vt.index()]
    }

    /// Virtual root types.
    #[inline]
    pub fn roots(&self) -> &[VTypeId] {
        self.vguide.roots()
    }

    /// Virtual children of a virtual type, in specification order.
    #[inline]
    pub fn children(&self, vt: VTypeId) -> &[VTypeId] {
        self.vguide.ty(vt).children()
    }

    /// The virtual level of a virtual type (roots are level 1).
    #[inline]
    pub fn level(&self, vt: VTypeId) -> usize {
        self.vguide.length(vt)
    }

    /// True when the guide types interned since `original` had `since`
    /// types provably cannot change what `VDataGuide::compile(spec,
    /// original)` would produce, so this cached expansion stays valid
    /// under the grown guide. A DataGuide only grows, so the new types
    /// are the tail `since..original.len()`.
    ///
    /// A new type `t` is harmless iff **both** hold:
    /// * its parent is invisible in this view (no virtual type) — a
    ///   visible parent could pull `t` in through the implicit `#text`
    ///   rule, an identity region, or a `*`/`**` item, and could flip an
    ///   `is_identity_below` completeness flag;
    /// * its name is not the last segment of any spec label — label
    ///   resolution is path-*suffix* based, so a same-named new type could
    ///   change (or ambiguate) what a label resolves to, and the recompile
    ///   must happen even if only to surface that error.
    ///
    /// Conservative by design: a `false` only costs a recompute.
    pub fn unaffected_by(&self, since: usize, original: &DataGuide) -> bool {
        if since >= original.len() {
            return true;
        }
        let tails: Vec<&str> = self
            .spec
            .labels()
            .iter()
            .map(|l| l.rsplit('.').next().unwrap_or(l))
            .collect();
        (since..original.len()).all(|t| {
            let ty = original.ty(TypeId::from_index(t));
            let parent_visible = match ty.parent() {
                Some(p) => self.vtype_of(p).is_some(),
                // A parentless new type would be a new root; mutations
                // never mint one, but recompute if something ever does.
                None => true,
            };
            !parent_visible && !tails.contains(&ty.name())
        })
    }
}

impl VdgSpec {
    /// Expands this specification against `original`, binding labels and
    /// materializing `*` / `**` / identity regions.
    pub fn expand(&self, original: &DataGuide) -> Result<VDataGuide, VdgError> {
        let mentioned = self.mentioned_types(original)?;
        let mut out = Expansion {
            original,
            mentioned,
            vguide: DataGuide::new(original.uri()),
            orig: Vec::new(),
            vtype_of: HashMap::new(),
            identity_below: Vec::new(),
        };
        for root in &self.roots {
            let ty = out.resolve(&root.label)?;
            let vt = out.vguide.intern_root(original.name(ty));
            out.record(vt, ty)?;
            out.expand_children(vt, ty, &root.children, 1)?;
        }
        let mut vtype_of = vec![INVISIBLE; original.len()];
        for (ty, vt) in out.vtype_of {
            vtype_of[ty.index()] = vt.index() as u32;
        }
        Ok(VDataGuide {
            vguide: out.vguide,
            orig: out.orig,
            vtype_of,
            identity_below: out.identity_below,
            spec: self.clone(),
        })
    }

    /// Resolves every explicit label in the specification, for the
    /// "not mentioned elsewhere" rule of `*`/`**`.
    fn mentioned_types(&self, original: &DataGuide) -> Result<HashSet<TypeId>, VdgError> {
        fn walk(
            node: &VdgNode,
            original: &DataGuide,
            out: &mut HashSet<TypeId>,
        ) -> Result<(), VdgError> {
            out.insert(resolve_label(original, &node.label)?);
            for c in &node.children {
                if let VdgChild::Node(n) = c {
                    walk(n, original, out)?;
                }
            }
            Ok(())
        }
        let mut set = HashSet::new();
        for r in &self.roots {
            walk(r, original, &mut set)?;
        }
        Ok(set)
    }
}

/// Resolves a (possibly dotted) label to exactly one original type.
fn resolve_label(original: &DataGuide, label: &str) -> Result<TypeId, VdgError> {
    let candidates = original.resolve_label(label);
    match candidates.len() {
        0 => Err(VdgError::UnknownLabel(label.to_owned())),
        1 => Ok(candidates[0]),
        _ => Err(VdgError::AmbiguousLabel {
            label: label.to_owned(),
            candidates: candidates
                .into_iter()
                .map(|t| original.path_string(t))
                .collect(),
        }),
    }
}

struct Expansion<'a> {
    original: &'a DataGuide,
    mentioned: HashSet<TypeId>,
    vguide: DataGuide,
    orig: Vec<TypeId>,
    vtype_of: HashMap<TypeId, VTypeId>,
    identity_below: Vec<bool>,
}

impl<'a> Expansion<'a> {
    fn resolve(&self, label: &str) -> Result<TypeId, VdgError> {
        resolve_label(self.original, label)
    }

    /// Records the binding `vt ↔ ty`, rejecting duplicates in either
    /// direction (an original type has one virtual location; a virtual path
    /// names one original type).
    fn record(&mut self, vt: VTypeId, ty: TypeId) -> Result<(), VdgError> {
        if vt.index() < self.orig.len() {
            // `intern_*` returned an existing virtual type: two siblings
            // with the same local name bound different original types, or
            // the same label was listed twice.
            return Err(VdgError::DuplicateBinding(self.original.path_string(ty)));
        }
        debug_assert_eq!(vt.index(), self.orig.len());
        self.orig.push(ty);
        self.identity_below.push(false);
        if self.vtype_of.insert(ty, vt).is_some() {
            return Err(VdgError::DuplicateBinding(self.original.path_string(ty)));
        }
        Ok(())
    }

    /// Fails with [`VdgError::DepthExceeded`] once the virtual hierarchy
    /// under construction nests past [`MAX_VDG_DEPTH`] — both this walk and
    /// the identity expansion recurse once per level.
    fn check_depth(&self, depth: usize) -> Result<(), VdgError> {
        if depth > MAX_VDG_DEPTH {
            return Err(VdgError::DepthExceeded {
                depth,
                limit: MAX_VDG_DEPTH,
            });
        }
        Ok(())
    }

    fn expand_children(
        &mut self,
        vt: VTypeId,
        ty: TypeId,
        children: &[VdgChild],
        depth: usize,
    ) -> Result<(), VdgError> {
        self.check_depth(depth)?;
        if children.is_empty() {
            // Rule 3: identity below. The fast-path flag is only set when
            // the whole original subtree really is carried over — a
            // descendant type mentioned (and thus re-rooted) elsewhere
            // makes the region value-incomplete.
            let complete = self.expand_identity_children(vt, ty, depth)?;
            self.identity_below[vt.index()] = complete;
            return Ok(());
        }
        let mut any_explicit = false;
        let mut stars_complete = true;
        for c in children {
            match c {
                VdgChild::Node(n) => {
                    any_explicit = true;
                    let cty = self.resolve(&n.label)?;
                    let cvt = self.vguide.intern_child(vt, self.original.name(cty));
                    self.record(cvt, cty)?;
                    self.expand_children(cvt, cty, &n.children, depth + 1)?;
                }
                VdgChild::Star | VdgChild::DoubleStar => {
                    stars_complete &= self.expand_unmentioned(vt, ty, depth)?;
                }
            }
        }
        // A child list of only `*`/`**` that skipped nothing is an identity
        // region too (e.g. `data { ** }` leaves the whole document intact).
        if !any_explicit && stars_complete {
            self.identity_below[vt.index()] = true;
        }
        // Rule 2: implicit #text child.
        if let Some(text_ty) = self.original.text_child(ty) {
            if !self.vtype_of.contains_key(&text_ty) {
                let cvt = self.vguide.intern_child(vt, TEXT_TYPE_NAME);
                self.record(cvt, text_ty)?;
                self.identity_below[cvt.index()] = true;
            }
        }
        Ok(())
    }

    /// Identity expansion: copies the original child types of `ty` under
    /// `vt`, recursively, skipping explicitly mentioned types. Returns
    /// `true` when nothing was skipped anywhere below (the region is
    /// value-complete).
    fn expand_identity_children(
        &mut self,
        vt: VTypeId,
        ty: TypeId,
        depth: usize,
    ) -> Result<bool, VdgError> {
        self.check_depth(depth)?;
        let children: Vec<TypeId> = self.original.ty(ty).children().to_vec();
        let mut complete = true;
        for cty in children {
            if self.mentioned.contains(&cty) || self.vtype_of.contains_key(&cty) {
                complete = false;
                continue;
            }
            let cvt = self.vguide.intern_child(vt, self.original.name(cty));
            self.record(cvt, cty)?;
            let child_complete = self.expand_identity_children(cvt, cty, depth + 1)?;
            self.identity_below[cvt.index()] = child_complete;
            complete &= child_complete;
        }
        Ok(complete)
    }

    /// `*` / `**`: unmentioned children of `ty`, each with an identity
    /// subtree. Returns `true` when nothing below was skipped.
    fn expand_unmentioned(
        &mut self,
        vt: VTypeId,
        ty: TypeId,
        depth: usize,
    ) -> Result<bool, VdgError> {
        self.expand_identity_children(vt, ty, depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Must;
    use vh_dataguide::TypedDocument;
    use vh_xml::builder::paper_figure2;

    fn original() -> DataGuide {
        let (g, _) = DataGuide::from_document(&paper_figure2());
        g
    }

    #[test]
    fn figure7b_expansion() {
        // "title { author { name } }" over the Figure 7(a) guide.
        let g = original();
        let v = VDataGuide::compile("title { author { name } }", &g).must();
        // Virtual types: title, title.#text, author, name, name.#text.
        assert_eq!(v.len(), 5);
        assert_eq!(v.roots().len(), 1);
        let title = v.roots()[0];
        assert_eq!(v.guide().name(title), "title");
        assert_eq!(v.level(title), 1);
        // originalTypeOf(title) = data.book.title.
        assert_eq!(g.path_string(v.original_type(title)), "data.book.title");

        // title's virtual children: author (explicit) + #text (implicit).
        let kids = v.children(title);
        assert_eq!(kids.len(), 2);
        let author = kids[0];
        assert_eq!(v.guide().name(author), "author");
        assert_eq!(v.level(author), 2);
        // §4.1: "the typeOf author in Figure 7(b) is title.author, and it
        // has a length of 2. Its originalTypeOf is data.book.author."
        assert_eq!(v.guide().path_string(author), "title.author");
        assert_eq!(g.path_string(v.original_type(author)), "data.book.author");

        let name = v.children(author)[0];
        assert_eq!(v.guide().name(name), "name");
        assert_eq!(v.level(name), 3);
        assert!(v.is_identity_below(name), "leaf label is identity below");
        // name keeps its text.
        assert_eq!(v.children(name).len(), 1);
    }

    #[test]
    fn identity_specification_covers_everything() {
        let g = original();
        let v = VDataGuide::compile("data { ** }", &g).must();
        // Every original type appears, at its original position.
        assert_eq!(v.len(), g.len());
        for vt in (0..v.len()).map(VTypeId::from_index) {
            let orig = v.original_type(vt);
            assert_eq!(v.level(vt), g.length(orig));
            assert_eq!(v.guide().name(vt), g.name(orig));
        }
    }

    #[test]
    fn explicit_and_compact_identity_agree() {
        let g = original();
        let a = VDataGuide::compile(
            "data { book { title author { name } publisher { location } } }",
            &g,
        )
        .must();
        let b = VDataGuide::compile("data { ** }", &g).must();
        assert_eq!(a.len(), b.len());
        // Same virtual paths either way.
        let paths = |v: &VDataGuide| {
            let mut p: Vec<String> = (0..v.len())
                .map(|i| v.guide().path_string(VTypeId::from_index(i)))
                .collect();
            p.sort();
            p
        };
        assert_eq!(paths(&a), paths(&b));
    }

    #[test]
    fn projection_keeps_subtrees_of_named_leaves() {
        let g = original();
        let v = VDataGuide::compile("book { publisher }", &g).must();
        let book = v.roots()[0];
        let publisher = v.children(book)[0];
        assert!(v.is_identity_below(publisher));
        // publisher's identity subtree: location, location.#text.
        let location = v.children(publisher)[0];
        assert_eq!(v.guide().name(location), "location");
        assert_eq!(v.level(location), 3);
        // title/author are NOT part of the virtual hierarchy.
        let title = g.lookup_path(&["data", "book", "title"]).must();
        assert_eq!(v.vtype_of(title), None);
    }

    #[test]
    fn star_skips_mentioned_types() {
        let g = original();
        let v = VDataGuide::compile("book { title * }", &g).must();
        let book = v.roots()[0];
        let names: Vec<&str> = v
            .children(book)
            .iter()
            .map(|&c| v.guide().name(c))
            .collect();
        // title (explicit) then author, publisher from '*'; no duplicate title.
        assert_eq!(names, vec!["title", "author", "publisher"]);
    }

    #[test]
    fn unknown_and_ambiguous_labels_error() {
        let g = original();
        assert!(matches!(
            VDataGuide::compile("nosuch", &g),
            Err(VdgError::UnknownLabel(_))
        ));
        // '#text' appears under title, name and location: ambiguous.
        assert!(matches!(
            VDataGuide::compile("#text", &g),
            Err(VdgError::AmbiguousLabel { .. })
        ));
        // Qualification fixes it.
        assert!(VDataGuide::compile("title.#text", &g).is_ok());
    }

    #[test]
    fn duplicate_binding_is_rejected() {
        let g = original();
        let e = VDataGuide::compile("title { author } author", &g).unwrap_err();
        assert!(matches!(e, VdgError::DuplicateBinding(_)), "{e}");
    }

    #[test]
    fn same_name_siblings_from_different_types_are_rejected() {
        let td = TypedDocument::parse("u", "<x><y>a</y><z><y>b</y></z></x>").must();
        let e = VDataGuide::compile("x { x.y z.y }", td.guide()).unwrap_err();
        assert!(matches!(e, VdgError::DuplicateBinding(_)), "{e}");
    }

    #[test]
    fn qualified_labels_disambiguate() {
        let td = TypedDocument::parse("u", "<x><y>a</y><z><y>b</y></z></x>").must();
        let v = VDataGuide::compile("z.y", td.guide()).must();
        assert_eq!(
            td.guide().path_string(v.original_type(v.roots()[0])),
            "x.z.y"
        );
    }

    #[test]
    fn expansion_depth_over_a_deep_guide_is_limited() {
        // An identity expansion recurses to the original guide's depth; a
        // document nested past MAX_VDG_DEPTH must fail structurally, not
        // blow the stack.
        let n = MAX_VDG_DEPTH + 8;
        let mut xml = String::new();
        for i in 0..n {
            xml.push_str(&format!("<e{i}>"));
        }
        for i in (0..n).rev() {
            xml.push_str(&format!("</e{i}>"));
        }
        let td = TypedDocument::parse("u", &xml).must();
        let e = VDataGuide::compile("e0", td.guide()).unwrap_err();
        assert!(matches!(e, VdgError::DepthExceeded { .. }), "{e}");
    }

    #[test]
    fn inversion_specification_expands() {
        // §5.2 case 2: invert name and author: title { name { author } }.
        let g = original();
        let v = VDataGuide::compile("title { name { author } }", &g).must();
        let title = v.roots()[0];
        let name = v.children(title)[0];
        let author = v.children(name)[0];
        assert_eq!(v.guide().name(name), "name");
        assert_eq!(v.guide().name(author), "author");
        assert_eq!(v.level(author), 3);
        assert_eq!(g.path_string(v.original_type(author)), "data.book.author");
    }

    /// Recompute oracle for a cached expansion that survives an edit on an
    /// `unaffected_by` verdict: what the cache would rebuild from scratch
    /// against the grown guide.
    fn recompile_expansion_oracle(spec: &str, original: &DataGuide) -> VDataGuide {
        VDataGuide::compile(spec, original).must()
    }

    /// Structural equality of two expansions over (possibly different)
    /// original guides, compared through the public accessors.
    fn assert_same_expansion(a: &VDataGuide, b: &VDataGuide, ga: &DataGuide, gb: &DataGuide) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.roots(), b.roots());
        for i in 0..a.len() {
            let vt = TypeId::from_index(i);
            assert_eq!(a.guide().name(vt), b.guide().name(vt));
            assert_eq!(a.children(vt), b.children(vt));
            assert_eq!(a.is_identity_below(vt), b.is_identity_below(vt));
            assert_eq!(
                ga.path_string(a.original_type(vt)),
                gb.path_string(b.original_type(vt))
            );
        }
    }

    #[test]
    fn unaffected_verdicts_are_sound_against_the_recompile_oracle() {
        let spec = "title { author { name } }";
        let g0 = original();
        let v = VDataGuide::compile(spec, &g0).must();

        // A new type under an invisible parent whose name matches no
        // label: the expansion must survive, and the recompile agrees.
        let mut g = g0.clone();
        let publisher = g.lookup_path(&["data", "book", "publisher"]).must();
        g.intern_child(publisher, "note");
        assert!(v.unaffected_by(g0.len(), &g));
        assert_same_expansion(&v, &recompile_expansion_oracle(spec, &g), &g0, &g);

        // A new type under a *visible* parent must force a recompute
        // (conservative: the implicit rules could pull it in).
        let mut g = g0.clone();
        let title = g.lookup_path(&["data", "book", "title"]).must();
        g.intern_child(title, "subtitle");
        assert!(!v.unaffected_by(g0.len(), &g));

        // A new type whose name is a label tail must force a recompute:
        // here the recompile even errors (ambiguous label), which the
        // cache must surface rather than mask with a stale entry.
        let mut g = g0.clone();
        let publisher = g.lookup_path(&["data", "book", "publisher"]).must();
        g.intern_child(publisher, "name");
        assert!(!v.unaffected_by(g0.len(), &g));
        assert!(matches!(
            VDataGuide::compile(spec, &g),
            Err(VdgError::AmbiguousLabel { .. })
        ));

        // No new types: trivially unaffected.
        assert!(v.unaffected_by(g0.len(), &g0));
    }
}
