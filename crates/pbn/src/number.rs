//! The [`Pbn`] number type: a sequence of 1-based sibling ordinals,
//! optionally extended with minted *gap fractions* (see [`crate::mint`]).

use std::fmt;
use std::str::FromStr;

/// One component of a PBN number.
///
/// A *plain* component is a 1-based sibling ordinal, exactly as in §4.2 of
/// the paper. A *minted* component additionally carries a non-empty
/// `frac` byte string allocated by [`crate::mint::KeyGen`] so that a new
/// sibling can be placed **between** two existing ordinals without
/// renumbering either: `{ord: j, frac: F}` sorts after the entire subtree
/// of plain `j` and before plain `j + 1`, and `{ord: 0, frac: F}` sorts
/// before plain `1` (a front insertion; `ord` 0 never appears without a
/// fraction).
///
/// `Ord` is `(ord, frac)` lexicographic, empty fraction first — exactly
/// the order of the byte encoding in [`crate::encode`]. The comparisons
/// are written by hand (not derived) so the plain/plain case — virtually
/// every comparison on an undisturbed document, and the innermost loop of
/// the §5 axis predicates — stays a branch on two integers instead of a
/// `memcmp` call against two empty fractions.
///
/// Fraction bytes are drawn from `0x01..=0xFF` (never `0x00`, which the
/// encoding uses as the fraction terminator) and by minting convention end
/// with a byte `>= 0x02` so there is always room to mint below them.
#[derive(Clone, Eq)]
pub struct Comp {
    ord: u32,
    // Box<[u8]>, not Vec<u8>: one word smaller, and number comparison is
    // the innermost loop of every axis predicate. Empty boxes (plain
    // components — virtually all of them) never allocate.
    frac: Box<[u8]>,
}

impl std::hash::Hash for Comp {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.ord.hash(state);
        self.frac.hash(state);
    }
}

impl PartialEq for Comp {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.ord == other.ord
            && self.frac.len() == other.frac.len()
            && (self.frac.is_empty() || self.frac == other.frac)
    }
}

impl PartialOrd for Comp {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Comp {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        match self.ord.cmp(&other.ord) {
            std::cmp::Ordering::Equal => {
                // Keep the empty-frac fast path: dense documents never pay
                // for the fraction compare. Minted keys fall through to the
                // word-parallel byte compare.
                if self.frac.is_empty() && other.frac.is_empty() {
                    std::cmp::Ordering::Equal
                } else {
                    crate::keys::cmp(&self.frac, &other.frac)
                }
            }
            unequal => unequal,
        }
    }
}

impl Comp {
    /// A plain 1-based ordinal component.
    ///
    /// # Panics
    /// Panics if `ord` is zero (ordinals are 1-based; `ord` 0 exists only
    /// on minted front-gap components).
    pub fn new(ord: u32) -> Self {
        assert!(ord > 0, "PBN components are 1-based, got 0");
        Comp {
            ord,
            frac: Box::default(),
        }
    }

    /// A minted gap component: sorts after the subtree of plain `ord` and
    /// before plain `ord + 1` (for `ord` 0: before plain `1`).
    ///
    /// # Panics
    /// Panics if `frac` is empty or contains a `0x00` byte — minted
    /// components always carry a well-formed fraction. Trusted internal
    /// call sites only ([`crate::mint`], the codec).
    pub fn minted(ord: u32, frac: Vec<u8>) -> Self {
        assert!(
            !frac.is_empty() && !frac.contains(&0),
            "minted components need a non-empty, zero-free fraction"
        );
        Comp {
            ord,
            frac: frac.into_boxed_slice(),
        }
    }

    /// The ordinal part. For a minted component this names the gap the
    /// component lives in, not a sibling position.
    #[inline]
    pub fn ord(&self) -> u32 {
        self.ord
    }

    /// The minted fraction — empty for plain components.
    #[inline]
    pub fn frac(&self) -> &[u8] {
        &self.frac
    }

    /// True for a plain (fraction-free) ordinal component.
    #[inline]
    pub fn is_plain(&self) -> bool {
        self.frac.is_empty()
    }

    /// The next component in the classic dense numbering: `j` → `j + 1`
    /// for plain components; for minted components the fraction is
    /// extended with a `0x00` sentinel (a **bound**, not a mintable
    /// component), which sorts after the fraction itself and before every
    /// longer minted sibling.
    fn successor(&self) -> Comp {
        if self.frac.is_empty() {
            Comp {
                ord: self.ord.saturating_add(1),
                frac: Box::default(),
            }
        } else {
            self.bound()
        }
    }

    /// The *tight* exclusive upper bound of this component's subtree: the
    /// fraction (empty for plain components) extended with a `0x00`
    /// sentinel. `{j, frac·0x00}` sorts after every descendant of
    /// `{j, frac}` and before every minted sibling in its gap — unlike
    /// `j + 1`, which would swallow the gap. A **bound**, never a valid
    /// mintable component.
    fn bound(&self) -> Comp {
        let mut frac = self.frac.to_vec();
        frac.push(0);
        Comp {
            ord: self.ord,
            frac: frac.into_boxed_slice(),
        }
    }
}

impl From<u32> for Comp {
    fn from(ord: u32) -> Self {
        Comp::new(ord)
    }
}

impl fmt::Display for Comp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.ord)?;
        if !self.frac.is_empty() {
            f.write_str("~")?;
            for b in &self.frac {
                write!(f, "{b:02x}")?;
            }
        }
        Ok(())
    }
}

impl fmt::Debug for Comp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// A prefix-based number such as `1.2.2`.
///
/// The root of a document is `1`; the k-th child of a node numbered `p`
/// is `p.k`. Components are 1-based and never zero; nodes inserted after
/// the initial numbering may carry minted components (see [`Comp`]) whose
/// dotted form looks like `1.2~80.1`.
///
/// `Ord` is **document order**: a lexicographic comparison of components in
/// which a proper prefix (an ancestor) sorts before its extensions — the
/// order in which a preorder traversal visits nodes.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pbn {
    components: Vec<Comp>,
}

impl Pbn {
    /// The root number `1`.
    pub fn root() -> Self {
        Pbn {
            components: vec![Comp::new(1)],
        }
    }

    /// Builds a number from plain ordinal components.
    ///
    /// # Panics
    /// Panics if any component is zero (ordinals are 1-based). Trusted
    /// internal call sites only; untrusted input goes through
    /// [`Pbn::try_new`] or [`str::parse`].
    pub fn new(components: impl Into<Vec<u32>>) -> Self {
        let raw = components.into();
        assert!(
            raw.iter().all(|&c| c > 0),
            "PBN components are 1-based, got {raw:?}"
        );
        Pbn {
            components: raw.into_iter().map(Comp::new).collect(),
        }
    }

    /// Builds a number from plain components, rejecting zero ordinals
    /// instead of panicking — the constructor for externally supplied
    /// values.
    pub fn try_new(components: impl Into<Vec<u32>>) -> Result<Self, PbnParseError> {
        let raw = components.into();
        if let Some(zero_at) = raw.iter().position(|&c| c == 0) {
            return Err(PbnParseError(format!(
                "component {zero_at} is zero in {raw:?} (ordinals are 1-based)"
            )));
        }
        Ok(Pbn {
            components: raw.into_iter().map(Comp::new).collect(),
        })
    }

    /// Builds a number directly from components (plain or minted).
    pub fn from_comps(components: Vec<Comp>) -> Self {
        Pbn { components }
    }

    /// The empty number (no components). Used only as the numbering-space
    /// origin (e.g. the parent of every tree root in a forest).
    pub fn empty() -> Self {
        Pbn {
            components: Vec::new(),
        }
    }

    /// The components of this number.
    #[inline]
    pub fn components(&self) -> &[Comp] {
        &self.components
    }

    /// Number of components (the node's depth; the root has length 1).
    #[inline]
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// True for the empty number.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Heap bytes this number owns: its component vector plus any minted
    /// fractions (space accounting).
    pub fn heap_bytes(&self) -> usize {
        self.components.capacity() * std::mem::size_of::<Comp>()
            + self.components.iter().map(|c| c.frac.len()).sum::<usize>()
    }

    /// The number of this node's `k`-th child.
    pub fn child(&self, k: u32) -> Pbn {
        assert!(k > 0, "sibling ordinals are 1-based");
        self.child_comp(Comp::new(k))
    }

    /// The number formed by appending `comp` as a child component.
    pub fn child_comp(&self, comp: Comp) -> Pbn {
        let mut components = Vec::with_capacity(self.components.len() + 1);
        components.extend_from_slice(&self.components);
        components.push(comp);
        Pbn { components }
    }

    /// The parent's number, or `None` for a root (length ≤ 1).
    pub fn parent(&self) -> Option<Pbn> {
        if self.components.len() <= 1 {
            return None;
        }
        Some(Pbn {
            components: self.components[..self.components.len() - 1].to_vec(),
        })
    }

    /// The final component's ordinal part. For minted components this is
    /// the gap ordinal, not a sibling position (sibling positions are
    /// computed dynamically under vPBN anyway, §5.1).
    pub fn ordinal(&self) -> Option<u32> {
        self.components.last().map(Comp::ord)
    }

    /// The final component.
    pub fn last_comp(&self) -> Option<&Comp> {
        self.components.last()
    }

    /// True if `self` is a (non-strict) prefix of `other`.
    #[inline]
    pub fn is_prefix_of(&self, other: &Pbn) -> bool {
        other.components.len() >= self.components.len()
            && other.components[..self.components.len()] == self.components[..]
    }

    /// True if `self` is a strict prefix of `other` (i.e. a proper
    /// ancestor's number).
    #[inline]
    pub fn is_strict_prefix_of(&self, other: &Pbn) -> bool {
        other.components.len() > self.components.len()
            && other.components[..self.components.len()] == self.components[..]
    }

    /// Length of the longest common prefix with `other` — the depth of the
    /// two nodes' lowest common ancestor.
    pub fn common_prefix_len(&self, other: &Pbn) -> usize {
        self.components
            .iter()
            .zip(&other.components)
            .take_while(|(a, b)| a == b)
            .count()
    }

    /// The number of the lowest common ancestor of `self` and `other`
    /// (empty if the two numbers share no prefix, which cannot happen for
    /// two nodes of the same single-rooted document).
    pub fn lca(&self, other: &Pbn) -> Pbn {
        Pbn {
            components: self.components[..self.common_prefix_len(other)].to_vec(),
        }
    }

    /// Truncates to the first `len` components.
    ///
    /// # Panics
    /// Panics if `len` exceeds the number's length.
    pub fn prefix(&self, len: usize) -> Pbn {
        Pbn {
            components: self.components[..len].to_vec(),
        }
    }

    /// The immediate successor of this number among its siblings (`p.k` →
    /// `p.(k+1)`; minted components get a sentinel-extended fraction).
    /// Useful for building exclusive scan bounds: the subtree of `x` is
    /// exactly the document-order interval `[x, x.sibling_successor())`.
    ///
    /// # Panics
    /// Panics on the empty number, which has no siblings.
    pub fn sibling_successor(&self) -> Pbn {
        let mut components = self.components.clone();
        #[expect(
            clippy::expect_used,
            reason = "documented panic: the empty number has no siblings"
        )]
        let last = components
            .last_mut()
            .expect("sibling_successor of the empty number");
        *last = last.successor();
        Pbn { components }
    }

    /// The tight exclusive upper bound of this node's subtree in document
    /// order: every descendant-or-self `d` satisfies `self <= d <
    /// self.subtree_bound()`, and nothing else does — **including** minted
    /// gap siblings, which `sibling_successor` (the classic `p.(k+1)`
    /// bound) would wrongly cover. Scan bounds must use this form.
    ///
    /// # Panics
    /// Panics on the empty number (its subtree is the whole space).
    pub fn subtree_bound(&self) -> Pbn {
        let mut components = self.components.clone();
        #[expect(
            clippy::expect_used,
            reason = "documented panic: the empty number bounds nothing"
        )]
        let last = components
            .last_mut()
            .expect("subtree_bound of the empty number");
        *last = last.bound();
        Pbn { components }
    }
}

impl fmt::Display for Pbn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.components.iter().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

// Debug delegates to Display: numbers read better as `1.2.2` than as a
// struct dump in test failures.
impl fmt::Debug for Pbn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// Error returned when parsing a PBN string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PbnParseError(pub String);

impl fmt::Display for PbnParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid PBN number: {}", self.0)
    }
}

impl std::error::Error for PbnParseError {}

impl FromStr for Pbn {
    type Err = PbnParseError;

    /// Parses the dotted form, e.g. `"1.2.2"`. Minted components use the
    /// display form `ord~hexfrac`, e.g. `"1.2~80.1"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Ok(Pbn::empty());
        }
        let mut components = Vec::new();
        for part in s.split('.') {
            components.push(parse_comp(part).ok_or_else(|| PbnParseError(s.to_owned()))?);
        }
        Ok(Pbn { components })
    }
}

/// Parses one dotted-form component: `"12"` or `"12~80ff"`.
fn parse_comp(part: &str) -> Option<Comp> {
    match part.split_once('~') {
        None => {
            let v: u32 = part.parse().ok()?;
            if v == 0 {
                return None;
            }
            Some(Comp::new(v))
        }
        Some((ord, hex)) => {
            let ord: u32 = ord.parse().ok()?;
            if hex.is_empty() || hex.len() % 2 != 0 {
                return None;
            }
            let mut frac = Vec::with_capacity(hex.len() / 2);
            for i in (0..hex.len()).step_by(2) {
                let b = u8::from_str_radix(&hex[i..i + 2], 16).ok()?;
                if b == 0 {
                    return None; // fractions never contain the terminator byte
                }
                frac.push(b);
            }
            Some(Comp::minted(ord, frac))
        }
    }
}

/// Convenience macro for writing PBN literals in tests: `pbn![1, 2, 2]`.
#[macro_export]
macro_rules! pbn {
    ($($c:expr),* $(,)?) => {
        $crate::Pbn::new(vec![$($c as u32),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_display() {
        assert_eq!(Pbn::root().to_string(), "1");
        assert_eq!(pbn![1, 2, 2].to_string(), "1.2.2");
        assert_eq!(Pbn::empty().to_string(), "");
    }

    #[test]
    fn parse_round_trips() {
        let p: Pbn = "1.2.10".parse().unwrap();
        assert_eq!(p, pbn![1, 2, 10]);
        assert_eq!(p.to_string().parse::<Pbn>().unwrap(), p);
        assert_eq!("".parse::<Pbn>().unwrap(), Pbn::empty());
        assert!("1.0".parse::<Pbn>().is_err());
        assert!("1..2".parse::<Pbn>().is_err());
        assert!("a.b".parse::<Pbn>().is_err());
    }

    #[test]
    fn minted_components_display_and_parse() {
        let m = Pbn::root().child_comp(Comp::minted(2, vec![0x80]));
        assert_eq!(m.to_string(), "1.2~80");
        assert_eq!(m.to_string().parse::<Pbn>().unwrap(), m);
        let front = Pbn::root().child_comp(Comp::minted(0, vec![0x80, 0x02]));
        assert_eq!(front.to_string(), "1.0~8002");
        assert_eq!(front.to_string().parse::<Pbn>().unwrap(), front);
        // Malformed fraction forms are rejected.
        assert!("1.2~".parse::<Pbn>().is_err());
        assert!("1.2~8".parse::<Pbn>().is_err());
        assert!("1.2~00".parse::<Pbn>().is_err());
    }

    #[test]
    fn minted_components_sit_between_their_neighbours() {
        // {j, F} sorts after the whole subtree of j and before j + 1;
        // {0, F} sorts before 1.
        let plain2 = pbn![1, 2];
        let deep2 = pbn![1, 2, 9, 9];
        let after2 = Pbn::root().child_comp(Comp::minted(2, vec![0x80]));
        let plain3 = pbn![1, 3];
        assert!(plain2 < after2 && deep2 < after2 && after2 < plain3);
        let front = Pbn::root().child_comp(Comp::minted(0, vec![0x80]));
        assert!(pbn![1] < front && front < pbn![1, 1]);
        // A minted node's own descendants stay inside its subtree bound.
        let child_of_minted = after2.child(1);
        assert!(after2 < child_of_minted && child_of_minted < after2.sibling_successor());
        assert!(after2.is_strict_prefix_of(&child_of_minted));
    }

    #[test]
    fn child_and_parent_are_inverse() {
        let p = pbn![1, 2];
        assert_eq!(p.child(3), pbn![1, 2, 3]);
        assert_eq!(p.child(3).parent(), Some(p.clone()));
        assert_eq!(Pbn::root().parent(), None);
        assert_eq!(p.ordinal(), Some(2));
    }

    #[test]
    fn prefix_tests_follow_the_paper_example() {
        // §4.2: 1.1.2 vs 1.2 — neither a prefix of the other.
        let a = pbn![1, 1, 2];
        let b = pbn![1, 2];
        assert!(!a.is_prefix_of(&b));
        assert!(!b.is_prefix_of(&a));
        // 1.1 is the parent of 1.1.2.
        assert!(pbn![1, 1].is_strict_prefix_of(&a));
        assert!(a.is_prefix_of(&a));
        assert!(!a.is_strict_prefix_of(&a));
    }

    #[test]
    fn lca_and_common_prefix() {
        let a = pbn![1, 1, 2, 1];
        let b = pbn![1, 1, 3];
        assert_eq!(a.common_prefix_len(&b), 2);
        assert_eq!(a.lca(&b), pbn![1, 1]);
        assert_eq!(a.lca(&a), a);
        assert_eq!(a.prefix(2), pbn![1, 1]);
    }

    #[test]
    fn document_order_is_preorder() {
        // Ancestor before descendant, siblings by ordinal.
        assert!(pbn![1] < pbn![1, 1]);
        assert!(pbn![1, 1] < pbn![1, 1, 1]);
        assert!(pbn![1, 1, 9] < pbn![1, 2]);
        assert!(pbn![1, 2] < pbn![1, 10]); // numeric, not string, comparison
    }

    #[test]
    fn sibling_successor_bounds_the_subtree() {
        let x = pbn![1, 2];
        let succ = x.sibling_successor();
        assert_eq!(succ, pbn![1, 3]);
        // Every descendant of x lies in [x, succ).
        assert!(x < pbn![1, 2, 7] && pbn![1, 2, 7] < succ);
        assert!(pbn![1, 2, 999, 4] < succ);
        assert!(succ <= pbn![1, 3]);
    }

    #[test]
    fn sibling_successor_bounds_minted_subtrees() {
        let x = Pbn::root().child_comp(Comp::minted(2, vec![0x80]));
        let succ = x.sibling_successor();
        // Descendants are inside the bound …
        assert!(x < x.child(1) && x.child(1) < succ);
        assert!(x.child(7).child(3) < succ);
        // … while a longer minted sibling (fraction 0x80 0x02 > 0x80) is not.
        let later = Pbn::root().child_comp(Comp::minted(2, vec![0x80, 0x02]));
        assert!(x < later && succ <= later);
        assert!(later < pbn![1, 3]);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_component_rejected() {
        let _ = Pbn::new(vec![1, 0]);
    }

    #[test]
    fn try_new_reports_zero_components_instead_of_panicking() {
        assert_eq!(Pbn::try_new(vec![1, 2, 2]).unwrap(), pbn![1, 2, 2]);
        assert_eq!(Pbn::try_new(Vec::new()).unwrap(), Pbn::empty());
        let err = Pbn::try_new(vec![1, 0, 3]).unwrap_err();
        assert!(err.to_string().contains("1-based"), "{err}");
    }
}
