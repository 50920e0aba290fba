//! Document-order utilities.
//!
//! [`Pbn`]'s derived `Ord` already *is* document order (component-wise
//! lexicographic, prefix-first). This module adds the range construction
//! used by index scans: the subtree of `x` is exactly the
//! half-open document-order interval `[x, x.subtree_bound())` — the tight
//! bound that, unlike `x.sibling_successor()`, excludes siblings minted
//! into `x`'s gap (see [`crate::mint`]).

use crate::number::Pbn;

/// The half-open PBN interval covering the subtree rooted at `x`
/// (descendant-or-self). Every number `d` with `x.is_prefix_of(d)` satisfies
/// `range.0 <= d && d < range.1`, and no other number does.
pub fn subtree_range(x: &Pbn) -> (Pbn, Pbn) {
    (x.clone(), x.subtree_bound())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pbn;

    #[test]
    fn subtree_range_contains_exactly_the_subtree() {
        let x = pbn![1, 2];
        let (lo, hi) = subtree_range(&x);
        let inside = [pbn![1, 2], pbn![1, 2, 1], pbn![1, 2, 9, 9]];
        let outside = [pbn![1], pbn![1, 1, 9], pbn![1, 3], pbn![1, 10]];
        for p in &inside {
            assert!(lo <= *p && *p < hi, "{p} should be inside");
            assert!(x.is_prefix_of(p));
        }
        for p in &outside {
            assert!(!(lo <= *p && *p < hi), "{p} should be outside");
            assert!(!x.is_prefix_of(p));
        }
    }

    #[test]
    fn sort_is_preorder() {
        let mut v = vec![pbn![1, 10], pbn![1, 2, 5], pbn![1], pbn![1, 2]];
        v.sort();
        assert_eq!(v, vec![pbn![1], pbn![1, 2], pbn![1, 2, 5], pbn![1, 10]]);
    }
}
