//! BGP AS-level paths.

use crate::Asn;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// A BGP AS path: the sequence of ASes a route announcement has traversed,
/// most-recent (nearest) AS first, origin AS last — the order AS_PATH
/// attributes are written on the wire and in looking glasses.
///
/// The paper's metrics care about two views of a path: the *sequence*
/// (for detecting path changes) and the *set of distinct ASes crossed*
/// (for surveillance exposure). Both are provided here.
///
/// ```
/// use quicksand_net::{AsPath, Asn};
/// let p = AsPath::from_asns([Asn(3), Asn(2), Asn(1)]);
/// assert_eq!(p.origin(), Some(Asn(1)));
/// assert_eq!(p.first_hop(), Some(Asn(3)));
/// assert_eq!(p.len(), 3);
/// assert!(!p.has_loop());
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default)]
#[serde(transparent)]
pub struct AsPath(Vec<Asn>);

impl AsPath {
    /// The empty path (a route originated locally, not yet prepended).
    pub fn empty() -> Self {
        AsPath(Vec::new())
    }

    /// Build a path from nearest-first ASNs.
    pub fn from_asns(asns: impl IntoIterator<Item = Asn>) -> Self {
        AsPath(asns.into_iter().collect())
    }

    /// Originate a path at `origin`: the one-element path `[origin]`.
    pub fn originate(origin: Asn) -> Self {
        AsPath(vec![origin])
    }

    /// A copy of this path with `asn` prepended (as done when an AS
    /// propagates the route to a neighbor).
    pub fn prepended(&self, asn: Asn) -> Self {
        let mut v = Vec::with_capacity(self.0.len() + 1);
        v.push(asn);
        v.extend_from_slice(&self.0);
        AsPath(v)
    }

    /// Number of AS hops (counting duplicates from prepending).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the path has no hops.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The origin AS (last element), if any.
    pub fn origin(&self) -> Option<Asn> {
        self.0.last().copied()
    }

    /// The nearest AS (first element), if any.
    pub fn first_hop(&self) -> Option<Asn> {
        self.0.first().copied()
    }

    /// The hops, nearest first.
    pub fn asns(&self) -> &[Asn] {
        &self.0
    }

    /// Does the path contain `asn` anywhere? This is BGP's loop check:
    /// a router discards announcements that already carry its own ASN.
    pub fn contains(&self, asn: Asn) -> bool {
        self.0.contains(&asn)
    }

    /// Does the path visit any AS twice? (Never true for paths produced
    /// by a correct decision process without prepending; we do not model
    /// intentional prepending.)
    pub fn has_loop(&self) -> bool {
        let mut seen = BTreeSet::new();
        self.0.iter().any(|a| !seen.insert(*a))
    }

    /// The set of distinct ASes crossed. This is the quantity the paper's
    /// path-change definition uses: "a change in the *set* of ASes crossed
    /// to reach a BGP prefix".
    pub fn as_set(&self) -> BTreeSet<Asn> {
        self.0.iter().copied().collect()
    }

    /// Do two paths cross the same set of ASes? Two paths that differ
    /// only in ordering or prepending count as "no path change" under the
    /// paper's definition.
    ///
    /// Allocation-free for every realistic path: two-way membership by
    /// linear scans, which for a few dozen hops beats building sets.
    /// Only pathologically long pairs (a decoded path may carry up to
    /// 65535 hops) fall back to comparing [`AsPath::as_set`]s, keeping
    /// the cost near-linear.
    pub fn same_as_set(&self, other: &AsPath) -> bool {
        const MAX_SCAN_WORK: usize = 4096;
        let (a, b) = (self.asns(), other.asns());
        if a.len().saturating_mul(b.len()) > MAX_SCAN_WORK {
            return self.as_set() == other.as_set();
        }
        a.iter().all(|x| b.contains(x)) && b.iter().all(|x| a.contains(x))
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for a in &self.0 {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{}", a.0)?;
            first = false;
        }
        Ok(())
    }
}

impl fmt::Debug for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{self}]")
    }
}

impl FromIterator<Asn> for AsPath {
    fn from_iter<T: IntoIterator<Item = Asn>>(iter: T) -> Self {
        AsPath(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(v: &[u32]) -> AsPath {
        v.iter().map(|&a| Asn(a)).collect()
    }

    #[test]
    fn originate_then_prepend() {
        let p = AsPath::originate(Asn(100));
        let q = p.prepended(Asn(200)).prepended(Asn(300));
        assert_eq!(q, path(&[300, 200, 100]));
        assert_eq!(q.origin(), Some(Asn(100)));
        assert_eq!(q.first_hop(), Some(Asn(300)));
    }

    #[test]
    fn empty_path_accessors() {
        let p = AsPath::empty();
        assert!(p.is_empty());
        assert_eq!(p.origin(), None);
        assert_eq!(p.first_hop(), None);
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn loop_detection() {
        assert!(!path(&[1, 2, 3]).has_loop());
        assert!(path(&[1, 2, 1]).has_loop());
        assert!(path(&[7, 7]).has_loop());
    }

    #[test]
    fn contains_is_membership() {
        let p = path(&[10, 20, 30]);
        assert!(p.contains(Asn(20)));
        assert!(!p.contains(Asn(40)));
    }

    #[test]
    fn as_set_ignores_order_and_duplicates() {
        assert!(path(&[1, 2, 3]).same_as_set(&path(&[3, 2, 1])));
        assert!(path(&[1, 2, 2, 3]).same_as_set(&path(&[1, 2, 3])));
        assert!(!path(&[1, 2]).same_as_set(&path(&[1, 2, 3])));
        // Empty vs empty: two withdrawals cross the same (empty) set.
        assert!(AsPath::empty().same_as_set(&AsPath::empty()));
        // An empty path never matches a non-empty one, in either order.
        assert!(!AsPath::empty().same_as_set(&path(&[1])));
        assert!(!path(&[1]).same_as_set(&AsPath::empty()));
        // Prepending on both sides, in different amounts.
        assert!(path(&[1, 1, 1, 2, 3]).same_as_set(&path(&[1, 2, 2, 3, 3])));
        assert!(!path(&[1, 1, 2]).same_as_set(&path(&[1, 2, 2, 4])));
        // Paths long enough to take the set-comparison fallback agree
        // with the scan.
        let long: Vec<u32> = (0..100).chain(0..100).collect();
        let rev: Vec<u32> = (0..100).rev().collect();
        assert!(path(&long).same_as_set(&path(&rev)));
        assert!(!path(&long).same_as_set(&path(&rev[1..])));
    }

    #[test]
    fn display_is_space_separated() {
        assert_eq!(path(&[3356, 24940]).to_string(), "3356 24940");
        assert_eq!(AsPath::empty().to_string(), "");
    }
}
