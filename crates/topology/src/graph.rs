//! The AS-level graph with business relationships.

use quicksand_net::Asn;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// The business relationship an AS has with a neighbor, from the local
/// AS's point of view.
///
/// Interdomain routing policy (Gao–Rexford) is driven entirely by this
/// annotation: routes learned from customers are preferred over routes
/// from peers, which beat routes from providers; and a route learned from
/// a peer or provider is only re-exported to customers (the "valley-free"
/// export rule).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Relationship {
    /// The neighbor pays us for transit: it is our customer.
    Customer,
    /// Settlement-free peering: we exchange our own/customer routes only.
    Peer,
    /// We pay the neighbor for transit: it is our provider.
    Provider,
}

impl Relationship {
    /// The same link as seen from the other endpoint.
    pub fn reversed(self) -> Relationship {
        match self {
            Relationship::Customer => Relationship::Provider,
            Relationship::Peer => Relationship::Peer,
            Relationship::Provider => Relationship::Customer,
        }
    }
}

/// Coarse role of an AS in the hierarchy, assigned by the generator and
/// useful for experiment stratification (e.g. "hijack launched from a
/// stub vs. from a tier-2").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Tier {
    /// Provider-free core AS (member of the tier-1 clique).
    Tier1,
    /// Transit AS with both providers and customers.
    Tier2,
    /// Edge AS with providers only (enterprise, access, hosting).
    Stub,
}

/// Errors when constructing or mutating an [`AsGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsGraphError {
    /// The AS was already present.
    DuplicateAs(Asn),
    /// The AS is not in the graph.
    UnknownAs(Asn),
    /// A link from an AS to itself was requested.
    SelfLink(Asn),
    /// The link already exists (possibly with another relationship).
    DuplicateLink(Asn, Asn),
    /// The link does not exist.
    UnknownLink(Asn, Asn),
}

impl fmt::Display for AsGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsGraphError::DuplicateAs(a) => write!(f, "{a} already exists"),
            AsGraphError::UnknownAs(a) => write!(f, "{a} is not in the graph"),
            AsGraphError::SelfLink(a) => write!(f, "{a} cannot link to itself"),
            AsGraphError::DuplicateLink(a, b) => write!(f, "link {a}–{b} already exists"),
            AsGraphError::UnknownLink(a, b) => write!(f, "link {a}–{b} does not exist"),
        }
    }
}

impl std::error::Error for AsGraphError {}

/// One node's slice of the shared CSR edge arena: `len` live edges at
/// `start`, followed by `cap - len` slack cells. Removing an edge only
/// shrinks `len` (the slack is kept), so the churn workload's
/// remove-then-restore link cycles shuffle cells in place instead of
/// reallocating; only an insert beyond `cap` relocates the node's slice
/// to the end of the arena.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
struct Span {
    start: usize,
    len: usize,
    cap: usize,
}

/// An undirected AS-level graph whose edges carry business relationships.
///
/// ASes are stored densely; [`AsGraph::index_of`] maps an [`Asn`] to its
/// internal index and most algorithms work on indices for speed. All
/// adjacency lists are kept sorted by neighbor ASN so iteration order —
/// and therefore every downstream simulation — is deterministic.
///
/// Adjacency is CSR-style: one shared `edges` arena addressed by
/// per-node `Span`s, so walking a neighbor list is a single contiguous
/// slice scan with no per-node `Vec` indirection (DESIGN.md §11).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct AsGraph {
    asns: Vec<Asn>,
    tiers: Vec<Tier>,
    index: BTreeMap<Asn, usize>,
    /// CSR edge arena: for node i, `spans[i]` addresses a sorted list of
    /// (neighbor index, relationship of the *neighbor* relative to i —
    /// i.e. `Customer` means "the neighbor is my customer").
    edges: Vec<(usize, Relationship)>,
    spans: Vec<Span>,
    link_count: usize,
}

impl AsGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of ASes.
    pub fn len(&self) -> usize {
        self.asns.len()
    }

    /// True when the graph has no ASes.
    pub fn is_empty(&self) -> bool {
        self.asns.is_empty()
    }

    /// Number of (undirected) inter-AS links.
    pub fn link_count(&self) -> usize {
        self.link_count
    }

    /// Add an AS with the given tier.
    pub fn add_as(&mut self, asn: Asn, tier: Tier) -> Result<(), AsGraphError> {
        if self.index.contains_key(&asn) {
            return Err(AsGraphError::DuplicateAs(asn));
        }
        self.index.insert(asn, self.asns.len());
        self.asns.push(asn);
        self.tiers.push(tier);
        self.spans.push(Span::default());
        Ok(())
    }

    /// Add a link where `customer` buys transit from `provider`.
    pub fn add_customer_provider(
        &mut self,
        customer: Asn,
        provider: Asn,
    ) -> Result<(), AsGraphError> {
        self.add_link(provider, customer, Relationship::Customer)
    }

    /// Add a settlement-free peering link between `a` and `b`.
    pub fn add_peering(&mut self, a: Asn, b: Asn) -> Result<(), AsGraphError> {
        self.add_link(a, b, Relationship::Peer)
    }

    /// Add a link; `rel` is the relationship of `b` from `a`'s point of
    /// view (`Customer` = b is a's customer).
    fn add_link(&mut self, a: Asn, b: Asn, rel: Relationship) -> Result<(), AsGraphError> {
        if a == b {
            return Err(AsGraphError::SelfLink(a));
        }
        let ia = self.index_of(a).ok_or(AsGraphError::UnknownAs(a))?;
        let ib = self.index_of(b).ok_or(AsGraphError::UnknownAs(b))?;
        if self.neighbors_idx(ia).iter().any(|&(n, _)| n == ib) {
            return Err(AsGraphError::DuplicateLink(a, b));
        }
        self.insert_sorted(ia, ib, rel);
        self.insert_sorted(ib, ia, rel.reversed());
        self.link_count += 1;
        Ok(())
    }

    /// Remove the link between `a` and `b`.
    pub fn remove_link(&mut self, a: Asn, b: Asn) -> Result<(), AsGraphError> {
        let ia = self.index_of(a).ok_or(AsGraphError::UnknownAs(a))?;
        let ib = self.index_of(b).ok_or(AsGraphError::UnknownAs(b))?;
        if !self.remove_edge(ia, ib) {
            return Err(AsGraphError::UnknownLink(a, b));
        }
        let other = self.remove_edge(ib, ia);
        debug_assert!(other, "adjacency must be symmetric");
        self.link_count -= 1;
        Ok(())
    }

    /// The relationship of `b` from `a`'s point of view, if linked.
    pub fn relationship(&self, a: Asn, b: Asn) -> Option<Relationship> {
        let ia = self.index_of(a)?;
        let ib = self.index_of(b)?;
        self.neighbors_idx(ia)
            .iter()
            .find(|&&(n, _)| n == ib)
            .map(|&(_, r)| r)
    }

    /// Insert `(neighbor, rel)` into node `at`'s sorted slice, keeping
    /// the ascending-by-ASN order that every downstream algorithm's
    /// determinism depends on. Overflowing `cap` relocates the slice to
    /// the arena end with doubled slack (the abandoned cells stay behind
    /// as garbage until [`AsGraph::compact`]).
    fn insert_sorted(&mut self, at: usize, neighbor: usize, rel: Relationship) {
        let key = self.asns[neighbor];
        let s = self.spans[at];
        let pos = self.edges[s.start..s.start + s.len]
            .partition_point(|&(n, _)| self.asns[n] < key);
        if s.len == s.cap {
            let cap = (s.cap * 2).max(4);
            let start = self.edges.len();
            for k in 0..s.len {
                let e = self.edges[s.start + k];
                self.edges.push(e);
            }
            // Slack cells: never read (len caps every scan), any value works.
            self.edges.resize(start + cap, (usize::MAX, Relationship::Peer));
            self.spans[at] = Span { start, len: s.len, cap };
        }
        let s = self.spans[at];
        for k in (pos..s.len).rev() {
            self.edges[s.start + k + 1] = self.edges[s.start + k];
        }
        self.edges[s.start + pos] = (neighbor, rel);
        self.spans[at].len += 1;
    }

    /// Remove `neighbor` from node `at`'s slice by shifting the tail
    /// left; `cap` is retained so a later re-add fits in place. Returns
    /// false when the edge is absent.
    fn remove_edge(&mut self, at: usize, neighbor: usize) -> bool {
        let s = self.spans[at];
        let slice = &self.edges[s.start..s.start + s.len];
        let Some(pos) = slice.iter().position(|&(n, _)| n == neighbor) else {
            return false;
        };
        for k in pos..s.len - 1 {
            self.edges[s.start + k] = self.edges[s.start + k + 1];
        }
        self.spans[at].len -= 1;
        true
    }

    /// Rebuild the edge arena densely (every span's `cap == len`),
    /// dropping garbage left by relocations. The generator calls this
    /// once after construction; replay-time remove/re-add cycles then
    /// stay within each node's original footprint and never grow the
    /// arena.
    pub fn compact(&mut self) {
        let mut dense = Vec::with_capacity(self.link_count * 2);
        for s in &mut self.spans {
            let start = dense.len();
            dense.extend_from_slice(&self.edges[s.start..s.start + s.len]);
            *s = Span { start, len: s.len, cap: s.len };
        }
        self.edges = dense;
    }

    /// The internal dense index of `asn`.
    pub fn index_of(&self, asn: Asn) -> Option<usize> {
        self.index.get(&asn).copied()
    }

    /// The ASN at internal index `i`.
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn asn_of(&self, i: usize) -> Asn {
        self.asns[i]
    }

    /// All ASNs, ascending.
    pub fn asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.index.keys().copied()
    }

    /// The tier of `asn`.
    pub fn tier(&self, asn: Asn) -> Option<Tier> {
        self.index_of(asn).map(|i| self.tiers[i])
    }

    /// Sorted adjacency of node index `i`: `(neighbor index, relationship
    /// of neighbor w.r.t. i)`.
    pub fn neighbors_idx(&self, i: usize) -> &[(usize, Relationship)] {
        let s = self.spans[i];
        &self.edges[s.start..s.start + s.len]
    }

    /// Neighbors of `asn` with the given relationship (from `asn`'s point
    /// of view), ascending by ASN.
    pub fn neighbors_with(
        &self,
        asn: Asn,
        rel: Relationship,
    ) -> impl Iterator<Item = Asn> + '_ {
        let i = self.index_of(asn);
        i.into_iter().flat_map(move |i| {
            self.neighbors_idx(i)
                .iter()
                .filter(move |&&(_, r)| r == rel)
                .map(|&(n, _)| self.asns[n])
        })
    }

    /// Providers of `asn`, ascending. Lazy: no allocation.
    pub fn providers(&self, asn: Asn) -> impl Iterator<Item = Asn> + '_ {
        self.neighbors_with(asn, Relationship::Provider)
    }

    /// Customers of `asn`, ascending. Lazy: no allocation.
    pub fn customers(&self, asn: Asn) -> impl Iterator<Item = Asn> + '_ {
        self.neighbors_with(asn, Relationship::Customer)
    }

    /// Peers of `asn`, ascending. Lazy: no allocation.
    pub fn peers(&self, asn: Asn) -> impl Iterator<Item = Asn> + '_ {
        self.neighbors_with(asn, Relationship::Peer)
    }

    /// Total degree of `asn`.
    pub fn degree(&self, asn: Asn) -> usize {
        self.index_of(asn).map_or(0, |i| self.spans[i].len)
    }

    /// Is the sequence of ASes `path` valley-free under this graph's
    /// relationships? A valid path is a (possibly empty) uphill segment
    /// of customer→provider hops, at most one peer hop, then a (possibly
    /// empty) downhill segment of provider→customer hops.
    ///
    /// Returns `None` if any consecutive pair is not linked.
    pub fn is_valley_free(&self, path: &[Asn]) -> Option<bool> {
        // State machine over hop kinds, walking in traffic direction.
        #[derive(PartialEq, PartialOrd)]
        enum Phase {
            Up,
            Peered,
            Down,
        }
        let mut phase = Phase::Up;
        for w in path.windows(2) {
            // rel = what the *next* AS is to the current one.
            let rel = self.relationship(w[0], w[1])?;
            match rel {
                Relationship::Provider => {
                    // going uphill; only allowed while still in Up phase
                    if phase != Phase::Up {
                        return Some(false);
                    }
                }
                Relationship::Peer => {
                    if phase != Phase::Up {
                        return Some(false);
                    }
                    phase = Phase::Peered;
                }
                Relationship::Customer => {
                    phase = Phase::Down;
                }
            }
        }
        Some(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small reference topology used across the workspace's tests:
    ///
    /// ```text
    ///        1 ===== 2          (=== peering, tier-1 clique)
    ///       / \     / \
    ///      3   4   5   6        (tier-2 customers; 4 === 5 peer)
    ///     /     \ /     \
    ///    7       8       9     (stubs; 8 is multihomed to 4 and 5)
    /// ```
    pub(crate) fn diamond() -> AsGraph {
        let mut g = AsGraph::new();
        for (a, t) in [
            (1, Tier::Tier1),
            (2, Tier::Tier1),
            (3, Tier::Tier2),
            (4, Tier::Tier2),
            (5, Tier::Tier2),
            (6, Tier::Tier2),
            (7, Tier::Stub),
            (8, Tier::Stub),
            (9, Tier::Stub),
        ] {
            g.add_as(Asn(a), t).unwrap();
        }
        g.add_peering(Asn(1), Asn(2)).unwrap();
        g.add_customer_provider(Asn(3), Asn(1)).unwrap();
        g.add_customer_provider(Asn(4), Asn(1)).unwrap();
        g.add_customer_provider(Asn(5), Asn(2)).unwrap();
        g.add_customer_provider(Asn(6), Asn(2)).unwrap();
        g.add_peering(Asn(4), Asn(5)).unwrap();
        g.add_customer_provider(Asn(7), Asn(3)).unwrap();
        g.add_customer_provider(Asn(8), Asn(4)).unwrap();
        g.add_customer_provider(Asn(8), Asn(5)).unwrap();
        g.add_customer_provider(Asn(9), Asn(6)).unwrap();
        g
    }

    #[test]
    fn build_and_query() {
        let g = diamond();
        assert_eq!(g.len(), 9);
        assert_eq!(g.link_count(), 10);
        assert_eq!(g.relationship(Asn(1), Asn(3)), Some(Relationship::Customer));
        assert_eq!(g.relationship(Asn(3), Asn(1)), Some(Relationship::Provider));
        assert_eq!(g.relationship(Asn(4), Asn(5)), Some(Relationship::Peer));
        assert_eq!(g.relationship(Asn(3), Asn(5)), None);
        assert!(g.providers(Asn(8)).eq([Asn(4), Asn(5)]));
        assert!(g.customers(Asn(1)).eq([Asn(3), Asn(4)]));
        assert!(g.peers(Asn(1)).eq([Asn(2)]));
        assert_eq!(g.degree(Asn(1)), 3);
        assert_eq!(g.tier(Asn(7)), Some(Tier::Stub));
    }

    #[test]
    fn errors() {
        let mut g = diamond();
        assert_eq!(g.add_as(Asn(1), Tier::Stub), Err(AsGraphError::DuplicateAs(Asn(1))));
        assert_eq!(
            g.add_peering(Asn(1), Asn(1)),
            Err(AsGraphError::SelfLink(Asn(1)))
        );
        assert_eq!(
            g.add_peering(Asn(1), Asn(2)),
            Err(AsGraphError::DuplicateLink(Asn(1), Asn(2)))
        );
        assert_eq!(
            g.add_peering(Asn(1), Asn(99)),
            Err(AsGraphError::UnknownAs(Asn(99)))
        );
        assert_eq!(
            g.remove_link(Asn(3), Asn(5)),
            Err(AsGraphError::UnknownLink(Asn(3), Asn(5)))
        );
    }

    #[test]
    fn remove_link_is_symmetric() {
        let mut g = diamond();
        g.remove_link(Asn(8), Asn(5)).unwrap();
        assert_eq!(g.relationship(Asn(8), Asn(5)), None);
        assert_eq!(g.relationship(Asn(5), Asn(8)), None);
        assert!(g.providers(Asn(8)).eq([Asn(4)]));
        assert_eq!(g.link_count(), 9);
        // Re-adding works.
        g.add_customer_provider(Asn(8), Asn(5)).unwrap();
        assert!(g.providers(Asn(8)).eq([Asn(4), Asn(5)]));
    }

    #[test]
    fn valley_free_checks() {
        let g = diamond();
        // up, peer, down: 8 -> 4 -> 5 -> ... wait 4===5 peer, then 5 -> 8 down.
        assert_eq!(g.is_valley_free(&[Asn(7), Asn(3), Asn(1), Asn(4), Asn(8)]), Some(true));
        // peer then up is a valley: 8 -> 4 (up) fine; 4 -> 5 (peer); 5 -> 2 (up!) invalid.
        assert_eq!(
            g.is_valley_free(&[Asn(8), Asn(4), Asn(5), Asn(2)]),
            Some(false)
        );
        // down then up is a valley: 1 -> 4 (down), 4 -> 5 (peer) invalid.
        assert_eq!(g.is_valley_free(&[Asn(1), Asn(4), Asn(5)]), Some(false));
        // two peer hops invalid: 1 -> 2 peer ... 2 has no second peer; use 4,5:
        assert_eq!(
            g.is_valley_free(&[Asn(1), Asn(2), Asn(5), Asn(8)]),
            Some(true)
        );
        // unknown link yields None.
        assert_eq!(g.is_valley_free(&[Asn(7), Asn(9)]), None);
        // trivial paths are valley-free.
        assert_eq!(g.is_valley_free(&[Asn(1)]), Some(true));
        assert_eq!(g.is_valley_free(&[]), Some(true));
    }

    #[test]
    fn reversed_relationships() {
        assert_eq!(Relationship::Customer.reversed(), Relationship::Provider);
        assert_eq!(Relationship::Provider.reversed(), Relationship::Customer);
        assert_eq!(Relationship::Peer.reversed(), Relationship::Peer);
    }
}
