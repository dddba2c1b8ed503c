//! Fast static reconvergence over a mutable topology.
//!
//! [`FastConverge`] maintains, for a set of *tracked origin ASes*, the
//! post-convergence Gao–Rexford routing tree, and updates them as link
//! events are applied — the approach of C-BGP-class simulators. A
//! month-long churn study only needs stable (post-convergence) paths at
//! the vantage points, so recomputing affected trees per event is both
//! faster and exactly consistent with what [`crate::EventSim`] converges
//! to (cross-validated in the workspace integration tests).
//!
//! Per event, a tree is recomputed only when it can actually change:
//!
//! * **link down** — only if the link carries traffic in that tree;
//! * **link up** — only if the new link would offer either endpoint a
//!   route that beats (or ties and displaces, via the deterministic
//!   tie-break) its current one under the decision process.

use crate::churn::LinkChange;
use quicksand_net::Asn;
use quicksand_obs as obs;
use quicksand_topology::{
    AsGraph, ReconvergeScratch, Relationship, RouteClass, RoutingTree, TRACE_UNROUTED,
};

/// Inverted link→trees index: for every *directed* tree edge
/// `from → to` (a node and its next hop), which tracked trees currently
/// contain it. A link-down event's candidate set is then the union of
/// the two directed bitmaps for the failed link — no per-tree
/// `uses_link` scan.
///
/// Node-indexed and flat: the edges out of node `v` are the base
/// graph's neighbors of `v`, `start[v]..start[v + 1]` in `to` (ascending
/// node index). The bitmaps are stored word-major: word `w` of edge `e`
/// is `bits[w * n_edges + e]`, so the 64 slots of one word form one
/// contiguous row over all edges. Seeding a tree writes only its own
/// row, in ascending edge order, instead of striding across every
/// edge's bitmap (DESIGN.md §17, §19). A next hop is always a neighbor
/// in the graph `FastConverge` was built over — events only remove
/// those links and restore them — so the layout is fixed at
/// construction and every update is an in-place bit flip.
///
/// Seeded from [`RoutingTree::next_hops`] at construction and kept
/// current by replaying each reconvergence's next-hop trace
/// ([`RoutingTree::trace`]); `FastConverge::index_is_consistent`
/// cross-checks the two in tests.
#[derive(Clone)]
struct LinkIndex {
    /// Bitmap length in u64 words (`ceil(n_slots / 64)`).
    words: usize,
    /// Per node, the first of its edges in `to`; `n + 1` entries.
    start: Vec<usize>,
    /// Edge targets, ascending within each node's range.
    to: Vec<u32>,
    /// `words` rows of one u64 per edge, over tree slots (word-major).
    bits: Vec<u64>,
}

impl LinkIndex {
    /// An empty index over the directed edges of `graph`.
    fn new(graph: &AsGraph, n_slots: usize) -> Self {
        let words = n_slots.div_ceil(64);
        let mut start = Vec::with_capacity(graph.len() + 1);
        let mut to = Vec::with_capacity(2 * graph.link_count());
        for v in 0..graph.len() {
            start.push(to.len());
            to.extend(
                graph
                    .neighbors_idx(v)
                    .iter()
                    .map(|&(w, _)| u32::try_from(w).expect("node index fits u32")),
            );
            to[start[v]..].sort_unstable();
        }
        start.push(to.len());
        let bits = vec![0u64; to.len() * words];
        LinkIndex {
            words,
            start,
            to,
            bits,
        }
    }

    /// The edge id of `from → to`, if `to` is a base-graph neighbor.
    fn edge(&self, from: usize, to: usize) -> Option<usize> {
        let (lo, hi) = (self.start[from], self.start[from + 1]);
        let pos = self.to[lo..hi]
            .binary_search(&u32::try_from(to).ok()?)
            .ok()?;
        Some(lo + pos)
    }

    /// The bit for `slot` in edge `from → to`.
    fn bit(&mut self, from: usize, to: usize, slot: usize) -> (&mut u64, u64) {
        let e = self
            .edge(from, to)
            .expect("next hop is a base-graph neighbor");
        let n_edges = self.to.len();
        (&mut self.bits[slot / 64 * n_edges + e], 1u64 << (slot % 64))
    }

    fn set(&mut self, from: usize, to: usize, slot: usize) {
        let (word, mask) = self.bit(from, to, slot);
        *word |= mask;
    }

    fn clear(&mut self, from: usize, to: usize, slot: usize) {
        let (word, mask) = self.bit(from, to, slot);
        *word &= !mask;
    }

    /// Record every tree edge of `tree` under `slot`.
    fn seed(&mut self, slot: usize, tree: &RoutingTree) {
        for (v, next) in tree.next_hops() {
            if v != next {
                self.set(v, next, slot);
            }
        }
    }

    /// Push (ascending) every slot whose tree uses the undirected link
    /// `a`–`b`, i.e. has `a → b` or `b → a` as a tree edge.
    fn union_into(&self, a: usize, b: usize, out: &mut Vec<usize>) {
        let (Some(x), Some(y)) = (self.edge(a, b), self.edge(b, a)) else {
            return;
        };
        let n_edges = self.to.len();
        for w in 0..self.words {
            let row = &self.bits[w * n_edges..];
            let mut bits = row[x] | row[y];
            while bits != 0 {
                out.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}

/// Incrementally maintained routing trees for tracked origins.
pub struct FastConverge {
    graph: AsGraph,
    /// Tracked trees, ascending by origin ASN. Slot order (ascending
    /// origin) is the candidate order `apply_with` hands its hook. The
    /// `Option` is a move slot: `apply_with` takes candidate trees out
    /// for the duration of the recompute hook and always puts them
    /// back — every tree is `Some` outside that window.
    trees: Vec<(Asn, Option<RoutingTree>)>,
    link_index: LinkIndex,
    /// Currently-down links with the relationship to restore, sorted by
    /// `(lo, hi)` ASN key; value is the relationship of `hi` from
    /// `lo`'s point of view. `down_keys` mirrors the keys so checkpoint
    /// snapshots can borrow the list without collecting.
    down: Vec<((Asn, Asn), Relationship)>,
    down_keys: Vec<(Asn, Asn)>,
    /// Count of tree recomputations (for benchmarks/diagnostics).
    pub recomputes: u64,
    /// Worklist scratch reused across every event and candidate tree,
    /// so serial [`FastConverge::apply`] allocates nothing per event.
    scratch: ReconvergeScratch,
    /// Candidate slot list reused across events.
    cand_scratch: Vec<usize>,
    /// Taken-trees buffer reused across events.
    taken_scratch: Vec<(Asn, RoutingTree)>,
}

fn key(a: Asn, b: Asn) -> (Asn, Asn) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

fn invert(rel: Relationship) -> Relationship {
    match rel {
        Relationship::Customer => Relationship::Provider,
        Relationship::Provider => Relationship::Customer,
        Relationship::Peer => Relationship::Peer,
    }
}

impl FastConverge {
    /// Build over `graph`, tracking routing trees toward each of
    /// `origins` (duplicates are fine).
    ///
    /// # Panics
    /// Panics if an origin is not present in the graph.
    pub fn new(graph: AsGraph, origins: impl IntoIterator<Item = Asn>) -> Self {
        let mut os: Vec<Asn> = origins.into_iter().collect();
        os.sort_unstable();
        os.dedup();
        let trees: Vec<(Asn, Option<RoutingTree>)> = RoutingTree::compute_many(&graph, os)
            .map(|t| {
                let mut t = t.expect("tracked origin not in graph");
                t.set_tracing(true);
                (t.dest(), Some(t))
            })
            .collect();
        let mut link_index = LinkIndex::new(&graph, trees.len());
        for (slot, (_, t)) in trees.iter().enumerate() {
            link_index.seed(slot, t.as_ref().expect("tree present"));
        }
        FastConverge {
            graph,
            trees,
            link_index,
            down: Vec::new(),
            down_keys: Vec::new(),
            recomputes: 0,
            scratch: ReconvergeScratch::new(),
            cand_scratch: Vec::new(),
            taken_scratch: Vec::new(),
        }
    }

    /// The current (mutated) topology.
    pub fn graph(&self) -> &AsGraph {
        &self.graph
    }

    /// The current routing tree toward `origin`.
    pub fn tree(&self, origin: Asn) -> Option<&RoutingTree> {
        let i = self
            .trees
            .binary_search_by(|(o, _)| o.cmp(&origin))
            .ok()?;
        Some(self.trees[i].1.as_ref().expect("tree present"))
    }

    /// Tracked origins, ascending.
    pub fn origins(&self) -> impl Iterator<Item = Asn> + '_ {
        self.trees.iter().map(|(o, _)| *o)
    }

    /// The links currently down, as sorted `(lo, hi)` ASN pairs —
    /// together with the immutable base graph, the complete routing
    /// state: applying [`LinkChange::down`] for each pair to a fresh
    /// [`FastConverge`] reproduces identical post-convergence paths
    /// (trees are exact, cross-validated against full recomputation).
    /// This is what a run checkpoint records instead of the trees;
    /// borrowed so the per-checkpoint snapshot does not allocate here.
    pub fn down_links(&self) -> &[(Asn, Asn)] {
        &self.down_keys
    }

    /// Cross-check the incrementally maintained link→trees index
    /// against one rebuilt from the trees' current next hops. Test
    /// support (the index is exactly the `uses_link` relation).
    #[doc(hidden)]
    pub fn index_is_consistent(&self) -> bool {
        let mut fresh = LinkIndex {
            bits: vec![0; self.link_index.bits.len()],
            ..self.link_index.clone()
        };
        for (slot, (_, t)) in self.trees.iter().enumerate() {
            fresh.seed(slot, t.as_ref().expect("tree present"));
        }
        fresh.bits == self.link_index.bits
    }

    /// Apply a link change; returns the tracked origins whose trees
    /// actually changed (some path differs from before the event).
    ///
    /// Each candidate tree is updated by the exact incremental
    /// reconvergence of [`RoutingTree::reconverge_after_link_event`];
    /// cheap pre-filters (`uses_link` for failures, the decision-process
    /// check at the endpoints for recoveries) skip trees the event
    /// provably cannot touch.
    pub fn apply(&mut self, change: LinkChange) -> Vec<Asn> {
        // Lend out the owned scratch for the duration of the closure
        // (it cannot borrow `self` while `apply_with` holds `&mut self`).
        let mut scratch = std::mem::take(&mut self.scratch);
        let changed = self.apply_with(change, |graph, (a, b), trees| {
            let _span = obs::prof::span("routing", "reconverge");
            trees
                .iter_mut()
                .map(|(_, tree)| tree.reconverge_with(graph, a, b, &mut scratch))
                .collect()
        });
        self.scratch = scratch;
        changed
    }

    /// [`FastConverge::apply`] with the per-tree reconvergence delegated
    /// to `recompute` — the seam the parallel month-replay engine uses
    /// to shard candidate trees across worker threads (DESIGN.md §10).
    ///
    /// The graph mutation and candidate filtering happen here, exactly
    /// as in the serial path. `recompute` then receives the mutated
    /// graph, the event endpoints, and the candidate trees in
    /// **ascending origin order**, and must return one changed flag per
    /// candidate (same order), each the result of
    /// [`RoutingTree::reconverge_after_link_event`] on that tree. A
    /// tree's reconvergence reads only the shared graph and its own
    /// state, so any execution order — including concurrent — produces
    /// the flags of the serial loop.
    ///
    /// # Panics
    /// Panics if `recompute` returns a different number of flags than
    /// it was given trees.
    pub fn apply_with<F>(&mut self, change: LinkChange, recompute: F) -> Vec<Asn>
    where
        F: FnOnce(&AsGraph, (Asn, Asn), &mut [(Asn, RoutingTree)]) -> Vec<bool>,
    {
        let _span = obs::prof::span("routing", "apply");
        let LinkChange { a, b, up } = change;
        let k = key(a, b);
        self.cand_scratch.clear();
        if up {
            let Ok(pos) = self.down_keys.binary_search(&k) else {
                return Vec::new(); // link was not down; nothing to do
            };
            let (_, rel) = self.down.remove(pos);
            self.down_keys.remove(pos);
            // Restore: rel is relationship of k.1 (hi) from k.0 (lo).
            match rel {
                Relationship::Peer => self.graph.add_peering(k.0, k.1).unwrap(),
                Relationship::Customer => {
                    // hi is lo's customer ⇒ hi buys transit from lo.
                    self.graph.add_customer_provider(k.1, k.0).unwrap()
                }
                Relationship::Provider => {
                    self.graph.add_customer_provider(k.0, k.1).unwrap()
                }
            }
            // Resolve endpoint indices and the two relationship views
            // once per event, not once per tracked tree.
            let (Some(ilo), Some(ihi)) =
                (self.graph.index_of(k.0), self.graph.index_of(k.1))
            else {
                unreachable!("link endpoints are in the graph");
            };
            let rel_hi_from_lo = rel;
            let rel_lo_from_hi = invert(rel);
            for (slot, (_, tree)) in self.trees.iter().enumerate() {
                let tree = tree.as_ref().expect("tree present");
                let matters = Self::endpoint_gains_idx(
                    &self.graph, tree, ilo, ihi, k.1, rel_lo_from_hi, rel_hi_from_lo,
                ) || Self::endpoint_gains_idx(
                    &self.graph, tree, ihi, ilo, k.0, rel_hi_from_lo, rel_lo_from_hi,
                );
                if matters {
                    self.cand_scratch.push(slot);
                }
            }
        } else {
            let Some(rel) = self.graph.relationship(k.0, k.1) else {
                return Vec::new(); // already down
            };
            let pos = self
                .down_keys
                .binary_search(&k)
                .expect_err("up link cannot be in the down set");
            self.down.insert(pos, (k, rel));
            self.down_keys.insert(pos, k);
            self.graph.remove_link(k.0, k.1).unwrap();
            let (Some(ilo), Some(ihi)) =
                (self.graph.index_of(k.0), self.graph.index_of(k.1))
            else {
                unreachable!("link endpoints are in the graph");
            };
            // A tree can change only if the failed link carried traffic
            // in it — exactly the trees the inverted index holds for
            // the link's two directions (ascending slot = ascending
            // origin, preserving the candidate order).
            self.link_index.union_into(ilo, ihi, &mut self.cand_scratch);
        }
        if self.cand_scratch.is_empty() {
            return Vec::new();
        }
        self.recomputes += self.cand_scratch.len() as u64;
        obs::incr("routing", "tree_recomputes", self.cand_scratch.len() as u64);
        // Move the candidate trees out of their slots so `recompute` can
        // mutate them while reading the graph it was handed. Each trace
        // is cleared here, before the recompute, so after `apply_with`
        // every tree's trace holds exactly its latest reconvergence's
        // transitions, which the collector's export refresh reads
        // (DESIGN.md §20).
        let mut taken = std::mem::take(&mut self.taken_scratch);
        debug_assert!(taken.is_empty());
        for &slot in &self.cand_scratch {
            let (o, t) = &mut self.trees[slot];
            let mut tree = t.take().expect("tree present");
            tree.clear_trace();
            taken.push((*o, tree));
        }
        let flags = recompute(&self.graph, (a, b), &mut taken);
        assert_eq!(
            flags.len(),
            taken.len(),
            "recompute must return one changed flag per candidate tree"
        );
        let mut changed = Vec::new();
        for ((&slot, (o, tree)), did_change) in
            self.cand_scratch.iter().zip(taken.drain(..)).zip(flags)
        {
            // Replay the reconvergence's next-hop trace into the index
            // before the tree goes back into its slot. Traces compose
            // in recording order, so the index lands on the post-event
            // tree no matter how the hook scheduled the recomputes.
            for &(v, old, new) in tree.trace() {
                let v = v as usize;
                if old != TRACE_UNROUTED && old as usize != v {
                    self.link_index.clear(v, old as usize, slot);
                }
                if new != TRACE_UNROUTED && new as usize != v {
                    self.link_index.set(v, new as usize, slot);
                }
            }
            self.trees[slot].1 = Some(tree);
            if did_change {
                changed.push(o);
            }
        }
        self.taken_scratch = taken;
        changed
    }

    /// Would `at` select a route via `via` for this tree's destination?
    ///
    /// Index-addressed form of the decision-process check: node indices
    /// and both relationship views are resolved once per *event* by the
    /// caller, so the per-tree work is a few array reads. Must decide
    /// exactly like the reference (`class`/`dist`/`next_hop` by ASN with
    /// the lowest-next-hop-ASN tie-break) — the affected-origin lists
    /// and the `recomputes` counter are pinned by the differential
    /// harness.
    fn endpoint_gains_idx(
        graph: &AsGraph,
        tree: &RoutingTree,
        at: usize,
        via: usize,
        via_asn: Asn,
        rel_of_at_from_via: Relationship,
        rel_of_via_from_at: Relationship,
    ) -> bool {
        let Some((via_class, via_dist, via_next)) = tree.route_at_idx(via) else {
            return false; // via has no route to offer
        };
        // Export legality at `via`: own/customer routes go to anyone;
        // peer/provider routes only to via's customers.
        let exportable = matches!(via_class, RouteClass::Origin | RouteClass::Customer)
            || rel_of_at_from_via == Relationship::Customer;
        if !exportable {
            return false;
        }
        // Never route back through yourself.
        if via_next == at {
            return false;
        }
        let cand_class = match rel_of_via_from_at {
            Relationship::Customer => RouteClass::Customer,
            Relationship::Peer => RouteClass::Peer,
            Relationship::Provider => RouteClass::Provider,
        };
        let cand_dist = via_dist + 1;
        match tree.route_at_idx(at) {
            None => true,
            Some((cur_class, cur_dist, cur_next)) => {
                if cur_class == RouteClass::Origin {
                    return false;
                }
                let cur_next_asn = graph.asn_of(cur_next);
                (cand_class, cand_dist, via_asn) < (cur_class, cur_dist, cur_next_asn)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicksand_topology::Tier;

    fn diamond() -> AsGraph {
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

    fn path(fc: &FastConverge, origin: u32, src: u32) -> Option<Vec<u32>> {
        fc.tree(Asn(origin))
            .unwrap()
            .path_from(fc.graph(), Asn(src))
            .map(|v| v.into_iter().map(|a| a.0).collect())
    }

    #[test]
    fn down_then_up_restores_paths() {
        let fc0 = FastConverge::new(diamond(), [Asn(8)]);
        let before = path(&fc0, 8, 1);
        let mut fc = fc0;
        let affected = fc.apply(LinkChange::down(Asn(4), Asn(8)));
        assert_eq!(affected, vec![Asn(8)]);
        assert_eq!(path(&fc, 8, 1), Some(vec![1, 2, 5, 8]));
        let affected = fc.apply(LinkChange::up(Asn(4), Asn(8)));
        assert_eq!(affected, vec![Asn(8)]);
        assert_eq!(path(&fc, 8, 1), before);
        // Relationship restored, not mangled.
        assert_eq!(
            fc.graph().relationship(Asn(8), Asn(4)),
            Some(Relationship::Provider)
        );
    }

    #[test]
    fn unrelated_link_event_skips_recompute() {
        let mut fc = FastConverge::new(diamond(), [Asn(8)]);
        // 9–6 carries no traffic toward 8's prefix except 9's own.
        // It does carry 9's traffic, so use 7–3 instead? 7 routes via 3.
        // Every stub's access link carries its own traffic, so use a
        // link that is genuinely unused: none in a tree spanning all ASes.
        // Instead verify the filter via link-up of an already-up link
        // (no-op) and down of an already-down link.
        assert_eq!(fc.apply(LinkChange::up(Asn(9), Asn(6))), vec![]);
        fc.apply(LinkChange::down(Asn(9), Asn(6)));
        assert_eq!(fc.apply(LinkChange::down(Asn(9), Asn(6))), vec![]);
    }

    #[test]
    fn link_up_that_cannot_improve_is_skipped() {
        // Take down 9–6 (9 isolated), then 4–8: tree for 8 reroutes.
        // Bringing 9–6 back up: 9 gains a route to 8, so it *does*
        // matter. Instead check a peering that can't win: 4===5 peer
        // link down/up for destination 8 — wait, that link matters for 4
        // only if 4 lost its customer route. With 4–8 intact, 4 has a
        // dist-1 customer route; the peer route via 5 can't beat it, and
        // 5 has a dist-1 customer route too. So 4===5 up is a no-op for
        // destination 8 once it is down.
        let mut fc = FastConverge::new(diamond(), [Asn(8)]);
        let affected = fc.apply(LinkChange::down(Asn(4), Asn(5)));
        // The peer link carries no traffic in 8's tree (both have
        // customer routes), so even the down is a no-op.
        assert_eq!(affected, vec![]);
        let affected = fc.apply(LinkChange::up(Asn(4), Asn(5)));
        assert_eq!(affected, vec![]);
    }

    #[test]
    fn matches_full_recompute_after_random_events() {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let g = diamond();
        let links: Vec<(Asn, Asn)> = vec![
            (Asn(1), Asn(2)),
            (Asn(3), Asn(1)),
            (Asn(4), Asn(1)),
            (Asn(5), Asn(2)),
            (Asn(6), Asn(2)),
            (Asn(4), Asn(5)),
            (Asn(7), Asn(3)),
            (Asn(8), Asn(4)),
            (Asn(8), Asn(5)),
        ];
        let origins: Vec<Asn> = g.asns().collect();
        let mut fc = FastConverge::new(g, origins.clone());
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..60 {
            let (a, b) = links[rng.gen_range(0..links.len())];
            let up = rng.gen_bool(0.5);
            fc.apply(LinkChange { a, b, up });
            // Cross-check every tracked tree against a fresh compute.
            for &o in &origins {
                let fresh = RoutingTree::compute(fc.graph(), o).unwrap();
                for &src in &origins {
                    assert_eq!(
                        fc.tree(o).unwrap().path_from(fc.graph(), src),
                        fresh.path_from(fc.graph(), src),
                        "divergence at src {src} origin {o}"
                    );
                }
            }
        }
        assert!(fc.recomputes > 0);
    }

    #[test]
    fn apply_with_matches_apply_for_any_execution_order() {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let links: Vec<(Asn, Asn)> = vec![
            (Asn(1), Asn(2)),
            (Asn(3), Asn(1)),
            (Asn(4), Asn(1)),
            (Asn(5), Asn(2)),
            (Asn(6), Asn(2)),
            (Asn(4), Asn(5)),
            (Asn(7), Asn(3)),
            (Asn(8), Asn(4)),
            (Asn(8), Asn(5)),
        ];
        let origins: Vec<Asn> = diamond().asns().collect();
        let mut serial = FastConverge::new(diamond(), origins.clone());
        let mut hooked = FastConverge::new(diamond(), origins);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..60 {
            let (a, b) = links[rng.gen_range(0..links.len())];
            let change = LinkChange { a, b, up: rng.gen_bool(0.5) };
            let want = serial.apply(change);
            // Recompute candidates back to front: the changed flags (and
            // therefore the affected-origin list) must not depend on the
            // order the hook walks the trees in.
            let got = hooked.apply_with(change, |graph, (a, b), trees| {
                let mut flags = vec![false; trees.len()];
                for i in (0..trees.len()).rev() {
                    flags[i] = trees[i].1.reconverge_after_link_event(graph, a, b);
                }
                flags
            });
            assert_eq!(got, want);
            assert_eq!(hooked.recomputes, serial.recomputes);
        }
    }
}
