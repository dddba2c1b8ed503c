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
//! Per event, a tree is recomputed only when
//! [`RoutingTree::must_redecide`] holds at either endpoint of the link
//! (DESIGN.md §21, §24):
//!
//! * **link down** — the link carries traffic in that tree (one
//!   endpoint's next hop is the other);
//! * **link up** — the other endpoint's route may be exported over the
//!   new link and beats the endpoint's current one under the decision
//!   process.
//!
//! [`FastConverge::with_vantages`] builds trees that store routes only
//! for ASes with customers and the caller's vantages (DESIGN.md §26): a
//! link of any other AS can move only that AS's own tree. Construction
//! and reconvergence scan a [`CoreView`], the links between stored ASes
//! (§27); an event on such a link flips it in the view, and any other
//! event leaves the view as it is. [`FastConverge::new`] stores every
//! AS, and its view holds every link.

use crate::churn::LinkChange;
use quicksand_net::Asn;
use quicksand_obs as obs;
use quicksand_topology::{
    AsGraph, CoreView, ReconvergeScratch, Relationship, RoutingTree, StoredSet,
};
use std::ops::Range;
use std::sync::Arc;

/// Incrementally maintained routing trees for tracked origins.
pub struct FastConverge {
    graph: AsGraph,
    /// Tracked trees, ascending by origin ASN. Slot order (ascending
    /// origin) is the order `apply` reconverges candidates in.
    trees: Vec<(Asn, RoutingTree)>,
    /// The links between the nodes every tree stores (every link when
    /// they store every node), flipped as events fail and restore them:
    /// what construction and reconvergence scan (DESIGN.md §27).
    view: CoreView,
    /// Currently-down links with the relationship to restore, sorted by
    /// `(lo, hi)` ASN key; value is the relationship of `hi` from
    /// `lo`'s point of view. `down_keys` mirrors the keys so checkpoint
    /// snapshots can borrow the list without collecting.
    down: Vec<((Asn, Asn), Relationship)>,
    down_keys: Vec<(Asn, Asn)>,
    /// Count of tree recomputations (for benchmarks/diagnostics).
    pub recomputes: u64,
    /// Worklist scratch reused across every event and candidate tree,
    /// so [`FastConverge::apply`] allocates nothing per event.
    scratch: ReconvergeScratch,
    /// Candidate slot list reused across events, as u32 to keep the
    /// replay's heap flat beside the core view (DESIGN.md §27).
    cand_scratch: Vec<u32>,
}

fn key(a: Asn, b: Asn) -> (Asn, Asn) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The contiguous index ranges a `jobs`-wide build splits `n` origins
/// into: `min(jobs, n)` near-equal ranges covering `0..n` in order, or
/// the single empty range `0..0` when there are no origins.
fn chunk_ranges(n: usize, jobs: usize) -> impl Iterator<Item = Range<usize>> {
    let chunks = jobs.clamp(1, n.max(1));
    (0..chunks).map(move |k| k * n / chunks..(k + 1) * n / chunks)
}

/// The traced routing trees toward `origins` (ascending) over `view`,
/// storing its stored nodes, built in [`chunk_ranges`] chunks: chunk 0
/// on the caller thread, every other chunk on its own scoped thread,
/// concatenated in chunk order.
fn build_trees(
    graph: &AsGraph,
    view: &CoreView,
    origins: &[Asn],
    jobs: usize,
) -> Vec<(Asn, RoutingTree)> {
    let build = |chunk: &[Asn]| -> Vec<(Asn, RoutingTree)> {
        RoutingTree::compute_many_in(graph, view, chunk.iter().copied())
            .map(|t| {
                let mut t = t.expect("tracked origin not in graph");
                t.set_tracing(true);
                (t.dest(), t)
            })
            .collect()
    };
    let mut chunks = chunk_ranges(origins.len(), jobs);
    let first = chunks.next().expect("at least one chunk");
    std::thread::scope(|scope| {
        let rest: Vec<_> = chunks
            .map(|r| scope.spawn(move || build(&origins[r])))
            .collect();
        let mut trees = build(&origins[first]);
        for handle in rest {
            trees.extend(handle.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        trees
    })
}

impl FastConverge {
    /// Build over `graph`, tracking routing trees toward each of
    /// `origins` (duplicates are fine). Same as
    /// [`FastConverge::with_jobs`] at one job.
    ///
    /// # Panics
    /// Panics if an origin is not present in the graph.
    pub fn new(graph: AsGraph, origins: impl IntoIterator<Item = Asn>) -> Self {
        Self::with_jobs(graph, origins, 1)
    }

    /// [`FastConverge::new`] with the routing trees built on up to
    /// `jobs` threads (DESIGN.md §10). The sorted, deduplicated origins
    /// are split into `min(jobs, origins)` contiguous chunks, each built
    /// by its own [`RoutingTree::compute_many`]; a tree is a pure
    /// function of (graph, origin), so concatenating the chunks in
    /// order yields exactly the serial tree list at any `jobs`.
    ///
    /// # Panics
    /// Panics if an origin is not present in the graph.
    pub fn with_jobs(
        graph: AsGraph,
        origins: impl IntoIterator<Item = Asn>,
        jobs: usize,
    ) -> Self {
        Self::build(graph, origins, None, jobs)
    }

    /// [`FastConverge::with_jobs`] with trees that store routes only for
    /// the ASes with customers in `graph`, each tree's destination and
    /// `vantages` (DESIGN.md §26). Every other AS's route is decided
    /// when read. `apply` reports a tree as changed, and its trace and
    /// epoch move, only when a stored route changes, so a caller that
    /// reads routes at `vantages` sees every change it can observe.
    /// Churn must only remove and restore `graph`'s links, which is all
    /// [`FastConverge::apply`] does.
    ///
    /// The trees are built, and reconverge, over a [`CoreView`] that
    /// holds only the links between stored ASes; a tree toward an
    /// elided origin reads that origin's own links from the graph
    /// (DESIGN.md §27). The view is the one structure this keeps beside
    /// the graph and the trees; the construction's relationship split
    /// is dropped once the trees are built.
    ///
    /// # Panics
    /// Panics if an origin is not present in the graph.
    pub fn with_vantages(
        graph: AsGraph,
        origins: impl IntoIterator<Item = Asn>,
        vantages: impl IntoIterator<Item = Asn>,
        jobs: usize,
    ) -> Self {
        let stored = StoredSet::new(&graph, vantages);
        Self::build(graph, origins, Some(stored), jobs)
    }

    fn build(
        graph: AsGraph,
        origins: impl IntoIterator<Item = Asn>,
        stored: Option<Arc<StoredSet>>,
        jobs: usize,
    ) -> Self {
        let mut os: Vec<Asn> = origins.into_iter().collect();
        os.sort_unstable();
        os.dedup();
        let view = CoreView::new(&graph, stored);
        let trees = {
            let _span = obs::prof::span("routing", "build");
            build_trees(&graph, &view, &os, jobs)
        };
        FastConverge {
            graph,
            trees,
            view,
            down: Vec::new(),
            down_keys: Vec::new(),
            recomputes: 0,
            scratch: ReconvergeScratch::new(),
            cand_scratch: Vec::new(),
        }
    }

    /// The current (mutated) topology.
    pub fn graph(&self) -> &AsGraph {
        &self.graph
    }

    /// The current routing tree toward `origin`. Under
    /// [`FastConverge::with_vantages`], read an AS the trees do not
    /// store with a read that takes [`FastConverge::graph`], such as
    /// [`RoutingTree::route_at`] or [`RoutingTree::path_from`].
    pub fn tree(&self, origin: Asn) -> Option<&RoutingTree> {
        let i = self
            .trees
            .binary_search_by(|(o, _)| o.cmp(&origin))
            .ok()?;
        Some(&self.trees[i].1)
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

    /// Apply a link change; returns the tracked origins whose trees
    /// actually changed (some path differs from before the event).
    ///
    /// Each candidate tree is updated by the exact incremental
    /// reconvergence of [`RoutingTree::reconverge_with`], addressed by
    /// the endpoint indices and relationship this event resolves once;
    /// a cheap pre-filter ([`RoutingTree::must_redecide`] at both
    /// endpoints) skips trees the event provably cannot touch.
    pub fn apply(&mut self, change: LinkChange) -> Vec<Asn> {
        let _span = obs::prof::span("routing", "apply");
        let Some((ia, ib, rel_of_b)) = self.edit_and_filter(change) else {
            return Vec::new();
        };
        if self.cand_scratch.is_empty() {
            return Vec::new();
        }
        self.recomputes += self.cand_scratch.len() as u64;
        obs::incr("routing", "tree_recomputes", self.cand_scratch.len() as u64);
        // Reconverge each candidate in place. Its trace is cleared just
        // before the recompute, so afterwards every tree's trace holds
        // exactly its latest reconvergence's transitions, which the
        // collector's export refresh reads (DESIGN.md §20).
        let mut changed = Vec::new();
        {
            let _span = obs::prof::span("routing", "reconverge");
            for &slot in &self.cand_scratch {
                let (o, tree) = &mut self.trees[slot as usize];
                tree.clear_trace();
                let (graph, view) = (&self.graph, &self.view);
                if tree.reconverge_with(graph, view, ia, ib, rel_of_b, &mut self.scratch) {
                    changed.push(*o);
                }
            }
        }
        changed
    }

    /// Edit the graph for `change` and fill `cand_scratch` with the
    /// slots of the trees it can move, ascending. Returns the link's
    /// endpoints `(ia, ib)` in the event's own `(a, b)` order, which
    /// is the order a reconvergence seeds them in, with `ib` as `ia`
    /// sees it (`None` after a failure); `None` when the event changes
    /// nothing (raising an up link or failing a down one).
    fn edit_and_filter(
        &mut self,
        change: LinkChange,
    ) -> Option<(usize, usize, Option<Relationship>)> {
        let _span = obs::prof::span("routing", "filter");
        let LinkChange { a, b, up } = change;
        let k = key(a, b);
        self.cand_scratch.clear();
        // `rel` is hi as lo sees it after a link-up event, `None` after
        // a failure.
        let rel = if up {
            let pos = self.down_keys.binary_search(&k).ok()?;
            let (_, rel) = self.down.remove(pos);
            self.down_keys.remove(pos);
            match rel {
                Relationship::Peer => self.graph.add_peering(k.0, k.1).unwrap(),
                Relationship::Customer => {
                    // hi is lo's customer ⇒ hi buys transit from lo.
                    self.graph.add_customer_provider(k.1, k.0).unwrap()
                }
                Relationship::Provider => self.graph.add_customer_provider(k.0, k.1).unwrap(),
            }
            Some(rel)
        } else {
            let rel = self.graph.relationship(k.0, k.1)?;
            let pos = self
                .down_keys
                .binary_search(&k)
                .expect_err("up link cannot be in the down set");
            self.down.insert(pos, (k, rel));
            self.down_keys.insert(pos, k);
            self.graph.remove_link(k.0, k.1).unwrap();
            None
        };
        let (Some(ilo), Some(ihi)) = (self.graph.index_of(k.0), self.graph.index_of(k.1)) else {
            unreachable!("link endpoints are in the graph");
        };
        // A link between two stored nodes flips in the view; the view
        // holds no other link (DESIGN.md §27).
        let in_view = self.view.set_link(&self.graph, ilo, ihi, up);
        debug_assert_eq!(
            in_view,
            self.view.has_row(ilo) && self.view.has_row(ihi),
            "a base link between stored nodes is in the view"
        );
        // One filter for both kinds of event (DESIGN.md §24): a tree can
        // change only if `must_redecide` holds at an endpoint, given the
        // link's state after the event. After a recovery the link was
        // down, so neither endpoint routes over it and the test is
        // whether it offers one endpoint a better route; after a failure
        // (`rel` is `None`) it is exactly "the endpoint's next hop is the
        // other one", i.e. the failed link carried traffic in the tree.
        // Slots are pushed ascending, which is ascending origin.
        let (rel_of_lo, rel_of_hi) = (rel.map(Relationship::reversed), rel);
        let graph = &self.graph;
        let moves = |tree: &RoutingTree| {
            tree.must_redecide(graph, ilo, ihi, rel_of_lo)
                || tree.must_redecide(graph, ihi, ilo, rel_of_hi)
        };
        let elided = |i: usize| !self.view.has_row(i);
        if !in_view {
            // An elided endpoint has nothing to re-decide, and it offers
            // its route to no one unless it is the tree's destination
            // (§26): only its own tree can move. `k.0 < k.1`, so the
            // slots still ascend.
            for (i, o) in [(ilo, k.0), (ihi, k.1)] {
                let Ok(slot) = self.trees.binary_search_by(|(t, _)| t.cmp(&o)) else {
                    continue;
                };
                if elided(i) && moves(&self.trees[slot].1) {
                    self.cand_scratch.push(slot as u32);
                }
            }
        } else {
            for (slot, (_, tree)) in self.trees.iter().enumerate() {
                if moves(tree) {
                    self.cand_scratch.push(slot as u32);
                }
            }
        }
        Some(if a == k.0 {
            (ilo, ihi, rel)
        } else {
            (ihi, ilo, rel.map(Relationship::reversed))
        })
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
        // Raising an up link or failing a down one recomputes no tree.
        let mut fc = FastConverge::new(diamond(), [Asn(8)]);
        assert_eq!(fc.apply(LinkChange::up(Asn(9), Asn(6))), vec![]);
        assert_eq!(fc.recomputes, 0);
        fc.apply(LinkChange::down(Asn(9), Asn(6)));
        assert_eq!(fc.recomputes, 1);
        assert_eq!(fc.apply(LinkChange::down(Asn(9), Asn(6))), vec![]);
        assert_eq!(fc.recomputes, 1);
    }

    #[test]
    fn link_up_that_cannot_improve_is_skipped() {
        // Toward 8, 4 and 5 both hold one-hop customer routes: their
        // peering carries no traffic, and its return beats neither.
        let mut fc = FastConverge::new(diamond(), [Asn(8)]);
        assert_eq!(fc.apply(LinkChange::down(Asn(4), Asn(5))), vec![]);
        assert_eq!(fc.recomputes, 0);
        assert_eq!(fc.apply(LinkChange::up(Asn(4), Asn(5))), vec![]);
        assert_eq!(fc.recomputes, 0);
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
    fn customer_less_vantage_is_stored_and_other_stubs_are_decided_on_read() {
        // 7, 8 and 9 have no customers; only 9 is a vantage.
        let origins: Vec<Asn> = diamond().asns().collect();
        let mut fc = FastConverge::with_vantages(diamond(), origins.clone(), [Asn(9)], 1);
        let mut blind = FastConverge::with_vantages(diamond(), origins.clone(), [], 1);
        // Losing its one provider unroutes 9 in every tree: each moves
        // a stored route when 9 is a vantage, and only 9's own tree
        // moves one when it is not.
        assert_eq!(fc.apply(LinkChange::down(Asn(9), Asn(6))), origins);
        assert_eq!(blind.apply(LinkChange::down(Asn(9), Asn(6))), vec![Asn(9)]);
        assert_eq!(blind.recomputes, 1);
        // A link of the customer-less non-vantage 7 reconverges only
        // 7's tree, in both.
        for f in [&mut fc, &mut blind] {
            let r = f.recomputes;
            assert_eq!(f.apply(LinkChange::down(Asn(7), Asn(3))), vec![Asn(7)]);
            assert_eq!(f.recomputes - r, 1);
            assert_eq!(f.apply(LinkChange::up(Asn(7), Asn(3))), vec![Asn(7)]);
        }
        // Every route, stored or decided on read, is a fresh compute's.
        for f in [&fc, &blind] {
            for &o in &origins {
                let fresh = RoutingTree::compute(f.graph(), o).unwrap();
                for &src in &origins {
                    assert_eq!(
                        path(f, o.0, src.0),
                        fresh
                            .path_from(f.graph(), src)
                            .map(|p| p.into_iter().map(|a| a.0).collect())
                    );
                }
            }
        }
        assert_eq!(path(&fc, 8, 7), Some(vec![7, 3, 1, 4, 8]));
        assert_eq!(path(&fc, 8, 9), None);
    }

    #[test]
    fn view_edits_flip_core_links_only() {
        // The diamond plus a peering of the stubs 7 and 9. With no
        // vantages, 7, 8 and 9 are elided; 7 and 9 are not origins.
        let mut g = diamond();
        g.add_peering(Asn(7), Asn(9)).unwrap();
        let origins = [1, 2, 3, 4, 5, 6, 8].map(Asn);
        let mut fc = FastConverge::with_vantages(g, origins, [], 1);
        let base = fc.view.clone();
        // A link of two elided non-origins is not in the view and can
        // move no tree.
        for up in [false, true] {
            let stubs = LinkChange {
                a: Asn(7),
                b: Asn(9),
                up,
            };
            assert_eq!(fc.apply(stubs), vec![]);
            assert_eq!(fc.view, base);
            assert_eq!(fc.recomputes, 0);
        }
        // A core link carrying traffic leaves its endpoints' rows while
        // it is down and returns to its place when it is restored.
        let g = fc.graph();
        let (i1, i3) = (g.index_of(Asn(1)).unwrap(), g.index_of(Asn(3)).unwrap());
        let row = |v: &CoreView, i: usize| v.links(i).map(|(w, _)| w).collect::<Vec<_>>();
        assert!(!fc.apply(LinkChange::down(Asn(3), Asn(1))).is_empty());
        assert!(!row(&fc.view, i1).contains(&i3) && !row(&fc.view, i3).contains(&i1));
        assert_ne!(fc.view, base);
        assert!(!fc.apply(LinkChange::up(Asn(3), Asn(1))).is_empty());
        assert_eq!(fc.view, base);
        assert_eq!(row(&fc.view, i1), row(&base, i1));
        // Every tree is a fresh build's over the restored graph.
        let fresh = FastConverge::with_vantages(fc.graph().clone(), origins, [], 1);
        assert_eq!(fresh.view, fc.view);
        let g = fc.graph();
        for o in origins {
            for i in 0..g.len() {
                assert_eq!(
                    fc.tree(o).unwrap().route_at(g, i),
                    fresh.tree(o).unwrap().route_at(g, i),
                    "tree toward {o} at {}",
                    g.asn_of(i)
                );
            }
        }
    }

    #[test]
    fn chunk_ranges_cover_the_origins_in_at_most_origin_count_chunks() {
        for n in [0usize, 1, 2, 5, 17, 800] {
            for jobs in [0usize, 1, 2, 3, 4, n + 5, usize::MAX] {
                let ranges: Vec<Range<usize>> = chunk_ranges(n, jobs).collect();
                // The chunk count is capped at the origin count (one
                // empty chunk when there are none), so a huge `jobs`
                // never spawns more threads than there are origins.
                assert_eq!(ranges.len(), jobs.clamp(1, n.max(1)), "n {n}, jobs {jobs}");
                // Contiguous and in order: concatenation is `0..n`.
                let flat: Vec<usize> = ranges.iter().cloned().flatten().collect();
                assert_eq!(flat, (0..n).collect::<Vec<_>>(), "n {n}, jobs {jobs}");
                if n > 0 {
                    assert!(ranges.iter().all(|r| !r.is_empty()), "n {n}, jobs {jobs}");
                }
            }
        }
    }
}
