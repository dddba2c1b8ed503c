//! Trees built over a stored set (DESIGN.md §26) are exact. A
//! `FastConverge::with_vantages` replica stores routes only for ASes
//! with customers, its trees' destinations and a random vantage subset,
//! and runs in lockstep with a `FastConverge::new` twin that stores
//! every AS. Under random down/up churn, after every event:
//!
//! 1. every node's route, stored or decided on read, equals a fresh
//!    full `RoutingTree::compute`'s;
//! 2. a tree whose epoch did not move moved no node that must be
//!    stored, and a tree whose epoch moved traces every such node whose
//!    next hop moved. The nodes that must be stored are computed here
//!    from the base graph: every AS with a customer, and the vantages;
//! 3. the replica's `apply` returns exactly the origins whose routes at
//!    those nodes changed, read off the twin.
//!
//! The topologies are random layered graphs, with customer-less ASes
//! that have two or more providers and peering links, and the generated
//! 200-AS and 800-AS topologies. A share of the events fails and then
//! restores a link between a customer-less origin that is not a vantage
//! and a node that must be stored: the tree toward that origin reads
//! the link from the graph, not from the core view (DESIGN.md §27).
//! `QUICKSAND_TEST_SEEDS` (comma-separated, decimal or `0x`-hex)
//! replaces the generated topologies' default seeds.

use proptest::prelude::*;
use proptest::TestRng;
use quicksand_bgp::{FastConverge, LinkChange};
use quicksand_net::Asn;
use quicksand_topology::{
    AsGraph, Relationship, RouteClass, RoutingTree, Tier, TopologyConfig, TopologyGenerator,
};

/// Seeds for the generated-topology sweep; `QUICKSAND_TEST_SEEDS`
/// overrides.
fn env_seeds(default: &[u64]) -> Vec<u64> {
    match std::env::var("QUICKSAND_TEST_SEEDS") {
        Ok(s) if !s.trim().is_empty() => s
            .split(',')
            .map(|tok| {
                let tok = tok.trim();
                let parsed = match tok.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => tok.parse(),
                };
                parsed.unwrap_or_else(|_| panic!("QUICKSAND_TEST_SEEDS: bad seed {tok:?}"))
            })
            .collect(),
        _ => default.to_vec(),
    }
}

type Route = Option<(RouteClass, u32, usize)>;

/// Every link of `g` once, as `(lo-index ASN, hi-index ASN)`.
fn links_of(g: &AsGraph) -> Vec<(Asn, Asn)> {
    let mut links = Vec::new();
    for i in 0..g.len() {
        for &(j, _) in g.neighbors_idx(i) {
            if i < j {
                links.push((g.asn_of(i), g.asn_of(j)));
            }
        }
    }
    links
}

/// The replica and its twin over one base graph, with the nodes whose
/// routes the replica must keep exact for its callers.
struct Pair {
    replica: FastConverge,
    twin: FastConverge,
    origins: Vec<Asn>,
    /// Per node: it has a customer in the base graph or is a vantage.
    must_store: Vec<bool>,
}

impl Pair {
    fn new(g: AsGraph, origins: Vec<Asn>, vantages: &[Asn]) -> Pair {
        let mut must_store: Vec<bool> = (0..g.len())
            .map(|v| {
                g.neighbors_idx(v)
                    .iter()
                    .any(|&(_, r)| r == Relationship::Customer)
            })
            .collect();
        for &v in vantages {
            must_store[g.index_of(v).expect("vantage in graph")] = true;
        }
        let replica = FastConverge::with_vantages(
            g.clone(),
            origins.iter().copied(),
            vantages.iter().copied(),
            1,
        );
        let twin = FastConverge::new(g, origins.iter().copied());
        let origins = replica.origins().collect();
        Pair {
            replica,
            twin,
            origins,
            must_store,
        }
    }

    /// The base links between an elided origin (one with no customer
    /// that is not a vantage) and a node that must be stored, as
    /// `(origin, neighbor)`.
    fn elided_origin_links(&self, links: &[(Asn, Asn)]) -> Vec<(Asn, Asn)> {
        let g = self.replica.graph();
        let elided_origin =
            |a: Asn| !self.must_store[g.index_of(a).unwrap()] && self.origins.contains(&a);
        let stored = |a: Asn| self.must_store[g.index_of(a).unwrap()];
        links
            .iter()
            .flat_map(|&(a, b)| [(a, b), (b, a)])
            .filter(|&(o, w)| elided_origin(o) && stored(w))
            .collect()
    }

    /// Fail and then restore `o`–`w`, checking after each.
    fn cycle_and_check(&mut self, (o, w): (Asn, Asn), what: &str) {
        for up in [false, true] {
            let what = format!("{what}: elided origin link {o}-{w} up={up}");
            self.apply_and_check(LinkChange { a: o, b: w, up }, &what);
        }
    }

    /// The twin's routes toward `o` at the must-store nodes (`None`
    /// elsewhere).
    fn stored_routes(&self, o: Asn) -> Vec<Route> {
        let tree = self.twin.tree(o).unwrap();
        (0..self.must_store.len())
            .map(|i| {
                if self.must_store[i] {
                    tree.route_at_idx(i)
                } else {
                    None
                }
            })
            .collect()
    }

    /// Apply `change` to both and check the three properties of the
    /// module doc.
    fn apply_and_check(&mut self, change: LinkChange, what: &str) {
        let before: Vec<(u64, Vec<Route>)> = self
            .origins
            .iter()
            .map(|&o| (self.replica.tree(o).unwrap().epoch(), self.stored_routes(o)))
            .collect();
        let changed = self.replica.apply(change);
        self.twin.apply(change);
        let g = self.replica.graph();
        let n = g.len();
        let mut moved = Vec::new();
        for (&o, (epoch, old)) in self.origins.iter().zip(&before) {
            let tree = self.replica.tree(o).unwrap();
            let fresh = RoutingTree::compute(g, o).unwrap();
            for i in 0..n {
                assert_eq!(
                    tree.route_at(g, i),
                    fresh.route_at_idx(i),
                    "{what}: tree toward {o} differs from a fresh compute at {}",
                    g.asn_of(i)
                );
            }
            let now = self.stored_routes(o);
            let hops_moved: Vec<usize> = (0..n)
                .filter(|&i| old[i].map(|r| r.2) != now[i].map(|r| r.2))
                .collect();
            if tree.epoch() == *epoch {
                assert!(
                    hops_moved.is_empty(),
                    "{what}: tree toward {o} kept its epoch but moved {hops_moved:?}"
                );
            } else {
                assert_eq!(
                    tree.trace_epoch(),
                    *epoch,
                    "{what}: trace of {o} starts late"
                );
                for &i in &hops_moved {
                    assert!(
                        tree.trace().iter().any(|&(v, _, _)| v as usize == i),
                        "{what}: trace of {o} misses {}",
                        g.asn_of(i)
                    );
                }
            }
            if now != *old {
                moved.push(o);
            }
        }
        assert_eq!(
            changed, moved,
            "{what}: returned origins are not the moved trees"
        );
    }
}

/// A compact description of a random layered topology: node `i`'s
/// providers are drawn among nodes `< i`, so the hierarchy is acyclic,
/// and the ASN order disagrees with node order, so every tie-break is
/// decided by ASN. The stubs come last, so no one buys transit from
/// them.
#[derive(Debug, Clone)]
struct RandomTopo {
    /// For each node after the first two, its providers.
    attach: Vec<Vec<proptest::sample::Index>>,
    peerings: Vec<(proptest::sample::Index, proptest::sample::Index)>,
    /// Per stub: two distinct providers, any further ones, and its peers
    /// among the nodes before it.
    stubs: Vec<Stub>,
    vantages: Vec<proptest::sample::Index>,
}

#[derive(Debug, Clone)]
struct Stub {
    providers: (proptest::sample::Index, proptest::sample::Index),
    more_providers: Vec<proptest::sample::Index>,
    peers: Vec<proptest::sample::Index>,
}

fn arb_topo() -> impl Strategy<Value = RandomTopo> {
    (
        proptest::collection::vec(
            proptest::collection::vec(any::<proptest::sample::Index>(), 1..3),
            3..16,
        ),
        proptest::collection::vec(
            (
                any::<proptest::sample::Index>(),
                any::<proptest::sample::Index>(),
            ),
            0..6,
        ),
        proptest::collection::vec(
            (
                (
                    any::<proptest::sample::Index>(),
                    any::<proptest::sample::Index>(),
                ),
                proptest::collection::vec(any::<proptest::sample::Index>(), 0..2),
                proptest::collection::vec(any::<proptest::sample::Index>(), 1..3),
            )
                .prop_map(|(providers, more_providers, peers)| Stub {
                    providers,
                    more_providers,
                    peers,
                }),
            1..5,
        ),
        proptest::collection::vec(any::<proptest::sample::Index>(), 0..4),
    )
        .prop_map(|(attach, peerings, stubs, vantages)| RandomTopo {
            attach,
            peerings,
            stubs,
            vantages,
        })
}

fn asn(i: usize) -> Asn {
    Asn(((i * 37) % 101 + 1) as u32)
}

fn build(t: &RandomTopo) -> (AsGraph, Vec<Asn>) {
    let layered = t.attach.len() + 2;
    let n = layered + t.stubs.len();
    let mut g = AsGraph::new();
    for i in 0..n {
        let tier = match i {
            0 | 1 => Tier::Tier1,
            i if i < layered => Tier::Tier2,
            _ => Tier::Stub,
        };
        g.add_as(asn(i), tier).unwrap();
    }
    g.add_peering(asn(0), asn(1)).unwrap();
    for (k, provs) in t.attach.iter().enumerate() {
        let me = k + 2;
        for p in provs {
            let p = p.index(me);
            if g.relationship(asn(me), asn(p)).is_none() {
                g.add_customer_provider(asn(me), asn(p)).unwrap();
            }
        }
    }
    for (a, b) in &t.peerings {
        let (a, b) = (a.index(layered), b.index(layered));
        if a != b && g.relationship(asn(a), asn(b)).is_none() {
            g.add_peering(asn(a), asn(b)).unwrap();
        }
    }
    for (k, stub) in t.stubs.iter().enumerate() {
        let me = layered + k;
        let p0 = stub.providers.0.index(layered);
        let p1 = (p0 + 1 + stub.providers.1.index(layered - 1)) % layered;
        let more = stub.more_providers.iter().map(|p| p.index(layered));
        for p in [p0, p1].into_iter().chain(more) {
            if g.relationship(asn(me), asn(p)).is_none() {
                g.add_customer_provider(asn(me), asn(p)).unwrap();
            }
        }
        for q in &stub.peers {
            let q = q.index(me);
            if g.relationship(asn(me), asn(q)).is_none() {
                g.add_peering(asn(me), asn(q)).unwrap();
            }
        }
    }
    g.compact();
    let vantages = t.vantages.iter().map(|v| asn(v.index(n))).collect();
    (g, vantages)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random down/up churn over every origin's tree: a draw may repeat
    /// a failure or raise an up link, which must move nothing. About a
    /// third of the draws instead fail and restore a link of an elided
    /// origin.
    #[test]
    fn vantage_trees_are_exact_on_random_topologies(
        t in arb_topo(),
        churn in proptest::collection::vec(
            (any::<proptest::sample::Index>(), any::<bool>(), 0u8..3),
            1..40,
        ),
    ) {
        let (g, vantages) = build(&t);
        let links = links_of(&g);
        let origins: Vec<Asn> = g.asns().collect();
        let mut pair = Pair::new(g, origins, &vantages);
        let elided = pair.elided_origin_links(&links);
        for (event, (link_ix, up, kind)) in churn.into_iter().enumerate() {
            let what = format!("event {event} (vantages {vantages:?})");
            if kind == 0 && !elided.is_empty() {
                pair.cycle_and_check(elided[link_ix.index(elided.len())], &what);
                continue;
            }
            let (a, b) = links[link_ix.index(links.len())];
            let what = format!("{what}: {a}-{b} up={up}");
            pair.apply_and_check(LinkChange { a, b, up }, &what);
        }
    }
}

#[test]
fn vantage_trees_are_exact_on_generated_topologies() {
    for seed in env_seeds(&[1, 2, 3]) {
        for (name, config, stride) in [
            ("small", TopologyConfig::small(seed), 2),
            ("regional-800", TopologyConfig::internet(800, seed), 20),
        ] {
            let g = TopologyGenerator::new(config).generate().graph;
            let links = links_of(&g);
            let mut rng = TestRng::from_seed(seed ^ 0x7A27);
            let vantages: Vec<Asn> = (0..8).map(|_| g.asn_of(rng.below(g.len()))).collect();
            let origins: Vec<Asn> = g.asns().step_by(stride).collect();
            let mut pair = Pair::new(g, origins, &vantages);
            let elided = pair.elided_origin_links(&links);
            assert!(
                !elided.is_empty(),
                "{name}/seed={seed:#x}: no elided origin"
            );
            // Each event toggles a drawn link: it fails if up and is
            // restored if down. Every third draw is a vantage's link, so
            // customer-less vantages see their own churn, and every
            // third after it fails and restores a link of an elided
            // origin.
            for event in 0..60 {
                if event % 3 == 1 {
                    let what = format!("{name}/seed={seed:#x}: event {event}");
                    pair.cycle_and_check(elided[rng.below(elided.len())], &what);
                    continue;
                }
                let g = pair.replica.graph();
                let (a, b) = if event % 3 == 0 {
                    let v = vantages[rng.below(vantages.len())];
                    let base: Vec<(Asn, Asn)> = links
                        .iter()
                        .copied()
                        .filter(|&(a, b)| a == v || b == v)
                        .collect();
                    base[rng.below(base.len())]
                } else {
                    links[rng.below(links.len())]
                };
                let up = g.relationship(a, b).is_none();
                let what = format!("{name}/seed={seed:#x}: event {event} ({a}-{b} up={up})");
                pair.apply_and_check(LinkChange { a, b, up }, &what);
            }
        }
    }
}
