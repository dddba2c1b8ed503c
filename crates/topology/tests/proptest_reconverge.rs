//! Oracle tests for reconvergence by exception (DESIGN.md §21).
//!
//! `RoutingTree::reconverge_with` queues a node only when
//! `RoutingTree::must_redecide` says its decision can change. Random
//! single-link down/up events are applied to one traced tree per
//! destination through the index-addressed `reconverge_with`, with the
//! endpoints and relationship resolved once per event and one
//! `CoreView` of every link flipped with the graph, and after every
//! event each tree must
//!
//! 1. equal a fresh `RoutingTree::compute`, node for node;
//! 2. report a change whenever any entry differs from the pre-event
//!    tree;
//! 3. list in its trace every node whose next hop differs from the
//!    pre-event tree.
//!
//! The topologies are random layered graphs whose ASN order differs
//! from node order (so peers can sit inside customer cones and every
//! tie-break is decided by ASN), the small tier's 200-AS generator and
//! the 800-AS regional generator. `QUICKSAND_TEST_SEEDS`
//! (comma-separated, decimal or `0x`-hex) replaces the default seeds.

use proptest::TestRng;
use quicksand_net::Asn;
use quicksand_topology::{
    AsGraph, CoreView, ReconvergeScratch, Relationship, RouteClass, RoutingTree, Tier,
    TopologyConfig, TopologyGenerator,
};

/// Seeds for the sweeps below; `QUICKSAND_TEST_SEEDS` overrides.
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

/// Every node's route as `(class, dist, next)`.
type Routes = Vec<Option<(RouteClass, u32, usize)>>;

fn routes(tree: &RoutingTree, n: usize) -> Routes {
    (0..n).map(|i| tree.route_at_idx(i)).collect()
}

/// Every link of `g` once, as `(a, b, b as a sees it)`.
fn links_of(g: &AsGraph) -> Vec<(Asn, Asn, Relationship)> {
    let mut links = Vec::new();
    for i in 0..g.len() {
        for &(j, rel) in g.neighbors_idx(i) {
            if i < j {
                links.push((g.asn_of(i), g.asn_of(j), rel));
            }
        }
    }
    links
}

/// Apply `events` random single-link events to `g` — a down event if
/// the drawn link is up, its restore if it is down — reconverging one
/// traced tree toward each of `dests` after each, and check the three
/// properties of the module doc.
fn check_churn(label: &str, mut g: AsGraph, dests: &[Asn], events: usize, seed: u64) {
    let links = links_of(&g);
    if links.is_empty() {
        return;
    }
    let n = g.len();
    let mut trees: Vec<RoutingTree> = RoutingTree::compute_many(&g, dests.iter().copied())
        .map(|t| {
            let mut t = t.expect("destination in graph");
            t.set_tracing(true);
            t
        })
        .collect();
    let mut view = CoreView::new(&g, None);
    let mut scratch = ReconvergeScratch::new();
    let mut rng = TestRng::from_seed(seed);
    for event in 0..events {
        let (a, b, rel) = links[rng.below(links.len())];
        let up = g.relationship(a, b).is_none();
        match (up, rel) {
            (false, _) => g.remove_link(a, b).unwrap(),
            (true, Relationship::Peer) => g.add_peering(a, b).unwrap(),
            (true, Relationship::Customer) => g.add_customer_provider(b, a).unwrap(),
            (true, Relationship::Provider) => g.add_customer_provider(a, b).unwrap(),
        }
        // Resolved once per event, as `FastConverge::apply` does.
        let (ia, ib) = (g.index_of(a).unwrap(), g.index_of(b).unwrap());
        assert!(view.set_link(&g, ia, ib, up), "every link is in the view");
        let rel_of_b = up.then_some(rel);
        assert_eq!(rel_of_b, g.relationship(a, b));
        for tree in &mut trees {
            let dest = tree.dest();
            let what = format!("{label}: event {event} ({a}-{b} up={up}), tree toward {dest}");
            let before = routes(tree, n);
            tree.clear_trace();
            let changed = tree.reconverge_with(&g, &view, ia, ib, rel_of_b, &mut scratch);
            let after = routes(tree, n);
            let fresh = routes(&RoutingTree::compute(&g, dest).unwrap(), n);
            for i in 0..n {
                assert_eq!(after[i], fresh[i], "{what}: differs at {}", g.asn_of(i));
            }
            assert!(
                changed || after == before,
                "{what}: entries changed but reconvergence reported none"
            );
            let next = |r: &Routes, i: usize| r[i].map(|(_, _, next)| next);
            for i in 0..n {
                if next(&before, i) != next(&after, i) {
                    assert!(
                        tree.trace().iter().any(|&(v, _, _)| v as usize == i),
                        "{what}: next hop of {} moved but is not in the trace",
                        g.asn_of(i)
                    );
                }
            }
        }
    }
}

/// A random layered graph of 3–40 ASes: provider links point from
/// higher to lower node index (the hierarchy is acyclic), and ASNs are
/// a permutation of node order.
fn random_graph(rng: &mut TestRng) -> AsGraph {
    let n = 3 + rng.below(38);
    let asn = |i: usize| Asn(((i * 37) % 101 + 1) as u32);
    let mut g = AsGraph::new();
    for i in 0..n {
        g.add_as(asn(i), Tier::Tier2).unwrap();
    }
    for _ in 0..rng.below(90) {
        let (a, b) = (rng.below(n), rng.below(n));
        if a == b || g.relationship(asn(a), asn(b)).is_some() {
            continue;
        }
        if rng.below(2) == 0 {
            g.add_peering(asn(a), asn(b)).unwrap();
        } else {
            g.add_customer_provider(asn(a.max(b)), asn(a.min(b)))
                .unwrap();
        }
    }
    g
}

#[test]
fn filtered_worklist_matches_compute_on_random_graphs() {
    for seed in env_seeds(&[1, 2, 3]) {
        let mut rng = TestRng::from_seed(seed);
        for case in 0..24 {
            let g = random_graph(&mut rng);
            let dests: Vec<Asn> = g.asns().collect();
            let label = format!("random graph {case}/seed={seed:#x}");
            check_churn(&label, g, &dests, 40, rng.next_u64());
        }
    }
}

#[test]
fn filtered_worklist_matches_compute_on_generated_topologies() {
    for seed in env_seeds(&[1, 2, 3]) {
        for (name, config, stride) in [
            ("small", TopologyConfig::small(seed), 2),
            ("regional-800", TopologyConfig::internet(800, seed), 20),
        ] {
            let g = TopologyGenerator::new(config).generate().graph;
            let dests: Vec<Asn> = g.asns().step_by(stride).collect();
            let label = format!("{name}/seed={seed:#x}");
            check_churn(&label, g, &dests, 40, seed ^ 0x5EED);
        }
    }
}
