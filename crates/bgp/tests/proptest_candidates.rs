//! The candidate filter of `FastConverge::apply` is exact (DESIGN.md
//! §24). One `must_redecide` scan at both link endpoints picks the trees
//! an event reconverges, for failures and recoveries alike. Under random
//! down/up churn, after every event:
//!
//! 1. a failure's `recomputes` delta equals the number of tracked trees
//!    that `uses_link` reported for the link before the event — the
//!    trees the failed link carried traffic in, no more and no fewer;
//! 2. the origins `apply` returns are exactly the trees whose
//!    `route_at_idx` entries changed, in ascending order;
//! 3. every tracked tree equals a fresh `RoutingTree::compute`.
//!
//! The topologies are random tiered graphs (compacted, as the generator
//! leaves them), the small tier's 200-AS generator and the 800-AS
//! regional generator. `QUICKSAND_TEST_SEEDS` (comma-separated, decimal
//! or `0x`-hex) replaces the generated topologies' default seeds.

use proptest::prelude::*;
use proptest::TestRng;
use quicksand_bgp::{FastConverge, LinkChange};
use quicksand_net::Asn;
use quicksand_topology::{
    AsGraph, RouteClass, RoutingTree, Tier, TopologyConfig, TopologyGenerator,
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

/// Every node's route as `(class, dist, next)`.
type Routes = Vec<Option<(RouteClass, u32, usize)>>;

fn routes(tree: &RoutingTree, n: usize) -> Routes {
    (0..n).map(|i| tree.route_at_idx(i)).collect()
}

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

/// Apply `change` to `fc` and check the three properties of the module
/// doc for it.
fn apply_and_check(fc: &mut FastConverge, change: LinkChange, what: &str) {
    let LinkChange { a, b, up } = change;
    let n = fc.graph().len();
    let origins: Vec<Asn> = fc.origins().collect();
    let before: Vec<Routes> = origins
        .iter()
        .map(|&o| routes(fc.tree(o).unwrap(), n))
        .collect();
    // The trees the link carries traffic in, read before the event. A
    // link that is already down carries none.
    let carrying = origins
        .iter()
        .filter(|&&o| fc.tree(o).unwrap().uses_link(fc.graph(), a, b))
        .count() as u64;
    let recomputes = fc.recomputes;
    let changed = fc.apply(change);
    let delta = fc.recomputes - recomputes;
    if !up {
        assert_eq!(
            delta, carrying,
            "{what}: a failure must reconverge exactly the trees that used the link"
        );
    }
    let moved: Vec<Asn> = origins
        .iter()
        .zip(&before)
        .filter(|&(&o, old)| routes(fc.tree(o).unwrap(), n) != *old)
        .map(|(&o, _)| o)
        .collect();
    assert_eq!(
        changed, moved,
        "{what}: returned origins are not the moved trees"
    );
    assert!(
        delta >= moved.len() as u64,
        "{what}: {} trees moved but only {delta} were reconverged",
        moved.len()
    );
    for &o in &origins {
        let fresh = RoutingTree::compute(fc.graph(), o).unwrap();
        assert_eq!(
            routes(fc.tree(o).unwrap(), n),
            routes(&fresh, n),
            "{what}: tree toward {o} differs from a fresh compute"
        );
    }
}

/// A compact description of a random tiered topology that is always
/// well-formed (connected through providers by construction).
#[derive(Debug, Clone)]
struct RandomTopo {
    n_t1: usize,
    /// For each non-T1 AS (in creation order), the providers chosen
    /// among previously created ASes (non-empty).
    attach: Vec<Vec<usize>>,
    /// Peering links among non-T1 ASes as (i, j) index pairs.
    peerings: Vec<(usize, usize)>,
}

fn arb_topo() -> impl Strategy<Value = RandomTopo> {
    (2usize..4, 4usize..14).prop_flat_map(|(n_t1, n_rest)| {
        let attach = proptest::collection::vec(
            proptest::collection::vec(any::<proptest::sample::Index>(), 1..3),
            n_rest,
        );
        let peerings = proptest::collection::vec(
            (
                any::<proptest::sample::Index>(),
                any::<proptest::sample::Index>(),
            ),
            0..4,
        );
        (Just(n_t1), attach, peerings).prop_map(move |(n_t1, attach, peerings)| {
            RandomTopo {
                n_t1,
                attach: attach
                    .into_iter()
                    .enumerate()
                    .map(|(k, provs)| {
                        let pool = n_t1 + k; // providers among earlier ASes
                        let mut v: Vec<usize> =
                            provs.into_iter().map(|ix| ix.index(pool)).collect();
                        v.sort_unstable();
                        v.dedup();
                        v
                    })
                    .collect(),
                peerings: peerings
                    .into_iter()
                    .map(|(a, b)| (a.index(n_rest), b.index(n_rest)))
                    .collect(),
            }
        })
    })
}

fn build(t: &RandomTopo) -> AsGraph {
    let mut g = AsGraph::new();
    let n = t.n_t1 + t.attach.len();
    for i in 0..n {
        let tier = if i < t.n_t1 { Tier::Tier1 } else { Tier::Tier2 };
        g.add_as(Asn(i as u32 + 1), tier).unwrap();
    }
    // T1 clique.
    for i in 0..t.n_t1 {
        for j in (i + 1)..t.n_t1 {
            g.add_peering(Asn(i as u32 + 1), Asn(j as u32 + 1)).unwrap();
        }
    }
    for (k, provs) in t.attach.iter().enumerate() {
        let me = Asn((t.n_t1 + k) as u32 + 1);
        for &p in provs {
            let p = Asn(p as u32 + 1);
            if g.relationship(me, p).is_none() {
                g.add_customer_provider(me, p).unwrap();
            }
        }
    }
    for &(a, b) in &t.peerings {
        let (a, b) = (Asn((t.n_t1 + a) as u32 + 1), Asn((t.n_t1 + b) as u32 + 1));
        if a != b && g.relationship(a, b).is_none() {
            g.add_peering(a, b).unwrap();
        }
    }
    // The scenario pipeline hands `FastConverge` a compacted (CSR
    // re-laid-out) graph; exercise the same node-index regime here.
    g.compact();
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A random down/up churn sequence over every origin's tree: each
    /// draw may repeat a failure or raise an up link, which must move
    /// nothing.
    #[test]
    fn candidate_filter_is_exact_on_random_topologies(
        t in arb_topo(),
        churn in proptest::collection::vec(
            (any::<proptest::sample::Index>(), any::<bool>()),
            1..40,
        ),
    ) {
        let g = build(&t);
        let links = links_of(&g);
        let origins: Vec<Asn> = g.asns().collect();
        let mut fc = FastConverge::new(g, origins);
        for (event, (link_ix, up)) in churn.into_iter().enumerate() {
            let (a, b) = links[link_ix.index(links.len())];
            let what = format!("event {event} ({a}-{b} up={up})");
            apply_and_check(&mut fc, LinkChange { a, b, up }, &what);
        }
    }
}

#[test]
fn candidate_filter_is_exact_on_generated_topologies() {
    for seed in env_seeds(&[1, 2, 3]) {
        for (name, config, stride) in [
            ("small", TopologyConfig::small(seed), 2),
            ("regional-800", TopologyConfig::internet(800, seed), 20),
        ] {
            let g = TopologyGenerator::new(config).generate().graph;
            let links = links_of(&g);
            let origins: Vec<Asn> = g.asns().step_by(stride).collect();
            let mut fc = FastConverge::new(g, origins);
            // Each event toggles a drawn link: it fails if up and is
            // restored if down, so both kinds of event move trees.
            let mut rng = TestRng::from_seed(seed ^ 0xCA4D);
            for event in 0..40 {
                let (a, b) = links[rng.below(links.len())];
                let up = fc.graph().relationship(a, b).is_none();
                let what = format!("{name}/seed={seed:#x}: event {event} ({a}-{b} up={up})");
                apply_and_check(&mut fc, LinkChange { a, b, up }, &what);
            }
        }
    }
}
