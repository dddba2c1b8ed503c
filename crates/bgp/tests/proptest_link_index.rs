//! Property-based validation of the inverted link→trees index: under
//! random churn on random tiered topologies (compacted, as the
//! generator leaves them), the incrementally maintained index must stay
//! exactly the `uses_link` relation — down-event candidate sets equal
//! the reference per-tree scan, and the bitmaps equal an index rebuilt
//! from the trees' current next hops, through failures *and* link-up
//! restores.

use proptest::prelude::*;
use quicksand_bgp::{FastConverge, LinkChange};
use quicksand_net::Asn;
use quicksand_topology::{AsGraph, Tier};

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
            (any::<proptest::sample::Index>(), any::<proptest::sample::Index>()),
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
        let (a, b) = (
            Asn((t.n_t1 + a) as u32 + 1),
            Asn((t.n_t1 + b) as u32 + 1),
        );
        if a != b && g.relationship(a, b).is_none() {
            g.add_peering(a, b).unwrap();
        }
    }
    // The scenario pipeline hands `FastConverge` a compacted (CSR
    // re-laid-out) graph; exercise the same node-index regime here.
    g.compact();
    g
}

fn links_of(g: &AsGraph) -> Vec<(Asn, Asn)> {
    let mut links = Vec::new();
    for i in 0..g.len() {
        let a = g.asn_of(i);
        for &(j, _) in g.neighbors_idx(i) {
            let b = g.asn_of(j);
            if a < b {
                links.push((a, b));
            }
        }
    }
    links
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Through a random down/up churn sequence, (1) every link-down
    /// candidate set the index yields equals the `uses_link` reference
    /// scan over all tracked trees, and (2) after every event the
    /// maintained index equals one rebuilt from scratch.
    #[test]
    fn link_index_matches_uses_link_reference(
        t in arb_topo(),
        churn in proptest::collection::vec(
            (any::<proptest::sample::Index>(), any::<bool>()),
            1..40,
        ),
    ) {
        let g = build(&t);
        let links = links_of(&g);
        let origins: Vec<Asn> = g.asns().collect();
        let mut fc = FastConverge::new(g, origins.iter().copied());
        prop_assert!(fc.index_is_consistent(), "seed index inconsistent");
        for (link_ix, up) in churn {
            let (a, b) = links[link_ix.index(links.len())];
            // Reference candidate set for a down event: the trees the
            // failed link carries traffic in, by the per-tree scan the
            // index replaced. Next hops and node indices are unchanged
            // by the link removal itself, so the pre-event scan is the
            // in-event truth.
            let reference: Vec<Asn> = if !up && fc.graph().relationship(a, b).is_some() {
                origins
                    .iter()
                    .copied()
                    .filter(|&o| fc.tree(o).unwrap().uses_link(fc.graph(), a, b))
                    .collect()
            } else {
                Vec::new()
            };
            if !up {
                // The candidate set the index yields for a down event,
                // read before the event is applied.
                prop_assert_eq!(
                    &fc.down_candidates(a, b), &reference,
                    "down-candidate set diverged from the uses_link scan for {}-{}", a, b
                );
            }
            fc.apply(LinkChange { a, b, up });
            prop_assert!(
                fc.index_is_consistent(),
                "index inconsistent after {:?} of {}-{}",
                if up { "up" } else { "down" }, a, b
            );
        }
    }
}
