//! Property-based validation of refresh by exception (DESIGN.md §20):
//! on random 200- and 800-AS generated topologies under random
//! down/up churn, after every `FastConverge::apply`
//!
//! 1. every node whose next hop differs between the pre-event and the
//!    post-event tree appears in that tree's trace — the premise the
//!    collector's watch-row test stands on;
//! 2. the filtered refresh (`Collector::refresh_exports_dirty`, which
//!    skips origins whose watch row misses the trace) reports exactly
//!    the per-session dirty sets of a brute-force walk of every
//!    (affected origin, session peer) pair;
//! 3. every cached export equals a fresh `export_into_idx` walk, so a
//!    skipped entry can never hold a stale value.

use proptest::prelude::*;
use quicksand_bgp::{Collector, CollectorConfig, ExportCache, FastConverge, LinkChange};
use quicksand_net::Asn;
use quicksand_topology::{AsGraph, RouteClass, RoutingTree, TopologyConfig, TopologyGenerator};
use std::collections::{BTreeMap, BTreeSet};

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

/// What a session records for one origin: the full peer → origin path
/// and the peer's route class, `None` when unrouted.
type Export = Option<(Vec<Asn>, RouteClass)>;

/// Every node's next-hop index (`None` when unrouted).
fn next_hops(tree: &RoutingTree, n: usize) -> Vec<Option<usize>> {
    (0..n)
        .map(|i| tree.route_at_idx(i).map(|(_, _, next)| next))
        .collect()
}

/// The export a session at `peer` records for `tree`'s origin, by a
/// fresh walk.
fn walk(g: &AsGraph, tree: &RoutingTree, peer: Asn) -> Export {
    let mut path = Vec::new();
    let class = tree.export_into_idx(g, g.index_of(peer)?, &mut path)?;
    Some((path, class))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn watch_rows_skip_only_unchanged_exports(
        seed in any::<u64>(),
        large in any::<bool>(),
        picks in proptest::collection::vec(any::<proptest::sample::Index>(), 48),
        churn in proptest::collection::vec(
            (any::<proptest::sample::Index>(), any::<bool>()),
            20..80,
        ),
    ) {
        let config = if large {
            TopologyConfig::internet(800, seed)
        } else {
            TopologyConfig::small(seed)
        };
        let mut g = TopologyGenerator::new(config).generate().graph;
        g.compact();
        let n = g.len();
        let links = links_of(&g);
        let asns: Vec<Asn> = g.asns().collect();
        // 32 tracked origins and 16 session peers, drawn with repeats
        // (duplicates collapse), so origins and peers overlap at times.
        let origins: Vec<Asn> = picks[..32]
            .iter()
            .map(|ix| asns[ix.index(n)])
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let peers: Vec<Asn> = picks[32..]
            .iter()
            .map(|ix| asns[ix.index(n)])
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut fc = FastConverge::new(g, origins.iter().copied());
        let mut collector = Collector::new(&peers, &CollectorConfig::default())
            .expect("valid collector config");
        let mut cache = ExportCache::new();
        let mut dirty: Vec<Vec<Asn>> = vec![Vec::new(); peers.len()];
        // The brute-force reference: every (origin, peer) export, walked.
        let mut reference: BTreeMap<(Asn, Asn), Export> = BTreeMap::new();
        for &o in &origins {
            let tree = fc.tree(o).expect("tracked");
            collector.refresh_exports(fc.graph(), tree, &mut cache);
            for &p in &peers {
                reference.insert((o, p), walk(fc.graph(), tree, p));
            }
        }

        let mut down: Vec<(Asn, Asn)> = Vec::new();
        for (ix, up) in churn {
            let change = if up && !down.is_empty() {
                let (a, b) = down.swap_remove(ix.index(down.len()));
                LinkChange::up(a, b)
            } else {
                let (a, b) = links[ix.index(links.len())];
                if !down.contains(&(a, b)) {
                    down.push((a, b));
                }
                LinkChange::down(a, b)
            };
            let before: Vec<Vec<Option<usize>>> = origins
                .iter()
                .map(|&o| next_hops(fc.tree(o).expect("tracked"), n))
                .collect();
            let affected = fc.apply(change);

            // (1) The trace names every node whose next hop moved.
            for (&o, before) in origins.iter().zip(&before) {
                let tree = fc.tree(o).expect("tracked");
                let traced: BTreeSet<usize> =
                    tree.trace().iter().map(|&(v, _, _)| v as usize).collect();
                for (v, (old, new)) in before.iter().zip(next_hops(tree, n)).enumerate() {
                    prop_assert!(
                        *old == new || traced.contains(&v),
                        "origin {} node {} moved {:?} -> {:?} untraced after {:?}",
                        o, v, old, new, change
                    );
                }
            }

            // (2) The filtered refresh reports the brute-force dirty sets.
            dirty.iter_mut().for_each(Vec::clear);
            for &o in &affected {
                let tree = fc.tree(o).expect("tracked");
                collector.refresh_exports_dirty(fc.graph(), tree, &mut cache, &mut dirty);
            }
            let mut expected: Vec<Vec<Asn>> = vec![Vec::new(); peers.len()];
            for &o in &affected {
                let tree = fc.tree(o).expect("tracked");
                for (si, &p) in peers.iter().enumerate() {
                    let now = walk(fc.graph(), tree, p);
                    if reference.insert((o, p), now.clone()) != Some(now) {
                        expected[si].push(o);
                    }
                }
            }
            prop_assert_eq!(&dirty, &expected, "dirty sets diverged after {:?}", change);

            // (3) Every cached export, skipped or walked, is current.
            for &o in &origins {
                let tree = fc.tree(o).expect("tracked");
                for &p in &peers {
                    let cached = cache
                        .get(o, p)
                        .map(|(id, class)| (collector.arena().resolve(id).asns().to_vec(), class));
                    prop_assert_eq!(
                        cached,
                        walk(fc.graph(), tree, p),
                        "stale export for origin {} at peer {} after {:?}",
                        o, p, change
                    );
                }
            }
        }
    }
}
