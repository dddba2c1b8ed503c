//! Internet-exchange-level adversaries (the paper's related work \[27\]:
//! Murdoch & Zieliński, "Sampled traffic analysis by
//! Internet-exchange-level adversaries" — "also in a position to
//! observe significant fraction of Internet traffic").
//!
//! An IXP is not an AS: it is the shared fabric where many peering
//! links land. One compromised exchange therefore observes *every*
//! peering link it hosts — a different, and often larger, footprint
//! than a single malicious AS. This module assigns the topology's
//! peering links to a small set of exchanges (size-skewed, like the
//! real handful of dominant European IXPs) and evaluates how many
//! circuits each exchange can deanonymize, compared with AS-level
//! adversaries of the same count.

use crate::adversary::{ObservationMode, SegmentObservers};
use quicksand_net::Asn;
use quicksand_topology::{AsGraph, Relationship, RoutingTree};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::{BTreeMap, BTreeSet};

/// An exchange identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct IxpId(pub u32);

/// The assignment of peering links to exchanges.
#[derive(Clone, Debug, Default)]
pub struct IxpMap {
    /// Peering link (lo, hi) → exchange.
    pub link_ixp: BTreeMap<(Asn, Asn), IxpId>,
    /// Number of exchanges.
    pub n_ixps: usize,
}

impl IxpMap {
    /// Assign every peering link in `graph` to one of `n_ixps`
    /// exchanges with a rank-weighted (Zipf-ish) draw: the first
    /// exchanges host most peerings, like the real IXP size
    /// distribution. Customer–provider links are private interconnects
    /// and belong to no exchange.
    pub fn assign(graph: &AsGraph, n_ixps: usize, seed: u64) -> IxpMap {
        assert!(n_ixps > 0, "need at least one exchange");
        let mut rng = StdRng::seed_from_u64(seed);
        let weights: Vec<f64> = (1..=n_ixps).map(|k| 1.0 / k as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut link_ixp = BTreeMap::new();
        for i in 0..graph.len() {
            let a = graph.asn_of(i);
            for &(j, rel) in graph.neighbors_idx(i) {
                let b = graph.asn_of(j);
                if a >= b || rel != Relationship::Peer {
                    continue;
                }
                let mut x = rng.gen_range(0.0..total);
                let mut chosen = n_ixps - 1;
                for (k, w) in weights.iter().enumerate() {
                    if x < *w {
                        chosen = k;
                        break;
                    }
                    x -= w;
                }
                link_ixp.insert((a, b), IxpId(chosen as u32));
            }
        }
        IxpMap { link_ixp, n_ixps }
    }

    /// The exchange hosting the peering link `a`–`b`, if it is a
    /// peering link at all.
    pub fn ixp_of(&self, a: Asn, b: Asn) -> Option<IxpId> {
        let k = if a <= b { (a, b) } else { (b, a) };
        self.link_ixp.get(&k).copied()
    }

    /// The exchanges crossed by an AS-level path (each consecutive pair
    /// that is a peering link contributes its exchange).
    pub fn ixps_on_path(&self, path: &[Asn]) -> BTreeSet<IxpId> {
        path.windows(2)
            .filter_map(|w| self.ixp_of(w[0], w[1]))
            .collect()
    }
}

/// Can the single exchange `ixp` deanonymize a circuit under `mode`?
/// The exchange observes a segment direction iff the corresponding path
/// crosses one of its peering links.
pub fn ixp_can_deanonymize(
    map: &IxpMap,
    ixp: IxpId,
    mode: ObservationMode,
    paths: &SegmentPaths,
) -> bool {
    let on = |path: &[Asn]| map.ixps_on_path(path).contains(&ixp);
    match mode {
        ObservationMode::SymmetricOnly => {
            (on(&paths.entry_fwd) && on(&paths.exit_fwd))
                || (on(&paths.entry_rev) && on(&paths.exit_rev))
        }
        ObservationMode::AnyDirection => {
            (on(&paths.entry_fwd) || on(&paths.entry_rev))
                && (on(&paths.exit_fwd) || on(&paths.exit_rev))
        }
    }
}

/// The four segment paths as ordered AS sequences (the observer sets in
/// [`SegmentObservers`] lose the adjacency needed to locate IXP
/// crossings).
#[derive(Clone, Debug)]
pub struct SegmentPaths {
    /// client→guard.
    pub entry_fwd: Vec<Asn>,
    /// guard→client.
    pub entry_rev: Vec<Asn>,
    /// exit→destination.
    pub exit_fwd: Vec<Asn>,
    /// destination→exit.
    pub exit_rev: Vec<Asn>,
}

/// Result of the IXP-vs-AS comparison.
#[derive(Clone, Debug)]
pub struct IxpExperiment {
    /// Fraction of circuits the *strongest single exchange* can
    /// deanonymize.
    pub best_ixp_fraction: f64,
    /// Fraction of circuits the strongest single AS (over the same
    /// sample) can deanonymize.
    pub best_as_fraction: f64,
    /// Per-exchange deanonymizable-circuit fractions, by exchange rank.
    pub per_ixp: Vec<f64>,
    /// Circuits sampled.
    pub n_circuits: usize,
}

/// Compare exchange-level and AS-level single-adversary power over
/// sampled circuits.
pub fn ixp_experiment(
    scenario: &crate::scenario::Scenario,
    map: &IxpMap,
    n_circuits: usize,
    mode: ObservationMode,
    seed: u64,
) -> IxpExperiment {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = &scenario.topo.graph;
    let stubs = &scenario.topo.stubs;
    let guards: Vec<Asn> = scenario.consensus.guards().map(|r| r.host_as).collect();
    let exits: Vec<Asn> = scenario.consensus.exits().map(|r| r.host_as).collect();
    let mut trees: BTreeMap<Asn, RoutingTree> = BTreeMap::new();
    let tree = |a: Asn, trees: &mut BTreeMap<Asn, RoutingTree>| -> RoutingTree {
        trees
            .entry(a)
            .or_insert_with(|| RoutingTree::compute(g, a).expect("routed"))
            .clone()
    };

    let mut ixp_hits = vec![0usize; map.n_ixps];
    let mut as_hits: BTreeMap<Asn, usize> = BTreeMap::new();
    let mut n = 0usize;
    let mut guard_count = 0usize;
    while n < n_circuits && guard_count < n_circuits * 10 {
        guard_count += 1;
        let client = stubs[rng.gen_range(0..stubs.len())];
        let guard = guards[rng.gen_range(0..guards.len())];
        let exit = exits[rng.gen_range(0..exits.len())];
        let dest = stubs[rng.gen_range(0..stubs.len())];
        if [client, guard, exit, dest]
            .iter()
            .collect::<BTreeSet<_>>()
            .len()
            < 4
        {
            continue;
        }
        let tg = tree(guard, &mut trees);
        let tc = tree(client, &mut trees);
        let td = tree(dest, &mut trees);
        let te = tree(exit, &mut trees);
        let Some(obs) =
            SegmentObservers::compute(g, client, guard, exit, dest, &tg, &tc, &td, &te)
        else {
            continue;
        };
        let paths = SegmentPaths {
            entry_fwd: tg.path_from(g, client).expect("routed"),
            entry_rev: tc.path_from(g, guard).expect("routed"),
            exit_fwd: td.path_from(g, exit).expect("routed"),
            exit_rev: te.path_from(g, dest).expect("routed"),
        };
        n += 1;
        for (k, hits) in ixp_hits.iter_mut().enumerate() {
            if ixp_can_deanonymize(map, IxpId(k as u32), mode, &paths) {
                *hits += 1;
            }
        }
        for a in obs.deanonymizing_ases(mode) {
            *as_hits.entry(a).or_default() += 1;
        }
    }
    let n_f = n.max(1) as f64;
    IxpExperiment {
        best_ixp_fraction: ixp_hits.iter().copied().max().unwrap_or(0) as f64 / n_f,
        best_as_fraction: as_hits.values().copied().max().unwrap_or(0) as f64 / n_f,
        per_ixp: ixp_hits.iter().map(|&h| h as f64 / n_f).collect(),
        n_circuits: n,
    }
}

/// Render the comparison.
pub fn render_ixp(e: &IxpExperiment) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "X1: IXP-level adversaries ([27]) over {} circuits — strongest exchange \
         deanonymizes {:.1}%, strongest single AS {:.1}%",
        e.n_circuits,
        100.0 * e.best_ixp_fraction,
        100.0 * e.best_as_fraction
    );
    let _ = writeln!(s, "  exchange rank → deanonymizable circuits %");
    for (k, f) in e.per_ixp.iter().enumerate().take(8) {
        let _ = writeln!(s, "    #{k}: {:>5.1}%", 100.0 * f);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_covers_exactly_the_peering_links() {
        let (s, _) = crate::testworld::get();
        let g = &s.topo.graph;
        let map = IxpMap::assign(g, 4, 1);
        // Every map entry is a real peering link.
        for &(a, b) in map.link_ixp.keys() {
            assert_eq!(g.relationship(a, b), Some(Relationship::Peer));
        }
        // Every peering link is mapped.
        let mut n_peer = 0;
        for i in 0..g.len() {
            let a = g.asn_of(i);
            for &(j, rel) in g.neighbors_idx(i) {
                let b = g.asn_of(j);
                if a < b && rel == Relationship::Peer {
                    n_peer += 1;
                    assert!(map.ixp_of(a, b).is_some());
                }
            }
        }
        assert_eq!(map.link_ixp.len(), n_peer);
        // Customer-provider links are not at exchanges.
        let stub = s.topo.stubs[0];
        let provider = g.providers(stub).next().unwrap();
        assert_eq!(map.ixp_of(stub, provider), None);
    }

    #[test]
    fn first_exchange_hosts_the_most_links() {
        let (s, _) = crate::testworld::get();
        let map = IxpMap::assign(&s.topo.graph, 5, 2);
        let counts: Vec<usize> = (0..5)
            .map(|k| map.link_ixp.values().filter(|&&x| x == IxpId(k)).count())
            .collect();
        assert_eq!(counts.iter().sum::<usize>(), map.link_ixp.len());
        assert!(
            counts[0] >= counts[4],
            "rank-1 exchange should dominate: {counts:?}"
        );
    }

    #[test]
    fn experiment_runs_and_bounds_hold() {
        let (s, _) = crate::testworld::get();
        let map = IxpMap::assign(&s.topo.graph, 4, 3);
        let e = ixp_experiment(s, &map, 30, ObservationMode::AnyDirection, 4);
        assert!(e.n_circuits >= 20);
        assert!(e.best_ixp_fraction >= 0.0 && e.best_ixp_fraction <= 1.0);
        assert!(e.best_as_fraction >= 0.0 && e.best_as_fraction <= 1.0);
        assert_eq!(e.per_ixp.len(), 4);
        // The best exchange is at least as strong as the average one.
        let mean: f64 = e.per_ixp.iter().sum::<f64>() / 4.0;
        assert!(e.best_ixp_fraction >= mean - 1e-12);
    }

    #[test]
    fn ixps_on_path_detects_crossings() {
        let (s, _) = crate::testworld::get();
        let g = &s.topo.graph;
        let map = IxpMap::assign(g, 3, 5);
        // Find some peering link and a fabricated path across it.
        let (&(a, b), &ixp) = map.link_ixp.iter().next().expect("peer links exist");
        let crossings = map.ixps_on_path(&[a, b]);
        assert!(crossings.contains(&ixp));
        assert!(map.ixps_on_path(&[a]).is_empty());
    }
}
