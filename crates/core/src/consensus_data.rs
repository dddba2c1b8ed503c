//! Relay-published path dynamics, distributed through the consensus —
//! §5's concrete mechanism: "each relay could publish the list of any
//! ASes it used to reach each destination prefix in the last month.
//! This information can be distributed to all Tor clients as part of
//! the Tor network consensus data. Tor clients can use this data in
//! relay selection, perhaps in combination with their own traceroute
//! measurements of the forward path to each guard relay."
//!
//! This module implements that pipeline faithfully — including its
//! information gaps, which is the point of evaluating it:
//!
//! * guards publish the *reverse* (guard→client-AS) AS sets they
//!   actually used over the month ([`publish_guard_dynamics`]);
//! * clients probe their *forward* path with traceroute, which is
//!   incomplete (non-responding hops);
//! * a client's exposure estimate is the union of the two
//!   ([`estimate_exposure`]), which under- or over-counts relative to
//!   the oracle (the true bidirectional month-long exposure);
//! * [`evaluate_published_dynamics`] measures how much of the oracle
//!   strategy's benefit the publishable mechanism retains.

use crate::scenario::Scenario;
use quicksand_net::{Asn, SimDuration};
use quicksand_topology::probe::{observed_ases, ProbeConfig};
use quicksand_topology::RoutingTree;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::{BTreeMap, BTreeSet};

/// What one guard AS publishes: per client AS, the set of ASes its
/// traffic toward that client crossed during the last month.
#[derive(Clone, Debug, Default)]
pub struct PublishedDynamics {
    /// (guard AS, client AS) → published AS set.
    pub entries: BTreeMap<(Asn, Asn), BTreeSet<Asn>>,
}

impl PublishedDynamics {
    /// The published set for a (guard AS, client AS) pair, if any.
    pub fn get(&self, guard_as: Asn, client_as: Asn) -> Option<&BTreeSet<Asn>> {
        self.entries.get(&(guard_as, client_as))
    }

    /// Size of the consensus extension in entries (the deployment-cost
    /// figure a real proposal would have to justify).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been published.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Run the relay-side measurement: replay the month and record, per
/// (guard AS, client AS), the distinct ASes (≥ 5 min) on the
/// guard→client direction — what the relay can actually observe and
/// publish.
pub fn publish_guard_dynamics(
    scenario: &Scenario,
    guard_ases: &[Asn],
    client_ases: &[Asn],
) -> PublishedDynamics {
    // Reverse direction: vantage = guard AS, origin = client AS.
    let hist = scenario.path_history(guard_ases, client_ases);
    let horizon = scenario.horizon_end();
    let min_dur = SimDuration::from_mins(5);
    PublishedDynamics {
        entries: hist
            .into_iter()
            .map(|((guard, client), tl)| {
                ((guard, client), tl.distinct_ases(horizon, min_dur))
            })
            .collect(),
    }
}

/// A client's exposure estimate for one candidate guard: the guard's
/// published reverse set united with the client's own (incomplete)
/// forward traceroute snapshot.
pub fn estimate_exposure(
    scenario: &Scenario,
    published: &PublishedDynamics,
    forward_tree: &RoutingTree,
    client_as: Asn,
    guard_as: Asn,
    probe: &ProbeConfig,
) -> BTreeSet<Asn> {
    let mut est = published
        .get(guard_as, client_as)
        .cloned()
        .unwrap_or_default();
    est.extend(observed_ases(
        &scenario.topo.graph,
        forward_tree,
        client_as,
        probe,
    ));
    est
}

/// The evaluation result: mean *true* bidirectional exposure of the
/// guards each method selects.
#[derive(Clone, Debug)]
pub struct PublishedDynamicsEval {
    /// Bandwidth-weighted (vanilla) selection.
    pub vanilla_x: f64,
    /// Selection by the §5 published-data estimate.
    pub published_x: f64,
    /// Selection with oracle knowledge of true bidirectional exposure.
    pub oracle_x: f64,
    /// Consensus-extension size (published entries).
    pub published_entries: usize,
    /// Clients sampled.
    pub n_clients: usize,
}

/// Compare guard selection by (a) bandwidth, (b) the publishable §5
/// estimate, and (c) an oracle, on the *true* month-long bidirectional
/// exposure metric. The published mechanism should land between the
/// two — that gap is the cost of deployability.
pub fn evaluate_published_dynamics(
    scenario: &Scenario,
    n_clients: usize,
    guards_per_client: usize,
    seed: u64,
) -> PublishedDynamicsEval {
    let mut rng = StdRng::seed_from_u64(seed);
    let probe = ProbeConfig::default();

    // Candidate guards: top by bandwidth, one per AS.
    let mut guards: Vec<&quicksand_tor::Relay> = scenario.consensus.guards().collect();
    guards.sort_by_key(|r| std::cmp::Reverse(r.bandwidth_kbs));
    let mut guard_ases: Vec<Asn> = Vec::new();
    for r in &guards {
        if guard_ases.len() >= 16 {
            break;
        }
        if !guard_ases.contains(&r.host_as) {
            guard_ases.push(r.host_as);
        }
    }
    let mut clients: Vec<Asn> = scenario.topo.stubs.clone();
    clients.shuffle(&mut rng);
    clients.truncate(n_clients);

    // Relay-side publication (reverse sets) and oracle forward sets.
    let published = publish_guard_dynamics(scenario, &guard_ases, &clients);
    let fwd_hist = scenario.path_history(&clients, &guard_ases);
    let horizon = scenario.horizon_end();
    let min_dur = SimDuration::from_mins(5);
    let fwd_set = |c: Asn, g: Asn| -> BTreeSet<Asn> {
        fwd_hist
            .get(&(c, g))
            .map(|tl| tl.distinct_ases(horizon, min_dur))
            .unwrap_or_default()
    };
    // True bidirectional exposure (the metric): forward ∪ reverse.
    let true_exposure = |c: Asn, g: Asn| -> BTreeSet<Asn> {
        let mut s = fwd_set(c, g);
        if let Some(rev) = published.get(g, c) {
            s.extend(rev.iter().copied());
        }
        s
    };

    // Current forward trees for the client-side traceroute snapshots,
    // built over one shared view of the graph.
    let trees: BTreeMap<Asn, RoutingTree> =
        RoutingTree::compute_many(&scenario.topo.graph, guard_ases.iter().copied())
            .map(|t| {
                let t = t.expect("guard AS routed");
                (t.dest(), t)
            })
            .collect();

    let pick_by = |scores: &BTreeMap<Asn, usize>, l: usize| -> Vec<Asn> {
        let mut ranked: Vec<Asn> = guard_ases.clone();
        ranked.sort_by_key(|g| scores.get(g).copied().unwrap_or(usize::MAX));
        ranked.into_iter().take(l).collect()
    };

    let mut sums = [0.0f64; 3]; // vanilla, published, oracle
    for &client in &clients {
        // Vanilla: bandwidth order = guard_ases order (already sorted
        // by the bandwidth of the best relay per AS).
        let vanilla: Vec<Asn> =
            guard_ases.iter().copied().take(guards_per_client).collect();
        // Published estimate.
        let est_scores: BTreeMap<Asn, usize> = guard_ases
            .iter()
            .map(|&g| {
                (
                    g,
                    estimate_exposure(scenario, &published, &trees[&g], client, g, &probe)
                        .len(),
                )
            })
            .collect();
        let by_published = pick_by(&est_scores, guards_per_client);
        // Oracle.
        let oracle_scores: BTreeMap<Asn, usize> = guard_ases
            .iter()
            .map(|&g| (g, true_exposure(client, g).len()))
            .collect();
        let by_oracle = pick_by(&oracle_scores, guards_per_client);

        for (k, chosen) in [vanilla, by_published, by_oracle].iter().enumerate() {
            let union: BTreeSet<Asn> = chosen
                .iter()
                .flat_map(|&g| true_exposure(client, g))
                .collect();
            sums[k] += union.len() as f64;
        }
    }
    let n = clients.len().max(1) as f64;
    PublishedDynamicsEval {
        vanilla_x: sums[0] / n,
        published_x: sums[1] / n,
        oracle_x: sums[2] / n,
        published_entries: published.len(),
        n_clients: clients.len(),
    }
}

/// Render the evaluation as a text block.
pub fn render_published_dynamics(e: &PublishedDynamicsEval) -> String {
    format!(
        "C1e: §5 published path dynamics ({} clients, {} consensus entries) — \
         mean true exposure x: vanilla {:.1} → published-data {:.1} → oracle {:.1}\n",
        e.n_clients, e.published_entries, e.vanilla_x, e.published_x, e.oracle_x
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publication_covers_requested_pairs() {
        let (s, _) = crate::testworld::get();
        let guards: Vec<Asn> = s
            .consensus
            .guards()
            .map(|r| r.host_as)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .take(4)
            .collect();
        let clients: Vec<Asn> = s.topo.stubs.iter().copied().take(3).collect();
        let p = publish_guard_dynamics(s, &guards, &clients);
        assert_eq!(p.len(), guards.len() * clients.len());
        for ((_, _), set) in &p.entries {
            assert!(!set.is_empty(), "published set empty");
        }
    }

    #[test]
    fn estimate_is_superset_of_traceroute_view() {
        let (s, _) = crate::testworld::get();
        let guard = s.consensus.guards().next().unwrap().host_as;
        let client = s.topo.stubs[2];
        let p = publish_guard_dynamics(s, &[guard], &[client]);
        let tree = RoutingTree::compute(&s.topo.graph, guard).unwrap();
        let probe = ProbeConfig::default();
        let est = estimate_exposure(s, &p, &tree, client, guard, &probe);
        let seen = observed_ases(&s.topo.graph, &tree, client, &probe);
        assert!(seen.is_subset(&est));
        assert!(p.get(guard, client).unwrap().is_subset(&est));
    }

    #[test]
    fn published_selection_between_vanilla_and_oracle() {
        let (s, _) = crate::testworld::get();
        let e = evaluate_published_dynamics(s, 5, 3, 3);
        assert!(e.published_entries > 0);
        // The oracle is optimal for the metric it optimizes.
        assert!(
            e.oracle_x <= e.published_x + 1e-9,
            "oracle {} worse than published {}",
            e.oracle_x,
            e.published_x
        );
        assert!(
            e.oracle_x <= e.vanilla_x + 1e-9,
            "oracle {} worse than vanilla {}",
            e.oracle_x,
            e.vanilla_x
        );
    }
}
