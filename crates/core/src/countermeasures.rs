//! The §5 countermeasures, implemented and evaluated.
//!
//! * **Dynamics-aware relay selection** — relays publish the ASes used
//!   to reach them over the last month; clients prefer guards whose
//!   client↔guard segment exposed the fewest distinct ASes.
//! * **Shorter AS-PATH preference** — prefer guards with short AS paths
//!   from the client, shrinking the attack surface for stealthy
//!   same-prefix hijacks.
//! * **AS-aware circuit filtering** — "Tor clients should select relays
//!   such that the same AS does not appear in both the first and the
//!   last segments, after taking path dynamics into account."
//! * **Monitoring** — the control-plane monitor of
//!   `quicksand_attack::detect`, evaluated for recall on injected
//!   hijacks/interceptions and alarm rate on natural churn (the paper
//!   accepts false positives: availability is traded for anonymity).

use crate::scenario::{MonthResult, Scenario};
use crate::temporal;
use quicksand_attack::detect::{DetectionScore, PrefixMonitor};
use quicksand_bgp::metrics::{PathTimeline, SessionPrefixRuns};
use quicksand_bgp::{Route, SessionId, UpdateLog, UpdateMessage, UpdateRecord};
use quicksand_net::{AsPath, Asn, Ipv4Prefix, SimDuration, SimTime};
use quicksand_obs as obs;
use quicksand_topology::RoutingTree;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::{BTreeMap, BTreeSet};

/// Guard-selection strategies under evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GuardStrategy {
    /// Tor's default: bandwidth-weighted.
    Vanilla,
    /// Prefer guards with the shortest current AS path from the client.
    ShortestPath,
    /// Prefer guards whose client↔guard segment exposed the fewest
    /// distinct ASes over the last month (the paper's consensus-
    /// published path-dynamics data).
    DynamicsAware,
}

impl GuardStrategy {
    /// All strategies, for sweeps.
    pub const ALL: [GuardStrategy; 3] = [
        GuardStrategy::Vanilla,
        GuardStrategy::ShortestPath,
        GuardStrategy::DynamicsAware,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            GuardStrategy::Vanilla => "vanilla",
            GuardStrategy::ShortestPath => "shortest-path",
            GuardStrategy::DynamicsAware => "dynamics-aware",
        }
    }
}

/// Result of the guard-strategy evaluation.
#[derive(Clone, Debug)]
pub struct GuardStrategyEval {
    /// Rows: `(strategy, mean distinct ASes x across clients, mean
    /// entry-compromise probability at each f in `fs`)`.
    pub rows: Vec<(GuardStrategy, f64, Vec<f64>)>,
    /// The adversarial fractions evaluated.
    pub fs: Vec<f64>,
    /// Clients sampled.
    pub n_clients: usize,
    /// Guards per client.
    pub guards_per_client: usize,
}

/// Evaluate guard strategies over the scenario's churn history.
///
/// For each sampled client and each strategy, pick `l` guards, look up
/// the month's (client → guard-AS) path timelines, count the distinct
/// ASes exposed ≥ 5 minutes (the union over the guard set), and apply
/// the §3.1 model `1 − (1−f)^x`.
pub fn evaluate_guard_strategies(
    scenario: &Scenario,
    n_clients: usize,
    guards_per_client: usize,
    fs: &[f64],
    seed: u64,
) -> GuardStrategyEval {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = &scenario.topo.graph;

    // Candidate guards: top guards by bandwidth (candidate pool kept
    // modest so the history replay stays cheap).
    let mut guards: Vec<&quicksand_tor::Relay> = scenario.consensus.guards().collect();
    guards.sort_by_key(|r| std::cmp::Reverse(r.bandwidth_kbs));
    guards.truncate(24);
    let guard_ases: Vec<Asn> = guards
        .iter()
        .map(|r| r.host_as)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();

    // Sampled clients (stub ASes).
    let mut clients: Vec<Asn> = scenario.topo.stubs.clone();
    clients.shuffle(&mut rng);
    clients.truncate(n_clients);

    // One churn replay provides every (client, guard-AS) timeline.
    let history = scenario.path_history(&clients, &guard_ases);
    let horizon = scenario.horizon_end();
    let min_dur = SimDuration::from_mins(5);
    let exposure = |client: Asn, guard_as: Asn| -> BTreeSet<Asn> {
        history
            .get(&(client, guard_as))
            .map(|tl| tl.distinct_ases(horizon, min_dur))
            .unwrap_or_default()
    };

    // Current path lengths for the shortest-path strategy.
    let mut path_len: BTreeMap<(Asn, Asn), usize> = BTreeMap::new();
    for &ga in &guard_ases {
        let tree = RoutingTree::compute(g, ga).expect("guard AS routed");
        for &c in &clients {
            if let Some(d) = tree.distance(g, c) {
                path_len.insert((c, ga), d as usize);
            }
        }
    }

    let mut rows = Vec::new();
    for strategy in GuardStrategy::ALL {
        let mut x_sum = 0.0;
        let mut p_sums = vec![0.0; fs.len()];
        for &client in &clients {
            // Rank candidate guards per strategy, take the top l from
            // distinct ASes (one guard per AS keeps the union metric
            // meaningful).
            let mut ranked: Vec<&quicksand_tor::Relay> = guards.clone();
            match strategy {
                GuardStrategy::Vanilla => {
                    // Bandwidth-weighted sample without replacement.
                    let mut pool = ranked.clone();
                    let mut chosen = Vec::new();
                    while chosen.len() < guards_per_client && !pool.is_empty() {
                        let total: u64 =
                            pool.iter().map(|r| r.bandwidth_kbs.max(1)).sum();
                        let mut x = rng.gen_range(0..total);
                        let mut idx = 0;
                        for (i, r) in pool.iter().enumerate() {
                            let w = r.bandwidth_kbs.max(1);
                            if x < w {
                                idx = i;
                                break;
                            }
                            x -= w;
                        }
                        chosen.push(pool.remove(idx));
                    }
                    ranked = chosen;
                }
                GuardStrategy::ShortestPath => {
                    ranked.sort_by_key(|r| {
                        (
                            path_len.get(&(client, r.host_as)).copied().unwrap_or(99),
                            std::cmp::Reverse(r.bandwidth_kbs),
                        )
                    });
                }
                GuardStrategy::DynamicsAware => {
                    ranked.sort_by_key(|r| {
                        (
                            exposure(client, r.host_as).len(),
                            std::cmp::Reverse(r.bandwidth_kbs),
                        )
                    });
                }
            }
            let mut chosen_ases: Vec<Asn> = Vec::new();
            for r in ranked {
                if chosen_ases.len() >= guards_per_client {
                    break;
                }
                if !chosen_ases.contains(&r.host_as) {
                    chosen_ases.push(r.host_as);
                }
            }
            let union: BTreeSet<Asn> = chosen_ases
                .iter()
                .flat_map(|&ga| exposure(client, ga))
                .collect();
            let x = union.len();
            x_sum += x as f64;
            for (i, &f) in fs.iter().enumerate() {
                p_sums[i] += temporal::compromise_probability(f, x);
            }
        }
        let n = clients.len().max(1) as f64;
        rows.push((
            strategy,
            x_sum / n,
            p_sums.into_iter().map(|p| p / n).collect(),
        ));
    }
    GuardStrategyEval {
        rows,
        fs: fs.to_vec(),
        n_clients: clients.len(),
        guards_per_client,
    }
}

/// Result of the AS-aware circuit-filter evaluation.
#[derive(Clone, Debug)]
pub struct CircuitFilterEval {
    /// Fraction of vanilla circuits with an AS on both segments.
    pub vanilla_overlap: f64,
    /// Same, for circuits passing the *static* AS-disjointness filter
    /// (snapshot paths only), re-evaluated against the dynamic exposure
    /// sets — residual risk from path changes.
    pub static_filter_residual: f64,
    /// Same, for the dynamics-aware filter (last month's AS sets).
    pub dynamic_filter_residual: f64,
    /// Circuits sampled.
    pub n_circuits: usize,
}

/// Evaluate the §5 circuit filter: "the same AS does not appear in both
/// the first and the last segments, after taking path dynamics into
/// account".
pub fn evaluate_circuit_filter(
    scenario: &Scenario,
    n_circuits: usize,
    seed: u64,
) -> CircuitFilterEval {
    let mut rng = StdRng::seed_from_u64(seed);
    let guards: Vec<&quicksand_tor::Relay> = {
        let mut v: Vec<_> = scenario.consensus.guards().collect();
        v.sort_by_key(|r| std::cmp::Reverse(r.bandwidth_kbs));
        v.truncate(12);
        v
    };
    let exits: Vec<&quicksand_tor::Relay> = {
        let mut v: Vec<_> = scenario.consensus.exits().collect();
        v.sort_by_key(|r| std::cmp::Reverse(r.bandwidth_kbs));
        v.truncate(12);
        v
    };
    let clients: Vec<Asn> = {
        let mut v = scenario.topo.stubs.clone();
        v.shuffle(&mut rng);
        v.truncate(8);
        v
    };
    let dests: Vec<Asn> = {
        let mut v = scenario.topo.stubs.clone();
        v.shuffle(&mut rng);
        v.truncate(8);
        v
    };

    // Dynamic exposure sets from the churn replay: client→guardAS and
    // exitAS→dest (vantage = exit AS, origin = dest).
    let guard_ases: Vec<Asn> = guards
        .iter()
        .map(|r| r.host_as)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let exit_ases: Vec<Asn> = exits
        .iter()
        .map(|r| r.host_as)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let entry_hist = scenario.path_history(&clients, &guard_ases);
    let exit_hist = scenario.path_history(&exit_ases, &dests);
    let horizon = scenario.horizon_end();
    let min_dur = SimDuration::from_mins(5);
    let dynamic_set = |hist: &BTreeMap<(Asn, Asn), PathTimeline>,
                       v: Asn,
                       o: Asn|
     -> BTreeSet<Asn> {
        hist.get(&(v, o))
            .map(|tl| tl.distinct_ases(horizon, min_dur))
            .unwrap_or_default()
    };
    let static_set = |hist: &BTreeMap<(Asn, Asn), PathTimeline>,
                      v: Asn,
                      o: Asn|
     -> BTreeSet<Asn> {
        hist.get(&(v, o))
            .and_then(|tl| tl.points.first().map(|(_, s)| s.clone()))
            .unwrap_or_default()
    };

    let mut vanilla_overlap = 0usize;
    let mut static_pass = 0usize;
    let mut static_residual = 0usize;
    let mut dynamic_pass = 0usize;
    let mut dynamic_residual = 0usize;
    for _ in 0..n_circuits {
        let client = clients[rng.gen_range(0..clients.len())];
        let dest = dests[rng.gen_range(0..dests.len())];
        let guard = guards[rng.gen_range(0..guards.len())];
        let exit = exits[rng.gen_range(0..exits.len())];
        let entry_dyn = dynamic_set(&entry_hist, client, guard.host_as);
        let exit_dyn = dynamic_set(&exit_hist, exit.host_as, dest);
        let overlap_dyn = !entry_dyn.is_disjoint(&exit_dyn);
        if overlap_dyn {
            vanilla_overlap += 1;
        }
        // Static filter: disjoint on snapshot paths.
        let entry_static = static_set(&entry_hist, client, guard.host_as);
        let exit_static = static_set(&exit_hist, exit.host_as, dest);
        if entry_static.is_disjoint(&exit_static) {
            static_pass += 1;
            if overlap_dyn {
                static_residual += 1; // dynamics broke the guarantee
            }
        }
        // Dynamics-aware filter: disjoint on month-long AS sets.
        if !overlap_dyn {
            dynamic_pass += 1;
            // By construction residual is zero against the same-month
            // exposure; count kept for symmetry.
        } else {
            dynamic_residual += 0;
        }
    }
    CircuitFilterEval {
        vanilla_overlap: vanilla_overlap as f64 / n_circuits.max(1) as f64,
        static_filter_residual: static_residual as f64 / static_pass.max(1) as f64,
        dynamic_filter_residual: dynamic_residual as f64 / dynamic_pass.max(1) as f64,
        n_circuits,
    }
}

/// Result of the monitoring evaluation.
#[derive(Clone, Debug)]
pub struct MonitoringEval {
    /// Alarms per (session, Tor prefix) pair on purely natural churn.
    pub natural_alarm_rate: f64,
    /// Detection score for injected exact-prefix hijacks.
    pub hijack_score: DetectionScore,
    /// Detection score for injected interception splices (new upstream
    /// adjacent to the true origin).
    pub splice_score: DetectionScore,
}

/// Evaluate the §5 monitor: train on the first half of the month, scan
/// the second half for natural false alarms, then inject attacks and
/// measure recall.
pub fn evaluate_monitoring(
    scenario: &Scenario,
    month: &MonthResult,
    n_attacks: usize,
    seed: u64,
) -> MonitoringEval {
    let mut rng = StdRng::seed_from_u64(seed);
    let registered: Vec<(Ipv4Prefix, Asn)> = scenario
        .tor_prefixes
        .origin_by_prefix
        .iter()
        .map(|(p, a)| (*p, *a))
        .collect();
    let mut monitor = PrefixMonitor::new(registered.clone());

    // Split the cleaned log at mid-horizon.
    let mid = SimTime(month.horizon_end.0 / 2);
    let first: UpdateLog = UpdateLog {
        records: month
            .cleaned
            .records
            .iter()
            .filter(|r| r.at <= mid)
            .cloned()
            .collect(),
    };
    let second: UpdateLog = UpdateLog {
        records: month
            .cleaned
            .records
            .iter()
            .filter(|r| r.at > mid)
            .cloned()
            .collect(),
    };
    monitor.train(&first);

    // Natural alarm rate on the clean second half.
    let natural = monitor.scan(&second);
    let pairs = SessionPrefixRuns::new(&second, None).iter().count().max(1);
    let natural_alarm_rate = natural.len() as f64 / pairs as f64;

    // Inject attacks: half exact-prefix origin hijacks, half splices.
    let attacker = Asn(0xEEEE);
    let mut hijack_log = second.clone();
    let mut splice_log = second.clone();
    let mut hijacked: BTreeSet<Ipv4Prefix> = BTreeSet::new();
    let mut spliced: BTreeSet<Ipv4Prefix> = BTreeSet::new();
    for _ in 0..n_attacks {
        let (prefix, origin) = registered[rng.gen_range(0..registered.len())];
        if rng.gen_bool(0.5) {
            hijacked.insert(prefix);
            hijack_log.records.push(UpdateRecord {
                at: month.horizon_end,
                session: SessionId(0),
                msg: UpdateMessage::Announce(Route {
                    prefix,
                    as_path: AsPath::from_asns([Asn(1), attacker]),
                    communities: Default::default(),
                }),
            });
        } else {
            spliced.insert(prefix);
            splice_log.records.push(UpdateRecord {
                at: month.horizon_end,
                session: SessionId(0),
                msg: UpdateMessage::Announce(Route {
                    prefix,
                    as_path: AsPath::from_asns([Asn(1), attacker, origin]),
                    communities: Default::default(),
                }),
            });
        }
    }
    let hijack_alarms = monitor.scan(&hijack_log);
    let splice_alarms = monitor.scan(&splice_log);
    // Score only against the injected sets; natural alarms count as
    // false positives, which the paper tolerates.
    let hijack_score = DetectionScore::score(&hijack_alarms, &hijacked);
    let splice_score = DetectionScore::score(&splice_alarms, &spliced);

    MonitoringEval {
        natural_alarm_rate,
        hijack_score,
        splice_score,
    }
}

/// Result of the real-time monitoring evaluation (§7 future work: "a
/// real time monitoring framework for secure path selection in Tor").
#[derive(Clone, Debug)]
pub struct RealtimeMonitoringEval {
    /// Mean detection latency for injected interception splices.
    pub mean_detection_latency: SimDuration,
    /// Fraction of injected attacks detected at all.
    pub detection_rate: f64,
    /// Fraction of *post-advisory* circuit builds that avoided an
    /// attacked guard prefix thanks to the advisory board.
    pub protected_fraction: f64,
    /// Same selection without advisories (baseline exposure).
    pub unprotected_fraction: f64,
    /// Number of injected attacks.
    pub attacks: usize,
}

/// Replay the month's cleaned update stream through the online
/// [`quicksand_attack::monitord::StreamingMonitor`], injecting interception splices against sampled
/// guard prefixes at mid-horizon, and measure (a) detection latency and
/// (b) how much client protection the advisory feedback buys: clients
/// building circuits after the attack avoid guards whose prefixes are
/// flagged.
pub fn evaluate_realtime_monitoring(
    scenario: &Scenario,
    month: &MonthResult,
    n_attacks: usize,
    seed: u64,
) -> RealtimeMonitoringEval {
    use quicksand_attack::monitord::{MonitorConfig, StreamingMonitor};
    let mut rng = StdRng::seed_from_u64(seed);

    // Attacked guard prefixes: those hosting the highest-bandwidth
    // guards (the attractive targets §3.2 identifies).
    let mut guards: Vec<&quicksand_tor::Relay> = scenario.consensus.guards().collect();
    guards.sort_by_key(|r| std::cmp::Reverse(r.bandwidth_kbs));
    let mut attacked: Vec<(Ipv4Prefix, Asn)> = Vec::new();
    for g in &guards {
        if attacked.len() >= n_attacks {
            break;
        }
        if let Some((p, o)) = scenario.plan.table.longest_match(g.addr) {
            if !attacked.iter().any(|(q, _)| *q == p) {
                attacked.push((p, o));
            }
        }
    }

    let attack_at = SimTime(month.horizon_end.0 * 7 / 10);
    let attacker = Asn(0xEEEE);

    // Build the attacked stream: the clean log plus splice
    // announcements arriving shortly after the attack starts (BGP
    // propagation delay drawn per attack).
    let mut stream: Vec<UpdateRecord> = month.cleaned.records.clone();
    for (p, o) in &attacked {
        let delay = SimDuration::from_secs(rng.gen_range(30..300));
        stream.push(UpdateRecord {
            at: attack_at + delay,
            session: SessionId(0),
            msg: UpdateMessage::Announce(Route {
                prefix: *p,
                as_path: AsPath::from_asns([Asn(1), attacker, *o]),
                communities: Default::default(),
            }),
        });
    }
    stream.sort_by_key(|r| r.at);

    let mut monitor = StreamingMonitor::new(
        scenario
            .tor_prefixes
            .origin_by_prefix
            .iter()
            .map(|(p, a)| (*p, *a)),
        MonitorConfig::default(),
    );
    {
        let _span = obs::prof::span("monitor", "ingest");
        for r in &stream {
            monitor.ingest(r);
        }
    }
    // Liveness probe at end-of-stream, under its own `monitor.check_feed`
    // span.
    if let Some(last) = stream.last() {
        let _ = monitor.check_feed(last.at);
    }

    let mut latency_sum = SimDuration::ZERO;
    let mut detected = 0usize;
    for (p, _) in &attacked {
        if let Some(lat) = monitor.detection_latency(p, attack_at) {
            latency_sum = latency_sum + lat;
            detected += 1;
        }
    }

    // Client protection: build circuits after the advisory is live and
    // check guard avoidance.
    let attacked_prefixes: BTreeSet<Ipv4Prefix> =
        attacked.iter().map(|(p, _)| *p).collect();
    let selection_at = attack_at + SimDuration::from_mins(30);
    let mut builder = quicksand_tor::CircuitBuilder::new(
        &scenario.consensus,
        &quicksand_tor::SelectionConfig {
            guards_per_client: 3,
            seed: seed ^ 0xC1AC,
        },
    );
    let n_trials = 200;
    let mut unprotected_hits = 0usize;
    let mut protected_hits = 0usize;
    for _ in 0..n_trials {
        let Some(gs) = builder.pick_guards(3) else { break };
        // Unprotected: plain bandwidth-weighted choice.
        let exposed = gs.guards.iter().any(|id| {
            scenario
                .plan
                .table
                .longest_match(scenario.consensus.relay(*id).addr)
                .is_some_and(|(p, _)| attacked_prefixes.contains(&p))
        });
        if exposed {
            unprotected_hits += 1;
        }
        // Protected: drop flagged guards and re-draw replacements.
        let kept: Vec<_> = gs
            .guards
            .iter()
            .filter(|id| {
                scenario
                    .plan
                    .table
                    .longest_match(scenario.consensus.relay(**id).addr)
                    .map_or(true, |(p, _)| !monitor.is_flagged(&p, selection_at))
            })
            .collect();
        // A flagged guard caught by the advisory counts as protected
        // unless the monitor missed the attack entirely.
        let still_exposed = kept.iter().any(|id| {
            scenario
                .plan
                .table
                .longest_match(scenario.consensus.relay(**id).addr)
                .is_some_and(|(p, _)| attacked_prefixes.contains(&p))
        });
        if still_exposed {
            protected_hits += 1;
        }
    }

    RealtimeMonitoringEval {
        mean_detection_latency: SimDuration(
            latency_sum.0 / detected.max(1) as u64,
        ),
        detection_rate: detected as f64 / attacked.len().max(1) as f64,
        protected_fraction: 1.0 - protected_hits as f64 / n_trials as f64,
        unprotected_fraction: 1.0 - unprotected_hits as f64 / n_trials as f64,
        attacks: attacked.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> &'static (Scenario, MonthResult) {
        crate::testworld::get()
    }

    #[test]
    fn dynamics_aware_selection_reduces_exposure() {
        let (s, _) = world();
        let eval = evaluate_guard_strategies(s, 6, 3, &[0.02, 0.05], 1);
        assert_eq!(eval.rows.len(), 3);
        let get = |st: GuardStrategy| {
            eval.rows
                .iter()
                .find(|(s, _, _)| *s == st)
                .expect("row present")
        };
        let vanilla = get(GuardStrategy::Vanilla);
        let dynamics = get(GuardStrategy::DynamicsAware);
        // Dynamics-aware must not do worse on mean exposure.
        assert!(
            dynamics.1 <= vanilla.1 + 1e-9,
            "dynamics {} vs vanilla {}",
            dynamics.1,
            vanilla.1
        );
        // Probabilities are monotone in f.
        for (_, _, ps) in &eval.rows {
            assert!(ps[0] <= ps[1] + 1e-12);
        }
    }

    #[test]
    fn circuit_filter_reduces_overlap() {
        let (s, _) = world();
        let eval = evaluate_circuit_filter(s, 120, 2);
        assert!(eval.vanilla_overlap >= 0.0 && eval.vanilla_overlap <= 1.0);
        // The dynamics-aware filter has zero residual risk against the
        // same month by construction; the static filter may leak.
        assert_eq!(eval.dynamic_filter_residual, 0.0);
        assert!(eval.static_filter_residual <= 1.0);
    }

    #[test]
    fn realtime_monitoring_detects_and_protects() {
        let (s, m) = world();
        let eval = evaluate_realtime_monitoring(s, m, 8, 5);
        assert!(eval.attacks > 0);
        // Splices against trained prefixes are caught quickly.
        assert!(eval.detection_rate > 0.5, "rate {}", eval.detection_rate);
        assert!(eval.mean_detection_latency <= SimDuration::from_mins(10));
        // Advisory-aware selection is at least as safe as vanilla.
        assert!(eval.protected_fraction >= eval.unprotected_fraction - 1e-9);
    }

    #[test]
    fn monitoring_catches_injected_attacks() {
        let (s, m) = world();
        let eval = evaluate_monitoring(s, m, 20, 3);
        // Origin hijacks are always caught (MOAS signature).
        assert_eq!(eval.hijack_score.recall(), 1.0);
        // Splices are caught when training knew the prefix's upstreams;
        // recall should be high but may miss untrained prefixes.
        assert!(eval.splice_score.recall() >= 0.5);
        // The aggressive posture tolerates natural alarms.
        assert!(eval.natural_alarm_rate >= 0.0);
    }
}
