//! Prefix hijacks (§3.2, "Traffic analysis via prefix hijack").
//!
//! An **origin hijack** announces the victim's exact prefix from the
//! attacker's AS. The Internet splits: ASes whose decision process
//! prefers the attacker's announcement send their traffic to the
//! attacker, where it is blackholed (the attacker cannot complete the
//! Tor handshake — it lacks the relay's keys). The paper's point: during
//! the hijack the attacker reads IP headers and learns *the set of
//! clients using the guard* (a reduced anonymity set), even though
//! connections eventually drop.
//!
//! A **more-specific hijack** announces a longer prefix covering the
//! victim; longest-prefix-match forwarding then sends *every* AS that
//! hears the announcement to the attacker regardless of BGP preference —
//! near-total capture, but also maximal visibility to monitors (§5:
//! control-plane monitoring "is particularly effective" against it).

use crate::multi::{MultiOriginRouting, OriginSpec};
use quicksand_net::Asn;
use quicksand_obs as obs;
use quicksand_topology::AsGraph;
use std::collections::BTreeSet;

/// The outcome of a hijack: who routes where.
#[derive(Clone, Debug)]
pub struct HijackOutcome {
    /// ASes whose traffic for the victim prefix now reaches the attacker
    /// (attacker included).
    pub captured: BTreeSet<Asn>,
    /// ASes that retained a route to the legitimate origin (victim
    /// included).
    pub retained: BTreeSet<Asn>,
    /// ASes with no route at all (possible under scoped announcements).
    pub unrouted: BTreeSet<Asn>,
    /// The routing split itself, for path inspection.
    pub routing: MultiOriginRouting,
}

impl HijackOutcome {
    /// Fraction of all ASes captured by the attacker.
    pub fn capture_fraction(&self, graph: &AsGraph) -> f64 {
        self.captured.len() as f64 / graph.len() as f64
    }
}

/// Simulate an exact-prefix origin hijack of `victim`'s prefix by
/// `attacker`.
///
/// # Panics
/// Panics if either AS is missing from the graph or they are equal.
pub fn origin_hijack(graph: &AsGraph, victim: Asn, attacker: Asn) -> HijackOutcome {
    origin_hijack_scoped(graph, victim, OriginSpec::plain(attacker))
}

/// Origin hijack with an attacker-side announcement policy (selective
/// announcement, NO_EXPORT, blocked edges) — the building block for
/// interception and stealth attacks.
pub fn origin_hijack_scoped(
    graph: &AsGraph,
    victim: Asn,
    attacker_spec: OriginSpec,
) -> HijackOutcome {
    assert_ne!(victim, attacker_spec.asn, "attacker cannot be the victim");
    let _span = obs::prof::span("detect", "origin_hijack");
    obs::incr("detect", "hijacks", 1);
    let attacker = attacker_spec.asn;
    let routing = MultiOriginRouting::compute(graph, &[OriginSpec::plain(victim), attacker_spec]);
    let captured = routing.capture_set(graph, attacker);
    let retained = routing.capture_set(graph, victim);
    let unrouted = routing.unrouted(graph);
    HijackOutcome {
        captured,
        retained,
        unrouted,
        routing,
    }
}

/// Simulate a more-specific-prefix hijack: the attacker announces a
/// strictly longer prefix covering the victim's relay. Every AS that
/// hears the announcement forwards to the attacker (longest-prefix
/// match); ASes the announcement never reaches (due to `attacker_spec`
/// scoping) keep the victim route.
pub fn more_specific_hijack(
    graph: &AsGraph,
    victim: Asn,
    attacker_spec: OriginSpec,
) -> HijackOutcome {
    assert_ne!(victim, attacker_spec.asn, "attacker cannot be the victim");
    let _span = obs::prof::span("detect", "more_specific_hijack");
    obs::incr("detect", "more_specific_hijacks", 1);
    let attacker = attacker_spec.asn;
    // The more-specific is a different NLRI: compute its propagation
    // alone. Capture = every AS with a route to it; everyone else still
    // follows the covering prefix to the victim.
    let specific = MultiOriginRouting::compute(graph, &[attacker_spec]);
    let captured = specific.capture_set(graph, attacker);
    let covering = MultiOriginRouting::compute(graph, &[OriginSpec::plain(victim)]);
    let mut retained = BTreeSet::new();
    let mut unrouted = BTreeSet::new();
    for a in graph.asns() {
        if captured.contains(&a) {
            continue;
        }
        if covering.selected_origin(graph, a) == Some(victim) {
            retained.insert(a);
        } else {
            unrouted.insert(a);
        }
    }
    HijackOutcome {
        captured,
        retained,
        unrouted,
        routing: specific,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::testutil::diamond;

    #[test]
    fn origin_hijack_splits() {
        let g = diamond();
        let out = origin_hijack(&g, Asn(8), Asn(9));
        assert!(out.captured.contains(&Asn(9)));
        assert!(out.captured.contains(&Asn(6)));
        assert!(out.retained.contains(&Asn(8)));
        assert!(out.retained.contains(&Asn(4)));
        assert!(out.unrouted.is_empty());
        assert_eq!(
            out.captured.len() + out.retained.len(),
            g.len()
        );
        let f = out.capture_fraction(&g);
        assert!(f > 0.0 && f < 1.0);
    }

    #[test]
    fn more_specific_captures_everyone_when_unscoped() {
        let g = diamond();
        let out = more_specific_hijack(&g, Asn(8), OriginSpec::plain(Asn(9)));
        // The more-specific reaches every AS, so all are captured.
        assert_eq!(out.captured.len(), g.len());
        assert!(out.retained.is_empty());
    }

    #[test]
    fn scoped_more_specific_captures_partially() {
        let g = diamond();
        // NO_EXPORT: only 9's neighbors (provider 6) hear the
        // more-specific.
        let out = more_specific_hijack(
            &g,
            Asn(8),
            OriginSpec {
                asn: Asn(9),
                export_to: None,
                no_reexport: true,
                blocked_edges: Vec::new(),
            },
        );
        assert_eq!(
            out.captured,
            [Asn(6), Asn(9)].into_iter().collect::<BTreeSet<_>>()
        );
        // Everyone else keeps the legitimate route.
        assert_eq!(out.retained.len(), g.len() - 2);
        assert!(out.unrouted.is_empty());
    }

    #[test]
    fn attacker_tier_matters() {
        // A hijack from a transit AS captures at least as much as from a
        // far-away stub in this topology.
        let g = diamond();
        let from_stub = origin_hijack(&g, Asn(8), Asn(9)).captured.len();
        let from_t2 = origin_hijack(&g, Asn(8), Asn(6)).captured.len();
        assert!(from_t2 >= from_stub);
    }

    #[test]
    #[should_panic(expected = "attacker cannot be the victim")]
    fn self_hijack_panics() {
        let g = diamond();
        let _ = origin_hijack(&g, Asn(8), Asn(8));
    }
}
