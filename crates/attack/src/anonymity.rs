//! Anonymity-set estimation under a hijack (§3.2).
//!
//! While a guard relay's prefix is hijacked, the attacker receives the
//! (blackholed or intercepted) client→guard traffic of every captured AS
//! and reads the cleartext IP headers: "the malicious AS can therefore
//! learn the set of clients associated with the guard relay for the
//! duration of the connection (anonymity set)". The paper's Harvard
//! example shows how incriminating even that reduced set is.
//!
//! Clients are modeled as a population spread over client ASes; the
//! hijack exposes exactly the clients whose AS is in the capture set
//! *and* who have an active connection to the targeted guard.

use quicksand_net::Asn;
use std::collections::{BTreeMap, BTreeSet};

/// The exposed anonymity set of a guard-prefix hijack.
#[derive(Clone, Debug, PartialEq)]
pub struct AnonymitySet {
    /// Clients (by id) whose traffic to the guard the attacker observed.
    pub exposed_clients: BTreeSet<u64>,
    /// Total clients with an active connection to the guard.
    pub total_clients: usize,
}

impl AnonymitySet {
    /// |exposed| / |total| — how much of the guard's user population the
    /// attacker enumerated.
    pub fn exposure_fraction(&self) -> f64 {
        if self.total_clients == 0 {
            0.0
        } else {
            self.exposed_clients.len() as f64 / self.total_clients as f64
        }
    }
}

/// Compute the anonymity set exposed by hijacking a guard's prefix.
///
/// `clients` maps client id → the AS hosting that client; only clients
/// in `connected` (ids with an active circuit through the targeted
/// guard) can be observed. `captured` is the hijack capture set.
pub fn exposed_anonymity_set(
    clients: &BTreeMap<u64, Asn>,
    connected: &BTreeSet<u64>,
    captured: &BTreeSet<Asn>,
) -> AnonymitySet {
    let exposed_clients = connected
        .iter()
        .filter(|id| clients.get(id).is_some_and(|a| captured.contains(a)))
        .copied()
        .collect();
    AnonymitySet {
        exposed_clients,
        total_clients: connected.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (BTreeMap<u64, Asn>, BTreeSet<u64>) {
        let clients: BTreeMap<u64, Asn> = [
            (1, Asn(100)),
            (2, Asn(100)),
            (3, Asn(200)),
            (4, Asn(300)),
            (5, Asn(300)),
        ]
        .into_iter()
        .collect();
        let connected: BTreeSet<u64> = [1, 3, 4].into_iter().collect();
        (clients, connected)
    }

    #[test]
    fn exposure_counts_only_connected_captured_clients() {
        let (clients, connected) = setup();
        let captured: BTreeSet<Asn> = [Asn(100), Asn(300)].into_iter().collect();
        let set = exposed_anonymity_set(&clients, &connected, &captured);
        // Client 2 is in a captured AS but not connected; client 3's AS
        // is not captured.
        assert_eq!(set.exposed_clients, [1, 4].into_iter().collect());
        assert_eq!(set.total_clients, 3);
        assert!((set.exposure_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_capture_exposes_nothing() {
        let (clients, connected) = setup();
        let set = exposed_anonymity_set(&clients, &connected, &BTreeSet::new());
        assert!(set.exposed_clients.is_empty());
        assert_eq!(set.exposure_fraction(), 0.0);
    }

    #[test]
    fn no_connections_edge_case() {
        let (clients, _) = setup();
        let set = exposed_anonymity_set(
            &clients,
            &BTreeSet::new(),
            &[Asn(100)].into_iter().collect(),
        );
        assert_eq!(set.total_clients, 0);
        assert_eq!(set.exposure_fraction(), 0.0);
    }
}
