//! "Tor prefixes": mapping relays to announced BGP prefixes.
//!
//! §4: "For each guard and exit relay, we identified the most specific
//! BGP prefix that contained it. We refer to those as Tor prefixes.
//! Overall, we identified 1251 Tor prefixes, announced by 650 distinct
//! ASes. The distribution of the number of guard/exit relays per Tor
//! prefix is skewed, with a median number of relay per prefix of 1, a
//! 75th percentile of 2, and maximum of 33."
//!
//! [`map_tor_prefixes`] performs exactly that join (longest-prefix match
//! of each guard/exit relay address against the announced table) and
//! [`TorPrefixStats`] reports the same statistics.

use crate::consensus::{Consensus, RelayId};
use quicksand_bgp::PrefixTable;
use quicksand_net::{Asn, Ipv4Prefix};
use std::collections::{BTreeMap, BTreeSet};

/// The result of the relay→prefix join.
#[derive(Clone, Debug, Default)]
pub struct TorPrefixes {
    /// Tor prefix → the guard/exit relays inside it.
    pub relays_by_prefix: BTreeMap<Ipv4Prefix, Vec<RelayId>>,
    /// Tor prefix → origin AS (from the announcement table).
    pub origin_by_prefix: BTreeMap<Ipv4Prefix, Asn>,
    /// Relays whose address matched no announced prefix (should be
    /// empty with a complete address plan; kept for honesty).
    pub unmatched: Vec<RelayId>,
}

impl TorPrefixes {
    /// The set of Tor prefixes.
    pub fn prefixes(&self) -> BTreeSet<Ipv4Prefix> {
        self.relays_by_prefix.keys().copied().collect()
    }

    /// Number of distinct Tor prefixes.
    pub fn len(&self) -> usize {
        self.relays_by_prefix.len()
    }

    /// True when no relay matched any prefix.
    pub fn is_empty(&self) -> bool {
        self.relays_by_prefix.is_empty()
    }

    /// Number of distinct origin ASes announcing Tor prefixes.
    pub fn distinct_origins(&self) -> usize {
        self.origin_by_prefix
            .values()
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Summary statistics (the paper's Table-1 numbers).
    pub fn stats(&self) -> TorPrefixStats {
        let mut counts: Vec<usize> =
            self.relays_by_prefix.values().map(|v| v.len()).collect();
        counts.sort_unstable();
        let pct = |p: f64| -> usize {
            if counts.is_empty() {
                0
            } else {
                counts[((counts.len() as f64 - 1.0) * p).round() as usize]
            }
        };
        TorPrefixStats {
            n_prefixes: counts.len(),
            n_origin_ases: self.distinct_origins(),
            relays_per_prefix_median: pct(0.5),
            relays_per_prefix_p75: pct(0.75),
            relays_per_prefix_max: counts.last().copied().unwrap_or(0),
        }
    }
}

/// The §4 dataset statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TorPrefixStats {
    /// Distinct Tor prefixes (paper: 1251).
    pub n_prefixes: usize,
    /// Distinct origin ASes (paper: 650).
    pub n_origin_ases: usize,
    /// Median guard/exit relays per prefix (paper: 1).
    pub relays_per_prefix_median: usize,
    /// 75th percentile (paper: 2).
    pub relays_per_prefix_p75: usize,
    /// Maximum (paper: 33, Hetzner's 78.46.0.0/15).
    pub relays_per_prefix_max: usize,
}

/// Join guard/exit relays against the announced prefix table by
/// longest-prefix match.
pub fn map_tor_prefixes(consensus: &Consensus, table: &PrefixTable) -> TorPrefixes {
    let mut out = TorPrefixes::default();
    for relay in consensus.guards_or_exits() {
        match table.longest_match(relay.addr) {
            Some((prefix, origin)) => {
                out.relays_by_prefix.entry(prefix).or_default().push(relay.id);
                out.origin_by_prefix.insert(prefix, origin);
            }
            None => out.unmatched.push(relay.id),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus::{Relay, RelayFlags};
    use std::net::Ipv4Addr;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn relay(id: u32, addr: [u8; 4], guard: bool, exit: bool) -> Relay {
        Relay {
            id: RelayId(id),
            nickname: format!("r{id}"),
            addr: Ipv4Addr::from(addr),
            host_as: Asn(0),
            bandwidth_kbs: 100,
            flags: RelayFlags { guard, exit },
        }
    }

    #[test]
    fn lpm_join_and_stats() {
        let table: PrefixTable = [
            (p("78.46.0.0/15"), Asn(24940)),
            (p("78.46.0.0/24"), Asn(24940)), // more specific, same org
            (p("10.0.0.0/8"), Asn(100)),
        ]
        .into_iter()
        .collect();
        let consensus = Consensus {
            relays: vec![
                relay(0, [78, 46, 0, 5], true, false),  // /24
                relay(1, [78, 47, 1, 1], true, true),   // /15
                relay(2, [78, 47, 2, 2], false, true),  // /15
                relay(3, [10, 1, 1, 1], true, false),   // /8
                relay(4, [10, 2, 2, 2], false, false),  // middle: excluded
                relay(5, [99, 9, 9, 9], true, false),   // unmatched
            ],
        };
        let tp = map_tor_prefixes(&consensus, &table);
        assert_eq!(tp.len(), 3);
        assert_eq!(tp.relays_by_prefix[&p("78.46.0.0/24")], vec![RelayId(0)]);
        assert_eq!(
            tp.relays_by_prefix[&p("78.46.0.0/15")],
            vec![RelayId(1), RelayId(2)]
        );
        assert_eq!(tp.unmatched, vec![RelayId(5)]);
        assert_eq!(tp.distinct_origins(), 2);
        let s = tp.stats();
        assert_eq!(s.n_prefixes, 3);
        assert_eq!(s.n_origin_ases, 2);
        assert_eq!(s.relays_per_prefix_median, 1);
        assert_eq!(s.relays_per_prefix_max, 2);
    }

    #[test]
    fn empty_inputs() {
        let tp = map_tor_prefixes(&Consensus::default(), &PrefixTable::new());
        assert!(tp.is_empty());
        let s = tp.stats();
        assert_eq!(s.n_prefixes, 0);
        assert_eq!(s.relays_per_prefix_max, 0);
    }
}
