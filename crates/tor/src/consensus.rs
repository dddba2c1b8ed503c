//! Relays and the network consensus.

use quicksand_net::Asn;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// A relay's index in its consensus (stable, dense).
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct RelayId(pub u32);

/// The consensus flags this workspace models.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct RelayFlags {
    /// Eligible as an entry guard.
    pub guard: bool,
    /// Permits exit traffic.
    pub exit: bool,
}

/// One Tor relay as described in the network consensus.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Relay {
    /// Dense id within the consensus.
    pub id: RelayId,
    /// Human-readable nickname (synthetic).
    pub nickname: String,
    /// The relay's IPv4 address.
    pub addr: Ipv4Addr,
    /// The AS hosting the relay (ground truth; the measurement pipeline
    /// re-derives the origin from BGP data and may disagree under
    /// attack).
    pub host_as: Asn,
    /// Advertised bandwidth in kilobytes per second, used as the
    /// selection weight ("clients select relays with a probability that
    /// is proportional to their network capacity").
    pub bandwidth_kbs: u64,
    /// Consensus flags.
    pub flags: RelayFlags,
}

/// The network consensus: the relay directory Tor clients download.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Consensus {
    /// All relays, indexed by `RelayId`.
    pub relays: Vec<Relay>,
}

impl Consensus {
    /// Number of relays.
    pub fn len(&self) -> usize {
        self.relays.len()
    }

    /// True when the consensus is empty.
    pub fn is_empty(&self) -> bool {
        self.relays.is_empty()
    }

    /// Look up a relay by id.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn relay(&self, id: RelayId) -> &Relay {
        &self.relays[id.0 as usize]
    }

    /// Relays with the Guard flag.
    pub fn guards(&self) -> impl Iterator<Item = &Relay> {
        self.relays.iter().filter(|r| r.flags.guard)
    }

    /// Relays with the Exit flag.
    pub fn exits(&self) -> impl Iterator<Item = &Relay> {
        self.relays.iter().filter(|r| r.flags.exit)
    }

    /// Relays flagged both guard and exit.
    pub fn guard_and_exit(&self) -> impl Iterator<Item = &Relay> {
        self.relays.iter().filter(|r| r.flags.guard && r.flags.exit)
    }

    /// Relays that are guards or exits (the population the paper's
    /// measurements cover).
    pub fn guards_or_exits(&self) -> impl Iterator<Item = &Relay> {
        self.relays.iter().filter(|r| r.flags.guard || r.flags.exit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn relay(id: u32, guard: bool, exit: bool) -> Relay {
        Relay {
            id: RelayId(id),
            nickname: format!("relay{id}"),
            addr: Ipv4Addr::new(10, 0, 0, id as u8),
            host_as: Asn(100 + id),
            bandwidth_kbs: 1000,
            flags: RelayFlags { guard, exit },
        }
    }

    #[test]
    fn flag_queries() {
        let c = Consensus {
            relays: vec![
                relay(0, true, false),
                relay(1, false, true),
                relay(2, true, true),
                relay(3, false, false),
            ],
        };
        assert_eq!(c.len(), 4);
        assert_eq!(c.guards().count(), 2);
        assert_eq!(c.exits().count(), 2);
        assert_eq!(c.guard_and_exit().count(), 1);
        assert_eq!(c.guards_or_exits().count(), 3);
        assert_eq!(c.relay(RelayId(2)).nickname, "relay2");
    }
}
