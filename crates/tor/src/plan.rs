//! The address and announcement plan.
//!
//! Every AS in the topology is assigned a /16 block of IPv4 space
//! (deterministically, by AS index) and announces it as one or more BGP
//! prefixes:
//!
//! * most ASes announce the whole /16;
//! * some split it into two /17s or four /18s (hosting ASes always
//!   split, which is how a single organization ends up with several
//!   "Tor prefixes" — the paper found 1251 Tor prefixes across only 650
//!   origin ASes);
//! * a fraction additionally announce one more-specific /20 inside the
//!   block, exercising longest-prefix-match in the measurement pipeline.
//!
//! The plan feeds both sides of the join the paper performs: the
//! announced prefixes populate the BGP simulators' [`PrefixTable`], and
//! relay addresses are drawn from the hosting AS's block.

use quicksand_bgp::PrefixTable;
use quicksand_net::{Asn, Ipv4Prefix};
use quicksand_topology::AsGraph;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::net::Ipv4Addr;

/// Configuration for [`AddressPlan::generate`].
#[derive(Clone)]
pub struct AddressPlanConfig {
    /// Probability that an ordinary AS splits its /16 into two /17s.
    pub split_17_prob: f64,
    /// Probability that an AS also announces a more-specific /20.
    pub more_specific_prob: f64,
    /// RNG seed.
    pub seed: u64,
    /// Number of non-hosting ASes that fully deaggregate their /16 into
    /// 256 /24s plus the covering /16 (~257 announced prefixes each).
    /// These "dense origins" are how the large tiers reach Internet-like
    /// tracked-prefix counts without multiplying origin ASes. `0`
    /// disables deaggregation (the historical behavior).
    pub dense_origins: usize,
    /// Each ordinary AS additionally announces `rng(0..=max)` /24s
    /// carved from the high end of its block. `0` disables (the
    /// historical behavior).
    pub extra_specifics_max: u32,
}

impl Default for AddressPlanConfig {
    fn default() -> Self {
        AddressPlanConfig {
            split_17_prob: 0.35,
            more_specific_prob: 0.1,
            seed: 0xADD7,
            dense_origins: 0,
            extra_specifics_max: 0,
        }
    }
}

// Checkpoint/feed fingerprints hash the `Debug` output of this config
// (see `quicksand_recover::config_fingerprint`). The deaggregation
// fields are printed only when set, so every pre-existing configuration
// keeps its exact historical fingerprint.
impl fmt::Debug for AddressPlanConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("AddressPlanConfig");
        d.field("split_17_prob", &self.split_17_prob)
            .field("more_specific_prob", &self.more_specific_prob)
            .field("seed", &self.seed);
        if self.dense_origins != 0 || self.extra_specifics_max != 0 {
            d.field("dense_origins", &self.dense_origins)
                .field("extra_specifics_max", &self.extra_specifics_max);
        }
        d.finish()
    }
}

/// The generated plan: announced prefixes and per-AS blocks.
#[derive(Clone, Debug)]
pub struct AddressPlan {
    /// All announced prefixes with their origins.
    pub table: PrefixTable,
    /// Per AS: its /16 block (for address assignment).
    pub blocks: BTreeMap<Asn, Ipv4Prefix>,
    /// The dense origins (ascending): non-hosting ASes that deaggregate
    /// into 256 /24s. Empty unless
    /// [`AddressPlanConfig::dense_origins`] is set.
    pub dense: Vec<Asn>,
}

impl AddressPlan {
    /// Generate the plan for every AS in `graph`. `hosting` ASes always
    /// split their block into four /18s (multiple announced prefixes per
    /// hosting organization).
    ///
    /// # Panics
    /// Panics if the graph has more than 65 536 ASes (the /16-per-AS
    /// scheme exhausts IPv4).
    pub fn generate(
        graph: &AsGraph,
        hosting: &[Asn],
        config: &AddressPlanConfig,
    ) -> AddressPlan {
        assert!(graph.len() <= 1 << 16, "too many ASes for /16 blocks");
        let hosting: BTreeSet<Asn> = hosting.iter().copied().collect();
        // Dense origins are drawn from their own rng stream so that
        // `dense_origins: 0` leaves the historical prefix plan
        // byte-identical.
        let dense: BTreeSet<Asn> = if config.dense_origins > 0 {
            let mut pool: Vec<Asn> = graph.asns().filter(|a| !hosting.contains(a)).collect();
            pool.shuffle(&mut StdRng::seed_from_u64(config.seed ^ 0xDE45E));
            pool.truncate(config.dense_origins);
            pool.into_iter().collect()
        } else {
            BTreeSet::new()
        };
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut table = PrefixTable::new();
        let mut blocks = BTreeMap::new();
        for asn in graph.asns() {
            let idx = graph.index_of(asn).expect("asn from graph") as u32;
            let base = idx << 16;
            let block = Ipv4Prefix::from_u32(base, 16);
            blocks.insert(asn, block);
            if hosting.contains(&asn) {
                // Four /18s: several distinct announced prefixes for one
                // hosting org.
                for k in 0..4u32 {
                    table.insert(Ipv4Prefix::from_u32(base | (k << 14), 18), asn);
                }
            } else if dense.contains(&asn) {
                // Full deaggregation: the covering /16 plus all 256
                // /24s, the way leaky route optimizers advertise.
                table.insert(block, asn);
                for k in 0..256u32 {
                    table.insert(Ipv4Prefix::from_u32(base | (k << 8), 24), asn);
                }
            } else if rng.gen_bool(config.split_17_prob) {
                table.insert(Ipv4Prefix::from_u32(base, 17), asn);
                table.insert(Ipv4Prefix::from_u32(base | (1 << 15), 17), asn);
            } else {
                table.insert(block, asn);
            }
            if rng.gen_bool(config.more_specific_prob) {
                // A /20 carved out of the low end of the block.
                table.insert(Ipv4Prefix::from_u32(base, 20), asn);
            }
            if config.extra_specifics_max > 0 && !dense.contains(&asn) {
                // Scattered /24s from the high end of the block (clear
                // of the /20 above), thickening the table toward real
                // RIB densities without changing LPM winners for relay
                // or dense-origin addresses.
                let n = rng.gen_range(0..=config.extra_specifics_max);
                for k in 0..n {
                    table.insert(Ipv4Prefix::from_u32(base | ((255 - k) << 8), 24), asn);
                }
            }
        }
        AddressPlan {
            table,
            blocks,
            dense: dense.into_iter().collect(),
        }
    }

    /// A deterministic-with-rng address inside `asn`'s block.
    ///
    /// # Panics
    /// Panics if `asn` has no block.
    pub fn random_addr_in(&self, asn: Asn, rng: &mut StdRng) -> Ipv4Addr {
        let block = self.blocks.get(&asn).expect("AS has a block");
        let host: u32 = rng.gen_range(1..(1 << 16) - 1);
        Ipv4Addr::from(block.network_u32() | host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicksand_topology::{TopologyConfig, TopologyGenerator};

    #[test]
    fn plan_covers_every_as() {
        let t = TopologyGenerator::new(TopologyConfig::small(3)).generate();
        let plan =
            AddressPlan::generate(&t.graph, &t.hosting, &AddressPlanConfig::default());
        assert_eq!(plan.blocks.len(), t.graph.len());
        // Every AS originates at least one prefix.
        for asn in t.graph.asns() {
            assert!(
                !plan.table.prefixes_of(asn).is_empty(),
                "{asn} announces nothing"
            );
        }
        // Hosting ASes announce 4 or 5 prefixes (4 /18s + optional /20).
        for h in &t.hosting {
            let n = plan.table.prefixes_of(*h).len();
            assert!((4..=5).contains(&n), "{h} announces {n} prefixes");
        }
    }

    #[test]
    fn blocks_are_disjoint() {
        let t = TopologyGenerator::new(TopologyConfig::small(4)).generate();
        let plan =
            AddressPlan::generate(&t.graph, &t.hosting, &AddressPlanConfig::default());
        let mut seen = BTreeSet::new();
        for b in plan.blocks.values() {
            assert!(seen.insert(*b), "duplicate block {b}");
        }
    }

    #[test]
    fn addresses_land_in_owning_block() {
        let t = TopologyGenerator::new(TopologyConfig::small(5)).generate();
        let plan =
            AddressPlan::generate(&t.graph, &t.hosting, &AddressPlanConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        for asn in t.graph.asns().take(20) {
            let addr = plan.random_addr_in(asn, &mut rng);
            assert!(plan.blocks[&asn].contains_addr(addr));
            // LPM through the announcement table resolves to the same AS.
            let (_, origin) = plan.table.longest_match(addr).expect("covered");
            assert_eq!(origin, asn);
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let t = TopologyGenerator::new(TopologyConfig::small(6)).generate();
        let a = AddressPlan::generate(&t.graph, &t.hosting, &AddressPlanConfig::default());
        let b = AddressPlan::generate(&t.graph, &t.hosting, &AddressPlanConfig::default());
        assert_eq!(
            a.table.iter().collect::<Vec<_>>(),
            b.table.iter().collect::<Vec<_>>()
        );
    }
}
