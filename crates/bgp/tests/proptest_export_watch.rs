//! Property-based validation of refresh by exception (DESIGN.md §20):
//! on random 200- and 800-AS generated topologies under random
//! down/up churn, after every `FastConverge::apply`
//!
//! 1. every node whose next hop differs between the pre-event and the
//!    post-event tree appears in that tree's trace — the premise the
//!    collector's watch-row test stands on;
//! 2. the filtered refresh (`Collector::refresh_exports_dirty`, which
//!    skips origins whose watch row misses the trace and, on a hit,
//!    walks only the peers whose post-event path holds a trace node)
//!    reports exactly the per-session dirty sets of a brute-force walk
//!    of every (affected origin, session peer) pair;
//! 3. every cached export equals a fresh `export_into_idx` walk, so a
//!    skipped entry can never hold a stale value;
//! 4. every origin's watch row marks every session peer and every node
//!    on its current path — rows may keep stale bits, never miss one.
//!
//! The proptest draws short churn runs; the generated-topology sweep
//! replays 240 events on one `FastConverge` per topology, so rows
//! collect stale bits over many per-peer refreshes.
//! `QUICKSAND_TEST_SEEDS` (comma-separated, decimal or `0x`-hex)
//! replaces the sweep's default seeds.

use proptest::prelude::*;
use proptest::TestRng;
use quicksand_bgp::{Collector, CollectorConfig, ExportCache, FastConverge, LinkChange};
use quicksand_net::Asn;
use quicksand_topology::{AsGraph, RouteClass, RoutingTree, TopologyConfig, TopologyGenerator};
use std::collections::{BTreeMap, BTreeSet};

/// Seeds for the generated-topology sweep; `QUICKSAND_TEST_SEEDS`
/// overrides.
fn env_seeds(default: &[u64]) -> Vec<u64> {
    match std::env::var("QUICKSAND_TEST_SEEDS") {
        Ok(s) if !s.trim().is_empty() => s
            .split(',')
            .map(|tok| {
                let tok = tok.trim();
                let parsed = match tok.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => tok.parse(),
                };
                parsed.unwrap_or_else(|_| panic!("QUICKSAND_TEST_SEEDS: bad seed {tok:?}"))
            })
            .collect(),
        _ => default.to_vec(),
    }
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

/// One replay under test: the filtered refresh beside its brute-force
/// reference.
struct Replay {
    fc: FastConverge,
    origins: Vec<Asn>,
    peers: Vec<Asn>,
    collector: Collector,
    cache: ExportCache,
    dirty: Vec<Vec<Asn>>,
    /// Every (origin, peer) export, walked.
    reference: BTreeMap<(Asn, Asn), Export>,
}

impl Replay {
    /// Track `origins` over `g` with one session per peer, and refresh
    /// every origin once (building every watch row).
    fn new(g: AsGraph, origins: Vec<Asn>, peers: Vec<Asn>) -> Self {
        let fc = FastConverge::new(g, origins.iter().copied());
        let mut collector =
            Collector::new(&peers, &CollectorConfig::default()).expect("valid collector config");
        let mut cache = ExportCache::new();
        let mut reference = BTreeMap::new();
        for &o in &origins {
            let tree = fc.tree(o).expect("tracked");
            collector.refresh_exports(fc.graph(), tree, &mut cache);
            for &p in &peers {
                reference.insert((o, p), walk(fc.graph(), tree, p));
            }
        }
        let dirty = vec![Vec::new(); peers.len()];
        Replay {
            fc,
            origins,
            peers,
            collector,
            cache,
            dirty,
            reference,
        }
    }

    /// Apply `change`, refresh the affected origins as the replay loops
    /// do, and check the four properties of the module doc.
    fn apply_and_check(&mut self, change: LinkChange, what: &str) {
        let n = self.fc.graph().len();
        let before: Vec<Vec<Option<usize>>> = self
            .origins
            .iter()
            .map(|&o| next_hops(self.fc.tree(o).expect("tracked"), n))
            .collect();
        let affected = self.fc.apply(change);
        let (fc, g) = (&self.fc, self.fc.graph());

        // (1) The trace names every node whose next hop moved.
        for (&o, before) in self.origins.iter().zip(&before) {
            let tree = fc.tree(o).expect("tracked");
            let traced: BTreeSet<usize> =
                tree.trace().iter().map(|&(v, _, _)| v as usize).collect();
            for (v, (old, new)) in before.iter().zip(next_hops(tree, n)).enumerate() {
                assert!(
                    *old == new || traced.contains(&v),
                    "{what}: origin {o} node {v} moved {old:?} -> {new:?} untraced"
                );
            }
        }

        // (2) The filtered refresh reports the brute-force dirty sets.
        self.dirty.iter_mut().for_each(Vec::clear);
        for &o in &affected {
            let tree = fc.tree(o).expect("tracked");
            self.collector
                .refresh_exports_dirty(g, tree, &mut self.cache, &mut self.dirty);
        }
        let mut expected: Vec<Vec<Asn>> = vec![Vec::new(); self.peers.len()];
        for &o in &affected {
            let tree = fc.tree(o).expect("tracked");
            for (si, &p) in self.peers.iter().enumerate() {
                let now = walk(g, tree, p);
                if self.reference.insert((o, p), now.clone()) != Some(now) {
                    expected[si].push(o);
                }
            }
        }
        assert_eq!(self.dirty, expected, "{what}: dirty sets diverged");

        for &o in &self.origins {
            let tree = fc.tree(o).expect("tracked");
            for &p in &self.peers {
                // (3) Every cached export, skipped or walked, is current.
                let cached = self
                    .cache
                    .get(o, p)
                    .map(|(id, class)| (self.collector.arena().resolve(id).asns().to_vec(), class));
                assert_eq!(
                    cached,
                    walk(g, tree, p),
                    "{what}: stale export for origin {o} at peer {p}"
                );
                // (4) The row marks the peer and its whole current path.
                let Some(mut v) = g.index_of(p) else { continue };
                loop {
                    assert_eq!(
                        self.cache.watched(o, v),
                        Some(true),
                        "{what}: origin {o}'s row misses node {} on peer {p}'s path",
                        g.asn_of(v)
                    );
                    match tree.route_at_idx(v) {
                        Some((_, _, next)) if next != v => v = next,
                        _ => break,
                    }
                }
            }
        }
    }
}

/// The topology a generator config yields, compacted as the scenario
/// pipeline hands it to `FastConverge`.
fn generated(config: TopologyConfig) -> AsGraph {
    let mut g = TopologyGenerator::new(config).generate().graph;
    g.compact();
    g
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
        let g = generated(if large {
            TopologyConfig::internet(800, seed)
        } else {
            TopologyConfig::small(seed)
        });
        let n = g.len();
        let links = links_of(&g);
        let asns: Vec<Asn> = g.asns().collect();
        // 32 tracked origins and 16 session peers, drawn with repeats
        // (duplicates collapse), so origins and peers overlap at times.
        let draw = |picks: &[proptest::sample::Index]| -> Vec<Asn> {
            picks
                .iter()
                .map(|ix| asns[ix.index(n)])
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect()
        };
        let mut replay = Replay::new(g, draw(&picks[..32]), draw(&picks[32..]));

        let mut down: Vec<(Asn, Asn)> = Vec::new();
        for (event, (ix, up)) in churn.into_iter().enumerate() {
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
            replay.apply_and_check(change, &format!("seed {seed:#x} event {event} {change:?}"));
        }
    }
}

#[test]
fn watch_rows_stay_exact_over_long_generated_replays() {
    for seed in env_seeds(&[1, 2, 3]) {
        for (name, config) in [
            ("small", TopologyConfig::small(seed)),
            ("regional-800", TopologyConfig::internet(800, seed)),
        ] {
            let g = generated(config);
            let links = links_of(&g);
            let asns: Vec<Asn> = g.asns().collect();
            let mut rng = TestRng::from_seed(seed ^ 0xE1C4);
            let mut draw = |k: usize| -> Vec<Asn> {
                (0..k)
                    .map(|_| asns[rng.below(asns.len())])
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect()
            };
            let (origins, peers) = (draw(32), draw(16));
            let mut replay = Replay::new(g, origins, peers);
            // Each event toggles a drawn link: it fails if up and is
            // restored if down, so both kinds of event move trees.
            for event in 0..240 {
                let (a, b) = links[rng.below(links.len())];
                let up = replay.fc.graph().relationship(a, b).is_none();
                let what = format!("{name}/seed={seed:#x}: event {event} ({a}-{b} up={up})");
                replay.apply_and_check(LinkChange { a, b, up }, &what);
            }
        }
    }
}
