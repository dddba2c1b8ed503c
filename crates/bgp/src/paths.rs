//! Interned AS-path observation: the month-replay hot path's arena.
//!
//! A month replay observes the same few thousand *distinct* AS paths
//! millions of times: every churn event re-reads each affected origin's
//! route at every collector peer, and the untuned pipeline rebuilt a
//! heap-backed [`AsPath`] per (session, prefix) query — twice, once in
//! the export closure and once more when the diff prepended the peer.
//! This module removes those allocations (DESIGN.md §11):
//!
//! * [`PathArena`] deduplicates paths. Interning an already-seen path is
//!   a hash plus a slice compare — no allocation — and yields a compact
//!   [`PathId`] the collector stores in its table and diffs by integer
//!   equality instead of hop-by-hop path comparison.
//! * [`ExportCache`] memoizes, per `(origin, peer)`, the interned
//!   *recorded* path (peer-prepended, exactly what the session logs) and
//!   the peer's route class, keyed on the origin tree's
//!   [`RoutingTree::epoch`]. A session diff then costs one table lookup;
//!   the path walk and intern happen once per tree *change*, not once
//!   per (session, prefix) query.
//! * Next to that memo, one *watch row* per origin marks the graph
//!   nodes every session export of the origin depends on. When the
//!   tree's routing trace misses the row, no export of the origin can
//!   have changed and the collector skips all of its walks; when it
//!   hits, only the sessions whose paths a trace node lies on are
//!   walked (DESIGN.md §20).
//!
//! Determinism note: both maps are `HashMap`s but are never iterated —
//! all iteration-order-sensitive state lives in sorted structures — and
//! recorded output resolves ids back to paths, so results are
//! independent of hash seeding and of the order ids were assigned.

use quicksand_net::{AsPath, Asn};
use quicksand_topology::{AsGraph, RouteClass, RoutingTree};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Compact handle to a path interned in a [`PathArena`]. Two ids from
/// the same arena are equal iff the paths are equal hop for hop.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PathId(u32);

/// A multiply-rotate hasher (the rustc "Fx" construction) for the `u64`
/// keys below. Both maps sit on the per-event hot path, where SipHash's
/// keyed setup costs more than the lookup itself; neither map is
/// exposed to untrusted keys, so HashDoS resistance buys nothing here.
#[derive(Default)]
pub(crate) struct FxHasher(u64);

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

pub(crate) type FxMap<V> = HashMap<u64, V, BuildHasherDefault<FxHasher>>;

/// FNV-1a over the path's ASN sequence. Collisions are tolerated (the
/// arena compares slices within a bucket); this only spreads buckets.
fn fnv64_asns(asns: &[Asn]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for a in asns {
        for b in a.0.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A deduplicating arena of AS paths.
///
/// [`PathArena::intern_slice`] is the hot entry point: on a hit (the
/// overwhelmingly common case after warmup) it allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct PathArena {
    paths: Vec<AsPath>,
    /// Hash → ids of paths with that hash (almost always one).
    buckets: FxMap<Vec<PathId>>,
}

impl PathArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct paths interned.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Intern the path given as an ASN slice (first hop first, origin
    /// last). Allocation-free when the path is already interned.
    pub fn intern_slice(&mut self, asns: &[Asn]) -> PathId {
        let bucket = self.buckets.entry(fnv64_asns(asns)).or_default();
        for &id in bucket.iter() {
            if self.paths[id.0 as usize].asns() == asns {
                return id;
            }
        }
        let id = PathId(
            u32::try_from(self.paths.len()).expect("fewer than 2^32 distinct paths"),
        );
        self.paths.push(AsPath::from_asns(asns.iter().copied()));
        bucket.push(id);
        id
    }

    /// Intern an owned path (reusing an existing entry when equal).
    pub fn intern(&mut self, path: AsPath) -> PathId {
        let bucket = self.buckets.entry(fnv64_asns(path.asns())).or_default();
        for &id in bucket.iter() {
            if self.paths[id.0 as usize] == path {
                return id;
            }
        }
        let id = PathId(
            u32::try_from(self.paths.len()).expect("fewer than 2^32 distinct paths"),
        );
        self.paths.push(path);
        bucket.push(id);
        id
    }

    /// The path behind an id issued by this arena.
    pub fn resolve(&self, id: PathId) -> &AsPath {
        &self.paths[id.0 as usize]
    }
}

#[derive(Clone, Copy, Debug)]
struct CachedExport {
    /// [`RoutingTree::epoch`] the entry was computed at; `u64::MAX` is
    /// the never-computed sentinel (trees start at epoch 0).
    epoch: u64,
    /// The interned recorded path and the peer's route class, `None`
    /// when the peer has no route to the origin.
    export: Option<(PathId, RouteClass)>,
}

/// The graph nodes one origin's session exports depend on: a superset
/// of each session peer and every node on its current path (DESIGN.md
/// §20).
#[derive(Clone, Debug)]
struct WatchRow {
    /// [`RoutingTree::epoch`] at which every session peer's cached
    /// export was last proven current.
    epoch: u64,
    /// Bitmap over graph node indices.
    bits: Vec<u64>,
}

impl WatchRow {
    fn contains(&self, v: usize) -> bool {
        self.bits[v / 64] & (1 << (v % 64)) != 0
    }

    fn mark(&mut self, v: usize) {
        self.bits[v / 64] |= 1 << (v % 64);
    }
}

/// What an origin's watch row proves about its session exports after a
/// tree change (see [`ExportCache::watch_check`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Watch {
    /// No export can have changed: skip every walk.
    Unchanged,
    /// The trace is trusted but hits the row: walk only the peers
    /// [`ExportCache::watch_peers`] reports touched.
    PerPeer,
    /// Nothing is proven: walk every peer, then [`ExportCache::rewatch`].
    Rebuild,
}

/// Per-`(origin, peer)` memo of what a collector session would record,
/// invalidated by [`RoutingTree::epoch`] advances.
///
/// The collector refreshes a changed tree's exports at its session
/// peers before observing, skipping the whole origin when its watch
/// row proves every export unchanged; the observe closure then answers
/// every (session, prefix) query with [`ExportCache::get`] — no path
/// walk, no allocation.
#[derive(Clone, Debug, Default)]
pub struct ExportCache {
    /// Keyed by `(origin << 32) | peer` — see [`pair_key`].
    entries: FxMap<CachedExport>,
    /// Reusable hop buffer for [`RoutingTree::path_from_into`].
    scratch: Vec<Asn>,
    /// One watch row per origin, keyed by origin ASN, each built over
    /// the session peers of collector `owner`.
    watch: FxMap<WatchRow>,
    /// The id of the collector the watch rows were built for (see
    /// `Collector::new`); 0 before any row. A refresh for another owner
    /// drops every row. A collector's roster never changes, so the id
    /// stands for the roster.
    owner: u64,
    /// Per graph node, the last generation's state of the node relative
    /// to `stamp_gen` (see [`Stamp`]); any other value means "not seen
    /// this generation", so no clearing is needed between origins.
    stamps: Vec<u32>,
    stamp_gen: u32,
    /// Reusable node stack of one per-peer marking walk.
    walk: Vec<usize>,
}

/// A node's state in the per-peer marking walk, as an offset from the
/// generation `ExportCache::stamp_gen`.
#[derive(Clone, Copy)]
#[repr(u32)]
enum Stamp {
    /// In the trace, not yet walked.
    Traced = 0,
    /// Walked; its post-event path holds a trace node.
    Touched = 1,
    /// Walked; its post-event path holds no trace node.
    Clean = 2,
}

impl Stamp {
    /// Generations per [`ExportCache::stamp_gen`] step.
    const STATES: u32 = 3;
}

/// One-word key for an `(origin, peer)` pair; ASNs are 32-bit so the
/// packing is injective.
fn pair_key(origin: Asn, peer: Asn) -> u64 {
    (u64::from(origin.0) << 32) | u64::from(peer.0)
}

impl ExportCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bring the `(tree.dest(), peer)` entry up to date: if the tree's
    /// epoch moved since the entry was computed (or the pair was never
    /// seen), walk the peer's path once, intern it into `arena`, and
    /// store the `(id, class)` export. No-op when the epoch matches.
    ///
    /// Returns `true` when the export *value* changed (including the
    /// first computation for the pair) — the dirty signal the
    /// changed-origin observe path keys on. An epoch advance that
    /// leaves the peer's export identical returns `false`.
    ///
    /// The cached path is the *recorded* path — the peer-prepended form
    /// a session logs, i.e. the full `peer → … → origin` walk.
    pub fn refresh(
        &mut self,
        graph: &AsGraph,
        tree: &RoutingTree,
        peer: Asn,
        arena: &mut PathArena,
    ) -> bool {
        self.refresh_at(graph, tree, peer, graph.index_of(peer), arena)
    }

    /// [`ExportCache::refresh`] with the peer's dense node index already
    /// resolved (`None` when the peer is not in the graph — it then has
    /// no route by definition). The per-event hot loop refreshes every
    /// session peer of each changed origin its watch row cannot prove
    /// unchanged, so the caller amortizes the ASN→index map walk across
    /// the whole run instead of paying it twice per refresh.
    pub fn refresh_at(
        &mut self,
        graph: &AsGraph,
        tree: &RoutingTree,
        peer: Asn,
        peer_idx: Option<usize>,
        arena: &mut PathArena,
    ) -> bool {
        let Self {
            entries, scratch, ..
        } = self;
        let entry = entries
            .entry(pair_key(tree.dest(), peer))
            .or_insert(CachedExport {
                epoch: u64::MAX,
                export: None,
            });
        if entry.epoch == tree.epoch() {
            return false;
        }
        let first = entry.epoch == u64::MAX;
        entry.epoch = tree.epoch();
        let prev = entry.export;
        entry.export = peer_idx
            .and_then(|i| tree.export_into_idx(graph, i, scratch))
            .map(|class| {
                // A tree change usually leaves most peers' paths intact:
                // one slice compare against the previous export skips
                // the hash-and-probe of a full intern in that common
                // case.
                let id = match prev {
                    Some((old, _)) if arena.resolve(old).asns() == &scratch[..] => old,
                    _ => arena.intern_slice(scratch),
                };
                (id, class)
            });
        first || entry.export != prev
    }

    /// What the watch row of `tree`'s origin proves about its exports
    /// at the session peers of collector `owner` since the row's epoch.
    ///
    /// [`Watch::Unchanged`] when the tree has not moved since the row,
    /// or when the trace is trusted — the tree is traced and its trace
    /// covers every transition since the row's epoch — and no trace
    /// node is in the row. [`Watch::PerPeer`] when the trace is trusted
    /// but hits the row: the trace's nodes are stamped for
    /// [`ExportCache::watch_peers`]. Either way the row moves to the
    /// tree's epoch, so a `PerPeer` caller must check every peer. A
    /// trace listing extra nodes only costs a walk; a trace that starts
    /// after the row's epoch could miss a change, so it never proves
    /// anything and the answer is [`Watch::Rebuild`] (DESIGN.md §20).
    pub(crate) fn watch_check(&mut self, tree: &RoutingTree, owner: u64) -> Watch {
        if self.owner != owner {
            self.watch.clear();
            self.owner = owner;
            return Watch::Rebuild;
        }
        let Some(row) = self.watch.get_mut(&u64::from(tree.dest().0)) else {
            return Watch::Rebuild;
        };
        if row.epoch == tree.epoch() {
            return Watch::Unchanged;
        }
        if !(tree.tracing() && tree.trace_epoch() <= row.epoch && row.epoch < tree.epoch()) {
            return Watch::Rebuild;
        }
        row.epoch = tree.epoch();
        if tree
            .trace()
            .iter()
            .all(|&(v, _, _)| !row.contains(v as usize))
        {
            return Watch::Unchanged;
        }
        self.next_stamp_gen();
        for &(v, _, _) in tree.trace() {
            self.stamps[v as usize] = self.stamp_gen + Stamp::Traced as u32;
        }
        Watch::PerPeer
    }

    /// Start a stamp generation in which no node has been seen.
    fn next_stamp_gen(&mut self) {
        self.stamp_gen = match self.stamp_gen.checked_add(Stamp::STATES) {
            Some(gen) if gen <= u32::MAX - Stamp::STATES => gen,
            _ => {
                self.stamps.fill(0);
                Stamp::STATES
            }
        };
    }

    /// The per-peer marking walk over every peer in `peers` (the roster
    /// of the preceding [`ExportCache::watch_check`]): follow the
    /// post-event next hops from each peer to the origin (or to an
    /// unrouted node), marking every node in the row of `tree`'s
    /// origin, and call `touched(i)` for each `peers[i]` whose path holds
    /// a node stamped into the current generation's trace. When none
    /// does, no node on the path changed its next hop, so the pre-event
    /// path from the peer was the same chain and its export is
    /// unchanged (DESIGN.md §20.6). A walk stops early only at a node
    /// walked earlier in the same generation, whose path is marked and
    /// whose verdict is known; it never stops at a merely marked node,
    /// since a row may keep stale bits whose current paths are unmarked.
    pub(crate) fn watch_peers(
        &mut self,
        tree: &RoutingTree,
        peers: &[Option<usize>],
        mut touched: impl FnMut(usize),
    ) {
        let Self {
            watch,
            stamps,
            stamp_gen,
            walk,
            ..
        } = self;
        let row = watch
            .get_mut(&u64::from(tree.dest().0))
            .expect("watch_peers follows a watch_check or rewatch that made the row");
        let stamp = |s: Stamp| *stamp_gen + s as u32;
        for (i, &peer) in peers.iter().enumerate() {
            let Some(mut v) = peer else { continue };
            walk.clear();
            let mut hit = loop {
                match stamps[v] {
                    s if s == stamp(Stamp::Touched) => break true,
                    s if s == stamp(Stamp::Clean) => break false,
                    _ => {}
                }
                walk.push(v);
                row.mark(v);
                match tree.route_at_idx(v) {
                    Some((_, _, next)) if next != v => v = next,
                    _ => break false,
                }
            };
            for &u in walk.iter().rev() {
                hit |= stamps[u] == stamp(Stamp::Traced);
                stamps[u] = stamp(if hit { Stamp::Touched } else { Stamp::Clean });
            }
            if hit {
                touched(i);
            }
        }
    }

    /// Rebuild the watch row of `tree`'s origin at the tree's epoch:
    /// clear it, then run the per-peer marking walk from every peer in
    /// `peers` with no node stamped. Call after refreshing the origin's
    /// export at every one of `peers`.
    pub(crate) fn rewatch(&mut self, graph: &AsGraph, tree: &RoutingTree, peers: &[Option<usize>]) {
        let words = graph.len().div_ceil(64);
        let row = self
            .watch
            .entry(u64::from(tree.dest().0))
            .or_insert_with(|| WatchRow {
                epoch: 0,
                bits: Vec::new(),
            });
        row.epoch = tree.epoch();
        row.bits.clear();
        row.bits.resize(words, 0);
        self.stamps.resize(words * 64, 0);
        self.next_stamp_gen();
        self.watch_peers(tree, peers, |_| {});
    }

    /// Whether the watch row of `origin` marks graph node `node`; `None`
    /// when the origin has no row. A row marks at least every session
    /// peer and every node on its current path (DESIGN.md §20.6).
    pub fn watched(&self, origin: Asn, node: usize) -> Option<bool> {
        self.watch
            .get(&u64::from(origin.0))
            .map(|row| row.contains(node))
    }

    /// The memoized export for `(origin, peer)`.
    ///
    /// Panics when the pair was never refreshed — that would mean the
    /// replay loop queried an origin whose tree it did not refresh,
    /// which silently corrupts the dataset; failing loudly is the
    /// guard on that invariant.
    pub fn get(&self, origin: Asn, peer: Asn) -> Option<(PathId, RouteClass)> {
        self.entries
            .get(&pair_key(origin, peer))
            .expect("export cache queried for a never-refreshed (origin, peer)")
            .export
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{Collector, CollectorConfig};
    use quicksand_topology::{Tier, TRACE_UNROUTED};

    fn path(v: &[u32]) -> AsPath {
        v.iter().map(|&a| Asn(a)).collect()
    }

    #[test]
    fn interning_dedups_and_resolves() {
        let mut arena = PathArena::new();
        assert!(arena.is_empty());
        let a = arena.intern(path(&[1, 2, 3]));
        let b = arena.intern_slice(&[Asn(1), Asn(2), Asn(3)]);
        let c = arena.intern(path(&[1, 2, 4]));
        assert_eq!(a, b, "equal paths intern to one id");
        assert_ne!(a, c);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.resolve(a), &path(&[1, 2, 3]));
        assert_eq!(arena.resolve(c), &path(&[1, 2, 4]));
        // The empty path interns like any other.
        let e = arena.intern_slice(&[]);
        assert_eq!(arena.resolve(e), &AsPath::empty());
        assert_eq!(arena.intern(AsPath::empty()), e);
    }

    #[test]
    fn export_cache_tracks_tree_epochs() {
        // Chain 3 -> 2 -> 1 (customer -> provider), destination 1.
        let mut g = AsGraph::new();
        for (a, t) in [(1, Tier::Tier1), (2, Tier::Tier2), (3, Tier::Stub)] {
            g.add_as(Asn(a), t).unwrap();
        }
        g.add_customer_provider(Asn(2), Asn(1)).unwrap();
        g.add_customer_provider(Asn(3), Asn(2)).unwrap();
        let mut tree = RoutingTree::compute(&g, Asn(1)).unwrap();

        let mut arena = PathArena::new();
        let mut cache = ExportCache::new();
        cache.refresh(&g, &tree, Asn(3), &mut arena);
        let (id, class) = cache.get(Asn(1), Asn(3)).unwrap();
        assert_eq!(arena.resolve(id), &path(&[3, 2, 1]));
        assert_eq!(class, RouteClass::Provider);

        // Same epoch: refresh is a no-op and interns nothing new.
        cache.refresh(&g, &tree, Asn(3), &mut arena);
        assert_eq!(arena.len(), 1);

        // Cut 3–2: the epoch advances and the export disappears.
        g.remove_link(Asn(3), Asn(2)).unwrap();
        assert!(tree.reconverge_after_link_event(&g, Asn(3), Asn(2)));
        cache.refresh(&g, &tree, Asn(3), &mut arena);
        assert_eq!(cache.get(Asn(1), Asn(3)), None);

        // Restore: the path comes back under the same interned id.
        g.add_customer_provider(Asn(3), Asn(2)).unwrap();
        assert!(tree.reconverge_after_link_event(&g, Asn(3), Asn(2)));
        cache.refresh(&g, &tree, Asn(3), &mut arena);
        assert_eq!(cache.get(Asn(1), Asn(3)).unwrap().0, id);
        assert_eq!(arena.len(), 1, "re-seen path must not re-intern");

        // Through the collector's filtered refresh loop: the diamond
        // 4 -> {2, 3} -> 1 plus a stub 5 -> 3, destination 1, one
        // session at 4 (path 4 2 1, so the watch row is {4, 2, 1}).
        let diamond = || {
            let mut g = AsGraph::new();
            for (a, t) in [
                (1, Tier::Tier1),
                (2, Tier::Tier2),
                (3, Tier::Tier2),
                (4, Tier::Stub),
                (5, Tier::Stub),
            ] {
                g.add_as(Asn(a), t).unwrap();
            }
            for (c, p) in [(2, 1), (3, 1), (4, 2), (4, 3), (5, 3)] {
                g.add_customer_provider(Asn(c), Asn(p)).unwrap();
            }
            g
        };
        fn refresh(
            collector: &mut Collector,
            g: &AsGraph,
            tree: &RoutingTree,
            cache: &mut ExportCache,
        ) -> Vec<Asn> {
            let mut dirty = vec![Vec::new()];
            collector.refresh_exports_dirty(g, tree, cache, &mut dirty);
            dirty.swap_remove(0)
        }
        let recorded = |collector: &Collector, cache: &ExportCache| {
            let (id, _) = cache.get(Asn(1), Asn(4)).unwrap();
            collector.arena().resolve(id).clone()
        };
        let entry_epoch = |cache: &ExportCache| cache.entries[&pair_key(Asn(1), Asn(4))].epoch;
        let config = CollectorConfig::default();

        // A traced event off the watched path is skipped: no walk (the
        // entry keeps its epoch), nothing dirty, the value still right.
        let mut g = diamond();
        let mut tree = RoutingTree::compute(&g, Asn(1)).unwrap();
        tree.set_tracing(true);
        let mut collector = Collector::new(&[Asn(4)], &config).unwrap();
        let mut cache = ExportCache::new();
        assert_eq!(refresh(&mut collector, &g, &tree, &mut cache), vec![Asn(1)]);
        g.remove_link(Asn(5), Asn(3)).unwrap();
        assert!(tree.reconverge_after_link_event(&g, Asn(5), Asn(3)));
        assert!(refresh(&mut collector, &g, &tree, &mut cache).is_empty());
        assert_eq!(entry_epoch(&cache), 0, "an off-path event must not walk");
        assert_eq!(recorded(&collector, &cache), path(&[4, 2, 1]));

        // An untraced tree proves nothing: the on-path cut 4-2 must be
        // walked and reported although the (empty) trace misses the row.
        let mut g = diamond();
        let mut tree = RoutingTree::compute(&g, Asn(1)).unwrap();
        let mut collector = Collector::new(&[Asn(4)], &config).unwrap();
        let mut cache = ExportCache::new();
        refresh(&mut collector, &g, &tree, &mut cache);
        g.remove_link(Asn(4), Asn(2)).unwrap();
        assert!(tree.reconverge_after_link_event(&g, Asn(4), Asn(2)));
        assert!(tree.trace().is_empty());
        assert_eq!(refresh(&mut collector, &g, &tree, &mut cache), vec![Asn(1)]);
        assert_eq!(recorded(&collector, &cache), path(&[4, 3, 1]));

        // Two reconvergences between refreshes, the trace cleared in
        // between as `FastConverge` does: the trace covers only the
        // off-path second one (node 5), so it must not prove the first,
        // on-path one (4 moves to 3) unchanged.
        let mut g = diamond();
        let mut tree = RoutingTree::compute(&g, Asn(1)).unwrap();
        tree.set_tracing(true);
        let mut collector = Collector::new(&[Asn(4)], &config).unwrap();
        let mut cache = ExportCache::new();
        refresh(&mut collector, &g, &tree, &mut cache);
        g.remove_link(Asn(4), Asn(2)).unwrap();
        assert!(tree.reconverge_after_link_event(&g, Asn(4), Asn(2)));
        tree.clear_trace();
        g.remove_link(Asn(5), Asn(3)).unwrap();
        assert!(tree.reconverge_after_link_event(&g, Asn(5), Asn(3)));
        assert_eq!(tree.epoch(), 2);
        assert_eq!(tree.trace(), &[(4, 2, TRACE_UNROUTED)]);
        assert_eq!(refresh(&mut collector, &g, &tree, &mut cache), vec![Asn(1)]);
        assert_eq!(recorded(&collector, &cache), path(&[4, 3, 1]));
    }

    #[test]
    fn a_hit_row_walks_only_the_touched_peers() {
        // Tier-1s 1 and 6 peer; 2 buys from 1 and 6, 3 from 1; stub 4
        // buys from 2, stub 5 from 3. Destination 1, sessions at 4 and
        // 5: paths 4 2 1 and 5 3 1, so the row is {1, 2, 3, 4, 5}.
        let topology = || {
            let mut g = AsGraph::new();
            for (a, t) in [
                (1, Tier::Tier1),
                (2, Tier::Tier2),
                (3, Tier::Tier2),
                (4, Tier::Stub),
                (5, Tier::Stub),
                (6, Tier::Tier1),
            ] {
                g.add_as(Asn(a), t).unwrap();
            }
            g.add_peering(Asn(1), Asn(6)).unwrap();
            for (c, p) in [(2, 1), (2, 6), (3, 1), (4, 2), (5, 3)] {
                g.add_customer_provider(Asn(c), Asn(p)).unwrap();
            }
            g
        };
        let config = CollectorConfig::default();
        let refresh = |collector: &mut Collector,
                       g: &AsGraph,
                       tree: &RoutingTree,
                       cache: &mut ExportCache| {
            let mut dirty = vec![Vec::new(); 2];
            collector.refresh_exports_dirty(g, tree, cache, &mut dirty);
            dirty
        };
        let entry_epoch =
            |cache: &ExportCache, peer| cache.entries[&pair_key(Asn(1), Asn(peer))].epoch;
        let idx = |g: &AsGraph, a| g.index_of(Asn(a)).unwrap();

        // Cut 2–1: 2 moves to 6 while 4 keeps its next hop, so only 2 is
        // traced. It lies on 4's path, not on 5's: session 0 is walked
        // and reported, session 1 is not walked at all, and the row
        // gains 4's new path node 6.
        let mut g = topology();
        let mut tree = RoutingTree::compute(&g, Asn(1)).unwrap();
        tree.set_tracing(true);
        let mut collector = Collector::new(&[Asn(4), Asn(5)], &config).unwrap();
        let mut cache = ExportCache::new();
        refresh(&mut collector, &g, &tree, &mut cache);
        assert_eq!(cache.watched(Asn(1), idx(&g, 6)), Some(false));
        g.remove_link(Asn(2), Asn(1)).unwrap();
        assert!(tree.reconverge_after_link_event(&g, Asn(2), Asn(1)));
        assert_eq!(tree.trace().len(), 1);
        assert_eq!(tree.trace()[0].0 as usize, idx(&g, 2));
        assert_eq!(
            refresh(&mut collector, &g, &tree, &mut cache),
            [vec![Asn(1)], vec![]]
        );
        assert_eq!((entry_epoch(&cache, 4), entry_epoch(&cache, 5)), (1, 0));
        let (id, _) = cache.get(Asn(1), Asn(4)).unwrap();
        assert_eq!(collector.arena().resolve(id), &path(&[4, 2, 6, 1]));
        assert_eq!(cache.watched(Asn(1), idx(&g, 6)), Some(true));
        assert_eq!(cache.watch[&1].epoch, 1);

        // Two reconvergences with a clear in between: the first (2–1
        // cut) moves 4's path, the second (5–3 cut) leaves 5 unrouted.
        // The trace holds only the second one and hits the row at 5; it
        // starts after the row, so it proves nothing about 4 and both
        // sessions are walked.
        let mut g = topology();
        let mut tree = RoutingTree::compute(&g, Asn(1)).unwrap();
        tree.set_tracing(true);
        let mut collector = Collector::new(&[Asn(4), Asn(5)], &config).unwrap();
        let mut cache = ExportCache::new();
        refresh(&mut collector, &g, &tree, &mut cache);
        g.remove_link(Asn(2), Asn(1)).unwrap();
        assert!(tree.reconverge_after_link_event(&g, Asn(2), Asn(1)));
        tree.clear_trace();
        g.remove_link(Asn(5), Asn(3)).unwrap();
        assert!(tree.reconverge_after_link_event(&g, Asn(5), Asn(3)));
        assert_eq!(
            tree.trace(),
            &[(idx(&g, 5) as u32, idx(&g, 3) as u32, TRACE_UNROUTED)]
        );
        assert_eq!(
            refresh(&mut collector, &g, &tree, &mut cache),
            [vec![Asn(1)], vec![Asn(1)]]
        );
        let (id, _) = cache.get(Asn(1), Asn(4)).unwrap();
        assert_eq!(collector.arena().resolve(id), &path(&[4, 2, 6, 1]));
        assert_eq!(cache.get(Asn(1), Asn(5)), None);
    }

    #[test]
    #[should_panic(expected = "never-refreshed")]
    fn querying_an_unrefreshed_pair_panics() {
        ExportCache::new().get(Asn(1), Asn(2));
    }
}
