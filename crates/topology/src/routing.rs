//! Static Gao–Rexford policy routing.
//!
//! For a destination AS `d`, [`RoutingTree::compute`] assigns every AS its
//! best route to `d` under the standard policy model:
//!
//! 1. **LocalPref by relationship**: routes learned from customers beat
//!    routes from peers beat routes from providers.
//! 2. **Shortest AS path** within the same class.
//! 3. **Deterministic tie-break**: lowest next-hop ASN.
//!
//! combined with valley-free export (an AS only exports peer/provider
//! routes to its customers). The computation is the classic three-phase
//! BFS used by C-BGP-style simulators: customer routes ripple *up*
//! provider links from `d`, peer routes hop *across* one peering link,
//! provider routes ripple *down* customer links.
//!
//! The message-level simulator in `quicksand-bgp` converges to exactly
//! these routes; integration tests cross-validate the two.
//!
//! A tree built over a [`StoredSet`] stores routes only where a route
//! can pass, and decides every other AS's route when it is read
//! (DESIGN.md §26).

use crate::graph::{AsGraph, Relationship};
use quicksand_net::Asn;
use quicksand_obs as obs;
use std::collections::VecDeque;
use std::num::NonZeroU32;
use std::sync::Arc;

/// Reusable worklist state for [`RoutingTree::reconverge_with`]: the
/// pending-node queue plus a generation-stamped "queued" mark per
/// stored node, by slot (only stored nodes are queued, DESIGN.md §27).
/// One scratch serves any number of trees and events — clearing between
/// events is a generation bump (O(1) amortized), not an O(n) refill, so
/// a month of churn touches no allocator after warmup (DESIGN.md §11).
#[derive(Clone, Debug, Default)]
pub struct ReconvergeScratch {
    /// Queued nodes as `(node, slot)`.
    queue: VecDeque<(u32, u32)>,
    /// `stamp[s] == gen` means the node at slot s is currently queued;
    /// any other value (older generations, or 0 after an unmark) means
    /// it is not.
    stamp: Vec<u32>,
    gen: u32,
}

impl ReconvergeScratch {
    /// An empty scratch; buffers grow to the stored-node count on first
    /// use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a new event over a tree of `slots` stored nodes: empty the
    /// queue and invalidate every stamp by bumping the generation. The
    /// u32 wraparound pays one O(n) reset every 2^32 - 1 events.
    fn begin(&mut self, slots: usize) {
        self.queue.clear();
        if self.stamp.len() < slots {
            self.stamp.resize(slots, 0);
        }
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.stamp.fill(0);
            self.gen = 1;
        }
    }

    /// Enqueue node `v`, at slot `s`, unless it is already queued.
    fn push(&mut self, v: usize, s: usize) {
        if self.stamp[s] != self.gen {
            self.stamp[s] = self.gen;
            self.queue.push_back((v as u32, s as u32));
        }
    }

    /// Dequeue and unmark the next node as `(node, slot)`. (`begin`
    /// guarantees `gen != 0`, so a 0 stamp always reads as "not
    /// queued".)
    fn pop(&mut self) -> Option<(usize, usize)> {
        let (v, s) = self.queue.pop_front()?;
        self.stamp[s as usize] = 0;
        Some((v as usize, s as usize))
    }
}

/// How a route was learned, in decreasing order of preference. The
/// discriminants are the class bits of a route's packed preference
/// word (DESIGN.md §22).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum RouteClass {
    /// The destination itself (the origin has a trivial route).
    Origin = 0,
    /// Learned from a customer.
    Customer = 1,
    /// Learned from a peer.
    Peer = 2,
    /// Learned from a provider.
    Provider = 3,
}

/// Width of the distance field of a preference word; the class takes
/// the two bits above it.
const DIST_BITS: u32 = 30;
const DIST_MASK: u32 = (1 << DIST_BITS) - 1;

/// A reconvergence's work budget in `decide` calls is
/// `max(BUDGET_PER_NODE · n, BUDGET_FLOOR)` over an `n`-node graph.
const BUDGET_PER_NODE: usize = 50;
const BUDGET_FLOOR: usize = 10_000;

/// The most nodes a routing tree may span, checked once when trees are
/// built. A consistent tree has every distance below `n`, and each
/// `decide` raises the longest distance by at most one, so a
/// reconvergence that stays within its budget never holds a route
/// longer than `n - 1 + 50n + 10⁴`, nor makes an offer longer than
/// [`MAX_DIST`] = `51n + 10⁴`. Below this bound (~21M nodes) every such
/// distance fits the 30-bit field (DESIGN.md §22).
const MAX_NODES: usize = (DIST_MASK as usize - 1 - BUDGET_FLOOR) / (BUDGET_PER_NODE + 1);

/// The longest distance a tree of [`MAX_NODES`] nodes ever packs.
const MAX_DIST: usize = (BUDGET_PER_NODE + 1) * MAX_NODES + BUDGET_FLOOR;
const _: () = assert!(MAX_DIST < DIST_MASK as usize, "51n + 10⁴ must fit 30 bits");

/// The packed preference word of a `class` route of length `dist`:
/// `class << 30 | (dist + 1)`. Word order is `(class, dist)` order, the
/// decision process's first two keys, and a word is never 0.
fn pref(class: RouteClass, dist: u32) -> u32 {
    debug_assert!(dist < DIST_MASK, "distance {dist} overflows its field");
    (class as u32) << DIST_BITS | (dist + 1)
}

/// One node's route in 8 bytes, and `Option<Entry>` too: the
/// preference word is never 0, so `None` takes that niche.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry {
    /// The route's [`pref`] word: class, then AS-hop distance to the
    /// destination (origin = 0).
    pref: NonZeroU32,
    /// Next hop on the way to the destination (index), origin points to
    /// itself.
    next: u32,
}

impl Entry {
    fn new(pref: u32, next: u32) -> Entry {
        Entry {
            pref: NonZeroU32::new(pref).expect("a preference word is never 0"),
            next,
        }
    }

    fn class(self) -> RouteClass {
        const CLASSES: [RouteClass; 4] = [
            RouteClass::Origin,
            RouteClass::Customer,
            RouteClass::Peer,
            RouteClass::Provider,
        ];
        CLASSES[(self.pref.get() >> DIST_BITS) as usize]
    }

    fn dist(self) -> u32 {
        (self.pref.get() & DIST_MASK) - 1
    }
}

/// Offer `via`'s route, as a `class` route of length `dist`, to the
/// node holding `entry` during tree construction. An unrouted node
/// takes it (returns true: newly routed); a route of the same class is
/// replaced when the offer is shorter, or as short from a lower
/// next-hop ASN; a route of any other class stays.
fn offer(
    entry: &mut Option<Entry>,
    graph: &AsGraph,
    via: u32,
    class: RouteClass,
    dist: u32,
) -> bool {
    let p = pref(class, dist);
    match entry {
        None => {
            *entry = Some(Entry::new(p, via));
            true
        }
        Some(e) => {
            // Same class: the words differ only in their distances.
            if e.class() == class
                && (p, graph.asn_of(via as usize)) < (e.pref.get(), graph.asn_of(e.next as usize))
            {
                *e = Entry::new(p, via);
            }
            false
        }
    }
}

/// The preference word of the route `e` as offered to a node that sees
/// its holder as `rel_of_holder` (one hop longer, classed by that
/// relationship), or `None` when export policy withholds it: own and
/// customer routes go to anyone, peer and provider routes only to the
/// holder's customers (the node is the holder's customer iff the holder
/// is its provider).
fn offered_pref(e: Entry, rel_of_holder: Relationship) -> Option<u32> {
    let exportable = e.class() <= RouteClass::Customer || rel_of_holder == Relationship::Provider;
    let class = match rel_of_holder {
        Relationship::Customer => RouteClass::Customer,
        Relationship::Peer => RouteClass::Peer,
        Relationship::Provider => RouteClass::Provider,
    };
    exportable.then(|| pref(class, e.dist() + 1))
}

/// Sentinel node id in a [`RoutingTree`] trace entry: "no route", i.e.
/// the node had (or ends up with) no next hop at all.
pub const TRACE_UNROUTED: u32 = u32::MAX;

/// The nodes whose routes a tree built over this set stores: every AS
/// with a customer, plus the caller's vantages (DESIGN.md §26).
///
/// A customer-less AS other than the destination passes no route on:
/// valley-free export sends peer and provider routes only to
/// customers, and such an AS holds no customer route. So no other
/// node's route depends on its route, and a tree decides it when read,
/// over its neighbors' stored routes. A tree's own destination is
/// always routed, stored here or not. Vantages are stored so that
/// their routes move the tree's epoch and appear in its trace.
///
/// The set is fixed at construction: churn over the graph must only
/// remove and restore its links, so no elided AS ever gains a customer.
#[derive(Debug, PartialEq, Eq)]
pub struct StoredSet {
    /// Per graph node, its slot in a tree's route table, or
    /// [`StoredSet::ELIDED`].
    slot: Vec<u32>,
    /// Number of stored nodes.
    len: usize,
}

impl StoredSet {
    const ELIDED: u32 = u32::MAX;

    /// The stored set over `graph`: every node with a customer, plus
    /// each of `vantages` in the graph (others are ignored).
    pub fn new(graph: &AsGraph, vantages: impl IntoIterator<Item = Asn>) -> Arc<StoredSet> {
        let mut keep: Vec<bool> = (0..graph.len())
            .map(|v| {
                graph
                    .neighbors_idx(v)
                    .iter()
                    .any(|&(_, rel)| rel == Relationship::Customer)
            })
            .collect();
        for v in vantages.into_iter().filter_map(|a| graph.index_of(a)) {
            keep[v] = true;
        }
        let mut len = 0u32;
        let slot = keep
            .into_iter()
            .map(|k| {
                if !k {
                    return Self::ELIDED;
                }
                len += 1;
                len - 1
            })
            .collect();
        Arc::new(StoredSet {
            slot,
            len: len as usize,
        })
    }

    /// The number of stored nodes.
    fn len(&self) -> usize {
        self.len
    }

    fn slot(&self, v: usize) -> Option<usize> {
        let s = self.slot[v];
        (s != Self::ELIDED).then_some(s as usize)
    }
}

/// Node `v`'s slot in a route table over `stored`, where `None` stores
/// every node at its own index.
#[inline]
fn slot_in(stored: Option<&StoredSet>, v: usize) -> Option<usize> {
    match stored {
        None => Some(v),
        Some(s) => s.slot(v),
    }
}

/// A [`CoreView`] link end packs the neighbor's node index into the low
/// [`VIEW_NODE_BITS`] bits, the neighbor's relationship (as the row's
/// node sees it) into the next two and the link's down flag on top.
const VIEW_NODE_BITS: u32 = 29;
const VIEW_NODE_MASK: u32 = (1 << VIEW_NODE_BITS) - 1;
const VIEW_DOWN: u32 = 1 << 31;
const _: () = assert!(MAX_NODES <= VIEW_NODE_MASK as usize);

/// The links that construction and reconvergence scan: per stored node,
/// its base-graph links to stored nodes, in the graph's ascending-ASN
/// neighbor order, each flagged up or down (DESIGN.md §27).
///
/// No route passes through an elided node (§26.1), so these are the
/// only links a stored route can arrive over — bar the links of the
/// tree's own destination when it is elided, which the tree reads from
/// the graph. A view over every node (`stored` is `None`) holds every
/// link.
///
/// The view is fixed at construction, as its [`StoredSet`] is; churn
/// only removes and restores links, and [`CoreView::set_link`] flips a
/// link's flag in place, so a down/up cycle leaves every row in its
/// original order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoreView {
    /// The nodes with rows; `None`: every node.
    stored: Option<Arc<StoredSet>>,
    /// `slots + 1` offsets: the links of the node at slot `s` are
    /// `link[off[s]..off[s + 1]]`.
    off: Vec<u32>,
    /// Packed link ends (see [`VIEW_NODE_BITS`]).
    link: Vec<u32>,
}

impl CoreView {
    /// The view of `graph`'s current links between nodes of `stored`
    /// (every link when `None`).
    ///
    /// # Panics
    /// When the graph has more nodes than a routing tree may span.
    pub fn new(graph: &AsGraph, stored: Option<Arc<StoredSet>>) -> CoreView {
        assert!(
            graph.len() <= MAX_NODES,
            "a routing tree spans at most {MAX_NODES} nodes, the graph has {}",
            graph.len()
        );
        let set = stored.as_deref();
        debug_assert!(set.map_or(true, |s| s.slot.len() == graph.len()));
        let has_row = |v: usize| slot_in(set, v).is_some();
        let rows = || (0..graph.len()).filter(|&v| has_row(v));
        let core_links = |v: usize| {
            graph
                .neighbors_idx(v)
                .iter()
                .filter(|&&(w, _)| has_row(w))
        };
        // Sized exactly, so the view costs its own bytes and no growth.
        let mut off = Vec::with_capacity(set.map_or(graph.len(), StoredSet::len) + 1);
        let mut link = Vec::with_capacity(rows().map(|v| core_links(v).count()).sum());
        for v in rows() {
            off.push(as_u32(link.len()));
            link.extend(core_links(v).map(|&(w, rel)| as_u32(w) | (rel as u32) << VIEW_NODE_BITS));
        }
        off.push(as_u32(link.len()));
        CoreView { stored, off, link }
    }

    /// Whether node `v` has a row: it is stored, or every node is.
    pub fn has_row(&self, v: usize) -> bool {
        self.slot(v).is_some()
    }

    #[inline]
    fn slot(&self, v: usize) -> Option<usize> {
        slot_in(self.stored.as_deref(), v)
    }

    /// Node `v`'s packed row (empty for a node without one).
    #[inline]
    fn row(&self, v: usize) -> &[u32] {
        match self.slot(v) {
            Some(s) => &self.link[self.off[s] as usize..self.off[s + 1] as usize],
            None => &[],
        }
    }

    /// Node `v`'s up links to stored nodes as `(neighbor, relationship
    /// of the neighbor w.r.t. v)`, ascending by neighbor ASN like
    /// [`AsGraph::neighbors_idx`]. Empty for a node without a row.
    #[inline]
    pub fn links(&self, v: usize) -> impl Iterator<Item = (usize, Relationship)> + '_ {
        const RELS: [Relationship; 3] = [
            Relationship::Customer,
            Relationship::Peer,
            Relationship::Provider,
        ];
        self.row(v)
            .iter()
            .filter(|&&e| e & VIEW_DOWN == 0)
            .map(|&e| {
                let rel = RELS[((e & !VIEW_DOWN) >> VIEW_NODE_BITS) as usize];
                ((e & VIEW_NODE_MASK) as usize, rel)
            })
    }

    /// Record that the link `a`–`b` of `graph`, the graph the view was
    /// made from, went up or down. Returns whether the view holds the
    /// link: both ends have rows and the link was in the graph when the
    /// view was made. Any other link is not in the view, which then
    /// stays as it is.
    pub fn set_link(&mut self, graph: &AsGraph, a: usize, b: usize, up: bool) -> bool {
        let (Some(i), Some(j)) = (self.find(graph, a, b), self.find(graph, b, a)) else {
            return false;
        };
        for k in [i, j] {
            if up {
                self.link[k] &= !VIEW_DOWN;
            } else {
                self.link[k] |= VIEW_DOWN;
            }
        }
        true
    }

    /// The position of `w` in `v`'s row, by binary search over the
    /// row's ascending neighbor ASNs.
    fn find(&self, graph: &AsGraph, v: usize, w: usize) -> Option<usize> {
        let s = self.slot(v)?;
        let lo = self.off[s] as usize;
        let row = &self.link[lo..self.off[s + 1] as usize];
        let asn = |e: &u32| graph.asn_of((e & VIEW_NODE_MASK) as usize);
        row.binary_search_by_key(&graph.asn_of(w), asn)
            .ok()
            .map(|k| lo + k)
    }
}

fn as_u32(i: usize) -> u32 {
    u32::try_from(i).expect("graph size fits u32")
}

/// The best policy-compliant route from every AS to one destination AS.
#[derive(Clone, Debug)]
pub struct RoutingTree {
    dest: Asn,
    dest_idx: usize,
    /// The nodes `entries` holds routes for; `None` holds every node,
    /// at its own index.
    stored: Option<Arc<StoredSet>>,
    /// One route per stored node, by slot.
    entries: Vec<Option<Entry>>,
    /// State version: 0 at [`RoutingTree::compute`], bumped whenever a
    /// reconvergence changes any stored entry. Same tree + same epoch
    /// ⟹ same paths from every stored node — what the collector's
    /// per-(origin, peer) export cache keys on.
    epoch: u64,
    /// When set, every next-hop change made by a reconvergence is
    /// appended to `trace` (see [`RoutingTree::set_tracing`]).
    tracing: bool,
    /// The epoch `trace` starts from: the epoch at the last
    /// [`RoutingTree::clear_trace`] or at the switch to tracing.
    trace_epoch: u64,
    /// `(node, old_next, new_next)` per next-hop transition, in the
    /// order the worklist applied them; [`TRACE_UNROUTED`] stands for
    /// "no route". Entries compose: each record's `old_next` equals the
    /// previous record's `new_next` for the same node, so replaying the
    /// trace in order moves any external index from the pre-event to
    /// the post-event tree.
    trace: Vec<(u32, u32, u32)>,
}

/// A u32 CSR view of a [`CoreView`]'s up links split by relationship:
/// node `v`'s providers, peers and customers are three ranges of `nbr`,
/// each ascending by ASN like the graph's own lists. Each construction
/// phase walks only the relationship it exports over, and "has stored
/// customers" is an O(1) range test (DESIGN.md §19, §27).
struct SplitAdjacency {
    /// `4n` offsets: node `v`'s providers are `off[4v]..off[4v+1]`, its
    /// peers `..off[4v+2]`, its customers `..off[4v+3]`. A row is
    /// addressed by its own four offsets, so [`SplitAdjacency::attach`]
    /// can point a row at the end of `nbr`.
    off: Vec<u32>,
    /// Neighbor node indices.
    nbr: Vec<u32>,
}

/// The three relationships in range order.
const SPLIT: [Relationship; 3] = [
    Relationship::Provider,
    Relationship::Peer,
    Relationship::Customer,
];

impl SplitAdjacency {
    fn new(graph: &AsGraph, view: &CoreView) -> Self {
        let mut off = Vec::with_capacity(4 * graph.len());
        let mut nbr = Vec::with_capacity(view.link.len());
        for v in 0..graph.len() {
            for rel in SPLIT {
                off.push(as_u32(nbr.len()));
                nbr.extend(
                    view.links(v)
                        .filter(|&(_, r)| r == rel)
                        .map(|(w, _)| as_u32(w)),
                );
            }
            off.push(as_u32(nbr.len()));
        }
        SplitAdjacency { off, nbr }
    }

    /// Point node `v`'s (empty) row at `links`, its current links in
    /// the graph, keeping those to nodes of `stored`; they are appended
    /// to `nbr` until [`Self::detach`].
    fn attach(&mut self, v: u32, links: &[(usize, Relationship)], stored: Option<&StoredSet>) {
        let v = v as usize;
        for (k, rel) in SPLIT.into_iter().enumerate() {
            self.off[4 * v + k] = as_u32(self.nbr.len());
            self.nbr.extend(
                links
                    .iter()
                    .filter(|&&(w, r)| r == rel && slot_in(stored, w).is_some())
                    .map(|&(w, _)| as_u32(w)),
            );
        }
        self.off[4 * v + 3] = as_u32(self.nbr.len());
    }

    /// Undo [`Self::attach`]: node `v`'s row is empty again.
    fn detach(&mut self, v: u32) {
        let v = v as usize;
        self.nbr.truncate(self.off[4 * v] as usize);
        self.off[4 * v..4 * v + 4].fill(0);
    }

    /// Range `k` (0 providers, 1 peers, 2 customers) of node `v`.
    fn range(&self, v: u32, k: usize) -> &[u32] {
        let i = 4 * v as usize + k;
        &self.nbr[self.off[i] as usize..self.off[i + 1] as usize]
    }

    fn providers(&self, v: u32) -> &[u32] {
        self.range(v, 0)
    }

    fn peers(&self, v: u32) -> &[u32] {
        self.range(v, 1)
    }

    fn customers(&self, v: u32) -> &[u32] {
        self.range(v, 2)
    }
}

/// Builds routing trees over one [`CoreView`]: the [`SplitAdjacency`]
/// is made once and the worklists are reused, so N destinations pay for
/// one split and no per-tree scratch (DESIGN.md §19). Every offer goes
/// to a node with a row, which is a stored node (§27).
struct TreeBuilder<'g> {
    graph: &'g AsGraph,
    adj: SplitAdjacency,
    /// The nodes each tree stores (`None`: every node).
    stored: Option<Arc<StoredSet>>,
    /// Nodes routed by phases 1–2, in the order they were routed.
    routed: Vec<u32>,
    /// Phase-3 sources routed by phases 1–2, as `(dist, node)`.
    seeds: Vec<(u32, u32)>,
    /// Phase-3 sources routed by phase 3, in nondecreasing length.
    queue: Vec<u32>,
}

impl<'g> TreeBuilder<'g> {
    /// A builder over `view`, a view of `graph`'s current links.
    fn new(graph: &'g AsGraph, view: &CoreView) -> Self {
        TreeBuilder {
            graph,
            adj: SplitAdjacency::new(graph, view),
            stored: view.stored.clone(),
            routed: Vec::new(),
            seeds: Vec::new(),
            queue: Vec::new(),
        }
    }

    /// The routing tree toward `dest`, `None` if `dest` is not in the
    /// graph. An elided destination has no row in the view: its own
    /// links are read from the graph for this tree (DESIGN.md §27).
    fn build(&mut self, dest: Asn) -> Option<RoutingTree> {
        let graph = self.graph;
        let stored = self.stored.as_deref();
        let slot = |v: u32| slot_in(stored, v as usize);
        let d = graph.index_of(dest)?;
        let d32 = as_u32(d);
        let elided_dest = slot(d32).is_none();
        if elided_dest {
            self.adj.attach(d32, graph.neighbors_idx(d), stored);
        }
        let adj = &self.adj;
        let mut entries: Vec<Option<Entry>> =
            vec![None; stored.map_or(graph.len(), StoredSet::len)];
        if let Some(s) = slot(d32) {
            entries[s] = Some(Entry::new(pref(RouteClass::Origin, 0), d32));
        }
        // The length of a routed node's route; the destination's is 0
        // whether or not it is stored.
        let dist_of = |entries: &[Option<Entry>], x: u32| {
            if x == d32 {
                return 0;
            }
            let s = slot(x).expect("only stored nodes are routed");
            entries[s].expect("routed").dist()
        };

        // Every phase routes through `offer`: the first offer claims an
        // unrouted node, and a later offer of the same class replaces
        // the incumbent only if it is shorter, or as short from a lower
        // next-hop ASN. Offers of another class never displace a route:
        // the phases run in class-preference order (DESIGN.md §17).
        // Every target is a node with a row, so it is stored (§27).
        let offer_to = |entries: &mut [Option<Entry>], to: u32, via: u32, class, dist| {
            let s = slot(to).expect("the view links stored nodes");
            offer(&mut entries[s], graph, via, class, dist)
        };

        // Phase 1: customer routes — level-synchronous BFS from d up
        // provider links. `routed[lo..hi]` is level k; every offer made
        // while expanding it has length k + 1, so a node first reached
        // at level k keeps that length and ends on the lowest-ASN
        // offering neighbor.
        let routed = &mut self.routed;
        routed.clear();
        routed.push(d32);
        let (mut lo, mut dist) = (0, 0u32);
        while lo < routed.len() {
            let hi = routed.len();
            dist += 1;
            for i in lo..hi {
                let x = routed[i];
                for &p in adj.providers(x) {
                    if offer_to(&mut entries, p, x, RouteClass::Customer, dist) {
                        routed.push(p);
                    }
                }
            }
            lo = hi;
        }

        // Phase 2: peer routes — every AS with a customer-or-origin
        // route (exactly phase 1's nodes) offers it across each peering
        // link. Peer routes are not re-exported to peers, so one pass
        // suffices; `offer` keeps the shortest, lowest-ASN one per node.
        let phase1 = routed.len();
        for i in 0..phase1 {
            let x = routed[i];
            let dist = dist_of(&entries, x) + 1;
            for &q in adj.peers(x) {
                if offer_to(&mut entries, q, x, RouteClass::Peer, dist) {
                    routed.push(q);
                }
            }
        }

        // Phase 3: provider routes ripple *down* customer links. Only
        // an AS with customers has anything to offer, so only those are
        // sources. Sources start at mixed lengths, so the walk is
        // level-synchronous over two length-sorted streams: the sources
        // routed by phases 1–2 (sorted once) and the queue of sources
        // this phase routes, appended in nondecreasing length. Each
        // source at length k offers length k + 1 to its customers; the
        // first offer routes an unrouted customer (queued if it has
        // customers of its own), and a later offer of the same length
        // from a lower ASN replaces its next hop. Every offer of length
        // k + 1 is made before any of length k + 2, so each customer
        // ends on its minimum (length, next-hop ASN) offer.
        let seeds = &mut self.seeds;
        seeds.clear();
        seeds.extend(
            routed
                .iter()
                .filter(|&&x| !adj.customers(x).is_empty())
                .map(|&x| (dist_of(&entries, x), x)),
        );
        seeds.sort_unstable();
        let queue = &mut self.queue;
        queue.clear();
        let (mut s, mut q) = (0, 0);
        loop {
            let x = match (seeds.get(s), queue.get(q)) {
                (Some(&(ds, x)), Some(&c)) if ds <= dist_of(&entries, c) => {
                    s += 1;
                    x
                }
                (_, Some(&c)) => {
                    q += 1;
                    c
                }
                (Some(&(_, x)), None) => {
                    s += 1;
                    x
                }
                (None, None) => break,
            };
            let dist = dist_of(&entries, x) + 1;
            for &c in adj.customers(x) {
                if offer_to(&mut entries, c, x, RouteClass::Provider, dist)
                    && !adj.customers(c).is_empty()
                {
                    queue.push(c);
                }
            }
        }
        if elided_dest {
            self.adj.detach(d32);
        }

        Some(RoutingTree {
            dest,
            dest_idx: d,
            stored: self.stored.clone(),
            entries,
            epoch: 0,
            tracing: false,
            trace_epoch: 0,
            trace: Vec::new(),
        })
    }
}

impl RoutingTree {
    /// Compute the routing tree toward `dest` over `graph`: the
    /// one-destination case of [`RoutingTree::compute_many`].
    ///
    /// Returns `None` if `dest` is not in the graph.
    pub fn compute(graph: &AsGraph, dest: Asn) -> Option<RoutingTree> {
        Self::compute_many(graph, [dest]).next().flatten()
    }

    /// The routing trees toward each of `dests` over `graph`, in order
    /// (`None` for a destination not in the graph): the trees of
    /// [`RoutingTree::compute_many_in`] over a view of every link, which
    /// store every node.
    pub fn compute_many<'g>(
        graph: &'g AsGraph,
        dests: impl IntoIterator<Item = Asn> + 'g,
    ) -> impl Iterator<Item = Option<RoutingTree>> + 'g {
        Self::compute_many_in(graph, &CoreView::new(graph, None), dests)
    }

    /// The routing trees toward each of `dests` over `view`, a
    /// [`CoreView`] of `graph`'s current links, in order (`None` for a
    /// destination not in the graph). The trees store routes only for
    /// the view's stored nodes and decide every other node's route when
    /// it is read (DESIGN.md §26). The view's relationship split is
    /// built once for all of them, the construction worklists are
    /// reused across trees, and both are dropped with the iterator, so
    /// callers that need many trees over one graph build them through
    /// here (§19, §27).
    pub fn compute_many_in<'g>(
        graph: &'g AsGraph,
        view: &CoreView,
        dests: impl IntoIterator<Item = Asn> + 'g,
    ) -> impl Iterator<Item = Option<RoutingTree>> + 'g {
        let mut builder = TreeBuilder::new(graph, view);
        dests.into_iter().map(move |d| builder.build(d))
    }

    /// The destination this tree routes toward.
    pub fn dest(&self) -> Asn {
        self.dest
    }

    /// The tree's state version (see the field doc).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Enable or disable next-hop change tracing. Disabling also drops
    /// any pending trace; enabling starts an empty trace at the current
    /// epoch.
    pub fn set_tracing(&mut self, on: bool) {
        if on && !self.tracing {
            self.trace_epoch = self.epoch;
        }
        self.tracing = on;
        if !on {
            self.trace.clear();
            self.trace.shrink_to_fit();
        }
    }

    /// Whether reconvergences record their next-hop transitions.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Next-hop transitions recorded since the last
    /// [`RoutingTree::clear_trace`] (empty unless tracing is enabled).
    ///
    /// The contract, while [`RoutingTree::tracing`] holds: every stored
    /// node whose next hop (or lack of one, [`TRACE_UNROUTED`]) differs
    /// between the tree at [`RoutingTree::trace_epoch`] and the tree
    /// now appears in the trace as a node id. The trace may list more
    /// nodes than that (a node that moved and moved back), never fewer.
    /// A node's class and distance follow from the next hops along its
    /// path, so a stored node none of whose path nodes is in the trace
    /// routes exactly as it did at `trace_epoch` (DESIGN.md §20). A
    /// tree built over a [`StoredSet`] traces only its stored nodes: an
    /// elided node's route is decided when read, and no stored node's
    /// path passes through one (§26).
    pub fn trace(&self) -> &[(u32, u32, u32)] {
        &self.trace
    }

    /// The epoch [`RoutingTree::trace`] starts from: the tree's epoch at
    /// the last [`RoutingTree::clear_trace`], or when tracing was
    /// switched on.
    pub fn trace_epoch(&self) -> u64 {
        self.trace_epoch
    }

    /// Drop recorded transitions, keeping the buffer capacity so the
    /// replay hot loop stays allocation-free after warmup. The trace
    /// starts again from the current epoch.
    pub fn clear_trace(&mut self) {
        self.trace.clear();
        self.trace_epoch = self.epoch;
    }

    /// The route at dense node index `i` as `(class, dist, next_idx)`,
    /// or `None` when unrouted. Index-addressed twin of
    /// [`RoutingTree::class_of`]/[`RoutingTree::next_hop`] for hot
    /// paths that already resolved the node index. It reads the stored
    /// route, so `i` must be stored or the destination; every node of a
    /// tree built without a [`StoredSet`] is.
    ///
    /// # Panics
    /// When the tree elides node `i`; read it with
    /// [`RoutingTree::route_at`].
    pub fn route_at_idx(&self, i: usize) -> Option<(RouteClass, u32, usize)> {
        let e = match self.slot(i) {
            Some(s) => self.entries[s],
            None => {
                assert_eq!(
                    i, self.dest_idx,
                    "node {i} is elided: read it with `route_at`"
                );
                Some(self.origin())
            }
        };
        e.map(|e| (e.class(), e.dist(), e.next as usize))
    }

    /// [`RoutingTree::route_at_idx`] for any node: an elided node's
    /// route is decided now, over its neighbors' stored routes in
    /// `graph` (DESIGN.md §26). O(degree) for an elided node.
    pub fn route_at(&self, graph: &AsGraph, i: usize) -> Option<(RouteClass, u32, usize)> {
        self.route(graph, i)
            .map(|e| (e.class(), e.dist(), e.next as usize))
    }

    /// The origin route, held by the destination.
    fn origin(&self) -> Entry {
        Entry::new(pref(RouteClass::Origin, 0), self.dest_idx as u32)
    }

    /// Node `v`'s slot in `entries`, `None` when the tree elides it.
    #[inline]
    fn slot(&self, v: usize) -> Option<usize> {
        slot_in(self.stored.as_deref(), v)
    }

    /// The route node `v` passes on: its stored entry, the origin route
    /// at the destination, and `None` at any other elided node, which
    /// offers its route to no one (DESIGN.md §26).
    #[inline]
    fn stored_route(&self, v: usize) -> Option<Entry> {
        match self.slot(v) {
            Some(s) => self.entries[s],
            None => (v == self.dest_idx).then(|| self.origin()),
        }
    }

    /// Node `v`'s route in the current state: its stored entry, or for
    /// a node the tree elides the decision over its neighbors' stored
    /// routes (the origin route at the destination).
    fn route(&self, graph: &AsGraph, v: usize) -> Option<Entry> {
        match self.slot(v) {
            Some(s) => self.entries[s],
            None => self.decide_over(graph, v, graph.neighbors_idx(v).iter().copied()),
        }
    }

    #[inline]
    fn record_trace(&mut self, v: usize, old: Option<Entry>, new: Option<Entry>) {
        let old_next = old.map_or(TRACE_UNROUTED, |e| e.next);
        let new_next = new.map_or(TRACE_UNROUTED, |e| e.next);
        if old_next != new_next {
            self.trace.push((v as u32, old_next, new_next));
        }
    }

    /// Incrementally reconverge this tree after the link `a`–`b`
    /// changed state (failed or recovered). `graph` must already
    /// reflect the change.
    ///
    /// This runs the distributed decision process as a worklist
    /// ("re-decide a node from its neighbors' current routes; if its
    /// best changed, re-decide the neighbors it can move"), seeded with
    /// the link endpoints the event can move — exactly how the change
    /// propagates in BGP. A node is queued only when
    /// [`RoutingTree::must_redecide`] holds (DESIGN.md §21). Under
    /// Gao–Rexford policies the process is safe (no dispute wheel), so
    /// it terminates in the unique stable state, which equals a full
    /// [`RoutingTree::compute`]; a work budget guards the theory and
    /// falls back to the full recomputation if ever exhausted.
    ///
    /// Returns `true` if any node's route changed. The worklist costs in
    /// proportion to the region of the tree the change moves, but this
    /// one-off form first makes a [`CoreView`] of `graph`, O(links):
    /// replay code keeps one view up to date and calls
    /// [`RoutingTree::reconverge_with`].
    pub fn reconverge_after_link_event(&mut self, graph: &AsGraph, a: Asn, b: Asn) -> bool {
        let (Some(ia), Some(ib)) = (graph.index_of(a), graph.index_of(b)) else {
            return false;
        };
        let rel_of_b = graph.relationship(a, b);
        let view = CoreView::new(graph, self.stored.clone());
        self.reconverge_with(
            graph,
            &view,
            ia,
            ib,
            rel_of_b,
            &mut ReconvergeScratch::new(),
        )
    }

    /// [`RoutingTree::reconverge_after_link_event`] addressed by node
    /// index, over the caller's [`CoreView`] of `graph` and with
    /// caller-owned scratch: the link's endpoints `ia`–`ib` and
    /// `rel_of_b`, `ib` as `ia` sees it (`None` when the link is down),
    /// are resolved once per event by the caller, and one queue/stamp
    /// buffer serves every tree and event, so the replay hot loop
    /// neither looks up an ASN nor allocates per candidate tree. `view`
    /// must be over the tree's stored set and already reflect the
    /// change; the worklist scans only its links, and the graph's links
    /// of an elided destination (DESIGN.md §27).
    pub fn reconverge_with(
        &mut self,
        graph: &AsGraph,
        view: &CoreView,
        ia: usize,
        ib: usize,
        rel_of_b: Option<Relationship>,
        scratch: &mut ReconvergeScratch,
    ) -> bool {
        let budget = BUDGET_PER_NODE
            .saturating_mul(graph.len())
            .max(BUDGET_FLOOR);
        self.reconverge_within(graph, view, ia, ib, rel_of_b, scratch, budget)
    }

    /// [`RoutingTree::reconverge_with`] with a work budget of `budget`
    /// `decide` calls, after which it rebuilds the tree over `view`.
    #[allow(clippy::too_many_arguments)]
    fn reconverge_within(
        &mut self,
        graph: &AsGraph,
        view: &CoreView,
        ia: usize,
        ib: usize,
        rel_of_b: Option<Relationship>,
        scratch: &mut ReconvergeScratch,
        mut budget: usize,
    ) -> bool {
        let n = graph.len();
        debug_assert_eq!(
            n,
            self.stored
                .as_ref()
                .map_or(self.entries.len(), |s| s.slot.len()),
            "graph node set changed"
        );
        debug_assert_eq!(
            self.stored.as_ref().map(Arc::as_ptr),
            view.stored.as_ref().map(Arc::as_ptr),
            "the view is over another stored set"
        );
        scratch.begin(self.entries.len());
        // After a failure (`rel_of_b` is `None`) only an endpoint that
        // routed over the link has to move.
        for (at, via, rel) in [
            (ia, ib, rel_of_b.map(Relationship::reversed)),
            (ib, ia, rel_of_b),
        ] {
            if self.must_redecide(graph, at, via, rel) {
                self.queue(scratch, at);
            }
        }
        let mut changed_any = false;
        // The budget: in safe policy networks the process is
        // near-linear in the affected region, and the default allows
        // generous slack before bailing out. It also bounds every
        // distance a transient tree can reach (`MAX_NODES`).
        while let Some((v, s)) = scratch.pop() {
            if budget == 0 {
                // Theory says we never get here; make sure practice
                // agrees, via a full recompute over the same view — and
                // make the silent O(n) cost visible in run reports.
                obs::incr("routing", "budget_fallback", 1);
                let fresh = TreeBuilder::new(graph, view)
                    .build(self.dest)
                    .expect("destination still in graph");
                let changed = fresh.entries != self.entries;
                if self.tracing {
                    // The worklist already traced its partial updates;
                    // diff current (partially updated) vs fresh so the
                    // composed trace still walks pre → post event.
                    for v in 0..n {
                        if let Some(s) = self.slot(v) {
                            self.record_trace(v, self.entries[s], fresh.entries[s]);
                        }
                    }
                }
                self.entries = fresh.entries;
                let changed = changed_any || changed;
                if changed {
                    self.epoch += 1;
                }
                return changed;
            }
            budget -= 1;
            let new = self.decide(graph, view, v);
            if new != self.entries[s] {
                if self.tracing {
                    self.record_trace(v, self.entries[s], new);
                }
                self.entries[s] = new;
                changed_any = true;
                // Only a stored node can have to re-decide, and every
                // stored neighbor is on the view's row.
                for (w, rel) in view.links(v) {
                    if self.must_redecide(graph, w, v, Some(rel)) {
                        self.queue(scratch, w);
                    }
                }
            }
        }
        if changed_any {
            self.epoch += 1;
        }
        changed_any
    }

    /// Queue stored node `v` on `scratch`.
    fn queue(&self, scratch: &mut ReconvergeScratch, v: usize) {
        let s = self.slot(v).expect("only stored nodes are queued");
        scratch.push(v, s);
    }

    /// Can node `at`'s decision change now that `via`'s entry has
    /// changed, or the link `via`–`at` has come up? `rel` is `at` as
    /// `via` sees it, `None` when the link is down. `at` must re-decide
    /// iff
    ///
    /// 1. its next hop is `via`, or
    /// 2. `via` has a route that may be exported to `at` (own and
    ///    customer routes to anyone, others to customers only), whose
    ///    next hop is not `at`, and whose offer beats `at`'s current
    ///    route by (class, length, next-hop ASN) — or `at` is unrouted.
    ///    Class and length are one packed word, so this compares one
    ///    word and, on a tie, the two next-hop ASNs.
    ///
    /// The decision process takes the best legal offer of `at`'s
    /// neighbors and only `via`'s offer moved, so in a consistent tree
    /// nothing else can move `at` (DESIGN.md §21). A node the tree
    /// elides stores nothing to re-decide, and one offers nothing as
    /// `via` unless it is the destination (§26).
    pub fn must_redecide(
        &self,
        graph: &AsGraph,
        at: usize,
        via: usize,
        rel: Option<Relationship>,
    ) -> bool {
        let Some(s) = self.slot(at) else {
            return false;
        };
        let cur = self.entries[s];
        if cur.is_some_and(|e| e.next as usize == via) {
            return true;
        }
        // A down link offers nothing; `via`'s entry is read only when it
        // is up, so a failure's test is the one next-hop read above.
        let Some(rel) = rel else {
            return false;
        };
        let Some(offer) = self.stored_route(via) else {
            return false;
        };
        let Some(p) = offered_pref(offer, rel.reversed()) else {
            return false;
        };
        if offer.next as usize == at {
            return false;
        }
        match cur {
            None => true,
            Some(e) => {
                let cur = e.pref.get();
                p < cur || (p == cur && graph.asn_of(via) < graph.asn_of(e.next as usize))
            }
        }
    }

    /// The decision process at stored node `v` over the view's links
    /// and, when the tree elides its destination, `v`'s link to it in
    /// `graph`: the only links a stored route can arrive over
    /// (DESIGN.md §27).
    fn decide(&self, graph: &AsGraph, view: &CoreView, v: usize) -> Option<Entry> {
        let d = self.dest_idx;
        let to_dest = match self.slot(d) {
            Some(_) => None,
            None => {
                let links = graph.neighbors_idx(d);
                let asn = graph.asn_of(v);
                links
                    .binary_search_by_key(&asn, |&(w, _)| graph.asn_of(w))
                    .ok()
                    .map(|k| (d, links[k].1.reversed()))
            }
        };
        self.decide_over(graph, v, view.links(v).chain(to_dest))
    }

    /// The decision process at node `v` over `links`, its links as
    /// `(neighbor, relationship of the neighbor w.r.t. v)`: valley-free
    /// export legality, loop rejection (by walking the candidate's
    /// path), then LocalPref class > shortest path > lowest neighbor
    /// ASN. A link to a node that offers nothing (an elided one other
    /// than the destination) is skipped; the result does not depend on
    /// the order of `links`.
    fn decide_over(
        &self,
        graph: &AsGraph,
        v: usize,
        links: impl Iterator<Item = (usize, Relationship)>,
    ) -> Option<Entry> {
        if v == self.dest_idx {
            return Some(self.origin());
        }
        // The best loop-free offer so far as (preference word, ASN, node).
        let mut best: Option<(u32, Asn, usize)> = None;
        for (nb, rel_of_nb) in links {
            let Some(e) = self.stored_route(nb) else {
                continue;
            };
            let Some(p) = offered_pref(e, rel_of_nb) else {
                continue;
            };
            let cand = (p, graph.asn_of(nb), nb);
            let better = match best {
                None => true,
                Some((bp, ba, _)) => (cand.0, cand.1) < (bp, ba),
            };
            // Loop rejection: v must not appear on nb's current path.
            // Checked only for would-be winners — a candidate that
            // doesn't beat the (loop-checked) incumbent is discarded
            // either way, so deferring the walk changes nothing but
            // skips the O(path) scan for most neighbors.
            if better && !self.path_contains(nb, v, graph.len()) {
                best = Some(cand);
            }
        }
        best.map(|(p, _, next)| Entry::new(p, next as u32))
    }

    /// Does the current path of `from` (following next pointers) pass
    /// through `target`? Transient states may contain cycles; walks are
    /// capped at `cap` steps and a capped walk counts as containing
    /// everything (the candidate is rejected and revisited once the
    /// cycle resolves).
    fn path_contains(&self, from: usize, target: usize, cap: usize) -> bool {
        let mut cur = from;
        for _ in 0..=cap {
            if cur == target {
                return true;
            }
            match self.stored_route(cur) {
                Some(e) if e.next as usize != cur => cur = e.next as usize,
                _ => return false,
            }
        }
        true // cycle suspected: reject conservatively
    }

    /// The class of `src`'s best route, if it has one.
    pub fn class_of(&self, graph: &AsGraph, src: Asn) -> Option<RouteClass> {
        let i = graph.index_of(src)?;
        self.route(graph, i).map(|e| e.class())
    }

    /// AS-hop distance from `src` to the destination, if routed.
    pub fn distance(&self, graph: &AsGraph, src: Asn) -> Option<u32> {
        let i = graph.index_of(src)?;
        self.route(graph, i).map(|e| e.dist())
    }

    /// The next hop on `src`'s path to the destination (the destination
    /// itself maps to itself), if routed.
    pub fn next_hop(&self, graph: &AsGraph, src: Asn) -> Option<Asn> {
        let i = graph.index_of(src)?;
        self.route(graph, i).map(|e| graph.asn_of(e.next as usize))
    }

    /// Is the undirected link `a`–`b` carrying traffic in this tree, i.e.
    /// is `b` the next hop of `a` or vice versa?
    pub fn uses_link(&self, graph: &AsGraph, a: Asn, b: Asn) -> bool {
        self.next_hop(graph, a) == Some(b) || self.next_hop(graph, b) == Some(a)
    }

    /// The full AS-level path from `src` to the destination, inclusive of
    /// both endpoints. `None` when `src` has no route.
    pub fn path_from(&self, graph: &AsGraph, src: Asn) -> Option<Vec<Asn>> {
        let mut path = Vec::new();
        self.path_from_into(graph, src, &mut path).then_some(path)
    }

    /// [`RoutingTree::path_from`] into a caller-owned buffer: clears
    /// `out`, then fills it with the path and returns true when `src`
    /// is routed (false leaves `out` empty). The collector's interning
    /// hot path reuses one buffer across every session and event.
    pub fn path_from_into(&self, graph: &AsGraph, src: Asn, out: &mut Vec<Asn>) -> bool {
        out.clear();
        graph
            .index_of(src)
            .is_some_and(|i| self.export_into_idx(graph, i, out).is_some())
    }

    /// [`RoutingTree::path_from_into`] plus the route class in one
    /// call, addressed by dense node index: fills `out` with the full
    /// path from node `i` and returns `i`'s route class, or `None`
    /// (leaving `out` empty) when unrouted. The export-cache hot path
    /// calls this once per walked (changed tree, peer) — folding the class
    /// read into the walk and taking a precomputed index spares the
    /// two `index_of` map lookups a `path_from_into` + `class_of` pair
    /// would pay. Only the first hop can be elided (DESIGN.md §26):
    /// every later one is a stored node or the destination.
    pub fn export_into_idx(
        &self,
        graph: &AsGraph,
        i: usize,
        out: &mut Vec<Asn>,
    ) -> Option<RouteClass> {
        out.clear();
        let mut e = self.route(graph, i)?;
        let class = e.class();
        out.push(graph.asn_of(i));
        let mut cur = i;
        while cur != self.dest_idx {
            cur = e.next as usize;
            out.push(graph.asn_of(cur));
            if out.len() > graph.len() {
                unreachable!("routing tree contains a loop");
            }
            e = self
                .stored_route(cur)
                .expect("intermediate hops are routed");
        }
        Some(class)
    }

    /// The BGP-style AS path `src` would have selected for a prefix
    /// originated at the destination: the hops *after* `src`, nearest
    /// first, origin last — i.e. what `src` would see in the AS_PATH
    /// attribute. Empty path for the origin itself.
    pub fn as_path_at(&self, graph: &AsGraph, src: Asn) -> Option<quicksand_net::AsPath> {
        let path = self.path_from(graph, src)?;
        Some(quicksand_net::AsPath::from_asns(
            path.into_iter().skip(1),
        ))
    }

    /// Iterate over all ASes that currently have a route, with class and
    /// distance.
    pub fn routed<'a>(
        &'a self,
        graph: &'a AsGraph,
    ) -> impl Iterator<Item = (Asn, RouteClass, u32)> + 'a {
        (0..graph.len()).filter_map(move |i| {
            self.route(graph, i)
                .map(|e| (graph.asn_of(i), e.class(), e.dist()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{AsGraph, Tier};

    /// Same reference topology as `graph::tests::diamond`.
    fn diamond() -> AsGraph {
        let mut g = AsGraph::new();
        for (a, t) in [
            (1, Tier::Tier1),
            (2, Tier::Tier1),
            (3, Tier::Tier2),
            (4, Tier::Tier2),
            (5, Tier::Tier2),
            (6, Tier::Tier2),
            (7, Tier::Stub),
            (8, Tier::Stub),
            (9, Tier::Stub),
        ] {
            g.add_as(Asn(a), t).unwrap();
        }
        g.add_peering(Asn(1), Asn(2)).unwrap();
        g.add_customer_provider(Asn(3), Asn(1)).unwrap();
        g.add_customer_provider(Asn(4), Asn(1)).unwrap();
        g.add_customer_provider(Asn(5), Asn(2)).unwrap();
        g.add_customer_provider(Asn(6), Asn(2)).unwrap();
        g.add_peering(Asn(4), Asn(5)).unwrap();
        g.add_customer_provider(Asn(7), Asn(3)).unwrap();
        g.add_customer_provider(Asn(8), Asn(4)).unwrap();
        g.add_customer_provider(Asn(8), Asn(5)).unwrap();
        g.add_customer_provider(Asn(9), Asn(6)).unwrap();
        g
    }

    fn path(g: &AsGraph, t: &RoutingTree, src: u32) -> Vec<u32> {
        t.path_from(g, Asn(src)).unwrap().iter().map(|a| a.0).collect()
    }

    #[test]
    fn routes_to_stub_8() {
        let g = diamond();
        let t = RoutingTree::compute(&g, Asn(8)).unwrap();
        // Providers of 8 learn customer routes.
        assert_eq!(t.class_of(&g, Asn(4)), Some(RouteClass::Customer));
        assert_eq!(t.class_of(&g, Asn(5)), Some(RouteClass::Customer));
        // 1 learns from customer 4; 2 from customer 5.
        assert_eq!(path(&g, &t, 1), vec![1, 4, 8]);
        assert_eq!(path(&g, &t, 2), vec![2, 5, 8]);
        // 4 and 5 peer: 4 prefers its customer route (dist 1), not peer.
        assert_eq!(path(&g, &t, 4), vec![4, 8]);
        // 3 has no customer/peer route; gets provider route via 1.
        assert_eq!(t.class_of(&g, Asn(3)), Some(RouteClass::Provider));
        assert_eq!(path(&g, &t, 3), vec![3, 1, 4, 8]);
        assert_eq!(path(&g, &t, 7), vec![7, 3, 1, 4, 8]);
        // 9 goes up to 6, 2, then down 5, 8.
        assert_eq!(path(&g, &t, 9), vec![9, 6, 2, 5, 8]);
        // Origin's own path is trivial.
        assert_eq!(path(&g, &t, 8), vec![8]);
        assert_eq!(
            t.as_path_at(&g, Asn(8)).unwrap(),
            quicksand_net::AsPath::empty()
        );
    }

    #[test]
    fn peer_route_beats_provider_route() {
        let g = diamond();
        // Destination 7 (customer chain 7-3-1). AS 2 peers with 1 which has
        // a customer route; 2 should use the peer route 2,1,3,7 rather than
        // any provider route (it has no providers anyway). AS 5: customer
        // of 2, peer of 4. 4 has no customer route to 7; so 5 must use
        // provider 2.
        let t = RoutingTree::compute(&g, Asn(7)).unwrap();
        assert_eq!(t.class_of(&g, Asn(2)), Some(RouteClass::Peer));
        assert_eq!(path(&g, &t, 2), vec![2, 1, 3, 7]);
        assert_eq!(t.class_of(&g, Asn(5)), Some(RouteClass::Provider));
        assert_eq!(path(&g, &t, 5), vec![5, 2, 1, 3, 7]);
        // 8 is a customer of both 4 and 5; both give provider routes of
        // equal length 8-4-1-3-7 vs 8-5-2-1-3-7: 4's is shorter.
        assert_eq!(path(&g, &t, 8), vec![8, 4, 1, 3, 7]);
    }

    #[test]
    fn valley_freedom_of_all_paths() {
        let g = diamond();
        for dest in g.asns().collect::<Vec<_>>() {
            let t = RoutingTree::compute(&g, dest).unwrap();
            for src in g.asns().collect::<Vec<_>>() {
                let p = t.path_from(&g, src).unwrap();
                assert_eq!(
                    g.is_valley_free(&p),
                    Some(true),
                    "path {p:?} to {dest} not valley-free"
                );
            }
        }
    }

    #[test]
    fn deterministic_tie_break_prefers_lower_asn() {
        // Two equal-length provider routes: stub 30 buys from 10 and 20,
        // both buy from tier-1 1. Destination 40 is customer of 1.
        let mut g = AsGraph::new();
        for (a, t) in [
            (1, Tier::Tier1),
            (10, Tier::Tier2),
            (20, Tier::Tier2),
            (30, Tier::Stub),
            (40, Tier::Stub),
        ] {
            g.add_as(Asn(a), t).unwrap();
        }
        g.add_customer_provider(Asn(10), Asn(1)).unwrap();
        g.add_customer_provider(Asn(20), Asn(1)).unwrap();
        g.add_customer_provider(Asn(30), Asn(10)).unwrap();
        g.add_customer_provider(Asn(30), Asn(20)).unwrap();
        g.add_customer_provider(Asn(40), Asn(1)).unwrap();
        let t = RoutingTree::compute(&g, Asn(40)).unwrap();
        assert_eq!(
            t.path_from(&g, Asn(30)).unwrap(),
            vec![Asn(30), Asn(10), Asn(1), Asn(40)]
        );
    }

    #[test]
    fn disconnected_as_has_no_route() {
        let mut g = diamond();
        g.add_as(Asn(99), Tier::Stub).unwrap();
        let t = RoutingTree::compute(&g, Asn(8)).unwrap();
        assert_eq!(t.path_from(&g, Asn(99)), None);
        assert_eq!(t.class_of(&g, Asn(99)), None);
        assert!(RoutingTree::compute(&g, Asn(1000)).is_none());
        // An unknown destination in a batch yields `None` in its place.
        let routed: Vec<bool> = RoutingTree::compute_many(&g, [Asn(8), Asn(1000), Asn(1)])
            .map(|t| t.is_some())
            .collect();
        assert_eq!(routed, [true, false, true]);
    }

    #[test]
    fn routed_iterates_everyone_in_connected_graph() {
        let g = diamond();
        let t = RoutingTree::compute(&g, Asn(1)).unwrap();
        assert_eq!(t.routed(&g).count(), 9);
    }

    #[test]
    fn a_route_takes_eight_bytes() {
        assert_eq!(std::mem::size_of::<Entry>(), 8);
        assert_eq!(std::mem::size_of::<Option<Entry>>(), 8);
    }

    /// Preference words order exactly as `(class, dist)` for every pair
    /// of classes and distances up to the bound, and unpack to both.
    #[test]
    fn preference_words_order_as_class_then_distance() {
        let classes = [
            RouteClass::Origin,
            RouteClass::Customer,
            RouteClass::Peer,
            RouteClass::Provider,
        ];
        let dists = [0, 1, 2, 1 << 16, MAX_DIST as u32];
        for c1 in classes {
            for d1 in dists {
                let e = Entry::new(pref(c1, d1), 7);
                assert_eq!((e.class(), e.dist(), e.next), (c1, d1, 7));
                for c2 in classes {
                    for d2 in dists {
                        assert_eq!(
                            pref(c1, d1).cmp(&pref(c2, d2)),
                            (c1, d1).cmp(&(c2, d2)),
                            "({c1:?}, {d1}) vs ({c2:?}, {d2})"
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod reconverge_tests {
    use super::*;
    use crate::graph::{AsGraph, Tier};
    use rand::prelude::*;
    use rand::rngs::StdRng;

    /// Random tiered graphs: incremental reconvergence after random
    /// link flaps must match a from-scratch recompute exactly.
    #[test]
    fn incremental_matches_full_recompute() {
        for seed in 0..6u64 {
            let t = crate::gen::TopologyGenerator::new(
                crate::gen::TopologyConfig::small(seed),
            )
            .generate();
            let mut g = t.graph.clone();
            let asns: Vec<Asn> = g.asns().collect();
            let mut rng = StdRng::seed_from_u64(seed + 100);
            let dest = asns[rng.gen_range(0..asns.len())];
            let mut tree = RoutingTree::compute(&g, dest).unwrap();

            let mut links: Vec<(Asn, Asn)> = Vec::new();
            for i in 0..g.len() {
                let a = g.asn_of(i);
                for &(j, _) in g.neighbors_idx(i) {
                    let b = g.asn_of(j);
                    if a < b {
                        links.push((a, b));
                    }
                }
            }
            let mut down: Vec<((Asn, Asn), crate::graph::Relationship)> = Vec::new();
            for _ in 0..40 {
                if !down.is_empty() && rng.gen_bool(0.45) {
                    // Bring a down link back up.
                    let ((a, b), rel) = down.remove(rng.gen_range(0..down.len()));
                    match rel {
                        crate::graph::Relationship::Peer => {
                            g.add_peering(a, b).unwrap()
                        }
                        crate::graph::Relationship::Customer => {
                            g.add_customer_provider(b, a).unwrap()
                        }
                        crate::graph::Relationship::Provider => {
                            g.add_customer_provider(a, b).unwrap()
                        }
                    }
                    tree.reconverge_after_link_event(&g, a, b);
                } else {
                    let (a, b) = links[rng.gen_range(0..links.len())];
                    if g.relationship(a, b).is_none() {
                        continue;
                    }
                    let rel = g.relationship(a, b).unwrap();
                    g.remove_link(a, b).unwrap();
                    down.push(((a, b), rel));
                    tree.reconverge_after_link_event(&g, a, b);
                }
                let fresh = RoutingTree::compute(&g, dest).unwrap();
                for &src in &asns {
                    assert_eq!(
                        tree.path_from(&g, src),
                        fresh.path_from(&g, src),
                        "seed {seed}: divergence at {src}"
                    );
                }
            }
        }
    }

    /// A leaf access-link event touches only the leaf: no other entry
    /// changes and the report flag is accurate.
    #[test]
    fn leaf_event_is_local_and_flagged() {
        let mut g = AsGraph::new();
        for (a, t) in [(1, Tier::Tier1), (2, Tier::Tier2), (3, Tier::Stub)] {
            g.add_as(Asn(a), t).unwrap();
        }
        g.add_customer_provider(Asn(2), Asn(1)).unwrap();
        g.add_customer_provider(Asn(3), Asn(2)).unwrap();
        let mut tree = RoutingTree::compute(&g, Asn(1)).unwrap();
        g.remove_link(Asn(3), Asn(2)).unwrap();
        assert!(tree.reconverge_after_link_event(&g, Asn(3), Asn(2)));
        assert_eq!(tree.path_from(&g, Asn(3)), None);
        assert_eq!(tree.path_from(&g, Asn(2)), Some(vec![Asn(2), Asn(1)]));
        // Re-adding restores and reports the change; a second identical
        // call reports no change.
        g.add_customer_provider(Asn(3), Asn(2)).unwrap();
        assert!(tree.reconverge_after_link_event(&g, Asn(3), Asn(2)));
        assert!(!tree.reconverge_after_link_event(&g, Asn(3), Asn(2)));
        assert_eq!(
            tree.path_from(&g, Asn(3)),
            Some(vec![Asn(3), Asn(2), Asn(1)])
        );
    }

    /// The budget fallback, forced by a budget of 0–2 decides, rebuilds
    /// a with-vantages tree through its core view (DESIGN.md §27): every
    /// route, stored or decided on read, equals a fresh full compute's,
    /// its epoch moves whenever an entry
    /// moved (exactly then at budget 0, when no partial update came
    /// first), and its trace, composed in order, walks every stored
    /// node's next hop from the pre-event tree to the post-event one.
    #[test]
    fn budget_fallback_rebuilds_through_the_core_view() {
        let mut fallbacks = 0;
        for seed in 0..3u64 {
            let mut g = crate::gen::TopologyGenerator::new(
                crate::gen::TopologyConfig::small(seed),
            )
            .generate()
            .graph;
            let n = g.len();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xB0D6);
            let vantages: Vec<Asn> = (0..6).map(|_| g.asn_of(rng.gen_range(0..n))).collect();
            let stored = StoredSet::new(&g, vantages);
            let mut view = CoreView::new(&g, Some(stored.clone()));
            let dests: Vec<Asn> = g.asns().step_by(3).collect();
            let elided = |d: &Asn| stored.slot(g.index_of(*d).unwrap()).is_none();
            assert!(
                dests.iter().any(elided),
                "seed {seed}: no elided destination"
            );
            let mut trees: Vec<RoutingTree> = RoutingTree::compute_many_in(&g, &view, dests)
                .map(|t| {
                    let mut t = t.unwrap();
                    t.set_tracing(true);
                    t
                })
                .collect();
            let links: Vec<(usize, usize, Relationship)> = (0..n)
                .flat_map(|i| g.neighbors_idx(i).iter().map(move |&(j, r)| (i, j, r)))
                .filter(|&(i, j, _)| i < j)
                .collect();
            let mut scratch = ReconvergeScratch::new();
            for event in 0..30 {
                let (ia, ib, rel) = links[rng.gen_range(0..links.len())];
                let (a, b) = (g.asn_of(ia), g.asn_of(ib));
                let up = g.relationship(a, b).is_none();
                match (up, rel) {
                    (false, _) => g.remove_link(a, b).unwrap(),
                    (true, Relationship::Peer) => g.add_peering(a, b).unwrap(),
                    (true, Relationship::Customer) => g.add_customer_provider(b, a).unwrap(),
                    (true, Relationship::Provider) => g.add_customer_provider(a, b).unwrap(),
                }
                view.set_link(&g, ia, ib, up);
                for tree in &mut trees {
                    let what = format!("seed {seed}, event {event}, tree toward {}", tree.dest());
                    let budget = event % 3;
                    let (pre, epoch) = (tree.entries.clone(), tree.epoch());
                    tree.clear_trace();
                    let changed = tree.reconverge_within(
                        &g,
                        &view,
                        ia,
                        ib,
                        up.then_some(rel),
                        &mut scratch,
                        budget,
                    );
                    fallbacks += usize::from(budget == 0 && changed);
                    let fresh = RoutingTree::compute(&g, tree.dest()).unwrap();
                    for i in 0..n {
                        let at = g.asn_of(i);
                        assert_eq!(
                            tree.route_at(&g, i),
                            fresh.route_at_idx(i),
                            "{what} at {at}"
                        );
                    }
                    assert_eq!(tree.epoch() != epoch, changed, "{what}");
                    assert!(changed || tree.entries == pre, "{what}: moved, epoch kept");
                    if budget == 0 {
                        assert_eq!(changed, tree.entries != pre, "{what}");
                    }
                    let mut next: Vec<u32> = pre
                        .iter()
                        .map(|e| e.map_or(TRACE_UNROUTED, |e| e.next))
                        .collect();
                    for &(v, old, new) in tree.trace() {
                        let s = stored.slot(v as usize).expect("a traced node is stored");
                        assert_eq!(next[s], old, "{what}: trace does not compose");
                        next[s] = new;
                    }
                    let post: Vec<u32> = tree
                        .entries
                        .iter()
                        .map(|e| e.map_or(TRACE_UNROUTED, |e| e.next))
                        .collect();
                    assert_eq!(next, post, "{what}: trace misses a moved node");
                }
            }
        }
        assert!(fallbacks > 0, "no event reached the fallback");
    }
}

#[cfg(test)]
mod oracle_tests {
    use super::*;
    use crate::gen::{TopologyConfig, TopologyGenerator};
    use crate::graph::Tier;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The heap-based construction `compute` replaced, kept as its
    /// independent oracle: phase 1 sorts each level's offers, phase 2
    /// sorts every peer offer, phase 3 is a Dijkstra keyed on
    /// `(dist, via ASN)`.
    fn reference(graph: &AsGraph, dest: Asn) -> Option<RoutingTree> {
        let n = graph.len();
        let d = graph.index_of(dest)?;
        let mut entries: Vec<Option<Entry>> = vec![None; n];
        entries[d] = Some(Entry::new(pref(RouteClass::Origin, 0), d as u32));

        let mut frontier = vec![d];
        let mut dist = 0u32;
        while !frontier.is_empty() {
            dist += 1;
            let mut offers: Vec<(usize, usize)> = Vec::new();
            for &x in &frontier {
                for &(p, rel) in graph.neighbors_idx(x) {
                    if rel == Relationship::Provider && entries[p].is_none() {
                        offers.push((p, x));
                    }
                }
            }
            offers.sort_by_key(|&(p, via)| (p, graph.asn_of(via)));
            let mut next_frontier = Vec::new();
            for (p, via) in offers {
                if entries[p].is_none() {
                    entries[p] = Some(Entry::new(pref(RouteClass::Customer, dist), via as u32));
                    next_frontier.push(p);
                }
            }
            frontier = next_frontier;
        }

        let mut peer_offers: Vec<(usize, u32, Asn, usize)> = Vec::new();
        for x in 0..n {
            let Some(e) = entries[x] else { continue };
            if e.class() > RouteClass::Customer {
                continue;
            }
            for &(q, rel) in graph.neighbors_idx(x) {
                let better = entries[q].map_or(true, |eq| eq.class() > RouteClass::Peer);
                if rel == Relationship::Peer && better {
                    peer_offers.push((q, e.dist() + 1, graph.asn_of(x), x));
                }
            }
        }
        peer_offers.sort_by_key(|&(q, dist, via_asn, _)| (q, dist, via_asn));
        for (q, dist, _, via) in peer_offers {
            let take = entries[q].map_or(true, |eq| {
                eq.class() > RouteClass::Peer
                    || (eq.class() == RouteClass::Peer && dist < eq.dist())
            });
            if take {
                entries[q] = Some(Entry::new(pref(RouteClass::Peer, dist), via as u32));
            }
        }

        let mut heap: BinaryHeap<Reverse<(u32, Asn, usize, usize)>> = BinaryHeap::new();
        for x in 0..n {
            let Some(e) = entries[x] else { continue };
            for &(c, rel) in graph.neighbors_idx(x) {
                if rel == Relationship::Customer && entries[c].is_none() {
                    heap.push(Reverse((e.dist() + 1, graph.asn_of(x), c, x)));
                }
            }
        }
        while let Some(Reverse((dist, _, c, via))) = heap.pop() {
            if entries[c].is_some() {
                continue;
            }
            entries[c] = Some(Entry::new(pref(RouteClass::Provider, dist), via as u32));
            for &(cc, rel) in graph.neighbors_idx(c) {
                if rel == Relationship::Customer && entries[cc].is_none() {
                    heap.push(Reverse((dist + 1, graph.asn_of(c), cc, c)));
                }
            }
        }

        Some(RoutingTree {
            dest,
            dest_idx: d,
            stored: None,
            entries,
            epoch: 0,
            tracing: false,
            trace_epoch: 0,
            trace: Vec::new(),
        })
    }

    /// Every origin's tree, node by node, against the oracle. The trees
    /// come from one `compute_many` call — one shared split view and
    /// reused worklists — in descending destination order with the
    /// first destination repeated at the end, so state carried from one
    /// tree into the next would show.
    fn assert_all_trees_match(g: &AsGraph, what: &str) {
        let mut dests: Vec<Asn> = g.asns().collect();
        dests.reverse();
        dests.extend(dests.first().copied());
        let trees = RoutingTree::compute_many(g, dests.clone());
        for (&dest, got) in dests.iter().zip(trees) {
            let got = got.unwrap();
            let want = reference(g, dest).unwrap();
            assert_eq!(got.dest(), dest);
            for i in 0..g.len() {
                assert_eq!(
                    got.route_at_idx(i),
                    want.route_at_idx(i),
                    "{what}: tree toward {dest} differs at {}",
                    g.asn_of(i)
                );
            }
        }
    }

    /// Remove each link of `g` with probability `frac`, drawn from `seed`.
    fn remove_links(g: &mut AsGraph, frac: f64, seed: u64) {
        let mut rng = proptest::TestRng::from_seed(seed);
        let mut links = Vec::new();
        for i in 0..g.len() {
            for &(j, _) in g.neighbors_idx(i) {
                if i < j {
                    links.push((g.asn_of(i), g.asn_of(j)));
                }
            }
        }
        for (a, b) in links {
            if rng.unit_f64() < frac {
                g.remove_link(a, b).unwrap();
            }
        }
    }

    /// A generated topology, intact and after random link removals
    /// that strand ASes and leave multihomed stubs with equal-length
    /// provider routes.
    fn check_generated(config: TopologyConfig, frac: f64) {
        let seed = config.seed;
        let mut g = TopologyGenerator::new(config).generate().graph;
        assert_all_trees_match(&g, "intact");
        remove_links(&mut g, frac, seed ^ 0x5EED);
        assert_all_trees_match(&g, "after removals");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The small tier's 200-AS topology (legacy generator path).
        #[test]
        fn compute_matches_heap_reference_on_small_topologies(
            seed in any::<u64>(),
            frac in 0.0f64..0.15,
        ) {
            check_generated(TopologyConfig::small(seed), frac);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2))]

        /// An 800-AS topology on the regional generator path.
        #[test]
        fn compute_matches_heap_reference_on_medium_topologies(
            seed in any::<u64>(),
            frac in 0.0f64..0.15,
        ) {
            check_generated(TopologyConfig::internet(800, seed), frac);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random layered graphs whose ASN order disagrees with node
        /// order, so every tie-break is decided by ASN, not by index.
        #[test]
        fn compute_matches_heap_reference_on_random_graphs(
            n in 3usize..40,
            links in proptest::collection::vec(
                (any::<proptest::sample::Index>(), any::<proptest::sample::Index>(), any::<bool>()),
                0..90,
            ),
        ) {
            let asn = |i: usize| Asn(((i * 37) % 101 + 1) as u32);
            let mut g = AsGraph::new();
            for i in 0..n {
                g.add_as(asn(i), Tier::Tier2).unwrap();
            }
            for (a, b, peer) in links {
                let (a, b) = (a.index(n), b.index(n));
                if a == b || g.relationship(asn(a), asn(b)).is_some() {
                    continue;
                }
                // Provider links point from higher to lower node index,
                // so the customer-provider hierarchy is acyclic.
                let (c, p) = (a.max(b), a.min(b));
                if peer {
                    g.add_peering(asn(a), asn(b)).unwrap();
                } else {
                    g.add_customer_provider(asn(c), asn(p)).unwrap();
                }
            }
            assert_all_trees_match(&g, "random graph");
        }
    }
}
