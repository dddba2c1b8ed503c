//! Route collectors: RIPE-RIS-style vantage points.
//!
//! The paper's dataset is "all BGP updates received by 4 RIPE collectors
//! (rrc00, rrc01, rrc03, rrc04) over more than 70 eBGP sessions during
//! May 2014", cleaned of session-reset artifacts per Zhang et al. \[31\].
//!
//! A [`Collector`] here peers with a set of ASes. Each session is either
//! a **full feed** (the peer exports its entire table, as it would to a
//! customer) or a **partial feed** (the peer exports only its own and
//! customer-learned routes, as it would to a lateral peer). Partial
//! feeds are why, in the paper, each Tor prefix was seen on only ~40% of
//! sessions: most RIS sessions are partial.
//!
//! Collectors record [`UpdateRecord`]s into an [`UpdateLog`]. Session
//! resets (scheduled per session) re-dump the peer's table, producing
//! exactly the duplicate-announcement bursts the paper had to remove;
//! [`clean_session_resets`] is that cleaning pass.

use crate::metrics::SessionPrefixRuns;
use crate::msg::{Route, UpdateMessage};
use crate::paths::{ExportCache, PathArena, PathId, Watch};
use quicksand_net::{AsPath, Asn, Ipv4Prefix, QsResult, QuicksandError, SimDuration, SimTime};
use quicksand_obs as obs;
use quicksand_topology::{AsGraph, RouteClass, RoutingTree};
use rand::prelude::*;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifies one eBGP session at one collector.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize,
)]
pub struct SessionId(pub u32);

/// What the session's peer exports to the collector.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum FeedKind {
    /// Customer-like export: the peer's full table.
    Full,
    /// Peer-like export: only origin/customer-learned routes.
    Partial,
}

/// One recorded BGP UPDATE at a collector session.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpdateRecord {
    /// When the update arrived.
    pub at: SimTime,
    /// The session it arrived on.
    pub session: SessionId,
    /// The update. Announce paths include the peer AS as first hop
    /// (the peer prepends itself when exporting), origin last.
    pub msg: UpdateMessage,
}

/// The table changes one observation computes for one session before
/// any state is applied: for each prefix whose recorded entry changes,
/// the new entry — `Some(id)` to insert or replace (an announcement),
/// `None` to remove (a withdrawal) — in diff order. Produced by
/// [`diff_run`] against the session's pre-observe table and consumed by
/// [`Collector::apply_session_ops`].
type SessionOps = Vec<(Ipv4Prefix, Option<PathId>)>;

/// A time-ordered log of updates across all sessions of all collectors.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct UpdateLog {
    /// The records, sorted by `(at, session)` append order.
    pub records: Vec<UpdateRecord>,
}

impl UpdateLog {
    /// Total number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records exist.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The log's fingerprint: FNV-1a over its QSMRT001 encoding
    /// ([`crate::mrt::write_log`]), folded as the encoder writes. It is
    /// the `raw_log_fnv` that `repro bench-snapshot` prints; equal
    /// fingerprints mean byte-identical encodings.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::feed::FnvHasher::new();
        crate::mrt::write_log(self, &mut h).expect("folding into a digest cannot fail");
        h.finish()
    }

    /// The set of sessions that appear in the log, ascending.
    pub fn sessions(&self) -> Vec<SessionId> {
        // The collector appends one session's records of an observation
        // together, so collapsing consecutive repeats first leaves about
        // one entry per (observation, session), not one per record.
        let mut v: Vec<SessionId> = Vec::new();
        for r in &self.records {
            if v.last() != Some(&r.session) {
                v.push(r.session);
            }
        }
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Make room for `batch` more records. The log grows by the larger
    /// of `batch` and a [`LOG_GROWTH_DIVISOR`]th of its length, not by
    /// doubling: a doubling step leaves up to a full log's worth of
    /// unused capacity, and during the copy the old buffer is live
    /// beside the new one (DESIGN.md §28).
    fn reserve_batch(&mut self, batch: usize) {
        if self.records.capacity() - self.records.len() < batch {
            self.records
                .reserve_exact(batch.max(self.records.len() / LOG_GROWTH_DIVISOR));
        }
    }
}

/// The collector grows a log by a `1 / LOG_GROWTH_DIVISOR` share of
/// its length at a time (or by one batch, when that is larger), so once
/// a batch is in, the log's spare capacity is at most that share.
pub const LOG_GROWTH_DIVISOR: usize = 5;

/// Configuration for collector construction.
#[derive(Clone)]
pub struct CollectorConfig {
    /// Fraction of sessions that are full feeds (RIS has a minority of
    /// full feeds; default 0.25).
    pub frac_full: f64,
    /// Mean number of session resets per session over the horizon.
    pub resets_per_session: f64,
    /// Schedule horizon for resets.
    pub horizon: SimDuration,
    /// RNG seed (feed kinds and reset schedule).
    pub seed: u64,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            frac_full: 0.25,
            resets_per_session: 1.0,
            horizon: SimDuration::from_days(30),
            seed: 0x4415,
        }
    }
}

// Checkpoint/feed fingerprints hash the `Debug` output of this config
// (see `quicksand_recover::config_fingerprint`). Two retired session
// retry knobs are still printed at the only values they ever held, so
// every configuration keeps its exact historical fingerprint.
impl fmt::Debug for CollectorConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CollectorConfig")
            .field("frac_full", &self.frac_full)
            .field("resets_per_session", &self.resets_per_session)
            .field("horizon", &self.horizon)
            .field("seed", &self.seed)
            .field("retry_base", &SimDuration::from_secs(30))
            .field("retry_cap", &SimDuration::from_hours(1))
            .finish()
    }
}

/// One session's static description.
#[derive(Clone, Copy, Debug)]
pub struct SessionInfo {
    /// Session id.
    pub id: SessionId,
    /// The peer AS whose view the session exports.
    pub peer: Asn,
    /// Feed kind.
    pub kind: FeedKind,
}

/// One session's recorded table: `(prefix, path id)` entries sorted
/// ascending by prefix. The replay's access mix is merge-shaped — long
/// ascending probe runs from the diff, batched ascending writes from
/// the apply — where a flat sorted vec beats the pointer-chasing
/// `BTreeMap` it replaced, and iteration stays in the ascending prefix
/// order the log and checkpoint formats rely on.
#[derive(Clone, Debug, Default)]
struct FlatTable {
    entries: Vec<(Ipv4Prefix, PathId)>,
}

/// Index of the first entry of `table` with prefix `>= p`, by
/// exponential probing from the front. The diff walks ascending query
/// runs against the table with a moving cursor, so the answer is
/// usually within a step or two of the start — O(log distance) per
/// probe, O(n + m) over a whole lockstep run.
fn gallop(table: &[(Ipv4Prefix, PathId)], p: Ipv4Prefix) -> usize {
    let mut lo = 0usize;
    let mut step = 1usize;
    loop {
        let probe = lo + step;
        if probe > table.len() || table[probe - 1].0 >= p {
            break;
        }
        lo = probe;
        step <<= 1;
    }
    let hi = (lo + step).min(table.len());
    lo + table[lo..hi].partition_point(|e| e.0 < p)
}

/// The diff kernel: diff one strictly ascending `run` of prefixes
/// against a session's recorded `table`, pushing onto `ops` the new
/// entry of every prefix whose recorded entry changes. `export(i)` is
/// the peer's interned recorded path and route class for `run[i]`; a
/// partial feed sees only origin- and customer-learned routes. An op is
/// pushed iff the visible export differs from the recorded entry: a
/// changed or new path announces, a vanished one withdraws.
///
/// `cursor` is the gallop position in `table`, carried across the runs
/// of one session so consecutive ascending runs merge in one lockstep
/// walk; a run that starts at or below the cursor restarts from the
/// front. Reads only `table`, so applying one session's ops cannot
/// change another session's diff.
fn diff_run(
    kind: FeedKind,
    table: &[(Ipv4Prefix, PathId)],
    cursor: &mut usize,
    run: &[Ipv4Prefix],
    export: impl Fn(usize) -> Option<(PathId, RouteClass)>,
    ops: &mut SessionOps,
) {
    debug_assert!(
        run.windows(2).all(|w| w[0] < w[1]),
        "run must be strictly ascending"
    );
    if run
        .first()
        .is_some_and(|&p| *cursor > 0 && table[*cursor - 1].0 >= p)
    {
        *cursor = 0;
    }
    for (i, &prefix) in run.iter().enumerate() {
        let now = export(i).and_then(|(id, class)| {
            let visible = kind == FeedKind::Full
                || matches!(class, RouteClass::Origin | RouteClass::Customer);
            visible.then_some(id)
        });
        let pos = *cursor + gallop(&table[*cursor..], prefix);
        let hit = pos < table.len() && table[pos].0 == prefix;
        *cursor = if hit { pos + 1 } else { pos };
        if hit.then(|| table[pos].1) != now {
            ops.push((prefix, now));
        }
    }
}

/// A set of collector sessions that observes route changes and appends
/// them to an [`UpdateLog`].
///
/// Drive it by calling [`Collector::observe`] after every routing event
/// (and once at t=0 for the initial table dump): the collector diffs
/// each session's exported table against what it last recorded and
/// appends announcements/withdrawals. Scheduled session resets re-dump
/// tables, creating the duplicate-update artifacts the cleaning pass
/// removes.
#[derive(Debug)]
pub struct Collector {
    /// Process-unique id, never 0: an [`ExportCache`]'s watch rows
    /// belong to the one collector whose roster they were built over.
    id: u64,
    sessions: Vec<SessionInfo>,
    /// Last announced path per prefix, interned, one sorted table per
    /// session (parallel to `sessions`). Per-session tables keep the
    /// hot-path lookup short — the diff probes its own session's table
    /// millions of times per replay — while iteration stays in the
    /// ascending (session, prefix) order the log format relies on.
    state: Vec<FlatTable>,
    /// Arena of every distinct recorded path; `state` and [`SessionOps`]
    /// refer into it by id, and every record, reset re-dump and exported
    /// checkpoint route shares its one copy of the path.
    arena: PathArena,
    /// Per-session peer graph indices, memoized on the first refresh
    /// (parallel to `sessions`; empty until then).
    peer_idx: Vec<Option<usize>>,
    /// Reset schedule: sorted (time, session index).
    resets: Vec<(SimTime, usize)>,
    next_reset: usize,
    /// The one reusable [`SessionOps`] buffer: the observe driver diffs
    /// into it and applies it one session at a time, so it holds at
    /// most one session's ops and per-event diffs allocate nothing.
    ops_scratch: SessionOps,
    /// Reusable `(prefix, op seq, entry)` buffer for sorting a batch of
    /// table deltas in [`Collector::apply_table_ops`].
    delta_scratch: Vec<(Ipv4Prefix, u32, Option<PathId>)>,
    /// Reusable list of the sessions a per-peer refresh walks.
    touched_scratch: Vec<usize>,
    /// Reusable rebuild target for the merge in
    /// [`Collector::apply_table_ops`]; swapped with the live table, so the
    /// two buffers ping-pong with no steady-state allocation.
    merge_scratch: Vec<(Ipv4Prefix, PathId)>,
}

/// The mutable mid-run state of a [`Collector`], detached from the
/// statically derivable parts (session roster and reset schedule, which
/// [`Collector::new`] regenerates from the same configuration seed).
/// Produced by [`Collector::export_state`], reapplied by
/// [`Collector::import_state`] — the collector section of a run
/// checkpoint.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CollectorState {
    /// Last announced path per live table entry: `(session index,
    /// prefix, path)`.
    pub routes: Vec<(u32, Ipv4Prefix, AsPath)>,
    /// How many scheduled resets have already fired.
    pub resets_done: u64,
    /// Size of the session roster the state was taken from.
    pub sessions: usize,
}

impl Collector {
    /// Build a collector peering with `peers`. Feed kinds and the reset
    /// schedule are drawn deterministically from `config.seed`.
    ///
    /// Returns [`QuicksandError::InvalidConfig`] when `frac_full` is
    /// outside `[0, 1]`, `resets_per_session` is negative or non-finite,
    /// or resets are requested over an empty horizon.
    pub fn new(peers: &[Asn], config: &CollectorConfig) -> QsResult<Self> {
        if !(0.0..=1.0).contains(&config.frac_full) {
            return Err(QuicksandError::InvalidConfig {
                what: "frac_full",
                detail: format!("must be within [0, 1], got {}", config.frac_full),
            });
        }
        if !(config.resets_per_session >= 0.0 && config.resets_per_session.is_finite()) {
            return Err(QuicksandError::InvalidConfig {
                what: "resets_per_session",
                detail: format!(
                    "must be finite and >= 0, got {}",
                    config.resets_per_session
                ),
            });
        }
        if config.resets_per_session > 0.0 && config.horizon == SimDuration::ZERO {
            return Err(QuicksandError::InvalidConfig {
                what: "horizon",
                detail: "resets requested over an empty horizon".into(),
            });
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let sessions: Vec<SessionInfo> = peers
            .iter()
            .enumerate()
            .map(|(i, &peer)| SessionInfo {
                id: SessionId(i as u32),
                peer,
                kind: if rng.gen_bool(config.frac_full) {
                    FeedKind::Full
                } else {
                    FeedKind::Partial
                },
            })
            .collect();
        // Poisson resets per session.
        let mut resets = Vec::new();
        let horizon_s = config.horizon.as_secs_f64();
        if config.resets_per_session > 0.0 {
            let mean_gap = horizon_s / config.resets_per_session;
            let exp = rand_distr::Exp::new(1.0 / mean_gap).map_err(|e| {
                QuicksandError::InvalidConfig {
                    what: "resets_per_session",
                    detail: format!("reset rate yields invalid exponential: {e}"),
                }
            })?;
            for (i, _) in sessions.iter().enumerate() {
                let mut t = rand_distr::Distribution::sample(&exp, &mut rng);
                while t < horizon_s {
                    resets.push((SimTime::ZERO + SimDuration::from_secs_f64(t), i));
                    t += rand_distr::Distribution::sample(&exp, &mut rng);
                }
            }
        }
        resets.sort();
        let state = vec![FlatTable::default(); sessions.len()];
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        Ok(Collector {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            sessions,
            state,
            arena: PathArena::new(),
            peer_idx: Vec::new(),
            resets,
            next_reset: 0,
            ops_scratch: Vec::new(),
            delta_scratch: Vec::new(),
            touched_scratch: Vec::new(),
            merge_scratch: Vec::new(),
        })
    }

    /// The sessions of this collector.
    pub fn sessions(&self) -> &[SessionInfo] {
        &self.sessions
    }

    /// The arena holding every distinct recorded path seen so far.
    pub fn arena(&self) -> &PathArena {
        &self.arena
    }

    /// Bring `cache` up to date for `tree`'s origin at every session
    /// peer of this collector, interning newly seen recorded paths into
    /// this collector's arena. Epoch-unchanged entries return
    /// immediately.
    pub fn refresh_exports(
        &mut self,
        graph: &AsGraph,
        tree: &RoutingTree,
        cache: &mut ExportCache,
    ) {
        self.refresh_sessions(graph, tree, cache, |_| {});
    }

    /// [`Collector::refresh_exports`] that also reports *where* the
    /// refresh mattered: for every session whose `(origin, peer)`
    /// export **value** changed, pushes the origin onto that session's
    /// list in `dirty` (indexed by session, `len >= sessions`). The
    /// per-event observe then diffs exactly those (session, origin)
    /// pairs — an epoch bump that leaves a peer's export identical can
    /// produce no log record, so skipping it is invisible in the log.
    pub fn refresh_exports_dirty(
        &mut self,
        graph: &AsGraph,
        tree: &RoutingTree,
        cache: &mut ExportCache,
        dirty: &mut [Vec<Asn>],
    ) {
        let origin = tree.dest();
        self.refresh_sessions(graph, tree, cache, |si| dirty[si].push(origin));
    }

    /// The refresh loop: refresh `tree`'s export at every session peer,
    /// calling `changed(si)` for each session whose export value moved.
    /// The whole origin is skipped when its watch row proves no export
    /// moved; when the trusted trace hits the row, only the sessions
    /// whose post-event path holds a trace node are walked; otherwise
    /// every session is walked and the row rebuilt (DESIGN.md §20). Peer
    /// graph indices are resolved once, on the first call — node indices
    /// are stable for a graph's lifetime (link churn never renumbers
    /// nodes), so one resolution serves the whole replay.
    fn refresh_sessions(
        &mut self,
        graph: &AsGraph,
        tree: &RoutingTree,
        cache: &mut ExportCache,
        mut changed: impl FnMut(usize),
    ) {
        if self.peer_idx.len() != self.sessions.len() {
            self.peer_idx = self
                .sessions
                .iter()
                .map(|s| graph.index_of(s.peer))
                .collect();
        }
        let mut walk = |si: usize, cache: &mut ExportCache| {
            let peer = self.sessions[si].peer;
            if cache.refresh_at(graph, tree, peer, self.peer_idx[si], &mut self.arena) {
                changed(si);
            }
        };
        match cache.watch_check(tree, self.id) {
            Watch::Unchanged => {}
            Watch::PerPeer => {
                let mut touched = std::mem::take(&mut self.touched_scratch);
                touched.clear();
                cache.watch_peers(tree, &self.peer_idx, |si| touched.push(si));
                for &si in &touched {
                    walk(si, cache);
                }
                self.touched_scratch = touched;
            }
            Watch::Rebuild => {
                for si in 0..self.sessions.len() {
                    walk(si, cache);
                }
                cache.rewatch(graph, tree, &self.peer_idx);
            }
        }
    }

    /// Capture the collector's mutable mid-run state (recorded tables,
    /// reset cursor) for a checkpoint. The session roster and reset
    /// schedule are regenerated deterministically by [`Collector::new`]
    /// from the same peers and configuration, so only the roster's size
    /// travels, to refuse a mismatched resume.
    pub fn export_state(&self) -> CollectorState {
        let mut routes = Vec::new();
        for (si, table) in self.state.iter().enumerate() {
            for &(p, id) in &table.entries {
                routes.push((si as u32, p, self.arena.resolve(id).clone()));
            }
        }
        CollectorState {
            routes,
            resets_done: self.next_reset as u64,
            sessions: self.sessions.len(),
        }
    }

    /// Restore state captured by [`Collector::export_state`] into a
    /// freshly built collector with the same peers and configuration.
    ///
    /// Returns [`QuicksandError::ResumeMismatch`] when the state does
    /// not fit this collector (wrong session count, a route referencing
    /// an unknown session, or a reset cursor beyond the schedule) —
    /// the symptom of resuming against a different configuration.
    pub fn import_state(&mut self, state: &CollectorState) -> QsResult<()> {
        if state.sessions != self.sessions.len() {
            return Err(QuicksandError::ResumeMismatch {
                what: "sessions",
                detail: format!(
                    "checkpoint has {} sessions, collector has {}",
                    state.sessions,
                    self.sessions.len()
                ),
            });
        }
        if state.resets_done as usize > self.resets.len() {
            return Err(QuicksandError::ResumeMismatch {
                what: "resets_done",
                detail: format!(
                    "checkpoint fired {} resets, schedule has {}",
                    state.resets_done,
                    self.resets.len()
                ),
            });
        }
        let mut tables: Vec<Vec<(Ipv4Prefix, u32, PathId)>> =
            vec![Vec::new(); self.sessions.len()];
        for (seq, (si, prefix, path)) in state.routes.iter().enumerate() {
            let si = *si as usize;
            if si >= self.sessions.len() {
                return Err(QuicksandError::ResumeMismatch {
                    what: "routes",
                    detail: format!("route on unknown session index {si}"),
                });
            }
            tables[si].push((*prefix, seq as u32, self.arena.intern(path.clone())));
        }
        self.state = tables
            .into_iter()
            .map(|mut v| {
                // Checkpoints written by `export_state` are already
                // sorted and duplicate-free; sorting by (prefix, input
                // order) with a last-wins collapse keeps the old
                // map-insert semantics for any well-typed input.
                v.sort_unstable_by_key(|&(p, s, _)| (p, s));
                let mut entries: Vec<(Ipv4Prefix, PathId)> = Vec::with_capacity(v.len());
                for (p, _, id) in v {
                    match entries.last_mut() {
                        Some(last) if last.0 == p => last.1 = id,
                        _ => entries.push((p, id)),
                    }
                }
                FlatTable { entries }
            })
            .collect();
        self.next_reset = state.resets_done as usize;
        Ok(())
    }

    /// Observe the current routing state at time `at` and append any
    /// changes (plus any due session resets) to `log`.
    ///
    /// `exported` must return, for a peer AS and a prefix, the peer's
    /// current best route as `(path-after-peer, class)` — i.e. what
    /// `RoutingTree::as_path_at` yields — or `None` when unrouted. The
    /// collector applies the per-session feed filter and prepends the
    /// peer to recorded paths. `prefixes` must be strictly ascending.
    pub fn observe<F>(
        &mut self,
        at: SimTime,
        prefixes: &[Ipv4Prefix],
        exported: F,
        log: &mut UpdateLog,
    ) where
        F: Fn(Asn, Ipv4Prefix) -> Option<(AsPath, RouteClass)>,
    {
        // Convenience form: pre-intern the recorded (peer-prepended)
        // path for every queried (peer, prefix) pair, then run the
        // interned observe against the resulting table.
        let arena = &mut self.arena;
        let mut table: BTreeMap<(Asn, Ipv4Prefix), Option<(PathId, RouteClass)>> =
            BTreeMap::new();
        for info in &self.sessions {
            let peer = info.peer;
            for &prefix in prefixes {
                table.entry((peer, prefix)).or_insert_with(|| {
                    exported(peer, prefix)
                        .map(|(path, class)| (arena.intern(path.prepended(peer)), class))
                });
            }
        }
        self.observe_interned(
            at,
            prefixes,
            &|peer, pi| table.get(&(peer, prefixes[pi])).copied().flatten(),
            log,
        );
    }

    /// The full scan: [`Collector::observe`] over pre-interned exports.
    /// `exported` yields, for a peer and an index into `prefixes`, the
    /// interned id of the *recorded* path (the peer-prepended path the
    /// session would log — the full peer→origin walk) plus the peer's
    /// route class, typically straight out of an [`ExportCache`].
    /// Passing the index rather than the prefix lets callers answer
    /// from a slice aligned with `prefixes` instead of a per-query map
    /// lookup. Every session diffs `prefixes` as one run, one export
    /// per prefix.
    ///
    /// # Panics
    ///
    /// When `prefixes` is not strictly ascending: a prefix listed twice
    /// would diff against the table its first occurrence was about to
    /// change.
    pub fn observe_interned<F>(
        &mut self,
        at: SimTime,
        prefixes: &[Ipv4Prefix],
        exported: &F,
        log: &mut UpdateLog,
    ) where
        F: Fn(Asn, usize) -> Option<(PathId, RouteClass)>,
    {
        assert!(
            prefixes.windows(2).all(|w| w[0] < w[1]),
            "observe_interned: prefixes must be strictly ascending"
        );
        self.observe_with(at, log, |_, info, table, ops| {
            diff_run(
                info.kind,
                table,
                &mut 0,
                prefixes,
                |pi| exported(info.peer, pi),
                ops,
            )
        });
    }

    /// Observe at time `at` only the **dirty** part of the routing
    /// state: `dirty[si]` lists, ascending, the origins whose export
    /// toward session `si`'s peer changed since the last observe (as
    /// reported by [`Collector::refresh_exports_dirty`]), and
    /// `prefixes_of` maps an origin to its tracked prefixes (strictly
    /// ascending; an origin's prefixes must not appear under another
    /// origin). `exported` answers `(peer, origin)` queries, typically
    /// [`ExportCache::get`]. Each dirty origin is one diff run with one
    /// export.
    ///
    /// Produces byte-for-byte the records a full
    /// [`Collector::observe_interned`] over all tracked prefixes would
    /// append: a record is emitted only when a session's recorded entry
    /// changes, which requires that (origin, peer) export to have
    /// changed — membership in `dirty` — and clean origins' prefix runs
    /// diff to nothing. With every origin dirty it *is* the full dump,
    /// in the same record order whenever origins in ascending order
    /// own ascending prefix runs (as the tracked prefixes do).
    pub fn observe_dirty<'a, F, P>(
        &mut self,
        at: SimTime,
        dirty: &[Vec<Asn>],
        prefixes_of: &P,
        exported: &F,
        log: &mut UpdateLog,
    ) where
        F: Fn(Asn, Asn) -> Option<(PathId, RouteClass)>,
        P: Fn(Asn) -> &'a [Ipv4Prefix],
    {
        self.observe_with(at, log, |si, info, table, ops| {
            let mut cursor = 0;
            for &origin in &dirty[si] {
                let now = exported(info.peer, origin);
                diff_run(
                    info.kind,
                    table,
                    &mut cursor,
                    prefixes_of(origin),
                    |_| now,
                    ops,
                );
            }
        });
    }

    /// The one observe path: emit due resets, then, in ascending session
    /// order, diff each session with `diff(si, info, table, ops)` against
    /// its table and apply the ops before the next session diffs; count
    /// the observation. A session's diff reads only its own table, so
    /// this yields the records of diffing every session first and
    /// applying after, in the same order, through one op buffer.
    fn observe_with<D>(&mut self, at: SimTime, log: &mut UpdateLog, diff: D)
    where
        D: Fn(usize, &SessionInfo, &[(Ipv4Prefix, PathId)], &mut SessionOps),
    {
        let _span = obs::prof::span("collector", "observe");
        let recorded_before = log.records.len();
        self.emit_due_resets(at, log);
        let mut ops = std::mem::take(&mut self.ops_scratch);
        for si in 0..self.sessions.len() {
            {
                let _span = obs::prof::span("collector", "diff");
                diff(si, &self.sessions[si], &self.state[si].entries, &mut ops);
            }
            self.apply_session_ops(at, si, &mut ops, log);
        }
        self.ops_scratch = ops;
        obs::incr("collector", "observe_calls", 1);
        obs::incr(
            "collector",
            "records",
            (log.records.len() - recorded_before) as u64,
        );
    }

    /// Emit every scheduled session reset due by `at` (re-dumping the
    /// session's recorded table into `log` at the reset's scheduled
    /// time) and advance the reset cursor. Runs before any diff: resets
    /// append in schedule order and read pre-observe table state.
    fn emit_due_resets(&mut self, at: SimTime, log: &mut UpdateLog) {
        while self.next_reset < self.resets.len() && self.resets[self.next_reset].0 <= at
        {
            let (rt, si) = self.resets[self.next_reset];
            self.next_reset += 1;
            let id = self.sessions[si].id;
            log.reserve_batch(self.state[si].entries.len());
            for &(prefix, pid) in &self.state[si].entries {
                log.records.push(UpdateRecord {
                    at: rt,
                    session: id,
                    msg: UpdateMessage::Announce(Route {
                        prefix,
                        as_path: self.arena.resolve(pid).clone(),
                        communities: Default::default(),
                    }),
                });
            }
        }
    }

    /// Apply session `si`'s diff: append one record per op at `at`, each
    /// announcement sharing the arena's copy of its path, and merge the
    /// ops into the session's table. Leaves `ops` empty with its
    /// capacity kept for the next session.
    fn apply_session_ops(
        &mut self,
        at: SimTime,
        si: usize,
        ops: &mut SessionOps,
        log: &mut UpdateLog,
    ) {
        if ops.is_empty() {
            return;
        }
        let sid = self.sessions[si].id;
        log.reserve_batch(ops.len());
        for &(prefix, entry) in ops.iter() {
            let msg = match entry {
                None => UpdateMessage::Withdraw(prefix),
                Some(id) => UpdateMessage::Announce(Route {
                    prefix,
                    as_path: self.arena.resolve(id).clone(),
                    communities: Default::default(),
                }),
            };
            log.records.push(UpdateRecord {
                at,
                session: sid,
                msg,
            });
        }
        self.apply_table_ops(si, ops);
        ops.clear();
    }

    /// Apply one session's ops to its flat table as a batch merge.
    /// Replacements of existing entries update in place; once an op
    /// inserts or removes, the remainder is handled by sorting the ops
    /// `(prefix, seq)` (later ops on a duplicate prefix win) and
    /// two-pointer merging table and ops into a reused scratch buffer —
    /// O(n + k log k) for k ops instead of k O(n) `Vec` shifts.
    fn apply_table_ops(&mut self, si: usize, ops: &[(Ipv4Prefix, Option<PathId>)]) {
        let table = &mut self.state[si].entries;
        let mut needs_merge = false;
        for (i, &(prefix, entry)) in ops.iter().enumerate() {
            match (entry, table.binary_search_by(|e| e.0.cmp(&prefix))) {
                (Some(id), Ok(pos)) => table[pos].1 = id,
                _ => {
                    // Insert or remove: fall to the merge path for this
                    // and all remaining ops. In-place replacements done
                    // so far are safe — the merge re-applies the same
                    // last-wins values over the updated table.
                    self.delta_scratch.clear();
                    self.delta_scratch
                        .extend(ops[i..].iter().enumerate().map(|(j, &(p, e))| (p, j as u32, e)));
                    needs_merge = true;
                    break;
                }
            }
        }
        if !needs_merge {
            return;
        }
        self.delta_scratch.sort_unstable_by_key(|&(p, seq, _)| (p, seq));
        let merged = &mut self.merge_scratch;
        merged.clear();
        let mut ti = 0usize;
        let mut j = 0usize;
        while j < self.delta_scratch.len() {
            // Collapse the equal-prefix group to its last op (last wins).
            let prefix = self.delta_scratch[j].0;
            while j + 1 < self.delta_scratch.len() && self.delta_scratch[j + 1].0 == prefix {
                j += 1;
            }
            let entry = self.delta_scratch[j].2;
            j += 1;
            while ti < table.len() && table[ti].0 < prefix {
                merged.push(table[ti]);
                ti += 1;
            }
            if ti < table.len() && table[ti].0 == prefix {
                ti += 1; // superseded by the op
            }
            if let Some(id) = entry {
                merged.push((prefix, id));
            }
        }
        merged.extend_from_slice(&table[ti..]);
        std::mem::swap(table, merged);
    }
}

/// Configuration for [`clean_session_resets`].
#[derive(Clone, Debug)]
pub struct CleaningConfig {
    /// Window within which a burst of duplicate announcements on one
    /// session is attributed to a session reset (reported, not used for
    /// removal — duplicates are removed wherever they occur, as they
    /// carry no routing change).
    pub burst_window: SimDuration,
    /// Fraction of a session's table that must re-announce within the
    /// window to report a reset.
    pub table_fraction: f64,
}

impl Default for CleaningConfig {
    fn default() -> Self {
        CleaningConfig {
            burst_window: SimDuration::from_secs(120),
            table_fraction: 0.5,
        }
    }
}

/// Remove session-reset artifacts from an update log (the paper's
/// Zhang-et-al. \[31\] cleaning step).
///
/// A reset re-dumps the peer's table: every record in the dump announces
/// the same AS path the session had already recorded, so it is a
/// *duplicate announcement* carrying no routing change. Cleaning removes
/// every duplicate announcement (per session and prefix, an announce
/// whose AS path equals the previous announce with no intervening
/// withdraw), and every withdraw with no announced route to withdraw.
/// Returns the cleaned log as a [`CleanedLog`] view over `log`, the
/// number of removed records, and the number of detected reset bursts
/// (for reporting).
///
/// "Previous" is log order within a (session, prefix), also on a
/// faulted log whose records are out of time order. The walk runs on
/// the statistics' run kernel, [`SessionPrefixRuns`]: each run sets
/// keep bits, and the view keeps the kept records' indices in the
/// kernel's run order, so no record is copied and the statistics
/// regroup nothing (DESIGN.md §19, §29).
pub fn clean_session_resets(
    log: &UpdateLog,
    config: &CleaningConfig,
) -> (CleanedLog, usize, usize) {
    let _span = obs::prof::span("collector", "clean");
    let grouping = SessionPrefixRuns::new(log, None);
    let mut keep = vec![0u64; log.records.len().div_ceil(64)];
    let mut removed = 0usize;
    let mut bursts = 0usize;
    // The current session's removed duplicate announcements' times.
    let mut dup_times: Vec<SimTime> = Vec::new();
    for (_, session) in grouping.sessions() {
        // The session's table size: its distinct prefixes, i.e. runs.
        let mut table_size = 0usize;
        for (_, run) in session.iter() {
            table_size += 1;
            // The last announced path, `None` before any announce and
            // after a withdraw.
            let mut last: Option<&AsPath> = None;
            for (&i, r) in run.indices().iter().zip(run.records()) {
                let keep_it = match &r.msg {
                    UpdateMessage::Announce(route) if last == Some(&route.as_path) => {
                        dup_times.push(r.at);
                        false
                    }
                    UpdateMessage::Announce(route) => {
                        last = Some(&route.as_path);
                        true
                    }
                    UpdateMessage::Withdraw(_) if last.is_none() => false,
                    UpdateMessage::Withdraw(_) => {
                        last = None;
                        true
                    }
                };
                if keep_it {
                    keep[i as usize / 64] |= 1 << (i % 64);
                } else {
                    removed += 1;
                }
            }
        }
        bursts += reset_bursts(&mut dup_times, table_size, config);
        dup_times.clear();
    }
    // The kept indices, still in run order, in the grouping's own
    // buffer.
    let mut order = grouping.into_indices();
    order.retain(|&i| keep[i as usize / 64] & (1 << (i % 64)) != 0);
    order.shrink_to_fit();

    obs::incr("collector", "cleaned_duplicates", removed as u64);
    obs::incr("collector", "cleaned_bursts", bursts as u64);
    let cleaned = CleanedLog {
        keep,
        order,
        raw_len: log.records.len(),
    };
    (cleaned, removed, bursts)
}

/// Burst detection for reporting: the number of windows of
/// `config.burst_window` that hold at least `config.table_fraction` of
/// a session's `table_size` in removed duplicates, scanned left to
/// right without overlap. Sorts `times`. The window's end only moves
/// forward, so the scan is linear after the sort.
fn reset_bursts(times: &mut [SimTime], table_size: usize, config: &CleaningConfig) -> usize {
    times.sort_unstable();
    let threshold = ((table_size as f64) * config.table_fraction).ceil().max(1.0) as usize;
    let mut bursts = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < times.len() {
        // `j` is the first duplicate past the window opened at `i`; it
        // never moves back, since a later start only shrinks the window.
        j = j.max(i);
        while j < times.len() && times[j].since(times[i]) <= config.burst_window {
            j += 1;
        }
        if j - i >= threshold {
            bursts += 1;
            i = j;
        } else {
            i += 1;
        }
    }
    bursts
}

/// The cleaned log of one raw log, as a view over that raw log: which
/// records [`clean_session_resets`] kept, and the grouping of the kept
/// records into (session, prefix) runs that cleaning computed on the
/// way. It holds no record, so a month keeps one copy of its records,
/// in the raw log (DESIGN.md §29).
///
/// Every accessor takes the raw log the view was built from and panics
/// when that log's length differs from the one the view was built
/// over, so a view is not read against another log by mistake.
#[derive(Clone, PartialEq, Eq)]
pub struct CleanedLog {
    /// Bit `i % 64` of word `i / 64` is set when raw record `i` is kept.
    keep: Vec<u64>,
    /// The kept records' raw indices in run order, as
    /// [`SessionPrefixRuns::new`] orders a log's indices.
    order: Vec<u32>,
    /// The length of the raw log the view was built from.
    raw_len: usize,
}

impl CleanedLog {
    /// Number of kept records.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when cleaning kept no record.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    fn check(&self, raw: &UpdateLog) {
        assert_eq!(
            raw.records.len(),
            self.raw_len,
            "CleanedLog: read against a log of {} records, built over one of {}",
            raw.records.len(),
            self.raw_len
        );
    }

    /// The kept records, in log order.
    pub fn records<'a>(&'a self, raw: &'a UpdateLog) -> impl Iterator<Item = &'a UpdateRecord> + 'a {
        self.check(raw);
        self.keep.iter().enumerate().flat_map(move |(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    &raw.records[w * 64 + b]
                })
            })
        })
    }

    /// The kept records' (session, prefix) runs, grouped already.
    pub fn runs<'a>(&'a self, raw: &'a UpdateLog) -> SessionPrefixRuns<'a> {
        self.check(raw);
        SessionPrefixRuns::grouped(&raw.records, &self.order)
    }

    /// The kept records as a log of their own, for callers that need
    /// an [`UpdateLog`]. Clones every kept record.
    pub fn to_log(&self, raw: &UpdateLog) -> UpdateLog {
        let mut records = Vec::with_capacity(self.len());
        records.extend(self.records(raw).cloned());
        UpdateLog { records }
    }
}

impl fmt::Debug for CleanedLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CleanedLog")
            .field("kept", &self.order.len())
            .field("raw_len", &self.raw_len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn path(v: &[u32]) -> AsPath {
        v.iter().map(|&a| Asn(a)).collect()
    }

    fn announce(at_s: u64, sess: u32, prefix: &str, asns: &[u32]) -> UpdateRecord {
        UpdateRecord {
            at: SimTime::from_secs(at_s),
            session: SessionId(sess),
            msg: UpdateMessage::Announce(Route {
                prefix: p(prefix),
                as_path: path(asns),
                communities: Default::default(),
            }),
        }
    }

    fn withdraw(at_s: u64, sess: u32, prefix: &str) -> UpdateRecord {
        UpdateRecord {
            at: SimTime::from_secs(at_s),
            session: SessionId(sess),
            msg: UpdateMessage::Withdraw(p(prefix)),
        }
    }

    #[test]
    fn fingerprint_is_the_fnv_of_the_mrt_encoding() {
        let log = UpdateLog {
            records: vec![
                announce(0, 0, "10.0.0.0/8", &[1, 2]),
                withdraw(30, 1, "10.0.0.0/8"),
            ],
        };
        let mut bytes = Vec::new();
        crate::mrt::write_log(&log, &mut bytes).unwrap();
        assert_eq!(log.fingerprint(), crate::feed::fnv64(&bytes));
        let short = UpdateLog {
            records: log.records[..1].to_vec(),
        };
        assert_ne!(short.fingerprint(), log.fingerprint());
    }

    #[test]
    fn cleaning_removes_duplicates_keeps_changes() {
        let log = UpdateLog {
            records: vec![
                announce(0, 0, "10.0.0.0/8", &[1, 2]),
                announce(10, 0, "10.0.0.0/8", &[1, 2]), // duplicate (reset)
                announce(20, 0, "10.0.0.0/8", &[1, 3]), // genuine change
                withdraw(30, 0, "10.0.0.0/8"),
                withdraw(31, 0, "10.0.0.0/8"), // duplicate withdraw
                announce(40, 0, "10.0.0.0/8", &[1, 3]), // genuine re-announce
            ],
        };
        let (cleaned, removed, _bursts) =
            clean_session_resets(&log, &CleaningConfig::default());
        assert_eq!(removed, 2);
        assert_eq!(cleaned.len(), 4);
        // Withdraw with no prior announce is also an artifact.
        let log2 = UpdateLog {
            records: vec![withdraw(0, 0, "10.0.0.0/8")],
        };
        let (cleaned2, removed2, _) =
            clean_session_resets(&log2, &CleaningConfig::default());
        assert_eq!(removed2, 1);
        assert!(cleaned2.is_empty());
    }

    #[test]
    fn collector_diffs_and_filters_partial_feeds() {
        // Two peers: peer 10 full feed, peer 20 partial (force kinds by
        // seed search below).
        let config = CollectorConfig {
            frac_full: 0.0, // all partial
            resets_per_session: 0.0,
            ..Default::default()
        };
        let mut coll = Collector::new(&[Asn(10)], &config).unwrap();
        assert_eq!(coll.sessions()[0].kind, FeedKind::Partial);
        let prefix = p("10.0.0.0/8");
        let mut log = UpdateLog::default();
        // Peer has a provider route: invisible on partial feed.
        coll.observe(
            SimTime::from_secs(0),
            &[prefix],
            |_, _| Some((path(&[2, 3]), RouteClass::Provider)),
            &mut log,
        );
        assert!(log.is_empty());
        // Route becomes customer-learned: appears (with peer prepended).
        coll.observe(
            SimTime::from_secs(10),
            &[prefix],
            |_, _| Some((path(&[7, 3]), RouteClass::Customer)),
            &mut log,
        );
        assert_eq!(log.len(), 1);
        match &log.records[0].msg {
            UpdateMessage::Announce(r) => {
                assert_eq!(r.as_path, path(&[10, 7, 3]));
            }
            _ => panic!("expected announce"),
        }
        // Same route again: no duplicate.
        coll.observe(
            SimTime::from_secs(20),
            &[prefix],
            |_, _| Some((path(&[7, 3]), RouteClass::Customer)),
            &mut log,
        );
        assert_eq!(log.len(), 1);
        // Route back to provider class: withdrawal on partial feed.
        coll.observe(
            SimTime::from_secs(30),
            &[prefix],
            |_, _| Some((path(&[2, 3]), RouteClass::Provider)),
            &mut log,
        );
        assert_eq!(log.len(), 2);
        assert!(log.records[1].msg.is_withdraw());
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn observe_interned_rejects_duplicate_prefixes() {
        let config = CollectorConfig {
            resets_per_session: 0.0,
            ..Default::default()
        };
        let mut coll = Collector::new(&[Asn(10)], &config).unwrap();
        let prefix = p("10.0.0.0/8");
        coll.observe_interned(
            SimTime::ZERO,
            &[prefix, prefix],
            &|_, _| None,
            &mut UpdateLog::default(),
        );
    }

    #[test]
    fn full_feed_sees_everything() {
        let config = CollectorConfig {
            frac_full: 1.0,
            resets_per_session: 0.0,
            ..Default::default()
        };
        let mut coll = Collector::new(&[Asn(10)], &config).unwrap();
        assert_eq!(coll.sessions()[0].kind, FeedKind::Full);
        let mut log = UpdateLog::default();
        coll.observe(
            SimTime::from_secs(0),
            &[p("10.0.0.0/8")],
            |_, _| Some((path(&[2, 3]), RouteClass::Provider)),
            &mut log,
        );
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn invalid_config_rejected_with_typed_error() {
        let config = CollectorConfig {
            frac_full: 1.5,
            ..Default::default()
        };
        let err = Collector::new(&[Asn(10)], &config).unwrap_err();
        assert!(matches!(
            err,
            quicksand_net::QuicksandError::InvalidConfig { what: "frac_full", .. }
        ));
        let config = CollectorConfig {
            resets_per_session: -1.0,
            ..Default::default()
        };
        assert!(Collector::new(&[Asn(10)], &config).is_err());
        let config = CollectorConfig {
            resets_per_session: 1.0,
            horizon: SimDuration::ZERO,
            ..Default::default()
        };
        assert!(Collector::new(&[Asn(10)], &config).is_err());
    }

    #[test]
    fn sub_threshold_duplicate_cluster_is_scanned_in_one_pass() {
        // One session with an 80,002-prefix table re-announces 40,000
        // of its prefixes at one instant: one short of half its table,
        // so no burst. Two more duplicates at that instant reach it.
        let prefix = |k: u32| Ipv4Prefix::new(std::net::Ipv4Addr::from(k << 8), 24);
        let announce_at = |at_s: u64, k: u32| UpdateRecord {
            at: SimTime::from_secs(at_s),
            session: SessionId(0),
            msg: UpdateMessage::Announce(Route {
                prefix: prefix(k),
                as_path: path(&[1, 2]),
                communities: Default::default(),
            }),
        };
        let table = 80_002u32;
        let mut log = UpdateLog {
            records: (0..table).map(|k| announce_at(0, k)).collect(),
        };
        log.records.extend((0..40_000).map(|k| announce_at(100, k)));
        let (cleaned, removed, bursts) = clean_session_resets(&log, &CleaningConfig::default());
        assert_eq!((cleaned.len(), removed, bursts), (table as usize, 40_000, 0));
        log.records.extend((40_000..40_002).map(|k| announce_at(100, k)));
        let (cleaned, removed, bursts) = clean_session_resets(&log, &CleaningConfig::default());
        assert_eq!((cleaned.len(), removed, bursts), (table as usize, 40_002, 1));
    }

    #[test]
    #[should_panic(expected = "CleanedLog: read against a log of 1 records, built over one of 2")]
    fn cleaned_view_rejects_another_raw_log() {
        let log = UpdateLog {
            records: vec![
                announce(0, 0, "10.0.0.0/8", &[1, 2]),
                announce(10, 0, "10.0.0.0/8", &[1, 2]),
            ],
        };
        let (cleaned, _, _) = clean_session_resets(&log, &CleaningConfig::default());
        let other = UpdateLog {
            records: log.records[..1].to_vec(),
        };
        let _ = cleaned.to_log(&other);
    }

    #[test]
    fn resets_redump_table_and_cleaning_detects_burst() {
        let config = CollectorConfig {
            frac_full: 1.0,
            resets_per_session: 3.0,
            horizon: SimDuration::from_days(1),
            seed: 42,
        };
        let mut coll = Collector::new(&[Asn(10)], &config).unwrap();
        let prefixes: Vec<Ipv4Prefix> =
            vec![p("10.0.0.0/8"), p("11.0.0.0/8"), p("12.0.0.0/8")];
        let mut log = UpdateLog::default();
        coll.observe(
            SimTime::from_secs(0),
            &prefixes,
            |_, q| Some((path(&[2, q.network_u32() >> 24]), RouteClass::Customer)),
            &mut log,
        );
        let initial = log.len();
        assert_eq!(initial, 3);
        // Observe again at end of horizon: resets in between re-dump.
        coll.observe(
            SimTime::ZERO + SimDuration::from_days(1),
            &prefixes,
            |_, q| Some((path(&[2, q.network_u32() >> 24]), RouteClass::Customer)),
            &mut log,
        );
        assert!(log.len() > initial, "resets should emit duplicates");
        let (cleaned, removed, bursts) =
            clean_session_resets(&log, &CleaningConfig::default());
        assert_eq!(cleaned.len(), 3);
        assert_eq!(removed, log.len() - 3);
        assert!(bursts >= 1);
    }

    #[test]
    fn records_share_the_arena_copy_of_each_path() {
        // Two sessions with the same peer record the same interned path;
        // the resets in between re-dump it.
        let config = CollectorConfig {
            frac_full: 1.0,
            resets_per_session: 3.0,
            horizon: SimDuration::from_days(1),
            seed: 42,
        };
        let mut coll = Collector::new(&[Asn(10), Asn(10)], &config).unwrap();
        let prefixes = [p("10.0.0.0/8"), p("11.0.0.0/8")];
        let exported = |_, _| Some((path(&[2, 3]), RouteClass::Customer));
        let mut log = UpdateLog::default();
        coll.observe(SimTime::ZERO, &prefixes, exported, &mut log);
        assert_eq!(log.len(), 4);
        let end = SimTime::ZERO + SimDuration::from_days(1);
        coll.observe(end, &prefixes, exported, &mut log);
        assert!(log.records.iter().any(|r| r.at != SimTime::ZERO && r.at != end));
        assert_eq!(log.sessions(), vec![SessionId(0), SessionId(1)]);

        assert_eq!(coll.arena().len(), 1);
        let shared = coll.arena().resolve(coll.state[0].entries[0].1);
        assert_eq!(*shared, path(&[10, 2, 3]));
        let shares = |as_path: &AsPath| as_path.asns().as_ptr() == shared.asns().as_ptr();
        for r in &log.records {
            match &r.msg {
                UpdateMessage::Announce(route) => assert!(shares(&route.as_path), "{r:?}"),
                UpdateMessage::Withdraw(_) => panic!("no withdrawal expected: {r:?}"),
            }
        }
        let (cleaned, _, _) = clean_session_resets(&log, &CleaningConfig::default());
        assert_eq!(cleaned.len(), 4);
        assert!(cleaned.records(&log).all(|r| match &r.msg {
            UpdateMessage::Announce(route) => shares(&route.as_path),
            UpdateMessage::Withdraw(_) => false,
        }));
        let state = coll.export_state();
        assert_eq!(state.routes.len(), 4);
        assert!(state.routes.iter().all(|(_, _, as_path)| shares(as_path)));
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn update_record_is_64_bytes() {
        // An `AsPath` is a 16-byte shared-slice pointer (DESIGN.md §25);
        // the 24-byte `Vec` it replaced made a record 72 bytes.
        assert_eq!(std::mem::size_of::<UpdateRecord>(), 64);
    }
}
