//! Property-based invariants of `bgp::metrics` — the Fig-3 statistics
//! the parallel month-replay engine must leave untouched:
//!
//! * a CCDF is monotone non-increasing (and correctly anchored at its
//!   extremes) for any sample set;
//! * the churn-ratio distribution is invariant under session
//!   relabeling — session IDs are collector bookkeeping, not signal;
//! * the one-pass churn ratios (DESIGN.md §28) equal, bit for bit, the
//!   per-(session, prefix) change-map formula they replaced, kept here
//!   as the oracle;
//! * path-change counts are invariant under log *fragment order*: a log
//!   assembled by merging per-session fragments in the canonical
//!   `(time, session)` order is indistinguishable from the serially
//!   appended log, the merge argument of DESIGN.md §10;
//! * the (session, prefix) run kernel behind the statistics
//!   (DESIGN.md §18) agrees with the per-record construction it
//!   replaced: the same change counts for every key and the same
//!   timelines, with and without a prefix restriction.

use proptest::collection::vec;
use proptest::prelude::*;
use quicksand_bgp::metrics::{churn_ratios, path_changes, Ccdf, PathTimeline, SessionPrefixRuns};
use quicksand_bgp::{Route, SessionId, UpdateLog, UpdateMessage, UpdateRecord};
use quicksand_net::{AsPath, Asn, Ipv4Prefix, SimTime};
use std::collections::{BTreeMap, BTreeSet};

fn prefix(i: usize) -> Ipv4Prefix {
    format!("10.{}.0.0/16", i % 8).parse().unwrap()
}

/// Build one update record from a generated tuple: `(seconds, session,
/// prefix index, path seed, announce?)`.
fn record(at_s: u64, sess: u32, pfx: usize, pathseed: u32, announce: bool) -> UpdateRecord {
    let session = SessionId(sess);
    let msg = if announce {
        UpdateMessage::Announce(Route {
            prefix: prefix(pfx),
            as_path: AsPath::from_asns([
                Asn(sess + 1),
                Asn(100 + pathseed % 5),
                Asn(65_000),
            ]),
            communities: Default::default(),
        })
    } else {
        UpdateMessage::Withdraw(prefix(pfx))
    };
    UpdateRecord {
        at: SimTime::from_secs(at_s),
        session,
        msg,
    }
}

/// A timeline's (time, AS set) change points.
type Points = Vec<(SimTime, BTreeSet<Asn>)>;

/// The per-record timeline construction the run kernel replaced, kept
/// as the oracle: one `BTreeSet` per record, appended to its (session,
/// prefix) key's timeline in log order.
fn oracle_timelines(log: &UpdateLog) -> BTreeMap<(SessionId, Ipv4Prefix), Points> {
    let mut out: BTreeMap<(SessionId, Ipv4Prefix), Points> = BTreeMap::new();
    for r in &log.records {
        let set = match &r.msg {
            UpdateMessage::Announce(route) => route.as_path.as_set(),
            UpdateMessage::Withdraw(_) => BTreeSet::new(),
        };
        out.entry((r.session, r.msg.prefix()))
            .or_default()
            .push((r.at, set));
    }
    out
}

/// The Fig-3-left formula over a per-(session, prefix) change map,
/// which the one-pass [`churn_ratios`] replaced, kept as the oracle:
/// each session's median over all its keys (clamped to 1), then the
/// session's Tor keys in `(session, prefix)` order, each divided by it.
fn oracle_churn_ratios(
    changes: &BTreeMap<(SessionId, Ipv4Prefix), u32>,
    tor_prefixes: &BTreeSet<Ipv4Prefix>,
) -> Vec<f64> {
    let mut per_session: BTreeMap<SessionId, Vec<u32>> = BTreeMap::new();
    for (&(s, _), &c) in changes {
        per_session.entry(s).or_default().push(c);
    }
    let medians: BTreeMap<SessionId, f64> = per_session
        .into_iter()
        .map(|(s, mut v)| {
            v.sort_unstable();
            let m = if v.len() % 2 == 1 {
                f64::from(v[v.len() / 2])
            } else {
                (f64::from(v[v.len() / 2 - 1]) + f64::from(v[v.len() / 2])) / 2.0
            };
            (s, m.max(1.0))
        })
        .collect();
    changes
        .iter()
        .filter(|((_, p), _)| tor_prefixes.contains(p))
        .map(|(&(s, _), &c)| f64::from(c) / medians[&s])
        .collect()
}

/// A log from generated `(seconds, session, prefix index, path index,
/// kind)` tuples, one record in four a withdrawal, in the collector's
/// append order (stable by time, then session) unless `faulted`, which
/// keeps the generated order, out of time order.
fn differential_log(recs: &[(u64, u32, usize, usize, u8)], faulted: bool) -> UpdateLog {
    let mut records: Vec<UpdateRecord> = recs
        .iter()
        .map(|&(at, sess, pfx, path, kind)| UpdateRecord {
            at: SimTime::from_secs(at),
            session: SessionId(sess),
            msg: if kind == 0 {
                UpdateMessage::Withdraw(prefix(pfx))
            } else {
                UpdateMessage::Announce(Route {
                    prefix: prefix(pfx),
                    as_path: PATHS[path].iter().map(|&a| Asn(a)).collect(),
                    communities: Default::default(),
                })
            },
        })
        .collect();
    if !faulted {
        records.sort_by_key(|r| (r.at, r.session));
    }
    UpdateLog { records }
}

/// Paths the differential generator draws from: empty, single-AS,
/// reorderings, and prepending on either side, so consecutive updates
/// often differ in sequence but not in AS set.
const PATHS: &[&[u32]] = &[
    &[],
    &[7],
    &[1, 2, 3],
    &[3, 2, 1],
    &[1, 1, 2, 3],
    &[1, 2, 3, 3, 3],
    &[1, 2],
    &[1, 4, 3],
    &[7, 7],
];

proptest! {
    /// CCDF invariants: `points()` is strictly increasing in value with
    /// non-increasing survival fractions, `at()` is monotone
    /// non-increasing over arbitrary probes, and the extremes anchor at
    /// 1 (at or below the minimum) and 0 (above the maximum).
    #[test]
    fn ccdf_is_monotone_non_increasing(
        samples in vec(0.0f64..50.0, 0..40),
        probes in vec(-5.0f64..55.0, 2..16),
    ) {
        let ccdf = Ccdf::new(samples);
        let pts = ccdf.points();
        for w in pts.windows(2) {
            prop_assert!(w[0].0 < w[1].0, "points not ascending in value");
            prop_assert!(w[0].1 >= w[1].1, "survival fraction increased");
        }
        let mut probes = probes;
        probes.sort_by(f64::total_cmp);
        for w in probes.windows(2) {
            // Counts over a fixed sample set: exact, no epsilon needed.
            prop_assert!(ccdf.at(w[0]) >= ccdf.at(w[1]), "at() not monotone");
        }
        if let (Some(&(min, _)), Some(max)) = (pts.first(), ccdf.max()) {
            prop_assert_eq!(ccdf.at(min), 1.0);
            prop_assert_eq!(ccdf.at(min - 1.0), 1.0);
            prop_assert_eq!(ccdf.at(max + 1.0), 0.0);
        }
    }

    /// Relabeling sessions (any order-reversing injective map, so even
    /// the runs' session order changes) permutes — never alters — the
    /// churn-ratio population: per-session medians and ratios are
    /// computed within each session's group, which relabeling preserves.
    #[test]
    fn churn_ratio_ccdf_invariant_under_session_relabeling(
        recs in vec((0u64..20, 0u32..5, 0usize..6, 0usize..PATHS.len(), 0u8..4), 1..80),
        offset in 1u32..50,
    ) {
        let log = differential_log(&recs, false);
        let tor: BTreeSet<Ipv4Prefix> = [prefix(0), prefix(1)].into_iter().collect();
        // s ↦ offset + 7·(4 − s): injective on 0..5 and order-reversing.
        let mut relabeled = log.clone();
        for r in &mut relabeled.records {
            r.session = SessionId(offset + 7 * (4 - r.session.0));
        }

        let mut base = churn_ratios(&SessionPrefixRuns::new(&log, None), &tor);
        let mut relab = churn_ratios(&SessionPrefixRuns::new(&relabeled, None), &tor);
        base.sort_by(f64::total_cmp);
        relab.sort_by(f64::total_cmp);
        // Same arithmetic on the same per-session groups ⇒ the sorted
        // ratio multisets (and hence their CCDF) are bit-equal.
        prop_assert_eq!(base.len(), relab.len());
        for (a, b) in base.iter().zip(&relab) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The session-order merge argument, as a property: split a canonically
    /// ordered log into per-session fragments (preserving each
    /// session's subsequence) and k-way-merge them back by
    /// `(time, session)` — the result is the original log, record for
    /// record, so every per-`(session, prefix)` statistic, in
    /// particular `path_changes`, is invariant under fragment order.
    #[test]
    fn path_change_counts_invariant_under_log_fragment_order(
        recs in vec((0u64..500, 0u32..4, 0usize..3, 0u32..3, proptest::bool::ANY), 0..60),
    ) {
        let mut records: Vec<UpdateRecord> = recs
            .iter()
            .map(|&(at, s, p, seed, ann)| record(at, s, p, seed, ann))
            .collect();
        // Canonical collector order: stable-sorted by (time, session),
        // ties preserving append order.
        records.sort_by_key(|r| (r.at, r.session));
        let canonical = UpdateLog { records: records.clone() };

        // Split per session — the unit the collector diffs.
        let mut fragments: BTreeMap<SessionId, Vec<UpdateRecord>> = BTreeMap::new();
        for r in records {
            fragments.entry(r.session).or_default().push(r);
        }
        // K-way merge by (time, session): repeatedly take the fragment
        // whose head record has the least key.
        let mut heads: Vec<(SessionId, usize)> =
            fragments.keys().map(|&s| (s, 0)).collect();
        let mut merged: Vec<UpdateRecord> = Vec::new();
        loop {
            let next = heads
                .iter()
                .enumerate()
                .filter(|(_, &(s, i))| i < fragments[&s].len())
                .min_by_key(|(_, &(s, i))| (fragments[&s][i].at, s));
            let Some((slot, &(s, i))) = next else { break };
            merged.push(fragments[&s][i].clone());
            heads[slot] = (s, i + 1);
        }

        let merged = UpdateLog { records: merged };
        prop_assert_eq!(&merged, &canonical, "merge is not the canonical order");
        prop_assert_eq!(path_changes(&merged), path_changes(&canonical));
    }
}

proptest! {
    // Each case is a whole log: cheap enough to run many.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The run kernel against the per-record oracle on logs with
    /// interleaved sessions, withdrawals, empty paths, prepending and
    /// several records for one key at one instant (times drawn from a
    /// narrow range): `path_changes` equals the oracle's count of
    /// consecutive differing sets for every key, and the runs rebuild
    /// the oracle's timelines, in full and restricted to a random
    /// prefix subset.
    #[test]
    fn run_kernel_matches_per_record_oracle(
        recs in vec((0u64..20, 0u32..4, 0usize..5, 0usize..PATHS.len(), 0u8..4), 0..120),
        keep in vec(0usize..5, 0..4),
    ) {
        let log = differential_log(&recs, false);
        let oracle = oracle_timelines(&log);

        let want: BTreeMap<(SessionId, Ipv4Prefix), u32> = oracle
            .iter()
            .map(|(&k, pts)| (k, pts.windows(2).filter(|w| w[0].1 != w[1].1).count() as u32))
            .collect();
        prop_assert_eq!(path_changes(&log), want);

        let only: BTreeSet<Ipv4Prefix> = keep.iter().map(|&i| prefix(i)).collect();
        for restriction in [None, Some(&only)] {
            // As vectors: runs must come in key order, one per key.
            let got: Vec<_> = SessionPrefixRuns::new(&log, restriction)
                .iter()
                .map(|(key, run)| (key, PathTimeline::from_run(run).points))
                .collect();
            let want: Vec<_> = oracle
                .iter()
                .filter(|((_, p), _)| restriction.map_or(true, |o| o.contains(p)))
                .map(|(&key, points)| (key, points.clone()))
                .collect();
            prop_assert_eq!(got, want);
        }
    }

    /// The one-pass churn ratios against the change-map oracle, bit for
    /// bit and in order, on logs in append order and out of time order
    /// (a faulted feed), with zero-median sessions (short logs leave
    /// most keys a single record, so most counts are 0), and against a
    /// random Tor subset, possibly empty or reaching past the logged
    /// prefixes.
    #[test]
    fn one_pass_churn_ratios_match_change_map_oracle(
        recs in vec((0u64..20, 0u32..4, 0usize..5, 0usize..PATHS.len(), 0u8..4), 0..120),
        faulted in proptest::bool::ANY,
        tor in vec(0usize..8, 0..6),
    ) {
        let log = differential_log(&recs, faulted);
        let tor: BTreeSet<Ipv4Prefix> = tor.iter().map(|&i| prefix(i)).collect();
        let got = churn_ratios(&SessionPrefixRuns::new(&log, None), &tor);
        let want = oracle_churn_ratios(&path_changes(&log), &tor);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got), bits(&want));
    }
}
