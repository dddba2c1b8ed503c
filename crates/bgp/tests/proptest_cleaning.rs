//! Property-based checks of the Zhang-et-al. cleaning pass against the
//! fault injector: cleaning is idempotent, removes *exactly* the
//! injected session-reset artifacts (duplicate deliveries and flap
//! re-dump bursts), and never touches a log that is already clean. A
//! differential check compares it with a map-based oracle on random
//! logs, and checks the cleaned view (DESIGN.md §29) against the
//! grouping of the log it stands for: the same runs, the same
//! Tor-restricted runs, and no record cloned.
//!
//! Session ids come from a pool that holds ids at and past 2^24 and
//! `u32::MAX`, pairs of ids that agree in their low 24 bits, and gives
//! such a pair the same paths, so a grouping key that dropped session
//! bits would merge their runs.

use proptest::prelude::*;
use quicksand_bgp::fault::{FaultInjector, FaultProfile};
use quicksand_bgp::metrics::SessionPrefixRuns;
use quicksand_bgp::{
    clean_session_resets, CleanedLog, CleaningConfig, Route, SessionId, UpdateLog,
    UpdateMessage, UpdateRecord,
};
use quicksand_net::{Asn, AsPath, Ipv4Prefix, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

const PREFIXES: [&str; 3] = ["10.0.0.0/8", "172.16.0.0/12", "192.168.0.0/16"];

/// The session ids the generators draw from.
const SESSIONS: [u32; 6] = [0, 1, 0xFF_FFFF, 1 << 24, (1 << 24) + 1, u32::MAX];

fn session(ix: u32) -> SessionId {
    SessionId(SESSIONS[ix as usize % SESSIONS.len()])
}

/// A session's path through `hop`. Sessions that agree in their low 16
/// bits get the same paths.
fn path_of(session: SessionId, hop: u32) -> AsPath {
    [Asn((session.0 & 0xFFFF) + 1), Asn(10 + hop), Asn(99)]
        .into_iter()
        .collect()
}

/// Build a log with NO cleaning artifacts from a raw op list: the state
/// machine skips ops that would create a duplicate announce or a no-op
/// withdraw, so `clean_session_resets` must return it unchanged.
fn clean_log(ops: &[(u32, usize, u8, u32)]) -> UpdateLog {
    let mut last: BTreeMap<(SessionId, Ipv4Prefix), Option<AsPath>> = BTreeMap::new();
    let mut records = Vec::new();
    for (i, &(sess, pfx_ix, kind, pathseed)) in ops.iter().enumerate() {
        let session = session(sess);
        let prefix: Ipv4Prefix = PREFIXES[pfx_ix % PREFIXES.len()].parse().unwrap();
        // Records arrive in pairs at one instant.
        let at = SimTime::from_secs(30 * (i as u64 / 2 + 1));
        let key = (session, prefix);
        let state = last.entry(key).or_insert(None);
        if kind % 3 == 0 {
            // Withdraw: only meaningful after an announce.
            if state.is_none() {
                continue;
            }
            *state = None;
            records.push(UpdateRecord {
                at,
                session,
                msg: UpdateMessage::Withdraw(prefix),
            });
        } else {
            let path = path_of(session, pathseed % 8);
            if state.as_ref() == Some(&path) {
                continue; // would be a duplicate announce
            }
            *state = Some(path.clone());
            records.push(UpdateRecord {
                at,
                session,
                msg: UpdateMessage::Announce(Route {
                    prefix,
                    as_path: path,
                    communities: Default::default(),
                }),
            });
        }
    }
    // Collector append order: by instant, then session, a session's
    // records at one instant in the order they were generated.
    records.sort_by_key(|r| (r.at, r.session));
    UpdateLog { records }
}

/// The map-based cleaning pass that the run-kernel one replaced, kept
/// as its oracle: one walk over the log in log order, with the last
/// path per (session, prefix) in a map and the table size per session
/// as the set of prefixes seen.
fn reference_clean(log: &UpdateLog, config: &CleaningConfig) -> (UpdateLog, usize, usize) {
    let mut last_path: BTreeMap<(SessionId, Ipv4Prefix), Option<AsPath>> = BTreeMap::new();
    let mut cleaned = UpdateLog::default();
    let mut removed = 0usize;
    let mut dup_times: BTreeMap<SessionId, Vec<SimTime>> = BTreeMap::new();
    let mut table: BTreeMap<SessionId, BTreeSet<Ipv4Prefix>> = BTreeMap::new();
    for r in &log.records {
        let key = (r.session, r.msg.prefix());
        table.entry(r.session).or_default().insert(r.msg.prefix());
        match &r.msg {
            UpdateMessage::Announce(route) => {
                if matches!(last_path.get(&key), Some(Some(prev)) if *prev == route.as_path) {
                    removed += 1;
                    dup_times.entry(r.session).or_default().push(r.at);
                    continue;
                }
                last_path.insert(key, Some(route.as_path.clone()));
            }
            UpdateMessage::Withdraw(_) => {
                let prev = last_path.get(&key);
                if prev == Some(&None) || prev.is_none() {
                    removed += 1;
                    continue;
                }
                last_path.insert(key, None);
            }
        }
        cleaned.records.push(r.clone());
    }
    let mut bursts = 0usize;
    for (session, mut times) in dup_times {
        times.sort();
        let table_size = table.get(&session).map_or(0, |t| t.len());
        let threshold = ((table_size as f64) * config.table_fraction)
            .ceil()
            .max(1.0) as usize;
        let mut i = 0usize;
        while i < times.len() {
            let mut j = i;
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
    }
    (cleaned, removed, bursts)
}

/// One op of a random raw log: `(session, prefix, kind, path, time)`.
/// Kind 0 withdraws, kind 1 announces, kind 2 re-announces the
/// session's whole current table at one instant (a reset burst). Paths
/// come from a pool of three, so duplicates are common; times are
/// drawn independently from a short span, so the log is out of time
/// order and holds same-instant records.
type RawOp = (u32, usize, u8, u32, u64);

fn raw_log(ops: &[RawOp]) -> UpdateLog {
    let mut table: BTreeMap<(SessionId, Ipv4Prefix), AsPath> = BTreeMap::new();
    let mut records = Vec::new();
    for &(sess, pfx_ix, kind, pathseed, at_s) in ops {
        let session = session(sess);
        let prefix: Ipv4Prefix = PREFIXES[pfx_ix].parse().unwrap();
        let at = SimTime::from_secs(at_s);
        match kind {
            0 => {
                table.remove(&(session, prefix));
                records.push(UpdateRecord {
                    at,
                    session,
                    msg: UpdateMessage::Withdraw(prefix),
                });
            }
            1 => {
                let as_path = path_of(session, pathseed);
                table.insert((session, prefix), as_path.clone());
                records.push(UpdateRecord {
                    at,
                    session,
                    msg: UpdateMessage::Announce(Route {
                        prefix,
                        as_path,
                        communities: Default::default(),
                    }),
                });
            }
            _ => {
                for (&(_, prefix), as_path) in table.iter().filter(|((s, _), _)| *s == session) {
                    records.push(UpdateRecord {
                        at,
                        session,
                        msg: UpdateMessage::Announce(Route {
                            prefix,
                            as_path: as_path.clone(),
                            communities: Default::default(),
                        }),
                    });
                }
            }
        }
    }
    UpdateLog { records }
}

fn raw_ops_strategy() -> impl Strategy<Value = Vec<RawOp>> {
    proptest::collection::vec(
        (0u32..6, 0usize..PREFIXES.len(), 0u8..3, 0u32..3, 0u64..120),
        0..80,
    )
}

fn ops_strategy() -> impl Strategy<Value = Vec<(u32, usize, u8, u32)>> {
    proptest::collection::vec((0u32..6, 0usize..3, 0u8..3, 0u32..8), 5..60)
}

/// A random prefix restriction: a subset of the prefixes, possibly
/// empty or all of them.
fn only_strategy() -> impl Strategy<Value = BTreeSet<Ipv4Prefix>> {
    proptest::collection::btree_set(0usize..PREFIXES.len(), 0..=PREFIXES.len())
        .prop_map(|ix| ix.iter().map(|&i| PREFIXES[i].parse().unwrap()).collect())
}

/// Each run's key and records, in run order.
type RunList<'a> = Vec<((SessionId, Ipv4Prefix), Vec<&'a UpdateRecord>)>;

fn run_list<'a>(runs: impl Iterator<Item = ((SessionId, Ipv4Prefix), quicksand_bgp::metrics::Run<'a>)>) -> RunList<'a> {
    runs.map(|(key, run)| (key, run.records().collect())).collect()
}

/// The view against the log it stands for, `cleaned.to_log(raw)`: its
/// runs are that log's grouping run for run, its Tor-restricted walk is
/// the restricted grouping, and its records are that log in log order.
fn check_view(
    raw: &UpdateLog,
    cleaned: &CleanedLog,
    only: &BTreeSet<Ipv4Prefix>,
) {
    let log = cleaned.to_log(raw);
    prop_assert_eq!(cleaned.len(), log.len());
    prop_assert!(cleaned.records(raw).eq(log.records.iter()));
    let view = cleaned.runs(raw);
    prop_assert_eq!(
        run_list(view.iter()),
        run_list(SessionPrefixRuns::new(&log, None).iter())
    );
    prop_assert_eq!(
        run_list(view.iter_only(only)),
        run_list(SessionPrefixRuns::new(&log, Some(only)).iter())
    );
}

/// How many values share each record's path allocation.
fn share_counts(log: &UpdateLog) -> Vec<usize> {
    log.records
        .iter()
        .filter_map(|r| match &r.msg {
            UpdateMessage::Announce(route) => Some(route.as_path.share_count()),
            UpdateMessage::Withdraw(_) => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A log with no artifacts passes through cleaning untouched.
    #[test]
    fn clean_log_is_a_fixed_point(ops in ops_strategy()) {
        let base = clean_log(&ops);
        let (cleaned, removed, bursts) =
            clean_session_resets(&base, &CleaningConfig::default());
        prop_assert_eq!(removed, 0);
        prop_assert_eq!(bursts, 0);
        prop_assert_eq!(cleaned.to_log(&base).records, base.records);
    }

    /// Cleaning is idempotent even on logs degraded with the full fault
    /// mix: a second pass changes nothing.
    #[test]
    fn cleaning_is_idempotent(ops in ops_strategy(), seed in 0u64..1000, intensity in 0.0f64..1.0) {
        let base = clean_log(&ops);
        let profile = FaultProfile::with_intensity(intensity, seed);
        let (faulted, _) = FaultInjector::new(profile).unwrap().apply(&base);
        let (once, _, _) = clean_session_resets(&faulted, &CleaningConfig::default());
        let once = once.to_log(&faulted);
        let (twice, removed_again, _) =
            clean_session_resets(&once, &CleaningConfig::default());
        prop_assert_eq!(removed_again, 0);
        prop_assert_eq!(twice.to_log(&once).records, once.records);
    }

    /// Duplicate deliveries are removed *exactly*: cleaning a
    /// dup-faulted log recovers the original records, and the removal
    /// count matches the injector's report.
    #[test]
    fn duplicates_removed_exactly(ops in ops_strategy(), seed in 0u64..1000, rate in 0.05f64..0.5) {
        let base = clean_log(&ops);
        let mut profile = FaultProfile::clean(seed);
        profile.dup_rate = rate;
        let (faulted, report) = FaultInjector::new(profile).unwrap().apply(&base);
        let (cleaned, removed, _) =
            clean_session_resets(&faulted, &CleaningConfig::default());
        prop_assert_eq!(removed, report.duplicated);
        prop_assert_eq!(cleaned.to_log(&faulted).records, base.records);
    }

    /// Session flaps with an instantaneous outage are pure resets: the
    /// re-dump burst is removed exactly and the original log recovered.
    #[test]
    fn flap_redump_bursts_removed_exactly(ops in ops_strategy(), seed in 0u64..1000, flaps in 0.5f64..3.0) {
        let base = clean_log(&ops);
        let mut profile = FaultProfile::clean(seed);
        profile.flaps_per_session = flaps;
        profile.flap_outage = SimDuration::ZERO;
        let (faulted, report) = FaultInjector::new(profile).unwrap().apply(&base);
        prop_assert_eq!(report.outage_dropped, 0);
        let (cleaned, removed, _) =
            clean_session_resets(&faulted, &CleaningConfig::default());
        prop_assert_eq!(removed, report.redump_records);
        prop_assert_eq!(cleaned.to_log(&faulted).records, base.records);
    }

    /// The run-kernel cleaning agrees with the map-based oracle on raw
    /// logs with several sessions, out-of-order and same-instant
    /// timestamps, runs that open with a withdraw, repeated withdraws
    /// and reset bursts, under random burst settings: same cleaned
    /// records in the same order, same removal and burst counts. The
    /// view's runs are the cleaned log's grouping, and cleaning shares
    /// every path it keeps instead of cloning a record.
    #[test]
    fn cleaning_matches_map_oracle(
        ops in raw_ops_strategy(),
        window_s in 0u64..300,
        table_fraction in 0.1f64..1.0,
        only in only_strategy(),
    ) {
        let log = raw_log(&ops);
        let config = CleaningConfig {
            burst_window: SimDuration::from_secs(window_s),
            table_fraction,
        };
        let shares = share_counts(&log);
        let (got, got_removed, got_bursts) = clean_session_resets(&log, &config);
        prop_assert_eq!(share_counts(&log), shares);
        let (want, want_removed, want_bursts) = reference_clean(&log, &config);
        prop_assert_eq!(got.to_log(&log).records, want.records);
        prop_assert_eq!(got_removed, want_removed);
        prop_assert_eq!(got_bursts, want_bursts);
        check_view(&log, &got, &only);
    }

    /// The same agreement on artifact-free logs degraded with the full
    /// fault mix (reordering, duplicates, flaps, outages).
    #[test]
    fn cleaning_matches_map_oracle_on_faulted_logs(
        ops in ops_strategy(),
        seed in 0u64..1000,
        intensity in 0.0f64..1.0,
        only in only_strategy(),
    ) {
        let base = clean_log(&ops);
        let profile = FaultProfile::with_intensity(intensity, seed);
        let (faulted, _) = FaultInjector::new(profile).unwrap().apply(&base);
        let config = CleaningConfig::default();
        let shares = share_counts(&faulted);
        let (got, got_removed, got_bursts) = clean_session_resets(&faulted, &config);
        prop_assert_eq!(share_counts(&faulted), shares);
        let (want, want_removed, want_bursts) = reference_clean(&faulted, &config);
        prop_assert_eq!(got.to_log(&faulted).records, want.records);
        prop_assert_eq!(got_removed, want_removed);
        prop_assert_eq!(got_bursts, want_bursts);
        check_view(&faulted, &got, &only);
    }
}
