//! The paper's §4 measurement metrics, computed from update logs.
//!
//! * **Path changes** — "a change in the set of ASes crossed to reach a
//!   BGP prefix (as indicated by the AS-PATH) between two subsequent BGP
//!   UPDATEs" — counted per (session, prefix). Withdrawals count as a
//!   transition to the empty AS set.
//! * **Median-normalized churn ratio** (Fig 3 left) — per session, each
//!   Tor prefix's change count divided by the median change count over
//!   all prefixes received on that session.
//! * **Extra-AS exposure** (Fig 3 right) — per prefix, the number of
//!   ASes beyond the baseline (first) path that were crossed for at
//!   least a minimum cumulative duration (the paper uses 5 minutes,
//!   "as it is anyway unlikely that an attack can be performed on such
//!   a short timescale").
//!
//! All three reduce over one grouping of the log, [`SessionPrefixRuns`]:
//! one time-ordered run of records per (session, prefix), optionally
//! restricted to a prefix set before any per-record work (DESIGN.md §18).
//! A cleaned month log carries the grouping its cleaning computed, so
//! its statistics group nothing again (DESIGN.md §29).

use crate::collector::{SessionId, UpdateLog, UpdateRecord};
use crate::msg::UpdateMessage;
use quicksand_net::{Asn, Ipv4Prefix, SimDuration, SimTime};
use quicksand_obs as obs;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// The one grouping step behind every per-(session, prefix) statistic
/// and behind reset cleaning: the log's records regrouped into one run
/// per (session, prefix), runs in `(session, prefix)` order, each run
/// in log order, carried as 4-byte log indices.
///
/// The collector appends records in `(at, session)` order, so log order
/// within a (session, prefix) is time order, and grouping by
/// `(session, prefix)` with ties in log order turns every group into
/// one time-ordered run (DESIGN.md §18). On a log whose records are out
/// of time order (a faulted feed) a run is still in log order, which is
/// the order [`crate::clean_session_resets`] walks (DESIGN.md §19). An
/// optional prefix restriction is applied before the grouping, so
/// statistics over a handful of prefixes (the Tor ones) never touch the
/// rest of the log beyond one membership test per record.
///
/// The grouping is either computed here ([`SessionPrefixRuns::new`]) or
/// borrowed from a [`crate::CleanedLog`], which keeps the one its
/// cleaning pass computed (DESIGN.md §29).
pub struct SessionPrefixRuns<'a> {
    records: &'a [UpdateRecord],
    /// Log indices, grouped into runs.
    order: Cow<'a, [u32]>,
}

/// One run of [`SessionPrefixRuns`]: the log indices of one (session,
/// prefix)'s records, ascending, with the log they index.
#[derive(Clone, Copy)]
pub struct Run<'a> {
    records: &'a [UpdateRecord],
    indices: &'a [u32],
}

impl<'a> Run<'a> {
    /// The run's positions in the log, ascending.
    pub fn indices(&self) -> &'a [u32] {
        self.indices
    }

    /// The run's records, in log order.
    pub fn records(&self) -> impl Iterator<Item = &'a UpdateRecord> + 'a {
        let records = self.records;
        self.indices.iter().map(move |&i| &records[i as usize])
    }
}

fn run_key(r: &UpdateRecord) -> (SessionId, Ipv4Prefix) {
    (r.session, r.msg.prefix())
}

/// Record `i`'s grouping key packed into one integer: session, prefix
/// address, prefix length and log index, high bits to low. Each field
/// has bits of its own, so the key is injective for every log a u32
/// index can address, and the integer order is the order of
/// `(session, prefix, log index)`: ascending keys are the runs, each in
/// log order (DESIGN.md §29).
fn packed_key(r: &UpdateRecord, i: u32) -> u128 {
    let prefix = r.msg.prefix();
    (u128::from(r.session.0) << 96)
        | (u128::from(prefix.network_u32()) << 64)
        | (u128::from(prefix.len()) << 32)
        | u128::from(i)
}

impl<'a> SessionPrefixRuns<'a> {
    /// Group `log`, keeping only records whose prefix is in `only`
    /// (every record when `None`).
    ///
    /// # Panics
    ///
    /// When the log holds more than `u32::MAX` records, which a 4-byte
    /// log index cannot address.
    pub fn new(log: &'a UpdateLog, only: Option<&BTreeSet<Ipv4Prefix>>) -> Self {
        let records = log.records.as_slice();
        let Ok(n) = u32::try_from(records.len()) else {
            panic!(
                "SessionPrefixRuns: a log of {} records exceeds the u32 run index",
                records.len()
            );
        };
        let mut keys: Vec<u128> = match only {
            None => records.iter().zip(0..n).map(|(r, i)| packed_key(r, i)).collect(),
            Some(keep) => records
                .iter()
                .zip(0..n)
                .filter(|(r, _)| keep.contains(&r.msg.prefix()))
                .map(|(r, i)| packed_key(r, i))
                .collect(),
        };
        // The keys are distinct, so any sort gives the one order there
        // is. The stable sort is adaptive: each table dump in the log
        // is already one ascending run of keys per session, so it
        // mostly merges, in half the time of the unstable sort.
        keys.sort();
        let order = keys.iter().map(|&k| k as u32).collect();
        SessionPrefixRuns {
            records,
            order: Cow::Owned(order),
        }
    }

    /// A grouping computed earlier over `records`: `order` must hold
    /// log indices as [`SessionPrefixRuns::new`] orders them.
    pub(crate) fn grouped(records: &'a [UpdateRecord], order: &'a [u32]) -> Self {
        SessionPrefixRuns {
            records,
            order: Cow::Borrowed(order),
        }
    }

    /// The grouped log indices, run after run.
    pub(crate) fn into_indices(self) -> Vec<u32> {
        self.order.into_owned()
    }

    /// The runs in `(session, prefix)` order, each with its key and its
    /// records in log order. Runs are never empty.
    pub fn iter(&self) -> impl Iterator<Item = ((SessionId, Ipv4Prefix), Run<'_>)> + '_ {
        let records = self.records;
        let mut rest: &[u32] = &self.order;
        std::iter::from_fn(move || {
            let (&first, tail) = rest.split_first()?;
            let key = run_key(&records[first as usize]);
            let len = 1 + tail
                .iter()
                .take_while(|&&i| run_key(&records[i as usize]) == key)
                .count();
            let (indices, tail) = rest.split_at(len);
            rest = tail;
            Some((key, Run { records, indices }))
        })
    }

    /// The sessions in ascending order, each with the grouping of its
    /// own runs. A session's extent is found by galloping over the
    /// grouping, so this reads O(log n) records per session.
    pub fn sessions(&self) -> impl Iterator<Item = (SessionId, SessionPrefixRuns<'_>)> + '_ {
        let records = self.records;
        session_ranges(records, &self.order).map(move |(session, order)| {
            (session, SessionPrefixRuns::grouped(records, order))
        })
    }

    /// The runs whose prefix is in `only`, exactly as
    /// [`SessionPrefixRuns::new`] with `Some(only)` would group them.
    /// Each session's ascending prefixes are merged with the sorted set
    /// by galloping, so a handful of prefixes costs a handful of
    /// binary searches per session, not a read of every run.
    pub fn iter_only<'s>(
        &'s self,
        only: &'s BTreeSet<Ipv4Prefix>,
    ) -> impl Iterator<Item = ((SessionId, Ipv4Prefix), Run<'s>)> + 's {
        let records = self.records;
        session_ranges(records, &self.order).flat_map(move |(session, mut rest)| {
            only.iter().filter_map(move |&prefix| {
                rest = &rest[leading(records, rest, |r| r.msg.prefix() < prefix)..];
                let len = leading(records, rest, |r| r.msg.prefix() == prefix);
                let (indices, tail) = rest.split_at(len);
                rest = tail;
                (len > 0).then_some(((session, prefix), Run { records, indices }))
            })
        })
    }
}

/// Split grouped log indices into their sessions' extents, ascending.
fn session_ranges<'s>(
    records: &'s [UpdateRecord],
    order: &'s [u32],
) -> impl Iterator<Item = (SessionId, &'s [u32])> + 's {
    let mut rest = order;
    std::iter::from_fn(move || {
        let session = records[*rest.first()? as usize].session;
        let (extent, tail) = rest.split_at(leading(records, rest, |r| r.session == session));
        rest = tail;
        Some((session, extent))
    })
}

/// How many of `order`'s records, from the front, satisfy `holds`,
/// which must hold for a prefix of them and for none after it. An
/// exponential probe brackets the answer and a binary search finds it,
/// so an answer of k reads O(log k) records.
fn leading(
    records: &[UpdateRecord],
    order: &[u32],
    holds: impl Fn(&UpdateRecord) -> bool,
) -> usize {
    let holds = |&i: &u32| holds(&records[i as usize]);
    let mut end = 1;
    while end <= order.len() && holds(&order[end - 1]) {
        end *= 2;
    }
    let start = end / 2;
    start + order[start..end.min(order.len())].partition_point(holds)
}

/// Number of path changes in one run: consecutive records whose AS sets
/// differ, a withdrawal counting as the empty set. Allocation-free.
fn run_path_changes(run: Run<'_>) -> u32 {
    run.records()
        .zip(run.records().skip(1))
        .filter(|(a, b)| !same_path_set(&a.msg, &b.msg))
        .count() as u32
}

/// Do two updates leave the same set of ASes on the path?
fn same_path_set(a: &UpdateMessage, b: &UpdateMessage) -> bool {
    match (a, b) {
        (UpdateMessage::Announce(x), UpdateMessage::Announce(y)) => {
            x.as_path.same_as_set(&y.as_path)
        }
        (UpdateMessage::Withdraw(_), UpdateMessage::Withdraw(_)) => true,
        (UpdateMessage::Announce(x), UpdateMessage::Withdraw(_))
        | (UpdateMessage::Withdraw(_), UpdateMessage::Announce(x)) => x.as_path.is_empty(),
    }
}

/// A per-(session, prefix) timeline of selected paths, as (start time,
/// AS set on path) intervals; `None`-path periods are represented by an
/// empty set. The final interval is closed by the horizon end.
#[derive(Clone, Debug, Default)]
pub struct PathTimeline {
    /// Chronological (time, AS set) change points.
    pub points: Vec<(SimTime, BTreeSet<Asn>)>,
}

impl PathTimeline {
    /// The timeline of one (session, prefix) run (see
    /// [`SessionPrefixRuns`]), one point per record.
    pub fn from_run(run: Run<'_>) -> PathTimeline {
        let points = run
            .records()
            .map(|r| {
                let set = match &r.msg {
                    UpdateMessage::Announce(route) => route.as_path.as_set(),
                    UpdateMessage::Withdraw(_) => BTreeSet::new(),
                };
                (r.at, set)
            })
            .collect();
        PathTimeline { points }
    }

    /// Number of path changes: transitions between *different* AS sets
    /// across subsequent updates (the first update is not a change).
    pub fn path_changes(&self) -> u32 {
        self.points
            .windows(2)
            .filter(|w| w[0].1 != w[1].1)
            .count() as u32
    }

    /// The baseline AS set: the first non-empty path observed.
    pub fn baseline(&self) -> BTreeSet<Asn> {
        self.points
            .iter()
            .find(|(_, s)| !s.is_empty())
            .map(|(_, s)| s.clone())
            .unwrap_or_default()
    }

    /// Cumulative on-path duration per AS, closing the final interval at
    /// `horizon_end` and *clipping* every interval to it — so passing an
    /// earlier horizon computes the exposure "as of" that time (used for
    /// day-by-day growth curves).
    pub fn as_durations(&self, horizon_end: SimTime) -> BTreeMap<Asn, SimDuration> {
        let mut out: BTreeMap<Asn, SimDuration> = BTreeMap::new();
        for (i, (start, set)) in self.points.iter().enumerate() {
            let end = self
                .points
                .get(i + 1)
                .map(|(t, _)| *t)
                .unwrap_or(horizon_end)
                .min(horizon_end);
            let dur = end.since((*start).min(horizon_end));
            for &a in set {
                let e = out.entry(a).or_insert(SimDuration::ZERO);
                *e = *e + dur;
            }
        }
        out
    }

    /// The paper's Fig-3-right quantity: ASes not on the baseline path
    /// that were crossed for at least `min_duration` in total.
    pub fn extra_ases(&self, horizon_end: SimTime, min_duration: SimDuration) -> BTreeSet<Asn> {
        let baseline = self.baseline();
        self.as_durations(horizon_end)
            .into_iter()
            .filter(|(a, d)| !baseline.contains(a) && *d >= min_duration)
            .map(|(a, _)| a)
            .collect()
    }

    /// All distinct ASes crossed for at least `min_duration` (baseline
    /// included) — the `x` in the paper's `1 − (1 − f)^x` model.
    pub fn distinct_ases(
        &self,
        horizon_end: SimTime,
        min_duration: SimDuration,
    ) -> BTreeSet<Asn> {
        self.as_durations(horizon_end)
            .into_iter()
            .filter(|(_, d)| *d >= min_duration)
            .map(|(a, _)| a)
            .collect()
    }
}

/// Per-(session, prefix) path-change counts for the whole log.
pub fn path_changes(log: &UpdateLog) -> BTreeMap<(SessionId, Ipv4Prefix), u32> {
    SessionPrefixRuns::new(log, None)
        .iter()
        .map(|(key, run)| (key, run_path_changes(run)))
        .collect()
}

/// The Fig-3-left ratios: for each (session, Tor prefix) pair, the
/// prefix's change count divided by the session's median change count
/// over *all* prefixes received on that session, in `(session, prefix)`
/// order.
///
/// One pass over `runs`, a grouping of the whole log
/// (`SessionPrefixRuns::new(&log, None)`, or a cleaned log's own
/// [`crate::CleanedLog::runs`]): they arrive session by session, so one
/// session's counts are held at a time and no per-(session, prefix) map
/// is built (DESIGN.md §28).
///
/// Sessions whose median is zero use a median of 1 (the ratio is then
/// the raw change count); the paper's feeds always had nonzero medians,
/// ours may not at small scale.
pub fn churn_ratios(runs: &SessionPrefixRuns<'_>, tor_prefixes: &BTreeSet<Ipv4Prefix>) -> Vec<f64> {
    let mut ratios = Vec::new();
    // The current session's change counts: every prefix, and the Tor
    // prefixes in prefix order.
    let mut counts: Vec<u32> = Vec::new();
    let mut tor_counts: Vec<u32> = Vec::new();
    for (_, session) in runs.sessions() {
        // The session's prefixes ascend, so a merge with the sorted Tor
        // set finds its Tor runs.
        let mut tor = tor_prefixes.iter().peekable();
        for ((_, prefix), run) in session.iter() {
            let c = run_path_changes(run);
            counts.push(c);
            while tor.next_if(|&&q| q < prefix).is_some() {}
            if tor.next_if_eq(&&prefix).is_some() {
                tor_counts.push(c);
            }
        }
        let m = median(&mut counts).max(1.0);
        ratios.extend(tor_counts.drain(..).map(|c| f64::from(c) / m));
        counts.clear();
    }
    ratios
}

/// The median of a non-empty sample, averaging the two middle values of
/// an even-sized one. Reorders `v`.
fn median(v: &mut [u32]) -> f64 {
    let len = v.len();
    let (low, &mut upper, _) = v.select_nth_unstable(len / 2);
    if len % 2 == 1 {
        f64::from(upper)
    } else {
        let lower = *low
            .iter()
            .max()
            .expect("an even-sized sample has a lower half");
        (f64::from(lower) + f64::from(upper)) / 2.0
    }
}

/// The Fig-3-right quantity per prefix: the union over sessions of
/// extra ASes (≥ `min_duration`) for each prefix in `prefixes`.
pub fn extra_ases_per_prefix(
    log: &UpdateLog,
    prefixes: &BTreeSet<Ipv4Prefix>,
    horizon_end: SimTime,
    min_duration: SimDuration,
) -> BTreeMap<Ipv4Prefix, BTreeSet<Asn>> {
    let mut out: BTreeMap<Ipv4Prefix, BTreeSet<Asn>> = BTreeMap::new();
    for ((_, p), run) in SessionPrefixRuns::new(log, Some(prefixes)).iter() {
        out.entry(p)
            .or_default()
            .extend(PathTimeline::from_run(run).extra_ases(horizon_end, min_duration));
    }
    // Prefixes never seen still get an entry (empty set).
    for &p in prefixes {
        out.entry(p).or_default();
    }
    out
}

/// Health of one collector session's feed over a measurement window,
/// from the gaps between consecutive records.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionHealth {
    /// The session.
    pub session: SessionId,
    /// Number of records on the session.
    pub updates: usize,
    /// The longest silent gap (including from window start to the first
    /// record and from the last record to window end).
    pub longest_gap: SimDuration,
    /// Fraction of the window covered by inter-record gaps no longer
    /// than `stale_after` — 1.0 for a continuously chatty feed, toward
    /// 0.0 as outages dominate.
    pub coverage: f64,
}

/// Per-session feed health over `[window_start, window_end]`: how
/// continuously each session actually reported, judged against the
/// staleness bound `stale_after`. Degraded-feed runs use this to
/// report which sessions went dark and for how long.
///
/// Thin compatibility wrapper over [`publish_session_health`], which
/// additionally exports each session's stats through the
/// `quicksand-obs` metrics registry.
pub fn session_health(
    log: &UpdateLog,
    window_start: SimTime,
    window_end: SimTime,
    stale_after: SimDuration,
) -> Vec<SessionHealth> {
    publish_session_health(log, window_start, window_end, stale_after)
}

/// Compute per-session feed health (see [`session_health`]) and export
/// every session's stats as `(collector, session)`-keyed gauges in the
/// current `quicksand-obs` registry: `feed_coverage`,
/// `feed_longest_gap_s`, and `feed_updates`.
pub fn publish_session_health(
    log: &UpdateLog,
    window_start: SimTime,
    window_end: SimTime,
    stale_after: SimDuration,
) -> Vec<SessionHealth> {
    let health = compute_session_health(log, window_start, window_end, stale_after);
    for h in &health {
        obs::gauge_session("collector", "feed_coverage", h.session.0, h.coverage);
        obs::gauge_session(
            "collector",
            "feed_longest_gap_s",
            h.session.0,
            h.longest_gap.as_secs_f64(),
        );
        obs::gauge_session("collector", "feed_updates", h.session.0, h.updates as f64);
    }
    health
}

fn compute_session_health(
    log: &UpdateLog,
    window_start: SimTime,
    window_end: SimTime,
    stale_after: SimDuration,
) -> Vec<SessionHealth> {
    let span = window_end.since(window_start);
    let mut times: BTreeMap<SessionId, Vec<SimTime>> = BTreeMap::new();
    for r in &log.records {
        times.entry(r.session).or_default().push(r.at);
    }
    times
        .into_iter()
        .map(|(session, mut ts)| {
            ts.sort();
            let mut longest = SimDuration::ZERO;
            let mut silent = SimDuration::ZERO;
            let mut prev = window_start;
            for &t in ts.iter().chain(std::iter::once(&window_end)) {
                let t = t.min(window_end).max(window_start);
                let gap = t.since(prev);
                longest = longest.max(gap);
                if gap > stale_after {
                    silent = silent + gap;
                }
                prev = prev.max(t);
            }
            let coverage = if span == SimDuration::ZERO {
                1.0
            } else {
                1.0 - silent.as_secs_f64() / span.as_secs_f64()
            };
            SessionHealth {
                session,
                updates: ts.len(),
                longest_gap: longest,
                coverage,
            }
        })
        .collect()
}

/// A complementary cumulative distribution function over sample values:
/// `ccdf(x)` = fraction of samples `>= x` evaluated at each distinct
/// sample value (the form the paper plots in Fig 3).
#[derive(Clone, Debug, Default)]
pub struct Ccdf {
    sorted: Vec<f64>,
}

impl Ccdf {
    /// Build from samples (NaNs are rejected).
    ///
    /// # Panics
    /// Panics if any sample is NaN.
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(samples.iter().all(|x| !x.is_nan()), "NaN sample");
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Ccdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples ≥ `x` (in [0, 1]; 0 for an empty CCDF).
    pub fn at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v < x);
        (self.sorted.len() - idx) as f64 / self.sorted.len() as f64
    }

    /// The p-quantile (0 ≤ p ≤ 1) by nearest-rank; `None` when empty.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let idx = ((self.sorted.len() as f64 - 1.0) * p.clamp(0.0, 1.0)).round() as usize;
        Some(self.sorted[idx])
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// The curve as `(value, fraction ≥ value)` points at each distinct
    /// sample value, ascending.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.sorted.len() {
            let v = self.sorted[i];
            out.push((v, self.at(v)));
            while i < self.sorted.len() && self.sorted[i] == v {
                i += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::UpdateRecord;
    use crate::msg::Route;
    use quicksand_net::AsPath;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn ann(at_s: u64, sess: u32, prefix: &str, asns: &[u32]) -> UpdateRecord {
        UpdateRecord {
            at: SimTime::from_secs(at_s),
            session: SessionId(sess),
            msg: UpdateMessage::Announce(Route {
                prefix: p(prefix),
                as_path: asns.iter().map(|&a| Asn(a)).collect::<AsPath>(),
                communities: Default::default(),
            }),
        }
    }

    fn wd(at_s: u64, sess: u32, prefix: &str) -> UpdateRecord {
        UpdateRecord {
            at: SimTime::from_secs(at_s),
            session: SessionId(sess),
            msg: UpdateMessage::Withdraw(p(prefix)),
        }
    }

    #[test]
    fn runs_group_by_session_then_prefix_in_log_order() {
        let log = UpdateLog {
            records: vec![
                ann(0, 1, "11.0.0.0/8", &[3, 4]),
                ann(0, 0, "11.0.0.0/8", &[1, 4]),
                ann(5, 1, "10.0.0.0/8", &[3, 2]),
                ann(5, 0, "10.0.0.0/8", &[1, 2]),
                // Two records for one key at the same instant: log order
                // decides which comes first.
                ann(9, 0, "10.0.0.0/8", &[1, 5]),
                wd(9, 0, "10.0.0.0/8"),
            ],
        };
        assert_eq!(log.sessions(), vec![SessionId(0), SessionId(1)]);
        let runs = SessionPrefixRuns::new(&log, None);
        let got: Vec<_> = runs
            .iter()
            .map(|(key, run)| {
                let at: Vec<SimTime> = run.records().map(|r| r.at).collect();
                (key, at, run.records().last().unwrap().msg.is_withdraw())
            })
            .collect();
        let key = |s: u32, pfx: &str| (SessionId(s), p(pfx));
        let at = |secs: &[u64]| {
            secs.iter()
                .map(|&t| SimTime::from_secs(t))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            got,
            vec![
                (key(0, "10.0.0.0/8"), at(&[5, 9, 9]), true),
                (key(0, "11.0.0.0/8"), at(&[0]), false),
                (key(1, "10.0.0.0/8"), at(&[5]), false),
                (key(1, "11.0.0.0/8"), at(&[0]), false),
            ]
        );
        // A restriction drops other prefixes before grouping.
        let only: BTreeSet<Ipv4Prefix> = [p("11.0.0.0/8")].into_iter().collect();
        let keys: Vec<_> = SessionPrefixRuns::new(&log, Some(&only))
            .iter()
            .map(|(key, _)| key)
            .collect();
        assert_eq!(keys, vec![key(0, "11.0.0.0/8"), key(1, "11.0.0.0/8")]);
    }

    #[test]
    fn path_change_counting_uses_as_sets() {
        let log = UpdateLog {
            records: vec![
                ann(0, 0, "10.0.0.0/8", &[1, 2, 3]),
                // Same AS set, different order (prepending): not a change.
                ann(10, 0, "10.0.0.0/8", &[1, 2, 2, 3]),
                // Different set: change.
                ann(20, 0, "10.0.0.0/8", &[1, 4, 3]),
                // Withdraw: change to empty.
                wd(30, 0, "10.0.0.0/8"),
                // Re-announce: change from empty.
                ann(40, 0, "10.0.0.0/8", &[1, 4, 3]),
            ],
        };
        let changes = path_changes(&log);
        assert_eq!(changes[&(SessionId(0), p("10.0.0.0/8"))], 3);
    }

    #[test]
    fn baseline_and_extra_ases_respect_min_duration() {
        let log = UpdateLog {
            records: vec![
                ann(0, 0, "10.0.0.0/8", &[1, 2, 3]),
                // 60 s detour via AS 9 (under 5 min).
                ann(1000, 0, "10.0.0.0/8", &[1, 9, 3]),
                ann(1060, 0, "10.0.0.0/8", &[1, 2, 3]),
                // Long detour via AS 7 (over 5 min).
                ann(2000, 0, "10.0.0.0/8", &[1, 7, 3]),
                ann(3000, 0, "10.0.0.0/8", &[1, 2, 3]),
            ],
        };
        let runs = SessionPrefixRuns::new(&log, None);
        let (_, run) = runs.iter().next().unwrap();
        let t = &PathTimeline::from_run(run);
        assert_eq!(
            t.baseline(),
            [Asn(1), Asn(2), Asn(3)].into_iter().collect()
        );
        let horizon = SimTime::from_secs(4000);
        let extra = t.extra_ases(horizon, SimDuration::from_mins(5));
        assert_eq!(extra, [Asn(7)].into_iter().collect());
        // AS 9 was on-path only 60 s.
        let durs = t.as_durations(horizon);
        assert_eq!(durs[&Asn(9)], SimDuration::from_secs(60));
        // Distinct ASes ≥5 min: baseline plus 7.
        let distinct = t.distinct_ases(horizon, SimDuration::from_mins(5));
        assert_eq!(
            distinct,
            [Asn(1), Asn(2), Asn(3), Asn(7)].into_iter().collect()
        );
    }

    #[test]
    fn churn_ratio_normalizes_by_session_median() {
        let tor = p("10.0.0.0/8");
        // Session 0: tor prefix changes 6 times; three control prefixes
        // change 2, 2, 4 times → median over {6,2,2,4} = 3.
        let mut records = Vec::new();
        let mut add_changes = |prefix: &str, n: usize, base: u64| {
            records.push(ann(base, 0, prefix, &[1, 2]));
            for k in 0..n {
                let asn = 10 + (k as u32 % 2); // alternate to force changes
                records.push(ann(base + 10 * (k as u64 + 1), 0, prefix, &[1, asn]));
            }
        };
        add_changes("10.0.0.0/8", 6, 0);
        add_changes("11.0.0.0/8", 2, 1000);
        add_changes("12.0.0.0/8", 2, 2000);
        add_changes("13.0.0.0/8", 4, 3000);
        let log = UpdateLog { records };
        let ratios = churn_ratios(&SessionPrefixRuns::new(&log, None), &[tor].into_iter().collect());
        assert_eq!(ratios.len(), 1);
        assert!((ratios[0] - 2.0).abs() < 1e-9, "got {}", ratios[0]);
    }

    #[test]
    fn ccdf_behaves() {
        let c = Ccdf::new(vec![1.0, 2.0, 2.0, 5.0]);
        assert_eq!(c.at(0.5), 1.0);
        assert_eq!(c.at(1.0), 1.0);
        assert_eq!(c.at(1.5), 0.75);
        assert_eq!(c.at(2.0), 0.75);
        assert_eq!(c.at(2.1), 0.25);
        assert_eq!(c.at(5.0), 0.25);
        assert_eq!(c.at(5.1), 0.0);
        assert_eq!(c.quantile(0.5), Some(2.0));
        assert_eq!(c.max(), Some(5.0));
        assert_eq!(c.points().len(), 3);
        assert!(Ccdf::new(vec![]).is_empty());
        assert_eq!(Ccdf::new(vec![]).at(1.0), 0.0);
    }

    #[test]
    fn extra_ases_per_prefix_unions_sessions() {
        let tor = p("10.0.0.0/8");
        let log = UpdateLog {
            records: vec![
                ann(0, 0, "10.0.0.0/8", &[1, 2]),
                ann(1000, 0, "10.0.0.0/8", &[1, 7]),
                ann(0, 1, "10.0.0.0/8", &[4, 2]),
                ann(1000, 1, "10.0.0.0/8", &[4, 8]),
            ],
        };
        let out = extra_ases_per_prefix(
            &log,
            &[tor].into_iter().collect(),
            SimTime::from_secs(2000),
            SimDuration::from_mins(5),
        );
        assert_eq!(out[&tor], [Asn(7), Asn(8)].into_iter().collect());
    }
}

#[cfg(test)]
mod health_tests {
    use super::*;
    use crate::msg::{Route, UpdateMessage};
    use crate::UpdateRecord;

    fn ann(at_s: u64, sess: u32) -> UpdateRecord {
        UpdateRecord {
            at: SimTime::from_secs(at_s),
            session: SessionId(sess),
            msg: UpdateMessage::Announce(Route {
                prefix: "10.0.0.0/8".parse().unwrap(),
                as_path: [Asn(1), Asn(2)].into_iter().collect(),
                communities: Default::default(),
            }),
        }
    }

    #[test]
    fn continuous_feed_has_full_coverage() {
        let log = UpdateLog {
            records: (0..10).map(|i| ann(i * 60, 0)).collect(),
        };
        let h = session_health(
            &log,
            SimTime::ZERO,
            SimTime::from_secs(600),
            SimDuration::from_mins(5),
        );
        assert_eq!(h.len(), 1);
        assert_eq!(h[0].updates, 10);
        assert_eq!(h[0].coverage, 1.0);
        assert_eq!(h[0].longest_gap, SimDuration::from_secs(60));
    }

    #[test]
    fn publish_exports_per_session_gauges() {
        let log = UpdateLog {
            records: (0..10).map(|i| ann(i * 60, 3)).collect(),
        };
        let reg = std::sync::Arc::new(obs::Registry::new());
        let h = obs::with_metrics(reg.clone(), || {
            publish_session_health(
                &log,
                SimTime::ZERO,
                SimTime::from_secs(600),
                SimDuration::from_mins(5),
            )
        });
        assert_eq!(h.len(), 1);
        assert_eq!(
            reg.gauge_value(obs::Key::session("collector", "feed_coverage", 3)),
            Some(1.0)
        );
        assert_eq!(
            reg.gauge_value(obs::Key::session("collector", "feed_longest_gap_s", 3)),
            Some(60.0)
        );
        assert_eq!(
            reg.gauge_value(obs::Key::session("collector", "feed_updates", 3)),
            Some(10.0)
        );
    }

    #[test]
    fn outage_shows_up_as_gap_and_lost_coverage() {
        // Records at 0..5 min, then silence until 55 min, then more.
        let mut records: Vec<UpdateRecord> = (0..6).map(|i| ann(i * 60, 0)).collect();
        records.extend((55..60).map(|i| ann(i * 60, 0)));
        let log = UpdateLog { records };
        let h = session_health(
            &log,
            SimTime::ZERO,
            SimTime::from_secs(3600),
            SimDuration::from_mins(5),
        );
        assert_eq!(h[0].longest_gap, SimDuration::from_mins(50));
        assert!(h[0].coverage < 0.2, "coverage {}", h[0].coverage);
    }
}

#[cfg(test)]
mod clipping_tests {
    use super::*;

    #[test]
    fn durations_clip_to_horizon() {
        let mut tl = PathTimeline::default();
        tl.points.push((SimTime::from_secs(0), [Asn(1)].into_iter().collect()));
        tl.points.push((SimTime::from_secs(100), [Asn(2)].into_iter().collect()));
        tl.points.push((SimTime::from_secs(200), [Asn(3)].into_iter().collect()));
        // Horizon mid-way through the second interval.
        let durs = tl.as_durations(SimTime::from_secs(150));
        assert_eq!(durs[&Asn(1)], SimDuration::from_secs(100));
        assert_eq!(durs[&Asn(2)], SimDuration::from_secs(50));
        // AS 3's interval starts after the horizon: zero exposure.
        assert_eq!(
            durs.get(&Asn(3)).copied().unwrap_or(SimDuration::ZERO),
            SimDuration::ZERO
        );
        // "As of" queries are monotone in the horizon.
        let early = tl.distinct_ases(SimTime::from_secs(100), SimDuration::from_secs(10));
        let late = tl.distinct_ases(SimTime::from_secs(300), SimDuration::from_secs(10));
        assert!(early.is_subset(&late));
    }
}
