//! A real-time monitoring framework for secure path selection — the
//! paper's future work, §7(b): "study the design of a real time
//! monitoring framework for secure path selection in Tor", building on
//! §5: "If the monitoring system has a suspicion that a relay might be
//! under attack, this information can be broadcasted through the Tor
//! network, so clients can avoid selecting this relay."
//!
//! [`StreamingMonitor`] is the online counterpart of
//! [`crate::detect::PrefixMonitor`]: it consumes update records one at
//! a time, maintains per-prefix state, raises alarms with *detection
//! latency*, and maintains an advisory board ([`AdvisoryBoard`]) of
//! prefixes currently considered under attack — with an expiry, since
//! §5 explicitly trades false positives for safety and advisories must
//! decay or availability dies.

use crate::detect::{Alarm, AlarmKind};
use quicksand_bgp::{SessionId, UpdateMessage, UpdateRecord};
use quicksand_net::{Asn, Ipv4Prefix, QsResult, QuicksandError, SimDuration, SimTime};
use quicksand_obs as obs;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Configuration for [`StreamingMonitor`].
#[derive(Clone, Debug)]
pub struct MonitorConfig {
    /// How long an advisory stays active after its last supporting
    /// alarm.
    pub advisory_ttl: SimDuration,
    /// How long the monitor learns upstreams before it starts alarming
    /// on new ones (the online training window).
    pub warmup: SimDuration,
    /// A session that has been silent this long is considered stale:
    /// it no longer counts toward alarm confidence, and
    /// [`StreamingMonitor::check_feed`] reports it.
    pub stale_after: SimDuration,
    /// How many quarantined records the dead-letter buffer retains
    /// (oldest evicted first). `0` counts quarantined records without
    /// retaining them.
    pub quarantine_capacity: usize,
    /// Records timestamped strictly after this point are quarantined as
    /// out-of-horizon (a poisoned or skewed feed claiming to be from
    /// the future of the replay). `None` disables the check.
    pub horizon_end: Option<SimTime>,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            advisory_ttl: SimDuration::from_hours(6),
            warmup: SimDuration::from_days(2),
            stale_after: SimDuration::from_hours(1),
            quarantine_capacity: 1024,
            horizon_end: None,
        }
    }
}

/// Why [`StreamingMonitor::ingest`] quarantined a record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuarantineReason {
    /// An announce carrying an empty AS path — malformed by
    /// construction (no BGP speaker emits one; a fault-injected or
    /// corrupted feed can).
    EmptyPath,
    /// A timestamp past the configured replay horizon
    /// ([`MonitorConfig::horizon_end`]).
    OutOfHorizon,
}

impl QuarantineReason {
    /// A stable, machine-readable name (used in obs events).
    pub fn label(&self) -> &'static str {
        match self {
            QuarantineReason::EmptyPath => "empty-path",
            QuarantineReason::OutOfHorizon => "out-of-horizon",
        }
    }
}

/// A record the monitor refused to process, kept for post-mortem
/// instead of being silently dropped or aborting the feed.
#[derive(Clone, Debug, PartialEq)]
pub struct DeadLetter {
    /// The record as received.
    pub record: UpdateRecord,
    /// Why it was quarantined.
    pub reason: QuarantineReason,
}

/// The advisory state broadcast to Tor clients: prefixes to avoid.
#[derive(Clone, Debug, Default)]
pub struct AdvisoryBoard {
    /// Active advisories: prefix → (raised at, last refreshed).
    active: BTreeMap<Ipv4Prefix, (SimTime, SimTime)>,
}

impl AdvisoryBoard {
    /// Is `prefix` currently advised against at time `now`?
    pub fn is_flagged(&self, prefix: &Ipv4Prefix, now: SimTime, ttl: SimDuration) -> bool {
        self.active
            .get(prefix)
            .is_some_and(|&(_, last)| now.since(last) <= ttl)
    }

    /// Prefixes currently flagged at `now`.
    pub fn flagged(&self, now: SimTime, ttl: SimDuration) -> BTreeSet<Ipv4Prefix> {
        self.active
            .iter()
            .filter(|(_, &(_, last))| now.since(last) <= ttl)
            .map(|(p, _)| *p)
            .collect()
    }
}

/// An online prefix monitor with advisory feedback.
#[derive(Clone, Debug)]
pub struct StreamingMonitor {
    config: MonitorConfig,
    /// Registered prefix → legitimate origin.
    registered: BTreeMap<Ipv4Prefix, Asn>,
    /// Learned origin-adjacent ASes per prefix (grows online during
    /// warmup; frozen afterwards so the attacker cannot teach the
    /// monitor its own splice).
    upstreams: BTreeMap<Ipv4Prefix, BTreeSet<Asn>>,
    /// Advisory board.
    board: AdvisoryBoard,
    /// All alarms raised, in arrival order.
    alarms: Vec<Alarm>,
    /// Feed confidence (live sessions / expected sessions) at the time
    /// each alarm was raised; parallel to `alarms`.
    alarm_confidence: Vec<f64>,
    started_at: Option<SimTime>,
    /// Sessions the monitor expects to hear from (registered up front
    /// or learned from the stream).
    expected_sessions: BTreeSet<SessionId>,
    /// Last record time per session.
    last_seen: BTreeMap<SessionId, SimTime>,
    /// The latest record timestamp ingested so far.
    high_water: SimTime,
    /// Records that arrived with a timestamp before the high-water mark
    /// (reordered or skewed feeds); processed anyway, but counted.
    late_records: usize,
    /// Bounded buffer of quarantined records, oldest first.
    dead_letters: VecDeque<DeadLetter>,
    /// Quarantined records evicted from the buffer once it was full.
    dead_letter_evictions: u64,
}

/// The mutable mid-run state of a [`StreamingMonitor`], detached from
/// its configuration and registered-prefix table (which the caller
/// rebuilds from the same scenario inputs). Produced by
/// [`StreamingMonitor::export_state`], reapplied by
/// [`StreamingMonitor::import_state`] — the monitor section of a run
/// checkpoint.
///
/// The dead-letter buffer is deliberately *not* captured: quarantined
/// records are diagnostic material, not replay state — they influence
/// no alarm, advisory, or staleness decision, so resume-exactness does
/// not depend on them (their counters are restored with the rest of the
/// metrics registry).
#[derive(Clone, Debug, PartialEq)]
pub struct MonitorState {
    /// Learned origin-adjacent ASes per prefix.
    pub upstreams: Vec<(Ipv4Prefix, Vec<Asn>)>,
    /// Active advisories: `(prefix, raised at, last refreshed)`.
    pub advisories: Vec<(Ipv4Prefix, SimTime, SimTime)>,
    /// All alarms raised, in arrival order.
    pub alarms: Vec<Alarm>,
    /// Feed confidence at the time of each alarm; parallel to `alarms`.
    pub alarm_confidence: Vec<f64>,
    /// When the first record arrived, if any.
    pub started_at: Option<SimTime>,
    /// Sessions the monitor expects to hear from.
    pub expected_sessions: Vec<SessionId>,
    /// Last record time per session.
    pub last_seen: Vec<(SessionId, SimTime)>,
    /// The latest record timestamp ingested so far.
    pub high_water: SimTime,
    /// Out-of-order records seen so far.
    pub late_records: u64,
}

impl StreamingMonitor {
    /// Create a monitor protecting `registered` (prefix → origin).
    pub fn new(
        registered: impl IntoIterator<Item = (Ipv4Prefix, Asn)>,
        config: MonitorConfig,
    ) -> Self {
        StreamingMonitor {
            config,
            registered: registered.into_iter().collect(),
            upstreams: BTreeMap::new(),
            board: AdvisoryBoard::default(),
            alarms: Vec::new(),
            alarm_confidence: Vec::new(),
            started_at: None,
            expected_sessions: BTreeSet::new(),
            last_seen: BTreeMap::new(),
            high_water: SimTime::ZERO,
            late_records: 0,
            dead_letters: VecDeque::new(),
            dead_letter_evictions: 0,
        }
    }

    /// Capture the monitor's mutable mid-run state for a checkpoint
    /// (see [`MonitorState`] for what is and is not included).
    pub fn export_state(&self) -> MonitorState {
        MonitorState {
            upstreams: self
                .upstreams
                .iter()
                .map(|(p, set)| (*p, set.iter().copied().collect()))
                .collect(),
            advisories: self
                .board
                .active
                .iter()
                .map(|(p, &(raised, last))| (*p, raised, last))
                .collect(),
            alarms: self.alarms.clone(),
            alarm_confidence: self.alarm_confidence.clone(),
            started_at: self.started_at,
            expected_sessions: self.expected_sessions.iter().copied().collect(),
            last_seen: self.last_seen.iter().map(|(s, t)| (*s, *t)).collect(),
            high_water: self.high_water,
            late_records: self.late_records as u64,
        }
    }

    /// Restore state captured by [`StreamingMonitor::export_state`]
    /// into a freshly built monitor with the same configuration and
    /// registered prefixes.
    ///
    /// Returns [`QuicksandError::ResumeMismatch`] when the state is
    /// internally inconsistent (alarm/confidence lists of different
    /// lengths — the symptom of a checkpoint assembled by hand).
    pub fn import_state(&mut self, state: &MonitorState) -> QsResult<()> {
        if state.alarm_confidence.len() != state.alarms.len() {
            return Err(QuicksandError::ResumeMismatch {
                what: "alarm_confidence",
                detail: format!(
                    "{} confidences for {} alarms",
                    state.alarm_confidence.len(),
                    state.alarms.len()
                ),
            });
        }
        self.upstreams = state
            .upstreams
            .iter()
            .map(|(p, asns)| (*p, asns.iter().copied().collect()))
            .collect();
        self.board.active = state
            .advisories
            .iter()
            .map(|&(p, raised, last)| (p, (raised, last)))
            .collect();
        self.alarms = state.alarms.clone();
        self.alarm_confidence = state.alarm_confidence.clone();
        self.started_at = state.started_at;
        self.expected_sessions = state.expected_sessions.iter().copied().collect();
        self.last_seen = state.last_seen.iter().copied().collect();
        self.high_water = state.high_water;
        self.late_records = state.late_records as usize;
        Ok(())
    }

    /// Declare the sessions the monitor should hear from. Without this,
    /// sessions are learned from the stream itself (so a session that
    /// never says anything is invisible to staleness tracking).
    pub fn register_sessions(&mut self, sessions: impl IntoIterator<Item = SessionId>) {
        self.expected_sessions.extend(sessions);
    }

    /// Sessions currently live at `now`: heard from within
    /// `stale_after`.
    pub fn live_sessions(&self, now: SimTime) -> usize {
        self.last_seen
            .values()
            .filter(|&&t| now.since(t) <= self.config.stale_after)
            .count()
    }

    /// Sessions that have been silent past `stale_after` at `now`
    /// (including registered sessions never heard from at all).
    pub fn stale_sessions(&self, now: SimTime) -> Vec<SessionId> {
        self.expected_sessions
            .iter()
            .filter(|s| {
                self.last_seen
                    .get(s)
                    .map_or(true, |&t| now.since(t) > self.config.stale_after)
            })
            .copied()
            .collect()
    }

    /// Feed confidence at `now`: the fraction of expected sessions that
    /// are live. With no expected sessions the monitor has no basis for
    /// doubt and reports 1.0.
    pub fn confidence(&self, now: SimTime) -> f64 {
        if self.expected_sessions.is_empty() {
            return 1.0;
        }
        self.live_sessions(now) as f64 / self.expected_sessions.len() as f64
    }

    /// Typed staleness check: `Err(StaleFeed)` for the longest-silent
    /// stale session at `now`, `Ok(())` when every expected session is
    /// live.
    pub fn check_feed(&self, now: SimTime) -> QsResult<()> {
        let _span = obs::prof::span("monitor", "check_feed");
        obs::incr("monitor", "feed_checks", 1);
        let worst = self
            .expected_sessions
            .iter()
            .map(|s| {
                let silent = self.last_seen.get(s).map_or_else(
                    || now.since(self.started_at.unwrap_or(now)),
                    |&t| now.since(t),
                );
                (silent, *s)
            })
            .filter(|&(silent, _)| silent > self.config.stale_after)
            .max();
        match worst {
            Some((silent_for, session)) => {
                obs::incr("monitor", "stale_feed_checks", 1);
                if obs::enabled(obs::Level::Warn) {
                    obs::emit(
                        obs::Event::new(
                            obs::Level::Warn,
                            "monitor",
                            "stale-feed",
                            "expected session silent past staleness bound",
                        )
                        .with("session", session.0)
                        .with("silent_s", silent_for.as_secs_f64())
                        .with("at_s", now.as_secs_f64()),
                    );
                }
                Err(QuicksandError::StaleFeed {
                    session: session.0,
                    silent_for,
                })
            }
            None => Ok(()),
        }
    }

    /// Records seen with timestamps behind the stream's high-water mark
    /// (out-of-order delivery or clock skew). They are processed, not
    /// dropped — this is a health indicator, not an error.
    pub fn late_records(&self) -> usize {
        self.late_records
    }

    /// Alarms paired with the feed confidence at the moment each was
    /// raised — an alarm raised while half the sessions were dark
    /// carries less weight than one raised on a full feed.
    pub fn alarms_with_confidence(&self) -> impl Iterator<Item = (&Alarm, f64)> {
        self.alarms.iter().zip(self.alarm_confidence.iter().copied())
    }

    /// The advisory board (for clients' relay selection).
    pub fn board(&self) -> &AdvisoryBoard {
        &self.board
    }

    /// All alarms raised so far.
    pub fn alarms(&self) -> &[Alarm] {
        &self.alarms
    }

    /// Is `prefix` currently advised against?
    pub fn is_flagged(&self, prefix: &Ipv4Prefix, now: SimTime) -> bool {
        self.board.is_flagged(prefix, now, self.config.advisory_ttl)
    }

    /// Feed one update record; returns the alarm raised, if any.
    ///
    /// Degraded feeds are tolerated by design: out-of-order timestamps
    /// are counted (see [`StreamingMonitor::late_records`]) and
    /// processed anyway, and per-session arrival times feed the
    /// staleness/confidence tracking.
    pub fn ingest(&mut self, record: &UpdateRecord) -> Option<Alarm> {
        // Quarantine gate: poisoned records touch no monitor state (not
        // even session liveness — a record we cannot trust is not
        // evidence the session is healthy).
        if let Some(reason) = self.quarantine_reason(record) {
            self.quarantine(record, reason);
            return None;
        }
        let started = *self.started_at.get_or_insert(record.at);
        obs::incr("monitor", "records", 1);
        // Session health bookkeeping (all message kinds count as life).
        self.expected_sessions.insert(record.session);
        let seen = self.last_seen.entry(record.session).or_insert(record.at);
        if record.at > *seen {
            *seen = record.at;
        }
        if record.at < self.high_water {
            self.late_records += 1;
            obs::incr("monitor", "late_records", 1);
        } else {
            self.high_water = record.at;
        }
        let in_warmup = record.at.since(started) < self.config.warmup;
        let UpdateMessage::Announce(route) = &record.msg else {
            return None;
        };
        let prefix = route.prefix;

        // More-specific check against registered covering prefixes.
        if !self.registered.contains_key(&prefix) {
            for &covering in self.registered.keys() {
                if prefix.is_more_specific_than(&covering) {
                    return Some(self.raise(
                        record.at,
                        prefix,
                        AlarmKind::MoreSpecific { covering },
                    ));
                }
            }
            return None;
        }

        let origin = self.registered[&prefix];
        match route.as_path.origin() {
            Some(seen) if seen != origin => {
                return Some(self.raise(
                    record.at,
                    prefix,
                    AlarmKind::OriginChange { seen_origin: seen },
                ));
            }
            _ => {}
        }

        // Upstream learning / checking.
        let asns = route.as_path.asns();
        if asns.len() >= 2 {
            let upstream = asns[asns.len() - 2];
            if in_warmup {
                self.upstreams.entry(prefix).or_default().insert(upstream);
            } else if !self
                .upstreams
                .get(&prefix)
                .is_some_and(|known| known.contains(&upstream))
            {
                return Some(self.raise(
                    record.at,
                    prefix,
                    AlarmKind::NewUpstream { upstream },
                ));
            }
        }
        None
    }

    /// Does `record` belong in quarantine rather than the pipeline?
    fn quarantine_reason(&self, record: &UpdateRecord) -> Option<QuarantineReason> {
        if let UpdateMessage::Announce(route) = &record.msg {
            if route.as_path.is_empty() {
                return Some(QuarantineReason::EmptyPath);
            }
        }
        if let Some(end) = self.config.horizon_end {
            if record.at > end {
                return Some(QuarantineReason::OutOfHorizon);
            }
        }
        None
    }

    /// Park `record` in the bounded dead-letter buffer, counting and
    /// announcing it rather than silently dropping it.
    fn quarantine(&mut self, record: &UpdateRecord, reason: QuarantineReason) {
        obs::incr("monitor", "dead_letters", 1);
        if obs::enabled(obs::Level::Warn) {
            obs::emit(
                obs::Event::new(
                    obs::Level::Warn,
                    "monitor",
                    "quarantine",
                    "record quarantined to dead-letter buffer",
                )
                .with("at_s", record.at.as_secs_f64())
                .with("session", record.session.0)
                .with("reason", reason.label()),
            );
        }
        if self.config.quarantine_capacity == 0 {
            self.dead_letter_evictions += 1;
            obs::incr("monitor", "dead_letter_evictions", 1);
            return;
        }
        if self.dead_letters.len() >= self.config.quarantine_capacity {
            self.dead_letters.pop_front();
            self.dead_letter_evictions += 1;
            obs::incr("monitor", "dead_letter_evictions", 1);
        }
        self.dead_letters.push_back(DeadLetter {
            record: record.clone(),
            reason,
        });
    }

    /// Quarantined records currently retained, oldest first.
    pub fn dead_letters(&self) -> impl Iterator<Item = &DeadLetter> {
        self.dead_letters.iter()
    }

    /// Quarantined records evicted (or never retained) because the
    /// buffer was full — total quarantined is `dead_letters().count()
    /// + dead_letter_evictions()`.
    pub fn dead_letter_evictions(&self) -> u64 {
        self.dead_letter_evictions
    }

    fn raise(&mut self, at: SimTime, prefix: Ipv4Prefix, kind: AlarmKind) -> Alarm {
        let alarm = Alarm { at, prefix, kind };
        let confidence = self.confidence(at);
        obs::incr("monitor", "alarms", 1);
        if obs::enabled(obs::Level::Warn) {
            obs::emit(
                obs::Event::new(obs::Level::Warn, "monitor", "alarm", "prefix alarm raised")
                    .with("at_s", at.as_secs_f64())
                    .with("prefix", prefix.to_string())
                    .with("kind", kind.label())
                    .with("confidence", confidence),
            );
        }
        self.alarm_confidence.push(confidence);
        self.alarms.push(alarm);
        let entry = self
            .board
            .active
            .entry(prefix)
            .or_insert((at, at));
        entry.1 = at;
        alarm
    }

    /// Detection latency for `prefix`: time from `attack_at` to the
    /// first alarm at or after it, if any.
    pub fn detection_latency(
        &self,
        prefix: &Ipv4Prefix,
        attack_at: SimTime,
    ) -> Option<SimDuration> {
        let latency = self
            .alarms
            .iter()
            .find(|a| a.prefix == *prefix && a.at >= attack_at)
            .map(|a| a.at.since(attack_at));
        if let Some(d) = latency {
            obs::observe("monitor", "alarm_latency_s", d.as_secs_f64());
        }
        latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicksand_bgp::{Route, SessionId};
    use quicksand_net::AsPath;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn ann(at: SimTime, prefix: &str, asns: &[u32]) -> UpdateRecord {
        UpdateRecord {
            at,
            session: SessionId(0),
            msg: UpdateMessage::Announce(Route {
                prefix: p(prefix),
                as_path: asns.iter().map(|&a| Asn(a)).collect::<AsPath>(),
                communities: Default::default(),
            }),
        }
    }

    fn monitor() -> StreamingMonitor {
        StreamingMonitor::new(
            [(p("78.46.0.0/15"), Asn(24940))],
            MonitorConfig {
                warmup: SimDuration::from_days(1),
                advisory_ttl: SimDuration::from_hours(6),
                ..Default::default()
            },
        )
    }

    #[test]
    fn warmup_learns_then_freezes() {
        let mut m = monitor();
        // During warmup: upstream 20 learned, no alarm.
        assert!(m
            .ingest(&ann(SimTime::from_secs(0), "78.46.0.0/15", &[1, 20, 24940]))
            .is_none());
        // After warmup: known upstream fine, unknown upstream alarms.
        let later = SimTime::ZERO + SimDuration::from_days(2);
        assert!(m.ingest(&ann(later, "78.46.0.0/15", &[2, 20, 24940])).is_none());
        let alarm = m
            .ingest(&ann(later, "78.46.0.0/15", &[2, 666, 24940]))
            .expect("splice alarm");
        assert_eq!(
            alarm.kind,
            AlarmKind::NewUpstream {
                upstream: Asn(666)
            }
        );
        // The attacker cannot teach the monitor post-warmup: the same
        // splice alarms again.
        assert!(m.ingest(&ann(later, "78.46.0.0/15", &[2, 666, 24940])).is_some());
    }

    #[test]
    fn origin_change_alarms_even_during_warmup() {
        let mut m = monitor();
        let alarm = m
            .ingest(&ann(SimTime::from_secs(10), "78.46.0.0/15", &[1, 666]))
            .expect("MOAS alarm");
        assert!(matches!(alarm.kind, AlarmKind::OriginChange { .. }));
    }

    #[test]
    fn advisories_expire() {
        let mut m = monitor();
        let t0 = SimTime::from_secs(10);
        m.ingest(&ann(t0, "78.46.0.0/15", &[1, 666])).unwrap();
        let prefix = p("78.46.0.0/15");
        assert!(m.is_flagged(&prefix, t0 + SimDuration::from_hours(1)));
        assert!(!m.is_flagged(&prefix, t0 + SimDuration::from_hours(7)));
        // A fresh alarm refreshes the advisory.
        let t1 = t0 + SimDuration::from_hours(8);
        m.ingest(&ann(t1, "78.46.0.0/15", &[1, 666])).unwrap();
        assert!(m.is_flagged(&prefix, t1 + SimDuration::from_hours(5)));
        assert_eq!(m.board().active.len(), 1);
    }

    #[test]
    fn detection_latency_measures_first_alarm_after_attack() {
        let mut m = monitor();
        // Clean traffic first.
        m.ingest(&ann(SimTime::from_secs(0), "78.46.0.0/15", &[1, 20, 24940]));
        let attack_at = SimTime::ZERO + SimDuration::from_days(3);
        // The bogus update reaches the collector 90 s later.
        let seen_at = attack_at + SimDuration::from_secs(90);
        m.ingest(&ann(seen_at, "78.46.0.0/15", &[1, 666, 24940]))
            .unwrap();
        assert_eq!(
            m.detection_latency(&p("78.46.0.0/15"), attack_at),
            Some(SimDuration::from_secs(90))
        );
        assert_eq!(m.detection_latency(&p("10.0.0.0/8"), attack_at), None);
    }

    fn ann_on(at: SimTime, sess: u32, prefix: &str, asns: &[u32]) -> UpdateRecord {
        UpdateRecord {
            session: SessionId(sess),
            ..ann(at, prefix, asns)
        }
    }

    #[test]
    fn advisory_ttl_boundary_is_inclusive() {
        let mut m = monitor();
        let t0 = SimTime::from_secs(100);
        m.ingest(&ann(t0, "78.46.0.0/15", &[1, 666])).unwrap();
        let prefix = p("78.46.0.0/15");
        let ttl = SimDuration::from_hours(6);
        // Exactly at the boundary the advisory still holds...
        assert!(m.is_flagged(&prefix, t0 + ttl));
        // ...and one tick past it, it has expired.
        assert!(!m.is_flagged(&prefix, t0 + ttl + SimDuration::from_millis(1)));
    }

    #[test]
    fn refresh_exactly_at_ttl_boundary_extends_advisory() {
        let mut m = monitor();
        let t0 = SimTime::from_secs(100);
        let ttl = SimDuration::from_hours(6);
        m.ingest(&ann(t0, "78.46.0.0/15", &[1, 666])).unwrap();
        // A supporting alarm lands exactly when the advisory would
        // lapse: the advisory must continue seamlessly, not flap.
        let t1 = t0 + ttl;
        m.ingest(&ann(t1, "78.46.0.0/15", &[1, 666])).unwrap();
        let prefix = p("78.46.0.0/15");
        assert!(m.is_flagged(&prefix, t1 + ttl));
        assert!(!m.is_flagged(&prefix, t1 + ttl + SimDuration::from_millis(1)));
        // Still a single advisory, refreshed rather than re-raised.
        assert_eq!(m.board().active.len(), 1);
    }

    #[test]
    fn advisory_expires_during_collector_outage() {
        let mut m = monitor();
        let t0 = SimTime::from_secs(100);
        m.ingest(&ann(t0, "78.46.0.0/15", &[1, 666])).unwrap();
        // The collector goes dark: no refreshing alarms can arrive, so
        // the advisory decays on schedule (availability over safety).
        let during_outage = t0 + SimDuration::from_hours(12);
        let prefix = p("78.46.0.0/15");
        assert!(!m.is_flagged(&prefix, during_outage));
        // The feed is also reported stale by then.
        assert!(matches!(
            m.check_feed(during_outage),
            Err(QuicksandError::StaleFeed { session: 0, .. })
        ));
        assert_eq!(m.stale_sessions(during_outage), vec![SessionId(0)]);
    }

    #[test]
    fn confidence_tracks_live_sessions() {
        let mut m = monitor();
        m.register_sessions((0..4).map(SessionId));
        let t0 = SimTime::from_secs(0);
        // Only sessions 0 and 1 ever speak.
        m.ingest(&ann_on(t0, 0, "10.0.0.0/8", &[1, 2]));
        m.ingest(&ann_on(t0, 1, "10.0.0.0/8", &[1, 2]));
        assert_eq!(m.confidence(t0), 0.5);
        // An alarm raised on this half-dark feed records that weight.
        m.ingest(&ann_on(t0, 0, "78.46.0.0/15", &[1, 666])).unwrap();
        let (_, conf) = m.alarms_with_confidence().next().unwrap();
        assert_eq!(conf, 0.5);
        // Once the silent sessions go stale. confidence stays at 0.5;
        // when all four go silent past the bound, it reaches zero.
        let much_later = t0 + SimDuration::from_days(1);
        assert_eq!(m.confidence(much_later), 0.0);
    }

    #[test]
    fn late_records_are_processed_not_dropped() {
        let mut m = monitor();
        m.ingest(&ann(SimTime::from_secs(100), "78.46.0.0/15", &[1, 20, 24940]));
        // A record from the past (reordered feed) still triggers
        // detection and is merely counted as late.
        let alarm = m.ingest(&ann(SimTime::from_secs(50), "78.46.0.0/15", &[1, 666]));
        assert!(alarm.is_some());
        assert_eq!(m.late_records(), 1);
    }

    fn withdraw(at: SimTime, prefix: &str) -> UpdateRecord {
        UpdateRecord {
            at,
            session: SessionId(0),
            msg: UpdateMessage::Withdraw(p(prefix)),
        }
    }

    #[test]
    fn empty_path_announce_is_quarantined_without_touching_state() {
        let mut m = monitor();
        let rec = ann(SimTime::from_secs(10), "78.46.0.0/15", &[]);
        assert!(m.ingest(&rec).is_none());
        // No monitor state was touched: the session is unknown, the
        // stream clock never started, nothing was counted as late.
        assert_eq!(m.live_sessions(SimTime::from_secs(10)), 0);
        assert!(m.stale_sessions(SimTime::from_secs(10)).is_empty());
        assert_eq!(m.alarms().len(), 0);
        // The record is retained for post-mortem.
        let dead: Vec<_> = m.dead_letters().collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].reason, QuarantineReason::EmptyPath);
        assert_eq!(dead[0].record, rec);
        // A normal record afterwards processes fine.
        assert!(m
            .ingest(&ann(SimTime::from_secs(11), "78.46.0.0/15", &[1, 20, 24940]))
            .is_none());
        assert_eq!(m.live_sessions(SimTime::from_secs(11)), 1);
    }

    #[test]
    fn out_of_horizon_records_are_quarantined() {
        let mut m = StreamingMonitor::new(
            [(p("78.46.0.0/15"), Asn(24940))],
            MonitorConfig {
                horizon_end: Some(SimTime::from_secs(100)),
                ..Default::default()
            },
        );
        // In-horizon records (boundary inclusive) process normally.
        assert!(m
            .ingest(&ann(SimTime::from_secs(100), "78.46.0.0/15", &[1, 20, 24940]))
            .is_none());
        assert_eq!(m.dead_letters().count(), 0);
        // Past the horizon: quarantined, even a would-be alarm. A
        // withdraw past the horizon is quarantined too.
        assert!(m.ingest(&ann(SimTime::from_secs(101), "78.46.0.0/15", &[666])).is_none());
        assert!(m.ingest(&withdraw(SimTime::from_secs(200), "78.46.0.0/15")).is_none());
        let dead: Vec<_> = m.dead_letters().collect();
        assert_eq!(dead.len(), 2);
        assert!(dead
            .iter()
            .all(|d| d.reason == QuarantineReason::OutOfHorizon));
        assert_eq!(m.alarms().len(), 0);
    }

    #[test]
    fn dead_letter_buffer_is_bounded_with_eviction_count() {
        let mut m = StreamingMonitor::new(
            [(p("78.46.0.0/15"), Asn(24940))],
            MonitorConfig {
                quarantine_capacity: 2,
                ..Default::default()
            },
        );
        for i in 0..5 {
            m.ingest(&ann(SimTime::from_secs(i), "10.0.0.0/8", &[]));
        }
        assert_eq!(m.dead_letters().count(), 2);
        assert_eq!(m.dead_letter_evictions(), 3);
        // Oldest evicted first: seconds 3 and 4 remain.
        let kept: Vec<u64> = m.dead_letters().map(|d| d.record.at.0).collect();
        assert_eq!(
            kept,
            vec![SimTime::from_secs(3).0, SimTime::from_secs(4).0]
        );
    }

    #[test]
    fn quarantine_is_observable() {
        use quicksand_obs::metrics::{Key, Registry};
        let metrics = std::sync::Arc::new(Registry::new());
        obs::with_metrics(metrics.clone(), || {
            let mut m = monitor();
            m.ingest(&ann(SimTime::from_secs(1), "10.0.0.0/8", &[]));
        });
        assert_eq!(
            metrics.counter_value(Key::stage("monitor", "dead_letters")),
            1
        );
    }

    #[test]
    fn state_roundtrips_through_export_import() {
        let mut m = monitor();
        m.register_sessions((0..3).map(SessionId));
        m.ingest(&ann(SimTime::from_secs(0), "78.46.0.0/15", &[1, 20, 24940]));
        m.ingest(&ann_on(SimTime::from_secs(50), 1, "10.0.0.0/8", &[1, 2]));
        m.ingest(&ann(SimTime::from_secs(60), "78.46.0.0/15", &[1, 666]))
            .expect("origin alarm");
        // A late record so the counter is non-trivial.
        m.ingest(&ann(SimTime::from_secs(5), "10.0.0.0/8", &[3, 4]));
        let state = m.export_state();

        let mut fresh = monitor();
        fresh.import_state(&state).unwrap();
        assert_eq!(fresh.export_state(), state);
        assert_eq!(fresh.alarms(), m.alarms());
        assert_eq!(fresh.late_records(), m.late_records());
        assert_eq!(
            fresh.confidence(SimTime::from_secs(60)),
            m.confidence(SimTime::from_secs(60))
        );
        // The restored monitor continues identically: the same splice
        // after warmup alarms on both.
        let later = SimTime::ZERO + SimDuration::from_days(2);
        let splice = ann(later, "78.46.0.0/15", &[2, 777, 24940]);
        assert_eq!(m.ingest(&splice), fresh.ingest(&splice));
        assert_eq!(m.export_state(), fresh.export_state());
    }

    #[test]
    fn import_rejects_inconsistent_state() {
        let mut m = monitor();
        m.ingest(&ann(SimTime::from_secs(60), "78.46.0.0/15", &[1, 666]))
            .expect("alarm");
        let mut state = m.export_state();
        state.alarm_confidence.push(0.5);
        let mut fresh = monitor();
        assert!(matches!(
            fresh.import_state(&state),
            Err(QuicksandError::ResumeMismatch {
                what: "alarm_confidence",
                ..
            })
        ));
    }

    #[test]
    fn more_specific_flagged_online() {
        let mut m = monitor();
        let alarm = m
            .ingest(&ann(SimTime::from_secs(5), "78.46.128.0/17", &[1, 666]))
            .expect("more-specific alarm");
        assert!(matches!(alarm.kind, AlarmKind::MoreSpecific { .. }));
        // The advisory is attached to the announced (bogus) prefix.
        assert!(m.is_flagged(&p("78.46.128.0/17"), SimTime::from_secs(6)));
    }
}
