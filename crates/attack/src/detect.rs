//! Control-plane monitoring of Tor-relay prefixes (§5).
//!
//! The paper proposes a monitoring framework "leveraging classical
//! techniques for detecting prefix hijacks and interception attacks
//! [11, 22, 29, 32–34]", with an explicitly false-positive-tolerant
//! posture: "for anonymity systems, false positives are much more
//! acceptable than false negatives, so we can afford to be aggressive in
//! classifying anomalies as attacks".
//!
//! [`PrefixMonitor`] consumes collector [`UpdateLog`]s and raises:
//!
//! * [`AlarmKind::OriginChange`] — an announcement whose origin AS is
//!   not the registered origin (MOAS conflict — the classic hijack
//!   signature).
//! * [`AlarmKind::MoreSpecific`] — an announcement strictly inside a
//!   registered prefix (sub-prefix hijack; §5 notes control-plane
//!   monitoring is "particularly effective" here, since all ASes
//!   eventually see the bogus more-specific).
//! * [`AlarmKind::NewUpstream`] — a path whose origin-adjacent AS was
//!   never seen during a training window (the interception signature:
//!   the attacker splices itself next to the victim).

use quicksand_bgp::{UpdateLog, UpdateMessage};
use quicksand_net::{Asn, Ipv4Prefix, SimTime};
use quicksand_obs as obs;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// What the monitor flagged.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum AlarmKind {
    /// Announcement of a registered prefix from a non-registered origin.
    OriginChange {
        /// The origin seen in the announcement.
        seen_origin: Asn,
    },
    /// Announcement of a strictly more specific prefix than a registered
    /// one.
    MoreSpecific {
        /// The covering registered prefix.
        covering: Ipv4Prefix,
    },
    /// The AS adjacent to the origin was never seen in training.
    NewUpstream {
        /// The unfamiliar origin-adjacent AS.
        upstream: Asn,
    },
}

impl AlarmKind {
    /// A stable, machine-readable name for the kind (used in obs events
    /// and run reports).
    pub fn label(&self) -> &'static str {
        match self {
            AlarmKind::OriginChange { .. } => "origin-change",
            AlarmKind::MoreSpecific { .. } => "more-specific",
            AlarmKind::NewUpstream { .. } => "new-upstream",
        }
    }
}

/// One raised alarm.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Alarm {
    /// When the triggering update was recorded.
    pub at: SimTime,
    /// The prefix in the triggering update.
    pub prefix: Ipv4Prefix,
    /// What was detected.
    pub kind: AlarmKind,
}

/// A monitor over a set of registered (protected) prefixes.
///
/// Train it on a clean log ([`PrefixMonitor::train`]) so it learns the
/// legitimate origin-adjacent ASes, then [`PrefixMonitor::scan`] a live
/// log for alarms. Registered prefixes that never appear in training are
/// still protected by the origin and more-specific checks.
#[derive(Clone, Debug, Default)]
pub struct PrefixMonitor {
    /// Registered prefix → legitimate origin.
    registered: BTreeMap<Ipv4Prefix, Asn>,
    /// Learned origin-adjacent ASes per prefix.
    upstreams: BTreeMap<Ipv4Prefix, BTreeSet<Asn>>,
}

impl PrefixMonitor {
    /// Create a monitor protecting `registered` (prefix → legitimate
    /// origin) — in the paper's design, the prefixes hosting guard and
    /// exit relays.
    pub fn new(registered: impl IntoIterator<Item = (Ipv4Prefix, Asn)>) -> Self {
        PrefixMonitor {
            registered: registered.into_iter().collect(),
            upstreams: BTreeMap::new(),
        }
    }

    /// Learn legitimate origin-adjacent ASes from a clean log.
    pub fn train(&mut self, log: &UpdateLog) {
        for r in &log.records {
            let UpdateMessage::Announce(route) = &r.msg else {
                continue;
            };
            let Some(&origin) = self.registered.get(&route.prefix) else {
                continue;
            };
            if route.as_path.origin() != Some(origin) {
                continue; // don't learn from already-bogus paths
            }
            let asns = route.as_path.asns();
            if asns.len() >= 2 {
                self.upstreams
                    .entry(route.prefix)
                    .or_default()
                    .insert(asns[asns.len() - 2]);
            }
        }
    }

    /// Scan a log and return all alarms, in log order.
    pub fn scan(&self, log: &UpdateLog) -> Vec<Alarm> {
        let _span = obs::prof::span("detect", "scan");
        let mut alarms = Vec::new();
        for r in &log.records {
            let UpdateMessage::Announce(route) = &r.msg else {
                continue;
            };
            // More-specific check against every registered covering
            // prefix (registered prefixes themselves are exempt).
            if !self.registered.contains_key(&route.prefix) {
                for &covering in self.registered.keys() {
                    if route.prefix.is_more_specific_than(&covering) {
                        alarms.push(Alarm {
                            at: r.at,
                            prefix: route.prefix,
                            kind: AlarmKind::MoreSpecific { covering },
                        });
                        break;
                    }
                }
                continue;
            }
            let origin = self.registered[&route.prefix];
            match route.as_path.origin() {
                Some(seen) if seen != origin => {
                    alarms.push(Alarm {
                        at: r.at,
                        prefix: route.prefix,
                        kind: AlarmKind::OriginChange { seen_origin: seen },
                    });
                    continue;
                }
                _ => {}
            }
            // New-upstream check (only when we have training data).
            if let Some(known) = self.upstreams.get(&route.prefix) {
                let asns = route.as_path.asns();
                if asns.len() >= 2 {
                    let upstream = asns[asns.len() - 2];
                    if !known.contains(&upstream) {
                        alarms.push(Alarm {
                            at: r.at,
                            prefix: route.prefix,
                            kind: AlarmKind::NewUpstream { upstream },
                        });
                    }
                }
            }
        }
        obs::incr("detect", "scans", 1);
        obs::incr("detect", "scan_alarms", alarms.len() as u64);
        alarms
    }
}

/// Precision/recall of a monitor run against ground truth: `relevant`
/// is the set of (prefix, was-attacked) labels; an alarm is a true
/// positive when its prefix is labeled attacked.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DetectionScore {
    /// Alarms on genuinely attacked prefixes.
    pub true_positives: usize,
    /// Alarms on clean prefixes.
    pub false_positives: usize,
    /// Attacked prefixes with no alarm at all.
    pub false_negatives: usize,
}

impl DetectionScore {
    /// Score alarms against the set of attacked prefixes.
    pub fn score(alarms: &[Alarm], attacked: &BTreeSet<Ipv4Prefix>) -> DetectionScore {
        // An alarm for a more-specific counts for its covering prefix.
        let alarm_targets: BTreeSet<Ipv4Prefix> = alarms
            .iter()
            .map(|a| match a.kind {
                AlarmKind::MoreSpecific { covering } => covering,
                _ => a.prefix,
            })
            .collect();
        let true_positives = alarm_targets.intersection(attacked).count();
        let false_positives = alarm_targets.difference(attacked).count();
        let false_negatives = attacked.difference(&alarm_targets).count();
        DetectionScore {
            true_positives,
            false_positives,
            false_negatives,
        }
    }

    /// TP / (TP + FP); 1.0 when no alarms fired.
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// TP / (TP + FN); 1.0 when nothing was attacked.
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicksand_bgp::{Route, SessionId, UpdateRecord};
    use quicksand_net::AsPath;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn ann(at_s: u64, prefix: &str, asns: &[u32]) -> UpdateRecord {
        UpdateRecord {
            at: SimTime::from_secs(at_s),
            session: SessionId(0),
            msg: UpdateMessage::Announce(Route {
                prefix: p(prefix),
                as_path: asns.iter().map(|&a| Asn(a)).collect::<AsPath>(),
                communities: Default::default(),
            }),
        }
    }

    fn monitor() -> PrefixMonitor {
        let mut m = PrefixMonitor::new([(p("78.46.0.0/15"), Asn(24940))]);
        let training = UpdateLog {
            records: vec![
                ann(0, "78.46.0.0/15", &[10, 20, 24940]),
                ann(10, "78.46.0.0/15", &[11, 21, 24940]),
            ],
        };
        m.train(&training);
        m
    }

    #[test]
    fn origin_change_detected() {
        let m = monitor();
        let log = UpdateLog {
            records: vec![ann(100, "78.46.0.0/15", &[10, 20, 666])],
        };
        let alarms = m.scan(&log);
        assert_eq!(alarms.len(), 1);
        assert_eq!(
            alarms[0].kind,
            AlarmKind::OriginChange {
                seen_origin: Asn(666)
            }
        );
    }

    #[test]
    fn more_specific_detected() {
        let m = monitor();
        let log = UpdateLog {
            records: vec![ann(100, "78.46.128.0/17", &[10, 666])],
        };
        let alarms = m.scan(&log);
        assert_eq!(alarms.len(), 1);
        assert!(matches!(alarms[0].kind, AlarmKind::MoreSpecific { .. }));
    }

    #[test]
    fn new_upstream_detected_known_upstream_clean() {
        let m = monitor();
        // Known upstream 20: clean.
        let clean = UpdateLog {
            records: vec![ann(100, "78.46.0.0/15", &[12, 20, 24940])],
        };
        assert!(m.scan(&clean).is_empty());
        // Unknown upstream 666 adjacent to the origin: alarm (the
        // interception splice signature).
        let spliced = UpdateLog {
            records: vec![ann(100, "78.46.0.0/15", &[12, 666, 24940])],
        };
        let alarms = m.scan(&spliced);
        assert_eq!(alarms.len(), 1);
        assert_eq!(
            alarms[0].kind,
            AlarmKind::NewUpstream {
                upstream: Asn(666)
            }
        );
    }

    #[test]
    fn unregistered_prefixes_ignored() {
        let m = monitor();
        let log = UpdateLog {
            records: vec![ann(100, "10.0.0.0/8", &[10, 666])],
        };
        assert!(m.scan(&log).is_empty());
    }

    #[test]
    fn scoring_precision_recall() {
        let alarms = vec![
            Alarm {
                at: SimTime::ZERO,
                prefix: p("78.46.0.0/15"),
                kind: AlarmKind::OriginChange {
                    seen_origin: Asn(666),
                },
            },
            Alarm {
                at: SimTime::ZERO,
                prefix: p("10.0.0.0/8"),
                kind: AlarmKind::OriginChange {
                    seen_origin: Asn(7),
                },
            },
        ];
        let attacked: BTreeSet<Ipv4Prefix> =
            [p("78.46.0.0/15"), p("12.0.0.0/8")].into_iter().collect();
        let s = DetectionScore::score(&alarms, &attacked);
        assert_eq!(s.true_positives, 1);
        assert_eq!(s.false_positives, 1);
        assert_eq!(s.false_negatives, 1);
        assert_eq!(s.precision(), 0.5);
        assert_eq!(s.recall(), 0.5);
        // Degenerate cases.
        let empty = DetectionScore::score(&[], &BTreeSet::new());
        assert_eq!(empty.precision(), 1.0);
        assert_eq!(empty.recall(), 1.0);
    }
}
