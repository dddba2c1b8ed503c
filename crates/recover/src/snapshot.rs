//! The checkpoint snapshot: what a mid-horizon pipeline moment *is*,
//! and its versioned, CRC-checksummed wire format.
//!
//! A [`PipelineSnapshot`] deliberately stores the *small, irreducible*
//! state and leans on determinism for the rest:
//!
//! * Routing state is the set of currently-down links, not the routing
//!   trees — `FastConverge` provably reconstructs identical
//!   post-convergence paths by replaying `LinkChange::down` for each
//!   pair onto a fresh instance (cross-validated against full
//!   recomputation in the bgp test suite).
//! * The churn schedule is not stored at all: `ChurnGenerator` is a
//!   pure function of its seed, so the cursor (events fully processed)
//!   suffices to resume exactly.
//! * The collector's session roster and reset schedule are regenerated
//!   by `Collector::new`; only its mutable state travels
//!   ([`CollectorState`]).
//! * The metrics registry travels so a resumed run's final counters
//!   are indistinguishable from an uninterrupted run's.
//!
//! ## Wire format (little-endian)
//!
//! ```text
//! magic     8 bytes   "QSCKPT01"
//! body:
//!   version     u32   (currently 1)
//!   config_hash u64   FNV-1a of the scenario configuration
//!   seed        u64
//!   cursor      u64   churn events fully processed
//!   n_sections  u32
//!   section     repeated: tag u8, len u64, payload…
//! crc       u32       CRC-32 (IEEE) over the body (not magic, not crc)
//! ```
//!
//! The CRC is verified *before* any section is parsed, so a flipped
//! byte anywhere past the magic surfaces as
//! [`CheckpointError::ChecksumMismatch`] — never as a confusing parse
//! error deeper in, and never as silently-wrong state. Unknown section
//! tags are skipped (they were checksummed, so they are intact —
//! they're from a newer minor revision, not corruption).

use crate::codec::{CheckpointError, Dec, Enc};
use quicksand_attack::detect::{Alarm, AlarmKind};
use quicksand_attack::monitord::MonitorState;
use quicksand_bgp::{mrt, CollectorState, SessionId, UpdateLog};
use quicksand_net::frame::{crc32, crc32_combine};
use quicksand_net::{AsPath, Asn, Ipv4Prefix, SimTime};
use quicksand_obs as obs;

/// File magic: "QS" + checkpoint + format revision.
pub const MAGIC: &[u8; 8] = b"QSCKPT01";

/// Current body version.
pub const VERSION: u32 = 1;

const TAG_LINKS: u8 = 1;
const TAG_COLLECTOR: u8 = 2;
const TAG_LOG: u8 = 3;
const TAG_MONITOR: u8 = 4;
const TAG_METRICS: u8 = 5;

/// A captured metrics registry: counters and gauges keyed by
/// `(stage, name, session)`, in snapshot (BTreeMap) order.
///
/// Histograms are *not* captured: the only histograms the pipeline
/// records are wall-clock profiles, which are inherently
/// non-deterministic and excluded from resume-exact comparison anyway
/// (see `RunReport::normalized`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsState {
    /// `(stage, name, session, value)` per counter.
    pub counters: Vec<(String, String, Option<u32>, u64)>,
    /// `(stage, name, session, value)` per gauge.
    pub gauges: Vec<(String, String, Option<u32>, f64)>,
}

impl MetricsState {
    /// Capture `registry`'s counters and gauges, excluding the
    /// `recover` stage: checkpointing describes itself there, and an
    /// uninterrupted run has none of it, so restoring it would make the
    /// resumed run's report *differ* from the uninterrupted baseline.
    pub fn capture(registry: &quicksand_obs::metrics::Registry) -> MetricsState {
        let snap = registry.snapshot();
        MetricsState {
            counters: snap
                .counters
                .into_iter()
                .filter(|c| c.stage != "recover")
                .map(|c| (c.stage, c.name, c.session, c.value))
                .collect(),
            gauges: snap
                .gauges
                .into_iter()
                .filter(|g| g.stage != "recover")
                .map(|g| (g.stage, g.name, g.session, g.value))
                .collect(),
        }
    }

    /// Restore captured values into `registry` with SET semantics, so
    /// counters continue from exactly where the interrupted run left
    /// them and a resumed run's final totals match an uninterrupted
    /// run's.
    pub fn restore_into(&self, registry: &quicksand_obs::metrics::Registry) {
        use quicksand_obs::metrics::{intern, Key};
        for (stage, name, session, value) in &self.counters {
            let key = Key {
                stage: intern(stage),
                name: intern(name),
                session: *session,
            };
            registry.set_counter(key, *value);
        }
        for (stage, name, session, value) in &self.gauges {
            let key = Key {
                stage: intern(stage),
                name: intern(name),
                session: *session,
            };
            registry.gauge(key, *value);
        }
    }
}

/// Everything needed to resume a `run_month` exactly where it stopped.
#[derive(Clone, Debug, PartialEq)]
pub struct PipelineSnapshot {
    /// FNV-1a hash of the scenario configuration; a resume against a
    /// different configuration is refused up front.
    pub config_hash: u64,
    /// The scenario seed (redundant with the config hash, but kept
    /// readable for diagnostics).
    pub seed: u64,
    /// Churn events fully processed before this snapshot.
    pub cursor: u64,
    /// Links currently down, as `(lo, hi)` ASN pairs — the complete
    /// routing state, given the deterministic topology.
    pub down_links: Vec<(Asn, Asn)>,
    /// The collector's mutable state.
    pub collector: CollectorState,
    /// Every update recorded so far.
    pub log: UpdateLog,
    /// Streaming-monitor state, when a monitor rides along.
    pub monitor: Option<MonitorState>,
    /// The metrics registry at snapshot time (minus the `recover`
    /// stage, which describes checkpointing itself).
    pub metrics: MetricsState,
}

/// The encoded MRT log section of one run's checkpoints, kept between
/// saves so that each save encodes only the records appended since the
/// previous one (DESIGN.md §30).
///
/// It holds the log section's payload (the MRT magic and every record
/// encoded so far), the CRC-32 of that payload, and how many records it
/// has encoded. A fresh image is empty; [`PipelineSnapshot::encode`]
/// uses one per call. A hook that saves a run's snapshots keeps one
/// image for all of them: the replay's snapshot logs only grow
/// (DESIGN.md §23.3), so the records an image has encoded are a prefix
/// of every later snapshot's log. A resumed run starts a fresh image.
#[derive(Debug)]
pub struct LogImage {
    payload: Vec<u8>,
    crc: u32,
    records: usize,
}

impl Default for LogImage {
    fn default() -> Self {
        LogImage::new()
    }
}

impl LogImage {
    /// An image that has encoded no record: the MRT magic alone.
    pub fn new() -> LogImage {
        let mut payload = Vec::new();
        mrt::write_log(&UpdateLog::default(), &mut payload).expect("writing to memory cannot fail");
        let crc = crc32(&payload);
        LogImage {
            payload,
            crc,
            records: 0,
        }
    }

    /// Encode `log.records[self.records()..]` onto the payload and fold
    /// their bytes into the CRC. Each appended record is counted in the
    /// `recover` stage's `records_encoded`.
    ///
    /// Panics if the image has encoded more records than `log` holds.
    pub fn extend(&mut self, log: &UpdateLog) {
        assert!(
            self.records <= log.len(),
            "log image holds {} records, the snapshot's log only {}",
            self.records,
            log.len()
        );
        let start = self.payload.len();
        mrt::write_records(&log.records[self.records..], &mut self.payload)
            .expect("writing to memory cannot fail");
        let appended = &self.payload[start..];
        self.crc = crc32_combine(self.crc, crc32(appended), appended.len() as u64);
        obs::incr(
            "recover",
            "records_encoded",
            (log.len() - self.records) as u64,
        );
        self.records = log.len();
    }

    /// The log section's payload so far.
    pub fn bytes(&self) -> &[u8] {
        &self.payload
    }

    /// The CRC-32 of [`LogImage::bytes`].
    pub(crate) fn crc(&self) -> u32 {
        self.crc
    }

    /// How many records of the log the image has encoded.
    pub fn records(&self) -> usize {
        self.records
    }
}

impl PipelineSnapshot {
    /// Serialize to the checkpoint wire format: the head, a fresh
    /// [`LogImage`] of the whole log, and the tail, as
    /// [`PipelineSnapshot::encode_parts`] lays them out.
    pub fn encode(&self) -> Vec<u8> {
        let mut image = LogImage::new();
        let (mut out, tail) = self.encode_parts(&mut image);
        out.extend_from_slice(image.bytes());
        out.extend_from_slice(&tail);
        out
    }

    /// The checkpoint bytes as `head ‖ image ‖ tail`, after extending
    /// `image` over the records of `self.log` it has not yet encoded.
    ///
    /// The head runs from the magic through the log section's tag and
    /// length; the image's bytes are the log section's payload; the
    /// tail holds the sections after it and the CRC trailer. The body
    /// CRC is combined from the three parts' CRCs, so the image, which
    /// holds nearly all of the bytes, is never re-read (DESIGN.md §30).
    ///
    /// Panics if `image` has encoded more records than `self.log` holds:
    /// an image follows one run's snapshots, whose logs only grow.
    pub fn encode_parts(&self, image: &mut LogImage) -> (Vec<u8>, Vec<u8>) {
        image.extend(&self.log);

        let mut head = Enc::new();
        head.bytes(MAGIC);
        head.u32(VERSION);
        head.u64(self.config_hash);
        head.u64(self.seed);
        head.u64(self.cursor);
        let n_sections = 4 + u32::from(self.monitor.is_some());
        head.u32(n_sections);
        section(&mut head, TAG_LINKS, |e| {
            e.u64(self.down_links.len() as u64);
            for &(a, b) in &self.down_links {
                e.u32(a.0);
                e.u32(b.0);
            }
        });
        section(&mut head, TAG_COLLECTOR, |e| {
            encode_collector(e, &self.collector)
        });
        head.u8(TAG_LOG);
        head.u64(image.bytes().len() as u64);

        let mut tail = Enc::new();
        if let Some(m) = &self.monitor {
            section(&mut tail, TAG_MONITOR, |e| encode_monitor(e, m));
        }
        section(&mut tail, TAG_METRICS, |e| encode_metrics(e, &self.metrics));

        let body_head = crc32(&head.as_bytes()[MAGIC.len()..]);
        let with_log = crc32_combine(body_head, image.crc(), image.bytes().len() as u64);
        let crc = crc32_combine(with_log, crc32(tail.as_bytes()), tail.len() as u64);
        tail.u32(crc);
        (head.into_bytes(), tail.into_bytes())
    }

    /// Deserialize from the checkpoint wire format, verifying the CRC
    /// before interpreting a single section byte.
    pub fn decode(bytes: &[u8]) -> Result<PipelineSnapshot, CheckpointError> {
        if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        if bytes.len() < MAGIC.len() + 4 {
            return Err(CheckpointError::Truncated("crc trailer"));
        }
        let body = &bytes[MAGIC.len()..bytes.len() - 4];
        let stored = u32::from_le_bytes(
            bytes[bytes.len() - 4..].try_into().expect("4 bytes"),
        );
        let computed = crc32(body);
        if stored != computed {
            return Err(CheckpointError::ChecksumMismatch { stored, computed });
        }

        let mut d = Dec::new(body);
        let version = d.u32("version")?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let config_hash = d.u64("config_hash")?;
        let seed = d.u64("seed")?;
        let cursor = d.u64("cursor")?;
        let n_sections = d.u32("n_sections")?;

        let mut down_links = None;
        let mut collector = None;
        let mut log = None;
        let mut monitor = None;
        let mut metrics = None;
        for _ in 0..n_sections {
            let tag = d.u8("section tag")?;
            let len = d.u64("section length")? as usize;
            let payload = d.take(len, "section payload")?;
            let mut s = Dec::new(payload);
            match tag {
                TAG_LINKS => {
                    let n = s.count(8, "down links")?;
                    let mut links = Vec::with_capacity(n);
                    for _ in 0..n {
                        links.push((Asn(s.u32("link a")?), Asn(s.u32("link b")?)));
                    }
                    s.finish("links section")?;
                    down_links = Some(links);
                }
                TAG_COLLECTOR => {
                    collector = Some(decode_collector(&mut s)?);
                    s.finish("collector section")?;
                }
                TAG_LOG => {
                    let parsed = mrt::read_log(&mut { payload })
                        .map_err(|_| CheckpointError::Malformed("update log"))?;
                    log = Some(parsed);
                }
                TAG_MONITOR => {
                    monitor = Some(decode_monitor(&mut s)?);
                    s.finish("monitor section")?;
                }
                TAG_METRICS => {
                    metrics = Some(decode_metrics(&mut s)?);
                    s.finish("metrics section")?;
                }
                // Checksummed but unknown: a newer minor revision's
                // extra section, not corruption. Skip it.
                _ => {}
            }
        }
        d.finish("body")?;

        Ok(PipelineSnapshot {
            config_hash,
            seed,
            cursor,
            down_links: down_links
                .ok_or(CheckpointError::Malformed("missing links section"))?,
            collector: collector
                .ok_or(CheckpointError::Malformed("missing collector section"))?,
            log: log.ok_or(CheckpointError::Malformed("missing log section"))?,
            monitor,
            metrics: metrics
                .ok_or(CheckpointError::Malformed("missing metrics section"))?,
        })
    }
}

/// Append one `tag, len, payload` section whose payload `fill` writes
/// in place after a length placeholder, patched once the payload's size
/// is known.
fn section(out: &mut Enc, tag: u8, fill: impl FnOnce(&mut Enc)) {
    out.u8(tag);
    let len_at = out.len();
    out.u64(0);
    fill(out);
    let len = out.len() - len_at - 8;
    out.patch_u64(len_at, len as u64);
}

fn encode_prefix(e: &mut Enc, p: &Ipv4Prefix) {
    e.u32(p.network_u32());
    e.u8(p.len());
}

fn decode_prefix(d: &mut Dec<'_>, what: &'static str) -> Result<Ipv4Prefix, CheckpointError> {
    let net = d.u32(what)?;
    let len = d.u8(what)?;
    if len > 32 {
        return Err(CheckpointError::Malformed(what));
    }
    Ok(Ipv4Prefix::from_u32(net, len))
}

fn encode_path(e: &mut Enc, path: &AsPath) {
    let asns = path.asns();
    e.u16(asns.len() as u16);
    for a in asns {
        e.u32(a.0);
    }
}

/// Decode one path, reading its hops into the reused `asns` scratch so
/// the path itself is the only allocation.
fn decode_path(d: &mut Dec<'_>, asns: &mut Vec<Asn>) -> Result<AsPath, CheckpointError> {
    let n = d.u16("path length")? as usize;
    asns.clear();
    for _ in 0..n {
        asns.push(Asn(d.u32("path asn")?));
    }
    Ok(AsPath::from_asns(asns.iter().copied()))
}

fn encode_collector(e: &mut Enc, c: &CollectorState) {
    e.u64(c.routes.len() as u64);
    for (sess, prefix, path) in &c.routes {
        e.u32(*sess);
        encode_prefix(e, prefix);
        encode_path(e, path);
    }
    e.u64(c.resets_done);
    // The liveness section: one tag per session, and every session is
    // up (tag 0). Tag 1 once marked a downed session of the retired
    // collector lifecycle; the layout is kept so `VERSION` stands.
    e.u64(c.sessions as u64);
    for _ in 0..c.sessions {
        e.u8(0);
    }
}

fn decode_collector(d: &mut Dec<'_>) -> Result<CollectorState, CheckpointError> {
    let n = d.count(11, "routes")?;
    let mut routes = Vec::with_capacity(n);
    let mut asns = Vec::new();
    for _ in 0..n {
        let sess = d.u32("route session")?;
        let prefix = decode_prefix(d, "route prefix")?;
        let path = decode_path(d, &mut asns)?;
        routes.push((sess, prefix, path));
    }
    let resets_done = d.u64("resets_done")?;
    let sessions = d.count(1, "liveness")?;
    for _ in 0..sessions {
        if d.u8("liveness tag")? != 0 {
            return Err(CheckpointError::Malformed("liveness tag"));
        }
    }
    Ok(CollectorState {
        routes,
        resets_done,
        sessions,
    })
}

fn encode_alarm(e: &mut Enc, a: &Alarm) {
    e.u64(a.at.0);
    encode_prefix(e, &a.prefix);
    match a.kind {
        AlarmKind::OriginChange { seen_origin } => {
            e.u8(1);
            e.u32(seen_origin.0);
        }
        AlarmKind::MoreSpecific { covering } => {
            e.u8(2);
            encode_prefix(e, &covering);
        }
        AlarmKind::NewUpstream { upstream } => {
            e.u8(3);
            e.u32(upstream.0);
        }
    }
}

fn decode_alarm(d: &mut Dec<'_>) -> Result<Alarm, CheckpointError> {
    let at = SimTime(d.u64("alarm at")?);
    let prefix = decode_prefix(d, "alarm prefix")?;
    let kind = match d.u8("alarm kind")? {
        1 => AlarmKind::OriginChange {
            seen_origin: Asn(d.u32("seen origin")?),
        },
        2 => AlarmKind::MoreSpecific {
            covering: decode_prefix(d, "covering prefix")?,
        },
        3 => AlarmKind::NewUpstream {
            upstream: Asn(d.u32("upstream")?),
        },
        _ => return Err(CheckpointError::Malformed("alarm kind")),
    };
    Ok(Alarm { at, prefix, kind })
}

fn encode_monitor(e: &mut Enc, m: &MonitorState) {
    e.u64(m.upstreams.len() as u64);
    for (prefix, asns) in &m.upstreams {
        encode_prefix(e, prefix);
        e.u64(asns.len() as u64);
        for a in asns {
            e.u32(a.0);
        }
    }
    e.u64(m.advisories.len() as u64);
    for (prefix, raised, last) in &m.advisories {
        encode_prefix(e, prefix);
        e.u64(raised.0);
        e.u64(last.0);
    }
    e.u64(m.alarms.len() as u64);
    for a in &m.alarms {
        encode_alarm(e, a);
    }
    e.u64(m.alarm_confidence.len() as u64);
    for &c in &m.alarm_confidence {
        e.f64(c);
    }
    match m.started_at {
        None => e.u8(0),
        Some(t) => {
            e.u8(1);
            e.u64(t.0);
        }
    }
    e.u64(m.expected_sessions.len() as u64);
    for s in &m.expected_sessions {
        e.u32(s.0);
    }
    e.u64(m.last_seen.len() as u64);
    for (s, t) in &m.last_seen {
        e.u32(s.0);
        e.u64(t.0);
    }
    e.u64(m.high_water.0);
    e.u64(m.late_records);
}

fn decode_monitor(d: &mut Dec<'_>) -> Result<MonitorState, CheckpointError> {
    let n = d.count(13, "upstreams")?;
    let mut upstreams = Vec::with_capacity(n);
    for _ in 0..n {
        let prefix = decode_prefix(d, "upstream prefix")?;
        let m = d.count(4, "upstream asns")?;
        let mut asns = Vec::with_capacity(m);
        for _ in 0..m {
            asns.push(Asn(d.u32("upstream asn")?));
        }
        upstreams.push((prefix, asns));
    }
    let n = d.count(21, "advisories")?;
    let mut advisories = Vec::with_capacity(n);
    for _ in 0..n {
        let prefix = decode_prefix(d, "advisory prefix")?;
        let raised = SimTime(d.u64("advisory raised")?);
        let last = SimTime(d.u64("advisory last")?);
        advisories.push((prefix, raised, last));
    }
    let n = d.count(14, "alarms")?;
    let mut alarms = Vec::with_capacity(n);
    for _ in 0..n {
        alarms.push(decode_alarm(d)?);
    }
    let n = d.count(8, "alarm confidences")?;
    let mut alarm_confidence = Vec::with_capacity(n);
    for _ in 0..n {
        alarm_confidence.push(d.f64("alarm confidence")?);
    }
    let started_at = match d.u8("started_at tag")? {
        0 => None,
        1 => Some(SimTime(d.u64("started_at")?)),
        _ => return Err(CheckpointError::Malformed("started_at tag")),
    };
    let n = d.count(4, "expected sessions")?;
    let mut expected_sessions = Vec::with_capacity(n);
    for _ in 0..n {
        expected_sessions.push(SessionId(d.u32("expected session")?));
    }
    let n = d.count(12, "last seen")?;
    let mut last_seen = Vec::with_capacity(n);
    for _ in 0..n {
        let s = SessionId(d.u32("last seen session")?);
        let t = SimTime(d.u64("last seen time")?);
        last_seen.push((s, t));
    }
    let high_water = SimTime(d.u64("high water")?);
    let late_records = d.u64("late records")?;
    Ok(MonitorState {
        upstreams,
        advisories,
        alarms,
        alarm_confidence,
        started_at,
        expected_sessions,
        last_seen,
        high_water,
        late_records,
    })
}

fn encode_metrics(e: &mut Enc, m: &MetricsState) {
    e.u64(m.counters.len() as u64);
    for (stage, name, session, value) in &m.counters {
        e.str16(stage);
        e.str16(name);
        match session {
            None => e.u8(0),
            Some(s) => {
                e.u8(1);
                e.u32(*s);
            }
        }
        e.u64(*value);
    }
    e.u64(m.gauges.len() as u64);
    for (stage, name, session, value) in &m.gauges {
        e.str16(stage);
        e.str16(name);
        match session {
            None => e.u8(0),
            Some(s) => {
                e.u8(1);
                e.u32(*s);
            }
        }
        e.f64(*value);
    }
}

fn decode_metrics(d: &mut Dec<'_>) -> Result<MetricsState, CheckpointError> {
    let n = d.count(13, "counters")?;
    let mut counters = Vec::with_capacity(n);
    for _ in 0..n {
        let stage = d.str16("counter stage")?;
        let name = d.str16("counter name")?;
        let session = decode_session(d, "counter session")?;
        let value = d.u64("counter value")?;
        counters.push((stage, name, session, value));
    }
    let n = d.count(13, "gauges")?;
    let mut gauges = Vec::with_capacity(n);
    for _ in 0..n {
        let stage = d.str16("gauge stage")?;
        let name = d.str16("gauge name")?;
        let session = decode_session(d, "gauge session")?;
        let value = d.f64("gauge value")?;
        gauges.push((stage, name, session, value));
    }
    Ok(MetricsState { counters, gauges })
}

fn decode_session(
    d: &mut Dec<'_>,
    what: &'static str,
) -> Result<Option<u32>, CheckpointError> {
    match d.u8(what)? {
        0 => Ok(None),
        1 => Ok(Some(d.u32(what)?)),
        _ => Err(CheckpointError::Malformed(what)),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use quicksand_bgp::{Route, UpdateMessage, UpdateRecord};

    pub(crate) fn sample_snapshot() -> PipelineSnapshot {
        let p1: Ipv4Prefix = "78.46.0.0/15".parse().unwrap();
        let p2: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        PipelineSnapshot {
            config_hash: 0xDEAD_BEEF_CAFE_F00D,
            seed: 42,
            cursor: 17,
            down_links: vec![(Asn(1), Asn(2)), (Asn(7), Asn(24940))],
            collector: CollectorState {
                routes: vec![
                    (0, p1, AsPath::from_asns(vec![Asn(3356), Asn(24940)])),
                    (2, p2, AsPath::from_asns(vec![Asn(1)])),
                ],
                resets_done: 3,
                sessions: 3,
            },
            log: UpdateLog {
                records: vec![UpdateRecord {
                    at: SimTime::from_secs(5),
                    session: SessionId(0),
                    msg: UpdateMessage::Announce(Route {
                        prefix: p1,
                        as_path: AsPath::from_asns(vec![Asn(1), Asn(24940)]),
                        communities: Default::default(),
                    }),
                }],
            },
            monitor: Some(MonitorState {
                upstreams: vec![(p1, vec![Asn(3356)])],
                advisories: vec![(p2, SimTime::from_secs(9), SimTime::from_secs(11))],
                alarms: vec![Alarm {
                    at: SimTime::from_secs(11),
                    prefix: p2,
                    kind: AlarmKind::MoreSpecific { covering: p1 },
                }],
                alarm_confidence: vec![0.75],
                started_at: Some(SimTime::from_secs(5)),
                expected_sessions: vec![SessionId(0), SessionId(1)],
                last_seen: vec![(SessionId(0), SimTime::from_secs(11))],
                high_water: SimTime::from_secs(11),
                late_records: 1,
            }),
            metrics: MetricsState {
                counters: vec![
                    ("churn".into(), "events".into(), None, 17),
                    ("collector".into(), "records".into(), Some(0), 9),
                ],
                gauges: vec![("monitor".into(), "confidence".into(), None, 0.75)],
            },
        }
    }

    #[test]
    fn snapshot_roundtrips() {
        let snap = sample_snapshot();
        let bytes = snap.encode();
        let back = PipelineSnapshot::decode(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshot_without_monitor_roundtrips() {
        let mut snap = sample_snapshot();
        snap.monitor = None;
        let back = PipelineSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let snap = sample_snapshot();
        let bytes = snap.encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            let err = PipelineSnapshot::decode(&bad)
                .expect_err("flipped byte must not decode");
            if i < MAGIC.len() {
                assert!(matches!(err, CheckpointError::BadMagic), "byte {i}: {err}");
            } else {
                assert!(
                    matches!(err, CheckpointError::ChecksumMismatch { .. }),
                    "byte {i}: {err}"
                );
            }
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample_snapshot().encode();
        for cut in [0, 4, 8, 11, bytes.len() - 1] {
            assert!(PipelineSnapshot::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn future_version_is_refused() {
        let snap = sample_snapshot();
        let mut bytes = snap.encode();
        // Bump the version field (first 4 body bytes) and re-seal the
        // CRC so only the version check can object.
        bytes[8] = 99;
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[8..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&crc);
        assert!(matches!(
            PipelineSnapshot::decode(&bytes),
            Err(CheckpointError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn liveness_tag_other_than_up_is_malformed() {
        let snap = sample_snapshot();
        let mut bytes = snap.encode();
        // Walk the sections to the end of the collector payload, whose
        // last `sessions` bytes are the liveness tags.
        let mut pos = MAGIC.len() + 4 + 8 + 8 + 8 + 4;
        loop {
            let tag = bytes[pos];
            let len = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().unwrap());
            pos += 9 + len as usize;
            if tag == TAG_COLLECTOR {
                break;
            }
        }
        let first_tag = pos - snap.collector.sessions;
        let body_len = bytes.len() - 4;
        for bad in [1u8, 2, 0xFF] {
            // Re-seal the CRC so only the tag check can object.
            bytes[first_tag] = bad;
            let crc = crc32(&bytes[MAGIC.len()..body_len]).to_le_bytes();
            bytes[body_len..].copy_from_slice(&crc);
            assert!(
                matches!(
                    PipelineSnapshot::decode(&bytes),
                    Err(CheckpointError::Malformed("liveness tag"))
                ),
                "tag {bad}"
            );
        }
    }

    #[test]
    fn empty_input_is_bad_magic() {
        assert!(matches!(
            PipelineSnapshot::decode(&[]),
            Err(CheckpointError::BadMagic)
        ));
    }
}
