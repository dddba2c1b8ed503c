//! Property tests for the checkpoint wire format: arbitrary pipeline
//! states round-trip bit-exactly, and *any* single-byte corruption is
//! rejected with a typed error — never a panic, never silently-wrong
//! state. These are the ISSUE-level guarantees the unit tests spot-check
//! with one hand-built snapshot; here proptest searches the state space.

use proptest::prelude::*;
use quicksand_attack::detect::{Alarm, AlarmKind};
use quicksand_attack::monitord::MonitorState;
use quicksand_bgp::{
    Community, CollectorState, Route, SessionId, UpdateLog, UpdateMessage, UpdateRecord,
};
use quicksand_net::frame::crc32;
use quicksand_net::{AsPath, Asn, Ipv4Prefix, SimTime};
use quicksand_recover::{CheckpointError, LogImage, MetricsState, PipelineSnapshot, MAGIC};

fn arb_asn() -> impl Strategy<Value = Asn> {
    any::<u32>().prop_map(Asn)
}

fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    // from_u32 masks host bits, so these are canonical — the only form
    // the pipeline ever produces and the only form the codec stores.
    (any::<u32>(), 0u8..=32).prop_map(|(net, len)| Ipv4Prefix::from_u32(net, len))
}

fn arb_path() -> impl Strategy<Value = AsPath> {
    prop::collection::vec(arb_asn(), 0..6).prop_map(AsPath::from_asns)
}

fn arb_time() -> impl Strategy<Value = SimTime> {
    any::<u64>().prop_map(SimTime)
}

fn arb_community() -> impl Strategy<Value = Community> {
    prop_oneof![
        Just(Community::NoExport),
        arb_asn().prop_map(Community::NoExportTo),
        any::<u32>().prop_map(Community::Opaque),
    ]
}

fn arb_record() -> impl Strategy<Value = UpdateRecord> {
    let announce = (
        arb_prefix(),
        arb_path(),
        prop::collection::btree_set(arb_community(), 0..4),
    )
        .prop_map(|(prefix, as_path, communities)| {
            UpdateMessage::Announce(Route {
                prefix,
                as_path,
                communities,
            })
        });
    let msg = prop_oneof![announce, arb_prefix().prop_map(UpdateMessage::Withdraw)];
    (arb_time(), any::<u32>(), msg).prop_map(|(at, session, msg)| UpdateRecord {
        at,
        session: SessionId(session),
        msg,
    })
}

fn arb_collector() -> impl Strategy<Value = CollectorState> {
    (
        prop::collection::vec((any::<u32>(), arb_prefix(), arb_path()), 0..5),
        any::<u64>(),
        0usize..4,
    )
        .prop_map(|(routes, resets_done, sessions)| CollectorState {
            routes,
            resets_done,
            sessions,
        })
}

fn arb_alarm() -> impl Strategy<Value = Alarm> {
    let kind = prop_oneof![
        arb_asn().prop_map(|seen_origin| AlarmKind::OriginChange { seen_origin }),
        arb_prefix().prop_map(|covering| AlarmKind::MoreSpecific { covering }),
        arb_asn().prop_map(|upstream| AlarmKind::NewUpstream { upstream }),
    ];
    (arb_time(), arb_prefix(), kind).prop_map(|(at, prefix, kind)| Alarm {
        at,
        prefix,
        kind,
    })
}

/// Finite floats only: the codec stores f64 bit patterns exactly, but a
/// NaN state could never satisfy the `decoded == original` equality this
/// suite asserts (and the pipeline never records one).
fn arb_f64() -> impl Strategy<Value = f64> {
    -1e12f64..1e12f64
}

fn arb_monitor() -> impl Strategy<Value = MonitorState> {
    (
        (
            prop::collection::vec(
                (arb_prefix(), prop::collection::vec(arb_asn(), 0..4)),
                0..4,
            ),
            prop::collection::vec((arb_prefix(), arb_time(), arb_time()), 0..4),
            prop::collection::vec(arb_alarm(), 0..4),
        ),
        (
            prop::collection::vec(arb_f64(), 0..4),
            prop::option::of(arb_time()),
            prop::collection::vec(any::<u32>().prop_map(SessionId), 0..4),
            prop::collection::vec((any::<u32>().prop_map(SessionId), arb_time()), 0..4),
            arb_time(),
            any::<u64>(),
        ),
    )
        .prop_map(
            |(
                (upstreams, advisories, alarms),
                (
                    alarm_confidence,
                    started_at,
                    expected_sessions,
                    last_seen,
                    high_water,
                    late_records,
                ),
            )| MonitorState {
                upstreams,
                advisories,
                alarms,
                alarm_confidence,
                started_at,
                expected_sessions,
                last_seen,
                high_water,
                late_records,
            },
        )
}

/// Short lowercase metric names (the codec length-prefixes strings, so
/// content is arbitrary — readability of failure output is all that
/// matters here).
fn arb_name() -> impl Strategy<Value = String> {
    prop::collection::vec(97u8..123, 0..8)
        .prop_map(|b| String::from_utf8(b).expect("generated ascii"))
}

fn arb_metrics() -> impl Strategy<Value = MetricsState> {
    (
        prop::collection::vec(
            (arb_name(), arb_name(), prop::option::of(any::<u32>()), any::<u64>()),
            0..5,
        ),
        prop::collection::vec(
            (arb_name(), arb_name(), prop::option::of(any::<u32>()), arb_f64()),
            0..5,
        ),
    )
        .prop_map(|(counters, gauges)| MetricsState { counters, gauges })
}

fn arb_snapshot() -> impl Strategy<Value = PipelineSnapshot> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>()),
        prop::collection::vec((arb_asn(), arb_asn()), 0..5),
        arb_collector(),
        prop::collection::vec(arb_record(), 0..6),
        prop::option::of(arb_monitor()),
        arb_metrics(),
    )
        .prop_map(
            |((config_hash, seed, cursor), down_links, collector, records, monitor, metrics)| {
                PipelineSnapshot {
                    config_hash,
                    seed,
                    cursor,
                    down_links,
                    collector,
                    log: UpdateLog { records },
                    monitor,
                    metrics,
                }
            },
        )
}

proptest! {
    /// Any reachable pipeline state encodes and decodes to an identical
    /// value — the checkpoint file *is* the state, losslessly.
    #[test]
    fn arbitrary_snapshot_roundtrips(snap in arb_snapshot()) {
        let bytes = snap.encode();
        let back = PipelineSnapshot::decode(&bytes).unwrap();
        prop_assert_eq!(back, snap);
    }

    /// Flipping any byte with any nonzero mask is caught: bad magic in
    /// the header, a checksum mismatch everywhere else. Crucially the
    /// decoder returns a typed error — it never panics and never parses
    /// corrupt sections (the CRC runs before interpretation).
    #[test]
    fn any_single_byte_corruption_is_rejected(
        snap in arb_snapshot(),
        idx in any::<prop::sample::Index>(),
        mask in 1u8..=255,
    ) {
        let mut bytes = snap.encode();
        let i = idx.index(bytes.len());
        bytes[i] ^= mask;
        let err = PipelineSnapshot::decode(&bytes)
            .expect_err("corrupted checkpoint must not decode");
        if i < MAGIC.len() {
            prop_assert!(matches!(err, CheckpointError::BadMagic), "byte {}: {}", i, err);
        } else {
            prop_assert!(
                matches!(err, CheckpointError::ChecksumMismatch { .. }),
                "byte {}: {}", i, err
            );
        }
    }

    /// Any truncation — mid-magic, mid-section, or one byte short of the
    /// CRC trailer — is an error, never a partial state.
    #[test]
    fn any_truncation_is_rejected(
        snap in arb_snapshot(),
        idx in any::<prop::sample::Index>(),
    ) {
        let bytes = snap.encode();
        let cut = idx.index(bytes.len());
        prop_assert!(PipelineSnapshot::decode(&bytes[..cut]).is_err(), "cut {}", cut);
    }

    /// One log image extended over a growing log, in random chunks
    /// (empty ones included), yields at every cut exactly the bytes a
    /// fresh `encode()` writes for that prefix of the log. Each file's
    /// trailer equals a CRC read straight over its body, and the file
    /// decodes back to its snapshot.
    #[test]
    fn extended_image_matches_fresh_encode(
        base in arb_snapshot(),
        records in prop::collection::vec(arb_record(), 0..40),
        chunks in prop::collection::vec(0usize..8, 1..12),
    ) {
        let mut image = LogImage::new();
        let mut cut = 0;
        for (i, step) in chunks.into_iter().enumerate() {
            cut = (cut + step).min(records.len());
            let snap = PipelineSnapshot {
                cursor: i as u64,
                log: UpdateLog { records: records[..cut].to_vec() },
                ..base.clone()
            };
            let (head, tail) = snap.encode_parts(&mut image);
            prop_assert_eq!(image.records(), cut);
            let bytes = [&head[..], image.bytes(), &tail[..]].concat();
            prop_assert_eq!(&bytes, &snap.encode(), "cut {}", cut);
            let body_end = bytes.len() - 4;
            let trailer = u32::from_le_bytes(bytes[body_end..].try_into().unwrap());
            prop_assert_eq!(trailer, crc32(&bytes[MAGIC.len()..body_end]));
            prop_assert_eq!(PipelineSnapshot::decode(&bytes).unwrap(), snap);
        }
    }
}

/// An image that has encoded more records than a snapshot's log holds
/// belongs to another run (or a later cursor of this one): extending it
/// panics instead of writing a file whose log is not the snapshot's.
#[test]
#[should_panic(expected = "log image holds 1 records")]
fn image_ahead_of_the_log_panics() {
    let record = UpdateRecord {
        at: SimTime(1),
        session: SessionId(0),
        msg: UpdateMessage::Withdraw(Ipv4Prefix::from_u32(0x0a00_0000, 8)),
    };
    let mut image = LogImage::new();
    image.extend(&UpdateLog {
        records: vec![record],
    });
    image.extend(&UpdateLog::default());
}
