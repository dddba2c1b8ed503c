//! The streaming feed protocol: typed messages over the frame codec.
//!
//! The paper's monitoring framework consumes live BGP feeds from
//! collectors; this module defines the workspace's session-oriented
//! equivalent (DESIGN.md §14). Messages ride [`quicksand_net::Frame`]s
//! — length-prefixed and CRC-checksummed — and carry churn events
//! (link up/down transitions, the replay engine's input), each tagged
//! with a monotone 0-based sequence number so a reconnecting peer can
//! resume exactly where the receiver's acknowledgement left off.
//!
//! Protocol sketch (client streams, server ingests):
//!
//! ```text
//! client                               server
//!   Open{peer, config_hash}  ──▶       validate, look up retained state
//!   ◀── Resume{cursor}                 cursor = events already accepted
//!   Event{seq=cursor}   ──▶            accept iff seq == accepted count
//!   Event{seq=cursor+1} ──▶            (duplicates re-acked, gaps fatal)
//!   ◀── Ack{cursor}                    every ack_every accepted events
//!   Keepalive ──▶                      refreshes the hold timer
//!   Eof{total, fnv} ──▶                digest check → identity bit
//!   ◀── Ack{cursor}                    final acknowledgement
//! ```
//!
//! Everything here is pure data and codec; the session FSM lives in
//! `quicksand-core`'s feed server, the transport faults in
//! [`crate::fault::ConnChaosPlan`].

use crate::churn::{ChurnEvent, LinkChange};
use quicksand_net::{Asn, Frame, QsResult, QuicksandError, SimTime};

/// Frame kind: session handshake (client → server).
pub const KIND_OPEN: u8 = 1;
/// Frame kind: resume position (server → client).
pub const KIND_RESUME: u8 = 2;
/// Frame kind: one feed event (client → server).
pub const KIND_EVENT: u8 = 3;
/// Frame kind: hold-timer refresh (client → server).
pub const KIND_KEEPALIVE: u8 = 4;
/// Frame kind: cumulative acknowledgement (server → client).
pub const KIND_ACK: u8 = 5;
/// Frame kind: end of feed with digest (client → server).
pub const KIND_EOF: u8 = 6;

/// The `Open` mode byte: the session carries churn events, the one
/// payload the feed plane has. Any other byte is a protocol error.
const MODE_CHURN: u8 = 1;
/// The tag byte that leads every event encoding.
const EVENT_LINK: u8 = 1;
/// Length of one event's wire encoding: tag, time, both ends, up flag.
const EVENT_LEN: usize = 18;

/// One churn event's wire encoding (tag byte + body) — the unit the
/// EOF digest folds over.
pub fn encode_event(ev: &ChurnEvent) -> [u8; EVENT_LEN] {
    let mut out = [0u8; EVENT_LEN];
    out[0] = EVENT_LINK;
    out[1..9].copy_from_slice(&ev.at.0.to_le_bytes());
    out[9..13].copy_from_slice(&ev.change.a.0.to_le_bytes());
    out[13..17].copy_from_slice(&ev.change.b.0.to_le_bytes());
    out[17] = u8::from(ev.change.up);
    out
}

/// Decodes a churn event from its full wire encoding.
fn decode_event(buf: &[u8]) -> QsResult<ChurnEvent> {
    let bad = |detail: String| QuicksandError::FeedProtocol {
        what: "event",
        detail,
    };
    let (&tag, body) = buf
        .split_first()
        .ok_or_else(|| bad("empty event payload".into()))?;
    if tag != EVENT_LINK {
        return Err(bad(format!("unknown event tag {tag}")));
    }
    if body.len() != EVENT_LEN - 1 {
        return Err(bad(format!(
            "link event body {} bytes, want {}",
            body.len(),
            EVENT_LEN - 1
        )));
    }
    let at = u64::from_le_bytes(body[0..8].try_into().expect("8 bytes"));
    let a = u32::from_le_bytes(body[8..12].try_into().expect("4 bytes"));
    let b = u32::from_le_bytes(body[12..16].try_into().expect("4 bytes"));
    let up = match body[16] {
        0 => false,
        1 => true,
        v => return Err(bad(format!("link up flag {v}"))),
    };
    Ok(ChurnEvent {
        at: SimTime(at),
        change: LinkChange {
            a: Asn(a),
            b: Asn(b),
            up,
        },
    })
}

/// FNV-1a digest over every event's wire encoding, in order — what the
/// [`FeedMsg::Eof`] frame carries.
pub fn digest(events: &[ChurnEvent]) -> u64 {
    let mut h = FnvHasher::new();
    for ev in events {
        h.update(&encode_event(ev));
    }
    h.finish()
}

/// A typed feed protocol message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FeedMsg {
    /// Session handshake: who is streaming, what, and against which
    /// scenario configuration.
    Open {
        /// Peer label; the server matches it to a feed binding.
        peer: String,
        /// The sender's scenario `config_hash` — a mismatch means the
        /// peers would replay different months.
        config_hash: u64,
        /// The hold time the client intends to honour, in wall ms.
        hold_ms: u64,
    },
    /// Server → client: resume streaming from this sequence number
    /// (the count of events already accepted).
    Resume {
        /// Next expected sequence number.
        cursor: u64,
    },
    /// One churn event at an explicit sequence number.
    Event {
        /// 0-based position in the feed.
        seq: u64,
        /// The event itself.
        event: ChurnEvent,
    },
    /// Hold-timer refresh carrying the client's send position.
    Keepalive {
        /// The client's next sequence number (informational).
        at: u64,
    },
    /// Server → client: cumulative acknowledgement.
    Ack {
        /// Events accepted so far.
        cursor: u64,
    },
    /// End of feed: total event count and an FNV-1a digest of the
    /// concatenated event encodings, so the receiver can verify it
    /// ingested the identical stream.
    Eof {
        /// Total events in the feed.
        total: u64,
        /// [`fnv64`]-style digest folded over every event encoding.
        fnv: u64,
    },
}

impl FeedMsg {
    /// Encodes the message as a frame.
    pub fn to_frame(&self) -> QsResult<Frame> {
        Ok(match self {
            FeedMsg::Open {
                peer,
                config_hash,
                hold_ms,
            } => {
                let mut payload = Vec::with_capacity(19 + peer.len());
                payload.push(MODE_CHURN);
                payload.extend_from_slice(&config_hash.to_le_bytes());
                payload.extend_from_slice(&hold_ms.to_le_bytes());
                let len = u16::try_from(peer.len()).map_err(|_| QuicksandError::FeedProtocol {
                    what: "peer",
                    detail: format!("peer label {} bytes long", peer.len()),
                })?;
                payload.extend_from_slice(&len.to_le_bytes());
                payload.extend_from_slice(peer.as_bytes());
                Frame::new(KIND_OPEN, 0, payload)
            }
            FeedMsg::Resume { cursor } => Frame::new(KIND_RESUME, *cursor, Vec::new()),
            FeedMsg::Event { seq, event } => {
                Frame::new(KIND_EVENT, *seq, encode_event(event).to_vec())
            }
            FeedMsg::Keepalive { at } => Frame::new(KIND_KEEPALIVE, *at, Vec::new()),
            FeedMsg::Ack { cursor } => Frame::new(KIND_ACK, *cursor, Vec::new()),
            FeedMsg::Eof { total, fnv } => {
                Frame::new(KIND_EOF, *total, fnv.to_le_bytes().to_vec())
            }
        })
    }

    /// Decodes a frame into a typed message.
    pub fn from_frame(f: &Frame) -> QsResult<FeedMsg> {
        let bad = |what: &'static str, detail: String| QuicksandError::FeedProtocol {
            what,
            detail,
        };
        let expect_empty = |what: &'static str| {
            if f.payload.is_empty() {
                Ok(())
            } else {
                Err(bad(what, format!("{} payload bytes, want 0", f.payload.len())))
            }
        };
        match f.kind {
            KIND_OPEN => {
                let p = &f.payload;
                if p.len() < 19 {
                    return Err(bad("open", format!("{} payload bytes, want >= 19", p.len())));
                }
                if p[0] != MODE_CHURN {
                    return Err(bad("mode", format!("unknown mode tag {}", p[0])));
                }
                let config_hash = u64::from_le_bytes(p[1..9].try_into().expect("8 bytes"));
                let hold_ms = u64::from_le_bytes(p[9..17].try_into().expect("8 bytes"));
                let peer_len = u16::from_le_bytes(p[17..19].try_into().expect("2 bytes")) as usize;
                if p.len() != 19 + peer_len {
                    return Err(bad(
                        "open",
                        format!("peer length {} vs payload {}", peer_len, p.len() - 19),
                    ));
                }
                let peer = std::str::from_utf8(&p[19..])
                    .map_err(|_| bad("open", "peer label not utf-8".into()))?
                    .to_string();
                Ok(FeedMsg::Open {
                    peer,
                    config_hash,
                    hold_ms,
                })
            }
            KIND_RESUME => {
                expect_empty("resume")?;
                Ok(FeedMsg::Resume { cursor: f.cursor })
            }
            KIND_EVENT => Ok(FeedMsg::Event {
                seq: f.cursor,
                event: decode_event(&f.payload)?,
            }),
            KIND_KEEPALIVE => {
                expect_empty("keepalive")?;
                Ok(FeedMsg::Keepalive { at: f.cursor })
            }
            KIND_ACK => {
                expect_empty("ack")?;
                Ok(FeedMsg::Ack { cursor: f.cursor })
            }
            KIND_EOF => {
                if f.payload.len() != 8 {
                    return Err(bad(
                        "eof",
                        format!("{} payload bytes, want 8", f.payload.len()),
                    ));
                }
                Ok(FeedMsg::Eof {
                    total: f.cursor,
                    fnv: u64::from_le_bytes(f.payload[..].try_into().expect("8 bytes")),
                })
            }
            k => Err(bad("frame_kind", format!("unknown frame kind {k}"))),
        }
    }
}

/// FNV-1a, 64-bit — the workspace's cheap content digest (the same
/// algorithm `repro` fingerprints raw logs with).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = FnvHasher::new();
    h.update(bytes);
    h.finish()
}

/// Incremental FNV-1a so a receiver can fold a digest over events as
/// they arrive, without retaining their encodings. Folding chunks
/// incrementally equals hashing their concatenation.
#[derive(Clone, Copy, Debug)]
pub struct FnvHasher {
    h: u64,
}

impl FnvHasher {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        FnvHasher {
            h: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.h ^= u64::from(b);
            self.h = self.h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.h
    }
}

impl Default for FnvHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// A byte-stream encoder can write straight into the digest, so a
/// fingerprint never holds the bytes it covers
/// ([`crate::UpdateLog::fingerprint`]).
impl std::io::Write for FnvHasher {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.update(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(at_s: u64, a: u32, b: u32, up: bool) -> ChurnEvent {
        ChurnEvent {
            at: SimTime::from_secs(at_s),
            change: LinkChange {
                a: Asn(a),
                b: Asn(b),
                up,
            },
        }
    }

    #[test]
    fn every_message_roundtrips_through_frames() {
        let msgs = vec![
            FeedMsg::Open {
                peer: "cell-0".into(),
                config_hash: 0xDEAD_BEEF,
                hold_ms: 2000,
            },
            FeedMsg::Resume { cursor: 17 },
            FeedMsg::Event {
                seq: 41,
                event: link(9, 1, 2, false),
            },
            FeedMsg::Keepalive { at: 43 },
            FeedMsg::Ack { cursor: 40 },
            FeedMsg::Eof {
                total: 44,
                fnv: 0x1234_5678_9ABC_DEF0,
            },
        ];
        for msg in msgs {
            let frame = msg.to_frame().unwrap();
            // Survives the actual wire codec, not just the type layer.
            let wire = frame.encode().unwrap();
            let mut dec = quicksand_net::FrameDecoder::new();
            dec.push(&wire);
            let back = dec.next_frame().unwrap().unwrap();
            assert_eq!(FeedMsg::from_frame(&back).unwrap(), msg);
        }
    }

    #[test]
    fn unknown_frame_kind_is_a_typed_protocol_error() {
        let f = Frame::new(99, 0, Vec::new());
        match FeedMsg::from_frame(&f) {
            Err(QuicksandError::FeedProtocol { what, .. }) => assert_eq!(what, "frame_kind"),
            other => panic!("expected FeedProtocol error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_payloads_are_typed_protocol_errors() {
        // Truncated open.
        let f = Frame::new(KIND_OPEN, 0, vec![1, 2, 3]);
        assert!(matches!(
            FeedMsg::from_frame(&f),
            Err(QuicksandError::FeedProtocol { what: "open", .. })
        ));
        // Open with a mode byte other than churn (2 was the retired
        // MRT payload).
        let mut f = FeedMsg::Open {
            peer: "cell-0".into(),
            config_hash: 7,
            hold_ms: 2000,
        }
        .to_frame()
        .unwrap();
        f.payload[0] = 2;
        assert!(matches!(
            FeedMsg::from_frame(&f),
            Err(QuicksandError::FeedProtocol { what: "mode", .. })
        ));
        // Events with an unknown tag, short or full length.
        let mut payload = encode_event(&link(1, 2, 3, true));
        payload[0] = 2;
        for bytes in [vec![9, 0, 0], payload.to_vec()] {
            let f = Frame::new(KIND_EVENT, 0, bytes);
            assert!(matches!(
                FeedMsg::from_frame(&f),
                Err(QuicksandError::FeedProtocol { what: "event", .. })
            ));
        }
        // Link event with a bad up flag.
        let mut payload = encode_event(&link(1, 2, 3, true));
        payload[EVENT_LEN - 1] = 7;
        let f = Frame::new(KIND_EVENT, 0, payload.to_vec());
        assert!(matches!(
            FeedMsg::from_frame(&f),
            Err(QuicksandError::FeedProtocol { what: "event", .. })
        ));
        // Link event with trailing garbage.
        let mut payload = encode_event(&link(1, 2, 3, true)).to_vec();
        payload.push(0xFF);
        let f = Frame::new(KIND_EVENT, 0, payload);
        assert!(FeedMsg::from_frame(&f).is_err());
        // Non-empty ack payload.
        let f = Frame::new(KIND_ACK, 5, vec![0]);
        assert!(FeedMsg::from_frame(&f).is_err());
        // Eof with a short digest.
        let f = Frame::new(KIND_EOF, 5, vec![0; 4]);
        assert!(FeedMsg::from_frame(&f).is_err());
    }

    #[test]
    fn fnv64_matches_pinned_vector_and_incremental_fold() {
        // FNV-1a test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut h = FnvHasher::new();
        h.update(b"hello ");
        h.update(b"world");
        assert_eq!(h.finish(), fnv64(b"hello world"));
    }

    #[test]
    fn sources_index_by_sequence_and_digest_deterministically() {
        let events = [link(1, 1, 2, false), link(2, 1, 2, true)];
        assert_eq!(digest(&events), digest(&events));
        assert_eq!(
            digest(&events),
            fnv64(&[encode_event(&events[0]), encode_event(&events[1])].concat()),
            "the digest folds the event encodings in sequence order"
        );
        assert_ne!(
            digest(&events),
            digest(&[events[1], events[0]]),
            "order matters"
        );
        assert_eq!(digest(&[]), FnvHasher::new().finish());
    }
}
