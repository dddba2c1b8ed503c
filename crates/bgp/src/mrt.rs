//! Compact binary serialization of update logs, MRT-style.
//!
//! The paper's raw material is MRT dumps from RIPE RIS. This module
//! provides the workspace's equivalent wire format so month-scale logs
//! can be persisted and re-analyzed without JSON overhead (a 290k-record
//! month is ~8 MB binary vs ~60 MB JSON).
//!
//! Format (little-endian, versioned):
//!
//! ```text
//! magic   8 bytes  "QSMRT001"
//! record  repeated:
//!   at        u64   microseconds
//!   session   u32
//!   kind      u8    1 = announce, 2 = withdraw
//!   prefix    u32 + u8 (network, length)
//!   announce only:
//!     path_len  u16, then path_len × u32 ASNs (nearest first)
//!     n_comm    u8, then per community: tag u8 + payload u32
//!       tag 1 = NO_EXPORT (payload 0), 2 = NoExportTo(asn), 3 = opaque
//! ```

use crate::collector::{SessionId, UpdateLog, UpdateRecord};
use crate::msg::{Community, Route, UpdateMessage};
use quicksand_net::{AsPath, Asn, Ipv4Prefix, SimTime};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 8] = b"QSMRT001";

/// Errors when decoding a binary log.
#[derive(Debug)]
pub enum MrtError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The magic header is missing or wrong.
    BadMagic,
    /// A record had an unknown kind or community tag, or an invalid
    /// prefix length.
    Malformed(&'static str),
}

impl std::fmt::Display for MrtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MrtError::Io(e) => write!(f, "i/o error: {e}"),
            MrtError::BadMagic => write!(f, "not a QSMRT001 stream"),
            MrtError::Malformed(what) => write!(f, "malformed record: {what}"),
        }
    }
}

impl std::error::Error for MrtError {}

impl From<io::Error> for MrtError {
    fn from(e: io::Error) -> Self {
        MrtError::Io(e)
    }
}

fn put_u16(w: &mut impl Write, v: u16) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn put_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn put_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn get_u8(r: &mut impl Read) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}
fn get_u16(r: &mut impl Read) -> io::Result<u16> {
    let mut b = [0u8; 2];
    r.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}
fn get_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Serialize one record in the QSMRT001 record layout (no magic
/// header); [`decode_record`] parses it back byte-identically.
fn encode_record(rec: &UpdateRecord, w: &mut impl Write) -> Result<(), MrtError> {
    put_u64(w, rec.at.0)?;
    put_u32(w, rec.session.0)?;
    match &rec.msg {
        UpdateMessage::Announce(route) => {
            w.write_all(&[1u8])?;
            put_u32(w, route.prefix.network_u32())?;
            w.write_all(&[route.prefix.len()])?;
            let path = route.as_path.asns();
            put_u16(
                w,
                u16::try_from(path.len()).map_err(|_| MrtError::Malformed("path too long"))?,
            )?;
            for a in path {
                put_u32(w, a.0)?;
            }
            let comms: Vec<&Community> = route.communities.iter().collect();
            w.write_all(&[u8::try_from(comms.len())
                .map_err(|_| MrtError::Malformed("too many communities"))?])?;
            for c in comms {
                match c {
                    Community::NoExport => {
                        w.write_all(&[1u8])?;
                        put_u32(w, 0)?;
                    }
                    Community::NoExportTo(a) => {
                        w.write_all(&[2u8])?;
                        put_u32(w, a.0)?;
                    }
                    Community::Opaque(v) => {
                        w.write_all(&[3u8])?;
                        put_u32(w, *v)?;
                    }
                }
            }
        }
        UpdateMessage::Withdraw(p) => {
            w.write_all(&[2u8])?;
            put_u32(w, p.network_u32())?;
            w.write_all(&[p.len()])?;
        }
    }
    Ok(())
}

/// Serialize a log to a writer.
pub fn write_log(log: &UpdateLog, w: &mut impl Write) -> Result<(), MrtError> {
    w.write_all(MAGIC)?;
    write_records(&log.records, w)
}

/// Serialize `records` without the magic header: the bytes
/// [`write_log`] writes for them after it. A stream written by
/// `write_log` and then extended with `write_records` reads back as one
/// log (the checkpoint log image appends this way).
pub fn write_records(records: &[UpdateRecord], w: &mut impl Write) -> Result<(), MrtError> {
    for rec in records {
        encode_record(rec, w)?;
    }
    Ok(())
}

/// Deserialize a log from a reader, consuming it to EOF.
///
/// The whole input is read first and then decoded record by record
/// from the slice; the first malformed or cut-off record fails the
/// read.
pub fn read_log(r: &mut impl Read) -> Result<UpdateLog, MrtError> {
    let mut buf = Vec::new();
    r.read_to_end(&mut buf)?;
    let Some(mut rest) = buf.strip_prefix(MAGIC.as_slice()) else {
        return Err(MrtError::BadMagic);
    };
    let mut records = Vec::new();
    let mut asns = Vec::new();
    while let Some((rec, consumed)) = decode_record(rest, &mut asns)? {
        records.push(rec);
        rest = &rest[consumed..];
    }
    Ok(UpdateLog { records })
}

/// Parse one record from `buf`, returning it and the bytes consumed.
/// An announcement's hops are read into the reused `asns` scratch and
/// the path is built from that slice, one allocation per path.
///
/// `Ok(None)` means `buf` is empty (clean end of stream). `Err` means
/// the bytes are malformed or a record was cut off mid-field.
fn decode_record(
    buf: &[u8],
    asns: &mut Vec<Asn>,
) -> Result<Option<(UpdateRecord, usize)>, MrtError> {
    if buf.is_empty() {
        return Ok(None);
    }
    let mut r = buf;
    let start = r.len();
    let mut b8 = [0u8; 8];
    r.read_exact(&mut b8)?;
    let at = u64::from_le_bytes(b8);
    let session = SessionId(get_u32(&mut r)?);
    let kind = get_u8(&mut r)?;
    let net = get_u32(&mut r)?;
    let len = get_u8(&mut r)?;
    if len > 32 {
        return Err(MrtError::Malformed("prefix length > 32"));
    }
    let prefix = Ipv4Prefix::from_u32(net, len);
    let msg = match kind {
        1 => {
            let path_len = get_u16(&mut r)? as usize;
            asns.clear();
            for _ in 0..path_len {
                asns.push(Asn(get_u32(&mut r)?));
            }
            let n_comm = get_u8(&mut r)? as usize;
            let mut communities = std::collections::BTreeSet::new();
            for _ in 0..n_comm {
                let tag = get_u8(&mut r)?;
                let payload = get_u32(&mut r)?;
                communities.insert(match tag {
                    1 => Community::NoExport,
                    2 => Community::NoExportTo(Asn(payload)),
                    3 => Community::Opaque(payload),
                    _ => return Err(MrtError::Malformed("unknown community tag")),
                });
            }
            UpdateMessage::Announce(Route {
                prefix,
                as_path: AsPath::from_asns(asns.iter().copied()),
                communities,
            })
        }
        2 => UpdateMessage::Withdraw(prefix),
        _ => return Err(MrtError::Malformed("unknown record kind")),
    };
    let consumed = start - r.len();
    Ok(Some((
        UpdateRecord {
            at: SimTime(at),
            session,
            msg,
        },
        consumed,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> UpdateLog {
        let p1: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        let p2: Ipv4Prefix = "78.46.0.0/15".parse().unwrap();
        let mut route = Route {
            prefix: p2,
            as_path: [Asn(3356), Asn(24940)].into_iter().collect(),
            communities: Default::default(),
        };
        route.communities.insert(Community::NoExport);
        route.communities.insert(Community::NoExportTo(Asn(7)));
        route.communities.insert(Community::Opaque(0xDEAD));
        UpdateLog {
            records: vec![
                UpdateRecord {
                    at: SimTime::from_secs(1),
                    session: SessionId(0),
                    msg: UpdateMessage::Announce(Route {
                        prefix: p1,
                        as_path: [Asn(1), Asn(2), Asn(3)].into_iter().collect(),
                        communities: Default::default(),
                    }),
                },
                UpdateRecord {
                    at: SimTime::from_secs(2),
                    session: SessionId(9),
                    msg: UpdateMessage::Announce(route),
                },
                UpdateRecord {
                    at: SimTime::from_secs(3),
                    session: SessionId(0),
                    msg: UpdateMessage::Withdraw(p1),
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let log = sample_log();
        let mut buf = Vec::new();
        write_log(&log, &mut buf).unwrap();
        let back = read_log(&mut buf.as_slice()).unwrap();
        assert_eq!(back.records, log.records);
    }

    #[test]
    fn empty_log_roundtrips() {
        let mut buf = Vec::new();
        write_log(&UpdateLog::default(), &mut buf).unwrap();
        assert_eq!(buf, MAGIC);
        let back = read_log(&mut buf.as_slice()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = b"NOTMRT00".to_vec();
        assert!(matches!(
            read_log(&mut buf.as_slice()),
            Err(MrtError::BadMagic)
        ));
    }

    #[test]
    fn truncated_stream_rejected() {
        let log = sample_log();
        let mut buf = Vec::new();
        write_log(&log, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_log(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn corrupt_kind_rejected() {
        let log = sample_log();
        let mut buf = Vec::new();
        write_log(&log, &mut buf).unwrap();
        // Kind byte of record 1 sits at offset 8 (magic) + 8 + 4.
        buf[20] = 99;
        assert!(matches!(
            read_log(&mut buf.as_slice()),
            Err(MrtError::Malformed(_))
        ));
    }

    #[test]
    fn strict_read_rejects_every_mid_record_cut() {
        let log = sample_log();
        let mut buf = Vec::new();
        write_log(&log, &mut buf).unwrap();
        let mut intact = Vec::new();
        write_log(
            &UpdateLog {
                records: log.records[..2].to_vec(),
            },
            &mut intact,
        )
        .unwrap();
        // Every cut strictly inside the last record leaves it partial.
        for cut in intact.len() + 1..buf.len() {
            assert!(read_log(&mut &buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn binary_is_compact() {
        // A plausible record should be well under its JSON size.
        let log = sample_log();
        let mut buf = Vec::new();
        write_log(&log, &mut buf).unwrap();
        let json = serde_json::to_string(&log).unwrap();
        assert!(buf.len() * 3 < json.len(), "{} vs {}", buf.len(), json.len());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_record() -> impl Strategy<Value = UpdateRecord> {
        (
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
            0u8..=32,
            proptest::collection::vec(any::<u32>(), 0..8),
            proptest::bool::ANY,
        )
            .prop_map(|(at, sess, net, len, path, withdraw)| {
                let prefix = Ipv4Prefix::from_u32(net, len);
                let msg = if withdraw {
                    UpdateMessage::Withdraw(prefix)
                } else {
                    UpdateMessage::Announce(Route {
                        prefix,
                        as_path: path.into_iter().map(Asn).collect(),
                        communities: Default::default(),
                    })
                };
                UpdateRecord {
                    at: SimTime(at),
                    session: SessionId(sess),
                    msg,
                }
            })
    }

    proptest! {
        #[test]
        fn arbitrary_logs_roundtrip(
            records in proptest::collection::vec(arb_record(), 0..50)
        ) {
            let log = UpdateLog { records };
            let mut buf = Vec::new();
            write_log(&log, &mut buf).unwrap();
            let back = read_log(&mut buf.as_slice()).unwrap();
            prop_assert_eq!(back.records, log.records);
        }
    }
}
