//! Length-prefixed, CRC-checksummed framing for the streaming feed plane.
//!
//! The feed protocol (DESIGN.md §14) moves discrete messages over a TCP
//! byte stream; this module is the transport-level codec that cuts the
//! stream back into messages. A frame is deliberately dumb — one kind
//! byte, one monotone cursor, and an opaque payload — so the framing can
//! be property-tested exhaustively without knowing anything about feed
//! semantics (those live in `quicksand-bgp::feed`).
//!
//! Wire layout (all integers little-endian):
//!
//! ```text
//! | len: u32 | kind: u8 | cursor: u64 | payload: [u8] | crc: u32 |
//! ```
//!
//! `len` counts every byte after itself (`kind` through `crc`), so a
//! reader can size the remainder from a 4-byte prefix. `crc` is CRC-32
//! (IEEE, reflected) over `kind | cursor | payload` — the same algorithm
//! the checkpoint codec uses, and with the same contract: corruption is
//! detected *before* any byte of the frame is interpreted. CRC-32
//! detects every burst error up to 32 bits, so any single flipped byte
//! inside the checksummed span is caught deterministically, not
//! probabilistically.
//!
//! Decoding is incremental: a [`FrameDecoder`] accumulates whatever the
//! socket delivered and yields complete frames, which is what a session
//! loop with read timeouts needs (a timeout mid-frame must not lose the
//! bytes already read). Errors are typed [`FrameError`]s — a malformed
//! or corrupt frame never panics and never yields a partial frame.

use std::fmt;
use std::io::{Read, Write};

/// Fixed bytes a frame occupies beyond its payload, excluding the
/// 4-byte length prefix: kind (1) + cursor (8) + crc (4).
pub const FRAME_OVERHEAD: usize = 13;

/// Hard ceiling on the `len` field. Feed messages are small (a churn
/// event is ~20 bytes, an MRT update a few hundred); anything near a
/// mebibyte is garbage or an attack, and rejecting it by type keeps a
/// hostile peer from making the decoder buffer unbounded input.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// One framed message: a kind tag, a monotone cursor, and an opaque
/// payload interpreted by the layer above.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Message discriminant (assigned by the feed protocol).
    pub kind: u8,
    /// Monotone stream position carried by every frame.
    pub cursor: u64,
    /// Opaque message body.
    pub payload: Vec<u8>,
}

/// Typed failures of the frame codec.
///
/// Mirrors the checkpoint codec's error discipline: I/O failures are
/// passed through, everything else names exactly what was wrong with
/// the bytes, and nothing panics.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying reader or writer failed (including read timeouts,
    /// which surface as `WouldBlock`/`TimedOut` I/O errors).
    Io(std::io::Error),
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversize {
        /// The declared frame length.
        len: u32,
        /// The configured ceiling it violated.
        max: u32,
    },
    /// The frame is structurally impossible (e.g. shorter than its own
    /// fixed fields).
    Malformed(&'static str),
    /// The CRC trailer does not match the checksummed span.
    ChecksumMismatch {
        /// CRC stored in the frame trailer.
        stored: u32,
        /// CRC computed over the received bytes.
        computed: u32,
    },
    /// The stream ended (or the buffer was cut) mid-frame.
    Truncated(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame io error: {e}"),
            FrameError::Oversize { len, max } => {
                write!(f, "frame length {len} exceeds maximum {max}")
            }
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
            FrameError::ChecksumMismatch { stored, computed } => write!(
                f,
                "frame checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            FrameError::Truncated(what) => write!(f, "truncated frame: {what}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// The reflected IEEE 802.3 CRC-32 polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables, built at compile time.
///
/// `CRC32_TABLES[0][b]` is the CRC register after shifting byte `b`
/// through eight bit steps (the classic byte-at-a-time table), and
/// `CRC32_TABLES[k][b]` is that value pushed through `k` further zero
/// bytes: the contribution of a byte that `k` more bytes of its 8-byte
/// block follow. Eight lookups then advance the register a whole block
/// at once (DESIGN.md §23).
static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut c = b as u32;
        let mut bit = 0;
        while bit < 8 {
            c = (c >> 1) ^ (CRC32_POLY & (c & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = c;
        b += 1;
    }
    let mut b = 0;
    while b < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        b += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) over
/// `bytes`, as used by zlib/PNG. Table-driven, slicing-by-8: eight
/// table lookups per 8-byte block, one per byte for the tail. Feed
/// frames and checkpoint bodies both carry it.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = !0u32;
    let mut blocks = bytes.chunks_exact(8);
    for b in &mut blocks {
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// The CRC-32 of `a ‖ b` from `crc32(a)`, `crc32(b)` and `b`'s length
/// alone, without reading either buffer: zlib's `crc32_combine`.
///
/// CRC-32 is affine over GF(2), and the initial and final inversions
/// cancel between the two parts, so `crc32(a ‖ b)` is `crc32(a)`
/// shifted through `len_b` zero bytes, XOR `crc32(b)`. The shift is a
/// multiplication by `x^(8·len_b)` modulo the CRC polynomial, raised
/// by square-and-multiply: O(log `len_b`) products of 32 steps each
/// (DESIGN.md §30).
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    // In the reflected representation bit 31 is x^0, so x^8 (one byte
    // of shift) is bit 23.
    let mut shift = 1u32 << 31;
    let mut square = 1u32 << 23;
    let mut n = len_b;
    while n != 0 {
        if n & 1 == 1 {
            shift = gf2_mulmod(square, shift);
        }
        square = gf2_mulmod(square, square);
        n >>= 1;
    }
    gf2_mulmod(shift, crc_a) ^ crc_b
}

/// `a · b` modulo the CRC polynomial, both in the reflected
/// representation (bit 31 is the x^0 coefficient).
fn gf2_mulmod(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    for k in (0..32).rev() {
        if (a >> k) & 1 == 1 {
            product ^= b;
        }
        // b · x: a right shift, reduced by the polynomial on carry-out.
        b = (b >> 1) ^ (CRC32_POLY & (b & 1).wrapping_neg());
    }
    product
}

impl Frame {
    /// Builds a frame from its parts.
    pub fn new(kind: u8, cursor: u64, payload: Vec<u8>) -> Self {
        Frame {
            kind,
            cursor,
            payload,
        }
    }

    /// Total bytes this frame occupies on the wire, length prefix
    /// included.
    pub fn encoded_len(&self) -> usize {
        4 + FRAME_OVERHEAD + self.payload.len()
    }

    /// Encodes the frame to its wire form.
    ///
    /// Fails with [`FrameError::Oversize`] rather than emitting a frame
    /// no conforming decoder would accept.
    pub fn encode(&self) -> Result<Vec<u8>, FrameError> {
        let len = (FRAME_OVERHEAD + self.payload.len()) as u64;
        if len > u64::from(MAX_FRAME_LEN) {
            return Err(FrameError::Oversize {
                len: len.min(u64::from(u32::MAX)) as u32,
                max: MAX_FRAME_LEN,
            });
        }
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(&(len as u32).to_le_bytes());
        out.push(self.kind);
        out.extend_from_slice(&self.cursor.to_le_bytes());
        out.extend_from_slice(&self.payload);
        let crc = crc32(&out[4..]);
        out.extend_from_slice(&crc.to_le_bytes());
        Ok(out)
    }

    /// Encodes and writes the frame to `w` in one call.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), FrameError> {
        let bytes = self.encode()?;
        w.write_all(&bytes)?;
        Ok(())
    }
}

/// Incremental frame decoder over an arbitrary byte stream.
///
/// Push whatever the socket delivered (any chunking, down to one byte
/// at a time), then drain complete frames with
/// [`next_frame`](FrameDecoder::next_frame). Decode errors are sticky
/// in practice: the session layer closes the connection on the first
/// typed error, so the decoder never needs to resynchronise.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    start: usize,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes received from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        // Reclaim consumed prefix before growing, so a long-lived
        // session's buffer stays proportional to one in-flight frame.
        if self.start > 0 && (self.start == self.buf.len() || self.start >= 4096) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as complete frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Attempts to decode the next complete frame.
    ///
    /// `Ok(None)` means "need more bytes" — not an error; call
    /// [`push`](FrameDecoder::push) again. A returned error means the
    /// stream is corrupt at the current position and must be abandoned.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        let b = &self.buf[self.start..];
        if b.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        if len > MAX_FRAME_LEN {
            return Err(FrameError::Oversize {
                len,
                max: MAX_FRAME_LEN,
            });
        }
        if (len as usize) < FRAME_OVERHEAD {
            return Err(FrameError::Malformed("length below fixed fields"));
        }
        let total = 4 + len as usize;
        if b.len() < total {
            return Ok(None);
        }
        let body = &b[4..total - 4];
        let stored = u32::from_le_bytes([b[total - 4], b[total - 3], b[total - 2], b[total - 1]]);
        let computed = crc32(body);
        if stored != computed {
            return Err(FrameError::ChecksumMismatch { stored, computed });
        }
        let kind = body[0];
        let cursor = u64::from_le_bytes(body[1..9].try_into().expect("8 cursor bytes"));
        let payload = body[9..].to_vec();
        self.start += total;
        Ok(Some(Frame {
            kind,
            cursor,
            payload,
        }))
    }

    /// Declares end-of-stream: fails if a partial frame is buffered.
    ///
    /// Call when the peer closes cleanly; a clean close never lands
    /// mid-frame, so leftover bytes are a truncation.
    pub fn finish(&self) -> Result<(), FrameError> {
        if self.buffered() == 0 {
            Ok(())
        } else {
            Err(FrameError::Truncated("stream ended mid-frame"))
        }
    }
}

/// Reads one complete frame from `r`, blocking as `r` blocks.
///
/// Bytes beyond the first frame stay buffered in `dec` for the next
/// call. EOF before a complete frame is [`FrameError::Truncated`]; read
/// timeouts surface as [`FrameError::Io`] so callers with hold timers
/// can distinguish "slow" from "gone".
pub fn read_frame<R: Read>(r: &mut R, dec: &mut FrameDecoder) -> Result<Frame, FrameError> {
    loop {
        if let Some(frame) = dec.next_frame()? {
            return Ok(frame);
        }
        let mut chunk = [0u8; 4096];
        let n = r.read(&mut chunk)?;
        if n == 0 {
            return Err(FrameError::Truncated(if dec.buffered() == 0 {
                "eof before frame"
            } else {
                "eof mid-frame"
            }));
        }
        dec.push(&chunk[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Frame {
        Frame::new(3, 42, vec![1, 2, 3, 4, 5])
    }

    /// The bit-at-a-time CRC-32: eight shift/xor steps per byte. The
    /// reference the table-driven [`crc32`] is checked against.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC32_POLY & mask);
            }
        }
        !crc
    }

    fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![0usize..64, 0usize..=4096]
            .prop_flat_map(|n| prop::collection::vec(any::<u8>(), n))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The table-driven CRC equals the bit-at-a-time one on the
        /// buffer's suffixes from offsets 0..8: every start alignment,
        /// and every length remainder mod 8.
        #[test]
        fn crc32_matches_bitwise_oracle(bytes in arb_bytes()) {
            for start in 0..8.min(bytes.len() + 1) {
                let s = &bytes[start..];
                prop_assert_eq!(crc32(s), crc32_bitwise(s));
            }
        }

        /// Combining the CRCs of the two halves of any split, empty
        /// halves included, gives the bit-at-a-time CRC of the whole.
        #[test]
        fn crc32_combine_matches_bitwise_oracle(
            bytes in arb_bytes(),
            cut in any::<prop::sample::Index>(),
        ) {
            let at = cut.index(bytes.len() + 1);
            let (a, b) = bytes.split_at(at);
            prop_assert_eq!(
                crc32_combine(crc32(a), crc32(b), b.len() as u64),
                crc32_bitwise(&bytes)
            );
        }
    }

    #[test]
    fn crc32_combine_handles_empty_parts() {
        let whole = crc32(b"123456789");
        assert_eq!(crc32_combine(whole, crc32(b""), 0), whole);
        assert_eq!(crc32_combine(crc32(b""), whole, 9), whole);
        assert_eq!(crc32_combine(crc32(b"1234"), crc32(b"56789"), 5), whole);
    }

    #[test]
    fn crc32_matches_pinned_vector() {
        // IEEE check value; checkpoint bodies carry the same checksum.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trips_through_encode_and_decoder() {
        let f = sample();
        let bytes = f.encode().unwrap();
        assert_eq!(bytes.len(), f.encoded_len());
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        assert_eq!(dec.next_frame().unwrap(), Some(f));
        assert_eq!(dec.next_frame().unwrap(), None);
        dec.finish().unwrap();
    }

    #[test]
    fn decodes_byte_at_a_time_and_back_to_back_frames() {
        let a = Frame::new(1, 0, vec![]);
        let b = Frame::new(6, u64::MAX, vec![0xAA; 300]);
        let mut wire = a.encode().unwrap();
        wire.extend_from_slice(&b.encode().unwrap());
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for byte in wire {
            dec.push(&[byte]);
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, vec![a, b]);
        dec.finish().unwrap();
    }

    #[test]
    fn oversize_length_is_rejected_typed() {
        let mut bytes = sample().encode().unwrap();
        bytes[..4].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        assert!(matches!(
            dec.next_frame(),
            Err(FrameError::Oversize { .. })
        ));
    }

    #[test]
    fn undersize_length_is_rejected_typed() {
        let mut bytes = sample().encode().unwrap();
        bytes[..4].copy_from_slice(&((FRAME_OVERHEAD as u32) - 1).to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        assert!(matches!(dec.next_frame(), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn flipped_payload_byte_is_a_checksum_mismatch() {
        let mut bytes = sample().encode().unwrap();
        let mid = bytes.len() - 6; // inside the payload
        bytes[mid] ^= 0x40;
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        assert!(matches!(
            dec.next_frame(),
            Err(FrameError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn finish_flags_partial_frame() {
        let bytes = sample().encode().unwrap();
        let mut dec = FrameDecoder::new();
        dec.push(&bytes[..bytes.len() - 1]);
        assert_eq!(dec.next_frame().unwrap(), None);
        assert!(matches!(dec.finish(), Err(FrameError::Truncated(_))));
    }

    #[test]
    fn read_frame_pulls_from_reader_and_types_eof() {
        let f = sample();
        let wire = f.encode().unwrap();
        let mut dec = FrameDecoder::new();
        let mut cursor = std::io::Cursor::new(wire.clone());
        assert_eq!(read_frame(&mut cursor, &mut dec).unwrap(), f);
        // EOF with an empty buffer.
        assert!(matches!(
            read_frame(&mut cursor, &mut dec),
            Err(FrameError::Truncated("eof before frame"))
        ));
        // EOF mid-frame.
        let mut short = std::io::Cursor::new(wire[..wire.len() - 2].to_vec());
        let mut dec = FrameDecoder::new();
        assert!(matches!(
            read_frame(&mut short, &mut dec),
            Err(FrameError::Truncated("eof mid-frame"))
        ));
    }

    #[test]
    fn encode_rejects_oversize_payload() {
        let f = Frame::new(0, 0, vec![0; MAX_FRAME_LEN as usize + 1]);
        assert!(matches!(f.encode(), Err(FrameError::Oversize { .. })));
    }
}
