//! Low-level encoding primitives for the checkpoint format: a
//! little-endian byte writer and a bounds-checked byte reader that
//! returns typed errors instead of panicking on hostile input. Bodies
//! are checksummed with the feed frames' CRC-32
//! ([`quicksand_net::frame::crc32`]).
//!
//! The reader is deliberately paranoid: every length field read from
//! the file is validated against the bytes actually remaining before a
//! single allocation happens, so a corrupted length can at worst
//! produce a [`CheckpointError::Truncated`] — never an OOM or a panic.

use std::fmt;
use std::io;

/// Errors raised while encoding, decoding, or storing checkpoints.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure (reading, writing, fsyncing, renaming).
    Io(io::Error),
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The body CRC does not match the stored trailer — the file was
    /// truncated or corrupted after (or during) the write.
    ChecksumMismatch {
        /// CRC stored in the file trailer.
        stored: u32,
        /// CRC computed over the body as read.
        computed: u32,
    },
    /// The bytes ran out or a field was out of its valid range. The
    /// payload names the field being decoded.
    Truncated(&'static str),
    /// A section or field carried an invalid value.
    Malformed(&'static str),
    /// No checkpoint in the directory survived validation.
    NoValidCheckpoint,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "i/o error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a QSCKPT01 checkpoint"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            CheckpointError::Truncated(what) => {
                write!(f, "checkpoint truncated while reading {what}")
            }
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
            CheckpointError::NoValidCheckpoint => {
                write!(f, "no valid checkpoint found")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// A little-endian byte writer over a growable buffer.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// A fresh, empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// Consume the encoder, yielding the bytes written.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an f64 as the little-endian bytes of its bit pattern
    /// (exact round-trip, NaN payloads included).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append raw bytes verbatim.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Append a u16-length-prefixed string (must fit in 64 KiB).
    pub fn str16(&mut self, v: &str) {
        let b = v.as_bytes();
        debug_assert!(b.len() <= u16::MAX as usize, "string too long for str16");
        self.u16(b.len() as u16);
        self.bytes(b);
    }

    /// Overwrite the little-endian u64 at byte offset `at` — a length
    /// placeholder written before the bytes it counts.
    pub fn patch_u64(&mut self, at: usize, v: u64) {
        self.buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }
}

/// A bounds-checked little-endian reader over a byte slice.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consume exactly `n` bytes, or fail naming `what`.
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, CheckpointError> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a little-endian u16.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, CheckpointError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, CheckpointError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, CheckpointError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read an f64 from its bit pattern.
    pub fn f64(&mut self, what: &'static str) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Read a count field and validate that at least `count ×
    /// min_elem_bytes` bytes remain, so a corrupted count cannot drive
    /// a huge allocation.
    pub fn count(
        &mut self,
        min_elem_bytes: usize,
        what: &'static str,
    ) -> Result<usize, CheckpointError> {
        let n = self.u64(what)? as usize;
        if n.checked_mul(min_elem_bytes)
            .is_none_or(|need| need > self.remaining())
        {
            return Err(CheckpointError::Truncated(what));
        }
        Ok(n)
    }

    /// Read a u16-length-prefixed UTF-8 string.
    pub fn str16(&mut self, what: &'static str) -> Result<String, CheckpointError> {
        let n = self.u16(what)? as usize;
        let b = self.take(n, what)?;
        String::from_utf8(b.to_vec()).map_err(|_| CheckpointError::Malformed(what))
    }

    /// Fail unless every byte has been consumed.
    pub fn finish(self, what: &'static str) -> Result<(), CheckpointError> {
        if self.remaining() != 0 {
            return Err(CheckpointError::Malformed(what));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Checkpoint bodies are checksummed with CRC-32/ISO-HDLC; a change
        // to the shared frame checksum would orphan every file on disk.
        use quicksand_net::frame::crc32;
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn enc_dec_roundtrip() {
        let mut e = Enc::new();
        e.u8(7);
        e.u16(300);
        e.u32(70_000);
        e.u64(1 << 40);
        e.f64(-0.5);
        e.str16("quicksand");
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8("a").unwrap(), 7);
        assert_eq!(d.u16("b").unwrap(), 300);
        assert_eq!(d.u32("c").unwrap(), 70_000);
        assert_eq!(d.u64("d").unwrap(), 1 << 40);
        assert_eq!(d.f64("e").unwrap(), -0.5);
        assert_eq!(d.str16("f").unwrap(), "quicksand");
        d.finish("trailing").unwrap();
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let bytes = [1u8, 2, 3];
        let mut d = Dec::new(&bytes);
        assert!(matches!(
            d.u64("field"),
            Err(CheckpointError::Truncated("field"))
        ));
        // The failed read consumed nothing.
        assert_eq!(d.remaining(), 3);
    }

    #[test]
    fn hostile_count_cannot_drive_allocation() {
        // A count claiming u64::MAX elements with 4 bytes left.
        let mut e = Enc::new();
        e.u64(u64::MAX);
        e.u32(0);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(matches!(
            d.count(4, "routes"),
            Err(CheckpointError::Truncated("routes"))
        ));
    }

    #[test]
    fn finish_rejects_trailing_garbage() {
        let bytes = [0u8; 2];
        let mut d = Dec::new(&bytes);
        d.u8("x").unwrap();
        assert!(matches!(
            d.finish("tail"),
            Err(CheckpointError::Malformed("tail"))
        ));
    }
}
