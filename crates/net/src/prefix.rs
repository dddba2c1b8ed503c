//! IPv4 CIDR prefixes.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// An IPv4 CIDR prefix, e.g. `78.46.0.0/15`.
///
/// The address is stored canonicalized: all bits below the prefix length
/// are zero. Construction via [`Ipv4Prefix::new`] canonicalizes silently;
/// parsing via [`FromStr`] rejects non-canonical text so that data files
/// stay unambiguous.
///
/// ```
/// use quicksand_net::Ipv4Prefix;
/// let p: Ipv4Prefix = "78.46.0.0/15".parse().unwrap();
/// assert!(p.contains_addr("78.47.12.1".parse().unwrap()));
/// assert!(!p.contains_addr("78.48.0.1".parse().unwrap()));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(try_from = "String", into = "String")]
pub struct Ipv4Prefix {
    addr: u32,
    len: u8,
}

/// Error produced when parsing an [`Ipv4Prefix`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixParseError {
    /// The string did not have the form `a.b.c.d/len`.
    Malformed,
    /// The prefix length was greater than 32.
    BadLength(u8),
    /// Host bits below the prefix length were set (e.g. `10.0.0.1/8`).
    NotCanonical,
}

impl fmt::Display for PrefixParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefixParseError::Malformed => write!(f, "malformed prefix (expected a.b.c.d/len)"),
            PrefixParseError::BadLength(l) => write!(f, "prefix length {l} out of range 0..=32"),
            PrefixParseError::NotCanonical => {
                write!(f, "prefix has host bits set below the prefix length")
            }
        }
    }
}

impl std::error::Error for PrefixParseError {}

fn mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - u32::from(len))
    }
}

impl Ipv4Prefix {
    /// Build a prefix from a network address and length, canonicalizing
    /// (zeroing) any host bits.
    ///
    /// # Panics
    /// Panics if `len > 32`.
    pub fn new(addr: Ipv4Addr, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} out of range");
        Ipv4Prefix {
            addr: u32::from(addr) & mask(len),
            len,
        }
    }

    /// Build a prefix from the raw u32 network representation.
    ///
    /// # Panics
    /// Panics if `len > 32`.
    pub fn from_u32(addr: u32, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} out of range");
        Ipv4Prefix {
            addr: addr & mask(len),
            len,
        }
    }

    /// The canonical network address.
    pub fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.addr)
    }

    /// The network address as a raw u32.
    pub fn network_u32(&self) -> u32 {
        self.addr
    }

    /// The prefix length in bits. (`is_empty` is meaningless for a CIDR
    /// length — a /0 is the full table, not an empty prefix.)
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Does this prefix contain the given address?
    pub fn contains_addr(&self, a: Ipv4Addr) -> bool {
        (u32::from(a) & mask(self.len)) == self.addr
    }

    /// Does this prefix contain `other` (i.e. is `other` equal or
    /// more-specific)? Every prefix contains itself.
    pub fn contains(&self, other: &Ipv4Prefix) -> bool {
        other.len >= self.len && (other.addr & mask(self.len)) == self.addr
    }

    /// Is this prefix strictly more specific than (strictly contained in)
    /// `other`?
    pub fn is_more_specific_than(&self, other: &Ipv4Prefix) -> bool {
        self.len > other.len && other.contains(self)
    }

    /// The bit at position `i` (0 = most significant). Used by the trie.
    pub(crate) fn bit(&self, i: u8) -> bool {
        debug_assert!(i < 32);
        (self.addr >> (31 - i)) & 1 == 1
    }

    /// The two halves obtained by splitting this prefix one bit deeper,
    /// e.g. `10.0.0.0/8` → (`10.0.0.0/9`, `10.128.0.0/9`).
    ///
    /// Returns `None` when the prefix is already a /32 host route.
    pub fn split(&self) -> Option<(Ipv4Prefix, Ipv4Prefix)> {
        if self.len >= 32 {
            return None;
        }
        let len = self.len + 1;
        let lo = Ipv4Prefix::from_u32(self.addr, len);
        let hi = Ipv4Prefix::from_u32(self.addr | (1 << (32 - u32::from(len))), len);
        Some((lo, hi))
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl fmt::Debug for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromStr for Ipv4Prefix {
    type Err = PrefixParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s.split_once('/').ok_or(PrefixParseError::Malformed)?;
        let addr: Ipv4Addr = addr.parse().map_err(|_| PrefixParseError::Malformed)?;
        let len: u8 = len.parse().map_err(|_| PrefixParseError::Malformed)?;
        if len > 32 {
            return Err(PrefixParseError::BadLength(len));
        }
        let raw = u32::from(addr);
        if raw & !mask(len) != 0 {
            return Err(PrefixParseError::NotCanonical);
        }
        Ok(Ipv4Prefix { addr: raw, len })
    }
}

impl TryFrom<String> for Ipv4Prefix {
    type Error = PrefixParseError;
    fn try_from(s: String) -> Result<Self, Self::Error> {
        s.parse()
    }
}

impl From<Ipv4Prefix> for String {
    fn from(p: Ipv4Prefix) -> String {
        p.to_string()
    }
}

/// Deterministic ordering: by network address, then by length (shorter,
/// i.e. less specific, first). This makes covering prefixes sort before
/// their more-specifics, which several metrics rely on.
impl Ord for Ipv4Prefix {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.addr, self.len).cmp(&(other.addr, other.len))
    }
}

impl PartialOrd for Ipv4Prefix {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn parse_roundtrip() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "78.46.0.0/15", "1.2.3.4/32"] {
            assert_eq!(p(s).to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert_eq!(
            "10.0.0.0".parse::<Ipv4Prefix>(),
            Err(PrefixParseError::Malformed)
        );
        assert_eq!(
            "10.0.0.0/33".parse::<Ipv4Prefix>(),
            Err(PrefixParseError::BadLength(33))
        );
        assert_eq!(
            "10.0.0.1/8".parse::<Ipv4Prefix>(),
            Err(PrefixParseError::NotCanonical)
        );
    }

    #[test]
    fn new_canonicalizes_host_bits() {
        let q = Ipv4Prefix::new(Ipv4Addr::new(10, 1, 2, 3), 8);
        assert_eq!(q, p("10.0.0.0/8"));
    }

    #[test]
    fn containment() {
        assert!(p("10.0.0.0/8").contains(&p("10.5.0.0/16")));
        assert!(p("10.0.0.0/8").contains(&p("10.0.0.0/8")));
        assert!(!p("10.5.0.0/16").contains(&p("10.0.0.0/8")));
        assert!(!p("10.0.0.0/8").contains(&p("11.0.0.0/16")));
        assert!(p("0.0.0.0/0").contains(&p("203.0.113.0/24")));
    }

    #[test]
    fn more_specific_is_strict() {
        assert!(p("10.5.0.0/16").is_more_specific_than(&p("10.0.0.0/8")));
        assert!(!p("10.0.0.0/8").is_more_specific_than(&p("10.0.0.0/8")));
        assert!(!p("10.0.0.0/8").is_more_specific_than(&p("10.5.0.0/16")));
    }

    #[test]
    fn contains_addr_boundaries() {
        let q = p("78.46.0.0/15");
        assert!(q.contains_addr(Ipv4Addr::new(78, 46, 0, 0)));
        assert!(q.contains_addr(Ipv4Addr::new(78, 47, 255, 255)));
        assert!(!q.contains_addr(Ipv4Addr::new(78, 48, 0, 0)));
        assert!(!q.contains_addr(Ipv4Addr::new(78, 45, 255, 255)));
    }

    #[test]
    fn split_produces_disjoint_halves() {
        let (lo, hi) = p("10.0.0.0/8").split().unwrap();
        assert_eq!(lo, p("10.0.0.0/9"));
        assert_eq!(hi, p("10.128.0.0/9"));
        assert!(p("10.0.0.0/8").contains(&lo));
        assert!(p("10.0.0.0/8").contains(&hi));
        assert!(!lo.contains(&hi) && !hi.contains(&lo));
        assert!(p("1.2.3.4/32").split().is_none());
    }

    #[test]
    fn ordering_sorts_covering_before_specific() {
        let mut v = vec![p("10.0.0.0/16"), p("10.0.0.0/8"), p("9.0.0.0/8")];
        v.sort();
        assert_eq!(v, vec![p("9.0.0.0/8"), p("10.0.0.0/8"), p("10.0.0.0/16")]);
    }

    #[test]
    fn serde_uses_display_form() {
        let j = serde_json::to_string(&p("10.0.0.0/8")).unwrap();
        assert_eq!(j, "\"10.0.0.0/8\"");
        let back: Ipv4Prefix = serde_json::from_str(&j).unwrap();
        assert_eq!(back, p("10.0.0.0/8"));
    }
}
