//! Fundamental networking types shared by every crate in the `quicksand`
//! workspace.
//!
//! This crate deliberately has no knowledge of BGP, Tor, or traffic
//! analysis; it only provides the vocabulary those subsystems speak:
//!
//! * [`Asn`] — an autonomous-system number.
//! * [`Ipv4Prefix`] — a CIDR IPv4 prefix with containment/specificity
//!   relations.
//! * [`PrefixTrie`] — a binary radix trie supporting exact and
//!   longest-prefix-match lookups (used to map Tor relay addresses to the
//!   most-specific announced BGP prefix, the paper's "Tor prefixes").
//! * [`AsPath`] — a BGP AS-level path with loop detection and the
//!   distinct-AS queries the paper's metrics are built on.
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution simulated time.
//! * [`QuicksandError`] — the typed error vocabulary of the collector →
//!   monitor pipeline (invalid config, stale feeds, resume mismatches).
//! * [`splitmix64`] — the seeded hash behind every stateless
//!   deterministic draw; [`decorrelated_jitter`] — the backoff step
//!   the restart and reconnect policies share.
//! * [`frame`] — the length-prefixed, CRC-checksummed frame codec the
//!   streaming feed plane speaks over TCP.
//!
//! Everything is plain data: `Copy` where cheap, deterministic `Ord`
//! implementations so collections iterate reproducibly, and `serde`
//! support so higher layers can persist artifacts (consensus files,
//! update logs) as JSON.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asn;
mod aspath;
mod error;
pub mod frame;
mod hash;
mod prefix;
mod time;
mod trie;

pub use asn::Asn;
pub use aspath::AsPath;
pub use error::{QsResult, QuicksandError};
pub use frame::{read_frame, Frame, FrameDecoder, FrameError, MAX_FRAME_LEN};
pub use hash::{decorrelated_jitter, splitmix64};
pub use prefix::{Ipv4Prefix, PrefixParseError};
pub use time::{SimDuration, SimTime};
pub use trie::PrefixTrie;
