//! Typed errors shared across the quicksand pipeline.
//!
//! The collector → monitor pipeline originally panicked on invalid
//! configuration or malformed feeds; under fault injection those
//! conditions are routine, so the hot paths thread [`QuicksandError`]
//! through `Result` instead.

use crate::time::{SimDuration, SimTime};
use std::fmt;

/// Errors raised by the collector → monitor pipeline.
#[derive(Clone, Debug, PartialEq)]
pub enum QuicksandError {
    /// A configuration parameter was out of its valid range.
    InvalidConfig {
        /// The offending parameter.
        what: &'static str,
        /// What was wrong with it.
        detail: String,
    },
    /// A feed has been silent past its staleness bound.
    StaleFeed {
        /// The silent session.
        session: u32,
        /// How long it has been silent.
        silent_for: SimDuration,
    },
    /// A record stream jumped backwards in time beyond tolerance.
    TimeWentBackwards {
        /// The session whose stream regressed.
        session: u32,
        /// The stream's previous high-water timestamp.
        high_water: SimTime,
        /// The offending record's timestamp.
        at: SimTime,
    },
    /// A checkpointed run was stopped by its checkpoint hook (operator
    /// interrupt or crash simulation); resume from the latest snapshot.
    Interrupted {
        /// Churn events fully processed before the interrupt.
        events_done: u64,
    },
    /// A resume snapshot does not match the run being resumed (wrong
    /// configuration, seed, or position).
    ResumeMismatch {
        /// The mismatched aspect (e.g. `config_hash`, `cursor`).
        what: &'static str,
        /// Expected vs found.
        detail: String,
    },
    /// A streaming feed peer violated the session protocol (bad
    /// handshake, cursor gap, wrong event kind for the session mode).
    FeedProtocol {
        /// The violated rule (e.g. `config_hash`, `cursor_gap`).
        what: &'static str,
        /// What the peer actually sent.
        detail: String,
    },
    /// The graceful-restart window expired: every peer stayed gone past
    /// the restart timer, so retained stale state was abandoned.
    FeedRestartExpired {
        /// Events fully delivered before the feed went silent.
        cursor: u64,
        /// How long the feed was silent, in wall milliseconds.
        silent_ms: u64,
    },
    /// A feed client exhausted its reconnect budget without
    /// re-establishing a session.
    FeedLost {
        /// Connection attempts made before giving up.
        attempts: u32,
        /// The last transport-level failure observed.
        detail: String,
    },
}

impl fmt::Display for QuicksandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuicksandError::InvalidConfig { what, detail } => {
                write!(f, "invalid config: {what}: {detail}")
            }
            QuicksandError::StaleFeed { session, silent_for } => {
                write!(f, "session {session} feed stale: silent for {silent_for}")
            }
            QuicksandError::TimeWentBackwards {
                session,
                high_water,
                at,
            } => write!(
                f,
                "session {session} stream went backwards: {at} after {high_water}"
            ),
            QuicksandError::Interrupted { events_done } => {
                write!(f, "run interrupted after {events_done} churn events")
            }
            QuicksandError::ResumeMismatch { what, detail } => {
                write!(f, "resume mismatch: {what}: {detail}")
            }
            QuicksandError::FeedProtocol { what, detail } => {
                write!(f, "feed protocol violation: {what}: {detail}")
            }
            QuicksandError::FeedRestartExpired { cursor, silent_ms } => write!(
                f,
                "feed graceful-restart window expired at cursor {cursor} \
                 after {silent_ms}ms of silence"
            ),
            QuicksandError::FeedLost { attempts, detail } => {
                write!(f, "feed lost after {attempts} connect attempts: {detail}")
            }
        }
    }
}

impl std::error::Error for QuicksandError {}

/// Result alias for pipeline operations.
pub type QsResult<T> = Result<T, QuicksandError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = QuicksandError::InvalidConfig {
            what: "frac_full",
            detail: "must be within [0, 1], got 1.5".into(),
        };
        assert!(e.to_string().contains("frac_full"));
        let e = QuicksandError::StaleFeed {
            session: 3,
            silent_for: SimDuration::from_secs(90),
        };
        assert!(e.to_string().contains("session 3"));
        let e = QuicksandError::FeedProtocol {
            what: "cursor_gap",
            detail: "expected 7, got 12".into(),
        };
        assert!(e.to_string().contains("cursor_gap"));
        let e = QuicksandError::FeedRestartExpired {
            cursor: 41,
            silent_ms: 5000,
        };
        assert!(e.to_string().contains("cursor 41"));
        let e = QuicksandError::FeedLost {
            attempts: 4,
            detail: "connection refused".into(),
        };
        assert!(e.to_string().contains("4 connect attempts"));
    }
}
