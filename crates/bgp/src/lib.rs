//! BGP simulation for the `quicksand` workspace.
//!
//! Two consistent views of interdomain routing, sharing one policy model
//! (Gao–Rexford, from `quicksand-topology`):
//!
//! * [`EventSim`] — a message-level discrete-event simulator: per-session
//!   propagation delays, MRAI rate limiting, Adj-RIB-In / Loc-RIB, the
//!   standard decision process and valley-free export filters, and the
//!   path exploration that happens during convergence. Use it when
//!   transient behavior matters (convergence exposure, attacks).
//! * [`FastConverge`] — static recomputation of post-convergence routes
//!   per churn event (the C-BGP approach). Use it for month-scale studies
//!   where only stable paths matter. Integration tests cross-validate the
//!   two modes on identical inputs.
//!
//! Around them:
//!
//! * [`PrefixTable`] — which AS originates which prefix.
//! * [`Collector`]/[`UpdateLog`] — RIPE-RIS-style route collectors with
//!   full- and partial-feed eBGP sessions, session-reset artifacts, and
//!   the Zhang et al. \[31\] cleaning pass the paper applies.
//! * [`ChurnGenerator`] — a seeded month of link failures/recoveries with
//!   heavy-tailed per-link instability (hosting ASes churn more, encoding
//!   the phenomenon the paper measured).
//! * [`fault`] — deterministic fault injection over collector feeds
//!   (drops, duplicates, reordering, clock skew, session flaps, whole-
//!   collector outages) for degraded-feed robustness studies, plus
//!   seeded connection-level faults for the streaming feed plane.
//! * [`feed`] — the streaming feed protocol: typed session messages
//!   (open/resume/event/keepalive/ack/eof) over the `quicksand-net`
//!   frame codec, with cursor-addressable sources over churn schedules
//!   and MRT logs.
//! * [`metrics`] — the paper's §4 metrics: per-(session, prefix) path
//!   changes, median-normalized ratios, and ≥5-minute extra-AS exposure.
//! * [`mrt`] — a compact MRT-style binary format for persisting logs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod collector;
mod event;
mod fast;
pub mod fault;
pub mod feed;
pub mod metrics;
pub mod mrt;
mod msg;
pub mod paths;
mod table;

pub use churn::{ChurnConfig, ChurnEvent, ChurnGenerator, LinkChange};
pub use collector::{
    clean_session_resets, CleanedLog, CleaningConfig, Collector, CollectorConfig,
    CollectorState, FeedKind, SessionId, UpdateLog, UpdateRecord,
};
pub use event::{EventSim, SimConfig, SimStats};
pub use fast::FastConverge;
pub use fault::{
    ConnChaosPlan, ConnFault, ConnFaultKind, CrashKind, FaultInjector, FaultProfile,
    FaultReport, ReplayChaosPlan, ReplayCrash,
};
pub use feed::FeedMsg;
pub use msg::{Community, Route, UpdateMessage};
pub use paths::{ExportCache, PathArena, PathId};
pub use table::PrefixTable;
