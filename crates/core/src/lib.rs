//! `quicksand-core` — the paper's primary contribution, as a library.
//!
//! *Anonymity on QuickSand: Using BGP to Compromise Tor* (HotNets 2014)
//! argues that AS-level adversaries against Tor are stronger than static
//! path analysis suggests, through three mechanisms this crate models
//! end-to-end on top of the workspace substrates:
//!
//! 1. **Temporal dynamics** ([`temporal`]): BGP churn grows the set of
//!    distinct ASes `x` crossing the client↔guard segment over time, so
//!    the compromise probability `1 − (1 − f)^(l·x)` degrades with time
//!    and with the number of guards `l`.
//! 2. **Active manipulation** (via `quicksand-attack`, orchestrated
//!    here): hijacks reduce anonymity sets, interception enables exact
//!    deanonymization.
//! 3. **Asymmetric traffic analysis** ([`adversary`]): the adversary
//!    needs only *one direction at each end*, which strictly enlarges
//!    the set of ASes in a compromising position.
//!
//! [`scenario`] wires topology, addressing, Tor consensus, churn,
//! collectors, and cleaning into the paper's measurement pipeline;
//! [`experiments`] regenerates each figure/table (see DESIGN.md §4);
//! [`countermeasures`] implements and evaluates §5's defenses;
//! [`report`] renders results as text tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod consensus_data;
pub mod countermeasures;
pub mod ixp;
pub mod longterm;
pub mod parallel;
pub mod population;
pub mod experiments;
pub mod feed;
pub mod report;
pub mod scenario;
pub mod supervise;
pub mod telemetry;
pub mod temporal;

pub use adversary::{ObservationMode, SegmentObservers};
pub use feed::{
    month_fnv, FeedBinding, FeedClient, FeedConfig, FeedServer, FeedSlot, PushOutcome,
    ReconnectPolicy, StreamReport,
};
pub use parallel::Parallelism;
pub use scenario::{MonthResult, Scale, ScaleSpec, Scenario, ScenarioConfig};
pub use supervise::{
    Admission, CellFailure, CellOutcome, CellResult, FailureKind, RestartDecision,
    RestartPolicy, ScenarioJob, SuperviseConfig, Supervisor, SupervisorOutcome,
    WatchdogConfig,
};
pub use telemetry::{
    CellState, CellTelemetry, FeedSessionTelemetry, FleetTelemetry, SessionState,
    TelemetryServer,
};

#[cfg(test)]
pub(crate) mod testworld {
    //! A shared small world for this crate's tests: building a scenario
    //! and replaying a week of churn is the expensive part of every
    //! pipeline test, so do it once.
    use crate::scenario::{MonthResult, Scenario, ScenarioConfig};
    use std::sync::OnceLock;

    static WORLD: OnceLock<(Scenario, MonthResult)> = OnceLock::new();

    pub fn get() -> &'static (Scenario, MonthResult) {
        WORLD.get_or_init(|| {
            let s = Scenario::build(ScenarioConfig::small(21));
            let m = s.run_month().expect("valid collector config");
            (s, m)
        })
    }
}
