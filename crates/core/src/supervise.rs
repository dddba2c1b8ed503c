//! Supervised resident engine: fault-isolated multi-scenario runtime.
//!
//! `repro` runs one month and exits; ROADMAP item 3 wants a long-lived
//! process multiplexing many concurrent scenarios. A resident process
//! is only useful if one wedged or panicking scenario cannot take the
//! fleet down, so this module supervises: each submitted scenario runs
//! in its own **fault domain** — a `ScenarioCell` on a scoped thread
//! that wraps the checkpointed month replay in `catch_unwind`, beats a
//! heartbeat at every checkpoint boundary, and persists snapshots into
//! its own [`CheckpointStore`]. Around the cells sit:
//!
//! * a **watchdog** ([`WatchdogConfig`]): a supervisor-side thread that
//!   trips when a running cell stops beating past its progress
//!   deadline (derived from the obs registry's measured `replay_rate`
//!   when available, a configured floor otherwise) and cancels the
//!   cell at its next heartbeat;
//! * **bounded queues with explicit backpressure**: admissions beyond
//!   [`SuperviseConfig::queue_cap`] are *shed* ([`Admission::Shed`]) —
//!   reject-new before degrade-running — and completed-cell results
//!   flow through a bounded channel, so a slow consumer backpressures
//!   cells instead of buffering unboundedly;
//! * a **seeded-deterministic restart policy** ([`RestartPolicy`]):
//!   capped exponential backoff with decorrelated jitter where every
//!   delay and every restart-vs-quarantine decision is a pure function
//!   of `(policy seed, cell id, failure trace)`; a cell that exhausts
//!   its restart budget is **quarantined**, never retried, and never
//!   allowed to disturb its neighbours.
//!
//! A restarted attempt resumes from the newest valid checkpoint in the
//! cell's store (corrupt files are skipped by the store itself), and
//! resume-exactness (DESIGN.md §9) guarantees the completed
//! `MonthResult` is bitwise-identical to an uninterrupted serial run —
//! the crash-storm gate in `tests/chaos.rs` enforces exactly that.
//! Supervisor state is published under the `supervisor` obs stage and
//! folded into the `supervisor` section of the run report
//! (DESIGN.md §12).

use crate::feed::FeedSlot;
use crate::scenario::{MonthResult, Scenario, ScenarioConfig};
use crate::telemetry::{CellState, CellTelemetry, FleetTelemetry};
use quicksand_bgp::{CrashKind, ReplayChaosPlan};
use quicksand_net::{decorrelated_jitter, splitmix64, QuicksandError};
use quicksand_obs as obs;
use quicksand_obs::{Key, Registry};
use quicksand_recover::{CheckpointStore, HookAction, DEFAULT_RETAIN};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The obs stage every supervisor metric and event is published under.
pub const STAGE: &str = "supervisor";

/// How one replay attempt inside a cell failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FailureKind {
    /// The attempt panicked; `catch_unwind` contained it.
    Panic,
    /// The watchdog tripped (no heartbeat within the progress
    /// deadline) and cancelled the attempt at its next checkpoint.
    Stall,
    /// The attempt returned a typed pipeline error (bad configuration,
    /// checkpoint-save failure, resume mismatch).
    Error,
}

impl FailureKind {
    /// Stable tag mixed into the jitter hash, so the backoff schedule
    /// depends on the failure *trace*, not just its length.
    fn tag(self) -> u64 {
        match self {
            FailureKind::Panic => 0x50,
            FailureKind::Stall => 0x57,
            FailureKind::Error => 0x5E,
        }
    }
}

/// One recorded failure of a cell attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellFailure {
    /// Which attempt failed (0 = first run).
    pub attempt: u32,
    /// The last fully-checkpointed cursor before the failure.
    pub cursor: u64,
    /// How it failed.
    pub kind: FailureKind,
    /// Human-readable detail (panic payload, error display).
    pub detail: String,
}

/// What the policy says to do after a failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RestartDecision {
    /// Restart (attempt number `attempt`) after `after_ms` of backoff.
    Restart {
        /// The attempt number the restart begins (1 = first restart).
        attempt: u32,
        /// Backoff before the restart, milliseconds.
        after_ms: u64,
    },
    /// The restart budget is exhausted: isolate the cell for good.
    Quarantine,
}

/// Capped exponential backoff with decorrelated jitter, restart budget
/// included — and fully deterministic.
///
/// Every quantity is a pure function of `(seed, cell, failure trace)`:
/// the jitter draw for restart *k* hashes the policy seed, the cell
/// id, the attempt index, and the *kind* of every failure so far, via
/// the same splitmix64 construction the fault layer uses. Two
/// supervisors replaying the same failure trace therefore produce
/// byte-identical restart timelines — the property
/// `crates/core/tests/proptest_supervise.rs` pins down.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RestartPolicy {
    /// First backoff, and the floor of every jittered draw (ms).
    pub base_ms: u64,
    /// Ceiling of every backoff (ms).
    pub cap_ms: u64,
    /// How many restarts a cell may consume before quarantine.
    pub max_restarts: u32,
    /// Seed for the decorrelated jitter.
    pub seed: u64,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy {
            base_ms: 25,
            cap_ms: 400,
            max_restarts: 3,
            seed: 0x5EED_BACC,
        }
    }
}

impl RestartPolicy {
    /// The backoff before the restart that answers the last failure in
    /// `trace`: decorrelated jitter (`sleep_k` drawn from
    /// `[base, min(cap, 3·sleep_{k−1})]`), iterated over the whole
    /// trace so the schedule is a pure function of it.
    pub fn backoff_ms(&self, cell: u64, trace: &[FailureKind]) -> u64 {
        let base = self.base_ms.max(1);
        let cap = self.cap_ms.max(base);
        trace.iter().enumerate().fold(base, |prev, (k, kind)| {
            let h = splitmix64(
                self.seed
                    ^ splitmix64(cell ^ 0xCE11)
                    ^ splitmix64((k as u64) << 8 | kind.tag()),
            );
            decorrelated_jitter(prev, base, cap, h)
        })
    }

    /// The decision after the failures in `trace` (the last element is
    /// the one just suffered): restart with the jittered backoff, or
    /// quarantine once the budget is spent. Pure in `(seed, cell,
    /// trace)`.
    pub fn decide(&self, cell: u64, trace: &[FailureKind]) -> RestartDecision {
        let failures = trace.len() as u32;
        assert!(failures > 0, "a decision needs at least one failure");
        if failures > self.max_restarts {
            RestartDecision::Quarantine
        } else {
            RestartDecision::Restart {
                attempt: failures,
                after_ms: self.backoff_ms(cell, trace),
            }
        }
    }

    /// The full restart timeline for a failure trace: one decision per
    /// failure, in order. Same trace ⇒ identical timeline.
    pub fn schedule(&self, cell: u64, trace: &[FailureKind]) -> Vec<RestartDecision> {
        (1..=trace.len())
            .map(|k| self.decide(cell, &trace[..k]))
            .collect()
    }
}

/// Watchdog configuration: how progress is policed.
#[derive(Clone, Debug, PartialEq)]
pub struct WatchdogConfig {
    /// How often the watchdog polls cell heartbeats (ms).
    pub poll_ms: u64,
    /// Progress-deadline floor: a running cell that has not beaten for
    /// this long is tripped (ms).
    pub deadline_ms: u64,
    /// Safety factor over the registry-derived expected
    /// checkpoint-to-checkpoint time.
    pub grace: f64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            poll_ms: 25,
            deadline_ms: 2_000,
            grace: 8.0,
        }
    }
}

impl WatchdogConfig {
    /// The effective progress deadline: the configured floor, raised to
    /// `grace ×` the expected time between checkpoints whenever the
    /// obs registry has a measured `churn.replay_rate` (events/s) from
    /// an earlier replay in this process — slow hardware widens the
    /// deadline instead of tripping healthy cells.
    pub fn effective_deadline_ms(&self, registry: &Registry, checkpoint_every: u64) -> u64 {
        let derived = registry
            .gauge_value(Key::stage("churn", "replay_rate"))
            .filter(|rate| *rate > 0.0)
            .map(|rate| (checkpoint_every.max(1) as f64 / rate * 1000.0 * self.grace) as u64)
            .unwrap_or(0);
        self.deadline_ms.max(derived)
    }
}

/// Supervisor-wide configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct SuperviseConfig {
    /// Concurrent cells (fault domains running at once).
    pub width: usize,
    /// Admission bound: submissions past this many *pending* jobs are
    /// shed. Load-shedding is strictly reject-new — running cells are
    /// never degraded to make room.
    pub queue_cap: usize,
    /// Bound on buffered completed-cell results: when the consumer
    /// falls behind, finishing cells block (backpressure) rather than
    /// buffer without bound.
    pub results_cap: usize,
    /// Checkpoint every N fully-processed churn events (also the
    /// heartbeat granularity). Must be > 0 for supervision to observe
    /// progress.
    pub checkpoint_every: u64,
    /// Checkpoints retained per cell store.
    pub retain: usize,
    /// Restart policy.
    pub restart: RestartPolicy,
    /// Watchdog policy.
    pub watchdog: WatchdogConfig,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        SuperviseConfig {
            width: 4,
            queue_cap: 16,
            results_cap: 4,
            checkpoint_every: 25,
            retain: DEFAULT_RETAIN,
            restart: RestartPolicy::default(),
            watchdog: WatchdogConfig::default(),
        }
    }
}

/// One scenario submitted to the supervisor.
#[derive(Clone, Debug)]
pub struct ScenarioJob {
    /// Display label (also used in events).
    pub label: String,
    /// The scenario to run.
    pub config: ScenarioConfig,
    /// Checkpoint directory for this cell. `None` disables persistence
    /// (restarts then replay from the start — still exact, just
    /// slower).
    pub store_dir: Option<PathBuf>,
    /// Scripted crash injection (tests/chaos smoke). `None` in
    /// production.
    pub chaos: Option<ReplayChaosPlan>,
    /// Streamed ingest: when set, the cell replays churn from this
    /// feed slot (fed by a [`crate::feed::FeedServer`] session)
    /// instead of generating the schedule locally. The replay loop is
    /// identical either way, so a feed that streams the generated
    /// schedule yields a bitwise-identical [`MonthResult`].
    pub feed: Option<Arc<FeedSlot>>,
    /// After a streamed run completes, re-run the month from the
    /// locally generated schedule and compare fingerprints
    /// ([`crate::feed::month_fnv`] plus the cleaned log), publishing
    /// `feed.identity_ok` / `feed.identity_mismatch` on the
    /// supervisor's registry. Ignored without `feed`.
    pub feed_verify: bool,
}

impl ScenarioJob {
    /// A job with no checkpoint store, no chaos, and no feed.
    pub fn new(label: impl Into<String>, config: ScenarioConfig) -> Self {
        ScenarioJob {
            label: label.into(),
            config,
            store_dir: None,
            chaos: None,
            feed: None,
            feed_verify: false,
        }
    }
}

/// The admission verdict for one submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Accepted; the job got this cell id.
    Admitted(usize),
    /// Shed: the pending queue is at capacity. The job was NOT
    /// enqueued; resubmit later or widen the queue.
    Shed,
}

/// Terminal state of one cell.
#[derive(Debug)]
pub enum CellResult {
    /// The scenario completed (possibly after restarts).
    Completed {
        /// The month result — bitwise-identical to an unsupervised
        /// serial run of the same configuration.
        month: MonthResult,
        /// The cell's final metrics registry snapshot (resume-exact
        /// after restarts).
        metrics: obs::Snapshot,
    },
    /// The restart budget was exhausted; the cell is isolated.
    Quarantined {
        /// The failure that spent the last restart.
        last: FailureKind,
    },
    /// Supervision infrastructure failed (e.g. the checkpoint store
    /// could not be opened). Counted as quarantine for exit purposes.
    Failed {
        /// What went wrong.
        error: String,
    },
}

/// Everything the supervisor knows about one finished cell.
#[derive(Debug)]
pub struct CellOutcome {
    /// Cell id (admission order).
    pub id: usize,
    /// The job's label.
    pub label: String,
    /// Terminal state.
    pub result: CellResult,
    /// Restarts consumed.
    pub restarts: u32,
    /// Watchdog trips suffered.
    pub watchdog_trips: u64,
    /// Every failure, in order — the cell's failure trace.
    pub failures: Vec<CellFailure>,
    /// Flight-recorder events drained after the *last* failed attempt
    /// (empty when the cell never failed). The same events, sequence
    /// numbers included, are appended to `postmortem-cell<K>.jsonl` in
    /// the cell's store directory when it has one.
    pub last_telemetry: Vec<obs::Event>,
}

impl CellOutcome {
    /// True when the cell completed but needed restarts or tripped the
    /// watchdog on the way — it ran *degraded*.
    pub fn degraded(&self) -> bool {
        matches!(self.result, CellResult::Completed { .. })
            && (self.restarts > 0 || self.watchdog_trips > 0)
    }
}

/// The fleet-level outcome of one supervised run.
#[derive(Debug)]
pub struct SupervisorOutcome {
    /// Per-cell outcomes, indexed by cell id.
    pub cells: Vec<CellOutcome>,
    /// Submissions shed at admission.
    pub shed: u64,
}

impl SupervisorOutcome {
    /// Number of cells that completed.
    pub fn completed(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c.result, CellResult::Completed { .. }))
            .count()
    }

    /// Number of cells quarantined (or failed at the infrastructure
    /// level, which is treated the same).
    pub fn quarantined(&self) -> usize {
        self.cells.len() - self.completed()
    }

    /// True when any cell ended quarantined/failed — `repro serve`
    /// maps this to exit code 4.
    pub fn any_quarantined(&self) -> bool {
        self.quarantined() > 0
    }
}

/// Heartbeat block shared between a cell and the watchdog.
///
/// `seq` advances on every checkpoint boundary and state change; the
/// watchdog trips a cell whose `seq` stands still past the progress
/// deadline while the cell claims to be running, setting `cancel` so
/// the cell's hook stops the attempt at the next opportunity.
#[derive(Debug, Default)]
struct CellBeat {
    seq: AtomicU64,
    cursor: AtomicU64,
    running: AtomicBool,
    cancel: AtomicBool,
    trips: AtomicU64,
}

impl CellBeat {
    fn beat(&self, cursor: u64) {
        self.cursor.store(cursor, Ordering::Release);
        self.seq.fetch_add(1, Ordering::AcqRel);
    }

    fn set_running(&self, running: bool) {
        self.running.store(running, Ordering::Release);
        self.seq.fetch_add(1, Ordering::AcqRel);
    }

    fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Acquire)
    }

    fn trip(&self) {
        self.cancel.store(true, Ordering::Release);
        self.trips.fetch_add(1, Ordering::AcqRel);
    }

    fn clear_cancel(&self) {
        self.cancel.store(false, Ordering::Release);
    }
}

/// One fault domain: a scenario plus its heartbeat, store, chaos plan,
/// and restart accounting, executed by [`Supervisor::run`] on its own
/// scoped thread.
struct ScenarioCell<'a> {
    id: usize,
    job: ScenarioJob,
    cfg: &'a SuperviseConfig,
    beat: Arc<CellBeat>,
    parent: Arc<Registry>,
    telem: Arc<CellTelemetry>,
    /// The sink active on the thread that called [`Supervisor::run`]
    /// (thread-local sinks would otherwise be invisible from the cell's
    /// scoped thread); fanned out with the per-attempt flight recorder.
    outer_sink: Option<Arc<dyn obs::Subscriber>>,
}

impl ScenarioCell<'_> {
    fn emit(&self, name: &'static str, message: String, cursor: u64) {
        if obs::enabled(obs::Level::Warn) {
            obs::emit(
                obs::Event::new(obs::Level::Warn, STAGE, name, message)
                    .with("cell", self.id as u64)
                    .with("label", self.job.label.clone())
                    .with("cursor", cursor),
            );
        }
    }

    /// Run the cell to its terminal state. Panics from the scenario are
    /// contained here; nothing escapes to the supervisor except the
    /// outcome.
    fn run(self) -> CellOutcome {
        let store = match self
            .job
            .store_dir
            .as_ref()
            .map(|d| CheckpointStore::open(d, self.cfg.retain))
            .transpose()
        {
            Ok(s) => s,
            Err(e) => {
                self.parent.incr(Key::stage(STAGE, "failed"), 1);
                self.telem.set_state(CellState::Failed);
                return CellOutcome {
                    id: self.id,
                    label: self.job.label.clone(),
                    result: CellResult::Failed {
                        error: format!("cannot open checkpoint store: {e}"),
                    },
                    restarts: 0,
                    watchdog_trips: 0,
                    failures: Vec::new(),
                    last_telemetry: Vec::new(),
                };
            }
        };
        let scenario = Scenario::build(self.job.config.clone());
        let mut trace: Vec<FailureKind> = Vec::new();
        let mut failures: Vec<CellFailure> = Vec::new();
        let mut last_telemetry: Vec<obs::Event> = Vec::new();
        let mut attempt: u32 = 0;
        loop {
            self.beat.clear_cancel();
            self.beat.set_running(true);
            let cell_reg = Arc::new(Registry::new());
            self.telem.set_registry(cell_reg.clone());
            self.telem.set_state(CellState::Running);
            // The attempt's flight recorder: fanned out with whatever
            // sink is already active so breadcrumbs still reach the
            // console/JSONL stream, but retained here regardless of the
            // outer sink's level filtering (or absence).
            let ring = Arc::new(obs::RingSubscriber::with_capacity(obs::DEFAULT_RING_CAP));
            let sink: Arc<dyn obs::Subscriber> = match &self.outer_sink {
                Some(outer) => Arc::new(obs::FanoutSubscriber::new(vec![
                    outer.clone(),
                    ring.clone(),
                ])),
                None => ring.clone(),
            };
            let mut chaos_fired = false;
            let mut save_error: Option<String> = None;
            let run = catch_unwind(AssertUnwindSafe(|| {
                obs::with_subscriber(sink.clone(), || obs::with_metrics(cell_reg.clone(), || {
                    // Checkpoint-backed start: every attempt (including
                    // the first, for resident restarts over a warm
                    // store) resumes from the newest valid snapshot;
                    // corrupt files are skipped by the store itself.
                    let resume = match &store {
                        Some(s) => s.load_latest().map_err(|e| {
                            QuicksandError::ResumeMismatch {
                                what: "checkpoint store",
                                detail: e.to_string(),
                            }
                        })?,
                        None => None,
                    };
                    let hook = |snap: &quicksand_recover::PipelineSnapshot| {
                            // Persist BEFORE anything can fail, so a
                            // crash at cursor K restarts from K.
                            if let Some(s) = &store {
                                if let Err(e) = s.save(snap) {
                                    save_error = Some(e.to_string());
                                    return HookAction::Stop;
                                }
                            }
                            self.beat.beat(snap.cursor);
                            self.telem.touch(snap.cursor);
                            // Breadcrumb for the flight recorder: the
                            // ring's always-on `enabled` makes Debug
                            // visible here even under a quiet console,
                            // so a post-mortem always carries the
                            // cell's final checkpoints.
                            if obs::enabled(obs::Level::Debug) {
                                obs::emit(
                                    obs::Event::new(
                                        obs::Level::Debug,
                                        STAGE,
                                        "checkpoint",
                                        "checkpoint persisted",
                                    )
                                    .with("cell", self.id as u64)
                                    .with("attempt", attempt)
                                    .with("cursor", snap.cursor),
                                );
                            }
                            if !chaos_fired {
                                if let Some(crash) = self
                                    .job
                                    .chaos
                                    .as_ref()
                                    .and_then(|p| p.fire(attempt, snap.cursor))
                                {
                                    chaos_fired = true;
                                    match crash.kind {
                                        CrashKind::Panic => panic!(
                                            "injected replay panic (cell {}, attempt {attempt}, \
                                             cursor {})",
                                            self.id, snap.cursor
                                        ),
                                        CrashKind::Stall { ms } => {
                                            std::thread::sleep(Duration::from_millis(ms))
                                        }
                                    }
                                }
                            }
                            if self.beat.cancelled() {
                                HookAction::Stop
                            } else {
                                HookAction::Continue
                            }
                        };
                    let resume_snap = resume.as_ref().map(|(snap, _)| snap);
                    match &self.job.feed {
                        None => scenario.run_month_checkpointed(
                            resume_snap,
                            self.cfg.checkpoint_every,
                            hook,
                        ),
                        Some(slot) => {
                            // Streamed ingest: the cell consumes its
                            // feed slot, beating the watchdog on every
                            // poll tick so waiting-for-the-network is
                            // not mistaken for a stall — the slot's own
                            // graceful-restart timer is the typed
                            // escape from a feed that never returns.
                            let beat = &self.beat;
                            let telem = &self.telem;
                            let mut events = slot.churn_iter(|| {
                                let cursor = beat.cursor.load(Ordering::Acquire);
                                beat.beat(cursor);
                                telem.touch(cursor);
                            });
                            scenario.run_month_streamed(
                                &mut events,
                                resume_snap,
                                self.cfg.checkpoint_every,
                                hook,
                            )
                        }
                    }
                }))
            }));
            self.beat.set_running(false);
            let cursor = self.beat.cursor.load(Ordering::Acquire);
            let (kind, detail) = match run {
                Ok(Ok(month)) => {
                    if self.job.feed.is_some() && self.job.feed_verify {
                        // The streamed month must be bitwise-identical
                        // to a batch replay of the same config: re-run
                        // from the locally generated schedule (under a
                        // scratch registry so the verification replay
                        // pollutes no one's metrics) and compare raw-
                        // log fingerprints plus the cleaned log.
                        let scratch = Arc::new(Registry::new());
                        let batch = obs::with_metrics(scratch, || scenario.run_month());
                        let identical = match &batch {
                            Ok(b) => {
                                crate::feed::month_fnv(b) == crate::feed::month_fnv(&month)
                                    && b.cleaned.records(&b.raw).eq(month.cleaned.records(&month.raw))
                            }
                            Err(_) => false,
                        };
                        if identical {
                            self.parent
                                .incr(Key::stage(crate::feed::STAGE, "identity_ok"), 1);
                        } else {
                            self.parent.incr(
                                Key::stage(crate::feed::STAGE, "identity_mismatch"),
                                1,
                            );
                            self.emit(
                                "feed-identity-mismatch",
                                format!(
                                    "cell {} streamed month diverges from its batch twin",
                                    self.id
                                ),
                                cursor,
                            );
                        }
                    }
                    self.parent.incr(Key::stage(STAGE, "completed"), 1);
                    self.telem.set_state(CellState::Completed);
                    self.telem.set_counts(
                        attempt as u64,
                        self.beat.trips.load(Ordering::Acquire),
                    );
                    return CellOutcome {
                        id: self.id,
                        label: self.job.label.clone(),
                        result: CellResult::Completed {
                            month,
                            metrics: cell_reg.snapshot(),
                        },
                        restarts: attempt,
                        watchdog_trips: self.beat.trips.load(Ordering::Acquire),
                        failures,
                        last_telemetry,
                    };
                }
                Ok(Err(QuicksandError::Interrupted { events_done })) => {
                    if let Some(e) = save_error.take() {
                        (FailureKind::Error, format!("checkpoint save failed: {e}"))
                    } else {
                        (
                            FailureKind::Stall,
                            format!("watchdog cancelled after {events_done} events"),
                        )
                    }
                }
                Ok(Err(e)) => (FailureKind::Error, e.to_string()),
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    (FailureKind::Panic, msg)
                }
            };
            match kind {
                FailureKind::Panic => self.parent.incr(Key::stage(STAGE, "panics"), 1),
                FailureKind::Stall => self.parent.incr(Key::stage(STAGE, "stalls"), 1),
                FailureKind::Error => self.parent.incr(Key::stage(STAGE, "errors"), 1),
            }
            // Drain the flight recorder and write the post-mortem. The
            // footer makes the file non-empty even when the attempt
            // died before its first breadcrumb.
            let drained = ring.drain();
            let footer = obs::Event::new(
                obs::Level::Warn,
                STAGE,
                "postmortem",
                format!("{kind:?}: {detail}"),
            )
            .with("cell", self.id as u64)
            .with("attempt", attempt)
            .with("cursor", cursor);
            if let Some(dir) = &self.job.store_dir {
                let path = dir.join(format!("postmortem-cell{}.jsonl", self.id));
                match obs::ring::write_postmortem(&path, &drained, Some(&footer)) {
                    Ok(()) => self.parent.incr(Key::stage(STAGE, "postmortems"), 1),
                    Err(e) => {
                        self.parent.incr(Key::stage(STAGE, "postmortem_errors"), 1);
                        self.emit(
                            "postmortem-error",
                            format!("cannot write post-mortem: {e}"),
                            cursor,
                        );
                    }
                }
            }
            last_telemetry = drained.into_iter().map(|(_, e)| e).collect();
            last_telemetry.push(footer);
            self.emit("cell-failure", format!("{kind:?}: {detail}"), cursor);
            trace.push(kind);
            failures.push(CellFailure {
                attempt,
                cursor,
                kind,
                detail,
            });
            match self.cfg.restart.decide(self.id as u64, &trace) {
                RestartDecision::Quarantine => {
                    self.parent.incr(Key::stage(STAGE, "quarantined"), 1);
                    self.telem.set_state(CellState::Quarantined);
                    self.telem.set_counts(
                        attempt as u64,
                        self.beat.trips.load(Ordering::Acquire),
                    );
                    self.emit(
                        "cell-quarantined",
                        format!("restart budget exhausted after {} failures", trace.len()),
                        cursor,
                    );
                    return CellOutcome {
                        id: self.id,
                        label: self.job.label.clone(),
                        result: CellResult::Quarantined { last: kind },
                        restarts: attempt,
                        watchdog_trips: self.beat.trips.load(Ordering::Acquire),
                        failures,
                        last_telemetry,
                    };
                }
                RestartDecision::Restart {
                    attempt: next,
                    after_ms,
                } => {
                    self.parent.incr(Key::stage(STAGE, "restarts"), 1);
                    self.telem.set_state(CellState::Backoff);
                    self.telem.set_counts(
                        next as u64,
                        self.beat.trips.load(Ordering::Acquire),
                    );
                    self.emit(
                        "cell-restart",
                        format!("attempt {next} after {after_ms}ms backoff"),
                        cursor,
                    );
                    std::thread::sleep(Duration::from_millis(after_ms));
                    attempt = next;
                }
            }
        }
    }
}

/// The supervisor: a bounded admission queue in front of a
/// width-limited fleet of `ScenarioCell`s, plus the watchdog.
///
/// Usage: [`Supervisor::new`], [`Supervisor::submit`] each job
/// (checking for [`Admission::Shed`]), then [`Supervisor::run`] to
/// drive every admitted cell to a terminal state.
pub struct Supervisor {
    cfg: SuperviseConfig,
    queue: Vec<ScenarioJob>,
    shed: u64,
    telemetry: Arc<FleetTelemetry>,
    cell_views: Vec<Arc<CellTelemetry>>,
}

impl Supervisor {
    /// A supervisor with an empty admission queue.
    pub fn new(cfg: SuperviseConfig) -> Supervisor {
        obs::gauge(STAGE, "width", cfg.width.max(1) as f64);
        Supervisor {
            cfg,
            queue: Vec::new(),
            shed: 0,
            telemetry: Arc::new(FleetTelemetry::new(obs::metrics())),
            cell_views: Vec::new(),
        }
    }

    /// Pending (admitted, not yet run) jobs.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The live fleet view the scrape endpoint serves. Clone this
    /// *before* [`Supervisor::run`] consumes the supervisor and hand it
    /// to a [`crate::telemetry::TelemetryServer`]; it stays valid (and
    /// keeps updating) for the whole run.
    pub fn telemetry(&self) -> Arc<FleetTelemetry> {
        self.telemetry.clone()
    }

    /// Admit `job`, or shed it when the queue is at capacity.
    /// Shedding is the explicit load-shedding policy: new work is
    /// rejected *before* any running cell is degraded.
    pub fn submit(&mut self, job: ScenarioJob) -> Admission {
        if self.queue.len() >= self.cfg.queue_cap.max(1) {
            self.shed += 1;
            obs::incr(STAGE, "shed", 1);
            if obs::enabled(obs::Level::Warn) {
                obs::emit(
                    obs::Event::new(
                        obs::Level::Warn,
                        STAGE,
                        "shed",
                        "admission queue full; job rejected",
                    )
                    .with("label", job.label)
                    .with("queue_cap", self.cfg.queue_cap as u64),
                );
            }
            return Admission::Shed;
        }
        let id = self.queue.len();
        obs::incr(STAGE, "cells", 1);
        obs::gauge(STAGE, "queue_depth", (id + 1) as f64);
        self.cell_views.push(self.telemetry.add_cell(id, &job.label));
        self.queue.push(job);
        Admission::Admitted(id)
    }

    /// Drive every admitted job to a terminal state: at most
    /// `width` cells run concurrently; completed cells hand their
    /// outcome through a bounded channel (backpressure, not
    /// unbounded buffering); the watchdog polls heartbeats the whole
    /// time. Returns when the fleet is drained.
    pub fn run(self) -> SupervisorOutcome {
        let Supervisor {
            cfg,
            queue,
            shed,
            telemetry,
            cell_views,
        } = self;
        let n = queue.len();
        let parent = obs::metrics();
        let width = cfg.width.max(1);
        let deadline_ms = cfg
            .watchdog
            .effective_deadline_ms(&parent, cfg.checkpoint_every);
        obs::gauge(STAGE, "watchdog_deadline_ms", deadline_ms as f64);
        telemetry.set_deadline_ms(deadline_ms);
        let outer_sink = obs::subscriber();
        let beats: Vec<Arc<CellBeat>> =
            (0..n).map(|_| Arc::new(CellBeat::default())).collect();
        let done = AtomicBool::new(false);
        let mut outcomes: Vec<Option<CellOutcome>> = Vec::new();
        outcomes.resize_with(n, || None);
        let (tx, rx) = sync_channel::<CellOutcome>(cfg.results_cap.max(1));
        std::thread::scope(|scope| {
            let watchdog_parent = Arc::clone(&parent);
            let beats_ref = &beats;
            let done_ref = &done;
            let wd_cfg = cfg.watchdog.clone();
            scope.spawn(move || {
                watchdog_loop(beats_ref, done_ref, &wd_cfg, deadline_ms, &watchdog_parent)
            });

            let mut jobs: Vec<Option<ScenarioJob>> = queue.into_iter().map(Some).collect();
            let mut next = 0usize;
            let mut running = 0usize;
            let mut finished = 0usize;
            while finished < n {
                while running < width && next < n {
                    let job = jobs[next].take().expect("job dispatched once");
                    let cell = ScenarioCell {
                        id: next,
                        job,
                        cfg: &cfg,
                        beat: Arc::clone(&beats[next]),
                        parent: Arc::clone(&parent),
                        telem: Arc::clone(&cell_views[next]),
                        outer_sink: outer_sink.clone(),
                    };
                    let tx = tx.clone();
                    let parent = Arc::clone(&parent);
                    scope.spawn(move || {
                        let out = cell.run();
                        // Bounded handoff: a full buffer means the
                        // consumer is behind — block (and count the
                        // backpressure) rather than buffer unboundedly.
                        match tx.try_send(out) {
                            Ok(()) => {}
                            Err(TrySendError::Full(out)) => {
                                parent.incr(Key::stage(STAGE, "backpressure_waits"), 1);
                                let _ = tx.send(out);
                            }
                            Err(TrySendError::Disconnected(_)) => {}
                        }
                    });
                    next += 1;
                    running += 1;
                    obs::gauge(STAGE, "queue_depth", (n - next) as f64);
                }
                let out = rx.recv().expect("cells outlive the dispatch loop");
                running -= 1;
                finished += 1;
                let id = out.id;
                outcomes[id] = Some(out);
            }
            done.store(true, Ordering::Release);
        });
        let cells: Vec<CellOutcome> = outcomes
            .into_iter()
            .map(|o| o.expect("every cell reported"))
            .collect();
        let outcome = SupervisorOutcome { cells, shed };
        obs::gauge(STAGE, "queue_depth", 0.0);
        obs::gauge(STAGE, "degraded", outcome
            .cells
            .iter()
            .filter(|c| c.degraded())
            .count() as f64);
        outcome
    }
}

/// The watchdog: poll heartbeats; a running cell whose sequence number
/// stands still past the deadline is tripped exactly once per stall
/// (the trip cancels the attempt, the cell clears the flag on
/// restart).
fn watchdog_loop(
    beats: &[Arc<CellBeat>],
    done: &AtomicBool,
    cfg: &WatchdogConfig,
    deadline_ms: u64,
    parent: &Registry,
) {
    let deadline = Duration::from_millis(deadline_ms.max(1));
    let mut last_seq: Vec<u64> = beats.iter().map(|b| b.seq.load(Ordering::Acquire)).collect();
    let mut last_change: Vec<Instant> = vec![Instant::now(); beats.len()];
    while !done.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(cfg.poll_ms.max(1)));
        for (i, beat) in beats.iter().enumerate() {
            let seq = beat.seq.load(Ordering::Acquire);
            if seq != last_seq[i] {
                last_seq[i] = seq;
                last_change[i] = Instant::now();
                continue;
            }
            if beat.running.load(Ordering::Acquire)
                && !beat.cancelled()
                && last_change[i].elapsed() >= deadline
            {
                beat.trip();
                parent.incr(Key::stage(STAGE, "watchdog_trips"), 1);
                if obs::enabled(obs::Level::Warn) {
                    obs::emit(
                        obs::Event::new(
                            obs::Level::Warn,
                            STAGE,
                            "watchdog-trip",
                            "no heartbeat within the progress deadline; cancelling",
                        )
                        .with("cell", i as u64)
                        .with("deadline_ms", deadline_ms),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_pure_and_capped() {
        let policy = RestartPolicy {
            base_ms: 10,
            cap_ms: 120,
            max_restarts: 5,
            seed: 0xF00D,
        };
        let trace = [
            FailureKind::Panic,
            FailureKind::Stall,
            FailureKind::Panic,
            FailureKind::Error,
        ];
        let a = policy.schedule(3, &trace);
        let b = policy.schedule(3, &trace);
        assert_eq!(a, b, "same (seed, cell, trace) must give one timeline");
        for d in &a {
            match d {
                RestartDecision::Restart { after_ms, .. } => {
                    assert!((10..=120).contains(after_ms), "backoff out of bounds: {after_ms}")
                }
                RestartDecision::Quarantine => panic!("budget 5 covers 4 failures"),
            }
        }
        // The kind of a failure matters, not just the count.
        let other = policy.schedule(3, &[FailureKind::Error, FailureKind::Stall]);
        let same_len = policy.schedule(3, &[FailureKind::Panic, FailureKind::Stall]);
        assert_ne!(other, same_len, "failure kinds must perturb the jitter");
        // Another cell gets a different (but equally deterministic) timeline.
        assert_ne!(policy.schedule(4, &trace), a);
        // Both timelines are pinned.
        let pinned = |ms: [u64; 4]| -> Vec<RestartDecision> {
            (1..)
                .zip(ms)
                .map(|(attempt, after_ms)| RestartDecision::Restart { attempt, after_ms })
                .collect()
        };
        assert_eq!(a, pinned([26, 18, 13, 29]));
        assert_eq!(policy.schedule(4, &trace), pinned([21, 41, 56, 94]));
    }

    #[test]
    fn budget_exhaustion_quarantines() {
        let policy = RestartPolicy {
            max_restarts: 2,
            ..RestartPolicy::default()
        };
        let trace = vec![FailureKind::Panic; 3];
        let schedule = policy.schedule(0, &trace);
        assert!(matches!(schedule[0], RestartDecision::Restart { attempt: 1, .. }));
        assert!(matches!(schedule[1], RestartDecision::Restart { attempt: 2, .. }));
        assert_eq!(schedule[2], RestartDecision::Quarantine);
        // Budget 0: the very first failure quarantines.
        let zero = RestartPolicy {
            max_restarts: 0,
            ..RestartPolicy::default()
        };
        assert_eq!(zero.decide(0, &[FailureKind::Stall]), RestartDecision::Quarantine);
    }

    #[test]
    fn admission_sheds_past_the_queue_cap_only() {
        let reg = Arc::new(Registry::new());
        obs::with_metrics(reg.clone(), || {
            let cfg = SuperviseConfig {
                queue_cap: 2,
                ..SuperviseConfig::default()
            };
            let mut sup = Supervisor::new(cfg);
            let job = || ScenarioJob::new("j", ScenarioConfig::small(1));
            assert_eq!(sup.submit(job()), Admission::Admitted(0));
            assert_eq!(sup.submit(job()), Admission::Admitted(1));
            assert_eq!(sup.submit(job()), Admission::Shed);
            assert_eq!(sup.submit(job()), Admission::Shed);
            assert_eq!(sup.pending(), 2, "shed jobs must not be enqueued");
            assert_eq!(sup.shed, 2);
        });
        assert_eq!(reg.counter_value(Key::stage(STAGE, "shed")), 2);
        assert_eq!(reg.counter_value(Key::stage(STAGE, "cells")), 2);
    }

    #[test]
    fn watchdog_trips_a_silent_running_cell_once() {
        let reg = Registry::new();
        let beats = vec![Arc::new(CellBeat::default()), Arc::new(CellBeat::default())];
        // Cell 0 claims to run and then goes silent; cell 1 is idle.
        beats[0].set_running(true);
        let done = AtomicBool::new(false);
        let cfg = WatchdogConfig {
            poll_ms: 5,
            deadline_ms: 30,
            grace: 1.0,
        };
        std::thread::scope(|scope| {
            let beats_ref = &beats;
            let done_ref = &done;
            let reg_ref = &reg;
            let cfg_ref = &cfg;
            scope.spawn(move || watchdog_loop(beats_ref, done_ref, cfg_ref, 30, reg_ref));
            let deadline = Instant::now() + Duration::from_secs(5);
            while !beats[0].cancelled() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            // Give it a few more polls: the trip must not repeat while
            // the stall persists.
            std::thread::sleep(Duration::from_millis(60));
            done.store(true, Ordering::Release);
        });
        assert!(beats[0].cancelled(), "silent running cell must be cancelled");
        assert_eq!(beats[0].trips.load(Ordering::Acquire), 1, "one trip per stall");
        assert!(!beats[1].cancelled(), "idle cell must not be tripped");
        assert_eq!(reg.counter_value(Key::stage(STAGE, "watchdog_trips")), 1);
    }

    #[test]
    fn effective_deadline_derives_from_measured_replay_rate() {
        let cfg = WatchdogConfig {
            poll_ms: 10,
            deadline_ms: 100,
            grace: 4.0,
        };
        let reg = Registry::new();
        // No measurement: the floor holds.
        assert_eq!(cfg.effective_deadline_ms(&reg, 50), 100);
        // 10 ev/s measured, checkpoint every 50 events: 5 s expected,
        // ×4 grace = 20 s.
        reg.gauge(Key::stage("churn", "replay_rate"), 10.0);
        assert_eq!(cfg.effective_deadline_ms(&reg, 50), 20_000);
        // A fast measured rate never lowers the deadline below the floor.
        reg.gauge(Key::stage("churn", "replay_rate"), 1e9);
        assert_eq!(cfg.effective_deadline_ms(&reg, 50), 100);
    }
}
