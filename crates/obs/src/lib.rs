//! `quicksand-obs` — offline observability for the simulation →
//! detection pipeline.
//!
//! An offline, zero-external-dependency layer in the spirit of
//! `tracing` + `metrics`, sized for this workspace:
//!
//! * **Events** ([`event::Event`]): structured observations emitted by
//!   instrumented stages, dispatched to a pluggable [`Subscriber`]
//!   (no-op by default, in-memory for tests, JSONL for runs, console
//!   for `repro -v`).
//! * **Metrics** ([`metrics::Registry`]): counters, gauges, and
//!   fixed-bucket histograms keyed by `(stage, name, session)` —
//!   replay rates, reconnect counts, alarm-latency histograms,
//!   fault-injector decisions, correlation scores.
//! * **Profiling** ([`prof`]): one span tree over the whole pipeline —
//!   RAII spans keyed by `(stage, name)` that record self/total wall
//!   time and alloc deltas, and the source of every stage timing.
//! * **Run reports** ([`report::RunReport`]): the machine-readable
//!   end-of-run artifact behind `repro --obs-out=run.json` and
//!   `repro report`; its per-stage wall-time table is derived from the
//!   span profile.
//!
//! # Dispatch model
//!
//! Every helper resolves the *current* sink: a thread-local override
//! (installed for the duration of a closure by [`with_subscriber`] /
//! [`with_metrics`]) wins over the process-wide default
//! ([`set_global_subscriber`] and the lazily-created global
//! [`Registry`]). The pipelines are single-threaded, so a thread-local
//! override scopes one test's metrics away from every other test even
//! under `cargo test`'s parallelism — and the global default keeps
//! production call sites zero-setup.
//!
//! ```
//! use quicksand_obs as obs;
//! use std::sync::Arc;
//!
//! let reg = Arc::new(obs::Registry::new());
//! let out = obs::with_metrics(reg.clone(), || {
//!     let _span = obs::prof::span("churn", "replay");
//!     obs::incr("churn", "events", 10);
//!     2 + 2
//! });
//! assert_eq!(out, 4);
//! assert_eq!(reg.counter_value(obs::Key::stage("churn", "events")), 10);
//! ```

#![warn(missing_docs)]

pub mod event;
pub mod metrics;
pub mod prof;
pub mod report;
pub mod ring;
pub mod span;
pub mod subscriber;

pub use event::{Event, FieldValue, Level};
pub use metrics::{
    Histogram, HistogramStats, Key, Registry, Snapshot, LOG2_US_BOUNDS, SCORE_BOUNDS,
};
pub use prof::{Profile, ProfileEntry};
pub use report::{ProfileSection, RunReport, SupervisorSection, REQUIRED_STAGES};
pub use ring::{RingSubscriber, DEFAULT_RING_CAP};
pub use span::{SpanGuard, SpanTree};
pub use subscriber::{
    ConsoleSubscriber, FanoutSubscriber, JsonlSubscriber, LevelFilter, MemorySubscriber,
    NoopSubscriber, Subscriber,
};

use std::cell::RefCell;
use std::sync::{Arc, OnceLock, RwLock};

static GLOBAL_SUBSCRIBER: RwLock<Option<Arc<dyn Subscriber>>> = RwLock::new(None);
static GLOBAL_REGISTRY: OnceLock<Arc<Registry>> = OnceLock::new();

thread_local! {
    static LOCAL_SUBSCRIBERS: RefCell<Vec<Arc<dyn Subscriber>>> = const { RefCell::new(Vec::new()) };
    static LOCAL_REGISTRIES: RefCell<Vec<Arc<Registry>>> = const { RefCell::new(Vec::new()) };
}

/// Install `subscriber` as the process-wide default sink (used when no
/// thread-local override is active). Replaces any previous default.
pub fn set_global_subscriber(subscriber: Arc<dyn Subscriber>) {
    let mut slot = GLOBAL_SUBSCRIBER
        .write()
        .unwrap_or_else(|e| e.into_inner());
    *slot = Some(subscriber);
}

/// The process-wide default metrics registry (created on first use).
pub fn global_metrics() -> Arc<Registry> {
    GLOBAL_REGISTRY
        .get_or_init(|| Arc::new(Registry::new()))
        .clone()
}

/// The registry helpers currently record into: the innermost
/// [`with_metrics`] override on this thread, else the global registry.
pub fn metrics() -> Arc<Registry> {
    LOCAL_REGISTRIES
        .with(|stack| stack.borrow().last().cloned())
        .unwrap_or_else(global_metrics)
}

fn current_subscriber() -> Option<Arc<dyn Subscriber>> {
    if let Some(local) = LOCAL_SUBSCRIBERS.with(|stack| stack.borrow().last().cloned()) {
        return Some(local);
    }
    GLOBAL_SUBSCRIBER
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
}

struct PopSubscriber;
impl Drop for PopSubscriber {
    fn drop(&mut self) {
        LOCAL_SUBSCRIBERS.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

struct PopRegistry;
impl Drop for PopRegistry {
    fn drop(&mut self) {
        LOCAL_REGISTRIES.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// Run `f` with `subscriber` as this thread's event sink. Restores the
/// previous sink on exit, including on panic.
pub fn with_subscriber<R>(subscriber: Arc<dyn Subscriber>, f: impl FnOnce() -> R) -> R {
    LOCAL_SUBSCRIBERS.with(|stack| stack.borrow_mut().push(subscriber));
    let _guard = PopSubscriber;
    f()
}

/// Run `f` recording metrics into `registry` on this thread. Restores
/// the previous registry on exit, including on panic.
pub fn with_metrics<R>(registry: Arc<Registry>, f: impl FnOnce() -> R) -> R {
    LOCAL_REGISTRIES.with(|stack| stack.borrow_mut().push(registry));
    let _guard = PopRegistry;
    f()
}

/// Would an event at `level` reach the current subscriber? Use to skip
/// building expensive events when nobody is listening. Stage-blind:
/// answers true when *any* stage's events would be kept (see
/// [`enabled_for`] for the per-stage check).
pub fn enabled(level: Level) -> bool {
    current_subscriber().is_some_and(|s| s.enabled(level))
}

/// Would an event at `level` from `stage` reach the current
/// subscriber? The per-stage refinement of [`enabled`], honoring
/// [`LevelFilter`] overrides.
pub fn enabled_for(level: Level, stage: &str) -> bool {
    current_subscriber().is_some_and(|s| s.enabled_for(level, stage))
}

/// Send `event` to the current subscriber (dropped when none is
/// installed or the subscriber filters out its level/stage).
pub fn emit(event: Event) {
    if let Some(s) = current_subscriber() {
        if s.enabled_for(event.level, event.stage) {
            s.event(&event);
        }
    }
}

/// The event sink currently in effect on this thread: the innermost
/// [`with_subscriber`] override, else the global default, else `None`.
/// Used to *fan out* — e.g. the supervisor pairs a per-cell flight
/// recorder with whatever sink is already active.
pub fn subscriber() -> Option<Arc<dyn Subscriber>> {
    current_subscriber()
}

/// Flush the current subscriber's buffered output.
pub fn flush() {
    if let Some(s) = current_subscriber() {
        s.flush();
    }
}

/// Add `by` to the stage-level counter `(stage, name)`.
pub fn incr(stage: &'static str, name: &'static str, by: u64) {
    metrics().incr(Key::stage(stage, name), by);
}

/// Add `by` to the per-session counter `(stage, name, session)`.
pub fn incr_session(stage: &'static str, name: &'static str, session: u32, by: u64) {
    metrics().incr(Key::session(stage, name, session), by);
}

/// Set the stage-level gauge `(stage, name)`.
pub fn gauge(stage: &'static str, name: &'static str, value: f64) {
    metrics().gauge(Key::stage(stage, name), value);
}

/// Set the per-session gauge `(stage, name, session)`.
pub fn gauge_session(stage: &'static str, name: &'static str, session: u32, value: f64) {
    metrics().gauge(Key::session(stage, name, session), value);
}

/// Record `value` into the stage-level histogram `(stage, name)` with
/// the default bucket ladder.
pub fn observe(stage: &'static str, name: &'static str, value: f64) {
    metrics().observe(Key::stage(stage, name), value);
}

/// Record `value` into `(stage, name)` with custom bucket `bounds`
/// (used for scores in `[-1, 1]`, e.g. [`SCORE_BOUNDS`]).
pub fn observe_bounded(stage: &'static str, name: &'static str, value: f64, bounds: &[f64]) {
    metrics().observe_bounded(Key::stage(stage, name), value, bounds);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_record_into_thread_local_registry() {
        let reg = Arc::new(Registry::new());
        with_metrics(reg.clone(), || {
            incr("collector", "records", 5);
            incr_session("collector", "reconnects", 2, 1);
            gauge("churn", "replay_rate", 1e4);
            observe("monitor", "alarm_latency_s", 60.0);
            observe_bounded("correlate", "coefficient", 0.9, &SCORE_BOUNDS);
        });
        assert_eq!(reg.counter_value(Key::stage("collector", "records")), 5);
        assert_eq!(
            reg.counter_value(Key::session("collector", "reconnects", 2)),
            1
        );
        assert_eq!(reg.gauge_value(Key::stage("churn", "replay_rate")), Some(1e4));
        let snap = reg.snapshot();
        assert_eq!(snap.histograms.len(), 2);
        // Nothing leaked into the global registry's view of these keys
        // beyond what other tests may write: our unique key is absent.
        assert_eq!(
            global_metrics().counter_value(Key::session("collector", "reconnects", 2)),
            0
        );
    }

    #[test]
    fn nested_overrides_unwind_in_order() {
        let outer = Arc::new(Registry::new());
        let inner = Arc::new(Registry::new());
        with_metrics(outer.clone(), || {
            incr("detect", "hijacks", 1);
            with_metrics(inner.clone(), || {
                incr("detect", "hijacks", 10);
            });
            incr("detect", "hijacks", 1);
        });
        assert_eq!(outer.counter_value(Key::stage("detect", "hijacks")), 2);
        assert_eq!(inner.counter_value(Key::stage("detect", "hijacks")), 10);
    }

    #[test]
    fn override_pops_on_panic() {
        let reg = Arc::new(Registry::new());
        let result = std::panic::catch_unwind(|| {
            with_metrics(reg.clone(), || panic!("boom"));
        });
        assert!(result.is_err());
        // The stack unwound: records now go to the global registry,
        // not the abandoned override.
        incr("topology", "panic_probe", 1);
        assert_eq!(reg.counter_value(Key::stage("topology", "panic_probe")), 0);
    }

    #[test]
    fn emit_respects_subscriber_level_filter() {
        let sub = Arc::new(MemorySubscriber::new());
        with_subscriber(sub.clone(), || {
            assert!(enabled(Level::Debug));
            emit(Event::new(Level::Info, "repro", "note", "kept"));
        });
        // Outside the override (and with no global set by this test),
        // events may still reach a global subscriber installed by
        // another test — only assert on our scoped sink.
        assert_eq!(sub.len(), 1);
        assert_eq!(sub.events()[0].message, "kept");
    }
}
