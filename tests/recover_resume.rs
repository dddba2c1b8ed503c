//! Kill-and-resume chaos suite (ISSUE acceptance): a `run_month`
//! interrupted mid-horizon through the checkpoint hook and resumed from
//! the on-disk checkpoint produces a **bitwise-identical** `MonthResult`
//! and normalized `RunReport`; a corrupted newest checkpoint is skipped
//! in favour of its predecessor with obs-visible corruption and
//! fallback events, and the run still converges to the same answer.
//!
//! Each simulated process gets its own metrics registry and event
//! buffer (`with_metrics` / `with_subscriber`), mirroring the real
//! crash-then-restart topology where nothing but the checkpoint file
//! survives.

use quicksand_core::scenario::{MonthResult, Scenario, ScenarioConfig};
use quicksand_net::QuicksandError;
use quicksand_obs::{self as obs, Key, MemorySubscriber, Registry, RunReport};
use quicksand_recover::{CheckpointStore, HookAction, MetricsState, DEFAULT_RETAIN};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A fresh scratch directory for one test's checkpoints.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "quicksand-recover-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Logs are compared by `UpdateLog::fingerprint`, the digest of their
/// MRT encoding: the byte-level identity used to assert "bitwise
/// identical" rather than merely `PartialEq`.
fn assert_months_bitwise_identical(a: &MonthResult, b: &MonthResult) {
    assert_eq!(a.raw.fingerprint(), b.raw.fingerprint(), "raw logs differ");
    assert_eq!(
        a.cleaned.to_log(&a.raw).fingerprint(),
        b.cleaned.to_log(&b.raw).fingerprint(),
        "cleaned logs differ"
    );
    assert_eq!(a.removed_duplicates, b.removed_duplicates);
    assert_eq!(a.reset_bursts, b.reset_bursts);
    assert_eq!(a.horizon_end, b.horizon_end);
}

/// Run the uninterrupted baseline in its own registry, returning the
/// month and the assembled run report.
fn run_baseline(scenario: &Scenario) -> (MonthResult, RunReport) {
    let registry = Arc::new(Registry::new());
    let events = Arc::new(MemorySubscriber::new());
    let month = obs::with_metrics(registry.clone(), || {
        obs::with_subscriber(events.clone(), || {
            scenario.run_month().expect("valid scenario config")
        })
    });
    let report = RunReport::assemble("kill-resume", &registry.snapshot(), &events.events());
    (month, report)
}

/// Simulate the crashing process: checkpoint every `every` events into
/// `store`, stop after `saves` checkpoints, and die with
/// `QuicksandError::Interrupted`.
fn run_interrupted(scenario: &Scenario, store: &CheckpointStore, every: u64, saves: u64) {
    let registry = Arc::new(Registry::new());
    let mut done = 0u64;
    let err = obs::with_metrics(registry, || {
        scenario
            .run_month_checkpointed(None, every, |snap| {
                store.save(snap).expect("checkpoint save");
                done += 1;
                if done >= saves {
                    HookAction::Stop
                } else {
                    HookAction::Continue
                }
            })
            .expect_err("hook requested a stop")
    });
    assert!(
        matches!(err, QuicksandError::Interrupted { events_done } if events_done == every * saves),
        "unexpected interruption shape: {err}"
    );
}

/// Simulate the restarted process: load the newest valid checkpoint and
/// run to completion in a fresh registry.
fn run_resumed(
    scenario: &Scenario,
    dir: &Path,
) -> (MonthResult, RunReport, Arc<Registry>, Vec<obs::Event>) {
    let registry = Arc::new(Registry::new());
    let events = Arc::new(MemorySubscriber::new());
    let month = obs::with_metrics(registry.clone(), || {
        obs::with_subscriber(events.clone(), || {
            let store = CheckpointStore::open(dir, DEFAULT_RETAIN)
                .expect("scratch dir is writable");
            let (snap, _path) = store
                .load_latest()
                .expect("checkpoint listing readable")
                .expect("at least one valid checkpoint on disk");
            scenario
                .run_month_checkpointed(Some(&snap), 0, |_| HookAction::Continue)
                .expect("resume from a matching checkpoint")
        })
    });
    let report = RunReport::assemble("kill-resume", &registry.snapshot(), &events.events());
    let evs = events.events();
    (month, report, registry, evs)
}

/// The tentpole guarantee, end to end through the on-disk store: kill at
/// a checkpoint boundary, restart from disk, and nothing in the final
/// month or the normalized run report can tell the runs apart.
#[test]
fn kill_and_resume_is_bitwise_identical() {
    let scenario = Scenario::build(ScenarioConfig::small(11));
    let (full_month, full_report) = run_baseline(&scenario);

    let dir = scratch_dir("kill-resume");
    let store = CheckpointStore::open(dir.clone(), DEFAULT_RETAIN).expect("scratch dir");
    run_interrupted(&scenario, &store, 40, 2);

    let (resumed_month, resumed_report, _, _) = run_resumed(&scenario, &dir);
    assert_months_bitwise_identical(&full_month, &resumed_month);

    // The deterministic projection is empty AND the serialized
    // normalized reports are byte-for-byte equal.
    let deltas = full_report.deterministic_deltas(&resumed_report);
    assert!(deltas.is_empty(), "deterministic deltas: {deltas:#?}");
    let full_json = serde_json::to_string(&full_report.normalized()).unwrap();
    let resumed_json = serde_json::to_string(&resumed_report.normalized()).unwrap();
    assert_eq!(full_json, resumed_json, "normalized run reports differ");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Corruption chaos: flip one byte in the newest checkpoint. The load
/// skips it with an obs-visible `checkpoint-corrupt` warning, falls back
/// to the predecessor (`checkpoint-fallback` + counters), and the
/// resumed run still reproduces the uninterrupted month exactly.
#[test]
fn corrupt_newest_checkpoint_falls_back_and_still_resumes_exactly() {
    let scenario = Scenario::build(ScenarioConfig::small(11));
    let (full_month, _) = run_baseline(&scenario);

    let dir = scratch_dir("corrupt-fallback");
    let store = CheckpointStore::open(dir.clone(), DEFAULT_RETAIN).expect("scratch dir");
    run_interrupted(&scenario, &store, 40, 2);

    // Corrupt the newest checkpoint (cursor 80) mid-file.
    let files = store.list().expect("listable");
    assert_eq!(files.len(), 2, "expected two checkpoints, got {files:?}");
    let newest = files.last().unwrap();
    let mut bytes = std::fs::read(newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(newest, &bytes).unwrap();

    let (resumed_month, _, registry, events) = run_resumed(&scenario, &dir);
    assert_months_bitwise_identical(&full_month, &resumed_month);

    // The fallback is observable: one corrupt load, one fallback, and
    // the warn events that name the files involved.
    assert_eq!(registry.counter_value(Key::stage("recover", "load_corrupt")), 1);
    assert_eq!(registry.counter_value(Key::stage("recover", "fallbacks")), 1);
    assert_eq!(registry.counter_value(Key::stage("recover", "resumes")), 1);
    assert!(
        events
            .iter()
            .any(|e| e.stage == "recover" && e.name == "checkpoint-corrupt"),
        "no checkpoint-corrupt event emitted"
    );
    assert!(
        events
            .iter()
            .any(|e| e.stage == "recover" && e.name == "checkpoint-fallback"),
        "no checkpoint-fallback event emitted"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Resuming against the wrong scenario is refused with the typed
/// mismatch error, not silently-wrong state — the operator-error guard
/// at the CLI boundary (`repro --resume-from`).
#[test]
fn resume_against_other_scenario_is_a_typed_error() {
    let scenario = Scenario::build(ScenarioConfig::small(11));
    let dir = scratch_dir("wrong-config");
    let store = CheckpointStore::open(dir.clone(), DEFAULT_RETAIN).expect("scratch dir");
    run_interrupted(&scenario, &store, 40, 1);

    let (snap, _) = store.load_latest().unwrap().expect("checkpoint present");
    let other = Scenario::build(ScenarioConfig::small(12));
    let err = other
        .run_month_checkpointed(Some(&snap), 0, |_| HookAction::Continue)
        .expect_err("config mismatch must be refused");
    assert!(
        matches!(err, QuicksandError::ResumeMismatch { what: "config_hash", .. }),
        "unexpected error: {err}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The replay moves its log into each snapshot and back out after the
/// hook, instead of copying it. The hook must still see the whole log
/// so far: every snapshot's log is a prefix of the final raw log,
/// the snapshots never shrink, and the checkpointed month is the
/// uninterrupted one byte for byte.
#[test]
fn checkpoint_snapshots_hold_the_log_so_far() {
    let scenario = Scenario::build(ScenarioConfig::small(11));
    let (full_month, _) = run_baseline(&scenario);

    let every = 7;
    let mut lens = Vec::new();
    let month = obs::with_metrics(Arc::new(Registry::new()), || {
        scenario
            .run_month_checkpointed(None, every, |snap| {
                assert_eq!(snap.cursor, every * (lens.len() as u64 + 1));
                assert!(
                    full_month.raw.records.starts_with(&snap.log.records),
                    "snapshot log at cursor {} is not a prefix of the raw log",
                    snap.cursor
                );
                lens.push(snap.log.len());
                HookAction::Continue
            })
            .expect("valid scenario config")
    });
    assert!(lens.len() >= 10, "only {} checkpoints", lens.len());
    assert!(
        lens.windows(2).all(|w| w[0] <= w[1]),
        "snapshot log lengths decrease: {lens:?}"
    );
    assert_months_bitwise_identical(&full_month, &month);
}

/// The checkpoint wire image of a small-tier run stopped at a fixed
/// cursor: the fnv64 of `PipelineSnapshot::encode()` with the metrics
/// section cleared (counters depend on what else ran in the process).
/// Pins the scenario fingerprint, the collector section (routes, reset
/// cursor, session count) and the log section byte for byte.
#[test]
fn small_tier_checkpoint_bytes_are_pinned() {
    let scenario = Scenario::build(ScenarioConfig::small(11));
    let mut taken = None;
    obs::with_metrics(Arc::new(Registry::new()), || {
        scenario
            .run_month_checkpointed(None, 40, |snap| {
                taken = Some(snap.clone());
                HookAction::Stop
            })
            .expect_err("hook requested a stop")
    });
    let mut snap = taken.expect("a checkpoint at cursor 40");
    assert_eq!(snap.cursor, 40);
    snap.metrics = MetricsState::default();
    let fnv = quicksand_bgp::feed::fnv64(&snap.encode());
    assert_eq!(fnv, 0x2729b55350ad952f, "got {fnv:#018x}");
}

// ---------------------------------------------------------------------------
// Supervised checkpoint files against fresh encodes (DESIGN.md §30): the
// supervisor's cell hook saves through one `LogImage` per attempt, so
// each save encodes only the records appended since the previous one.
// Its files must still be exactly `PipelineSnapshot::encode()` at their
// cursors, after a resume from a fallback checkpoint too.
// ---------------------------------------------------------------------------

mod supervised_image {
    use super::scratch_dir;
    use quicksand_bgp::{CrashKind, ReplayChaosPlan};
    use quicksand_core::scenario::{Scenario, ScenarioConfig};
    use quicksand_core::supervise::{
        CellOutcome, CellResult, RestartPolicy, ScenarioJob, SuperviseConfig, Supervisor,
    };
    use quicksand_obs::{self as obs, FieldValue, Registry};
    use quicksand_recover::{CheckpointStore, HookAction};
    use std::collections::BTreeMap;
    use std::path::{Path, PathBuf};
    use std::sync::{Arc, OnceLock};

    const SEED: u64 = 0xbd;
    const EVERY: u64 = 100;

    fn config() -> ScenarioConfig {
        ScenarioConfig::medium(SEED)
    }

    /// `snap.encode()` and the log length at every checkpoint cursor of
    /// an unsupervised checkpointed month, in its own registry.
    fn reference() -> &'static BTreeMap<u64, (Vec<u8>, usize)> {
        static R: OnceLock<BTreeMap<u64, (Vec<u8>, usize)>> = OnceLock::new();
        R.get_or_init(|| {
            let scenario = Scenario::build(config());
            let mut files = BTreeMap::new();
            obs::with_metrics(Arc::new(Registry::new()), || {
                scenario
                    .run_month_checkpointed(None, EVERY, |snap| {
                        files.insert(snap.cursor, (snap.encode(), snap.log.len()));
                        HookAction::Continue
                    })
                    .expect("valid scenario config")
            });
            assert!(files.len() >= 10, "only {} checkpoints", files.len());
            files
        })
    }

    /// One supervised medium cell, checkpointing every `EVERY` events
    /// into `dir` and keeping every file it writes.
    fn run_cell(dir: &Path, chaos: Option<ReplayChaosPlan>) -> CellOutcome {
        let mut sup = Supervisor::new(SuperviseConfig {
            width: 1,
            checkpoint_every: EVERY,
            retain: 1000,
            restart: RestartPolicy {
                base_ms: 1,
                cap_ms: 1,
                max_restarts: 2,
                seed: 1,
            },
            ..SuperviseConfig::default()
        });
        sup.submit(ScenarioJob {
            store_dir: Some(dir.to_path_buf()),
            chaos,
            ..ScenarioJob::new("image", config())
        });
        let mut outcome = obs::with_metrics(Arc::new(Registry::new()), || sup.run());
        outcome.cells.pop().expect("one cell")
    }

    /// Every checkpoint file in `dir` equals the reference encode at its
    /// cursor, and every reference cursor has a file.
    fn assert_files_match_reference(dir: &Path) {
        let store = CheckpointStore::open(dir, 1000).expect("store");
        let files: Vec<PathBuf> = store.list().expect("listable");
        let reference = reference();
        assert_eq!(files.len(), reference.len(), "one file per checkpoint");
        for (path, (cursor, (want, _))) in files.iter().zip(reference) {
            let got = std::fs::read(path).expect("readable");
            assert!(
                got == *want,
                "{} differs from snap.encode() at cursor {cursor}",
                path.display()
            );
        }
    }

    fn counter(outcome: &CellOutcome, name: &str) -> u64 {
        let CellResult::Completed { metrics, .. } = &outcome.result else {
            panic!("cell did not complete: {:?}", outcome.result);
        };
        metrics
            .counters
            .iter()
            .find(|c| c.stage == "recover" && c.name == name)
            .map_or(0, |c| c.value)
    }

    /// A save encodes only the records appended since the previous save:
    /// over a whole medium month the records encoded sum to the last
    /// save's log length, where re-encoding the log at every save would
    /// sum every save's length.
    #[test]
    fn supervised_saves_encode_each_record_once() {
        let dir = scratch_dir("image-plain");
        let cell = run_cell(&dir, None);
        assert_eq!(cell.restarts, 0);
        let reference = reference();
        let (_, last_len) = reference.values().next_back().expect("a checkpoint");
        assert_eq!(counter(&cell, "saves"), reference.len() as u64);
        assert_eq!(counter(&cell, "records_encoded"), *last_len as u64);
        let quadratic: usize = reference.values().map(|(_, len)| len).sum();
        assert!(quadratic > 2 * last_len, "the month must have many saves");
        assert_files_match_reference(&dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Corrupts the checkpoint files of the first attempt at the given
    /// cursors as soon as the cell reports them saved.
    struct CorruptFirstAttempt {
        dir: PathBuf,
        cursors: [u64; 2],
    }

    impl obs::Subscriber for CorruptFirstAttempt {
        fn event(&self, e: &obs::Event) {
            let field = |k| match e.field(k) {
                Some(FieldValue::U64(v)) => Some(*v),
                _ => None,
            };
            if e.name != "checkpoint" || field("attempt") != Some(0) {
                return;
            }
            let Some(cursor) = field("cursor").filter(|c| self.cursors.contains(c)) else {
                return;
            };
            let path = self.dir.join(format!("ckpt-{cursor:012}.qsck"));
            let mut bytes = std::fs::read(&path).expect("just saved");
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x01;
            std::fs::write(&path, bytes).expect("writable");
        }
    }

    /// A chaos panic at cursor `C` whose two newest checkpoints (`C` and
    /// `C − EVERY`) are corrupt: the restart falls back to `C − 2·EVERY`
    /// and starts an empty image, re-saving both cursors. Every file
    /// still equals the fresh encode at its cursor, and the restarted
    /// attempt's image encodes each record of the log once.
    #[test]
    fn supervised_files_equal_fresh_encodes_across_a_fallback_restart() {
        let crash = 6 * EVERY;
        let dir = scratch_dir("image-fallback");
        let sink = Arc::new(CorruptFirstAttempt {
            dir: dir.clone(),
            cursors: [crash - EVERY, crash],
        });
        let cell = obs::with_subscriber(sink, || {
            run_cell(
                &dir,
                Some(ReplayChaosPlan::single(0, crash, CrashKind::Panic)),
            )
        });
        assert_eq!(cell.restarts, 1, "one injected crash: {:?}", cell.failures);
        assert_eq!(counter(&cell, "load_corrupt"), 2);
        assert_eq!(counter(&cell, "fallbacks"), 1);
        assert_eq!(counter(&cell, "resumes"), 1);
        let (_, last_len) = reference().values().next_back().expect("a checkpoint");
        assert_eq!(counter(&cell, "records_encoded"), *last_len as u64);
        assert_files_match_reference(&dir);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
