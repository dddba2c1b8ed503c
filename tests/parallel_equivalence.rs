//! Differential harness for `--jobs` (DESIGN.md §10, routing trees
//! built in parallel chunks): across a grid of seeds × scenario sizes ×
//! jobs ∈ {1, 2, 4, 8}, a run must produce a `MonthResult` whose MRT
//! encoding and a normalized `RunReport` whose JSON serialization are
//! **byte identical** to the serial reference — including when a
//! parallel run is interrupted at a checkpoint and resumed at a
//! *different* width (checkpoints carry no execution-width identity).
//!
//! Each run gets its own metrics registry and event buffer, mirroring
//! separate processes, so per-run reports are complete and isolated.

use quicksand_core::parallel::Parallelism;
use quicksand_core::scenario::{MonthResult, Scale, ScaleSpec, Scenario, ScenarioConfig};
use quicksand_net::{QuicksandError, SimDuration};
use quicksand_obs::{self as obs, MemorySubscriber, Registry, RunReport};
use quicksand_recover::{HookAction, PipelineSnapshot};
use std::sync::Arc;

/// Logs are compared by `UpdateLog::fingerprint`, the digest of their
/// MRT encoding: the byte-level identity used to assert "bitwise
/// identical" rather than merely `PartialEq`.
fn assert_months_bitwise_identical(a: &MonthResult, b: &MonthResult, context: &str) {
    assert_eq!(
        a.raw.fingerprint(),
        b.raw.fingerprint(),
        "raw logs differ ({context})"
    );
    assert_eq!(
        a.cleaned.fingerprint(),
        b.cleaned.fingerprint(),
        "cleaned logs differ ({context})"
    );
    assert_eq!(a.removed_duplicates, b.removed_duplicates, "{context}");
    assert_eq!(a.reset_bursts, b.reset_bursts, "{context}");
    assert_eq!(a.horizon_end, b.horizon_end, "{context}");
}

/// The grid's fast scenario size: two days and six sessions instead of
/// `small()`'s week and twelve, so seeds × jobs stays cheap. `small()`
/// itself is exercised at the higher widths in a dedicated test.
fn tiny(seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::small(seed);
    cfg.churn.horizon = SimDuration::from_days(2);
    cfg.collector.horizon = SimDuration::from_days(2);
    cfg.n_sessions = 6;
    cfg.n_control_origins = 20;
    cfg
}

/// Run the month at the given width in an isolated registry, returning
/// the result and the *serialized normalized* run report — the two
/// byte-level identities the harness compares.
fn run_with_jobs(mut cfg: ScenarioConfig, jobs: usize) -> (MonthResult, String) {
    cfg.parallelism = Parallelism::with_jobs(jobs);
    let scenario = Scenario::build(cfg);
    let registry = Arc::new(Registry::new());
    let events = Arc::new(MemorySubscriber::new());
    let month = obs::with_metrics(registry.clone(), || {
        obs::with_subscriber(events.clone(), || {
            scenario.run_month().expect("valid scenario config")
        })
    });
    let report =
        RunReport::assemble("parallel-equivalence", &registry.snapshot(), &events.events());
    let normalized =
        serde_json::to_string(&report.normalized()).expect("report serializes");
    (month, normalized)
}

/// The core differential grid: seeds × jobs ∈ {2, 4, 8} against the
/// jobs = 1 serial reference on the tiny scenario.
#[test]
fn month_replay_is_bitwise_identical_across_jobs_grid() {
    for seed in [0xD1FF_u64, 9] {
        let (base_month, base_report) = run_with_jobs(tiny(seed), 1);
        for jobs in [2usize, 4, 8] {
            let context = format!("seed {seed:#x}, jobs {jobs}");
            let (month, report) = run_with_jobs(tiny(seed), jobs);
            assert_months_bitwise_identical(&base_month, &month, &context);
            assert_eq!(
                base_report, report,
                "normalized run report diverged ({context})"
            );
        }
    }
}

/// The second scenario size: the full `small()` configuration (a week,
/// twelve sessions — enough tracked origins that every width builds
/// the routing trees in `jobs` chunks) at the widths CI smokes.
#[test]
fn small_scenario_is_bitwise_identical_at_higher_widths() {
    let (base_month, base_report) = run_with_jobs(ScenarioConfig::small(0xD1FF), 1);
    for jobs in [4usize, 8] {
        let context = format!("small scenario, jobs {jobs}");
        let (month, report) = run_with_jobs(ScenarioConfig::small(0xD1FF), jobs);
        assert_months_bitwise_identical(&base_month, &month, &context);
        assert_eq!(
            base_report, report,
            "normalized run report diverged ({context})"
        );
    }
}

/// Checkpoint semantics across widths: interrupt a jobs = 4 run at its
/// second checkpoint, resume the snapshot at jobs = 2, and the result
/// must still be bitwise-identical to the uninterrupted serial run.
/// Works because `--jobs` only chunks tree construction — the resumed
/// run rebuilds the same trees at any width and replays events
/// serially from the checkpoint cursor — and `Parallelism` is excluded
/// from the config fingerprint.
#[test]
fn checkpointed_parallel_run_resumes_bitwise_identical_across_widths() {
    let (base_month, base_report) = run_with_jobs(tiny(0xCAFE), 1);

    let mut interrupted_cfg = tiny(0xCAFE);
    interrupted_cfg.parallelism = Parallelism::with_jobs(4);
    let interrupted = Scenario::build(interrupted_cfg);
    let mut captured: Option<PipelineSnapshot> = None;
    let mut saves = 0u64;
    let err = obs::with_metrics(Arc::new(Registry::new()), || {
        interrupted
            .run_month_checkpointed(None, 10, |snap| {
                saves += 1;
                captured = Some(snap.clone());
                if saves >= 2 {
                    HookAction::Stop
                } else {
                    HookAction::Continue
                }
            })
            .expect_err("hook requested a stop")
    });
    assert!(
        matches!(err, QuicksandError::Interrupted { events_done: 20 }),
        "unexpected interruption shape: {err}"
    );
    let snap = captured.expect("two checkpoints were captured");

    let mut resume_cfg = tiny(0xCAFE);
    resume_cfg.parallelism = Parallelism::with_jobs(2);
    let resumed = Scenario::build(resume_cfg);
    let registry = Arc::new(Registry::new());
    let events = Arc::new(MemorySubscriber::new());
    let month = obs::with_metrics(registry.clone(), || {
        obs::with_subscriber(events.clone(), || {
            resumed
                .run_month_checkpointed(Some(&snap), 0, |_| HookAction::Continue)
                .expect("a parallel checkpoint resumes at any width")
        })
    });
    let report =
        RunReport::assemble("parallel-equivalence", &registry.snapshot(), &events.events());
    assert_months_bitwise_identical(
        &base_month,
        &month,
        "jobs 4 interrupted, resumed at jobs 2",
    );
    assert_eq!(
        base_report,
        serde_json::to_string(&report.normalized()).expect("report serializes"),
        "normalized run report diverged after cross-width resume"
    );
}

/// The Internet-scale differential gate: the `large` tier (≥20k ASes,
/// ~113k tracked prefixes) at a reduced one-day horizon must be
/// bitwise-identical across jobs ∈ {1, 4, 8}. This is minutes of CPU,
/// so it is `#[ignore]` by default and additionally gated on
/// `QUICKSAND_TEST_LARGE=1` — the CI large-tier job runs it with
/// `--ignored`.
#[test]
#[ignore = "large tier: minutes of CPU; QUICKSAND_TEST_LARGE=1 cargo test -- --ignored"]
fn large_tier_is_bitwise_identical_across_jobs() {
    if std::env::var("QUICKSAND_TEST_LARGE").as_deref() != Ok("1") {
        eprintln!("skipped: set QUICKSAND_TEST_LARGE=1 to run the large differential gate");
        return;
    }
    let cfg = || {
        let spec = ScaleSpec {
            horizon_days: 1,
            ..ScaleSpec::large()
        };
        ScenarioConfig::at_scale(&Scale::Custom(spec), 0xD1FF)
    };
    // The scale floors the tier exists for.
    let probe = Scenario::build(cfg());
    assert!(probe.topo.graph.len() >= 20_000, "large tier lost its AS floor");
    assert!(
        probe.tracked_prefixes().len() >= 100_000,
        "large tier lost its tracked-prefix floor"
    );
    drop(probe);

    let (base_month, base_report) = run_with_jobs(cfg(), 1);
    for jobs in [4usize, 8] {
        let context = format!("large tier, jobs {jobs}");
        let (month, report) = run_with_jobs(cfg(), jobs);
        assert_months_bitwise_identical(&base_month, &month, &context);
        assert_eq!(
            base_report, report,
            "normalized run report diverged ({context})"
        );
    }
}

/// Execution width is not scenario identity: the config fingerprint —
/// and with it checkpoint compatibility — ignores `Parallelism`, while
/// still distinguishing genuinely different scenarios.
#[test]
fn parallelism_is_excluded_from_config_identity() {
    let serial = Scenario::build(tiny(3));
    let mut wide_cfg = tiny(3);
    wide_cfg.parallelism = Parallelism::with_jobs(8);
    let wide = Scenario::build(wide_cfg);
    assert_eq!(serial.config_hash(), wide.config_hash());
    let other = Scenario::build(tiny(4));
    assert_ne!(serial.config_hash(), other.config_hash());
}
