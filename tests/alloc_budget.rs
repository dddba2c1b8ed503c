//! Allocation gates on a month replay, measured through this binary's
//! counting allocator.
//!
//! * The telemetry-overhead tripwire (DESIGN.md §13): with the span
//!   profiler recording **every** activation and attributing
//!   allocations through the counting allocator, the serial month
//!   replay must stay within 5% of the profiler-off allocation count.
//!   The span layer keeps this true by construction — spans record into
//!   preallocated tree nodes and only a site's *first* visit inserts —
//!   and this test is the regression gate on that contract.
//! * The peak-heap budgets (DESIGN.md §19): the most live heap a
//!   `run_month` holds above its starting point, at the medium tier and
//!   (with `QUICKSAND_TEST_LARGE=1`) at the large tier.
//! * The statistics' peak-heap budgets (DESIGN.md §28): the most live
//!   heap `table1` + `fig3_left` + `fig3_right` hold above the finished
//!   month's, at the same two tiers.

use quicksand_core::experiments::{fig3_left, fig3_right, table1};
use quicksand_core::scenario::{MonthResult, Scale, Scenario, ScenarioConfig};
use quicksand_obs as obs;
use std::sync::{Arc, Mutex};

/// Counting wrapper over the system allocator, local to this test
/// binary (each integration test is its own process, so the counters
/// see exactly this file's work).
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub static ALLOCS: AtomicU64 = AtomicU64::new(0);
    /// Bytes currently allocated.
    pub static LIVE: AtomicU64 = AtomicU64::new(0);
    /// The most bytes allocated at once since the last reset.
    pub static PEAK: AtomicU64 = AtomicU64::new(0);

    fn grow(bytes: usize) {
        let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
        PEAK.fetch_max(live, Relaxed);
    }

    fn shrink(bytes: usize) {
        LIVE.fetch_sub(bytes as u64, Relaxed);
    }

    pub struct CountingAlloc;

    // SAFETY: delegates every operation to `System`; the counters are
    // lock-free atomics, safe in any allocation context.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Relaxed);
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                grow(layout.size());
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) };
            shrink(layout.size());
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Relaxed);
            let p = unsafe { System.realloc(ptr, layout, new_size) };
            if !p.is_null() {
                grow(new_size);
                shrink(layout.size());
            }
            p
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Relaxed);
            let p = unsafe { System.alloc_zeroed(layout) };
            if !p.is_null() {
                grow(layout.size());
            }
            p
        }
    }
}

#[global_allocator]
static GLOBAL: counting::CountingAlloc = counting::CountingAlloc;

/// The counters are process-wide, so the tests of this binary take
/// turns instead of running on parallel test threads.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    // The mutex guards no data, so a test that panicked while holding
    // it leaves nothing half-updated: take the turn anyway.
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn probe() -> u64 {
    counting::ALLOCS.load(std::sync::atomic::Ordering::Relaxed)
}

/// Allocations across one serial month replay, measured on a scoped
/// registry so metric bookkeeping is identical run to run.
fn replay_allocs(scenario: &Scenario) -> u64 {
    let registry = Arc::new(obs::Registry::new());
    obs::with_metrics(registry, || {
        let before = probe();
        scenario.run_month().expect("valid scenario");
        probe() - before
    })
}

/// The peak live heap one `run_month` holds above the live heap it
/// started from, in bytes. The returned month is dropped only after
/// the peak is read, so it counts toward the peak like any other state.
fn month_peak_bytes(scenario: &Scenario) -> u64 {
    use std::sync::atomic::Ordering::Relaxed;
    let start = counting::LIVE.load(Relaxed);
    counting::PEAK.store(start, Relaxed);
    let month = scenario.run_month().expect("valid scenario");
    let peak = counting::PEAK.load(Relaxed);
    drop(month);
    peak - start
}

/// Peak-heap budgets: the measured peak plus a declared ~4–8% margin.
/// Medium seed 275 peaks at 5.75 MB and large seed 28 at 201.14 MB with
/// a log that grows by a fifth of its length rather than doubling
/// (DESIGN.md §28); doubling peaked at 5.60 MB and 255.60 MB (this
/// accounting counts a realloc as old plus new buffer, and medium's
/// last doubling happened to fall early in the month). The trees store
/// routes only for ASes with customers, the session peers and their
/// destination (DESIGN.md §26); with a route for every AS in every tree
/// the month peaked at 7.65 MB and 364.84 MB, which these budgets
/// reject. (With a private path copy per log record, §25, it peaked at
/// 8.32 MB and 430.11 MB; before the link→trees index was deleted, §24,
/// the large month peaked at 440.35 MB; before 8-byte routing-tree
/// entries, §22, at 9.16 MB and 502.35 MB.) The allocation sequence of
/// a serial month is deterministic, so the margin only absorbs
/// deliberate changes.
const MEDIUM_PEAK_BUDGET_MB: f64 = 6.0;
const LARGE_PEAK_BUDGET_MB: f64 = 217.0;

/// The peak live heap the three §4 statistics of `month` hold above
/// the live heap they started from (the scenario and the finished
/// month), in bytes. Their results are dropped only after the peak is
/// read.
fn statistics_peak_bytes(scenario: &Scenario, month: &MonthResult) -> u64 {
    use std::sync::atomic::Ordering::Relaxed;
    let start = counting::LIVE.load(Relaxed);
    counting::PEAK.store(start, Relaxed);
    let stats = (
        table1(scenario, month),
        fig3_left(scenario, month),
        fig3_right(scenario, month),
    );
    let peak = counting::PEAK.load(Relaxed);
    drop(stats);
    peak - start
}

/// Statistics peak-heap budgets, the measured peak plus a declared
/// ~9% margin. Medium seed 275 peaks at 0.19 MB and large seed 28 at
/// 8.27 MB: Fig 3 left's 4-byte index per record for the full-log run
/// grouping, its sort scratch, and one session's change counts
/// (DESIGN.md §28). With 24-byte grouping tuples and a per-(session,
/// prefix) change map they peaked at 1.36 MB and 59.1 MB, which these
/// budgets reject.
const MEDIUM_STATS_BUDGET_MB: f64 = 0.21;
const LARGE_STATS_BUDGET_MB: f64 = 9.0;

/// Assert the statistics' peak over `scenario`'s month against
/// `budget_mb`, printing both.
fn assert_statistics_peak_within(scenario: &Scenario, budget_mb: f64, what: &str) {
    let month = scenario.run_month().expect("valid scenario");
    let peak_mb = statistics_peak_bytes(scenario, &month) as f64 / 1e6;
    eprintln!("{what}: statistics peak live heap {peak_mb:.2} MB (budget {budget_mb} MB)");
    assert!(
        peak_mb <= budget_mb,
        "{what}: statistics peak live heap {peak_mb:.2} MB exceeds its {budget_mb} MB budget"
    );
}

/// Assert `scenario`'s month peak against `budget_mb`, printing both.
fn assert_month_peak_within(scenario: &Scenario, budget_mb: f64, what: &str) {
    let peak_mb = month_peak_bytes(scenario) as f64 / 1e6;
    eprintln!("{what}: run_month peak live heap {peak_mb:.2} MB (budget {budget_mb} MB)");
    assert!(
        peak_mb <= budget_mb,
        "{what}: run_month peak live heap {peak_mb:.2} MB exceeds its {budget_mb} MB budget"
    );
}

#[test]
fn profiled_serial_replay_stays_within_five_pct_of_alloc_budget() {
    let _turn = serial();
    obs::prof::set_alloc_probe(probe);
    let scenario = Scenario::build(ScenarioConfig::small(0xA110C));

    // Warm every lazy cache (name interning, scratch growth) so the
    // baseline and profiled runs see identical steady state.
    let _warmup = replay_allocs(&scenario);
    let baseline = replay_allocs(&scenario);
    assert!(baseline > 0, "the replay allocates something");

    obs::prof::reset();
    obs::prof::set_enabled(true);
    let profiled = replay_allocs(&scenario);
    obs::prof::set_enabled(false);
    let profile = obs::prof::capture();
    obs::prof::reset();

    // The profiler genuinely recorded the hot path, with the counting
    // allocator attributed through the probe.
    assert!(
        profile.entries.iter().any(|e| e.path == "churn.replay"),
        "replay root span missing from the profile"
    );
    assert!(
        profile
            .entries
            .iter()
            .any(|e| e.path.ends_with("collector.diff")),
        "collector spans missing from the profile"
    );
    assert!(
        profile.entries.iter().any(|e| e.total_allocs > 0),
        "alloc probe attributed nothing"
    );

    // The tripwire: full-sampling profiling costs at most 5% extra
    // allocations over the same replay.
    let budget = baseline + baseline / 20;
    assert!(
        profiled <= budget,
        "profiled replay blew the allocation budget: baseline {baseline}, \
         profiled {profiled} (cap {budget})"
    );
}

/// The medium tier's month (800 ASes, ~320 tracked prefixes, 30
/// sessions) stays within its peak-heap budget.
#[test]
fn medium_month_peak_heap_is_within_budget() {
    let _turn = serial();
    let scenario = Scenario::build(ScenarioConfig::at_scale(&Scale::Medium, 275));
    assert_month_peak_within(&scenario, MEDIUM_PEAK_BUDGET_MB, "medium seed 275");
}

/// The large tier's month (20k ASes, ~113k tracked prefixes, 16
/// sessions) stays within its peak-heap budget: `#[ignore]`d and
/// additionally gated on `QUICKSAND_TEST_LARGE=1`, like the other
/// large-tier gates.
#[test]
#[ignore = "large tier: a full month; QUICKSAND_TEST_LARGE=1 cargo test -- --ignored"]
fn large_month_peak_heap_is_within_budget() {
    if std::env::var("QUICKSAND_TEST_LARGE").as_deref() != Ok("1") {
        eprintln!("skipped: set QUICKSAND_TEST_LARGE=1 to run the large peak-heap budget");
        return;
    }
    let _turn = serial();
    let scenario = Scenario::build(ScenarioConfig::at_scale(&Scale::Large, 28));
    assert_month_peak_within(&scenario, LARGE_PEAK_BUDGET_MB, "large seed 28");
}

/// The medium tier's statistics stay within their peak-heap budget.
#[test]
fn medium_statistics_peak_heap_is_within_budget() {
    let _turn = serial();
    let scenario = Scenario::build(ScenarioConfig::at_scale(&Scale::Medium, 275));
    assert_statistics_peak_within(&scenario, MEDIUM_STATS_BUDGET_MB, "medium seed 275");
}

/// The large tier's statistics stay within their peak-heap budget:
/// gated like [`large_month_peak_heap_is_within_budget`].
#[test]
#[ignore = "large tier: a full month; QUICKSAND_TEST_LARGE=1 cargo test -- --ignored"]
fn large_statistics_peak_heap_is_within_budget() {
    if std::env::var("QUICKSAND_TEST_LARGE").as_deref() != Ok("1") {
        eprintln!("skipped: set QUICKSAND_TEST_LARGE=1 to run the large statistics budget");
        return;
    }
    let _turn = serial();
    let scenario = Scenario::build(ScenarioConfig::at_scale(&Scale::Large, 28));
    assert_statistics_peak_within(&scenario, LARGE_STATS_BUDGET_MB, "large seed 28");
}
