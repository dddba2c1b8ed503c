//! The three workloads: untraced passes for the end-to-end figures, an
//! optional traced pass for the per-layer ones, and the correctness
//! gates that turn any mismatch into a failed op.
//!
//! Every workload is a closed loop: one caller, and the next pass starts
//! when the previous one has finished. None keeps more than two threads
//! busy.

use crate::alloc::HEAP;
use crate::clock;
use crate::stats::{self, Summary};
use crate::trace::{self, Cadence, CellRun, Tracer};
use quicksand_core::experiments::{fig3_left, fig3_right, table1};
use quicksand_core::{
    month_fnv, Admission, CellResult, MonthResult, Parallelism, Scale, Scenario, ScenarioConfig,
    ScenarioJob, SuperviseConfig, Supervisor, SupervisorOutcome, WatchdogConfig,
};
use quicksand_recover::{CheckpointStore, HookAction, DEFAULT_RETAIN};
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    LargeMonth,
    MediumChurn,
    FleetCheckpoint,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::LargeMonth,
        Workload::MediumChurn,
        Workload::FleetCheckpoint,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LargeMonth => "large-month",
            Workload::MediumChurn => "medium-churn",
            Workload::FleetCheckpoint => "fleet-checkpoint",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn plan(self, smoke: bool) -> Plan {
        let (scale, pool, cells, min_passes) = match self {
            Workload::LargeMonth => (Scale::Large, LARGE_POOL, 1, LARGE_POOL.len()),
            Workload::MediumChurn => (Scale::Medium, MEDIUM_POOL, 1, 5),
            Workload::FleetCheckpoint => (Scale::Medium, MEDIUM_POOL, 2, 3),
        };
        if smoke {
            return Plan {
                scale: Scale::Small,
                pool: SMALL_POOL,
                cells,
                min_passes: 1,
                exponent: clock::CORE_BOUND,
            };
        }
        let exponent = match scale {
            Scale::Large => clock::PARTLY_CORE_BOUND,
            _ => clock::CORE_BOUND,
        };
        Plan {
            scale,
            pool,
            cells,
            min_passes,
            exponent,
        }
    }

    fn is_fleet(self) -> bool {
        self == Workload::FleetCheckpoint
    }
}

struct Plan {
    scale: Scale,
    pool: &'static [(u64, u64)],
    /// Pool entries per pass.
    cells: usize,
    min_passes: usize,
    /// How the tier's builds, months, statistics and resumes follow the
    /// host's speed (`clock`).
    exponent: f64,
}

/// Scenario seeds each tier draws its cells from, with the
/// `raw_log_fnv` of `Scenario::run_month` at that seed. `--seed n`
/// starts at entry `n` (mod the pool size) and every pass takes the
/// next `Plan::cells` entries, so every seed maps to pinned output and
/// a run spreads over much of the pool. Month time, statistics time and
/// peak heap vary with the scenario seed by up to 3x, so the medium and
/// large pools hold only screened seeds with matched tree recomputes,
/// raw and cleaned record counts; statistics time still differs by ~20%
/// between medium entries, which the rotation averages out (README.md,
/// "Seeds").
const SMALL_POOL: &[(u64, u64)] = &[
    (0xA11, 0x8b87_8e69_74f3_c613),
    (0xA12, 0xb8ad_fd14_6115_3ac7),
];
const MEDIUM_POOL: &[(u64, u64)] = &[
    (275, 0x159e_e47b_285b_133a),
    (155, 0xb3c6_bc98_22f0_f97c),
    (63, 0xb5db_0674_cf83_33d7),
    (559, 0x8e3e_3a1f_55f1_c0f0),
    (50, 0x8821_5c68_95fc_6a67),
    (69, 0x8b9a_e497_d48b_a424),
    (284, 0x8f88_1566_2b1f_9f8e),
    (189, 0xf606_f287_8426_fe7f),
    (469, 0x55d5_81d4_7dfb_6433),
    (238, 0xc771_a186_eb8b_4036),
];
/// As many entries as `large-month`'s minimum passes, so that every run
/// replays the same three scenarios, in an order `--seed` sets: with
/// room for only three ~8 s months in a run, a run that drew its own
/// three entries from a wider pool carried their differences into its
/// median.
const LARGE_POOL: &[(u64, u64)] = &[
    (28, 0x20a3_3b44_81ed_ddf7),
    (78, 0xbf6b_375f_6421_12ef),
    (42, 0x588c_3c08_3b36_53ae),
];

/// Set-up (`Scenario::build`) is timed at least `SETUP_BUILDS` times and
/// for at least `SETUP_SECONDS` before the first pass (a medium build
/// takes ~2 ms, a large one ~80 ms), then again after every pass for at
/// least `SETUP_PASS_SECONDS`, so its samples span the whole run rather
/// than its first half second.
const SETUP_BUILDS: usize = 12;
const SETUP_SECONDS: f64 = 0.5;
const SETUP_PASS_SECONDS: f64 = 0.1;
/// The statistics of a pass are computed repeatedly, each repetition
/// timed, until this much time has passed and at least twice: a medium
/// month's take ~20 ms, too short to time once per pass on a shared host,
/// and a large month's ~1.5 s, of which a run has room for only a few.
const STATS_SECONDS: f64 = 0.3;
const STATS_REPETITIONS: usize = 2;
/// Concurrent cells in the fleet. One: with two cells replaying at once
/// on a 2-vCPU shared host, the fleet's time swung by 40% between runs
/// of the same code (README.md, "Workloads").
const WIDTH: usize = 1;
/// Worker threads of the parallel replay in the traced pass.
const JOBS: usize = 2;
/// The fleet's checkpoint interval. At `repro serve`'s default of 25 a
/// pass wrote ~170 MB of fsync'd checkpoints, and the fleet's time swung
/// by 22% between two sets of runs of the same code while its CPU-bound
/// figures moved by 1-5%: the shared disk, not the code, set the result.
const FLEET_CHECKPOINT_EVERY: u64 = 100;
/// Runs of the reference loop (`clock`) timed on each side of a build
/// or a statistics repetition (~2.5 ms each).
const SHORT_BRACKET: usize = 2;
/// Runs of the reference loop timed on each side of a month, a fleet or
/// a resume (~12 ms each).
const BRACKET: usize = 10;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Where checkpoint stores are created; removed at the end.
    pub tmp: PathBuf,
}

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Set for figures reported as a median over samples.
    pub summary: Option<Summary>,
    /// For times scaled to the reference loop's speed: the median of
    /// the seconds as measured.
    pub measured: Option<f64>,
}

fn median_metric(name: &str, unit: &'static str, samples: &[f64]) -> Metric {
    let summary = stats::summarize(samples);
    Metric {
        name: name.to_string(),
        unit,
        value: summary.median,
        summary: Some(summary),
        measured: None,
    }
}

/// The median of a time's scaled samples, with the measured median.
fn timed_metric(name: &str, t: &Timed) -> Metric {
    Metric {
        measured: Some(t.measured_median()),
        ..median_metric(name, "s", &t.scaled)
    }
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
        summary: None,
        measured: None,
    }
}

/// Samples of an end-to-end time: as measured, and scaled to the
/// reference loop's nominal speed (`clock`).
#[derive(Default)]
struct Timed {
    measured: Vec<f64>,
    scaled: Vec<f64>,
}

impl Timed {
    /// `seconds`, measured beside a loop time of `reference_s`, of work
    /// that follows the loop with `exponent`.
    fn push(&mut self, seconds: f64, reference_s: f64, exponent: f64) {
        self.add(seconds, clock::scale(seconds, reference_s, exponent));
    }

    fn add(&mut self, measured: f64, scaled: f64) {
        self.measured.push(measured);
        self.scaled.push(scaled);
    }

    fn extend(&mut self, other: Timed) {
        self.measured.extend(other.measured);
        self.scaled.extend(other.scaled);
    }

    fn measured_median(&self) -> f64 {
        stats::median(&self.measured)
    }

    fn scaled_median(&self) -> f64 {
        stats::median(&self.scaled)
    }
}

pub struct Report {
    pub workload: Workload,
    pub scenario_seeds: Vec<u64>,
    pub passes: usize,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub tracer: Option<Tracer>,
}

/// Op accounting: an op is one pass, or one fleet cell; a correctness
/// mismatch, run error or quarantined cell fails it.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Ops {
    /// Count one op that failed the listed checks (none: it passed).
    fn record(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures
                .extend(problems.into_iter().map(|p| format!("{what}: {p}")));
        }
    }
}

fn statistics(s: &Scenario, m: &MonthResult) -> impl std::fmt::Debug {
    (table1(s, m), fig3_left(s, m), fig3_right(s, m))
}

/// The statistics of one or more months, timed per repetition.
struct TimedStats {
    /// Seconds per repetition (all the months once).
    times: Timed,
    /// Fingerprint of each month's statistics, from the first repetition.
    fps: Vec<u64>,
    /// Whether every repetition gave the same values.
    consistent: bool,
}

/// `table1` + `fig3_left` + `fig3_right` of every month, repeated until
/// `STATS_SECONDS` have passed and `STATS_REPETITIONS` are done, each
/// repetition beside the reference loop and scaled with `exponent`.
fn timed_statistics(months: &[(&Scenario, &MonthResult)], exponent: f64) -> TimedStats {
    let started = Instant::now();
    let mut out = TimedStats {
        times: Timed::default(),
        fps: Vec::new(),
        consistent: true,
    };
    while out.times.scaled.len() < STATS_REPETITIONS
        || started.elapsed().as_secs_f64() < STATS_SECONDS
    {
        let ((stats, seconds), reference_s) = clock::bracket(SHORT_BRACKET, || {
            let t = Instant::now();
            let stats: Vec<_> = months.iter().map(|(s, m)| statistics(s, m)).collect();
            (stats, t.elapsed().as_secs_f64())
        });
        out.times.push(seconds, reference_s, exponent);
        let fps: Vec<u64> = stats.iter().map(trace::fingerprint).collect();
        if out.fps.is_empty() {
            out.fps = fps;
        } else {
            out.consistent &= fps == out.fps;
        }
    }
    out
}

fn repetition_problem(stats: &TimedStats) -> Option<String> {
    (!stats.consistent).then(|| "T1/Fig-3 values differ across repetitions".to_string())
}

/// A pool entry the run may replay: its scenario seed, pinned
/// `raw_log_fnv` and configuration, and the fingerprint of its
/// statistics once a pass has computed them.
struct Cell {
    seed: u64,
    pin: u64,
    config: ScenarioConfig,
    stats_fp: Option<u64>,
}

/// Time `Scenario::build` of the cells in turn, each beside the
/// reference loop, at least `min` times and for at least `seconds`,
/// appending to `samples`.
fn time_builds(cells: &[Cell], samples: &mut Timed, min: usize, seconds: f64, exponent: f64) {
    let started = Instant::now();
    let mut done = 0;
    while done < min || started.elapsed().as_secs_f64() < seconds {
        let config = cells[samples.scaled.len() % cells.len()].config.clone();
        let ((s, seconds), reference_s) = clock::bracket(SHORT_BRACKET, || {
            let t = Instant::now();
            (Scenario::build(config), t.elapsed().as_secs_f64())
        });
        samples.push(seconds, reference_s, exponent);
        drop(std::hint::black_box(s));
        done += 1;
    }
}

fn same_month(a: &MonthResult, b: &MonthResult) -> bool {
    a.raw == b.raw
        && a.cleaned == b.cleaned
        && a.removed_duplicates == b.removed_duplicates
        && a.reset_bursts == b.reset_bursts
}

fn pin_problem(month: &MonthResult, pin: u64) -> Option<String> {
    let fnv = month_fnv(month);
    (fnv != pin).then(|| format!("raw_log_fnv {fnv:#018x}, pinned {pin:#018x}"))
}

/// Stats must agree with the first pass that computed them for a cell.
fn stats_problem(first: &mut Option<u64>, fp: u64) -> Option<String> {
    match *first {
        None => {
            *first = Some(fp);
            None
        }
        Some(want) => (want != fp).then(|| "T1/Fig-3 values differ across passes".to_string()),
    }
}

pub fn run(w: Workload, opts: &Options) -> Report {
    let plan = w.plan(opts.smoke);
    let n = plan.pool.len();
    let first = (opts.seed % n as u64) as usize;
    // The pool in the order the passes take it.
    let mut cells: Vec<Cell> = (0..n)
        .map(|i| {
            let (seed, pin) = plan.pool[(first + i) % n];
            Cell {
                seed,
                pin,
                config: ScenarioConfig::at_scale(&plan.scale, seed),
                stats_fp: None,
            }
        })
        .collect();
    eprintln!(
        "qsbench: {} on {} from seed {:#x}",
        w.name(),
        plan.scale,
        cells[0].seed
    );

    let mut setup_s = Timed::default();
    time_builds(
        &cells,
        &mut setup_s,
        SETUP_BUILDS,
        SETUP_SECONDS,
        plan.exponent,
    );

    let mut ops = Ops::default();
    let mut supervised = SupervisedCounts::default();
    let mut used_seeds: Vec<u64> = Vec::new();
    let started = Instant::now();
    let mut passes = 0;
    let mut e2e = PassSamples::default();
    // The newest pass's cells and months: what the traced pass re-runs
    // and compares with.
    let mut last_cells: Vec<usize> = Vec::new();
    let mut last_months: Vec<Option<MonthResult>> = Vec::new();
    while passes < plan.min_passes || started.elapsed().as_secs_f64() < opts.seconds {
        last_cells = (0..plan.cells)
            .map(|i| (passes * plan.cells + i) % n)
            .collect();
        last_months.clear();
        if w.is_fleet() {
            let dir = opts.tmp.join("fleet");
            let pass = fleet_pass(&mut cells, &last_cells, &dir, plan.exponent, &mut ops);
            supervised.add(&pass.counts);
            let fleet = clock::PARTLY_CORE_BOUND;
            e2e.month.push(pass.fleet_s, pass.fleet_reference_s, fleet);
            e2e.e2e.add(
                pass.fleet_s + pass.stats.times.measured_median() + pass.resume_s,
                clock::scale(pass.fleet_s, pass.fleet_reference_s, fleet)
                    + pass.stats.times.scaled_median()
                    + clock::scale(pass.resume_s, pass.resume_reference_s, plan.exponent),
            );
            e2e.stats.extend(pass.stats.times);
            e2e.peak.push(pass.peak as f64 / 1e6);
            last_months = pass.months;
        } else {
            let cell = &mut cells[last_cells[0]];
            match month_pass(&cell.config, plan.exponent) {
                Ok(p) => {
                    let problems = pin_problem(&p.month, cell.pin)
                        .into_iter()
                        .chain(stats_problem(&mut cell.stats_fp, p.stats.fps[0]))
                        .chain(repetition_problem(&p.stats))
                        .collect();
                    ops.record(&format!("pass {passes}"), problems);
                    e2e.month.push(p.month_s, p.reference_s, plan.exponent);
                    let build_month = p.build_s + p.month_s;
                    e2e.e2e.add(
                        build_month + p.stats.times.measured_median(),
                        clock::scale(build_month, p.reference_s, plan.exponent)
                            + p.stats.times.scaled_median(),
                    );
                    e2e.stats.extend(p.stats.times);
                    e2e.peak.push(p.peak as f64 / 1e6);
                    last_months.push(Some(p.month));
                }
                Err(e) => {
                    ops.record(&format!("pass {passes}"), vec![e]);
                    last_months.push(None);
                }
            }
        }
        let seeds: Vec<u64> = last_cells.iter().map(|&i| cells[i].seed).collect();
        for &s in &seeds {
            if !used_seeds.contains(&s) {
                used_seeds.push(s);
            }
        }
        time_builds(&cells, &mut setup_s, 1, SETUP_PASS_SECONDS, plan.exponent);
        passes += 1;
        eprintln!(
            "qsbench: {} pass {passes} on seeds {seeds:x?} done at {:.1}s",
            w.name(),
            started.elapsed().as_secs_f64()
        );
    }

    let end_to_end = vec![
        timed_metric("setup_s", &setup_s),
        timed_metric("month_s", &e2e.month),
        timed_metric("stats_s", &e2e.stats),
        timed_metric("e2e_s", &e2e.e2e),
        median_metric("peak_heap_mb", "MB", &e2e.peak),
    ];

    let (per_layer, tracer) = if opts.trace {
        let traced_cells: Vec<&Cell> = last_cells.iter().map(|&i| &cells[i]).collect();
        let traced = traced_pass(
            w,
            &traced_cells,
            last_months,
            &opts.tmp,
            &mut ops,
            &mut supervised,
        );
        // The traced spans are measured seconds; so are these.
        let (month_s, setup) = (e2e.month.measured_median(), setup_s.measured_median());
        (
            traced.metrics(w, month_s, setup, &supervised),
            Some(traced.tracer),
        )
    } else {
        (Vec::new(), None)
    };
    let _ = std::fs::remove_dir_all(&opts.tmp);

    Report {
        workload: w,
        scenario_seeds: used_seeds,
        passes,
        attempted: ops.attempted,
        failed: ops.failed,
        failures: ops.failures,
        end_to_end,
        per_layer,
        tracer,
    }
}

#[derive(Default)]
struct PassSamples {
    month: Timed,
    stats: Timed,
    e2e: Timed,
    peak: Vec<f64>,
}

struct MonthPass {
    build_s: f64,
    month_s: f64,
    /// The reference loop's time around the build and the month.
    reference_s: f64,
    stats: TimedStats,
    peak: u64,
    month: MonthResult,
}

/// `Scenario::build → run_month → table1 + fig3_left + fig3_right`, the
/// statistics scaled with `exponent`.
fn month_pass(config: &ScenarioConfig, exponent: f64) -> Result<MonthPass, String> {
    HEAP.reset_peak();
    let ((scenario, month, t0, t1, t2), reference_s) = clock::bracket(BRACKET, || {
        let t0 = Instant::now();
        let scenario = Scenario::build(config.clone());
        let t1 = Instant::now();
        let month = scenario.run_month();
        (scenario, month, t0, t1, Instant::now())
    });
    let month = month.map_err(|e| format!("run_month: {e}"))?;
    let stats = timed_statistics(&[(&scenario, &month)], exponent);
    Ok(MonthPass {
        build_s: (t1 - t0).as_secs_f64(),
        month_s: (t2 - t1).as_secs_f64(),
        reference_s,
        stats,
        peak: HEAP.peak(),
        month,
    })
}

#[derive(Default)]
struct SupervisedCounts {
    restarts: u64,
    watchdog_trips: u64,
}

impl SupervisedCounts {
    fn add(&mut self, other: &SupervisedCounts) {
        self.restarts += other.restarts;
        self.watchdog_trips += other.watchdog_trips;
    }
}

/// Take each cell's month out of a supervisor outcome, counting its
/// restarts and watchdog trips; a quarantined or failed cell yields its
/// failure instead.
fn completed_months(
    outcome: SupervisorOutcome,
    counts: &mut SupervisedCounts,
) -> Vec<Result<MonthResult, String>> {
    outcome
        .cells
        .into_iter()
        .map(|cell| {
            counts.restarts += u64::from(cell.restarts);
            counts.watchdog_trips += cell.watchdog_trips;
            match cell.result {
                CellResult::Completed { month, .. } => Ok(month),
                CellResult::Quarantined { last } => Err(format!("quarantined after {last:?}")),
                CellResult::Failed { error } => Err(error),
            }
        })
        .collect()
}

fn fresh_store(dir: &Path) -> Result<CheckpointStore, String> {
    let _ = std::fs::remove_dir_all(dir);
    CheckpointStore::open(dir, DEFAULT_RETAIN).map_err(|e| format!("checkpoint store: {e}"))
}

fn load_latest(dir: &Path) -> Result<quicksand_recover::PipelineSnapshot, String> {
    let store = CheckpointStore::open(dir, DEFAULT_RETAIN).map_err(|e| e.to_string())?;
    match store.load_latest() {
        Ok(Some((snap, _))) => Ok(snap),
        Ok(None) => Err("no checkpoint to resume from".into()),
        Err(e) => Err(format!("load_latest: {e}")),
    }
}

fn resume(scenario: &Scenario, dir: &Path) -> Result<MonthResult, String> {
    let snap = load_latest(dir)?;
    scenario
        .run_month_checkpointed(Some(&snap), 0, |_| HookAction::Continue)
        .map_err(|e| format!("resumed run: {e}"))
}

struct FleetPass {
    fleet_s: f64,
    /// The reference loop's time around the fleet, and around the resume.
    fleet_reference_s: f64,
    stats: TimedStats,
    resume_s: f64,
    resume_reference_s: f64,
    peak: u64,
    months: Vec<Option<MonthResult>>,
    counts: SupervisedCounts,
}

/// The pass's cells (`pass`, indices into `cells`) under a `WIDTH`-wide
/// `Supervisor` checkpointing every `FLEET_CHECKPOINT_EVERY` events into fresh stores,
/// statistics for each completed cell (scaled with `exponent`), then a
/// resume of the first cell from its newest checkpoint.
fn fleet_pass(
    cells: &mut [Cell],
    pass: &[usize],
    dir: &Path,
    exponent: f64,
    ops: &mut Ops,
) -> FleetPass {
    HEAP.reset_peak();
    let dirs: Vec<PathBuf> = (0..pass.len())
        .map(|i| dir.join(format!("cell{i}")))
        .collect();
    let mut problems: Vec<Vec<String>> = vec![Vec::new(); pass.len()];
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }

    let ((outcome, fleet_s), fleet_reference_s) = clock::bracket(BRACKET, || {
        let t0 = Instant::now();
        let mut sup = Supervisor::new(SuperviseConfig {
            width: WIDTH,
            checkpoint_every: FLEET_CHECKPOINT_EVERY,
            ..SuperviseConfig::default()
        });
        for (i, &c) in pass.iter().enumerate() {
            let job = ScenarioJob {
                store_dir: Some(dirs[i].clone()),
                ..ScenarioJob::new(format!("cell{i}"), cells[c].config.clone())
            };
            if sup.submit(job) == Admission::Shed {
                problems[i].push("shed at admission".into());
            }
        }
        (sup.run(), t0.elapsed().as_secs_f64())
    });
    let mut counts = SupervisedCounts::default();
    let months: Vec<Option<MonthResult>> = completed_months(outcome, &mut counts)
        .into_iter()
        .enumerate()
        .map(|(i, m)| m.map_err(|e| problems[i].push(e)).ok())
        .collect();

    // The cells' scenarios, for their statistics and the resume; the
    // supervisor built its own.
    let scenarios: Vec<Scenario> = pass
        .iter()
        .map(|&c| Scenario::build(cells[c].config.clone()))
        .collect();
    let (completed, pairs): (Vec<usize>, Vec<(&Scenario, &MonthResult)>) = months
        .iter()
        .enumerate()
        .filter_map(|(i, m)| Some((i, (&scenarios[i], m.as_ref()?))))
        .unzip();
    let stats = timed_statistics(&pairs, exponent);

    let ((resumed, resume_s), resume_reference_s) = clock::bracket(BRACKET, || {
        let t2 = Instant::now();
        (resume(&scenarios[0], &dirs[0]), t2.elapsed().as_secs_f64())
    });

    for (i, m) in months.iter().enumerate() {
        if let Some(m) = m {
            problems[i].extend(pin_problem(m, cells[pass[i]].pin));
        }
    }
    for (&i, &fp) in completed.iter().zip(&stats.fps) {
        problems[i].extend(stats_problem(&mut cells[pass[i]].stats_fp, fp));
        problems[i].extend(repetition_problem(&stats));
    }
    match (resumed, &months[0]) {
        (Ok(r), Some(m)) if !same_month(&r, m) => {
            problems[0].push("resumed run differs from the uninterrupted one".into())
        }
        (Err(e), _) => problems[0].push(e),
        _ => {}
    }
    for (i, p) in problems.into_iter().enumerate() {
        ops.record(&format!("cell {i}"), p);
    }
    let peak = HEAP.peak();
    let _ = std::fs::remove_dir_all(dir);
    FleetPass {
        fleet_s,
        fleet_reference_s,
        stats,
        resume_s,
        resume_reference_s,
        peak,
        months,
        counts,
    }
}

/// Everything the traced pass measured, reduced to per-layer metrics
/// by [`Traced::metrics`].
struct Traced {
    tracer: Tracer,
    wall_s: f64,
    runs: Vec<CellRun>,
    /// Unsupervised checkpointed cell time (build + month), summed
    /// over the cells.
    cell_work_s: f64,
    /// Untraced serial `run_month` of cell 0, timed in the traced pass.
    serial_month_s: f64,
}

/// Re-run the newest pass's cells through the traced pipeline, one
/// after the other. Then, on cell 0: load and resume its checkpoint,
/// unsupervised and under a `Supervisor`, and replay it serial and at
/// jobs = 2. Every result is checked against the untraced passes' output
/// (`untraced`: the newest pass's months).
fn traced_pass(
    w: Workload,
    cells: &[&Cell],
    untraced: Vec<Option<MonthResult>>,
    tmp: &Path,
    ops: &mut Ops,
    supervised: &mut SupervisedCounts,
) -> Traced {
    let origin = Instant::now();
    let mut t = Tracer::new(origin, 0);
    let cadence = if w.is_fleet() {
        Cadence::Every(FLEET_CHECKPOINT_EVERY)
    } else {
        Cadence::Midpoint
    };
    let dirs: Vec<PathBuf> = (0..cells.len())
        .map(|i| tmp.join("traced").join(format!("cell{i}")))
        .collect();

    let cells_id = t.open("cells");
    let results: Vec<(usize, Tracer, Result<CellRun, String>)> = cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let mut ct = Tracer::new(origin, i);
            let run = ct.span("cell", |ct| {
                let store = fresh_store(&dirs[i])?;
                trace::traced_cell(ct, &cell.config, &store, cadence)
            });
            (i, ct, run)
        })
        .collect();
    t.close(cells_id);

    let mut runs: Vec<CellRun> = Vec::new();
    let mut tracers = Vec::new();
    let mut cell_work_s = 0.0;
    t.span("gate", |_| {
        for ((i, ct, run), reference) in results.into_iter().zip(untraced) {
            cell_work_s += ct.total_s("build") + ct.total_s("month");
            tracers.push(ct);
            let run = match run {
                Ok(run) => run,
                Err(e) => {
                    ops.record(&format!("traced cell {i}"), vec![e]);
                    continue;
                }
            };
            let mut problems: Vec<String> =
                pin_problem(&run.month, cells[i].pin).into_iter().collect();
            match reference {
                Some(r) if same_month(&r, &run.month) => {}
                Some(_) => problems.push("traced log differs from run_month's".into()),
                None => problems.push("no untraced run to compare with".into()),
            }
            if cells[i].stats_fp != Some(run.stats_fp) {
                problems.push("traced T1/Fig-3 values differ from the untraced passes'".into());
            }
            ops.record(&format!("traced cell {i}"), problems);
            runs.push(run);
        }
    });
    for ct in tracers {
        t.adopt(cells_id, ct);
    }

    let mut serial_month_s = 0.0;
    if let Some(run0) = runs.first().filter(|_| runs.len() == cells.len()) {
        let mut problems = Vec::new();
        let mut check = |what: &str, m: Result<MonthResult, String>| match m {
            Ok(m) if same_month(&m, &run0.month) => {}
            Ok(_) => problems.push(format!("{what} differs from the traced run")),
            Err(e) => problems.push(format!("{what}: {e}")),
        };
        let snap = t.span("recover.load", |_| load_latest(&dirs[0]));
        let resumed = t.span("recover.resume", |_| {
            snap.and_then(|snap| {
                run0.scenario
                    .run_month_checkpointed(Some(&snap), 0, |_| HookAction::Continue)
                    .map_err(|e| e.to_string())
            })
        });
        t.span("gate", |_| check("resumed run", resumed));

        let outcome = t.span("supervise.resume", |_| {
            // One cell resuming from the traced checkpoint, as a restart
            // under `repro serve` does. It takes no further checkpoints,
            // and the watchdog, which hears from a cell only at
            // checkpoints, gets a deadline longer than the run.
            let mut sup = Supervisor::new(SuperviseConfig {
                width: 1,
                checkpoint_every: u64::MAX,
                watchdog: WatchdogConfig {
                    deadline_ms: 600_000,
                    ..WatchdogConfig::default()
                },
                ..SuperviseConfig::default()
            });
            sup.submit(ScenarioJob {
                store_dir: Some(dirs[0].clone()),
                ..ScenarioJob::new("resume", cells[0].config.clone())
            });
            sup.run()
        });
        t.span("gate", |_| {
            for m in completed_months(outcome, supervised) {
                check("supervised resume", m);
            }
        });

        let serial = t.span("parallel.serial_month", |_| run0.scenario.run_month());
        serial_month_s = t.total_s("parallel.serial_month");
        t.span("gate", |_| {
            check("serial run", serial.map_err(|e| e.to_string()))
        });
        let jobs2 = t.span("parallel.build", |_| {
            let mut config = cells[0].config.clone();
            config.parallelism = Parallelism::with_jobs(JOBS);
            Scenario::build(config)
        });
        let parallel = t.span("parallel.jobs2_month", |_| jobs2.run_month());
        t.span("gate", |_| {
            check("jobs=2 run", parallel.map_err(|e| e.to_string()));
            drop(jobs2);
        });
        ops.record("traced cell 0 replays", problems);
    }
    let wall_s = origin.elapsed().as_secs_f64();
    Traced {
        tracer: t,
        wall_s,
        runs,
        cell_work_s,
        serial_month_s,
    }
}

/// Median, tail, the tail's percentile and the sample count of a
/// per-event distribution.
fn distribution(prefix: &str, unit: &'static str, samples: &[f64]) -> [Metric; 4] {
    let tail = stats::tail(samples);
    [
        metric(format!("{prefix}.p50"), unit, stats::median(samples)),
        metric(format!("{prefix}.tail"), unit, tail.value),
        metric(format!("{prefix}.tail_pct"), "percentile", tail.pct),
        metric(format!("{prefix}.n"), "count", tail.n as f64),
    ]
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

impl Traced {
    /// Totals are summed over the traced cells (one, or the fleet's
    /// two); ratios divide sums. `fleet_s` is the fleet's untraced
    /// median `month_s`, `setup_s` the median build.
    fn metrics(
        &self,
        w: Workload,
        fleet_s: f64,
        setup_s: f64,
        supervised: &SupervisedCounts,
    ) -> Vec<Metric> {
        let t = &self.tracer;
        let s = |name: &str| t.total_s(name);
        let sum = |f: &dyn Fn(&trace::CellCounts) -> u64| {
            self.runs.iter().map(|r| f(&r.counts)).sum::<u64>() as f64
        };
        let events = sum(&|c| c.events);
        let mb = |bytes: u64| bytes as f64 / 1e6;
        let checkpoints: Vec<u64> = self
            .runs
            .iter()
            .flat_map(|r| r.counts.checkpoint_bytes.iter().copied())
            .collect();
        let heap = |k: usize| {
            self.runs
                .first()
                .map_or(0.0, |r| mb(r.counts.heap_after[k]))
        };
        // Cell 0's traced month, checkpoint saves excluded, against the
        // same month replayed untraced.
        let cell0 = |name: &str| -> f64 {
            t.named(name)
                .filter(|sp| sp.cell == 0)
                .map(trace::Span::secs)
                .sum()
        };
        let traced_month_s = cell0("month") - cell0("recover.save");
        let resume_work_s = setup_s + s("recover.load") + s("recover.resume");
        let supervise_overhead = if w.is_fleet() {
            ratio(fleet_s, self.cell_work_s / WIDTH as f64)
        } else {
            ratio(s("supervise.resume"), resume_work_s)
        };
        let replay_allocs = t.allocs("churn.replay").0 - t.allocs("recover.save").0;

        let mut m = vec![
            metric("topology.generate_s", "s", s("topology.generate")),
            metric("tor.plan_s", "s", s("tor.plan")),
            metric("tor.consensus_s", "s", s("tor.consensus")),
            metric("tor.prefix_join_s", "s", s("tor.prefix_join")),
            metric("scenario.select_s", "s", s("scenario.select")),
            metric("scenario.prep_s", "s", s("scenario.prep")),
            metric("churn.generate_s", "s", s("churn.generate")),
            metric("churn.events", "count", events),
            metric("fast.init_s", "s", s("fast.init")),
            metric("fast.init_allocs", "count", t.allocs("fast.init").0 as f64),
            metric("fast.apply_s", "s", s("fast.apply")),
        ];
        m.extend(distribution(
            "fast.apply_us",
            "us",
            &t.durations("fast.apply", 1e6),
        ));
        m.extend([
            metric(
                "fast.affected_per_event",
                "count",
                ratio(sum(&|c| c.affected), events),
            ),
            metric("fast.tree_recomputes", "count", sum(&|c| c.recomputes)),
            metric("collector.refresh_full_s", "s", s("collector.refresh_full")),
            metric("collector.dump_s", "s", s("collector.dump")),
            metric("collector.dump_records", "count", sum(&|c| c.dump_records)),
            metric(
                "collector.dump_alloc_mb",
                "MB",
                mb(t.allocs("collector.dump").1),
            ),
            metric(
                "collector.refresh_dirty_s",
                "s",
                s("collector.refresh_dirty"),
            ),
            metric(
                "collector.dirty_ratio",
                "ratio",
                ratio(sum(&|c| c.dirty_pairs), sum(&|c| c.refreshed_pairs)),
            ),
            metric(
                "collector.observe_dirty_s",
                "s",
                s("collector.observe_dirty"),
            ),
        ]);
        m.extend(distribution(
            "collector.observe_us",
            "us",
            &t.durations("collector.observe_dirty", 1e6),
        ));
        m.extend([
            metric(
                "collector.records_per_event",
                "count",
                ratio(sum(&|c| c.replay_records), events),
            ),
            metric(
                "collector.skipped_events",
                "count",
                sum(&|c| c.skipped_events),
            ),
            metric("clean.s", "s", s("clean")),
            metric(
                "clean.records_in",
                "count",
                self.runs.iter().map(|r| r.month.raw.len()).sum::<usize>() as f64,
            ),
            metric(
                "clean.removed",
                "count",
                self.runs
                    .iter()
                    .map(|r| r.month.removed_duplicates)
                    .sum::<usize>() as f64,
            ),
            metric("clean.alloc_mb", "MB", mb(t.allocs("clean").1)),
            metric("stats.table1_s", "s", s("stats.table1")),
            metric("stats.fig3_left_s", "s", s("stats.fig3_left")),
            metric("stats.fig3_right_s", "s", s("stats.fig3_right")),
            metric("parallel.jobs2_month_s", "s", s("parallel.jobs2_month")),
            metric(
                "parallel.jobs2_speedup",
                "x",
                ratio(self.serial_month_s, s("parallel.jobs2_month")),
            ),
            metric("recover.checkpoints", "count", checkpoints.len() as f64),
            metric("recover.save_s", "s", s("recover.save")),
        ]);
        m.extend(distribution(
            "recover.save_ms",
            "ms",
            &t.durations("recover.save", 1e3),
        ));
        m.extend([
            metric(
                "recover.checkpoint_kb",
                "KB",
                ratio(
                    checkpoints.iter().sum::<u64>() as f64 / 1e3,
                    checkpoints.len() as f64,
                ),
            ),
            metric("recover.load_s", "s", s("recover.load")),
            metric("recover.resume_s", "s", s("recover.resume")),
            metric(
                "supervise.overhead_pct",
                "%",
                (supervise_overhead - 1.0) * 100.0,
            ),
            metric("supervise.restarts", "count", supervised.restarts as f64),
            metric(
                "supervise.watchdog_trips",
                "count",
                supervised.watchdog_trips as f64,
            ),
            metric("heap.after_init_mb", "MB", heap(0)),
            metric("heap.after_dump0_mb", "MB", heap(1)),
            metric("heap.after_replay_mb", "MB", heap(2)),
            metric("heap.after_clean_mb", "MB", heap(3)),
            metric(
                "alloc.replay_per_event",
                "count",
                ratio(replay_allocs as f64, events),
            ),
            metric(
                "trace.unattributed_pct",
                "%",
                ratio(self.wall_s - t.top_level_s(), self.wall_s) * 100.0,
            ),
            metric(
                "trace.overhead_pct",
                "%",
                (ratio(traced_month_s, self.serial_month_s) - 1.0) * 100.0,
            ),
        ]);
        m
    }
}
