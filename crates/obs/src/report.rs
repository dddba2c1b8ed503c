//! Machine-readable run reports.
//!
//! A [`RunReport`] is the end-of-run artifact written by
//! `repro --obs-out=run.json`: per-stage wall time (derived from the
//! span profile, see [`RunReport::with_profile`]), a full metric
//! [`Snapshot`], and the alarm timeline extracted from buffered monitor
//! events. `repro report run.json` pretty-prints one report or diffs
//! two; [`RunReport::validate`] is the CI schema gate that fails a run
//! missing any of the six instrumented stages.

use crate::event::Event;
use crate::metrics::{Histogram, Snapshot, LOG2_US_BOUNDS};
use crate::prof::Profile;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Report schema version, bumped on incompatible changes.
pub const REPORT_VERSION: u32 = 1;

/// The six pipeline stages every full run must profile. A report
/// missing spans or metrics for any of these fails validation.
pub const REQUIRED_STAGES: [&str; 6] = [
    "topology",
    "churn",
    "collector",
    "monitor",
    "detect",
    "correlate",
];

/// Wall-time profile of one pipeline stage, derived from the span
/// profile. A stage's *outermost* spans are those with no ancestor
/// frame of the same stage.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StageReport {
    /// Stage name (see [`REQUIRED_STAGES`]).
    pub stage: String,
    /// Activations of the stage's outermost spans.
    pub calls: u64,
    /// Self time of every span of the stage, milliseconds. The column
    /// sums to the profiled wall time, with nothing counted twice.
    pub wall_ms_total: f64,
    /// Mean outermost-span duration (inclusive of nested spans),
    /// milliseconds: the same spans as `wall_ms_p95` and `wall_ms_max`.
    pub wall_ms_mean: f64,
    /// Estimated p95 outermost-span duration (log₂ buckets),
    /// milliseconds.
    pub wall_ms_p95: f64,
    /// Longest outermost span, milliseconds.
    pub wall_ms_max: f64,
}

/// The stage table of `profile`, ordered by stage name.
fn stage_table(profile: &Profile) -> Vec<StageReport> {
    let mut by_stage: BTreeMap<&str, (u64, Histogram)> = BTreeMap::new();
    for e in &profile.entries {
        let (self_ns, outermost) = by_stage
            .entry(e.stage.as_str())
            .or_insert_with(|| (0, Histogram::new(&LOG2_US_BOUNDS)));
        *self_ns += e.self_ns;
        let ancestors = e.path.rsplit_once(';').map_or("", |(a, _)| a);
        let nested = ancestors
            .split(';')
            .any(|frame| frame.split_once('.').is_some_and(|(st, _)| st == e.stage));
        if !nested {
            outermost.merge_parts(
                &e.buckets,
                e.count,
                e.total_ns as f64 / 1e3,
                e.min_ns as f64 / 1e3,
                e.max_ns as f64 / 1e3,
            );
        }
    }
    by_stage
        .into_iter()
        .map(|(stage, (self_ns, outermost))| {
            let calls = outermost.count();
            let total = self_ns as f64 / 1e6;
            StageReport {
                stage: stage.to_string(),
                calls,
                wall_ms_total: total,
                wall_ms_mean: if calls == 0 {
                    0.0
                } else {
                    outermost.sum() / calls as f64 / 1e3
                },
                wall_ms_p95: outermost.quantile(0.95).unwrap_or(0.0) / 1e3,
                wall_ms_max: outermost.max().unwrap_or(0.0) / 1e3,
            }
        })
        .collect()
}

/// One monitor alarm, lifted from the event stream into the report.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AlarmEntry {
    /// Simulation time of the alarm, seconds.
    pub at_s: f64,
    /// The prefix the alarm fired for.
    pub prefix: String,
    /// Alarm kind (`"origin-change"`, `"more-specific"`, ...).
    pub kind: String,
    /// Monitor confidence in `[0, 1]`, when scored.
    pub confidence: Option<f64>,
}

/// Fleet-level supervisor summary, present only on reports written by
/// a supervised (`repro serve`) run. Assembled from the `supervisor`
/// obs stage; absent (and absent from the JSON) on batch runs, so the
/// schema stays backward-compatible.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SupervisorSection {
    /// Scenario cells admitted.
    pub cells: u64,
    /// Cells that completed their month.
    pub completed: u64,
    /// Cells quarantined after exhausting the restart budget (includes
    /// infrastructure failures, which are isolated the same way).
    pub quarantined: u64,
    /// Restarts consumed across the fleet.
    pub restarts: u64,
    /// Watchdog trips (progress-deadline violations).
    pub watchdog_trips: u64,
    /// Panics contained by `catch_unwind`.
    pub panics: u64,
    /// Stalls cancelled by the watchdog.
    pub stalls: u64,
    /// Submissions shed at admission (reject-new load shedding).
    pub shed: u64,
    /// Cells that completed but needed restarts or tripped the
    /// watchdog on the way.
    pub degraded: u64,
}

impl SupervisorSection {
    /// Build the section from a metric snapshot, when the run recorded
    /// any `supervisor`-stage metrics at all.
    fn from_snapshot(metrics: &Snapshot) -> Option<SupervisorSection> {
        if !metrics.stages().contains(&"supervisor") {
            return None;
        }
        let counter = |name: &str| {
            metrics
                .counters
                .iter()
                .find(|c| c.stage == "supervisor" && c.name == name && c.session.is_none())
                .map_or(0, |c| c.value)
        };
        let gauge = |name: &str| {
            metrics
                .gauges
                .iter()
                .find(|g| g.stage == "supervisor" && g.name == name && g.session.is_none())
                .map_or(0.0, |g| g.value)
        };
        Some(SupervisorSection {
            cells: counter("cells"),
            completed: counter("completed"),
            quarantined: counter("quarantined") + counter("failed"),
            restarts: counter("restarts"),
            watchdog_trips: counter("watchdog_trips"),
            panics: counter("panics"),
            stalls: counter("stalls"),
            shed: counter("shed"),
            degraded: gauge("degraded") as u64,
        })
    }
}

/// One aggregated span call path in a [`ProfileSection`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProfileSpanEntry {
    /// Semicolon-joined `stage.name` frames, root first (collapsed-
    /// stack path).
    pub path: String,
    /// Completed activations.
    pub count: u64,
    /// Wall time excluding child spans, microseconds.
    pub self_us: f64,
    /// Wall time including child spans, microseconds.
    pub total_us: f64,
    /// Allocations excluding child spans (0 without an alloc probe).
    pub self_allocs: u64,
    /// Allocations including child spans.
    pub total_allocs: u64,
}

/// Span-profiler summary, attached to every batch report
/// (`repro --obs-out` turns the profiler on). Wall-clock content
/// through and through, so [`RunReport::normalized`] strips it —
/// files without the section and files with it `--check` identically.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProfileSection {
    /// Spans dropped to depth/node-table limits.
    pub dropped: u64,
    /// Aggregated call paths, sorted by path.
    pub spans: Vec<ProfileSpanEntry>,
}

impl From<&Profile> for ProfileSection {
    fn from(profile: &Profile) -> ProfileSection {
        ProfileSection {
            dropped: profile.dropped,
            spans: profile
                .entries
                .iter()
                .map(|e| ProfileSpanEntry {
                    path: e.path.clone(),
                    count: e.count,
                    self_us: e.self_ns as f64 / 1_000.0,
                    total_us: e.total_ns as f64 / 1_000.0,
                    self_allocs: e.self_allocs,
                    total_allocs: e.total_allocs,
                })
                .collect(),
        }
    }
}

/// The complete machine-readable record of one run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Schema version ([`REPORT_VERSION`]).
    pub version: u32,
    /// Caller-supplied label (scenario / figure set / git describe).
    pub label: String,
    /// Per-stage wall-time profiles, ordered by stage name (empty
    /// until [`RunReport::with_profile`] derives them).
    pub stages: Vec<StageReport>,
    /// Full metric snapshot at end of run.
    pub metrics: Snapshot,
    /// Alarm timeline, in emission order.
    pub alarms: Vec<AlarmEntry>,
    /// Supervisor summary — only on supervised (`repro serve`) runs.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub supervisor: Option<SupervisorSection>,
    /// Span-profiler summary — only on runs with profiling enabled.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub profile: Option<ProfileSection>,
}

impl RunReport {
    /// Build a report from a metric snapshot and the buffered event
    /// stream of a run. Alarms come from events named `"alarm"` in the
    /// `"monitor"` stage; the stage table stays empty until
    /// [`RunReport::with_profile`] attaches a span profile.
    pub fn assemble(label: impl Into<String>, metrics: &Snapshot, events: &[Event]) -> RunReport {
        let alarms = events
            .iter()
            .filter(|e| e.stage == "monitor" && e.name == "alarm")
            .map(|e| AlarmEntry {
                at_s: e.field("at_s").and_then(|v| v.as_f64()).unwrap_or(0.0),
                prefix: e
                    .field("prefix")
                    .and_then(|v| v.as_str())
                    .unwrap_or("?")
                    .to_string(),
                kind: e
                    .field("kind")
                    .and_then(|v| v.as_str())
                    .unwrap_or("?")
                    .to_string(),
                confidence: e.field("confidence").and_then(|v| v.as_f64()),
            })
            .collect();
        RunReport {
            version: REPORT_VERSION,
            label: label.into(),
            stages: Vec::new(),
            metrics: metrics.clone(),
            alarms,
            supervisor: SupervisorSection::from_snapshot(metrics),
            profile: None,
        }
    }

    /// Attach a span-profiler capture (builder style) and derive the
    /// stage table from it: a stage's `wall_ms_total` is the self time
    /// of all its spans, its calls, p95 and max come from its
    /// outermost spans (see [`StageReport`]). Empty profiles attach
    /// nothing, so unprofiled runs keep both absent.
    pub fn with_profile(mut self, profile: &Profile) -> RunReport {
        if !profile.is_empty() {
            self.stages = stage_table(profile);
            self.profile = Some(ProfileSection::from(profile));
        }
        self
    }

    /// The stage profile for `stage`, if recorded.
    pub fn stage(&self, stage: &str) -> Option<&StageReport> {
        self.stages.iter().find(|s| s.stage == stage)
    }

    /// Schema validation. Batch reports: every
    /// [required stage](REQUIRED_STAGES) must have at least one span in
    /// the stage table *and* a non-empty metric snapshot. Fleet reports (a
    /// `supervisor` section is present): the per-cell stage metrics
    /// live in the cells' private registries, so the six-stage rule
    /// does not apply; instead the supervisor accounting must be
    /// internally consistent. Returns every violation, not just the
    /// first.
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let mut problems = Vec::new();
        if self.version != REPORT_VERSION {
            problems.push(format!(
                "report version {} != expected {}",
                self.version, REPORT_VERSION
            ));
        }
        if let Some(sup) = &self.supervisor {
            if sup.completed + sup.quarantined != sup.cells {
                problems.push(format!(
                    "supervisor: completed ({}) + quarantined ({}) != cells ({})",
                    sup.completed, sup.quarantined, sup.cells
                ));
            }
            if sup.degraded > sup.completed {
                problems.push(format!(
                    "supervisor: degraded ({}) > completed ({})",
                    sup.degraded, sup.completed
                ));
            }
            if !self.metrics.stages().contains(&"supervisor") {
                problems.push("supervisor: section present but no stage metrics".to_string());
            }
        } else {
            // A stage's spans publish `_span_us` histograms into the
            // registry; those must not stand in for its own metrics.
            let has_metrics = |stage: &str| {
                let m = &self.metrics;
                m.counters.iter().any(|c| c.stage == stage)
                    || m.gauges.iter().any(|g| g.stage == stage)
                    || m.histograms
                        .iter()
                        .any(|h| h.stage == stage && !h.name.ends_with("_span_us"))
            };
            for stage in REQUIRED_STAGES {
                match self.stage(stage) {
                    None => problems.push(format!("stage '{stage}': no spans in the profile")),
                    Some(s) if s.calls == 0 => {
                        problems.push(format!("stage '{stage}': zero span calls"))
                    }
                    Some(_) => {}
                }
                if !has_metrics(stage) {
                    problems.push(format!("stage '{stage}': empty metric snapshot"));
                }
            }
        }
        if let Some(profile) = &self.profile {
            for (i, span) in profile.spans.iter().enumerate() {
                if span.path.is_empty() {
                    problems.push(format!("profile: span {i} has an empty path"));
                }
                if span.count == 0 {
                    problems.push(format!(
                        "profile: span '{}' has zero activations",
                        span.path
                    ));
                }
                if span.self_us > span.total_us + 1e-9 {
                    problems.push(format!(
                        "profile: span '{}' self time exceeds total",
                        span.path
                    ));
                }
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }

    /// The line `repro report` prints when [`RunReport::validate`]
    /// passes, naming what was checked: the required stages for a batch
    /// report; for a fleet report, the supervisor accounting alone,
    /// since its stage table is not checked.
    pub fn validated_line(&self) -> String {
        match &self.supervisor {
            None => format!(
                "validation: ok ({} required stages profiled)",
                REQUIRED_STAGES.len()
            ),
            Some(sup) => format!(
                "validation: ok (supervisor accounting: {} cells = {} completed + {} \
                 quarantined, {} degraded; stage table not checked)",
                sup.cells, sup.completed, sup.quarantined, sup.degraded
            ),
        }
    }

    /// Human-readable rendering for `repro report`.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "run report: {} (schema v{})", self.label, self.version);
        let _ = writeln!(out, "\nstage wall time:");
        let _ = writeln!(
            out,
            "  {:<12} {:>8} {:>12} {:>12} {:>12} {:>12}",
            "stage", "calls", "total ms", "mean ms", "p95 ms", "max ms"
        );
        for s in &self.stages {
            let _ = writeln!(
                out,
                "  {:<12} {:>8} {:>12.2} {:>12.3} {:>12.3} {:>12.3}",
                s.stage, s.calls, s.wall_ms_total, s.wall_ms_mean, s.wall_ms_p95, s.wall_ms_max
            );
        }
        let _ = writeln!(
            out,
            "\nmetrics: {} counters, {} gauges, {} histograms",
            self.metrics.counters.len(),
            self.metrics.gauges.len(),
            self.metrics.histograms.len()
        );
        for c in &self.metrics.counters {
            match c.session {
                Some(sid) => {
                    let _ = writeln!(out, "  {}.{}[s{}] = {}", c.stage, c.name, sid, c.value);
                }
                None => {
                    let _ = writeln!(out, "  {}.{} = {}", c.stage, c.name, c.value);
                }
            }
        }
        for g in &self.metrics.gauges {
            match g.session {
                Some(sid) => {
                    let _ = writeln!(out, "  {}.{}[s{}] = {:.3}", g.stage, g.name, sid, g.value);
                }
                None => {
                    let _ = writeln!(out, "  {}.{} = {:.3}", g.stage, g.name, g.value);
                }
            }
        }
        for h in &self.metrics.histograms {
            let _ = writeln!(
                out,
                "  {}.{}: n={} mean={:.3} p50={:.3} p90={:.3} p99={:.3} max={:.3}",
                h.stage,
                h.name,
                h.stats.count,
                h.stats.mean,
                h.stats.p50,
                h.stats.p90,
                h.stats.p99,
                h.stats.max
            );
        }
        if let Some(profile) = &self.profile {
            let _ = writeln!(
                out,
                "\nspan profile: {} paths, {} dropped",
                profile.spans.len(),
                profile.dropped
            );
            let _ = writeln!(
                out,
                "  {:<52} {:>10} {:>12} {:>12} {:>12}",
                "path", "count", "self ms", "total ms", "self allocs"
            );
            // Heaviest self-time first; the JSON keeps the full list.
            let mut spans: Vec<&ProfileSpanEntry> = profile.spans.iter().collect();
            spans.sort_by(|a, b| {
                b.self_us
                    .partial_cmp(&a.self_us)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            for s in spans.iter().take(20) {
                let _ = writeln!(
                    out,
                    "  {:<52} {:>10} {:>12.2} {:>12.2} {:>12}",
                    s.path,
                    s.count,
                    s.self_us / 1_000.0,
                    s.total_us / 1_000.0,
                    s.self_allocs
                );
            }
        }
        if let Some(sup) = &self.supervisor {
            let _ = writeln!(
                out,
                "\nsupervisor: {} cells, {} completed ({} degraded), {} quarantined; \
                 {} restarts, {} watchdog trips, {} panics, {} stalls, {} shed",
                sup.cells,
                sup.completed,
                sup.degraded,
                sup.quarantined,
                sup.restarts,
                sup.watchdog_trips,
                sup.panics,
                sup.stalls,
                sup.shed
            );
        }
        let _ = writeln!(out, "\nalarms: {}", self.alarms.len());
        for a in &self.alarms {
            let conf = a
                .confidence
                .map(|c| format!(" confidence={c:.2}"))
                .unwrap_or_default();
            let _ = writeln!(out, "  t={:.0}s {} {}{}", a.at_s, a.prefix, a.kind, conf);
        }
        out
    }

    /// Project the report down to its *deterministic* content: the part
    /// that must be bitwise-identical between an uninterrupted run and
    /// an interrupted-then-resumed run of the same scenario, and
    /// between runs at any `--jobs` width.
    ///
    /// What goes: everything wall-clock (the stage table and the span
    /// profile it is derived from, the `replay_rate` gauge), and
    /// everything describing the recovery and supervision machinery
    /// itself (`recover`- and `supervisor`-stage metrics — an
    /// uninterrupted baseline has none by definition). What stays:
    /// every other counter and gauge, and the alarm timeline.
    pub fn normalized(&self) -> RunReport {
        let mut out = self.clone();
        let engine = |stage: &str| stage == "recover" || stage == "supervisor";
        out.metrics.counters.retain(|c| !engine(&c.stage));
        out.metrics
            .gauges
            .retain(|g| !engine(&g.stage) && g.name != "replay_rate");
        // Span profiles are wall-clock through and through; the stage
        // table derived from them and the `_span_us` histograms they
        // publish into the registry follow them out.
        out.metrics
            .histograms
            .retain(|h| !engine(&h.stage) && !h.name.ends_with("_span_us"));
        out.stages.clear();
        out.profile = None;
        // Watchdog trips and restarts are wall-clock-dependent, so the
        // whole supervisor story is execution-engine content too.
        out.supervisor = None;
        out
    }

    /// The deterministic differences between two reports: counter
    /// deltas over the [normalized](RunReport::normalized) projection,
    /// plus gauge and alarm-count changes. Empty means the runs are
    /// equivalent wherever runs of the same scenario *can* be equal —
    /// the resume-exactness gate used by `repro report --check` and the
    /// kill-and-resume CI job.
    pub fn deterministic_deltas(&self, other: &RunReport) -> Vec<String> {
        let a = self.normalized();
        let b = other.normalized();
        let mut deltas = Vec::new();

        let mut keys: Vec<(String, String, Option<u32>)> = a
            .metrics
            .counters
            .iter()
            .chain(b.metrics.counters.iter())
            .map(|c| (c.stage.clone(), c.name.clone(), c.session))
            .collect();
        keys.sort();
        keys.dedup();
        let counter = |r: &RunReport, key: &(String, String, Option<u32>)| {
            r.metrics
                .counters
                .iter()
                .find(|c| c.stage == key.0 && c.name == key.1 && c.session == key.2)
                .map_or(0, |c| c.value)
        };
        for key in &keys {
            let (va, vb) = (counter(&a, key), counter(&b, key));
            if va != vb {
                let sid = key.2.map(|s| format!("[s{s}]")).unwrap_or_default();
                deltas.push(format!("counter {}.{}{sid}: {va} != {vb}", key.0, key.1));
            }
        }

        let mut gkeys: Vec<(String, String, Option<u32>)> = a
            .metrics
            .gauges
            .iter()
            .chain(b.metrics.gauges.iter())
            .map(|g| (g.stage.clone(), g.name.clone(), g.session))
            .collect();
        gkeys.sort();
        gkeys.dedup();
        let gauge = |r: &RunReport, key: &(String, String, Option<u32>)| {
            r.metrics
                .gauges
                .iter()
                .find(|g| g.stage == key.0 && g.name == key.1 && g.session == key.2)
                .map(|g| g.value)
        };
        for key in &gkeys {
            let (va, vb) = (gauge(&a, key), gauge(&b, key));
            // Bit-compare: resume-exactness promises identical floats.
            if va.map(f64::to_bits) != vb.map(f64::to_bits) {
                deltas.push(format!(
                    "gauge {}.{}: {va:?} != {vb:?}",
                    key.0, key.1
                ));
            }
        }

        if a.alarms != b.alarms {
            deltas.push(format!(
                "alarms: {} != {}",
                a.alarms.len(),
                b.alarms.len()
            ));
        }
        deltas
    }

    /// Compare two reports: per-stage wall-time deltas, counter deltas,
    /// and alarm-count change. `self` is the baseline, `other` the new
    /// run.
    pub fn diff(&self, other: &RunReport) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "report diff: '{}' -> '{}'", self.label, other.label);
        let _ = writeln!(out, "\nstage wall time (total ms):");
        let mut stages: Vec<&str> = self
            .stages
            .iter()
            .chain(other.stages.iter())
            .map(|s| s.stage.as_str())
            .collect();
        stages.sort_unstable();
        stages.dedup();
        for stage in stages {
            let a = self.stage(stage).map(|s| s.wall_ms_total);
            let b = other.stage(stage).map(|s| s.wall_ms_total);
            match (a, b) {
                (Some(a), Some(b)) => {
                    let pct = if a > 0.0 { (b - a) / a * 100.0 } else { 0.0 };
                    let _ = writeln!(
                        out,
                        "  {stage:<12} {a:>12.2} -> {b:>12.2}  ({pct:+.1}%)"
                    );
                }
                (Some(a), None) => {
                    let _ = writeln!(out, "  {stage:<12} {a:>12.2} -> (absent)");
                }
                (None, Some(b)) => {
                    let _ = writeln!(out, "  {stage:<12}  (absent)  -> {b:>12.2}");
                }
                (None, None) => {}
            }
        }
        let _ = writeln!(out, "\ncounter deltas (changed only):");
        let mut any = false;
        let lookup = |report: &RunReport, stage: &str, name: &str, session: Option<u32>| {
            report
                .metrics
                .counters
                .iter()
                .find(|c| c.stage == stage && c.name == name && c.session == session)
                .map(|c| c.value)
        };
        let mut keys: Vec<(String, String, Option<u32>)> = self
            .metrics
            .counters
            .iter()
            .chain(other.metrics.counters.iter())
            .map(|c| (c.stage.clone(), c.name.clone(), c.session))
            .collect();
        keys.sort();
        keys.dedup();
        for (stage, name, session) in keys {
            let a = lookup(self, &stage, &name, session).unwrap_or(0);
            let b = lookup(other, &stage, &name, session).unwrap_or(0);
            if a != b {
                any = true;
                let sid = session.map(|s| format!("[s{s}]")).unwrap_or_default();
                let _ = writeln!(
                    out,
                    "  {stage}.{name}{sid}: {a} -> {b} ({:+})",
                    b as i64 - a as i64
                );
            }
        }
        if !any {
            let _ = writeln!(out, "  (none)");
        }
        let _ = writeln!(
            out,
            "\nalarms: {} -> {} ({:+})",
            self.alarms.len(),
            other.alarms.len(),
            other.alarms.len() as i64 - self.alarms.len() as i64
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Level;
    use crate::metrics::{Key, Registry};
    use crate::prof::ProfileEntry;

    /// A profile entry for `path` whose `count` activations all took
    /// `total_ns / count`, `self_ns` of it outside child spans.
    fn entry(path: &str, count: u64, self_ns: u64, total_ns: u64) -> ProfileEntry {
        let leaf = path.rsplit(';').next().unwrap();
        let (stage, name) = leaf.split_once('.').unwrap();
        let each_ns = total_ns / count;
        let mut buckets = vec![0; crate::span::SPAN_LATENCY_BUCKETS];
        buckets[LOG2_US_BOUNDS.partition_point(|&b| b < each_ns as f64 / 1e3)] = count;
        ProfileEntry {
            path: path.to_string(),
            stage: stage.to_string(),
            name: name.to_string(),
            count,
            self_ns,
            total_ns,
            self_allocs: 0,
            total_allocs: 0,
            min_ns: each_ns,
            max_ns: each_ns,
            buckets,
        }
    }

    /// One 5 ms root span per required stage.
    fn full_profile() -> Profile {
        Profile {
            dropped: 0,
            entries: REQUIRED_STAGES
                .iter()
                .map(|stage| entry(&format!("{stage}.run"), 1, 5_000_000, 5_000_000))
                .collect(),
        }
    }

    fn full_registry() -> Registry {
        let r = Registry::new();
        for stage in REQUIRED_STAGES {
            r.incr(
                Key {
                    stage,
                    name: "calls",
                    session: None,
                },
                1,
            );
        }
        r
    }

    #[test]
    fn assemble_collects_stages_and_alarms() {
        let r = full_registry();
        let events = vec![
            Event::new(Level::Info, "repro", "start", "x"),
            Event::new(Level::Warn, "monitor", "alarm", "origin change")
                .with("at_s", 42.0)
                .with("prefix", "10.0.0.0/8")
                .with("kind", "origin-change")
                .with("confidence", 0.9),
            Event::new(Level::Warn, "monitor", "stale", "not an alarm"),
        ];
        let rep = RunReport::assemble("test", &r.snapshot(), &events);
        assert!(rep.stages.is_empty());
        let rep = rep.with_profile(&full_profile());
        assert_eq!(rep.stages.len(), 6);
        assert_eq!(rep.alarms.len(), 1);
        assert_eq!(rep.alarms[0].prefix, "10.0.0.0/8");
        assert_eq!(rep.alarms[0].confidence, Some(0.9));
        assert!(rep.validate().is_ok());
    }

    #[test]
    fn validate_reports_every_missing_stage() {
        let r = Registry::new();
        r.incr(Key::stage("topology", "nodes"), 10);
        let profile = Profile {
            dropped: 0,
            entries: vec![entry("topology.build", 1, 1_000_000, 1_000_000)],
        };
        let rep = RunReport::assemble("partial", &r.snapshot(), &[]).with_profile(&profile);
        let errs = rep.validate().unwrap_err();
        // Five stages missing spans, five missing metrics.
        assert_eq!(errs.len(), 10);
        assert!(errs.iter().any(|e| e.contains("'churn'")));
        assert!(!errs.iter().any(|e| e.contains("'topology'")));
    }

    #[test]
    fn stage_table_is_self_time_over_outermost_calls() {
        // Roots: detect.a (10 ms over 2 calls) and churn.replay (50 ms).
        let profile = Profile {
            dropped: 0,
            entries: vec![
                entry("churn.replay", 1, 20_000_000, 50_000_000),
                entry("churn.replay;collector.refresh", 10, 30_000_000, 30_000_000),
                entry("detect.a", 2, 3_000_000, 10_000_000),
                entry("detect.a;detect.b", 4, 7_000_000, 7_000_000),
            ],
        };
        let rep =
            RunReport::assemble("derived", &full_registry().snapshot(), &[]).with_profile(&profile);
        let stages: Vec<&str> = rep.stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(stages, ["churn", "collector", "detect"]);
        // Self times add up to the roots' total time: nothing counted
        // twice, nothing lost.
        let total: f64 = rep.stages.iter().map(|s| s.wall_ms_total).sum();
        assert!((total - 60.0).abs() < 1e-9, "stage totals sum to {total}");
        let detect = rep.stage("detect").unwrap();
        assert!((detect.wall_ms_total - 10.0).abs() < 1e-9);
        // Each outermost span counts one call; detect.b nests inside
        // detect.a and adds none.
        assert_eq!(detect.calls, 2);
        assert!((detect.wall_ms_mean - 5.0).abs() < 1e-9);
        assert!((detect.wall_ms_max - 5.0).abs() < 1e-9);
        assert!(detect.wall_ms_p95 > 0.0 && detect.wall_ms_p95 <= detect.wall_ms_max);
        // A row's mean, p95 and max all describe its outermost spans,
        // nested time included: churn.replay ran 50 ms, of which 20 ms
        // were its own.
        let churn = rep.stage("churn").unwrap();
        assert_eq!(churn.calls, 1);
        assert!((churn.wall_ms_total - 20.0).abs() < 1e-9);
        assert!((churn.wall_ms_mean - 50.0).abs() < 1e-9);
        assert!((churn.wall_ms_max - 50.0).abs() < 1e-9);
        assert!(churn.wall_ms_p95 <= churn.wall_ms_max);
        assert_eq!(rep.stage("collector").unwrap().calls, 10);
        assert!((rep.stage("collector").unwrap().wall_ms_total - 30.0).abs() < 1e-9);
    }

    #[test]
    fn validate_fails_a_profile_missing_a_required_stage() {
        let mut profile = full_profile();
        profile.entries.retain(|e| e.stage != "correlate");
        let rep = RunReport::assemble("no-correlate", &full_registry().snapshot(), &[])
            .with_profile(&profile);
        let errs = rep.validate().unwrap_err();
        assert_eq!(errs, ["stage 'correlate': no spans in the profile"]);
        // Without any profile, every required stage is missing.
        let bare = RunReport::assemble("bare", &full_registry().snapshot(), &[]);
        assert_eq!(bare.validate().unwrap_err().len(), REQUIRED_STAGES.len());
        // A stage's published span histograms are not metrics of its own.
        let r = Registry::new();
        for stage in REQUIRED_STAGES.iter().filter(|s| **s != "detect") {
            r.incr(Key::stage(stage, "calls"), 1);
        }
        full_profile().publish(&r);
        let rep =
            RunReport::assemble("spans-only", &r.snapshot(), &[]).with_profile(&full_profile());
        assert_eq!(
            rep.validate().unwrap_err(),
            ["stage 'detect': empty metric snapshot"]
        );
    }

    #[test]
    fn reports_with_wall_ms_histograms_and_sampling_still_parse() {
        // The shape written before stage tables came from the span
        // profile: `wall_ms` histograms and a `sample_every` field.
        let old = r#"{
          "version": 1,
          "label": "repro table1 --scale=small",
          "stages": [
            {"stage": "topology", "calls": 1, "wall_ms_total": 12.5,
             "wall_ms_mean": 12.5, "wall_ms_p95": 12.5, "wall_ms_max": 12.5}
          ],
          "metrics": {
            "counters": [{"stage": "churn", "name": "events", "session": null, "value": 40}],
            "gauges": [],
            "histograms": [
              {"stage": "topology", "name": "wall_ms", "session": null,
               "stats": {"count": 1, "sum": 12.5, "mean": 12.5, "min": 12.5, "p50": 12.5,
                         "p90": 12.5, "p95": 12.5, "p99": 12.5, "max": 12.5}}
            ]
          },
          "alarms": [],
          "profile": {
            "sample_every": 1,
            "dropped": 0,
            "spans": [{"path": "churn.replay", "count": 1, "self_us": 10.0,
                       "total_us": 10.0, "self_allocs": 0, "total_allocs": 0}]
          }
        }"#;
        let rep: RunReport = serde_json::from_str(old).expect("old report parses");
        assert_eq!(rep.stage("topology").unwrap().calls, 1);
        assert_eq!(rep.profile.as_ref().unwrap().spans.len(), 1);
        assert!(rep.render().contains("topology"));
    }

    #[test]
    fn report_roundtrips_and_renders() {
        let r = full_registry();
        let rep = RunReport::assemble("round", &r.snapshot(), &[]).with_profile(&full_profile());
        let json = serde_json::to_string_pretty(&rep).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rep);
        let text = rep.render();
        assert!(text.contains("stage wall time"));
        assert!(text.contains("topology"));
    }

    #[test]
    fn normalized_strips_wall_clock_and_recover_stage() {
        let r = full_registry();
        r.incr(Key::stage("recover", "saves"), 2);
        r.gauge(Key::stage("churn", "replay_rate"), 1234.5);
        r.gauge(Key::stage("topology", "ases"), 500.0);
        let rep = RunReport::assemble("x", &r.snapshot(), &[]).with_profile(&full_profile());
        let norm = rep.normalized();
        // The stage table and its profile go, as do recover metrics.
        assert!(norm.stages.is_empty());
        assert!(norm.profile.is_none());
        assert!(!norm.metrics.counters.iter().any(|c| c.stage == "recover"));
        assert!(!norm.metrics.gauges.iter().any(|g| g.name == "replay_rate"));
        assert!(norm.metrics.gauges.iter().any(|g| g.name == "ases"));
    }

    #[test]
    fn deterministic_deltas_ignore_wall_clock_but_catch_counters() {
        // Two runs differing only in wall time and recover activity
        // are deterministically equal.
        let r1 = full_registry();
        r1.gauge(Key::stage("churn", "replay_rate"), 100.0);
        let a = RunReport::assemble("full", &r1.snapshot(), &[]).with_profile(&full_profile());
        let r2 = full_registry();
        r2.incr(Key::stage("recover", "saves"), 3);
        r2.incr(Key::stage("recover", "resumes"), 1);
        r2.gauge(Key::stage("churn", "replay_rate"), 6400.0);
        let mut slow = full_profile();
        slow.entries[1] = entry("churn.run", 1, 900_000_000, 900_000_000);
        let b = RunReport::assemble("resumed", &r2.snapshot(), &[]).with_profile(&slow);
        assert_eq!(a.deterministic_deltas(&b), Vec::<String>::new());

        // A real pipeline-counter divergence is caught.
        r2.incr(Key::stage("collector", "records"), 1);
        let b = RunReport::assemble("diverged", &r2.snapshot(), &[]);
        let deltas = a.deterministic_deltas(&b);
        assert_eq!(deltas.len(), 1);
        assert!(deltas[0].contains("collector.records"));

        // So is an alarm-timeline divergence.
        let ev = Event::new(Level::Warn, "monitor", "alarm", "x")
            .with("at_s", 1.0)
            .with("prefix", "10.0.0.0/8")
            .with("kind", "origin-change");
        let c = RunReport::assemble("alarmed", &r1.snapshot(), &[ev]);
        assert!(a
            .deterministic_deltas(&c)
            .iter()
            .any(|d| d.contains("alarms")));
    }

    fn supervised_registry() -> Registry {
        let r = Registry::new();
        r.incr(Key::stage("supervisor", "cells"), 8);
        r.incr(Key::stage("supervisor", "completed"), 7);
        r.incr(Key::stage("supervisor", "quarantined"), 1);
        r.incr(Key::stage("supervisor", "restarts"), 5);
        r.incr(Key::stage("supervisor", "watchdog_trips"), 2);
        r.incr(Key::stage("supervisor", "panics"), 3);
        r.incr(Key::stage("supervisor", "stalls"), 2);
        r.incr(Key::stage("supervisor", "shed"), 1);
        r.gauge(Key::stage("supervisor", "degraded"), 2.0);
        r
    }

    #[test]
    fn supervisor_section_assembles_validates_and_renders() {
        let rep = RunReport::assemble("fleet", &supervised_registry().snapshot(), &[]);
        let sup = rep.supervisor.as_ref().expect("supervisor metrics present");
        assert_eq!(sup.cells, 8);
        assert_eq!(sup.completed, 7);
        assert_eq!(sup.quarantined, 1);
        assert_eq!(sup.restarts, 5);
        assert_eq!(sup.degraded, 2);
        // Fleet reports skip the six-stage rule but check consistency,
        // and say so.
        assert!(rep.validate().is_ok());
        assert_eq!(
            rep.validated_line(),
            "validation: ok (supervisor accounting: 8 cells = 7 completed + 1 quarantined, \
             2 degraded; stage table not checked)"
        );
        assert!(rep.render().contains("supervisor: 8 cells"));
        // Inconsistent accounting fails validation.
        let mut bad = rep.clone();
        bad.supervisor.as_mut().unwrap().completed = 3;
        let errs = bad.validate().unwrap_err();
        assert!(errs.iter().any(|e| e.contains("!= cells")));
        // Infrastructure failures count as quarantine.
        let r = supervised_registry();
        r.incr(Key::stage("supervisor", "cells"), 1);
        r.incr(Key::stage("supervisor", "failed"), 1);
        let rep = RunReport::assemble("fleet2", &r.snapshot(), &[]);
        assert_eq!(rep.supervisor.as_ref().unwrap().quarantined, 2);
        assert!(rep.validate().is_ok());
    }

    #[test]
    fn supervisor_section_is_optional_and_normalized_away() {
        // Batch reports (no supervisor metrics) have no section, and
        // pre-section JSON still deserializes.
        let batch = RunReport::assemble("batch", &full_registry().snapshot(), &[]);
        assert!(batch.supervisor.is_none());
        let profiled = batch.clone().with_profile(&full_profile());
        assert!(profiled.validate().is_ok());
        assert_eq!(
            profiled.validated_line(),
            "validation: ok (6 required stages profiled)"
        );
        let json = serde_json::to_string(&batch).unwrap();
        assert!(!json.contains("supervisor"));
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, batch);
        // normalized() strips the section and the stage metrics, so a
        // supervised run --checks clean against its batch twin.
        let r = supervised_registry();
        for stage in REQUIRED_STAGES {
            r.incr(
                Key {
                    stage,
                    name: "calls",
                    session: None,
                },
                1,
            );
        }
        let fleet = RunReport::assemble("fleet", &r.snapshot(), &[]);
        let norm = fleet.normalized();
        assert!(norm.supervisor.is_none());
        assert!(!norm.metrics.counters.iter().any(|c| c.stage == "supervisor"));
        assert!(!norm.metrics.gauges.iter().any(|g| g.stage == "supervisor"));
        assert_eq!(batch.deterministic_deltas(&fleet), Vec::<String>::new());
    }

    fn sample_profile() -> Profile {
        let mut profile = full_profile();
        profile
            .entries
            .push(entry("churn.run;churn.apply", 10, 5_000_000, 9_000_000));
        profile
    }

    #[test]
    fn profile_section_is_optional_validated_and_normalized_away() {
        let batch = RunReport::assemble("batch", &full_registry().snapshot(), &[]);
        assert!(batch.profile.is_none());
        let profiled = batch.clone().with_profile(&sample_profile());
        let section = profiled.profile.as_ref().expect("profile attached");
        assert_eq!(section.spans.len(), 7);
        assert!((section.spans[6].self_us - 5_000.0).abs() < 1e-9);
        assert!(profiled.validate().is_ok());
        // Renders a span table and survives a JSON round trip.
        assert!(profiled.render().contains("span profile: 7 paths"));
        let json = serde_json::to_string(&profiled).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, profiled);
        // Old-schema files (no profile key) still parse, and a
        // profiled report normalizes to its unprofiled twin — the
        // `report --check` tolerance the satellite asks for.
        let old_json = serde_json::to_string(&batch).unwrap();
        assert!(!old_json.contains("\"profile\""));
        let old: RunReport = serde_json::from_str(&old_json).unwrap();
        assert!(old.profile.is_none());
        assert_eq!(profiled.normalized().profile, None);
        assert_eq!(old.deterministic_deltas(&profiled), Vec::<String>::new());
        // An empty capture attaches nothing.
        assert!(batch
            .clone()
            .with_profile(&Profile::default())
            .profile
            .is_none());
        // Published `_span_us` histograms normalize away with the
        // section.
        let r = full_registry();
        sample_profile().publish(&r);
        let rep = RunReport::assemble("spanhist", &r.snapshot(), &[]);
        assert!(rep
            .metrics
            .histograms
            .iter()
            .any(|h| h.name.ends_with("_span_us")));
        assert!(!rep
            .normalized()
            .metrics
            .histograms
            .iter()
            .any(|h| h.name.ends_with("_span_us")));
        // Degenerate sections fail validation.
        let mut bad = profiled.clone();
        bad.profile.as_mut().unwrap().spans[0].count = 0;
        assert!(bad
            .validate()
            .unwrap_err()
            .iter()
            .any(|e| e.contains("zero activations")));
        let mut bad = profiled;
        bad.profile.as_mut().unwrap().spans[0].self_us = 1e12;
        assert!(bad
            .validate()
            .unwrap_err()
            .iter()
            .any(|e| e.contains("self time exceeds total")));
    }

    #[test]
    fn diff_surfaces_counter_and_time_changes() {
        let a = RunReport::assemble("a", &full_registry().snapshot(), &[])
            .with_profile(&full_profile());
        let r2 = full_registry();
        r2.incr(Key::stage("collector", "reconnects"), 3);
        let mut slow = full_profile();
        slow.entries[1] = entry("churn.run", 1, 100_000_000, 100_000_000);
        let b = RunReport::assemble("b", &r2.snapshot(), &[]).with_profile(&slow);
        let d = a.diff(&b);
        assert!(d.contains("collector.reconnects: 0 -> 3 (+3)"));
        assert!(d.contains("5.00 ->       100.00  (+1900.0%)"));
        assert!(d.contains("alarms: 0 -> 0"));
    }
}
