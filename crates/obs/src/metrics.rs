//! The metrics registry: counters, gauges, and fixed-bucket histograms
//! keyed by `(stage, name, session)`.
//!
//! The registry is the always-on half of the observability layer (the
//! subscriber is the pluggable half): instrumented code records into
//! the *current* registry — a thread-local override installed by
//! [`crate::with_metrics`], or the process-wide default — and a
//! [`Registry::snapshot`] at the end of a run yields a deterministic,
//! serializable [`Snapshot`] (BTreeMap-ordered, so identical runs
//! produce byte-identical snapshots).
//!
//! Histograms use fixed bucket bounds, so p50/p95/p99 are bucket-upper-
//! bound estimates (clamped to the exact observed min/max); `max` and
//! `sum`/`mean` are exact.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

/// Intern a runtime string, yielding a `&'static str` for use in a
/// [`Key`]. Each distinct string is leaked exactly once and reused on
/// every later call — needed when metric names come back from a
/// serialized form (e.g. a checkpoint) rather than source literals.
pub fn intern(s: &str) -> &'static str {
    static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut set = INTERNED.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(&existing) = set.get(s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    set.insert(leaked);
    leaked
}

/// A metric key: the stage that owns the metric, the metric name, and
/// an optional session dimension for per-feed breakdowns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Owning pipeline stage (see [`crate::report::REQUIRED_STAGES`]).
    pub stage: &'static str,
    /// Metric name within the stage.
    pub name: &'static str,
    /// Optional per-session dimension.
    pub session: Option<u32>,
}

impl Key {
    /// A stage-level key (no session dimension).
    pub fn stage(stage: &'static str, name: &'static str) -> Key {
        Key {
            stage,
            name,
            session: None,
        }
    }

    /// A session-keyed variant of the metric.
    pub fn session(stage: &'static str, name: &'static str, session: u32) -> Key {
        Key {
            stage,
            name,
            session: Some(session),
        }
    }
}

/// Default histogram bucket upper bounds: a 1–2–5 decade ladder from
/// 1 ms-scale to 1e6, suiting both millisecond wall times and counts.
pub const DEFAULT_BOUNDS: [f64; 28] = [
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0,
    100.0, 200.0, 500.0, 1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5, 1e6,
];

/// Bucket bounds for correlation-style scores in `[-1, 1]`.
pub const SCORE_BOUNDS: [f64; 12] = [
    -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0,
];

/// Log₂ bucket upper bounds in microseconds (1 µs … ~0.5 s) used by the
/// span profiler's latency histograms. The implicit overflow bucket
/// catches anything slower than half a second.
pub const LOG2_US_BOUNDS: [f64; 20] = [
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0,
    8192.0, 16384.0, 32768.0, 65536.0, 131072.0, 262144.0, 524288.0,
];

/// A fixed-bucket histogram with exact count/sum/min/max.
#[derive(Clone, Debug)]
pub struct Histogram {
    /// Ascending bucket upper bounds; an implicit overflow bucket
    /// catches values above the last bound.
    bounds: Vec<f64>,
    /// Per-bucket counts, length `bounds.len() + 1`.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// An empty histogram over `bounds` (must be finite and strictly
    /// ascending).
    ///
    /// # Panics
    /// Panics if `bounds` is empty, non-finite, or not strictly
    /// ascending.
    pub fn new(bounds: &[f64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one sample. NaN samples are ignored (a degenerate
    /// correlation or a zero-duration rate must not poison the run
    /// report).
    pub fn record(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact maximum (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact minimum (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// The q-quantile (`0 ≤ q ≤ 1`) estimated from bucket bounds by
    /// nearest rank: the upper bound of the bucket containing the
    /// target rank, clamped to the exact observed `[min, max]`.
    /// `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank: the smallest rank r with r ≥ q·count, at least 1.
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                let est = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                };
                return Some(est.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Summarize into a serializable [`HistogramStats`].
    pub fn stats(&self) -> HistogramStats {
        let empty = self.count == 0;
        HistogramStats {
            count: self.count,
            sum: if empty { 0.0 } else { self.sum },
            mean: if empty { 0.0 } else { self.sum / self.count as f64 },
            min: self.min().unwrap_or(0.0),
            p50: self.quantile(0.50).unwrap_or(0.0),
            p90: self.quantile(0.90).unwrap_or(0.0),
            p95: self.quantile(0.95).unwrap_or(0.0),
            p99: self.quantile(0.99).unwrap_or(0.0),
            max: self.max().unwrap_or(0.0),
        }
    }

    /// Merge pre-aggregated bucket counts into this histogram. Used by
    /// the span profiler, which accumulates per-node log₂ buckets in
    /// thread-local scratch and folds them into the registry once at
    /// publish time. A `counts` slice whose length is not
    /// `bounds.len() + 1` of *this* histogram is ignored (defensive:
    /// never poison live metrics over a shape mismatch).
    pub fn merge_parts(&mut self, counts: &[u64], count: u64, sum: f64, min: f64, max: f64) {
        if counts.len() != self.counts.len() || count == 0 {
            return;
        }
        for (slot, &c) in self.counts.iter_mut().zip(counts) {
            *slot += c;
        }
        self.count += count;
        self.sum += sum;
        self.min = self.min.min(min);
        self.max = self.max.max(max);
    }
}

/// Serializable summary of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramStats {
    /// Number of samples.
    pub count: u64,
    /// Exact sum.
    pub sum: f64,
    /// Exact mean (0 when empty).
    pub mean: f64,
    /// Exact minimum (0 when empty).
    pub min: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 90th percentile (0 on reports written before the
    /// field existed; `#[serde(default)]` keeps old schemas parseable).
    #[serde(default)]
    pub p90: f64,
    /// Estimated 95th percentile.
    pub p95: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
    /// Exact maximum (0 when empty).
    pub max: f64,
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, f64>,
    histograms: BTreeMap<Key, Histogram>,
}

/// A thread-safe metrics registry.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Metrics must never take the pipeline down: recover the data
        // under a poisoned lock rather than propagating the panic.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Add `by` to the counter at `key`.
    pub fn incr(&self, key: Key, by: u64) {
        *self.lock().counters.entry(key).or_insert(0) += by;
    }

    /// Set the counter at `key` to an absolute value. Only for restore
    /// paths (checkpoint resume) — live instrumentation must use
    /// [`Registry::incr`] so concurrent increments are never lost.
    pub fn set_counter(&self, key: Key, value: u64) {
        self.lock().counters.insert(key, value);
    }

    /// Set the gauge at `key` to `value` (last write wins).
    pub fn gauge(&self, key: Key, value: f64) {
        self.lock().gauges.insert(key, value);
    }

    /// Record `value` into the histogram at `key`, creating it with
    /// [`DEFAULT_BOUNDS`] on first use.
    pub fn observe(&self, key: Key, value: f64) {
        self.observe_bounded(key, value, &DEFAULT_BOUNDS);
    }

    /// Record `value` into the histogram at `key`, creating it with
    /// `bounds` on first use (later calls reuse the existing buckets).
    pub fn observe_bounded(&self, key: Key, value: f64, bounds: &[f64]) {
        self.lock()
            .histograms
            .entry(key)
            .or_insert_with(|| Histogram::new(bounds))
            .record(value);
    }

    /// Merge pre-aggregated bucket counts into the histogram at `key`,
    /// creating it with `bounds` on first use. See
    /// [`Histogram::merge_parts`] for the mismatch semantics.
    #[allow(clippy::too_many_arguments)]
    pub fn merge_histogram(
        &self,
        key: Key,
        bounds: &[f64],
        counts: &[u64],
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
    ) {
        self.lock()
            .histograms
            .entry(key)
            .or_insert_with(|| Histogram::new(bounds))
            .merge_parts(counts, count, sum, min, max);
    }

    /// Render every metric in Prometheus text exposition format 0.0.4
    /// into `out`. Metric names are `quicksand_<stage>_<name>`
    /// (sanitized), counters get the `_total` suffix, histograms emit
    /// cumulative `_bucket{le=...}` series plus `_sum`/`_count`, and a
    /// session-keyed metric gains a `session` label. `extra_labels`
    /// (e.g. `cell="3"`) are prepended to every series, letting one
    /// scrape page carry the supervisor registry next to per-cell
    /// registries.
    pub fn render_prometheus(&self, out: &mut String, extra_labels: &[(&str, &str)]) {
        use std::fmt::Write;
        let inner = self.lock();
        let labels = |session: Option<u32>| -> String {
            let mut parts: Vec<String> = extra_labels
                .iter()
                .map(|(k, v)| format!("{}=\"{}\"", k, escape_label_value(v)))
                .collect();
            if let Some(s) = session {
                parts.push(format!("session=\"{s}\""));
            }
            if parts.is_empty() {
                String::new()
            } else {
                format!("{{{}}}", parts.join(","))
            }
        };
        for (k, v) in &inner.counters {
            let _ = writeln!(
                out,
                "quicksand_{}_{}_total{} {}",
                sanitize_metric_name(k.stage),
                sanitize_metric_name(k.name),
                labels(k.session),
                v
            );
        }
        for (k, v) in &inner.gauges {
            let _ = writeln!(
                out,
                "quicksand_{}_{}{} {}",
                sanitize_metric_name(k.stage),
                sanitize_metric_name(k.name),
                labels(k.session),
                render_f64(*v)
            );
        }
        for (k, h) in &inner.histograms {
            let name = format!(
                "quicksand_{}_{}",
                sanitize_metric_name(k.stage),
                sanitize_metric_name(k.name)
            );
            let base = labels(k.session);
            // `labels()` already wrapped the set in braces (or gave an
            // empty string); splice `le` into the same brace group.
            let with_le = |le: &str| -> String {
                if base.is_empty() {
                    format!("{{le=\"{le}\"}}")
                } else {
                    format!("{},le=\"{}\"}}", &base[..base.len() - 1], le)
                }
            };
            let mut cum = 0u64;
            for (i, c) in h.counts.iter().enumerate() {
                cum += c;
                let le = if i < h.bounds.len() {
                    render_f64(h.bounds[i])
                } else {
                    "+Inf".to_string()
                };
                let _ = writeln!(out, "{}_bucket{} {}", name, with_le(&le), cum);
            }
            let _ = writeln!(out, "{}_sum{} {}", name, base, render_f64(h.sum));
            let _ = writeln!(out, "{}_count{} {}", name, base, h.count);
        }
    }

    /// Read a counter (0 when never incremented).
    pub fn counter_value(&self, key: Key) -> u64 {
        self.lock().counters.get(&key).copied().unwrap_or(0)
    }

    /// Read a gauge.
    pub fn gauge_value(&self, key: Key) -> Option<f64> {
        self.lock().gauges.get(&key).copied()
    }

    /// Sum a counter across all session-keyed variants (the stage-level
    /// entry, if present, is *not* included).
    pub fn counter_sessions_total(&self, stage: &str, name: &str) -> u64 {
        self.lock()
            .counters
            .iter()
            .filter(|(k, _)| k.stage == stage && k.name == name && k.session.is_some())
            .map(|(_, v)| *v)
            .sum()
    }

    /// Snapshot every metric into a deterministic, serializable form.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, &v)| CounterEntry {
                    stage: k.stage.to_string(),
                    name: k.name.to_string(),
                    session: k.session,
                    value: v,
                })
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, &v)| GaugeEntry {
                    stage: k.stage.to_string(),
                    name: k.name.to_string(),
                    session: k.session,
                    value: if v.is_finite() { v } else { 0.0 },
                })
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| HistogramEntry {
                    stage: k.stage.to_string(),
                    name: k.name.to_string(),
                    session: k.session,
                    stats: h.stats(),
                })
                .collect(),
        }
    }

    /// Drop every recorded metric (tests and repeated runs).
    pub fn reset(&self) {
        let mut inner = self.lock();
        inner.counters.clear();
        inner.gauges.clear();
        inner.histograms.clear();
    }
}

/// Replace every character outside `[a-zA-Z0-9_]` with `_` so stage
/// and metric names are always valid Prometheus metric-name segments.
fn sanitize_metric_name(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' })
        .collect()
}

/// Escape a label value per the exposition format (backslash, quote,
/// newline).
fn escape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Render an f64 the way Prometheus expects: finite values plainly,
/// non-finite as 0 (our gauges never legitimately hold them — the
/// snapshot path makes the same substitution).
fn render_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// One counter in a [`Snapshot`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CounterEntry {
    /// Owning stage.
    pub stage: String,
    /// Metric name.
    pub name: String,
    /// Session dimension, when keyed per session.
    pub session: Option<u32>,
    /// The count.
    pub value: u64,
}

/// One gauge in a [`Snapshot`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GaugeEntry {
    /// Owning stage.
    pub stage: String,
    /// Metric name.
    pub name: String,
    /// Session dimension, when keyed per session.
    pub session: Option<u32>,
    /// The last value set.
    pub value: f64,
}

/// One histogram in a [`Snapshot`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramEntry {
    /// Owning stage.
    pub stage: String,
    /// Metric name.
    pub name: String,
    /// Session dimension, when keyed per session.
    pub session: Option<u32>,
    /// Summary statistics.
    pub stats: HistogramStats,
}

/// A point-in-time, deterministic dump of a [`Registry`].
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// All counters, ordered by `(stage, name, session)`.
    pub counters: Vec<CounterEntry>,
    /// All gauges, same order.
    pub gauges: Vec<GaugeEntry>,
    /// All histograms, same order.
    pub histograms: Vec<HistogramEntry>,
}

impl Snapshot {
    /// True when no metric of any kind was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// All stages that appear anywhere in the snapshot.
    pub fn stages(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self
            .counters
            .iter()
            .map(|e| e.stage.as_str())
            .chain(self.gauges.iter().map(|e| e.stage.as_str()))
            .chain(self.histograms.iter().map(|e| e.stage.as_str()))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_assignment_is_half_open_on_the_left() {
        let mut h = Histogram::new(&[1.0, 2.0, 5.0]);
        // A value equal to a bound lands in that bound's bucket
        // (bounds are inclusive upper bounds).
        for v in [0.5, 1.0, 1.5, 2.0, 4.9, 5.0, 7.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        // Buckets: ≤1 → {0.5, 1.0}; ≤2 → {1.5, 2.0}; ≤5 → {4.9, 5.0};
        // overflow → {7.0}.
        assert_eq!(h.counts, vec![2, 2, 2, 1]);
        assert_eq!(h.max(), Some(7.0));
        assert_eq!(h.min(), Some(0.5));
        assert!((h.sum() - 21.9).abs() < 1e-12);
    }

    #[test]
    fn quantiles_estimate_from_bucket_bounds() {
        let mut h = Histogram::new(&[10.0, 20.0, 50.0, 100.0]);
        for _ in 0..90 {
            h.record(5.0);
        }
        for _ in 0..9 {
            h.record(15.0);
        }
        h.record(80.0);
        // p50 falls in the first bucket: upper bound 10, clamped fine.
        assert_eq!(h.quantile(0.5), Some(10.0));
        // p95 falls in the second bucket (ranks 91..=99).
        assert_eq!(h.quantile(0.95), Some(20.0));
        // p99 is rank 99, still second bucket; p100 is the exact max.
        assert_eq!(h.quantile(0.99), Some(20.0));
        assert_eq!(h.quantile(1.0), Some(80.0));
        // Quantiles never exceed the observed extremes.
        let mut tiny = Histogram::new(&[1000.0]);
        tiny.record(3.0);
        assert_eq!(tiny.quantile(0.5), Some(3.0));
    }

    #[test]
    fn quantile_edge_cases() {
        let h = Histogram::new(&[1.0]);
        assert_eq!(h.quantile(0.5), None);
        let mut h = Histogram::new(&[1.0, 2.0]);
        h.record(1.5);
        // Every quantile of a single sample is that sample (clamped).
        assert_eq!(h.quantile(0.0), Some(1.5));
        assert_eq!(h.quantile(1.0), Some(1.5));
        // NaN is dropped, infinities are kept exact in min/max.
        h.record(f64::NAN);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn stats_of_empty_histogram_are_zeroed() {
        let h = Histogram::new(&[1.0]);
        let s = h.stats();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.max, 0.0);
        // Serializes without non-finite values.
        assert!(serde_json::to_string(&s).is_ok());
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_bounds_rejected() {
        let _ = Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn registry_snapshot_is_deterministic() {
        let make = || {
            let r = Registry::new();
            // Insert in scrambled order; snapshot must not care.
            r.incr(Key::session("collector", "reconnects", 3), 2);
            r.incr(Key::stage("churn", "events"), 10);
            r.incr(Key::session("collector", "reconnects", 1), 1);
            r.gauge(Key::stage("churn", "replay_rate"), 123.5);
            r.observe(Key::stage("monitor", "alarm_latency_s"), 90.0);
            r.observe(Key::stage("monitor", "alarm_latency_s"), 30.0);
            r.snapshot()
        };
        let a = make();
        let b = make();
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        // Ordering is by (stage, name, session).
        assert_eq!(a.counters[0].stage, "churn");
        assert_eq!(a.counters[1].session, Some(1));
        assert_eq!(a.counters[2].session, Some(3));
    }

    #[test]
    fn counter_session_totals() {
        let r = Registry::new();
        r.incr(Key::session("collector", "reconnects", 0), 1);
        r.incr(Key::session("collector", "reconnects", 4), 3);
        r.incr(Key::stage("collector", "reconnects"), 100);
        assert_eq!(r.counter_sessions_total("collector", "reconnects"), 4);
        assert_eq!(
            r.counter_value(Key::stage("collector", "reconnects")),
            100
        );
    }

    #[test]
    fn merge_histogram_accumulates_and_rejects_shape_mismatch() {
        let r = Registry::new();
        let key = Key::stage("churn", "apply_span_us");
        // Two profiler publishes fold into one histogram.
        r.merge_histogram(key, &LOG2_US_BOUNDS, &[1; 21], 21, 210.0, 1.0, 600000.0);
        r.merge_histogram(key, &LOG2_US_BOUNDS, &[1; 21], 21, 210.0, 0.5, 9.0);
        // Wrong bucket count: silently ignored.
        r.merge_histogram(key, &LOG2_US_BOUNDS, &[5; 3], 15, 1.0, 1.0, 1.0);
        let snap = r.snapshot();
        assert_eq!(snap.histograms.len(), 1);
        let stats = &snap.histograms[0].stats;
        assert_eq!(stats.count, 42);
        assert_eq!(stats.min, 0.5);
        assert_eq!(stats.max, 600000.0);
        assert!(stats.p50 > 0.0 && stats.p90 >= stats.p50 && stats.p99 >= stats.p90);
    }

    #[test]
    fn prometheus_rendering_has_all_series_kinds() {
        let r = Registry::new();
        r.incr(Key::stage("churn", "events"), 42);
        r.incr(Key::session("collector", "reconnects", 3), 2);
        r.gauge(Key::stage("churn", "replay_rate"), 982.5);
        r.observe_bounded(Key::stage("monitor", "alarm_latency_s"), 30.0, &[10.0, 60.0]);
        let mut out = String::new();
        r.render_prometheus(&mut out, &[("cell", "0"), ("label", "cell-\"x\"")]);
        assert!(out.contains(
            "quicksand_churn_events_total{cell=\"0\",label=\"cell-\\\"x\\\"\"} 42"
        ));
        assert!(out.contains(
            "quicksand_collector_reconnects_total{cell=\"0\",label=\"cell-\\\"x\\\"\",session=\"3\"} 2"
        ));
        assert!(out.contains("quicksand_churn_replay_rate{cell=\"0\""));
        assert!(out.contains("le=\"10\"} 0"));
        assert!(out.contains("le=\"60\"} 1"));
        assert!(out.contains("le=\"+Inf\"} 1"));
        assert!(out.contains("quicksand_monitor_alarm_latency_s_sum"));
        assert!(out.contains("quicksand_monitor_alarm_latency_s_count"));
        // Every line is `name{labels} value` — no comments, no blanks.
        for line in out.lines() {
            assert!(line.starts_with("quicksand_"), "unexpected line: {line}");
            assert!(line.rsplit(' ').next().unwrap().parse::<f64>().is_ok());
        }
        // Without extra labels, unlabeled stage metrics have no braces.
        let mut plain = String::new();
        r.render_prometheus(&mut plain, &[]);
        assert!(plain.contains("quicksand_churn_events_total 42"));
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let r = Registry::new();
        r.incr(Key::stage("detect", "hijacks"), 7);
        r.observe_bounded(
            Key::stage("correlate", "coefficient"),
            0.97,
            &SCORE_BOUNDS,
        );
        let snap = r.snapshot();
        let json = serde_json::to_string_pretty(&snap).unwrap();
        let back: Snapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(snap.stages(), vec!["correlate", "detect"]);
    }
}
