//! The span profiler's control plane: global on/off gate, the alloc
//! probe, tree registration, and aggregation.
//!
//! The hot-path contract: when the profiler is **off**,
//! [`span()`] costs one relaxed atomic load and returns an inert guard —
//! no thread-local access, no clock read, no allocation. When **on**,
//! each span costs two monotonic clock reads, two alloc-probe reads,
//! and one short mutex hold on a preallocated [`SpanTree`]; the only
//! allocations happen on a site's *first* visit (node insert) and at
//! [`capture`] time, never per event. That is what keeps profiled
//! serial replay within 5% of the 89 allocs/event budget (enforced by
//! the `alloc_budget` tripwire test).
//!
//! # Alloc attribution
//!
//! The profiler cannot see the global allocator by itself; a binary
//! that owns a counting `#[global_allocator]` donates a probe via
//! [`set_alloc_probe`] (the `repro` binary does). Without a probe all
//! alloc deltas read 0 and only wall-time attribution is collected.
//!
//! ```
//! use quicksand_obs as obs;
//!
//! obs::prof::set_enabled(true);
//! {
//!     let _outer = obs::prof::span("churn", "replay");
//!     let _inner = obs::prof::span("churn", "apply");
//! }
//! obs::prof::set_enabled(false);
//! let profile = obs::prof::capture();
//! assert!(profile
//!     .entries
//!     .iter()
//!     .any(|e| e.path == "churn.replay;churn.apply"));
//! obs::prof::reset();
//! ```

use crate::metrics::{intern, Key, Registry, LOG2_US_BOUNDS};
use crate::span::{self, SpanGuard, SpanNodeStats, SpanTree, SPAN_LATENCY_BUCKETS};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

pub use crate::span::with_tree;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOC_PROBE: OnceLock<fn() -> u64> = OnceLock::new();
static TREES: Mutex<Vec<Arc<SpanTree>>> = Mutex::new(Vec::new());

/// Turn the profiler on or off process-wide. Off is the default and
/// costs one atomic load per [`span()`] call.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Is the profiler currently recording?
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Install the allocation-count probe (a monotonic count of heap
/// allocations, typically from a counting `#[global_allocator]`).
/// First caller wins; later calls are ignored so libraries cannot
/// steal the binary's probe.
pub fn set_alloc_probe(probe: fn() -> u64) {
    let _ = ALLOC_PROBE.set(probe);
}

pub(crate) fn alloc_count() -> u64 {
    ALLOC_PROBE.get().map_or(0, |probe| probe())
}

/// Make `tree` visible to [`capture`]. Threads' implicit default
/// trees self-register; explicitly created trees must be registered
/// once by their owner. Registering the same tree
/// twice is a no-op.
pub fn register_tree(tree: &Arc<SpanTree>) {
    let mut trees = TREES.lock().unwrap_or_else(|e| e.into_inner());
    if !trees.iter().any(|t| Arc::ptr_eq(t, tree)) {
        trees.push(tree.clone());
    }
}

fn registered_trees() -> Vec<Arc<SpanTree>> {
    TREES.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Open a span at `(stage, name)` nested under the innermost open span
/// on this thread. Returns an inert guard when the profiler is off.
///
/// Bind the guard to a named local (`let _span = ...`) — binding to
/// `_` drops it immediately and records a zero-length span.
pub fn span(stage: &'static str, name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard::disabled();
    }
    span::enter(stage, name)
}

/// Clear every registered tree's recorded data (the trees stay
/// registered and keep their allocations). Call between bench runs so
/// profiles do not bleed across measurements.
pub fn reset() {
    for tree in registered_trees() {
        tree.reset();
    }
}

/// One aggregated call path in a [`Profile`].
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileEntry {
    /// Semicolon-joined `stage.name` frames, root first (the
    /// collapsed-stack path).
    pub path: String,
    /// Leaf frame's stage.
    pub stage: String,
    /// Leaf frame's span name.
    pub name: String,
    /// Completed activations.
    pub count: u64,
    /// Wall time excluding child spans, nanoseconds.
    pub self_ns: u64,
    /// Wall time including child spans, nanoseconds.
    pub total_ns: u64,
    /// Allocations excluding child spans (0 without an alloc probe).
    pub self_allocs: u64,
    /// Allocations including child spans.
    pub total_allocs: u64,
    /// Fastest activation, nanoseconds.
    pub min_ns: u64,
    /// Slowest activation, nanoseconds.
    pub max_ns: u64,
    /// Log₂ latency buckets over total span µs (see
    /// [`LOG2_US_BOUNDS`] plus one overflow bucket).
    pub buckets: Vec<u64>,
}

/// An aggregated snapshot of every registered span tree.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Profile {
    /// Spans dropped to depth/node-table limits across all trees.
    pub dropped: u64,
    /// Aggregated call paths, sorted by path.
    pub entries: Vec<ProfileEntry>,
}

impl Profile {
    /// True when nothing was recorded anywhere.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Render as collapsed-stack text (`path weight` per line, weight
    /// = self time in µs), the input format of flamegraph tooling.
    /// Paths already use `;` as the frame separator.
    pub fn collapsed(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for e in &self.entries {
            let _ = writeln!(out, "{} {}", e.path, e.self_ns / 1_000);
        }
        out
    }

    /// Fold every entry's latency buckets into `registry` as
    /// per-`(stage, name)` histograms named `<name>_span_us` over
    /// [`LOG2_US_BOUNDS`]. Entries sharing a leaf site but reached by
    /// different paths merge into one histogram.
    pub fn publish(&self, registry: &Registry) {
        for e in &self.entries {
            if e.count == 0 {
                continue;
            }
            let key = Key::stage(intern(&e.stage), intern(&format!("{}_span_us", e.name)));
            registry.merge_histogram(
                key,
                &LOG2_US_BOUNDS,
                &e.buckets,
                e.count,
                e.total_ns as f64 / 1_000.0,
                e.min_ns as f64 / 1_000.0,
                e.max_ns as f64 / 1_000.0,
            );
        }
    }
}

/// Aggregate every registered tree into a [`Profile`]. Nodes with the
/// same call path (across threads) are merged. Cold path:
/// allocates freely.
pub fn capture() -> Profile {
    let mut merged: BTreeMap<String, ProfileEntry> = BTreeMap::new();
    let mut dropped = 0u64;
    for tree in registered_trees() {
        dropped += tree.dropped();
        let nodes = tree.nodes();
        let paths: Vec<String> = nodes
            .iter()
            .map(|n| {
                let frame = format!("{}.{}", n.stage, n.name);
                match n.parent {
                    Some(p) => format!("{};{}", path_of(&nodes, p), frame),
                    None => frame,
                }
            })
            .collect();
        for (node, path) in nodes.iter().zip(&paths) {
            if node.count == 0 {
                continue;
            }
            merge_node(&mut merged, path, node);
        }
    }
    Profile {
        dropped,
        entries: merged.into_values().collect(),
    }
}

fn path_of(nodes: &[SpanNodeStats], idx: u32) -> String {
    let n = &nodes[idx as usize];
    let frame = format!("{}.{}", n.stage, n.name);
    match n.parent {
        Some(p) => format!("{};{}", path_of(nodes, p), frame),
        None => frame,
    }
}

fn merge_node(merged: &mut BTreeMap<String, ProfileEntry>, path: &str, node: &SpanNodeStats) {
    let entry = merged.entry(path.to_string()).or_insert_with(|| ProfileEntry {
        path: path.to_string(),
        stage: node.stage.to_string(),
        name: node.name.to_string(),
        count: 0,
        self_ns: 0,
        total_ns: 0,
        self_allocs: 0,
        total_allocs: 0,
        min_ns: u64::MAX,
        max_ns: 0,
        buckets: vec![0; SPAN_LATENCY_BUCKETS],
    });
    entry.count += node.count;
    entry.self_ns += node.self_ns;
    entry.total_ns += node.total_ns;
    entry.self_allocs += node.self_allocs;
    entry.total_allocs += node.total_allocs;
    entry.min_ns = entry.min_ns.min(node.min_ns);
    entry.max_ns = entry.max_ns.max(node.max_ns);
    for (slot, b) in entry.buckets.iter_mut().zip(node.buckets.iter()) {
        *slot += b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as TestCounter;

    // The profiler is process-global state; tests that flip the gate
    // share one lock so `cargo test`'s parallelism cannot interleave
    // them.
    static GATE: Mutex<()> = Mutex::new(());

    fn with_profiler<R>(f: impl FnOnce() -> R) -> R {
        let _lock = GATE.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(true);
        let out = f();
        set_enabled(false);
        out
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _lock = GATE.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        reset();
        {
            let _a = span("churn", "replay");
            let _b = span("churn", "apply");
        }
        assert!(capture().is_empty());
    }

    #[test]
    fn nested_spans_build_paths_with_self_total_split() {
        let profile = with_profiler(|| {
            let tree = Arc::new(SpanTree::new());
            register_tree(&tree);
            with_tree(&tree, || {
                let _root = span("churn", "replay");
                for _ in 0..3 {
                    let _child = span("collector", "observe");
                    std::hint::black_box(0u64);
                }
            });
            let profile = capture();
            reset();
            profile
        });
        let root = profile
            .entries
            .iter()
            .find(|e| e.path == "churn.replay")
            .expect("root path present");
        let child = profile
            .entries
            .iter()
            .find(|e| e.path == "churn.replay;collector.observe")
            .expect("child path present");
        assert_eq!(root.count, 1);
        assert_eq!(child.count, 3);
        // Self never exceeds total, and the root's total covers its
        // children's total.
        assert!(root.self_ns <= root.total_ns);
        assert!(child.total_ns <= root.total_ns);
        // Collapsed output carries both paths with µs weights.
        let collapsed = profile.collapsed();
        assert!(collapsed.contains("churn.replay "));
        assert!(collapsed.contains("churn.replay;collector.observe "));
    }

    #[test]
    fn alloc_probe_attributes_deltas_to_the_allocating_span() {
        static FAKE_ALLOCS: TestCounter = TestCounter::new(0);
        fn probe() -> u64 {
            FAKE_ALLOCS.load(Ordering::Relaxed)
        }
        // First-wins, and no other test in this binary installs a
        // probe, so ours is the process probe from here on.
        set_alloc_probe(probe);
        let profile = with_profiler(|| {
            let tree = Arc::new(SpanTree::new());
            register_tree(&tree);
            with_tree(&tree, || {
                let _root = span("churn", "replay");
                {
                    let _child = span("churn", "apply");
                    FAKE_ALLOCS.fetch_add(7, Ordering::Relaxed);
                }
                FAKE_ALLOCS.fetch_add(2, Ordering::Relaxed);
            });
            let profile = capture();
            reset();
            profile
        });
        let root = profile
            .entries
            .iter()
            .find(|e| e.path == "churn.replay")
            .unwrap();
        let child = profile
            .entries
            .iter()
            .find(|e| e.path == "churn.replay;churn.apply")
            .unwrap();
        assert_eq!(child.self_allocs, 7);
        assert_eq!(child.total_allocs, 7);
        assert_eq!(root.self_allocs, 2);
        assert_eq!(root.total_allocs, 9);
    }

    #[test]
    fn publish_lands_log2_histograms_in_the_registry() {
        let profile = with_profiler(|| {
            let tree = Arc::new(SpanTree::new());
            register_tree(&tree);
            with_tree(&tree, || {
                let _a = span("routing", "reconverge");
            });
            let profile = capture();
            reset();
            profile
        });
        let reg = Registry::new();
        profile.publish(&reg);
        let snap = reg.snapshot();
        let hist = snap
            .histograms
            .iter()
            .find(|h| h.stage == "routing" && h.name == "reconverge_span_us")
            .expect("span histogram published");
        assert_eq!(hist.stats.count, 1);
    }
}
