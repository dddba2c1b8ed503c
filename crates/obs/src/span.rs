//! Hierarchical span trees: the data structure behind the profiler.
//!
//! A [`SpanTree`] is a call-tree of instrumentation sites. Each node is
//! one `(parent, stage, name)` site carrying monotonic self/total wall
//! time, alloc-delta attribution, and a log₂-bucketed latency
//! histogram over the span's total duration. Entering a span pushes a
//! frame onto a preallocated thread-local stack; leaving it (guard
//! drop, panic-safe) folds the measurements into the tree under a
//! short uncontended mutex hold. The per-event path never touches the
//! heap after a site's first visit — the zero-allocation replay budget
//! (DESIGN.md §11) survives profiling.
//!
//! Trees are registered with [`crate::prof`], which owns the global
//! on/off gate, sampling, the alloc probe, and aggregation into a
//! [`crate::prof::Profile`].

use crate::metrics::LOG2_US_BOUNDS;
use crate::prof;
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Maximum span nesting depth per thread. Deeper spans are counted as
/// dropped rather than recorded (the replay hot path nests 4–5 deep).
pub const MAX_SPAN_DEPTH: usize = 16;

/// Maximum distinct `(parent, stage, name)` sites per tree. New sites
/// past the cap are counted as dropped (a runaway name cardinality
/// must not grow memory without bound in a resident fleet).
pub const MAX_SPAN_NODES: usize = 512;

/// Number of latency buckets per node: one per [`LOG2_US_BOUNDS`]
/// bound plus the overflow bucket.
pub const SPAN_LATENCY_BUCKETS: usize = LOG2_US_BOUNDS.len() + 1;

const NO_NODE: u32 = u32::MAX;

struct Node {
    parent: u32,
    stage: &'static str,
    name: &'static str,
    /// Sibling chain: nodes sharing `parent` are linked so lookup
    /// scans only the (few) children of the current parent.
    next_sibling: u32,
    first_child: u32,
    count: u64,
    self_ns: u64,
    total_ns: u64,
    self_allocs: u64,
    total_allocs: u64,
    min_ns: u64,
    max_ns: u64,
    buckets: [u64; SPAN_LATENCY_BUCKETS],
}

impl Node {
    fn new(parent: u32, stage: &'static str, name: &'static str) -> Node {
        Node {
            parent,
            stage,
            name,
            next_sibling: NO_NODE,
            first_child: NO_NODE,
            count: 0,
            self_ns: 0,
            total_ns: 0,
            self_allocs: 0,
            total_allocs: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            buckets: [0; SPAN_LATENCY_BUCKETS],
        }
    }
}

struct TreeData {
    nodes: Vec<Node>,
    /// Root-level sibling chain head (nodes with no parent).
    first_root: u32,
    dropped: u64,
}

/// A read-only snapshot of one [`SpanTree`] node.
#[derive(Clone, Debug)]
pub struct SpanNodeStats {
    /// Index of the parent node within the same snapshot (`None` for
    /// root spans).
    pub parent: Option<u32>,
    /// Owning pipeline stage.
    pub stage: &'static str,
    /// Span name within the stage.
    pub name: &'static str,
    /// Completed activations.
    pub count: u64,
    /// Wall time excluding child spans, nanoseconds.
    pub self_ns: u64,
    /// Wall time including child spans, nanoseconds.
    pub total_ns: u64,
    /// Allocations attributed to this span excluding children (only
    /// nonzero when an alloc probe is installed).
    pub self_allocs: u64,
    /// Allocations including children.
    pub total_allocs: u64,
    /// Fastest activation, nanoseconds (0 when never activated).
    pub min_ns: u64,
    /// Slowest activation, nanoseconds.
    pub max_ns: u64,
    /// Log₂ latency buckets over total span microseconds, aligned with
    /// [`LOG2_US_BOUNDS`] plus one overflow bucket.
    pub buckets: [u64; SPAN_LATENCY_BUCKETS],
}

/// One thread's span call-tree.
///
/// Cheap to share (`Arc`), internally mutexed; the lock is held for a
/// handful of integer updates per span exit. Register with
/// [`prof::register_tree`] so [`prof::capture`] can see it.
pub struct SpanTree {
    inner: Mutex<TreeData>,
}

impl Default for SpanTree {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanTree {
    /// A fresh, empty tree.
    pub fn new() -> SpanTree {
        SpanTree {
            inner: Mutex::new(TreeData {
                nodes: Vec::with_capacity(32),
                first_root: NO_NODE,
                dropped: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TreeData> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Find the child of `parent` matching `(stage, name)`, inserting
    /// it on first visit. `None` when the node table is full (the
    /// caller counts the span as dropped).
    fn find_or_insert(&self, parent: u32, stage: &'static str, name: &'static str) -> Option<u32> {
        let mut data = self.lock();
        let head = if parent == NO_NODE {
            data.first_root
        } else {
            // Stale parent index after a mid-activation reset: treat
            // the span as unrecordable rather than indexing blind.
            match data.nodes.get(parent as usize) {
                Some(n) => n.first_child,
                None => {
                    data.dropped += 1;
                    return None;
                }
            }
        };
        let mut at = head;
        while at != NO_NODE {
            let n = &data.nodes[at as usize];
            // Site identity: pointer equality is the common fast case
            // for literals; content equality covers interned strings.
            if (std::ptr::eq(n.stage, stage) || n.stage == stage)
                && (std::ptr::eq(n.name, name) || n.name == name)
            {
                return Some(at);
            }
            at = n.next_sibling;
        }
        if data.nodes.len() >= MAX_SPAN_NODES {
            data.dropped += 1;
            return None;
        }
        let idx = data.nodes.len() as u32;
        let mut node = Node::new(parent, stage, name);
        node.next_sibling = head;
        data.nodes.push(node);
        if parent == NO_NODE {
            data.first_root = idx;
        } else {
            data.nodes[parent as usize].first_child = idx;
        }
        Some(idx)
    }

    fn record(&self, node: u32, total_ns: u64, self_ns: u64, allocs: u64, self_allocs: u64) {
        let mut data = self.lock();
        // A concurrent `reset` (only legal between runs, but cheap to
        // tolerate) may have invalidated the index: drop the sample.
        let Some(n) = data.nodes.get_mut(node as usize) else {
            return;
        };
        n.count += 1;
        n.total_ns += total_ns;
        n.self_ns += self_ns;
        n.total_allocs += allocs;
        n.self_allocs += self_allocs;
        n.min_ns = n.min_ns.min(total_ns);
        n.max_ns = n.max_ns.max(total_ns);
        let us = total_ns / 1_000;
        // log₂ bucket index: bucket i holds totals ≤ 2^i µs, i.e. the
        // smallest i with us ≤ 2^i (= ceil(log₂ us)), clamped into the
        // overflow bucket.
        let idx = if us <= 1 {
            0
        } else {
            (64 - ((us - 1).leading_zeros() as usize)).min(SPAN_LATENCY_BUCKETS - 1)
        };
        n.buckets[idx] += 1;
    }

    fn note_dropped(&self) {
        self.lock().dropped += 1;
    }

    /// Snapshot every node (parent indices refer into the returned
    /// vector, which preserves insertion order).
    pub fn nodes(&self) -> Vec<SpanNodeStats> {
        self.lock()
            .nodes
            .iter()
            .map(|n| SpanNodeStats {
                parent: (n.parent != NO_NODE).then_some(n.parent),
                stage: n.stage,
                name: n.name,
                count: n.count,
                self_ns: n.self_ns,
                total_ns: n.total_ns,
                self_allocs: n.self_allocs,
                total_allocs: n.total_allocs,
                min_ns: if n.count == 0 { 0 } else { n.min_ns },
                max_ns: n.max_ns,
                buckets: n.buckets,
            })
            .collect()
    }

    /// Spans not recorded because of depth or node-table limits.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// True when no span has ever been recorded into this tree.
    pub fn is_empty(&self) -> bool {
        let data = self.lock();
        data.nodes.iter().all(|n| n.count == 0) && data.dropped == 0
    }

    /// Clear all recorded data, keeping the allocation.
    pub fn reset(&self) {
        let mut data = self.lock();
        data.nodes.clear();
        data.first_root = NO_NODE;
        data.dropped = 0;
    }
}

struct Frame {
    tree: Arc<SpanTree>,
    node: u32,
    start: Instant,
    allocs0: u64,
    child_ns: u64,
    child_allocs: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static TREE: RefCell<Option<Arc<SpanTree>>> = const { RefCell::new(None) };
    /// Non-zero while an unsampled top-level activation is in flight:
    /// nested spans must stay inert without consulting the stack.
    static SKIP: Cell<u32> = const { Cell::new(0) };
    static SAMPLE_TICK: Cell<u64> = const { Cell::new(0) };
}

enum GuardKind {
    /// Profiler off (or construction raced a disable): nothing to undo.
    Disabled,
    /// Depth/node-table overflow: already counted as dropped.
    Inert,
    /// Unsampled activation: decrement the skip depth on drop.
    Skipped,
    /// A live frame was pushed: pop and record on drop.
    Recorded,
}

/// RAII guard returned by [`prof::span`]; records the span when
/// dropped. Must stay on the thread that opened it (it is `!Send`).
pub struct SpanGuard {
    kind: GuardKind,
    /// Span guards close in LIFO order on their opening thread.
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    pub(crate) fn disabled() -> SpanGuard {
        SpanGuard {
            kind: GuardKind::Disabled,
            _not_send: PhantomData,
        }
    }
}

fn current_tree() -> Arc<SpanTree> {
    TREE.with(|t| {
        let mut slot = t.borrow_mut();
        match &*slot {
            Some(tree) => tree.clone(),
            None => {
                let tree = Arc::new(SpanTree::new());
                prof::register_tree(&tree);
                *slot = Some(tree.clone());
                tree
            }
        }
    })
}

/// Run `f` with `tree` as this thread's span destination (restored on
/// exit, including on panic). A caller that keeps one pre-registered
/// tree and reuses it across short-lived threads never grows the
/// global tree list.
pub fn with_tree<R>(tree: &Arc<SpanTree>, f: impl FnOnce() -> R) -> R {
    let prev = TREE.with(|t| t.borrow_mut().replace(tree.clone()));
    struct Restore(Option<Arc<SpanTree>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            TREE.with(|t| *t.borrow_mut() = prev);
        }
    }
    let _guard = Restore(prev);
    f()
}

pub(crate) fn enter(stage: &'static str, name: &'static str) -> SpanGuard {
    if SKIP.with(|s| {
        let depth = s.get();
        if depth > 0 {
            s.set(depth + 1);
            true
        } else {
            false
        }
    }) {
        return SpanGuard {
            kind: GuardKind::Skipped,
            _not_send: PhantomData,
        };
    }
    let depth = STACK.with(|s| s.borrow().len());
    if depth == 0 {
        let every = prof::sample_every();
        if every > 1 {
            let sampled = SAMPLE_TICK.with(|t| {
                let tick = t.get();
                t.set(tick.wrapping_add(1));
                tick % every == 0
            });
            if !sampled {
                SKIP.with(|s| s.set(1));
                return SpanGuard {
                    kind: GuardKind::Skipped,
                    _not_send: PhantomData,
                };
            }
        }
    }
    let tree = current_tree();
    if depth >= MAX_SPAN_DEPTH {
        tree.note_dropped();
        return SpanGuard {
            kind: GuardKind::Inert,
            _not_send: PhantomData,
        };
    }
    let parent = STACK.with(|s| {
        s.borrow()
            .last()
            .filter(|f| Arc::ptr_eq(&f.tree, &tree))
            .map_or(NO_NODE, |f| f.node)
    });
    let Some(node) = tree.find_or_insert(parent, stage, name) else {
        return SpanGuard {
            kind: GuardKind::Inert,
            _not_send: PhantomData,
        };
    };
    let allocs0 = prof::alloc_count();
    STACK.with(|s| {
        s.borrow_mut().push(Frame {
            tree,
            node,
            start: Instant::now(),
            allocs0,
            child_ns: 0,
            child_allocs: 0,
        })
    });
    SpanGuard {
        kind: GuardKind::Recorded,
        _not_send: PhantomData,
    }
}

fn exit() {
    let Some(frame) = STACK.with(|s| s.borrow_mut().pop()) else {
        return;
    };
    let total_ns = frame.start.elapsed().as_nanos() as u64;
    let allocs = prof::alloc_count().saturating_sub(frame.allocs0);
    let self_ns = total_ns.saturating_sub(frame.child_ns);
    let self_allocs = allocs.saturating_sub(frame.child_allocs);
    frame
        .tree
        .record(frame.node, total_ns, self_ns, allocs, self_allocs);
    STACK.with(|s| {
        if let Some(parent) = s.borrow_mut().last_mut() {
            parent.child_ns += total_ns;
            parent.child_allocs += allocs;
        }
    });
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        match self.kind {
            GuardKind::Disabled | GuardKind::Inert => {}
            GuardKind::Skipped => SKIP.with(|s| s.set(s.get().saturating_sub(1))),
            GuardKind::Recorded => exit(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw_tree_record(tree: &SpanTree, path: &[(&'static str, &'static str)], total_ns: u64) {
        let mut parent = NO_NODE;
        for (stage, name) in path {
            parent = tree.find_or_insert(parent, stage, name).unwrap();
        }
        tree.record(parent, total_ns, total_ns, 0, 0);
    }

    #[test]
    fn sibling_chain_lookup_finds_existing_sites() {
        let tree = SpanTree::new();
        let a = tree.find_or_insert(NO_NODE, "churn", "replay").unwrap();
        let b = tree.find_or_insert(a, "churn", "apply").unwrap();
        let c = tree.find_or_insert(a, "collector", "observe").unwrap();
        assert_ne!(b, c);
        assert_eq!(tree.find_or_insert(NO_NODE, "churn", "replay"), Some(a));
        assert_eq!(tree.find_or_insert(a, "churn", "apply"), Some(b));
        assert_eq!(tree.find_or_insert(a, "collector", "observe"), Some(c));
        // Same (stage, name) under a different parent is a new node.
        let d = tree.find_or_insert(c, "churn", "apply").unwrap();
        assert_ne!(d, b);
    }

    #[test]
    fn node_table_cap_counts_dropped() {
        let tree = SpanTree::new();
        for i in 0..(MAX_SPAN_NODES + 5) {
            let name = crate::metrics::intern(&format!("site-{i}"));
            let _ = tree.find_or_insert(NO_NODE, "test", name);
        }
        assert_eq!(tree.lock().nodes.len(), MAX_SPAN_NODES);
        assert_eq!(tree.dropped(), 5);
    }

    #[test]
    fn log2_buckets_cover_the_range() {
        let tree = SpanTree::new();
        // 0 µs, 1 µs, 3 µs, ~1 ms, ~10 s (overflow).
        for ns in [500, 1_000, 3_000, 1_000_000, 10_000_000_000] {
            raw_tree_record(&tree, &[("churn", "apply")], ns);
        }
        let nodes = tree.nodes();
        assert_eq!(nodes.len(), 1);
        let n = &nodes[0];
        assert_eq!(n.count, 5);
        assert_eq!(n.buckets.iter().sum::<u64>(), 5);
        // ≤1 µs lands in bucket 0 (both 0.5 µs and exactly 1 µs);
        // 3 µs in bucket 2 (≤4 µs); 1 ms in bucket 10 (≤1024 µs);
        // 10 s lands in overflow.
        assert_eq!(n.buckets[0], 2);
        assert_eq!(n.buckets[2], 1);
        assert_eq!(n.buckets[10], 1);
        assert_eq!(n.buckets[SPAN_LATENCY_BUCKETS - 1], 1);
        assert_eq!(n.min_ns, 500);
        assert_eq!(n.max_ns, 10_000_000_000);
    }

    #[test]
    fn reset_clears_and_reuses() {
        let tree = SpanTree::new();
        raw_tree_record(&tree, &[("churn", "replay"), ("churn", "apply")], 100);
        assert!(!tree.is_empty());
        tree.reset();
        assert!(tree.is_empty());
        assert_eq!(tree.nodes().len(), 0);
    }
}
