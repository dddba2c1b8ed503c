//! Deterministic parallel execution for the month-replay engine.
//!
//! The month-long churn study (`Scenario::run_month`) spends its
//! per-event time in two loops: recomputing the candidate routing trees
//! in [`FastConverge`] and diffing exported routes across collector
//! sessions. Both decompose into *independent shards* — a tree's
//! reconvergence reads only the shared (immutable during the region)
//! graph and its own state; a session's diff reads only its own slice
//! of the collector table. This module owns the scoped-thread
//! [`WorkerPool`] that runs such regions and the sharded tree
//! recompute, [`apply_event_sharded`]. Collector diffing has no driver
//! here: [`quicksand_bgp::Collector::observe_dirty_sharded`] is the one
//! observe driver at width `jobs`, and takes [`WorkerPool::run_region`]
//! as its region runner.
//!
//! Determinism is structural, not coincidental (DESIGN.md §10):
//!
//! 1. **Static assignment.** A region's work list is split into at most
//!    `jobs` contiguous chunks, a pure function of the work list —
//!    never of thread timing. There is no work stealing.
//! 2. **Pure shards.** Shards read the shared pre-region state and
//!    write only their own preallocated output slot.
//! 3. **Canonical merge.** Outputs are combined in chunk order, which —
//!    because chunks are contiguous over a list the serial engine
//!    iterates in order (ascending origin ASN for trees, ascending
//!    session index for collector diffs) — *is* the serial order. State
//!    mutation and log appends then happen serially on the caller
//!    thread.
//!
//! Hence the parallel engine is bitwise-identical to the serial one at
//! any jobs count, which the differential harness
//! (`tests/parallel_equivalence.rs`) enforces. Serial remains the
//! default and the reference; [`Parallelism`] is deliberately excluded
//! from scenario identity so checkpoints written at one `--jobs` value
//! resume under any other.

use quicksand_bgp::{FastConverge, LinkChange};
use quicksand_net::Asn;
use quicksand_obs as obs;
use quicksand_topology::ReconvergeScratch;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Parallelize a tree-recompute region only when it has at least this
/// many candidate trees; below it the dispatch costs more than it
/// saves. With the link→tree index pruning candidates to the trees
/// that actually cross the edge, small regions are common and a
/// scoped-thread spawn costs more than a handful of reconvergences.
/// Output is identical either way.
const MIN_TREES_PER_REGION: usize = 8;

/// Execution-width configuration for month replays.
///
/// `serial()` (jobs = 1, the default) runs the reference in-place
/// engine; `with_jobs(n)` shards per-event work across `n` threads with
/// bitwise-identical output. Not part of scenario identity:
/// [`crate::ScenarioConfig::config_hash`] normalizes it away, so
/// checkpoints are portable across jobs counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Parallelism {
    jobs: usize,
}

impl Parallelism {
    /// The serial reference engine (jobs = 1).
    pub fn serial() -> Self {
        Parallelism { jobs: 1 }
    }

    /// Shard across `jobs` threads (clamped to at least 1).
    pub fn with_jobs(jobs: usize) -> Self {
        Parallelism { jobs: jobs.max(1) }
    }

    /// Number of worker threads (1 = serial).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// True when this is the serial reference configuration.
    pub fn is_serial(&self) -> bool {
        self.jobs == 1
    }

    /// The pool this configuration calls for: `None` for serial.
    pub fn pool(&self) -> Option<WorkerPool> {
        (!self.is_serial()).then(|| WorkerPool::new(self.jobs))
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::serial()
    }
}

/// A deterministic fan-out helper over [`std::thread::scope`].
///
/// Not a work-stealing pool: callers hand it one closure per statically
/// assigned shard, so the shard→thread mapping is fixed before any
/// thread runs. Threads are scoped per region (std only, no unsafe, no
/// lifetime erasure); each installs the metrics registry captured at
/// pool creation, so shard work records into the same registry as the
/// caller even though `quicksand-obs`'s thread-local override does not
/// propagate to new threads on its own.
pub struct WorkerPool {
    jobs: usize,
    registry: Arc<obs::Registry>,
    /// The event sink active at pool creation, re-installed on every
    /// spawned shard thread — like the registry, the thread-local
    /// subscriber override does not propagate to new threads on its
    /// own, and a shard's warnings must not vanish into the void.
    subscriber: Option<Arc<dyn obs::Subscriber>>,
    /// One pre-registered span tree per worker slot, reused across
    /// every region of the replay: short-lived scoped threads would
    /// otherwise register a fresh implicit tree each, growing the
    /// profiler's global tree list without bound.
    trees: Vec<Arc<obs::SpanTree>>,
    /// Reconvergence scratch arenas, one handed to each shard of a
    /// tree-recompute region and returned afterwards, so every worker
    /// reuses its queue/stamp buffers across the whole replay instead
    /// of allocating per event.
    scratches: Mutex<Vec<ReconvergeScratch>>,
}

impl WorkerPool {
    /// A pool that runs regions as up to `jobs` concurrent shards
    /// (clamped to at least 1), recording shard metrics into the
    /// currently active registry.
    pub fn new(jobs: usize) -> Self {
        let jobs = jobs.max(1);
        let trees: Vec<Arc<obs::SpanTree>> = (0..jobs)
            .map(|_| {
                let tree = Arc::new(obs::SpanTree::new());
                obs::prof::register_tree(&tree);
                tree
            })
            .collect();
        let pool = WorkerPool {
            jobs,
            registry: obs::metrics(),
            subscriber: obs::subscriber(),
            trees,
            scratches: Mutex::new(Vec::new()),
        };
        obs::gauge("parallel", "jobs", jobs as f64);
        pool
    }

    /// Shard-count budget for a region.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Borrow `n` scratch arenas (topping up with fresh ones on first
    /// use); give them back with [`WorkerPool::return_scratches`] so the
    /// buffers keep their warmed capacity for the next event.
    fn take_scratches(&self, n: usize) -> Vec<ReconvergeScratch> {
        let mut pool = self.scratches.lock().expect("scratch pool poisoned");
        let keep = pool.len().min(n);
        let mut out: Vec<ReconvergeScratch> = pool.drain(..keep).collect();
        out.resize_with(n, ReconvergeScratch::new);
        out
    }

    /// Return arenas borrowed with [`WorkerPool::take_scratches`].
    fn return_scratches(&self, scratches: Vec<ReconvergeScratch>) {
        self.scratches
            .lock()
            .expect("scratch pool poisoned")
            .extend(scratches);
    }

    /// Run one parallel region: every task beyond the first on its own
    /// scoped thread, the first on the caller thread (a pool is never
    /// idle while its caller waits). Returns once every task has
    /// finished; a panicking task propagates to the caller after the
    /// region joins. Records region fan-out (`region_tasks`, the queue
    /// depth handed to the scheduler), per-shard busy time, and
    /// per-worker-slot busy/alloc attribution under the `parallel`
    /// stage (all stripped by report normalization — execution-engine
    /// content, not scenario content).
    pub fn run_region(&self, tasks: Vec<Box<dyn FnOnce() + Send + '_>>) {
        if tasks.is_empty() {
            return;
        }
        obs::incr("parallel", "regions", 1);
        obs::incr("parallel", "tasks", tasks.len() as u64);
        obs::observe("parallel", "region_tasks", tasks.len() as f64);
        std::thread::scope(|scope| {
            let mut tasks = tasks.into_iter().enumerate();
            let (_, first) = tasks.next().expect("region has tasks");
            for (i, task) in tasks {
                let registry = Arc::clone(&self.registry);
                let subscriber = self.subscriber.clone();
                scope.spawn(move || {
                    obs::with_metrics(registry, || match subscriber {
                        Some(sub) => {
                            obs::with_subscriber(sub, || self.run_shard(i, task))
                        }
                        None => self.run_shard(i, task),
                    })
                });
            }
            self.run_shard(0, first);
        });
    }

    /// Execute one shard under its worker slot's span tree, recording
    /// busy time (histogram + per-slot counter) and, when an alloc
    /// probe is installed, the process-wide allocation delta observed
    /// during the shard (an upper bound under concurrency — shards
    /// overlap on one global counter).
    fn run_shard(&self, index: usize, task: Box<dyn FnOnce() + Send + '_>) {
        let slot = index % self.jobs;
        let start = Instant::now();
        let allocs0 = obs::prof::probe_count();
        obs::prof::with_tree(&self.trees[slot], || {
            let _span = obs::prof::span("parallel", "shard");
            task();
        });
        let busy = start.elapsed();
        obs::observe("parallel", "shard_busy_ms", busy.as_secs_f64() * 1e3);
        obs::incr_session(
            "parallel",
            "worker_busy_us",
            slot as u32,
            busy.as_micros() as u64,
        );
        if obs::prof::has_alloc_probe() {
            obs::incr_session(
                "parallel",
                "worker_allocs",
                slot as u32,
                obs::prof::probe_count().saturating_sub(allocs0),
            );
        }
    }
}

/// [`FastConverge::apply`] with candidate-tree reconvergence sharded
/// across `pool`: contiguous chunks of the ascending-origin candidate
/// list, changed flags concatenated in chunk order (= serial order).
/// Bitwise-identical result and `recomputes` count at any jobs value.
pub fn apply_event_sharded(
    fc: &mut FastConverge,
    change: LinkChange,
    pool: &WorkerPool,
) -> Vec<Asn> {
    let mut scratches = pool.take_scratches(pool.jobs().max(1));
    let changed = fc.apply_with(change, |graph, (a, b), trees| {
        let shards = pool.jobs().min(trees.len());
        if trees.len() < MIN_TREES_PER_REGION || shards < 2 {
            let scratch = &mut scratches[0];
            return trees
                .iter_mut()
                .map(|(_, tree)| tree.reconverge_with(graph, a, b, scratch))
                .collect();
        }
        let chunk = trees.len().div_ceil(shards);
        let mut flags: Vec<Vec<bool>> = Vec::new();
        flags.resize_with(shards, Vec::new);
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
        for ((shard, out), scratch) in trees
            .chunks_mut(chunk)
            .zip(flags.iter_mut())
            .zip(scratches.iter_mut())
        {
            tasks.push(Box::new(move || {
                *out = shard
                    .iter_mut()
                    .map(|(_, tree)| tree.reconverge_with(graph, a, b, scratch))
                    .collect();
            }));
        }
        pool.run_region(tasks);
        flags.concat()
    });
    pool.return_scratches(scratches);
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallelism_defaults_to_serial() {
        assert!(Parallelism::default().is_serial());
        assert_eq!(Parallelism::default(), Parallelism::serial());
        assert!(Parallelism::default().pool().is_none());
        assert_eq!(Parallelism::with_jobs(0).jobs(), 1);
        let p = Parallelism::with_jobs(4);
        assert!(!p.is_serial());
        assert_eq!(p.pool().map(|pool| pool.jobs()), Some(4));
    }

    #[test]
    fn run_region_runs_every_task_exactly_once() {
        let registry = Arc::new(obs::Registry::default());
        obs::with_metrics(registry.clone(), || {
            let pool = WorkerPool::new(3);
            let ran = AtomicUsize::new(0);
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..7)
                .map(|_| {
                    Box::new(|| {
                        ran.fetch_add(1, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_region(tasks);
            assert_eq!(ran.load(Ordering::SeqCst), 7);
            pool.run_region(Vec::new()); // empty region is a no-op
        });
        let snap = registry.snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|c| c.stage == "parallel" && c.name == name)
                .map(|c| c.value)
        };
        assert_eq!(counter("regions"), Some(1));
        assert_eq!(counter("tasks"), Some(7));
        // One busy-time sample per shard, recorded from worker threads
        // into the registry captured at pool creation.
        let busy = snap
            .histograms
            .iter()
            .find(|h| h.stage == "parallel" && h.name == "shard_busy_ms")
            .expect("shard busy histogram");
        assert_eq!(busy.stats.count, 7);
    }

    #[test]
    fn worker_shard_metrics_land_in_the_creating_registry() {
        // Even though obs's thread-local override does not propagate to
        // spawned threads, shards must not leak metrics to the global
        // registry: the pool re-installs its creation-time registry.
        let registry = Arc::new(obs::Registry::default());
        let global_before = obs::global_metrics().snapshot().counters.len();
        obs::with_metrics(registry.clone(), || {
            let pool = WorkerPool::new(4);
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                .map(|i| {
                    Box::new(move || obs::incr("parallel", "probe", i as u64 + 1))
                        as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_region(tasks);
        });
        let snap = registry.snapshot();
        let probe = snap
            .counters
            .iter()
            .find(|c| c.stage == "parallel" && c.name == "probe")
            .expect("probe counter in scoped registry");
        assert_eq!(probe.value, 1 + 2 + 3 + 4);
        assert_eq!(
            obs::global_metrics().snapshot().counters.len(),
            global_before,
            "no shard metric may leak into the global registry"
        );
    }

    #[test]
    fn region_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            let pool = WorkerPool::new(2);
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
                Box::new(|| {}),
                Box::new(|| panic!("shard failure")),
            ];
            pool.run_region(tasks);
        });
        assert!(result.is_err(), "a panicking shard must fail the region");
    }
}
