//! In-memory span recording, and the traced pipeline.
//!
//! The traced pipeline re-runs one scenario cell stage by stage through each
//! layer's public functions, in the order `Scenario::build` and
//! `Scenario::run_month` call them, with a span around every call. No
//! span lives inside the program: every boundary is drawn here. The
//! traced raw log must equal `run_month`'s byte for byte, which the
//! workloads check on every traced pass.

use crate::alloc;
use crate::stats;
use quicksand_bgp::{
    clean_session_resets, CleaningConfig, Collector, ExportCache, FastConverge, UpdateLog,
};
use quicksand_core::experiments::{fig3_left, fig3_right, table1};
use quicksand_core::{MonthResult, Scenario, ScenarioConfig};
use quicksand_net::{Asn, Ipv4Prefix, SimTime};
use quicksand_obs as obs;
use quicksand_recover::{CheckpointStore, MetricsState, PipelineSnapshot};
use quicksand_topology::{GeneratedTopology, TopologyGenerator};
use quicksand_tor::{map_tor_prefixes, AddressPlan, Consensus, ConsensusGenerator};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the pass's origin;
/// allocation figures are the recording thread's deltas.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The scenario cell the span belongs to (the request identifier).
    pub cell: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// A span recorder for one thread. Spans are buffered and only read
/// after the pass ends.
pub struct Tracer {
    origin: Instant,
    cell: usize,
    pub spans: Vec<Span>,
    stack: Vec<(usize, (u64, u64))>,
}

impl Tracer {
    pub fn new(origin: Instant, cell: usize) -> Self {
        Tracer {
            origin,
            cell,
            // Reserved up front so recording does not reallocate inside
            // the spans it measures (a medium month has ~12k spans).
            spans: Vec::with_capacity(1 << 15),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            cell: self.cell,
            parent: self.stack.last().map(|&(p, _)| p),
            start_ns: self.now_ns(),
            end_ns: 0,
            allocs: 0,
            alloc_bytes: 0,
        });
        self.stack.push((id, alloc::thread_totals()));
        id
    }

    pub fn close(&mut self, id: usize) {
        let (top, (a0, b0)) = self.stack.pop().expect("close without open");
        assert_eq!(top, id, "spans close in stack order");
        let (a1, b1) = alloc::thread_totals();
        let end = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = end;
        s.allocs = a1 - a0;
        s.alloc_bytes = b1 - b0;
    }

    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.open(name);
        let out = f(self);
        self.close(id);
        out
    }

    /// Append another thread's spans, its roots becoming children of
    /// span `parent` of this tracer.
    pub fn adopt(&mut self, parent: usize, child: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(child.spans.into_iter().map(|mut s| {
            s.parent = Some(s.parent.map_or(parent, |p| p + offset));
            s
        }));
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(Span::secs).sum()
    }

    pub fn durations(&self, name: &str, unit: f64) -> Vec<f64> {
        self.named(name).map(|s| s.secs() * unit).collect()
    }

    pub fn allocs(&self, name: &str) -> (u64, u64) {
        self.named(name)
            .fold((0, 0), |(a, b), s| (a + s.allocs, b + s.alloc_bytes))
    }

    /// Seconds covered by spans without a parent.
    pub fn top_level_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::secs)
            .sum()
    }

    /// Self time of every span, nanoseconds.
    fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, c)| stats::self_time(s.start_ns, s.end_ns, c))
            .collect()
    }

    /// One JSON object per span.
    pub fn jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"cell\":{},\"id\":{id},\"parent\":{parent},\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.cell, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }

    /// Collapsed stacks (`workload;outer;inner self_us`) for flamegraph
    /// tools, merged by path.
    pub fn folded(&self, workload: &str) -> String {
        let self_ns = self.self_times();
        let mut paths: Vec<String> = Vec::with_capacity(self.spans.len());
        let mut merged: BTreeMap<String, u64> = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            let path = match s.parent {
                Some(p) => format!("{};{}", paths[p], s.name),
                None => format!("{workload};{}", s.name),
            };
            *merged.entry(path.clone()).or_default() += self_ns[id];
            paths.push(path);
        }
        merged
            .into_iter()
            .map(|(path, ns)| format!("{path} {}\n", ns / 1000))
            .collect()
    }
}

/// When the traced replay takes checkpoints.
#[derive(Clone, Copy, Debug)]
pub enum Cadence {
    /// After every `n` events, as `repro serve` does.
    Every(u64),
    /// Once, halfway through the schedule: enough to resume from.
    Midpoint,
}

/// Counts taken at the layer boundaries of one traced cell.
#[derive(Default)]
pub struct CellCounts {
    pub events: u64,
    pub affected: u64,
    pub recomputes: u64,
    /// (session, origin) pairs a refresh found changed.
    pub dirty_pairs: u64,
    /// (session, origin) pairs refreshed: affected origins × sessions.
    pub refreshed_pairs: u64,
    /// Events whose routing changed but whose exports did not.
    pub skipped_events: u64,
    pub dump_records: u64,
    pub replay_records: u64,
    pub checkpoint_bytes: Vec<u64>,
    /// Live heap after replay set-up, the t = 0 dump, the replay and
    /// cleaning.
    pub heap_after: [u64; 4],
}

pub struct CellRun {
    pub scenario: Scenario,
    pub month: MonthResult,
    pub stats_fp: u64,
    pub counts: CellCounts,
}

/// FNV-1a of a value's `Debug` text: equality of the paper statistics
/// across passes without requiring `PartialEq` on them.
pub fn fingerprint(value: &impl std::fmt::Debug) -> u64 {
    quicksand_bgp::feed::fnv64(format!("{value:?}").as_bytes())
}

/// Run one cell: build, month replay with checkpoints into `store`, and
/// the §4 statistics, each stage in its own span.
pub fn traced_cell(
    t: &mut Tracer,
    config: &ScenarioConfig,
    store: &CheckpointStore,
    cadence: Cadence,
) -> Result<CellRun, String> {
    let scenario = t.span("build", |t| build(t, config.clone()));
    let mut counts = CellCounts::default();
    let month = t.span("month", |t| {
        month(t, &scenario, store, cadence, &mut counts)
    })?;
    let stats = t.span("stats", |t| {
        (
            t.span("stats.table1", |_| table1(&scenario, &month)),
            t.span("stats.fig3_left", |_| fig3_left(&scenario, &month)),
            t.span("stats.fig3_right", |_| fig3_right(&scenario, &month)),
        )
    });
    Ok(CellRun {
        stats_fp: fingerprint(&stats),
        scenario,
        month,
        counts,
    })
}

/// `Scenario::build`, one generator per span.
fn build(t: &mut Tracer, config: ScenarioConfig) -> Scenario {
    let topo = t.span("topology.generate", |_| {
        TopologyGenerator::new(config.topology.clone()).generate()
    });
    let plan = t.span("tor.plan", |_| {
        AddressPlan::generate(&topo.graph, &topo.hosting, &config.plan)
    });
    let consensus = t.span("tor.consensus", |_| {
        let asns: Vec<Asn> = topo.graph.asns().collect();
        ConsensusGenerator::new(config.consensus.clone()).generate(&plan, &topo.hosting, &asns)
    });
    let tor_prefixes = t.span("tor.prefix_join", |_| {
        map_tor_prefixes(&consensus, &plan.table)
    });
    let (session_peers, control_origins) = t.span("scenario.select", |_| {
        select(&config, &topo, &plan, &consensus)
    });
    Scenario {
        config,
        topo,
        plan,
        consensus,
        tor_prefixes,
        session_peers,
        control_origins,
    }
}

/// Collector peers and control origins, drawn exactly as
/// `Scenario::build` draws them (that step has no public function of
/// its own). A divergence would change the raw log, which the
/// byte-identity gate catches.
fn select(
    config: &ScenarioConfig,
    topo: &GeneratedTopology,
    plan: &AddressPlan,
    consensus: &Consensus,
) -> (Vec<Asn>, Vec<Asn>) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut peers: Vec<Asn> = Vec::new();
    let mut taken: BTreeSet<Asn> = BTreeSet::new();
    let mut push = |a: Asn| {
        if peers.len() < config.n_sessions && taken.insert(a) {
            peers.push(a);
        }
    };
    for &a in topo.tier1.iter().take(config.n_sessions / 4) {
        push(a);
    }
    let mut t2 = topo.tier2.clone();
    t2.sort_by_key(|a| std::cmp::Reverse(topo.graph.customers(*a).count()));
    t2.into_iter().for_each(&mut push);
    let mut stubs = topo.stubs.clone();
    stubs.shuffle(&mut rng);
    stubs.into_iter().for_each(&mut push);
    peers.truncate(config.n_sessions);

    let relay_ases: BTreeSet<Asn> = consensus.relays.iter().map(|r| r.host_as).collect();
    let mut control: Vec<Asn> = if plan.dense.is_empty() {
        let mut control: Vec<Asn> = topo
            .graph
            .asns()
            .filter(|a| !relay_ases.contains(a))
            .collect();
        control.shuffle(&mut rng);
        control
    } else {
        plan.dense
            .iter()
            .copied()
            .filter(|a| !relay_ases.contains(a))
            .collect()
    };
    control.truncate(config.n_control_origins);
    control.sort();
    (peers, control)
}

/// Full-table refresh and observation, as at t = 0 and at the horizon.
#[allow(clippy::too_many_arguments)]
fn full_dump(
    t: &mut Tracer,
    fc: &FastConverge,
    collector: &mut Collector,
    cache: &mut ExportCache,
    origins: &[Asn],
    prefixes: &[Ipv4Prefix],
    origin_of: &[Asn],
    at: SimTime,
    log: &mut UpdateLog,
) -> u64 {
    t.span("collector.refresh_full", |_| {
        for &o in origins {
            if let Some(tree) = fc.tree(o) {
                collector.refresh_exports(fc.graph(), tree, cache);
            }
        }
    });
    let before = log.len();
    t.span("collector.dump", |_| {
        let exported = |peer: Asn, pi: usize| cache.get(origin_of[pi], peer);
        collector.observe_interned(at, prefixes, &exported, log)
    });
    (log.len() - before) as u64
}

/// `Scenario::run_month_checkpointed`, one layer call per span.
fn month(
    t: &mut Tracer,
    s: &Scenario,
    store: &CheckpointStore,
    cadence: Cadence,
    c: &mut CellCounts,
) -> Result<MonthResult, String> {
    let (origins, prefixes_by_origin, all_prefixes, all_origin_of) =
        t.span("scenario.prep", |_| {
            let tracked = s.tracked_prefixes();
            let origins: Vec<Asn> = tracked
                .values()
                .copied()
                .collect::<BTreeSet<Asn>>()
                .into_iter()
                .collect();
            let mut by_origin: BTreeMap<Asn, Vec<Ipv4Prefix>> = BTreeMap::new();
            for (p, o) in &tracked {
                by_origin.entry(*o).or_default().push(*p);
            }
            let prefixes: Vec<Ipv4Prefix> = tracked.keys().copied().collect();
            let origin_of: Vec<Asn> = tracked.values().copied().collect();
            (origins, by_origin, prefixes, origin_of)
        });
    let mut fc = t.span("fast.init", |_| {
        FastConverge::new(s.topo.graph.clone(), origins.iter().copied())
    });
    let mut collector = t
        .span("collector.new", |_| {
            Collector::new(&s.session_peers, &s.config.collector)
        })
        .map_err(|e| e.to_string())?;
    c.heap_after[0] = alloc::HEAP.live();
    let mut log = UpdateLog::default();
    let mut cache = ExportCache::new();
    let (prefixes, origin_of) = (&all_prefixes[..], &all_origin_of[..]);
    c.dump_records += full_dump(
        t,
        &fc,
        &mut collector,
        &mut cache,
        &origins,
        prefixes,
        origin_of,
        SimTime::ZERO,
        &mut log,
    );
    c.heap_after[1] = alloc::HEAP.live();

    let events = t.span("churn.generate", |_| s.churn_schedule());
    let n_events = events.len() as u64;
    c.events = n_events;
    let save_at = |done: u64| match cadence {
        Cadence::Every(n) => done % n == 0,
        Cadence::Midpoint => done == n_events.div_ceil(2),
    };
    let sessions = s.session_peers.len();
    let prefixes_of = |o: Asn| prefixes_by_origin.get(&o).map_or(&[][..], |v| v.as_slice());
    let mut dirty: Vec<Vec<Asn>> = vec![Vec::new(); sessions];
    let mut checkpoint_bytes = Vec::new();
    t.span("churn.replay", |t| -> Result<(), String> {
        for (i, ev) in events.iter().enumerate() {
            let affected = t.span("fast.apply", |_| fc.apply(ev.change));
            c.affected += affected.len() as u64;
            c.refreshed_pairs += (affected.len() * sessions) as u64;
            if !affected.is_empty() {
                dirty.iter_mut().for_each(Vec::clear);
                t.span("collector.refresh_dirty", |_| {
                    for &o in &affected {
                        if let Some(tree) = fc.tree(o) {
                            collector.refresh_exports_dirty(
                                fc.graph(),
                                tree,
                                &mut cache,
                                &mut dirty,
                            );
                        }
                    }
                });
                let n_dirty = dirty.iter().map(Vec::len).sum::<usize>() as u64;
                c.dirty_pairs += n_dirty;
                if n_dirty == 0 {
                    c.skipped_events += 1;
                } else {
                    let before = log.len();
                    t.span("collector.observe_dirty", |_| {
                        let exported = |peer: Asn, origin: Asn| cache.get(origin, peer);
                        collector.observe_dirty(ev.at, &dirty, &prefixes_of, &exported, &mut log)
                    });
                    c.replay_records += (log.len() - before) as u64;
                }
            }
            let done = i as u64 + 1;
            if save_at(done) {
                let path = t.span("recover.save", |_| {
                    let snap = PipelineSnapshot {
                        config_hash: s.config_hash(),
                        seed: s.config.seed,
                        cursor: done,
                        down_links: fc.down_links().to_vec(),
                        collector: collector.export_state(),
                        log: log.clone(),
                        monitor: None,
                        metrics: MetricsState::capture(&obs::metrics()),
                    };
                    store.save(&snap)
                });
                let path = path.map_err(|e| format!("checkpoint save: {e}"))?;
                let size = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
                checkpoint_bytes.push(size);
            }
        }
        Ok(())
    })?;
    c.checkpoint_bytes = checkpoint_bytes;
    c.recomputes = fc.recomputes;

    let horizon_end = s.horizon_end();
    c.dump_records += full_dump(
        t,
        &fc,
        &mut collector,
        &mut cache,
        &origins,
        prefixes,
        origin_of,
        horizon_end,
        &mut log,
    );
    c.heap_after[2] = alloc::HEAP.live();
    let (cleaned, removed_duplicates, reset_bursts) = t.span("clean", |_| {
        clean_session_resets(&log, &CleaningConfig::default())
    });
    c.heap_after[3] = alloc::HEAP.live();
    Ok(MonthResult {
        raw: log,
        cleaned,
        removed_duplicates,
        reset_bursts,
        horizon_end,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_adopted_roots_hang_under_the_parent() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin, 0);
        let root = t.open("cells");
        let mut child = Tracer::new(origin, 3);
        child.span("cell", |c| c.span("fast.apply", |_| ()));
        t.close(root);
        t.adopt(root, child);
        let names: Vec<_> = t.spans.iter().map(|s| (s.name, s.parent, s.cell)).collect();
        assert_eq!(
            names,
            [
                ("cells", None, 0),
                ("cell", Some(0), 3),
                ("fast.apply", Some(1), 3)
            ]
        );
        assert!(t.spans.iter().all(|s| s.end_ns >= s.start_ns));
        let folded = t.folded("w");
        assert!(folded.contains("w;cells;cell;fast.apply "));
        assert_eq!(t.jsonl("w").lines().count(), 3);
    }
}
