//! Differential gate for dirty-set observation (DESIGN.md §16) and
//! refresh by exception (§20): replay the same churn schedule twice
//! over identical collector state — once with a cache-free full scan
//! (walk every export afresh, diff *every tracked prefix* of every
//! session, observe every effective event), once with the pipeline the
//! engine now runs (`refresh_exports_dirty` → `observe_dirty`, clean
//! events skipped) — and require byte-identical `UpdateLog`s. A diff op is
//! emitted iff a recorded entry changes iff that (session, origin)
//! export value changed, so the dirty subset must reproduce the full
//! scan record for record, reset deferral included. The pipeline's
//! final observation diffs nothing and only flushes resets; a full
//! diff after it must append nothing.

use quicksand_bgp::{Collector, ExportCache, FastConverge, UpdateLog};
use quicksand_core::scenario::{Scenario, ScenarioConfig};
use quicksand_net::{Asn, Ipv4Prefix, SimDuration, SimTime};
use quicksand_obs::{self as obs, Registry};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Seeds for the seed-parameterized sweep below. `QUICKSAND_TEST_SEEDS`
/// (a comma-separated list, decimal or `0x`-hex) overrides `default`,
/// so a nightly CI job can widen the sweep without code edits.
fn env_seeds(default: &[u64]) -> Vec<u64> {
    match std::env::var("QUICKSAND_TEST_SEEDS") {
        Ok(s) if !s.trim().is_empty() => s
            .split(',')
            .map(|tok| {
                let tok = tok.trim();
                let parsed = match tok.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => tok.parse(),
                };
                parsed.unwrap_or_else(|_| {
                    panic!("QUICKSAND_TEST_SEEDS: bad seed {tok:?}")
                })
            })
            .collect(),
        _ => default.to_vec(),
    }
}

fn tiny(seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::small(seed);
    cfg.churn.horizon = SimDuration::from_days(3);
    cfg.collector.horizon = SimDuration::from_days(3);
    cfg.n_sessions = 8;
    cfg.n_control_origins = 30;
    cfg
}

/// Replay `s`'s schedule with either observation strategy, returning
/// the raw log. `full = true` is the cache-free oracle: at every
/// effective event, every session diffs the *entire* tracked-prefix
/// table through `Collector::observe`, each export a fresh
/// `RoutingTree::as_path_at` walk — no `ExportCache`, so no watch row
/// (DESIGN.md §20) is ever consulted. `full = false` is the engine's
/// pipeline: `refresh_exports_dirty` → `observe_dirty`, clean events
/// skipped.
fn replay(s: &Scenario, full: bool) -> UpdateLog {
    let tracked = s.tracked_prefixes();
    let prefixes_by_origin: BTreeMap<Asn, Vec<Ipv4Prefix>> = {
        let mut m: BTreeMap<Asn, Vec<Ipv4Prefix>> = BTreeMap::new();
        for (p, o) in &tracked {
            m.entry(*o).or_default().push(*p);
        }
        m
    };
    let all_prefixes: Vec<Ipv4Prefix> = tracked.keys().copied().collect();
    let all_origin_of: Vec<Asn> = tracked.values().copied().collect();
    let all_origins: Vec<Asn> = prefixes_by_origin.keys().copied().collect();
    let prefixes_of =
        |o: Asn| prefixes_by_origin.get(&o).map_or(&[][..], |v| v.as_slice());

    let mut fc = FastConverge::new(s.topo.graph.clone(), all_origins.iter().copied());
    let mut collector =
        Collector::new(&s.session_peers, &s.config.collector).expect("valid config");
    let mut cache = ExportCache::new();
    let mut log = UpdateLog::default();
    let mut dirty: Vec<Vec<Asn>> = vec![Vec::new(); s.session_peers.len()];

    // The oracle's observation: every session, every tracked prefix,
    // every export walked afresh from the current trees.
    let observe_walked =
        |fc: &FastConverge, collector: &mut Collector, log: &mut UpdateLog, at: SimTime| {
            let exported = |peer: Asn, prefix: Ipv4Prefix| {
                let tree = fc.tree(tracked[&prefix])?;
                Some((
                    tree.as_path_at(fc.graph(), peer)?,
                    tree.class_of(fc.graph(), peer)?,
                ))
            };
            collector.observe(at, &all_prefixes, exported, log);
        };
    // The engine's full dump: refresh every origin, then one full scan
    // of the cache.
    let dump_cached = |fc: &FastConverge,
                       collector: &mut Collector,
                       cache: &mut ExportCache,
                       log: &mut UpdateLog,
                       at: SimTime| {
        for &o in &all_origins {
            let Some(tree) = fc.tree(o) else { continue };
            collector.refresh_exports(fc.graph(), tree, cache);
        }
        collector.observe_interned(
            at,
            &all_prefixes,
            &|peer, pi| cache.get(all_origin_of[pi], peer),
            log,
        );
    };

    // t = 0 full dump.
    if full {
        observe_walked(&fc, &mut collector, &mut log, SimTime::ZERO);
    } else {
        dump_cached(&fc, &mut collector, &mut cache, &mut log, SimTime::ZERO);
    }

    for ev in s.churn_schedule() {
        let affected = fc.apply(ev.change);
        if affected.is_empty() {
            continue;
        }
        if full {
            observe_walked(&fc, &mut collector, &mut log, ev.at);
        } else {
            for d in dirty.iter_mut() {
                d.clear();
            }
            for &o in &affected {
                let Some(tree) = fc.tree(o) else { continue };
                collector.refresh_exports_dirty(fc.graph(), tree, &mut cache, &mut dirty);
            }
            if dirty.iter().any(|d| !d.is_empty()) {
                collector.observe_dirty(
                    ev.at,
                    &dirty,
                    &prefixes_of,
                    &|peer, origin| cache.get(origin, peer),
                    &mut log,
                );
            }
        }
    }

    // Final observation flushes trailing session resets. The engine's
    // diffs nothing (`run_month`): each session's table already equals
    // its peer's exports, so a full diff after it appends nothing.
    let end = SimTime::ZERO + s.config.churn.horizon;
    if full {
        observe_walked(&fc, &mut collector, &mut log, end);
    } else {
        for d in dirty.iter_mut() {
            d.clear();
        }
        collector.observe_dirty(
            end,
            &dirty,
            &prefixes_of,
            &|peer, origin| cache.get(origin, peer),
            &mut log,
        );
        let flushed = log.len();
        dump_cached(&fc, &mut collector, &mut cache, &mut log, end);
        assert_eq!(
            log.len(),
            flushed,
            "a full diff after the month's last observation appended records"
        );
    }
    log
}

/// Across the seed sweep, the dirty-set pipeline's log is byte-for-byte
/// the full-scan log.
#[test]
fn dirty_observe_matches_full_observe_bytewise() {
    for seed in env_seeds(&[0xD1FF, 7, 11]) {
        let s = Scenario::build(tiny(seed));
        let full = obs::with_metrics(Arc::new(Registry::new()), || replay(&s, true));
        let dirty = obs::with_metrics(Arc::new(Registry::new()), || replay(&s, false));
        assert_eq!(
            full.fingerprint(),
            dirty.fingerprint(),
            "dirty-set observation diverged from the full scan (seed {seed:#x})"
        );
    }
}

/// The production replay loop (`run_month`, which now runs the
/// dirty-set pipeline end to end) also matches the reconstructed full
/// scan, raw and cleaned.
#[test]
fn run_month_matches_reconstructed_full_scan() {
    for seed in env_seeds(&[0xD1FF]) {
        let s = Scenario::build(tiny(seed));
        let full = obs::with_metrics(Arc::new(Registry::new()), || replay(&s, true));
        let month = obs::with_metrics(Arc::new(Registry::new()), || {
            s.run_month().expect("valid scenario")
        });
        assert_eq!(
            full.fingerprint(),
            month.raw.fingerprint(),
            "run_month raw log diverged from the full scan (seed {seed:#x})"
        );
    }
}
