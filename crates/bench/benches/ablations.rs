//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **MRAI on/off** — rate limiting is what stretches convergence and
//!   creates the transient-exposure window (§3.1); disabling it should
//!   converge in fewer, larger steps.
//! * **Correlation bin width** — the asymmetric attack's decision
//!   quality depends on the increment bin; sweep it.
//! * **Symmetric vs any-direction observation** — quantifies §3.3's
//!   claim by measuring both predicates over the same circuits.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use quicksand_bgp::{Collector, CollectorConfig, EventSim, Route, SimConfig, UpdateLog};
use quicksand_core::adversary::{ObservationMode, SegmentObservers};
use quicksand_net::{AsPath, Asn, Ipv4Prefix, SimDuration, SimTime};
use quicksand_topology::{RouteClass, RoutingTree, TopologyConfig, TopologyGenerator};
use quicksand_traffic::correlate::{correlate, CorrelationConfig};
use quicksand_traffic::{Capture, TcpConfig, TcpSim};
use std::hint::black_box;

fn ablate_mrai(c: &mut Criterion) {
    let t = TopologyGenerator::new(TopologyConfig::small(7)).generate();
    let prefix: Ipv4Prefix = "203.0.113.0/24".parse().unwrap();
    let origin = t.stubs[0];
    let mut g = c.benchmark_group("ablation_mrai");
    g.sample_size(10);
    for (label, mrai) in [
        ("off", SimDuration::ZERO),
        ("2s", SimDuration::from_secs(2)),
        ("30s", SimDuration::from_secs(30)),
    ] {
        g.bench_with_input(BenchmarkId::new("converge", label), &mrai, |b, &mrai| {
            b.iter(|| {
                let mut sim = EventSim::new(
                    &t.graph,
                    SimConfig {
                        mrai,
                        ..SimConfig::default()
                    },
                );
                sim.originate(origin, Route::originate(prefix, origin), None);
                sim.run_to_quiescence();
                black_box(sim.stats().messages)
            })
        });
    }
    g.finish();
}

fn ablate_bin_width(c: &mut Criterion) {
    let trace = TcpSim::new(TcpConfig {
        transfer_bytes: 4 << 20,
        ..Default::default()
    })
    .run();
    let data = Capture::from_data("data", &trace.data_sent);
    let acks = Capture::from_acks("acks", &trace.acks_received);
    let end = trace.completed_at;
    let mut g = c.benchmark_group("ablation_bin_width");
    for ms in [50u64, 200, 500, 2000] {
        g.bench_with_input(BenchmarkId::new("correlate", ms), &ms, |b, &ms| {
            b.iter(|| {
                black_box(correlate(
                    &data,
                    &acks,
                    SimTime::ZERO,
                    end,
                    &CorrelationConfig {
                        bin: SimDuration::from_millis(ms),
                        max_lag_bins: 4,
                    },
                ))
            })
        });
    }
    g.finish();
}

fn ablate_observation_mode(c: &mut Criterion) {
    let t = TopologyGenerator::new(TopologyConfig::small(9)).generate();
    let g0 = &t.graph;
    let stubs = &t.stubs;
    // Fixed circuit endpoints.
    let (client, guard, exit, dest) = (stubs[0], stubs[7], stubs[13], stubs[19]);
    let tg = RoutingTree::compute(g0, guard).unwrap();
    let tc = RoutingTree::compute(g0, client).unwrap();
    let td = RoutingTree::compute(g0, dest).unwrap();
    let te = RoutingTree::compute(g0, exit).unwrap();
    let obs =
        SegmentObservers::compute(g0, client, guard, exit, dest, &tg, &tc, &td, &te)
            .expect("routed");
    let mut g = c.benchmark_group("ablation_observation_mode");
    for (label, mode) in [
        ("symmetric", ObservationMode::SymmetricOnly),
        ("any_direction", ObservationMode::AnyDirection),
    ] {
        g.bench_with_input(BenchmarkId::new("deanon_set", label), &mode, |b, &mode| {
            b.iter(|| black_box(obs.deanonymizing_ases(mode).len()))
        });
    }
    g.finish();
}

/// Micro-bench for the collector's flat-table merge-diff: a full-feed
/// observation over a sorted prefix table, driven through
/// [`Collector::observe`] so the diff kernel's galloped cursor walk
/// and the batched table merge are both on the measured path.
///
/// * `replace_all` — every entry re-announces with an alternating path:
///   one op per (session, prefix), applied by the in-place replacement
///   fast path.
/// * `churn_half` — half the table flips between announced and
///   withdrawn each iteration: removals force the two-pointer rebuild
///   into the reused merge scratch.
fn bench_diff_merge(c: &mut Criterion) {
    let peers = [Asn(64500), Asn(64501)];
    let cfg = CollectorConfig {
        frac_full: 1.0,
        resets_per_session: 0.0,
        ..Default::default()
    };
    let n = 8192usize;
    let prefixes: Vec<Ipv4Prefix> = (0..n)
        .map(|i| format!("10.{}.{}.0/24", i / 256, i % 256).parse().unwrap())
        .collect();
    let path_a: AsPath = [Asn(100), Asn(200)].into_iter().collect();
    let path_b: AsPath = [Asn(100), Asn(300)].into_iter().collect();
    let cut = prefixes[n / 2];

    let mut g = c.benchmark_group("diff_merge");
    g.sample_size(10);
    g.bench_function("replace_all", |b| {
        let mut collector = Collector::new(&peers, &cfg).expect("valid config");
        let mut log = UpdateLog::default();
        collector.observe(
            SimTime::ZERO,
            &prefixes,
            |_, _| Some((path_a.clone(), RouteClass::Customer)),
            &mut log,
        );
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            let path = if flip { &path_b } else { &path_a };
            collector.observe(
                SimTime::ZERO,
                &prefixes,
                |_, _| Some((path.clone(), RouteClass::Customer)),
                &mut log,
            );
            let appended = log.len();
            log.records.clear();
            black_box(appended)
        })
    });
    g.bench_function("churn_half", |b| {
        let mut collector = Collector::new(&peers, &cfg).expect("valid config");
        let mut log = UpdateLog::default();
        collector.observe(
            SimTime::ZERO,
            &prefixes,
            |_, _| Some((path_a.clone(), RouteClass::Customer)),
            &mut log,
        );
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            let withdrawn = flip;
            collector.observe(
                SimTime::ZERO,
                &prefixes,
                |_, prefix| {
                    (!(withdrawn && prefix < cut))
                        .then(|| (path_a.clone(), RouteClass::Customer))
                },
                &mut log,
            );
            let appended = log.len();
            log.records.clear();
            black_box(appended)
        })
    });
    g.finish();
}

criterion_group!(
    ablations,
    ablate_mrai,
    ablate_bin_width,
    ablate_observation_mode,
    bench_diff_merge
);
criterion_main!(ablations);
