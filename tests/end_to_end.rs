//! The full measurement pipeline at test scale, asserted against the
//! paper's qualitative claims (the "shape" contract of DESIGN.md §4).

use quicksand_core::adversary::ObservationMode;
use quicksand_core::countermeasures::{
    evaluate_guard_strategies, evaluate_monitoring, GuardStrategy,
};
use quicksand_core::experiments::{
    fig2_left, fig2_right, fig3_left, fig3_left_over, fig3_right, fig3_right_over, table1,
    table1_over,
};
use quicksand_core::scenario::{MonthResult, Scale, Scenario, ScenarioConfig};
use quicksand_net::Asn;
use quicksand_topology::RoutingTree;
use quicksand_traffic::{CircuitFlowConfig, TcpConfig};
use std::sync::OnceLock;

fn world() -> &'static (Scenario, MonthResult) {
    static W: OnceLock<(Scenario, MonthResult)> = OnceLock::new();
    W.get_or_init(|| {
        let s = Scenario::build(ScenarioConfig::small(4242));
        let m = s.run_month().expect("valid collector config");
        (s, m)
    })
}

/// T1: the dataset marginals come out of the pipeline self-consistent
/// (the generator's numbers re-derived through the LPM join and the
/// collector logs).
#[test]
fn table1_shape() {
    let (s, m) = world();
    let t = table1(s, m);
    assert_eq!(t.n_relays, s.config.consensus.n_relays);
    // Skewed relays-per-prefix distribution like the paper's (median 1
    // at paper scale; allow 2 at the small test scale).
    assert!(t.prefix_stats.relays_per_prefix_median <= 2);
    assert!(
        t.prefix_stats.relays_per_prefix_max
            >= 3 * t.prefix_stats.relays_per_prefix_median
    );
    // Partial feeds keep per-prefix session visibility well below 100%.
    assert!(t.mean_session_visibility > 0.05);
    assert!(t.mean_session_visibility < 0.8);
    assert!(t.max_session_visibility <= 1.0);
    // At least one near-full-feed session.
    assert!(
        t.max_prefixes_per_session as f64
            >= 0.8 * t.prefix_stats.n_prefixes as f64
    );
}

/// The fnv64 of each statistic's `Debug` rendering, in the order
/// `table1`, `fig3_left`, `fig3_right`: a digest that changes if any
/// field of any of the three results changes by a single bit.
fn statistics_fingerprints(s: &Scenario, m: &MonthResult) -> [u64; 3] {
    let fp = |v: &dyn std::fmt::Debug| quicksand_bgp::feed::fnv64(format!("{v:?}").as_bytes());
    [
        fp(&table1(s, m)),
        fp(&fig3_left(s, m)),
        fp(&fig3_right(s, m)),
    ]
}

/// The cleaned log's fingerprint: the fnv64 of the `Debug` rendering
/// of its records (streamed through the hasher, so a large-tier log is
/// never rendered into one string), with the removed-duplicate and
/// reset-burst counts.
fn cleaning_fingerprint(m: &MonthResult) -> (u64, usize, usize) {
    struct Fnv(quicksand_bgp::feed::FnvHasher);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.update(s.as_bytes());
            Ok(())
        }
    }
    let mut h = Fnv(quicksand_bgp::feed::FnvHasher::new());
    std::fmt::Write::write_fmt(&mut h, format_args!("{:?}", m.cleaned.to_log(&m.raw).records))
        .expect("hashing cannot fail");
    (h.0.finish(), m.removed_duplicates, m.reset_bursts)
}

/// Reset cleaning is pinned at the test world: the cleaned records bit
/// for bit, and the removed and burst counts.
#[test]
fn cleaning_is_pinned() {
    let (_, m) = world();
    assert_eq!(cleaning_fingerprint(m), (0xf23899c0d7cffa44, 1262, 16));
}

/// T1 and both Fig-3 results are pinned bit for bit at the test world,
/// so a change to how the statistics are computed cannot move a value.
#[test]
fn statistics_are_pinned() {
    let (s, m) = world();
    assert_eq!(
        statistics_fingerprints(s, m),
        [0xfdcc73c660ef8902, 0x748d456d5247a777, 0x2c5963273fdee85a]
    );
}

/// The same statistics and cleaning pins on a full large-tier month
/// (20k ASes, ~113k tracked prefixes, 16 sessions): `#[ignore]`d and
/// additionally gated on `QUICKSAND_TEST_LARGE=1`, like the other
/// large-tier gates.
#[test]
#[ignore = "large tier: a full month; QUICKSAND_TEST_LARGE=1 cargo test -- --ignored"]
fn large_tier_statistics_are_pinned() {
    if std::env::var("QUICKSAND_TEST_LARGE").as_deref() != Ok("1") {
        eprintln!("skipped: set QUICKSAND_TEST_LARGE=1 to run the large statistics pins");
        return;
    }
    let s = Scenario::build(ScenarioConfig::at_scale(&Scale::Large, 28));
    let m = s.run_month().expect("valid collector config");
    assert_eq!(
        statistics_fingerprints(&s, &m),
        [0x52d338244f0a8961, 0x1a590d7678b439a9, 0x248f9936c9fbffa7]
    );
    assert_eq!(cleaning_fingerprint(&m), (0x87b8f6e57ac0cae7, 114059, 1));
}

/// Seeds for the view differential below. `QUICKSAND_TEST_SEEDS` (a
/// comma-separated list, decimal or `0x`-hex) overrides `default`.
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
                parsed.unwrap_or_else(|_| panic!("QUICKSAND_TEST_SEEDS: bad seed {tok:?}"))
            })
            .collect(),
        _ => default.to_vec(),
    }
}

/// The month `raw` cleans to, as `run_month` would return it.
fn month_over(raw: quicksand_bgp::UpdateLog, horizon_end: quicksand_net::SimTime) -> MonthResult {
    let config = quicksand_bgp::CleaningConfig::default();
    let (cleaned, removed_duplicates, reset_bursts) =
        quicksand_bgp::clean_session_resets(&raw, &config);
    MonthResult {
        raw,
        cleaned,
        removed_duplicates,
        reset_bursts,
        horizon_end,
    }
}

/// T1, F3L and F3R read from the cleaned-log view's own runs equal the
/// same statistics over the view copied out with `to_log` and regrouped
/// from scratch by `SessionPrefixRuns::new`: on the month as replayed,
/// and on the month after a `FaultInjector` degraded its raw log.
fn assert_view_statistics_match_regrouped(s: &Scenario, m: &MonthResult, fault_seed: u64) {
    use quicksand_bgp::fault::{FaultInjector, FaultProfile};
    use quicksand_bgp::metrics::SessionPrefixRuns;
    let check = |m: &MonthResult, what: &str| {
        let cleaned = m.cleaned.to_log(&m.raw);
        let regrouped = SessionPrefixRuns::new(&cleaned, None);
        let fp = |v: &dyn std::fmt::Debug| quicksand_bgp::feed::fnv64(format!("{v:?}").as_bytes());
        assert_eq!(
            statistics_fingerprints(s, m),
            [
                fp(&table1_over(s, &regrouped)),
                fp(&fig3_left_over(s, &regrouped)),
                fp(&fig3_right_over(s, &regrouped, m.horizon_end)),
            ],
            "{what}: view statistics differ from the regrouped log's"
        );
    };
    check(m, "plain");
    let injector =
        FaultInjector::new(FaultProfile::with_intensity(0.3, fault_seed)).expect("valid profile");
    let (degraded, report) = injector.apply(&m.raw);
    assert!(report.total_lost() > 0, "the profile degraded nothing");
    check(&month_over(degraded, m.horizon_end), "faulted");
}

/// The view differential at the small tier, at the `QUICKSAND_TEST_SEEDS`
/// seeds.
#[test]
fn view_statistics_match_regrouped_log() {
    for seed in env_seeds(&[4242, 7]) {
        let s = Scenario::build(ScenarioConfig::small(seed));
        let m = s.run_month().expect("valid collector config");
        assert_view_statistics_match_regrouped(&s, &m, seed);
    }
}

/// The view differential on a full large-tier month, `#[ignore]`d and
/// gated on `QUICKSAND_TEST_LARGE=1` like the other large-tier gates.
#[test]
#[ignore = "large tier: a full month; QUICKSAND_TEST_LARGE=1 cargo test -- --ignored"]
fn large_tier_view_statistics_match_regrouped_log() {
    if std::env::var("QUICKSAND_TEST_LARGE").as_deref() != Ok("1") {
        eprintln!("skipped: set QUICKSAND_TEST_LARGE=1 to run the large view differential");
        return;
    }
    for seed in env_seeds(&[28]) {
        let s = Scenario::build(ScenarioConfig::at_scale(&Scale::Large, seed));
        let m = s.run_month().expect("valid collector config");
        assert_view_statistics_match_regrouped(&s, &m, seed);
    }
}

/// The paper-shaped month (`ScenarioConfig::default()`: 2000 ASes,
/// the paper's relay counts, 30 days) is pinned bit for bit: the raw
/// log's `raw_log_fnv` (fnv64 of its MRT encoding, as `repro
/// bench-snapshot` prints it) and the fnv64 of T1's `Debug` rendering.
/// `#[ignore]`d and gated on `QUICKSAND_TEST_LARGE=1` like the
/// large-tier gates: the month takes ~30 s in a release build.
#[test]
#[ignore = "full config: a paper-shaped month; QUICKSAND_TEST_LARGE=1 cargo test -- --ignored"]
fn full_config_month_is_pinned() {
    if std::env::var("QUICKSAND_TEST_LARGE").as_deref() != Ok("1") {
        eprintln!("skipped: set QUICKSAND_TEST_LARGE=1 to run the full-config month pin");
        return;
    }
    let s = Scenario::build(ScenarioConfig::default());
    let m = s.run_month().expect("valid collector config");
    assert_eq!(m.raw.fingerprint(), 0xf8c97b13a6e2baf2, "raw_log_fnv");
    assert_eq!(
        quicksand_bgp::feed::fnv64(format!("{:?}", table1(&s, &m)).as_bytes()),
        0x2aa4f79c88b86bf1,
        "T1"
    );
}

/// F2L: guard/exit relays are concentrated — a handful of ASes host a
/// disproportionate share.
#[test]
fn fig2_left_shape() {
    let (s, _) = world();
    let f = fig2_left(s);
    assert!(
        f.top5_share > 0.15,
        "no concentration: top-5 share {:.3}",
        f.top5_share
    );
    // And yet the tail is long (many ASes host at least one relay).
    assert!(f.n_hosting_ases > 20);
}

/// F2R: all four segment curves are nearly identical — the asymmetric
/// observation claim.
#[test]
fn fig2_right_shape() {
    let f = fig2_right(
        &CircuitFlowConfig {
            first_hop: TcpConfig {
                transfer_bytes: 6 << 20,
                ..Default::default()
            },
            ..Default::default()
        },
        30,
    );
    assert!(
        f.min_pairwise_correlation > 0.95,
        "curves diverge: {}",
        f.min_pairwise_correlation
    );
}

/// F3L: Tor prefixes churn more than the per-session median prefix.
#[test]
fn fig3_left_shape() {
    let (s, m) = world();
    let f = fig3_left(s, m);
    assert!(
        f.fraction_above_one > 0.3,
        "Tor prefixes not churnier: {:.3}",
        f.fraction_above_one
    );
    assert!(f.max_ratio > 3.0, "no heavy tail: {}", f.max_ratio);
}

/// F3R: churn grants extra ASes a ≥5-minute look at Tor traffic. The
/// test world runs only a week of churn, so assert the shape at
/// proportionally lower levels. The default-config month reads 32.2%
/// at ≥2 extra ASes, short of the paper's ~50% (ROADMAP.md item 4).
#[test]
fn fig3_right_shape() {
    let (s, m) = world();
    let f = fig3_right(s, m);
    assert!(
        f.ccdf.at(1.0) > 0.15,
        "too little extra exposure at ≥1: {:.3}",
        f.ccdf.at(1.0)
    );
    assert!(
        f.fraction_at_least_2 > 0.05,
        "too little extra exposure at ≥2: {:.3}",
        f.fraction_at_least_2
    );
    // Not everything explodes: the tail thins out.
    assert!(f.fraction_above_5 < f.fraction_at_least_2);
}

/// §3.3: over sampled circuits, the asymmetric predicate never shrinks
/// and sometimes strictly grows the set of deanonymizing ASes. Gains
/// are rare at test scale (routing is often symmetric under one policy
/// model), so sample broadly with cached trees.
#[test]
fn asymmetric_mode_dominates_symmetric() {
    let (s, _) = world();
    let g = &s.topo.graph;
    let stubs = &s.topo.stubs;
    let guards: Vec<Asn> = s.consensus.guards().map(|r| r.host_as).collect();
    let exits: Vec<Asn> = s.consensus.exits().map(|r| r.host_as).collect();
    let mut trees: std::collections::BTreeMap<Asn, RoutingTree> =
        std::collections::BTreeMap::new();
    let mut strictly_larger = 0usize;
    let mut circuits = 0usize;
    for i in 0..400usize {
        let client = stubs[i * 7 % stubs.len()];
        let guard = guards[i * 13 % guards.len()];
        let exit = exits[i * 17 % exits.len()];
        let dest = stubs[(i * 23 + 41) % stubs.len()];
        let distinct: std::collections::BTreeSet<Asn> =
            [client, guard, exit, dest].into_iter().collect();
        if distinct.len() < 4 {
            continue;
        }
        for a in [client, guard, exit, dest] {
            trees
                .entry(a)
                .or_insert_with(|| RoutingTree::compute(g, a).unwrap());
        }
        let obs = quicksand_core::adversary::SegmentObservers::compute(
            g,
            client,
            guard,
            exit,
            dest,
            &trees[&guard],
            &trees[&client],
            &trees[&dest],
            &trees[&exit],
        )
        .unwrap();
        let sym = obs.deanonymizing_ases(ObservationMode::SymmetricOnly);
        let asym = obs.deanonymizing_ases(ObservationMode::AnyDirection);
        assert!(sym.is_subset(&asym), "asymmetric must dominate");
        if asym.len() > sym.len() {
            strictly_larger += 1;
        }
        circuits += 1;
    }
    assert!(circuits >= 300);
    assert!(
        strictly_larger > 0,
        "asymmetry never helped across {circuits} circuits — suspicious"
    );
}

/// §5: dynamics-aware guard selection beats vanilla on the temporal
/// exposure metric, and the monitor catches injected attacks.
#[test]
fn countermeasures_shape() {
    let (s, m) = world();
    let eval = evaluate_guard_strategies(s, 5, 3, &[0.05], 9);
    let x_of = |st: GuardStrategy| {
        eval.rows
            .iter()
            .find(|(q, _, _)| *q == st)
            .map(|(_, x, _)| *x)
            .unwrap()
    };
    assert!(x_of(GuardStrategy::DynamicsAware) <= x_of(GuardStrategy::Vanilla) + 1e-9);
    let mon = evaluate_monitoring(s, m, 16, 9);
    assert_eq!(mon.hijack_score.recall(), 1.0);
    assert!(mon.splice_score.recall() > 0.4);
}

/// Determinism across the whole pipeline: identical seeds produce
/// identical logs and figures.
#[test]
fn pipeline_is_deterministic() {
    let a = Scenario::build(ScenarioConfig::small(606)).run_month().unwrap();
    let b = Scenario::build(ScenarioConfig::small(606)).run_month().unwrap();
    assert_eq!(a.raw.len(), b.raw.len());
    assert_eq!(a.cleaned.to_log(&a.raw), b.cleaned.to_log(&b.raw));
}

/// A full month's log survives the MRT-style binary round trip, and the
/// figures computed from the decoded log are identical.
#[test]
fn month_log_roundtrips_through_mrt() {
    let (s, m) = world();
    let mut buf = Vec::new();
    let cleaned = m.cleaned.to_log(&m.raw);
    quicksand_bgp::mrt::write_log(&cleaned, &mut buf).expect("serialize");
    let back = quicksand_bgp::mrt::read_log(&mut buf.as_slice()).expect("parse");
    assert_eq!(back.records, cleaned.records);
    // Metrics computed on the decoded log agree exactly.
    let before = fig3_left(s, m);
    let reparsed = month_over(back, m.horizon_end);
    assert_eq!(reparsed.removed_duplicates, 0, "a cleaned log cleans to itself");
    let after = fig3_left(s, &reparsed);
    assert_eq!(before.ccdf.len(), after.ccdf.len());
    assert_eq!(before.fraction_above_one, after.fraction_above_one);
}
