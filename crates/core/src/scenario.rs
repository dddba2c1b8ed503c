//! End-to-end scenario orchestration: the paper's measurement pipeline.
//!
//! [`Scenario::build`] assembles the world: a tiered AS topology, an
//! address/announcement plan, a calibrated Tor consensus, the relay→
//! prefix join ("Tor prefixes"), and a set of route-collector sessions.
//! [`Scenario::run_month`] then plays a month of churn through the
//! fast-reconvergence BGP simulator, records collector update logs
//! (session resets included), and applies the paper's cleaning pass —
//! yielding exactly the dataset shape §4 analyzes.
//!
//! [`Scenario::path_history`] is the same replay but recording path
//! timelines at arbitrary vantage ASes (e.g. sampled Tor clients toward
//! their guards), which feeds the temporal-compromise model and the
//! countermeasure evaluation.

use quicksand_bgp::metrics::PathTimeline;
use quicksand_bgp::{
    clean_session_resets, ChurnConfig, ChurnEvent, ChurnGenerator, CleanedLog, CleaningConfig,
    Collector, CollectorConfig, ExportCache, FastConverge, LinkChange, PrefixTable, UpdateLog,
};
use quicksand_net::{Asn, Ipv4Prefix, QsResult, QuicksandError, SimTime};
use quicksand_obs as obs;
use crate::parallel::Parallelism;
use quicksand_recover::{config_fingerprint, HookAction, MetricsState, PipelineSnapshot};
use quicksand_topology::{GeneratedTopology, TopologyConfig, TopologyGenerator};
use quicksand_tor::{
    map_tor_prefixes, AddressPlan, AddressPlanConfig, Consensus, ConsensusConfig,
    ConsensusGenerator, TorPrefixes,
};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::{BTreeMap, BTreeSet};

/// Where the month replay's churn events come from: generated in-span
/// from the scenario seed (batch mode), or delivered by a streaming
/// feed session. Both drive the identical replay loop.
enum ReplaySource<'a> {
    /// Generate the pure-seeded schedule locally.
    Generate,
    /// Consume events as a feed session delivers them; an `Err` item
    /// aborts the replay typed.
    Stream(&'a mut dyn Iterator<Item = QsResult<ChurnEvent>>),
}

/// Configuration for [`Scenario::build`].
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// Topology generation.
    pub topology: TopologyConfig,
    /// Address/announcement plan.
    pub plan: AddressPlanConfig,
    /// Tor consensus generation.
    pub consensus: ConsensusConfig,
    /// Churn schedule.
    pub churn: ChurnConfig,
    /// Collector construction (feed mix, reset rate).
    pub collector: CollectorConfig,
    /// Number of collector eBGP sessions (the paper used >70 across 4
    /// collectors).
    pub n_sessions: usize,
    /// Number of control (non-Tor) origin ASes whose prefixes are also
    /// tracked, providing the per-session churn medians of Fig 3.
    pub n_control_origins: usize,
    /// Master seed for vantage/control sampling.
    pub seed: u64,
    /// Execution width for the month replay: the threads its routing
    /// trees are built on. Serial by default; any other value must —
    /// and, per the differential harness, does — produce
    /// bitwise-identical output. Excluded from
    /// [`ScenarioConfig::fingerprint`], so checkpoints are portable
    /// across jobs counts.
    pub parallelism: Parallelism,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            topology: TopologyConfig::default(),
            plan: AddressPlanConfig::default(),
            consensus: ConsensusConfig::default(),
            churn: ChurnConfig::default(),
            collector: CollectorConfig::default(),
            n_sessions: 70,
            n_control_origins: 300,
            seed: 0x5CEA,
            parallelism: Parallelism::serial(),
        }
    }
}

/// A scenario tier: the one knob the CLI, the bench harness, and the
/// tests thread through to [`ScenarioConfig::at_scale`]. The named
/// tiers are frozen (their fingerprints are checkpoint/feed identity);
/// `Custom` carries an explicit [`ScaleSpec`] for everything else, up
/// to the ~50k-AS / ~500k-prefix regime.
#[derive(Clone, Debug, PartialEq)]
pub enum Scale {
    /// A few hundred ASes, a week of churn — fast tests.
    Small,
    /// 800 ASes, two weeks of churn — the historical bench tier.
    Medium,
    /// 20k ASes, ~110k tracked prefixes, 16 sessions — the
    /// Internet-scale bench tier.
    Large,
    /// An explicit spec, e.g. parsed from `--scale=n_ases=50000,...`.
    Custom(ScaleSpec),
}

impl Scale {
    /// Parse a `--scale` argument: one of the named tiers, or a
    /// comma-separated `key=value` list overriding [`ScaleSpec::large`]
    /// defaults (e.g. `n_ases=50000,sessions=100,horizon_days=1`).
    pub fn parse(s: &str) -> Result<Scale, String> {
        match s {
            "small" => return Ok(Scale::Small),
            "medium" => return Ok(Scale::Medium),
            "large" => return Ok(Scale::Large),
            _ => {}
        }
        let mut spec = ScaleSpec::large();
        for part in s.split(',') {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("scale spec `{part}` is not key=value"))?;
            let int = || value.parse::<usize>().map_err(|e| format!("{key}: {e}"));
            let float = || value.parse::<f64>().map_err(|e| format!("{key}: {e}"));
            match key {
                "n_ases" => spec.n_ases = int()?,
                "n_tier1" => spec.n_tier1 = int()?,
                "n_regions" => spec.n_regions = int()?,
                "peer_locality" => spec.peer_locality = float()?,
                "t2_peer_degree" => spec.t2_peer_degree = float()?,
                "relays" => spec.n_relays = int()?,
                "guards" => spec.n_guards = int()?,
                "exits" => spec.n_exits = int()?,
                "both" => spec.n_both = int()?,
                "tail_ases" => spec.n_tail_ases = int()?,
                "dense_origins" => spec.dense_origins = int()?,
                "extra_specifics" => spec.extra_specifics_max = int()? as u32,
                "horizon_days" => spec.horizon_days = int()? as u64,
                "sessions" => spec.n_sessions = int()?,
                "control_origins" => spec.n_control_origins = int()?,
                "frac_full" => spec.frac_full = float()?,
                "resets" => spec.resets_per_session = float()?,
                "base_failures" => spec.base_failures_per_horizon = float()?,
                _ => return Err(format!("unknown scale key `{key}`")),
            }
        }
        Ok(Scale::Custom(spec))
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scale::Small => write!(f, "small"),
            Scale::Medium => write!(f, "medium"),
            Scale::Large => write!(f, "large"),
            Scale::Custom(spec) => write!(f, "custom-{}ases", spec.n_ases),
        }
    }
}

/// Every tier-varying parameter of a scenario, in one place. The three
/// named constructors are the single source of truth for what
/// `small`/`medium`/`large` mean; [`ScenarioConfig::at_scale`] expands
/// a spec into the full configuration through one shared code path.
#[derive(Clone, Debug, PartialEq)]
pub struct ScaleSpec {
    /// Total ASes.
    pub n_ases: usize,
    /// Tier-1 clique width.
    pub n_tier1: usize,
    /// Topology regions; 0 selects the legacy generator path.
    pub n_regions: usize,
    /// Regional locality of peering/provider draws (regional path).
    pub peer_locality: f64,
    /// Expected tier-2 peering degree (regional path).
    pub t2_peer_degree: f64,
    /// Relay count.
    pub n_relays: usize,
    /// Guard-flagged relays.
    pub n_guards: usize,
    /// Exit-flagged relays.
    pub n_exits: usize,
    /// Relays flagged both.
    pub n_both: usize,
    /// Non-hosting ASes eligible to host tail relays.
    pub n_tail_ases: usize,
    /// ASes that deaggregate their /16 into 256 /24s (tracked-prefix
    /// volume; see [`AddressPlanConfig::dense_origins`]).
    pub dense_origins: usize,
    /// Extra scattered /24s per ordinary AS (table thickness).
    pub extra_specifics_max: u32,
    /// Churn/collector horizon, days.
    pub horizon_days: u64,
    /// Collector eBGP sessions.
    pub n_sessions: usize,
    /// Control origins padding the tracked population.
    pub n_control_origins: usize,
    /// Fraction of sessions with full (all-class) feeds.
    pub frac_full: f64,
    /// Expected session resets per session per horizon.
    pub resets_per_session: f64,
    /// Median per-link failures per horizon.
    pub base_failures_per_horizon: f64,
}

impl ScaleSpec {
    /// The `small` tier: field-for-field what `ScenarioConfig::small`
    /// has always produced.
    pub fn small() -> Self {
        ScaleSpec {
            n_ases: 200,
            n_tier1: 4,
            n_regions: 0,
            peer_locality: 0.0,
            t2_peer_degree: 0.0,
            n_relays: 300,
            n_guards: 125,
            n_exits: 58,
            n_both: 29,
            n_tail_ases: 80,
            dense_origins: 0,
            extra_specifics_max: 0,
            horizon_days: 7,
            n_sessions: 12,
            n_control_origins: 60,
            frac_full: 0.25,
            resets_per_session: 1.0,
            base_failures_per_horizon: 0.3,
        }
    }

    /// The `medium` tier: the historical bench scenario.
    pub fn medium() -> Self {
        ScaleSpec {
            n_ases: 800,
            n_tier1: 6,
            horizon_days: 14,
            n_sessions: 30,
            n_control_origins: 150,
            ..ScaleSpec::small()
        }
    }

    /// The `large` tier: the Internet-scale regime. 20k ASes on the
    /// regional generator path, ~113k tracked prefixes (450 dense
    /// origins × 257 prefixes). Per-event observation work is
    /// `sessions × Σ prefixes(affected origins)` — with ~43% of origins
    /// under any failed link's subtree, one event re-observes ~50k
    /// prefixes per session — so the session count and churn rate are
    /// the thinned knobs here (the AS and prefix floors are the scale
    /// targets; session breadth is not), and resets are rare because a
    /// single reset re-dumps a whole 113k-entry session table.
    pub fn large() -> Self {
        ScaleSpec {
            n_ases: 20_000,
            n_tier1: 12,
            n_regions: 8,
            peer_locality: 0.7,
            t2_peer_degree: 4.0,
            n_relays: 1200,
            n_guards: 500,
            n_exits: 230,
            n_both: 115,
            n_tail_ases: 250,
            dense_origins: 450,
            extra_specifics_max: 8,
            horizon_days: 2,
            n_sessions: 16,
            n_control_origins: 450,
            frac_full: 0.125,
            resets_per_session: 0.125,
            base_failures_per_horizon: 0.001,
        }
    }
}

impl ScenarioConfig {
    /// The scale-driven builder: every tier — and every custom spec —
    /// expands through this one code path. The named tiers' expansions
    /// are frozen: `at_scale(Small, s)` and `at_scale(Medium, s)`
    /// reproduce the historical `small(s)`/`medium(s)` configurations
    /// fingerprint-for-fingerprint (see the tripwire test).
    pub fn at_scale(scale: &Scale, seed: u64) -> Self {
        let spec = match scale {
            Scale::Small => ScaleSpec::small(),
            Scale::Medium => ScaleSpec::medium(),
            Scale::Large => ScaleSpec::large(),
            Scale::Custom(spec) => spec.clone(),
        };
        let horizon = quicksand_net::SimDuration::from_days(spec.horizon_days);
        ScenarioConfig {
            topology: TopologyConfig {
                n_ases: spec.n_ases,
                n_tier1: spec.n_tier1,
                n_regions: spec.n_regions,
                peer_locality: spec.peer_locality,
                t2_peer_degree: spec.t2_peer_degree,
                seed,
                ..Default::default()
            },
            plan: AddressPlanConfig {
                dense_origins: spec.dense_origins,
                extra_specifics_max: spec.extra_specifics_max,
                ..Default::default()
            },
            consensus: ConsensusConfig {
                n_relays: spec.n_relays,
                n_guards: spec.n_guards,
                n_exits: spec.n_exits,
                n_both: spec.n_both,
                n_tail_ases: spec.n_tail_ases,
                seed,
                ..Default::default()
            },
            churn: ChurnConfig {
                horizon,
                base_failures_per_horizon: spec.base_failures_per_horizon,
                seed,
                ..Default::default()
            },
            collector: CollectorConfig {
                horizon,
                frac_full: spec.frac_full,
                resets_per_session: spec.resets_per_session,
                seed,
            },
            n_sessions: spec.n_sessions,
            n_control_origins: spec.n_control_origins,
            seed,
            parallelism: Parallelism::serial(),
        }
    }

    /// A small configuration for tests: a few hundred ASes, 300 relays,
    /// a week of churn, 12 sessions. Equivalent to
    /// `at_scale(&Scale::Small, seed)`.
    pub fn small(seed: u64) -> Self {
        ScenarioConfig::at_scale(&Scale::Small, seed)
    }

    /// A medium configuration for benchmarks: between [`Self::small`]
    /// and the full scale — 800 ASes, two weeks of churn, 30 sessions.
    /// This is the historical scenario `repro bench-snapshot` measures
    /// for the month-replay perf trajectory (`BENCH_monthreplay.json`).
    /// Equivalent to `at_scale(&Scale::Medium, seed)`.
    pub fn medium(seed: u64) -> Self {
        ScenarioConfig::at_scale(&Scale::Medium, seed)
    }

    /// The Internet-scale configuration: 20k ASes on the regional
    /// generator path, ~110k tracked prefixes, 16 sessions, two days
    /// of thinned churn. Equivalent to `at_scale(&Scale::Large, seed)`.
    pub fn large(seed: u64) -> Self {
        ScenarioConfig::at_scale(&Scale::Large, seed)
    }

    /// The scenario fingerprint checkpoints and feed sessions are
    /// stamped with. Execution width is not scenario identity — output
    /// is bitwise identical at any jobs count — so `parallelism` is
    /// normalized away before fingerprinting. Equals
    /// [`Scenario::config_hash`] of the built scenario, without the
    /// cost of building it.
    pub fn fingerprint(&self) -> u64 {
        let mut identity = self.clone();
        identity.parallelism = Parallelism::default();
        config_fingerprint(&identity)
    }
}

/// A fully assembled world.
pub struct Scenario {
    /// The scenario's configuration.
    pub config: ScenarioConfig,
    /// Topology and roles.
    pub topo: GeneratedTopology,
    /// Address plan and announced prefixes.
    pub plan: AddressPlan,
    /// The Tor consensus.
    pub consensus: Consensus,
    /// The relay→prefix join.
    pub tor_prefixes: TorPrefixes,
    /// The ASes peering with the collectors (one session each).
    pub session_peers: Vec<Asn>,
    /// Control origins whose prefixes pad the tracked population.
    pub control_origins: Vec<Asn>,
}

/// The outcome of a month-long measurement run.
#[derive(Debug)]
pub struct MonthResult {
    /// The raw update log (reset artifacts included).
    pub raw: UpdateLog,
    /// The cleaned log (duplicates removed, as the paper does), a view
    /// over `raw`: read it with `cleaned.records(&raw)`,
    /// `cleaned.runs(&raw)` or `cleaned.to_log(&raw)`.
    pub cleaned: CleanedLog,
    /// How many duplicate records the cleaning removed.
    pub removed_duplicates: usize,
    /// How many session-reset bursts were detected.
    pub reset_bursts: usize,
    /// End of the measurement horizon.
    pub horizon_end: SimTime,
}

impl Scenario {
    /// Assemble the world from a configuration.
    pub fn build(config: ScenarioConfig) -> Scenario {
        let _span = obs::prof::span("topology", "build");
        let topo = {
            let _span = obs::prof::span("topology", "generate");
            TopologyGenerator::new(config.topology.clone()).generate()
        };
        let plan = {
            let _span = obs::prof::span("tor", "plan");
            AddressPlan::generate(&topo.graph, &topo.hosting, &config.plan)
        };
        let consensus = {
            let _span = obs::prof::span("tor", "consensus");
            let asns: Vec<Asn> = topo.graph.asns().collect();
            ConsensusGenerator::new(config.consensus.clone()).generate(&plan, &topo.hosting, &asns)
        };
        let tor_prefixes = {
            let _span = obs::prof::span("tor", "prefix_join");
            map_tor_prefixes(&consensus, &plan.table)
        };

        let select_span = obs::prof::span("scenario", "select");
        let mut rng = StdRng::seed_from_u64(config.seed);
        // Collector peers: RIS peers are ISPs, so draw a quarter from
        // the tier-1 clique and the rest from the *largest* tier-2s
        // (customer-cone size drives how much of the table a partial
        // feed exports — the paper's sessions saw a median of 35% of
        // Tor prefixes).
        let mut peers: Vec<Asn> = Vec::new();
        let mut taken: BTreeSet<Asn> = BTreeSet::new();
        let push = |peers: &mut Vec<Asn>, taken: &mut BTreeSet<Asn>, a: Asn| {
            if peers.len() < config.n_sessions && taken.insert(a) {
                peers.push(a);
            }
        };
        for &a in topo.tier1.iter().take(config.n_sessions / 4) {
            push(&mut peers, &mut taken, a);
        }
        let mut t2 = topo.tier2.clone();
        t2.sort_by_key(|a| std::cmp::Reverse(topo.graph.customers(*a).count()));
        for a in t2 {
            push(&mut peers, &mut taken, a);
        }
        let mut stubs = topo.stubs.clone();
        stubs.shuffle(&mut rng);
        for s in stubs {
            push(&mut peers, &mut taken, s);
        }
        peers.truncate(config.n_sessions);

        // Control origins: ASes hosting no relays. When the plan has
        // dense origins (large tiers), they *are* the control
        // population — their deaggregated /24s carry the tracked-prefix
        // volume; otherwise a uniform sample, as always.
        let relay_ases: BTreeSet<Asn> =
            consensus.relays.iter().map(|r| r.host_as).collect();
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
        drop(select_span);

        obs::incr("topology", "builds", 1);
        obs::gauge("topology", "ases", topo.graph.len() as f64);
        obs::gauge("topology", "relays", consensus.len() as f64);
        obs::gauge("topology", "tor_prefixes", tor_prefixes.len() as f64);
        obs::gauge("topology", "sessions", peers.len() as f64);

        Scenario {
            config,
            topo,
            plan,
            consensus,
            tor_prefixes,
            session_peers: peers,
            control_origins: control,
        }
    }

    /// The announced-prefix table.
    pub fn table(&self) -> &PrefixTable {
        &self.plan.table
    }

    /// All tracked prefixes (Tor + control), with their origins.
    pub fn tracked_prefixes(&self) -> BTreeMap<Ipv4Prefix, Asn> {
        let mut out: BTreeMap<Ipv4Prefix, Asn> = self
            .tor_prefixes
            .origin_by_prefix
            .iter()
            .map(|(p, a)| (*p, *a))
            .collect();
        // One pass over the table: per-origin `prefixes_of` calls would
        // each scan all of it.
        let control: BTreeSet<Asn> = self.control_origins.iter().copied().collect();
        out.extend(self.plan.table.iter().filter(|(_, o)| control.contains(o)));
        out
    }

    /// The Tor prefixes (guard/exit-hosting).
    pub fn tor_prefix_set(&self) -> BTreeSet<Ipv4Prefix> {
        self.tor_prefixes.prefixes()
    }

    /// Play the churn schedule, recording collector update logs, then
    /// clean session resets. This is the paper's dataset construction.
    ///
    /// Fails with a typed error when the collector configuration is
    /// invalid (e.g. `frac_full` outside `[0, 1]`).
    pub fn run_month(&self) -> QsResult<MonthResult> {
        self.run_month_checkpointed(None, 0, |_| HookAction::Continue)
    }

    /// The fingerprint checkpoints of this scenario are stamped with; a
    /// resume against a snapshot carrying a different fingerprint is
    /// refused with [`QuicksandError::ResumeMismatch`].
    ///
    /// Execution width is not scenario identity — output is bitwise
    /// identical at any jobs count — so `parallelism` is normalized
    /// away before fingerprinting: a checkpoint taken at one `--jobs`
    /// value resumes under any other.
    pub fn config_hash(&self) -> u64 {
        self.config.fingerprint()
    }

    /// Build the pipeline snapshot for a run of this scenario that has
    /// fully processed `cursor` churn events. The snapshot takes `log`
    /// by value; the replay moves it back out after the hook has run,
    /// so a checkpoint never copies the log (DESIGN.md §23).
    fn snapshot_at(
        &self,
        cursor: u64,
        fc: &FastConverge,
        collector: &Collector,
        log: UpdateLog,
    ) -> PipelineSnapshot {
        PipelineSnapshot {
            config_hash: self.config_hash(),
            seed: self.config.seed,
            cursor,
            down_links: fc.down_links().to_vec(),
            collector: collector.export_state(),
            log,
            monitor: None,
            metrics: MetricsState::capture(&obs::metrics()),
        }
    }

    /// [`Scenario::run_month`] with a checkpoint hook: after every
    /// `every` fully-processed churn events (0 disables), `hook`
    /// receives a [`PipelineSnapshot`] it may persist; returning
    /// [`HookAction::Stop`] aborts the run with
    /// [`QuicksandError::Interrupted`].
    ///
    /// Pass a previously captured snapshot as `resume` to continue an
    /// interrupted run. The resume contract is *exactness*: an
    /// interrupted-then-resumed run produces a `MonthResult` (and,
    /// with metrics restored, a normalized run report) bitwise
    /// identical to an uninterrupted run of the same scenario. This
    /// rests on three determinism properties (argued in DESIGN.md §9):
    /// the churn schedule is a pure function of its seed, so the event
    /// cursor addresses a unique position; `FastConverge` state is
    /// fully reconstructible from the set of currently-down links; and
    /// the collector's roster/reset schedule are regenerated from
    /// configuration, with only its mutable state carried over.
    pub fn run_month_checkpointed(
        &self,
        resume: Option<&PipelineSnapshot>,
        every: u64,
        hook: impl FnMut(&PipelineSnapshot) -> HookAction,
    ) -> QsResult<MonthResult> {
        self.run_month_impl(ReplaySource::Generate, resume, every, hook)
    }

    /// The month's churn schedule, exactly as the batch replay would
    /// generate it: a pure function of the scenario configuration, so
    /// a feed client built from the same config streams the identical
    /// event sequence the receiver would have generated locally.
    pub fn churn_schedule(&self) -> Vec<ChurnEvent> {
        let _span = obs::prof::span("churn", "generate");
        ChurnGenerator::new(self.config.churn.clone())
            .generate(&self.topo.graph, &self.topo.hosting)
    }

    /// [`Scenario::run_month_checkpointed`] over an externally supplied
    /// event stream instead of the locally generated schedule — the
    /// consumption side of the streaming feed plane (DESIGN.md §14).
    ///
    /// The stream yields churn events in schedule order; an `Err` item
    /// (feed lost, graceful-restart expiry) aborts the run typed. When
    /// the streamed events equal the generated schedule — which the
    /// feed handshake's `config_hash` check establishes — the result is
    /// bitwise identical to [`Scenario::run_month`]: the replay loop is
    /// the same code either way, parameterized only by where events
    /// come from. Resume semantics are unchanged: the stream always
    /// starts at sequence 0 and events before the checkpoint cursor are
    /// skipped, exactly as the batch path skips them.
    pub fn run_month_streamed(
        &self,
        events: &mut dyn Iterator<Item = QsResult<ChurnEvent>>,
        resume: Option<&PipelineSnapshot>,
        every: u64,
        hook: impl FnMut(&PipelineSnapshot) -> HookAction,
    ) -> QsResult<MonthResult> {
        self.run_month_impl(ReplaySource::Stream(events), resume, every, hook)
    }

    fn run_month_impl(
        &self,
        source: ReplaySource<'_>,
        resume: Option<&PipelineSnapshot>,
        every: u64,
        mut hook: impl FnMut(&PipelineSnapshot) -> HookAction,
    ) -> QsResult<MonthResult> {
        let prep_span = obs::prof::span("scenario", "prep");
        let tracked = self.tracked_prefixes();
        let origins: BTreeSet<Asn> = tracked.values().copied().collect();
        let prefixes_by_origin: BTreeMap<Asn, Vec<Ipv4Prefix>> = {
            let mut m: BTreeMap<Asn, Vec<Ipv4Prefix>> = BTreeMap::new();
            for (p, o) in &tracked {
                m.entry(*o).or_default().push(*p);
            }
            m
        };
        drop(prep_span);

        // The collector reads routes only at its session peers, so the
        // trees store routes only where a route can pass and at those
        // peers (DESIGN.md §26).
        let init_span = obs::prof::span("fast", "init");
        let mut fc = FastConverge::with_vantages(
            self.topo.graph.clone(),
            origins.iter().copied(),
            self.session_peers.iter().copied(),
            self.config.parallelism.jobs(),
        );
        drop(init_span);
        let mut collector = Collector::new(&self.session_peers, &self.config.collector)?;
        let mut log = UpdateLog::default();
        let horizon_end = SimTime::ZERO + self.config.churn.horizon;
        let all_origins: Vec<Asn> = origins.iter().copied().collect();

        // Per-(origin, peer) memo of the interned recorded path, keyed
        // on tree epochs, with one watch row per origin. Refreshed for
        // every changed tree before each observation, so an observe
        // never walks or allocates a path; rebuilt from scratch on
        // resume (trees and epochs are too).
        let mut cache = ExportCache::new();
        let refresh = |fc: &FastConverge,
                       collector: &mut Collector,
                       cache: &mut ExportCache,
                       origins: &[Asn]| {
            let _span = obs::prof::span("collector", "refresh");
            for &o in origins {
                let Some(tree) = fc.tree(o) else { continue };
                collector.refresh_exports(fc.graph(), tree, cache);
            }
        };

        // Restore mid-run state before the first observation: the
        // snapshot's down links reconstruct the exact routing trees,
        // the collector resumes its mutable state over a regenerated
        // roster, the log continues where it stopped, and the metrics
        // registry is set so final totals match an uninterrupted run.
        let cursor = match resume {
            Some(snap) => {
                let expected = self.config_hash();
                if snap.config_hash != expected {
                    return Err(QuicksandError::ResumeMismatch {
                        what: "config_hash",
                        detail: format!(
                            "checkpoint {:#018x}, scenario {:#018x}",
                            snap.config_hash, expected
                        ),
                    });
                }
                for &(a, b) in &snap.down_links {
                    fc.apply(LinkChange::down(a, b));
                }
                collector.import_state(&snap.collector)?;
                // Pre-warm the whole export cache against the restored
                // trees. `refresh_at` is counter-free, and exports are
                // pure functions of the reconstructed trees — so after
                // this, per-event refreshes report exactly the dirty
                // (value-changed) entries an uninterrupted run would
                // have seen, keeping resume-exactness counter-for-
                // counter (first-computation sentinels would otherwise
                // read as spuriously dirty).
                refresh(&fc, &mut collector, &mut cache, &all_origins);
                log = snap.log.clone();
                snap.metrics.restore_into(&obs::metrics());
                obs::incr("recover", "resumes", 1);
                if obs::enabled(obs::Level::Info) {
                    obs::emit(
                        obs::Event::new(
                            obs::Level::Info,
                            "recover",
                            "resumed",
                            "run resumed from checkpoint",
                        )
                        .with("cursor", snap.cursor)
                        .with("log_records", snap.log.len()),
                    );
                }
                snap.cursor
            }
            None => 0,
        };

        let prefixes_of = |o: Asn| prefixes_by_origin.get(&o).map_or(&[][..], |v| v.as_slice());
        // Every observation — the two full dumps included — diffs the
        // per-session dirty-origin lists `dirty` (DESIGN.md §16).
        let observe = |collector: &mut Collector,
                       log: &mut UpdateLog,
                       at: SimTime,
                       dirty: &[Vec<Asn>],
                       cache: &ExportCache| {
            let exported = |peer: Asn, origin: Asn| cache.get(origin, peer);
            collector.observe_dirty(at, dirty, &prefixes_of, &exported, log);
        };
        // A full dump is the dirty path with every origin dirty on every
        // session. Tracked prefixes grouped by ascending origin are in
        // ascending prefix order (the address plan hands each AS its
        // blocks in index order), so the records come out exactly as a
        // prefix-ordered full scan would emit them.
        let mut dirty: Vec<Vec<Asn>> = vec![Vec::new(); self.session_peers.len()];

        // Initial table dump at t = 0 (already in the log on resume).
        if resume.is_none() {
            let _span = obs::prof::span("collector", "dump");
            refresh(&fc, &mut collector, &mut cache, &all_origins);
            for d in dirty.iter_mut() {
                d.extend_from_slice(&all_origins);
            }
            observe(&mut collector, &mut log, SimTime::ZERO, &dirty, &cache);
        }

        // Play the schedule (generation + replay are one churn span).
        let replay_started = std::time::Instant::now();
        let n_events = {
            let _replay_span = obs::prof::span("churn", "replay");
            // Batch mode generates the schedule inside the span (a pure
            // function of the seed); streaming mode consumes whatever
            // the feed session delivers. The replay below is identical
            // either way.
            let (known_total, mut events): (
                Option<usize>,
                Box<dyn Iterator<Item = QsResult<ChurnEvent>> + '_>,
            ) = match source {
                ReplaySource::Generate => {
                    let events = self.churn_schedule();
                    (Some(events.len()), Box::new(events.into_iter().map(Ok)))
                }
                ReplaySource::Stream(iter) => (None, Box::new(iter)),
            };
            if let Some(n) = known_total {
                if cursor as usize > n {
                    return Err(QuicksandError::ResumeMismatch {
                        what: "cursor",
                        detail: format!(
                            "checkpoint at event {cursor}, schedule has {n}"
                        ),
                    });
                }
            }
            // An event's observation diffs exactly the (session, origin)
            // pairs whose export value the refresh changed — the
            // dirty-set dataflow of DESIGN.md §16 — instead of every
            // prefix of every affected origin per session.
            let mut seen = 0usize;
            for (i, ev) in events.by_ref().enumerate() {
                let ev = ev?;
                seen = i + 1;
                // Events before the cursor were fully processed in the
                // interrupted run; their routing effect is encoded in
                // the restored down-link set and their records are in
                // the restored log.
                if (i as u64) < cursor {
                    continue;
                }
                let affected = {
                    let _span = obs::prof::span("churn", "apply");
                    fc.apply(ev.change)
                };
                if !affected.is_empty() {
                    // Only the changed trees advanced their epochs, so
                    // only the affected origins are refreshed; the
                    // refresh skips every origin whose routing trace
                    // misses its watch row (DESIGN.md §20) and reports,
                    // per session, the origins whose export *value*
                    // actually changed. `affected` is ascending, so each
                    // dirty list is too.
                    for d in dirty.iter_mut() {
                        d.clear();
                    }
                    {
                        let _span = obs::prof::span("collector", "refresh");
                        for &o in &affected {
                            let Some(tree) = fc.tree(o) else { continue };
                            collector.refresh_exports_dirty(
                                fc.graph(),
                                tree,
                                &mut cache,
                                &mut dirty,
                            );
                        }
                    }
                    // A clean event (every export value unchanged) can
                    // produce no log record; skipping its observation
                    // entirely is invisible in the log. Resets such an
                    // event would have flushed carry their scheduled
                    // time and emit — against an unchanged table — at
                    // the next observation.
                    if dirty.iter().any(|d| !d.is_empty()) {
                        observe(&mut collector, &mut log, ev.at, &dirty, &cache);
                    }
                }
                let done = i as u64 + 1;
                if every > 0 && done % every == 0 {
                    let snap = self.snapshot_at(done, &fc, &collector, std::mem::take(&mut log));
                    let action = hook(&snap);
                    log = snap.log;
                    if action == HookAction::Stop {
                        return Err(QuicksandError::Interrupted { events_done: done });
                    }
                }
            }
            let n = known_total.unwrap_or(seen);
            if cursor as usize > n {
                // A streamed feed's length is only known at EOF; a
                // checkpoint past it is the same mismatch the batch
                // path rejects up front.
                return Err(QuicksandError::ResumeMismatch {
                    what: "cursor",
                    detail: format!("checkpoint at event {cursor}, schedule has {n}"),
                });
            }
            n
        };
        obs::incr("churn", "events", n_events as u64);
        let replay_s = replay_started.elapsed().as_secs_f64();
        if replay_s > 0.0 {
            obs::gauge("churn", "replay_rate", n_events as f64 / replay_s);
        }

        // Final observation flushes trailing session resets. It diffs
        // nothing: after every observation each session's table equals
        // its peer's visible exports, and an event that changes no
        // export value records nothing, so a full diff here would
        // append no record (`tests/dirty_observe.rs` checks this).
        {
            let _span = obs::prof::span("collector", "dump");
            for d in dirty.iter_mut() {
                d.clear();
            }
            observe(&mut collector, &mut log, horizon_end, &dirty, &cache);
        }

        // The replay state — routing trees, collector sessions, export
        // cache — is dead once the final dump is in the log; free it
        // before cleaning allocates (DESIGN.md §19), and give back the
        // log's unused capacity, at most one of the collector's bounded
        // growth steps (DESIGN.md §28).
        drop((fc, collector, cache, dirty));
        log.records.shrink_to_fit();
        let (cleaned, removed_duplicates, reset_bursts) =
            clean_session_resets(&log, &CleaningConfig::default());
        Ok(MonthResult {
            raw: log,
            cleaned,
            removed_duplicates,
            reset_bursts,
            horizon_end,
        })
    }

    /// Replay the same churn schedule, recording the AS-set timeline of
    /// the path from each `vantage` toward each `origin` — the
    /// (client, guard) exposure histories behind the §3.1 model and the
    /// §5 countermeasures. Timelines start at t = 0 with the initial
    /// path.
    pub fn path_history(
        &self,
        vantages: &[Asn],
        origins: &[Asn],
    ) -> BTreeMap<(Asn, Asn), PathTimeline> {
        self.path_history_seeded(vantages, origins, self.config.churn.seed)
    }

    /// [`Scenario::path_history`] with an explicit churn seed — used to
    /// model *successive* measurement epochs (each month of churn is a
    /// fresh draw from the same instability distribution, over the same
    /// topology).
    pub fn path_history_seeded(
        &self,
        vantages: &[Asn],
        origins: &[Asn],
        churn_seed: u64,
    ) -> BTreeMap<(Asn, Asn), PathTimeline> {
        let origin_set: BTreeSet<Asn> = origins.iter().copied().collect();
        let mut fc = FastConverge::with_vantages(
            self.topo.graph.clone(),
            origin_set.iter().copied(),
            vantages.iter().copied(),
            1,
        );
        let mut out: BTreeMap<(Asn, Asn), PathTimeline> = BTreeMap::new();

        let record = |fc: &FastConverge,
                      out: &mut BTreeMap<(Asn, Asn), PathTimeline>,
                      at: SimTime,
                      origins: &[Asn],
                      vantages: &[Asn]| {
            for &o in origins {
                let Some(tree) = fc.tree(o) else { continue };
                for &v in vantages {
                    let set: BTreeSet<Asn> = tree
                        .path_from(fc.graph(), v)
                        .map(|p| p.into_iter().collect())
                        .unwrap_or_default();
                    let tl = out.entry((v, o)).or_default();
                    if tl.points.last().map(|(_, s)| s) != Some(&set) {
                        tl.points.push((at, set));
                    }
                }
            }
        };

        let all_origins: Vec<Asn> = origin_set.iter().copied().collect();
        record(&fc, &mut out, SimTime::ZERO, &all_origins, vantages);
        let events = ChurnGenerator::new(ChurnConfig {
            seed: churn_seed,
            ..self.config.churn.clone()
        })
        .generate(&self.topo.graph, &self.topo.hosting);
        for ev in events {
            let affected = fc.apply(ev.change);
            if !affected.is_empty() {
                record(&fc, &mut out, ev.at, &affected, vantages);
            }
        }
        out
    }

    /// The horizon end of the configured churn schedule.
    pub fn horizon_end(&self) -> SimTime {
        SimTime::ZERO + self.config.churn.horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> &'static (Scenario, MonthResult) {
        crate::testworld::get()
    }

    #[test]
    fn build_produces_consistent_world() {
        let (s, _) = world();
        assert_eq!(s.consensus.len(), s.config.consensus.n_relays);
        assert!(!s.tor_prefixes.is_empty());
        assert!(s.tor_prefixes.unmatched.is_empty(), "plan covers all relays");
        assert_eq!(s.session_peers.len(), s.config.n_sessions);
        // Control origins host no relays.
        let relay_ases: BTreeSet<Asn> =
            s.consensus.relays.iter().map(|r| r.host_as).collect();
        assert!(s.control_origins.iter().all(|o| !relay_ases.contains(o)));
        // Tracked = tor + control prefixes.
        let tracked = s.tracked_prefixes();
        assert!(tracked.len() >= s.tor_prefixes.len());
    }

    /// The one-pass `tracked_prefixes` equals the per-origin
    /// `prefixes_of` construction it replaced.
    #[test]
    fn tracked_prefixes_match_per_origin_construction() {
        let medium = Scenario::build(ScenarioConfig::medium(7));
        for s in [&world().0, &medium] {
            let mut want: BTreeMap<Ipv4Prefix, Asn> = s
                .tor_prefixes
                .origin_by_prefix
                .iter()
                .map(|(p, a)| (*p, *a))
                .collect();
            for &o in &s.control_origins {
                for p in s.plan.table.prefixes_of(o) {
                    want.insert(p, o);
                }
            }
            assert!(want.len() > s.tor_prefixes.len(), "control prefixes tracked");
            assert_eq!(s.tracked_prefixes(), want);
            // The full dumps observe every origin's prefix run in
            // ascending origin order; that equals the prefix-ordered
            // full scan only if, in prefix order, origins never decrease
            // and each origin's prefixes form one contiguous run.
            let origins: Vec<Asn> = want.values().copied().collect();
            assert!(
                origins.windows(2).all(|w| w[0] <= w[1]),
                "tracked origins decrease in prefix order"
            );
            let mut runs: Vec<Asn> = origins.clone();
            runs.dedup();
            let distinct: BTreeSet<Asn> = origins.iter().copied().collect();
            assert_eq!(runs.len(), distinct.len(), "an origin's prefixes are split");
        }
    }

    #[test]
    fn month_run_produces_cleanable_logs() {
        let (s, m) = world();
        assert!(!m.raw.is_empty());
        assert!(m.cleaned.len() <= m.raw.len());
        assert!(m.removed_duplicates > 0, "resets should create duplicates");
        // Every session produced at least one record.
        assert!(!m.cleaned.to_log(&m.raw).sessions().is_empty());
        // Some Tor prefix changed paths during the week.
        let tor = s.tor_prefix_set();
        let changes = quicksand_bgp::metrics::path_changes(&m.cleaned.to_log(&m.raw));
        let tor_changes: u32 = changes
            .iter()
            .filter(|((_, p), _)| tor.contains(p))
            .map(|(_, &c)| c)
            .sum();
        assert!(tor_changes > 0, "no Tor-prefix churn observed");
    }

    #[test]
    fn path_history_records_initial_and_changes() {
        let (s, _) = world();
        let clients: Vec<Asn> = s.topo.stubs.iter().copied().take(3).collect();
        let guards: Vec<Asn> = s
            .consensus
            .guards()
            .map(|r| r.host_as)
            .take(3)
            .collect();
        let hist = s.path_history(&clients, &guards);
        assert_eq!(hist.len(), clients.len() * guards.len());
        for ((v, o), tl) in &hist {
            assert!(
                !tl.points.is_empty(),
                "no initial path for {v}→{o}"
            );
            // First point is at t=0 with a non-empty set (connected graph).
            assert_eq!(tl.points[0].0, SimTime::ZERO);
            assert!(!tl.points[0].1.is_empty());
        }
    }

    #[test]
    fn determinism() {
        let a = Scenario::build(ScenarioConfig::small(5)).run_month().unwrap();
        let b = Scenario::build(ScenarioConfig::small(5)).run_month().unwrap();
        assert_eq!(a.raw.len(), b.raw.len());
        assert_eq!(a.cleaned.len(), b.cleaned.len());
        assert_eq!(a.removed_duplicates, b.removed_duplicates);
    }

    #[test]
    fn interrupted_then_resumed_run_is_bitwise_identical() {
        use quicksand_obs::metrics::Registry;
        use std::sync::Arc;

        let s = Scenario::build(ScenarioConfig::small(7));

        // Baseline: uninterrupted, in its own registry.
        let baseline_reg = Arc::new(Registry::new());
        let full = obs::with_metrics(baseline_reg.clone(), || s.run_month()).unwrap();

        // Crash simulation: stop at the first checkpoint (a separate
        // registry standing in for the dying process).
        let mut taken = None;
        let err = obs::with_metrics(Arc::new(Registry::new()), || {
            s.run_month_checkpointed(None, 40, |snap| {
                taken = Some(snap.clone());
                HookAction::Stop
            })
        })
        .unwrap_err();
        assert_eq!(err, QuicksandError::Interrupted { events_done: 40 });
        let snap = taken.expect("hook ran");
        assert_eq!(snap.cursor, 40);

        // Resume in a third registry (the restarted process).
        let resumed_reg = Arc::new(Registry::new());
        let resumed = obs::with_metrics(resumed_reg.clone(), || {
            s.run_month_checkpointed(Some(&snap), 0, |_| HookAction::Continue)
        })
        .unwrap();

        // The MonthResult is bitwise identical, via the binary log
        // encoding and field-for-field equality.
        let encode = |log: &UpdateLog| {
            let mut b = Vec::new();
            quicksand_bgp::mrt::write_log(log, &mut b).unwrap();
            b
        };
        assert_eq!(encode(&resumed.raw), encode(&full.raw));
        assert_eq!(
            encode(&resumed.cleaned.to_log(&resumed.raw)),
            encode(&full.cleaned.to_log(&full.raw))
        );
        assert_eq!(resumed.removed_duplicates, full.removed_duplicates);
        assert_eq!(resumed.reset_bursts, full.reset_bursts);
        assert_eq!(resumed.horizon_end, full.horizon_end);

        // Deterministic metrics (counters) also match: the resumed
        // process is indistinguishable from the uninterrupted one —
        // apart from the `recover` stage, which describes the recovery
        // machinery itself and is excluded from resume-exact comparison
        // (as in `RunReport::normalized`).
        let pipeline_counters = |r: &Registry| {
            let mut c = r.snapshot().counters;
            c.retain(|e| e.stage != "recover");
            c
        };
        assert_eq!(
            pipeline_counters(&resumed_reg),
            pipeline_counters(&baseline_reg)
        );
    }

    #[test]
    fn resume_against_different_config_is_refused() {
        let s7 = Scenario::build(ScenarioConfig::small(7));
        let s8 = Scenario::build(ScenarioConfig::small(8));
        let mut taken = None;
        let _ = s7.run_month_checkpointed(None, 40, |snap| {
            taken = Some(snap.clone());
            HookAction::Stop
        });
        let snap = taken.unwrap();
        assert!(matches!(
            s8.run_month_checkpointed(Some(&snap), 0, |_| HookAction::Continue),
            Err(QuicksandError::ResumeMismatch {
                what: "config_hash",
                ..
            })
        ));
    }

    #[test]
    fn scale_builder_preserves_historical_fingerprints() {
        // Tripwire: `small()`/`medium()` now expand through the
        // scale-driven builder (`at_scale`), and the config fingerprint
        // hashes the config's `Debug` output — so these literals pin
        // that the refactor (and the elide-at-default `Debug` impls on
        // the extended configs) left every pre-existing configuration
        // byte-identical. A change here invalidates every committed
        // checkpoint, feed binding, and resume file made before it.
        let pins: &[(u64, u64, u64)] = &[
            // (seed, small fingerprint, medium fingerprint)
            (0xA11, 0x915bcc9674ce51d1, 0xb5dabe11b0da5881),
            (0xA12, 0x178db7c0887a56dc, 0xacbf2a8bae9ecbf6),
            (5, 0x82602fd4108c43fd, 0xee4b7afcb7e526bd),
            (7, 0x97d90a205e79545f, 0x075f6aa572f60513),
        ];
        for &(seed, small_fp, medium_fp) in pins {
            assert_eq!(
                ScenarioConfig::small(seed).fingerprint(),
                small_fp,
                "small({seed:#x}) fingerprint drifted"
            );
            assert_eq!(
                ScenarioConfig::medium(seed).fingerprint(),
                medium_fp,
                "medium({seed:#x}) fingerprint drifted"
            );
            // The constructors and the scale builder are the same path.
            assert_eq!(
                ScenarioConfig::at_scale(&Scale::Small, seed).fingerprint(),
                small_fp
            );
            assert_eq!(
                ScenarioConfig::at_scale(&Scale::Medium, seed).fingerprint(),
                medium_fp
            );
        }
        assert_eq!(
            ScenarioConfig::default().fingerprint(),
            0x667ba4bb101a02d9,
            "default (full) fingerprint drifted"
        );
    }

    #[test]
    fn scale_parse_roundtrip_and_overrides() {
        assert!(matches!(Scale::parse("small"), Ok(Scale::Small)));
        assert!(matches!(Scale::parse("medium"), Ok(Scale::Medium)));
        assert!(matches!(Scale::parse("large"), Ok(Scale::Large)));
        let custom = match Scale::parse("n_ases=30000,horizon_days=1,sessions=16") {
            Ok(Scale::Custom(spec)) => spec,
            other => panic!("expected custom spec, got {other:?}"),
        };
        assert_eq!(custom.n_ases, 30_000);
        assert_eq!(custom.horizon_days, 1);
        assert_eq!(custom.n_sessions, 16);
        // Unset keys keep the large tier's values.
        assert_eq!(custom.n_regions, ScaleSpec::large().n_regions);
        assert!(Scale::parse("bogus").is_err());
        assert!(Scale::parse("n_ases=notanumber").is_err());
    }

    /// The collector grows the log by a bounded step, not by doubling:
    /// after every event of a medium month the log's spare capacity is
    /// at most a `LOG_GROWTH_DIVISOR`th of its length. A step of
    /// `max(batch, len / k)` taken when the spare room cannot hold the
    /// next batch leaves at most `len / k` spare once that batch is in;
    /// a doubling step leaves up to `len`.
    #[test]
    fn medium_month_log_grows_by_a_bounded_step() {
        use quicksand_bgp::collector::LOG_GROWTH_DIVISOR;

        let s = Scenario::build(ScenarioConfig::at_scale(&Scale::Medium, 275));
        let mut checked = 0usize;
        s.run_month_checkpointed(None, 1, |snap| {
            let (len, cap) = (snap.log.records.len(), snap.log.records.capacity());
            assert!(
                cap <= len + len / LOG_GROWTH_DIVISOR,
                "event {}: capacity {cap} for {len} records",
                snap.cursor
            );
            checked += 1;
            HookAction::Continue
        })
        .unwrap();
        assert!(checked > 1000, "a medium month has thousands of events");
    }

    #[test]
    fn checkpoint_hook_fires_on_schedule_and_zero_disables() {
        let s = Scenario::build(ScenarioConfig::small(7));
        let mut cursors = Vec::new();
        s.run_month_checkpointed(None, 100, |snap| {
            cursors.push(snap.cursor);
            HookAction::Continue
        })
        .unwrap();
        assert!(!cursors.is_empty(), "a week of churn has > 100 events");
        assert!(cursors.iter().all(|c| c % 100 == 0));
        assert!(cursors.windows(2).all(|w| w[1] == w[0] + 100));

        let mut fired = false;
        s.run_month_checkpointed(None, 0, |_| {
            fired = true;
            HookAction::Continue
        })
        .unwrap();
        assert!(!fired, "every = 0 disables the hook");
    }
}
