//! Streaming feed plane integration (DESIGN.md §14): a supervised cell
//! fed over loopback TCP — with a scripted mid-stream disconnect — must
//! produce a [`MonthResult`] bitwise identical to the unsupervised
//! batch replay, and a stalled peer must be reaped by the hold timer at
//! a deterministic cursor.
//!
//! These are the ISSUE acceptance gates for the feed plane: resume
//! exactness is checked three ways (structural equality, the canonical
//! MRT encoding, and the in-process `feed.identity_ok` verification the
//! cell itself performs after EOF).

use quicksand_bgp::fault::{ConnChaosPlan, ConnFaultKind};
use quicksand_bgp::feed::{self, fnv64, FeedMsg};
use quicksand_core::feed::{
    month_fnv, FeedBinding, FeedClient, FeedConfig, FeedServer, FeedSlot, ReconnectPolicy,
};
use quicksand_core::scenario::{Scenario, ScenarioConfig};
use quicksand_core::supervise::{
    CellResult, RestartPolicy, ScenarioJob, SuperviseConfig, Supervisor, WatchdogConfig,
};
use quicksand_core::telemetry::{FleetTelemetry, SessionState};
use quicksand_obs::{self as obs, Key};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Seeds for the seed-parameterized tests below; `QUICKSAND_TEST_SEEDS`
/// (comma-separated, decimal or `0x`-hex) widens the sweep in CI
/// without code edits.
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

/// The ingest tuning every test here uses: short hold and poll so the
/// suite runs in seconds, a restart window generous enough that a slow
/// CI machine cannot spuriously expire the graceful-restart timer.
fn feed_cfg() -> FeedConfig {
    FeedConfig {
        hold_ms: 500,
        restart_ms: 60_000,
        ack_every: 8,
        queue_cap: 64,
        poll_ms: 2,
    }
}

fn encode(log: &quicksand_bgp::UpdateLog) -> Vec<u8> {
    let mut bytes = Vec::new();
    quicksand_bgp::mrt::write_log(log, &mut bytes).expect("Vec write");
    bytes
}

/// One supervised cell ingesting its churn schedule over loopback, the
/// client killed (and resuming) mid-stream: the streamed month must be
/// bitwise identical to the unsupervised batch run, and the cell's own
/// post-EOF verification must publish `feed.identity_ok`.
#[test]
fn kill_and_reconnect_stream_is_bitwise_identical_to_batch() {
    let seed = 47;
    let config = ScenarioConfig::small(seed);
    let fingerprint = config.fingerprint();
    let baseline = Scenario::build(config.clone())
        .run_month()
        .expect("valid scenario");
    let schedule = Scenario::build(config.clone()).churn_schedule();
    let total = schedule.len() as u64;
    assert!(
        total > 20,
        "the kill point must land mid-stream ({total} events)"
    );

    let registry = Arc::new(obs::Registry::new());
    let (outcome, report) = obs::with_metrics(registry.clone(), || {
        let mut sup = Supervisor::new(SuperviseConfig {
            width: 1,
            queue_cap: 1,
            results_cap: 1,
            checkpoint_every: 50,
            retain: 2,
            restart: RestartPolicy {
                base_ms: 1,
                cap_ms: 5,
                max_restarts: 1,
                seed: 7,
            },
            watchdog: WatchdogConfig {
                poll_ms: 10,
                deadline_ms: 30_000,
                grace: 8.0,
            },
        });
        let slot = Arc::new(FeedSlot::new(feed_cfg()));
        let fleet = sup.telemetry();
        let telem = fleet.add_feed_session(Some(0), "cell-0", feed_cfg().hold_ms);
        let server = FeedServer::start(
            "127.0.0.1:0",
            feed_cfg(),
            vec![FeedBinding::new("cell-0", fingerprint, slot.clone(), telem)],
        )
        .expect("loopback bind");
        let addr = server.local_addr();
        sup.submit(ScenarioJob {
            label: "cell-0".into(),
            config,
            store_dir: None,
            chaos: None,
            feed: Some(slot),
            feed_verify: true,
        });
        // The client streams concurrently with the cell, dying after
        // the 17th event frame and reconnecting from the acked cursor.
        let client_thread = thread::spawn(move || {
            let mut client = FeedClient::new(addr, "cell-0", fingerprint);
            client.hold_ms = feed_cfg().hold_ms;
            client.reconnect = ReconnectPolicy {
                base_ms: 1,
                cap_ms: 5,
                max_attempts: 8,
                seed: 0xFEED,
            };
            client.chaos = ConnChaosPlan::single(17, ConnFaultKind::Disconnect);
            client.stream(&schedule)
        });
        let outcome = sup.run();
        let report = client_thread
            .join()
            .expect("client thread must not panic")
            .expect("stream must complete through the scripted disconnect");
        drop(server);
        (outcome, report)
    });

    assert_eq!(report.connects, 2, "one scripted kill, one reconnect");
    assert_eq!(report.faults_fired, 1);
    assert_eq!(report.acked, total);

    assert_eq!(outcome.cells.len(), 1);
    let cell = &outcome.cells[0];
    let CellResult::Completed { month, .. } = &cell.result else {
        panic!("feed-driven cell must complete: {:?}", cell.result);
    };
    assert_eq!(cell.restarts, 0, "a client kill must not restart the cell");
    assert_eq!(month.raw, baseline.raw);
    assert_eq!(month.cleaned, baseline.cleaned);
    assert_eq!(month.removed_duplicates, baseline.removed_duplicates);
    assert_eq!(month.reset_bursts, baseline.reset_bursts);
    assert_eq!(
        encode(&month.raw),
        encode(&baseline.raw),
        "streamed replay must be bitwise identical to the batch run"
    );
    assert_eq!(month_fnv(month), month_fnv(&baseline));

    // The cell's own streamed-equals-batch verification, as published
    // to the run report CI greps.
    let key = |name: &'static str| Key::stage("feed", name);
    assert_eq!(registry.counter_value(key("identity_ok")), 1);
    assert_eq!(registry.counter_value(key("identity_mismatch")), 0);
    assert_eq!(registry.counter_value(key("disconnects")), 1);
    assert_eq!(registry.counter_value(key("eof_ok")), 1);
    assert_eq!(registry.counter_value(key("dead_letters")), 0);
}

/// A peer that opens a session, streams a seed-determined prefix of its
/// schedule, then goes silent must be reaped by the hold timer at
/// exactly the accepted-event cursor — for every seed in the sweep.
#[test]
fn stalled_peer_is_reaped_at_a_deterministic_cursor_across_seeds() {
    for &seed in &env_seeds(&[3, 9]) {
        let schedule =
            Scenario::build(ScenarioConfig::small(seed)).churn_schedule();
        let sent = 2 + (seed as usize % 4).min(schedule.len().saturating_sub(1));
        let registry = Arc::new(obs::Registry::new());
        let (slot, telem, server) = obs::with_metrics(registry.clone(), || {
            let cfg = feed_cfg();
            let slot = Arc::new(FeedSlot::new(cfg.clone()));
            let fleet = FleetTelemetry::new(Arc::new(obs::Registry::new()));
            let telem = fleet.add_feed_session(None, "stall-peer", cfg.hold_ms);
            let server = FeedServer::start(
                "127.0.0.1:0",
                cfg,
                vec![FeedBinding::new(
                    "stall-peer",
                    seed,
                    slot.clone(),
                    telem.clone(),
                )],
            )
            .expect("loopback bind");
            (slot, telem, server)
        });

        // Raw client: open with a 40ms hold (negotiated hold is the
        // minimum of both sides), stream the prefix, then stall.
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        FeedMsg::Open {
            peer: "stall-peer".into(),
            config_hash: seed,
            hold_ms: 40,
        }
        .to_frame()
        .unwrap()
        .write_to(&mut stream)
        .unwrap();
        for (i, ev) in schedule[..sent].iter().enumerate() {
            FeedMsg::Event {
                seq: i as u64,
                event: *ev,
            }
            .to_frame()
            .unwrap()
            .write_to(&mut stream)
            .unwrap();
        }

        let deadline = Instant::now() + Duration::from_secs(10);
        while telem.reaps() == 0 {
            assert!(
                Instant::now() < deadline,
                "seed {seed}: stalled peer was never reaped"
            );
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            telem.last_reap_cursor(),
            sent as u64,
            "seed {seed}: reap must land exactly at the accepted cursor"
        );
        assert_eq!(telem.state(), SessionState::Idle);
        assert_eq!(
            slot.accepted(),
            sent as u64,
            "seed {seed}: accepted prefix is retained for graceful restart"
        );
        assert_eq!(registry.counter_value(Key::stage("feed", "reaps")), 1);
        drop(server);
    }
}

/// The feed wire format, pinned: FNV-1a over the encoded frames of a
/// whole churn session for the `small(0xA11)` schedule (handshake,
/// resume, every event, keepalive, ack, EOF), and that schedule's EOF
/// digest. A protocol refactor that changes a single byte on the wire
/// fails here.
#[test]
fn churn_session_wire_bytes_are_pinned() {
    let config = ScenarioConfig::small(0xA11);
    let fingerprint = config.fingerprint();
    let schedule = Scenario::build(config).churn_schedule();
    let total = schedule.len() as u64;
    let digest = feed::digest(&schedule);
    assert_eq!(total, 1091);
    assert_eq!(
        digest, 0x8d02_ad3f_56c2_13b5,
        "EOF digest of the small(0xA11) schedule"
    );

    let mut msgs = vec![
        FeedMsg::Open {
            peer: "cell-0".into(),
            config_hash: fingerprint,
            hold_ms: 2000,
        },
        FeedMsg::Resume { cursor: 0 },
    ];
    msgs.extend(schedule.iter().enumerate().map(|(i, ev)| FeedMsg::Event {
        seq: i as u64,
        event: *ev,
    }));
    msgs.push(FeedMsg::Keepalive { at: total });
    msgs.push(FeedMsg::Ack { cursor: total });
    msgs.push(FeedMsg::Eof { total, fnv: digest });
    let mut wire = Vec::new();
    for msg in &msgs {
        wire.extend(msg.to_frame().unwrap().encode().unwrap());
    }
    assert_eq!(wire.len(), 38_303);
    assert_eq!(
        fnv64(&wire),
        0x6b3a_ed6b_0389_e9c6,
        "churn session wire bytes"
    );
}
