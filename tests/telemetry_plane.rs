//! Telemetry-plane integration (DESIGN.md §13): the JSONL sink stays
//! line-atomic when 2, 4 and 8 threads emit through it at once.
//!
//! Each emitter thread installs the one shared [`JsonlSubscriber`]
//! through `obs::with_subscriber`, so the sink receives genuinely
//! concurrent `emit` calls — exactly the situation where a torn write
//! would interleave two JSON objects on one line.

use quicksand_obs::{self as obs, Event, JsonlSubscriber, Level, Subscriber};
use std::collections::BTreeSet;
use std::sync::Arc;

const EVENTS_PER_TASK: u64 = 200;

#[test]
fn jsonl_lines_stay_atomic_under_concurrent_worker_emits() {
    let dir = std::env::temp_dir().join(format!(
        "qs-jsonl-atomic-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();

    for &jobs in &[2usize, 4, 8] {
        let path = dir.join(format!("events-{jobs}.jsonl"));
        // More tasks than emitters, handed out round-robin, so each
        // thread runs long enough to overlap the others.
        let n_tasks = jobs as u64 * 3 + 1;
        let jsonl: Arc<dyn Subscriber> =
            Arc::new(JsonlSubscriber::create(&path).unwrap());
        let emit_task = |t: u64| {
            for k in 0..EVENTS_PER_TASK {
                // A long message makes a torn write far more likely to
                // straddle buffer flushes.
                obs::emit(
                    Event::new(
                        Level::Info,
                        "parallel",
                        "burst",
                        format!("task {t} event {k} {}", "x".repeat(96)),
                    )
                    .with("task", t)
                    .with("k", k),
                );
            }
        };
        std::thread::scope(|scope| {
            for emitter in 0..jobs as u64 {
                let jsonl = Arc::clone(&jsonl);
                scope.spawn(move || {
                    obs::with_subscriber(jsonl, || {
                        (emitter..n_tasks).step_by(jobs).for_each(emit_task);
                    })
                });
            }
        });
        jsonl.flush();

        let text = std::fs::read_to_string(&path).unwrap();
        let mut bursts: BTreeSet<(u64, u64)> = BTreeSet::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            // Every line is one standalone JSON object — a torn or
            // interleaved write fails right here.
            let v: serde::Value = serde_json::from_str(line).unwrap_or_else(|e| {
                panic!("jobs={jobs}: torn JSONL line {line:?}: {e}")
            });
            if v.field("name").and_then(|n| n.as_str()) == Some("burst") {
                let fields = v.field("fields").expect("events carry a fields map");
                let num = |key: &str| match fields.field(key) {
                    Some(serde::Value::U64(n)) => *n,
                    Some(serde::Value::I64(n)) => *n as u64,
                    other => panic!("jobs={jobs}: bad {key} field: {other:?}"),
                };
                assert!(
                    bursts.insert((num("task"), num("k"))),
                    "jobs={jobs}: duplicate burst event"
                );
            }
        }
        assert_eq!(
            bursts.len() as u64,
            n_tasks * EVENTS_PER_TASK,
            "jobs={jobs}: lost events in the JSONL stream"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
