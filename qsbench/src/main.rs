//! `qsbench`: the whole-pipeline benchmark of the quicksand workspace.
//!
//! ```text
//! qsbench --workload <large-month|medium-churn|fleet-checkpoint|all>
//!         [--seed N] [--seconds S] [--trace 0|1] [--trace-out=DIR] [--smoke]
//! ```
//!
//! Runs untraced passes of the workload for at least `--seconds` and
//! reports the end-to-end metrics; with `--trace 1` it adds one traced
//! pass and reports the per-layer metrics instead. The last line of
//! standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! carries the same figures with sample counts and quartiles, and for
//! the times scaled to the host's speed (`clock`) the median of the
//! seconds as measured. Exits 1
//! when any correctness check fails, 2 on a bad command line. See
//! README.md for the workloads and metric definitions.

mod alloc;
mod clock;
mod stats;
mod trace;
mod workloads;

use quicksand_bench::exitcode;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use workloads::{Metric, Options, Report, Workload};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    trace_out: Option<PathBuf>,
}

fn parse_u64(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|e| format!("bad number {s:?}: {e}"))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: Vec::new(),
        seed: 0xA11,
        seconds: 25.0,
        trace: false,
        smoke: false,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--smoke" {
            out.smoke = true;
            continue;
        }
        let (key, value) = match arg.split_once('=') {
            Some((k, v)) => (k, v.to_string()),
            None => (
                arg.as_str(),
                it.next()
                    .ok_or_else(|| format!("{arg} needs a value"))?
                    .clone(),
            ),
        };
        match key {
            "--workload" if value == "all" => out.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                out.workloads =
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?]
            }
            "--seed" => out.seed = parse_u64(&value)?,
            "--seconds" => {
                out.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--trace-out" => out.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {arg:?}")),
        }
    }
    if out.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(out)
}

/// A JSON number; every figure here is finite by construction.
fn num(v: f64) -> String {
    debug_assert!(v.is_finite(), "non-finite metric {v}");
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[Metric], detail: bool) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let mut f = format!(
                "{}:{{\"value\":{},\"unit\":{}",
                string(&m.name),
                num(m.value),
                string(m.unit)
            );
            if let (true, Some(s)) = (detail, m.summary) {
                let _ = write!(
                    f,
                    ",\"n\":{},\"p25\":{},\"p75\":{}",
                    s.n,
                    num(s.p25),
                    num(s.p75)
                );
            }
            if let (true, Some(measured)) = (detail, m.measured) {
                let _ = write!(f, ",\"measured\":{}", num(measured));
            }
            f.push('}');
            f
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The result line: the metrics the run was asked for.
fn summary_line(r: &Report, trace: bool) -> String {
    let metrics = if trace { &r.per_layer } else { &r.end_to_end };
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        r.failed == 0 && r.attempted > 0,
        r.attempted,
        r.failed,
        metrics_json(metrics, false)
    )
}

/// Every figure of the run, with sample counts and quartiles.
fn detail_line(r: &Report, seed: u64) -> String {
    let seeds: Vec<String> = r
        .scenario_seeds
        .iter()
        .map(|s| format!("\"{s:#x}\""))
        .collect();
    let failures: Vec<String> = r.failures.iter().map(|f| string(f)).collect();
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"scenario_seeds\":[{}],\"passes\":{},\
         \"attempted\":{},\"failed\":{},\"failures\":[{}],\"end_to_end\":{},\"per_layer\":{}}}",
        string(r.workload.name()),
        seeds.join(","),
        r.passes,
        r.attempted,
        r.failed,
        failures.join(","),
        metrics_json(&r.end_to_end, true),
        metrics_json(&r.per_layer, true),
    )
}

fn write_trace(dir: &Path, r: &Report) -> std::io::Result<()> {
    let Some(t) = &r.tracer else { return Ok(()) };
    std::fs::create_dir_all(dir)?;
    let name = r.workload.name();
    std::fs::write(dir.join(format!("{name}.spans.jsonl")), t.jsonl(name))?;
    std::fs::write(dir.join(format!("{name}.folded")), t.folded(name))
}

fn run(args: &Args) -> i32 {
    let tmp_root = PathBuf::from(".qsbench_tmp");
    let mut code = exitcode::OK;
    for &w in &args.workloads {
        let opts = Options {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace || args.trace_out.is_some(),
            smoke: args.smoke,
            tmp: tmp_root.join(format!("{}-{}", std::process::id(), w.name())),
        };
        let report = workloads::run(w, &opts);
        if let Some(dir) = &args.trace_out {
            if let Err(e) = write_trace(dir, &report) {
                eprintln!("qsbench: cannot write traces to {}: {e}", dir.display());
                code = exitcode::USAGE;
            }
        }
        for f in &report.failures {
            eprintln!("qsbench: CHECK FAILED: {f}");
        }
        println!("{}", detail_line(&report, args.seed));
        println!("{}", summary_line(&report, args.trace));
        if report.failed > 0 {
            code = exitcode::CHECK_FAILED;
        }
    }
    let _ = std::fs::remove_dir(&tmp_root);
    code
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&args) {
        Ok(args) => run(&args),
        Err(e) => {
            eprintln!("qsbench: {e}");
            eprintln!(
                "usage: qsbench --workload <large-month|medium-churn|fleet-checkpoint|all> \
                 [--seed N] [--seconds S] [--trace 0|1] [--trace-out=DIR] [--smoke]"
            );
            exitcode::USAGE
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn declared(section: &str) -> Vec<(String, String)> {
        let text = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let field = |v: &Value, k: &str| v.field(k).and_then(Value::as_str).unwrap().to_string();
        doc.field(section)
            .and_then(Value::as_seq)
            .expect("metric list")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    fn named(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    /// Small tier, one pass per workload and two fleet cells: every gate
    /// passes and the output names exactly the declared metrics.
    #[test]
    fn smoke_runs_every_workload_with_the_declared_metrics() {
        let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
        for w in Workload::ALL {
            let opts = Options {
                seed: 0,
                seconds: 0.0,
                trace: true,
                smoke: true,
                tmp: std::env::temp_dir().join(format!("qsbench-smoke-{}", std::process::id())),
            };
            let r = workloads::run(w, &opts);
            assert!(
                r.attempted > 0 && r.failed == 0,
                "{}: {:?}",
                w.name(),
                r.failures
            );
            assert_eq!(named(&r.end_to_end), end_to_end, "{}", w.name());
            assert_eq!(named(&r.per_layer), per_layer, "{}", w.name());
            for trace in [false, true] {
                let line: Value = serde_json::from_str(&summary_line(&r, trace)).unwrap();
                let keys: Vec<_> = line
                    .as_map()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(
                    keys,
                    [
                        Some("correct"),
                        Some("attempted"),
                        Some("failed"),
                        Some("metrics")
                    ]
                );
            }
            assert!(serde_json::from_str::<Value>(&detail_line(&r, 0xA11)).is_ok());
        }
    }

    #[test]
    fn arguments_parse_in_both_spellings() {
        let a = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let p = parse_args(&a(
            "--workload medium-churn --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (p.workloads, p.seed, p.seconds, p.trace),
            (vec![Workload::MediumChurn], 7, 10.0, true)
        );
        let p = parse_args(&a("--workload=all --seed=0xBEEF")).unwrap();
        assert_eq!((p.workloads.len(), p.seed), (3, 0xBEEF));
        assert!(parse_args(&a("--workload nope")).is_err());
        assert!(parse_args(&a("--seed 1")).is_err());
        assert!(parse_args(&a("--workload all --trace 2")).is_err());
    }
}
