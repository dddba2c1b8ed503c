//! `repro` rejects what its usage blocks do not list: an unknown flag
//! or artifact name exits 2 (`exitcode::USAGE`) before any scenario is
//! built, instead of silently running a default.

use quicksand_bench::exitcode;
use std::process::Command;

/// Runs `repro` with `args` and asserts it exits USAGE, naming the
/// offending argument on stderr and printing nothing on stdout.
fn assert_usage_error(args: &[&str], offender: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(exitcode::USAGE), "repro {args:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(offender),
        "repro {args:?}: stderr should name {offender:?}, got {stderr:?}"
    );
    assert!(out.stdout.is_empty(), "repro {args:?} printed to stdout");
}

#[test]
fn misspelt_flag_does_not_build_the_default_scenario() {
    assert_usage_error(&["table1", "--smal"], "--smal");
}

#[test]
fn misspelt_artifact_is_not_silently_skipped() {
    assert_usage_error(&["tabel1", "--small"], "tabel1");
}

#[test]
fn retired_feed_flag_is_rejected_before_connecting() {
    assert_usage_error(
        &[
            "feed",
            "--connect=127.0.0.1:9",
            "--mrt=x",
            "--small",
            "--quiet",
        ],
        "--mrt=x",
    );
}

#[test]
fn every_subcommand_checks_its_flags() {
    assert_usage_error(&["report", "--chek", "a.json", "b.json"], "--chek");
    assert_usage_error(&["bench-snapshot", "--small", "--quiet"], "--quiet");
    assert_usage_error(&["serve", "--small", "--cellz=2"], "--cellz=2");
    assert_usage_error(&["feed", "--connect=127.0.0.1:9", "extra"], "extra");
}
