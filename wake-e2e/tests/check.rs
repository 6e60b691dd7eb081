//! Drives the built `wake-e2e` binary the way a user does.

use std::process::{Command, Output};

/// The binary, with any ambient `WAKE_*` knob removed (CI lanes set
/// some; the runner refuses to start under them, which is the second
/// test's subject, not this helper's).
fn wake_e2e(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_wake-e2e"));
    cmd.args(args);
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("WAKE_") {
            cmd.env_remove(name);
        }
    }
    cmd
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

fn assert_success(out: &Output) {
    assert!(
        out.status.success(),
        "exit {:?}\nstdout:\n{}\nstderr:\n{}",
        out.status.code(),
        text(&out.stdout),
        text(&out.stderr)
    );
}

/// `--check`: SF 0.005, one set-up and one pass per run, all five
/// workloads untraced and traced. The program itself exits non-zero on
/// a final answer that differs from the reference, on any spill in
/// `tpch.resident`/`tpch.threaded`, on a `tpch.spill` query that spills
/// nothing, and on scan counters anywhere but `tpch.wseg`; here we also
/// hold it to printing every metric the repo's BENCHMARK.json names.
#[test]
fn check_mode_runs_every_workload_and_prints_every_metric() {
    let out = wake_e2e(&["--check"]).output().expect("run wake-e2e");
    assert_success(&out);
    let stdout = text(&out.stdout);

    let bench = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    let names: Vec<&str> = bench
        .split("{\"name\": \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect();
    assert!(names.len() > 40, "parsed {} names", names.len());
    for name in names {
        assert!(
            stdout
                .lines()
                .any(|l| l.split_whitespace().any(|w| w == name)),
            "`{name}` is not printed"
        );
    }
    for workload in [
        "tpch.resident",
        "tpch.threaded",
        "tpch.spill",
        "tpch.wseg",
        "serve.closed2",
    ] {
        assert!(stdout.contains(&format!("== {workload} · end-to-end")));
        assert!(stdout.contains(&format!("== {workload} · per-layer (traced)")));
    }
    assert!(!stdout.contains("FAILED"), "{stdout}");
    let ops: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("failed_ops / ops"))
        .collect();
    assert_eq!(ops.len(), 10, "five untraced and five traced runs");
    assert!(ops.iter().all(|l| l.contains(" 0 / ")), "{ops:?}");

    let report = stdout
        .lines()
        .find_map(|l| l.strip_prefix("report → "))
        .expect("report path printed");
    let report = std::fs::read_to_string(report).expect("report file written");
    assert!(report.contains("\"scale_factor\":\"0.005\""));
    assert_eq!(report.matches("\"workload\":\"tpch.spill\"").count(), 3);
}

/// One workload in the driver's form ends with the result line.
#[test]
fn driver_form_ends_with_one_json_result_line() {
    let out = wake_e2e(&[
        "--workload",
        "tpch.spill",
        "--seed",
        "7",
        "--seconds",
        "0",
        "--trace",
        "0",
        "--sf",
        "0.005",
    ])
    .output()
    .expect("run wake-e2e");
    assert_success(&out);
    let stdout = text(&out.stdout);
    let last = stdout.lines().last().expect("output");
    assert!(
        last.starts_with("{\"correct\":true,\"attempted\":"),
        "{last}"
    );
    assert!(last.contains("\"failed\":0,\"metrics\":{\"first_estimate_s\":{\"value\":"));
    assert!(last.contains("\"setup_s\":{\"value\":"));
    assert!(!last.contains("plan.build_s"));
}

/// Every engine knob falls back to an ambient `WAKE_*` variable, so the
/// runner must not start under one.
#[test]
fn refuses_to_run_under_an_ambient_knob() {
    let out = wake_e2e(&["--workload", "tpch.resident"])
        .env("WAKE_MEM_BUDGET", "1M")
        .output()
        .expect("run wake-e2e");
    assert_eq!(out.status.code(), Some(2));
    assert!(text(&out.stderr).contains("refusing to run with WAKE_MEM_BUDGET"));
    assert!(out.stdout.is_empty());
}
