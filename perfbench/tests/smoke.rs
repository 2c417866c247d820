//! Tiny-size runs of every workload through the command line: each emits
//! every metric with its unit, and a dropped or corrupted response fails
//! the run and is counted.

use std::process::Command;

use perfbench::report::{per_layer, END_TO_END};
use perfbench::WORKLOADS;

/// Runs the benchmark at a tiny size; returns the exit status's success
/// and the standard output. At `--scale 0.15` the `paper-linear` set has
/// 750 rows of 318 features; fewer rows than features make the PrIU-opt
/// capture's eigensolver fail to converge.
fn run(workload: &str, trace: &str, extra: &[&str]) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0.5",
            "--scale",
            "0.15",
            "--trace",
            trace,
        ])
        .args(extra)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    (output.status.success(), stdout)
}

fn last_line(stdout: &str) -> &str {
    stdout.lines().last().unwrap_or_default()
}

/// The value of a `metric <name> <value> <unit>` summary line.
fn summary(stdout: &str, name: &str) -> f64 {
    let prefix = format!("metric {name} ");
    let line = stdout
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("no summary line for {name}"));
    line[prefix.len()..]
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .expect("a number")
}

/// The `"name": {"value": X, "unit": "U"}` entry of a result line.
fn entry(line: &str, name: &str) -> Option<(f64, String)> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let (value, rest) = rest.split_once(", \"unit\": \"")?;
    let unit = &rest[..rest.find('"')?];
    Some((value.parse().ok()?, unit.to_string()))
}

fn count(line: &str, name: &str) -> u64 {
    let key = format!("\"{name}\": ");
    let rest = &line[line.find(&key).expect(name) + key.len()..];
    rest[..rest.find(',').expect("a comma")]
        .parse()
        .expect("a count")
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for workload in WORKLOADS {
        let (ok, stdout) = run(workload, "0", &[]);
        let line = last_line(&stdout);
        assert!(ok, "{workload}: {stdout}");
        assert!(line.starts_with("{\"correct\": true"), "{workload}: {line}");
        assert_eq!(count(line, "failed"), 0, "{workload}");
        assert!(count(line, "attempted") >= 1, "{workload}");
        for (name, unit) in END_TO_END {
            let (value, got) = entry(line, name).unwrap_or_else(|| panic!("{workload}: no {name}"));
            assert_eq!(got, *unit, "{workload}: unit of {name}");
            assert!(
                value.is_finite() && value >= 0.0,
                "{workload}: {name} = {value}"
            );
        }
        assert_eq!(summary(&stdout, "failed_frac"), 0.0, "{workload}");
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    for workload in WORKLOADS {
        let (ok, stdout) = run(workload, "1", &[]);
        let line = last_line(&stdout);
        assert!(ok, "{workload}: {stdout}");
        for (name, unit) in per_layer() {
            let (value, got) =
                entry(line, &name).unwrap_or_else(|| panic!("{workload}: no {name}"));
            assert_eq!(got, unit, "{workload}: unit of {name}");
            assert!(value.is_finite(), "{workload}: {name} = {value}");
        }
        assert!(entry(line, "trace.spans").expect("span count").0 > 0.0);
    }
}

#[test]
fn a_dropped_response_fails_the_run() {
    let (ok, stdout) = run("serve-window", "0", &["--fault", "drop:3"]);
    let line = last_line(&stdout);
    assert!(!ok, "{stdout}");
    assert!(summary(&stdout, "failed_frac") > 0.0, "{stdout}");
    assert!(line.starts_with("{\"correct\": false"), "{line}");
    assert!(count(line, "failed") >= 1, "{line}");
}

#[test]
fn a_corrupted_response_fails_the_run() {
    let (ok, stdout) = run("serve-durable", "0", &["--fault", "corrupt:3"]);
    let line = last_line(&stdout);
    assert!(!ok, "{stdout}");
    assert!(summary(&stdout, "failed_frac") > 0.0, "{stdout}");
    assert!(line.starts_with("{\"correct\": false"), "{line}");
    assert!(count(line, "failed") >= 1, "{line}");
}
