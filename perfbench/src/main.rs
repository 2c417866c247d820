//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! perfbench --workload paper-linear|serve-durable|serve-window|all
//!           [--seed N] [--seconds S] [--trace 0|1]
//!           [--scale F] [--fault drop:K|corrupt:K]
//! ```
//!
//! `--trace 0` runs the workload once and prints the end-to-end metrics.
//! `--trace 1` runs it once untraced (in a child process) and once traced
//! (in this process), and prints the per-layer metrics, including the
//! tracing overhead on each end-to-end metric. `--workload all` runs every
//! workload with `--trace 1`, each in its own process. The last line of
//! standard output is one JSON object; the exit code is 1 when an output
//! check failed. `--scale` shrinks sizes and rates (for smoke tests);
//! `--fault` drops or corrupts the K-th response frame of a serve workload.

use std::env;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use perfbench::report::{per_layer, result_line, Outcome, END_TO_END, SUMMARY};
use perfbench::trace::{self, Tracer};
use perfbench::{paper, probe, serve, Fault, Params, WORKLOADS};

struct Cli {
    params: Params,
    trace: bool,
    args: Vec<String>,
}

fn parse_args() -> Result<Cli, String> {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut params = Params {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        scale: 1.0,
        fault: None,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => params.workload = value()?.clone(),
            "--seed" => params.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => params.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--scale" => params.scale = value()?.parse().map_err(|_| "bad --scale")?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace 0|1, got {other}")),
                }
            }
            "--fault" => {
                let v = value()?;
                let (kind, k) = v.split_once(':').ok_or("--fault drop:K|corrupt:K")?;
                let k: u64 = k.parse().map_err(|_| "bad --fault frame")?;
                params.fault = Some(match kind {
                    "drop" => Fault::Drop(k),
                    "corrupt" => Fault::Corrupt(k),
                    _ => return Err("--fault drop:K|corrupt:K".to_string()),
                });
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if params.workload != "all" && !WORKLOADS.contains(&params.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if !(params.seconds > 0.0 && params.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    if !(params.scale > 0.0 && params.scale <= 1.0) {
        return Err("--scale must be in (0, 1]".to_string());
    }
    Ok(Cli {
        params,
        trace,
        args,
    })
}

/// Runs one pass of the workload in this process.
fn run_pass(params: &Params, traced: bool) -> Result<(Outcome, Tracer), String> {
    let mut tracer = Tracer::new(Instant::now(), traced);
    let mut out = match params.workload.as_str() {
        "paper-linear" => paper::run(params, &mut tracer)?,
        "serve-durable" => serve::run(params, serve::Kind::Durable, &mut tracer)?,
        "serve-window" => serve::run(params, serve::Kind::Window, &mut tracer)?,
        other => return Err(format!("unknown workload {other}")),
    };
    out.set("peak_rss_mb", probe::peak_rss_mb());
    for problem in &out.problems {
        eprintln!("check failed: {problem}");
    }
    Ok((out, tracer))
}

fn header(params: &Params, traced: bool) {
    println!(
        "# perfbench {} seed={} seconds={} scale={} trace={} nproc={} priu_threads={} simd={}",
        params.workload,
        params.seed,
        params.seconds,
        params.scale,
        u8::from(traced),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        priu_linalg::par::max_threads(),
        priu_linalg::simd::current_level(),
    );
}

/// `--trace 0`: the end-to-end metrics.
fn untraced(params: &Params) -> Result<bool, String> {
    header(params, false);
    let (out, _) = run_pass(params, false)?;
    for (name, unit, workloads) in SUMMARY {
        if workloads.contains(&params.workload.as_str()) {
            println!("metric {name} {:?} {unit}", out.get(name));
        }
    }
    // Time the hypervisor gave to other guests: latencies track it.
    println!("# host.steal_frac {:?}", out.get("host.steal_frac"));
    let metrics: Vec<(String, f64, &str)> = END_TO_END
        .iter()
        .map(|(name, unit)| (name.to_string(), out.get(name), *unit))
        .collect();
    println!(
        "{}",
        result_line(out.correct(), out.attempted, out.failed, &metrics)
    );
    Ok(out.correct())
}

/// Pulls `"name": {"value": X` out of a result line.
fn json_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

fn json_count(line: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

/// Runs this program as a child with `args`; returns its standard output
/// and whether it exited successfully.
fn child(args: &[String]) -> Result<(String, bool), String> {
    let exe = env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout).into_owned();
    Ok((text, output.status.success()))
}

/// `args` with `flag` set to `value`.
fn with_flag(args: &[String], flag: &str, value: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            it.next();
        } else {
            out.push(a.clone());
        }
    }
    out.extend([flag.to_string(), value.to_string()]);
    out
}

/// `--trace 1`: an untraced pass in a child, then a traced pass here.
fn traced(cli: &Cli) -> Result<bool, String> {
    let params = &cli.params;
    let (text, _) = child(&with_flag(&cli.args, "--trace", "0"))?;
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    let base: Vec<Option<f64>> = END_TO_END
        .iter()
        .map(|(name, _)| json_value(last, name))
        .collect();
    let base_ok = last.contains("\"correct\": true") && base.iter().all(Option::is_some);

    header(params, true);
    let (mut out, tracer) = run_pass(params, true)?;
    trace::summarize(&mut out, tracer.spans());
    let csv = params
        .out_dir
        .join(format!("{}-seed{}.trace.csv", params.workload, params.seed));
    if let Err(err) = trace::write_csv(&csv, tracer.spans()) {
        eprintln!("could not write {}: {err}", csv.display());
    }
    for ((name, _), base) in END_TO_END.iter().zip(&base) {
        out.set(
            &format!("overhead.{name}"),
            out.get(name) - base.unwrap_or(f64::NAN),
        );
    }
    let metrics: Vec<(String, f64, &str)> = per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let value = out.get(&name);
            (name, value, unit)
        })
        .collect();
    for (name, value, unit) in &metrics {
        println!("layer {name} {value:?} {unit}");
    }
    let correct = base_ok && out.correct();
    let attempted = out.attempted + json_count(last, "attempted").unwrap_or(0);
    let failed = out.failed + json_count(last, "failed").unwrap_or(1);
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

/// `--workload all`: every workload with `--trace 1`, each in its own
/// process.
fn all(cli: &Cli) -> Result<bool, String> {
    let mut correct = true;
    let mut attempted = 0;
    let mut failed = 0;
    for workload in WORKLOADS {
        let args = with_flag(
            &with_flag(&cli.args, "--trace", "1"),
            "--workload",
            workload,
        );
        let (text, ok) = child(&args)?;
        let last = text.lines().last().unwrap_or_default();
        for line in text.lines() {
            println!("{line}");
        }
        correct &= ok;
        attempted += json_count(last, "attempted").unwrap_or(0);
        failed += json_count(last, "failed").unwrap_or(1);
    }
    println!("{}", result_line(correct, attempted, failed, &[]));
    Ok(correct)
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let result = if cli.params.workload == "all" {
        all(&cli)
    } else if cli.trace {
        traced(&cli)
    } else {
        untraced(&cli.params)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::from(2)
        }
    }
}
