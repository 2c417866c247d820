//! `loadgen` — load generator for the delta service (`priu-server`).
//!
//! Drives a grid of (concurrent sessions) × (coalescing on/off) ×
//! (durability on/off) cells. Each cell starts one server, registers N
//! linear sessions and runs, per session, one predict client plus one
//! deletion client issuing **single-row** deletions (the workload the
//! coalescing planner exists for). Latencies are recorded per request —
//! predict latency is the synchronous snapshot round trip, delete
//! latency spans admission to batch commit (so it includes the
//! coalescing window, and with the WAL enabled the pre-commit group
//! fsync, by design) — and summarised as p50/p99 into the JSON file named
//! by the required `--out` (the committed record is `BENCH_10.json`; the
//! path is never defaulted, so a run cannot overwrite it by accident). Durable cells also report the WAL's
//! cumulative durability counters (fsyncs, frames, bytes, group sizes,
//! checkpoints) and finish with a restart-and-recover cycle on the same
//! store — timed separately as `recovery_seconds`, outside the measured
//! wall clock: the reopened server must report every session recovered,
//! so the benchmark doubles as a durability smoke. A **sliding-window** section additionally runs the
//! bidirectional workload: per session one streamer issues single-row
//! `tick`s (append one fresh row, retain the last `W`) while a deleter
//! removes mid-window rows and a predictor hammers the snapshot —
//! predict/delete/add latencies all recorded. A **rank-1** section
//! measures appending one row to a 2000×256 closed-form capture via the
//! rank-1 Gram/Cholesky update against rebuilding the capture from
//! scratch. A wire section round-trips predicts through the
//! length-prefixed protocol over the in-memory duplex transport.
//!
//! ```text
//! loadgen [--sessions 1,4,16] [--seconds 0.5] [--coalesce both|on|off]
//!         [--durability both|on|off] --out PATH [--date YYYY-MM-DD]
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant, SystemTime};
use std::{env, process::ExitCode, thread};

use priu_bench::report::JsonValue;
use priu_core::baseline::closed_form::{
    closed_form_delta_with, closed_form_full, ClosedFormCapture,
};
use priu_core::{Session, SessionBuilder, TrainerConfig, Workspace};
use priu_data::catalog::Hyperparameters;
use priu_data::dataset::{DenseDataset, Labels};
use priu_data::synthetic::regression::{generate_regression, RegressionConfig};
use priu_linalg::simd;
use priu_linalg::{Matrix, Vector};
use priu_server::{
    decode_response, duplex, encode_request, read_frame, write_frame, AddedRows, DurabilityConfig,
    PlannerConfig, Request, RequestEnvelope, Response, Server, ServerConfig, WalStats,
};

const SAMPLES_PER_SESSION: usize = 300;
const FEATURES: usize = 6;
/// Single-row deletions issued per session (≤ half the rows, so the drift
/// trigger fires mid-run and the decision histogram shows retrains).
const DELETE_BUDGET: u64 = 120;

struct Cli {
    sessions: Vec<usize>,
    seconds: f64,
    modes: Vec<bool>,
    durability: Vec<bool>,
    out: String,
    date: Option<String>,
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        sessions: vec![1, 4, 16],
        seconds: 0.5,
        modes: vec![true, false],
        durability: vec![false, true],
        out: String::new(),
        date: None,
    };
    let mut out = None;
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sessions" => {
                let value = args.next().ok_or("--sessions needs a value")?;
                cli.sessions = value
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<usize>()
                            .map_err(|_| format!("bad session count '{s}'"))
                    })
                    .collect::<Result<_, _>>()?;
                if cli.sessions.is_empty() || cli.sessions.contains(&0) {
                    return Err("--sessions needs positive counts".to_string());
                }
            }
            "--seconds" => {
                let value = args.next().ok_or("--seconds needs a value")?;
                cli.seconds = value
                    .parse::<f64>()
                    .map_err(|_| format!("invalid seconds '{value}'"))?;
                if !cli.seconds.is_finite() || cli.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--coalesce" => {
                cli.modes = match args.next().as_deref() {
                    Some("both") => vec![true, false],
                    Some("on") => vec![true],
                    Some("off") => vec![false],
                    other => return Err(format!("--coalesce both|on|off, got {other:?}")),
                };
            }
            "--durability" => {
                cli.durability = match args.next().as_deref() {
                    Some("both") => vec![false, true],
                    Some("on") => vec![true],
                    Some("off") => vec![false],
                    other => return Err(format!("--durability both|on|off, got {other:?}")),
                };
            }
            "--out" => out = Some(args.next().ok_or("--out needs a path")?),
            "--date" => cli.date = Some(args.next().ok_or("--date needs a value")?),
            "--help" | "-h" => {
                eprintln!(
                    "loadgen [--sessions 1,4,16] [--seconds 0.5] \
                     [--coalesce both|on|off] [--durability both|on|off] \
                     --out PATH [--date YYYY-MM-DD]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    cli.out = out.ok_or("--out PATH is required")?;
    Ok(cli)
}

fn fit_session(seed: u64) -> Session {
    let data = generate_regression(&RegressionConfig {
        num_samples: SAMPLES_PER_SESSION,
        num_features: FEATURES,
        noise_std: 0.1,
        seed,
        ..Default::default()
    });
    let config = TrainerConfig::from_hyper(Hyperparameters {
        batch_size: 25,
        num_iterations: 40,
        learning_rate: 0.05,
        regularization: 0.05,
    });
    SessionBuilder::dense(data, config)
        .seed(11)
        .opt_capture(false)
        .fit()
        .expect("loadgen session fit")
}

/// Percentile over sorted per-request latencies in nanoseconds, reported
/// in microseconds (sub-microsecond predicts stay resolvable).
fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let ix = ((p / 100.0) * (sorted_ns.len() - 1) as f64).round() as usize;
    sorted_ns[ix.min(sorted_ns.len() - 1)] as f64 / 1000.0
}

struct CellResult {
    sessions: usize,
    coalesce: bool,
    durable: bool,
    wall_seconds: f64,
    predicts: Vec<u64>,
    deletes: Vec<u64>,
    rows_deleted: u64,
    batches: u64,
    decisions: HashMap<&'static str, u64>,
    /// Durable cells only: the WAL's cumulative counters after the run
    /// (snapshot queue drained first, so checkpoints are final).
    durability: Option<WalStats>,
    /// Durable cells only: sessions the restart-and-recover cycle
    /// brought back, WAL records it redid past the latest snapshots, and
    /// the wall-clock seconds the recovery took (kept out of the cell's
    /// measured `wall_seconds`).
    recovery: Option<(u64, u64, f64)>,
}

fn run_cell(sessions: usize, coalesce: bool, durable: bool, seconds: f64) -> CellResult {
    let store = durable.then(|| {
        let dir = std::env::temp_dir().join(format!(
            "priu-loadgen-{}-s{sessions}-c{}",
            std::process::id(),
            u8::from(coalesce)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    });
    let config = || ServerConfig {
        planner: PlannerConfig {
            window: Duration::from_millis(2),
            max_batch: 64,
            coalesce,
        },
        durability: store.clone().map(|dir| {
            let mut durability = DurabilityConfig::new(dir);
            // Small enough that the default snapshot cadence fires a few
            // compactions even in a short cell.
            durability.checkpoint_bytes = 4096;
            durability
        }),
        ..ServerConfig::default()
    };
    let server = Arc::new(Server::start(config()).expect("start server"));
    let names: Vec<String> = (0..sessions).map(|s| format!("s{s}")).collect();
    for (s, name) in names.iter().enumerate() {
        server
            .register_session(name, fit_session(0x6000 + s as u64))
            .expect("register");
    }

    // One predictor + one deletion submitter + one ticket waiter per
    // session, all released together.
    let barrier = Arc::new(Barrier::new(2 * sessions + 1));
    let done = Arc::new(AtomicBool::new(false));
    let mut predictors = Vec::new();
    let mut deleters = Vec::new();
    let mut waiters = Vec::new();
    for name in &names {
        let name = name.clone();
        {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            let done = Arc::clone(&done);
            let name = name.clone();
            predictors.push(thread::spawn(move || {
                let probe: Vec<f64> = (0..FEATURES).map(|i| 0.25 * (i as f64 + 1.0)).collect();
                let mut latencies = Vec::new();
                barrier.wait();
                while !done.load(Ordering::Acquire) {
                    let t0 = Instant::now();
                    server.predict(&name, &probe).expect("predict");
                    latencies.push(t0.elapsed().as_nanos() as u64);
                }
                latencies
            }));
        }
        let (tickets_tx, tickets_rx) = channel();
        {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            let done = Arc::clone(&done);
            let name = name.clone();
            deleters.push(thread::spawn(move || {
                barrier.wait();
                let mut issued = 0u64;
                while !done.load(Ordering::Acquire) && issued < DELETE_BUDGET {
                    let ticket = server.delete(&name, &[issued]).expect("delete");
                    let _ = tickets_tx.send((Instant::now(), ticket));
                    issued += 1;
                    if issued.is_multiple_of(4) {
                        // Pace arrivals so the coalescing window has
                        // something to fold (a burst every ~300 µs).
                        thread::sleep(Duration::from_micros(300));
                    }
                }
                let _ = server.flush(&name);
            }));
        }
        waiters.push(thread::spawn(move || {
            let mut latencies = Vec::new();
            let mut rows = 0u64;
            for (sent, ticket) in tickets_rx {
                let reply = ticket.wait().expect("ticket");
                latencies.push(sent.elapsed().as_nanos() as u64);
                rows += reply.applied as u64;
            }
            (latencies, rows)
        }));
    }

    barrier.wait();
    let t0 = Instant::now();
    thread::sleep(Duration::from_secs_f64(seconds));
    done.store(true, Ordering::Release);
    let mut predicts: Vec<u64> = Vec::new();
    for handle in predictors {
        predicts.extend(handle.join().expect("predictor"));
    }
    for handle in deleters {
        handle.join().expect("deleter");
    }
    let mut deletes: Vec<u64> = Vec::new();
    let mut rows_deleted = 0u64;
    for handle in waiters {
        let (latencies, rows) = handle.join().expect("waiter");
        deletes.extend(latencies);
        rows_deleted += rows;
    }
    let wall_seconds = t0.elapsed().as_secs_f64();

    let mut batches = 0u64;
    let mut decisions: HashMap<&'static str, u64> = HashMap::new();
    for name in &names {
        let stats = server.stats(name).expect("stats");
        batches += stats.epoch;
        for (method, count) in stats.decisions {
            *decisions.entry(method.name()).or_insert(0) += count;
        }
    }
    // Settle the background snapshot/checkpoint queue before reading the
    // counters, so the reported checkpoint count is final.
    let durability = store.is_some().then(|| {
        server.drain_durability();
        server.durability_stats().expect("durable cell has stats")
    });
    server.shutdown();

    // Durable cells double as a recovery smoke: reopen the store and
    // require every session back, then discard it. Timed on its own —
    // the cell's wall clock was captured before this point.
    let recovery = store.as_ref().map(|dir| {
        let t0 = Instant::now();
        let recovered = Server::start(config()).expect("recover store");
        let recovery_seconds = t0.elapsed().as_secs_f64();
        let report = recovered.recovery_report().expect("recovery report");
        assert_eq!(
            report.sessions.len(),
            sessions,
            "recovery lost sessions: {report:?}"
        );
        assert!(
            report.sessions.iter().all(|s| s.skipped.is_empty()),
            "recovery skipped records: {report:?}"
        );
        let redone = report.sessions.iter().map(|s| s.redone).sum();
        let count = report.sessions.len() as u64;
        recovered.shutdown();
        let _ = std::fs::remove_dir_all(dir);
        (count, redone, recovery_seconds)
    });

    predicts.sort_unstable();
    deletes.sort_unstable();
    CellResult {
        sessions,
        coalesce,
        durable,
        wall_seconds,
        predicts,
        deletes,
        rows_deleted,
        batches,
        decisions,
        durability,
        recovery,
    }
}

struct WindowResult {
    sessions: usize,
    wall_seconds: f64,
    predicts: Vec<u64>,
    deletes: Vec<u64>,
    adds: Vec<u64>,
    rows_added: u64,
    rows_expired: u64,
    rows_deleted: u64,
    batches: u64,
    final_samples: usize,
}

/// A deterministic fresh row for the streaming workload (a tiny
/// splitmix-style hash keeps rows distinct without an RNG dependency).
fn fresh_row(counter: u64) -> AddedRows {
    let mut features = Vec::with_capacity(FEATURES);
    for i in 0..FEATURES {
        let mut z = counter
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(i as u64);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        features.push(((z >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0);
    }
    let label = features.iter().sum::<f64>() * 0.5;
    AddedRows {
        num_features: FEATURES,
        features,
        labels: vec![label],
    }
}

/// The bidirectional sliding-window workload: per session one streamer
/// issues single-row `tick`s (append one row, retain the last
/// `SAMPLES_PER_SESSION`), one deleter removes mid-window rows by stable
/// id, one predictor hammers the snapshot. Coalescing is always on — the
/// planner folds ticks and deletes into mixed batches.
fn run_window_cell(sessions: usize, seconds: f64) -> WindowResult {
    let server = Arc::new(
        Server::start(ServerConfig {
            planner: PlannerConfig {
                window: Duration::from_millis(2),
                max_batch: 64,
                coalesce: true,
            },
            ..ServerConfig::default()
        })
        .expect("start server"),
    );
    let names: Vec<String> = (0..sessions).map(|s| format!("w{s}")).collect();
    for (s, name) in names.iter().enumerate() {
        server
            .register_session(name, fit_session(0x8000 + s as u64))
            .expect("register");
    }

    let barrier = Arc::new(Barrier::new(3 * sessions + 1));
    let done = Arc::new(AtomicBool::new(false));
    let mut predictors = Vec::new();
    let mut streamers = Vec::new();
    let mut deleters = Vec::new();
    for (s, name) in names.iter().enumerate() {
        {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            let done = Arc::clone(&done);
            let name = name.clone();
            predictors.push(thread::spawn(move || {
                let probe: Vec<f64> = (0..FEATURES).map(|i| 0.25 * (i as f64 + 1.0)).collect();
                let mut latencies = Vec::new();
                barrier.wait();
                while !done.load(Ordering::Acquire) {
                    let t0 = Instant::now();
                    server.predict(&name, &probe).expect("predict");
                    latencies.push(t0.elapsed().as_nanos() as u64);
                }
                latencies
            }));
        }
        {
            // The streamer: single-row ticks with a constant retention
            // window, so every committed tick expires the oldest row.
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            let done = Arc::clone(&done);
            let name = name.clone();
            let seed = 0x9000 + ((s as u64) << 8);
            streamers.push(thread::spawn(move || {
                let mut latencies = Vec::new();
                let (mut added, mut expired) = (0u64, 0u64);
                let mut counter = seed;
                barrier.wait();
                // A window slightly below the registration size, so the
                // very first tick batch already expires the oldest rows.
                let keep = SAMPLES_PER_SESSION as u64 - 20;
                while !done.load(Ordering::Acquire) && added < DELETE_BUDGET {
                    counter += 1;
                    let t0 = Instant::now();
                    let ticket = server
                        .tick(&name, Some(fresh_row(counter)), keep)
                        .expect("tick");
                    let reply = ticket.wait().expect("tick ticket");
                    latencies.push(t0.elapsed().as_nanos() as u64);
                    added += reply.added as u64;
                    expired += reply.expired as u64;
                    thread::sleep(Duration::from_micros(200));
                }
                let _ = server.flush(&name);
                (latencies, added, expired)
            }));
        }
        {
            // The deleter: single-row deletes walking down from the top of
            // the registration-time ids — the rows retention expires last,
            // so early requests hit live rows even as the window slides.
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            let done = Arc::clone(&done);
            let name = name.clone();
            deleters.push(thread::spawn(move || {
                let mut latencies = Vec::new();
                let mut removed = 0u64;
                let mut issued = 0u64;
                barrier.wait();
                while !done.load(Ordering::Acquire) && issued < DELETE_BUDGET {
                    let id = SAMPLES_PER_SESSION as u64 - 1 - issued;
                    issued += 1;
                    let t0 = Instant::now();
                    let ticket = server.delete(&name, &[id]).expect("delete");
                    let reply = ticket.wait().expect("delete ticket");
                    latencies.push(t0.elapsed().as_nanos() as u64);
                    removed += reply.applied as u64;
                    thread::sleep(Duration::from_micros(400));
                }
                let _ = server.flush(&name);
                (latencies, removed)
            }));
        }
    }

    barrier.wait();
    let t0 = Instant::now();
    thread::sleep(Duration::from_secs_f64(seconds));
    done.store(true, Ordering::Release);
    let mut predicts: Vec<u64> = Vec::new();
    for handle in predictors {
        predicts.extend(handle.join().expect("predictor"));
    }
    let mut adds: Vec<u64> = Vec::new();
    let (mut rows_added, mut rows_expired) = (0u64, 0u64);
    for handle in streamers {
        let (latencies, added, expired) = handle.join().expect("streamer");
        adds.extend(latencies);
        rows_added += added;
        rows_expired += expired;
    }
    let mut deletes: Vec<u64> = Vec::new();
    let mut rows_deleted = 0u64;
    for handle in deleters {
        let (latencies, removed) = handle.join().expect("deleter");
        deletes.extend(latencies);
        rows_deleted += removed;
    }
    let wall_seconds = t0.elapsed().as_secs_f64();

    let mut batches = 0u64;
    let mut final_samples = 0usize;
    for name in &names {
        let stats = server.stats(name).expect("stats");
        batches += stats.epoch;
        final_samples += stats.num_samples;
    }
    server.shutdown();
    predicts.sort_unstable();
    deletes.sort_unstable();
    adds.sort_unstable();
    WindowResult {
        sessions,
        wall_seconds,
        predicts,
        deletes,
        adds,
        rows_added,
        rows_expired,
        rows_deleted,
        batches,
        final_samples,
    }
}

/// Rank-1 addition against capture rebuild at 2000×256: appending one row
/// to the closed-form normal equations via the rank-1 Gram/Cholesky
/// update (+ solve) versus recomputing `XᵀX`/`XᵀY` over all 2001 rows
/// from scratch (+ solve). The ratio is what makes warm additions
/// serveable online.
fn run_rank1_section() -> (f64, f64, f64) {
    const N: usize = 2000;
    const M: usize = 256;
    let data = generate_regression(&RegressionConfig {
        num_samples: N,
        num_features: M,
        noise_std: 0.1,
        seed: 0x8801,
        ..Default::default()
    });
    let capture = ClosedFormCapture::build(&data, 0.05).expect("capture");
    let row: Vec<f64> = (0..M)
        .map(|i| ((i * 37 + 11) % 97) as f64 / 97.0 - 0.5)
        .collect();
    let added = DenseDataset::new(
        Matrix::from_vec(1, M, row).expect("added row"),
        Labels::Continuous(Vector::from_vec(vec![0.75])),
    );
    let mut appended = data.clone();
    appended.append(&added).expect("append");
    let mut ws = Workspace::new();

    // Warm both paths once, then time fixed iteration counts.
    let _ = closed_form_delta_with(&data, &capture, &[], &added, &mut ws).expect("rank-1");
    let rebuilt = ClosedFormCapture::build(&appended, 0.05).expect("rebuild");
    let _ = closed_form_full(&rebuilt).expect("solve");

    const RANK1_ITERS: u32 = 20;
    let t0 = Instant::now();
    for _ in 0..RANK1_ITERS {
        let _ = closed_form_delta_with(&data, &capture, &[], &added, &mut ws).expect("rank-1");
    }
    let rank1_us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(RANK1_ITERS);

    const REBUILD_ITERS: u32 = 5;
    let t0 = Instant::now();
    for _ in 0..REBUILD_ITERS {
        let rebuilt = ClosedFormCapture::build(&appended, 0.05).expect("rebuild");
        let _ = closed_form_full(&rebuilt).expect("solve");
    }
    let rebuild_us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(REBUILD_ITERS);
    (rank1_us, rebuild_us, rebuild_us / rank1_us)
}

/// Predict round trips through the length-prefixed protocol over the
/// in-memory duplex (reader thread + responder included in the measured
/// path). Returns sorted per-request latencies in µs.
fn run_wire_section(rounds: u64) -> Vec<u64> {
    let server = Server::start(ServerConfig::default()).expect("start server");
    server
        .register_session("wire", fit_session(0x7000))
        .expect("register");
    let ((mut client_w, mut client_r), (server_w, server_r)) = duplex();
    let connection = server.serve_connection(server_r, server_w);
    let probe: Vec<f64> = (0..FEATURES).map(|i| 0.1 * (i as f64 + 1.0)).collect();
    let mut latencies = Vec::with_capacity(rounds as usize);
    for id in 0..rounds {
        let t0 = Instant::now();
        let payload = encode_request(&RequestEnvelope {
            id,
            request: Request::Predict {
                session: "wire".to_string(),
                features: probe.clone(),
            },
        });
        write_frame(&mut client_w, &payload).expect("wire write");
        let frame = read_frame(&mut client_r).expect("wire read").expect("open");
        let envelope = decode_response(&frame).expect("wire decode");
        assert_eq!(envelope.id, id);
        assert!(matches!(envelope.response, Response::Predicted { .. }));
        latencies.push(t0.elapsed().as_nanos() as u64);
    }
    drop(client_w);
    connection.join();
    server.shutdown();
    latencies.sort_unstable();
    latencies
}

/// Civil date from the system clock (days-from-epoch → y-m-d).
fn today() -> String {
    let days = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs() / 86_400)
        .unwrap_or(0) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let year = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if month <= 2 { year + 1 } else { year };
    format!("{year:04}-{month:02}-{day:02}")
}

fn cell_json(cell: &CellResult) -> JsonValue {
    let mut predict = JsonValue::object();
    predict
        .push("count", cell.predicts.len())
        .push("p50_us", percentile_us(&cell.predicts, 50.0))
        .push("p99_us", percentile_us(&cell.predicts, 99.0))
        .push(
            "throughput_per_s",
            cell.predicts.len() as f64 / cell.wall_seconds,
        );
    let mut delete = JsonValue::object();
    delete
        .push("count", cell.deletes.len())
        .push("p50_us", percentile_us(&cell.deletes, 50.0))
        .push("p99_us", percentile_us(&cell.deletes, 99.0))
        .push("rows_deleted", cell.rows_deleted)
        .push("batches", cell.batches)
        .push(
            "rows_per_batch",
            if cell.batches == 0 {
                0.0
            } else {
                cell.rows_deleted as f64 / cell.batches as f64
            },
        );
    let mut decisions = JsonValue::object();
    let mut methods: Vec<_> = cell.decisions.iter().collect();
    methods.sort();
    for (method, count) in methods {
        decisions.push(method, *count);
    }
    let mut out = JsonValue::object();
    out.push("sessions", cell.sessions)
        .push("coalesce", cell.coalesce)
        .push("durable", cell.durable)
        .push("wall_seconds", cell.wall_seconds)
        .push("predict", predict)
        .push("delete", delete)
        .push("scheduler_decisions", decisions);
    if let Some(stats) = cell.durability {
        let mut durability = JsonValue::object();
        durability
            .push("fsyncs", stats.fsyncs)
            .push("wal_frames", stats.frames)
            .push("wal_bytes_appended", stats.bytes)
            .push(
                "mean_group",
                if stats.fsyncs == 0 {
                    0.0
                } else {
                    stats.frames as f64 / stats.fsyncs as f64
                },
            )
            .push("max_group", stats.max_group)
            .push("checkpoints", stats.checkpoints);
        out.push("durability", durability);
    }
    if let Some((recovered, redone, recovery_seconds)) = cell.recovery {
        let mut recovery = JsonValue::object();
        recovery
            .push("sessions_recovered", recovered)
            .push("wal_records_redone", redone)
            .push("recovery_seconds", recovery_seconds);
        out.push("recovery", recovery);
    }
    out
}

fn window_json(cell: &WindowResult) -> JsonValue {
    let latency = |sorted: &[u64], wall: f64| {
        let mut out = JsonValue::object();
        out.push("count", sorted.len())
            .push("p50_us", percentile_us(sorted, 50.0))
            .push("p99_us", percentile_us(sorted, 99.0))
            .push("throughput_per_s", sorted.len() as f64 / wall);
        out
    };
    let mut out = JsonValue::object();
    out.push("sessions", cell.sessions)
        .push("wall_seconds", cell.wall_seconds)
        .push("window_rows", SAMPLES_PER_SESSION - 20)
        .push("predict", latency(&cell.predicts, cell.wall_seconds))
        .push("delete", latency(&cell.deletes, cell.wall_seconds))
        .push("add", latency(&cell.adds, cell.wall_seconds))
        .push("rows_added", cell.rows_added)
        .push("rows_expired", cell.rows_expired)
        .push("rows_deleted", cell.rows_deleted)
        .push("batches", cell.batches)
        .push("final_samples", cell.final_samples);
    out
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("loadgen: {message}");
            return ExitCode::FAILURE;
        }
    };

    let mut cells = Vec::new();
    for &sessions in &cli.sessions {
        for &coalesce in &cli.modes {
            for &durable in &cli.durability {
                eprintln!(
                    "loadgen: {sessions} session(s), coalesce={}, wal={}, {}s ...",
                    if coalesce { "on" } else { "off" },
                    if durable { "on" } else { "off" },
                    cli.seconds
                );
                cells.push(run_cell(sessions, coalesce, durable, cli.seconds));
            }
        }
    }
    let mut windows = Vec::new();
    for &sessions in &cli.sessions {
        eprintln!(
            "loadgen: sliding window, {sessions} session(s), {}s ...",
            cli.seconds
        );
        windows.push(run_window_cell(sessions, cli.seconds));
    }
    eprintln!("loadgen: rank-1 add vs capture rebuild at 2000x256 ...");
    let (rank1_us, rebuild_us, speedup) = run_rank1_section();
    let wire = run_wire_section(200);

    let mut environment = JsonValue::object();
    environment
        .push(
            "cpus_available",
            thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .push("avx2_fma_detected", simd::available_levels().len() > 1)
        .push(
            "session_shape",
            format!("{SAMPLES_PER_SESSION}x{FEATURES} linear regression, single-row deletes"),
        )
        .push(
            "notes",
            "single-core shared container: all sessions, the applier thread and every \
             client thread share one CPU, so p99 latencies are dominated by scheduling \
             noise and absolute throughputs are a floor, not a capability. Delete \
             latency spans admission -> batch commit and therefore includes the 2 ms \
             coalescing window by design; compare the coalesce on/off rows per session \
             count, not across machines. Durable rows additionally pay one WAL append + \
             fsync per batch before acknowledgement — the delete p50/p99 delta against \
             the matching wal=off row is the price of the durability guarantee. \
             Coalescing amortises it across every request folded into the batch; \
             with coalescing off, the applier amortises it instead by sharing one \
             fsync across every batch of a round (see the per-cell durability counters). \
             Decision histograms come from the online cost model (BaseL entries are \
             the forced drift retrains).",
        );
    let mut commands = JsonValue::object();
    commands.push(
        "loadgen",
        "cargo run --release -p priu-bench --bin loadgen -- --sessions 1,4,16 --seconds 0.5 \
         --durability both --out BENCH_10.json",
    );
    let mut wire_json = JsonValue::object();
    wire_json
        .push("predict_round_trips", wire.len())
        .push("p50_us", percentile_us(&wire, 50.0))
        .push("p99_us", percentile_us(&wire, 99.0));
    let mut rank1_json = JsonValue::object();
    rank1_json
        .push("shape", "2000x256 linear, append 1 row")
        .push("rank1_update_us", rank1_us)
        .push("rebuild_capture_us", rebuild_us)
        .push("speedup", speedup);

    let mut doc = JsonValue::object();
    doc.push("pr", 10i64)
        .push(
            "label",
            "durability fast path: WAL group commit + background snapshots + checkpoint \
             compaction; grid compares acknowledged delete latency with the pre-ack \
             (group) fsync on vs off, durable cells report fsync/group/checkpoint \
             counters and end in a separately-timed restart-and-recover cycle",
        )
        .push("date", cli.date.unwrap_or_else(today))
        .push("environment", environment)
        .push("commands", commands)
        .push(
            "grid",
            JsonValue::Array(cells.iter().map(cell_json).collect()),
        )
        .push(
            "sliding_window",
            JsonValue::Array(windows.iter().map(window_json).collect()),
        )
        .push("rank1_add", rank1_json)
        .push("wire", wire_json);

    let rendered = doc.render();
    if let Err(err) = std::fs::write(&cli.out, rendered + "\n") {
        eprintln!("loadgen: writing {}: {err}", cli.out);
        return ExitCode::FAILURE;
    }
    for cell in &cells {
        eprintln!(
            "loadgen: sessions={:2} coalesce={:3} wal={:3} predicts={:6} \
             (p50 {:5.0}us p99 {:6.0}us) deletes={:4} batches={:3} rows/batch={:4.1}",
            cell.sessions,
            if cell.coalesce { "on" } else { "off" },
            if cell.durable { "on" } else { "off" },
            cell.predicts.len(),
            percentile_us(&cell.predicts, 50.0),
            percentile_us(&cell.predicts, 99.0),
            cell.deletes.len(),
            cell.batches,
            if cell.batches == 0 {
                0.0
            } else {
                cell.rows_deleted as f64 / cell.batches as f64
            },
        );
    }
    for cell in &windows {
        eprintln!(
            "loadgen: window sessions={:2} adds={:4} (p50 {:5.0}us) deletes={:4} \
             expired={:4} batches={:3} final_samples={}",
            cell.sessions,
            cell.rows_added,
            percentile_us(&cell.adds, 50.0),
            cell.rows_deleted,
            cell.rows_expired,
            cell.batches,
            cell.final_samples,
        );
    }
    eprintln!("loadgen: rank-1 add {rank1_us:.0}us vs rebuild {rebuild_us:.0}us ({speedup:.1}x)");
    eprintln!("loadgen: wrote {}", cli.out);
    ExitCode::SUCCESS
}
