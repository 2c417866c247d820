//! `serve-durable` and `serve-window`: `priu-server` driven through its
//! wire protocol over one in-memory connection, by an open-loop generator.
//!
//! The main thread is the generator: it writes each request at its
//! scheduled (Poisson) time, sleeping and spinning only for the last
//! [`SPIN`]. One reader thread collects the responses. Latency runs from
//! each request's scheduled send time to the arrival of its response.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use priu_core::{compare_models, DeletionEngine, Method, SessionBuilder, TrainerConfig};
use priu_data::catalog::Hyperparameters;
use priu_data::dataset::DenseDataset;
use priu_data::synthetic::regression::{generate_regression, RegressionConfig};
use priu_rng::Rng64;
use priu_server::{
    decode_response, duplex, encode_request, read_frame, write_frame, DurabilityConfig, PipeReader,
    PipeWriter, Request, RequestEnvelope, Response, Server, ServerConfig,
};

use crate::probe::{self, IoCounters};
use crate::report::{median, percentile, Outcome, METHODS};
use crate::trace::Tracer;
use crate::{Fault, Params};

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 5;
const SESSIONS: usize = 16;
/// The generator sleeps until this long before a request is due, then spins.
const SPIN: Duration = Duration::from_micros(60);
/// Generator lateness p99 above this makes the run invalid. On two CPUs
/// the generator shares cores with the server's threads and wakes late
/// when they are busy; latencies still count from the due time.
const LAG_P99_LIMIT_MS: f64 = 25.0;
/// How long the reader may take to drain after the last request.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);
/// Scheduler refits once this share of rows is gone (the server's default).
const REFIT_DRIFT: f64 = 0.25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Durable,
    Window,
}

/// Sizes and rates of one serve workload at `--scale 1`. The rates keep the
/// server out of saturation on a two-CPU machine: at 2,000 deletes/s the
/// durable server's snapshot thread falls behind and latency grows through
/// the run, and at 500 ticks/s each window session's appended schedule
/// grows so fast that the run never settles. Fewer predicts mean fewer
/// thread wake-ups, which keeps hypervisor steal and its noise down (see
/// `README.md`).
struct Shape {
    rows: usize,
    features: usize,
    deletes_per_s: f64,
    ticks_per_s: f64,
    predicts_per_s: f64,
}

fn shape(kind: Kind, params: &Params) -> Shape {
    let s = params.scale;
    match kind {
        Kind::Durable => {
            let deletes_per_s = 250.0 * s;
            // Sized so each session loses ~31% of its rows in a run: past
            // the 25% refit threshold, short of half.
            let per_session = deletes_per_s * params.seconds / SESSIONS as f64;
            Shape {
                rows: ((per_session / (REFIT_DRIFT * 1.25)).round() as usize).max(64),
                features: 8,
                deletes_per_s,
                ticks_per_s: 0.0,
                predicts_per_s: 500.0 * s,
            }
        }
        Kind::Window => Shape {
            rows: ((2000.0 * s).round() as usize).max(64),
            features: 32,
            deletes_per_s: 100.0 * s,
            ticks_per_s: 100.0 * s,
            predicts_per_s: 1000.0 * s,
        },
    }
}

/// Training schedule of every session. A tick's row is consumed as one
/// single-row gradient step, which is stable only while `2η‖x‖² < 2`; the
/// 32-feature window sessions need the smaller learning rate.
fn hyper(kind: Kind) -> Hyperparameters {
    Hyperparameters {
        batch_size: 50,
        num_iterations: 100,
        learning_rate: if kind == Kind::Window { 0.01 } else { 0.05 },
        regularization: 0.05,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Delete,
    Tick,
    Predict,
}

/// One scheduled request: when it is due (from the run start), and what.
struct Planned {
    due: Duration,
    kind: OpKind,
    session: usize,
    /// Delete: the stable id. Tick: the appended row. Predict: the row
    /// whose features are sent.
    row: u64,
    keep_last: u64,
}

/// Poisson arrival times at `rate` per second over `seconds`.
fn arrivals(rng: &mut Rng64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut out = Vec::new();
    if rate <= 0.0 {
        return out;
    }
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

/// The seeded schedule. Deletes pick a live stable id uniformly across
/// sessions; on `serve-window` only ids of the newer half of the
/// registered rows, which the window's expiry never reaches in a run.
fn schedule(kind: Kind, shape: &Shape, params: &Params) -> Result<Vec<Planned>, String> {
    let mut rng = Rng64::from_seed_stream(params.seed, 0x5E7E);
    let mut events: Vec<(f64, OpKind)> = Vec::new();
    for (rate, op) in [
        (shape.deletes_per_s, OpKind::Delete),
        (shape.ticks_per_s, OpKind::Tick),
        (shape.predicts_per_s, OpKind::Predict),
    ] {
        events.extend(
            arrivals(&mut rng, rate, params.seconds)
                .into_iter()
                .map(|t| (t, op)),
        );
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0));

    let first_deletable = if kind == Kind::Window {
        shape.rows / 2
    } else {
        0
    };
    let mut live: Vec<Vec<u64>> = (0..SESSIONS)
        .map(|_| (first_deletable as u64..shape.rows as u64).collect())
        .collect();
    let mut deleted = [0u64; SESSIONS];
    let mut ticks = [0usize; SESSIONS];
    let mut plan = Vec::with_capacity(events.len());
    for (t, op) in events {
        let session = rng.index(SESSIONS);
        let (row, keep_last) = match op {
            OpKind::Delete => {
                let pool = &mut live[session];
                if pool.is_empty() {
                    return Err(format!("session {session} ran out of deletable rows"));
                }
                deleted[session] += 1;
                (pool.swap_remove(rng.index(pool.len())), 0)
            }
            OpKind::Tick => {
                ticks[session] += 1;
                // The window shrinks by each delete sent before the tick,
                // so every tick expires exactly one row.
                (
                    ticks[session] as u64 - 1,
                    shape.rows as u64 - deleted[session],
                )
            }
            OpKind::Predict => (rng.index(shape.rows) as u64, 0),
        };
        plan.push(Planned {
            due: Duration::from_secs_f64(t),
            kind: op,
            session,
            row,
            keep_last,
        });
    }
    for s in 0..SESSIONS {
        if deleted[s] as usize * 2 > shape.rows {
            return Err(format!("session {s} would lose more than half its rows"));
        }
        if ticks[s] >= first_deletable.max(1) && kind == Kind::Window {
            return Err(format!(
                "session {s}: window expiry would reach deleted ids"
            ));
        }
    }
    Ok(plan)
}

/// Per-session inputs: the registered rows, then one row per tick.
fn datasets(shape: &Shape, plan: &[Planned], params: &Params) -> Vec<DenseDataset> {
    let mut ticks = [0usize; SESSIONS];
    for p in plan.iter().filter(|p| p.kind == OpKind::Tick) {
        ticks[p.session] += 1;
    }
    (0..SESSIONS)
        .map(|s| {
            generate_regression(&RegressionConfig {
                num_samples: shape.rows + ticks[s],
                num_features: shape.features,
                noise_std: 0.1,
                num_noise_features: 0,
                seed: params.seed.wrapping_mul(1_000_003).wrapping_add(s as u64),
            })
        })
        .collect()
}

fn session_name(s: usize) -> String {
    format!("s{s:02}")
}

/// A server-side writer that drops or corrupts one response frame, so the
/// benchmark's own tests can show that such a response is counted failed.
struct FaultyWriter {
    inner: PipeWriter,
    pending: Vec<u8>,
    frames: u64,
    fault: Fault,
}

impl Write for FaultyWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.pending.extend_from_slice(buf);
        while self.pending.len() >= 4 {
            let len = u32::from_le_bytes(self.pending[..4].try_into().expect("4 bytes")) as usize;
            if self.pending.len() < 4 + len {
                break;
            }
            let mut frame: Vec<u8> = self.pending.drain(..4 + len).collect();
            self.frames += 1;
            match self.fault {
                Fault::Drop(k) if k == self.frames => continue,
                // Byte 8 of a response payload is its tag.
                Fault::Corrupt(k) if k == self.frames && frame.len() > 12 => frame[12] = 0xEE,
                _ => {}
            }
            self.inner.write_all(&frame)?;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// One committed batch, as its responses describe it.
#[derive(Debug, Default)]
struct Batch {
    /// Engine seconds of the update.
    seconds: f64,
    /// Distinct rows the batch touched.
    rows: u64,
    method: Option<Method>,
    /// Rows the window's retention expired.
    expired: u64,
}

/// One response as the reader saw it.
struct Arrival {
    at: Instant,
    id: u64,
    response: Option<Response>,
}

struct ReaderResult {
    arrivals: Vec<Arrival>,
    undecodable: u64,
    response_bytes: u64,
    cpu_s: f64,
}

fn reader_loop(mut transport: PipeReader, tracer: &mut Tracer) -> ReaderResult {
    let cpu_start = probe::thread_cpu_s();
    let mut result = ReaderResult {
        arrivals: Vec::new(),
        undecodable: 0,
        response_bytes: 0,
        cpu_s: 0.0,
    };
    loop {
        match read_frame(&mut transport) {
            Ok(Some(frame)) => {
                let at = Instant::now();
                result.response_bytes += frame.len() as u64 + 4;
                let decoded = decode_response(&frame);
                let done = Instant::now();
                match decoded {
                    Ok(env) => {
                        tracer.record("decode", at, done, Some("request"), env.id);
                        result.arrivals.push(Arrival {
                            at,
                            id: env.id,
                            response: Some(env.response),
                        });
                    }
                    Err(_) => result.undecodable += 1,
                }
            }
            Ok(None) => break,
            Err(_) => {
                result.undecodable += 1;
                break;
            }
        }
    }
    result.cpu_s = probe::thread_cpu_s() - cpu_start;
    result
}

fn pace_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

fn config(store: Option<&PathBuf>) -> ServerConfig {
    ServerConfig {
        durability: store.map(DurabilityConfig::new),
        ..ServerConfig::default()
    }
}

fn method_slot(method: Method) -> Option<usize> {
    match method {
        Method::Priu => Some(0),
        Method::PriuOpt => Some(1),
        Method::Retrain => Some(2),
        Method::ClosedForm => Some(3),
        _ => None,
    }
}

pub fn run(params: &Params, kind: Kind, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let shape = shape(kind, params);
    let plan = schedule(kind, &shape, params)?;
    let data = datasets(&shape, &plan, params);
    let trainer = TrainerConfig::from_hyper(hyper(kind))
        .with_seed(params.seed ^ 0x5E55)
        .with_opt_capture(true);
    let store_root = params.out_dir.join(format!("store-{}", std::process::id()));

    // Offline phase, several times: server start + fit + register
    // (with durability, each registration writes its baseline snapshot).
    let rows: Vec<usize> = (0..shape.rows).collect();
    let mut setup_s = Vec::new();
    let mut fit_s = Vec::new();
    let mut server = None;
    let mut store = None;
    for i in 0..SETUPS {
        drop(server.take());
        if let Some(dir) = store.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
        store = (kind == Kind::Durable).then(|| store_root.join(format!("setup{i}")));
        let registered: Vec<DenseDataset> = data.iter().map(|d| d.select(&rows)).collect();
        let start = Instant::now();
        let srv =
            Server::start(config(store.as_ref())).map_err(|e| format!("server start: {e}"))?;
        let mut fits = 0.0;
        let mut provenance = 0usize;
        for (s, dataset) in registered.into_iter().enumerate() {
            let session = SessionBuilder::dense(dataset, trainer)
                .fit()
                .map_err(|e| format!("fit: {e}"))?;
            fits += session.training_time().as_secs_f64();
            provenance += session.provenance_bytes();
            srv.register_session(&session_name(s), session)
                .map_err(|e| format!("register: {e}"))?;
        }
        let end = Instant::now();
        tracer.record("fit", start, end, None, i as u64);
        setup_s.push((end - start).as_secs_f64());
        fit_s.push(fits);
        out.set("core.provenance_mb", provenance as f64 / (1 << 20) as f64);
        server = Some(srv);
    }
    let server = server.expect("at least one setup");
    out.set("setup_s", median(&mut setup_s));
    out.set("core.fit_s", median(&mut fit_s));
    if tracer.enabled() {
        let spent = probe::kernel_probes(&mut out, &data[0].x);
        tracer.record_ending("kernel", spent, Instant::now(), None, 0);
    }

    // The run.
    let ((mut client_w, client_r), (server_w, server_r)) = duplex();
    let connection = match params.fault {
        Some(fault) => server.serve_connection(
            server_r,
            FaultyWriter {
                inner: server_w,
                pending: Vec::new(),
                frames: 0,
                fault,
            },
        ),
        None => server.serve_connection(server_r, server_w),
    };
    let epoch = Instant::now();
    let traced = tracer.enabled();
    let (done_tx, done_rx) = mpsc::channel();
    let reader = thread::Builder::new()
        .name("perfbench-reader".to_string())
        .spawn(move || {
            let mut tracer = Tracer::new(epoch, traced);
            let result = reader_loop(client_r, &mut tracer);
            let _ = done_tx.send(());
            (result, tracer)
        })
        .map_err(|e| format!("spawn reader: {e}"))?;

    let wal_start = server.durability_stats().unwrap_or_default();
    let io_start = IoCounters::now();
    let cpu_start = probe::process_cpu_s();
    let host_start = probe::host_ticks();
    let gen_cpu_start = probe::thread_cpu_s();
    let run_start = Instant::now() + Duration::from_millis(5);
    let mut lag_ms = Vec::with_capacity(plan.len());
    let mut request_bytes = 0u64;
    let mut direct_us = Vec::new();
    let mut sent = 0usize;
    let mut write_error = None;
    for (id, p) in plan.iter().enumerate() {
        let id = id as u64;
        let due = run_start + p.due;
        pace_until(due);
        let start = Instant::now();
        lag_ms.push((start - due).as_secs_f64() * 1e3);
        let session = session_name(p.session);
        let dataset = &data[p.session];
        let request = match p.kind {
            OpKind::Delete => Request::Delete {
                session,
                ids: vec![p.row],
            },
            OpKind::Tick => {
                let row = shape.rows + p.row as usize;
                Request::Tick {
                    session,
                    num_features: shape.features as u32,
                    features: dataset.x.row(row).to_vec(),
                    labels: vec![dataset.labels.as_continuous().expect("regression")[row]],
                    keep_last: p.keep_last,
                }
            }
            OpKind::Predict => Request::Predict {
                session,
                features: dataset.x.row(p.row as usize).to_vec(),
            },
        };
        let payload = encode_request(&RequestEnvelope { id, request });
        let encoded = Instant::now();
        tracer.record("encode", start, encoded, Some("request"), id);
        if let Err(err) = write_frame(&mut client_w, &payload) {
            write_error = Some(err.to_string());
            break;
        }
        let written = Instant::now();
        tracer.record("write", encoded, written, Some("request"), id);
        request_bytes += payload.len() as u64 + 4;
        sent += 1;
        if traced && p.kind == OpKind::Predict {
            // The same predict, straight into the registry.
            let features = dataset.x.row(p.row as usize);
            let start = Instant::now();
            let ok = server.predict(&session_name(p.session), features).is_ok();
            let end = Instant::now();
            tracer.record("direct_predict", start, end, None, id);
            out.check(ok, || "direct predict failed".to_string());
            direct_us.push((end - start).as_secs_f64() * 1e6);
        }
    }
    let gen_end = Instant::now();
    let gen_cpu_s = probe::thread_cpu_s() - gen_cpu_start;
    let pending_end: usize = (0..SESSIONS)
        .filter_map(|s| server.stats(&session_name(s)).ok())
        .map(|st| st.pending)
        .sum();
    if let Some(err) = write_error {
        out.fail(format!("request write failed: {err}"));
    }
    drop(client_w);
    if done_rx.recv_timeout(DRAIN_LIMIT).is_err() {
        out.fail("responses did not drain".to_string());
        server.shutdown();
    }
    let (reader_result, reader_tracer) = reader.join().map_err(|_| "reader panicked")?;
    connection.join();
    // With durability, snapshots the run scheduled may still be queued:
    // their cost belongs to the run, so CPU and I/O are read after them.
    if store.is_some() {
        let start = Instant::now();
        server.drain_durability();
        out.set("snapshot.drain_s", start.elapsed().as_secs_f64());
    }
    let cpu_s = probe::process_cpu_s() - cpu_start;
    out.set("host.steal_frac", probe::steal_frac_since(host_start));
    let io = IoCounters::now().since(io_start);
    let wal_end = server.durability_stats().unwrap_or_default();
    tracer.absorb(reader_tracer);
    let run_s = (gen_end - run_start).as_secs_f64().max(1e-9);

    // Match responses to requests and check each one.
    out.attempted = plan.len() as u64;
    let mut seen = vec![false; plan.len()];
    let mut deletes_ms = Vec::new();
    let mut adds_ms = Vec::new();
    let mut predicts_us = Vec::new();
    let mut residual_ms = Vec::new();
    let mut batches: BTreeMap<(usize, u64), Batch> = BTreeMap::new();
    let mut applied = [0u64; SESSIONS];
    let mut added = [0u64; SESSIONS];
    let mut acked = 0u64;
    let mut last_arrival = run_start;
    for _ in 0..reader_result.undecodable {
        out.fail("undecodable response".to_string());
    }
    for arrival in &reader_result.arrivals {
        let Some(p) = plan.get(arrival.id as usize) else {
            out.fail(format!("response to unknown id {}", arrival.id));
            continue;
        };
        if std::mem::replace(&mut seen[arrival.id as usize], true) {
            out.fail(format!("second response to id {}", arrival.id));
            continue;
        }
        let latency = arrival.at.saturating_duration_since(run_start + p.due);
        last_arrival = last_arrival.max(arrival.at);
        let session = p.session;
        match (p.kind, arrival.response.as_ref()) {
            (
                OpKind::Delete,
                Some(&Response::Deleted {
                    requested,
                    applied: n,
                    batch_rows,
                    method,
                    seconds,
                    epoch,
                    ..
                }),
            ) => {
                out.check(requested == 1 && n == 1, || {
                    format!("delete {}: applied {n} of {requested}", arrival.id)
                });
                applied[session] += n;
                let ms = latency.as_secs_f64() * 1e3;
                deletes_ms.push(ms);
                residual_ms.push(ms - seconds * 1e3);
                tracer.record_ending("engine", seconds, arrival.at, Some("request"), arrival.id);
                let batch = batches.entry((session, epoch)).or_default();
                (batch.seconds, batch.rows, batch.method) = (seconds, batch_rows, method);
                acked += 1;
            }
            (
                OpKind::Tick,
                Some(&Response::Applied {
                    added: n,
                    expired,
                    batch_rows,
                    method,
                    seconds,
                    epoch,
                }),
            ) => {
                out.check(n == 1, || format!("tick {}: added {n}", arrival.id));
                added[session] += n;
                adds_ms.push(latency.as_secs_f64() * 1e3);
                tracer.record_ending("engine", seconds, arrival.at, Some("request"), arrival.id);
                batches.insert(
                    (session, epoch),
                    Batch {
                        seconds,
                        rows: batch_rows,
                        method,
                        expired,
                    },
                );
                acked += 1;
            }
            (OpKind::Predict, Some(&Response::Predicted { value, .. })) => {
                out.check(value.is_finite(), || {
                    format!("predict {}: {value}", arrival.id)
                });
                predicts_us.push(latency.as_secs_f64() * 1e6);
                acked += 1;
            }
            (_, other) => out.fail(format!("request {}: unexpected {other:?}", arrival.id)),
        }
        tracer.record("request", run_start + p.due, arrival.at, None, arrival.id);
    }
    let missing = seen[..sent].iter().filter(|s| !**s).count() + (plan.len() - sent);
    for _ in 0..missing {
        out.fail("request without a response".to_string());
    }

    // Final state: each session holds registered - deleted + added - expired.
    let mut expired = [0u64; SESSIONS];
    for (&(session, _), batch) in &batches {
        expired[session] += batch.expired;
    }
    let mut refits = 0u64;
    let mut similarity = f64::INFINITY;
    let mut provenance_end = 0usize;
    for s in 0..SESSIONS {
        let name = session_name(s);
        let Ok(stats) = server.stats(&name) else {
            out.fail(format!("no stats for {name}"));
            continue;
        };
        let expect = shape.rows as u64 - applied[s] + added[s] - expired[s];
        out.check(stats.num_samples as u64 == expect, || {
            format!("{name}: {} rows, expected {expect}", stats.num_samples)
        });
        refits += stats
            .decisions
            .iter()
            .filter(|(m, _)| *m == Method::Retrain)
            .map(|(_, c)| c)
            .sum::<u64>();
        if let Ok((session, _)) = server.model_snapshot(&name) {
            provenance_end += session.provenance_bytes();
            match session.update(Method::Retrain, &[]) {
                Ok(fresh) => {
                    let cos = compare_models(&fresh.model, session.model())
                        .map_or(f64::NAN, |c| c.cosine_similarity);
                    similarity = similarity.min(cos);
                }
                Err(err) => out.fail(format!("{name}: retrain failed: {err}")),
            }
        }
    }
    out.set(
        "core.provenance_mb_end",
        provenance_end as f64 / (1 << 20) as f64,
    );
    let write_rate = shape.deletes_per_s + shape.ticks_per_s;
    out.check(pending_end as f64 <= (0.25 * write_rate).max(64.0), || {
        format!("backlog of {pending_end} pending deletions at the end of the run")
    });
    let lag_p99 = percentile(&mut lag_ms, 99.0);
    out.check(lag_p99 <= LAG_P99_LIMIT_MS, || {
        format!("generator p99 lateness {lag_p99:.3} ms")
    });

    // Durable: shut down, restart on the same store, and compare.
    let mut recovery_s = 0.0;
    if let Some(dir) = store.as_ref() {
        out.set("store.dir_bytes_end", probe::dir_bytes(dir) as f64);
        server.shutdown();
        let served: Vec<Vec<f64>> = (0..SESSIONS)
            .map(|s| {
                server
                    .model_snapshot(&session_name(s))
                    .map(|(session, _)| session.model().flatten().as_slice().to_vec())
                    .unwrap_or_default()
            })
            .collect();
        drop(server);
        let start = Instant::now();
        match Server::start(config(Some(dir))) {
            Ok(recovered) => {
                recovery_s = start.elapsed().as_secs_f64();
                let report = recovered.recovery_report().cloned().unwrap_or_default();
                out.check(report.sessions.len() == SESSIONS, || {
                    format!("recovered {} sessions", report.sessions.len())
                });
                for s in &report.sessions {
                    out.check(s.skipped.is_empty(), || {
                        format!("{}: {} records skipped", s.session, s.skipped.len())
                    });
                }
                out.set("recovery.sessions", report.sessions.len() as f64);
                out.set(
                    "recovery.records_redone",
                    report.sessions.iter().map(|s| s.redone).sum::<u64>() as f64,
                );
                for (s, weights) in served.iter().enumerate() {
                    let back = recovered
                        .model_snapshot(&session_name(s))
                        .map(|(session, _)| session.model().flatten().as_slice().to_vec())
                        .unwrap_or_default();
                    let same = back.len() == weights.len()
                        && back
                            .iter()
                            .zip(weights)
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                    out.check(same, || format!("session {s}: recovered model differs"));
                }
                recovered.shutdown();
            }
            Err(err) => out.fail(format!("recovery: {err}")),
        }
    } else {
        server.shutdown();
        drop(server);
    }
    let _ = std::fs::remove_dir_all(&store_root);

    // End-to-end metrics.
    let client_cpu_s = gen_cpu_s + reader_result.cpu_s;
    let cpu_us_per_op = (cpu_s - client_cpu_s).max(0.0) * 1e6 / acked.max(1) as f64;
    out.set("cpu_us_per_op", cpu_us_per_op);
    out.set("server_cpu_us_per_op", cpu_us_per_op);
    out.set("similarity_min", similarity);
    out.set("delete_ack_p50_ms", median(&mut deletes_ms));
    out.set("delete_ack_p95_ms", percentile(&mut deletes_ms, 95.0));
    out.set("delete_ack_p99_ms", percentile(&mut deletes_ms, 99.0));
    out.set("add_ack_p50_ms", median(&mut adds_ms));
    out.set("add_ack_p99_ms", percentile(&mut adds_ms, 99.0));
    out.set("predict_p50_us", median(&mut predicts_us));
    out.set("predict_p95_us", percentile(&mut predicts_us, 95.0));
    out.set("predict_p99_us", percentile(&mut predicts_us, 99.0));
    out.set("recovery_s", recovery_s);

    // Per-layer metrics.
    let mut engine_us: Vec<f64> = batches
        .values()
        .filter(|b| b.method.is_some())
        .map(|b| b.seconds * 1e6)
        .collect();
    let apply_us_p50 = median(&mut engine_us);
    out.set("core.apply_us_p50", apply_us_p50);
    out.set("update_ms_p50", apply_us_p50 * 1e-3);
    out.set("core.apply_us_p99", percentile(&mut engine_us, 99.0));
    out.set("ack.residual_ms_p50", median(&mut residual_ms));
    let nbatches = batches.len().max(1) as f64;
    out.set(
        "planner.rows_per_batch",
        batches.values().map(|b| b.rows as f64).sum::<f64>() / nbatches,
    );
    out.set("planner.batches_per_s", batches.len() as f64 / run_s);
    out.set("planner.pending_end", pending_end as f64);
    let mut shares = [0u64; 4];
    for method in batches.values().filter_map(|b| b.method) {
        if let Some(slot) = method_slot(method) {
            shares[slot] += 1;
        }
    }
    for (slot, name) in METHODS.iter().enumerate() {
        out.set(
            &format!("scheduler.share.{name}"),
            shares[slot] as f64 / nbatches,
        );
    }
    out.set("scheduler.refits", refits as f64);
    let rows_changed = applied.iter().sum::<u64>() + added.iter().sum::<u64>();
    let fsyncs = (wal_end.fsyncs - wal_start.fsyncs) as f64;
    let frames = (wal_end.frames - wal_start.frames) as f64;
    out.set("wal.fsyncs_per_s", fsyncs / run_s);
    out.set(
        "wal.frames_per_fsync",
        if fsyncs > 0.0 { frames / fsyncs } else { 0.0 },
    );
    out.set("wal.max_group", wal_end.max_group as f64);
    out.set(
        "wal.bytes_per_row",
        (wal_end.bytes - wal_start.bytes) as f64 / rows_changed.max(1) as f64,
    );
    out.set(
        "wal.checkpoints",
        (wal_end.checkpoints - wal_start.checkpoints) as f64,
    );
    let per_op = acked.max(1) as f64;
    out.set("store.read_bytes_per_op", io.rchar / per_op);
    out.set("store.write_bytes_per_op", io.wchar / per_op);
    out.set("store.write_syscalls_per_op", io.syscw / per_op);
    out.set(
        "protocol.request_bytes",
        request_bytes as f64 / sent.max(1) as f64,
    );
    out.set(
        "protocol.response_bytes",
        reader_result.response_bytes as f64 / reader_result.arrivals.len().max(1) as f64,
    );
    let span_us = |name: &str| -> f64 {
        let mut v: Vec<f64> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        median(&mut v)
    };
    out.set("protocol.encode_us_p50", span_us("encode"));
    out.set("protocol.decode_us_p50", span_us("decode"));
    out.set(
        "registry.predict_direct_us_p50",
        median(&mut direct_us.clone()),
    );
    out.set(
        "registry.predict_direct_us_p99",
        percentile(&mut direct_us, 99.0),
    );
    out.set("gen.lag_p99_ms", lag_p99);
    out.set("gen.offered_per_s", plan.len() as f64 / params.seconds);
    out.set(
        "gen.achieved_per_s",
        acked as f64 / (last_arrival - run_start).as_secs_f64().max(1e-9),
    );
    out.set("gen.client_cpu_s", client_cpu_s);
    if tracer.enabled() {
        let mean_rows = batches.values().map(|b| b.rows as f64).sum::<f64>() / nbatches;
        let h = hyper(kind);
        out.set(
            "linalg.priu_replay_flops",
            probe::priu_replay_flops(
                h.num_iterations,
                shape.features,
                mean_rows * h.batch_size as f64 / shape.rows as f64,
            ),
        );
    }
    out.set(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    Ok(out)
}
